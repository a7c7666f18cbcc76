"""Smoke tests for the survey scripts under scripts/, each run as its own
process from the checkout's src/ at tiny sizes."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_survey_spectra_tallies_every_system():
    proc = run_script("survey_spectra.py", "--max-scale", "4", "--max-digit", "3")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    # 3 scales times the 8 digit sets {0} + a subset of {1, 2, 3}
    assert rows[0] == "scale,digits,status,candidate" and len(rows) == 1 + 3 * 8
    assert "4,0 1,spectral-with-certificate,-2 0" in rows
    assert proc.stderr.splitlines() == [
        "# no-compatible-pair-found: 13",
        "# spectral-with-certificate: 8",
        "# unit-interval: 3",
    ]


def test_survey_spectra_north_star_tally():
    # the verdict tally over every (N, D) with 2 <= |N| <= 12, 0 in D and D in [0, 7]
    proc = run_script("survey_spectra.py", "--max-scale", "12", "--max-digit", "7", "--include-negative")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0] == "scale,digits,status,candidate" and len(rows) == 1 + 2_816
    assert proc.stderr.splitlines() == [
        "# no-compatible-pair-found: 2568",
        "# spectral-with-certificate: 234",
        "# unit-interval: 14",
    ]


def test_scan_two_digit_spectra_splits_the_compatible_candidates():
    proc = run_script("scan_two_digit_spectra.py", "--limit", "8", "--q-depth", "4")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = proc.stdout.splitlines()
    assert rows[0] == "k,compatible,verdict,witness,q_at_eta0" and len(rows) == 1 + 8
    # {0, k} is compatible with D/4 = {0, 1/4} exactly when k = 2 (mod 4)
    assert rows[2] == "2,yes,spectral,,"
    assert rows[6] == "6,yes,not-spectral,2+6,0.000e+00"
    assert all(row.endswith(",no,,,") for i, row in enumerate(rows[1:], 1) if i % 4 != 2)


def test_order_stress_times_the_cases_it_is_given():
    proc = run_script(
        "order_stress.py", "compat-primorial-20", "order-test-2000-at-4000", "construct-shared-prime-1e14",
        "power-single-point-3-1.6e7", "power-2-at-1e400-k8", "lambda-2-at-1e239-depth-13", "report-2e8",
        "report-negative-2e2199", "decide-negative-2e2199",
        "search-dense-2e8", "check-13-at-768", "construct-complement-2^22", "decide-tile-6e4",
        "search-dense-1e5", "complement-1000-at-1e7", "decide-wide-100", "decide-lifted-8-1e5",
        "decide-clustered-8-1e8", "decide-hull-4-2e7", "decide-laba-wang-64-1e6", "decide-small-hulls",
        "t1-sweep-2^2000", "construct-decide-wide", "construct-decide-500",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [row.split(",") for row in proc.stdout.splitlines()]
    assert rows[0] == ["case", "seconds", "answer"]
    assert [(row[0], row[2]) for row in rows[1:]] == [
        ("compat-primorial-20", "0:6391ce57cb8f"),  # exit 0, and the SHA-1 of its JSON
        ("order-test-2000-at-4000", "19 orders"),  # the b > 1 dividing 2000: D(z) = (z^2000 - 1)/(z - 1)
        ("construct-shared-prime-1e14", "0:7075404577b7"),  # S = {0, q}, asking only the order 2
        ("power-single-point-3-1.6e7", "1 and 1 points"),  # the slices of {0}: no power 3^(1.6 * 10^7) formed
        ("power-2-at-1e400-k8", "0:c2afe1e48662"),  # 256 points in each slice, no pair of S_8 re-checked
        ("lambda-2-at-1e239-depth-13", "2:da39a3ee5e6b"),  # 2^13 points of up to 149 words: exit 2, no stdout
        ("report-2e8", "0:0e0bd5ab2245"),  # g = 2: S = {-10^8, 0}
        ("report-negative-2e2199", "2:da39a3ee5e6b"),  # bounds over N^2 - 1, 4399 digits: exit 2, no stdout
        ("decide-negative-2e2199", "2:da39a3ee5e6b"),  # the same hull, decided from it: exit 2, no stdout
        ("search-dense-2e8", "2:da39a3ee5e6b"),  # g = |N| past the pattern budget: exit 2, no stdout
        ("check-13-at-768", "0:15f37c373737"),  # {0, 13} tiles Z_768: the product complement
        ("construct-complement-2^22", "2:da39a3ee5e6b"),  # L = 2^22 past the budget: exit 2, no stdout
        ("decide-tile-6e4", "0:5b4f867f6dbc"),  # |S| = |N|, not spectral: the cycle through 1
        ("search-dense-1e5", "2:da39a3ee5e6b"),  # g = |N|, dense zeros: past the walk's work budget, exit 2
        ("complement-1000-at-1e7", "2:da39a3ee5e6b"),  # L = 10^7 past the budget: exit 2, no stdout
        ("decide-wide-100", "0:fd7a9d7cfcb1"),  # |S| = 2 of |N| = 100, a hull of 10^6 integers: spectral
        ("decide-lifted-8-1e5", "0:aa011ba1739f"),  # |S| = 4 of |N| = 8, a hull of 10^5 integers: spectral
        ("decide-clustered-8-1e8", "0:47afd025ed2c"),  # the same with S clustered, a hull of 10^8: spectral
        ("decide-hull-4-2e7", "0:9d7492423815"),  # |S| = 2 of |N| = 4, a hull of 6.7 * 10^6 integers: spectral
        ("decide-laba-wang-64-1e6", "0:bf9107ec693a"),  # |S| = 32 of |N| = 64, a hull of 10^6 integers: spectral
        ("decide-small-hulls", "266 spectral"),  # 500 window pairs lifted to hulls of 30-100 integers
        ("t1-sweep-2^2000", "memo keeps 1"),  # (T1) asks only the order 2, the reach of every 2^k
        ("construct-decide-wide", "spectral True |S| = 432 L = 2592"),  # 432 digits at N = 2^8 * 3^6
        ("construct-decide-500", "500 spectral"),  # 500 seeded tiles of 2-9 digits at 24 <= |N| <= 8640
    ]
    assert all(float(row[1]) >= 0 for row in rows[1:])
    unknown = run_script("order_stress.py", "no-such-case")
    assert unknown.returncode == 2 and "no-such-case" in unknown.stderr


def test_kernel_stress_times_the_cases_it_is_given():
    proc = run_script("kernel_stress.py", "qgrid-8", "asym-5", "far-4-20", "far-3-600", "collision-4", "sweep-6-24",
                      "warm-points-6", "transfer-far-4-20")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [row.split(",") for row in proc.stdout.splitlines()]
    assert rows[0] == ["case", "seconds", "answer"]
    assert [(row[0], row[2]) for row in rows[1:]] == [
        ("qgrid-8", "0.999890308096"),  # Q at xi = 0.3 for (8, {0,1,2,3}), S = {0,2,4,6}, depth 6
        ("asym-5", "1.24161790923"),  # (-5, {0,1}), S = {0,7}, depth 4: P_1 closes what P_2 leaves
        ("far-4-20", "2.80101807642"),  # 4^20 = 0 mod 4 in S: the slice takes its points
        ("far-3-600", "0.736839729322"),  # (2, {0,1}), S = {0, 3^600}: P_0 alone, the leaf rows
        ("collision-4", "19.1261987806"),  # S = {0,1,4}: 4 + 0 = 0 + 4, slice points merged
        ("sweep-6-24", "23.9977946849"),  # sum of Q at xi = i/24 for (6, {0,1,2}), S = {0,2,4}, depth 7
        ("warm-points-6", "99.9903234783"),  # the same at xi = i/100, fresh records for each point
        ("transfer-far-4-20", "below-1e-14"),  # inner points (0.3 + 4^20 + 2)/4 formed exactly
    ]
    assert all(float(row[1]) >= 0 for row in rows[1:])
    unknown = run_script("kernel_stress.py", "no-such-case")
    assert unknown.returncode == 2 and "no-such-case" in unknown.stderr


def test_src_lines_counts_every_module_of_the_package():
    proc = run_script("src_lines.py")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [row.split() for row in proc.stdout.splitlines()]
    modules = {name: int(count) for name, count in rows[:-1]}
    assert sorted(modules) == sorted(path.name for path in (ROOT / "src" / "cantorspec").glob("*.py"))
    assert all(count > 0 for count in modules.values())
    assert rows[-1] == ["total", str(sum(modules.values()))]


def test_paired_inprocess_times_a_checkout_against_itself():
    # cli-tour pairs child processes, one `python -m cantorspec` per item and tree
    for workload, passes in (("construct", 2), ("cli-tour", 1)):
        proc = run_script("paired_inprocess.py", "--parent", str(ROOT / "src"), workload, "--passes", str(passes))
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [row.split(",") for row in proc.stdout.splitlines()]
        assert rows[0] == ["workload", "passes", "parent_us", "change_us", "ratio", "change_faster"]
        assert len(rows) == 2 and rows[1][:2] == [workload, str(passes)]
        parent_us, change_us, ratio = map(float, rows[1][2:5])
        assert parent_us > 0 and change_us > 0 and ratio > 0
        assert int(rows[1][5]) in range(passes + 1)
