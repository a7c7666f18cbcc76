"""Tests of the benchmark itself: seeded inputs, output checks and spans.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import calib
import cantorspec as cs
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed_and_round(name):
    workload = workloads.WORKLOADS[name]
    assert workload.inputs(7, 2) == workload.inputs(7, 2)
    assert workload.inputs(7, 2) != workload.inputs(8, 2)
    assert workload.inputs(7, 2) != workload.inputs(7, 3)


def test_the_rounds_of_a_run_visit_every_cell_of_every_stratum_once():
    for rounds in (1, 5, 11):
        cells = [workloads.stratum_positions("census", 3, r, rounds) for r in range(rounds)]
        for k in range(workloads.MAX_STRATA):
            assert sorted(c[k] for c in cells) == [(i + 0.5) / rounds for i in range(rounds)]
    assert workloads.stratum_positions("census", 3, 0, 8) != workloads.stratum_positions("census", 4, 0, 8)


def test_census_rounds_have_fixed_shape():
    width = (workloads.CENSUS_MAX_N - 2) / workloads.CENSUS_STRATA
    for seed in range(20):
        items = workloads.WORKLOADS["census"].inputs(seed, 0)
        strata = Counter(int((abs(n) - 3) // width) for n, _ in items)
        assert strata == {k: 2 for k in range(workloads.CENSUS_STRATA)}
        assert sum(n < 0 for n, _ in items) == len(items) // 4  # 8 rounds: exactly a quarter
        assert all(2 <= len(digits) <= 6 for _, digits in items)


def test_construct_rounds_meet_every_modulus_with_a_tiling_digit_set():
    for seed in range(10):
        items = workloads.WORKLOADS["construct"].inputs(seed, 0)
        assert sorted(abs(n) for n, _ in items) == sorted(workloads.CONSTRUCT_MODULI)
        for n, digits in items:
            assert len(digits) in workloads.CONSTRUCT_SIZES
            assert cs.find_modulus_l(cs.ScaleDigitSystem(n, digits)) is not None


def test_cycles_lifts_keep_residues_and_compatibility():
    for seed in range(10):
        for scale, digits, elements in workloads.WORKLOADS["cycles"].inputs(seed, 0):
            system = cs.ScaleDigitSystem(scale, digits)
            assert 0 in elements
            assert cs.is_compatible(system, cs.SpectrumCandidate(elements)) is not None
            assert max(abs(s) for s in elements) <= 10**6 + abs(scale)


def test_cycles_check_rejects_a_tampered_witness():
    item = (4, (0, 1), (0, 6))
    verdict, verified = workloads.cycles_run(item)
    assert verdict.witness == ((2, 6),) and verified
    assert workloads.cycles_check(item, (verdict, verified))
    tampered = dataclasses.replace(verdict, witness=((3, 6),))
    assert not workloads.cycles_check(item, (tampered, verified))
    assert not workloads.cycles_check(item, (verdict, False))


def test_independent_walk_finds_exactly_the_nonzero_cycles():
    assert workloads.has_nonzero_cycle(4, (0, 6))  # 2 -> (2 + 6)/4 = 2
    assert not workloads.has_nonzero_cycle(4, (0, 2))
    assert not workloads.has_nonzero_cycle(-4, (-2, 0))
    for scale, digits, elements in workloads.WORKLOADS["cycles"].inputs(5, 0)[:12]:
        verdict, _ = workloads.cycles_run((scale, digits, elements))
        assert workloads.has_nonzero_cycle(scale, elements) == (not verdict.spectral)


def test_cycles_recheck_rejects_a_forged_spectral_verdict():
    item = (4, (0, 1), (0, 6))
    verdict, _ = workloads.cycles_run(item)
    forged = dataclasses.replace(verdict, spectral=True, witness=None)
    assert workloads.cycles_check(item, (forged, None))  # the range alone cannot tell
    assert workloads.cycles_recheck(random.Random(0), [item], [(forged, None)]) == [0]
    honest = workloads.cycles_run((4, (0, 1), (0, 2)))
    assert workloads.cycles_recheck(random.Random(0), [(4, (0, 1), (0, 2))], [honest]) == []


def test_cycles_check_rejects_a_wrong_searched_range():
    item = (4, (0, 1), (0, 2))
    verdict, verified = workloads.cycles_run(item)
    assert workloads.cycles_check(item, (verdict, verified))
    assert not workloads.cycles_check(item, (dataclasses.replace(verdict, searched=(0, 5)), verified))


def test_construct_check_rejects_a_wrong_certificate():
    item = (8, (0, 1, 4, 5))
    construction, verdict = workloads.construct_run(item)
    assert workloads.construct_check(item, (construction, verdict))
    cert = construction.certificate
    wrong_order = tuple((a, b, m + 1) for a, b, m in cert.zero_differences)
    bad = dataclasses.replace(construction, certificate=dataclasses.replace(cert, zero_differences=wrong_order))
    assert not workloads.construct_check(item, (bad, verdict))
    # A certificate for another candidate does not vouch for this one.
    other = cs.is_compatible(cs.ScaleDigitSystem(8, (0, 1, 4, 5)), cs.SpectrumCandidate((-4, -3, 0, 1)))
    assert other is not None and other.candidate.elements != construction.result_s
    bad = dataclasses.replace(construction, certificate=other)
    assert not workloads.construct_check(item, (bad, verdict))


def test_unitarity_check_rejects_an_incompatible_pair():
    assert workloads.unitarity_error(4, (0, 1), (0, 2)) < workloads.UNITARITY_TOL
    assert workloads.unitarity_error(4, (0, 1), (0, 1)) > 0.1


def test_census_check_rejects_a_wrong_certificate():
    item = (6, (0, 1, 2))
    report = workloads.census_run(item)
    assert report.status == cs.STATUS_SPECTRAL
    assert workloads.census_check(item, report)
    cert = report.certificate
    forged = dataclasses.replace(cert, candidate=cs.SpectrumCandidate((0, 1, 2)))
    assert not workloads.census_check(item, dataclasses.replace(report, certificate=forged))


def test_census_check_requires_spectral_for_laba_wang_systems():
    item = (-12, (-3, 1, 5, 11))  # residues 1, 1, 1, 3 mod 4: not Laba-Wang
    assert not workloads.laba_wang(*item)
    item = (12, (0, 5, 7, 10))  # residues 0, 1, 3, 2 mod 4, and 4 | 12
    assert workloads.laba_wang(*item)
    report = workloads.census_run(item)
    assert report.status == cs.STATUS_SPECTRAL and workloads.census_check(item, report)
    forged = dataclasses.replace(report, status=cs.STATUS_UNKNOWN, candidate=None, certificate=None, verdict=None)
    assert not workloads.census_check(item, forged)


def test_qgrid_check_rejects_q_above_one_plus_bound():
    item = ("q", workloads.QGRID_PAIRS[0], 0.3)
    value, bound = workloads.qgrid_run(item)
    assert workloads.qgrid_check(item, (value, bound))
    assert not workloads.qgrid_check(item, (1.0 + bound + 1e-9, bound))
    assert not workloads.qgrid_check(("transfer", workloads.QGRID_TRANSFER[0], 0.3), 1e-3)


def test_mu_hat_oracle_agrees_at_small_arguments():
    system = cs.ScaleDigitSystem(4, (0, 1))
    result = cs.mu_hat(system, 12.3)
    exact = workloads.mu_hat_oracle(4, (0, 1), 12.3, result.factors + 40)
    assert abs(result.value - exact) <= result.error_bound + workloads.MU_HAT_SLACK


def test_cli_check_rejects_bad_output():
    item = ("spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,6")
    stdout = json.dumps(
        {"attractor_bounds": ["0", "2"], "method": "m", "searched_integers": [0, 2], "verdict": "not-spectral", "witness": [[2, 6]]}
    )
    assert workloads.cli_check(item, (0, stdout, ""))
    assert not workloads.cli_check(item, (0, "not json", ""))
    assert not workloads.cli_check(item, (1, stdout, ""))
    assert not workloads.cli_check(item, (0, stdout.replace("not-spectral", "spectral"), ""))


def test_cli_tour_commands_match_the_library():
    for item in workloads.WORKLOADS["cli-tour"].inputs(3, 0):
        assert workloads.cli_check(item, workloads.cli_run(item)), item


def test_calibration_factors_follow_nearby_samples():
    sampler = calib.Sampler()
    sampler.times = [float(t) for t in range(12)]
    sampler.values = [2.0] * 6 + [4.0] * 6
    assert sampler.factor_at(0.4) == calib.REF_MS / 2.0
    assert sampler.factor_at(11.0) == calib.REF_MS / 4.0
    assert calib.task_ms() > 0


def test_tracer_counts_and_restores():
    tracer = spans.Tracer()
    original = cs.decide_spectrum
    tracer.install(cs)
    try:
        assert cs.decide_spectrum is not original
        assert cs.decide.decide_spectrum is cs.decide_spectrum
        cs.decide_spectrum(cs.ScaleDigitSystem(4, (0, 1)), cs.SpectrumCandidate((0, 6)))
    finally:
        tracer.uninstall()
    assert cs.decide_spectrum is original
    summary = tracer.summary()
    assert summary["counts"]["decide.decide_calls"] == 1
    assert summary["counts"]["decide.witnesses"] == 1
    assert summary["counts"]["compat.is_compatible_calls"] == 1
    assert summary["counts"]["cyclotomic.mask_calls"] == 1
    assert summary["self_s"]["decide"] > 0
    total_self = sum(summary["self_s"].values())
    assert total_self == pytest.approx(summary["top_level_s"])


def test_tracer_skips_missing_functions():
    class Package:
        __name__ = "not_a_loaded_package"
        __all__ = ["gone", "CONSTANT"]
        CONSTANT = 3

    tracer = spans.Tracer()
    tracer.install(Package)
    tracer.uninstall()
    assert tracer.summary()["spans"] == 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
