import json
import os
import subprocess
import sys

import pytest

from cantorspec import compat, kernel, systems
from cantorspec.cli import METHOD_COMPAT, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_spectrum_decide_not_spectral(capsys):
    payload = run_json(capsys, "spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,6")
    assert payload["verdict"] == "not-spectral"
    assert payload["witness"] == [[2, 6]]
    assert payload["attractor_bounds"] == ["0", "2"]


def test_spectrum_decide_spectral(capsys):
    payload = run_json(capsys, "spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,2")
    assert payload["verdict"] == "spectral"
    assert payload["witness"] is None
    assert payload["searched_integers"] == [0, 0]


def test_witness_round_trip(capsys):
    payload = run_json(capsys, "spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,6")
    witness = json.dumps(payload["witness"])
    verify = run_json(
        capsys,
        "spectrum", "verify", "--n", "4", "--digits", "0,1", "--s", "0,6",
        "--witness", witness,
    )
    assert verify["valid"] is True


def test_compat_search_lists_candidates(capsys):
    payload = run_json(capsys, "compat", "search", "--n", "6", "--digits", "0,1,2")
    assert payload["candidates"] == [[-4, -2, 0], [-4, 0, 4], [-2, 0, 2], [0, 2, 4]]


def test_compat_check_negative_verdict_still_exits_zero(capsys):
    code, out, err = run(capsys, "compat", "check", "--n", "3", "--digits", "0,2", "--s", "0,1")
    assert code == 0
    assert json.loads(out)["compatible"] is False


def test_compat_check_certificate(capsys):
    payload = run_json(capsys, "compat", "check", "--n", "4", "--digits", "0,1", "--s", "0,2")
    assert payload["compatible"] is True
    assert payload["certificate"]["zero_differences"] == [[0, 2, 2]]


def test_compat_check_at_a_primorial_scale(capsys):
    n = 9699690
    payload = run_json(capsys, "compat", "check", "--n", str(n), "--digits", f"0,{n // 2}", "--s", "0,1")
    assert payload["compatible"] is True
    assert payload["certificate"]["zero_differences"] == [[0, 1, n]]


def test_compat_reduce_and_power(capsys):
    payload = run_json(capsys, "compat", "reduce", "--n", "6", "--s", "0,4,8")
    assert payload["reduced"] == [0, 2, 4]
    payload = run_json(
        capsys, "compat", "power", "--n", "4", "--digits", "0,1", "--s", "0,2", "--k", "2"
    )
    assert payload["digits_k"] == [0, 1, 4, 5]
    assert payload["s_k"] == [0, 2, 8, 10]
    assert payload["scale_power"] == 16


def test_spectrum_report(capsys):
    payload = run_json(capsys, "spectrum", "report", "--n", "4", "--digits", "0,1")
    assert payload["status"] == "spectral-with-certificate"
    assert payload["candidate"] == [-2, 0]
    payload = run_json(capsys, "spectrum", "report", "--n", "2", "--digits", "0,1")
    assert payload["status"] == "unit-interval"
    payload = run_json(capsys, "spectrum", "report", "--n", "3", "--digits", "0,2")
    assert payload["status"] == "no-compatible-pair-found"


def test_measure_lambda(capsys):
    payload = run_json(capsys, "measure", "lambda", "--n", "4", "--s", "0,2", "--depth", "2")
    assert payload["elements"] == [0, 2, 8, 10]


def test_measure_fourier(capsys):
    payload = run_json(
        capsys, "measure", "fourier", "--n", "2", "--digits", "0,1", "--xi", "0.5"
    )
    assert payload["abs"] == pytest.approx(2 / 3.141592653589793, abs=1e-9)
    assert payload["error_bound"] < 1e-9
    assert payload["imag"] == pytest.approx(-payload["abs"], abs=1e-9)


def test_measure_qgrid_csv(capsys):
    code, out, err = run(
        capsys,
        "measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2",
        "--grid", "8", "--depth", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,q_value,error_bound"
    assert len(lines) == 9
    for line in lines[1:]:
        xi, value, bound = (float(part) for part in line.split(","))
        assert 0 <= xi < 1
        assert value <= 1 + 1e-9
        assert bound >= 0


def test_measure_qgrid_json(capsys):
    payload = run_json(
        capsys,
        "measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2",
        "--grid", "4", "--depth", "4",
    )
    assert len(payload["grid"]) == 4
    assert payload["grid"][0][0] == 0.0


def test_tiling_check_and_construct(capsys):
    payload = run_json(capsys, "tiling", "check", "--digits", "0,1,8,9", "--modulus", "16")
    assert payload["complementing"] is True
    assert payload["complement"] == [0, 2, 4, 6]
    payload = run_json(capsys, "tiling", "check", "--digits", "0,2", "--modulus", "3")
    assert payload["complementing"] is False
    payload = run_json(capsys, "tiling", "construct", "--n", "6", "--digits", "0,1,2,3,4,5")
    assert payload["s"] == [0, 2, 3, 4, 5, 7]
    assert payload["fractional_e"] == ["0", "1/3", "1/2", "2/3", "5/6", "7/6"]
    assert payload["p_powers"] == [2]
    assert payload["q_powers"] == [3]


def test_tiling_past_the_recursion_limit(capsys):
    payload = run_json(capsys, "tiling", "check", "--digits", "0,1,8,9", "--modulus", "4096")
    assert payload["complementing"] is True
    assert len(payload["complement"]) == 1024
    payload = run_json(capsys, "tiling", "construct", "--n", "8192", "--digits", "0,4096")
    assert payload["modulus_l"] == 8192
    assert payload["complement"] == list(range(4096))
    assert payload["s"] == [0, 1]


def test_malformed_input_exits_one(capsys):
    for argv in [
        ["compat", "check", "--n", "4", "--digits", "0,0", "--s", "0,2"],
        ["compat", "check", "--n", "x", "--digits", "0,1", "--s", "0,2"],
        ["spectrum", "verify", "--n", "4", "--digits", "0,1", "--s", "0,6", "--witness", "nope"],
        ["nonsense"],
        [],
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err != ""


def test_precondition_violation_exits_two(capsys):
    for argv in [
        ["compat", "check", "--n", "4", "--digits", "0,1", "--s", "0"],
        ["compat", "search", "--n", "2", "--digits", "0,1"],
        ["spectrum", "decide", "--n", "4", "--digits", "1,2", "--s", "0,2"],
        ["spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,1"],
        ["spectrum", "decide", "--n", "1", "--digits", "0,1", "--s", "0,2"],
        ["compat", "power", "--n", "4", "--digits", "0,1", "--s", "0,2", "--k", "0"],
        ["measure", "lambda", "--n", "4", "--s", "0,1,2", "--depth", "40"],
        ["measure", "lambda", "--n", "1", "--s", "0,1", "--depth", "3"],
        ["measure", "lambda", "--n", "0", "--s", "0,1", "--depth", "3"],
        ["measure", "lambda", "--n", "4", "--s", "5", "--depth", "8000"],  # past the str() digit limit
        ["measure", "lambda", "--n", "4", "--s", "5", "--depth", "40000"],
        ["compat", "power", "--n", "4", "--digits", "0", "--s", "5", "--k", "40000"],
        ["compat", "power", "--n", "4", "--digits", "0,1", "--s", "0,2", "--k", "12"],
        ["measure", "fourier", "--n", "4", "--digits", "0,1", "--xi", "nan"],
        ["measure", "fourier", "--n", "4", "--digits", "0,1", "--xi", "inf"],
        ["measure", "fourier", "--n", "4", "--digits", "0,1", "--xi", "1e300"],
        ["measure", "fourier", "--n", str(10**310), "--digits", "0,1", "--xi", "0.5"],
        ["measure", "qgrid", "--n", str(10**310), "--digits", "0,1", "--s", "0,2", "--grid", "2"],
        ["tiling", "construct", "--n", "4", "--digits", "0,1,2"],
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("precondition violated:")


@pytest.mark.parametrize(
    "argv,code,expected",
    [
        (["compat", "check", "--n", "10000000000000061", "--digits", "0,1", "--s", "0,1"], 0,
         '{"certificate": null, "compatible": false, "method": "' + METHOD_COMPAT + '"}\n'),
        (["compat", "check", "--n", "32589158477190044730", "--digits", "0,1", "--s", "0,1"], 0,
         '{"certificate": null, "compatible": false, "method": "' + METHOD_COMPAT + '"}\n'),
        (["tiling", "construct", "--n", "32589158477190044730", "--digits", "0,2"], 2, ""),
        (["compat", "check", "--n", "32589158477190044730",
          "--digits", ",".join(str(d) for d in range(0, 60, 2)),
          "--s", ",".join(str(s) for s in range(30))], 0,
         '{"certificate": null, "compatible": false, "method": "' + METHOD_COMPAT + '"}\n'),
    ],
    ids=["prime-10^16+61", "16-primorial-check", "16-primorial-construct", "16-primorial-wide-digits"],
)
def test_digits_reach_only_small_orders_of_a_huge_scale(capsys, argv, code, expected):
    # |N| (a prime near 10^16, or the product of the first 16 primes with
    # 65,536 divisors) is never factorised, only its gcd g with lcm(1..|D|)
    # times the lcm of the digit differences: g = 2 for {0, 1} and {0, 2};
    # for 30 even digits (s = 58) g has the 10 primes up to 29, and only its
    # 43 divisors with phi(b) <= 58 are tested
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, expected)
    assert err == ("" if code == 0 else
                   "precondition violated: digit set is not complementing modulo any admissible divisor of N\n")


@pytest.mark.parametrize("n,digits", [("100000000000031", "0,10000000"), ("10000000000000061", "0,100000000")])
def test_wide_digits_at_a_large_prime_scale_factorise_nothing(capsys, n, digits):
    # former cliff: the prime |N| was trial-divided up to s + 1, 10^7 + 1 and
    # 10^8 + 1 steps; every vanishing order divides gcd(|N|, 2 * s) = 1
    code, out, err = run(capsys, "compat", "check", "--n", n, "--digits", digits, "--s", "0,1")
    assert (code, out, err) == (0, '{"certificate": null, "compatible": false, "method": "' + METHOD_COMPAT + '"}\n', "")


def test_tiling_check_refutes_a_non_tile_without_searching(capsys):
    # {0, 96} is no tile mod 200: (T1) fails, since v_2(96) = 5 >= v_2(200) = 3
    code, out, err = run(capsys, "tiling", "check", "--digits", "0,96", "--modulus", "200")
    assert (code, out, err) == (0, '{"complement": null, "complementing": false, "modulus": 200}\n', "")


def test_complement_search_over_budget_exits_two(capsys, monkeypatch):
    # {0, 13} tiles Z_48, but its search places more than 1000 translates
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 1000)
    code, out, err = run(capsys, "tiling", "check", "--digits", "0,13", "--modulus", "48")
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:") and "budget of 1000 placed translates" in err


def test_search_over_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(compat, "SEARCH_BUDGET", 3)
    code, out, err = run(capsys, "compat", "search", "--n", "6", "--digits", "0,1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:") and "budget" in err


@pytest.mark.parametrize("group,action", [("compat", "search"), ("spectrum", "report")])
def test_window_search_past_its_pattern_budget_exits_two_before_building(capsys, monkeypatch, group, action):
    def refuse(*args):
        raise AssertionError("the zero pattern was built past its budget")

    monkeypatch.setattr(compat, "_zero_pattern", refuse)
    code, out, err = run(capsys, group, action, "--n", str(10**9), "--digits", "0,1")
    assert (code, out) == (2, "")
    assert err == (
        "precondition violated: the window search at |N| = 1000000000 builds a zero pattern of "
        "about 1250000000 bytes (|N| bytes and a 2|N|-bit integer), over its budget of 134217728 bytes\n"
    )


def test_qgrid_work_estimate_exits_two_before_the_first_point(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid point ran past the work estimate")

    monkeypatch.setattr(kernel, "q_eval_with_bound", refuse)
    code, out, err = run(capsys, "measure", "qgrid", "--n", "4", "--digits", "0,1,2",
                         "--s", "0,1,2", "--depth", "12")
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:")
    assert "3^12 * 101 = 53675541" in err and "budget 1000000" in err
    code, out, err = run(capsys, "measure", "qgrid", "--n", "4", "--digits", "0,1,2",
                         "--s", "0,1,2", "--depth", str(10**9), "--grid", "2")
    assert code == 2 and "3^1000000000 * 2 exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "lambda", "--n", "4", "--s", "5", "--depth", "40000"],
        ["measure", "lambda", "--n", "-10", "--s", "0,1", "--depth", str(10**9)],
        ["compat", "power", "--n", "4", "--digits", "0", "--s", "5", "--k", "40000"],
    ],
)
def test_digit_limit_exits_two_before_the_slice_is_built(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a slice was built past the digit estimate")

    monkeypatch.setattr(compat, "lambda_enumerate", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"precondition violated: an output integer has more than {sys.get_int_max_str_digits()} "
        "decimal digits, the interpreter's limit for printing it\n"
    )


def test_digit_estimate_leaves_printable_slices_alone(capsys):
    payload = run_json(capsys, "measure", "lambda", "--n", "4", "--s", "0", "--depth", "40000")
    assert payload["elements"] == [0]
    payload = run_json(capsys, "compat", "power", "--n", "4", "--digits", "0", "--s", "5", "--k", "2000")
    assert payload["s_k"] == [5 * (4**2000 - 1) // 3]


def test_byte_identical_output(capsys):
    first = run(capsys, "spectrum", "report", "--n", "6", "--digits", "0,1,2")
    second = run(capsys, "spectrum", "report", "--n", "6", "--digits", "0,1,2")
    assert first == second
    first = run(capsys, "measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2",
                "--grid", "5", "--depth", "3", "--format", "csv")
    second = run(capsys, "measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2",
                 "--grid", "5", "--depth", "3", "--format", "csv")
    assert first == second


def test_module_entrypoint_subprocess():
    # The child runs from the checkout's src/, as tests/conftest.py does for
    # this process, so the test needs no installed package.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cantorspec", "measure", "lambda", "--n", "4", "--s", "0,2", "--depth", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["elements"] == [0, 2, 8, 10]
    proc = subprocess.run(
        [sys.executable, "-m", "cantorspec", "compat", "check", "--n", "2", "--digits", "0,0", "--s", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1


def test_negative_integers_in_list_flags(capsys):
    payload = run_json(
        capsys,
        "compat", "check", "--n", "5", "--digits", "0,2,-2,11,-11", "--s", "0,1,-1,2,-2",
    )
    assert payload["compatible"] is True
    payload = run_json(capsys, "spectrum", "decide", "--n", "-4", "--digits", "0,1", "--s", "0,2")
    assert payload["verdict"] == "spectral"
