import gc
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from cantorspec import compat, cyclotomic, kernel, systems
from cantorspec.cli import METHOD_COMPAT, _json_default, main


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


def test_spectrum_decide_deep_large_scale(capsys):
    # budget level 19 at N = 1000: the search's cylinders hold about
    # 1.5 * 10^24 integers each, more than len() counts
    s = str(15 * 10**56 + 500)
    payload = run_json(capsys, "spectrum", "decide", "--n", "1000", "--digits", "0,1", "--s", f"0,{s}")
    assert payload["verdict"] == "spectral"
    assert payload["searched_integers"] == [0, int(s) // 999]


def test_witness_round_trip(capsys):
    payload = run_json(capsys, "spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,6")
    witness = json.dumps(payload["witness"])
    verify = run_json(
        capsys,
        "spectrum", "verify", "--n", "4", "--digits", "0,1", "--s", "0,6",
        "--witness", witness,
    )
    assert verify["valid"] is True


def test_witness_refuses_json_booleans(capsys):
    # JSON true loads as Python's True, an int subclass: [[1,true]] must not
    # pass as the valid cycle [[1,1]] of (2, {0,1}), S = {0,1}
    for witness, shown in [("[[1,true]]", "[1, True]"), ("[[true,1]]", "[True, 1]")]:
        code, out, err = run(
            capsys, "spectrum", "verify", "--n", "2", "--digits", "0,1", "--s", "0,1", "--witness", witness
        )
        assert (code, out) == (1, "")
        assert err == f"error: argument --witness: witness entries must be [eta, s] integer pairs, got {shown}\n"


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


def test_decide_witness_is_the_cycle_through_the_smallest_attractor_integer(capsys):
    # 1 is the attractor's smallest nonzero integer; -1 is not in it, though
    # a walk from -1 reaches the cycle [[2, -10]]
    code, out, err = run(capsys, "spectrum", "decide", "--n", "-4", "--digits", "0,1,2,3", "--s=-10,-7,0,11")
    assert (code, err) == (0, "")
    assert out == (
        '{"attractor_bounds": ["-18/5", "17/5"], "method": "integer-cycle search inside the attractor '
        'enclosure", "searched_integers": [-3, 3], "verdict": "not-spectral", "witness": [[1, 11], '
        '[-3, 11], [-2, -10], [3, -7]]}\n'
    )


def test_integer_lists_may_start_with_a_negative_entry(capsys):
    # `compat search --n 4 --digits 0,1` prints [-2, 0], which must parse back
    for flag, value, rest in [
        ("--s", "-2,0", ["spectrum", "decide", "--n", "4", "--digits", "0,1"]),
        ("--digits", "-1,0", ["spectrum", "decide", "--n", "4", "--s", "0,2"]),
        ("--digits", "-1,0", ["tiling", "check", "--modulus", "4"]),
    ]:
        spaced = run(capsys, *rest, flag, value)
        assert spaced == run(capsys, *rest, f"{flag}={value}")
        assert spaced[0] == 0 and spaced[1] != ""
    for argv in [
        ["spectrum", "decide", "--n", "4", "--digits", "0,1", "--s"],
        ["spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "--n", "4"],
        ["spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "-2,0", "--bogus"],
        ["spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "-2,0", "-3"],
        ["spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "-x,0"],
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: "), argv


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


DIGIT_LIMIT = (f"precondition violated: an output integer has more than {sys.get_int_max_str_digits()} "
               "decimal digits, the interpreter's limit for printing it\n")


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["compat", "check", "--n", "4", "--digits", "0,x", "--s", "0,2"], 1,
         "error: argument --digits: expected a comma-separated integer list, got '0,x'\n"),
        (["compat", "check", "--n", "4", "--digits", ",", "--s", "0,2"], 1,
         "error: argument --digits: integer list must be nonempty\n"),
        (["spectrum", "verify", "--n", "4", "--digits", "0,1", "--s", "0,6", "--witness", "{}"], 1,
         "error: argument --witness: witness must be a JSON list of [eta, s] pairs\n"),
        (["measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2", "--grid", "0"], 2,
         "precondition violated: grid must have at least one point, got 0\n"),
        # main's one json.dumps meets the digit limit: no estimate in a runner refuses these
        (["measure", "lambda", "--n", "4", "--s", f"0,{9 * 10**4298}", "--depth", "3"], 2, DIGIT_LIMIT),
        (["compat", "power", "--n", "10", "--digits", "0,1", "--s", f"0,{5 * 10**4298 + 5}", "--k", "3"], 2,
         DIGIT_LIMIT),
        # the attractor bounds' denominator N^2 - 1 has 4399 digits: the
        # payload keeps the Fractions, and the same json.dumps turns them into text
        (["spectrum", "report", f"--n={-2 * 10**2199}", "--digits", "0,1"], 2, DIGIT_LIMIT),
        (["spectrum", "decide", f"--n={-2 * 10**2199}", "--digits", "0,1", "--s", f"0,{10**2199}"], 2, DIGIT_LIMIT),
    ],
    ids=["digits-not-integer", "digits-empty", "witness-not-list", "qgrid-no-points", "lambda-past-digits",
         "power-past-digits", "report-bounds-past-digits", "decide-bounds-past-digits"],
)
def test_each_refusal_names_its_cause_and_exit_code(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err)


def test_json_default_prints_fractions_and_refuses_other_types():
    assert json.dumps({"e": [Fraction(7, 6)]}, default=_json_default) == '{"e": ["7/6"]}'
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        _json_default(object())


@pytest.mark.parametrize("scale", ["2", "-2"])
def test_search_at_n_two_finds_no_candidate(capsys, scale):
    assert run(capsys, "compat", "search", f"--n={scale}", "--digits", "0,1") == (
        0, '{"candidates": [], "method": "exhaustive clique search in the reduction window"}\n', "")


def test_precondition_violation_exits_two(capsys):
    for argv in [
        ["compat", "check", "--n", "4", "--digits", "0,1", "--s", "0"],
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
        ["compat", "power", "--n", "4", "--digits", "0,1", "--s", "0,2", "--k", "20"],
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
    # |D| = 30 has three primes, so the search decides: {0, ..., 29} tiles
    # Z_30030, and the search places more than 1000 translates
    monkeypatch.setattr(systems, "LAMBDA_BUDGET", 1000)
    code, out, err = run(capsys, "tiling", "check", "--digits", ",".join(map(str, range(30))), "--modulus", "30030")
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:") and "budget of 1000 placed translates" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tiling", "construct", "--n", "4194304", "--digits", "0,2097152"],
         "the complement mod L = 4194304 of |D| = 2 digits is checked by counting L = 4194304 sums, "
         "over the budget 1000000"),
        (["tiling", "check", "--digits", "0,1", "--modulus", "2000002"],
         "the complement mod L = 2000002 of |D| = 2 digits is checked by counting L = 2000002 sums, "
         "over the budget 1000000"),
        (["tiling", "check", "--digits", ",".join(map(str, range(1000))), "--modulus", "1000000000"],
         "the complement mod L = 1000000000 of |D| = 1000 digits is checked by counting L = 1000000000 sums, "
         "over the budget 1000000"),
        (["tiling", "check", "--digits", "0,1", "--modulus", "1000002"],
         "the complement mod L = 1000002 of |D| = 2 digits is checked by counting L = 1000002 sums, "
         "over the budget 1000000"),
    ],
    ids=["construct-2^22", "check-2000002", "check-1000-digits-at-1e9", "check-1000002"],
)
def test_complement_past_the_budget_exits_two_before_building(capsys, argv, message):
    # refused before any complement element is built: the 2^21 elements of
    # the first would print as about 18 MB of JSON
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"precondition violated: {message}\n"
    assert peak < 1 << 20


def test_search_over_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(compat, "SEARCH_BUDGET", 3)
    code, out, err = run(capsys, "compat", "search", "--n", "6", "--digits", "0,1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:") and "budget" in err


def test_cycle_search_past_the_budget_exits_two_before_building(capsys):
    # s = 2p asks whether p * Lambda(4, {0, 2}) stays a spectrum; at p = 5^20
    # the 2^23 level-23 cylinders hold one integer each, so the search would
    # build some 8.4 million survivors
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", f"0,{2 * 5**20}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "precondition violated: |S|^depth = 2^23 exceeds the enumeration budget 1000000\n"
    assert peak < 1 << 20  # 8.4 million survivors take hundreds of megabytes


def test_window_search_answers_at_a_large_n_with_a_small_g(capsys):
    # D = {0, 1} vanishes at order 2 only, so g = 2 and the zeros are the multiples of |N|/2
    code, out, err = run(capsys, "spectrum", "report", "--n", "200000000", "--digits", "0,1")
    assert (code, err) == (0, "")
    assert out == (
        '{"candidate": [-100000000, 0], "canonical": {"offset": 0, "reduced_digits": [0, 1], '
        '"scale_factor": 1}, "certificate": {"candidate": [-100000000, 0], "digits": [0, 1], '
        '"scale": 200000000, "zero_differences": [[-100000000, 0, 2]]}, "method": "exhaustive '
        'clique search in the reduction window; integer-cycle search inside the attractor '
        'enclosure", "status": "spectral-with-certificate", "verdict": {"attractor_bounds": '
        '["-100000000/199999999", "0"], "searched_integers": [0, 0], "verdict": "spectral", '
        '"witness": null}}\n'
    )
    code, out, err = run(capsys, "compat", "search", "--n", str(10**12), "--digits", "0,1")
    assert (code, err) == (0, "")
    assert out == (
        '{"candidates": [[-500000000000, 0], [0, 500000000000]], '
        '"method": "exhaustive clique search in the reduction window"}\n'
    )


Q_16 = 10**16 + 61  # a prime


@pytest.mark.parametrize(
    "group,action,n,digits",
    [
        pytest.param("compat", "search", 2 * 10**8, "0,1,100000000,100000001", id="compat-search"),
        pytest.param("spectrum", "report", 2 * 10**8, "0,1,100000000,100000001", id="spectrum-report"),
        pytest.param("compat", "search", 2 * Q_16, f"0,{Q_16}", id="compat-search-shared-prime"),
    ],
)
def test_window_search_past_its_pattern_budget_exits_two_before_building(
    capsys, monkeypatch, group, action, n, digits
):
    # the difference |N|/2 keeps g = |N|; the refusal comes before any factorisation
    def refuse(*args):
        raise AssertionError("the window search built its pattern or factorised g past its budget")

    monkeypatch.setattr(compat, "_zero_pattern", refuse)
    monkeypatch.setattr(cyclotomic, "factorize", refuse)
    code, out, err = run(capsys, group, action, "--n", str(n), "--digits", digits)
    assert (code, out) == (2, "")
    assert err == (
        f"precondition violated: the window search at |N| = {n} builds a zero pattern of period "
        f"g = {n}, about {n + n // 4} bytes (g bytes and a 2g-bit integer), over its budget of "
        "134217728 bytes\n"
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


def test_qgrid_builds_one_slice_closure_per_command(capsys):
    payload = run_json(capsys, "measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2", "--grid", "12")
    assert len(payload["grid"]) == 12
    info = kernel._closure_memo.cache_info()
    assert (info.misses, info.hits) == (1, 11)  # built once, shared by the 12 points


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
    monkeypatch.setattr(compat, "_slice", refuse)  # the power builds its slices without lambda_enumerate
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"precondition violated: an output integer has more than {sys.get_int_max_str_digits()} "
        "decimal digits, the interpreter's limit for printing it\n"
    )


def test_big_integer_powers_answer_without_a_re_check(capsys):
    # the re-check of every pair of S_8 at N^8 took 7.6 s; the slices alone
    # take milliseconds
    n = 10**400
    payload = run_json(capsys, "compat", "power", "--n", str(n), "--digits", "0,1", "--s", f"0,{n // 2}", "--k", "8")
    digits_k, elements_k = compat.pair_power(
        systems.ScaleDigitSystem(n, (0, 1)), systems.SpectrumCandidate((0, n // 2)), 8
    )
    assert (payload["digits_k"], payload["s_k"]) == (list(digits_k), list(elements_k))
    assert len(payload["s_k"]) == 256 and payload["scale_power"] == n**8


def test_big_integer_slices_exit_two_before_they_are_built(capsys, monkeypatch):
    # 2^12 points of up to 137 words each stay within the budget; 2^13 of up to 149 do not
    n = str(10**239)
    payload = run_json(capsys, "measure", "lambda", "--n", n, "--s", "0,1", "--depth", "12")
    assert len(payload["elements"]) == 2**12

    def refuse(*args, **kwargs):
        raise AssertionError("a slice was built past the slice budget")

    monkeypatch.setattr(compat, "_slice", refuse)
    code, out, err = run(capsys, "measure", "lambda", "--n", n, "--s", "0,1", "--depth", "13")
    assert (code, out) == (2, "")
    assert err == ("precondition violated: |S|^depth * words per point = 2^13 * 149 = 1220608 "
                   "exceeds the enumeration budget 1000000\n")


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


def run_module(*argv, code=None):
    """`python -m cantorspec argv...` as a child process, or `python -c code`.

    The child runs from the checkout's src/, as tests/conftest.py does for
    this process, so the test needs no installed package."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    command = ["-m", "cantorspec", *argv] if code is None else ["-c", code]
    proc = subprocess.run([sys.executable, *command], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# The README tour, then one usage error (exit 1) and one refused precondition (exit 2)
ENTRY_ARGVS = [
    ("spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,6"),
    ("spectrum", "verify", "--n", "4", "--digits", "0,1", "--s", "0,6", "--witness", "[[2,6]]"),
    ("compat", "search", "--n", "6", "--digits", "0,1,2"),
    ("spectrum", "report", "--n", "4", "--digits", "0,1"),
    ("tiling", "construct", "--n", "6", "--digits", "0,1,2,3,4,5"),
    ("measure", "qgrid", "--n", "4", "--digits", "0,1", "--s", "0,2", "--format", "csv"),
    ("compat", "check", "--n", "2", "--digits", "0,0", "--s", "0"),
    ("tiling", "construct", "--n", "30", "--digits", ",".join(map(str, range(30)))),
]


def test_module_entrypoint_subprocess(capsys):
    codes = []
    for argv in ENTRY_ARGVS:
        child = run_module(*argv)
        assert child == run(capsys, *argv), argv
        codes.append(child[0])
    assert codes == [0] * 6 + [1, 2]
    code, out, err = run_module("measure", "lambda", "--n", "4", "--s", "0,2", "--depth", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["elements"] == [0, 2, 8, 10]


def test_the_entry_point_freezes_the_import_heap_and_main_does_not(capsys):
    # The child runs the package as __main__, as `python -m cantorspec`
    # does, with main replaced by a probe that reports the collector's state.
    probe = (
        "import gc, runpy\n"
        "import cantorspec.cli\n"
        "before = gc.get_freeze_count()\n"
        "def probe(argv=None):\n"
        "    print(before, gc.isenabled(), gc.get_freeze_count() > 0)\n"
        "    return 3\n"
        "cantorspec.cli.main = probe\n"
        "runpy.run_module('cantorspec', run_name='__main__')\n"
    )
    assert run_module(code=probe) == (3, "0 True True\n", "")
    frozen = gc.get_freeze_count()
    assert run(capsys, *ENTRY_ARGVS[0])[0] == 0
    assert gc.get_freeze_count() == frozen


def test_the_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "pyproject.toml")
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"cantorspec": "cantorspec.__main__:entry"}


def test_negative_integers_in_list_flags(capsys):
    payload = run_json(
        capsys,
        "compat", "check", "--n", "5", "--digits", "0,2,-2,11,-11", "--s", "0,1,-1,2,-2",
    )
    assert payload["compatible"] is True
    payload = run_json(capsys, "spectrum", "decide", "--n", "-4", "--digits", "0,1", "--s", "0,2")
    assert payload["verdict"] == "spectral"


def test_qgrid_refuses_a_digit_spread_past_the_float_range(capsys):
    code, out, err = run(capsys, "measure", "qgrid", "--n", "3", "--digits", f"0,{10**60}", "--s", "0,1", "--grid", "2")
    assert (code, out) == (2, "")
    assert err == (
        f"precondition violated: the Q kernel refuses the digit spread {10**60}: "
        "from SPREAD_LIMIT = 2^168 on it passes the float range\n"
    )


@pytest.mark.parametrize("xi", ["0.3", "0"])
def test_fourier_refuses_digits_past_the_float_range(capsys, xi):
    # 2*pi*sum|d|/|D|, the Lipschitz constant of the tail bound, overflowed
    # a float and escaped as a traceback with exit 1
    code, out, err = run(capsys, "measure", "fourier", "--n", "3", "--digits", f"0,{10**400}", "--xi", xi)
    assert (code, out) == (2, "")
    assert err == (
        "precondition violated: the digits' sum of |d| is past the float range "
        "of the Fourier product's tail bound\n"
    )
