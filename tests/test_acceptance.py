"""Acceptance gate: one test per published behavior, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import json
import random

import numpy as np

from cantorspec import (
    STATUS_SPECTRAL,
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
    construct_spectrum_set,
    decide_spectrum,
    is_compatible,
    lambda_enumerate,
    q_eval_with_bound,
    report_measure_spectrality,
    transfer_residual,
    verify_witness,
)
from cantorspec.cli import main as cli_main
from oracles import symbol_eval, zero_residues

# the pairs exercised by criteria 1-3, keyed by a short label
CRITERIA_PAIRS = [
    ("four-01", 4, (0, 1), (0, 2)),
    ("five-residues", 5, (0, 2, -2, 11, -11), (0, 1, -1, 2, -2)),
    ("six-024", 6, (0, 1, 2), (0, 2, 4)),
    ("six-neg2", 6, (0, 1, 2), (0, -2, 2)),
    ("six-048", 6, (0, 1, 2), (0, 4, 8)),
]

EXTRA_CERTIFIED = [
    (4, (0, 1), (-2, 0)),
    (4, (0, 1), (0, 6)),
    (10, (0, 2, -2, 11, -11), (0, 2, 4, 6, 8)),
    (2, (0, 1), (0, 1)),
    (4, (0, 2), (0, 1)),
    (4, (0, 1, 2, 3), (0, 1, 2, 3)),
    (6, (0, 1, 2, 3, 4, 5), (0, 2, 3, 4, 5, 7)),
    (16, (0, 1, 8, 9), (0, 1, 8, 9)),
]


def _announce(number, text):
    print(f"[criterion {number:2d}] PASS: {text}")


def cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_01_two_digit_scale_four(capsys):
    payload = cli_json(capsys, "spectrum", "decide", "--n", "4", "--digits", "0,1", "--s", "0,2")
    assert payload["verdict"] == "spectral"
    payload = cli_json(capsys, "measure", "lambda", "--n", "4", "--s", "0,2", "--depth", "2")
    assert payload["elements"] == [0, 2, 8, 10]
    _announce(1, "scale-4 {0,1}/{0,2} spectral; depth-2 slice is exactly {0,2,8,10}")


def test_criterion_02_complete_residue_digits(capsys):
    payload = cli_json(
        capsys, "compat", "check", "--n", "5", "--digits", "0,2,-2,11,-11", "--s", "0,1,-1,2,-2"
    )
    assert payload["compatible"] is True
    payload = cli_json(
        capsys, "spectrum", "decide", "--n", "5", "--digits", "0,2,-2,11,-11", "--s", "0,1,-1,2,-2"
    )
    assert payload["verdict"] == "spectral"
    slice3 = lambda_enumerate(5, SpectrumCandidate((0, 1, -1, 2, -2)), 3)
    assert slice3 == tuple(range(min(slice3), max(slice3) + 1))
    assert (min(slice3), max(slice3)) == (-62, 62)
    _announce(2, "scale-5 residue-system digits: compatible, spectral, depth-3 slice gap-free")


def test_criterion_03_multiple_spectra_and_dilation():
    system = ScaleDigitSystem(6, (0, 1, 2))
    for elements in [(0, 2, 4), (0, -2, 2), (0, 4, 8)]:
        candidate = SpectrumCandidate(elements)
        assert is_compatible(system, candidate) is not None
        assert decide_spectrum(system, candidate).spectral
    for depth in range(1, 6):
        doubled = lambda_enumerate(6, SpectrumCandidate((0, 4, 8)), depth)
        base = lambda_enumerate(6, SpectrumCandidate((0, 2, 4)), depth)
        assert doubled == tuple(2 * x for x in base)
    _announce(3, "scale-6 {0,1,2}: all three candidates spectral; dilation identity depths 1-5")


def test_criterion_04_negative_verdict_with_certificate():
    system = ScaleDigitSystem(4, (0, 1))
    candidate = SpectrumCandidate((0, 6))
    verdict = decide_spectrum(system, candidate)
    assert not verdict.spectral
    assert verdict.witness == ((2, 6),)
    assert verify_witness(system, candidate, verdict.witness)
    policy = TruncationPolicy(depth=8, product_epsilon=1e-12)
    assert q_eval_with_bound(system, candidate, 2.0, policy)[0] < 1e-6
    _announce(4, "scale-4 {0,1}/{0,6} not spectral, cycle [(2,6)] verified, Q(2) < 1e-6")


def test_criterion_05_sum_of_squares_identity():
    rng = random.Random(42)
    corpus = [(s, d, c) for _, s, d, c in CRITERIA_PAIRS] + EXTRA_CERTIFIED
    for scale, digits, candidate in corpus:
        assert is_compatible(ScaleDigitSystem(scale, digits), SpectrumCandidate(candidate))
        for _ in range(100):
            xi = rng.random()
            total = sum(abs(symbol_eval(digits, (xi + s) / scale)) ** 2 for s in candidate)
            assert abs(total - 1) < 1e-9
    _announce(5, f"sum-of-squares identity within 1e-9 on {len(corpus)} pairs x 100 points")


def test_criterion_06_transfer_recursion():
    rng = random.Random(7)
    for _, scale, digits, candidate in CRITERIA_PAIRS:
        system = ScaleDigitSystem(scale, digits)
        cand = SpectrumCandidate(candidate)
        depth = {2: 4, 3: 3, 5: 2}[len(candidate)]
        xis = [rng.random() for _ in range(20)]

        def mean_residual(eps, shift=0):
            policy = TruncationPolicy(depth=depth, product_epsilon=eps)
            values = [transfer_residual(system, cand, xi + shift, depth, policy) for xi in xis]
            return sum(values) / len(values), max(values)

        _, worst = mean_residual(1e-12)
        assert worst < 1e-8
        # epsilon sensitivity, demonstrated where the epsilon-controlled error
        # is above the double-precision floor: Q sums every infinite product
        # to 2^-53, so that error is the early stop at (epsilon/4)^2 alone.
        # The slice closure sums the last four digits of a prefix within its
        # domain whole, with no early stop; shifted by 1000 every prefix is
        # past the domain and its points take the leaves, where it still acts
        coarse, _ = mean_residual(1e-2, 1000)
        fine, _ = mean_residual(1e-4, 1000)
        assert coarse >= 10 * fine
        _, floor = mean_residual(1e-6)
        assert floor <= 1e-14
    _announce(6, "recursion residual < 1e-8 at eps 1e-12, rounding at 1e-6; shrinks >= 10x per 100x epsilon")


def test_criterion_07_completeness_bounds():
    depth_cap = {2: 6, 3: 5, 5: 3}
    zero_depth = {2: 8, 3: 6, 5: 4}
    for _, scale, digits, candidate in CRITERIA_PAIRS:
        system = ScaleDigitSystem(scale, digits)
        cand = SpectrumCandidate(candidate)
        for k in range(20):
            xi = k / 20
            previous = 0.0
            for depth in range(1, depth_cap[len(candidate)] + 1):
                policy = TruncationPolicy(depth=depth, product_epsilon=1e-12)
                value = q_eval_with_bound(system, cand, xi, policy)[0]
                assert value <= 1 + 1e-9
                assert value >= previous - 1e-10
                previous = value
        policy = TruncationPolicy(depth=zero_depth[len(candidate)], product_epsilon=1e-12)
        assert abs(q_eval_with_bound(system, cand, 0.0, policy)[0] - 1) < 1e-8
    _announce(7, "Q <= 1 + 1e-9, nondecreasing in depth, Q(0) = 1 within 1e-8")


def test_criterion_08_tiling_pipeline():
    expected = {
        (4, (0, 2)): (0, 1),
        (4, (0, 1, 2, 3)): (0, 1, 2, 3),
        (6, (0, 1, 2, 3, 4, 5)): (0, 2, 3, 4, 5, 7),
        (16, (0, 1, 8, 9)): (0, 1, 8, 9),
    }
    for (scale, digits), result in expected.items():
        system = ScaleDigitSystem(scale, digits)
        construction = construct_spectrum_set(system)
        assert construction.result_s == result
        assert is_compatible(system, SpectrumCandidate(result)) is not None
        assert report_measure_spectrality(system).status == STATUS_SPECTRAL
    _announce(8, "tiling construction reproduces all four spectra with certificates")


def test_criterion_09_exact_numeric_agreement():
    pool = np.arange(13)
    masks = np.arange(1, 1 << 13)
    membership = ((masks[:, None] >> pool[None, :]) & 1).astype(float)
    sizes = membership.sum(axis=1)
    digit_sets = [tuple(int(d) for d in pool[row == 1]) for row in membership]
    rng = random.Random(3)
    for modulus in range(2, 13):
        residues = np.arange(1, modulus)
        phases = np.exp(-2j * np.pi * np.outer(pool, residues) / modulus)
        magnitudes = np.abs(membership @ phases) / sizes[:, None]
        for index, digits in enumerate(digit_sets):
            zeros = zero_residues(ScaleDigitSystem(modulus, digits))
            for pos, r in enumerate(residues):
                mag = magnitudes[index, pos]
                if int(r) in zeros:
                    assert mag < 1e-10, (modulus, digits, int(r), mag)
                else:
                    assert mag > 1e-6, (modulus, digits, int(r), mag)
        # negative scales reduce identically (|symbol| conjugates); spot-check
        for digits in rng.sample(digit_sets, 40):
            pos, neg = ScaleDigitSystem(modulus, digits), ScaleDigitSystem(-modulus, digits)
            assert zero_residues(neg) == zero_residues(pos)
    _announce(9, "zero residues agree with the float oracle on all 8191 digit sets x |N| 2..12")


def test_criterion_10_middle_third_guard(capsys):
    payload = cli_json(capsys, "compat", "search", "--n", "3", "--digits", "0,2")
    assert payload["candidates"] == []
    payload = cli_json(capsys, "spectrum", "report", "--n", "3", "--digits", "0,2")
    assert payload["status"] == "no-compatible-pair-found"
    assert payload["candidate"] is None
    _announce(10, "middle-third digits: empty search, spectrality reported undecided")
