"""Command-line surface: exact verdicts as JSON on stdout, CSV for grids.

Exit codes are part of the contract: 0 means the computation completed
(whatever the mathematical verdict), 1 means malformed input, 2 means a
mathematical precondition was violated (the message on stderr names the
hypothesis).  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import compat, decide, kernel, tiling
from .systems import (
    DEFAULT_POLICY,
    BudgetExceededError,
    PreconditionError,
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
    _check_slice_budget,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2

DEFAULT_GRID = 101

METHOD_COMPAT = "pairwise-difference symbol vanishing (exact cyclotomic divisibility)"
METHOD_WINDOW = "exhaustive clique search in the reduction window"
METHOD_CYCLE = "integer-cycle search inside the attractor enclosure"
METHOD_UNIT = "unit-interval Lebesgue case; spectrum is all integers"
METHOD_TILING = "prime-power cyclotomic construction from a complementing set"
METHOD_UNDECIDED = "window search exhausted with no compatible candidate; spectrality undecided"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-2,0" as an unknown option; like "-2" or "-0.5" it
        # is a value, so an integer list may start with a negative entry
        self._negative_number_matcher = re.compile(r"^-\d*\.\d+$|^-\d[\d,-]*$")

    def error(self, message):  # malformed input must exit 1, not argparse's 2
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("integer list must be nonempty")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"duplicate entries in integer list {text!r}")
    return values


def _witness_arg(text: str) -> list[tuple[int, int]]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"witness must be JSON, got {text!r}: {exc}")
    if not isinstance(raw, list):
        raise argparse.ArgumentTypeError("witness must be a JSON list of [eta, s] pairs")
    entries = []
    for item in raw:
        integers = isinstance(item, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        if not (integers and len(item) == 2):
            raise argparse.ArgumentTypeError(f"witness entries must be [eta, s] integer pairs, got {item!r}")
        entries.append((item[0], item[1]))
    return entries


def build_parser() -> _Parser:
    parser = _Parser(prog="cantorspec", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    def add_system(p):
        p.add_argument("--n", type=int, required=True, help="integer scale N, |N| >= 2")
        p.add_argument("--digits", type=_int_list, required=True, help="digit set, e.g. 0,1,2")

    def add_candidate(p):
        p.add_argument("--s", type=_int_list, required=True, help="candidate set, e.g. 0,2,4")

    def add_policy(p):
        p.add_argument("--depth", type=int, default=DEFAULT_POLICY.depth, help="spectrum slice depth")
        p.add_argument("--epsilon", type=float, default=DEFAULT_POLICY.product_epsilon, help="product tail budget")

    compat_group = groups.add_parser("compat").add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = compat_group.add_parser("check", help="decide compatibility of (D/N, S)")
    add_system(p)
    add_candidate(p)
    p = compat_group.add_parser("search", help="all compatible candidates in the window")
    add_system(p)
    p = compat_group.add_parser("reduce", help="congruent window representative of S")
    p.add_argument("--n", type=int, required=True)
    add_candidate(p)
    p = compat_group.add_parser("power", help="k-fold digit/candidate pair")
    add_system(p)
    add_candidate(p)
    p.add_argument("--k", type=int, required=True, help="power, k >= 1")

    spectrum_group = groups.add_parser("spectrum").add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = spectrum_group.add_parser("decide", help="cycle-criterion verdict for (N, D, S)")
    add_system(p)
    add_candidate(p)
    p = spectrum_group.add_parser("verify", help="check a witness cycle")
    add_system(p)
    add_candidate(p)
    p.add_argument("--witness", type=_witness_arg, required=True, help='JSON list, e.g. "[[2,6]]"')
    p = spectrum_group.add_parser("report", help="measure-level spectrality report")
    add_system(p)

    measure_group = groups.add_parser("measure").add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = measure_group.add_parser("fourier", help="transform value at one point")
    add_system(p)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_POLICY.product_epsilon)
    p = measure_group.add_parser("qgrid", help="completeness sum on a grid over [0, 1)")
    add_system(p)
    add_candidate(p)
    add_policy(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID, help="number of grid points")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p = measure_group.add_parser("lambda", help="depth-slice of the candidate spectrum")
    p.add_argument("--n", type=int, required=True)
    add_candidate(p)
    p.add_argument("--depth", type=int, default=DEFAULT_POLICY.depth)

    tiling_group = groups.add_parser("tiling").add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = tiling_group.add_parser("check", help="complementing-set test mod a modulus")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p = tiling_group.add_parser("construct", help="spectrum candidate from tiling structure")
    add_system(p)

    return parser


def _digit_limit_message() -> str:
    return (
        f"an output integer has more than {sys.get_int_max_str_digits()} decimal digits, "
        "the interpreter's limit for printing it"
    )


def _refuse_past_digit_limit(base: int, exponent: int) -> None:
    """Refuse, before building it, an output holding an integer of at least
    |base|^exponent, when that passes the interpreter's str() digit limit.

    The margin of one digit keeps float rounding in the logarithm from
    refusing an output that would print."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(base) > 1 and exponent * math.log10(abs(base)) > limit + 1:
        raise PreconditionError(_digit_limit_message())


def _json_default(value) -> str:
    """json's `default`: a payload's Fraction as str(fraction); any other
    type is refused as json refuses it."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _system(args) -> ScaleDigitSystem:
    return ScaleDigitSystem(args.n, tuple(args.digits))


def _candidate(args) -> SpectrumCandidate:
    return SpectrumCandidate(tuple(args.s))


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(depth=args.depth, product_epsilon=args.epsilon)


def _certificate_payload(cert: compat.CompatibilityCertificate | None):
    if cert is None:
        return None
    return {
        "scale": cert.system.scale,
        "digits": list(cert.system.digits),
        "candidate": list(cert.candidate.elements),
        "zero_differences": [list(entry) for entry in cert.zero_differences],
    }


def _verdict_payload(verdict: decide.SpectrumVerdict):
    return {
        "verdict": "spectral" if verdict.spectral else "not-spectral",
        "witness": None if verdict.witness is None else [list(pair) for pair in verdict.witness],
        "searched_integers": list(verdict.searched),
        "attractor_bounds": [verdict.bounds.lo, verdict.bounds.hi],
    }


def _canonical_payload(canon: decide.CanonicalForm):
    return {
        "reduced_digits": list(canon.reduced_digits),
        "offset": canon.offset,
        "scale_factor": canon.scale_factor,
    }


def _run_compat(args):
    if args.action == "check":
        cert = compat.is_compatible(_system(args), _candidate(args))
        return {
            "compatible": cert is not None,
            "certificate": _certificate_payload(cert),
            "method": METHOD_COMPAT,
        }
    if args.action == "search":
        found = compat.search_candidate_s(_system(args))
        return {
            "candidates": [list(cand.elements) for cand in found],
            "method": METHOD_WINDOW,
        }
    if args.action == "reduce":
        reduced = compat.reduce_s(args.n, _candidate(args))
        return {"reduced": list(reduced.elements), "method": METHOD_COMPAT}
    _refuse_past_digit_limit(args.n, args.k)  # scale_power = N^k is printed
    digits_k, elements_k = compat.pair_power(_system(args), _candidate(args), args.k)
    return {
        "scale_power": args.n**args.k,
        "digits_k": list(digits_k),
        "s_k": list(elements_k),
        "method": METHOD_COMPAT,
    }


def _run_spectrum(args):
    if args.action == "decide":
        verdict = decide.decide_spectrum(_system(args), _candidate(args))
        payload = _verdict_payload(verdict)
        payload["method"] = METHOD_CYCLE
        return payload
    if args.action == "verify":
        valid = decide.verify_witness(_system(args), _candidate(args), args.witness)
        return {"valid": valid, "method": METHOD_CYCLE}
    report = decide.report_measure_spectrality(_system(args))
    payload = {
        "status": report.status,
        "canonical": _canonical_payload(report.canonical),
        "candidate": None if report.candidate is None else list(report.candidate.elements),
        "certificate": _certificate_payload(report.certificate),
        "verdict": None if report.verdict is None else _verdict_payload(report.verdict),
    }
    if report.status == decide.STATUS_SPECTRAL:
        payload["method"] = METHOD_WINDOW + "; " + METHOD_CYCLE
    elif report.status == decide.STATUS_UNIT_INTERVAL:
        payload["method"] = METHOD_UNIT
    else:
        payload["method"] = METHOD_UNDECIDED
    return payload


def _run_measure(args):
    if args.action == "fourier":
        policy = TruncationPolicy(depth=1, product_epsilon=args.epsilon)
        prod = kernel.mu_hat(_system(args), args.xi, policy)
        return {
            "xi": args.xi,
            "real": prod.value.real,
            "imag": prod.value.imag,
            "abs": abs(prod.value),
            "error_bound": prod.error_bound,
            "factors": prod.factors,
        }
    if args.action == "lambda":
        if any(args.s):  # s*(N^depth - 1)/(N - 1) is in the slice, at least |N|^(depth-2)
            _refuse_past_digit_limit(args.n, args.depth - 2)
        elements = compat.lambda_enumerate(args.n, _candidate(args), args.depth)
        return {"scale": args.n, "depth": args.depth, "elements": list(elements)}
    system = _system(args)
    candidate = _candidate(args)
    policy = _policy(args)
    if args.grid < 1:
        raise PreconditionError(f"grid must have at least one point, got {args.grid}")
    _check_slice_budget(candidate.size, policy.depth, args.grid, "grid")  # before the first point
    xis = [i / args.grid for i in range(args.grid)]
    rows = [(xi, *kernel.q_eval_with_bound(system, candidate, xi, policy)) for xi in xis]
    if args.format == "csv":
        lines = ["xi,q_value,error_bound"]
        lines.extend(f"{xi!r},{value!r},{bound!r}" for xi, value, bound in rows)
        return "\n".join(lines)
    return {"grid": [[xi, value, bound] for xi, value, bound in rows]}


def _run_tiling(args):
    if args.action == "check":
        complement = tiling.is_complementing(tuple(args.digits), args.modulus)
        return {
            "modulus": args.modulus,
            "complementing": complement is not None,
            "complement": None if complement is None else list(complement),
        }
    construction = tiling.construct_spectrum_set(_system(args))
    return {
        "modulus_l": construction.modulus_l,
        "complement": list(construction.complement_e0),
        "p_powers": list(construction.p_powers),
        "q_powers": list(construction.q_powers),
        "fractional_e": list(construction.fractional_e),
        "s": list(construction.result_s),
        "method": METHOD_TILING,
    }


_RUNNERS = {
    "compat": _run_compat,
    "spectrum": _run_spectrum,
    "measure": _run_measure,
    "tiling": _run_tiling,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = _RUNNERS[args.group](args)
    except (PreconditionError, BudgetExceededError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        text = result if isinstance(result, str) else json.dumps(result, sort_keys=True, default=_json_default)
    except ValueError:  # str() refuses an int past the interpreter's digit limit, a Fraction's too
        print(f"precondition violated: {_digit_limit_message()}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(text)
    return EXIT_OK
