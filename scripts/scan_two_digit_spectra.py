#!/usr/bin/env python3
"""Scan candidates S = {0, k} against the scale-4 digit set {0, 1}.

The pair is compatible exactly when k = 2 mod 4, yet not every compatible
candidate generates a spectrum: the cycle search rejects some residues with
an explicit witness.  This scan makes that split visible, k by k.

Example:
    python scripts/scan_two_digit_spectra.py --limit 64
"""

import argparse
import sys

from cantorspec import (
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
    decide_spectrum,
    is_compatible,
    q_eval_with_bound,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=64)
    parser.add_argument("--q-depth", type=int, default=8)
    args = parser.parse_args()

    system = ScaleDigitSystem(4, (0, 1))
    policy = TruncationPolicy(depth=args.q_depth, product_epsilon=1e-12)

    print("k,compatible,verdict,witness,q_at_eta0")
    for k in range(1, args.limit + 1):
        candidate = SpectrumCandidate((0, k))
        if is_compatible(system, candidate) is None:
            print(f"{k},no,,,")
            continue
        verdict = decide_spectrum(system, candidate)
        if verdict.spectral:
            print(f"{k},yes,spectral,,")
        else:
            cycle = " ".join(f"{eta}+{s}" for eta, s in verdict.witness)
            q0 = q_eval_with_bound(system, candidate, float(verdict.witness[0][0]), policy)[0]
            print(f"{k},yes,not-spectral,{cycle},{q0:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
