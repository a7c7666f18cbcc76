#!/usr/bin/env python3
"""Survey measure-level spectrality over small scale/digit systems.

For every digit set D inside [0, --max-digit] (taken with 0 in D to skip
translates) and every scale 2 <= N <= --max-scale, run the measure-level
report and tally the outcomes.  Prints one CSV row per system to stdout,
scale by scale.  The reports run digit set by digit set, so that the one
vanishing-order memo of a digit set answers every scale in turn.

Example:
    python scripts/survey_spectra.py --max-scale 6 --max-digit 6 | column -t -s,
"""

import argparse
import itertools
import sys

from cantorspec import (
    STATUS_SPECTRAL,
    STATUS_UNIT_INTERVAL,
    STATUS_UNKNOWN,
    ScaleDigitSystem,
    report_measure_spectrality,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-scale", type=int, default=6)
    parser.add_argument("--max-digit", type=int, default=6)
    parser.add_argument("--include-negative", action="store_true")
    args = parser.parse_args()

    scales = list(range(2, args.max_scale + 1))
    if args.include_negative:
        scales += [-n for n in scales]
    digit_sets = [
        (0,) + rest
        for size in range(1, args.max_digit + 2)
        for rest in itertools.combinations(range(1, args.max_digit + 1), size - 1)
    ]
    tallies = {STATUS_SPECTRAL: 0, STATUS_UNIT_INTERVAL: 0, STATUS_UNKNOWN: 0}
    rows = {}
    for digits in digit_sets:
        for scale in scales:
            report = report_measure_spectrality(ScaleDigitSystem(scale, digits))
            tallies[report.status] += 1
            candidate = " ".join(str(s) for s in report.candidate.elements) if report.candidate else ""
            rows[scale, digits] = f"{scale},{' '.join(map(str, digits))},{report.status},{candidate}"

    print("scale,digits,status,candidate")
    for scale in scales:
        for digits in digit_sets:
            print(rows[scale, digits])

    for status, count in sorted(tallies.items()):
        print(f"# {status}: {count}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
