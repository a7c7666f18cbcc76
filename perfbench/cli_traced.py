"""Run the cantorspec CLI with spans recorded, for the traced cli-tour run.

    python3 perfbench/cli_traced.py <cantorspec arguments...>

Stdout and the exit code are the CLI's own.  The last line on stderr is a
JSON summary of the spans: `cli.import` (from this file's first statement to
`import cantorspec.cli` done), `cli.main`, and every wrapped library call.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cantorspec  # noqa: E402
import cantorspec.cli  # noqa: E402

T1 = time.perf_counter()

from spans import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.add_span("cli.import", "cli", T0, T1)
    tracer.install(cantorspec)
    code = cantorspec.cli.main(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    sys.exit(code)
