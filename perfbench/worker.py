"""One round of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed S --round R --rounds N --mode MODE --budget B

Modes:
  setup   import cantorspec and build the round's inputs, then stop
  pass    run the round's items untraced, then check every output
  traced  the same with every public cantorspec function wrapped in spans
  extra   the workload's known-defect probes

Set-up time runs from the first statement of this file to inputs ready.
The calibration task (calib.py) runs beside the items; set-up and item
times are reported both as measured and in reference milliseconds.  Items
that would start after the budget (seconds from start) has run out, or that
overrun the workload's per-item limit, count as timeouts with the limit as
their latency.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = workloads.ROOT / ".bench_out"
BUDGET_SPENT = "timeout (run budget spent)"


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def run_items(workload, run, items, budget_end):
    """Closed loop over the items, with calibration samples beside them;
    returns (outputs, starts, latencies_ms, errors, sampler)."""
    signal.signal(signal.SIGALRM, _alarm)
    outputs, starts, latencies, errors = [], [], [], []
    sampler = calib.Sampler(spawn=workload.in_children)
    for item in items:
        sampler.sample()
        start = time.perf_counter()
        starts.append(start)
        if start >= budget_end:
            outputs.append(None)
            latencies.append(workload.limit_s * 1e3)
            errors.append(BUDGET_SPENT)
            continue
        signal.setitimer(signal.ITIMER_REAL, workload.limit_s)
        try:
            outputs.append(run(item))
            errors.append(None)
            latencies.append((time.perf_counter() - start) * 1e3)
        except ItemTimeout:
            outputs.append(None)
            errors.append("timeout")
            latencies.append(workload.limit_s * 1e3)
        except Exception as exc:  # every failure is counted, never raised
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append((time.perf_counter() - start) * 1e3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    sampler.sample(force=True)
    return outputs, starts, latencies, errors, sampler


def normalise(starts, latencies, errors, sampler):
    """Latencies in reference milliseconds; timeouts keep the limit."""
    return [
        ms if error is not None and error.startswith("timeout") else ms * sampler.factor_at(start + ms / 2e3)
        for start, ms, error in zip(starts, latencies, errors)
    ]


def check_outputs(workload, seed, round_index, items, outputs, errors):
    """Returns the number of outputs the independent check rejects."""
    rejected = 0
    for i, (item, output) in enumerate(zip(items, outputs)):
        if errors[i] is None and not workload.check(item, output):
            errors[i] = "rejected by check"
            rejected += 1
    if workload.name == "cycles":
        rng = workloads.round_rng("cycles-recheck", seed, round_index)
        for i in workloads.cycles_recheck(rng, items, outputs):
            errors[i] = "verdict flipped with range_factor=2"
            rejected += 1
    return rejected


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=8, help="rounds in the run")
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "traced", "extra"))
    parser.add_argument("--budget", type=float, default=120.0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    budget_end = T0 + args.budget

    if args.mode == "extra":
        return extra(workload, args.seed, budget_end)

    items = workload.inputs(args.seed, args.round, args.rounds)
    setup_raw_s = time.perf_counter() - T0
    setup_calibs = [calib.task_ms() for _ in range(3)]
    result = {"setup_s": setup_raw_s * calib.factor(setup_calibs), "setup_raw_s": setup_raw_s}
    if args.mode != "setup":
        tracer = None
        run = workload.run
        if args.mode == "traced":
            tracer = Tracer()
            if not workload.in_children:
                tracer.install(workloads.cs)
            else:
                run = workload.run_traced
        outputs, starts, latencies, errors, sampler = run_items(workload, run, items, budget_end)
        if tracer is not None:
            tracer.uninstall()
            if workload.in_children:
                merge_children(tracer, outputs, starts, latencies, errors)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{workload.name}-round{args.round}.bin")
            result["trace"] = tracer.summary()
        result["peak_rss_mb"] = peak_rss_mb(workload)
        rejected = check_outputs(workload, args.seed, args.round, items, outputs, errors)
        result.update(
            latencies_ms=normalise(starts, latencies, errors, sampler),
            raw_latencies_ms=latencies,
            calib_ms=statistics.median(sampler.values),
            calib_ref_ms=sampler.ref_ms,
            attempted=len(items),
            failed=sum(e is not None for e in errors),
            budget_spent=errors.count(BUDGET_SPENT),
            rejected=rejected,
            errors=sorted({e for e in errors if e is not None}),
        )
    print(json.dumps(result))
    return 0


def merge_children(tracer, outputs, starts, latencies, errors):
    """Fold each traced CLI child's spans into this round's tracer.

    The child reports its layer self times and the time its own top-level
    spans cover; the rest of the process's wall time (interpreter start and
    exit) is self time of the `cli.process` span."""
    for i, output in enumerate(outputs):
        if output is None:
            continue
        code, stdout, stderr = output
        try:
            summary = json.loads(stderr.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            errors[i] = "traced CLI child reported no spans"
            continue
        tracer.merge(summary)
        tracer.add_span("cli.process", "cli", starts[i], starts[i] + latencies[i] / 1e3, summary["top_level_s"])


def extra(workload, seed, budget_end) -> int:
    result = {"cliff_timeouts": 0, "bound_violations": 0, "bound_probes": 0}
    if workload.name == "construct":
        cliff = list(workloads.CONSTRUCT_CLIFF)
        errors = run_items(workload, workload.run, cliff, budget_end)[3]
        result["cliff_timeouts"] = sum(e is not None and e.startswith("timeout") for e in errors)
        result["cliff_items"] = len(cliff)
    if workload.name == "qgrid":
        rng = workloads.round_rng("mu-hat-probes", seed, 0)
        result["bound_violations"], result["bound_probes"] = workloads.mu_hat_probes(rng)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
