"""cantorspec benchmark: five seeded workloads, one per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
NAME is one of census, construct, cycles, qgrid and cli-tour, or `all` to
run every workload in turn (one JSON line after each).

--trace 0 measures the end-to-end metrics.  Fresh worker processes run
S / ROUND_S seeded rounds of items (about S reference seconds of item
time, and at least MIN_ITEMS items), one item at a time; every output is
then checked outside the timed region.  Times are reported in reference
milliseconds and seconds, normalised by the calibration task that runs
beside the items (see calib.py); the figures as measured are printed too.

--trace 1 measures the per-layer metrics: an untraced pass of S/3 seconds,
then the same rounds again with every public cantorspec function wrapped
in spans, then the workload's known-defect probes (construct's
|N| > 10 000 cliff, qgrid's mu_hat error bound).

Human-readable lines go first; the last line of stdout is the JSON result.
The whole run of one workload is budgeted to end within RUN_BUDGET_S.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "construct", "cycles", "qgrid", "cli-tour")
MIN_ITEMS = 110  # so that at least ten samples lie beyond p90
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # the whole run, including set-up and checks
# Reference seconds one round of each workload takes.  A run of S seconds
# makes S / ROUND_S rounds, whatever the host's speed, so that runs of
# different seeds measure the same amount of work.
ROUND_S = {"census": 1.4, "construct": 2.5, "cycles": 0.65, "qgrid": 1.2, "cli-tour": 0.75}


def worker(workload: str, seed: int, round_index: int, rounds: int, mode: str, budget: float) -> dict:
    """Run one worker process (in its own process group) and parse its result."""
    budget = max(budget, 0.0)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--round", str(round_index), "--rounds", str(rounds), "--mode", mode, "--budget", f"{budget:.3f}",
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=budget + 30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker {mode} round {round_index} overran its budget")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} round {round_index} failed:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def item_s(results, key="latencies_ms") -> float:
    """Total item time of some rounds, in seconds."""
    return sum(sum(r[key]) for r in results) / 1e3


def planned_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def run_rounds(workload, seed, mode, rounds, deadline, min_items=0):
    """Results of rounds 0 .. rounds-1, and of further rounds while fewer
    than min_items items have been measured; stops early at the deadline."""
    results = []
    while len(results) < rounds or sum(r["attempted"] for r in results) < min_items:
        if results and time.perf_counter() >= deadline:
            break
        results.append(worker(workload, seed, len(results), rounds, mode, deadline - time.perf_counter()))
    return results


def run_traced(workload, seed, count, rounds, deadline):
    """The first `count` of the `rounds` rounds again with spans; stops at
    the deadline and keeps only rounds that ran every item."""
    results = []
    while len(results) < count and time.perf_counter() < deadline:
        result = worker(workload, seed, len(results), rounds, "traced", deadline - time.perf_counter())
        if result["budget_spent"]:
            break
        results.append(result)
    if not results:
        raise RuntimeError("the traced pass completed no round within the run budget")
    return results


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def end_to_end(workload, seed, seconds, deadline):
    rounds = planned_rounds(workload, seconds)
    results = run_rounds(workload, seed, "pass", rounds, deadline, min_items=MIN_ITEMS)
    extra = max(0, SETUP_SAMPLES - len(results))
    setup_runs = results + [worker(workload, seed, i, rounds, "setup", 30.0) for i in range(extra)]
    setups = [r["setup_s"] for r in setup_runs]
    peaks = [r["peak_rss_mb"] for r in results]
    latencies = [x for r in results for x in r["latencies_ms"]]
    raw = [x for r in results for x in r["raw_latencies_ms"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    completed = len(latencies) - failed
    wall = item_s(results)
    metrics = {
        "items_per_s": (completed / wall, "1/s"),
        "item_p50_ms": (percentile(latencies, 0.5), "ms"),
        "item_p90_ms": (percentile(latencies, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    samples = {
        "items_per_s": f"{completed} items in {wall:.3f} s over {len(results)} rounds; "
                       f"as measured {completed / item_s(results, 'raw_latencies_ms'):.4f}",
        "item_p50_ms": f"n={len(latencies)}; as measured {percentile(raw, 0.5):.4f}",
        "item_p90_ms": f"n={len(latencies)}, {sum(x > metrics['item_p90_ms'][0] for x in latencies)} beyond; "
                       f"as measured {percentile(raw, 0.9):.4f}",
        "setup_s": f"median of n={len(setups)}; as measured {statistics.median(r['setup_raw_s'] for r in setup_runs):.4f}",
        "calibration": f"sample median {statistics.median(r['calib_ms'] for r in results):.4f} ms "
                       f"(reference {results[0]['calib_ref_ms']} ms)",
        "peak_rss_mb": f"median of {len(peaks)} worker peaks, max {max(peaks):.1f}",
    }
    rejected = sum(r["rejected"] for r in results)
    errors = sorted({e for r in results for e in r["errors"]})
    return metrics, samples, attempted, failed, rejected, errors


def interpreter_ms(repeats=5):
    """Median wall time of a bare interpreter and of importing cantorspec.cli."""
    env_cmds = {
        "bare": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import cantorspec.cli"],
    }
    times = {}
    for key, cmd in env_cmds.items():
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True)
            samples.append((time.perf_counter() - start) * 1e3)
        times[key] = statistics.median(samples)
    return times["bare"], times["import"] - times["bare"]


def per_layer(workload, seed, seconds, deadline):
    for stale in (ROOT / ".bench_out").glob(f"spans-{workload}-round*.bin"):
        stale.unlink()
    bare_ms, import_ms = interpreter_ms()
    rounds = planned_rounds(workload, seconds / 3)
    untraced = run_rounds(workload, seed, "pass", rounds, time.perf_counter() + 0.3 * (deadline - time.perf_counter()))
    traced = run_traced(workload, seed, len(untraced), rounds,
                        time.perf_counter() + 0.6 * (deadline - time.perf_counter()))
    paired = untraced[: len(traced)]
    extra = worker(workload, seed, 0, rounds, "extra", deadline - time.perf_counter())
    total = Tracer()
    for r in traced:
        total.merge(r["trace"])
    metrics = dict(total.counts)
    decided = metrics.pop("compat.candidates_decided")
    found = metrics["compat.candidates_found"]
    metrics["compat.candidates_used_ratio"] = decided / found if found else 0.0
    metrics.update({f"{layer}.self_s": value for layer, value in zip(LAYERS, total.self_s)})
    metrics.update({
        "kernel.bound_violations": extra["bound_violations"],
        "cli.interpreter_ms": bare_ms,
        "cli.import_ms": import_ms,
        "bench.calib_ms": statistics.median(r["calib_ms"] for r in untraced + traced),
        "bench.trace_overhead_ratio": item_s(traced) / item_s(paired),
        "bench.traced_items": sum(r["attempted"] for r in traced),
        "bench.cliff_timeouts": extra["cliff_timeouts"],
    })
    notes = [
        f"traced {metrics['bench.traced_items']} items in {len(traced)} of {len(untraced)} rounds; "
        f"item time over those rounds {item_s(paired):.3f} s untraced, {item_s(traced):.3f} s traced "
        f"(reference seconds); spans in .bench_out/spans-{workload}-round*.bin",
    ]
    if "cliff_items" in extra:
        notes.append(f"known defect: {extra['cliff_timeouts']}/{extra['cliff_items']} items with |N| > 10 000 timed out")
    if extra["bound_probes"]:
        notes.append(f"known defect: {extra['bound_violations']}/{extra['bound_probes']} mu_hat probes outside their bound")
    attempted = sum(r["attempted"] for r in traced)
    failed = sum(r["failed"] for r in traced)
    rejected = sum(r["rejected"] for r in traced)
    errors = sorted({e for r in traced for e in r["errors"]})
    return metrics, notes, attempted, failed, rejected, errors


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report, and return the JSON result."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    if trace:
        values, notes, attempted, failed, rejected, errors = per_layer(workload, seed, seconds, deadline)
        metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    else:
        metrics, samples, attempted, failed, rejected, errors = end_to_end(workload, seed, seconds, deadline)
        notes = [f"{name}: {text}" for name, text in samples.items()]
    print(f"workload {workload}, seed {seed}, trace {trace}: "
          f"{attempted} attempted, {failed} failed ({rejected} rejected by checks)")
    for error in errors:
        print(f"  failure: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": rejected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cantorspec" / "__init__.py").is_file():
        print(f"error: no cantorspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
