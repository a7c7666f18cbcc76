#!/usr/bin/env python3
"""Time two checkouts of cantorspec side by side, on the benchmark's items.

The changed tree is the `cantorspec` that this interpreter imports; the
parent tree is the package under --parent, another checkout's src, which
is copied into a temporary directory as `cantorspec_parent` and imported
beside it.  Both run the same items: the 8 rounds of a workload of
perfbench/workloads.py at one seed, through the workload's own `run`
function, with `workloads.cs` pointed at each tree in turn.  Every round
starts with both trees' order memos and closure memos cleared, as a fresh
benchmark worker does.  cli-tour runs each item as a child process,
`python -m cantorspec` with PYTHONPATH leading with the tree's src, so its
time is the whole process's, from start to exit.  Each pass times every
round on both trees, and alternate passes swap which tree goes first.
The first pass also checks every output with the workload's own check
against its own tree's library, and exits 1 at a failure.

Prints one CSV row per workload: the median over passes of each tree's
mean microseconds per item, the median of the per-pass ratios change /
parent, and the number of passes in which the change was faster.

Example:
    PYTHONPATH=src python scripts/paired_inprocess.py --parent ../parent/src construct cli-tour --passes 20
"""

import argparse
import importlib
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import cantorspec  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 8


def load_parent(src: pathlib.Path, into: pathlib.Path):
    """The package src/cantorspec, imported from a copy named cantorspec_parent."""
    package = src / "cantorspec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"--parent {src} holds no cantorspec package")
    shutil.copytree(package, into / "cantorspec_parent", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    return importlib.import_module("cantorspec_parent")


def clear_memos(*trees) -> None:
    for tree in trees:
        tree.cyclotomic._order_memo.cache_clear()
        tree.kernel._closure_memo.cache_clear()


def child_run(src: pathlib.Path):
    """A cli-tour `run` that starts the CLI of the tree at src, as
    workloads.cli_run starts this checkout's."""
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def run(item):
        proc = subprocess.run([sys.executable, "-m", "cantorspec", *item],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def time_round(workload, tree, run, items, check: bool) -> float:
    """Seconds to run the items on the tree; with `check`, each output is
    then checked, outside the timed loop."""
    workloads.cs = tree
    outputs = []
    start = time.perf_counter()
    for item in items:
        outputs.append(run(item))
    elapsed = time.perf_counter() - start
    if check:
        for item, output in zip(items, outputs):
            if not workload.check(item, output):
                raise SystemExit(f"{workload.name}: {tree.__name__} failed the output check on {item!r}")
    return elapsed


def pair(workload, trees: dict, srcs: dict, passes: int, seed: int) -> str:
    rounds = [workload.inputs(seed, r, ROUNDS) for r in range(ROUNDS)]
    runs = {name: child_run(srcs[name]) if workload.in_children else workload.run for name in trees}
    count = sum(map(len, rounds))
    per_item = {name: [] for name in trees}
    for k in range(passes):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        spent = dict.fromkeys(trees, 0.0)
        for items in rounds:
            clear_memos(*trees.values())
            for name in order:
                spent[name] += time_round(workload, trees[name], runs[name], items, check=k == 0)
        for name in trees:
            per_item[name].append(spent[name] / count * 1e6)
    ratios = [c / p for p, c in zip(per_item["parent"], per_item["change"])]
    faster = sum(r < 1 for r in ratios)
    parent_us, change_us = statistics.median(per_item["parent"]), statistics.median(per_item["change"])
    return f"{workload.name},{passes},{parent_us:.3f},{change_us:.3f},{statistics.median(ratios):.4f},{faster}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=pathlib.Path, help="the src directory of the other checkout")
    parser.add_argument("workloads", nargs="+", choices=list(workloads.WORKLOADS), metavar="WORKLOAD",
                        help=f"one or more of {', '.join(workloads.WORKLOADS)}")
    parser.add_argument("--passes", type=int, default=10, help="alternating passes per workload (default 10)")
    parser.add_argument("--seed", type=int, default=4242, help="the benchmark seed of the rounds (default 4242)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, got {args.passes}")
    parent_src = args.parent.resolve()
    srcs = {"parent": parent_src, "change": pathlib.Path(cantorspec.__file__).resolve().parent.parent}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": load_parent(parent_src, pathlib.Path(scratch)), "change": cantorspec}
        print("workload,passes,parent_us,change_us,ratio,change_faster", flush=True)
        for name in args.workloads:
            print(pair(workloads.WORKLOADS[name], trees, srcs, args.passes, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
