"""Span recorder that measures cantorspec's layers from outside the package.

`Tracer.install` replaces every public function named in `cantorspec.__all__`
(plus the CLI entry point `cantorspec.cli.main`) with a wrapper, in the package
namespace and at every module attribute bound to the same function object, so
cross-module calls such as `decide.is_compatible -> compat.mask_zero_residues`
are caught.  Each call records a span (name, start, end, parent) in compact
in-memory arrays; self time per layer is accumulated online as the span's
duration minus the time its child spans cover.  Counts are read from the
arguments and results of the wrapped calls.  A function that a later version
of the package no longer has simply records no span.
"""

from __future__ import annotations

import array
import json
import sys
import time
import types

LAYERS = ("cyclotomic", "compat", "decide", "tiling", "kernel", "cli")

COUNT_NAMES = (
    "cyclotomic.mask_calls",
    "cyclotomic.mask_residues",
    "cyclotomic.vanish_tests",
    "cyclotomic.phi_calls",
    "compat.search_calls",
    "compat.window_integers",
    "compat.candidates_found",
    "compat.candidates_decided",
    "compat.is_compatible_calls",
    "decide.decide_calls",
    "decide.hull_integers",
    "decide.successor_calls",
    "decide.witnesses",
    "tiling.construct_calls",
    "tiling.complement_calls",
    "kernel.q_calls",
    "kernel.lambda_points",
    "kernel.mu_hat_calls",
    "kernel.factors",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_mask(counts, args, kwargs, result, parent):
    counts["cyclotomic.mask_calls"] += 1
    counts["cyclotomic.mask_residues"] += _arg(args, kwargs, 0, "system").modulus - 1


def _count_search(counts, args, kwargs, result, parent):
    counts["compat.search_calls"] += 1
    counts["compat.window_integers"] += 2 * _arg(args, kwargs, 0, "system").modulus - 3
    counts["compat.candidates_found"] += len(result)


def _count_decide(counts, args, kwargs, result, parent):
    counts["decide.decide_calls"] += 1
    lo, hi = result.searched
    counts["decide.hull_integers"] += max(hi - lo + 1, 0)
    counts["decide.witnesses"] += result.witness is not None
    if parent == "decide.report_measure_spectrality":
        counts["compat.candidates_decided"] += 1


def _count_lambda(counts, args, kwargs, result, parent):
    counts["kernel.lambda_points"] += len(result)


def _count_mu_hat(counts, args, kwargs, result, parent):
    counts["kernel.mu_hat_calls"] += 1
    counts["kernel.factors"] += result.factors


def _counter(metric):
    def count(counts, args, kwargs, result, parent):
        counts[metric] += 1

    return count


# Keyed by "<module>.<function>".  `q_eval` delegates to `q_eval_with_bound`,
# so only the latter counts as a Q evaluation.
COUNT_RULES = {
    "cyclotomic.mask_zero_residues": _count_mask,
    "cyclotomic.symbol_vanishes_at": _counter("cyclotomic.vanish_tests"),
    "cyclotomic.vanishes_at_primitive_root": _counter("cyclotomic.vanish_tests"),
    "cyclotomic.cyclotomic": _counter("cyclotomic.phi_calls"),
    "compat.search_candidate_s": _count_search,
    "compat.is_compatible": _counter("compat.is_compatible_calls"),
    "decide.decide_spectrum": _count_decide,
    "decide.successor": _counter("decide.successor_calls"),
    "tiling.construct_spectrum_set": _counter("tiling.construct_calls"),
    "tiling.is_complementing": _counter("tiling.complement_calls"),
    "kernel.q_eval_with_bound": _counter("kernel.q_calls"),
    "kernel.lambda_enumerate": _count_lambda,
    "kernel.mu_hat": _count_mu_hat,
}


def public_functions(package):
    """The functions to wrap: `package.__all__` plus the CLI entry point."""
    found = {}
    for attr in getattr(package, "__all__", ()):
        obj = getattr(package, attr, None)
        if isinstance(obj, types.FunctionType):
            found[id(obj)] = obj
    cli = sys.modules.get(package.__name__ + ".cli")
    main = getattr(cli, "main", None)
    if isinstance(main, types.FunctionType):
        found[id(main)] = main
    return list(found.values())


class Tracer:
    """Records spans of wrapped calls; aggregates self time and counts online."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.self_s = [0.0] * len(LAYERS)
        self.top_level_s = 0.0
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _close(self, idx: int, layer: int, start: float, end: float, inner: float) -> None:
        self.span_start[idx] = start
        self.span_end[idx] = end
        duration = end - start
        self.self_s[layer] += duration - inner
        if self._child_s:
            self._child_s[-1] += duration
        else:
            self.top_level_s += duration

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child_s.append(0.0)
        return idx

    def _wrap(self, func):
        module = func.__module__.rsplit(".", 1)[-1]
        name = f"{module}.{func.__name__}"
        name_id = self._name_id(name)
        layer = LAYERS.index(module) if module in LAYERS else LAYERS.index("cli")
        rule = COUNT_RULES.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = tracer._open(name_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._close(idx, layer, start, end, tracer._child_s.pop())
            if rule is not None:
                parent_name = tracer.names[tracer.span_name[parent]] if parent >= 0 else None
                rule(tracer.counts, args, kwargs, result, parent_name)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def install(self, package) -> None:
        """Wrap the package's public functions wherever modules bind them."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        for func in public_functions(package):
            wrapper = self._wrap(func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, attr, func))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def add_span(self, name: str, layer: str, start: float, end: float, inner: float = 0.0) -> None:
        """Record a span measured by the benchmark itself (a process, an import)."""
        idx = self._open(self._name_id(name))
        self._stack.pop()
        self._child_s.pop()
        self._close(idx, LAYERS.index(layer), start, end, inner)

    def merge(self, summary: dict) -> None:
        """Fold in the summary of a traced child process."""
        for i, layer in enumerate(LAYERS):
            self.self_s[i] += summary["self_s"].get(layer, 0.0)
        for key, value in summary["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def summary(self) -> dict:
        return {
            "self_s": dict(zip(LAYERS, self.self_s)),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
            "spans": len(self.span_name),
        }

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
