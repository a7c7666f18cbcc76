import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import cantorspec

PUBLIC_NAMES = [
    "BudgetExceededError",
    "CanonicalForm",
    "CompatibilityCertificate",
    "ConsistencyError",
    "DEFAULT_POLICY",
    "PreconditionError",
    "RationalInterval",
    "STATUS_SPECTRAL",
    "STATUS_UNIT_INTERVAL",
    "STATUS_UNKNOWN",
    "ScaleDigitSystem",
    "SpectralityReport",
    "SpectrumCandidate",
    "SpectrumVerdict",
    "TilingConstruction",
    "TruncatedProduct",
    "TruncationPolicy",
    "attractor_bounds",
    "canonicalize_digits",
    "construct_spectrum_set",
    "decide_spectrum",
    "find_modulus_l",
    "is_compatible",
    "is_complementing",
    "lambda_enumerate",
    "mu_hat",
    "order_vanishes",
    "pair_power",
    "q_eval_with_bound",
    "reduce_s",
    "report_measure_spectrality",
    "search_candidate_s",
    "transfer_residual",
    "verify_witness",
]

PACKAGE_DIR = pathlib.Path(cantorspec.__file__).parent
MODULES = [
    importlib.import_module(f"cantorspec.{info.name}")
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)])
    if info.name != "__main__"
]


def test_public_names():
    assert cantorspec.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(cantorspec, name) is not None, name
    # the budgets are read at call time where they live; a package-level
    # copy taken at import would bound nothing
    assert not hasattr(cantorspec, "LAMBDA_BUDGET") and not hasattr(cantorspec, "SEARCH_BUDGET")


def test_no_public_function_takes_a_budget():
    functions = [getattr(cantorspec, name) for name in PUBLIC_NAMES]
    for module in MODULES:
        functions += [
            obj
            for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
        ]
    for fn in functions:
        if inspect.isfunction(fn):
            assert "budget" not in inspect.signature(fn).parameters, fn.__qualname__


def test_runtime_imports_only_the_standard_library():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "cantorspec" or root in sys.stdlib_module_names, (path.name, root)


def package_imports(path):
    """The package modules that a source file imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_only_the_entry_points_import_the_float_kernel():
    # the verdict path stays exact: the kernel corroborates, it never feeds a decision
    importers = {path.stem for path in PACKAGE_DIR.glob("*.py") if "kernel" in package_imports(path)}
    assert importers == {"cli", "__init__"}
    assert package_imports(PACKAGE_DIR / "kernel.py") == {"systems"}
    # and the value types hold no float code: the kernel's constants and
    # tail series live in the kernel
    systems = ast.parse((PACKAGE_DIR / "systems.py").read_text())
    imported = {alias.name for node in ast.walk(systems) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(systems) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"math", "collections"}, imported


def test_every_private_name_is_used():
    # a top-level function, class or constant outside __all__ must be named
    # in code on some other line of the package; comments and docstrings
    # do not count, so a helper whose last caller is gone is flagged
    defined, named = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, path.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, path.name, node.lineno) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                named.add((node.attr, path.name, node.lineno))
    dead = [
        (name, file)
        for name, file, line in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in cantorspec.__all__
        and not any(n == name and (f, l) != (file, line) for n, f, l in named)
    ]
    assert dead == []


def test_order_tests_are_built_only_where_a_memo_is_kept():
    # one memo per digit set per process: in the package, only the cache
    # `_order_memo` and each `order_vanishes` call, which keeps nothing,
    # build an `OrderTest`, and no module but `cyclotomic` reads a memo's
    # `.g`, so a new caller draws the shared memo rather than building its own
    builders, reads = [], []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{where}.{child.name}")
                continue
            called = isinstance(child, ast.Call) and (getattr(child.func, "id", None) or getattr(child.func, "attr", None))
            if called == "OrderTest":
                builders.append(where)
            if isinstance(child, ast.Attribute) and child.attr == "g" and module != "cyclotomic":
                reads.append((module, child.lineno))
            visit(child, module, where)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path.stem)
    assert sorted(builders) == ["cyclotomic._order_memo", "cyclotomic.order_vanishes"]
    assert reads == []


def test_records_are_built_unchecked_only_from_validated_values():
    # `_Record._of` skips `__init__` and its checks, so it is called only
    # where the values derive from records already validated: the window
    # candidates, the report's reduced system, the hull, the slice
    # closure's pair, rebuilt from the integers it is keyed by, and the
    # construction's candidate, from sums checked distinct
    callers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "_of":
                callers.append(where)
            visit(child, where)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert sorted(callers) == [
        "compat._window_candidates", "decide._interval", "decide.report_measure_spectrality",
        "kernel._closure_memo", "kernel._closure_memo",  # the system and the candidate
        "tiling.construct_spectrum_set",
    ]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the value types are plain classes, so no CLI process pays to import `dataclasses` and its `inspect`
    code = "import sys; before = set(sys.modules); import cantorspec.cli; print(sorted(set(sys.modules) - before))"
    paths = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    assert "cantorspec.cli" in added
    assert not added & {"dataclasses", "inspect"}
