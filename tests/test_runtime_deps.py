"""Runtime code must not import scipy: it is a test tool only. No module
keeps an import it does not use, the kernels module runs no matrix
product (a BLAS call), no module writes a ``.state`` attribute or
imports a private numpy module, every module imports only from the
layers below its own, and only ``cia.stratified_thresholds`` reads
``loo_thresholds``.

The scipy probe runs in a child process, because the test session itself
may have imported scipy already.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ciarith

_PROBE = """
import sys

import ciarith

samples = ciarith.SampleSet(
    ciarith.LabeledSample(i, label=float(i % 3), point_pred=1.0, quant_lo=0.0, quant_hi=2.0)
    for i in range(12)
)
groups = [ciarith.IndexGroup(g, frozenset(range(3 * g, 3 * g + 3))) for g in range(4)]
views = ciarith.split_groups(groups, ciarith.symmetric_split(range(12), 0))
target = next(v for v in views if v.test_size)
ciarith.cia_predict(views, samples, target.group_id, 0.2)
data, grouping = ciarith.generate_synthetic(120, 6, rng_seed=0)
ciarith.run_experiment(data, grouping, ciarith.ExperimentConfig(alphas=(0.2,), reps=2))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_runtime_code_does_not_import_scipy():
    src = str(Path(ciarith.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; ``__all__`` counts as a read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    pkg = Path(ciarith.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(pkg.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the package's re-exports
        for names in [_unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
        if names
    }
    assert not unused, unused


_MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "tensordot"}


def test_kernels_module_runs_no_matrix_product():
    # a matrix product is a multithreaded BLAS call; the overlap kernel
    # counts shared members by sorting and must stay single-threaded
    path = Path(ciarith.__file__).resolve().parent / "kernels.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in _MATRIX_PRODUCTS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id in _MATRIX_PRODUCTS:
            found.append(f"{node.id} (line {node.lineno})")
    assert not found, found


_PRIVATE_NUMPY = re.compile(r"numpy\.(random\._|_?core\b)")


def _numpy_internals(tree: ast.Module) -> list[str]:
    """Assignments to a ``.state`` attribute, and imports of a private numpy
    module; numpy treats both as implementation details."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "state":
            if isinstance(node.ctx, ast.Store):
                found.append(f".state = (line {node.lineno})")
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [f"import {n} (line {node.lineno})" for n in names if _PRIVATE_NUMPY.match(n)]
    return found


def test_no_module_sets_a_state_attribute_or_imports_numpy_internals():
    # generators are seeded through numpy's public seed-sequence interface,
    # never by writing a bit generator's state
    pkg = Path(ciarith.__file__).resolve().parent
    found = {
        path.name: names
        for path in sorted(pkg.glob("*.py"))
        for names in [_numpy_internals(ast.parse(path.read_text(encoding="utf-8")))]
        if names
    }
    assert not found, found


# The package's layers, lowest first. A module imports only from lower
# layers; ``__init__`` re-exports them all and is exempt.
_LAYERS = (
    ("core",),
    ("kernels", "scoring", "models"),
    ("cia", "baselines", "graph"),
    ("experiments",),
    ("report",),
    ("cli",),
)


def _package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, sibling module) of every import of the package's own modules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("ciarith.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "ciarith"
                                                   or node.module.startswith("ciarith.")):
            # from .x import y, from . import x, and their absolute spellings
            module = node.module if node.level else node.module.partition(".")[2]
            names = [module] if module else [a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, n.partition(".")[0]) for n in names]
    return found


def test_every_module_imports_only_from_lower_layers():
    layer = {m: i for i, mods in enumerate(_LAYERS) for m in mods}
    pkg = Path(ciarith.__file__).resolve().parent
    modules = sorted(p.stem for p in pkg.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(layer), "every module belongs to exactly one layer"
    upward = [
        f"{m} imports {dep} (line {line})"
        for m in modules
        for line, dep in _package_imports(ast.parse((pkg / f"{m}.py").read_text(encoding="utf-8")))
        if layer[dep] >= layer[m]
    ]
    assert not upward, upward


def _readers_of(tree: ast.Module, module: str, func: str) -> list[str]:
    """``module.qualname (line)`` of each read of ``func``, under its own
    name, an import alias or as an attribute; ``<module>`` outside any def."""
    names = {func} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for a in node.names if a.name == func and a.asname}
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr == func):
            found.append(f"{module}.{'.'.join(scope) or '<module>'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_stratified_thresholds_takes_leave_one_out_thresholds():
    # every CIA threshold goes through cia.stratified_thresholds, whose
    # one-bucket case is the unstratified pool, so the pool rule is written once
    pkg = Path(ciarith.__file__).resolve().parent
    readers = [
        r
        for path in sorted(pkg.glob("*.py"))
        for r in _readers_of(ast.parse(path.read_text(encoding="utf-8")), path.stem,
                             "loo_thresholds")
    ]
    assert readers and all(r.startswith("cia.stratified_thresholds ") for r in readers), readers
