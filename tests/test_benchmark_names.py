"""The names the benchmark harness under perfbench/ reaches still exist.

The harness wraps the boundary functions listed in ``perfbench/tracing.py``
and calls the library through module attributes in
``perfbench/workloads.py``.  Both files are only read here: tracing.py is
executed from its source text, and workloads.py is parsed, not imported.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    """tracing.py run from its source text, so nothing is written beside it."""
    path = PERFBENCH / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _workload_names():
    """Every dotted name rooted at a graphfree module that workloads.py uses."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "graphfree"
               for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id]] + chain[::-1]))
    return sorted(names)


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"graphfree.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_boundary_resolves():
    tracing = _load_tracing()
    for module, fns in tracing.BOUNDARIES.items():
        home = importlib.import_module(f"graphfree.{module}")
        for fn in fns:
            assert callable(getattr(home, fn, None)), f"graphfree.{module}.{fn}"
    for qual in tracing.COUNTERS:
        assert qual.split(".")[1] in tracing.BOUNDARIES[qual.split(".")[0]], qual


def test_workload_names_found():
    names = _workload_names()
    for want in ("cumulants.b_diff_norm", "gralg.GradedElement.basis",
                 "falg.t_functional", "cumulants.omega_matrix_moments",
                 "verification.run_verification"):
        assert want in names


@pytest.mark.parametrize("dotted", _workload_names())
def test_every_workload_name_resolves(dotted):
    assert callable(_resolve(dotted)), dotted
