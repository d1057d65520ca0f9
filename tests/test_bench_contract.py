"""The package names that the benchmark reads must exist.

``perfbench/tracing.py`` wraps each ``(module, class, attribute)`` of its
``TARGETS`` by name when a run asks for ``--trace 1``; a name that no longer
resolves would make such a run fail.  ``perfbench/workloads.py`` builds
``SolverConfig`` objects from keyword dicts and reads attributes of them; a
removed keyword or attribute would fail the workload.  These tests only read
``perfbench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from asymptode.numerics import SolverConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name, cls_name, attr", _targets())
def test_traced_target_resolves(mod_name, cls_name, attr):
    owner = importlib.import_module("asymptode." + mod_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    assert callable(getattr(owner, attr))


def _is_config(node):
    """``cfg`` or ``<anything>.cfg``: the names workloads.py keeps configs in."""
    return getattr(node, "id", None) == "cfg" or getattr(node, "attr", None) == "cfg"


def _config_uses():
    """(keyword dicts passed as SolverConfig(**self.NAME), attributes read off
    configs); NAME = dict(...) is a class-level literal of the same class."""
    tree = ast.parse(WORKLOADS.read_text())
    used, attrs = [], set()
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        dicts = {
            stmt.targets[0].id: {kw.arg: ast.literal_eval(kw.value) for kw in stmt.value.keywords}
            for stmt in cls.body
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", None) == "dict"
        }
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "SolverConfig":
                (kw,) = node.keywords
                assert kw.arg is None, "expected SolverConfig(**self.NAME)"
                used.append(dicts[kw.value.attr])
            if isinstance(node, ast.Attribute) and _is_config(node.value):
                attrs.add(node.attr)
    return used, attrs


def test_solver_config_serves_the_workloads():
    used, attrs = _config_uses()
    # the parse found what workloads.py is known to read
    assert dict(rel_tol=1e-18, abs_tol=1e-20) in used
    assert dict(rel_tol=1e-30, abs_tol=1e-32) in used
    assert {"fp_tol", "effective_dps", "rel_tol", "abs_tol"} <= attrs
    for kwargs in used:
        cfg = SolverConfig(**kwargs)
        for attr in sorted(attrs):
            assert hasattr(cfg, attr), (kwargs, attr)
