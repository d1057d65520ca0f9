"""The benchmark's traced layer boundaries must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, class, attribute)`` of its
``TARGETS`` by name when a run asks for ``--trace 1``; a name that no longer
resolves would make such a run fail.  This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
