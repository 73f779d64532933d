"""The benchmark's tracing hooks still name live functions.

``bench/tracer.py`` wraps the functions listed in its ``TRACED`` table,
each given by module and attribute path.  Renaming or removing one of them
(``scalar.sc_inv``, ``TowerRing.inv_unit``, ``linalg.mat_mul``, ...) would
make every traced benchmark run fail, so each entry is resolved here the way
the tracer resolves it.  The table is read from the file as it stands.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer, name, module, path", tracer.TRACED,
                         ids=[f"{layer}.{name}" for layer, name, _, _ in tracer.TRACED])
def test_every_traced_hook_resolves(layer, name, module, path):
    assert callable(tracer._resolve(module, path)), f"{module}:{path}"


def test_the_hot_kernels_are_traced():
    hooks = {(module, path) for _, _, module, path in tracer.TRACED}
    assert {("isofilt.padic.scalar", "sc_inv"),
            ("isofilt.padic.ring", "TowerRing.inv_unit"),
            ("isofilt.padic.linalg", "mat_mul")} <= hooks
