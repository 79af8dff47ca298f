"""The benchmark's tracer patches qsym functions by name; every name must resolve.

``bench/tracing.py`` is loaded from its file, never modified, so renaming a
traced function fails here as well as in the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("_bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

TARGETS = [
    *(t for targets in tracing.SPAN_GROUPS.values() for t in targets),
    *tracing.COUNTED.values(),
]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    owner, attr, original = tracing._resolve(target)
    assert callable(original)
