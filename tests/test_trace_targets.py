"""The benchmark reads qsym by name; every name it reads must resolve.

``bench/tracing.py`` patches qsym functions by name, and ``bench/worker.py``
reads the kernel memos' counters.  Both are loaded from their files, never
modified, so renaming a traced function or changing a memo's counters fails
here as well as in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from qsym import algebra, expansion

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")

TARGETS = [
    *(t for targets in tracing.SPAN_GROUPS.values() for t in targets),
    *tracing.COUNTED.values(),
]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    owner, attr, original = tracing._resolve(target)
    assert callable(original)


@pytest.mark.parametrize(
    "module, kernel", [(algebra, "_quasi_shuffle"), (expansion, "_basis_expansion")]
)
def test_worker_reads_kernel_memo_counts(monkeypatch, module, kernel):
    monkeypatch.syspath_prepend(str(_BENCH))  # worker.py imports its siblings
    counts = _load("worker")._cache_counts(module, kernel)
    assert counts is not None
    for name in ("hits", "misses", "size"):
        assert type(counts[name]) is int, name
