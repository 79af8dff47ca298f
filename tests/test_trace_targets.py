"""The benchmark reads qsym by name; every name it reads must resolve.

``bench/tracing.py`` patches qsym functions by name, and ``bench/worker.py``
reads the kernel memos' counters.  Both are loaded from their files, never
modified, so renaming a traced function or changing a memo's counters fails
here as well as in the benchmark.  So does a ``verify`` call of the benchmark
whose report ``bench/reference.py`` scores with a missing, renamed, extra or
failing check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qsym import algebra, cli, expansion, verification

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
reference = _load("reference")

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


def test_benchmark_default_degrees_are_the_suites_defaults():
    assert workloads.DEFAULT_DEGREES == verification.DEFAULT_DEGREES


@pytest.mark.parametrize(
    "call",
    [call for workload in ("verify", "verify-deep") for call in workloads.verify_passes(workload)],
    ids=lambda call: " ".join(call.argv),
)
def test_benchmark_verify_call_passes_every_expected_check(capsys, call):
    expected = {suite: workloads.expected_checks(suite, d) for suite, d in call.suites}
    code = cli.run(list(call.argv))
    attempted, failed = reference.score_verify_report(expected, code, capsys.readouterr().out)
    assert (attempted, failed) == (sum(map(len, expected.values())), 0)
