"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qsym  # noqa: E402
from qsym import cli, verification  # noqa: E402
from qsym.cli import run as qsym_run  # noqa: E402

import reference  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def as_json(call: workloads.SessionCall) -> workloads.SessionCall:
    argv = list(call.argv)
    argv[argv.index("--format") + 1] = "json"
    return workloads.SessionCall(call.op, "json", call.inputs, tuple(argv))


def run_calls(run, calls) -> dict:
    return worker.run_session(run, iter(calls), 0, len(calls), len(calls))


def test_same_seed_gives_same_session_calls():
    assert workloads.session_calls(7, 500) == workloads.session_calls(7, 500)
    assert workloads.session_calls(7, 500) != workloads.session_calls(8, 500)


def test_session_stream_covers_every_command_and_format():
    calls = workloads.session_calls(1, 1000)
    assert {c.op for c in calls} == {op for op, _ in workloads._BLOCK}
    assert {c.fmt for c in calls} == {"text", "json", "latex"}


def test_reference_agrees_with_qsym_on_session_calls():
    calls = [as_json(c) for c in workloads.session_calls(3, 300)]
    result = run_calls(qsym_run, calls)
    assert result["attempted"] == 300
    assert result["failed"] == 0, result["failures"]


def test_one_flipped_coefficient_makes_fail_ratio_positive():
    calls = [as_json(c) for c in workloads.session_calls(5, 100)]
    flipped = []

    def corrupting_run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qsym_run(argv)
        out = buf.getvalue()
        if not flipped:
            out, hits = re.subn(r'"coefficient": (-?\d+)',
                                lambda m: f'"coefficient": {-int(m.group(1))}', out, count=1)
            if hits:
                flipped.append(argv)
        print(out, end="")
        return code

    result = run_calls(corrupting_run, calls)
    assert flipped
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_verify_report_gate():
    names = workloads.expected_checks("tau", 5)
    suites = {"tau": names}

    def report(checks):
        return json.dumps([{"suite": "tau", "checks": checks}])

    good = [{"name": n, "passed": True, "detail": ""} for n in names]
    assert reference.score_verify_report(suites, 0, report(good)) == (6, 0)
    flipped = [dict(good[0], passed=False)] + good[1:]
    assert reference.score_verify_report(suites, 1, report(flipped)) == (6, 6)
    assert reference.score_verify_report(suites, 0, report(flipped)) == (6, 1)
    assert reference.score_verify_report(suites, 0, report(good[1:])) == (6, 1)
    extra = good + [{"name": "surprise", "passed": True, "detail": ""}]
    assert reference.score_verify_report(suites, 0, report(extra)) == (7, 1)
    assert reference.score_verify_report(suites, 0, "not json") == (6, 6)


def test_real_verify_report_passes_the_gate():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qsym_run(["verify", "lyndon-free", "--max-degree", "4", "--format", "json"])
    suites = {"lyndon-free": workloads.expected_checks("lyndon-free", 4)}
    assert reference.score_verify_report(suites, code, buf.getvalue()) == (5, 0)


def _bindings() -> dict:
    """Identity of every module attribute, dict entry and class attribute of qsym."""
    state = {}
    for name, module in sys.modules.items():
        if not (name == "qsym" or name.startswith("qsym.")):
            continue
        for key, value in vars(module).items():
            state[(name, key)] = value
            if type(value) is dict:
                for k, v in value.items():
                    state[(name, key, k)] = v
            if isinstance(value, type) and value.__module__ == name:
                for k, v in vars(value).items():
                    state[(name, key, "attr", k)] = v
    return state


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    original_face_map = verification.face_map
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert verification.face_map is not original_face_map
        assert qsym.face_map is verification.face_map
        assert verification.SUITES["tau"] is not before[("qsym.verification", "tau_checks")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.run(["verify", "tau", "--max-degree", "3", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    totals = tracer.totals()
    assert totals["cli.run.calls"] == 1
    assert totals["verification.tau.checks"] == 6
    assert totals["verification.tau.checks_failed"] == 0
    assert totals["compositions.constructed"] > 0
    # cli.run is the only root span, so the self times add up to its wall time
    self_total = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert abs(self_total - totals["cli.run.wall_s"]) < 1e-6


def test_every_declared_metric_is_computed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = bench_run.end_to_end([0.1], [1.0], [0.5, 0.5], [20.0])
    assert {m["name"] for m in spec["end_to_end"]} <= e2e.keys()

    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            qsym_run(["mul", "[1]", "[2]"])
    finally:
        tracer.uninstall()
    fake_worker = {"trace": tracer.totals(), "bytes_out": 10,
                   "qshuffle": {"hits": 1, "misses": 1, "size": 1}, "basis_cache": None}
    layers = bench_run.layer_totals([fake_worker])
    layers["trace.overhead_s"] = 0.0
    assert {m["name"] for m in spec["per_layer"]} <= layers.keys()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
