"""One benchmark worker process: import qsym, run one job, report as JSON.

Started by ``run.py`` as ``python3 worker.py <checkout root> <spawn time>``
with the job as a JSON object on stdin.  The spawn time is the parent's
``time.monotonic()`` just before it started this process; CLOCK_MONOTONIC
is shared by all processes, so ``setup_s`` covers interpreter start, the qsym
import and input generation.  The last line on stdout is the result.

Times are normalised by :mod:`calibration` probes run in this process next
to and inside the timed work (``setup_s``, ``wall_s``, ``latencies_s``); the
times as measured, less the probes, are reported under ``raw_*``.

Jobs:

* ``{"kind": "setup", "workload": ..., "seed": ...}`` only sets up;
* ``{"kind": "verify", "argv": [...]}`` makes one ``qsym verify`` call;
* ``{"kind": "session", "seed": ..., "seconds": ..., "max_calls": ...}``
  runs the session stream in this one process.

Any job may add ``"trace": true``, ``"run_id"`` and ``"spans_path"`` to run
under :class:`tracing.Tracer`, and ``"timer": false`` to take no probes
inside calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time

import calibration
import reference
import workloads

# Session calls run until --seconds have passed and at least this many calls
# are done, so call_ms.p99 has ten or more samples beyond it.
MIN_SESSION_CALLS = 1000
# A full speed probe runs between session calls this often, on top of the
# timer probes inside calls (calibration.Sampler).
PROBE_EVERY_S = 0.5
FAILURES_KEPT = 5
# setup_s is scaled by the mean of this many full cli probes run after it.
SETUP_PROBES = 3


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_captured(run, argv, sampler: calibration.Sampler) -> dict:
    """Run one CLI call with stdout captured.

    Returns the exit code, output, error, start and end times, and the
    elapsed time less any probe that ran inside the call (``raw_s``).
    """
    buf = io.StringIO()
    error = None
    spent = sampler.spent
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = run(list(argv))
        except Exception as exc:  # a crash is a failed call, not a dead benchmark
            code = None
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    raw = end - start - (sampler.spent - spent)
    return {"code": code, "out": buf.getvalue(), "error": error, "start": start, "end": end,
            "raw_s": raw}


def run_session(run, stream, seconds: float, min_calls: int, max_calls: int | None = None,
                sampler: calibration.Sampler | None = None) -> dict:
    """Closed loop with one client: each call starts when the previous ends.

    Only ``run`` is timed; drawing the next call, checking its output
    against :mod:`reference` and probing machine speed happen between timed
    calls.  ``latencies_s`` are normalised by the probes near each call;
    ``raw_latencies_s`` are as measured.
    """
    sampler = sampler or calibration.Sampler("cli", timer=False)
    calls: list[dict] = []
    failures: list[str] = []
    failed = bytes_out = 0
    rss_at_min = None
    deadline = time.perf_counter() + seconds
    sampler.probe_now()
    last_probe = time.perf_counter()
    for call in stream:
        result = call_captured(run, call.argv, sampler)
        out = result.pop("out")
        calls.append(result)
        bytes_out += len(out.encode())
        if not reference.check(call.op, call.fmt, call.inputs, result["code"], out):
            failed += 1
            if len(failures) < FAILURES_KEPT:
                failures.append(f"{list(call.argv)!r}: exit {result['code']}"
                                + (f", {result['error']}" if result["error"] else ""))
        if len(calls) == min_calls:
            rss_at_min = max_rss_mb()
        now = time.perf_counter()
        stop = (max_calls is not None and len(calls) >= max_calls) or (
            len(calls) >= min_calls and now >= deadline)
        if stop or now - last_probe >= PROBE_EVERY_S:
            sampler.probe_now()
            last_probe = time.perf_counter()
        if stop:
            break
    return {
        "latencies_s": [c["raw_s"] * sampler.speed_near(c["start"], c["end"]) for c in calls],
        "raw_latencies_s": [c["raw_s"] for c in calls],
        "attempted": len(calls),
        "failed": failed,
        "failures": failures,
        "bytes_out": bytes_out,
        "rss_at_min_calls_mb": rss_at_min if rss_at_min is not None else max_rss_mb(),
    }


def _cache_counts(module, name: str) -> dict | None:
    """Hits, misses and size of one of qsym's ``lru_cache`` functions, if present."""
    cache_info = getattr(getattr(module, name, None), "cache_info", None)
    if cache_info is None:
        return None
    info = cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


def main() -> int:
    root, spawned = sys.argv[1], float(sys.argv[2])
    job = json.load(sys.stdin)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qsym
    from qsym import algebra, cli, expansion

    if os.path.dirname(os.path.dirname(os.path.abspath(qsym.__file__))) != os.path.abspath(src):
        print(f"worker: imported qsym from {qsym.__file__}, not from {src}", file=sys.stderr)
        return 2

    kind = job["kind"]
    if kind == "session" or (kind == "setup" and job["workload"] == "session"):
        stream = workloads.session_stream(job["seed"])
        first = list(itertools.islice(stream, MIN_SESSION_CALLS))
        stream = itertools.chain(first, stream)
    setup_s = time.monotonic() - spawned
    probe_s = statistics.mean(calibration.probe("cli") for _ in range(SETUP_PROBES))
    result: dict = {
        "raw_setup_s": setup_s,
        "setup_s": setup_s * calibration.scale("cli", probe_s),
    }

    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        tracer.install()
    # In a traced run the timer probes would land inside spans, so only the
    # probes between calls are taken; the untraced passes of a traced run do
    # the same (``"timer": false``), so that both sides are scaled alike.
    sampler = calibration.Sampler("kernel" if kind == "verify" else "cli",
                                  timer=tracer is None and job.get("timer", True))
    try:
        with sampler:
            if kind == "verify":
                sampler.probe_now()
                call = call_captured(cli.run, job["argv"], sampler)
                sampler.probe_now()
                result.update(exit_code=call["code"], stdout=call["out"], error=call["error"],
                              bytes_out=len(call["out"].encode()), raw_wall_s=call["raw_s"],
                              wall_s=call["raw_s"] * sampler.speed_near(call["start"], call["end"]))
            elif kind == "session":
                result.update(run_session(cli.run, stream, job["seconds"], MIN_SESSION_CALLS,
                                          job.get("max_calls"), sampler))
            elif kind != "setup":
                print(f"worker: unknown job kind {kind!r}", file=sys.stderr)
                return 2
    finally:
        if tracer is not None:
            tracer.uninstall()

    result["rss_mb"] = max_rss_mb()
    result["qshuffle"] = _cache_counts(algebra, "_quasi_shuffle")
    result["basis_cache"] = _cache_counts(expansion, "_basis_expansion")
    if tracer is not None:
        result["trace"] = tracer.totals()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
