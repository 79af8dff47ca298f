"""The qsym benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Every timed call goes through ``qsym.cli.run`` in a worker process
(``worker.py``) started from the checkout's ``src``; this process only
schedules workers, checks their outputs and computes metrics.  It prints one
line per metric and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``.  A fuller record (environment, sample counts, quartiles) goes
to ``.bench_out/results/``, and traced runs leave their spans in
``.bench_out/spans/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import reference
import workloads
from worker import MIN_SESSION_CALLS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("verify", "verify-deep", "session")
OUT_DIR = ".bench_out"
# Session wall_s is the median in-call time of blocks of this many calls.
SESSION_BLOCK = 250
# setup_s is a median over at least this many worker start-ups.
MIN_SETUPS = 31
# A run must end within 180 s; workers still going at this point are killed.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def summary(samples: list[float]) -> dict:
    """Sample count, median and quartiles of one metric's samples in a run."""
    if len(samples) < 2:
        value = samples[0] if samples else None
        return {"n": len(samples), "median": value, "q1": value, "q3": value}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3}


class Runner:
    """Starts one worker process at a time in the checkout at ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.failures: list[str] = []

    def spawn(self, job: dict) -> dict | None:
        """Run one job; None if the worker crashed or ran out of time."""
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, self.root, repr(spawned)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=self.root,
            env=self.env,
            text=True,
        )
        try:
            out, _ = proc.communicate(json.dumps(job), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.failures.append(f"{job['kind']} worker killed after {timeout:.0f} s")
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failures.append(f"{job['kind']} worker exited with {proc.returncode}")
            return None
        return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run_pass(runner: Runner, workload: str, seed: int, tally: Tally,
             trace_id: str | None = None, keep_spans: bool = False,
             timer: bool = True) -> dict:
    """One pass: a verify call set in fresh workers, or the first session calls.

    With ``trace_id`` the workers run traced; ``keep_spans`` writes their
    spans to ``.bench_out/spans/``.  ``timer=False`` takes no speed probes
    inside calls (traced workers never do).

    Returns the pass wall time (in-call time only), the worker results, and
    every call latency, normalised and as measured.
    """
    trace = {} if timer else {"timer": False}
    workers, latencies, raw = [], [], []
    if workload == "session":
        jobs = [({"kind": "session", "seed": seed, "seconds": 0,
                  "max_calls": MIN_SESSION_CALLS}, None)]
    else:
        jobs = [({"kind": "verify", "argv": list(call.argv)},
                 {s: workloads.expected_checks(s, d) for s, d in call.suites})
                for call in workloads.verify_passes(workload)]
    for index, (job, expected) in enumerate(jobs):
        if trace_id is not None:
            trace = {"trace": True, "run_id": f"{trace_id}-w{index}"}
            if keep_spans:
                trace["spans_path"] = os.path.join(OUT_DIR, "spans", f"{trace_id}-w{index}.tsv")
        result = runner.spawn({**job, **trace})
        if result is None:
            if expected is None:
                tally.add(MIN_SESSION_CALLS, MIN_SESSION_CALLS)
            else:
                missed = sum(len(names) for names in expected.values())
                tally.add(missed, missed)
            continue
        if expected is None:
            tally.add(result["attempted"], result["failed"])
            runner.failures.extend(result["failures"])
            latencies.extend(result["latencies_s"])
            raw.extend(result["raw_latencies_s"])
        else:
            attempted, failed = reference.score_verify_report(
                expected, result["exit_code"], result["stdout"])
            tally.add(attempted, failed)
            if failed:
                runner.failures.append(f"{job['argv']}: {failed} of {attempted} checks failed")
            latencies.append(result["wall_s"])
            raw.append(result["raw_wall_s"])
        workers.append(result)
    return {"wall_s": sum(latencies), "workers": workers, "latencies_s": latencies,
            "raw_latencies_s": raw}


def end_to_end(setups, pass_walls, latencies, rss) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_walls),
        "calls_per_s": len(latencies) / sum(latencies),
        "call_ms.p50": percentile(latencies, 50) * 1e3,
        "call_ms.p99": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }


def timed_run(runner: Runner, workload: str, seed: int, seconds: int, tally: Tally):
    """Untraced measurement; returns metrics and their per-run samples."""
    setups: list[float] = []
    walls: list[float] = []
    latencies: list[float] = []
    rss: list[float] = []
    raw_setups: list[float] = []
    raw_latencies: list[float] = []
    start = time.monotonic()

    def set_up(count: int) -> None:
        for _ in range(count):
            probe = runner.spawn({"kind": "setup", "workload": workload, "seed": seed})
            if probe is None:
                raise BenchError("a setup worker failed: " + "; ".join(runner.failures))
            setups.append(probe["setup_s"])
            raw_setups.append(probe["raw_setup_s"])

    if workload == "session":
        # Set-ups on both sides of the session, so that their median spans
        # the whole run rather than its first seconds.
        set_up(MIN_SETUPS // 2)
        result = runner.spawn({"kind": "session", "seed": seed, "seconds": seconds})
        if result is None:
            raise BenchError("the session worker failed: " + "; ".join(runner.failures))
        tally.add(result["attempted"], result["failed"])
        runner.failures.extend(result["failures"])
        setups.append(result["setup_s"])
        raw_setups.append(result["raw_setup_s"])
        latencies = result["latencies_s"]
        raw_latencies = result["raw_latencies_s"]
        walls = [sum(latencies[i:i + SESSION_BLOCK])
                 for i in range(0, len(latencies) - SESSION_BLOCK + 1, SESSION_BLOCK)]
        rss = [result["rss_at_min_calls_mb"]]
        set_up(MIN_SETUPS - len(setups))
    else:
        while not walls or time.monotonic() - start < seconds:
            done = run_pass(runner, workload, seed, tally)
            if not done["workers"]:
                raise BenchError("every worker of a pass failed: " + "; ".join(runner.failures))
            setups.extend(w["setup_s"] for w in done["workers"])
            raw_setups.extend(w["raw_setup_s"] for w in done["workers"])
            walls.append(done["wall_s"])
            latencies.extend(done["latencies_s"])
            raw_latencies.extend(done["raw_latencies_s"])
            rss.append(max(w["rss_mb"] for w in done["workers"]))
        set_up(MIN_SETUPS - len(setups))
    samples = {"setup_s": setups, "wall_s": walls, "call_s": latencies, "peak_rss_mb": rss,
               "raw_setup_s": raw_setups, "raw_call_s": raw_latencies}
    return end_to_end(setups, walls, latencies, rss), samples


def layer_totals(workers: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its workers."""
    totals: Counter = Counter()
    for w in workers:
        totals.update(w["trace"])
    out = dict(totals)
    for key, prefix in (("qshuffle", "algebra.qshuffle"), ("basis_cache", "expansion.basis_cache")):
        counts = Counter()
        for w in workers:
            counts.update(w[key] or {})
        for name in ("hits", "misses", "size"):
            out[f"{prefix}.{name}"] = counts[name]
        lookups = counts["hits"] + counts["misses"]
        out[f"{prefix}.hit_ratio"] = counts["hits"] / lookups if lookups else 0.0
    out["syntax.bytes_out"] = sum(w["bytes_out"] for w in workers)
    return out


def traced_run(runner: Runner, workload: str, seed: int, seconds: int, tally: Tally):
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, and the overhead is the difference of the
    passes' median wall times.  Neither side probes inside calls, so both
    are normalised alike.  Spans of the first traced pass are kept."""
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict[str, float]] = []
    start = time.monotonic()
    while not per_pass or time.monotonic() - start < seconds:
        plain = run_pass(runner, workload, seed, tally, timer=False)
        traced = run_pass(runner, workload, seed, tally,
                          trace_id=f"{workload}-seed{seed}-p{len(per_pass)}",
                          keep_spans=not per_pass)
        if not plain["workers"] or not traced["workers"]:
            raise BenchError("every worker of a pass failed: " + "; ".join(runner.failures))
        plain_walls.append(plain["wall_s"])
        traced_walls.append(traced["wall_s"])
        per_pass.append(layer_totals(traced["workers"]))
    names = sorted(set().union(*per_pass))
    metrics = {name: statistics.median_low(p.get(name, 0) for p in per_pass) for name in names}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    samples = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    return metrics, samples


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, to tell builds apart without git."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "qsym")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(root: str, trace: bool) -> list[dict]:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "qsym", "__init__.py")):
            raise BenchError(f"no qsym sources under {root}/src; run from the root of a checkout")
        declared = declared_metrics(root, bool(args.trace))
        env = environment(root, args)
        runner = Runner(root)
        if runner.spawn({"kind": "setup", "workload": "verify", "seed": args.seed}) is None:
            raise BenchError("the warm-up worker failed: " + "; ".join(runner.failures))
        tally = Tally()
        measure = traced_run if args.trace else timed_run
        computed, samples = measure(runner, args.workload, args.seed, args.seconds, tally)
        missing = [m["name"] for m in declared if m["name"] not in computed]
        if missing:
            raise BenchError(f"BENCHMARK.json names metrics this run does not compute: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    record = {
        "environment": env,
        "metrics": metrics,
        "samples": {name: summary(values) for name, values in samples.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": fail_ratio,
        "failures": runner.failures[:20],
    }
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# qsym bench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" python={env['python']} commit={env['commit']} nproc={env['nproc']}"
          f" load={env['loadavg_start'][0]:.2f}")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'fail_ratio':<40} {fail_ratio:>14.6g} ratio ({tally.failed}/{tally.attempted})")
    for failure in runner.failures[:5]:
        print(f"# failure: {failure}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
