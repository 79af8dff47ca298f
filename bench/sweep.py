"""Run every workload over seeds 1..N and summarise each end-to-end metric.

Run from the root of a checkout:

    python3 bench/sweep.py [--seeds 10]

For every workload and end-to-end metric it prints the median over the runs,
the quartiles, and the spread (q3 - q1) / median next to the metric's bound
from BENCHMARK.json; a spread over the bound is marked TOO NOISY.  The
summary, with the environment, goes to ``.bench_out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from run import OUT_DIR, WORKLOADS, git_commit, summary


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, one seed each")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {
        "environment": {
            "python": platform.python_version(),
            "commit": git_commit(os.getcwd()),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "seconds": spec["run_seconds"],
            "seeds": list(range(1, args.seeds + 1)),
        },
        "workloads": {},
    }
    status = 0
    for workload in WORKLOADS:
        runs = []
        for seed in report["environment"]["seeds"]:
            started = time.monotonic()
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"# {workload} seed {seed}: {time.monotonic() - started:.1f} s, "
                  f"correct={runs[-1]['correct']}", file=sys.stderr)
        metrics = {}
        for meta in spec["end_to_end"]:
            name = meta["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summary(values)
            stats.update(spread=(stats["q3"] - stats["q1"]) / stats["median"],
                         unit=meta["unit"], values=values)
            metrics[name] = stats
            line = (f"{workload:<12} {name:<34} {stats['median']:>12.6g} {meta['unit']:<6}"
                    f" spread {stats['spread']:7.2%} bound {meta['bound']:.0%}")
            if stats["spread"] > meta["bound"]:
                line += "  TOO NOISY"
                status = 1
            print(line)
        report["workloads"][workload] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        if not report["workloads"][workload]["correct"]:
            status = 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
