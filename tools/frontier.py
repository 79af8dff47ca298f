"""The one-second frontier: per suite, the largest ``verify`` bound within a budget.

For each suite, this runs ``qsym verify <suite> --max-degree d`` in fresh
processes, one at a time, with ``d`` rising from the suite's default bound.
A bound's time is the median of ``RUNS`` runs, since single runs on a busy
host can disagree by a whole bound.  It stops at the first bound whose time
is over ``--budget`` seconds, or after ``--max-bound``, and prints the
largest bound within budget ("-" if even the default is over) and the time
of the next one::

    python3 tools/frontier.py
    python3 tools/frontier.py --suites lyndon-free tau --budget 0.5

Wall time is that of the whole process, interpreter start-up included, as a
user who types the command sees it.  Each run is killed after ``TIMEOUT_S``
seconds, and a run that is killed, fails a check or exits nonzero ends its
suite's sweep.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qsym.verification import DEFAULT_DEGREES  # noqa: E402

TIMEOUT_S = 60.0
RUNS = 3


def time_bound(suite: str, bound: int) -> tuple[float | None, str]:
    """Median wall seconds of ``RUNS`` fresh ``verify`` runs and an empty
    string, or, at the first run that goes wrong, its time (None past the
    timeout) and what went wrong."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    command = [sys.executable, "-m", "qsym.cli", "verify", suite, "--max-degree", str(bound)]
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        try:
            result = subprocess.run(command, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"killed after {TIMEOUT_S:g} s"
        times.append(time.perf_counter() - start)
        if result.returncode:
            return times[-1], f"exit {result.returncode}"
    return statistics.median(times), ""


def frontier(suite: str, budget: float, max_bound: int) -> tuple[str, str]:
    """The largest bound within ``budget`` and the next bound's outcome, as text."""
    within, beyond = "-", "past --max-bound"
    for bound in range(DEFAULT_DEGREES[suite], max_bound + 1):
        elapsed, problem = time_bound(suite, bound)
        if problem:
            beyond = f"@{bound} {problem}"
            break
        if elapsed > budget:
            beyond = f"@{bound} {elapsed:.2f} s"
            break
        within = f"@{bound} {elapsed:.2f} s"
    return within, beyond


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suites", nargs="+", choices=list(DEFAULT_DEGREES),
                        default=list(DEFAULT_DEGREES), help="suites to sweep (default: all)")
    parser.add_argument("--budget", type=float, default=1.0,
                        help="wall seconds a bound may take (default: 1.0)")
    parser.add_argument("--max-bound", type=int, default=30,
                        help="highest bound to try (default: 30)")
    args = parser.parse_args(argv)
    print(f"{'suite':<12} {f'within {args.budget:g} s':<16} next")
    for suite in args.suites:
        within, beyond = frontier(suite, args.budget, args.max_bound)
        print(f"{suite:<12} {within:<16} {beyond}", flush=True)


if __name__ == "__main__":
    main()
