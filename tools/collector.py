"""Time the cyclic garbage collector inside one ``qsym`` CLI call.

Runs one ``qsym`` argv in this process through :func:`qsym.cli.run`, with
stdout sent to ``os.devnull``, and prints the call's wall seconds, the
seconds spent inside collector passes and the passes per generation::

    python3 tools/collector.py mul "[1,2,3,4,5,6,7,8]" "[8,7,6,5,4,3,2,1]"
    python3 tools/collector.py tau "b^16"

The collector is timed from inside, through ``gc.callbacks``: each pass is
the time from its "start" to its "stop" callback.  Imports and one full
``gc.collect()`` run before the clock starts, so neither is counted.  The
output is four lines, ``key value``; stderr of the call passes through.
Only the standard library is used.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qsym.cli import run  # noqa: E402


def measure(argv: list[str]) -> tuple[int, float, float, list[int]]:
    """``(exit status, wall seconds, collector seconds, passes per generation)``."""
    passes = [0] * len(gc.get_count())
    spent = [0.0]
    started = [0.0]

    def on_pass(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - started[0]
            passes[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_pass)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            begin = time.perf_counter()
            status = run(argv)
            wall = time.perf_counter() - begin
    finally:
        gc.callbacks.remove(on_pass)
    return status, wall, spent[0], passes


def main() -> int:
    status, wall, collector, passes = measure(sys.argv[1:])
    print(f"exit {status}")
    print(f"wall_s {wall:.4f}")
    print(f"collector_s {collector:.4f}")
    print("passes " + " ".join(f"gen{g}={n}" for g, n in enumerate(passes)))
    return status


if __name__ == "__main__":
    sys.exit(main())
