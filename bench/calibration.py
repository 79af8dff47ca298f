"""Fixed probes of how fast the machine runs Python right now.

Shared machines change speed by up to 2x within seconds (measured on a
2-core VM: the same ``qsym verify`` pass took 0.9 s and 1.9 s a minute
apart).  A probe run next to a timed piece of work slows down with it, so
``work_s * reference / probe_s`` is the time the work would take on a
machine where the probe takes its reference time.

A probe only tracks work of its own kind, so there are two:

* ``kernel``: tuples, dicts and small ints, like qsym's algebra.  It scales
  ``qsym verify`` calls.
* ``cli``: building an argparse parser, parsing arguments and joining
  strings, like a small CLI call or an interpreter starting and importing.
  It scales session calls and set-up, which the kernel probe tracked
  poorly (README.md gives the spreads with each).

Neither shares code with qsym or the rest of the benchmark, so a change to
either leaves them alone.  Do not edit them: every normalised time depends
on them.
"""

from __future__ import annotations

import bisect
import signal
import time
from itertools import combinations

# Rounds of a full probe, and the time of one round on the reference
# machine; normalised times are in seconds of that machine.
ROUNDS = {"kernel": 8, "cli": 4}
REFERENCE_ROUND_S = {"kernel": 0.015 / 8, "cli": 0.00315}
# Sampler: a one-round probe every TICK_S inside calls; a call is scaled by
# the probes within WINDOW_S of it.
TICK_S = 0.1
WINDOW_S = 0.15


def _overlapping_shuffles(left: tuple[int, ...], right: tuple[int, ...]) -> dict:
    counts: dict = {}
    k, l = len(left), len(right)
    for m in range(max(k, l), k + l + 1):
        for image_left in combinations(range(m), k):
            rest = [r for r in range(m) if r not in image_left]
            for shared in combinations(image_left, k + l - m):
                image_right = sorted(rest + list(shared))
                parts = [0] * m
                for pos, part in zip(image_left, left):
                    parts[pos] += part
                for pos, part in zip(image_right, right):
                    parts[pos] += part
                key = tuple(parts)
                counts[key] = counts.get(key, 0) + 1
    return counts


def _cli_round() -> None:
    import argparse  # here, so that qsym's own import of argparse stays in set-up

    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for i in range(14):
        command = commands.add_parser(f"c{i}", help=f"command {i}")
        command.add_argument("operand")
        command.add_argument("--format", choices=("text", "json", "latex"), default="text")
        command.add_argument("--max-degree", type=int, default=3)
    parser.parse_args(["c3", "[1,2]", "--format", "json"])
    " ".join(sorted(str(k) * 3 for k in range(300)))


def _kernel_round() -> None:
    _overlapping_shuffles((1, 2, 1, 3), (2, 1, 1, 2))
    _overlapping_shuffles((3, 1, 2), (1, 1, 2, 1, 1))


_ROUND = {"kernel": _kernel_round, "cli": _cli_round}


def probe(kind: str, rounds: int | None = None) -> float:
    """Seconds this process takes for ``rounds`` rounds (a full probe by
    default) of the fixed probe work of ``kind``."""
    work = _ROUND[kind]
    start = time.perf_counter()
    for _ in range(ROUNDS[kind] if rounds is None else rounds):
        work()
    return time.perf_counter() - start


def scale(kind: str, probe_s: float, rounds: int | None = None) -> float:
    """Factor from seconds measured now to seconds of the reference machine,
    given that a ``rounds``-round probe of ``kind`` took ``probe_s``."""
    rounds = ROUNDS[kind] if rounds is None else rounds
    return REFERENCE_ROUND_S[kind] * rounds / probe_s


class Sampler:
    """Speed probes of one kind taken while calls run, to normalise each
    call's time.

    :meth:`probe_now` runs a probe between calls.  While the sampler is
    entered with ``timer=True``, a one-round probe also runs every
    ``TICK_S`` from a timer signal, inside whatever call is running:
    endpoint probes cannot see the machine change speed halfway through a
    call of several seconds.  ``spent`` is the time all probes
    took, so a caller can subtract the part that fell inside a call.
    """

    def __init__(self, kind: str, timer: bool = True):
        self.kind = kind
        self.timer = timer
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0
        self._probing = False

    def probe_now(self, rounds: int | None = None) -> None:
        self._probing = True
        start = time.perf_counter()
        duration = probe(self.kind, rounds)
        self.times.append(start + duration / 2)
        self.speeds.append(scale(self.kind, duration, rounds))
        self.spent += time.perf_counter() - start
        self._probing = False

    def _tick(self, signum, frame) -> None:
        if not self._probing:  # a tick must not stretch a probe it interrupts
            self.probe_now(1)

    def speed_near(self, start: float, end: float) -> float:
        """Mean speed of the probes within ``WINDOW_S`` of [start, end], or
        of the nearest probe on each side when none is that close."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        near = self.speeds[lo:hi]
        return sum(near) / len(near)

    def __enter__(self) -> "Sampler":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
