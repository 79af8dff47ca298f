"""Inputs of the three benchmark workloads.

``verify`` and ``verify-deep`` have fixed inputs: the ``qsym verify`` argument
lists and the check names each suite must report.  ``session`` is a seeded,
endless stream of CLI invocations; the same seed always gives the same stream.

Nothing here imports qsym.  Each session call carries its structured inputs
next to its argument list, so :mod:`reference` can compute the expected
result without parsing anything qsym printed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

# ``qsym verify`` with no arguments runs every suite at these bounds.
DEFAULT_DEGREES = {"hopf": 6, "oracle": 7, "limit": 5, "mu": 6, "tau": 5, "lyndon-free": 6}
# One bound above the default for each suite; lyndon-free goes to 9, where the
# rank certificate dominates.
DEEP_DEGREES = {"hopf": 7, "oracle": 8, "limit": 6, "mu": 7, "tau": 6, "lyndon-free": 9}

_FIXED_CHECKS = {
    "hopf": ["coassociativity", "counit", "bialgebra", "antipode", "antipode-squared"],
    "oracle": ["product-expansion", "expansion-round-trip"],
    "limit": ["zero-insertion", "restriction", "restriction-composition"],
    "mu": ["gluing-coproduct", "gluing-multiplicative", "deep-stratum"],
    "tau": [
        "reversal-involution",
        "reversal-multiplicative",
        "reversal-twists-coproduct",
        "involution-squared",
        "involution-multiplicative",
        "involution-of-beta",
    ],
}


def expected_checks(suite: str, degree: int) -> list[str]:
    """The check names ``suite`` must report when swept to ``degree``."""
    if suite == "lyndon-free":
        return [f"free-generation-weight-{w}" for w in range(1, degree + 1)] + ["generator-count"]
    return list(_FIXED_CHECKS[suite])


@dataclass(frozen=True)
class VerifyCall:
    """One ``qsym verify`` invocation and the suites its report must contain."""

    argv: tuple[str, ...]
    suites: tuple[tuple[str, int], ...]


def verify_passes(workload: str) -> list[VerifyCall]:
    """The calls of one pass; each runs in its own fresh worker process."""
    if workload == "verify":
        return [VerifyCall(("verify", "--format", "json"), tuple(DEFAULT_DEGREES.items()))]
    if workload == "verify-deep":
        return [
            VerifyCall(("verify", s, "--max-degree", str(d), "--format", "json"), ((s, d),))
            for s, d in DEEP_DEGREES.items()
        ]
    raise ValueError(f"not a verify workload: {workload!r}")


# -- the session stream -------------------------------------------------------

# An element is a dict {parts tuple: nonzero int}; a beta polynomial is a dict
# {beta power: element}.


@dataclass(frozen=True)
class SessionCall:
    """One CLI invocation: the argv qsym sees and the inputs it encodes."""

    op: str
    fmt: str
    inputs: tuple
    argv: tuple[str, ...]


# Every block of 100 consecutive calls has exactly this mix of (command,
# from the tail?) pairs, in a seeded order, so seeds differ only in order,
# formats and operands, not in how much of each kind of work they ask for.
# The tail is 7 calls in 100: long products, b^6, Lyndon lists of weight 11
# (these three set p99), and long coproduct/antipode operands and wide
# expansions.  Tail shapes are fixed so p99 lands among calls of similar cost.
_BLOCK: tuple[tuple[str, bool], ...] = tuple(
    (op, tail)
    for op, plain, tails in (
        ("mul", 21, 2),
        ("coproduct", 8, 1),
        ("antipode", 9, 1),
        ("sigma", 6, 0),
        ("truncate", 6, 0),
        ("expand", 12, 1),
        ("psi", 8, 0),
        ("tau", 12, 1),
        ("stratum", 5, 0),
        ("lyndon", 6, 1),
    )
    for tail, count in ((False, plain), (True, tails))
    for _ in range(count)
)
_FORMATS = ("text", "json", "latex")


def _composition(rng: random.Random, min_len: int, max_len: int, max_part: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, max_part) for _ in range(rng.randint(min_len, max_len)))


def _element(
    rng: random.Random, max_terms: int, min_len: int, max_len: int, max_part: int = 3
) -> dict[tuple[int, ...], int]:
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        comp = _composition(rng, min_len, max_len, max_part)
        terms[comp] = rng.choice((-1, 1)) * rng.randint(1, 5)
    if rng.random() < 0.15:
        terms[()] = rng.randint(1, 5)
    return terms


def render_composition(parts: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, parts)) + "]"


def render_element(terms: dict[tuple[int, ...], int]) -> str:
    """Surface syntax like ``3*[1,2] - [2,1] + 1`` in canonical order."""
    pieces = []
    for parts in sorted(terms, key=lambda p: (sum(p), p)):
        coeff = terms[parts]
        sign = "-" if coeff < 0 else "+"
        a = abs(coeff)
        if not parts:
            body = str(a)
        elif a == 1:
            body = render_composition(parts)
        else:
            body = f"{a}*{render_composition(parts)}"
        pieces.append((sign, body))
    if not pieces:
        return "0"
    first_sign, first = pieces[0]
    out = ("-" if first_sign == "-" else "") + first
    return out + "".join(f" {s} {b}" for s, b in pieces[1:])


def render_beta(beta: dict[int, dict[tuple[int, ...], int]]) -> str:
    """Surface syntax like ``([1]+2)*b^2 + ([1,1])``, one term per power."""
    pieces = []
    for power in sorted(beta, reverse=True):
        factor = f"({render_element(beta[power])})"
        if power == 1:
            factor += "*b"
        elif power > 1:
            factor += f"*b^{power}"
        pieces.append(factor)
    return " + ".join(pieces)


def _make_call(rng: random.Random, op: str, tail: bool) -> SessionCall:
    fmt = rng.choice(_FORMATS)
    if op == "mul":
        if tail:
            a = _element(rng, 1, 5, 5, max_part=9)
            b = _element(rng, 1, 5, 5, max_part=9)
        else:
            a = _element(rng, 3, 1, 3)
            b = _element(rng, 3, 1, 3)
        inputs: tuple = (a, b)
        args = [render_element(a), render_element(b)]
    elif op in ("coproduct", "antipode", "sigma"):
        a = _element(rng, 3, 6, 6) if tail else _element(rng, 3, 1, 4)
        inputs = (a,)
        args = [render_element(a)]
    elif op == "truncate":
        a = _element(rng, 4, 1, 5)
        n = rng.randint(0, 4)
        inputs = (a, n)
        args = [render_element(a), str(n)]
    elif op == "expand":
        a = _element(rng, 2, 1, 3)
        n = 7 if tail else rng.randint(1, 5)
        inputs = (a, n)
        args = [render_element(a), str(n)]
    elif op == "psi":
        a = _element(rng, 3, 1, 5)
        n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
        inputs = (a, n1, n2)
        args = [render_element(a), str(n1), str(n2)]
    elif op == "tau":
        if tail:
            beta = {6: _element(rng, 1, 2, 2)}
        else:
            top = rng.randint(1, 3)
            beta = {top: _element(rng, 2, 1, 2)}
            for power in range(top):
                if rng.random() < 0.4:
                    beta[power] = _element(rng, 2, 1, 2)
        inputs = (beta,)
        args = [render_beta(beta)]
    elif op == "stratum":
        d = rng.randint(0, 10)
        inputs = (d,)
        args = [str(d)]
    else:
        w = 11 if tail else rng.randint(1, 9)
        inputs = (w,)
        args = [str(w)]
    command = ("lyndon", "list") if op == "lyndon" else (op,)
    # "--" lets an operand start with "-", as in "-[1,2] + 3".
    return SessionCall(op, fmt, inputs, (*command, "--format", fmt, "--", *args))


def session_stream(seed: int) -> Iterator[SessionCall]:
    """The endless call stream of one seed."""
    rng = random.Random(seed)
    while True:
        block = list(_BLOCK)
        rng.shuffle(block)
        for op, tail in block:
            yield _make_call(rng, op, tail)


def session_calls(seed: int, count: int) -> list[SessionCall]:
    """The first ``count`` calls of the stream of ``seed``."""
    return list(itertools.islice(session_stream(seed), count))
