"""Correctness gates: expected session results computed without qsym, and
the scoring of ``qsym verify`` reports.

Every route here differs from the package's:

* products enumerate pairs of strictly increasing maps into [m] whose images
  jointly cover [m] (the surjection formula), not the quasi-shuffle recursion;
* the coproduct is plain deconcatenation of tuples;
* the antipode sums over coarsenings found by repeated adjacent merging;
* Lyndon words are recognised by comparing against every rotation;
* expansions place parts on increasing variable sets.

:func:`expected_json` gives the JSON document a call must print with
``--format json``; :func:`check` compares what qsym printed against it.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

Element = dict  # {parts tuple: int}


def _add(acc: dict, key, value: int) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def basis_product(left: tuple[int, ...], right: tuple[int, ...]) -> Element:
    """Product of two basis elements by the surjection formula.

    For each target length m, the left parts go to an increasing set of
    positions; the right parts must cover the remaining positions and may
    share ``k + l - m`` of the left ones.
    """
    k, l = len(left), len(right)
    acc: Element = {}
    for m in range(max(k, l), k + l + 1):
        shared = k + l - m
        for image_left in combinations(range(m), k):
            taken = set(image_left)
            free = [r for r in range(m) if r not in taken]
            for overlap in combinations(image_left, shared):
                image_right = sorted(free + list(overlap))
                parts = [0] * m
                for pos, part in zip(image_left, left):
                    parts[pos] += part
                for pos, part in zip(image_right, right):
                    parts[pos] += part
                _add(acc, tuple(parts), 1)
    return acc


def product(a: Element, b: Element) -> Element:
    acc: Element = {}
    for ca, va in a.items():
        for cb, vb in b.items():
            for parts, mult in basis_product(ca, cb).items():
                _add(acc, parts, va * vb * mult)
    return acc


def coproduct(a: Element) -> dict:
    acc: dict = {}
    for parts, v in a.items():
        for cut in range(len(parts) + 1):
            _add(acc, (parts[:cut], parts[cut:]), v)
    return acc


def coarsenings_by_merging(parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    seen = {parts}
    frontier = [parts]
    while frontier:
        word = frontier.pop()
        for i in range(len(word) - 1):
            merged = word[:i] + (word[i] + word[i + 1],) + word[i + 2 :]
            if merged not in seen:
                seen.add(merged)
                frontier.append(merged)
    return seen


def antipode(a: Element) -> Element:
    acc: Element = {}
    for parts, v in a.items():
        sign = -1 if len(parts) % 2 else 1
        for coarser in coarsenings_by_merging(parts[::-1]):
            _add(acc, coarser, sign * v)
    return acc


def sigma(a: Element) -> Element:
    return {parts[::-1]: v for parts, v in a.items()}


def truncate(a: Element, n: int) -> Element:
    return {parts: v for parts, v in a.items() if len(parts) <= n}


def expand(a: Element, n: int) -> dict:
    acc: dict = {}
    for parts, v in a.items():
        for positions in combinations(range(n), len(parts)):
            exps = [0] * n
            for pos, part in zip(positions, parts):
                exps[pos] = part
            _add(acc, tuple(exps), v)
    return acc


def psi(a: Element, n1: int, n2: int) -> dict:
    return {k: v for k, v in coproduct(a).items() if len(k[0]) <= n1 and len(k[1]) <= n2}


def tau(beta: dict) -> dict:
    """Reverse each coefficient and substitute ``[1] - b`` for ``b``.

    ``([1] - b)^p`` expands binomially into ``C(p, j) [1]^j (-b)^(p-j)``.
    """
    one = {(): 1}
    powers_of_one_part = [one]
    acc: dict = {}
    for p, coeff in beta.items():
        while len(powers_of_one_part) <= p:
            powers_of_one_part.append(product(powers_of_one_part[-1], {(1,): 1}))
        rev = sigma(coeff)
        for j in range(p + 1):
            scale = comb(p, j) * (-1) ** (p - j)
            slot = acc.setdefault(p - j, {})
            for parts, v in product(rev, powers_of_one_part[j]).items():
                _add(slot, parts, scale * v)
    return {power: el for power, el in acc.items() if el}


def is_lyndon_by_rotation(parts: tuple[int, ...]) -> bool:
    return bool(parts) and all(parts < parts[i:] + parts[:i] for i in range(1, len(parts)))


def compositions(n: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1 << (n - 1)):
        parts, acc = [], 1
        for gap in range(n - 1):
            if mask >> gap & 1:
                parts.append(acc)
                acc = 1
            else:
                acc += 1
        parts.append(acc)
        out.append(tuple(parts))
    return out


def lyndon_list(n: int) -> list[tuple[int, ...]]:
    return sorted(c for c in compositions(n) if is_lyndon_by_rotation(c))


# -- JSON documents -----------------------------------------------------------


def json_element(a: Element) -> list[dict]:
    return [
        {"composition": list(parts), "coefficient": a[parts]}
        for parts in sorted(a, key=lambda p: (sum(p), p))
    ]


def json_tensor(t: dict) -> list[dict]:
    return [
        {"factors": [list(f) for f in key], "coefficient": t[key]}
        for key in sorted(t, key=lambda k: tuple((sum(f), f) for f in k))
    ]


def json_beta(beta: dict) -> list[dict]:
    return [{"beta_power": p, "coefficient": json_element(beta[p])} for p in sorted(beta, reverse=True)]


def json_polynomial(n: int, poly: dict) -> dict:
    return {
        "num_vars": n,
        "terms": [
            {"exponents": list(e), "coefficient": poly[e]}
            for e in sorted(poly, key=lambda e: (sum(e), e), reverse=True)
        ],
    }


def expected_json(op: str, inputs: tuple):
    """The JSON document qsym must print for one session call."""
    if op == "mul":
        return json_element(product(*inputs))
    if op == "coproduct":
        return json_tensor(coproduct(inputs[0]))
    if op == "antipode":
        return json_element(antipode(inputs[0]))
    if op == "sigma":
        return json_element(sigma(inputs[0]))
    if op == "truncate":
        return json_element(truncate(*inputs))
    if op == "expand":
        a, n = inputs
        return json_polynomial(n, expand(a, n))
    if op == "psi":
        return json_tensor(psi(*inputs))
    if op == "tau":
        return json_beta(tau(inputs[0]))
    if op == "stratum":
        return json_element({(1,) * inputs[0]: 1})
    if op == "lyndon":
        return [list(c) for c in lyndon_list(inputs[0])]
    raise ValueError(f"no reference for {op!r}")


def check(op: str, fmt: str, inputs: tuple, exit_code: int, stdout: str) -> bool:
    """Whether one call succeeded; JSON output must equal the reference."""
    if exit_code != 0:
        return False
    if fmt != "json":
        return bool(stdout.strip())
    try:
        printed = json.loads(stdout)
    except ValueError:
        return False
    return printed == expected_json(op, inputs)


def score_verify_report(suites: dict[str, list[str]], exit_code, stdout: str) -> tuple[int, int]:
    """(attempted, failed) checks of one ``qsym verify --format json`` call.

    ``suites`` maps each suite the call ran to the check names it must
    report.  An expected check that is missing or did not pass is a failure,
    and so is a check nobody expected; a nonzero exit fails every check.
    """
    attempted = sum(len(names) for names in suites.values())
    if exit_code != 0:
        return attempted, attempted
    try:
        report = {entry["suite"]: entry["checks"] for entry in json.loads(stdout)}
        verdicts = {
            suite: {check["name"]: check["passed"] for check in checks}
            for suite, checks in report.items()
        }
    except (ValueError, TypeError, KeyError):
        return attempted, attempted
    failed = 0
    for suite in set(suites) | set(verdicts):
        expected = suites.get(suite, [])
        got = verdicts.get(suite, {})
        failed += sum(1 for name in expected if got.get(name) is not True)
        extra = len(set(got) - set(expected))
        attempted += extra
        failed += extra
    return attempted, failed
