"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the package: the product is enumerated
from its closed-form description as a sum over pairs of strictly increasing
maps with jointly surjective images, the Lyndon property is decided through
rotations, coarsening is iterated adjacent merging, a face map substitutes
zeros before renumbering, and the polynomial product convolves coefficient
dicts index by index.  Agreement between these and the package routes is
what the tests certify.
"""

from itertools import combinations
from math import prod


def surjection_product(left: tuple[int, ...], right: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Coefficients of the product of two basis elements.

    Sum over target sizes m and pairs of strictly increasing maps from the
    two index sets into [m] whose images jointly cover [m]; each pair
    contributes the composition whose r-th part collects the parts mapped
    to r.
    """
    k, l = len(left), len(right)
    acc: dict[tuple[int, ...], int] = {}
    for m in range(max(k, l), k + l + 1):
        for image_left in combinations(range(m), k):
            for image_right in combinations(range(m), l):
                if set(image_left) | set(image_right) != set(range(m)):
                    continue
                parts = [0] * m
                for pos, part in zip(image_left, left):
                    parts[pos] += part
                for pos, part in zip(image_right, right):
                    parts[pos] += part
                key = tuple(parts)
                acc[key] = acc.get(key, 0) + 1
    return acc


def is_lyndon_by_rotation(parts: tuple[int, ...]) -> bool:
    """A nonempty word is Lyndon exactly when it is strictly smaller than
    every proper rotation of itself."""
    if not parts:
        return False
    return all(parts < parts[i:] + parts[:i] for i in range(1, len(parts)))


def coarsenings_by_merging(parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All coarsenings, as the closure of single adjacent merges."""
    seen = {tuple(parts)}
    frontier = [tuple(parts)]
    while frontier:
        word = frontier.pop()
        for i in range(len(word) - 1):
            merged = word[:i] + (word[i] + word[i + 1],) + word[i + 2:]
            if merged not in seen:
                seen.add(merged)
                frontier.append(merged)
    return seen


def face_map_by_substitution(
    terms: dict[tuple[int, ...], int], num_vars: int, positions: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Keep the 1-based variables in ``positions`` of a polynomial given as
    {exponent tuple: coefficient}.

    First set every other variable to zero, which kills each monomial that
    uses one and leaves the rest unchanged; then renumber the kept variables
    1..m in order.
    """
    kept = set(positions)
    killed = [var for var in range(1, num_vars + 1) if var not in kept]
    substituted: dict[tuple[int, ...], int] = {}
    for exps, coeff in terms.items():
        # a killed variable contributes 0 ** exponent: 1 when absent, else 0
        value = coeff * prod(0 ** exps[var - 1] for var in killed)
        if value:
            substituted[exps] = value
    renumbered: dict[tuple[int, ...], int] = {}
    for exps, coeff in substituted.items():
        key = tuple(exps[var - 1] for var in sorted(kept))
        renumbered[key] = renumbered.get(key, 0) + coeff
    return {k: v for k, v in renumbered.items() if v}


def polynomial_product(
    left: dict[tuple[int, ...], int], right: dict[tuple[int, ...], int], num_vars: int
) -> dict[tuple[int, ...], int]:
    """The product of two polynomials given as {exponent tuple: coefficient},
    by convolving the coefficient dicts one exponent index at a time."""
    acc: dict[tuple[int, ...], int] = {}
    for a, x in left.items():
        for b, y in right.items():
            exps = tuple(a[i] + b[i] for i in range(num_vars))
            acc[exps] = acc.get(exps, 0) + x * y
    return {k: v for k, v in acc.items() if v}
