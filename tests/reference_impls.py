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


def combination_product(
    left: dict[tuple[int, ...], int], right: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    """The product of two integer combinations of basis elements, given as
    {composition: coefficient}, by ``surjection_product`` term by term."""
    acc: dict[tuple[int, ...], int] = {}
    for a, x in left.items():
        for b, y in right.items():
            for c, m in surjection_product(a, b).items():
                acc[c] = acc.get(c, 0) + x * y * m
    return {k: v for k, v in acc.items() if v}


def elementary_images(alpha: tuple[int, ...], top: int) -> list[dict[tuple[int, ...], int]]:
    """``[e_0(M_alpha), ..., e_top(M_alpha)]`` by Newton's identity
    n e_n = sum_k (-1)^(k-1) p_k e_(n-k), with the Adams operation
    p_k(M_alpha) = M_(k alpha).

    Raises ``ArithmeticError`` where a division by n is not exact.
    """
    e = [{(): 1}]
    for n in range(1, top + 1):
        acc: dict[tuple[int, ...], int] = {}
        for k in range(1, n + 1):
            adams = {tuple(k * part for part in alpha): (-1) ** (k - 1)}
            for c, v in combination_product(adams, e[n - k]).items():
                acc[c] = acc.get(c, 0) + v
        if any(v % n for v in acc.values()):
            raise ArithmeticError(f"{n} e_{n}(M_{alpha}) is not divisible by {n}")
        e.append({c: v // n for c, v in acc.items() if v})
    return e


def product_matrix(
    generators: list[tuple[int, dict[tuple[int, ...], int]]], weight: int
) -> list[list[int]]:
    """One row per multiset of ``generators`` ((weight, combination) pairs)
    whose weights sum to ``weight``: the coefficients of its product on the
    compositions of ``weight`` in lex order.  Multisets are taken as
    nondecreasing index tuples, in lex order."""
    rows: list[dict[tuple[int, ...], int]] = []

    def extend(start: int, left: int, acc: dict[tuple[int, ...], int]) -> None:
        if not left:
            rows.append(acc)
        for i in range(start, len(generators)):
            w, g = generators[i]
            if w <= left:
                extend(i, left - w, combination_product(acc, g))

    extend(0, weight, {(): 1})
    columns = sorted(coarsenings_by_merging((1,) * weight))
    return [[row.get(c, 0) for c in columns] for row in rows]


def bareiss_determinant(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in which every division is exact."""
    a = [list(row) for row in rows]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1
