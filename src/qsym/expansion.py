"""Polynomial expansions of quasisymmetric functions, and checks built on them.

This module is deliberately independent of the quasi-shuffle kernel in
:mod:`qsym.algebra`: a basis element is expanded into an honest polynomial in
finitely many ordered variables by summing over strictly increasing placements
of its parts.  Multiplying expansions therefore gives a second, unrelated
route to the product.  The ``oracle`` suite needs only the packed
coefficients of that product, those of ``x1^c1...xl^cl``, which are the
coefficients of the ``M_c``: :func:`_packed_product` reads them off the two
memoised basis placements, and builds no polynomial.

Also here: recognising quasisymmetric polynomials and reading them back into
the basis (one pass over the terms decides both, so the ``oracle`` round trip
reads each expansion back once), variable-killing face maps (each face
compiled once into one kill test), and the certificate that products of
Lyndon-indexed basis elements span each graded piece.  The certificate counts
the products whose leading terms, read from the lex-largest shuffle of the
factors with no product built, are the predicted, pairwise distinct
concatenations: a lower bound on the rank.  The tests compare it with
:func:`rational_rank` of :func:`lyndon_generation_matrix`, exact ``Fraction``
elimination.  The Lyndon multisets of every weight come from one table pass
over the generators, so the ``lyndon-free`` suite enumerates each weight once.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import lru_cache
from itertools import combinations, compress
from math import comb, factorial, prod
from operator import add, itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping

from .algebra import QSymElement, _Memo, _Sparse
from .compositions import (
    Composition, _check_count, _is_int, enumerate_compositions, enumerate_lyndon
)

if TYPE_CHECKING:  # built only by lyndon_generation_matrix, which imports it itself
    from fractions import Fraction


class SparsePolynomial(_Sparse):
    """An integer polynomial in variables a1..an, stored as exponent tuples.

    Immutable.  Exponent tuples always have length ``num_vars``; terms with
    coefficient zero are dropped.  Arithmetic requires equal ``num_vars``.
    """

    __slots__ = ()

    _SHAPE_NAME = "variable count"

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self._store(_check_count(num_vars, "variable count"), terms)

    def _key(self, exps) -> tuple[int, ...]:
        exps = tuple(exps)
        if len(exps) != self._shape:
            raise ValueError(f"exponent tuple {exps!r} does not match {self._shape} variables")
        for e in exps:
            if not _is_int(e):
                raise ValueError(f"exponents must be integers, got {e!r} in {exps!r}")
            if e < 0:
                raise ValueError(f"negative exponent in {exps!r}")
        return exps

    @staticmethod
    def _order(keys: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Graded lexicographic, descending: degree first, then lex within a degree."""
        return sorted(sorted(keys, reverse=True), key=sum, reverse=True)

    @property
    def num_vars(self) -> int:
        return self._shape

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value: int) -> "SparsePolynomial":
        return cls(num_vars, {(0,) * _check_count(num_vars, "variable count"): value})

    def degree(self) -> int:
        """Largest total degree appearing; 0 for the zero polynomial."""
        return max(map(sum, self._terms), default=0)

    def __repr__(self) -> str:
        from .syntax import format_polynomial

        return f"SparsePolynomial({self._shape}, {format_polynomial(self)!r})"

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_shape(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, v1 in self._terms.items():
            for e2, v2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                acc[key] = acc.get(key, 0) + v1 * v2
        return self._new(acc, self._shape)


@_Memo
def _basis_expansion(parts: tuple[int, ...], num_vars: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of a basis element in ``num_vars`` variables.

    One tuple per strictly increasing placement of the parts; all carry
    coefficient 1, so only the exponent tuples are stored.
    """
    out = []
    for positions in combinations(range(num_vars), len(parts)):
        exps = [0] * num_vars
        for pos, part in zip(positions, parts):
            exps[pos] = part
        out.append(tuple(exps))
    return tuple(out)


def expand(element: QSymElement, num_vars: int) -> SparsePolynomial:
    """Expand into a polynomial in ``num_vars`` ordered variables.

    Basis elements longer than ``num_vars`` expand to zero.  A placement reads
    back its composition, so each exponent tuple comes from one term alone.
    """
    _check_count(num_vars, "variable count")
    terms = element._terms.items()
    placed = {exps: coeff for comp, coeff in terms for exps in _basis_expansion(comp, num_vars)}
    return SparsePolynomial._wrap(placed, num_vars)


def _packed_product(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The packed coefficients of ``M_a * M_b`` in ``n = len(a) + len(b)``
    variables, read from the two basis placements with no polynomial built.

    A monomial is packed when its nonzero exponents are those of the first
    ``l`` variables; it is keyed by those ``l`` exponents, a composition.  A
    placement pair multiplies to a packed monomial exactly when the union of
    the supports is a prefix ``{1..l}``, a bit mask ``u`` with ``u & (u + 1)
    == 0``.  Every placement has coefficient 1, so each such pair adds 1 and
    nothing cancels.
    """
    n = len(a) + len(b)
    bits = [1 << i for i in range(n)]
    right = [(sum(compress(bits, exps)), exps) for exps in _basis_expansion(b, n)]
    acc: dict[tuple[int, ...], int] = {}
    for e1 in _basis_expansion(a, n):
        m1 = sum(compress(bits, e1))
        for m2, e2 in right:
            u = m1 | m2
            if u & (u + 1) == 0:
                length = u.bit_length()
                key = tuple(map(add, e1[:length], e2[:length]))
                acc[key] = acc.get(key, 0) + 1
    return acc


def _pattern_coefficients(poly: SparsePolynomial) -> dict[tuple[int, ...], int] | None:
    """Each pattern of nonzero exponents and its shared coefficient, or None
    unless every pattern appears at all ``C(n, len)`` placements with one
    coefficient.  One pass counts the ``(pattern, coefficient)`` pairs: a pair
    counted ``C(n, len)`` times holds every placement of its pattern."""
    counts = Counter((tuple(filter(None, exps)), coeff) for exps, coeff in poly._terms.items())
    n = poly.num_vars
    if all(times == comb(n, len(pattern)) for (pattern, _), times in counts.items()):
        return {pattern: coeff for pattern, coeff in counts}
    return None


def is_quasisymmetric(poly: SparsePolynomial) -> bool:
    """Whether every pattern of nonzero exponents appears at all placements
    with one shared coefficient, read in one pass over the terms."""
    return _pattern_coefficients(poly) is not None


def from_polynomial(poly: SparsePolynomial) -> QSymElement:
    """Read a quasisymmetric polynomial back into the monomial basis.

    Requires at least as many variables as the total degree, since with fewer
    variables distinct elements can share the same expansion.  Raises
    ``ValueError`` if the polynomial is not quasisymmetric or has too few
    variables.  One pass groups the terms by pattern; a pattern's shared
    coefficient is that of its composition.
    """
    if poly.num_vars < poly.degree():
        raise ValueError(
            f"{poly.num_vars} variables cannot faithfully represent degree "
            f"{poly.degree()}; need at least as many variables as the degree"
        )
    shared = _pattern_coefficients(poly)
    if shared is None:
        raise ValueError("polynomial is not quasisymmetric")
    return QSymElement._wrap(shared)


def face_map(poly: SparsePolynomial, positions: tuple[int, ...]) -> SparsePolynomial:
    """Keep the 1-based variables listed in ``positions``, kill the rest.

    ``positions`` must be integers, strictly increasing and within range.  The
    kept variables are renumbered 1..m in order; any term using a killed
    variable is dropped.  Each face is compiled once, by :func:`_face_selectors`.
    """
    positions = tuple(positions)
    for p in positions:  # an exact int, the common case, needs no call
        if type(p) is not int and not _is_int(p):
            raise ValueError(f"positions must be integers, got {positions!r}")
    return _face_selectors(poly.num_vars, positions)(poly._terms)


@lru_cache(maxsize=4096)
def _face_selectors(num_vars: int, positions: tuple[int, ...]):
    """The validated image builder of one face map: a function from the term
    dict of a ``num_vars``-variable polynomial to its finished image.

    One kill test serves every face: a term survives when its killed
    exponents are all zero, so ``keep`` is one-to-one on survivors and no two
    of them need adding up.

    Raises ``ValueError`` for positions out of range or not strictly
    increasing; ``lru_cache`` caches no exception, so a bad input raises on
    every call.  :func:`face_map` checks that the positions are integers
    first, so ``True``, which hashes like ``1``, never reaches the cache.
    """
    if any(p < 1 or p > num_vars for p in positions):
        raise ValueError(f"positions {positions!r} out of range for {num_vars} variables")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(f"positions must be strictly increasing, got {positions!r}")
    killed = [i for i in range(num_vars) if i + 1 not in positions]
    keep, kill, zeros = _selector([p - 1 for p in positions]), _selector(killed), (0,) * len(killed)
    wrap, width = SparsePolynomial._wrap, len(positions)
    return lambda terms: wrap({keep(e): c for e, c in terms.items() if kill(e) == zeros}, width)


def _selector(indices: list[int]):
    """An ``itemgetter`` picking ``indices`` out of a tuple, always as a tuple:
    one index or none is taken as a slice, since a bare ``itemgetter`` returns
    an item for one index and cannot take none."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else itemgetter(slice(0))


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix of Fractions, by exact Gaussian elimination.

    Arithmetic is exact, so any nonzero entry can be the pivot: the first
    one at or below the current row is taken.
    """
    matrix = [list(row) for row in rows]
    if not matrix:
        return 0
    num_cols = len(matrix[0])
    if any(len(row) != num_cols for row in matrix):
        raise ValueError("rows have unequal lengths")
    rank = 0
    for col in range(num_cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col]:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def lyndon_monomial_multisets(weight: int) -> list[tuple[Composition, ...]]:
    """All multisets of Lyndon compositions with total weight ``weight``.

    Each multiset is a tuple in the canonical composition order, which is
    the order the generators are listed in: by weight, then lexicographic.
    """
    _check_count(weight, "weight")
    return _lyndon_multiset_table([enumerate_lyndon(w) for w in range(1, weight + 1)])[weight]


def _lyndon_multiset_table(generators: list[list[Composition]]) -> list[list[tuple[Composition, ...]]]:
    """Entry ``v``: the Lyndon multisets of weight ``v``, for ``v`` from 0 to
    ``len(generators)``, given the generators of weights 1, 2, ... in order.

    Each generator ``g`` extends every multiset of weight ``v - g.weight``;
    ``v`` rises, so ``g`` can repeat, and factors come in generator order.
    """
    top = len(generators)
    by_weight: list[list[tuple[Composition, ...]]] = [[()]] + [[] for _ in range(top)]
    for g in (g for listed in generators for g in listed):
        for v in range(g.weight, top + 1):
            by_weight[v].extend(m + (g,) for m in by_weight[v - g.weight])
    return by_weight


def lyndon_generation_matrix(weight: int) -> list[list[Fraction]]:
    """Rows: products over each Lyndon multiset of weight ``weight``;
    columns: compositions of that weight, in lexicographic order."""
    from fractions import Fraction

    columns = enumerate_compositions(weight)
    rows: list[list[Fraction]] = []
    for multiset in lyndon_monomial_multisets(weight):
        terms = prod(map(QSymElement.monomial, multiset), start=QSymElement.one())._terms
        rows.append([Fraction(terms.get(comp, 0)) for comp in columns])
    return rows


def _shuffle_lead(state: tuple[tuple[int, ...], ...], memo: dict) -> tuple[tuple[int, ...], int]:
    """The lex-largest shuffle of the sorted nonempty int tuples in ``state``,
    and how many interleavings of them, equal words counted apart, give it."""
    if not state:
        return (), 1
    found = memo.get(state)
    if found is None:
        head, best, count = state[-1][0], (), 0  # sorted: the largest head is last
        for word in {word for word in state if word[0] == head}:
            rest = list(state)
            rest.remove(word)
            if len(word) > 1:
                insort(rest, word[1:])
            tail, times = _shuffle_lead(tuple(rest), memo)
            if tail > best:
                best, count = tail, 0
            if tail == best:
                count += state.count(word) * times
        found = memo[state] = ((head, *best), count)
    return found


def verify_lyndon_free_generation(weight: int) -> tuple[int, int, int]:
    """Certify that Lyndon monomials of one weight form a rational basis.

    Returns ``(dimension, multiset_count, rank)``: the dimension of the
    graded piece, the number of Lyndon monomials of that weight, and a
    certified lower bound on the rank of the matrix expressing those
    monomials in the basis.  Free polynomial generation at this weight holds
    when all three agree, as theory says (Radford, J. Algebra 58, 1979;
    Hoffman, J. Algebraic Combin. 11, 2000).

    A monomial counts toward ``rank`` when, factors in decreasing order, it
    leads under the (length, lex) order with their concatenation, with the
    product of the factorials of the multiplicities as coefficient, and no
    counted monomial shares that lead (Chen, Fox and Lyndon, Ann. of Math.
    68, 1958).  Counted monomials have distinct nonzero leading terms, so
    they are independent.  A merge shortens a word, so a product's longest
    terms are the shuffles of its factors, none cancelling: the lead is the
    lex-largest shuffle, and no product is built.
    """
    _check_count(weight, "weight", positive=True)
    return _certify_lyndon_free(weight, lyndon_monomial_multisets(weight))[:3]


def _certify_lyndon_free(
    weight: int, multisets: list[tuple[Composition, ...]]
) -> tuple[int, int, int, tuple[Composition, ...] | None]:
    """:func:`verify_lyndon_free_generation` on the given Lyndon multisets,
    and the first multiset not counted toward the rank (None if none)."""
    memo: dict = {}  # lives for this call, shared by one weight's multisets
    leads: set[tuple[int, ...]] = set()  # one per counted multiset
    uncounted = None
    for multiset in multisets:
        lead, coeff = _shuffle_lead(tuple(sorted(map(tuple, multiset))), memo)
        concatenation = tuple(part for comp in sorted(multiset, reverse=True) for part in comp)
        if (
            lead == concatenation
            and coeff == prod(map(factorial, Counter(multiset).values()))
            and lead not in leads
        ):
            leads.add(lead)
        elif uncounted is None:
            uncounted = multiset
    return 2 ** (weight - 1), len(multisets), len(leads), uncounted
