"""Compositions: ordered tuples of positive integers.

Compositions index the monomial basis of the quasisymmetric function ring.
This module provides the combinatorics layer: ordering, concatenation,
reversal, coarsening, Lyndon testing, enumeration, and counting.
:class:`Composition` is the public, validating type; the package cuts and
coarsens plain int tuples with :func:`_splits` and :func:`_coarsenings`,
which the methods of those names wrap.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable


def _is_int(value) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_count(value, what: str, positive: bool = False) -> int:
    """``value``, checked to be an int and at least 1 (``positive``) or 0."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < positive:
        raise ValueError(f"{what} must be {'positive' if positive else 'nonnegative'}, got {value}")
    return value


class Composition(tuple):
    """An immutable tuple of positive integers, possibly empty.

    The weight is the sum of the parts, the length the number of parts.
    Equality, hashing and ordering are those of the underlying tuple, so a
    composition equals the plain tuple of its parts and orders as it does:
    the first differing part decides, and a proper prefix comes first.  Tuple
    operators act on the parts: ``c + c`` is a plain tuple and ``2 * c``
    repeats the parts; use :meth:`concat`.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        try:
            return tuple.__new__(cls, parts)
        except TypeError as error:
            raise ValueError(f"composition {parts!r} is malformed: {error}") from None

    def __init__(self, parts: Iterable[int] = ()):
        if isinstance(parts, Composition):
            return
        for p in self:
            if not _is_int(p) or p < 1:
                raise ValueError(f"composition parts must be positive integers, got {p!r}")

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition({list(self)})"

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"

    def concat(self, other: "Composition") -> "Composition":
        """The parts of ``self`` followed by the parts of ``other``."""
        return _composition(self + Composition(other))

    def reverse(self) -> "Composition":
        """Parts in reversed order."""
        return _composition(self[::-1])

    def is_lyndon(self) -> bool:
        """True iff nonempty and strictly smaller than each proper nonempty suffix."""
        return len(self) > 0 and all(self[k:] > self for k in range(1, len(self)))

    def coarsenings(self) -> list["Composition"]:
        """All compositions obtained by summing groups of consecutive parts, in lex order."""
        return list(map(_composition, _coarsenings(self)))

    def splits(self) -> list[tuple["Composition", "Composition"]]:
        """All ways to cut into a prefix and a suffix, len+1 in total."""
        return [(_composition(p), _composition(s)) for p, s in _splits(self)]


# A composition from parts already known to be positive integers, without the
# validation of :class:`Composition`: wraps keys the package built.
_composition = partial(tuple.__new__, Composition)


def _splits(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The len+1 cuts of ``parts`` into a prefix and a suffix, as plain tuples."""
    return [(parts[:k], parts[k:]) for k in range(len(parts) + 1)]


def _coarsenings(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The 2**(len-1) sums of groups of consecutive parts (just ``()`` for
    ``()``), as plain tuples.  They share one weight, so lex order is the
    canonical order, and they are built in it: a wider first group gives a
    larger first part."""
    n = len(parts)
    # tails[i]: the coarsenings of parts[i:], in lex order
    tails: list[list[tuple[int, ...]]] = [[()]] * (n + 1)
    for i in range(n - 1, -1, -1):
        first, out = 0, []
        for k in range(i, n):
            first += parts[k]
            out.extend([(first,) + tail for tail in tails[k + 1]])
        tails[i] = out
    return tails[0]


def enumerate_compositions(n: int) -> list[Composition]:
    """All compositions of weight ``n`` in lexicographic order.

    These are the coarsenings of n parts equal to 1: 2**(n-1) of them for
    n >= 1, and only the empty one for n = 0.
    """
    _check_count(n, "weight")
    return list(map(_composition, _coarsenings((1,) * n)))


def enumerate_lyndon(n: int) -> list[Composition]:
    """All Lyndon compositions of weight ``n`` in lexicographic order."""
    _check_count(n, "weight", positive=True)
    return [c for c in enumerate_compositions(n) if c.is_lyndon()]


def mobius(d: int) -> int:
    """Number-theoretic Moebius function: 0 on non-squarefree d, else (-1)**#primes."""
    _check_count(d, "argument", positive=True)
    nprimes = 0
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            nprimes += 1
        p += 1
    if d > 1:
        nprimes += 1
    return -1 if nprimes % 2 else 1


def lyndon_count(n: int) -> int:
    """The number of Lyndon compositions of weight ``n``.

    Computed as (1/n) * sum over divisors d of n of mobius(d) * (2**(n/d) - 1).
    """
    _check_count(n, "weight", positive=True)
    total = sum(mobius(d) * (2 ** (n // d) - 1) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n
