"""Ring models for moduli of pointed genus-zero curves.

The stable parts of the moduli spaces with one or two marked points have
Chow rings assembled from quasisymmetric functions: the two-point tower is
modelled by the basis truncations of :mod:`qsym.algebra`, gluing two curves
along marked points pulls classes back through the deconcatenation coproduct,
and the one-point tower extends the ring by a class ``beta`` carrying an
involution that swaps the roles of the two marked points upstairs.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import Iterable, Mapping

from .algebra import QSymElement, TensorElement, _Sparse
from .compositions import _check_count, _is_int
from .expansion import _basis_expansion, expand


def truncate_tensor(element: TensorElement, bounds: tuple[int, ...]) -> TensorElement:
    """Drop tensor terms whose factor in slot ``i`` is longer than ``bounds[i]``.

    Models the finite-variable quotients applied slotwise.
    """
    try:
        bounds = tuple(bounds)
    except TypeError as error:
        raise ValueError(f"length bounds {bounds!r} are malformed: {error}") from None
    if len(bounds) != element.arity:
        raise ValueError(
            f"expected {element.arity} length bounds, got {len(bounds)}"
        )
    if not all(_is_int(b) and b >= 0 for b in bounds):
        raise ValueError(f"length bounds must be nonnegative integers, got {bounds!r}")
    terms = element._terms
    if element.arity == 3:  # the third slot first; every arity shares the filter below
        third = bounds[2]
        terms = {key: coeff for key, coeff in terms.items() if len(key[2]) <= third}
    first, second = bounds[0], bounds[1]
    return element._wrap({
        key: coeff for key, coeff in terms.items() if len(key[0]) <= first and len(key[1]) <= second
    }, element.arity)


def gluing_pullback(element: QSymElement, n1: int, n2: int) -> TensorElement:
    """Pull a class back along the map gluing two curves at marked points.

    The target keeps ``n1`` variables in the first slot and ``n2`` in the
    second: each basis term splits over its prefix/suffix cuts, and a cut
    whose halves are too long for their slots dies in the quotient, so only
    the cuts that fit are built.  The pullback into ``(d, d)`` variables,
    ``d`` the degree, is the deconcatenation coproduct.
    """
    if not (_is_int(n1) and _is_int(n2)):
        raise ValueError(f"variable counts must be integers, got {n1!r}, {n2!r}")
    if n1 < 0 or n2 < 0:
        raise ValueError(f"variable counts must be nonnegative, got {n1}, {n2}")
    # A cut determines its composition, so no key is reached twice.
    return TensorElement._wrap({(comp[:k], comp[k:]): coeff for comp, coeff in element._terms.items()
                                for k in range(max(0, len(comp) - n2), min(len(comp), n1) + 1)}, 2)


def gluing_matches_coproduct(element: QSymElement) -> bool:
    """Whether the gluing pullbacks assemble into the coproduct as polynomials.

    The pullback into ``(d, d)`` variables, ``d`` the total weight, must be
    the coproduct.  For each split of ``d`` as ``n1 + n2``, the expansion in
    ``d`` ordered variables must be the sum, over the pullback's terms
    ``p (x) s``, of ``p`` expanded in the first ``n1`` variables times ``s`` in
    the last ``n2``; no two terms of that sum meet.  Expansion shares no code
    with the pullback, so a wrong, missing or extra term that fits fails.  A
    kept term too long for its slot has no placement there, so it fails the
    split: the pullback must drop it.
    """
    d = element.degree()
    if gluing_pullback(element, d, d) != element.coproduct():
        return False
    full = expand(element, d)._terms
    for n1 in range(d + 1):
        placed = {}
        for (p, s), coeff in gluing_pullback(element, n1, d - n1)._terms.items():
            lefts, rights = _basis_expansion(p, n1), _basis_expansion(s, d - n1)
            if not (lefts and rights):
                return False
            for left in lefts:
                for right in rights:
                    placed[left + right] = coeff
        if placed != full:
            return False
    return True


def deep_stratum_class(d: int) -> QSymElement:
    """The class of the smallest boundary stratum in ``d`` variables.

    A chain of ``d`` two-pointed rational curves: the basis element indexed
    by ``d`` parts equal to 1.
    """
    _check_count(d, "stratum depth")
    return QSymElement.monomial([1] * d)


class BetaElement(_Sparse):
    """A polynomial in one extra class ``beta`` with quasisymmetric coefficients.

    Models the Chow ring of the one-point tower: ``beta`` is the extra
    generator, and the coefficient of each power is an element of the
    two-point ring.  Immutable.  Integers and two-point elements lift to
    constant polynomials; terms run in descending beta power.
    """

    __slots__ = ()

    _SCALAR_KEY = 0
    _key = staticmethod(partial(_check_count, what="beta power"))

    def __init__(self, coeffs: Mapping[int, QSymElement] | None = None):
        self._store(None, coeffs)

    @staticmethod
    def _order(powers: Iterable[int]) -> list[int]:
        return sorted(powers, reverse=True)

    @staticmethod
    def _coefficient(value) -> QSymElement:
        return value if isinstance(value, QSymElement) else QSymElement.from_int(value)

    @classmethod
    def _lift(cls, other):
        scalar = QSymElement._lift(other)
        if scalar is not None:
            return cls._new({0: scalar})
        return super()._lift(other)

    @classmethod
    def zero(cls) -> "BetaElement":
        return cls()

    @classmethod
    def one(cls) -> "BetaElement":
        return cls({0: QSymElement.one()})

    @classmethod
    def beta(cls) -> "BetaElement":
        return cls({1: QSymElement.one()})

    @classmethod
    def from_qsym(cls, element: QSymElement) -> "BetaElement":
        return cls({0: element})

    def coefficient(self, power: int) -> QSymElement:
        if not _is_int(power):
            raise ValueError(f"beta power must be an integer, got {power!r}")
        return self._terms.get(power, QSymElement.zero())

    def beta_degree(self) -> int:
        """Largest beta power appearing; 0 for the zero element."""
        return max(self._terms, default=0)

    def total_degree(self) -> int:
        """Largest combined degree, counting beta with weight 1."""
        return max((power + value.degree() for power, value in self._terms.items()), default=0)

    def __repr__(self) -> str:
        from .syntax import format_beta

        return f"BetaElement({format_beta(self)!r})"

    def __mul__(self, other) -> "BetaElement":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        acc: dict[int, QSymElement] = {}
        for p1, v1 in self._terms.items():
            for p2, v2 in other._terms.items():
                power, value = p1 + p2, v1 * v2
                acc[power] = acc[power] + value if power in acc else value
        return self._new(acc)


def marked_point_involution(element: BetaElement) -> BetaElement:
    """The involution swapping the two marked points of the double cover.

    Reverses the indexing composition of each coefficient and substitutes
    ``-beta + M_[1]`` for ``beta``.  It is a ring involution: applying it
    twice is the identity, and it preserves total degree.  A term
    ``v * beta^k`` maps to ``v' * (M_[1] - beta)^k``, with ``v'`` the
    reversal, which the binomial theorem expands as the sum over ``j`` of
    ``(-1)^j * C(k, j) * v' * M_[1]^(k - j) * beta^j``.
    """
    step = QSymElement.monomial([1])
    acc: dict[int, QSymElement] = {}
    for power, value in element._terms.items():
        value = value.reverse_indices()  # v' * M_[1]^(power - j) at step j
        for j in range(power, -1, -1):
            term = value._scaled((-1) ** j * comb(power, j))
            acc[j] = acc[j] + term if j in acc else term
            if j:
                value = value * step
    return BetaElement._new(acc)
