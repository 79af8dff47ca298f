"""Named batches of exhaustive structural checks.

Each suite sweeps every basis element (or pair) up to a weight bound and
returns one :class:`Check` per property.  The bounds are arguments so the
command line can push them higher; at the defaults no suite takes more than a
few tens of milliseconds, and each covers all compositions of the stated weights.

Every swept check runs through :func:`_sweep`, over one table of rows per
suite, built once: a row carries what its checks share (``M_c``, ``D M_c``,
``S M_c``, an involution image), and each pair check builds its symmetric
side once per unordered pair, as the ``shared`` value of :func:`_pairs`.
The number in a detail is the number of cases swept; a failure names the
first failing case and counts the rest ("failed at ([], [1]) and 7 more").
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .algebra import (
    QSymElement,
    TensorElement,
    contract_product,
    coproduct_first,
    coproduct_second,
    counit_first,
    counit_second,
    map_slot,
)
from .chow import (
    BetaElement,
    deep_stratum_class,
    gluing_matches_coproduct,
    gluing_pullback,
    marked_point_involution,
    truncate_tensor,
)
from .compositions import (
    Composition, _check_count, enumerate_compositions, enumerate_lyndon, lyndon_count
)
from .expansion import (
    _certify_lyndon_free,
    _lyndon_multiset_table,
    _packed_product,
    expand,
    face_map,
    from_polynomial,
)
from .syntax import format_beta, format_composition


class Check(NamedTuple):
    """One verified property: a name, a verdict, and a human-readable detail."""

    name: str
    passed: bool
    detail: str


def _basis(max_degree: int) -> list[tuple[Composition, QSymElement]]:
    comps = (comp for d in range(max_degree + 1) for comp in enumerate_compositions(d))
    return [(comp, QSymElement.monomial(comp)) for comp in comps]


def _pairs(basis: list[tuple[Composition, QSymElement]], shared: Callable) -> Iterator[tuple]:
    """``(a, b, M_a, M_b, shared(a, b, M_a, M_b))`` for pairs of total weight <= w.

    The 2**w rows of ``_basis(w)`` run by weight, 2**v of them of weight at
    most v, so the partners of ``a`` are the first ``len(basis) >> a.weight``,
    also in its first half ``_basis(w - 1)`` and in ``basis[1:]``.  ``shared``
    must be symmetric: each unordered pair, smaller index first, calls it once
    and is followed by its mirror ``(b, a, M_b, M_a)`` with the same value.
    """
    for i, (a, fa) in enumerate(basis):
        for b, fb in basis[i : len(basis) >> a.weight]:
            value = shared(a, b, fa, fb)
            yield a, b, fa, fb, value
            if b is not a:
                yield b, a, fb, fa, value


_pair_label = "({}, {})".format


def _sweep(
    name: str,
    cases: Iterable[tuple],
    holds: Callable[..., bool],
    detail: str,
    label: Callable[..., str] = "{}".format,
) -> Check:
    """Check ``holds(*case)`` on every case, counting the cases.

    A pass reports ``detail.format(count)``; a failure names the first failing
    case by ``label(*case)`` and counts the rest.  A ``str.format`` label ignores
    trailing entries only ``holds`` needs, so the default names a ``(c, M_c)``
    row by ``c``; ``zip(items)`` gives one-entry cases.
    """
    count = failed = 0
    first = ""
    for case in cases:
        count += 1
        if not holds(*case):
            failed += 1
            if failed == 1:
                first = label(*case)
    if not failed:
        return Check(name, True, detail.format(count))
    return Check(name, False, f"failed at {first}" + (f" and {failed - 1} more" if failed > 1 else ""))


def hopf_checks(max_degree: int = 6) -> list[Check]:
    """Coassociativity, counit, bialgebra, antipode, and involutivity sweeps."""
    basis = _basis(max_degree)
    rows = [(comp, f, f.coproduct(), f.antipode()) for comp, f in basis]
    coproducts = {comp: delta for comp, f, delta, s in rows}
    antipodes = {f: s for comp, f, delta, s in rows}  # every cut of a row's c is a row

    def coassociative(comp, f, delta, s):
        return coproduct_first(delta) == coproduct_second(delta)

    def counital(comp, f, delta, s):
        return counit_first(delta) == f and counit_second(delta) == f

    def bialgebra(a, b, fa, fb, coproduct_product):
        product = fa * fb
        return product.coproduct() == coproduct_product and product.counit() == fa.counit() * fb.counit()

    def antipodal(comp, f, delta, s):
        unit_part = QSymElement.from_int(f.counit())
        return all(contract_product(map_slot(delta, slot, antipodes.__getitem__)) == unit_part
                   for slot in (0, 1))

    return [
        _sweep("coassociativity", rows, coassociative,
               f"(D x id)D = (id x D)D on all {{}} basis elements through weight {max_degree}"),
        _sweep("counit", rows, counital,
               "both counit contractions of D restore all {} basis elements"),
        _sweep("bialgebra", _pairs(basis, lambda a, b, fa, fb: coproducts[a] * coproducts[b]),
               bialgebra,
               f"D and the counit are ring maps on {{}} basis pairs with total weight <= {max_degree}",
               _pair_label),
        _sweep("antipode", rows, antipodal,
               "m(S x id)D = m(id x S)D = unit.counit on all {} basis elements"),
        _sweep("antipode-squared", rows, lambda comp, f, delta, s: s.antipode() == f,
               "S.S = id on all {} basis elements (commutative case)"),
    ]


def oracle_checks(max_degree: int = 7) -> list[Check]:
    """The quasi-shuffle kernel against honest polynomial multiplication.

    ``product-expansion`` compares the terms of ``M_a * M_b`` with the packed
    coefficients of the product of the expansions in ``n = len(a) + len(b)``
    variables, those of the monomials ``x1^c1...xl^cl`` with every c_i > 0.
    A quasisymmetric polynomial in n variables is fixed by them: the packed
    coefficient at c is the coefficient of M_c, for every c with
    len(c) <= n.  The true product lies in that span.  A computed term
    longer than n, or of the wrong weight, has no packed coefficient to
    match, so it fails the comparison itself.  The packed coefficients are
    read from the two basis placements: no polynomial is built.
    ``expansion-round-trip`` reads each expansion back once, by
    :func:`from_polynomial`, whose pass over the terms decides
    quasisymmetry; a refused read-back fails the case.
    """
    basis = _basis(max_degree)

    def round_trips(comp, f):
        poly = expand(f, max(comp.weight, 1))
        try:
            return from_polynomial(poly) == f
        except ValueError:
            return False

    return [
        _sweep("product-expansion", _pairs(basis[1:], lambda a, b, fa, fb: _packed_product(a, b)),
               lambda a, b, fa, fb, packed: (fa * fb)._terms == packed,
               "expanding the product matches multiplying expansions on {} pairs"
               f" with total weight <= {max_degree}",
               _pair_label),
        _sweep("expansion-round-trip", basis, round_trips,
               "expansions are quasisymmetric and read back exactly for all {} basis elements"),
    ]


def limit_checks(max_degree: int = 5) -> list[Check]:
    """Coherence of the finite-variable expansions under variable killing.

    Each basis element's expansions E_n in 0..max_degree + 1 variables, and
    its faces faces[n][kept] of E_n for n <= max_degree, are built once into
    tables that every check reads; a face equal to E_|kept| is held as that
    entry.  face_map reads only its argument's value, so where faces[max_degree]
    is E_|outer| at outer, mapping it by inner gives faces[|outer|][inner]:
    that case reads its face from the table, and any pure face_map gets the
    verdict, first failure and count of mapping each case.
    """
    degrees = range(max_degree + 1)
    # (n, slot, the variables of n + 1 that survive killing slot), shared by every composition
    slots = [(n, slot, tuple(p for p in range(1, n + 2) if p != slot))
             for n in degrees for slot in range(1, n + 2)]
    # subsets[n]: the increasing selections from n variables, by size, then lex
    subsets = [[kept for m in range(n + 1) for kept in combinations(range(1, n + 1), m)]
               for n in degrees]
    # (outer, inner, the selection of inner within outer), shared by every composition
    selections = [(outer, inner, tuple(outer[i - 1] for i in inner))
                  for outer in subsets[max_degree] for inner in subsets[len(outer)]]

    def restricted(table, n, kept):  # E_n on the kept variables, held as E_|kept| itself where equal
        face = face_map(table[n], kept)
        return table[len(kept)] if face == table[len(kept)] else face

    rows = [(comp, table, [{kept: restricted(table, n, kept) for kept in subsets[n]} for n in degrees])
            for comp, f in _basis(max_degree) for table in [[expand(f, n) for n in range(max_degree + 2)]]]
    insertions = ((comp, n, slot, table[n], faces[n + 1][survivors] if n < max_degree
                   else restricted(table, n + 1, survivors))
                  for comp, table, faces in rows for n, slot, survivors in slots)
    restrictions = ((comp, kept, table[len(kept)], face)
                    for comp, table, faces in rows for row in faces for kept, face in row.items())

    def composed_restrictions():
        for comp, table, faces in rows:
            for outer, inner, composed in selections:
                selected = faces[-1][outer]
                face = faces[len(outer)][inner] if selected is table[len(outer)] else face_map(selected, inner)
                yield comp, outer, inner, face, faces[-1][composed]

    return [
        _sweep("zero-insertion", insertions,
               lambda comp, n, slot, expected, face: face == expected,
               "killing any one variable restores the smaller expansion ({} cases)",
               "({}, n={}, slot={})".format),
        _sweep("restriction", restrictions,
               lambda comp, kept, expected, face: face == expected,
               "keeping any increasing set of variables restores the smaller expansion ({} cases)",
               "({}, keep={})".format),
        _sweep("restriction-composition", composed_restrictions(),
               lambda comp, outer, inner, face, expected: face is expected or face == expected,
               "composing variable selections agrees with selecting once ({} cases)",
               "({}, {}, {})".format),
    ]


def mu_checks(max_degree: int = 6) -> list[Check]:
    """The gluing pullback against the deconcatenation coproduct."""
    basis = _basis(max_degree)

    def truncated_products(a, b, fa, fb):  # psi(M_a) psi(M_b) into each (n1, n2) square
        cuts = [(n1, a.weight + b.weight - n1) for n1 in range(a.weight + b.weight + 1)]
        return [truncate_tensor(gluing_pullback(fa, *cut) * gluing_pullback(fb, *cut), cut)
                for cut in cuts]

    def splits():  # total weight <= max_degree - 1
        for a, b, fa, fb, truncated in _pairs(basis[: len(basis) // 2], truncated_products):
            product, total = fa * fb, a.weight + b.weight
            for n1, expected in enumerate(truncated):
                yield a, b, n1, total - n1, product, expected

    def stratum_splits(d):
        return deep_stratum_class(d).coproduct() == TensorElement(2, {
            (Composition([1] * i), Composition([1] * (d - i))): 1 for i in range(d + 1)
        })

    return [
        _sweep("gluing-coproduct", basis,
               lambda comp, f: gluing_matches_coproduct(f),
               f"gluing pullbacks assemble into D on all {{}} basis elements through weight {max_degree}"),
        _sweep("gluing-multiplicative", splits(),
               lambda a, b, n1, n2, product, expected: gluing_pullback(product, n1, n2) == expected,
               "the pullback is a ring map into each truncated tensor square ({} cases)",
               "({}, {}, {}+{})".format),
        _sweep("deep-stratum", zip(range(max_degree + 1)), stratum_splits,
               f"the deepest stratum splits over all chain cuts, depths 0..{max_degree}",
               "depth {}".format),
    ]


def tau_checks(max_degree: int = 5) -> list[Check]:
    """The index-reversal and marked-point involutions."""
    basis = _basis(max_degree)

    def reversal_involutive(comp, f):
        return f.reverse_indices().reverse_indices() == f

    def reversal_twists(f):
        reverse = QSymElement.reverse_indices
        return map_slot(map_slot(f.coproduct(), 0, reverse), 1, reverse) != reverse(f).coproduct()

    witness = next((comp for comp, f in _basis(3) if reversal_twists(f)), None)
    # one row per generator b^k M_c: (the generator, its image, its degree k + |c|, c)
    rows = [(g, marked_point_involution(g), k + comp.weight, comp)
            for comp, f in basis for k in range(max_degree + 1 - comp.weight)
            for g in [BetaElement({k: f})]]

    def involutive(g, image, degree, comp):
        # beta -> M_[1] - beta alone is a ring involution too: pin the reversal on each M_c
        return (marked_point_involution(image) == g and image.total_degree() == degree
                and (degree > comp.weight
                     or image == BetaElement({0: QSymElement.monomial(comp[::-1])})))

    generator_pairs = (
        (g, h, image_g, image_h)
        for i, (g, image_g, degree_g, _) in enumerate(rows)
        for h, image_h, degree_h, _ in islice(rows, i, None)
        if degree_g + degree_h <= max_degree
    )
    beta_image = marked_point_involution(BetaElement.beta())
    expected = BetaElement({1: QSymElement.from_int(-1), 0: QSymElement.monomial([1])})

    return [
        _sweep("reversal-involution", basis, reversal_involutive,
               "index reversal squares to the identity on all {} basis elements"),
        _sweep("reversal-multiplicative",
               _pairs(basis, lambda a, b, fa, fb: fa.reverse_indices() * fb.reverse_indices()),
               lambda a, b, fa, fb, product: (fa * fb).reverse_indices() == product,
               "index reversal is a ring map on {} basis pairs", _pair_label),
        Check("reversal-twists-coproduct", witness is not None,
              f"index reversal is not a coalgebra map; witness {witness}" if witness is not None
              else "no witness found through weight 3"),
        _sweep("involution-squared", rows, involutive,
               "the marked-point involution squares to the identity and preserves degree"
               " on {} generators",
               lambda g, *row: format_beta(g)),
        _sweep("involution-multiplicative", generator_pairs,
               lambda g, h, image_g, image_h: marked_point_involution(g * h) == image_g * image_h,
               "the marked-point involution is a ring map on {} generator pairs",
               lambda g, h, image_g, image_h: _pair_label(format_beta(g), format_beta(h))),
        Check("involution-of-beta", beta_image == expected,
              "beta maps to -b + [1]" if beta_image == expected else "beta image is wrong"),
    ]


def lyndon_free_checks(max_degree: int = 6) -> list[Check]:
    """Products of Lyndon-indexed elements as rational graded bases.

    Each weight is certified by the leading terms of the products, read from
    the longest shuffle terms with no product built: they must be distinct
    concatenations of the factors in decreasing order (Radford 1979, Hoffman
    2000, Chen-Fox-Lyndon 1958).  A failing weight names the first multiset
    whose lead fails.  See :func:`qsym.expansion.verify_lyndon_free_generation`.
    """
    generators = [enumerate_lyndon(n) for n in range(1, max_degree + 1)]
    multisets = _lyndon_multiset_table(generators)  # one table for every weight
    checks: list[Check] = []
    for weight in range(1, max_degree + 1):
        dimension, count, rank, uncounted = _certify_lyndon_free(weight, multisets[weight])
        detail = f"dimension {dimension}, Lyndon monomials {count}, rank {rank}"
        if uncounted is not None:
            detail += f"; uncertified at [{', '.join(map(format_composition, uncounted))}]"
        checks.append(Check(f"free-generation-weight-{weight}", dimension == count == rank, detail))
    generator_counts = list(map(len, generators))
    expected_counts = [lyndon_count(n) for n in range(1, max_degree + 1)]
    checks.append(Check(
        "generator-count",
        generator_counts == expected_counts,
        f"generator counts by weight: {generator_counts}",
    ))
    return checks


SUITES: dict[str, Callable[..., list[Check]]] = {
    "hopf": hopf_checks,
    "oracle": oracle_checks,
    "limit": limit_checks,
    "mu": mu_checks,
    "tau": tau_checks,
    "lyndon-free": lyndon_free_checks,
}

# Each suite's default bound: ``max_degree`` is every suite's only parameter.
DEFAULT_DEGREES: dict[str, int] = {name: suite.__defaults__[0] for name, suite in SUITES.items()}


def run_suite(name: str, max_degree: int | None = None) -> list[Check]:
    """Run one named suite, at its default bound unless overridden."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_degree is None:
        max_degree = DEFAULT_DEGREES[name]
    _check_count(max_degree, "max degree")
    return SUITES[name](max_degree)


def run_all(max_degree: int | None = None) -> dict[str, list[Check]]:
    """Run every suite and return the checks grouped by suite name."""
    return {name: run_suite(name, max_degree) for name in SUITES}
