"""Named batches of exhaustive structural checks.

Each suite sweeps every basis element (or pair) up to a weight bound and
returns one :class:`Check` per property.  The bounds are arguments so the
command line can push them higher; the defaults keep every suite under a few
seconds while still covering all compositions of the stated weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

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
from .compositions import Composition, enumerate_compositions, enumerate_lyndon, lyndon_count
from .expansion import (
    expand,
    face_map,
    from_polynomial,
    is_quasisymmetric,
    verify_lyndon_free_generation,
    zero_insertion_holds,
)


@dataclass(frozen=True)
class Check:
    """One verified property: a name, a verdict, and a human-readable detail."""

    name: str
    passed: bool
    detail: str


def _basis(max_degree: int) -> list[Composition]:
    out: list[Composition] = []
    for d in range(max_degree + 1):
        out.extend(enumerate_compositions(d))
    return out


def _pairs(max_total: int) -> list[tuple[Composition, Composition]]:
    basis = _basis(max_total)
    return [(a, b) for a in basis for b in basis if a.weight + b.weight <= max_total]


def _verdict(name: str, failures: list[str], detail: str) -> Check:
    if failures:
        return Check(name, False, f"failed at {failures[0]}" + (
            f" and {len(failures) - 1} more" if len(failures) > 1 else ""
        ))
    return Check(name, True, detail)


def hopf_checks(max_degree: int = 6) -> list[Check]:
    """Coassociativity, counit, bialgebra, antipode, and involutivity sweeps."""
    basis = _basis(max_degree)
    checks: list[Check] = []

    failures = []
    for comp in basis:
        delta = QSymElement.monomial(comp).coproduct()
        if coproduct_first(delta) != coproduct_second(delta):
            failures.append(str(comp))
    checks.append(_verdict(
        "coassociativity",
        failures,
        f"(D x id)D = (id x D)D on all {len(basis)} basis elements through weight {max_degree}",
    ))

    failures = []
    for comp in basis:
        f = QSymElement.monomial(comp)
        delta = f.coproduct()
        if counit_first(delta) != f or counit_second(delta) != f:
            failures.append(str(comp))
    checks.append(_verdict(
        "counit",
        failures,
        f"both counit contractions of D restore all {len(basis)} basis elements",
    ))

    pairs = _pairs(max_degree)
    failures = []
    for a, b in pairs:
        fa, fb = QSymElement.monomial(a), QSymElement.monomial(b)
        product = fa * fb
        if product.coproduct() != fa.coproduct() * fb.coproduct():
            failures.append(f"({a}, {b})")
        if product.counit() != fa.counit() * fb.counit():
            failures.append(f"({a}, {b})")
    checks.append(_verdict(
        "bialgebra",
        failures,
        f"D and the counit are ring maps on {len(pairs)} basis pairs with total weight <= {max_degree}",
    ))

    failures = []
    for comp in basis:
        f = QSymElement.monomial(comp)
        delta = f.coproduct()
        unit_part = QSymElement.from_int(f.counit())
        left = contract_product(map_slot(delta, 0, QSymElement.antipode))
        right = contract_product(map_slot(delta, 1, QSymElement.antipode))
        if left != unit_part or right != unit_part:
            failures.append(str(comp))
    checks.append(_verdict(
        "antipode",
        failures,
        f"m(S x id)D = m(id x S)D = unit.counit on all {len(basis)} basis elements",
    ))

    failures = []
    for comp in basis:
        f = QSymElement.monomial(comp)
        if f.antipode().antipode() != f:
            failures.append(str(comp))
    checks.append(_verdict(
        "antipode-squared",
        failures,
        f"S.S = id on all {len(basis)} basis elements (commutative case)",
    ))

    return checks


def oracle_checks(max_degree: int = 7) -> list[Check]:
    """The quasi-shuffle recursion against honest polynomial multiplication."""
    checks: list[Check] = []

    pairs = [(a, b) for a, b in _pairs(max_degree) if len(a) and len(b)]
    failures = []
    for a, b in pairs:
        n = a.weight + b.weight
        fa, fb = QSymElement.monomial(a), QSymElement.monomial(b)
        if expand(fa * fb, n) != expand(fa, n) * expand(fb, n):
            failures.append(f"({a}, {b})")
    checks.append(_verdict(
        "product-expansion",
        failures,
        f"expanding the product matches multiplying expansions on {len(pairs)} pairs with total weight <= {max_degree}",
    ))

    basis = _basis(max_degree)
    failures = []
    for comp in basis:
        f = QSymElement.monomial(comp)
        poly = expand(f, max(comp.weight, 1))
        if not is_quasisymmetric(poly):
            failures.append(str(comp))
        elif from_polynomial(poly) != f:
            failures.append(str(comp))
    checks.append(_verdict(
        "expansion-round-trip",
        failures,
        f"expansions are quasisymmetric and read back exactly for all {len(basis)} basis elements",
    ))

    return checks


def limit_checks(max_degree: int = 5) -> list[Check]:
    """Coherence of the finite-variable expansions under variable killing."""
    basis = _basis(max_degree)
    checks: list[Check] = []

    failures = []
    count = 0
    for comp in basis:
        f = QSymElement.monomial(comp)
        for n in range(max_degree + 1):
            for slot in range(1, n + 2):
                count += 1
                if not zero_insertion_holds(f, n, slot):
                    failures.append(f"({comp}, n={n}, slot={slot})")
    checks.append(_verdict(
        "zero-insertion",
        failures,
        f"killing any one variable restores the smaller expansion ({count} cases)",
    ))

    failures = []
    count = 0
    for comp in basis:
        f = QSymElement.monomial(comp)
        expansions = [expand(f, n) for n in range(max_degree + 1)]
        for n, poly in enumerate(expansions):
            for m in range(n + 1):
                for chosen in combinations(range(1, n + 1), m):
                    count += 1
                    if face_map(poly, chosen) != expansions[m]:
                        failures.append(f"({comp}, keep={chosen})")
    checks.append(_verdict(
        "restriction",
        failures,
        f"keeping any increasing set of variables restores the smaller expansion ({count} cases)",
    ))

    failures = []
    count = 0
    for comp in basis:
        poly = expand(QSymElement.monomial(comp), max_degree)
        selected = {
            kept: face_map(poly, kept)
            for m in range(max_degree + 1)
            for kept in combinations(range(1, max_degree + 1), m)
        }
        for outer, inner_poly in selected.items():
            m = len(outer)
            for k in range(m + 1):
                for inner in combinations(range(1, m + 1), k):
                    count += 1
                    composed = tuple(outer[i - 1] for i in inner)
                    if face_map(inner_poly, inner) != selected[composed]:
                        failures.append(f"({comp}, {outer}, {inner})")
    checks.append(_verdict(
        "restriction-composition",
        failures,
        f"composing variable selections agrees with selecting once ({count} cases)",
    ))

    return checks


def mu_checks(max_degree: int = 6) -> list[Check]:
    """The gluing pullback against the deconcatenation coproduct."""
    basis = _basis(max_degree)
    checks: list[Check] = []

    failures = []
    for comp in basis:
        if not gluing_matches_coproduct(QSymElement.monomial(comp)):
            failures.append(str(comp))
    checks.append(_verdict(
        "gluing-coproduct",
        failures,
        f"gluing pullbacks assemble into D on all {len(basis)} basis elements through weight {max_degree}",
    ))

    pairs = [(a, b) for a, b in _pairs(max_degree - 1)]
    failures = []
    count = 0
    for a, b in pairs:
        fa, fb = QSymElement.monomial(a), QSymElement.monomial(b)
        total = a.weight + b.weight
        for n1 in range(total + 1):
            n2 = total - n1
            count += 1
            lhs = gluing_pullback(fa * fb, n1, n2)
            rhs = truncate_tensor(
                gluing_pullback(fa, n1, n2) * gluing_pullback(fb, n1, n2), (n1, n2)
            )
            if lhs != rhs:
                failures.append(f"({a}, {b}, {n1}+{n2})")
    checks.append(_verdict(
        "gluing-multiplicative",
        failures,
        f"the pullback is a ring map into each truncated tensor square ({count} cases)",
    ))

    failures = []
    for d in range(max_degree + 1):
        stratum = deep_stratum_class(d)
        expected = TensorElement(2, {
            (Composition([1] * i), Composition([1] * (d - i))): 1 for i in range(d + 1)
        })
        if stratum.coproduct() != expected:
            failures.append(f"depth {d}")
    checks.append(_verdict(
        "deep-stratum",
        failures,
        f"the deepest stratum splits over all chain cuts, depths 0..{max_degree}",
    ))

    return checks


def tau_checks(max_degree: int = 5) -> list[Check]:
    """The index-reversal and marked-point involutions."""
    basis = _basis(max_degree)
    checks: list[Check] = []

    failures = []
    for comp in basis:
        f = QSymElement.monomial(comp)
        if f.reverse_indices().reverse_indices() != f:
            failures.append(str(comp))
    checks.append(_verdict(
        "reversal-involution",
        failures,
        f"index reversal squares to the identity on all {len(basis)} basis elements",
    ))

    pairs = _pairs(max_degree)
    failures = []
    for a, b in pairs:
        fa, fb = QSymElement.monomial(a), QSymElement.monomial(b)
        if (fa * fb).reverse_indices() != fa.reverse_indices() * fb.reverse_indices():
            failures.append(f"({a}, {b})")
    checks.append(_verdict(
        "reversal-multiplicative",
        failures,
        f"index reversal is a ring map on {len(pairs)} basis pairs",
    ))

    witness = None
    for comp in _basis(3):
        f = QSymElement.monomial(comp)
        reversed_slotwise = map_slot(
            map_slot(f.coproduct(), 0, QSymElement.reverse_indices),
            1,
            QSymElement.reverse_indices,
        )
        if reversed_slotwise != f.reverse_indices().coproduct():
            witness = comp
            break
    checks.append(Check(
        "reversal-twists-coproduct",
        witness is not None,
        f"index reversal is not a coalgebra map; witness {witness}"
        if witness is not None
        else "no witness found through weight 3",
    ))

    generators: list[BetaElement] = []
    for comp in basis:
        for k in range(max_degree + 1 - comp.weight):
            generators.append(
                BetaElement({k: QSymElement.monomial(comp)})
            )

    failures = []
    for g in generators:
        image = marked_point_involution(g)
        if marked_point_involution(image) != g:
            failures.append(str(g))
        elif image.total_degree() != g.total_degree():
            failures.append(str(g))
    checks.append(_verdict(
        "involution-squared",
        failures,
        f"the marked-point involution squares to the identity and preserves degree on {len(generators)} generators",
    ))

    failures = []
    count = 0
    for i, g in enumerate(generators):
        for h in generators[i:]:
            if g.total_degree() + h.total_degree() > max_degree:
                continue
            count += 1
            if marked_point_involution(g * h) != marked_point_involution(g) * marked_point_involution(h):
                failures.append(f"({g}, {h})")
    checks.append(_verdict(
        "involution-multiplicative",
        failures,
        f"the marked-point involution is a ring map on {count} generator pairs",
    ))

    beta_image = marked_point_involution(BetaElement.beta())
    expected = BetaElement({1: QSymElement.from_int(-1), 0: QSymElement.monomial([1])})
    checks.append(Check(
        "involution-of-beta",
        beta_image == expected,
        "beta maps to -b + [1]" if beta_image == expected else "beta image is wrong",
    ))

    return checks


def lyndon_free_checks(max_degree: int = 6) -> list[Check]:
    """Products of Lyndon-indexed elements as rational graded bases.

    Each weight is certified by the leading terms of the products, which
    must be distinct concatenations of the factors in decreasing order;
    the rank falls back to exact ``Fraction`` elimination only if they are
    not.  See :func:`qsym.expansion.verify_lyndon_free_generation`.
    """
    checks: list[Check] = []
    for weight in range(1, max_degree + 1):
        dimension, count, rank = verify_lyndon_free_generation(weight)
        passed = dimension == count == rank
        checks.append(Check(
            f"free-generation-weight-{weight}",
            passed,
            f"dimension {dimension}, Lyndon monomials {count}, rank {rank}",
        ))
    generator_counts = [len(enumerate_lyndon(n)) for n in range(1, max_degree + 1)]
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

DEFAULT_DEGREES: dict[str, int] = {
    "hopf": 6,
    "oracle": 7,
    "limit": 5,
    "mu": 6,
    "tau": 5,
    "lyndon-free": 6,
}


def run_suite(name: str, max_degree: int | None = None) -> list[Check]:
    """Run one named suite, at its default bound unless overridden."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_degree is None:
        max_degree = DEFAULT_DEGREES[name]
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {max_degree}")
    return SUITES[name](max_degree)


def run_all(max_degree: int | None = None) -> dict[str, list[Check]]:
    """Run every suite and return the checks grouped by suite name."""
    return {name: run_suite(name, max_degree) for name in SUITES}
