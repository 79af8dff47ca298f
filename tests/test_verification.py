"""The check suites themselves, run at reduced bounds for speed."""

import inspect
from collections import Counter
from itertools import combinations, islice

import pytest

from qsym import algebra, chow, expansion, verification
from qsym.algebra import QSymElement, TensorElement
from qsym.chow import BetaElement, gluing_matches_coproduct
from qsym.compositions import enumerate_compositions, lyndon_count
from qsym.expansion import SparsePolynomial
from qsym.verification import DEFAULT_DEGREES, SUITES, Check, run_all, run_suite


class TestRegistry:
    def test_suite_names(self):
        assert set(SUITES) == {"hopf", "oracle", "limit", "mu", "tau", "lyndon-free"}
        assert set(DEFAULT_DEGREES) == set(SUITES)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            run_suite("hopf", -1)

    @pytest.mark.parametrize("degree", [True, 2.0, "3"])
    def test_non_int_degree_rejected(self, degree):
        with pytest.raises(ValueError, match=f"got {degree!r}$"):
            run_suite("hopf", degree)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_default_is_the_registered_default(self, name):
        default = inspect.signature(SUITES[name]).parameters["max_degree"].default
        assert default == DEFAULT_DEGREES[name]


def test_check_is_a_named_tuple_of_three_fields():
    check = run_suite("hopf", 1)[0]
    assert list(check._asdict()) == ["name", "passed", "detail"]
    name, passed, detail = check
    assert (name, passed, detail) == (check.name, True, check.detail) == tuple(check)


@pytest.mark.parametrize("name,degree", [
    ("hopf", 4),
    ("oracle", 4),
    ("limit", 3),
    ("mu", 4),
    ("tau", 3),
    ("lyndon-free", 4),
])
def test_suite_passes_at_reduced_degree(name, degree):
    checks = run_suite(name, degree)
    assert checks
    assert all(isinstance(c, Check) for c in checks)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_run_all_groups_by_suite():
    report = run_all(2)
    assert set(report) == set(SUITES)
    for checks in report.values():
        assert all(c.passed for c in checks)


@pytest.mark.parametrize("max_total", range(8))
def test_pairs_are_the_filtered_product_in_order(max_total):
    basis = verification._basis(max_total)
    assert all(f == QSymElement.monomial(c) for c, f in basis)
    index = {c: i for i, (c, _) in enumerate(basis)}
    # the whole basis, the first half that mu passes (weights up to max_total - 1)
    # and the nonempty rows that oracle passes
    for rows, bound in [(basis, max_total), (basis[: len(basis) // 2], max_total - 1),
                        (basis[1:], max_total)]:
        kept = [c for c, _ in rows]
        calls = []
        pairs = list(verification._pairs(rows, lambda *case: calls.append(case) or len(calls)))
        # as a multiset, the ordered pairs are the filtered product
        assert Counter((a, b) for a, b, *_ in pairs) == Counter(
            (a, b) for a in kept for b in kept if a.weight + b.weight <= bound)
        assert all(fa == QSymElement.monomial(a) and fb == QSymElement.monomial(b)
                   for a, b, fa, fb, _ in pairs)
        # shared runs once per unordered pair, the smaller index first, in order
        assert [(a, b) for a, b, _, _ in calls] == [
            (a, b) for a in kept for b in kept
            if index[a] <= index[b] and a.weight + b.weight <= bound]
        # each case of a call is followed by its mirror, unless it is its own
        cases = iter(pairs)
        for n, (a, b, fa, fb) in enumerate(calls, 1):
            assert next(cases) == (a, b, fa, fb, n)
            if a is not b:
                assert next(cases) == (b, a, fb, fa, n)
        assert next(cases, None) is None


def test_run_all_builds_each_basis_once_per_suite(monkeypatch):
    # one basis per sweeping suite, whose pairs read it too, plus tau's
    # weight-3 witness of the twisted coproduct
    bounds = []
    _patch(monkeypatch, "_basis", lambda k: lambda d: bounds.append(d) or k(d))
    run_all()
    sweeping = ("hopf", "oracle", "limit", "mu", "tau")
    assert bounds == [DEFAULT_DEGREES[name] for name in sweeping] + [3]


def test_hopf_takes_one_coproduct_per_basis_element(monkeypatch):
    # every check reads D(M_c) from the row, and bialgebra takes one more, of
    # M_a M_b, per ordered pair: 16 basis elements and 48 pairs at weight 4
    calls, coproduct = [], QSymElement.coproduct
    monkeypatch.setattr(QSymElement, "coproduct", lambda f: calls.append(f) or coproduct(f))
    assert all(check.passed for check in verification.hopf_checks(4))
    assert len(calls) == 16 + 48 == 64


def test_hopf_takes_two_antipodes_per_basis_element(monkeypatch):
    # S(M_c) once in its row, and antipode-squared applies S to it once; the
    # antipode check reads every cut's S(M_p) from the rows
    calls, antipode = [], QSymElement.antipode
    monkeypatch.setattr(QSymElement, "antipode", lambda f: calls.append(f) or antipode(f))
    assert all(check.passed for check in verification.hopf_checks(4))
    assert len(calls) == 2 * 16 == 32


def test_oracle_packs_each_unordered_pair_once(monkeypatch):
    # 17 ordered pairs of nonempty compositions with total weight <= 4, 10 unordered
    calls = []
    _patch(monkeypatch, "_packed_product", lambda k: lambda a, b: calls.append((a, b)) or k(a, b))
    assert all(check.passed for check in verification.oracle_checks(4))
    assert len(calls) == 10


@pytest.mark.parametrize("max_degree", range(6))
def test_oracle_reads_each_expansion_back_once(monkeypatch, max_degree):
    # one pattern pass per basis element, 2**max_degree of them: the read-back
    # alone decides quasisymmetry
    calls, patterns = [], expansion._pattern_coefficients
    monkeypatch.setattr(expansion, "_pattern_coefficients",
                        lambda poly: calls.append(poly) or patterns(poly))
    assert all(check.passed for check in verification.oracle_checks(max_degree))
    assert len(calls) == 2 ** max_degree


def test_oracle_fails_a_refused_read_back(monkeypatch):
    # one variable too few: [2] in 1 variable trips the read-back's degree
    # guard, which fails that case rather than escaping the suite
    _patch(monkeypatch, "expand", lambda k: lambda f, n: k(f, n - 1))
    checks = {c.name: c for c in verification.oracle_checks(3)}
    assert checks["expansion-round-trip"].detail == "failed at [1] and 6 more"


def test_mu_multiplies_pullbacks_once_per_unordered_pair_and_cut(monkeypatch):
    # gluing-multiplicative at mu@4 sweeps 68 (pair, cut) cases of total weight
    # <= 3; the unordered pairs have 36 cuts, one tensor product each
    products, mul = [], TensorElement.__mul__

    def counted(self, other):
        if isinstance(other, TensorElement):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(TensorElement, "__mul__", counted)
    assert all(check.passed for check in verification.mu_checks(4))
    assert len(products) == 36


def test_checks_carry_detail_text():
    for check in run_suite("lyndon-free", 3):
        assert check.name
        assert check.detail


# -- golden output --------------------------------------------------------------

# The (name, passed, detail) triples of every suite at its default bound.  Each
# number in a swept check's detail is the count of cases it swept.
DEFAULT_TRIPLES = {
    "hopf": [
        ("coassociativity", True,
         "(D x id)D = (id x D)D on all 64 basis elements through weight 6"),
        ("counit", True, "both counit contractions of D restore all 64 basis elements"),
        ("bialgebra", True,
         "D and the counit are ring maps on 256 basis pairs with total weight <= 6"),
        ("antipode", True, "m(S x id)D = m(id x S)D = unit.counit on all 64 basis elements"),
        ("antipode-squared", True, "S.S = id on all 64 basis elements (commutative case)"),
    ],
    "oracle": [
        ("product-expansion", True,
         "expanding the product matches multiplying expansions on 321 pairs with total weight <= 7"),
        ("expansion-round-trip", True,
         "expansions are quasisymmetric and read back exactly for all 128 basis elements"),
    ],
    "limit": [
        ("zero-insertion", True,
         "killing any one variable restores the smaller expansion (672 cases)"),
        ("restriction", True,
         "keeping any increasing set of variables restores the smaller expansion (2016 cases)"),
        ("restriction-composition", True,
         "composing variable selections agrees with selecting once (7776 cases)"),
    ],
    "mu": [
        ("gluing-coproduct", True,
         "gluing pullbacks assemble into D on all 64 basis elements through weight 6"),
        ("gluing-multiplicative", True,
         "the pullback is a ring map into each truncated tensor square (592 cases)"),
        ("deep-stratum", True, "the deepest stratum splits over all chain cuts, depths 0..6"),
    ],
    "tau": [
        ("reversal-involution", True,
         "index reversal squares to the identity on all 32 basis elements"),
        ("reversal-multiplicative", True, "index reversal is a ring map on 112 basis pairs"),
        ("reversal-twists-coproduct", True,
         "index reversal is not a coalgebra map; witness [1,2]"),
        ("involution-squared", True,
         "the marked-point involution squares to the identity and preserves degree on 63 generators"),
        ("involution-multiplicative", True,
         "the marked-point involution is a ring map on 164 generator pairs"),
        ("involution-of-beta", True, "beta maps to -b + [1]"),
    ],
    "lyndon-free": [
        *(
            (f"free-generation-weight-{w}", True,
             f"dimension {2 ** (w - 1)}, Lyndon monomials {2 ** (w - 1)}, rank {2 ** (w - 1)}")
            for w in range(1, 7)
        ),
        ("generator-count", True, "generator counts by weight: [1, 1, 2, 3, 6, 9]"),
    ],
}


def test_run_all_golden_at_default_bounds():
    report = run_all()
    assert list(report) == list(DEFAULT_TRIPLES)
    assert {
        name: [(c.name, c.passed, c.detail) for c in checks] for name, checks in report.items()
    } == DEFAULT_TRIPLES


def test_limit_details_at_the_deep_bound():
    # The output digest stops at --max-degree 4; the benchmark's deep run is limit@6.
    assert [tuple(c) for c in verification.limit_checks(6)] == [
        ("zero-insertion", True,
         "killing any one variable restores the smaller expansion (1792 cases)"),
        ("restriction", True,
         "keeping any increasing set of variables restores the smaller expansion (8128 cases)"),
        ("restriction-composition", True,
         "composing variable selections agrees with selecting once (46656 cases)"),
    ]


# -- forced failures, one per label shape ------------------------------------------

def _detail(checks, name):
    """The detail of check ``name``; every other check must still pass."""
    assert [c.name for c in checks if not c.passed and c.name != name] == []
    (check,) = [c for c in checks if c.name == name]
    assert not check.passed
    return check.detail


def _patch(monkeypatch, kernel, wrap):
    monkeypatch.setattr(verification, kernel, wrap(getattr(verification, kernel)))


def test_forced_failure_names_a_composition(monkeypatch):
    target = QSymElement.monomial([1, 2])
    _patch(monkeypatch, "gluing_matches_coproduct", lambda k: lambda f: f != target and k(f))
    assert _detail(verification.mu_checks(3), "gluing-coproduct") == "failed at [1,2]"


def test_gluing_coproduct_fails_on_a_broken_coproduct(monkeypatch):
    # drop every cut into two one-part halves: the pullback still agrees with
    # the same broken coproduct, but not with the polynomial oracle
    coproduct = QSymElement.coproduct

    def broken(self):
        delta = coproduct(self)
        return TensorElement(2, {k: v for k, v in delta.terms() if list(map(len, k)) != [1, 1]})

    monkeypatch.setattr(QSymElement, "coproduct", broken)
    (check,) = [c for c in verification.mu_checks(5) if c.name == "gluing-coproduct"]
    assert not check.passed
    assert check.detail == "failed at [1,1] and 9 more"


def test_gluing_coproduct_fails_on_an_overlong_term(monkeypatch):
    # [1,1,1] (x) [1,1,1] has six parts, more than the three variables M[3]
    # expands in: no pullback keeps it, so the pullback into (3, 3) variables
    # is not this coproduct
    coproduct, target = QSymElement.coproduct, QSymElement.monomial([3])
    extra = TensorElement(2, {((1, 1, 1), (1, 1, 1)): 1})
    monkeypatch.setattr(
        QSymElement, "coproduct",
        lambda self: coproduct(self) + extra if self == target else coproduct(self),
    )
    assert not gluing_matches_coproduct(target)
    assert _detail(verification.mu_checks(4), "gluing-coproduct") == "failed at [3]"


def test_gluing_coproduct_fails_on_an_overlong_truncation(monkeypatch):
    # A kept half one part too long for its slot has no placement there: at
    # the 0+1 split of [1], the kept [1] (x) [] needs a variable in slot 0.
    # gluing-multiplicative reads verification's binding, which stays exact.
    pullback = chow.gluing_pullback
    monkeypatch.setattr(chow, "gluing_pullback", lambda f, n1, n2: pullback(f, n1 + 1, n2 + 1))
    checks = verification.mu_checks(3)
    assert _detail(checks, "gluing-coproduct") == "failed at [1] and 6 more"
    assert [c.name for c in checks if not c.passed] == ["gluing-coproduct"]


def test_lyndon_free_fails_on_a_miscounted_shuffle_lead(monkeypatch):
    # one interleaving too many for every state of two or more words, so only
    # the single Lyndon factors count; [1]^w is each weight's first product
    shuffle_lead = expansion._shuffle_lead

    def miscounted(state, memo):
        lead, count = shuffle_lead(state, memo)
        return lead, count + (len(state) > 1)

    monkeypatch.setattr(expansion, "_shuffle_lead", miscounted)
    checks = {c.name: c for c in verification.lyndon_free_checks(6)}
    assert [name for name, c in checks.items() if not c.passed] == [
        f"free-generation-weight-{w}" for w in range(2, 7)
    ]
    for w in range(2, 7):
        assert checks[f"free-generation-weight-{w}"].detail == (
            f"dimension {2 ** (w - 1)}, Lyndon monomials {2 ** (w - 1)}, rank {lyndon_count(w)}; "
            f"uncertified at [{', '.join(['[1]'] * w)}]"
        )


def test_bialgebra_counts_each_pair_once(monkeypatch):
    # Both the coproduct and the counit fail to be multiplicative on all
    # 8 pairs; a pair is one case however many of its equalities fail.
    coproduct, counit = QSymElement.coproduct, QSymElement.counit
    monkeypatch.setattr(QSymElement, "coproduct", lambda self: 2 * coproduct(self))
    monkeypatch.setattr(QSymElement, "counit", lambda self: counit(self) + 2)
    checks = {c.name: c for c in verification.hopf_checks(2)}
    assert checks["bialgebra"].detail == "failed at ([], []) and 7 more"


def test_forced_failure_names_zero_insertion_case(monkeypatch):
    # (3, (2, 3)) is killing slot 1 of 3 variables, a face only zero-insertion
    # reads at limit@2: its largest expansion in restriction has 2 variables
    def wrong_at_first_of_three(face_map):
        def patched(poly, kept):
            image = face_map(poly, kept)
            wrong = (poly.num_vars, kept) == (3, (2, 3))
            return image + SparsePolynomial.constant(2, 1) if wrong else image
        return patched

    _patch(monkeypatch, "face_map", wrong_at_first_of_three)
    assert (_detail(verification.limit_checks(2), "zero-insertion")
            == "failed at ([], n=2, slot=1) and 3 more")


def test_forced_failure_names_kept_variables(monkeypatch):
    # every limit check reads face_map through this binding, so all three fail
    def wrong_at_second_variable(face_map):
        def patched(poly, kept):
            image = face_map(poly, kept)
            return image + SparsePolynomial.constant(1, 1) if kept == (2,) else image
        return patched

    _patch(monkeypatch, "face_map", wrong_at_second_variable)
    checks = verification.limit_checks(2)
    assert not any(c.passed for c in checks)
    assert checks[0].detail == "failed at ([], n=1, slot=1) and 3 more"
    assert checks[1].detail == "failed at ([], keep=(2,)) and 3 more"
    assert checks[2].detail == "failed at ([], (2,), ()) and 3 more"


def test_forced_failure_names_gluing_split(monkeypatch):
    # Only the product of the pullbacks is truncated, through this binding, so
    # a doubled truncation doubles that side of the 1+1 split.
    _patch(monkeypatch, "truncate_tensor",
           lambda k: lambda t, sizes: 2 * k(t, sizes) if sizes == (1, 1) else k(t, sizes))
    assert (_detail(verification.mu_checks(3), "gluing-multiplicative")
            == "failed at ([], [1,1], 1+1) and 4 more")


def test_forced_failure_names_stratum_depth(monkeypatch):
    _patch(monkeypatch, "deep_stratum_class", lambda k: lambda d: k(1) if d == 2 else k(d))
    assert _detail(verification.mu_checks(3), "deep-stratum") == "failed at depth 2"


def test_forced_failure_names_beta_generators(monkeypatch):
    _patch(monkeypatch, "marked_point_involution",
           lambda k: lambda g: k(g) if g.total_degree() < 2 else 2 * k(g))
    checks = verification.tau_checks(3)
    assert [c.name for c in checks if not c.passed] == [
        "involution-squared", "involution-multiplicative",
    ]
    assert checks[3].detail == "failed at b^2 and 11 more"
    assert checks[4].detail == "failed at (b, b) and 2 more"


def _with_extra_term(extra, a, b):
    """Wrap ``QSymElement.__mul__`` so that ``M_a * M_b`` gains ``extra``."""
    mul = QSymElement.__mul__
    fa, fb = QSymElement.monomial(a), QSymElement.monomial(b)

    def patched(self, other):
        product = mul(self, other)
        return product + extra if (self, other) == (fa, fb) else product

    return patched


# M_[2] * M_[1] = M_[2,1] + M_[1,2] + M_[3]
@pytest.mark.parametrize("extra", [
    # longer than len([2]) + len([1]) = 2 variables, so it has no packed
    # monomial there
    QSymElement.monomial([1, 1, 1]),
    # weight 2, not 3, but short enough to have a packed monomial
    QSymElement.monomial([1, 1]),
    # the coefficient of M_[2,1] becomes 2
    QSymElement.monomial([2, 1]),
    # M_[3] is dropped
    -QSymElement.monomial([3]),
], ids=["too-long", "wrong-weight", "wrong-coefficient", "dropped-term"])
def test_product_expansion_rejects_a_wrong_term(monkeypatch, extra):
    monkeypatch.setattr(QSymElement, "__mul__", _with_extra_term(extra, [2], [1]))
    assert _detail(verification.oracle_checks(3), "product-expansion") == "failed at ([2], [1])"


def test_oracle_builds_no_product_polynomial(monkeypatch):
    def no_product(self, other):
        raise AssertionError("SparsePolynomial product")

    monkeypatch.setattr(SparsePolynomial, "__mul__", no_product)
    assert all(check.passed for check in verification.oracle_checks(5))


def test_oracle_expands_only_for_the_round_trip(monkeypatch):
    # product-expansion reads basis placements; only expansion-round-trip
    # expands, once for each of the 2**7 basis elements of weight <= 7
    calls = []
    _patch(monkeypatch, "expand", lambda k: lambda f, n: calls.append(n) or k(f, n))
    assert all(check.passed for check in verification.oracle_checks(7))
    assert len(calls) == 2 ** 7


@pytest.mark.parametrize("max_degree", range(6))
def test_limit_expands_each_element_once_per_variable_count(monkeypatch, max_degree):
    # one table per basis element, in 0..max_degree + 1 variables, read by all
    # three checks: 2**max_degree elements of weight <= max_degree.  Both
    # bindings count, so no expansion made inside qsym.expansion goes unseen.
    calls, expand = [], expansion.expand

    def counted(f, n):
        calls.append(n)
        return expand(f, n)

    monkeypatch.setattr(expansion, "expand", counted)
    monkeypatch.setattr(verification, "expand", counted)
    assert all(check.passed for check in verification.limit_checks(max_degree))
    assert len(calls) == (max_degree + 2) * 2 ** max_degree


@pytest.mark.parametrize("max_degree", range(7))
def test_limit_maps_each_face_once(monkeypatch, max_degree):
    # every face of each E_n, n <= max_degree, once: 2**n of them for each of
    # the 2**max_degree elements, read by all three checks; zero-insertion
    # maps E_max_degree+1 by each of its max_degree + 1 one-variable kills.
    # 2,208 calls at limit@5 and 8,576 at limit@6; mapping every case took
    # 11,488 and 60,672.
    calls, d = [], max_degree
    _patch(monkeypatch, "face_map", lambda k: lambda poly, kept: calls.append(kept) or k(poly, kept))
    assert all(check.passed for check in verification.limit_checks(max_degree))
    assert len(calls) == 2 ** d * (2 ** (d + 1) - 1) + 2 ** d * (d + 1)


# -- the mutation matrix ---------------------------------------------------------

def _drop_last_term(mul, when=lambda self, other: True):
    """A 2-fold tensor product that loses one term of every product where ``when`` holds."""
    def dropped(self, other):
        product = mul(self, other)
        if (isinstance(other, TensorElement) and self.arity == 2 and len(product) > 1
                and when(self, other)):
            return TensorElement._wrap(dict(list(product._terms.items())[:-1]), 2)
        return product
    return dropped


def _plus_longest_term(f):
    """``f`` with 1 added to its longest term's coefficient, once that term has 3 or more parts."""
    longest = max(f._terms, key=len, default=())
    return f + QSymElement.monomial(longest) if len(longest) >= 3 else f


# Each entry breaks one paper map or kernel, patched where the checks read it,
# and names every check that run_all() at the default bounds then fails: a
# check that stops catching its entry, or starts failing beside it, shows.
MUTATIONS = {
    "quasi-shuffle-extra-term": (
        [(algebra, "_quasi_shuffle")],
        lambda k: lambda a, b: k(a, b) + (((1, 1, 1), 1),) if (a, b) == ((1,), (1,)) else k(a, b),
        {"bialgebra", "antipode", "product-expansion", "gluing-multiplicative",
         "involution-squared", "involution-multiplicative"},
    ),
    "coproduct-dropped-cut": (  # drops [] (x) c for every two-part c
        [(QSymElement, "coproduct")],
        lambda k: lambda f: TensorElement._wrap(
            {key: v for key, v in k(f)._terms.items() if key[0] or len(key[1]) != 2}, 2),
        {"coassociativity", "counit", "bialgebra", "antipode", "gluing-coproduct", "deep-stratum"},
    ),
    "antipode-unsigned": (
        [(QSymElement, "antipode")],
        lambda k: lambda f: QSymElement._new({c: abs(v) for c, v in k(f)._terms.items()}),
        {"antipode"},
    ),
    "antipode-first-term-only": (  # the antipode check calls S on basis elements only
        [(QSymElement, "antipode")],
        lambda k: lambda f: k(QSymElement._wrap(dict(islice(f._terms.items(), 1)))),
        {"antipode-squared"},
    ),
    "reversal-rotated": (
        [(QSymElement, "reverse_indices")],
        lambda k: lambda f: QSymElement._wrap({c[1:] + c[:1]: v for c, v in f._terms.items()}),
        {"reversal-involution", "reversal-multiplicative",
         "involution-squared", "involution-multiplicative"},
    ),
    "expand-dropped-placement": (
        [(verification, "expand")],
        lambda k: lambda f, n: SparsePolynomial._wrap(dict(list(k(f, n)._terms.items())[1:]), n),
        {"zero-insertion", "restriction", "expansion-round-trip"},
    ),
    "lyndon-enumeration-missing-weight-1": (
        [(verification, "enumerate_lyndon")],
        lambda k: lambda n: [] if n == 1 else k(n),
        {"generator-count", *(f"free-generation-weight-{w}" for w in range(1, 7))},
    ),
    "lyndon-enumeration-dropped-composition": (
        [(verification, "enumerate_lyndon")],
        lambda k: lambda n: k(n)[:-1] if n >= 3 else k(n),
        {"generator-count", *(f"free-generation-weight-{w}" for w in range(3, 7))},
    ),
    "from-polynomial-wrong-coefficient": (  # the round trip's one read-back
        [(verification, "from_polynomial")],
        lambda k: lambda poly: _plus_longest_term(k(poly)),
        {"expansion-round-trip"},
    ),
    "face-map-wrong-coefficient": (
        [(verification, "face_map")],
        lambda k: lambda poly, kept: 2 * k(poly, kept) if kept == (1,) else k(poly, kept),
        {"zero-insertion", "restriction", "restriction-composition"},
    ),
    "packed-product-wrong-coefficient": (
        [(verification, "_packed_product")],
        lambda k: lambda a, b: {c: v + (c == (1, 1, 1)) for c, v in k(a, b).items()},
        {"product-expansion"},
    ),
    "tensor-product-dropped-term": (
        [(TensorElement, "__mul__")],
        _drop_last_term,
        {"bialgebra", "gluing-multiplicative"},
    ),
    # each pair check multiplies the images in one operand order only
    "tensor-product-order-dependent": (
        [(TensorElement, "__mul__")],
        lambda k: _drop_last_term(k, lambda self, other: len(self) > len(other)),
        {"bialgebra", "gluing-multiplicative"},
    ),
    "truncation-one-part-longer": (  # only the product of the pullbacks is truncated
        [(chow, "truncate_tensor"), (verification, "truncate_tensor")],
        lambda k: lambda t, bounds: k(t, [b + 1 for b in bounds]),
        {"gluing-multiplicative"},
    ),
    "pullback-one-part-longer": (
        [(chow, "gluing_pullback"), (verification, "gluing_pullback")],
        lambda k: lambda f, n1, n2: k(f, n1 + 1, n2 + 1),
        {"gluing-coproduct", "gluing-multiplicative"},
    ),
    "pullback-dropped-cut": (  # drops [] (x) c for every two-part c
        [(chow, "gluing_pullback"), (verification, "gluing_pullback")],
        lambda k: lambda f, n1, n2: TensorElement._wrap(
            {key: v for key, v in k(f, n1, n2)._terms.items() if key[0] or len(key[1]) != 2}, 2),
        {"gluing-coproduct", "gluing-multiplicative"},
    ),
    "involution-without-reversal": (  # reversing the coefficients first undoes it
        [(chow, "marked_point_involution"), (verification, "marked_point_involution")],
        lambda k: lambda g: k(BetaElement({p: v.reverse_indices() for p, v in g.terms()})),
        {"involution-squared"},
    ),
    "involution-fixing-beta": (  # reverses each coefficient and leaves beta where it is
        [(chow, "marked_point_involution"), (verification, "marked_point_involution")],
        lambda k: lambda g: BetaElement({p: v.reverse_indices() for p, v in g.terms()}),
        {"involution-of-beta"},
    ),
    "reversal-identity": (  # an involution and a ring map, but also a coalgebra map
        [(QSymElement, "reverse_indices")],
        lambda k: lambda f: f,
        {"reversal-twists-coproduct", "involution-squared"},
    ),
    "shuffle-lead-equal-words-counted-once": (
        [(expansion, "_shuffle_lead")],
        lambda k: lambda state, memo: (k(state, memo)[0], 1),
        {f"free-generation-weight-{w}" for w in range(2, 7)},
    ),
}


@pytest.mark.parametrize("targets, mutate, expected", MUTATIONS.values(), ids=list(MUTATIONS))
def test_mutation_fails_the_named_checks(monkeypatch, targets, mutate, expected):
    for owner, name in targets:
        monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    failed = {c.name for checks in run_all().values() for c in checks if not c.passed}
    assert failed == expected


def _limit_mapping_every_case(max_degree):
    """The triples of limit_checks from three unshared sweeps in which every
    face of every case is built by its own face_map call.  Both kernels are
    read through verification's bindings when called, so a patch applies."""
    face_map, expand = verification.face_map, verification.expand
    comps = [comp for d in range(max_degree + 1) for comp in enumerate_compositions(d)]
    expansion_of = {(comp, n): expand(QSymElement.monomial(comp), n)
                    for comp in comps for n in range(max_degree + 2)}

    def subsets(n):
        return [kept for m in range(n + 1) for kept in combinations(range(1, n + 1), m)]

    insertions = [
        (comp, n, slot, face_map(expansion_of[comp, n + 1], tuple(p for p in range(1, n + 2) if p != slot))
         == expansion_of[comp, n])
        for comp in comps for n in range(max_degree + 1) for slot in range(1, n + 2)
    ]
    restrictions = [
        (comp, kept, face_map(expansion_of[comp, n], kept) == expansion_of[comp, len(kept)])
        for comp in comps for n in range(max_degree + 1) for kept in subsets(n)
    ]
    top = max_degree
    compositions = [
        (comp, outer, inner, face_map(face_map(expansion_of[comp, top], outer), inner)
         == face_map(expansion_of[comp, top], tuple(outer[i - 1] for i in inner)))
        for comp in comps for outer in subsets(top) for inner in subsets(len(outer))
    ]
    sweeps = [
        ("zero-insertion", insertions, "({}, n={}, slot={})".format,
         "killing any one variable restores the smaller expansion ({} cases)"),
        ("restriction", restrictions, "({}, keep={})".format,
         "keeping any increasing set of variables restores the smaller expansion ({} cases)"),
        ("restriction-composition", compositions, "({}, {}, {})".format,
         "composing variable selections agrees with selecting once ({} cases)"),
    ]
    triples = []
    for name, cases, label, detail in sweeps:
        failing = [label(*case[:-1]) for case in cases if not case[-1]]
        if not failing:
            triples.append((name, True, detail.format(len(cases))))
        else:
            more = f" and {len(failing) - 1} more" if len(failing) > 1 else ""
            triples.append((name, False, f"failed at {failing[0]}{more}"))
    return triples


def _face_map_wrong_where(wrong):
    """A face_map mutation adding 1 to the image wherever ``wrong(num_vars, kept)``."""
    def mutate(face_map):
        def patched(poly, kept):
            image = face_map(poly, kept)
            return image + SparsePolynomial.constant(len(kept), 1) if wrong(poly.num_vars, kept) else image
        return patched
    return [(verification, "face_map")], mutate


# Each entry maps a bound to (targets, mutate), as in MUTATIONS
LIMIT_MUTATIONS = {
    "no-mutation": lambda d: ([], None),
    **{f"face-map-wrong-at-n{n}-keep{''.join(map(str, kept))}": lambda d, face=(n, kept):
       _face_map_wrong_where(lambda num_vars, positions: (num_vars, positions) == face)
       for n, kept in [(1, ()), (3, (1, 3)), (4, (2, 4)), (4, (2, 3, 4))]},
    "face-map-wrong-on-one-variable": lambda d: _face_map_wrong_where(
        lambda num_vars, kept: len(kept) == 1),
    "face-map-wrong-on-the-top-level": lambda d: _face_map_wrong_where(
        lambda num_vars, kept: num_vars == d + 1),
    "expand-dropped-placement": lambda d: MUTATIONS["expand-dropped-placement"][:2],
}


@pytest.mark.parametrize("max_degree", range(5))
@pytest.mark.parametrize("mutation", list(LIMIT_MUTATIONS))
def test_limit_agrees_with_mapping_every_case(monkeypatch, mutation, max_degree):
    # restriction-composition maps only the cases the face tables cannot
    # decide; any pure kernel, broken or not, must get the same triples
    targets, mutate = LIMIT_MUTATIONS[mutation](max_degree)
    for owner, name in targets:
        monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    expected = _limit_mapping_every_case(max_degree)
    assert [tuple(c) for c in verification.limit_checks(max_degree)] == expected
    if max_degree == 4 and mutation != "no-mutation":
        assert not all(passed for name, passed, detail in expected)


def test_no_check_multiplies_three_fold_tensors(monkeypatch):
    # The 3-fold product is computed by its definition, slot by slot, with no
    # fast body: a check that multiplies cubes should reopen that choice.
    arities, mul = [], TensorElement.__mul__

    def counted(self, other):
        if isinstance(other, TensorElement):
            arities.append(self.arity)
        return mul(self, other)

    monkeypatch.setattr(TensorElement, "__mul__", counted)
    assert all(c.passed for checks in run_all().values() for c in checks)
    assert arities and set(arities) == {2}
