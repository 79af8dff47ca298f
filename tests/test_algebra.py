"""The ring, coalgebra, and antipode, checked against independent routes."""

import re
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsym.algebra import (
    QSymElement,
    TensorElement,
    _quasi_shuffle,
    contract_product,
    coproduct_at,
    coproduct_first,
    coproduct_second,
    counit_at,
    counit_first,
    counit_second,
    map_slot,
    monomial,
    tensor,
    triple_tensor,
)
from qsym.chow import BetaElement, deep_stratum_class, gluing_pullback, truncate_tensor
from qsym.compositions import Composition, enumerate_compositions, enumerate_lyndon
from qsym.expansion import SparsePolynomial, expand, face_map, from_polynomial
from reference_impls import surjection_product


def all_compositions(max_weight):
    out = []
    for d in range(max_weight + 1):
        out.extend(enumerate_compositions(d))
    return out


M = monomial


class TestElementBasics:
    def test_zero_one(self):
        assert QSymElement.zero().is_zero()
        assert not QSymElement.zero()
        assert QSymElement.one().counit() == 1
        assert QSymElement.one() == QSymElement.from_int(1)

    def test_zero_coefficients_dropped(self):
        assert QSymElement({Composition([2]): 0}).is_zero()
        assert (M([2]) - M([2])).is_zero()

    def test_coefficient_lookup(self):
        f = 3 * M([1, 2]) - M([2, 1])
        assert f.coefficient([1, 2]) == 3
        assert f.coefficient([2, 1]) == -1
        assert f.coefficient([5]) == 0

    def test_equality_with_int(self):
        assert QSymElement.from_int(4) == 4 and 4 == QSymElement.from_int(4)
        assert QSymElement.zero() == 0
        assert M([1]) != 1 and 1 != M([1])

    def test_terms_canonical_order(self):
        f = M([3]) + M([1, 2]) + M([1]) + QSymElement.one()
        assert [tuple(c) for c, _ in f.terms()] == [(), (1,), (1, 2), (3,)]

    def test_degree(self):
        assert QSymElement.zero().degree() == 0
        assert QSymElement.one().degree() == 0
        assert (M([1]) + M([2, 2])).degree() == 4

    def test_hash_agrees_with_equality(self):
        assert hash(M([1]) + M([2])) == hash(M([2]) + M([1]))

    @pytest.mark.parametrize(
        "bad",
        [1.5, 2.0, Fraction(1, 2), Fraction(2)],
        ids=["float", "whole-float", "fraction", "whole-fraction"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: QSymElement({Composition([1]): c}),
            lambda c: TensorElement(2, {(Composition([1]), Composition()): c}),
            lambda c: SparsePolynomial(1, {(1,): c}),
        ],
        ids=["qsym", "tensor", "polynomial"],
    )
    def test_non_integer_coefficients_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    def test_module_structure(self):
        f = M([1, 2])
        assert 2 * f + f == 3 * f
        assert f - f == 0
        assert -f == -1 * f
        assert 0 * f == QSymElement.zero()
        assert 1 + f == f + 1


class TestProduct:
    def test_square_of_degree_one(self):
        assert M([1]) * M([1]) == M([2]) + 2 * M([1, 1])

    def test_known_product(self):
        expected = (
            M([1, 2, 1, 1]) + 2 * M([1, 1, 2, 1]) + 3 * M([1, 1, 1, 2])
            + M([2, 2, 1]) + M([1, 3, 1]) + M([2, 1, 2])
            + 2 * M([1, 1, 3]) + M([1, 2, 2]) + M([2, 3])
        )
        assert M([1, 2]) * M([1, 1]) == expected

    def test_unit_law(self):
        for comp in all_compositions(5):
            f = M(comp)
            assert QSymElement.one() * f == f
            assert f * QSymElement.one() == f

    def test_agrees_with_surjection_enumeration(self):
        comps = [c for c in all_compositions(6) if len(c)]
        pairs = [(a, b) for a in comps for b in comps if a.weight + b.weight <= 6]
        assert len(pairs) > 100
        for a, b in pairs:
            expected = surjection_product(tuple(a), tuple(b))
            assert {tuple(c): v for c, v in (M(a) * M(b)).terms()} == expected

    def test_agrees_with_surjection_enumeration_weight_seven(self):
        pairs = [((1, 2), (1, 1, 2)), ((3,), (2, 1, 1)), ((1, 1, 1), (2, 2))]
        for a, b in pairs:
            expected = surjection_product(a, b)
            assert {tuple(c): v for c, v in (M(a) * M(b)).terms()} == expected

    def test_commutative(self):
        comps = [c for c in all_compositions(5) if len(c)]
        for a in comps:
            for b in comps:
                if a.weight + b.weight <= 5:
                    assert M(a) * M(b) == M(b) * M(a)

    def test_associative(self):
        comps = [c for c in all_compositions(2) if len(c)] + [Composition([3])]
        for a in comps:
            for b in comps:
                for c in comps:
                    assert (M(a) * M(b)) * M(c) == M(a) * (M(b) * M(c))

    def test_distributes_over_sums(self):
        f = M([1]) - 2 * M([2])
        g = M([1, 1]) + M([3])
        h = M([2])
        assert (f + g) * h == f * h + g * h

    def test_weight_is_additive(self):
        product = M([2, 1]) * M([1, 3])
        assert all(c.weight == 7 for c, _ in product.terms())

    def test_power(self):
        f = M([1])
        assert f**0 == QSymElement.one()
        assert f**1 == f
        assert f**3 == f * f * f
        with pytest.raises(ValueError):
            f**-1
        with pytest.raises(ValueError, match="True"):
            f**True


def _stored_sizes(memo):
    """The term count each retained entry is charged, an empty result as one."""
    return [len(value) or 1 for value in memo._entries.values()]


class TestKernelMemo:
    """The quasi-shuffle memo: bounded by stored terms, exact under eviction."""

    # Distinct parts, so the product has 7,575 terms, over the entry cap.
    LONG = ((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1))

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _quasi_shuffle.cache_clear()
        yield
        _quasi_shuffle.cache_clear()

    def test_stream_stays_within_the_term_budget(self, monkeypatch):
        monkeypatch.setattr(_quasi_shuffle, "budget", 400)
        monkeypatch.setattr(_quasi_shuffle, "entry_cap", 60)
        oversized = ((1, 2, 3, 4), (4, 3, 2, 1, 5))
        assert len(surjection_product(*oversized)) > 60
        pairs = [(a, b) for a in enumerate_compositions(4) for b in enumerate_compositions(5)]
        stream = pairs[:64] + [oversized] + pairs[64:] + [oversized]
        for left, right in stream:
            assert dict(_quasi_shuffle(left, right)) == surjection_product(left, right)
            sizes = _stored_sizes(_quasi_shuffle)
            assert sum(sizes) == _quasi_shuffle.terms <= 400
            assert max(sizes) <= 60
        assert _quasi_shuffle.evictions > 0

    def test_oversized_product_is_exact_and_not_retained(self):
        terms = _quasi_shuffle(*self.LONG)
        assert len(terms) > _quasi_shuffle.entry_cap
        assert dict(terms) == surjection_product(*self.LONG)
        assert self.LONG not in _quasi_shuffle._entries
        assert max(_stored_sizes(_quasi_shuffle), default=0) <= _quasi_shuffle.entry_cap

    def test_oversized_sub_results_are_computed_once(self):
        # The products of suffixes are rows of a table inside one kernel
        # call, not memo entries, so a cold product is exactly one miss.
        _quasi_shuffle(*self.LONG)
        assert (_quasi_shuffle.hits, _quasi_shuffle.misses) == (0, 1)

    @pytest.fixture(scope="class")
    def sweep(self):
        """Every ordered pair through total weight 8 with its reference product,
        in sweep order: the basis by weight, then lex, the left operand outside."""
        basis = [tuple(c) for c in all_compositions(8)]
        return [(a, b, surjection_product(a, b)) for a in basis for b in basis if sum(a + b) <= 8]

    @pytest.fixture
    def tables(self, monkeypatch):
        """The operand pairs whose product fills the kernel's table."""
        built, table = [], _quasi_shuffle._fn
        monkeypatch.setattr(_quasi_shuffle, "_fn", lambda l, r: built.append((l, r)) or table(l, r))
        return built

    def test_cold_products_fill_the_table(self, sweep, tables):
        for left, right, expected in sweep:
            _quasi_shuffle.cache_clear()
            assert dict(_quasi_shuffle(left, right)) == expected
        assert len(tables) == len(sweep) > 1000

    def test_a_warm_sweep_fills_one_table_per_unordered_pair(self, sweep, tables):
        for left, right, expected in sweep:
            assert dict(_quasi_shuffle(left, right)) == expected
        # one table per unordered pair, and no stored product but those asked for
        unordered = list(dict.fromkeys(tuple(sorted(pair[:2])) for pair in sweep))
        assert tables == unordered
        info = _quasi_shuffle.cache_info()
        assert (info.hits, info.misses) == (len(sweep) - len(unordered), len(unordered))
        assert set(_quasi_shuffle._entries) == set(unordered)

    def test_sweeps_under_eviction_are_exact(self, sweep, tables, monkeypatch):
        monkeypatch.setattr(_quasi_shuffle, "budget", 400)
        monkeypatch.setattr(_quasi_shuffle, "entry_cap", 60)
        for _ in range(2):
            for left, right, expected in sweep:
                assert dict(_quasi_shuffle(left, right)) == expected
                assert sum(_stored_sizes(_quasi_shuffle)) == _quasi_shuffle.terms <= 400
        assert _quasi_shuffle.evictions > 0
        assert all(left <= right for left, right in tables)

    def test_mirror_call_builds_no_table(self, tables):
        first = _quasi_shuffle((1, 2), (2, 1, 1))
        assert _quasi_shuffle((2, 1, 1), (1, 2)) is first
        info = _quasi_shuffle.cache_info()
        assert (info.hits, info.misses, info.currsize, info.terms) == (1, 1, 1, len(first))
        assert tables == [((1, 2), (2, 1, 1))]

    @pytest.mark.parametrize("left, right", [
        ((), ()),
        ((), (2, 1)),
        ((3, 1, 3), ()),
        ((1, 1, 1), (1, 1)),
        ((2, 1, 2), (2, 2, 1, 2)),
    ])
    def test_empty_sides_and_repeated_parts(self, left, right):
        assert dict(_quasi_shuffle(left, right)) == surjection_product(left, right)

    def test_cache_info_reports_the_counters(self):
        M([1, 2]) * M([2, 1])
        info = _quasi_shuffle.cache_info()
        assert (info.hits, info.misses) == (_quasi_shuffle.hits, _quasi_shuffle.misses)
        assert info.misses > 0
        assert info.currsize == len(_quasi_shuffle._entries)
        assert info.terms == sum(_stored_sizes(_quasi_shuffle))
        assert info.maxsize == _quasi_shuffle.budget


@st.composite
def compositions(draw, max_weight=10, max_length=5):
    """A nonempty composition of weight <= max_weight with <= max_length parts."""
    weight = draw(st.integers(1, max_weight))
    cuts = sorted(draw(st.sets(st.integers(1, weight), max_size=max_length - 1)) - {weight})
    bounds = [0, *cuts, weight]
    return Composition(b - a for a, b in zip(bounds, bounds[1:]))


@given(compositions(), compositions())
@settings(max_examples=100, deadline=None)
def test_product_agrees_with_surjection_enumeration_fuzz(a, b):
    expected = surjection_product(tuple(a), tuple(b))
    assert {tuple(c): v for c, v in (M(a) * M(b)).terms()} == expected


class TestCoproduct:
    def test_known_coproduct(self):
        delta = M([3, 1, 4]).coproduct()
        assert delta == TensorElement(2, {
            (Composition(), Composition([3, 1, 4])): 1,
            (Composition([3]), Composition([1, 4])): 1,
            (Composition([3, 1]), Composition([4])): 1,
            (Composition([3, 1, 4]), Composition()): 1,
        })

    def test_counit(self):
        assert QSymElement.one().counit() == 1
        assert (5 + M([2])).counit() == 5
        assert M([1, 1]).counit() == 0

    def test_coassociative_through_weight_seven(self):
        for comp in all_compositions(7):
            delta = M(comp).coproduct()
            assert coproduct_first(delta) == coproduct_second(delta)

    def test_counit_laws_through_weight_seven(self):
        for comp in all_compositions(7):
            f = M(comp)
            delta = f.coproduct()
            assert counit_first(delta) == f
            assert counit_second(delta) == f

    def test_coproduct_is_a_ring_map(self):
        comps = all_compositions(5)
        for a in comps:
            for b in comps:
                if a.weight + b.weight <= 5:
                    fa, fb = M(a), M(b)
                    assert (fa * fb).coproduct() == fa.coproduct() * fb.coproduct()

    def test_counit_is_a_ring_map(self):
        f = 2 + M([1])
        g = 3 + M([2]) - M([1, 1])
        assert (f * g).counit() == f.counit() * g.counit()


class TestAntipode:
    def test_known_antipode(self):
        assert M([3, 1, 4]).antipode() == -(M([4, 1, 3]) + M([5, 3]) + M([4, 4]) + M([8]))

    def test_of_unit(self):
        assert QSymElement.one().antipode() == QSymElement.one()

    def test_of_single_part(self):
        assert M([5]).antipode() == -M([5])

    def test_antipode_axiom(self):
        for comp in all_compositions(6):
            f = M(comp)
            delta = f.coproduct()
            unit_part = QSymElement.from_int(f.counit())
            assert contract_product(map_slot(delta, 0, QSymElement.antipode)) == unit_part
            assert contract_product(map_slot(delta, 1, QSymElement.antipode)) == unit_part

    def test_squares_to_identity(self):
        for comp in all_compositions(6):
            f = M(comp)
            assert f.antipode().antipode() == f

    def test_matches_convolution_recursion(self):
        # the antipode is the convolution inverse of the identity, so on a
        # positive-weight basis element it satisfies
        #   S(f) = -sum over proper tail cuts of M_prefix * S(M_tail)
        for comp in all_compositions(5):
            if len(comp) == 0:
                continue
            f = M(comp)
            acc = QSymElement.zero()
            for left, right in comp.splits():
                if len(left) == 0:
                    continue
                acc = acc + M(left) * M(right).antipode()
            assert f.antipode() == -acc

    def test_is_an_algebra_antihomomorphism(self):
        comps = all_compositions(4)
        for a in comps:
            for b in comps:
                if a.weight + b.weight <= 4:
                    fa, fb = M(a), M(b)
                    assert (fa * fb).antipode() == fb.antipode() * fa.antipode()


class TestReversalAndTruncation:
    def test_reverse_indices(self):
        f = 3 * M([1, 2]) + M([4])
        assert f.reverse_indices() == 3 * M([2, 1]) + M([4])

    def test_reverse_indices_is_multiplicative(self):
        comps = all_compositions(4)
        for a in comps:
            for b in comps:
                if a.weight + b.weight <= 4:
                    fa, fb = M(a), M(b)
                    assert (fa * fb).reverse_indices() == fa.reverse_indices() * fb.reverse_indices()

    def test_truncate(self):
        f = M([1]) + M([1, 1]) + M([1, 1, 1])
        assert f.truncate(2) == M([1]) + M([1, 1])
        assert f.truncate(0) == QSymElement.zero()
        assert (1 + f).truncate(0) == QSymElement.one()
        with pytest.raises(ValueError, match=r"^variable count must be nonnegative, got -1$"):
            f.truncate(-1)
        for bad in (1.5, True, "2"):
            with pytest.raises(ValueError, match=rf"^variable count must be an integer, got {bad!r}$"):
                f.truncate(bad)

    def test_truncation_is_a_ring_quotient(self):
        # terms longer than n are exactly what dies in n variables, so
        # truncating a product then re-truncating changes nothing
        for n in range(4):
            f = M([1]) * M([1, 1])
            assert f.truncate(n) == (M([1]).truncate(n) * M([1, 1]).truncate(n)).truncate(n)


class TestTensors:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            TensorElement(4)
        with pytest.raises(ValueError):
            TensorElement(2, {(Composition([1]),): 1})

    def test_arity_mismatch_raises(self):
        two = tensor(M([1]), M([2]))
        three = triple_tensor(M([1]), M([2]), M([3]))
        with pytest.raises(ValueError):
            two + three
        with pytest.raises(ValueError):
            two * three

    def test_tensor_of_products(self):
        a, b, c, d = M([1]), M([2]), M([1, 1]), M([3])
        assert tensor(a, b) * tensor(c, d) == tensor(a * c, b * d)

    def test_componentwise_product_triple(self):
        a, b, c = M([1]), M([2]), M([1, 1])
        assert triple_tensor(a, b, c) * TensorElement.unit(3) == triple_tensor(a, b, c)

    def test_unit(self):
        two = tensor(M([1]), M([2]))
        assert TensorElement.unit(2) * two == two

    def test_hashable(self):
        two = tensor(M([1]), M([2]))
        assert hash(two) == hash(tensor(M([1]), M([2])))
        assert len({two, two + two - two, 2 * two}) == 2

    def test_scalar_multiple(self):
        two = tensor(M([1]), M([2]))
        assert 2 * two == two + two
        assert two - two == TensorElement(2)

    def test_coefficient_lookup(self):
        two = tensor(2 * M([1]), M([2]))
        assert two.coefficient(([1], [2])) == 2
        assert two.coefficient(([2], [1])) == 0

    @pytest.mark.parametrize("key", [([1], [2], []), ([1],)], ids=["three", "one"])
    def test_coefficient_rejects_a_key_of_another_arity(self, key):
        # the lookup checks a key as the constructor does
        two = tensor(2 * M([1]), M([2]))
        with pytest.raises(ValueError, match=re.escape(f"tensor key {key!r} does not have arity 2")):
            two.coefficient(key)
        with pytest.raises(ValueError, match="does not have arity 2"):
            TensorElement(2, {tuple(map(tuple, key)): 1})

    def test_map_slot(self):
        two = tensor(M([1, 2]), M([3]))
        reversed_first = map_slot(two, 0, QSymElement.reverse_indices)
        assert reversed_first == tensor(M([2, 1]), M([3]))
        with pytest.raises(ValueError):
            map_slot(two, 2, QSymElement.reverse_indices)

    @pytest.mark.parametrize("slot", [True, False, 1.0, "0"])
    def test_map_slot_rejects_a_non_int_slot(self, slot):
        two = tensor(M([1, 2]), M([3]))
        with pytest.raises(ValueError, match=f"got {slot!r}$"):
            map_slot(two, slot, QSymElement.reverse_indices)

    def test_slotwise_coproducts_on_tensors(self):
        f = M([1, 2])
        delta = f.coproduct()
        assert coproduct_first(delta).arity == 3
        assert coproduct_second(delta).arity == 3

    def test_counit_contractions(self):
        two = tensor(M([1]) + 1, M([2]))
        assert counit_first(two) == M([2])
        assert counit_second(two) == QSymElement.zero()

    def test_contract_product(self):
        assert contract_product(tensor(M([1]), M([1]))) == M([2]) + 2 * M([1, 1])

    @pytest.mark.parametrize("op", [coproduct_at, counit_at])
    @pytest.mark.parametrize("arity, slot, message", [
        (2, True, "slot must be an integer from 0 to 1, got True"),
        (2, -1, "slot must be an integer from 0 to 1, got -1"),
        (2, 2, "slot must be an integer from 0 to 1, got 2"),
        (2, "0", "slot must be an integer from 0 to 1, got '0'"),
        (3, 0, "tensor arity mismatch: 3 vs 2"),
    ])
    def test_slot_operations_reject_a_bad_slot_or_arity(self, op, arity, slot, message):
        element = tensor(*[M([1]) + 1] * arity)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            op(element, slot)

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_tensor_takes_two_or_three_factors(self, count):
        with pytest.raises(ValueError, match=f"^tensor arity must be 2 or 3, got {count}$"):
            tensor(*[M([1])] * count)

    @pytest.mark.parametrize("value", [3.0, True, "2"])
    @pytest.mark.parametrize("build, message", [
        (TensorElement, "tensor arity must be 2 or 3, got {!r}"),
        (TensorElement.unit, "tensor arity must be 2 or 3, got {!r}"),
        (lambda n: SparsePolynomial.constant(n, 1), "variable count must be an integer, got {!r}"),
    ], ids=["TensorElement", "TensorElement.unit", "SparsePolynomial.constant"])
    def test_arity_and_variable_count_must_be_ints(self, build, message, value):
        # 3.0 and True compare equal to valid ints; "2" prints like one
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
            build(value)


def summed(pairs):
    """Add up (key, coefficient) pairs into a dict, zero sums included."""
    acc = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return acc


def slotwise_surjection_product(left, right):
    """The tensor product slot by slot, each slot by ``surjection_product``."""
    pairs = []
    for key1, v1 in left.items():
        for key2, v2 in right.items():
            slots = [surjection_product(a, b).items() for a, b in zip(key1, key2)]
            for choice in product(*slots):
                pairs.append((tuple(c for c, _ in choice), v1 * v2 * prod(m for _, m in choice)))
    return {key: v for key, v in summed(pairs).items() if v}


# Small slots keep the arity-3 products, up to 13**3 terms per key pair, fast.
slot_compositions = st.one_of(st.just(Composition()), compositions(max_weight=3, max_length=2))
signed = st.integers(-3, 3).filter(bool)


@st.composite
def tensor_pairs(draw):
    """Two signed tensors of one arity; for half of them, left * right cancels."""
    arity = draw(st.sampled_from([2, 3]))
    terms = st.dictionaries(st.tuples(*[slot_compositions] * arity), signed, min_size=1, max_size=2)
    p, q = TensorElement(arity, draw(terms)), TensorElement(arity, draw(terms))
    if draw(st.booleans()):
        return p + q, p - q  # the cross terms p*q and -q*p cancel
    return p, q


# The example multiplies two 15-key cubes into 8,055 terms; the strategy
# draws at most 2 terms a side.
@given(tensor_pairs())
@example((coproduct_first(M([1, 2, 3, 4]).coproduct()), coproduct_first(M([2, 1, 2, 1]).coproduct())))
@settings(max_examples=60, deadline=None)
def test_tensor_product_agrees_with_slotwise_surjection_product(pair):
    left, right = pair
    expected = slotwise_surjection_product(left._terms, right._terms)
    result = left * right
    assert {tuple(map(tuple, key)): v for key, v in result.terms()} == expected
    assert all(result._terms.values())


two_fold_terms = st.dictionaries(st.tuples(slot_compositions, slot_compositions), signed, min_size=1, max_size=3)


@given(two_fold_terms, two_fold_terms, st.booleans())
@settings(max_examples=60, deadline=None)
def test_three_fold_product_with_empty_third_slots_is_the_two_fold_product(p, q, cancel):
    # Ties the 3-fold product, computed slot by slot by its definition, to
    # the 2-fold product's loop.
    left, right = TensorElement(2, p), TensorElement(2, q)
    if cancel:
        left, right = left + right, left - right

    def padded(element):
        return TensorElement(3, {key + (Composition(),): v for key, v in element.terms()})

    result = padded(left) * padded(right)
    assert result == padded(left * right)
    assert all(result._terms.values())


# Every result built by ``_Sparse._wrap``, next to the same result summed term
# by term and read through the public constructor, which drops zero sums.
def _splits(c):
    return [(c[:i], c[i:]) for i in range(len(c) + 1)]


WRAPPED = {
    "coproduct": (
        lambda f, g, t, p: f.coproduct(),
        lambda f, g, t, p: TensorElement(2, summed((cut, v) for c, v in f.terms() for cut in _splits(c))),
    ),
    "reverse_indices": (
        lambda f, g, t, p: f.reverse_indices(),
        lambda f, g, t, p: QSymElement(summed((c[::-1], v) for c, v in f.terms())),
    ),
    "truncate": (
        lambda f, g, t, p: f.truncate(2),
        lambda f, g, t, p: QSymElement(summed((c, v) for c, v in f.terms() if len(c) <= 2)),
    ),
    "negation": (
        lambda f, g, t, p: -f,
        lambda f, g, t, p: QSymElement(summed((c, -v) for c, v in f.terms())),
    ),
    "tensor": (
        lambda f, g, t, p: tensor(f, g),
        lambda f, g, t, p: TensorElement(
            2, summed(((a, b), v * w) for a, v in f.terms() for b, w in g.terms())
        ),
    ),
    "triple_tensor": (
        lambda f, g, t, p: triple_tensor(f, g, f),
        lambda f, g, t, p: TensorElement(3, summed(
            ((a, b, c), u * v * w) for a, u in f.terms() for b, v in g.terms() for c, w in f.terms()
        )),
    ),
    "coproduct_first": (
        lambda f, g, t, p: coproduct_first(t),
        lambda f, g, t, p: TensorElement(3, summed(
            ((a, b, right), v) for (left, right), v in t.terms() for a, b in _splits(left)
        )),
    ),
    "coproduct_second": (
        lambda f, g, t, p: coproduct_second(t),
        lambda f, g, t, p: TensorElement(3, summed(
            ((left, a, b), v) for (left, right), v in t.terms() for a, b in _splits(right)
        )),
    ),
    "counit_first": (
        lambda f, g, t, p: counit_first(t),
        lambda f, g, t, p: QSymElement(summed((right, v) for (left, right), v in t.terms() if not left)),
    ),
    "counit_second": (
        lambda f, g, t, p: counit_second(t),
        lambda f, g, t, p: QSymElement(summed((left, v) for (left, right), v in t.terms() if not right)),
    ),
    "truncate_tensor": (
        lambda f, g, t, p: truncate_tensor(t, (1, 2)),
        lambda f, g, t, p: TensorElement(2, summed(
            (key, v) for key, v in t.terms() if len(key[0]) <= 1 and len(key[1]) <= 2
        )),
    ),
    "gluing_pullback": (
        lambda f, g, t, p: gluing_pullback(f, 1, 2),
        lambda f, g, t, p: TensorElement(2, summed(
            ((c[:k], c[k:]), v) for c, v in f.terms() for k in range(len(c) + 1) if k <= 1 and len(c) - k <= 2
        )),
    ),
    "face_map": (
        lambda f, g, t, p: face_map(p, (1, 3)),
        lambda f, g, t, p: SparsePolynomial(2, summed(((e[0], e[2]), v) for e, v in p.terms() if not e[1])),
    ),
    "from_polynomial": (
        lambda f, g, t, p: from_polynomial(expand(f, max(f.degree(), 1))),
        lambda f, g, t, p: f,
    ),
}

# The slot forms, against the summed routes of the first and second forms above.
WRAPPED.update({
    f"{op.__name__}_{slot}": (
        lambda f, g, t, p, op=op, slot=slot: op(t, slot),
        WRAPPED[f"{op.__name__.removesuffix('_at')}_{ordinal}"][1],
    )
    for slot, ordinal in enumerate(["first", "second"])
    for op in (coproduct_at, counit_at)
})

# Zero coefficients are drawn on purpose: the public constructors drop them
# before any wrapped operation sees the element.
small_compositions = st.one_of(st.just(Composition()), compositions(max_weight=4, max_length=3))
small_elements = st.dictionaries(small_compositions, st.integers(-3, 3), max_size=5).map(QSymElement)
small_tensors = st.dictionaries(
    st.tuples(small_compositions, small_compositions), st.integers(-3, 3), max_size=5
).map(lambda terms: TensorElement(2, terms))
small_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3), max_size=6
).map(lambda terms: SparsePolynomial(3, terms))


@pytest.mark.parametrize("name", WRAPPED)
@given(f=small_elements, g=small_elements, t=small_tensors, p=small_polynomials)
@settings(max_examples=25, deadline=None)
def test_wrapped_results_match_the_zero_filtering_route(name, f, g, t, p):
    wrapped, summed_route = WRAPPED[name]
    result, expected = wrapped(f, g, t, p), summed_route(f, g, t, p)
    assert type(result) is type(expected)
    assert result == expected
    assert 0 not in result._terms.values()


# Operations key their results by exact int tuples, whatever keys their
# operands hold (the constructors keep Composition keys); terms() alone wraps.
PLAIN_KEYED = {
    "mul": lambda f, g, slot: f * g,
    "coproduct": lambda f, g, slot: f.coproduct(),
    "antipode": lambda f, g, slot: f.antipode(),
    "reverse_indices": lambda f, g, slot: f.reverse_indices(),
    "truncate": lambda f, g, slot: (f * g).truncate(2),
    "coproduct_at": lambda f, g, slot: coproduct_at((f * g).coproduct(), slot),
    "map_slot": lambda f, g, slot: map_slot(f.coproduct(), slot, lambda m: m * g),
}


def _is_parts(key):
    return type(key) is tuple and all(type(part) is int for part in key)


@pytest.mark.parametrize("name", PLAIN_KEYED)
@given(f=small_elements, g=small_elements, slot=st.integers(0, 1))
@settings(max_examples=25, deadline=None)
def test_results_hold_plain_tuple_keys_and_terms_yields_compositions(name, f, g, slot):
    result = PLAIN_KEYED[name](f, g, slot)
    if isinstance(result, TensorElement):
        assert all(type(key) is tuple and all(map(_is_parts, key)) for key in result._terms)
        assert all(type(c) is Composition for key, _ in result.terms() for c in key)
        rebuilt = TensorElement(result.arity, dict(result.terms()))
    else:
        assert all(map(_is_parts, result._terms))
        assert all(type(c) is Composition for c, _ in result.terms())
        rebuilt = QSymElement(dict(result.terms()))
    assert result == rebuilt and rebuilt == result
    assert hash(result) == hash(rebuilt)
    for left in f._terms:
        for right in g._terms:
            assert all(_is_parts(key) for key, _ in _quasi_shuffle(left, right))


def test_public_combinatorics_still_return_compositions():
    c = Composition([2, 1, 3])
    assert c.splits() == [((), (2, 1, 3)), ((2,), (1, 3)), ((2, 1), (3,)), ((2, 1, 3), ())]
    assert all(type(p) is Composition and type(s) is Composition for p, s in c.splits())
    assert c.coarsenings() == [(2, 1, 3), (2, 4), (3, 3), (6,)]
    assert all(type(x) is Composition for x in c.coarsenings())
    assert all(type(x) is Composition for x in enumerate_compositions(4) + enumerate_lyndon(4))
    read_back = from_polynomial(expand(3 * M([1, 2]) - M([3]), 3))
    assert list(read_back.terms()) == [((1, 2), 3), ((3,), -1)]
    assert all(type(k) is Composition for k, _ in read_back.terms())


# terms() is pinned to the sort keys the types once used, written out here;
# small keys make weight and degree ties common.
CANONICAL_ORDER = {
    QSymElement: (lambda c: (sum(c), c), False),
    TensorElement: (lambda key: tuple((sum(c), c) for c in key), False),
    SparsePolynomial: (lambda exps: (sum(exps), exps), True),
    BetaElement: (lambda power: power, True),
}


@given(st.one_of(
    st.dictionaries(small_compositions, signed, max_size=8).map(QSymElement),
    st.dictionaries(
        st.tuples(small_compositions, small_compositions), signed, max_size=8
    ).map(lambda terms: TensorElement(2, terms)),
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), signed, max_size=8
    ).map(lambda terms: SparsePolynomial(3, terms)),
    st.dictionaries(st.integers(0, 4), small_elements.filter(bool), max_size=4).map(BetaElement),
))
@settings(max_examples=100, deadline=None)
def test_terms_run_in_the_canonical_order(element):
    key, descending = CANONICAL_ORDER[type(element)]
    keys = [k for k, _ in element.terms()]
    assert keys == sorted(keys, key=key, reverse=descending)
    assert len(keys) == len(element)


# Each element type checks a public key in its own _key, which the constructor
# and coefficient() share; a key of the wrong type fails as a bad value does.
@pytest.mark.parametrize("call", [
    lambda: QSymElement({5: 1}),
    lambda: SparsePolynomial(2, {5: 1}),
    lambda: TensorElement(2, {5: 1}),
    lambda: (3 * M([1, 2])).coefficient(5),
    lambda: SparsePolynomial(2, {(1, 0): 7}).coefficient(5),
    lambda: tensor(M([1]), M([2])).coefficient(5),
], ids=["qsym", "polynomial", "tensor", "qsym-coefficient", "polynomial-coefficient",
        "tensor-coefficient"])
def test_a_key_that_is_not_a_sequence_is_a_value_error(call):
    with pytest.raises(ValueError, match=r"^key 5 is malformed: "):
        call()


def test_a_monomial_of_a_non_sequence_is_a_value_error():
    with pytest.raises(ValueError, match=r"^composition 5 is malformed: "):
        QSymElement.monomial(5)


# Every count goes through one rule, so an argument is worded alike wherever
# it is read.
@pytest.mark.parametrize("value, problem", [
    (True, "an integer, got True"),
    (1.5, "an integer, got 1.5"),
    ("2", "an integer, got '2'"),
    (-1, "nonnegative, got -1"),
])
@pytest.mark.parametrize("what, build", [
    ("variable count", SparsePolynomial),
    ("variable count", lambda n: SparsePolynomial.constant(n, 1)),
    ("beta power", lambda n: BetaElement({n: 1})),
    ("exponent", lambda n: M([1]) ** n),
    ("variable count", lambda n: expand(M([1]), n)),
    ("variable count", lambda n: M([1]).truncate(n)),
    ("stratum depth", deep_stratum_class),
], ids=["SparsePolynomial", "SparsePolynomial.constant", "BetaElement", "pow", "expand",
        "truncate", "deep_stratum_class"])
def test_every_count_is_checked_by_one_rule(what, build, value, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be {problem}')}$"):
        build(value)
