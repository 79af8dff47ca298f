"""Gluing pullbacks, stratum classes, and the beta extension."""

import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsym import chow
from qsym.algebra import QSymElement, TensorElement, monomial, tensor
from qsym.chow import (
    BetaElement,
    deep_stratum_class,
    gluing_matches_coproduct,
    gluing_pullback,
    marked_point_involution,
    truncate_tensor,
)
from qsym.compositions import Composition, enumerate_compositions
from qsym.expansion import expand

M = monomial


def all_compositions(max_weight):
    out = []
    for d in range(max_weight + 1):
        out.extend(enumerate_compositions(d))
    return out


class TestTruncateTensor:
    def test_drops_long_factors(self):
        element = M([1, 2, 1]).coproduct()
        kept = truncate_tensor(element, (1, 2))
        assert kept == TensorElement(2, {
            (Composition([1]), Composition([2, 1])): 1,
        })

    def test_bound_validation(self):
        element = tensor(M([1]), M([1]))
        with pytest.raises(ValueError):
            truncate_tensor(element, (1,))
        with pytest.raises(ValueError):
            truncate_tensor(element, (1, -1))

    @pytest.mark.parametrize("bounds", [(1.5, 2), (True, 2), ("a", 2)])
    def test_non_int_bound_rejected(self, bounds):
        element = tensor(M([1]), M([1]))
        with pytest.raises(ValueError, match=re.escape(repr(bounds))):
            truncate_tensor(element, bounds)

    @pytest.mark.parametrize("bounds", [5, None])
    def test_bounds_that_are_not_iterable_are_a_value_error(self, bounds):
        element = tensor(M([1]), M([1]))
        with pytest.raises(ValueError, match=rf"length bounds {bounds} are malformed: .* not iterable"):
            truncate_tensor(element, bounds)

    def test_zero_bounds(self):
        element = M([1]).coproduct()
        assert truncate_tensor(element, (0, 0)).is_zero()
        unit = TensorElement.unit(2)
        assert truncate_tensor(unit, (0, 0)) == unit

    @pytest.mark.parametrize("n1", range(5))
    def test_pullback_keys_read_from_the_split_expansion(self, n1):
        # A monomial of M_c in n1 + n2 variables whose two halves are packed,
        # (p, 0, .., 0 | s, 0, .., 0), is the expansion of the pullback term
        # M_p (x) M_s.  The expansion shares no code with gluing_pullback, so
        # a pullback that keeps a term too long for its slot fails here.
        for n2 in range(5):
            for comp in all_compositions(5):
                f = M(comp)
                expected = {}
                for exps, coeff in expand(f, n1 + n2)._terms.items():
                    first, second = exps[:n1], exps[n1:]
                    p, s = tuple(filter(None, first)), tuple(filter(None, second))
                    if first[: len(p)] == p and second[: len(s)] == s:
                        expected[p, s] = coeff
                assert gluing_pullback(f, n1, n2)._terms == expected, (comp, n1, n2)


class TestGluingPullback:
    def test_example(self):
        result = gluing_pullback(M([1, 2]), 1, 2)
        assert result == TensorElement(2, {
            (Composition(), Composition([1, 2])): 1,
            (Composition([1]), Composition([2])): 1,
        })

    def test_full_bounds_recover_coproduct(self):
        for comp in all_compositions(5):
            f = M(comp)
            assert gluing_pullback(f, comp.weight, comp.weight) == f.coproduct()

    def test_builds_only_the_cuts_that_fit(self, monkeypatch):
        # no coproduct is built and no truncation filters one
        def refused(*args):
            raise AssertionError("coproduct or truncation")

        monkeypatch.setattr(QSymElement, "coproduct", refused)
        monkeypatch.setattr(chow, "truncate_tensor", refused)
        expected = tensor(M([1]), M([2, 3])) + tensor(M([]), M([4])) + tensor(M([4]), M([]))
        assert gluing_pullback(M([1, 2, 3]) + M([4]), 1, 2) == expected
        assert gluing_pullback(M([1, 2, 3]), 1, 1).is_zero()

    def test_linear(self):
        f, g = M([1, 2]), M([3])
        assert gluing_pullback(f + g, 2, 2) == gluing_pullback(f, 2, 2) + gluing_pullback(g, 2, 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=r"^variable counts must be nonnegative, got -1, 2$"):
            gluing_pullback(M([1]), -1, 2)
        for n1, n2 in [(1.5, 1), (1, True), (2.0, 2)]:
            with pytest.raises(ValueError, match=rf"^variable counts must be integers, got {n1!r}, {n2!r}$"):
                gluing_pullback(M([1, 1]), n1, n2)

    def test_matches_coproduct_through_weight_five(self):
        for comp in all_compositions(5):
            assert gluing_matches_coproduct(M(comp))


class TestDeepStratum:
    def test_classes(self):
        assert deep_stratum_class(0) == QSymElement.one()
        assert deep_stratum_class(1) == M([1])
        assert deep_stratum_class(3) == M([1, 1, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=r"^stratum depth must be nonnegative, got -1$"):
            deep_stratum_class(-1)
        for bad in (True, 2.0):
            with pytest.raises(ValueError, match=rf"^stratum depth must be an integer, got {bad!r}$"):
                deep_stratum_class(bad)

    def test_coproduct_splits_the_chain(self):
        for d in range(6):
            delta = deep_stratum_class(d).coproduct()
            expected = TensorElement(2, {
                (Composition([1] * i), Composition([1] * (d - i))): 1
                for i in range(d + 1)
            })
            assert delta == expected


class TestBetaElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaElement({-1: QSymElement.one()})
        with pytest.raises(ValueError):
            BetaElement({True: QSymElement.one()})

    def test_zero_coefficients_dropped(self):
        assert BetaElement({2: QSymElement.zero()}).is_zero()

    def test_constructors(self):
        assert BetaElement.beta() == BetaElement({1: QSymElement.one()})
        assert BetaElement.one() == BetaElement.from_qsym(QSymElement.one())
        assert BetaElement.zero().is_zero()

    def test_coercion(self):
        b = BetaElement.beta()
        assert b + 1 == BetaElement({1: QSymElement.one(), 0: QSymElement.one()})
        assert b + M([2]) == BetaElement({1: QSymElement.one(), 0: M([2])})
        assert 2 * b == b + b

    def test_product_convolves_powers(self):
        b = BetaElement.beta()
        x = BetaElement({0: M([1])})
        assert b * b == BetaElement({2: QSymElement.one()})
        assert (b + x) * (b - x) == BetaElement({2: QSymElement.one(), 0: -(M([1]) * M([1]))})

    def test_power(self):
        b = BetaElement.beta()
        assert b**3 == BetaElement({3: QSymElement.one()})
        assert (b + 1) ** 2 == b * b + 2 * b + 1
        with pytest.raises(ValueError):
            b**-2
        with pytest.raises(ValueError, match="True"):
            b**True

    def test_terms_descending(self):
        x = BetaElement({0: M([1]), 2: QSymElement.one(), 1: M([2])})
        assert [p for p, _ in x.terms()] == [2, 1, 0]

    def test_degrees(self):
        x = BetaElement({2: M([1, 1]), 0: M([1])})
        assert x.beta_degree() == 2
        assert x.total_degree() == 4
        assert BetaElement.zero().total_degree() == 0

    def test_coefficient_lookup(self):
        x = BetaElement({1: M([2])})
        assert x.coefficient(1) == M([2])
        assert x.coefficient(0).is_zero()
        assert x.coefficient(-1).is_zero()

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1"])
    def test_coefficient_rejects_non_int_powers(self, bad):
        x = BetaElement({1: M([2])})
        with pytest.raises(ValueError, match=rf"^beta power must be an integer, got {re.escape(repr(bad))}$"):
            x.coefficient(bad)


class TestMarkedPointInvolution:
    def test_image_of_beta(self):
        assert marked_point_involution(BetaElement.beta()) == BetaElement(
            {1: QSymElement.from_int(-1), 0: M([1])}
        )

    def test_image_of_scalars(self):
        x = BetaElement.from_qsym(M([1, 2]))
        assert marked_point_involution(x) == BetaElement.from_qsym(M([2, 1]))

    def test_squares_to_identity(self):
        generators = []
        for comp in all_compositions(4):
            for k in range(5 - comp.weight):
                generators.append(BetaElement({k: M(comp)}))
        for g in generators:
            assert marked_point_involution(marked_point_involution(g)) == g

    @staticmethod
    def _per_term(element):
        """The involution term by term: a fresh power of -b + [1] per term, summed with +."""
        image_of_beta = BetaElement({1: QSymElement.from_int(-1), 0: M([1])})
        result = BetaElement.zero()
        for power, value in element.terms():
            result = result + BetaElement.from_qsym(value.reverse_indices()) * image_of_beta**power
        return result

    def test_matches_the_per_term_formula(self):
        # every generator of the tau suite at bound 6, and their sum, which
        # has every beta power 0..6 at once
        generators = [
            BetaElement({k: M(comp)})
            for comp in all_compositions(6)
            for k in range(7 - comp.weight)
        ]
        for x in generators + [sum(generators, BetaElement.zero())]:
            assert marked_point_involution(x) == self._per_term(x)

    def test_builds_no_beta_product(self, monkeypatch):
        x = BetaElement({3: M([1, 2]), 1: -3 * M([2]), 0: QSymElement.from_int(5)})
        expected = self._per_term(x)

        def no_product(self, other):
            raise AssertionError("BetaElement product")

        monkeypatch.setattr(BetaElement, "__mul__", no_product)
        assert marked_point_involution(x) == expected

    def test_preserves_total_degree(self):
        x = BetaElement({2: M([1, 2]), 1: QSymElement.one()})
        assert marked_point_involution(x).total_degree() == x.total_degree()

    def test_multiplicative(self):
        xs = [
            BetaElement.beta(),
            BetaElement({0: M([1])}),
            BetaElement({1: M([1]), 0: QSymElement.from_int(2)}),
        ]
        for x in xs:
            for y in xs:
                assert marked_point_involution(x * y) == (
                    marked_point_involution(x) * marked_point_involution(y)
                )

    def test_additive(self):
        x = BetaElement({2: M([1])})
        y = BetaElement({0: M([3])})
        assert marked_point_involution(x + y) == (
            marked_point_involution(x) + marked_point_involution(y)
        )


qsym_strategy = st.dictionaries(
    st.lists(st.integers(1, 4), max_size=3).map(Composition), st.integers(-3, 3), max_size=3
).map(QSymElement)


beta_strategy = st.dictionaries(
    st.integers(0, 6),
    st.dictionaries(
        st.lists(st.integers(1, 3), max_size=2).map(Composition), st.integers(-3, 3), max_size=3
    ).map(QSymElement),
    max_size=4,
).map(BetaElement)


@given(beta_strategy)
# images that cancel: b^2 - 2*[1]*b maps to b^2 - [1]*[1], with nothing at
# b^1, and b^6 - 6*[1]*b^5 has nothing at b^5
@example(BetaElement({2: 1, 1: -2 * M([1])}))
@example(BetaElement({6: 1, 5: -6 * M([1]), 0: -3}))
@settings(max_examples=100, deadline=None)
def test_involution_matches_the_beta_powers(x):
    image = marked_point_involution(x)
    assert image == TestMarkedPointInvolution._per_term(x)
    assert marked_point_involution(image) == x


@given(st.integers(-5, 5), qsym_strategy)
@example(0, QSymElement())
@settings(max_examples=100, deadline=None)
def test_values_equal_to_scalars_hash_like_them(n, q):
    scalar = QSymElement.from_int(n)
    for value, lower in [
        (scalar, n),
        (BetaElement.from_qsym(q), q),
        (BetaElement.from_qsym(scalar), scalar),
        (BetaElement({0: n}), n),
    ]:
        assert value == lower
        assert hash(value) == hash(lower)


# The polynomial oracle (qsym.expansion) shares no code with the coproduct or
# the index reversal, so these two identities test them from outside.
@given(qsym_strategy, st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_reversal_reverses_the_variables(f, n):
    expected = {exps[::-1]: coeff for exps, coeff in expand(f, n).terms()}
    assert dict(expand(f.reverse_indices(), n).terms()) == expected


@given(qsym_strategy, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_gluing_splits_the_variables(f, n1, n2):
    # M_c(x_1..x_n1, y_1..y_n2) is the sum over the pullback's terms p (x) s
    # of M_p(x) * M_s(y)
    glued = {}
    for (p, s), coeff in gluing_pullback(f, n1, n2).terms():
        for (left, a), (right, b) in product(expand(M(p), n1).terms(), expand(M(s), n2).terms()):
            glued[left + right] = glued.get(left + right, 0) + coeff * a * b
    assert {k: v for k, v in glued.items() if v} == dict(expand(f, n1 + n2).terms())
    assert gluing_matches_coproduct(f)


slot_compositions = st.lists(st.integers(1, 3), max_size=4).map(Composition)
signed = st.integers(-3, 3).filter(bool)


@st.composite
def tensors_with_bounds(draw, arity=st.sampled_from([2, 3])):
    """A signed tensor of arity 2 or 3 and one length bound per slot."""
    arity = draw(arity)
    terms = draw(st.dictionaries(st.tuples(*[slot_compositions] * arity), signed, max_size=8))
    return TensorElement(arity, terms), draw(st.lists(st.integers(0, 4), min_size=arity, max_size=arity))


@given(tensors_with_bounds(), st.sampled_from(["tuple", "list", "generator"]))
@settings(max_examples=100, deadline=None)
def test_truncation_keeps_exactly_the_terms_that_fit(case, form):
    element, bounds = case
    expected = {
        key: coeff for key, coeff in element.terms() if all(len(c) <= b for c, b in zip(key, bounds))
    }
    passed = {"tuple": tuple, "list": list, "generator": lambda b: (x for x in b)}[form](bounds)
    result = truncate_tensor(element, passed)
    assert result.arity == element.arity
    assert dict(result.terms()) == expected


@given(tensors_with_bounds(arity=st.just(2)))
@settings(max_examples=100, deadline=None)
def test_three_fold_truncation_with_a_zero_third_bound_is_the_two_fold_one(case):
    # Ties the 3-fold truncation, which filters its third slot first, to the
    # 2-fold one: an empty third slot fits a bound of 0, anything else fails it.
    element, bounds = case
    padded = TensorElement(3, {key + (Composition(),): v for key, v in element.terms()})
    longer = TensorElement(3, {key + (Composition([1]),): v for key, v in element.terms()})
    expected = {key + (Composition(),): v for key, v in truncate_tensor(element, bounds).terms()}
    assert dict(truncate_tensor(padded, (*bounds, 0)).terms()) == expected
    assert truncate_tensor(padded + longer, (*bounds, 0)) == TensorElement(3, expected)

