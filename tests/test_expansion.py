"""Polynomial expansions, recognition, face maps, and the rank certificate."""

import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsym.expansion
from qsym import algebra
from qsym.algebra import QSymElement, TensorElement, monomial, tensor
from qsym.compositions import Composition, enumerate_compositions, enumerate_lyndon
from qsym.expansion import (
    SparsePolynomial,
    _basis_expansion,
    _certify_lyndon_free,
    _packed_product,
    _shuffle_lead,
    expand,
    face_map,
    from_polynomial,
    is_quasisymmetric,
    lyndon_generation_matrix,
    lyndon_monomial_multisets,
    rational_rank,
    verify_lyndon_free_generation,
)
from qsym.syntax import format_composition, parse_qsym
from qsym.verification import lyndon_free_checks
from reference_impls import (
    bareiss_determinant,
    coarsenings_by_merging,
    elementary_images,
    face_map_by_substitution,
    is_lyndon_by_rotation,
    polynomial_product,
    product_matrix,
    surjection_product,
)

M = monomial


def _multisets_of_weight(weight):
    """Tuples of compositions, any compositions, of total weight ``weight``."""
    return st.sampled_from(enumerate_compositions(weight)).flatmap(
        lambda weights: st.tuples(*(st.sampled_from(enumerate_compositions(w)) for w in weights))
    )


def all_compositions(max_weight):
    out = []
    for d in range(max_weight + 1):
        out.extend(enumerate_compositions(d))
    return out


def _packed_terms(poly):
    """The packed coefficients of ``poly``, read term by term: those of the
    monomials whose nonzero exponents are the first ``l``, keyed by them."""
    out = {}
    for exps, coeff in poly.terms():
        parts = tuple(filter(None, exps))
        if exps[:len(parts)] == parts:
            out[parts] = coeff
    return out


class TestSparsePolynomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparsePolynomial(-1)
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1, -1): 1})
        # exponents and variable counts must be ints, not floats or bools;
        # the message names the value
        for num_vars, terms, shown in [
            (2, {(1.5, 0): 1}, r"1\.5"),
            (2, {(1, 2.0): 1}, r"2\.0"),
            (2, {(True, 0): 1}, "True"),
            (2, {(1.5, 0): 0}, r"1\.5"),
            (2.0, {(1, 0): 1}, r"2\.0"),
            (True, {(1,): 1}, "True"),
        ]:
            with pytest.raises(ValueError, match=shown):
                SparsePolynomial(num_vars, terms)

    @pytest.mark.parametrize("key, message", [
        ((True, 0), re.escape("exponents must be integers, got True in (True, 0)")),
        ((1,), re.escape("exponent tuple (1,) does not match 2 variables")),
        ((-1, 0), re.escape("negative exponent in (-1, 0)")),
    ], ids=["bool", "short", "negative"])
    def test_coefficient_checks_the_key_as_the_constructor_does(self, key, message):
        poly = SparsePolynomial(2, {(1, 0): 7})
        with pytest.raises(ValueError, match=f"^{message}$"):
            SparsePolynomial(2, {key: 7})
        with pytest.raises(ValueError, match=f"^{message}$"):
            poly.coefficient(key)
        assert poly.coefficient([1, 0]) == 7 and poly.coefficient((0, 1)) == 0

    def test_zero_coefficients_dropped(self):
        assert SparsePolynomial(2, {(1, 0): 0}).is_zero()

    def test_arithmetic(self):
        p = SparsePolynomial(2, {(1, 0): 2, (0, 1): 1})
        q = SparsePolynomial(2, {(0, 1): -1, (1, 1): 3})
        assert (p + q) == SparsePolynomial(2, {(1, 0): 2, (1, 1): 3})
        assert (p - p).is_zero()
        assert 2 * p == p + p
        assert -p == -1 * p

    def test_product(self):
        p = SparsePolynomial(2, {(1, 0): 1, (0, 1): 1})
        assert p * p == SparsePolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_matches_dict_convolution(self, data):
        num_vars = data.draw(st.sampled_from([0, 1, 5, 6]))
        polys = st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * num_vars),
            st.integers(-5, 5).filter(bool),
            max_size=6,
        )
        left, right = data.draw(polys), data.draw(polys)
        product = SparsePolynomial(num_vars, left) * SparsePolynomial(num_vars, right)
        assert product == SparsePolynomial(num_vars, polynomial_product(left, right, num_vars))

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.sampled_from(all_compositions(5)), st.sampled_from(all_compositions(5))))
    def test_packed_product_reads_the_full_product(self, pair):
        # the full product stays the witness for the oracle's shortcut
        a, b = pair
        n = len(a) + len(b)
        assert _packed_product(a, b) == _packed_terms(expand(M(a), n) * expand(M(b), n))

    def test_packed_product_keys_and_zeros(self):
        # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2, whose packed monomials are
        # x1^2 and x1 x2
        assert _packed_product((1,), (1,)) == {(2,): 1, (1, 1): 2}
        assert _packed_product((), ()) == {(): 1}
        assert _packed_product((2, 1), ()) == {(2, 1): 1}

    def test_variable_count_mismatch(self):
        p = SparsePolynomial(2, {(1, 0): 1})
        q = SparsePolynomial(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            p + q
        with pytest.raises(ValueError):
            p * q

    def test_degree(self):
        assert SparsePolynomial(2).degree() == 0
        assert SparsePolynomial(2, {(2, 3): 1, (1, 0): 5}).degree() == 5

    def test_terms_descending_graded_lex(self):
        p = SparsePolynomial(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 0): 7})
        assert [e for e, _ in p.terms()] == [(2, 0), (1, 1), (0, 1), (0, 0)]

    def test_constant(self):
        c = SparsePolynomial.constant(3, 5)
        assert c.coefficient((0, 0, 0)) == 5
        assert c.degree() == 0


class TestExpand:
    def test_single_part(self):
        assert expand(M([2]), 2) == SparsePolynomial(2, {(2, 0): 1, (0, 2): 1})

    def test_two_parts_three_vars(self):
        assert expand(M([2, 1]), 3) == SparsePolynomial(3, {
            (2, 1, 0): 1, (2, 0, 1): 1, (0, 2, 1): 1,
        })

    def test_placement_counts(self):
        from math import comb

        for comp in all_compositions(5):
            for n in range(6):
                poly = expand(M(comp), n)
                expected = comb(n, len(comp)) if len(comp) <= n else 0
                assert len(list(poly.terms())) == expected

    def test_unit_expands_to_one(self):
        assert expand(QSymElement.one(), 3) == SparsePolynomial.constant(3, 1)

    def test_too_long_vanishes(self):
        assert expand(M([1, 1, 1]), 2).is_zero()

    def test_zero_variables(self):
        assert expand(M([1]), 0).is_zero()
        assert expand(QSymElement.from_int(4), 0) == SparsePolynomial.constant(0, 4)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.lists(
        st.tuples(st.sampled_from(all_compositions(4)), st.booleans(), st.integers(-4, 4)),
        max_size=5,
    ))
    def test_linear(self, n, terms):
        # A term is parsed (a Composition key) or built by a product (a plain
        # tuple key); the empty composition is drawn too.  Placements of
        # distinct compositions never meet, so M_c places C(n, len c) monomials.
        def basis(comp, built):
            return M(comp) * M([]) if built else parse_qsym(format_composition(comp))

        f = sum((coeff * basis(comp, built) for comp, built, coeff in terms), QSymElement.zero())
        assert expand(f, n) == sum(
            (coeff * expand(M(comp), n) for comp, coeff in f.terms()), SparsePolynomial.zero(n)
        )
        assert len(expand(f, n)) == sum(comb(n, len(comp)) for comp in f._terms if len(comp) <= n)

    def test_negative_variable_count(self):
        with pytest.raises(ValueError, match=r"^variable count must be nonnegative, got -1$"):
            expand(M([1]), -1)
        for bad in (True, 2.0, None):
            with pytest.raises(ValueError, match=rf"^variable count must be an integer, got {bad!r}$"):
                expand(M([1]), bad)

    def test_multiplicative_against_recursion(self):
        # the two product routes share no code: one recurses on leading
        # parts, the other multiplies honest polynomials
        comps = [c for c in all_compositions(5) if len(c)]
        for a in comps:
            for b in comps:
                if a.weight + b.weight <= 5:
                    n = a.weight + b.weight
                    assert expand(M(a) * M(b), n) == expand(M(a), n) * expand(M(b), n)

    def test_injective_on_compositions_no_longer_than_the_variable_count(self):
        # The lemma behind the oracle's len(a) + len(b) variables: the
        # monomial a1^c1...al^cl appears in the expansion of M_c and no other.
        for n in range(6):
            comps = [c for c in all_compositions(7) if len(c) <= n]
            for beta in comps:
                poly = expand(M(beta), n)
                for alpha in comps:
                    padded = tuple(alpha) + (0,) * (n - len(alpha))
                    assert poly.coefficient(padded) == (1 if alpha == beta else 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.sampled_from([c for c in all_compositions(6) if len(c) <= n]),
                  st.integers(-4, 4)),
        max_size=5,
    ))))
    def test_packed_coefficients_read_back_the_element(self, case):
        # The lemma behind the oracle's packed comparison: in n variables,
        # the packed coefficient at c is the coefficient of M_c, len(c) <= n.
        n, terms = case
        f = sum((coeff * M(comp) for comp, coeff in terms), QSymElement.zero())
        poly = expand(f, n)
        assert _packed_terms(poly) == f._terms


def _is_full_expansion(poly, parts, num_vars):
    """Whether ``poly`` is M_parts in ``num_vars`` variables: every placement once.

    The C(n, len) exponent tuples that read ``parts`` when zeros are dropped
    are exactly the strictly increasing placements of the parts.
    """
    return len(poly) == comb(num_vars, len(parts)) and all(
        len(exps) == num_vars and tuple(e for e in exps if e) == parts and coeff == 1
        for exps, coeff in poly.terms()
    )


class TestBasisExpansionMemo:
    """The basis-expansion memo: bounded by stored terms, exact under eviction."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _basis_expansion.cache_clear()
        yield
        _basis_expansion.cache_clear()

    def test_stream_stays_within_the_term_budget(self, monkeypatch):
        monkeypatch.setattr(_basis_expansion, "budget", 200)
        monkeypatch.setattr(_basis_expansion, "entry_cap", 40)
        stream = [(c, n) for n in range(9) for c in all_compositions(4)]
        for comp, n in stream + [((1, 1, 1, 1), 12)] + stream:
            assert _is_full_expansion(expand(M(comp), n), tuple(comp), n)
            sizes = [len(value) or 1 for value in _basis_expansion._entries.values()]
            assert sum(sizes) == _basis_expansion.terms <= 200
            assert max(sizes) <= 40
        assert _basis_expansion.evictions > 0

    def test_oversized_expansion_is_exact_and_not_retained(self):
        poly = expand(M([1, 1, 1, 1]), 30)
        assert len(poly) == 27_405 > _basis_expansion.entry_cap
        assert _is_full_expansion(poly, (1, 1, 1, 1), 30)
        assert ((1, 1, 1, 1), 30) not in _basis_expansion._entries
        assert _basis_expansion.cache_info().terms == 0


class TestQuasisymmetry:
    def test_expansions_are_quasisymmetric(self):
        for comp in all_compositions(5):
            for n in range(5):
                assert is_quasisymmetric(expand(M(comp), n))

    def test_missing_placement_fails(self):
        poly = SparsePolynomial(2, {(1, 0): 1})
        assert not is_quasisymmetric(poly)

    def test_unequal_coefficients_fail(self):
        poly = SparsePolynomial(2, {(1, 0): 1, (0, 1): 2})
        assert not is_quasisymmetric(poly)

    def test_symmetric_but_wrong_pattern_fails(self):
        # a1*a2 + a2*a3 misses the (1,3) placement
        poly = SparsePolynomial(3, {(1, 1, 0): 1, (0, 1, 1): 1})
        assert not is_quasisymmetric(poly)

    def test_constants_are_quasisymmetric(self):
        assert is_quasisymmetric(SparsePolynomial.constant(3, -2))
        assert is_quasisymmetric(SparsePolynomial.zero(4))


class TestFromPolynomial:
    def test_round_trip(self):
        for comp in all_compositions(6):
            f = M(comp)
            n = max(comp.weight, 1)
            assert from_polynomial(expand(f, n)) == f
            assert from_polynomial(expand(f, n + 1)) == f

    def test_round_trip_on_combinations(self):
        f = 3 * M([1, 2]) - M([2, 1]) + 1 + M([4])
        assert from_polynomial(expand(f, 4)) == f

    def test_too_few_variables_rejected(self):
        poly = expand(M([1, 1]), 1)  # vanishes, fine
        assert from_polynomial(poly).is_zero()
        with pytest.raises(ValueError):
            from_polynomial(expand(M([3]), 2))

    def test_non_quasisymmetric_rejected(self):
        with pytest.raises(ValueError):
            from_polynomial(SparsePolynomial(2, {(1, 0): 1}))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(all_compositions(5)), st.integers(-4, 4)), max_size=6),
        st.tuples(st.sampled_from(all_compositions(5)), st.integers(1, 4)),
        st.integers(0, 2),
        st.data(),
    )
    def test_read_back_of_combinations(self, terms, cancelled, extra, data):
        """Expansions of integer combinations read back exactly, and a changed
        placement of a present pattern is caught."""
        comp, k = cancelled
        f = sum((v * M(c) for c, v in terms + [(comp, k), (comp, -k)]), QSymElement.zero())
        n = f.degree() + extra
        poly = expand(f, n)
        assert is_quasisymmetric(poly)
        assert from_polynomial(poly) == f
        # a pattern with one placement (empty, or as long as n) stays quasisymmetric
        movable = [exps for exps, _ in poly.terms() if 0 < n - exps.count(0) < n]
        if movable:
            exps = data.draw(st.sampled_from(movable))
            coefficients = dict(poly.terms())
            coefficients[exps] += data.draw(st.sampled_from([-2, -1, 1, 2]))
            changed = SparsePolynomial(n, coefficients)
            assert not is_quasisymmetric(changed)
            with pytest.raises(ValueError, match="^polynomial is not quasisymmetric$"):
                from_polynomial(changed)


class TestFaceMaps:
    def test_validation(self):
        poly = expand(M([1]), 3)
        with pytest.raises(ValueError):
            face_map(poly, (2, 1))
        with pytest.raises(ValueError):
            face_map(poly, (0,))
        with pytest.raises(ValueError):
            face_map(poly, (4,))
        with pytest.raises(ValueError):
            face_map(poly, (True,))
        with pytest.raises(ValueError, match="positions must be integers"):
            face_map(poly, ([1],))

    def test_positions_are_read_once(self):
        poly = expand(M([1]), 3)
        assert face_map(poly, iter([1, 3])) == face_map(poly, (1, 3))
        with pytest.raises(ValueError, match=r"got \(1, \[2\], 3\)$"):
            face_map(poly, iter([1, [2], 3]))
        with pytest.raises(TypeError, match="not iterable") as raised:
            face_map(poly, 3)
        assert raised.value.__context__ is None

    def test_other_sparse_types_are_refused(self):
        # a tensor's shape is an int (its arity), so only the variable count
        # keeps it from being mapped as if its keys were exponent tuples
        for element in (M([1]), TensorElement.unit(), tensor(M([1]), M([2]))):
            with pytest.raises(AttributeError, match="num_vars"):
                face_map(element, (1,))

    def test_bool_rejected_after_the_equal_int_is_cached(self):
        poly = expand(M([1]), 3)
        assert face_map(poly, (1,)) == SparsePolynomial(1, {(1,): 1})
        with pytest.raises(ValueError, match="positions must be integers"):
            face_map(poly, (True,))

    @pytest.mark.parametrize("positions, message", [
        ((4,), r"positions \(4,\) out of range for 3 variables"),
        ((0, 2), r"positions \(0, 2\) out of range for 3 variables"),
        ((2, 1), r"positions must be strictly increasing, got \(2, 1\)"),
        ((2, 2), r"positions must be strictly increasing, got \(2, 2\)"),
    ])
    def test_bad_positions_raise_on_every_call(self, positions, message):
        poly = expand(M([1]), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                face_map(poly, positions)

    def test_identity_selection(self):
        poly = expand(M([2, 1]), 3)
        assert face_map(poly, (1, 2, 3)) == poly

    def test_empty_selection_keeps_constant(self):
        poly = expand(M([1]) + 4, 2)
        assert face_map(poly, ()) == SparsePolynomial.constant(0, 4)

    def test_kills_terms_using_dropped_variables(self):
        poly = SparsePolynomial(3, {(1, 1, 0): 2, (0, 0, 3): 5})
        assert face_map(poly, (1, 2)) == SparsePolynomial(2, {(1, 1): 2})
        assert face_map(poly, (3,)) == SparsePolynomial(1, {(3,): 5})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_substitution(self, data):
        num_vars = data.draw(st.integers(0, 6))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * num_vars),
            st.integers(-5, 5).filter(bool),
            max_size=8,
        ))
        poly = SparsePolynomial(num_vars, terms)
        every = tuple(range(1, num_vars + 1))
        mask = data.draw(st.lists(st.booleans(), min_size=num_vars, max_size=num_vars))
        drawn = tuple(p for p, kept in zip(every, mask) if kept)
        # faces that kill no variable, one and several, beside the drawn one
        one_killed = [tuple(p for p in every if p != q) for q in every]
        for positions in [drawn, (), every, *((p,) for p in every), *one_killed]:
            expected = face_map_by_substitution(terms, num_vars, positions)
            assert face_map(poly, positions) == SparsePolynomial(len(positions), expected)

    @pytest.mark.parametrize("positions", [(1, 2, 3), (1, 3), (2,), ()])
    @pytest.mark.parametrize("counts", [(3, 4), (4, 3)])
    def test_compiled_face_is_keyed_by_variable_count(self, positions, counts):
        # one compiled face per variable count: (1, 2, 3) kills no variable of 3
        # and one of 4, (1, 3) one of 3 and two of 4
        qsym.expansion._face_selectors.cache_clear()
        for num_vars in counts:
            terms = {exps: k + 1 for k, exps in enumerate(product([0, 1], repeat=num_vars))}
            expected = face_map_by_substitution(terms, num_vars, positions)
            image = face_map(SparsePolynomial(num_vars, terms), positions)
            assert image == SparsePolynomial(len(positions), expected)

    @pytest.mark.parametrize("positions", [(1, 2, 3), (1, 3), (2,), ()])
    def test_images_hash_like_the_equal_polynomial(self, positions):
        terms = {(0, 0, 0): 5, (1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 2): -1, (2, 0, 1): 4}
        image = face_map(SparsePolynomial(3, terms), positions)
        rebuilt = SparsePolynomial(len(positions), dict(reversed(list(image.terms()))))
        assert image == rebuilt and rebuilt == image and hash(image) == hash(rebuilt)

    def test_equality_needs_the_same_type_and_shape(self):
        poly, one = SparsePolynomial.constant(0, 1), QSymElement.one()
        for other in (one, M([1]), TensorElement.unit(), tensor(M([1]), one)):
            assert poly != other and other != poly
            assert not poly == other and not other == poly
        assert SparsePolynomial(2) != SparsePolynomial(3)
        assert TensorElement(2) != TensorElement(3)

    def test_restriction_recovers_smaller_expansion(self):
        from itertools import combinations

        for comp in all_compositions(4):
            f = M(comp)
            for n in range(5):
                poly = expand(f, n)
                for m in range(n + 1):
                    for chosen in combinations(range(1, n + 1), m):
                        assert face_map(poly, chosen) == expand(f, m)


class TestZeroInsertion:
    def test_holds_everywhere(self):
        for comp in all_compositions(4):
            f = M(comp)
            for n in range(5):
                for slot in range(1, n + 2):
                    survivors = tuple(p for p in range(1, n + 2) if p != slot)
                    assert face_map(expand(f, n + 1), survivors) == expand(f, n)


class TestRationalRank:
    def test_identity(self):
        rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert rational_rank(rows) == 4

    def test_singular(self):
        rows = [
            [Fraction(1), Fraction(2)],
            [Fraction(2), Fraction(4)],
        ]
        assert rational_rank(rows) == 1

    def test_zero_matrix(self):
        rows = [[Fraction(0)] * 3 for _ in range(2)]
        assert rational_rank(rows) == 0
        assert rational_rank([]) == 0

    def test_rectangular(self):
        rows = [
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
        assert rational_rank(rows) == 2

    def test_vandermonde_is_nonsingular(self):
        points = [Fraction(1, 2), Fraction(2), Fraction(-3), Fraction(7, 5)]
        rows = [[x**j for j in range(4)] for x in points]
        assert rational_rank(rows) == 4

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rational_rank([[Fraction(1)], [Fraction(1), Fraction(2)]])

    @staticmethod
    def _determinant(rows):
        """Cofactor expansion along the first row."""
        if not rows:
            return Fraction(1)
        return sum(
            (-1) ** j * value * TestRationalRank._determinant([row[:j] + row[j + 1:] for row in rows[1:]])
            for j, value in enumerate(rows[0])
            if value
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda shape: st.lists(
            st.lists(st.integers(-2, 2).map(Fraction), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ))
    )
    def test_rank_is_the_largest_nonzero_minor(self, rows):
        rank = max(
            (
                k
                for k in range(1, min(len(rows), len(rows[0])) + 1)
                for picked in combinations(rows, k)
                for cols in combinations(range(len(rows[0])), k)
                if self._determinant([[row[c] for c in cols] for row in picked])
            ),
            default=0,
        )
        assert rational_rank(rows) == rank


class TestLyndonGeneration:
    def test_multiset_counts_match_dimension(self):
        for weight in range(1, 7):
            assert len(lyndon_monomial_multisets(weight)) == 2 ** (weight - 1)

    def test_weight_zero(self):
        assert lyndon_monomial_multisets(0) == [()]

    def test_weight_three_multisets(self):
        found = {tuple(tuple(c) for c in ms) for ms in lyndon_monomial_multisets(3)}
        assert found == {
            ((1,), (1,), (1,)),
            ((1,), (2,)),
            ((3,),),
            ((1, 2),),
        }

    def test_multisets_are_lyndon(self):
        for ms in lyndon_monomial_multisets(5):
            assert all(c.is_lyndon() for c in ms)
            assert sum(c.weight for c in ms) == 5

    def test_multisets_match_a_brute_force(self):
        # every multiset of generators, each drawn in list order, filtered by
        # total weight
        for weight in range(7):
            generators = [g for w in range(1, weight + 1) for g in enumerate_lyndon(w)]
            brute = [
                ms
                for size in range(weight + 1)
                for ms in combinations_with_replacement(generators, size)
                if sum(c.weight for c in ms) == weight
            ]
            assert sorted(lyndon_monomial_multisets(weight)) == sorted(brute), weight

    def test_multisets_are_distinct_and_in_canonical_order(self):
        for weight in range(11):
            multisets = lyndon_monomial_multisets(weight)
            assert len(set(multisets)) == len(multisets), weight
            for ms in multisets:
                assert list(ms) == sorted(ms, key=lambda c: (c.weight, c)), ms

    def test_suite_enumerates_each_weight_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return enumerate_lyndon(n)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("qsym"):
                if getattr(module, "enumerate_lyndon", None) is enumerate_lyndon:
                    monkeypatch.setattr(module, "enumerate_lyndon", counting)
        checks = lyndon_free_checks(9)
        assert all(c.passed for c in checks)
        assert sorted(calls) == list(range(1, 10))

    def test_matrix_shape(self):
        matrix = lyndon_generation_matrix(4)
        assert len(matrix) == 8
        assert all(len(row) == 8 for row in matrix)

    def test_free_generation_through_weight_ten(self):
        for weight in range(1, 11):
            dimension, count, rank = verify_lyndon_free_generation(weight)
            assert dimension == 2 ** (weight - 1)
            assert count == dimension
            assert rank == dimension

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            verify_lyndon_free_generation(0)

    def test_certificate_rank_matches_elimination(self):
        for weight in range(1, 8):
            _, _, rank = verify_lyndon_free_generation(weight)
            assert rank == rational_rank(lyndon_generation_matrix(weight))

    def test_leading_terms_are_decreasing_concatenations(self):
        # leading under (length, lex); the coefficient counts how often the
        # shuffle of equal factors produces the same concatenation
        for weight in range(1, 9):
            for multiset in lyndon_monomial_multisets(weight):
                product = QSymElement.one()
                for comp in multiset:
                    product = product * M(comp)
                lead, coeff = max(product.terms(), key=lambda t: (len(t[0]), t[0]))
                factors = sorted(multiset, reverse=True)
                assert lead == tuple(part for comp in factors for part in comp)
                assert coeff == prod(factorial(m) for m in Counter(multiset).values())

    def test_shuffle_leads_match_full_products_through_weight_ten(self):
        # the full-product route: build each Lyndon monomial and read its
        # (length, lex) leading term
        for weight in range(1, 11):
            memo = {}
            for multiset in lyndon_monomial_multisets(weight):
                terms = prod(map(M, multiset), start=QSymElement.one())._terms
                _, lead = max(zip(map(len, terms), terms))
                state = tuple(sorted(map(tuple, multiset)))
                assert _shuffle_lead(state, memo) == (tuple(lead), terms[lead]), multiset

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple), min_size=1, max_size=3)
        .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        .filter(lambda words: sum(map(len, words)) <= 8)
    )
    def test_shuffle_lead_is_the_top_term_of_the_surjection_product(self, words):
        # any words, repeats and non-Lyndon words included; a term of a
        # product is no longer than its factors together, so the fold keeps
        # only full-length terms, which is all the top term can come from
        product = {(): 1}
        for word in words:
            folded = {}
            for term, coeff in product.items():
                for key, count in surjection_product(term, word).items():
                    if len(key) == len(term) + len(word):
                        folded[key] = folded.get(key, 0) + coeff * count
            product = folded
        lead = max(product)
        assert _shuffle_lead(tuple(sorted(words)), {}) == (lead, product[lead])

    def test_certificate_leaves_the_kernel_memo_alone(self):
        for weight in range(1, 11):
            before = algebra._quasi_shuffle.cache_info()
            verify_lyndon_free_generation(weight)
            assert algebra._quasi_shuffle.cache_info() == before, weight

    def test_repeated_multiset_is_counted_once(self, monkeypatch):
        original = lyndon_monomial_multisets

        def with_repeat(weight):
            multisets = original(weight)
            return multisets + multisets[-1:]

        monkeypatch.setattr(qsym.expansion, "lyndon_monomial_multisets", with_repeat)
        dimension, count, rank = verify_lyndon_free_generation(5)
        assert (dimension, count) == (16, 17)
        assert rank == count - 1

    @pytest.mark.parametrize(
        "multiset", [((3, 1), (2,)), ((1, 1), (1, 1))], ids=["concatenation", "coefficient"]
    )
    def test_failed_prediction_is_not_counted(self, monkeypatch, multiset):
        # non-Lyndon factors: [3,1]*[2] leads with [3,2,1], not the
        # concatenation [3,1,2]; [1,1]*[1,1] leads with [1,1,1,1], but 6
        # times.  The product is left out of the rank, and no elimination
        # runs in its place.
        factors = tuple(Composition(c) for c in multiset)
        monkeypatch.setattr(qsym.expansion, "lyndon_monomial_multisets", lambda weight: [factors])
        ranked = []
        monkeypatch.setattr(qsym.expansion, "rational_rank", ranked.append)
        weight = sum(c.weight for c in factors)
        assert verify_lyndon_free_generation(weight)[1:] == (1, 0)
        assert ranked == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 7).flatmap(lambda weight: st.tuples(
            st.just(weight),
            st.lists(_multisets_of_weight(weight), min_size=1, max_size=4).flatmap(
                lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
            ),
        ))
    )
    def test_certified_rank_is_a_lower_bound(self, case):
        # any factors, Lyndon or not, repeats included: the counted products
        # are independent, so their number never exceeds the exact rank
        weight, multisets = case
        columns = enumerate_compositions(weight)
        rows = []
        for multiset in multisets:
            terms = prod(map(M, multiset), start=QSymElement.one())._terms
            rows.append([Fraction(terms.get(comp, 0)) for comp in columns])
        _, count, rank, uncounted = _certify_lyndon_free(weight, multisets)
        assert count == len(multisets)
        assert rank <= rational_rank(rows)
        assert (uncounted is None) == (rank == count)


def _lyndon_by_reference(weight):
    """The Lyndon compositions of ``weight`` in lex order, by the reference routes."""
    return [c for c in sorted(coarsenings_by_merging((1,) * weight)) if is_lyndon_by_rotation(c)]


class TestIntegralFreeness:
    """QSym is free over the integers (Hazewinkel, Adv. Math. 164, 2001), on
    the generators e_n(M_alpha) for alpha Lyndon with gcd of parts 1.  The
    ``lyndon-free`` suite certifies freeness over Q only: there the products
    lead with the coefficient prod m_i!, which is not a unit.  Every route
    here is a reference route, sharing no code with the package."""

    @staticmethod
    def _generators(top):
        """(weight, e_n(M_alpha)) for every generator of weight at most ``top``."""
        generators = []
        for v in range(1, top + 1):
            for alpha in _lyndon_by_reference(v):
                if gcd(*alpha) == 1:
                    e = elementary_images(alpha, top // v)  # raises if n e_n is not divisible by n
                    generators += [(n * v, e[n]) for n in range(1, len(e))]
        return generators

    def test_elementary_images_of_one_part(self):
        # e_n(M_(a)) = M_(a,...,a), n parts
        for a in (1, 2, 3):
            assert elementary_images((a,), 3) == [{(): 1}, {(a,): 1}, {(a, a): 1}, {(a, a, a): 1}]

    @pytest.mark.parametrize("weight", range(1, 8))
    def test_generator_products_are_a_basis_over_the_integers(self, weight):
        matrix = product_matrix(self._generators(weight), weight)
        assert len(matrix) == len(matrix[0]) == 2 ** (weight - 1)
        assert bareiss_determinant(matrix) in (1, -1)

    @pytest.mark.parametrize("weight, determinant", [(2, 2), (3, -6)])
    def test_lyndon_monomial_products_are_not(self, weight, determinant):
        # M_1^2 = M_2 + 2 M_11: a basis over Q, but not over the integers
        generators = [(v, {alpha: 1}) for v in range(1, weight + 1) for alpha in _lyndon_by_reference(v)]
        assert bareiss_determinant(product_matrix(generators, weight)) == determinant

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )))
    def test_bareiss_matches_cofactor_expansion(self, rows):
        assert bareiss_determinant(rows) == TestRationalRank._determinant(rows)
