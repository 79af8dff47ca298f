"""Compositions, the lexicographic order, Lyndon words, and counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.compositions import (
    Composition,
    enumerate_compositions,
    enumerate_lyndon,
    lyndon_count,
    mobius,
)
from qsym.expansion import lyndon_monomial_multisets, verify_lyndon_free_generation
from reference_impls import coarsenings_by_merging, is_lyndon_by_rotation


def all_compositions(max_weight):
    out = []
    for d in range(max_weight + 1):
        out.extend(enumerate_compositions(d))
    return out


class TestConstruction:
    def test_parts_and_weight(self):
        c = Composition([3, 1, 4])
        assert c == (3, 1, 4)
        assert c.weight == 8
        assert len(c) == 3
        assert list(c) == [3, 1, 4]
        assert c[1] == 1

    def test_empty(self):
        c = Composition()
        assert c == ()
        assert c.weight == 0
        assert len(c) == 0

    def test_copy_constructor(self):
        c = Composition([2, 5])
        assert Composition(c) == c

    @pytest.mark.parametrize("bad", [[0], [1, -2], [1.5], [True], ["1"], 5, None])
    def test_invalid_parts(self, bad):
        with pytest.raises(ValueError):
            Composition(bad)

    def test_equality_and_hash(self):
        assert Composition([1, 2]) == Composition((1, 2))
        assert Composition([1, 2]) != Composition([2, 1])
        assert hash(Composition([1, 2])) == hash(Composition((1, 2)))
        assert len({Composition([1, 2]), Composition([1, 2]), Composition([3])}) == 2

    def test_str_and_repr(self):
        assert str(Composition([3, 1, 4])) == "[3,1,4]"
        assert str(Composition()) == "[]"
        assert repr(Composition([3, 1, 4])) == "Composition([3, 1, 4])"


class TestOperations:
    def test_concat(self):
        assert Composition([3, 1]).concat(Composition([4])) == Composition([3, 1, 4])
        assert Composition().concat(Composition([2])) == Composition([2])

    def test_reverse_is_an_involution(self):
        for comp in all_compositions(6):
            assert comp.reverse().reverse() == comp

    def test_reverse_example(self):
        assert Composition([3, 1, 4]).reverse() == Composition([4, 1, 3])

    def test_splits(self):
        splits = Composition([3, 1, 4]).splits()
        assert splits == [
            (Composition(), Composition([3, 1, 4])),
            (Composition([3]), Composition([1, 4])),
            (Composition([3, 1]), Composition([4])),
            (Composition([3, 1, 4]), Composition()),
        ]
        assert Composition().splits() == [(Composition(), Composition())]

    def test_splits_reassemble(self):
        for comp in all_compositions(6):
            assert len(comp.splits()) == len(comp) + 1
            for left, right in comp.splits():
                assert left.concat(right) == comp


class TestLexOrder:
    def test_matches_tuple_order_exhaustively(self):
        comps = all_compositions(5)
        for a in comps:
            for b in comps:
                assert (a < b) == (tuple(a) < tuple(b))
                assert (a == b) == (tuple(a) == tuple(b))

    def test_prefix_is_smaller(self):
        assert Composition([1, 2]) < Composition([1, 2, 1])
        assert Composition([1, 2, 1]) > Composition([1, 2])

    def test_first_difference_decides(self):
        assert Composition([1, 3]) > Composition([1, 2, 9])

    def test_rich_comparisons(self):
        assert Composition([1, 2]) < Composition([2])
        assert Composition([2]) <= Composition([2])
        assert Composition([2, 1]) > Composition([2])
        assert Composition([2]) >= Composition([1, 9])

    def test_transitivity(self):
        comps = all_compositions(4)
        for a in comps:
            for b in comps:
                for c in comps:
                    if a <= b and b <= c:
                        assert a <= c


class TestCoarsenings:
    def test_counts_are_powers_of_two(self):
        for comp in all_compositions(7):
            coarser = comp.coarsenings()
            expected = 2 ** (len(comp) - 1) if len(comp) else 1
            assert len(coarser) == expected
            assert len(set(coarser)) == expected

    def test_matches_adjacent_merging(self):
        for comp in all_compositions(7):
            assert {tuple(c) for c in comp.coarsenings()} == coarsenings_by_merging(tuple(comp))

    def test_weight_preserved(self):
        for comp in all_compositions(6):
            assert all(c.weight == comp.weight for c in comp.coarsenings())

    def test_empty(self):
        assert Composition().coarsenings() == [Composition()]

    @given(st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_built_in_strictly_increasing_lex_order(self, parts):
        coarser = Composition(parts).coarsenings()
        assert all(a < b for a, b in zip(coarser, coarser[1:]))
        assert coarser == sorted(coarsenings_by_merging(tuple(parts)))

    def test_example(self):
        coarser = {tuple(c) for c in Composition([1, 2, 1]).coarsenings()}
        assert coarser == {(1, 2, 1), (3, 1), (1, 3), (4,)}


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_compositions(0)) == 1
        for n in range(1, 9):
            assert len(enumerate_compositions(n)) == 2 ** (n - 1)

    def test_sorted_and_distinct(self):
        for n in range(8):
            comps = enumerate_compositions(n)
            assert comps == sorted(comps)
            assert len(set(comps)) == len(comps)
            assert all(c.weight == n for c in comps)

    def test_weight_four(self):
        assert [tuple(c) for c in enumerate_compositions(4)] == [
            (1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3),
            (2, 1, 1), (2, 2), (3, 1), (4,),
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_compositions(-1)

    def test_enumeration_skips_the_public_coarsenings(self, monkeypatch):
        # the tracer files Composition.coarsenings under its own layer, so
        # enumeration coarsens through the plain-tuple helper instead
        expected = enumerate_compositions(5), enumerate_lyndon(5)

        def traced(self):
            raise AssertionError("enumeration called Composition.coarsenings")

        monkeypatch.setattr(Composition, "coarsenings", traced)
        assert (enumerate_compositions(5), enumerate_lyndon(5)) == expected
        assert all(type(c) is Composition for c in enumerate_compositions(5))


class TestLyndon:
    def test_agrees_with_rotation_oracle(self):
        for comp in all_compositions(8):
            if len(comp):
                assert comp.is_lyndon() == is_lyndon_by_rotation(tuple(comp))

    def test_empty_is_not_lyndon(self):
        assert not Composition().is_lyndon()

    def test_known_cases(self):
        assert Composition([1, 2]).is_lyndon()
        assert not Composition([2, 1]).is_lyndon()
        assert not Composition([1, 1]).is_lyndon()
        assert Composition([1, 1, 2]).is_lyndon()
        assert Composition([5]).is_lyndon()

    def test_enumerate_matches_counts(self):
        for n in range(1, 11):
            listed = enumerate_lyndon(n)
            assert len(listed) == lyndon_count(n)
            assert listed == sorted(listed)
            assert all(c.is_lyndon() and c.weight == n for c in listed)

    def test_weight_four_list(self):
        assert [tuple(c) for c in enumerate_lyndon(4)] == [(1, 1, 2), (1, 3), (4,)]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            enumerate_lyndon(0)
        with pytest.raises(ValueError):
            lyndon_count(0)


class TestMobiusAndCounts:
    def test_mobius_values(self):
        known = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
        assert [mobius(n) for n in range(1, 21)] == known

    def test_mobius_sum_over_divisors(self):
        for n in range(1, 61):
            total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
            assert total == (1 if n == 1 else 0)

    def test_mobius_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_lyndon_count_sequence(self):
        assert [lyndon_count(n) for n in range(1, 8)] == [1, 1, 2, 3, 6, 9, 18]

    def test_divisor_identity(self):
        for n in range(1, 17):
            total = sum(d * lyndon_count(d) for d in range(1, n + 1) if n % d == 0)
            assert total == 2**n - 1


# Each takes a count: an int, not a bool and not a float, even an integral one.
COUNT_TAKERS = {
    enumerate_compositions: ("weight", "nonnegative", -1),
    enumerate_lyndon: ("weight", "positive", 0),
    lyndon_count: ("weight", "positive", 0),
    mobius: ("argument", "positive", 0),
    lyndon_monomial_multisets: ("weight", "nonnegative", -1),
    verify_lyndon_free_generation: ("weight", "positive", 0),
}


@pytest.mark.parametrize("fn", COUNT_TAKERS, ids=lambda fn: fn.__name__)
class TestCountChecks:
    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5])
    def test_rejects_a_bool_or_a_float(self, fn, value):
        what = COUNT_TAKERS[fn][0]
        with pytest.raises(ValueError, match=rf"^{what} must be an integer, got {value!r}$"):
            fn(value)

    def test_rejects_a_count_out_of_range(self, fn):
        what, sign, value = COUNT_TAKERS[fn]
        with pytest.raises(ValueError, match=rf"^{what} must be {sign}, got {value}$"):
            fn(value)
