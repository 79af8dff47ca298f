"""Parsers, printers, and their round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.algebra import QSymElement, TensorElement, _Sparse, monomial, tensor
from qsym.chow import BetaElement
from qsym.compositions import Composition, enumerate_compositions
from qsym.expansion import SparsePolynomial, expand
from qsym.syntax import (
    ParseError,
    format_beta,
    format_composition,
    format_polynomial,
    format_qsym,
    format_tensor,
    json_beta,
    json_polynomial,
    json_qsym,
    json_tensor,
    latex_beta,
    latex_composition,
    latex_polynomial,
    latex_qsym,
    latex_tensor,
    parse_beta,
    parse_composition,
    parse_qsym,
    parse_tensor,
)

M = monomial


def _long_sum_terms() -> list[tuple[Composition, Composition, int]]:
    """2,000 signed terms over 1,000 compositions, each appearing twice."""
    comps = [c for w in range(1, 11) for c in enumerate_compositions(w)][:1000]
    return [
        (c, comps[i // 2], (-1) ** i * (i % 4 + 1))
        for i, c in enumerate(comps + comps[::-1])
    ]


class TestParseComposition:
    def test_basic(self):
        assert parse_composition("[3,1,4]") == Composition([3, 1, 4])
        assert parse_composition("[]") == Composition()
        assert parse_composition(" [ 2 , 5 ] ") == Composition([2, 5])

    @pytest.mark.parametrize("bad", ["", "[", "[1,]", "[,1]", "[0]", "[1 2]", "[1]x", "(1)"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_composition(bad)

    def test_error_names_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_composition("[1,0]")


@pytest.mark.parametrize("parse,text,expected", [
    (parse_composition, "[3,1,4]", Composition([3, 1, 4])),
    (parse_qsym, "3*[1,2] - [2,1] + 1", 3 * M([1, 2]) - M([2, 1]) + 1),
    (parse_tensor, "2*[3,1] (x) [4] - [] (x) [1]",
     2 * tensor(M([3, 1]), M([4])) - tensor(M([]), M([1]))),
    (parse_beta, "([1]+2)*b^2 + [1,1]*[2]",
     BetaElement({2: M([1]) + 2, 0: M([1, 1]) * M([2])})),
])
def test_parsed_parts_are_validated_once(monkeypatch, parse, text, expected):
    # The cursor already rejects parts below 1, so the parsers build no
    # Composition through its validating __init__ (the calls the tracer's
    # compositions.constructed counter counts); parse_composition still
    # returns a Composition.
    init, calls = Composition.__init__, []
    monkeypatch.setattr(Composition, "__init__", lambda self, *a: calls.append(a) or init(self, *a))
    value = parse(text)
    assert calls == []
    monkeypatch.undo()
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("parse,text", [
    (parse_qsym, "3*[1,2] - [2,1] + 1"),
    (parse_tensor, "2*[3,1] (x) [4] - [] (x) [1]"),
    (parse_beta, "([1]+2)*b^2 + [1,1]*[2]"),
])
def test_parsers_take_no_public_key_check(monkeypatch, parse, text):
    # the parsers build their keys, so they store them through _new and _wrap
    def checked(self, key):
        raise AssertionError(f"public key check of {key!r}")

    monkeypatch.setattr(_Sparse, "_checked", checked)
    assert parse(text)


class TestParseQsym:
    def test_single_terms(self):
        assert parse_qsym("[1,2]") == M([1, 2])
        assert parse_qsym("3*[1,2]") == 3 * M([1, 2])
        assert parse_qsym("-[2]") == -M([2])
        assert parse_qsym("5") == QSymElement.from_int(5)
        assert parse_qsym("0") == QSymElement.zero()

    def test_combination(self):
        assert parse_qsym("3*[1,2] - [2,1] + 1") == 3 * M([1, 2]) - M([2, 1]) + 1

    def test_like_terms_merge(self):
        assert parse_qsym("[1] + [1] - 2*[1]") == QSymElement.zero()

    def test_whitespace_insensitive(self):
        assert parse_qsym("3*[1,2]-[2,1]+1") == parse_qsym(" 3 * [1,2] - [2,1] + 1 ")

    @pytest.mark.parametrize("bad", ["", "[1,2", "3*", "* [1]", "[1] + ", "3 3", "[1] [2]", "b"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_qsym(bad)

    def test_long_sum_matches_termwise_sum(self):
        terms = _long_sum_terms()
        text = " ".join(f"{'-' if v < 0 else '+'} {abs(v)}*{c}" for c, _, v in terms)
        expected = QSymElement.zero()
        for c, _, v in terms:
            expected = expected + v * M(c)
        assert parse_qsym(text) == expected


class TestParseTensor:
    def test_two_factors(self):
        assert parse_tensor("[3,1] (x) [4]") == tensor(M([3, 1]), M([4]))
        assert parse_tensor("[] (x) []") == TensorElement.unit(2)

    def test_three_factors(self):
        element = parse_tensor("[1] (x) [2] (x) [3]")
        assert element.arity == 3
        assert element.coefficient(([1], [2], [3])) == 1

    def test_coefficients_and_signs(self):
        element = parse_tensor("2*[3,1] (x) [4] - [] (x) [1]")
        assert element.coefficient(([3, 1], [4])) == 2
        assert element.coefficient(([], [1])) == -1

    def test_mixed_arity_rejected(self):
        with pytest.raises(ParseError, match="tensor terms mix 2 and 3 factors"):
            parse_tensor("[1] (x) [2] + [1] (x) [2] (x) [3]")

    def test_long_sum_matches_termwise_sum(self):
        terms = _long_sum_terms()
        text = " ".join(
            f"{'-' if v < 0 else '+'} {abs(v)}*{c} (x) {d}" for c, d, v in terms
        )
        expected = TensorElement(2)
        for c, d, v in terms:
            expected = expected + v * tensor(M(c), M(d))
        assert parse_tensor(text) == expected

    @pytest.mark.parametrize("bad", ["", "[1]", "[1] (x)", "(x) [1]", "[1] (x) [2] (x) [3] (x) [4]"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_tensor(bad)


class TestParseBeta:
    def test_plain_beta(self):
        assert parse_beta("b") == BetaElement.beta()
        assert parse_beta("b^3") == BetaElement({3: QSymElement.one()})
        assert parse_beta("-b + [1]") == BetaElement({1: QSymElement.from_int(-1), 0: M([1])})

    def test_factors_multiply(self):
        assert parse_beta("2*[1,2]*b^2") == BetaElement({2: 2 * M([1, 2])})
        assert parse_beta("([1]+2)*b^2 + [1,1]") == BetaElement(
            {2: M([1]) + 2, 0: M([1, 1])}
        )

    def test_parenthesized_sums(self):
        assert parse_beta("([1] - [2])*b") == BetaElement({1: M([1]) - M([2])})

    def test_pure_scalar(self):
        assert parse_beta("[1,1] + 3") == BetaElement({0: M([1, 1]) + 3})

    def test_two_beta_factors_rejected(self):
        with pytest.raises(ParseError):
            parse_beta("b*b")
        with pytest.raises(ParseError):
            parse_beta("b^2*[1]*b")

    @pytest.mark.parametrize("bad", ["", "b^", "()*b", "(b)*b", "b^-1", "*b"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_beta(bad)

    def test_long_sum_matches_termwise_sum(self):
        terms = _long_sum_terms()
        text = " ".join(
            f"{'-' if v < 0 else '+'} {abs(v)}*{c}*b^{i % 3}"
            for i, (c, _, v) in enumerate(terms)
        )
        expected = BetaElement.zero()
        for i, (c, _, v) in enumerate(terms):
            expected = expected + BetaElement({i % 3: v * M(c)})
        assert parse_beta(text) == expected


class TestFormatting:
    def test_composition(self):
        assert format_composition(Composition([3, 1, 4])) == "[3,1,4]"
        assert format_composition(Composition()) == "[]"

    def test_qsym(self):
        assert format_qsym(QSymElement.zero()) == "0"
        assert format_qsym(QSymElement.one()) == "1"
        assert format_qsym(-M([2])) == "-[2]"
        assert format_qsym(3 * M([1, 2]) - M([2, 1]) + 1) == "1 + 3*[1,2] - [2,1]"

    def test_qsym_canonical_order(self):
        f = M([2, 1]) + M([3]) + M([1, 1, 1])
        assert format_qsym(f) == "[1,1,1] + [2,1] + [3]"

    def test_tensor(self):
        assert format_tensor(TensorElement(2)) == "0"
        assert format_tensor(tensor(M([3, 1]), M([4]))) == "[3,1] (x) [4]"
        element = tensor(2 * M([3, 1]), M([4])) - tensor(QSymElement.one(), M([1]))
        assert format_tensor(element) == "-[] (x) [1] + 2*[3,1] (x) [4]"

    def test_beta(self):
        assert format_beta(BetaElement.zero()) == "0"
        assert format_beta(BetaElement.beta()) == "b"
        assert format_beta(BetaElement({3: -M([1])})) == "-[1]*b^3"
        assert format_beta(BetaElement({2: M([1]) + 2, 0: M([1, 1])})) == "(2 + [1])*b^2 + [1,1]"

    def test_polynomial(self):
        assert format_polynomial(SparsePolynomial.zero(2)) == "0"
        assert format_polynomial(SparsePolynomial.constant(2, -3)) == "-3"
        poly = SparsePolynomial(3, {(2, 1, 0): 2, (0, 0, 1): 1})
        assert format_polynomial(poly) == "2*a1^2*a2 + a3"

    def test_polynomial_descending_graded_lex(self):
        poly = SparsePolynomial(2, {(0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert format_polynomial(poly) == "a1*a2 + a1 + a2"


# Text and LaTeX of each type: the zero element, constants, the empty
# composition, coefficients of both signs with and without magnitude 1, tensor
# factors that are empty, and beta powers with and without a composition.
_PRINTERS = {
    Composition: (format_composition, latex_composition),
    QSymElement: (format_qsym, latex_qsym),
    TensorElement: (format_tensor, latex_tensor),
    BetaElement: (format_beta, latex_beta),
    SparsePolynomial: (format_polynomial, latex_polynomial),
}
_C = Composition
_PRINTED = {
    "composition-empty": (_C(), "[]", "M_{()}"),
    "composition": (_C([3, 1, 4]), "[3,1,4]", "M_{(3,1,4)}"),
    "composition-big-part": (_C([12, 1]), "[12,1]", "M_{(12,1)}"),
    "qsym-zero": (QSymElement.zero(), "0", "0"),
    "qsym-one": (QSymElement.one(), "1", "1"),
    "qsym-constant": (QSymElement.from_int(-5), "-5", "-5"),
    "qsym-plus-one": (M([2]), "[2]", "M_{(2)}"),
    "qsym-minus-one": (-M([2]), "-[2]", "-M_{(2)}"),
    "qsym-plus-k": (3 * M([1, 2]), "3*[1,2]", "3M_{(1,2)}"),
    "qsym-minus-k": (-4 * M([2, 1, 1]), "-4*[2,1,1]", "-4M_{(2,1,1)}"),
    "qsym-mixed": (
        3 * M([1, 2]) - M([2, 1]) + 1,
        "1 + 3*[1,2] - [2,1]",
        "1 + 3M_{(1,2)} - M_{(2,1)}",
    ),
    "tensor-zero": (TensorElement(2), "0", "0"),
    "tensor-zero-3": (TensorElement(3), "0", "0"),
    "tensor-unit": (TensorElement.unit(2), "[] (x) []", "1 \\otimes 1"),
    "tensor-2": (
        TensorElement(2, {(_C([3, 1]), _C([4])): 2, (_C(), _C([1])): -1}),
        "-[] (x) [1] + 2*[3,1] (x) [4]",
        "-1 \\otimes M_{(1)} + 2\\,M_{(3,1)} \\otimes M_{(4)}",
    ),
    "tensor-3": (
        TensorElement(3, {
            (_C(), _C([2, 1]), _C()): 2,
            (_C([1]), _C(), _C([3])): -1,
            (_C(), _C(), _C()): -3,
            (_C([1]), _C([1]), _C([1])): 1,
        }),
        "-3*[] (x) [] (x) [] + 2*[] (x) [2,1] (x) [] - [1] (x) [] (x) [3]"
        " + [1] (x) [1] (x) [1]",
        "-3\\,1 \\otimes 1 \\otimes 1 + 2\\,1 \\otimes M_{(2,1)} \\otimes 1"
        " - M_{(1)} \\otimes 1 \\otimes M_{(3)}"
        " + M_{(1)} \\otimes M_{(1)} \\otimes M_{(1)}",
    ),
    "beta-zero": (BetaElement.zero(), "0", "0"),
    "beta-one": (BetaElement.one(), "1", "1"),
    "beta-constant": (BetaElement({0: QSymElement.from_int(4)}), "4", "4"),
    "beta": (BetaElement.beta(), "b", "\\beta"),
    "beta-minus": (-BetaElement.beta(), "-b", "-\\beta"),
    "beta-constant-power": (
        BetaElement({2: QSymElement.from_int(-3)}), "-3*b^2", "-3\\beta^{2}"
    ),
    "beta-composition-coefficient": (
        BetaElement({1: 2 * M([1])}), "2*[1]*b", "2M_{(1)}\\beta"
    ),
    "beta-composition": (BetaElement({3: -M([1])}), "-[1]*b^3", "-M_{(1)}\\beta^{3}"),
    "beta-composition-power": (
        BetaElement({4: M([1, 2])}), "[1,2]*b^4", "M_{(1,2)}\\beta^{4}"
    ),
    "beta-multi-term": (
        BetaElement({2: M([1]) + 2, 0: M([1, 1])}),
        "(2 + [1])*b^2 + [1,1]",
        "(2 + M_{(1)})\\beta^{2} + M_{(1,1)}",
    ),
    "beta-mixed": (
        BetaElement({2: -7 * M([2]), 1: M([1]) - 2 * M([2, 1]), 0: 3 * M([1]) - 5}),
        "-7*[2]*b^2 + ([1] - 2*[2,1])*b - 5 + 3*[1]",
        "-7M_{(2)}\\beta^{2} + (M_{(1)} - 2M_{(2,1)})\\beta - 5 + 3M_{(1)}",
    ),
    "polynomial-zero": (SparsePolynomial.zero(2), "0", "0"),
    "polynomial-constant": (SparsePolynomial.constant(2, -3), "-3", "-3"),
    "polynomial-linear": (SparsePolynomial(2, {(1, 0): 1}), "a1", "\\alpha_{1}"),
    "polynomial-power": (SparsePolynomial(2, {(0, 3): -1}), "-a2^3", "-\\alpha_{2}^{3}"),
    "polynomial-mixed": (
        SparsePolynomial(3, {(2, 1, 0): 2, (0, 0, 1): 1, (0, 0, 0): -7, (1, 1, 1): -4}),
        "2*a1^2*a2 - 4*a1*a2*a3 + a3 - 7",
        "2\\alpha_{1}^{2}\\alpha_{2} - 4\\alpha_{1}\\alpha_{2}\\alpha_{3}"
        " + \\alpha_{3} - 7",
    ),
}


@pytest.mark.parametrize("value, text, latex", _PRINTED.values(), ids=_PRINTED)
def test_printer_table(value, text, latex):
    format_text, format_latex = _PRINTERS[type(value)]
    assert format_text(value) == text
    assert format_latex(value) == latex


class TestRoundTrips:
    def test_qsym_examples(self):
        for text in ["0", "1", "-[2]", "3*[1,2] - [2,1] + 1", "[1,1,1] + [2,1]"]:
            element = parse_qsym(text)
            assert parse_qsym(format_qsym(element)) == element

    def test_tensor_examples(self):
        for text in ["[3,1] (x) [4]", "2*[1] (x) [] - [] (x) [2]", "[1] (x) [2] (x) [3]"]:
            element = parse_tensor(text)
            assert parse_tensor(format_tensor(element)) == element

    def test_beta_examples(self):
        for text in ["b", "-b + [1]", "([1]+2)*b^2 + [1,1]", "2*[1,2]*b^3 - 4"]:
            element = parse_beta(text)
            assert parse_beta(format_beta(element)) == element


class TestJson:
    def test_qsym(self):
        assert json_qsym(3 * M([1, 2]) + 1) == [
            {"composition": [], "coefficient": 1},
            {"composition": [1, 2], "coefficient": 3},
        ]

    def test_tensor(self):
        assert json_tensor(tensor(M([3, 1]), 2 * M([4]))) == [
            {"factors": [[3, 1], [4]], "coefficient": 2},
        ]

    def test_beta(self):
        assert json_beta(BetaElement({1: -QSymElement.one(), 0: M([1])})) == [
            {"beta_power": 1, "coefficient": [{"composition": [], "coefficient": -1}]},
            {"beta_power": 0, "coefficient": [{"composition": [1], "coefficient": 1}]},
        ]

    def test_polynomial(self):
        assert json_polynomial(SparsePolynomial(2, {(1, 1): 2})) == {
            "num_vars": 2,
            "terms": [{"exponents": [1, 1], "coefficient": 2}],
        }


class TestLatex:
    def test_qsym(self):
        assert latex_qsym(3 * M([1, 2]) - M([2, 1]) + 1) == "1 + 3M_{(1,2)} - M_{(2,1)}"
        assert latex_qsym(QSymElement.zero()) == "0"

    def test_tensor(self):
        element = tensor(M([3, 1]), M([4])) + TensorElement(2, {(Composition(), Composition([1, 4])): 1})
        assert latex_tensor(element) == "1 \\otimes M_{(1,4)} + M_{(3,1)} \\otimes M_{(4)}"

    def test_beta(self):
        assert latex_beta(BetaElement({1: -QSymElement.one(), 0: M([1])})) == "-\\beta + M_{(1)}"
        assert latex_beta(BetaElement({2: M([1]) + 2})) == "(2 + M_{(1)})\\beta^{2}"

    def test_polynomial(self):
        poly = SparsePolynomial(3, {(2, 1, 0): 2, (0, 0, 1): 1})
        assert latex_polynomial(poly) == "2\\alpha_{1}^{2}\\alpha_{2} + \\alpha_{3}"


compositions_strategy = st.lists(st.integers(1, 6), max_size=4).map(Composition)

qsym_strategy = st.dictionaries(
    compositions_strategy, st.integers(-9, 9), max_size=5
).map(QSymElement)


@given(qsym_strategy)
@settings(max_examples=200, deadline=None)
def test_qsym_round_trip_fuzz(element):
    assert parse_qsym(format_qsym(element)) == element


@given(st.dictionaries(
    st.tuples(compositions_strategy, compositions_strategy),
    st.integers(-9, 9),
    max_size=4,
))
@settings(max_examples=200, deadline=None)
def test_tensor_round_trip_fuzz(terms):
    element = TensorElement(2, terms)
    if element.is_zero():
        return
    assert parse_tensor(format_tensor(element)) == element


@given(st.dictionaries(st.integers(0, 4), qsym_strategy, max_size=3))
@settings(max_examples=200, deadline=None)
def test_beta_round_trip_fuzz(coeffs):
    element = BetaElement(coeffs)
    assert parse_beta(format_beta(element)) == element


@given(qsym_strategy, st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_polynomial_expansion_format_is_stable(element, num_vars):
    poly = expand(element, num_vars)
    assert format_polynomial(poly) == format_polynomial(expand(element, num_vars))


_PARSERS = {
    "composition": parse_composition,
    "qsym": parse_qsym,
    "tensor": parse_tensor,
    "beta": parse_beta,
}

# Strings over the token alphabet, plus a character outside it, reach the
# parsers' error sites far more often than arbitrary text does.
_token_strings = st.lists(
    st.sampled_from(["[", "]", ",", "+", "-", "*", "^", "(", ")", "(x)", "b",
                     "0", "1", "2", "13", " ", "x"]),
    max_size=14,
).map("".join)


@given(st.text(max_size=30) | _token_strings)
@settings(max_examples=700, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    for parse in _PARSERS.values():
        try:
            parse(text)
        except ParseError:
            pass


# Every reachable error message of the reader, word for word.  Sites: the
# tokenizer, "expected X" at end of input and at a token (X one of '[', ']',
# '*', ')', an integer, a factor), a trailing token (where a sign or the end
# was expected), composition parts, tensor arities and beta factors.
_ERRORS = [
    ("composition", "", "expected '[' but input ended"),
    ("composition", "1", "expected '[' but found '1' at position 0"),
    ("composition", "[", "expected an integer but input ended"),
    ("composition", "[b]", "expected an integer but found 'b' at position 1"),
    ("composition", "[1", "expected ']' but input ended"),
    ("composition", "[1 2]", "expected ']' but found '2' at position 3"),
    ("composition", "[x", "unexpected character 'x' at position 1"),
    ("composition", " [1] x", "unexpected character 'x' at position 5"),
    ("composition", "[]]", "unexpected ']' at position 2"),
    ("composition", "[0]", "composition parts must be positive, found '0' at position 1"),
    ("composition", "[1,00]", "composition parts must be positive, found '00' at position 3"),
    ("qsym", "", "expected '[' but input ended"),
    ("qsym", "[1]+", "expected '[' but input ended"),
    ("qsym", "-b", "expected '[' but found 'b' at position 1"),
    ("qsym", "2*3", "expected '[' but found '3' at position 2"),
    ("qsym", "[1,]", "expected an integer but found ']' at position 3"),
    ("qsym", "[1] [2]", "unexpected '[' at position 4"),
    ("qsym", "3 * [1] - 2 2", "unexpected '2' at position 12"),
    ("qsym", "[1] % 2", "unexpected character '%' at position 4"),
    ("qsym", "\u0663*[1]", "unexpected character '\u0663' at position 0"),
    ("qsym", "[2,0]", "composition parts must be positive, found '0' at position 3"),
    ("tensor", "", "expected '[' but input ended"),
    ("tensor", "[1] (x) [2] +", "expected '[' but input ended"),
    ("tensor", "2", "expected '*' but input ended"),
    ("tensor", "2 [1]", "expected '*' but found '[' at position 2"),
    ("tensor", "[1] (x) [2] )", "unexpected ')' at position 12"),
    ("tensor", "[1](y)", "unexpected character 'y' at position 4"),
    ("tensor", "[1]", "tensor terms need 2 or 3 factors, found 1"),
    ("tensor", "[1] (x) [2] (x) [3] (x) [4]", "tensor terms need 2 or 3 factors, found 4"),
    ("tensor", "[1] (x) [2] + [1] (x) [2] (x) [3]", "tensor terms mix 2 and 3 factors"),
    ("tensor", "2*[1] (x) [] - [] (x) [] (x) []", "tensor terms mix 2 and 3 factors"),
    ("beta", "", "expected a factor but input ended"),
    ("beta", "[1]*", "expected a factor but input ended"),
    ("beta", "*", "expected a factor but found '*' at position 0"),
    ("beta", "(x)", "expected a factor but found '(x)' at position 0"),
    ("beta", "b^", "expected an integer but input ended"),
    ("beta", "b^b", "expected an integer but found 'b' at position 2"),
    ("beta", "([1]", "expected ')' but input ended"),
    ("beta", "([1]]", "expected ')' but found ']' at position 4"),
    ("beta", "((1))", "expected '[' but found '(' at position 1"),
    ("beta", "b b", "unexpected 'b' at position 2"),
    ("beta", "b*b", "more than one beta factor in a term at position 2"),
    ("beta", "2*b^2*[1]*b", "more than one beta factor in a term at position 10"),
    ("beta", "[0]", "composition parts must be positive, found '0' at position 1"),
]


@pytest.mark.parametrize("kind, text, message", _ERRORS)
def test_parse_error_messages(kind, text, message):
    with pytest.raises(ParseError) as info:
        _PARSERS[kind](text)
    assert str(info.value) == message

