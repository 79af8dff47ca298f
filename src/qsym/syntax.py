"""Parsing and printing for ring elements.

The surface syntax is small:

* composition: ``[3,1,4]``, with ``[]`` for the empty one
* basis combination: ``3*[1,2] - [2,1] + 1`` (a bare integer is a multiple
  of the empty-composition basis element)
* tensor: ``[3,1] (x) [4]``, summed with optional integer prefixes
* beta polynomial: ``([1]+2)*b^2 + [1,1]``; a term is a product of integer,
  composition, ``b``-power, and parenthesized-combination factors, with at
  most one ``b`` power per term

One reader serves all four parsers.  The tokenizer yields ``(text,
position)`` pairs ending in a sentinel ``("", len(text))``, so the cursor
never checks for the end; an integer is a token whose text is digits.  The
cursor has one signed-sum loop (``signed``) for the three sums, one check
that a parse used every token (``whole``), and one helper (``fail``) for
every "expected X but found T at position P" / "but input ended" error.

Printers emit the same syntax back, always in canonical term order, so
formatting is deterministic and round-trips through the parsers.  Text and
LaTeX come from one printer per type, a method of the style table ``_Style``
(brackets, separators, ``b`` or ``\\beta``, variable names and powers); each
public ``format_*`` or ``latex_*`` name is that method bound to ``_TEXT`` or
``_LATEX``.  JSON renderers build data instead of strings, so they stay
separate.  LaTeX and JSON are write-only.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, NoReturn, TypeVar

from .algebra import QSymElement, TensorElement
from .chow import BetaElement
from .compositions import Composition, _composition as _as_composition
from .expansion import SparsePolynomial

_T = TypeVar("_T")


class ParseError(ValueError):
    """Raised on malformed input, naming the offending token and position."""


# A token, whitespace, or any other character (an error).
_TOKEN_RE = re.compile(r"(\(x\)|[0-9]+|[b\[\](),+\-*^])|\s+|(\S)")
_SIGNS = {"+": 1, "-": -1}


def _tokenize(text: str) -> list[tuple[str, int]]:
    """``(text, position)`` tokens, ending with the sentinel ``("", len(text))``."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token, bad = match.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r} at position {match.start()}")
        if token:
            tokens.append((token, match.start()))
    tokens.append(("", len(text)))
    return tokens


class _Cursor:
    """Reads the tokens of one input left to right.

    The sentinel is never consumed (no reader asks for the empty string),
    so every look at the current token is safe.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.index]

    def accept(self, text: str) -> bool:
        """Consume the current token if it is ``text``."""
        if self.tokens[self.index][0] != text:
            return False
        self.index += 1
        return True

    def fail(self, expected: str) -> NoReturn:
        text, pos = self.tokens[self.index]
        if not text:
            raise ParseError(f"expected {expected} but input ended")
        raise ParseError(f"expected {expected} but found {text!r} at position {pos}")

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail(repr(text))

    def integer(self) -> int:
        text = self.tokens[self.index][0]
        if not text.isdecimal():
            self.fail("an integer")
        self.index += 1
        return int(text)

    def signed(self, term: Callable[[_Cursor], _T]) -> Iterator[tuple[int, _T]]:
        """Yield ``(sign, term(self))`` for each term of ``[+|-] t (+|-) t ...``."""
        sign = _SIGNS.get(self.peek()[0])
        while True:
            if sign is not None:
                self.index += 1
            yield sign or 1, term(self)
            sign = _SIGNS.get(self.peek()[0])
            if sign is None:
                return

    def whole(self, read: Callable[[_Cursor], _T]) -> _T:
        """``read(self)``, which must consume every token."""
        result = read(self)
        text, pos = self.peek()
        if text:
            raise ParseError(f"unexpected {text!r} at position {pos}")
        return result


def _parse_composition(cursor: _Cursor) -> Composition:
    cursor.expect("[")
    if cursor.accept("]"):
        return _as_composition(())
    parts: list[int] = []
    while True:
        text, pos = cursor.peek()
        value = cursor.integer()
        if value < 1:
            raise ParseError(f"composition parts must be positive, found {text!r} at position {pos}")
        parts.append(value)
        if not cursor.accept(","):
            cursor.expect("]")
            return _as_composition(parts)


def _parse_qsym_term(cursor: _Cursor) -> tuple[Composition, int]:
    if not cursor.peek()[0].isdecimal():
        return _parse_composition(cursor), 1
    value = cursor.integer()
    return (_parse_composition(cursor) if cursor.accept("*") else _as_composition(())), value


def _parse_qsym_expr(cursor: _Cursor) -> QSymElement:
    acc: dict[Composition, int] = {}
    for sign, (comp, coeff) in cursor.signed(_parse_qsym_term):
        acc[comp] = acc.get(comp, 0) + sign * coeff
    return QSymElement._new(acc)


def _parse_tensor_term(cursor: _Cursor) -> tuple[tuple[Composition, ...], int]:
    coeff = 1
    if cursor.peek()[0].isdecimal():
        coeff = cursor.integer()
        cursor.expect("*")
    factors = [_parse_composition(cursor)]
    while cursor.accept("(x)"):
        factors.append(_parse_composition(cursor))
    return tuple(factors), coeff


def _parse_tensor(cursor: _Cursor) -> TensorElement:
    acc: dict[tuple[Composition, ...], int] = {}
    arity = 0
    for sign, (key, coeff) in cursor.signed(_parse_tensor_term):
        if len(key) not in (2, 3):
            raise ParseError(f"tensor terms need 2 or 3 factors, found {len(key)}")
        arity = arity or len(key)
        if arity != len(key):
            raise ParseError(f"tensor terms mix {arity} and {len(key)} factors")
        acc[key] = acc.get(key, 0) + sign * coeff
    return TensorElement._new(acc, arity)


def _parse_beta_term(cursor: _Cursor) -> tuple[int, QSymElement]:
    scalar = QSymElement._wrap({_as_composition(()): 1})
    beta_power: int | None = None
    while True:
        token, pos = cursor.peek()
        if token.isdecimal():
            scalar = scalar * cursor.integer()
        elif token == "[":
            scalar = scalar * QSymElement._wrap({_parse_composition(cursor): 1})
        elif cursor.accept("b"):
            power = cursor.integer() if cursor.accept("^") else 1
            if beta_power is not None:
                raise ParseError(f"more than one beta factor in a term at position {pos}")
            beta_power = power
        elif cursor.accept("("):
            scalar = scalar * _parse_qsym_expr(cursor)
            cursor.expect(")")
        else:
            cursor.fail("a factor")
        if not cursor.accept("*"):
            return beta_power or 0, scalar


def _parse_beta(cursor: _Cursor) -> BetaElement:
    acc: dict[int, dict[Composition, int]] = {}
    for sign, (power, scalar) in cursor.signed(_parse_beta_term):
        row = acc.setdefault(power, {})
        for comp, coeff in scalar._terms.items():
            row[comp] = row.get(comp, 0) + sign * coeff
    return BetaElement._new({p: QSymElement._new(row) for p, row in acc.items()})


def parse_composition(text: str) -> Composition:
    """Read ``[3,1,4]`` or ``[]``."""
    return _Cursor(text).whole(_parse_composition)


def parse_qsym(text: str) -> QSymElement:
    """Read a combination like ``3*[1,2] - [2,1] + 1``."""
    return _Cursor(text).whole(_parse_qsym_expr)


def parse_tensor(text: str) -> TensorElement:
    """Read a tensor combination like ``2*[3,1] (x) [4] - [] (x) [1]``.

    Every term must use the same number of factors (two or three).
    """
    return _Cursor(text).whole(_parse_tensor)


def parse_beta(text: str) -> BetaElement:
    """Read a beta polynomial like ``([1]+2)*b^2 + [1,1] - b``."""
    return _Cursor(text).whole(_parse_beta)


# -- text and LaTeX printers ----------------------------------------------


def _join_signed(parts: list[str]) -> str:
    """Join ``+ x``/``- x`` parts; the first part keeps only a minus sign."""
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _term(coeff: int, body: str, times: str) -> str:
    """One signed part: the sign, then |coeff|, then ``times``, then ``body``.

    A coefficient of magnitude 1 is left out, and an empty body leaves the
    bare number.
    """
    sign = "- " if coeff < 0 else "+ "
    a = abs(coeff)
    if not body:
        return sign + str(a)
    return sign + body if a == 1 else f"{sign}{a}{times}{body}"


class _PartText(dict):
    """``str(part)`` by composition part: one C-level hit; keeps parts below 4096 only."""

    def __missing__(self, part: int) -> str:
        text = str(part)
        if part < 4096:
            self[part] = text
        return text


_part_text = _PartText().__getitem__


class _Style(NamedTuple):
    """How one output format spells the pieces every printer shares.

    The printers are its methods, so each reads its spelling from ``self``.
    """

    open: str  # composition brackets
    close: str
    times: str  # between a coefficient and its body, and between factors
    otimes: str  # between tensor factors
    tensor_times: str  # between a coefficient and a tensor term
    empty_factor: str  # the empty composition as a tensor factor
    beta_symbol: str
    variable: str  # template for the variable with a given 1-based index
    power_form: str  # template for a base raised to an exponent other than 1

    def _power(self, base: str, exponent: int) -> str:
        return base if exponent == 1 else self.power_form.format(base, exponent)

    def composition(self, comp: tuple[int, ...]) -> str:
        """Print a composition, such as ``[3,1,4]``."""
        return self.open + ",".join(map(_part_text, comp)) + self.close

    def _qsym_parts(self, element: QSymElement) -> list[str]:
        composition, times = self.composition, self.times
        return [
            _term(coeff, composition(comp) if comp else "", times)
            for comp, coeff in element._items()
        ]

    def qsym(self, element: QSymElement) -> str:
        """Print a QSym element in canonical term order, such as ``1 + 3*[1,2] - [2,1]``."""
        return _join_signed(self._qsym_parts(element))

    def tensor(self, element: TensorElement) -> str:
        """Print a tensor in canonical term order, such as ``-[] (x) [1] + 2*[3,1] (x) [4]``."""
        composition, join, empty = self.composition, self.otimes.join, self.empty_factor
        tensor_times = self.tensor_times
        return _join_signed([
            _term(coeff, join([composition(c) if c else empty for c in key]), tensor_times)
            for key, coeff in element._items()
        ])

    def beta(self, element: BetaElement) -> str:
        """Print a beta polynomial, highest power first, such as ``(2 + [1])*b^2 + [1,1]``."""
        parts: list[str] = []
        times = self.times
        for power, value in element._items():
            if power == 0:
                parts += self._qsym_parts(value)
                continue
            beta = self._power(self.beta_symbol, power)
            if len(value) == 1:
                ((comp, coeff),) = value._items()
                if comp:
                    beta = self.composition(comp) + times + beta
                parts.append(_term(coeff, beta, times))
            else:
                parts.append("+ (" + self.qsym(value) + ")" + times + beta)
        return _join_signed(parts)

    def polynomial(self, poly: SparsePolynomial) -> str:
        """Print a polynomial in the variables ``a1, a2, ...``, such as ``a1^2*a2 - 2*a3``."""
        power, variable, times = self._power, self.variable.format, self.times
        return _join_signed([
            _term(
                coeff,
                times.join([power(variable(i), e) for i, e in enumerate(exps, 1) if e]),
                times,
            )
            for exps, coeff in poly._items()
        ])


_TEXT = _Style("[", "]", "*", " (x) ", "*", "[]", "b", "a{}", "{}^{}")
_LATEX = _Style(
    "M_{(", ")}", "", " \\otimes ", "\\,", "1", "\\beta", "\\alpha_{{{}}}", "{}^{{{}}}"
)

format_composition = _TEXT.composition
format_qsym = _TEXT.qsym
format_tensor = _TEXT.tensor
format_beta = _TEXT.beta
format_polynomial = _TEXT.polynomial
latex_composition = _LATEX.composition
latex_qsym = _LATEX.qsym
latex_tensor = _LATEX.tensor
latex_beta = _LATEX.beta
latex_polynomial = _LATEX.polynomial


# -- JSON renderers --------------------------------------------------------


def json_qsym(element: QSymElement) -> list[dict]:
    return [
        {"composition": list(comp), "coefficient": coeff}
        for comp, coeff in element._items()
    ]


def json_tensor(element: TensorElement) -> list[dict]:
    return [
        {"factors": [list(c) for c in key], "coefficient": coeff}
        for key, coeff in element._items()
    ]


def json_beta(element: BetaElement) -> list[dict]:
    return [
        {"beta_power": power, "coefficient": json_qsym(value)}
        for power, value in element._items()
    ]


def json_polynomial(poly: SparsePolynomial) -> dict:
    return {
        "num_vars": poly.num_vars,
        "terms": [
            {"exponents": list(exps), "coefficient": coeff}
            for exps, coeff in poly._items()
        ],
    }
