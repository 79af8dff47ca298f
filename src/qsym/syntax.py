"""Parsing and printing for ring elements.

One tokenizer serves every reader.  The surface syntax is small:

* composition: ``[3,1,4]``, with ``[]`` for the empty one
* basis combination: ``3*[1,2] - [2,1] + 1`` (a bare integer is a multiple
  of the empty-composition basis element)
* tensor: ``[3,1] (x) [4]``, summed with optional integer prefixes
* beta polynomial: ``([1]+2)*b^2 + [1,1]``; a term is a product of integer,
  composition, ``b``-power, and parenthesized-combination factors, with at
  most one ``b`` power per term

Printers emit the same syntax back, always in canonical term order, so
formatting is deterministic and round-trips through the parsers.  JSON and
LaTeX renderers are write-only.
"""

from __future__ import annotations

import re

from .algebra import QSymElement, TensorElement
from .chow import BetaElement
from .compositions import Composition
from .expansion import SparsePolynomial


class ParseError(ValueError):
    """Raised on malformed input, naming the offending token and position."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<TENSOR>\(x\))
  | (?P<INT>\d+)
  | (?P<BETA>b)
  | (?P<SYM>[\[\](),+\-*^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.index += 1
        return token

    def expect(self, text: str) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError(f"expected {text!r} but input ended")
        if token[1] != text:
            raise ParseError(f"expected {text!r} but found {token[1]!r} at position {token[2]}")
        return self.advance()

    def at(self, text: str) -> bool:
        token = self.peek()
        return token is not None and token[1] == text

    def at_kind(self, kind: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == kind

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected {token[1]!r} at position {token[2]}")


def _parse_int(parser: _Parser) -> int:
    token = parser.peek()
    if token is None:
        raise ParseError("expected an integer but input ended")
    if token[0] != "INT":
        raise ParseError(f"expected an integer but found {token[1]!r} at position {token[2]}")
    parser.advance()
    return int(token[1])


def _parse_composition(parser: _Parser) -> Composition:
    parser.expect("[")
    parts: list[int] = []
    if parser.at("]"):
        parser.advance()
        return Composition()
    while True:
        token = parser.peek()
        value = _parse_int(parser)
        if value < 1:
            raise ParseError(f"composition parts must be positive, found {token[1]!r} at position {token[2]}")
        parts.append(value)
        if parser.at(","):
            parser.advance()
            continue
        parser.expect("]")
        return Composition(parts)


def _parse_sign(parser: _Parser, *, required: bool) -> int:
    if parser.at("+"):
        parser.advance()
        return 1
    if parser.at("-"):
        parser.advance()
        return -1
    if required:
        token = parser.peek()
        if token is None:
            raise ParseError("expected '+' or '-' but input ended")
        raise ParseError(f"expected '+' or '-' but found {token[1]!r} at position {token[2]}")
    return 1


def _parse_qsym_term(parser: _Parser) -> tuple[Composition, int]:
    if parser.at_kind("INT"):
        value = _parse_int(parser)
        if parser.at("*"):
            parser.advance()
            return _parse_composition(parser), value
        return Composition(), value
    return _parse_composition(parser), 1


def _parse_qsym_expr(parser: _Parser) -> QSymElement:
    acc: dict[Composition, int] = {}
    sign = _parse_sign(parser, required=False)
    while True:
        comp, coeff = _parse_qsym_term(parser)
        acc[comp] = acc.get(comp, 0) + sign * coeff
        if not (parser.at("+") or parser.at("-")):
            return QSymElement._new(acc)
        sign = _parse_sign(parser, required=True)


def parse_composition(text: str) -> Composition:
    """Read ``[3,1,4]`` or ``[]``."""
    parser = _Parser(text)
    result = _parse_composition(parser)
    parser.done()
    return result


def parse_qsym(text: str) -> QSymElement:
    """Read a combination like ``3*[1,2] - [2,1] + 1``."""
    parser = _Parser(text)
    result = _parse_qsym_expr(parser)
    parser.done()
    return result


def parse_tensor(text: str) -> TensorElement:
    """Read a tensor combination like ``2*[3,1] (x) [4] - [] (x) [1]``.

    Every term must use the same number of factors (two or three).
    """
    parser = _Parser(text)
    acc: dict[tuple[Composition, ...], int] = {}
    arity: int | None = None
    sign = _parse_sign(parser, required=False)
    while True:
        coeff = sign
        if parser.at_kind("INT"):
            coeff *= _parse_int(parser)
            parser.expect("*")
        factors = [_parse_composition(parser)]
        while parser.at_kind("TENSOR"):
            parser.advance()
            factors.append(_parse_composition(parser))
        if len(factors) not in (2, 3):
            raise ParseError(
                f"tensor terms need 2 or 3 factors, found {len(factors)}"
            )
        if arity is None:
            arity = len(factors)
        elif arity != len(factors):
            raise ParseError(
                f"tensor terms mix {arity} and {len(factors)} factors"
            )
        key = tuple(factors)
        acc[key] = acc.get(key, 0) + coeff
        if parser.at("+") or parser.at("-"):
            sign = _parse_sign(parser, required=True)
            continue
        parser.done()
        return TensorElement._new(acc, arity)


def _parse_beta_term(parser: _Parser) -> BetaElement:
    scalar = QSymElement.one()
    beta_power: int | None = None
    while True:
        if parser.at_kind("INT"):
            scalar = scalar * _parse_int(parser)
        elif parser.at("["):
            scalar = scalar * QSymElement.monomial(_parse_composition(parser))
        elif parser.at_kind("BETA"):
            token = parser.advance()
            power = 1
            if parser.at("^"):
                parser.advance()
                power = _parse_int(parser)
            if beta_power is not None:
                raise ParseError(
                    f"more than one beta factor in a term at position {token[2]}"
                )
            beta_power = power
        elif parser.at("("):
            parser.advance()
            scalar = scalar * _parse_qsym_expr(parser)
            parser.expect(")")
        else:
            token = parser.peek()
            if token is None:
                raise ParseError("expected a factor but input ended")
            raise ParseError(
                f"expected a factor but found {token[1]!r} at position {token[2]}"
            )
        if parser.at("*"):
            parser.advance()
            continue
        return BetaElement({beta_power if beta_power is not None else 0: scalar})


def parse_beta(text: str) -> BetaElement:
    """Read a beta polynomial like ``([1]+2)*b^2 + [1,1] - b``."""
    parser = _Parser(text)
    sign = _parse_sign(parser, required=False)
    result = sign * _parse_beta_term(parser)
    while parser.at("+") or parser.at("-"):
        sign = _parse_sign(parser, required=True)
        result = result + sign * _parse_beta_term(parser)
    parser.done()
    return result


# -- text printers ---------------------------------------------------------


def format_composition(comp: Composition) -> str:
    return "[" + ",".join(str(p) for p in comp) + "]"


def _join_signed(parts: list[tuple[int, str]]) -> str:
    if not parts:
        return "0"
    pieces = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)


def _qsym_signed_parts(element: QSymElement) -> list[tuple[int, str]]:
    parts = []
    for comp, coeff in element.terms():
        sign = -1 if coeff < 0 else 1
        a = abs(coeff)
        if len(comp) == 0:
            body = str(a)
        elif a == 1:
            body = format_composition(comp)
        else:
            body = f"{a}*{format_composition(comp)}"
        parts.append((sign, body))
    return parts


def format_qsym(element: QSymElement) -> str:
    return _join_signed(_qsym_signed_parts(element))


def format_tensor(element: TensorElement) -> str:
    parts = []
    for key, coeff in element.terms():
        sign = -1 if coeff < 0 else 1
        a = abs(coeff)
        body = " (x) ".join(format_composition(c) for c in key)
        if a != 1:
            body = f"{a}*{body}"
        parts.append((sign, body))
    return _join_signed(parts)


def _beta_power_text(power: int) -> str:
    return "b" if power == 1 else f"b^{power}"


def format_beta(element: BetaElement) -> str:
    parts: list[tuple[int, str]] = []
    for power, value in element.terms():
        if power == 0:
            parts.extend(_qsym_signed_parts(value))
            continue
        if len(value) == 1:
            ((comp, coeff),) = value.terms()
            sign = -1 if coeff < 0 else 1
            a = abs(coeff)
            pieces = []
            if a != 1:
                pieces.append(str(a))
            if len(comp) > 0:
                pieces.append(format_composition(comp))
            pieces.append(_beta_power_text(power))
            parts.append((sign, "*".join(pieces)))
        else:
            parts.append((1, f"({format_qsym(value)})*{_beta_power_text(power)}"))
    return _join_signed(parts)


def format_polynomial(poly: SparsePolynomial) -> str:
    parts = []
    for exps, coeff in poly.terms():
        sign = -1 if coeff < 0 else 1
        a = abs(coeff)
        pieces = [
            f"a{i + 1}" if e == 1 else f"a{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e
        ]
        if not pieces:
            body = str(a)
        elif a == 1:
            body = "*".join(pieces)
        else:
            body = "*".join([str(a)] + pieces)
        parts.append((sign, body))
    return _join_signed(parts)


# -- JSON renderers --------------------------------------------------------


def json_qsym(element: QSymElement) -> list[dict]:
    return [
        {"composition": list(comp.parts), "coefficient": coeff}
        for comp, coeff in element.terms()
    ]


def json_tensor(element: TensorElement) -> list[dict]:
    return [
        {"factors": [list(c.parts) for c in key], "coefficient": coeff}
        for key, coeff in element.terms()
    ]


def json_beta(element: BetaElement) -> list[dict]:
    return [
        {"beta_power": power, "coefficient": json_qsym(value)}
        for power, value in element.terms()
    ]


def json_polynomial(poly: SparsePolynomial) -> dict:
    return {
        "num_vars": poly.num_vars,
        "terms": [
            {"exponents": list(exps), "coefficient": coeff}
            for exps, coeff in poly.terms()
        ],
    }


# -- LaTeX renderers -------------------------------------------------------


def latex_composition(comp: Composition) -> str:
    return "M_{(" + ",".join(str(p) for p in comp) + ")}"


def _qsym_latex_parts(element: QSymElement) -> list[tuple[int, str]]:
    parts = []
    for comp, coeff in element.terms():
        sign = -1 if coeff < 0 else 1
        a = abs(coeff)
        if len(comp) == 0:
            body = str(a)
        elif a == 1:
            body = latex_composition(comp)
        else:
            body = f"{a}{latex_composition(comp)}"
        parts.append((sign, body))
    return parts


def latex_qsym(element: QSymElement) -> str:
    return _join_signed(_qsym_latex_parts(element))


def latex_tensor(element: TensorElement) -> str:
    parts = []
    for key, coeff in element.terms():
        sign = -1 if coeff < 0 else 1
        a = abs(coeff)
        body = " \\otimes ".join(
            "1" if len(c) == 0 else latex_composition(c) for c in key
        )
        if a != 1:
            body = f"{a}\\," + body
        parts.append((sign, body))
    return _join_signed(parts)


def _beta_power_latex(power: int) -> str:
    return "\\beta" if power == 1 else f"\\beta^{{{power}}}"


def latex_beta(element: BetaElement) -> str:
    parts: list[tuple[int, str]] = []
    for power, value in element.terms():
        if power == 0:
            parts.extend(_qsym_latex_parts(value))
            continue
        if len(value) == 1:
            ((comp, coeff),) = value.terms()
            sign = -1 if coeff < 0 else 1
            a = abs(coeff)
            body = ""
            if a != 1:
                body += str(a)
            if len(comp) > 0:
                body += latex_composition(comp)
            body += _beta_power_latex(power)
            parts.append((sign, body))
        else:
            parts.append((1, f"({latex_qsym(value)}){_beta_power_latex(power)}"))
    return _join_signed(parts)


def latex_polynomial(poly: SparsePolynomial) -> str:
    parts = []
    for exps, coeff in poly.terms():
        sign = -1 if coeff < 0 else 1
        a = abs(coeff)
        pieces = [
            f"\\alpha_{{{i + 1}}}" if e == 1 else f"\\alpha_{{{i + 1}}}^{{{e}}}"
            for i, e in enumerate(exps)
            if e
        ]
        if not pieces:
            body = str(a)
        elif a == 1:
            body = "".join(pieces)
        else:
            body = str(a) + "".join(pieces)
        parts.append((sign, body))
    return _join_signed(parts)
