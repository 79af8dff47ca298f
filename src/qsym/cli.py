"""Command-line interface.

Every subcommand reads elements in the surface syntax of :mod:`qsym.syntax`
and writes to stdout in one of three formats (``--format text|json|latex``;
``verify`` reports in text or JSON only).  Output is deterministic: terms
always appear in canonical order.  Malformed input exits with status 2; a
failed verification suite exits with status 1.

The commands are read from one table, ``_COMMANDS``, in help order: each
entry holds a command's help text, its positional arguments and the value it
prints, and one loop builds the parsers from it.  Two commands differ:
``lyndon`` has no description and hands its arguments to its two actions,
and ``verify``, which prints its own report, is built by hand after the loop.
``_RENDERERS`` maps (value type, format) to a printer; its element entries are
built from the :mod:`qsym.syntax` names ``{format,json,latex}_{kind}``.

:func:`run` may be called many times in one process.  The argument parser is
built once, on the first call, and reused.  The kernel caches behind it are
bounded, so a long-lived caller's memory stays bounded; each owner states its
bound: ``algebra._Memo`` (the memos of ``algebra._quasi_shuffle`` and
``expansion._basis_expansion``), ``expansion._face_selectors`` and the
printers' part-text table ``syntax._PartText``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import syntax
from .algebra import QSymElement, TensorElement
from .chow import BetaElement, deep_stratum_class, gluing_pullback, marked_point_involution
from .compositions import enumerate_lyndon, lyndon_count
from .expansion import SparsePolynomial, expand
from .syntax import parse_beta, parse_qsym
from .verification import SUITES, run_suite


def _add_format(parser: argparse.ArgumentParser, formats=("text", "json", "latex")) -> None:
    parser.add_argument(
        "--format", choices=formats, default="text", help="output format (default: text)"
    )


# name -> (help text, positional arguments as (name, type, help), value).  The
# value lambdas look up module globals and methods at call time, so tracing that
# patches module bindings and class attributes (bench/tracing.py) reaches them.
_ELEMENT, _NUM_VARS = ("element", str, None), ("num_vars", int, None)
_COMMANDS = {
    "mul": ("multiply two basis combinations",
            [("left", str, "a combination like '3*[1,2] - [2,1] + 1'"),
             ("right", str, "a combination like '[1,1]'")],
            lambda args: parse_qsym(args.left) * parse_qsym(args.right)),
    "coproduct": ("split a combination over all prefix/suffix cuts", [_ELEMENT],
                  lambda args: parse_qsym(args.element).coproduct()),
    "antipode": ("apply the antipode", [_ELEMENT],
                 lambda args: parse_qsym(args.element).antipode()),
    "counit": ("extract the coefficient of the empty composition", [_ELEMENT],
               lambda args: parse_qsym(args.element).counit()),
    "sigma": ("reverse every indexing composition", [_ELEMENT],
              lambda args: parse_qsym(args.element).reverse_indices()),
    "truncate": ("drop terms longer than a variable count", [_ELEMENT, _NUM_VARS],
                 lambda args: parse_qsym(args.element).truncate(args.num_vars)),
    "expand": ("expand into a polynomial in ordered variables a1..an", [_ELEMENT, _NUM_VARS],
               lambda args: expand(parse_qsym(args.element), args.num_vars)),
    "lyndon": ("Lyndon compositions of one weight", [("weight", int, None)],
               lambda args: (lyndon_count if args.action == "count" else enumerate_lyndon)(args.weight)),
    "psi": ("pull a combination back along the gluing map",
            [_ELEMENT, ("n1", int, "variables kept in the first factor"),
             ("n2", int, "variables kept in the second factor")],
            lambda args: gluing_pullback(parse_qsym(args.element), args.n1, args.n2)),
    "tau": ("apply the marked-point involution to a beta polynomial",
            [("element", str, "a beta polynomial like '([1]+2)*b^2 + [1,1]'")],
            lambda args: marked_point_involution(parse_beta(args.element))),
    "stratum": ("the class of the deepest boundary stratum", [("depth", int, None)],
                lambda args: deep_stratum_class(args.depth)),
}
_LYNDON_ACTIONS = (
    ("count", "how many Lyndon compositions have this weight"),
    ("list", "list the Lyndon compositions of this weight"),
)


# Built on first use rather than at import, and reused: parse_args returns a
# fresh Namespace per call, help and usage are formatted at print time, and the
# verify suite choices are names only (SUITES values are looked up per call).
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Exact arithmetic for quasisymmetric functions in the monomial basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        if name == "lyndon":
            lyndon = sub.add_parser(name, help=help_text)
            actions = lyndon.add_subparsers(dest="action", required=True)
            parsers = [actions.add_parser(action, help=text) for action, text in _LYNDON_ACTIONS]
        else:
            parsers = [sub.add_parser(name, help=help_text, description=help_text)]
        for p in parsers:
            for argument, kind, argument_help in arguments:
                p.add_argument(argument, type=kind, help=argument_help)
            _add_format(p)
    p = sub.add_parser("verify", help="run exhaustive structural check suites")
    p.add_argument("suite", nargs="?", choices=sorted(SUITES),
                   help="one suite to run (default: all)")
    p.add_argument("--max-degree", type=int, help="override the weight bound of the swept suites")
    _add_format(p, ("text", "json"))
    return parser


# The list renderers look the syntax printers up at call time, so tracing that
# patches module bindings and dict values (bench/tracing.py) reaches them all.
_RENDERERS = {
    **{
        (cls, fmt): getattr(syntax, f"{prefix}_{kind}")
        for cls, kind in ((QSymElement, "qsym"), (TensorElement, "tensor"),
                          (BetaElement, "beta"), (SparsePolynomial, "polynomial"))
        for fmt, prefix in (("text", "format"), ("json", "json"), ("latex", "latex"))
    },
    (int, "text"): str,
    (int, "json"): int,
    (int, "latex"): str,
    (list, "text"): lambda comps: "\n".join(map(syntax.format_composition, comps)),
    (list, "json"): lambda comps: [list(c) for c in comps],
    (list, "latex"): lambda comps: "\n".join(map(syntax.latex_composition, comps)),
}


def _cmd_verify(args) -> int:
    report, verdicts = [], []
    for name in [args.suite] if args.suite else SUITES:
        checks = run_suite(name, args.max_degree)
        verdicts += [check.passed for check in checks]
        if args.format == "json":
            report.append({"suite": name, "checks": [check._asdict() for check in checks]})
        else:
            print(f"{name}:")
            for check in checks:
                print(f"  {'ok' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    if args.format == "json":
        print(json.dumps(report, check_circular=False))
    else:
        print(f"{sum(verdicts)}/{len(verdicts)} checks passed")
    return 0 if all(verdicts) else 1


def run(argv: list[str]) -> int:
    """Run one invocation and return its exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        value = _COMMANDS[args.command][2](args)
        rendered = _RENDERERS[type(value), args.format](value)
        print(json.dumps(rendered, check_circular=False) if args.format == "json" else rendered)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
