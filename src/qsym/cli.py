"""Command-line interface.

Every subcommand reads elements in the surface syntax of :mod:`qsym.syntax`
and writes to stdout in one of three formats (``--format text|json|latex``).
Output is deterministic: terms always appear in canonical order.  Malformed
input exits with status 2; a failed verification suite exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import QSymElement, TensorElement
from .chow import BetaElement, deep_stratum_class, gluing_pullback, marked_point_involution
from .compositions import Composition, enumerate_lyndon, lyndon_count
from .expansion import SparsePolynomial, expand
from .syntax import (
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
    parse_qsym,
)
from .verification import SUITES, run_suite


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
        help="output format (default: text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Exact arithmetic for quasisymmetric functions in the monomial basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_format(p)
        return p

    p = add("mul", "multiply two basis combinations")
    p.add_argument("left", help="a combination like '3*[1,2] - [2,1] + 1'")
    p.add_argument("right", help="a combination like '[1,1]'")

    p = add("coproduct", "split a combination over all prefix/suffix cuts")
    p.add_argument("element")

    p = add("antipode", "apply the antipode")
    p.add_argument("element")

    p = add("counit", "extract the coefficient of the empty composition")
    p.add_argument("element")

    p = add("sigma", "reverse every indexing composition")
    p.add_argument("element")

    p = add("truncate", "drop terms longer than a variable count")
    p.add_argument("element")
    p.add_argument("num_vars", type=int)

    p = add("expand", "expand into a polynomial in ordered variables a1..an")
    p.add_argument("element")
    p.add_argument("num_vars", type=int)

    lyndon = sub.add_parser("lyndon", help="Lyndon compositions of one weight")
    lyndon_sub = lyndon.add_subparsers(dest="action", required=True)
    p = lyndon_sub.add_parser("count", help="how many Lyndon compositions have this weight")
    p.add_argument("weight", type=int)
    _add_format(p)
    p = lyndon_sub.add_parser("list", help="list the Lyndon compositions of this weight")
    p.add_argument("weight", type=int)
    _add_format(p)

    p = add("psi", "pull a combination back along the gluing map")
    p.add_argument("element")
    p.add_argument("n1", type=int, help="variables kept in the first factor")
    p.add_argument("n2", type=int, help="variables kept in the second factor")

    p = add("tau", "apply the marked-point involution to a beta polynomial")
    p.add_argument("element", help="a beta polynomial like '([1]+2)*b^2 + [1,1]'")

    p = add("stratum", "the class of the deepest boundary stratum")
    p.add_argument("depth", type=int)

    p = sub.add_parser("verify", help="run exhaustive structural check suites")
    p.add_argument(
        "suite",
        nargs="?",
        choices=sorted(SUITES),
        help="one suite to run (default: all)",
    )
    p.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="override the weight bound of the swept suites",
    )
    _add_format(p)

    return parser


# The values are the syntax functions themselves, not wrappers around them, so
# tracing that patches module-level dict values (bench/tracing.py) reaches them.
_RENDERERS = {
    (QSymElement, "text"): format_qsym,
    (QSymElement, "json"): json_qsym,
    (QSymElement, "latex"): latex_qsym,
    (TensorElement, "text"): format_tensor,
    (TensorElement, "json"): json_tensor,
    (TensorElement, "latex"): latex_tensor,
    (BetaElement, "text"): format_beta,
    (BetaElement, "json"): json_beta,
    (BetaElement, "latex"): latex_beta,
    (SparsePolynomial, "text"): format_polynomial,
    (SparsePolynomial, "json"): json_polynomial,
    (SparsePolynomial, "latex"): latex_polynomial,
    (Composition, "text"): format_composition,
    (Composition, "latex"): latex_composition,
    (int, "text"): str,
    (int, "json"): int,
    (int, "latex"): str,
}


def _emit(value, fmt: str) -> str:
    rendered = _RENDERERS[type(value), fmt](value)
    return json.dumps(rendered) if fmt == "json" else rendered


def _cmd_lyndon(args) -> int:
    if args.action == "count":
        print(_emit(lyndon_count(args.weight), args.format))
        return 0
    compositions = enumerate_lyndon(args.weight)
    if args.format == "json":
        print(json.dumps([list(c) for c in compositions]))
    else:
        for comp in compositions:
            print(_emit(comp, args.format))
    return 0


def _cmd_verify(args) -> int:
    names = [args.suite] if args.suite else list(SUITES)
    all_passed = True
    if args.format == "json":
        report = []
        for name in names:
            checks = run_suite(name, args.max_degree)
            all_passed = all_passed and all(c.passed for c in checks)
            report.append({
                "suite": name,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in checks
                ],
            })
        print(json.dumps(report))
    else:
        total = passed = 0
        for name in names:
            print(f"{name}:")
            for check in run_suite(name, args.max_degree):
                total += 1
                if check.passed:
                    passed += 1
                    print(f"  ok {check.name}: {check.detail}")
                else:
                    all_passed = False
                    print(f"  FAIL {check.name}: {check.detail}")
        print(f"{passed}/{total} checks passed")
    return 0 if all_passed else 1


# The value each single-result command prints.  The lambdas look up module
# globals and call methods by attribute at call time, so tracing that patches
# module bindings and class attributes (bench/tracing.py) reaches them; a
# method object stored here would escape it.
_VALUES = {
    "mul": lambda args: parse_qsym(args.left) * parse_qsym(args.right),
    "coproduct": lambda args: parse_qsym(args.element).coproduct(),
    "antipode": lambda args: parse_qsym(args.element).antipode(),
    "counit": lambda args: parse_qsym(args.element).counit(),
    "sigma": lambda args: parse_qsym(args.element).reverse_indices(),
    "truncate": lambda args: parse_qsym(args.element).truncate(args.num_vars),
    "expand": lambda args: expand(parse_qsym(args.element), args.num_vars),
    "psi": lambda args: gluing_pullback(parse_qsym(args.element), args.n1, args.n2),
    "tau": lambda args: marked_point_involution(parse_beta(args.element)),
    "stratum": lambda args: deep_stratum_class(args.depth),
}


def run(argv: list[str]) -> int:
    """Run one invocation and return its exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "lyndon":
            return _cmd_lyndon(args)
        if args.command == "verify":
            return _cmd_verify(args)
        print(_emit(_VALUES[args.command](args), args.format))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
