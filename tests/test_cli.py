"""The command line, driven in process through its run() entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsym import algebra, chow, cli, expansion, syntax
from qsym.algebra import monomial
from qsym.cli import run
from qsym.compositions import Composition
from reference_impls import surjection_product


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArithmeticCommands:
    def test_mul(self, capsys):
        code, out, _ = invoke(capsys, "mul", "[1]", "[1]")
        assert code == 0
        assert out.strip() == "2*[1,1] + [2]"

    def test_mul_known_product(self, capsys):
        code, out, _ = invoke(capsys, "mul", "[1,2]", "[1,1]")
        assert code == 0
        assert out.strip() == (
            "3*[1,1,1,2] + 2*[1,1,2,1] + 2*[1,1,3] + [1,2,1,1] + [1,2,2]"
            " + [1,3,1] + [2,1,2] + [2,2,1] + [2,3]"
        )

    def test_coproduct(self, capsys):
        code, out, _ = invoke(capsys, "coproduct", "[3,1,4]")
        assert code == 0
        assert out.strip() == (
            "[] (x) [3,1,4] + [3] (x) [1,4] + [3,1] (x) [4] + [3,1,4] (x) []"
        )

    def test_antipode(self, capsys):
        code, out, _ = invoke(capsys, "antipode", "[3,1,4]")
        assert code == 0
        assert out.strip() == "-[4,1,3] - [4,4] - [5,3] - [8]"

    def test_counit(self, capsys):
        code, out, _ = invoke(capsys, "counit", "3*[1] + 5")
        assert code == 0
        assert out.strip() == "5"

    def test_sigma(self, capsys):
        code, out, _ = invoke(capsys, "sigma", "[1,2] + [3]")
        assert code == 0
        assert out.strip() == "[2,1] + [3]"

    def test_truncate(self, capsys):
        code, out, _ = invoke(capsys, "truncate", "[1] + [1,1] + [1,1,1]", "2")
        assert code == 0
        assert out.strip() == "[1] + [1,1]"

    def test_expand(self, capsys):
        code, out, _ = invoke(capsys, "expand", "[2,1]", "3")
        assert code == 0
        assert out.strip() == "a1^2*a2 + a1^2*a3 + a2^2*a3"

    def test_mul_round_trips_through_parser(self, capsys):
        from qsym.algebra import monomial
        from qsym.syntax import parse_qsym

        _, out, _ = invoke(capsys, "mul", "[1,2]", "[1,1]")
        assert parse_qsym(out.strip()) == monomial([1, 2]) * monomial([1, 1])


class TestGeometricCommands:
    def test_psi(self, capsys):
        code, out, _ = invoke(capsys, "psi", "[1,2]", "1", "2")
        assert code == 0
        assert out.strip() == "[] (x) [1,2] + [1] (x) [2]"

    def test_tau(self, capsys):
        code, out, _ = invoke(capsys, "tau", "b")
        assert code == 0
        assert out.strip() == "-b + [1]"

    def test_tau_is_involutive_via_cli(self, capsys):
        from qsym.syntax import parse_beta

        _, once, _ = invoke(capsys, "tau", "([1]+2)*b^2 + [1,1]")
        _, twice, _ = invoke(capsys, "tau", once.strip())
        assert parse_beta(twice.strip()) == parse_beta("([1]+2)*b^2 + [1,1]")

    def test_stratum(self, capsys):
        code, out, _ = invoke(capsys, "stratum", "3")
        assert code == 0
        assert out.strip() == "[1,1,1]"


class TestLyndonCommands:
    def test_count(self, capsys):
        code, out, _ = invoke(capsys, "lyndon", "count", "7")
        assert code == 0
        assert out.strip() == "18"

    def test_list_one_per_line(self, capsys):
        code, out, _ = invoke(capsys, "lyndon", "list", "4")
        assert code == 0
        assert out.splitlines() == ["[1,1,2]", "[1,3]", "[4]"]

    def test_list_json(self, capsys):
        code, out, _ = invoke(capsys, "lyndon", "list", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[1, 1, 2], [1, 3], [4]]


class TestFormats:
    def test_json_qsym(self, capsys):
        code, out, _ = invoke(capsys, "mul", "[1]", "[1]", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"composition": [1, 1], "coefficient": 2},
            {"composition": [2], "coefficient": 1},
        ]

    def test_json_polynomial(self, capsys):
        code, out, _ = invoke(capsys, "expand", "[1]", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "num_vars": 2,
            "terms": [
                {"exponents": [1, 0], "coefficient": 1},
                {"exponents": [0, 1], "coefficient": 1},
            ],
        }

    def test_latex_coproduct(self, capsys):
        code, out, _ = invoke(capsys, "coproduct", "[3,1]", "--format", "latex")
        assert code == 0
        assert out.strip() == (
            "1 \\otimes M_{(3,1)} + M_{(3)} \\otimes M_{(1)} + M_{(3,1)} \\otimes 1"
        )

    def test_latex_beta(self, capsys):
        code, out, _ = invoke(capsys, "tau", "b", "--format", "latex")
        assert code == 0
        assert out.strip() == "-\\beta + M_{(1)}"

    def test_output_is_deterministic(self, capsys):
        first = invoke(capsys, "mul", "[1,2]", "[2,1]")
        second = invoke(capsys, "mul", "[1,2]", "[2,1]")
        assert first == second


class TestRendererTable:
    # one call per command and Lyndon action, enough to see every value type
    SAMPLES = [
        ["mul", "[1]", "[1]"], ["coproduct", "[1]"], ["antipode", "[1]"], ["counit", "[1]"],
        ["sigma", "[1]"], ["truncate", "[1]", "1"], ["expand", "[1]", "2"],
        ["lyndon", "count", "3"], ["lyndon", "list", "3"], ["psi", "[1]", "1", "1"],
        ["tau", "b"], ["stratum", "2"],
    ]

    def test_element_entries_are_the_syntax_functions_by_name(self):
        kinds = [(algebra.QSymElement, "qsym"), (algebra.TensorElement, "tensor"),
                 (chow.BetaElement, "beta"), (expansion.SparsePolynomial, "polynomial")]
        for cls, kind in kinds:
            for fmt, prefix in [("text", "format"), ("json", "json"), ("latex", "latex")]:
                assert cli._RENDERERS[cls, fmt] is getattr(syntax, f"{prefix}_{kind}")

    def test_no_composition_entry(self):
        assert not [key for key in cli._RENDERERS if key[0] is Composition]

    def test_every_command_value_has_a_renderer(self):
        assert {argv[0] for argv in self.SAMPLES} == set(cli._COMMANDS)
        for argv in self.SAMPLES:
            args = cli._build_parser().parse_args(argv)
            value = cli._COMMANDS[args.command][2](args)
            for fmt in ("text", "json", "latex"):
                assert (type(value), fmt) in cli._RENDERERS, (argv, fmt)


# `qsym verify --max-degree 2`, byte for byte: the text report, then the same
# (name, passed, detail) rows as JSON.
VERIFY_2_TEXT = """\
hopf:
  ok coassociativity: (D x id)D = (id x D)D on all 4 basis elements through weight 2
  ok counit: both counit contractions of D restore all 4 basis elements
  ok bialgebra: D and the counit are ring maps on 8 basis pairs with total weight <= 2
  ok antipode: m(S x id)D = m(id x S)D = unit.counit on all 4 basis elements
  ok antipode-squared: S.S = id on all 4 basis elements (commutative case)
oracle:
  ok product-expansion: expanding the product matches multiplying expansions on 1 pairs with total weight <= 2
  ok expansion-round-trip: expansions are quasisymmetric and read back exactly for all 4 basis elements
limit:
  ok zero-insertion: killing any one variable restores the smaller expansion (24 cases)
  ok restriction: keeping any increasing set of variables restores the smaller expansion (28 cases)
  ok restriction-composition: composing variable selections agrees with selecting once (36 cases)
mu:
  ok gluing-coproduct: gluing pullbacks assemble into D on all 4 basis elements through weight 2
  ok gluing-multiplicative: the pullback is a ring map into each truncated tensor square (5 cases)
  ok deep-stratum: the deepest stratum splits over all chain cuts, depths 0..2
tau:
  ok reversal-involution: index reversal squares to the identity on all 4 basis elements
  ok reversal-multiplicative: index reversal is a ring map on 8 basis pairs
  ok reversal-twists-coproduct: index reversal is not a coalgebra map; witness [1,2]
  ok involution-squared: the marked-point involution squares to the identity and preserves degree on 7 generators
  ok involution-multiplicative: the marked-point involution is a ring map on 10 generator pairs
  ok involution-of-beta: beta maps to -b + [1]
lyndon-free:
  ok free-generation-weight-1: dimension 1, Lyndon monomials 1, rank 1
  ok free-generation-weight-2: dimension 2, Lyndon monomials 2, rank 2
  ok generator-count: generator counts by weight: [1, 1]
22/22 checks passed
"""


def _verify_2_json() -> str:
    """The JSON report carrying the rows of VERIFY_2_TEXT, as the CLI prints it."""
    report = []
    for line in VERIFY_2_TEXT.splitlines()[:-1]:
        if not line.startswith("  "):
            report.append({"suite": line[:-1], "checks": []})
            continue
        verdict, _, rest = line.strip().partition(" ")
        name, _, detail = rest.partition(": ")
        report[-1]["checks"].append({"name": name, "passed": verdict == "ok", "detail": detail})
    return json.dumps(report) + "\n"


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "lyndon-free", "--max-degree", "4")
        assert code == 0
        assert "ok free-generation-weight-4" in out
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_reduced_degree_all_suites(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-degree", "3")
        assert code == 0
        for suite in ("hopf", "oracle", "limit", "mu", "tau", "lyndon-free"):
            assert f"{suite}:" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(capsys, "verify", "hopf", "--max-degree", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report[0]["suite"] == "hopf"
        assert all(check["passed"] for check in report[0]["checks"])

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        from qsym import verification

        def always_fails(max_degree):
            return [verification.Check("constructed-failure", False, "forced by the test")]

        monkeypatch.setitem(verification.SUITES, "hopf", always_fails)
        code, out, _ = invoke(capsys, "verify", "hopf")
        assert code == 1
        assert "FAIL constructed-failure" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_degree_prints_nothing(self, capsys, fmt):
        code, out, err = invoke(capsys, "verify", "hopf", "--max-degree", "-1", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: max degree must be nonnegative, got -1\n"

    def test_latex_format_rejected(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-degree", "2", "--format", "latex")
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'latex' (choose from 'text', 'json')" in err

    def test_text_golden(self, capsys):
        assert invoke(capsys, "verify", "--max-degree", "2") == (0, VERIFY_2_TEXT, "")

    def test_json_golden(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-degree", "2", "--format", "json")
        assert (code, out, err) == (0, _verify_2_json(), "")
        assert out.startswith('[{"suite": "hopf", "checks": [{"name": "coassociativity", '
                              '"passed": true, "detail": "(D x id)D = (id x D)D on all 4 ')


class TestErrorHandling:
    def test_parse_error_exits_two(self, capsys):
        code, out, err = invoke(capsys, "mul", "[1,", "[1]")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_nonpositive_part_exits_two(self, capsys):
        code, _, err = invoke(capsys, "mul", "[0]", "[1]")
        assert code == 2
        assert "positive" in err

    def test_negative_truncation_exits_two(self, capsys):
        code, _, err = invoke(capsys, "truncate", "[1]", "-1")
        assert code == 2
        assert "error:" in err

    def test_bad_lyndon_weight_exits_two(self, capsys):
        code, _, err = invoke(capsys, "lyndon", "count", "0")
        assert code == 2
        assert "error:" in err

    def test_unknown_command_exits_two(self, capsys):
        code, _, _ = invoke(capsys, "frobenius")
        assert code == 2

    def test_missing_argument_exits_two(self, capsys):
        code, _, _ = invoke(capsys, "mul", "[1]")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "usage" in out


# Byte-exact output of every subcommand in every format, on operands with
# several terms and negative coefficients.  "--" lets an operand start with "-".
GOLDEN = [
    (
        ("mul", "--format", "text", "--", "2*[1] - [2] + 3", "-[1] + [1,1]"),
        "-3*[1] - [1,1] - 2*[2] + 6*[1,1,1] + 3*[1,2] + 3*[2,1] + [3] - [1,1,2] "
        "- [1,2,1] - [1,3] - [2,1,1] - [3,1]\n",
    ),
    (
        ("mul", "--format", "json", "--", "2*[1] - [2] + 3", "-[1] + [1,1]"),
        '[{"composition": [1], "coefficient": -3}, {"composition": [1, 1], '
        '"coefficient": -1}, {"composition": [2], "coefficient": -2}, '
        '{"composition": [1, 1, 1], "coefficient": 6}, {"composition": [1, 2], '
        '"coefficient": 3}, {"composition": [2, 1], "coefficient": 3}, '
        '{"composition": [3], "coefficient": 1}, {"composition": [1, 1, 2], '
        '"coefficient": -1}, {"composition": [1, 2, 1], "coefficient": -1}, '
        '{"composition": [1, 3], "coefficient": -1}, {"composition": [2, 1, 1], '
        '"coefficient": -1}, {"composition": [3, 1], "coefficient": -1}]\n',
    ),
    (
        ("mul", "--format", "latex", "--", "2*[1] - [2] + 3", "-[1] + [1,1]"),
        "-3M_{(1)} - M_{(1,1)} - 2M_{(2)} + 6M_{(1,1,1)} + 3M_{(1,2)} + "
        "3M_{(2,1)} + M_{(3)} - M_{(1,1,2)} - M_{(1,2,1)} - M_{(1,3)} - "
        "M_{(2,1,1)} - M_{(3,1)}\n",
    ),
    (
        ("coproduct", "--format", "text", "--", "[1,2] - 2*[3] + 1"),
        "[] (x) [] + [] (x) [1,2] - 2*[] (x) [3] + [1] (x) [2] + [1,2] (x) [] - "
        "2*[3] (x) []\n",
    ),
    (
        ("coproduct", "--format", "json", "--", "[1,2] - 2*[3] + 1"),
        '[{"factors": [[], []], "coefficient": 1}, {"factors": [[], [1, 2]], '
        '"coefficient": 1}, {"factors": [[], [3]], "coefficient": -2}, '
        '{"factors": [[1], [2]], "coefficient": 1}, {"factors": [[1, 2], []], '
        '"coefficient": 1}, {"factors": [[3], []], "coefficient": -2}]\n',
    ),
    (
        ("coproduct", "--format", "latex", "--", "[1,2] - 2*[3] + 1"),
        "1 \\otimes 1 + 1 \\otimes M_{(1,2)} - 2\\,1 \\otimes M_{(3)} + M_{(1)} "
        "\\otimes M_{(2)} + M_{(1,2)} \\otimes 1 - 2\\,M_{(3)} \\otimes 1\n",
    ),
    (
        ("antipode", "--format", "text", "--", "[1,2] - 2*[2,1,1] + 1"),
        "1 + [2,1] + [3] + 2*[1,1,2] + 2*[1,3] + 2*[2,2] + 2*[4]\n",
    ),
    (
        ("antipode", "--format", "json", "--", "[1,2] - 2*[2,1,1] + 1"),
        '[{"composition": [], "coefficient": 1}, {"composition": [2, 1], '
        '"coefficient": 1}, {"composition": [3], "coefficient": 1}, '
        '{"composition": [1, 1, 2], "coefficient": 2}, {"composition": [1, 3], '
        '"coefficient": 2}, {"composition": [2, 2], "coefficient": 2}, '
        '{"composition": [4], "coefficient": 2}]\n',
    ),
    (
        ("antipode", "--format", "latex", "--", "[1,2] - 2*[2,1,1] + 1"),
        "1 + M_{(2,1)} + M_{(3)} + 2M_{(1,1,2)} + 2M_{(1,3)} + 2M_{(2,2)} + "
        "2M_{(4)}\n",
    ),
    (
        ("counit", "--format", "text", "--", "3*[1] - 5"),
        "-5\n",
    ),
    (
        ("counit", "--format", "json", "--", "3*[1] - 5"),
        "-5\n",
    ),
    (
        ("counit", "--format", "latex", "--", "3*[1] - 5"),
        "-5\n",
    ),
    (
        ("sigma", "--format", "text", "--", "[1,2,3] - 2*[2,1] + 4"),
        "4 - 2*[1,2] + [3,2,1]\n",
    ),
    (
        ("sigma", "--format", "json", "--", "[1,2,3] - 2*[2,1] + 4"),
        '[{"composition": [], "coefficient": 4}, {"composition": [1, 2], '
        '"coefficient": -2}, {"composition": [3, 2, 1], "coefficient": 1}]\n',
    ),
    (
        ("sigma", "--format", "latex", "--", "[1,2,3] - 2*[2,1] + 4"),
        "4 - 2M_{(1,2)} + M_{(3,2,1)}\n",
    ),
    (
        ("truncate", "--format", "text", "--", "-[1] + 2*[1,1] - [1,1,1] + 7", "2"),
        "7 - [1] + 2*[1,1]\n",
    ),
    (
        ("truncate", "--format", "json", "--", "-[1] + 2*[1,1] - [1,1,1] + 7", "2"),
        '[{"composition": [], "coefficient": 7}, {"composition": [1], '
        '"coefficient": -1}, {"composition": [1, 1], "coefficient": 2}]\n',
    ),
    (
        ("truncate", "--format", "latex", "--", "-[1] + 2*[1,1] - [1,1,1] + 7", "2"),
        "7 - M_{(1)} + 2M_{(1,1)}\n",
    ),
    (
        ("expand", "--format", "text", "--", "[2,1] - 3*[1] + 2", "2"),
        "a1^2*a2 - 3*a1 - 3*a2 + 2\n",
    ),
    (
        ("expand", "--format", "json", "--", "[2,1] - 3*[1] + 2", "2"),
        '{"num_vars": 2, "terms": [{"exponents": [2, 1], "coefficient": 1}, '
        '{"exponents": [1, 0], "coefficient": -3}, {"exponents": [0, 1], '
        '"coefficient": -3}, {"exponents": [0, 0], "coefficient": 2}]}\n',
    ),
    (
        ("expand", "--format", "latex", "--", "[2,1] - 3*[1] + 2", "2"),
        "\\alpha_{1}^{2}\\alpha_{2} - 3\\alpha_{1} - 3\\alpha_{2} + 2\n",
    ),
    (
        ("lyndon", "list", "--format", "text", "--", "5"),
        "[1,1,1,2]\n[1,1,3]\n[1,2,2]\n[1,4]\n[2,3]\n[5]\n",
    ),
    (
        ("lyndon", "list", "--format", "json", "--", "5"),
        "[[1, 1, 1, 2], [1, 1, 3], [1, 2, 2], [1, 4], [2, 3], [5]]\n",
    ),
    (
        ("lyndon", "list", "--format", "latex", "--", "5"),
        "M_{(1,1,1,2)}\nM_{(1,1,3)}\nM_{(1,2,2)}\nM_{(1,4)}\nM_{(2,3)}\nM_{(5)}\n",
    ),
    (
        ("lyndon", "count", "--format", "text", "--", "6"),
        "9\n",
    ),
    (
        ("lyndon", "count", "--format", "json", "--", "6"),
        "9\n",
    ),
    (
        ("lyndon", "count", "--format", "latex", "--", "6"),
        "9\n",
    ),
    (
        ("psi", "--format", "text", "--", "[1,2] - 3*[2,1,1] + 2", "2", "1"),
        "2*[] (x) [] + [1] (x) [2] + [1,2] (x) [] - 3*[2,1] (x) [1]\n",
    ),
    (
        ("psi", "--format", "json", "--", "[1,2] - 3*[2,1,1] + 2", "2", "1"),
        '[{"factors": [[], []], "coefficient": 2}, {"factors": [[1], [2]], '
        '"coefficient": 1}, {"factors": [[1, 2], []], "coefficient": 1}, '
        '{"factors": [[2, 1], [1]], "coefficient": -3}]\n',
    ),
    (
        ("psi", "--format", "latex", "--", "[1,2] - 3*[2,1,1] + 2", "2", "1"),
        "2\\,1 \\otimes 1 + M_{(1)} \\otimes M_{(2)} + M_{(1,2)} \\otimes 1 - "
        "3\\,M_{(2,1)} \\otimes M_{(1)}\n",
    ),
    (
        ("tau", "--format", "text", "--", "([1]+2)*b^2 - 3*[1,1]*b + 3"),
        "(2 + [1])*b^2 + (-4*[1] - [1,1] - 2*[2])*b + 3 + 4*[1,1] + 2*[2] - "
        "3*[1,1,1] + [3]\n",
    ),
    (
        ("tau", "--format", "json", "--", "([1]+2)*b^2 - 3*[1,1]*b + 3"),
        '[{"beta_power": 2, "coefficient": [{"composition": [], "coefficient": '
        '2}, {"composition": [1], "coefficient": 1}]}, {"beta_power": 1, '
        '"coefficient": [{"composition": [1], "coefficient": -4}, '
        '{"composition": [1, 1], "coefficient": -1}, {"composition": [2], '
        '"coefficient": -2}]}, {"beta_power": 0, "coefficient": [{"composition": '
        '[], "coefficient": 3}, {"composition": [1, 1], "coefficient": 4}, '
        '{"composition": [2], "coefficient": 2}, {"composition": [1, 1, 1], '
        '"coefficient": -3}, {"composition": [3], "coefficient": 1}]}]\n',
    ),
    (
        ("tau", "--format", "latex", "--", "([1]+2)*b^2 - 3*[1,1]*b + 3"),
        "(2 + M_{(1)})\\beta^{2} + (-4M_{(1)} - M_{(1,1)} - 2M_{(2)})\\beta + 3 + "
        "4M_{(1,1)} + 2M_{(2)} - 3M_{(1,1,1)} + M_{(3)}\n",
    ),
    (
        ("tau", "--format", "text", "--", "b^3 - 2*b"),
        "-b^3 + 3*[1]*b^2 + (2 - 6*[1,1] - 3*[2])*b - 2*[1] + 6*[1,1,1] + "
        "3*[1,2] + 3*[2,1] + [3]\n",
    ),
    (
        ("tau", "--format", "json", "--", "b^3 - 2*b"),
        '[{"beta_power": 3, "coefficient": [{"composition": [], "coefficient": '
        '-1}]}, {"beta_power": 2, "coefficient": [{"composition": [1], '
        '"coefficient": 3}]}, {"beta_power": 1, "coefficient": [{"composition": '
        '[], "coefficient": 2}, {"composition": [1, 1], "coefficient": -6}, '
        '{"composition": [2], "coefficient": -3}]}, {"beta_power": 0, '
        '"coefficient": [{"composition": [1], "coefficient": -2}, '
        '{"composition": [1, 1, 1], "coefficient": 6}, {"composition": [1, 2], '
        '"coefficient": 3}, {"composition": [2, 1], "coefficient": 3}, '
        '{"composition": [3], "coefficient": 1}]}]\n',
    ),
    (
        ("tau", "--format", "latex", "--", "b^3 - 2*b"),
        "-\\beta^{3} + 3M_{(1)}\\beta^{2} + (2 - 6M_{(1,1)} - 3M_{(2)})\\beta - "
        "2M_{(1)} + 6M_{(1,1,1)} + 3M_{(1,2)} + 3M_{(2,1)} + M_{(3)}\n",
    ),
    (
        ("stratum", "--format", "text", "--", "3"),
        "[1,1,1]\n",
    ),
    (
        ("stratum", "--format", "json", "--", "3"),
        '[{"composition": [1, 1, 1], "coefficient": 1}]\n',
    ),
    (
        ("stratum", "--format", "latex", "--", "3"),
        "M_{(1,1,1)}\n",
    ),
]


class TestLongLivedProcess:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_after_errors_and_help(self, capsys):
        assert invoke(capsys, "mul", "[1]")[0] == 2
        assert invoke(capsys, "mul", "[1,", "[1]")[0] == 2
        first_help = invoke(capsys, "--help")
        argv, expected = GOLDEN[0]
        assert invoke(capsys, *argv) == (0, expected, "")
        assert invoke(capsys, "--help") == first_help

    @pytest.mark.parametrize(
        "kernel", [algebra._quasi_shuffle, expansion._basis_expansion, expansion._face_selectors]
    )
    def test_kernel_caches_are_bounded(self, kernel):
        assert kernel.cache_info().maxsize is not None

    def test_part_text_table_is_bounded(self, capsys):
        table = syntax._part_text.__self__
        for part in (4095, 4096, 10**30):
            for fmt, expected in (("text", f"[{part}]"), ("latex", f"M_{{({part})}}")):
                assert invoke(capsys, "mul", f"[{part}]", "1", "--format", fmt) == (
                    0, expected + "\n", ""
                )
        parts = Composition(range(1, 10_001))
        assert syntax.format_composition(parts) == "[" + ",".join(map(str, parts)) + "]"
        assert syntax.latex_composition(parts) == "M_{(" + ",".join(map(str, parts)) + ")}"
        assert 0 < len(table) <= 4096
        assert all(type(part) is int and part < 4096 for part in table)
        assert table[4095] == "4095" and 4096 not in table


class TestLargeProductOutput:
    """A 1,433-term product printed against a rendering built here from plain
    ``str``, ``json.dumps`` and the weight-then-lex order, with the terms taken
    from the surjection formula rather than the kernel."""

    LEFT, RIGHT = (3, 1, 4, 1, 5), (2, 7, 1, 8, 2)

    @pytest.fixture(scope="class")
    def reference(self):
        coefficients = {k: -c for k, c in surjection_product(self.LEFT, self.RIGHT).items()}
        assert len(coefficients) > 1000 and min(coefficients.values()) < -1
        keys = sorted(coefficients, key=lambda c: (sum(c), c))
        return [(key, coefficients[key]) for key in keys]

    @staticmethod
    def _signed(terms, open_, close, times):
        parts = [
            ("" if c == -1 else f"{-c}{times}") + open_ + ",".join(str(p) for p in key) + close
            for key, c in terms
        ]
        return "-" + " - ".join(parts)  # every coefficient is negative

    def _run(self, capsys, fmt):
        left, right = (f"[{','.join(map(str, c))}]" for c in (self.LEFT, self.RIGHT))
        code, out, err = invoke(capsys, "mul", "--format", fmt, "--", left, "-" + right)
        assert (code, err) == (0, "")
        return out

    def test_text(self, capsys, reference):
        assert self._run(capsys, "text") == self._signed(reference, "[", "]", "*") + "\n"

    def test_latex(self, capsys, reference):
        assert self._run(capsys, "latex") == self._signed(reference, "M_{(", ")}", "") + "\n"

    def test_json(self, capsys, reference):
        expected = [{"composition": list(k), "coefficient": c} for k, c in reference]
        assert self._run(capsys, "json") == json.dumps(expected) + "\n"

    def test_keys_are_compositions_and_terms_iterate_afresh(self, reference):
        algebra._quasi_shuffle.cache_clear()
        product = monomial(self.LEFT) * -monomial(self.RIGHT)
        assert all(type(k) is tuple for k, _ in algebra._quasi_shuffle(self.LEFT, self.RIGHT))
        assert all(type(k) is tuple for k in product._terms)
        assert all(type(k) is Composition for k, _ in product.terms())
        first, second = product.terms(), product.terms()
        assert next(first) == reference[0]
        assert list(second) == reference
        assert list(first) == reference[1:]
        assert list(first) == list(second) == []
        assert list(product.terms()) == reference


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN,
    ids=[" ".join(argv[: argv.index("--")]) for argv, _ in GOLDEN],
)
def test_golden_output(capsys, argv, expected):
    assert invoke(capsys, *argv) == (0, expected, "")


def test_import_loads_no_unused_stdlib_module():
    # The modules a fresh `import qsym.cli` adds, so whatever site preloads
    # does not count.  The package needs none of these four at start-up.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys; before = set(sys.modules); import qsym.cli; "
              "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "qsym.cli" in loaded
    assert not loaded & {"inspect", "dataclasses", "fractions", "decimal"}
