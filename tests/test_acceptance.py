"""The exit criteria, one test per criterion.

Every criterion is exact: either the computed objects equal the frozen
references term by term, or an exhaustive sweep finds no counterexample.
Each test prints one PASS/FAIL line outside the capture machinery so the
verdicts stay visible in any pytest run.
"""

from qsym.algebra import QSymElement, TensorElement, monomial
from qsym.chow import BetaElement, marked_point_involution
from qsym.compositions import Composition, enumerate_lyndon, lyndon_count
from qsym.expansion import lyndon_generation_matrix
from qsym.verification import (
    hopf_checks,
    limit_checks,
    lyndon_free_checks,
    mu_checks,
    oracle_checks,
    tau_checks,
)

M = monomial


def _report(capsys, number: int, label: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({label}): {verdict}", flush=True)
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_frozen_reference_values(capsys):
    product_ok = M([1, 2]) * M([1, 1]) == (
        M([1, 2, 1, 1]) + 2 * M([1, 1, 2, 1]) + 3 * M([1, 1, 1, 2])
        + M([2, 2, 1]) + M([1, 3, 1]) + M([2, 1, 2])
        + 2 * M([1, 1, 3]) + M([1, 2, 2]) + M([2, 3])
    )
    square_ok = M([1]) * M([1]) == M([2]) + 2 * M([1, 1])
    coproduct_ok = M([3, 1, 4]).coproduct() == TensorElement(2, {
        (Composition([3, 1, 4]), Composition()): 1,
        (Composition([3, 1]), Composition([4])): 1,
        (Composition([3]), Composition([1, 4])): 1,
        (Composition(), Composition([3, 1, 4])): 1,
    })
    antipode_ok = M([3, 1, 4]).antipode() == -(
        M([4, 1, 3]) + M([5, 3]) + M([4, 4]) + M([8])
    )
    counts_ok = [lyndon_count(n) for n in range(1, 8)] == [1, 1, 2, 3, 6, 9, 18]
    generators_ok = [
        [tuple(c) for c in enumerate_lyndon(n)] for n in range(1, 5)
    ] == [[(1,)], [(2,)], [(1, 2), (3,)], [(1, 1, 2), (1, 3), (4,)]]
    beta_ok = marked_point_involution(BetaElement.beta()) == BetaElement(
        {1: QSymElement.from_int(-1), 0: M([1])}
    )
    _report(capsys, 1, "frozen reference values", all([
        product_ok, square_ok, coproduct_ok, antipode_ok,
        counts_ok, generators_ok, beta_ok,
    ]))


def test_criterion_2_product_matches_polynomial_oracle(capsys):
    checks = oracle_checks(7)
    _report(capsys, 2, "product matches polynomial oracle to weight 7",
            all(c.passed for c in checks))


def test_criterion_3_hopf_axioms(capsys):
    checks = hopf_checks(6)
    _report(capsys, 3, "hopf axioms to weight 6", all(c.passed for c in checks))


def test_criterion_4_gluing_pullback_equals_coproduct(capsys):
    checks = mu_checks(6)
    _report(capsys, 4, "gluing pullback equals coproduct to weight 6",
            all(c.passed for c in checks))


def test_criterion_5_expansions_cohere_under_variable_removal(capsys):
    checks = limit_checks(5)
    _report(capsys, 5, "expansions cohere under variable removal to weight 5",
            all(c.passed for c in checks))


def test_criterion_6_lyndon_free_generation(capsys):
    checks = lyndon_free_checks(6)
    sizes_ok = True
    for weight in range(1, 7):
        matrix = lyndon_generation_matrix(weight)
        if len(matrix) != 2 ** (weight - 1):
            sizes_ok = False
        if any(len(row) != 2 ** (weight - 1) for row in matrix):
            sizes_ok = False
    _report(capsys, 6, "lyndon monomials form graded bases to weight 6",
            sizes_ok and all(c.passed for c in checks))


def test_criterion_7_marked_point_involution(capsys):
    checks = tau_checks(5)
    _report(capsys, 7, "marked point involution to combined degree 5",
            all(c.passed for c in checks))


def test_criterion_8_counting_identities(capsys):
    divisor_ok = all(
        sum(d * lyndon_count(d) for d in range(1, n + 1) if n % d == 0) == 2**n - 1
        for n in range(1, 17)
    )
    enumeration_ok = all(
        len(enumerate_lyndon(n)) == lyndon_count(n) for n in range(1, 13)
    )
    _report(capsys, 8, "generator counting identities to weight 16",
            divisor_ok and enumeration_ok)
