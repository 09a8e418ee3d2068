"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets are wall-clock seconds measured around the mathematical work; all
equality assertions are exact (no tolerances anywhere in the package).
"""

import sys
import time
from fractions import Fraction


from liedouble import (
    HALF_SQRT2,
    ONE,
    QUASITRIANGULAR,
    LieAlgebra,
    ManinTriple,
    Scalar,
    TwoTensor,
    Vector,
    build_double,
    build_gln_tn,
    build_gln_triple,
    build_rmatrix,
    build_s_minus,
    build_s_plus,
    check_ad_invariance,
    check_chain_embedding,
    check_compatibility,
    coboundary,
    cocommutator_from_triple,
    express_in_basis,
    f_index,
    gln_change_of_basis,
    gln_labels,
    h_index,
    i_index,
    identify_central,
    root_index,
    schouten_check,
    split_twist,
    structure_equal,
)
from liedouble.cli import CARTAN_COEFFICIENT_NOTE, verify_suite
from liedouble.glnfactory import verify_double_is_gln

K = HALF_SQRT2
HALF = Scalar(Fraction(1, 2))
I_HALF = Scalar(0, 0, Fraction(1, 2))


class criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, number: str, description: str, budget: float):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        sys.stdout.write(
            f"[{status}] Criterion {self.number}: {self.description} "
            f"({elapsed:.2f}s / budget {self.budget:.0f}s)\n"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_rank_two_golden_brackets():
    with criterion("1", "rank-two double reproduces every displayed bracket", 1.0):
        triple = build_gln_triple(2)
        double = build_double(triple)
        alg = double.algebra
        # plus half: [Z1,Z2]=0, [Z1,Z3]=K Z3, [Z2,Z3]=-K Z3
        assert alg.bracket_basis(0, 1).is_zero()
        assert alg.bracket_basis(0, 2) == Vector({2: K})
        assert alg.bracket_basis(1, 2) == Vector({2: -K})
        # minus half: [z1,z2]=0, [z1,z3]=-K z3, [z2,z3]=K z3
        assert alg.bracket_basis(3, 4).is_zero()
        assert alg.bracket_basis(3, 5) == Vector({5: -K})
        assert alg.bracket_basis(4, 5) == Vector({5: K})
        # crossed: [z1,Z3]=K Z3, [z2,Z3]=-K Z3, [z3,Z1]=K z3, [z3,Z2]=-K z3,
        #          [z3,Z3]=-K(z1+Z1)+K(z2+Z2)
        assert alg.bracket(Vector.basis(3), Vector.basis(2)) == Vector({2: K})
        assert alg.bracket(Vector.basis(4), Vector.basis(2)) == Vector({2: -K})
        assert alg.bracket(Vector.basis(5), Vector.basis(0)) == Vector({5: K})
        assert alg.bracket(Vector.basis(5), Vector.basis(1)) == Vector({5: -K})
        assert alg.bracket(Vector.basis(5), Vector.basis(2)) == Vector(
            {0: -K, 3: -K, 1: K, 4: K}
        )
        # after the basis change: the standard gl(2)+t_2 table
        rebased = alg.change_of_basis(gln_change_of_basis(2), labels=gln_labels(2))
        h1, h2 = h_index(2, 1), h_index(2, 2)
        f12, f21 = f_index(2, 1, 2), f_index(2, 2, 1)
        assert rebased.bracket_basis(h1, h2).is_zero()
        assert rebased.bracket_basis(h1, f12) == Vector({f12: ONE})
        assert rebased.bracket_basis(h1, f21) == Vector({f21: -ONE})
        assert rebased.bracket_basis(h2, f12) == Vector({f12: -ONE})
        assert rebased.bracket_basis(h2, f21) == Vector({f21: ONE})
        assert rebased.bracket_basis(f12, f21) == Vector({h1: ONE, h2: -ONE})
        for i in (1, 2):
            central = i_index(2, i)
            for other in range(6):
                if other != central:
                    assert rebased.bracket_basis(central, other).is_zero()


def test_criterion_02_rank_two_bialgebra_golden():
    with criterion("2", "rank-two cocommutator matches the displayed values", 1.0):
        triple = build_gln_triple(2)
        delta = cocommutator_from_triple(triple)
        # eta(Z3) = K Z3^(Z1 - Z2); the double cocommutator is -eta on Z's
        eta_z3 = -delta.get(root_index(2, 1, 2))
        assert eta_z3 == TwoTensor.wedge(2, 0, K) + TwoTensor.wedge(2, 1, -K)
        # delta(z3) = -K z3^(z1 - z2)
        assert delta.get(3 + root_index(2, 1, 2)) == TwoTensor.wedge(
            5, 3, -K
        ) + TwoTensor.wedge(5, 4, K)
        # in the H/I/F basis: delta(F12) = -1/2 F12^(H1-H2) - i/2 F12^(I1-I2)
        moved = express_in_basis(delta, gln_change_of_basis(2))
        f12 = f_index(2, 1, 2)
        expected = (
            TwoTensor.wedge(f12, h_index(2, 1), -HALF)
            + TwoTensor.wedge(f12, h_index(2, 2), HALF)
            + TwoTensor.wedge(f12, i_index(2, 1), -I_HALF)
            + TwoTensor.wedge(f12, i_index(2, 2), I_HALF)
        )
        assert moved.get(f12) == expected


def test_criterion_03_compatibility_matrix():
    with criterion("3", "compatibility and Jacobi checks empty for n = 1..6", 30.0):
        for n in range(1, 7):
            plus, minus = build_s_plus(n), build_s_minus(n)
            assert plus.check_jacobi().ok, n
            assert minus.check_jacobi().ok, n
            assert check_compatibility(plus.tensor, minus.tensor).ok, n
            double = build_double(ManinTriple.unchecked(plus, minus))
            assert double.algebra.check_jacobi().ok, n


def test_criterion_04_isomorphism():
    with criterion("4", "double identified with gl(n)+t_n for n = 2..5", 10.0):
        for n in (2, 3, 4, 5):
            report = verify_double_is_gln(n)
            assert report.ok, (n, report.violations)


def test_criterion_05_coboundary_identity():
    with criterion("5", "coboundary of the skew r-matrix equals delta, n = 2..4", 10.0):
        for n in (2, 3, 4):
            triple = build_gln_triple(n)
            double = build_double(triple)
            delta = cocommutator_from_triple(triple)
            _, r_skew = build_rmatrix(triple)
            assert coboundary(double.algebra, r_skew) == delta, n
            T = gln_change_of_basis(n)
            rebased = double.algebra.change_of_basis(T, labels=gln_labels(n))
            moved_r = r_skew.transport(T.inverse())
            assert coboundary(rebased, moved_r) == express_in_basis(delta, T), n
            if n == 2:
                assert moved_r.get(f_index(2, 2, 1), f_index(2, 1, 2)) == HALF


def test_criterion_06_quasitriangularity():
    with criterion("6", "Schouten bracket nonzero and invariant for n = 2, 3", 30.0):
        for n in (2, 3):
            triple = build_gln_triple(n)
            _, r_skew = build_rmatrix(triple)
            report = schouten_check(build_double(triple).algebra, r_skew)
            assert report.verdict == QUASITRIANGULAR, n
            assert not report.schouten.is_zero()
            assert not report.violations


def test_criterion_07_twist_triviality():
    with criterion("7", "twist coboundary collapses under the central quotient", 5.0):
        for n in (2, 3):
            triple = build_gln_triple(n)
            T = gln_change_of_basis(n)
            rebased = build_double(triple).algebra.change_of_basis(
                T, labels=gln_labels(n)
            )
            _, r_skew = build_rmatrix(triple)
            _, r_twist = split_twist(n, r_skew.transport(T.inverse()))
            twist_delta = coboundary(rebased, r_twist)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    fij = f_index(n, i, j)
                    expected = TwoTensor.wedge(
                        fij, i_index(n, i), -I_HALF
                    ) + TwoTensor.wedge(fij, i_index(n, j), I_HALF)
                    assert twist_delta.get(fij) == expected, (n, i, j)
                    assert identify_central(n, twist_delta.get(fij)).is_zero(), (n, i, j)


def test_criterion_08_chain_preservation():
    with criterion("8", "inclusions preserve brackets and cocommutators, m = 1..4", 10.0):
        for m in (1, 2, 3, 4):
            report = check_chain_embedding(m)
            assert report.ok, (m, report.violations[:3])


def test_criterion_09a_as_stated_known_unattainable():
    """Literal reading: dropping 1/sqrt2 breaks check_compatibility at n = 2.

    That cannot be observed, and this test pins why.  At n = 2 there is a
    single root pair (1, 2), so there is no root-root bracket: every
    structure constant of s_plus is +alpha * (+-1) and every one of s_minus
    is -beta * (+-1), with alpha and beta the two Cartan coefficients.  Each
    term of the crossed Jacobi residual in check_compatibility is one c entry
    times one f entry, so the residual at (alpha, beta) is alpha * beta times
    the residual at (1, 1), which is zero.  Hence the check is empty for
    every pair of scales, kappa = 1 included.  The removal is still caught:
    the kappa = 1 halves differ from the default ones, and the verify
    aggregate rejects them because the rebased double is no longer
    gl(2) + t_2 in the fixed basis.  Where compatibility itself bites
    (n >= 3) is pinned by the companion test below.
    """
    with criterion("9a", "n = 2 compat is scale-invariant; kappa = 1 still detected", 5.0):
        scales = (
            ONE,
            Scalar(2),
            Scalar(-1),
            K,
            -K,
            Scalar(0, 0, 1),
            Scalar(0, 1),
            Scalar(Fraction(3, 7), 1, -2, 5),
        )
        unit_plus = build_s_plus(2, ONE).tensor
        unit_minus = build_s_minus(2, ONE).tensor
        for alpha in scales:
            plus = build_s_plus(2, alpha).tensor
            # premise: every n = 2 structure constant carries the one scale
            assert dict(plus.stored()) == {
                key: {r: alpha * v for r, v in vec.items()}
                for key, vec in unit_plus.stored()
            }, alpha
            for beta in scales:
                minus = build_s_minus(2, beta).tensor
                report = check_compatibility(plus, minus)
                assert report.ok, (alpha, beta, report.violations[:3])
        # the kappa = 1 halves are not the default halves ...
        assert unit_plus != build_s_plus(2).tensor
        assert unit_minus != build_s_minus(2).tensor
        # ... and the verify aggregate still rejects them at n = 2
        assert _detected_by_verify_checks(
            build_s_plus(2, ONE), build_s_minus(2, ONE)
        )


def test_criterion_09a_normalization_is_load_bearing():
    with criterion("9a'", "kappa = 1 detected: compat at n = 3, identification at n = 2", 5.0):
        # the crossed compatibility genuinely fails from n = 3 on ...
        report = check_compatibility(
            build_s_plus(3, ONE).tensor, build_s_minus(3, ONE).tensor
        )
        assert not report.ok
        # ... and at n = 2 the construction stops being gl(2)+t_2 in the
        # fixed basis, so the removal is still detected by the verify suite
        triple = ManinTriple.unchecked(build_s_plus(2, ONE), build_s_minus(2, ONE))
        rebased = build_double(triple).algebra.change_of_basis(
            gln_change_of_basis(2), labels=gln_labels(2)
        )
        assert not structure_equal(rebased, build_gln_tn(2))


def _detected_by_verify_checks(plus: LieAlgebra, minus: LieAlgebra) -> bool:
    """Mirror of the verify aggregate on explicit (possibly doctored) inputs."""
    if not plus.check_jacobi().ok or not minus.check_jacobi().ok:
        return True
    if not check_compatibility(plus.tensor, minus.tensor).ok:
        return True
    double = build_double(ManinTriple.unchecked(plus, minus))
    if not double.algebra.check_jacobi().ok:
        return True
    n = 2
    rebased = double.algebra.change_of_basis(
        gln_change_of_basis(n), labels=gln_labels(n)
    )
    return not structure_equal(rebased, build_gln_tn(n))


def test_criterion_09b_single_perturbations_detected():
    with criterion("9b", "every single perturbed structure constant is detected", 5.0):
        plus, minus = build_s_plus(2), build_s_minus(2)
        assert not _detected_by_verify_checks(plus, minus)

        def variants(algebra):
            entries = {key: dict(vec) for key, vec in algebra.tensor.stored()}
            out = []
            for key, vec in entries.items():
                for r in vec:
                    for factor in (Scalar(2), Scalar(-1)):
                        doctored = {k: dict(v) for k, v in entries.items()}
                        doctored[key][r] = doctored[key][r] * factor
                        out.append(
                            LieAlgebra.from_brackets(algebra.labels, doctored)
                        )
            # injected brand-new constants
            for key, vec in (((0, 1), {0: ONE}), ((0, 1), {2: K})):
                doctored = {k: dict(v) for k, v in entries.items()}
                doctored[key] = dict(vec)
                out.append(LieAlgebra.from_brackets(algebra.labels, doctored))
            return out

        count = 0
        for doctored_plus in variants(plus):
            assert _detected_by_verify_checks(doctored_plus, minus)
            count += 1
        for doctored_minus in variants(minus):
            assert _detected_by_verify_checks(plus, doctored_minus)
            count += 1
        assert count == 12  # 2 entries x 2 factors + 2 injections, both sides


def test_criterion_10_convention_report():
    with criterion("10", "one invariance convention everywhere; i/2 flagged", 5.0):
        for n in (2, 3, 4):
            double = build_double(build_gln_triple(n))
            report = check_ad_invariance(double)
            assert report.conventions() == ("invariant",), n
            assert report.anti_invariant_counterexamples
        checks = verify_suite(2)
        rmatrix_check = next(c for c in checks if c.name == "rmatrix_conventions")
        assert rmatrix_check.passed
        assert rmatrix_check.note == CARTAN_COEFFICIENT_NOTE
        assert "i/2" in rmatrix_check.note and "i/4" in rmatrix_check.note
