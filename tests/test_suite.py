"""Failure output of the gl(n) verify suite under doctored inputs.

The expected lists pin each check's status, counterexamples and detail when
one of the suite's inputs is wrong.
"""

import liedouble.glnfactory as glnfactory
import liedouble.suite as suite
from liedouble import (
    LieAlgebra,
    StructureTensor,
    TwoTensor,
    build_gln_triple,
    build_rmatrix,
    gln_change_of_basis,
    h_index,
)
from liedouble.suite import CARTAN_COEFFICIENT_NOTE, run_check, verify_suite

# detail of every n = 2 check; a failing check keeps its detail
DETAILS = {
    "ad_invariance_convention": "holds: invariant",
    "chain_embedding": "inclusion into the size-3 construction",
    "coboundary_identity": "checked in the paired basis and the H/I/F basis",
    "cocycle": "",
    "cojacobi": "",
    "compatibility": "",
    "double_is_glntn": "",
    "forms_comparison": (
        "killing = 2n*trace - 2*(tr x tr) on the gl block and vanishes on the "
        "center; the extended trace form pairs the center by delta"
    ),
    "isotropic_pairing": "",
    "jacobi_double": "",
    "jacobi_s_minus": "",
    "jacobi_s_plus": "",
    "rmatrix_conventions": "",
    "schouten": (
        "verdict: quasitriangular; verdict computed on the skew part; the "
        "symmetric part of the canonical element is adjoint-invariant and does "
        "not affect it"
    ),
    "twist_triviality": "",
}

# verify_suite(2) with the skew r-matrix doubled
DOUBLED_RMATRIX_FAILURES = {
    "coboundary_identity": [
        ((2,), "1/2*sqrt2*X1(x)Y12 - 1/2*sqrt2*X2(x)Y12 - 1/2*sqrt2*Y12(x)X1 + 1/2*sqrt2*Y12(x)X2"),
        ((5,), "1/2*sqrt2*x1(x)y12 - 1/2*sqrt2*x2(x)y12 - 1/2*sqrt2*y12(x)x1 + 1/2*sqrt2*y12(x)x2"),
        (
            (4,),
            "1/2*H1(x)F12 - 1/2*H2(x)F12 + 1/2*i*I1(x)F12 - 1/2*i*I2(x)F12"
            " - 1/2*F12(x)H1 + 1/2*F12(x)H2 - 1/2*i*F12(x)I1 + 1/2*i*F12(x)I2",
        ),
        (
            (5,),
            "1/2*H1(x)F21 - 1/2*H2(x)F21 - 1/2*i*I1(x)F21 + 1/2*i*I2(x)F21"
            " - 1/2*F21(x)H1 + 1/2*F21(x)H2 + 1/2*i*F21(x)I1 - 1/2*i*F21(x)I2",
        ),
    ],
    "rmatrix_conventions": [
        ((0, 2), "H1^I1 coefficient i, expected 1/2*i"),
        ((5, 4), "F21^F12 coefficient 1, expected 1/2"),
        ((1, 3), "H2^I2 coefficient i, expected 1/2*i"),
    ],
    "twist_triviality": [
        (
            (4,),
            "twist coboundary of F12: "
            "1/2*i*I1(x)F12 - 1/2*i*I2(x)F12 - 1/2*i*F12(x)I1 + 1/2*i*F12(x)I2",
        ),
        (
            (5,),
            "twist coboundary of F21: "
            "-1/2*i*I1(x)F21 + 1/2*i*I2(x)F21 + 1/2*i*F21(x)I1 - 1/2*i*F21(x)I2",
        ),
        ((4,), "standard + twist coboundaries miss delta"),
        ((5,), "standard + twist coboundaries miss delta"),
    ],
}

# verify_suite(2) with [H1, F12] tripled in the expected gl(2) + t_2 table
TRIPLED_BRACKET_FAILURES = {
    "double_is_glntn": [((0, 4), "-2*F12")],
    "forms_comparison": [
        ((0, 0), "8"),
        ((0, 1), "-2"),
        ((1, 0), "-2"),
        ((4, 5), "2"),
        ((5, 4), "2"),
    ],
}


def expected(failures):
    return [
        (name, "fail" if name in failures else "pass", failures.get(name, []), detail)
        for name, detail in sorted(DETAILS.items())
    ]


def observed(checks):
    return [
        (
            check.name,
            check.status,
            [(v.indices, v.residual) for v in check.counterexamples],
            check.detail,
        )
        for check in checks
    ]


def doubled_rmatrix(original):
    def build(triple):
        r, r_skew = original(triple)
        return r, r_skew.scale(2)

    return build


def tripled_first_bracket(original):
    def build(n):
        algebra = original(n)
        entries = {key: dict(coeffs) for key, coeffs in algebra.tensor.stored()}
        first = next(iter(entries))
        entries[first] = {r: value * 3 for r, value in entries[first].items()}
        return LieAlgebra(algebra.labels, StructureTensor(entries))

    return build


def test_doubled_rmatrix_fails_the_rmatrix_checks(monkeypatch):
    monkeypatch.setattr(suite, "build_rmatrix", doubled_rmatrix(suite.build_rmatrix))
    checks = verify_suite(2)
    assert observed(checks) == expected(DOUBLED_RMATRIX_FAILURES)
    conventions = next(check for check in checks if check.name == "rmatrix_conventions")
    assert conventions.note == CARTAN_COEFFICIENT_NOTE


def test_tripled_bracket_fails_the_table_checks(monkeypatch):
    tripled = tripled_first_bracket(glnfactory.build_gln_tn)
    monkeypatch.setattr(suite, "build_gln_tn", tripled)
    monkeypatch.setattr(glnfactory, "build_gln_tn", tripled)
    assert observed(verify_suite(2)) == expected(TRIPLED_BRACKET_FAILURES)


def test_verify_double_is_gln_detail_names_the_first_difference(monkeypatch):
    monkeypatch.setattr(
        glnfactory, "build_gln_tn", tripled_first_bracket(glnfactory.build_gln_tn)
    )
    report = glnfactory.verify_double_is_gln(2)
    assert not report.ok
    assert [(v.indices, v.residual) for v in report.violations] == [((0, 4), "-2*F12")]


def test_rmatrix_conventions_reports_a_term_the_split_rejects():
    n = 2
    _, r_skew = build_rmatrix(build_gln_triple(n))
    # H1^H2 in the H/I/F basis, written in the paired basis
    foreign = TwoTensor.wedge(h_index(n, 1), h_index(n, 2)).transport(gln_change_of_basis(n))
    assert suite._rmatrix_conventions(n, r_skew) == []
    assert [(v.indices, v.residual) for v in suite._rmatrix_conventions(n, r_skew + foreign)] == [
        ((), "term at (0, 1) (blocks ['H']) fits neither the F^F nor the H^I pattern")
    ]


def test_run_check_passes_exactly_on_no_counterexamples():
    passed = run_check("empty", lambda: [], detail="d", note="n")
    assert (passed.status, passed.counterexamples, passed.detail, passed.note) == (
        "pass", [], "d", "n"
    )
    failed = run_check("one", lambda: iter(["x"]))
    assert (failed.status, failed.counterexamples, failed.passed) == ("fail", ["x"], False)
