"""The gl(n) + t_n verification suite: every library check for one size n.

``verify_suite(n)`` builds the two solvable halves, their triple and double,
the cocommutator, the change of basis to H, I, F and the skew r-matrix once,
certifies the double's self-duality on them, then runs each named check over
them.  Every check is a function returning its counterexamples;
``run_check`` times it and the check passes exactly when that list is empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bialg import (
    TwoTensor,
    build_rmatrix,
    certify_self_duality,
    check_cocycle,
    check_cojacobi,
    coboundary,
    cocommutator_from_triple,
    express_in_basis,
    schouten_check,
)
from .glnfactory import (
    build_gln_tn,
    build_s_minus,
    build_s_plus,
    check_chain_embedding,
    f_index,
    fundamental_representation,
    gln_change_of_basis,
    gln_labels,
    gln_tn_trace_form,
    h_index,
    i_index,
    identify_central,
    representation_index,
    rmatrix_in_gln_basis,
    self_duality,
    verify_double_is_gln,
)
from .liealg import Violation, value_pool
from .manin import (
    ManinTriple,
    build_double,
    check_ad_invariance,
    check_compatibility,
    check_isotropic_pairing,
)
from .scalars import ONE, Scalar, ZERO, rational

__all__ = ["CARTAN_COEFFICIENT_NOTE", "CheckResult", "run_check", "verify_suite"]

CARTAN_COEFFICIENT_NOTE = (
    "Cartan twist coefficient derived exactly as i/2 per H_k^I_k under the "
    "wedge convention a^b = a(x)b - b(x)a; the often-quoted i/4 would require "
    "a half-normalized wedge that also halves the F-block coefficient to 1/4, "
    "contradicting the verified value 1/2, so the derived i/2 is recorded."
)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    counterexamples: list[Violation] = field(default_factory=list)
    millis: int = 0
    detail: str = ""
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def run_check(name: str, func, detail: str = "", note: str = "") -> CheckResult:
    """Time ``func()``; the check passes exactly when it returns no counterexamples."""
    start = time.perf_counter()
    counterexamples = list(func())
    millis = int((time.perf_counter() - start) * 1000)
    return CheckResult(
        name, "fail" if counterexamples else "pass", counterexamples, millis, detail, note
    )


def _coboundary_residuals(algebra, r_skew: TwoTensor, delta) -> list[Violation]:
    """Generators p where delta(p) differs from the coboundary of r_skew."""
    computed = coboundary(algebra, r_skew)
    return [
        Violation((p,), (computed.get(p) - delta.get(p)).format(algebra.labels))
        for p in range(algebra.dim)
        if computed._half(p) != delta._half(p)
    ]


def _rmatrix_conventions(n: int, r_skew: TwoTensor) -> list[Violation]:
    """The split re-sums to r_skew, with i/2 on H_k^I_k and 1/2 on F_ji^F_ij."""
    try:
        r_skew_hif, r_standard, r_twist = rmatrix_in_gln_basis(n, r_skew)
    except ValueError as err:
        return [Violation((), str(err))]
    bad: list[Violation] = []
    labels = gln_labels(n)
    if (r_standard + r_twist) != r_skew_hif:
        bad.append(Violation((), "split does not re-sum to the skew r-matrix"))
    half = rational(1, 2)
    ihalf = Scalar(0, 0, 1) * half
    for i in range(1, n + 1):
        hi = (h_index(n, i), i_index(n, i))
        value = r_twist.get(*hi)
        if value != ihalf:
            bad.append(Violation(hi, f"H{i}^I{i} coefficient {value}, expected 1/2*i"))
        for j in range(i + 1, n + 1):
            fji, fij = f_index(n, j, i), f_index(n, i, j)
            value = r_standard.get(fji, fij)
            if value != half:
                residual = f"{labels[fji]}^{labels[fij]} coefficient {value}, expected 1/2"
                bad.append(Violation((fji, fij), residual))
    return bad


def _twist_triviality(n: int, hif, r_skew: TwoTensor, delta_hif) -> list[Violation]:
    """The twist's coboundary is central on each F_ij and dies in the quotient."""
    bad: list[Violation] = []
    _, r_standard, r_twist = rmatrix_in_gln_basis(n, r_skew)
    twist_delta = coboundary(hif, r_twist)
    standard_delta = coboundary(hif, r_standard)
    ihalf = Scalar(0, 0, 1) * rational(1, 2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            fij = f_index(n, i, j)
            label = hif.labels[fij]
            expected = TwoTensor.wedge(fij, i_index(n, i), -ihalf) + TwoTensor.wedge(
                fij, i_index(n, j), ihalf
            )
            got = twist_delta.get(fij)
            if got != expected:
                residual = (got - expected).format(hif.labels)
                bad.append(Violation((fij,), f"twist coboundary of {label}: {residual}"))
            if not identify_central(n, got).is_zero():
                bad.append(Violation((fij,), f"twist image of {label} survives the quotient"))
    for p in range(hif.dim):
        # _combined copies the left dict, so the stored halves stay as they are
        summed = TwoTensor._of_nonzero(standard_delta._half(p)) + TwoTensor._of_nonzero(
            twist_delta._half(p)
        )
        if summed._c != delta_hif._half(p):
            bad.append(Violation((p,), "standard + twist coboundaries miss delta"))
    return bad


def _forms_comparison(n: int) -> list[Violation]:
    """Killing form against the extended trace form of gl(n) + t_n.

    Both sides vanish off the stored entries of the two forms and the pairs
    of generators with nonzero trace, so only those pairs are compared.
    """
    algebra = build_gln_tn(n)
    killing = algebra.killing_form()
    trace = gln_tn_trace_form(n)
    rep = fundamental_representation(n)
    trace_of = {p: rep[k].trace() for k, p in enumerate(representation_index(n))}
    traced = {p for p, value in trace_of.items() if value}
    pairs = {(p, q) for p in traced for q in traced}
    for form in (killing, trace):
        pairs.update((p, q) for p in range(form.dim) for q in form.matrix().row(p).indices())
    bad: list[Violation] = []
    two_n, two = Scalar(2 * n), Scalar(2)
    for p, q in sorted(pairs):
        expected = ZERO
        if p in trace_of and q in trace_of:
            expected = two_n * trace.entry(p, q)
            if p in traced and q in traced:  # otherwise tr(p) * tr(q) = 0
                expected = expected - two * trace_of[p] * trace_of[q]
        if killing.entry(p, q) != expected:
            bad.append(Violation((p, q), str(killing.entry(p, q) - expected)))
    if trace.entry(i_index(n, 1), i_index(n, 1)) != ONE:
        bad.append(Violation((i_index(n, 1),), "central trace pairing missing"))
    return bad


@value_pool()
def verify_suite(n: int) -> list[CheckResult]:
    """Every library check for the size-n factory construction, sorted by name.

    Every kernel of the call, the chain check's size-n and size-(n+1)
    builds included, computes through one value pool
    (:func:`liealg.value_pool`), which goes when the call returns or raises.
    """
    plus = build_s_plus(n)
    minus = build_s_minus(n)
    triple = ManinTriple.unchecked(plus, minus)
    double = build_double(triple)
    algebra = double.algebra
    delta = cocommutator_from_triple(triple)
    T = gln_change_of_basis(n)
    start = time.perf_counter()
    hif = algebra.change_of_basis(T, labels=gln_labels(n))
    delta_hif = express_in_basis(delta, T)
    rebase_ms = int((time.perf_counter() - start) * 1000)
    _, r_skew = build_rmatrix(triple)
    # the double's self-duality, or None when its certificate fails; with it
    # jacobi_double, cocycle, schouten and ad_invariance_convention check one
    # member of each theta-orbit
    theta = certify_self_duality(algebra, double.pairing, delta, r_skew, self_duality(n))
    reports = {}  # the two reports whose verdicts go into a check's detail
    # Each r-matrix check moves r_skew to H/I/F itself: perfbench pins the
    # resulting Matrix.inverse count, so sharing it waits for a re-pin.

    def ad_invariance() -> list[Violation]:
        reports["ad"] = check_ad_invariance(double, theta)
        if reports["ad"].conventions():
            return []
        return reports["ad"].invariant_counterexamples[:10]

    def schouten() -> list[Violation]:
        reports["schouten"] = schouten_check(algebra, r_skew, theta)
        return reports["schouten"].violations[:10]

    checks = [
        run_check("jacobi_s_plus", lambda: plus.check_jacobi().violations),
        run_check("jacobi_s_minus", lambda: minus.check_jacobi().violations),
        run_check(
            "compatibility", lambda: check_compatibility(plus.tensor, minus.tensor).violations
        ),
        run_check("jacobi_double", lambda: algebra.check_jacobi(theta).violations),
        run_check("isotropic_pairing", lambda: check_isotropic_pairing(double).violations),
        run_check("ad_invariance_convention", ad_invariance),
        run_check("cojacobi", lambda: check_cojacobi(delta, algebra.labels).violations),
        run_check("cocycle", lambda: check_cocycle(algebra, delta, theta).violations),
        run_check(
            "coboundary_identity",
            lambda: _coboundary_residuals(algebra, r_skew, delta)
            + _coboundary_residuals(hif, r_skew.transport(T.inverse()), delta_hif),
            detail="checked in the paired basis and the H/I/F basis",
        ),
        run_check("schouten", schouten),
        run_check(
            "rmatrix_conventions",
            lambda: _rmatrix_conventions(n, r_skew),
            note=CARTAN_COEFFICIENT_NOTE,
        ),
        run_check(
            "twist_triviality",
            lambda: _twist_triviality(n, hif, r_skew, delta_hif),
        ),
        run_check("double_is_glntn", lambda: verify_double_is_gln(n, hif).violations),
        run_check(
            "chain_embedding",
            lambda: check_chain_embedding(n).violations[:10],
            detail=f"inclusion into the size-{n + 1} construction",
        ),
        run_check(
            "forms_comparison",
            lambda: _forms_comparison(n),
            detail=(
                "killing = 2n*trace - 2*(tr x tr) on the gl block and vanishes "
                "on the center; the extended trace form pairs the center by delta"
            ),
        ),
    ]
    by_name = {check.name: check for check in checks}
    conventions = reports["ad"].conventions()
    by_name["ad_invariance_convention"].detail = "holds: " + (
        ", ".join(conventions) if conventions else "neither"
    )
    by_name["schouten"].detail = (
        f"verdict: {reports['schouten'].verdict}; {reports['schouten'].assumption}"
    )
    by_name["double_is_glntn"].millis += rebase_ms  # the rebasing is timed with this check
    checks.sort(key=lambda check: check.name)
    return checks
