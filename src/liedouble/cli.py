"""Command-line interface and structured report emission.

Subcommands::

    check-jacobi <file>                   Jacobi identity for one algebra file
    compat --plus <file> --minus <file>   crossed Jacobi compatibility
    double --plus <file> --minus <file>   build and print the double
    gln --n <k> --emit <what>             factory output (splus, sminus,
                                          double, delta, rmatrix, report)
    verify --n <k>                        full verification suite for one n

``--json`` switches to machine output: a single JSON document with sorted
keys and canonical scalar strings (never floats).  Exit codes: 0 when all
requested checks pass, 1 when a mathematical check fails, 2 on usage or
parse errors.  The environment variable ``LIEDOUBLE_VERBOSITY`` (an integer,
default 5) only controls how many counterexample lines the text renderer
prints per failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algfile import AlgebraFileError, from_algebra, parse_algebra_file
from .bialg import (
    TwoTensor,
    build_rmatrix,
    check_cocycle,
    check_cojacobi,
    coboundary,
    cocommutator_from_triple,
    express_in_basis,
    identify_central,
    schouten_check,
    split_twist,
)
from .glnfactory import (
    build_gln_tn,
    build_gln_triple,
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
    representation_index,
)
from .liealg import LieAlgebra, Vector, Violation, structure_equal
from .manin import (
    ManinTriple,
    build_double,
    check_ad_invariance,
    check_compatibility,
    check_isotropic_pairing,
)
from .scalars import ONE, Scalar, ZERO, rational

REPORT_SCHEMA = "liedouble.report/1"
EMIT_SCHEMA = "liedouble.emit/1"

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


def _timed(func):
    start = time.perf_counter()
    value = func()
    millis = int((time.perf_counter() - start) * 1000)
    return value, millis


def _from_violation_report(name, report, millis, detail="", note="") -> CheckResult:
    return CheckResult(
        name,
        "pass" if report.ok else "fail",
        list(report.violations),
        millis,
        detail,
        note,
    )


def _two_tensor_entries(tensor: TwoTensor, labels) -> list[dict]:
    return [
        {"left": labels[p], "right": labels[q], "coeff": str(value)}
        for (p, q), value in tensor.items()
    ]


def _algebra_payload(alg: LieAlgebra, name: str) -> dict:
    return {
        "name": name,
        "dim": alg.dim,
        "basis": list(alg.labels),
        "brackets": [
            {
                "left": alg.labels[p],
                "right": alg.labels[q],
                "terms": [
                    {"label": alg.labels[r], "coeff": str(value)}
                    for r, value in coeffs.items()
                ],
            }
            for (p, q), coeffs in alg.tensor.stored()
        ],
    }


def verify_suite(n: int) -> list[CheckResult]:
    """Every library check for the size-n factory construction."""
    checks: list[CheckResult] = []
    plus = build_s_plus(n)
    minus = build_s_minus(n)

    report, ms = _timed(plus.check_jacobi)
    checks.append(_from_violation_report("jacobi_s_plus", report, ms))
    report, ms = _timed(minus.check_jacobi)
    checks.append(_from_violation_report("jacobi_s_minus", report, ms))

    report, ms = _timed(lambda: check_compatibility(plus.tensor, minus.tensor))
    checks.append(_from_violation_report("compatibility", report, ms))

    triple = ManinTriple.unchecked(plus, minus)
    double = build_double(triple)

    report, ms = _timed(double.algebra.check_jacobi)
    checks.append(_from_violation_report("jacobi_double", report, ms))
    report, ms = _timed(lambda: check_isotropic_pairing(double))
    checks.append(_from_violation_report("isotropic_pairing", report, ms))

    invariance, ms = _timed(lambda: check_ad_invariance(double))
    conventions = invariance.conventions()
    checks.append(
        CheckResult(
            "ad_invariance_convention",
            "pass" if conventions else "fail",
            [] if conventions else invariance.invariant_counterexamples[:10],
            ms,
            detail="holds: " + (", ".join(conventions) if conventions else "neither"),
        )
    )

    delta = cocommutator_from_triple(triple)
    report, ms = _timed(lambda: check_cojacobi(delta, double.algebra.labels))
    checks.append(_from_violation_report("cojacobi", report, ms))
    report, ms = _timed(lambda: check_cocycle(double.algebra, delta))
    checks.append(_from_violation_report("cocycle", report, ms))

    T = gln_change_of_basis(n)
    labels_hif = gln_labels(n)
    start = time.perf_counter()
    hif = double.algebra.change_of_basis(T, labels=labels_hif)
    delta_hif = express_in_basis(delta, T)
    rebase_ms = int((time.perf_counter() - start) * 1000)

    def coboundary_check() -> CheckResult:
        start = time.perf_counter()
        _, r_skew = build_rmatrix(triple)
        bad: list[Violation] = []
        computed = coboundary(double.algebra, r_skew)
        for p in range(double.algebra.dim):
            if computed.get(p) != delta.get(p):
                residual = computed.get(p) - delta.get(p)
                bad.append(Violation((p,), residual.format(double.algebra.labels)))
        r_skew_hif = r_skew.transport(T.inverse())
        computed_hif = coboundary(hif, r_skew_hif)
        for p in range(hif.dim):
            if computed_hif.get(p) != delta_hif.get(p):
                residual = computed_hif.get(p) - delta_hif.get(p)
                bad.append(Violation((p,), residual.format(labels_hif)))
        millis = int((time.perf_counter() - start) * 1000)
        return CheckResult(
            "coboundary_identity",
            "pass" if not bad else "fail",
            bad,
            millis,
            detail="checked in the paired basis and the H/I/F basis",
        )

    checks.append(coboundary_check())

    _, r_skew = build_rmatrix(triple)
    schouten, ms = _timed(lambda: schouten_check(double.algebra, r_skew))
    checks.append(
        CheckResult(
            "schouten",
            "pass" if schouten.ok else "fail",
            schouten.violations[:10],
            ms,
            detail=f"verdict: {schouten.verdict}; {schouten.assumption}",
        )
    )

    def rmatrix_conventions() -> CheckResult:
        start = time.perf_counter()
        bad: list[Violation] = []
        r_skew_hif = r_skew.transport(T.inverse())
        try:
            r_standard, r_twist = split_twist(n, r_skew_hif)
        except ValueError as err:
            millis = int((time.perf_counter() - start) * 1000)
            return CheckResult(
                "rmatrix_conventions", "fail", [Violation((), str(err))], millis
            )
        if (r_standard + r_twist) != r_skew_hif:
            bad.append(Violation((), "split does not re-sum to the skew r-matrix"))
        half = rational(1, 2)
        ihalf = Scalar(0, 0, 1) * half
        for i in range(1, n + 1):
            value = r_twist.get(h_index(n, i), i_index(n, i))
            if value != ihalf:
                bad.append(
                    Violation(
                        (h_index(n, i), i_index(n, i)),
                        f"H{i}^I{i} coefficient {value}, expected 1/2*i",
                    )
                )
            for j in range(i + 1, n + 1):
                value = r_standard.get(f_index(n, j, i), f_index(n, i, j))
                if value != half:
                    bad.append(
                        Violation(
                            (f_index(n, j, i), f_index(n, i, j)),
                            f"F{j}{i}^F{i}{j} coefficient {value}, expected 1/2",
                        )
                    )
        millis = int((time.perf_counter() - start) * 1000)
        return CheckResult(
            "rmatrix_conventions",
            "pass" if not bad else "fail",
            bad,
            millis,
            note=CARTAN_COEFFICIENT_NOTE,
        )

    checks.append(rmatrix_conventions())

    def twist_triviality() -> CheckResult:
        start = time.perf_counter()
        bad: list[Violation] = []
        r_skew_hif = r_skew.transport(T.inverse())
        r_standard, r_twist = split_twist(n, r_skew_hif)
        twist_delta = coboundary(hif, r_twist)
        standard_delta = coboundary(hif, r_standard)
        ihalf = Scalar(0, 0, 1) * rational(1, 2)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                fij = f_index(n, i, j)
                expected = TwoTensor.wedge(fij, i_index(n, i), -ihalf) + TwoTensor.wedge(
                    fij, i_index(n, j), ihalf
                )
                got = twist_delta.get(fij)
                if got != expected:
                    bad.append(
                        Violation(
                            (fij,),
                            f"twist coboundary of F{i}{j}: {(got - expected).format(labels_hif)}",
                        )
                    )
                if not identify_central(n, got).is_zero():
                    bad.append(
                        Violation((fij,), f"twist image of F{i}{j} survives the quotient")
                    )
        for p in range(hif.dim):
            if (standard_delta.get(p) + twist_delta.get(p)) != delta_hif.get(p):
                bad.append(Violation((p,), "standard + twist coboundaries miss delta"))
        millis = int((time.perf_counter() - start) * 1000)
        return CheckResult(
            "twist_triviality", "pass" if not bad else "fail", bad, millis
        )

    checks.append(twist_triviality())

    def gln_match() -> CheckResult:
        start = time.perf_counter()
        expected = build_gln_tn(n)
        ok = structure_equal(hif, expected)
        bad: list[Violation] = []
        if not ok:
            got = dict(hif.tensor.stored())
            want = dict(expected.tensor.stored())
            for key in sorted(set(got) | set(want)):
                if got.get(key) != want.get(key):
                    residual = Vector(got.get(key, {})) - Vector(want.get(key, {}))
                    bad.append(Violation(key, residual.format(labels_hif)))
                    break
        millis = int((time.perf_counter() - start) * 1000) + rebase_ms
        return CheckResult("double_is_glntn", "pass" if ok else "fail", bad, millis)

    checks.append(gln_match())

    def chain() -> CheckResult:
        report, ms = _timed(lambda: check_chain_embedding(n))
        return CheckResult(
            "chain_embedding",
            "pass" if report.passed else "fail",
            report.violations[:10],
            ms,
            detail=f"inclusion into the size-{n + 1} construction",
        )

    checks.append(chain())

    def forms() -> CheckResult:
        start = time.perf_counter()
        algebra = build_gln_tn(n)
        killing = algebra.killing_form()
        trace = gln_tn_trace_form(n)
        rep = fundamental_representation(n)
        trace_of = {p: rep[k].trace() for k, p in enumerate(representation_index(n))}
        bad: list[Violation] = []
        two_n = Scalar(2 * n)
        for p in range(algebra.dim):
            for q in range(algebra.dim):
                if p in trace_of and q in trace_of:
                    expected = two_n * trace.entry(p, q) - Scalar(2) * trace_of[p] * trace_of[q]
                else:
                    expected = ZERO
                if killing.entry(p, q) != expected:
                    bad.append(
                        Violation((p, q), str(killing.entry(p, q) - expected))
                    )
        center_ok = trace.entry(i_index(n, 1), i_index(n, 1)) == ONE
        if not center_ok:
            bad.append(Violation((i_index(n, 1),), "central trace pairing missing"))
        millis = int((time.perf_counter() - start) * 1000)
        return CheckResult(
            "forms_comparison",
            "pass" if not bad else "fail",
            bad,
            millis,
            detail=(
                "killing = 2n*trace - 2*(tr x tr) on the gl block and vanishes "
                "on the center; the extended trace form pairs the center by delta"
            ),
        )

    checks.append(forms())
    checks.sort(key=lambda check: check.name)
    return checks


def _checks_payload(command: str, checks: list[CheckResult]) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "checks": [
            {
                "name": check.name,
                "status": check.status,
                "counterexamples": [
                    {"indices": list(v.indices), "residual": v.residual}
                    for v in check.counterexamples
                ],
                "millis": check.millis,
                **({"detail": check.detail} if check.detail else {}),
                **({"note": check.note} if check.note else {}),
            }
            for check in checks
        ],
    }


def _emit_payload(command: str, payload: dict) -> dict:
    return {
        "schema": EMIT_SCHEMA,
        "tool_version": __version__,
        "command": command,
        **payload,
    }


def _print_json(payload: dict, stream) -> None:
    stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _verbosity() -> int:
    raw = os.environ.get("LIEDOUBLE_VERBOSITY", "5")
    try:
        return max(0, int(raw))
    except ValueError:
        return 5


def _print_checks_text(checks: list[CheckResult], stream) -> None:
    limit = _verbosity()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"[{status}] {check.name} ({check.millis} ms)"
        if check.detail:
            line += f" - {check.detail}"
        if not check.passed:
            line += f": {len(check.counterexamples)} counterexamples"
        stream.write(line + "\n")
        if check.note:
            stream.write(f"    note: {check.note}\n")
        if not check.passed:
            for violation in check.counterexamples[:limit]:
                stream.write(f"    {violation.indices}: {violation.residual}\n")
            hidden = len(check.counterexamples) - limit
            if hidden > 0:
                stream.write(f"    ... {hidden} more\n")


def _exit_code(checks: list[CheckResult]) -> int:
    return 0 if all(check.passed for check in checks) else 1


def _load_algebra(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_algebra_file(handle.read()).to_algebra()


def _cmd_check_jacobi(args, stdout) -> int:
    algebra = _load_algebra(args.file)
    report, ms = _timed(algebra.check_jacobi)
    checks = [_from_violation_report("jacobi", report, ms)]
    command = f"check-jacobi {args.file}"
    if args.json:
        _print_json(_checks_payload(command, checks), stdout)
    else:
        _print_checks_text(checks, stdout)
    return _exit_code(checks)


def _cmd_compat(args, stdout) -> int:
    plus = _load_algebra(args.plus)
    minus = _load_algebra(args.minus)
    if plus.dim != minus.dim:
        raise AlgebraFileError(
            f"paired files declare different dimensions {plus.dim} and {minus.dim}", 1
        )
    report, ms = _timed(lambda: check_compatibility(plus.tensor, minus.tensor))
    checks = [_from_violation_report("compatibility", report, ms)]
    command = f"compat --plus {args.plus} --minus {args.minus}"
    if args.json:
        _print_json(_checks_payload(command, checks), stdout)
    else:
        _print_checks_text(checks, stdout)
    return _exit_code(checks)


def _cmd_double(args, stdout) -> int:
    plus = _load_algebra(args.plus)
    minus = _load_algebra(args.minus)
    if plus.dim != minus.dim:
        raise AlgebraFileError(
            f"paired files declare different dimensions {plus.dim} and {minus.dim}", 1
        )
    report = check_compatibility(plus.tensor, minus.tensor)
    command = f"double --plus {args.plus} --minus {args.minus}"
    if not report.ok:
        checks = [_from_violation_report("compatibility", report, 0)]
        if args.json:
            _print_json(_checks_payload(command, checks), stdout)
        else:
            _print_checks_text(checks, stdout)
        return 1
    double = build_double(ManinTriple(plus, minus))
    if args.json:
        payload = _algebra_payload(double.algebra, "double")
        payload["pairing"] = "hyperbolic: <Z_p, z^q> = delta, both halves isotropic"
        _print_json(_emit_payload(command, {"algebra": payload}), stdout)
    else:
        stdout.write(from_algebra(double.algebra, "double").to_text())
    return 0


def _cmd_gln(args, stdout) -> int:
    n = args.n
    command = f"gln --n {n} --emit {args.emit}"
    if args.emit == "report":
        checks = verify_suite(n)
        if args.json:
            _print_json(_checks_payload(command, checks), stdout)
        else:
            _print_checks_text(checks, stdout)
        return _exit_code(checks)

    if args.emit in ("splus", "sminus"):
        algebra = build_s_plus(n) if args.emit == "splus" else build_s_minus(n)
        if args.json:
            _print_json(
                _emit_payload(command, {"algebra": _algebra_payload(algebra, args.emit)}),
                stdout,
            )
        else:
            stdout.write(from_algebra(algebra, args.emit).to_text())
        return 0

    triple = build_gln_triple(n)
    if args.emit == "double":
        double = build_double(triple)
        if args.json:
            _print_json(
                _emit_payload(
                    command, {"algebra": _algebra_payload(double.algebra, "double")}
                ),
                stdout,
            )
        else:
            stdout.write(from_algebra(double.algebra, "double").to_text())
        return 0

    T = gln_change_of_basis(n)
    labels = gln_labels(n)
    if args.emit == "delta":
        delta = express_in_basis(cocommutator_from_triple(triple), T)
        if args.json:
            payload = {
                "basis": list(labels),
                "delta": {
                    labels[p]: _two_tensor_entries(value, labels)
                    for p, value in delta.items()
                },
            }
            _print_json(_emit_payload(command, payload), stdout)
        else:
            for p, value in delta.items():
                stdout.write(f"delta({labels[p]}) = {value.format(labels)}\n")
        return 0

    # args.emit == "rmatrix"
    r, r_skew = build_rmatrix(triple)
    double = build_double(triple)
    r_skew_hif = r_skew.transport(T.inverse())
    r_standard, r_twist = split_twist(n, r_skew_hif)
    if args.json:
        payload = {
            "basis_double": list(double.algebra.labels),
            "basis_gln": list(labels),
            "r": _two_tensor_entries(r, double.algebra.labels),
            "r_skew": _two_tensor_entries(r_skew, double.algebra.labels),
            "r_skew_gln_basis": _two_tensor_entries(r_skew_hif, labels),
            "r_standard": _two_tensor_entries(r_standard, labels),
            "r_twist": _two_tensor_entries(r_twist, labels),
            "note": CARTAN_COEFFICIENT_NOTE,
        }
        _print_json(_emit_payload(command, payload), stdout)
    else:
        stdout.write(f"r        = {r.format(double.algebra.labels)}\n")
        stdout.write(f"r_skew   = {r_skew.format(double.algebra.labels)}\n")
        stdout.write(f"in H/I/F = {r_skew_hif.format(labels)}\n")
        stdout.write(f"standard = {r_standard.format(labels)}\n")
        stdout.write(f"twist    = {r_twist.format(labels)}\n")
        stdout.write(f"note: {CARTAN_COEFFICIENT_NOTE}\n")
    return 0


def _cmd_verify(args, stdout) -> int:
    checks = verify_suite(args.n)
    command = f"verify --n {args.n}"
    if args.json:
        _print_json(_checks_payload(command, checks), stdout)
    else:
        _print_checks_text(checks, stdout)
    return _exit_code(checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liedouble",
        description="Exact Manin triples, Drinfeld doubles and Lie bialgebras over Q(i, sqrt2).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    jacobi = sub.add_parser("check-jacobi", help="Jacobi identity for an algebra file")
    jacobi.add_argument("file")
    jacobi.add_argument("--json", action="store_true")
    jacobi.set_defaults(handler=_cmd_check_jacobi)

    compat = sub.add_parser("compat", help="crossed Jacobi compatibility of two files")
    compat.add_argument("--plus", required=True)
    compat.add_argument("--minus", required=True)
    compat.add_argument("--json", action="store_true")
    compat.set_defaults(handler=_cmd_compat)

    double = sub.add_parser("double", help="build the double of two paired files")
    double.add_argument("--plus", required=True)
    double.add_argument("--minus", required=True)
    double.add_argument("--json", action="store_true")
    double.set_defaults(handler=_cmd_double)

    gln = sub.add_parser("gln", help="factory output for the gl(n)+t_n construction")
    gln.add_argument("--n", type=int, required=True)
    gln.add_argument(
        "--emit",
        required=True,
        choices=["splus", "sminus", "double", "delta", "rmatrix", "report"],
    )
    gln.add_argument("--json", action="store_true")
    gln.set_defaults(handler=_cmd_gln)

    verify = sub.add_parser("verify", help="full verification suite for one size")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def run_command(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    if getattr(args, "n", None) is not None and args.n < 1:
        stderr.write("error: --n must be at least 1\n")
        return 2
    try:
        return args.handler(args, stdout)
    except (AlgebraFileError, OSError) as err:
        stderr.write(f"error: {err}\n")
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
