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
parse errors, including ``--n`` outside 1..MAX_N.  The environment variable
``LIEDOUBLE_VERBOSITY`` (an integer, default 5) only controls how many
counterexample lines the text renderer prints per failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algfile import AlgebraFileError, from_algebra, parse_algebra_file
from .bialg import TwoTensor, build_rmatrix
from .glnfactory import (
    build_gln_triple,
    build_s_minus,
    build_s_plus,
    delta_in_gln_basis,
    gln_labels,
    rmatrix_in_gln_basis,
)
from .liealg import LieAlgebra, joined_labels
from .manin import ManinTriple, build_double, check_compatibility
from .suite import CARTAN_COEFFICIENT_NOTE, CheckResult, run_check, verify_suite

REPORT_SCHEMA = "liedouble.report/1"
EMIT_SCHEMA = "liedouble.emit/1"

# Largest accepted --n: the largest size whose verify stays within a 10 s
# budget on a shared 2-core x86-64 VM (README "Performance" has the times).
MAX_N = 12


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


def _emit_algebra(command: str, algebra: LieAlgebra, name: str, args, stdout, **extra) -> int:
    """Print ``algebra`` as a JSON emit document (``extra`` joins its payload) or as a file."""
    if args.json:
        payload = {**_algebra_payload(algebra, name), **extra}
        _print_json(_emit_payload(command, {"algebra": payload}), stdout)
    else:
        stdout.write(from_algebra(algebra, name).to_text())
    return 0


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


def _report(command: str, checks: list[CheckResult], args, stdout) -> int:
    """Print the checks as JSON or text; exit 0 when all pass, else 1."""
    if args.json:
        _print_json(_checks_payload(command, checks), stdout)
    else:
        _print_checks_text(checks, stdout)
    return 0 if all(check.passed for check in checks) else 1


def _load_algebra(path: str) -> LieAlgebra:
    """Parse one algebra file; an AlgebraFileError from it names the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_algebra_file(data).to_algebra()
    except AlgebraFileError as err:
        err.args = (f"{path}: {err}",)
        raise


class _DimensionMismatch(ValueError):
    """Two paired algebra files that parse but differ in dimension."""


def _load_pair(args) -> tuple[LieAlgebra, LieAlgebra]:
    plus = _load_algebra(args.plus)
    minus = _load_algebra(args.minus)
    if plus.dim != minus.dim:
        raise _DimensionMismatch(
            f"paired files declare different dimensions: {args.plus} has dimension "
            f"{plus.dim}, {args.minus} has dimension {minus.dim}"
        )
    return plus, minus


def _cmd_check_jacobi(args, stdout) -> int:
    algebra = _load_algebra(args.file)
    checks = [run_check("jacobi", lambda: algebra.check_jacobi().violations)]
    return _report(f"check-jacobi {args.file}", checks, args, stdout)


def _compatibility_check(plus: LieAlgebra, minus: LieAlgebra) -> CheckResult:
    return run_check(
        "compatibility", lambda: check_compatibility(plus.tensor, minus.tensor).violations
    )


def _cmd_compat(args, stdout) -> int:
    plus, minus = _load_pair(args)
    checks = [_compatibility_check(plus, minus)]
    return _report(f"compat --plus {args.plus} --minus {args.minus}", checks, args, stdout)


def _cmd_double(args, stdout) -> int:
    plus, minus = _load_pair(args)
    command = f"double --plus {args.plus} --minus {args.minus}"
    check = _compatibility_check(plus, minus)
    if not check.passed:
        return _report(command, [check], args, stdout)
    double = build_double(ManinTriple(plus, minus))
    pairing = "hyperbolic: <Z_p, z^q> = delta, both halves isotropic"
    return _emit_algebra(command, double.algebra, "double", args, stdout, pairing=pairing)


def _cmd_gln(args, stdout) -> int:
    n = args.n
    command = f"gln --n {n} --emit {args.emit}"
    if args.emit == "report":
        return _report(command, verify_suite(n), args, stdout)

    if args.emit in ("splus", "sminus"):
        algebra = build_s_plus(n) if args.emit == "splus" else build_s_minus(n)
        return _emit_algebra(command, algebra, args.emit, args, stdout)

    triple = build_gln_triple(n)
    if args.emit == "double":
        return _emit_algebra(command, build_double(triple).algebra, "double", args, stdout)

    labels = gln_labels(n)
    if args.emit == "delta":
        delta = delta_in_gln_basis(n, triple)
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
    double_labels = joined_labels(triple.plus.labels, triple.minus.labels)
    r_skew_hif, r_standard, r_twist = rmatrix_in_gln_basis(n, r_skew)
    if args.json:
        payload = {
            "basis_double": list(double_labels),
            "basis_gln": list(labels),
            "r": _two_tensor_entries(r, double_labels),
            "r_skew": _two_tensor_entries(r_skew, double_labels),
            "r_skew_gln_basis": _two_tensor_entries(r_skew_hif, labels),
            "r_standard": _two_tensor_entries(r_standard, labels),
            "r_twist": _two_tensor_entries(r_twist, labels),
            "note": CARTAN_COEFFICIENT_NOTE,
        }
        _print_json(_emit_payload(command, payload), stdout)
    else:
        stdout.write(f"r        = {r.format(double_labels)}\n")
        stdout.write(f"r_skew   = {r_skew.format(double_labels)}\n")
        stdout.write(f"in H/I/F = {r_skew_hif.format(labels)}\n")
        stdout.write(f"standard = {r_standard.format(labels)}\n")
        stdout.write(f"twist    = {r_twist.format(labels)}\n")
        stdout.write(f"note: {CARTAN_COEFFICIENT_NOTE}\n")
    return 0


def _cmd_verify(args, stdout) -> int:
    return _report(f"verify --n {args.n}", verify_suite(args.n), args, stdout)


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
    n = getattr(args, "n", None)
    if n is not None and not 1 <= n <= MAX_N:
        stderr.write(f"error: --n must be between 1 and {MAX_N}\n")
        return 2
    try:
        return args.handler(args, stdout)
    except (AlgebraFileError, _DimensionMismatch, OSError) as err:
        stderr.write(f"error: {err}\n")
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
