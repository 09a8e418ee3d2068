"""The three workloads, their inputs and the output-correctness gate.

Every op is one call of ``liedouble.cli.run_command`` with an argv, an
expected exit code and, where recorded, the digest of its standard output.
Ops run closed loop: one client, the next op only after the previous one
returned.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import densegen

WORKLOADS = ("gln_verify", "gln_emit", "dense_files")
# The workloads BENCHMARK.json lists, which a regression check runs.
# gln_emit stays runnable by hand: its n = 7 construction has the largest
# working set of the three, and on a shared host its pass time moves with
# the neighbours' load: over ten runs its quartile spread reached 0.26 of
# the median, past the largest bound BENCHMARK.json allows.
GATED = ("gln_verify", "dense_files")
VERIFY_SIZES = (2, 4, 6)
EMIT_N = 7
EMIT_KINDS = ("double", "delta", "rmatrix")
EXPECTED_PATH = Path(__file__).with_name("expected.json")
# Inputs are written here, relative to the checkout root, so that the paths
# the program echoes in its JSON reports are the same in every checkout.
WORK_DIR = Path(".perfbench_work")
# Counterexample lines the text report prints per failed check; the program's
# default, pinned through LIEDOUBLE_VERBOSITY by the runner.
TEXT_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_code: int
    label: str  # verify size ("n2"), emit kind or dense-file op kind
    pair: densegen.Pair | None = None  # dense_files: the input and its reference outputs

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    descriptors: dict  # input shape, printed with the results
    digests_apply: bool  # False for dense_files seeds without recorded digests
    pairs: tuple = ()  # dense_files only: the generated densegen.Pair list


def _factory_descriptor(n: int) -> dict:
    plus, minus = densegen.factory_halves(n)
    nnz = sum(len(row) for table in (plus, minus) for row in table.values())
    return {"n": n, "half_dim": n * (n + 1) // 2, "double_dim": n * (n + 1),
            "nnz": nnz, "max_bits": densegen.max_bits(plus, minus), "bytes": 0}


def build(name: str, seed: int) -> Workload:
    """Make the workload's inputs; writes the dense_files pairs to WORK_DIR."""
    if name == "gln_verify":
        ops = tuple(Op(("verify", "--n", str(k), "--json"), 0, f"n{k}") for k in VERIFY_SIZES)
        return Workload(name, ops, {"sizes": [_factory_descriptor(k) for k in VERIFY_SIZES]}, True)
    if name == "gln_emit":
        ops = tuple(
            Op(("gln", "--n", str(EMIT_N), "--emit", kind, *flag), 0, kind + ("_json" if flag else ""))
            for kind in EMIT_KINDS
            for flag in ((), ("--json",))
        )
        return Workload(name, ops, {"sizes": [_factory_descriptor(EMIT_N)]}, True)
    if name == "dense_files":
        return _dense_files(seed)
    raise ValueError(f"unknown workload {name!r}")


# Pairs run in the order k * PAIR_STRIDE mod len(pairs) (the stride is
# coprime with the pair count, so every pair runs once), which spreads every
# tier over the pass: the ops that set op_p50_s and op_p90_s are then sampled
# at many moments of a pass rather than in one burst, which matters on a
# machine whose speed swings from second to second.
PAIR_STRIDE = 5


def _dense_files(seed: int) -> Workload:
    pairs = densegen.generate(seed)
    folder = WORK_DIR / "dense_files" / f"seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for pair in (pairs[k * PAIR_STRIDE % len(pairs)] for k in range(len(pairs))):
        plus = folder / f"{pair.name}_plus.alg"
        minus = folder / f"{pair.name}_minus.alg"
        plus.write_text(pair.plus_text, encoding="utf-8")
        minus.write_text(pair.minus_text, encoding="utf-8")
        files = ("--plus", plus.as_posix(), "--minus", minus.as_posix())
        code = 0 if pair.compatible else 1
        ops.append(Op(("check-jacobi", plus.as_posix()), 0, "check_jacobi", pair))
        ops.append(Op(("compat", *files), code, "compat", pair))
        ops.append(Op(("double", *files), code, "double", pair))
        ops.append(Op(("double", *files, "--json"), code, "double_json", pair))
    descriptors = {
        "seed": seed,
        "pairs": len(pairs),
        "perturbed": sum(not p.compatible for p in pairs),
        "dim": densegen.DIM,
        "nnz": [p.nnz for p in pairs],
        "max_bits": max(p.max_bits for p in pairs),
        "bytes": sum(p.bytes for p in pairs),
    }
    return Workload("dense_files", tuple(ops), descriptors, seed == densegen.DEFAULT_SEED, tuple(pairs))


_MILLIS_TEXT = re.compile(r"\(\d+ ms\)")


def _drop_millis(value):
    if isinstance(value, dict):
        return {k: _drop_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [_drop_millis(v) for v in value]
    return value


def output_digest(text: str) -> str:
    """sha256 of stdout with the run-dependent timings taken out.

    JSON reports lose every ``millis`` field (then are re-serialized with
    sorted keys); text reports have their ``(N ms)`` stamps blanked.
    """
    if text.startswith("{"):
        text = json.dumps(_drop_millis(json.loads(text)), sort_keys=True, indent=2)
    else:
        text = _MILLIS_TEXT.sub("(ms)", text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _counterexample_text(residual) -> str:
    """The text report of a failed compatibility check (default verbosity)."""
    lines = [f"[FAIL] compatibility (ms): {len(residual)} counterexamples"]
    lines += [f"    {key}: {text}" for key, text in residual[:TEXT_COUNTEREXAMPLES]]
    if len(residual) > TEXT_COUNTEREXAMPLES:
        lines.append(f"    ... {len(residual) - TEXT_COUNTEREXAMPLES} more")
    return "\n".join(lines) + "\n"


def _algebra_json_text(algebra: dict) -> str:
    """An emitted algebra payload written back as an algebra file."""
    lines = [f"algebra {algebra['name']} dim {algebra['dim']}", "basis " + " ".join(algebra["basis"])]
    for bracket in algebra["brackets"]:
        terms = []
        for term in bracket["terms"]:
            text = term["coeff"]
            if text in ("1", "-1"):
                terms.append(term["label"] if text == "1" else "-" + term["label"])
            else:
                terms.append(f"({text})*{term['label']}" if " " in text else f"{text}*{term['label']}")
        lines.append(f"[{bracket['left']},{bracket['right']}] = {densegen.join_terms(terms)}")
    return "\n".join(lines) + "\n"


def _matches_reference(op: Op, stdout: str) -> bool:
    """Exact check of a dense_files output against the generator's reference."""
    pair, kind = op.pair, op.argv[0]
    if kind == "check-jacobi":
        return _MILLIS_TEXT.sub("(ms)", stdout) == "[PASS] jacobi (ms)\n"
    if "--json" in op.argv:
        payload = json.loads(stdout)
        if pair.compatible:
            return _algebra_json_text(payload["algebra"]) == pair.double_text
        found = [(c["name"], c["status"]) for c in payload["checks"]]
        listed = tuple((tuple(c["indices"]), c["residual"])
                       for c in payload["checks"][0]["counterexamples"])
        return found == [("compatibility", "fail")] and listed == pair.residual
    if not pair.compatible:
        return _MILLIS_TEXT.sub("(ms)", stdout) == _counterexample_text(pair.residual)
    if kind == "compat":
        return _MILLIS_TEXT.sub("(ms)", stdout) == "[PASS] compatibility (ms)\n"
    return stdout == pair.double_text


def failure(workload: Workload, expected: dict, op: Op, code, stdout: str) -> str | None:
    """Why the op's result is wrong, or None when it is correct."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    if workload.digests_apply and output_digest(stdout) != expected[workload.name].get(op.key):
        return "stdout digest mismatch"
    if op.pair is not None:
        try:
            ok = _matches_reference(op, stdout)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            return "output differs from the reference"
    return None
