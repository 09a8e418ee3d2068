"""Pinned `verify --n k --json` reports and `gln --n k --emit` outputs, timings masked.

`tests/data/verify_digests.json` maps each size k = 1..12 to the sha256 of
the report with every ``millis`` field dropped and the rest re-serialized
with sorted keys (the masking of ``perfbench/workloads.output_digest``).
`tests/data/emit_digests.json` maps each size k to the sha256 of
`gln --n k --emit double|delta|rmatrix`, the text form as printed and the
``--json`` form masked the same way.  Those emitters run through the basis
change, the cocommutator transport and the two-tensor transport.  Kernel
changes must leave every report and output byte-identical apart from
``millis``; this pins that.

Tier-1 checks k <= 6.  Run as a script to check every recorded size, the
verify reports for k = 1..12 and then for k = 12..1 in the same interpreter,
so that a value pool that outlived one call would show in a later report:

    PYTHONPATH=src python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from liedouble.cli import run_command

DATA = Path(__file__).with_name("data")
DIGESTS_PATH = DATA / "verify_digests.json"
EMIT_DIGESTS_PATH = DATA / "emit_digests.json"
SIZES = range(1, 13)
TIER1_SIZES = range(1, 7)
EMITS = ("double", "delta", "rmatrix")
FORMS = ("text", "json")


def _drop_millis(value):
    if isinstance(value, dict):
        return {k: _drop_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [_drop_millis(v) for v in value]
    return value


def _digest(argv: list[str], as_json: bool) -> str:
    """sha256 of the command's output, masked when it is JSON; the command must pass."""
    out = io.StringIO()
    code = run_command(argv + ["--json"] if as_json else argv, stdout=out)
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    text = out.getvalue()
    if as_json:
        text = json.dumps(_drop_millis(json.loads(text)), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(n: int) -> str:
    """sha256 of the masked `verify --n n --json` report; the run must pass."""
    return _digest(["verify", "--n", str(n)], as_json=True)


def emit_digests(n: int) -> dict[str, str]:
    """``{"<emit> <form>": sha256}`` of every pinned `gln --n n --emit` output."""
    return {
        f"{emit} {form}": _digest(["gln", "--n", str(n), "--emit", emit], form == "json")
        for emit in EMITS
        for form in FORMS
    }


def _recorded(path: Path = DIGESTS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_size_is_recorded():
    assert sorted(_recorded(), key=int) == [str(n) for n in SIZES]
    emitted = _recorded(EMIT_DIGESTS_PATH)
    assert sorted(emitted, key=int) == [str(n) for n in SIZES]
    assert all(len(outputs) == len(EMITS) * len(FORMS) for outputs in emitted.values())


@pytest.mark.parametrize("n", TIER1_SIZES)
def test_verify_report_matches_the_recorded_digest(n):
    assert report_digest(n) == _recorded()[str(n)]


@pytest.mark.parametrize("n", TIER1_SIZES)
def test_gln_emits_match_the_recorded_digests(n):
    assert emit_digests(n) == _recorded(EMIT_DIGESTS_PATH)[str(n)]


def main() -> int:
    recorded = _recorded()
    emitted = _recorded(EMIT_DIGESTS_PATH)
    bad = []
    for order, sizes in (("ascending", SIZES), ("descending", reversed(SIZES))):
        for n in sizes:
            if report_digest(n) != recorded[str(n)]:
                bad.append(
                    f"verify --n {n} --json ({order}): digest differs from {DIGESTS_PATH.name}"
                )
    for n in SIZES:
        got = emit_digests(n)
        for output, digest in emitted[str(n)].items():
            if got[output] != digest:
                bad.append(f"gln --n {n} --emit {output}: digest differs from {EMIT_DIGESTS_PATH.name}")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
