"""Pinned `verify --n k --json` reports, timings masked.

`tests/data/verify_digests.json` maps each size k = 1..12 to the sha256 of
the report with every ``millis`` field dropped and the rest re-serialized
with sorted keys (the masking of ``perfbench/workloads.output_digest``).
Kernel changes must leave every report byte-identical apart from
``millis``; this pins that.

Tier-1 checks k <= 6.  Run as a script to check every recorded size:

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

DIGESTS_PATH = Path(__file__).with_name("data") / "verify_digests.json"
SIZES = range(1, 13)
TIER1_SIZES = range(1, 7)


def _drop_millis(value):
    if isinstance(value, dict):
        return {k: _drop_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [_drop_millis(v) for v in value]
    return value


def report_digest(n: int) -> str:
    """sha256 of the masked `verify --n n --json` report; the run must pass."""
    out = io.StringIO()
    code = run_command(["verify", "--n", str(n), "--json"], stdout=out)
    if code != 0:
        raise AssertionError(f"verify --n {n} exited {code}")
    text = json.dumps(_drop_millis(json.loads(out.getvalue())), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _recorded() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_every_size_is_recorded():
    assert sorted(_recorded(), key=int) == [str(n) for n in SIZES]


@pytest.mark.parametrize("n", TIER1_SIZES)
def test_verify_report_matches_the_recorded_digest(n):
    assert report_digest(n) == _recorded()[str(n)]


def main() -> int:
    recorded = _recorded()
    bad = [n for n in SIZES if report_digest(n) != recorded[str(n)]]
    for n in bad:
        print(f"verify --n {n} --json: digest differs from {DIGESTS_PATH.name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
