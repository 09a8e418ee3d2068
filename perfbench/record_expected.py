#!/usr/bin/env python3
"""Record the expected stdout digest of every op into perfbench/expected.json.

Run from the root of a checkout of the commit whose outputs are the
reference (the digests in the repository come from the commit that added
this benchmark)::

    python3 perfbench/record_expected.py

dense_files is recorded for densegen.DEFAULT_SEED; every seed is also
checked against the generator's reference outputs.  An op with the wrong
exit code or a reference mismatch stops the recording.
"""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

import densegen
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["LIEDOUBLE_VERBOSITY"] = str(workloads.TEXT_COUNTEREXAMPLES)
    from liedouble.cli import run_command

    expected = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, densegen.DEFAULT_SEED)
        digests = {}
        for op in workload.ops:
            out = io.StringIO()
            code = run_command(list(op.argv), stdout=out, stderr=io.StringIO())
            digests[op.key] = workloads.output_digest(out.getvalue())
            why = workloads.failure(workload, {name: digests}, op, code, out.getvalue())
            if why:
                print(f"error: {op.key}: {why}", file=sys.stderr)
                return 1
        expected[name] = digests
    text = json.dumps(expected, sort_keys=True, indent=1) + "\n"
    workloads.EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {sum(len(d) for d in expected.values())} digests to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
