"""Pinned mutants: each fast path's oracle tests must fail when the path is broken.

Each row of ``MUTANTS`` names a file, a source snippet that must occur in it
exactly once, the snippet's replacement, and the pytest node ids that must
all fail with the replacement in place.  The script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory and never writes
to the repository.  It first checks that the unmutated copy passes every
listed node, then applies each mutant to the copy in turn, runs only that
mutant's nodes, and restores the file.  Hypothesis runs with a fixed seed,
so a verdict repeats, and without shrinking (the ``mutants`` profile that
``tests/conftest.py`` registers), since only the failure matters.

    python tests/mutants.py

Exit status: 0 when every listed node fails under every mutant, 1 when a
node survives a mutant or fails unmutated, 2 when a snippet is not found
exactly once (a refactor moved it: update the row in the same change).
A surviving mutant is a missing test, never a row to delete.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    nodes: tuple[str, ...]


BIALG = "src/liedouble/bialg.py"
LIEALG = "src/liedouble/liealg.py"
KERNELS = "tests/test_kernels.py::"
STORAGE = "tests/test_cocommutator_storage.py::"

MUTANTS = (
    Mutant(
        "cocommutator get: mirror sign dropped",
        BIALG,
        "return TwoTensor._of_half(self._half(index))",
        "return TwoTensor._of_half(self._half(index), lambda value: value)",
        (
            STORAGE + "test_sorted_halves_read_like_full_storage",
            "tests/test_bialg.py::test_cocommutator_on_paired_basis",
            "tests/test_bialg.py::test_cocommutator_blocks_match_tensors",
        ),
    ),
    Mutant(
        "schouten half: b1 < b2 inverted",
        BIALG,
        "for b2, seconds in groups[position + 1 :]:",
        "for b2, seconds in groups[:position]:",
        (
            KERNELS + "test_schouten_bracket_of_a_skew_r_matches_the_three_term_loop",
            KERNELS + "test_schouten_bracket_of_the_gln_r_matrix_matches_the_three_term_loop[2]",
            KERNELS + "test_schouten_matches_dense_on_gln[3]",
        ),
    ),
    Mutant(
        "schouten half: middle-case sign dropped",
        BIALG,
        "add_into(acc, (b1, k, b2), neg(mul(coeff, cv)), add)",
        "add_into(acc, (b1, k, b2), mul(coeff, cv), add)",
        (
            KERNELS + "test_schouten_bracket_of_a_skew_r_matches_the_three_term_loop",
            KERNELS + "test_schouten_bracket_of_the_gln_r_matrix_matches_the_three_term_loop[3]",
        ),
    ),
    Mutant(
        "schouten check: middle-slot signs of the sorted index swapped",
        BIALG,
        "index[1].setdefault(b, []).append((a, c, (opposite, value, opposite)))",
        "index[1].setdefault(b, []).append((a, c, (value, opposite, value)))",
        (
            # the full action of each x that does not vanish repairs the
            # report, so only the counts show the broken sorted path
            KERNELS + "test_schouten_acts_on_sorted_terms_only_when_invariant",
            KERNELS + "test_verify_suite_tests_antisymmetry_once_per_public_r_entry[2]",
        ),
    ),
    Mutant(
        "sorted action: below and above swapped",
        BIALG,
        "below, above = (w, mirror) if slot == 0 else (mirror, w)",
        "above, below = (w, mirror) if slot == 0 else (mirror, w)",
        (
            "tests/test_bialg.py::test_coboundary_matches_cocommutator",
            KERNELS + "test_cocycle_counterexamples_of_doctored_cocommutators_match_the_full_loop",
        ),
    ),
    Mutant(
        "change slots: the fold's negated weight dropped",
        LIEALG,
        "add_into(acc, head + (k, first) + tail, mul(value, neg(w)), add)",
        "add_into(acc, head + (k, first) + tail, mul(value, w), add)",
        (
            KERNELS + "test_sorted_half_basis_change_matches_the_full_loop",
            KERNELS + "test_public_basis_changes_match_the_full_loop_on_block_matrices",
        ),
    ),
    Mutant(
        "antisymmetric half: the orientation count unchecked",
        BIALG,
        "return half if 2 * len(half) == len(terms) else None",
        "return half",
        (
            "tests/test_bialg.py::test_is_antisymmetric_on_each_kind_of_break",
        ),
    ),
)


def failing(copy: Path, nodes) -> set[str] | None:
    """The node ids among ``nodes`` that fail in ``copy``; None when pytest selects none of them."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--hypothesis-profile=mutants", *nodes],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    if result.returncode in (4, 5):  # usage error, or no test collected
        print(result.stdout + result.stderr, file=sys.stderr)
        return None
    bad = {line.split()[1] for line in result.stdout.splitlines()
           if line.startswith(("FAILED ", "ERROR "))}
    # a parametrized or hypothesis node is reported under its own id
    return {node for node in nodes if any(b == node or b.startswith(node + "[") for b in bad)}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for mutant in MUTANTS:
            count = (copy / mutant.path).read_text().count(mutant.snippet)
            if count != 1:
                print(f"stale row {mutant.name!r}: snippet found {count} times in {mutant.path}")
                return 2
        nodes = sorted({node for mutant in MUTANTS for node in mutant.nodes})
        broken = failing(copy, nodes)
        if broken is None or broken:
            print(f"the unmutated copy fails: {sorted(broken or ['(nothing selected)'])}")
            return 1
        status = 0
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text()
            path.write_text(original.replace(mutant.snippet, mutant.replacement))
            start = time.monotonic()
            try:
                killed = failing(copy, mutant.nodes)
            finally:
                path.write_text(original)
            survivors = sorted(set(mutant.nodes) - (killed or set()))
            if killed is None or survivors:
                status = 1
                print(f"SURVIVED {mutant.name}: {survivors or 'no node selected'}")
            else:
                seconds = time.monotonic() - start
                print(f"killed   {mutant.name} ({len(killed)} nodes, {seconds:.1f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
