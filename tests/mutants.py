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
MANIN = "src/liedouble/manin.py"
KERNELS = "tests/test_kernels.py::"
STORAGE = "tests/test_cocommutator_storage.py::"
COMPAT = "tests/test_manin.py::"
POOL = "tests/test_value_pool.py::"
THETA = "tests/test_self_duality.py::"

MUTANTS = (
    Mutant(
        "cocommutator get: mirror sign dropped",
        BIALG,
        "return TwoTensor._of_half(self._half(index), scalar_table().neg)",
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
        "                if b1 < b2:",
        "                if b2 < b1:",
        (
            KERNELS + "test_schouten_bracket_of_a_skew_r_matches_the_three_term_loop",
            KERNELS + "test_schouten_matches_dense_on_gln[3]",
            KERNELS + "test_kernels_read_only_the_nonzero_brackets_they_need[2]",
        ),
    ),
    Mutant(
        "schouten half: middle-case sign dropped",
        BIALG,
        "mul_into(acc, (b1, k, b2), neg(coeff), cv)",
        "mul_into(acc, (b1, k, b2), coeff, cv)",
        (
            KERNELS + "test_schouten_bracket_of_a_skew_r_matches_the_three_term_loop",
            KERNELS + "test_schouten_bracket_of_the_gln_r_matrix_matches_the_three_term_loop[3]",
        ),
    ),
    Mutant(
        "schouten check: the middle slot's sign at the last sorted position dropped",
        BIALG,
        # only a 3-tensor's middle slot lands a product at sorted position 2
        "(mirror, w, mirror)",
        "(mirror, w, w)",
        (
            KERNELS + "test_schouten_matches_dense_on_gln[3]",
            KERNELS + "test_schouten_acts_on_sorted_terms_only_when_invariant",
        ),
    ),
    Mutant(
        "alternating action: even and odd slots swapped",
        BIALG,
        "if slot % 2 == 0 else",
        "if slot % 2 else",
        (
            "tests/test_bialg.py::test_coboundary_matches_cocommutator",
            KERNELS + "test_cocycle_counterexamples_of_doctored_cocommutators_match_the_full_loop",
        ),
    ),
    Mutant(
        "alternating action: the odd-slot mirror choice dropped",
        BIALG,
        " if slot % 2 == 0 else (mirror, w, mirror)",
        "",
        (
            KERNELS + "test_coboundary_and_cocycle_match_dense_on_gln[2]",
            KERNELS + "test_schouten_matches_dense_on_gln[3]",
        ),
    ),
    Mutant(
        "paired traces: a position paired with itself, not its transpose",
        LIEALG,
        "right = at.get((l, k))",
        "right = at.get((k, l))",
        (
            KERNELS + "test_killing_form_matches_dense_on_gln_tn[2]",
            KERNELS + "test_trace_form_matches_dense_on_the_fundamental_representation[2]",
        ),
    ),
    Mutant(
        "ad invariance: the right side's negation dropped",
        MANIN,
        "mul_into(difference, (c, a, b), negated, m)",
        "mul_into(difference, (c, a, b), v, m)",
        (
            KERNELS + "test_ad_invariance_matches_dense_on_gln_doubles[2]",
            KERNELS + "test_ad_invariance_matches_dense_when_both_conventions_fail",
        ),
    ),
    Mutant(
        "change slots: the fold's negated weight dropped",
        LIEALG,
        "mul_into(acc, head + (k, first) + tail, value, neg(w))",
        "mul_into(acc, head + (k, first) + tail, value, w)",
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
    Mutant(
        "scalar table: a zero sum kept in the accumulator",
        LIEALG,
        """        if total:
            acc[key] = values[total]
        else:
            del acc[key]""",
        """        acc[key] = values[total]""",
        (
            KERNELS + "test_mul_into_matches_add_into_of_the_product",
            KERNELS + "test_add_into_drops_a_zero_sum_from_the_table",
            KERNELS + "test_tabled_kernels_match_plain_products_on_gln[2]",
        ),
    ),
    Mutant(
        "scalar table: the sum cache keyed on the product only",
        LIEALG,
        """        try:
            row = sums[seen[id(s)]]
        except KeyError:
            row = sums[code(s)]""",
        """        row = sums[0]""",
        (
            KERNELS + "test_mul_into_matches_add_into_of_the_product",
            KERNELS + "test_tabled_kernels_match_plain_products_on_random_algebras",
        ),
    ),
    Mutant(
        "code table: every new code's sum row is code 0's",
        LIEALG,
        "sums.append({})",
        "sums.append(sums[0])",
        (
            KERNELS + "test_mul_into_matches_add_into_of_the_product",
            KERNELS + "test_tabled_kernels_match_plain_products_on_random_algebras",
        ),
    ),
    Mutant(
        "value pool: the canonical key drops the c and d components",
        LIEALG,
        "ratios = x._ratios()",
        "ratios = x._ratios()[:4]",
        (
            KERNELS + "test_mul_into_matches_add_into_of_the_product",
            POOL + "test_a_value_pool_makes_one_object_per_value",
            "tests/test_report_digests.py::test_verify_report_matches_the_recorded_digest[2]",
        ),
    ),
    Mutant(
        "value pool: the pooled neg returns its operand",
        LIEALG,
        "negative = negatives[c] = code(-x)",
        "negative = negatives[c] = c",
        (
            KERNELS + "test_structure_tensor_negates_each_coefficient_object_once",
            POOL + "test_a_value_pool_makes_one_object_per_value",
            "tests/test_report_digests.py::test_verify_report_matches_the_recorded_digest[2]",
        ),
    ),
    Mutant(
        "trusted bracket table: the stored coefficients reused for the mirror",
        LIEALG,
        "out._set_rows(brackets, scalar_table().neg)",
        "out._set_rows(brackets, lambda value: value)",
        (
            KERNELS + "test_trusted_brackets_are_what_the_constructor_stores_on_gln[2]",
            KERNELS + "test_trusted_brackets_are_what_the_constructor_stores_on_random_algebras",
        ),
    ),
    Mutant(
        "row mirror stored un-negated",
        LIEALG,
        "rows.setdefault(q, {})[p] = {r: neg(v) for r, v in coeffs.items()}",
        "rows.setdefault(q, {})[p] = coeffs",
        (
            "tests/test_sparse.py::test_rows_hold_each_declared_pair_once_per_orientation",
            "tests/test_sparse.py::test_oriented_yields_each_stored_pair_both_ways",
            "tests/test_report_digests.py::test_verify_report_matches_the_recorded_digest[2]",
        ),
    ),
    Mutant(
        "Jacobi accumulate skips a k with [e_k, e_c] != 0",
        LIEALG,
        "for k in ks:",
        "for k in ks[1:]:",
        (
            KERNELS + "test_jacobi_matches_dense_on_gln",
            KERNELS + "test_jacobi_matches_dense_on_random_sparse_algebras",
            KERNELS + "test_kernels_read_only_the_nonzero_brackets_they_need",
        ),
    ),
    Mutant(
        "self-duality: the root sign s dropped",
        "src/liedouble/glnfactory.py",
        "(-1) ** (j - i - 1)",
        "1",
        (
            THETA + "test_the_certificate_passes_on_every_factory_double[3]",
            THETA + "test_verify_suite_takes_the_reduced_checks[3]",
        ),
    ),
    Mutant(
        "self-duality certificate: the first stored pair skipped",
        BIALG,
        "for (a, b), coeffs in alg.tensor.stored():",
        "for (a, b), coeffs in alg.tensor.stored()[1:]:",
        (
            THETA + "test_the_certificate_rejects_a_break_on_a_pair_theta_maps_onto_itself",
            THETA + "test_the_certificate_accepts_exactly_the_theta_symmetric_algebras",
        ),
    ),
    Mutant(
        "Jacobi representatives: the triples with middle index half - 1 dropped",
        LIEALG,
        "c < below]",
        "c < below - 1]",
        (
            THETA + "test_jacobi_representatives_are_one_triple_per_orbit",
        ),
    ),
    Mutant(
        "cocycle representatives: the pairs (p, theta p) dropped",
        BIALG,
        "p <= image[q]",
        "p < image[q]",
        (
            THETA + "test_cocycle_representatives_are_one_pair_per_orbit",
        ),
    ),
    Mutant(
        "reduced Jacobi: the fallback to the full loop removed",
        LIEALG,
        """        if certified and report.violations:
            report.violations = self._jacobi_violations(self.dim)
""",
        "",
        (
            THETA + "test_a_theta_symmetric_jacobi_break_is_reported_in_full",
            THETA + "test_the_certificate_accepts_exactly_the_theta_symmetric_algebras",
        ),
    ),
    Mutant(
        "reduced cocycle: the fallback to the full loop removed",
        BIALG,
        """    if certified and report.violations:
        report.violations = _cocycle_violations(alg, delta, None)
""",
        "",
        (
            THETA + "test_a_theta_symmetric_cocycle_break_is_reported_in_full",
        ),
    ),
    Mutant(
        "reduced cojacobi: the fallback to the full loop removed",
        BIALG,
        """    if certified and report.violations:
        report.violations = dual._jacobi_violations(dual.dim)
""",
        "",
        (
            THETA + "test_a_theta_symmetric_cojacobi_break_is_reported_in_full",
        ),
    ),
    Mutant(
        "reduced Schouten check: the fallback to every x removed",
        BIALG,
        """    if certified and actions:
        actions = _nonzero_actions(alg, terms, alternating, table)
""",
        "",
        (
            THETA + "test_a_theta_symmetric_schouten_break_is_reported_in_full",
        ),
    ),
    Mutant(
        "reduced ad invariance: the image residual's sign s_a s_b s_c dropped",
        MANIN,
        "= neg(value) if flipped else value",
        "= value",
        (
            THETA + "test_reduced_checks_match_the_full_loops_on_gln[3]",
        ),
    ),
    Mutant(
        "self-duality certificate: the pairing's signs dropped",
        BIALG,
        "(neg(w) if flip[p] ^ flip[q] else w)",
        "w",
        (
            THETA + "test_the_certificate_rejects_each_kind_of_break",
        ),
    ),
    Mutant(
        "closed-form inverse: the I rows of T^-1 with the wrong sign",
        "src/liedouble/glnfactory.py",
        "[{X: _I_HALF_SQRT2, x: _MINUS_I_HALF_SQRT2} for X, x in cartan]",
        "[{X: _MINUS_I_HALF_SQRT2, x: _I_HALF_SQRT2} for X, x in cartan]",
        (
            KERNELS + "test_closed_form_inverse_of_the_gln_basis_change_matches_gauss_jordan[1]",
            KERNELS + "test_closed_form_inverse_of_the_gln_basis_change_matches_gauss_jordan[3]",
        ),
    ),
    Mutant(
        "rational-factor multiply: the rational left operand not swapped out",
        "src/liedouble/scalars.py",
        "q, a1, b1, c1, d1 = a1, a2, b2, c2, d2",
        "q = a1",
        (
            "tests/test_scalar_properties.py::test_multiply_matches_the_sixteen_product_formula",
            "tests/test_scalar_properties.py::test_field_axioms",
        ),
    ),
    Mutant(
        "integer compatibility: the lcm scaling of denominator groups dropped",
        MANIN,
        "total = sum(t * (den // d) for t, d in terms)",
        "total = sum(t for t, d in terms)",
        (
            COMPAT + "test_integer_unit_path_matches_scalar_path_and_brute_force",
            COMPAT + "test_scaled_gln_halves_cancel_only_across_denominator_groups",
        ),
    ),
    Mutant(
        "integer compatibility: the orbit filter without its s < t test",
        MANIN,
        "if key[0] < key[1] and key[2] < key[3]:",
        "if key[0] < key[1]:",
        (
            COMPAT + "test_the_integer_path_multiplies_only_the_products_of_sorted_keys",
        ),
    ),
    Mutant(
        "integer compatibility: a mirrored key written with the unnegated value",
        MANIN,
        "residual[(q, p, s, t)] = residual[(p, q, t, s)] = Scalar(*negated)",
        "residual[(q, p, s, t)] = residual[(p, q, t, s)] = Scalar(*parts)",
        (
            COMPAT + "test_monomial_path_matches_scalar_path_and_brute_force",
            COMPAT + "test_orbit_residuals_match_brute_force_on_perturbed_monomial_pairs",
        ),
    ),
    Mutant(
        "monomial compatibility: i * i = +1 in the unit table",
        MANIN,
        "((1, 2), (1, 3), (-1, 0), (-1, 1)),",
        "((1, 2), (1, 3), (1, 0), (-1, 1)),",
        (
            COMPAT + "test_unit_table_matches_scalar_products",
            COMPAT + "test_monomial_path_matches_scalar_path_and_brute_force",
        ),
    ),
    Mutant(
        "monomial compatibility: a two-component value taken for a monomial",
        MANIN,
        "return parts[0] if len(parts) == 1 else None",
        "return parts[0] if parts else None",
        (
            COMPAT + "test_a_two_component_coefficient_takes_the_scalar_path",
            COMPAT + "test_compatibility_matches_brute_force_on_mixed_coefficients",
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
