#!/usr/bin/env python3
"""The verification matrix: every check across a range of sizes.

Shows the headline result size by size: the paired solvable algebras are
compatible, their double is exactly gl(n) + t_n after the fixed basis
change, the inclusion chain respects the bialgebra structure, and the
1/sqrt2 normalization is load-bearing.
"""

import time

from liedouble import (
    ONE,
    ManinTriple,
    build_gln_tn,
    build_double,
    build_s_minus,
    build_s_plus,
    check_chain_embedding,
    check_compatibility,
    gln_change_of_basis,
    gln_labels,
    structure_equal,
)
from liedouble.glnfactory import verify_double_is_gln

print("n | dim s+/- | dim double | compat | double == gl(n)+t_n | chain into n+1")
print("--+----------+------------+--------+---------------------+---------------")
for n in range(1, 6):
    start = time.perf_counter()
    plus, minus = build_s_plus(n), build_s_minus(n)
    compat = check_compatibility(plus.tensor, minus.tensor).ok
    match = verify_double_is_gln(n).ok
    chain = check_chain_embedding(n).ok
    elapsed = time.perf_counter() - start
    print(
        f"{n} | {plus.dim:8} | {2 * plus.dim:10} | {'ok' if compat else 'FAIL':6} |"
        f" {'ok' if match else 'FAIL':19} | {'ok' if chain else 'FAIL'}"
        f"   ({elapsed:.2f}s)"
    )

print("\nKilling form versus fundamental trace form at n = 2:")
algebra = build_gln_tn(2)
killing = algebra.killing_form()
labels = gln_labels(2)
print("  K(H1,H1) =", killing.entry(0, 0), "  K(H1,H2) =", killing.entry(0, 1))
print("  K(F12,F21) =", killing.entry(4, 5), "  K(I1,I1) =", killing.entry(2, 2))
print("  (the trace form instead pairs H and I blocks by the identity)")

print("\nThe 1/sqrt2 normalization is essential.  With weight 1 instead:")
report = check_compatibility(build_s_plus(3, ONE).tensor, build_s_minus(3, ONE).tensor)
print(f"  n=3: crossed compatibility fails with {len(report.violations)} residuals,")
print(f"       first at (p,q,s,t) = {report.violations[0].indices}: {report.violations[0].residual}")
triple = ManinTriple.unchecked(build_s_plus(2, ONE), build_s_minus(2, ONE))
rebased = build_double(triple).algebra.change_of_basis(
    gln_change_of_basis(2), labels=gln_labels(2)
)
print("  n=2: the identity is scale-invariant there, but the rebased double")
print("       no longer matches gl(2)+t_2:",
      not structure_equal(rebased, build_gln_tn(2)))
