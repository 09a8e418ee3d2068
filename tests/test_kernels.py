"""The verify kernels against the plain loops they replaced.

The sparse ``Matrix`` (``Matrix.inverse``/``determinant`` among its
methods), ``BilinearForm`` on it, ``LieAlgebra.killing_form``,
``trace_form``, ``build_double``, ``check_isotropic_pairing``,
``check_ad_invariance``, the verify suite's forms comparison,
``schouten_check``, ``coboundary``, ``check_cocycle`` and ``check_jacobi``
skip entries and triples that are provably zero.  Each reference below is
the dense loop the library used before, kept verbatim in substance; the
fast kernel must return exactly what it returns: equal values, the same
counterexamples in the same order, the same verdicts.

The kernels that compute through ``liealg.scalar_table`` are run a second
time with the table replaced by plain ``*``, ``+`` and ``Scalar.inverse``
and must agree.  The basis change, ``coboundary`` and ``check_cocycle``
take antisymmetric pairs from their sorted halves; the last section checks
them against the loops over both orientations and counts their products
and negations.  The factory's closed-form inverse of its change of basis
is checked against Gauss-Jordan, ``trace_form`` against the traces of
product matrices, and the Schouten bracket of an antisymmetric r, computed
from one of its three terms, against the three-term loop.
"""

import collections
import gc
import importlib
import itertools
import operator
import pkgutil
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liedouble import (
    NOT_INVARIANT,
    ONE,
    QUASITRIANGULAR,
    TRIANGULAR,
    ZERO,
    BilinearForm,
    LieAlgebra,
    ManinTriple,
    Matrix,
    Scalar,
    SingularMatrixError,
    StructureTensor,
    ThreeTensor,
    TwoTensor,
    Cocommutator,
    Violation,
    build_double,
    build_gln_triple,
    build_rmatrix,
    build_s_minus,
    build_s_plus,
    check_ad_invariance,
    check_cocycle,
    check_compatibility,
    check_isotropic_pairing,
    coboundary,
    cocommutator_from_triple,
    delta_in_gln_basis,
    double_in_gln_basis,
    express_in_basis,
    gln_change_of_basis,
    gln_tn_trace_form,
    build_gln_tn,
    fundamental_representation,
    schouten_bracket,
    schouten_check,
    trace_form,
    SQRT2,
    Vector,
    ViolationReport,
    check_cojacobi,
    dual_algebra,
)
import liedouble
from liedouble import bialg, liealg, manin, suite
from liedouble.cli import MAX_N
from liedouble.liealg import ScalarTable, add_into, scalar_table
from liedouble.manin import DoubleAlgebra
from test_basis_change_properties import invertible

# --- reference implementations -------------------------------------------


def dense_eliminated(entries, augment: bool):
    """Dense Gauss-Jordan: returns (inverse rows or None, determinant)."""
    n = len(entries)
    work = [list(row) for row in entries]
    aug = [[Scalar(1) if i == j else ZERO for j in range(n)] for i in range(n)] if augment else None
    det = Scalar(1)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return None, ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            if aug is not None:
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        inv = pivot.inverse()
        work[col] = [v * inv for v in work[col]]
        if aug is not None:
            aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r == col or not work[r][col]:
                continue
            factor = work[r][col]
            work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
            if aug is not None:
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return aug, det


def dense_killing_form(alg):
    """K(p, q) = trace(ad(e_p) ad(e_q)) with a bracket lookup for every (p, q, l)."""
    pair = alg.tensor.pair
    gram = [[ZERO] * alg.dim for _ in range(alg.dim)]
    for p in range(alg.dim):
        for q in range(p, alg.dim):
            total = ZERO
            for l in range(alg.dim):
                w = pair(p, l)
                if not w:
                    continue
                for k, a in w.items():
                    bv = pair(q, k)
                    if bv:
                        b = bv.get(l)
                        if b:
                            total = total + a * b
            gram[p][q] = gram[q][p] = total
    return BilinearForm(gram)


def dense_trace_form(rep):
    """B(p, q) = trace(rep[p] * rep[q]) over every entry of every matrix."""
    rep = list(rep)
    gram = [[ZERO] * len(rep) for _ in rep]
    for p, a in enumerate(rep):
        for q, b in enumerate(rep):
            total = ZERO
            for k in range(a.rows):
                for l in range(a.cols):
                    total = total + a.entry(k, l) * b.entry(l, k)
            gram[p][q] = total
    return BilinearForm(gram)


def product_trace_form(rep):
    """B(p, q) = trace(rep[p] * rep[q]) from the product matrices, pairs p <= q."""
    rep = list(rep)
    rows = [{} for _ in rep]
    for p, left in enumerate(rep):
        for q in range(p, len(rep)):
            value = (left * rep[q]).trace()
            if value:
                rows[p][q] = rows[q][p] = value
    return BilinearForm(Matrix._of_rows(rows, len(rep)))


def three_term_schouten(alg, r):
    """[r_12, r_13] + [r_12, r_23] + [r_13, r_23] over every ordered pair of terms, plain products."""
    pair = alg.tensor.pair
    acc = {}
    for (a1, b1), v1 in r.items():
        for (a2, b2), v2 in r.items():
            coeff = v1 * v2
            for k, cv in (pair(a1, a2) or {}).items():
                add_into(acc, (k, b1, b2), coeff * cv)
            for k, cv in (pair(b1, a2) or {}).items():
                add_into(acc, (a1, k, b2), coeff * cv)
            for k, cv in (pair(b1, b2) or {}).items():
                add_into(acc, (a1, a2, k), coeff * cv)
    return ThreeTensor(acc)


def dense_ad_invariance(double):
    """Both conventions over all dim^3 basis triples."""
    alg = double.algebra
    pairing = double.pairing
    pair = alg.tensor.pair

    def paired(coeffs, index):
        total = ZERO
        for r, v in (coeffs or {}).items():
            m = pairing.entry(r, index)
            if m:
                total = total + v * m
        return total

    plus_bad, minus_bad = [], []
    for a in range(alg.dim):
        for b in range(alg.dim):
            for c in range(alg.dim):
                lhs = paired(pair(a, b), c)
                rhs = paired(pair(b, c), a)
                if lhs != rhs:
                    plus_bad.append(Violation((a, b, c), str(lhs - rhs)))
                if lhs != -rhs:
                    minus_bad.append(Violation((a, b, c), str(lhs + rhs)))
    return plus_bad, minus_bad


def dense_symmetry_error(rows):
    """The message for the first asymmetric (i, j), i < j, in row-major order."""
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i][j] != rows[j][i]:
                return f"bilinear form not symmetric at ({i},{j})"
    return None


def dense_build_double(triple):
    """The double with a bracket lookup for every (p, q, r) and a dense pairing."""
    m = triple.plus.dim
    f = triple.plus.tensor
    c = triple.minus.tensor
    brackets = {}
    for (p, q), vec in f.stored():
        brackets[(p, q)] = dict(vec)
    for (p, q), vec in c.stored():
        brackets[(m + p, m + q)] = {m + r: v for r, v in vec.items()}
    for p in range(m):
        for q in range(m):
            acc = {}
            # [z^p, Z_q] = f^p_{q,r} z^r - c^{p,r}_q Z_r
            for r in range(m):
                coeffs = f.pair(q, r)
                if coeffs:
                    value = coeffs.get(p)
                    if value:
                        add_into(acc, m + r, value)
                coeffs = c.pair(p, r)
                if coeffs:
                    value = coeffs.get(q)
                    if value:
                        add_into(acc, r, -value)
            if acc:
                brackets[(q, m + p)] = {r: -v for r, v in acc.items()}
    labels = tuple(triple.plus.labels)
    right = list(triple.minus.labels)
    while set(labels) & set(right):
        right = ["r_" + label for label in right]
    gram = [[ZERO] * (2 * m) for _ in range(2 * m)]
    for p in range(m):
        gram[p][m + p] = ONE
        gram[m + p][p] = ONE
    algebra = LieAlgebra.from_brackets(labels + tuple(right), brackets)
    return DoubleAlgebra(algebra, BilinearForm(gram), triple)


def dense_isotropic_pairing(double):
    """Violations of the hyperbolic pattern over all (2m)^2 pairing entries."""
    pairing = double.pairing
    m = double.half_dim
    violations = []
    for p in range(2 * m):
        for q in range(2 * m):
            value = pairing.entry(p, q)
            same_block = (p < m) == (q < m)
            if same_block:
                if value:
                    violations.append(Violation((p, q), f"isotropy: {value}"))
            else:
                expected = ONE if (p % m) == (q % m) else ZERO
                if value != expected:
                    violations.append(Violation((p, q), f"duality: {value - expected}"))
    if violations and not pairing.determinant():
        violations.append(Violation((), "nondegeneracy: determinant is 0"))
    violations.sort(key=lambda v: v.indices)
    return violations


def dense_forms_comparison(n):
    """The forms comparison over all dim^2 index pairs.

    The builders are looked up on ``suite`` at call time, so a test that
    replaces them there doctors this reference and the library alike.
    """
    algebra = suite.build_gln_tn(n)
    killing = algebra.killing_form()
    trace = suite.gln_tn_trace_form(n)
    rep = suite.fundamental_representation(n)
    trace_of = {p: rep[k].trace() for k, p in enumerate(suite.representation_index(n))}
    bad = []
    two_n, two = Scalar(2 * n), Scalar(2)
    for p in range(algebra.dim):
        for q in range(algebra.dim):
            if p in trace_of and q in trace_of:
                expected = two_n * trace.entry(p, q) - two * trace_of[p] * trace_of[q]
            else:
                expected = ZERO
            if killing.entry(p, q) != expected:
                bad.append(Violation((p, q), str(killing.entry(p, q) - expected)))
    if trace.entry(suite.i_index(n, 1), suite.i_index(n, 1)) != ONE:
        bad.append(Violation((suite.i_index(n, 1),), "central trace pairing missing"))
    return bad


def dense_schouten_check(alg, r_skew):
    """(verdict, schouten, violations) with every term visited for every x."""
    schouten = schouten_bracket(alg, r_skew)
    violations = dense_invariance_violations(alg, schouten)
    if violations:
        verdict = NOT_INVARIANT
    elif schouten:
        verdict = QUASITRIANGULAR
    else:
        verdict = TRIANGULAR
    return verdict, schouten, violations


def dense_invariance_violations(alg, schouten):
    """One violation per x with ad_x(schouten) != 0, every term visited."""
    pair = alg.tensor.pair
    violations = []
    for x in range(alg.dim):
        acc = {}
        for (p, q, r), value in schouten.items():
            for slot, s in enumerate((p, q, r)):
                for k, cv in (pair(x, s) or {}).items():
                    key = ((p, q, r)[:slot]) + (k,) + ((p, q, r)[slot + 1 :])
                    acc[key] = acc.get(key, ZERO) + value * cv
        acc = {key: value for key, value in acc.items() if value}
        if acc:
            violations.append(Violation((x,), ThreeTensor(acc).format(alg.labels)))
    return violations


def dense_add_action(acc, alg, x, tensor):
    """Add (ad_x (x) 1 + 1 (x) ad_x)(tensor) into ``acc``, both slots of every term visited."""
    pair = alg.tensor.pair
    for (p, q), value in tensor.items():
        for k, coeff in (pair(x, p) or {}).items():
            add_into(acc, (k, q), value * coeff)
        for k, coeff in (pair(x, q) or {}).items():
            add_into(acc, (p, k), value * coeff)


def dense_action(alg, x, tensor):
    acc = {}
    dense_add_action(acc, alg, x, tensor)
    return TwoTensor(acc)


def dense_coboundary(alg, r_skew):
    """ad_x applied to r_skew for every basis index x."""
    return Cocommutator(alg.dim, {x: dense_action(alg, x, r_skew) for x in range(alg.dim)})


def dense_cocycle(alg, delta):
    """delta([p,q]) - ad_p.delta(q) + ad_q.delta(p) for every p < q, summed as tensors."""
    report = ViolationReport("cocycle")
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            bracket = TwoTensor()
            for r, value in (alg.tensor.pair(p, q) or {}).items():
                bracket = bracket + delta.get(r).scale(value)
            residual = bracket - dense_action(alg, p, delta.get(q))
            residual = residual + dense_action(alg, q, delta.get(p))
            if residual:
                report.violations.append(Violation((p, q), residual.format(alg.labels)))
    return report


def dense_check_jacobi(alg):
    """[[e_p,e_q],e_r] + cyclic over all d(d-1)(d-2)/6 triples p < q < r."""
    report = ViolationReport("jacobi")
    pair = alg.tensor.pair

    def accumulate(acc, inner, outer_index):
        if not inner:
            return
        for k, coeff in inner.items():
            w = pair(k, outer_index)
            if not w:
                continue
            for m, c2 in w.items():
                add_into(acc, m, coeff * c2)

    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            for r in range(q + 1, alg.dim):
                acc = {}
                accumulate(acc, pair(p, q), r)
                accumulate(acc, pair(q, r), p)
                accumulate(acc, pair(r, p), q)
                if acc:
                    report.violations.append(
                        Violation((p, q, r), Vector(acc).format(alg.labels))
                    )
    return report


# --- Gauss-Jordan -----------------------------------------------------------

nonzero = st.builds(
    lambda a, b, c, d: Scalar(a, Fraction(b, 2), c, d),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-1, 1),
).filter(bool)


@st.composite
def square_matrices(draw):
    """Sparse or dense square matrices; some singular, some needing swaps."""
    n = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.25, 0.6, 1.0]))
    rows = [
        [draw(nonzero) if draw(st.floats(0, 1)) < density else ZERO for _ in range(n)]
        for _ in range(n)
    ]
    shape = draw(st.sampled_from(["plain", "swap", "repeated_row", "zero_column"]))
    if shape == "swap" and n > 1:
        rows[0][0] = ZERO
        rows[n - 1][0] = draw(nonzero)
    elif shape == "repeated_row" and n > 1:
        factor = draw(nonzero)
        rows[n - 1] = [factor * v for v in rows[0]]
    elif shape == "zero_column":
        column = draw(st.integers(0, n - 1))
        for row in rows:
            row[column] = ZERO
    return rows


def assert_matches_dense(rows):
    matrix = Matrix(rows)
    aug, det = dense_eliminated(rows, augment=True)
    assert matrix.determinant() == det
    assert dense_eliminated(rows, augment=False)[1] == det
    if aug is None or not det:
        with pytest.raises(SingularMatrixError):
            matrix.inverse()
    else:
        inverse = matrix.inverse()
        assert inverse == Matrix(aug)
        assert matrix * inverse == Matrix.identity(len(rows))


@settings(deadline=None, max_examples=80)
@given(square_matrices())
def test_gauss_jordan_matches_dense_reference(rows):
    assert_matches_dense(rows)


def test_gauss_jordan_cases_that_need_each_branch():
    one, two, i = Scalar(1), Scalar(2), Scalar(0, 0, 1)
    assert_matches_dense([[ZERO, one], [one, ZERO]])  # swap at the first column
    assert_matches_dense([[one, two], [two, Scalar(4)]])  # singular after elimination
    assert_matches_dense([[ZERO, ZERO], [ZERO, one]])  # no pivot at all
    assert_matches_dense([[i, one, ZERO], [ZERO, ZERO, two], [one, ZERO, Scalar(0, 1)]])


def dense_product(left, right):
    return [
        [
            sum((left[i][k] * right[k][j] for k in range(len(right))), ZERO)
            for j in range(len(right[0]))
        ]
        for i in range(len(left))
    ]


@st.composite
def rectangular_rows(draw, rows=None, cols=None):
    """Rows of Scalars with explicit zeros, some of them ``Scalar(0)`` copies."""
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    zero = st.sampled_from([ZERO, Scalar(0), Scalar(Fraction(0), 0, 0, 0)])
    return [[draw(st.one_of(zero, nonzero)) for _ in range(cols)] for _ in range(rows)]


def assert_matrix_is(matrix, rows):
    """``matrix`` holds exactly the dense ``rows``, zeros included."""
    assert (matrix.rows, matrix.cols) == (len(rows), len(rows[0]))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            assert matrix.entry(i, j) == value
    for j in range(matrix.cols):
        column = matrix.column(j)
        assert dict(column.items()) == {i: row[j] for i, row in enumerate(rows) if row[j]}
    for i, row in enumerate(rows):
        assert dict(matrix.row(i).items()) == {j: value for j, value in enumerate(row) if value}
    assert matrix == Matrix(rows)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_sparse_matrix_matches_dense_rows(data):
    rows = data.draw(rectangular_rows())
    n, m = len(rows), len(rows[0])
    matrix = Matrix(rows)
    assert_matrix_is(matrix, rows)
    columns = [{i: rows[i][j] for i in range(n)} for j in range(m)]  # zeros passed explicitly
    assert_matrix_is(Matrix.from_columns(n, columns), rows)
    other = data.draw(rectangular_rows(rows=m))
    assert_matrix_is(matrix * Matrix(other), dense_product(rows, other))
    changed = [list(row) for row in rows]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
    changed[i][j] = changed[i][j] + Scalar(1)
    assert (Matrix(changed) == matrix) == (changed == rows)
    if n == m:
        assert matrix.trace() == sum((rows[k][k] for k in range(n)), ZERO)
        assert_matches_dense(rows)


def test_sparse_matrix_edges():
    assert Matrix.zeros(2, 3) == Matrix([[ZERO] * 3, [ZERO] * 3])
    assert Matrix.identity(2) == Matrix([[Scalar(1), ZERO], [ZERO, Scalar(1)]])
    assert Matrix.zeros(2, 3) != Matrix.zeros(3, 2)
    assert Matrix([]).rows == Matrix([]).cols == 0
    with pytest.raises(ValueError):
        Matrix([[ZERO, ZERO], [ZERO]])
    with pytest.raises(IndexError):
        Matrix.from_columns(2, [{2: Scalar(1)}])
    with pytest.raises(IndexError):
        Matrix.from_columns(2, [{-1: Scalar(1)}])
    matrix = Matrix([[1, 2], [3, 4], [5, 6]])
    for i, j in ((-1, 0), (3, 0), (0, -1), (0, 2), (-3, -2)):
        with pytest.raises(IndexError):
            matrix.entry(i, j)
    for i in (-1, 3):
        with pytest.raises(IndexError):
            matrix.row(i)
    for j in (-1, 2):
        with pytest.raises(IndexError):
            matrix.column(j)


def eliminated_copy(matrix):
    """A copy of ``matrix`` with no inverse attached, so ``inverse()`` runs Gauss-Jordan."""
    return Matrix._of_rows([dict(row) for row in matrix._r], matrix.cols)


def test_gauss_jordan_matches_dense_on_the_gln_basis_change():
    T = gln_change_of_basis(3)
    rows = [[T.entry(i, j) for j in range(T.cols)] for i in range(T.rows)]
    assert_matches_dense(rows)


# The factory's change of basis carries its inverse in closed form; Gauss-Jordan
# on a copy with no inverse attached is the oracle, for every size the CLI can
# build (verify --n MAX_N checks the chain embedding into size MAX_N + 1).


@pytest.mark.parametrize("n", range(1, MAX_N + 2))
def test_closed_form_inverse_of_the_gln_basis_change_matches_gauss_jordan(n):
    T = gln_change_of_basis(n)
    inverse = T.inverse()
    assert inverse is T.inverse()
    assert inverse == eliminated_copy(T).inverse()
    identity = Matrix.identity(T.rows)
    assert T * inverse == identity and inverse * T == identity


def test_verify_suite_inverts_without_elimination(monkeypatch):
    calls = counted_methods(monkeypatch, Matrix, ("inverse", "_eliminated"))
    suite.verify_suite(3)
    assert calls["inverse"] > 0 and calls["_eliminated"] == 0


def test_verify_suite_looks_brackets_up_without_the_pair_method(monkeypatch):
    calls = counted_methods(monkeypatch, StructureTensor, ("pair",))
    suite.verify_suite(3)
    assert calls == {}


# --- Bilinear forms ------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_bilinear_form_matches_dense_rows(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(rectangular_rows(n, n))
    if data.draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            rows[i][j] = rows[i][j] + data.draw(nonzero)
    error = dense_symmetry_error(rows)
    if error is not None:
        for given_as in (rows, Matrix(rows)):
            with pytest.raises(ValueError) as info:
                BilinearForm(given_as)
            assert str(info.value) == error
        return
    form = BilinearForm(rows)
    assert form == BilinearForm(Matrix(rows))
    assert form.dim == n
    assert form.matrix() == Matrix(rows)
    assert all(form.entry(i, j) == rows[i][j] for i in range(n) for j in range(n))
    assert form.determinant() == dense_eliminated(rows, augment=False)[1]


def test_bilinear_form_rejects_non_square_and_asymmetric_input():
    for bad in ([[ONE, ZERO]], [[ONE], [ZERO]], [[ONE, ZERO], [ZERO]], Matrix.zeros(2, 3)):
        with pytest.raises(ValueError) as info:
            BilinearForm(bad)
        assert str(info.value) == "bilinear form matrix must be square"
    # (1,2) differs too, but (0,2) comes first in row-major order
    rows = [[ONE, ZERO, ONE], [ZERO, ONE, ONE], [ZERO, ZERO, ONE]]
    for given_as in (rows, Matrix(rows)):
        with pytest.raises(ValueError) as info:
            BilinearForm(given_as)
        assert str(info.value) == "bilinear form not symmetric at (0,2)"
    assert BilinearForm([]).dim == 0


# --- Killing and trace forms -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_killing_form_matches_dense_on_gln_tn(n):
    algebra = build_gln_tn(n)
    assert algebra.killing_form() == dense_killing_form(algebra)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_trace_form_matches_dense_on_the_fundamental_representation(n):
    rep = fundamental_representation(n)
    assert trace_form(rep) == dense_trace_form(rep) == product_trace_form(rep)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_trace_form_matches_dense_on_random_matrices(data):
    size = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 4))
    rep = [Matrix(data.draw(rectangular_rows(size, size))) for _ in range(count)]
    assert trace_form(rep) == dense_trace_form(rep) == product_trace_form(rep)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forms_comparison_matches_dense_on_gln_tn(n):
    assert suite._forms_comparison(n) == dense_forms_comparison(n) == []


def doctored_forms_comparison(n: int, scales: dict, trace_entries: dict):
    """(library, reference) forms comparison with gl(n) + t_n and its trace form doctored."""
    algebra = scaled(build_gln_tn(n), scales)
    trace = changed_form(gln_tn_trace_form(n), trace_entries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite, "build_gln_tn", lambda k: algebra)
        patch.setattr(suite, "gln_tn_trace_form", lambda k: trace)
        return suite._forms_comparison(n), dense_forms_comparison(n)


def test_forms_comparison_matches_dense_when_it_fails():
    # a scaled bracket moves Killing entries; a zeroed H1 trace entry, a new
    # entry between F's and a missing central pairing move the trace side
    got, want = doctored_forms_comparison(
        3, {0: Scalar(2), 5: Scalar(0, 1)}, {(0, 0): ZERO, (4, 9): Scalar(3), (3, 3): ZERO}
    )
    assert got == want
    assert len(want) > 3 and want[-1].residual == "central trace pairing missing"


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(1, 3),
    scales=st.dictionaries(st.integers(0, 40), nonzero, max_size=3),
    trace_entries=st.dictionaries(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        st.one_of(st.just(ZERO), st.just(ONE), nonzero),
        max_size=3,
    ),
)
def test_forms_comparison_matches_dense_on_doctored_forms(n, scales, trace_entries):
    got, want = doctored_forms_comparison(n, scales, trace_entries)
    assert got == want


# --- the double and its pairing --------------------------------------------------


def assert_double_matches_dense(triple):
    double = build_double(triple)
    dense = dense_build_double(triple)
    assert algebra_key(double.algebra) == algebra_key(dense.algebra)
    assert double.pairing == dense.pairing
    assert check_isotropic_pairing(double).violations == dense_isotropic_pairing(dense) == []
    return double


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_double_and_pairing_match_dense_on_gln(n):
    assert_double_matches_dense(build_gln_triple(n))


def random_tensor(draw, m: int) -> dict:
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m)]
    return {
        key: draw(st.dictionaries(st.integers(0, m - 1), nonzero, min_size=1, max_size=2))
        for key in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    }


def random_triple(draw, f: dict, c: dict, m: int) -> ManinTriple:
    """An unchecked triple on the two bracket tables, half of the time with equal labels."""
    plus = [f"Z{k}" for k in range(m)]
    minus = plus if draw(st.booleans()) else [f"z{k}" for k in range(m)]
    return ManinTriple.unchecked(
        LieAlgebra.from_brackets(plus, f), LieAlgebra.from_brackets(minus, c)
    )


@st.composite
def compatible_triples(draw):
    """A half with zero brackets beside a random one, or scaled gl(n) halves."""
    kind = draw(st.sampled_from(["plus_only", "minus_only", "scaled_gln"]))
    if kind == "scaled_gln":
        n = draw(st.integers(2, 3))
        tables = []
        for half in (build_s_plus(n), build_s_minus(n)):
            factor = draw(nonzero)
            tables.append(
                {key: {r: factor * v for r, v in coeffs.items()}
                 for key, coeffs in half.tensor.stored()}
            )
        return random_triple(draw, *tables, build_s_plus(n).dim)
    m = draw(st.integers(2, 4))
    tensor = random_tensor(draw, m)
    f, c = (tensor, {}) if kind == "plus_only" else ({}, tensor)
    return random_triple(draw, f, c, m)


@st.composite
def random_triples(draw):
    m = draw(st.integers(2, 4))
    return random_triple(draw, random_tensor(draw, m), random_tensor(draw, m), m)


@settings(deadline=None, max_examples=40)
@given(compatible_triples())
def test_double_matches_dense_on_random_compatible_pairs(triple):
    assert check_compatibility(triple.plus.tensor, triple.minus.tensor).ok
    assert_double_matches_dense(triple)


@settings(deadline=None, max_examples=40)
@given(random_triples())
def test_double_matches_dense_on_random_pairs(triple):
    assert_double_matches_dense(triple)


def test_double_matches_dense_on_an_incompatible_pair():
    f = {(0, 1): {0: Scalar(1), 2: Scalar(0, 1)}, (1, 2): {1: Scalar(2)}}
    c = {(0, 2): {1: Scalar(-1)}, (0, 1): {2: Scalar(1, 1)}}
    triple = ManinTriple.unchecked(
        LieAlgebra.from_brackets(["a", "b", "c"], f), LieAlgebra.from_brackets(["a", "b", "c"], c)
    )
    assert not check_compatibility(triple.plus.tensor, triple.minus.tensor).ok
    double = assert_double_matches_dense(triple)
    assert double.algebra.labels[3:] == ("r_a", "r_b", "r_c")


@st.composite
def doctored_pairings(draw):
    """gl(n) doubles with duals zeroed or changed and same- or cross-block entries added."""
    n = draw(st.integers(1, 3))
    m = n * (n + 1) // 2
    entries = {}
    for p in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        entries[(p, m + p)] = draw(st.one_of(st.just(ZERO), nonzero))
    index = st.integers(0, 2 * m - 1)
    for key in draw(st.lists(st.tuples(index, index), max_size=3)):
        entries[key] = draw(nonzero)
    return doctored_double(n, {}, entries)


def assert_isotropic_pairing_matches_dense(double):
    violations = check_isotropic_pairing(double).violations
    assert violations == dense_isotropic_pairing(double)
    return violations


@settings(deadline=None, max_examples=60)
@given(doctored_pairings())
def test_isotropic_pairing_matches_dense_on_doctored_pairings(double):
    assert_isotropic_pairing_matches_dense(double)


def test_isotropic_pairing_matches_dense_on_each_kind_of_break():
    m = 3
    cases = {
        "zeroed dual": {(0, m): ZERO},
        "scaled dual": {(1, m + 1): Scalar(2)},
        "same block": {(0, 1): Scalar(0, 1), (m + 2, m + 2): Scalar(3)},
        "cross block": {(0, m + 2): Scalar(1, 1)},
    }
    for name, entries in cases.items():
        violations = assert_isotropic_pairing_matches_dense(doctored_double(2, {}, entries))
        assert violations, name
    zeroed = assert_isotropic_pairing_matches_dense(doctored_double(2, {}, cases["zeroed dual"]))
    assert zeroed[0].residual == "nondegeneracy: determinant is 0"


# --- ad-invariance ------------------------------------------------------------


def scaled(alg, scales: dict) -> LieAlgebra:
    """``alg`` with the first constant of some stored pairs scaled, by position."""
    brackets = {}
    for position, (key, coeffs) in enumerate(alg.tensor.stored()):
        coeffs = dict(coeffs)
        if position in scales:
            first = min(coeffs)
            coeffs[first] = coeffs[first] * scales[position]
        brackets[key] = coeffs
    return LieAlgebra.from_brackets(alg.labels, brackets)


def changed_form(form, entries: dict) -> BilinearForm:
    """``form`` with the symmetric entries at (p, q) set, indices taken mod dim."""
    dim = form.dim
    gram = [[form.entry(p, q) for q in range(dim)] for p in range(dim)]
    for (p, q), value in entries.items():
        gram[p % dim][q % dim] = gram[q % dim][p % dim] = value
    return BilinearForm(gram)


def doctored_double(n: int, scales: dict, pairing_entries: dict) -> DoubleAlgebra:
    """The gl(n) double with some bracket constants scaled and the pairing changed."""
    double = build_double(build_gln_triple(n))
    algebra = scaled(double.algebra, scales)
    return DoubleAlgebra(algebra, changed_form(double.pairing, pairing_entries), double.origin)


def assert_ad_invariance_matches_dense(double):
    report = check_ad_invariance(double)
    plus_bad, minus_bad = dense_ad_invariance(double)
    assert report.invariant_counterexamples == plus_bad
    assert report.anti_invariant_counterexamples == minus_bad
    assert report.invariant_holds == (not plus_bad)
    assert report.anti_invariant_holds == (not minus_bad)
    return report


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ad_invariance_matches_dense_on_gln_doubles(n):
    report = assert_ad_invariance_matches_dense(build_double(build_gln_triple(n)))
    assert "invariant" in report.conventions()


def test_ad_invariance_matches_dense_on_the_worked_double(double3):
    assert_ad_invariance_matches_dense(double3)


def test_ad_invariance_matches_dense_when_both_conventions_fail():
    double = doctored_double(
        3, {0: Scalar(3), 4: Scalar(0, 1), 7: Scalar(-1)}, {(0, 1): Scalar(1), (2, 9): Scalar(0, 0, 1)}
    )
    report = assert_ad_invariance_matches_dense(double)
    assert report.conventions() == ()
    assert report.invariant_counterexamples and report.anti_invariant_counterexamples


def test_ad_invariance_matches_dense_off_the_bracket_support():
    # a pairing entry that pairs a generator with itself puts nonzero
    # <[a,b],c> on triples outside the hyperbolic pattern
    double = doctored_double(3, {}, {(3, 3): Scalar(2), (1, 11): Scalar(-1)})
    report = assert_ad_invariance_matches_dense(double)
    assert not report.invariant_holds


@settings(deadline=None, max_examples=25)
@given(
    scales=st.dictionaries(st.integers(0, 8), nonzero, max_size=3),
    pairing_entries=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), nonzero, max_size=2
    ),
)
def test_ad_invariance_matches_dense_on_random_doctored_doubles(scales, pairing_entries):
    assert_ad_invariance_matches_dense(doctored_double(2, scales, pairing_entries))


# --- Schouten -------------------------------------------------------------------


def assert_schouten_matches_dense(alg, r_skew):
    report = schouten_check(alg, r_skew)
    verdict, schouten, violations = dense_schouten_check(alg, r_skew)
    assert report.schouten == schouten
    assert report.violations == violations
    assert report.verdict == verdict
    return report


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schouten_matches_dense_on_gln(n):
    triple = build_gln_triple(n)
    _, r_skew = build_rmatrix(triple)
    assert assert_schouten_matches_dense(build_double(triple).algebra, r_skew).ok


@pytest.mark.parametrize("n, doubled", [(2, [0]), (2, [1, 3]), (3, [0, 3, 7, 10])])
def test_schouten_matches_dense_with_doubled_entries(n, doubled):
    triple = build_gln_triple(n)
    _, r_skew = build_rmatrix(triple)
    entries = dict(r_skew.items())
    for position, key in enumerate(sorted(entries)):
        if position in doubled:
            entries[key] = entries[key] * 2
    report = assert_schouten_matches_dense(build_double(triple).algebra, TwoTensor(entries))
    assert report.verdict == NOT_INVARIANT
    assert report.violations


# Schouten invariance on the a < b < c terms of an alternating [[r, r]]: its
# verdict and violations must equal the dense loop's, and a tensor that is
# not alternating must take the loop over every term.

WEDGE_SCALES = (ONE, -ONE, Scalar(2), SQRT2, Scalar(0, 0, 1), Scalar(Fraction(-1, 3), 0, 0, 1))


def doctored_skew_r(n, scales, extra):
    """gl(n)'s r_skew with wedge k scaled by ``scales[k]`` and the wedges ``extra`` added: still skew."""
    _, r_skew = build_rmatrix(build_gln_triple(n))
    terms = {}
    for k, (p, q) in enumerate(key for key in sorted(dict(r_skew.items())) if key[0] < key[1]):
        value = r_skew.get(p, q) * scales[k % len(scales)]
        terms[(p, q)], terms[(q, p)] = value, -value
    for p, q, value in extra:
        if p != q:
            terms[(p, q)] = terms.get((p, q), ZERO) + value
            terms[(q, p)] = terms.get((q, p), ZERO) - value
    return TwoTensor(terms)


def permutation_sign(perm) -> int:
    """+1 for an even permutation of range(len(perm)), -1 for an odd one."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def is_alternating(tensor):
    """True iff every key of a 3-tensor has three distinct indices and each
    permutation of a key holds the permutation's sign times its value."""
    terms = dict(tensor.items())
    for key, value in terms.items():
        if len(set(key)) != 3:
            return False
        for perm in itertools.permutations(range(3)):
            expected = value if permutation_sign(perm) == 1 else -value
            if terms.get(tuple(key[i] for i in perm)) != expected:
                return False
    return True


def alternating_from_half(half):
    """The alternating 3-tensor whose a < b < c terms are ``half``."""
    terms = {}
    for key, value in half.items():
        for perm in itertools.permutations(range(3)):
            terms[tuple(key[i] for i in perm)] = value if permutation_sign(perm) == 1 else -value
    return ThreeTensor(terms)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_schouten_matches_dense_on_doctored_skew_r(data):
    n = data.draw(st.sampled_from((2, 3)))
    alg = build_double(build_gln_triple(n)).algebra
    scales = data.draw(st.lists(st.sampled_from(WEDGE_SCALES), min_size=1, max_size=4))
    index = st.integers(0, alg.dim - 1)
    extra = data.draw(st.lists(st.tuples(index, index, st.sampled_from(WEDGE_SCALES)), max_size=2))
    r = doctored_skew_r(n, scales, extra)
    assert r.is_antisymmetric()
    assert is_alternating(schouten_bracket(alg, r))
    assert_schouten_matches_dense(alg, r)


def test_schouten_on_a_doctored_skew_r_that_is_not_invariant():
    alg = build_double(build_gln_triple(3)).algebra
    r = doctored_skew_r(3, (ONE, Scalar(2), SQRT2), ())
    schouten = schouten_bracket(alg, r)
    assert is_alternating(schouten)
    report = assert_schouten_matches_dense(alg, r)
    assert report.verdict == NOT_INVARIANT
    assert len(report.violations) > 1


def test_schouten_acts_on_sorted_terms_only_when_invariant(monkeypatch):
    full_loop = []
    add_action = bialg._add_action
    monkeypatch.setattr(
        bialg, "_add_action", lambda *args: full_loop.append(args[2]) or add_action(*args)
    )
    triple = build_gln_triple(3)
    alg = build_double(triple).algebra
    _, r_skew = build_rmatrix(triple)
    assert schouten_check(alg, r_skew).verdict == QUASITRIANGULAR
    r = doctored_skew_r(3, (ONE, Scalar(2)), ())
    report = schouten_check(alg, r)
    assert full_loop == []  # a skew r never takes the full action
    # each failing x's sorted terms, expanded, are the full action on every term
    assert report.violations == dense_invariance_violations(alg, schouten_bracket(alg, r))
    assert report.verdict == NOT_INVARIANT


def test_schouten_of_a_non_skew_r_takes_the_full_loop(monkeypatch):
    sorted_path = []
    action = bialg._alternating_action
    monkeypatch.setattr(
        bialg, "_alternating_action", lambda *args: sorted_path.append(args[2]) or action(*args)
    )
    triple = build_gln_triple(3)
    alg = build_double(triple).algebra
    _, r_skew = build_rmatrix(triple)
    entries = dict(r_skew.items())
    key = min(entries)
    entries[key] = entries[key] * 2  # (p, q) doubled, (q, p) not: not skew
    r = TwoTensor(entries)
    assert not r.is_antisymmetric()
    assert not is_alternating(schouten_bracket(alg, r))
    assert assert_schouten_matches_dense(alg, r).verdict == NOT_INVARIANT
    assert sorted_path == []


def test_alternation_test_rejects_each_broken_orbit():
    triple = build_gln_triple(2)
    alg = build_double(triple).algebra
    schouten = schouten_bracket(alg, build_rmatrix(triple)[1])
    terms = dict(schouten.items())
    assert is_alternating(schouten)
    (a, b, c), value = min((key, v) for key, v in terms.items() if key[0] < key[1] < key[2])
    for key in itertools.permutations((a, b, c)):
        flipped = dict(terms)
        flipped[key] = -flipped[key]  # one permutation's sign flipped
        assert not is_alternating(ThreeTensor(flipped)), key
        dropped = dict(terms)
        del dropped[key]  # one permutation missing
        assert not is_alternating(ThreeTensor(dropped)), key
    assert not is_alternating(ThreeTensor({**terms, (a, a, b): value}))  # a repeated index


def test_schouten_check_of_a_mutant_bracket_matches_the_full_loop(monkeypatch):
    # [[r, r]] of gl(3) is invariant; with one sorted term changed, the sorted
    # action must find every x the mutant breaks and list it as the full loop does
    triple = build_gln_triple(3)
    alg = build_double(triple).algebra
    _, r_skew = build_rmatrix(triple)
    half = bialg._schouten_half(alg, r_skew, PLAIN)
    assert alternating_from_half(half) == schouten_bracket(alg, r_skew)
    key = min(half)
    unused = min(k for k in itertools.combinations(range(alg.dim), 3) if k not in half)
    mutants = {
        "scale": {**half, key: half[key] * 2},
        "negate": {**half, key: -half[key]},
        "drop": {k: v for k, v in half.items() if k != key},
        "add": {**half, unused: ONE},
    }
    for change, mutant in mutants.items():
        monkeypatch.setattr(bialg, "_schouten_half", lambda *args, mutant=mutant: dict(mutant))
        report = schouten_check(alg, r_skew)
        expanded = alternating_from_half(mutant)
        assert report.schouten == expanded, change
        assert report.violations == dense_invariance_violations(alg, expanded), change
        assert report.verdict == NOT_INVARIANT, change


# [[r, r]] of an antisymmetric r from the term pairs with b1 < b2 of its first
# term, mirrored: equal to the three-term loop, at most 1/6 of its lookups.


@st.composite
def skew_two_tensors(draw, dim: int):
    """A random antisymmetric two-tensor on range(dim): a sum of wedges."""
    r = TwoTensor()
    for _ in range(draw(st.integers(0, 6))):
        p, q = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        r = r + TwoTensor.wedge(p, q, draw(st.sampled_from(WEDGE_SCALES)))
    return r


@st.composite
def schouten_cases(draw):
    """(algebra, antisymmetric r): gl(n) + t_n with n <= 4, or a random algebra of dimension 2..5."""
    if draw(st.booleans()):
        alg = build_gln_tn(draw(st.integers(1, 4)))
    else:
        m = draw(st.integers(2, 5))
        alg = LieAlgebra.from_brackets([f"e{k}" for k in range(m)], random_tensor(draw, m))
    return alg, draw(skew_two_tensors(alg.dim))


@settings(deadline=None, max_examples=60)
@given(schouten_cases())
def test_schouten_bracket_of_a_skew_r_matches_the_three_term_loop(case):
    alg, r = case
    assert r.is_antisymmetric()
    assert schouten_bracket(alg, r) == three_term_schouten(alg, r)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schouten_bracket_of_the_gln_r_matrix_matches_the_three_term_loop(n):
    triple = build_gln_triple(n)
    alg = build_double(triple).algebra
    _, r_skew = build_rmatrix(triple)
    schouten = schouten_bracket(alg, r_skew)
    assert schouten == three_term_schouten(alg, r_skew)
    assert is_alternating(schouten) and (n == 1) == (not schouten)


def test_schouten_bracket_of_a_non_skew_r_takes_the_three_term_loop(monkeypatch):
    full_loop = []
    terms = bialg._schouten_terms
    monkeypatch.setattr(
        bialg, "_schouten_terms", lambda *args: full_loop.append(args[1]) or terms(*args)
    )
    alg = build_gln_tn(2)
    skew = TwoTensor.wedge(0, 2) + TwoTensor.wedge(2, 3, SQRT2)
    assert schouten_bracket(alg, skew) == three_term_schouten(alg, skew)
    assert full_loop == []
    for r in (skew + TwoTensor({(0, 2): ONE}), TwoTensor({(2, 3): ONE}), TwoTensor({(4, 4): ONE})):
        assert not r.is_antisymmetric()
        assert schouten_bracket(alg, r) == three_term_schouten(alg, r)
        assert full_loop[-1] is r


def count_bracket_lookups(tensor) -> collections.Counter:
    """Count each read of a bracket from ``tensor``'s rows from now on.

    The counter's keys are (how, found): ``how`` is ``"[]"`` or ``"get"``,
    and ``found`` tells whether the row held the bracket.
    """
    lookups = collections.Counter()

    class CountedRow(dict):
        def __getitem__(self, s):
            lookups["[]", s in self.keys()] += 1
            return dict.__getitem__(self, s)

        def get(self, s, default=None):
            lookups["get", s in self.keys()] += 1
            return dict.get(self, s, default)

    tensor._rows = {x: CountedRow(row) for x, row in tensor._rows.items()}
    return lookups


def found(count: int) -> dict:
    """The lookup counter of ``count`` reads by ``[]`` that each found a bracket."""
    return {("[]", True): count} if count else {}


def three_term_pairs(alg, r) -> int:
    """The nonzero brackets the three terms of [[r, r]] read over every ordered pair of terms."""
    pair = alg.tensor.pair
    terms = list(r._c)
    return sum(
        bool(pair(a1, a2)) + bool(pair(b1, a2)) + bool(pair(b1, b2))
        for a1, b1 in terms
        for a2, b2 in terms
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_schouten_bracket_makes_at_most_a_sixth_of_the_loops_lookups(n):
    triple = build_gln_triple(n)
    alg = build_double(triple).algebra
    _, r_skew = build_rmatrix(triple)
    expected = three_term_schouten(alg, r_skew)
    full_pairs = three_term_pairs(alg, r_skew)
    lookups = count_bracket_lookups(alg.tensor)
    assert schouten_bracket(alg, r_skew) == expected
    sorted_lookups = lookups.pop(("[]", True))
    assert not lookups
    assert bialg._schouten_terms(alg, r_skew, scalar_table()) == expected
    # the three-term loop probes every pair of terms three times and finds
    # each nonzero bracket; the sorted half reads a sixth of those at most
    assert lookups[("get", True)] == full_pairs
    assert 0 < 6 * sorted_lookups <= full_pairs, (sorted_lookups, full_pairs)


def jacobi_pairs(alg) -> int:
    """The nonzero brackets that the Jacobi residuals of all triples p < q < r read.

    A cyclic term [[e_x, e_y], e_c] of a sorted triple needs [e_x, e_y] and
    the [e_k, e_c] != 0 over the k in its support, when there is such a k.
    """
    pair = alg.tensor.pair
    needed = 0
    for (x, y), inner in alg.tensor.oriented():
        for c in range(alg.dim):
            if x < y < c or y < c < x or c < x < y:  # (x, y, c) a cyclic turn of its sorted triple
                outer = sum(1 for k in inner if pair(k, c))
                needed += outer and 1 + outer
    return needed


def schouten_half_pairs(alg, r) -> int:
    """The term pairs of r with b1 < b2 whose [e_a1, e_a2] != 0."""
    pair = alg.tensor.pair
    return sum(
        1 for (a1, b1) in r._c for (a2, b2) in r._c if b1 < b2 and pair(a1, a2)
    )


def full_action_pairs(alg, terms) -> int:
    """The brackets [e_x, e_s] != 0 that the full action of every x reads, s a slot value of ``terms``."""
    pair = alg.tensor.pair
    slot_values = [{key[slot] for key in terms} for slot in range(len(next(iter(terms))))]
    return sum(1 for x in range(alg.dim) for values in slot_values for s in values if pair(x, s))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_kernels_read_only_the_nonzero_brackets_they_need(n):
    # on the gl(n) double, every bracket lookup of check_jacobi, of the
    # sorted Schouten half and of the full adjoint action finds a bracket,
    # one per nonzero pair the kernel needs, and none is looked up empty
    triple = build_gln_triple(n)
    alg = build_double(triple).algebra
    r, r_skew = build_rmatrix(triple)
    assert not r.is_antisymmetric()
    needed = {
        "check_jacobi": jacobi_pairs(alg),
        "_schouten_half": schouten_half_pairs(alg, r_skew),
        "_add_action": full_action_pairs(alg, r._c),
    }
    lookups = count_bracket_lookups(alg.tensor)
    table = scalar_table()
    kernels = {
        "check_jacobi": lambda: alg.check_jacobi().ok,
        "_schouten_half": lambda: bialg._schouten_half(alg, r_skew, table),
        "_add_action": lambda: bialg._nonzero_actions(alg, r._c, False, table),
    }
    results = {}
    for name, kernel in kernels.items():
        lookups.clear()
        result = kernel()
        assert lookups == found(needed[name]), name
        assert needed[name] > 0
        results[name] = result
    assert results["check_jacobi"]
    assert results["_schouten_half"] and all(a < b < c for a, b, c in results["_schouten_half"])
    assert results["_add_action"]


# --- adjoint action on two-tensors ------------------------------------------------


def assert_action_matches_dense(alg, delta, r_skew):
    assert coboundary(alg, r_skew) == dense_coboundary(alg, r_skew)
    report = check_cocycle(alg, delta)
    assert report == dense_cocycle(alg, delta)
    return report


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coboundary_and_cocycle_match_dense_on_gln(n):
    alg, delta, r_skew, *_ = gln_case(n)
    assert assert_action_matches_dense(alg, delta, r_skew).ok
    triple = build_gln_triple(n)
    moved = r_skew.transport(gln_change_of_basis(n).inverse())
    hif = double_in_gln_basis(n, triple)
    assert assert_action_matches_dense(hif, delta_in_gln_basis(n, triple), moved).ok


@pytest.mark.parametrize("n", [2, 3])
def test_coboundary_and_cocycle_match_dense_with_one_term_scaled(n):
    alg, delta, r_skew, *_ = gln_case(n)
    failing = 0
    for p, value in delta.items():
        terms = dict(value.items())
        q, r = min(terms)  # scale one wedge term of delta(p) and of r_skew
        terms[(q, r)], terms[(r, q)] = terms[(q, r)] * SQRT2, terms[(r, q)] * SQRT2
        doctored = Cocommutator(delta.dim, {**dict(delta.items()), p: terms})
        skew = dict(r_skew.items())
        q, r = sorted(skew)[p % len(skew)]
        skew[(q, r)], skew[(r, q)] = skew[(q, r)] * SQRT2, skew[(r, q)] * SQRT2
        report = assert_action_matches_dense(alg, doctored, TwoTensor(skew))
        failing += not report.ok
    assert failing  # the doctored cocommutators do break the cocycle condition


# --- scalar tables ------------------------------------------------------------------


def test_product_table_on_equal_values_in_distinct_objects():
    mul = scalar_table().mul
    x1, x2 = Scalar(1, Fraction(1, 2)), Scalar(1, Fraction(1, 2))
    y1, y2 = Scalar(0, 0, 3, -1), Scalar(0, 0, 3, -1)
    assert x1 is not x2 and y1 is not y2
    assert mul(x1, y1) == x1 * y1
    assert mul(x2, y2) is mul(x1, y1)  # one product per pair of values
    assert mul(y2, x1) == y1 * x1
    assert mul(x1, Scalar(2)) == Scalar(2, 1)


def test_product_table_when_temporaries_are_dropped():
    # each operand is freed by the caller at once, so CPython hands its
    # memory, and with it its id, to the next Scalar of the same size
    mul = scalar_table().mul
    for k in range(300):
        assert mul(Scalar(k, 1), Scalar(0, 0, k % 7 + 1)) == Scalar(k, 1) * Scalar(0, 0, k % 7 + 1)
        gc.collect(0)
    for k in range(300):
        assert mul(Scalar(k, 1), Scalar(0, 0, k % 7 + 1)) == Scalar(k, 1) * Scalar(0, 0, k % 7 + 1)


def test_scalar_table_adds_and_inverts_equal_values_once():
    # mul_into(acc, key, y, ONE) adds y to acc[key]; each sum is made once
    table = scalar_table()
    x1, x2 = Scalar(1, Fraction(1, 2)), Scalar(1, Fraction(1, 2))
    y1, y2 = Scalar(0, 0, 3, -1), Scalar(0, 0, 3, -1)
    first, second, third = {0: x1}, {0: x2}, {0: y2}
    table.mul_into(first, 0, y1, ONE)
    table.mul_into(second, 0, y2, ONE)
    table.mul_into(third, 0, x1, ONE)
    assert first[0] == x1 + y1 and third[0] == y1 + x1
    assert second[0] is first[0]  # one sum per pair of values
    assert table.inverse(x1) == x1.inverse()
    assert table.inverse(x2) is table.inverse(x1)  # one inverse per value
    assert table.mul(x1, y1) == x1 * y1  # products and sums kept apart
    assert table.mul(x2, y2) is table.mul(x1, y1)
    table.mul_into(first, 0, x2, y1)
    assert first[0] == x1 + y1 + x1 * y1


def test_scalar_table_when_ids_are_recycled():
    # each operand is dropped at once and collected, so CPython hands its id
    # to a later Scalar of another value
    table = scalar_table()
    for _ in range(2):
        for k in range(1, 150):
            acc = {0: Scalar(k, 1)}
            table.mul_into(acc, 0, Scalar(0, 0, k % 7), ONE)
            assert acc == {0: Scalar(k, 1, k % 7)}
            assert table.mul(Scalar(k, 1), Scalar(0, 0, 1)) == Scalar(0, 0, k, 1)
            assert table.inverse(Scalar(k, 0, 1)) == Scalar(k, 0, 1).inverse()
            gc.collect(0)


def test_add_into_drops_a_zero_sum_from_the_table():
    # add_into sums with plain +; the table's mul_into adds the product x * 1
    table = scalar_table()
    x = Scalar(0, 1, Fraction(1, 3))
    for put in (add_into, lambda acc, key, value: table.mul_into(acc, key, value, ONE)):
        acc = {"kept": ONE}
        put(acc, "key", x)
        assert acc == {"kept": ONE, "key": x}
        put(acc, "key", -x)
        assert acc == {"kept": ONE}
        put(acc, "key", ZERO)
        put(acc, "kept", -ONE)
        assert acc == {}


# few values, each with its negative, so that sums cancel to zero and refill;
# the last two have four nonzero components
cancelling = st.sampled_from(
    [ONE, -ONE, SQRT2, Scalar(0, 0, Fraction(-1, 2)), ZERO,
     Scalar(1, Fraction(-1, 3), 2, Fraction(1, 7)), Scalar(-1, Fraction(1, 3), -2, Fraction(-1, 7))]
)


def fresh(value):
    """An equal value in a distinct object."""
    return Scalar(value.a, value.b, value.c, value.d)


@settings(deadline=None, max_examples=150)
@given(
    st.dictionaries(st.integers(0, 2), cancelling.filter(bool), max_size=3),
    st.lists(st.tuples(st.integers(0, 2), cancelling, cancelling, st.booleans()), max_size=40),
)
def test_mul_into_matches_add_into_of_the_product(initial, steps):
    # the accumulator starts with values the table has not seen; a fresh
    # operand is an equal value in a new object, dropped by the test and
    # collected after its step, so its id would go to a later Scalar if the
    # table did not keep it alive
    table = scalar_table()
    acc = {key: fresh(value) for key, value in initial.items()}
    expected = dict(initial)
    for key, x, y, copy in steps:
        if copy:
            x, y = fresh(x), fresh(y)
        table.mul_into(acc, key, x, y)
        add_into(expected, key, x * y)
        assert acc == expected
        del x, y
        gc.collect(0)
    assert all(acc.values())


@pytest.fixture()
def scalar_ops():
    """Count every real Scalar product, sum and inverse by its operand values."""
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("__mul__", "__add__", "inverse"):
            original = getattr(Scalar, name)

            def counted(self, *other, name=name, original=original):
                counts[(name, self, *other)] += 1
                return original(self, *other)

            patch.setattr(Scalar, name, counted)
        yield counts


def test_express_in_basis_computes_each_value_pair_once(scalar_ops):
    triple = build_gln_triple(4)
    delta = cocommutator_from_triple(triple)
    T = gln_change_of_basis(4)
    T_inv = T.inverse()
    expected = plain_products(express_in_basis, delta, T)
    scalar_ops.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "inverse", lambda self: T_inv)  # count this call's table only
        assert express_in_basis(delta, T) == expected
    assert scalar_ops and max(scalar_ops.values()) == 1


def test_gauss_jordan_computes_each_value_pair_and_pivot_once(scalar_ops):
    T = eliminated_copy(gln_change_of_basis(6))
    inverse = T.inverse()
    assert {name for name, *_ in scalar_ops} == {"__mul__", "__add__", "inverse"}
    assert max(scalar_ops.values()) == 1
    assert T * inverse == Matrix.identity(T.rows)


def plain_mul_into(acc, key, x, y):
    add_into(acc, key, x * y)


# a scalar table that computes every result afresh with plain Scalar arithmetic
PLAIN = ScalarTable(operator.mul, Scalar.inverse, plain_mul_into, operator.neg)


def tabled_modules():
    """Every module of the package that binds ``scalar_table`` itself."""
    modules = [
        importlib.import_module(f"liedouble.{info.name}")
        for info in pkgutil.iter_modules(liedouble.__path__)
    ]
    tabled = [module for module in modules if "scalar_table" in vars(module)]
    assert liealg in tabled  # the search found the package, not nothing
    return tabled


def plain_products(func, *args):
    """``func(*args)`` with every scalar table replaced by ``PLAIN``."""
    with pytest.MonkeyPatch.context() as patch:
        for module in tabled_modules():
            patch.setattr(module, "scalar_table", lambda: PLAIN)
        return func(*args)


def algebra_key(alg):
    return alg.dim, alg.labels, alg.tensor


def tabled_kernel_cases(alg, delta, r_skew, T, pairing, vectors):
    """(func, *args) for every kernel that computes through a scalar table."""
    return [
        (lambda a, v: a.bracket(*v), alg, vectors),
        (lambda a: a.check_jacobi(), alg),
        (lambda a, t: algebra_key(a.change_of_basis(t)), alg, T),
        (lambda t: t.inverse(), T),
        (lambda t: t.determinant(), T),
        (lambda a: a.killing_form(), alg),
        (lambda r, t: r.transport(t.inverse()), r_skew, T),
        (express_in_basis, delta, T),
        (check_cocycle, alg, delta),
        (coboundary, alg, r_skew),
        (schouten_bracket, alg, r_skew),
        (schouten_check, alg, r_skew),
        (check_ad_invariance, DoubleAlgebra(alg, pairing, None)),
    ]


def assert_kernels_match_plain(*case):
    """Every kernel routed through a table equals its plain-``*`` loop."""
    for func, *args in tabled_kernel_cases(*case):
        assert func(*args) == plain_products(func, *args)


def gln_case(n):
    triple = build_gln_triple(n)
    double = build_double(triple)
    _, r_skew = build_rmatrix(triple)
    rng = random.Random(n)
    values = (ONE, -ONE, SQRT2, Scalar(Fraction(1, 2)), Scalar(0, 0, 1), Scalar(-1, 0, 0, 2))
    dim = double.algebra.dim
    vectors = [
        Vector({k: rng.choice(values) for k in rng.sample(range(dim), min(dim, 5))})
        for _ in range(2)
    ]
    return (
        double.algebra,
        cocommutator_from_triple(triple),
        r_skew,
        gln_change_of_basis(n),
        double.pairing,
        vectors,
    )


def counted_methods(monkeypatch, cls, names):
    """Count the calls of ``cls``'s methods ``names``, by name; ``cls`` may be a module."""
    calls = collections.Counter()
    for name in names:
        original = cls.__dict__[name]
        if isinstance(original, staticmethod):  # Fraction.__new__
            function = original.__func__

            def counted(*args, name=name, function=function, **kw):
                calls[name] += 1
                return function(*args, **kw)

            monkeypatch.setattr(cls, name, staticmethod(counted))
        else:

            def counted(*args, name=name, original=original, **kw):
                calls[name] += 1
                return original(*args, **kw)

            monkeypatch.setattr(cls, name, counted)
    return calls


# Every way a Fraction comes to be: its constructor and each operator that returns one.
FRACTION_RESULTS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__",
)


def test_tabled_kernels_of_gln_4_compare_no_scalars(monkeypatch):
    # the tables key operands on their integer ratios, and the kernels test
    # values through them: no Scalar (so no Fraction) equality or hash runs
    cases = tabled_kernel_cases(*gln_case(4))
    calls = counted_methods(monkeypatch, Scalar, ("__eq__", "__hash__"))
    for func, *args in cases:
        func(*args)
        assert calls == {}, func


def test_gln_4_compatibility_makes_a_fraction_only_per_residual_unit(monkeypatch):
    # the per-unit sums are integers; a Fraction is made once per nonzero
    # (key, unit) sum, so none for the compatible halves
    plus, minus = build_s_plus(4), build_s_minus(4)
    brackets = {key: dict(vec) for key, vec in minus.tensor.stored()}
    (key, vec), *_ = brackets.items()
    r = next(iter(vec))
    vec[r] = vec[r] * 3
    moved = LieAlgebra.from_brackets(minus.labels, brackets)
    c_units = manin._monomial_triples(manin._tensor_triples(moved.tensor))
    f_units = manin._monomial_triples(manin._tensor_triples(plus.tensor))
    calls = counted_methods(monkeypatch, Fraction, FRACTION_RESULTS)
    assert check_compatibility(plus.tensor, minus.tensor).ok
    assert calls == {}
    residual = manin._monomial_residuals(c_units, f_units)
    units = sum(1 for value in residual.values() for part in (value.a, value.b, value.c, value.d) if part)
    assert residual and sum(calls.values()) == calls["__new__"] == units


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tabled_kernels_match_plain_products_on_gln(n):
    assert_kernels_match_plain(*gln_case(n))
    assert suite._forms_comparison(n) == plain_products(suite._forms_comparison, n) == []


def test_tabled_kernels_are_tabled():
    counted = []
    original = Scalar.__mul__

    def counting(self, other):
        counted.append(1)
        return original(self, other)

    alg, delta, *_ = gln_case(3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scalar, "__mul__", counting)
        check_cocycle(alg, delta)
        tabled = len(counted)
        plain_products(check_cocycle, alg, delta)
    assert 0 < tabled < len(counted) - tabled


# many distinct values, so that most lookups of the tables miss
distinct = st.builds(
    lambda a, b, c, d, den: Scalar(Fraction(a, den), b, Fraction(c, den + 1), d),
    st.integers(-40, 40),
    st.integers(-3, 3),
    st.integers(-40, 40),
    st.integers(-2, 2),
    st.integers(1, 9),
).filter(bool)


@st.composite
def random_kernel_inputs(draw):
    """A random sparse bracket table (rarely a Lie algebra), cocommutator,
    skew two-tensor, invertible basis change, symmetric pairing and two
    vectors."""
    dim = draw(st.integers(2, 5))
    pairs = [(p, q) for p in range(dim) for q in range(p + 1, dim)]
    brackets = {}
    for key in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))):
        brackets[key] = draw(
            st.dictionaries(st.integers(0, dim - 1), distinct, min_size=1, max_size=3)
        )
    alg = LieAlgebra.from_brackets([f"e{k}" for k in range(dim)], brackets)

    def skew():
        entries = {}
        for p, q in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)):
            value = draw(distinct)
            entries[(p, q)], entries[(q, p)] = value, -value
        return TwoTensor(entries)

    delta = Cocommutator(dim, {x: skew() for x in range(dim)})
    r_skew = skew()
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = draw(distinct)
        for j in range(i):
            rows[i][j] = draw(st.one_of(st.just(ZERO), distinct))
    order = draw(st.permutations(range(dim)))
    T = Matrix([rows[k] for k in order])
    gram = [[ZERO] * dim for _ in range(dim)]
    index = st.integers(0, dim - 1)
    for p, q in draw(st.lists(st.tuples(index, index), max_size=4)):
        gram[p][q] = gram[q][p] = draw(distinct)
    vectors = [Vector(draw(st.dictionaries(index, distinct, max_size=4))) for _ in range(2)]
    return alg, delta, r_skew, T, BilinearForm(gram), vectors


@settings(deadline=None, max_examples=40)
@given(random_kernel_inputs())
def test_tabled_kernels_match_plain_products_on_random_algebras(inputs):
    assert_kernels_match_plain(*inputs)


@settings(deadline=None, max_examples=40)
@given(random_kernel_inputs())
def test_killing_form_matches_dense_on_random_algebras(inputs):
    alg = inputs[0]
    assert alg.killing_form() == dense_killing_form(alg)


@settings(deadline=None, max_examples=40)
@given(random_kernel_inputs())
def test_coboundary_and_cocycle_match_dense_on_random_algebras(inputs):
    alg, delta, r_skew, *_ = inputs
    assert_action_matches_dense(alg, delta, r_skew)


# --- bracket tables stored without the constructor's checks ------------------------


def assert_stored_as_constructed(tensor):
    """``tensor`` holds what the validating constructor stores for its brackets:
    the same pairs and coefficients, mirrors and order."""
    checked = StructureTensor({key: dict(coeffs) for key, coeffs in tensor.stored()})
    assert [(key, list(coeffs.items())) for key, coeffs in tensor.oriented()] == [
        (key, list(coeffs.items())) for key, coeffs in checked.oriented()
    ]
    assert tensor == checked and hash(tensor) == hash(checked)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_trusted_brackets_are_what_the_constructor_stores_on_gln(n):
    triple = build_gln_triple(n)
    for alg in (build_double(triple).algebra, double_in_gln_basis(n, triple)):
        assert_stored_as_constructed(alg.tensor)


@settings(deadline=None, max_examples=40)
@given(random_kernel_inputs())
def test_trusted_brackets_are_what_the_constructor_stores_on_random_algebras(inputs):
    alg, _, _, T, *_ = inputs
    brackets = {key: dict(coeffs) for key, coeffs in alg.tensor.stored()}
    assert_stored_as_constructed(StructureTensor._of_sorted(brackets))
    assert_stored_as_constructed(alg.change_of_basis(T).tensor)
    assert_stored_as_constructed(build_double(ManinTriple.unchecked(alg, alg)).algebra.tensor)


# --- Jacobi over the candidate triples ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jacobi_matches_dense_on_gln(n):
    for alg in (build_double(build_gln_triple(n)).algebra, build_gln_tn(n)):
        report = alg.check_jacobi()
        assert report == dense_check_jacobi(alg)
        assert report.ok


@pytest.mark.parametrize("n", [2, 3])
def test_jacobi_matches_dense_with_one_bracket_scaled(n):
    double = build_double(build_gln_triple(n)).algebra
    failing = 0
    for position in range(len(double.tensor.stored())):
        alg = scaled(double, {position: Scalar(2)})
        report = alg.check_jacobi()
        assert report == dense_check_jacobi(alg)
        failing += not report.ok
    assert failing  # the doctored algebras do break the identity


@pytest.mark.parametrize("n", [3, 4])  # at n = 2 every scaled term still satisfies it
def test_cojacobi_matches_dense_on_doctored_cocommutators(n):
    triple = build_gln_triple(n)
    delta = cocommutator_from_triple(triple)
    labels = build_double(triple).algebra.labels
    failing = 0
    for p, value in delta.items():
        terms = dict(value.items())
        q, r = min(terms)  # scale one wedge term of delta(p)
        terms[(q, r)], terms[(r, q)] = terms[(q, r)] * SQRT2, terms[(r, q)] * SQRT2
        doctored = Cocommutator(delta.dim, {**dict(delta.items()), p: terms})
        report = check_cojacobi(doctored, labels)
        expected = dense_check_jacobi(dual_algebra(doctored, labels))
        assert (report.check, report.violations) == ("cojacobi", expected.violations)
        failing += not report.ok
    assert failing


@settings(deadline=None, max_examples=60)
@given(random_kernel_inputs())
def test_jacobi_matches_dense_on_random_sparse_algebras(inputs):
    alg = inputs[0]
    assert alg.check_jacobi() == dense_check_jacobi(alg)


# --- antisymmetric pairs from their sorted halves -------------------------------------


def full_change_slots(terms, T, T_inv, arguments):
    """Every slot of every term mapped in turn with plain products: the basis
    change as it was before it took antisymmetric pairs from sorted halves."""
    for slot in range(len(next(iter(terms), ()))):
        weights = T._r if slot < arguments else T_inv._c
        acc = {}
        for key, value in terms.items():
            for k, w in weights[key[slot]].items():
                add_into(acc, key[:slot] + (k,) + key[slot + 1 :], value * w)
        terms = acc
    return terms


def full_cocycle(alg, delta, table):
    """check_cocycle's loop before sorted halves: every term of every value acted on.

    -ad_p.delta(q) is the action on -delta(q), whose values are negated here.
    """
    pair, rows = alg.tensor.pair, alg.tensor._rows
    slots = [bialg._by_slot(delta.get(p)._c) for p in range(alg.dim)]
    negated = [bialg._by_slot((-delta.get(p))._c) for p in range(alg.dim)]
    residuals = {}
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            acc = {}
            for r, value in (pair(p, q) or {}).items():
                for key, coeff in delta.get(r)._c.items():
                    table.mul_into(acc, key, value, coeff)
            bialg._add_action(acc, rows, p, negated[q], table)
            bialg._add_action(acc, rows, q, slots[p], table)
            if acc:
                residuals[(p, q)] = acc
    return residuals


def swapped(key, pair):
    return key[:pair] + (key[pair + 1], key[pair]) + key[pair + 2 :]


def sorted_half(terms, pair):
    return {key: value for key, value in terms.items() if key[pair] < key[pair + 1]}


def mirrored(half, pair):
    return {**half, **{swapped(key, pair): -value for key, value in half.items()}}


@st.composite
def antisymmetric_terms(draw, dim, rank, pair):
    """Terms ``{key: value}`` antisymmetric in slots pair and pair + 1."""
    index = st.integers(0, dim - 1)
    terms = {}
    for key in draw(st.lists(st.tuples(*[index] * rank), max_size=6)):
        if key[pair] != key[pair + 1]:
            value = draw(distinct)
            terms[key], terms[swapped(key, pair)] = value, -value
    return terms


@st.composite
def general_terms(draw, dim, rank):
    """Terms with no symmetry, repeated indices allowed."""
    index = st.integers(0, dim - 1)
    return draw(st.dictionaries(st.tuples(*[index] * rank), distinct, max_size=6))


IRRATIONAL = (
    SQRT2,
    Scalar(0, 0, 1),
    Scalar(1, 1),
    Scalar(0, Fraction(1, 2), 0, -1),
    Scalar(Fraction(2, 3), 0, 0, 1),
)


@st.composite
def block_matrices(draw, dim):
    """P B Q: permutation matrices P and Q around a block-diagonal B of nonzero
    1 x 1 entries and 2 x 2 blocks of irrational entries with a nonzero
    determinant, so sparse and exactly invertible."""
    value = st.sampled_from(IRRATIONAL)
    rows = [[ZERO] * dim for _ in range(dim)]
    i = 0
    while i < dim:
        if i + 1 < dim and draw(st.booleans()):
            a, b, c, det = (draw(value) for _ in range(4))
            d = (b * c + det) * a.inverse()  # a*d - b*c = det
            rows[i][i], rows[i][i + 1], rows[i + 1][i], rows[i + 1][i + 1] = a, b, c, d
            i += 2
        else:
            rows[i][i] = draw(st.sampled_from(IRRATIONAL + (ONE, -ONE)))
            i += 1
    left, right = draw(st.permutations(range(dim))), draw(st.permutations(range(dim)))
    return Matrix([[rows[left[i]][right[j]] for j in range(dim)] for i in range(dim)])


# (rank, argument slots, first slot of the pair) of change_of_basis, express_in_basis and transport
LAYOUTS = ((3, 2, 0), (3, 1, 1), (2, 0, 0))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_sorted_half_basis_change_matches_the_full_loop(data):
    dim = data.draw(st.integers(2, 5))
    T = data.draw(st.one_of(block_matrices(dim), invertible(dim)))
    T_inv = T.inverse()
    for rank, arguments, pair in LAYOUTS:
        full = data.draw(antisymmetric_terms(dim, rank, pair))
        expected = full_change_slots(full, T, T_inv, arguments)
        half = liealg._change_slots(
            sorted_half(full, pair), T, T_inv, arguments=arguments, pair=pair
        )
        assert half == sorted_half(expected, pair)
        assert mirrored(half, pair) == expected  # so no key of the result repeats its pair
        general = data.draw(general_terms(dim, rank))
        assert liealg._change_slots(
            general, T, T_inv, arguments=arguments, pair=None
        ) == full_change_slots(general, T, T_inv, arguments)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_public_basis_changes_match_the_full_loop_on_block_matrices(data):
    dim = data.draw(st.integers(2, 5))
    T = data.draw(block_matrices(dim))
    T_inv = T.inverse()
    brackets = data.draw(antisymmetric_terms(dim, 3, 0))
    stored = {}
    for (p, q, r), value in brackets.items():
        if p < q:
            stored.setdefault((p, q), {})[r] = value
    alg = LieAlgebra.from_brackets([f"e{k}" for k in range(dim)], stored)
    rebased = {}
    for (p, q, r), value in full_change_slots(brackets, T, T_inv, 2).items():
        if p < q:
            rebased.setdefault((p, q), {})[r] = value
    assert alg.change_of_basis(T).tensor == StructureTensor(rebased)
    values = data.draw(antisymmetric_terms(dim, 3, 1))
    entries = {}
    for (p, q, r), value in values.items():
        entries.setdefault(p, {})[(q, r)] = value
    delta = Cocommutator(dim, entries)
    moved = {}
    for (p, q, r), value in full_change_slots(values, T, T_inv, 1).items():
        moved.setdefault(p, {})[(q, r)] = value
    assert express_in_basis(delta, T) == Cocommutator(dim, moved)
    for r in (data.draw(antisymmetric_terms(dim, 2, 0)), data.draw(general_terms(dim, 2))):
        tensor = TwoTensor(r)
        expected = TwoTensor(full_change_slots(r, None, T_inv, 0))
        assert tensor.transport(T_inv) == expected == plain_products(tensor.transport, T_inv)


def outcome(func, *args):
    """``func(*args)``, or the type and text of the ValueError it raises."""
    try:
        return func(*args)
    except ValueError as err:
        return ValueError, str(err)


@settings(deadline=None, max_examples=40)
@given(random_kernel_inputs(), st.data())
def test_coboundary_of_a_tensor_that_is_not_antisymmetric_takes_the_full_loop(inputs, data):
    alg = inputs[0]
    r = TwoTensor(data.draw(general_terms(alg.dim, 2)))
    expected = outcome(dense_coboundary, alg, r)
    assert outcome(coboundary, alg, r) == expected
    assert outcome(plain_products, coboundary, alg, r) == expected


@st.composite
def doctored_cocommutators(draw):
    """gl(n) + t_n in the paired or the H/I/F basis, with one delta value changed:
    a wedge term scaled, dropped or added."""
    n = draw(st.sampled_from([2, 3]))
    triple = build_gln_triple(n)
    if draw(st.booleans()):
        alg, delta = build_double(triple).algebra, cocommutator_from_triple(triple)
    else:
        alg, delta = double_in_gln_basis(n, triple), delta_in_gln_basis(n, triple)
    entries = dict(delta.items())
    p = draw(st.sampled_from(sorted(entries)))
    terms = dict(entries[p].items())
    q, r = draw(st.sampled_from(sorted(key for key in terms if key[0] < key[1])))
    change = draw(st.sampled_from(["scale", "drop", "add"]))
    if change == "scale":
        factor = draw(st.sampled_from(IRRATIONAL))
        terms[(q, r)], terms[(r, q)] = terms[(q, r)] * factor, terms[(r, q)] * factor
    elif change == "drop":
        del terms[(q, r)], terms[(r, q)]
    else:
        q, r = draw(st.lists(st.integers(0, alg.dim - 1), min_size=2, max_size=2, unique=True))
        value = draw(st.sampled_from(IRRATIONAL))
        terms = dict((TwoTensor(terms) + TwoTensor.wedge(q, r, value)).items())
    entries[p] = TwoTensor(terms)
    return alg, Cocommutator(delta.dim, entries)


@settings(deadline=None, max_examples=30)
@given(doctored_cocommutators())
def test_cocycle_counterexamples_of_doctored_cocommutators_match_the_full_loop(case):
    alg, delta = case
    report = check_cocycle(alg, delta)
    assert report == dense_cocycle(alg, delta) == plain_products(check_cocycle, alg, delta)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_cocycle_looks_up_only_the_brackets_its_action_uses(n):
    # the action on a stored half visits a slot value s only when [x, s] != 0:
    # it reads [e_x, e_s] and its mirror [e_s, e_x], each found, for every
    # such s; the residual's own [e_p, e_q] is walked from row p, not probed
    triple = build_gln_triple(n)
    alg = build_double(triple).algebra
    delta = cocommutator_from_triple(triple)
    pair = alg.tensor.pair
    used = every = 0  # slot values with a bracket, and all slot values, over the actions
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            for x, y in ((p, q), (q, p)):
                for terms_at in bialg._by_slot(delta._half(y)):
                    every += len(terms_at)
                    used += sum(1 for s in terms_at if pair(x, s))
    lookups = count_bracket_lookups(alg.tensor)
    assert check_cocycle(alg, delta).ok
    assert lookups == found(2 * used)
    assert 0 < used < every


def counting_table():
    """A plain table whose ``mul`` and ``mul_into`` count their products in ``products``."""
    products = collections.Counter()

    def mul(x, y):
        products["mul"] += 1
        return x * y

    def mul_into(acc, key, x, y):
        add_into(acc, key, mul(x, y))

    return products, ScalarTable(mul, Scalar.inverse, mul_into, operator.neg)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sorted_halves_form_at_most_half_the_products_of_the_full_loops(n):
    products, table = counting_table()
    alg, delta, r_skew, T, *_ = gln_case(n)
    T_inv = T.inverse()
    full_delta = {(p,) + key: c for p, value in delta.items() for key, c in value.items()}
    brackets = {
        (p, q, r): c for (p, q), coeffs in alg.tensor.oriented() for r, c in coeffs.items()
    }

    def full_coboundary():
        index = bialg._by_slot(r_skew._c)
        for x in range(alg.dim):
            bialg._add_action({}, alg.tensor._rows, x, index, table)

    def count(func, *args, **kw):
        products.clear()
        func(*args, **kw)
        return products["mul"]

    with pytest.MonkeyPatch.context() as patch:
        for module in (liealg, bialg):
            patch.setattr(module, "scalar_table", lambda: table)
        patch.setattr(Matrix, "inverse", lambda self: T_inv)  # count the kernels' products only
        pairs = {
            "transport": (
                count(r_skew.transport, T_inv),
                count(liealg._change_slots, r_skew._c, None, T_inv, arguments=0, pair=None),
            ),
            "express_in_basis": (
                count(express_in_basis, delta, T),
                count(liealg._change_slots, full_delta, T, T_inv, arguments=1, pair=None),
            ),
            "coboundary": (count(coboundary, alg, r_skew), count(full_coboundary)),
            "check_cocycle": (
                count(check_cocycle, alg, delta),
                count(full_cocycle, alg, delta, table),
            ),
            "change_of_basis": (
                count(alg.change_of_basis, T),
                count(liealg._change_slots, brackets, T, T_inv, arguments=2, pair=None),
            ),
        }
    for kernel, (half, full) in pairs.items():
        if kernel == "change_of_basis":
            # The full loop merges the images of [X_i, Y] and [x_i, Y] after
            # its first slot (X_i and x_i have the same two weights); the
            # sorted half holds the pairs as (X_i, Y) and (Y, x_i), whose
            # images meet only after the second slot: 44 of 84 at n = 2.
            assert 0 < half < full and 100 * half <= 53 * full, (kernel, half, full)
        else:
            assert 0 < 2 * half <= full, (kernel, half, full)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_suite_tests_antisymmetry_once_per_public_r_entry(monkeypatch, n):
    # cocommutator values are stored and passed as sorted halves, so no
    # kernel tests one; each public entry that takes an r tests it once:
    # coboundary 4 times, TwoTensor.transport 3 times and schouten_check once
    callers = collections.Counter()
    original = TwoTensor._antisymmetric_half

    def counted(self):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(self)

    monkeypatch.setattr(TwoTensor, "_antisymmetric_half", counted)
    schouten = counted_methods(
        monkeypatch, bialg, ("_schouten_half", "_schouten_terms", "_add_action")
    )
    assert all(check.passed for check in suite.verify_suite(n))
    assert callers == {"coboundary": 4, "transport": 3, "_schouten": 1}
    # [[r, r]] is summed once as its sorted half, and no x needs the full action
    assert schouten == {"_schouten_half": 1}


@pytest.fixture()
def negations():
    """Count Scalar.__neg__ calls per operand value; the operands are kept
    alive as the counter's keys."""
    calls = collections.Counter()
    original = Scalar.__neg__

    def counted(self):
        calls[self] += 1
        return original(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scalar, "__neg__", counted)
        yield calls


def test_structure_tensor_negates_each_coefficient_object_once(negations):
    x, y = Scalar(0, 1), Scalar(1, 0, 2)
    tensor = StructureTensor({(0, 1): {2: x}, (0, 2): {1: x, 0: y}, (2, 1): {0: x}})
    # x and y for the reversed view, and x once more for (2, 1) stored as (1, 2),
    # whose negated value the view negates back
    assert sorted(negations.values()) == [1, 1, 1]
    assert tensor.pair(1, 2) == {0: -x} and tensor.pair(2, 1) == {0: x}


def test_kernels_negate_each_value_object_once(negations):
    # in a value pool each value is one object, and the pool negates each
    # value once: a kernel call repeated in the same pool negates nothing
    triple = build_gln_triple(3)
    alg, delta, r_skew, T, *_ = gln_case(3)
    T_inv = T.inverse()
    doctored = dict(delta.items())
    doctored.pop(min(doctored))
    doctored = Cocommutator(delta.dim, doctored)
    calls = [
        lambda: eliminated_copy(T)._eliminated(augment=True),  # Gauss-Jordan's pivot rows
        lambda: cocommutator_from_triple(triple),
        lambda: express_in_basis(delta, T),
        lambda: alg.change_of_basis(T),
        lambda: r_skew.transport(T_inv),
        lambda: check_cocycle(alg, doctored),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "inverse", lambda self: T_inv)
        negations.clear()
        with liealg.value_pool():
            coboundary(alg, r_skew)
        assert not negations  # its values stay sorted halves, and nothing is mirrored
        for call in calls:
            with liealg.value_pool():
                negations.clear()
                call()
                assert negations and max(negations.values()) == 1
                negations.clear()
                result = call()
                assert not negations
    assert not result.ok  # the cocycle counterexamples were mirrored too


def test_values_antisymmetric_by_construction_are_not_checked_again(monkeypatch):
    # the one-pass test is _antisymmetric_half; is_antisymmetric calls it
    calls = counted_methods(monkeypatch, TwoTensor, ("_antisymmetric_half",))
    test = "_antisymmetric_half"
    triple = build_gln_triple(3)
    alg, delta, r_skew, T, *_ = gln_case(3)
    T_inv = T.inverse()
    assert calls == {}
    cocommutator_from_triple(triple)
    express_in_basis(delta, T)
    check_cocycle(alg, delta)
    dual_algebra(delta)
    assert calls == {}
    coboundary(alg, r_skew)
    assert calls == {test: 1}  # its input only
    r_skew.transport(T_inv)
    assert calls == {test: 2}
    schouten_check(alg, r_skew)
    assert calls == {test: 3}
    calls.clear()
    assert Cocommutator(delta.dim, dict(delta.items())) == delta
    assert calls == {test: len(delta.items())}
