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
and must agree.
"""

import collections
import gc
import operator
import random
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
from liedouble import bialg, liealg, manin, suite
from liedouble.liealg import ScalarTable, add_into, scalar_table
from liedouble.manin import DoubleAlgebra

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
    if violations:
        verdict = NOT_INVARIANT
    elif schouten:
        verdict = QUASITRIANGULAR
    else:
        verdict = TRIANGULAR
    return verdict, schouten, violations


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


def test_gauss_jordan_matches_dense_on_the_gln_basis_change():
    T = gln_change_of_basis(3)
    rows = [[T.entry(i, j) for j in range(T.cols)] for i in range(T.rows)]
    assert_matches_dense(rows)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_form_matches_dense_on_the_fundamental_representation(n):
    rep = fundamental_representation(n)
    assert trace_form(rep) == dense_trace_form(rep)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_trace_form_matches_dense_on_random_matrices(data):
    size = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 4))
    rep = [Matrix(data.draw(rectangular_rows(size, size))) for _ in range(count)]
    assert trace_form(rep) == dense_trace_form(rep)


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
    table = scalar_table()
    x1, x2 = Scalar(1, Fraction(1, 2)), Scalar(1, Fraction(1, 2))
    y1, y2 = Scalar(0, 0, 3, -1), Scalar(0, 0, 3, -1)
    assert table.add(x1, y1) == x1 + y1
    assert table.add(x2, y2) is table.add(x1, y1)  # one sum per pair of values
    assert table.add(y2, x1) == y1 + x1
    assert table.inverse(x1) == x1.inverse()
    assert table.inverse(x2) is table.inverse(x1)  # one inverse per value
    assert table.mul(x1, y1) == x1 * y1  # products and sums kept apart
    assert table.add(x2, y1) == x1 + y1


def test_scalar_table_when_ids_are_recycled():
    # each operand is dropped at once and collected, so CPython hands its id
    # to a later Scalar of another value
    table = scalar_table()
    for _ in range(2):
        for k in range(1, 150):
            assert table.add(Scalar(k, 1), Scalar(0, 0, k % 7)) == Scalar(k, 1, k % 7)
            assert table.inverse(Scalar(k, 0, 1)) == Scalar(k, 0, 1).inverse()
            gc.collect(0)


def test_add_into_drops_a_zero_sum_from_the_table():
    table = scalar_table()
    x = Scalar(0, 1, Fraction(1, 3))
    acc = {"kept": ONE}
    add_into(acc, "key", x, table.add)
    assert acc == {"kept": ONE, "key": x}
    add_into(acc, "key", -x, table.add)
    assert acc == {"kept": ONE}
    add_into(acc, "key", ZERO, table.add)
    add_into(acc, "kept", -ONE, table.add)
    assert acc == {}


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
    T = gln_change_of_basis(6)
    inverse = T.inverse()
    assert {name for name, *_ in scalar_ops} == {"__mul__", "__add__", "inverse"}
    assert max(scalar_ops.values()) == 1
    assert T * inverse == Matrix.identity(T.rows)


def plain_products(func, *args):
    """``func(*args)`` with every scalar table replaced by plain ``*``, ``+`` and ``inverse``."""
    plain = ScalarTable(operator.mul, operator.add, Scalar.inverse)
    with pytest.MonkeyPatch.context() as patch:
        for module in (liealg, manin, bialg, suite):
            patch.setattr(module, "scalar_table", lambda: plain)
        return func(*args)


def algebra_key(alg):
    return alg.dim, alg.labels, alg.tensor


def assert_kernels_match_plain(alg, delta, r_skew, T, pairing, vectors):
    """Every kernel routed through a table equals its plain-``*`` loop."""
    cases = [
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
    for func, *args in cases:
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
