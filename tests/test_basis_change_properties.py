"""Random invertible basis changes over Q(i, sqrt2) keep the structure.

A basis change is a relabelling of the same Lie bialgebra, so every identity
the library checks must survive it: Jacobi on the rebased algebra,
compatibility of the halves moved by T and by the inverse transpose of T,
and the coboundary identity delta = d(r) with delta moved by
``express_in_basis`` and r moved by ``TwoTensor.transport``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liedouble import (
    ZERO,
    Matrix,
    Scalar,
    build_double,
    build_gln_triple,
    build_rmatrix,
    check_compatibility,
    coboundary,
    cocommutator_from_triple,
    express_in_basis,
)

entries = st.sampled_from(
    [
        Scalar(1),
        Scalar(-1),
        Scalar(2),
        Scalar(Fraction(1, 2)),
        Scalar(0, 1),
        Scalar(0, Fraction(1, 2)),
        Scalar(0, 0, 1),
        Scalar(1, 0, -1),
        Scalar(0, 0, 0, 1),
        Scalar(1, 1, 1, 1),
    ]
)


@st.composite
def invertible(draw, dim):
    """P * L * U: a permutation, then lower and upper triangular factors with
    nonzero diagonals and a few off-diagonal entries, so exactly invertible."""
    lower = [[ZERO] * dim for _ in range(dim)]
    upper = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        lower[i][i] = draw(entries)
        upper[i][i] = Scalar(1)
    below = [(i, j) for i in range(dim) for j in range(i)]
    for i, j in draw(st.lists(st.sampled_from(below), unique=True, max_size=3)) if below else []:
        lower[i][j] = draw(entries)
        upper[j][i] = draw(entries)
    order = draw(st.permutations(range(dim)))
    permutation = Matrix(
        [[Scalar(1) if j == order[i] else ZERO for j in range(dim)] for i in range(dim)]
    )
    T = permutation * Matrix(lower) * Matrix(upper)
    assert T * T.inverse() == Matrix.identity(dim)
    return T


def transpose(mat):
    return Matrix([[mat.entry(i, j) for i in range(mat.rows)] for j in range(mat.cols)])


@settings(deadline=None, max_examples=12)
@given(st.data())
def test_basis_changes_keep_jacobi_compatibility_and_the_coboundary_identity(data):
    n = data.draw(st.sampled_from([1, 2, 2, 3]))
    triple = build_gln_triple(n)
    double = build_double(triple)
    delta = cocommutator_from_triple(triple)
    _, r_skew = build_rmatrix(triple)

    T = data.draw(invertible(triple.dim))
    S = transpose(T).inverse()
    plus, minus = triple.plus.change_of_basis(T), triple.minus.change_of_basis(S)
    assert plus.check_jacobi().ok
    assert minus.check_jacobi().ok
    assert check_compatibility(plus.tensor, minus.tensor).ok

    D = data.draw(invertible(double.algebra.dim))
    rebased = double.algebra.change_of_basis(D)
    assert rebased.check_jacobi().ok
    assert coboundary(rebased, r_skew.transport(D.inverse())) == express_in_basis(delta, D)
