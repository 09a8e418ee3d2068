"""Basis changes against the three kernels that the slot-wise transform replaced.

``_bracket``, ``_apply``, ``change_of_basis``, ``_transport`` and
``express_in_basis`` below are the earlier code, kept verbatim apart from
calling each other as functions instead of methods and summing with plain
``+``, as slow oracles:
``change_of_basis`` brackets the columns of T pairwise and applies T^-1 to
each result, ``express_in_basis`` pulls each column back through delta and
transports the result, and ``_transport`` pushes every term of a two-tensor
through two columns of T^-1 at once.  The slot-wise transform behind
``LieAlgebra.change_of_basis``, ``express_in_basis`` and
``TwoTensor.transport`` must give equal results, in the same sorted order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liedouble import (
    ZERO,
    Cocommutator,
    LieAlgebra,
    Matrix,
    Scalar,
    StructureTensor,
    TwoTensor,
    Vector,
    build_double,
    build_gln_triple,
    build_rmatrix,
    cocommutator_from_triple,
    express_in_basis,
    gln_change_of_basis,
    gln_labels,
)
from liedouble.liealg import ScalarTable, add_into, scalar_table
from test_basis_change_properties import invertible


def _bracket(self, x: Vector, y: Vector, table: ScalarTable) -> Vector:
    mul = table.mul
    acc: dict[int, Scalar] = {}
    for p, xv in x.items():
        self._check_index(p)
        for q, yv in y.items():
            self._check_index(q)
            coeffs = self.tensor.pair(p, q)
            if not coeffs:
                continue
            factor = mul(xv, yv)
            for r, coeff in coeffs.items():
                add_into(acc, r, mul(factor, coeff))
    return Vector(acc)


def _apply(self, vec: Vector, table: ScalarTable) -> Vector:
    mul = table.mul
    acc: dict[int, Scalar] = {}
    for j, v in vec.items():
        if j >= self.cols:
            raise IndexError(f"vector index {j} out of range for {self.cols} columns")
        for i, m in self._c[j].items():
            add_into(acc, i, mul(m, v))
    return Vector(acc)


def change_of_basis(self, T: Matrix, labels=None) -> LieAlgebra:
    """Rewrite brackets in the basis whose vectors are the columns of T."""
    if T.rows != self.dim or T.cols != self.dim:
        raise ValueError("change-of-basis matrix has wrong shape")
    T_inv = T.inverse()
    table = scalar_table()
    columns = [T.column(j) for j in range(self.dim)]
    brackets = {}
    for p in range(self.dim):
        for q in range(p + 1, self.dim):
            w = _bracket(self, columns[p], columns[q], table)
            if w:
                new_w = _apply(T_inv, w, table)
                if new_w:
                    brackets[(p, q)] = {r: v for r, v in new_w.items()}
    return LieAlgebra(labels if labels is not None else self.labels, StructureTensor(brackets))


def _transport(self, inverse_basis_map: Matrix, table: ScalarTable) -> TwoTensor:
    mul = table.mul
    columns: dict[int, list] = {}

    def column(index):
        col = columns.get(index)
        if col is None:
            col = columns[index] = inverse_basis_map.column(index).items()
        return col

    acc: dict[tuple[int, int], Scalar] = {}
    for (p, q), value in self._c.items():
        for k, left in column(p):
            for l, right in column(q):
                add_into(acc, (k, l), mul(mul(value, left), right))
    return TwoTensor(acc)


def transport(self, inverse_basis_map: Matrix) -> TwoTensor:
    """Rewrite coordinates through the inverse change-of-basis matrix."""
    return _transport(self, inverse_basis_map, scalar_table())


def oracle_express_in_basis(delta: Cocommutator, T: Matrix) -> Cocommutator:
    """Transport a cocommutator through the change of basis with matrix T.

    Consistent with LieAlgebra.change_of_basis: the new basis vectors are
    the columns of T in the old basis, arguments pull back through T and
    output pairs push forward through T^{-1}.
    """
    if T.rows != delta.dim or T.cols != delta.dim:
        raise ValueError("change-of-basis matrix has wrong shape")
    T_inv = T.inverse()
    table = scalar_table()
    mul = table.mul
    entries = {}
    for j in range(delta.dim):
        acc: dict[tuple[int, int], Scalar] = {}
        for i, weight in T.column(j).items():
            value = delta.get(i)
            if not value:
                continue
            for key, coeff in value.items():
                add_into(acc, key, mul(weight, coeff))
        if acc:
            entries[j] = _transport(TwoTensor(acc), T_inv, table)
    return Cocommutator(delta.dim, entries)


def ordered(obj):
    """Everything an equality check could miss: the stored order and the inner order."""
    if isinstance(obj, LieAlgebra):
        return obj.labels, [(key, list(coeffs.items())) for key, coeffs in obj.tensor.stored()]
    if isinstance(obj, Cocommutator):
        return obj.dim, [(index, tensor.items()) for index, tensor in obj.items()]
    return obj.items()


def assert_matches_oracles(alg, delta, tensors, T, labels=None):
    new = alg.change_of_basis(T, labels)
    old = change_of_basis(alg, T, labels)
    assert new.tensor == old.tensor and ordered(new) == ordered(old)
    new, old = express_in_basis(delta, T), oracle_express_in_basis(delta, T)
    assert new == old and ordered(new) == ordered(old)
    T_inv = T.inverse()
    for tensor in tensors:
        new, old = tensor.transport(T_inv), transport(tensor, T_inv)
        assert new == old and ordered(new) == ordered(old)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_basis_changes_match_the_oracles_on_gln(n):
    triple = build_gln_triple(n)
    r, r_skew = build_rmatrix(triple)
    T = gln_change_of_basis(n)
    double = build_double(triple).algebra
    delta = cocommutator_from_triple(triple)
    assert_matches_oracles(double, delta, (r, r_skew), T, gln_labels(n))


def test_brackets_and_cocommutator_values_that_cancel_leave_no_entry():
    x = Scalar(Fraction(2, 3), 0, 1)
    alg = LieAlgebra.from_brackets(("e0", "e1", "e2"), {(0, 2): {1: x}, (1, 2): {1: x}})
    w = TwoTensor.wedge(0, 2, x)
    delta = Cocommutator(3, {0: w, 1: w})
    one, zero = Scalar(1), ZERO
    T = Matrix([[one, zero, zero], [-one, one, zero], [zero, zero, one]])  # e'_0 = e0 - e1
    rebased = alg.change_of_basis(T)
    assert rebased.bracket_basis(0, 2).is_zero() and rebased.bracket_basis(1, 2) == Vector({1: x})
    assert express_in_basis(delta, T).get(0).is_zero()
    assert_matches_oracles(alg, delta, (w, TwoTensor({(0, 1): x, (1, 0): x})), T)


# many distinct values, so that the scalar table rarely answers from a hit
distinct = st.builds(
    lambda a, b, c, d, den: Scalar(Fraction(a, den), b, Fraction(c, den + 1), d),
    st.integers(-40, 40),
    st.integers(-3, 3),
    st.integers(-40, 40),
    st.integers(-2, 2),
    st.integers(1, 9),
).filter(bool)


@st.composite
def random_basis_change(draw):
    """A random sparse bracket table (rarely a Lie algebra), cocommutator and
    two-tensors over one dimension, with an invertible T.  Some brackets and
    cocommutator values repeat an earlier one negated or unchanged, so sums
    over the columns of T cancel to zero."""
    dim = draw(st.integers(1, 5))
    pairs = [(p, q) for p in range(dim) for q in range(p + 1, dim)]
    sign = st.sampled_from([1, -1])

    def coeffs():
        return draw(st.dictionaries(st.integers(0, dim - 1), distinct, min_size=1, max_size=3))

    def some_pairs(max_size):
        if not pairs:
            return []
        return draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_size))

    brackets: dict = {}
    for key in some_pairs(len(pairs)):
        if brackets and draw(st.booleans()):
            s, earlier = draw(sign), draw(st.sampled_from(list(brackets.values())))
            brackets[key] = {r: s * v for r, v in earlier.items()}
        else:
            brackets[key] = coeffs()
    alg = LieAlgebra.from_brackets([f"e{k}" for k in range(dim)], brackets)

    def skew():
        entries = {}
        for p, q in some_pairs(4):
            value = draw(distinct)
            entries[(p, q)], entries[(q, p)] = value, -value
        return TwoTensor(entries)

    values: dict = {}
    for x in range(dim):
        if values and draw(st.booleans()):
            values[x] = draw(st.sampled_from(list(values.values()))).scale(draw(sign))
        else:
            values[x] = skew()
    delta = Cocommutator(dim, values)
    index = st.integers(0, dim - 1)
    general = TwoTensor(draw(st.dictionaries(st.tuples(index, index), distinct, max_size=6)))
    return alg, delta, (skew(), general), draw(invertible(dim))


@settings(deadline=None, max_examples=60)
@given(random_basis_change())
def test_basis_changes_match_the_oracles_on_random_inputs(case):
    """Also on the inputs moved back through T^-1 by the oracles: moving
    those forward through T must cancel to zero in every bracket and
    cocommutator value that the random inputs lack."""
    alg, delta, tensors, T = case
    assert_matches_oracles(alg, delta, tensors, T)
    T_inv = T.inverse()
    back, back_delta = change_of_basis(alg, T_inv), oracle_express_in_basis(delta, T_inv)
    assert_matches_oracles(back, back_delta, tensors, T)
    assert back.change_of_basis(T).tensor == alg.tensor
    assert express_in_basis(back_delta, T) == delta


def test_change_of_basis_rejects_a_matrix_of_the_wrong_shape():
    alg = build_double(build_gln_triple(1)).algebra
    for T in (Matrix.identity(alg.dim + 1), Matrix.zeros(alg.dim, alg.dim + 1)):
        with pytest.raises(ValueError, match="change-of-basis matrix has wrong shape"):
            alg.change_of_basis(T)


def test_express_in_basis_rejects_a_matrix_of_the_wrong_shape():
    delta = cocommutator_from_triple(build_gln_triple(2))
    for T in (Matrix.identity(delta.dim - 1), Matrix.zeros(delta.dim + 1, delta.dim)):
        with pytest.raises(ValueError, match="change-of-basis matrix has wrong shape"):
            express_in_basis(delta, T)


def test_transport_through_too_few_columns_raises():
    tensor = TwoTensor.wedge(0, 3, Scalar(2))
    with pytest.raises(IndexError, match="index 3 out of range for 3 basis vectors"):
        tensor.transport(Matrix.identity(3))
    with pytest.raises(IndexError):
        TwoTensor({(0, -1): Scalar(1)}).transport(Matrix.identity(2))
    assert tensor.transport(Matrix.identity(4)) == tensor
