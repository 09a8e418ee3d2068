import random
from fractions import Fraction

import pytest

from liedouble import (
    HALF_SQRT2,
    MINUS_ONE,
    ONE,
    ZERO,
    BilinearForm,
    LieAlgebra,
    Matrix,
    Scalar,
    SingularMatrixError,
    StructureTensor,
    ThreeTensor,
    TwoTensor,
    Vector,
    abelian,
    build_gln_tn,
    build_s_plus,
    direct_sum,
    f_index,
    fundamental_representation,
    gln_tn_trace_form,
    h_index,
    i_index,
    structure_equal,
    trace_form,
)

K = HALF_SQRT2


def test_bracket_basis_values(pair3):
    plus, _ = pair3
    assert plus.bracket(Vector.basis(0), Vector.basis(2)) == Vector({2: K})
    assert plus.bracket(Vector.basis(2), Vector.basis(0)) == Vector({2: -K})
    assert plus.bracket(Vector.basis(0), Vector.basis(1)).is_zero()


def test_bracket_antisymmetry_on_random_vectors(pair3):
    plus, _ = pair3
    rng = random.Random(11)
    for _ in range(50):
        x = Vector({k: Scalar(rng.randint(-3, 3)) for k in range(3)})
        y = Vector({k: Scalar(rng.randint(-3, 3)) for k in range(3)})
        assert plus.bracket(x, x).is_zero()
        assert plus.bracket(x, y) == -plus.bracket(y, x)


def test_bracket_gln_block():
    alg = build_gln_tn(2)
    f12, f21 = f_index(2, 1, 2), f_index(2, 2, 1)
    h1, h2 = h_index(2, 1), h_index(2, 2)
    got = alg.bracket(Vector.basis(f12), Vector.basis(f21))
    assert got == Vector({h1: ONE, h2: MINUS_ONE})


def test_bracket_index_out_of_range(pair3):
    plus, _ = pair3
    with pytest.raises(IndexError):
        plus.bracket(Vector.basis(5), Vector.basis(0))


def test_check_jacobi_empty_cases(pair3):
    plus, minus = pair3
    assert plus.check_jacobi().ok
    assert minus.check_jacobi().ok
    assert abelian(4).check_jacobi().ok


def test_check_jacobi_detects_violation():
    # [Z1,Z2] = Z1 is inconsistent with the diagonal action on Z3
    bad = LieAlgebra.from_brackets(
        ("Z1", "Z2", "Z3"), {(0, 1): {0: ONE}, (0, 2): {2: K}, (1, 2): {2: -K}}
    )
    report = bad.check_jacobi()
    assert not report.ok
    assert report.violations[0].indices == (0, 1, 2)
    assert report.violations[0].residual == "1/2*sqrt2*Z3"


def test_injected_ladder_bracket_keeps_jacobi():
    # [Z1,Z2] = Z3 stays a Lie algebra: the two weight terms cancel in the
    # cyclic sum, so this familiar-looking perturbation is NOT a negative test.
    alg = LieAlgebra.from_brackets(
        ("Z1", "Z2", "Z3"), {(0, 1): {2: ONE}, (0, 2): {2: K}, (1, 2): {2: -K}}
    )
    assert alg.check_jacobi().ok


def adjoint_matrix(alg: LieAlgebra, p: int) -> Matrix:
    """Matrix of ad(e_p): column q holds [e_p, e_q]."""
    return Matrix.from_columns(alg.dim, [alg.bracket_basis(p, q) for q in range(alg.dim)])


def evaluate(form: BilinearForm, x: Vector, y: Vector) -> Scalar:
    """<x, y> under the form's Gram matrix."""
    total = ZERO
    for i, xv in x.items():
        for j, yv in y.items():
            total = total + xv * form.entry(i, j) * yv
    return total


def test_adjoint_matrix():
    assert adjoint_matrix(abelian(3), 0) == Matrix.zeros(3, 3)
    alg = build_gln_tn(2)
    ad = adjoint_matrix(alg, h_index(2, 1))
    f12, f21 = f_index(2, 1, 2), f_index(2, 2, 1)
    assert ad.entry(f12, f12) == ONE
    assert ad.entry(f21, f21) == MINUS_ONE
    nonzero = [(r, c) for r in range(6) for c in range(6) if ad.entry(r, c)]
    assert nonzero == [(f12, f12), (f21, f21)]


def test_adjoint_nilpotent_root(pair3):
    plus, _ = pair3
    ad = adjoint_matrix(plus, 2)
    assert ad * ad == Matrix.zeros(3, 3)


def test_killing_form_values():
    assert abelian(3).killing_form() == BilinearForm([[ZERO] * 3 for _ in range(3)])
    alg = build_gln_tn(2)
    killing = alg.killing_form()
    assert killing.entry(h_index(2, 1), h_index(2, 1)) == Scalar(2)
    assert killing.entry(f_index(2, 1, 2), f_index(2, 2, 1)) == Scalar(4)
    assert killing.entry(i_index(2, 1), i_index(2, 1)) == ZERO


def test_killing_form_matches_adjoint_traces():
    # independent route: materialize the adjoint matrices and trace products
    for alg in (build_gln_tn(2), build_s_plus(3)):
        killing = alg.killing_form()
        adjoints = [adjoint_matrix(alg, p) for p in range(alg.dim)]
        for p in range(alg.dim):
            for q in range(alg.dim):
                assert killing.entry(p, q) == (adjoints[p] * adjoints[q]).trace()


def test_killing_form_ad_invariant():
    for alg in (build_gln_tn(2), build_s_plus(3)):
        killing = alg.killing_form()
        for x in range(alg.dim):
            for y in range(alg.dim):
                for z in range(alg.dim):
                    lhs = evaluate(killing, alg.bracket_basis(x, y), Vector.basis(z))
                    rhs = evaluate(killing, Vector.basis(x), alg.bracket_basis(y, z))
                    assert lhs == rhs


def test_killing_vs_trace_form_on_gln():
    # killing = 2n*trace - 2*(tr x tr) on the gl block; zero on the center,
    # where the extended trace form is the identity instead
    for n in (2, 3):
        alg = build_gln_tn(n)
        killing = alg.killing_form()
        extended = gln_tn_trace_form(n)
        rep = fundamental_representation(n)
        rep_index = [h_index(n, i) for i in range(1, n + 1)]
        rep_index += [
            f_index(n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if j != i
        ]
        traces = {p: rep[k].trace() for k, p in enumerate(rep_index)}
        for p in range(alg.dim):
            for q in range(alg.dim):
                if p in traces and q in traces:
                    expected = Scalar(2 * n) * extended.entry(p, q) - Scalar(2) * traces[p] * traces[q]
                else:
                    expected = ZERO
                assert killing.entry(p, q) == expected
        for i in range(1, n + 1):
            assert extended.entry(i_index(n, i), i_index(n, i)) == ONE


def test_trace_form_fundamental():
    rep = fundamental_representation(2)
    gram = trace_form(rep)
    # layout: H1, H2, F12, F21
    assert gram.entry(0, 0) == ONE
    assert gram.entry(0, 1) == ZERO
    assert gram.entry(2, 3) == ONE
    assert gram.entry(2, 2) == ZERO
    zero_rep = [Matrix.zeros(2, 2) for _ in range(3)]
    assert trace_form(zero_rep) == BilinearForm([[ZERO] * 3 for _ in range(3)])
    with pytest.raises(ValueError):
        trace_form([Matrix.zeros(2, 2), Matrix.zeros(3, 3)])


def test_change_of_basis_identity(pair3):
    plus, _ = pair3
    assert plus.change_of_basis(Matrix.identity(3)).tensor == plus.tensor


def test_change_of_basis_rescaling(pair3):
    plus, _ = pair3
    lam = Scalar(3)
    T = Matrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, lam]])
    rescaled = plus.change_of_basis(T)
    # [Z1, lam*Z3] = lam*K*Z3 = K * (lam Z3): coefficient unchanged on the
    # rescaled output vector, so the (0,2) entry keeps K
    assert rescaled.bracket_basis(0, 2) == Vector({2: K})
    T2 = Matrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])
    assert plus.change_of_basis(T2).tensor == plus.tensor


def _random_invertible(rng, dim):
    # product of random elementary operations stays exactly invertible
    mat = Matrix.identity(dim)
    entries = [ONE, MINUS_ONE, Scalar(2), HALF_SQRT2]
    for _ in range(6):
        kind = rng.randrange(3)
        i, j = rng.sample(range(dim), 2)
        rows = [[mat.entry(r, c) for c in range(dim)] for r in range(dim)]
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            factor = rng.choice(entries)
            rows[i] = [factor * v for v in rows[i]]
        else:
            factor = rng.choice(entries)
            rows[i] = [v + factor * w for v, w in zip(rows[i], rows[j])]
        mat = Matrix(rows)
    return mat


def test_change_of_basis_composition(pair3):
    # applying T2 then T1 equals the single change with matrix T2*T1
    plus, _ = pair3
    rng = random.Random(99)
    for _ in range(10):
        T1 = _random_invertible(rng, 3)
        T2 = _random_invertible(rng, 3)
        assert structure_equal(
            plus.change_of_basis(T2).change_of_basis(T1),
            plus.change_of_basis(T2 * T1),
        )


def test_change_of_basis_singular(pair3):
    plus, _ = pair3
    with pytest.raises(SingularMatrixError):
        plus.change_of_basis(Matrix.zeros(3, 3))


def test_matrix_exact_inverse_and_determinant():
    T = Matrix([[ONE, K, ZERO], [ZERO, ONE, Scalar(0, 0, 1)], [K, ZERO, ONE]])
    assert T * T.inverse() == Matrix.identity(3)
    det = T.determinant()
    assert det == ONE + K * Scalar(0, 0, 1) * K
    singular = Matrix([[ONE, ONE], [ONE, ONE]])
    assert singular.determinant() == ZERO
    with pytest.raises(SingularMatrixError):
        singular.inverse()


def test_direct_sum():
    a = build_s_plus(2)
    b = abelian(2)
    total = direct_sum(a, b)
    assert total.dim == 5
    assert total.check_jacobi().ok
    assert total.bracket_basis(0, 2) == Vector({2: K})
    assert total.bracket_basis(0, 3).is_zero()
    assert total.bracket_basis(3, 4).is_zero()
    # summing with a zero-dimensional algebra is the identity
    zero = abelian(0)
    assert structure_equal(direct_sum(a, zero), a)
    both = direct_sum(abelian(2), abelian(3))
    assert both.dim == 5 and not list(both.tensor.stored())


def test_direct_sum_label_collision():
    a = abelian(2, labels=("T1", "T2"))
    b = abelian(2, labels=("T2", "T3"))
    total = direct_sum(a, b)
    assert total.labels == ("T1", "T2", "r_T2", "r_T3")


def test_abelian_labels_must_match_the_dimension():
    assert abelian(2, labels=("a", "b")).labels == ("a", "b")
    with pytest.raises(ValueError, match="^2 labels for an abelian algebra of dimension 3$"):
        abelian(3, labels=("a", "b"))
    with pytest.raises(ValueError, match="^1 labels for an abelian algebra of dimension 0$"):
        abelian(0, labels=["a"])


def test_direct_sum_preserves_jacobi():
    for left in (build_s_plus(2), build_s_plus(3)):
        for right in (build_s_plus(2), abelian(3)):
            assert direct_sum(left, right).check_jacobi().ok


def test_structure_equal(pair3):
    plus, minus = pair3
    assert structure_equal(plus, plus)
    assert not structure_equal(plus, minus)  # signs differ
    relabeled = LieAlgebra(("A", "B", "C"), plus.tensor)
    assert structure_equal(plus, relabeled)
    assert not structure_equal(plus, abelian(3))


def test_structure_tensor_normalization():
    t = StructureTensor({(2, 0): {1: ONE}})
    assert t.pair(0, 2) == {1: MINUS_ONE}
    with pytest.raises(ValueError):
        StructureTensor({(0, 0): {1: ONE}})
    with pytest.raises(ValueError):
        StructureTensor({(0, 1): {1: ONE}, (1, 0): {1: ONE}})
    # zero vectors are dropped entirely
    assert not list(StructureTensor({(0, 1): {2: ZERO}}).stored())


def test_labels_must_be_distinct():
    with pytest.raises(ValueError):
        LieAlgebra(("A", "A"), StructureTensor({}))
    with pytest.raises(ValueError):
        LieAlgebra(("A",), StructureTensor({(0, 1): {0: ONE}}))


@pytest.mark.parametrize(
    "brackets, index",
    [
        ({(0, -1): {0: 1}}, -1),  # a negative index in the pair
        ({(0, 1): {-1: 1}}, -1),  # a negative output index
        ({(0, 1): {2: 1}}, 2),
        ({(0, 5): {1: 1}}, 5),
    ],
)
def test_structure_indices_must_lie_in_the_basis(brackets, index):
    with pytest.raises(ValueError, match=rf"^structure tensor has index {index} outside range\(2\)$"):
        LieAlgebra.from_brackets(("a", "b"), brackets)


def test_vector_format(pair3):
    plus, _ = pair3
    vec = Vector({0: ONE, 2: Scalar(Fraction(-1, 2), Fraction(1, 2))})
    assert vec.format(plus.labels) == "Z1 + (-1/2 + 1/2*sqrt2)*Z3"
    assert Vector().format(plus.labels) == "0"
    mixed = Scalar(Fraction(-1, 2), Fraction(1, 2))
    vec = Vector({0: -1, 1: 1, 2: mixed})
    assert vec.format(("A", "B", "C")) == "-A + B + (-1/2 + 1/2*sqrt2)*C"


def test_two_tensor_format():
    mixed = Scalar(Fraction(-1, 2), Fraction(1, 2))
    tensor = TwoTensor({(0, 1): -1, (1, 0): 1, (2, 2): mixed, (0, 2): Fraction(3, 7)})
    assert tensor.format(("A", "B", "C")) == (
        "-A(x)B + 3/7*A(x)C + B(x)A + (-1/2 + 1/2*sqrt2)*C(x)C"
    )
    assert TwoTensor().format(("A", "B", "C")) == "0"


def test_three_tensor_format():
    mixed = Scalar(Fraction(-1, 2), Fraction(1, 2))
    tensor = ThreeTensor({(0, 1, 2): 1, (1, 0, 2): -1, (2, 2, 2): mixed})
    assert tensor.format(("A", "B", "C")) == (
        "1*A(x)B(x)C + -1*B(x)A(x)C + (-1/2 + 1/2*sqrt2)*C(x)C(x)C"
    )
    assert ThreeTensor().format(("A", "B", "C")) == "0"
