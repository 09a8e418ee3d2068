import re
from fractions import Fraction

import pytest

from liedouble import (
    HALF_SQRT2,
    ONE,
    QUASITRIANGULAR,
    TRIANGULAR,
    Cocommutator,
    LieAlgebra,
    ManinTriple,
    Matrix,
    Scalar,
    TwoTensor,
    abelian,
    build_double,
    build_gln_tn,
    build_gln_triple,
    build_rmatrix,
    check_cocycle,
    check_cojacobi,
    coboundary,
    cocommutator_from_triple,
    delta_in_gln_basis,
    double_in_gln_basis,
    dual_algebra,
    express_in_basis,
    f_index,
    gln_change_of_basis,
    gln_dim,
    h_index,
    i_index,
    identify_central,
    schouten_bracket,
    schouten_check,
    split_twist,
)

K = HALF_SQRT2
HALF = Scalar(Fraction(1, 2))
I_HALF = Scalar(0, 0, Fraction(1, 2))


def closed_form_delta(n: int) -> Cocommutator:
    """Independent oracle: the displayed cocommutator on the H/I/F basis.

    delta(H_i) = delta(I_i) = 0 and, writing s = +1 for i < j and -1 for
    i > j,

        delta(F_ij) = -s/2 F_ij ^ (H_i - H_j) - i/2 F_ij ^ (I_i - I_j)
                      + s * sum_k F_ik ^ F_kj

    with k strictly between i and j.
    """
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            fij = f_index(n, i, j)
            sign = ONE if i < j else -ONE
            value = TwoTensor.wedge(fij, h_index(n, i), -(sign * HALF))
            value = value + TwoTensor.wedge(fij, h_index(n, j), sign * HALF)
            value = value + TwoTensor.wedge(fij, i_index(n, i), -I_HALF)
            value = value + TwoTensor.wedge(fij, i_index(n, j), I_HALF)
            low, high = min(i, j), max(i, j)
            for k in range(low + 1, high):
                value = value + TwoTensor.wedge(
                    f_index(n, i, k), f_index(n, k, j), sign
                )
            entries[fij] = value
    return Cocommutator(gln_dim(n), entries)


def test_cocommutator_on_paired_basis(triple3):
    delta = cocommutator_from_triple(triple3)
    # eta(Z3) = K*Z3^(Z1 - Z2) and delta_double = -eta on the plus block
    expected = TwoTensor.wedge(2, 0, -K) + TwoTensor.wedge(2, 1, K)
    assert delta.get(2) == expected
    assert -delta.get(2) == TwoTensor.wedge(2, 0, K) + TwoTensor.wedge(2, 1, -K)
    assert delta.get(0).is_zero() and delta.get(1).is_zero()
    # delta(z3) = -K*z3^(z1 - z2) on the minus block
    assert delta.get(5) == TwoTensor.wedge(5, 3, -K) + TwoTensor.wedge(5, 4, K)
    assert delta.get(3).is_zero() and delta.get(4).is_zero()


def test_cocommutator_blocks_match_tensors(triple3):
    # plus block carries -eta read from c, minus block carries delta read
    # from f, reconstructed here directly from the stored tensors
    delta = cocommutator_from_triple(triple3)
    m = triple3.dim
    eta = {p: {} for p in range(m)}
    for (q, r), coeffs in triple3.minus.tensor.stored():
        for p, value in coeffs.items():
            eta[p][(q, r)] = eta[p].get((q, r), Scalar(0)) + value
            eta[p][(r, q)] = eta[p].get((r, q), Scalar(0)) - value
    for p in range(m):
        assert delta.get(p) == TwoTensor({k: -v for k, v in eta[p].items()})
    dual = {p: {} for p in range(m)}
    for (q, r), coeffs in triple3.plus.tensor.stored():
        for p, value in coeffs.items():
            dual[p][(m + q, m + r)] = dual[p].get((m + q, m + r), Scalar(0)) + value
            dual[p][(m + r, m + q)] = dual[p].get((m + r, m + q), Scalar(0)) - value
    for p in range(m):
        assert delta.get(m + p) == TwoTensor(dual[p])


def test_express_in_basis_gl2():
    n = 2
    delta = delta_in_gln_basis(n)
    oracle = closed_form_delta(n)
    for p in range(gln_dim(n)):
        assert delta.get(p) == oracle.get(p), p


def test_express_in_basis_closed_form_matches():
    for n in (2, 3, 4):
        delta = delta_in_gln_basis(n)
        oracle = closed_form_delta(n)
        for p in range(gln_dim(n)):
            assert delta.get(p) == oracle.get(p), (n, p)


def test_gl3_ladder_term():
    delta = delta_in_gln_basis(3)
    value = delta.get(f_index(3, 1, 3))
    assert value.get(f_index(3, 1, 2), f_index(3, 2, 3)) == ONE
    assert value.get(f_index(3, 2, 3), f_index(3, 1, 2)) == -ONE


def test_check_cojacobi(triple3, double3):
    delta = cocommutator_from_triple(triple3)
    assert check_cojacobi(delta).ok
    assert check_cojacobi(Cocommutator(6, {})).ok
    # doubling one wedge coefficient rescales a diagonal weight: the dual
    # stays a Lie algebra, so this is NOT a co-Jacobi counterexample
    entries = {p: value for p, value in delta.items()}
    doubled = dict(entries[2].items())
    doubled[(2, 0)] = doubled[(2, 0)] * Scalar(2)
    doubled[(0, 2)] = doubled[(0, 2)] * Scalar(2)
    entries[2] = TwoTensor(doubled)
    assert check_cojacobi(Cocommutator(6, entries)).ok
    # a genuine break: delta(Z1) = Z1 ^ Z3 makes the dual bracket non-closing
    entries = {p: value for p, value in delta.items()}
    entries[0] = TwoTensor.wedge(0, 2, ONE)
    report = check_cojacobi(Cocommutator(6, entries))
    assert not report.ok
    assert report.violations[0].indices == (0, 1, 2)


def test_check_cocycle(triple3, double3):
    delta = cocommutator_from_triple(triple3)
    assert check_cocycle(double3.algebra, delta).ok
    assert check_cocycle(double3.algebra, Cocommutator(6, {})).ok


def test_check_cocycle_detects_dropped_generator():
    n = 2
    algebra = double_in_gln_basis(n)
    delta = delta_in_gln_basis(n)
    f12, f21 = f_index(n, 1, 2), f_index(n, 2, 1)
    entries = {p: value for p, value in delta.items() if p != f12}
    report = check_cocycle(algebra, Cocommutator(algebra.dim, entries))
    assert not report.ok
    assert report.violations[0].indices == (f12, f21)


def test_stripping_twist_terms_is_still_a_cocycle():
    # removing every I-term from delta leaves exactly the coboundary of the
    # F-block r-matrix, which is automatically a cocycle (and co-Jacobi):
    # the twist and standard parts are each honest bialgebra data on their own
    n = 2
    algebra = double_in_gln_basis(n)
    delta = delta_in_gln_basis(n)
    i_block = {i_index(n, 1), i_index(n, 2)}
    entries = {}
    for p, value in delta.items():
        kept = {
            (a, b): v for (a, b), v in value.items() if not ({a, b} & i_block)
        }
        if kept:
            entries[p] = TwoTensor(kept)
    stripped = Cocommutator(algebra.dim, entries)
    assert check_cocycle(algebra, stripped).ok
    assert check_cojacobi(stripped).ok
    # what identifies the full delta uniquely is the coboundary identity
    _, r_skew = build_rmatrix(build_gln_triple(n))
    T = gln_change_of_basis(n)
    full = coboundary(algebra, r_skew.transport(T.inverse()))
    assert full != stripped


def test_cocommutator_requires_antisymmetry():
    with pytest.raises(ValueError):
        Cocommutator(3, {0: TwoTensor({(1, 2): ONE})})


@pytest.mark.parametrize(
    "terms, antisymmetric",
    [
        ({(0, 1): ONE, (1, 0): -ONE, (2, 0): HALF, (0, 2): -HALF}, True),
        ({}, True),
        ({(1, 0): -ONE}, False),  # only the p > q orientation
        ({(0, 1): ONE}, False),  # only the p < q orientation
        ({(0, 1): ONE, (1, 0): ONE}, False),  # same sign
        ({(0, 1): ONE, (1, 0): -ONE, (2, 2): ONE}, False),  # a diagonal term
        ({(0, 1): Scalar(1, -2, 3, -4), (1, 0): Scalar(-1, 2, -3, 4)}, True),
        ({(0, 1): Scalar(1, 2), (1, 0): Scalar(-1, 2)}, False),  # one component not negated
        ({(0, 1): HALF, (1, 0): Scalar(Fraction(-1, 3))}, False),  # denominators differ
    ],
)
def test_is_antisymmetric_on_each_kind_of_break(terms, antisymmetric):
    tensor = TwoTensor(terms)
    assert tensor.is_antisymmetric() is antisymmetric


def test_wedge_of_an_index_with_itself_is_zero():
    # e_p ^ e_p = e_p (x) e_p - e_p (x) e_p; both terms used to land on one key as -coeff
    for coeff in (ONE, K, Scalar(0, 0, 1)):
        assert TwoTensor.wedge(2, 2, coeff).is_zero()
        assert TwoTensor.wedge(0, 2, coeff) + TwoTensor.wedge(2, 2, coeff) == TwoTensor.wedge(0, 2, coeff)
    assert TwoTensor.wedge(2, 0, K) == -TwoTensor.wedge(0, 2, K)


def test_cocommutator_of_an_unchecked_triple_needs_equal_halves():
    # the minus block's indices would otherwise run into the plus block's
    plus = abelian(2)
    minus = LieAlgebra.from_brackets(("a", "b", "c"), {(0, 1): {2: ONE}})
    with pytest.raises(ValueError, match="must share a dimension, got 2 and 3"):
        cocommutator_from_triple(ManinTriple.unchecked(plus, minus))


def test_cocommutator_rejects_indices_outside_its_dimension():
    # both used to be accepted, and check_cocycle reported them ok
    with pytest.raises(ValueError, match="cocommutator index 5 outside range"):
        check_cocycle(abelian(2), Cocommutator(2, {5: TwoTensor.wedge(0, 1)}))
    with pytest.raises(ValueError, match="value at index 0 has index 7 outside range"):
        Cocommutator(2, {0: TwoTensor.wedge(0, 7)})
    with pytest.raises(ValueError, match="index -1 outside range"):
        Cocommutator(2, {-1: TwoTensor.wedge(0, 1)})


def test_two_tensor_methods_reject_a_key_that_is_not_an_index_pair():
    # (0, 1, 2) used to fail with "too many values to unpack (expected 2)",
    # and 5 with "cannot unpack non-iterable int object"
    for key in ((0, 1, 2), 5):
        message = f"two-tensor has key {re.escape(repr(key))}, not an index pair"
        tensor = TwoTensor({key: 1})
        with pytest.raises(ValueError, match=message):
            tensor.transport(Matrix.identity(3))
        with pytest.raises(ValueError, match=message):
            tensor.is_antisymmetric()


def test_cocommutator_rejects_a_value_key_that_is_not_an_index_pair():
    # (0, 1, 2) used to fail with "too many values to unpack (expected 2)"
    for key in ((0, 1, 2), (0,), 5):
        message = f"cocommutator value at index 1 has key {re.escape(repr(key))}, not an index pair"
        with pytest.raises(ValueError, match=message):
            Cocommutator(3, {0: TwoTensor.wedge(0, 1), 1: {key: 1}})
    with pytest.raises(ValueError, match="value at index 2 has key"):
        Cocommutator(3, {2: TwoTensor({(0, 1, 2): ONE})})


def test_transport_rejects_a_matrix_that_is_not_square():
    # both used to return a tensor; a change of basis is square
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        for tensor in (TwoTensor.wedge(0, 1), TwoTensor({(0, 1): ONE})):
            with pytest.raises(ValueError, match="change-of-basis matrix has wrong shape"):
                tensor.transport(Matrix(rows))
    assert TwoTensor.wedge(0, 1).transport(Matrix.identity(2)) == TwoTensor.wedge(0, 1)


def test_coboundary_and_schouten_reject_indices_outside_the_algebra():
    algebra = build_gln_tn(2)
    r = TwoTensor.wedge(0, 99)
    for call in (coboundary, schouten_bracket, schouten_check):
        with pytest.raises(ValueError, match="two-tensor has index 99 outside range"):
            call(algebra, r)
    # the last index is still accepted
    assert coboundary(algebra, TwoTensor.wedge(0, algebra.dim - 1)).dim == algebra.dim


def test_dual_algebra_needs_one_label_per_dimension():
    delta = Cocommutator(2, {0: TwoTensor.wedge(0, 1)})
    assert dual_algebra(delta, ["a", "b"]).dim == 2
    for labels in (["a", "b", "c"], ["a"]):
        with pytest.raises(ValueError, match=f"{len(labels)} labels for a cocommutator"):
            dual_algebra(delta, labels)
        with pytest.raises(ValueError, match="of dimension 2"):
            check_cojacobi(delta, labels)


def test_build_rmatrix(triple3):
    r, r_skew = build_rmatrix(triple3)
    assert r == TwoTensor({(3, 0): ONE, (4, 1): ONE, (5, 2): ONE})
    expected = TwoTensor(
        {(3, 0): HALF, (0, 3): -HALF, (4, 1): HALF, (1, 4): -HALF, (5, 2): HALF, (2, 5): -HALF}
    )
    assert r_skew == expected
    assert r_skew.is_antisymmetric()


def test_rmatrix_transported_coefficients():
    n = 2
    _, r_skew = build_rmatrix(build_gln_triple(n))
    moved = r_skew.transport(gln_change_of_basis(n).inverse())
    f12, f21 = f_index(n, 1, 2), f_index(n, 2, 1)
    assert moved.get(f21, f12) == HALF
    assert moved.get(f12, f21) == -HALF
    # the Cartan block coefficient comes out as i/2 exactly
    for i in (1, 2):
        assert moved.get(h_index(n, i), i_index(n, i)) == I_HALF


def test_coboundary_matches_cocommutator(triple3, double3):
    delta = cocommutator_from_triple(triple3)
    _, r_skew = build_rmatrix(triple3)
    assert coboundary(double3.algebra, r_skew) == delta
    # Cartan directions act trivially on the skew r-matrix
    computed = coboundary(double3.algebra, r_skew)
    assert computed.get(0) == delta.get(0)


def test_coboundary_on_abelian_is_zero():
    algebra = abelian(4)
    r_skew = TwoTensor.wedge(0, 1, K) + TwoTensor.wedge(2, 3, ONE)
    assert coboundary(algebra, r_skew) == Cocommutator(4, {})


def test_coboundary_in_gln_basis():
    for n in (2, 3):
        triple = build_gln_triple(n)
        algebra = double_in_gln_basis(n, triple)
        _, r_skew = build_rmatrix(triple)
        moved = r_skew.transport(gln_change_of_basis(n).inverse())
        assert coboundary(algebra, moved) == delta_in_gln_basis(n, triple)


def test_schouten_canonical_element_solves_cybe(triple3, double3):
    r, r_skew = build_rmatrix(triple3)
    assert schouten_bracket(double3.algebra, r).is_zero()
    # while the skew half does not: its Schouten bracket is the invariant
    # obstruction
    assert not schouten_bracket(double3.algebra, r_skew).is_zero()


def test_schouten_check_verdicts(triple3, double3):
    _, r_skew = build_rmatrix(triple3)
    report = schouten_check(double3.algebra, r_skew)
    assert report.verdict == QUASITRIANGULAR
    assert report.ok and not report.violations
    assert "skew part" in report.assumption
    zero = schouten_check(double3.algebra, TwoTensor())
    assert zero.verdict == TRIANGULAR
    abelian_case = schouten_check(abelian(6), r_skew)
    assert abelian_case.verdict == TRIANGULAR


def test_schouten_gl3_quasitriangular():
    triple = build_gln_triple(3)
    _, r_skew = build_rmatrix(triple)
    report = schouten_check(build_double(triple).algebra, r_skew)
    assert report.verdict == QUASITRIANGULAR


def test_symmetric_part_is_invariant(triple3, double3):
    r, r_skew = build_rmatrix(triple3)
    alg = double3.algebra
    assert coboundary(alg, r - r_skew) == Cocommutator(alg.dim)


def test_split_twist():
    for n in (2, 3):
        _, r_skew = build_rmatrix(build_gln_triple(n))
        moved = r_skew.transport(gln_change_of_basis(n).inverse())
        r_standard, r_twist = split_twist(n, moved)
        assert (r_standard + r_twist) == moved
        expected_standard = TwoTensor()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                expected_standard = expected_standard + TwoTensor.wedge(
                    f_index(n, j, i), f_index(n, i, j), HALF
                )
        assert r_standard == expected_standard
        expected_twist = TwoTensor()
        for i in range(1, n + 1):
            expected_twist = expected_twist + TwoTensor.wedge(
                h_index(n, i), i_index(n, i), I_HALF
            )
        assert r_twist == expected_twist


def test_split_twist_rejects_foreign_terms():
    with pytest.raises(ValueError):
        split_twist(2, TwoTensor.wedge(h_index(2, 1), h_index(2, 2), ONE))
    with pytest.raises(ValueError):
        split_twist(2, TwoTensor.wedge(h_index(2, 1), f_index(2, 1, 2), ONE))


def test_twist_coboundary_and_quotient():
    for n in (2, 3):
        triple = build_gln_triple(n)
        algebra = double_in_gln_basis(n, triple)
        _, r_skew = build_rmatrix(triple)
        moved = r_skew.transport(gln_change_of_basis(n).inverse())
        r_standard, r_twist = split_twist(n, moved)
        twist_delta = coboundary(algebra, r_twist)
        oracle = closed_form_delta(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                fij = f_index(n, i, j)
                expected = TwoTensor.wedge(fij, i_index(n, i), -I_HALF) + TwoTensor.wedge(
                    fij, i_index(n, j), I_HALF
                )
                assert twist_delta.get(fij) == expected
                assert identify_central(n, twist_delta.get(fij)).is_zero()
        # the standard part reproduces the non-I terms of the closed form
        standard_delta = coboundary(algebra, r_standard)
        i_block = set(range(n, 2 * n))
        for p in range(algebra.dim):
            non_i = TwoTensor(
                {
                    (a, b): v
                    for (a, b), v in oracle.get(p).items()
                    if not ({a, b} & i_block)
                }
            )
            assert standard_delta.get(p) == non_i, (n, p)


def test_identify_central_preserves_non_central_terms():
    tensor = TwoTensor.wedge(f_index(2, 1, 2), h_index(2, 1), ONE)
    assert identify_central(2, tensor) == tensor


def test_transported_delta_keeps_bialgebra_axioms():
    # the cocycle and co-Jacobi conditions are basis-independent: they must
    # survive transport to the H/I/F coordinates
    for n in (2, 3):
        triple = build_gln_triple(n)
        algebra = double_in_gln_basis(n, triple)
        delta = delta_in_gln_basis(n, triple)
        assert check_cocycle(algebra, delta).ok
        assert check_cojacobi(delta).ok
