import inspect

import pytest

from liedouble import (
    HALF_SQRT2,
    MINUS_ONE,
    ONE,
    ZERO,
    BilinearForm,
    Cocommutator,
    CompatibilityError,
    LieAlgebra,
    ManinTriple,
    Matrix,
    Scalar,
    StructureTensor,
    TwoTensor,
    Vector,
    build_double,
    build_gln_tn,
    build_gln_triple,
    build_rmatrix,
    build_s_minus,
    build_s_plus,
    cartan_index,
    check_chain_embedding,
    check_compatibility,
    f_index,
    fundamental_representation,
    gln_change_of_basis,
    gln_dim,
    gln_labels,
    gln_tn_trace_form,
    h_index,
    i_index,
    representation_index,
    rmatrix_in_gln_basis,
    root_index,
    solvable_dim,
    solvable_labels,
    split_twist,
    structure_equal,
)
import liedouble.glnfactory as glnfactory
from liedouble.glnfactory import verify_double_is_gln

K = HALF_SQRT2


def test_index_layouts_are_bijections():
    for n in (1, 2, 3, 5):
        solvable = [cartan_index(n, i) for i in range(1, n + 1)]
        solvable += [
            root_index(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        assert sorted(solvable) == list(range(solvable_dim(n)))
        assert len(solvable_labels(n)) == solvable_dim(n)
        gln = [h_index(n, i) for i in range(1, n + 1)]
        gln += [i_index(n, i) for i in range(1, n + 1)]
        gln += [
            f_index(n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        ]
        assert sorted(gln) == list(range(gln_dim(n)))
        assert len(gln_labels(n)) == gln_dim(n)
    with pytest.raises(ValueError):
        root_index(3, 2, 2)
    with pytest.raises(ValueError):
        f_index(3, 1, 1)


def test_s_plus_n2_matches_worked_pair(pair3):
    plus, minus = pair3
    assert structure_equal(build_s_plus(2), plus)
    assert structure_equal(build_s_minus(2), minus)


def test_s_plus_brackets_n2():
    plus = build_s_plus(2)
    y12 = root_index(2, 1, 2)
    assert plus.bracket_basis(cartan_index(2, 1), y12) == Vector({y12: K})
    assert plus.bracket_basis(cartan_index(2, 2), y12) == Vector({y12: -K})
    assert plus.bracket_basis(cartan_index(2, 1), cartan_index(2, 2)).is_zero()


def test_s_minus_brackets_n2():
    minus = build_s_minus(2)
    y12 = root_index(2, 1, 2)
    assert minus.bracket_basis(cartan_index(2, 1), y12) == Vector({y12: -K})


def test_root_brackets_n3():
    plus = build_s_plus(3)
    minus = build_s_minus(3)
    i12, i13, i23 = root_index(3, 1, 2), root_index(3, 1, 3), root_index(3, 2, 3)
    assert plus.bracket_basis(i12, i23) == Vector({i13: ONE})
    assert minus.bracket_basis(i12, i23) == Vector({i13: MINUS_ONE})
    assert plus.bracket_basis(i12, i13).is_zero()


def test_n1_is_abelian():
    for builder in (build_s_plus, build_s_minus):
        algebra = builder(1)
        assert algebra.dim == 1
        assert not list(algebra.tensor.stored())
    with pytest.raises(ValueError):
        build_s_plus(0)


def test_solvable_jacobi():
    for n in range(1, 6):
        assert build_s_plus(n).check_jacobi().ok
        assert build_s_minus(n).check_jacobi().ok


def test_self_duality_via_global_negation():
    # negating every generator maps s_minus onto s_plus exactly; the plain
    # index-aligned identification is an anti-isomorphism (all signs flip)
    for n in (2, 3, 4):
        plus, minus = build_s_plus(n), build_s_minus(n)
        m = plus.dim
        negation = Matrix(
            [[MINUS_ONE if i == j else ZERO for j in range(m)] for i in range(m)]
        )
        assert structure_equal(minus.change_of_basis(negation), plus)
        plus_entries = dict(plus.tensor.stored())
        minus_entries = dict(minus.tensor.stored())
        assert set(plus_entries) == set(minus_entries)
        for key, coeffs in plus_entries.items():
            assert dict(minus_entries[key]) == {r: -v for r, v in coeffs.items()}


def test_triple_constructs_for_small_sizes():
    for n in (1, 2, 3, 4):
        triple = build_gln_triple(n)
        assert triple.dim == solvable_dim(n)


def test_crossed_brackets_in_gln_double():
    # derived from the generic crossed rule; the diagonal y-Y bracket carries
    # the same 1/sqrt2 as the rank-one case
    n = 3
    double = build_double(build_gln_triple(n))
    algebra = double.algebra
    m = double.half_dim
    y13 = m + root_index(n, 1, 3)
    Y13 = root_index(n, 1, 3)
    x1, x3 = cartan_index(n, 1), cartan_index(n, 3)
    got = algebra.bracket(Vector.basis(y13), Vector.basis(Y13))
    assert got == Vector({x1: -K, m + x1: -K, x3: K, m + x3: K})
    # off-diagonal crossed brackets keep unit coefficients; note the output
    # block: [y12, Y13] lands in the plus half, [y13, Y23] in the minus half
    y12 = m + root_index(n, 1, 2)
    assert algebra.bracket(Vector.basis(y12), Vector.basis(Y13)) == Vector(
        {root_index(n, 2, 3): ONE}
    )
    y13_vec = Vector.basis(y13)
    Y23 = root_index(n, 2, 3)
    assert algebra.bracket(y13_vec, Vector.basis(Y23)) == Vector(
        {m + root_index(n, 1, 2): -ONE}
    )
    # crossed Cartan brackets vanish
    assert algebra.bracket(Vector.basis(m + x1), Vector.basis(x3)).is_zero()


def test_gln_change_of_basis_matches_rank_two_map():
    T = gln_change_of_basis(2)
    m = solvable_dim(2)
    # H_1 column
    assert T.column(h_index(2, 1)) == Vector({cartan_index(2, 1): K, m + cartan_index(2, 1): K})
    # I_1 column: -i/sqrt2 on X_1, +i/sqrt2 on x^1
    from fractions import Fraction

    minus_i_k = Scalar(0, 0, 0, Fraction(-1, 2))
    plus_i_k = Scalar(0, 0, 0, Fraction(1, 2))
    assert T.column(i_index(2, 1)) == Vector(
        {cartan_index(2, 1): minus_i_k, m + cartan_index(2, 1): plus_i_k}
    )
    # F_12 = Y_12, F_21 = y^12
    assert T.column(f_index(2, 1, 2)) == Vector({root_index(2, 1, 2): ONE})
    assert T.column(f_index(2, 2, 1)) == Vector({m + root_index(2, 1, 2): ONE})


# The arguments after n of each public glnfactory function whose first parameter is a size.
SIZE_N_ARGUMENTS = {
    "solvable_dim": (),
    "cartan_index": (1,),
    "root_index": (1, 2),
    "solvable_labels": (),
    "gln_dim": (),
    "h_index": (1,),
    "i_index": (1,),
    "f_index": (1, 2),
    "gln_labels": (),
    "build_s_plus": (),
    "build_s_minus": (),
    "build_gln_triple": (),
    "gln_change_of_basis": (),
    "fundamental_representation": (),
    "representation_index": (),
    "build_gln_tn": (),
    "gln_tn_trace_form": (),
    "double_in_gln_basis": (),
    "delta_in_gln_basis": (),
    "split_twist": (TwoTensor(),),
    "identify_central": (TwoTensor(),),
    "rmatrix_in_gln_basis": (TwoTensor(),),
    "verify_double_is_gln": (),
    "check_chain_embedding": (),
    "self_duality": (),
}


def test_every_public_size_n_function_is_listed():
    sized = {
        name
        for name in glnfactory.__all__
        if next(iter(inspect.signature(getattr(glnfactory, name)).parameters)) in ("n", "m")
    }
    assert sized == set(SIZE_N_ARGUMENTS)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(SIZE_N_ARGUMENTS))
def test_size_n_functions_reject_n_below_one(name, n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        getattr(glnfactory, name)(n, *SIZE_N_ARGUMENTS[name])


def test_gln_change_of_basis_inverse_relations():
    for n in (2, 3):
        T = gln_change_of_basis(n)
        dim = gln_dim(n)
        assert T * T.inverse() == Matrix.identity(dim)
        assert T.determinant() != ZERO
        inverse = T.inverse()
        from fractions import Fraction

        i_k = Scalar(0, 0, 0, Fraction(1, 2))
        for i in range(1, n + 1):
            # X_i = (H_i + i I_i)/sqrt2 and x^i = (H_i - i I_i)/sqrt2
            assert inverse.column(cartan_index(n, i)) == Vector(
                {h_index(n, i): K, i_index(n, i): i_k}
            )
            assert inverse.column(solvable_dim(n) + cartan_index(n, i)) == Vector(
                {h_index(n, i): K, i_index(n, i): -i_k}
            )


def closed_form_gln_tn(n: int) -> LieAlgebra:
    """Independent oracle: the displayed bracket rules for gl(n) + t_n."""
    brackets = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k:
                    continue
                weight = (1 if i == j else 0) - (1 if i == k else 0)
                if weight:
                    brackets[(h_index(n, i), f_index(n, j, k))] = {
                        f_index(n, j, k): Scalar(weight)
                    }
    pairs = [
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a + 1 :]:
            acc = {}

            def add(index, value):
                acc[index] = acc.get(index, ZERO) + value

            if j == k and i != l:
                add(f_index(n, i, l), ONE)
            if i == l and k != j:
                add(f_index(n, k, j), MINUS_ONE)
            if j == k and i == l:
                add(h_index(n, i), ONE)
                add(h_index(n, j), MINUS_ONE)
            acc = {key: value for key, value in acc.items() if value}
            if acc:
                brackets[(f_index(n, i, j), f_index(n, k, l))] = acc
    return LieAlgebra(gln_labels(n), dict_to_tensor(brackets))


def dict_to_tensor(brackets):
    from liedouble import StructureTensor

    return StructureTensor(brackets)


def test_build_gln_tn_matches_closed_form():
    for n in (1, 2, 3, 4):
        assert structure_equal(build_gln_tn(n), closed_form_gln_tn(n)), n


def commutator_gln_tn(n: int) -> LieAlgebra:
    """Generic-path oracle: A*B - B*A over the fundamental representation,
    read back entry by entry through representation_index."""
    rep = fundamental_representation(n)
    index = representation_index(n)
    entry_index = {
        (r, s): index[k]
        for k, mat in enumerate(rep)
        for r in range(n)
        for s in range(n)
        if mat.entry(r, s)
    }
    brackets = {}
    for a in range(len(rep)):
        for b in range(a + 1, len(rep)):
            left, right = rep[a] * rep[b], rep[b] * rep[a]
            brackets[(index[a], index[b])] = {
                entry_index[(r, s)]: left.entry(r, s) - right.entry(r, s)
                for r in range(n)
                for s in range(n)
                if left.entry(r, s) != right.entry(r, s)
            }
    return LieAlgebra(gln_labels(n), dict_to_tensor(brackets))


def test_build_gln_tn_matches_matrix_commutators():
    for n in (1, 2, 3, 4, 5):
        assert structure_equal(build_gln_tn(n), commutator_gln_tn(n)), n


def commutator_half(n: int, kappa: Scalar, lower: bool) -> LieAlgebra:
    """Generic-path oracle for a Borel half: A*B - B*A over kappa*E_ii and
    E_ij (i < j), read back entry by entry, every bracket negated when lower."""
    units = {cartan_index(n, i): (i, i, kappa) for i in range(1, n + 1)}
    units.update(
        {root_index(n, i, j): (i, j, ONE) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    )
    basis = {
        p: Matrix([[v if (r, s) == (i, j) else ZERO for s in range(1, n + 1)]
                   for r in range(1, n + 1)])
        for p, (i, j, v) in units.items()
    }
    sign = MINUS_ONE if lower else ONE
    read_back = {(i - 1, j - 1): (p, sign * v.inverse()) for p, (i, j, v) in units.items()}
    brackets = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            left, right = basis[a] * basis[b], basis[b] * basis[a]
            terms = brackets[(a, b)] = {}
            for r in range(n):
                for s in range(n):
                    if left.entry(r, s) != right.entry(r, s):
                        p, factor = read_back[(r, s)]
                        terms[p] = factor * (left.entry(r, s) - right.entry(r, s))
    return LieAlgebra(solvable_labels(n, lower), dict_to_tensor(brackets))


@pytest.mark.parametrize("kappa", [HALF_SQRT2, Scalar(2, 1)])
def test_borel_halves_match_matrix_commutators(kappa):
    for n in range(1, 7):
        assert structure_equal(build_s_plus(n, kappa), commutator_half(n, kappa, False)), n
        assert structure_equal(build_s_minus(n, kappa), commutator_half(n, kappa, True)), n


def test_build_gln_tn_rank_two_table():
    algebra = build_gln_tn(2)
    h1, h2 = h_index(2, 1), h_index(2, 2)
    i1, i2 = i_index(2, 1), i_index(2, 2)
    f12, f21 = f_index(2, 1, 2), f_index(2, 2, 1)
    assert algebra.bracket_basis(h1, f12) == Vector({f12: ONE})
    assert algebra.bracket_basis(h1, f21) == Vector({f21: MINUS_ONE})
    assert algebra.bracket_basis(h2, f12) == Vector({f12: MINUS_ONE})
    assert algebra.bracket_basis(h2, f21) == Vector({f21: ONE})
    assert algebra.bracket_basis(f12, f21) == Vector({h1: ONE, h2: MINUS_ONE})
    assert algebra.bracket_basis(h1, h2).is_zero()
    for central in (i1, i2):
        for other in range(6):
            if other != central:
                assert algebra.bracket_basis(central, other).is_zero()


def test_gln_tn_central_generators_commute():
    for n in (2, 3):
        algebra = build_gln_tn(n)
        for i in range(1, n + 1):
            central = i_index(n, i)
            for other in range(algebra.dim):
                if other != central:
                    assert algebra.bracket_basis(central, other).is_zero()


def test_f_bracket_without_cartan_term():
    algebra = build_gln_tn(3)
    got = algebra.bracket_basis(f_index(3, 1, 2), f_index(3, 2, 3))
    assert got == Vector({f_index(3, 1, 3): ONE})


def test_verify_double_is_gln():
    for n in (2, 3, 4, 5):
        report = verify_double_is_gln(n)
        assert report.ok, report.violations


def test_verify_double_reports_discrepancy():
    # perturb one structure constant through the unchecked path
    n = 2
    plus = build_s_plus(n)
    entries = {key: dict(vec) for key, vec in plus.tensor.stored()}
    key = (cartan_index(n, 1), root_index(n, 1, 2))
    entries[key] = {root_index(n, 1, 2): ONE}  # drop the 1/sqrt2
    doctored_plus = LieAlgebra.from_brackets(plus.labels, entries)
    triple = ManinTriple.unchecked(doctored_plus, build_s_minus(n))
    rebased = build_double(triple).algebra.change_of_basis(
        gln_change_of_basis(n), labels=gln_labels(n)
    )
    assert not structure_equal(rebased, build_gln_tn(n))


def test_dimensions():
    for n in (1, 2, 3, 4, 5):
        assert build_s_plus(n).dim == solvable_dim(n) == n * (n + 1) // 2
        double = build_double(build_gln_triple(n))
        assert double.algebra.dim == gln_dim(n) == n * n + n


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_term_blocks_from_index_ranges_match_the_label_letters(n):
    # below n an H, below 2n an I, the rest an F: the letters gln_labels writes
    labels = gln_labels(n)
    dim = len(labels)
    tensor = TwoTensor({(p, q): ONE for p in range(dim) for q in range(dim)})
    blocks = {key: kind for key, _, kind in glnfactory._term_blocks(n, tensor)}
    assert blocks == {(p, q): labels[p][0] + labels[q][0] for p in range(dim) for q in range(dim)}
    for bad in (-1, dim):
        for func in (split_twist, glnfactory.identify_central):
            with pytest.raises(ValueError, match=rf"^index {bad} outside the gl\({n}\)\+t_{n} basis$"):
                func(n, TwoTensor({(0, bad): ONE}))


def test_chain_embedding():
    for m in (1, 2, 3):
        report = check_chain_embedding(m)
        assert report.ok, (m, report.violations[:3])


def test_chain_embedding_reports_a_doctored_size_m_plus_1_construction(monkeypatch):
    # scale [H1, F12] and delta(F12) by 3 at size 3 only: the size-2 brackets and
    # cocommutators then push forward to something else
    double_in_gln_basis = glnfactory.double_in_gln_basis
    delta_in_gln_basis = glnfactory.delta_in_gln_basis

    def doctored_double(n, triple=None):
        algebra = double_in_gln_basis(n, triple)
        if n != 3:
            return algebra
        entries = {key: dict(coeffs) for key, coeffs in algebra.tensor.stored()}
        key = (h_index(3, 1), f_index(3, 1, 2))
        entries[key] = {r: value * 3 for r, value in entries[key].items()}
        return LieAlgebra(algebra.labels, StructureTensor(entries))

    def doctored_delta(n, triple=None):
        delta = delta_in_gln_basis(n, triple)
        if n != 3:
            return delta
        f12 = f_index(3, 1, 2)
        return Cocommutator(
            delta.dim, {p: value.scale(3) if p == f12 else value for p, value in delta.items()}
        )

    monkeypatch.setattr(glnfactory, "double_in_gln_basis", doctored_double)
    monkeypatch.setattr(glnfactory, "delta_in_gln_basis", doctored_delta)
    report = check_chain_embedding(2)
    assert report.check == "chain_embedding"
    assert [(v.indices, v.residual) for v in report.violations] == [
        ((0, 4), "bracket mismatch: 2*F12"),
        (
            (4,),
            "cocommutator mismatch: H1(x)F12 - H2(x)F12 + i*I1(x)F12 - i*I2(x)F12"
            " - F12(x)H1 + F12(x)H2 - i*F12(x)I1 + i*F12(x)I2",
        ),
    ]


def test_chain_embedding_reports_a_bracket_held_on_one_side_only(monkeypatch):
    # at size 3, drop [H1, F12] and add [H1, H2] = F12: the size-2 bracket
    # that has no image and the image that has no size-2 bracket both show
    double_in_gln_basis = glnfactory.double_in_gln_basis

    def doctored_double(n, triple=None):
        algebra = double_in_gln_basis(n, triple)
        if n != 3:
            return algebra
        entries = {key: dict(coeffs) for key, coeffs in algebra.tensor.stored()}
        del entries[(h_index(3, 1), f_index(3, 1, 2))]
        entries[(h_index(3, 1), h_index(3, 2))] = {f_index(3, 1, 2): ONE}
        return LieAlgebra(algebra.labels, StructureTensor(entries))

    monkeypatch.setattr(glnfactory, "double_in_gln_basis", doctored_double)
    report = check_chain_embedding(2)
    assert [(v.indices, v.residual) for v in report.violations] == [
        ((0, 1), "bracket mismatch: F12"),
        ((0, 4), "bracket mismatch: -F12"),
    ]


def _row_order(tensor):
    """Every row of a bracket table with its coefficients, in stored order."""
    return [(x, [(s, list(coeffs.items())) for s, coeffs in row.items()])
            for x, row in tensor._rows.items()]


@pytest.mark.parametrize("n", range(1, 10))
def test_trusted_factory_tables_are_what_the_constructor_stores(n):
    # the commutator tables go in through StructureTensor._of_sorted; the
    # validating constructor must store the same rows, in the same order
    for algebra in (build_s_plus(n), build_s_minus(n), build_gln_tn(n),
                    build_s_plus(n, ONE), build_s_minus(n, Scalar(2, 1)), build_s_plus(n, ZERO)):
        checked = StructureTensor({key: dict(coeffs) for key, coeffs in algebra.tensor.stored()})
        assert _row_order(algebra.tensor) == _row_order(checked)
        assert all(value for _, coeffs in algebra.tensor.oriented() for value in coeffs.values())


def test_the_commutator_table_sorts_a_two_term_bracket_that_arrives_unsorted():
    # gl(2) with E_21 before E_12: [E_21, E_12] = E_22 - E_11 arrives as
    # {E_22: 1, E_11: -1}, out of index order; the factories' own orders
    # bring E_ii before E_jj whenever E_ij comes before E_ji
    index = {(1, 1): 0, (2, 2): 1, (2, 1): 2, (1, 2): 3}
    table = glnfactory._commutator_table(index, lambda i, j, k, l: ONE)
    assert table.pair(2, 3) == {0: MINUS_ONE, 1: ONE}
    checked = StructureTensor({key: dict(coeffs) for key, coeffs in table.stored()})
    assert _row_order(table) == _row_order(checked)


@pytest.mark.parametrize("m", range(1, 13))
def test_the_chain_embedding_keeps_the_index_order(m):
    # so the chain check compares each pushed sorted half with a sorted half
    emb = glnfactory._embedding_map(m)
    small = sorted(emb)
    assert small == list(range(gln_dim(m)))
    assert [emb[p] for p in small] == sorted(emb.values())


def _chain_cocommutator_mismatches(m, small_delta, big_delta):
    """The chain check's cocommutator violations from whole two-tensors: the slow form."""
    emb = glnfactory._embedding_map(m)
    labels = gln_labels(m + 1)
    out = []
    for p in range(gln_dim(m)):
        pushed = TwoTensor({(emb[a], emb[b]): v for (a, b), v in small_delta.get(p).items()})
        target = big_delta.get(emb[p])
        if pushed != target:
            out.append(((p,), f"cocommutator mismatch: {(target - pushed).format(labels)}"))
    return out


@pytest.mark.parametrize("change", ["scale", "drop", "add"])
def test_chain_cocommutator_mismatches_match_the_whole_tensor_comparison(monkeypatch, change):
    delta_in_gln_basis = glnfactory.delta_in_gln_basis
    deltas = {}

    def doctored_delta(n, triple=None):
        delta = delta_in_gln_basis(n, triple)
        if n == 3:
            values = {p: dict(value.items()) for p, value in delta.items()}
            for p in (f_index(3, 1, 2), f_index(3, 2, 1), i_index(3, 1)):
                terms = values.setdefault(p, {})
                (a, b), v = min(terms.items()) if terms else ((0, 1), ONE)
                if change == "scale":
                    terms[(a, b)], terms[(b, a)] = v * 3, -v * 3
                elif change == "drop" and terms:
                    del terms[(a, b)], terms[(b, a)]
                else:
                    terms[(0, f_index(3, 1, 3))], terms[(f_index(3, 1, 3), 0)] = ONE, -ONE
            delta = Cocommutator(delta.dim, {p: TwoTensor(t) for p, t in values.items() if t})
        deltas[n] = delta
        return delta

    monkeypatch.setattr(glnfactory, "delta_in_gln_basis", doctored_delta)
    report = check_chain_embedding(2)
    got = [(v.indices, v.residual) for v in report.violations]
    assert got == _chain_cocommutator_mismatches(2, deltas[2], deltas[3])
    assert len(got) >= 2


def test_normalization_is_load_bearing():
    # with the 1/sqrt2 replaced by 1 the crossed compatibility breaks at
    # n = 3 (the root ladder forces 2*kappa^2 = 1) ...
    report = check_compatibility(
        build_s_plus(3, ONE).tensor, build_s_minus(3, ONE).tensor
    )
    assert not report.ok
    with pytest.raises(CompatibilityError):
        build_gln_triple(3, ONE)
    # ... while at n = 2 every compatibility term is quadratic in the single
    # scale, so the identity survives and the breakage shows up in the fixed
    # basis identification instead
    assert check_compatibility(
        build_s_plus(2, ONE).tensor, build_s_minus(2, ONE).tensor
    ).ok
    triple = ManinTriple.unchecked(build_s_plus(2, ONE), build_s_minus(2, ONE))
    rebased = build_double(triple).algebra.change_of_basis(
        gln_change_of_basis(2), labels=gln_labels(2)
    )
    assert not structure_equal(rebased, build_gln_tn(2))


def transpose(mat: Matrix) -> Matrix:
    return Matrix([[mat.entry(i, j) for i in range(mat.rows)] for j in range(mat.cols)])


def test_trace_form_extension_reproduces_pairing():
    for n in (2, 3):
        pairing = build_double(build_gln_triple(n)).pairing.matrix()
        T = gln_change_of_basis(n)
        transported = transpose(T) * pairing * T
        assert BilinearForm(transported) == gln_tn_trace_form(n)


def test_fundamental_representation_shape():
    rep = fundamental_representation(3)
    assert len(rep) == 9
    assert all(mat.rows == mat.cols == 3 for mat in rep)
    assert rep[0].entry(0, 0) == ONE and rep[0].trace() == ONE


@pytest.mark.parametrize("first", ["liedouble.bialg", "liedouble.glnfactory"])
def test_split_and_quotient_bind_one_object_whichever_module_loads_first(first):
    import os
    import subprocess
    import sys

    import liedouble

    # a fresh interpreter, so that the import order is the one under test
    src = os.path.dirname(os.path.dirname(liedouble.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        f"import {first}\n"
        "import liedouble.bialg as bialg, liedouble.glnfactory as glnfactory\n"
        "assert bialg.split_twist is glnfactory.split_twist\n"
        "assert bialg.identify_central is glnfactory.identify_central\n"
        "assert liedouble.split_twist is glnfactory.split_twist\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr


def test_rmatrix_in_gln_basis_transports_then_splits():
    for n in (1, 2, 3):
        _, r_skew = build_rmatrix(build_gln_triple(n))
        moved = r_skew.transport(gln_change_of_basis(n).inverse())
        r_skew_hif, r_standard, r_twist = rmatrix_in_gln_basis(n, r_skew)
        assert (r_skew_hif, r_standard, r_twist) == (moved, *split_twist(n, moved))
        assert r_standard + r_twist == r_skew_hif
