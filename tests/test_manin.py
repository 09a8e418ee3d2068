import itertools
import random
from fractions import Fraction

import pytest

from liedouble import (
    HALF_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    BilinearForm,
    CompatibilityError,
    LieAlgebra,
    ManinTriple,
    Matrix,
    Scalar,
    Vector,
    build_double,
    build_gln_triple,
    build_s_minus,
    build_s_plus,
    check_ad_invariance,
    check_compatibility,
    check_isotropic_pairing,
)
from liedouble.manin import DoubleAlgebra

K = HALF_SQRT2


def brute_force_compatibility(f, c, dim):
    """Dense five-loop evaluation of the crossed Jacobi residuals."""

    def entry(tensor, p, q, r):
        coeffs = tensor.pair(p, q)
        return coeffs.get(r, ZERO) if coeffs else ZERO

    bad = {}
    for p, q, s, t in itertools.product(range(dim), repeat=4):
        total = ZERO
        for r in range(dim):
            total = total + entry(c, p, q, r) * entry(f, s, t, r)
            total = total - entry(c, p, r, s) * entry(f, r, t, q)
            total = total - entry(c, r, q, s) * entry(f, r, t, p)
            total = total - entry(c, p, r, t) * entry(f, s, r, q)
            total = total - entry(c, r, q, t) * entry(f, s, r, p)
        if total:
            bad[(p, q, s, t)] = total
    return bad


def test_compatibility_worked_pair(pair3):
    plus, minus = pair3
    assert check_compatibility(plus.tensor, minus.tensor).ok


def test_compatibility_gln_factory_matches_brute_force():
    for n in (2, 3):
        plus, minus = build_s_plus(n), build_s_minus(n)
        report = check_compatibility(plus.tensor, minus.tensor)
        assert report.ok
        assert brute_force_compatibility(plus.tensor, minus.tensor, plus.dim) == {}


def test_compatibility_detects_injected_bracket(pair3):
    plus, _ = pair3
    minus_bad = LieAlgebra.from_brackets(
        ("z1", "z2", "z3"),
        {(0, 1): {2: ONE}, (0, 2): {2: -K}, (1, 2): {2: K}},
    )
    report = check_compatibility(plus.tensor, minus_bad.tensor)
    assert not report.ok
    found = {v.indices: v.residual for v in report.violations}
    assert found[(0, 1, 0, 2)] == "1/2*sqrt2"
    brute = brute_force_compatibility(plus.tensor, minus_bad.tensor, 3)
    assert set(found) == set(brute)
    assert all(str(brute[key]) == found[key] for key in brute)


def test_sign_flip_of_dual_entry_stays_compatible(pair3):
    # flipping the sign of [z1,z3] reweights the diagonal action and yields
    # ANOTHER valid dual structure, so this is not a compatibility violation
    plus, _ = pair3
    minus_flipped = LieAlgebra.from_brackets(
        ("z1", "z2", "z3"), {(0, 2): {2: K}, (1, 2): {2: K}}
    )
    assert check_compatibility(plus.tensor, minus_flipped.tensor).ok
    assert brute_force_compatibility(plus.tensor, minus_flipped.tensor, 3) == {}


def test_triple_validates_eagerly(pair3):
    plus, _ = pair3
    minus_bad = LieAlgebra.from_brackets(
        ("z1", "z2", "z3"),
        {(0, 1): {2: ONE}, (0, 2): {2: -K}, (1, 2): {2: K}},
    )
    with pytest.raises(CompatibilityError) as err:
        ManinTriple(plus, minus_bad)
    assert not err.value.report.ok
    unchecked = ManinTriple.unchecked(plus, minus_bad)
    assert not build_double(unchecked).algebra.check_jacobi().ok


def test_triple_dimension_mismatch(pair3):
    plus, _ = pair3
    with pytest.raises(ValueError):
        ManinTriple(plus, build_s_minus(3))


def test_double_crossed_brackets(triple3, double3):
    alg = double3.algebra
    # indices: Z1..Z3 = 0..2, z1..z3 = 3..5
    assert alg.bracket(Vector.basis(3), Vector.basis(2)) == Vector({2: K})
    assert alg.bracket(Vector.basis(4), Vector.basis(2)) == Vector({2: -K})
    assert alg.bracket(Vector.basis(5), Vector.basis(0)) == Vector({5: K})
    assert alg.bracket(Vector.basis(5), Vector.basis(1)) == Vector({5: -K})
    assert alg.bracket(Vector.basis(5), Vector.basis(2)) == Vector(
        {0: -K, 3: -K, 1: K, 4: K}
    )
    assert alg.bracket(Vector.basis(3), Vector.basis(0)).is_zero()


def test_double_restriction_reproduces_inputs(triple3, double3):
    m = triple3.dim
    plus_entries = dict(triple3.plus.tensor.stored())
    minus_entries = dict(triple3.minus.tensor.stored())
    got_plus = {}
    got_minus = {}
    for (p, q), coeffs in double3.algebra.tensor.stored():
        if p < m and q < m:
            got_plus[(p, q)] = dict(coeffs)
        elif p >= m and q >= m:
            assert all(r >= m for r in coeffs)
            got_minus[(p - m, q - m)] = {r - m: v for r, v in coeffs.items()}
    assert got_plus == {k: dict(v) for k, v in plus_entries.items()}
    assert got_minus == {k: dict(v) for k, v in minus_entries.items()}


def test_crossed_cartan_brackets_vanish_for_gln():
    for n in (2, 3, 4):
        double = build_double(build_gln_triple(n))
        m = double.half_dim
        for i in range(n):
            for j in range(n):
                assert double.algebra.bracket(
                    Vector.basis(m + i), Vector.basis(j)
                ).is_zero()


def test_double_passes_jacobi():
    for n in (1, 2, 3, 4):
        double = build_double(build_gln_triple(n))
        assert double.algebra.check_jacobi().ok


def test_isotropic_pairing_good(double3):
    assert check_isotropic_pairing(double3).ok


def test_isotropic_pairing_detects_degenerate(double3):
    m = double3.half_dim
    gram = [[double3.pairing.entry(i, j) for j in range(2 * m)] for i in range(2 * m)]
    gram[0][m] = ZERO
    gram[m][0] = ZERO
    doctored = DoubleAlgebra(double3.algebra, BilinearForm(gram), double3.origin)
    report = check_isotropic_pairing(doctored)
    assert not report.ok
    assert any(v.residual.startswith("duality") for v in report.violations)
    assert any(v.residual.startswith("nondegeneracy") for v in report.violations)


def test_isotropic_pairing_detects_isotropy_break(double3):
    m = double3.half_dim
    gram = [[double3.pairing.entry(i, j) for j in range(2 * m)] for i in range(2 * m)]
    gram[0][1] = ONE
    gram[1][0] = ONE
    doctored = DoubleAlgebra(double3.algebra, BilinearForm(gram), double3.origin)
    report = check_isotropic_pairing(doctored)
    assert not report.ok
    assert any(
        v.indices == (0, 1) and v.residual.startswith("isotropy") for v in report.violations
    )


def test_ad_invariance_single_convention(double3):
    report = check_ad_invariance(double3)
    assert report.conventions() == ("invariant",)
    assert not report.invariant_counterexamples
    assert report.anti_invariant_counterexamples
    first = report.anti_invariant_counterexamples[0]
    assert len(first.indices) == 3


def test_ad_invariance_abelian_double_holds_both_ways():
    double = build_double(build_gln_triple(1))
    report = check_ad_invariance(double)
    assert report.conventions() == ("invariant", "anti_invariant")


def test_ad_invariance_same_convention_across_sizes():
    for n in (2, 3):
        double = build_double(build_gln_triple(n))
        assert check_ad_invariance(double).conventions() == ("invariant",)


def _random_injection(rng, algebra):
    entries = {key: dict(vec) for key, vec in algebra.tensor.stored()}
    dim = algebra.dim
    while True:
        p, q = rng.sample(range(dim), 2)
        key = (min(p, q), max(p, q))
        r = rng.randrange(dim)
        value = Scalar(rng.choice([1, -1, 2]))
        vec = dict(entries.get(key, {}))
        vec[r] = vec.get(r, ZERO) + value
        if not vec[r]:
            continue
        entries[key] = vec
        return LieAlgebra.from_brackets(algebra.labels, entries)


def test_compatibility_iff_double_jacobi(pair3):
    # random single-entry injections at dimension 3, both directions; the
    # double satisfies Jacobi exactly when both halves do AND the crossed
    # compatibility holds, and for half-preserving injections the two checks
    # agree one-to-one
    plus, minus = pair3
    rng = random.Random(2718)
    seen = {True: 0, False: 0}
    for trial in range(60):
        if trial % 2:
            candidate = ManinTriple.unchecked(_random_injection(rng, plus), minus)
        else:
            candidate = ManinTriple.unchecked(plus, _random_injection(rng, minus))
        halves_ok = (
            candidate.plus.check_jacobi().ok and candidate.minus.check_jacobi().ok
        )
        compat_ok = check_compatibility(
            candidate.plus.tensor, candidate.minus.tensor
        ).ok
        jacobi_ok = build_double(candidate).algebra.check_jacobi().ok
        assert jacobi_ok == (halves_ok and compat_ok)
        if halves_ok:
            assert compat_ok == jacobi_ok
            seen[compat_ok] += 1
    # the sample must exercise both outcomes to be meaningful
    assert seen[True] > 0 and seen[False] > 0


def test_manin_structure_covariant_under_contragredient_changes():
    # rewriting s_plus with any invertible T and s_minus with the inverse
    # transpose preserves the index-aligned pairing, hence compatibility;
    # the double and its cocommutator transform by the block-diagonal change
    from liedouble import (
        HALF_SQRT2,
        I_UNIT,
        MINUS_ONE,
        Matrix,
        build_gln_triple,
        cocommutator_from_triple,
        express_in_basis,
        structure_equal,
    )

    rng = random.Random(4242)
    choices = [ONE, MINUS_ONE, Scalar(2), HALF_SQRT2, I_UNIT]

    def transpose(mat):
        return Matrix([[mat.entry(i, j) for i in range(mat.rows)] for j in range(mat.cols)])

    def random_invertible(dim):
        mat = Matrix.identity(dim)
        for _ in range(8):
            kind = rng.randrange(3)
            i, j = rng.sample(range(dim), 2)
            rows = [[mat.entry(r, c) for c in range(dim)] for r in range(dim)]
            if kind == 0:
                rows[i], rows[j] = rows[j], rows[i]
            elif kind == 1:
                rows[i] = [rng.choice(choices) * v for v in rows[i]]
            else:
                factor = rng.choice(choices)
                rows[i] = [v + factor * w for v, w in zip(rows[i], rows[j])]
            mat = Matrix(rows)
        return mat

    for trial in range(4):
        n = rng.choice([2, 3])
        triple = build_gln_triple(n)
        m = triple.dim
        T = random_invertible(m)
        S = transpose(T).inverse()
        moved = ManinTriple(triple.plus.change_of_basis(T), triple.minus.change_of_basis(S))
        block = [[ZERO] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                block[i][j] = T.entry(i, j)
                block[m + i][m + j] = S.entry(i, j)
        D = Matrix(block)
        assert structure_equal(
            build_double(moved).algebra, build_double(triple).algebra.change_of_basis(D)
        )
        assert cocommutator_from_triple(moved) == express_in_basis(
            cocommutator_from_triple(triple), D
        )


def test_unchecked_triple_skips_validation_and_equals_checked(pair3):
    plus, minus = pair3
    checked = ManinTriple(plus, minus)
    unchecked = ManinTriple.unchecked(plus, minus)
    assert unchecked == checked
    assert repr(unchecked) == repr(checked)
    assert hash(unchecked) == hash(checked)
    # validation is an init-only flag, not a field
    assert "validate" not in repr(checked)
    broken = LieAlgebra.from_brackets(minus.labels, {(0, 1): {2: ONE}, (0, 2): {2: -K}, (1, 2): {2: K}})
    with pytest.raises(CompatibilityError):
        ManinTriple(plus, broken)
    assert ManinTriple.unchecked(plus, broken).minus is broken
    assert ManinTriple(plus, broken, validate=False).minus is broken


def _mixed_value(rng):
    """A rational, often +-1, or a value with all four components nonzero."""
    kind = rng.randrange(3)
    if kind == 0:
        return Scalar(rng.choice([1, -1]))
    if kind == 1:
        return Scalar(Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 4)))
    return Scalar(*(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for _ in range(4)))


def _scaled(algebra, factor):
    brackets = {key: {r: factor * v for r, v in vec.items()} for key, vec in algebra.tensor.stored()}
    return LieAlgebra.from_brackets(algebra.labels, brackets)


def _contragredient_rebase(rng, plus, minus):
    """A compatible pair from a compatible one: plus times sqrt2 (so its
    +-sqrt2/2 entries turn rational) under a random invertible T with mixed
    entries, minus times a mixed value under T^{-T}."""
    plus, minus = _scaled(plus, SQRT2), _scaled(minus, _mixed_value(rng))
    dim = plus.dim
    T = Matrix.identity(dim)
    for _ in range(3):
        i, j = rng.sample(range(dim), 2)
        rows = [[T.entry(r, col) for col in range(dim)] for r in range(dim)]
        factor = _mixed_value(rng)
        rows[i] = [v + factor * w for v, w in zip(rows[i], rows[j])]
        T = Matrix(rows)
    S = Matrix([[T.entry(i, j) for i in range(dim)] for j in range(dim)]).inverse()
    return plus.change_of_basis(T), minus.change_of_basis(S)


def _with_center(algebra, label):
    """algebra plus one basis element that brackets to zero with everything."""
    brackets = {key: dict(vec) for key, vec in algebra.tensor.stored()}
    return LieAlgebra.from_brackets(algebra.labels + (label,), brackets)


def _perturbed(rng, algebra):
    """algebra with one random bracket entry moved by a mixed value."""
    brackets = {key: dict(vec) for key, vec in algebra.tensor.stored()}
    p, q = sorted(rng.sample(range(algebra.dim), 2))
    r = rng.randrange(algebra.dim)
    vec = brackets.setdefault((p, q), {})
    vec[r] = vec.get(r, ZERO) + _mixed_value(rng)
    return LieAlgebra.from_brackets(algebra.labels, brackets)


def test_compatibility_matches_brute_force_on_mixed_coefficients(pair3):
    # seeded dimension-3 and dimension-4 pairs whose coefficients mix
    # rationals with values having all four components: compatible pairs
    # rebased contragrediently, and the same pairs with one entry moved
    rng = random.Random(1618)
    gl2 = (build_s_plus(2), build_s_minus(2))
    gl2_center = (_with_center(gl2[0], "W"), _with_center(gl2[1], "w"))
    seen = {True: 0, False: 0}
    rational = full = 0
    for base in (pair3, gl2, gl2_center):
        for trial in range(4):
            plus, minus = _contragredient_rebase(rng, *base)
            if trial % 2:
                minus = _perturbed(rng, minus)
            report = check_compatibility(plus.tensor, minus.tensor)
            brute = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
            keys = sorted(brute)
            assert [v.indices for v in report.violations] == keys
            assert [v.residual for v in report.violations] == [str(brute[k]) for k in keys]
            seen[report.ok] += 1
            values = [v for alg in (plus, minus) for _, vec in alg.tensor.stored() for v in vec.values()]
            rational += sum(1 for v in values if not (v.b or v.c or v.d))
            full += sum(1 for v in values if v.a and v.b and v.c and v.d)
    # the sample must hold both verdicts and both kinds of coefficient
    assert seen[True] >= 6 and seen[False] > 0
    assert rational > 0 and full > 0
