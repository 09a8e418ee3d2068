import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liedouble import (
    HALF_SQRT2,
    I_UNIT,
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
    scalar_parse,
)
from liedouble import manin
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


def test_double_of_an_unchecked_triple_needs_equal_halves(pair3):
    # the minus block's indices would otherwise run into the plus block's
    plus, _ = pair3
    small = build_s_minus(1)
    for triple in (ManinTriple.unchecked(plus, small), ManinTriple.unchecked(small, plus)):
        dims = (triple.plus.dim, triple.minus.dim)
        with pytest.raises(ValueError, match="must share a dimension, got %d and %d" % dims):
            build_double(triple)


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


def test_ad_invariance_formats_a_counterexample_list_on_its_first_read(monkeypatch):
    formatted = []
    original = Scalar.__str__

    def counted(self):
        formatted.append(self)
        return original(self)

    monkeypatch.setattr(Scalar, "__str__", counted)
    report = check_ad_invariance(build_double(build_gln_triple(3)))
    assert report.conventions() == ("invariant",) and formatted == []
    bad = report.anti_invariant_counterexamples
    assert len(formatted) == len(bad) == len(report.anti_invariant_residuals) > 0
    assert report.anti_invariant_counterexamples is bad and len(formatted) == len(bad)
    assert [v.indices for v in bad] == sorted(report.anti_invariant_residuals)
    assert report.invariant_counterexamples == [] and report.invariant_residuals == {}


def test_ad_invariance_abelian_double_holds_both_ways():
    double = build_double(build_gln_triple(1))
    report = check_ad_invariance(double)
    assert report.conventions() == ("invariant", "anti_invariant")


def test_ad_invariance_same_convention_across_sizes():
    for n in (2, 3):
        double = build_double(build_gln_triple(n))
        assert check_ad_invariance(double).conventions() == ("invariant",)


@pytest.mark.parametrize("pairing_dim", [3, 8])
def test_ad_invariance_rejects_a_pairing_of_another_dimension(pairing_dim):
    # the gl(2) double has dimension 6; a smaller pairing would index past its
    # rows, a larger one would pair basis vectors the algebra does not have
    double = build_double(build_gln_triple(2))
    pairing = BilinearForm(Matrix.identity(pairing_dim))
    mismatched = DoubleAlgebra(double.algebra, pairing, double.origin)
    message = f"pairing dimension {pairing_dim} does not match the algebra dimension 6"
    with pytest.raises(ValueError, match=message):
        check_ad_invariance(mismatched)


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


# The monomial path of check_compatibility against the Scalar path.  Every
# coefficient of a monomial pair is x * e_u, x rational and e_u one of the
# units 1, sqrt2, i, i*sqrt2.

UNITS = (ONE, SQRT2, I_UNIT, Scalar(0, 0, 0, 1))


def _scalar_path(f, c):
    """The residuals as (key, text) pairs, from Scalar products only."""
    residual = manin._scalar_residuals(manin._tensor_triples(c), manin._tensor_triples(f))
    return [(key, str(residual[key])) for key in sorted(residual)]


def _reported(report):
    return [(v.indices, v.residual) for v in report.violations]


def _is_monomial(algebra):
    return manin._monomial_triples(manin._tensor_triples(algebra.tensor)) is not None


def _monomial_value(rng):
    """A monomial with a mixed numerator and denominator and a random unit."""
    x = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4, 7]))
    return x * UNITS[rng.randrange(4)]


def _random_monomial_algebra(rng, dim):
    brackets = {}
    for p, q in itertools.combinations(range(dim), 2):
        if rng.random() < 0.4:
            outputs = rng.sample(range(dim), rng.randint(1, 2))
            brackets[(p, q)] = {r: _monomial_value(rng) for r in outputs}
    return LieAlgebra.from_brackets(tuple(f"e{k}" for k in range(dim)), brackets)


def _relabeled(algebra, perm):
    brackets = {}
    for (p, q), vec in algebra.tensor.stored():
        brackets[(perm[p], perm[q])] = {perm[r]: v for r, v in vec.items()}
    return LieAlgebra.from_brackets(algebra.labels, brackets)


def _unit_probe(u, v):
    """A dimension-3 pair whose only product is e_u * e_v, at key (0, 1, 0, 1)."""
    labels = ("a", "b", "c")
    plus = LieAlgebra.from_brackets(labels, {(0, 1): {2: UNITS[v]}})
    minus = LieAlgebra.from_brackets(labels, {(0, 1): {2: UNITS[u]}})
    return plus, minus


def _monomial_pairs():
    """Seeded monomial pairs: unit probes, scaled and relabeled gl(n) halves
    (compatible) and random tensors (incompatible)."""
    rng = random.Random(4242)
    pairs = [_unit_probe(u, v) for u in range(4) for v in range(4)]
    for n in (2, 3):
        plus, minus = build_s_plus(n), build_s_minus(n)
        for _ in range(3):
            # scaling the halves by alpha and beta scales every residual by alpha*beta
            alpha, beta = _monomial_value(rng), _monomial_value(rng)
            perm = list(range(plus.dim))
            rng.shuffle(perm)
            pairs.append(
                (_relabeled(_scaled(plus, alpha), perm), _relabeled(_scaled(minus, beta), perm))
            )
    for dim in (3, 4, 4, 5):
        pairs.append((_random_monomial_algebra(rng, dim), _random_monomial_algebra(rng, dim)))
    return pairs


def _paths_disagree(pairs):
    """The pairs whose report differs from the Scalar path's residuals."""
    return [
        (plus, minus)
        for plus, minus in pairs
        if _reported(check_compatibility(plus.tensor, minus.tensor))
        != _scalar_path(plus.tensor, minus.tensor)
    ]


def test_unit_table_matches_scalar_products():
    for u, v in itertools.product(range(4), repeat=2):
        s, w = manin._UNIT_PRODUCTS[u][v]
        assert UNITS[u] * UNITS[v] == s * UNITS[w], (u, v)


def test_monomial_path_matches_scalar_path_and_brute_force():
    pairs = _monomial_pairs()
    assert _paths_disagree(pairs) == []
    verdicts = {True: 0, False: 0}
    units = set()
    denominators = set()
    for plus, minus in pairs:
        assert _is_monomial(plus) and _is_monomial(minus)
        report = check_compatibility(plus.tensor, minus.tensor)
        brute = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
        assert _reported(report) == [(key, str(brute[key])) for key in sorted(brute)]
        verdicts[report.ok] += 1
        for algebra in (plus, minus):
            for _, vec in algebra.tensor.stored():
                for value in vec.values():
                    (u, x), = [(u, x) for u, x in enumerate((value.a, value.b, value.c, value.d)) if x]
                    units.add(u)
                    denominators.add(x.denominator)
    assert verdicts[True] >= 6 and verdicts[False] >= 16
    assert units == {0, 1, 2, 3} and len(denominators) > 3


def test_a_two_component_coefficient_takes_the_scalar_path(monkeypatch):
    calls = []
    scalar_residuals = manin._scalar_residuals

    def spy(c_triples, f_triples):
        calls.append(len(c_triples))
        return scalar_residuals(c_triples, f_triples)

    monkeypatch.setattr(manin, "_scalar_residuals", spy)
    rng = random.Random(77)
    plus, minus = _random_monomial_algebra(rng, 4), _random_monomial_algebra(rng, 4)
    check_compatibility(plus.tensor, minus.tensor)
    assert calls == []
    two_component = 1 + SQRT2 / 3
    for mixed_plus in (True, False):
        side = plus if mixed_plus else minus
        brackets = {key: dict(vec) for key, vec in side.tensor.stored()}
        (key, vec), *_ = brackets.items()
        vec[next(iter(vec))] = two_component
        mixed = LieAlgebra.from_brackets(side.labels, brackets)
        f, c = (mixed, minus) if mixed_plus else (plus, mixed)
        report = check_compatibility(f.tensor, c.tensor)
        assert calls.pop() == 2 * sum(len(v) for _, v in c.tensor.stored())
        brute = brute_force_compatibility(f.tensor, c.tensor, f.dim)
        assert _reported(report) == [(k, str(brute[k])) for k in sorted(brute)]


def test_gln_halves_agree_with_the_scalar_path_at_each_cartan_coefficient():
    for kappa in (HALF_SQRT2, ONE, 2 + SQRT2):
        for n in (2, 3, 4):
            plus, minus = build_s_plus(n, kappa), build_s_minus(n, kappa)
            assert _paths_disagree([(plus, minus)]) == []
            assert _is_monomial(plus) == (kappa != 2 + SQRT2)
    # only the orthonormal coefficient makes the halves compatible from n = 3
    assert check_compatibility(build_s_plus(3).tensor, build_s_minus(3).tensor).ok
    assert not check_compatibility(build_s_plus(3, ONE).tensor, build_s_minus(3, ONE).tensor).ok


def test_a_unit_table_with_one_sign_flipped_is_detected(monkeypatch):
    pairs = _monomial_pairs()
    table = manin._UNIT_PRODUCTS
    for u, v in itertools.product(range(4), repeat=2):
        rows = [list(row) for row in table]
        s, w = rows[u][v]
        rows[u][v] = (-s, w)
        monkeypatch.setattr(manin, "_UNIT_PRODUCTS", tuple(tuple(row) for row in rows))
        assert _paths_disagree(pairs), (u, v)
    monkeypatch.setattr(manin, "_UNIT_PRODUCTS", table)
    assert _paths_disagree(pairs) == []


def test_compatibility_residuals_come_in_antisymmetric_orbits(pair3):
    # (p,q,s,t) -> R comes with (q,p,s,t) and (p,q,t,s) -> -R and (q,p,t,s) -> R
    rng = random.Random(9090)
    pairs = [p for p in _monomial_pairs() if not check_compatibility(p[0].tensor, p[1].tensor).ok]
    scalar_pairs = 0
    for trial in range(6):
        plus, minus = _contragredient_rebase(rng, *pair3)
        pairs.append((plus, _perturbed(rng, minus)))
    for plus, minus in pairs:
        report = check_compatibility(plus.tensor, minus.tensor)
        assert not report.ok
        scalar_pairs += not (_is_monomial(plus) and _is_monomial(minus))
        residual = {v.indices: scalar_parse(v.residual) for v in report.violations}
        for (p, q, s, t), value in residual.items():
            assert residual.get((q, p, s, t)) == -value
            assert residual.get((p, q, t, s)) == -value
            assert residual.get((q, p, t, s)) == value
    assert scalar_pairs >= 4 and len(pairs) - scalar_pairs >= 4


# The integer per-unit sums of the monomial path.  Denominators are drawn
# pairwise coprime and up to ten digits long, so products of different
# denominators land in different groups; scaled gl(n) halves are compatible,
# so their sums cancel only across those groups.

COPRIME_DENOMINATORS = (1, 2, 3, 7, 1009, 65537, 999983, 2**31 - 1, 10**9 + 7)


@st.composite
def coprime_monomials(draw):
    numerator = draw(st.integers(-10**6, 10**6).filter(bool))
    denominator = draw(st.sampled_from(COPRIME_DENOMINATORS))
    return Fraction(numerator, denominator) * UNITS[draw(st.integers(0, 3))]


@st.composite
def coprime_monomial_algebras(draw, dim):
    brackets = {}
    for p, q in itertools.combinations(range(dim), 2):
        outputs = draw(st.sets(st.integers(0, dim - 1), max_size=2))
        if outputs:
            brackets[(p, q)] = {r: draw(coprime_monomials()) for r in sorted(outputs)}
    return LieAlgebra.from_brackets(tuple(f"e{k}" for k in range(dim)), brackets)


@st.composite
def coprime_monomial_pairs(draw):
    """Random monomial pairs, or scaled and relabeled gl(n) halves with at most one entry moved."""
    if draw(st.booleans()):
        dim = draw(st.integers(3, 5))
        return draw(coprime_monomial_algebras(dim)), draw(coprime_monomial_algebras(dim))
    n = draw(st.sampled_from((2, 3)))
    perm = draw(st.permutations(range(n * (n + 1) // 2)))
    halves = [
        _relabeled(_scaled(half, draw(coprime_monomials())), perm)
        for half in (build_s_plus(n), build_s_minus(n))
    ]
    if draw(st.booleans()):
        side = draw(st.integers(0, 1))
        dim = halves[side].dim
        brackets = {key: dict(vec) for key, vec in halves[side].tensor.stored()}
        p, q = sorted(draw(st.permutations(range(dim)))[:2])
        brackets.setdefault((p, q), {})[draw(st.integers(0, dim - 1))] = draw(coprime_monomials())
        halves[side] = LieAlgebra.from_brackets(halves[side].labels, brackets)
    return tuple(halves)


def assert_integer_path_matches(plus, minus):
    """The integer residuals equal the Scalar path's and the dense loop's, and so does the report."""
    c_triples = manin._tensor_triples(minus.tensor)
    f_triples = manin._tensor_triples(plus.tensor)
    c_units, f_units = manin._monomial_triples(c_triples), manin._monomial_triples(f_triples)
    assert c_units is not None and f_units is not None
    residual = manin._monomial_residuals(c_units, f_units, manin._mirrored(c_units, f_units))
    assert residual == manin._scalar_residuals(c_triples, f_triples)
    brute = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
    assert residual == brute
    report = check_compatibility(plus.tensor, minus.tensor)
    assert _reported(report) == [(key, str(brute[key])) for key in sorted(brute)]
    return report


@settings(deadline=None, max_examples=30)
@given(coprime_monomial_pairs())
def test_integer_unit_path_matches_scalar_path_and_brute_force(pair):
    assert_integer_path_matches(*pair)


def _cancelled_across_denominators(plus, minus):
    """The (key, unit) sums that vanish although two or more of their denominator groups do not."""
    c_units = manin._monomial_triples(manin._tensor_triples(minus.tensor))
    f_units = manin._monomial_triples(manin._tensor_triples(plus.tensor))
    groups = {}
    for key, (u, xn, xd), (v, yn, yd) in manin._compatibility_products(
        c_units, f_units, manin._negate_monomial
    ):
        s, w = manin._UNIT_PRODUCTS[u][v]
        by_den = groups.setdefault((key, w), {})
        by_den[xd * yd] = by_den.get(xd * yd, 0) + s * xn * yn
    return [
        slot
        for slot, by_den in groups.items()
        if sum(1 for total in by_den.values() if total) > 1
        and sum(Fraction(total, den) for den, total in by_den.items()) == 0
    ]


def test_scaled_gln_halves_cancel_only_across_denominator_groups():
    # from n = 3 on, products of the halves' 1 and sqrt2/2 entries meet with
    # different denominators (from n = 2 no sum has two groups)
    plus = _scaled(build_s_plus(3), Fraction(5, 1009) * SQRT2)
    minus = _scaled(build_s_minus(3), Fraction(-3, 65537) * I_UNIT)
    assert len(_cancelled_across_denominators(plus, minus)) == 12
    assert assert_integer_path_matches(plus, minus).ok


def _coprime_near(start, count):
    """``count`` pairwise coprime integers from ``start`` up."""
    found = []
    candidate = start
    while len(found) < count:
        if all(math.gcd(candidate, d) == 1 for d in found):
            found.append(candidate)
        candidate += 1
    return found


def test_thousand_digit_coprime_denominators_stay_fast():
    # the halves scaled by 1000-digit denominators, and one entry moved to a
    # third: every product denominator has 2000 digits, each residual's 3000
    d_plus, d_minus, d_moved = _coprime_near(10**999, 3)
    plus = _scaled(build_s_plus(3), Fraction(7, d_plus))
    minus = _scaled(build_s_minus(3), Fraction(-11, d_minus) * SQRT2)
    brackets = {key: dict(vec) for key, vec in minus.tensor.stored()}
    (key, vec), *_ = brackets.items()
    vec[next(iter(vec))] = Fraction(13, d_moved) * I_UNIT
    minus = LieAlgebra.from_brackets(minus.labels, brackets)
    start = time.perf_counter()
    report = check_compatibility(plus.tensor, minus.tensor)
    elapsed = time.perf_counter() - start
    assert not report.ok
    assert elapsed < 1.0, elapsed
    c_triples = manin._tensor_triples(minus.tensor)
    residual = manin._scalar_residuals(c_triples, manin._tensor_triples(plus.tensor))
    assert _reported(report) == [(k, str(residual[k])) for k in sorted(residual)]


# One residual per antisymmetric orbit: the integer path sums the keys
# p < q, s < t only and writes each nonzero sum onto its orbit.

MONOMIAL_NUMERATORS = (-5, -3, -2, -1, 1, 2, 3, 7)
MONOMIAL_DENOMINATORS = (1, 2, 3, 4, 9)


@st.composite
def small_monomials(draw):
    x = Fraction(draw(st.sampled_from(MONOMIAL_NUMERATORS)), draw(st.sampled_from(MONOMIAL_DENOMINATORS)))
    return x * UNITS[draw(st.integers(0, 3))]


@st.composite
def perturbed_monomial_pairs(draw):
    """Random monomial pairs, or relabeled gl(n) halves, with up to three entries
    of either side scaled, dropped or added."""
    if draw(st.booleans()):
        dim = draw(st.integers(2, 5))
        pairs = list(itertools.combinations(range(dim), 2))
        halves = []
        for _ in range(2):
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
            halves.append(LieAlgebra.from_brackets(
                tuple(f"e{k}" for k in range(dim)),
                {pair: draw(st.dictionaries(st.integers(0, dim - 1), small_monomials(),
                                            min_size=1, max_size=2)) for pair in chosen},
            ))
    else:
        n = draw(st.sampled_from((2, 3)))
        perm = draw(st.permutations(range(n * (n + 1) // 2)))
        halves = [_relabeled(half, perm) for half in (build_s_plus(n), build_s_minus(n))]
    for _ in range(draw(st.integers(0, 3))):
        side = draw(st.integers(0, 1))
        dim = halves[side].dim
        brackets = {key: dict(vec) for key, vec in halves[side].tensor.stored()}
        p, q = sorted(draw(st.permutations(range(dim)))[:2])
        vec = brackets.setdefault((p, q), {})
        r = draw(st.integers(0, dim - 1))
        change = draw(st.sampled_from(("scale", "drop", "add")))
        if change == "drop":
            vec.pop(r, None)
        elif change == "scale" and r in vec:
            vec[r] = vec[r] * draw(small_monomials())
        else:
            vec[r] = draw(small_monomials())
        brackets = {key: vec for key, vec in brackets.items() if vec}
        halves[side] = LieAlgebra.from_brackets(halves[side].labels, brackets)
    return tuple(halves)


@settings(deadline=None, max_examples=60)
@given(perturbed_monomial_pairs())
def test_orbit_residuals_match_brute_force_on_perturbed_monomial_pairs(pair):
    plus, minus = pair
    assert _is_monomial(plus) and _is_monomial(minus)
    report = check_compatibility(plus.tensor, minus.tensor)
    brute = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
    assert _reported(report) == [(key, str(brute[key])) for key in sorted(brute)]
    assert _reported(report) == _scalar_path(plus.tensor, minus.tensor)


class _CountedRows(tuple):
    """``_UNIT_PRODUCTS`` that counts its row reads: one per integer product."""

    reads = 0

    def __getitem__(self, u):
        _CountedRows.reads += 1
        return tuple.__getitem__(self, u)


def _representative(key, mirrored):
    """Whether the integer path forms the products of ``key``: the slow form of the join's filter."""
    p, q, s, t = key
    return p < q and s < t and (not mirrored or (p, q) <= (s, t))


@pytest.mark.parametrize("n, moved", [(4, False), (4, True), (6, False), (7, False)])
def test_the_integer_path_multiplies_only_the_products_of_sorted_keys(monkeypatch, n, moved):
    plus, minus = build_s_plus(n), build_s_minus(n)
    if moved:
        brackets = {key: dict(vec) for key, vec in minus.tensor.stored()}
        (key, vec), *_ = brackets.items()
        vec[next(iter(vec))] = vec[next(iter(vec))] * 3
        minus = LieAlgebra.from_brackets(minus.labels, brackets)
    c_units = manin._monomial_triples(manin._tensor_triples(minus.tensor))
    f_units = manin._monomial_triples(manin._tensor_triples(plus.tensor))
    # the factory's halves are mirrored, c = -f, until one entry moves
    mirrored = manin._mirrored(c_units, f_units)
    assert mirrored == (not moved)
    keys = [key for key, _, _ in manin._compatibility_products(c_units, f_units, manin._negate_monomial)]
    sorted_keys = sum(1 for key in keys if _representative(key, False))
    formed = sum(1 for key in keys if _representative(key, mirrored))
    monkeypatch.setattr(manin, "_UNIT_PRODUCTS", _CountedRows(manin._UNIT_PRODUCTS))
    _CountedRows.reads = 0
    residual = manin._monomial_residuals(c_units, f_units, mirrored)
    assert _CountedRows.reads == formed <= sorted_keys < len(keys) / 3
    assert bool(residual) == moved
    if n == 6:
        assert (formed, sorted_keys, len(keys)) == (450, 660, 2760)
    if n == 7:
        assert (formed, sorted_keys, len(keys)) == (791, 1183, 4900)


def _filtered_joins(plus, minus):
    """The integer join under each filter, and the full join filtered afterwards."""
    c_units = manin._monomial_triples(manin._tensor_triples(minus.tensor))
    f_units = manin._monomial_triples(manin._tensor_triples(plus.tensor))
    negate = manin._negate_monomial
    full = list(manin._compatibility_products(c_units, f_units, negate))
    for orbits, mirrored in (("sorted", False), ("mirrored", True)):
        joined = list(manin._compatibility_products(c_units, f_units, negate, orbits))
        yield joined, [row for row in full if _representative(row[0], mirrored)]


@settings(deadline=None, max_examples=40)
@given(perturbed_monomial_pairs())
def test_the_join_filter_keeps_exactly_the_representative_keys(pair):
    for joined, wanted in _filtered_joins(*pair):
        assert joined == wanted


def test_the_join_filter_keeps_exactly_the_representative_keys_on_seeded_pairs():
    # seeded random pairs whose products land on every kind of key, ties
    # p = s with q > t and q < t included
    rng = random.Random(2929)
    ties = set()
    for _ in range(30):
        dim = rng.randint(3, 5)
        pair = (_random_monomial_algebra(rng, dim), _random_monomial_algebra(rng, dim))
        for joined, wanted in _filtered_joins(*pair):
            assert joined == wanted
        full = manin._compatibility_products(
            *(manin._monomial_triples(manin._tensor_triples(h.tensor)) for h in reversed(pair)),
            manin._negate_monomial,
        )
        ties.update((q > t) - (q < t) for (p, q, s, t), _, _ in full if p == s and p < q and s < t)
    assert ties == {-1, 0, 1}


# The mirrored halves: c = -f index by index makes R(p, q, s, t) = R(s, t, p, q),
# and the integer path forms one key per orbit of eight.


@st.composite
def mirrored_monomial_pairs(draw):
    """(plus, minus, mirrored): minus is plus negated entry by entry, unless one
    entry of minus then has its denominator, numerator sign or unit changed."""
    dim = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(dim), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    brackets = {pair: draw(st.dictionaries(st.integers(0, dim - 1), small_monomials(),
                                           min_size=1, max_size=2)) for pair in chosen}
    labels = tuple(f"e{k}" for k in range(dim))
    negated = {key: {r: -v for r, v in vec.items()} for key, vec in brackets.items()}
    change = draw(st.sampled_from((None, None, "denominator", "sign", "unit")))
    if change is not None:
        key = draw(st.sampled_from(sorted(negated)))
        r = draw(st.sampled_from(sorted(negated[key])))
        value = negated[key][r]
        if change == "denominator":
            (u, n, d), = [(u, x.numerator, x.denominator) for u, x in
                          enumerate((value.a, value.b, value.c, value.d)) if x]
            value = Fraction(n, d * 5) * UNITS[u]
        elif change == "sign":
            value = -value
        else:
            value = value * I_UNIT
        negated[key] = {**negated[key], r: value}
    plus = LieAlgebra.from_brackets(labels, brackets)
    return plus, LieAlgebra.from_brackets(labels, negated), change is None


@settings(deadline=None, max_examples=80)
@given(mirrored_monomial_pairs())
def test_mirrored_pairs_match_brute_force(case):
    plus, minus, mirrored = case
    c_units = manin._monomial_triples(manin._tensor_triples(minus.tensor))
    f_units = manin._monomial_triples(manin._tensor_triples(plus.tensor))
    assert manin._mirrored(c_units, f_units) == mirrored
    report = check_compatibility(plus.tensor, minus.tensor)
    brute = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
    assert _reported(report) == [(key, str(brute[key])) for key in sorted(brute)]
    if mirrored:
        assert all(brute[(s, t, p, q)] == value for (p, q, s, t), value in brute.items())


def test_mirrored_pairs_are_mostly_incompatible():
    # the premise of the test above: its random brackets rarely satisfy Jacobi
    rng = random.Random(8)
    failing = 0
    for _ in range(20):
        plus = _random_monomial_algebra(rng, 4)
        minus = _scaled(plus, -ONE)
        failing += not check_compatibility(plus.tensor, minus.tensor).ok
    assert failing >= 15


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_kappa_one_halves_fail_on_their_orbits_of_eight(n):
    plus, minus = build_s_plus(n, ONE), build_s_minus(n, ONE)
    c_triples = manin._tensor_triples(minus.tensor)
    f_triples = manin._tensor_triples(plus.tensor)
    c_units, f_units = manin._monomial_triples(c_triples), manin._monomial_triples(f_triples)
    assert manin._mirrored(c_units, f_units)
    report = check_compatibility(plus.tensor, minus.tensor)
    assert not report.ok
    # the dense loop up to n = 4; from n = 5 the full Scalar join, which
    # the tests above check against it
    if n <= 4:
        reference = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
    else:
        reference = manin._scalar_residuals(c_triples, f_triples)
    assert _reported(report) == [(key, str(reference[key])) for key in sorted(reference)]
    orbits = {key for key in reference if _representative(key, True)}
    assert len(reference) == sum(4 if (p, q) == (s, t) else 8 for p, q, s, t in orbits)


def test_halves_of_two_scales_are_not_mirrored_and_take_the_four_key_path(monkeypatch):
    calls = []
    monomial_residuals = manin._monomial_residuals

    def spy(c_units, f_units, mirrored):
        calls.append(mirrored)
        return monomial_residuals(c_units, f_units, mirrored)

    monkeypatch.setattr(manin, "_monomial_residuals", spy)
    for n in (2, 3):
        for alpha, beta in ((ONE, HALF_SQRT2), (HALF_SQRT2, 2 * ONE), (ONE, ONE)):
            plus, minus = build_s_plus(n, alpha), build_s_minus(n, beta)
            report = check_compatibility(plus.tensor, minus.tensor)
            brute = brute_force_compatibility(plus.tensor, minus.tensor, plus.dim)
            assert _reported(report) == [(key, str(brute[key])) for key in sorted(brute)]
            assert calls.pop() == (alpha == beta)
            # at n = 2 every pair of scales is compatible; from n = 3 none of these is
            assert report.ok == (n == 2)
