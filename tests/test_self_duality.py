"""The double's self-duality theta and the orbit-reduced checks it certifies.

``glnfactory.self_duality(n)`` gives theta as a signed permutation of the
double's X, Y, x, y basis, and ``bialg.certify_self_duality`` certifies it
on an algebra, its pairing, a cocommutator and a skew r-matrix.  With a
certificate, ``check_jacobi``, ``check_cocycle`` and ``schouten_check``
evaluate one member of each theta-orbit and fall back to the full loop when
one of them fails, and ``check_ad_invariance`` copies each residual onto its
image.  Each reduced check must return exactly what its full loop returns,
and the certificate must accept exactly the theta-symmetric inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liedouble import (
    NOT_INVARIANT,
    ONE,
    SQRT2,
    BilinearForm,
    Cocommutator,
    LieAlgebra,
    Scalar,
    StructureTensor,
    TwoTensor,
    build_double,
    build_gln_triple,
    build_rmatrix,
    cartan_index,
    certify_self_duality,
    check_ad_invariance,
    check_cocycle,
    cocommutator_from_triple,
    root_index,
    schouten_check,
    self_duality,
    solvable_dim,
)
from liedouble import bialg, suite
from liedouble.liealg import LieAlgebra as _LieAlgebra
from liedouble.manin import DoubleAlgebra, _hyperbolic_pairing


def gln_objects(n):
    triple = build_gln_triple(n)
    _, r_skew = build_rmatrix(triple)
    return build_double(triple).algebra, cocommutator_from_triple(triple), r_skew


def certify(alg, delta, r_skew, theta, pairing=None):
    """``certify_self_duality`` with the hyperbolic pairing unless ``pairing`` is given."""
    if pairing is None:
        pairing = _hyperbolic_pairing(alg.dim // 2)
    return certify_self_duality(alg, pairing, delta, r_skew, theta)


def certified(n):
    """The size-n algebra, delta and r_skew, and theta certified on them and on the pairing."""
    triple = build_gln_triple(n)
    _, r_skew = build_rmatrix(triple)
    double = build_double(triple)
    alg, delta = double.algebra, cocommutator_from_triple(triple)
    theta = certify_self_duality(alg, double.pairing, delta, r_skew, self_duality(n))
    return alg, delta, r_skew, theta


def orbit_partner(key, image):
    """The sorted image of an index tuple under theta."""
    return tuple(sorted(image[k] for k in key))


def with_brackets(alg, brackets):
    return LieAlgebra(alg.labels, StructureTensor(brackets))


def changed(pairing, entries):
    """``pairing`` with the Gram entries ``{(p, q): value}`` replaced."""
    rows = [[pairing.entry(p, q) for q in range(pairing.dim)] for p in range(pairing.dim)]
    for (p, q), value in entries.items():
        rows[p][q] = value
    return BilinearForm(rows)


def record_calls(monkeypatch, owner, name, key):
    """Record ``key(*args, **kwargs)`` for every call of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


# --- theta and its certificate ------------------------------------------------------


def test_theta_swaps_the_borel_halves_with_the_root_sign():
    n, m = 3, solvable_dim(3)
    theta = self_duality(n)
    assert len(theta) == 2 * m
    for i in range(1, n + 1):
        X = cartan_index(n, i)
        assert theta[X] == (m + X, -1) and theta[m + X] == (X, -1)
    # s = (-1)^(j-i-1): + on Y12 and Y23, - on Y13
    for (i, j), sign in {(1, 2): 1, (2, 3): 1, (1, 3): -1}.items():
        Y = root_index(n, i, j)
        assert theta[Y] == (m + Y, sign) and theta[m + Y] == (Y, sign)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_certificate_passes_on_every_factory_double(n):
    alg, delta, r_skew, theta = certified(n)
    assert theta is not None
    assert theta.half == solvable_dim(n) and 2 * theta.half == alg.dim
    assert theta.image == tuple(q for q, _ in self_duality(n))
    assert (theta.algebra, theta.delta, theta.r) == (alg, delta, r_skew)
    assert theta.sign == tuple(s for _, s in self_duality(n))


@pytest.mark.parametrize("n", [3, 4])
def test_the_certificate_rejects_theta_without_the_root_sign(n):
    # without s, theta breaks [Y_ij, Y_jl] = Y_il from n = 3 on
    alg, delta, r_skew = gln_objects(n)
    unsigned = tuple((q, -1 if p % solvable_dim(n) < n else 1) for p, (q, _) in
                     enumerate(self_duality(n)))
    assert unsigned != self_duality(n)
    assert certify(alg, delta, r_skew, unsigned) is None


def test_the_certificate_rejects_each_kind_of_break():
    n = 3
    alg, delta, r_skew = gln_objects(n)
    theta = list(self_duality(n))
    m = solvable_dim(n)
    assert certify(alg, delta, r_skew, theta) is not None
    # not an involution: two images swapped
    broken = list(theta)
    broken[0], broken[1] = theta[1], theta[0]
    assert certify(alg, delta, r_skew, broken) is None
    # theta(theta e_0) = -e_0: the sign of one image flipped
    broken = list(theta)
    broken[m] = (0, 1)
    assert certify(alg, delta, r_skew, broken) is None
    # an involution inside the halves, not between them
    inside = [(p, 1) for p in range(alg.dim)]
    assert certify(alg, delta, r_skew, inside) is None
    assert certify(alg, delta, r_skew, theta[:-1]) is None
    # one bracket scaled
    brackets = dict(alg.tensor.stored())
    key = next(iter(brackets))
    brackets[key] = {k: v * SQRT2 for k, v in brackets[key].items()}
    assert certify(with_brackets(alg, brackets), delta, r_skew, theta) is None
    # one cocommutator value scaled
    values = dict(delta.items())
    y12 = m + root_index(n, 1, 2)
    values[y12] = values[y12].scale(2)
    assert certify(alg, Cocommutator(alg.dim, values), r_skew, theta) is None
    # one wedge of r scaled, its antisymmetry kept
    terms = dict(r_skew.items())
    for key in ((m, 0), (0, m)):
        terms[key] = terms[key] * 2
    scaled = TwoTensor(terms)
    assert scaled.is_antisymmetric()
    # theta maps the wedge z^1 ^ Z_1 onto itself: scaling it keeps the certificate
    assert certify(alg, delta, scaled, theta) is not None
    terms[(m + 1, 2)] = ONE
    terms[(2, m + 1)] = -ONE
    assert certify(alg, delta, TwoTensor(terms), theta) is None
    # a pairing: the hyperbolic one passes; one with <X1, X2> != 0 = <x1, x2> fails
    pairing = _hyperbolic_pairing(m)
    assert certify(alg, delta, r_skew, theta, pairing) is not None
    entries = {(0, 1): ONE, (1, 0): ONE}
    assert certify(alg, delta, r_skew, theta, changed(pairing, entries)) is None
    # <X1, Y12> = 1 needs <x1, y12> = s_X1 s_Y12 = -1
    Y = root_index(n, 1, 2)
    for value, accepted in ((-ONE, True), (ONE, False)):
        entries = {(0, Y): ONE, (Y, 0): ONE, (m, m + Y): value, (m + Y, m): value}
        certificate = certify(alg, delta, r_skew, theta, changed(pairing, entries))
        assert (certificate is not None) == accepted
    assert certify(alg, delta, r_skew, theta, BilinearForm([[ONE]])) is None


def test_the_certificate_rejects_a_break_on_a_pair_theta_maps_onto_itself():
    # theta swaps e0 and e1, so it maps the pair (0, 1) onto itself, and
    # theta[e0, e1] = [e1, e0] holds exactly when [e0, e1] = v(e0 - e1);
    # a pair that theta moves is checked a second time from its image
    theta = ((1, 1), (0, 1))
    labels = ("e0", "e1")
    delta, r = Cocommutator(2), TwoTensor()
    good = LieAlgebra.from_brackets(labels, {(0, 1): {0: ONE, 1: -ONE}})
    bad = LieAlgebra.from_brackets(labels, {(0, 1): {0: ONE, 1: ONE}})
    assert certify(good, delta, r, theta) is not None
    assert certify(bad, delta, r, theta) is None
    # on the gl(2) double: [Y12, y12] is such a pair
    alg, delta, r_skew = gln_objects(2)
    m = solvable_dim(2)
    Y = root_index(2, 1, 2)
    brackets = dict(alg.tensor.stored())
    coeffs = dict(brackets[(Y, m + Y)])
    k = min(coeffs)
    coeffs[k] = coeffs[k] * 2
    brackets[(Y, m + Y)] = coeffs
    broken = with_brackets(alg, brackets)
    assert certify(broken, delta, r_skew, self_duality(2)) is None


# --- one representative per orbit ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jacobi_representatives_are_one_triple_per_orbit(n):
    alg, _, _, theta = certified(n)
    full = alg._jacobi_terms(alg.dim)
    reduced = alg._jacobi_terms(theta.half)
    # the reduced table holds the full table's terms of the triples whose
    # middle index is below half, and exactly one triple of each orbit
    assert reduced == {key: terms for key, terms in full.items() if key[1] < theta.half}
    for key in full:
        partner = orbit_partner(key, theta.image)
        assert partner != key and partner in full
        assert (key in reduced) != (partner in reduced), key


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cocycle_representatives_are_one_pair_per_orbit(n):
    alg, _, _, theta = certified(n)
    dim = alg.dim
    partners = bialg._pair_partners
    assert all(list(partners(p, dim, None)) == list(range(p + 1, dim)) for p in range(dim))
    reps = {(p, q) for p in range(dim) for q in partners(p, dim, theta)}
    fixed = 0
    for p in range(dim):
        for q in range(p + 1, dim):
            partner = orbit_partner((p, q), theta.image)
            if partner == (p, q):
                fixed += 1
                assert (p, q) in reps
            else:
                assert ((p, q) in reps) != (partner in reps), (p, q)
    assert fixed == theta.half  # the pairs (p, theta p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_reduced_checks_match_the_full_loops_on_gln(monkeypatch, n):
    alg, delta, r_skew, theta = certified(n)
    jacobi = record_calls(monkeypatch, _LieAlgebra, "_jacobi_violations",
                          lambda self, below: below)
    cocycle = record_calls(monkeypatch, bialg, "_cocycle_violations",
                           lambda alg, delta, theta: theta)
    actions = record_calls(monkeypatch, bialg, "_nonzero_actions",
                           lambda *args, **kwargs: args[4] if len(args) > 4 else None)
    assert alg.check_jacobi(theta) == alg.check_jacobi()
    assert check_cocycle(alg, delta, theta) == check_cocycle(alg, delta)
    assert schouten_check(alg, r_skew, theta) == schouten_check(alg, r_skew)
    double = DoubleAlgebra(alg, theta.pairing, None)
    ad = check_ad_invariance(double, theta)
    assert ad == check_ad_invariance(double)
    # from n = 2 the anti-invariant convention fails: its counterexamples are
    # rebuilt from the triples (a, b, c) with a < half, with both signs of s_a s_b s_c
    assert ad.invariant_holds
    if n > 1:
        assert not ad.anti_invariant_holds
        assert any(v.residual.startswith("-") for v in ad.anti_invariant_counterexamples)
    assert alg.check_jacobi(theta).ok and check_cocycle(alg, delta, theta).ok
    # each reduced check evaluates its representatives only, then stops
    half = theta.half
    assert jacobi == [half, alg.dim, half]
    assert cocycle == [theta, None, theta]
    assert actions == [half, None]


# --- theta-symmetric breaks go through the fallback --------------------------------


def scaled_orbit(alg, theta, key, factor):
    """``alg`` with the bracket of ``key`` and of its theta image scaled by ``factor``."""
    brackets = dict(alg.tensor.stored())
    partner = orbit_partner(key, theta.image)
    for pair in {key, partner}:
        brackets[pair] = {k: v * factor for k, v in brackets[pair].items()}
    return with_brackets(alg, brackets)


def test_a_theta_symmetric_jacobi_break_is_reported_in_full():
    n = 3
    alg, delta, r_skew, theta = certified(n)
    Y12, Y23 = root_index(n, 1, 2), root_index(n, 2, 3)
    broken = scaled_orbit(alg, theta, (Y12, Y23), 2)
    recertified = certify(broken, delta, r_skew, self_duality(n))
    assert recertified is not None
    report = broken.check_jacobi(recertified)
    assert report == broken.check_jacobi() and not report.ok
    # the counterexamples of both members of an orbit are listed
    assert any(v.indices[1] >= theta.half for v in report.violations)
    assert any(v.indices[1] < theta.half for v in report.violations)


def test_a_theta_symmetric_cocycle_break_is_reported_in_full():
    n = 3
    alg, delta, r_skew, theta = certified(n)
    Y = root_index(n, 1, 2)
    values = dict(delta.items())
    for index in (Y, theta.image[Y]):
        values[index] = values[index].scale(2)
    doctored = Cocommutator(delta.dim, values)
    recertified = certify(alg, doctored, r_skew, self_duality(n))
    assert recertified is not None
    report = check_cocycle(alg, doctored, recertified)
    assert report == check_cocycle(alg, doctored) and not report.ok
    assert any(q >= theta.half for _, q in (v.indices for v in report.violations))


def test_a_theta_symmetric_schouten_break_is_reported_in_full():
    n = 3
    alg, delta, r_skew, theta = certified(n)
    m = theta.half
    Y = root_index(n, 1, 2)
    terms = dict(r_skew.items())
    for key in ((m + Y, Y), (Y, m + Y)):  # theta maps the wedge y^12 ^ Y12 onto itself
        terms[key] = terms[key] * 2
    doctored = TwoTensor(terms)
    recertified = certify(alg, delta, doctored, self_duality(n))
    assert recertified is not None
    report = schouten_check(alg, doctored, recertified)
    assert report == schouten_check(alg, doctored) and report.verdict == NOT_INVARIANT
    assert any(v.indices[0] >= m for v in report.violations)


def test_a_theta_symmetric_pairing_break_is_reported_in_full():
    n = 3
    alg, delta, r_skew, theta = certified(n)
    m = theta.half
    Y = root_index(n, 1, 2)
    # theta maps the entries <X1, x1> and <Y12, y12> onto themselves
    two = ONE + ONE
    pairing = changed(theta.pairing, {(0, m): two, (m, 0): two, (Y, m + Y): -ONE, (m + Y, Y): -ONE})
    recertified = certify(alg, delta, r_skew, self_duality(n), pairing)
    assert recertified is not None
    double = DoubleAlgebra(alg, pairing, None)
    report = check_ad_invariance(double, recertified)
    assert report == check_ad_invariance(double) and report.conventions() == ()
    assert any(v.indices[0] >= m for v in report.invariant_counterexamples)


def test_a_certificate_for_other_objects_is_not_used(monkeypatch):
    alg, delta, r_skew, theta = certified(3)
    jacobi = record_calls(monkeypatch, _LieAlgebra, "_jacobi_violations",
                          lambda self, below: below)
    copy = with_brackets(alg, dict(alg.tensor.stored()))
    assert copy.check_jacobi(theta).ok
    values = dict(delta.items())
    values.pop(min(values))  # a break that theta does not respect
    doctored = Cocommutator(delta.dim, values)
    report = check_cocycle(alg, doctored, theta)
    assert report == check_cocycle(alg, doctored) and not report.ok
    assert schouten_check(alg, -r_skew, theta) == schouten_check(alg, -r_skew)
    assert jacobi == [alg.dim]
    other = changed(theta.pairing, {(0, 1): ONE, (1, 0): ONE})  # no <x1, x2> to match
    double = DoubleAlgebra(alg, other, None)
    assert check_ad_invariance(double, theta) == check_ad_invariance(double)


@pytest.mark.parametrize("n", [2, 3])
def test_verify_suite_takes_the_reduced_checks(monkeypatch, n):
    jacobi = record_calls(monkeypatch, _LieAlgebra, "_jacobi_violations",
                          lambda self, below: (self.dim, below))
    cocycle = record_calls(monkeypatch, bialg, "_cocycle_violations",
                           lambda alg, delta, theta: theta is not None)
    assert all(check.passed for check in suite.verify_suite(n))
    m = solvable_dim(n)
    # the halves, the double (reduced) and the dual algebra of cojacobi
    assert sorted(jacobi) == sorted([(m, m), (m, m), (2 * m, m), (2 * m, 2 * m)])
    assert cocycle == [True]


def masked(checks):
    return [(c.name, c.status, c.counterexamples, c.detail, c.note) for c in checks]


def test_verify_suite_reports_the_same_when_the_certificate_fails(monkeypatch):
    expected = masked(suite.verify_suite(3))
    cocycle = record_calls(monkeypatch, bialg, "_cocycle_violations",
                           lambda alg, delta, theta: theta is not None)
    unsigned = tuple((q, 1) for q, _ in self_duality(3))
    monkeypatch.setattr(suite, "self_duality", lambda n: unsigned)
    assert masked(suite.verify_suite(3)) == expected
    assert cocycle == [False]


# --- random theta-symmetric algebras -------------------------------------------------

VALUES = (ONE, -ONE, SQRT2, Scalar(Fraction(1, 2)), Scalar(0, 0, 1), Scalar(Fraction(-1, 3), 1))


@st.composite
def theta_symmetric_algebras(draw):
    """(algebra, theta, perturbed): random brackets on some pairs, each with
    its theta image, then, when ``perturbed``, one coefficient scaled or one
    bracket added without its image."""
    half = draw(st.integers(1, 3))
    dim = 2 * half
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=half, max_size=half))
    theta = tuple((p + half, s) for p, s in enumerate(signs)) + tuple(enumerate(signs))
    image = [q for q, _ in theta]
    sign = [s for _, s in theta]
    pairs = [(p, q) for p in range(dim) for q in range(p + 1, dim)]
    coeffs = st.dictionaries(st.integers(0, dim - 1), st.sampled_from(VALUES), min_size=1, max_size=3)
    brackets = {}
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))):
        if (a, b) in brackets:
            continue  # the image of a pair drawn before
        values = draw(coeffs)
        x, y = image[a], image[b]
        if (y, x) == (a, b):
            # theta maps the pair onto itself: [e_a, e_b] has c^(theta k) = -s_k c^k
            values = {k: v for k, v in values.items() if k < half}
            values = {**values, **{image[k]: v if sign[k] < 0 else -v for k, v in values.items()}}
            if values:
                brackets[(a, b)] = values
        else:
            brackets[(a, b)] = values
            brackets[(min(x, y), max(x, y))] = {
                image[k]: v * (sign[a] * sign[b] * sign[k] * (1 if x < y else -1))
                for k, v in values.items()
            }
    perturbed = draw(st.booleans())
    if perturbed:
        empty = [pair for pair in pairs if pair not in brackets]
        if brackets and (not empty or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(brackets)))
            k = draw(st.sampled_from(sorted(brackets[key])))
            brackets[key] = {**brackets[key], k: brackets[key][k] * 2}
        else:
            brackets[draw(st.sampled_from(empty))] = {draw(st.integers(0, dim - 1)): ONE}
    algebra = LieAlgebra.from_brackets([f"e{k}" for k in range(dim)], brackets)
    return algebra, theta, perturbed


@settings(deadline=None, max_examples=120)
@given(theta_symmetric_algebras())
def test_the_certificate_accepts_exactly_the_theta_symmetric_algebras(case):
    algebra, theta, perturbed = case
    delta, r = Cocommutator(algebra.dim), TwoTensor()
    certificate = certify(algebra, delta, r, theta)
    assert (certificate is None) == perturbed
    if certificate is not None:
        # most of these break Jacobi: the reduced check falls back to the full loop
        assert algebra.check_jacobi(certificate) == algebra.check_jacobi()
