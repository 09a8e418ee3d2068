"""Property tests of Scalar: the field laws and the Python value contracts.

These pin the semantics of the current representation (four Fractions), so
a later change of representation has to keep every one of them.
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liedouble import ONE, ZERO, Scalar, scalar_parse

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
scalars = st.builds(Scalar, fractions, fractions, fractions, fractions)
sparse_scalars = st.builds(
    Scalar,
    fractions,
    st.one_of(st.just(Fraction(0)), fractions),
    st.one_of(st.just(Fraction(0)), fractions),
    st.one_of(st.just(Fraction(0)), fractions),
)
any_scalar = st.one_of(scalars, sparse_scalars)
# b = c = d = 0, with 0 and +-1 drawn often
small_ints = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-40, 40))
rationals = st.one_of(
    st.builds(Scalar, st.one_of(small_ints, fractions)),
    st.sampled_from([ZERO, ONE, -ONE]),
)


@settings(deadline=None)
@given(any_scalar, any_scalar, any_scalar)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO
    assert x - y == x + (-y)


@settings(deadline=None)
@given(any_scalar)
def test_inverse_is_a_two_sided_inverse(x):
    if not x:
        return
    assert x * x.inverse() == ONE
    assert x.inverse() * x == ONE
    assert x.inverse().inverse() == x
    assert ONE / x == x.inverse()


@settings(deadline=None)
@given(any_scalar, any_scalar)
def test_hash_agrees_with_equality(x, y):
    # the same value reached two ways is equal and hashes equal
    round_trip = (x + y) - y
    assert round_trip == x
    assert hash(round_trip) == hash(x)
    if y:
        quotient = (x * y) / y
        assert quotient == x
        assert hash(quotient) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


@settings(deadline=None)
@given(fractions)
def test_rational_scalars_hash_like_the_numbers_they_equal(q):
    value = Scalar(q)
    assert value == q
    assert hash(value) == hash(q)
    assert len({value, q}) == 1
    if q.denominator == 1:
        number = int(q)
        assert value == number
        assert hash(value) == hash(number)
        assert len({value, number}) == 1


@settings(deadline=None)
@given(any_scalar)
def test_parse_of_print_is_the_identity(x):
    assert scalar_parse(str(x)) == x
    assert str(scalar_parse(str(x))) == str(x)


def components(x):
    return (x.a, x.b, x.c, x.d)


@settings(deadline=None)
@given(any_scalar, any_scalar)
def test_zero_skipping_arithmetic_matches_componentwise_fractions(x, y):
    # the reference: every component added, subtracted or negated, zeros too
    pairs = list(zip(components(x), components(y)))
    for got, want in (
        (x + y, [p + q for p, q in pairs]),
        (x - y, [p - q for p, q in pairs]),
        (-x, [-p for p in components(x)]),
    ):
        assert components(got) == tuple(want)
        assert all(type(part) is Fraction for part in components(got))


@settings(deadline=None)
@given(any_scalar)
def test_zero_and_negation_laws(x):
    assert x + 0 == x
    assert 0 + x == x
    assert x - 0 == x
    assert x + ZERO == x
    assert -(-x) == x
    zero = x + (-x)
    assert zero == ZERO
    assert zero.is_zero()
    assert not zero
    assert not (x - x)
    assert bool(x) == (x != ZERO)


@settings(deadline=None)
@given(st.integers(-50, 50), st.integers(1, 12))
def test_hash_agrees_with_equality_for_integer_valued_and_negative_rationals(p, q):
    value = Scalar(Fraction(p, q))
    assert hash(value) == hash(Fraction(p, q))
    assert hash(-value) == hash(Fraction(-p, q))
    if p % q == 0:
        assert hash(value) == hash(p // q)
        assert value == p // q
    # the same value reached through arithmetic, zero components included
    reached = (value + Scalar(0, 1, 1, 1)) - Scalar(0, 1, 1, 1)
    assert reached == value
    assert hash(reached) == hash(value)


def test_hash_of_minus_one():
    # CPython hashes -1 as -2; a Scalar -1 must follow the int
    for value in (Scalar(-1), -ONE, ZERO - ONE, Scalar(0, 0, 1) * Scalar(0, 0, 1)):
        assert value == -1
        assert hash(value) == hash(-1) == hash(Fraction(-1))
        assert len({value, -1, Fraction(-1)}) == 1


def reference_mul(x, y):
    """The components of x * y from all sixteen component products, zeros too."""
    a1, b1, c1, d1 = components(x)
    a2, b2, c2, d2 = components(y)
    # (sqrt2)^2 = 2, i^2 = -1, (i*sqrt2)^2 = -2
    return (
        a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + 2 * b1 * d2 + 2 * d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def assert_components(got, want):
    assert components(got) == want
    assert all(type(part) is Fraction for part in components(got))


@settings(deadline=None)
@given(st.one_of(rationals, any_scalar), any_scalar, small_ints)
def test_multiply_matches_the_sixteen_product_formula(x, y, k):
    # x is drawn rational about half the time, so both paths of __mul__ run
    want = reference_mul(x, y)
    assert_components(x * y, want)
    assert_components(y * x, want)
    want = reference_mul(Scalar(k), y)
    assert_components(k * y, want)
    assert_components(y * k, want)


@contextmanager
def counting(method):
    """Count the calls of one ``Fraction`` method while the block runs."""
    calls = []
    original = getattr(Fraction, method)

    def counted(*args):
        calls.append(None)
        return original(*args)

    setattr(Fraction, method, counted)
    try:
        yield calls
    finally:
        setattr(Fraction, method, original)


@settings(deadline=None)
@given(rationals, any_scalar, small_ints)
def test_a_rational_factor_forms_one_fraction_product_per_nonzero_component(q, x, k):
    nonzero = sum(1 for part in components(x) if part)
    for product in (lambda: q * x, lambda: x * q, lambda: k * x, lambda: x * k):
        with counting("__mul__") as forward, counting("__rmul__") as reflected:
            product()
        formed = len(forward) + len(reflected)
        if x.b or x.c or x.d:
            assert formed == nonzero
        else:
            # two rationals: one product, or none when a zero passes through
            assert formed <= 1


@settings(deadline=None)
@given(any_scalar)
def test_truth_tests_each_component_once(x):
    parts = components(x)
    tested = next((k + 1 for k, part in enumerate(parts) if part), 4)
    for truth in (lambda: bool(x), x.is_zero):
        with counting("__bool__") as calls:
            truth()
        assert len(calls) == tested
