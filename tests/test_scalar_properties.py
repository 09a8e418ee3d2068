"""Property tests of Scalar: the field laws and the Python value contracts.

These pin the semantics of the current representation (four Fractions), so
a later change of representation has to keep every one of them.
"""

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
