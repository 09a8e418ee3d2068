"""Property tests of the sparse tensor types and their accumulate helper.

Every sum is compared with a naive reference: add the values per key with
Scalar arithmetic, then drop the keys whose total is zero.  Streams repeat
keys and carry negated copies of some of their own terms, so cancellation
to zero is exercised on every run.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liedouble import ZERO, Scalar, StructureTensor, ThreeTensor, TwoTensor, Vector
from liedouble.liealg import add_into

scalars = st.builds(
    lambda a, b, d: Scalar(a, Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)
indices = st.integers(0, 3)
KINDS = [
    (Vector, indices),
    (TwoTensor, st.tuples(indices, indices)),
    (ThreeTensor, st.tuples(indices, indices, indices)),
]


@st.composite
def streams(draw, keys):
    """(key, value) terms, then negated copies of some, in random order."""
    terms = draw(st.lists(st.tuples(keys, scalars), max_size=12))
    cancelled = [(k, -v) for k, v in terms if draw(st.booleans())]
    return draw(st.permutations(terms + cancelled))


def naive_sum(stream) -> dict:
    totals = {}
    for key, value in stream:
        totals[key] = totals.get(key, ZERO) + value
    return {key: value for key, value in totals.items() if value}


@settings(deadline=None)
@given(streams(st.tuples(indices, indices)))
def test_add_into_matches_naive_sum(stream):
    acc = {}
    for key, value in stream:
        add_into(acc, key, value)
    assert acc == naive_sum(stream)
    assert all(acc.values())


@pytest.mark.parametrize("cls, keys", KINDS, ids=[cls.__name__ for cls, _ in KINDS])
@settings(deadline=None)
@given(data=st.data())
def test_sum_and_difference_match_naive_sum(cls, keys, data):
    stream = data.draw(streams(keys))
    cut = data.draw(st.integers(0, len(stream)))
    left, right = stream[:cut], stream[cut:]
    x, y = cls(naive_sum(left)), cls(naive_sum(right))
    total = x + y
    assert total == cls(naive_sum(stream))
    assert all(value for _, value in total.items())
    difference = x - y
    assert difference == cls(naive_sum(left + [(k, -v) for k, v in right]))
    assert all(value for _, value in difference.items())
    assert (x - x).is_zero()


@pytest.mark.parametrize("cls, keys", KINDS, ids=[cls.__name__ for cls, _ in KINDS])
@settings(deadline=None)
@given(data=st.data())
def test_equal_tensors_hash_equal(cls, keys, data):
    stream = data.draw(streams(keys))
    cut = data.draw(st.integers(0, len(stream)))
    x, y = cls(naive_sum(stream[:cut])), cls(naive_sum(stream[cut:]))
    assert x + y == y + x
    assert hash(x + y) == hash(y + x)
    entries = naive_sum(stream)
    backwards = cls(dict(reversed(list(entries.items()))))
    assert backwards == cls(entries)
    assert hash(backwards) == hash(cls(entries))


def test_equality_is_per_type():
    assert Vector({}) != TwoTensor({})
    assert TwoTensor({}) != ThreeTensor({})
    assert Vector({0: 1}) == Vector({0: Scalar(1)})
    assert hash(Vector({0: 1})) == hash(Vector({0: Fraction(2, 2)}))


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(indices, indices).filter(lambda pq: pq[0] != pq[1]),
        st.dictionaries(indices, scalars, max_size=3),
        max_size=6,
    )
)
def test_oriented_yields_each_stored_pair_both_ways(entries):
    tensor = StructureTensor(
        {(p, q): coeffs for (p, q), coeffs in entries.items() if (q, p) not in entries or p < q}
    )
    expected = {}
    for (p, q), coeffs in tensor.stored():
        expected[(p, q)] = dict(coeffs)
        expected[(q, p)] = {r: -v for r, v in coeffs.items()}
    oriented = [(key, dict(coeffs)) for key, coeffs in tensor.oriented()]
    assert dict(oriented) == expected
    assert len(oriented) == len(expected)
    assert all(tensor.pair(*key) == coeffs for key, coeffs in oriented)
