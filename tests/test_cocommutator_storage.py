"""A cocommutator stores each value as its sorted half; it must read like full storage.

``FullCocommutator`` is the reference: it keeps every value as the full
antisymmetric TwoTensor, and builds the dual algebra from the q < r terms of
those.  ``Cocommutator`` must give the same ``items()``, ``get``, ``==``,
value text and dual algebra on random antisymmetric values over dimensions
2..6, with rational and four-component coefficients.  Tensors read back from
a half must also keep the Python contract that equal values hash equal.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liedouble import (
    ONE,
    Cocommutator,
    LieAlgebra,
    Scalar,
    StructureTensor,
    ThreeTensor,
    TwoTensor,
    dual_algebra,
)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
rationals = st.builds(Scalar, fractions)
four_components = st.builds(Scalar, fractions, fractions, fractions, fractions)
coefficients = st.one_of(rationals, four_components).filter(bool)


class FullCocommutator:
    """Reference: each nonzero value kept as its full antisymmetric TwoTensor."""

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.entries = {}
        for p, value in entries.items():
            value = value if isinstance(value, TwoTensor) else TwoTensor(value)
            assert value.is_antisymmetric()
            if value:
                self.entries[p] = value

    def get(self, index: int) -> TwoTensor:
        return self.entries.get(index, TwoTensor())

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return self.dim == other.dim and self.entries == other.entries

    def dual_algebra(self, labels) -> LieAlgebra:
        brackets = {}
        for p, value in self.items():
            for (q, r), c in value.items():
                if q < r:
                    brackets.setdefault((q, r), {})[p] = c
        return LieAlgebra(labels, StructureTensor(brackets))


@st.composite
def antisymmetric_values(draw, dim: int):
    """A full antisymmetric value on range(dim), as a TwoTensor or a plain dict; may be 0."""
    pairs = [(q, r) for q in range(dim) for r in range(q + 1, dim)]
    terms = {}
    for q, r in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)):
        value = draw(coefficients)
        terms[(q, r)], terms[(r, q)] = value, -value
    return TwoTensor(terms) if draw(st.booleans()) else terms


@st.composite
def cocommutator_entries(draw):
    """(dim, entries): dim in 2..6 and antisymmetric values at some indices."""
    dim = draw(st.integers(2, 6))
    indices = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
    return dim, {p: draw(antisymmetric_values(dim)) for p in indices}


def changed(dim: int, entries: dict, change: str):
    """``(dim, entries)`` with one value scaled, dropped or negated, or the dimension grown."""
    entries = {p: v if isinstance(v, TwoTensor) else TwoTensor(v) for p, v in entries.items()}
    nonzero = sorted(p for p, value in entries.items() if value)
    if change == "dim":
        return dim + 1, entries
    if nonzero and change == "drop":
        del entries[nonzero[0]]
    elif nonzero and change == "scale":
        entries[nonzero[0]] = entries[nonzero[0]].scale(Scalar(2))
    elif nonzero and change == "negate":
        entries[nonzero[-1]] = -entries[nonzero[-1]]
    return dim, entries


@settings(deadline=None, max_examples=150)
@given(cocommutator_entries(), st.sampled_from(["none", "dim", "drop", "scale", "negate"]))
def test_sorted_halves_read_like_full_storage(case, change):
    dim, entries = case
    got, want = Cocommutator(dim, entries), FullCocommutator(dim, entries)
    labels = [f"e{k}" for k in range(dim)]
    assert got.items() == want.items()
    assert [(p, v.format(labels)) for p, v in got.items()] == [
        (p, v.format(labels)) for p, v in want.items()
    ]
    for p in range(dim):
        assert got.get(p) == want.get(p)
        assert got.get(p).format(labels) == want.get(p).format(labels)
    dual, reference = dual_algebra(got, labels), want.dual_algebra(labels)
    assert (dual.labels, dual.tensor) == (reference.labels, reference.tensor)
    other_dim, other = changed(dim, entries, change)
    same = got == Cocommutator(other_dim, other)
    assert same == (want == FullCocommutator(other_dim, other))
    assert same == (change == "none" or not want.items() and change != "dim")
    assert got == Cocommutator(dim, dict(got.items()))


@settings(deadline=None, max_examples=100)
@given(cocommutator_entries(), st.randoms(use_true_random=False))
def test_hash_agrees_with_equality_for_two_and_three_tensors(case, rnd):
    dim, entries = case
    delta = Cocommutator(dim, entries)
    for p in range(dim):
        value = delta.get(p)  # mirrored from the stored half
        terms = value.items()
        rnd.shuffle(terms)
        rebuilt = TwoTensor(dict(terms))  # same terms, another insertion order
        assert rebuilt == value and hash(rebuilt) == hash(value)
        if terms:  # one coefficient changed: unequal
            key, coeff = terms[0]
            assert TwoTensor({**dict(terms), key: coeff + ONE}) != value
    three = {(p,) + key: c for p, value in delta.items() for key, c in value.items()}
    shuffled = list(three.items())
    rnd.shuffle(shuffled)
    a, b = ThreeTensor(three), ThreeTensor(dict(shuffled))
    assert a == b and hash(a) == hash(b)
    assert (a == ThreeTensor()) == (not three)


# a small pool, so that equal pairs are drawn often
small_terms = st.dictionaries(
    st.sampled_from([(0, 1), (1, 0), (0, 2)]), st.sampled_from([1, -1, 2]), max_size=3
)


@settings(deadline=None, max_examples=200)
@given(small_terms, small_terms)
def test_equal_small_tensors_hash_equal(x, y):
    for kind, lift in ((TwoTensor, lambda k: k), (ThreeTensor, lambda k: k + (3,))):
        a = kind({lift(k): Scalar(v) for k, v in x.items()})
        b = kind({lift(k): Fraction(v) for k, v in reversed(list(y.items()))})
        if a == b:
            assert hash(a) == hash(b)
        assert (a == b) == (x == y)
