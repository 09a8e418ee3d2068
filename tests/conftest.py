import pytest
from hypothesis import Phase, settings

from liedouble import (
    HALF_SQRT2,
    LieAlgebra,
    ManinTriple,
    build_double,
)

K = HALF_SQRT2  # 1/sqrt2, the load-bearing normalization

# tests/mutants.py only needs to know that a property fails, not its smallest
# counterexample: no shrinking and no example database
settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)


@pytest.fixture(scope="session")
def pair3():
    """The 3-dimensional solvable dual pair in Z/z labels."""
    plus = LieAlgebra.from_brackets(
        ("Z1", "Z2", "Z3"), {(0, 2): {2: K}, (1, 2): {2: -K}}
    )
    minus = LieAlgebra.from_brackets(
        ("z1", "z2", "z3"), {(0, 2): {2: -K}, (1, 2): {2: K}}
    )
    return plus, minus


@pytest.fixture(scope="session")
def triple3(pair3):
    plus, minus = pair3
    return ManinTriple(plus, minus)


@pytest.fixture(scope="session")
def double3(triple3):
    return build_double(triple3)
