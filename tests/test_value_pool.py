"""One value pool per ``verify_suite(n)`` call.

Inside ``liealg.value_pool()`` every kernel computes through one scalar
table, which returns each value it makes as one canonical object.  Outside
a pool each kernel call makes its own table.  The tests check the scope
(one table for the whole call, the chain check's n + 1 build included, and
none left open after it returns or raises), that the pool changes no
report, and that the table makes one object per value.
"""

import collections
import sys
from fractions import Fraction

import pytest

from liedouble import ONE, ZERO, Scalar, suite
from liedouble import glnfactory, liealg
from liedouble.liealg import scalar_table, value_pool
from test_kernels import tabled_modules


def report_without_millis(checks):
    return [(c.name, c.status, c.counterexamples, c.detail, c.note) for c in checks]


def assert_no_pool_open():
    assert liealg._POOL.get() is None
    assert scalar_table() is not scalar_table()


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_suite_reports_the_same_with_a_fresh_table_per_kernel_call(n):
    pooled = report_without_millis(suite.verify_suite(n))
    with pytest.MonkeyPatch.context() as patch:
        for module in tabled_modules():
            patch.setattr(module, "scalar_table", liealg._new_table)
        fresh = report_without_millis(suite.verify_suite(n))
    assert pooled == fresh
    assert all(status == "pass" for _, status, *_ in pooled)


def test_verify_suite_computes_through_one_table_and_closes_it(monkeypatch):
    tables = []

    def spied(module, name):
        original = getattr(module, name)

        def spy(*args):
            tables.append(scalar_table())
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    spied(suite, "check_cocycle")
    spied(suite, "check_compatibility")
    spied(glnfactory, "build_gln_triple")  # the chain check's sizes n and n + 1
    assert_no_pool_open()
    assert all(check.passed for check in suite.verify_suite(2))
    assert len(tables) == 4 and all(table is tables[0] for table in tables)
    assert_no_pool_open()
    first = tables[0]
    tables.clear()
    assert all(check.passed for check in suite.verify_suite(2))
    assert len(tables) == 4 and tables[0] is not first  # each call opens its own pool
    assert_no_pool_open()


def test_verify_suite_closes_its_pool_when_a_check_raises(monkeypatch):
    def broken(*args):
        assert liealg._POOL.get() is not None
        raise RuntimeError("check failed to run")

    monkeypatch.setattr(suite, "check_cocycle", broken)
    with pytest.raises(RuntimeError, match="check failed to run"):
        suite.verify_suite(2)
    assert_no_pool_open()


def test_pools_nest_and_each_closes_its_own():
    assert_no_pool_open()
    with value_pool():
        outer = scalar_table()
        assert scalar_table() is outer
        with value_pool():
            assert scalar_table() is not outer
        assert scalar_table() is outer
    assert_no_pool_open()


def test_a_value_pool_makes_one_object_per_value():
    x1, x2 = Scalar(1, Fraction(1, 2)), Scalar(1, Fraction(1, 2))
    y = Scalar(0, 0, 3, -1)
    with value_pool():
        mul, inverse, mul_into, neg = scalar_table()
        assert mul(x1, ONE) is x1  # the first object of a value is its canonical one
        assert mul(x2, ONE) is x1 and mul(ONE, x2) is x1
        assert neg(x1) == -x1 and neg(x2) is neg(x1)
        assert neg(neg(x2)) is x1
        assert neg(ZERO) is ZERO
        assert inverse(inverse(x2)) is x1
        assert mul(x1, y) == x1 * y and mul(x2, Scalar(0, 0, 3, -1)) is mul(x1, y)
        acc = {0: x2}
        mul_into(acc, 0, x2, Scalar(-1))  # x + (-x)
        assert acc == {}
        mul_into(acc, 0, y, ONE)
        mul_into(acc, 0, neg(y), Scalar(2))  # y - 2y
        assert acc[0] is neg(y)
        # components c and d tell values apart as a and b do
        assert neg(Scalar(1, 0, 1)) == Scalar(-1, 0, -1)
        assert neg(Scalar(1, 0, 0, 1)) == Scalar(-1, 0, 0, -1)
        assert neg(Scalar(1)) is not neg(Scalar(1, 0, 1)) is not neg(Scalar(1, 0, 0, 1))


def test_verify_suite_negates_each_value_once(monkeypatch):
    # every negation of a verify goes through its one pool, which negates each
    # value once: the chain check's rebuilds find the negatives already made
    made = collections.Counter()
    original = Scalar.__neg__

    def counted(self):
        caller = sys._getframe(1).f_code
        if caller.co_name == "neg" and caller.co_filename == liealg.__file__:
            made[self] += 1
        return original(self)

    monkeypatch.setattr(Scalar, "__neg__", counted)
    assert all(check.passed for check in suite.verify_suite(3))
    assert made and max(made.values()) == 1
