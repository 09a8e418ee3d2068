"""Documented input limits: oversized input fails fast with a parse error.

No test allocates at a limit: the checks run on the literal's digit count,
each computed value's digit count and the header's ``dim`` before anything
is built.
"""

import io

import pytest

from liedouble import (
    AlgebraFileError,
    ScalarParseError,
    f_index,
    gln_labels,
    parse_algebra_file,
    solvable_labels,
)
from liedouble.algfile import MAX_DIM
from liedouble.cli import MAX_N, run_command
from liedouble.scalars import MAX_LITERAL_DIGITS, MAX_NESTING_DEPTH, rational, scalar_parse


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_literal_digit_limit_is_documented_and_below_python_int_limit():
    assert 0 < MAX_LITERAL_DIGITS <= 4300


def test_long_literal_is_a_parse_error_at_its_position():
    with pytest.raises(ScalarParseError) as info:
        scalar_parse("2*sqrt2 + " + "7" * 5000)
    assert info.value.position == len("2*sqrt2 + ")


def test_literal_of_exactly_the_limit_parses():
    value = scalar_parse("9" * MAX_LITERAL_DIGITS + "*i")
    assert value.c == 10**MAX_LITERAL_DIGITS - 1
    with pytest.raises(ScalarParseError):
        scalar_parse("9" * (MAX_LITERAL_DIGITS + 1) + "*i")


def test_long_coefficient_in_a_file_exits_2(tmp_path):
    path = tmp_path / "long.alg"
    path.write_text(
        "algebra a dim 2\nbasis A B\n[A,B] = " + "3" * 5000 + "*B\n", encoding="utf-8"
    )
    with pytest.raises(AlgebraFileError):
        parse_algebra_file(path.read_text(encoding="utf-8"))
    code, out, err = run(["check-jacobi", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: line 3")
    assert "Traceback" not in err


def test_max_dim_admits_the_largest_emitted_double():
    assert MAX_DIM >= len(gln_labels(MAX_N))
    for n in range(1, MAX_N + 2):
        plus, minus = solvable_labels(n), solvable_labels(n, lower=True)
        for labels in (plus, minus, plus + minus, gln_labels(n)):
            assert len(set(labels)) == len(labels), n
    assert gln_labels(9)[-1] == "F98"  # labels up to n = 9 are unchanged
    assert f_index(11, 1, 11) != f_index(11, 11, 1)
    assert gln_labels(11)[f_index(11, 1, 11)] == "F1_11"
    assert gln_labels(11)[f_index(11, 11, 1)] == "F11_1"


def test_coefficient_value_is_bounded_like_a_literal():
    nines = "9" * MAX_LITERAL_DIGITS
    assert scalar_parse(f"1/{nines} + {nines}*i").c == 10**MAX_LITERAL_DIGITS - 1
    for text in (f"({nines})*({nines})", f"1/{nines}/7", f"1/{nines} + 1/7"):
        with pytest.raises(ScalarParseError, match="value exceeds the limit"):
            scalar_parse(text)


def test_coefficient_of_too_many_digits_exits_2_before_the_double(tmp_path):
    product = "*".join(["(" + "9" * MAX_LITERAL_DIGITS + ")"] * 5)
    plus = tmp_path / "plus.alg"
    plus.write_text(f"algebra p dim 2\nbasis A B\n[A,B] = {product}*B\n", encoding="utf-8")
    minus = tmp_path / "minus.alg"
    minus.write_text("algebra m dim 2\nbasis a b\n", encoding="utf-8")
    code, out, err = run(["double", "--plus", str(plus), "--minus", str(minus)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    # the column of the first '*' whose product has too many digits
    column = len("[A,B] = (") + MAX_LITERAL_DIGITS + len(")*")
    assert err.startswith(f"error: {plus}: line 3, column {column}: bad coefficient")
    assert "value exceeds the limit" in err


def test_bad_coefficient_error_quotes_a_short_prefix():
    with pytest.raises(AlgebraFileError) as info:
        parse_algebra_file("algebra a dim 2\nbasis A B\n[A,B] = " + "3" * 5000 + "*B\n")
    message = str(info.value)
    assert "'" + "3" * 37 + "...'" in message
    assert len(message) < 200


def test_dim_above_the_limit_exits_2_on_the_header(tmp_path):
    path = tmp_path / "big.alg"
    path.write_text(f"algebra big dim {MAX_DIM + 1}\n", encoding="utf-8")
    code, out, err = run(["check-jacobi", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: line 1, column 17: dim exceeds the limit of {MAX_DIM}\n"


def test_dim_limit_is_checked_before_converting_a_long_number():
    with pytest.raises(AlgebraFileError, match="dim exceeds"):
        parse_algebra_file("algebra big dim " + "1" * 5000 + "\n")
    with pytest.raises(AlgebraFileError, match="dim exceeds"):
        parse_algebra_file("algebra big dim " + "0" * 5000 + "157\n")


def test_dim_at_the_limit_is_accepted():
    labels = " ".join(f"X{k}" for k in range(MAX_DIM))
    parsed = parse_algebra_file(f"algebra top dim {MAX_DIM}\nbasis {labels}\n")
    assert parsed.dim == MAX_DIM
    assert parse_algebra_file("algebra zero dim 000\n").dim == 0


def test_unexpected_token_error_quotes_a_short_prefix(tmp_path):
    with pytest.raises(ScalarParseError) as info:
        scalar_parse("5 " + "9" * MAX_LITERAL_DIGITS)
    assert str(info.value) == "unexpected token '" + "9" * 37 + "...' (at position 2)"
    assert info.value.position == 2
    path = tmp_path / "token.alg"
    text = "algebra a dim 2\nbasis A B\n[A,B] = 5 " + "9" * MAX_LITERAL_DIGITS + "*B\n"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["check-jacobi", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    prefix = f"error: {path}: "
    assert err.startswith(prefix)
    assert len(err) - len(prefix) < 200


def test_nesting_limit_admits_its_bound_and_rejects_the_next_parenthesis():
    assert scalar_parse("(" * MAX_NESTING_DEPTH + "3/4" + ")" * MAX_NESTING_DEPTH) == rational(3, 4)
    too_deep = "(" * (MAX_NESTING_DEPTH + 1) + "1" + ")" * (MAX_NESTING_DEPTH + 1)
    with pytest.raises(ScalarParseError) as info:
        scalar_parse("2*" + too_deep)
    # the error sits at the first '(' past the bound
    assert info.value.position == len("2*") + MAX_NESTING_DEPTH
    assert f"limit of {MAX_NESTING_DEPTH}" in str(info.value)


def test_deeply_nested_coefficient_in_a_file_exits_2(tmp_path):
    path = tmp_path / "deep.alg"
    path.write_text(
        "algebra a dim 2\nbasis A B\n[A,B] = " + "(" * 3000 + "1" + ")" * 3000 + "*B\n",
        encoding="utf-8",
    )
    code, out, err = run(["check-jacobi", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: line 3, column ")
    assert err.endswith(
        f": bad coefficient '{'(' * 37}...': parentheses nest deeper than the limit "
        f"of {MAX_NESTING_DEPTH} (at position {MAX_NESTING_DEPTH})\n"
    )
    assert err.count("\n") == 1
