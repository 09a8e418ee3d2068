"""Documented input limits: oversized input fails fast with a parse error.

No test allocates at a limit: the checks run on the literal's digit count
and the header's ``dim`` before anything is built.
"""

import io

import pytest

from liedouble import AlgebraFileError, ScalarParseError, gln_labels, parse_algebra_file
from liedouble.algfile import MAX_DIM
from liedouble.cli import MAX_N, run_command
from liedouble.scalars import MAX_LITERAL_DIGITS, scalar_parse


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
    assert err.startswith("error: line 3")
    assert "Traceback" not in err


def test_max_dim_admits_the_largest_emitted_double():
    assert MAX_DIM >= len(gln_labels(MAX_N))


def test_dim_above_the_limit_exits_2_on_the_header(tmp_path):
    path = tmp_path / "big.alg"
    path.write_text(f"algebra big dim {MAX_DIM + 1}\n", encoding="utf-8")
    code, out, err = run(["check-jacobi", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: line 1, column 17: dim exceeds the limit of {MAX_DIM}\n"


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
