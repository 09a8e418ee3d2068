import io
import re

import pytest

from liedouble import (
    HALF_SQRT2,
    AlgebraFile,
    AlgebraFileError,
    Scalar,
    Vector,
    build_gln_tn,
    build_s_plus,
    format_algebra_file,
    from_algebra,
    parse_algebra_file,
)
from liedouble.cli import run_command

K = HALF_SQRT2

RANK_TWO_PLUS = """# positive solvable half
algebra splus2 dim 3
basis Z1 Z2 Z3
[Z1,Z3] = 1/2*sqrt2*Z3
[Z2,Z3] = -1/2*sqrt2*Z3
"""


def test_parse_rank_two_file():
    parsed = parse_algebra_file(RANK_TWO_PLUS)
    assert parsed.name == "splus2"
    assert parsed.dim == 3
    assert parsed.labels == ("Z1", "Z2", "Z3")
    assert len(parsed.brackets) == 2
    algebra = parsed.to_algebra()
    assert algebra.bracket_basis(0, 2) == Vector({2: K})
    assert algebra.bracket_basis(1, 2) == Vector({2: -K})


def test_one_leading_byte_order_mark_is_skipped():
    assert parse_algebra_file("\ufeff" + RANK_TWO_PLUS) == parse_algebra_file(RANK_TWO_PLUS)
    with pytest.raises(AlgebraFileError, match="line 2, column 17: dim exceeds"):
        parse_algebra_file("\ufeff\nalgebra big dim 9999\n")
    with pytest.raises(AlgebraFileError, match="line 1, column 1: expected 'algebra"):
        parse_algebra_file("\ufeff\ufeffalgebra a dim 1\n")


def test_empty_bracket_list_is_abelian():
    parsed = parse_algebra_file("algebra t4 dim 4\nbasis T1 T2 T3 T4\n")
    algebra = parsed.to_algebra()
    assert algebra.dim == 4
    assert not list(algebra.tensor.stored())
    assert algebra.check_jacobi().ok


def test_roundtrip_through_printer():
    parsed = parse_algebra_file(RANK_TWO_PLUS)
    printed = format_algebra_file(parsed)
    assert parse_algebra_file(printed) == parsed
    # canonical output is stable under a second pass
    assert format_algebra_file(parse_algebra_file(printed)) == printed


def test_parse_canonicalizes_terms():
    text = (
        "algebra a dim 3\n"
        "basis A B C\n"
        "[C,A] = (1/4 + 1/4)*C + B - B + 2*B\n"
    )
    parsed = parse_algebra_file(text)
    decl = parsed.brackets[0]
    assert decl.left == "C" and decl.right == "A"
    # terms are sorted by basis index with merged coefficients
    assert [(label, str(value)) for label, value in decl.terms] == [
        ("B", "2"),
        ("C", "1/2"),
    ]


def test_explicit_zero_bracket():
    text = "algebra a dim 2\nbasis A B\n[A,B] = 0\n"
    parsed = parse_algebra_file(text)
    assert parsed.brackets[0].terms == ()
    assert not list(parsed.to_algebra().tensor.stored())
    # redeclaring the zero bracket is still a duplicate
    with pytest.raises(AlgebraFileError):
        parse_algebra_file(text + "[B,A] = A\n")


def test_duplicate_and_reversed_declarations():
    base = "algebra a dim 2\nbasis A B\n[A,B] = A\n"
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file(base + "[A,B] = B\n")
    assert err.value.line == 4
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file(base + "[B,A] = B\n")
    assert "antisymmetry" in str(err.value)


def test_unknown_label_and_dim_mismatch():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file("algebra a dim 2\nbasis A B\n[A,C] = A\n")
    assert err.value.line == 3
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("algebra a dim 2\nbasis A B\n[A,B] = A + D\n")
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file("algebra a dim 3\nbasis A B\n")
    assert err.value.line == 2


def test_diagonal_bracket_rejected():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file("algebra a dim 2\nbasis A B\n[A,A] = B\n")
    assert "antisymmetry" in str(err.value)


def test_lexical_errors_carry_position():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file("algebra a dim 2\nbasis A B\n[A,B] = 1/0*A\n")
    assert err.value.line == 3
    assert err.value.column > 1
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file("algebra a dim 2\nbasis A B\nnot a declaration\n")
    assert err.value.line == 3
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("basis A B\n")


def test_basis_keyword_must_stand_alone():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_file("algebra a dim 2\nbasisA B\n[A,B] = A\n")
    assert str(err.value) == "line 2, column 1: unrecognized declaration 'basisA B'"
    assert parse_algebra_file("algebra a dim 2\nbasis\tA B\n").labels == ("A", "B")
    assert parse_algebra_file("algebra a dim 0\nbasis\n").labels == ()


def test_dangling_sign_is_a_parse_error():
    for rhs in ("A +", "A - -", "+"):
        with pytest.raises(AlgebraFileError) as err:
            parse_algebra_file(f"algebra a dim 2\nbasis A B\n[A,B] = {rhs}\n")
        assert err.value.line == 3
        assert "invalid label ''" in str(err.value)


def test_reserved_labels_rejected():
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("algebra a dim 2\nbasis i B\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file("algebra a dim 2\nbasis sqrt2 B\n")


def test_comments_and_whitespace():
    text = (
        "  # leading comment\n"
        "\n"
        "algebra a dim 2   # trailing comment\n"
        "basis A B\n"
        "[A,B] = 2*A  # another\n"
    )
    parsed = parse_algebra_file(text)
    assert parsed.brackets[0].terms == (("A", Scalar(2)),)


def test_parenthesized_coefficients():
    text = "algebra a dim 2\nbasis A B\n[A,B] = (1/2 + 1/2*sqrt2)*A + -1*B\n"
    parsed = parse_algebra_file(text)
    terms = {label: str(value) for label, value in parsed.brackets[0].terms}
    assert terms == {"A": "1/2 + 1/2*sqrt2", "B": "-1"}
    # the printer wraps composite coefficients so the file reparses
    printed = format_algebra_file(parsed)
    assert parse_algebra_file(printed) == parsed


def test_from_algebra_roundtrip():
    algebra = build_s_plus(3)
    snapshot = from_algebra(algebra, "splus3")
    assert isinstance(snapshot, AlgebraFile)
    reparsed = parse_algebra_file(snapshot.to_text())
    assert reparsed == snapshot
    rebuilt = reparsed.to_algebra()
    assert rebuilt.tensor == algebra.tensor
    assert rebuilt.labels == algebra.labels


def test_roundtrip_of_gln_tn_at_n_11():
    # two-digit indices: the labels F1_11 and F11_1 must survive the printer
    algebra = build_gln_tn(11)
    text = from_algebra(algebra, "gl11").to_text()
    assert "F1_11" in text and "F11_1" in text
    parsed = parse_algebra_file(text)
    assert parsed.labels == algebra.labels
    assert parsed.to_algebra().tensor == algebra.tensor
    assert parsed.to_text() == text


def test_bytes_parse_like_text_and_skip_one_byte_order_mark():
    data = RANK_TWO_PLUS.encode("utf-8")
    assert parse_algebra_file(data) == parse_algebra_file(RANK_TWO_PLUS)
    assert parse_algebra_file(b"\xef\xbb\xbf" + data) == parse_algebra_file(RANK_TWO_PLUS)
    with pytest.raises(AlgebraFileError, match="line 1, column 1"):
        parse_algebra_file(b"\xef\xbb\xbf\xef\xbb\xbfalgebra a dim 1\n")
    for bad in (b"\nalgebra a dim 2 # \xe9\n", b"\xef\xbb\xbf\nalgebra a dim 2 # \xe9\n"):
        with pytest.raises(AlgebraFileError) as info:
            parse_algebra_file(bad)
        assert (info.value.line, info.value.column) == (2, 19)


# (bracket line after "basis A B", column, message): each column is the
# 1-based position of the offending token on its line.
ERROR_COLUMNS = [
    ("[A,B] = 1/0*B", 10, "bad coefficient '1/0': division by zero (at position 1)"),
    ("[A,B] =    1/0*B", 13, "bad coefficient '1/0': division by zero (at position 1)"),
    ("[A,B] = A + 1/0*B", 14, "bad coefficient '1/0': division by zero (at position 1)"),
    ("[A,B] = 2*C", 11, "unknown label 'C'"),
    (
        "[A,B] = (1+2*B",
        14,
        "bad coefficient '(1+2*B': expected a number, 'sqrt2', 'i' or '(', got 'B' "
        "(at position 5)",
    ),
    ("[A,B] = B*2", 11, "invalid label '2'"),
    ("[A,B] = 2*B*A", 11, "label 'B' is not the last factor"),
    ("[A,B] = A + 2", 14, "bad coefficient '2': unexpected end of input (at position 1)"),
    ("[A,B] = A B", 11, "unexpected token 'B'"),
    ("[A,B] = A -", 12, "invalid label ''"),
    ("[A,B] = 2 $*B", 11, "unexpected character '$'"),
    ("[A,C] = B", 4, "unknown label 'C'"),
    ("[ A , 2 ] = B", 7, "invalid label '2'"),
    ("[A,i] = B", 4, "label 'i' collides with a scalar keyword"),
    ("  [A,B] = 1/0*B", 12, "bad coefficient '1/0': division by zero (at position 1)"),
    ("\t[A,C] = B", 5, "unknown label 'C'"),
    ("  not a declaration", 3, "unrecognized declaration 'not a declaration'"),
    ("[A,B] = B  # 1/0*B", None, None),
]


@pytest.mark.parametrize("line, column, message", ERROR_COLUMNS)
def test_error_columns_point_at_the_offending_token(line, column, message):
    text = f"algebra a dim 2\nbasis A B\n{line}\n"
    if column is None:
        assert parse_algebra_file(text).brackets[0].terms == (("B", Scalar(1)),)
        return
    for source in (text, "\ufeff" + text, ("\ufeff" + text).encode("utf-8")):
        with pytest.raises(AlgebraFileError) as err:
            parse_algebra_file(source)
        assert str(err.value) == f"line 3, column {column}: {message}"


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("  algebra a\n", "line 1, column 3", "expected 'algebra <name> dim <k>'"),
        ("algebra a dim 2\n\tbasis A\n", "line 2, column 2", "basis lists 1 labels but dim is 2"),
        ("algebra a dim 2\nbasis A B\n   basis A B\n", "line 3, column 4", "duplicate basis line"),
        ("algebra a dim 2\n   basisA B\n", "line 2, column 4", "unrecognized declaration"),
        ("algebra a dim 2\n [A,B] = A\n", "line 2, column 2", "bracket declared before the basis"),
    ],
)
def test_line_errors_point_past_the_indentation(text, where, message):
    with pytest.raises(AlgebraFileError, match=f"^{where}: {re.escape(message)}"):
        parse_algebra_file(text)


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("algebra a dim \u0663\n", "line 1, column 15", "dim '\u0663' is not ASCII digits"),
        ("algebra a dim 1\u0663\n", "line 1, column 16", "dim '1\u0663' is not ASCII digits"),
        ("algebra a dim 3\nbasis A B C\n[A,B] = \u0663*C\n", "line 3, column 9",
         "unexpected character '\u0663'"),
        ("algebra a dim 3\nbasis A B C\n[A,B] = 1/\uff14*C\n", "line 3, column 11",
         "unexpected character '\uff14'"),
    ],
)
def test_only_ascii_digits_are_numbers(text, where, message):
    # an Arabic-Indic or fullwidth digit is an error at its column, not a number
    with pytest.raises(AlgebraFileError, match=f"^{where}: {re.escape(message)}$"):
        parse_algebra_file(text)


@pytest.mark.parametrize(
    "text, where",
    [
        ("algebra a dim \u0663\nbasis A B C\n[A,B] = 3*C\n", "line 1, column 15"),
        ("algebra a dim 3\nbasis A B C\n[A,B] = \u0663*C\n", "line 3, column 9"),
    ],
)
def test_check_jacobi_exits_2_at_a_non_ascii_digit(tmp_path, text, where):
    path = tmp_path / "digits.alg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["check-jacobi", str(path)], stdout=out, stderr=err) == 2
    assert f"{where}: " in err.getvalue()


def test_basis_label_errors_point_at_the_label():
    with pytest.raises(AlgebraFileError, match="^line 2, column 9: invalid label '2'$"):
        parse_algebra_file("algebra a dim 2\nbasis A 2\n")
    with pytest.raises(AlgebraFileError, match="^line 2, column 10: duplicate basis label 'A'$"):
        parse_algebra_file("algebra a dim 2\n basis A A\n")
    with pytest.raises(AlgebraFileError, match="^line 2, column 9: label 'i' collides"):
        parse_algebra_file("algebra a dim 2\nbasis A i\n")
