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
