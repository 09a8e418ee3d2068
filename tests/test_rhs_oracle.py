"""Bracket right-hand sides against the two-scan splitter they replaced.

``_split_terms`` and ``_parse_term`` below are the earlier parser, kept
verbatim as an oracle: it split a right-hand side at top-level signs,
then split each summand at its last top-level ``*``.  Seeded random
right-hand sides must be accepted or rejected alike, parse to the same
:class:`AlgebraFile`, and be rejected on the same line.
"""

import random
import re

import pytest

from liedouble import AlgebraFile, AlgebraFileError, BracketDecl, Scalar, parse_algebra_file
from liedouble.liealg import add_into
from liedouble.scalars import ScalarParseError, _quoted, scalar_parse

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"sqrt2", "i"}


def _validate_label(label: str, line: int, column: int) -> str:
    if not _LABEL_RE.match(label):
        raise AlgebraFileError(f"invalid label {label!r}", line, column)
    if label in _RESERVED:
        raise AlgebraFileError(
            f"label {label!r} collides with a scalar keyword", line, column
        )
    return label


def _split_terms(text: str, line: int, offset: int):
    """Split a bracket right-hand side at top-level + and - signs."""
    terms = []
    depth = 0
    current_start = 0
    previous = ""
    for pos, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise AlgebraFileError("unbalanced ')'", line, offset + pos + 1)
        elif char in "+-" and depth == 0 and previous not in ("", "*", "/", "+", "-", "("):
            terms.append((text[current_start:pos], current_start))
            current_start = pos
        if not char.isspace():
            previous = char
    if depth:
        raise AlgebraFileError("unbalanced '('", line, offset + len(text))
    terms.append((text[current_start:], current_start))
    return terms


def _parse_term(term: str, line: int, column: int):
    """One summand: [sign] [scalar *] label, or a bare signed label."""
    stripped = term.strip()
    if not stripped:
        raise AlgebraFileError("empty term", line, column)
    # locate the last '*' at parenthesis depth 0; everything after is the label
    depth = 0
    split_at = None
    for pos, char in enumerate(stripped):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "*" and depth == 0:
            split_at = pos
    if split_at is None:
        sign = 1
        body = stripped
        while body[:1] in ("+", "-"):
            if body[0] == "-":
                sign = -sign
            body = body[1:].strip()
        label = _validate_label(body, line, column)
        return label, Scalar(sign)
    scalar_text = stripped[:split_at]
    label = stripped[split_at + 1 :].strip()
    _validate_label(label, line, column + split_at + 1)
    try:
        value = scalar_parse(scalar_text)
    except ScalarParseError as err:
        quoted = _quoted(scalar_text.strip())
        raise AlgebraFileError(f"bad coefficient {quoted}: {err}", line, column) from err
    return label, value


LABELS = ("A", "B", "i2", "sqrt2A")
HEADS = (("A", "B"), ("A", "i2"), ("B", "sqrt2A"))
HEADER = "algebra a dim 4\nbasis " + " ".join(LABELS) + "\n"
FIRST_BRACKET_LINE = 3

# Fragments of random right-hand sides: labels, the two keywords, words
# that only start like a keyword, digits, operators and spaces.
WORDS = ("A", "B", "i2", "sqrt2A", "i", "sqrt2", "C")
NUMBERS = ("0", "1", "2", "12", "3/4", "(1/2 + 1/2*sqrt2)", "(2 - i)")
FRAGMENTS = WORDS + ("0", "1", "2", "7") + tuple("+-*/()") + (" ", "  ")


def oracle_terms(rhs: str, line: int):
    """The earlier parser's summands of ``rhs``: a {label: coefficient} dict."""
    rhs = rhs.strip()
    coeffs = {}
    if rhs != "0":
        for term, term_pos in _split_terms(rhs, line, 1):
            label, value = _parse_term(term, line, term_pos + 1)
            if label not in LABELS:
                raise AlgebraFileError(f"unknown label {label!r}", line, term_pos + 1)
            add_into(coeffs, label, value)
    return coeffs


def oracle_file(rhs_list) -> AlgebraFile:
    """The AlgebraFile the earlier parser made of one bracket per right-hand side."""
    index = {label: k for k, label in enumerate(LABELS)}
    decls = []
    for k, ((left, right), rhs) in enumerate(zip(HEADS, rhs_list)):
        coeffs = oracle_terms(rhs, FIRST_BRACKET_LINE + k)
        terms = tuple(sorted(coeffs.items(), key=lambda t: index[t[0]]))
        decls.append(BracketDecl(left, right, terms))
    return AlgebraFile("a", len(LABELS), LABELS, tuple(decls))


def structured_rhs(rng: random.Random) -> str:
    """A sum of one to three summands, most of them well formed."""
    parts = []
    for k in range(rng.randint(1, 3)):
        sign = rng.choice(("", "", "-", "+", "- -")) if k == 0 else rng.choice(("+", "-", "+ -"))
        coefficient = rng.choice(("",) + NUMBERS + ("sqrt2", "i", "2*i", "-3"))
        label = rng.choice(LABELS if rng.random() < 0.9 else WORDS)
        summand = f"{coefficient}*{label}" if coefficient else label
        parts.append(f"{sign} {summand}".strip() if k == 0 else f" {sign} {summand}")
    return "".join(parts)


def mutated(rng: random.Random, text: str) -> str:
    """``text``, half the time with one or two fragments inserted, deleted or replaced."""
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randint(0, len(text))
        action = rng.randrange(3)
        if action == 0:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif action == 1:
            text = text[:at] + text[at + rng.randint(1, 3) :]
        else:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + 1 :]
    return text


def random_rhs(rng: random.Random) -> str:
    if rng.random() < 0.6:
        return mutated(rng, structured_rhs(rng))
    return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 10)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_right_hand_sides_parse_like_the_two_scan_splitter(seed):
    rng = random.Random(seed)
    accepted = rejected = 0
    for _ in range(1500):
        rhs_list = [random_rhs(rng) for _ in range(rng.randint(1, len(HEADS)))]
        text = HEADER + "".join(
            f"[{left},{right}] = {rhs}\n" for (left, right), rhs in zip(HEADS, rhs_list)
        )
        try:
            expected = oracle_file(rhs_list)
        except AlgebraFileError as err:
            with pytest.raises(AlgebraFileError) as info:
                parse_algebra_file(text)
            assert info.value.line == err.line, (text, str(err), str(info.value))
            rejected += 1
        else:
            assert parse_algebra_file(text) == expected, text
            accepted += 1
    # both sides of the language are exercised
    assert accepted > 150 and rejected > 150, (accepted, rejected)
