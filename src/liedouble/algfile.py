"""Line-oriented algebra definition files.

Format (``#`` starts a comment, blank lines are ignored)::

    algebra <name> dim <k>
    basis <l1> <l2> ... <lk>
    [A,B] = <scalar>*C + <scalar>*D ...

Bracket right-hand sides use the scalar grammar of :mod:`liedouble.scalars`;
a bare label means coefficient 1 and a literal ``0`` declares an explicitly
zero bracket.  Antisymmetry is implied: declaring both ``[A,B]`` and
``[B,A]`` is an error, as is redeclaring a pair.  Parsing canonicalizes
immediately (brackets and terms sorted by basis index, scalars in canonical
text form), so a parsed file round-trips byte-for-byte through the printer.

Input is bounded: ``k`` is at most :data:`MAX_DIM`, and an integer literal
and every numerator and denominator of a coefficient's value have at most
:data:`liedouble.scalars.MAX_LITERAL_DIGITS` digits.  Larger input raises
:class:`AlgebraFileError`, which the CLI reports with exit 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .liealg import LieAlgebra, StructureTensor, add_into, format_terms
from .scalars import Scalar, ScalarParseError, _quoted, scalar_parse

__all__ = [
    "MAX_DIM",
    "AlgebraFileError",
    "BracketDecl",
    "AlgebraFile",
    "parse_algebra_file",
    "format_algebra_file",
    "from_algebra",
]

# Largest accepted ``dim``: the double the gl(n) factory emits at the CLI's
# largest n (n = 12, dimension n^2 + n).  It is checked on the header line,
# before any label is read; a check-jacobi over it already visits
# dim^3 / 6 triples.
MAX_DIM = 156

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"sqrt2", "i"}


class AlgebraFileError(ValueError):
    """Malformed algebra file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class BracketDecl:
    """One bracket declaration [left, right] = sum of (label, coefficient)."""

    left: str
    right: str
    terms: tuple[tuple[str, Scalar], ...]


@dataclass(frozen=True)
class AlgebraFile:
    name: str
    dim: int
    labels: tuple[str, ...]
    brackets: tuple[BracketDecl, ...]

    def to_algebra(self) -> LieAlgebra:
        index = {label: k for k, label in enumerate(self.labels)}
        table = {}
        for decl in self.brackets:
            coeffs = {index[label]: value for label, value in decl.terms}
            if coeffs:
                table[(index[decl.left], index[decl.right])] = coeffs
        return LieAlgebra(self.labels, StructureTensor(table))

    def to_text(self) -> str:
        return format_algebra_file(self)


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


_BRACKET_RE = re.compile(r"\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*=\s*(.*)\Z")


def parse_algebra_file(text: str) -> AlgebraFile:
    name = None
    dim = None
    labels: list[str] = []
    declared: dict[frozenset, tuple[str, str]] = {}
    table: dict[tuple[str, str], dict[str, Scalar]] = {}
    seen_basis = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            match = re.match(r"algebra\s+(\S+)\s+dim\s+(\d+)\Z", line)
            if not match:
                raise AlgebraFileError(
                    "expected 'algebra <name> dim <k>' as the first declaration",
                    line_no,
                )
            name = match.group(1)
            digits = match.group(2).lstrip("0") or "0"
            if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
                raise AlgebraFileError(
                    f"dim exceeds the limit of {MAX_DIM}",
                    line_no,
                    len(raw) - len(raw.lstrip()) + match.start(2) + 1,
                )
            dim = int(digits)
            continue
        if line.split(None, 1)[0] == "basis":
            if seen_basis:
                raise AlgebraFileError("duplicate basis line", line_no)
            seen_basis = True
            for label in line[len("basis") :].split():
                _validate_label(label, line_no, 1)
                if label in labels:
                    raise AlgebraFileError(f"duplicate basis label {label!r}", line_no)
                labels.append(label)
            if len(labels) != dim:
                raise AlgebraFileError(
                    f"basis lists {len(labels)} labels but dim is {dim}", line_no
                )
            continue
        match = _BRACKET_RE.match(line)
        if not match:
            raise AlgebraFileError(f"unrecognized declaration {line!r}", line_no)
        if not seen_basis:
            raise AlgebraFileError("bracket declared before the basis line", line_no)
        left, right, rhs = match.groups()
        column = raw.index("[") + 1
        _validate_label(left, line_no, column)
        _validate_label(right, line_no, column)
        for label in (left, right):
            if label not in labels:
                raise AlgebraFileError(f"unknown label {label!r}", line_no, column)
        if left == right:
            raise AlgebraFileError(
                f"bracket [{left},{right}] is identically zero by antisymmetry",
                line_no,
                column,
            )
        key = frozenset((left, right))
        if key in declared:
            prior = declared[key]
            reason = (
                "duplicate declaration"
                if prior == (left, right)
                else f"[{prior[0]},{prior[1]}] already declared; the reversed "
                "bracket is implied by antisymmetry"
            )
            raise AlgebraFileError(reason, line_no, column)
        declared[key] = (left, right)
        rhs = rhs.strip()
        rhs_offset = raw.index("=") + 2
        coeffs: dict[str, Scalar] = {}
        if rhs != "0":
            for term, term_pos in _split_terms(rhs, line_no, rhs_offset):
                label, value = _parse_term(term, line_no, rhs_offset + term_pos)
                if label not in labels:
                    raise AlgebraFileError(
                        f"unknown label {label!r}", line_no, rhs_offset + term_pos
                    )
                add_into(coeffs, label, value)
        table[(left, right)] = coeffs

    if name is None:
        raise AlgebraFileError("empty file: missing algebra declaration", 1)
    if not seen_basis:
        if dim == 0:
            labels = []
        else:
            raise AlgebraFileError("missing basis line", 1)

    index = {label: k for k, label in enumerate(labels)}
    decls = []
    for (left, right), coeffs in table.items():
        terms = tuple(
            sorted(((label, value) for label, value in coeffs.items()), key=lambda t: index[t[0]])
        )
        decls.append(BracketDecl(left, right, terms))
    decls.sort(key=lambda d: (index[d.left], index[d.right]))
    return AlgebraFile(name, dim, tuple(labels), tuple(decls))


def format_algebra_file(algfile: AlgebraFile) -> str:
    lines = [f"algebra {algfile.name} dim {algfile.dim}"]
    if algfile.labels:
        lines.append("basis " + " ".join(algfile.labels))
    for decl in algfile.brackets:
        lines.append(f"[{decl.left},{decl.right}] = {format_terms(decl.terms)}")
    return "\n".join(lines) + "\n"


def from_algebra(alg: LieAlgebra, name: str) -> AlgebraFile:
    """Snapshot a LieAlgebra as a canonical AlgebraFile."""
    decls = []
    for (p, q), coeffs in alg.tensor.stored():
        terms = tuple((alg.labels[r], value) for r, value in coeffs.items())
        decls.append(BracketDecl(alg.labels[p], alg.labels[q], terms))
    return AlgebraFile(name, alg.dim, tuple(alg.labels), tuple(decls))
