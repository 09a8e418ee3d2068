"""Line-oriented algebra definition files.

Format (``#`` starts a comment, blank lines are ignored)::

    algebra <name> dim <k>
    basis <l1> <l2> ... <lk>
    [A,B] = <scalar>*C + <scalar>*D ...

A bracket right-hand side is a sum of summands ``[signs] label`` or
``[signs] coefficient*label``, where a coefficient is a product or quotient
in the scalar grammar of :mod:`liedouble.scalars` (sums inside it need
parentheses); the ``rhs`` rule of ``scalars._Parser`` parses it in one pass
over the scalar tokens.  A literal ``0`` declares an explicitly zero bracket.
Antisymmetry is implied: declaring both ``[A,B]`` and ``[B,A]`` is an error,
as is redeclaring a pair.  Parsing canonicalizes immediately (brackets and
terms sorted by basis index, scalars in canonical text form), so a parsed
file round-trips byte-for-byte through the printer.  An error's column
points at the offending token.

Input is bounded: ``k`` is at most :data:`MAX_DIM`, an integer literal
and every numerator and denominator of a coefficient's value have at most
:data:`liedouble.scalars.MAX_LITERAL_DIGITS` digits, and a coefficient's
parentheses nest at most :data:`liedouble.scalars.MAX_NESTING_DEPTH` deep.
Larger input raises :class:`AlgebraFileError`, which the CLI reports with
exit 2.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass

from .liealg import LieAlgebra, StructureTensor, add_into, format_terms
from .scalars import _KEYWORDS, _WORD_RE, Scalar, ScalarParseError, _Parser

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


def _validate_label(label: str, line: int, column: int) -> None:
    if not _WORD_RE.fullmatch(label):
        raise AlgebraFileError(f"invalid label {label!r}", line, column)
    if label in _KEYWORDS:
        raise AlgebraFileError(
            f"label {label!r} collides with a scalar keyword", line, column
        )


_BRACKET_RE = re.compile(r"\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*=\s*(.*)\Z")


def _utf8_text(data: bytes) -> str:
    """``data`` decoded; a byte that is not UTF-8 is an error at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start].decode("utf-8").split("\n")
        raise AlgebraFileError(f"not UTF-8: {err.reason}", len(head), len(head[-1]) + 1) from None


def parse_algebra_file(source: str | bytes) -> AlgebraFile:
    """Parse an algebra file from its text or its UTF-8 bytes.

    One leading byte-order mark is skipped, before decoding when the source
    is bytes, so no position in an error counts it.
    """
    if isinstance(source, bytes):
        text = _utf8_text(source.removeprefix(codecs.BOM_UTF8))
    else:
        text = source.removeprefix("\ufeff")
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
        # the column of line[k] is indent + k + 1
        indent = len(raw) - len(raw.lstrip())
        if name is None:
            match = re.match(r"algebra\s+(\S+)\s+dim\s+(\S+)\Z", line)
            if not match:
                raise AlgebraFileError(
                    "expected 'algebra <name> dim <k>' as the first declaration",
                    line_no,
                    indent + 1,
                )
            name = match.group(1)
            bad = re.search(r"[^0-9]", match.group(2))
            if bad:
                column = indent + match.start(2) + bad.start() + 1
                raise AlgebraFileError(f"dim {match.group(2)!r} is not ASCII digits", line_no, column)
            digits = match.group(2).lstrip("0") or "0"
            if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
                raise AlgebraFileError(
                    f"dim exceeds the limit of {MAX_DIM}", line_no, indent + match.start(2) + 1
                )
            dim = int(digits)
            continue
        if line.split(None, 1)[0] == "basis":
            if seen_basis:
                raise AlgebraFileError("duplicate basis line", line_no, indent + 1)
            seen_basis = True
            for word in list(re.finditer(r"\S+", line))[1:]:
                label, column = word[0], indent + word.start() + 1
                _validate_label(label, line_no, column)
                if label in labels:
                    raise AlgebraFileError(f"duplicate basis label {label!r}", line_no, column)
                labels.append(label)
            if len(labels) != dim:
                raise AlgebraFileError(
                    f"basis lists {len(labels)} labels but dim is {dim}", line_no, indent + 1
                )
            continue
        match = _BRACKET_RE.match(line)
        if not match:
            raise AlgebraFileError(f"unrecognized declaration {line!r}", line_no, indent + 1)
        if not seen_basis:
            raise AlgebraFileError("bracket declared before the basis line", line_no, indent + 1)
        left, right, rhs = match.groups()
        for group in (1, 2):
            label, column = match[group], indent + match.start(group) + 1
            _validate_label(label, line_no, column)
            if label not in labels:
                raise AlgebraFileError(f"unknown label {label!r}", line_no, column)
        if left == right:
            raise AlgebraFileError(
                f"bracket [{left},{right}] is identically zero by antisymmetry",
                line_no,
                indent + 1,
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
            raise AlgebraFileError(reason, line_no, indent + 1)
        declared[key] = (left, right)
        coeffs: dict[str, Scalar] = {}
        if rhs != "0":
            column = indent + match.start(3) + 1
            try:
                terms = _Parser(rhs).rhs()
            except ScalarParseError as err:
                raise AlgebraFileError(err.reason, line_no, column + err.position) from err
            for label, pos, value in terms:
                if label not in labels:
                    raise AlgebraFileError(f"unknown label {label!r}", line_no, column + pos)
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
