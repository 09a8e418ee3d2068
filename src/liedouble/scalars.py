"""Exact arithmetic in the number field Q(i, sqrt2).

Every coefficient in this package is a :class:`Scalar`, a rational linear
combination

    a + b*sqrt2 + c*i + d*i*sqrt2

stored as four exact `Fraction` components.  The representation is unique,
so equality is componentwise and all checks in the library are exact; no
floating point appears anywhere.

The canonical text form orders terms as above, omits zero terms and unit
coefficients, and prints the zero element as ``"0"``.  :func:`scalar_parse`
accepts a superset (arbitrary sums, products, quotients and parentheses of
rational literals, ``sqrt2`` and ``i``) and always returns the canonical
form, so parsing after printing is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "MAX_LITERAL_DIGITS",
    "MAX_NESTING_DEPTH",
    "Scalar",
    "ScalarParseError",
    "scalar_parse",
    "rational",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "SQRT2",
    "HALF_SQRT2",
    "I_UNIT",
]


class Scalar:
    """An element of Q(i, sqrt2) in canonical component form.

    Components: ``a`` multiplies 1, ``b`` multiplies sqrt2, ``c`` multiplies
    i and ``d`` multiplies i*sqrt2.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self._a = _component(a)
        self._b = _component(b)
        self._c = _component(c)
        self._d = _component(d)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def c(self) -> Fraction:
        return self._c

    @property
    def d(self) -> Fraction:
        return self._d

    @staticmethod
    def _coerce(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    # Each component is tested once: ``bool(a or b or c or d)`` would test
    # the component it returns a second time.

    def is_zero(self) -> bool:
        return False if self._a or self._b or self._c or self._d else True

    def __bool__(self) -> bool:
        return True if self._a or self._b or self._c or self._d else False

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return (
            self._a == other._a
            and self._b == other._b
            and self._c == other._c
            and self._d == other._d
        )

    def __hash__(self):
        a = self._a
        if not (self._b or self._c or self._d):
            # a rational equals the int or Fraction it names, so it hashes like one
            return hash(a.numerator) if a.denominator == 1 else hash(a)
        return hash(self._ratios())

    def _ratios(self) -> tuple[int, ...]:
        """The numerator and denominator of a, b, c and d, in that order.

        Equal values, and only they, have equal ratios, so the scalar tables
        compare and key values through them with no Fraction comparison.
        """
        return (*self._a.as_integer_ratio(), *self._b.as_integer_ratio(),
                *self._c.as_integer_ratio(), *self._d.as_integer_ratio())

    # Addition, subtraction and negation skip zero components: a Fraction
    # operation costs a microsecond, and most components in the gl(n) checks
    # are zero.

    def __neg__(self) -> Scalar:
        a, b, c, d = self._a, self._b, self._c, self._d
        return _scalar(-a if a else a, -b if b else b, -c if c else c, -d if d else d)

    def __add__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = other._a, other._b, other._c, other._d
        return _scalar(
            a1 + a2 if a1 and a2 else a1 or a2,
            b1 + b2 if b1 and b2 else b1 or b2,
            c1 + c2 if c1 and c2 else c1 or c2,
            d1 + d2 if d1 and d2 else d1 or d2,
        )

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = other._a, other._b, other._c, other._d
        return _scalar(
            (a1 - a2 if a1 else -a2) if a2 else a1,
            (b1 - b2 if b1 else -b2) if b2 else b1,
            (c1 - c2 if c1 else -c2) if c2 else c1,
            (d1 - d2 if d1 else -d2) if d2 else d1,
        )

    def __rsub__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = other._a, other._b, other._c, other._d
        # A rational factor q (an int operand is one) scales each nonzero
        # component of the other operand: at most four Fraction products
        # instead of sixteen, and zero components pass through.
        if not (b2 or c2 or d2):
            q = a2
        elif not (b1 or c1 or d1):
            q, a1, b1, c1, d1 = a1, a2, b2, c2, d2
        else:
            # Two irrational factors: all sixteen products, zeros included.
            # (sqrt2)^2 = 2, i^2 = -1, (i*sqrt2)^2 = -2
            return _scalar(
                a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
                a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                a1 * c2 + c1 * a2 + 2 * b1 * d2 + 2 * d1 * b2,
                a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            )
        return _scalar(
            a1 * q if a1 else a1,
            b1 * q if b1 else b1,
            c1 * q if c1 else c1,
            d1 * q if d1 else d1,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in Q(i, sqrt2)")
        a, b, c, d = self._a, self._b, self._c, self._d
        # write self = x + y*i with x, y in Q(sqrt2); then
        # 1/self = (x - y*i) / (x^2 + y^2), and x^2 + y^2 = p + q*sqrt2
        # is inverted through its Q(sqrt2) conjugate.
        p = a * a + 2 * b * b + c * c + 2 * d * d
        q = 2 * (a * b + c * d)
        nrm = p * p - 2 * q * q
        ip = p / nrm
        iq = -q / nrm
        return _scalar(
            a * ip + 2 * b * iq,
            a * iq + b * ip,
            -(c * ip + 2 * d * iq),
            -(c * iq + d * ip),
        )

    def __truediv__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __repr__(self) -> str:
        return f"Scalar({self._a!r}, {self._b!r}, {self._c!r}, {self._d!r})"

    def __str__(self) -> str:
        parts = []
        for coeff, unit in (
            (self._a, ""),
            (self._b, "sqrt2"),
            (self._c, "i"),
            (self._d, "i*sqrt2"),
        ):
            if not coeff:
                continue
            if not unit:
                piece = str(coeff)
            elif coeff == 1:
                piece = unit
            elif coeff == -1:
                piece = "-" + unit
            else:
                piece = f"{coeff}*{unit}"
            parts.append(piece)
        if not parts:
            return "0"
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out


def _component(value) -> Fraction:
    """``value`` as a Fraction; only an int (a bool too) or a Fraction is exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"a Scalar component must be an int or a Fraction, not {type(value).__name__}")


def _scalar(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Scalar:
    """The Scalar with these components, which must already be Fractions."""
    value = object.__new__(Scalar)
    value._a, value._b, value._c, value._d = a, b, c, d
    return value


ZERO = Scalar()
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
SQRT2 = Scalar(0, 1)
HALF_SQRT2 = Scalar(0, Fraction(1, 2))  # equals 1/sqrt2
I_UNIT = Scalar(0, 0, 1)


def rational(numerator, denominator=1) -> Scalar:
    """Shorthand for the rational Scalar numerator/denominator."""
    return Scalar(Fraction(numerator, denominator))


class ScalarParseError(ValueError):
    """Raised on malformed scalar text; carries the offending position and the
    message without it (``reason``)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


# Longest accepted integer literal, and the most digits of a numerator or
# denominator in any value the parser computes.  Python refuses to convert
# integers of more than 4300 decimal digits to or from text by default, and
# a check multiplies two coefficients before printing a residual, so both
# are capped well below half of that: any product of two values still prints.
MAX_LITERAL_DIGITS = 1000
_VALUE_LIMIT = 10**MAX_LITERAL_DIGITS

# Most parentheses open at once in one scalar expression.  The parser
# recurses once per open parenthesis, so the bound keeps deep nesting an
# error with a position instead of a RecursionError.
MAX_NESTING_DEPTH = 100

# Longest token or coefficient text quoted in full in a parse error.
_QUOTED_TEXT = 40


def _quoted(text: str) -> str:
    """``repr`` of ``text``, cut to ``_QUOTED_TEXT`` characters ending in ``...``."""
    if len(text) > _QUOTED_TEXT:
        text = text[: _QUOTED_TEXT - 3] + "..."
    return repr(text)


# A word is a keyword naming a scalar or, in a bracket right-hand side, a
# basis label; the algebra file parser validates labels with the same rule.
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = ("sqrt2", "i")
# An integer is ASCII digits: \d would also take every other Unicode decimal digit.
_TOKEN_RE = re.compile(
    rf"(?P<num>[0-9]+)|(?P<word>{_WORD_RE.pattern})|(?P<op>[()+\-*/])|(?P<bad>\S)"
)


def _tokenize(text: str):
    """``(kind, text, start)`` tokens of ``text``, closed by an ``end`` token.

    A kind is ``num``, ``atom`` (a keyword), ``label`` (any other word) or ``op``.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):  # whitespace matches no group and is skipped
        kind, token = match.lastgroup, match[0]
        if kind == "bad":
            raise ScalarParseError(f"unexpected character {token!r}", match.start())
        if kind == "word":
            kind = "atom" if token in _KEYWORDS else "label"
        tokens.append((kind, token, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the scalar grammar::

        expr    := term (('+'|'-') term)*
        term    := unary (('*'|'/') unary)*
        unary   := ('-'|'+')* atom
        atom    := integer | 'sqrt2' | 'i' | '(' expr ')'

    and for the right-hand side of a bracket declaration, where a label is
    a word other than ``sqrt2`` and ``i``::

        rhs     := summand (('+'|'-') summand)*
        summand := ('+'|'-')* label | ('+'|'-')* coefficient '*' label

    A coefficient is a ``term`` that stops at a ``*`` followed by a label,
    so sums in a coefficient need parentheses.  Positions are offsets into
    the parsed text.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        """The next token, consumed unless it is the ``end`` token."""
        token = self.tokens[self.index]
        if token[0] != "end":
            self.index += 1
        return token

    @staticmethod
    def bounded(value: Scalar, pos: int) -> Scalar:
        """``value``, unless a component has too many digits to print later."""
        for part in (value._a, value._b, value._c, value._d):
            if abs(part.numerator) >= _VALUE_LIMIT or part.denominator >= _VALUE_LIMIT:
                raise ScalarParseError(
                    f"value exceeds the limit of {MAX_LITERAL_DIGITS} digits in a "
                    "numerator or denominator",
                    pos,
                )
        return value

    def unexpected(self) -> ScalarParseError:
        """The error for the next token, which cannot continue the parse."""
        _, text, pos = self.peek()
        message = f"unexpected token {_quoted(text)}" if text else "unexpected end of input"
        return ScalarParseError(message, pos)

    def parse(self) -> Scalar:
        value = self.expr()
        if self.peek()[0] != "end":
            raise self.unexpected()
        return value

    def rhs(self) -> list[tuple[str, int, Scalar]]:
        """The summands of a bracket right-hand side as (label, position, coefficient)."""
        terms = []
        while True:
            negative = self.signs()  # the sign between two summands is the first of these
            value = ONE if self.peek()[0] in ("label", "end") else self.coefficient()
            label, label_pos = self.label()
            terms.append((label, label_pos, -value if negative else value))
            kind, text, _ = self.peek()
            if kind == "end":
                return terms
            if text == "*":
                # a label ends its summand, so what follows this '*' stands where it should
                self.advance()
                self.label()
                raise ScalarParseError(f"label {label!r} is not the last factor", label_pos)
            if text not in ("+", "-"):
                raise self.unexpected()

    def coefficient(self) -> Scalar:
        """A coefficient and the ``*`` after it; an error in it quotes the
        coefficient as far as it was read, and counts its position from there."""
        start = self.peek()[2]
        try:
            value = self.term(before_label=True)
            if self.peek()[1] != "*":
                raise self.unexpected()
        except ScalarParseError as err:
            quoted = _quoted(self.text[start : self.peek()[2]].rstrip())
            message = f"bad coefficient {quoted}: {err.reason} (at position {err.position - start})"
            raise ScalarParseError(message, err.position) from None
        self.advance()
        return value

    def label(self) -> tuple[str, int]:
        kind, text, pos = self.advance()
        if kind != "label":
            raise ScalarParseError(f"invalid label {_quoted(text)}", pos)
        return text, pos

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek()[1] in ("+", "-"):
            _, text, pos = self.advance()
            rhs = self.term()
            value = self.bounded(value + rhs if text == "+" else value - rhs, pos)
        return value

    def term(self, before_label: bool = False) -> Scalar:
        value = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, text, pos = self.peek()
            if before_label and text == "*" and self.tokens[self.index + 1][0] == "label":
                break
            self.advance()
            rhs = self.unary()
            if text == "/" and rhs.is_zero():
                raise ScalarParseError("division by zero", pos)
            value = self.bounded(value * rhs if text == "*" else value / rhs, pos)
        return value

    def signs(self) -> bool:
        """Consume a run of unary signs; whether they negate."""
        negative = False
        while self.peek()[1] in ("+", "-"):
            negative ^= self.advance()[1] == "-"
        return negative

    def unary(self) -> Scalar:
        negative = self.signs()
        value = self.atom()
        return -value if negative else value

    def atom(self) -> Scalar:
        kind, text, pos = self.advance()
        if kind == "num":
            if len(text) > MAX_LITERAL_DIGITS:
                raise ScalarParseError(
                    f"integer literal of {len(text)} digits exceeds the limit of "
                    f"{MAX_LITERAL_DIGITS}",
                    pos,
                )
            return Scalar(int(text))
        if kind == "atom":
            return SQRT2 if text == "sqrt2" else I_UNIT
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING_DEPTH:
                raise ScalarParseError(
                    f"parentheses nest deeper than the limit of {MAX_NESTING_DEPTH}", pos
                )
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            kind, text, pos = self.advance()
            if not (kind == "op" and text == ")"):
                raise ScalarParseError("expected ')'", pos)
            return value
        raise ScalarParseError(
            f"expected a number, 'sqrt2', 'i' or '(', got {text!r}" if text else "unexpected end of input",
            pos,
        )


def scalar_parse(text: str) -> Scalar:
    """Parse scalar text into its canonical Scalar value."""
    return _Parser(text).parse()
