"""Structure-constant Lie algebras over Q(i, sqrt2).

An algebra is a labelled basis plus a sparse antisymmetric structure tensor,
held as rows: row x maps each s with [e_x, e_s] != 0 to the coefficients of
that bracket, so each nonzero bracket is held once in each orientation.
Basis indexing is 0-based internally; display labels carry whatever 1-based
names the caller prefers.

All containers here are treated as immutable after construction and every
operation is a pure function, so values can be shared freely.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .scalars import ONE, Scalar, ZERO

__all__ = [
    "SparseTensor",
    "Vector",
    "add_into",
    "ScalarTable",
    "scalar_table",
    "value_pool",
    "format_terms",
    "StructureTensor",
    "Matrix",
    "SingularMatrixError",
    "BilinearForm",
    "LieAlgebra",
    "Violation",
    "ViolationReport",
    "abelian",
    "direct_sum",
    "joined_labels",
    "structure_equal",
    "trace_form",
]


def _coerce_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return Scalar(value)


def add_into(acc: dict, key, value) -> None:
    """Add ``value`` to ``acc[key]``, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = value if s is None else s + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _require_in_range(indices, dim: int, what: str) -> None:
    """Raise ValueError, naming ``what`` and the least bad index, when an index lies outside range(dim)."""
    for k in sorted(indices):
        if not 0 <= k < dim:
            raise ValueError(f"{what} has index {k} outside range({dim})")


class ScalarTable(NamedTuple):
    """The field operations a kernel computes through.

    ``mul(x, y)``, ``inverse(x)`` and ``neg(x)`` return the result, and
    ``mul_into(acc, key, x, y)`` adds x*y to ``acc[key]`` as ``add_into``
    does: it drops the key when the sum is zero.  Every tabled sum is a
    ``mul_into``.
    """

    mul: Callable
    inverse: Callable
    mul_into: Callable
    neg: Callable


# The table of the open value pool, or None outside every pool.
_POOL: ContextVar[ScalarTable | None] = ContextVar("liedouble_value_pool", default=None)


def scalar_table() -> ScalarTable:
    """The open value pool's table (:func:`value_pool`), or else a new one for this call.

    A kernel over the gl(n) double combines a handful of distinct values
    (0, +-1, +-sqrt2/2, +-i/2, ...) thousands of times, and a Scalar product,
    sum, inverse or negation costs as much as several dict lookups.  The
    table reads each operand object's integer ratios (``Scalar._ratios``)
    once and gives each value a small-int code with one canonical object
    (hash-consing), and tables every result by the codes of its operands,
    so no Scalar or Fraction comparison runs.  Each result it makes is
    returned as the canonical object of its value, so its code is found at
    once when it comes back as an operand, and it is zero-tested then and
    only then: zero has code 0.  So the table makes each distinct product,
    sum of two values, inverse and negation once and tests no value per
    term.  It keeps every operand it has seen alive for as long as it
    lives, so no id is reused while it is a key.
    """
    pool = _POOL.get()
    return _new_table() if pool is None else pool


@contextmanager
def value_pool():
    """Make every kernel inside the block compute through one scalar table.

    The table, and with it every value it has made, goes when the block
    ends, also when it raises.
    """
    token = _POOL.set(_new_table())
    try:
        yield
    finally:
        _POOL.reset(token)


def _new_table() -> ScalarTable:
    # each value has a small-int code, 0 for zero, and values[code] is its canonical object
    values: list[Scalar] = [ZERO]
    codes: dict[tuple[int, ...], int] = {ZERO._ratios(): 0}  # integer ratios -> code
    seen: dict[int, int] = {id(ZERO): 0}  # id(operand) -> its value's code
    kept: list[Scalar] = []  # every operand in seen, so no id is reused while it is a key
    # per code x: {code y: code of x*y} and {code y: code of x+y}
    products: list[dict[int, int]] = [{}]
    sums: list[dict[int, int]] = [{}]
    inverses: dict[int, int] = {}
    negatives: dict[int, int] = {}

    def code(x) -> int:
        """The code of ``x``'s value; ``x`` becomes its canonical object when the value is new."""
        c = seen.get(id(x))
        if c is None:
            ratios = x._ratios()
            c = codes.get(ratios)
            if c is None:
                c = codes[ratios] = len(values)
                values.append(x)
                products.append({})
                sums.append({})
            seen[id(x)] = c
            kept.append(x)
        return c

    def mul(x, y):
        try:  # both operands seen before: skip the calls
            row, cy = products[seen[id(x)]], seen[id(y)]
        except KeyError:
            row, cy = products[code(x)], code(y)
        product = row.get(cy)
        if product is None:
            product = row[cy] = code(x * y)
        return values[product]

    def mul_into(acc, key, x, y):
        try:
            row, cy = products[seen[id(x)]], seen[id(y)]
        except KeyError:
            row, cy = products[code(x)], code(y)
        product = row.get(cy)
        if product is None:
            product = row[cy] = code(x * y)
        if not product:
            return
        s = acc.get(key)
        if s is None:
            acc[key] = values[product]
            return
        try:
            row = sums[seen[id(s)]]
        except KeyError:
            row = sums[code(s)]
        total = row.get(product)
        if total is None:
            total = row[product] = code(s + values[product])
        if total:
            acc[key] = values[total]
        else:
            del acc[key]

    def inverse(x):
        c = code(x)
        inv = inverses.get(c)
        if inv is None:
            inv = inverses[c] = code(x.inverse())
        return values[inv]

    def neg(x):
        try:
            c = seen[id(x)]
        except KeyError:
            c = code(x)
        negative = negatives.get(c)
        if negative is None:
            negative = negatives[c] = code(-x)
        return values[negative]

    return ScalarTable(mul, inverse, mul_into, neg)


def format_terms(pairs) -> str:
    """Render (label, coefficient) pairs as ``c1*l1 + c2*l2 - ...``.

    Unit coefficients are left out, a coefficient with more than one term
    is parenthesized, a leading minus becomes a `` - `` separator, and no
    pairs at all render as ``"0"``.
    """
    out = ""
    for label, coeff in pairs:
        text = str(coeff)
        if text == "1":
            term = label
        elif text == "-1":
            term = "-" + label
        elif " " in text:
            term = f"({text})*{label}"
        else:
            term = f"{text}*{label}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


class SparseTensor:
    """Sparse map from basis keys to nonzero scalars; zeros are never stored.

    Keys are basis indices (a vector) or tuples of them (a tensor power).
    Equality is per type, so tensors of different kinds never compare equal.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for key, value in coeffs.items():
                value = _coerce_scalar(value)
                if value:
                    data[key] = value
        self._c = data

    def items(self):
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(tuple(self.items()))

    def __neg__(self):
        return type(self)({k: -v for k, v in self._c.items()})

    def __add__(self, other):
        return self._combined(other, negate=False)

    def __sub__(self, other):
        return self._combined(other, negate=True)

    @classmethod
    def _of_nonzero(cls, data: dict):
        """The tensor holding ``data``, whose values are nonzero Scalars; takes the dict."""
        out = cls()
        out._c = data
        return out

    def _combined(self, other, negate: bool):
        data = dict(self._c)
        for key, value in other._c.items():
            add_into(data, key, -value if negate else value)
        return self._of_nonzero(data)

    def scale(self, factor):
        factor = _coerce_scalar(factor)
        if not factor:
            return type(self)()
        return type(self)({k: factor * v for k, v in self._c.items()})

    def format(self, labels) -> str:
        """Terms ``c*l1(x)l2...`` with the labels of each key's indices."""
        return format_terms(
            ("(x)".join(labels[i] for i in key), value) for key, value in self.items()
        )

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class Vector(SparseTensor):
    """Sparse vector: keys are plain basis indices."""

    __slots__ = ()

    @classmethod
    def basis(cls, index: int) -> Vector:
        return cls({index: Scalar(1)})

    def get(self, index: int) -> Scalar:
        return self._c.get(index, ZERO)

    def indices(self):
        return sorted(self._c)

    def format(self, labels) -> str:
        return format_terms((labels[k], v) for k, v in self.items())


class StructureTensor:
    """Antisymmetric bracket table, held as its rows.

    ``_rows[x][s]`` holds the nonzero coefficients of [e_x, e_s], in both
    orientations of every nonzero bracket, each mirror negated once; rows
    are sorted by x and each row by s.  Kernels read them, never mutate them.
    """

    __slots__ = ("_rows",)

    def __init__(self, entries):
        stored = {}
        neg = scalar_table().neg
        for (p, q), vec in entries.items():
            if p == q:
                raise ValueError(f"diagonal bracket ({p},{p}) is identically zero")
            coeffs = dict(vec.items()) if isinstance(vec, Vector) else dict(vec)
            coeffs = {r: _coerce_scalar(v) for r, v in coeffs.items()}
            coeffs = {r: v for r, v in sorted(coeffs.items()) if v}
            if not coeffs:
                continue
            key, flip = ((p, q), False) if p < q else ((q, p), True)
            if key in stored:
                raise ValueError(f"duplicate bracket declaration for pair {key}")
            stored[key] = {r: neg(v) for r, v in coeffs.items()} if flip else coeffs
        self._set_rows(dict(sorted(stored.items())), neg)

    @classmethod
    def _of_sorted(cls, brackets: dict) -> StructureTensor:
        """The tensor that stores ``brackets``, trusted, not checked; takes the dicts.

        Each key is a pair p < q, the keys come in sorted order, and each
        maps to its nonzero Scalar coefficients, in sorted order of the
        output index: what the constructor would store.
        """
        out = cls.__new__(cls)
        out._set_rows(brackets, scalar_table().neg)
        return out

    def _set_rows(self, stored: dict, neg) -> None:
        """Fill the rows from the sorted pairs p < q, negating each mirror with ``neg``.

        The pairs come sorted, so each row receives its s in sorted order:
        first the mirrors of the pairs (s, x), then the pairs (x, s).
        """
        rows: dict[int, dict] = {}
        for (p, q), coeffs in stored.items():
            rows.setdefault(p, {})[q] = coeffs
            rows.setdefault(q, {})[p] = {r: neg(v) for r, v in coeffs.items()}
        self._rows = dict(sorted(rows.items()))

    def pair(self, p: int, q: int):
        """Coefficients of [e_p, e_q], or None when the bracket vanishes.

        The returned mapping is shared internal state; do not mutate it.
        A kernel binds ``_rows`` once and reads the row of p: it visits the
        q with a nonzero bracket only, so it makes no empty lookup.
        """
        row = self._rows.get(p)
        return None if row is None else row.get(q)

    def stored(self) -> list:
        """Every nonzero bracket once, as ((p, q), coeffs) with p < q, in sorted order."""
        return [((p, q), coeffs) for p, row in self._rows.items()
                for q, coeffs in row.items() if p < q]

    def oriented(self) -> list:
        """Every nonzero bracket in both orientations, ((p, q), coeffs), in sorted order.

        The coefficient mappings are shared internal state; do not mutate them.
        """
        return [((p, q), coeffs) for p, row in self._rows.items() for q, coeffs in row.items()]

    def indices(self) -> set[int]:
        """Every basis index of a nonzero bracket or output."""
        return set(self._rows).union(*(c for row in self._rows.values() for c in row.values()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(tuple((k, tuple(v.items())) for k, v in self.stored()))

    def __repr__(self):
        return f"StructureTensor({dict(self.stored())!r})"


class SingularMatrixError(ValueError):
    pass


def _check_index(index: int, size: int, kind: str) -> None:
    if not 0 <= index < size:
        raise IndexError(f"{kind} index {index} out of range for {size} {kind}s")


class Matrix:
    """Exact matrix over Q(i, sqrt2) that stores only its nonzero entries.

    Each row is a ``{column: Scalar}`` dict and a column index maps each
    column to its ``{row: Scalar}`` dict, so products, applications and
    eliminations visit the stored entries only.  A factory that knows a
    matrix's inverse in closed form sets ``_inverse``, and ``inverse``
    returns it without elimination; every other matrix is inverted by
    Gauss-Jordan.
    """

    __slots__ = ("rows", "cols", "_r", "_c", "_inverse")

    def __init__(self, entries):
        entries = [[_coerce_scalar(v) for v in row] for row in entries]
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix rows")
        self._set_rows([{j: v for j, v in enumerate(row) if v} for row in entries], cols)

    def _set_rows(self, rows: list[dict], cols: int) -> None:
        self.rows = len(rows)
        self.cols = cols
        self._r = rows
        self._inverse = None
        self._c = [{} for _ in range(cols)]
        for i, row in enumerate(rows):
            for j, v in row.items():
                self._c[j][i] = v

    @classmethod
    def _of_rows(cls, rows: list[dict], cols: int) -> Matrix:
        """The matrix whose rows hold these nonzero entries; takes the dicts."""
        mat = cls.__new__(cls)
        mat._set_rows(rows, cols)
        return mat

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls._of_rows([{i: ONE} for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls._of_rows([{} for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, dim: int, columns) -> Matrix:
        rows: list[dict] = [{} for _ in range(dim)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                _check_index(i, dim, "row")
                v = _coerce_scalar(v)
                if v:
                    rows[i][j] = v
        return cls._of_rows(rows, len(columns))

    def entry(self, i: int, j: int) -> Scalar:
        _check_index(i, self.rows, "row")
        _check_index(j, self.cols, "column")
        return self._r[i].get(j, ZERO)

    def row(self, i: int) -> Vector:
        _check_index(i, self.rows, "row")
        return Vector(self._r[i])

    def column(self, j: int) -> Vector:
        _check_index(j, self.cols, "column")
        return Vector(self._c[j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._r == other._r

    def __mul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix dimension mismatch")
        out = []
        for row in self._r:
            acc: dict[int, Scalar] = {}
            for k, a in row.items():
                for j, b in other._r[k].items():
                    add_into(acc, j, a * b)
            out.append(acc)
        return Matrix._of_rows(out, other.cols)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((row[i] for i, row in enumerate(self._r) if i in row), ZERO)

    def _eliminated(self, augment: bool):
        """Gauss-Jordan over sparse rows; returns (inverse rows or None, pivots, swaps).

        Each working row is a copy of a stored row, with the augmented
        identity in columns n..2n-1.  The pivot is the first row at or below
        ``col`` with a nonzero entry there, and scaling and elimination touch
        only the pivot row's stored entries: every skipped product has a zero
        factor.  The returned inverse rows hold their nonzero entries only.
        Products, sums and pivot inverses go through one scalar table, and
        each distinct scaled pivot-row value is negated once.  A column with
        no pivot makes the matrix singular and the result None.
        """
        n = self.rows
        mul, inverse, mul_into, neg = scalar_table()
        work = [dict(row) for row in self._r]
        if augment:
            for i, row in enumerate(work):
                row[n + i] = ONE
        pivots: list[Scalar] = []
        swaps = 0
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if col in work[r]:
                    pivot_row = r
                    break
            if pivot_row is None:
                return None
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                swaps += 1
            pivot = work[col][col]
            pivots.append(pivot)
            inv = inverse(pivot)
            pivot_entries = [(j, mul(v, inv)) for j, v in work[col].items()]
            work[col] = dict(pivot_entries)
            negated = [(j, neg(w)) for j, w in pivot_entries]
            for r, row in enumerate(work):
                factor = row.get(col)
                if r == col or factor is None:
                    continue
                for j, w in negated:
                    mul_into(row, j, factor, w)
        if not augment:
            return None, pivots, swaps
        return [{j - n: v for j, v in row.items() if j >= n} for row in work], pivots, swaps

    def determinant(self) -> Scalar:
        """The product of the elimination's pivots, negated once per row swap."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        eliminated = self._eliminated(augment=False)
        if eliminated is None:
            return ZERO
        _, pivots, swaps = eliminated
        det = -ONE if swaps % 2 else ONE
        for pivot in pivots:
            det = det * pivot
        return det

    def inverse(self) -> Matrix:
        if self._inverse is not None:
            return self._inverse
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        eliminated = self._eliminated(augment=True)
        if eliminated is None:
            raise SingularMatrixError("matrix is singular")
        return Matrix._of_rows(eliminated[0], self.rows)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _change_slots(
    terms: dict, T: Matrix | None, T_inv: Matrix, *, arguments: int, pair: int | None
) -> dict:
    """``terms``, a sparse tensor ``{index tuple: Scalar}``, in the basis of the columns of T.

    The first ``arguments`` slots are pulled back through T: old index p goes
    to new index j with weight T[p, j], from row p of T (T is unused when
    there are none).  The other slots are pushed forward through T^-1: old
    index r goes to new index s with weight T^-1[s, r], from column r of
    T^-1.  The slots are mapped one after another, each over the whole
    tensor, through one scalar table.  A slot is read before it is mapped,
    so each index read is an index of ``terms``; one with no row or column
    raises IndexError before any product.

    ``pair`` names the first of two neighbouring slots of one kind in which
    the tensor is antisymmetric, or is None.  Then ``terms`` holds only the
    keys sorted in the pair, and so does the result.  The new tensor is
    antisymmetric in the same slots, and equals the image of the sorted
    terms minus that image with the pair swapped.  The pair's first slot
    maps a term from its mirror, -value with the pair swapped, when that
    index has fewer weights: a term whose pair has a and b weights then
    forms min(a, b) + a*b products, against a + b + 2*a*b for both
    orientations.  The second slot lands each product on its key sorted,
    through the negated weight when the sort swaps the pair, and skips a
    key whose pair repeats an index: that product cancels against its
    mirror.
    """
    rank = len(next(iter(terms), ()))
    slot_weights = [T._r if slot < arguments else T_inv._c for slot in range(rank)]
    for key in terms:
        for index, weights in zip(key, slot_weights):
            if not 0 <= index < len(weights):
                raise IndexError(f"index {index} out of range for {len(weights)} basis vectors")
    table = scalar_table()
    mul_into, neg = table.mul_into, table.neg
    fold = None if pair is None else pair + 1
    for slot, weights in enumerate(slot_weights):
        acc: dict[tuple, Scalar] = {}
        for key, value in terms.items():
            head, index, tail = key[:slot], key[slot], key[slot + 1 :]
            if slot == fold:
                head, first = head[:-1], head[-1]
                for k, w in weights[index].items():
                    if first < k:
                        mul_into(acc, head + (first, k) + tail, value, w)
                    elif k < first:
                        mul_into(acc, head + (k, first) + tail, value, neg(w))
            elif slot == pair and len(weights[tail[0]]) < len(weights[index]):
                # the mirror, -value with the pair swapped, forms fewer products
                other, tail = tail[0], (index,) + tail[1:]
                for k, w in weights[other].items():
                    mul_into(acc, head + (k,) + tail, value, neg(w))
            else:
                for k, w in weights[index].items():
                    mul_into(acc, head + (k,) + tail, value, w)
        terms = acc
    return terms


class BilinearForm:
    """Symmetric bilinear form given by its exact Gram matrix, a sparse :class:`Matrix`."""

    __slots__ = ("_m",)

    def __init__(self, matrix):
        if not isinstance(matrix, Matrix):
            rows = [list(row) for row in matrix]
            if any(len(row) != len(rows) for row in rows):
                raise ValueError("bilinear form matrix must be square")
            matrix = Matrix(rows)
        if matrix.rows != matrix.cols:
            raise ValueError("bilinear form matrix must be square")
        # Symmetric iff each row equals its column.  At the first i where they
        # differ every differing j is above i, or row j would have differed.
        for i, (row, col) in enumerate(zip(matrix._r, matrix._c)):
            if row != col:
                j = min(j for j in row.keys() | col.keys() if row.get(j) != col.get(j))
                raise ValueError(f"bilinear form not symmetric at ({i},{j})")
        self._m = matrix

    @property
    def dim(self) -> int:
        return self._m.rows

    def entry(self, i: int, j: int) -> Scalar:
        return self._m.entry(i, j)

    def matrix(self) -> Matrix:
        return self._m

    def determinant(self) -> Scalar:
        return self._m.determinant()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return self._m == other._m

    def __repr__(self):
        return f"BilinearForm(dim={self.dim})"


@dataclass(frozen=True)
class Violation:
    """One counterexample: the offending index tuple and its residual."""

    indices: tuple[int, ...]
    residual: str


@dataclass
class ViolationReport:
    check: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class LieAlgebra:
    """Finite-dimensional Lie algebra given by basis labels and brackets."""

    __slots__ = ("dim", "labels", "tensor")

    def __init__(self, labels, tensor: StructureTensor):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        _require_in_range(tensor.indices(), len(labels), "structure tensor")
        self.dim = len(labels)
        self.labels = labels
        self.tensor = tensor

    @classmethod
    def from_brackets(cls, labels, brackets) -> LieAlgebra:
        return cls(labels, StructureTensor(brackets))

    def _check_index(self, index: int):
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} out of range for dimension {self.dim}")

    def bracket_basis(self, p: int, q: int) -> Vector:
        self._check_index(p)
        self._check_index(q)
        coeffs = self.tensor.pair(p, q)
        return Vector(coeffs) if coeffs else Vector()

    def bracket(self, x: Vector, y: Vector) -> Vector:
        table = scalar_table()
        mul, mul_into = table.mul, table.mul_into
        acc: dict[int, Scalar] = {}
        for p, xv in x.items():
            self._check_index(p)
            for q, yv in y.items():
                self._check_index(q)
                coeffs = self.tensor.pair(p, q)
                if not coeffs:
                    continue
                factor = mul(xv, yv)
                for r, coeff in coeffs.items():
                    mul_into(acc, r, factor, coeff)
        return Vector(acc)

    def _jacobi_terms(self, below: int) -> dict[tuple[int, int, int], list]:
        """The terms of each Jacobi residual that can be nonzero, by triple p < q < r with q < below.

        A triple's residual is the sum of its three cyclic terms
        [[e_a, e_b], e_c], and a term is nonzero only if [e_a, e_b] != 0 and
        some k in its support has [e_k, e_c] != 0, that is c in row k.  So
        each stored pair (a, b) lists, with every such c, its term
        (x, y, c, ks) under the triple sorted: (a, b, c), or (b, a, c) when
        c lies between a and b, as [[e_b, e_a], e_c] is the cyclic term
        there; ``ks`` are the k with [e_k, e_c] != 0.  The middle index of
        the sorted triple is a, c or b, so a pair with a >= below lists no
        term, and one with b >= below only the c < below.
        """
        rows = self.tensor._rows
        low = rows  # each row's c < below
        if below < self.dim:
            low = {k: [c for c in row if c < below] for k, row in rows.items()}
        terms: dict[tuple[int, int, int], list] = {}
        for (a, b), coeffs in self.tensor.stored():
            if a >= below:
                break  # the pairs come sorted
            near = rows if b < below else low
            first, *more = coeffs
            outer = dict.fromkeys(near.get(first, ()), (first,))  # c -> its ks
            for k in more:
                for c in near.get(k, ()):
                    outer[c] = outer.get(c, ()) + (k,)
            outer.pop(a, None)
            outer.pop(b, None)
            for c, ks in outer.items():
                if c < a:
                    terms.setdefault((c, a, b), []).append((a, b, c, ks))
                elif c < b:
                    terms.setdefault((a, c, b), []).append((b, a, c, ks))
                else:
                    terms.setdefault((a, b, c), []).append((a, b, c, ks))
        return terms

    def _jacobi_violations(self, below: int) -> list[Violation]:
        """The Jacobi counterexamples of the triples p < q < r with q < below, in sorted order."""
        rows = self.tensor._rows
        mul_into = scalar_table().mul_into
        terms = self._jacobi_terms(below)
        violations = []
        for triple in sorted(terms):
            acc: dict[int, Scalar] = {}
            for x, y, c, ks in terms[triple]:
                inner = rows[x][y]
                for k in ks:
                    coeff = inner[k]
                    for m, c2 in rows[k][c].items():
                        mul_into(acc, m, coeff, c2)
            if acc:
                violations.append(Violation(triple, Vector(acc).format(self.labels)))
        return violations

    def check_jacobi(self, theta=None) -> ViolationReport:
        """Exhaustively test [[e_p,e_q],e_r] + cyclic = 0 over all p<q<r.

        Only the terms that can be nonzero are evaluated, and in each only
        the k in the support of the inner bracket with [e_k, e_c] != 0: every
        other triple has a zero residual, so the counterexamples equal those
        of the loop over all triples, in the same order.

        ``theta``, a ``bialg.SelfDuality`` certified on this algebra, makes
        it evaluate one triple per theta-orbit first, those whose middle
        index is below theta's half: theta is a bracket automorphism, so the
        residual at the image of a triple is the image of its residual.
        When one of them does not vanish, and without ``theta``, every
        triple is evaluated.
        """
        report = ViolationReport("jacobi")
        certified = theta is not None and theta.algebra is self
        report.violations = self._jacobi_violations(theta.half if certified else self.dim)
        if certified and report.violations:
            report.violations = self._jacobi_violations(self.dim)
        return report

    def killing_form(self) -> BilinearForm:
        """K(p, q) = trace(ad(e_p) ad(e_q)), over the stored brackets only.

        (ad e_p) has the entry c at (k, l) when [e_p, e_l] = ... + c*e_k;
        :func:`_paired_traces` pairs those entries.
        """
        return _paired_traces(
            ((p, k, l, c) for (p, l), coeffs in self.tensor.oriented() for k, c in coeffs.items()),
            self.dim,
        )

    def change_of_basis(self, T: Matrix, labels=None) -> LieAlgebra:
        """Rewrite brackets in the basis whose vectors are the columns of T.

        Each stored bracket, p < q, is one term with two argument slots and
        one output slot for :func:`_change_slots`, antisymmetric in its
        arguments, so the result holds the new pairs p < q only.
        """
        if T.rows != self.dim or T.cols != self.dim:
            raise ValueError("change-of-basis matrix has wrong shape")
        T_inv = T.inverse()
        terms = {
            (p, q, r): c for (p, q), coeffs in self.tensor.stored() for r, c in coeffs.items()
        }
        new_terms = _change_slots(terms, T, T_inv, arguments=2, pair=0)
        brackets: dict[tuple[int, int], dict] = {}
        for p, q, r in sorted(new_terms):
            brackets.setdefault((p, q), {})[r] = new_terms[(p, q, r)]
        return LieAlgebra(
            labels if labels is not None else self.labels, StructureTensor._of_sorted(brackets)
        )


def abelian(dim: int, labels=None) -> LieAlgebra:
    labels = tuple(f"T{k + 1}" for k in range(dim)) if labels is None else tuple(labels)
    if len(labels) != dim:
        raise ValueError(f"{len(labels)} labels for an abelian algebra of dimension {dim}")
    return LieAlgebra(labels, StructureTensor({}))


def joined_labels(left, right) -> tuple[str, ...]:
    """``left`` then ``right``, with ``r_`` prefixed to all of ``right`` until none collide."""
    right = list(right)
    while set(left) & set(right):
        right = ["r_" + label for label in right]
    return tuple(left) + tuple(right)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum; colliding right-hand labels are prefixed."""
    brackets = {key: dict(vec) for key, vec in a.tensor.stored()}
    offset = a.dim
    for (p, q), vec in b.tensor.stored():
        brackets[(p + offset, q + offset)] = {r + offset: v for r, v in vec.items()}
    return LieAlgebra(joined_labels(a.labels, b.labels), StructureTensor(brackets))


def structure_equal(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Entrywise equality of dimensions and structure tensors; labels ignored."""
    return a.dim == b.dim and a.tensor == b.tensor


def trace_form(rep) -> BilinearForm:
    """Gram matrix B(p, q) = trace(rep[p] * rep[q]) of a matrix representation.

    The stored entries of the matrices are paired by :func:`_paired_traces`,
    so no product matrix is formed.
    """
    rep = list(rep)
    for mat in rep:
        if mat.rows != mat.cols or mat.rows != rep[0].rows:
            raise ValueError("representation matrices must be square and equal-sized")
    return _paired_traces(
        ((p, k, l, a) for p, mat in enumerate(rep) for k, row in enumerate(mat._r)
         for l, a in row.items()),
        len(rep),
    )


def _paired_traces(entries, dim: int) -> BilinearForm:
    """The symmetric form B(p, q) = trace(A_p A_q) of ``dim`` square matrices A_p.

    ``entries`` yields ``(p, k, l, A_p[k, l])`` for the stored entries.
    trace(A_p A_q) sums A_p[k, l] * A_q[l, k], so the entries are grouped by
    position and each position (k, l) is paired with its transpose (l, k),
    for p <= q, through one scalar table: only nonzero products are formed.
    """
    at: dict[tuple[int, int], list] = {}  # (k, l) -> [(p, A_p[k, l])]
    for p, k, l, value in entries:
        at.setdefault((k, l), []).append((p, value))
    mul_into = scalar_table().mul_into
    acc: dict[tuple[int, int], Scalar] = {}
    for (k, l), left in at.items():
        right = at.get((l, k))
        if not right:
            continue
        for p, a in left:
            for q, b in right:
                if p <= q:
                    mul_into(acc, (p, q), a, b)
    rows: list[dict] = [{} for _ in range(dim)]
    for (p, q), value in acc.items():
        rows[p][q] = rows[q][p] = value
    return BilinearForm(Matrix._of_rows(rows, dim))
