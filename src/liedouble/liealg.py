"""Structure-constant Lie algebras over Q(i, sqrt2).

An algebra is a labelled basis plus a sparse antisymmetric structure tensor:
only pairs (p, q) with p < q are stored, the reversed bracket is implied.
Basis indexing is 0-based internally; display labels carry whatever 1-based
names the caller prefers.

All containers here are treated as immutable after construction and every
operation is a pure function, so values can be shared freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .scalars import ONE, Scalar, ZERO

__all__ = [
    "SparseTensor",
    "Vector",
    "add_into",
    "ScalarTable",
    "scalar_table",
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


def add_into(acc: dict, key, value, add=operator.add) -> None:
    """Add ``value`` to ``acc[key]`` with ``add``, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = value if s is None else add(s, value)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class ScalarTable(NamedTuple):
    """The field operations a kernel computes through: ``mul``, ``add`` and ``inverse``."""

    mul: Callable
    add: Callable
    inverse: Callable


def scalar_table() -> ScalarTable:
    """Return ``mul(x, y)``, ``add(x, y)`` and ``inverse(x)`` that compute each value (pair) once.

    A kernel over the gl(n) double combines a handful of distinct values
    (0, +-1, +-sqrt2/2, +-i/2, ...) thousands of times, and a Scalar product,
    sum or inverse costs as much as several dict lookups.  The table hashes
    each operand object once, maps it to one canonical object per value and
    keys every result on the ids of those canonical objects.  It keeps every
    operand it has seen alive for as long as it lives, so no id is reused
    while it is a key.  Make one table per kernel call and let it go with the
    call.
    """
    canonical: dict[Scalar, Scalar] = {}
    seen: dict[int, tuple[Scalar, int]] = {}  # id(operand) -> (operand, id of its value)
    products: dict[tuple[int, int], Scalar] = {}
    sums: dict[tuple[int, int], Scalar] = {}
    inverses: dict[int, Scalar] = {}

    def value_id(x) -> int:
        entry = seen.get(id(x))
        if entry is None:
            entry = seen[id(x)] = (x, id(canonical.setdefault(x, x)))
        return entry[1]

    def mul(x, y):
        try:  # both operands seen before: skip the calls
            key = (seen[id(x)][1], seen[id(y)][1])
        except KeyError:
            key = (value_id(x), value_id(y))
        product = products.get(key)
        if product is None:
            product = products[key] = x * y
        return product

    def add(x, y):
        try:
            key = (seen[id(x)][1], seen[id(y)][1])
        except KeyError:
            key = (value_id(x), value_id(y))
        total = sums.get(key)
        if total is None:
            total = sums[key] = x + y
        return total

    def inverse(x):
        key = value_id(x)
        inv = inverses.get(key)
        if inv is None:
            inv = inverses[key] = x.inverse()
        return inv

    return ScalarTable(mul, add, inverse)


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

    def _combined(self, other, negate: bool):
        data = dict(self._c)
        for key, value in other._c.items():
            add_into(data, key, -value if negate else value)
        out = type(self)()
        out._c = data
        return out

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
    """Antisymmetric bracket table: stored pairs (p, q) with p < q only."""

    __slots__ = ("_stored", "_view")

    def __init__(self, entries):
        stored = {}
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
            stored[key] = {r: -v for r, v in coeffs.items()} if flip else coeffs
        self._stored = dict(sorted(stored.items()))
        view = {}
        for (p, q), coeffs in self._stored.items():
            view[(p, q)] = coeffs
            view[(q, p)] = {r: -v for r, v in coeffs.items()}
        self._view = view

    def pair(self, p: int, q: int):
        """Coefficients of [e_p, e_q], or None when the bracket vanishes.

        The returned mapping is shared internal state; do not mutate it.
        """
        return self._view.get((p, q))

    def stored(self):
        return self._stored.items()

    def oriented(self):
        """Every nonzero bracket in both orientations: ((p, q), coeffs) and ((q, p), -coeffs).

        The coefficient mappings are shared internal state; do not mutate them.
        """
        return self._view.items()

    def max_index(self) -> int:
        top = -1
        for (p, q), coeffs in self._stored.items():
            top = max(top, q)
            top = max(top, max(coeffs))
        return top

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self._stored == other._stored

    def __hash__(self):
        return hash(tuple((k, tuple(v.items())) for k, v in self._stored.items()))

    def __repr__(self):
        return f"StructureTensor({self._stored!r})"


class SingularMatrixError(ValueError):
    pass


def _check_index(index: int, size: int, kind: str) -> None:
    if not 0 <= index < size:
        raise IndexError(f"{kind} index {index} out of range for {size} {kind}s")


class Matrix:
    """Exact matrix over Q(i, sqrt2) that stores only its nonzero entries.

    Each row is a ``{column: Scalar}`` dict and a column index maps each
    column to its ``{row: Scalar}`` dict, so products, applications and
    eliminations visit the stored entries only.
    """

    __slots__ = ("rows", "cols", "_r", "_c")

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

    def _apply(self, vec: Vector, table: ScalarTable) -> Vector:
        mul, add = table.mul, table.add
        acc: dict[int, Scalar] = {}
        for j, v in vec.items():
            if j >= self.cols:
                raise IndexError(f"vector index {j} out of range for {self.cols} columns")
            for i, m in self._c[j].items():
                add_into(acc, i, mul(m, v), add)
        return Vector(acc)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((row[i] for i, row in enumerate(self._r) if i in row), ZERO)

    def _eliminated(self, augment: bool):
        """Gauss-Jordan over sparse rows; returns (inverse rows or None, det).

        Each working row is a copy of a stored row, with the augmented
        identity in columns n..2n-1.  The pivot is the first row at or below
        ``col`` with a nonzero entry there, and scaling and elimination touch
        only the pivot row's stored entries: every skipped product has a zero
        factor.  The returned inverse rows hold their nonzero entries only.
        Products, sums and pivot inverses go through one scalar table.
        """
        n = self.rows
        mul, add, inverse = scalar_table()
        work = [dict(row) for row in self._r]
        if augment:
            for i, row in enumerate(work):
                row[n + i] = ONE
        det = ONE
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if col in work[r]:
                    pivot_row = r
                    break
            if pivot_row is None:
                return None, ZERO
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                det = -det
            pivot = work[col][col]
            det = mul(det, pivot)
            inv = inverse(pivot)
            pivot_entries = [(j, mul(v, inv)) for j, v in work[col].items()]
            work[col] = dict(pivot_entries)
            negated = [(j, -w) for j, w in pivot_entries]
            for r, row in enumerate(work):
                factor = row.get(col)
                if r == col or factor is None:
                    continue
                for j, w in negated:
                    add_into(row, j, mul(factor, w), add)
        if not augment:
            return None, det
        return [{j - n: v for j, v in row.items() if j >= n} for row in work], det

    def determinant(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, det = self._eliminated(augment=False)
        return det

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug, det = self._eliminated(augment=True)
        if aug is None or not det:
            raise SingularMatrixError("matrix is singular")
        return Matrix._of_rows(aug, self.rows)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


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
        if tensor.max_index() >= len(labels):
            raise ValueError("structure tensor index out of range")
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
        return self._bracket(x, y, scalar_table())

    def _bracket(self, x: Vector, y: Vector, table: ScalarTable) -> Vector:
        mul, add = table.mul, table.add
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
                    add_into(acc, r, mul(factor, coeff), add)
        return Vector(acc)

    def _jacobi_candidates(self) -> list[tuple[int, int, int]]:
        """The triples p < q < r whose Jacobi residual can be nonzero, sorted.

        The term [[e_a, e_b], e_c] is nonzero only if some k in the support
        of [e_a, e_b] has [e_k, e_c] != 0.  A triple's residual is the sum of
        its three cyclic terms, so it can be nonzero only if one of them
        arises this way from a stored bracket (a, b) and such a c.
        """
        partners: dict[int, set] = {}
        for (k, c), _ in self.tensor.oriented():
            partners.setdefault(k, set()).add(c)
        candidates = set()
        for (a, b), coeffs in self.tensor.stored():
            outer = set()
            for k in coeffs:
                outer.update(partners.get(k, ()))
            outer.discard(a)
            outer.discard(b)
            for c in outer:
                candidates.add(tuple(sorted((a, b, c))))
        return sorted(candidates)

    def check_jacobi(self) -> ViolationReport:
        """Exhaustively test [[e_p,e_q],e_r] + cyclic = 0 over all p<q<r.

        Only the candidate triples are evaluated; every other triple has a
        zero residual, so the counterexamples equal those of the loop over
        all triples, in the same order.
        """
        report = ViolationReport("jacobi")
        pair = self.tensor.pair
        mul, add, _ = scalar_table()

        def accumulate(acc, inner, outer_index):
            if not inner:
                return
            for k, coeff in inner.items():
                w = pair(k, outer_index)
                if not w:
                    continue
                for m, c2 in w.items():
                    add_into(acc, m, mul(coeff, c2), add)

        for p, q, r in self._jacobi_candidates():
            acc: dict[int, Scalar] = {}
            accumulate(acc, pair(p, q), r)
            accumulate(acc, pair(q, r), p)
            accumulate(acc, pair(r, p), q)
            if acc:
                residual = Vector(acc)
                report.violations.append(Violation((p, q, r), residual.format(self.labels)))
        return report

    def killing_form(self) -> BilinearForm:
        """K(p, q) = trace(ad(e_p) ad(e_q)), over the stored brackets only.

        (ad e_p) has the entry c at (k, l) when [e_p, e_l] = ... + c*e_k, so
        K(p, q) sums (ad e_p)[k, l] * (ad e_q)[l, k].  The entries of every
        ad e_p are grouped by position, and each position (k, l) is paired
        with its transpose (l, k): only nonzero products are formed.
        """
        at: dict[tuple[int, int], list] = {}  # (k, l) -> [(p, (ad e_p)[k, l])]
        for (p, l), coeffs in self.tensor.oriented():
            for k, c in coeffs.items():
                at.setdefault((k, l), []).append((p, c))
        mul, add, _ = scalar_table()
        acc: dict[tuple[int, int], Scalar] = {}
        for (k, l), left in at.items():
            right = at.get((l, k))
            if not right:
                continue
            for p, a in left:
                for q, b in right:
                    if p <= q:
                        add_into(acc, (p, q), mul(a, b), add)
        rows: list[dict] = [{} for _ in range(self.dim)]
        for (p, q), value in acc.items():
            rows[p][q] = rows[q][p] = value
        return BilinearForm(Matrix._of_rows(rows, self.dim))

    def change_of_basis(self, T: Matrix, labels=None) -> LieAlgebra:
        """Rewrite brackets in the basis whose vectors are the columns of T."""
        if T.rows != self.dim or T.cols != self.dim:
            raise ValueError("change-of-basis matrix has wrong shape")
        T_inv = T.inverse()
        table = scalar_table()
        columns = [T.column(j) for j in range(self.dim)]
        brackets = {}
        for p in range(self.dim):
            for q in range(p + 1, self.dim):
                w = self._bracket(columns[p], columns[q], table)
                if w:
                    new_w = T_inv._apply(w, table)
                    if new_w:
                        brackets[(p, q)] = {r: v for r, v in new_w.items()}
        return LieAlgebra(labels if labels is not None else self.labels, StructureTensor(brackets))


def abelian(dim: int, labels=None) -> LieAlgebra:
    if labels is None:
        labels = tuple(f"T{k + 1}" for k in range(dim))
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
    """Gram matrix B(p, q) = trace(rep[p] * rep[q]) of a matrix representation."""
    rep = list(rep)
    for mat in rep:
        if mat.rows != mat.cols or mat.rows != rep[0].rows:
            raise ValueError("representation matrices must be square and equal-sized")
    rows: list[dict] = [{} for _ in rep]
    for p, left in enumerate(rep):
        for q in range(p, len(rep)):
            value = (left * rep[q]).trace()
            if value:
                rows[p][q] = rows[q][p] = value
    return BilinearForm(Matrix._of_rows(rows, len(rep)))
