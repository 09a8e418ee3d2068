"""Lie bialgebra layer: cocommutators, classical r-matrices, Schouten bracket.

Wedge convention, fixed repository-wide: a^b = a(x)b - b(x)a, with no 1/2
factor.  A cocommutator maps each basis index to an antisymmetric TwoTensor;
its structure constants double as the bracket table of the dual algebra.

For a Manin triple the canonical r-matrix is r = sum_p z^p (x) Z_p (one
term per index pair, coefficient 1) and its skew part is
r_tilde = (1/2) sum_p z^p ^ Z_p.  The coboundary of r_tilde reproduces the
double's cocommutator exactly; the symmetric part of r is invariant under
the adjoint action, which is why Schouten verdicts are computed on the skew
part alone (the report states this assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .liealg import (
    LieAlgebra,
    Matrix,
    SparseTensor,
    StructureTensor,
    Violation,
    ViolationReport,
    _change_slots,
    _coerce_scalar,
    add_into,
    scalar_table,
)
from .manin import ManinTriple
from .scalars import Scalar, ZERO, ONE, rational

__all__ = [
    "TwoTensor",
    "ThreeTensor",
    "Cocommutator",
    "cocommutator_from_triple",
    "express_in_basis",
    "dual_algebra",
    "check_cojacobi",
    "check_cocycle",
    "build_rmatrix",
    "coboundary",
    "schouten_bracket",
    "schouten_check",
    "QuasitriangularReport",
    "TRIANGULAR",
    "QUASITRIANGULAR",
    "NOT_INVARIANT",
]


class TwoTensor(SparseTensor):
    """Sparse element of g (x) g: map from index pair (q, r) to coefficient."""

    __slots__ = ()

    @classmethod
    def wedge(cls, p: int, q: int, coeff=ONE) -> TwoTensor:
        coeff = _coerce_scalar(coeff)
        return cls({(p, q): coeff, (q, p): -coeff})

    def get(self, p: int, q: int) -> Scalar:
        return self._c.get((p, q), ZERO)

    def is_antisymmetric(self) -> bool:
        for (p, q), value in self._c.items():
            if self._c.get((q, p), ZERO) != -value:
                return False
        return True

    def _require_indices(self, dim: int, what: str) -> None:
        """Raise ValueError, naming ``what``, when a term has an index outside range(dim)."""
        for k in sorted({k for key in self._c for k in key}):
            if not 0 <= k < dim:
                raise ValueError(f"{what} has index {k} outside range({dim})")

    def transport(self, inverse_basis_map: Matrix) -> TwoTensor:
        """Rewrite coordinates through the inverse change-of-basis matrix.

        Both slots are outputs, pushed forward by :func:`liealg._change_slots`.
        """
        return TwoTensor(_change_slots(self._c, None, inverse_basis_map, arguments=0))


class ThreeTensor(SparseTensor):
    """Sparse element of g (x) g (x) g, not antisymmetrized.

    Its text form writes every coefficient, units included, and joins the
    terms with `` + `` whatever their sign.
    """

    __slots__ = ()

    def format(self, labels) -> str:
        if not self._c:
            return "0"
        parts = []
        for (p, q, r), value in self.items():
            text = str(value)
            if " " in text:
                text = f"({text})"
            parts.append(f"{text}*{labels[p]}(x){labels[q]}(x){labels[r]}")
        return " + ".join(parts)


class Cocommutator:
    """Map from index to an antisymmetric TwoTensor, all indices in range(dim); zeros omitted."""

    __slots__ = ("dim", "_entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        data = {}
        if entries:
            for index, tensor in entries.items():
                if not 0 <= index < dim:
                    raise ValueError(f"cocommutator index {index} outside range({dim})")
                if not isinstance(tensor, TwoTensor):
                    tensor = TwoTensor(tensor)
                if tensor:
                    if not tensor.is_antisymmetric():
                        raise ValueError(f"cocommutator value at index {index} is not antisymmetric")
                    tensor._require_indices(dim, f"cocommutator value at index {index}")
                    data[index] = tensor
        self._entries = data

    def get(self, index: int) -> TwoTensor:
        return self._entries.get(index, TwoTensor())

    def items(self):
        return sorted(self._entries.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cocommutator):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __repr__(self):
        return f"Cocommutator(dim={self.dim}, entries={len(self._entries)})"


def cocommutator_from_triple(triple: ManinTriple) -> Cocommutator:
    """Double cocommutator: delta(Z_p) = -c^{q,r}_p Z_q (x) Z_r and
    delta(z^p) = f^p_{q,r} z^q (x) z^r, in double indices (Z-block first)."""
    m = triple.plus.dim
    entries: dict[int, dict] = {}
    for (q, r), vec in triple.minus.tensor.stored():
        # stored entry: c^{q,r}_p for each output p
        for p, value in vec.items():
            acc = entries.setdefault(p, {})
            add_into(acc, (q, r), -value)
            add_into(acc, (r, q), value)
    for (q, r), vec in triple.plus.tensor.stored():
        # stored entry: f^p_{q,r} for each output p
        for p, value in vec.items():
            acc = entries.setdefault(m + p, {})
            add_into(acc, (m + q, m + r), value)
            add_into(acc, (m + r, m + q), -value)
    return Cocommutator(2 * m, {k: TwoTensor(v) for k, v in entries.items()})


def express_in_basis(delta: Cocommutator, T: Matrix) -> Cocommutator:
    """Transport a cocommutator through the change of basis with matrix T.

    Consistent with LieAlgebra.change_of_basis: the new basis vectors are
    the columns of T in the old basis; the argument slot and the two output
    slots move as :func:`liealg._change_slots` describes.
    """
    if T.rows != delta.dim or T.cols != delta.dim:
        raise ValueError("change-of-basis matrix has wrong shape")
    T_inv = T.inverse()
    terms = {(p,) + key: c for p, tensor in delta.items() for key, c in tensor.items()}
    entries: dict[int, dict] = {}
    for (p, q, r), c in _change_slots(terms, T, T_inv, arguments=1).items():
        entries.setdefault(p, {})[(q, r)] = c
    return Cocommutator(delta.dim, entries)


def dual_algebra(delta: Cocommutator, labels=None) -> LieAlgebra:
    """The algebra on the dual space whose brackets are delta's constants."""
    labels = tuple(f"d{k}" for k in range(delta.dim)) if labels is None else tuple(labels)
    if len(labels) != delta.dim:
        raise ValueError(f"{len(labels)} labels for a cocommutator of dimension {delta.dim}")
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for p, tensor in delta.items():
        for (q, r), value in tensor.items():
            if q < r:
                brackets.setdefault((q, r), {})[p] = value
    return LieAlgebra(labels, StructureTensor(brackets))


def check_cojacobi(delta: Cocommutator, labels=None) -> ViolationReport:
    """Jacobi identity for the dual bracket read off from delta."""
    report = dual_algebra(delta, labels).check_jacobi()
    report.check = "cojacobi"
    return report


def _by_slot(tensor: SparseTensor) -> list[dict[int, list]]:
    """Index a 2- or 3-tensor's terms by the basis index in each slot.

    ``by_slot[slot][s]`` lists the ``(key, value)`` terms with
    ``key[slot] == s``; an empty tensor has no slots.
    """
    by_slot: list[dict[int, list]] = []
    for key, value in tensor.items():
        if not by_slot:
            by_slot = [{} for _ in key]
        for slot, s in enumerate(key):
            by_slot[slot].setdefault(s, []).append((key, value))
    return by_slot


def _add_action(acc: dict, pair, x: int, by_slot, mul, add, negate=False) -> None:
    """Add the adjoint action of e_x on a tensor into ``acc``, or its negative with ``negate``.

    The action is ad_x on each slot in turn, summed: ad_x (x) 1 + 1 (x) ad_x
    on g (x) g, and the three-slot sum on g (x) g (x) g.  ``by_slot`` is the
    tensor's ``_by_slot`` index, so only the slot values s with [x, s] != 0
    are visited.  The negative reads [e_s, e_x] = -[e_x, e_s] off the stored
    orientations, so no coefficient is negated.
    """
    for slot, terms_at in enumerate(by_slot):
        for s, terms in terms_at.items():
            w = pair(s, x) if negate else pair(x, s)
            if not w:
                continue
            for key, value in terms:
                for k, coeff in w.items():
                    add_into(acc, key[:slot] + (k,) + key[slot + 1 :], mul(value, coeff), add)


def check_cocycle(alg: LieAlgebra, delta: Cocommutator) -> ViolationReport:
    """1-cocycle condition: delta([x,y]) = ad_x.delta(y) - ad_y.delta(x).

    Each residual delta([p,q]) - ad_p.delta(q) + ad_q.delta(p) is summed in
    one accumulator.
    """
    if delta.dim != alg.dim:
        raise ValueError("cocommutator dimension does not match the algebra")
    report = ViolationReport("cocycle")
    pair = alg.tensor.pair
    mul, add, _ = scalar_table()
    slots = [_by_slot(delta.get(p)) for p in range(alg.dim)]
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            acc: dict[tuple[int, int], Scalar] = {}
            coeffs = pair(p, q)
            if coeffs:
                for r, value in coeffs.items():
                    for key, coeff in delta.get(r).items():
                        add_into(acc, key, mul(value, coeff), add)
            _add_action(acc, pair, p, slots[q], mul, add, negate=True)
            _add_action(acc, pair, q, slots[p], mul, add)
            if acc:
                report.violations.append(
                    Violation((p, q), TwoTensor(acc).format(alg.labels))
                )
    return report


def build_rmatrix(triple: ManinTriple) -> tuple[TwoTensor, TwoTensor]:
    """The canonical element sum_p z^p (x) Z_p and its skew half."""
    m = triple.plus.dim
    half = rational(1, 2)
    r = TwoTensor({(m + p, p): ONE for p in range(m)})
    r_skew = TwoTensor(
        {key: value for p in range(m) for key, value in (((m + p, p), half), ((p, m + p), -half))}
    )
    return r, r_skew


def coboundary(alg: LieAlgebra, r_skew: TwoTensor) -> Cocommutator:
    """delta(x) = (ad_x (x) 1 + 1 (x) ad_x)(r_skew) on every basis element."""
    r_skew._require_indices(alg.dim, "two-tensor")
    pair = alg.tensor.pair
    mul, add, _ = scalar_table()
    by_slot = _by_slot(r_skew)
    entries = {}
    for x in range(alg.dim):
        acc: dict[tuple[int, int], Scalar] = {}
        _add_action(acc, pair, x, by_slot, mul, add)
        if acc:
            entries[x] = acc
    return Cocommutator(alg.dim, entries)


TRIANGULAR = "triangular"
QUASITRIANGULAR = "quasitriangular"
NOT_INVARIANT = "not_invariant"

_SCHOUTEN_ASSUMPTION = (
    "verdict computed on the skew part; the symmetric part of the canonical "
    "element is adjoint-invariant and does not affect it"
)


@dataclass
class QuasitriangularReport:
    """Schouten bracket of r with itself plus its adjoint-invariance verdict."""

    verdict: str
    schouten: ThreeTensor
    violations: list[Violation] = field(default_factory=list)
    assumption: str = _SCHOUTEN_ASSUMPTION

    @property
    def ok(self) -> bool:
        return self.verdict != NOT_INVARIANT


def schouten_bracket(alg: LieAlgebra, r: TwoTensor) -> ThreeTensor:
    """[[r, r]] = [r_12, r_13] + [r_12, r_23] + [r_13, r_23]."""
    r._require_indices(alg.dim, "two-tensor")
    terms = r.items()
    pair = alg.tensor.pair
    mul, add, _ = scalar_table()
    acc: dict[tuple[int, int, int], Scalar] = {}
    for (a1, b1), v1 in terms:
        for (a2, b2), v2 in terms:
            coeff = mul(v1, v2)
            w = pair(a1, a2)
            if w:
                for k, cv in w.items():
                    add_into(acc, (k, b1, b2), mul(coeff, cv), add)
            w = pair(b1, a2)
            if w:
                for k, cv in w.items():
                    add_into(acc, (a1, k, b2), mul(coeff, cv), add)
            w = pair(b1, b2)
            if w:
                for k, cv in w.items():
                    add_into(acc, (a1, a2, k), mul(coeff, cv), add)
    return ThreeTensor(acc)


def schouten_check(alg: LieAlgebra, r_skew: TwoTensor) -> QuasitriangularReport:
    """Compute [[r, r]] and test its invariance under every ad_x (x basis)."""
    schouten = schouten_bracket(alg, r_skew)
    pair = alg.tensor.pair
    mul, add, _ = scalar_table()
    by_slot = _by_slot(schouten)
    violations: list[Violation] = []
    for x in range(alg.dim):
        acc: dict[tuple[int, int, int], Scalar] = {}
        _add_action(acc, pair, x, by_slot, mul, add)
        if acc:
            violations.append(
                Violation((x,), ThreeTensor(acc).format(alg.labels))
            )
    if violations:
        verdict = NOT_INVARIANT
    elif schouten:
        verdict = QUASITRIANGULAR
    else:
        verdict = TRIANGULAR
    return QuasitriangularReport(verdict, schouten, violations)


# The gl(n)+t_n split and quotient live in glnfactory with the H/I/F layout; the benchmark
# tracer looks them up here.  Last, because glnfactory imports this module.
from .glnfactory import identify_central, split_twist  # noqa: E402
