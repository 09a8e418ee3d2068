"""Lie bialgebra layer: cocommutators, classical r-matrices, Schouten bracket.

Wedge convention, fixed repository-wide: a^b = a(x)b - b(x)a, with no 1/2
factor.  A cocommutator maps each basis index to an antisymmetric TwoTensor;
its structure constants double as the bracket table of the dual algebra.

A cocommutator stores each value as its sorted half, the q < r terms, and
the kernels read and write halves; ``get`` and ``items`` mirror them.

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
    BilinearForm,
    LieAlgebra,
    Matrix,
    SparseTensor,
    StructureTensor,
    Violation,
    ViolationReport,
    _change_slots,
    _coerce_scalar,
    _require_in_range,
    ScalarTable,
    scalar_table,
)
from .manin import ManinTriple, _require_equal_halves
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
    "SelfDuality",
    "certify_self_duality",
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
        """coeff * e_p ^ e_q, which is 0 when p == q."""
        if p == q:
            return cls()
        coeff = _coerce_scalar(coeff)
        return cls({(p, q): coeff, (q, p): -coeff})

    def get(self, p: int, q: int) -> Scalar:
        return self._c.get((p, q), ZERO)

    def is_antisymmetric(self) -> bool:
        """True iff every term (p, q) has p != q and (q, p) holds its negative."""
        self._require_pairs("two-tensor")
        return self._antisymmetric_half() is not None

    def _antisymmetric_half(self) -> dict | None:
        """The p < q terms, which determine the tensor, when it is antisymmetric; else None.

        One pass: each pair is visited once, from p < q, and the two values'
        integer ratios are compared, numerators negated, so no Scalar
        comparison, sum or negation runs; the other orientation is then
        accounted for by counting.
        """
        terms = self._c
        half = {}
        for (p, q), value in terms.items():
            if p < q:
                other = terms.get((q, p))
                if other is None:
                    return None
                # equal denominators and opposite numerators
                mine, theirs = value._ratios(), other._ratios()
                opposite = mine[1::2] == theirs[1::2] and all(
                    m == -t for m, t in zip(mine[::2], theirs[::2])
                )
                if not opposite:
                    return None
                half[(p, q)] = value
        return half if 2 * len(half) == len(terms) else None

    @classmethod
    def _of_half(cls, half: dict, neg) -> TwoTensor:
        """The antisymmetric tensor whose p < q terms are ``half``; ``neg`` negates each for (q, p)."""
        data = dict(half)
        for (p, q), value in half.items():
            data[(q, p)] = neg(value)
        return cls._of_nonzero(data)

    def _require_pairs(self, what: str) -> None:
        """Raise ValueError, naming ``what``, when a key is not an index pair."""
        for key in self._c:
            if type(key) is not tuple or len(key) != 2:
                raise ValueError(f"{what} has key {key!r}, not an index pair")

    def _require_indices(self, dim: int, what: str) -> None:
        """Raise ValueError, naming ``what``, when a key is not an index pair or not in range(dim)."""
        self._require_pairs(what)
        _require_in_range({k for key in self._c for k in key}, dim, what)

    def transport(self, inverse_basis_map: Matrix) -> TwoTensor:
        """Rewrite coordinates through the inverse change-of-basis matrix, which must be square.

        Both slots are outputs, pushed forward by :func:`liealg._change_slots`:
        from the sorted half as an antisymmetric pair when the tensor is
        antisymmetric, from every term otherwise.
        """
        T_inv = inverse_basis_map
        if T_inv.rows != T_inv.cols:
            raise ValueError("change-of-basis matrix has wrong shape")
        self._require_pairs("two-tensor")
        half = self._antisymmetric_half()
        if half is None:
            return TwoTensor(_change_slots(self._c, None, T_inv, arguments=0, pair=None))
        return TwoTensor._of_half(
            _change_slots(half, None, T_inv, arguments=0, pair=0), scalar_table().neg
        )


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
    """Map from index to an antisymmetric TwoTensor, all indices in range(dim); zeros omitted.

    Each value is stored as its sorted half ``{(q, r): value}`` with q < r.
    """

    __slots__ = ("dim", "_halves")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        halves = {}
        for index, tensor in (entries or {}).items():
            if not 0 <= index < dim:
                raise ValueError(f"cocommutator index {index} outside range({dim})")
            if not isinstance(tensor, TwoTensor):
                tensor = TwoTensor(tensor)
            if tensor:
                what = f"cocommutator value at index {index}"
                tensor._require_indices(dim, what)
                half = tensor._antisymmetric_half()
                if half is None:
                    raise ValueError(f"{what} is not antisymmetric")
                halves[index] = half
        self._halves = halves

    @classmethod
    def _of_halves(cls, dim: int, halves: dict) -> Cocommutator:
        """The cocommutator of ``halves``, nonempty and in range by construction; checks nothing."""
        out = cls(dim)
        out._halves = halves
        return out

    def _half(self, index: int) -> dict:
        """The stored q < r terms of the value at ``index``; shared, do not mutate."""
        return self._halves.get(index, {})

    def get(self, index: int) -> TwoTensor:
        return TwoTensor._of_half(self._half(index), scalar_table().neg)

    def items(self):
        neg = scalar_table().neg
        return [(p, TwoTensor._of_half(half, neg)) for p, half in sorted(self._halves.items())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cocommutator):
            return NotImplemented
        return self.dim == other.dim and self._halves == other._halves

    def __repr__(self):
        return f"Cocommutator(dim={self.dim}, entries={len(self._halves)})"


def cocommutator_from_triple(triple: ManinTriple) -> Cocommutator:
    """Double cocommutator: delta(Z_p) = -c^{q,r}_p Z_q (x) Z_r and
    delta(z^p) = f^p_{q,r} z^q (x) z^r, in double indices (Z-block first)."""
    _require_equal_halves(triple)  # the index blocks below assume equal halves
    m = triple.plus.dim
    neg = scalar_table().neg
    halves: dict[int, dict] = {}
    # each stored pair q < r gives each output p one term of its sorted half
    for (q, r), vec in triple.minus.tensor.stored():
        # stored entry: c^{q,r}_p for each output p
        for p, value in vec.items():
            halves.setdefault(p, {})[(q, r)] = neg(value)
    for (q, r), vec in triple.plus.tensor.stored():
        # stored entry: f^p_{q,r} for each output p
        for p, value in vec.items():
            halves.setdefault(m + p, {})[(m + q, m + r)] = value
    return Cocommutator._of_halves(2 * m, halves)


def express_in_basis(delta: Cocommutator, T: Matrix) -> Cocommutator:
    """Transport a cocommutator through the change of basis with matrix T.

    Consistent with LieAlgebra.change_of_basis: the new basis vectors are
    the columns of T in the old basis; the argument slot and the two output
    slots move as :func:`liealg._change_slots` describes.  The outputs are
    the antisymmetric pair: the stored sorted halves move to the new halves.
    """
    if T.rows != delta.dim or T.cols != delta.dim:
        raise ValueError("change-of-basis matrix has wrong shape")
    T_inv = T.inverse()
    terms = {(p,) + key: c for p, half in delta._halves.items() for key, c in half.items()}
    halves: dict[int, dict] = {}
    for (p, q, r), c in _change_slots(terms, T, T_inv, arguments=1, pair=1).items():
        halves.setdefault(p, {})[(q, r)] = c
    return Cocommutator._of_halves(delta.dim, halves)


def dual_algebra(delta: Cocommutator, labels=None) -> LieAlgebra:
    """The algebra on the dual space whose brackets are delta's constants: the halves, transposed."""
    labels = tuple(f"d{k}" for k in range(delta.dim)) if labels is None else tuple(labels)
    if len(labels) != delta.dim:
        raise ValueError(f"{len(labels)} labels for a cocommutator of dimension {delta.dim}")
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for p, half in delta._halves.items():
        for key, value in half.items():
            brackets.setdefault(key, {})[p] = value
    return LieAlgebra(labels, StructureTensor(brackets))


def check_cojacobi(delta: Cocommutator, labels=None, theta=None) -> ViolationReport:
    """Jacobi identity for the dual bracket read off from delta.

    ``theta``, a :class:`SelfDuality` certified on ``delta``, makes it
    evaluate the triples with middle index below theta's half first: delta
    theta = -(theta (x) theta) delta makes -theta an automorphism of the
    dual bracket, and it swaps the halves as theta does.  When one of them
    does not vanish, and without ``theta``, every triple is evaluated.
    """
    dual = dual_algebra(delta, labels)
    certified = theta is not None and theta.delta is delta
    report = ViolationReport("cojacobi", dual._jacobi_violations(theta.half if certified else dual.dim))
    if certified and report.violations:
        report.violations = dual._jacobi_violations(dual.dim)
    return report


def _by_slot(terms: dict) -> list[dict[int, list]]:
    """Index the terms ``{key: value}`` of a 2- or 3-tensor by the basis index in each slot.

    ``by_slot[slot][s]`` lists ``(kept, value)`` for the terms with
    ``key[slot] == s``, where ``kept`` is the key without that slot; an
    empty tensor has no slots.
    """
    by_slot: list[dict[int, list]] = []
    for key, value in terms.items():
        if not by_slot:
            by_slot = [{} for _ in key]
        for slot, s in enumerate(key):
            by_slot[slot].setdefault(s, []).append((key[:slot] + key[slot + 1 :], value))
    return by_slot


def _add_action(acc: dict, rows: dict, x: int, by_slot, table: ScalarTable) -> None:
    """Add the adjoint action of e_x on a tensor into ``acc``.

    The action is ad_x on each slot in turn, summed: ad_x (x) 1 + 1 (x) ad_x
    on g (x) g, and the three-slot sum on g (x) g (x) g.  ``rows`` are the
    algebra's bracket rows and ``by_slot`` is the tensor's ``_by_slot``
    index, so only the slot values s in x's row, [x, s] != 0, are visited;
    each product lands on ``kept`` with its new index put back in the slot.
    """
    row = rows.get(x)
    if row is None:
        return
    mul_into = table.mul_into
    for slot, terms_at in enumerate(by_slot):
        for s in row.keys() & terms_at.keys():
            w = row[s]
            for kept, value in terms_at[s]:
                head, tail = kept[:slot], kept[slot:]
                for k, coeff in w.items():
                    mul_into(acc, head + (k,) + tail, value, coeff)


def _alternating_action(acc: dict, rows: dict, x: int, index, table: ScalarTable, negate=False):
    """Add the sorted terms of ad_x, or -ad_x with ``negate``, of an alternating tensor to ``acc``.

    The tensor is a 2- or 3-tensor that changes sign under every swap of
    two slots, and ``index`` is the ``_by_slot`` index of its sorted terms,
    those whose indices increase.  ``rows`` are the algebra's bracket rows,
    so only the slot values s in x's row, [x, s] != 0, are visited.  The
    action commutes with permuting the slots, so its result is alternating
    too, and its sorted terms are the action on the sorted terms, each
    product landed on its key sorted with the sign of the sort.  So each new
    index k is inserted into ``kept`` at its sorted position, below, between
    or above the one or two kept indices, and a k that repeats a kept index
    is skipped: that key cancels against its swap.  When the move from k's
    slot to its position is an odd permutation, the product reads the
    mirror [e_s, e_x] = -[e_x, e_s] from s's row, so no value is negated: by
    sorted position, an even slot reads the bracket, the mirror, the
    bracket, and an odd slot the opposite.
    """
    row = rows.get(x)
    if row is None:
        return
    mul_into = table.mul_into
    above = len(index) - 1  # the sorted position above every kept index
    for slot, terms_at in enumerate(index):
        for s in row.keys() & terms_at.keys():
            w, mirror = row[s], rows[s][x]
            if negate:
                w, mirror = mirror, w
            by_position = (w, mirror, w) if slot % 2 == 0 else (mirror, w, mirror)
            for kept, value in terms_at[s]:
                first, last = kept[0], kept[-1]
                for k in w:
                    if k < first:
                        mul_into(acc, (k,) + kept, value, by_position[0][k])
                    elif last < k:
                        mul_into(acc, kept + (k,), value, by_position[above][k])
                    elif first < k < last:
                        mul_into(acc, (first, k, last), value, by_position[1][k])


def _nonzero_actions(
    alg: LieAlgebra, terms: dict, alternating: bool, table: ScalarTable, below: int | None = None
) -> dict:
    """``{x: ad_x of a tensor}`` over the basis elements x (x < ``below``) whose action is nonzero.

    With ``alternating``, ``terms`` are an alternating tensor's sorted terms,
    acted on by :func:`_alternating_action`; otherwise they are every term,
    acted on by :func:`_add_action`.
    """
    act = _alternating_action if alternating else _add_action
    rows = alg.tensor._rows
    index = _by_slot(terms)
    actions = {}
    for x in rows:
        if below is not None and x >= below:
            break  # the rows come sorted by x
        acc: dict[tuple, Scalar] = {}
        act(acc, rows, x, index, table)
        if acc:
            actions[x] = acc
    return actions


def _pair_partners(p: int, dim: int, theta) -> range | list[int]:
    """The q > p whose pair (p, q) is checked: every one, or with ``theta`` one pair per orbit.

    theta swaps [0, half) and [half, dim), so a pair p < q is its orbit's
    representative when q < half, or when p < half <= q and p <= theta(q);
    the pair (p, theta(p)) is its own orbit.
    """
    if theta is None:
        return range(p + 1, dim)
    half, image = theta.half, theta.image
    if p >= half:
        return []
    return [*range(p + 1, half), *(q for q in range(half, dim) if p <= image[q])]


def _cocycle_violations(alg: LieAlgebra, delta: Cocommutator, theta) -> list[Violation]:
    """The cocycle counterexamples of the pairs :func:`_pair_partners` names, in sorted order."""
    rows = alg.tensor._rows
    table = scalar_table()
    mul_into, neg = table.mul_into, table.neg
    halves = [delta._half(p) for p in range(alg.dim)]
    slots = [_by_slot(half) for half in halves]
    violations = []
    for p in range(alg.dim):
        # [e_p, e_q] from row p's q > p, walked in step with the ascending q
        above = [(q, coeffs) for q, coeffs in rows.get(p, {}).items() if p < q]
        above.append((alg.dim, None))
        i = 0
        for q in _pair_partners(p, alg.dim, theta):
            while above[i][0] < q:
                i += 1
            acc: dict[tuple[int, int], Scalar] = {}
            if above[i][0] == q:
                for r, value in above[i][1].items():
                    for key, coeff in halves[r].items():
                        mul_into(acc, key, value, coeff)
            _alternating_action(acc, rows, p, slots[q], table, negate=True)
            _alternating_action(acc, rows, q, slots[p], table)
            if acc:
                violations.append(
                    Violation((p, q), TwoTensor._of_half(acc, neg).format(alg.labels))
                )
    return violations


def check_cocycle(alg: LieAlgebra, delta: Cocommutator, theta=None) -> ViolationReport:
    """1-cocycle condition: delta([x,y]) = ad_x.delta(y) - ad_y.delta(x).

    Each residual delta([p,q]) - ad_p.delta(q) + ad_q.delta(p) is
    antisymmetric, like every value of delta, so only its p < q terms are
    summed, in one accumulator, from the stored halves of the values; a
    residual that does not vanish is mirrored for its counterexample.

    ``theta``, a :class:`SelfDuality` certified on ``alg`` and ``delta``,
    makes it sum one pair per theta-orbit first: the residual at
    (theta p, theta q) is -(theta (x) theta) of the one at (p, q).  When one
    of them does not vanish, and without ``theta``, every pair is summed.
    """
    if delta.dim != alg.dim:
        raise ValueError("cocommutator dimension does not match the algebra")
    report = ViolationReport("cocycle")
    certified = theta is not None and theta.algebra is alg and theta.delta is delta
    report.violations = _cocycle_violations(alg, delta, theta if certified else None)
    if certified and report.violations:
        report.violations = _cocycle_violations(alg, delta, None)
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
    """delta(x) = (ad_x (x) 1 + 1 (x) ad_x)(r_skew) on every basis element.

    When r_skew is antisymmetric, so is each delta(x): its sorted half is
    computed from the p < q terms of r_skew.  Otherwise every term is acted
    on, and a value that comes out not antisymmetric raises ValueError.
    """
    r_skew._require_indices(alg.dim, "two-tensor")
    table = scalar_table()
    half = r_skew._antisymmetric_half()
    if half is not None:
        return Cocommutator._of_halves(alg.dim, _nonzero_actions(alg, half, True, table))
    return Cocommutator(alg.dim, _nonzero_actions(alg, r_skew._c, False, table))


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
    """[[r, r]] = [r_12, r_13] + [r_12, r_23] + [r_13, r_23].

    For an antisymmetric r it is alternating and is expanded from its
    a < b < c terms (:func:`_schouten_half`) to all six orientations of each
    key.  Any other r takes the three terms over every pair of terms.
    """
    return _schouten(alg, r, scalar_table())[0]


def _schouten(alg: LieAlgebra, r: TwoTensor, table: ScalarTable) -> tuple[ThreeTensor, dict | None]:
    """[[r, r]], and its a < b < c terms when r is antisymmetric (None otherwise)."""
    r._require_indices(alg.dim, "two-tensor")
    if r._antisymmetric_half() is None:
        return _schouten_terms(alg, r, table), None
    half = _schouten_half(alg, r, table)
    return _alternating(half, table.neg), half


def _alternating(half: dict, neg) -> ThreeTensor:
    """The alternating 3-tensor whose a < b < c terms are ``half``; ``neg`` negates each value."""
    data = {}
    for (a, b, c), value in half.items():
        opposite = neg(value)
        data[(a, b, c)] = data[(b, c, a)] = data[(c, a, b)] = value
        data[(a, c, b)] = data[(b, a, c)] = data[(c, b, a)] = opposite
    return ThreeTensor._of_nonzero(data)


def _schouten_half(alg: LieAlgebra, r: TwoTensor, table: ScalarTable) -> dict:
    """The a < b < c terms of [[r, r]] for an antisymmetric r.

    [r_13, r_23] is a cyclic permutation of S = [r_12, r_13] and [r_12, r_23]
    is minus its (1 2) transpose, and S is antisymmetric in slots 2 and 3.
    So [[r, r]] is alternating, and its sorted key a < b < c is the sum of
    the products [e_a1, e_a2] (x) e_b1 (x) e_b2 of the term pairs with
    b1 < b2, each landed on its key sorted with the sign of the sort; a key
    that repeats an index is skipped.  Only the a2 in a1's bracket row are
    visited, so each bracket read is nonzero, one per term pair that has
    one, against three lookups per pair of terms.
    """
    rows = alg.tensor._rows
    mul, mul_into, neg = table.mul, table.mul_into, table.neg
    by_first: dict[int, list] = {}  # a -> the terms (b, value) of r with first index a
    for (a, b), value in r._c.items():
        by_first.setdefault(a, []).append((b, value))
    acc: dict[tuple[int, int, int], Scalar] = {}
    for (a1, b1), v1 in r._c.items():
        row = rows.get(a1)
        if row is None:
            continue
        for a2 in row.keys() & by_first.keys():
            for b2, v2 in by_first[a2]:
                if b1 < b2:
                    coeff = mul(v1, v2)
                    for k, cv in row[a2].items():
                        if k < b1:
                            mul_into(acc, (k, b1, b2), coeff, cv)
                        elif b1 < k < b2:
                            mul_into(acc, (b1, k, b2), neg(coeff), cv)
                        elif b2 < k:
                            mul_into(acc, (b1, b2, k), coeff, cv)
    return acc


def _schouten_terms(alg: LieAlgebra, r: TwoTensor, table: ScalarTable) -> ThreeTensor:
    """[[r, r]] from its three terms over every ordered pair of terms of r."""
    terms = r.items()
    pair = alg.tensor.pair
    mul, mul_into = table.mul, table.mul_into
    acc: dict[tuple[int, int, int], Scalar] = {}
    for (a1, b1), v1 in terms:
        for (a2, b2), v2 in terms:
            coeff = mul(v1, v2)
            w = pair(a1, a2)
            if w:
                for k, cv in w.items():
                    mul_into(acc, (k, b1, b2), coeff, cv)
            w = pair(b1, a2)
            if w:
                for k, cv in w.items():
                    mul_into(acc, (a1, k, b2), coeff, cv)
            w = pair(b1, b2)
            if w:
                for k, cv in w.items():
                    mul_into(acc, (a1, a2, k), coeff, cv)
    return ThreeTensor(acc)


def schouten_check(alg: LieAlgebra, r_skew: TwoTensor, theta=None) -> QuasitriangularReport:
    """Compute [[r, r]] and test its invariance under every ad_x (x basis).

    For an antisymmetric r, [[r, r]] is alternating, so each ad_x acts on
    its a < b < c terms only (:func:`_alternating_action`), and a result
    that does not vanish is expanded to all six orientations of each key
    for its violation.  Any other r takes the full action for every x.

    ``theta``, a :class:`SelfDuality` certified on ``alg`` and ``r_skew``,
    makes it act with the x below theta's half first: (theta)^3 [[r, r]] =
    [[-r, -r]] = [[r, r]], so ad_(theta x) [[r, r]] is (theta)^3 of
    ad_x [[r, r]].  When one of them does not vanish, and without ``theta``,
    every x acts.
    """
    table = scalar_table()
    schouten, half = _schouten(alg, r_skew, table)
    alternating = half is not None
    terms = half if alternating else schouten._c
    certified = theta is not None and theta.algebra is alg and theta.r is r_skew
    actions = _nonzero_actions(alg, terms, alternating, table, theta.half if certified else None)
    if certified and actions:
        actions = _nonzero_actions(alg, terms, alternating, table)
    if alternating:
        violations = [
            Violation((x,), _alternating(acc, table.neg).format(alg.labels))
            for x, acc in actions.items()
        ]
    else:
        violations = [
            Violation((x,), ThreeTensor(acc).format(alg.labels)) for x, acc in actions.items()
        ]
    if violations:
        verdict = NOT_INVARIANT
    elif schouten:
        verdict = QUASITRIANGULAR
    else:
        verdict = TRIANGULAR
    return QuasitriangularReport(verdict, schouten, violations)


@dataclass(frozen=True, eq=False)
class SelfDuality:
    """A signed involution theta of an algebra's basis, certified on the objects it names.

    :func:`certify_self_duality` makes it.  theta swaps the index ranges
    [0, half) and [half, 2 half), so it fixes no basis element; it is a
    bracket automorphism of ``algebra`` and an isometry of ``pairing``,
    with delta theta = -(theta (x) theta) delta and (theta (x) theta) r =
    -r.  So the Jacobi residuals of the algebra and of delta's dual bracket,
    the cocycle residual and ad_x [[r, r]] each vanish on a whole
    theta-orbit when they vanish on one member, and
    ``LieAlgebra.check_jacobi``, :func:`check_cojacobi`,
    :func:`check_cocycle` and :func:`schouten_check`, given it for these
    objects, check one representative per orbit: the triple p < q < r with
    q < half, the pair of :func:`_pair_partners` and the x < half.
    ``manin.check_ad_invariance`` sums the triples (a, b, c) with a < half
    and maps each residual to its image.  This is the symmetry reduction of exhaustive state-space
    checking (Emerson and Sistla, FMSD 9, 1996).
    """

    algebra: LieAlgebra
    pairing: BilinearForm
    delta: Cocommutator
    r: TwoTensor
    image: tuple[int, ...]  # theta(e_p) = sign[p] e_image[p]
    sign: tuple[int, ...]

    @property
    def half(self) -> int:
        return len(self.image) // 2


def certify_self_duality(
    alg: LieAlgebra, pairing: BilinearForm, delta: Cocommutator, r_skew: TwoTensor, theta
) -> SelfDuality | None:
    """``theta``, (image, sign) per basis index, certified on these objects; None when it fails.

    It checks that theta^2 = 1 and theta swaps [0, half) and [half, dim),
    then, each sign applied through the scalar table's ``neg``, one member
    of each theta-orbit, since with theta^2 = 1 an item's condition is its
    image's: each stored bracket [e_a, e_b] with a <= theta b maps onto the
    bracket of the images, each pairing row p < half onto row theta p,
    delta(theta e_a) = -(theta (x) theta) delta(e_a) for a < half, and each
    r_skew term (p, q) with p < half onto minus the term at its image.  The
    brackets and r terms are counted against the orbits checked, so a
    stored item whose image is missing fails too.
    """
    dim = alg.dim
    r_skew._require_indices(dim, "two-tensor")
    if len(theta) != dim or pairing.dim != dim or delta.dim != dim or dim % 2:
        return None
    half = dim // 2
    image = tuple(q for q, _ in theta)
    sign = tuple(s for _, s in theta)
    flip = [s == -1 for s in sign]  # theta(e_p) = -e_image[p]
    for p, (q, s) in enumerate(theta):
        if s not in (1, -1) or not 0 <= q < dim or (p < half) == (q < half):
            return None
        if image[q] != p or flip[q] != flip[p]:
            return None
    neg = scalar_table().neg
    rows = alg.tensor._rows
    stored = alg.tensor.stored()
    count = 0
    for (a, b), coeffs in stored:
        if a > image[b]:
            continue  # the orbit of (a, b) is checked from its image
        count += 1 if a == image[b] else 2
        f = flip[a] ^ flip[b]
        want = {image[k]: neg(v) if f ^ flip[k] else v for k, v in coeffs.items()}
        if rows.get(image[a], {}).get(image[b]) != want:
            return None
    if count != len(stored):
        return None
    gram = pairing.matrix()._r
    for p in range(half):
        want = {image[q]: neg(w) if flip[p] ^ flip[q] else w for q, w in gram[p].items()}
        if gram[image[p]] != want:
            return None
    for a in range(half):
        want = {}
        for (q, r), v in delta._half(a).items():
            x, y, f = image[q], image[r], not flip[a] ^ flip[q] ^ flip[r]
            if y < x:
                x, y, f = y, x, not f
            want[(x, y)] = neg(v) if f else v
        if delta._half(image[a]) != want:
            return None
    terms = r_skew._c
    count = 0
    for (p, q), v in terms.items():
        if p < half:
            count += 2
            if terms.get((image[p], image[q])) != (v if flip[p] ^ flip[q] else neg(v)):
                return None
    if count != len(terms):
        return None
    return SelfDuality(alg, pairing, delta, r_skew, image, sign)


# The gl(n)+t_n split and quotient live in glnfactory with the H/I/F layout; the benchmark
# tracer looks them up here.  Last, because glnfactory imports this module.
from .glnfactory import identify_central, split_twist  # noqa: E402
