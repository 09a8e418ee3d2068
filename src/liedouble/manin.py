"""Manin triples and their Drinfeld doubles.

A triple holds two structure tensors f (for s_plus, brackets [Z_p, Z_q] =
f^r_{p,q} Z_r) and c (for s_minus, brackets [z^p, z^q] = c^{p,q}_r z^r)
over bases that are dual index-by-index: <Z_p, z^q> = delta_p^q, with both
halves isotropic.  Construction eagerly verifies the crossed Jacobi
compatibility; the double then carries the crossed brackets

    [z^p, Z_q] = f^p_{q,r} z^r - c^{p,r}_q Z_r

on the 2m-dimensional space ordered Z-block first, z-block second, which
makes the pairing matrix the fixed block form [[0, Id], [Id, 0]].
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import lcm

from .liealg import (
    BilinearForm,
    LieAlgebra,
    Matrix,
    StructureTensor,
    Violation,
    ViolationReport,
    add_into,
    joined_labels,
    scalar_table,
)
from .scalars import ONE, Scalar

__all__ = [
    "CompatibilityError",
    "ManinTriple",
    "DoubleAlgebra",
    "check_compatibility",
    "build_double",
    "check_isotropic_pairing",
    "check_ad_invariance",
    "InvarianceReport",
]


class CompatibilityError(ValueError):
    """Crossed Jacobi compatibility failed; the offending report is attached."""

    def __init__(self, report: ViolationReport):
        first = report.violations[0]
        super().__init__(
            f"{len(report.violations)} crossed-Jacobi violations, first at "
            f"{first.indices}: {first.residual}"
        )
        self.report = report


def _tensor_triples(tensor: StructureTensor):
    """All ((p, q), r, value) over both orientations of stored pairs."""
    return [(p, q, r, v) for (p, q), coeffs in tensor.oriented() for r, v in coeffs.items()]


# The units e_0..e_3 of a Scalar's components: 1, sqrt2, i and i*sqrt2.
# _UNIT_PRODUCTS[u][v] = (s, w) with e_u * e_v = s * e_w.
_UNIT_PRODUCTS = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (2, 0), (1, 3), (2, 2)),
    ((1, 2), (1, 3), (-1, 0), (-1, 1)),
    ((1, 3), (2, 2), (-1, 1), (-2, 0)),
)


def _compatibility_products(c_triples, f_triples, negate, orbits=None):
    """Every product of the crossed-Jacobi sum as (key, c value, f value).

    Terms 2-5 subtract, so their c value is ``negate``d once per c triple
    rather than once per product.  Each key is the (p, q, s, t) residual
    the product adds to.  ``orbits`` keeps the products of one key per
    orbit only: "sorted" those with p < q and s < t, "mirrored" those with
    also (p, q) <= (s, t).  The tests are inline comparisons, made before
    each yield.
    """
    f_by_output: dict[int, list] = {}
    f_by_first: dict[int, list] = {}
    f_by_second: dict[int, list] = {}
    for p, q, r, v in f_triples:
        f_by_output.setdefault(r, []).append((p, q, v))
        f_by_first.setdefault(p, []).append((q, r, v))
        f_by_second.setdefault(q, []).append((p, r, v))

    every = orbits is None
    unmirrored = orbits != "mirrored"
    for cp, cq, cr, cv in c_triples:
        neg = negate(cv)
        # term 1: + c^{p,q}_r f^r_{s,t}
        if every or cp < cq:
            for s, t, fv in f_by_output.get(cr, ()):
                if every or s < t and (unmirrored or cp < s or cp == s and cq <= t):
                    yield (cp, cq, s, t), cv, fv
        # term 2: - c^{p,r}_s f^q_{r,t}  (join r = c upper second = f lower first)
        for t, q, fv in f_by_first.get(cq, ()):
            if every or cp < q and cr < t and (unmirrored or cp < cr or cp == cr and q <= t):
                yield (cp, q, cr, t), neg, fv
        # term 3: - c^{r,q}_s f^p_{r,t}  (join r = c upper first = f lower first)
        for t, p, fv in f_by_first.get(cp, ()):
            if every or p < cq and cr < t and (unmirrored or p < cr or p == cr and cq <= t):
                yield (p, cq, cr, t), neg, fv
        # term 4: - c^{p,r}_t f^q_{s,r}  (join r = c upper second = f lower second)
        for s, q, fv in f_by_second.get(cq, ()):
            if every or cp < q and s < cr and (unmirrored or cp < s or cp == s and q <= cr):
                yield (cp, q, s, cr), neg, fv
        # term 5: - c^{r,q}_t f^p_{s,r}  (join r = c upper first = f lower second)
        for s, p, fv in f_by_second.get(cp, ()):
            if every or p < cq and s < cr and (unmirrored or p < s or p == s and cq <= cr):
                yield (p, cq, s, cr), neg, fv


def _monomial(value: Scalar):
    """(u, n, d) with value = n/d * e_u, or None unless exactly one component is nonzero."""
    parts = [
        (u, x.numerator, x.denominator)
        for u, x in enumerate((value.a, value.b, value.c, value.d))
        if x
    ]
    return parts[0] if len(parts) == 1 else None


def _monomial_triples(triples):
    """The triples with each value as (u, n, d), or None if some value is not a monomial."""
    out = []
    units: dict = {}  # id -> (u, n, d): the halves share a few value objects, kept alive here
    for p, q, r, v in triples:
        unit = units.get(id(v))
        if unit is None:
            unit = units[id(v)] = _monomial(v)
            if unit is None:
                return None
        out.append((p, q, r, unit))
    return out


def _negate_monomial(value):
    u, n, d = value
    return u, -n, d


# The zero component of a residual, shared so that no Fraction is made for it.
_NO_PART = Fraction(0)


def _mirrored(c_units, f_units) -> bool:
    """True when c = -f index by index, compared exactly on the (u, n, d) values.

    Then R(p, q, s, t) = R(s, t, p, q): with c^{p,q}_r = -f^r_{p,q}, the swap
    maps terms 1, 3 and 4 each onto itself and exchanges terms 2 and 5.
    """
    return len(c_units) == len(f_units) and all(
        cp == fp and cq == fq and cr == fr and cu == fu and cn == -fn and cd == fd
        for (cp, cq, cr, (cu, cn, cd)), (fp, fq, fr, (fu, fn, fd)) in zip(c_units, f_units)
    )


def _monomial_residuals(c_units, f_units, mirrored: bool) -> dict:
    """The nonzero residuals from (u, n, d) values: one integer product per term.

    Both tensors are antisymmetric, so the residuals at (q, p, s, t) and
    (p, q, t, s) are minus the one at (p, q, s, t), and one with p = q or
    s = t is 0: only the products on keys p < q, s < t are formed, and
    each nonzero sum is written onto the other three keys of its orbit
    with its sign.  ``mirrored`` (c = -f, see :func:`_mirrored`) also
    forms only the keys with (p, q) <= (s, t) and writes each sum onto
    the four swapped keys (s, t, p, q) too.  Numerators are summed as
    integers per (key, unit, product denominator), so no product needs a
    gcd, and coprime denominators of many digits never meet in one
    integer over the whole tensor.  The groups of one (key, unit) are then
    brought over the lcm of their own denominators; a nonzero sum becomes
    one Fraction and its negation another, and a key becomes a Scalar once
    its units are summed.
    """
    sums: dict = {}
    orbits = "mirrored" if mirrored else "sorted"
    for key, (u, xn, xd), (v, yn, yd) in _compatibility_products(
        c_units, f_units, _negate_monomial, orbits
    ):
        s, w = _UNIT_PRODUCTS[u][v]
        slot = (key, w, xd * yd)
        sums[slot] = sums.get(slot, 0) + (xn * yn if s == 1 else s * xn * yn)
    groups: dict = {}
    for (key, w, den), total in sums.items():
        if total:
            groups.setdefault((key, w), []).append((total, den))
    components: dict = {}
    for (key, w), terms in groups.items():
        den = lcm(*(d for _, d in terms))
        total = sum(t * (den // d) for t, d in terms)
        if total:
            parts, negated = components.setdefault(key, ([_NO_PART] * 4, [_NO_PART] * 4))
            parts[w], negated[w] = Fraction(total, den), Fraction(-total, den)
    residual = {}
    for (p, q, s, t), (parts, negated) in components.items():
        value, minus = Scalar(*parts), Scalar(*negated)
        residual[(p, q, s, t)] = residual[(q, p, t, s)] = value
        residual[(q, p, s, t)] = residual[(p, q, t, s)] = minus
        if mirrored:
            residual[(s, t, p, q)] = residual[(t, s, q, p)] = value
            residual[(t, s, p, q)] = residual[(s, t, q, p)] = minus
    return residual


def _scalar_residuals(c_triples, f_triples) -> dict:
    """The nonzero residuals from general Scalar values."""
    residual: dict[tuple[int, int, int, int], Scalar] = {}
    for key, cv, fv in _compatibility_products(c_triples, f_triples, operator.neg):
        add_into(residual, key, cv * fv)
    return residual


def check_compatibility(f: StructureTensor, c: StructureTensor) -> ViolationReport:
    """Crossed Jacobi identities between a bracket tensor pair.

    For every index combination (p, q, s, t) the residual

        sum_r [ c^{p,q}_r f^r_{s,t} - c^{p,r}_s f^q_{r,t} - c^{r,q}_s f^p_{r,t}
                - c^{p,r}_t f^q_{s,r} - c^{r,q}_t f^p_{s,r} ]

    must vanish; nonzero residuals are reported sorted lexicographically.
    Both tensors index the same m-dimensional space: f maps bracket pair
    (p, q) to outputs r with value f^r_{p,q}, c maps (p, q) to c^{p,q}_r.

    When every coefficient of both tensors is a rational multiple of one
    unit (the gl(n) halves are), each product is one integer product of
    numerators times a fixed unit product, and the join forms the products
    of one key per antisymmetric orbit (p < q, s < t).  When c = -f index
    by index (the gl(n) halves are mirrored so), an orbit also holds the
    swapped keys (s, t, p, q), and one key in up to eight is formed.
    Otherwise the products are Scalar ones, summed for every key: the
    orbit filter waits there until the benchmark keeps no op output
    (ROADMAP item 1).
    """
    c_triples = _tensor_triples(c)
    f_triples = _tensor_triples(f)
    c_units = _monomial_triples(c_triples)
    f_units = _monomial_triples(f_triples) if c_units is not None else None
    if f_units is not None:
        residual = _monomial_residuals(c_units, f_units, _mirrored(c_units, f_units))
    else:
        residual = _scalar_residuals(c_triples, f_triples)

    report = ViolationReport("compatibility")
    for key in sorted(residual):
        report.violations.append(Violation(key, str(residual[key])))
    return report


@dataclass(frozen=True)
class ManinTriple:
    """Index-aligned dual pair of Lie algebras, validated at construction."""

    plus: LieAlgebra
    minus: LieAlgebra
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not validate:
            return
        _require_equal_halves(self)
        report = check_compatibility(self.plus.tensor, self.minus.tensor)
        if not report.ok:
            raise CompatibilityError(report)

    @classmethod
    def unchecked(cls, plus: LieAlgebra, minus: LieAlgebra) -> ManinTriple:
        """Skip validation (for diagnostics on bad input)."""
        return cls(plus, minus, validate=False)

    @property
    def dim(self) -> int:
        return self.plus.dim


def _require_equal_halves(triple: ManinTriple) -> None:
    """Raise ValueError when the halves of a triple, checked or not, differ in dimension."""
    if triple.plus.dim != triple.minus.dim:
        raise ValueError(
            f"paired algebras must share a dimension, got {triple.plus.dim} and {triple.minus.dim}"
        )


@dataclass(frozen=True)
class DoubleAlgebra:
    """The double: 2m-dimensional algebra plus its hyperbolic pairing."""

    algebra: LieAlgebra
    pairing: BilinearForm
    origin: ManinTriple

    @property
    def half_dim(self) -> int:
        return self.algebra.dim // 2


def _hyperbolic_pairing(m: int) -> BilinearForm:
    rows = [{(p + m) % (2 * m): ONE} for p in range(2 * m)]
    return BilinearForm(Matrix._of_rows(rows, 2 * m))


def build_double(triple: ManinTriple) -> DoubleAlgebra:
    """Assemble the double bracket table from the two structure tensors."""
    _require_equal_halves(triple)  # the index blocks below assume equal halves
    m = triple.plus.dim
    f = triple.plus.tensor
    c = triple.minus.tensor
    neg = scalar_table().neg
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (p, q), vec in f.stored():
        brackets[(p, q)] = dict(vec)
    for (p, q), vec in c.stored():
        brackets[(m + p, m + q)] = {m + r: v for r, v in vec.items()}
    # [Z_q, z^p] = -[z^p, Z_q] = -f^p_{q,r} z^r + c^{p,r}_q Z_r.  Every f
    # and c entry fills its own slot, so no two of them are summed.
    for q, r, p, v in _tensor_triples(f):
        brackets.setdefault((q, m + p), {})[m + r] = neg(v)
    for p, r, q, v in _tensor_triples(c):
        brackets.setdefault((q, m + p), {})[r] = v
    labels = joined_labels(triple.plus.labels, triple.minus.labels)
    tensor = StructureTensor._of_sorted(
        {key: dict(sorted(coeffs.items())) for key, coeffs in sorted(brackets.items())}
    )
    algebra = LieAlgebra(labels, tensor)
    return DoubleAlgebra(algebra, _hyperbolic_pairing(m), triple)


def check_isotropic_pairing(double: DoubleAlgebra) -> ViolationReport:
    """Empty iff the pairing matrix is exactly [[0, Id], [Id, 0]]."""
    report = ViolationReport("isotropic_pairing")
    pairing = double.pairing
    m = double.half_dim
    if pairing.dim != 2 * m:
        report.violations.append(
            Violation((), f"pairing dimension {pairing.dim} != {2 * m}")
        )
        return report
    for p in range(2 * m):
        row = pairing.matrix().row(p)
        dual = (p + m) % (2 * m)
        for q in sorted({*row.indices(), dual}):
            value = row.get(q)
            if (p < m) == (q < m):
                report.violations.append(Violation((p, q), f"isotropy: {value}"))
            elif q != dual:
                report.violations.append(Violation((p, q), f"duality: {value}"))
            elif value != ONE:
                report.violations.append(Violation((p, q), f"duality: {value - ONE}"))
    if report.violations and not pairing.determinant():
        report.violations.append(Violation((), "nondegeneracy: determinant is 0"))
    report.violations.sort(key=lambda v: v.indices)
    return report


@dataclass
class InvarianceReport:
    """Which of the two pairing-invariance sign conventions hold globally.

    ``invariant`` is <[a,b],c> = <a,[b,c]>, ``anti_invariant`` is
    <[a,b],c> = -<a,[b,c]>.  Each convention keeps its nonzero residuals
    ``{(a, b, c): value}``, and its counterexample list, sorted
    lexicographically, is made from them when it is first read.
    """

    invariant_residuals: dict
    anti_invariant_residuals: dict
    _lists: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def invariant_holds(self) -> bool:
        return not self.invariant_residuals

    @property
    def anti_invariant_holds(self) -> bool:
        return not self.anti_invariant_residuals

    @property
    def invariant_counterexamples(self) -> list[Violation]:
        return self._counterexamples("invariant")

    @property
    def anti_invariant_counterexamples(self) -> list[Violation]:
        return self._counterexamples("anti_invariant")

    def _counterexamples(self, convention: str) -> list[Violation]:
        if convention not in self._lists:
            residuals = getattr(self, convention + "_residuals")
            self._lists[convention] = [Violation(key, str(residuals[key])) for key in sorted(residuals)]
        return self._lists[convention]

    def conventions(self) -> tuple[str, ...]:
        names = []
        if self.invariant_holds:
            names.append("invariant")
        if self.anti_invariant_holds:
            names.append("anti_invariant")
        return tuple(names)


def check_ad_invariance(double: DoubleAlgebra, theta=None) -> InvarianceReport:
    """Test both sign conventions of pairing invariance over all basis triples.

    <[a,b],c> is summed over the nonzero brackets [e_a, e_b] and the r in
    their support with <r,c> != 0, and <c,[a,b]> over the same terms onto
    the triple (c, a, b); every other triple has both sides 0, so both
    conventions hold there.  So each triple's <[a,b],c> - <a,[b,c]> and
    <[a,b],c> + <a,[b,c]> are summed in one accumulator per convention, and
    the triples left nonzero, in sorted order, are the counterexamples of
    the loop over all dim^3 triples.

    ``theta``, a ``bialg.SelfDuality`` certified on the double's algebra
    and pairing, makes it sum only the triples (a, b, c) with a below
    theta's half: theta is a bracket automorphism and an isometry, so both
    residuals at (theta a, theta b, theta c) are s_a s_b s_c times those at
    (a, b, c), and each summed residual is copied onto its image.
    """
    alg = double.algebra
    pairing = double.pairing
    if pairing.dim != alg.dim:
        raise ValueError(
            f"pairing dimension {pairing.dim} does not match the algebra dimension {alg.dim}"
        )
    certified = theta is not None and theta.algebra is alg and theta.pairing is pairing
    below = theta.half if certified else alg.dim
    pairing_rows = pairing.matrix()._r
    table = scalar_table()
    mul_into, neg = table.mul_into, table.neg
    difference: dict[tuple[int, int, int], Scalar] = {}
    total: dict[tuple[int, int, int], Scalar] = {}
    for (a, b), coeffs in alg.tensor.oriented():
        for r, v in coeffs.items():
            negated = neg(v)
            for c, m in pairing_rows[r].items():
                if a < below:
                    mul_into(difference, (a, b, c), v, m)  # <[a,b],c>
                    mul_into(total, (a, b, c), v, m)
                if c < below:
                    # <c,[a,b]>: <e_r, e_c> by symmetry
                    mul_into(difference, (c, a, b), negated, m)
                    mul_into(total, (c, a, b), v, m)
    if certified:
        image, sign = theta.image, theta.sign
        for residuals in (difference, total):
            for (a, b, c), value in list(residuals.items()):
                flipped = sign[a] * sign[b] * sign[c] < 0
                residuals[(image[a], image[b], image[c])] = neg(value) if flipped else value
    return InvarianceReport(difference, total)
