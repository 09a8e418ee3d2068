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

from dataclasses import InitVar, dataclass, field

from .liealg import (
    BilinearForm,
    LieAlgebra,
    Matrix,
    StructureTensor,
    Violation,
    ViolationReport,
    add_into,
    joined_labels,
    product_table,
)
from .scalars import Scalar, ZERO, ONE

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


def check_compatibility(f: StructureTensor, c: StructureTensor) -> ViolationReport:
    """Crossed Jacobi identities between a bracket tensor pair.

    For every index combination (p, q, s, t) the residual

        sum_r [ c^{p,q}_r f^r_{s,t} - c^{p,r}_s f^q_{r,t} - c^{r,q}_s f^p_{r,t}
                - c^{p,r}_t f^q_{s,r} - c^{r,q}_t f^p_{s,r} ]

    must vanish; nonzero residuals are reported sorted lexicographically.
    Both tensors index the same m-dimensional space: f maps bracket pair
    (p, q) to outputs r with value f^r_{p,q}, c maps (p, q) to c^{p,q}_r.
    """
    c_triples = _tensor_triples(c)
    f_triples = _tensor_triples(f)
    f_by_output: dict[int, list] = {}
    f_by_first: dict[int, list] = {}
    f_by_second: dict[int, list] = {}
    for p, q, r, v in f_triples:
        f_by_output.setdefault(r, []).append((p, q, v))
        f_by_first.setdefault(p, []).append((q, r, v))
        f_by_second.setdefault(q, []).append((p, r, v))

    residual: dict[tuple[int, int, int, int], Scalar] = {}

    for cp, cq, cr, cv in c_triples:
        # term 1: + c^{p,q}_r f^r_{s,t}
        for s, t, fv in f_by_output.get(cr, ()):
            add_into(residual, (cp, cq, s, t), cv * fv)
        # term 2: - c^{p,r}_s f^q_{r,t}  (join r = c upper second = f lower first)
        for t, q, fv in f_by_first.get(cq, ()):
            add_into(residual, (cp, q, cr, t), -(cv * fv))
        # term 3: - c^{r,q}_s f^p_{r,t}  (join r = c upper first = f lower first)
        for t, p, fv in f_by_first.get(cp, ()):
            add_into(residual, (p, cq, cr, t), -(cv * fv))
        # term 4: - c^{p,r}_t f^q_{s,r}  (join r = c upper second = f lower second)
        for s, q, fv in f_by_second.get(cq, ()):
            add_into(residual, (cp, q, s, cr), -(cv * fv))
        # term 5: - c^{r,q}_t f^p_{s,r}  (join r = c upper first = f lower second)
        for s, p, fv in f_by_second.get(cp, ()):
            add_into(residual, (p, cq, s, cr), -(cv * fv))

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
        if self.plus.dim != self.minus.dim:
            raise ValueError(
                f"paired algebras must share a dimension, got {self.plus.dim} and {self.minus.dim}"
            )
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
    m = triple.plus.dim
    f = triple.plus.tensor
    c = triple.minus.tensor
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (p, q), vec in f.stored():
        brackets[(p, q)] = dict(vec)
    for (p, q), vec in c.stored():
        brackets[(m + p, m + q)] = {m + r: v for r, v in vec.items()}
    # [Z_q, z^p] = -[z^p, Z_q] = -f^p_{q,r} z^r + c^{p,r}_q Z_r.  Every f
    # and c entry fills its own slot, so no two of them are summed.
    for q, r, p, v in _tensor_triples(f):
        brackets.setdefault((q, m + p), {})[m + r] = -v
    for p, r, q, v in _tensor_triples(c):
        brackets.setdefault((q, m + p), {})[r] = v
    labels = joined_labels(triple.plus.labels, triple.minus.labels)
    algebra = LieAlgebra(labels, StructureTensor(brackets))
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
    <[a,b],c> = -<a,[b,c]>; counterexample triples are listed per failing
    convention, sorted lexicographically.
    """

    invariant_holds: bool
    anti_invariant_holds: bool
    invariant_counterexamples: list[Violation] = field(default_factory=list)
    anti_invariant_counterexamples: list[Violation] = field(default_factory=list)

    def conventions(self) -> tuple[str, ...]:
        names = []
        if self.invariant_holds:
            names.append("invariant")
        if self.anti_invariant_holds:
            names.append("anti_invariant")
        return tuple(names)


def check_ad_invariance(double: DoubleAlgebra) -> InvarianceReport:
    """Test both sign conventions of pairing invariance over all basis triples.

    <[a,b],c> can be nonzero only when some r in the support of [a,b] has
    <r,c> != 0, and <a,[b,c]> only when [b,c] meets some r with <r,a> != 0.
    Only those triples are evaluated; on every other one both sides are 0,
    so both conventions hold there and the verdicts and counterexample
    lists equal those of the loop over all dim^3 triples.
    """
    alg = double.algebra
    pairing = double.pairing
    dim = alg.dim
    pair = alg.tensor.pair
    partners = [pairing.matrix().row(r).indices() for r in range(dim)]
    candidates = set()
    for (p, q), coeffs in alg.tensor.stored():
        for x, y in ((p, q), (q, p)):
            for r in coeffs:
                for c in partners[r]:
                    candidates.add((x, y, c))  # <[x,y],c> side
                    candidates.add((c, x, y))  # <c,[x,y]> side
    mul = product_table()

    def paired(coeffs, index) -> Scalar:
        if not coeffs:
            return ZERO
        total = ZERO
        for r, v in coeffs.items():
            m = pairing.entry(r, index)
            if m:
                total = total + mul(v, m)
        return total

    plus_bad: list[Violation] = []
    minus_bad: list[Violation] = []
    for a, b, cidx in sorted(candidates):
        lhs = paired(pair(a, b), cidx)
        rhs = paired(pair(b, cidx), a)
        if lhs != rhs:
            plus_bad.append(Violation((a, b, cidx), str(lhs - rhs)))
        if lhs != -rhs:
            minus_bad.append(Violation((a, b, cidx), str(lhs + rhs)))
    return InvarianceReport(
        invariant_holds=not plus_bad,
        anti_invariant_holds=not minus_bad,
        invariant_counterexamples=plus_bad,
        anti_invariant_counterexamples=minus_bad,
    )
