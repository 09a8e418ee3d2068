"""Factory for the self-dual double built on gl(n) + t_n.

Two n(n+1)/2-dimensional solvable algebras, the upper and lower triangular
matrices of gl(n), are paired index-by-index:

    s_plus:  X_i = E_ii (i = 1..n) and Y_ij = E_ij (i < j)
    s_minus: x^i                   and y^ij         (i < j)

Both halves and gl(n) + t_n take their brackets from one commutator rule
over matrix units, [E_ij, E_kl] = d_jk E_il - d_li E_kj; a half scales each
bracket with a Cartan unit by kappa, and s_minus negates every bracket:

    [X_i, Y_jk] = kappa (d_ij - d_ik) Y_jk      [Y_ij, Y_kl] = d_jk Y_il - d_il Y_kj
    [x^i, y^jk] = -kappa (d_ij - d_ik) y^jk     [y^ij, y^kl] = -(d_jk y^il - d_il y^kj)

where kappa defaults to 1/sqrt2, the unique normalization (up to sign) for
which the double is gl(n) + t_n with the orthonormal-Cartan trace pairing.
Compatibility alone fixes 2 kappa^2 = 1 only from n = 3 on, through the
root ladder (the first crossed residual is 2 kappa^2 - 1); at n = 2 there is
no root-root bracket, the crossed residual is bilinear in the two halves'
scales and vanishes for every kappa, and kappa is fixed by identifying the
double with gl(2) + t_2 in the fixed basis below.

Flattened index orders are fixed and documented:

    solvable basis:  X_1..X_n, then Y_ij in lexicographic (i, j) order;
    gl(n)+t_n basis: H_1..H_n, I_1..I_n, then F_ij (i != j) lexicographic.

This module is the one home of that layout: ``h_index``, ``i_index``,
``f_index`` and ``gln_labels`` state it, and the r-matrix's standard/twist
split and the quotient identifying the central I_i read it through them.
``self_duality`` states the involution of the double that swaps its two
Borel halves, in the double's X, Y, x, y order.

The change of basis identifying the double with gl(n) + t_n is

    H_i = (X_i + x^i)/sqrt2,  I_i = (X_i - x^i)/(i*sqrt2),
    F_ij = Y_ij (i < j),      F_ij = y^ji (i > j).
"""

from __future__ import annotations

from .bialg import Cocommutator, TwoTensor, cocommutator_from_triple, express_in_basis
from .liealg import (
    BilinearForm,
    LieAlgebra,
    Matrix,
    StructureTensor,
    Vector,
    Violation,
    ViolationReport,
    add_into,
    scalar_table,
    trace_form,
)
from .manin import ManinTriple, build_double
from fractions import Fraction

from .scalars import HALF_SQRT2, MINUS_ONE, ONE, Scalar

__all__ = [
    "solvable_dim",
    "cartan_index",
    "root_index",
    "solvable_labels",
    "gln_dim",
    "h_index",
    "i_index",
    "f_index",
    "gln_labels",
    "self_duality",
    "build_s_plus",
    "build_s_minus",
    "build_gln_triple",
    "gln_change_of_basis",
    "fundamental_representation",
    "representation_index",
    "build_gln_tn",
    "gln_tn_trace_form",
    "double_in_gln_basis",
    "delta_in_gln_basis",
    "split_twist",
    "identify_central",
    "rmatrix_in_gln_basis",
    "first_bracket_difference",
    "verify_double_is_gln",
    "check_chain_embedding",
]

# i*sqrt2/2 and -i*sqrt2/2, the central-generator mixing weights
_I_HALF_SQRT2 = Scalar(0, 0, 0, Fraction(1, 2))
_MINUS_I_HALF_SQRT2 = -_I_HALF_SQRT2


def _require_size(n: int) -> None:
    """Raise ValueError unless n, the size of gl(n), is at least 1.

    Every public function here that builds or reads a size-n object calls it.
    """
    if n < 1:
        raise ValueError("n must be at least 1")


def solvable_dim(n: int) -> int:
    _require_size(n)
    return n * (n + 1) // 2


def cartan_index(n: int, i: int) -> int:
    """0-based index of X_i / x^i, i given 1-based."""
    _require_size(n)
    if not 1 <= i <= n:
        raise ValueError(f"Cartan index {i} outside 1..{n}")
    return i - 1


def root_index(n: int, i: int, j: int) -> int:
    """0-based index of Y_ij / y^ij, pair given 1-based with i < j."""
    _require_size(n)
    if not (1 <= i < j <= n):
        raise ValueError(f"root pair ({i},{j}) must satisfy 1 <= i < j <= {n}")
    return n + (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def _pair_label(n: int, prefix: str, i: int, j: int) -> str:
    """Label of the size-n generator with index pair (i, j): ``F12``, or ``F1_12`` from n = 10.

    Without the separator ``F1,11`` and ``F11,1`` would both read ``F111``.
    """
    return f"{prefix}{i}_{j}" if n >= 10 else f"{prefix}{i}{j}"


def solvable_labels(n: int, lower: bool = False) -> tuple[str, ...]:
    _require_size(n)
    cartan = "x" if lower else "X"
    root = "y" if lower else "Y"
    labels = [f"{cartan}{i}" for i in range(1, n + 1)]
    labels += [
        _pair_label(n, root, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    return tuple(labels)


def gln_dim(n: int) -> int:
    _require_size(n)
    return n * n + n


# The gl(n)+t_n basis in index ranges: an index below n is an H, one below
# 2n an I, and every other one an F.
def h_index(n: int, i: int) -> int:
    _require_size(n)
    if not 1 <= i <= n:
        raise ValueError(f"H index {i} outside 1..{n}")
    return i - 1


def i_index(n: int, i: int) -> int:
    _require_size(n)
    if not 1 <= i <= n:
        raise ValueError(f"I index {i} outside 1..{n}")
    return n + i - 1


def f_index(n: int, i: int, j: int) -> int:
    _require_size(n)
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"F pair ({i},{j}) must have distinct entries in 1..{n}")
    return 2 * n + (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


def gln_labels(n: int) -> tuple[str, ...]:
    _require_size(n)
    labels = [f"H{i}" for i in range(1, n + 1)]
    labels += [f"I{i}" for i in range(1, n + 1)]
    labels += [
        _pair_label(n, "F", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j != i
    ]
    return tuple(labels)


def self_duality(n: int) -> tuple[tuple[int, int], ...]:
    """The involution theta of the size-n double, as (image, sign) per basis index p.

    theta(e_p) = sign e_image.  It swaps the two Borel halves, X_i <-> -x^i
    and Y_ij <-> s y^ij with s = (-1)^(j-i-1): [Y_ij, Y_jl] = Y_il goes to
    [y^ij, y^jl] = -y^il, so s_il = -s_ij s_jl.  This is the paper's
    self-duality of the double; :func:`bialg.certify_self_duality` checks it
    on the objects at hand.
    """
    m = solvable_dim(n)
    signs = [-1] * n
    signs += [(-1) ** (j - i - 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return tuple((m + p, s) for p, s in enumerate(signs)) + tuple(enumerate(signs))


def _matrix_units(n: int) -> list[tuple[int, int]]:
    """(i, j) of each gl(n) basis element E_ij: H_i = E_ii first, then F_ij (i != j)."""
    units = [(i, i) for i in range(1, n + 1)]
    units += [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j != i]
    return units


def _unit_index(n: int, i: int, j: int) -> int:
    return h_index(n, i) if i == j else f_index(n, i, j)


def _commutator_table(index: dict, scale) -> StructureTensor:
    """Brackets of the matrix units keyed in ``index``, from [E_ij, E_kl] = d_jk E_il - d_li E_kj.

    ``index`` maps each unit (i, j), in basis order, to increasing basis
    indices and must hold every unit the rule produces; ``scale(i, j, k,
    l)`` multiplies the bracket of E_ij and E_kl.  The pairs come in sorted
    order, so the table goes in trusted once each two-term bracket is sorted.
    """
    units = list(index)
    neg = scalar_table().neg
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for a, (i, j) in enumerate(units):
        for k, l in units[a + 1 :]:
            if j != k and l != i:
                continue
            s = scale(i, j, k, l)
            if not s:
                continue  # a zero kappa: the constructor would drop the bracket
            terms = {}
            if j == k:
                terms[index[(i, l)]] = s
            if l == i:
                terms[index[(k, j)]] = neg(s)
            brackets[(index[(i, j)], index[(k, l)])] = (
                dict(sorted(terms.items())) if len(terms) == 2 else terms
            )
    return StructureTensor._of_sorted(brackets)


def _borel_half(n: int, kappa: Scalar, lower: bool) -> LieAlgebra:
    """Span of E_ii, then E_ij (i < j): each bracket times kappa when a unit is
    diagonal, and negated in the lower half."""
    _require_size(n)
    units = [(i, j) for i, j in _matrix_units(n) if i <= j]
    sign = MINUS_ONE if lower else ONE
    cartan = kappa * sign
    table = _commutator_table(
        {unit: p for p, unit in enumerate(units)},
        lambda i, j, k, l: cartan if i == j or k == l else sign,
    )
    return LieAlgebra(solvable_labels(n, lower), table)


def build_s_plus(n: int, cartan_coefficient: Scalar = HALF_SQRT2) -> LieAlgebra:
    """Upper-triangular-type solvable algebra on X_i, Y_ij (i < j)."""
    return _borel_half(n, cartan_coefficient, lower=False)


def build_s_minus(n: int, cartan_coefficient: Scalar = HALF_SQRT2) -> LieAlgebra:
    """Lower-triangular-type partner: every structure constant negated."""
    return _borel_half(n, cartan_coefficient, lower=True)


def build_gln_triple(n: int, cartan_coefficient: Scalar = HALF_SQRT2) -> ManinTriple:
    """Pair the two solvable algebras index-by-index into a Manin triple."""
    _require_size(n)
    return ManinTriple(build_s_plus(n, cartan_coefficient), build_s_minus(n, cartan_coefficient))


def gln_change_of_basis(n: int) -> Matrix:
    """Columns express H_i, I_i, F_ij through the double's X, Y, x, y basis.

    H_i = (X_i + x^i)/sqrt2, I_i = (X_i - x^i)/(i*sqrt2) and F_ij is Y_ij
    for i < j, y^ji for i > j.  The inverse is built with it in closed form,
    X_i = (H_i + i I_i)/sqrt2, x^i = (H_i - i I_i)/sqrt2, Y_ij = F_ij and
    y^ji = F_ij, and handed to the matrix, so ``inverse()`` eliminates
    nothing.  T is unitary: row s of the inverse is the complex conjugate of
    column s, which is column s itself for H_i and F_ij and its negative
    for I_i.
    """
    _require_size(n)
    m = solvable_dim(n)
    dim = gln_dim(n)
    cartan = [(cartan_index(n, i), m + cartan_index(n, i)) for i in range(1, n + 1)]
    columns = [{X: HALF_SQRT2, x: HALF_SQRT2} for X, x in cartan]
    columns += [{X: _MINUS_I_HALF_SQRT2, x: _I_HALF_SQRT2} for X, x in cartan]
    inverse_rows = columns[:n] + [{X: _I_HALF_SQRT2, x: _MINUS_I_HALF_SQRT2} for X, x in cartan]
    for i, j in _matrix_units(n)[n:]:
        columns.append({root_index(n, i, j): ONE} if i < j else {m + root_index(n, j, i): ONE})
    inverse_rows += columns[2 * n :]
    T = Matrix.from_columns(dim, columns)
    T._inverse = Matrix._of_rows(inverse_rows, dim)
    return T


def fundamental_representation(n: int) -> list[Matrix]:
    """n x n matrices for the gl(n) block: H_i = E_ii, F_ij = E_ij (i != j)."""
    _require_size(n)
    return [
        Matrix._of_rows([{j - 1: ONE} if r == i - 1 else {} for r in range(n)], n)
        for i, j in _matrix_units(n)
    ]


def representation_index(n: int) -> list[int]:
    """gl(n)+t_n index of each fundamental_representation(n) matrix, in order."""
    _require_size(n)
    return [_unit_index(n, i, j) for i, j in _matrix_units(n)]


def build_gln_tn(n: int) -> LieAlgebra:
    """gl(n) from [E_ij, E_kl] = d_jk E_il - d_li E_kj, plus n central I_i."""
    _require_size(n)
    index = {(i, j): _unit_index(n, i, j) for i, j in _matrix_units(n)}
    return LieAlgebra(gln_labels(n), _commutator_table(index, lambda i, j, k, l: ONE))


def gln_tn_trace_form(n: int) -> BilinearForm:
    """Fundamental trace form on the gl(n) block, extended by <I_i, I_j> = d_ij."""
    _require_size(n)
    dim = gln_dim(n)
    rows: list[dict] = [{} for _ in range(dim)]
    block = trace_form(fundamental_representation(n)).matrix()
    index = representation_index(n)
    for a, p in enumerate(index):
        for b, value in block.row(a).items():
            rows[p][index[b]] = value
    for i in range(1, n + 1):
        rows[i_index(n, i)][i_index(n, i)] = ONE
    return BilinearForm(Matrix._of_rows(rows, dim))


def double_in_gln_basis(n: int, triple: ManinTriple | None = None) -> LieAlgebra:
    """The double's bracket table rewritten in the H, I, F basis."""
    _require_size(n)
    if triple is None:
        triple = build_gln_triple(n)
    double = build_double(triple)
    return double.algebra.change_of_basis(gln_change_of_basis(n), labels=gln_labels(n))


def delta_in_gln_basis(n: int, triple: ManinTriple | None = None) -> Cocommutator:
    """The double's cocommutator transported to the H, I, F basis."""
    _require_size(n)
    if triple is None:
        triple = build_gln_triple(n)
    return express_in_basis(cocommutator_from_triple(triple), gln_change_of_basis(n))


def _term_blocks(n: int, tensor: TwoTensor):
    """Each term of a two-tensor on gl(n)+t_n as ((p, q), value, blocks of p and q).

    The block of an index, H, I or F, is read from its range (see ``h_index``).
    """
    dim = gln_dim(n)
    for (p, q), value in tensor.items():
        for index in (p, q):
            if not 0 <= index < dim:
                raise ValueError(f"index {index} outside the gl({n})+t_{n} basis")
        yield (p, q), value, "".join("H" if k < n else "I" if k < 2 * n else "F" for k in (p, q))


def split_twist(n: int, r_skew: TwoTensor) -> tuple[TwoTensor, TwoTensor]:
    """Split a skew r-matrix in the H/I/F basis into (r_s, r_t): its F^F and H^I terms.

    Any term outside both patterns signals malformed input.
    """
    _require_size(n)
    standard: dict[tuple[int, int], Scalar] = {}
    twist: dict[tuple[int, int], Scalar] = {}
    for key, value, blocks in _term_blocks(n, r_skew):
        if blocks == "FF":
            standard[key] = value
        elif blocks in ("HI", "IH"):
            twist[key] = value
        else:
            raise ValueError(
                f"term at {key} (blocks {sorted(set(blocks))}) fits neither the "
                "F^F nor the H^I pattern"
            )
    return TwoTensor(standard), TwoTensor(twist)


def identify_central(n: int, tensor: TwoTensor) -> TwoTensor:
    """Quotient map sending every central generator I_i to I_1; H and F indices are kept.

    The image of a wedge F^(I_i - I_j) is zero, which is the operational
    sense in which the twist becomes trivial.
    """
    _require_size(n)
    common = i_index(n, 1)
    acc: dict[tuple[int, int], Scalar] = {}
    for key, value, blocks in _term_blocks(n, tensor):
        add_into(acc, tuple(common if b == "I" else k for k, b in zip(key, blocks)), value)
    return TwoTensor(acc)


def rmatrix_in_gln_basis(n: int, r_skew: TwoTensor) -> tuple[TwoTensor, TwoTensor, TwoTensor]:
    """The double's skew r-matrix moved to the H/I/F basis, then its ``split_twist`` parts."""
    _require_size(n)
    r_skew_hif = r_skew.transport(gln_change_of_basis(n).inverse())
    return (r_skew_hif, *split_twist(n, r_skew_hif))


def first_bracket_difference(a: LieAlgebra, b: LieAlgebra):
    """First stored pair (p, q), in sorted order, whose bracket differs in a and b.

    Returns ``(key, bracket in a, bracket in b)`` with the brackets as
    Vectors, or None when the two bracket tables are equal.
    """
    got = dict(a.tensor.stored())
    want = dict(b.tensor.stored())
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return key, Vector(got.get(key, {})), Vector(want.get(key, {}))
    return None


def verify_double_is_gln(n: int, rebased: LieAlgebra | None = None) -> ViolationReport:
    """Compare the rebased double with the closed-form gl(n) + t_n table exactly.

    ``rebased`` defaults to ``double_in_gln_basis(n)``.  The one violation,
    if any, is the first differing bracket pair with the residual built - expected.
    """
    _require_size(n)
    if rebased is None:
        rebased = double_in_gln_basis(n)
    expected = build_gln_tn(n)
    report = ViolationReport("double_is_glntn")
    difference = first_bracket_difference(rebased, expected)
    if difference is not None:
        key, built, want = difference
        report.violations.append(Violation(key, (built - want).format(expected.labels)))
    return report


def _embedding_map(m: int) -> dict[int, int]:
    """Index of each size-m generator E_ij, I_i among the size-(m+1) ones."""
    mapping = {_unit_index(m, i, j): _unit_index(m + 1, i, j) for i, j in _matrix_units(m)}
    mapping.update({i_index(m, i): i_index(m + 1, i) for i in range(1, m + 1)})
    return mapping


def check_chain_embedding(m: int) -> ViolationReport:
    """Generator-wise inclusion must commute with brackets and cocommutators."""
    _require_size(m)
    small_triple = build_gln_triple(m)
    big_triple = build_gln_triple(m + 1)
    small = double_in_gln_basis(m, small_triple)
    big = double_in_gln_basis(m + 1, big_triple)
    small_delta = delta_in_gln_basis(m, small_triple)
    big_delta = delta_in_gln_basis(m + 1, big_triple)
    emb = _embedding_map(m)
    report = ViolationReport("chain_embedding")
    neg = scalar_table().neg
    # the nonzero brackets of each side, keyed by the size-m pair p < q
    pushed = {key: {emb[r]: v for r, v in coeffs.items()} for key, coeffs in small.tensor.stored()}
    back = {big_index: p for p, big_index in emb.items()}
    target = {(back[p], back[q]): coeffs for (p, q), coeffs in big.tensor.oriented()
              if p in back and q in back and back[p] < back[q]}
    for key in sorted(pushed.keys() | target.keys()):
        built, want = pushed.get(key, {}), target.get(key, {})
        if built != want:
            residual = Vector(want) - Vector(built)
            report.violations.append(
                Violation(key, f"bracket mismatch: {residual.format(big.labels)}")
            )
    # emb keeps the order of indices, so each pushed sorted half is the sorted
    # half it must equal; the residual text is made only on a mismatch
    for p in range(small.dim):
        pushed = {(emb[a], emb[b]): v for (a, b), v in small_delta._half(p).items()}
        if pushed != big_delta._half(emb[p]):
            residual = (big_delta.get(emb[p]) - TwoTensor._of_half(pushed, neg)).format(big.labels)
            report.violations.append(Violation((p,), f"cocommutator mismatch: {residual}"))
    return report
