"""Seeded generator for the ``dense_files`` workload.

Each pair is the n = 3 factory pair of solvable halves (dimension 6),
rewritten under an integer unimodular basis change: the plus half in the
basis given by the columns of A, the minus half in the basis given by the
columns of A^{-T}.  The pairing <Z'_p, z'^q> = (A^T A^{-T})_pq stays the
identity, so every rewritten pair is index-aligned, dual and compatible.
A = B P, with B a fixed tier matrix that sets the pair's cost and P a
signed permutation drawn from the run seed.
One pair in four gets a single minus-half coefficient perturbed; the
generator proves the perturbation breaks crossed compatibility (the
residual is linear in the minus tensor, so it equals eps times the residual
of the one-entry tensor) and draws again when it does not.

The generator owns its arithmetic (pairs of Fractions for a + b*sqrt2) and
never imports the program, so the inputs do not depend on the code under
test.  With the same arithmetic it computes what the program must print for
each pair: the canonical double, or the exact counterexample list.  The
same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

N = 3
DIM = N * (N + 1) // 2
PLUS_LABELS = tuple(f"Z{k}" for k in range(1, DIM + 1))
MINUS_LABELS = tuple(f"z{k}" for k in range(1, DIM + 1))

# One (work, multiplier) tier per pair.  "work" is the number of nonzero
# products in the crossed-Jacobi sum of the pair (see `jacobi_products`), a
# property of the input that sets how much exact arithmetic a compatibility
# check must do.  Elementary column operations with multipliers in
# +-1..+-multiplier are drawn until the work lands within WINDOW of the
# tier's target; an overshoot restarts the matrix.  The batch runs from
# sparse pairs with small coefficients to dense ones with multi-digit
# coefficients.  Seven medium pairs put the median op in the middle of their
# cluster of one-check ops, and three dense ones put p90 inside theirs.
SCHEDULE = ((300, 1),) * 2 + ((1000, 1),) * 7 + ((3500, 9),) * 3
WINDOW = 0.05
MAX_OPS = 64
PERTURB_EVERY = 4  # pairs 3, 7, ... are perturbed
DEFAULT_SEED = 0  # the seed whose output digests are recorded
# The tier matrices come from this fixed seed, so the batch's cost is the same
# for every run seed; the run seed draws a signed permutation of each basis
# (new labels, signs and coefficient positions) and the perturbations.
SHAPE_SEED = 0

_Z = (Fraction(0), Fraction(0))


# ---- Q(sqrt2) as (a, b) meaning a + b*sqrt2 --------------------------------


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _scale(k, x):
    return (k * x[0], k * x[1])


def _nonzero(x) -> bool:
    return bool(x[0] or x[1])


# ---- structure tensors: {(p, q): {r: value}} with p < q ---------------------


def _put(table, p, q, r, value):
    if p > q:
        p, q, value = q, p, _scale(-1, value)
    row = table.setdefault((p, q), {})
    total = _add(row.get(r, _Z), value)
    if _nonzero(total):
        row[r] = total
    else:
        row.pop(r, None)
        if not row:
            del table[(p, q)]


def _full(table):
    """Both orientations: {(p, q): {r: value}}."""
    out = {}
    for (p, q), row in table.items():
        out[(p, q)] = row
        out[(q, p)] = {r: _scale(-1, v) for r, v in row.items()}
    return out


def factory_halves(n: int = N):
    """The size-n solvable pair with kappa = sqrt2/2 (plus) and its negation.

    Index layout as in the program's factory: X_1..X_n, then Y_ij (i < j)
    in lexicographic order.
    """
    kappa = (Fraction(0), Fraction(1, 2))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    root = {pair: n + k for k, pair in enumerate(pairs)}
    plus: dict = {}
    for i in range(1, n + 1):
        for (j, k) in pairs:
            weight = (i == j) - (i == k)
            if weight:
                _put(plus, i - 1, root[(j, k)], root[(j, k)], _scale(weight, kappa))
    one = (Fraction(1), Fraction(0))
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a + 1 :]:
            if j == k:
                _put(plus, root[(i, j)], root[(k, l)], root[(i, l)], one)
            if i == l:
                _put(plus, root[(i, j)], root[(k, l)], root[(k, j)], _scale(-1, one))
    minus = {key: {r: _scale(-1, v) for r, v in row.items()} for key, row in plus.items()}
    return plus, minus


def _column_op(rng: random.Random, multiplier: int, a, inv):
    """A <- A E, E = I + m e_j e_i^T (column i += m * column j), in place;
    A^{-1} <- E^{-1} A^{-1} (row j -= m * row i) keeps the exact inverse."""
    i, j = rng.sample(range(DIM), 2)
    m = rng.choice([k for k in range(-multiplier, multiplier + 1) if k])
    for row in a:
        row[i] += m * row[j]
    inv[j] = [x - m * y for x, y in zip(inv[j], inv[i])]


def rebase(table, a, a_inv):
    """Structure constants in the basis whose vectors are the columns of a."""
    full = _full(table)
    out: dict = {}
    for p in range(DIM):
        for q in range(p + 1, DIM):
            image = {}
            for i in range(DIM):
                if not a[i][p]:
                    continue
                for j in range(DIM):
                    if not a[j][q]:
                        continue
                    row = full.get((i, j))
                    if not row:
                        continue
                    weight = a[i][p] * a[j][q]
                    for r, v in row.items():
                        image[r] = _add(image.get(r, _Z), _scale(weight, v))
            for r, v in image.items():
                for s in range(DIM):
                    if a_inv[s][r]:
                        _put(out, p, q, s, _scale(a_inv[s][r], v))
    return out


def compat_residual(f, c):
    """Crossed-Jacobi residual {(p, q, s, t): value}, nonzero entries only.

    Same five-term identity as the program's compatibility check, written
    independently over full (both-orientation) tables.
    """
    ff = _full(f)
    cf = _full(c)
    res: dict = {}

    def add(key, value):
        total = _add(res.get(key, _Z), value)
        if _nonzero(total):
            res[key] = total
        else:
            res.pop(key, None)

    f_items = [(p, q, r, v) for (p, q), row in ff.items() for r, v in row.items()]
    for (cp, cq), row in cf.items():
        for cr, cv in row.items():
            for fp, fq, fr, fv in f_items:
                prod = _mul(cv, fv)
                neg = _scale(-1, prod)
                if fr == cr:  # + c^{p,q}_r f^r_{s,t}
                    add((cp, cq, fp, fq), prod)
                if fp == cq:  # - c^{p,r}_s f^q_{r,t}
                    add((cp, fr, cr, fq), neg)
                if fp == cp:  # - c^{r,q}_s f^p_{r,t}
                    add((fr, cq, cr, fq), neg)
                if fq == cq:  # - c^{p,r}_t f^q_{s,r}
                    add((cp, fr, fp, cr), neg)
                if fq == cp:  # - c^{r,q}_t f^p_{s,r}
                    add((fr, cq, fp, cr), neg)
    return res


def algebra_text(name: str, labels, table) -> str:
    lines = [f"algebra {name} dim {len(labels)}", "basis " + " ".join(labels)]
    for (p, q) in sorted(table):
        terms = " + ".join(f"({scalar_text(v)})*{labels[r]}" for r, v in sorted(table[(p, q)].items()))
        lines.append(f"[{labels[p]},{labels[q]}] = {terms}")
    return "\n".join(lines) + "\n"


def scalar_text(x) -> str:
    """Canonical text of a + b*sqrt2, as the program's printer writes it."""
    a, b = x
    parts = [str(a)] if a else []
    if b:
        parts.append("sqrt2" if b == 1 else "-sqrt2" if b == -1 else f"{b}*sqrt2")
    return join_terms(parts) if parts else "0"


def join_terms(parts) -> str:
    """Join signed terms the way the program's printers do."""
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def term_text(label: str, x) -> str:
    """One canonical bracket term: coefficient times label."""
    text = scalar_text(x)
    if text in ("1", "-1"):
        return label if text == "1" else "-" + label
    return f"({text})*{label}" if " " in text else f"{text}*{label}"


def double_table(f, c):
    """The double on Z_1..Z_m, z^1..z^m: f, c shifted by m, and the crossed
    brackets [z^p, Z_q] = f^p_{q,r} z^r - c^{p,r}_q Z_r stored as [Z_q, z^p]."""
    m = DIM
    out: dict = {}
    for (p, q), row in f.items():
        for r, v in row.items():
            _put(out, p, q, r, v)
    for (p, q), row in c.items():
        for r, v in row.items():
            _put(out, m + p, m + q, m + r, v)
    ff, cf = _full(f), _full(c)
    for p in range(m):
        for q in range(m):
            for r in range(m):
                v = ff.get((q, r), {}).get(p)
                if v:
                    _put(out, q, m + p, m + r, _scale(-1, v))
                v = cf.get((p, r), {}).get(q)
                if v:
                    _put(out, q, m + p, r, v)
    return out


def double_text(f, c) -> str:
    """The canonical algebra file the program prints for the double."""
    labels = PLUS_LABELS + MINUS_LABELS
    table = double_table(f, c)
    lines = [f"algebra double dim {len(labels)}", "basis " + " ".join(labels)]
    for (p, q) in sorted(table):
        terms = [term_text(labels[r], v) for r, v in sorted(table[(p, q)].items())]
        lines.append(f"[{labels[p]},{labels[q]}] = {join_terms(terms)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Pair:
    name: str
    plus_text: str
    minus_text: str
    compatible: bool
    nnz: int  # stored structure constants over both halves
    max_bits: int  # largest numerator or denominator bit length
    # Reference outputs, computed here: the canonical text of the double of
    # a compatible pair, or the sorted ((p, q, s, t), residual text) list a
    # compatibility check of a perturbed pair must report.
    double_text: str
    residual: tuple

    @property
    def bytes(self) -> int:
        return len(self.plus_text) + len(self.minus_text)


def _nnz(table) -> int:
    return sum(len(row) for row in table.values())


def max_bits(*tables) -> int:
    top = 0
    for table in tables:
        for row in table.values():
            for a, b in row.values():
                for x in (a, b):
                    top = max(top, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return top


def _perturb(rng: random.Random, f, c):
    """Add a nonzero rational to one minus-half slot so compatibility breaks.

    Returns the perturbed minus table and its residual.  The residual is
    linear in the minus tensor and vanishes on (f, c), so it is eps times
    the residual of the one-entry tensor.
    """
    while True:
        p, q = sorted(rng.sample(range(DIM), 2))
        r = rng.randrange(DIM)
        eps = (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))), Fraction(0))
        residual = compat_residual(f, {(p, q): {r: eps}})
        if residual:
            out = {key: dict(row) for key, row in c.items()}
            _put(out, p, q, r, eps)
            return out, residual


def jacobi_products(f, c) -> int:
    """Nonzero products c * f in the crossed-Jacobi sum of a pair."""
    out_count: dict = {}
    first_count: dict = {}
    second_count: dict = {}
    for (p, q), row in _full(f).items():
        for r in row:
            out_count[r] = out_count.get(r, 0) + 1
            first_count[p] = first_count.get(p, 0) + 1
            second_count[q] = second_count.get(q, 0) + 1
    total = 0
    for (p, q), row in _full(c).items():
        for r in row:
            total += out_count.get(r, 0)
            total += first_count.get(q, 0) + first_count.get(p, 0)
            total += second_count.get(q, 0) + second_count.get(p, 0)
    return total


def _draw(rng: random.Random, plus0, minus0, target: int, multiplier: int):
    """A unimodular A (and A^{-1}) whose rebased pair's crossed-Jacobi work
    is within WINDOW of target."""
    lo, hi = target * (1 - WINDOW), target * (1 + WINDOW)
    while True:
        a = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
        a_inv = [row[:] for row in a]
        for _ in range(MAX_OPS):
            _column_op(rng, multiplier, a, a_inv)
            f, c = _rebase_pair(plus0, minus0, a, a_inv)
            work = jacobi_products(f, c)
            if work > hi:
                break
            if work >= lo:
                return a, a_inv


def _rebase_pair(plus0, minus0, a, a_inv):
    """Plus half in the basis A, minus half in A^{-T} (whose inverse is A^T)."""
    transpose = lambda m: [list(col) for col in zip(*m)]  # noqa: E731
    return rebase(plus0, a, a_inv), rebase(minus0, transpose(a_inv), transpose(a))


def _signed_permutation(rng: random.Random, a, a_inv):
    """A P and (A P)^{-1} = P^T A^{-1} for a random signed permutation P
    (P e_j = s_j e_pi(j)): relabels and flips the basis, so the rebased pair
    has the same coefficient sizes and the same work as under A."""
    pi = rng.sample(range(DIM), DIM)
    s = [rng.choice((-1, 1)) for _ in range(DIM)]
    ap = [[row[pi[j]] * s[j] for j in range(DIM)] for row in a]
    ap_inv = [[x * s[j] for x in a_inv[pi[j]]] for j in range(DIM)]
    return ap, ap_inv


def generate(seed: int) -> list[Pair]:
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    plus0, minus0 = factory_halves()
    pairs = []
    for k, (target, multiplier) in enumerate(SCHEDULE):
        a, a_inv = _signed_permutation(rng, *_draw(shape, plus0, minus0, target, multiplier))
        f, c = _rebase_pair(plus0, minus0, a, a_inv)
        compatible = (k + 1) % PERTURB_EVERY != 0
        residual = {}
        if not compatible:
            c, residual = _perturb(rng, f, c)
        name = f"p{k:02d}"
        pairs.append(
            Pair(
                name,
                algebra_text(f"{name}_plus", PLUS_LABELS, f),
                algebra_text(f"{name}_minus", MINUS_LABELS, c),
                compatible,
                _nnz(f) + _nnz(c),
                max_bits(f, c),
                double_text(f, c) if compatible else "",
                tuple((key, scalar_text(residual[key])) for key in sorted(residual)),
            )
        )
    return pairs
