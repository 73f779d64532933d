"""Certified linear algebra over a tower level.

Matrices are plain lists of lists of Scalars sharing one descriptor.  Rank,
kernel, span and determinant-valuation decisions follow a certify-or-fail
contract: a pivot is accepted only when its (exact) valuation is backed by at
least ``guard`` spare pi-adic digits, and anything discarded as zero is zero
to within the working precision.  When a decision cannot be certified a
PrecisionError escapes and the caller retries at doubled precision.

``guard`` belongs to the elimination: ``certified_row_reduce`` and the
``certified_rank``, ``rank_certificate`` and ``column_space_basis`` built
directly on it take it.  Everything above them, here and in every other
layer, certifies at ``DEFAULT_GUARD``, which each RankCertificate records.

Pivoting always selects a minimal-valuation entry, which is the p-adic
analogue of partial pivoting and keeps precision loss linear.

Elimination, matrix products, linear combinations, charpoly and the
relation test a*b - c = 0 run the level's arithmetic rules, written once in
``scalar`` (``scalar.kernel``), on raw entries in place of Scalars.  Only
what a caller receives is built as Scalars, and a rank, column-space or
relation decision builds none.  A caller that chains eliminations (the slope
split, admissibility) passes ``Raw`` rows, which ``certified_row_reduce``
eliminates and returns as they are; ``frobenius_rows`` and
``kernel_from_echelon`` are the raw sigma and kernel that the Scalar
functions wrap.  ``tests/oracles.py`` keeps the elimination and the
dot fold on Scalars as the reference the tests compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import PrecisionError, ValidationError
from . import scalar as sc
from .scalar import Scalar, sc_add, sc_sub, sc_mul, sc_neg, sc_zero


DEFAULT_GUARD = 8


def relation_threshold(field) -> Fraction:
    """A relation a = b counts as holding at the working precision of field
    when a - b vanishes to half of it: the threshold every relation check
    passes to ``mat_is_zero``, ``zero_status`` or ``mat_mul_sub_is_zero``."""
    return Fraction(field.prec, 2)


def mat_dims(m):
    return len(m), len(m[0]) if m else 0


def zeros(field, r, c):
    return [[sc_zero(field) for _ in range(c)] for _ in range(r)]


def identity(field, n):
    one = field.one()
    return [[one if i == j else sc_zero(field) for j in range(n)]
            for i in range(n)]


def from_rows_of_fractions(field, rows):
    return [[field.scalar(x) for x in row] for row in rows]


def mat_add(a, b):
    return [[sc_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[sc_sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[sc_neg(x) for x in row] for row in a]


class Raw(list):
    """Rows of raw entries of one level, with its rules ``k``
    (``scalar.kernel``): a matrix that ``certified_row_reduce`` eliminates
    as it is, returning its echelon form as raw rows."""

    __slots__ = ("k",)

    def __init__(self, k, rows):
        super().__init__(rows)
        self.k = k


def mat_mul(a, b):
    _, inner = mat_dims(a)
    assert inner == mat_dims(b)[0], "inner dimensions mismatch"
    if not inner:
        return [[] for _ in a]
    k = sc.kernel(a[0][0].field)
    kcols = k.encode_rows(zip(*b))
    return k.decode_rows([[k.dot(row, col) for col in kcols]
                          for row in k.encode_rows(a)])


def mat_mul_sub_is_zero(a, b, c, min_bound) -> bool:
    """``mat_is_zero(mat_sub(mat_mul(a, b), c), min_bound)`` on raw entries:
    the dot fold, then sc_sub, then sc_certified_zero; no Scalar is built."""
    k = sc.kernel(_field_of(c))
    zw = math.ceil(min_bound * k.e)
    kcols = k.encode_rows(zip(*b))
    add, neg = k.add, k.neg
    for row, crow in zip(k.encode_rows(a), k.encode_rows(c)):
        for col, z in zip(kcols, crow):
            d = add(k.dot(row, col), neg(z))
            if d is not None and (d[1] is not None or d[0] < zw):
                return False
    return True


def mat_lincomb(coeffs, mats):
    """The fold of ``mat_add`` over the ``mat_scalar`` terms c*M from the
    left, as one fma fold per entry on raw entries; a zero coefficient adds
    nothing.  Each entry sees the Scalar fold's operations, so the result is
    its result, and a PrecisionError is raised exactly when it raises one,
    though perhaps first at another entry."""
    k = sc.kernel(_field_of(mats[0]))
    fma = k.fma
    acc = [[None] * len(row) for row in mats[0]]
    for c, m in zip(map(k.entry, coeffs), mats):
        if c is None:
            continue
        for arow, mrow in zip(acc, k.encode_rows(m)):
            for j, x in enumerate(mrow):
                if x is not None:
                    arow[j] = fma(arow[j], c, x)
    return k.decode_rows(acc)


def mat_scalar(s, a):
    # s * 0 is an exact zero, and Scalars are never mutated
    return [[x if x.kind == sc.ZERO else sc_mul(s, x) for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


def mat_frobenius(a):
    """sigma entry by entry; a itself at f = 1, where sigma is the identity
    (no caller mutates the rows it gets back)."""
    if not (a and a[0]) or a[0][0].field.ring.f == 1:
        return a
    return mat_map(a, sc.sc_frobenius)


def frobenius_rows(k, rows):
    """``mat_frobenius`` on raw rows: sigma acts on a reg entry's unit
    through ``TowerRing.frobenius``; rows itself at f = 1."""
    ring = k.ring
    if ring.f == 1:
        return rows
    fr = ring.frobenius
    return [[x if x is None or x[1] is None else (x[0], fr(x[1]), x[2])
             for x in row] for row in rows]


def hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


def columns(a, idx):
    return [[row[j] for j in idx] for row in a]


class RankCertificate:
    """Outcome of a certified elimination over a level of ramification e.

    Valuations are integer pi-exponents: ``pivot_ws`` holds the exact
    exponents of the pivots and ``residual_zw`` the bound to which every
    discarded entry vanishes (None when nothing was discarded as zero).
    ``as_dict`` and ``det_valuation`` read them as valuations w/e.
    """

    def __init__(self, rank, pivot_ws, guard, residual_zw, e):
        self.rank = rank
        self.pivot_ws = pivot_ws
        self.guard = guard  # spare pi-digits backing each pivot
        self.residual_zw = residual_zw
        self.e = e

    def as_dict(self):
        e = self.e
        return {"rank": self.rank,
                "pivot_valuations": [str(Fraction(w, e)) for w in self.pivot_ws],
                "guard": self.guard,
                "residual_zero_to": (str(Fraction(self.residual_zw, e))
                                     if self.residual_zw is not None else None)}


def certified_row_reduce(m, guard: int = DEFAULT_GUARD, reduced: bool = True,
                         rows: bool = True):
    """Row reduce a copy of m; returns (echelon, pivot_cols, certificate).

    Raises PrecisionError when a pivot decision cannot be backed by ``guard``
    spare pi-adic digits.  With rows=False the echelon form is not returned
    (None in its place), for callers that read only pivots and certificate.
    m is a matrix of Scalars, or ``Raw`` rows, whose echelon form comes back
    as raw rows: the same elimination, without encoding or decoding.
    """
    if not m or not m[0]:
        return [] if rows else None, [], RankCertificate(0, [], guard, None, 1)
    raw = type(m) is Raw
    k = m.k if raw else sc.kernel(_field_of(m))
    fma, neg = k.fma, k.neg
    # rows are replaced, never changed in place, so raw rows are shared
    ech = list(m) if raw else k.encode_rows(m)
    nr, nc = len(ech), len(ech[0])
    pivot_cols = []
    pivot_ws = []
    r = 0
    for c in range(nc):
        best = None
        for i in range(r, nr):
            x = ech[i][c]
            if x is not None and x[1] is not None and (best is None or x[0] < bw):
                best, bw = i, x[0]
        if best is None:
            continue
        piv = ech[best][c]
        if piv[2] < guard:
            raise PrecisionError(_pivot_message(c, piv[2], guard))
        ech[r], ech[best] = ech[best], ech[r]
        # the pivot's inverse, then the product across its row
        inv = k.inv(piv)
        prow = ech[r] = [x if x is None else fma(None, inv, x) for x in ech[r]]
        lo = 0 if reduced else r + 1
        for i in range(lo, nr):
            if i == r:
                continue
            factor = ech[i][c]
            if factor is None:
                continue
            # y - factor * z as y + (-factor) * z: negation commutes with
            # the product, digits and floor check included
            nf = neg(factor)
            ech[i] = [y if z is None else fma(y, nf, z)
                      for y, z in zip(ech[i], prow)]
        pivot_cols.append(c)
        pivot_ws.append(piv[0])
        r += 1
        if r == nr:
            break
    residual_zw = None
    for i in range(r, nr):
        for x in ech[i]:
            if x is None:
                continue
            if x[1] is not None:
                raise PrecisionError(_RESIDUAL_MESSAGE)
            residual_zw = x[0] if residual_zw is None else min(residual_zw, x[0])
    cert = RankCertificate(r, pivot_ws, guard, residual_zw, k.e)
    if not rows:
        return None, pivot_cols, cert
    ech = ech[:r] if reduced else ech
    return (ech if raw else k.decode_rows(ech)), pivot_cols, cert


def _pivot_message(c, relpi, guard):
    return (f"pivot at column {c} has only {relpi} spare pi-digits "
            f"(guard {guard}); escalate precision")


_RESIDUAL_MESSAGE = "uncertified nonzero residual after elimination"


def certified_rank(m, guard: int = DEFAULT_GUARD) -> int:
    """Certified rank of m by forward elimination only.

    Back-substitution above a pivot never changes the rows below it, so the
    pivots, their valuations and the residual rows are the ones the reduced
    form builds; a rank never reads the cleared entries above the pivots.
    """
    return rank_certificate(m, guard).rank


def rank_certificate(m, guard: int = DEFAULT_GUARD) -> RankCertificate:
    return certified_row_reduce(m, guard, reduced=False, rows=False)[2]


def column_space_basis(m, guard: int = DEFAULT_GUARD):
    """Columns of m spanning its column space (as a matrix of columns)."""
    _, pivot_cols, _ = certified_row_reduce(m, guard, reduced=False, rows=False)
    return columns(m, pivot_cols)


def kernel_basis(m):
    """Basis of the right kernel, as a list of column vectors (each a list)."""
    if not m or not m[0]:
        return []  # no columns, or no rows and so no field to build from
    k = sc.kernel(_field_of(m))
    ech, pivot_cols, _ = certified_row_reduce(Raw(k, k.encode_rows(m)))
    return k.decode_rows(kernel_from_echelon(k, ech, pivot_cols, len(m[0])))


def kernel_from_echelon(k, ech, pivot_cols, nc):
    """Right kernel basis, as raw column vectors, from the raw reduced
    echelon form and pivot columns of a matrix with nc columns: one vector
    per free column, with an identity block there."""
    basis = []
    for fc in range(nc):
        if fc in pivot_cols:
            continue
        vec = [None] * nc
        vec[fc] = k.one
        for r, pc in enumerate(pivot_cols):
            vec[pc] = k.neg(ech[r][fc])
        basis.append(vec)
    return basis


def solve_right(a, b):
    """One solution x of a*x = b (b a matrix of columns); raises if none
    certified.  Returns the matrix x."""
    field = _field_of(a)
    na, nc = mat_dims(a)
    nb = len(b[0])
    aug = hstack(a, b)
    ech, pivots, _ = certified_row_reduce(aug, reduced=True)
    for r, pc in enumerate(pivots):
        if pc >= nc:
            raise ValidationError("linear system certified inconsistent")
    x = zeros(field, nc, nb)
    for r, pc in enumerate(pivots):
        for j in range(nb):
            x[pc][j] = ech[r][nc + j]
    return x


def intersection_dim(a_cols, b_cols, rank_a: int | None = None,
                     rank_b: int | None = None) -> int:
    """dim(span(a) ∩ span(b)) for two column-span matrices over one level;
    a caller that has certified rank_a or rank_b passes it."""
    ra = certified_rank(transpose(a_cols)) if rank_a is None else rank_a
    rb = certified_rank(transpose(b_cols)) if rank_b is None else rank_b
    rab = certified_rank(transpose(hstack(a_cols, b_cols)))
    return ra + rb - rab


def intersection_basis(a_cols, b_cols):
    """Columns spanning span(a) ∩ span(b)."""
    ka = len(a_cols[0])
    ker = kernel_basis(hstack(a_cols, mat_map(b_cols, sc_neg)))
    if not ker:
        return [[] for _ in a_cols]
    coords = [[vec[j] for vec in ker] for j in range(ka)]
    return column_space_basis(mat_mul(a_cols, coords))


def subspace_leq(a_cols, b_cols, rank_b: int | None = None) -> bool:
    """span(a) <= span(b), certified; rank_b is the rank of b when the
    caller has certified it already, which saves an elimination."""
    rb = certified_rank(transpose(b_cols)) if rank_b is None else rank_b
    rab = certified_rank(transpose(hstack(a_cols, b_cols)))
    return rb == rab


def det_valuation(m) -> Fraction:
    """Exact valuation of det(m); PrecisionError if m is not certified
    invertible."""
    n = len(m)
    cert = rank_certificate(m)
    if cert.rank != n:
        raise PrecisionError("matrix not certified invertible")
    return Fraction(sum(cert.pivot_ws), cert.e)


def mat_inverse(m):
    field = _field_of(m)
    n = len(m)
    return solve_right(m, identity(field, n))


def charpoly(m):
    """Characteristic polynomial det(xI - m), ascending coefficients.

    Division-free (Berkowitz), so precision behaves like products and sums of
    the entries; no pivoting decisions are involved.
    """
    k = sc.kernel(_field_of(m))
    return k.decode_rows([berkowitz(k.encode_rows(m), k.one, k.neg, k.dot)])[0]


def berkowitz(m, one, neg, dot):
    """charpoly over the entries of m, with their one, negation and dot."""
    n = len(m)
    # Berkowitz: iteratively build the characteristic polynomial vector
    # http://en.wikipedia.org/wiki/Samuelson-Berkowitz_algorithm
    poly = [one, neg(m[0][0])]
    for k in range(1, n):
        a = m[k][k]
        row = [m[k][j] for j in range(k)]       # R: 1 x k
        col = [m[i][k] for i in range(k)]       # C: k x 1
        sub = [[m[i][j] for j in range(k)] for i in range(k)]
        # Toeplitz column: [1, -a, -R C, -R sub C, -R sub^2 C, ...]
        t = [one, neg(a)]
        v = col
        for _ in range(k):
            t.append(neg(dot(row, v)))
            v = [dot(sub[i], v) for i in range(k)]
        # Toeplitz product: new[i] = sum of t[j] * poly[i - j], 0 <= i - j <= k
        poly = [dot(t[max(0, i - k):i + 1], poly[min(i, k)::-1])
                for i in range(k + 2)]
    # poly is [1, c_{n-1}, ..., c_0] in degree-descending order; flip
    return list(reversed(poly))


def pi_power(field, w: int) -> Scalar:
    """The scalar p^a * u^b with (a, b) = divmod(w, e): valuation w/e, unit
    one, full precision."""
    return sc.sc_reg(field, w, field.ring.one(), field.relpi_max)


def normalize_columns(cols, integral: bool = False):
    """Scale each column by a power of the uniformizer so its minimal
    valuation becomes zero; keeps spans and improves zero-certification.

    With integral=True only integer powers of p are used (Galois-invariant
    scaling), so the minimal valuation lands in [0, 1).
    """
    if not cols or not cols[0]:
        return cols
    field = _field_of(cols)
    e = field.e
    n, k = len(cols), len(cols[0])
    out = [[None] * k for _ in range(n)]
    for j in range(k):
        wmin = None
        for i in range(n):
            x = cols[i][j]
            if x.kind == sc.REG and (wmin is None or x.w < wmin):
                wmin = x.w
        if wmin is not None and integral:
            wmin -= wmin % e
        if not wmin:
            for i in range(n):
                out[i][j] = cols[i][j]
            continue
        s = pi_power(field, -wmin)
        for i in range(n):
            out[i][j] = sc_mul(s, cols[i][j])
    return out


def mat_is_zero(m, min_bound) -> bool:
    """Every entry certified to vanish to valuation at least min_bound."""
    for row in m:
        for x in row:
            if not sc.sc_certified_zero(x, min_bound):
                return False
    return True


def zero_status(m, min_bound) -> str:
    """'zero' when every entry vanishes to min_bound; 'nonzero' when some
    entry is certified nonzero; 'shallow' when the matrix is zero to within
    precision but the bound is not deep enough (retry at higher precision)."""
    shallow = False
    for row in m:
        for x in row:
            if x.kind == sc.REG:
                return "nonzero"
            if not sc.sc_certified_zero(x, min_bound):
                shallow = True
    return "shallow" if shallow else "zero"


def _field_of(m):
    for row in m:
        for x in row:
            return x.field
    raise ValueError("empty matrix has no field")
