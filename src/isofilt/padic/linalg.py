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

Elimination, matrix products, charpoly, Horner's evaluation of a polynomial
at a matrix and the relation test a*b - c = 0 run one raw kernel at every
level, on entries in place of Scalars: ``None`` for an exact zero,
``(zw, None, 0)`` for an izero and ``(w, u, relpi)`` for a reg scalar.  The
unit u is a plain int in [0, p^N) where the ring is Z/p^N (f = e = 1, Q_p
itself) and the ring's coefficient tuple at every other level.  The kernel
applies exactly the rules of sc_inv, sc_mul, sc_neg and sc_add, in the same
order -- the c0 and c0^-1 corrections of a wrapped u-power and every relpi
cap included -- so pivots, certificates, results and every PrecisionError
(message and step) are the ones Scalar arithmetic gives; ``tests/oracles.py``
keeps the elimination on Scalars as the reference the tests compare against.
Only what a caller receives is built as Scalars, and a rank, column-space
or relation decision builds none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

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


def dot(xs, ys, field):
    """sum of x*y over the pairs, folded left to right; the exact zero of
    the field when no pair has two nonzero entries.  A product with an exact
    zero is zero and adding it returns the sum unchanged, so it is skipped."""
    terms = (sc_mul(x, y) for x, y in zip(xs, ys)
             if x.kind != sc.ZERO and y.kind != sc.ZERO)
    first = next(terms, None)
    return sc_zero(field) if first is None else reduce(sc_add, terms, first)


def mat_mul(a, b):
    _, k = mat_dims(a)
    k2, _ = mat_dims(b)
    assert k == k2, "inner dimensions mismatch"
    if not k:
        return [[] for _ in a]
    raw = _Raw.of(a[0][0].field)
    rcols = raw.encode_rows(zip(*b))
    return raw.decode_rows([[raw.dot(row, col) for col in rcols]
                            for row in raw.encode_rows(a)])


def mat_mul_sub_is_zero(a, b, c, min_bound) -> bool:
    """``mat_is_zero(mat_sub(mat_mul(a, b), c), min_bound)`` on raw entries:
    the dot fold, then sc_sub, then sc_certified_zero; no Scalar is built."""
    raw = _Raw.of(_field_of(c))
    zw = math.ceil(min_bound * raw.e)
    rcols = raw.encode_rows(zip(*b))
    add, neg = raw.add, raw.neg
    for row, crow in zip(raw.encode_rows(a), raw.encode_rows(c)):
        for col, z in zip(rcols, crow):
            d = add(raw.dot(row, col), neg(z))
            if d is not None and (d[1] is not None or d[0] < zw):
                return False
    return True


def mat_lincomb(coeffs, mats):
    """The fold of ``mat_add`` over the ``mat_scalar`` terms c*M from the
    left, as one fma fold per entry on raw entries; a zero coefficient adds
    nothing.  Each entry sees the Scalar fold's operations, so the result is
    its result, and a PrecisionError is raised exactly when it raises one,
    though perhaps first at another entry."""
    raw = _Raw.of(_field_of(mats[0]))
    fma = raw.fma
    acc = [[None] * len(row) for row in mats[0]]
    for c, m in zip(raw.encode_rows([coeffs])[0], mats):
        if c is None:
            continue
        for arow, mrow in zip(acc, raw.encode_rows(m)):
            for j, x in enumerate(mrow):
                if x is not None:
                    arow[j] = fma(arow[j], c, x)
    return raw.decode_rows(acc)


def mat_scalar(s, a):
    # s * 0 is an exact zero, and Scalars are never mutated
    return [[x if x.kind == sc.ZERO else sc_mul(s, x) for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


def mat_frobenius(a):
    return mat_map(a, sc.sc_frobenius)


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
    """
    if not m or not m[0]:
        return [] if rows else None, [], RankCertificate(0, [], guard, None, 1)
    raw = _Raw.of(_field_of(m))
    ech, pivot_cols, cert = raw.row_reduce(m, guard, reduced)
    return raw.decode_rows(ech) if rows else None, pivot_cols, cert


def _pivot_message(c, relpi, guard):
    return (f"pivot at column {c} has only {relpi} spare pi-digits "
            f"(guard {guard}); escalate precision")


_RESIDUAL_MESSAGE = "uncertified nonzero residual after elimination"


class _Raw:
    """The rules of sc_inv, sc_mul, sc_neg and sc_add on raw entries: None
    (exact zero), (zw, None, 0) (izero) or (w, u, relpi) (reg).  ``_Raw.of``
    picks the unit arithmetic of the level; elimination and the dot fold
    are shared."""

    __slots__ = ("field", "ring", "p", "pn", "prec", "e", "floor", "one")

    @staticmethod
    def of(field):
        """The kernel of the level, built once per descriptor (again if its
        floor was changed)."""
        kernel = field.raw_kernel
        if kernel is None or kernel.floor != field.floor_relpi:
            kernel = field.raw_kernel = (
                _ZpRaw if field.ring.dim == 1 else _TowerRaw)(field)
        return kernel

    def __init__(self, field):
        ring = field.ring
        self.field, self.ring = field, ring
        self.p, self.pn, self.prec, self.e = ring.p, ring.pn, ring.prec, ring.e
        self.floor = field.floor_relpi
        self.one = self.encode_rows([[field.one()]])[0][0]

    def _below_floor(self, relpi):
        # the message of sc_reg
        return PrecisionError(
            f"result precision {relpi} pi-digits below floor {self.floor}")

    def _add_izero(self, aw, au, ar, tw, tu, tr):
        """sc_add of raw entries, at least one of them an izero."""
        if au is None and tu is None:
            return (aw if aw < tw else tw), None, 0
        zw, rw, ru, rr = (aw, tw, tu, tr) if au is None else (tw, aw, au, ar)
        if rw >= zw:
            return zw, None, 0
        relpi = rr if rr < zw - rw else zw - rw
        if relpi < self.floor:
            raise self._below_floor(relpi)
        return rw, ru, relpi

    def dot(self, xs, ys):
        """The raw ``dot``: None when no pair has two nonzero entries."""
        fma = self.fma
        acc = None
        for x, y in zip(xs, ys):
            if x is not None and y is not None:
                acc = fma(acc, x, y)
        return acc

    def row_reduce(self, m, guard, reduced):
        """``scalar_row_reduce`` of tests/oracles.py on raw entries; returns
        raw rows."""
        fma, neg = self.fma, self.neg
        rows = self.encode_rows(m)
        nr, nc = len(rows), len(rows[0])
        pivot_cols = []
        pivot_ws = []
        r = 0
        for c in range(nc):
            best = None
            for i in range(r, nr):
                x = rows[i][c]
                if x is not None and x[1] is not None and (best is None or x[0] < bw):
                    best, bw = i, x[0]
            if best is None:
                continue
            piv = rows[best][c]
            if piv[2] < guard:
                raise PrecisionError(_pivot_message(c, piv[2], guard))
            rows[r], rows[best] = rows[best], rows[r]
            # sc_inv of the pivot, then sc_mul across its row
            inv = self.inv(piv)
            prow = rows[r] = [x if x is None else fma(None, inv, x) for x in rows[r]]
            lo = 0 if reduced else r + 1
            for i in range(lo, nr):
                if i == r:
                    continue
                factor = rows[i][c]
                if factor is None:
                    continue
                # y - factor * z as y + (-factor) * z: sc_neg commutes with
                # sc_mul, digits and floor check included
                nf = neg(factor)
                rows[i] = [y if z is None else fma(y, nf, z)
                           for y, z in zip(rows[i], prow)]
            pivot_cols.append(c)
            pivot_ws.append(piv[0])
            r += 1
            if r == nr:
                break
        residual_zw = None
        for i in range(r, nr):
            for x in rows[i]:
                if x is None:
                    continue
                if x[1] is not None:
                    raise PrecisionError(_RESIDUAL_MESSAGE)
                residual_zw = x[0] if residual_zw is None else min(residual_zw, x[0])
        cert = RankCertificate(r, pivot_ws, guard, residual_zw, self.e)
        return rows[:r] if reduced else rows, pivot_cols, cert


class _ZpRaw(_Raw):
    """The e = 1 rules where the ring is Z/p^N: a unit is a plain int in
    [0, p^N)."""

    __slots__ = ()

    @staticmethod
    def encode_rows(m):
        reg, izero = sc.REG, sc.IZERO
        return [[(x.w, x.unit[0], x.relpi) if x.kind == reg
                 else (x.zw, None, 0) if x.kind == izero else None
                 for x in row] for row in m]

    def decode_rows(self, m):
        F, reg, izero = self.field, sc.REG, sc.IZERO
        zero = Scalar(F, sc.ZERO)  # Scalars are never mutated: one serves all
        return [[zero if x is None
                 else Scalar(F, izero, None, None, 0, x[0]) if x[1] is None
                 else Scalar(F, reg, x[0], (x[1],), x[2])
                 for x in row] for row in m]

    def neg(self, x):
        if x is None or x[1] is None:
            return x
        return x[0], -x[1] % self.pn, x[2]

    def inv(self, x):
        w, u, relpi = x
        if relpi < self.floor:
            raise self._below_floor(relpi)
        return -w, pow(u, -1, self.pn), relpi

    def add(self, acc, t):
        # fma(acc, t, one): a plain int product costs less than another call
        return acc if t is None else self.fma(acc, t, self.one)

    def fma(self, acc, x, y):
        """sc_add(acc, sc_mul(x, y)), acc None for an exact zero; x and y
        are not exact zeros."""
        # t = sc_mul(x, y)
        xw, xu, xr = x
        yw, yu, yr = y
        tw = xw + yw
        if xu is None or yu is None:
            # an izero times a nonzero entry: the bounds add up
            tu, tr = None, 0
        else:
            tr = xr if xr < yr else yr
            if tr < self.floor:
                raise self._below_floor(tr)
            tu = xu * yu % self.pn
        if acc is None:
            return tw, tu, tr
        # sc_add(acc, t)
        aw, au, ar = acc
        if au is None or tu is None:
            return self._add_izero(aw, au, ar, tw, tu, tr)
        if tw < aw:
            aw, au, ar, tw, tu, tr = tw, tu, tr, aw, au, ar
        d = tw - aw
        m = ar if ar < d + tr else d + tr
        p, pn, prec = self.p, self.pn, self.prec
        s = (au + tu * p ** d) % pn if d else (au + tu) % pn
        if s % p:
            v = 0
        elif not s:
            return aw + m, None, 0
        else:
            v = 1
            s //= p
            while not s % p:
                s //= p
                v += 1
        if v >= m:
            return aw + m, None, 0
        relpi = m - v if m < prec else prec - v
        if relpi < self.floor:
            raise self._below_floor(relpi)
        return aw + v, s, relpi


class _TowerRaw(_Raw):
    """The rules at every level but Z/p^N: a unit is the ring's coefficient
    tuple, and a u-power that wraps past e brings in c0 or c0^-1 with the
    relpi caps of sc_add, sc_mul and sc_inv.

    The ring is exact mod p^N, so a unit is reached by any product that
    equals it there.  A product that wraps multiplies by x*c0 (remembered
    for the last x, which is fixed along a row update) instead of
    multiplying by x and then by c0, and a shifted addend that wraps is
    multiplied once by pi^d*c0^-1 (remembered per shift d)."""

    __slots__ = ("wrap_cap", "top", "unit_slots", "c0", "wrap_x", "wrap_xc0",
                 "shift_c0i")

    def __init__(self, field):
        super().__init__(field)
        ring = self.ring
        self.wrap_cap = self.e * (self.prec - 1)
        self.top = self.e * self.prec
        # the u^0 coefficients: a sum is a unit when one of them is
        self.unit_slots = tuple(range(0, ring.dim, self.e))
        self.c0 = ring.c0()
        self.wrap_x = self.wrap_xc0 = None
        self.shift_c0i = {}

    @staticmethod
    def encode_rows(m):
        reg, izero = sc.REG, sc.IZERO
        return [[(x.w, x.unit, x.relpi) if x.kind == reg
                 else (x.zw, None, 0) if x.kind == izero else None
                 for x in row] for row in m]

    def decode_rows(self, m):
        F, reg, izero = self.field, sc.REG, sc.IZERO
        zero = Scalar(F, sc.ZERO)
        return [[zero if x is None
                 else Scalar(F, izero, None, None, 0, x[0]) if x[1] is None
                 else Scalar(F, reg, x[0], x[1], x[2])
                 for x in row] for row in m]

    def neg(self, x):
        if x is None or x[1] is None:
            return x
        return x[0], self.ring.neg(x[1]), x[2]

    def inv(self, x):
        w, u, relpi = x
        ring = self.ring
        u = ring.inv_unit(u)
        if w % self.e:
            u = ring.mul(u, ring.c0_inv())
            if relpi > self.wrap_cap:
                relpi = self.wrap_cap
        if relpi < self.floor:
            raise self._below_floor(relpi)
        return -w, u, relpi

    def fma(self, acc, x, y):
        """sc_add(acc, sc_mul(x, y)), acc None for an exact zero; x and y
        are not exact zeros."""
        # t = sc_mul(x, y)
        xw, xu, xr = x
        yw, yu, yr = y
        tw = xw + yw
        e, ring = self.e, self.ring
        if xu is None or yu is None:
            tu, tr = None, 0
        else:
            tr = xr if xr < yr else yr
            if xw % e + yw % e >= e:
                if x is not self.wrap_x:
                    self.wrap_x, self.wrap_xc0 = x, ring.mul(xu, self.c0)
                tu = ring.mul(self.wrap_xc0, yu)
                if tr > self.wrap_cap:
                    tr = self.wrap_cap
            else:
                tu = ring.mul(xu, yu)
            if tr < self.floor:
                raise self._below_floor(tr)
        return (tw, tu, tr) if acc is None else self._sum(acc, tw, tu, tr)

    def add(self, acc, t):
        """sc_add(acc, t), after the floor check of t that sc_mul(t, 1) makes
        (``formats.scalar_from_json`` builds digit entries without one)."""
        if t is None:
            return acc
        if t[1] is not None and t[2] < self.floor:
            raise self._below_floor(t[2])
        return t if acc is None else self._sum(acc, *t)

    def _sum(self, acc, tw, tu, tr):
        """sc_add(acc, t) for raw t = (tw, tu, tr), neither of them None."""
        e, ring = self.e, self.ring
        aw, au, ar = acc
        if au is None or tu is None:
            return self._add_izero(aw, au, ar, tw, tu, tr)
        if tw < aw:
            aw, au, ar, tw, tu, tr = tw, tu, tr, aw, au, ar
        d = tw - aw
        m = ar if ar < d + tr else d + tr
        b1 = aw % e
        if d:
            if tw % e < b1:
                # the literal u-power of the shift overflowed by u^e = p*c0
                g = self.shift_c0i.get(d)
                if g is None:
                    g = self.shift_c0i[d] = ring.shift_up(ring.c0_inv(), d)
                tu = ring.mul(tu, g)
                if m > self.wrap_cap:
                    m = self.wrap_cap
            else:
                tu = ring.shift_up(tu, d)
        pn, p = self.pn, self.p
        s = tuple([(a + b) % pn for a, b in zip(au, tu)])
        for i in self.unit_slots:
            if s[i] % p:
                v = 0
                break
        else:
            v = ring.val_pi(s)
            if v is None or v >= m:
                return aw + m, None, 0
        if v:
            s = ring.divide_pi_exact(s, v)
            a, b = divmod(v, e)
            if b1 + b >= e:
                # sc_add also caps m - v at e(N - 1) here, never below cap
                # below: b >= 1 makes cap = e(N - a - b) <= e(N - 1)
                s = ring.mul(s, self.c0)
            cap = e * (self.prec - a - b)
            relpi = m - v if m - v < cap else cap
            if self.floor <= relpi <= 0:
                # sc_add's izero: no digit of the unit is left
                return aw + v, None, 0
        elif m > 0:
            relpi = m if m < self.top else self.top
        else:
            return aw + m, None, 0
        if relpi < self.floor:
            raise self._below_floor(relpi)
        return aw + v, s, relpi


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
    ech, pivot_cols, _ = certified_row_reduce(m, reduced=True)
    return kernel_from_echelon(_field_of(m), ech, pivot_cols, len(m[0]))


def kernel_from_echelon(field, ech, pivot_cols, nc):
    """Right kernel basis, as column vectors, from the reduced echelon form
    and pivot columns of a matrix with nc columns: one vector per free
    column, with an identity block there."""
    free = [c for c in range(nc) if c not in pivot_cols]
    basis = []
    for fc in free:
        vec = [sc_zero(field) for _ in range(nc)]
        vec[fc] = field.one()
        for r, pc in enumerate(pivot_cols):
            vec[pc] = sc_neg(ech[r][fc])
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
    raw = _Raw.of(_field_of(m))
    return raw.decode_rows([berkowitz(raw.encode_rows(m), raw.one, raw.neg,
                                      raw.dot)])[0]


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


def poly_eval_matrix(coeffs, m):
    """Evaluate a scalar-coefficient polynomial at a matrix, by Horner on
    raw rows: out*m by the dot fold, then c added on the diagonal by the
    sc_add rule; decoded once at the end."""
    raw = _Raw.of(_field_of(m))
    n = len(m)
    rcols = raw.encode_rows(zip(*m))
    out = [[None] * n for _ in range(n)]
    for (c,) in raw.encode_rows([[c] for c in reversed(coeffs)]):
        out = [[raw.dot(row, col) for col in rcols] for row in out]
        for i in range(n):
            out[i][i] = raw.add(out[i][i], c)
    return raw.decode_rows(out)


def pi_power(field, w: int) -> Scalar:
    """The scalar p^a * u^b with (a, b) = divmod(w, e): valuation w/e, unit
    one, full precision."""
    return Scalar(field, sc.REG, w=w, unit=field.ring.one(),
                  relpi=field.relpi_max)


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
