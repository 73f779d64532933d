"""Capped-relative-precision scalars over a tower level.

A scalar is one of three kinds:

* ``zero``   -- an exact zero (rational 0 embedded, or a structural zero);
* ``izero``  -- indistinguishable from zero at the working precision: all we
  know is that its valuation is >= ``zw``/e;
* ``reg``    -- p^a * u^b * unit with (a, b) = divmod(w, e): valuation exactly
  w/e, the unit known to ``relpi`` pi-adic digits.

Valuations are stored as integer pi-exponents, ``w`` for a reg scalar and
``zw`` for an izero bound, so the arithmetic below is integer arithmetic
only; ``val`` = w/e and ``zb`` = zw/e are read-only Fraction views for
callers that compare across levels or print.  The unit convention is the
literal u-power of the monomial basis: a product or sum whose u-power b
wraps past e absorbs u^e = p * c0 into its unit (the c0 and c0^-1
corrections), at the cost of the digit of c0 that p^N cannot hold.

Every scalar of a level with ramification e has its valuation in (1/e)Z.
So an izero bound that arrives off that lattice -- from a finer level, as in
``convert.project_to_base``, or from a JSON document -- is rounded up,
zw = ceil(zb * e), and stays sound: a nonzero value of valuation >= zb has
valuation >= ceil(zb * e)/e.

Valuations of ``reg`` scalars are never approximations: the monomial-basis
representation makes the valuation of a nonzero residue class exact, so the
only fuzziness capped precision introduces is the izero state and the relpi
budget.  Arithmetic raises PrecisionError rather than returning a reg scalar
whose meaningful digits fell below the descriptor's floor.

The arithmetic rules are written once, here, on raw entries: ``None`` for an
exact zero, ``(zw, None, 0)`` for an izero and ``(w, u, relpi)`` for a reg
scalar, the unit u a plain int in [0, p^N) where the ring is Z/p^N (f = e = 1,
Q_p itself) and the ring's coefficient tuple at every other level.
``kernel(field)`` is the level's rule set: negation, inverse, sum, the fused
product-and-sum that every product goes through, and the dot fold.  sc_neg,
sc_add, sc_mul and sc_inv apply it to one entry each; ``linalg`` applies it
to whole matrices and builds Scalars only for what its caller receives.
``tests/oracles.py`` keeps the same rules written on Scalars as the
reference the tests compare against, entry for entry and error for error.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import PrecisionError
from .ring import int_valuation

ZERO = "zero"
IZERO = "izero"
REG = "reg"


class Scalar:
    __slots__ = ("field", "kind", "w", "unit", "relpi", "zw")

    def __init__(self, field, kind, w=None, unit=None, relpi=0, zw=None):
        self.field = field
        self.kind = kind
        self.w = w
        self.unit = unit
        self.relpi = relpi
        self.zw = zw

    @property
    def val(self):
        """The exact valuation w/e of a reg scalar (None otherwise)."""
        return None if self.w is None else Fraction(self.w, self.field.e)

    @property
    def zb(self):
        """The valuation bound zw/e of an izero scalar (None otherwise)."""
        return None if self.zw is None else Fraction(self.zw, self.field.e)

    def __repr__(self):
        if self.kind == ZERO:
            return "Scalar(0)"
        if self.kind == IZERO:
            return f"Scalar(O(pi^{self.zw}))"
        return f"Scalar(v={self.val}, relpi={self.relpi})"


def sc_zero(field) -> Scalar:
    return Scalar(field, ZERO)


def sc_izero(field, zw: int) -> Scalar:
    return Scalar(field, IZERO, zw=zw)


def _below_floor(relpi, floor):
    return PrecisionError(f"result precision {relpi} pi-digits below floor {floor}")


def sc_reg(field, w: int, unit, relpi: int) -> Scalar:
    if relpi < field.floor_relpi:
        raise _below_floor(relpi, field.floor_relpi)
    return Scalar(field, REG, w=w, unit=unit, relpi=relpi)


def sc_from_fraction(field, q) -> Scalar:
    # an int is its own numerator: no Fraction is built for it
    num, den = (q, 1) if type(q) is int else Fraction(q).as_integer_ratio()
    if num == 0:
        return sc_zero(field)
    p = field.p
    ring = field.ring
    vn = int_valuation(num, p)
    vd = int_valuation(den, p)
    un = num // p ** vn
    ud = den // p ** vd
    unit = ring.from_int(un)
    if ud != 1:
        unit = ring.mul(unit, ring.inv_unit(ring.from_int(ud)))
    return Scalar(field, REG, w=field.e * (vn - vd), unit=unit,
                  relpi=field.relpi_max)


def sc_from_int(field, n: int) -> Scalar:
    return sc_from_fraction(field, Fraction(n))


# -- the rules, on raw entries --------------------------------------------------------


def kernel(field):
    """The arithmetic rules of the level, built once per descriptor."""
    k = field.raw_kernel
    if k is None:
        k = field.raw_kernel = (_ZpKernel if field.ring.dim == 1 else _TowerKernel)(field)
    return k


class _Kernel:
    """What the rules share at every level: the izero cases of a sum and the
    dot fold.  A subclass picks the unit arithmetic and the entry format."""

    __slots__ = ("field", "ring", "p", "pn", "prec", "e", "floor", "one")

    def __init__(self, field):
        ring = field.ring
        self.field, self.ring = field, ring
        self.p, self.pn, self.prec, self.e = ring.p, ring.pn, ring.prec, ring.e
        self.floor = field.floor_relpi
        self.one = self.entry(field.one())

    def _add_izero(self, aw, au, ar, tw, tu, tr):
        """The sum of raw entries, at least one of them an izero."""
        if au is None and tu is None:
            return (aw if aw < tw else tw), None, 0
        zw, rw, ru, rr = (aw, tw, tu, tr) if au is None else (tw, aw, au, ar)
        if rw >= zw:
            return zw, None, 0
        relpi = rr if rr < zw - rw else zw - rw
        if relpi < self.floor:
            raise _below_floor(relpi, self.floor)
        return rw, ru, relpi

    def dot(self, xs, ys):
        """sum of x*y over the pairs, folded left to right; None when no pair
        has two nonzero entries.  A product with an exact zero is zero and
        adding it leaves the sum unchanged, so it is skipped."""
        fma = self.fma
        acc = None
        for x, y in zip(xs, ys):
            if x is not None and y is not None:
                acc = fma(acc, x, y)
        return acc

    def reg(self, w, unit, relpi):
        """sc_reg on raw entries: unit is the ring's coefficient tuple."""
        if relpi < self.floor:
            raise _below_floor(relpi, self.floor)
        return w, (unit[0] if self.ring.dim == 1 else unit), relpi

    def pow(self, x, n):
        """x^n by squaring, the products by fma, through x^-1 for n < 0; x
        is not an exact zero, nor an izero when n < 0."""
        if n < 0:
            x, n = self.inv(x), -n
        r = self.one
        while n:
            if n & 1:
                r = self.fma(None, r, x)
            x = self.fma(None, x, x)
            n >>= 1
        return r

    def encode_rows(self, m):
        return [list(map(self.entry, row)) for row in m]

    def decode_rows(self, m):
        return [list(map(self.scalar, row)) for row in m]


class _ZpKernel(_Kernel):
    """The e = 1 rules where the ring is Z/p^N: a unit is a plain int in
    [0, p^N)."""

    __slots__ = ()

    @staticmethod
    def entry(x):
        return ((x.w, x.unit[0], x.relpi) if x.kind == REG
                else (x.zw, None, 0) if x.kind == IZERO else None)

    def scalar(self, x):
        return (Scalar(self.field, ZERO) if x is None
                else Scalar(self.field, IZERO, None, None, 0, x[0]) if x[1] is None
                else Scalar(self.field, REG, x[0], (x[1],), x[2]))

    def neg(self, x):
        if x is None or x[1] is None:
            return x
        return x[0], -x[1] % self.pn, x[2]

    def inv(self, x):
        w, u, relpi = x
        if relpi < self.floor:
            raise _below_floor(relpi, self.floor)
        return -w, pow(u, -1, self.pn), relpi

    def add(self, acc, t):
        # fma(acc, t, one): a plain int product costs less than another call
        return acc if t is None else self.fma(acc, t, self.one)

    def fma(self, acc, x, y):
        """acc + x*y, the product and then the sum rule; acc is None for an
        exact zero, and x and y are not exact zeros."""
        xw, xu, xr = x
        yw, yu, yr = y
        tw = xw + yw
        if xu is None or yu is None:
            # an izero times a nonzero entry: the bounds add up
            tu, tr = None, 0
        else:
            tr = xr if xr < yr else yr
            if tr < self.floor:
                raise _below_floor(tr, self.floor)
            tu = xu * yu % self.pn
        if acc is None:
            return tw, tu, tr
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
            raise _below_floor(relpi, self.floor)
        return aw + v, s, relpi


class _TowerKernel(_Kernel):
    """The rules at every level but Z/p^N: a unit is the ring's coefficient
    tuple, and a u-power that wraps past e brings in c0 or c0^-1 and caps
    relpi at e(N - 1), the digit of c0 that p^N cannot hold.

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
    def entry(x):
        return ((x.w, x.unit, x.relpi) if x.kind == REG
                else (x.zw, None, 0) if x.kind == IZERO else None)

    def scalar(self, x):
        return (Scalar(self.field, ZERO) if x is None
                else Scalar(self.field, IZERO, None, None, 0, x[0]) if x[1] is None
                else Scalar(self.field, REG, x[0], x[1], x[2]))

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
            raise _below_floor(relpi, self.floor)
        return -w, u, relpi

    def fma(self, acc, x, y):
        """acc + x*y, the product and then the sum rule; acc is None for an
        exact zero, and x and y are not exact zeros."""
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
                raise _below_floor(tr, self.floor)
        return (tw, tu, tr) if acc is None else self._sum(acc, tw, tu, tr)

    def add(self, acc, t):
        """acc + t, after the floor check of t that the product t*1 makes:
        the sum is fma(acc, t, 1), as at Z/p^N, without the product by one."""
        if t is None:
            return acc
        if t[1] is not None and t[2] < self.floor:
            raise _below_floor(t[2], self.floor)
        return t if acc is None else self._sum(acc, *t)

    def _sum(self, acc, tw, tu, tr):
        """acc + t for raw t = (tw, tu, tr), neither of them None."""
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
                # the c0 correction caps m - v at e(N - 1), never below cap
                # below: b >= 1 makes cap = e(N - a - b) <= e(N - 1)
                s = ring.mul(s, self.c0)
            cap = e * (self.prec - a - b)
            relpi = m - v if m - v < cap else cap
            if self.floor <= relpi <= 0:
                # no digit of the unit is left: only the valuation is certified
                return aw + v, None, 0
        elif m > 0:
            relpi = m if m < self.top else self.top
        else:
            return aw + m, None, 0
        if relpi < self.floor:
            raise _below_floor(relpi, self.floor)
        return aw + v, s, relpi


# -- Scalar arithmetic: one entry through the rules ---------------------------------


def sc_neg(x: Scalar) -> Scalar:
    if x.kind != REG:
        return x
    k = kernel(x.field)
    return k.scalar(k.neg(k.entry(x)))


def sc_add(x: Scalar, y: Scalar) -> Scalar:
    if x.kind == ZERO:
        return y
    if y.kind == ZERO:
        return x
    k = kernel(x.field)
    return k.scalar(k.add(k.entry(x), k.entry(y)))


def sc_sub(x: Scalar, y: Scalar) -> Scalar:
    return sc_add(x, sc_neg(y))


def sc_mul(x: Scalar, y: Scalar) -> Scalar:
    if x.kind == ZERO or y.kind == ZERO:
        return sc_zero(x.field)
    k = kernel(x.field)
    return k.scalar(k.fma(None, k.entry(x), k.entry(y)))


def sc_inv(x: Scalar) -> Scalar:
    if x.kind == ZERO:
        raise ZeroDivisionError("inverting exact zero")
    if x.kind == IZERO:
        raise PrecisionError("inverting a scalar indistinguishable from zero")
    k = kernel(x.field)
    return k.scalar(k.inv(k.entry(x)))


def sc_div(x: Scalar, y: Scalar) -> Scalar:
    return sc_mul(x, sc_inv(y))


def sc_frobenius(x: Scalar) -> Scalar:
    """The lift z -> z^p of the residue Frobenius; fixes Q_p and pi, so it
    is the identity at f = 1."""
    F = x.field
    if x.kind != REG or F.ring.f == 1:
        return x
    return Scalar(F, REG, w=x.w, unit=F.ring.frobenius(x.unit),
                  relpi=x.relpi)


def sc_apply_aut(x: Scalar, aut) -> Scalar:
    """Apply a validated automorphism of the Eisenstein step (fixes the
    unramified base).  ``aut`` is a descriptor automorphism record."""
    if x.kind != REG:
        return x
    F = x.field
    ring = F.ring
    e = F.e
    b = x.w % e
    unit = ring.apply_u_map(x.unit, aut.upowers)
    if b:
        unit = ring.mul(unit, aut.tu_pow[b])
        relpi = min(x.relpi, e * (F.prec - 1))
    else:
        relpi = x.relpi
    return sc_reg(F, x.w, unit, relpi)


def sc_pow(x: Scalar, n: int) -> Scalar:
    if x.kind != REG and n < 0:
        return sc_inv(x)  # raises: an exact zero or an izero has no inverse
    if x.kind == ZERO:
        return sc_zero(x.field) if n else sc_from_int(x.field, 1)
    k = kernel(x.field)
    return k.scalar(k.pow(k.entry(x), n))


def sc_certified_zero(x: Scalar, min_bound) -> bool:
    """True when x is known to vanish to valuation at least min_bound."""
    if x.kind == ZERO:
        return True
    if x.kind == IZERO:
        return x.zw >= math.ceil(min_bound * x.field.e)
    return False
