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

``linalg`` eliminates, multiplies matrices and takes characteristic
polynomials at every level on raw entries (w, unit, relpi), by the rules of
sc_add, sc_mul, sc_neg and sc_inv below: the unit is a plain int where the
ring is Z/p^N (f = e = 1) and the ring's coefficient tuple elsewhere.
``tests/test_scalar.py`` pins that both give the same results, entry for
entry and error for error.
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


def sc_reg(field, w: int, unit, relpi: int) -> Scalar:
    if relpi < field.floor_relpi:
        raise PrecisionError(
            f"result precision {relpi} pi-digits below floor {field.floor_relpi}")
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


def sc_neg(x: Scalar) -> Scalar:
    if x.kind != REG:
        return x
    return Scalar(x.field, REG, w=x.w, unit=x.field.ring.neg(x.unit),
                  relpi=x.relpi)


def sc_add(x: Scalar, y: Scalar) -> Scalar:
    F = x.field
    e = F.e
    if x.kind == ZERO:
        return y
    if y.kind == ZERO:
        return x
    if x.kind == IZERO and y.kind == IZERO:
        return sc_izero(F, min(x.zw, y.zw))
    if x.kind == IZERO or y.kind == IZERO:
        iz, r = (x, y) if x.kind == IZERO else (y, x)
        if r.w >= iz.zw:
            return sc_izero(F, iz.zw)
        return sc_reg(F, r.w, r.unit, min(r.relpi, iz.zw - r.w))
    if y.w < x.w:
        x, y = y, x
    ring = F.ring
    dpi = y.w - x.w
    m = min(x.relpi, dpi + y.relpi)
    b1 = x.w % e
    shifted = ring.shift_up(y.unit, dpi)
    if e > 1 and y.w % e < b1:
        # the literal u-power of the shift overflowed by u^e = p*c0
        shifted = ring.mul(shifted, ring.c0_inv())
        m = min(m, e * (F.prec - 1))
    s = ring.add(x.unit, shifted)
    w = ring.val_pi(s)
    if w is None or w >= m:
        return sc_izero(F, x.w + m)
    unit = ring.divide_pi_exact(s, w)
    a, b = divmod(w, e)
    if e > 1 and b1 + b >= e:
        unit = ring.mul(unit, ring.c0())
        m = min(m, w + e * (F.prec - 1))
    relpi = min(m - w, e * (F.prec - a - b))
    if F.floor_relpi <= relpi <= 0:
        # no digit of the unit is left: only the valuation is certified
        return sc_izero(F, x.w + w)
    return sc_reg(F, x.w + w, unit, relpi)


def sc_sub(x: Scalar, y: Scalar) -> Scalar:
    return sc_add(x, sc_neg(y))


def sc_mul(x: Scalar, y: Scalar) -> Scalar:
    F = x.field
    if x.kind == ZERO or y.kind == ZERO:
        return sc_zero(F)
    if x.kind == IZERO and y.kind == IZERO:
        return sc_izero(F, x.zw + y.zw)
    if x.kind == IZERO:
        return sc_izero(F, x.zw + y.w)
    if y.kind == IZERO:
        return sc_izero(F, y.zw + x.w)
    e = F.e
    unit = F.ring.mul(x.unit, y.unit)
    relpi = min(x.relpi, y.relpi)
    if e > 1 and x.w % e + y.w % e >= e:
        unit = F.ring.mul(unit, F.ring.c0())
        relpi = min(relpi, e * (F.prec - 1))
    return sc_reg(F, x.w + y.w, unit, relpi)


def sc_inv(x: Scalar) -> Scalar:
    if x.kind == ZERO:
        raise ZeroDivisionError("inverting exact zero")
    if x.kind == IZERO:
        raise PrecisionError("inverting a scalar indistinguishable from zero")
    F = x.field
    e = F.e
    unit = F.ring.inv_unit(x.unit)
    relpi = x.relpi
    if e > 1 and x.w % e:
        unit = F.ring.mul(unit, F.ring.c0_inv())
        relpi = min(relpi, e * (F.prec - 1))
    return sc_reg(F, -x.w, unit, relpi)


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
    F = x.field
    if n == 0:
        return sc_from_int(F, 1)
    if n < 0:
        return sc_pow(sc_inv(x), -n)
    r = sc_from_int(F, 1)
    b = x
    while n:
        if n & 1:
            r = sc_mul(r, b)
        b = sc_mul(b, b)
        n >>= 1
    return r


def sc_certified_zero(x: Scalar, min_bound) -> bool:
    """True when x is known to vanish to valuation at least min_bound."""
    if x.kind == ZERO:
        return True
    if x.kind == IZERO:
        return x.zw >= math.ceil(min_bound * x.field.e)
    return False
