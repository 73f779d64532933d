"""Capped-relative-precision scalars over a tower level.

A scalar is one of three kinds:

* ``zero``   -- an exact zero (rational 0 embedded, or a structural zero);
* ``izero``  -- indistinguishable from zero at the working precision: all we
  know is that its valuation is >= ``zb``;
* ``reg``    -- pi^(e*val) * unit with the valuation *exact* (a Fraction with
  denominator dividing e) and the unit known to ``relpi`` pi-adic digits.

Valuations of ``reg`` scalars are never approximations: the monomial-basis
representation makes the valuation of a nonzero residue class exact, so the
only fuzziness capped precision introduces is the izero state and the relpi
budget.  Arithmetic raises PrecisionError rather than returning a reg scalar
whose meaningful digits fell below the descriptor's floor.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PrecisionError
from .ring import int_valuation

ZERO = "zero"
IZERO = "izero"
REG = "reg"


class Scalar:
    __slots__ = ("field", "kind", "val", "unit", "relpi", "zb")

    def __init__(self, field, kind, val=None, unit=None, relpi=0, zb=None):
        self.field = field
        self.kind = kind
        self.val = val
        self.unit = unit
        self.relpi = relpi
        self.zb = zb

    def __repr__(self):
        if self.kind == ZERO:
            return "Scalar(0)"
        if self.kind == IZERO:
            return f"Scalar(O(pi^{self.zb}*e))"
        return f"Scalar(v={self.val}, relpi={self.relpi})"


def sc_zero(field) -> Scalar:
    return Scalar(field, ZERO)


def sc_izero(field, zb: Fraction) -> Scalar:
    return Scalar(field, IZERO, zb=Fraction(zb))


def sc_reg(field, val: Fraction, unit, relpi: int) -> Scalar:
    if relpi < field.floor_relpi:
        raise PrecisionError(
            f"result precision {relpi} pi-digits below floor {field.floor_relpi}")
    return Scalar(field, REG, val=Fraction(val), unit=unit, relpi=relpi)


def sc_from_fraction(field, q) -> Scalar:
    q = Fraction(q)
    if q == 0:
        return sc_zero(field)
    p = field.p
    ring = field.ring
    vn = int_valuation(q.numerator, p)
    vd = int_valuation(q.denominator, p)
    un = q.numerator // p ** vn
    ud = q.denominator // p ** vd
    unit = ring.from_int(un)
    if ud != 1:
        unit = ring.mul(unit, ring.inv_unit(ring.from_int(ud)))
    return Scalar(field, REG, val=Fraction(vn - vd), unit=unit,
                  relpi=field.relpi_max)


def sc_from_int(field, n: int) -> Scalar:
    return sc_from_fraction(field, Fraction(n))


def sc_neg(x: Scalar) -> Scalar:
    if x.kind != REG:
        return x
    return Scalar(x.field, REG, val=x.val, unit=x.field.ring.neg(x.unit),
                  relpi=x.relpi)


def _b_part(val: Fraction, e: int) -> int:
    w = val * e
    return int(w) % e


def sc_add(x: Scalar, y: Scalar) -> Scalar:
    F = x.field
    e = F.e
    if x.kind == ZERO:
        return y
    if y.kind == ZERO:
        return x
    if x.kind == IZERO and y.kind == IZERO:
        return sc_izero(F, min(x.zb, y.zb))
    if x.kind == IZERO or y.kind == IZERO:
        iz, r = (x, y) if x.kind == IZERO else (y, x)
        if r.val >= iz.zb:
            return sc_izero(F, iz.zb)
        cap = int((iz.zb - r.val) * e)
        return sc_reg(F, r.val, r.unit, min(r.relpi, cap))
    if y.val < x.val:
        x, y = y, x
    ring = F.ring
    dpi = int((y.val - x.val) * e)
    m = min(x.relpi, dpi + y.relpi)
    b1 = _b_part(x.val, e)
    b2 = _b_part(y.val, e)
    shifted = ring.shift_up(y.unit, dpi)
    if e > 1 and b2 < b1:
        # the literal u-power of the shift overflowed by u^e = p*c0
        shifted = ring.mul(shifted, ring.c0_inv())
        m = min(m, e * (F.prec - 1))
    s = ring.add(x.unit, shifted)
    w = ring.val_pi(s)
    if w is None or w >= m:
        return sc_izero(F, x.val + Fraction(m, e))
    unit = ring.divide_pi_exact(s, w)
    a, b = divmod(w, e)
    if e > 1 and b1 + b >= e:
        unit = ring.mul(unit, ring.c0())
        m = min(m, w + e * (F.prec - 1))
    cap = e * (F.prec - a - b)
    return sc_reg(F, x.val + Fraction(w, e), unit, min(m - w, cap))


def sc_sub(x: Scalar, y: Scalar) -> Scalar:
    return sc_add(x, sc_neg(y))


def sc_mul(x: Scalar, y: Scalar) -> Scalar:
    F = x.field
    if x.kind == ZERO or y.kind == ZERO:
        return sc_zero(F)
    if x.kind == IZERO and y.kind == IZERO:
        return sc_izero(F, x.zb + y.zb)
    if x.kind == IZERO:
        return sc_izero(F, x.zb + y.val)
    if y.kind == IZERO:
        return sc_izero(F, y.zb + x.val)
    e = F.e
    unit = F.ring.mul(x.unit, y.unit)
    relpi = min(x.relpi, y.relpi)
    if e > 1 and _b_part(x.val, e) + _b_part(y.val, e) >= e:
        unit = F.ring.mul(unit, F.ring.c0())
        relpi = min(relpi, e * (F.prec - 1))
    return sc_reg(F, x.val + y.val, unit, relpi)


def sc_inv(x: Scalar) -> Scalar:
    if x.kind == ZERO:
        raise ZeroDivisionError("inverting exact zero")
    if x.kind == IZERO:
        raise PrecisionError("inverting a scalar indistinguishable from zero")
    F = x.field
    e = F.e
    unit = F.ring.inv_unit(x.unit)
    relpi = x.relpi
    if e > 1 and _b_part(x.val, e) != 0:
        unit = F.ring.mul(unit, F.ring.c0_inv())
        relpi = min(relpi, e * (F.prec - 1))
    return sc_reg(F, -x.val, unit, relpi)


def sc_div(x: Scalar, y: Scalar) -> Scalar:
    return sc_mul(x, sc_inv(y))


def sc_frobenius(x: Scalar) -> Scalar:
    """The lift z -> z^p of the residue Frobenius; fixes Q_p and pi."""
    if x.kind != REG:
        return x
    F = x.field
    return Scalar(F, REG, val=x.val, unit=F.ring.frobenius(x.unit),
                  relpi=x.relpi)


def sc_apply_aut(x: Scalar, aut) -> Scalar:
    """Apply a validated automorphism of the Eisenstein step (fixes the
    unramified base).  ``aut`` is a descriptor automorphism record."""
    if x.kind != REG:
        return x
    F = x.field
    ring = F.ring
    e = F.e
    w = x.val * e
    assert w.denominator == 1, "valuation denominator exceeds ramification"
    b = int(w) % e
    unit = ring.apply_u_map(x.unit, aut.upowers)
    if b:
        unit = ring.mul(unit, aut.tu_pow[b])
        relpi = min(x.relpi, e * (F.prec - 1))
    else:
        relpi = x.relpi
    return sc_reg(F, x.val, unit, relpi)


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


def sc_certified_zero(x: Scalar, min_bound: Fraction) -> bool:
    """True when x is known to vanish to valuation at least min_bound."""
    if x.kind == ZERO:
        return True
    if x.kind == IZERO:
        return x.zb >= min_bound
    return False
