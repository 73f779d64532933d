"""Cross-level scalar conversions and unramified embeddings."""

from __future__ import annotations

from ..errors import PrecisionError, ValidationError
from .fp import fp_row_reduce
from .ring import int_valuation
from . import scalar as sc
from .scalar import Scalar
from .descriptors import UnramifiedFieldDescriptor

# p-adic digits at the top of a scalar's relative precision that a certified
# projection or descent leaves unchecked: a coordinate that must vanish is
# accepted once its valuation reaches relpi - SLACK (in units of p)
SLACK = 4


def coords_to_qp_scalars(x: Scalar, qp: UnramifiedFieldDescriptor):
    """Decompose a K_q scalar into f scalars over Q_p (the z-coordinates)."""
    F = x.field
    assert F.e == 1 and qp.f == 1 and qp.p == F.p
    outs = []
    if x.kind == sc.ZERO:
        return [sc.sc_zero(qp) for _ in range(F.f)]
    if x.kind == sc.IZERO:
        return [sc.sc_izero(qp, x.zw) for _ in range(F.f)]
    p = F.p
    for i in range(F.f):
        c = x.unit[i]
        if c == 0:
            outs.append(sc.sc_izero(qp, x.w + x.relpi))
        else:
            v = int_valuation(c, p)
            relpi = x.relpi - v
            if relpi <= 0:
                outs.append(sc.sc_izero(qp, x.w + x.relpi))
            else:
                outs.append(Scalar(qp, sc.REG, w=x.w + v,
                                   unit=(c // p ** v % p ** qp.prec,),
                                   relpi=min(relpi, qp.prec)))
    return outs


def embed_qp(x: Scalar, target) -> Scalar:
    """Embed a Q_p-level scalar into any level over the same p."""
    F = x.field
    assert F.f == 1 and F.e == 1
    if x.kind == sc.ZERO:
        return sc.sc_zero(target)
    if x.kind == sc.IZERO:
        return sc.sc_izero(target, target.e * x.zw)
    ring = target.ring
    unit = [0] * ring.dim
    unit[0] = x.unit[0] % ring.pn
    return Scalar(target, sc.REG, w=target.e * x.w, unit=tuple(unit),
                  relpi=min(target.e * x.relpi, target.relpi_max))


def project_to_base(x: Scalar, base: UnramifiedFieldDescriptor) -> Scalar:
    """Project a scalar known to lie in a subfield back to that level;
    certified.  base is the base of an Eisenstein level, or Q_p under an
    unramified one: the coordinates z^i u^0 with i < base.f are kept, and
    every other coordinate must vanish at working precision.

    An izero bound zw/e of the finer level becomes ceil(zw/e) at the base:
    base valuations are integers, so a value of valuation >= zw/e that lies
    in the base has valuation >= ceil(zw/e).
    """
    entry = (None if x.kind == sc.ZERO else (x.zw, None, 0)
             if x.kind == sc.IZERO else (x.w, x.unit, x.relpi))
    return sc.kernel(base).scalar(project_entry(entry, x.field, base))


def project_entry(x, L, base):
    """``project_to_base`` on a raw entry of L whose unit is the ring's
    coefficient tuple (as at every level but Q_p): a raw entry of base."""
    if x is None:
        return None
    e = L.e
    w, u, relpi = x
    if u is None:
        return -(-w // e), None, 0
    if w % e:
        raise ValidationError("fractional valuation cannot live in the base")
    p = L.p
    thresh = max(relpi - SLACK * e, L.floor_relpi)
    for k, c in enumerate(u):
        i, j = divmod(k, e)
        if c and (j or i >= base.f) and e * int_valuation(c, p) + j < thresh:
            raise PrecisionError(
                "scalar does not descend to the base at working precision")
    unit = tuple(u[i * e] % p ** base.prec for i in range(base.f))
    if all(c == 0 for c in unit):
        return -(-(w + relpi) // e), None, 0
    v0 = min(int_valuation(c, p) for c in unit if c)
    if v0 > 0:
        unit = tuple(c // p ** v0 for c in unit)
    relp = (relpi // e) - v0
    if relp < base.floor_relpi:
        raise PrecisionError("projection lost all meaningful digits")
    return sc.kernel(base).reg(w // e + v0, unit, min(relp, base.prec))


class UnramifiedEmbedding:
    """K_q -> K_{q^s}: the Teichmuller generator goes to the first power of
    the big generator that is a root of the small modulus."""

    def __init__(self, small: UnramifiedFieldDescriptor,
                 big: UnramifiedFieldDescriptor):
        assert small.p == big.p and big.f % small.f == 0
        assert small.prec == big.prec
        self.small = small
        self.big = big
        ring = big.ring
        step = (big.q - 1) // (small.q - 1)
        base = ring.pow(ring.gen_z(), step)
        w = None
        cand = ring.one()
        for t in range(small.q - 1):
            if t > 0:
                cand = ring.mul(cand, base)
            acc = ring.zero()
            xp = ring.one()
            for c in small.modulus:
                acc = ring.add(acc, ring.scalar_mul(c, xp))
                xp = ring.mul(xp, cand)
            if ring.val_pi(acc) is None:
                w = cand
                break
        if w is None:
            raise ValidationError("no compatible root of the small modulus found")
        pw = [ring.one()]
        for _ in range(small.f - 1):
            pw.append(ring.mul(pw[-1], w))
        self.gen_powers = tuple(pw)

    def __call__(self, x: Scalar) -> Scalar:
        big = self.big
        if x.kind == sc.ZERO:
            return sc.sc_zero(big)
        if x.kind == sc.IZERO:
            return sc.sc_izero(big, x.zw)
        return Scalar(big, sc.REG, w=x.w,
                      unit=_combine(big.ring, self.gen_powers, x.unit),
                      relpi=min(x.relpi, big.prec))

    def pull_back(self, y: Scalar) -> Scalar:
        """Inverse on the image, certified by solving the coordinate system."""
        small, big = self.small, self.big
        if y.kind == sc.ZERO:
            return sc.sc_zero(small)
        if y.kind == sc.IZERO:
            return sc.sc_izero(small, y.zw)
        pn = big.ring.pn
        k = small.f
        # solve sum_i c_i * gen_powers[i] == unit (mod p^N) for integers c_i:
        # the gen_powers reduce to independent vectors mod p, so every one of
        # the k columns takes a unit pivot
        aug = [list(row) + [t] for row, t in zip(zip(*self.gen_powers), y.unit)]
        rows, piv = fp_row_reduce(aug, big.p, pn, k)
        if len(piv) < k:
            raise PrecisionError("element does not descend along the embedding")
        unit = tuple(row[k] for row in rows[:k])
        resid = big.ring.sub(y.unit, _combine(big.ring, self.gen_powers, unit))
        v = big.ring.val_pi(resid)
        if v is not None and v < max(y.relpi - SLACK, 1):
            raise PrecisionError("descent residual too large")
        return Scalar(small, sc.REG, w=y.w, unit=unit,
                      relpi=min(y.relpi, small.prec))


def _combine(ring, gens, coeffs):
    acc = ring.zero()
    for g, c in zip(gens, coeffs):
        if c:
            acc = ring.add(acc, ring.scalar_mul(c, g))
    return acc

