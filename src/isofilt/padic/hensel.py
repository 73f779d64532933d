"""Hensel lifting and polynomial utilities over the quotient rings.

Polynomials are lists of TowerRing elements in ascending degree, at any tower
level.  hensel_lift_pair is the one polynomial Hensel lift: over a ring with
residue field F_p (f = 1), it lifts a factorization that is coprime mod pi,
on raw ring tuples to the ring's cap pi^(e*N), together with the Bezout
cofactors.  How many of those digits an inexact input certifies is the
caller's business (see isocrystal.slopes).  The arithmetic stays at the
ring's fixed modulus p^N throughout.

Every polynomial handled here is short: the slope split's factors and
cofactors have at most deg F + 1 coefficients.  So the two halves of each
quadratic step of hensel_lift_pair, rp_mul and rp_divmod_monic are
schoolbook straight-line code, one compiled kernel per ring layout and
operand lengths (TowerRing.kernel), and rp_add is one comprehension;
packing each polynomial into one integer (Kronecker substitution) costs more
than it saves at these lengths.
"""

from __future__ import annotations

from itertools import product as iproduct

from .fp import fp_divmod, fp_is_primitive, fp_mul, fp_sub, fp_xgcd
from .ring import TowerRing

# -- integer polynomial helpers ------------------------------------------------


def cyclotomic_int(n: int, _cache={}) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial over Z, ascending."""
    if n in _cache:
        return _cache[n]
    # (x^n - 1) / product of proper cyclotomic divisors, exact division over Z
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_exact_div(poly, cyclotomic_int(d))
    _cache[n] = poly
    return poly


def _int_poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


def find_unramified_modulus(p: int, f: int, prec: int) -> tuple[int, ...]:
    """Monic integral modulus for K_q, so that the generator z is a primitive
    (q-1)-st Teichmuller root and Frobenius is exactly z -> z^p.

    g is the lexicographically first monic irreducible degree-f polynomial
    mod p whose roots are primitive.  In Z_p[x]/(g) at p^N, Newton's
    iteration on x^q - x from z converges to the Teichmuller root w, and the
    modulus is prod_{i<f} (x - w^(p^i)): the unique monic lift of g dividing
    x^q - x (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 9).  Only
    degree-f ring elements occur."""
    if f == 1:
        return ((-1) % p ** prec, 1)
    q = p ** f
    g = next(g for g in ([*tail, 1] for tail in iproduct(range(p), repeat=f))
             if fp_is_primitive(g, p))
    ring = TowerRing(p, prec, tuple(g))
    w = ring.gen_z()
    # each step doubles the p-adic precision of the root, from p to p^N;
    # q w^(q-1) - 1 = -1 mod p is a unit
    for _ in range((prec - 1).bit_length()):
        v = ring.pow(w, q - 1)
        step = ring.mul(ring.sub(ring.mul(v, w), w),
                        ring.inv_unit(ring.sub(ring.scalar_mul(q, v), ring.one())))
        w = ring.sub(w, step)
    G = [ring.one()]
    for _ in range(f):
        # G (x - w), coefficient by coefficient
        G = [ring.sub(c, ring.mul(w, d))
             for c, d in zip([ring.zero()] + G, G + [ring.zero()])]
        w = ring.pow(w, p)
    # the conjugates' symmetric functions are Frobenius-fixed: rational
    assert not any(any(c[1:]) for c in G), "modulus coefficients are not rational"
    return tuple(c[0] for c in G)


# -- polynomials over a TowerRing ------------------------------------------------


def rp_add(ring, a, b):
    """Sum of two polynomials over ``ring``, coefficient by coefficient."""
    if len(a) < len(b):
        a, b = b, a
    pn = ring.pn
    return [tuple([(s + t) % pn for s, t in zip(x, y)])
            for x, y in zip(a, b)] + a[len(b):]


def rp_mul(ring, a, b):
    """Product of two polynomials over ``ring``: one compiled kernel call,
    the longer operand first."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    return ring.kernel("poly_mul", len(a), len(b))(a, b, ring.pn)


def rp_divmod_monic(ring, a, b):
    """(quotient, remainder) of a by b, whose leading coefficient is
    literally one: one compiled kernel call."""
    if len(a) < len(b):
        return [], list(a)
    return ring.kernel("divmod", len(a), len(b))(a, b, ring.pn)


def hensel_lift_pair(ring, F, g0, h0):
    """Lift a factorization F = g0*h0 mod pi, coprime mod pi, to mod pi^(e*N).

    The ring has f = 1, so its residue field is F_p: the slope split's rings
    Z_p[t]/(t^b - p) are.  F, g0, h0 monic (leading coefficient one), deg F
    = deg g0 + deg h0; g0 and h0 have F_p coefficients.  Returns (g, h, s,
    t): g, h monic with F = g*h in the ring and g = g0, h = h0 mod pi, and
    s*g + t*h = 1 in the ring, s and t of deg h and deg g coefficients.  The
    lift starts from the Bezout cofactors mod p of fp_xgcd, unique under
    those degree bounds, and runs quadratic steps with Bezout update (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 15), two compiled kernels
    for the ring's layout and the factors' lengths, at the ring's fixed
    modulus p^N.
    """
    if ring.f != 1:
        raise ValueError("hensel_lift_pair needs a residue field F_p (f = 1)")
    if len(F) != len(g0) + len(h0) - 1:
        raise ValueError("deg F is not deg g0 + deg h0")
    p, a, b = ring.p, [c[0] for c in g0], [c[0] for c in h0]
    gcd, s = fp_xgcd(a, b, p)
    if gcd != [1]:
        raise ValueError("factors are not coprime mod pi")
    t = fp_divmod(fp_sub([1], fp_mul(s, a, p), p), b, p)[0]
    zero = [ring.zero()]
    s = [ring.from_int(c) for c in s] + zero * (len(h0) - 1 - len(s))
    t = [ring.from_int(c) for c in t] + zero * (len(g0) - 1 - len(t))
    factors = ring.kernel("hensel_factors", len(g0), len(h0))
    cofactors = ring.kernel("hensel_cofactors", len(g0), len(h0))
    g, h = list(g0), list(h0)
    # each step doubles the pi-adic precision, from pi to the cap pi^(eN)
    for _ in range((ring.e * ring.prec - 1).bit_length()):
        g, h = factors(F, g, h, s, t, ring.pn)
        s, t = cofactors(g, h, s, t, ring.pn)
    return g, h, s, t


# -- integer square roots -------------------------------------------------------


def sqrt_mod_ppow(a: int, p: int, prec: int) -> int:
    """A square root of the unit a modulo p^prec; raises if none exists."""
    a %= p ** prec
    if a % p == 0:
        raise ValueError("not a unit")
    if p == 2:
        if prec <= 1:
            return 1
        if a % min(8, 2 ** prec) != 1 % min(8, 2 ** prec):
            raise ValueError("not a square in Z_2")
        x = 1
        k = 3
        while k < prec:
            # x odd, x^2 = a mod 2^k; correct the next bit
            t = (((a - x * x) >> k) & 1)
            x = (x + (t << (k - 1))) % (1 << prec)
            k += 1
        return x % (1 << prec)
    # p odd: find a root mod p by scanning (desk-scale p), then Newton
    r = None
    for c in range(1, p):
        if (c * c) % p == a % p:
            r = c
            break
    if r is None:
        raise ValueError("not a square mod p")
    x = r
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        pk = p ** k
        inv = pow(2 * x, -1, pk)
        x = (x - (x * x - a) * inv) % pk
    return x
