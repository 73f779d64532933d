"""Hensel lifting and polynomial utilities over the quotient rings.

Polynomials are lists of TowerRing elements in ascending degree, at any tower
level.  hensel_lift_pair is the one polynomial Hensel lift: it lifts a
factorization that is coprime mod pi, with residue-field (F_q) coefficients,
on raw ring tuples to the ring's cap pi^(e*N), together with the Bezout
cofactors.  How many of those digits an inexact input certifies is the
caller's business (see isocrystal.slopes).  The arithmetic stays at the
ring's fixed modulus p^N throughout.

Every polynomial handled here is short: the slope split's factors and
cofactors have at most deg F + 1 coefficients, and find_unramified_modulus
works with degree-f ring elements only.  So rp_mul is the schoolbook product,
one compiled TowerRing.mul per pair of coefficients; packing each polynomial
into one integer (Kronecker substitution) costs more than it saves at these
lengths.
"""

from __future__ import annotations

from itertools import product as iproduct

from .fp import fp_is_primitive, fq_inverse
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
        G = rp_mul(ring, G, [ring.neg(w), ring.one()])
        w = ring.pow(w, p)
    # the conjugates' symmetric functions are Frobenius-fixed: rational
    assert not any(any(c[1:]) for c in G), "modulus coefficients are not rational"
    return tuple(c[0] for c in G)


# -- polynomials over a TowerRing ------------------------------------------------


def rp_add(ring, a, b):
    n = max(len(a), len(b))
    z = ring.zero()
    return [ring.add(a[i] if i < len(a) else z, b[i] if i < len(b) else z)
            for i in range(n)]


def rp_sub(ring, a, b):
    n = max(len(a), len(b))
    z = ring.zero()
    return [ring.sub(a[i] if i < len(a) else z, b[i] if i < len(b) else z)
            for i in range(n)]


def rp_mul(ring, a, b):
    """Product of two polynomials over ``ring``: one ring.mul per pair of
    coefficients, summed by degree with ring.add."""
    if not a or not b:
        return []
    mul, add = ring.mul, ring.add
    last = b[-1]
    out = [mul(a[0], y) for y in b]
    for i in range(1, len(a)):
        x = a[i]
        for j, y in enumerate(b[:-1], i):
            out[j] = add(out[j], mul(x, y))
        out.append(mul(x, last))
    return out


def rp_divmod_monic(ring, a, b):
    """Division by a monic b (leading coefficient literally one)."""
    a = list(a)
    nb = len(b)
    q = [ring.zero()] * max(len(a) - nb + 1, 0)
    for k in range(len(a) - nb, -1, -1):
        c = a[k + nb - 1]
        if any(c):
            q[k] = c
            for j in range(nb):
                a[k + j] = ring.sub(a[k + j], ring.mul(c, b[j]))
    return q, a[:nb - 1]


def _rp_fq_xgcd(ring, a, b):
    """Extended gcd of polynomials over the residue field F_q (coefficients as
    ring elements with only the u^0 slots set, reduced mod p).  Returns
    (gcd, s, t) with gcd monic."""
    p = ring.p

    def red(poly):
        poly = [tuple(c % p for c in coeff) for coeff in poly]
        while poly and all(c == 0 for c in poly[-1]):
            poly.pop()
        return poly

    def fq_inv(coeff):
        e = ring.e
        vec = [coeff[i * e] for i in range(ring.f)]
        inv = fq_inverse(vec, [c % p for c in ring.modulus], p)
        out = [0] * ring.dim
        for i in range(ring.f):
            out[i * e] = inv[i]
        return tuple(out)

    def divmod_(x, y):
        # divide by the monic c*y, then scale the quotient back by c
        c = fq_inv(y[-1])
        q, r = rp_divmod_monic(ring, x, red([ring.mul(d, c) for d in y]))
        return red([ring.mul(v, c) for v in q]), red(r)

    def mul_(x, y):
        return red(rp_mul(ring, x, y))

    def sub_(x, y):
        return red(rp_sub(ring, x, y))

    r0, r1 = red(a), red(b)
    s0, s1 = [ring.one()], []
    t0, t1 = [], [ring.one()]
    while r1:
        q, rem = divmod_(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub_(s0, mul_(q, s1))
        t0, t1 = t1, sub_(t0, mul_(q, t1))
    c = fq_inv(r0[-1])
    return tuple(red([ring.mul(x, c) for x in poly]) for poly in (r0, s0, t0))


def hensel_lift_pair(ring, F, g0, h0):
    """Lift a factorization F = g0*h0 mod pi, coprime mod pi, to mod pi^(e*N).

    F, g0, h0 monic (leading coefficient one); g0 and h0 have residue-field
    coefficients.  Returns (g, h, s, t): g, h monic with F = g*h in the ring
    and g = g0, h = h0 mod pi, and s*g + t*h = 1 in the ring with
    deg s < deg h and deg t < deg g.  Quadratic iteration with Bezout update
    (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 15), at the ring's
    fixed modulus p^N.
    """
    one = [ring.one()]
    _gcd, s, t = _rp_fq_xgcd(ring, g0, h0)
    if len(_gcd) != 1:
        raise ValueError("factors are not coprime mod pi")
    g, h = list(g0), list(h0)
    total = ring.e * ring.prec
    k = 1
    while k < total:
        k = min(2 * k, total)
        e = rp_sub(ring, F, rp_mul(ring, g, h))
        q, r = rp_divmod_monic(ring, rp_mul(ring, s, e), h)
        g = rp_add(ring, g, rp_add(ring, rp_mul(ring, t, e), rp_mul(ring, q, g)))
        h = rp_add(ring, h, r)
        g = g[:len(g0)]
        h = h[:len(h0)]
        g[-1] = ring.one()
        h[-1] = ring.one()
        b = rp_sub(ring, rp_add(ring, rp_mul(ring, s, g), rp_mul(ring, t, h)), one)
        c, d = rp_divmod_monic(ring, rp_mul(ring, s, b), h)
        s = rp_sub(ring, s, d)
        t = rp_sub(ring, t, rp_add(ring, rp_mul(ring, t, b), rp_mul(ring, c, g)))
        # s g + t h = 1 mod pi^k and deg s < deg h, so t is 0 mod pi^k from
        # degree deg g on; dropping those terms keeps t from growing
        t = t[:len(g0) - 1]
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
