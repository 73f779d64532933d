"""Polynomials over the prime field F_p and inverses in F_q = F_p[z]/(m).

Polynomials are lists of plain int coefficients in ascending degree.  The
fp_* helpers return them reduced mod p, without leading zeros; fq_inverse
returns a coefficient vector of length f.  Both the quotient rings (ring)
and the Hensel lift (hensel) use these, so they sit below both.
"""

from __future__ import annotations


def fp_trim(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % p
    return fp_trim(out, p)


def fp_divmod(a, b, p):
    a = fp_trim(a, p)
    b = fp_trim(b, p)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while a and len(a) >= len(b):
        c = (a[-1] * inv) % p
        k = len(a) - len(b)
        q[k] = c
        for j, d in enumerate(b):
            a[k + j] = (a[k + j] - c * d) % p
        a = fp_trim(a, p)
    return q, a


def fp_powmod(a, n, mod, p):
    r = [1]
    b = fp_divmod(a, mod, p)[1]
    while n:
        if n & 1:
            r = fp_divmod(fp_mul(r, b, p), mod, p)[1]
        b = fp_divmod(fp_mul(b, b, p), mod, p)[1]
        n >>= 1
    return r


def fp_sub(a, b, p):
    n = max(len(a), len(b))
    return fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                    for i in range(n)], p)


def fp_gcd(a, b, p):
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def fp_is_irreducible(g, p) -> bool:
    """Deterministic irreducibility test for monic g over F_p."""
    f = len(g) - 1
    if f <= 0:
        return False
    x = [0, 1]
    xq = x
    for _ in range(f):
        xq = fp_powmod(xq, p, g, p)
    if fp_sub(xq, x, p):
        return False  # x^(p^f) != x mod g
    # no factor of proper degree: gcd(x^(p^d) - x, g) trivial for d | f, d < f
    for d in range(1, f):
        if f % d == 0:
            xd = x
            for _ in range(d):
                xd = fp_powmod(xd, p, g, p)
            diff = fp_sub(xd, x, p)
            if not diff:
                return False
            if len(fp_gcd(diff, g, p)) > 1:
                return False
    return True


def fq_inverse(a: list[int], m: list[int], p: int) -> list[int]:
    """Inverse of a nonzero element of F_p[z]/(m), via extended Euclid."""
    f = len(m) - 1
    r0, r1 = fp_trim(m, p), fp_trim(a, p)
    if not r1:
        raise ZeroDivisionError("zero in residue field")
    s0, s1 = [], [1]
    while r1:
        q, rem = fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
    c = pow(r0[0], -1, p)
    inv = [(x * c) % p for x in s0]
    inv = inv + [0] * (f - len(inv))
    return inv[:f]
