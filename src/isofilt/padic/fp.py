"""Modular primitives on plain ints: polynomials over the prime field F_p,
inverses in F_q = F_p[z]/(m), multiplicative orders, and Gauss-Jordan
elimination over Z/p^k.

Polynomials are lists of plain int coefficients in ascending degree.  The
fp_* polynomial helpers, fp_xgcd among them, return them reduced mod p,
without leading zeros; fq_inverse, built on fp_xgcd, returns a coefficient
vector of length f.  Each primitive has this one implementation: the
quotient rings (ring), the Hensel lift (hensel), the roots of unity of the
descriptors, the unramified embeddings (convert) and the modular character
tables (groups.characters) all call it, so this module imports nothing.
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


def fp_is_primitive(g, p) -> bool:
    """True when monic g of degree f >= 1 is irreducible over F_p with
    primitive roots, that is when x has order exactly q - 1 = p^f - 1 mod g:
    x^(q-1) = 1, and x^((q-1)/r) != 1 for each prime r | q - 1.  No
    reducible g passes, since there an order prime to p divides the lcm of
    p^d - 1 over the degrees d of g's factors, which is less than q - 1
    (Lidl-Niederreiter, Finite Fields, Thm 3.16)."""
    order = p ** (len(g) - 1) - 1
    if fp_powmod([0, 1], order, g, p) != [1]:
        return False
    m, r = order, 2
    while m > 1:
        if r * r > m:
            r = m  # what is left of m is prime
        if m % r == 0:
            if fp_powmod([0, 1], order // r, g, p) == [1]:
                return False
            while m % r == 0:
                m //= r
        r += 1
    return True


def fp_xgcd(a, b, p):
    """(g, s): g the monic gcd of a and b over F_p, not both zero mod p, and
    s with s a = g mod b, deg s < deg b - deg g.  Extended Euclid carrying
    the cofactor of a only; that of b is the exact quotient (g - s a) / b."""
    r0, r1 = fp_trim(a, p), fp_trim(b, p)
    if not r0 and not r1:
        raise ZeroDivisionError("gcd of two zero polynomials")
    s0, s1 = [1], []
    if len(r0) < len(r1):  # the first quotient is zero
        r0, r1, s0, s1 = r1, r0, [], [1]
    while r1:
        q, rem = fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
    c = pow(r0[-1], -1, p)
    return [x * c % p for x in r0], [x * c % p for x in s0]


def fq_inverse(a: list[int], m: list[int], p: int) -> list[int]:
    """Inverse of a nonzero element of F_p[z]/(m): the cofactor of a in
    fp_xgcd(a, m), as a coefficient vector of length f = deg m."""
    f = len(m) - 1
    if not fp_trim(a, p):
        raise ZeroDivisionError("zero in residue field")
    g, inv = fp_xgcd(a, m, p)
    if g != [1]:
        raise ZeroDivisionError("not invertible modulo m")
    return (inv + [0] * f)[:f]


def fp_order(a: int, p: int) -> int:
    """Multiplicative order of the unit a mod p."""
    x = a % p
    k = 1
    while x != 1:
        x = x * a % p
        k += 1
        if k > p:
            raise ValueError(f"{a} is not a unit mod {p}")
    return k


def fp_row_reduce(rows, p, mod=None, ncols=None):
    """Gauss-Jordan elimination over Z/mod, mod a power of the prime p
    (mod = p when omitted), on the first ncols columns (all by default).

    Each column takes as pivot the first remaining row whose entry is a unit
    (nonzero mod p); a column without one is skipped.  Pivot rows are scaled
    to 1 and the column is cleared in every other row, so columns past ncols
    carry the solution of an augmented system.  Returns (rows, pivot
    columns): the reduced rows, entries in [0, mod), pivot rows first.
    """
    mod = p if mod is None else mod
    rows = [[x % mod for x in row] for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, mod)
        top = rows[r] = [x * inv % mod for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(x - f * y) % mod for x, y in zip(row, top)]
        pivots.append(c)
    return rows, pivots
