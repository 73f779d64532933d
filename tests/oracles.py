"""Independent exact oracles used to cross-check the p-adic path.

Everything here works on Fractions with fraction-free elimination, or on
exact integer polynomials, and never touches the library's ring, scalar or
linalg layers -- except the three references and the last section below.
``scalar_neg``, ``scalar_add``, ``scalar_mul``, ``scalar_inv`` and
``scalar_dot`` are the arithmetic rules written on Scalars, a second copy of
the rules that ``scalar.kernel`` writes once on raw entries, and
``scalar_row_reduce`` is certified elimination by them, one inverse, product
and difference at a time; they pin the entries, pivots, certificates and
errors of the kernel and of ``linalg.certified_row_reduce``.
``scalar_lift`` and ``scalar_apply_aut`` are the lift to an Eisenstein step
and the action of its automorphisms on Scalars, which pin the step's raw
lift (``lift_rows``) and the kernel's tau rule (``apply_aut``).
``sampled_submodules_reference`` is the earlier sampled family, which
re-checked every candidate's stability and eliminated ker U and im U apart;
it pins the order and the entries of the family that the library now
certifies with fewer eliminations.  ``fraction_newton_polygon`` and
``fraction_root_valuations`` are the lower Newton polygon on Fraction
valuations, which pins the integer-exponent hull of ``isocrystal.slopes``:
its vertices, root valuations and PrecisionError messages.

The last section holds what only tests use of the library's own kind:
``base_change`` (a phi-module in another basis), ``galois_descend_reference``
(the invariants from all e * n candidates and one elimination, which pins the
block-wise ``galois_descend``), ``semi_abelian_reference``
(the toric section, inverse, slope and quotient built one fact at a time,
which pins the one-pass ``SemiAbelianPhiModule``), ``verify_invariant`` (the
diagonal-action invariance that ``galois_descend`` promises),
``validate_all_pairs`` (the action checked on every pair of elements, which
pins ``GroupRepresentation.validate`` on generator rows),
``orthogonality_check`` (first orthogonality of a character table, exact
over the cyclotomic integers) and the ``quaternion_rep`` fixture.
``rational_and_singular`` is the input loader's singularity test on
Fractions, which pins the integer elimination of
``formats._rational_and_singular``.
"""

from fractions import Fraction


def rational_rank(rows):
    """Rank over Q by fraction-free Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def rational_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def rational_matmul(a, b):
    n, k, mm = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(mm)]
            for i in range(n)]


def rational_charpoly(m):
    """det(xI - m) by exact Faddeev-LeVerrier, ascending coefficients."""
    n = len(m)
    A = [[Fraction(x) for x in row] for row in m]
    cs = []
    cur = [row[:] for row in A]
    for k in range(1, n + 1):
        ck = -sum(cur[i][i] for i in range(n)) / k
        cs.append(ck)
        if k < n:
            for i in range(n):
                cur[i][i] += ck
            cur = rational_matmul(A, cur)
    # char poly x^n + cs[0] x^{n-1} + ... + cs[n-1]
    out = [Fraction(1)] + cs
    return list(reversed(out))


def vp(x, p) -> Fraction | None:
    """p-adic valuation of a rational, None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    w = 0
    while d % p == 0:
        d //= p
        w += 1
    return Fraction(v - w)


def rational_newton_slopes(coeffs, p):
    """Root valuations (ascending) with multiplicities from the lower Newton
    polygon of a rational-coefficient polynomial."""
    pts = []
    for i, c in enumerate(coeffs):
        v = vp(c, p)
        if v is not None:
            pts.append((i, v))
    hull = []
    for x, y in sorted(pts):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    out.sort()
    return out


def rational_kernel(rows):
    """Basis of the right kernel over Q (list of vectors)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    nr, nc = len(m), len(m[0])
    piv_cols = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    free = [c for c in range(nc) if c not in piv_cols]
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for rr, pc in enumerate(piv_cols):
            v[pc] = -m[rr][fc]
        basis.append(v)
    return basis


def rational_intersection_dim(a_cols, b_cols):
    """dim(colspan(a) ∩ colspan(b)) over Q."""
    ra = rational_rank([list(r) for r in zip(*a_cols)]) if a_cols and a_cols[0] else 0
    rb = rational_rank([list(r) for r in zip(*b_cols)]) if b_cols and b_cols[0] else 0
    if ra == 0 or rb == 0:
        return 0
    joined = [ra_row + rb_row for ra_row, rb_row in zip(a_cols, b_cols)]
    rab = rational_rank([list(r) for r in zip(*joined)])
    return ra + rb - rab


def tower_reduce(terms, m, E, pn):
    """Canonical residue of an integer polynomial in z, u modulo E(u), m(z)
    and pn = p^N.

    terms maps (i, j) to the integer coefficient of z^i u^j.  m lists the
    integer coefficients of the monic m(z) of degree f, ascending.  E lists
    those of the monic E(u) of degree e, each an ascending integer
    z-polynomial, or is None for e = 1.  Long division by E in u, then by m
    in z, in exact integers; one reduction mod pn at the end.  Returns the
    coefficient of z^i u^j (i < f, j < e) at index i*e + j, in [0, pn).
    """
    f = len(m) - 1
    e = 1 if E is None else len(E) - 1
    t = {k: c for k, c in terms.items() if c}
    top = max((j for _, j in t), default=0)
    if E is None and top:
        raise ValueError("u-terms without an Eisenstein polynomial")
    for j in range(top, e - 1, -1):
        for i in sorted(i for i, jj in list(t) if jj == j):
            c = t.pop((i, j))
            for k in range(e):  # u^j = u^(j-e) u^e, u^e = -sum E_k u^k
                for i2, d in enumerate(E[k]):
                    key = (i + i2, j - e + k)
                    t[key] = t.get(key, 0) - c * d
    top = max((i for i, _ in t), default=0)
    for i in range(top, f - 1, -1):
        for j in sorted(jj for ii, jj in list(t) if ii == i):
            c = t.pop((i, j))
            for i2 in range(f):  # z^i = z^(i-f) z^f, z^f = -sum m_k z^k
                key = (i - f + i2, j)
                t[key] = t.get(key, 0) - c * m[i2]
    return tuple(t.get((i, j), 0) % pn for i in range(f) for j in range(e))


def tower_poly_mul(a, b, m, E, pn):
    """Product of two polynomials whose coefficients are ring elements given
    as flat tuples (index i*e + j for z^i u^j), through tower_reduce."""
    f = len(m) - 1
    e = 1 if E is None else len(E) - 1
    out = []
    for k in range(len(a) + len(b) - 1):
        terms = {}
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            x, y = a[i], b[k - i]
            for s1 in range(f * e):
                for s2 in range(f * e):
                    if x[s1] and y[s2]:
                        key = (s1 // e + s2 // e, s1 % e + s2 % e)
                        terms[key] = terms.get(key, 0) + x[s1] * y[s2]
        out.append(tower_reduce(terms, m, E, pn))
    return out


def tower_poly_divmod_monic(a, b, m, E, pn):
    """Quotient and remainder of the polynomial a by the monic b (leading
    coefficient one), coefficients as flat tuples, by schoolbook long
    division in exact integers: each quotient coefficient is the current
    top coefficient mod pn, and its products with b come from
    tower_poly_mul.  The remainder has len(b) - 1 coefficients, or is a
    itself when a is shorter than b."""
    nb = len(b)
    if len(a) < nb:
        return [], [tuple(x) for x in a]
    a = [list(x) for x in a]
    q = [None] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = tuple(x % pn for x in a[k + nb - 1])
        q[k] = c
        for j in range(nb - 1):
            d = tower_poly_mul([c], [b[j]], m, E, pn)[0]
            a[k + j] = [x - y for x, y in zip(a[k + j], d)]
    return q, [tuple(x % pn for x in a[i]) for i in range(nb - 1)]


def tower_hensel_step(F, g, h, s, t, m, E, pn):
    """One quadratic Hensel step with Bezout update (von zur Gathen-Gerhard,
    Modern Computer Algebra, Algorithm 15.10) on polynomials with ring
    coefficients, through tower_poly_mul and tower_poly_divmod_monic and
    coefficientwise sums mod pn.  g and h are monic and keep their lengths,
    s and t keep theirs."""
    def mul(a, b):
        return tower_poly_mul(a, b, m, E, pn)

    def lin(*terms):
        # the signed sum of (sign, polynomial) terms, coefficient by coefficient
        n = max(len(p) for _, p in terms)
        return [tuple(sum(sign * p[k][i] for sign, p in terms if k < len(p)) % pn
                      for i in range(len(F[0])))
                for k in range(n)]

    one = (1,) + (0,) * (len(F[0]) - 1)
    e = lin((1, F), (-1, mul(g, h)))
    q, r = tower_poly_divmod_monic(mul(s, e), h, m, E, pn)
    g2 = lin((1, g), (1, mul(t, e)), (1, mul(q, g)))[:len(g) - 1] + [one]
    h2 = lin((1, h), (1, r))[:len(h) - 1] + [one]
    b = lin((1, mul(s, g2)), (1, mul(t, h2)), (-1, [one]))
    c, d = tower_poly_divmod_monic(mul(s, b), h2, m, E, pn)
    s2 = lin((1, s), (-1, d))
    t2 = lin((1, t), (-1, mul(t, b)), (-1, mul(c, g2)))[:len(t)]
    return g2, h2, s2, t2


# -- the arithmetic rules and the elimination on Scalars ------------------------------
#
# The rules of ``scalar.kernel`` written a second way, one Scalar at a time:
# the c0 and c0^-1 corrections of a wrapped u-power, every relpi cap and
# every floor error.  Only the constructors of ``isofilt.padic.scalar`` are
# used, so the kernel is compared against an independent copy.


def scalar_neg(x):
    from isofilt.padic import scalar as sc

    if x.kind != sc.REG:
        return x
    return sc.Scalar(x.field, sc.REG, w=x.w, unit=x.field.ring.neg(x.unit),
                     relpi=x.relpi)


def scalar_add(x, y):
    from isofilt.padic import scalar as sc

    F = x.field
    e = F.e
    if x.kind == sc.ZERO:
        return y
    if y.kind == sc.ZERO:
        return x
    if x.kind == sc.IZERO and y.kind == sc.IZERO:
        return sc.sc_izero(F, min(x.zw, y.zw))
    if x.kind == sc.IZERO or y.kind == sc.IZERO:
        iz, r = (x, y) if x.kind == sc.IZERO else (y, x)
        if r.w >= iz.zw:
            return sc.sc_izero(F, iz.zw)
        return sc.sc_reg(F, r.w, r.unit, min(r.relpi, iz.zw - r.w))
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
        return sc.sc_izero(F, x.w + m)
    unit = ring.divide_pi_exact(s, w)
    a, b = divmod(w, e)
    if e > 1 and b1 + b >= e:
        unit = ring.mul(unit, ring.c0())
        m = min(m, w + e * (F.prec - 1))
    relpi = min(m - w, e * (F.prec - a - b))
    if F.floor_relpi <= relpi <= 0:
        # no digit of the unit is left: only the valuation is certified
        return sc.sc_izero(F, x.w + w)
    return sc.sc_reg(F, x.w + w, unit, relpi)


def scalar_sub(x, y):
    return scalar_add(x, scalar_neg(y))


def scalar_mul(x, y):
    from isofilt.padic import scalar as sc

    F = x.field
    if x.kind == sc.ZERO or y.kind == sc.ZERO:
        return sc.sc_zero(F)
    if x.kind == sc.IZERO and y.kind == sc.IZERO:
        return sc.sc_izero(F, x.zw + y.zw)
    if x.kind == sc.IZERO:
        return sc.sc_izero(F, x.zw + y.w)
    if y.kind == sc.IZERO:
        return sc.sc_izero(F, y.zw + x.w)
    e = F.e
    unit = F.ring.mul(x.unit, y.unit)
    relpi = min(x.relpi, y.relpi)
    if e > 1 and x.w % e + y.w % e >= e:
        unit = F.ring.mul(unit, F.ring.c0())
        relpi = min(relpi, e * (F.prec - 1))
    return sc.sc_reg(F, x.w + y.w, unit, relpi)


def scalar_inv(x):
    from isofilt.errors import PrecisionError
    from isofilt.padic import scalar as sc

    if x.kind == sc.ZERO:
        raise ZeroDivisionError("inverting exact zero")
    if x.kind == sc.IZERO:
        raise PrecisionError("inverting a scalar indistinguishable from zero")
    F = x.field
    e = F.e
    unit = F.ring.inv_unit(x.unit)
    relpi = x.relpi
    if e > 1 and x.w % e:
        unit = F.ring.mul(unit, F.ring.c0_inv())
        relpi = min(relpi, e * (F.prec - 1))
    return sc.sc_reg(F, -x.w, unit, relpi)


def scalar_lift(ext, x):
    """x, a scalar of the base level, lifted to the Eisenstein step ext: the
    valuation, an izero bound and relpi scale by e, and the coordinate of
    z^i moves to the slot of z^i u^0."""
    from isofilt.errors import ValidationError
    from isofilt.padic import scalar as sc

    if x.field is not ext.base and x.field != ext.base:
        raise ValidationError("scalar is not at the base level")
    if x.kind == sc.ZERO:
        return sc.sc_zero(ext)
    if x.kind == sc.IZERO:
        return sc.sc_izero(ext, ext.e * x.zw)
    unit = [0] * (ext.f * ext.e)
    unit[::ext.e] = x.unit
    return sc.Scalar(ext, sc.REG, w=ext.e * x.w, unit=tuple(unit),
                     relpi=min(ext.e * x.relpi, ext.relpi_max))


def scalar_apply_aut(x, aut):
    """A validated automorphism of the Eisenstein step (a descriptor
    record) on x: u goes to its image T in the unit, and the u-power
    b = w mod e of a valuation, when nonzero, brings in (T/u)^b, capping
    relpi at e(N - 1)."""
    from isofilt.padic import scalar as sc

    if x.kind != sc.REG:
        return x
    F = x.field
    e = F.e
    b = x.w % e
    unit = F.ring.apply_u_map(x.unit, aut.upowers)
    relpi = x.relpi
    if b:
        unit = F.ring.mul(unit, aut.tu_pow[b])
        relpi = min(relpi, e * (F.prec - 1))
    return sc.sc_reg(F, x.w, unit, relpi)


def scalar_dot(xs, ys, field):
    """sum of x*y over the pairs, folded left to right; the exact zero of
    the field when no pair has two nonzero entries.  A product with an exact
    zero is zero and adding it returns the sum unchanged, so it is skipped."""
    from functools import reduce
    from isofilt.padic import scalar as sc

    terms = (scalar_mul(x, y) for x, y in zip(xs, ys)
             if x.kind != sc.ZERO and y.kind != sc.ZERO)
    first = next(terms, None)
    return sc.sc_zero(field) if first is None else reduce(scalar_add, terms, first)


def scalar_row_reduce(m, guard, reduced):
    """certified_row_reduce(m, guard, reduced) on Scalars by the rules above,
    at any level; m is not empty."""
    from isofilt.errors import PrecisionError
    from isofilt.padic import scalar as sc
    from isofilt.padic.linalg import (RankCertificate, _RESIDUAL_MESSAGE,
                                      _pivot_message)

    field = m[0][0].field
    rows = [list(r) for r in m]
    nr, nc = len(rows), len(rows[0])
    pivot_cols = []
    pivot_ws = []
    r = 0
    for c in range(nc):
        best = None
        for i in range(r, nr):
            x = rows[i][c]
            if x.kind == sc.REG and (best is None or x.w < rows[best][c].w):
                best = i
        if best is None:
            continue
        piv = rows[best][c]
        if piv.relpi < guard:
            raise PrecisionError(_pivot_message(c, piv.relpi, guard))
        rows[r], rows[best] = rows[best], rows[r]
        inv = scalar_inv(piv)
        rows[r] = [scalar_mul(inv, x) for x in rows[r]]
        lo = 0 if reduced else r + 1
        for i in range(lo, nr):
            if i == r:
                continue
            factor = rows[i][c]
            if factor.kind == sc.ZERO:
                continue
            # y - factor * 0 is y
            rows[i] = [y if z.kind == sc.ZERO else scalar_sub(y, scalar_mul(factor, z))
                       for y, z in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        pivot_ws.append(piv.w)
        r += 1
        if r == nr:
            break
    residual_zw = None
    for i in range(r, nr):
        for x in rows[i]:
            if x.kind == sc.IZERO:
                residual_zw = x.zw if residual_zw is None else min(residual_zw, x.zw)
            elif x.kind == sc.REG:
                # unreachable: every remaining reg entry would have produced
                # a pivot in its column
                raise PrecisionError(_RESIDUAL_MESSAGE)
    cert = RankCertificate(r, pivot_ws, guard, residual_zw, field.e)
    return rows[:r] if reduced else rows, pivot_cols, cert


# -- the earlier sampled family -------------------------------------------------------


def sampled_submodules_reference(D, seed, budget):
    """The subspaces of the earlier sampled_submodules(D, seed, budget), in
    order: every candidate is checked with D.is_stable before its key."""
    import random
    from itertools import combinations

    from isofilt.errors import PrecisionError
    from isofilt.padic import linalg as la
    from isofilt.isocrystal.slopes import isoclinic_decompose
    from isofilt.isocrystal.submodules import (
        _canonical_key, _concat_cols, _random_combination, endomorphism_algebra)

    def kernel_cols(U):
        if U is None:
            return None
        try:
            ker = la.kernel_basis(U)
        except PrecisionError:
            return None
        if not ker:
            return [[] for _ in range(D.n)]
        return [[v[i] for v in ker] for i in range(D.n)]

    def image_cols(U):
        if U is None:
            return None
        try:
            return la.column_space_basis(U)
        except PrecisionError:
            return None

    def phi_span(cols):
        try:
            cur = la.column_space_basis(cols)
            for _ in range(D.n + 1):
                r = len(cur[0]) if cur and cur[0] else 0
                if r == 0:
                    return cur
                nxt = la.column_space_basis(la.hstack(cur, D.apply_phi(cur)))
                if len(nxt[0]) == r:
                    return nxt
                cur = nxt
        except PrecisionError:
            return None
        return cur

    comps = isoclinic_decompose(D)
    rng = random.Random(seed)
    subs = []
    seen = set()

    def push(cols):
        key = _canonical_key(cols)
        if key in seen:
            return False
        seen.add(key)
        subs.append(cols)
        return True

    k = len(comps)
    for r in range(k + 1):
        for pick in combinations(range(k), r):
            push(_concat_cols(D, [comps[i][1] for i in pick]))
    endo = endomorphism_algebra(D)
    tries = 0
    while tries < budget:
        tries += 1
        U = _random_combination(D.field, endo, rng)
        cands = [kernel_cols(U), image_cols(U)]
        w = [[D.field.scalar(rng.randrange(-9, 10))] for _ in range(D.n)]
        if U is not None:
            w = la.mat_mul(U, w)
        cands.append(phi_span(w))
        for cand in cands:
            if cand is None:
                continue
            d = len(cand[0]) if cand and cand[0] else 0
            if d in (0, D.n):
                continue
            if D.is_stable(cand):
                push(cand)
    return subs


# -- the Newton polygon on Fractions --------------------------------------------------


def fraction_newton_polygon(points, uncertain=None):
    """Lower convex hull of exact points (i, v), v a Fraction valuation;
    verifies that every uncertain point (i, lower bound) lies on or above
    the hull.  Returns the hull vertices left to right; raises the
    PrecisionError of ``slopes.lower_newton_polygon``."""
    from isofilt.errors import PrecisionError
    hull = []
    for x, y in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    for x, b in (uncertain or []):
        hv = _hull_value_at(hull, x)
        if hv is None:
            raise PrecisionError(
                f"Newton polygon endpoint at {x} not certified")
        if b < hv:
            raise PrecisionError(
                f"Newton polygon vertex ambiguous: coefficient {x} only known "
                f"to vanish to valuation {b} < hull {hv}")
    return hull


def _hull_value_at(hull, x):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return y1 + Fraction(y2 - y1, 1) * Fraction(x - x1, x2 - x1)
    return None


def fraction_root_valuations(hull):
    """[(root valuation, multiplicity)] from Fraction hull vertices, in
    ascending order of valuation."""
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    out.sort()
    return out


# -- references and fixtures that only tests use ----------------------------------


def base_change(D, P):
    """The phi-module of D in the basis P: A -> P^{-1} A sigma(P)."""
    from isofilt.isocrystal.module import PhiModule
    from isofilt.padic import linalg as la
    return PhiModule(D.field, la.mat_mul(la.mat_inverse(P),
                                         la.mat_mul(D.A, la.mat_frobenius(P))),
                     validate=False)


def semi_abelian_reference(D, T):
    """(S, [T | S]^-1, T's slope, D_B's Frobenius) for the toric columns T
    of D, built one fact at a time: T completed greedily by standard
    vectors, one certified rank per candidate; the inverse by
    ``linalg.mat_inverse``; T's slope when ``is_stable`` holds, from the
    solve A sigma(T) = T C; D_B's Frobenius as [T | S]^-1 A sigma(S) below
    row t.  With t = 0 the section and inverse are identities."""
    from isofilt.errors import ValidationError
    from isofilt.isocrystal.module import PhiModule
    from isofilt.isocrystal.slopes import newton_slopes
    from isofilt.padic import linalg as la
    F, n, t = D.field, D.n, len(T[0]) if T else 0

    def std(idx):
        return [[F.one() if i == j else F.zero() for j in idx]
                for i in range(n)]

    chosen = []
    for j in range(n if t else 0):
        if la.certified_rank(la.transpose(la.hstack(T, std(chosen + [j])))) \
                == t + len(chosen) + 1:
            chosen.append(j)
        if t + len(chosen) == n:
            break
    if t and t + len(chosen) != n:
        raise ValidationError("could not complete toric basis")
    S = std(chosen) if t else la.identity(F, n)
    inv = la.mat_inverse(la.hstack(T, S)) if t else la.identity(F, n)
    slope = None
    if t and D.is_stable(T):
        C = PhiModule(F, la.solve_right(T, D.apply_phi(T)), validate=False)
        pairs = newton_slopes(C).pairs
        slope = pairs[0][0] if len(pairs) == 1 else None
    return S, inv, slope, la.mat_mul(inv, D.apply_phi(S))[t:]


def lift_reference(ext, m):
    """m lifted to ext entry by entry (``scalar_lift``)."""
    return [[scalar_lift(ext, x) for x in row] for row in m]


def galois_apply(setup, name, cols):
    """The automorphism called name applied to cols entry by entry
    (``scalar_apply_aut``)."""
    rec = setup.ext.automorphisms[name]
    return [[scalar_apply_aut(x, rec) for x in row] for row in cols]


def galois_descend_reference(rep, setup):
    """The invariants of the diagonal action as ``galois_descend`` found
    them from all e * n candidates: M_alpha = sum_h tau_h^{-1}(alpha) rho(h)
    for alpha = 1, pi, ..., pi^(e-1) by ``mat_lincomb``, the candidates
    column j of every M_alpha for j = 0, 1, ..., each scaled by an integral
    power of p, and the pivot columns of one elimination of all of them."""
    from isofilt.errors import PrecisionError
    from isofilt.padic import linalg as la

    ext, n = setup.ext, rep.dim
    alphas = [ext.one()]
    for _ in range(ext.e - 1):
        alphas.append(scalar_mul(alphas[-1], ext.uniformizer()))
    elems = range(setup.group.n)
    recs = [ext.automorphisms[setup.table_inverse(setup.aut_of(x))]
            for x in elems]
    rhos = [lift_reference(ext, rep.mats[x]) for x in elems]
    sums = [la.mat_lincomb([scalar_apply_aut(alpha, rec) for rec in recs],
                           rhos) for alpha in alphas]
    cands = la.normalize_columns(
        [[M[r][j] for j in range(n) for M in sums] for r in range(n)],
        integral=True)
    basis = la.column_space_basis(cands)
    if la.mat_dims(basis)[1] != n:
        raise PrecisionError(f"descent produced {la.mat_dims(basis)[1]} "
                             f"independent invariants, expected {n}")
    return basis


def verify_invariant(rep, setup, cols) -> bool:
    """Each column is fixed by the diagonal action
    d_h(v) = rho(h) * tau_{corr(h)}^{-1}(v), certified.

    With the opposite-group table convention (the Galois group is the
    opposite of G) this is a left action, and d_h-invariance of a subspace is
    literally the statement rho(h) F = tau_{corr(h)} F for every h.
    """
    from isofilt.padic import linalg as la
    thr = la.relation_threshold(rep.field)
    for x in range(setup.group.n):
        name = setup.table_inverse(setup.aut_of(x))
        moved = la.mat_mul(lift_reference(setup.ext, rep.mats[x]),
                           galois_apply(setup, name, cols))
        if la.zero_status(la.mat_sub(moved, cols), thr) == "nonzero":
            return False
    return True


def validate_all_pairs(rep, phi_module=None, gram=None, toric_cols=None):
    """The action checked element by element: the table on all |G|^2
    products, faithfulness when declared, and phi-commutation, the pairing
    and the toric part for every element.  Raises ValidationError naming
    the first failure; True otherwise."""
    from isofilt.errors import ValidationError
    from isofilt.padic import linalg as la
    thr = la.relation_threshold(rep.field)
    G, mats = rep.group, rep.mats
    ident = la.identity(rep.field, rep.dim)
    for a in range(G.n):
        for b in range(G.n):
            if not la.mat_mul_sub_is_zero(mats[a], mats[b],
                                          mats[G.table[a][b]], thr):
                raise ValidationError(f"representation breaks the table at "
                                      f"({G.names[a]}, {G.names[b]})")
    if rep.faithful:
        for a in range(G.n):
            if a != G.identity and la.mat_is_zero(la.mat_sub(mats[a], ident),
                                                  thr):
                raise ValidationError("declared faithful but kernel is "
                                      "nontrivial")
    for a in range(G.n):
        m = mats[a]
        if phi_module is not None:
            A = phi_module.A
            rhs = la.mat_mul(A, la.mat_frobenius(m))
            if not la.mat_mul_sub_is_zero(m, A, rhs, thr):
                raise ValidationError(f"element {G.names[a]} does not "
                                      f"phi-commute")
        if gram is not None and not la.mat_mul_sub_is_zero(
                la.transpose(m), la.mat_mul(gram, m), gram, thr):
            raise ValidationError(f"element {G.names[a]} is not compatible "
                                  f"with the pairing")
        if toric_cols and toric_cols[0] and not la.subspace_leq(
                la.mat_mul(m, toric_cols), toric_cols):
            raise ValidationError(f"element {G.names[a]} does not preserve "
                                  f"the toric part")
    return True


def orthogonality_check(ct) -> bool:
    """First orthogonality of a CharacterTable over the cyclotomic integers
    (exact): sum_c |c| chi(c) conj(chi(c)) = |G| for every irreducible chi,
    on the eigenvalue multiplicity vectors of the table."""
    e = ct.e
    for chi in range(ct.k):
        acc = [0] * e
        for c in range(ct.r):
            # conj(chi(c)) = chi(c^{-1}): multiply the multiplicity vectors
            prod = _cyc_mul(ct.mult[chi][c], ct.mult[chi][ct.inverse_class(c)], e)
            for j in range(e):
                acc[j] += ct.class_sizes[c] * prod[j]
        val = _cyc_reduce(acc, e)
        want = [0] * len(val)
        want[0] = ct.group.n
        if list(val) != want:
            return False
    return True


def _cyc_mul(a, b, e):
    """Product of two vectors on 1, zeta_e, ..., zeta_e^{e-1}."""
    out = [0] * e
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % e] += x * y
    return out


def _cyc_reduce(vec, e):
    """Reduce a vector on 1, zeta, ..., zeta^{e-1} modulo the e-th cyclotomic
    polynomial, returning phi(e) rational-integer coordinates."""
    from isofilt.padic.hensel import cyclotomic_int
    phi = cyclotomic_int(e)
    deg = len(phi) - 1
    out = list(vec)
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            for j in range(deg + 1):
                out[k - deg + j] -= c * phi[j]
            out[k] = 0
    return tuple(out[:deg])


def quaternion_rep(field):
    """Q8 acting on the supersingular module over Q_4, by the pair of
    ``fixtures.quaternion_pair``."""
    from isofilt.fixtures import quaternion_pair
    from isofilt.groups.constructions import quaternion
    from isofilt.groups.core import GroupRepresentation
    X, Y = quaternion_pair(field)
    return GroupRepresentation.from_generator_matrices(
        quaternion(), field, {"i": X, "j": Y})


def rational_and_singular(doc) -> bool:
    """True when doc is a square matrix of rational numbers (JSON numbers or
    strings that Fraction reads) with determinant zero, decided by Gaussian
    elimination on Fractions; False for anything else."""
    if not isinstance(doc, list) or not all(
            isinstance(row, list) and len(row) == len(doc)
            and all(isinstance(x, (str, int, float)) for x in row)
            for row in doc):
        return False
    try:
        m = [[Fraction(x) for x in row] for row in doc]
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return True
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return False
