"""Newton slopes, isoclinic decomposition, slope factorization.

newton_slopes linearizes phi (matrix of phi^f), takes the characteristic
polynomial, and reads root valuations off the lower Newton polygon; slopes of
the module are those divided by f.  The polygon runs on the coefficients'
integer pi-exponents, so only the root valuations become Fractions.  The
characteristic polynomial of the linearization always has Q_p coefficients
(sigma conjugates B into itself), which is certified and exploited: slope
factors are computed over Q_p.

Slope factors are split off one at a time in the tame ring Z_p[t]/(t^b - p)
that makes the minimal root valuation integral: after the substitution
lambda = t^a * mu the wanted factor is the unit-root part and its mod-pi
reduction is coprime to the rest.  The coefficients go to raw ring tuples,
padic.hensel.hensel_lift_pair lifts the split there, and the factors come
back as raw entries, each coefficient certified to the precision that the
charpoly's own precision supports (see _hensel_split).  Kernels of the
factors evaluated at the linearization give the isoclinic pieces; these are
phi-stable because the factors have sigma-fixed coefficients.

Raw entries (``scalar.kernel``) flow from the charpoly to the components:
projection, factors, powers of t, Horner, kernel, stability and the
independence rank, each elimination through ``linalg.certified_row_reduce``
on ``linalg.Raw`` rows.  Scalars are built only for what leaves: the slope
factors, the component columns and the stored charpoly.

A PhiModule is never mutated, so ``newton_slopes`` and ``isoclinic_decompose``
store their first result on it and return it afterwards: the immutable
profile itself, and fresh copies of the column lists, which callers extend.
The linearization and its characteristic polynomial, which both of them and
``slope_factors`` read, are stored the same way, so each is computed once per
module.  A call that raises stores nothing, so it raises again on the next
call.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PrecisionError, ValidationError
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.descriptors import UnramifiedFieldDescriptor, EisensteinExtensionDescriptor
from ..padic.convert import project_entry, embed_qp
from ..padic.hensel import hensel_lift_pair, rp_add, rp_mul, rp_divmod_monic
from .module import PhiModule


class SlopeProfile:
    """Multiset of slopes with multiplicities."""

    def __init__(self, pairs):
        self.pairs = tuple(sorted(pairs))            # ((slope, mult), ...)

    def __eq__(self, other):
        return isinstance(other, SlopeProfile) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return " ".join(f"{s} x{m}" for s, m in self.pairs)

    @property
    def dim(self):
        return sum(m for _, m in self.pairs)

    def total(self) -> Fraction:
        return sum((Fraction(s) * m for s, m in self.pairs), Fraction(0))


def lower_newton_polygon(points, uncertain=None, e=1):
    """Lower convex hull of exact points (i, w), w an integer pi-exponent at
    ramification e (valuation w/e); verifies that every uncertain point
    (i, lower bound zw) lies on or above the hull.

    Returns the hull vertices left to right.  Raises PrecisionError when an
    uncertain point could cut below the hull.
    """
    pts = sorted(points)
    hull = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep hull lower-convex: drop middle point if not strictly below
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    for x, zw in (uncertain or []):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                break
        else:
            raise PrecisionError(
                f"Newton polygon endpoint at {x} not certified")
        # the hull at x is h / ((x2 - x1) e)
        h = y1 * (x2 - x1) + (y2 - y1) * (x - x1)
        if zw * (x2 - x1) < h:
            raise PrecisionError(
                f"Newton polygon vertex ambiguous: coefficient {x} only known "
                f"to vanish to valuation {Fraction(zw, e)} < hull "
                f"{Fraction(h, (x2 - x1) * e)}")
    return hull


def root_valuations_from_hull(hull, e=1):
    """[(root valuation, multiplicity)] from integer hull vertices at
    ramification e, ascending order of valuation (the segment nearest the
    leading coefficient carries the smallest root valuation)."""
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y1 - y2, (x2 - x1) * e), x2 - x1))
    out.sort()
    return out


def charpoly_points(coeffs):
    """Exact and uncertain (i, pi-exponent) data from raw coefficients
    (``scalar.kernel``): (i, w) for a reg coefficient, (i, zw) for an izero
    one."""
    exact, uncertain = [], []
    for i, c in enumerate(coeffs):
        if c is not None:  # exact zeros never constrain the hull
            (uncertain if c[1] is None else exact).append((i, c[0]))
    return exact, uncertain


def newton_slopes(D: PhiModule) -> SlopeProfile:
    """The slope profile of D, computed on the first call for D."""
    if D._slopes is None:
        D._slopes = _newton_slopes(D)
    return D._slopes


def _linearized_charpoly(D: PhiModule):
    """(B, chi): the linearization of D and its characteristic polynomial,
    computed on the first call for D."""
    if D._charpoly is None:
        B = D.linearization()
        D._charpoly = (B, la.charpoly(B))
    return D._charpoly


def _newton_slopes(D: PhiModule) -> SlopeProfile:
    _, chi = _linearized_charpoly(D)
    exact, uncertain = charpoly_points(map(sc.kernel(D.field).entry, chi))
    if not exact or exact[-1][0] != D.n:
        raise PrecisionError("leading coefficient not certified")
    e = D.field.e
    hull = lower_newton_polygon(exact, uncertain, e)
    if hull[0][0] != 0:
        # det B is zero-ish: contradicts invertibility of phi
        raise PrecisionError("constant coefficient of the linearization "
                             "not certified nonzero")
    rv = root_valuations_from_hull(hull, e)
    f = D.field.f
    pairs = [(v / f, m) for v, m in rv]
    prof = SlopeProfile(pairs)
    if prof.dim != D.n:
        raise ValidationError("slope multiplicities do not sum to the dimension")
    if prof.total() != D.t_N():
        raise ValidationError("slope sum does not match det valuation")
    return prof


# -- slope factorization over Q_p ------------------------------------------------


def _rational_charpoly(D: PhiModule):
    """Characteristic polynomial of the linearization, certified rational,
    as raw entries at the Q_p level."""
    field, (_, chi) = D.field, _linearized_charpoly(D)
    qp = UnramifiedFieldDescriptor.create(field.p, 1, field.prec)
    chi = list(map(sc.kernel(field).entry, chi))
    if field.ring.dim > 1:  # at Q_p itself the projection is the identity
        chi = [project_entry(c, field, qp) for c in chi]
    return chi, qp


def slope_factors(D: PhiModule):
    """Monic factors of the linearization's charpoly over Q_p, one per root
    valuation, as (root_valuation, coefficient list at the Q_p level)."""
    chi, qp = _rational_charpoly(D)
    k = sc.kernel(qp)
    return [(rv, list(map(k.scalar, fac)))
            for rv, fac in _split_by_valuation(chi, qp)]


def _split_by_valuation(chi, qp):
    """slope_factors on raw coefficients at the Q_p level."""
    rv = root_valuations_from_hull(lower_newton_polygon(*charpoly_points(chi)))
    if len(rv) == 1:
        return [(rv[0][0], chi)]
    s0, m0 = rv[0]  # minimal root valuation and multiplicity
    b = s0.denominator
    a = s0.numerator
    if b == 1:
        level = qp
        proj = lambda x: x
    else:
        # tame Kummer ring t^b = p; no automorphism table needed here
        level = EisensteinExtensionDescriptor.create(
            qp, (-qp.p,) + (0,) * (b - 1) + (1,))
        proj = lambda x: project_entry(x, level, qp)
    k = sc.kernel(level)
    t = k.entry(la.pi_power(level, 1))  # p, or the uniformizer t
    G, H = _hensel_split(level, chi, a, m0)
    # minimal-valuation factor: g(lambda) = t^(a m0) G(lambda / t^a)
    i1 = len(H) - 1
    fac0 = [proj(k.fma(None, G[j], k.pow(t, a * (m0 - j))))
            for j in range(len(G))]
    rest = [proj(k.fma(None, H[j], k.pow(t, a * (i1 - j))))
            for j in range(len(H))]
    out = [(s0, fac0)]
    out.extend(_split_by_valuation(rest, qp))
    return out


def _hensel_split(level, chi, a, m0):
    """Split psi(mu) = chi(t^a mu) / t^(a n) at ``level`` (pi = t, t^e = p)
    into the unit-root part G of degree m0 and the rest H, as monic raw
    polynomials; chi is raw at the Q_p level.

    Coefficient i of psi is c_i t^(a(i-n)): a ring tuple of pi-valuation
    e v(c_i) - a(n-i) >= 0, known to pi^P_i with P_i = e (v(c_i) + relpi) -
    a(n-i).  The ring lift factors this representative exactly mod pi^(eN).
    Let A = min P_i and D the unknown error of the representative.  One Newton
    step from the computed factors gives the true ones mod pi^(2A), and that
    step is linear in D: G + T D + (S D div H) G and H + (S D mod H), with
    S G + T H = 1.  So coefficient j of G is certified to the least of eN, 2A
    and P_i + v(column i of that map at j) over the inexact coefficients i.
    """
    ring, e = level.ring, level.e
    top = e * level.prec
    n = len(chi) - 1
    psi, inexact = [], []
    for i, c in enumerate(chi):
        shift = a * (n - i)
        if c is not None and c[1] is not None:
            w = e * c[0] - shift
            psi.append(ring.shift_up(ring.from_int(c[1]), w))
            P = w + e * c[2]
        else:
            psi.append(ring.zero())
            P = top if c is None else e * c[0] - shift
        if P < top:
            inexact.append((i, P))
    A = min([P for _, P in inexact], default=top)
    if A < 1:
        raise PrecisionError("slope factor residues not certified")
    # mod pi, psi = mu^(n-m0) * (unit-root part)
    i1 = n - m0
    g0 = [ring.from_int(x[0] % ring.p) for x in psi[i1:]]
    h0 = [ring.zero()] * i1 + [ring.one()]
    G, H, S, T = hensel_lift_pair(ring, psi, g0, h0)
    prec_g = [min(top, 2 * A)] * m0
    prec_h = [min(top, 2 * A)] * i1
    for i, P in inexact:
        q, dh = rp_divmod_monic(ring, [ring.zero()] * i + S, H)
        dg = rp_add(ring, [ring.zero()] * i + T, rp_mul(ring, q, G))
        for prec, d in ((prec_g, dg), (prec_h, dh)):
            for j in range(len(prec)):
                v = ring.val_pi(d[j]) if j < len(d) else None
                if v is not None:
                    prec[j] = min(prec[j], P + v)
    return _raw_coeffs(level, G, prec_g), _raw_coeffs(level, H, prec_h)


def _raw_coeffs(level, poly, prec):
    """Raw entries of a monic ring-tuple polynomial whose coefficient j is
    known mod pi^prec[j]; the leading one is exact.  The unit of t^w y is
    read off the coefficients (t^e = p), which keeps every digit of y below
    pi^(eN - w)."""
    ring, e, p = level.ring, level.e, level.p
    k = sc.kernel(level)
    out = []
    for x, P in zip(poly, prec):
        w = ring.val_pi(x)
        if w is None or w >= P:
            out.append((P, None, 0))
            continue
        a, b = divmod(w, e)
        pa = p ** a
        unit = (tuple(x[j] // pa for j in range(b, e))
                + tuple(x[j] // (pa * p) for j in range(b)))
        out.append(k.reg(w, unit, P - w))
    out.append(k.one)
    return out


def isoclinic_decompose(D: PhiModule):
    """[(slope, basis columns of the slope component)], phi-stable pieces
    spanning D, one per distinct slope, by increasing slope.

    The columns of all components together are certified independent (one
    elimination), so the columns of any sum of components are too."""
    if D._isoclinic is None:
        D._isoclinic = _isoclinic_decompose(D)
    return [(slope, [list(row) for row in cols])
            for slope, cols in D._isoclinic]


def _isoclinic_decompose(D: PhiModule):
    prof = newton_slopes(D)
    n = D.n
    if len(prof.pairs) == 1:
        return [(prof.pairs[0][0], la.identity(D.field, n))]
    factors = slope_factors(D)
    B, _ = _linearized_charpoly(D)
    k = sc.kernel(D.field)
    A, Bcols = k.encode_rows(D.A), k.encode_rows(zip(*B))
    out = []
    for rv, fac in factors:
        M = _horner(k, [k.entry(embed_qp(c, D.field)) for c in fac], Bcols)
        ech, pivots, _ = la.certified_row_reduce(la.Raw(k, M))
        ker = la.kernel_from_echelon(k, ech, pivots, n)
        if not ker:
            raise PrecisionError("slope factor has trivial kernel")
        # D.is_stable on the kernel vectors, whose identity block certifies
        # their rank: phi(ker) <= span(ker) iff rank [phi(ker) | ker] = rank
        img = [[k.dot(row, v) for row in A] for v in la.frobenius_rows(k, ker)]
        if la.certified_rank(la.Raw(k, img + ker)) != len(ker):
            raise PrecisionError("slope component not certified phi-stable")
        out.append((rv / D.field.f, ker))
    if sum(len(ker) for _, ker in out) != n:
        raise PrecisionError("slope components do not span")
    concat = [[v[i] for _, ker in out for v in ker] for i in range(n)]
    if la.certified_rank(la.Raw(k, concat)) != n:
        raise PrecisionError("slope components not certified independent")
    return sorted(((slope, k.decode_rows(zip(*ker))) for slope, ker in out),
                  key=lambda t: t[0])


def _horner(k, coeffs, cols):
    """A polynomial with raw coefficients (ascending) evaluated at the matrix
    whose raw columns are cols, by Horner: out*m by the dot fold, then c
    added on the diagonal by the sc_add rule."""
    n = len(cols)
    out = [[None] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = [[k.dot(row, col) for col in cols] for row in out]
        for i in range(n):
            out[i][i] = k.add(out[i][i], c)
    return out
