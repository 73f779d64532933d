"""The two constructive Lagrangian algorithms and chart sampling.

lagrangian_avoiding builds, for a subspace M with dim M <= g, a Lagrangian F
with F cap M = 0 by the hyperbolic-plane recursion: pick x in M, pick y
outside M with <x, y> nonzero, pass to the complement of the plane <x, y>
with M replaced by its projection (one dimension smaller), and glue y back
onto the recursive answer.

lagrangian_h_small_intersection builds, for a diagonalizable symplectic h
whose eigenspaces all have dimension at most g, a Lagrangian F with
dim(F cap h(F)) <= 1.  The space is split into standard planes spanned by
h-eigenvectors; planes (or pairs of planes) are consumed greedily in the two
shapes that admit an intersection-free Lagrangian piece, keeping the
remaining multiplicities at most half the remaining size; at most one final
scalar plane contributes the single allowed intersection dimension.
Eigenvalues are roots of unity, so the construction may enlarge the level:
unramified for the prime-to-p part, a cyclotomic Eisenstein step for the
p-power part.

random_rational_lagrangian samples the 2^g-chart atlas: a random symplectic
frame swap composed with the graph of a random symmetric matrix, so every
chart carries positive probability and coordinates stay in the coefficient
field of the Gram matrix.
"""

from __future__ import annotations

import random

from ..errors import (ValidationError, PrecisionError,
                      InternalContradictionError)
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.scalar import sc_add, sc_mul, sc_neg, sc_sub, sc_div, sc_pow
from ..groups.isotypic import split_p_part, _embedding_for, matrix_order
from .space import SymplecticSpace, LagrangianSubspace


# -- chart sampling ----------------------------------------------------------------


# p-adic digits of each entry of the random symmetric chart coordinate
CHART_DIGITS = 12


def random_rational_lagrangian(space: SymplecticSpace,
                               seed) -> LagrangianSubspace:
    """A Lagrangian with coordinates in the coefficient field, sampled from a
    uniformly random chart of the 2^g atlas; deterministic in the seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    field = space.field
    g = space.g
    B = space.symplectic_basis()  # columns e_1..e_g, f_1..f_g
    swap = [rng.random() < 0.5 for _ in range(g)]
    a_cols = []
    b_cols = []
    for i in range(g):
        e = [B[r][i] for r in range(space.n)]
        f = [B[r][g + i] for r in range(space.n)]
        if swap[i]:
            a_cols.append(f)
            b_cols.append([sc_neg(v) for v in e])
        else:
            a_cols.append(e)
            b_cols.append(f)
    z = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            val = field.scalar(rng.randrange(0, field.p ** CHART_DIGITS))
            z[i][j] = val
            z[j][i] = val
    cols = []
    for i in range(g):
        col = list(a_cols[i])
        for j in range(g):
            col = [sc_add(c, sc_mul(z[i][j], bj))
                   for c, bj in zip(col, b_cols[j])]
        cols.append(col)
    basis = la.normalize_columns([[cols[k][r] for k in range(g)] for r in range(space.n)])
    return LagrangianSubspace(space, basis)


# -- avoiding a small subspace ------------------------------------------------------


def lagrangian_avoiding(space: SymplecticSpace, m_cols,
                        seed=0) -> LagrangianSubspace:
    """A Lagrangian F with F cap span(m_cols) = 0; requires dim M <= g."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    dim_m = la.mat_dims(m_cols)[1]
    if dim_m:
        dim_m = la.certified_rank(la.transpose(m_cols))
    if dim_m > space.g:
        raise ValidationError(f"dim M = {dim_m} exceeds g = {space.g}")
    cols = la.normalize_columns(_avoiding_rec(space, m_cols, dim_m, rng))
    return LagrangianSubspace(space, cols)


def _avoiding_rec(space, m_cols, dim_m, rng):
    field = space.field
    n = space.n
    if n == 0:
        return []
    if dim_m == 0:
        B = space.symplectic_basis()
        return [[B[r][space.g + i] for i in range(space.g)] for r in range(n)]
    if dim_m == 1:
        x = [m_cols[r][0] for r in range(n)]
        return _transverse_to_line(space, x, rng)
    x = [m_cols[r][0] for r in range(n)]
    y = _pick_partner(space, x, m_cols, rng)
    cxy = space.pair(x, y)
    # projection of v along <x, y> into the complement
    def proj(v):
        beta = sc_div(space.pair(x, v), cxy)
        alpha = sc_div(space.pair(y, v), sc_neg(cxy))
        return [sc_sub(vi, sc_add(sc_mul(alpha, xi), sc_mul(beta, yi)))
                for vi, xi, yi in zip(v, x, y)]

    plane = [[x[r], y[r]] for r in range(n)]
    comp = la.normalize_columns(space.orthogonal_complement(plane))
    m_proj = []
    for j in range(len(m_cols[0])):
        v = proj([m_cols[r][j] for r in range(n)])
        m_proj.append(v)
    m_proj_cols = [[v[r] for v in m_proj] for r in range(n)]
    m_proj_cols = la.normalize_columns(
        la.column_space_basis(la.normalize_columns(m_proj_cols)))
    dim_mp = la.mat_dims(m_proj_cols)[1]
    if dim_mp != dim_m - 1:
        raise PrecisionError("projected subspace did not drop rank by one")
    # coordinates inside the complement
    m_in = la.solve_right(comp, m_proj_cols)
    sub_space = SymplecticSpace(field, space.pair_matrix(comp, comp),
                                validate=False)
    f_in = _avoiding_rec(sub_space, m_in, dim_mp, rng)
    f_cols = la.mat_mul(comp, f_in) if f_in and f_in[0] else [[] for _ in range(n)]
    out = [row[:] + [y[r]] for r, row in enumerate(f_cols)]
    return out


def _pick_partner(space, x, m_cols, rng):
    """y outside span(m_cols) with <x, y> certified nonzero, preferring a
    minimal-valuation pairing (p-adic pivoting keeps precision loss linear)."""
    field = space.field
    n = space.n
    best = None
    best_val = None
    for _ in range(64):
        y = [field.scalar(rng.randrange(0, field.p ** 3)) for _ in range(n)]
        val = space.pair(x, y)
        if val.kind != sc.REG:
            continue
        joined = [m_cols[r] + [y[r]] for r in range(n)]
        try:
            if la.certified_rank(la.transpose(joined)) != \
               len(m_cols[0]) + 1:
                continue
        except PrecisionError:
            continue
        if best is None or val.val < best_val:
            best, best_val = y, val.val
        if best_val <= 0:
            return best
    if best is not None:
        return best
    raise PrecisionError("could not sample a hyperbolic partner")


def _transverse_to_line(space, x, rng):
    """A Lagrangian avoiding the line through x: extend x to a hyperbolic
    pair (x, y) and take the f-side of a symplectic basis with e_1 = x."""
    field = space.field
    n = space.n
    y = _pick_partner(space, x, [[xi] for xi in x], rng)
    c = space.pair(x, y)
    y = [sc_div(v, c) for v in y]
    plane = [[x[r], y[r]] for r in range(n)]
    comp = space.orthogonal_complement(plane)
    if not comp or not comp[0]:
        return [[y[r]] for r in range(n)]
    comp = la.normalize_columns(comp)
    sub = SymplecticSpace(field, space.pair_matrix(comp, comp), validate=False)
    if sub.n:
        B = sub.symplectic_basis()
        rest = la.mat_mul(comp, B)
        f_side = [[rest[r][sub.g + i] for i in range(sub.g)] for r in range(n)]
        out = [[y[r]] + f_side[r] for r in range(n)]
    else:
        out = [[y[r]] for r in range(n)]
    return out


# -- small intersection with a perturbing symplectic element ------------------------


class EigenPlane:
    __slots__ = ("x", "y", "cx", "cy")

    def __init__(self, x, y, cx, cy):
        self.x = x
        self.y = y
        self.cx = cx  # eigenvalue labels (exponents mod the order of h)
        self.cy = cy

    @property
    def pure(self):
        return self.cx == self.cy


def lagrangian_h_small_intersection(space: SymplecticSpace, h):
    """A Lagrangian F with dim(F cap h(F)) <= 1 for a finite-order,
    diagonalizable, perturbing h in Sp(J).

    Returns (extended_space, lagrangian, extended_h); the output lives over
    the smallest tower level containing the eigenvalues.
    """
    field = space.field
    thr = la.relation_threshold(field)
    lhs = la.mat_mul(la.transpose(h), la.mat_mul(space.J, h))
    if not la.mat_is_zero(la.mat_sub(lhs, space.J), thr):
        raise ValidationError("h is not symplectic for the given pairing")
    m = matrix_order(h, field)
    big_space, H, zeta_of = _extend_for_eigenvalues(space, h, m)
    planes = _symplectic_eigenplanes(big_space, H, m, zeta_of)
    gsz = space.g
    mult = {}
    for pl in planes:
        mult[pl.cx] = mult.get(pl.cx, 0) + 1
        mult[pl.cy] = mult.get(pl.cy, 0) + 1
    if any(v > gsz for v in mult.values()):
        raise ValidationError("h is not a perturbing element")
    cols = la.normalize_columns(
        _assemble_small_intersection(big_space, planes))
    F = LagrangianSubspace(big_space, cols)
    return big_space, F, H


def _extend_for_eigenvalues(space, h, m):
    """Lift everything to a level containing the m-th roots of unity and
    return (space', h', zeta_of) with zeta_of(a) = zeta_m^a there."""
    field = space.field
    p = field.p
    pk, dp = split_p_part(m, p)
    # prime-to-p part: enlarge the unramified level
    if dp > 1:
        big, emb = _embedding_for(field, dp)
    else:
        big, emb = field, None

    def lift_unram(x):
        return emb(x) if emb is not None else x

    if pk > 1:
        from ..fixtures import cyclotomic_p_power_extension
        k = 0
        t = pk
        while t > 1:
            t //= p
            k += 1
        L = cyclotomic_p_power_extension(big, k)
        lift = lambda x: L.lift(lift_unram(x))
        zeta_p = sc_add(L.uniformizer(), L.one())  # zeta = 1 + u
        target = L
    else:
        lift = lift_unram
        zeta_p = None
        target = big

    J2 = la.mat_map(space.J, lift)
    H2 = la.mat_map(h, lift)
    if dp > 1:
        zq = big.teichmuller(dp)
        zeta_q = lift(zq) if pk > 1 else zq
    else:
        zeta_q = None

    def zeta_of(a):
        a %= m
        out = target.one()
        if zeta_p is not None:
            out = sc_mul(out, sc_pow(zeta_p, a % pk))
        if zeta_q is not None:
            out = sc_mul(out, sc_pow(zeta_q, a % dp))
        return out

    return SymplecticSpace(target, J2, validate=False), H2, zeta_of


def _symplectic_eigenplanes(space, H, m, zeta_of):
    field = space.field
    n = space.n
    eig = {}
    total = 0
    for a in range(m):
        lam = zeta_of(a)
        M = [[sc_sub(H[i][j], lam) if i == j else H[i][j]
              for j in range(n)] for i in range(n)]
        ker = la.kernel_basis(M)
        if ker:
            eig[a] = [[v[i] for v in ker] for i in range(n)]
            total += len(ker)
    if total != n:
        raise ValidationError(
            "no symplectic eigenbasis: h is not diagonalizable at this level")
    planes = []
    done = set()
    for a in sorted(eig):
        inv = (-a) % m
        if a in done:
            continue
        if inv == a:
            # +-1-type eigenvalue: the eigenspace is itself symplectic
            sub = SymplecticSpace(field, space.pair_matrix(eig[a], eig[a]),
                                  validate=False)
            B = sub.symplectic_basis()
            V = la.mat_mul(eig[a], B)
            gg = sub.g
            for i in range(gg):
                x = [V[r][i] for r in range(n)]
                y = [V[r][gg + i] for r in range(n)]
                planes.append(EigenPlane(x, y, a, a))
            done.add(a)
        else:
            if inv not in eig:
                raise ValidationError("eigenvalues do not pair symplectically")
            A, Bc = eig[a], eig[inv]
            G = space.pair_matrix(A, Bc)
            Ginv = la.mat_inverse(G)
            Bdual = la.mat_mul(Bc, Ginv)
            kk = len(A[0])
            for i in range(kk):
                x = [A[r][i] for r in range(n)]
                y = [Bdual[r][i] for r in range(n)]
                planes.append(EigenPlane(x, y, a, inv))
            done.add(a)
            done.add(inv)
    return planes


def _assemble_small_intersection(space, planes):
    field = space.field
    n = space.n
    remaining = list(planes)
    out_cols = []
    slack_used = False

    def color_mults(pls):
        mm = {}
        for pl in pls:
            mm[pl.cx] = mm.get(pl.cx, 0) + 1
            mm[pl.cy] = mm.get(pl.cy, 0) + 1
        return mm

    def remainder_ok(pls):
        if not pls:
            return True
        mm = color_mults(pls)
        if max(mm.values()) <= len(pls):
            return True
        if len(pls) == 1 and pls[0].pure and not slack_used:
            return True
        return False

    while remaining:
        if len(remaining) == 1 and remaining[0].pure:
            if slack_used:
                raise InternalContradictionError(
                    "second scalar plane left over; input was not perturbing")
            slack_used = True
            pl = remaining.pop()
            out_cols.append(pl.x)  # any line of a scalar plane costs exactly 1
            continue
        mm = color_mults(remaining)
        top = max(mm.values())
        choice = None
        # shape 1: a mixed plane, preferring one touching a top-multiplicity
        # eigenvalue (the proof's mu_1)
        order1 = sorted(range(len(remaining)),
                        key=lambda i: -max(mm[remaining[i].cx],
                                           mm[remaining[i].cy]))
        for i in order1:
            pl = remaining[i]
            if pl.pure:
                continue
            rest = remaining[:i] + remaining[i + 1:]
            if remainder_ok(rest):
                choice = ("mixed", i)
                break
        if choice is None:
            # shape 2: pure plane + plane avoiding its eigenvalue
            for i, p1 in enumerate(remaining):
                if not p1.pure:
                    continue
                for j, p2 in enumerate(remaining):
                    if i == j:
                        continue
                    if p2.cx == p1.cx or p2.cy == p1.cx:
                        continue
                    rest = [pl for t, pl in enumerate(remaining)
                            if t not in (i, j)]
                    if remainder_ok(rest):
                        choice = ("pair", i, j)
                        break
                if choice:
                    break
        if choice is None:
            raise InternalContradictionError(
                "greedy plane selection stuck; input was not perturbing")
        if choice[0] == "mixed":
            pl = remaining.pop(choice[1])
            line = [sc_add(a, b) for a, b in zip(pl.x, pl.y)]
            out_cols.append(line)
        else:
            i, j = choice[1], choice[2]
            p1, p2 = remaining[i], remaining[j]
            remaining = [pl for t, pl in enumerate(remaining) if t not in (i, j)]
            v1 = [sc_add(a, b) for a, b in zip(p1.x, p2.x)]
            v2 = [sc_sub(a, b) for a, b in zip(p1.y, p2.y)]
            out_cols.append(v1)
            out_cols.append(v2)
    return [[col[r] for col in out_cols] for r in range(n)]
