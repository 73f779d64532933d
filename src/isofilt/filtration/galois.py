"""Galois setup, diagonal stability, and descent of subspaces.

A GaloisSetup pairs a finite group acting linearly on the module with the
automorphism table of a totally ramified step L/K_q.  The correspondence may
be a bijection (the generic case) or a surjection with kernel H (used when a
summand's induced action factors through a quotient).  Only the
opposite-group convention is accepted: composition is checked against the
table as tau_{ab} = tau_b o tau_a, and a correspondence that breaks it is
rejected (for an abelian group the two conventions coincide).

Diagonal stability of a filtration F over L means the linear and Galois
orbits coincide: rho(h) F = tau_h F for every h.  It is certified with one
rank of F and, per generator h, one joint elimination of
[rho(h) F | tau_h F] over L (see is_diagonally_stable).  rho(h) is
invertible without a rank: ``validate`` certifies rho(h) rho(h^-1) =
rho(e) = I at the relation threshold, and a piece's action restricts a
validated one to a stable subspace.
Generators suffice: if rho(a) F = tau_a F and rho(b) F = tau_b F, then
rho(ab) F = rho(a) tau_b F = tau_b rho(a) F = tau_b tau_a F = tau_{ab} F,
since rho(a) is K-rational and so commutes with tau_b applied entrywise, and
the setup enforces tau_{ab} = tau_b o tau_a.  The descent datum's targets are
the same pairs (rho(h^-1), tau_{h^-1}), so one stability verdict answers
both.  Invariant vectors are built by the averaging map
v -> sum_h tau'_h(alpha) * (h . v) over a basis alpha of L/K; the L-span of
the invariants recovers the whole space, which is checked by certified rank.
Stability and descent run on raw rows over L (``linalg.Raw``): rho(h) is
lifted by the step's raw lift (``lift_rows``), tau_h acts by the level's tau
rule (``apply_aut``), and descent builds its candidates a block at a time.
"""

from __future__ import annotations

from ..errors import ValidationError, PrecisionError
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.scalar import sc_mul
from ..groups.core import FiniteGroup, GroupRepresentation


class GaloisSetup:
    def __init__(self, group: FiniteGroup, ext, correspondence: dict):
        """correspondence: element name -> automorphism name (surjective;
        bijective in the standard situation)."""
        self.group = group
        self.ext = ext
        self.corr = dict(correspondence)
        self._validate()

    def _validate(self):
        G = self.group
        names = set(G.names)
        if set(self.corr) != names:
            raise ValidationError("correspondence must cover the group")
        auts = set(self.ext.automorphisms)
        if set(self.corr.values()) - auts:
            raise ValidationError("correspondence hits unknown automorphisms")
        if set(self.corr.values()) != auts:
            raise ValidationError("correspondence must be onto the table")
        comp = self.ext.compose_table
        anti = True
        for a in range(G.n):
            for b in range(G.n):
                ab = self.corr[G.names[G.table[a][b]]]
                ta, tb = self.corr[G.names[a]], self.corr[G.names[b]]
                if comp[(tb, ta)] != ab:
                    anti = False
        if not anti:
            # for abelian tables the two conventions coincide, so this only
            # fires for genuinely misordered nonabelian correspondences
            raise ValidationError(
                "correspondence must respect multiplication in the "
                "opposite-group convention")
        ident = self.ext.identity_name
        if self.corr[G.names[G.identity]] != ident:
            raise ValidationError("identity must map to the identity")

    def table_inverse(self, name: str) -> str:
        ident = self.ext.identity_name
        for other in self.ext.automorphisms:
            if self.ext.compose_table[(name, other)] == ident:
                return other
        raise ValidationError("automorphism without inverse in the table")

    def aut_of(self, idx: int) -> str:
        return self.corr[self.group.names[idx]]


def lift_matrix(ext, cols):
    """Lift a base-level matrix to L: ``ext.lift_rows`` on its raw rows."""
    if not (cols and cols[0]):
        return [[] for _ in cols]
    kb = sc.kernel(cols[0][0].field)
    return sc.kernel(ext).decode_rows(ext.lift_rows(kb, kb.encode_rows(cols)))


def is_diagonally_stable(rep: GroupRepresentation, F_cols,
                         setup: GaloisSetup, rank: int | None = None) -> bool:
    """rho(h) F = tau_h F for all h, certified span equality over L, for a
    validated action rep.

    h runs over ``rep.relation_rows()``: the group's generators when their
    matrices are integral, every element otherwise (the module docstring
    gives the argument; a product relation certified at the relation
    threshold keeps its digits along a word only for integral factors).
    r = rank F is passed as rank or certified once.  For each h, rank
    tau_h F = r because tau_h is a valuation-preserving automorphism of L
    applied entrywise, and rank rho(h) F = r because rho(h) is invertible
    (the module docstring gives the argument).  Two subspaces of dimension
    r are equal iff their sum has dimension r, so h passes iff
    rank [rho(h) F | tau_h F] = r: one elimination over L, and span
    equality for each tested h.
    """
    ext = setup.ext
    k, kb = sc.kernel(ext), sc.kernel(rep.field)
    FT = k.encode_rows(zip(*F_cols))  # F's columns, as raw rows over L
    r = la.certified_rank(la.Raw(k, FT)) if rank is None else rank
    for x in rep.relation_rows():
        R = ext.lift_rows(kb, kb.encode_rows(rep.mats[x]))
        lin = [[k.dot(row, col) for row in R] for col in FT]  # (rho(h) F)^T
        gal = k.apply_aut(FT, ext.automorphisms[setup.aut_of(x)])
        if la.certified_rank(la.Raw(k, lin + gal)) != r:
            return False
    return True


def galois_descend(rep: GroupRepresentation, setup: GaloisSetup):
    """A maximal family of diagonal-action invariants whose L-span is the
    whole module, as columns over L; their count is the dimension.

    For alpha in the basis 1, pi, ..., pi^(e-1) of L/K, the average of
    alpha e_j over the diagonal action is sum_h rho(h) tau_h^{-1}(alpha) e_j,
    column j of M_alpha = sum_h tau_h^{-1}(alpha) rho(h).  The candidates
    are these columns scaled by integral powers of p, block j (column j of
    every M_alpha, in basis order) before block j + 1, and the invariants
    are their pivot columns.  An elimination decides column c from columns
    up to c only, so blocks are built one at a time, on raw rows, until a
    prefix has n pivots.  Only a live column (one with a reg entry) can
    take a pivot, so a prefix is eliminated once it holds n live columns;
    one of rank below n costs one more elimination.  A PrecisionError that
    only an unbuilt candidate would raise is not raised."""
    ext, n, e = setup.ext, rep.dim, setup.ext.e
    k, kb = sc.kernel(ext), sc.kernel(rep.field)
    fma = k.fma
    u = ext.uniformizer()
    alphas = [ext.one()]
    for _ in range(e - 1):
        alphas.append(sc_mul(alphas[-1], u))
    elems = range(setup.group.n)
    recs = [ext.automorphisms[setup.table_inverse(setup.aut_of(x))] for x in elems]
    rhos = [ext.lift_rows(kb, kb.encode_rows(rep.mats[x])) for x in elems]
    # per alpha, the pairs (tau_h^{-1}(alpha), rho(h)) of M_alpha's fold
    terms = [list(zip([k.entry(sc.sc_apply_aut(alpha, rec)) for rec in recs],
                      rhos)) for alpha in alphas]
    cands, live, pivots = [], 0, []
    for j in range(n):
        for pairs in terms:
            col = [None] * n
            for c, rho in pairs:
                for i, row in enumerate(rho):
                    if row[j] is not None:
                        col[i] = fma(col[i], c, row[j])
            ws = [x[0] for x in col if x is not None and x[1] is not None]
            live += bool(ws)
            w = min(ws, default=0) // e * e  # an integral power of p
            if w:
                s = k.entry(la.pi_power(ext, -w))
                col = [x if x is None else fma(None, s, x) for x in col]
            cands.append(col)
        if live >= n or j == n - 1:
            _, pivots, _ = la.certified_row_reduce(
                la.Raw(k, [list(row) for row in zip(*cands)]),
                reduced=False, rows=False)
            if len(pivots) == n:
                break
    if len(pivots) != n:
        raise PrecisionError(f"descent produced {len(pivots)} independent "
                             f"invariants, expected {n}")
    return k.decode_rows([[cands[c][i] for c in pivots] for i in range(n)])
