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
rank of F and, per generator h, an n x n rank of rho(h) over K and one joint
elimination of [rho(h) F | tau_h F] over L (see is_diagonally_stable).
Generators suffice: if rho(a) F = tau_a F and rho(b) F = tau_b F, then
rho(ab) F = rho(a) tau_b F = tau_b rho(a) F = tau_b tau_a F = tau_{ab} F,
since rho(a) is K-rational and so commutes with tau_b applied entrywise, and
the setup enforces tau_{ab} = tau_b o tau_a.  The descent datum's targets are
the same pairs (rho(h^-1), tau_{h^-1}), so one stability verdict answers
both.  Invariant vectors are built by the averaging map
v -> sum_h tau'_h(alpha) * (h . v) over a basis alpha of L/K; the L-span of
the invariants recovers the whole space, which is checked by certified rank.
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

    def gal_apply_name(self, name: str, cols):
        rec = self.ext.automorphisms[name]
        return la.mat_map(cols, lambda x: sc.sc_apply_aut(x, rec))

    def gal_apply(self, idx: int, cols):
        return self.gal_apply_name(self.aut_of(idx), cols)


def lift_matrix(ext, cols):
    """Lift a base-level matrix entrywise to L."""
    return la.mat_map(cols, ext.lift)


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
    applied entrywise, and rank rho(h) F = r whenever rho(h) is invertible,
    which an n x n rank over K certifies.  Two subspaces of dimension r are
    equal iff their sum has dimension r, so h passes iff
    rank [rho(h) F | tau_h F] = r: one elimination over L instead of three.
    A singular rho(h) falls back to the rank of rho(h) F itself, so each
    tested h gets span equality, subspace_leq both ways.
    """
    ext = setup.ext
    n = rep.dim
    r = la.certified_rank(la.transpose(F_cols)) if rank is None else rank
    for x in rep.relation_rows():
        rho = rep.mats[x]
        lin = la.mat_mul(lift_matrix(ext, rho), F_cols)
        if (la.certified_rank(rho) < n
                and la.certified_rank(la.transpose(lin)) != r):
            return False
        gal = setup.gal_apply(x, F_cols)
        if la.certified_rank(la.transpose(la.hstack(lin, gal))) != r:
            return False
    return True


def galois_descend(rep: GroupRepresentation, setup: GaloisSetup):
    """A maximal family of diagonal-action invariants whose L-span is the
    whole module, as columns over L; their count is the dimension.

    For alpha in the basis 1, pi, ..., pi^(e-1) of L/K, the average of
    alpha e_j over the diagonal action is sum_h rho(h) tau_h^{-1}(alpha) e_j,
    column j of M_alpha = sum_h tau_h^{-1}(alpha) rho(h).  So M_alpha is
    built once per alpha, and the candidates are the columns of the M_alpha.
    """
    ext = setup.ext
    n = rep.dim
    u = ext.uniformizer()
    alphas = [ext.one()]
    for _ in range(ext.e - 1):
        alphas.append(sc_mul(alphas[-1], u))
    elems = range(setup.group.n)
    recs = [ext.automorphisms[setup.table_inverse(setup.aut_of(x))] for x in elems]
    rhos = [lift_matrix(ext, rep.mats[x]) for x in elems]
    sums = [la.mat_lincomb([sc.sc_apply_aut(alpha, rec) for rec in recs], rhos)
            for alpha in alphas]
    cand_cols = la.normalize_columns(
        [[M[r][j] for j in range(n) for M in sums] for r in range(n)],
        integral=True)
    basis = la.column_space_basis(cand_cols)
    got = la.mat_dims(basis)[1]
    if got != n:
        raise PrecisionError(
            f"descent produced {got} independent invariants, expected {n}")
    return la.normalize_columns(basis, integral=True)
