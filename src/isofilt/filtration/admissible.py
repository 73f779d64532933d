"""Weak admissibility of one-step filtrations.

A filtration F over L is admissible for D when dim(N_L cap F) is at most the
slope sum of N for every sub-phi-module N, with equality at N = D.  Exact
mode enumerates all submodules (complete for multiplicity-free D at the
working level); sampled mode adds pseudo-random submodules and can only err
by accepting, never by rejecting: an inadmissible verdict always carries a
violating N as a re-checkable certificate.  ``admissible_with_fallback`` runs
exact mode and samples only where D has a repeated slope.

A semi-abelian D is an extension 0 -> T -> D -> D_B -> 0 of an abelian part
by a torus T of pure slope 1, and its toric slope repeats in D whenever D_B
has slopes 0 and 1, so exact mode fails on D itself.  The extension node
(``toric_extension_report``) proves admissibility from the extension
instead: T has pure slope 1 and lies in F, so (T, T_L) is admissible; F_B,
the image of F in D_B, is admissible for D_B; and rank F = t + dim F_B.  Weak
admissibility is closed under extensions (Colmez-Fontaine, Invent. Math.
140, 2000), so (D, F) is admissible.  Only D_B's own submodules are tested,
exactly unless D_B itself has a repeated slope.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import MultiplicityError
from ..padic import linalg as la
from ..padic import scalar as sc
from ..isocrystal import submodules as sm
from ..isocrystal.module import PhiModule, SemiAbelianPhiModule
from .galois import lift_matrix

# tries of sampled admissibility, in find and in check alike
ADMISSIBILITY_BUDGET = 200


def t_H(F_cols_L, N_cols_K, ext, rank_F: int,
        rank_N: int | None = None) -> int:
    """dim(N_L cap F) = rank N_L + rank F - rank [N_L | F], certified, for
    F of certified rank rank_F.  rank_N is dim N when N's columns are
    certified independent, as every basis of a SubmoduleSet is (a field
    extension keeps ranks): one elimination; with rank_N None, two."""
    if not (N_cols_K and N_cols_K[0] and F_cols_L and F_cols_L[0]):
        return 0
    return la.intersection_dim(lift_matrix(ext, N_cols_K), F_cols_L,
                               rank_N, rank_F)


def _rank(F):
    return la.certified_rank(la.transpose(F)) if F and F[0] else 0


class AdmissibilityReport:
    def __init__(self, verdict, entries, mode, samples, violation=None,
                 equality_at_top=None):
        self.verdict = verdict
        self.entries = entries        # [(dim N, t_H, t_N bound)]
        self.mode = mode
        self.samples = samples
        self.violation = violation    # offending N basis columns, if any
        self.equality_at_top = equality_at_top

    def as_dict(self):
        return {
            "verdict": "admissible" if self.verdict else "inadmissible",
            "mode": self.mode,
            "samples": self.samples,
            "equality_at_top": self.equality_at_top,
            "ledger": [{"dim_N": d, "t_H": th, "t_N": str(tn)}
                       for d, th, tn in self.entries],
            "violation_dim": (len(self.violation[0])
                              if self.violation and self.violation[0] else None),
        }

    @property
    def complete(self) -> bool:
        """Whether the verdict holds for every submodule: exact mode, or a
        violation found by sampling."""
        return self.mode == "exact" or not self.verdict


def is_admissible(D: PhiModule, F_cols_L, ext, mode: str = "exact",
                  seed: int = 0, rank_F: int | None = None) -> AdmissibilityReport:
    """Check the slope bound over all (exact) or many (sampled) submodules.

    Sampled mode is one-sidedly sound: 'inadmissible' verdicts carry an
    explicit violating submodule; 'admissible' verdicts are complete only
    over the family that ADMISSIBILITY_BUDGET seeded tries enumerate, in
    find and in check alike.  Each proper N costs one elimination over L,
    since its basis is certified independent, and none over K when N is a
    sum of isoclinic components, D included, whose bound t_N the
    decomposition certified (``SubmoduleSet.bounds``).  Only a sampled
    kernel, image or phi-span has its t_N certified from its Frobenius.
    rank_F is certified on first use unless given: some modules have no
    proper N.

    The ranks run on raw rows over L (``linalg.Raw``): F is encoded once,
    each isoclinic component is lifted and encoded once, and a sum of
    components is the concatenation of their lifts.
    """
    if mode == "exact":
        subs = sm.exact_submodules(D)
    elif mode == "sampled":
        subs = sm.sampled_submodules(D, seed, ADMISSIBILITY_BUDGET)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    entries = []
    dimF = la.mat_dims(F_cols_L)[1]
    violation = None
    verdict = True
    equality_at_top = None
    k = sc.kernel(ext)
    lift = lambda x: k.entry(ext.lift(x))
    FT, lifts = la.Raw(k, k.encode_rows(zip(*F_cols_L))), {}
    for N, bound, pick in zip(subs.subspaces, subs.bounds, subs.picks):
        dN = la.mat_dims(N)[1]
        if dN == 0:
            entries.append((0, 0, 0))
            continue
        if bound is None:
            bound = D.submodule(N).t_N()
        if dN == D.n or not dimF:
            th = dimF
        else:
            rank_F = la.certified_rank(FT) if rank_F is None else rank_F
            for i in pick or ():
                if i not in lifts:
                    comp = subs.components[i][1]
                    lifts[i] = [list(map(lift, c)) for c in zip(*comp)]
            NT = ([c for i in pick for c in lifts[i]] if pick is not None
                  else [list(map(lift, c)) for c in zip(*N)])
            # t_H: dim(N_L cap F) = rank N_L + rank F - rank [N_L | F]
            th = dN + rank_F - la.certified_rank(la.Raw(k, NT + FT))
        entries.append((dN, th, bound))
        if th > bound:
            verdict = False
            if violation is None:
                violation = N
        if dN == D.n:
            equality_at_top = th == bound
            if not equality_at_top:
                verdict = False
                if violation is None:
                    violation = N
    return AdmissibilityReport(verdict, entries, subs.mode,
                               len(subs.subspaces), violation, equality_at_top)


def verify_violation(D: PhiModule, F_cols_L, ext, N_cols) -> bool:
    """Independently re-check a claimed violating submodule."""
    if not D.is_stable(N_cols):
        return False
    bound = D.submodule(N_cols).t_N() if len(N_cols[0]) < D.n else D.t_N()
    return t_H(F_cols_L, N_cols, ext, _rank(F_cols_L)) > bound


def admissible_with_fallback(D: PhiModule, F_cols_L, ext, mode: str,
                             seed: int,
                             rank_F: int | None = None) -> AdmissibilityReport:
    """is_admissible in the given mode; sampled where exact mode meets a
    repeated slope, on the decomposition the exact attempt stored on D."""
    try:
        return is_admissible(D, F_cols_L, ext, mode, seed, rank_F)
    except MultiplicityError:
        return is_admissible(D, F_cols_L, ext, "sampled", seed, rank_F)


class ExtensionReport:
    """Admissibility of F proved from 0 -> T -> D -> D_B -> 0 (see the
    module docstring).  The verdict is 'admissible' when T is phi-stable of
    pure slope 1, T_L lies in F, rank F = t + dim F_B and the quotient node
    accepts (D_B, F_B); otherwise it is 'not proved', reported as
    inadmissible.  The node is complete exactly when its quotient node is.
    rank F = t + dim F_B holds exactly when T_L <= F and F_B is the whole
    image of F, so the rank cross-checks the containment and F_B."""

    mode = "extension"

    def __init__(self, toric_dim, toric_slope, contained, rank_F,
                 quotient_filtration, quotient):
        self.toric_dim = toric_dim
        self.toric_slope = toric_slope    # T's slope if isoclinic, else None
        self.contained = contained        # T_L <= F, certified
        self.rank_F = rank_F
        self.quotient_filtration = quotient_filtration   # F_B, section basis
        self.quotient = quotient          # report for (D_B, F_B)
        self.verdict = (toric_slope == 1 and contained and quotient.verdict
                        and rank_F == toric_dim
                        + la.mat_dims(quotient_filtration)[1])

    @property
    def complete(self) -> bool:
        return self.quotient.complete

    def as_dict(self):
        return {
            "verdict": "admissible" if self.verdict else "inadmissible",
            "mode": self.mode,
            "complete": self.complete,
            "toric": {"dim": self.toric_dim,
                      "slope": (None if self.toric_slope is None
                                else str(self.toric_slope)),
                      "contained": self.contained},
            "quotient": self.quotient.as_dict(),
        }


def quotient_filtration(sa: SemiAbelianPhiModule, F_cols_L, ext):
    """F_B, the image of F in D_B: a column basis of the last n - t rows of
    full_inv * F, in the section basis on which D_B and gram_B live."""
    if not (sa.B_dim and la.mat_dims(F_cols_L)[1]):
        return [[] for _ in range(sa.B_dim)]
    coords = la.mat_mul(lift_matrix(ext, sa.full_inv), F_cols_L)[sa.t_dim:]
    return la.column_space_basis(coords)


def toric_extension_report(sa: SemiAbelianPhiModule, F_cols_L, ext,
                           seed: int = 0,
                           quotient: AdmissibilityReport | None = None,
                           rank_F: int | None = None) -> ExtensionReport:
    """The extension node for a module with a toric part (t > 0).

    Reads T's slope from ``sa.toric_slope()``, certified once per module
    from T's own Newton polygon (never from how sa was built), and
    certifies rank F (unless given), T_L <= F and F_B = the image of F in
    D_B, of rank its number of pivot columns.  The quotient node is exact
    on D_B, sampled with the given seed only when D_B has a repeated slope;
    D_B = 0 (a pure torus) is admissible with its one submodule.  A caller that certified (D_B, F_B) already, as the driver
    has for the F_B it pulled back, passes that report as quotient.
    """
    rank_F = _rank(F_cols_L) if rank_F is None else rank_F
    contained = la.subspace_leq(lift_matrix(ext, sa.toric_cols), F_cols_L,
                                rank_F)
    F_B = quotient_filtration(sa, F_cols_L, ext)
    if quotient is None:
        if sa.B_dim:
            quotient = admissible_with_fallback(
                sa.quotient_module(), F_B, ext, "exact", seed,
                la.mat_dims(F_B)[1])
        else:
            quotient = AdmissibilityReport(True, [(0, 0, Fraction(0))],
                                           "exact", 1, None, True)
    return ExtensionReport(sa.t_dim, sa.toric_slope(), contained, rank_F,
                           F_B, quotient)
