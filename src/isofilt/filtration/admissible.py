"""Weak admissibility of one-step filtrations.

A filtration F over L is admissible for D when dim(N_L cap F) is at most the
slope sum of N for every sub-phi-module N, with equality at N = D.  Exact
mode enumerates all submodules (complete for multiplicity-free D at the
working level); sampled mode adds pseudo-random submodules and can only err
by accepting, never by rejecting: an inadmissible verdict always carries a
violating N as a re-checkable certificate.
"""

from __future__ import annotations

from fractions import Fraction

from ..padic import linalg as la
from ..isocrystal.module import PhiModule
from ..isocrystal.submodules import submodules
from .galois import lift_matrix


def t_H(F_cols_L, N_cols_K, ext, rank_F: int,
        guard: int = la.DEFAULT_GUARD, rank_N: int | None = None) -> int:
    """dim(N_L cap F) = rank N_L + rank F - rank [N_L | F], certified.

    rank_F is the certified rank of F, which the caller computes once for
    every N it tests.  rank_N is the rank of N when the caller knows N's
    columns to be certified independent at the working level, as every basis
    of a SubmoduleSet is; rank N_L is then dim N, since a field extension
    keeps ranks, and N costs one elimination.  With rank_N None the rank of
    N_L is certified here, for an N from outside: two eliminations.
    """
    if not (N_cols_K and N_cols_K[0]):
        return 0
    if not (F_cols_L and F_cols_L[0]):
        return 0
    NL = lift_matrix(ext, N_cols_K)
    if rank_N is None:
        rank_N = la.certified_rank(la.transpose(NL), guard)
    return (rank_N + rank_F
            - la.certified_rank(la.transpose(la.hstack(NL, F_cols_L)), guard))


def _rank(F_cols_L, guard):
    return la.certified_rank(la.transpose(F_cols_L), guard) \
        if F_cols_L and F_cols_L[0] else 0


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


def is_admissible(D: PhiModule, F_cols_L, ext, mode: str = "exact",
                  seed: int = 0, budget: int = 200,
                  guard: int = la.DEFAULT_GUARD,
                  components=None) -> AdmissibilityReport:
    """Check the slope bound over all (exact) or many (sampled) submodules.

    Sampled mode is one-sidedly sound: 'inadmissible' verdicts carry an
    explicit violating submodule; 'admissible' verdicts are complete only
    over the enumerated family.  ``components`` is D's isoclinic
    decomposition when the caller has it already (sampled mode).  Each
    proper N costs one elimination over L, since its basis is certified
    independent.
    """
    subs = submodules(D, mode, budget=budget, seed=seed, guard=guard,
                      components=components)
    entries = []
    dimF = len(F_cols_L[0]) if F_cols_L and F_cols_L[0] else 0
    violation = None
    verdict = True
    equality_at_top = None
    rank_F = None  # certified on first use: some modules have no proper N
    for N in subs.subspaces:
        dN = len(N[0]) if N and N[0] else 0
        if dN == 0:
            entries.append((0, 0, Fraction(0)))
            continue
        if dN == D.n:
            bound = D.t_N(guard)
            th = dimF
        else:
            sub = D.submodule(N, guard)
            bound = sub.t_N(guard)
            if rank_F is None:
                rank_F = _rank(F_cols_L, guard)
            th = t_H(F_cols_L, N, ext, rank_F, guard, rank_N=dN)
        entries.append((dN, th, bound))
        if th > bound:
            verdict = False
            if violation is None:
                violation = N
        if dN == D.n:
            equality_at_top = (Fraction(th) == bound)
            if not equality_at_top:
                verdict = False
                if violation is None:
                    violation = N
    return AdmissibilityReport(verdict, entries, subs.mode,
                               len(subs.subspaces), violation, equality_at_top)


def verify_violation(D: PhiModule, F_cols_L, ext, N_cols,
                     guard: int = la.DEFAULT_GUARD) -> bool:
    """Independently re-check a claimed violating submodule."""
    if not D.is_stable(N_cols, guard):
        return False
    bound = D.submodule(N_cols, guard).t_N(guard) if len(N_cols[0]) < D.n \
        else D.t_N(guard)
    return t_H(F_cols_L, N_cols, ext, _rank(F_cols_L, guard), guard) > bound
