"""Sub-phi-module enumeration and sampling.

Exact mode lists all 2^k sums of the isoclinic components and requires every
component to be simple (dimension equal to the denominator of its slope);
that makes the enumeration complete at the working level, since a submodule
meets each simple component in 0 or everything.

Sampled mode adds pseudo-random phi-stable subspaces obtained as kernels and
images of random elements of the endomorphism algebra, which is computed by
solving U A = A sigma(U) coordinatewise over Q_p.  Every sampled candidate is
re-checked for phi-stability before being returned.
"""

from __future__ import annotations

import random
from itertools import combinations

from ..errors import MultiplicityError, PrecisionError
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.convert import coords_to_qp_scalars, embed_qp
from .module import PhiModule
from .slopes import isoclinic_decompose, _qp_level


def endomorphism_algebra(D: PhiModule, guard: int = la.DEFAULT_GUARD):
    """Q_p-basis of {U : U A = A sigma(U)}, as matrices over the field."""
    field = D.field
    n, f = D.n, field.f
    qp = _qp_level(field)
    gen = field.gen()
    gens = [sc.sc_pow(gen, k) for k in range(f)]
    unknowns = []  # (i, j, k) -> basis matrix E_ij * z^k
    images = []
    for i in range(n):
        for j in range(n):
            for k in range(f):
                U = la.zeros(field, n, n)
                U[i][j] = gens[k]
                V = la.mat_sub(la.mat_mul(U, D.A),
                               la.mat_mul(D.A, la.mat_frobenius(U)))
                col = []
                for a in range(n):
                    for b in range(n):
                        col.extend(coords_to_qp_scalars(V[a][b], qp))
                unknowns.append((i, j, k))
                images.append(col)
    big = [[images[c][r] for c in range(len(images))] for r in range(len(images[0]))]
    ker = la.kernel_basis(big, guard)
    basis = []
    for vec in ker:
        U = la.zeros(field, n, n)
        for (i, j, k), coeff in zip(unknowns, vec):
            if coeff.kind != sc.REG:
                continue
            term = sc.sc_mul(embed_qp(coeff, field), gens[k])
            U[i][j] = sc.sc_add(U[i][j], term)
        basis.append(U)
    return basis


class SubmoduleSet:
    def __init__(self, components, subspaces, mode, seed=None):
        self.components = components  # [(slope, basis_cols)]
        self.subspaces = subspaces    # [basis_cols] including 0 and D
        self.mode = mode
        self.seed = seed


def exact_submodules(D: PhiModule, guard: int = la.DEFAULT_GUARD) -> SubmoduleSet:
    comps = isoclinic_decompose(D, guard)
    for slope, cols in comps:
        b = slope.denominator
        if len(cols[0]) != b:
            raise MultiplicityError(
                f"slope {slope} component has dimension {len(cols[0])} != {b}; "
                "component is not simple at this level, use sampled mode")
    subs = []
    k = len(comps)
    for r in range(k + 1):
        for pick in combinations(range(k), r):
            cols = _concat_cols(D, [comps[i][1] for i in pick])
            subs.append(cols)
    return SubmoduleSet(comps, subs, "exact")


def sampled_submodules(D: PhiModule, seed: int, budget: int,
                       guard: int = la.DEFAULT_GUARD) -> SubmoduleSet:
    comps = isoclinic_decompose(D, guard)
    rng = random.Random(seed)
    subs = []
    seen = set()

    def push(cols):
        key = _canonical_key(cols, guard)
        if key in seen:
            return False
        seen.add(key)
        subs.append(cols)
        return True

    k = len(comps)
    for r in range(k + 1):
        for pick in combinations(range(k), r):
            push(_concat_cols(D, [comps[i][1] for i in pick]))
    endo = endomorphism_algebra(D, guard)
    tries = 0
    while tries < budget:
        tries += 1
        U = _random_combination(D.field, endo, rng)
        cands = [_kernel_cols(D, U, guard), _image_cols(D, U, guard)]
        # right-multiple of a random vector under the algebra, closed under phi
        w = [[D.field.scalar(rng.randrange(-9, 10))] for _ in range(D.n)]
        if U is not None:
            w = la.mat_mul(U, w)
        cands.append(phi_span(D, w, guard))
        for cand in cands:
            if cand is None:
                continue
            d = len(cand[0]) if cand and cand[0] else 0
            if d in (0, D.n):
                continue
            if D.is_stable(cand, guard):
                push(cand)
    return SubmoduleSet(comps, subs, "sampled", seed)


def phi_span(D: PhiModule, cols, guard: int = la.DEFAULT_GUARD):
    """Smallest phi-stable subspace containing the given columns."""
    try:
        cur = la.column_space_basis(cols, guard)
        for _ in range(D.n + 1):
            r = len(cur[0]) if cur and cur[0] else 0
            if r == 0:
                return cur
            nxt = la.column_space_basis(la.hstack(cur, D.apply_phi(cur)), guard)
            if len(nxt[0]) == r:
                return nxt
            cur = nxt
    except PrecisionError:
        return None
    return cur


def submodules(D: PhiModule, mode: str = "exact", budget: int = 0,
               seed: int = 0, guard: int = la.DEFAULT_GUARD) -> SubmoduleSet:
    if mode == "exact":
        return exact_submodules(D, guard)
    if mode == "sampled":
        return sampled_submodules(D, seed, budget, guard)
    raise ValueError(f"unknown mode {mode!r}")


def _concat_cols(D, col_list):
    field = D.field
    n = D.n
    if not col_list:
        return [[] for _ in range(n)]
    out = [[] for _ in range(n)]
    for cols in col_list:
        for i in range(n):
            out[i].extend(cols[i])
    return out


def _random_combination(field, basis, rng):
    U = None
    for M in basis:
        c = rng.randrange(-3, 4)
        if c == 0:
            continue
        term = la.mat_scalar(field.scalar(c), M)
        U = term if U is None else la.mat_add(U, term)
    if U is None and basis:
        U = basis[rng.randrange(len(basis))]
    return U


def _kernel_cols(D, U, guard):
    if U is None:
        return None
    try:
        ker = la.kernel_basis(U, guard)
    except PrecisionError:
        return None
    if not ker:
        return [[] for _ in range(D.n)]
    return [[v[i] for v in ker] for i in range(D.n)]


def _image_cols(D, U, guard):
    if U is None:
        return None
    try:
        return la.column_space_basis(U, guard)
    except PrecisionError:
        return None


def _canonical_key(cols, guard):
    if not cols or not cols[0]:
        return ("dim", 0)
    ech, _, _ = la.certified_row_reduce(la.transpose(cols), guard)
    key = []
    for row in ech:
        for x in row:
            if x.kind == sc.REG:
                key.append((x.w, tuple(c % x.field.p ** 8 for c in x.unit)))
            else:
                key.append(("z",))
    return tuple(key)
