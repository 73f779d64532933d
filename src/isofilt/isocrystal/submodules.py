"""Sub-phi-module enumeration and sampling.

Exact mode lists all 2^k sums of the isoclinic components and requires every
component to be simple (dimension equal to the denominator of its slope);
that makes the enumeration complete at the working level, since a submodule
meets each simple component in 0 or everything.

Sampled mode adds pseudo-random phi-stable subspaces: kernels and images of
random elements U of the endomorphism algebra, which is computed by solving
U A = A sigma(U) coordinatewise over Q_p, and phi-spans of random vectors.
A candidate already listed (by ``_canonical_key``) is dropped unchecked.
Every other one carries one certified stability decision: ker U and im U,
which come from one reduced elimination of U, are checked by
``PhiModule.is_stable``; a phi-span is certified stable by the elimination
that ends its loop (see ``phi_span``).

Every returned basis is certified independent at the working level, so its
rank is its number of columns: a kernel basis has an identity block, an image
or a phi-span is a set of pivot columns, and ``isoclinic_decompose``
certifies that its components together have full rank.  So a stability check
costs one elimination, and a sum of components carries its t_N, read off the
decomposition (see ``SubmoduleSet``): exact mode needs no elimination over K.

Both modes start from ``isoclinic_decompose(D)``, which splits D once and
keeps the result on D; a sampled retry after exact mode raised
``MultiplicityError`` reuses that split.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from ..errors import MultiplicityError, PrecisionError
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.convert import coords_to_qp_scalars, embed_qp
from ..padic.descriptors import UnramifiedFieldDescriptor
from .module import PhiModule
from .slopes import isoclinic_decompose


def endomorphism_algebra(D: PhiModule):
    """Q_p-basis of {U : U A = A sigma(U)}, as matrices over the field."""
    field = D.field
    n, f = D.n, field.f
    qp = UnramifiedFieldDescriptor.create(field.p, 1, field.prec)
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
    ker = la.kernel_basis(big)
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
    """The subspaces to test, with t_N for each sum of isoclinic components
    (None for the others).  A component is ker fac(B), certified phi-stable,
    for a factor fac whose roots all have valuation rv, and the components
    are certified independent and spanning; so t_N of a sum is the sum of
    (rv/f) dim = slope * dim over its components.  ``picks`` names the
    components of each sum (None for the others), so that a caller can
    build a sum from its components."""

    def __init__(self, components, subspaces, bounds, picks, mode):
        self.components = components  # [(slope, basis_cols)]
        self.subspaces = subspaces    # [basis_cols] including 0 and D
        self.bounds = bounds          # [t_N or None], one per subspace
        self.picks = picks            # [component indices or None]
        self.mode = mode


def _component_sums(D, comps):
    """(component indices, basis columns, slope sum) of every sum of the
    components, by increasing number of summands.  The slope sums are added
    as integers over a common denominator, and a sum that is not an integer
    becomes a Fraction."""
    den = math.lcm(*(slope.denominator for slope, _ in comps))
    nums = [slope.numerator * (den // slope.denominator) * len(cols[0])
            for slope, cols in comps]
    for r in range(len(comps) + 1):
        for pick in combinations(range(len(comps)), r):
            t = sum(nums[i] for i in pick)
            yield (pick, _concat_cols(D, [comps[i][1] for i in pick]),
                   Fraction(t, den) if t % den else t // den)


def exact_submodules(D: PhiModule) -> SubmoduleSet:
    comps = isoclinic_decompose(D)
    for slope, cols in comps:
        b = slope.denominator
        if len(cols[0]) != b:
            raise MultiplicityError(
                f"slope {slope} component has dimension {len(cols[0])} != {b}; "
                "component is not simple at this level, use sampled mode")
    picks, subs, bounds = zip(*_component_sums(D, comps))
    return SubmoduleSet(comps, list(subs), list(bounds), list(picks), "exact")


def sampled_submodules(D: PhiModule, seed: int, budget: int) -> SubmoduleSet:
    """The sums of isoclinic components, then the new phi-stable subspaces
    that ``budget`` seeded tries find.  D's decomposition is the one stored
    on D when exact mode has already split it."""
    comps = isoclinic_decompose(D)
    rng = random.Random(seed)
    subs, bounds, picks = [], [], []
    seen = set()
    for pick, cols, bound in _component_sums(D, comps):
        key = _canonical_key(cols)
        if key not in seen:
            seen.add(key)
            subs.append(cols)
            bounds.append(bound)
            picks.append(pick)
    endo = endomorphism_algebra(D)
    tries = 0
    while tries < budget:
        tries += 1
        U = _random_combination(D.field, endo, rng)
        ker, im = _kernel_and_image(D, U)
        # right-multiple of a random vector under the algebra, closed under phi
        w = [[D.field.scalar(rng.randrange(-9, 10))] for _ in range(D.n)]
        if U is not None:
            w = la.mat_mul(U, w)
        # (candidate, whether it is certified phi-stable already); every
        # candidate is certified independent, so its rank is d
        for cand, stable in ((ker, False), (im, False),
                             (phi_span(D, w), True)):
            if cand is None:
                continue
            d = la.mat_dims(cand)[1]
            if d in (0, D.n):
                continue
            try:
                key = _canonical_key(cand)
            except PrecisionError:
                # an unstable candidate is dropped before its key matters
                if stable or D.is_stable(cand, rank=d):
                    raise
                continue
            if key in seen:
                continue
            if stable or D.is_stable(cand, rank=d):
                seen.add(key)
                subs.append(cand)
                bounds.append(None)
                picks.append(None)
    return SubmoduleSet(comps, subs, bounds, picks, "sampled")


def phi_span(D: PhiModule, cols):
    """Smallest phi-stable subspace containing the given columns, as pivot
    columns certified phi-stable; None when an elimination cannot be
    certified.

    Each step eliminates [cur | phi(cur)].  The columns of cur are the pivot
    columns of a certified elimination, and forward elimination of the
    leading columns runs as it did then, so they are pivots again: the step
    keeps cur and appends the pivot columns of phi(cur).  A step that appends
    none has certified rank [cur | phi(cur)] = rank cur, that is
    phi(cur) <= span(cur).  phi is applied only to the appended columns.
    """
    try:
        cur = la.column_space_basis(cols)
        if not (cur and cur[0]):
            return cur
        img = D.apply_phi(cur)
        while True:
            r = len(cur[0])
            _, pivots, _ = la.certified_row_reduce(
                la.hstack(cur, img), reduced=False, rows=False)
            if len(pivots) == r:
                return cur
            new = la.columns(img, [c - r for c in pivots[r:]])
            cur = la.hstack(cur, new)
            img = la.hstack(img, D.apply_phi(new))
    except PrecisionError:
        return None


def _concat_cols(D, col_list):
    return [[x for cols in col_list for x in cols[i]] for i in range(D.n)]


def _random_combination(field, basis, rng):
    coeffs = [rng.randrange(-3, 4) for _ in basis]
    if any(coeffs):
        return la.mat_lincomb([field.scalar(c) for c in coeffs], basis)
    return basis[rng.randrange(len(basis))] if basis else None


def _kernel_and_image(D, U):
    """(ker U, im U) as column matrices, None where not certified.

    Both come from one reduced elimination of U: its pivots are those of the
    forward elimination behind ``column_space_basis``, since back-substitution
    changes only rows of earlier pivots, which no later pivot search reads.
    When back-substitution raises, the image is computed alone by forward
    elimination.
    """
    if U is None:
        return None, None
    k = sc.kernel(D.field)
    try:
        ech, pivots, _ = la.certified_row_reduce(la.Raw(k, k.encode_rows(U)))
    except PrecisionError:
        try:
            return None, la.column_space_basis(U)
        except PrecisionError:
            return None, None
    ker = la.kernel_from_echelon(k, ech, pivots, D.n)
    cols = [[v[i] for v in ker] for i in range(D.n)]
    return k.decode_rows(cols), la.columns(U, pivots)


def _canonical_key(cols):
    """A key of the span of cols: equal keys are the same subspace to within
    the precision of both (see ``_SpanKey``)."""
    if not cols or not cols[0]:
        return ("dim", 0)
    ech, _, _ = la.certified_row_reduce(la.transpose(cols))
    return _SpanKey(ech)


class _SpanKey:
    """The reduced echelon form of a span, entry by entry: the kind and
    valuation of each entry, and the unit and relpi of each reg entry.

    Two keys are equal when their kinds and valuations agree and each pair
    of units agrees at every digit both certify, that is mod pi^r for r the
    smaller relpi; a coefficient of z^i u^j is known mod p^ceil((r - j)/e).
    So subspaces that differ at a certified digit get different keys, and
    one subspace met at two precisions gets equal keys.  The hash reads the
    kinds and valuations only."""

    __slots__ = ("shape", "units", "p", "e")

    def __init__(self, ech):
        shape, units = [], []
        for row in ech:
            for x in row:
                if x.kind == sc.REG:
                    shape.append(x.w)
                    units.append((x.unit, x.relpi))
                else:
                    shape.append(None)
        field = ech[0][0].field
        self.shape, self.units = tuple(shape), tuple(units)
        self.p, self.e = field.p, field.e

    def __hash__(self):
        return hash(self.shape)

    def __eq__(self, other):
        if not isinstance(other, _SpanKey):
            return NotImplemented
        if self.shape != other.shape:
            return False
        p, e = self.p, self.e
        for (u1, r1), (u2, r2) in zip(self.units, other.units):
            r = r1 if r1 < r2 else r2
            for k, (a, b) in enumerate(zip(u1, u2)):
                if (a - b) % p ** max(0, -((k % e - r) // e)):
                    return False
        return True
