"""Shipped arithmetic fixtures: what the CLI, the benchmark and the
acceptance suite build their inputs from.

* ``unramified``, the level K_q, built once per (p, f, precision);
* the supersingular 2x2 module phi = [[0,2],[1,0]] and its g-fold direct
  sum (``block_frobenius_module``, the CLI's wreath demo);
* an explicit quaternion pair inside its endomorphism algebra over Q_4
  (entries are Hensel data: one square root of -3/5 in Z_2 enters, so the
  matrices are precision-N digit data rather than rationals -- no rational
  realization exists, the relevant norm form is definite over Q);
* the trivial step L = K_q, the C2 extension Q_2(sqrt 2), the C4 extension
  cut out by x^4 - 4x^2 + 2 (the real subfield of the 16th cyclotomic
  tower, generator acting by u -> u^3 - 3u), and the p^k-th cyclotomic step
  that ``lagrangian_h_small_intersection`` climbs to for its eigenvalues;
* C2 acting by scalars, C4 generated by the quaternion k, and block
  realizations of the 2-Sylow of the quaternion wreath groups.

All constructors take the working precision and rebuild deterministically,
which is what the retry-at-doubled-precision driver needs.  Builders that
only tests use live with those tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import ValidationError
from .padic import linalg as la
from .padic import scalar as sc
from .padic.descriptors import UnramifiedFieldDescriptor, EisensteinExtensionDescriptor
from .padic.hensel import sqrt_mod_ppow
from .isocrystal.module import PhiModule
from .groups.core import GroupRepresentation
from .groups.constructions import quaternion, cyclic, wreath_q8_sylow


def unramified(p: int, f: int, prec: int) -> UnramifiedFieldDescriptor:
    return UnramifiedFieldDescriptor.create(p, f, prec)


def supersingular_module(field) -> PhiModule:
    return PhiModule.from_rational(field, [[0, 2], [1, 0]])


# -- extensions -------------------------------------------------------------------


def trivial_extension(base) -> EisensteinExtensionDescriptor:
    """The degenerate step L = K_q (u = p), for trivial Galois groups."""
    return EisensteinExtensionDescriptor.create(base, (-base.p, 1), {"1": [base.p]})


def sqrt2_extension(base) -> EisensteinExtensionDescriptor:
    """Q(sqrt 2)-type C2 step: u^2 = 2, conjugation u -> -u."""
    if base.p != 2:
        raise ValidationError("sqrt(2) step needs p = 2")
    return EisensteinExtensionDescriptor.create(
        base, (-2, 0, 1), {"1": [0, 1], "s": [0, -1]})


def c4_cyclotomic_extension(base) -> EisensteinExtensionDescriptor:
    """Degree-4 totally ramified C4 step cut out by x^4 - 4x^2 + 2 (the
    uniformizer is zeta_16 + zeta_16^{-1}); the generator sends u to
    u^3 - 3u and squares to -u."""
    if base.p != 2:
        raise ValidationError("this cyclotomic step needs p = 2")
    return EisensteinExtensionDescriptor.create(
        base, (2, 0, -4, 0, 1),
        {"1": [0, 1], "g": [0, -3, 0, 1], "g2": [0, -1], "g3": [0, 3, 0, -1]})


def cyclotomic_p_power_extension(base, k: int) -> EisensteinExtensionDescriptor:
    """The p^k-th cyclotomic step over an unramified base (p = 2, k = 2:
    x^2 - 2x + 2 with zeta_4 = u - 1... the uniformizer is zeta - 1)."""
    p = base.p
    pk = p ** k
    from .padic.hensel import cyclotomic_int
    cyc = cyclotomic_int(pk)
    # minimal polynomial of zeta - 1: expand Phi_{pk}(u + 1)
    e = len(cyc) - 1
    coeffs = [0] * (e + 1)
    for i, ci in enumerate(cyc):
        if ci:
            for j in range(i + 1):
                coeffs[j] += ci * comb(i, j)
    auts = {}
    for a in range(1, pk):
        if a % p == 0:
            continue
        # u -> (1+u)^a - 1, reduced mod E over Z
        poly = [comb(a, j) for j in range(a + 1)]
        poly[0] -= 1
        for deg in range(len(poly) - 1, e - 1, -1):
            c = poly[deg]
            if c:
                for j in range(e + 1):
                    poly[deg - e + j] -= c * coeffs[j]
        poly = poly[:e]
        auts["1" if a == 1 else f"s{a}"] = poly
    return EisensteinExtensionDescriptor.create(base, tuple(coeffs), auts)


# -- quaternion action on the supersingular module --------------------------------


def quaternion_pair(field):
    """Matrices X, Y over Q_4 with X^2 = Y^2 = -1, XY = -YX, both commuting
    with phi = [[0,2],[1,0]] semilinearly and of determinant one.

    X is integral-exact; Y needs the 2-adic square root of -3/5.
    """
    if field.p != 2 or field.f != 2:
        raise ValidationError("the quaternion pair lives over Q_4")
    w = field.gen()                          # omega, a primitive cube root
    delta = sc.sc_add(sc.sc_mul(field.scalar(2), w), field.one())  # 2w + 1
    X = [[delta, field.scalar(2)],
         [field.one(), sc.sc_neg(delta)]]
    s_int = sqrt_mod_ppow((-3 * pow(5, -1, 2 ** field.prec)) % 2 ** field.prec,
                          2, field.prec)
    s = sc.Scalar(field, sc.REG, w=0,
                  unit=field.ring.from_int(s_int), relpi=field.relpi_max)
    third = field.scalar(Fraction(-1, 3))
    w2 = sc.sc_frobenius(w)
    y0 = [[sc.sc_mul(third, delta), sc.sc_mul(field.scalar(2), w2)],
          [w, sc.sc_neg(sc.sc_mul(third, delta))]]
    Y = la.mat_scalar(s, y0)
    return X, Y


def scalar_c2_rep(field, dim: int) -> GroupRepresentation:
    """C2 = {+-1} acting by scalars on a dim-dimensional module."""
    G = cyclic(2)
    mats = [la.identity(field, dim),
            la.mat_scalar(field.scalar(-1), la.identity(field, dim))]
    return GroupRepresentation(G, field, mats)


def c4_k_rep(field) -> GroupRepresentation:
    """C4 generated by the quaternion element k on the supersingular module."""
    X, Y = quaternion_pair(field)
    K = la.mat_mul(X, Y)
    G = cyclic(4)
    return GroupRepresentation.from_generator_matrices(G, field, {"g1": K})


def wreath_block_rep(field, g: int) -> GroupRepresentation:
    """The 2-Sylow of Q8 wr S_g acting on (the supersingular module)^g by
    permutation-of-blocks matrices with quaternion-unit blocks."""
    W = wreath_q8_sylow(g)
    q8 = quaternion()
    X, Y = quaternion_pair(field)
    base = {}
    base[q8.names.index("1")] = la.identity(field, 2)
    base[q8.names.index("i")] = X
    base[q8.names.index("j")] = Y
    base[q8.names.index("k")] = la.mat_mul(X, Y)
    mone = la.mat_scalar(field.scalar(-1), la.identity(field, 2))
    for nm in ("1", "i", "j", "k"):
        idx = q8.names.index(nm)
        neg = q8.names.index("-" + nm if nm != "1" else "-1")
        base[neg] = la.mat_mul(mone, base[idx])
    n = 2 * g
    mats = []
    if g == 1:
        # the symbolic group is Q8 itself
        return GroupRepresentation(W, field, [base[x] for x in range(W.n)])
    for el in W.raw_elements:
        qpart, perm = el[:-1], el[-1]
        m = la.zeros(field, n, n)
        for i in range(g):
            j = perm.index(i)  # source block
            blk = base[qpart[i]]
            for a in range(2):
                for b in range(2):
                    m[2 * i + a][2 * j + b] = blk[a][b]
        mats.append(m)
    return GroupRepresentation(W, field, mats)


def block_frobenius_module(field, g: int) -> PhiModule:
    D = supersingular_module(field)
    M = D
    for _ in range(g - 1):
        M = M.direct_sum(supersingular_module(field))
    return M
