"""Isotypic decomposition over unramified p-adic fields, and perturbing
elements read from the character table.

The inertia group acts transitively on primitive p-power roots of unity and
an unramified Frobenius acts by q on the prime-to-p ones, so the Galois
orbits of characters over K_q are cut out by the multiplier subgroup
Gamma = (Z/p^k)^* x <q mod e'> of (Z/e)^*.  Summing the central idempotents
over such an orbit collapses all p-power cyclotomic contributions to Mobius
integers and leaves Gauss periods of prime-to-p roots, which live in K_q by
construction; the projectors therefore evaluate exactly at the working level
and no ramified extension is ever required.

The decomposition also fixes the character of the representation: every
character of one Galois orbit occurs with the same multiplicity, the
component's dimension divided by degree times orbit length.  The eigenvalue
multiplicities of each element are therefore sums of the table's exact
multiplicity vectors, and a perturbing element is decided on them with
integer arithmetic, without evaluating anything at the matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import (FieldIncompatibilityError, NotFiniteOrderError,
                      InternalContradictionError)
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.convert import UnramifiedEmbedding
from ..padic.descriptors import UnramifiedFieldDescriptor
from ..padic.ring import int_valuation
from .core import FiniteGroup, GroupRepresentation
from .characters import CharacterTable


def split_p_part(d: int, p: int) -> tuple[int, int]:
    """d = p^k * d' -> (p^k, d')."""
    k = int_valuation(d, p)
    return p ** k, d // p ** k


def galois_multipliers(e: int, p: int, frob: int) -> list[int]:
    """The subgroup of (Z/e)^* generated by the inertia action (everything on
    the p-part) and x -> x^frob on the prime-to-p part, as a sorted list."""
    pk, ep = split_p_part(e, p)
    group = set()
    # CRT enumeration
    units_p = [u for u in range(pk) if gcd(u, pk) == 1] if pk > 1 else [0]
    qs = []
    t = 1 % ep if ep > 1 else 0
    seen = set()
    while t not in seen:
        seen.add(t)
        qs.append(t)
        t = (t * frob) % ep if ep > 1 else 0
    for u in units_p:
        for y in qs:
            a = _crt(u, pk, y, ep)
            group.add(a % e if e > 1 else 0)
    return sorted(group)


def _crt(a, m, b, n):
    if m == 1:
        return b % n if n > 1 else 0
    if n == 1:
        return a % m
    inv = pow(m, -1, n)
    return (a + m * ((b - a) * inv % n)) % (m * n)


def character_orbits(ct: CharacterTable, field) -> list[tuple[int, ...]]:
    """Partition of the irreducible characters into Galois orbits over the
    field (an unramified level)."""
    e = ct.e
    mults = galois_multipliers(e, field.p, field.q % e if e > 1 else 1)
    seen = set()
    orbits = []
    for chi in range(ct.k):
        if chi in seen:
            continue
        orb = set()
        stack = [chi]
        while stack:
            x = stack.pop()
            if x in orb:
                continue
            orb.add(x)
            for a in mults:
                if e == 1 or gcd(a, e) == 1:
                    y = ct.twist(x, a if e > 1 else 1)
                    if y not in orb:
                        stack.append(y)
        orbits.append(tuple(sorted(orb)))
        seen |= orb
    return orbits


def _mobius_prime_power(d0: int) -> int:
    if d0 == 1:
        return 1
    # d0 = p^j
    p = 2
    while d0 % p:
        p += 1
    return -1 if d0 == p else 0


def _embedding_for(field, dprime: int):
    """(big field, embedding) with dprime | q_big - 1.  The embedding is a
    memo of the field, so it lives and dies with its level."""
    s = 1
    while (field.q ** s - 1) % dprime != 0:
        s += 1
        if s > 64:
            raise FieldIncompatibilityError("runaway unramified degree")
    if s == 1:
        return field, None
    emb = field.embeddings.get(s)
    if emb is None:
        big = UnramifiedFieldDescriptor.create(field.p, field.f * s, field.prec)
        emb = field.embeddings[s] = UnramifiedEmbedding(field, big)
    return emb.big, emb


def gauss_period(field, dprime: int, exps) -> "sc.Scalar":
    """sum of zeta_{d'}^y over the given exponent set, evaluated in the field
    (via a bigger unramified level and certified descent when needed)."""
    if dprime == 1:
        return field.scalar(len(list(exps)))
    big, emb = _embedding_for(field, dprime)
    z = big.teichmuller(dprime)
    acc = big.scalar(0)
    for y in exps:
        acc = sc.sc_add(acc, sc.sc_pow(z, y % dprime))
    if emb is None:
        return acc
    return emb.pull_back(acc)


def orbit_character_value(ct: CharacterTable, field, orbit, c: int):
    """sum over the orbit of chi(g_c), as a K_q scalar."""
    e = ct.e
    if e == 1:
        return field.scalar(sum(ct.degrees[chi] for chi in orbit))
    M = [0] * e
    for chi in orbit:
        for j, m in enumerate(ct.mult[chi][c]):
            M[j] += m
    mults = galois_multipliers(e, field.p, field.q % e)
    pk, ep = split_p_part(e, field.p)
    seen = [False] * e
    total = field.scalar(0)
    for j in range(e):
        if seen[j]:
            continue
        orb = sorted({(a * j) % e for a in mults})
        for jj in orb:
            seen[jj] = True
            if M[jj] != M[j]:
                raise InternalContradictionError(
                    "orbit-summed multiplicities are not Galois invariant")
        if M[j] == 0:
            continue
        x = (j * pow(ep, -1, pk)) % pk if pk > 1 else 0
        y = (j * pow(pk, -1, ep)) % ep if ep > 1 else 0
        d0 = pk // gcd(x, pk) if pk > 1 else 1
        mu = _mobius_prime_power(d0)
        if mu == 0:
            continue
        yset = sorted({(y * pow(field.q, t, ep)) % ep
                       for t in range(ep)}) if ep > 1 else [0]
        per = gauss_period(field, ep, yset)
        term = sc.sc_mul(field.scalar(M[j] * mu), per)
        total = sc.sc_add(total, term)
    return total


class IsotypicComponent:
    def __init__(self, basis_cols, orbit, degree, dim):
        self.basis_cols = basis_cols
        self.orbit = tuple(orbit)
        self.degree = degree          # complex irreducible degree
        self.dim = dim                # dimension over the field

    def __repr__(self):
        return f"IsotypicComponent(dim={self.dim}, orbit={self.orbit})"


def isotypic_decomposition(rep: GroupRepresentation):
    """G-stable, pairwise non-isomorphic components over the field, summing
    to the whole space; computed from orbit-summed central idempotents once
    per representation, which keeps them."""
    if rep._isotypic is None:
        rep._isotypic = _isotypic_decomposition(rep)
    return rep._isotypic


def _isotypic_decomposition(rep: GroupRepresentation):
    G = rep.group
    field = rep.field
    ct = get_character_table(G)
    orbits = character_orbits(ct, field)
    n = rep.dim
    # class sums of the representation
    one = field.one()
    class_sums = [la.mat_lincomb([one] * len(cls), [rep.mats[x] for x in cls])
                  for cls in ct.classes]
    inv_order = field.scalar(Fraction(1, G.n))
    comps = []
    for orbit in orbits:
        deg = ct.degrees[orbit[0]]
        P = la.mat_lincomb([orbit_character_value(ct, field, orbit, ct.inverse_class(c))
                            for c in range(ct.r)], class_sums)
        P = la.mat_scalar(sc.sc_mul(field.scalar(deg), inv_order), P)
        cols = la.column_space_basis(P)
        dim = la.mat_dims(cols)[1]
        if dim:
            comps.append(IsotypicComponent(cols, orbit, deg, dim))
    total = sum(c.dim for c in comps)
    if total != n:
        raise InternalContradictionError(
            f"isotypic components sum to {total} != {n}")
    return comps


def get_character_table(G: FiniteGroup) -> CharacterTable:
    """G's character table, built once and kept on G."""
    if G.character_table is None:
        G.character_table = CharacterTable(G)
    return G.character_table


# -- matrix orders and perturbing elements ----------------------------------------

# the largest order matrix_order searches
MATRIX_ORDER_CAP = 4096


def matrix_order(m, field) -> int:
    """The order of m, searched up to MATRIX_ORDER_CAP."""
    ident = la.identity(field, len(m))
    thr = la.relation_threshold(field)
    x = m
    for k in range(1, MATRIX_ORDER_CAP + 1):
        if la.mat_is_zero(la.mat_sub(x, ident), thr):
            return k
        x = la.mat_mul(x, m)
    raise NotFiniteOrderError(f"matrix has no order up to {MATRIX_ORDER_CAP}")


def class_eigenvalue_multiplicities(rep: GroupRepresentation):
    """counts[c][j]: the multiplicity of zeta_e^j as an eigenvalue of the
    matrices of class c (e the exponent, zeta_e as fixed by the character
    table), summed over the characters of the isotypic decomposition."""
    ct = get_character_table(rep.group)
    counts = [[0] * ct.e for _ in range(ct.r)]
    for comp in isotypic_decomposition(rep):
        m, rem = divmod(comp.dim, comp.degree * len(comp.orbit))
        if rem:
            raise InternalContradictionError(
                "component dimension is not a multiple of degree times orbit")
        for chi in comp.orbit:
            for c in range(ct.r):
                for j, k in enumerate(ct.mult[chi][c]):
                    counts[c][j] += m * k
    return counts


def find_perturbateur(rep: GroupRepresentation) -> str:
    """Name of the first element, in element-index order and skipping the
    identity, none of whose eigenspaces exceeds half the dimension;
    'homothety-action' when there is none and the image is scalar.

    The dichotomy is a theorem for elementary representations; a third
    outcome raises InternalContradictionError.
    """
    G = rep.group
    counts = class_eigenvalue_multiplicities(rep)
    class_of = get_character_table(G).class_of
    for x in range(G.n):
        if x != G.identity and 2 * max(counts[class_of[x]]) <= rep.dim:
            return G.names[x]
    if rep.is_scalar_image():
        return "homothety-action"
    raise InternalContradictionError(
        "no perturbing element and the action is not by homotheties; "
        "the input is not an elementary representation")


# -- K-elementarity at character level --------------------------------------------


def conjugates_over_qp(ct: CharacterTable, p: int, chi: int) -> set[int]:
    """chi's Galois conjugates over Q_p and their duals (the multipliers are
    units mod the exponent, so every twist exists)."""
    out = set()
    for a in galois_multipliers(ct.e, p, p % ct.e):
        t = ct.twist(chi, a)
        out.update((t, ct.dual(t)))
    return out


def is_K_elementary(rep: GroupRepresentation, components) -> bool:
    """All pairs of components conjugate over Q_p to each other or to each
    other's duals, decided at character level; components come from
    isotypic_decomposition(rep)."""
    if len({c.dim for c in components}) > 1:
        return False
    ct = get_character_table(rep.group)
    orbits = [set(c.orbit) for c in components]
    return all(orbits[j] & conjugates_over_qp(ct, rep.field.p, min(orbits[i]))
               for i in range(len(orbits)) for j in range(len(orbits))
               if i != j)
