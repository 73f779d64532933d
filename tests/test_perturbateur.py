"""Eigenvalue multiplicities from the character table, perturbing elements,
isotypic projectors."""

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from isofilt.errors import InternalContradictionError, NotFiniteOrderError
from isofilt.fixtures import unramified, c4_k_rep, scalar_c2_rep
from isofilt.formats import group_from_json
from isofilt.groups.constructions import cyclic
from isofilt.groups.core import GroupRepresentation
from isofilt.groups import isotypic
from isofilt.groups.isotypic import (class_eigenvalue_multiplicities,
                                     find_perturbateur, get_character_table,
                                     isotypic_decomposition, is_K_elementary,
                                     matrix_order)
from isofilt.padic import linalg as la
from isofilt.padic.hensel import cyclotomic_int
from isofilt.padic.scalar import sc_mul, sc_pow

from oracles import quaternion_rep, rational_matmul, rational_rank

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _cyclic_rep(field, m, n):
    """The cyclic group of order n acting through powers of m."""
    return GroupRepresentation.from_generator_matrices(cyclic(n), field,
                                                       {"g1": m})


def _eigen_lists(rep):
    """Per element: sorted (order, multiplicity) per distinct eigenvalue."""
    ct = get_character_table(rep.group)
    counts = class_eigenvalue_multiplicities(rep)
    return [sorted((ct.e // gcd(ct.e, j), k)
                   for j, k in enumerate(counts[ct.class_of[x]]) if k)
            for x in range(rep.group.n)]


def _K(field):
    rep = quaternion_rep(field)
    return rep.mats[rep.group.names.index("k")]


def test_eigen_multiplicities_examples():
    Q4 = unramified(2, 2, 24)
    assert _eigen_lists(_cyclic_rep(Q4, _K(Q4), 4))[1] == [(4, 1), (4, 1)]
    mone = la.mat_scalar(Q4.scalar(-1), la.identity(Q4, 4))
    assert _eigen_lists(_cyclic_rep(Q4, mone, 2))[1] == [(2, 4)]
    ident = GroupRepresentation(cyclic(1), Q4, [la.identity(Q4, 3)])
    assert _eigen_lists(ident) == [[(1, 3)]]


def _h3(field):
    z3 = field.teichmuller(3)
    z = field.scalar(0)
    return [[z3, z, z], [z, z3, z], [z, z, sc_mul(z3, z3)]]


def test_eigen_multiplicities_prime_to_p():
    Q4 = unramified(2, 2, 24)
    assert _eigen_lists(_cyclic_rep(Q4, _h3(Q4), 3))[1] == [(3, 1), (3, 2)]


def test_eigen_multiplicities_mixed_order():
    # order 6 = 2 * 3 over Q_4
    Q4 = unramified(2, 2, 24)
    z6_sq = Q4.teichmuller(3)
    m = la.mat_scalar(Q4.scalar(-1), la.identity(Q4, 2))
    m[0][0] = sc_mul(m[0][0], z6_sq)  # -zeta_3: order 6
    assert _eigen_lists(_cyclic_rep(Q4, m, 6))[1] == [(2, 1), (6, 1)]


def test_eigen_multiplicities_order12():
    # order 12 = 4 * 3: eigenvalues +-i*zeta_3, a mixed p-power and
    # prime-to-p order
    Q4 = unramified(2, 2, 24)
    h = la.mat_scalar(Q4.teichmuller(3), _K(Q4))
    rep = _cyclic_rep(Q4, h, 12)
    assert _eigen_lists(rep)[1] == [(12, 1), (12, 1)]
    assert find_perturbateur(rep) == "g1"


def test_matrix_order_rejects_infinite(monkeypatch):
    Q2 = unramified(2, 1, 24)
    m = la.from_rows_of_fractions(Q2, [[1, 1], [0, 1]])
    monkeypatch.setattr(isotypic, "MATRIX_ORDER_CAP", 64)
    with pytest.raises(NotFiniteOrderError):
        matrix_order(m, Q2)


def test_perturbateur_examples():
    Q4 = unramified(2, 2, 24)
    ident = GroupRepresentation(cyclic(1), Q4, [la.identity(Q4, 2)])
    assert _eigen_lists(ident) == [[(1, 2)]]  # multiplicity 2 > 2/2
    assert find_perturbateur(_cyclic_rep(Q4, _K(Q4), 4)) == "g1"
    # every power of h3 has an eigenvalue of multiplicity 2 > 3/2, and h3
    # is not scalar
    with pytest.raises(InternalContradictionError):
        find_perturbateur(_cyclic_rep(Q4, _h3(Q4), 3))


def test_find_perturbateur_branches():
    Q4 = unramified(2, 2, 24)
    assert find_perturbateur(quaternion_rep(Q4)) in ("i", "-i", "j", "-j",
                                                     "k", "-k")
    assert find_perturbateur(scalar_c2_rep(Q4, 2)) == "homothety-action"
    # k acts non-scalar: a perturbing element instead of the homothety branch
    assert find_perturbateur(c4_k_rep(Q4)) == "g1"


def test_find_perturbateur_trichotomy_error():
    # non-elementary: trivial^2 + sign of C2 on dim 3 has no perturbing
    # element (multiplicity 2 > 3/2 everywhere) and is not scalar
    Q4 = unramified(2, 2, 24)
    G = cyclic(2)
    m = la.from_rows_of_fractions(Q4, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    rep = GroupRepresentation(G, Q4, [la.identity(Q4, 3), m])
    with pytest.raises(InternalContradictionError):
        find_perturbateur(rep)


def test_isotypic_decomposition_examples():
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    comps = isotypic_decomposition(rep)
    assert len(comps) == 1 and comps[0].dim == 2
    assert is_K_elementary(rep, comps)
    # trivial C2 action on dim 2: single component
    triv = GroupRepresentation(cyclic(2), Q4, [la.identity(Q4, 2)] * 2,
                               faithful=False)
    comps = isotypic_decomposition(triv)
    assert len(comps) == 1 and comps[0].dim == 2
    # diag(1,-1): two lines, not elementary
    sgn = GroupRepresentation(cyclic(2), Q4,
                              [la.identity(Q4, 2),
                               la.from_rows_of_fractions(Q4, [[1, 0], [0, -1]])])
    comps = isotypic_decomposition(sgn)
    assert sorted(c.dim for c in comps) == [1, 1]
    assert not is_K_elementary(sgn, comps)


def test_isotypic_q8_on_double_module():
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    G = rep.group
    dbl = [ _block_diag(Q4, rep.mats[x], rep.mats[x]) for x in range(G.n) ]
    rep2 = GroupRepresentation(G, Q4, dbl)
    comps = isotypic_decomposition(rep2)
    assert len(comps) == 1 and comps[0].dim == 4


def _block_diag(field, a, b):
    z = field.zero()
    n, m = len(a), len(b)
    out = [[z] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b[i][j]
    return out


def test_projectors_idempotent_commute_sum():
    Q4 = unramified(2, 2, 24)
    sgn = GroupRepresentation(cyclic(2), Q4,
                              [la.identity(Q4, 2),
                               la.from_rows_of_fractions(Q4, [[1, 0], [0, -1]])])
    comps = isotypic_decomposition(sgn)
    assert sum(c.dim for c in comps) == 2
    for c in comps:
        img = la.mat_mul(sgn.mats[1], c.basis_cols)
        assert la.subspace_leq(img, c.basis_cols)
        assert la.subspace_leq(c.basis_cols, img)


def test_dual_and_sum_keep_perturbation():
    # the perturbation property is preserved by direct sum, dual and twist
    Q4 = unramified(2, 2, 24)
    K = _K(Q4)
    dbl = _cyclic_rep(Q4, _block_diag(Q4, K, K), 4)
    assert _eigen_lists(dbl)[1] == [(4, 2), (4, 2)]
    assert find_perturbateur(dbl) == "g1"
    Kd = _cyclic_rep(Q4, la.transpose(la.mat_inverse(K)), 4)
    assert find_perturbateur(Kd) == "g1"


def test_cyclotomic_orbits_split_over_q4():
    # Phi_5 over Q_4 splits into two quadratics (ord_5(4) = 2): the cyclic
    # group acting through its companion matrix has two components of
    # dimension 2 and the four primitive fifth roots once each
    Q4 = unramified(2, 2, 24)
    companion = la.from_rows_of_fractions(Q4, [[0, 0, 0, -1], [1, 0, 0, -1],
                                               [0, 1, 0, -1], [0, 0, 1, -1]])
    rep = _cyclic_rep(Q4, companion, 5)
    assert sorted(c.dim for c in isotypic_decomposition(rep)) == [2, 2]
    assert _eigen_lists(rep)[1] == [(5, 1)] * 4
    assert find_perturbateur(rep) == "g1"


def _rational_rep(label):
    """(group document, rational matrices) of a fixture group."""
    if label == "sgn_dim3":
        doc = {"elements": ["e", "s"], "table": [[0, 1], [1, 0]],
               "rep": {"e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                       "s": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}}
    else:
        doc = json.loads((FIXTURES / f"{label}.json").read_text())
    rows = {name: [[Fraction(x) for x in row] for row in m]
            for name, m in doc["rep"].items()}
    return doc, rows


def _poly_at(poly, m):
    """sum poly[i] m^i over Q."""
    n = len(m)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in poly:
        acc = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, power)]
        power = rational_matmul(power, m)
    return acc


@pytest.mark.parametrize("label", ["c2_scalar_dim2", "c2_scalar_dim3",
                                   "trivial_group_dim3", "sgn_dim3"])
@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 1)])
def test_multiplicities_match_rational_oracle(label, p, f):
    # eigenvalues of order d of rho(g) number n - rank Phi_d(rho(g)) over Q
    doc, rows = _rational_rep(label)
    field = unramified(p, f, 24)
    n = len(next(iter(rows.values())))
    _, rep = group_from_json(doc, field, n)
    ct = get_character_table(rep.group)
    counts = class_eigenvalue_multiplicities(rep)
    for x, name in enumerate(rep.group.names):
        row = counts[ct.class_of[x]]
        for d in range(1, ct.e + 1):
            if ct.e % d:
                continue
            got = sum(k for j, k in enumerate(row) if ct.e // gcd(ct.e, j) == d)
            want = n - rational_rank(_poly_at(cyclotomic_int(d), rows[name]))
            assert got == want, (label, name, d)


def test_elementary_dim1_constituents_cyclic_image():
    # all constituents of dimension 1 and elementary: the image is cyclic
    Q7 = unramified(7, 1, 24)
    z6 = Q7.teichmuller(6)
    G = cyclic(6)
    m = [[z6, Q7.scalar(0)], [Q7.scalar(0), sc_pow(z6, 5)]]
    rep = GroupRepresentation.from_generator_matrices(G, Q7, {"g1": m})
    comps = isotypic_decomposition(rep)
    assert is_K_elementary(rep, comps)
    # image generated by one matrix: the generator's image generates
    seen = {tuple(tuple((x.val, x.unit) if x.kind == "reg" else (None, None)
                        for x in row) for row in rep.mats[g]) for g in range(6)}
    powers = set()
    cur = la.identity(Q7, 2)
    for _ in range(6):
        powers.add(tuple(tuple((x.val, x.unit) if x.kind == "reg" else (None, None)
                               for x in row) for row in cur))
        cur = la.mat_mul(cur, m)
    assert seen == powers
