"""Eigenvalue multiplicities, perturbation witnesses, isotypic projectors."""

import pytest
from fractions import Fraction

from isofilt.errors import InternalContradictionError, NotFiniteOrderError
from isofilt.fixtures import (unramified, quaternion_rep, c4_k_rep,
                              scalar_c2_rep, supersingular_module)
from isofilt.groups.constructions import cyclic, quaternion, direct_product
from isofilt.groups.core import GroupRepresentation
from isofilt.groups.isotypic import (eigen_multiplicities, is_perturbateur,
                                     find_perturbateur, isotypic_decomposition,
                                     is_K_elementary, matrix_order,
                                     cyclotomic_factors_prime_to_p)
from isofilt.padic import linalg as la
from isofilt.padic.scalar import sc_mul, sc_inv, sc_pow


def test_eigen_multiplicities_examples():
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    K = rep.mats[rep.group.names.index("k")]
    assert eigen_multiplicities(K, Q4, 4) == [(4, 1), (4, 1)]
    mone = la.mat_scalar(Q4.scalar(-1), la.identity(Q4, 4))
    assert eigen_multiplicities(mone, Q4, 2) == [(2, 4)]
    assert eigen_multiplicities(la.identity(Q4, 3), Q4, 1) == [(1, 3)]


def test_eigen_multiplicities_prime_to_p():
    Q4 = unramified(2, 2, 24)
    z3 = Q4.teichmuller(3)
    z = Q4.scalar(0)
    h = [[z3, z, z], [z, z3, z], [z, z, sc_mul(z3, z3)]]
    out = eigen_multiplicities(h, Q4, 3)
    assert sorted(out) == [(3, 1), (3, 2)]


def test_eigen_multiplicities_mixed_order():
    # order 6 = 2 * 3 over Q_4
    Q4 = unramified(2, 2, 24)
    z6_sq = Q4.teichmuller(3)
    m = la.mat_scalar(Q4.scalar(-1), la.identity(Q4, 2))
    m[0][0] = sc_mul(m[0][0], z6_sq)  # -zeta_3: order 6
    out = eigen_multiplicities(m, Q4)
    assert sorted(out) == [(2, 1), (6, 1)]


def test_eigen_multiplicities_order12_needs_interpolation():
    # order 12 = 4 * 3 needs the mixed-order factor construction
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    K = rep.mats[rep.group.names.index("k")]   # eigenvalues +-i
    z3 = Q4.teichmuller(3)
    h = la.mat_scalar(z3, K)                   # eigenvalues +-i*zeta_3
    out = eigen_multiplicities(h, Q4, 12)
    assert out == [(12, 1), (12, 1)]


def test_matrix_order_rejects_infinite():
    Q2 = unramified(2, 1, 24)
    m = la.from_rows_of_fractions(Q2, [[1, 1], [0, 1]])
    with pytest.raises(NotFiniteOrderError):
        matrix_order(m, Q2, cap=64)


def test_is_perturbateur_examples():
    Q4 = unramified(2, 2, 24)
    ok, _ = is_perturbateur(la.identity(Q4, 2), Q4, 1)
    assert not ok
    rep = quaternion_rep(Q4)
    K = rep.mats[rep.group.names.index("k")]
    ok, w = is_perturbateur(K, Q4, 4)
    assert ok and w.dim == 2
    z3 = Q4.teichmuller(3)
    z = Q4.scalar(0)
    h = [[z3, z, z], [z, z3, z], [z, z, sc_mul(z3, z3)]]
    ok, _ = is_perturbateur(h, Q4, 3)
    assert not ok  # multiplicity 2 > 3/2


def test_find_perturbateur_branches():
    Q4 = unramified(2, 2, 24)
    el, w = find_perturbateur(quaternion_rep(Q4))
    assert el in ("i", "-i", "j", "-j", "k", "-k") and w.holds()
    assert find_perturbateur(scalar_c2_rep(Q4, 2))[0] == "homothety-action"
    # C4 acting by scalars diag(i, i): homothety
    K = c4_k_rep(Q4).mats[1]
    i_scal = K  # k acts non-scalar: expect a witness instead
    assert find_perturbateur(c4_k_rep(Q4))[0] == "g1"


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
        assert la.subspace_equal(img, c.basis_cols)


def test_dual_and_sum_keep_perturbation():
    # the perturbation property is preserved by direct sum, dual and twist
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    K = rep.mats[rep.group.names.index("k")]
    dbl = _block_diag(Q4, K, K)
    ok, _ = is_perturbateur(dbl, Q4, 4)
    assert ok
    Kd = la.transpose(la.mat_inverse(K))
    ok, _ = is_perturbateur(Kd, Q4, 4)
    assert ok


def test_cyclotomic_factor_split_over_q4():
    # Phi_5 over Q_4 splits into two quadratics (ord_5(4) = 2)
    Q4 = unramified(2, 2, 24)
    facs = cyclotomic_factors_prime_to_p(Q4, 5)
    assert sorted(len(f) - 1 for f in facs) == [2, 2]
    # their product has the integer coefficients of Phi_5
    from isofilt.padic.scalar import sc_add, sc_sub
    prod = [Q4.zero()] * (len(facs[0]) + len(facs[1]) - 1)
    for i, x in enumerate(facs[0]):
        for j, y in enumerate(facs[1]):
            prod[i + j] = sc_add(prod[i + j], sc_mul(x, y))
    targets = [1, 1, 1, 1, 1]
    for got, want in zip(prod, targets):
        assert sc_sub(got, Q4.scalar(want)).kind != "reg"


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
