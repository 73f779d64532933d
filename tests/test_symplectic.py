"""Lagrangian construction algorithms and chart sampling."""

import random
from fractions import Fraction

import pytest

from isofilt.errors import ValidationError
from isofilt.fixtures import unramified, quaternion_pair
from isofilt.isocrystal.module import standard_symplectic_gram
from isofilt.padic import linalg as la
from isofilt.padic.scalar import sc_inv, sc_pow, sc_add, sc_mul
from isofilt.precision import with_escalation
from isofilt.symplectic.space import SymplecticSpace, LagrangianSubspace
from isofilt.symplectic.lagrangian import (lagrangian_avoiding,
                                           lagrangian_h_small_intersection,
                                           random_rational_lagrangian)


def space_over(prec, g, p=2, f=1):
    field = unramified(p, f, prec)
    return SymplecticSpace(field, standard_symplectic_gram(field, g))


def test_symplectic_basis_properties():
    rng = random.Random(31)
    field = unramified(2, 1, 24)
    for _ in range(10):
        g = rng.randrange(1, 4)
        # random alternating invertible Gram
        while True:
            m = [[0] * (2 * g) for _ in range(2 * g)]
            for i in range(2 * g):
                for j in range(i + 1, 2 * g):
                    v = rng.randrange(-5, 6)
                    m[i][j] = v
                    m[j][i] = -v
            J = la.from_rows_of_fractions(field, m)
            try:
                sp = SymplecticSpace(field, J)
                break
            except Exception:
                continue
        B = sp.symplectic_basis()
        G = sp.pair_matrix(B, B)
        # shape [[0, I], [-I, 0]]
        for i in range(2 * g):
            for j in range(2 * g):
                want = 0
                if j == i + g:
                    want = 1
                elif i == j + g:
                    want = -1
                d = G[i][j] if want == 0 else \
                    la.mat_sub([[G[i][j]]], [[field.scalar(want)]])[0][0]
                assert d.kind != "reg"


def test_random_lagrangian_chart_cover_and_determinism():
    sp = space_over(24, 2)
    L1 = random_rational_lagrangian(sp, 42)
    L2 = random_rational_lagrangian(sp, 42)
    assert L1.dim == 2
    for i in range(4):
        for j in range(2):
            a, b = L1.basis_cols[i][j], L2.basis_cols[i][j]
            assert a.kind == b.kind
            if a.kind == "reg":
                assert a.val == b.val and a.unit == b.unit
    seen_swaps = set()
    for seed in range(40):
        rng = random.Random(seed)
        swaps = tuple(rng.random() < 0.5 for _ in range(2))
        seen_swaps.add(swaps)
    assert len(seen_swaps) == 4  # all four charts reachable


def test_lagrangian_avoiding_examples():
    sp1 = space_over(24, 1)
    field = sp1.field
    M = la.from_rows_of_fractions(field, [[1], [0]])
    F = lagrangian_avoiding(sp1, M, seed=0)
    assert la.intersection_dim(F.basis_cols, M) == 0
    F0 = lagrangian_avoiding(sp1, [[] for _ in range(2)], seed=1)
    assert F0.dim == 1


def test_lagrangian_avoiding_rejects_large_m():
    sp1 = space_over(24, 1)
    M = la.identity(sp1.field, 2)
    with pytest.raises(ValidationError):
        lagrangian_avoiding(sp1, M, seed=0)


def test_lagrangian_avoiding_random_sweep():
    rng = random.Random(33)
    checked = 0
    for t in range(60):
        g = rng.randrange(1, 5)
        dm = rng.randrange(0, g + 1)
        rows = [[rng.randrange(-9, 10) for _ in range(dm)]
                for _ in range(2 * g)]

        def run(prec):
            sp = space_over(prec, g)
            M = la.from_rows_of_fractions(sp.field, rows)
            if dm and la.certified_rank(la.transpose(M)) != dm:
                return False
            F = lagrangian_avoiding(sp, M, seed=t)
            assert F.dim == g
            if dm:
                assert la.intersection_dim(F.basis_cols, M) == 0
            return True

        if with_escalation(run, 24):
            checked += 1
    assert checked >= 40


def test_h_small_intersection_distinct_eigenvalues():
    field = unramified(7, 1, 24)
    sp = SymplecticSpace(field, standard_symplectic_gram(field, 1))
    z6 = field.teichmuller(6)
    h = [[z6, field.scalar(0)], [field.scalar(0), sc_inv(z6)]]
    big, F, H = lagrangian_h_small_intersection(sp, h)
    assert la.intersection_dim(F.basis_cols, la.mat_mul(H, F.basis_cols)) == 0


def test_h_small_intersection_triple_double_case():
    field = unramified(7, 1, 24)
    sp = SymplecticSpace(field, standard_symplectic_gram(field, 3))
    z3 = field.teichmuller(3)
    z = field.scalar(0)
    rows = [[z] * 6 for _ in range(6)]
    vals = [z3, sc_inv(z3), z3, sc_inv(z3), field.scalar(-1), field.scalar(-1)]
    for i in range(6):
        rows[i][i] = vals[i]
    big, F, H = lagrangian_h_small_intersection(sp, rows)
    assert la.intersection_dim(F.basis_cols, la.mat_mul(H, F.basis_cols)) <= 1


def test_h_small_intersection_quaternion_k():
    field = unramified(2, 2, 24)
    X, Y = quaternion_pair(field)
    K = la.mat_mul(X, Y)
    sp = SymplecticSpace(field, standard_symplectic_gram(field, 1))
    big, F, H = lagrangian_h_small_intersection(sp, K)
    assert big.field.level == "eisenstein"  # needed zeta_4
    assert la.intersection_dim(F.basis_cols, la.mat_mul(H, F.basis_cols)) <= 1


def test_h_small_intersection_rejects_non_perturbing():
    field = unramified(2, 1, 24)
    sp = SymplecticSpace(field, standard_symplectic_gram(field, 2))
    h = la.identity(field, 4)
    with pytest.raises(ValidationError):
        lagrangian_h_small_intersection(sp, h)


def test_h_small_intersection_rejects_non_symplectic():
    field = unramified(2, 1, 24)
    sp = SymplecticSpace(field, standard_symplectic_gram(field, 1))
    h = la.from_rows_of_fractions(field, [[2, 0], [0, 1]])
    with pytest.raises(ValidationError):
        lagrangian_h_small_intersection(sp, h)
