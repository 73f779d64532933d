"""The slope split and exact admissibility on raw rows.

``isoclinic_decompose`` chains raw rows (``linalg.Raw``) from Horner's
evaluation of each slope factor to its kernel, its phi-stability and the
independence rank.  The Scalar functions compose the same steps: Horner by
``mat_mul`` and ``sc_add``, then ``kernel_basis``, ``PhiModule.is_stable``
and ``certified_rank``.  Both run the same rules on the same entries, so
the components agree Scalar for Scalar, at f = 2, in the Kummer rings
t^2 = 2 and t^3 = 2, and with three components.

Exact ``is_admissible`` lifts each component to L once and ranks each sum
of components on the concatenation of their lifts; its ledger over the 2^3
sums of a three-component module is checked against exact rationals.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from isofilt.filtration.admissible import is_admissible
from isofilt.fixtures import trivial_extension, unramified
from isofilt.isocrystal import slopes
from isofilt.isocrystal.module import PhiModule
from isofilt.padic import linalg as la
from isofilt.padic import scalar as sc
from isofilt.padic.convert import embed_qp
from oracles import base_change, rational_intersection_dim, rational_rank


def _key(x):
    return (x.kind, x.w, x.unit, x.relpi, x.zw)


def _keys(cols):
    return [[_key(x) for x in row] for row in cols]


def _simple_sum(field, blocks):
    D = None
    for s, r in blocks:
        M = PhiModule.simple(field, s, r)
        D = M if D is None else D.direct_sum(M)
    return D


def _seeded_sum(f, blocks, prec, seed):
    """The sum of simple modules in a seeded unipotent basis."""
    rng = random.Random(seed)
    field = unramified(2, f, prec)
    blocks = list(blocks)
    rng.shuffle(blocks)
    D = _simple_sum(field, blocks)
    n = D.n
    return base_change(D, la.from_rows_of_fractions(field, [
        [1 if i == j else rng.randrange(-3, 4) if i < j else 0
         for j in range(n)] for i in range(n)]))


def _scalar_split(D):
    """The components as the Scalar functions compose them."""
    n, field = D.n, D.field
    B = D.linearization()
    out = []
    for rv, fac in slopes.slope_factors(D):
        M = la.zeros(field, n, n)
        for c in reversed([embed_qp(c, field) for c in fac]):
            M = la.mat_mul(M, B)
            for i in range(n):
                M[i][i] = sc.sc_add(M[i][i], c)
        ker = la.kernel_basis(M)
        cols = [[v[i] for v in ker] for i in range(n)]
        assert D.is_stable(cols, rank=len(ker))
        out.append((rv / field.f, cols))
    assert la.certified_rank(
        [[x for _, c in out for x in c[i]] for i in range(n)]) == n
    return sorted(out, key=lambda t: t[0])


SPLITS = [
    # (f, blocks s/r, N): f = 2 linearizations, then the Kummer rings
    # t^2 = 2 and t^3 = 2 over Q_2, then three components
    (2, ((0, 1), (1, 2)), 24),
    (2, ((0, 1), (1, 1)), 24),
    (1, ((1, 2), (1, 1)), 32),
    (1, ((1, 3), (1, 1)), 32),
    (1, ((0, 1), (1, 2), (1, 1)), 32),
    (2, ((0, 1), (1, 2), (1, 1)), 24),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("f, blocks, prec", SPLITS)
def test_raw_split_is_the_scalar_composition(f, blocks, prec, seed):
    D = _seeded_sum(f, blocks, prec, seed)
    want = _scalar_split(D)
    got = slopes.isoclinic_decompose(_seeded_sum(f, blocks, prec, seed))
    assert [s for s, _ in got] == sorted(Fraction(s, r) for s, r in blocks)
    assert [(s, _keys(c)) for s, c in got] == [(s, _keys(c)) for s, c in want]


@pytest.mark.parametrize("seed", range(4))
def test_three_component_ledger_matches_the_rational_oracle(monkeypatch, seed):
    rng = random.Random(seed)
    blocks = [(0, 1), (1, 2), (1, 1)]
    rng.shuffle(blocks)
    n, t_n = 4, sum(s for s, _ in blocks)
    while True:
        rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(t_n)]
                for _ in range(n)]
        if rational_rank(rows) == t_n:
            break
    field = unramified(2, 1, 32)
    ext = trivial_extension(field)
    D = _simple_sum(field, blocks)
    F = [[ext.lift(x) for x in row]
         for row in la.from_rows_of_fractions(field, rows)]
    lifts = []
    lift = type(ext).lift

    def counting(self, x):
        lifts.append(x)
        return lift(self, x)

    monkeypatch.setattr(type(ext), "lift", counting)
    report = is_admissible(D, F, ext, "exact")
    # each component is lifted once: n entries per column, n columns
    assert len(lifts) == n * n
    ledger, verdict, off = [], True, 0
    offsets = []
    for s, r in blocks:
        offsets.append((off, s, r))
        off += r
    for k in range(len(blocks) + 1):
        for pick in combinations(offsets, k):
            dim_n = sum(r for _, _, r in pick)
            bound = sum(s for _, s, _ in pick)
            cols = [[Fraction(int(i == o + j)) for o, _, r in pick
                     for j in range(r)] for i in range(n)]
            t_h = rational_intersection_dim(cols, rows) if dim_n else 0
            ledger.append((dim_n, t_h, bound))
            if t_h > bound or (dim_n == n and t_h != bound):
                verdict = False
    assert len(report.entries) == 8
    assert sorted(report.entries) == sorted(ledger)
    assert report.verdict == verdict
    # the bounds are ints, written out as their Fractions were
    assert [e["t_N"] for e in report.as_dict()["ledger"]] == [
        str(Fraction(b)) for _, _, b in report.entries]


@pytest.mark.parametrize("f", [1, 2])
def test_sigma_on_raw_rows_is_mat_frobenius(f):
    # at f = 1 sigma is the identity and both return their argument
    field = unramified(2, f, 24)
    m = [[field.zero(), field.scalar(Fraction(3, 4))],
         [sc.sc_izero(field, 30), sc.sc_add(field.gen(), field.scalar(2))]]
    k = sc.kernel(field)
    rows = k.encode_rows(m)
    got, raw = la.mat_frobenius(m), la.frobenius_rows(k, rows)
    assert (got is m and raw is rows) == (f == 1)
    assert _keys(got) == _keys(k.decode_rows(raw))
    assert _keys(got) == _keys([[sc.sc_frobenius(x) for x in row] for row in m])
