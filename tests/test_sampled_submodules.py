"""The sampled submodule family: same subspaces as before, fewer eliminations.

``sampled_submodules`` certifies each decision once: a phi-span is stable by
the elimination that ends its loop, a candidate whose key is already listed
is dropped unchecked, and ker U and im U share one reduced elimination.  The
reference in ``oracles.sampled_submodules_reference`` re-checks everything;
the family must match it subspace for subspace and entry for entry.  A
counting guard pins the eliminations saved, and that ``is_admissible`` spends
one elimination over L per proper submodule.
"""

import json
import os

import pytest

from isofilt import formats
from isofilt.errors import MultiplicityError
from isofilt.filtration import admissible
from isofilt.filtration.admissible import is_admissible
from isofilt.filtration.galois import lift_matrix
from isofilt.fixtures import sqrt2_extension, unramified
from isofilt.isocrystal import slopes, submodules as sm
from isofilt.isocrystal.module import PhiModule
from isofilt.isocrystal.slopes import isoclinic_decompose
from isofilt.padic import linalg as la
from isofilt.padic import scalar as sc
from oracles import base_change, sampled_submodules_reference

N = 32
FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _torus():
    with open(os.path.join(FIX, "ordinary_torus.json")) as fh:
        return formats.module_from_json(json.load(fh))[0].module


def _ss(field):
    return PhiModule.from_rational(field, [[0, 2], [1, 0]])


def _conjugated(field, diag, basis):
    """diag(...) in the basis given by the columns of basis."""
    n = len(diag)
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    D = PhiModule.from_rational(field, rows)
    return base_change(D, la.from_rows_of_fractions(field, basis))


def _modules():
    Q2, Q4 = unramified(2, 1, N), unramified(2, 2, N)
    return {
        "ordinary_torus": _torus(),
        "q2_slopes_001": PhiModule.from_rational(
            Q2, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        "q2_slopes_011_conjugated": _conjugated(
            Q2, [1, 2, 2], [[1, 1, 0], [0, 1, 3], [1, 0, 1]]),
        "q2_ss_squared": _ss(Q2).direct_sum(_ss(Q2)),
        "q4_ss_squared": _ss(Q4).direct_sum(_ss(Q4)),
        "q4_slopes_001_conjugated": _conjugated(
            Q4, [1, 1, 2], [[1, 0, 1], [2, 1, 0], [0, 1, 1]]),
    }


MODULES = _modules()
CASES = ([(name, budget, seed) for name in MODULES for budget in (0, 1, 20)
          for seed in (3, 17, 40)]
         + [(name, 200, seed) for name in MODULES for seed in (5, 29)])


def _entries(cols):
    return [[(x.kind, x.w, x.unit, x.relpi, x.zw) for x in row]
            for row in cols]


@pytest.mark.parametrize("name, budget, seed", CASES)
def test_sampled_family_matches_the_reference(name, budget, seed):
    D = MODULES[name]
    got = sm.sampled_submodules(D, seed, budget)
    want = sampled_submodules_reference(D, seed, budget)
    assert got.mode == "sampled"
    assert len(got.subspaces) == len(want)
    for a, b in zip(got.subspaces, want):
        assert _entries(a) == _entries(b)


def test_fallback_splits_the_module_once(monkeypatch):
    # exact mode stores the split on D before it raises, and the sampled
    # retry reads it back instead of running the Hensel split again
    D = _torus()
    calls = []
    slope_factors = slopes.slope_factors

    def counting(module):
        calls.append(module)
        return slope_factors(module)

    monkeypatch.setattr(slopes, "slope_factors", counting)
    with pytest.raises(MultiplicityError):
        sm.exact_submodules(D)
    assert calls == [D]
    retry = sm.sampled_submodules(D, 7, 20)
    assert calls == [D]
    monkeypatch.undo()
    fresh = sm.sampled_submodules(_torus(), 7, 20)
    assert [_entries(c) for c in retry.subspaces] == \
        [_entries(c) for c in fresh.subspaces]


# -- the counting guard ---------------------------------------------------------------


def _count_sampling(monkeypatch, D, seed, budget):
    """Run sampled_submodules on D, recording the phi-spans, the stability
    checks with the keys of their candidates, the random elements U and the
    eliminations of each U."""
    comps = isoclinic_decompose(D)
    key_of = sm._canonical_key
    spans, checks, keys, Us, on_U = [], [], [], [], []
    phi_span, is_stable = sm.phi_span, PhiModule.is_stable
    random_combination = sm._random_combination
    row_reduce = la.certified_row_reduce

    def spy_span(*args, **kwargs):
        out = phi_span(*args, **kwargs)
        spans.append(out)
        return out

    def spy_stable(self, cols, rank=None):
        key = key_of(cols)
        ok = is_stable(self, cols, rank)
        checks.append((cols, key, ok))
        return ok

    def spy_key(cols):
        keys.append(cols)
        return key_of(cols)

    def spy_combination(*args):
        U = random_combination(*args)
        Us.append(U)
        return U

    def spy_reduce(m, *args, **kwargs):
        if any(_is_matrix(m, U) for U in Us):
            on_U.append(m)
        return row_reduce(m, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(sm, "phi_span", spy_span)
        patch.setattr(PhiModule, "is_stable", spy_stable)
        patch.setattr(sm, "_canonical_key", spy_key)
        patch.setattr(sm, "_random_combination", spy_combination)
        patch.setattr(la, "certified_row_reduce", spy_reduce)
        res = sm.sampled_submodules(D, seed, budget)
    return res, comps, spans, checks, keys, Us, on_U


@pytest.mark.parametrize("name",
                         ["ordinary_torus", "q4_slopes_001_conjugated"])
def test_each_sampled_decision_is_certified_once(monkeypatch, name):
    D = MODULES[name]
    res, comps, spans, checks, keys, Us, on_U = _count_sampling(
        monkeypatch, D, 11, 20)
    # the sums of components come first and need no stability check
    listed = {sm._canonical_key(c) for c in res.subspaces[:2 ** len(comps)]}
    # no stability check on a phi-span ...
    assert spans and not any(cols is s for cols, _, _ in checks for s in spans)
    # ... nor on a subspace already listed
    for _, key, ok in checks:
        assert key not in listed
        if ok:
            listed.add(key)
    # the family repeats itself, so deduplication had work to do
    assert len(keys) > len(res.subspaces)
    # ker U and im U: one elimination of each U, one U per try
    assert len(Us) == 20 and all(U is not None for U in Us)
    assert len(on_U) == len(Us)
    assert all(any(_is_matrix(m, U) for m in on_U) for U in Us)


def _is_matrix(m, U):
    """m is U itself, or U's raw rows (``linalg.Raw``)."""
    return m is U or type(m) is la.Raw and m == m.k.encode_rows(U)


def test_one_elimination_over_L_per_proper_submodule(monkeypatch):
    Q2 = unramified(2, 1, N)
    L = sqrt2_extension(Q2)
    D = _conjugated(Q2, [1, 2, 2], [[1, 1, 0], [0, 1, 3], [1, 0, 1]])
    F = lift_matrix(L, la.from_rows_of_fractions(Q2, [[1, 0], [2, 1], [0, 3]]))
    subs = sm.sampled_submodules(D, 4, 20)
    proper = sum(1 for c in subs.subspaces if c and c[0] and len(c[0]) < D.n)
    over_L = []
    row_reduce = la.certified_row_reduce

    def spy_reduce(m, *args, **kwargs):
        field = m.k.field if type(m) is la.Raw else m and m[0] and m[0][0].field
        if field is L:
            over_L.append(m)
        return row_reduce(m, *args, **kwargs)

    monkeypatch.setattr(la, "certified_row_reduce", spy_reduce)
    monkeypatch.setattr(admissible, "ADMISSIBILITY_BUDGET", 20)
    report = is_admissible(D, F, L, "sampled", seed=4)
    assert report.samples == len(subs.subspaces)
    assert proper > 1
    # rank F once, then rank [N_L | F] for each proper N
    assert len(over_L) == 1 + proper


# -- the canonical key ----------------------------------------------------------------


def _line(field, unit, relpi):
    """The line spanned by (1, unit) with the second entry known to relpi
    digits."""
    return [[field.one()], [sc.Scalar(field, sc.REG, w=0, unit=(unit,), relpi=relpi)]]


def test_canonical_key_reads_every_certified_digit():
    Q2 = unramified(2, 1, N)
    key = sm._canonical_key

    # agree mod 2^8, differ at 2^9: two subspaces, two keys
    a = la.from_rows_of_fractions(Q2, [[1, 0], [3, 1], [0, 5]])
    b = la.from_rows_of_fractions(Q2, [[1, 0], [3 + 2 ** 9, 1], [0, 5]])
    assert key(a) != key(b) and len({key(a), key(b)}) == 2
    # the same subspace in another basis has the same key
    c = la.from_rows_of_fractions(Q2, [[3, 1], [10, 5], [5, 10]])
    assert key(a) == key(c) and len({key(a), key(c)}) == 1
    # a digit beyond the certified precision is not read ...
    assert key(_line(Q2, 3, 12)) == key(_line(Q2, 3 + 2 ** 12, 12))
    # ... and one subspace known to 12 and to 20 digits is one subspace,
    # unless the two differ at a digit both certify
    assert key(_line(Q2, 3, 12)) == key(_line(Q2, 3 + 2 ** 12, 20))
    assert key(_line(Q2, 3, 12)) != key(_line(Q2, 3 + 2 ** 11, 20))
