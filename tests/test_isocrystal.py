"""Slope theory: t_N, Newton slopes, isoclinic decomposition, duality,
submodule enumeration, polarized structure."""

import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isofilt import formats
from isofilt.errors import MultiplicityError, PrecisionError, ValidationError
from isofilt.padic import UnramifiedFieldDescriptor, linalg as la, sc_add, sc_mul, sc_sub
from isofilt.isocrystal.module import (PhiModule, PolarizedPhiModule,
                                       SemiAbelianPhiModule,
                                       standard_symplectic_gram)
from isofilt.isocrystal.slopes import (newton_slopes, isoclinic_decompose, SlopeProfile,
                                       slope_factors, charpoly_points,
                                       lower_newton_polygon, root_valuations_from_hull)
from isofilt.isocrystal.submodules import (endomorphism_algebra, exact_submodules,
                                           sampled_submodules)
import oracles
from oracles import (fraction_newton_polygon, fraction_root_valuations,
                     base_change)

N = 24


@pytest.fixture(scope="module")
def Q2():
    return UnramifiedFieldDescriptor.create(2, 1, N)


@pytest.fixture(scope="module")
def Q4():
    return UnramifiedFieldDescriptor.create(2, 2, N)


def ss_module(field):
    return PhiModule.from_rational(field, [[0, 2], [1, 0]])


def test_t_N_examples(Q2):
    assert ss_module(Q2).t_N() == 1
    assert PhiModule.from_rational(Q2, [[1, 0], [0, 1]]).t_N() == 0
    D = PhiModule.from_rational(Q2, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert D.t_N() == 2


def test_newton_slopes_examples(Q2):
    assert newton_slopes(ss_module(Q2)).pairs == ((Fraction(1, 2), 2),)
    I = PhiModule.from_rational(Q2, [[1, 0], [0, 1]])
    assert newton_slopes(I).pairs == ((Fraction(0), 2),)
    Dp = PhiModule.from_rational(Q2, [[1, 0], [0, 2]])
    assert newton_slopes(Dp).pairs == ((Fraction(0), 1), (Fraction(1), 1))


def test_slopes_divided_by_f(Q4):
    # same matrix over Q_4: still pure 1/2
    assert newton_slopes(ss_module(Q4)).pairs == ((Fraction(1, 2), 2),)


def test_simple_module_constructor(Q2):
    D = PhiModule.simple(Q2, 1, 3)
    assert newton_slopes(D).pairs == ((Fraction(1, 3), 3),)
    D2 = PhiModule.simple(Q2, 2, 3)
    assert newton_slopes(D2).pairs == ((Fraction(2, 3), 3),)


def test_basis_change_invariance(Q2):
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(2, 5)
        D = _random_module(Q2, n, rng)
        prof = newton_slopes(D)
        P = _random_invertible(Q2, n, rng)
        D2 = base_change(D, P)
        assert newton_slopes(D2).pairs == prof.pairs


def _random_module(field, n, rng):
    while True:
        rows = [[Fraction(rng.randrange(-8, 9), rng.choice([1, 1, 2]))
                 for _ in range(n)] for _ in range(n)]
        try:
            return PhiModule.from_rational(field, rows)
        except Exception:
            continue


def _random_invertible(field, n, rng):
    while True:
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        m = la.from_rows_of_fractions(field, rows)
        try:
            la.det_valuation(m)
            return m
        except Exception:
            continue


def test_isoclinic_decompose_examples(Q2):
    Dp = PhiModule.from_rational(Q2, [[1, 0], [0, 2]])
    dec = isoclinic_decompose(Dp)
    assert [(s, len(c[0])) for s, c in dec] == [(Fraction(0), 1), (Fraction(1), 1)]
    S = ss_module(Q2)
    dec = isoclinic_decompose(S)
    assert len(dec) == 1 and len(dec[0][1][0]) == 2
    mixed = PhiModule.from_rational(
        Q2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])
    dec = isoclinic_decompose(mixed)
    assert [(s, len(c[0])) for s, c in dec] == [(Fraction(0), 2), (Fraction(1, 2), 2)]


def test_isoclinic_pieces_are_pure():
    from isofilt.precision import with_escalation
    rng = random.Random(22)
    slopes_pool = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]
    for _ in range(10):
        picks = rng.sample(slopes_pool, rng.randrange(2, 4))
        rows_list = [PhiModule.simple(UnramifiedFieldDescriptor.create(2, 1, 8),
                                      s, r).A for s, r in picks]
        dims = [len(a) for a in rows_list]
        seed_state = rng.getstate()

        def run(prec):
            rng.setstate(seed_state)
            field = UnramifiedFieldDescriptor.create(2, 1, prec)
            D = None
            for s, r in picks:
                M = PhiModule.simple(field, s, r)
                D = M if D is None else D.direct_sum(M)
            P = _random_invertible(field, D.n, rng)
            D = base_change(D, P)
            for slope, cols in isoclinic_decompose(D):
                sub = D.submodule(cols)
                assert newton_slopes(sub).pairs == ((slope, len(cols[0])),)

        with_escalation(run, N)


def test_t_N_additive_and_slope_union(Q2):
    A = PhiModule.simple(Q2, 1, 2)
    B = PhiModule.from_rational(Q2, [[1, 0], [0, 2]])
    S = A.direct_sum(B)
    assert S.t_N() == A.t_N() + B.t_N()
    assert _slope_counts(A) + _slope_counts(B) == _slope_counts(S)


def _slope_counts(D):
    """D's slopes as a multiset."""
    return Counter(dict(newton_slopes(D).pairs))


def test_exact_submodules_examples(Q2):
    Dp = PhiModule.from_rational(Q2, [[1, 0], [0, 2]])
    subs = exact_submodules(Dp).subspaces
    assert sorted(len(c[0]) if c and c[0] else 0 for c in subs) == [0, 1, 1, 2]
    S = ss_module(Q2)
    subs = exact_submodules(S).subspaces
    assert sorted(len(c[0]) if c and c[0] else 0 for c in subs) == [0, 2]


def test_exact_mode_rejects_multiplicity(Q4):
    DD = ss_module(Q4).direct_sum(ss_module(Q4))
    with pytest.raises(MultiplicityError):
        exact_submodules(DD)


def test_sampled_submodules_stable_and_seeded(Q4):
    DD = ss_module(Q4).direct_sum(ss_module(Q4))
    s1 = sampled_submodules(DD, 5, 20)
    s2 = sampled_submodules(DD, 5, 20)
    assert len(s1.subspaces) == len(s2.subspaces)
    for c in s1.subspaces:
        if c and c[0]:
            assert DD.is_stable(c)
    dims = {len(c[0]) for c in s1.subspaces if c and c[0]}
    assert 2 in dims  # found proper submodules


def test_submodule_slopes_are_sub_multisets(Q2):
    Dp = PhiModule.from_rational(Q2, [[1, 0], [0, 2]]).direct_sum(
        PhiModule.simple(Q2, 1, 2))
    for cols in exact_submodules(Dp).subspaces:
        if not (cols and cols[0]):
            continue
        assert _slope_counts(Dp.submodule(cols)) <= _slope_counts(Dp)


def test_endomorphism_algebra_dimensions(Q2, Q4):
    # slope-1/2 simple: commutative Q_2[A] at f=1, quaternion at f=2
    assert len(endomorphism_algebra(ss_module(Q2))) == 2
    assert len(endomorphism_algebra(ss_module(Q4))) == 4


def test_polarized_validation_and_eps(Q2):
    S = ss_module(Q2)
    J = standard_symplectic_gram(Q2, 1)
    P = PolarizedPhiModule(S, J)
    assert P.eps == -1
    Dp = PhiModule.from_rational(Q2, [[1, 0], [0, 2]])
    P2 = PolarizedPhiModule(Dp, la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]]))
    assert P2.eps == 1


def test_polarized_rejects_incompatible(Q2):
    D = PhiModule.from_rational(Q2, [[1, 0], [0, 4]])  # slopes 0,2
    with pytest.raises(ValidationError):
        PolarizedPhiModule(D, la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]]))


def test_polarized_slope_symmetry(Q2, Q4):
    rng = random.Random(24)
    for field in (Q2, Q4):
        for g in (1, 2):
            D, J = _random_polarized(field, g, rng)
            pairs = newton_slopes(D).pairs
            assert Counter(dict(pairs)) == Counter({1 - s: m for s, m in pairs})


def _random_polarized(field, g, rng):
    # build an abelian polarized module by symplectic base change of a
    # standard one
    base = None
    for _ in range(g):
        pick = rng.choice(["ss", "ord"])
        M = (ss_module(field) if pick == "ss"
             else PhiModule.from_rational(field, [[1, 0], [0, field.p]]))
        base = M if base is None else base.direct_sum(M)
    J = _gram_for(field, base, g)
    return base, J


def _gram_for(field, D, g):
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for k in range(g):
        blk = D.A[2 * k][2 * k + 1]
        # [[0,1],[-1,0]] works for diag(1,p); [[0,-1],[1,0]] for the 1/2 block
        if blk.kind == "reg":  # [[0,2],[1,0]] block
            rows[2 * k][2 * k + 1] = -1
            rows[2 * k + 1][2 * k] = 1
        else:
            rows[2 * k][2 * k + 1] = 1
            rows[2 * k + 1][2 * k] = -1
    P = PolarizedPhiModule(D, la.from_rows_of_fractions(field, rows))
    return P.J


def test_semi_abelian_structure(Q2):
    # D = torus (slope 1) + diag(1,p)
    A = [[2, 0, 0], [0, 1, 0], [0, 0, 2]]
    D = PhiModule.from_rational(Q2, A)
    toric = la.from_rows_of_fractions(Q2, [[1], [0], [0]])
    gram_B = la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]])
    SA = SemiAbelianPhiModule(D, toric, gram_B)
    assert SA.t_dim == 1 and SA.B_dim == 2
    QB = SA.quotient_module()
    assert newton_slopes(QB).pairs == ((Fraction(0), 1), (Fraction(1), 1))


def test_semi_abelian_rejects_bad_toric(Q2):
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    D = PhiModule.from_rational(Q2, A)
    toric = la.from_rows_of_fractions(Q2, [[1], [0], [0]])  # slope 0, not 1
    gram_B = la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]])
    with pytest.raises(ValidationError):
        SemiAbelianPhiModule(D, toric, gram_B)


# -- the semi-abelian structure against its one-fact-at-a-time reference -----------


def _structure(sa):
    """What the reference builds, from sa: S, [T | S]^-1, T's slope and
    D_B's Frobenius, entry for entry."""
    return (_entries(sa.section_cols), _entries(sa.full_inv), sa.toric_slope()
            if sa.t_dim else None, _entries(sa.quotient_module().A))


def _reference(D, T):
    S, inv, slope, DB = oracles.semi_abelian_reference(D, T)
    return _entries(S), _entries(inv), slope, _entries(DB)


@pytest.mark.parametrize("stem", ["ordinary_torus", "ss2", "ss2_q4"])
def test_semi_abelian_structure_matches_the_reference(stem):
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        f"{stem}.json")
    sa, _ = formats.module_from_json(formats.load_json(path))
    assert _structure(sa) == _reference(sa.module, sa.toric_cols)
    # with no toric part D_B is the module itself, whose Frobenius the
    # identity products would have returned Scalar for Scalar
    assert (sa.quotient_module() is sa.module) == (sa.t_dim == 0)


def test_the_section_is_the_greedy_completion(Q2):
    # T = span(e0 + e1): e0 is independent of T, so the greedy takes it, and
    # then e2; e1 lies in span(T, e0)
    D = PhiModule.from_rational(Q2, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])
    T = la.from_rows_of_fractions(Q2, [[1], [1], [0]])
    sa = SemiAbelianPhiModule(D, T, [], validate=False)
    assert _entries(sa.section_cols) == _entries(
        la.from_rows_of_fractions(Q2, [[1, 0], [0, 0], [0, 1]]))
    assert _structure(sa) == _reference(D, T)
    assert sa.toric_slope() == 1


@st.composite
def _toric_problems(draw):
    """(P, M, T) over Q_2 with integral T and invertible M: either
    A = P M P^-1 with M upper triangular in t + (n - t) blocks, so that T,
    the first t columns of the unimodular P, is phi-stable, or (P None)
    A = M and T drawn freely (T possibly of lower rank)."""
    n = draw(st.integers(2, 4))
    t = draw(st.integers(1, n))
    entry = st.integers(-3, 3)
    U = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)]
         for i in range(n)]
    L = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
         for i in range(n)]
    M = [[2 ** draw(st.integers(0, 2)) if i == j else draw(entry)
          for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        M = [[x if j >= i or j >= t or i < t else 0 for j, x in enumerate(row)]
             for i, row in enumerate(M)]
        M = [[x if j >= i or (i >= t) == (j >= t) else 0
              for j, x in enumerate(row)] for i, row in enumerate(M)]
        P = oracles.rational_matmul(U, L)
        return P, M, [row[:t] for row in P]
    A = oracles.rational_matmul(oracles.rational_matmul(U, L), [
        [x if i == j else 0 for j, x in enumerate(row)]
        for i, row in enumerate(M)])
    return None, A, [[draw(entry) for _ in range(t)] for _ in range(n)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValidationError, PrecisionError) as exc:
        return "raised", type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(problem=_toric_problems())
def test_semi_abelian_structure_matches_the_reference_on_drawn_tori(problem):
    Q2 = UnramifiedFieldDescriptor.create(2, 1, N)
    P, M, T = problem
    if P is None:
        A = la.from_rows_of_fractions(Q2, M)
    else:
        Pm = la.from_rows_of_fractions(Q2, P)
        A = la.mat_mul(la.mat_mul(Pm, la.from_rows_of_fractions(Q2, M)),
                       la.mat_inverse(Pm))
    D = PhiModule(Q2, A, validate=False)
    Tm = la.from_rows_of_fractions(Q2, T)
    got = _outcome(lambda: _structure(
        SemiAbelianPhiModule(D, Tm, [], validate=False)))
    want = _outcome(_reference, D, Tm)
    if want == ("raised", "ValidationError",
                "linear system certified inconsistent"):
        # the greedy checks T's rank only through the ranks it completes, so
        # a dependent T with t = n reached the inverse; the one elimination
        # finds a column of T without a pivot first
        want = ("raised", "ValidationError", "could not complete toric basis")
    assert got == want
    if P is not None:
        assert D.is_stable(Tm)


# -- the slope data stored on a module ----------------------------------------------


def _entries(cols):
    return [[(x.kind, x.w, x.unit, x.relpi, x.zw) for x in row]
            for row in cols]


def _decomposition(D):
    try:
        return [(s, _entries(c)) for s, c in isoclinic_decompose(D)]
    except PrecisionError as exc:
        return str(exc)


def test_returned_columns_are_copies(Q2):
    D = PhiModule.from_rational(Q2, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    first = isoclinic_decompose(D)
    want = [(s, _entries(c)) for s, c in first]
    for _, cols in first:
        cols[0].append(Q2.one())
        cols.append([])
    first.append((Fraction(5), []))
    assert [(s, _entries(c)) for s, c in isoclinic_decompose(D)] == want
    assert newton_slopes(D) is newton_slopes(D)


def test_a_failed_split_stores_nothing():
    # at 4 digits the guard of 8 cannot certify the linearization's charpoly
    field = UnramifiedFieldDescriptor.create(2, 1, 4)
    D = PhiModule(field, la.from_rows_of_fractions(field, [[1, 0], [0, 2]]),
                  validate=False)
    for fn in (newton_slopes, isoclinic_decompose):
        messages = []
        for _ in range(2):
            with pytest.raises(PrecisionError) as info:
                fn(D)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert D._slopes is None and D._isoclinic is None


_BLOCKS = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (0, 1), (1, 1)]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_the_stored_split_is_the_fresh_split(data):
    # two modules built from the same data: the second call on one returns
    # what the first call on the other computes, entry by entry
    blocks = data.draw(st.lists(st.sampled_from(_BLOCKS), min_size=1,
                                max_size=3))
    prec = data.draw(st.sampled_from([16, 32]))
    field = UnramifiedFieldDescriptor.create(2, 1, prec)
    A = None
    for s, r in blocks:
        M = PhiModule.simple(field, s, r)
        A = M if A is None else A.direct_sum(M)
    n = A.n
    low = [[1 if i == j else (data.draw(st.integers(-3, 3)) if i > j else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (data.draw(st.integers(-3, 3)) if i < j else 0)
           for j in range(n)] for i in range(n)]
    P = la.mat_mul(la.from_rows_of_fractions(field, low),
                   la.from_rows_of_fractions(field, up))
    stored, fresh = base_change(A, P), base_change(A, P)
    first = _decomposition(stored)
    assert _decomposition(stored) == first == _decomposition(fresh)
    if not isinstance(first, str):
        assert newton_slopes(stored) is newton_slopes(stored)
        assert newton_slopes(stored).pairs == newton_slopes(fresh).pairs


def _hull_coeffs(kinds):
    return st.tuples(st.sampled_from(kinds), st.integers(-8, 24))


@settings(max_examples=300, deadline=None)
@given(e=st.sampled_from([1, 2, 3, 4]),
       ends=st.lists(_hull_coeffs(["reg"] * 6 + ["izero", "zero"]),
                     min_size=2, max_size=2),
       inner=st.lists(_hull_coeffs(["reg", "izero", "zero"]), max_size=7))
def test_integer_hull_matches_the_fraction_hull(e, ends, inner):
    # coefficient i is exact of pi-exponent w, known to vanish to pi^w, or
    # an exact zero; the oracle runs on the valuations w/e.  The ends are
    # mostly exact, so most examples get past the endpoint check
    coeffs = [ends[0]] + inner + [ends[1]]
    exact = [(i, w) for i, (kind, w) in enumerate(coeffs) if kind == "reg"]
    uncertain = [(i, w) for i, (kind, w) in enumerate(coeffs) if kind == "izero"]

    def val(pts):
        return [(i, Fraction(w, e)) for i, w in pts]

    try:
        want = fraction_newton_polygon(val(exact), val(uncertain))
    except PrecisionError as exc:
        with pytest.raises(PrecisionError) as got:
            lower_newton_polygon(exact, uncertain, e)
        assert str(got.value) == str(exc)
        return
    hull = lower_newton_polygon(exact, uncertain, e)
    assert val(hull) == want
    assert (root_valuations_from_hull(hull, e)
            == fraction_root_valuations(want))


def _poly_product(field, polys):
    prod = [field.one()]
    for poly in polys:
        out = [field.zero()] * (len(prod) + len(poly) - 1)
        for i, x in enumerate(prod):
            for j, y in enumerate(poly):
                out[i + j] = sc_add(out[i + j], sc_mul(x, y))
        prod = out
    return prod


@pytest.mark.parametrize("low", [(1, 2), (1, 3)])
def test_slope_factors_kummer_split(low):
    # minimal slope 1/2 or 1/3: the split runs in Z_2[t]/(t^2 - 2), (t^3 - 2)
    prec = 32
    field = UnramifiedFieldDescriptor.create(2, 1, prec)
    D = PhiModule.simple(field, *low).direct_sum(PhiModule.simple(field, 1, 1))
    factors = slope_factors(D)
    assert [(rv, len(fac) - 1) for rv, fac in factors] == [
        (Fraction(*low), low[1]), (Fraction(1), 1)]
    for rv, fac in factors:
        raw = [la.sc.kernel(field).entry(c) for c in fac]
        hull = lower_newton_polygon(*charpoly_points(raw))
        assert root_valuations_from_hull(hull) == [(rv, len(fac) - 1)]
    chi = la.charpoly(D.linearization())
    for got, want in zip(_poly_product(field, [f for _, f in factors]), chi):
        d = sc_sub(got, want)
        assert d.kind == "zero" or (d.kind == "izero" and d.zw >= prec * d.field.e)


@pytest.mark.parametrize("blocks", [((1, 2), (1, 1)), ((1, 3), (1, 1)),
                                    ((0, 1), (1, 2), (1, 1))])
@pytest.mark.parametrize("prec", [16, 24])
def test_slope_factor_precision_is_sound(blocks, prec):
    # after a base change the charpoly loses precision unevenly; every factor
    # coefficient must still agree with the exact factor x^r - 2^s to the
    # precision certified for it
    rng = random.Random(prec * 10 + len(blocks) * 3 + blocks[0][1])
    field = UnramifiedFieldDescriptor.create(2, 1, prec)
    D = None
    for s, r in blocks:
        M = PhiModule.simple(field, s, r)
        D = M if D is None else D.direct_sum(M)
    D = base_change(D, _random_invertible(field, D.n, rng))
    factors = slope_factors(D)
    assert [rv for rv, _ in factors] == sorted(Fraction(s, r) for s, r in blocks)
    for (_, fac), (s, r) in zip(factors, sorted(blocks, key=lambda b: Fraction(*b))):
        exact = [-2 ** s] + [0] * (r - 1) + [1]
        for got, want in zip(fac, exact):
            if got.kind == "reg":
                value, known = 2 ** int(got.val) * got.unit[0], int(got.val) + got.relpi
            else:
                assert got.kind == "izero"
                value, known = 0, got.zw // got.field.e
            assert (value - want) % 2 ** known == 0


def test_slope_factors_negative_minimal_slope():
    # minimal slope -1 over Q_3: the split rescales by 3^-1, which has to stay
    # an exact 3-adic scalar
    field = UnramifiedFieldDescriptor.create(3, 1, 16)
    D = PhiModule.from_rational(field, [[Fraction(1, 3), 1], [0, 1]])
    factors = slope_factors(D)
    assert [rv for rv, _ in factors] == [-1, 0]
    for (_, fac), root in zip(factors, (Fraction(1, 3), 1)):
        assert sc_sub(fac[0], field.scalar(-root)).kind != "reg"
        assert sc_sub(fac[1], field.one()).kind != "reg"
    assert [(s, len(c[0])) for s, c in isoclinic_decompose(D)] == [(-1, 1), (0, 1)]


def test_linearization_and_charpoly_once_per_module(monkeypatch):
    # newton_slopes, slope_factors and isoclinic_decompose share one
    # linearization and one charpoly; a charpoly that raises stores nothing
    from isofilt.isocrystal import slopes
    field = UnramifiedFieldDescriptor.create(2, 2, 16)
    D = PhiModule.from_rational(field, [[1, 0, 0], [0, 0, 2], [0, 1, 0]])
    calls = {"charpoly": 0, "linearization": 0}
    charpoly, linearization = la.charpoly, PhiModule.linearization

    def counting_charpoly(B):
        calls["charpoly"] += 1
        if calls["charpoly"] == 1:
            raise PrecisionError("first charpoly fails")
        return charpoly(B)

    def counting_linearization(self):
        calls["linearization"] += 1
        return linearization(self)

    monkeypatch.setattr(slopes.la, "charpoly", counting_charpoly)
    monkeypatch.setattr(PhiModule, "linearization", counting_linearization)
    with pytest.raises(PrecisionError):
        newton_slopes(D)
    assert D._charpoly is None and D._slopes is None
    assert newton_slopes(D).pairs == ((Fraction(0), 1), (Fraction(1, 2), 2))
    slope_factors(D)
    assert [(s, len(c[0])) for s, c in isoclinic_decompose(D)] == [
        (Fraction(0), 1), (Fraction(1, 2), 2)]
    assert calls == {"charpoly": 2, "linearization": 2}
