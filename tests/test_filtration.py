"""Galois setup, descent, admissibility, and the construction driver."""

import json
import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from isofilt.errors import (ValidationError, InternalContradictionError,
                            BudgetExhaustedError)
from isofilt.fixtures import (unramified, sqrt2_extension, trivial_extension,
                              c4_cyclotomic_extension, scalar_c2_rep, c4_k_rep,
                              supersingular_module, block_frobenius_module)
from isofilt.groups.constructions import cyclic
from isofilt.groups.core import GroupRepresentation, verify_cocycle
from isofilt.filtration.galois import (GaloisSetup, is_diagonally_stable,
                                       galois_descend, lift_matrix)
from isofilt.filtration.admissible import (is_admissible, t_H, verify_violation,
                                           toric_extension_report)
from isofilt.filtration import admissible as admissible_mod
from isofilt.filtration import driver as driver_mod
from isofilt.filtration.driver import (find_admissible_stable_filtration,
                                       decompose_polarized, two_slope_filtration,
                                       supersingular_filtration, PieceData,
                                       induced_rep, _quotient_rep)
from isofilt.isocrystal.module import (PhiModule, SemiAbelianPhiModule,
                                       standard_symplectic_gram)
from isofilt.isocrystal.slopes import isoclinic_decompose, newton_slopes
from isofilt.isocrystal import slopes as slopes_mod
from isofilt.padic import linalg as la
from isofilt.padic.descriptors import EisensteinExtensionDescriptor
from isofilt.padic.scalar import sc_add, sc_mul, sc_pow
from isofilt import formats
from isofilt.cli import main as cli_main
from isofilt.isocrystal import submodules as submodules_mod
from isofilt.groups import isotypic as isotypic_mod
from oracles import (rational_rank, rational_intersection_dim, base_change,
                     galois_apply, validate_all_pairs, verify_invariant)

N = 48


def ordinary_module(field):
    """The ordinary 2x2 module phi = diag(1, p)."""
    return PhiModule.from_rational(field, [[1, 0], [0, field.p]])


def kummer_extension(base, e):
    """Tame cyclic step u^e = p for e | q - 1, generator u -> zeta_e u."""
    if (base.q - 1) % e != 0:
        raise ValidationError(f"tame Kummer step of degree {e} needs e | q-1")
    z = base.teichmuller(e)
    auts = {f"r{k}" if k else "1": [0, list(sc_pow(z, k).unit)]
            for k in range(e)}
    return EisensteinExtensionDescriptor(
        base, (-base.p,) + (0,) * (e - 1) + (1,), auts)


@pytest.fixture(scope="module")
def Q2():
    return unramified(2, 1, N)


@pytest.fixture(scope="module")
def L(Q2):
    return sqrt2_extension(Q2)


@pytest.fixture(scope="module")
def setup_c2(Q2, L):
    return GaloisSetup(cyclic(2), L, {"g0": "1", "g1": "s"})


def test_setup_validation(Q2, L):
    with pytest.raises(ValidationError):
        GaloisSetup(cyclic(2), L, {"g0": "1"})
    with pytest.raises(ValidationError):
        GaloisSetup(cyclic(2), L, {"g0": "s", "g1": "1"})  # identity mismatch
    GaloisSetup(cyclic(2), L, {"g0": "1", "g1": "s"})


def test_diagonal_stability_fixture(Q2, L, setup_c2):
    rep = scalar_c2_rep(Q2, 2)
    s2 = L.uniformizer()
    F = [[L.one()], [s2]]
    assert not is_diagonally_stable(rep, F, setup_c2)
    Fr = [[L.one()], [L.scalar(3)]]
    assert is_diagonally_stable(rep, Fr, setup_c2)


def test_descent_conjugation_on_line(Q2, L, setup_c2):
    rep = GroupRepresentation(cyclic(2), Q2, [la.identity(Q2, 1)] * 2,
                              faithful=False)
    inv = galois_descend(rep, setup_c2)
    assert len(inv[0]) == 1
    assert verify_invariant(rep, setup_c2, inv)


def test_descent_swap_fixture(Q2, L, setup_c2):
    swap = la.from_rows_of_fractions(Q2, [[0, 1], [1, 0]])
    rep = GroupRepresentation(cyclic(2), Q2, [la.identity(Q2, 2), swap])
    inv = galois_descend(rep, setup_c2)
    assert len(inv[0]) == 2
    assert verify_invariant(rep, setup_c2, inv)
    assert la.certified_rank(la.transpose(inv)) == 2


def test_stability_iff_descended_span(Q2, L, setup_c2):
    # both directions: a stable F is spanned by invariants, and spans of
    # invariant combinations are stable
    rep = scalar_c2_rep(Q2, 2)
    B = galois_descend(rep, setup_c2)
    rng = random.Random(5)
    for _ in range(10):
        c = [[Q2.scalar(rng.randrange(-9, 10))] for _ in range(2)]
        cL = lift_matrix(L, c)
        F = la.mat_mul(B, cL)
        if all(x.kind != "reg" for row in F for x in row):
            continue
        assert is_diagonally_stable(rep, F, setup_c2)
    s2 = L.uniformizer()
    F_bad = [[L.one()], [s2]]
    assert not is_diagonally_stable(rep, F_bad, setup_c2)


FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# the C2 setup over Q_2(sqrt 2) and the C4 setup over the cyclotomic e = 4,
# f = 2 step, as the CLI loads them
STABILITY_PROBLEMS = {
    "c2": ("ss2", "c2_scalar_dim2", "ext_sqrt2_c2"),
    "c4": ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"),
}


def _problem(triple, prec=32):
    """(sa, rep, setup) of a fixture triple, as the CLI loads it."""
    module, group, extension = (formats.load_json(os.path.join(FIX, f"{stem}.json"))
                                for stem in triple)
    sa, field = formats.module_from_json(module, prec)
    G, rep = formats.group_from_json(group, field, sa.module.n)
    ext = formats.extension_from_json(extension, prec)
    return sa, rep, formats.setup_from_json(extension, G, ext)


@lru_cache(maxsize=None)
def _stability_problem(name):
    """(sa, rep, setup, B) with B a basis of diagonal-action invariants."""
    sa, rep, setup = _problem(STABILITY_PROBLEMS[name])
    return sa, rep, setup, galois_descend(rep, setup)


def _stable_by_definition(rep, F, setup):
    """rho(h) F = tau_h F for every h, as span inclusion both ways."""
    ext = setup.ext
    for x in range(setup.group.n):
        lin = la.mat_mul(lift_matrix(ext, rep.mats[x]), F)
        gal = galois_apply(setup, setup.aut_of(x), F)
        if not (la.subspace_leq(lin, gal) and la.subspace_leq(gal, lin)):
            return False
    return True


@pytest.mark.parametrize("name", sorted(STABILITY_PROBLEMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stability_matches_its_definition(name, data):
    # stable F (invariant combinations), random F over L, and random F under
    # a broken "representation" whose matrix for one element is an arbitrary,
    # possibly singular, integer matrix.  is_diagonally_stable takes a
    # validated action: validate rejects the broken one exactly when the
    # all-pairs reference does, and only an action that passes is tested
    sa, rep, setup, B = _stability_problem(name)
    ext, field, n = setup.ext, rep.field, rep.dim
    small = st.integers(-3, 3)
    k = data.draw(st.integers(1, n), label="columns")
    kind = data.draw(st.sampled_from(["stable", "random", "broken-rep"]))
    if kind == "stable":
        C = [[field.scalar(data.draw(small)) for _ in range(k)]
             for _ in range(len(B[0]))]
        F = la.mat_mul(B, lift_matrix(ext, C))
    else:
        u = ext.uniformizer()
        F = [[sc_add(ext.scalar(data.draw(small)),
                     sc_mul(ext.scalar(data.draw(small)), u))
              for _ in range(k)] for _ in range(n)]
    if kind == "broken-rep":
        x = data.draw(st.integers(1, setup.group.n - 1), label="element")
        mats = list(rep.mats)
        mats[x] = [[field.scalar(data.draw(small)) for _ in range(n)]
                   for _ in range(n)]
        rep = GroupRepresentation(rep.group, field, mats, faithful=False)
        action = dict(phi_module=sa.module, gram=sa.gram_B)
        try:
            rep.validate(**action)
        except ValidationError:
            with pytest.raises(ValidationError):
                validate_all_pairs(rep, **action)
            return
        assert validate_all_pairs(rep, **action)
    verdict = is_diagonally_stable(rep, F, setup)
    assert verdict == _stable_by_definition(rep, F, setup)
    if kind == "stable":
        assert verdict


def test_admissibility_ledger_examples(Q2, L):
    D = ordinary_module(Q2)
    F1 = [[L.one()], [L.one()]]
    r = is_admissible(D, F1, L, "exact")
    assert r.verdict and r.equality_at_top
    F2 = [[L.scalar(0)], [L.one()]]
    assert is_admissible(D, F2, L, "exact").verdict
    F3 = [[L.one()], [L.scalar(0)]]
    r3 = is_admissible(D, F3, L, "exact")
    assert not r3.verdict
    assert r3.violation is not None
    assert verify_violation(D, F3, L, r3.violation)


def test_t_H_examples(Q2, L):
    D = ordinary_module(Q2)
    F = [[L.one()], [L.one()]]
    assert t_H(F, la.identity(Q2, 2), L, 1) == 1
    assert t_H(F, [[], []], L, 1) == 0
    assert t_H(F, la.from_rows_of_fractions(Q2, [[1], [0]]), L, 1) == 0


def test_simple_module_any_line_admissible(Q2, L):
    D = supersingular_module(Q2)
    rng = random.Random(8)
    for _ in range(10):
        F = [[L.scalar(rng.randrange(-9, 10))], [L.scalar(rng.randrange(-9, 10))]]
        if all(x.kind != "reg" for row in F for x in row):
            continue
        assert is_admissible(D, F, L, "exact").verdict


def test_sampled_admissibility_one_sided(Q2, L, monkeypatch):
    # inadmissible verdicts carry certificates that re-verify
    D = ordinary_module(Q2).direct_sum(ordinary_module(Q2))
    F = lift_matrix(L, la.from_rows_of_fractions(
        Q2, [[1, 0], [0, 0], [0, 1], [0, 0]]))  # meets the slope-0 plane fully
    monkeypatch.setattr(admissible_mod, "ADMISSIBILITY_BUDGET", 40)
    r = is_admissible(D, F, L, "sampled", seed=4)
    assert not r.verdict
    assert verify_violation(D, F, L, r.violation)


# simple modules (s, r) of slope s/r, each with multiplicity one in a sum
SIMPLE_SLOPES = [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]


def _elimination_ledger(D, F, ext, subs):
    """The ledger of is_admissible with every bound t_N certified from N's
    restricted Frobenius, and D's own from det A."""
    rank_F = la.certified_rank(la.transpose(F))
    ledger = []
    for N in subs.subspaces:
        d = len(N[0]) if N[0] else 0
        if d == 0:
            th, bound = 0, Fraction(0)
        elif d == D.n:
            th, bound = len(F[0]), D.t_N()
        else:
            th, bound = t_H(F, N, ext, rank_F), D.submodule(N).t_N()
        ledger.append({"dim_N": d, "t_H": th, "t_N": str(bound)})
    return ledger


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_component_bounds_equal_the_eliminations(f, seed):
    # Q_2 and Q_4, where a component's bound is its root valuation over f = 2
    rng = random.Random(10 * f + seed)
    field = unramified(2, f, 32)
    D = None
    for s, r in rng.sample(SIMPLE_SLOPES, rng.randint(2, 3)):
        M = PhiModule.simple(field, s, r)
        D = M if D is None else D.direct_sum(M)
    n = D.n
    D = base_change(D, la.from_rows_of_fractions(field, [
        [1 if i == j else rng.randrange(-3, 4) if i < j else 0
         for j in range(n)] for i in range(n)]))
    subs = submodules_mod.exact_submodules(D)
    assert len(subs.bounds) == len(subs.subspaces) > 2
    for N, bound in zip(subs.subspaces, subs.bounds):
        d = len(N[0]) if N[0] else 0
        want = (Fraction(0) if d == 0 else D.t_N() if d == n
                else D.submodule(N).t_N())
        # an integral slope sum is an int: no Fraction is built for it
        assert bound == want
        assert type(bound) is (int if want.denominator == 1 else Fraction)
    L = trivial_extension(field)
    k = rng.randint(1, n - 1)
    F = lift_matrix(L, la.from_rows_of_fractions(
        field, [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)]))
    report = is_admissible(D, F, L, "exact").as_dict()
    ledger = _elimination_ledger(D, F, L, subs)
    assert report["ledger"] == ledger
    verdict = (all(e["t_H"] <= Fraction(e["t_N"]) for e in ledger)
               and ledger[-1]["t_H"] == Fraction(ledger[-1]["t_N"]))
    assert report["verdict"] == ("admissible" if verdict else "inadmissible")


def _spec(m):
    return [[(x.kind, x.w, x.zw, x.unit, x.relpi) for x in row] for row in m]


@st.composite
def _unimodular(draw, field, n):
    """An integer matrix of determinant +-1: upper times lower unitriangular,
    columns permuted."""
    entry = st.integers(-3, 3)
    U = [[1 if i == j else draw(entry) if i < j else 0 for j in range(n)]
         for i in range(n)]
    Lo = [[1 if i == j else draw(entry) if i > j else 0 for j in range(n)]
          for i in range(n)]
    perm = draw(st.permutations(range(n)))
    M = [[sum(U[i][k] * Lo[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return la.from_rows_of_fractions(field, [[M[i][perm[j]] for j in range(n)]
                                             for i in range(n)])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_square_basis_inherits_the_split(data):
    # D in a unimodular basis P inherits D's profile and split from one
    # elimination [P | A sigma(P) | C_1 ... C_k]; a fresh split of the same
    # module agrees on the profile, the bounds and every component as a
    # subspace, and is_admissible gives it the same ledger in both modes
    field = unramified(2, data.draw(st.sampled_from([1, 2]), label="f"), 32)
    D = None
    for s, r in data.draw(st.lists(st.sampled_from(SIMPLE_SLOPES), min_size=1,
                                   max_size=2, unique=True), label="simples"):
        M = PhiModule.simple(field, s, r)
        D = M if D is None else D.direct_sum(M)
    n = D.n
    P = data.draw(_unimodular(field, n), label="P")
    split = isoclinic_decompose(D)
    kept = D.submodule(P)
    assert _spec(kept.A) == _spec(la.solve_right(P, D.apply_phi(P)))
    fresh = PhiModule(field, kept.A, validate=False)
    assert newton_slopes(kept).pairs == newton_slopes(fresh).pairs
    inherited = isoclinic_decompose(kept)
    assert len(inherited) == len(split) == len(isoclinic_decompose(fresh))
    for (s1, c1), (s2, c2) in zip(inherited, isoclinic_decompose(fresh)):
        assert s1 == s2
        assert la.subspace_leq(c1, c2) and la.subspace_leq(c2, c1)
    assert (submodules_mod.exact_submodules(kept).bounds
            == submodules_mod.exact_submodules(fresh).bounds)
    L = trivial_extension(field)
    k = data.draw(st.integers(1, n), label="dim F")
    F = lift_matrix(L, la.from_rows_of_fractions(field, [
        [data.draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(n)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(admissible_mod, "ADMISSIBILITY_BUDGET", 4)
        for mode in ("exact", "sampled"):
            assert (is_admissible(kept, F, L, mode, seed=1).as_dict()
                    == is_admissible(fresh, F, L, mode, seed=1).as_dict())


def test_decompose_polarized_shapes(Q2):
    # ordinary + supersingular blocks with trivial action split by slope pair
    D = ordinary_module(Q2).direct_sum(supersingular_module(Q2))
    J = la.from_rows_of_fractions(
        Q2, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    G = cyclic(1)
    rep = GroupRepresentation(G, Q2, [la.identity(Q2, 4)], faithful=False)
    pieces = decompose_polarized(D, J, rep)
    assert sorted(p.dim for p in pieces) == [2, 2]
    slope_sets = sorted(tuple(str(s) for s in p.slopes) for p in pieces)
    assert slope_sets == [("0", "1"), ("1/2",)]


def test_pullback_preserves_admissibility(Q2, L, setup_c2):
    # random ordinary quotients with a toric part: the driver's pulled-back
    # filtration passes the extension node over the exact quotient
    rng = random.Random(10)
    for t in range(3):
        A = [[2, rng.randrange(0, 2), 0], [0, 1, 0], [0, 0, 2]]
        D = PhiModule.from_rational(Q2, A)
        toric = la.from_rows_of_fractions(Q2, [[1], [0], [0]])
        gram_B = la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]])
        sa = SemiAbelianPhiModule(D, toric, gram_B)
        rep = scalar_c2_rep(Q2, 3)
        res = find_admissible_stable_filtration(sa, setup_c2, rep, seed=t)
        assert res["admissibility"].verdict
        assert res["graded"]["toric"] and res["graded"]["quotient"]


def _counting(monkeypatch, module, name, calls, key=lambda *args: None):
    """Replace module.name by a wrapper that appends (name, key(*args)) to
    calls before each call."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((name, key(*args)))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _two_piece_problem(Q2):
    Dss = supersingular_module(Q2)
    D = ordinary_module(Q2).direct_sum(Dss)
    J = la.from_rows_of_fractions(
        Q2, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    rep = scalar_c2_rep(Q2, 4)
    return SemiAbelianPhiModule(D, [[] for _ in range(4)], J,
                                validate=False), rep


def test_gluing_soundness(Q2, L, setup_c2, monkeypatch):
    # two orthogonal summands solved independently glue to a verified F:
    # each piece's F (two rows) and the glued F_B (four rows) are checked
    # Lagrangian and stable
    calls = []
    rows = lambda *args: len(args[1])
    _counting(monkeypatch, driver_mod, "LagrangianSubspace", calls, rows)
    _counting(monkeypatch, driver_mod, "is_diagonally_stable", calls, rows)
    sa, rep = _two_piece_problem(Q2)
    res = find_admissible_stable_filtration(sa, setup_c2, rep, seed=6)
    assert res["admissibility"].verdict and res["stable"]
    assert len(res["pieces"]) == 2
    for name in ("LagrangianSubspace", "is_diagonally_stable"):
        assert [r for n, r in calls if n == name] == [2, 2, 4]


def test_driver_torus_case(Q2, setup_c2):
    D = PhiModule.from_rational(Q2, [[2, 0], [0, 2]])
    sa = SemiAbelianPhiModule(D, la.identity(Q2, 2), [], validate=False)
    rep = scalar_c2_rep(Q2, 2)
    res = find_admissible_stable_filtration(sa, setup_c2, rep, seed=1)
    assert res["admissibility"].verdict
    assert len(res["filtration"][0]) == 2  # F = D_L


def test_driver_kummer_extension(Q2):
    # tame Kummer C3 over Q_7 with a symplectic diagonal action
    Q7 = unramified(7, 1, N)
    K3 = kummer_extension(Q7, 3)
    G = cyclic(3)
    setup = GaloisSetup(G, K3, {"g0": "1", "g1": "r1", "g2": "r2"})
    D = PhiModule.from_rational(Q7, [[1, 0], [0, 7]])
    J = la.from_rows_of_fractions(Q7, [[0, 1], [-1, 0]])
    z3 = Q7.teichmuller(3)
    from isofilt.padic.scalar import sc_mul as _m
    zz = Q7.scalar(0)
    m = [[z3, zz], [zz, _m(z3, z3)]]  # diag(z3, z3^2): symplectic, phi-commuting
    rep = GroupRepresentation.from_generator_matrices(G, Q7, {"g1": m})
    sa = SemiAbelianPhiModule(D, [[] for _ in range(2)], J, validate=False)
    res = find_admissible_stable_filtration(sa, setup, rep, seed=2)
    assert res["admissibility"].verdict and res["stable"]


def test_descent_datum_cocycle_and_targets(Q2, setup_c2):
    rep = scalar_c2_rep(Q2, 2)
    assert verify_cocycle(rep.group)
    D = supersingular_module(Q2)
    sa = SemiAbelianPhiModule(D, [[] for _ in range(2)],
                              standard_symplectic_gram(Q2, 1), validate=False)
    res = find_admissible_stable_filtration(sa, setup_c2, rep, seed=3)
    assert is_diagonally_stable(rep, res["filtration"], setup_c2)


def test_cocycle_check_is_the_pairwise_identity():
    # on an associative table, x x^-1 = x^-1 x = e for each x implies
    # (ab)^-1 = b^-1 a^-1 for all a, b; an inverse table with one entry wrong
    # fails it (the pairwise identity can still hold: in C2 with 1^-1 = 0
    # every inverse and every product of inverses is 0)
    from isofilt.groups.constructions import all_groups_up_to_16

    def pairwise(G):
        return all(G.inverse[G.table[a][b]] == G.table[G.inverse[b]][G.inverse[a]]
                   for a in range(G.n) for b in range(G.n))

    for _, G in all_groups_up_to_16():
        assert verify_cocycle(G) and pairwise(G)
        if G.n > 1:
            G.inverse[1 if G.identity == 0 else 0] = G.identity
            assert not verify_cocycle(G)


def test_repeated_slope_piece_samples_as_asked(Q2, setup_c2):
    # slope 1/2 fills a 4-dimensional piece twice over: exact mode meets the
    # repeated slope and samples the piece, on the ledger that asking for
    # sampled mode gives
    D = block_frobenius_module(Q2, 2)
    J = standard_symplectic_gram(Q2, 2)
    rep = scalar_c2_rep(Q2, 4)
    sa = SemiAbelianPhiModule(D, [[] for _ in range(4)], J, validate=False)
    res = find_admissible_stable_filtration(sa, setup_c2, rep, seed=1)
    [piece] = res["pieces"]
    assert (piece["dim"], piece["slopes"]) == (4, ["1/2"])
    assert piece["admissibility"]["mode"] == "sampled"
    assert res["admissibility"].verdict and res["admissibility"].mode == "sampled"
    [p] = decompose_polarized(D, J, rep)
    sub_seed = random.Random(1).randrange(1 << 30)
    asked = supersingular_filtration(p, setup_c2, sub_seed, adm_mode="sampled")
    assert asked["admissibility"].as_dict() == piece["admissibility"]


def test_quotient_rep_shape(Q2):
    A = [[2, 0, 0], [0, 1, 0], [0, 0, 2]]
    D = PhiModule.from_rational(Q2, A)
    toric = la.from_rows_of_fractions(Q2, [[1], [0], [0]])
    gram_B = la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]])
    sa = SemiAbelianPhiModule(D, toric, gram_B)
    rep = scalar_c2_rep(Q2, 3)
    repB = _quotient_rep(sa, rep)
    assert repB.dim == 2


# -- the extension node: T of pure slope 1 inside F, and (D_B, F_B) admissible --


def _torus_plus(Q2, toric_A, B):
    """The semi-abelian module diag(toric_A) + B, with T the first t
    coordinates; its section is the last n - t coordinates, so D_B is B."""
    t, m = len(toric_A), len(B)
    rows = [[toric_A[i] if i == j else 0 for j in range(t)] + [0] * m
            for i in range(t)]
    rows += [[0] * t + list(r) for r in B]
    T = la.from_rows_of_fractions(
        Q2, [[int(i == j) for j in range(t)] for i in range(t + m)])
    sa = SemiAbelianPhiModule(PhiModule.from_rational(Q2, rows), T,
                              standard_symplectic_gram(Q2, m // 2),
                              validate=False)
    return sa, PhiModule.from_rational(Q2, B)


# ordinary_torus, and a 2-dimensional torus over the supersingular block
EXTENSION_PROBLEMS = {
    "ordinary_torus": ([2], [[1, 0], [0, 2]]),
    "torus2+ss2": ([2, 2], [[0, 2], [1, 0]]),
}


@lru_cache(maxsize=None)
def _extension_problem(name):
    Q2 = unramified(2, 1, N)
    sa, DB = _torus_plus(Q2, *EXTENSION_PROBLEMS[name])
    return Q2, sqrt2_extension(Q2), sa, DB


@st.composite
def _filtration_over_torus(draw, t, m, L):
    """(F, G): F spans T and the columns section(G) + T c, for an m x k
    matrix G of entries a + b sqrt(2) and random toric parts c; so T <= F
    and F_B = G."""
    k = draw(st.integers(0, m))
    small = st.integers(-4, 4)
    G = [[sc_add(L.scalar(draw(small)),
                 sc_mul(L.scalar(draw(small)), L.uniformizer()))
          for _ in range(k)] for _ in range(m)]
    c = [[L.scalar(draw(small)) for _ in range(k)] for _ in range(t)]
    F = [[L.one() if i == j else L.zero() for j in range(t)] + c[i]
         for i in range(t)]
    F += [[L.zero()] * t + G[i] for i in range(m)]
    return F, G


@pytest.mark.parametrize("name", sorted(EXTENSION_PROBLEMS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_extension_node_is_the_quotient_verdict(name, data):
    # for F containing T, the node decides what exact admissibility of
    # (D_B, F_B) decides, and sampling the full module never finds a
    # violation where the node says admissible
    Q2, L, sa, DB = _extension_problem(name)
    F, G = data.draw(_filtration_over_torus(sa.t_dim, sa.B_dim, L))
    if G[0] and la.certified_rank(la.transpose(G)) < len(G[0]):
        return  # is_admissible reads dim F_B off its columns
    node = toric_extension_report(sa, F, L, 3, None, None)
    assert node.contained and node.toric_slope == 1 and node.complete
    assert node.verdict == is_admissible(DB, G, L, "exact").verdict
    if node.verdict:
        assert is_admissible(sa.module, F, L, "sampled", seed=5).verdict


@pytest.mark.parametrize("name", sorted(EXTENSION_PROBLEMS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_extension_node_never_accepts_without_the_torus(name, data):
    Q2, L, sa, _ = _extension_problem(name)
    n, t = sa.module.n, sa.t_dim
    k = data.draw(st.integers(1, n))
    rows = [[data.draw(st.integers(-4, 4)) for _ in range(k)]
            for _ in range(n)]
    if rational_rank(rows) < k:
        return
    T = [[int(i == j) for j in range(t)] for i in range(n)]
    if rational_intersection_dim(T, rows) == t:
        return  # F contains T after all
    F = lift_matrix(L, la.from_rows_of_fractions(Q2, rows))
    node = toric_extension_report(sa, F, L, 3, None, None)
    assert not node.contained and not node.verdict
    assert node.as_dict()["verdict"] == "inadmissible"


def test_extension_node_checks_the_torus_slope(Q2, L):
    # a "torus" of slope 0, built without validation, is refused although
    # it lies in F and the quotient is admissible
    sa, _ = _torus_plus(Q2, [1], [[1, 0], [0, 2]])
    F = lift_matrix(L, la.from_rows_of_fractions(
        Q2, [[1, 0], [0, 1], [0, 1]]))
    node = toric_extension_report(sa, F, L, 0, None, None)
    assert node.contained and node.quotient.verdict
    assert node.toric_slope == 0 and not node.verdict


def test_extension_node_on_a_pure_torus(Q2, L):
    D = PhiModule.from_rational(Q2, [[2, 0], [0, 2]])
    sa = SemiAbelianPhiModule(D, la.identity(Q2, 2), [], validate=False)
    node = toric_extension_report(sa, lift_matrix(L, la.identity(Q2, 2)), L,
                                  0, None, None)
    assert node.verdict and node.complete
    assert node.as_dict()["toric"] == {"dim": 2, "slope": "1",
                                       "contained": True}


TORUS_TRIPLES = [("ordinary_torus", "trivial_group_dim3", "ext_trivial"),
                 ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2")]
FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _find(tmp_path, triple, seed, *extra):
    cert = tmp_path / f"{triple[1]}-{seed}.json"
    argv = ["filtration", "find"]
    for flag, stem in zip(("--module", "--group", "--extension"), triple):
        argv += [flag, os.path.join(FIX, f"{stem}.json")]
    assert cli_main(argv + ["--seed", str(seed), *extra,
                            "--out", str(cert)]) == 0
    return cert


def _resealed(tmp_path, cert, edit):
    doc = json.loads(cert.read_text())
    edit(doc)
    doc["digest"] = formats.certificate_digest(doc)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(doc))
    return out


def test_default_torus_round_trips_never_sample(tmp_path, capsys,
                                                monkeypatch):
    calls = []
    sampled = submodules_mod.sampled_submodules

    def counting(D, *args, **kwargs):
        calls.append(D.n)
        return sampled(D, *args, **kwargs)

    monkeypatch.setattr(submodules_mod, "sampled_submodules", counting)
    for triple in TORUS_TRIPLES:
        cert = _find(tmp_path, triple, 4)
        adm = json.loads(cert.read_text())["outputs"]["admissibility"]
        assert adm["mode"] == "extension" and adm["complete"]
        assert cli_main(["filtration", "check", str(cert)]) == 0
    assert calls == []
    # the counter does see the opt-in cross-check, which samples the full D
    _find(tmp_path, TORUS_TRIPLES[0], 4, "--mode", "sampled", "--budget", "5")
    assert 3 in calls
    capsys.readouterr()


@pytest.mark.parametrize("triple", TORUS_TRIPLES, ids=["trivial", "c2"])
def test_check_names_the_node_when_F_drops_the_torus(tmp_path, capsys,
                                                      triple):
    def drop_torus(doc):
        # F = T + section(F_B): keep only the section column
        rows = doc["outputs"]["filtration"]
        doc["outputs"]["filtration"] = [row[1:] for row in rows]

    tampered = _resealed(tmp_path, _find(tmp_path, triple, 5), drop_torus)
    capsys.readouterr()
    assert cli_main(["filtration", "check", str(tampered)]) == 2
    err = capsys.readouterr().err
    assert "graded-toric" in err and "admissible" in err


def test_check_rejects_an_extension_node_without_a_torus(tmp_path, capsys):
    def claim_extension(doc):
        doc["outputs"]["admissibility"]["mode"] = "extension"

    cert = _find(tmp_path, ("ss2", "c2_scalar_dim2", "ext_sqrt2_c2"), 5,
                 "--precision", "32")
    tampered = _resealed(tmp_path, cert, claim_extension)
    capsys.readouterr()
    assert cli_main(["filtration", "check", str(tampered)]) == 2
    assert "admissible" in capsys.readouterr().err


def test_check_rejects_a_forged_quotient_ledger(tmp_path, capsys):
    def forge(doc):
        doc["outputs"]["admissibility"]["quotient"]["ledger"][1]["t_H"] = 1

    tampered = _resealed(tmp_path, _find(tmp_path, TORUS_TRIPLES[1], 6), forge)
    capsys.readouterr()
    assert cli_main(["filtration", "check", str(tampered)]) == 2
    assert "admissible" in capsys.readouterr().err


# -- each fact decided once ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(STABILITY_PROBLEMS))
def test_ramified_find_decides_each_fact_once(tmp_path, capsys, monkeypatch,
                                              name):
    # the cert-ramified triples have one piece: its isotypic decomposition
    # is computed once, its stability verdict is F_B's, and a successful
    # search never runs the seed construction
    calls = []
    _counting(monkeypatch, isotypic_mod, "_isotypic_decomposition", calls)
    _counting(monkeypatch, driver_mod, "is_diagonally_stable", calls)
    _counting(monkeypatch, driver_mod, "lagrangian_h_small_intersection",
              calls)
    for seed in range(3):
        calls.clear()
        cert = _find(tmp_path, STABILITY_PROBLEMS[name], seed)
        pieces = json.loads(cert.read_text())["outputs"]["pieces"]
        names = [n for n, _ in calls]
        assert names.count("_isotypic_decomposition") == len(pieces) == 1
        assert names.count("is_diagonally_stable") == 1
        assert "lagrangian_h_small_intersection" not in names
    capsys.readouterr()


def test_one_piece_find_splits_and_decides_admissibility_once(
        tmp_path, capsys, monkeypatch):
    # ordinary_torus + C2 has one piece, D_B in the basis ambient: the piece
    # inherits D_B's split, and F_B's exact report is the piece's
    calls = []
    _counting(monkeypatch, slopes_mod, "_isoclinic_decompose", calls)
    _counting(monkeypatch, admissible_mod, "is_admissible", calls)
    cert = json.loads(_find(tmp_path, TORUS_TRIPLES[1], 2).read_text())
    capsys.readouterr()
    assert len(cert["outputs"]["pieces"]) == 1
    assert cert["params"]["mode"] == "exact"
    names = [n for n, _ in calls]
    assert names.count("_isoclinic_decompose") == 1
    assert names.count("is_admissible") == 1
    quotient = cert["outputs"]["admissibility"]["quotient"]
    assert quotient == cert["outputs"]["pieces"][0]["admissibility"]


def test_one_component_piece_induces_its_action_once(tmp_path, capsys,
                                                     monkeypatch):
    # C4 on ss2_q4 has one isotypic component: the block's action is the
    # piece's, induced once
    calls = []
    _counting(monkeypatch, driver_mod, "induced_rep", calls)
    cert = json.loads(_find(tmp_path, STABILITY_PROBLEMS["c4"], 1).read_text())
    capsys.readouterr()
    assert len(cert["outputs"]["pieces"]) == len(calls) == 1


def test_c4_find_decides_the_action_on_its_generator(tmp_path, capsys,
                                                     monkeypatch):
    # C4 is generated by g1: validate checks its row of the table, |S| |G| =
    # 4 products of 16, and stability costs one joint elimination over L for
    # g1, as the Lagrangian check has certified rank F = g already: |S| = 1
    # elimination instead of 5
    products, over_L = [], []
    relation, row_reduce = la.mat_mul_sub_is_zero, la.certified_row_reduce
    validate = GroupRepresentation.validate
    stable = driver_mod.is_diagonally_stable

    def spy_validate(rep, *args, **kwargs):
        mats = {id(m) for m in rep.mats}

        def spy_relation(a, b, c, min_bound):
            if id(a) in mats and id(b) in mats:
                products.append((id(a), id(b)))
            return relation(a, b, c, min_bound)

        with monkeypatch.context() as patch:
            patch.setattr(la, "mat_mul_sub_is_zero", spy_relation)
            return validate(rep, *args, **kwargs)

    def spy_stable(rep, F, setup, rank=None):
        def spy_row_reduce(m, *args, **kwargs):
            # a Scalar matrix over L, or raw rows over L (their level m.k)
            if m and m[0] and (m.k.field if isinstance(m, la.Raw)
                               else m[0][0].field) is setup.ext:
                over_L.append(len(m))
            return row_reduce(m, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(la, "certified_row_reduce", spy_row_reduce)
            return stable(rep, F, setup, rank=rank)

    monkeypatch.setattr(GroupRepresentation, "validate", spy_validate)
    monkeypatch.setattr(driver_mod, "is_diagonally_stable", spy_stable)
    _find(tmp_path, STABILITY_PROBLEMS["c4"], 1)
    capsys.readouterr()
    assert len(products) == 4 == len(set(products))
    assert len(over_L) == 1


def _kummer_c3_problem():
    # C3 acts by diag(z, z^2) over Q_7, where z and z^2 are not conjugate:
    # two components, which the piece takes together as duals
    Q7 = unramified(7, 1, N)
    D = PhiModule.from_rational(Q7, [[1, 0], [0, 7]])
    J = la.from_rows_of_fractions(Q7, [[0, 1], [-1, 0]])
    z3 = Q7.teichmuller(3)
    zz = Q7.scalar(0)
    m = [[z3, zz], [zz, sc_mul(z3, z3)]]
    rep = GroupRepresentation.from_generator_matrices(cyclic(3), Q7,
                                                      {"g1": m})
    return SemiAbelianPhiModule(D, [[] for _ in range(2)], J,
                                validate=False), rep


def test_the_induced_action_on_an_exact_identity_is_the_action():
    # solve_right(I, m I) is m Scalar for Scalar, so on the exact identity
    # induced_rep takes rep's matrices into a new representation; on any
    # other basis P (C3 acts by diag(z, z^2), which no shear commutes with)
    # it solves for P^-1 m P
    _, rep = _kummer_c3_problem()
    Q7 = rep.field
    I = la.identity(Q7, 2)
    assert [_spec(la.solve_right(I, la.mat_mul(m, I))) for m in rep.mats] == \
        [_spec(m) for m in rep.mats]
    on_I = induced_rep(rep, la.identity(Q7, 2))
    assert on_I is not rep and on_I.mats is rep.mats and not on_I.faithful
    P = la.from_rows_of_fractions(Q7, [[1, 1], [0, 1]])
    on_P = induced_rep(rep, P)
    thr = la.relation_threshold(Q7)
    for m, mP in zip(rep.mats, on_P.mats):
        assert la.mat_mul_sub_is_zero(P, mP, la.mat_mul(m, P), thr)
    assert any(_spec(mP) != _spec(m) for m, mP in zip(rep.mats, on_P.mats))


TRANSPORT_PROBLEMS = {
    **{name: lambda triple=triple: _problem(triple)[:2]
       for name, triple in STABILITY_PROBLEMS.items()},
    "torus-c2": lambda: _problem(TORUS_TRIPLES[1])[:2],
    "two-pieces": lambda: _two_piece_problem(unramified(2, 1, N)),
    "kummer-c3": _kummer_c3_problem,
}


@pytest.mark.parametrize("name", sorted(TRANSPORT_PROBLEMS))
def test_pieces_keep_their_isotypic_components(name):
    # the components a piece inherits from its block are those a fresh
    # decomposition of the piece finds, and span the same subspaces
    sa, rep = TRANSPORT_PROBLEMS[name]()
    pieces = decompose_polarized(sa.quotient_module(), sa.gram_B,
                                 _quotient_rep(sa, rep))
    for piece in pieces:
        kept = isotypic_mod.isotypic_decomposition(piece.rep)
        fresh = isotypic_mod._isotypic_decomposition(piece.rep)
        assert ([(c.orbit, c.degree, c.dim) for c in kept]
                == [(c.orbit, c.degree, c.dim) for c in fresh])
        for k, f in zip(kept, fresh):
            assert la.subspace_leq(k.basis_cols, f.basis_cols)
            assert la.subspace_leq(f.basis_cols, k.basis_cols)
    most = max(len(isotypic_mod.isotypic_decomposition(p.rep)) for p in pieces)
    assert most == (2 if name == "kummer-c3" else 1)


def test_spent_budget_runs_the_seed_construction(monkeypatch):
    # no sample meets dim(F cap hF) <= 1: the seed construction runs once,
    # after the last sample, and the search then gives up
    sa, rep, setup = _problem(STABILITY_PROBLEMS["c4"])
    [piece] = decompose_polarized(sa.module, sa.gram_B, rep)
    calls = []
    monkeypatch.setattr(la, "intersection_dim",
                        lambda *args: calls.append(("sample", None)) or 2)
    _counting(monkeypatch, driver_mod, "lagrangian_h_small_intersection",
              calls)
    with pytest.raises(BudgetExhaustedError):
        supersingular_filtration(piece, setup, seed=1, budget=3)
    assert [n for n, _ in calls] == (["sample"] * 3
                                     + ["lagrangian_h_small_intersection"])
