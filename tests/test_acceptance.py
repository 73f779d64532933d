"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Tolerances are exact (integer/rational equality) throughout;
randomized searches are seeded and certified decisions either succeed with
the stated guard or escalate precision.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (rational_rank, rational_charpoly, rational_matmul,
                     rational_newton_slopes, rational_intersection_dim)

from isofilt import bounds
from isofilt.cli import main as cli_main
from isofilt import formats
from isofilt.errors import PrecisionError
from isofilt.fixtures import (unramified, sqrt2_extension, trivial_extension,
                              c4_cyclotomic_extension, quaternion_pair,
                              scalar_c2_rep, c4_k_rep, wreath_block_rep,
                              block_frobenius_module, supersingular_module)
from isofilt.groups.constructions import all_groups_up_to_16, wreath_q8_sylow, cyclic
from isofilt.groups.characters import CharacterTable
from isofilt.groups.core import GroupRepresentation
from isofilt.groups.isotypic import find_perturbateur
from isofilt.filtration.galois import GaloisSetup
from isofilt.filtration.admissible import is_admissible
from isofilt.filtration.driver import find_admissible_stable_filtration
from isofilt.isocrystal.module import (PhiModule, SemiAbelianPhiModule,
                                       standard_symplectic_gram)
from isofilt.isocrystal.slopes import newton_slopes
from isofilt.padic import linalg as la
from isofilt.padic.scalar import sc_inv, sc_mul, sc_pow
from isofilt.precision import with_escalation
from isofilt.symplectic.space import SymplecticSpace
from isofilt.symplectic.lagrangian import (lagrangian_avoiding,
                                           lagrangian_h_small_intersection)


def _report(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- criterion 1: Minkowski suite -------------------------------------------------


def test_minkowski_suite():
    t0 = time.monotonic()
    assert bounds.minkowski_exponent(2, 2) == 3
    assert bounds.minkowski_bound(2) == 24
    assert bounds.minkowski_bound(4) == 5760
    assert bounds.minkowski_bound(1) == 2
    for g in range(1, 9):
        for n in range(0, g + 1):
            certs = bounds.divisibility_checks(n, 2 * g - n, g, n)
            assert certs["product"]["holds"] and certs["split"]["holds"]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report("minkowski-suite")


# -- criterion 2: wreath suite -----------------------------------------------------


def test_wreath_suite():
    field = unramified(2, 2, 24)
    thr = Fraction(field.prec, 2)
    t3 = None
    for g in (1, 2, 3):
        t0 = time.monotonic()
        rep = wreath_block_rep(field, g)
        want = 2 ** bounds.minkowski_exponent(2 * g, 2)
        assert rep.group.n == want, f"g={g}: order {rep.group.n} != {want}"
        D = block_frobenius_module(field, g)
        J = standard_symplectic_gram(field, g)
        A = D.A
        for x in range(rep.group.n):
            m = rep.mats[x]
            lhs = la.mat_mul(m, A)
            rhs = la.mat_mul(A, la.mat_frobenius(m))
            assert la.mat_is_zero(la.mat_sub(lhs, rhs), thr)
            sym = la.mat_mul(la.transpose(m), la.mat_mul(J, m))
            assert la.mat_is_zero(la.mat_sub(sym, J), thr)
        if g == 3:
            t3 = time.monotonic() - t0
    assert t3 is not None and t3 < 30.0, f"g=3 runtime {t3:.1f}s exceeds 30s"
    _report("wreath-suite")


# -- criterion 3: slope oracle -----------------------------------------------------


def test_slope_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 7)
        f = rng.randrange(1, 4)
        rows = [[Fraction(rng.randrange(-6, 7), rng.choice([1, 1, 1, 2, 4]))
                 for _ in range(n)] for _ in range(n)]
        from oracles import rational_det
        if rational_det(rows) == 0:
            continue

        def run(prec):
            field = unramified(2, f, prec)
            D = PhiModule.from_rational(field, rows)
            return newton_slopes(D).pairs

        got = with_escalation(run, 32)
        # oracle: exact rational charpoly of A^f, Newton polygon over Q
        B = [[Fraction(x) for x in row] for row in rows]
        for _ in range(f - 1):
            B = rational_matmul(B, [[Fraction(x) for x in row] for row in rows])
        chi = rational_charpoly(B)
        want = tuple(sorted((v / f, m)
                            for v, m in rational_newton_slopes(chi, 2)))
        assert got == want, (rows, f, got, want)
        checked += 1
    _report("slope-oracle")


# -- criterion 4: Lagrangian suites ------------------------------------------------


def test_lagrangian_avoiding_500():
    rng = random.Random(77)
    done = 0
    while done < 500:
        g = rng.randrange(1, 5)
        dm = rng.randrange(0, g + 1)
        p = rng.choice([2, 2, 3, 7])
        rows = [[rng.randrange(-9, 10) for _ in range(dm)]
                for _ in range(2 * g)]
        seed = rng.randrange(1 << 30)

        def run(prec):
            field = unramified(p, 1, prec)
            sp = SymplecticSpace(field, standard_symplectic_gram(field, g))
            M = la.from_rows_of_fractions(field, rows)
            if dm and la.certified_rank(la.transpose(M)) != dm:
                return False
            F = lagrangian_avoiding(sp, M, seed=seed)
            assert F.dim == g
            if dm:
                assert la.intersection_dim(F.basis_cols, M) == 0
            return True

        if with_escalation(run, 24):
            done += 1
    _report("lagrangian-avoiding-500")


def test_lagrangian_h_small_200():
    rng = random.Random(78)
    done = 0
    # the terminal three-double-eigenvalue shape from the g = 3 analysis
    field7 = unramified(7, 1, 24)
    z3 = field7.teichmuller(3)
    sp3 = SymplecticSpace(field7, standard_symplectic_gram(field7, 3))
    z = field7.scalar(0)
    rows = [[z] * 6 for _ in range(6)]
    vals = [z3, sc_inv(z3), z3, sc_inv(z3), field7.scalar(-1), field7.scalar(-1)]
    for i in range(6):
        rows[i][i] = vals[i]
    big, F, H = lagrangian_h_small_intersection(sp3, rows)
    assert la.intersection_dim(F.basis_cols, la.mat_mul(H, F.basis_cols)) <= 1
    done += 1
    # quaternion k over Q_4 (ramified eigenvalue extension)
    field4 = unramified(2, 2, 24)
    X, Y = quaternion_pair(field4)
    K = la.mat_mul(X, Y)
    sp1 = SymplecticSpace(field4, standard_symplectic_gram(field4, 1))
    big, F, H = lagrangian_h_small_intersection(sp1, K)
    assert la.intersection_dim(F.basis_cols, la.mat_mul(H, F.basis_cols)) <= 1
    done += 1
    while done < 200:
        g = rng.randrange(1, 5)
        p = rng.choice([5, 7])
        colors = [rng.randrange(0, p - 1) for _ in range(g)]
        from collections import Counter
        mm = Counter()
        for c in colors:
            mm[c % (p - 1)] += 1
            mm[(-c) % (p - 1)] += 1
        if max(mm.values()) > g:
            continue
        seed = rng.randrange(1 << 30)

        def run(prec):
            field = unramified(p, 1, prec)
            zg = field.teichmuller(p - 1)
            sp = SymplecticSpace(field, standard_symplectic_gram(field, g))
            zz = field.scalar(0)
            h = [[zz] * (2 * g) for _ in range(2 * g)]
            for i in range(g):
                lam = sc_pow(zg, colors[i])
                h[2 * i][2 * i] = lam
                h[2 * i + 1][2 * i + 1] = sc_inv(lam)
            S = _random_symplectic(field, g, random.Random(seed))
            h = la.mat_mul(S, la.mat_mul(h, la.mat_inverse(S)))
            bs, F, H = lagrangian_h_small_intersection(sp, h)
            d = la.intersection_dim(F.basis_cols, la.mat_mul(H, F.basis_cols))
            assert d <= 1, d
            return True

        with_escalation(run, 24)
        done += 1
    _report("lagrangian-h-small-200")


def _random_symplectic(field, g, rng):
    from isofilt.padic.scalar import sc_add
    n = 2 * g
    J = standard_symplectic_gram(field, g)
    M = la.identity(field, n)
    for _ in range(5):
        v = [field.scalar(rng.randrange(-3, 4)) for _ in range(n)]
        c = field.scalar(rng.randrange(1, 5))
        Jv = la.mat_mul(J, [[x] for x in v])
        T = la.identity(field, n)
        for a in range(n):
            for b in range(n):
                T[a][b] = sc_add(T[a][b], sc_mul(sc_mul(c, v[a]), Jv[b][0]))
        M = la.mat_mul(M, T)
    return M


# -- criterion 5: perturbation witnesses over every fixture group -------------------


def test_perturbateur_suite():
    fixtures = list(all_groups_up_to_16()) + [("WreathSyl2", wreath_q8_sylow(2))]
    scanned = 0
    for label, G in fixtures:
        ct = CharacterTable(G)
        for chi in range(ct.k):
            d = ct.degrees[chi]
            if d < 2:
                continue
            found = None
            for c in range(ct.r):
                mults = ct.eigenvalue_multiplicities(chi, c)
                if all(2 * m <= d for _, m in mults):
                    found = c
                    break
            assert found is not None, f"{label}: irrep of dim {d} has no witness"
            scanned += 1
    assert scanned >= 20
    # scalar actions report the homothety branch
    field4 = unramified(2, 2, 24)
    assert find_perturbateur(scalar_c2_rep(field4, 2)) == "homothety-action"
    field5 = unramified(5, 1, 24)
    z4 = field5.teichmuller(4)
    m = la.mat_scalar(z4, la.identity(field5, 2))
    rep = GroupRepresentation.from_generator_matrices(cyclic(4), field5,
                                                      {"g1": m})
    assert find_perturbateur(rep) == "homothety-action"
    _report("perturbateur-suite")


# -- criterion 6: admissibility exact-mode oracle -----------------------------------


SIMPLES = [(Fraction(0), 0, 1), (Fraction(1, 3), 1, 3), (Fraction(1, 2), 1, 2),
           (Fraction(2, 3), 2, 3), (Fraction(1), 1, 1)]


def test_admissibility_exact_oracle():
    field = unramified(2, 1, 48)
    ext = trivial_extension(field)
    rng = random.Random(99)
    compared = 0
    for r in range(1, len(SIMPLES) + 1):
        for pick in combinations(range(len(SIMPLES)), r):
            dims = sum(SIMPLES[i][2] for i in pick)
            if dims > 6:
                continue
            blocks = [SIMPLES[i] for i in pick]
            D = None
            for _, s, rr in blocks:
                M = PhiModule.simple(field, s, rr)
                D = M if D is None else D.direct_sum(M)
            tN = sum(s for _, s, _ in blocks)
            n = D.n
            for trial in range(4):
                dimF = tN if trial < 3 else max(1, min(n, tN + rng.choice([-1, 1])))
                Frows = [[Fraction(rng.randrange(-9, 10)) for _ in range(dimF)]
                         for _ in range(n)]
                if rational_rank(Frows) != dimF:
                    continue
                F = la.from_rows_of_fractions(field, Frows)
                FL = [[ext.lift(x) for x in row] for row in F]
                rep = is_admissible(D, FL, ext, "exact")
                want_verdict, want_ledger = _oracle_admissible(blocks, Frows)
                got_ledger = sorted((d, th, str(b)) for d, th, b in rep.entries)
                assert rep.verdict == want_verdict, (pick, Frows)
                assert got_ledger == sorted(want_ledger), (pick, Frows)
                compared += 1
    assert compared >= 40
    _report("admissibility-exact-oracle")


def _oracle_admissible(blocks, Frows):
    """Fraction-free oracle over the same 2^k submodules (block subsets)."""
    n = len(Frows)
    dimF = len(Frows[0])
    offs = []
    off = 0
    for _, s, rr in blocks:
        offs.append((off, rr, s))
        off += rr
    ledger = []
    verdict = True
    k = len(blocks)
    for r in range(k + 1):
        for pick in combinations(range(k), r):
            dimN = sum(offs[i][1] for i in pick)
            bound = sum(offs[i][2] for i in pick)
            if dimN == 0:
                ledger.append((0, 0, str(Fraction(0))))
                continue
            Ncols = []
            for i in pick:
                o, rr, _ = offs[i]
                for j in range(rr):
                    col = [Fraction(0)] * n
                    col[o + j] = Fraction(1)
                    Ncols.append(col)
            Nmat = [[Ncols[c][i] for c in range(len(Ncols))] for i in range(n)]
            th = rational_intersection_dim(Nmat, Frows)
            ledger.append((dimN, th, str(Fraction(bound))))
            if th > bound:
                verdict = False
            if dimN == n and th != bound:
                verdict = False
    return verdict, ledger


# -- criterion 7: end-to-end certificates ------------------------------------------


def test_eadm_end_to_end(tmp_path):
    t0 = time.monotonic()
    N = 64
    Q2 = unramified(2, 1, N)
    Q4 = unramified(2, 2, N)
    cases = []

    # (a) torus-only, G = C2
    D = PhiModule.from_rational(Q2, [[2, 0], [0, 2]])
    sa = SemiAbelianPhiModule(D, la.identity(Q2, 2), [], validate=False)
    cases.append(("torus-c2", sa, scalar_c2_rep(Q2, 2), _setup_c2(Q2), None))

    # (b) ordinary + torus, G trivial and G = C2
    A = [[2, 0, 0], [0, 1, 0], [0, 0, 2]]
    D = PhiModule.from_rational(Q2, A)
    toric = la.from_rows_of_fractions(Q2, [[1], [0], [0]])
    gram_B = la.from_rows_of_fractions(Q2, [[0, 1], [-1, 0]])
    sa = SemiAbelianPhiModule(D, toric, gram_B)
    triv_rep = GroupRepresentation(cyclic(1), Q2, [la.identity(Q2, 3)],
                                   faithful=False)
    cases.append(("ordinary-trivial", sa, triv_rep, _setup_trivial(Q2), None))
    cases.append(("ordinary-c2", sa, scalar_c2_rep(Q2, 3), _setup_c2(Q2), None))

    # (c) supersingular dim 2 and dim 4, G = {+-1} and the k-action
    Dss = supersingular_module(Q2)
    sa_ss = SemiAbelianPhiModule(Dss, [[] for _ in range(2)],
                                 standard_symplectic_gram(Q2, 1), validate=False)
    cases.append(("ss2-pm1", sa_ss, scalar_c2_rep(Q2, 2), _setup_c2(Q2), None))
    Dss4 = supersingular_module(Q4)
    sa4 = SemiAbelianPhiModule(Dss4, [[] for _ in range(2)],
                               standard_symplectic_gram(Q4, 1), validate=False)
    cases.append(("ss2-k-c4", sa4, c4_k_rep(Q4), _setup_c4(Q4), None))
    DD = Dss4.direct_sum(supersingular_module(Q4))
    K = c4_k_rep(Q4).mats[1]
    z0 = Q4.scalar(0)
    K2 = [[K[i % 2][j % 2] if (i // 2) == (j // 2) else z0 for j in range(4)]
          for i in range(4)]
    rep42 = GroupRepresentation.from_generator_matrices(cyclic(4), Q4,
                                                        {"g1": K2})
    sa42 = SemiAbelianPhiModule(DD, [[] for _ in range(4)],
                                standard_symplectic_gram(Q4, 2), validate=False)
    cases.append(("ss4-kdiag-c4", sa42, rep42, _setup_c4(Q4), "sampled"))
    DD2 = Dss.direct_sum(supersingular_module(Q2))
    sa_ss4 = SemiAbelianPhiModule(DD2, [[] for _ in range(4)],
                                  standard_symplectic_gram(Q2, 2),
                                  validate=False)
    cases.append(("ss4-pm1", sa_ss4, scalar_c2_rep(Q2, 4), _setup_c2(Q2),
                  "sampled"))

    for idx, (name, sa, rep, setup, mode) in enumerate(cases):
        res = find_admissible_stable_filtration(
            sa, setup, rep, seed=100 + idx, budget=200,
            adm_mode=mode or "exact")
        assert res["admissibility"].verdict, name
        assert res["graded"]["toric"] and res["graded"]["quotient"], name
        assert res["stable"] and res["cocycle"] and res["descent_targets"], name
        # every certificate re-verifies through the CLI checker
        mod_doc = formats.module_to_json(sa)
        grp_doc = formats.group_to_json(rep, faithful=rep.faithful)
        ext_doc = setup.ext.serialize()
        ext_doc["correspondence"] = {setup.group.names[x]: setup.aut_of(x)
                                     for x in range(setup.group.n)}
        mp, gp, ep = (tmp_path / f"{name}-m.json", tmp_path / f"{name}-g.json",
                      tmp_path / f"{name}-e.json")
        json.dump(mod_doc, open(mp, "w"))
        json.dump(grp_doc, open(gp, "w"))
        json.dump(ext_doc, open(ep, "w"))
        cert = tmp_path / f"{name}-cert.json"
        code = cli_main(["filtration", "find", "--module", str(mp),
                         "--group", str(gp), "--extension", str(ep),
                         "--seed", str(100 + idx), "--mode", mode or "sampled",
                         "--budget", "200", "--out", str(cert)])
        assert code == 0, name
        code = cli_main(["filtration", "check", str(cert)])
        assert code == 0, name
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    _report("eadm-end-to-end")


def _setup_c2(field):
    return GaloisSetup(cyclic(2), sqrt2_extension(field),
                       {"g0": "1", "g1": "s"})


def _setup_trivial(field):
    return GaloisSetup(cyclic(1), trivial_extension(field), {"g0": "1"})


def _setup_c4(field):
    return GaloisSetup(cyclic(4), c4_cyclotomic_extension(field),
                       {"g0": "1", "g1": "g", "g2": "g2", "g3": "g3"})


# -- criterion 8: precision robustness ----------------------------------------------


def test_precision_robustness():
    rng = random.Random(321)
    guard = 8
    for trial in range(24):
        n = rng.randrange(2, 5)
        i0 = rng.randrange(n)
        j0 = rng.randrange(n - 1)
        pos = (i0, j0 if j0 < i0 else j0 + 1)  # two distinct columns

        def build_rows(prec):
            # the near-singular block [[1, 1], [1, 1 + 2^(prec-4)]]: the
            # second pivot only appears after a deep cancellation
            rows = [[Fraction(1 if i == j else 0) for j in range(n)]
                    for i in range(n)]
            i0, j0 = pos
            rows[i0][j0] = Fraction(1)
            rows[j0][i0] = Fraction(1)
            rows[j0][j0] = 1 + Fraction(2) ** (prec - 4)
            rows[i0][i0] = Fraction(1)
            return rows

        base = 32
        field = unramified(2, 1, base)
        m = la.from_rows_of_fractions(field, build_rows(base))
        with pytest.raises(PrecisionError):
            la.certified_rank(m, guard)

        def run(prec):
            f2 = unramified(2, 1, prec)
            return la.certified_rank(
                la.from_rows_of_fractions(f2, build_rows(base)), guard)

        got = with_escalation(run, 2 * base)
        assert got == rational_rank(build_rows(base))
    _report("precision-robustness")


# -- criterion 9: counting lemma ----------------------------------------------------


def test_counting_lemma():
    from isofilt.groups.constructions import census_p_groups
    checked = 0
    for label, g in census_p_groups():
        assert g.n <= 64
        out = bounds.cyclic_subgroup_census(g)
        p = out["p"]
        assert out["solutions_of_x_p"] == (p - 1) * out["count"] + 1, label
        assert out["count"] % p != 0, label
        checked += 1
    assert checked >= 40
    _report("counting-lemma")
