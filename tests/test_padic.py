"""Tower arithmetic: valuations, Frobenius, automorphism tables, certified rank."""

import random
from fractions import Fraction

import pytest

from isofilt.errors import PrecisionError, ValidationError
from isofilt.padic import (UnramifiedFieldDescriptor, EisensteinExtensionDescriptor,
                           sc_add, sc_sub, sc_mul, sc_div, sc_inv, sc_pow,
                           sc_frobenius, sc_apply_aut, linalg as la)
from oracles import rational_rank

N = 24


@pytest.fixture(scope="module")
def Q2():
    return UnramifiedFieldDescriptor.create(2, 1, N)


@pytest.fixture(scope="module")
def Q4():
    return UnramifiedFieldDescriptor.create(2, 2, N)


@pytest.fixture(scope="module")
def Q7():
    return UnramifiedFieldDescriptor.create(7, 1, N)


@pytest.fixture(scope="module")
def L_sqrt2(Q2):
    return EisensteinExtensionDescriptor(Q2, (-2, 0, 1), {"e": [0, 1], "s": [0, -1]})


def rand_fraction(rng, p):
    num = rng.randrange(-200, 201)
    den = rng.choice([1, 1, 1, p, p * p, 3, 5]) * rng.randrange(1, 12)
    return Fraction(num, den)


def test_exact_valuations_rationals(Q2):
    assert Q2.scalar(Fraction(3, 4)).val == -2
    assert Q2.scalar(48).val == 4
    assert Q2.scalar(Fraction(5, 7)).val == 0


def test_valuation_multiplicativity(Q2):
    rng = random.Random(11)
    for _ in range(200):
        a = rand_fraction(rng, 2)
        b = rand_fraction(rng, 2)
        if a == 0 or b == 0:
            continue
        x, y = Q2.scalar(a), Q2.scalar(b)
        assert sc_mul(x, y).val == x.val + y.val


def test_valuation_ultrametric(Q2):
    rng = random.Random(12)
    for _ in range(200):
        a = rand_fraction(rng, 2)
        b = rand_fraction(rng, 2)
        if a == 0 or b == 0 or a + b == 0:
            continue
        x, y = Q2.scalar(a), Q2.scalar(b)
        s = sc_add(x, y)
        assert s.val >= min(x.val, y.val)
        if x.val != y.val:
            assert s.val == min(x.val, y.val)


def test_arithmetic_matches_rationals(Q4):
    rng = random.Random(13)
    for _ in range(100):
        a = rand_fraction(rng, 2)
        b = rand_fraction(rng, 2)
        if b == 0:
            continue
        got = sc_div(Q4.scalar(a), Q4.scalar(b))
        want = Q4.scalar(a / b)
        d = sc_sub(got, want)
        assert d.kind != "reg"


def test_frobenius_fixes_rationals(Q4):
    x = Q4.scalar(7)
    fx = sc_frobenius(x)
    assert sc_sub(fx, x).kind != "reg"


def test_frobenius_is_squaring_on_generator(Q4):
    w = Q4.gen()
    assert sc_sub(sc_frobenius(w), sc_pow(w, 2)).kind != "reg"


def test_frobenius_order_f(Q4):
    rng = random.Random(14)
    for _ in range(100):
        coeffs = [rand_fraction(rng, 2) for _ in range(2)]
        x = sc_add(Q4.scalar(coeffs[0]), sc_mul(Q4.scalar(coeffs[1]), Q4.gen()))
        if x.kind != "reg":
            continue
        y = sc_frobenius(sc_frobenius(x))
        assert sc_sub(y, x).kind != "reg"


def test_teichmuller_roots(Q7, Q4):
    z6 = Q7.teichmuller(6)
    assert sc_sub(sc_pow(z6, 6), Q7.one()).kind != "reg"
    assert sc_sub(sc_pow(z6, 3), Q7.one()).kind == "reg"  # primitive
    z3 = Q4.teichmuller(3)
    assert sc_sub(sc_pow(z3, 3), Q4.one()).kind != "reg"


def test_eisenstein_validation_rejects_non_eisenstein(Q2):
    with pytest.raises(ValidationError):
        EisensteinExtensionDescriptor(Q2, (-3, 0, 1))  # v(3) = 0 at p=2
    with pytest.raises(ValidationError):
        EisensteinExtensionDescriptor(Q2, (-4, 0, 1))  # v(4) = 2


def test_automorphism_table_group(L_sqrt2):
    assert L_sqrt2.identity_name == "e"
    assert L_sqrt2.compose_table[("s", "s")] == "e"
    # images permute the roots of E transitively: e(u) = u, s(u) = -u distinct
    imgs = {n: rec.image for n, rec in L_sqrt2.automorphisms.items()}
    assert imgs["e"] != imgs["s"]


def test_automorphism_table_rejects_broken_table(Q2):
    with pytest.raises(ValidationError):
        EisensteinExtensionDescriptor(Q2, (-2, 0, 1), {"e": [0, 1], "bad": [1, 1]})


def test_c4_cyclotomic_fixture_table(Q2):
    C4 = EisensteinExtensionDescriptor(
        Q2, (2, 0, -4, 0, 1),
        {"e": [0, 1], "g": [0, -3, 0, 1], "g2": [0, -1], "g3": [0, 3, 0, -1]})
    assert C4.compose_table[("g", "g")] == "g2"
    assert C4.compose_table[("g", "g3")] == "e"
    pi = C4.uniformizer()
    img = sc_apply_aut(pi, C4.automorphisms["g"])
    assert img.val == Fraction(1, 4)


def test_value_group_of_eisenstein(L_sqrt2):
    s2 = L_sqrt2.uniformizer()
    assert s2.val == Fraction(1, 2)
    assert sc_mul(s2, s2).val == 1
    x = sc_add(L_sqrt2.scalar(2), s2)  # val 1/2 wins
    assert x.val == Fraction(1, 2)


def test_galois_conjugate_of_uniformizer(L_sqrt2):
    s2 = L_sqrt2.uniformizer()
    c = sc_apply_aut(s2, L_sqrt2.automorphisms["s"])
    assert c.val == Fraction(1, 2)
    assert sc_add(s2, c).kind == "izero"  # s + (-s)


# -- certified rank -------------------------------------------------------------


def test_rank_identity(Q2):
    assert la.certified_rank(la.identity(Q2, 3)) == 3


def test_rank_zero_matrix(Q2):
    z = [[Q2.scalar(0)] * 2 for _ in range(2)]
    assert la.certified_rank(z) == 0


def test_rank_refuses_pivot_below_guard(Q2):
    hidden = sc_add(Q2.scalar(1), Q2.scalar(2 ** (N - 1)))
    m = [[Q2.scalar(1), Q2.scalar(1)], [Q2.scalar(1), hidden]]
    with pytest.raises(PrecisionError):
        la.certified_rank(m, guard=N // 2)


def test_rank_agrees_with_rational_oracle(Q2, Q4):
    rng = random.Random(15)
    for field in (Q2, Q4):
        for _ in range(60):
            nr = rng.randrange(1, 5)
            nc = rng.randrange(1, 5)
            rows = [[rand_fraction(rng, 2) for _ in range(nc)] for _ in range(nr)]
            if rng.random() < 0.5:
                # force rank deficiency: duplicate a row combination
                if nr >= 2:
                    rows[-1] = [a + b for a, b in zip(rows[0], rows[nr // 2])]
            m = la.from_rows_of_fractions(field, rows)
            assert la.certified_rank(m) == rational_rank(rows)


def test_det_valuation(Q2):
    m = la.from_rows_of_fractions(Q2, [[2, 0], [0, Fraction(3, 4)]])
    assert la.det_valuation(m) == -1


def test_kernel_and_solve(Q2):
    rows = [[1, 2, 3], [2, 4, 6]]
    m = la.from_rows_of_fractions(Q2, rows)
    ker = la.kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        img = la.mat_mul(m, [[x] for x in v])
        assert all(cell[0].kind != "reg" for cell in img)


def test_intersection_dim(Q2):
    a = la.from_rows_of_fractions(Q2, [[1, 0], [0, 1], [0, 0]])
    b = la.from_rows_of_fractions(Q2, [[0], [1], [1]])
    assert la.intersection_dim(a, b) == 0
    c = la.from_rows_of_fractions(Q2, [[1], [1], [0]])
    assert la.intersection_dim(a, c) == 1


def test_guard_certificate_reported(Q2):
    m = la.from_rows_of_fractions(Q2, [[4, 0], [0, 8]])
    cert = la.rank_certificate(m, guard=8)
    assert cert.rank == 2
    assert sorted(cert.pivot_ws) == [2, 3]
    assert cert.guard == 8
    assert cert.as_dict()["pivot_valuations"] == ["2", "3"]


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("prec", [16, 32])
def test_hensel_lift_pair_ramified_to_cap(e, prec):
    # F = g*h over Z_2[t]/(t^e - 2) with g, h monic and coprime mod pi: the
    # lift recovers g and h mod pi^(e*N), not just mod pi^N
    from isofilt.padic.hensel import hensel_lift_pair, rp_add, rp_mul
    base = UnramifiedFieldDescriptor.create(2, 1, prec)
    ring = EisensteinExtensionDescriptor(base, (-2,) + (0,) * (e - 1) + (1,),
                                         validate=False).ring
    rng = random.Random(100 * e + prec)
    u = ring.gen_u()

    def lift_monic(res):
        out = [ring.add(ring.from_int(c),
                        ring.mul(u, tuple(rng.randrange(ring.pn)
                                          for _ in range(ring.dim))))
               for c in res[:-1]]
        return out + [ring.one()]

    g0, h0 = [1, 1, 1], [1, 1, 0, 1]      # x^2+x+1, x^3+x+1: coprime mod 2
    g, h = lift_monic(g0), lift_monic(h0)
    F = rp_mul(ring, g, h)
    G, H, S, T = hensel_lift_pair(ring, F, [ring.from_int(c) for c in g0],
                                  [ring.from_int(c) for c in h0])
    assert rp_mul(ring, G, H) == F
    assert [x[0] % 2 for x in G] == g0 and [x[0] % 2 for x in H] == h0
    # unique lift: the factors themselves come back, to the ring's cap
    assert G == g and H == h
    bez = rp_add(ring, rp_mul(ring, S, G), rp_mul(ring, T, H))
    assert bez[0] == ring.one() and all(c == ring.zero() for c in bez[1:])
    assert len(S) < len(H) and len(T) < len(G)


# find_unramified_modulus on a (p, f, N) grid, values pinned from the
# Hensel lift of a degree-f factor of the (q-1)-st cyclotomic polynomial
UNRAMIFIED_MODULI = {
    (2, 2, 8): (1, 1, 1),
    (2, 2, 64): (1, 1, 1),
    (2, 3, 16): (65535, 24666, 24667, 1),
    (2, 3, 64): (18446744073709551615, 926155691629764698, 926155691629764699, 1),
    (2, 4, 32): (1, 1056383596, 4294967294, 3238583699, 1),
    (2, 5, 16): (65535, 32504, 14172, 16033, 34366, 1),
    (2, 6, 24): (1, 11786864, 5989816, 14385310, 1649116, 15021191, 1),
    (2, 8, 64): (1, 12589030830687367812, 575347512865571658, 17170677306839875718,
                 4312756862511901195, 10193609903605050389, 11511114142966845435,
                 13339388624631127602, 1),
    (2, 10, 32): (1, 1097354048, 2109959584, 2048251160, 455881424, 2655352430,
                  3837847340, 3974379359, 658127480, 1581446128, 1),
    (3, 2, 48): (79766443076872509863360, 64422477969082432104712, 1),
    (3, 3, 24): (1, 6640014000, 59566054178, 1),
    (3, 4, 16): (43046720, 22859229, 32559207, 36920710, 1),
    (5, 2, 32): (15250553973796510045807, 22701208236513163945286, 1),
    (5, 4, 32): (15250553973796510045807, 19836272121446524165120,
                 16453128105150202449477, 4425369067267394624376, 1),
    (7, 3, 16): (10445516265494, 31315321973041, 16029650623505, 1),
}


@pytest.mark.parametrize("p, f, prec", sorted(UNRAMIFIED_MODULI))
def test_unramified_modulus_is_pinned_teichmuller_lift(p, f, prec):
    from itertools import product
    from isofilt.padic.fp import fp_is_primitive
    from isofilt.padic.hensel import find_unramified_modulus
    from isofilt.padic.ring import TowerRing
    G = find_unramified_modulus(p, f, prec)
    assert G == UNRAMIFIED_MODULI[p, f, prec]
    # G lifts the lexicographically first primitive g mod p ...
    g = next([*tail, 1] for tail in product(range(p), repeat=f)
             if fp_is_primitive([*tail, 1], p))
    assert [c % p for c in G] == g
    # ... and its root z is a Teichmuller root: z^q = z mod p^N
    ring = TowerRing(p, prec, G)
    z = ring.gen_z()
    assert ring.pow(z, p ** f) == z


def test_json_modulus_need_not_be_the_default():
    # the reciprocal of the default modulus lifts x^3+x+1, not x^3+x^2+1, and
    # its roots z^-1 are primitive Teichmuller roots: a valid presentation
    from isofilt.formats import field_from_json
    default = UnramifiedFieldDescriptor.create(2, 3, 16)
    reciprocal = tuple(-c % 2 ** 16 for c in reversed(default.modulus))
    field = field_from_json({"p": 2, "f": 3, "precision": 16,
                             "modulus": list(reciprocal)})
    assert field.modulus == reciprocal
    assert [c % 2 for c in field.modulus] == [1, 1, 0, 1]


def test_fp_is_primitive():
    from isofilt.padic.fp import fp_is_primitive
    # over F_2: x^2+x+1 generates F_4^*; x^4+x^3+x^2+x+1 is irreducible but
    # its roots have order 5 of 15; x^2+1 = (x+1)^2 is reducible
    assert fp_is_primitive([1, 1, 1], 2)
    assert not fp_is_primitive([1, 1, 1, 1, 1], 2)
    assert fp_is_primitive([1, 1, 0, 0, 1], 2)
    assert not fp_is_primitive([1, 0, 1], 2)
    # over F_3: x^2+1 is irreducible with roots of order 4 of 8
    assert not fp_is_primitive([1, 0, 1], 3)
    assert fp_is_primitive([2, 1, 1], 3)


# -- modular elimination and unramified embeddings ---------------------------------


def _matmul_mod(a, b, mod):
    return [[sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b)]
            for row in a]


def _random_rank_r(rng, m, n, r, mod):
    """A product (m x r)(r x n) mod mod whose factors reduce to full rank r mod
    p: rank r mod p and at most r over Z, so unit-pivot elimination finds r
    pivots and leaves the rows below them zero."""
    left = [[int(i == j) for j in range(r)] for i in range(r)]
    left += [[rng.randrange(mod) for _ in range(r)] for _ in range(m - r)]
    rng.shuffle(left)
    right = [[int(i == j) for j in range(r)] + [rng.randrange(mod)
                                                for _ in range(n - r)]
             for i in range(r)]
    order = list(range(n))
    rng.shuffle(order)
    right = [[row[j] for j in order] for row in right]
    return _matmul_mod(left, right, mod) if r else [[0] * n for _ in range(m)]


@pytest.mark.parametrize("p,N", [(7, 1), (101, 1), (2, 16), (3, 8)])
def test_fp_row_reduce(p, N):
    from isofilt.padic.fp import fp_row_reduce
    mod = p ** N
    rng = random.Random(1000 * p + N)
    for trial in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        r = rng.randrange(0, min(m, n) + 1)
        a = _random_rank_r(rng, m, n, r, mod)
        rows, piv = fp_row_reduce(a, p, mod)
        assert len(piv) == r
        for i, c in enumerate(piv):
            assert [row[c] for row in rows] == [int(j == i) for j in range(m)]
        assert all(not any(row) for row in rows[r:])
        # one kernel vector per free column annihilates a
        for fc in range(n):
            if fc in piv:
                continue
            v = [0] * n
            v[fc] = 1
            for i, c in enumerate(piv):
                v[c] = -rows[i][fc] % mod
            assert _matmul_mod(a, [[x] for x in v], mod) == [[0]] * m
        # solve cols x = b: the columns are independent mod p, so every one
        # takes a pivot and the augmented column returns x
        k = rng.randrange(1, m + 1)
        cols = _random_rank_r(rng, m, k, k, mod)
        x = [rng.randrange(mod) for _ in range(k)]
        b = _matmul_mod(cols, [[t] for t in x], mod)
        rows, piv = fp_row_reduce([row + t for row, t in zip(cols, b)], p, mod, k)
        assert piv == list(range(k))
        assert [row[k] for row in rows[:k]] == x
        assert all(row[k] == 0 for row in rows[k:])


@pytest.mark.parametrize("p,f,s", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_unramified_embedding_round_trip(p, f, s):
    from isofilt.padic.convert import UnramifiedEmbedding
    from isofilt.padic.scalar import REG, Scalar
    small = UnramifiedFieldDescriptor.create(p, f, N)
    big = UnramifiedFieldDescriptor.create(p, f * s, N)
    emb = UnramifiedEmbedding(small, big)
    rng = random.Random(100 * p + 10 * f + s)
    xs = [small.gen(), small.one(), small.scalar(Fraction(-3, 5))]
    for _ in range(10):
        unit = [rng.randrange(p ** N) for _ in range(f)]
        unit[0] += unit[0] % p == 0
        xs.append(Scalar(small, REG, w=rng.randrange(4), unit=tuple(unit),
                         relpi=rng.randrange(8, N + 1)))
    for x in xs:
        y = emb.pull_back(emb(x))
        assert (y.kind, y.w, y.unit, y.relpi) == (x.kind, x.w, x.unit, x.relpi)
    # the big generator has order q^s - 1, so it lies in no smaller level
    with pytest.raises(PrecisionError):
        emb.pull_back(big.gen())
