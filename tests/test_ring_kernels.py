"""Property tests of the ring kernels against exact integer polynomials.

TowerRing.mul (on dense and sparse operands), TowerRing.inv_unit (on random
elements, on constant units, which skip Newton, and through its memo against
a fresh ring's inverse), the rows of the fold table that TowerRing._reduce
reads, shift_up, divide_pi_exact, w0_pow, frobenius, apply_u_map, and the
compiled polynomial kernels behind hensel.rp_mul, rp_divmod_monic and the
steps of hensel_lift_pair are checked against oracles.tower_reduce (through
the long division of oracles.tower_poly_divmod_monic and the step of
oracles.tower_hensel_step) at every shape of level the library builds:
Q_p and Eisenstein rings over it (f = 1), unramified levels (e = 1) and
ramified steps over them, at a small and a large precision.  Counting guards
pin how often mul reduces and that the memo runs Newton once per unit within
its cap.
"""

from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings, strategies as st

from isofilt.padic.hensel import find_unramified_modulus, rp_divmod_monic, rp_mul
from isofilt.padic import ring as ring_module
from isofilt.padic.ring import TowerRing
from oracles import (tower_hensel_step, tower_poly_divmod_monic, tower_poly_mul,
                     tower_reduce)

LEVELS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4)]
PRECS = [8, 48]
LONGEST = 32  # far past the Hensel lift's lengths, with the largest entries

levels = pytest.mark.parametrize("f, e", LEVELS)
precs = pytest.mark.parametrize("prec", PRECS)
# Every example draws a new ring layout, so each shrink step would compile
# new kernels: a failing example is reported at once, unshrunk
UNSHRUNK = [phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)]
examples = settings(max_examples=30, deadline=None, phases=UNSHRUNK)


@lru_cache(maxsize=None)
def _modulus(p, f, prec):
    return find_unramified_modulus(p, f, prec)


def _ring(p, f, e, prec, tail):
    """The ring with Eisenstein polynomial u^e + p (tail_{e-1} u^(e-1) + ...
    + tail_1 u + (1 + p tail_0)): each tail_k is a length-f integer vector."""
    if e == 1:
        return TowerRing(p, prec, _modulus(p, f, prec))
    unit = (1 + p * tail[0][0],) + tuple(p * c for c in tail[0][1:])
    eis = ((tuple(p * c for c in unit),) + tuple(tuple(p * c for c in v) for v in tail[1:])
           + ((1,) + (0,) * (f - 1),))
    return TowerRing(p, prec, _modulus(p, f, prec), eis)


def _oracle_args(ring):
    E = None if ring.eis is None else [list(c) for c in ring.eis]
    return list(ring.modulus), E, ring.pn


@st.composite
def rings(draw, f, e, prec, rational=False):
    """A ring at level (f, e); rational=True keeps the Eisenstein polynomial
    z-free, as Frobenius needs."""
    p = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, p ** prec)
    vec = st.tuples(entry, *[st.just(0) if rational else entry] * (f - 1))
    return _ring(p, f, e, prec, draw(st.lists(vec, min_size=e, max_size=e)))


def elements(ring):
    entry = st.one_of(st.integers(0, ring.pn - 1), st.sampled_from([0, ring.pn - 1]))
    return st.tuples(*[entry] * ring.dim)


def _is_unit(ring, x):
    # the u^0 part mod p is a nonzero element of F_q
    return any(x[i * ring.e] % ring.p for i in range(ring.f))


@levels
@precs
@examples
@given(data=st.data())
def test_mul_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    x, y = data.draw(elements(ring)), data.draw(elements(ring))
    assert ring.mul(x, y) == tower_poly_mul([x], [y], *_oracle_args(ring))[0]


@levels
@precs
@examples
@given(data=st.data())
def test_inv_unit_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    x = data.draw(elements(ring))
    if not _is_unit(ring, x):
        with pytest.raises(ZeroDivisionError):
            ring.inv_unit(x)
        return
    y = ring.inv_unit(x)
    assert all(0 <= c < ring.pn for c in y)
    one = (1,) + (0,) * (ring.dim - 1)
    assert tower_poly_mul([x], [y], *_oracle_args(ring))[0] == one


@levels
@precs
@examples
@given(data=st.data())
def test_inv_unit_constant_and_nonconstant_units(f, e, prec, data):
    # a constant unit c takes the one-modular-inverse path at every level;
    # moving one more coordinate off zero sends it through Newton
    ring = data.draw(rings(f, e, prec))
    args = _oracle_args(ring)
    pad = (0,) * (ring.dim - 1)
    c = data.draw(st.integers(1, ring.pn - 1).filter(lambda n: n % ring.p))
    const = (c,) + pad
    y = ring.inv_unit(const)
    assert y == (pow(c, -1, ring.pn),) + pad
    assert tower_poly_mul([const], [y], *args)[0] == (1,) + pad
    if ring.dim == 1:
        return
    k = data.draw(st.integers(1, ring.dim - 1))
    x = const[:k] + (data.draw(st.integers(1, ring.pn - 1)),) + const[k + 1:]
    y = ring.inv_unit(x)
    assert all(0 <= c < ring.pn for c in y)
    assert tower_poly_mul([x], [y], *args)[0] == (1,) + pad


@levels
@precs
@settings(max_examples=10, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_inv_unit_memo_matches_a_fresh_inverse(f, e, prec, data):
    # each non-constant unit runs Newton once per ring, and the memo keeps
    # at most INV_MEMO_CAP units, forgetting the oldest first
    cap = 4
    p = data.draw(st.sampled_from([2, 3]))
    tail = data.draw(st.lists(st.tuples(*[st.integers(0, p ** prec)] * f),
                              min_size=e, max_size=e))
    ring = _ring(p, f, e, prec, tail)
    args = _oracle_args(ring)
    one = (1,) + (0,) * (ring.dim - 1)
    units = data.draw(st.lists(elements(ring).filter(lambda x: _is_unit(ring, x)),
                               min_size=2 * cap + 1, max_size=2 * cap + 3, unique=True))
    newton = []
    inv_mod_p = TowerRing._inv_mod_p

    def counting(self, x):
        newton.append(x)
        return inv_mod_p(self, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "INV_MEMO_CAP", cap)
        patch.setattr(TowerRing, "_inv_mod_p", counting)
        for x in units + units[-cap:]:
            y = ring.inv_unit(x)
            assert y == _ring(p, f, e, prec, tail).inv_unit(x)
            assert tower_poly_mul([x], [y], *args)[0] == one
            assert len(ring._inv_memo) <= cap
    nonconstant = [x for x in units if any(x[1:])]
    again = [x for x in units[-cap:] if any(x[1:])]
    # the units inverted again were remembered: Newton ran for them only in
    # the fresh rings
    assert len(newton) == 2 * len(nonconstant) + len(again)
    assert all(x in ring._inv_memo for x in again)


@levels
@precs
@examples
@given(data=st.data())
def test_rp_mul_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    polys = st.lists(elements(ring), min_size=1, max_size=6)
    a, b = data.draw(polys), data.draw(polys)
    assert rp_mul(ring, a, b) == tower_poly_mul(a, b, *_oracle_args(ring))


@levels
@precs
@examples
@given(data=st.data())
def test_rp_divmod_monic_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    a = data.draw(st.lists(elements(ring), max_size=8))
    b = data.draw(st.lists(elements(ring), max_size=4)) + [ring.one()]
    args = _oracle_args(ring)
    q, r = rp_divmod_monic(ring, a, b)
    assert (q, r) == tower_poly_divmod_monic(a, b, *args)
    # a = q b + r, with r shorter than b
    assert len(r) == min(len(a), len(b) - 1)

    def pad(poly):
        return poly + [ring.zero()] * (len(a) - len(poly))

    qb = pad(tower_poly_mul(q, b, *args) if q else [])
    assert [tuple((x + y) % ring.pn for x, y in zip(c, d))
            for c, d in zip(qb, pad(r))] == a


def _step_operands(ring, lg, lh, entry):
    """(F, g, h, s, t) for one Hensel step: monic g and h of lg and lh
    elements, s and t of lh - 1 and lg - 1, F of lg + lh - 1, entries drawn
    by ``entry``."""
    def poly(n, monic=False):
        return [entry() for _ in range(n - 1)] + [ring.one() if monic else entry()]

    return (poly(lg + lh - 1, True), poly(lg, True), poly(lh, True),
            poly(lh - 1), poly(lg - 1))


def _hensel_step(ring, ops):
    """One step of hensel_lift_pair's loop: its two compiled halves."""
    F, g, h, s, t = ops
    lg, lh = len(g), len(h)
    g, h = ring.kernel("hensel_factors", lg, lh)(F, g, h, s, t, ring.pn)
    s, t = ring.kernel("hensel_cofactors", lg, lh)(g, h, s, t, ring.pn)
    return g, h, s, t


@levels
@precs
@examples
@given(data=st.data())
def test_hensel_step_matches_oracle(f, e, prec, data):
    # the compiled step is ring arithmetic at every level; only the lift
    # that runs it needs f = 1
    ring = data.draw(rings(f, e, prec))
    lg, lh = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    ops = _step_operands(ring, lg, lh, lambda: data.draw(elements(ring)))
    assert _hensel_step(ring, ops) == tower_hensel_step(*ops, *_oracle_args(ring))


@levels
@precs
@pytest.mark.parametrize("p", [2, 3])
def test_hensel_step_at_the_overflow_edge(f, e, prec, p):
    ring = _ring(p, f, e, prec, [[p ** prec - 1] * f] * e)
    top = (ring.pn - 1,) * ring.dim
    ops = _step_operands(ring, 4, 3, lambda: top)
    assert _hensel_step(ring, ops) == tower_hensel_step(*ops, *_oracle_args(ring))


@levels
@precs
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("la, lb", [(LONGEST, LONGEST), (LONGEST, 5), (LONGEST, 1)])
def test_kernels_at_the_overflow_edge(f, e, prec, p, la, lb):
    # every entry p^N - 1: the largest sums a product slot can hold
    ring = _ring(p, f, e, prec, [[p ** prec - 1] * f] * e)
    top = (ring.pn - 1,) * ring.dim
    args = _oracle_args(ring)
    assert ring.mul(top, top) == tower_poly_mul([top], [top], *args)[0]
    assert rp_mul(ring, [top] * la, [top] * lb) == tower_poly_mul([top] * la, [top] * lb, *args)
    monic = [top] * (lb - 1) + [ring.one()]
    assert (rp_divmod_monic(ring, [top] * la, monic)
            == tower_poly_divmod_monic([top] * la, monic, *args))


# -- the fold table and the kernels built on it ------------------------------------


def _reduce_oracle(ring, terms):
    return tower_reduce(terms, *_oracle_args(ring))


def _terms(ring, x, i0=0, j0=0, scale=1):
    """x times scale * z^i0 u^j0 as oracle terms."""
    e = ring.e
    return {(s // e + i0, s % e + j0): scale * c for s, c in enumerate(x) if c}


@levels
@precs
@examples
@given(data=st.data())
def test_fold_rows_match_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    rows = dict(ring._fold)
    nu = 2 * e - 1
    for i in range(2 * f - 1):
        for j in range(nu):
            if i < f and j < e:
                assert i * nu + j not in rows
                continue
            dense = [0] * ring.dim
            for s, c in rows.get(i * nu + j, ()):
                assert 0 < c < ring.pn
                dense[s] = c
            assert tuple(dense) == _reduce_oracle(ring, {(i, j): 1})


@st.composite
def sparse_elements(draw, ring):
    """A constant, a single monomial, a z-only or a u-only element."""
    f, e = ring.f, ring.e
    support = draw(st.sampled_from([
        [0],
        [draw(st.integers(0, ring.dim - 1))],
        [i * e for i in range(f)],
        list(range(e)),
    ]))
    entry = st.integers(0, ring.pn - 1)
    return tuple(draw(entry) if s in support else 0 for s in range(ring.dim))


@levels
@precs
@examples
@given(data=st.data())
def test_mul_on_sparse_operands_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    x = data.draw(sparse_elements(ring))
    y = data.draw(st.one_of(sparse_elements(ring), elements(ring)))
    want = tower_poly_mul([x], [y], *_oracle_args(ring))[0]
    assert ring.mul(x, y) == want
    assert ring.mul(y, x) == want


@levels
@precs
@examples
@given(data=st.data())
def test_shift_up_and_divide_pi_exact_match_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    z = data.draw(elements(ring))
    w = data.draw(st.integers(0, e * prec + e))
    a, b = divmod(w, e)
    x = ring.shift_up(z, w)
    # pi^w = p^a u^b, with pi = p when e = 1
    assert x == _reduce_oracle(ring, _terms(ring, z, j0=b, scale=ring.p ** a))
    if e == 1 or a + b >= prec:
        return
    # pi^w z is exactly divisible by pi^w; the quotient is z mod p^(N-a-b)
    keep = ring.p ** (prec - a - b)
    assert ring.divide_pi_exact(x, w) == tuple(c % keep for c in z)


@levels
@precs
@examples
@given(data=st.data())
def test_w0_pow_matches_oracle(f, e, prec, data):
    if e == 1:
        return
    ring = data.draw(rings(f, e, prec))
    for b in range(e):
        # u^b (p/u)^b = p^b
        want = _reduce_oracle(ring, {(0, 0): ring.p ** b})
        assert _reduce_oracle(ring, _terms(ring, ring.w0_pow(b), j0=b)) == want


@levels
@precs
@examples
@given(data=st.data())
def test_frobenius_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec, rational=True))
    x = data.draw(elements(ring))
    terms = {}
    for s, c in enumerate(x):
        key = (s // e * ring.p, s % e)  # z^i u^j -> z^(ip) u^j
        terms[key] = terms.get(key, 0) + c
    assert ring.frobenius(x) == _reduce_oracle(ring, terms)


@levels
@precs
@examples
@given(data=st.data())
def test_apply_u_map_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    args = _oracle_args(ring)
    image = data.draw(elements(ring))  # any T: the map is z-linear in u^j
    upowers = [ring.one()]
    for _ in range(e - 1):
        upowers.append(tower_poly_mul([upowers[-1]], [image], *args)[0])
    x = data.draw(st.one_of(elements(ring), sparse_elements(ring)))
    terms = {}
    for s, c in enumerate(x):
        i, j = divmod(s, e)
        for key, d in _terms(ring, upowers[j], i0=i).items():
            terms[key] = terms.get(key, 0) + c * d
    assert ring.apply_u_map(x, upowers) == _reduce_oracle(ring, terms)


# -- how often mul reduces ------------------------------------------------------------


@levels
def test_mul_reduces_once_and_constants_never(f, e):
    # a product of two non-constants is one call of the ring's compiled
    # product, which folds and reduces mod p^N once; a constant operand is
    # a scalar multiple and never gets there
    ring = _ring(3, f, e, 8, [[5] * f] * e)
    product = ring._product
    calls = []

    def counting(x, y, m):
        calls.append(m)
        return product(x, y, m)

    ring._product = counting
    dense = tuple(range(1, ring.dim + 1))
    const = (7,) + (0,) * (ring.dim - 1)
    ring.mul(const, dense)
    ring.mul(dense, const)
    ring.mul(const, const)
    assert calls == []
    ring.mul(dense, dense)
    # f = e = 1 is one integer product at every operand
    assert calls == ([] if ring.dim == 1 else [ring.pn])
