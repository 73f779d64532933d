"""Property tests of the ring kernels against exact integer polynomials.

TowerRing.mul, TowerRing.inv_unit (on random elements, and on constant
units, which skip Newton) and hensel.rp_mul are checked against
oracles.tower_reduce at every shape of level the library builds: Q_p and
Eisenstein rings over it (f = 1), unramified levels (e = 1) and ramified
steps over them, at a small and a large precision.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from isofilt.padic.hensel import find_unramified_modulus, rp_mul
from isofilt.padic.ring import TowerRing
from oracles import tower_poly_mul

LEVELS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4)]
PRECS = [8, 48]
LONGEST = 32  # long enough that dropping the slot headroom of rp_mul overflows

levels = pytest.mark.parametrize("f, e", LEVELS)
precs = pytest.mark.parametrize("prec", PRECS)
examples = settings(max_examples=30, deadline=None)


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
def rings(draw, f, e, prec):
    p = draw(st.sampled_from([2, 3]))
    vec = st.lists(st.integers(0, p ** prec), min_size=f, max_size=f)
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
@examples
@given(data=st.data())
def test_rp_mul_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    polys = st.lists(elements(ring), min_size=1, max_size=6)
    a, b = data.draw(polys), data.draw(polys)
    assert rp_mul(ring, a, b) == tower_poly_mul(a, b, *_oracle_args(ring))


@levels
@precs
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("la, lb", [(LONGEST, LONGEST), (LONGEST, 1)])
def test_kernels_at_the_overflow_edge(f, e, prec, p, la, lb):
    # every entry p^N - 1: the largest sums a product slot can hold
    ring = _ring(p, f, e, prec, [[p ** prec - 1] * f] * e)
    top = (ring.pn - 1,) * ring.dim
    args = _oracle_args(ring)
    assert ring.mul(top, top) == tower_poly_mul([top], [top], *args)[0]
    assert rp_mul(ring, [top] * la, [top] * lb) == tower_poly_mul([top] * la, [top] * lb, *args)
