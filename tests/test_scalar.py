"""The Scalar layer: exact oracles, a pinned table, and a Fraction guard.

The arithmetic rules are written once, in ``scalar.kernel``; sc_add, sc_sub,
sc_mul and sc_inv run them on one entry each.  They are checked at every shape of level of
test_ring_kernels (Q_p and Eisenstein rings over it, unramified levels and
ramified steps over them).  A scalar's oracle value is the integer polynomial
p^(a + K) u^b * unit in z, u, with (a, b) = divmod(w, e) and K large enough to
make it integral, reduced by oracles.tower_reduce modulo the level's own
polynomials and a higher power of p.  Each input is perturbed by a random
element at its first unknown digit (an izero input is nothing but such an
element), so a result that claims a digit its inputs do not determine
disagrees with the oracle.

The kernel's rules and linalg's elimination, products and characteristic
polynomials run on raw entries at every level: plain integer units where the
ring is Z/p^N, the ring's tuples elsewhere.  Property tests pin that those
give what the Scalar reference of ``tests/oracles.py`` (the rules written on
Scalars, ``scalar_row_reduce``, the ``scalar_dot`` fold, Berkowitz on
Scalars) gives, entry for entry and error for error, on entries whose
u-powers wrap both ways, izeros and exact zeros; a guard pins that a rank or
column-space decision builds no Scalar at all, over Q_2 and two ramified
levels.

The pinned table holds results of the same operations on fixed inputs,
recorded when valuations were still Fractions, so that a change of
representation cannot move a certified precision unnoticed.  It covers both
wraps of the u-power (the c0^-1 shift of an addend and the c0 correction of a
sum) and the izero cap of a sum.
"""

import contextlib
import fractions
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from isofilt import formats
from isofilt.errors import PrecisionError, ValidationError
from isofilt.padic import linalg as la
from isofilt.padic import scalar as sc
from isofilt.padic.convert import embed_qp, project_to_base
from isofilt.padic.descriptors import (EisensteinExtensionDescriptor,
                                       UnramifiedFieldDescriptor)
import oracles
from oracles import tower_poly_mul, tower_reduce
from test_ring_kernels import LEVELS, PRECS, _ring, elements, rings

K = 3              # oracle values carry p^K (p^(2K) for products): integral
W = 2              # input exponents w and zw lie in [-W e, W e]
NO_FLOOR = -10 ** 9
OPS = {"add": sc.sc_add, "sub": sc.sc_sub, "mul": sc.sc_mul, "inv": sc.sc_inv}

levels = pytest.mark.parametrize("f, e", LEVELS)
precs = pytest.mark.parametrize("prec", PRECS)
examples = settings(max_examples=60, deadline=None)


class Level:
    """The descriptor fields a Scalar and linalg read, over a bare TowerRing."""

    def __init__(self, ring, floor_relpi=1):
        self.ring, self.p, self.e, self.prec = ring, ring.p, ring.e, ring.prec
        self.floor_relpi = floor_relpi
        self.relpi_max = ring.e * ring.prec
        self.raw_kernel = None

    def one(self):
        return sc.Scalar(self, sc.REG, w=0, unit=self.ring.one(), relpi=self.relpi_max)


def _build(level, spec):
    """A scalar from ("zero",), ("izero", zw) or ("reg", w, relpi, unit),
    without the floor check of sc_reg."""
    if spec[0] == "zero":
        return sc.sc_zero(level)
    if spec[0] == "izero":
        return sc.sc_izero(level, spec[1])
    _, w, relpi, unit = spec
    return sc.Scalar(level, sc.REG, w=w, unit=tuple(unit), relpi=relpi)


def _spec(x):
    if x.kind == sc.ZERO:
        return ("zero",)
    if x.kind == sc.IZERO:
        return ("izero", x.zw)
    return ("reg", x.w, x.relpi, tuple(x.unit))


@st.composite
def specs(draw, ring, min_relpi):
    kind = draw(st.sampled_from(["zero", "izero", "reg", "reg", "reg"]))
    if kind == "zero":
        return ("zero",)
    w = draw(st.integers(-W * ring.e, W * ring.e))
    if kind == "izero":
        return ("izero", w)
    unit = list(draw(elements(ring)))
    unit[0] += draw(st.integers(1, ring.p - 1)) - unit[0] % ring.p
    # mostly full precision, as for every scalar made from a rational: only
    # then does the digit of c0 that p^N cannot hold show
    top = ring.e * ring.prec
    relpi = top if draw(st.integers(0, 2)) else draw(st.integers(min_relpi, top))
    return ("reg", w, relpi, unit)


# -- the oracle -----------------------------------------------------------------------


def _oracle_pm(ring):
    return ring.p ** (ring.prec + 2 * K + 2 * W + 4)


def _value(ring, w, coeffs, scale):
    """p^(a + scale) u^b * coeffs with (a, b) = divmod(w, e), reduced."""
    e = ring.e
    a, b = divmod(w, e)
    c = ring.p ** (a + scale)
    terms = {(k // e, k % e + b): x * c for k, x in enumerate(coeffs) if x}
    E = None if ring.eis is None else [list(v) for v in ring.eis]
    return tower_reduce(terms, list(ring.modulus), E, _oracle_pm(ring))


def _add(ring, x, y, sign=1):
    pm = _oracle_pm(ring)
    return tuple((a + sign * b) % pm for a, b in zip(x, y))


def _mul(ring, x, y):
    E = None if ring.eis is None else [list(v) for v in ring.eis]
    return tower_poly_mul([x], [y], list(ring.modulus), E, _oracle_pm(ring))[0]


def _true_value(ring, spec, delta, scale):
    """The value of a scalar whose unknown digits are delta."""
    if spec[0] == "zero":
        return (0,) * ring.dim
    if spec[0] == "izero":
        return _value(ring, spec[1], delta, scale)
    _, w, relpi, unit = spec
    return _add(ring, _value(ring, w, unit, scale), _value(ring, w + relpi, delta, scale))


def _vpi(ring, x):
    """pi-adic valuation of an oracle value, None for zero."""
    best = None
    for k, c in enumerate(x):
        if c:
            v = 0
            while c % ring.p == 0:
                c //= ring.p
                v += 1
            if best is None or ring.e * v + k % ring.e < best:
                best = ring.e * v + k % ring.e
    return best


def _check_against(ring, got, exact, scale):
    """got, a result scaled by p^scale, agrees with the exact value to every
    digit it claims, its valuation is exact and an izero bound is sound."""
    shift = ring.e * scale
    v = _vpi(ring, exact)
    if got[0] == "zero":
        assert v is None
    elif got[0] == "izero":
        assert v is None or v >= shift + got[1]
    else:
        _, w, relpi, unit = got
        assert _vpi(ring, unit) == 0
        diff = _vpi(ring, _add(ring, _value(ring, w, unit, scale), exact, -1))
        assert diff is None or diff >= shift + w + relpi
        if relpi >= 1:
            assert v == shift + w


@levels
@precs
@examples
@given(data=st.data())
def test_arithmetic_matches_oracle(f, e, prec, data):
    ring = data.draw(rings(f, e, prec))
    floor = data.draw(st.integers(1, 4))
    op = data.draw(st.sampled_from(sorted(OPS)))
    args = [data.draw(specs(ring, floor)) for _ in range(1 if op == "inv" else 2)]
    deltas = [data.draw(elements(ring)) for _ in args]
    _check_arithmetic(ring, floor, op, args, deltas)


# A difference of relative pi-valuation 29 at p = 2, f = 2, e = 4, N = 8:
# divide_pi_exact divides by p^(a + b) = p^N, so no digit of the unit is
# left.  Without a floor the difference is the izero at its certified
# valuation, with one it raises; the draw once failed the test above.
CANCELLING = [("reg", 1, 32, (1, 255, 0, 0, 0, 65, 0, 0)),
              ("reg", 1, 32, (1, 255, 0, 0, 0, 193, 0, 0))]
BYTES = st.integers(0, 2 ** 8 - 1)


@examples
@example(tail=[(0, 0)] * 4, floor=1, deltas=[(0,) * 8] * 2)
@given(tail=st.lists(st.tuples(BYTES, BYTES), min_size=4, max_size=4),
       floor=st.integers(1, 4),
       deltas=st.lists(st.tuples(*[BYTES] * 8), min_size=2, max_size=2))
def test_a_difference_without_unit_digits_is_an_izero(tail, floor, deltas):
    ring = _ring(2, 2, 4, 8, tail)
    level = Level(ring, NO_FLOOR)
    x, y = [_build(level, s) for s in CANCELLING]
    assert _spec(sc.sc_sub(x, y)) == ("izero", 30)
    # the rules written on Scalars agree
    assert _spec(oracles.scalar_sub(x, y)) == ("izero", 30)
    _check_arithmetic(ring, floor, "sub", CANCELLING, deltas)


def _check_arithmetic(ring, floor, op, args, deltas):
    """op on args at a level without a floor agrees with the oracle on the
    values args + deltas, and at the given floor raises or agrees."""
    e = ring.e
    level, floored = Level(ring, NO_FLOOR), Level(ring, floor)
    if op == "inv" and args[0][0] != "reg":
        with pytest.raises(ZeroDivisionError if args[0][0] == "zero" else PrecisionError):
            sc.sc_inv(_build(level, args[0]))
        return
    got = _spec(OPS[op](*[_build(level, s) for s in args]))
    exact = shift = None
    if op == "inv":
        x = _true_value(ring, args[0], deltas[0], K)
        one = _value(ring, 0, (1,), 2 * K)
        _, w, relpi, unit = got
        assert w == -args[0][1] and _vpi(ring, unit) == 0
        diff = _vpi(ring, _add(ring, _mul(ring, x, _value(ring, w, unit, K)), one, -1))
        assert diff is None or diff >= 2 * e * K + relpi
    else:
        x, y = (_true_value(ring, s, d, K) for s, d in zip(args, deltas))
        scale = 2 * K if op == "mul" else K
        exact = (_mul(ring, x, y) if op == "mul"
                 else _add(ring, x, y, 1 if op == "add" else -1))
        shift = e * scale
        _check_against(ring, got, exact, scale)
    # the floor: the same inputs on a level with a floor raise exactly when
    # the result has fewer digits than the floor, a reg result or an izero
    # whose valuation is certified though no digit of its unit is left, and
    # give the same result otherwise
    short = got[0] == "reg" and got[2] < floor
    try:
        at_floor = _spec(OPS[op](*[_build(floored, s) for s in args]))
    except PrecisionError:
        assert short or (got[0] == "izero"
                         and _vpi(ring, exact) == shift + got[1])
    else:
        assert at_floor == got and not short


# -- the pinned table -----------------------------------------------------------------

PINNED_PREC = 6
PINNED_P = {(1, 1): 2, (1, 2): 3, (1, 3): 2, (2, 1): 3, (2, 2): 2, (2, 4): 3}


def _pinned_level(f, e):
    tail = [[j + 2 * i + 1 for i in range(f)] for j in range(e)]
    return Level(_ring(PINNED_P[f, e], f, e, PINNED_PREC, tail))


# (f, e), op, x, y, result; x, y and result as (kind, w or zw, relpi, unit)
PINNED = [
    ((1, 1), 'add', ('reg', 1, 5, (15,)), ('reg', 3, 6, (35,)), ('reg', 1, 5, (27,))),
    ((1, 1), 'add', ('reg', 0, 4, (23,)), ('reg', 0, 5, (43,)), ('reg', 1, 3, (1,))),
    ((1, 1), 'add', ('reg', 0, 6, (17,)), ('izero', 3), ('reg', 0, 3, (17,))),
    ((1, 1), 'mul', ('reg', 2, 6, (29,)), ('reg', -1, 4, (9,)), ('reg', 1, 4, (5,))),
    ((1, 1), 'inv', ('reg', 3, 4, (63,)), None, ('reg', -3, 4, (63,))),
    ((1, 2), 'add', ('reg', 1, 12, (640, 596)), ('reg', 3, 10, (31, 345)), ('reg', 1, 12, (4, 173))),
    ((1, 2), 'add', ('reg', 1, 11, (100, 578)), ('reg', 1, 11, (629, 152)), ('reg', 2, 10, (239, 241))),
    ((1, 2), 'add', ('reg', 0, 12, (724, 470)), ('izero', 3), ('reg', 0, 3, (724, 470))),
    ((1, 2), 'mul', ('reg', 3, 10, (485, 502)), ('reg', -1, 10, (203, 30)), ('reg', 2, 10, (617, 50))),
    ((1, 2), 'inv', ('reg', 5, 10, (586, 693)), None, ('reg', -5, 10, (302, 647))),
    ((1, 2), 'add', ('reg', 1, 12, (22, 136)), ('reg', 2, 11, (415, 205)), ('reg', 1, 10, (379, 336))),
    ((1, 2), 'sub', ('reg', 1, 12, (383, 382)), ('reg', 3, 12, (118, 603)), ('reg', 1, 12, (29, 31))),
    ((1, 2), 'mul', ('reg', 1, 10, (238, 154)), ('reg', 3, 10, (626, 81)), ('reg', 4, 10, (706, 297))),
    ((1, 2), 'mul', ('izero', 5), ('reg', -3, 10, (704, 222)), ('izero', 2)),
    ((1, 3), 'add', ('reg', 1, 18, (33, 48, 60)), ('reg', 3, 18, (3, 29, 30)), ('reg', 1, 15, (23, 38, 27))),
    ((1, 3), 'add', ('reg', 2, 16, (41, 17, 34)), ('reg', 2, 17, (23, 48, 30)), ('reg', 3, 15, (29, 30, 29))),
    ((1, 3), 'add', ('reg', 0, 18, (63, 50, 52)), ('izero', 3), ('reg', 0, 3, (63, 50, 52))),
    ((1, 3), 'mul', ('reg', 4, 16, (29, 44, 13)), ('reg', -1, 18, (19, 17, 13)), ('reg', 3, 15, (47, 41, 7))),
    ((1, 3), 'inv', ('reg', 7, 16, (25, 18, 21)), None, ('reg', -7, 15, (25, 46, 2))),
    ((1, 3), 'add', ('reg', 2, 16, (7, 50, 21)), ('reg', 3, 16, (33, 48, 35)), ('reg', 2, 15, (19, 19, 23))),
    ((1, 3), 'sub', ('reg', 1, 17, (49, 25, 7)), ('reg', 5, 16, (41, 37, 5)), ('reg', 1, 17, (45, 47, 57))),
    ((1, 3), 'mul', ('reg', 2, 16, (7, 58, 25)), ('reg', 5, 18, (29, 45, 50)), ('reg', 7, 15, (51, 9, 32))),
    ((1, 3), 'add', ('izero', 2), ('reg', 4, 18, (33, 34, 40)), ('izero', 2)),
    ((2, 1), 'add', ('reg', 1, 6, (148, 525)), ('reg', 3, 6, (586, 727)), ('reg', 1, 6, (319, 507))),
    ((2, 1), 'add', ('reg', 0, 6, (677, 618)), ('reg', 0, 5, (55, 111)), ('reg', 1, 4, (1, 0))),
    ((2, 1), 'add', ('reg', 0, 4, (262, 134)), ('izero', 3), ('reg', 0, 3, (262, 134))),
    ((2, 1), 'mul', ('reg', 2, 5, (614, 404)), ('reg', -1, 4, (175, 693)), ('reg', 1, 4, (323, 419))),
    ((2, 1), 'inv', ('reg', 3, 4, (221, 544)), None, ('reg', -3, 4, (241, 347))),
    ((2, 2), 'add', ('reg', 1, 12, (63, 5, 15, 46)), ('reg', 3, 12, (45, 39, 29, 14)), ('reg', 1, 12, (25, 19, 9, 10))),
    ((2, 2), 'add', ('reg', 1, 12, (57, 55, 2, 62)), ('reg', 1, 11, (7, 10, 62, 2)), ('reg', 2, 10, (29, 30, 26, 28))),
    ((2, 2), 'add', ('reg', 0, 10, (21, 32, 12, 18)), ('izero', 3), ('reg', 0, 3, (21, 32, 12, 18))),
    ((2, 2), 'mul', ('reg', 3, 11, (7, 20, 23, 0)), ('reg', -1, 11, (5, 20, 34, 19)), ('reg', 2, 10, (7, 33, 35, 60))),
    ((2, 2), 'inv', ('reg', 5, 10, (13, 23, 29, 51)), None, ('reg', -5, 10, (18, 58, 3, 37))),
    ((2, 2), 'add', ('reg', 1, 12, (47, 27, 1, 3)), ('reg', 2, 11, (3, 56, 1, 18)), ('reg', 1, 10, (27, 20, 57, 0))),
    ((2, 2), 'sub', ('reg', 1, 11, (21, 51, 2, 20)), ('reg', 3, 12, (57, 35, 49, 7)), ('reg', 1, 11, (35, 45, 32, 6))),
    ((2, 2), 'mul', ('reg', 1, 11, (11, 52, 39, 34)), ('reg', 3, 10, (1, 37, 19, 33)), ('reg', 4, 10, (28, 32, 17, 15))),
    ((2, 2), 'add', ('izero', 7), ('izero', 4), ('izero', 4)),
    ((2, 4), 'add', ('reg', 1, 22, (448, 214, 73, 510, 638, 574, 389, 625)), ('reg', 3, 23, (431, 292, 149, 447, 513, 191, 239, 457)), ('reg', 1, 22, (334, 331, 147, 115, 344, 163, 17, 600))),
    ((2, 4), 'add', ('reg', 3, 23, (305, 241, 41, 18, 422, 393, 132, 403)), ('reg', 3, 23, (424, 489, 688, 711, 307, 336, 597, 326)), ('reg', 4, 20, (239, 241, 240, 239, 234, 239, 238, 237))),
    ((2, 4), 'add', ('reg', 0, 24, (274, 367, 521, 540, 2, 510, 213, 219)), ('izero', 3), ('reg', 0, 3, (274, 367, 521, 540, 2, 510, 213, 219))),
    ((2, 4), 'mul', ('reg', 5, 24, (259, 12, 660, 662, 69, 104, 382, 518)), ('reg', -1, 24, (322, 337, 547, 329, 225, 401, 26, 10)), ('reg', 4, 20, (389, 219, 412, 618, 366, 727, 697, 258))),
    ((2, 4), 'inv', ('reg', 9, 22, (116, 246, 21, 74, 137, 584, 270, 413)), None, ('reg', -9, 20, (603, 51, 310, 584, 526, 420, 415, 55))),
    ((2, 4), 'add', ('reg', 3, 22, (667, 382, 248, 592, 449, 313, 161, 535)), ('reg', 4, 24, (701, 207, 575, 599, 458, 592, 511, 384)), ('reg', 3, 20, (604, 725, 131, 687, 635, 464, 320, 225))),
    ((2, 4), 'sub', ('reg', 1, 22, (317, 202, 517, 665, 707, 137, 591, 219)), ('reg', 7, 22, (634, 142, 37, 167, 4, 10, 105, 249)), ('reg', 1, 22, (461, 346, 595, 140, 194, 551, 156, 252))),
    ((2, 4), 'mul', ('reg', 3, 23, (344, 21, 372, 641, 35, 535, 661, 75)), ('reg', 7, 24, (334, 455, 156, 454, 660, 674, 80, 92)), ('reg', 10, 20, (670, 43, 281, 215, 439, 18, 631, 66))),
]


@pytest.mark.parametrize("level, op, x, y, want", PINNED)
def test_pinned_results(level, op, x, y, want):
    lv = _pinned_level(*level)
    args = [_build(lv, s) for s in (x, y) if s is not None]
    assert _spec(OPS[op](*args)) == want


def test_floor_raises_at_every_shape():
    for f, e in LEVELS:
        lv = _pinned_level(f, e)
        lv.floor_relpi = 4
        ring = lv.ring
        with pytest.raises(PrecisionError):
            sc.sc_reg(lv, 0, ring.one(), 3)
        # 1 - (1 + pi^3): three digits cancel, the difference keeps relpi - 3
        x = _build(lv, ("reg", 0, 6, ring.one()))
        y = sc.sc_add(x, _build(lv, ("reg", 3, 6, ring.one())))
        with pytest.raises(PrecisionError):
            sc.sc_sub(x, y)


def test_off_lattice_izero_bounds_round_up():
    # valuations at ramification e lie in (1/e)Z, so a bound zb becomes
    # ceil(zb e)/e, from JSON and when projecting to the base
    q2 = UnramifiedFieldDescriptor.create(2, 1, 16)
    t2 = EisensteinExtensionDescriptor(q2, (-2, 0, 1), validate=False)
    assert formats.scalar_from_json(q2, {"izero": "1/2"}).zw == 1
    assert formats.scalar_from_json(t2, {"izero": "1/3"}).zw == 1
    assert formats.scalar_from_json(t2, {"izero": "-1/3"}).zw == 0
    assert project_to_base(sc.sc_izero(t2, 3), q2).zw == 2
    assert project_to_base(sc.sc_izero(t2, -3), q2).zw == -1
    with pytest.raises(ValidationError):
        formats.scalar_from_json(t2, {"v": "1/4", "unit": [1, 0], "relpi": 8})


@pytest.mark.parametrize("f", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_descent_from_K_q_to_Q_p_gives_the_scalar_back(f, data):
    # an embedded Q_p scalar lives in the z^0 coordinate only, and the
    # projection keeps that coordinate with every digit and bound it had
    qp = UnramifiedFieldDescriptor.create(2, 1, 16)
    kq = UnramifiedFieldDescriptor.create(2, f, 16)
    x = data.draw(zp_entries(qp))
    assert _entries([[project_to_base(embed_qp(x, kq), qp)]]) == _entries([[x]])


@pytest.mark.parametrize("f", [2, 3])
def test_descent_from_K_q_rejects_a_z_coordinate(f):
    qp = UnramifiedFieldDescriptor.create(2, 1, 16)
    kq = UnramifiedFieldDescriptor.create(2, f, 16)
    for i in range(1, f):
        z_i = sc.sc_pow(kq.gen(), i)
        for x in (z_i, sc.sc_add(kq.one(), sc.sc_mul(kq.scalar(2), z_i))):
            with pytest.raises(PrecisionError):
                project_to_base(x, qp)


# -- no Fraction on the hot path ------------------------------------------------------


@contextlib.contextmanager
def _no_fraction_made(monkeypatch):
    made = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
        yield
    assert made == [], f"{len(made)} Fraction constructions"


@pytest.mark.parametrize("ramified", [False, True], ids=["Q_2", "t^2=2"])
def test_no_fraction_on_the_hot_path(monkeypatch, ramified):
    field = UnramifiedFieldDescriptor.create(2, 1, 32)
    pi = field.scalar(2)
    if ramified:
        field = EisensteinExtensionDescriptor(field, (-2, 0, 1), validate=False)
        pi = field.uniformizer()
    x = field.scalar(Fraction(5, 3))
    y = sc.sc_mul(pi, field.scalar(Fraction(7, 11)))
    z = sc.sc_izero(field, 5)
    rows = [[3, 6, 1, 4], [2, 5, 7, 1], [1, 1, 2, 8], [4, 3, 5, 9]]
    m = [[sc.sc_mul(field.scalar(c), y if (i + j) % 2 else x)
          for j, c in enumerate(row)] for i, row in enumerate(rows)]
    with _no_fraction_made(monkeypatch):
        for a, b in ((x, y), (y, x), (x, z), (z, y), (z, z)):
            sc.sc_add(a, b)
            sc.sc_sub(a, b)
            sc.sc_mul(a, b)
        sc.sc_inv(x)
        sc.sc_inv(y)
        with pytest.raises(PrecisionError):
            sc.sc_inv(z)
        _, pivots, cert = la.certified_row_reduce(m)
    assert pivots == [0, 1, 2, 3] and cert.rank == 4


@pytest.mark.parametrize("ramified", [False, True], ids=["Q_2", "t^2=2"])
def test_small_int_scalars_are_built_once(monkeypatch, ramified):
    field = UnramifiedFieldDescriptor.create(2, 1, 32)
    if ramified:
        field = EisensteinExtensionDescriptor(field, (-2, 0, 1), validate=False)
    ints = list(range(-9, 10)) + [64, -64, 65, 2 ** 40]
    first = [field.scalar(c) for c in ints]
    assert [_spec(x) for x in first] == \
        [_spec(sc.sc_from_fraction(field, c)) for c in ints]
    assert field.one() is field.scalar(1)
    with _no_fraction_made(monkeypatch):
        again = [field.scalar(c) for c in ints[:-2]] + [field.one()]
    assert all(x is y for x, y in zip(again, first[:-2] + [first[10]]))
    # outside the cached range a scalar is built afresh
    assert field.scalar(65) is not first[-2]
    assert field.scalar(Fraction(3)) is not field.scalar(3)


# -- the raw kernel against the Scalar reference ---------------------------------------


def _zp_field(p, prec, floor_relpi):
    base = UnramifiedFieldDescriptor.create(p, 1, prec)
    if floor_relpi == 1:
        return base
    return UnramifiedFieldDescriptor(p, 1, prec, base.modulus, floor_relpi)


# Q_2 and Q_3 at two precisions, and one level whose floor is above one digit
ZP_FIELDS = [(2, 16, 1), (2, 32, 1), (3, 16, 1), (3, 32, 1), (2, 16, 3)]


@st.composite
def zp_entries(draw, field):
    """A Scalar of the level, built without the floor check of sc_reg."""
    kind = draw(st.sampled_from([sc.ZERO, sc.IZERO, sc.REG, sc.REG, sc.REG]))
    if kind == sc.ZERO:
        return sc.sc_zero(field)
    if kind == sc.IZERO:
        return sc.sc_izero(field, draw(st.integers(-3, 12)))
    p, prec = field.p, field.prec
    unit = draw(st.integers(0, p ** (prec - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return sc.Scalar(field, sc.REG, w=draw(st.integers(-3, 6)), unit=(unit,),
                     relpi=draw(st.integers(1, prec)))


@st.composite
def level_entries(draw, level):
    """A Scalar of a tower level: an exact zero, an izero, or a reg scalar
    whose u-power w mod e takes every value, so that products and sums often
    wrap past e (the c0 and c0^-1 paths)."""
    return _build(level, draw(specs(level.ring, 1)))


@st.composite
def matrices(draw, entries, rows=None, cols=None):
    """Up to 5x6, or with the rows or columns given."""
    nr = rows or draw(st.integers(1, 5))
    nc = cols or draw(st.integers(1, 6))
    return [[draw(entries) for _ in range(nc)] for _ in range(nr)]


def zp_matrices(field, rows=None, cols=None):
    return matrices(zp_entries(field), rows, cols)


@st.composite
def tower_levels(draw, f, e, prec):
    """A level of shape (f, e), with no floor or with a floor of 3 digits."""
    return Level(draw(rings(f, e, prec)), draw(st.sampled_from([1, 3])))


def _entries(m):
    return None if m is None else [
        [(x.kind, x.w, x.unit, x.relpi, x.zw) for x in row] for row in m]


def _outcome(fn, *args):
    """fn's result with every Scalar spelled out, or the PrecisionError it
    raised."""
    try:
        out = fn(*args)
    except PrecisionError as exc:
        return "raised", str(exc)
    if isinstance(out, la.RankCertificate):
        return out.as_dict()
    if isinstance(out, tuple):
        rows, pivots, cert = out
        return _entries(rows), pivots, cert.as_dict()
    return _entries(out)


def _check_elimination(m, guard, reduced):
    """certified_row_reduce, and for forward elimination rank_certificate
    and column_space_basis, give what the Scalar reference gives."""
    ref = _outcome(oracles.scalar_row_reduce, m, guard, reduced)
    assert _outcome(la.certified_row_reduce, m, guard, reduced) == ref
    if reduced:
        return
    ref_cert = ref if ref[0] == "raised" else ref[2]
    assert _outcome(la.rank_certificate, m, guard) == ref_cert
    ref_basis = ref if ref[0] == "raised" else _entries(la.columns(m, ref[1]))
    assert _outcome(la.column_space_basis, m, guard) == ref_basis


def _check_products(field, a, b, m):
    """mat_mul against the Scalar dot fold, charpoly against Berkowitz on
    Scalars."""

    def dot_fold(a, b):
        return [[oracles.scalar_dot(row, col, field) for col in zip(*b)] for row in a]

    assert _outcome(la.mat_mul, a, b) == _outcome(dot_fold, a, b)

    def berkowitz(m):
        return [la.berkowitz(m, field.one(), oracles.scalar_neg,
                             lambda xs, ys: oracles.scalar_dot(xs, ys, field))]

    assert _outcome(lambda m: [la.charpoly(m)], m) == _outcome(berkowitz, m)


def _raw_outcome(kernel, fn, *args):
    """fn on the raw entries of Scalar args, decoded, or its error."""
    try:
        out = fn(*map(kernel.entry, args))
    except (PrecisionError, ZeroDivisionError) as exc:
        return "raised", type(exc).__name__, str(exc)
    return _entries([[kernel.scalar(out)]])[0][0]


def _scalar_outcome(fn, *args):
    try:
        out = fn(*args)
    except (PrecisionError, ZeroDivisionError) as exc:
        return "raised", type(exc).__name__, str(exc)
    return _entries([[out]])[0][0]


@levels
@precs
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_raw_rules_match_scalar_arithmetic_at_every_level(f, e, prec, data):
    # one step of the kernel at a time against the rules written on Scalars:
    # fma is acc + x*y, inv the inverse and neg the negation, digit for digit
    # and error for error
    level = data.draw(tower_levels(f, e, prec))
    kernel = sc.kernel(level)
    spec = specs(level.ring, 1)
    x, y = (_build(level, data.draw(spec)) for _ in range(2))
    # an addend within e of the product's valuation, so that sums cancel
    # and their u-powers wrap often
    acc = list(data.draw(spec))
    if acc[0] != "zero" and x.kind == y.kind == sc.REG:
        acc[1] = x.w + y.w + data.draw(st.integers(-e, e))
    acc = _build(level, acc)
    if x.kind != sc.ZERO and y.kind != sc.ZERO:
        want = _scalar_outcome(lambda: oracles.scalar_add(acc, oracles.scalar_mul(x, y)))
        if acc.kind == sc.ZERO:
            got = _raw_outcome(kernel, lambda x, y: kernel.fma(None, x, y), x, y)
        else:
            got = _raw_outcome(kernel, kernel.fma, acc, x, y)
        assert got == want
    if x.kind == sc.REG:
        assert _raw_outcome(kernel, kernel.inv, x) == \
            _scalar_outcome(lambda: oracles.scalar_inv(x))
    assert _raw_outcome(kernel, kernel.neg, x) == \
        _scalar_outcome(lambda: oracles.scalar_neg(x))
    # add is the sum rule, after the floor check that the product x*1 makes;
    # its addend too lies within e of x's valuation
    acc = list(data.draw(spec))
    if acc[0] != "zero" and x.kind == sc.REG:
        acc[1] = x.w + data.draw(st.integers(-e, e))
    acc = _build(level, acc)
    assert _raw_outcome(kernel, kernel.add, acc, x) == \
        _scalar_outcome(lambda: oracles.scalar_add(acc, oracles.scalar_mul(x, level.one())))


@pytest.mark.parametrize("p, prec, floor", ZP_FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), guard=st.sampled_from([1, 8]), reduced=st.booleans())
def test_raw_elimination_matches_scalar_reference(p, prec, floor, data, guard, reduced):
    field = _zp_field(p, prec, floor)
    _check_elimination(data.draw(zp_matrices(field)), guard, reduced)


@levels
@precs
@settings(max_examples=25, deadline=None)
@given(data=st.data(), guard=st.sampled_from([1, 8]), reduced=st.booleans())
def test_raw_elimination_matches_scalar_reference_at_every_level(
        f, e, prec, data, guard, reduced):
    level = data.draw(tower_levels(f, e, prec))
    _check_elimination(data.draw(matrices(level_entries(level))), guard, reduced)


@pytest.mark.parametrize("p, prec, floor", ZP_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_products_match_the_dot_fold(p, prec, floor, data):
    field = _zp_field(p, prec, floor)
    k = data.draw(st.integers(1, 5))
    _check_products(field, data.draw(zp_matrices(field, cols=k)),
                    data.draw(zp_matrices(field, rows=k)),
                    data.draw(zp_matrices(field, rows=k, cols=k)))


@levels
@precs
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_raw_products_match_the_dot_fold_at_every_level(f, e, prec, data):
    level = data.draw(tower_levels(f, e, prec))
    entries = level_entries(level)
    k = data.draw(st.integers(1, 4))
    _check_products(level, data.draw(matrices(entries, cols=k)),
                    data.draw(matrices(entries, rows=k)),
                    data.draw(matrices(entries, rows=k, cols=k)))


def _check_lincomb(field, coeffs, mats):
    """mat_lincomb against the fold of the sums of the products c*M by the
    rules written on Scalars: the same Scalars, or a PrecisionError from both
    (the raw fold finishes one entry's products and sums before the next
    entry's, so the first error it meets may be another entry's)."""

    def scalar_fold(coeffs, mats):
        acc = la.zeros(field, *la.mat_dims(mats[0]))
        for c, m in zip(coeffs, mats):
            acc = [[oracles.scalar_add(a, oracles.scalar_mul(c, x))
                    for a, x in zip(arow, mrow)] for arow, mrow in zip(acc, m)]
        return acc

    got, want = (_outcome(fn, coeffs, mats) for fn in (la.mat_lincomb, scalar_fold))
    assert got == want or got[0] == want[0] == "raised"


@pytest.mark.parametrize("p, prec, floor", ZP_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_raw_lincomb_matches_the_scalar_fold(p, prec, floor, data):
    field = _zp_field(p, prec, floor)
    k, r, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    _check_lincomb(field, data.draw(zp_matrices(field, rows=1, cols=k))[0],
                   [data.draw(zp_matrices(field, rows=r, cols=c)) for _ in range(k)])


@levels
@precs
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_raw_lincomb_matches_the_scalar_fold_at_every_level(f, e, prec, data):
    level = data.draw(tower_levels(f, e, prec))
    entries = level_entries(level)
    k, r, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    _check_lincomb(level, data.draw(matrices(entries, rows=1, cols=k))[0],
                   [data.draw(matrices(entries, rows=r, cols=c)) for _ in range(k)])


def _rank_test_matrix(field, unit):
    """A 4x4 matrix of full rank whose rows alternate between valuations 0
    and 1/e, with entries c * unit^i: dense ring elements when unit is."""
    rows = [[3, 6, 1, 4], [2, 5, 7, 1], [1, 1, 2, 8], [4, 3, 5, 9]]
    pi = field.uniformizer() if field.e > 1 else field.scalar(2)
    out = []
    for i, row in enumerate(rows):
        s = sc.sc_mul(sc.sc_pow(unit, i + 1), pi if i % 2 else field.one())
        out.append([sc.sc_mul(field.scalar(c), s) for c in row])
    return out


def test_rank_decisions_build_no_scalar_over_q_p(monkeypatch):
    # over Q_2, Kummer t^2 = 2, and t^4 - 4t^2 + 2 over Q_4 (e = 4, f = 2)
    q2 = UnramifiedFieldDescriptor.create(2, 1, 32)
    q4 = UnramifiedFieldDescriptor.create(2, 2, 32)
    t2 = EisensteinExtensionDescriptor(q2, (-2, 0, 1), validate=False)
    e4 = EisensteinExtensionDescriptor(q4, (2, 0, -4, 0, 1), validate=False)
    cases = [(q2, q2.scalar(Fraction(1, 3))),
             (t2, sc.sc_add(t2.one(), t2.uniformizer())),
             (e4, sc.sc_add(e4.lift(q4.gen()), e4.uniformizer()))]
    made = []
    init = sc.Scalar.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    for field, unit in cases:
        m = _rank_test_matrix(field, unit)
        assert any(any(x.unit[1:]) for row in m for x in row) == (field.ring.dim > 1)
        with monkeypatch.context() as patch:
            patch.setattr(sc.Scalar, "__init__", counting)
            assert la.certified_rank(m) == 4
            assert la.rank_certificate(m).rank == 4
            assert len(la.column_space_basis(m)[0]) == 4
        assert made == [], f"{len(made)} Scalar constructions over {field!r}"
