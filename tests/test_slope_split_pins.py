"""Pinned outputs of the Hensel slope split.

The factorization that hensel_lift_pair computes and its Bezout cofactors
are unique mod pi^(eN), so a change to the polynomial arithmetic beneath
the lift must leave every digit of them unchanged, and with them every
slope factor and every isoclinic decomposition.  The sha256 values below
were taken from the code before hensel.rp_mul and rp_divmod_monic became
compiled kernels (``TowerRing.kernel``):

- (G, H, S, T) of every lift the slope split runs on the benchmark's eight
  slope-split shapes (sums of simple modules over Q_2 at N = 32 and 48,
  with splits over Q_2 and the rings t^2 = 2 and t^3 = 2) and on seeded
  base changes of such sums at N = 16 and 24, with every slope-factor
  coefficient;
- direct lifts where h0 is not a power of mu;
- the bytes that ``isofilt decompose --json`` prints for every fixture
  module at its own precision, at 32 and at 48.
"""

import contextlib
import hashlib
import io
import os
import random
from fractions import Fraction

import pytest

from isofilt.cli import main
from isofilt.filtration.admissible import is_admissible
from isofilt.filtration.galois import lift_matrix
from isofilt.fixtures import trivial_extension
from isofilt.isocrystal import slopes
from isofilt.isocrystal.module import PhiModule
from isofilt.padic import descriptors, linalg as la
from isofilt.padic import ring as ring_module
from isofilt.padic.descriptors import (EisensteinExtensionDescriptor,
                                       UnramifiedFieldDescriptor)
from isofilt.padic.hensel import hensel_lift_pair, rp_mul
from oracles import base_change

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _scalar_key(c):
    return (c.kind, c.w, c.unit, c.relpi, c.zw)


def _split_record(D, monkeypatch):
    """Every (G, H, S, T) the split of D lifts, then every slope factor."""
    lifts = []
    lift = slopes.hensel_lift_pair

    def recording(ring, F, g0, h0):
        out = lift(ring, F, g0, h0)
        lifts.append(out)
        return out

    monkeypatch.setattr(slopes, "hensel_lift_pair", recording)
    factors = slopes.slope_factors(D)
    return lifts, [(rv, [_scalar_key(c) for c in fac]) for rv, fac in factors]


def _simple_sum(field, blocks):
    D = None
    for s, r in blocks:
        M = PhiModule.simple(field, s, r)
        D = M if D is None else D.direct_sum(M)
    return D


def _random_invertible(field, n, rng):
    while True:
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        m = la.from_rows_of_fractions(field, rows)
        if la.certified_rank(m) == n:
            return m


# (block slopes s/r, N) -> sha256 of (lifts, factors)
SHAPES = {
    (((0, 1), (1, 1)), 32):
        "2f3a4aee0e2a7f4ce7f46f80596f49486628e2cff77deff396833bc051a850dd",
    (((0, 1), (1, 2)), 32):
        "761d6e931cd26b56cdfdbc8126dac27b6271e0f1e142fd1854adfb0fd892e73e",
    (((0, 1), (1, 3)), 32):
        "050cefddfc3f8c8f6a53e81d769ff20e1e4ee20a5e78f5979e06f0e104cc5e73",
    (((1, 2), (1, 1)), 32):
        "6fe113944aa328edd836febc357f8b24e06d3ba971cbe9afcc79d93fbd455259",
    (((1, 3), (1, 1)), 32):
        "dee58368d81e557f66d249cb29da2c0fd0480ca540b710815ef69690c0ed3e71",
    (((0, 1), (1, 1)), 48):
        "b874ffd312809c6ae13c28d95cda37ecc697932b7965eb3910179bd14203d506",
    (((0, 1), (1, 2)), 48):
        "54e625418566c4f711ffd87b7052bf4ac589b10c5be8cff2a89f35a63beaeadf",
    (((0, 1), (2, 3)), 48):
        "16c8403c985fa525e7221f7c18a6ddf4ff6f311417fe32275cffa209ed226705",
}


@pytest.mark.parametrize("blocks, prec", sorted(SHAPES))
def test_slope_split_shapes_are_pinned(monkeypatch, blocks, prec):
    field = UnramifiedFieldDescriptor.create(2, 1, prec)
    lifts, factors = _split_record(_simple_sum(field, blocks), monkeypatch)
    assert len(lifts) == 1
    assert [rv for rv, _ in factors] == sorted(Fraction(s, r) for s, r in blocks)
    assert _sha((lifts, factors)) == SHAPES[blocks, prec]


def test_one_split_cycle_compiles_a_bounded_number_of_kernels():
    # the eight shapes in both block orders compile a few dozen kernels,
    # which the kernel cache keeps: a second cycle compiles none, so the
    # cache never thrashes and compiled code cannot grow without limit.
    # Interned levels keep their rings' kernels, so the level table is
    # cleared too, and the first cycle starts from fresh rings
    def cycle():
        for blocks, prec in SHAPES:
            field = UnramifiedFieldDescriptor.create(2, 1, prec)
            for order in (blocks, blocks[::-1]):
                slopes.isoclinic_decompose(_simple_sum(field, order))

    descriptors._LEVELS.clear()
    ring_module._kernel_code.cache_clear()
    cycle()
    info = ring_module._kernel_code.cache_info()
    assert 0 < info.misses <= 64 and info.currsize == info.misses
    assert 4 * info.misses <= ring_module.KERNEL_CACHE
    cycle()
    assert ring_module._kernel_code.cache_info().misses == info.misses


def test_one_split_bundle_runs_a_bounded_number_of_eliminations(monkeypatch):
    # the eight shapes as one slope-split bundle: per module, construct
    # eliminates once for det A, and per component once for its kernel and
    # once for its stability (the kernel basis has its rank), then once for
    # independence; exact admissibility eliminates once for rank F and once
    # per proper N over L, and never over K, since every bound t_N is a
    # slope sum of the decomposition
    rng = random.Random(5)
    bundle = []
    for blocks, prec in SHAPES:
        field = UnramifiedFieldDescriptor.create(2, 1, prec)
        D = _simple_sum(field, blocks)
        ext = trivial_extension(field)
        t_N = sum(s for s, _ in blocks)
        F = la.from_rows_of_fractions(
            field, [[rng.randrange(-9, 10) for _ in range(t_N)] for _ in range(D.n)])
        bundle.append((D, lift_matrix(ext, F), ext))
    counts = {"construct": 0, "verify": 0}
    phase = [None]
    row_reduce = la.certified_row_reduce

    def counting(*args, **kwargs):
        counts[phase[0]] += 1
        return row_reduce(*args, **kwargs)

    monkeypatch.setattr(la, "certified_row_reduce", counting)
    for D, F, ext in bundle:
        phase[0] = "construct"
        slopes.isoclinic_decompose(D)
        phase[0] = "verify"
        is_admissible(D, F, ext, "exact")
    assert counts == {"construct": 48, "verify": 24}


# the base-changed modules of test_isocrystal's slope-factor soundness test,
# at its seeds: (blocks, N) -> sha256 of (lifts, factors)
BASE_CHANGED = {
    (((1, 2), (1, 1)), 16):
        "292c7b526cf57753014c2574507dfdbd0974922f2e5af514a8470af4adfd772c",
    (((1, 3), (1, 1)), 16):
        "4ba3ca42ad23a2bd83869e5fc13897552310e43e2e649056b22d38effa069e61",
    (((0, 1), (1, 2), (1, 1)), 16):
        "8b770d0206b00c66be29d9e7497ed8d0325b0d90e2b9ef651499cbee260a08d4",
    (((1, 2), (1, 1)), 24):
        "aa505e2f947dd76d774915cc12c9eeb632452b8dc4f634abb99aab9998b894ad",
    (((1, 3), (1, 1)), 24):
        "e6a4e45259b49dbff539f68c6e11a88a2c29d1b3ed7b4cf20f966970ffa468dc",
    (((0, 1), (1, 2), (1, 1)), 24):
        "0d09e44838f89114f7dabfb4e7b439fcb92cfb53034d984f05ce047daa31d1f8",
}


@pytest.mark.parametrize("blocks, prec", sorted(BASE_CHANGED))
def test_base_changed_splits_are_pinned(monkeypatch, blocks, prec):
    rng = random.Random(prec * 10 + len(blocks) * 3 + blocks[0][1])
    field = UnramifiedFieldDescriptor.create(2, 1, prec)
    D = _simple_sum(field, blocks)
    D = base_change(D, _random_invertible(field, D.n, rng))
    lifts, factors = _split_record(D, monkeypatch)
    assert len(lifts) == len(blocks) - 1
    assert _sha((lifts, factors)) == BASE_CHANGED[blocks, prec]


# g0 = x^2 + x + 1 and h0 = x^3 + x + 1, lifted with seeded higher digits
# over Z_2[t]/(t^e - 2): (e, N) -> sha256 of (G, H, S, T)
DIRECT = {
    (1, 32):
        "f0634bb0f31c59124c42bd5c1ddb664e62080126fac848071b59f03b0bcd8371",
    (2, 32):
        "bb7d83b4f87d65c284780d0859fb6179a51075e5ec42e0cd7a010bb71142010d",
    (3, 48):
        "67b5cb4a75a62792e5bdc0e8417a223cc933f436a437658c40feed136b535b08",
}


@pytest.mark.parametrize("e, prec", sorted(DIRECT))
def test_lift_with_h0_not_a_power_of_mu_is_pinned(e, prec):
    base = UnramifiedFieldDescriptor.create(2, 1, prec)
    ring = (base.ring if e == 1 else EisensteinExtensionDescriptor(
        base, (-2,) + (0,) * (e - 1) + (1,), validate=False).ring)
    rng = random.Random(7 * e + prec)
    pi = ring.gen_u()

    def lift_monic(res):
        return [ring.add(ring.from_int(c),
                         ring.mul(pi, tuple(rng.randrange(ring.pn)
                                            for _ in range(ring.dim))))
                for c in res[:-1]] + [ring.one()]

    g0, h0 = [1, 1, 1], [1, 1, 0, 1]
    F = rp_mul(ring, lift_monic(g0), lift_monic(h0))
    out = hensel_lift_pair(ring, F, [ring.from_int(c) for c in g0],
                           [ring.from_int(c) for c in h0])
    assert _sha(out) == DIRECT[e, prec]


# (fixture module, --precision or None) -> sha256 of the printed bytes
DECOMPOSE = {
    ("ordinary_torus", None):
        "00a4a29a9ae3ffd820b97aa371f942d7dd4248189b589d646f2b0a451e9ba73e",
    ("ordinary_torus", 32):
        "f0610cb5c294b77c24a4622c078a9a3f089d8fca52347cb0365e8293f05229fe",
    ("ordinary_torus", 48):
        "be9e8d47a9dbaac5e703f854957b2f454cbdee8e4b9c17c6c0bb3a5827cfa8be",
    ("ss2", None):
        "d598ae78f5cef6283fd0419ca53dbd670c891e7a4369d72bd3230d98e69ffade",
    ("ss2", 32):
        "907b078c9e087c87fca2f57ab17b3e43c19a9141eef1423c4dba8d3bdd236c35",
    ("ss2", 48):
        "83a1399ea303a24e05398d85798986feb942be5f25bdd11110f773d3d8b2cb53",
    ("ss2_q4", None):
        "4a84f84c0c7fafbbf232fc9708dce57ef5c0cac3f182b0870b3b914b6cf35d85",
    ("ss2_q4", 32):
        "504e25383299539172c7ff2e5d48b2f80b2e3599841d4d16552be514347b0b4b",
    ("ss2_q4", 48):
        "25dceaeac768c3dd2d826776e0de39b371b351f8de9f8ef9e5c6b0f342400a02",
}


@pytest.mark.parametrize("module, prec", sorted(DECOMPOSE, key=str))
def test_decompose_json_is_pinned(module, prec):
    argv = ["decompose", "--module", os.path.join(FIX, f"{module}.json"), "--json"]
    if prec is not None:
        argv += ["--precision", str(prec)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DECOMPOSE[module, prec]
