"""The Galois layer on raw rows: the lift to an Eisenstein step and the action
of its automorphisms as rules on raw entries, and descent block by block.

``EisensteinExtensionDescriptor.lift_rows`` (the raw lift) and the kernel's
``apply_aut`` (the tau rule) must give what ``oracles.scalar_lift`` and
``oracles.scalar_apply_aut`` build on Scalars, entry for entry and error for
error, at every fixture level: e = 2 over Q_2, e = 4 over the f = 2 level,
and the trivial step e = 1, where a unit is a plain int.  ``galois_descend``
builds its candidates a block at a time and must find the invariants that
``oracles.galois_descend_reference`` finds among all e * n candidates,
Scalar for Scalar, with one elimination per descent.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from isofilt import cli, formats
from isofilt.errors import PrecisionError, ValidationError
from isofilt.filtration import driver as driver_mod
from isofilt.filtration.galois import GaloisSetup, galois_descend, lift_matrix
from isofilt.fixtures import sqrt2_extension, unramified
from isofilt.groups.constructions import cyclic
from isofilt.groups.core import GroupRepresentation
from isofilt.padic import linalg as la
from isofilt.padic import scalar as sc
from oracles import (galois_descend_reference, lift_reference,
                     scalar_apply_aut)

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
EXTENSIONS = ["ext_sqrt2_c2", "ext_c4_cyclotomic", "ext_trivial"]


def fx(stem):
    return os.path.join(FIX, f"{stem}.json")


def _extension(stem):
    return formats.extension_from_json(formats.load_json(fx(stem)), None)


def _entries(m):
    return [[(x.kind, x.w, None if x.unit is None else tuple(x.unit), x.relpi,
              x.zw) for x in row] for row in m]


def _outcome(fn, *args):
    try:
        return "ok", _entries(fn(*args))
    except (PrecisionError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def scalars(draw, level):
    """A Scalar of the level: an exact zero, an izero, or a reg scalar whose
    u-power w mod e takes every value and whose relpi runs from 1 up."""
    kind = draw(st.sampled_from([sc.ZERO, sc.IZERO, sc.REG, sc.REG, sc.REG]))
    if kind == sc.ZERO:
        return sc.sc_zero(level)
    e = level.e
    if kind == sc.IZERO:
        return sc.sc_izero(level, draw(st.integers(-3 * e, 12 * e)))
    ring, pn = level.ring, level.ring.pn
    unit = [draw(st.integers(0, pn - 1)) for _ in range(ring.dim)]
    unit[0] += draw(st.integers(1, ring.p - 1)) - unit[0] % ring.p
    top = level.relpi_max
    relpi = top if draw(st.booleans()) else draw(st.integers(1, top))
    return sc.Scalar(level, sc.REG, w=draw(st.integers(-3 * e, 6 * e)),
                     unit=tuple(unit), relpi=relpi)


def matrices(level):
    return st.lists(st.lists(scalars(level), min_size=3, max_size=3),
                    min_size=1, max_size=3)


@pytest.mark.parametrize("stem", EXTENSIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_raw_lift_is_the_scalar_lift(stem, data):
    ext = _extension(stem)
    kb = sc.kernel(ext.base)
    m = data.draw(matrices(ext.base))
    want = lift_reference(ext, m)
    rows = kb.encode_rows(m)
    assert _entries(sc.kernel(ext).decode_rows(ext.lift_rows(kb, rows))) == \
        _entries(want)
    assert _entries(lift_matrix(ext, m)) == _entries(want)
    assert _entries([[ext.lift(x) for x in row] for row in m]) == _entries(want)
    if ext.e == 1:
        # every entry is its own lift: a unit stays an int over Q_p
        assert ext.lift_rows(kb, rows) is rows


@pytest.mark.parametrize("stem", EXTENSIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_tau_rule_is_the_scalar_automorphism(stem, data):
    ext = _extension(stem)
    k = sc.kernel(ext)
    m = data.draw(matrices(ext))
    for name, rec in ext.automorphisms.items():
        rows = k.encode_rows(m)
        got = _outcome(lambda: k.decode_rows(k.apply_aut(rows, rec)))
        want = _outcome(lambda: [[scalar_apply_aut(x, rec) for x in row]
                                 for row in m])
        assert got == want
        assert _outcome(lambda: [[sc.sc_apply_aut(x, rec) for x in row]
                                 for row in m]) == want
        if ext.e == 1:
            assert k.apply_aut(rows, rec) is rows


def test_the_raw_lift_rejects_another_level():
    ext = _extension("ext_sqrt2_c2")
    other = unramified(3, 1, 16)
    with pytest.raises(ValidationError, match="not at the base level"):
        ext.lift(other.one())
    with pytest.raises(ValidationError, match="not at the base level"):
        lift_matrix(ext, [[other.one()]])


# -- descent, block by block ----------------------------------------------------------


def _descend_counting(monkeypatch, rep, setup):
    """galois_descend(rep, setup), and the number of columns of each
    certified elimination it ran."""
    widths = []
    real = la.certified_row_reduce

    def counting(m, *args, **kwargs):
        widths.append(len(m[0]))
        return real(m, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(la, "certified_row_reduce", counting)
        got = galois_descend(rep, setup)
    return got, widths


def _pieces(monkeypatch, triple):
    """(rep, setup) of every descent that a find of the fixture triple runs."""
    calls = []
    real = driver_mod.galois_descend

    def spy(rep, setup):
        calls.append((rep, setup))
        return real(rep, setup)

    argv = ["filtration", "find", "--seed", "3", "--out", os.devnull]
    for flag, stem in zip(("--module", "--group", "--extension"), triple):
        argv += [flag, fx(stem)]
    with monkeypatch.context() as patch:
        patch.setattr(driver_mod, "galois_descend", spy)
        assert cli.main(argv) == 0
    return calls


# triple -> candidate columns of the one elimination of each descent: block 0
# of e = 4 holds both pivots of ss2_q4, while the torus's piece has one live
# column in block 0 (e = 2) and takes both blocks
PIECES = {
    ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"): 4,
    ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2"): 4,
}


@pytest.mark.parametrize("triple", sorted(PIECES), ids="+".join)
def test_a_fixture_descent_is_the_full_descent(monkeypatch, capsys, triple):
    calls = _pieces(monkeypatch, triple)
    capsys.readouterr()
    assert calls
    for rep, setup in calls:
        got, widths = _descend_counting(monkeypatch, rep, setup)
        assert widths == [PIECES[triple]]
        assert _entries(got) == _entries(galois_descend_reference(rep, setup))


def test_a_dead_column_waits_for_the_next_block(monkeypatch):
    # C2 by diag(1, -1) over Q_2(sqrt 2): block 0 is 2 e_0 and
    # (pi + tau(pi)) e_0 = 0, one live column; block 1 adds 2 pi e_1
    Q2 = unramified(2, 1, 32)
    L = sqrt2_extension(Q2)
    setup = GaloisSetup(cyclic(2), L, {"g0": "1", "g1": "s"})
    rep = GroupRepresentation(cyclic(2), Q2, [
        la.identity(Q2, 2), la.from_rows_of_fractions(Q2, [[1, 0], [0, -1]])])
    got, widths = _descend_counting(monkeypatch, rep, setup)
    assert widths == [4]
    assert _entries(got) == _entries(galois_descend_reference(rep, setup))
    assert [[x.w for x in row] for row in got] == [[0, None], [None, 1]]
