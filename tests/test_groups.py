"""Group constructions, representation validation, character tables."""

import gc
import hashlib
import weakref
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from isofilt.errors import ValidationError
from isofilt.fixtures import (unramified, quaternion_pair, wreath_block_rep,
                              block_frobenius_module, scalar_c2_rep)
from isofilt.groups.constructions import (all_groups_up_to_16, quaternion,
                                          cyclic, dihedral, dicyclic,
                                          wreath_q8_sylow, census_p_groups,
                                          direct_product)
from isofilt.groups import characters
from isofilt.groups.characters import CharacterTable
from isofilt.groups import core
from isofilt.groups.core import FiniteGroup, GroupRepresentation
from isofilt.groups.isotypic import _embedding_for, get_character_table
from isofilt.isocrystal.module import standard_symplectic_gram
from isofilt.padic import UnramifiedFieldDescriptor, linalg as la
from isofilt.padic.scalar import REG, sc_add, sc_izero, sc_mul, sc_zero
from oracles import orthogonality_check, quaternion_rep, validate_all_pairs


def center_size(G):
    return sum(1 for x in range(G.n)
               if all(G.table[x][g] == G.table[g][x] for g in range(G.n)))


def derived_subgroup_order(G):
    """The order of the subgroup generated by the commutators."""
    elems = {G.table[G.table[G.table[a][b]][G.inverse[a]]][G.inverse[b]]
             for a in range(G.n) for b in range(G.n)}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for y in list(elems):
                for z in (G.table[x][y], G.table[y][x]):
                    if z not in elems:
                        elems.add(z)
                        new.append(z)
        frontier = new
    return len(elems)


def fingerprint(G):
    """Isomorphism-invariant signature used to tell groups apart."""
    orders = G.element_orders()
    classes, _ = G.conjugacy_classes()
    csizes = tuple(sorted(len(c) for c in classes))
    # how many distinct squares the elements of each order have
    sq = {}
    for x in range(G.n):
        sq.setdefault(orders[x], set()).add(G.table[x][x])
    sq_profile = tuple(sorted((k, len(v)) for k, v in sq.items()))
    return (G.n, tuple(sorted(orders)), csizes, center_size(G),
            derived_subgroup_order(G), sq_profile)


def test_classification_counts():
    gs = all_groups_up_to_16()
    assert len(gs) == 42
    by_order = {}
    for lbl, g in gs:
        by_order.setdefault(g.n, []).append(lbl)
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
                11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}
    assert {n: len(v) for n, v in by_order.items()} == expected


def test_fingerprints_distinguish_all():
    fps = {}
    for lbl, g in all_groups_up_to_16():
        fp = fingerprint(g)
        assert fp not in fps, (lbl, fps.get(fp))
        fps[fp] = lbl


def test_quaternion_table():
    q8 = quaternion()
    nm = q8.names
    mul = lambda a, b: nm[q8.table[nm.index(a)][nm.index(b)]]
    assert mul("i", "j") == "k"
    assert mul("j", "i") == "-k"
    assert mul("i", "i") == "-1"
    assert mul("k", "k") == "-1"
    assert sorted(q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_dicyclic_is_q8():
    assert fingerprint(dicyclic(2)) == fingerprint(quaternion())


def test_wreath_sylow_orders():
    assert wreath_q8_sylow(1).n == 8
    assert wreath_q8_sylow(2).n == 128


def test_quaternion_rep_validates():
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    from isofilt.fixtures import supersingular_module
    D = supersingular_module(Q4)
    J = standard_symplectic_gram(Q4, 1)
    assert rep.validate(phi_module=D, gram=J)


def test_rep_validation_rejects_broken_table():
    Q4 = unramified(2, 2, 24)
    G = cyclic(2)
    bad = GroupRepresentation(G, Q4, [la.identity(Q4, 2),
                                      la.from_rows_of_fractions(Q4, [[1, 1], [0, 1]])])
    with pytest.raises(ValidationError):
        bad.validate()


def test_rep_validation_rejects_unfaithful_claim():
    Q4 = unramified(2, 2, 24)
    G = cyclic(2)
    bad = GroupRepresentation(G, Q4, [la.identity(Q4, 2)] * 2, faithful=True)
    with pytest.raises(ValidationError):
        bad.validate()


def test_rep_validation_rejects_non_phi_commuting():
    Q4 = unramified(2, 2, 24)
    from isofilt.fixtures import supersingular_module
    D = supersingular_module(Q4)
    G = cyclic(2)
    m = la.from_rows_of_fractions(Q4, [[1, 0], [0, -1]])  # not in End(D)
    rep = GroupRepresentation(G, Q4, [la.identity(Q4, 2), m])
    with pytest.raises(ValidationError):
        rep.validate(phi_module=D)


def test_wreath_block_rep_g2():
    Q4 = unramified(2, 2, 24)
    rep = wreath_block_rep(Q4, 2)
    D = block_frobenius_module(Q4, 2)
    J = standard_symplectic_gram(Q4, 2)
    assert rep.validate(phi_module=D, gram=J)
    assert rep.group.n == 128


def _table_products(monkeypatch, run):
    """(a, b) of every product of two group matrices that validate checks
    against the table while run() goes."""
    pairs, relation = [], la.mat_mul_sub_is_zero
    validate = GroupRepresentation.validate

    def spy_validate(rep, *args, **kwargs):
        index = {id(m): x for x, m in enumerate(rep.mats)}

        def spy_relation(a, b, c, min_bound):
            if id(a) in index and id(b) in index:
                pairs.append((index[id(a)], index[id(b)]))
            return relation(a, b, c, min_bound)

        with monkeypatch.context() as patch:
            patch.setattr(la, "mat_mul_sub_is_zero", spy_relation)
            return validate(rep, *args, **kwargs)

    monkeypatch.setattr(GroupRepresentation, "validate", spy_validate)
    run()
    return pairs


def test_table_check_covers_each_generator_row_once(monkeypatch, capsys):
    # greedy in index order, Q8 = {1, -1, i, -i, j, ...} takes -1, i and j,
    # and -1 = i^2 is dropped: 2 x 8 products of 64
    from isofilt.cli import main
    pairs = _table_products(
        monkeypatch, lambda: main(["wreath-demo", "--g", "1", "--json"]))
    assert quaternion().generators() == [2, 4]
    assert len(pairs) == 16
    assert set(pairs) == {(s, b) for s in (2, 4) for b in range(8)}
    assert '"group_order": 8' in capsys.readouterr().out


def test_table_check_covers_each_generator_row_once_g2(monkeypatch):
    Q4 = unramified(2, 2, 24)
    rep = wreath_block_rep(Q4, 2)
    pairs = _table_products(monkeypatch, lambda: rep.validate())
    # of i and j at each of the two positions and the swap, the swap
    # conjugates the second position's i and j to the first's
    assert rep.group.generators() == [2, 3, 4]
    assert len(pairs) == 3 * 128
    assert set(pairs) == {(s, b) for s in (2, 3, 4) for b in range(128)}


def test_non_integral_generators_take_every_row(monkeypatch):
    # Q8 conjugated by P = diag(2, 1): the generator matrices get entries of
    # valuation -1, so a relation certified on them need not hold to the
    # relation threshold along a word, and every element is a row
    Q4 = unramified(2, 2, 24)
    rep = quaternion_rep(Q4)
    P = la.from_rows_of_fractions(Q4, [[2, 0], [0, 1]])
    P_inv = la.from_rows_of_fractions(Q4, [[Fraction(1, 2), 0], [0, 1]])
    conj = GroupRepresentation(rep.group, Q4,
                               [la.mat_mul(P, la.mat_mul(m, P_inv))
                                for m in rep.mats])
    assert list(rep.relation_rows()) == rep.group.generators()
    assert list(conj.relation_rows()) == list(range(8))
    pairs = _table_products(monkeypatch, lambda: conj.validate())
    assert sorted(pairs) == [(a, b) for a in range(8) for b in range(8)]


def _generated(G, gens):
    reached, frontier = {G.identity}, [G.identity]
    while frontier:
        y = frontier.pop()
        for s in gens:
            if G.table[y][s] not in reached:
                reached.add(G.table[y][s])
                frontier.append(G.table[y][s])
    return reached


def test_generators_are_greedy_then_minimal():
    for label, G in all_groups_up_to_16():
        S = G.generators()
        assert _generated(G, S) == set(range(G.n)), label
        greedy = []
        for x in range(G.n):
            # x is taken exactly when the members before it miss it
            if x not in _generated(G, greedy):
                greedy.append(x)
        for x in greedy:
            # then x stays exactly when the members kept before it and the
            # greedy members after it miss it
            rest = [s for s in S if s < x] + [y for y in greedy if y > x]
            assert (x in S) == (x not in _generated(G, rest)), label
        for x in S:
            assert x not in _generated(G, [s for s in S if s != x]), label
    assert cyclic(1).generators() == []


def test_generators_of_a_closure_are_given_generators():
    # S4 from a 4-cycle, its square (redundant) and a transposition
    def mul(a, b):
        return tuple(a[i] for i in b)

    gens = [(1, 2, 3, 0), (2, 3, 0, 1), (1, 0, 2, 3)]
    G = FiniteGroup.from_generators(gens, mul)
    assert G.n == 24
    assert G.generators() == [0, 2]


def _regular_rep(G, field):
    """G acting on field^n by permuting the basis: rho(g) e_b = e_gb."""
    one, zero = field.one(), field.zero()
    return [[[one if G.table[g][b] == a else zero for b in range(G.n)]
             for a in range(G.n)] for g in range(G.n)]


GROUPS_UP_TO_16 = all_groups_up_to_16()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generator_rows_reject_exactly_when_all_pairs_do(data):
    # perturb rho(x) by p^k E or O(p^k) E for a random element x, generator
    # or not, in the regular representation, conjugated by diag(p^-c, 1,
    # ...) so that c > 0 makes it non-integral: validate on generator rows
    # and the all-pairs reference must agree
    Q2 = unramified(2, 1, 12)
    label, G = data.draw(st.sampled_from(GROUPS_UP_TO_16), label="group")
    mats = _regular_rep(G, Q2)
    c = data.draw(st.integers(0, 2), label="c")
    if c:
        P, P_inv = la.identity(Q2, G.n), la.identity(Q2, G.n)
        P[0][0] = Q2.scalar(Fraction(1, 2 ** c))
        P_inv[0][0] = Q2.scalar(2 ** c)
        mats = [la.mat_mul(P, la.mat_mul(m, P_inv)) for m in mats]
    x = data.draw(st.integers(0, G.n - 1), label="element")
    k = data.draw(st.integers(3, 9), label="k")
    # an exact p^k is a certified nonzero error at any k; an inexact
    # O(p^k) passes the relation threshold (6 at precision 12) when k >= 6
    cells = data.draw(st.lists(st.tuples(st.integers(0, G.n - 1),
                                         st.integers(0, G.n - 1),
                                         st.sampled_from([-1, 1, None])),
                               max_size=3), label="cells")
    m = [list(row) for row in mats[x]]
    for i, j, sign in cells:
        err = sc_izero(Q2, k) if sign is None else Q2.scalar(sign * 2 ** k)
        m[i][j] = sc_add(m[i][j], err)
    mats[x] = m
    rep = GroupRepresentation(G, Q2, mats)

    def rejects(check):
        try:
            check(rep)
        except ValidationError:
            return True
        return False

    assert (rejects(GroupRepresentation.validate)
            == rejects(validate_all_pairs)), (label, c, x, k, cells)


def test_is_scalar_image():
    Q4 = unramified(2, 2, 24)
    assert scalar_c2_rep(Q4, 3).is_scalar_image()
    assert not quaternion_rep(Q4).is_scalar_image()


def _sign_of_translation(G, g):
    # left multiplication by g has n / ord(g) cycles of length ord(g)
    k = G.element_orders()[g]
    return (-1) ** ((k - 1) * (G.n // k))


def _acts_by_scalars_everywhere(rep):
    thr = la.relation_threshold(rep.field)
    return all(la.mat_is_zero(la.mat_sub(m, la.mat_scalar(
        m[0][0], la.identity(rep.field, rep.dim))), thr) for m in rep.mats)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_image_is_decided_on_generator_rows(data):
    # g -> sign(left multiplication by g) I, the regular representation, or
    # both as blocks, possibly conjugated by diag(2^-c, 1, ...): generator
    # rows and every element agree, and integral rows read S alone
    Q2 = unramified(2, 1, 12)
    label, G = data.draw(st.sampled_from(GROUPS_UP_TO_16), label="group")
    kind = data.draw(st.sampled_from(["scalar", "regular", "blocks"]))
    regular = _regular_rep(G, Q2)
    mats = []
    for g in range(G.n):
        sign = la.mat_scalar(Q2.scalar(_sign_of_translation(G, g)),
                             la.identity(Q2, 2))
        if kind == "scalar":
            mats.append(sign)
        elif kind == "regular":
            mats.append(regular[g])
        else:
            mats.append([row + [Q2.zero()] * G.n for row in sign]
                        + [[Q2.zero()] * 2 + row for row in regular[g]])
    c = data.draw(st.integers(0, 2), label="c")
    if c:
        n = len(mats[0])
        P, P_inv = la.identity(Q2, n), la.identity(Q2, n)
        P[0][0], P_inv[0][0] = Q2.scalar(Fraction(1, 2 ** c)), Q2.scalar(2 ** c)
        mats = [la.mat_mul(P, la.mat_mul(m, P_inv)) for m in mats]
    rep = GroupRepresentation(G, Q2, mats)
    read = []
    homothety = core._is_homothety
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_is_homothety",
                      lambda m, *args: read.append(m) or homothety(m, *args))
        assert rep.is_scalar_image() == _acts_by_scalars_everywhere(rep), label
    assert len(read) <= len(rep.relation_rows())
    if c == 0 or kind == "scalar":
        assert list(rep.relation_rows()) == G.generators()


def test_character_tables_small_groups():
    digest = hashlib.sha256()
    for lbl, g in all_groups_up_to_16():
        ct = CharacterTable(g)
        assert sum(d * d for d in ct.degrees) == g.n, lbl
        assert orthogonality_check(ct), lbl
        digest.update(repr((ct.ell, ct.z, ct.degrees, ct.mult)).encode())
    # the tables, rows and columns in order, as the modular method first
    # produced them
    assert digest.hexdigest() == ("ebc41e0daffb347b26ae13ee4edfd652"
                                  "bdb35eb7ff2a9b013ce57d4a236b050b")


def _modular_table(G):
    """G's table by the modular method, which non-abelian groups take: the
    reference for the abelian route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CharacterTable, "_build_abelian", CharacterTable._build)
        return CharacterTable(G)


def _is_abelian(G):
    return all(G.table[a][b] == G.table[b][a]
               for a in range(G.n) for b in range(G.n))


def _assert_same_table(G, label):
    got, ref = CharacterTable(G), _modular_table(G)
    for name in ("ell", "z", "degrees", "theta", "mult"):
        assert getattr(got, name) == getattr(ref, name), (label, name)
    units = [a for a in range(1, got.e + 1) if gcd(a, got.e) == 1]
    for chi in range(got.k):
        assert got.dual(chi) == ref.dual(chi), label
        assert ([got.twist(chi, a) for a in units]
                == [ref.twist(chi, a) for a in units]), label


ABELIAN_FAMILIES = {
    "up_to_16": lambda: [(l, G) for l, G in all_groups_up_to_16() if _is_abelian(G)],
    "census": lambda: [(l, G) for l, G in census_p_groups() if _is_abelian(G)],
    "cyclic_up_to_40": lambda: [(f"C{n}", cyclic(n)) for n in range(1, 41)],
}


@pytest.mark.parametrize("family", sorted(ABELIAN_FAMILIES))
def test_abelian_tables_match_the_modular_method(family):
    # field by field, characters in the same order: the direct route sorts
    # its rows by theta, the order of the modular method's eigen-splits
    groups = ABELIAN_FAMILIES[family]()
    assert len(groups) >= 10
    for label, G in groups:
        _assert_same_table(G, label)


@settings(max_examples=20, deadline=None)
@given(orders=st.lists(st.integers(1, 8), min_size=1, max_size=3)
       .filter(lambda ns: prod(ns) <= 32))
def test_products_of_cyclic_groups_match_the_modular_method(orders):
    G = cyclic(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic(n))
    _assert_same_table(G, orders)


def test_abelian_tables_split_no_class_matrix(monkeypatch):
    calls = []
    for module, name in ((characters, "_split_by_matrix"), (la, "berkowitz")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    for label, G in ABELIAN_FAMILIES["up_to_16"]() + [("C128", cyclic(128))]:
        CharacterTable(G)
    assert calls == []
    CharacterTable(quaternion())  # the modular method does call both
    assert {"_split_by_matrix", "berkowitz"} <= set(calls)


def test_cyclic_128_table():
    ct = CharacterTable(cyclic(128))
    assert ct.k == 128 and ct.degrees == [1] * 128
    assert orthogonality_check(ct)


def test_element_orders_reject_a_table_that_is_not_a_group():
    # e is an identity and every element has a right inverse, but the powers
    # of a run a, b, b, ... and never return to e
    g = FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 2, 0]])
    with pytest.raises(ValidationError, match="not a group table"):
        g.element_orders()


def test_character_table_q8():
    ct = CharacterTable(quaternion())
    assert sorted(ct.degrees) == [1, 1, 1, 1, 2]
    chi2 = ct.degrees.index(2)
    q8 = quaternion()
    kcls = ct.class_of[q8.names.index("k")]
    assert ct.eigenvalue_multiplicities(chi2, kcls) == [(4, 1), (4, 1)]
    mcls = ct.class_of[q8.names.index("-1")]
    assert ct.eigenvalue_multiplicities(chi2, mcls) == [(2, 2)]


def test_twist_and_dual_are_characters():
    ct = CharacterTable(dihedral(4))
    for chi in range(ct.k):
        assert 0 <= ct.dual(chi) < ct.k
        for a in (1, 3):
            assert 0 <= ct.twist(chi, a) < ct.k


def test_embedding_cache_tells_moduli_apart():
    """Two presentations of Q_8 at one precision: the default modulus lifts
    x^3 + x^2 + 1, its reciprocal lifts x^3 + x + 1.  Each must get an
    embedding into Q_64 that sends its own generator to a root of its own
    modulus."""
    default = unramified(2, 3, 16)
    pn = 2 ** 16
    reciprocal = tuple(-c % pn for c in reversed(default.modulus))
    other = UnramifiedFieldDescriptor(2, 3, 16, reciprocal)
    assert [c % 2 for c in default.modulus] == [1, 0, 1, 1]
    assert [c % 2 for c in other.modulus] == [1, 1, 0, 1]
    for field in (default, other):
        big, emb = _embedding_for(field, 9)
        z = emb(field.gen())
        value = sc_zero(big)
        for c in reversed(field.modulus):
            value = sc_add(sc_mul(value, z), big.scalar(c))
        assert value.kind != REG


def test_character_table_does_not_keep_group_alive():
    G = quaternion()
    ref = weakref.ref(G)
    get_character_table(G)
    del G
    gc.collect()
    assert ref() is None
