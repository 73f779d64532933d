"""Group constructions, representation validation, character tables."""

import gc
import hashlib
import weakref
from fractions import Fraction

import pytest

from isofilt.errors import ValidationError
from isofilt.fixtures import (unramified, quaternion_pair, quaternion_rep,
                              wreath_block_rep, block_frobenius_module,
                              scalar_c2_rep)
from isofilt.groups.constructions import (all_groups_up_to_16, quaternion,
                                          cyclic, dihedral, dicyclic,
                                          wreath_q8_sylow)
from isofilt.groups.characters import CharacterTable
from isofilt.groups.core import FiniteGroup, GroupRepresentation
from isofilt.groups.isotypic import _embedding_for, get_character_table
from isofilt.isocrystal.module import standard_symplectic_gram
from isofilt.padic import UnramifiedFieldDescriptor, linalg as la
from isofilt.padic.scalar import REG, sc_add, sc_mul, sc_zero


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
        fp = g.fingerprint()
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
    assert dicyclic(2).fingerprint() == quaternion().fingerprint()


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
    assert rep.validate(phi_module=D, gram=J, table_mode="sample")
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


def test_sampled_table_check_covers_a_small_group_once(monkeypatch, capsys):
    # Q8 has 64 pairs, fewer than the 512 samples: each is checked once
    from isofilt.cli import main
    pairs = _table_products(
        monkeypatch, lambda: main(["wreath-demo", "--g", "1", "--json"]))
    assert len(pairs) == 64 and set(pairs) == {(a, b) for a in range(8)
                                               for b in range(8)}
    assert '"group_order": 8' in capsys.readouterr().out


def test_sampled_table_check_samples_a_large_group(monkeypatch):
    Q4 = unramified(2, 2, 24)
    rep = wreath_block_rep(Q4, 2)
    pairs = _table_products(
        monkeypatch, lambda: rep.validate(table_mode="sample"))
    assert rep.group.n ** 2 > 512 and len(pairs) == 512


def test_is_scalar_image():
    Q4 = unramified(2, 2, 24)
    assert scalar_c2_rep(Q4, 3).is_scalar_image()
    assert not quaternion_rep(Q4).is_scalar_image()


def test_character_tables_small_groups():
    digest = hashlib.sha256()
    for lbl, g in all_groups_up_to_16():
        ct = CharacterTable(g)
        assert sum(d * d for d in ct.degrees) == g.n, lbl
        assert ct.orthogonality_check(), lbl
        digest.update(repr((ct.ell, ct.z, ct.degrees, ct.mult)).encode())
    # the tables, rows and columns in order, as the modular method first
    # produced them
    assert digest.hexdigest() == ("ebc41e0daffb347b26ae13ee4edfd652"
                                  "bdb35eb7ff2a9b013ce57d4a236b050b")


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
