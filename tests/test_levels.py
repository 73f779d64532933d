"""Interned tower levels: one descriptor, and so one TowerRing, per
presentation, and only validated presentations are kept."""

import json
import os
from types import SimpleNamespace

import pytest

from isofilt import cli, formats
from isofilt.errors import ValidationError
from isofilt.groups.isotypic import _embedding_for
from isofilt.padic import descriptors, ring as ring_module
from isofilt.padic.descriptors import (EisensteinExtensionDescriptor,
                                       UnramifiedFieldDescriptor)

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")

TRIPLES = [("ss2", "c2_scalar_dim2", "ext_sqrt2_c2"),
           ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"),
           ("ordinary_torus", "trivial_group_dim3", "ext_trivial"),
           ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2")]


def fx(stem):
    return os.path.join(FIX, f"{stem}.json")


def _round_trip(capsys, cert, triple, seed=3):
    module, group, extension = (fx(stem) for stem in triple)
    code = cli.main(["filtration", "find", "--module", module, "--group", group,
                     "--extension", extension, "--seed", str(seed),
                     "--out", str(cert)])
    assert code == 0, capsys.readouterr().err
    code = cli.main(["filtration", "check", str(cert)])
    err = capsys.readouterr().err
    assert code == 0, err


def test_two_loads_of_one_document_are_one_level():
    doc = formats.load_json(fx("ext_c4_cyclotomic"))
    ext = formats.extension_from_json(doc)
    assert formats.extension_from_json(doc) is ext
    assert formats.extension_from_json(json.loads(json.dumps(doc))) is ext
    # the fixture's modulus is the canonical one, so a level without it is
    # the same object
    assert formats.field_from_json({"p": 2, "f": 2, "precision": 64}) is ext.base
    assert UnramifiedFieldDescriptor.create(2, 2, 64) is ext.base


@pytest.mark.parametrize("triple", TRIPLES, ids=lambda t: "+".join(t))
def test_a_problem_has_one_base_level(triple):
    module, group, extension = (fx(stem) for stem in triple)
    args = SimpleNamespace(module=module, group=group, extension=extension,
                           precision=None)
    _, _, _, sa, rep, ext, setup = cli._load_problem(args)
    assert sa.module.field is ext.base
    assert rep.field is ext.base


@pytest.mark.parametrize("triple", TRIPLES, ids=lambda t: "+".join(t))
def test_a_second_round_trip_builds_no_ring(tmp_path, capsys, monkeypatch,
                                            triple):
    cert = tmp_path / "cert.json"
    _round_trip(capsys, cert, triple)
    built = []
    init = ring_module.TowerRing.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ring_module.TowerRing, "__init__", counting)
    _round_trip(capsys, cert, triple, seed=4)
    assert built == []


def test_a_failed_construction_stores_nothing():
    base = UnramifiedFieldDescriptor.create(2, 1, 24)
    before = dict(descriptors._LEVELS)
    bad_table = {"e": [0, 1], "bad": [1, 1]}
    for _ in range(2):
        with pytest.raises(ValidationError, match="does not map the uniformizer"):
            EisensteinExtensionDescriptor.create(base, (-2, 0, 1), bad_table)
        with pytest.raises(ValidationError, match="valuation exactly 1"):
            EisensteinExtensionDescriptor.create(base, (-4, 0, 1))
        # x^2 + 1 is reducible mod 2; and a leading 1 + 2^24 is not monic,
        # though it is 1 mod 2^24, the key's reduction
        for modulus in ((1, 0, 1), (1, 1, 1 + 2 ** 24)):
            with pytest.raises(ValidationError, match="not a monic lift"):
                UnramifiedFieldDescriptor.create(2, 2, 24, modulus)
        assert descriptors._LEVELS == before
    assert UnramifiedFieldDescriptor.create(2, 2, 24, (1, 1, 1)).modulus == (1, 1, 1)


def test_a_tampered_table_fails_after_a_valid_load(tmp_path, capsys):
    triple = ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic")
    cert = tmp_path / "cert.json"
    _round_trip(capsys, cert, triple)
    doc = json.loads(cert.read_text())
    doc["inputs"]["extension"]["eisenstein"]["automorphisms"]["g"] = [0, 1, 0, 1]
    doc["digest"] = formats.certificate_digest(doc)
    cert.write_text(json.dumps(doc))
    code = cli.main(["filtration", "check", str(cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert "automorphism 'g' does not map the uniformizer to a root of E" in err


def test_the_level_table_is_bounded():
    cap = descriptors.LEVEL_CACHE
    first = UnramifiedFieldDescriptor.create(3, 1, 1000)
    levels = [UnramifiedFieldDescriptor.create(3, 1, 1000 + k)
              for k in range(1, cap + 5)]
    assert len(descriptors._LEVELS) == cap
    assert UnramifiedFieldDescriptor.create(3, 1, 1000 + cap + 4) is levels[-1]
    # the oldest is forgotten: a new object, equal to it by its key
    again = UnramifiedFieldDescriptor.create(3, 1, 1000)
    assert again is not first and again == first


def test_extensions_with_other_identities_differ():
    # over Q_2(sqrt 2) the two tables name the same automorphisms, but the
    # identity is e in one and s in the other
    base = UnramifiedFieldDescriptor.create(2, 1, 24)
    one = EisensteinExtensionDescriptor.create(base, (-2, 0, 1),
                                               {"e": [0, 1], "s": [0, -1]})
    other = EisensteinExtensionDescriptor.create(base, (-2, 0, 1),
                                                 {"e": [0, -1], "s": [0, 1]})
    assert (one.identity_name, other.identity_name) == ("e", "s")
    assert one != other and one is not other
    assert len({one, other}) == 2
    same = EisensteinExtensionDescriptor(base, (-2, 0, 1),
                                         {"e": (0, 1), "s": (0, -1)})
    assert same == one and hash(same) == hash(one)
    assert EisensteinExtensionDescriptor(base, (-2, 0, 1), {}) != one


def test_fields_with_other_floors_differ():
    base = UnramifiedFieldDescriptor.create(2, 3, 16)
    floor3 = UnramifiedFieldDescriptor(2, 3, 16, base.modulus, floor_relpi=3)
    assert floor3 != base and len({base, floor3}) == 2
    assert UnramifiedFieldDescriptor(2, 3, 16, base.modulus) == base
    # each field gets its own embedding into Q_64, not the other's
    for field in (base, floor3):
        big, emb = _embedding_for(field, 9)
        assert emb.small is field and emb.big is big and big.f == 6
        assert _embedding_for(field, 9)[1] is emb
    assert _embedding_for(base, 9)[1] is not _embedding_for(floor3, 9)[1]
