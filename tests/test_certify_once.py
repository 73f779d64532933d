"""Each fact is certified once per call: the certified eliminations
(``linalg.certified_row_reduce``) that a load, a find and a check run.

A semi-abelian load eliminates A (its determinant), [T | I_n] (section and
inverse), [T | A sigma(T)] (T's stability and Frobenius), T's Frobenius (its
determinant, for T's slope) and the pairing on D_B: five; without a toric
part, A and the pairing: two.  A validated module keeps v_p(det A), so its
t_N eliminates nothing.  The pins of a round trip follow from one rank
per filtration: a sampled F's rank serves both transversality tests, the
rank g that the Lagrangian check certifies serves admissibility and
stability in find, and stability in check when F is F_B (no toric
part), and the pulled-back F's rank serves containment, the extension node
and stability.  The action's toric check reads T's rank off its columns,
which the load certified independent.  The counts are the same for every
seed and for a first and a later run in a process.
"""

import json
import os

import pytest

from isofilt import cli, formats
from isofilt.padic import linalg as la

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# (module, group, extension) -> eliminations in one find and in its check;
# they were 17 + 7, 21 + 7, 39 + 26 and 47 + 30 when each fact was
# certified where it was used, 12 + 6 and 15 + 6 for the first two while
# t_N eliminated A again after validation had, and 11 + 5, 14 + 5, 25 + 17
# and 31 + 20 while diagonal stability ranked each tested rho(h) over K
ROUND_TRIPS = {
    ("ss2", "c2_scalar_dim2", "ext_sqrt2_c2"): (10, 4),
    ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"): (13, 4),
    ("ordinary_torus", "trivial_group_dim3", "ext_trivial"): (25, 17),
    ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2"): (29, 19),
}


def fx(stem):
    return os.path.join(FIX, f"{stem}.json")


@pytest.fixture
def eliminations(monkeypatch):
    """A list that grows by one entry per certified elimination."""
    calls = []
    real = la.certified_row_reduce

    def counting(m, *args, **kwargs):
        calls.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(la, "certified_row_reduce", counting)
    return calls


@pytest.mark.parametrize("stem, count", [("ordinary_torus", 5), ("ss2", 2),
                                         ("ss2_q4", 2)])
def test_a_load_certifies_its_structure_once(eliminations, stem, count):
    sa, _ = formats.module_from_json(formats.load_json(fx(stem)))
    assert len(eliminations) == count
    # the facts are kept: asking again certifies nothing
    sa.toric_slope() if sa.t_dim else None
    assert sa.quotient_module() is sa.quotient_module()
    assert len(eliminations) == count


@pytest.mark.parametrize("triple", sorted(ROUND_TRIPS), ids="+".join)
def test_a_round_trip_runs_pinned_eliminations(tmp_path, capsys, eliminations,
                                               triple):
    cert = tmp_path / "cert.json"
    argv = ["filtration", "find", "--seed", "3", "--out", str(cert)]
    for flag, stem in zip(("--module", "--group", "--extension"), triple):
        argv += [flag, fx(stem)]
    assert cli.main(argv) == 0
    found = len(eliminations)
    assert cli.main(["filtration", "check", str(cert)]) == 0
    capsys.readouterr()
    assert (found, len(eliminations) - found) == ROUND_TRIPS[triple]


@pytest.mark.parametrize("toric, message", [
    # A = diag(2, 1, 2) sends e0 + e1 to 2 e0 + e1, outside the span
    ([["1"], ["1"], ["0"]], "toric part is not phi-stable"),
    # e1 is phi-stable of slope 0
    ([["0"], ["1"], ["0"]], "toric part is not pure of slope 1"),
])
def test_a_bad_toric_part_exits_2_naming_it(tmp_path, capsys, toric, message):
    doc = formats.load_json(fx("ordinary_torus"))
    doc["toric_sub"] = toric
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["slopes", "--module", str(path)]) == 2
    assert capsys.readouterr().err == f"verification failure: {message}\n"
