"""Tamper census of `filtration check`: every leaf it is given is read.

One certificate is taken per fixture triple and per mode (eight in all,
seed 1).  Every leaf at the top level and under `params`,
`outputs.filtration` and `outputs.admissibility` is edited on its own,
keeping its type, and one unknown key is added to each dict there and to
`inputs` and `outputs`; each edit is resealed with a correct digest, so
only re-verification can refuse it.  An edit must exit 2 naming the
property or the field that fails, unless ``REASONS`` exempts it, and an
exempt edit must exit 0, so that the list stays current.

The edits: a bool is negated, an int raised by 1 (a relpi is lowered by 1
instead), null becomes 1, a valuation `v` rises by 1/e (the smallest step
on L), the first unit digit rises by 1, a verdict or mode is swapped, any
other rational string rises by 1 and any other string gains a character.
A sampled ledger has a hundred entries or more; its entries are edited at
the first two and the last two, since check compares the report whole.

Not edited: `inputs`, because check decides the problem that the
certificate states, and `outputs.pieces`, the per-piece reports, which
check does not read (ROADMAP item 2 gives them a proof tree).

The probes at the end are single-leaf edits of an `ss2_q4` + C4
certificate that all verified while the format carried leaves that check
never read (v1): the deleted leaves, re-added, are now unknown keys, and a
ledger or mode edit fails admissibility.
"""

import copy
import json
import os
import re
from fractions import Fraction

import pytest

from isofilt import cli, formats
from isofilt.errors import ValidationError
from isofilt.padic import linalg as la

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
TRIPLES = [("ss2", "c2_scalar_dim2", "ext_sqrt2_c2"),
           ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"),
           ("ordinary_torus", "trivial_group_dim3", "ext_trivial"),
           ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2")]
FLAGS = {"exact": [],
         "sampled": ["--mode", "sampled", "--budget", "50", "--precision", "32"]}

# the edits that check accepts, each with its reason
REASONS = {
    "timestamp": "outside the digest: when a certificate was written is not "
                 "part of what it certifies",
    "params.budget": "bounds only find's search for F; check searches nothing",
    "params.precision": "check certifies at the precision the certificate "
                        "names, and F has the digits for one more",
    "params.seed": "nothing is drawn: the report is exact, or D has no "
                   "proper submodule to sample",
    "relpi": "a lowered relpi is the same F with fewer digits",
    "same F": "the edited matrix has the same column space: the same F in "
              "another basis",
    "another F": "with L = K and the trivial group, every F that contains T "
                 "and whose image misses both slope lines of D_B is a valid "
                 "filtration, and check decides the F the certificate states",
}
# the edits of F that give another valid filtration, by problem
ANOTHER_F = {
    ("ordinary_torus", "trivial_group_dim3"): {"outputs.filtration.1.1.v",
                                               "outputs.filtration.2.1.v"},
}
SWAP = {"admissible": "inadmissible", "exact": "sampled", "sampled": "exact",
        "extension": "exact"}
PROPERTIES = {"admissible", "lagrangian", "diagonal-stability",
              "descent-targets", "cocycle", "graded-toric"}
NAMED_FIELD = re.compile(r"unknown certificate schema|certificate field \S+ "
                         r"|certificate lacks the field ")


def _find(tmp_path, triple, mode):
    cert = tmp_path / f"{triple[1]}-{mode}.json"
    argv = ["filtration", "find", "--seed", "1", *FLAGS[mode], "--out", str(cert)]
    for flag, stem in zip(("--module", "--group", "--extension"), triple):
        argv += [flag, os.path.join(FIX, f"{stem}.json")]
    assert cli.main(argv) == 0
    return json.loads(cert.read_text())


def _check(tmp_path, capsys, doc):
    doc["digest"] = formats.certificate_digest(doc)
    cert = tmp_path / "edited.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["filtration", "check", str(cert)])
    return code, capsys.readouterr().err.strip()


def _named(err):
    """Whether a failure message names a field or only known properties."""
    text = err.removeprefix("verification failure: ")
    return (text != err and NAMED_FIELD.match(text) is not None
            or set(text.split(", ")) <= PROPERTIES)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _indices(x, path):
    """The entries of the list x at path that the census visits."""
    if path[-1] == "ledger" and len(x) > 4:
        return (0, 1, len(x) - 2, len(x) - 1)
    return range(len(x))


def _leaves(x, path):
    """Paths of the leaves of x below path; a digit entry gives its v, its
    first unit digit and its relpi."""
    if isinstance(x, dict):
        if "unit" in x:
            yield from (path + ("v",), path + ("unit", 0), path + ("relpi",))
            return
        for key in sorted(x):
            yield from _leaves(x[key], path + (key,))
    elif isinstance(x, list):
        for i in _indices(x, path):
            yield from _leaves(x[i], path + (i,))
    else:
        yield path


def _dicts(x, path):
    """Paths of the dicts in x, x included."""
    if isinstance(x, dict):
        yield path
        for key in sorted(x):
            yield from _dicts(x[key], path + (key,))
    elif isinstance(x, list):
        for i in _indices(x, path):
            yield from _dicts(x[i], path + (i,))


def _edit(x, key, e):
    if key == "relpi":
        return x - 1
    if key == "v":
        return str(Fraction(x) + Fraction(1, e))
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    if x is None:
        return 1
    if x in SWAP:
        return SWAP[x]
    try:
        return str(Fraction(x) + 1)
    except ValueError:
        return x + "x"


def _edits(doc, e):
    """(name, edited copy) for every census edit of doc."""
    paths = [(key,) for key in sorted(doc)
             if key not in ("inputs", "params", "outputs", "digest")]
    paths += _leaves(doc["params"], ("params",))
    for key in ("filtration", "admissibility"):
        paths += _leaves(doc["outputs"][key], ("outputs", key))
    for path in paths:
        edited = copy.deepcopy(doc)
        _get(edited, path[:-1])[path[-1]] = _edit(_get(doc, path), path[-1], e)
        yield ".".join(map(str, path)), edited
    dicts = [(), ("inputs",), ("params",), ("outputs",)]
    for key in ("filtration", "admissibility"):
        dicts += _dicts(doc["outputs"][key], ("outputs", key))
    for path in dicts:
        edited = copy.deepcopy(doc)
        _get(edited, path)["census"] = 0
        yield ".".join(map(str, path + ("census",))), edited


def _same_column_space(doc, edited):
    prec = doc["params"]["precision"]
    ext = formats.extension_from_json(doc["inputs"]["extension"], prec)
    try:
        F, G = (formats.matrix_from_json(ext, d["outputs"]["filtration"], "F")
                for d in (doc, edited))
    except ValidationError:
        return False
    r = la.certified_rank(la.transpose(F))
    return la.certified_rank(la.transpose(la.hstack(F, G))) == r


def _draws(report):
    """Whether a report sampled a proper submodule, its own or its
    quotient's."""
    if "quotient" in report:
        return _draws(report["quotient"])
    dims = [entry["dim_N"] for entry in report["ledger"]]
    return report["mode"] == "sampled" and any(0 < d < max(dims) for d in dims)


def _reason(triple, doc, name, edited):
    """The key of REASONS that exempts an edit, or None."""
    if name in ("timestamp", "params.budget", "params.precision"):
        return name
    if name == "params.seed":
        return None if _draws(doc["outputs"]["admissibility"]) else name
    if not name.startswith("outputs.filtration.") or name.endswith(".census"):
        return None
    if name.endswith(".relpi"):
        return "relpi"
    if _same_column_space(doc, edited):
        return "same F"
    return "another F" if name in ANOTHER_F.get(triple[:2], ()) else None


@pytest.mark.parametrize("mode", sorted(FLAGS))
@pytest.mark.parametrize("triple", TRIPLES, ids="+".join)
def test_every_edit_fails_naming_what_or_is_exempt(tmp_path, capsys, triple,
                                                   mode):
    doc = _find(tmp_path, triple, mode)
    e = formats.extension_from_json(doc["inputs"]["extension"]).e
    wrong = []
    for name, edited in _edits(doc, e):
        reason = _reason(triple, doc, name, edited)
        code, err = _check(tmp_path, capsys, edited)
        if reason is None and (code != 2 or not _named(err)):
            wrong.append(f"{name}: exit {code} {err!r}")
        elif reason is not None and code != 0:
            wrong.append(f"{name}: exempt ({reason}) but exit {code} {err!r}")
    assert not wrong, "\n".join(wrong)


# -- probes --------------------------------------------------------------------


def _set(value, *path):
    def edit(doc):
        _get(doc, path[:-1])[path[-1]] = value
    return edit


PROBES = {
    # leaves of the v1 format, re-added
    "version": (_set("bogus", "version"), "certificate field version "),
    "operation": (_set("bogus", "operation"), "certificate field operation "),
    "input-digests": (_set({"module": "x"}, "input_digests"),
                      "certificate field input_digests "),
    "graded": (_set({"toric": False, "quotient": True}, "outputs", "graded"),
               "certificate field outputs.graded "),
    "stable": (_set(False, "outputs", "stable"),
               "certificate field outputs.stable "),
    "lagrangian": (_set(False, "outputs", "lagrangian"),
                   "certificate field outputs.lagrangian "),
    "cocycle": (_set(False, "outputs", "cocycle"),
                "certificate field outputs.cocycle "),
    "descent-targets": (_set(False, "outputs", "descent_targets"),
                        "certificate field outputs.descent_targets "),
    "descent-datum": (_set({}, "outputs", "descent_datum"),
                      "certificate field outputs.descent_datum "),
    "descent-datum-guaranteed": (
        _set(False, "outputs", "descent_datum_guaranteed"),
        "certificate field outputs.descent_datum_guaranteed "),
    # the report and the mode it was decided in
    "t-H": (_set(7, "outputs", "admissibility", "ledger", 1, "t_H"),
            "admissible"),
    "samples": (_set(0, "outputs", "admissibility", "samples"), "admissible"),
    "equality-at-top": (_set(False, "outputs", "admissibility",
                             "equality_at_top"), "admissible"),
    "violation-dim": (_set(1, "outputs", "admissibility", "violation_dim"),
                      "admissible"),
    "admissibility-mode": (_set("sampled", "outputs", "admissibility", "mode"),
                           "admissible"),
    "params-mode": (_set("sampled", "params", "mode"), "admissible"),
    # exempt: pieces are not read, and the budget bounds find's search only
    "pieces": (_set([], "outputs", "pieces"), None),
    "budget": (_set(1, "params", "budget"), None),
}


@pytest.fixture(scope="module")
def c4_certificate(tmp_path_factory):
    return _find(tmp_path_factory.mktemp("probe"), TRIPLES[1], "exact")


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe(tmp_path, capsys, c4_certificate, probe):
    edit, named = PROBES[probe]
    doc = copy.deepcopy(c4_certificate)
    edit(doc)
    code, err = _check(tmp_path, capsys, doc)
    if named is None:
        assert code == 0, err
    else:
        assert code == 2 and named in err, err


def test_a_v1_certificate_is_refused_with_the_schema_check_reads(
        tmp_path, capsys, c4_certificate):
    doc = copy.deepcopy(c4_certificate)
    doc["schema"] = "isofilt-filtration-certificate-v1"
    code, err = _check(tmp_path, capsys, doc)
    assert code == 2
    assert formats.CERT_SCHEMA in err and "re-run filtration find" in err
