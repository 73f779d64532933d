"""Command-line interface: outputs, exit codes, certificates."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isofilt.cli import main
from isofilt import formats
from isofilt.errors import ValidationError
from isofilt.padic.descriptors import UnramifiedFieldDescriptor
import oracles

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


CLI_TIMEOUT = 120  # seconds; a hang fails the test instead of stalling the suite


def _run_cli(argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "isofilt.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=CLI_TIMEOUT)


_DELETE = object()


def _mutated(tmp_path, name, path, value):
    """A copy of fixture name with the entry at path set to value (deleted
    when value is _DELETE); returns the new file."""
    with open(fx(f"{name}.json")) as fh:
        doc = json.load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    out = tmp_path / f"{name}.json"
    out.write_text(json.dumps(doc))
    return str(out)


def test_minkowski(capsys):
    code, out, _ = run(capsys, "minkowski", "--n", "2")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "minkowski", "--table", "4")
    assert "M(4) = 5760" in out


def test_slopes_fixture(capsys):
    code, out, _ = run(capsys, "slopes", "--module", fx("ss2.json"))
    assert code == 0 and out.strip() == "1/2 x2"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--module", fx("ordinary_torus.json"))
    assert code == 0
    assert "slope 0: dim 1" in out and "slope 1: dim 2" in out


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", "--local", "1:2,0:3")
    assert code == 0 and "d_upper = 6" in out and "d_dep_upper = 12" in out


def test_wreath_demo(capsys):
    code, out, _ = run(capsys, "wreath-demo", "--g", "1")
    assert code == 0 and "2^3 = 8" in out


def test_group_check(capsys):
    code, out, _ = run(capsys, "group", "check", "--group",
                       fx("c2_scalar_dim2.json"), "--module", fx("ss2.json"))
    assert code == 0 and "validates" in out


def test_descend(capsys):
    code, out, _ = run(capsys, "descend", "--module", fx("ss2.json"),
                       "--group", fx("c2_scalar_dim2.json"),
                       "--extension", fx("ext_sqrt2_c2.json"),
                       "--precision", "32")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["invariant_basis"][0]) == 2


def test_descend_rejects_an_action_that_breaks_the_table(tmp_path, capsys):
    # m = 2I is invertible, so the loader takes it, but m*m = 4I is not the
    # identity the table asks for
    group = _mutated(tmp_path, "c2_scalar_dim2", ("rep", "m"),
                     [["2", "0"], ["0", "2"]])
    code, out, err = run(capsys, "descend", "--module", fx("ss2.json"),
                         "--group", group, "--extension", fx("ext_sqrt2_c2.json"),
                         "--precision", "32")
    assert code == 2 and out == ""
    assert "breaks the table at (m, m)" in err


def test_the_parser_is_built_once(capsys, monkeypatch):
    import isofilt.cli as cli
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for _ in range(3):
        code, out, _ = run(capsys, "minkowski", "--n", "2")
        assert code == 0 and out.strip() == "24"
    with pytest.raises(SystemExit) as exc:
        main(["slopes"])
    assert exc.value.code == 64
    code, out, _ = run(capsys, "degree", "--local", "1:2,0:3")
    assert code == 0 and "d_upper = 6" in out
    assert built == [1]


def test_usage_error_exit_64():
    with pytest.raises(SystemExit) as exc:
        main(["slopes"])  # missing --module
    assert exc.value.code == 64


_SS2_PROBLEM = ["--module", fx("ss2.json"), "--group", fx("c2_scalar_dim2.json"),
                "--extension", fx("ext_sqrt2_c2.json")]


@pytest.mark.parametrize("argv", [["minkowski", "--n", "-3"],
                                  ["wreath-demo", "--g", "0"],
                                  ["degree", "--local", "1:x"],
                                  ["minkowski", "--table", "-3"],
                                  ["filtration", "find", *_SS2_PROBLEM,
                                   "--seed", "1", "--budget", "0"],
                                  ["filtration", "find", *_SS2_PROBLEM,
                                   "--seed", "1", "--budget", "-3"],
                                  ["filtration", "find", *_SS2_PROBLEM,
                                   "--seed", "1", "--precision", "0"],
                                  ["slopes", "--module", fx("ss2.json"),
                                   "--precision", "0"],
                                  ["slopes", "--module", fx("ss2.json"),
                                   "--precision", "-5"],
                                  ["decompose", "--module", fx("ss2.json"),
                                   "--precision", "0"],
                                  ["descend", *_SS2_PROBLEM, "--precision", "0"],
                                  ["group", "check", "--group",
                                   fx("c2_scalar_dim2.json"), "--module",
                                   fx("ss2.json"), "--precision", "0"]])
def test_bad_values_exit_64_without_traceback(argv):
    proc = _run_cli(argv)
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr
    assert "error: argument" in proc.stderr


@pytest.mark.parametrize("where,value", [(("field", "p"), 4),
                                         (("field", "p"), "x"),
                                         (("field", "f"), 0),
                                         (("field", "precision"), 0),
                                         (("field", "p"), float("inf")),
                                         (("field", "modulus"), ["x"]),
                                         (("frobenius", 0, 1), "x"),
                                         (("frobenius", 0, 1), "1/0"),
                                         (("frobenius", 0, 1), None),
                                         (("frobenius", 0, 1), {"v": "1"}),
                                         (("frobenius", 0, 1), float("inf")),
                                         (("frobenius",), 5),
                                         (("frobenius",), None),
                                         (("frobenius",), [["0", "0"], ["1", "0"]]),
                                         (("polarization",), [["0", "0"], ["0", "0"]])])
def test_malformed_module_exits_2_without_traceback(tmp_path, where, value):
    proc = _run_cli(["slopes", "--module", _mutated(tmp_path, "ss2", where, value)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("modulus", [[5, 2, 1, 7],               # not monic
                                     [0, 1, 1], [1, 0, 1], [2, 1, 1],  # reducible mod 2
                                     [3, 1, 1], [1, 3, 1],   # z^4 != z mod 2^N
                                     [1, 1], [1, 1, 1, 1]])  # degree != f = 2
def test_bad_modulus_exits_2_without_traceback(tmp_path, modulus):
    proc = _run_cli(["slopes", "--module",
                     _mutated(tmp_path, "ss2_q4", ("field", "modulus"), modulus)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "field: modulus" in proc.stderr


def test_find_check_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "filtration", "find",
                       "--module", fx("ss2.json"),
                       "--group", fx("c2_scalar_dim2.json"),
                       "--extension", fx("ext_sqrt2_c2.json"),
                       "--seed", "9", "--mode", "sampled", "--budget", "50",
                       "--precision", "32", "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "filtration", "check", str(cert))
    assert code == 0 and "verifies" in out


def test_check_resamples_the_family_find_recorded(tmp_path, capsys,
                                                  monkeypatch):
    # --budget bounds the Lagrangian search only: find samples admissibility
    # with its own budget, and check must rebuild that same family; both
    # reach is_admissible through admissible.filtration_report
    import isofilt.filtration.admissible as admissible
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "filtration", "find",
                     "--module", fx("ordinary_torus.json"),
                     "--group", fx("trivial_group_dim3.json"),
                     "--extension", fx("ext_trivial.json"),
                     "--seed", "9", "--mode", "sampled", "--budget", "5",
                     "--out", str(cert))
    assert code == 0
    adm = json.load(open(cert))["outputs"]["admissibility"]
    assert adm["mode"] == "sampled"
    reports = []
    is_admissible = admissible.is_admissible

    def spy(*args, **kwargs):
        reports.append(is_admissible(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(admissible, "is_admissible", spy)
    code, out, _ = run(capsys, "filtration", "check", str(cert))
    assert code == 0 and "verifies" in out
    assert [r.samples for r in reports] == [adm["samples"]]


def test_check_detects_tamper(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "filtration", "find", "--module", fx("ss2.json"),
        "--group", fx("c2_scalar_dim2.json"),
        "--extension", fx("ext_sqrt2_c2.json"),
        "--seed", "9", "--mode", "sampled", "--budget", "50",
        "--precision", "32", "--out", str(cert))
    doc = json.load(open(cert))
    # replace the filtration with the line through e1 + sqrt(2) e2, which is
    # Lagrangian and admissible but not Galois-stable
    doc["outputs"]["filtration"] = [
        [{"v": "0", "unit": [1, 0], "relpi": 64}],
        [{"v": "1/2", "unit": [1, 0], "relpi": 64}],
    ]
    tampered = tmp_path / "tampered.json"
    json.dump(doc, open(tampered, "w"))
    code, out, err = run(capsys, "filtration", "check", str(tampered))
    assert code == 2 and "tampered" in err
    # recompute the digest so only property re-verification can catch it
    body = {k: v for k, v in doc.items() if k not in ("timestamp", "digest")}
    doc["digest"] = formats.digest(body)
    json.dump(doc, open(tampered, "w"))
    code, out, err = run(capsys, "filtration", "check", str(tampered))
    assert code == 2
    assert "stability" in err or "descent" in err


def test_find_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        run(capsys, "filtration", "find", "--module", fx("ss2.json"),
            "--group", fx("c2_scalar_dim2.json"),
            "--extension", fx("ext_sqrt2_c2.json"),
            "--seed", "11", "--mode", "sampled", "--budget", "50",
            "--precision", "32", "--out", str(path))
        doc = json.load(open(path))
        doc.pop("timestamp", None)
        outs.append(formats.canonical_json(doc))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name,path,value", [
    ("ext_sqrt2_c2", ("eisenstein", "coeffs"), "x"),
    ("ext_sqrt2_c2", ("eisenstein", "coeffs"), [-2, "y", 1]),
    ("ext_sqrt2_c2", ("eisenstein", "coeffs"), _DELETE),
    ("ext_sqrt2_c2", ("eisenstein", "coeffs"), [-3, 0, 1]),   # not Eisenstein
    ("ext_sqrt2_c2", ("eisenstein", "automorphisms", "s", 1), "z"),
    ("c2_scalar_dim2", ("rep", "m"), [["1", "0", "0"], ["0", "1", "0"],
                                      ["0", "0", "1"]]),
    ("c2_scalar_dim2", ("elements",), ["e", "x"]),            # no element m
    ("c2_scalar_dim2", ("rep", "m"), [["0", "0"], ["0", "0"]]),
    ("c2_scalar_dim2", ("table",), [[0, 1.9], [1, 0.2]]),     # truncated to C2
    ("c2_scalar_dim2", ("table",), [[0, True], [True, 0]]),
], ids=["coeffs-x", "coeffs-y", "coeffs-missing", "not-eisenstein",
        "automorphism-z", "rep-3x3", "rep-unknown-name", "rep-singular",
        "table-float", "table-bool"])
def test_malformed_extension_or_group_exits_2_without_traceback(
        tmp_path, name, path, value):
    files = {"ext": fx("ext_sqrt2_c2.json"), "group": fx("c2_scalar_dim2.json")}
    files["ext" if name.startswith("ext") else "group"] = _mutated(
        tmp_path, name, path, value)
    proc = _run_cli(["filtration", "find", "--module", fx("ss2.json"),
                     "--group", files["group"], "--extension", files["ext"],
                     "--seed", "1", "--precision", "32"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    if path == ("table",):
        assert "table entry [0][1]" in proc.stderr
        proc = _run_cli(["group", "check", "--module", fx("ss2.json"),
                         "--group", files["group"]])
        assert proc.returncode == 2 and "table entry [0][1]" in proc.stderr


@pytest.mark.parametrize("entry", [None, {"v": "0", "unit": [2], "relpi": 32}],
                         ids=["q4-units-over-q2", "zero-residue"])
def test_a_malformed_unit_is_named_not_tested(tmp_path, entry):
    # c4_k_dim2 writes its units over Q_4, two coordinates each; over the
    # Q_2 module ss2 they are bad entries, not a representation that
    # breaks the table
    group = (fx("c4_k_dim2.json") if entry is None else
             _mutated(tmp_path, "c2_scalar_dim2", ("rep", "m"),
                      [[entry, "0"], ["0", "-1"]]))
    proc = _run_cli(["group", "check", "--module", fx("ss2.json"),
                     "--group", group])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "bad scalar entry" in proc.stderr
    assert "not a unit of a ring of dimension 1" in proc.stderr


@pytest.mark.parametrize("relpi", [0, -3, 3.5])
@pytest.mark.parametrize("command", ["slopes", "find"])
def test_a_digit_entry_below_the_floor_exits_2(tmp_path, capsys, relpi, command):
    # no precision can certify an entry with fewer digits than the level's
    # floor, and a fractional digit count is no count: the loader names it
    module = _mutated(tmp_path, "ss2", ("frobenius", 0, 1),
                      {"v": "0", "unit": [1], "relpi": relpi})
    argv = {"slopes": ["slopes", "--module", module],
            "find": ["filtration", "find", "--module", module,
                     "--group", fx("c2_scalar_dim2.json"),
                     "--extension", fx("ext_sqrt2_c2.json"), "--seed", "1"]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "bad scalar entry" in err and "relpi must be an integer >= 1" in err


def test_check_rejects_a_filtration_entry_below_the_floor(tmp_path, capsys,
                                                          ss2_certificate):
    doc = json.loads(ss2_certificate)
    doc["outputs"]["filtration"][0][0]["relpi"] = 0
    doc["digest"] = formats.certificate_digest(doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "filtration", "check", str(cert))
    assert code == 2
    assert "relpi must be an integer >= 1" in err


@pytest.mark.parametrize("table,failure", [
    ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], "table row b is not a permutation"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], "table row b has an entry out of range"),
    ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], "table column e is not a permutation"),
    ([[(a - b) % 3 for b in range(3)] for a in range(3)],
     "the table is not associative at (e, e, a)"),
    ([[0, 1], [1, 0]], "the table is not 3 x 3"),
], ids=["row", "range", "column", "associativity", "shape"])
@pytest.mark.parametrize("command", ["group-check", "find", "descend"])
def test_a_table_that_is_not_a_group_exits_2(tmp_path, table, failure, command):
    # the first table has an identity and right inverses, so only the table
    # check stops it: the powers of a never return to e, and computing the
    # group's exponent would not end
    ident = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"elements": ["e", "a", "b"], "table": table,
                                 "rep": {x: ident for x in "eab"},
                                 "faithful": False}))
    ext = _mutated(tmp_path, "ext_trivial", ("correspondence",),
                   {"e": "1", "a": "1", "b": "1"})
    module = fx("ordinary_torus.json")
    argv = {"group-check": ["group", "check", "--module", module],
            "find": ["filtration", "find", "--module", module,
                     "--extension", ext, "--seed", "1"],
            "descend": ["descend", "--module", module, "--extension", ext]}[command]
    proc = _run_cli(argv + ["--group", str(group)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert failure in proc.stderr


@pytest.mark.parametrize("name,path,value", [
    ("ordinary_torus", ("polarization",), [["0", "1"], ["-1"]]),   # ragged
    ("ss2", ("polarization",), [["0", "1"], ["-1", "0"], ["0", "0"]]),
    ("ordinary_torus", ("polarization",), [["0", "1", "0"], ["-1", "0", "0"],
                                           ["0", "0", "0"]]),   # n x n, not (n-t)^2
    ("ordinary_torus", ("toric_sub",), [["1"], ["0"]]),
], ids=["ragged-polarization", "polarization-3x2", "polarization-ignores-t",
        "toric-sub-2x1"])
def test_misshapen_module_exits_2_without_traceback(tmp_path, name, path, value):
    proc = _run_cli(["decompose", "--module",
                     _mutated(tmp_path, name, path, value)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


# -- singular input matrices ----------------------------------------------------

# JSON entries as the loader meets them: integers, "a" and "a/b" strings,
# decimal strings and floats, and strings that Fraction reads or rejects
_ENTRIES = st.one_of(
    st.integers(-40, 40),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-40, 40), st.integers(0, 12)),
    st.builds(str, st.integers(-10 ** 30, 10 ** 30)),
    st.sampled_from(["1.5", "-0.25", "2e1", " 3 ", "1_0", "+4", ".5", "x",
                     "3 / 4", "nan", "1/-2"]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.text(alphabet="0123456789+-/._e ", max_size=5))


@st.composite
def _rational_docs(draw):
    """Square matrices of entries, a drawn row often replaced by a rational
    combination of the others (a singular matrix); now and then a ragged or
    non-square one."""
    n = draw(st.integers(0, 5))
    doc = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows = [[Fraction(x) for x in row] for row in
                ([[draw(st.integers(-9, 9)) for _ in range(n)]
                  for _ in range(n)])]
        k = draw(st.integers(0, n - 1))
        coeffs = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
                  for _ in range(n)]
        rows[k] = [sum(c * row[j] for i, (c, row) in enumerate(zip(coeffs, rows))
                       if i != k) for j in range(n)]
        doc = [[str(x) for x in row] for row in rows]
    if n and draw(st.integers(0, 9)) == 0:
        doc[0] = doc[0][:-1]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_rational_docs())
def test_singularity_matches_the_fraction_reference(doc):
    assert formats._rational_and_singular(doc) == \
        oracles.rational_and_singular(doc)


@settings(max_examples=300, deadline=None)
@given(x=_ENTRIES)
def test_entries_read_as_fraction_reads_them(x):
    try:
        want = Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            formats._integer_pair(x)
        return
    num, den = formats._integer_pair(x)
    assert den > 0 and Fraction(num, den) == want


@settings(max_examples=300, deadline=None)
@given(x=_ENTRIES)
def test_a_rational_entry_is_the_scalar_of_its_fraction(x):
    # scalar_from_json reads a number through _integer_pair, an integer
    # without a Fraction: the Scalar (or the error) is Fraction(x)'s
    field = UnramifiedFieldDescriptor.create(2, 1, 32)

    def entry(read):
        try:
            y = read()
        except (ValidationError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            return repr(exc.__cause__ or exc)
        return y.kind, y.w, y.unit, y.relpi, y.zw

    assert entry(lambda: formats.scalar_from_json(field, x)) == \
        entry(lambda: field.scalar(Fraction(x)))


def _fraction_reading(field, doc):
    """A digit entry read with Fraction valuations, as scalar_from_json read
    it before it took them as integer pi-exponents."""
    import math
    from isofilt.padic import scalar as sc
    try:
        if "izero" in doc:
            return sc.sc_izero(field, math.ceil(Fraction(doc["izero"]) * field.e))
        w = Fraction(doc["v"]) * field.e
        if w.denominator != 1:
            raise ValidationError(f"valuation {doc['v']} is not in (1/{field.e})Z")
        unit = tuple(int(c) % field.ring.pn for c in doc["unit"])
        return sc.Scalar(field, sc.REG, w=int(w), unit=unit,
                         relpi=min(doc["relpi"], field.relpi_max))
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad scalar entry {doc!r}: {exc!r}") from exc


def _digit_levels():
    from isofilt.padic.descriptors import EisensteinExtensionDescriptor
    q2 = UnramifiedFieldDescriptor.create(2, 1, 32)
    return [q2] + [EisensteinExtensionDescriptor(q2, (-2,) + (0,) * (e - 1) + (1,),
                                                 validate=False)
                   for e in (2, 3, 4)]


@settings(max_examples=300, deadline=None)
@given(x=_ENTRIES, izero=st.booleans(), level=st.sampled_from(_digit_levels()))
def test_digit_valuations_read_as_fraction_reads_them(x, izero, level):
    # v and izero are read as integers (a e / d), with the Fraction
    # reading's results and messages: "not in (1/e)Z", and a rounded-up
    # off-lattice izero bound
    doc = ({"izero": x} if izero else
           {"v": x, "unit": [1] + [0] * (level.ring.dim - 1), "relpi": 8})

    def entry(read):
        try:
            y = read()
        except ValidationError as exc:
            return str(exc)
        return y.kind, y.w, y.unit, y.relpi, y.zw

    assert entry(lambda: formats.scalar_from_json(level, doc)) == \
        entry(lambda: _fraction_reading(level, doc))


@settings(max_examples=300, deadline=None)
@given(w=st.integers(-10 ** 6, 10 ** 6), level=st.sampled_from(_digit_levels()))
def test_digit_valuations_write_as_fraction_writes_them(w, level):
    from isofilt.padic import scalar as sc
    reg = sc.Scalar(level, sc.REG, w=w, unit=level.ring.one(), relpi=8)
    assert formats.scalar_to_json(reg)["v"] == str(Fraction(w, level.e))
    assert formats.scalar_to_json(sc.sc_izero(level, w)) == \
        {"izero": str(Fraction(w, level.e))}


def test_check_rejects_a_zero_generator(tmp_path, capsys):
    # a certificate whose group matrix m is zero, resealed with a correct
    # digest: the group loader rejects the singular matrix and names it.  An
    # invertible m that moves F (the swap of e1 and e2) gets past the loader
    # and respects the table, but check validates the action before any
    # verdict, and the swap does not commute with the Frobenius
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "filtration", "find", "--module", fx("ss2.json"),
                     "--group", fx("c2_scalar_dim2.json"),
                     "--extension", fx("ext_sqrt2_c2.json"), "--seed", "9",
                     "--precision", "32", "--out", str(cert))
    assert code == 0
    found = cert.read_text()
    for m, named in (([["0", "0"], ["0", "0"]], ["rep matrix 'm' is singular"]),
                     ([["0", "1"], ["1", "0"]], ["element m does not phi-commute"])):
        doc = json.loads(found)
        doc["inputs"]["group"]["rep"]["m"] = m
        doc["digest"] = formats.certificate_digest(doc)
        cert.write_text(json.dumps(doc))
        code, _, err = run(capsys, "filtration", "check", str(cert))
        assert code == 2
        assert all(text in err for text in named), err


def test_check_rejects_an_action_that_breaks_the_table(tmp_path, capsys):
    # m = 3 I commutes with everything and moves no subspace, so every
    # verdict on F would pass; check validates the action first, and
    # (3 I)(3 I) = 9 I is not rho(m m) = rho(e) = I
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "filtration", "find", "--module", fx("ss2.json"),
                     "--group", fx("c2_scalar_dim2.json"),
                     "--extension", fx("ext_sqrt2_c2.json"), "--seed", "1",
                     "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    doc["inputs"]["group"]["rep"]["m"] = [["3", "0"], ["0", "3"]]
    doc["digest"] = formats.certificate_digest(doc)
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "filtration", "check", str(cert))
    assert code == 2
    assert "representation breaks the table at (m, m)" in err, err


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _extra_row(doc):
    rows = doc["outputs"]["filtration"]
    rows.append(list(rows[0]))


@pytest.fixture(scope="module")
def ss2_certificate(tmp_path_factory):
    cert = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["filtration", "find", "--module", fx("ss2.json"),
                 "--group", fx("c2_scalar_dim2.json"),
                 "--extension", fx("ext_sqrt2_c2.json"), "--seed", "9",
                 "--precision", "32", "--out", str(cert)]) == 0
    return cert.read_text()


def test_check_verifies_the_quotient_is_lagrangian(tmp_path, capsys):
    # with a toric part, F is Lagrangian when F_B = F/T is Lagrangian in D_B;
    # F = D contains T, so only that check and admissibility can refuse it
    cert = tmp_path / "cert.json"
    assert main(["filtration", "find", "--module", fx("ordinary_torus.json"),
                 "--group", fx("trivial_group_dim3.json"),
                 "--extension", fx("ext_trivial.json"), "--seed", "3",
                 "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    doc["outputs"]["filtration"] = [["1", "0", "0"], ["0", "1", "0"],
                                    ["0", "0", "1"]]
    doc["digest"] = formats.certificate_digest(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    code, _, err = run(capsys, "filtration", "check", str(cert))
    assert code == 2
    assert err.strip() == "verification failure: admissible, lagrangian"


@pytest.mark.parametrize("edit, field", [
    (_extra_row, "outputs.filtration"),
    (_drop("outputs", "filtration"), "outputs.filtration"),
    (_drop("outputs", "admissibility"), "outputs.admissibility"),
    (_drop("params", "seed"), "params.seed"),
    (_drop("params", "budget"), "params.budget"),
    (_drop("inputs", "group"), "inputs.group"),
    (_drop("inputs"), "inputs"),
    (_set("bogus", "params", "mode"), "params.mode"),
    (_drop("params", "mode"), "params.mode"),
    (_set(0, "params", "precision"), "precision 0"),
], ids=["extra-row", "no-filtration", "no-admissibility", "no-seed",
        "no-budget", "no-group", "no-inputs", "bogus-mode", "no-mode",
        "zero-precision"])
def test_check_rejects_a_malformed_body(tmp_path, capsys, ss2_certificate,
                                        edit, field):
    # each body is resealed with a correct digest, so only validating the
    # body can reject it; the message names the field
    doc = json.loads(ss2_certificate)
    edit(doc)
    doc["digest"] = formats.certificate_digest(doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "filtration", "check", str(cert))
    assert code == 2
    assert field in err


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(min_value=-10 ** 40)
                | st.floats() | st.text())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)
                  | st.dictionaries(st.integers(-3, 3), kids, max_size=3)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_TREES)
def test_the_certificate_writer_is_json_dumps(doc):
    # nested empty containers, non-ASCII and escaped strings, bools, None,
    # large negative ints; floats, tuples and int keys take the fallback
    assert formats.indented_json(doc) == json.dumps(doc, sort_keys=True, indent=1)


@settings(max_examples=100, deadline=None)
@given(inputs=st.dictionaries(
           st.text(max_size=4),
           _JSON_TREES | st.dictionaries(st.sampled_from(["timestamp", "a", "\u00e9"]),
                                         _JSON_TREES, max_size=3),
           max_size=3),
       outputs=_JSON_TREES)
def test_a_composed_digest_is_the_digest_of_the_body(inputs, outputs):
    # the digest build_certificate writes is the one check recomputes, an
    # input's own timestamp included
    cert = formats.build_certificate(inputs, {"seed": 1}, outputs,
                                     timestamp="t")
    assert cert["digest"] == formats.certificate_digest(cert)


def test_find_writes_json_dumps_text(ss2_certificate):
    doc = json.loads(ss2_certificate)
    assert ss2_certificate == json.dumps(doc, sort_keys=True, indent=1) + "\n"
