"""JSON formats for field descriptors, modules, groups, extensions and
certificates.

Scalars serialize either as exact rational strings (inputs) or as digit data
(valuation + integer coefficient vector + known relative precision); matrix
entries in input files may be rational strings or coordinate vectors over the
unramified power basis.  Certificates embed every input document and all
parameters, so re-verification needs no flags; their digest is the sha256 of
the canonical JSON with the timestamp field removed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bounds import is_prime
from .errors import ValidationError
from .padic import scalar as sc
from .padic.descriptors import UnramifiedFieldDescriptor, EisensteinExtensionDescriptor
from .padic import linalg as la
from .isocrystal.module import PhiModule, SemiAbelianPhiModule
from .groups.core import FiniteGroup, GroupRepresentation
from .filtration.galois import GaloisSetup


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _compose(texts) -> str:
    """canonical_json of a dict from its values' canonical texts: compact
    sort_keys JSON writes the members in key order, each value as it would
    write the value alone."""
    return "{" + ",".join(f"{encode_basestring_ascii(k)}:{texts[k]}"
                          for k in sorted(texts)) + "}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(doc) -> str:
    doc = {k: v for k, v in doc.items() if k != "timestamp"} \
        if isinstance(doc, dict) else doc
    return _sha256(canonical_json(doc))


def indented_json(x, nl="\n") -> str:
    """``json.dumps(x, sort_keys=True, indent=1)``, byte for byte, with nl
    the line break and indent at x's depth.  Dicts with str keys, lists,
    str, int, bool and None are written here, any other value by json.dumps
    with its line breaks indented (a JSON string holds no raw line break)."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is None or t is bool:
        return "null" if x is None else "true" if x else "false"
    inner = nl + " "
    if t is list and x:
        return ("[" + inner + ("," + inner).join(indented_json(y, inner) for y in x)
                + nl + "]")
    if t is dict and x and all(type(k) is str for k in x):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + indented_json(x[k], inner)
            for k in sorted(x)) + nl + "}"
    return json.dumps(x, sort_keys=True, indent=1).replace("\n", nl)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# -- scalars ---------------------------------------------------------------------


def scalar_to_json(x):
    if x.kind == sc.ZERO:
        return "0"
    if x.kind == sc.IZERO:
        return {"izero": str(x.zb)}
    return {"v": str(x.val), "unit": list(x.unit), "relpi": x.relpi}


def scalar_from_json(field, doc):
    try:
        if doc == "0":
            return sc.sc_zero(field)
        if isinstance(doc, (str, int, float)):
            a, d = _integer_pair(doc)
            return field.scalar(a if d == 1 else Fraction(a, d))
        if isinstance(doc, list):
            # coordinates over the z-power basis
            if field.e != 1:
                raise ValidationError("coordinate vectors need an unramified level")
            if not doc:
                return sc.sc_zero(field)
            gen = field.gen()
            powers = [[field.one()]]
            for _ in doc[1:]:
                powers.append([sc.sc_mul(powers[-1][0], gen)])
            return la.mat_mul([[field.scalar(Fraction(str(c))) for c in doc]],
                              powers)[0][0]
        if "izero" in doc:
            # an off-lattice bound rounds up: valuations lie in (1/e)Z
            return sc.sc_izero(field, math.ceil(Fraction(doc["izero"]) * field.e))
        w = Fraction(doc["v"]) * field.e
        if w.denominator != 1:
            raise ValidationError(f"valuation {doc['v']} is not in (1/{field.e})Z")
        unit = tuple(int(c) % field.ring.pn for c in doc["unit"])
        if len(unit) != field.ring.dim or field.ring.val_pi(unit) != 0:
            raise ValidationError(f"bad scalar entry {doc!r}: not a unit of a "
                                  f"ring of dimension {field.ring.dim}")
        relpi = doc["relpi"]
        if type(relpi) is not int or relpi < field.floor_relpi:
            raise ValidationError(f"bad scalar entry {doc!r}: relpi must be an "
                                  f"integer >= {field.floor_relpi}")
        return sc.Scalar(field, sc.REG, w=int(w), unit=unit,
                         relpi=min(relpi, field.relpi_max))
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad scalar entry {doc!r}: {exc!r}") from exc


def matrix_to_json(m):
    return [[scalar_to_json(x) for x in row] for row in m]


def matrix_from_json(field, doc):
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise ValidationError(f"bad matrix {doc!r}: expected a list of rows")
    if len({len(row) for row in doc}) > 1:
        raise ValidationError(f"bad matrix {doc!r}: rows of different lengths")
    return [[scalar_from_json(field, x) for x in row] for row in doc]


def _require_shape(what, m, rows, cols):
    """m (rows of equal length) must be rows x cols."""
    got = (len(m), len(m[0]) if m else 0)
    if got != (rows, cols):
        raise ValidationError(f"{what} is {got[0]}x{got[1]}, expected "
                              f"{rows}x{cols}")


# -- descriptors -----------------------------------------------------------------


def field_from_json(doc, prec_override=None) -> UnramifiedFieldDescriptor:
    try:
        p = int(doc["p"])
        f = int(doc["f"])
        prec = int(prec_override if prec_override is not None
                   else doc.get("precision", 64))
        modulus = tuple(int(c) for c in doc.get("modulus") or ())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"field: bad or missing p, f, precision or modulus: {exc!r}") from exc
    if not is_prime(p):
        raise ValidationError(f"field: p = {p} is not prime")
    if f < 1:
        raise ValidationError(f"field: f = {f} must be at least 1")
    if prec < 1:
        raise ValidationError(f"field: precision {prec} must be at least 1")
    # a JSON modulus must be the Teichmuller presentation create() checks
    return UnramifiedFieldDescriptor.create(p, f, prec, modulus or None)


def _base_coeff(c):
    """A polynomial coefficient over the base: an integer, or a list of
    integers on its power basis."""
    if isinstance(c, int):
        return c
    if isinstance(c, list):
        return tuple(int(x) for x in c)
    raise ValueError(f"coefficient {c!r} is neither an integer nor a list")


def extension_from_json(doc, prec_override=None):
    base = field_from_json(doc, prec_override)
    eis = doc.get("eisenstein")
    if not isinstance(eis, dict) or not eis:
        raise ValidationError("extension document lacks an 'eisenstein' entry")
    try:
        coeffs = tuple(_base_coeff(c) for c in eis["coeffs"])
        auts = {name: [_base_coeff(c) for c in poly]
                for name, poly in eis.get("automorphisms", {}).items()}
        return EisensteinExtensionDescriptor.create(base, coeffs, auts)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ValidationError(f"extension: bad Eisenstein coefficients or "
                              f"automorphisms: {exc!r}") from exc


# -- modules ---------------------------------------------------------------------


def module_from_json(doc, prec_override=None):
    """Returns (SemiAbelianPhiModule, field).  Plain abelian and bare modules
    are wrapped with an empty toric part."""
    field = field_from_json(doc.get("field"), prec_override)
    if _rational_and_singular(doc.get("frobenius")):
        raise ValidationError("frobenius: the matrix is singular")
    A = matrix_from_json(field, doc.get("frobenius"))
    D = PhiModule(field, A)
    n = D.n
    toric = doc.get("toric_sub")
    pol = doc.get("polarization")
    if _rational_and_singular(pol):
        raise ValidationError("polarization: the matrix is singular")
    toric_cols = (matrix_from_json(field, toric) if toric
                  else [[] for _ in range(n)])
    t = len(toric_cols[0]) if toric_cols else 0
    _require_shape("toric_sub", toric_cols, n, t)
    gram = matrix_from_json(field, pol) if pol else []
    if pol:
        _require_shape("polarization", gram, n - t, n - t)
    sa = SemiAbelianPhiModule(D, toric_cols, gram,
                              validate=bool(toric) or bool(pol))
    return sa, field


def _rational_and_singular(doc) -> bool:
    """True when doc is a square rational matrix of determinant zero (rows
    cleared of denominators, Bareiss elimination over Z); False for anything
    else, which the p-adic path validates (and certifies invertible)."""
    if not isinstance(doc, list) or not all(
            isinstance(row, list) and len(row) == len(doc)
            and all(isinstance(x, (str, int, float)) for x in row)
            for row in doc):
        return False
    try:
        pairs = [[_integer_pair(x) for x in row] for row in doc]
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    m = []
    for row in pairs:
        lcm = math.lcm(*(d for _, d in row))
        m.append([a * (lcm // d) for a, d in row])
    prev = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return True
        m[c], m[pivot] = m[pivot], m[c]
        top, piv = m[c], m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c]
            m[r] = [(piv * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = piv
    return False


_INTEGER_RATIO = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)


def _integer_pair(x):
    """(numerator, denominator > 0) of x, or Fraction(x)'s error: int reads
    an int, "a" or "a/b", Fraction the rest (floats, decimals, b = 0)."""
    if isinstance(x, int):
        return int(x), 1
    match = _INTEGER_RATIO.fullmatch(x) if isinstance(x, str) else None
    if match and int(match[2] or 1):
        return int(match[1]), int(match[2] or 1)
    q = Fraction(x)
    return q.numerator, q.denominator


def module_to_json(sa: SemiAbelianPhiModule) -> dict:
    doc = {"field": sa.module.field.serialize(),
           "frobenius": matrix_to_json(sa.module.A)}
    if sa.t_dim:
        doc["toric_sub"] = matrix_to_json(sa.toric_cols)
    if sa.gram_B:
        doc["polarization"] = matrix_to_json(sa.gram_B)
    return doc


# -- groups ----------------------------------------------------------------------


def group_from_json(doc, field, dim):
    """(group, representation) of a group document whose matrices act on a
    module of dimension dim over field."""
    try:
        names = list(doc["elements"])
        table = [list(row) for row in doc["table"]]
        rep_doc = dict(doc.get("rep", {}))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"group: bad or missing elements, table or rep: "
                              f"{exc!r}") from exc
    for a, row in enumerate(table):
        for b, x in enumerate(row):
            # a JSON integer only: int() would truncate 1.9, and a bool is
            # an int to Python but not to JSON
            if type(x) is not int:
                raise ValidationError(f"group: table entry [{a}][{b}] is "
                                      f"{json.dumps(x)}, not an integer")
    _require_group_table(names, table)
    G = FiniteGroup(names, table)
    unknown = [name for name in rep_doc if name not in G.names]
    if unknown:
        raise ValidationError(f"group: rep names elements {unknown} that are "
                              f"not in the element list")
    mats = {}
    for name, m in rep_doc.items():
        if _rational_and_singular(m):
            raise ValidationError(f"group: rep matrix {name!r} is singular")
        mats[name] = matrix_from_json(field, m)
        _require_shape(f"group: rep matrix {name!r}", mats[name], dim, dim)
    faithful = bool(doc.get("faithful", True))
    if doc.get("generators_only"):
        rep = GroupRepresentation.from_generator_matrices(G, field, mats,
                                                          faithful)
    else:
        rep = GroupRepresentation.from_named(G, field, mats, faithful)
    return G, rep


def _require_group_table(names, table):
    """Reject a table that is not the Cayley table of a group on names: it
    must be n x n with entries in range, every row and column a permutation
    (a Latin square), and associative.  An associative Latin square is a
    group, so FiniteGroup then finds its identity and inverses."""
    n = len(names)
    if len(table) != n or any(len(row) != n for row in table):
        raise ValidationError(f"group: the table is not {n} x {n}")
    everything = set(range(n))
    for a, row in enumerate(table):
        if any(not 0 <= x < n for x in row):
            raise ValidationError(f"group: table row {names[a]} has an entry "
                                  f"out of range")
        if set(row) != everything:
            raise ValidationError(f"group: table row {names[a]} is not a "
                                  f"permutation")
    for b in range(n):
        if {row[b] for row in table} != everything:
            raise ValidationError(f"group: table column {names[b]} is not a "
                                  f"permutation")
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            # (ab)c == a(bc) for every c, as one row comparison
            if table[ab] != [row[bc] for bc in table[b]]:
                c = next(c for c in range(n) if table[ab][c] != row[table[b][c]])
                raise ValidationError(f"group: the table is not associative at "
                                      f"({names[a]}, {names[b]}, {names[c]})")


def group_to_json(rep: GroupRepresentation, faithful=True) -> dict:
    G = rep.group
    return {"elements": list(G.names),
            "table": [list(r) for r in G.table],
            "faithful": faithful,
            "rep": {G.names[x]: matrix_to_json(rep.mats[x])
                    for x in range(G.n)}}


def setup_from_json(ext_doc, group: FiniteGroup, ext) -> GaloisSetup:
    corr = ext_doc.get("correspondence")
    if not corr:
        raise ValidationError("extension document lacks a 'correspondence'")
    return GaloisSetup(group, ext, dict(corr))


# -- certificates ----------------------------------------------------------------


CERT_SCHEMA = "isofilt-filtration-certificate-v1"


def build_certificate(operation, inputs, params, outputs, timestamp=None):
    # each input is serialized once: its canonical text gives its digest and
    # is its member of the body's canonical text
    texts = {k: canonical_json(v) for k, v in inputs.items()}
    doc = {
        "schema": CERT_SCHEMA,
        "operation": operation,
        "version": 1,
        "inputs": inputs,
        "input_digests": {k: digest(v) if isinstance(v, dict) and "timestamp" in v
                          else _sha256(texts[k]) for k, v in inputs.items()},
        "params": params,
        "outputs": outputs,
    }
    doc["digest"] = _sha256(_compose({
        k: _compose(texts) if k == "inputs" else canonical_json(v)
        for k, v in doc.items()}))
    if timestamp is not None:
        doc["timestamp"] = timestamp
    return doc


def certificate_body(doc) -> dict:
    return {k: v for k, v in doc.items() if k not in ("timestamp", "digest")}


def certificate_digest(doc) -> str:
    return digest(certificate_body(doc))
