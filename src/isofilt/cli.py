"""Batch command-line frontend.

Subcommands: slopes, decompose, filtration find, filtration check, descend,
group check, minkowski, wreath-demo, degree.  Exit codes: 0 success, 2
verification failure (with the violated property named), 3 precision or
budget exhaustion, 64 usage error.  Every randomized path requires --seed and
identical inputs with the same seed reproduce byte-identical certificates up
to the timestamp field, which is excluded from digests.

A v2 certificate holds the inputs, params, F, F's admissibility report and
the per-piece reports; check refuses any other key, re-derives the report by
find's route (``admissible.filtration_report``) and compares it whole.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (IsofiltError, PrecisionError, BudgetExhaustedError,
                     ValidationError)
from . import bounds
from . import formats
from .padic import linalg as la
from .groups.core import verify_cocycle
from .isocrystal.slopes import newton_slopes, isoclinic_decompose
from .filtration.driver import find_admissible_stable_filtration
from .filtration.galois import is_diagonally_stable, lift_matrix
from .filtration.admissible import filtration_report, quotient_filtration
from .symplectic.space import SymplecticSpace, LagrangianSubspace

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PRECISION = 3
EXIT_USAGE = 64

# admissibility modes of find, and of a certificate's params.mode
MODES = ("exact", "sampled")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low):
    """argparse type: an integer >= low (anything else is a usage error)."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {n}")
        return n
    return parse


def _local_data(text):
    """argparse type for degree --local: comma separated t:card pairs of
    integers with t >= 0 and card >= 1."""
    data = []
    for part in text.split(","):
        t, _, card = part.partition(":")
        try:
            pair = (int(t), int(card))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected t:card integers, got {part!r}")
        if pair[0] < 0 or pair[1] < 1:
            raise argparse.ArgumentTypeError(f"need t >= 0 and card >= 1, got {part!r}")
        data.append(pair)
    return data


def build_parser() -> _Parser:
    p = _Parser(prog="isofilt",
                description="exact p-adic isocrystal and filtration toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("slopes", help="Newton slopes of a module file")
    sp.add_argument("--module", required=True)
    sp.add_argument("--precision", type=_int_at_least(1), default=None)
    sp.add_argument("--json", action="store_true")

    dp = sub.add_parser("decompose", help="isoclinic decomposition")
    dp.add_argument("--module", required=True)
    dp.add_argument("--precision", type=_int_at_least(1), default=None)
    dp.add_argument("--json", action="store_true")

    fp = sub.add_parser("filtration", help="find/check filtration certificates")
    fsub = fp.add_subparsers(dest="filtration_command", required=True)
    ff = fsub.add_parser("find")
    ff.add_argument("--module", required=True)
    ff.add_argument("--group", required=True)
    ff.add_argument("--extension", required=True)
    ff.add_argument("--seed", type=int, required=True)
    ff.add_argument("--mode", choices=MODES, default="exact")
    ff.add_argument("--budget", type=_int_at_least(1), default=200)
    ff.add_argument("--precision", type=_int_at_least(1), default=None)
    ff.add_argument("--out", default=None)
    fc = fsub.add_parser("check")
    fc.add_argument("certificate")

    dd = sub.add_parser("descend", help="invariant basis under the diagonal action")
    dd.add_argument("--module", required=True)
    dd.add_argument("--group", required=True)
    dd.add_argument("--extension", required=True)
    dd.add_argument("--precision", type=_int_at_least(1), default=None)

    gp = sub.add_parser("group", help="validate group action data")
    gsub = gp.add_subparsers(dest="group_command", required=True)
    gc = gsub.add_parser("check")
    gc.add_argument("--group", required=True)
    gc.add_argument("--module", required=True)
    gc.add_argument("--precision", type=_int_at_least(1), default=None)

    mp = sub.add_parser("minkowski", help="Minkowski bound arithmetic")
    mg = mp.add_mutually_exclusive_group(required=True)
    mg.add_argument("--n", type=_int_at_least(0))
    mg.add_argument("--table", type=_int_at_least(0), metavar="G_MAX")
    mp.add_argument("--json", action="store_true")

    wp = sub.add_parser("wreath-demo", help="quaternion wreath 2-part data")
    wp.add_argument("--g", type=_int_at_least(1), required=True)
    wp.add_argument("--json", action="store_true")

    dg = sub.add_parser("degree", help="lcm degree bounds from local data")
    dg.add_argument("--local", type=_local_data, required=True,
                    help="comma separated t:card pairs, e.g. 1:2,0:3")
    dg.add_argument("--json", action="store_true")
    return p


_PARSER: _Parser | None = None


def main(argv=None) -> int:
    # argparse parsers are reusable, so the parser is built once per process
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return _dispatch(args)
    except (PrecisionError, BudgetExhaustedError) as exc:
        print(f"precision/budget exhaustion: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except IsofiltError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def _dispatch(args) -> int:
    if args.command == "slopes":
        sa, _ = formats.module_from_json(formats.load_json(args.module),
                                         args.precision)
        prof = newton_slopes(sa.module)
        if args.json:
            print(json.dumps({"slopes": [{"slope": str(s), "multiplicity": m}
                                         for s, m in prof.pairs]}))
        else:
            print(" ".join(f"{s} x{m}" for s, m in prof.pairs))
        return EXIT_OK
    if args.command == "decompose":
        sa, field = formats.module_from_json(formats.load_json(args.module),
                                             args.precision)
        dec = isoclinic_decompose(sa.module)
        if args.json:
            print(json.dumps({"components": [
                {"slope": str(s), "dim": len(cols[0]),
                 "basis": formats.matrix_to_json(cols)} for s, cols in dec]}))
        else:
            for s, cols in dec:
                print(f"slope {s}: dim {len(cols[0])}")
        return EXIT_OK
    if args.command == "filtration":
        if args.filtration_command == "find":
            return _filtration_find(args)
        return _filtration_check(args)
    if args.command == "descend":
        return _descend(args)
    if args.command == "group":
        return _group_check(args)
    if args.command == "minkowski":
        if args.n is not None:
            if args.json:
                print(json.dumps(bounds.MinkowskiTable(args.n).as_dict()))
            else:
                print(bounds.minkowski_bound(args.n))
        else:
            rows = [(n, bounds.minkowski_bound(n))
                    for n in range(0, args.table + 1)]
            if args.json:
                print(json.dumps({str(n): m for n, m in rows}))
            else:
                for n, m in rows:
                    print(f"M({n}) = {m}")
        return EXIT_OK
    if args.command == "wreath-demo":
        return _wreath_demo(args)
    if args.command == "degree":
        d_upper, d_dep = bounds.lcm_degree_formulas(args.local)
        if args.json:
            print(json.dumps({"d_upper": d_upper, "d_dep_upper": d_dep}))
        else:
            print(f"d_upper = {d_upper}")
            print(f"d_dep_upper = {d_dep}")
        return EXIT_OK
    raise ValidationError(f"unknown command {args.command!r}")


def _load_problem(args):
    mod_doc = formats.load_json(args.module)
    grp_doc = formats.load_json(args.group)
    ext_doc = formats.load_json(args.extension)
    prec = getattr(args, "precision", None)
    sa, field = formats.module_from_json(mod_doc, prec)
    G, rep = formats.group_from_json(grp_doc, field, sa.module.n)
    ext = formats.extension_from_json(ext_doc, prec)
    setup = formats.setup_from_json(ext_doc, G, ext)
    return mod_doc, grp_doc, ext_doc, sa, rep, ext, setup


def _filtration_find(args) -> int:
    mod_doc, grp_doc, ext_doc, sa, rep, ext, setup = _load_problem(args)
    res = find_admissible_stable_filtration(
        sa, setup, rep, seed=args.seed, budget=args.budget,
        adm_mode=args.mode)
    outputs = {
        "filtration": formats.matrix_to_json(res["filtration"]),
        "admissibility": res["admissibility"].as_dict(),
        "pieces": res["pieces"],
    }
    params = {"seed": args.seed, "budget": args.budget, "mode": args.mode,
              "precision": sa.module.field.prec}
    cert = formats.build_certificate(
        {"module": mod_doc, "group": grp_doc, "extension": ext_doc},
        params, outputs, timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                 time.gmtime()))
    text = formats.indented_json(cert)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"certificate written to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _filtration_check(args) -> int:
    cert = formats.load_json(args.certificate)
    if not isinstance(cert, dict) or cert.get("schema") != formats.CERT_SCHEMA:
        print(f"verification failure: unknown certificate schema; check "
              f"reads {formats.CERT_SCHEMA}, so re-run filtration find",
              file=sys.stderr)
        return EXIT_VERIFY
    want = cert.get("digest")
    got = formats.certificate_digest(cert)
    if want != got:
        print("verification failure: digest mismatch (tampered certificate)",
              file=sys.stderr)
        return EXIT_VERIFY
    for path, keys in formats.CERT_KEYS.items():
        doc = _certificate_field(cert, path, dict) if path else cert
        extra = sorted(set(doc) - keys)
        if extra:
            raise ValidationError(f"certificate field "
                                  f"{path + '.' if path else ''}{extra[0]} "
                                  f"is not in the format")
    mod_doc = _certificate_field(cert, "inputs.module", dict)
    grp_doc = _certificate_field(cert, "inputs.group", dict)
    ext_doc = _certificate_field(cert, "inputs.extension", dict)
    prec = _certificate_field(cert, "params", dict).get("precision")
    seed = _certificate_field(cert, "params.seed", int)
    mode = _certificate_field(cert, "params.mode", str)
    if mode not in MODES:
        raise ValidationError(f"certificate field params.mode is {mode!r}, "
                              f"expected {' or '.join(MODES)}")
    # params.budget bounds the Lagrangian search of find only; find and
    # this check both sample admissibility with ADMISSIBILITY_BUDGET tries,
    # which is_admissible reads itself
    _certificate_field(cert, "params.budget", int)
    F_doc = _certificate_field(cert, "outputs.filtration", list)
    adm = _certificate_field(cert, "outputs.admissibility", dict)
    sa, field = formats.module_from_json(mod_doc, prec)
    G, rep = formats.group_from_json(grp_doc, field, sa.module.n)
    # every verdict below rests on rep being an action of G, so it is
    # validated first, as find validates it; the relations are decided on
    # the rows of G's generators, which suffice when their matrices (and the
    # Frobenius and pairing) are integral, and on every element otherwise
    _validate_action(rep, sa)
    ext = formats.extension_from_json(ext_doc, prec)
    setup = formats.setup_from_json(ext_doc, G, ext)
    F = formats.matrix_from_json(ext, F_doc,
                                "certificate field outputs.filtration")
    if len(F) != sa.module.n:
        raise ValidationError(f"certificate field outputs.filtration has "
                              f"{len(F)} rows, expected {sa.module.n}")
    failures = []
    # re-derive the report by find's route and compare it whole; rank F is
    # certified once, by the extension node or, at t = 0, by the Lagrangian
    # check as the rank g of F_B = F
    report = filtration_report(sa, F, ext, mode, seed, None, None)
    extension = report.mode == "extension"
    if extension:
        F_B, rank_F = report.quotient_filtration, report.rank_F
    else:
        F_B = quotient_filtration(sa, F, ext) if sa.t_dim else F
        rank_F = None
    if sa.gram_B:
        # F is Lagrangian when its image F_B in D_B is (F = F_B at t = 0)
        space = SymplecticSpace(ext, lift_matrix(ext, sa.gram_B),
                                validate=False)
        try:
            g = LagrangianSubspace(space, F_B).dim
        except IsofiltError:
            failures.append("lagrangian")
        else:
            if not sa.t_dim:
                rank_F = g
    if not report.verdict or adm != report.as_dict():
        failures.append("admissible")
    if not is_diagonally_stable(rep, F, setup, rank=rank_F):
        # the descent targets are the same (rho(h), tau_h) pairs
        failures += ["diagonal-stability", "descent-targets"]
    if not verify_cocycle(G):
        failures.append("cocycle")
    if sa.t_dim:
        contained = (report.contained if extension else
                     la.subspace_leq(lift_matrix(ext, sa.toric_cols), F))
        if not contained:
            failures.append("graded-toric")
    if failures:
        print("verification failure: " + ", ".join(sorted(set(failures))),
              file=sys.stderr)
        return EXIT_VERIFY
    print("certificate verifies: lagrangian, admissible, stable, cocycle")
    return EXIT_OK


def _certificate_field(cert, path, kind):
    """The entry of a certificate at a dotted path, which must be a kind;
    a ValidationError naming the field otherwise."""
    x = cert
    for key in path.split("."):
        if not isinstance(x, dict) or key not in x:
            raise ValidationError(f"certificate lacks the field {path}")
        x = x[key]
    if not isinstance(x, kind):
        raise ValidationError(f"certificate field {path} is not a "
                              f"{kind.__name__}")
    return x


def _wreath_demo(args) -> int:
    g = args.g
    order = bounds.wreath_sylow_order(g)
    info = {"g": g, "two_part": order,
            "exponent_r": bounds.minkowski_exponent(2 * g, 2)}
    if 1 <= g <= 3:
        from .fixtures import unramified, wreath_block_rep, block_frobenius_module
        from .isocrystal.module import standard_symplectic_gram
        field = unramified(2, 2, 32)
        rep = wreath_block_rep(field, g)
        D = block_frobenius_module(field, g)
        J = standard_symplectic_gram(field, g)
        rep.validate(phi_module=D, gram=J)
        info["group_order"] = rep.group.n
        info["matches_two_part"] = rep.group.n == order
        info["symplectic_and_phi_checks"] = "passed"
        if not info["matches_two_part"]:
            raise ValidationError("wreath 2-Sylow order does not match 2^r(2g,2)")
    if args.json:
        print(json.dumps(info))
    else:
        print(f"2-part of |Q8 wr S_{g}| = 2^{info['exponent_r']} = {order}")
        if "group_order" in info:
            print(f"explicit 2-Sylow constructed with {info['group_order']} "
                  f"matrices; symplectic and Frobenius checks passed")
    return EXIT_OK


def _validate_action(rep, sa):
    """Check the group action against its table, the Frobenius and the
    polarization or toric part; raises ValidationError naming the failure."""
    rep.validate(phi_module=sa.module,
                 gram=sa.gram_B if (sa.gram_B and sa.t_dim == 0) else None,
                 toric_cols=sa.toric_cols if sa.t_dim else None)


def _descend(args) -> int:
    from .filtration.galois import galois_descend
    _, _, _, sa, rep, ext, setup = _load_problem(args)
    _validate_action(rep, sa)
    basis = galois_descend(rep, setup)
    print(json.dumps({"invariant_basis": formats.matrix_to_json(basis)}))
    return EXIT_OK


def _group_check(args) -> int:
    mod_doc = formats.load_json(args.module)
    grp_doc = formats.load_json(args.group)
    sa, field = formats.module_from_json(mod_doc, args.precision)
    G, rep = formats.group_from_json(grp_doc, field, sa.module.n)
    _validate_action(rep, sa)
    print(f"group action of order {G.n} validates")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
