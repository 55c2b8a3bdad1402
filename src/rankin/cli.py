"""Batch front-end: the verification catalog, a q-expansion printer, the
local-factor calculator, the bundled worked example and the trace identity,
with text or JSON reports.

Exit status: 0 when every selected check passes, 2 on usage errors, 3 on
data-file errors, 1 when some check fails.

Each command handler imports the modules it uses, so a single check loads
only its own part of the package; only verify-norm-relations and
example-7-5 load the catalog.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction as F

from .arith import FormDataError


class UsageError(Exception):
    """A command-line parameter outside the range its command supports."""


def _checked(check, *args, **kwargs):
    """check(*args, **kwargs), with a ValueError reported as a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(exc) from None


def _parse_fraction(s: str) -> F:
    try:
        return F(s)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {s!r}") from None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rankin",
        description="exact-arithmetic verification workbench for convolution "
                    "local factors, Hecke double cosets and cyclotomic norm "
                    "relations")
    options = {
        "json": dict(metavar="PATH", help="write the report as JSON"),
        "prec": dict(type=int, default=100,
                     help="q-expansion working precision (default 100)"),
        "seed": dict(type=int, default=0,
                     help="seed for randomized spot evaluations"),
        "data": dict(metavar="DIR",
                     help="directory with eigenform files (default: bundled)"),
        "guard": dict(type=int, default=8,
                      help="degree guard for the correction polynomial "
                           "(default 8)"),
    }
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, names, **kw):
        """A subcommand with the shared options it reads, in ``names``."""
        p = sub.add_parser(name, **kw)
        for opt in names:
            p.add_argument(f"--{opt}", **options[opt])
        return p

    p = add_parser("verify-norm-relations", options,
                   help="run the operator-identity catalog")
    p.add_argument("--identity", action="append",
                   help="run one identity by id (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="run the complete catalog, not just the "
                        "norm-relation core")

    p = add_parser("qexp", ["prec"], help="print an Eisenstein q-expansion")
    p.add_argument("--family", default="E", choices=("E", "F", "Etilde"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--alpha", type=_parse_fraction, default=F(0),
                   help="cusp parameter a/N")

    p = add_parser("dist-check", ["json", "prec"],
                   help="unit distribution relations")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--shape", default="all",
                   choices=("dist1", "dist2", "dist3", "all"))

    p = add_parser("hecke-check", ["json"],
                   help="double-coset square identity and Iwahori table")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)

    p = add_parser("euler-factor", ["json"],
                   help="good-prime local factor of a pair")
    p.add_argument("--f", dest="ffile", required=True)
    p.add_argument("--g", dest="gfile", required=True)
    p.add_argument("--prime", type=int, required=True)

    add_parser("example-7-5", ["json", "data"],
               help="reproduce the bundled worked example "
                    "(level-11 x level-26 pair at p = 17)")

    p = add_parser("otsuki-check", ["json"], help="weighted-trace identity")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--ell", type=int, default=3)

    return ap


def _entry(ident, statement, ok, witness):
    """A report entry of a check run outside the catalog (not timed)."""
    return {"id": ident, "statement": statement,
            "status": "PASS" if ok else "FAIL", "witness": witness, "ms": 0}


def _write_json(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)


def _emit(report, json_path):
    lines = []
    for e in report["entries"]:
        lines.append(f"[{e['status']}] {e['id']}: {e['statement']}")
        wit = e["witness"]
        if e["status"] != "PASS" and wit is not None:
            lines.append(f"       witness: {wit}")
        elif isinstance(wit, dict) and "derived_operator" in wit:
            op = wit["derived_operator"]
            lines.append(f"       derived operator: "
                         f"{op if len(op) <= 400 else op[:400] + ' ...'}")
    print("\n".join(lines))
    if json_path:
        _write_json(report, json_path)
        print(f"report written to {json_path}")
    return 0 if all(e["status"] == "PASS" for e in report["entries"]) else 1


def _prec(args):
    if args.prec < 0:
        raise UsageError(f"--prec must be >= 0, got {args.prec}")
    return args.prec


def cmd_verify(args):
    from .catalog import NORM_RELATION_IDS, _form_pair, run_catalog
    cfg = {"prec": _prec(args), "seed": args.seed, "data": args.data,
           "guard": args.guard}
    if args.identity:
        ids = args.identity
    elif args.all:
        ids = None
    else:
        ids = NORM_RELATION_IDS
    if args.data:
        # a missing or corrupt form file is a data error here, before an
        # entry would turn it into a FAIL
        _form_pair(cfg)
    try:
        report = run_catalog(ids, cfg)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    return _emit(report, args.json)


def cmd_qexp(args):
    from .eisenstein import EisensteinSpec, eisenstein_qexp
    prec = _prec(args)
    spec = _checked(EisensteinSpec, args.family, args.k, args.alpha, j=args.j)
    series = eisenstein_qexp(spec, prec)
    print(series)
    return 0


def cmd_dist(args):
    from .siegel import _dist_shapes, distribution_args, distribution_check
    prec = _prec(args)
    shapes = _dist_shapes(args.m)
    selected = shapes if args.shape == "all" else {args.shape: shapes[args.shape]}
    if args.N < 1:
        raise UsageError(f"--N must be positive, got {args.N}")
    for M in selected.values():
        _checked(distribution_args, 0, F(1, args.N), M, args.c)
    entries = []
    for name, M in sorted(selected.items()):
        ok, wit = distribution_check(0, F(1, args.N), M, args.c, prec)
        entries.append(_entry(name, f"matrix {M}, parameter 1/{args.N}, "
                                    f"c = {args.c}", ok, None if ok else wit))
    return _emit({"schema": 1, "entries": entries}, args.json)


def cmd_hecke(args):
    from .cosets import (_iwahori_table, check_square_identity_args,
                         t_prime_square_identity)
    _checked(check_square_identity_args, args.level, args.prime)
    rep = t_prime_square_identity(args.level, args.prime)
    table, misses = _iwahori_table(args.prime)
    entries = [_entry("hecke-square",
                      f"T'^2 = S' + (p+1)<p^-1>R at level {args.level}, "
                      f"p = {args.prime}", rep["holds"], rep["constituents"]),
               _entry("iwahori-table",
                      f"indices p^|2j| and p^|2j+1| at p = {args.prime}",
                      not misses, table)]
    return _emit({"schema": 1, "entries": entries}, args.json)


def cmd_euler(args):
    from .euler import (check_good_prime, hecke_polynomial,
                        rankin_euler_factor, weil_check)
    from .forms import ingest
    f, g = ingest(args.ffile), ingest(args.gfile)
    if args.prime > min(f.bound, g.bound):
        raise UsageError(f"--prime {args.prime} is beyond the coefficient "
                         f"tables (n <= {min(f.bound, g.bound)})")
    _checked(check_good_prime, f, g, args.prime)
    fac = rankin_euler_factor(f, g, args.prime)
    print(f"local factor at {args.prime}:")
    print(f"  {fac}")
    hf = hecke_polynomial(f, args.prime)
    hg = hecke_polynomial(g, args.prime)
    print(f"quadratic of f: X^2 + ({hf[1]})X + ({hf[0]})")
    print(f"quadratic of g: X^2 + ({hg[1]})X + ({hg[0]})")
    ok = weil_check(fac, args.prime, f.weight, g.weight)
    print(f"reciprocal-root bound p^((k+l-2)/2): {'PASS' if ok else 'FAIL'}")
    if args.json:
        _write_json({"schema": 1, "entries": [
            _entry("euler-factor", str(fac), ok, None)]}, args.json)
    return 0 if ok else 1


def cmd_example(args):
    from .catalog import _form_pair, run_catalog
    from .forms import hypothesis_report
    cfg = {"data": args.data}
    f, g = _form_pair(cfg)  # a data error here, not a FAIL of the entry
    report = run_catalog(["worked-example"], cfg)
    entry = report["entries"][0]
    wit = entry["witness"]
    mp = wit["minpoly"]
    print("bundled pair: level-11 form and level-26 form with quadratic "
          "nebentypus, p = 17")
    print(f"  eta-oracle agreement: {wit['oracle_agrees']}")
    print(f"  both forms ordinary at 17: {wit['ordinary_at_17']}")
    d = len(mp) - 1
    terms = [f"x^{d}" if d > 1 else "x"] + [f"({mp[i]})x" + (f"^{i}" if i > 1 else "")
                          for i in range(d - 1, 0, -1)] + [mp[0]]
    print(f"  minimal polynomial of the unit-root ratio: {' + '.join(terms)}")
    print(f"  ratio is a root of unity: {wit['ratio_root_of_unity']}")
    print(f"  congruence scan over 5..50 flags: {wit['scan_flagged']}")
    print("hypothesis checklist at p = 17:")
    for key, (status, _) in hypothesis_report(f, g, 17).items():
        print(f"  {key}: {status}")
    return _emit(report, args.json)


def cmd_otsuki(args):
    from .otsuki import _OTSUKI_FAMILY_A, otsuki_trace_check, trace_check_args
    _checked(trace_check_args, args.m, args.ell, _OTSUKI_FAMILY_A)
    ok, wit = otsuki_trace_check(args.m, args.ell, _OTSUKI_FAMILY_A)
    entry = _entry("otsuki-trace", f"weighted-trace identity at (m, ell) = "
                                   f"({args.m}, {args.ell})", ok, wit)
    return _emit({"schema": 1, "entries": [entry]}, args.json)


COMMANDS = {
    "verify-norm-relations": cmd_verify,
    "qexp": cmd_qexp,
    "dist-check": cmd_dist,
    "hecke-check": cmd_hecke,
    "euler-factor": cmd_euler,
    "example-7-5": cmd_example,
    "otsuki-check": cmd_otsuki,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FormDataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
