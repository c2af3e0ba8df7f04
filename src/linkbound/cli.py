"""Command-line front end.

Subcommands: invariants, bound, infect, signature-csv, verify.  Inputs
are JSON files holding either {"braid": {"strands": n, "word": [...]}}
(or a braid-text string) or {"seifert_matrix": [[...]], "components": m}.
Exit codes: 0 success, 2 parse error or invalid option, 3 invariant
violation, 4 inconsistent bounds, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .bounds import BandCertificate, BoundReport, InfectionDecl, assemble_report, \
    band_certificate_genus, infection_transfer
from .catalog import builtin_catalog, load_catalog, verify_catalog
from .errors import DegreeCapError, InconsistentBounds, InvalidSeifertData, ParseError
from .factor import check_degree_cap
from .laurent import format_laurent, laurent_to_json
from .signature import (alexander_from_seifert, float_oracle, link_nullity,
                        signature_function)
from .braids import seifert_data_from_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_INCONSISTENT = 4
EXIT_VERIFY = 5


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"{path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # not UTF-8, an integer too long, deep nesting
        raise ParseError(f"{path}: {e}") from None


def _load_seifert(path: str):
    return seifert_data_from_json(_load_json(path))


def _emit(obj, indent: int | None):
    print(json.dumps(obj, sort_keys=True, indent=indent))


def cmd_invariants(args) -> int:
    data = _load_seifert(args.input)
    delta = alexander_from_seifert(data)
    f = signature_function(data)
    out = {
        "alexander": laurent_to_json(delta),
        "alexander_str": format_laurent(delta),
        "width": None if delta.is_zero else delta.width(),
        "beta": link_nullity(data),
        "components": data.components,
        "genus": data.genus,
        "signature_function": f.to_json(),
    }
    _emit(out, args.json_indent)
    return EXIT_OK


def _parse_band_certs(raw) -> list[BandCertificate]:
    certs = []
    for pair in raw or ():
        try:
            b, u = (int(v) for v in pair.split(","))
            cert = BandCertificate(b, u)
            band_certificate_genus(cert)
        except ValueError as e:
            raise ParseError(f"--band-cert wants a valid 'b,u', got {pair!r}: {e}") from None
        certs.append(cert)
    return certs


def cmd_bound(args) -> int:
    data = _load_seifert(args.input)
    report = assemble_report(data, _parse_band_certs(args.band_cert),
                             degree_cap=args.degree_cap)
    _emit(report.to_json(), args.json_indent)
    return EXIT_OK


def cmd_infect(args) -> int:
    base = BoundReport.from_json(_load_json(args.base_report))
    decl = InfectionDecl.from_json(_load_json(args.declaration))
    report = infection_transfer(base, None, decl)
    _emit(report.to_json(), args.json_indent)
    return EXIT_OK


def cmd_signature_csv(args) -> int:
    data = _load_seifert(args.input)
    f = signature_function(data)
    writer = sys.stdout
    writer.write("x_lo,x_hi,sigma,nullity,source\n")
    for x_lo, x_hi, sigma, nullity, source in f.csv_rows():
        writer.write(f"{x_lo!r},{x_hi!r},{sigma!r},{nullity},{source}\n")
    for i in range(args.samples):
        theta = math.pi * (i + 1) / (args.samples + 1)
        sigma, nullity = float_oracle(data, theta)
        x = 2 * math.cos(theta)
        writer.write(f"{x!r},{x!r},{float(sigma)!r},{nullity},oracle\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    check_degree_cap(args.degree_cap)
    path = args.catalog or os.environ.get("LINKBOUND_CATALOG")
    if path:
        entries = load_catalog(_load_json(path))
    else:
        entries = builtin_catalog()
    if not entries:
        print("warning: empty catalog, nothing to verify", file=sys.stderr)
        print("verified 0 catalog entries")
        return EXIT_OK
    results = verify_catalog(entries, degree_cap=args.degree_cap)
    failures = 0
    for name, ok, message in results:
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {message}")
    print(f"{len(results) - failures}/{len(results)} catalog entries passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkbound",
        description="Exact signature functions, Alexander polynomials and "
                    "certified 4-genus bounds for links.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", nargs="?", help="input JSON file")
            p.add_argument("--input", dest="input_flag", help=argparse.SUPPRESS)
        p.add_argument("--json-indent", type=int, default=2)

    p = sub.add_parser("invariants", help="Alexander polynomial, nullity, "
                                          "signature function")
    add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("bound", help="assemble a 4-genus bound report")
    add_common(p)
    p.add_argument("--band-cert", action="append", metavar="b,u",
                   help="band-move certificate: b bands to a u-component unlink")
    p.add_argument("--degree-cap", type=int, default=12)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("infect", help="transfer bounds through a string-link "
                                      "infection declaration")
    p.add_argument("base_report", help="JSON BoundReport of the base link")
    p.add_argument("declaration", help="JSON infection declaration")
    p.add_argument("--json-indent", type=int, default=2)
    p.set_defaults(func=cmd_infect)

    p = sub.add_parser("signature-csv", help="emit the signature function as CSV")
    add_common(p)
    p.add_argument("--samples", type=int, default=0,
                   help="additional float-oracle sample rows")
    p.set_defaults(func=cmd_signature_csv)

    p = sub.add_parser("verify", help="run the catalog regression checks")
    p.add_argument("--catalog", help="catalog JSON path "
                                     "(default: $LINKBOUND_CATALOG or built-in)")
    p.add_argument("--degree-cap", type=int, default=12)
    p.add_argument("--json-indent", type=int, default=2)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "input_flag", None):
        args.input = args.input_flag
    if hasattr(args, "input") and not args.input:
        print("error: missing input file", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DegreeCapError as e:
        print(f"invalid --degree-cap: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InconsistentBounds as e:
        print(f"inconsistent bounds: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InvalidSeifertData as e:
        print(f"invalid input data: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
