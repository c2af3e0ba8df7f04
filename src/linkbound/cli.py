"""Command-line front end: the COMMANDS table, which -h/--help lists.

Inputs are JSON files holding either {"braid": {"strands": n, "word":
[...]}} (or a braid-text string) or {"seifert_matrix": [[...]],
"components": m}.  Exit codes: 0 success, 2 parse error ("parse error:
..." on a wrong command line) or invalid option, 3 invariant violation,
4 inconsistent bounds, 5 verification failure.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
from types import SimpleNamespace

from .bounds import BandCertificate, BoundReport, InfectionDecl, assemble_report, \
    infection_transfer
from .catalog import builtin_catalog, load_catalog, verify_catalog
from .errors import InconsistentBounds, InvalidSeifertData, ParseError
from .laurent import format_laurent, laurent_to_json
from .signature import (alexander_from_seifert, float_oracle, link_nullity,
                        signature_function)
from .braids import _decimal, seifert_data_from_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_INCONSISTENT = 4
EXIT_VERIFY = 5


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:  # its text repeats the path
        raise ParseError(f"{reprlib.repr(path)}: {e.strerror}") from None
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
            b, u = (_decimal(v) for v in pair.split(","))
            certs.append(BandCertificate(b, u))
        except ValueError as e:
            raise ParseError(
                f"--band-cert wants a valid 'b,u', got {reprlib.repr(pair)}: {e}") from None
    return certs


def cmd_bound(args) -> int:
    data = _load_seifert(args.input)
    report = assemble_report(data, _parse_band_certs(args.band_cert))
    _emit(report.to_json(), args.json_indent)
    return EXIT_OK


def cmd_infect(args) -> int:
    base = BoundReport.from_json(_load_json(args.base_report))
    decl = InfectionDecl.from_json(_load_json(args.declaration))
    report = infection_transfer(base, decl)
    _emit(report.to_json(), args.json_indent)
    return EXIT_OK


def cmd_signature_csv(args) -> int:
    data = _load_seifert(args.input)
    f = signature_function(data)
    sys.stdout.write("x_lo,x_hi,sigma,nullity,source\n")
    for x_lo, x_hi, sigma, nullity, source in f.csv_rows():
        sys.stdout.write(f"{x_lo!r},{x_hi!r},{sigma!r},{nullity},{source}\n")
    for i in range(args.samples):
        theta = math.pi * (i + 1) / (args.samples + 1)
        sigma, nullity = float_oracle(data, theta)
        x = 2 * math.cos(theta)
        sys.stdout.write(f"{x!r},{x!r},{float(sigma)!r},{nullity},oracle\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    path = args.catalog or os.environ.get("LINKBOUND_CATALOG")
    if path:
        entries = load_catalog(_load_json(path))
    else:
        entries = builtin_catalog()
    if not entries:
        print("warning: empty catalog, nothing to verify", file=sys.stderr)
        print("verified 0 catalog entries")
        return EXIT_OK
    results = verify_catalog(entries)
    failures = 0
    for name, ok, message in results:
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {message}")
    print(f"{len(results) - failures}/{len(results)} catalog entries passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# The largest --json-indent: each level of a report adds this many spaces
# to every line below it, so 10^9 would ask for gigabytes.  0 or a
# negative indent puts each value on its own line, unindented.
MAX_JSON_INDENT = 64
# The largest --samples: each oracle row is one numpy eigen-solve, about
# 17 us on the trefoil, so 10^9 would run for hours.
MAX_SAMPLES = 10000


def _within(flag: str, least, most: int):
    """The reader of an integer option that refuses a value outside
    [least, most] with ParseError, before any work."""
    def read(text: str) -> int:
        value = _decimal(text)
        if value > most:
            raise ParseError(f"{flag} {reprlib.repr(value)} exceeds the maximum {most}")
        if value < least:
            raise ParseError(f"{flag} {reprlib.repr(value)} is below the minimum {least}")
        return value
    return read


# One row per command: (handler, positionals, options, help line).  An option's flag names
# its attribute; a list option is repeatable, and any other option given twice is a parse
# error.  --input is the hidden alias of INPUT: its values join the free words, so INPUT is
# named once, as a word or through --input.
INDENT = {"--json-indent": (_within("--json-indent", -math.inf, MAX_JSON_INDENT), 2)}
INPUT = {"--input": (list, None)}
COMMANDS = {
    "invariants": (cmd_invariants, ("input",), {**INPUT, **INDENT},
                   "Alexander polynomial, nullity, signature function"),
    "bound": (cmd_bound, ("input",), {**INPUT, **INDENT, "--band-cert": (list, None)},
              "assemble a 4-genus bound report; b,u: b bands to a u-component unlink"),
    "infect": (cmd_infect, ("base_report", "declaration"), INDENT,
               "transfer bounds through a string-link infection declaration"),
    "signature-csv": (cmd_signature_csv, ("input",),
                      {**INPUT, "--samples": (_within("--samples", 0, MAX_SAMPLES), 0)},
                      "emit the signature function as CSV, plus N float-oracle rows"),
    "verify": (cmd_verify, (), {"--catalog": (str, None)},
               "run the catalog regression checks (default: $LINKBOUND_CATALOG or built-in)"),
}
METAVARS = {str: "PATH", list: "b,u"}  # an integer option reads N


def cmd_help(args) -> int:
    print("usage: linkbound COMMAND ARGUMENTS [OPTIONS]\n\ncommands:")
    for name, (_, positionals, options, text) in COMMANDS.items():
        words = [p.upper() for p in positionals] + [
            f"[{f} {METAVARS.get(kind, 'N')}]"
            for f, (kind, _) in options.items() if f != "--input"]
        print(f"  {name} {' '.join(words)}\n      {text}")
    return EXIT_OK


def _parse(argv: list[str]):
    """(handler, arguments) of a command line, read by the COMMANDS table;
    a wrong command line raises ParseError."""
    if argv[:1] in (["-h"], ["--help"]):
        return cmd_help, None
    if not argv or (command := argv[0]) not in COMMANDS:
        raise ParseError(f"expected a command, one of {', '.join(COMMANDS)} (see --help)")
    handler, positionals, options, _ = COMMANDS[command]
    given, free, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-") or token == "-":
            free.append(token)
            continue
        if token in ("-h", "--help"):  # only where an option may stand, not as a value
            return cmd_help, None
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise ParseError(f"{command}: unknown option {reprlib.repr(flag)}")
        kind, dest = options[flag][0], flag[2:].replace("-", "_")
        if dest in given and kind is not list:
            raise ParseError(f"{command}: {flag} given twice")
        if (value := value if eq else next(tokens, None)) is None:
            raise ParseError(f"{command}: {flag} needs a value")
        try:
            given[dest] = given.get(dest, []) + [value] if kind is list else kind(value)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(
                f"{command}: {flag} wants an integer, got {reprlib.repr(value)}") from None
    free += given.pop("input", [])
    values = {flag[2:].replace("-", "_"): default for flag, (_, default) in options.items()}
    values.update(zip(positionals, free), **given)
    if len(free) > len(positionals) or not all(values.get(name) for name in positionals):
        raise ParseError(f"{command} takes {' '.join(map(str.upper, positionals)) or 'no file'}"
                         f", got {reprlib.repr(' '.join(free)) if free else 'none'}")
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InconsistentBounds as e:
        print(f"inconsistent bounds: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InvalidSeifertData as e:
        print(f"invalid input data: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
