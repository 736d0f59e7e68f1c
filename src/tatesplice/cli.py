"""Command-line interface: build, verify, betti, mcm, count-formula.

Exit codes: 0 success with all certificates passing; 2 instance validation
failure; 3 certificate failure; 4 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    AcyclicityError,
    ContainmentError,
    DocumentError,
    H0IsoError,
    InhomogeneousInputError,
    LiftIdentityError,
    NotChainMapError,
    NotInIdealError,
    NotRegularError,
    PolynomialSyntaxError,
    SelfCheckError,
    WindowTooSmallError,
)
from .harness import (
    ProblemInstance,
    betti_text,
    dump_output,
    mcm_text,
    render_section,
    report_text,
    run_build,
    run_verify,
)
from .tate import mcm_generator_count

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_IO = 4

_VALIDATION_ERRORS = (
    ContainmentError,
    InhomogeneousInputError,
    LiftIdentityError,
    NotInIdealError,
    NotRegularError,
    ValueError,
)
_CERTIFICATE_ERRORS = (
    AcyclicityError,
    H0IsoError,
    NotChainMapError,
    SelfCheckError,
    WindowTooSmallError,
)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _cmd_build(args):
    doc = _load_json(args.instance)
    try:
        instance = ProblemInstance.from_doc(doc)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        out = run_build(instance)
    except PolynomialSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _CERTIFICATE_ERRORS as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = dump_output(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args):
    doc = _load_json(args.output)
    try:
        ok, rows = run_verify(doc, dmax=args.dmax)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    sys.stdout.write(report_text(rows))
    return EXIT_OK if ok else EXIT_CERTIFICATE


def _print_section(path, key, render):
    doc = _load_json(path)
    try:
        text = render_section(doc, key, render)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_betti(args):
    return _print_section(args.output, "betti", betti_text)


def _cmd_mcm(args):
    return _print_section(args.output, "mcm", mcm_text)


def _cmd_count_formula(args):
    try:
        print(mcm_generator_count(args.n, args.c))
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tatesplice",
        description="Build and verify Tate resolutions and MCM approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run the full pipeline on an instance file")
    p_build.add_argument("instance", help="instance JSON file")
    p_build.add_argument("-o", "--output", help="write the output document here")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="re-verify a persisted output document")
    p_verify.add_argument("output", help="output JSON file")
    p_verify.add_argument(
        "--dmax",
        type=int,
        default=None,
        help="degree bound of an acyclicity sweep that falls back (no Artinian "
        "regular quotient); default: the document's meta.dmax",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_betti = sub.add_parser("betti", help="print the Betti table of an output")
    p_betti.add_argument("output")
    p_betti.set_defaults(func=_cmd_betti)

    p_mcm = sub.add_parser("mcm", help="print the MCM presentation of an output")
    p_mcm.add_argument("output")
    p_mcm.set_defaults(func=_cmd_mcm)

    p_count = sub.add_parser(
        "count-formula", help="evaluate the closed-form generator count"
    )
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--c", type=int, required=True)
    p_count.set_defaults(func=_cmd_count_formula)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
