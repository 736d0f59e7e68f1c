"""Command-line interface: build, verify, betti, mcm, count-formula. `verify`
takes the output document alone: every bound it needs is read from it.

Exit codes: 0 success with all certificates passing; 2 instance validation
failure; 3 certificate failure; 4 I/O or parse failure; 5 out of memory. Each
error type in `errors` carries its code, so `main` handles every one in one
place; a malformed instance document raises ValueError, which exits 2, and a
MemoryError exits 5.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors
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


def _load_json(path):
    """The parsed JSON file; DocumentError when it cannot be opened, is not
    text or JSON (both ValueError), or nests too deep (RecursionError)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise errors.DocumentError(f"cannot read {path}: {exc}") from exc


def _cmd_build(args):
    doc = _load_json(args.instance)
    try:
        out = run_build(ProblemInstance.from_doc(doc))
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return errors.EXIT_VALIDATION
    text = dump_output(out)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise errors.DocumentError(f"cannot write {args.output}: {exc}") from exc
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return errors.EXIT_OK


def _cmd_verify(args):
    ok, rows = run_verify(_load_json(args.output))
    sys.stdout.write(report_text(rows))
    return errors.EXIT_OK if ok else errors.EXIT_CERTIFICATE


def _print_section(path, key, render):
    sys.stdout.write(render_section(_load_json(path), key, render))
    return errors.EXIT_OK


def _cmd_betti(args):
    return _print_section(args.output, "betti", betti_text)


def _cmd_mcm(args):
    return _print_section(args.output, "mcm", mcm_text)


def _cmd_count_formula(args):
    try:
        print(mcm_generator_count(args.n, args.c))
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return errors.EXIT_VALIDATION
    return errors.EXIT_OK


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
    try:
        return args.func(args)
    except errors.TateSpliceError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print(
            "out of memory: the command needs more than the process could allocate",
            file=sys.stderr,
        )
        return errors.EXIT_MEMORY


if __name__ == "__main__":
    raise SystemExit(main())
