"""Command line driver.

Subcommands: analyze (everything), certify <kind> (one certificate; the
kinds are the rows of report.certificate_kinds), equivalence
(isomorphism suite on one module), normality, hopf (group algebra
subgroup tests), verify (re-check a JSON report emitted by analyze or
by certify --json).
Exit codes: 0 the run completed and the report holds the verdicts, 1 the
command line or the input was rejected (for verify: the report is
malformed or a certificate fails) or the run ran out of memory, 2 an
internal invariant failed or any other exception escaped the run, which
is a bug trap rather than a data verdict; it is reported in one line
naming the subcommand, the stage (the innermost ringext function on the
traceback, as module.function) and the exception, with no traceback.
"""

import argparse
import json
import sys
from typing import Optional

from .algebra import AlgebraError
from .canonical import InternalInconsistency, build_canonical_rings
from .certify import classify
from .equivalences import pi_A_iso
from .normality import hopf_normality
from .report import (_iso_block, analysis_report, certificate_kinds,
                     module_block, normality_block, render_text, report_header,
                     report_json, verify_report)
from .serialize import InputError, certificate_json, parse_input

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like any rejected
    input; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc), path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc.msg}",
                         f"{path}:{exc.lineno}:{exc.colno}")
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's digit limit, or
        # nesting deeper than the decoder's recursion limit
        raise InputError(f"unreadable JSON: {exc}", path)


def _parsed_input(args):
    return parse_input(_load_json(args.input))


def _emit(doc: dict, args) -> int:
    text = report_json(doc) if args.json else render_text(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(str(exc), args.output)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args) -> int:
    return _emit(analysis_report(_parsed_input(args)), args)


def cmd_certify(args) -> int:
    parsed = _parsed_input(args)
    cr = build_canonical_rings(parsed.ext)
    kind = next(k for k in certificate_kinds() if k.name == args.kind)
    # the search verifies its certificate by substitution before returning
    cert = kind.search(cr)
    found = cert is not None
    doc = report_header(parsed, f"certify {kind.name}")
    doc["dims"] = cr.dims()
    doc["certify"] = {
        "kind": kind.name, "verdict": found,
        "certificate": certificate_json(cr.field, cert, doc["dims"]) if found else None,
        "verified": True if found else None}
    return _emit(doc, args)


def cmd_equivalence(args) -> int:
    parsed = _parsed_input(args)
    cr = build_canonical_rings(parsed.ext)
    cls = classify(cr)
    name = args.module
    if name == "regular":
        m = cr.a_reg
    else:
        found = [x for x in parsed.modules if x.label == name]
        if not found:
            raise InputError(f"no module labeled {name!r} in the input",
                             "$.modules")
        m = found[0]
    doc = report_header(parsed, f"equivalence {name}")
    doc["dims"] = cr.dims()
    doc["equivalences"] = {
        name: module_block(cr, cls, m),
        "base_change_of_total": _iso_block(
            pi_A_iso(cr, left_quasibase=cls.left_quasibase)),
    }
    return _emit(doc, args)


def cmd_normality(args) -> int:
    parsed = _parsed_input(args)
    cr = build_canonical_rings(parsed.ext)
    cls = classify(cr)
    doc = report_header(parsed, "normality")
    doc["dims"] = cr.dims()
    doc["normality"] = normality_block(cr, cls, parsed.ideals)
    return _emit(doc, args)


def cmd_hopf(args) -> int:
    parsed = _parsed_input(args)
    a = parsed.ext.total
    if a.group is None:
        raise InputError("the hopf command needs a group algebra", "$.algebra")
    idx = parsed.ext.subgroup()
    if idx is None:
        raise InputError("the hopf command needs a subgroup subalgebra",
                         "$.subalgebra")
    idx.sort()
    verdicts = hopf_normality(a.group, idx, parsed.field)
    if len(set(verdicts.values())) != 1:
        raise InternalInconsistency(
            "the three subgroup normality tests disagree: " + repr(verdicts))
    doc = report_header(parsed, "hopf")
    doc["normality"] = {"hopf": verdicts, "subgroup": idx}
    return _emit(doc, args)


def cmd_verify(args) -> int:
    doc = _load_json(args.report)
    ok, msgs = verify_report(doc)
    if ok:
        sys.stdout.write("report verifies: every certificate "
                         "re-checks by substitution\n")
        return EXIT_OK
    for m in msgs:
        sys.stderr.write(f"verification failure: {m}\n")
    return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ringext",
        description="Exact structure analysis of finite dimensional "
                    "algebra extensions.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="path to a JSON input document")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true",
                         help="emit the machine-readable JSON report")
        fmt.add_argument("--text", action="store_true",
                         help="emit the prose report (default)")
        p.add_argument("-o", "--output", default=None,
                       help="write the report to a file instead of stdout")

    p = sub.add_parser("analyze", help="full classification and verification")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="search for one certificate kind")
    p.add_argument("kind", choices=[k.name for k in certificate_kinds()])
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("equivalence",
                       help="isomorphism suite on one module")
    common(p)
    p.add_argument("--module", default="regular",
                   help="module label from the input, or \"regular\"")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("normality", help="normality and braiding suite")
    common(p)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("hopf", help="subgroup normality, three ways")
    common(p)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("verify", help="re-verify an emitted JSON report")
    p.add_argument("report", help="path to a JSON report document")
    p.set_defaults(func=cmd_verify)
    return top


def _stage(exc: BaseException) -> str:
    """" at module.function" of the innermost ringext frame on exc's traceback."""
    stage, tb = "", exc.__traceback__
    while tb is not None:
        frame, tb = tb.tb_frame, tb.tb_next
        # the spec names cli ringext.cli under python -m too, not __main__
        module = getattr(frame.f_globals.get("__spec__"), "name", "")
        if module.startswith("ringext."):
            stage = f" at {module[len('ringext.'):]}.{frame.f_code.co_name}"
    return stage


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error at {exc.location}: {exc.reason}\n")
        return EXIT_INPUT
    except AlgebraError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency in {args.command}"
                         f"{_stage(exc)}: {exc}\n")
        return EXIT_INTERNAL
    except MemoryError:
        # a backstop: where no address-space limit is set, the operating
        # system may end the process before Python sees a MemoryError
        sys.stderr.write(f"input error: {args.command} ran out of memory; "
                         f"the input is too large for this machine\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error in {args.command}{_stage(exc)}: "
                         f"{type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
