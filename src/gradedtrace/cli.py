"""Command-line surface for the trace engine.

Inputs are plain-text documents in the grammar printed by --emit-grammar.
Exit codes (also printed by --help): 0 everything checked out, 1 an
identity failed to hold, 2 bad input or an internal EngineError.

    gradedtrace trace free -m endo.txt
    gradedtrace trace hs -M module.txt -f endo.txt
    gradedtrace resolve -f module.txt -m M
    gradedtrace zigzag -A module.txt
    gradedtrace ctrace -f endo.txt
    gradedtrace check-additivity -s sequence.txt
    gradedtrace lefschetz run --filter torus --format json
    gradedtrace lefschetz list
"""

from __future__ import annotations

import argparse
import json
import sys

from .freemod import GradedMatrixHom
from .lefschetz import builtin_catalog, run_suite
from .modules import Resolution, ResolutionTooLong, resolve, verify_resolution
from .monoidal import categorical_trace, standard_duality, zigzag_holds
from .solvers import EngineError
from .textio import _POWER_CAPS, GRAMMAR, MAX_NESTING, Document, ParseError, parse_file
from .trace import TraceValue, additivity_defect, free_trace, hs_trace

OK, MISMATCH, BAD_INPUT = 0, 1, 2

EXIT_CODES = f"""\
exit codes:
  0  everything checked out
  1  an identity failed to hold: a trace mismatch, a zigzag defect, a
     nonzero additivity defect, or a catalog case whose engine and oracle
     values differ
  2  bad input: an unreadable or unparseable file, an unknown name, a
     malformed object, an element nested more than {MAX_NESTING} levels
     deep, a power or product past the parser's caps of
     {_POWER_CAPS},
     a module with no resolution within --max-length, a catalog case
     that raised, or a usage error; an EngineError (a failed internal
     invariant, which is a bug rather than bad input, or an exponent past
     the Groebner engine's bound of 32767) also exits 2, with its message
     on stderr instead of a traceback
"""


class CliError(Exception):
    """Input problem; message goes to stderr, exit code 2."""


def _load(path: str) -> Document:
    try:
        return parse_file(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except ParseError as exc:
        raise CliError(str(exc))


def _pick(table: dict, name: str | None, what: str, path: str):
    """Resolve a name in one document table, defaulting when unambiguous."""
    if name is not None:
        if name not in table:
            known = ", ".join(table) or "none"
            raise CliError(f"no {what} named {name!r} in {path} (found: {known})")
        return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    if not table:
        raise CliError(f"{path} declares no {what}")
    known = ", ".join(table)
    raise CliError(f"{path} declares several {what}s ({known}); pick one with --name")


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _trace_payload(t: TraceValue) -> dict:
    return {"value": str(t.value), "degree": t.degree}


def _cmd_trace(args) -> int:
    if args.kind == "free":
        doc = _load(args.matrix_file)
        name, f = _pick(doc.matrices, args.name, "matrix", args.matrix_file)
        if f.source != f.target:
            raise CliError(f"matrix {name} is not an endomorphism")
        t = free_trace(f)
        _emit(
            {"trace": _trace_payload(t), "matrix": name},
            f"trace {name} = {t}",
            args.format,
        )
        return OK

    module_doc = _load(args.module_file)
    module_name, module = _pick(module_doc.modules, args.module_name, "module", args.module_file)
    # one file may hold both; parse it once, so the hom's source is the module itself
    hom_doc = module_doc if args.hom_file == args.module_file else _load(args.hom_file)
    hom_name, hom = _pick(hom_doc.homs, args.name, "hom", args.hom_file)
    if hom.source != module or hom.target != module:
        raise CliError(f"hom {hom_name} is not an endomorphism of module {module_name}")
    resolution = None
    if args.resolution:
        resolution = _resolution_from_file(args.resolution, module)
    t = hs_trace(hom, resolution=resolution)
    _emit(
        {"trace": _trace_payload(t), "module": module_name, "hom": hom_name},
        f"trace {hom_name} on {module_name} = {t}",
        args.format,
    )
    return OK


def _resolution_from_file(path: str, module) -> Resolution:
    """Rebuild a resolution from matrices named d1, d2, ... and verify it.

    Each di must be declared so that d1 maps into the generator module of
    the resolved module and consecutive sources chain up.
    """
    doc = _load(path)
    maps: list[GradedMatrixHom] = []
    i = 1
    while f"d{i}" in doc.matrices:
        maps.append(doc.matrices[f"d{i}"])
        i += 1
    if not maps:
        raise CliError(f"{path} declares no matrices named d1, d2, ...")
    if maps[0].target != module.generators:
        raise CliError("d1 must land in the generator module of the resolved module")
    modules = [module.generators] + [m.source for m in maps]
    res = Resolution(module, modules, maps)
    try:
        verify_resolution(res)
    except (EngineError, ValueError) as exc:
        raise CliError(f"{path} is not a resolution: {exc}")
    return res


def _cmd_resolve(args) -> int:
    doc = _load(args.file)
    name, module = _pick(doc.modules, args.name, "module", args.file)
    res = resolve(module, max_length=args.max_length)
    verify_resolution(res)
    steps = [{"rank": m.rank, "shifts": list(m.shifts)} for m in res.modules]
    text_steps = " -> ".join(
        f"rank {s['rank']} {s['shifts']}" for s in reversed(steps)
    )
    _emit(
        {"module": name, "length": res.length, "steps": steps, "verified": True},
        f"resolution of {name}: length {res.length}, {text_steps} (verified)",
        args.format,
    )
    return OK


def _cmd_zigzag(args) -> int:
    doc = _load(args.module_file)
    name, module = _pick(doc.modules, args.name, "module", args.module_file)
    if module.relations.source.rank:
        raise CliError(f"module {name} is not free; zigzag works on free modules")
    holds = zigzag_holds(standard_duality(module.generators))
    _emit(
        {"module": name, "holds": holds},
        f"zigzag identities on {name}: {'hold' if holds else 'FAIL'}",
        args.format,
    )
    return OK if holds else MISMATCH


def _cmd_ctrace(args) -> int:
    doc = _load(args.matrix_file)
    name, f = _pick(doc.matrices, args.name, "matrix", args.matrix_file)
    if f.source != f.target:
        raise CliError(f"matrix {name} is not an endomorphism")
    t = categorical_trace(f)
    plain = free_trace(f)
    agrees = t.value == plain.value
    _emit(
        {
            "categorical": _trace_payload(t),
            "free": _trace_payload(plain),
            "agrees": agrees,
            "matrix": name,
        },
        f"categorical trace {name} = {t} (free trace {plain}, {'agree' if agrees else 'DISAGREE'})",
        args.format,
    )
    return OK if agrees else MISMATCH


def _cmd_check_additivity(args) -> int:
    doc = _load(args.ses_file)
    name, pkg = _pick(doc.sequences, args.name, "ses", args.ses_file)
    if pkg.left_endo is None or pkg.middle_endo is None:
        raise CliError(f"ses {name} needs both fA and fB to check additivity")
    try:
        report = additivity_defect(pkg.sequence, pkg.left_endo, pkg.middle_endo)
    except ValueError as exc:
        raise CliError(f"ses {name}: {exc}")
    zero = report.holds()
    _emit(
        {
            "ses": name,
            "left": _trace_payload(report.left),
            "middle": _trace_payload(report.middle),
            "right": _trace_payload(report.right),
            "defect": str(report.defect),
            "holds": zero,
        },
        (
            f"additivity on {name}: traces left={report.left}, middle={report.middle}, "
            f"right={report.right}; defect = {report.defect}"
        ),
        args.format,
    )
    return OK if zero else MISMATCH


def _cmd_lefschetz(args) -> int:
    if args.file:
        doc = _load(args.file)
        cases = dict(doc.cases)
    else:
        cases = builtin_catalog()
    if args.action == "list":
        if args.format == "json":
            print(
                json.dumps(
                    {n: {"title": c.title, "oracle": c.oracle_name} for n, c in cases.items()},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            for n, c in cases.items():
                print(f"{n:<28} {c.title}")
        return OK

    selected = [c for n, c in cases.items() if not args.filter or args.filter in n]
    if not selected:
        raise CliError(f"no case matches filter {args.filter!r}")
    report = run_suite(selected)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "cases": [
                        {
                            "name": r.name,
                            "title": r.title,
                            "engine": None if r.engine_value is None else str(r.engine_value),
                            "oracle": None if r.oracle_value is None else str(r.oracle_value),
                            "matched": r.matched,
                            "seconds": round(r.seconds, 6),
                            "error": r.error,
                        }
                        for r in report.reports
                    ],
                    "summary": report.summary(),
                    "ok": report.all_ok,
                },
                indent=2,
            )
        )
    else:
        for r in report.reports:
            print(r.line())
        print(report.summary())
    if report.errors:
        return BAD_INPUT
    return OK if report.all_ok else MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedtrace",
        description="exact traces of graded module endomorphisms",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--emit-grammar",
        action="store_true",
        help="print the input grammar and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add_format(p) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_trace = sub.add_parser("trace", help="trace of an endomorphism")
    trace_sub = p_trace.add_subparsers(dest="kind", required=True)
    p_free = trace_sub.add_parser("free", help="trace of a free-module matrix endo")
    p_free.add_argument("-m", "--matrix-file", required=True)
    p_free.add_argument("--name", help="matrix name (default: the only one)")
    add_format(p_free)
    p_hs = trace_sub.add_parser("hs", help="trace of a presented-module endo")
    p_hs.add_argument("-M", "--module-file", required=True)
    p_hs.add_argument("-f", "--hom-file", required=True)
    p_hs.add_argument("--module-name", help="module name (default: the only one)")
    p_hs.add_argument("--name", help="hom name (default: the only one)")
    p_hs.add_argument("--resolution", help="file with matrices d1, d2, ... to reuse")
    add_format(p_hs)

    p_resolve = sub.add_parser("resolve", help="free resolution of a module")
    p_resolve.add_argument("-f", "--file", required=True)
    p_resolve.add_argument("-m", "--name", help="module name (default: the only one)")
    p_resolve.add_argument("--max-length", type=int, default=32)
    add_format(p_resolve)

    p_zigzag = sub.add_parser("zigzag", help="duality snake identities on a free module")
    p_zigzag.add_argument("-A", "--module-file", required=True)
    p_zigzag.add_argument("--name", help="module name (default: the only one)")
    add_format(p_zigzag)

    p_ctrace = sub.add_parser("ctrace", help="categorical trace of a matrix endo")
    p_ctrace.add_argument("-f", "--matrix-file", required=True)
    p_ctrace.add_argument("--name", help="matrix name (default: the only one)")
    add_format(p_ctrace)

    p_add = sub.add_parser("check-additivity", help="trace additivity on a short exact sequence")
    p_add.add_argument("-s", "--ses-file", required=True)
    p_add.add_argument("--name", help="ses name (default: the only one)")
    add_format(p_add)

    p_lef = sub.add_parser("lefschetz", help="run or list the fixed-point catalog")
    p_lef.add_argument("action", choices=("run", "list"))
    p_lef.add_argument("--filter", help="substring selecting case names")
    p_lef.add_argument("-f", "--file", help="case document (default: builtin catalog)")
    add_format(p_lef)

    return parser


_HANDLERS = {
    "trace": _cmd_trace,
    "resolve": _cmd_resolve,
    "zigzag": _cmd_zigzag,
    "ctrace": _cmd_ctrace,
    "check-additivity": _cmd_check_additivity,
    "lefschetz": _cmd_lefschetz,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.emit_grammar:
        print(GRAMMAR, end="")
        return OK
    if not args.command:
        parser.print_help()
        return BAD_INPUT
    try:
        return _HANDLERS[args.command](args)
    except (CliError, ParseError, EngineError, ValueError, ResolutionTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
