"""Command-line surface for the trace engine.

Inputs are plain-text documents in the grammar printed by --emit-grammar.
Exit codes (also printed by --help): 0 everything checked out, 1 an
identity failed to hold, 2 bad input or an internal EngineError.

build_parser declares each leaf command once: its arguments, then --format,
then its handler as the parser default run, so argparse does the dispatch
and main calls args.run(args).  The table is built once per process and
reused by every call of main; argparse formats help and usage text only
when it prints them, so each printing follows the terminal width (COLUMNS)
of that moment.  Every handler but lefschetz answers through _emit, which
prints text or sorted JSON and returns the exit code.

    gradedtrace trace free -m endo.txt
    gradedtrace trace hs -M module.txt -f endo.txt
    gradedtrace resolve -f module.txt -m M
    gradedtrace zigzag -A module.txt
    gradedtrace ctrace -f endo.txt
    gradedtrace check-additivity -s sequence.txt
    gradedtrace lefschetz run --filter torus --format json
    gradedtrace lefschetz list --filter torus
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import textwrap

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
{textwrap.fill(_POWER_CAPS + ",", 75, initial_indent=" " * 5, subsequent_indent=" " * 5)}
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
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


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
    raise CliError(f"{path} declares more than one {what} ({known}); pick one with --name")


def _emit(payload: dict, text: str, fmt: str, holds: bool = True) -> int:
    """Print the answer in the chosen format; exit 0 if the identity held, else 1."""
    print(json.dumps(payload, indent=2, sort_keys=True) if fmt == "json" else text)
    return OK if holds else MISMATCH


def _trace_payload(t: TraceValue) -> dict:
    return {"value": str(t.value), "degree": t.degree}


def _matrix_endo(args) -> tuple[str, GradedMatrixHom]:
    """The matrix that trace free and ctrace read; it must be an endomorphism."""
    doc = _load(args.matrix_file)
    name, f = _pick(doc.matrices, args.name, "matrix", args.matrix_file)
    if f.source != f.target:
        raise CliError(f"matrix {name} is not an endomorphism")
    return name, f


def _cmd_trace_free(args) -> int:
    name, f = _matrix_endo(args)
    t = free_trace(f)
    return _emit({"trace": _trace_payload(t), "matrix": name}, f"trace {name} = {t}", args.format)


def _cmd_trace_hs(args) -> int:
    module_doc = _load(args.module_file)
    module_name, module = _pick(module_doc.modules, args.module_name, "module", args.module_file)
    # one file may hold both; parse it once, so the hom's source is the module itself
    hom_doc = module_doc if args.hom_file == args.module_file else _load(args.hom_file)
    hom_name, hom = _pick(hom_doc.homs, args.name, "hom", args.hom_file)
    if hom.source != module or hom.target != module:
        raise CliError(f"hom {hom_name} is not an endomorphism of module {module_name}")
    resolution = _resolution_from_file(args.resolution, module) if args.resolution else None
    t = hs_trace(hom, resolution=resolution)
    return _emit(
        {"trace": _trace_payload(t), "module": module_name, "hom": hom_name},
        f"trace {hom_name} on {module_name} = {t}",
        args.format,
    )


def _resolution_from_file(path: str, module) -> Resolution:
    """Rebuild a resolution from matrices named d1, d2, ... and verify it.

    Each di must be declared so that d1 maps into the generator module of
    the resolved module and consecutive sources chain up.
    """
    doc = _load(path)
    maps: list[GradedMatrixHom] = []
    while f"d{len(maps) + 1}" in doc.matrices:
        maps.append(doc.matrices[f"d{len(maps) + 1}"])
    if not maps:
        raise CliError(f"{path} declares no matrices named d1, d2, ...")
    if maps[0].target != module.generators:
        raise CliError("d1 must land in the generator module of the resolved module")
    try:
        res = Resolution(module, maps)
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
    text_steps = " -> ".join(f"rank {s['rank']} {s['shifts']}" for s in reversed(steps))
    return _emit(
        {"module": name, "length": res.length, "steps": steps, "verified": True},
        f"resolution of {name}: length {res.length}, {text_steps} (verified)",
        args.format,
    )


def _cmd_zigzag(args) -> int:
    doc = _load(args.module_file)
    name, module = _pick(doc.modules, args.name, "module", args.module_file)
    if module.relations.source.rank:
        raise CliError(f"module {name} is not free; zigzag works on free modules")
    holds = zigzag_holds(standard_duality(module.generators))
    text = f"zigzag identities on {name}: {'hold' if holds else 'FAIL'}"
    return _emit({"module": name, "holds": holds}, text, args.format, holds)


def _cmd_ctrace(args) -> int:
    name, f = _matrix_endo(args)
    t = categorical_trace(f)
    plain = free_trace(f)
    agrees = t.value == plain.value
    payload = {"categorical": _trace_payload(t), "free": _trace_payload(plain), "matrix": name}
    verdict = "agree" if agrees else "DISAGREE"
    text = f"categorical trace {name} = {t} (free trace {plain}, {verdict})"
    return _emit({**payload, "agrees": agrees}, text, args.format, agrees)


def _cmd_check_additivity(args) -> int:
    doc = _load(args.ses_file)
    name, pkg = _pick(doc.sequences, args.name, "ses", args.ses_file)
    if pkg.left_endo is None or pkg.middle_endo is None:
        raise CliError(f"ses {name} needs both fA and fB to check additivity")
    try:
        report = additivity_defect(pkg.sequence, pkg.left_endo, pkg.middle_endo)
    except ValueError as exc:
        raise CliError(f"ses {name}: {exc}")
    traces = {side: _trace_payload(getattr(report, side)) for side in ("left", "middle", "right")}
    holds = report.holds()
    return _emit(
        {"ses": name, **traces, "defect": str(report.defect), "holds": holds},
        f"additivity on {name}: traces left={report.left}, middle={report.middle}, "
        f"right={report.right}; defect = {report.defect}",
        args.format,
        holds,
    )


def _cmd_lefschetz(args) -> int:
    cases = _load(args.file).cases if args.file else builtin_catalog()
    if not cases:
        raise CliError(f"{args.file} declares no case")
    selected = {n: c for n, c in cases.items() if not args.filter or args.filter in n}
    if not selected:
        raise CliError(f"no case matches filter {args.filter!r}")
    if args.action == "list":
        if args.format == "json":
            listing = {n: {"title": c.title, "oracle": c.oracle_name} for n, c in selected.items()}
            print(json.dumps(listing, indent=2, sort_keys=True))
        else:
            for n, c in selected.items():
                print(f"{n:<28} {c.title}")
        return OK

    report = run_suite(list(selected.values()))
    if args.format == "json":
        rows = [
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
        ]
        suite = {"cases": rows, "summary": report.summary(), "ok": report.all_ok}
        print(json.dumps(suite, indent=2))
    else:
        print(*(r.line() for r in report.reports), report.summary(), sep="\n")
    if report.errors:
        return BAD_INPUT
    return OK if report.all_ok else MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The only place that knows the subcommands; built once per process."""
    parser = argparse.ArgumentParser(
        prog="gradedtrace",
        description="exact traces of graded module endomorphisms",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--emit-grammar", action="store_true",
                        help="print the input grammar and exit")
    sub = parser.add_subparsers(dest="command")
    required = {"required": True}

    def command(subparsers, name: str, help: str, run, *arguments) -> None:
        """Declare a leaf command; each argument is (*flags, add_argument options)."""
        p = subparsers.add_parser(name, help=help)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(run=run)

    def named(what: str, *flags: str) -> tuple:
        return (*(flags or ("--name",)), {"help": f"{what} name (default: the only one)"})

    trace = sub.add_parser("trace", help="trace of an endomorphism")
    trace_sub = trace.add_subparsers(dest="kind", required=True)
    command(trace_sub, "free", "trace of a free-module matrix endo", _cmd_trace_free,
            ("-m", "--matrix-file", required), named("matrix"))
    command(trace_sub, "hs", "trace of a presented-module endo", _cmd_trace_hs,
            ("-M", "--module-file", required), ("-f", "--hom-file", required),
            named("module", "--module-name"), named("hom"),
            ("--resolution", {"help": "file with matrices d1, d2, ... to reuse"}))
    command(sub, "resolve", "free resolution of a module", _cmd_resolve,
            ("-f", "--file", required), named("module", "-m", "--name"),
            ("--max-length", {"type": int, "default": 32}))
    command(sub, "zigzag", "duality snake identities on a free module", _cmd_zigzag,
            ("-A", "--module-file", required), named("module"))
    command(sub, "ctrace", "categorical trace of a matrix endo", _cmd_ctrace,
            ("-f", "--matrix-file", required), named("matrix"))
    command(sub, "check-additivity", "trace additivity on a short exact sequence",
            _cmd_check_additivity, ("-s", "--ses-file", required), named("ses"))
    command(sub, "lefschetz", "run or list the fixed-point catalog", _cmd_lefschetz,
            ("action", {"choices": ("run", "list")}),
            ("--filter", {"help": "substring selecting case names"}),
            ("-f", "--file", {"help": "case document (default: builtin catalog)"}))
    return parser


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
        return args.run(args)
    except (CliError, ParseError, EngineError, ValueError, ResolutionTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
