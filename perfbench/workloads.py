"""The four workloads: seeded inputs, the ops of one round, and their checks.

``build(name, gt, seed, out_dir)`` turns a seed into the round of one
workload.  ``gt`` is the imported gradedtrace package; everything random is
drawn here, as plain integers and term dictionaries, before any of it is
handed to the program, so the program sees only the generated inputs and
the checks in ``checks.py`` compare its answers with the raw data.

An op returns the program's objects untouched; its check runs after the
round, outside the timed region, and raises ``CheckFailed`` on a wrong
answer.  A kept failure is an op that fails on today's code; its ``run``
returns True when it failed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations_with_replacement

import checks
from checks import CheckFailed, require

WORKLOADS = ("poly-resolve", "int-presentations", "free-categorical", "cli-documents")

# The seed draws the entries of every input.  Sizes, shifts, degrees and
# which entries are nonzero come from this fixed seed instead, so that every
# seed asks for comparable work and the figures of two seeds compare.
SHAPE_SEED = 20110416

# A kept integer failure gets this long in its child process, interpreter
# start and import included.  Neither kept presentation finishes resolve
# within 5 s on a 2-core x86 machine, where the import takes about 0.1 s,
# so the deadline never cuts off an op that finishes today.
KEPT_DEADLINE_S = 1.0


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Kept:
    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


class Workload:
    def __init__(self, ops: list[Op], kept: list[Kept]):
        self.ops = ops
        self.kept = kept


# ---------------------------------------------------------------------------
# Raw random data
# ---------------------------------------------------------------------------

# name -> (kind, variable names, variable degrees, Z/2 graded)
RING_DATA = {
    "Z": ("integers", (), (), False),
    "Z mod2": ("integers", (), (), True),
    "Z[x,y]": ("polynomial", ("x", "y"), (2, 2), False),
    "Z[t,1/t]": ("laurent", ("t",), (2,), False),
    "Z[t,1/t] mod2": ("laurent", ("t",), (2,), True),
}


def make_ring(gt, name: str):
    kind, names, degrees, z2 = RING_DATA[name]
    grading = gt.GRADING_Z2 if z2 else gt.GRADING_Z
    if kind == "integers":
        return gt.integers(grading)
    make = gt.polynomial_ring if kind == "polynomial" else gt.laurent_ring
    return make(list(names), list(degrees), grading)


def homogeneous_terms(rng: random.Random, ring_name: str, degree: int, max_terms: int = 2) -> dict:
    """A random nonzero homogeneous element of the given degree, or {} if none exists."""
    kind, names, weights, z2 = RING_DATA[ring_name]
    if degree % 2:
        return {}
    if kind == "integers":
        if degree and not z2:
            return {}
        monos = [()]
    elif kind == "polynomial":
        if degree < 0:
            return {}
        monos = [
            tuple(combo.count(v) for v in range(len(names)))
            for combo in combinations_with_replacement(range(len(names)), degree // weights[0])
        ]
    elif z2:
        monos = [(e,) for e in (-1, 0, 1)]
    else:
        monos = [(degree // weights[0],)]
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        checks.poly_add(terms, {rng.choice(monos): rng.choice((-3, -2, -1, 1, 2, 3))})
    return terms or {monos[0]: 1}


def shapes(max_gens: int, max_rels: int):
    """Every (generators, relations) pair up to the maxima, round and round."""
    return itertools.cycle(
        [(g, r) for g in range(1, max_gens + 1) for r in range(1, max_rels + 1)]
    )


def random_presentation(shape: random.Random, rng: random.Random, ring_name: str, gens: int, rels: int, max_terms: int = 2):
    """(generator shifts, relation columns of raw entries), every column nonzero.

    `shape` draws the shifts and which entries are nonzero, `rng` the entries.
    """
    shifts = [shape.choice((0, 0, -2, 1)) for _ in range(gens)]
    columns = []
    for _ in range(rels):
        anchor = shape.randrange(gens)
        k = -shifts[anchor] + 2 * shape.randint(0, 1)
        lead = homogeneous_terms(rng, ring_name, k + shifts[anchor], max_terms)
        if not lead:  # no element of that degree: fall back to constants
            k = -shifts[anchor]
            lead = homogeneous_terms(rng, ring_name, 0, max_terms)
        columns.append([
            lead if i == anchor else homogeneous_terms(rng, ring_name, k + s, max_terms) if shape.random() < 0.6 else {}
            for i, s in enumerate(shifts)
        ])
    return shifts, columns


def mpower_columns(n: int, d: int) -> list[list[dict]]:
    """The monomial generators of m^d in n variables, one column each."""
    return [
        [{tuple(combo.count(v) for v in range(n)): 1}]
        for combo in combinations_with_replacement(range(n), d)
    ]


def presented(gt, ring, shifts, columns):
    return gt.presented_module(ring, shifts, [[ring.element(e) for e in col] for col in columns])


def scalar_endo(gt, module, c: int):
    ring = module.ring
    r = module.generators.rank
    return gt.module_hom(module, module, 0, [[ring.const(c if i == j else 0) for i in range(r)] for j in range(r)])


# ---------------------------------------------------------------------------
# poly-resolve and int-presentations: resolve, verify, trace
# ---------------------------------------------------------------------------


def resolve_op(gt, name, module, endo, scalar, signed_rank, mpower=None, matrix=None):
    """resolve, verify_resolution, then hs_trace with the resolution supplied.

    With `matrix` (integer relation rows), smith_normal_form runs first.
    `signed_rank` is a cached callable, so that references are computed
    once, on first use, outside the timed region.
    """
    smith = functools.cache(lambda: checks.smith_diagonal(matrix))

    def run():
        snf = gt.smith_normal_form(matrix) if matrix is not None else None
        res = gt.resolve(module)
        gt.verify_resolution(res)
        return snf, res, gt.hs_trace(endo, resolution=res)

    def check(out):
        snf, res, tr = out
        shifts = [list(m.shifts) for m in res.modules]
        if snf is not None:
            checks.check_smith_diagonal(smith(), snf.diagonal)
        if mpower is not None:
            checks.check_mpower_resolution(shifts, *mpower)
        sr = signed_rank()
        require(
            checks.resolution_signed_rank(shifts) == sr,
            f"{name}: resolution has signed rank {checks.resolution_signed_rank(shifts)}, elimination gives {sr}",
        )
        require(tr.degree == 0, f"{name}: trace has degree {tr.degree}")
        checks.check_scalar_trace(tr.value.terms(), scalar, sr, name)

    return Op(name, run, check)


def presentation_op(gt, rng, name, ring_name, shifts, columns, with_snf=False):
    ring = make_ring(gt, ring_name)
    module = presented(gt, ring, shifts, columns)
    scalar = rng.randint(2, 9)
    endo = scalar_endo(gt, module, scalar)
    matrix = [[col[i].get((), 0) for col in columns] for i in range(len(shifts))] if with_snf else None
    signed_rank = functools.cache(lambda: checks.signed_rank(shifts, columns))
    return resolve_op(gt, name, module, endo, scalar, signed_rank, matrix=matrix)


MPOWERS = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (4, 3))
# m^2 in three variables under 45 more weightings: the Groebner work of
# (3, 2) on inputs that do not depend on the seed.  They are about a ninth
# of the ops and cost more than most random presentations, so p90 falls
# among them instead of in the seed-dependent tail of the random ones.
WEIGHTINGS = [w for w in itertools.product((2, 4, 6, 8), repeat=3) if w != (2, 2, 2)][:45]
# Largest random presentation per ring: (generators, relations, terms per
# entry).  Larger ones stall the Groebner engine on some seeds: 5 x 5 over
# Z[t,1/t], and over Z[t,1/t] mod2 even 1 x 2 with two-term entries.
PRESENTATION_SIZES = {
    "Z": (3, 3, 1),
    "Z[x,y]": (4, 3, 2),
    "Z[t,1/t]": (3, 3, 2),
    "Z[t,1/t] mod2": (2, 2, 1),
}
POLY_RINGS = ("Z[x,y]", "Z[t,1/t]", "Z[t,1/t] mod2")
POLY_RANDOM_PER_RING = 120
# Each random presentation is visited this often per round: they take about
# 2.5 ms each and set p50, so more visits steady it at little cost.
POLY_RANDOM_VISITS = 2


def build_poly_resolve(gt, seed: int, out_dir: str) -> Workload:
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    ops = []
    ladder = [(d, (2,) * n) for n, d in MPOWERS] + [(2, w) for w in WEIGHTINGS]
    for d, weights in ladder:
        n = len(weights)
        ring = gt.polynomial_ring([f"x{i}" for i in range(n)], list(weights))
        columns = mpower_columns(n, d)
        module = presented(gt, ring, [0], columns)
        scalar = rng.randint(2, 9)
        ops.append(
            resolve_op(
                gt, f"m{d}-weights-{'-'.join(map(str, weights))}", module, scalar_endo(gt, module, scalar), scalar,
                functools.cache(lambda columns=columns: checks.signed_rank([0], columns)), (d, weights),
            )
        )
    randoms = []
    for ring_name in POLY_RINGS:
        max_gens, max_rels, max_terms = PRESENTATION_SIZES[ring_name]
        sizes = shapes(max_gens, max_rels)
        for k in range(POLY_RANDOM_PER_RING):
            shifts, columns = random_presentation(shape, rng, ring_name, *next(sizes), max_terms)
            randoms.append(presentation_op(gt, rng, f"random-{k}-{ring_name}", ring_name, shifts, columns))
    return Workload(ops + randoms * POLY_RANDOM_VISITS, [])


def random_int_presentation(shape: random.Random, rng: random.Random, ring_name: str, gens: int, rels: int, bound: int):
    """Integer relations; over Z/2 the generators split into two parity classes."""
    if ring_name == "Z":
        shifts = [0] * gens
    else:
        shifts = [shape.randint(0, 1) for _ in range(gens)]
    columns = []
    for _ in range(rels):
        parity = shifts[shape.randrange(gens)] % 2
        col = [{(): rng.randint(-bound, bound)} if s % 2 == parity else {} for s in shifts]
        columns.append([e if e.get((), 0) else {} for e in col])
    return shifts, columns


# The two integer presentations that do not finish on today's code; their
# columns are relation columns over Z, all generators of shift 0.
KEPT_INT = {
    "roadmap-6x6": [
        [-2, 9, -2, 3, -9, -9], [9, -7, -3, -5, -7, -1], [8, -9, 6, -2, -4, 6],
        [-5, 6, 8, -5, 9, 3], [2, -1, 8, 7, -8, 4], [6, 8, 6, 3, 0, 3],
    ],
    "slow-4x6": [
        [-2, -9, -3, -8], [3, 5, -3, 0], [7, -6, -3, -2],
        [-8, -5, -8, -7], [-7, 9, 1, -5], [-9, -3, -1, 8],
    ],
}

INT_SMALL_PER_ROUND = 150
INT_SIX_PER_ROUND = 50
# Each presentation is visited this often per round.  An op takes about
# 3 ms, so without repeats the two kept failures (up to 2 x KEPT_DEADLINE_S
# per round) would take most of a run.
INT_VISITS = 20


# Up to 5 generators, entries up to 9, at most one relation more than
# generators; 5 x 6 is left out because it stalls smith_normal_form on some
# seeds.
INT_SHAPES = [(g, r) for g in range(1, 6) for r in range(1, min(g + 1, 5) + 1)]


def build_int_presentations(gt, seed: int, out_dir: str) -> Workload:
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    ops = []
    for k in range(INT_SMALL_PER_ROUND):
        ring_name = ("Z", "Z mod2")[k % 2]
        gens, rels = INT_SHAPES[k % len(INT_SHAPES)]
        shifts, columns = random_int_presentation(shape, rng, ring_name, gens, rels, 9)
        ops.append(presentation_op(gt, rng, f"random-{k}-{gens}x{rels}-{ring_name}", ring_name, shifts, columns, with_snf=True))
    for k in range(INT_SIX_PER_ROUND):
        ring_name = ("Z", "Z mod2")[k % 2]
        # entries up to 5 stall smith_normal_form on about one 6 x 6 matrix in 2000
        shifts, columns = random_int_presentation(shape, rng, ring_name, 6, 6, 4)
        ops.append(presentation_op(gt, rng, f"random6-{k}-{ring_name}", ring_name, shifts, columns, with_snf=True))
    kept = [Kept(f"kept-{name}", lambda name=name: run_kept_child(name)) for name in KEPT_INT]
    return Workload(ops * INT_VISITS, kept)


def run_kept_child(name: str) -> bool:
    """Run one kept integer presentation in a child under the deadline.

    Returns True when it failed: the deadline passed or the program raised.
    A finished op whose answer is wrong raises CheckFailed.
    """
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"), "--kept-child", name]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=KEPT_DEADLINE_S)
    except subprocess.TimeoutExpired:
        return True
    if proc.returncode != 0:
        return True
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    require(verdict["ok"], f"kept-{name}: {verdict.get('error')}")
    return False


def kept_child(gt, name: str) -> dict:
    """The body of a kept integer op, run inside the child process."""
    columns = [[{(): v} if v else {} for v in col] for col in KEPT_INT[name]]
    op = presentation_op(gt, random.Random(0), f"kept-{name}", "Z", [0] * len(columns[0]), columns, with_snf=True)
    out = op.run()
    try:
        op.check(out)
    except CheckFailed as exc:
        return {"ok": False, "error": str(exc)}
    return {"ok": True}


# ---------------------------------------------------------------------------
# free-categorical
# ---------------------------------------------------------------------------

FREE_RINGS = ("Z", "Z[x,y]", "Z[t,1/t]")
# Ranks of one ring's ops in a round: 102 ops in all, so that p90 has ten
# ops beyond it.  p50 falls in the middle of the rank-5 ops, which sort by
# ring, and p90 inside the rank-7 ops; a round takes about 4.5 s, so a run
# sees each op four or five times.
FREE_RANKS = (4,) * 12 + (5,) * 10 + (6,) * 8 + (7,) * 3 + (8,)


def random_endo_data(shape: random.Random, rng: random.Random, ring_name: str, rank: int):
    """(shifts, degree, rows of raw entries); `shape` draws all but the entries."""
    shifts = [shape.randint(-3, 3) for _ in range(rank)]
    degree = shape.choice((0, 0, 1, 2))
    rows = [
        [
            homogeneous_terms(rng, ring_name, shifts[i] - shifts[j] + degree) if shape.random() < 0.6 else {}
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    return shifts, degree, rows


def free_endo(gt, ring, shifts, degree, rows):
    module = gt.GradedFreeModule(ring, tuple(shifts))
    return gt.GradedMatrixHom(module, module, degree, [[ring.element(e) for e in row] for row in rows])


def categorical_op(gt, name, f, shifts, degree, rows):
    def run():
        ct = gt.categorical_trace(f)
        left, right = gt.zigzag_defects(gt.standard_duality(f.source))
        return ct, left, right

    def check(out):
        ct, left, right = out
        want = checks.signed_diagonal(shifts, [rows[i][i] for i in range(len(shifts))])
        require(ct.value.terms() == want, f"{name}: categorical trace {ct.value.terms()} differs from {want}")
        require(ct.degree == degree, f"{name}: trace degree {ct.degree}, map degree {degree}")
        for defect in (left, right):
            require(all(not e.terms() for row in defect.entries for e in row), f"{name}: zigzag defect is nonzero")

    return Op(name, run, check)


def build_free_categorical(gt, seed: int, out_dir: str) -> Workload:
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    ops = []
    for ring_name in FREE_RINGS:
        ring = make_ring(gt, ring_name)
        for k, rank in enumerate(FREE_RANKS):
            shifts, degree, rows = random_endo_data(shape, rng, ring_name, rank)
            f = free_endo(gt, ring, shifts, degree, rows)
            ops.append(categorical_op(gt, f"rank{rank}-{k}-{ring_name}", f, shifts, degree, rows))
    return Workload(ops, [])


# ---------------------------------------------------------------------------
# cli-documents
# ---------------------------------------------------------------------------


def term_source(exp: tuple[int, ...], c: int, names: tuple[str, ...]) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
    return "*".join([str(c)] + factors) if c != 1 or not factors else "*".join(factors)


def element_source(terms: dict, names: tuple[str, ...]) -> str:
    if not terms:
        return "0"
    return " + ".join(term_source(exp, c, names) for exp, c in sorted(terms.items()))


def table_source(rows, names) -> str:
    return "[" + ", ".join("[" + ", ".join(element_source(e, names) for e in row) + "]" for row in rows) + "]"


def ring_source(ring_name: str) -> str:
    kind, names, degrees, z2 = RING_DATA[ring_name]
    gens = []
    for n, d in zip(names, degrees):
        gens.append(f"{n}:{d}")
        if kind == "laurent":
            gens.append(f"{n}^-1")
    body = "Z" + (f"[{','.join(gens)}]" if gens else "")
    return f"ring {body}{' mod2' if z2 else ''};"


def module_source(name: str, shifts, columns, names) -> str:
    rels = f" rels {table_source(columns, names)};" if columns else ""
    return f"module {name} {{ gens [{', '.join(map(str, shifts))}];{rels} }}"


def scalar_rows_for(ring_name: str, rank: int, c: int) -> list[list[dict]]:
    nvars = len(RING_DATA[ring_name][1])
    return [[{(0,) * nvars: c} if i == j else {} for j in range(rank)] for i in range(rank)]


CLI_FREE_PER_RING = 8
CLI_MODULES_PER_RING = 4
CLI_RINGS = ("Z", "Z[x,y]", "Z[t,1/t] mod2")
DEEP_NESTING = 2000


def cli_documents(seed: int) -> tuple[dict, list]:
    """Document texts by file name, and the calls of one round.

    A call is (argv, check kind, expected data).  Every call names one
    object of a multi-object document, so each parses the whole file.
    """
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    free_doc, module_doc, ses_doc = [], [], []
    calls: list = []
    formats = itertools.cycle(("text", "json"))
    for ring_name in CLI_RINGS:
        names = RING_DATA[ring_name][1]
        free_doc.append(ring_source(ring_name))
        module_doc.append(ring_source(ring_name))
        for k in range(CLI_FREE_PER_RING):
            tag = len(free_doc)
            rank = 2 + k % 4
            shifts, degree, rows = random_endo_data(shape, rng, ring_name, rank)
            free_doc.append(f"free P{tag} [{', '.join(map(str, shifts))}];")
            free_doc.append(f"matrix F{tag} : P{tag} -> P{tag} {{ degree {degree}; rows {table_source(rows, names)}; }}")
            expected = {"names": names, "degree": degree, "value": checks.signed_diagonal(shifts, [rows[i][i] for i in range(rank)])}
            for verb in (["trace", "free", "-m"], ["ctrace", "-f"]):
                calls.append((verb + ["free.txt", "--name", f"F{tag}", "--format", next(formats)], verb[0], expected))
            calls.append((["zigzag", "-A", "free.txt", "--name", f"P{tag}", "--format", next(formats)], "zigzag", None))
        max_gens, max_rels, max_terms = PRESENTATION_SIZES[ring_name]
        sizes = shapes(max_gens, max_rels)
        for k in range(CLI_MODULES_PER_RING):
            tag = len(module_doc)
            shifts, columns = random_presentation(shape, rng, ring_name, *next(sizes), max_terms)
            c = rng.randint(2, 9)
            module_doc.append(module_source(f"M{tag}", shifts, columns, names))
            module_doc.append(
                f"hom h{tag} : M{tag} -> M{tag} {{ degree 0; lift {table_source(scalar_rows_for(ring_name, len(shifts), c), names)}; }}"
            )
            expected = {"shifts": shifts, "columns": columns, "scalar": c}
            calls.append((["trace", "hs", "-M", "modules.txt", "-f", "modules.txt", "--module-name", f"M{tag}",
                           "--name", f"h{tag}", "--format", next(formats)], "hs", expected))
            calls.append((["resolve", "-f", "modules.txt", "-m", f"M{tag}", "--format", next(formats)], "resolve", expected))
    # Exact sequences 0 -> Z --m--> Z -> Z/m -> 0 and 0 -> S[-2] --x--> S -> S/(x) -> 0
    # with scalar endomorphisms: every trace is c times a signed rank.
    for k in range(4):
        c = rng.randint(2, 9)
        if k % 2 == 0:
            ses_doc.append("ring Z;")
            a, left_shift = str(rng.randint(2, 9)), 0
        else:
            ses_doc.append("ring Z[x:2];")
            a, left_shift = "x", -2
        ses_doc.append(f"free A{k} [{left_shift}];")
        ses_doc.append(f"free B{k} [0];")
        ses_doc.append(f"module C{k} {{ gens [0]; rels [[{a}]]; }}")
        ses_doc.append(f"ses S{k} {{ modules A{k}, B{k}, C{k}; a [[{a}]]; b [[1]]; fA [[{c}]]; fB [[{c}]]; }}")
        calls.append((["check-additivity", "-s", "sequences.txt", "--name", f"S{k}", "--format", next(formats)],
                      "additivity", {"scalar": c, "signed": (1, 1, 0)}))
    for fmt in ("text", "json"):
        calls.append((["lefschetz", "run", "--format", fmt], "lefschetz", None))
    docs = {
        "free.txt": "\n".join(free_doc) + "\n",
        "modules.txt": "\n".join(module_doc) + "\n",
        "sequences.txt": "\n".join(ses_doc) + "\n",
        # kept failures: inputs that do not depend on the seed
        "deep.txt": "ring Z;\nfree P [0];\nmatrix F : P -> P { rows [[" + "(" * DEEP_NESTING + "1" + ")" * DEEP_NESTING + "]]; }\n",
        "xy.txt": "ring Z[x:2,y:2];\nmodule M { gens [0]; rels [[x], [y]]; }\n",
    }
    return docs, calls


KEPT_CLI = {
    "deep-nesting": ["trace", "free", "-m", "deep.txt"],
    "resolve-max-length-1": ["resolve", "-f", "xy.txt", "--max-length", "1"],
}


def call_cli(gt, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gt.cli.main(argv)
    return rc, out.getvalue()


_TEXT_TRACE = re.compile(r"= (.*) \(degree (-?\d+)\)$")
_TEXT_CTRACE = re.compile(r"= (.*) \(degree (-?\d+)\) \(free trace (.*) \(degree (-?\d+)\), (agree|DISAGREE)\)$")


def check_cli(name: str, argv, kind: str, expected, rc: int, text: str) -> None:
    require(rc == 0, f"{name}: exit code {rc}")
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    payload = json.loads(text) if fmt == "json" else None
    line = text.strip().splitlines()[-1] if text.strip() else ""
    if kind in ("trace", "ctrace"):
        names = expected["names"]
        if payload is not None:
            values = [payload["trace"]] if kind == "trace" else [payload["categorical"], payload["free"]]
            if kind == "ctrace":
                require(payload["agrees"] is True, f"{name}: agrees is {payload['agrees']}")
            readings = [(v["value"], v["degree"]) for v in values]
        else:
            m = (_TEXT_TRACE if kind == "trace" else _TEXT_CTRACE).search(line)
            require(m is not None, f"{name}: cannot read {line!r}")
            readings = [(m.group(1), int(m.group(2)))]
            if kind == "ctrace":
                require(m.group(5) == "agree", f"{name}: {line!r}")
                readings.append((m.group(3), int(m.group(4))))
        for value, degree in readings:
            require(checks.parse_element(value, names) == expected["value"], f"{name}: trace {value!r}, want {expected['value']}")
            require(degree == expected["degree"], f"{name}: degree {degree}, want {expected['degree']}")
    elif kind == "zigzag":
        require(payload["holds"] is True if payload is not None else line.endswith(": hold"), f"{name}: {text!r}")
    elif kind in ("hs", "resolve"):
        sr = checks.signed_rank(expected["shifts"], expected["columns"])
        if kind == "hs":
            value = payload["trace"]["value"] if payload is not None else _TEXT_TRACE.search(line).group(1)
            require(value == str(expected["scalar"] * sr), f"{name}: trace {value!r}, want {expected['scalar'] * sr}")
        else:
            if payload is not None:
                require(payload["verified"] is True, f"{name}: not verified")
                shifts = [step["shifts"] for step in payload["steps"]]
            else:
                steps = re.findall(r"rank \d+ \[([^\]]*)\]", line)
                shifts = [[int(s) for s in step.split(",") if s.strip()] for step in reversed(steps)]
            require(checks.resolution_signed_rank(shifts) == sr, f"{name}: resolution {shifts} has the wrong signed rank, want {sr}")
    elif kind == "additivity":
        c = expected["scalar"]
        if payload is not None:
            require(payload["holds"] is True and payload["defect"] == "0", f"{name}: defect {payload['defect']}")
            got = [payload[k]["value"] for k in ("left", "middle", "right")]
        else:
            require(line.endswith("defect = 0"), f"{name}: {line!r}")
            got = re.findall(r"(?:left|middle|right)=(.*?) \(degree", line)
        require(got == [str(c * s) for s in expected["signed"]], f"{name}: traces {got}")
    elif kind == "lefschetz":
        if payload is not None:
            require(payload["ok"] is True and all(case["matched"] for case in payload["cases"]), f"{name}: a catalog case failed")
            require(len(payload["cases"]) > 0, f"{name}: empty catalog")
        else:
            m = re.match(r"(\d+)/(\d+) matched, 0 mismatched, 0 errors$", line)
            require(m is not None and m.group(1) == m.group(2), f"{name}: {line!r}")


def build_cli_documents(gt, seed: int, out_dir: str) -> Workload:
    docs, calls = cli_documents(seed)
    doc_dir = os.path.join(out_dir, f"cli-docs-seed{seed}")
    write_documents(docs, doc_dir)
    for fname in ("free.txt", "modules.txt", "sequences.txt"):
        gt.parse_file(os.path.join(doc_dir, fname))
    def paths(argv):
        return [os.path.join(doc_dir, a) if a.endswith(".txt") else a for a in argv]

    ops = []
    for argv, kind, expected in calls:
        name = " ".join(argv)

        def run(argv=paths(argv)):
            return call_cli(gt, argv)

        def check(out, name=name, argv=argv, kind=kind, expected=expected):
            check_cli(name, argv, kind, expected, *out)

        ops.append(Op(name, run, check))
    kept = [
        Kept(f"kept-{name}", lambda argv=paths(argv): kept_cli_failed(gt, argv))
        for name, argv in KEPT_CLI.items()
    ]
    return Workload(ops, kept)


def kept_cli_failed(gt, argv) -> bool:
    """Bad input must end in exit code 2; anything else is a failure."""
    try:
        rc, _ = call_cli(gt, argv)
    except Exception:  # the fault being kept: an exception escapes main
        return True
    return rc != 2


def write_documents(docs: dict, doc_dir: str) -> None:
    os.makedirs(doc_dir, exist_ok=True)
    for fname, text in docs.items():
        with open(os.path.join(doc_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)


BUILDERS = {
    "poly-resolve": build_poly_resolve,
    "int-presentations": build_int_presentations,
    "free-categorical": build_free_categorical,
    "cli-documents": build_cli_documents,
}


def build(name: str, gt, seed: int, out_dir: str) -> Workload:
    return BUILDERS[name](gt, seed, out_dir)
