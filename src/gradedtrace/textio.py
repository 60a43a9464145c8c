"""Plain-text format for rings, modules, maps, and worked examples.

The same grammar serves the shipped example catalog, the command line, and
test fixtures.  A document is a sequence of statements; a `ring` statement
sets the coefficient ring for everything that follows until the next one.

    ring Z[t:0,t^-1] mod2;
    free P [0, -1];
    module M {
      gens [0];
      rels [[t - 1]];
    }
    matrix f : P -> P { degree 0; rows [[1, 0], [t, 1]]; }
    hom g : M -> M { degree 0; lift [[t]]; }
    ses S { modules A, B, C; a [[1]]; b [[1, 0]]; fB [[0, 1], [1, 0]]; }
    case spin {
      title "rotation acting on a rank-one quotient";
      even g; odd zero_g;
      oracle weight_sum [t];
      note "trace of multiplication by t";
    }

Matrix literals are lists of rows (rows index the target); relation lists
are lists of columns.  Element expressions use integer literals, declared
generators, +, -, *, ^ and parentheses; exponents may be negative only when
the generator is invertible.  Comments run from '#' to end of line.

Parsing is strict: every object is rebuilt through the library constructors,
so shape, homogeneity, and well-definedness failures surface as ParseError
with a line and column.  The printers emit exactly this grammar, and
parse(print(x)) reproduces x.

Lexing is one scan of the compiled `_TOKEN_RE` over the whole text.  Each
match skips blanks and comments, then takes one token, the end of input, or
any single other character, which `_tokenize` rejects afterwards.  Tokens
are their texts, the end token is "", and the parser keeps token indices as
anchors; a line and column are computed only when a ParseError is raised,
by scanning again up to the anchor.  Every match succeeds at its first try,
so the scan never backtracks and takes linear time.  Its peak memory grows
by about 200 bytes per consecutive comment line: the regex engine keeps
state for each repeat of the comment skip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NoReturn

from .freemod import GradedFreeModule, GradedMatrixHom
from .lefschetz import ExampleCase
from .modules import (
    ModuleHom,
    PresentedModule,
    free_presentation,
    presented_module,
    relation_hom_from_columns,
)
from .oracles import ORACLES
from .rings import (
    GRADING_Z,
    GRADING_Z2,
    RingElement,
    RingMap,
    RingSpec,
    integers,
    laurent_ring,
    polynomial_ring,
)
from .trace import ShortExactSequence


class ParseError(ValueError):
    """Input rejected, with source position."""

    def __init__(self, message: str, filename: str = "<input>", line: int = 0, col: int = 0):
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


# name, int, string, arrow, punct: the first alternative that matches wins
_TOKEN = r"""[A-Za-z_][A-Za-z0-9_]*|[0-9]+|"(?:[^"\\\n]|\\.)*"|->|[{}\[\]():;,+\-*^]"""
_VALID_TOKEN_RE = re.compile(_TOKEN)
# The skip is greedy and the group cannot fail after it, so no match ever
# backtracks into a comment or retries a shorter run of blanks.
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(" + _TOKEN + r"|\Z|.)")


def _tokenize(source: str, filename: str) -> list[str]:
    tokens = _TOKEN_RE.findall(source)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()  # trailing blanks end in a second, empty match
    bad = [t for t in set(tokens) if t and not _VALID_TOKEN_RE.fullmatch(t)]
    if bad:
        index = min(map(tokens.index, bad))
        line, col = _position(source, index)
        raise ParseError(f"unexpected character {tokens[index]!r}", filename, line, col)
    return tokens


def _position(source: str, index: int) -> tuple[int, int]:
    """Line and column of token number index; for error reports only."""
    offset = next(islice(_TOKEN_RE.finditer(source), index, None)).start(1)
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


# a validated token's kind shows in its text; the end token "" has none
_KINDS: dict[str, Callable[[str], bool]] = {
    "name": str.isidentifier, "int": str.isdigit, "string": lambda t: t[:1] == '"', "arrow": "->".__eq__
}


def _unescape(raw: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], raw[1:-1])


def _escape(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


@dataclass
class SequencePackage:
    """A validated short exact sequence plus optional compatible endos."""

    sequence: ShortExactSequence
    left_endo: ModuleHom | None = None
    middle_endo: ModuleHom | None = None


@dataclass
class Document:
    """Everything a source text declares, by name, in declaration order."""

    modules: dict[str, PresentedModule] = field(default_factory=dict)
    matrices: dict[str, GradedMatrixHom] = field(default_factory=dict)
    homs: dict[str, ModuleHom] = field(default_factory=dict)
    sequences: dict[str, SequencePackage] = field(default_factory=dict)
    cases: dict[str, ExampleCase] = field(default_factory=dict)
    ring: RingSpec | None = None  # ring in effect after the last statement


_STATEMENTS = ("ring", "free", "module", "matrix", "hom", "ses", "case")

# Parentheses, unary minus and payload brackets each open one level.  The
# parser recurses at most four frames per level, so this cap keeps every
# document far below the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str, filename: str):
        self.source = source
        self.tokens = _tokenize(source, filename)
        self.pos = 0
        self.filename = filename
        self.doc = Document()
        self.depth = 0

    # token plumbing: tokens are texts, anchors are token indices

    def _peek(self) -> str:
        return self.tokens[self.pos]

    def _advance(self) -> int:
        """Step past a statement keyword; return its index as the anchor."""
        self.pos += 1
        return self.pos - 1

    def _fail(self, anchor: int, message: str) -> NoReturn:
        line, col = _position(self.source, anchor)
        raise ParseError(message, self.filename, line, col)

    def _expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self._unexpected(text)
        self.pos += 1

    def _expect_kind(self, kind: str) -> str:
        tok = self.tokens[self.pos]
        if not _KINDS[kind](tok):
            self._unexpected(kind)
        self.pos += 1
        return tok

    def _unexpected(self, want: str) -> NoReturn:
        got = self.tokens[self.pos] or "end of input"
        self._fail(self.pos, f"expected {want!r}, got {got!r}")

    def _accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _descend(self, anchor: int) -> None:
        """Open one nesting level at anchor; the caller closes it on return."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail(anchor, f"nested more than {MAX_NESTING} levels deep")

    # small literals

    def _signed_int(self) -> int:
        neg = self._accept("-")
        value = int(self._expect_kind("int"))
        return -value if neg else value

    def _int_list(self) -> list[int]:
        self._expect("[")
        items: list[int] = []
        if not self._accept("]"):
            items.append(self._signed_int())
            while self._accept(","):
                items.append(self._signed_int())
            self._expect("]")
        return items

    def _string(self) -> str:
        return _unescape(self._expect_kind("string"))

    # ring specifications

    def _ring_spec(self) -> RingSpec:
        anchor = self.pos
        self._expect("Z")
        names: list[str] = []
        degrees: list[int] = []
        inverted: set[str] = set()
        if self._accept("["):
            while True:
                at = self.pos
                name = self._expect_kind("name")
                if self._accept("^"):
                    self._expect("-")
                    if self._expect_kind("int") != "1":
                        self._fail(self.pos - 1, "only ^-1 marks an invertible generator")
                    if name not in names:
                        self._fail(at, f"{name}^-1 before {name} is declared")
                    inverted.add(name)
                else:
                    if name in names:
                        self._fail(at, f"generator {name} declared twice")
                    self._expect(":")
                    names.append(name)
                    degrees.append(self._signed_int())
                if not self._accept(","):
                    break
            self._expect("]")
        grading = GRADING_Z2 if self._accept("mod2") else GRADING_Z
        try:
            if not names:
                if inverted:
                    self._fail(anchor, "no generators to invert")
                return integers(grading)
            if inverted and inverted != set(names):
                missing = sorted(set(names) - inverted)
                self._fail(anchor, f"either all generators are invertible or none; missing {missing}")
            if inverted:
                return laurent_ring(names, degrees, grading)
            return polynomial_ring(names, degrees, grading)
        except ValueError as exc:
            self._fail(anchor, str(exc))

    def _current_ring(self, anchor: int) -> RingSpec:
        if self.doc.ring is None:
            self._fail(anchor, "no ring declared yet; add a 'ring ...;' statement first")
        return self.doc.ring

    # element expressions

    def _element(self, ring: RingSpec) -> RingElement:
        value = self._element_term(ring)
        while True:
            if self._accept("+"):
                value = value + self._element_term(ring)
            elif self._accept("-"):
                value = value - self._element_term(ring)
            else:
                return value

    def _element_term(self, ring: RingSpec) -> RingElement:
        value = self._element_factor(ring)
        while self._accept("*"):
            value = value * self._element_factor(ring)
        return value

    def _element_factor(self, ring: RingSpec) -> RingElement:
        at = self.pos
        if self._accept("-"):
            self._descend(at)
            value = -self._element_factor(ring)
            self.depth -= 1
            return value
        base = self._element_atom(ring)
        if self._accept("^"):
            at = self.pos
            power = self._signed_int()
            try:
                return base ** power
            except ValueError as exc:
                self._fail(at, str(exc))
        return base

    def _element_atom(self, ring: RingSpec) -> RingElement:
        at = self.pos
        tok = self.tokens[at]
        if tok.isdigit():
            self.pos += 1
            return ring.const(int(tok))
        if tok.isidentifier():
            self.pos += 1
            if tok not in ring.var_names:
                self._fail(at, f"unknown generator {tok!r} in ring {ring}")
            return ring.gen(tok)
        if tok == "(":
            self.pos += 1
            self._descend(at)
            value = self._element(ring)
            self._expect(")")
            self.depth -= 1
            return value
        self._fail(at, f"expected an element, got {tok!r}")

    # nested list literals over a ring: rows of a matrix, or oracle payloads

    def _element_list(self, ring: RingSpec) -> list[RingElement]:
        self._expect("[")
        items: list[RingElement] = []
        if not self._accept("]"):
            items.append(self._element(ring))
            while self._accept(","):
                items.append(self._element(ring))
            self._expect("]")
        return items

    def _element_table(self, ring: RingSpec) -> list[list[RingElement]]:
        self._expect("[")
        rows: list[list[RingElement]] = []
        if not self._accept("]"):
            rows.append(self._element_list(ring))
            while self._accept(","):
                rows.append(self._element_list(ring))
            self._expect("]")
        return rows

    def _payload_item(self, ring: RingSpec):
        at = self.pos
        if self._accept("["):
            self._descend(at)
            items = []
            if not self._accept("]"):
                items.append(self._payload_item(ring))
                while self._accept(","):
                    items.append(self._payload_item(ring))
                self._expect("]")
            self.depth -= 1
            return items
        return self._element(ring)

    def _payload(self, ring: RingSpec) -> list:
        if self._peek() != "[":
            self._fail(self.pos, "oracle payload must be a [...] list")
        item = self._payload_item(ring)
        assert isinstance(item, list)
        return item

    # name lookups

    def _lookup(self, table: dict, label: str) -> tuple[str, object]:
        at = self.pos
        name = self._expect_kind("name")
        if name not in table:
            self._fail(at, f"unknown {label} {name!r}")
        return name, table[name]

    def _declare(self, table: dict, label: str) -> str:
        at = self.pos
        name = self._expect_kind("name")
        if name in table:
            self._fail(at, f"{label} {name!r} already defined")
        return name

    def _build(self, anchor: int, make: Callable):
        """Run a library constructor; report its rejection at the statement."""
        try:
            return make()
        except ParseError:
            raise
        except (ValueError, ArithmeticError) as exc:
            self._fail(anchor, str(exc))

    # statements

    def parse_document(self) -> Document:
        while True:
            tok = self._peek()
            if not tok:
                return self.doc
            if tok not in _STATEMENTS:
                self._fail(self.pos, f"expected one of {', '.join(_STATEMENTS)}, got {tok!r}")
            getattr(self, f"_stmt_{tok}")()

    def _stmt_ring(self) -> None:
        self._advance()
        self.doc.ring = self._ring_spec()
        self._accept(";")

    def _stmt_free(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.modules, "module")
        ring = self._current_ring(anchor)
        shifts = self._int_list()
        self._accept(";")
        module = self._build(anchor, lambda: free_presentation(GradedFreeModule(ring, tuple(shifts))))
        self.doc.modules[name] = module

    def _stmt_module(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.modules, "module")
        ring = self._current_ring(anchor)
        self._expect("{")
        gens: list[int] | None = None
        rels: list[list[RingElement]] | None = None
        reldegree = 1
        while not self._accept("}"):
            at = self.pos
            item = self._expect_kind("name")
            if item == "gens":
                gens = self._int_list()
            elif item == "rels":
                rels = self._element_table(ring)
            elif item == "reldegree":
                reldegree = self._signed_int()
            else:
                self._fail(at, f"unknown module item {item!r} (gens, rels, reldegree)")
            self._accept(";")
        if gens is None:
            self._fail(anchor, "module needs a 'gens [...];' item")
        columns = rels if rels is not None else []
        module = self._build(
            anchor, lambda: presented_module(ring, gens, columns, reldegree)
        )
        self.doc.modules[name] = module

    def _arrow_heads(self) -> tuple[PresentedModule, PresentedModule]:
        self._expect(":")
        _, source = self._lookup(self.doc.modules, "module")
        self._expect_kind("arrow")
        _, target = self._lookup(self.doc.modules, "module")
        return source, target

    def _rows_block(
        self, ring: RingSpec, body_key: str
    ) -> tuple[int, list[list[RingElement]]]:
        self._expect("{")
        degree = 0
        rows: list[list[RingElement]] | None = None
        while not self._accept("}"):
            at = self.pos
            item = self._expect_kind("name")
            if item == "degree":
                degree = self._signed_int()
            elif item == body_key:
                rows = self._element_table(ring)
            else:
                self._fail(at, f"unknown item {item!r} (degree, {body_key})")
            self._accept(";")
        if rows is None:
            self._fail(self.pos, f"missing '{body_key} [...];' item")
        return degree, rows

    def _stmt_matrix(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.matrices, "matrix")
        source, target = self._arrow_heads()
        degree, rows = self._rows_block(source.ring, "rows")
        matrix = self._build(
            anchor,
            lambda: GradedMatrixHom(source.generators, target.generators, degree, rows),
        )
        self.doc.matrices[name] = matrix

    def _stmt_hom(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.homs, "hom")
        source, target = self._arrow_heads()
        degree, rows = self._rows_block(source.ring, "lift")
        hom = self._build(
            anchor,
            lambda: ModuleHom(
                source,
                target,
                GradedMatrixHom(source.generators, target.generators, degree, rows),
            ),
        )
        self.doc.homs[name] = hom

    def _endo_from_rows(
        self, anchor: int, module: PresentedModule, degree: int, rows
    ) -> ModuleHom:
        return self._build(
            anchor,
            lambda: ModuleHom(
                module,
                module,
                GradedMatrixHom(module.generators, module.generators, degree, rows),
            ),
        )

    def _stmt_ses(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.sequences, "ses")
        self._expect("{")
        parts: dict[str, PresentedModule] = {}
        rows_a = rows_b = rows_fa = rows_fb = None
        endo_degree = 0
        while not self._accept("}"):
            at = self.pos
            item = self._expect_kind("name")
            if item == "modules":
                _, left = self._lookup(self.doc.modules, "module")
                self._expect(",")
                _, middle = self._lookup(self.doc.modules, "module")
                self._expect(",")
                _, right = self._lookup(self.doc.modules, "module")
                parts = {"left": left, "middle": middle, "right": right}
            elif item in ("a", "b", "fA", "fB"):
                ring = self._current_ring(at)
                table = self._element_table(ring)
                if item == "a":
                    rows_a = table
                elif item == "b":
                    rows_b = table
                elif item == "fA":
                    rows_fa = table
                else:
                    rows_fb = table
            elif item == "degree":
                endo_degree = self._signed_int()
            else:
                self._fail(at, f"unknown ses item {item!r} (modules, a, b, fA, fB, degree)")
            self._accept(";")
        if not parts:
            self._fail(anchor, "ses needs a 'modules A, B, C;' item")
        if rows_a is None or rows_b is None:
            self._fail(anchor, "ses needs both 'a [...];' and 'b [...];' items")
        left, middle, right = parts["left"], parts["middle"], parts["right"]

        def assemble() -> ShortExactSequence:
            a = ModuleHom(left, middle, GradedMatrixHom(left.generators, middle.generators, 0, rows_a))
            b = ModuleHom(middle, right, GradedMatrixHom(middle.generators, right.generators, 0, rows_b))
            ses = ShortExactSequence(left, middle, right, a, b)
            ses.validate()
            return ses

        ses = self._build(anchor, assemble)
        left_endo = (
            self._endo_from_rows(anchor, left, endo_degree, rows_fa)
            if rows_fa is not None
            else None
        )
        middle_endo = (
            self._endo_from_rows(anchor, middle, endo_degree, rows_fb)
            if rows_fb is not None
            else None
        )
        self.doc.sequences[name] = SequencePackage(ses, left_endo, middle_endo)

    def _stmt_case(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.cases, "case")
        self._expect("{")
        title = ""
        note = ""
        even = odd = None
        oracle_name: str | None = None
        payload: list | None = None
        ring_map: RingMap | None = None
        saw_oracle = False
        while not self._accept("}"):
            at = self.pos
            item = self._expect_kind("name")
            if item == "title":
                title = self._string()
                self._accept(";")
            elif item == "note":
                note = self._string()
                self._accept(";")
            elif item == "even":
                _, even = self._lookup(self.doc.homs, "hom")
                self._accept(";")
            elif item == "odd":
                _, odd = self._lookup(self.doc.homs, "hom")
                self._accept(";")
            elif item == "map":
                if saw_oracle:
                    self._fail(at, "map must come before oracle (payload parses over the map target)")
                ring_map = self._case_map(at)
            elif item == "oracle":
                oracle_at = self.pos
                oracle_name = self._expect_kind("name")
                if oracle_name not in ORACLES:
                    known = ", ".join(sorted(ORACLES))
                    self._fail(oracle_at, f"unknown oracle {oracle_name!r} (known: {known})")
                comparison = ring_map.target if ring_map else self._current_ring(at)
                payload = self._payload(comparison)
                self._accept(";")
                saw_oracle = True
            else:
                self._fail(
                    at,
                    f"unknown case item {item!r} (title, even, odd, map, oracle, note)",
                )
        if even is None or odd is None:
            self._fail(anchor, "case needs both 'even HOM;' and 'odd HOM;' items")
        if oracle_name is None or payload is None:
            self._fail(anchor, "case needs an 'oracle NAME [...];' item")
        case = self._build(
            anchor,
            lambda: ExampleCase(name, title, even, odd, oracle_name, payload, ring_map, note),
        )
        self.doc.cases[name] = case

    def _case_map(self, anchor: int) -> RingMap:
        source = self._current_ring(anchor)
        target = self._ring_spec()
        self._expect("{")
        images: dict[str, RingElement] = {}
        while not self._accept("}"):
            at = self.pos
            gen = self._expect_kind("name")
            if gen not in source.var_names:
                self._fail(at, f"unknown generator {gen!r} in ring {source}")
            if gen in images:
                self._fail(at, f"generator {gen} mapped twice")
            self._expect_kind("arrow")
            images[gen] = self._element(target)
            self._accept(";")
        missing = [n for n in source.var_names if n not in images]
        if missing:
            self._fail(anchor, f"map does not send {missing} anywhere")
        ordered = tuple(images[n] for n in source.var_names)
        return self._build(anchor, lambda: RingMap(source, target, ordered))


def parse_source(source: str, filename: str = "<input>") -> Document:
    """Parse a document from text; raise ParseError with position on error."""
    return _Parser(source, filename).parse_document()


def parse_file(path: str) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_source(fh.read(), filename=path)


# printers: emit exactly the grammar above


def _row_source(row) -> str:
    return "[" + ", ".join(str(e) for e in row) + "]"


def _table_source(rows) -> str:
    return "[" + ", ".join(_row_source(r) for r in rows) + "]"


def ring_statement(ring: RingSpec) -> str:
    return f"ring {ring};"


def module_statement(name: str, module: PresentedModule) -> str:
    gens = ", ".join(str(s) for s in module.generators.shifts)
    rel = module.relations
    if rel.source.rank == 0:
        return f"free {name} [{gens}];"
    rebuilt = relation_hom_from_columns(module.generators, rel.columns(), rel.degree)
    if rebuilt.source.shifts != rel.source.shifts:
        raise ValueError(
            f"module {name}: relation shifts do not follow the column rule; "
            "this module cannot be serialized"
        )
    lines = [f"module {name} {{", f"  gens [{gens}];", f"  rels {_table_source(rel.columns())};"]
    if rel.degree != 1:
        lines.append(f"  reldegree {rel.degree};")
    lines.append("}")
    return "\n".join(lines)


def matrix_statement(name: str, f: GradedMatrixHom, source: str, target: str) -> str:
    return (
        f"matrix {name} : {source} -> {target} {{\n"
        f"  degree {f.degree};\n"
        f"  rows {_table_source(f.entries)};\n"
        f"}}"
    )


def hom_statement(name: str, h: ModuleHom, source: str, target: str) -> str:
    return (
        f"hom {name} : {source} -> {target} {{\n"
        f"  degree {h.degree};\n"
        f"  lift {_table_source(h.lift.entries)};\n"
        f"}}"
    )


def ses_statement(name: str, pkg: SequencePackage, module_names: tuple[str, str, str]) -> str:
    ln, mn, rn = module_names
    seq = pkg.sequence
    lines = [
        f"ses {name} {{",
        f"  modules {ln}, {mn}, {rn};",
        f"  a {_table_source(seq.a.lift.entries)};",
        f"  b {_table_source(seq.b.lift.entries)};",
    ]
    degree = None
    if pkg.left_endo is not None:
        lines.append(f"  fA {_table_source(pkg.left_endo.lift.entries)};")
        degree = pkg.left_endo.degree
    if pkg.middle_endo is not None:
        lines.append(f"  fB {_table_source(pkg.middle_endo.lift.entries)};")
        degree = pkg.middle_endo.degree
    if degree:
        lines.append(f"  degree {degree};")
    lines.append("}")
    return "\n".join(lines)


def payload_source(payload) -> str:
    if isinstance(payload, list):
        return "[" + ", ".join(payload_source(p) for p in payload) + "]"
    return str(payload)


def case_statement(name: str, case: ExampleCase, even_name: str, odd_name: str) -> str:
    lines = [f"case {name} {{", f"  title {_escape(case.title)};"]
    lines.append(f"  even {even_name};")
    lines.append(f"  odd {odd_name};")
    if case.ring_map is not None:
        rm = case.ring_map
        inner = " ".join(
            f"{n} -> {img};" for n, img in zip(rm.source.var_names, rm.images)
        )
        body = f" {inner} " if inner else " "
        lines.append(f"  map {rm.target} {{{body}}}")
    lines.append(f"  oracle {case.oracle_name} {payload_source(case.oracle_payload)};")
    if case.note:
        lines.append(f"  note {_escape(case.note)};")
    lines.append("}")
    return "\n".join(lines)


def document_source(doc: Document) -> str:
    """Serialize a document; objects must reference declared modules/homs."""
    chunks: list[str] = []
    current: RingSpec | None = None

    def need_ring(ring: RingSpec) -> None:
        nonlocal current
        if ring != current:
            chunks.append(ring_statement(ring))
            current = ring

    module_names: dict[PresentedModule, str] = {}
    for mname, module in doc.modules.items():
        need_ring(module.ring)
        chunks.append(module_statement(mname, module))
        module_names.setdefault(module, mname)

    def module_name(m: PresentedModule, context: str) -> str:
        if m not in module_names:
            raise ValueError(f"{context} references a module not declared in the document")
        return module_names[m]

    for fname, f in doc.matrices.items():
        need_ring(f.ring)
        src = next((n for n, m in doc.modules.items() if m.generators == f.source), None)
        tgt = next((n for n, m in doc.modules.items() if m.generators == f.target), None)
        if src is None or tgt is None:
            raise ValueError(f"matrix {fname} references a module not declared in the document")
        chunks.append(matrix_statement(fname, f, src, tgt))

    hom_names: dict[int, str] = {}
    for hname, h in doc.homs.items():
        need_ring(h.ring)
        chunks.append(
            hom_statement(hname, h, module_name(h.source, f"hom {hname}"), module_name(h.target, f"hom {hname}"))
        )
        hom_names.setdefault(id(h), hname)

    for sname, pkg in doc.sequences.items():
        seq = pkg.sequence
        need_ring(seq.middle.ring)
        names = (
            module_name(seq.left, f"ses {sname}"),
            module_name(seq.middle, f"ses {sname}"),
            module_name(seq.right, f"ses {sname}"),
        )
        chunks.append(ses_statement(sname, pkg, names))

    def hom_name(h: ModuleHom, context: str) -> str:
        if id(h) not in hom_names:
            raise ValueError(f"{context} references a hom not declared in the document")
        return hom_names[id(h)]

    for cname, case in doc.cases.items():
        need_ring(case.ring)
        chunks.append(
            case_statement(
                cname,
                case,
                hom_name(case.even, f"case {cname}"),
                hom_name(case.odd, f"case {cname}"),
            )
        )

    return "\n\n".join(chunks) + "\n"


GRAMMAR = """\
document   := statement*
statement  := ring | free | module | matrix | hom | ses | case

ring       := "ring" ringspec ";"
ringspec   := "Z" ("[" rgen ("," rgen)* "]")? ("mod2")?
rgen       := NAME ":" INTEGER            # generator with its even degree
            | NAME "^" "-" "1"            # marks a declared generator invertible
                                          # (all or none must carry the marker)

free       := "free" NAME "[" integers "]" ";"        # free module, basis shifts
module     := "module" NAME "{"
                 "gens" "[" integers "]" ";"          # generator shifts
                 ("rels" table ";")?                  # relation COLUMNS
                 ("reldegree" INTEGER ";")?           # odd; default 1
              "}"

matrix     := "matrix" NAME ":" NAME "->" NAME "{"    # map of generator modules
                 ("degree" INTEGER ";")?              # default 0
                 "rows" table ";"                     # rows index the target
              "}"
hom        := "hom" NAME ":" NAME "->" NAME "{"       # map of presented modules
                 ("degree" INTEGER ";")?
                 "lift" table ";"                     # verified on relations
              "}"

ses        := "ses" NAME "{"
                 "modules" NAME "," NAME "," NAME ";" # left, middle, right
                 "a" table ";"  "b" table ";"         # degree-0 maps, validated exact
                 ("fA" table ";")? ("fB" table ";")?  # optional endomorphisms
                 ("degree" INTEGER ";")?              # degree of fA/fB
              "}"

case       := "case" NAME "{"
                 "title" STRING ";"
                 "even" NAME ";"  "odd" NAME ";"       # endomorphisms, equal degree
                 ("map" ringspec "{" (NAME "->" expr ";")* "}")?
                 "oracle" NAME payload ";"             # payload over the map target
                 ("note" STRING ";")?
              "}"

table      := "[" (row ("," row)*)? "]"
row        := "[" (expr ("," expr)*)? "]"
payload    := "[" (pitem ("," pitem)*)? "]"
pitem      := expr | payload
integers   := (SIGNED ("," SIGNED)*)?

expr       := term (("+" | "-") term)*
term       := factor ("*" factor)*
factor     := "-" factor | atom ("^" SIGNED)?
atom       := INTEGER | NAME | "(" expr ")"

NAME       := [A-Za-z_][A-Za-z0-9_]*
INTEGER    := [0-9]+
SIGNED     := "-"? INTEGER
STRING     := '"' (escaped with backslash; \\n is a newline) '"'
comments   := "#" to end of line
semicolons are optional separators; each ";" above may be omitted
""" + f'"(", unary "-" and payload "[" nest at most {MAX_NESTING} levels deep\n'
