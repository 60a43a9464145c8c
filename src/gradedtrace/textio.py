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

The parser is recursive descent, and four rules carry most of it.  The
list rule `_list` reads "[" (item ("," item)*)? "]" for tables and
payloads.  The row rule `_line` reads every table row (matrix rows, hom
lift, ses a, b, fA and fB, module rels) straight into a sparse row, a
freemod.Line: a dict from position to nonzero element, plus the row's
length.  An integer literal, perhaps after one "-", that a "," or "]"
follows skips the expression rule there, and a literal 0 builds no
element; shift lists go through the same loop.  The item-block rule
`_items` reads the braces of module, matrix, hom, ses and case: each NAME
is looked up in a table of item readers, an unknown one is refused with
the names the block knows, and an optional ";" follows every item.  The
term rule `_term` reads the factors of a product left to right.  While
they are integer literals and generators, each perhaps raised to a power
n >= 0 (any n for a Laurent ring's generator), it keeps one coefficient
and one exponent vector and builds the term as one element at its end, so
a literal such as 0, -3, 2*x^2*y or 2*t^-1 costs no ring arithmetic.  The
first parenthesized factor, or negative power of a literal or of a
polynomial generator, turns the product so far into an element, and ring
arithmetic reads the rest of the term.  Sums of terms always use ring
arithmetic.  Integer
tokens are converted in one place, `_decimal`, and each "*" and "^" is
refused at its own token before it expands past the caps in GRAMMAR.

Parsing is strict: every object is rebuilt through the library constructors,
so shape, homogeneity, and well-definedness failures surface as ParseError
with a line and column.  A table is read whole before it is checked, so a
parse error in it wins over a shape or degree error.  Each parsed entry is
checked once: by freemod._checked_rows, the loop the public constructor
runs too, before the map builds through GradedMatrixHom._closed, or, in a
relation column, by relation_hom_from_columns.

`document_source` is the one printer and emits exactly this grammar: every
braced statement goes through `_block`, the printing side of `_items`,
which writes the head and "{", one item a line indented two spaces, and
"}".  parse(print(x)) reproduces x.

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
from functools import partial
from itertools import islice
from typing import Callable, NoReturn

from .freemod import GradedFreeModule, GradedMatrixHom, Line, _checked_rows, _relation_shifts
from .lefschetz import ExampleCase
from .modules import (
    ModuleHom,
    PresentedModule,
    free_presentation,
    presented_module,
)
from .oracles import ORACLES
from .rings import (
    _EXPANSION_CAPS,
    GRADING_Z,
    GRADING_Z2,
    LAURENT,
    RingElement,
    RingMap,
    RingSpec,
    _coefficient_bits,
    _power_fits,
    _product_fits,
    integers,
    laurent_ring,
    polynomial_ring,
)
from .solvers import _LIMIT
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

# the tokens that may follow an item of a list
_ENTRY_ENDS = frozenset((",", "]"))

# The expansion caps live in rings; the parser adds the engine's exponent bound.
_POWER_CAPS = f"exponent {_LIMIT}, {_EXPANSION_CAPS}"


def _monomial(ring: RingSpec, coeff: int, exps: list) -> RingElement:
    """coeff times the monomial of exponent vector exps, built unchecked."""
    return RingElement._clean(ring, {tuple(exps): coeff} if coeff else {})


def _decimal(digits: str) -> int:
    """Convert a digit string of any length, exactly; every integer literal goes through here.

    Past 600 digits the string is halved, and the halves are converted the
    same way and combined, so int() never sees more than 600 digits: below
    the smallest limit on digits the interpreter allows (640), and in about
    n^1.6 time instead of the n^2 of converting one chunk at a time.
    """
    if len(digits) <= 600:
        return int(digits)
    lo = digits[len(digits) // 2 :]
    return _decimal(digits[: len(digits) // 2]) * 10 ** len(lo) + _decimal(lo)


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
        """Step past one token; return its index as the anchor."""
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

    # the two shared rules

    def _list(self, item: Callable[[], object]) -> list:
        """Read "[" (item ("," item)*)? "]"."""
        tokens = self.tokens
        self._expect("[")
        if tokens[self.pos] == "]":
            self.pos += 1
            return []
        items = [item()]
        while tokens[self.pos] == ",":
            self.pos += 1
            items.append(item())
        self._expect("]")
        return items

    def _items(self, label: str, readers: dict[str, Callable[[int], object]], values: dict) -> dict:
        """Read "{" (NAME body ";"?)* "}" into values, which holds the defaults.

        Each NAME must be a key of readers; its reader, given the NAME's
        anchor, reads the body, and its result replaces values[NAME].
        Readers may look at the values read before them.
        """
        self._expect("{")
        while not self._accept("}"):
            at = self.pos
            item = self._expect_kind("name")
            if item not in readers:
                self._fail(at, f"unknown {label} {item!r} ({', '.join(readers)})")
            values[item] = readers[item](at)
            self._accept(";")
        return values

    # small literals

    def _signed_int(self) -> int:
        neg = self._accept("-")
        value = _decimal(self._expect_kind("int"))
        return -value if neg else value

    def _string(self) -> str:
        return _unescape(self._expect_kind("string"))

    def _shifts(self) -> list[int]:
        """Read list(SIGNED) in the one loop of _line."""
        values, length = self._line(self._signed_int, int)
        return [values.get(j, 0) for j in range(length)]

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
        if not names:  # a name^-1 needs its name declared first
            return integers(grading)
        if inverted and inverted != set(names):
            missing = sorted(set(names) - inverted)
            self._fail(anchor, f"either all generators are invertible or none; missing {missing}")
        make = laurent_ring if inverted else polynomial_ring
        return self._build(anchor, lambda: make(names, degrees, grading))

    def _current_ring(self, anchor: int) -> RingSpec:
        if self.doc.ring is None:
            self._fail(anchor, "no ring declared yet; add a 'ring ...;' statement first")
        return self.doc.ring

    # element expressions

    def _element(self, ring: RingSpec) -> RingElement:
        tokens = self.tokens
        value = self._term(ring)
        while True:
            tok = tokens[self.pos]
            if tok == "+":
                self.pos += 1
                value = value + self._term(ring)
            elif tok == "-":
                self.pos += 1
                value = value - self._term(ring)
            else:
                return value

    def _term(self, ring: RingSpec) -> RingElement:
        """Read factor ("*" factor)*, where factor := "-"* atom ("^" SIGNED)?.

        While the factors are literals and generators, each perhaps raised
        to a power n >= 0 (any n for a Laurent ring's generator), the
        product is one coefficient and one exponent vector, built as one
        element when the term ends.  The first parenthesized factor, or
        negative power of a literal or of a polynomial generator, makes the
        product so far an element, and ring arithmetic reads the rest of the
        term.  Either way each "*" and "^" meets the caps at its own token.
        """
        tokens, names = self.tokens, ring.var_names
        coeff, exps = 1, [0] * len(names)
        value = None  # the product so far, once ring arithmetic has taken over
        star = None  # anchor of the "*" before the factor being read
        opened = 0  # unary minuses before the factor being read
        while True:
            at = self.pos
            tok = tokens[at]
            self.pos = at + 1
            factor = None  # unless set, the factor is c * names[var]^n
            if tok.isdigit():
                c, var, n = _decimal(tok), None, 0
            elif tok in names:
                c, var, n = 1, names.index(tok), 1
            elif tok == "-":  # flips the sign and opens a level
                self._descend(at)
                opened += 1
                continue
            elif tok == "(":
                self._descend(at)
                factor = self._element(ring)
                self._expect(")")
                self.depth -= 1
            elif tok.isidentifier():
                self._fail(at, f"unknown generator {tok!r} in ring {ring}")
            else:
                self._fail(at, f"expected an element, got {tok!r}")
            if tokens[self.pos] == "^":
                self.pos += 1
                power_at = self.pos
                power = self._signed_int()
                # ring arithmetic knows the units; a Laurent generator's power stays a monomial
                if factor is None and power < 0 and (var is None or ring.kind != LAURENT):
                    factor = ring.const(c) if var is None else ring.gen(tok)
                if factor is None:
                    self._check_power(power_at, abs(power), 1 if c else 0, c)
                    if var is None:
                        c **= power
                    else:
                        n = power
                else:
                    self._check_power(power_at, abs(power), len(factor), sum(abs(x) for _, x in factor.items()))
                    try:
                        factor = factor**power
                    except ValueError as exc:
                        self._fail(power_at, str(exc))
            if opened:
                self.depth -= opened
                if opened & 1:
                    if factor is None:
                        c = -c
                    else:
                        factor = -factor
                opened = 0
            if factor is None and value is None:
                if star is not None:
                    self._check_product(star, 1, coeff.bit_length() + c.bit_length())
                coeff *= c
                if var is not None:
                    exps[var] += n
            else:
                if factor is None:
                    factor = _monomial(ring, c, [n if i == var else 0 for i in range(len(names))])
                if star is None:
                    value = factor
                else:
                    if value is None:
                        value = _monomial(ring, coeff, exps)
                    self._check_product(
                        star, len(value) * len(factor), _coefficient_bits(value) + _coefficient_bits(factor)
                    )
                    value = value * factor
            if tokens[self.pos] != "*":
                return _monomial(ring, coeff, exps) if value is None else value
            star = self.pos
            self.pos += 1

    def _check_power(self, at: int, n: int, terms: int, norm: int) -> None:
        """Refuse the power n of a base with these terms and sum of |coefficients| past the caps."""
        if n > _LIMIT or not _power_fits(n, terms, norm):
            self._fail(at, f"power too large to expand: the caps are {_POWER_CAPS}")

    def _check_product(self, star: int, terms: int, bits: int) -> None:
        if not _product_fits(terms, bits):
            self._fail(star, f"product too large to expand: the caps are {_POWER_CAPS}")

    # nested list literals: tables of rows or columns over a ring, or oracle payloads

    def _table(self, ring: RingSpec) -> list[Line]:
        return self._list(partial(self._line, partial(self._element, ring), ring.const))

    def _line(self, item: Callable[[], object], literal: Callable[[int], object]) -> Line:
        """Read list(item) as its nonzero items by position and its length.

        An integer literal, perhaps after one "-", that ends its item is
        read here and passed to literal instead; a 0 is dropped unbuilt.
        """
        tokens = self.tokens
        self._expect("[")
        pos, entries, j = self.pos, {}, 0
        if tokens[pos] != "]":
            while True:
                neg = tokens[pos] == "-"
                tok = tokens[pos + neg]
                if tok.isdigit() and tokens[pos + neg + 1] in _ENTRY_ENDS:
                    pos += neg + 1
                    if tok != "0" and (c := _decimal(tok)):
                        entries[j] = literal(-c if neg else c)
                else:
                    self.pos = pos
                    if e := item():
                        entries[j] = e
                    pos = self.pos
                j += 1
                if tokens[pos] != ",":
                    break
                pos += 1
        self.pos = pos
        self._expect("]")
        return entries, j

    def _payload(self, ring: RingSpec) -> list:
        at = self.pos
        if self._peek() != "[":
            self._fail(at, "oracle payload must be a [...] list")
        self._descend(at)
        items = self._list(lambda: self._payload(ring) if self._peek() == "[" else self._element(ring))
        self.depth -= 1
        return items

    # name lookups

    def _lookup(self, table: dict, label: str):
        at = self.pos
        name = self._expect_kind("name")
        if name not in table:
            self._fail(at, f"unknown {label} {name!r}")
        return table[name]

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
        shifts = self._shifts()
        self._accept(";")
        self.doc.modules[name] = self._build(
            anchor, lambda: free_presentation(GradedFreeModule(ring, tuple(shifts)))
        )

    def _stmt_module(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.modules, "module")
        ring = self._current_ring(anchor)
        items = self._items(
            "module item",
            {
                "gens": lambda at: self._shifts(),
                "rels": lambda at: self._table(ring),
                "reldegree": lambda at: self._signed_int(),
            },
            {"rels": [], "reldegree": 1},
        )
        if "gens" not in items:
            self._fail(anchor, "module needs a 'gens [...];' item")
        self.doc.modules[name] = self._build(
            anchor, lambda: presented_module(ring, items["gens"], items["rels"], items["reldegree"])
        )

    def _arrow_heads(self) -> tuple[PresentedModule, PresentedModule]:
        self._expect(":")
        source = self._lookup(self.doc.modules, "module")
        self._expect_kind("arrow")
        return source, self._lookup(self.doc.modules, "module")

    def _rows_block(self, anchor: int, ring: RingSpec, body_key: str) -> tuple[int, list[Line]]:
        items = self._items(
            "item",
            {"degree": lambda at: self._signed_int(), body_key: lambda at: self._table(ring)},
            {"degree": 0},
        )
        if body_key not in items:
            self._fail(anchor, f"missing '{body_key} [...];' item")
        return items["degree"], items[body_key]

    def _matrix(
        self, anchor: int, source: GradedFreeModule, target: GradedFreeModule, degree: int, rows, ring: RingSpec
    ) -> GradedMatrixHom:
        """The map with these parsed rows over ring, checked once; a rejection fails at anchor."""
        return self._build(
            anchor,
            lambda: GradedMatrixHom._closed(source, target, degree, _checked_rows(source, target, degree, rows, ring)),
        )

    def _hom(
        self, anchor: int, source: PresentedModule, target: PresentedModule, degree: int, rows, ring: RingSpec
    ) -> ModuleHom:
        """The map of presented modules lifted by rows; a rejection fails at anchor."""
        lift = self._matrix(anchor, source.generators, target.generators, degree, rows, ring)
        return self._build(anchor, lambda: ModuleHom(source, target, lift))

    def _stmt_matrix(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.matrices, "matrix")
        source, target = self._arrow_heads()
        degree, rows = self._rows_block(anchor, source.ring, "rows")
        self.doc.matrices[name] = self._matrix(anchor, source.generators, target.generators, degree, rows, source.ring)

    def _stmt_hom(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.homs, "hom")
        source, target = self._arrow_heads()
        degree, rows = self._rows_block(anchor, source.ring, "lift")
        self.doc.homs[name] = self._hom(anchor, source, target, degree, rows, source.ring)

    def _stmt_ses(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.sequences, "ses")

        def modules(at: int) -> list[PresentedModule]:
            parts = [self._lookup(self.doc.modules, "module")]
            for _ in range(2):
                self._expect(",")
                parts.append(self._lookup(self.doc.modules, "module"))
            return parts

        def table(at: int) -> list[Line]:
            return self._table(self._current_ring(at))

        items = self._items(
            "ses item",
            dict(modules=modules, a=table, b=table, fA=table, fB=table, degree=lambda at: self._signed_int()),
            {"degree": 0},
        )
        if "modules" not in items:
            self._fail(anchor, "ses needs a 'modules A, B, C;' item")
        if "a" not in items or "b" not in items:
            self._fail(anchor, "ses needs both 'a [...];' and 'b [...];' items")
        left, middle, right = items["modules"]
        ring = self.doc.ring  # every table of the statement was read over it
        a = self._hom(anchor, left, middle, 0, items["a"], ring)
        b = self._hom(anchor, middle, right, 0, items["b"], ring)
        ses = self._build(anchor, lambda: ShortExactSequence(left, middle, right, a, b))
        self._build(anchor, ses.validate)
        endos = [
            self._hom(anchor, module, module, items["degree"], items[key], ring) if key in items else None
            for key, module in (("fA", left), ("fB", middle))
        ]
        self.doc.sequences[name] = SequencePackage(ses, *endos)

    def _stmt_case(self) -> None:
        anchor = self._advance()
        name = self._declare(self.doc.cases, "case")
        items: dict = {"title": "", "note": "", "map": None}

        def ring_map(at: int) -> RingMap:
            if "oracle" in items:
                self._fail(at, "map must come before oracle (payload parses over the map target)")
            return self._case_map(at)

        def oracle(at: int) -> tuple[str, list]:
            oracle_at = self.pos
            oracle_name = self._expect_kind("name")
            if oracle_name not in ORACLES:
                known = ", ".join(sorted(ORACLES))
                self._fail(oracle_at, f"unknown oracle {oracle_name!r} (known: {known})")
            comparison = items["map"].target if items["map"] else self._current_ring(at)
            return oracle_name, self._payload(comparison)

        self._items(
            "case item",
            {
                "title": lambda at: self._string(),
                "even": lambda at: self._lookup(self.doc.homs, "hom"),
                "odd": lambda at: self._lookup(self.doc.homs, "hom"),
                "map": ring_map,
                "oracle": oracle,
                "note": lambda at: self._string(),
            },
            items,
        )
        if "even" not in items or "odd" not in items:
            self._fail(anchor, "case needs both 'even HOM;' and 'odd HOM;' items")
        if "oracle" not in items:
            self._fail(anchor, "case needs an 'oracle NAME [...];' item")
        fields = items["title"], items["even"], items["odd"], *items["oracle"], items["map"], items["note"]
        self.doc.cases[name] = self._build(anchor, lambda: ExampleCase(name, *fields))

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


def _table_source(items) -> str:
    """Nested lists or tuples of elements: a table, a row or a payload."""
    inner = (_table_source(x) if isinstance(x, (list, tuple)) else str(x) for x in items)
    return "[" + ", ".join(inner) + "]"


def _block(head: str, items) -> str:
    """The printing side of `_Parser._items`: head {, one item a line, }."""
    return "\n".join([f"{head} {{", *(f"  {item}" for item in items), "}"])


def _module_statement(name: str, module: PresentedModule) -> str:
    gens = _table_source(module.generators.shifts)
    rel = module.relations
    if rel.source.rank == 0:
        return f"free {name} {gens};"
    # a legal map's columns are homogeneous, so the rule reads one term of each
    if _relation_shifts(module.generators, rel._sparse_columns(), rel.degree) != rel.source.shifts:
        raise ValueError(
            f"module {name}: relation shifts do not follow the column rule; "
            "this module cannot be serialized"
        )
    items = [f"gens {gens};", f"rels {_table_source(rel.columns())};"]
    if rel.degree != 1:
        items.append(f"reldegree {rel.degree};")
    return _block(f"module {name}", items)


def _case_statement(name: str, case: ExampleCase, even: str, odd: str) -> str:
    items = [f"title {_escape(case.title)};", f"even {even};", f"odd {odd};"]
    if case.ring_map is not None:
        rm = case.ring_map
        images = "".join(f" {n} -> {img};" for n, img in zip(rm.source.var_names, rm.images))
        items.append(f"map {rm.target} {{{images} }}")
    payload = case.oracle_payload
    items.append(f"oracle {case.oracle_name} {_table_source(payload) if isinstance(payload, list) else payload};")
    if case.note:
        items.append(f"note {_escape(case.note)};")
    return _block(f"case {name}", items)


def document_source(doc: Document) -> str:
    """Serialize a document; objects must reference declared modules/homs."""
    chunks: list[str] = []
    current: RingSpec | None = None

    def need_ring(ring: RingSpec) -> None:
        nonlocal current
        if ring != current:
            chunks.append(f"ring {ring};")
            current = ring

    def name_of(names: dict, key, what: str, context: str) -> str:
        if key not in names:
            raise ValueError(f"{context} references a {what} not declared in the document")
        return names[key]

    module_names: dict[PresentedModule, str] = {}
    gen_names: dict[GradedFreeModule, str] = {}
    for mname, module in doc.modules.items():
        need_ring(module.ring)
        chunks.append(_module_statement(mname, module))
        module_names.setdefault(module, mname)
        gen_names.setdefault(module.generators, mname)

    maps = [("matrix", fname, f, f, gen_names, "rows") for fname, f in doc.matrices.items()]
    maps += [("hom", hname, h, h.lift, module_names, "lift") for hname, h in doc.homs.items()]
    for keyword, fname, f, lift, names, body_key in maps:
        need_ring(f.ring)
        src, tgt = (name_of(names, m, "module", f"{keyword} {fname}") for m in (f.source, f.target))
        items = [f"degree {f.degree};", f"{body_key} {_table_source(lift.entries)};"]
        chunks.append(_block(f"{keyword} {fname} : {src} -> {tgt}", items))

    for sname, pkg in doc.sequences.items():
        seq = pkg.sequence
        need_ring(seq.middle.ring)
        parts = (seq.left, seq.middle, seq.right)
        modules = ", ".join(name_of(module_names, m, "module", f"ses {sname}") for m in parts)
        tables = dict(a=seq.a, b=seq.b, fA=pkg.left_endo, fB=pkg.middle_endo)
        items = [f"modules {modules};"]
        items += [f"{key} {_table_source(h.lift.entries)};" for key, h in tables.items() if h is not None]
        degree = next((h.degree for h in (pkg.middle_endo, pkg.left_endo) if h is not None), 0)
        if degree:
            items.append(f"degree {degree};")
        chunks.append(_block(f"ses {sname}", items))

    # a case names a hom by its first declaration
    hom_names = {id(h): hname for hname, h in reversed(doc.homs.items())}
    for cname, case in doc.cases.items():
        need_ring(case.ring)
        even, odd = (name_of(hom_names, id(h), "hom", f"case {cname}") for h in (case.even, case.odd))
        chunks.append(_case_statement(cname, case, even, odd))

    return "\n\n".join(chunks) + "\n"


GRAMMAR = """\
document   := statement*
statement  := ring | free | module | matrix | hom | ses | case

ring       := "ring" ringspec ";"
ringspec   := "Z" ("[" rgen ("," rgen)* "]")? ("mod2")?
rgen       := NAME ":" SIGNED             # generator with its even degree
            | NAME "^" "-" "1"            # marks a declared generator invertible
                                          # (all or none must carry the marker)

free       := "free" NAME list(SIGNED) ";"           # free module, basis shifts
module     := "module" NAME "{"
                 "gens" list(SIGNED) ";"              # generator shifts
                 ("rels" table ";")?                  # relation COLUMNS
                 ("reldegree" SIGNED ";")?            # odd; default 1
              "}"

matrix     := "matrix" NAME ":" NAME "->" NAME "{"    # map of generator modules
                 ("degree" SIGNED ";")?               # default 0
                 "rows" table ";"                     # rows index the target
              "}"
hom        := "hom" NAME ":" NAME "->" NAME "{"       # map of presented modules
                 ("degree" SIGNED ";")?
                 "lift" table ";"                     # verified on relations
              "}"

ses        := "ses" NAME "{"
                 "modules" NAME "," NAME "," NAME ";" # left, middle, right
                 "a" table ";"  "b" table ";"         # degree-0 maps, validated exact
                 ("fA" table ";")? ("fB" table ";")?  # optional endomorphisms
                 ("degree" SIGNED ";")?               # degree of fA/fB
              "}"

case       := "case" NAME "{"
                 "title" STRING ";"
                 "even" NAME ";"  "odd" NAME ";"       # endomorphisms, equal degree
                 ("map" ringspec "{" (NAME "->" expr ";")* "}" ";")?
                 "oracle" NAME payload ";"             # payload over the map target
                 ("note" STRING ";")?
              "}"

list(x)    := "[" (x ("," x)*)? "]"
table      := list(list(expr))
payload    := list(pitem)
pitem      := expr | payload

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
the items inside a statement's "{ }" may come in any order, except that map
comes before oracle; an item given twice keeps its last value
""" + f'"(", unary "-" and payload "[" nest at most {MAX_NESTING} levels deep\n'
GRAMMAR += f'"^" and "*" expand within the caps: {_POWER_CAPS}\n'
