"""The text format: parsing, printing, and round trips."""

import os
import random
import re
import subprocess
import sys
import textwrap
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genutils import RING_POOL, random_matrix, random_module_endo, random_presented_module, random_shifts
from gradedtrace import (
    GRAMMAR,
    Document,
    ExampleCase,
    GradedFreeModule,
    ParseError,
    document_source,
    free_presentation,
    hs_trace,
    integers,
    laurent_ring,
    parse_source,
    polynomial_ring,
    textio,
)
from gradedtrace.textio import MAX_NESTING

ROOT = Path(__file__).resolve().parent.parent
Z = integers()


DOC = """
ring Z[x:2];
free P [0, -2];
matrix F : P -> P { degree 2; rows [[x, 0], [1, x]]; }
module M { gens [0]; rels [[x^2]]; }
hom g : M -> M { degree 2; lift [[x]]; }
"""


def test_parse_basic_document():
    doc = parse_source(DOC)
    assert set(doc.modules) == {"P", "M"}
    assert set(doc.matrices) == {"F"}
    assert set(doc.homs) == {"g"}
    assert doc.matrices["F"].degree == 2
    assert doc.modules["P"].relations.source.rank == 0
    assert doc.modules["M"].relations.source.rank == 1
    assert str(doc.ring) == "Z[x:2]"


def test_semicolons_are_optional():
    spare = """
ring Z
module M { gens [0] rels [[2]] }
hom f : M -> M { degree 0 lift [[1]] }
"""
    doc = parse_source(spare)
    assert doc.modules["M"].relations.column(0) == (Z.const(2),)
    assert hs_trace(doc.homs["f"]).value.is_zero()


def test_exemplar_block_without_trailing_semicolons():
    doc = parse_source("ring Z; module M { gens [0]; rels [[2]] }")
    assert doc.modules["M"].generators.rank == 1


def test_parse_ring_forms():
    assert parse_source("ring Z;").ring == integers()
    assert parse_source("ring Z[x:2];").ring == polynomial_ring(["x"], [2])
    assert parse_source("ring Z[t:0,t^-1];").ring == laurent_ring(["t"], [0])
    lz2 = parse_source("ring Z[t:2,t^-1] mod2;").ring
    assert lz2 == laurent_ring(["t"], [2], "Z/2")


def test_laurent_marker_must_cover_all_variables():
    with pytest.raises(ParseError):
        parse_source("ring Z[s:0,s^-1,t:0];")


def test_expressions():
    doc = parse_source(
        """
ring Z[t:0,t^-1];
free P [0];
matrix F : P -> P { rows [[-(t + 1)*(t - 1) + t^2 + 2*t^-1]]; }
"""
    )
    t = laurent_ring(["t"], [0]).gen("t")
    expect = -(t + 1) * (t - 1) + t * t + 2 * t.unit_inverse()
    assert doc.matrices["F"].entries[0][0] == expect


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_source("ring Z;\nfree P [0, oops];\n")
    msg = str(err.value)
    assert "2:" in msg  # line number of the offending token


def test_nesting_is_capped_at_the_offending_token():
    head = "ring Z;\nfree P [0];\nmatrix F : P -> P { rows [["
    at_cap = "-(" * (MAX_NESTING // 2) + "1" + ")" * (MAX_NESTING // 2)
    assert parse_source(head + at_cap + "]]; }").matrices["F"].entries[0][0] == Z.const((-1) ** (MAX_NESTING // 2))
    for opener, closer in (("(", ")"), ("-", "")):
        past = opener * (MAX_NESTING + 1) + "1" + closer * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_source(head + past + "]]; }")
        assert (err.value.line, err.value.col) == (3, len("matrix F : P -> P { rows [[") + MAX_NESTING + 1)
    case = "ring Z;\nmodule M { gens [0]; }\nhom f : M -> M { lift [[1]]; }\ncase c { title \"t\"; even f; odd f; oracle weight_sum "
    with pytest.raises(ParseError) as err:
        parse_source(case + "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1) + "; }")
    assert "nested more than" in err.value.message


def test_unknown_generator_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_source("ring Z[x:2];\nfree P [0];\nmatrix F : P -> P { rows [[y]]; }")
    assert "y" in str(err.value)


def test_unknown_module_reference():
    with pytest.raises(ParseError):
        parse_source("ring Z;\nhom f : M -> M { degree 0; lift [[1]]; }")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_source("ring Z;\nfree P [0];\nfree P [1];")


def test_statement_before_ring_rejected():
    with pytest.raises(ParseError):
        parse_source("free P [0];")


def test_inhomogeneous_matrix_entry_rejected():
    with pytest.raises(ParseError):
        parse_source("ring Z[x:2];\nfree P [0];\nmatrix F : P -> P { rows [[x]]; }")


def test_ses_statement_parses_and_validates():
    doc = parse_source(
        """
ring Z;
module A { gens [0]; }
module B { gens [0]; }
module C { gens [0]; rels [[2]]; }
ses S { modules A, B, C; a [[2]]; b [[1]]; fA [[1]]; fB [[1]]; }
"""
    )
    pkg = doc.sequences["S"]
    assert pkg.left_endo is not None and pkg.middle_endo is not None
    assert pkg.sequence.left.generators.rank == 1


def test_ses_that_is_not_exact_fails_at_parse_time():
    with pytest.raises(ParseError):
        parse_source(
            """
ring Z;
module A { gens [0]; }
module B { gens [0]; }
module C { gens [0]; rels [[4]]; }
ses S { modules A, B, C; a [[2]]; b [[1]]; }
"""
        )


def test_case_statement_with_map_and_payload():
    doc = parse_source(
        """
ring Z[t:0,t^-1];
module K { gens [0, 0]; rels [[t - 1, 0], [0, t - 1]]; }
hom ev : K -> K { lift [[1, 0], [0, 1]]; }
hom od : K -> K { lift [[0, 0], [0, 0]]; }
case demo {
  title "demo case";
  even ev;
  odd od;
  map Z { t -> 1; }
  oracle cw_alternating_sum [[[1, 0], [0, 1]], []];
  note "augmented";
}
"""
    )
    case = doc.cases["demo"]
    assert case.title == "demo case"
    assert case.ring_map is not None
    assert case.comparison_ring == Z
    assert case.oracle_name == "cw_alternating_sum"
    assert case.note == "augmented"


def test_case_map_must_precede_oracle():
    src = """
ring Z;
module M { gens [0]; }
hom f : M -> M { degree 0; lift [[1]]; }
case c { title "t"; even f; odd f; oracle weight_sum [1]; map Z { } }
"""
    with pytest.raises(ParseError):
        parse_source(src)


def test_round_trip_document():
    doc = parse_source(DOC)
    printed = document_source(doc)
    again = parse_source(printed)
    assert again.modules.keys() == doc.modules.keys()
    assert again.matrices["F"] == doc.matrices["F"]
    assert again.homs["g"] == doc.homs["g"]
    assert doc.modules["M"].relations == again.modules["M"].relations
    # printing is stable
    assert document_source(again) == printed


def test_round_trip_cases_and_sequences():
    src = """
ring Z;
module A { gens [0]; }
module B { gens [0]; }
module C { gens [0]; rels [[2]]; }
ses S { modules A, B, C; a [[2]]; b [[1]]; fA [[1]]; fB [[1]]; }
hom f : C -> C { lift [[1]]; }
hom zero : C -> C { lift [[0]]; }
case torsion { title "torsion identity"; even f; odd zero; oracle cw_alternating_sum [[[1]], [[1]]]; }
"""
    doc = parse_source(src)
    printed = document_source(doc)
    again = parse_source(printed)
    assert again.cases["torsion"].title == "torsion identity"
    assert again.sequences["S"].sequence.right.relations == doc.sequences[
        "S"
    ].sequence.right.relations
    assert document_source(again) == printed


def test_grammar_text_mentions_every_statement():
    for word in ["ring", "free", "module", "matrix", "hom", "ses", "case", "oracle"]:
        assert word in GRAMMAR
    assert "semicolons are optional" in GRAMMAR


# -- the one-scan lexer against the tokenizer it replaced ----------------------
#
# Token, _TOKEN_RE and _tokenize below are the earlier lexer, kept verbatim
# as the reference: one Python-level match per token and a line and column
# for every token.


@dataclass(frozen=True)
class Token:
    kind: str  # name, int, string, arrow, punct, eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[\ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<arrow>->)
    | (?P<punct>[{}\[\]():;,+\-*^])
    """,
    re.VERBOSE,
)


def _tokenize(source: str, filename: str) -> list[Token]:
    line_starts = [0]
    for i, ch in enumerate(source):
        if ch == "\n":
            line_starts.append(i + 1)

    def position(pos: int) -> tuple[int, int]:
        line = bisect_right(line_starts, pos)
        return line, pos - line_starts[line - 1] + 1

    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            line, col = position(pos)
            raise ParseError(f"unexpected character {source[pos]!r}", filename, line, col)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            line, col = position(pos)
            tokens.append(Token(kind, m.group(), line, col))
        pos = m.end()
    line, col = position(len(source))
    tokens.append(Token("eof", "", line, col))
    return tokens


GRAMMAR_FRAGMENTS = [
    "ring", "Z", "[", "]", "x", "t", ":", "2", "0", "17", ",", "^", "-", "1", "mod2", ";",
    "free", "P", "module", "M", "{", "}", "gens", "rels", "matrix", "->", "hom", "lift",
    "rows", "degree", "(", ")", "+", "*", "case", "title", "_x9", '"plain"', '"say \\"hi\\""',
    '"back\\\\slash"', '"\\\\"', '""',
]
NOISE = [
    " ", "   ", "\t", "\n", "\r\n", " \n\n  ", "# note\n", "#", "# tail", "#]\n",
    "@", "é", "\f", '"', "\\", ">",
]
texts = st.lists(st.sampled_from(GRAMMAR_FRAGMENTS + NOISE), max_size=40).map("".join)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(source=texts)
def test_lexer_matches_the_reference(source):
    try:
        reference = _tokenize(source, "doc.txt")
    except ParseError as want:
        with pytest.raises(ParseError) as got:
            parse_source(source, "doc.txt")
        assert (got.value.message, got.value.line, got.value.col) == (want.message, want.line, want.col)
        return
    tokens = textio._tokenize(source, "doc.txt")
    assert tokens == [t.text for t in reference]
    # parse errors are reported at a token index; its line and column must not move
    assert [textio._position(source, i) for i in range(len(tokens))] == [(t.line, t.col) for t in reference]


def test_lexer_matches_the_reference_on_the_catalog():
    for entry in resources.files("gradedtrace").joinpath("catalog").iterdir():
        source = entry.read_text()
        assert textio._tokenize(source, entry.name) == [t.text for t in _tokenize(source, entry.name)]


def test_comments_are_never_read_as_tokens():
    doc = parse_source("ring Z; # a [ comment\nmodule M { gens [0 # ]\n]; rels [[2] # ]]\n] } # end")
    assert doc.modules["M"].relations.column(0) == (Z.const(2),)
    with pytest.raises(ParseError) as err:
        parse_source('ring Z;\n  free P [0, "x\\\n];')
    assert (err.value.message, err.value.line, err.value.col) == ("unexpected character '\"'", 2, 14)


def _timed_in_child(code: str) -> list[str]:
    """Run code in a fresh interpreter; a hang fails the test instead of the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=30
        )
    except subprocess.TimeoutExpired:
        pytest.fail("did not finish within 30 s")
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_long_blank_runs_lex_in_linear_time():
    # A nested skip such as (?:[ \t]+|#.*)* before a token that can fail
    # backtracks exponentially: 22 blanks before '@' took 0.4 s that way.
    line, col, seconds = _timed_in_child(
        """
        import time
        from gradedtrace import ParseError, parse_source
        start = time.perf_counter()
        try:
            parse_source(" " * 200_000 + "@")
        except ParseError as exc:
            print(exc.line, exc.col, time.perf_counter() - start)
        """
    )
    assert (line, col) == ("1", "200001")
    assert float(seconds) < 1.0


def test_long_comment_runs_lex_in_linear_time():
    """50 000 comment lines before a statement lex in well under a second.

    The regex engine keeps state for each repeat of the comment skip, so the
    peak memory of one scan grows by about 200 bytes per consecutive comment
    line (10 MB here, Python 3.10 and 3.11); blank runs cost none.
    """
    ring, seconds = _timed_in_child(
        """
        import time
        from gradedtrace import parse_source
        start = time.perf_counter()
        doc = parse_source("# a comment line\\n" * 50_000 + "ring Z;")
        print(doc.ring, time.perf_counter() - start)
        """
    )
    assert ring == "Z"
    assert float(seconds) < 1.0


# -- parse(print(x)) at sizes the corpus never reaches ---------------------------

titles = st.text(
    st.one_of(st.sampled_from('"\\#;\n'), st.characters(blacklist_categories=("Cs",))),
    max_size=16,
)


@settings(
    max_examples=12,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rng=st.randoms(use_true_random=False), title=titles, note=titles)
@pytest.mark.parametrize("ring", RING_POOL, ids=str)
def test_round_trip_at_scale(ring, rng: random.Random, title, note):
    doc = Document()
    for k in range(rng.randint(1, 3)):
        doc.modules[f"P{k}"] = free_presentation(GradedFreeModule(ring, random_shifts(rng, max_rank=6)))
    frees = list(doc.modules.values())
    for k in range(rng.randint(1, 3)):
        source, target = rng.choice(frees), rng.choice(frees)
        doc.matrices[f"F{k}"] = random_matrix(rng, source.generators, target.generators, rng.randint(-2, 2))
    for k in range(rng.randint(1, 2)):
        module = random_presented_module(rng, ring)
        doc.modules[f"M{k}"] = module
        doc.homs[f"h{k}"] = random_module_endo(rng, module)
        doc.homs[f"z{k}"] = random_module_endo(rng, module)
    doc.cases["c"] = ExampleCase(
        "c", title, doc.homs["h0"], doc.homs["z0"], "weight_sum", [ring.one(), ring.const(-2)], None, note
    )
    printed = document_source(doc)
    again = parse_source(printed)
    assert document_source(again) == printed
    assert again.modules == doc.modules
    assert again.matrices == doc.matrices
    assert again.homs == doc.homs
    assert again.cases == doc.cases
    assert (again.cases["c"].title, again.cases["c"].note) == (title, note)
