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
    GradedMatrixHom,
    ParseError,
    PresentedModule,
    document_source,
    free_presentation,
    hs_trace,
    identity_hom,
    identity_module_hom,
    integers,
    laurent_ring,
    parse_source,
    polynomial_ring,
    presented_module,
    textio,
)
from gradedtrace.cli import main
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


# Each malformed document is refused with this exact message at this line and column.
_HEAD = "ring Z;\nfree P [0];\nmodule M { gens [0]; }\nhom f : M -> M { lift [[1]]; }\n"
MALFORMED = [
    ('module item', 'ring Z;\nmodule M { gens [0]; bogus [1]; }\n', "unknown module item 'bogus' (gens, rels, reldegree)", 2, 22),
    ('matrix item', _HEAD + 'matrix F : P -> P { degree 0; lift [[1]]; }\n', "unknown item 'lift' (degree, rows)", 5, 31),
    ('hom item', _HEAD + 'hom g : M -> M { rows [[1]]; }\n', "unknown item 'rows' (degree, lift)", 5, 18),
    ('ses item', _HEAD + 'ses S { modules M, M, M; c [[1]]; }\n', "unknown ses item 'c' (modules, a, b, fA, fB, degree)", 5, 26),
    ('case item', _HEAD + 'case c { title "t"; colour f; }\n', "unknown case item 'colour' (title, even, odd, map, oracle, note)", 5, 21),
    ('no gens', 'ring Z;\nmodule M { rels [[2]]; }\n', "module needs a 'gens [...];' item", 2, 1),
    ('no rows', _HEAD + 'matrix F : P -> P { degree 0; }\n', "missing 'rows [...];' item", 5, 1),
    ('no lift', _HEAD + 'hom g : M -> M { degree 0; }\nfree Q [0];\n', "missing 'lift [...];' item", 5, 1),
    ('no modules', _HEAD + 'ses S { a [[1]]; b [[1]]; }\n', "ses needs a 'modules A, B, C;' item", 5, 1),
    ('no b', _HEAD + 'ses S { modules M, M, M; a [[1]]; }\n', "ses needs both 'a [...];' and 'b [...];' items", 5, 1),
    ('no odd', _HEAD + 'case c { title "t"; even f; oracle weight_sum [1]; }\n', "case needs both 'even HOM;' and 'odd HOM;' items", 5, 1),
    ('no oracle', _HEAD + 'case c { title "t"; even f; odd f; }\n', "case needs an 'oracle NAME [...];' item", 5, 1),
    ('unknown oracle', _HEAD + 'case c { even f; odd f; oracle guess [1]; }\n', "unknown oracle 'guess' (known: circle_fixed_points, count_eigenlines, cw_alternating_sum, det_i_minus_m, signed_rank_sum, suspension_fixed_points, weight_sum)", 5, 32),
    ('map after oracle', _HEAD + 'case c { even f; odd f; oracle weight_sum [1];\n  map Z { } }\n', 'map must come before oracle (payload parses over the map target)', 6, 3),
    ('payload not a list', _HEAD + 'case c { even f; odd f; oracle weight_sum 1; }\n', 'oracle payload must be a [...] list', 5, 43),
    ('trailing comma, shifts', 'ring Z;\nfree P [0, ];\n', "expected 'int', got ']'", 2, 12),
    ('trailing comma, row', _HEAD + 'matrix F : P -> P { rows [[1, ]]; }\n', "expected an element, got ']'", 5, 31),
    ('trailing comma, table', _HEAD + 'matrix F : P -> P { rows [[1], ]; }\n', "expected '[', got ']'", 5, 32),
    ('trailing comma, payload', _HEAD + 'case c { even f; odd f; oracle weight_sum [1, ]; }\n', "expected an element, got ']'", 5, 47),
    ('missing comma, row', _HEAD + 'matrix F : P -> P { rows [[1 2]]; }\n', "expected ']', got '2'", 5, 30),
    ('missing comma, table', _HEAD + 'matrix F : P -> P { rows [[1] [2]]; }\n', "expected ']', got '['", 5, 31),
    ('missing comma, payload', _HEAD + 'case c { even f; odd f; oracle weight_sum [[1] [2]]; }\n', "expected ']', got '['", 5, 48),
    ('missing comma, modules', _HEAD + 'ses S { modules M, M M; }\n', "expected ',', got 'M'", 5, 22),
    ('arity, row', _HEAD + 'matrix F : P -> P { rows [[1, 2]]; }\n', 'row 0: expected 1 entries, got 2', 5, 1),
    ('arity, table', _HEAD + 'matrix F : P -> P {\n  rows [[1], [2]];\n}\n', 'expected 1 rows, got 2', 5, 1),
    ('arity, rels', 'ring Z;\nmodule M { gens [0, 0]; rels [[1]]; }\n', 'expected 2 entries, got 1', 2, 1),
]


@pytest.mark.parametrize("label, source, message, line, col", MALFORMED, ids=[row[0] for row in MALFORMED])
def test_malformed_documents_are_refused_with_message_and_position(label, source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_source(source)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


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


def test_a_case_map_block_may_end_in_a_semicolon_like_every_item():
    src = """
ring Z[t:0,t^-1];
module K { gens [0]; rels [[t - 1]]; }
hom ev : K -> K { lift [[1]]; }
case c { title "t"; even ev; odd ev; map Z { t -> 1; }%s oracle weight_sum [1]; }
"""
    with_semicolon, without = parse_source(src % ";"), parse_source(src % "")
    assert with_semicolon.cases == without.cases
    assert with_semicolon.cases["c"].ring_map.target == Z


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


# -- powers are refused before they expand past the parser's caps ---------------


def test_powers_past_the_caps_exit_2_at_once():
    # unrefused, each of them expands for more than ten seconds
    codes = _timed_in_child(
        """
        import contextlib, io, pathlib, re, tempfile, time
        from gradedtrace.cli import main
        docs = [
            "ring Z[x:2]; module M { gens [0]; rels [[(x+1)^3000]]; }",
            "ring Z; module M { gens [0]; rels [[3^200000000]]; }",
            "ring Z; module M { gens [0]; rels [[3^10000000]]; }",
        ]
        for doc in docs:
            path = pathlib.Path(tempfile.mkdtemp()) / "m.txt"
            path.write_text(doc)
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc = main(["resolve", "-f", str(path)])
            where = re.search(r"m\\.txt:(\\d+:\\d+): power too large", err.getvalue())
            print(rc, time.perf_counter() - start, where and where.group(1))
        """
    )
    rows = [codes[i : i + 3] for i in range(0, len(codes), 3)]
    assert [(rc, at) for rc, _, at in rows] == [("2", "1:48"), ("2", "1:39"), ("2", "1:39")]
    assert all(float(seconds) < 1.0 for _, seconds, _ in rows)


def test_the_largest_powers_the_caps_admit_parse_quickly():
    (seconds,) = _timed_in_child(
        """
        import time
        from gradedtrace import parse_source
        start = time.perf_counter()
        parse_source(
            "ring Z[s:0, t:0]; free P [0]; matrix F : P -> P { rows [[(7*t + 7)^255 + (s + t + 1)^21]]; }"
            "ring Z; free Q [0]; matrix G : Q -> Q { rows [[3^1024 + (-1)^32767]]; }"
        )
        print(time.perf_counter() - start)
        """
    )
    assert float(seconds) < 1.0


def test_one_step_past_each_cap_is_refused_with_its_position():
    zst = "ring Z[s:0, t:0]; free P [0]; matrix F : P -> P { rows [[%s]]; }"
    for power in ["(t + 1)^256", "(s + t + 1)^22", "3^1025", "t^32768", "t^-32768"]:
        with pytest.raises(ParseError, match="power too large to expand") as err:
            parse_source(zst % power)
        # the error points at the exponent
        assert (err.value.line, err.value.col) == (1, (zst % power).index("^") + 2)
    assert "256 terms, 2048 coefficient bits" in GRAMMAR


def test_products_past_the_cap_exit_2_at_once():
    # unrefused, the first of them expands to 531,441 terms in about ten seconds;
    # the last has one term, but its coefficient passes 65,536 bits at the last "*"
    # (unrefused, 2000 such factors took about 15 s to parse)
    ring = "ring Z[x:0, y:0, z:0]; free P [0]; matrix F : P -> P { rows [[%s]]; }"
    products = ["(x+1)^80*(y+1)^80*(z+1)^80", "(x+1)^255*(y+1)^255*(z+1)", "*".join(["2^2048"] * 32)]
    rows = _timed_in_child(
        f"""
        import contextlib, io, pathlib, re, tempfile, time
        from gradedtrace.cli import main
        for product in {products!r}:
            path = pathlib.Path(tempfile.mkdtemp()) / "f.txt"
            path.write_text({ring!r} % product)
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc = main(["trace", "free", "-m", str(path)])
            where = re.search(r"f\\.txt:(\\d+:\\d+): product too large to expand", err.getvalue())
            print(rc, time.perf_counter() - start, where and where.group(1))
        """
    )
    rows = [rows[i : i + 3] for i in range(0, len(rows), 3)]
    # each refusal points at the last "*", where the product passes a cap
    want = [("2", f"1:{ring.index('%s') + p.rindex('*') + 1}") for p in products]
    assert [(rc, at) for rc, _, at in rows] == want
    assert all(float(seconds) < 1.0 for _, seconds, _ in rows)


def test_the_largest_product_the_cap_admits_parses():
    doc = parse_source("ring Z[x:0, y:0]; free P [0]; matrix F : P -> P { rows [[(x+1)^255*(y+1)^255]]; }")
    assert len(doc.matrices["F"].entries[0][0]) == 256 * 256
    assert "65536 terms in a product" in GRAMMAR
    doc = parse_source("ring Z; free P [0]; matrix F : P -> P { rows [[%s]]; }" % "*".join(["2^2048"] * 31))
    assert doc.matrices["F"].entries == ((Z.const(2 ** (2048 * 31)),),)
    assert "65536 coefficient bits in a product" in GRAMMAR


def test_a_million_digit_literal_converts_exactly_within_seconds():
    # converting 600 digits at a time grows quadratically: about 10 s for these
    rows = _timed_in_child(
        """
        import sys, time
        from gradedtrace import integers, parse_source
        digits = "7" * 1_000_000
        want = integers().const(7 * (10 ** len(digits) - 1) // 9)
        for limit in (sys.get_int_max_str_digits(), 640):
            sys.set_int_max_str_digits(limit)
            start = time.perf_counter()
            doc = parse_source("ring Z; free P [0]; matrix F : P -> P { rows [[%s]]; }" % digits)
            print(time.perf_counter() - start, doc.matrices["F"].entries == ((want,),))
        """
    )
    assert rows[1::2] == ["True", "True"]
    assert all(float(seconds) < 4.0 for seconds in rows[::2])


def test_an_integer_literal_past_the_digit_limit_converts_exactly(tmp_path, capsys):
    source = "ring Z;\nfree P [0];\nmatrix F : P -> P { rows [[1 + %s]]; }\n" % ("9" * 5000)
    assert parse_source(source).matrices["F"].entries == ((Z.const(10**5000),),)
    path = tmp_path / "f.txt"
    path.write_text(source)
    assert main(["trace", "free", "-m", str(path)]) == 0
    assert capsys.readouterr().out == f"trace F = 1{'0' * 5000} (degree 0)\n"


def _decimal_digits(n):
    """n >= 0 in decimal, one digit at a time, so no limit on str(int) applies."""
    digits = []
    while True:
        n, d = divmod(n, 10)
        digits.append("0123456789"[d])
        if not n:
            return "".join(reversed(digits))


@pytest.mark.parametrize("limit", [640, sys.get_int_max_str_digits()])
def test_coefficients_past_the_digit_limit_print_in_full(tmp_path, capsys, limit):
    # nine factors of 3^1024 make 3^9216, 4398 digits: past the default 4300
    product = " * ".join(["3^1024"] * 9)
    path = tmp_path / "f.txt"
    path.write_text(f"ring Z[t:0];\nfree P [0];\nmatrix F : P -> P {{ rows [[-({product})*t + {product}]]; }}\n")
    digits = _decimal_digits(3**9216)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert main(["trace", "free", "-m", str(path)]) == 0
        assert capsys.readouterr().out == f"trace F = -{digits}*t + {digits} (degree 0)\n"
        assert sys.get_int_max_str_digits() == limit
        doc = parse_source(path.read_text())
        printed = document_source(doc)
        assert f"[[-{digits}*t + {digits}]]" in printed
        assert parse_source(printed).matrices == doc.matrices
    finally:
        sys.set_int_max_str_digits(before)


# -- printer branches: reldegree, endomorphism degrees, case maps, refusals -------

PRINTER_BRANCHES = """
ring Z[x:2];
module M { gens [0]; rels [[x]]; reldegree 3; }
free A [-2];
free B [0];
module C { gens [0]; rels [[x]]; }
ses S { modules A, B, C; a [[x]]; b [[1]]; fA [[x]]; fB [[x]]; degree 2; }

ring Z[t:0, t^-1];
free P [0];
hom one : P -> P { lift [[1]]; }
hom zero : P -> P { lift [[0]]; }
case pushed { title "pushed to Z"; even one; odd zero; map Z { t -> 1; } oracle weight_sum [1]; }
"""


def test_printer_branches_round_trip():
    doc = parse_source(PRINTER_BRANCHES)
    printed = document_source(doc)
    assert "  reldegree 3;" in printed.splitlines()
    assert "  degree 2;" in printed.splitlines()
    assert "  map Z { t -> 1; }" in printed.splitlines()
    again = parse_source(printed)
    assert document_source(again) == printed
    assert again.modules["M"] == doc.modules["M"]
    assert again.sequences["S"].middle_endo.degree == 2
    assert again.cases["pushed"].ring_map == doc.cases["pushed"].ring_map


def test_a_relation_shift_off_the_column_rule_cannot_be_serialized():
    gens = GradedFreeModule(Z, (0,))
    # a zero column has shift 0 under the column rule; this one has 2
    relations = GradedMatrixHom(GradedFreeModule(Z, (2,)), gens, 1, [[0]])
    doc = Document()
    doc.modules["M"] = PresentedModule(gens, relations)
    with pytest.raises(ValueError) as err:
        document_source(doc)
    assert str(err.value) == (
        "module M: relation shifts do not follow the column rule; this module cannot be serialized"
    )


def test_references_to_undeclared_objects_are_refused():
    doc = parse_source(PRINTER_BRANCHES)
    pushed = doc.cases["pushed"]
    cases = [
        ("matrices", "F", identity_hom(GradedFreeModule(Z, (5,))), "matrix F references a module"),
        ("homs", "h", identity_module_hom(presented_module(Z, [0], [[3]])), "hom h references a module"),
        ("cases", "c", ExampleCase("c", "", identity_module_hom(doc.modules["P"]), pushed.odd, "weight_sum", [1]),
         "case c references a hom"),
    ]
    for table, name, value, context in cases:
        broken = parse_source(PRINTER_BRANCHES)
        getattr(broken, table)[name] = value
        with pytest.raises(ValueError) as err:
            document_source(broken)
        assert str(err.value) == f"{context} not declared in the document"


def test_an_even_relation_degree_is_refused_at_its_statement():
    with pytest.raises(ParseError) as err:
        parse_source("ring Z;\nfree P [0];\nmodule M { gens [0]; rels [[2]]; reldegree 2; }\n")
    assert (err.value.message, err.value.line, err.value.col) == ("relation maps must have odd degree", 3, 1)
