"""The shipped fixed-point catalog, the suite runner, and the CLI."""

import argparse
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gradedtrace import builtin_catalog, hs_trace, int_determinant, parse_source, run_case, run_suite, textio
from gradedtrace.cli import EXIT_CODES, build_parser, main

CATALOG = builtin_catalog()


def test_catalog_loads_and_names_are_unique():
    names = [case.name for case in CATALOG.values()]
    assert names == list(CATALOG)
    assert len(names) == len(set(names))
    assert len(names) >= 25


def test_catalog_all_cases_match():
    suite = run_suite(list(CATALOG.values()))
    failures = [r.line() for r in suite.reports if not r.ok]
    assert suite.all_ok, "\n".join(failures)
    assert suite.total == len(CATALOG)
    assert not suite.mismatches and not suite.errors


def test_run_case_reports_engine_and_oracle_values():
    case = CATALOG["torus_anosov"]
    report = run_case(case)
    assert report.matched
    assert str(report.engine_value) == "-1"
    assert str(report.oracle_value) == "-1"
    assert report.seconds >= 0
    assert case.name in report.line()


def test_sphere_cases_cover_six_degrees():
    spheres = sorted(n for n in CATALOG if n.startswith("sphere_deg_"))
    assert spheres == [
        "sphere_deg_0",
        "sphere_deg_1",
        "sphere_deg_2",
        "sphere_deg_3",
        "sphere_deg_m1",
        "sphere_deg_m2",
    ]
    for case in CATALOG.values():
        if case.name.startswith("sphere_deg_"):
            value = hs_trace(case.even).value - hs_trace(case.odd).value
            assert value == report_oracle(case)


def report_oracle(case):
    from gradedtrace import ORACLES

    return ORACLES[case.oracle_name](case.comparison_ring, case.oracle_payload)


MISMATCH_DOC = """
ring Z;
free H [0];
hom one : H -> H { lift [[1]]; }
hom zero : H -> H { lift [[0]]; }
case broken { title "wrong oracle"; even one; odd zero; oracle weight_sum [5]; }
"""


def test_run_case_mismatch_is_reported_not_raised():
    doc = parse_source(MISMATCH_DOC)
    report = run_case(doc.cases["broken"])
    assert not report.matched and not report.ok and not report.error
    suite = run_suite(list(doc.cases.values()))
    assert len(suite.mismatches) == 1 and not suite.errors and not suite.all_ok


def test_run_suite_summary_mentions_counts():
    suite = run_suite(list(CATALOG.values()))
    text = suite.summary()
    assert str(suite.total) in text
    assert "0 mismatched" in text and "0 errors" in text


# -- command line -----------------------------------------------------------------


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "endo.txt").write_text(
        """
ring Z[x:2];
free P [0, -2];
matrix F : P -> P { degree 2; rows [[x, 0], [1, x]]; }
module M { gens [0]; rels [[x^2]]; }
hom g : M -> M { degree 2; lift [[x]]; }
"""
    )
    (tmp_path / "ses.txt").write_text(
        """
ring Z;
module A { gens [0]; rels [[2]]; }
module B { gens [0]; rels [[4]]; }
module C { gens [0]; rels [[2]]; }
ses S { modules A, B, C; a [[2]]; b [[1]]; fA [[1]]; fB [[1]]; }
"""
    )
    (tmp_path / "mismatch.case").write_text(MISMATCH_DOC)
    return tmp_path


def test_cli_trace_free(workdir, capsys):
    assert main(["trace", "free", "-m", str(workdir / "endo.txt")]) == 0
    out = capsys.readouterr().out
    assert "2*x" in out


def test_cli_trace_hs(workdir, capsys):
    code = main(
        [
            "trace",
            "hs",
            "-M",
            str(workdir / "endo.txt"),
            "-f",
            str(workdir / "endo.txt"),
            "--module-name",
            "M",
            "--name",
            "g",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == {"value": "0", "degree": 2}
    assert payload["module"] == "M" and payload["hom"] == "g"


def test_cli_trace_hs_parses_a_shared_file_once(workdir, monkeypatch, capsys):
    parsed = []
    parse = textio.parse_source

    def counting_parse(source, filename="<input>"):
        parsed.append(filename)
        return parse(source, filename)

    monkeypatch.setattr(textio, "parse_source", counting_parse)
    (workdir / "copy.txt").write_text((workdir / "endo.txt").read_text())
    outputs = []
    for hom_file in ("endo.txt", "copy.txt"):
        for fmt in ("text", "json"):
            parsed.clear()
            argv = ["trace", "hs", "-M", str(workdir / "endo.txt"), "-f", str(workdir / hom_file)]
            assert main(argv + ["--module-name", "M", "--name", "g", "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
            assert len(parsed) == (1 if hom_file == "endo.txt" else 2)
    assert outputs[:2] == outputs[2:]


RESOLUTION_FILES = {
    # d1 of the minimal resolution 0 -> R[-3] -x^2-> R[0] of M = Z[x:2]/(x^2)
    "d1.txt": "ring Z[x:2]; free G [0]; free S [-3]; matrix d1 : S -> G { degree 1; rows [[x^2]]; }",
    "kernel.txt": "ring Z[x:2]; free G [0]; free S [-3, -3]; matrix d1 : S -> G { degree 1; rows [[x^2, x^2]]; }",
    "outside.txt": "ring Z[x:2]; free G [2]; free S [-1]; matrix d1 : S -> G { degree 1; rows [[x^2]]; }",
}


@pytest.fixture()
def resolution_argv(workdir):
    for name, text in RESOLUTION_FILES.items():
        (workdir / name).write_text(text)
    endo = str(workdir / "endo.txt")
    return lambda name: ["trace", "hs", "-M", endo, "-f", endo, "--module-name", "M", "--name", "g"] + (
        ["--resolution", str(workdir / name)] if name else []
    )


def test_cli_trace_hs_reuses_a_resolution_file(resolution_argv, capsys):
    for fmt in ("text", "json"):
        outputs = []
        for name in (None, "d1.txt"):
            assert main(resolution_argv(name) + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert json.loads(outputs[0].out)["trace"] == {"value": "0", "degree": 2}


def test_cli_trace_hs_refuses_a_resolution_file_with_a_kernel(resolution_argv, workdir, capsys):
    assert main(resolution_argv("kernel.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir / 'kernel.txt'} is not a resolution: ")


def test_cli_trace_hs_refuses_a_d1_outside_the_generator_module(resolution_argv, capsys):
    assert main(resolution_argv("outside.txt")) == 2
    assert capsys.readouterr().err == "error: d1 must land in the generator module of the resolved module\n"


def test_cli_resolve(workdir, capsys):
    assert main(["resolve", "-f", str(workdir / "endo.txt"), "-m", "M"]) == 0
    assert "length" in capsys.readouterr().out


def test_cli_zigzag(workdir, capsys):
    assert main(["zigzag", "-A", str(workdir / "endo.txt"), "--name", "P"]) == 0
    assert "hold" in capsys.readouterr().out


def test_cli_ctrace_agrees(workdir, capsys):
    assert main(["ctrace", "-f", str(workdir / "endo.txt")]) == 0
    out = capsys.readouterr().out
    assert "categorical" in out and "agree" in out


def test_cli_check_additivity(workdir, capsys):
    assert main(["check-additivity", "-s", str(workdir / "ses.txt")]) == 0
    assert "defect = 0" in capsys.readouterr().out


def test_cli_lefschetz_list_and_run(capsys):
    assert main(["lefschetz", "list"]) == 0
    listed = capsys.readouterr().out
    assert "torus_anosov" in listed
    assert main(["lefschetz", "run", "--filter", "torus"]) == 0
    ran = capsys.readouterr().out
    assert "torus_rotation" in ran and "ok" in ran


def test_cli_lefschetz_list_honours_the_filter(capsys):
    torus = ["torus_anosov", "torus_identity", "torus_rotation", "torus_twist"]
    assert main(["lefschetz", "list", "--filter", "torus"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in lines) == torus
    assert main(["lefschetz", "list", "--filter", "torus", "--format", "json"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == torus


def test_cli_lefschetz_run_json(capsys):
    assert main(["lefschetz", "run", "--filter", "s1_deg", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert "0 mismatched" in payload["summary"]
    assert len(payload["cases"]) == 6
    assert all(r["matched"] for r in payload["cases"])


def test_cli_lefschetz_mismatch_exit_code(workdir, capsys):
    code = main(["lefschetz", "run", "-f", str(workdir / "mismatch.case")])
    assert code == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


def test_cli_bad_input_paths(workdir, capsys):
    assert main(["trace", "free", "-m", str(workdir / "missing.txt")]) == 2
    assert main(["lefschetz", "run", "--filter", "no_such_case"]) == 2
    (workdir / "broken.txt").write_text("ring Z; free P [oops];")
    assert main(["trace", "free", "-m", str(workdir / "broken.txt")]) == 2
    deep = "(" * 2000 + "1" + ")" * 2000
    (workdir / "deep.txt").write_text(f"ring Z; free P [0]; matrix F : P -> P {{ rows [[{deep}]]; }}")
    assert main(["trace", "free", "-m", str(workdir / "deep.txt")]) == 2
    assert "nested more than" in capsys.readouterr().err
    (workdir / "xy.txt").write_text("ring Z[x:2,y:2]; module M { gens [0]; rels [[x], [y]]; }")
    assert main(["resolve", "-f", str(workdir / "xy.txt"), "--max-length", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_resolve_counts_the_relation_map_against_max_length(workdir, capsys):
    (workdir / "x.txt").write_text("ring Z[x:2]; module M { gens [0]; rels [[x]]; }")
    for bound in ("0", "-3"):
        assert main(["resolve", "-f", str(workdir / "x.txt"), "--max-length", bound]) == 2
        assert f"no free resolution of length <= {bound} found" in capsys.readouterr().err
    assert main(["resolve", "-f", str(workdir / "x.txt"), "--max-length", "1"]) == 0
    assert "length 1" in capsys.readouterr().out


def test_cli_resolve_refuses_a_negative_max_length_for_every_module(workdir, capsys):
    # a free module has a resolution of length 0, which is still not <= -1
    (workdir / "free.txt").write_text("ring Z[x:2]; module F { gens [0, 1]; }")
    (workdir / "x.txt").write_text("ring Z[x:2]; module M { gens [0]; rels [[x]]; }")
    for name in ("free.txt", "x.txt"):
        assert main(["resolve", "-f", str(workdir / name), "--max-length", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no free resolution of length <= -1 found" in captured.err
    assert main(["resolve", "-f", str(workdir / "free.txt"), "--max-length", "0"]) == 0
    assert "length 0" in capsys.readouterr().out


def test_cli_emit_grammar(capsys):
    assert main(["--emit-grammar"]) == 0
    out = capsys.readouterr().out
    assert "ring" in out and "case" in out


def test_cli_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith(EXIT_CODES.rstrip())
    for line in ("  0  everything checked out", "  1  an identity failed", "  2  bad input"):
        assert line in out
    assert "EngineError" in out and "exits 2" in out


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_the_console_script_resolves_to_main(capsys):
    # a regex rather than tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    entry = re.search(r'^\[project\.scripts\]\ngradedtrace = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert entry is not None
    target = getattr(importlib.import_module(entry.group(1)), entry.group(2))
    assert target is main
    assert target([]) == 2
    assert capsys.readouterr().out.startswith("usage: gradedtrace")


REFUSAL_FILES = {
    "refuse.txt": """
ring Z[x:2];
free P [0];
free Q [0, 0];
matrix N : P -> Q { rows [[1], [1]]; }
matrix I : P -> P { rows [[1]]; }
module M { gens [0]; rels [[x^2]]; }
module K { gens [0]; rels [[x]]; }
hom onto : M -> K { lift [[1]]; }
""",
    "two_ses.txt": """
ring Z;
module A { gens [0]; rels [[2]]; }
module B { gens [0]; rels [[4]]; }
module C { gens [0]; rels [[2]]; }
ses S { modules A, B, C; a [[2]]; b [[1]]; fA [[1]]; }
ses T { modules A, B, C; a [[2]]; b [[1]]; fA [[1]]; fB [[1]]; }
""",
    # fB = 1 sends a(1) = 2 to 2 in Z/4, but a(fA(1)) = 0
    "no_restrict.txt": """
ring Z;
module A { gens [0]; rels [[2]]; }
module B { gens [0]; rels [[4]]; }
module C { gens [0]; rels [[2]]; }
ses S { modules A, B, C; a [[2]]; b [[1]]; fA [[0]]; fB [[1]]; }
""",
}

# argv with {d} for the working directory, and the exact message after "error: "
CLI_REFUSALS = [
    (["trace", "free", "-m", "{d}/ses.txt"], "{d}/ses.txt declares no matrix"),
    (["ctrace", "-f", "{d}/two_ses.txt"], "{d}/two_ses.txt declares no matrix"),
    (["zigzag", "-A", "{d}/endo.txt"], "{d}/endo.txt declares more than one module (P, M); pick one with --name"),
    (["check-additivity", "-s", "{d}/two_ses.txt"], "{d}/two_ses.txt declares more than one ses (S, T); pick one with --name"),
    (["ctrace", "-f", "{d}/endo.txt", "--name", "G"], "no matrix named 'G' in {d}/endo.txt (found: F)"),
    (["resolve", "-f", "{d}/ses.txt", "-m", "D"], "no module named 'D' in {d}/ses.txt (found: A, B, C)"),
    (["ctrace", "-f", "{d}/refuse.txt"], "{d}/refuse.txt declares more than one matrix (N, I); pick one with --name"),
    (["trace", "free", "-m", "{d}/refuse.txt", "--name", "N"], "matrix N is not an endomorphism"),
    (["ctrace", "-f", "{d}/refuse.txt", "--name", "N"], "matrix N is not an endomorphism"),
    (
        ["trace", "hs", "-M", "{d}/refuse.txt", "--module-name", "M", "-f", "{d}/refuse.txt"],
        "hom onto is not an endomorphism of module M",
    ),
    (
        ["trace", "hs", "-M", "{d}/endo.txt", "--module-name", "M", "-f", "{d}/endo.txt", "--name", "g", "--resolution", "{d}/ses.txt"],
        "{d}/ses.txt declares no matrices named d1, d2, ...",
    ),
    (["zigzag", "-A", "{d}/endo.txt", "--name", "M"], "module M is not free; zigzag works on free modules"),
    (["check-additivity", "-s", "{d}/no_restrict.txt"], "ses S: f_middle does not restrict to f_left along a"),
    (["check-additivity", "-s", "{d}/two_ses.txt", "--name", "S"], "ses S needs both fA and fB to check additivity"),
    (["lefschetz", "run", "--filter", "nope"], "no case matches filter 'nope'"),
    (["lefschetz", "list", "--filter", "nix"], "no case matches filter 'nix'"),
    (["lefschetz", "list", "-f", "{d}/missing.case"], "cannot read {d}/missing.case: "),
    (["lefschetz", "run", "-f", "{d}/ses.txt"], "{d}/ses.txt declares no case"),
    (["lefschetz", "list", "-f", "{d}/two_ses.txt"], "{d}/two_ses.txt declares no case"),
    (["trace", "free", "-m", "{d}/missing.txt"], "cannot read {d}/missing.txt: "),
]


@pytest.mark.parametrize("argv, message", CLI_REFUSALS, ids=[m.replace("{d}/", "")[:40] for _, m in CLI_REFUSALS])
def test_cli_refusals_exit_2_with_their_message(workdir, capsys, argv, message):
    for name, text in REFUSAL_FILES.items():
        (workdir / name).write_text(text)
    assert main([a.format(d=workdir) for a in argv]) == 2
    out, err = capsys.readouterr()
    want = f"error: {message.format(d=workdir)}"
    assert out == ""
    if message.endswith(": "):  # the OS text after "cannot read" varies
        assert err.startswith(want) and err.endswith("\n") and "\n" not in err[:-1]
    else:
        assert err == want + "\n"


def test_a_file_that_is_not_utf8_is_refused_with_its_name(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xffring Z;\n")
    assert main(["trace", "free", "-m", str(path)]) == 2
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr() == ("", f"error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize("leaf", [["trace", "free"], ["trace", "hs"], ["resolve"], ["zigzag"], ["ctrace"],
                                  ["check-additivity"], ["lefschetz"]])
def test_each_leaf_command_documents_its_format(leaf, capsys):
    with pytest.raises(SystemExit) as exc:
        main(leaf + ["--help"])
    assert exc.value.code == 0
    assert "--format {text,json}" in capsys.readouterr().out


# -- one command table per process; calls share no state ---------------------------


def test_a_second_call_builds_no_parser(workdir, monkeypatch, capsys):
    argv = ["trace", "free", "-m", str(workdir / "endo.txt")]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []
    assert build_parser() is build_parser()


def test_no_state_leaks_between_calls(workdir, capsys):
    (workdir / "xy.txt").write_text("ring Z[x:2,y:2]; module M { gens [0]; rels [[x], [y]]; }")
    assert main(["resolve", "-f", str(workdir / "xy.txt"), "--max-length", "1"]) == 2
    assert main(["resolve", "-f", str(workdir / "xy.txt")]) == 0
    assert "(verified)" in capsys.readouterr().out
    assert main(["trace", "free", "-m", str(workdir / "endo.txt"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["matrix"] == "F"
    assert main(["trace", "free", "-m", str(workdir / "endo.txt")]) == 0
    assert capsys.readouterr().out.startswith("trace F = ")


def test_help_follows_the_width_of_each_printing(monkeypatch, capsys):
    printed = []
    for width in ("80", "132"):
        monkeypatch.setenv("COLUMNS", width)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        printed.append(capsys.readouterr().out)
        assert printed[-1] == build_parser.__wrapped__().format_help()
    assert printed[0] != printed[1]


def test_mutating_the_catalog_changes_no_later_run(capsys):
    cases = builtin_catalog()
    cases.clear()
    assert builtin_catalog() is not cases and len(builtin_catalog()) == len(CATALOG)
    assert main(["lefschetz", "run", "--filter", "torus"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4/4 matched, 0 mismatched, 0 errors"


# -- refusals past parsing --------------------------------------------------------

EVEN_RESOLUTION_FILES = {
    "m.txt": "ring Z[x:2]; module M { gens [0]; rels [[x]]; } hom f : M -> M { lift [[1]]; }",
    # d1 has even degree: the trace through it would read 2, not 0
    "r.txt": "ring Z[x:2]; free G [0]; free P1 [-2]; matrix d1 : P1 -> G { degree 0; rows [[x]]; }",
    "odd.txt": "ring Z[x:2]; free G [0]; free P1 [-1]; matrix d1 : P1 -> G { degree 1; rows [[x]]; }",
}


def test_cli_trace_hs_refuses_a_resolution_of_even_degree(tmp_path, capsys):
    for name, text in EVEN_RESOLUTION_FILES.items():
        (tmp_path / name).write_text(text)
    argv = ["trace", "hs", "-M", str(tmp_path / "m.txt"), "-f", str(tmp_path / "m.txt")]
    for extra in ([], ["--resolution", str(tmp_path / "odd.txt")]):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == "trace f on M = 0 (degree 0)\n"
    assert main(argv + ["--resolution", str(tmp_path / "r.txt")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {tmp_path / 'r.txt'} is not a resolution: "
        "map 0 has even degree 0; resolution maps must have odd degree\n"
    )


BAD_PAYLOAD_DOC = """
ring Z;
free H [0];
hom one : H -> H { lift [[1]]; }
hom zero : H -> H { lift [[0]]; }
case bad { title "a row for a matrix"; even one; odd zero; oracle det_i_minus_m [[1, 2]]; }
"""


def test_cli_lefschetz_run_reports_an_oracle_error(tmp_path, capsys):
    path = tmp_path / "bad.case"
    path.write_text(BAD_PAYLOAD_DOC)
    assert main(["lefschetz", "run", "-f", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    masked = re.sub(r"\d+\.\d{3}s", "0.000s", out)
    assert masked.splitlines() == [
        f"{'bad':<28} {'ERROR':<9} {0:7.3f}s  OracleError: expected a matrix (list of rows)",
        "0/1 matched, 0 mismatched, 1 errors",
    ]
    assert main(["lefschetz", "run", "-f", str(path), "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["summary"] == "0/1 matched, 0 mismatched, 1 errors"
    (case,) = payload["cases"]
    assert case["engine"] is None and case["oracle"] is None and case["matched"] is False
    assert case["error"] == "OracleError: expected a matrix (list of rows)"


# -- no hangs: each of these documents once ran for tens of seconds -------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_cli_in_subprocess(tmp_path, text: str) -> subprocess.CompletedProcess:
    path = tmp_path / "doc.case"
    path.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "gradedtrace.cli", "lefschetz", "run", "-f", str(path)],
        env=env, capture_output=True, text=True, timeout=30,
    )


def test_cli_runs_a_20_by_20_torus_oracle(tmp_path):
    rng = random.Random(20)
    m = [[rng.randint(-3, 3) for _ in range(20)] for _ in range(20)]
    expected = int_determinant([[(i == j) - m[i][j] for j in range(20)] for i in range(20)])
    done = _run_cli_in_subprocess(tmp_path, f"""
ring Z;
free H [0];
hom one : H -> H {{ lift [[1]]; }}
hom zero : H -> H {{ lift [[0]]; }}
case big_torus {{ title "a 20 by 20 matrix"; even one; odd zero; oracle det_i_minus_m [{m}]; }}
""")
    assert done.returncode == (0 if expected == 1 else 1), done.stderr
    assert f"oracle={expected}" in done.stdout


def test_cli_refuses_a_circle_degree_past_the_bound(tmp_path):
    done = _run_cli_in_subprocess(tmp_path, """
ring Z;
free H [0];
hom one : H -> H { lift [[1]]; }
hom wind : H -> H { lift [[1000000000]]; }
case huge_degree { title "winding number 10^9"; even one; odd wind; oracle circle_fixed_points [1000000000]; }
""")
    assert done.returncode == 2, done.stderr
    assert "OracleError: degree 1000000000 has 999999999 fixed points to check" in done.stdout


def test_cli_refuses_an_oracle_matrix_past_the_bound(tmp_path):
    m = [[int(i == j) for j in range(100)] for i in range(100)]
    done = _run_cli_in_subprocess(tmp_path, f"""
ring Z;
free H [0];
hom one : H -> H {{ lift [[1]]; }}
hom zero : H -> H {{ lift [[0]]; }}
case huge_torus {{ title "a 100 by 100 matrix"; even one; odd zero; oracle det_i_minus_m [{m}]; }}
""")
    assert done.returncode == 2, done.stderr
    assert "OracleError: a 100 x 100 matrix is larger than the bound of 32" in done.stdout


def test_cli_refuses_a_ring_map_image_past_the_caps(tmp_path):
    done = _run_cli_in_subprocess(tmp_path, """
ring Z[s:0];
free H [0];
hom power : H -> H { lift [[s^4000]]; }
hom zero : H -> H { lift [[0]]; }
case huge_image {
  title "(t + 1/t)^4000";
  even power; odd zero;
  map Z[t:0, t^-1] { s -> t + t^-1; }
  oracle weight_sum [0];
}
""")
    assert done.returncode == 2, done.stderr
    assert "ValueError: the image of s^4000 expands past the caps: " in done.stdout
