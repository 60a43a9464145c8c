"""Golden hashes of CLI outputs: every call of one benchmark round, byte for byte.

The calls are those of perfbench's ``cli_documents(1)`` round plus its two
``KEPT_CLI`` calls, run in-process on documents written to a temporary
directory.  Each call is stored as the first 16 hex digits of a SHA-256 over
its exit code, stdout and stderr, with the directory and the per-case
seconds of ``lefschetz`` masked.  ``--help`` texts are left out, since
argparse words them differently across Python versions.

After a deliberate change of output, regenerate the table with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports checks by bare name

import workloads  # noqa: E402

from gradedtrace.cli import main  # noqa: E402

GOLDEN = Path(__file__).with_name("cli_outputs.json")
_SECONDS = re.compile(r"\d+\.\d{3}s(?=  )|(?<=\"seconds\": )[0-9.e-]+")


def _calls() -> tuple[dict, list[list[str]]]:
    docs, calls = workloads.cli_documents(1)
    return docs, [argv for argv, _, _ in calls] + list(workloads.KEPT_CLI.values())


def _digest(argv: list[str], doc_dir: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(doc_dir / a) if a.endswith(".txt") else a for a in argv])
    text = "\0".join((str(rc), out.getvalue(), err.getvalue())).replace(str(doc_dir), "{d}")
    if argv[0] == "lefschetz":
        text = _SECONDS.sub("{s}", text)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(doc_dir: Path) -> dict[str, str]:
    docs, calls = _calls()
    workloads.write_documents(docs, str(doc_dir))
    return {" ".join(argv): _digest(argv, doc_dir) for argv in calls}


def test_cli_outputs_match_their_golden_hashes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert list(got) == list(want), "the calls of the round changed; regenerate the table"
    differing = [call for call in want if got[call] != want[call]]
    assert not differing, "outputs differ for: " + "; ".join(differing)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(json.dumps(digests(Path(d)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
