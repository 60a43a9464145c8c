"""The integer engine: inputs that once hung, and properties at sizes the corpus never reaches.

The first three tests and the pruning deadline run in a subprocess under a
deadline, so that an engine whose coefficients swell fails them instead of
hanging the suite.
"""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genutils as gu
import gradedtrace.solvers as solvers_impl
from gradedtrace import (
    ColumnSpan,
    GradedFreeModule,
    int_determinant,
    integers,
    kernel_of_hom,
    lift_endomorphism,
    module_hom,
    presented_module,
    prune_columns,
    resolve,
    smith_normal_form,
    verify_lift,
    verify_resolution,
)

ROOT = Path(__file__).resolve().parent.parent
# about 0.2 s here, interpreter start included; swelling coefficients take minutes
DEADLINE_S = 5

BASELINE_6X6 = [
    [-2, 9, -2, 3, -9, -9], [9, -7, -3, -5, -7, -1], [8, -9, 6, -2, -4, 6],
    [-5, 6, 8, -5, 9, 3], [2, -1, 8, 7, -8, 4], [6, 8, 6, 3, 0, 3],
]
SLOW_4X6 = [
    [-2, -9, -3, -8], [3, 5, -3, 0], [7, -6, -3, -2],
    [-8, -5, -8, -7], [-7, 9, 1, -5], [-9, -3, -1, 8],
]
# the columns of a 6 x 6 matrix with entries up to 5
SMITH_6X6 = [
    [-5, 0, 0, -3, -5, -2], [-5, 4, 5, -2, -5, 0], [5, 0, -3, 4, -1, -4],
    [-5, 2, 3, 2, -4, 1], [1, 5, 3, -3, 5, 3], [5, -3, 1, -1, 1, -1],
]


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=DEADLINE_S
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"did not finish within {DEADLINE_S} s")


def test_cli_resolves_the_baseline_six_by_six(tmp_path):
    doc = tmp_path / "m.txt"
    doc.write_text(f"ring Z;\nmodule M {{ gens [0,0,0,0,0,0]; rels {BASELINE_6X6}; }}\n")
    done = _run(["-m", "gradedtrace.cli", "resolve", "-f", str(doc), "-m", "M"])
    assert done.returncode == 0, done.stderr
    assert "length" in done.stdout


def test_four_by_six_presentation_resolves_and_traces():
    code = f"""
        from gradedtrace import hs_trace, integers, module_hom, presented_module, resolve, verify_resolution
        Z = integers()
        M = presented_module(Z, [0] * 4, [[Z.const(c) for c in col] for col in {SLOW_4X6}])
        res = resolve(M)
        verify_resolution(res)
        ranks = [m.rank for m in res.modules]
        signed = sum((-1) ** i * r for i, r in enumerate(ranks))
        c = 7
        endo = module_hom(M, M, 0, [[Z.const(c if i == j else 0) for i in range(4)] for j in range(4)])
        tr = hs_trace(endo, resolution=res)
        assert tr.value == Z.const(c * signed), (tr.value, signed)
        print(ranks)
    """
    done = _run(["-c", textwrap.dedent(code)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[4, 6, 2]"


def test_smith_form_of_the_six_by_six_with_entries_up_to_five():
    rows = [list(r) for r in zip(*SMITH_6X6)]
    code = f"from gradedtrace import smith_normal_form\nprint(smith_normal_form({rows}).diagonal)"
    done = _run(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[1, 1, 1, 1, 2, 768]"
    assert abs(int_determinant(rows)) == 2 * 768


# -- properties up to 12 x 12 with entries up to 50 ---------------------------


def _bit_bound(m, n, entry_bound):
    """The bound smith_normal_form's docstring states, in bits."""
    size, b = max(m, n, 2), max(entry_bound, 2)
    return 3 * size * math.log2(b * math.sqrt(size)) + 64


def _bits(*matrices):
    return max((abs(v).bit_length() for mat in matrices for row in mat for v in row), default=0)


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rank(rows):
    """Rank by Fraction elimination, sharing nothing with the engine."""
    a = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _is_reduced_hermite(vectors):
    """Positive pivots in strictly increasing position, earlier vectors in [0, pivot) there."""
    pivots = [next(i for i, c in enumerate(v) if c) for v in vectors]
    return (
        all(a < b for a, b in zip(pivots, pivots[1:]))
        and all(v[p] > 0 for v, p in zip(vectors, pivots))
        and all(0 <= u[p] < v[p] for k, (v, p) in enumerate(zip(vectors, pivots)) for u in vectors[:k])
    )


@st.composite
def matrices(draw):
    """m x n integer matrices, m, n <= 12, entries up to 50, a third with columns repeated."""
    rng = draw(st.randoms(use_true_random=False))
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
    if rng.random() < 1 / 3:
        for _ in range(rng.randint(1, n)):
            src, dst = rng.randrange(n), rng.randrange(n)
            for r in rows:
                r[dst] = r[src]
    return rows


SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SETTINGS
@given(rows=matrices())
def test_smith_form_at_scale(rows):
    m, n = len(rows), len(rows[0])
    snf = smith_normal_form(rows)
    U, D, V = snf.U, snf.D, snf.V
    assert _mat_mul(_mat_mul(U, D), V) == rows
    assert _mat_mul(U, snf.Uinv) == _eye(m)
    assert _mat_mul(snf.Vinv, V) == _eye(n)
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = snf.diagonal
    r = _rank(rows)
    assert all(d > 0 for d in diag[:r]) and not any(diag[r:])
    assert all(b % a == 0 for a, b in zip(diag[:r], diag[1:r]))
    if m == n:
        assert math.prod(diag) == abs(int_determinant(rows))
    assert _bits(U, D, V, snf.Uinv, snf.Vinv) <= _bit_bound(m, n, 50)


@SETTINGS
@given(rows=matrices(), data=st.data())
def test_integer_spans_at_scale(rows, data):
    Z = integers()
    m, n = len(rows), len(rows[0])
    ambient = GradedFreeModule(Z, (0,) * m)
    columns = [tuple(Z.const(rows[i][j]) for i in range(m)) for j in range(n)]
    span = ColumnSpan(ambient, columns)
    # certificates recombine exactly, for a vector inside the span and one at random
    x = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    inside = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(m)]
    anywhere = data.draw(st.lists(st.integers(-50, 50), min_size=m, max_size=m))
    for v in (inside, anywhere):
        remainder, cert = span.normal_form(tuple(map(Z.const, v)))
        c = [e.coefficient(()) for e in cert]
        rebuilt = [remainder[i].coefficient(()) + sum(rows[i][j] * c[j] for j in range(n)) for i in range(m)]
        assert rebuilt == v
        assert span.contains(tuple(map(Z.const, v))) == (not any(remainder))
    assert span.contains(tuple(map(Z.const, inside)))
    # the kernel annihilates the matrix and has rank n - rank
    kernel = [[e.coefficient(()) for e in k] for k in span.syzygy_vectors()]
    r = _rank(rows)
    assert len(kernel) == n - r
    assert all(sum(rows[i][j] * k[j] for j in range(n)) == 0 for k in kernel for i in range(m))
    assert not kernel or _rank(kernel) == n - r
    assert _is_reduced_hermite(kernel)
    assert _is_reduced_hermite([[e.coefficient(()) for e in b] for b in span.basis_vectors()])
    # the reduced Hermite basis is canonical: a column permutation keeps it
    perm = data.draw(st.permutations(range(n)))
    assert ColumnSpan(ambient, [columns[j] for j in perm]).basis_vectors() == span.basis_vectors()
    # every stored Hermite column, transform column and kernel entry is bounded
    stored = [vec for block in span._backend.blocks for vec in block[3] + block[4]]
    assert _bits(stored) <= _bit_bound(m, n, 50)


def _hermite_reference(vecs, m, duals=None):
    """solvers._hermite as it stood before its fixed cost per call was trimmed, kept frozen."""
    duals = duals if duals is not None else [[] for _ in vecs]
    pivots = {}
    for j in range(len(vecs)):
        for r in range(m):
            b = vecs[j][r]
            if not b:
                continue
            k = pivots.get(r)
            if k is None:
                pivots[r] = j
                if b < 0:
                    vecs[j] = [-x for x in vecs[j]]
                    duals[j] = [-x for x in duals[j]]
                break
            g, s, t = solvers_impl._xgcd(vecs[k][r], b)
            x, y = vecs[k][r] // g, b // g
            vk, vj, wk, wj = vecs[k], vecs[j], duals[k], duals[j]
            vecs[k] = [s * p + t * q for p, q in zip(vk, vj)]
            vecs[j] = [x * q - y * p for p, q in zip(vk, vj)]
            duals[k] = [x * p + y * q for p, q in zip(wk, wj)]
            duals[j] = [s * q - t * p for p, q in zip(wk, wj)]
        rows = sorted(pivots)
        for i, c in enumerate(pivots[r] for r in rows):
            for r in rows[i + 1 :]:
                k = pivots[r]
                q = vecs[c][r] // vecs[k][r]
                if q:
                    vecs[c] = [p - q * z for p, z in zip(vecs[c], vecs[k])]
                    duals[k] = [z + q * p for p, z in zip(duals[c], duals[k])]
    rows = sorted(pivots)
    order = [pivots[r] for r in rows]
    order += sorted(set(range(len(vecs))).difference(order))
    vecs[:] = [vecs[j] for j in order]
    duals[:] = [duals[j] for j in order]
    return rows


@SETTINGS
@given(rng=st.randoms(use_true_random=False), with_duals=st.booleans())
def test_hermite_matches_its_frozen_reference(rng, with_duals):
    # zero, repeated and unit columns give insertions with no step, no pivot, or an identity order
    m, n, extra = rng.randint(0, 7), rng.randint(0, 9), rng.randint(0, 4)
    vecs = []
    for j in range(n):
        kind = rng.random()
        if kind < 0.2:
            head = [0] * m
        elif kind < 0.35 and vecs:
            head = list(rng.choice(vecs)[:m])
        elif kind < 0.5 and j < m:
            head = [int(i == j) for i in range(m)]
        else:
            head = [rng.randint(-20, 20) if rng.random() < 0.6 else 0 for _ in range(m)]
        vecs.append(head + [rng.randint(-5, 5) for _ in range(extra)])
    duals = [[rng.randint(-5, 5) for _ in range(extra)] for _ in range(n)] if with_duals else None
    want_vecs = [list(v) for v in vecs]
    want_duals = [list(w) for w in duals] if with_duals else None
    want_rows = _hermite_reference(want_vecs, m, want_duals)
    assert solvers_impl._hermite(vecs, m, duals) == want_rows
    assert vecs == want_vecs
    assert duals == want_duals


def test_thirty_integer_columns_prune_within_the_deadline():
    # one Hermite membership per column; a zero-variable Groebner completion per test takes about 15 s
    code = """
        import random, time
        from gradedtrace import GradedFreeModule, integers, prune_columns
        rng = random.Random(7)
        m = GradedFreeModule(integers(), (0,) * 16)
        cols = [[rng.randint(-20, 20) for _ in range(16)] for _ in range(30)]
        start = time.perf_counter()
        kept = prune_columns(m, cols)[1]
        print(time.perf_counter() - start, *kept)
    """
    done = _run(["-c", textwrap.dedent(code)])
    assert done.returncode == 0, done.stderr
    seconds, *kept = done.stdout.split()
    assert float(seconds) < 2.0
    Z = integers()
    rng = random.Random(7)
    m = GradedFreeModule(Z, (0,) * 16)
    cols = [m.coerce_vector([rng.randint(-20, 20) for _ in range(16)]) for _ in range(30)]
    kept = [int(k) for k in kept]
    span = ColumnSpan(m, [cols[k] for k in kept])
    assert all(span.contains(c) for c in cols)
    for k in kept:
        assert not ColumnSpan(m, [cols[j] for j in kept if j != k]).contains(cols[k])


def test_integer_work_never_builds_the_groebner_engine(monkeypatch):
    # the Hermite routine answers every integer question, pruning included
    engines = []
    gb_init = solvers_impl._ModuleGB.__init__

    def recording_init(gb, nvars, columns, grading=None):
        engines.append(nvars)
        gb_init(gb, nvars, columns, grading)

    monkeypatch.setattr(solvers_impl._ModuleGB, "__init__", recording_init)
    Z = integers()
    module = presented_module(Z, [0] * 4, [[Z.const(c) for c in col] for col in SLOW_4X6])
    res = resolve(module)
    verify_resolution(res)
    endo = module_hom(module, module, 0, [[Z.const(3 * (i == j) + (j == i + 1)) for i in range(4)] for j in range(4)])
    verify_lift(res, endo, lift_endomorphism(res, endo))
    assert kernel_of_hom(endo)
    ambient = GradedFreeModule(Z, (0,) * 6)
    assert len(prune_columns(ambient, BASELINE_6X6 + SMITH_6X6)[1]) < 12
    rng = random.Random(11)
    sequences = [out[0] for out in (gu.random_stable_ses(rng, Z) for _ in range(8)) if out is not None]
    for ses in sequences:
        ses.validate()
    assert len(sequences) >= 5 and engines == []
