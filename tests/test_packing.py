"""The Groebner engine's term keys: one table entry per monomial, the same keys as field arithmetic.

solvers._Packing computes a monomial's key once and looks it up afterwards.
The keys must not depend on the table: not on whether it is cold or warm,
and not on which ring filled it first, since rings with the same number of
engine variables share one packing.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedtrace.solvers as solvers_impl
from gradedtrace.solvers import _LIMIT, EngineError

ROOT = Path(__file__).resolve().parent.parent


def _pack_reference(nvars, pos, exp):
    """solvers._Packing.pack as it stood before its table, kept frozen."""
    bits = solvers_impl._FIELD_BITS
    shifts = [i * bits for i in range(nvars)]
    deg_shift = nvars * bits
    deg = sum(exp)
    if deg > _LIMIT:
        raise EngineError(f"degree {deg} passes the engine's bound of {_LIMIT}")
    key = (deg << deg_shift) + sum(_LIMIT << s for s in shifts) - (pos << (deg_shift + bits))
    for e, s in zip(exp, shifts):
        key -= e << s
    return key


def _unpack_reference(nvars, key):
    """solvers._Packing.unpack as it stood before its table, kept frozen."""
    bits = solvers_impl._FIELD_BITS
    shifts = [i * bits for i in range(nvars)]
    deg_shift = nvars * bits
    low = sum(_LIMIT << s for s in shifts) - (key & ((1 << deg_shift) - 1))
    return -(key >> (deg_shift + bits)), tuple([(low >> s) & _LIMIT for s in shifts])


@st.composite
def terms(draw):
    nvars = draw(st.integers(1, 8))
    cap = draw(st.sampled_from([3, 40, _LIMIT]))
    exps = draw(st.lists(st.tuples(*[st.integers(0, cap)] * nvars), min_size=1, max_size=6))
    positions = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=4))
    return nvars, exps, positions


def _outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(terms())
def test_keys_match_the_frozen_arithmetic_on_cold_and_warm_tables(case):
    nvars, exps, positions = case
    pk = solvers_impl._Packing(nvars)
    for _ in range(2):  # the first pass fills the table, the second reads it
        for exp in exps:
            for pos in positions:
                want = _outcome(_pack_reference, nvars, pos, exp)
                assert _outcome(pk.pack, pos, exp) == want
                if isinstance(want, int):
                    assert pk.unpack(want) == _unpack_reference(nvars, want) == (pos, exp)


@settings(max_examples=200, deadline=None)
@given(terms())
def test_keys_never_packed_unpack_as_the_frozen_arithmetic(case):
    # products formed by adding key offsets reach unpack before pack ever sees them
    nvars, exps, positions = case
    pk = solvers_impl._Packing(nvars)
    for exp in exps:
        if sum(exp) > _LIMIT:
            continue
        for pos in positions:
            key = _pack_reference(nvars, pos, exp)
            assert pk.unpack(key) == _unpack_reference(nvars, key)
        assert pk.pack(positions[0], exp) == _pack_reference(nvars, positions[0], exp)


def test_a_degree_past_the_limit_is_refused_on_every_call_and_never_kept():
    pk = solvers_impl._Packing(3)
    kept = pk.pack(1, (2, 0, 5))
    over = (_LIMIT, 1, 0)
    for pos in (0, 0, 4):
        with pytest.raises(EngineError, match=f"degree {_LIMIT + 1} passes the engine's bound of {_LIMIT}"):
            pk.pack(pos, over)
    assert pk.keys == {(2, 0, 5): kept + (1 << pk.top)}
    assert list(pk.exps.values()) == [(2, 0, 5)]
    assert pk.pack(0, (_LIMIT, 0, 0)) == _pack_reference(3, 0, (_LIMIT, 0, 0))


def test_rings_sharing_a_packing_resolve_alike_whichever_fills_the_table_first():
    # Z[x,y], Z[x0,x1] and Z[t,t^-1] (graded or mod 2) all have two engine
    # variables.  In one process their draws are rebuilt from their entries,
    # so that no span built while drawing is reused, then resolved and lifted
    # in reverse table order, interleaved, from an emptied table; they must
    # give the golden digests.
    code = """
        import itertools, json
        import gradedtrace.solvers as solvers
        import test_resolution_outputs as golden
        from gradedtrace import GradedMatrixHom, ModuleHom, PresentedModule

        def fresh(f):
            return GradedMatrixHom(f.source, f.target, f.degree, f.entries)

        draws = golden.draws()
        pk = solvers._packing(2)
        pk.keys.clear()
        pk.exps.clear()
        poly = [k for k in draws if k.startswith(("Z[x:2,y:4] draw", "m^2 in 2 ", "m^3 in 2 "))][::-1]
        laurent = [k for k in draws if k.startswith(("Z[t:0,t^-1] draw", "Z[t:2,t^-1] mod2 draw"))][::-1]
        out = {}
        for pair in itertools.zip_longest(poly, laurent):
            for key in filter(None, pair):
                module, endo = draws[key]
                module = PresentedModule(fresh(module.relations))
                endo = ModuleHom(module, module, fresh(endo.lift))
                out[key] = [golden.digest(module, endo), golden.lift_digest(module, endo)]
        print(json.dumps({"digests": out, "table": len(pk.keys)}))
    """
    env = dict(os.environ)
    paths = (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    resolutions = json.loads((ROOT / "tests" / "resolution_outputs.json").read_text())
    lifts = json.loads((ROOT / "tests" / "lift_outputs.json").read_text())
    got = result["digests"]
    assert len(got) == 38 and result["table"] > 0
    assert {k: v[0] for k, v in got.items()} == {k: resolutions[k] for k in got}
    assert {k: v[1] for k, v in got.items()} == {k: lifts[k] for k in got}
