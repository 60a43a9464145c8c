"""Golden hashes of free resolutions, the traces taken through them, and chain lifts.

Each value of the first table is the first 16 hex digits of a SHA-256 over
``str()`` of every map of ``resolve(M)`` and of ``hs_trace`` of a seeded
endomorphism of M: seeded ``genutils.random_presented_module`` draws over
every ring of ``genutils.RING_POOL``, and ``m^d`` in n variables of degree 2
for (n, d) = (2, 2), (3, 2), (2, 3).  The second table hashes ``str()`` of
every map of ``lift_endomorphism(resolve(M), f)`` in the same way, for the
same draws plus seeded integer presentations over Z and Z/2-graded Z whose
endomorphisms are a scalar plus a lift landing in the relations, so that
the chain lifts are not all scalars.

After a deliberate change of output, regenerate both tables with

    PYTHONPATH=src python tests/test_resolution_outputs.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import genutils as gu

from gradedtrace import (
    GradedFreeModule,
    GradedMatrixHom,
    ModuleHom,
    compose,
    hs_trace,
    integers,
    lift_endomorphism,
    polynomial_ring,
    presented_module,
    resolve,
)
from gradedtrace.rings import GRADING_Z2

GOLDEN = Path(__file__).with_name("resolution_outputs.json")
LIFT_GOLDEN = Path(__file__).with_name("lift_outputs.json")


def _mpower(n: int, d: int):
    ring = polynomial_ring([f"x{i}" for i in range(n)], [2] * n)
    x = [ring.gen(name) for name in ring.var_names]
    gens = [math.prod(c, start=ring.one()) for c in itertools.combinations_with_replacement(x, d)]
    return presented_module(ring, [0], [(g,) for g in gens])


def draws() -> dict[str, tuple]:
    """Name -> (module, endomorphism), in a fixed order."""
    rng = random.Random(1998)
    out = {}
    for ring in gu.RING_POOL:
        for n in range(12):
            module = gu.random_presented_module(rng, ring, max_rank=3, max_rels=3)
            out[f"{ring} draw {n}"] = (module, gu.random_module_endo(rng, module, 2 * (n % 2)))
    for n, d in ((2, 2), (3, 2), (2, 3)):
        module = _mpower(n, d)
        out[f"m^{d} in {n} variables"] = (module, gu.random_module_endo(rng, module, 2))
    return out


def digest(module, endo) -> str:
    res = resolve(module)
    text = "\n".join([*map(str, res.maps), str(hs_trace(endo, resolution=res))])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests() -> dict[str, str]:
    return {key: digest(module, endo) for key, (module, endo) in draws().items()}


def _integer_draw(rng: random.Random, ring):
    """A seeded integer presentation and a scalar plus rel . Y as its endomorphism.

    Over Z/2 grading the generators fall into two parity classes, and every
    relation column stays inside one of them.
    """
    gens, rels = rng.randint(1, 5), rng.randint(1, 6)
    shifts = tuple(rng.randint(0, 1) if ring.grading == GRADING_Z2 else 0 for _ in range(gens))
    generators = GradedFreeModule(ring, shifts)
    columns = []
    for _ in range(rels):
        parity = shifts[rng.randrange(gens)] % 2
        columns.append([ring.const(rng.randint(-9, 9) if s % 2 == parity else 0) for s in shifts])
    module = presented_module(ring, shifts, [c for c in columns if any(c)])
    rel = module.relations
    y = gu.random_matrix(rng, generators, rel.source, -rel.degree, density=0.6, span=1)
    c = ring.const(rng.randint(-3, 3))
    rows = [[c if i == j else 0 for j in range(gens)] for i in range(gens)]
    scalar = GradedMatrixHom(generators, generators, 0, rows)
    return module, ModuleHom(module, module, scalar + compose(rel, y))


def lift_draws() -> dict[str, tuple]:
    """The draws of the first table, then the seeded integer ones."""
    out = draws()
    rng = random.Random(2011)
    for ring in (integers(), integers(GRADING_Z2)):
        for k in range(40):
            out[f"{ring} integer draw {k}"] = _integer_draw(rng, ring)
    return out


def lift_digest(module, endo) -> str:
    text = "\n".join(map(str, lift_endomorphism(resolve(module), endo)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lift_digests() -> dict[str, str]:
    return {key: lift_digest(module, endo) for key, (module, endo) in lift_draws().items()}


def test_resolutions_match_their_golden_hashes():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(want), "the draws changed; regenerate the table"
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, "resolutions or traces differ for: " + "; ".join(differing)


def test_chain_lifts_match_their_golden_hashes():
    want = json.loads(LIFT_GOLDEN.read_text())
    got = lift_digests()
    assert list(got) == list(want), "the draws changed; regenerate the table"
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, "chain lifts differ for: " + "; ".join(differing)


if __name__ == "__main__":
    for path, table in ((GOLDEN, digests()), (LIFT_GOLDEN, lift_digests())):
        path.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n")
        print(f"wrote {path}")
