"""Golden hashes of free resolutions and the traces taken through them.

Each stored value is the first 16 hex digits of a SHA-256 over ``str()`` of
every map of ``resolve(M)`` and of ``hs_trace`` of a seeded endomorphism of
M: seeded ``genutils.random_presented_module`` draws over every ring of
``genutils.RING_POOL``, and ``m^d`` in n variables of degree 2 for
(n, d) = (2, 2), (3, 2), (2, 3).

After a deliberate change of output, regenerate the table with

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

from gradedtrace import hs_trace, polynomial_ring, presented_module, resolve

GOLDEN = Path(__file__).with_name("resolution_outputs.json")


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


def test_resolutions_match_their_golden_hashes():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(want), "the draws changed; regenerate the table"
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, "resolutions or traces differ for: " + "; ".join(differing)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN}")
