"""Golden hashes of tensor products, and the entry law they follow.

Each stored value is the first 16 hex digits of a SHA-256 over
``str(tensor_homs(f, g))``: seeded random pairs over every ring of
``genutils.RING_POOL`` (degrees 0-3, odd shifts, some empty rows), and the
four tensor factors of both zigzag composites of ``standard_duality``.

After a deliberate change of output, regenerate the table with

    PYTHONPATH=src python tests/test_tensor_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import genutils as gu

from gradedtrace import (
    GradedFreeModule,
    GradedMatrixHom,
    identity_hom,
    standard_duality,
    tensor_homs,
)

GOLDEN = Path(__file__).with_name("tensor_outputs.json")


def _with_empty_row(rng: random.Random, f: GradedMatrixHom) -> GradedMatrixHom:
    rows = [list(row) for row in f.entries]
    rows[rng.randrange(len(rows))] = [f.ring.zero()] * f.source.rank
    return GradedMatrixHom(f.source, f.target, f.degree, rows)


def _random_map(rng: random.Random, ring, degree: int) -> GradedMatrixHom:
    # Target shifts sit an even distance from source shift - degree, so most
    # entries have a degree the ring can fill, odd maps included.
    source = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
    rank = rng.randint(1, 3)
    shifts = [rng.choice(source.shifts) - degree + 2 * rng.randint(0, 1) for _ in range(rank)]
    target = GradedFreeModule(ring, tuple(shifts))
    f = gu.random_matrix(rng, source, target, degree, density=0.8)
    return _with_empty_row(rng, f) if rng.random() < 0.4 else f


def tensor_pairs() -> dict[str, tuple[GradedMatrixHom, GradedMatrixHom]]:
    rng = random.Random(2011)
    pairs = {}
    for ring in gu.RING_POOL:
        for n in range(8):
            f = _random_map(rng, ring, rng.randint(0, 3))
            pairs[f"{ring} pair {n}"] = (f, _random_map(rng, ring, n % 4))
        a = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
        d = standard_duality(a)
        ida, idstar = identity_hom(a), identity_hom(d.dual)
        zigzag = {
            "A ⊗ counit": (ida, d.counit),
            "unit ⊗ A": (d.unit, ida),
            "counit ⊗ A*": (d.counit, idstar),
            "A* ⊗ unit": (idstar, d.unit),
        }
        for name, pair in zigzag.items():
            pairs[f"{ring} {a.shifts} {name}"] = pair
    return pairs


def digests() -> dict[str, str]:
    return {
        key: hashlib.sha256(str(tensor_homs(f, g)).encode()).hexdigest()[:16]
        for key, (f, g) in tensor_pairs().items()
    }


def test_tensor_products_match_their_golden_hashes():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(want), "the pairs changed; regenerate the table"
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, "tensor products differ for: " + "; ".join(differing)


def test_tensor_entries_carry_the_koszul_sign_of_their_source_column():
    for key, (f, g) in tensor_pairs().items():
        fg = tensor_homs(f, g)
        r, s = g.target.rank, g.source.rank
        for i in range(f.target.rank):
            for j, shift in enumerate(f.source.shifts):
                sign = -1 if (g.degree * shift) % 2 else 1
                for k in range(r):
                    for l in range(s):
                        want = sign * (f[i, j] * g[k, l])
                        assert fg[i * r + k, j * s + l] == want, (key, i, j, k, l)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN}")
