"""Graded matrices: sparse closed operations against dense references."""

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedtrace import (
    GradedFreeModule,
    GradedMatrixHom,
    HomogeneityError,
    RingMismatch,
    braiding,
    compose,
    direct_sum_homs,
    direct_sum_modules,
    identity_hom,
    integers,
    laurent_ring,
    parse_source,
    polynomial_ring,
    standard_duality,
    tensor_homs,
    zero_hom,
)
from gradedtrace.rings import RingElement, RingSpec

import genutils as gu

ZXY = polynomial_ring(["x", "y"], [2, 2])
RINGS = [integers(), ZXY, laurent_ring(["t"], [2])]


# -- dense references ---------------------------------------------------------


def _dense(rows, cols, entry):
    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def _sum_ref(f, g):
    return _dense(f.target.rank, f.source.rank, lambda i, j: f.entries[i][j] + g.entries[i][j])


def _compose_ref(g, f):
    def entry(i, j):
        acc = f.ring.zero()
        for k in range(g.source.rank):
            acc = acc + g.entries[i][k] * f.entries[k][j]
        return acc

    return _dense(g.target.rank, f.source.rank, entry)


def _direct_sum_ref(f, g):
    zero = f.ring.zero()
    top = [list(row) + [zero] * g.source.rank for row in f.entries]
    bottom = [[zero] * f.source.rank + list(row) for row in g.entries]
    return top + bottom


def _tensor_ref(f, g):
    bt, bs = g.target.rank, g.source.rank

    def entry(r, c):
        (i, k), (j, l) = divmod(r, bt), divmod(c, bs)
        val = f.entries[i][j] * g.entries[k][l]
        return -val if (g.degree * f.source.shifts[j]) % 2 else val

    return _dense(f.target.rank * bt, f.source.rank * bs, entry)


def _braiding_ref(a, b):
    def entry(r, c):
        (k, i), (i2, k2) = divmod(r, a.rank), divmod(c, b.rank)
        if (i, k) != (i2, k2):
            return a.ring.zero()
        return a.ring.const(-1 if (a.shifts[i] * b.shifts[k]) % 2 else 1)

    return _dense(a.rank * b.rank, a.rank * b.rank, entry)


def _check(h, reference):
    """h equals the dense reference, stores no zero, and re-validates."""
    assert [list(row) for row in h.entries] == reference
    assert all(e for row in h._rows for e in row.values())
    assert h.is_zero() == all(not e for row in reference for e in row)
    rebuilt = GradedMatrixHom(h.source, h.target, h.degree, h.entries)
    assert rebuilt == h and hash(rebuilt) == hash(h)


# -- the property test ----------------------------------------------------------


def _module(rng, ring):
    return GradedFreeModule(ring, tuple(rng.randint(-1, 1) for _ in range(rng.choice((0, 1, 2, 2, 3, 3)))))


def _matrix(rng, source, target, degree):
    # one-term entries of coefficient +-1 make cancelling sums and products common
    rows = [
        [
            gu.random_homogeneous(rng, source.ring, n - s + degree, span=1, coeff=1, max_terms=1)
            if rng.random() < 0.7
            else 0
            for s in source.shifts
        ]
        for n in target.shifts
    ]
    return GradedMatrixHom(source, target, degree, rows)


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ring=st.sampled_from(RINGS), rng=st.randoms(use_true_random=False))
def test_closed_operations_match_dense_references(ring, rng):
    a, b, c = (_module(rng, ring) for _ in range(3))
    # odd degrees and odd shifts bring in the Koszul signs
    d1, d2 = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
    f, f2 = _matrix(rng, a, b, d1), _matrix(rng, a, b, d1)
    g = _matrix(rng, b, c, d2)

    _check(f + f2, _sum_ref(f, f2))
    _check(-f, [[-e for e in row] for row in f.entries])
    _check(f - f2, _sum_ref(f, -f2))
    _check(f - f, _dense(b.rank, a.rank, lambda i, j: ring.zero()))
    _check(compose(g, f), _compose_ref(g, f))
    h = _matrix(rng, c, a, d1)
    _check(direct_sum_homs(f, h), _direct_sum_ref(f, h))
    # [g, -g] after [f; f] is g f - g f: every sum cancels
    twice = GradedMatrixHom(a, direct_sum_modules(b, b), d1, [*f.entries, *f.entries])
    side = GradedMatrixHom(twice.target, c, d2, [list(row) + [-e for e in row] for row in g.entries])
    _check(compose(side, twice), _compose_ref(side, twice))
    assert compose(side, twice).is_zero()
    _check(identity_hom(a), _dense(a.rank, a.rank, lambda i, j: ring.const(int(i == j))))
    _check(zero_hom(a, c, d2), _dense(c.rank, a.rank, lambda i, j: ring.zero()))
    _check(tensor_homs(f, g), _tensor_ref(f, g))
    _check(tensor_homs(g, f), _tensor_ref(g, f))
    _check(braiding(a, b), _braiding_ref(a, b))
    duality = standard_duality(a)
    r = a.rank
    _check(duality.unit, _dense(r * r, 1, lambda i, j: ring.const(int(i % (r + 1) == 0))))
    _check(duality.counit, _dense(1, r * r, lambda i, j: ring.const(int(j % (r + 1) == 0))))

    for m in (f, compose(g, f), tensor_homs(f, g)):
        with pytest.raises(IndexError):
            m[m.target.rank, 0]
        with pytest.raises(IndexError):
            m[0, m.source.rank]
        with pytest.raises(IndexError):
            m[0, -m.source.rank - 1]
        with pytest.raises(IndexError):
            m.column(m.source.rank)


def test_compose_multiplies_nonzero_entries_only(monkeypatch):
    x, y = ZXY.gen("x"), ZXY.gen("y")
    m = GradedFreeModule(ZXY, (0,) * 16)
    diag = [[(x if i % 2 else y) if i == j else 0 for j in range(16)] for i in range(16)]
    f = GradedMatrixHom(m, m, 2, diag)
    calls = []
    mul = RingElement.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counting_mul)
    product = compose(f, f)
    assert len(calls) == 16
    assert all(product[i, i] == (x * x if i % 2 else y * y) for i in range(16))


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_a_difference_drops_equal_entries_without_ring_arithmetic(ring, monkeypatch):
    rng = random.Random(83)
    maps = []
    for _ in range(5):
        a = GradedFreeModule(ring, gu.random_shifts(rng))
        maps.append(gu.random_matrix(rng, a, a, 0))
    twins = [pickle.loads(pickle.dumps(f)) for f in maps]  # equal entries, other objects
    assert any(f._rows[i][j] is not twin._rows[i][j] for f, twin in zip(maps, twins) for i, row in enumerate(f._rows) for j in row)

    def refuse(*args):
        raise AssertionError("a difference of equal maps did ring arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(RingElement, name, refuse)
    for f, twin in zip(maps, twins):
        assert (f - f).is_zero() and (f - twin).is_zero() and (twin - f).is_zero()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_difference_matches_the_entrywise_reference(ring):
    rng = random.Random(89)
    for _ in range(30):
        a, b = _module(rng, ring), _module(rng, ring)
        d = rng.choice((-1, 0, 1))
        f, h = _matrix(rng, a, b, d), _matrix(rng, a, b, d)
        # g takes about half of its entries from f, so those cancel in f - g
        mixed = [[e if rng.random() < 0.5 else other for e, other in zip(fr, hr)] for fr, hr in zip(f.entries, h.entries)]
        g = GradedMatrixHom(a, b, d, mixed)
        for x, y in ((f, g), (g, f), (f, h), (h, h)):
            _check(x - y, [[x[i, j] - y[i, j] for j in range(a.rank)] for i in range(b.rank)])


def test_entry_checks_hold_after_the_identity_fast_path():
    z, zx = integers(), polynomial_ring(["x"], [2])
    m = GradedFreeModule(z, (0,))
    with pytest.raises(RingMismatch) as exc:
        GradedMatrixHom(m, m, 0, [[zx.zero()]])  # zero, but over another ring
    assert str(exc.value) == f"entry (0,0) lives in {zx}, not {z}"

    twin = RingSpec("polynomial", ("x", "y"), (2, 2))
    assert twin is not ZXY and twin == ZXY
    p = GradedFreeModule(ZXY, (0, 2))
    f = GradedMatrixHom(p, GradedFreeModule(twin, (0, 2)), 0, [[1, 0], [twin.gen("x"), 0]])
    assert f[1, 0] == ZXY.gen("x") and f[0, 1] == 0

    x = ZXY.gen("x")
    for entry, message in (
        (x, "entry (0,0) = x must be homogeneous of degree 0, got degree 2"),
        (x + 1, "entry (0,0) = x + 1 must be homogeneous of degree 0, got degree INHOMOGENEOUS"),
    ):
        with pytest.raises(HomogeneityError) as exc:
            GradedMatrixHom(p, p, 0, [[entry, 0], [0, 1]])
        assert str(exc.value) == message


def test_parsing_matrices_over_one_ring_compares_no_specs(monkeypatch):
    calls = []
    spec_eq = RingSpec.__eq__

    def counted(self, other):
        calls.append(other)
        return spec_eq(self, other)

    monkeypatch.setattr(RingSpec, "__eq__", counted)
    doc = parse_source(
        """
ring Z[x:2,y:2];
free P [0, 2];
free Q [0];
matrix F : P -> P { degree 0; rows [[3, 0], [x + y, 7]]; }
matrix G : P -> Q { degree 2; rows [[x, 5]]; }
matrix H : Q -> P { degree 0; rows [[0], [x - y]]; }
"""
    )
    assert list(doc.matrices) == ["F", "G", "H"]
    assert calls == []
