"""Tensor structure: Koszul signs, duality zigzags, categorical traces."""

import itertools
import random

import pytest

from gradedtrace import (
    DualityData,
    GradedFreeModule,
    GradedMatrixHom,
    RingMismatch,
    RingSpec,
    braiding,
    categorical_trace,
    compose,
    euler_characteristic,
    free_trace,
    identity_hom,
    integers,
    polynomial_ring,
    signed_rank,
    standard_duality,
    tensor_homs,
    tensor_modules,
    unit_module,
    zigzag_defects,
    zigzag_holds,
)

import genutils as gu

Z = integers()


def test_tensor_modules_row_major_shifts():
    a = GradedFreeModule(Z, (0, 1))
    b = GradedFreeModule(Z, (5, 7))
    assert tensor_modules(a, b).shifts == (5, 7, 6, 8)


def test_tensor_is_strictly_associative_and_unital():
    rng = random.Random(3)
    for ring in gu.THREE_KINDS:
        one = unit_module(ring)
        for _ in range(10):
            a = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
            b = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
            c = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
            assert tensor_modules(tensor_modules(a, b), c) == tensor_modules(
                a, tensor_modules(b, c)
            )
            assert tensor_modules(one, a) == a
            assert tensor_modules(a, one) == a


def test_tensor_homs_identity_and_unit():
    rng = random.Random(4)
    for ring in gu.THREE_KINDS:
        for _ in range(10):
            a = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
            b = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
            assert tensor_homs(identity_hom(a), identity_hom(b)) == identity_hom(
                tensor_modules(a, b)
            )
            f = gu.random_endo(rng, a, 0)
            one = unit_module(ring)
            assert tensor_homs(f, identity_hom(one)) == f
            assert tensor_homs(identity_hom(one), f) == f


def _negated(f: GradedMatrixHom) -> GradedMatrixHom:
    return GradedMatrixHom(
        f.source, f.target, f.degree, [[-e for e in row] for row in f.entries]
    )


def _single_entry(module: GradedFreeModule, i: int, j: int, value: int) -> GradedMatrixHom:
    ring = module.ring
    rows = [
        [ring.const(value) if (a, b) == (i, j) else ring.zero() for b in range(module.rank)]
        for a in range(module.rank)
    ]
    return GradedMatrixHom(module, module, module.shifts[j] - module.shifts[i], rows)


def test_interchange_law_with_koszul_sign():
    # (f1 (x) g1) . (f2 (x) g2) = (-1)^(deg g1 . deg f2) (f1.f2) (x) (g1.g2)
    rng = random.Random(5)
    for ring in gu.THREE_KINDS:
        for _ in range(25):
            a0 = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=2))
            b0 = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=2))
            d_f1, d_f2 = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
            d_g1, d_g2 = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
            f2 = gu.random_endo(rng, a0, d_f2)
            f1 = gu.random_endo(rng, a0, d_f1)
            g2 = gu.random_endo(rng, b0, d_g2)
            g1 = gu.random_endo(rng, b0, d_g1)
            lhs = compose(tensor_homs(f1, g1), tensor_homs(f2, g2))
            rhs = tensor_homs(compose(f1, f2), compose(g1, g2))
            if (d_g1 * d_f2) % 2 == 1:
                rhs = _negated(rhs)
            assert lhs == rhs


def test_interchange_sign_is_observable():
    # explicit odd-degree witnesses: the minus sign really appears
    a = GradedFreeModule(Z, (0, 1, 2))
    b = GradedFreeModule(Z, (0, 1))
    f2 = _single_entry(a, 1, 2, 1)  # degree 1
    f1 = _single_entry(a, 0, 1, 1)  # degree 1
    g1 = _single_entry(b, 0, 1, 1)  # degree 1
    g2 = identity_hom(b)
    assert f1.degree == 1 and f2.degree == 1 and g1.degree == 1
    lhs = compose(tensor_homs(f1, g1), tensor_homs(f2, g2))
    rhs = tensor_homs(compose(f1, f2), compose(g1, g2))
    assert not lhs.is_zero()
    assert lhs != rhs
    assert lhs == _negated(rhs)


def test_braiding_is_inverse_pair_and_signs():
    a = GradedFreeModule(Z, (0, 1))
    b = GradedFreeModule(Z, (1,))
    braid = braiding(a, b)
    back = braiding(b, a)
    assert compose(back, braid) == identity_hom(tensor_modules(a, b))
    assert compose(braid, back) == identity_hom(tensor_modules(b, a))
    # the only negative entry couples the two odd generators
    entries = [
        braid.entries[i][j]
        for i in range(braid.target.rank)
        for j in range(braid.source.rank)
        if not braid.entries[i][j].is_zero()
    ]
    assert sorted(str(e) for e in entries) == ["-1", "1"]


def test_braiding_naturality_with_sign():
    # braid . (f (x) g) = (-1)^(deg f . deg g) (g (x) f) . braid
    rng = random.Random(7)
    for ring in gu.THREE_KINDS:
        for _ in range(25):
            a = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=2))
            b = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=2))
            df, dg = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
            f = gu.random_endo(rng, a, df)
            g = gu.random_endo(rng, b, dg)
            lhs = compose(braiding(a, b), tensor_homs(f, g))
            rhs = compose(tensor_homs(g, f), braiding(a, b))
            if (df * dg) % 2 == 1:
                rhs = _negated(rhs)
            assert lhs == rhs


def test_braiding_naturality_sign_is_observable():
    a = GradedFreeModule(Z, (0, 1))
    b = GradedFreeModule(Z, (0, 1))
    f = _single_entry(a, 0, 1, 1)  # degree 1
    g = _single_entry(b, 0, 1, 1)  # degree 1
    lhs = compose(braiding(a, b), tensor_homs(f, g))
    rhs = compose(tensor_homs(g, f), braiding(a, b))
    assert not lhs.is_zero()
    assert lhs != rhs
    assert lhs == _negated(rhs)


def test_zigzag_holds_for_standard_duality_small_sweep():
    for rank in range(0, 4):
        for shifts in itertools.product((-1, 0, 1, 2), repeat=rank):
            d = standard_duality(GradedFreeModule(Z, shifts))
            assert zigzag_holds(d)


def test_zigzag_detects_sign_errors():
    a = GradedFreeModule(Z, (0, 1))
    good = standard_duality(a)
    # flip one unit coefficient without touching the counit
    rows = [[e for e in row] for row in good.unit.entries]
    rows[0][0] = -rows[0][0]
    bad = DualityData(
        a,
        good.dual,
        GradedMatrixHom(good.unit.source, good.unit.target, 0, rows),
        good.counit,
    )
    assert not zigzag_holds(bad)
    defect_a, defect_star = zigzag_defects(bad)
    assert not defect_a.is_zero() or not defect_star.is_zero()


def test_zigzag_defects_are_zero_maps_on_success():
    a = GradedFreeModule(Z, (0, 1, -2))
    defect_a, defect_star = zigzag_defects(standard_duality(a))
    assert defect_a.is_zero() and defect_star.is_zero()


def test_categorical_trace_equals_free_trace():
    rng = random.Random(10)
    for ring in gu.THREE_KINDS:
        for _ in range(40):
            m = GradedFreeModule(ring, gu.random_shifts(rng))
            f = gu.random_endo(rng, m, rng.choice([-1, 0, 1, 2]))
            assert categorical_trace(f).value == free_trace(f).value


def test_categorical_trace_rejects_foreign_duality():
    a = GradedFreeModule(Z, (0,))
    b = GradedFreeModule(Z, (1,))
    with pytest.raises(ValueError):
        categorical_trace(identity_hom(a), standard_duality(b))


def test_euler_characteristic_is_signed_rank():
    rng = random.Random(14)
    for ring in gu.THREE_KINDS:
        for _ in range(10):
            m = GradedFreeModule(ring, gu.random_shifts(rng))
            assert euler_characteristic(m).value == ring.const(signed_rank(m))


def test_tensor_factors_over_different_rings_are_refused():
    f = identity_hom(GradedFreeModule(Z, (0,)))
    g = identity_hom(GradedFreeModule(polynomial_ring(["x"], [2]), (0,)))
    with pytest.raises(RingMismatch, match=r"^Z is not Z\[x:2\]$"):
        tensor_homs(f, g)


def test_one_ring_object_makes_no_spec_comparison(monkeypatch):
    ring = polynomial_ring(["x", "y"], [2, 4])
    f = gu.random_endo(random.Random(18), GradedFreeModule(ring, (0, 1, 2, -1)))
    calls = []
    spec_eq = RingSpec.__eq__

    def counted(self, other):
        calls.append(other)
        return spec_eq(self, other)

    monkeypatch.setattr(RingSpec, "__eq__", counted)
    assert categorical_trace(f).value == free_trace(f).value
    assert zigzag_holds(standard_duality(f.source))
    assert calls == []
