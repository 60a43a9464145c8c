"""Tensor structure: Koszul signs, duality zigzags, categorical traces."""

import copy
import dataclasses
import itertools
import pickle
import random
import time

import pytest

from gradedtrace import (
    DualityData,
    GradedFreeModule,
    GradedMatrixHom,
    RingElement,
    RingMismatch,
    RingSpec,
    braiding,
    categorical_trace,
    compose,
    direct_sum_homs,
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
    zero_hom,
    zigzag_defects,
    zigzag_holds,
)

import gradedtrace.freemod as freemod
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


def _twin(ring: RingSpec) -> RingSpec:
    return RingSpec(ring.kind, ring.var_names, ring.var_degrees, ring.grading)


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_each_ring_object_shares_one_element_one(ring):
    twin = _twin(ring)
    assert ring.one() is ring.one()
    assert twin.one() == ring.one() and twin.one() is not ring.one()
    assert ring.const(1) == ring.one() and ring.const(1) is not ring.one()
    module = GradedFreeModule(ring, (0, 2, 1))
    d = standard_duality(module)
    entries = [*identity_hom(module)._rows, *d.unit._rows, *d.counit._rows, *braiding(module, d.dual)._rows]
    assert all(e is ring.one() or e == -1 for row in entries for e in row.values())


def _mixed_map(rng, source, target, degree):
    """A map whose degree-0 entries mix the shared one, a fresh 1, -1 and general elements."""
    ring = source.ring
    rows = []
    for t in target.shifts:
        row = []
        for s in source.shifts:
            want = t - s + degree
            general = gu.random_homogeneous(rng, ring, want, span=1) if rng.random() < 0.7 else ring.zero()
            if ring.one().has_degree(want):
                row.append(rng.choice([ring.one(), ring.one(), ring.const(1), ring.const(-1), general]))
            else:
                row.append(general)
        rows.append(row)
    return GradedMatrixHom(source, target, degree, rows)


def _product_compose(g, f):
    """g after f by entrywise products, no entry handed over."""
    rows = [
        [sum((g[i, k] * f[k, j] for k in range(g.source.rank)), g.ring.zero()) for j in range(f.source.rank)]
        for i in range(g.target.rank)
    ]
    return GradedMatrixHom(f.source, g.target, g.degree + f.degree, rows)


def _product_tensor(f, g):
    """f ⊗ g by entrywise products with the Koszul sign of each source column of f."""
    rows = [
        [
            (-1) ** (g.degree * f.source.shifts[j] % 2) * (f[i, j] * g[k, l])
            for j in range(f.source.rank)
            for l in range(g.source.rank)
        ]
        for i in range(f.target.rank)
        for k in range(g.target.rank)
    ]
    return GradedMatrixHom(tensor_modules(f.source, g.source), tensor_modules(f.target, g.target), f.degree + g.degree, rows)


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_handing_over_ones_matches_entrywise_products(ring):
    rng = random.Random(41)
    for _ in range(25):
        a, b, c = (GradedFreeModule(ring, tuple(rng.choice((0, 0, 2, -2, 1)) for _ in range(rng.randint(1, 4)))) for _ in range(3))
        f = _mixed_map(rng, a, b, rng.choice((0, 0, 1, 2)))
        g = _mixed_map(rng, b, c, rng.choice((0, 0, 1, 2)))
        assert compose(g, f) == _product_compose(g, f)
        assert tensor_homs(f, g) == _product_tensor(f, g)
        assert tensor_homs(g, f) == _product_tensor(g, f)


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_equal_but_distinct_rings_keep_their_products(ring, monkeypatch):
    rng = random.Random(43)
    twin = _twin(ring)
    module = GradedFreeModule(ring, (0, 2, 1))
    g = _mixed_map(rng, module, module, 0)
    f = identity_hom(GradedFreeModule(twin, module.shifts))
    products = []
    mul = RingElement.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    assert compose(g, f) == _product_compose(g, f) == g
    assert tensor_homs(g, f) == _product_tensor(g, f)
    assert any(other is twin.one() for _, other in products)


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_zigzag_makes_no_ring_product(ring, monkeypatch):
    rng = random.Random(47)
    products = []
    mul = RingElement.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    for _ in range(5):
        assert zigzag_holds(standard_duality(GradedFreeModule(ring, gu.random_shifts(rng))))
    assert products == []


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_categorical_trace_never_multiplies_by_the_shared_one(ring, monkeypatch):
    rng = random.Random(53)
    one = ring.one()
    by_one = []
    mul = RingElement.__mul__

    def counted(self, other):
        if self is one or other is one:
            by_one.append((self, other))
        return mul(self, other)

    maps = [gu.random_endo(rng, GradedFreeModule(ring, gu.random_shifts(rng)), rng.choice((0, 1, 2))) for _ in range(8)]
    monkeypatch.setattr(RingElement, "__mul__", counted)
    traces = [categorical_trace(f) for f in maps]
    assert by_one == []
    assert [t.value for t in traces] == [free_trace(f).value for f in maps]


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_rank_24_zigzags_share_one_empty_row(ring):
    rng = random.Random(59)
    a = GradedFreeModule(ring, tuple(rng.randint(-3, 3) for _ in range(24)))
    f = gu.random_endo(rng, a)
    start = time.perf_counter()
    d = standard_duality(a)
    assert zigzag_holds(d)
    assert categorical_trace(f) == free_trace(f)
    m = tensor_homs(d.unit, identity_hom(a))
    assert len(m._rows) == 24**3
    assert len({id(r) for r in m._rows if not r}) == 1
    assert time.perf_counter() - start < 1.0


def _closed_maps_with_empty_rows(ring: RingSpec, rng: random.Random) -> list[GradedMatrixHom]:
    """The four zigzag tensor factors, a composite, f - f, a zero map and a direct sum;
    all but the two counit factors have empty rows."""
    a = GradedFreeModule(ring, (0, 2, -1))
    d = standard_duality(a)
    ida, idstar = identity_hom(a), identity_hom(d.dual)
    f = gu.random_matrix(rng, a, a, 0, density=0.4)
    factors = [
        tensor_homs(d.unit, ida),
        tensor_homs(ida, d.counit),
        tensor_homs(idstar, d.unit),
        tensor_homs(d.counit, idstar),
    ]
    zero = zero_hom(a, d.dual, 1)
    return [*factors, compose(factors[0], f), f - f, zero, direct_sum_homs(zero, zero_hom(a, a, 1))]


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_closed_maps_with_empty_rows_survive_pickle_and_deepcopy(ring):
    maps = _closed_maps_with_empty_rows(ring, random.Random(61))
    assert [any(not row for row in m._rows) for m in maps] == [True, False, True, False, True, True, True, True]
    for m in maps:
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert twin == m and hash(twin) == hash(m)
            assert twin.entries == m.entries
            assert (twin - m).is_zero() and (m - twin).is_zero()
            assert (twin + m) == (m + m) and -twin == -m
            assert twin.is_zero() == m.is_zero()
            assert tensor_homs(twin, twin) == tensor_homs(m, m)
            assert compose(twin, zero_hom(twin.target, twin.source, 0)) == compose(m, zero_hom(m.target, m.source, 0))
    snake = compose(*(pickle.loads(pickle.dumps(m)) for m in (maps[1], maps[0])))
    assert (snake - identity_hom(maps[0].source)).is_zero()


def _flat(*shift_tuples):
    out = (0,)
    for shifts in shift_tuples:
        out = tuple(s + n for s in out for n in shifts)
    return out


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_tensor_modules_keep_factors_and_equal_the_plain_module(ring):
    rng = random.Random(67)
    for _ in range(10):
        a, b, c = (GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3)) for _ in range(3))
        pairs = [
            (tensor_modules(a, b), _flat(a.shifts, b.shifts)),
            (tensor_modules(tensor_modules(a, b), c), _flat(a.shifts, b.shifts, c.shifts)),
        ]
        for t, shifts in pairs:
            plain = GradedFreeModule(ring, shifts)
            assert t.rank == plain.rank
            assert t == plain and plain == t and not t != plain
            assert hash(t) == hash(plain) == hash((ring, shifts))
            assert str(t) == str(plain) and repr(t) == repr(plain)
            assert t.shifted(1) == plain.shifted(1)
        left, right = tensor_modules(tensor_modules(a, b), c), tensor_modules(a, tensor_modules(b, c))
        assert left._factors == right._factors == (a.shifts, b.shifts, c.shifts)
        assert left == right and hash(left) == hash(right)


def test_tensor_modules_compare_by_their_flat_shifts():
    def t(x, y):
        return tensor_modules(GradedFreeModule(Z, x), GradedFreeModule(Z, y))

    # (0, 1) ⊗ (0, 0) and (0,) ⊗ (0, 0, 1, 1) flatten alike, (0, 2) ⊗ (0, 1) does not
    assert t((0, 1), (0, 0)) == t((0,), (0, 0, 1, 1)) == GradedFreeModule(Z, (0, 0, 1, 1))
    assert t((0, 2), (0, 1)) == t((0, 1, 2, 3), (0,)) != t((0, 1), (0, 2))
    assert t((0, 1), (0,)) != t((0, 1), (0, 0))  # ranks differ
    zx = polynomial_ring(["x"], [2])
    assert tensor_modules(GradedFreeModule(zx, (0, 1)), GradedFreeModule(zx, (0,))) != t((0, 1), (0,))
    assert t((0, 1), (0,)) != GradedFreeModule(zx, (0, 1))
    with pytest.raises(RingMismatch):
        tensor_modules(GradedFreeModule(Z, (0,)), GradedFreeModule(zx, (0,)))


@pytest.mark.parametrize("read_first", [False, True])
def test_tensor_modules_pickle_copy_and_stay_frozen(read_first):
    a, b = GradedFreeModule(Z, (0, 1, -1)), GradedFreeModule(Z, (2, 3))
    t = tensor_modules(tensor_modules(a, b), a)
    if read_first:
        assert t.shifts == _flat(a.shifts, b.shifts, a.shifts)
    for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
        assert twin == t and hash(twin) == hash(t) and str(twin) == str(t)
        assert twin.shifts == t.shifts and twin.rank == 18
    for name, value in (("shifts", (0,)), ("ring", Z), ("_factors", ((0,),))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, value)
    with pytest.raises(AttributeError):
        t.no_such_attribute


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_rank_24_zigzag_and_categorical_trace_flatten_no_cube(ring, monkeypatch):
    rng = random.Random(59)
    a = GradedFreeModule(ring, tuple(rng.randint(-3, 3) for _ in range(24)))
    f = gu.random_endo(rng, a)
    ranks = []
    lazy = vars(freemod._TensorModule)["shifts"]  # a functools.cached_property
    post_init, flatten = GradedFreeModule.__post_init__, lazy.func

    def built(self):
        post_init(self)
        ranks.append(len(self.shifts))

    def flattened(module):
        ranks.append(len(out := flatten(module)))
        return out

    monkeypatch.setattr(GradedFreeModule, "__post_init__", built)
    monkeypatch.setattr(lazy, "func", flattened)
    assert zigzag_holds(standard_duality(a))
    assert categorical_trace(f) == free_trace(f)
    assert ranks and max(ranks) <= 24**2
