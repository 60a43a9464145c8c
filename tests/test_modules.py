"""Presented modules, resolutions, chain lifts, and presentation surgery."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtrace import (
    GRADING_Z2,
    ColumnSpan,
    EngineError,
    GradedFreeModule,
    GradedMatrixHom,
    HomogeneityError,
    ModuleHom,
    PresentedModule,
    Resolution,
    ResolutionTooLong,
    RingElement,
    RingMap,
    add_redundant_generator,
    compose,
    compose_module_homs,
    free_presentation,
    hom_from_columns,
    hs_trace,
    identity_hom,
    identity_module_hom,
    integers,
    kernel_of_hom,
    laurent_ring,
    lift_endomorphism,
    map_matrix,
    module_hom,
    parse_source,
    perturb_lift,
    polynomial_ring,
    presented_module,
    relation_hom_from_columns,
    resolve,
    same_quotient,
    verify_lift,
    verify_resolution,
    with_extra_relations,
    zero_hom,
)

import gradedtrace.freemod as freemod_impl
import gradedtrace.modules as modules_impl
import gradedtrace.solvers as solvers_impl
import genutils as gu

Z = integers()
ZX = polynomial_ring(["x"], [2])
ZXY = polynomial_ring(["x", "y"], [2, 4])
ZL = laurent_ring(["t"], [0])
# over two variables s*t^-1*t must cancel to s; kept out of RING_POOL, since
# spans over it beyond a few columns are slow
ZST = laurent_ring(["s", "t"], [0, 2])


def _pool_and_two_variable_laurent(seed, **sizes):
    """(ring, seed, sizes) of the presentations a test draws: every ring of
    RING_POOL from seed, then ZST from seed 80 with at most 2 generators and
    4 relations."""
    return [pytest.param(r, seed, sizes, id=str(r)) for r in gu.RING_POOL] + [
        pytest.param(ZST, 80, {"max_rank": 2, "max_rels": 4}, id=str(ZST))
    ]


def _mod2():
    return presented_module(Z, [0], [[2]])


def _mod4():
    return presented_module(Z, [0], [[4]])


def _dual_numbers():
    x = ZX.gen("x")
    return presented_module(ZX, [0], [[x * x]])


def _koszul_point():
    x, y = ZXY.gen("x"), ZXY.gen("y")
    return presented_module(ZXY, [0], [[x], [y]])


def _double_orbit():
    t = ZL.gen("t")
    return presented_module(ZL, [0], [[(t - 1) * (t - 1)]])


ZOO = [_mod2, _mod4, _dual_numbers, _koszul_point, _double_orbit]


# -- presentations -------------------------------------------------------------


def test_reduce_and_element_equality():
    m = _mod4()
    assert m.reduce([Z.const(9)]) == (Z.one(),)
    assert m.elements_equal([Z.const(5)], [Z.one()])
    assert m.is_zero_element([Z.const(8)])
    assert not m.is_zero_element([Z.const(2)])


def test_module_hom_must_descend():
    # multiplication by x on Z[x]/(x^2) descends, division-like maps do not
    m = _dual_numbers()
    x = ZX.gen("x")
    module_hom(m, m, 2, [[x]])
    free = free_presentation(m.generators)
    with pytest.raises(ValueError):
        # the generator-wise identity Z[x]/(x^2) -> Z[x] sends the relation
        # x^2 to a nonzero element of the free target
        ModuleHom(m, free, GradedMatrixHom(m.generators, free.generators, 0, [[ZX.one()]]))


def test_module_hom_equality_mod_relations():
    m = _mod2()
    f = module_hom(m, m, 0, [[1]])
    g = module_hom(m, m, 0, [[3]])
    h = module_hom(m, m, 0, [[2]])
    assert f == g
    assert f != h
    assert h == module_hom(m, m, 0, [[0]])


def test_kernel_of_hom_multiplication():
    # kernel of x : Z[x]/(x^2) -> Z[x]/(x^2) is (x)
    m = _dual_numbers()
    x = ZX.gen("x")
    f = module_hom(m, m, 2, [[x]])
    kernel = kernel_of_hom(f)
    assert kernel
    for v in kernel:
        assert m.is_zero_element(f.lift.apply(v))
    spanned = {str(v) for v in kernel}
    assert any("x" in s for s in spanned)


# -- resolutions ----------------------------------------------------------------


@pytest.mark.parametrize("make", ZOO, ids=lambda f: f.__name__.strip("_"))
def test_resolve_and_verify(make):
    module = make()
    res = resolve(module)
    verify_resolution(res)
    assert res.modules[0] == module.generators
    assert res.length >= 1


def test_resolution_of_free_module_is_trivial():
    free = free_presentation(GradedFreeModule(ZX, (0, -2)))
    res = resolve(free)
    verify_resolution(res)
    assert res.length == 0


def test_koszul_resolution_shape():
    res = resolve(_koszul_point())
    verify_resolution(res)
    # 0 -> R -> R^2 -> R: the classical two-step staircase
    assert [m.rank for m in res.modules] == [1, 2, 1]


def test_resolution_too_long_raises():
    with pytest.raises(ResolutionTooLong):
        resolve(_koszul_point(), max_length=1)


def test_max_length_bounds_the_length_counting_the_relation_map():
    free = free_presentation(GradedFreeModule(ZX, (0,)))
    for bound in (0, -3):
        with pytest.raises(ResolutionTooLong):
            resolve(_dual_numbers(), max_length=bound)
    assert resolve(free, max_length=0).length == 0
    with pytest.raises(ResolutionTooLong, match=r"^no free resolution of length <= -3 found$"):
        resolve(free, max_length=-3)
    assert resolve(_dual_numbers(), max_length=1).length == 1
    assert resolve(_koszul_point(), max_length=2).length == 2


def test_verify_resolution_rejects_wrong_start():
    module = _mod2()
    res = resolve(module)
    other = presented_module(Z, [0], [[3]])
    broken = type(res)(other, res.maps)
    with pytest.raises(Exception):
        verify_resolution(broken)


def test_verify_resolution_rejects_non_composing_maps():
    module = _dual_numbers()
    res = resolve(module)
    # append a fake step that does not compose to zero
    top = res.modules[-1]
    fake = GradedMatrixHom(
        top.shifted(1), top, 1, [[ZX.one()] * top.rank for _ in range(top.rank)]
    )
    broken = type(res)(module, res.maps + [fake])
    with pytest.raises(EngineError, match=r"^maps 0 and 1 do not compose to zero$"):
        verify_resolution(broken)


def _with_entry_doubled(d, i, c):
    rows = [list(row) for row in d.entries]
    rows[i][c] = rows[i][c] + rows[i][c]
    return GradedMatrixHom(d.source, d.target, d.degree, rows)


@pytest.mark.parametrize("ring, seed, sizes", _pool_and_two_variable_laurent(78, max_rank=2, max_rels=4))
def test_verify_resolution_names_the_pair_that_does_not_compose_to_zero(ring, seed, sizes):
    # doubling a nonzero entry (i, c) of map k adds e * (column i of map k - 1)
    # to column c of their product, nonzero over a domain; map k + 1 may fail too
    rng = random.Random(seed)
    checked = 0
    while checked < 4:
        res = resolve(gu.random_presented_module(rng, ring, **sizes))
        for k in range(1, res.length):
            d = res.maps[k]
            i, c = rng.choice([(i, c) for i, row in enumerate(d._rows) for c in row])
            maps = res.maps[:k] + [_with_entry_doubled(d, i, c)] + res.maps[k + 1 :]
            with pytest.raises(EngineError, match=rf"^maps {k - 1} and {k} do not compose to zero$"):
                verify_resolution(Resolution(res.module, maps))
            checked += 1


def test_padded_resolution_differs_and_verifies():
    rng = random.Random(101)
    for make in ZOO:
        module = make()
        res = resolve(module)
        for _ in range(4):
            padded = gu.padded_resolution(rng, res)
            verify_resolution(padded)
            assert sum(m.rank for m in padded.modules) > sum(
                m.rank for m in res.modules
            )


# -- chain lifts ------------------------------------------------------------------


def test_lift_identity_and_verify():
    for make in ZOO:
        module = make()
        res = resolve(module)
        ident = identity_module_hom(module)
        lifts = lift_endomorphism(res, ident)
        verify_lift(res, ident, lifts)
        assert len(lifts) == res.length + 1


def _count_spans(monkeypatch):
    built = []
    span_init = ColumnSpan.__init__

    def counting_init(span, ambient, columns):
        built.append(len(columns))
        span_init(span, ambient, columns)

    monkeypatch.setattr(ColumnSpan, "__init__", counting_init)
    return built


def _cube_module():
    ring = polynomial_ring(["x0", "x1", "x2"], [2, 2, 2])
    x = [ring.gen(n) for n in ring.var_names]
    cube = [(x[i] * x[j] * x[k],) for i in range(3) for j in range(i, 3) for k in range(j, 3)]
    return presented_module(ring, [0], cube)


def test_lifts_build_one_span_per_differential(monkeypatch):
    built = _count_spans(monkeypatch)
    m = _cube_module()
    ring = m.ring
    endos = [module_hom(m, m, 0, [[ring.const(c)]]) for c in (2, 3, 5)]
    res = resolve(m)
    assert [p.rank for p in res.modules] == [1, 10, 15, 6]
    for f in endos:
        verify_lift(res, f, lift_endomorphism(res, f))
        hs_trace(f, resolution=res)
    # the module's span, built by the first module_hom, is the first map's;
    # resolve builds one span per later map, and the lifts build none
    assert m.span is solvers_impl.column_span(res.maps[0])
    assert built == [d.source.rank for d in res.maps] == [10, 15, 6]


def test_verify_resolution_builds_one_span_per_differential(monkeypatch):
    m = _cube_module()
    res = resolve(m)
    m.span  # built before counting: the module's span is not one of the maps'
    built = _count_spans(monkeypatch)
    verify_resolution(res)
    # the maps of a resolve already carry their spans
    assert built == []
    bare = [type(d)._closed(d.source, d.target, d.degree, d._rows) for d in res.maps]
    verify_resolution(Resolution(m, bare))
    # each span tests the previous kernel and gives its own map's kernel
    assert built == [d.source.rank for d in res.maps] == [10, 15, 6]


def test_verify_resolution_still_certifies_shared_spans():
    m = presented_module(integers(), [0, 0], [(2, 0), (0, 3), (2, 3)])
    res = resolve(m)
    verify_resolution(res)
    assert [p.rank for p in res.modules] == [2, 3, 1]
    assert all(d._span is not None for d in res.maps)
    # the same map objects, each carrying the span it was verified with
    short = Resolution(m, res.maps[:-1])
    with pytest.raises(EngineError, match="nonzero kernel"):
        verify_resolution(short)
    doubled = Resolution(m, [res.maps[0], res.maps[1] + res.maps[1]])
    with pytest.raises(EngineError, match="not covered"):
        verify_resolution(doubled)


def _without_column(d, k):
    shifts = d.source.shifts[:k] + d.source.shifts[k + 1 :]
    columns = [c for j, c in enumerate(d.columns()) if j != k]
    return hom_from_columns(GradedFreeModule(d.ring, shifts), d.target, d.degree, columns)


def _with_column_doubled(d, k):
    columns = [tuple(e + e for e in c) if j == k else c for j, c in enumerate(d.columns())]
    return hom_from_columns(d.source, d.target, d.degree, columns)


@pytest.mark.parametrize("k", [0, 7, 14])
def test_a_broken_second_map_over_a_polynomial_ring_is_not_covered(k):
    # each column of d2 is a kernel generator of d1 that pruning kept, and
    # matches by equality; a missing or doubled one must reach the engine
    m = _cube_module()
    d1, d2 = resolve(m).maps[:2]
    assert d2.source.rank == 15
    with pytest.raises(EngineError, match="nonzero kernel"):
        verify_resolution(Resolution(m, [d1, d2]))
    for broken in (_without_column(d2, k), _with_column_doubled(d2, k)):
        with pytest.raises(EngineError, match="not covered"):
            verify_resolution(Resolution(m, [d1, broken]))


def _count_memberships(monkeypatch):
    asked = []
    inside = ColumnSpan._inside

    def counting(obj, column):
        asked.append(column)
        return inside(obj, column)

    monkeypatch.setattr(ColumnSpan, "_inside", counting)
    return asked


def test_verify_resolution_asks_the_backend_only_for_pruned_kernel_columns(monkeypatch):
    rng = random.Random(73)
    integer = [resolve(_random_integer_presentation(rng, size)) for size in (2, 3, 4, 5, 6)]
    cube = resolve(_cube_module())
    asked = _count_memberships(monkeypatch)
    for res in integer:
        verify_resolution(res)
    # over Z nothing is pruned: every kernel generator is a column of the next map
    assert asked == []
    verify_resolution(cube)
    spans = [solvers_impl.column_span(d) for d in cube.maps]
    dropped = [c for span, nxt in zip(spans, spans[1:]) for c in span._sparse_kernel() if c not in nxt.columns]
    assert dropped and asked == dropped


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ring=st.sampled_from(gu.RING_POOL), rng=st.randoms(use_true_random=False))
def test_first_outside_agrees_with_the_backend_alone(ring, rng):
    target = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
    gens = gu.random_matrix(rng, GradedFreeModule(ring, gu.random_shifts(rng, max_rank=4)), target, 1)
    span = ColumnSpan(target, gens._sparse_columns())
    others = gu.random_matrix(rng, GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3)), target, 1)
    # copies of every generator, in order, then of every other one again
    in_order = [dict(c) for c in span.columns + span.columns[::2]]
    for c in others._sparse_columns():
        in_order.insert(rng.randint(0, len(in_order)), c)
    shuffled = rng.sample(in_order, len(in_order))
    inside = span._inside
    for g in (in_order, shuffled):
        assert span.first_outside(g) == next((j for j, c in enumerate(g) if not inside(c)), None)


def _count_conversions(monkeypatch):
    converted = []
    for backend in (solvers_impl._IntBackend, solvers_impl._PolyBackend):
        convert = backend.kernel

        def counting(obj, convert=convert):
            converted.append(obj)
            return convert(obj)

        monkeypatch.setattr(backend, "kernel", counting)
    return converted


@pytest.mark.parametrize(
    "make",
    [_cube_module, lambda: presented_module(integers(), [0, 0], [(2, 0), (0, 3), (2, 3)])],
    ids=["cube", "integer"],
)
def test_each_kernel_is_converted_once(monkeypatch, make):
    m = make()
    r = m.generators.rank
    endos = [module_hom(m, m, 0, [[c * (i == j) for i in range(r)] for j in range(r)]) for c in (2, 3, 5)]
    converted = _count_conversions(monkeypatch)
    res = resolve(m)
    verify_resolution(res)
    for f in endos:
        hs_trace(f, resolution=res)
    spans = [solvers_impl.column_span(d)._backend for d in res.maps]
    assert converted == spans
    # the relation span stays on the module, and keeps its converted kernel
    converted.clear()
    again = resolve(m)
    assert again.maps[0] is res.maps[0]
    assert converted == [solvers_impl.column_span(d)._backend for d in again.maps[1:]]


def test_kernel_lists_are_fresh_copies():
    span = solvers_impl.column_span(_cube_module().relations)
    first, second = span.syzygy_vectors(), span.syzygy_vectors()
    assert first == second and first is not second
    first.pop()
    first[0] = None
    assert span.syzygy_vectors() == second and len(second) > 1


def _per_column_lifts(res, endo):
    """Chain lifts the way they were first built: apply, then hom_from_columns."""
    lifts = [endo.lift]
    for dj in res.maps:
        pj, span = dj.source, solvers_impl.column_span(dj)
        cols = []
        for c in range(pj.rank):
            remainder, cert = span.normal_form(lifts[-1].apply(dj.column(c)))
            assert not any(remainder)
            cols.append(pj.vector_component(pj.coerce_vector(cert), endo.degree - pj.shifts[c]))
        lifts.append(hom_from_columns(pj, pj, endo.degree, cols))
    return lifts


def _random_integer_presentation(rng, size):
    gens = rng.randint(1, size)
    rels = rng.randint(1, size)
    columns = [[rng.randint(-4, 4) for _ in range(gens)] for _ in range(rels)]
    return presented_module(Z, [0] * gens, [c for c in columns if any(c)] or [[2] * gens])


def _check_lifts_against_per_column(module, endo):
    res = resolve(module)
    lifts = lift_endomorphism(res, endo)
    assert lifts == _per_column_lifts(res, endo)
    verify_lift(res, endo, lifts)


@pytest.mark.parametrize("ring, seed, sizes", _pool_and_two_variable_laurent(71))
def test_lifts_match_the_per_column_lifts(ring, seed, sizes):
    rng = random.Random(seed)
    for _ in range(6):
        module = gu.random_presented_module(rng, ring, **sizes)
        for degree in (0, 2):
            _check_lifts_against_per_column(module, gu.random_module_endo(rng, module, degree))


def test_integer_lifts_match_the_per_column_lifts_up_to_six_by_six():
    rng = random.Random(72)
    for size in (2, 3, 4, 5, 6, 6, 6):
        module = _random_integer_presentation(rng, size)
        _check_lifts_against_per_column(module, gu.random_module_endo(rng, module))


def _reference_lifts(res, endo):
    """Chain lifts through ring-element products: one solve of compose(f_(j-1), d_j) per differential."""
    lifts = [endo.lift]
    for dj in res.maps:
        lifts.append(solvers_impl.column_span(dj).solve(compose(lifts[-1], dj), endo.degree))
    return lifts


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_lifts_match_the_reference_lifts_map_for_map(ring):
    rng = random.Random(74)
    for _ in range(8):
        module = gu.random_presented_module(rng, ring, max_rels=3)
        res = resolve(module)
        for degree in (0, 2):
            endo = gu.random_module_endo(rng, module, degree)
            assert lift_endomorphism(res, endo) == _reference_lifts(res, endo)


def test_lifts_of_mpowers_match_the_reference_lifts_map_for_map():
    rng = random.Random(75)
    for n, d in ((2, 3), (3, 2), (3, 3)):
        module = _mpower(n, d)
        res = resolve(module)
        # degree 2: multiplication by a random linear form, not a scalar
        for degree in (0, 2, 2):
            endo = gu.random_module_endo(rng, module, degree)
            assert lift_endomorphism(res, endo) == _reference_lifts(res, endo)


def _kept_engine_forms(res) -> int:
    """Assert that every kernel column, and every later map's span column,
    keeps the engine vector of its entries; return how many were checked."""
    ring = res.module.ring
    spans = [solvers_impl.column_span(d) for d in res.maps]
    kept = [c for span in spans for c in span._sparse_kernel()] + [c for span in spans[1:] for c in span.columns]
    for column in kept:
        assert isinstance(column, solvers_impl._EngineColumn)
        assert column.engine == solvers_impl._encode(ring, dict(column))
    return len(kept)


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_kernel_columns_keep_the_engine_vector_of_their_entries(ring):
    rng = random.Random(76)
    checked = 0
    for _ in range(40):
        res = resolve(gu.random_presented_module(rng, ring, max_rank=2, max_rels=5))
        verify_resolution(res)
        checked += _kept_engine_forms(res)
    assert checked >= 4


@pytest.mark.parametrize("n, d", [(3, 2), (3, 3), (4, 2)])
def test_mpower_kernel_columns_keep_the_engine_vector_of_their_entries(n, d):
    res = resolve(_mpower(n, d))
    verify_resolution(res)
    assert _kept_engine_forms(res) > sum(p.rank for p in res.modules[2:])


def test_verify_and_lift_multiply_no_ring_elements_over_a_polynomial_ring(monkeypatch):
    # d_j d_(j+1) and f_(j-1) d_j are formed on packed engine vectors
    module = _mpower(4, 2)
    rng = random.Random(77)
    endos = [gu.random_module_endo(rng, module, degree) for degree in (0, 2, 4)]
    _assert_verify_and_lift_multiply_nothing(monkeypatch, module, endos)


@pytest.mark.parametrize("ring", [Z, integers(GRADING_Z2), ZL, laurent_ring(["t"], [2], GRADING_Z2)], ids=str)
def test_verify_and_lift_multiply_no_ring_elements_over_integer_relations(monkeypatch, ring):
    # d_j d_(j+1) and f_(j-1) d_j are formed on sparse integer columns over
    # the integers and on canonical engine vectors over a Laurent ring, where
    # the endomorphisms have entries such as t - t^-1; five relations on
    # three generators leave a kernel of rank 2
    module = presented_module(ring, [0, 0, 2], [(2, 0, 0), (0, 3, 0), (2, 3, 0), (0, 0, 4), (0, 0, 6)])
    rng = random.Random(78)
    endos = [gu.random_module_endo(rng, module) for _ in range(3)]
    assert [p.rank for p in resolve(module).modules] == [3, 5, 2]
    _assert_verify_and_lift_multiply_nothing(monkeypatch, module, endos)


def _assert_verify_and_lift_multiply_nothing(monkeypatch, module, endos):
    res = resolve(module)
    products = []
    mul = RingElement.__mul__

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counting_mul)
    verify_resolution(res)
    lifts = [lift_endomorphism(res, endo) for endo in endos]
    assert products == []
    monkeypatch.setattr(RingElement, "__mul__", mul)
    assert [len(f) for f in lifts] == [len(res.modules)] * len(endos)
    for endo, f in zip(endos, lifts):
        verify_lift(res, endo, f)


def test_closed_operations_build_nothing_through_the_validating_constructors(monkeypatch):
    doc = parse_source(
        """
        ring Z[x0:2, x1:2, x2:2];
        module M { gens [0]; rels [[x0^2], [x0*x1], [x1^2 - x2^2], [x1*x2 + x2^2]]; }
        hom f : M -> M { lift [[3]]; }
        hom g : M -> M { degree 2; lift [[x0 - x1]]; }
        hom h : M -> M { degree 4; lift [[x2^2]]; }
        """
    )
    m, endos = doc.modules["M"], list(doc.homs.values())
    x, t = m.ring.gen("x0"), ZL.gen("t")
    built = {GradedMatrixHom: 0, RingElement: 0}
    for cls in built:
        init = cls.__init__

        def counting(obj, *args, cls=cls, init=init):
            built[cls] += 1
            init(obj, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    res = resolve(m)
    verify_resolution(res)
    for f in endos:
        verify_lift(res, f, lift_endomorphism(res, f))
        hs_trace(f, resolution=res)
    assert [p.rank for p in res.modules] == [1, 4, 4, 1]
    a, b = x + 2, 3 * x - 1
    for value in (a + b, a - b, a * b, -a, a**5, b - 4, 2 - b, a.homogeneous_component(2), m.ring.one()):
        assert value
    assert t.unit_inverse() ** 3 == t**-3 != m.ring.zero()
    assert built == {GradedMatrixHom: 0, RingElement: 0}


def _mpower(n, d):
    """Z[x0..x(n-1)]/m^d, every variable of degree 2."""
    ring = polynomial_ring([f"x{i}" for i in range(n)], [2] * n)
    x = [ring.gen(name) for name in ring.var_names]
    combos = itertools.combinations_with_replacement(x, d)
    gens = [math.prod(combo, start=ring.one()) for combo in combos]
    return presented_module(ring, [0], [(g,) for g in gens])


def test_pruning_completes_only_up_to_the_tested_degree(monkeypatch):
    pairs = []
    build_pair = solvers_impl._ModuleGB._build_pair

    def counting(gb, kind, i, j):
        pairs.append(kind)
        return build_pair(gb, kind, i, j)

    monkeypatch.setattr(solvers_impl._ModuleGB, "_build_pair", counting)
    res = resolve(_mpower(4, 3))
    assert [p.rank for p in res.modules] == [1, 20, 45, 36, 10]
    # 2777 pairs when every greedy test completed a full basis
    assert len(pairs) < 2777 // 3


def test_mpower_in_five_variables_has_eagon_northcott_ranks():
    res = resolve(_mpower(5, 2))
    assert [p.rank for p in res.modules] == [1, 15, 40, 45, 24, 5]
    verify_resolution(res)


def test_pruning_tests_each_degree_group_as_one_lattice(monkeypatch):
    # The first syzygies of m^3 in 4 variables: 190 columns in 3 degree
    # groups, 45 kept.  Their remainders against N_<d keep no residue term,
    # so no group falls back to a completion per column.
    f = _mpower(4, 3).relations
    vectors = solvers_impl.column_span(f).syzygy_vectors()
    groups = solvers_impl._degree_groups(f.source, vectors)
    calls = []
    grown = solvers_impl._ModuleGB.grown

    def counting(gb, columns, max_degree=None):
        calls.append(max_degree)
        return grown(gb, columns, max_degree)

    monkeypatch.setattr(solvers_impl._ModuleGB, "grown", counting)
    assert len(solvers_impl.prune_columns(f.source, vectors)[1]) == 45
    assert len(vectors) == 190 and len(groups) == 3
    assert len(calls) <= len(groups)


def test_mpower_cubed_in_five_variables_resolves_minimally():
    res = resolve(_mpower(5, 3))
    assert [p.rank for p in res.modules] == [1, 35, 105, 126, 70, 15]
    verify_resolution(res)


def test_mpower_cubed_in_six_variables_resolves_verifies_and_traces_within_three_seconds():
    # about 0.4 s with sparse columns throughout, interpreter start included;
    # 1.1-1.3 s when every kernel went through dense vectors
    code = """
        import itertools, math
        from gradedtrace import hs_trace, identity_module_hom, polynomial_ring, presented_module, resolve, verify_resolution
        ring = polynomial_ring([f"x{i}" for i in range(6)], [2] * 6)
        x = [ring.gen(name) for name in ring.var_names]
        cubes = [(math.prod(c, start=ring.one()),) for c in itertools.combinations_with_replacement(x, 3)]
        m = presented_module(ring, [0], cubes)
        res = resolve(m)
        verify_resolution(res)
        print(hs_trace(identity_module_hom(m), res).value, *[p.rank for p in res.modules])
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=30
    )
    seconds = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    value, *ranks = done.stdout.split()
    # the identity's trace is the alternating sum of the ranks, zero for a torsion module
    assert value == "0"
    assert [int(r) for r in ranks] == [1, 56, 210, 336, 280, 120, 21]
    assert seconds < 3.0


def test_resolving_and_tracing_build_no_dense_vector(monkeypatch):
    # columns travel sparse from the engine through pruning, spans and lifts
    m = _mpower(4, 3)
    three = module_hom(m, m, 0, [[m.ring.const(3)]])
    calls = []
    for name in ("coerce_vector", "vector_degree", "vector_component"):
        method = getattr(GradedFreeModule, name)

        def counting(module, *args, method=method, name=name):
            calls.append(name)
            return method(module, *args)

        monkeypatch.setattr(GradedFreeModule, name, counting)
    res = resolve(m)
    verify_resolution(res)
    lifts = lift_endomorphism(res, three)
    assert hs_trace(three, res).value.is_zero()
    assert [p.rank for p in res.modules] == [1, 20, 45, 36, 10] and len(lifts) == 5
    assert calls == []


def test_hs_trace_checks_the_squares_of_the_lifts_it_is_given():
    # multiplication by 3 on Z/(2): with f_1 = 0 the square d f_1 = f_0 d reads 0 = 6
    m2 = _mod2()
    three = module_hom(m2, m2, 0, [[3]])
    res = resolve(m2)
    p1 = res.modules[1]
    with pytest.raises(ValueError, match="square 0"):
        hs_trace(three, res, [three.lift, zero_hom(p1, p1, 0)])
    with pytest.raises(ValueError, match="square 0"):
        verify_lift(res, three, [three.lift, zero_hom(p1, p1, 0)])
    # 1 = 3 in Z/(2), so [1, 1] is a lift of 3; in Z/(4) the squares commute but 1 is not 3
    ones = [identity_hom(p) for p in res.modules]
    assert hs_trace(three, res, ones).value.is_zero()
    m4 = _mod4()
    res4 = resolve(m4)
    with pytest.raises(ValueError, match="lift 0"):
        hs_trace(module_hom(m4, m4, 0, [[3]]), res4, [identity_hom(p) for p in res4.modules])
    with pytest.raises(ValueError, match="lift 0"):
        verify_lift(res4, module_hom(m4, m4, 0, [[3]]), [identity_hom(p) for p in res4.modules])
    # one perturbed entry of a true lift over the resolution of m^3 in 3 variables
    m = _cube_module()
    three = module_hom(m, m, 0, [[m.ring.const(3)]])
    res = resolve(m)
    lifts = lift_endomorphism(res, three)
    assert hs_trace(three, res, lifts) == hs_trace(three, res)
    for j, stage in ((0, "lift 0"), (2, "square 1")):
        p = res.modules[j]
        bump = GradedMatrixHom(p, p, 0, [[int(a == b == 0) for b in range(p.rank)] for a in range(p.rank)])
        bad = lifts[:j] + [lifts[j] + bump] + lifts[j + 1 :]
        with pytest.raises(ValueError, match=stage):
            hs_trace(three, res, bad)
        with pytest.raises(ValueError, match=stage):
            verify_lift(res, three, bad)


def test_lift_rejects_foreign_endo():
    m1, m2 = _mod2(), _mod4()
    res = resolve(m1)
    with pytest.raises(ValueError):
        lift_endomorphism(res, identity_module_hom(m2))


def test_hs_trace_checks_the_lifts_it_is_given():
    # multiplication by 3 on Z/(2): 3 - 3 = 0, not the 3 of the first lift alone
    m2 = _mod2()
    three = module_hom(m2, m2, 0, [[3]])
    res = resolve(m2)
    lifts = lift_endomorphism(res, three)
    assert hs_trace(three, res, lifts).value.is_zero()
    for bad in (lifts[:1], lifts + lifts[-1:], lifts[::-1]):
        with pytest.raises(ValueError):
            hs_trace(three, res, bad)
    with pytest.raises(ValueError):
        hs_trace(three, resolve(_mod4()), lifts)
    # the identity of Z[x:2]/(x): [L0, L0] is not a lift over P_1 = Z[x][-1]
    point = presented_module(ZX, [0], [[ZX.gen("x")]])
    one, res = identity_module_hom(point), resolve(point)
    assert hs_trace(one, res, lift_endomorphism(res, one)).value.is_zero()
    with pytest.raises(ValueError):
        hs_trace(one, res, [one.lift, one.lift])
    # x on Z[x:2]/(x^2) has degree 2, so degree-0 maps are no lift of it
    dual = _dual_numbers()
    x = module_hom(dual, dual, 2, [[ZX.gen("x")]])
    res = resolve(dual)
    with pytest.raises(ValueError):
        hs_trace(x, res, [zero_hom(p, p, 0) for p in res.modules])
    assert hs_trace(x, res, lift_endomorphism(res, x)).value.is_zero()


def test_perturb_lift_changes_chain_but_stays_valid():
    rng = random.Random(55)
    found_change = 0
    for make in ZOO:
        module = make()
        res = resolve(module)
        f = gu.random_module_endo(rng, module)
        lifts = lift_endomorphism(res, f)
        homotopies = []
        for j in range(res.length):
            h = gu.random_matrix(
                rng, res.modules[j], res.modules[j + 1], f.degree - 1, density=1.0
            )
            homotopies.append(h if not h.is_zero() else None)
        perturbed = perturb_lift(res, lifts, homotopies)
        verify_lift(res, f, perturbed)
        if any(p != l for p, l in zip(perturbed, lifts)):
            found_change += 1
        assert (
            hs_trace(f, res, perturbed).value == hs_trace(f, res, lifts).value
        )
    assert found_change >= 2


def test_perturb_lift_refuses_the_wrong_number_of_lifts_or_homotopies():
    module = _dual_numbers()
    res = resolve(module)
    lifts = lift_endomorphism(res, identity_module_hom(module))
    assert res.length == 1
    for bad_lifts, homotopies in ((lifts, []), (lifts, [None, None]), (lifts[:1], [None]), (lifts + lifts[:1], [None])):
        with pytest.raises(ValueError) as err:
            perturb_lift(res, bad_lifts, homotopies)
        assert str(err.value) == f"expected 2 lifts and 1 homotopies, got {len(bad_lifts)} and {len(homotopies)}"
    assert perturb_lift(res, lifts, [None]) == lifts


def test_verify_lift_forms_its_squares_without_compose(monkeypatch):
    # both sides of each chain-map square are formed on engine vectors; the
    # verdicts on true lifts and on lifts with one stage bumped are those of compose
    rng = random.Random(79)
    cases = []
    for ring in gu.THREE_KINDS:
        for _ in range(8):
            module = gu.random_presented_module(rng, ring, max_rank=3, max_rels=4)
            endo = gu.random_module_endo(rng, module, rng.choice((0, 2)))
            res = resolve(module)
            lifts = lift_endomorphism(res, endo)
            candidates = [lifts]
            if len(lifts) > 1:
                j = rng.randrange(1, len(lifts))
                bump = gu.random_matrix(rng, res.modules[j], res.modules[j], endo.degree)
                candidates.append(lifts[:j] + [lifts[j] + bump] + lifts[j + 1 :])
            for f in candidates:
                failed = [k for k, d in enumerate(res.maps) if compose(d, f[k + 1]) != compose(f[k], d)]
                cases.append((res, endo, f, failed))

    def refuse(*args):
        raise AssertionError("a chain-map square went through compose")

    monkeypatch.setattr(freemod_impl, "compose", refuse)
    monkeypatch.setattr(modules_impl, "compose", refuse)
    for res, endo, f, failed in cases:
        if not failed:
            verify_lift(res, endo, f)
            continue
        with pytest.raises(ValueError, match=f"chain-map square {failed[0]} of the lifts does not commute"):
            verify_lift(res, endo, f)
    assert sum(bool(failed) for *_, failed in cases) == 10


def test_verify_lift_rejects_broken_square():
    module = _dual_numbers()
    res = resolve(module)
    f = identity_module_hom(module)
    lifts = lift_endomorphism(res, f)
    bad = list(lifts)
    bad[1] = bad[1] + GradedMatrixHom(
        res.modules[1], res.modules[1], 0, [[ZX.const(1)]]
    )
    # changing f_1 without compensation must break a chain square
    with pytest.raises(Exception):
        verify_lift(res, f, bad)


# -- presentation surgery ----------------------------------------------------------


def test_add_redundant_generator_round_trip():
    m = _dual_numbers()
    x = ZX.gen("x")
    bigger, inc, proj = add_redundant_generator(m, [x])
    assert bigger.generators.rank == m.generators.rank + 1
    # the projection builds unchecked; the checking constructor accepts it
    assert ModuleHom(proj.source, proj.target, proj.lift) == proj
    assert compose_module_homs(proj, inc) == identity_module_hom(m)
    assert compose_module_homs(inc, proj) == identity_module_hom(bigger)
    # transported endomorphism has the same trace
    f = module_hom(m, m, 2, [[x]])
    g = compose_module_homs(inc, compose_module_homs(f, proj))
    assert hs_trace(g).value == hs_trace(f).value


def test_with_extra_relations_same_quotient():
    m = _mod2()
    padded = with_extra_relations(m, [[Z.const(4)], [Z.const(6)]])
    assert same_quotient(m, padded)
    assert padded.relations.source.rank == m.relations.source.rank + 2
    with pytest.raises(ValueError):
        with_extra_relations(m, [[Z.const(3)]])


def test_zero_module_edge_case():
    empty = GradedFreeModule(Z, ())
    zero_mod = free_presentation(empty)
    res = resolve(zero_mod)
    verify_resolution(res)
    f = identity_module_hom(zero_mod)
    assert hs_trace(f).value.is_zero()
    assert zero_hom(empty, empty, 0).is_zero()


def test_with_extra_relations_refuses_an_inhomogeneous_column_by_its_index():
    m = presented_module(ZX, [0], [[1]])
    x = ZX.gen("x")
    with pytest.raises(HomogeneityError) as err:
        with_extra_relations(m, [[x], [x + 1]])
    assert str(err.value) == "relation column 1 is not homogeneous"


def _checked(f):
    """The same map through the validating constructor."""
    return GradedMatrixHom(f.source, f.target, f.degree, f.entries)


def test_maps_built_unchecked_pass_the_checked_constructor():
    rng = random.Random(23)
    for ring in gu.RING_POOL:
        for _ in range(12):
            m = gu.random_presented_module(rng, ring, max_rank=3, max_rels=3)
            rel = m.relations
            rebuilt = relation_hom_from_columns(m.generators, rel.columns(), 3)
            assert _checked(rebuilt) == rebuilt
            scales = [rng.randint(-3, 3) for _ in rel.columns()]
            scaled = [tuple(e * c for e in column) for column, c in zip(rel.columns(), scales)]
            padded = with_extra_relations(m, scaled + [(ring.zero(),) * m.generators.rank])
            assert _checked(padded.relations) == padded.relations
            k = rng.randint(-2, 2)
            expr = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.generators.shifts]
            bigger, inc, proj = add_redundant_generator(m, expr)
            for f in (bigger.relations, inc.lift, proj.lift):
                assert _checked(f) == f
            assert ModuleHom(bigger, m, proj.lift) == proj
            for d in resolve(m, max_length=8).maps:
                assert _checked(d) == d


def test_map_matrix_builds_legal_maps():
    rng = random.Random(29)
    ring_maps = [
        RingMap(ZL, Z, (Z.one(),)),
        RingMap(ZX, Z, (Z.zero(),)),
        RingMap(ZXY, ZX, (ZX.gen("x"), ZX.gen("x") ** 2)),
        RingMap(ZL, ZL, (ZL.gen("t").unit_inverse(),)),
    ]
    for phi in ring_maps:
        for _ in range(10):
            source = GradedFreeModule(phi.source, gu.random_shifts(rng, max_rank=4))
            target = GradedFreeModule(phi.source, gu.random_shifts(rng, max_rank=4))
            f = gu.random_matrix(rng, source, target, rng.randint(-2, 3))
            image = map_matrix(phi, f)
            assert _checked(image) == image
            assert image.entries == tuple(tuple(phi(e) for e in row) for row in f.entries)


def test_even_degree_relation_maps_are_refused():
    x = ZX.gen("x")
    gens = GradedFreeModule(ZX, (0,))
    even = GradedMatrixHom(GradedFreeModule(ZX, (-2,)), gens, 0, [[x]])
    with pytest.raises(ValueError) as err:
        PresentedModule(gens, even)
    assert str(err.value) == "relation maps must have odd degree"
    with pytest.raises(ValueError) as err:
        presented_module(ZX, [0], [[x]], relation_degree=2)
    assert str(err.value) == "relation maps must have odd degree"


def test_even_degree_resolution_maps_are_refused():
    x = ZX.gen("x")
    m = presented_module(ZX, [0], [[x]])
    even = GradedMatrixHom(GradedFreeModule(ZX, (-2,)), m.generators, 0, [[x]])
    with pytest.raises(ValueError) as err:
        Resolution(m, [even])
    assert str(err.value) == "map 0 has even degree 0; resolution maps must have odd degree"
    top = zero_hom(GradedFreeModule(ZX, (0,)), m.relations.source, 2)
    with pytest.raises(ValueError) as err:
        Resolution(m, [m.relations, top])
    assert str(err.value) == "map 1 has even degree 2; resolution maps must have odd degree"


def test_resolution_maps_must_chain():
    # Z/(2): the relation map's source is Z[1], and a second map into Z[0,0] does not chain
    m = _mod2()
    loose = zero_hom(GradedFreeModule(Z, (1,)), GradedFreeModule(Z, (0, 0)), 1)
    with pytest.raises(ValueError) as err:
        Resolution(m, [m.relations, loose])
    assert str(err.value) == "map 1 does not land in the source of map 0"
    # the even-degree check still comes first
    even = zero_hom(GradedFreeModule(Z, (1,)), GradedFreeModule(Z, (0, 0)), 2)
    with pytest.raises(ValueError, match="map 1 has even degree 2"):
        Resolution(m, [m.relations, even])
    # maps that chain still build
    Resolution(m, [m.relations, zero_hom(GradedFreeModule(Z, (2,)), m.relations.source, 1)])


def test_the_laurent_zero_module_exits_two_within_five_seconds(tmp_path):
    # Z[t, 1/t]/(-2 - t^-1, -2*t^-1) is zero, yet its syzygies never vanish,
    # so resolve gives up at length 32.  About 0.5 s with the chain of suffix
    # bases, interpreter start included; one completion per pruned column
    # took 6-9 s.
    doc = tmp_path / "z.txt"
    doc.write_text("ring Z[t:0,t^-1];\nmodule Z0 { gens [0]; rels [[-2 - t^-1], [-2*t^-1]]; }\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    args = [sys.executable, "-m", "gradedtrace.cli", "resolve", "-f", str(doc), "-m", "Z0"]
    try:
        done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=5)
    except subprocess.TimeoutExpired:
        pytest.fail("did not finish within 5 s")
    assert done.returncode == 2, done.stderr
    assert "no free resolution of length <= 32 found" in done.stderr
