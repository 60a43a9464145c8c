"""Presented modules, resolutions, chain lifts, and presentation surgery."""

import itertools
import math
import random

import pytest

from gradedtrace import (
    ColumnSpan,
    EngineError,
    GradedFreeModule,
    GradedMatrixHom,
    ModuleHom,
    Resolution,
    ResolutionTooLong,
    add_redundant_generator,
    compose_module_homs,
    free_presentation,
    hs_trace,
    identity_module_hom,
    integers,
    kernel_of_hom,
    laurent_ring,
    lift_endomorphism,
    module_hom,
    perturb_lift,
    polynomial_ring,
    presented_module,
    resolve,
    same_quotient,
    verify_lift,
    verify_resolution,
    with_extra_relations,
    zero_hom,
)

import gradedtrace.solvers as solvers_impl
import genutils as gu

Z = integers()
ZX = polynomial_ring(["x"], [2])
ZXY = polynomial_ring(["x", "y"], [2, 4])
ZL = laurent_ring(["t"], [0])


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


def test_verify_resolution_rejects_wrong_start():
    module = _mod2()
    res = resolve(module)
    other = presented_module(Z, [0], [[3]])
    broken = type(res)(other, res.modules, res.maps)
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
    broken = type(res)(module, res.modules + [top.shifted(1)], res.maps + [fake])
    with pytest.raises(Exception):
        verify_resolution(broken)


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
    verify_resolution(Resolution(m, res.modules, bare))
    # each span tests the previous kernel and gives its own map's kernel
    assert built == [d.source.rank for d in res.maps] == [10, 15, 6]


def test_verify_resolution_still_certifies_shared_spans():
    m = presented_module(integers(), [0, 0], [(2, 0), (0, 3), (2, 3)])
    res = resolve(m)
    verify_resolution(res)
    assert [p.rank for p in res.modules] == [2, 3, 1]
    assert all(d._span is not None for d in res.maps)
    # the same map objects, each carrying the span it was verified with
    short = Resolution(m, res.modules[:-1], res.maps[:-1])
    with pytest.raises(EngineError, match="nonzero kernel"):
        verify_resolution(short)
    doubled = Resolution(m, res.modules, [res.maps[0], res.maps[1] + res.maps[1]])
    with pytest.raises(EngineError, match="not covered"):
        verify_resolution(doubled)


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


def test_lift_rejects_foreign_endo():
    m1, m2 = _mod2(), _mod4()
    res = resolve(m1)
    with pytest.raises(ValueError):
        lift_endomorphism(res, identity_module_hom(m2))


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
