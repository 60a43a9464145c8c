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
    HomogeneityError,
    ModuleHom,
    PresentedModule,
    Resolution,
    ResolutionTooLong,
    RingElement,
    RingMap,
    add_redundant_generator,
    compose_module_homs,
    free_presentation,
    hom_from_columns,
    hs_trace,
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


def test_max_length_bounds_the_length_counting_the_relation_map():
    for bound in (0, -3):
        with pytest.raises(ResolutionTooLong):
            resolve(_dual_numbers(), max_length=bound)
        assert resolve(free_presentation(GradedFreeModule(ZX, (0,))), max_length=bound).length == 0
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


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_lifts_match_the_per_column_lifts(ring):
    rng = random.Random(71)
    for _ in range(6):
        module = gu.random_presented_module(rng, ring)
        for degree in (0, 2):
            _check_lifts_against_per_column(module, gu.random_module_endo(rng, module, degree))


def test_integer_lifts_match_the_per_column_lifts_up_to_six_by_six():
    rng = random.Random(72)
    for size in (2, 3, 4, 5, 6, 6, 6):
        module = _random_integer_presentation(rng, size)
        _check_lifts_against_per_column(module, gu.random_module_endo(rng, module))


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
