"""Acceptance suite.

One test per headline guarantee of the engine, each asserting exact equality
on a sizeable randomized corpus plus handpicked hard cases. Every test prints
a single "ACCEPTANCE <n> <name>: PASS" line when it succeeds so a -v run reads
as a checklist.
"""

import itertools
import random
import time

from gradedtrace import (
    GRADING_Z2,
    ORACLES,
    ColumnSpan,
    GradedFreeModule,
    GradedMatrixHom,
    RingMap,
    ShortExactSequence,
    additivity_defect,
    base_change_trace,
    builtin_catalog,
    categorical_trace,
    compose,
    direct_sum_homs,
    free_trace,
    hs_trace,
    identity_module_hom,
    int_determinant,
    integers,
    laurent_ring,
    lift_endomorphism,
    module_hom,
    perturb_lift,
    polynomial_ring,
    presented_module,
    resolve,
    run_suite,
    smith_normal_form,
    standard_duality,
    verify_lift,
    verify_resolution,
    zigzag_holds,
)

import genutils as gu

Z = integers()
ZX = polynomial_ring(["x"], [2])
ZL = laurent_ring(["t"], [0])

CORPUS_SEED = 2024


def _passed(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def _corpus(count=1000):
    """Deterministic pool of homogeneous endomorphisms over all three ring kinds.

    Ranks stay at most 5 and shifts within [-3, 3]; degrees favor 0 but odd
    and higher even degrees appear throughout.
    """
    rng = random.Random(CORPUS_SEED)
    out = []
    for i in range(count):
        ring = gu.THREE_KINDS[i % 3]
        module = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=5))
        degree = rng.choice([0, 0, 1, 2])
        out.append(gu.random_endo(rng, module, degree))
    return out


def test_criterion_1_supertrace_laws():
    start = time.perf_counter()
    rng = random.Random(101)
    corpus = _corpus()
    assert len(corpus) >= 1000

    for f in corpus:
        base = free_trace(f)
        # invariance under change of homogeneous basis
        conj, inv = gu.random_unimodular(rng, f.source)
        assert free_trace(compose(conj, compose(f, inv))).value == base.value
        # shifting the module by n flips the sign n times
        n = rng.randint(-3, 3)
        shifted_module = f.source.shifted(n)
        shifted = GradedMatrixHom(shifted_module, shifted_module, f.degree, f.entries)
        expected = base.value if n % 2 == 0 else -base.value
        assert free_trace(shifted).value == expected

    # additivity over direct sums; corpus[i] and corpus[i + 3] share a ring
    pairs = 0
    for f, g in zip(corpus, corpus[3:]):
        if f.degree != g.degree:
            continue
        total = free_trace(direct_sum_homs(f, g))
        assert total.value == free_trace(f).value + free_trace(g).value
        pairs += 1
    assert pairs >= 100

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"supertrace sweep took {elapsed:.1f}s"
    _passed(1, "supertrace laws")


def test_criterion_2_categorical_trace_and_zigzag():
    for f in _corpus():
        assert categorical_trace(f).value == free_trace(f).value

    # every shift pattern of rank at most 4 admits a duality whose zigzag
    # composites are the identity, including the empty module
    patterns = 0
    for rank in range(5):
        for shifts in itertools.product(range(-3, 4), repeat=rank):
            module = GradedFreeModule(Z, shifts)
            assert zigzag_holds(standard_duality(module))
            patterns += 1
    assert patterns == 2801
    _passed(2, "categorical trace and duality zigzag")


def test_criterion_3_trace_independent_of_resolution_and_lift():
    rng = random.Random(303)
    for index in range(20):
        ring = gu.THREE_KINDS[index % 3]
        # redrawn until it has a relation, so that its own resolution is not trivial
        module = gu.random_presented_module(rng, ring)
        while not module.relations.source.rank:
            module = gu.random_presented_module(rng, ring)
        f = gu.random_module_endo(rng, module)
        res = resolve(module)
        assert res.length >= 1
        padded = gu.padded_resolution(rng, res)
        verify_resolution(padded)
        values = set()
        for resolution in (res, padded):
            lifts = lift_endomorphism(resolution, f)
            verify_lift(resolution, f, lifts)
            homotopies = [
                gu.random_matrix(
                    rng,
                    resolution.modules[j],
                    resolution.modules[j + 1],
                    f.degree - 1,
                    density=1.0,
                )
                for j in range(resolution.length)
            ]
            perturbed = perturb_lift(resolution, lifts, homotopies)
            verify_lift(resolution, f, perturbed)
            values.add(hs_trace(f, resolution, lifts).value)
            values.add(hs_trace(f, resolution, perturbed).value)
        assert len(values) == 1, f"module {index}: got distinct traces {values}"
    _passed(3, "trace independent of resolution and lift")


def _fixed_sequences():
    # 0 -> Z/2 --2--> Z/4 -> Z/2 -> 0, non split
    left = presented_module(Z, [0], [[2]])
    middle = presented_module(Z, [0], [[4]])
    right = presented_module(Z, [0], [[2]])
    ses = ShortExactSequence(
        left,
        middle,
        right,
        module_hom(left, middle, 0, [[2]]),
        module_hom(middle, right, 0, [[1]]),
    )
    yield ses, identity_module_hom(left), identity_module_hom(middle)

    # 0 -> Z[x]/(x) --x--> Z[x]/(x^2) -> Z[x]/(x) -> 0, non split over Z[x]
    x = ZX.gen("x")
    left = presented_module(ZX, [-2], [[x]])
    middle = presented_module(ZX, [0], [[x * x]])
    right = presented_module(ZX, [0], [[x]])
    ses = ShortExactSequence(
        left,
        middle,
        right,
        module_hom(left, middle, 0, [[x]]),
        module_hom(middle, right, 0, [[1]]),
    )
    yield ses, identity_module_hom(left), identity_module_hom(middle)

    # Jordan block over the Laurent ring with f = multiplication by t
    t = ZL.gen("t")
    left = presented_module(ZL, [0], [[t - 1]])
    middle = presented_module(ZL, [0], [[(t - 1) ** 2]])
    right = presented_module(ZL, [0], [[t - 1]])
    ses = ShortExactSequence(
        left,
        middle,
        right,
        module_hom(left, middle, 0, [[t - 1]]),
        module_hom(middle, right, 0, [[1]]),
    )
    yield ses, module_hom(left, left, 0, [[t]]), module_hom(middle, middle, 0, [[t]])


def test_criterion_4_additivity_on_short_exact_sequences():
    start = time.perf_counter()
    rng = random.Random(404)
    verified = 0
    for ses, f_left, f_middle in _fixed_sequences():
        report = additivity_defect(ses, f_left, f_middle)
        assert report.holds() and report.defect.is_zero()
        verified += 1

    attempts = 0
    while verified < 53 and attempts < 600:
        ring = gu.THREE_KINDS[attempts % 3]
        attempts += 1
        built = gu.random_stable_ses(rng, ring)
        if built is None:
            continue
        ses, f_left, f_middle = built
        report = additivity_defect(ses, f_left, f_middle)
        assert report.defect.is_zero(), f"defect {report.defect} on attempt {attempts}"
        assert report.middle.value == report.left.value + report.right.value
        verified += 1
    assert verified >= 50

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"additivity sweep took {elapsed:.1f}s"
    _passed(4, "additivity over short exact sequences")


def test_criterion_5_fixed_point_catalog():
    start = time.perf_counter()
    catalog = builtin_catalog()
    suite = run_suite(list(catalog.values()))
    bad = [r.line() for r in suite.reports if not r.ok]
    assert suite.all_ok, "\n".join(bad)
    assert suite.total == len(catalog)

    # sphere cases: the trace equals 1 + d for each winding degree d
    degree_of = {
        "sphere_deg_m2": -2,
        "sphere_deg_m1": -1,
        "sphere_deg_0": 0,
        "sphere_deg_1": 1,
        "sphere_deg_2": 2,
        "sphere_deg_3": 3,
    }
    for name, d in degree_of.items():
        case = catalog[name]
        assert case.oracle_name == "suspension_fixed_points"
        engine = hs_trace(case.even).value - hs_trace(case.odd).value
        assert engine == Z.const(1 + d)
        oracle = ORACLES[case.oracle_name](case.comparison_ring, case.oracle_payload)
        assert oracle == Z.const(1 + d)

    # torus cases: the trace equals det(I - M) for the induced matrix M
    torus_names = [n for n in catalog if n.startswith("torus_")]
    assert len(torus_names) >= 3
    for name in torus_names:
        case = catalog[name]
        assert case.oracle_name == "det_i_minus_m"
        engine = hs_trace(case.even).value - hs_trace(case.odd).value
        oracle = ORACLES[case.oracle_name](case.comparison_ring, case.oracle_payload)
        assert engine == oracle

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"catalog run took {elapsed:.1f}s"
    _passed(5, "fixed point catalog")


def test_criterion_6_base_change_commutes_with_trace():
    rng = random.Random(606)
    lz2 = laurent_ring(["t"], [2], GRADING_Z2)
    t2 = lz2.gen("t")
    maps = [
        RingMap(ZL, Z, (Z.one(),)),  # counting evaluation t -> 1
        RingMap(ZX, lz2, (t2 + t2.unit_inverse(),)),  # x -> t + 1/t
        RingMap(ZX, Z, (Z.zero(),)),
        RingMap(ZL, ZL, (ZL.gen("t").unit_inverse(),)),
    ]
    pairs = 0
    for phi in maps:
        for _ in range(55):
            module = GradedFreeModule(phi.source, gu.random_shifts(rng, max_rank=4))
            f = gu.random_endo(rng, module, rng.choice([0, 1, 2]))
            pushed, after = base_change_trace(phi, f)
            assert pushed.value == after.value
            assert pushed.degree == after.degree
            pairs += 1
    assert pairs >= 200
    _passed(6, "base change commutes with trace")


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_criterion_7_engine_soundness():
    rng = random.Random(707)

    # Smith normal form: U * D * V rebuilds the input and U, V are unimodular
    for _ in range(80):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(mat)
        assert _mat_mul(_mat_mul(snf.U, snf.D), snf.V) == mat
        assert int_determinant(snf.U) in (1, -1)
        assert int_determinant(snf.V) in (1, -1)
        diag = snf.diagonal
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0

    # membership certificates recombine exactly, multivariate rings included
    for ring in gu.RING_POOL[:4]:
        for _ in range(25):
            module = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            columns = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(-2, 2)
                col = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in module.shifts]
                columns.append(module.coerce_vector(col))
            span = ColumnSpan(module, columns)
            k = rng.randint(-2, 2)
            v = module.coerce_vector(
                [gu.random_homogeneous(rng, ring, k + n, span=1) for n in module.shifts]
            )
            remainder, certificate = span.normal_form(v)
            rebuilt = list(remainder)
            for c, col in zip(certificate, columns):
                for i in range(module.rank):
                    rebuilt[i] = rebuilt[i] + c * col[i]
            assert tuple(rebuilt) == v
            if all(e.is_zero() for e in remainder):
                assert span.contains(v)

    # resolutions: consecutive differentials compose to zero and every
    # verification certificate checks out
    for index in range(12):
        ring = gu.THREE_KINDS[index % 3]
        module = gu.random_presented_module(rng, ring)
        res = resolve(module)
        verify_resolution(res)
        for j in range(len(res.maps) - 1):
            assert compose(res.maps[j], res.maps[j + 1]).is_zero()

    _passed(7, "engine soundness certificates")
