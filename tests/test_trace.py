"""Traces: free, projective, resolution-based, base change, and additivity."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtrace import (
    ColumnSpan,
    GradedFreeModule,
    GradedMatrixHom,
    ModuleHom,
    RingMap,
    ShortExactSequence,
    TraceValue,
    additivity_defect,
    base_change_commutes,
    base_change_trace,
    compose,
    compose_module_homs,
    free_presentation,
    free_trace,
    hs_trace,
    identity_hom,
    identity_module_hom,
    induced_quotient_endo,
    integers,
    laurent_ring,
    lift_endomorphism,
    module_hom,
    perturb_lift,
    polynomial_ring,
    presented_module,
    projective_trace,
    resolve,
    signed_rank,
)
from gradedtrace.rings import GRADING_Z2

import genutils as gu
import gradedtrace.modules as modules_impl
import gradedtrace.solvers as solvers_impl

Z = integers()
ZX = polynomial_ring(["x"], [2])
ZL = laurent_ring(["t"], [0])


# -- free traces ------------------------------------------------------------------


def test_free_trace_signs_frozen():
    m = GradedFreeModule(Z, (0, 1, 2, -1))
    f = GradedMatrixHom(
        m,
        m,
        0,
        [[3, 0, 0, 0], [0, 5, 0, 0], [0, 0, 7, 0], [0, 0, 0, 11]],
    )
    # signs by shift parity: + - + -
    assert free_trace(f).value == Z.const(3 - 5 + 7 - 11)
    assert free_trace(f).degree == 0


def test_free_trace_needs_endomorphism():
    a = GradedFreeModule(Z, (0,))
    b = GradedFreeModule(Z, (0, 0))
    with pytest.raises(ValueError):
        free_trace(GradedMatrixHom(a, b, 0, [[1], [0]]))


def test_signed_rank():
    assert signed_rank(GradedFreeModule(Z, (0, 1, 2, 3))) == 0
    assert signed_rank(GradedFreeModule(Z, (0, 2, 4))) == 3
    assert signed_rank(GradedFreeModule(Z, ())) == 0


def test_trace_degree_is_endo_degree():
    m = GradedFreeModule(ZX, (0, -2))
    x = ZX.gen("x")
    f = GradedMatrixHom(m, m, 2, [[x, 0], [1, x]])
    tv = free_trace(f)
    assert tv.degree == 2
    assert tv.value == x + x


def test_projective_trace_compresses():
    m = GradedFreeModule(Z, (0, 1))
    e = GradedMatrixHom(m, m, 0, [[1, 0], [0, 0]])
    f = GradedMatrixHom(m, m, 0, [[4, 0], [0, 9]])
    assert projective_trace(e, f).value == Z.const(4)
    not_idem = GradedMatrixHom(m, m, 0, [[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        projective_trace(not_idem, f)


def test_free_trace_is_conjugation_invariant():
    rng = random.Random(2)
    for ring in gu.THREE_KINDS:
        for _ in range(30):
            m = GradedFreeModule(ring, gu.random_shifts(rng))
            f = gu.random_endo(rng, m, rng.choice([-1, 0, 1, 2]))
            c, cinv = gu.random_unimodular(rng, m)
            assert free_trace(compose(c, compose(f, cinv))).value == free_trace(f).value


def test_free_trace_shift_sign_law():
    rng = random.Random(6)
    for ring in gu.THREE_KINDS:
        for _ in range(30):
            m = GradedFreeModule(ring, gu.random_shifts(rng))
            f = gu.random_endo(rng, m, rng.choice([0, 1, 2]))
            n = rng.randint(-3, 3)
            shifted = GradedMatrixHom(m.shifted(n), m.shifted(n), f.degree, f.entries)
            expect = free_trace(f).value
            got = free_trace(shifted).value
            assert got == (expect if n % 2 == 0 else -expect)


# -- resolution traces ---------------------------------------------------------------


def test_hs_trace_identity_of_torsion_is_zero():
    # coker(Z --2--> Z): the two chain terms cancel by shift parity
    m = presented_module(Z, [0], [[2]])
    assert hs_trace(identity_module_hom(m)).value.is_zero()


def test_hs_trace_multiplication_on_dual_numbers():
    m = presented_module(ZX, [0], [[ZX.gen("x") ** 2]])
    x = ZX.gen("x")
    f = module_hom(m, m, 2, [[x]])
    # lift on P_0 contributes x; on P_1 the induced entry is x with odd
    # shift, contributing -x; total zero
    assert hs_trace(f).value.is_zero()
    assert hs_trace(f).degree == 2


def test_hs_trace_free_module_reduces_to_free_trace():
    rng = random.Random(8)
    for ring in gu.THREE_KINDS:
        for _ in range(15):
            free = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=4))
            module = free_presentation(free)
            f = gu.random_endo(rng, free, 0)
            endo = ModuleHom(module, module, f)
            assert hs_trace(endo).value == free_trace(f).value


def test_hs_trace_invariant_across_resolutions_and_lifts():
    rng = random.Random(12)
    for ring in gu.THREE_KINDS:
        for _ in range(10):
            module = gu.random_presented_module(rng, ring)
            f = gu.random_module_endo(rng, module)
            res = resolve(module)
            base = hs_trace(f, res).value
            padded = gu.padded_resolution(rng, res)
            assert hs_trace(f, padded).value == base
            lifts = lift_endomorphism(res, f)
            homotopies = [
                gu.random_matrix(
                    rng, res.modules[j], res.modules[j + 1], f.degree - 1
                )
                for j in range(res.length)
            ]
            perturbed = perturb_lift(res, lifts, homotopies)
            assert hs_trace(f, res, perturbed).value == base


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ring=st.sampled_from(gu.RING_POOL), rng=st.randoms(use_true_random=False))
def test_hs_trace_reads_the_same_value_off_the_stages_as_off_the_lift_matrices(ring, rng):
    # a scalar plus a lift landing in the relations, as the lift golden table
    # draws them, so that the chain lifts are not all scalars
    module = gu.random_presented_module(rng, ring, max_rank=4, max_rels=3)
    gens, rel = module.generators, module.relations
    y = gu.random_matrix(rng, gens, rel.source, -rel.degree, density=0.6, span=1)
    scalar = ring.const(rng.randint(-3, 3))
    lift = GradedMatrixHom(gens, gens, 0, [[scalar if i == j else 0 for j in range(gens.rank)] for i in range(gens.rank)])
    endo = ModuleHom(module, module, lift + compose(rel, y))
    res = resolve(module)
    assert hs_trace(endo, resolution=res) == hs_trace(endo, resolution=res, lifts=lift_endomorphism(res, endo))
    other = free_presentation(GradedFreeModule(ring, gens.shifts + (0,)))
    with pytest.raises(ValueError, match="can only lift an endomorphism of the resolved module"):
        hs_trace(identity_module_hom(other), resolution=res)


def test_hs_trace_laurent_weight():
    # multiplication by t on R/(t-1)^2 has trace 2t - t^2 + extra cancellation
    t = ZL.gen("t")
    m = presented_module(ZL, [0], [[(t - 1) ** 2]])
    f = module_hom(m, m, 0, [[t]])
    value = hs_trace(f).value
    # frozen: lift on P_0 is t, on P_1 is t (odd shift, negated): total 0
    assert value == t - t


# -- base change -----------------------------------------------------------------------


def test_base_change_augmentation_frozen():
    t = ZL.gen("t")
    m = GradedFreeModule(ZL, (0, 0))
    f = GradedMatrixHom(m, m, 0, [[t, 0], [1 - t, t ** (-1)]])
    phi = RingMap(ZL, Z, (Z.one(),))
    pushed, after = base_change_trace(phi, f)
    assert pushed.value == Z.const(2)
    assert after.value == Z.const(2)


def test_base_change_restriction_frozen():
    lz2 = laurent_ring(["t"], [2], GRADING_Z2)
    t = lz2.gen("t")
    phi = RingMap(ZX, lz2, (t + t.unit_inverse(),))
    m = GradedFreeModule(ZX, (0, -2))
    x = ZX.gen("x")
    f = GradedMatrixHom(m, m, 2, [[x, 0], [1, x]])
    pushed, after = base_change_trace(phi, f)
    expect = (t + t.unit_inverse()) * 2
    assert pushed.value == expect
    assert after.value == expect
    assert pushed.degree == 0  # degree 2 reduced into Z/2


def test_base_change_commutes_randomized():
    rng = random.Random(19)
    lz2 = laurent_ring(["t"], [2], GRADING_Z2)
    t = lz2.gen("t")
    maps = [
        RingMap(ZL, Z, (Z.one(),)),
        RingMap(ZX, Z, (Z.zero(),)),
        RingMap(ZX, lz2, (t + t.unit_inverse(),)),
        RingMap(ZL, ZL, (ZL.gen("t").unit_inverse(),)),
    ]
    for phi in maps:
        for _ in range(25):
            m = GradedFreeModule(phi.source, gu.random_shifts(rng, max_rank=4))
            f = gu.random_endo(rng, m, rng.choice([0, 1, 2]))
            assert base_change_commutes(phi, f)


# -- additivity over short exact sequences ------------------------------------------------


def _ses_z_mult2():
    # 0 -> Z --2--> Z -> Z/2 -> 0 with identity endomorphisms
    left = free_presentation(GradedFreeModule(Z, (0,)))
    middle = free_presentation(GradedFreeModule(Z, (0,)))
    right = presented_module(Z, [0], [[2]])
    a = module_hom(left, middle, 0, [[2]])
    b = module_hom(middle, right, 0, [[1]])
    ses = ShortExactSequence(left, middle, right, a, b)
    return ses, identity_module_hom(left), identity_module_hom(middle)


def _ses_mod2_mod4():
    # 0 -> Z/2 --2--> Z/4 -> Z/2 -> 0, non split
    left = presented_module(Z, [0], [[2]])
    middle = presented_module(Z, [0], [[4]])
    right = presented_module(Z, [0], [[2]])
    a = module_hom(left, middle, 0, [[2]])
    b = module_hom(middle, right, 0, [[1]])
    ses = ShortExactSequence(left, middle, right, a, b)
    return ses, identity_module_hom(left), identity_module_hom(middle)


def _ses_dual_numbers():
    # 0 -> Z[x]/(x) --x--> Z[x]/(x^2) -> Z[x]/(x) -> 0, non split over Z[x]
    x = ZX.gen("x")
    left = presented_module(ZX, [-2], [[x]])
    middle = presented_module(ZX, [0], [[x * x]])
    right = presented_module(ZX, [0], [[x]])
    a = module_hom(left, middle, 0, [[x]])
    b = module_hom(middle, right, 0, [[1]])
    ses = ShortExactSequence(left, middle, right, a, b)
    return ses, identity_module_hom(left), identity_module_hom(middle)


def _ses_laurent_jordan():
    # 0 -> R/(t-1) --(t-1)--> R/(t-1)^2 -> R/(t-1) -> 0 with f = mult by t
    t = ZL.gen("t")
    left = presented_module(ZL, [0], [[t - 1]])
    middle = presented_module(ZL, [0], [[(t - 1) ** 2]])
    right = presented_module(ZL, [0], [[t - 1]])
    a = module_hom(left, middle, 0, [[t - 1]])
    b = module_hom(middle, right, 0, [[1]])
    ses = ShortExactSequence(left, middle, right, a, b)
    f_left = module_hom(left, left, 0, [[t]])
    f_middle = module_hom(middle, middle, 0, [[t]])
    return ses, f_left, f_middle


FIXED_SEQUENCES = [_ses_z_mult2, _ses_mod2_mod4, _ses_dual_numbers, _ses_laurent_jordan]


@pytest.mark.parametrize("make", FIXED_SEQUENCES, ids=lambda f: f.__name__.strip("_"))
def test_additivity_on_fixed_sequences(make):
    ses, f_left, f_middle = make()
    report = additivity_defect(ses, f_left, f_middle)
    assert report.holds()
    assert report.defect.is_zero()


@pytest.mark.parametrize("make", FIXED_SEQUENCES, ids=lambda f: f.__name__.strip("_"))
def test_validated_preimages_are_no_part_of_a_sequences_value(make):
    ses, other = make()[0], make()[0]
    object.__setattr__(other, "preimages", None)
    assert ses == other and repr(ses) == repr(other)
    parts = ses.left, ses.middle, ses.right, ses.a, ses.b
    with pytest.raises(TypeError):
        ShortExactSequence(*parts, preimages=ses.preimages)


@pytest.mark.parametrize("make", FIXED_SEQUENCES, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("name", ["a", "b", "left", "preimages"])
def test_a_certified_sequence_cannot_be_reassigned(make, name):
    ses = make()[0]
    before = getattr(ses, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ses, name, None)
    assert getattr(ses, name) is before


def test_a_presented_modules_relations_cannot_be_reassigned():
    module = presented_module(Z, [0], [[2]])
    rel = module.relations
    with pytest.raises(AttributeError):
        module.relations = presented_module(Z, [0], [[3]]).relations
    assert module.relations is rel


def test_additivity_defect_values_frozen():
    ses, f_left, f_middle = _ses_z_mult2()
    report = additivity_defect(ses, f_left, f_middle)
    assert report.left.value == Z.one()
    assert report.middle.value == Z.one()
    assert report.right.value.is_zero()


def test_induced_endo_on_quotient():
    ses, _, _ = _ses_z_mult2()
    f_middle = module_hom(ses.middle, ses.middle, 0, [[3]])
    induced = induced_quotient_endo(ses, f_middle)
    # multiplication by 3 on Z/2 equals the identity
    assert induced == identity_module_hom(ses.right)


def test_additivity_rejects_incompatible_pair():
    ses, _, f_middle = _ses_mod2_mod4()
    wrong = module_hom(ses.left, ses.left, 0, [[0]])
    with pytest.raises(ValueError):
        additivity_defect(ses, wrong, f_middle)


def test_validate_rejects_non_exact():
    left = free_presentation(GradedFreeModule(Z, (0,)))
    middle = free_presentation(GradedFreeModule(Z, (0,)))
    right = presented_module(Z, [0], [[4]])
    a = module_hom(left, middle, 0, [[2]])
    b = module_hom(middle, right, 0, [[1]])
    # image of a is 2Z but the kernel of b is 4Z: b∘a is not zero in Z/4
    with pytest.raises(ValueError):
        ShortExactSequence(left, middle, right, a, b)


def _ses_kernel_escapes():
    # a = 4: Z -> Z, b: Z -> Z/2; the kernel 2Z of b is not the image 4Z
    left = free_presentation(GradedFreeModule(Z, (0,)))
    middle = free_presentation(GradedFreeModule(Z, (0,)))
    right = presented_module(Z, [0], [[2]])
    a = module_hom(left, middle, 0, [[4]])
    b = module_hom(middle, right, 0, [[1]])
    return (left, middle, right, a, b), "kernel of b escapes"


def _ses_b_misses_a_generator():
    # b: Z -> Z^2 hits the first generator and misses the second
    left = free_presentation(GradedFreeModule(Z, ()))
    middle = free_presentation(GradedFreeModule(Z, (0,)))
    right = free_presentation(GradedFreeModule(Z, (0, 0)))
    a = module_hom(left, middle, 0, [])
    b = module_hom(middle, right, 0, [[1, 0]])
    return (left, middle, right, a, b), "misses generator 1"


def _ses_a_not_injective():
    # a = 1: Z -> Z/2 sends 2 to the relation 2 of the middle module, but 2 is not 0 in Z
    left = free_presentation(GradedFreeModule(Z, (0,)))
    middle = presented_module(Z, [0], [[2]])
    right = free_presentation(GradedFreeModule(Z, ()))
    a = module_hom(left, middle, 0, [[1]])
    b = module_hom(middle, right, 0, [[]])
    return (left, middle, right, a, b), "a is not injective"


@pytest.mark.parametrize(
    "make", [_ses_kernel_escapes, _ses_b_misses_a_generator, _ses_a_not_injective], ids=lambda f: f.__name__.strip("_")
)
def test_a_failed_validate_leaves_no_preimages_behind(make):
    # the constructor refuses a sequence that is not exact, so none exists without its section
    parts, reason = make()
    with pytest.raises(ValueError, match=reason):
        ShortExactSequence(*parts)


def _refusals():
    """Each refusal message of the trace module's entry points, with a call that raises it."""
    x = ZX.gen("x")
    m, m2 = GradedFreeModule(ZX, (0,)), GradedFreeModule(ZX, (0, 0))
    ses, f_left, f_middle = _ses_dual_numbers()
    parts = ses.left, ses.middle, ses.right
    free = free_presentation(m)
    onto = module_hom(free, ses.right, 0, [[1]])
    return {
        "the idempotent must be an endomorphism": lambda: projective_trace(GradedMatrixHom(m, m2, 0, [[1], [0]]), identity_hom(m)),
        "the idempotent must have degree 0": lambda: projective_trace(GradedMatrixHom(m, m, 2, [[x]]), identity_hom(m)),
        "f must be an endomorphism of the idempotent's module": lambda: projective_trace(identity_hom(m), identity_hom(m2)),
        "trace needs an endomorphism": lambda: hs_trace(onto),
        "lifts without their resolution are ambiguous": lambda: hs_trace(f_left, lifts=[f_left.lift]),
        "a must map left -> middle": lambda: ShortExactSequence(*parts, ses.b, ses.b),
        "b must map middle -> right": lambda: ShortExactSequence(*parts, ses.a, ses.a),
        "short exact sequences use degree-0 maps": lambda: ShortExactSequence(free, free, ses.right, module_hom(free, free, 2, [[x]]), onto),
        "f_middle must be an endomorphism of the middle module": lambda: induced_quotient_endo(ses, identity_module_hom(ses.right)),
        "f_left must be an endomorphism of the left module": lambda: additivity_defect(ses, identity_module_hom(ses.right), f_middle),
        "the two endomorphisms must have equal degree": lambda: additivity_defect(ses, f_left, module_hom(ses.middle, ses.middle, 2, [[x]])),
    }


@pytest.mark.parametrize("message", list(_refusals()))
def test_each_refusal_names_its_reason(message):
    with pytest.raises(ValueError) as err:
        _refusals()[message]()
    assert str(err.value) == message


def test_random_stable_sequences_have_zero_defect():
    rng = random.Random(33)
    produced = 0
    for ring in gu.THREE_KINDS:
        for _ in range(6):
            out = gu.random_stable_ses(rng, ring)
            if out is None:
                continue
            ses, f_left, f_middle = out
            report = additivity_defect(ses, f_left, f_middle)
            assert report.holds()
            # the right square commutes by construction, so additivity_defect does not check it
            f_right = induced_quotient_endo(ses, f_middle)
            assert compose_module_homs(f_right, ses.b) == compose_module_homs(ses.b, f_middle)
            produced += 1
    assert produced >= 10


def test_validate_builds_one_span_per_block(monkeypatch):
    out = gu.random_stable_ses(random.Random(33), ZX)
    assert out is not None
    ses = out[0]
    built = []
    span_init = ColumnSpan.__init__

    def counting_init(span, ambient, columns):
        built.append(len(columns))
        span_init(span, ambient, columns)

    # the modules' relation spans were built when the sequence was first certified
    monkeypatch.setattr(ColumnSpan, "__init__", counting_init)
    ShortExactSequence(ses.left, ses.middle, ses.right, ses.a, ses.b)
    blocks = [
        ses.a.lift.source.rank + ses.middle.relations.source.rank,
        ses.b.lift.source.rank + ses.right.relations.source.rank,
    ]
    assert built == blocks


def test_validate_prunes_no_kernel(monkeypatch):
    # certifying only tests kernel generators, so pruning them buys nothing
    rng = random.Random(33)
    built = [gu.random_stable_ses(rng, ring) for ring in gu.THREE_KINDS for _ in range(3)]
    sequences = [out[0] for out in built if out is not None]
    calls = []
    for module in (modules_impl, solvers_impl):
        prune = module.prune_columns
        monkeypatch.setattr(module, "prune_columns", lambda *args, prune=prune: calls.append(args) or prune(*args))
    for ses in sequences:
        ShortExactSequence(ses.left, ses.middle, ses.right, ses.a, ses.b)
    assert len(sequences) >= 6 and calls == []


def test_preimages_are_a_degree_zero_section_of_b():
    rng = random.Random(41)
    drawn = [gu.random_stable_ses(rng, ring) for ring in gu.THREE_KINDS for _ in range(20)]
    sequences = [make()[0] for make in FIXED_SEQUENCES] + [out[0] for out in drawn if out is not None]
    assert len(sequences) >= 50
    for ses in sequences:
        section = ses.preimages
        right = ses.right.generators
        assert isinstance(section, GradedMatrixHom)
        assert (section.source, section.target, section.degree) == (right, ses.middle.generators, 0)
        # b . section is the identity on the right module: the difference lies in its relations
        assert ses.right.span.first_outside(compose(ses.b.lift, section) - identity_hom(right)) is None


def test_additivity_builds_no_map_through_the_checking_constructor(monkeypatch):
    rng = random.Random(33)
    drawn = [gu.random_stable_ses(rng, ring) for ring in gu.THREE_KINDS for _ in range(3)]
    cases = [make() for make in FIXED_SEQUENCES] + [out for out in drawn if out is not None]
    built = []
    init = GradedMatrixHom.__init__

    def counting_init(hom, *args):
        built.append(args)
        init(hom, *args)

    monkeypatch.setattr(GradedMatrixHom, "__init__", counting_init)
    for ses, f_left, f_middle in cases:
        # certify again under the counter
        ses = ShortExactSequence(ses.left, ses.middle, ses.right, ses.a, ses.b)
        assert additivity_defect(ses, f_left, f_middle).holds()
    assert len(cases) >= 10 and built == []


def test_mod2_graded_ring_traces():
    ring = integers(GRADING_Z2)
    m = GradedFreeModule(ring, (0, 1))
    f = GradedMatrixHom(m, m, 0, [[5, 0], [0, 7]])
    assert free_trace(f).value == ring.const(-2)


# -- linearity: sums, differences and negatives of module endomorphisms -------------


def test_hs_trace_is_linear():
    rng = random.Random(5)
    for ring in gu.THREE_KINDS:
        for _ in range(8):
            m = gu.random_presented_module(rng, ring)
            degree = rng.choice([0, 2])
            f = gu.random_module_endo(rng, m, degree)
            g = gu.random_module_endo(rng, m, degree)
            tf, tg = hs_trace(f).value, hs_trace(g).value
            assert hs_trace(f + g) == TraceValue(tf + tg, degree)
            assert hs_trace(f - g) == TraceValue(tf - tg, degree)
            assert hs_trace(-f) == TraceValue(-tf, degree)


def test_module_homs_add_only_in_parallel():
    m = presented_module(Z, [0], [[2]])
    f = identity_module_hom(m)
    other = identity_module_hom(presented_module(Z, [0], [[4]]))
    shifted = module_hom(m, m, 2, [[0]])
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError) as err:
            combine(f, other)
        assert str(err.value) == "module homs must share source and target"
        with pytest.raises(ValueError) as err:
            combine(f, shifted)
        assert str(err.value) == "module homs must have equal degree"
