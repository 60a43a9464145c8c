"""Coefficient rings: arithmetic, grading, units, and ring maps."""

import random

import pytest

from gradedtrace import (
    ANY_DEGREE,
    GRADING_Z2,
    INHOMOGENEOUS,
    GradedFreeModule,
    HomogeneityError,
    RingElement,
    RingMap,
    RingMismatch,
    RingSpec,
    integers,
    laurent_ring,
    polynomial_ring,
)

from gradedtrace.rings import _EXPANSION_CAPS

import genutils as gu

Z = integers()
ZX = polynomial_ring(["x"], [2])
ZXY = polynomial_ring(["x", "y"], [2, 4])
ZL = laurent_ring(["t"], [0])
ZL2 = laurent_ring(["t"], [2])


def test_constants_and_equality():
    assert Z.const(5) == 5
    assert Z.const(0).is_zero()
    assert Z.zero() == 0
    assert Z.one() + Z.one() == Z.const(2)
    assert Z.const(3) != ZX.const(3)


def test_ringspec_validation():
    with pytest.raises(ValueError):
        RingSpec("integers", ("x",), (2,))
    with pytest.raises(ValueError):
        polynomial_ring([], [])
    with pytest.raises(ValueError):
        polynomial_ring(["x", "x"], [2, 2])
    with pytest.raises(ValueError):
        polynomial_ring(["x"], [3])
    with pytest.raises(ValueError):
        RingSpec("field")
    with pytest.raises(ValueError):
        integers("Z/3")


def test_polynomial_arithmetic():
    x = ZX.gen("x")
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert (x + 2) ** 3 == x**3 + 6 * x**2 + 12 * x + 8
    assert str(x**2 - 3 * x + 1) == "x^2 - 3*x + 1"


def test_negative_exponents_only_for_laurent():
    t = ZL.gen("t")
    assert t * t.unit_inverse() == 1
    with pytest.raises(ValueError):
        ZX.monomial((-1,))


def test_degrees():
    x, y = ZXY.gen("x"), ZXY.gen("y")
    assert (x * x).degree() == 4
    assert y.degree() == 4
    assert (x * x + y).degree() == 4
    assert (x + y).degree() is INHOMOGENEOUS
    assert ZXY.zero().degree() is ANY_DEGREE
    assert ZXY.zero().has_degree(17)
    assert (x + y).has_degree(2) is False
    t = ZL2.gen("t")
    assert t.unit_inverse().degree() == -2


def test_homogeneous_component():
    x, y = ZXY.gen("x"), ZXY.gen("y")
    p = x + y + x * x
    assert p.homogeneous_component(2) == x
    assert p.homogeneous_component(4) == y + x * x
    assert p.homogeneous_component(6).is_zero()


def test_mod2_grading_merges_degrees():
    ring = polynomial_ring(["x"], [2], GRADING_Z2)
    x = ring.gen("x")
    assert x.degree() == 0
    assert (x + 1).degree() == 0
    assert x.has_degree(2) and x.has_degree(0) and not x.has_degree(1)
    assert ring.degrees_match(5, -3)
    assert not ring.degrees_match(2, 3)


def test_units():
    t = ZL.gen("t")
    assert t.is_unit() and (-t).is_unit()
    assert (2 * t).is_unit() is False
    assert (t + 1).is_unit() is False
    assert ZX.one().is_unit() and ZX.const(-1).is_unit()
    assert ZX.gen("x").is_unit() is False
    with pytest.raises(ValueError):
        ZX.gen("x").unit_inverse()
    assert (t**3).unit_inverse() * t**3 == 1
    assert t ** (-2) == t.unit_inverse() ** 2


def _random_element(rng, ring):
    """A sum of homogeneous parts of two degrees."""
    total = ring.zero()
    for degree in rng.sample(range(-4, 5, 2), 2):
        total = total + gu.random_homogeneous(rng, ring, degree, span=2, max_terms=3)
    return total


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_arithmetic_results_are_clean_and_own_their_terms(ring):
    rng = random.Random(17)
    for _ in range(40):
        a, b = _random_element(rng, ring), _random_element(rng, ring)
        exp = tuple(rng.randint(-2, 2) if ring.kind == "laurent" else 0 for _ in range(ring.nvars))
        unit = ring.monomial(exp, rng.choice((1, -1)))
        results = [
            (a + b, (a, b)), (a - b, (a, b)), (a * b, (a, b)), (-a, (a,)),
            (a + -a, (a,)), (a * b - b * a, (a, b)), (a + 3, (a,)), (3 - a, (a,)), (2 * a, (a,)),
            (a**3, (a,)), (a.homogeneous_component(rng.randrange(-4, 5, 2)), (a,)),
            (unit.unit_inverse(), (unit,)), (unit**-2, (unit,)),
        ]
        for r, operands in results:
            assert r == RingElement(ring, r.terms())
            assert 0 not in r.terms().values()
            assert all(r._terms is not x._terms for x in operands)
        assert unit * unit.unit_inverse() == 1


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_a_constant_factor_scales_the_other_factor(ring):
    # The constant comes from an equal but distinct spec, so each product
    # shows whose ring it keeps: the left operand's.
    twin = RingSpec(ring.kind, ring.var_names, ring.var_degrees, ring.grading)
    rng = random.Random(23)
    for _ in range(40):
        a, c = _random_element(rng, ring), rng.randint(-3, 3)
        k = twin.const(c)
        want = RingElement(ring, {e: c * x for e, x in a.items()})
        for r, left in ((k * a, k), (a * k, a), (c * a, a), (a * c, a)):
            assert r == want
            assert r.ring is left.ring
            assert r._terms is not a._terms and r._terms is not k._terms


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatch):
        ZX.gen("x") + ZL.gen("t")


def test_a_constant_of_another_ring_is_refused():
    with pytest.raises(RingMismatch):
        integers().one() * ZX.gen("x")
    with pytest.raises(RingMismatch):
        ZX.gen("x") * integers().one()


def test_one_ring_object_skips_spec_comparison(monkeypatch):
    # Elements of one RingSpec object are checked by identity; an equal but
    # distinct spec still compares field by field.
    calls = []
    spec_eq = RingSpec.__eq__

    def counted(self, other):
        calls.append(other)
        return spec_eq(self, other)

    monkeypatch.setattr(RingSpec, "__eq__", counted)
    x, y = ZXY.gen("x"), ZXY.gen("y")
    s, p = x + y, x * y
    assert s == y + x and not s == p
    GradedFreeModule(ZXY, (0, 2)).coerce_vector([s, p])
    assert calls == []
    twin = polynomial_ring(["x", "y"], [2, 4])
    assert twin is not ZXY and twin.gen("x") + x == 2 * x
    assert calls


def test_ring_map_application():
    phi = RingMap(ZX, Z, (Z.zero(),))
    x = ZX.gen("x")
    assert phi(x**2 + 3 * x + 7) == Z.const(7)
    # substitution is a homomorphism
    rng = random.Random(3)
    psi = RingMap(ZX, ZXY, (ZXY.gen("x"),))
    for _ in range(20):
        a = gu.random_homogeneous(rng, ZX, rng.choice([0, 2, 4]))
        b = gu.random_homogeneous(rng, ZX, rng.choice([0, 2, 4]))
        assert psi(a * b) == psi(a) * psi(b)
        assert psi(a + b) == psi(a) + psi(b)


def test_ring_map_augmentation_t_to_1():
    phi = RingMap(ZL, Z, (Z.one(),))
    t = ZL.gen("t")
    assert phi(t**5 - 2 * t ** (-3) + 4) == Z.const(3)


def test_ring_map_degree_checks():
    # image of a degree-2 generator must be homogeneous of degree 2
    with pytest.raises(HomogeneityError):
        RingMap(ZX, ZXY, (ZXY.gen("y"),))
    # t + 1/t is legal only once the target grading is Z/2
    lz2 = laurent_ring(["t"], [2], GRADING_Z2)
    t = lz2.gen("t")
    RingMap(polynomial_ring(["x"], [2]), lz2, (t + t.unit_inverse(),))
    t_z = ZL2.gen("t")
    with pytest.raises(HomogeneityError):
        RingMap(polynomial_ring(["x"], [2]), ZL2, (t_z + t_z.unit_inverse(),))


def test_ring_map_grading_refinement_refused():
    z2 = integers(GRADING_Z2)
    with pytest.raises(ValueError):
        RingMap(polynomial_ring(["x"], [2], GRADING_Z2), ZX, (ZX.gen("x"),))
    # coarsening is fine
    RingMap(ZX, polynomial_ring(["x"], [2], GRADING_Z2),
            (polynomial_ring(["x"], [2], GRADING_Z2).gen("x"),))
    assert z2.grading == GRADING_Z2


def test_ring_map_refuses_an_image_past_the_expansion_caps():
    zs = polynomial_ring(["s"], [0])
    t = ZL.gen("t")
    phi = RingMap(zs, ZL, (t + t.unit_inverse(),))
    assert phi(zs.gen("s", 4)) == (t + t.unit_inverse()) ** 4
    refusal = "the image of {} expands past the caps: " + _EXPANSION_CAPS
    # (t + 1/t)^4000 passes the power caps
    with pytest.raises(ValueError) as err:
        phi(zs.gen("s", 4000))
    assert str(err.value) == refusal.format("s^4000")
    # each power fits, but a 65537-bit coefficient times 2 passes the product caps
    with pytest.raises(ValueError) as err:
        RingMap(zs, Z, (Z.const(2),))(zs.monomial((1,), 2**65536))
    assert str(err.value) == refusal.format("s^1")
    # a monomial image expands at any exponent
    assert RingMap(zs, ZL, (t,))(zs.gen("s", 32767)) == t**32767


def test_ring_map_laurent_needs_unit_images():
    with pytest.raises(ValueError):
        RingMap(ZL, ZL, (ZL.gen("t") + 1,))
    phi = RingMap(ZL, ZL, (ZL.gen("t").unit_inverse(),))
    t = ZL.gen("t")
    assert phi(t ** (-4)) == t**4


def test_printing_round_trip_forms():
    assert str(Z) == "Z"
    assert str(ZX) == "Z[x:2]"
    assert str(ZL) == "Z[t:0,t^-1]"
    assert str(laurent_ring(["t"], [2], GRADING_Z2)) == "Z[t:2,t^-1] mod2"
    assert str(ZX.zero()) == "0"
    assert str(-ZX.gen("x") ** 2) == "-x^2"
