"""The categorical trace of a presented module through its resolution.

A resolution P_n -> ... -> P_0 with odd differentials is one free module
T = ⊕ P_j with one odd differential D, D∘D = 0, and a chain lift is one
endomorphism F = ⊕ f_j with D F = F D.  The dual T* has negated shifts and
the differential D*_(ji) = (-1)^(n_j) D_(ij); T ⊗ T* gets D ⊗ 1 + 1 ⊗ D*
through tensor_homs' Koszul sign.  Unit, counit, braiding and F ⊗ 1 are
then chain maps, and the literal composite counit ∘ braid ∘ (F ⊗ 1) ∘ unit
is the Hattori-Stallings trace.  Everything here is built from the
library's public maps; nothing in the library knows about complexes.
"""

import random

import pytest

from gradedtrace import (
    GradedMatrixHom,
    HomogeneityError,
    braiding,
    compose,
    direct_sum_homs,
    direct_sum_modules,
    hs_trace,
    identity_hom,
    lift_endomorphism,
    resolve,
    standard_duality,
    tensor_homs,
)

import genutils as gu


def _draws(ring):
    """(module endomorphism, resolution, lifts) for 12 seeded draws over ring,
    each module redrawn until it has a relation, so that D is never zero."""
    rng = random.Random(7)
    out = []
    for _ in range(12):
        module = gu.random_presented_module(rng, ring, max_rank=4, max_rels=3)
        while not module.relations.source.rank:
            module = gu.random_presented_module(rng, ring, max_rank=4, max_rels=3)
        endo = gu.random_module_endo(rng, module, rng.choice((0, 2)))
        res = resolve(module)
        out.append((endo, res, lift_endomorphism(res, endo)))
    return out


def _total(res, lifts):
    """T = ⊕ P_j, its differential D and F = ⊕ f_j."""
    modules, maps = res.modules, res.maps
    T = modules[0]
    for p in modules[1:]:
        T = direct_sum_modules(T, p)
    offsets = [0]
    for p in modules:
        offsets.append(offsets[-1] + p.rank)
    degree = maps[0].degree if maps else 1
    rows = [[T.ring.zero()] * T.rank for _ in range(T.rank)]
    for j, d in enumerate(maps):  # d_(j+1): P_(j+1) -> P_j
        assert d.degree == degree
        for i, row in enumerate(d.entries):
            rows[offsets[j] + i][offsets[j + 1] : offsets[j + 2]] = row
    D = GradedMatrixHom(T, T, degree, rows)
    F = lifts[0]
    for f in lifts[1:]:
        F = direct_sum_homs(F, f)
    return T, D, F


def _dual_differential(T, dual, D, sign):
    """D*_(ji) = sign(n_j) D_(ij) on the dual module."""
    rows = [[sign(T.shifts[j]) * D[i, j] for i in range(T.rank)] for j in range(T.rank)]
    return GradedMatrixHom(dual, dual, D.degree, rows)


def _koszul(n):
    return -1 if n % 2 else 1


def _failed_checks(endo, res, lifts, sign=_koszul):
    """The names of the chain checks that fail, and the literal composite."""
    T, D, F = _total(res, lifts)
    assert compose(D, D).is_zero()
    duality = standard_duality(T)
    dual = duality.dual
    Dstar = _dual_differential(T, dual, D, sign)
    one_t, one_dual = identity_hom(T), identity_hom(dual)
    # the total differentials of T ⊗ T* and of T* ⊗ T
    d_left = tensor_homs(D, one_dual) + tensor_homs(one_t, Dstar)
    d_right = tensor_homs(Dstar, one_t) + tensor_homs(one_dual, D)
    braid = braiding(T, dual)
    f_one = tensor_homs(F, one_dual)
    failed = set()
    if not compose(d_left, duality.unit).is_zero():
        failed.add("unit")
    if not compose(duality.counit, d_right).is_zero():
        failed.add("counit")
    if compose(braid, d_left) != compose(d_right, braid):
        failed.add("braiding")
    if compose(f_one, d_left) != compose(d_left, f_one):
        failed.add("F ⊗ 1")
    loop = compose(duality.counit, compose(braid, compose(f_one, duality.unit)))
    return failed, loop[0, 0]


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_the_composite_through_a_resolution_is_the_hs_trace(ring):
    for endo, res, lifts in _draws(ring):
        failed, value = _failed_checks(endo, res, lifts)
        assert not failed
        assert value == hs_trace(endo, res, lifts).value


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_a_plain_sign_on_the_dual_differential_fails_the_unit_check(ring):
    draws = _draws(ring)
    for plain in (1, -1):
        assert any("unit" in _failed_checks(*draw, sign=lambda n: plain)[0] for draw in draws)


@pytest.mark.parametrize("ring", gu.RING_POOL, ids=str)
def test_a_perturbed_lift_fails_the_f_tensor_one_check(ring):
    caught = 0
    for endo, res, lifts in _draws(ring):
        if len(lifts) < 2 or not lifts[1].source.rank:
            continue
        f1 = lifts[1]
        rows = [list(row) for row in f1.entries]
        rows[0][0] = rows[0][0] + 1
        try:
            bumped = [lifts[0], GradedMatrixHom(f1.source, f1.target, f1.degree, rows), *lifts[2:]]
        except HomogeneityError:  # 1 is not of the lift's degree
            continue
        assert "F ⊗ 1" in _failed_checks(endo, res, bumped)[0]
        caught += 1
    assert caught
