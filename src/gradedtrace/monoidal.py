"""Tensor products, braiding, duality, and the categorical trace.

Graded free modules form a symmetric monoidal category: tensor products
flatten row-major (so associativity and the unit are strict equalities of
modules), the braiding carries the Koszul sign (-1)^(deg a . deg b) on
homogeneous elements, and maps tensor with the sign

    (f ⊗ g)(x ⊗ y) = (-1)^(deg g . deg x) f(x) ⊗ g(y).

Every free module has a standard dual with unit and counit whose matrix
entries are all +1; the snake identities hold with those signs on the nose,
and all sign content of the categorical trace enters through the braiding.
The categorical trace of f is the scalar

    unit, then f ⊗ id on the dual, then braid, then counit,

and equals the signed diagonal sum computed by free_trace.

The identity, unit, counit and braiding take their entries from the ring's
shared one (RingSpec.one), so composing or tensoring with them hands the
other entries over instead of multiplying by 1.  The composite stays
literal: every structural map is still built and composed, only the
products by 1 are gone.  A zigzag factor through A ⊗ A* ⊗ A has r³ rows,
all but r² empty, and each empty one is freemod's shared row: a list slot.
A tensor module keeps its factors' shift tuples (freemod._TensorModule), which
composing and comparing modules never flatten, and snake - id drops its equal
entries unbuilt: a zigzag builds no r³ shift tuple and no ring element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freemod import (
    _EMPTY,
    GradedFreeModule,
    GradedMatrixHom,
    _TensorModule,
    compose,
    identity_hom,
)
from .rings import RingMismatch, RingSpec
from .trace import TraceValue


def unit_module(ring: RingSpec) -> GradedFreeModule:
    return GradedFreeModule(ring, (0,))


def tensor_modules(a: GradedFreeModule, b: GradedFreeModule) -> GradedFreeModule:
    if not (a.ring is b.ring or a.ring == b.ring):
        raise RingMismatch(f"{a.ring} is not {b.ring}")
    out = object.__new__(_TensorModule)
    out.__dict__.update(ring=a.ring, _factors=(a._factors or (a.shifts,)) + (b._factors or (b.shifts,)))
    return out


def tensor_homs(f: GradedMatrixHom, g: GradedMatrixHom) -> GradedMatrixHom:
    """f ⊗ g with the Koszul sign on each source generator.

    The generator e_j ⊗ e_l has x = e_j of module degree -shift_j, so the
    sign is (-1)^(deg g . source shift of f at j).  It is computed once per
    source column and carried by f[i, j], negated once per row of f.
    """
    source = tensor_modules(f.source, g.source)
    target = tensor_modules(f.target, g.target)
    rs_b = g.source.rank
    negate = [(g.degree * n) % 2 == 1 for n in f.source.shifts]
    one = f.ring.one() if f.ring is g.ring else None
    rows, empty = [], [_EMPTY] * len(g._rows)
    for f_row in f._rows:
        if not f_row:
            rows.extend(empty)
            continue
        signed = [(j * rs_b, -fij if negate[j] else fij) for j, fij in f_row.items()]
        for g_row in g._rows:
            if not g_row:
                rows.append(_EMPTY)
                continue
            row = {}
            for base, fij in signed:
                if fij is one:
                    for l, gkl in g_row.items():
                        row[base + l] = gkl
                    continue
                for l, gkl in g_row.items():
                    row[base + l] = fij if gkl is one else fij * gkl
            rows.append(row)
    return GradedMatrixHom._closed(source, target, f.degree + g.degree, rows)


def braiding(a: GradedFreeModule, b: GradedFreeModule) -> GradedMatrixHom:
    """The symmetry a ⊗ b -> b ⊗ a: e_i ⊗ e_k -> (-1)^(n_i m_k) e_k ⊗ e_i."""
    source = tensor_modules(a, b)
    target = tensor_modules(b, a)
    one = a.ring.one()
    minus = -one
    rows = [
        {i * b.rank + k: minus if (ni * mk) % 2 else one}
        for k, mk in enumerate(b.shifts)
        for i, ni in enumerate(a.shifts)
    ]
    return GradedMatrixHom._closed(source, target, 0, rows)


@dataclass(frozen=True)
class DualityData:
    """A module with a chosen dual, unit R -> A ⊗ A*, counit A* ⊗ A -> R."""

    module: GradedFreeModule
    dual: GradedFreeModule
    unit: GradedMatrixHom
    counit: GradedMatrixHom


def standard_duality(a: GradedFreeModule) -> DualityData:
    """The dual with negated shifts and all-ones unit and counit.

    unit sends 1 to sum_i e_i ⊗ e_i*; counit evaluates e_i* ⊗ e_k to
    delta_ik.  No signs appear here: both maps have degree 0 and the snake
    composites pick up no Koszul factors, as the zigzag check confirms.
    """
    ring = a.ring
    dual = GradedFreeModule(ring, tuple(-s for s in a.shifts))
    one = unit_module(ring)
    r = a.rank
    diagonal = {i * r + i: ring.one() for i in range(r)}
    unit_rows = [{0: diagonal[k]} if k in diagonal else _EMPTY for k in range(r * r)]
    unit = GradedMatrixHom._closed(one, tensor_modules(a, dual), 0, unit_rows)
    counit = GradedMatrixHom._closed(tensor_modules(dual, a), one, 0, [diagonal])
    return DualityData(a, dual, unit, counit)


def zigzag_defects(d: DualityData) -> tuple[GradedMatrixHom, GradedMatrixHom]:
    """Both snake composites minus the identity; zero iff the duality is valid.

    Tensoring with the unit module is a strict identity of modules here, so
    the composites land exactly on A -> A and A* -> A*.
    """
    a, astar = d.module, d.dual
    ida = identity_hom(a)
    idstar = identity_hom(astar)
    # A = 1 ⊗ A -> (A ⊗ A*) ⊗ A = A ⊗ (A* ⊗ A) -> A ⊗ 1 = A
    snake_a = compose(tensor_homs(ida, d.counit), tensor_homs(d.unit, ida))
    # A* = A* ⊗ 1 -> A* ⊗ (A ⊗ A*) = (A* ⊗ A) ⊗ A* -> 1 ⊗ A* = A*
    snake_star = compose(tensor_homs(d.counit, idstar), tensor_homs(idstar, d.unit))
    return snake_a - ida, snake_star - idstar


def zigzag_holds(d: DualityData) -> bool:
    defect_a, defect_star = zigzag_defects(d)
    return defect_a.is_zero() and defect_star.is_zero()


def categorical_trace(
    f: GradedMatrixHom, duality: DualityData | None = None
) -> TraceValue:
    """The scalar counit ∘ braid ∘ (f ⊗ id dual) ∘ unit.

    All sign content comes from the braiding; for the standard duality the
    result is sum_i (-1)^(n_i) f_ii, the same value free_trace computes by
    hand.
    """
    if f.source != f.target:
        raise ValueError("categorical trace needs an endomorphism")
    if duality is None:
        duality = standard_duality(f.source)
    if duality.module != f.source:
        raise ValueError("duality data is for a different module")
    loop = compose(
        duality.counit,
        compose(
            braiding(duality.module, duality.dual),
            compose(tensor_homs(f, identity_hom(duality.dual)), duality.unit),
        ),
    )
    return TraceValue(loop[0, 0], f.degree)


def euler_characteristic(a: GradedFreeModule) -> TraceValue:
    """Categorical trace of the identity: the signed rank as a scalar."""
    return categorical_trace(identity_hom(a))
