"""Seeded random generators shared by the property tests.

Everything takes an explicit random.Random so failures reproduce exactly.
Generated objects satisfy the graded constraints by construction: matrix
entries are drawn from the homogeneous component the entry-degree law
forces, and unimodular conjugators are built from elementary operations
whose inverses are tracked alongside.
"""

from __future__ import annotations

import random

from gradedtrace import (
    ColumnSpan,
    GradedFreeModule,
    GradedMatrixHom,
    ModuleHom,
    PresentedModule,
    Resolution,
    ShortExactSequence,
    compose,
    direct_sum_homs,
    direct_sum_modules,
    free_presentation,
    hom_from_columns,
    identity_hom,
    kernel_of_hom,
    relation_hom_from_columns,
    zero_hom,
)
from gradedtrace.rings import (
    GRADING_Z2,
    INTEGERS,
    LAURENT,
    RingSpec,
    integers,
    laurent_ring,
    polynomial_ring,
)

RING_POOL: list[RingSpec] = [
    integers(),
    polynomial_ring(["x"], [2]),
    laurent_ring(["t"], [0]),
    polynomial_ring(["x", "y"], [2, 4]),
    integers(GRADING_Z2),
    laurent_ring(["t"], [2], GRADING_Z2),
]

THREE_KINDS: list[RingSpec] = [
    integers(),
    polynomial_ring(["x"], [2]),
    laurent_ring(["t"], [0]),
]


def monomials_of_degree(ring: RingSpec, degree: int, span: int = 2) -> list[tuple[int, ...]]:
    """Exponent tuples of term degree `degree`, exponents bounded by span."""
    if ring.kind == INTEGERS:
        return [()] if ring.degrees_match(0, degree) else []
    lo = -span if ring.kind == LAURENT else 0
    out: list[tuple[int, ...]] = []

    def rec(i: int, acc: list[int]) -> None:
        if i == ring.nvars:
            exp = tuple(acc)
            if ring.degrees_match(ring.term_degree(exp), degree):
                out.append(exp)
            return
        for e in range(lo, span + 1):
            rec(i + 1, acc + [e])

    rec(0, [])
    return out


def random_homogeneous(
    rng: random.Random,
    ring: RingSpec,
    degree: int,
    span: int = 2,
    coeff: int = 3,
    max_terms: int = 2,
):
    """A homogeneous element of the given degree; zero when none exists."""
    monos = monomials_of_degree(ring, degree, span)
    if not monos:
        return ring.zero()
    total = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff, coeff)
        if c:
            total = total + ring.monomial(rng.choice(monos), c)
    return total


def random_shifts(rng: random.Random, max_rank: int = 5, lo: int = -3, hi: int = 3) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(1, max_rank)))


def random_matrix(
    rng: random.Random,
    source: GradedFreeModule,
    target: GradedFreeModule,
    degree: int,
    density: float = 0.7,
    span: int = 1,
) -> GradedMatrixHom:
    ring = source.ring
    rows = []
    for i in range(target.rank):
        row = []
        for j in range(source.rank):
            want = target.shifts[i] - source.shifts[j] + degree
            if rng.random() < density:
                row.append(random_homogeneous(rng, ring, want, span=span))
            else:
                row.append(ring.zero())
        rows.append(row)
    return GradedMatrixHom(source, target, degree, rows)


def random_endo(rng: random.Random, module: GradedFreeModule, degree: int = 0) -> GradedMatrixHom:
    return random_matrix(rng, module, module, degree)


def random_unimodular(
    rng: random.Random, module: GradedFreeModule, ops: int = 6
) -> tuple[GradedMatrixHom, GradedMatrixHom]:
    """A degree-0 automorphism and its exact inverse.

    Built from elementary shears (homogeneous off-diagonal additions) and
    sign flips, so invertibility holds by construction over any ring.
    """
    ring = module.ring
    n = module.rank
    conj = identity_hom(module)
    inv = identity_hom(module)
    for _ in range(ops):
        if n >= 2 and rng.random() < 0.7:
            i, j = rng.sample(range(n), 2)
            r = random_homogeneous(rng, ring, module.shifts[i] - module.shifts[j], span=1)
            if r.is_zero():
                continue
            fwd = [
                [
                    ring.one() if a == b else (r if (a, b) == (i, j) else ring.zero())
                    for b in range(n)
                ]
                for a in range(n)
            ]
            bwd = [
                [
                    ring.one() if a == b else (-r if (a, b) == (i, j) else ring.zero())
                    for b in range(n)
                ]
                for a in range(n)
            ]
            step = GradedMatrixHom(module, module, 0, fwd)
            step_inv = GradedMatrixHom(module, module, 0, bwd)
        else:
            i = rng.randrange(n)
            rows = [
                [
                    (ring.const(-1) if a == i else ring.one()) if a == b else ring.zero()
                    for b in range(n)
                ]
                for a in range(n)
            ]
            step = GradedMatrixHom(module, module, 0, rows)
            step_inv = step
        conj = compose(step, conj)
        inv = compose(inv, step_inv)
    return conj, inv


def random_presented_module(
    rng: random.Random,
    ring: RingSpec,
    max_rank: int = 3,
    max_rels: int = 2,
) -> PresentedModule:
    shifts = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, max_rank)))
    generators = GradedFreeModule(ring, shifts)
    columns = []
    for _ in range(rng.randint(0, max_rels)):
        k = rng.randint(-2, 2)
        col = [random_homogeneous(rng, ring, k + n, span=1, max_terms=1) for n in shifts]
        if any(not e.is_zero() for e in col):
            columns.append(col)
    return PresentedModule(generators, relation_hom_from_columns(generators, columns, 1))


def random_module_endo(
    rng: random.Random, module: PresentedModule, degree: int = 0, attempts: int = 25
) -> ModuleHom:
    """An endomorphism of a presented module.

    Random lifts are tried first (many fail to descend when relations are
    tight); multiplication by a homogeneous scalar always descends and is
    the fallback.
    """
    gens = module.generators
    for _ in range(attempts):
        lift = random_matrix(rng, gens, gens, degree, density=0.5, span=1)
        try:
            return ModuleHom(module, module, lift)
        except ValueError:
            continue
    ring = module.ring
    c = random_homogeneous(rng, ring, degree, span=1)
    rows = [
        [c if i == j else ring.zero() for j in range(gens.rank)]
        for i in range(gens.rank)
    ]
    return ModuleHom(module, module, GradedMatrixHom(gens, gens, degree, rows))


def _extend_source(f: GradedMatrixHom, extra: GradedFreeModule) -> GradedMatrixHom:
    """[f | 0]: extra source summand mapping to zero."""
    ring = f.ring
    rows = [list(r) + [ring.zero()] * extra.rank for r in f.entries]
    return GradedMatrixHom(direct_sum_modules(f.source, extra), f.target, f.degree, rows)


def _extend_target(f: GradedMatrixHom, extra: GradedFreeModule) -> GradedMatrixHom:
    """[f ; 0]: extra target summand never hit."""
    ring = f.ring
    rows = [list(r) for r in f.entries]
    rows += [[ring.zero()] * f.source.rank for _ in range(extra.rank)]
    return GradedMatrixHom(f.source, direct_sum_modules(f.target, extra), f.degree, rows)


def padded_resolution(rng: random.Random, res: Resolution) -> Resolution:
    """A structurally different resolution of the same module.

    Splices the acyclic two-term complex T[1] --1--> T into a chosen spot
    j >= 1 (or stacks it above the top, joined by a zero map); exactness
    and the relation span are untouched, but ranks from spot j on change.
    """
    ring = res.module.ring
    t_shifts = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 2)))
    low = GradedFreeModule(ring, t_shifts)
    high = low.shifted(1)
    ident = GradedMatrixHom(
        high,
        low,
        1,
        [
            [ring.one() if i == j else ring.zero() for j in range(low.rank)]
            for i in range(low.rank)
        ],
    )
    maps = list(res.maps)
    n_maps = len(maps)
    j = rng.randint(1, n_maps + 1)
    if j == n_maps + 1:
        # stack the acyclic complex above the top, joined by a zero map
        maps += [zero_hom(low, res.modules[-1], 1), ident]
        return Resolution(res.module, maps)
    maps[j - 1] = _extend_source(maps[j - 1], low)
    if j < n_maps:
        maps[j] = direct_sum_homs(maps[j], ident)
        if j + 1 < n_maps:
            maps[j + 1] = _extend_target(maps[j + 1], high)
    else:
        # padded the top module: one extra step peels the new summand off
        padded = maps[j - 1].source
        rows = [[ring.zero()] * high.rank for _ in range(padded.rank - low.rank)]
        rows += [
            [ring.one() if i == k else ring.zero() for k in range(high.rank)]
            for i in range(low.rank)
        ]
        maps.append(GradedMatrixHom(high, padded, 1, rows))
    return Resolution(res.module, maps)


def random_stable_ses(
    rng: random.Random, ring: RingSpec, attempts: int = 10
) -> tuple[ShortExactSequence, ModuleHom, ModuleHom] | None:
    """A validated short exact sequence with a compatible endomorphism pair.

    The submodule is the orbit closure of random seed elements under a
    random middle endomorphism, so stability holds by construction; the
    left endomorphism is read off membership certificates.  Returns None
    when no attempt closes up (caller retries with fresh randomness).
    """
    for _ in range(attempts):
        middle = random_presented_module(rng, ring, max_rank=3, max_rels=2)
        f_middle = random_module_endo(rng, middle, degree=0)
        phi = f_middle.lift
        gens = middle.generators
        rel_cols = list(middle.relations.columns())

        seeds = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(-2, 2)
            col = [random_homogeneous(rng, ring, k + n, span=1, max_terms=1) for n in gens.shifts]
            v = gens.coerce_vector(col)
            if any(not e.is_zero() for e in v):
                seeds.append(v)
        if not seeds:
            continue

        def contained(v, cols) -> bool:
            return ColumnSpan(gens, list(cols) + rel_cols).contains(v)

        orbit: list = []
        work = list(seeds)
        steps = 0
        while work and steps < 14:
            steps += 1
            v = work.pop(0)
            if contained(v, orbit):
                continue
            orbit.append(v)
            work.append(phi.apply(v))
        if not orbit:
            continue
        if not all(contained(v, orbit) for v in work):
            continue

        shifts_a = []
        homogeneous = True
        for g in orbit:
            k = gens.vector_degree(g)
            if not isinstance(k, int):
                homogeneous = False
                break
            shifts_a.append(-k)
        if not homogeneous:
            continue

        try:
            a_free = GradedFreeModule(ring, tuple(shifts_a))
            a_lift = hom_from_columns(a_free, gens, 0, orbit)
            into_middle = ModuleHom(free_presentation(a_free), middle, a_lift)
            left_rels = kernel_of_hom(into_middle)
            left = PresentedModule(
                a_free, relation_hom_from_columns(a_free, left_rels, 1)
            )
            a = ModuleHom(left, middle, a_lift)

            sub_span = ColumnSpan(gens, orbit + rel_cols)
            fa_cols = []
            for idx, g in enumerate(orbit):
                remainder, cert = sub_span.normal_form(phi.apply(g))
                if any(not e.is_zero() for e in remainder):
                    raise ValueError("orbit failed to close")
                x = a_free.coerce_vector(cert[: len(orbit)])
                fa_cols.append(a_free.vector_component(x, -shifts_a[idx]))
            f_left = ModuleHom(
                left, left, hom_from_columns(a_free, a_free, 0, fa_cols)
            )

            right = PresentedModule(
                gens, relation_hom_from_columns(gens, orbit + rel_cols, 1)
            )
            b = ModuleHom(middle, right, identity_hom(gens))
            ses = ShortExactSequence(left, middle, right, a, b)
            ses.validate()
        except (ValueError, ArithmeticError):
            continue
        return ses, f_left, f_middle
    return None
