"""Finitely presented graded modules, their maps, and free resolutions.

A presented module is the cokernel of a homogeneous relation map into a
graded free module of generators.  Maps between presented modules are given
by lifts on generators; construction checks that relations land in
relations, so every ModuleHom is honestly well defined.  Resolutions
iterate the syzygy functor until the kernel vanishes and certify their own
exactness; endomorphisms lift along them column by column, using membership
certificates from the solvers.

Relation columns follow one convention throughout: a homogeneous column of
module degree k is assigned generator shift (degree - k), so that the
packaged relation map is homogeneous of the stated degree (1 by default,
matching the syzygy maps produced by the solvers).
"""

from __future__ import annotations

from dataclasses import dataclass

from .freemod import (
    GradedFreeModule,
    GradedMatrixHom,
    Vector,
    compose,
    hom_from_columns,
    identity_hom,
)
from .rings import ANY_DEGREE, INHOMOGENEOUS, HomogeneityError, RingSpec
from .solvers import ColumnSpan, EngineError, column_span, prune_columns, syzygies


class ResolutionTooLong(RuntimeError):
    """Syzygies failed to vanish within the allowed number of steps."""


def relation_hom_from_columns(
    generators: GradedFreeModule, columns, degree: int = 1
) -> GradedMatrixHom:
    """Package relation columns as a homogeneous map of the given degree.

    Each nonzero column must be homogeneous; its source shift is forced by
    the degree convention.  Zero columns get shift 0.  The degree must be
    odd: shift parity then records the homological sign, which is what lets
    traces over a resolution sum without explicit alternation.
    """
    if degree % 2 == 0:
        raise ValueError("relation maps must have odd degree")
    cols = [generators.coerce_vector(c) for c in columns]
    shifts = []
    for idx, v in enumerate(cols):
        k = generators.vector_degree(v)
        if k is INHOMOGENEOUS:
            raise HomogeneityError(f"relation column {idx} is not homogeneous")
        if k is ANY_DEGREE:
            shifts.append(0)
        else:
            shifts.append(degree - k)
    source = GradedFreeModule(generators.ring, tuple(shifts))
    return hom_from_columns(source, generators, degree, cols)


class PresentedModule:
    """The cokernel of a relation map rho: ⊕R[s_c] -> ⊕R[n_i].

    Elements are represented by vectors in the generator module; reduce()
    rewrites a representative to its canonical normal form modulo the
    relation span, which is the span of the relation map's own columns.
    """

    __slots__ = ("generators", "relations")

    def __init__(self, generators: GradedFreeModule, relations: GradedMatrixHom):
        if relations.target != generators:
            raise ValueError("relations must map into the generator module")
        self.generators = generators
        self.relations = relations

    @property
    def ring(self) -> RingSpec:
        return self.generators.ring

    @property
    def span(self) -> ColumnSpan:
        return column_span(self.relations)

    def reduce(self, v) -> Vector:
        remainder, _ = self.span.normal_form(v)
        return remainder

    def is_zero_element(self, v) -> bool:
        return self.span.contains(v)

    def elements_equal(self, u, v) -> bool:
        u = self.generators.coerce_vector(u)
        v = self.generators.coerce_vector(v)
        return self.is_zero_element(tuple(a - b for a, b in zip(u, v)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentedModule):
            return NotImplemented
        return (
            self.generators == other.generators and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.relations))

    def __str__(self) -> str:
        return (
            f"coker({self.relations.source} -> {self.generators}, "
            f"{self.relations.source.rank} relations)"
        )

    def __repr__(self) -> str:
        return f"<PresentedModule {self}>"


def presented_module(
    ring: RingSpec, generator_shifts, relation_columns, relation_degree: int = 1
) -> PresentedModule:
    generators = GradedFreeModule(ring, tuple(generator_shifts))
    relations = relation_hom_from_columns(
        generators, relation_columns, relation_degree
    )
    return PresentedModule(generators, relations)


def free_presentation(free: GradedFreeModule) -> PresentedModule:
    empty = GradedFreeModule(free.ring, ())
    relations = hom_from_columns(empty, free, 1, [])
    return PresentedModule(free, relations)


def same_quotient(a: PresentedModule, b: PresentedModule) -> bool:
    """Same generators and mutually contained relation spans."""
    if a.generators != b.generators:
        return False
    return all(a.span.contains(c) for c in b.relations.columns()) and all(
        b.span.contains(c) for c in a.relations.columns()
    )


class ModuleHom:
    """A map of presented modules, given by a lift on generator modules.

    Construction verifies that the lift carries every source relation into
    the target relation span; two homs are equal iff their lifts agree on
    every generator modulo target relations.
    """

    __slots__ = ("source", "target", "lift")

    def __init__(
        self,
        source: PresentedModule,
        target: PresentedModule,
        lift: GradedMatrixHom,
        check: bool = True,
    ):
        if lift.source != source.generators:
            raise ValueError("lift source must be the source generator module")
        if lift.target != target.generators:
            raise ValueError("lift target must be the target generator module")
        if check:
            for j in range(source.relations.source.rank):
                image = lift.apply(source.relations.column(j))
                if not target.span.contains(image):
                    raise ValueError(
                        f"lift does not descend: image of relation {j} "
                        "is not in the target relation span"
                    )
        self.source = source
        self.target = target
        self.lift = lift

    @property
    def degree(self) -> int:
        return self.lift.degree

    @property
    def ring(self) -> RingSpec:
        return self.lift.ring

    def apply(self, v, reduce: bool = True) -> Vector:
        image = self.lift.apply(v)
        return self.target.reduce(image) if reduce else image

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleHom):
            return NotImplemented
        if (
            self.source != other.source
            or self.target != other.target
            or self.degree != other.degree
        ):
            return False
        diff = self.lift - other.lift
        return all(self.target.span.contains(c) for c in diff.columns())

    def __hash__(self) -> int:
        # Consistent with the coarse equality above only per (source, target,
        # degree); fine for the dict/set uses in this package.
        return hash((self.source, self.target, self.degree))

    def __add__(self, other: ModuleHom) -> ModuleHom:
        self._check_parallel(other)
        return ModuleHom(self.source, self.target, self.lift + other.lift, check=False)

    def __neg__(self) -> ModuleHom:
        return ModuleHom(self.source, self.target, -self.lift, check=False)

    def __sub__(self, other: ModuleHom) -> ModuleHom:
        self._check_parallel(other)
        return ModuleHom(self.source, self.target, self.lift - other.lift, check=False)

    def _check_parallel(self, other: ModuleHom) -> None:
        if self.source != other.source or self.target != other.target:
            raise ValueError("module homs must share source and target")
        if self.degree != other.degree:
            raise ValueError("module homs must have equal degree")

    def __str__(self) -> str:
        return f"ModuleHom degree {self.degree}: {self.source} -> {self.target}"

    def __repr__(self) -> str:
        return f"<{self}>"


def compose_module_homs(g: ModuleHom, f: ModuleHom) -> ModuleHom:
    if f.target != g.source:
        raise ValueError("cannot compose: inner modules differ")
    return ModuleHom(f.source, g.target, compose(g.lift, f.lift), check=False)


def identity_module_hom(module: PresentedModule) -> ModuleHom:
    return ModuleHom(module, module, identity_hom(module.generators), check=False)


def module_hom(
    source: PresentedModule, target: PresentedModule, degree: int, columns
) -> ModuleHom:
    lift = hom_from_columns(source.generators, target.generators, degree, columns)
    return ModuleHom(source, target, lift)


def kernel_of_hom(h: ModuleHom) -> list[Vector]:
    """Generators of {v : h(v) = 0}, as vectors in the source generators.

    Computed as the projection of the syzygies of the block [lift | target
    relations]; the result generates the full preimage of the target
    relation span, pruned to an irredundant list.
    """
    return _kernel_in_block(h, _block_span(h))


def _block_span(h: ModuleHom) -> ColumnSpan:
    """The span of the block [lift | target relations] in the target generators."""
    return ColumnSpan(h.target.generators, h.lift.columns() + h.target.relations.columns())


def _kernel_in_block(h: ModuleHom, block: ColumnSpan) -> list[Vector]:
    """kernel_of_hom(h), read off the span _block_span(h) returns."""
    s = h.source.generators.rank
    vectors: list[Vector] = []
    for vec in block.syzygy_vectors():
        v = h.source.generators.coerce_vector(vec[:s])
        if any(v):
            vectors.append(v)
    if vectors:
        vectors, _ = prune_columns(h.source.generators, vectors)
    return vectors


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


@dataclass
class Resolution:
    """P_n -> ... -> P_1 -> P_0 with coker(P_1 -> P_0) the resolved module.

    maps[i] is the differential modules[i+1] -> modules[i]; the augmentation
    P_0 -> module is the identity on generators.  Each map carries the one
    span of its columns (solvers.column_span): resolve builds it to take the
    map's kernel, and verify_resolution and lift_endomorphism read the same
    span.  resolve puts the module's relation map first, so that span is the
    module's own.
    """

    module: PresentedModule
    modules: list[GradedFreeModule]
    maps: list[GradedMatrixHom]

    @property
    def length(self) -> int:
        return len(self.maps)

    def __str__(self) -> str:
        chain = " -> ".join(str(m) for m in reversed(self.modules))
        return f"resolution of length {self.length}: {chain}"


def resolve(module: PresentedModule, max_length: int = 32) -> Resolution:
    """Iterate syzygies until the kernel vanishes.

    max_length bounds the number of syzygy steps: past it ResolutionTooLong
    is raised instead of looping forever.  It does not bound the work inside
    one step.  Over the integers a step is one reduced Hermite form per
    grading block, whose entries stay within the bound smith_normal_form
    states, 3 * N * log2(B * sqrt(N)) + 64 bits for N x N blocks with
    entries of size B; a kernel basis has no kernel, so the resolution has
    length at most 2.
    """
    modules = [module.generators]
    maps: list[GradedMatrixHom] = []
    if module.relations.source.rank:
        maps.append(module.relations)
        modules.append(module.relations.source)
        while True:
            nxt = syzygies(maps[-1])
            if nxt.source.rank == 0:
                break
            if len(maps) >= max_length:
                raise ResolutionTooLong(
                    f"no free resolution of length <= {max_length} found"
                )
            maps.append(nxt)
            modules.append(nxt.source)
    return Resolution(module, modules, maps)


def verify_resolution(res: Resolution) -> None:
    """Certify exactness; raises EngineError with a reason on failure.

    Checks: the first map spans the relations of the module, consecutive
    maps compose to zero (by multiplying them), every kernel generator of
    one map lies in the image of the next, and the last map has vanishing
    kernel.  The kernels and images come from each map's own span, the one
    resolve built from the same columns; a span is a deterministic function
    of its columns, so sharing it checks exactly what a rebuilt span would.
    """
    if not res.maps:
        if res.module.relations.source.rank:
            raise EngineError("resolution omits the relations of its module")
        return
    first = res.maps[0]
    rel = res.module.relations
    if first.target != rel.target:
        raise EngineError("resolution does not start at the generator module")
    image = column_span(first)
    # alternative resolutions may present the relation submodule differently;
    # only the column span must agree
    if not all(res.module.span.contains(c) for c in first.columns()) or not all(
        image.contains(c) for c in rel.columns()
    ):
        raise EngineError("first map does not span the relations of the module")
    for j in range(len(res.maps) - 1):
        if not compose(res.maps[j], res.maps[j + 1]).is_zero():
            raise EngineError(f"maps {j} and {j + 1} do not compose to zero")
    for j in range(len(res.maps)):
        kernel = [v for v in image.syzygy_vectors() if any(v)]
        if j + 1 < len(res.maps):
            image = column_span(res.maps[j + 1])
            for c in kernel:
                if not image.contains(c):
                    raise EngineError(
                        f"kernel of map {j} is not covered by map {j + 1}"
                    )
        elif kernel:
            raise EngineError("last map of the resolution has a nonzero kernel")


def lift_endomorphism(res: Resolution, endo: ModuleHom) -> list[GradedMatrixHom]:
    """Lift a module endomorphism to a chain endomorphism of the resolution.

    Returns [f_0, .., f_n] with f_0 the given lift on generators and
    d_j f_j = f_{j-1} d_j throughout.  Each column is solved by a membership
    certificate from the span the differential carries (the one resolve
    built) and projected to its forced homogeneous component, so the result
    is a legal graded map; failure to solve means the resolution is not
    exact and raises EngineError.
    """
    if endo.source != res.module or endo.target != res.module:
        raise ValueError("can only lift an endomorphism of the resolved module")
    d = endo.degree
    lifts = [endo.lift]
    for j, dj in enumerate(res.maps):
        pj = dj.source
        prev = lifts[-1]
        span = column_span(dj)
        cols = []
        for c in range(pj.rank):
            v = prev.apply(dj.column(c))
            remainder, cert = span.normal_form(v)
            if any(remainder):
                raise EngineError(
                    "endomorphism does not lift: image escapes the next "
                    "differential (resolution not exact?)"
                )
            x = pj.coerce_vector(cert)
            x = pj.vector_component(x, d - pj.shifts[c])
            cols.append(x)
        lifts.append(hom_from_columns(pj, pj, d, cols))
    return lifts


def verify_lift(res: Resolution, endo: ModuleHom, lifts: list[GradedMatrixHom]) -> None:
    """Check the chain-map equations exactly; raises EngineError on failure."""
    if len(lifts) != len(res.maps) + 1:
        raise EngineError("one chain map per resolution term required")
    # lifts may differ from endo.lift by something landing in the relations
    if ModuleHom(res.module, res.module, lifts[0]) != endo:
        raise EngineError("chain map does not induce the given endomorphism")
    for j, dj in enumerate(res.maps):
        if compose(dj, lifts[j + 1]) != compose(lifts[j], dj):
            raise EngineError(f"chain-map square {j} does not commute")


def perturb_lift(
    res: Resolution,
    lifts: list[GradedMatrixHom],
    homotopies: list[GradedMatrixHom | None],
) -> list[GradedMatrixHom]:
    """Add a null-homotopic correction: f_j + d_{j+1} s_j + s_{j-1} d_j.

    homotopies[j] maps modules[j] -> modules[j+1] (or None); the result is
    another valid chain lift of the same module endomorphism.
    """
    out = []
    for j in range(len(res.modules)):
        term = lifts[j]
        if j < len(res.maps) and homotopies[j] is not None:
            term = term + compose(res.maps[j], homotopies[j])
        if j >= 1 and homotopies[j - 1] is not None:
            term = term + compose(homotopies[j - 1], res.maps[j - 1])
        out.append(term)
    return out


# ---------------------------------------------------------------------------
# Presentation surgery (used to vary presentations without changing modules)
# ---------------------------------------------------------------------------


def add_redundant_generator(
    module: PresentedModule, expression
) -> tuple[PresentedModule, ModuleHom, ModuleHom]:
    """Adjoin a generator defined to equal `expression`.

    Returns (bigger module, inclusion, projection); the two maps are inverse
    isomorphisms, so endomorphisms transport as inc . f . proj.
    """
    ring = module.ring
    v = module.generators.coerce_vector(expression)
    k = module.generators.vector_degree(v)
    if k is INHOMOGENEOUS:
        raise HomogeneityError("the defining expression must be homogeneous")
    if k is ANY_DEGREE:
        k = 0
    delta = module.relations.degree
    gens2 = GradedFreeModule(ring, module.generators.shifts + (-k,))
    zero = ring.zero()
    old_cols = [tuple(col) + (zero,) for col in module.relations.columns()]
    defining = tuple(-e for e in v) + (ring.one(),)
    source2 = GradedFreeModule(
        ring, module.relations.source.shifts + (delta - k,)
    )
    relations2 = hom_from_columns(source2, gens2, delta, old_cols + [defining])
    bigger = PresentedModule(gens2, relations2)

    n = module.generators.rank
    inc_cols = [
        tuple(ring.one() if i == j else zero for i in range(n + 1))
        for j in range(n)
    ]
    inclusion = ModuleHom(
        module,
        bigger,
        hom_from_columns(module.generators, gens2, 0, inc_cols),
        check=False,
    )
    proj_cols = [module.generators.basis_vector(j) for j in range(n)] + [v]
    projection = ModuleHom(
        bigger,
        module,
        hom_from_columns(gens2, module.generators, 0, proj_cols),
    )
    return bigger, inclusion, projection


def with_extra_relations(module: PresentedModule, columns) -> PresentedModule:
    """Pad the presentation with relations already in the span (checked)."""
    extra = [module.generators.coerce_vector(c) for c in columns]
    for idx, c in enumerate(extra):
        if not module.span.contains(c):
            raise ValueError(f"column {idx} is not in the relation span")
    delta = module.relations.degree
    all_cols = module.relations.columns() + extra
    shifts = list(module.relations.source.shifts)
    for v in extra:
        k = module.generators.vector_degree(v)
        if k is INHOMOGENEOUS:
            raise HomogeneityError("extra relation columns must be homogeneous")
        shifts.append(0 if k is ANY_DEGREE else delta - k)
    source = GradedFreeModule(module.ring, tuple(shifts))
    relations = hom_from_columns(source, module.generators, delta, all_cols)
    return PresentedModule(module.generators, relations)
