"""Finitely presented graded modules, their maps, and free resolutions.

A presented module is the cokernel of a homogeneous relation map into a
graded free module of generators.  Maps between presented modules are given
by lifts on generators; construction checks that relations land in
relations, so every ModuleHom is honestly well defined.  Sums, composites
and identities descend by construction and build through the unchecked
ModuleHom._closed; the public constructor always checks.  Resolutions
iterate the syzygy functor until the kernel vanishes and certify their own
exactness; endomorphisms lift along them column by column, using membership
certificates from the solvers.  Lifts from outside columns validate through
hom_from_columns; relation maps, syzygy maps and chain lifts are legal by
construction and build unchecked, and verify_resolution and verify_lift
certify them.

Relation columns follow freemod._relation_shifts: a homogeneous column of
module degree k gets source shift (degree - k), so the relation map is
homogeneous of the stated degree (1 by default, like the syzygy maps).  That
degree must be odd, so that shift parity records the homological sign and
traces over a resolution sum without alternation: PresentedModule, which
every presented module passes through, and Resolution refuse an even one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freemod import (
    GradedFreeModule,
    GradedMatrixHom,
    Vector,
    _from_columns,
    _relation_shifts,
    compose,
    hom_from_columns,
    identity_hom,
    zero_hom,
)
from .rings import ANY_DEGREE, INHOMOGENEOUS, HomogeneityError, RingSpec
from .solvers import ColumnSpan, EngineError, column_span, prune_columns, syzygies


class ResolutionTooLong(RuntimeError):
    """Syzygies failed to vanish within the allowed number of steps."""


def relation_hom_from_columns(
    generators: GradedFreeModule, columns, degree: int = 1
) -> GradedMatrixHom:
    """Package relation columns as a homogeneous map of the given degree.

    Each column is coerced once and must be homogeneous; its source shift
    follows freemod._relation_shifts, so the map builds unchecked.  An even
    degree is refused by PresentedModule, not here.
    """
    cols = [generators.coerce_vector(c) for c in columns]
    source = GradedFreeModule(generators.ring, _relation_shifts(generators, cols, degree))
    return _from_columns(source, generators, degree, cols)


class PresentedModule:
    """The cokernel of a relation map rho: ⊕R[s_c] -> ⊕R[n_i].

    Elements are represented by vectors in the generator module; reduce()
    rewrites a representative to its canonical normal form modulo the
    relation span, which is the span of the relation map's own columns.
    The relation map must have odd degree (the resolution convention).
    """

    __slots__ = ("generators", "relations")

    def __init__(self, generators: GradedFreeModule, relations: GradedMatrixHom):
        if relations.target != generators:
            raise ValueError("relations must map into the generator module")
        if relations.degree % 2 == 0:
            raise ValueError("relation maps must have odd degree")
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
    relations = relation_hom_from_columns(generators, relation_columns, relation_degree)
    return PresentedModule(generators, relations)


def free_presentation(free: GradedFreeModule) -> PresentedModule:
    return PresentedModule(free, zero_hom(GradedFreeModule(free.ring, ()), free, 1))


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

    def __init__(self, source: PresentedModule, target: PresentedModule, lift: GradedMatrixHom):
        if lift.source != source.generators:
            raise ValueError("lift source must be the source generator module")
        if lift.target != target.generators:
            raise ValueError("lift target must be the target generator module")
        for j, image in enumerate(compose(lift, source.relations).columns()):
            if not target.span.contains(image):
                raise ValueError(
                    f"lift does not descend: image of relation {j} "
                    "is not in the target relation span"
                )
        self.source = source
        self.target = target
        self.lift = lift

    @classmethod
    def _closed(cls, source: PresentedModule, target: PresentedModule, lift) -> ModuleHom:
        """The map lifted by lift, unchecked: it descends by construction."""
        hom = object.__new__(cls)
        hom.source, hom.target, hom.lift = source, target, lift
        return hom

    @property
    def degree(self) -> int:
        return self.lift.degree

    @property
    def ring(self) -> RingSpec:
        return self.lift.ring

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
        return ModuleHom._closed(self.source, self.target, self.lift + other.lift)

    def __neg__(self) -> ModuleHom:
        return ModuleHom._closed(self.source, self.target, -self.lift)

    def __sub__(self, other: ModuleHom) -> ModuleHom:
        self._check_parallel(other)
        return ModuleHom._closed(self.source, self.target, self.lift - other.lift)

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
    return ModuleHom._closed(f.source, g.target, compose(g.lift, f.lift))


def identity_module_hom(module: PresentedModule) -> ModuleHom:
    return ModuleHom._closed(module, module, identity_hom(module.generators))


def module_hom(
    source: PresentedModule, target: PresentedModule, degree: int, columns
) -> ModuleHom:
    lift = hom_from_columns(source.generators, target.generators, degree, columns)
    return ModuleHom(source, target, lift)


def kernel_of_hom(h: ModuleHom) -> list[Vector]:
    """Generators of {v : h(v) = 0}, as vectors in the source generators.

    The syzygies of the block [lift | target relations], projected to the
    lift's part, generate the full preimage of the target relation span;
    they are returned pruned to an irredundant list (prune_columns).
    """
    s = h.source.generators.rank
    vectors = [vec[:s] for vec in _block_span(h).syzygy_vectors() if any(vec[:s])]
    return prune_columns(h.source.generators, vectors)[0] if vectors else []


def _block_span(h: ModuleHom) -> ColumnSpan:
    """The span of the block [lift | target relations] in the target generators."""
    return ColumnSpan(h.target.generators, h.lift.columns() + h.target.relations.columns())


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


@dataclass
class Resolution:
    """P_n -> ... -> P_1 -> P_0 with coker(P_1 -> P_0) the resolved module.

    maps[i] is the differential modules[i+1] -> modules[i]; the augmentation
    P_0 -> module is the identity on generators.  Construction refuses a map
    of even degree (the traces over it would not sum).  The free modules are
    read off the maps, so they cannot disagree with them.  Each map carries
    the one span of its columns (solvers.column_span): resolve builds it to
    take the map's kernel, and verify_resolution and lift_endomorphism read
    the same span.  resolve puts the relation map first, so that span is the
    module's own.
    """

    module: PresentedModule
    maps: list[GradedMatrixHom]

    def __post_init__(self) -> None:
        for i, d in enumerate(self.maps):
            if d.degree % 2 == 0:
                raise ValueError(f"map {i} has even degree {d.degree}; resolution maps must have odd degree")

    @property
    def modules(self) -> list[GradedFreeModule]:
        return [self.module.generators] + [d.source for d in self.maps]

    @property
    def length(self) -> int:
        return len(self.maps)

    def __str__(self) -> str:
        chain = " -> ".join(str(m) for m in reversed(self.modules))
        return f"resolution of length {self.length}: {chain}"


def resolve(module: PresentedModule, max_length: int = 32) -> Resolution:
    """Iterate syzygies until the kernel vanishes.

    max_length bounds the length, the number of maps with the relation map
    counted first: past it ResolutionTooLong is raised instead of looping
    forever.  It does not bound the work inside one step.  Over the
    integers a step is one reduced Hermite form per grading block, whose
    entries stay within the bound smith_normal_form states,
    3 * N * log2(B * sqrt(N)) + 64 bits for N x N blocks with entries of
    size B; a kernel basis has no kernel, so the resolution has
    length at most 2.
    """
    maps: list[GradedMatrixHom] = []
    nxt = module.relations
    while nxt.source.rank:
        if len(maps) >= max_length:
            raise ResolutionTooLong(f"no free resolution of length <= {max_length} found")
        maps.append(nxt)
        nxt = syzygies(nxt)
    return Resolution(module, maps)


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
        kernel = image.syzygy_vectors()
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
    d_j f_j = f_{j-1} d_j throughout.  Each column of f_{j-1} d_j is solved
    by a membership certificate from the span the differential carries (the
    one resolve built) and projected to its forced homogeneous component, so
    the result is a legal graded map and builds unchecked; failure to solve
    means the resolution is not exact and raises EngineError.
    """
    if endo.source != res.module or endo.target != res.module:
        raise ValueError("can only lift an endomorphism of the resolved module")
    d = endo.degree
    lifts = [endo.lift]
    for dj in res.maps:
        pj = dj.source
        span = column_span(dj)
        cols = []
        for c, v in enumerate(compose(lifts[-1], dj).columns()):
            remainder, cert = span.normal_form(v)
            if any(remainder):
                raise EngineError(
                    "endomorphism does not lift: image escapes the next "
                    "differential (resolution not exact?)"
                )
            cols.append(pj.vector_component(cert, d - pj.shifts[c]))
        lifts.append(_from_columns(pj, pj, d, cols))
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
    ring, gens, rel = module.ring, module.generators, module.relations
    v = gens.coerce_vector(expression)
    k = gens.vector_degree(v)
    if k is INHOMOGENEOUS:
        raise HomogeneityError("the defining expression must be homogeneous")
    if k is ANY_DEGREE:
        k = 0
    gens2 = GradedFreeModule(ring, gens.shifts + (-k,))
    old_cols = [col + (ring.zero(),) for col in rel.columns()]
    defining = tuple(-e for e in v) + (ring.one(),)
    # the old columns keep their shifts; the defining one has module degree k
    source2 = GradedFreeModule(ring, rel.source.shifts + _relation_shifts(gens2, [defining], rel.degree))
    bigger = PresentedModule(gens2, _from_columns(source2, gens2, rel.degree, old_cols + [defining]))

    n = gens.rank
    inc_cols = [gens2.basis_vector(j) for j in range(n)]
    inclusion = ModuleHom._closed(module, bigger, _from_columns(gens, gens2, 0, inc_cols))
    proj_cols = [gens.basis_vector(j) for j in range(n)] + [v]
    projection = ModuleHom(bigger, module, _from_columns(gens2, gens, 0, proj_cols))
    return bigger, inclusion, projection


def with_extra_relations(module: PresentedModule, columns) -> PresentedModule:
    """Pad the presentation with relations already in the span (checked)."""
    gens, rel = module.generators, module.relations
    extra = [gens.coerce_vector(c) for c in columns]
    for idx, c in enumerate(extra):
        if not module.span.contains(c):
            raise ValueError(f"column {idx} is not in the relation span")
    # the old columns keep their shifts; the extra ones follow the rule
    shifts = rel.source.shifts + _relation_shifts(gens, extra, rel.degree)
    source = GradedFreeModule(module.ring, shifts)
    return PresentedModule(gens, _from_columns(source, gens, rel.degree, rel.columns() + extra))
