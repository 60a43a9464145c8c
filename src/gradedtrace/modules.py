"""Finitely presented graded modules, their maps, and free resolutions.

A presented module is the cokernel of a homogeneous relation map into a
graded free module of generators.  Maps between presented modules are given
by lifts on generators; construction checks that relations land in
relations, so every ModuleHom is honestly well defined.  Sums, composites
and identities descend by construction and build through the unchecked
ModuleHom._closed; the public constructor always checks.  Resolutions
iterate the syzygy functor until the kernel vanishes and certify their own
exactness; endomorphisms lift along them one differential at a time, each
step one solve of a whole matrix against the differential's column span.
Lifts from outside columns validate through hom_from_columns; relation
maps, syzygy maps and chain lifts are legal by construction and build
unchecked, and verify_resolution and verify_lift (the one chain-lift
check; its ValueError names the failed stage) certify them.  Every
containment check (descent, equality, verification) asks a span about a
whole matrix at once; kernels of module maps and the exactness checks of
trace.py read the span of one block map [lift | target relations].

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
    Column,
    GradedFreeModule,
    GradedMatrixHom,
    Vector,
    _dense,
    _from_columns,
    _nonzero,
    _relation_shifts,
    compose,
    hom_from_columns,
    identity_hom,
    zero_hom,
)
from .rings import ANY_DEGREE, INHOMOGENEOUS, HomogeneityError, RingMismatch, RingSpec
from .solvers import ColumnSpan, EngineError, _engine_columns, _engine_compose, column_span, prune_columns, syzygies


class ResolutionTooLong(RuntimeError):
    """Syzygies failed to vanish within the allowed number of steps."""


def relation_hom_from_columns(
    generators: GradedFreeModule, columns, degree: int = 1
) -> GradedMatrixHom:
    """Package relation columns as a homogeneous map of the given degree.

    A column is a dense vector or a freemod.Line, as the parser reads it;
    either comes from outside, so every entry is checked: each column's
    length and ring first, then its homogeneity (vector_degree), not one
    term as for engine Columns.  Its source shift follows
    freemod._relation_shifts, so the map builds unchecked.  An even degree
    is refused by PresentedModule, not here.
    """
    cols = [_outside_column(generators, c) for c in columns]
    shifts = _relation_shifts(generators, cols, degree, GradedFreeModule.vector_degree)
    return _from_columns(GradedFreeModule(generators.ring, shifts), generators, degree, cols)


def _outside_column(generators: GradedFreeModule, column) -> Column:
    """The nonzero entries of a dense vector or a Line, its length and entries' ring checked."""
    if not (len(column) == 2 and isinstance(column[0], dict)):  # no dense vector holds a dict
        return _nonzero(generators.coerce_vector(column))
    (entries, length), ring = column, generators.ring
    if length != generators.rank:
        raise ValueError(f"expected {generators.rank} entries, got {length}")
    for e in entries.values():
        if not (e.ring is ring or e.ring == ring):
            raise RingMismatch(f"{e.ring} is not {ring}")
    return entries


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
    return a.span.first_outside(b.relations) is None and b.span.first_outside(a.relations) is None


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
        j = target.span.first_outside(compose(lift, source.relations))
        if j is not None:
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
        return self.target.span.first_outside(self.lift - other.lift) is None

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

    The kernel of the block map [lift | target relations], cut to the
    lift's positions, generates the full preimage of the target relation
    span; its Columns are pruned to an irredundant list (prune_columns).
    """
    gens, zero = h.source.generators, h.ring.zero()
    columns = _kernel_on_lift(column_span(_block_map(h)), gens.rank)
    return [_dense(c, gens.rank, zero) for c in prune_columns(gens, columns)[0]] if columns else []


def _block_map(h: ModuleHom) -> GradedMatrixHom:
    """[h.lift | target relations] as one map of the lift's degree, legal by construction:
    each relation's source shift moves by lift.degree - relations.degree."""
    lift, rel = h.lift, h.target.relations
    moved = tuple(s + lift.degree - rel.degree for s in rel.source.shifts)
    source = GradedFreeModule(h.ring, lift.source.shifts + moved)
    return _from_columns(source, lift.target, lift.degree, lift._sparse_columns() + rel._sparse_columns())


def _kernel_on_lift(span: ColumnSpan, n: int) -> list[Column]:
    """The span's nonzero kernel generators, cut to its first n (a block map's lift) positions."""
    return [c for k in span._sparse_kernel() if (c := {i: e for i, e in k.items() if i < n})]


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


@dataclass
class Resolution:
    """P_n -> ... -> P_1 -> P_0 with coker(P_1 -> P_0) the resolved module.

    maps[i] is the differential modules[i+1] -> modules[i]; the augmentation
    P_0 -> module is the identity on generators.  Construction refuses a map
    of even degree (the traces over it would not sum) and a map j >= 1 that
    does not land in the source of map j - 1.  The free modules are
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
        for j in range(1, len(self.maps)):
            if self.maps[j].target != self.maps[j - 1].source:
                raise ValueError(f"map {j} does not land in the source of map {j - 1}")

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
    forever, and a negative bound is refused for every module, a free one's
    included.  It does not bound the work inside one step.  Over the
    integers a step is one reduced Hermite form per grading block, whose
    entries stay within the bound smith_normal_form states,
    3 * N * log2(B * sqrt(N)) + 64 bits for N x N blocks with entries of
    size B; a kernel basis has no kernel, so the resolution has
    length at most 2.
    """
    maps: list[GradedMatrixHom] = []
    nxt = module.relations
    while max_length < 0 or nxt.source.rank:
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
    kernel.  d_j d_(j+1) is formed on canonical engine vectors
    (solvers._engine_compose), plain integer columns over the integers:
    d_(j+1)'s entries multiply d_j's columns, encoded from d_j's own entries,
    so the product is checked for every resolution, one from outside
    included, and no ring element is multiplied.  The kernels and images
    come from each map's own span, the one resolve built from the same
    columns; a span is a deterministic function of its columns, so sharing
    it checks exactly what a rebuilt span would, and the sparse kernel
    resolve read off a span is tested as it is, through the engine vectors
    its columns keep, not converted again here.
    Each containment is one many-column membership call (first_outside)
    per matrix or kernel, and first_outside settles a column equal to the
    next unmatched generator of its span without the backend, since it is
    the image of a basis vector.  So when the first map is the module's
    relation map both of its containments hold by equality, and so does
    each kernel generator that pruning kept, a column of the next map; the
    backend tests only the generators that pruning dropped.
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
    if image.first_outside(rel) is not None or res.module.span.first_outside(first) is not None:
        raise EngineError("first map does not span the relations of the module")
    for j in range(len(res.maps) - 1):
        if any(_engine_compose(_engine_columns(res.maps[j]), res.maps[j + 1])):
            raise EngineError(f"maps {j} and {j + 1} do not compose to zero")
    for j in range(len(res.maps)):
        kernel = image._sparse_kernel()
        if j + 1 < len(res.maps):
            image = column_span(res.maps[j + 1])
            if image.first_outside(kernel) is not None:
                raise EngineError(f"kernel of map {j} is not covered by map {j + 1}")
        elif kernel:
            raise EngineError("last map of the resolution has a nonzero kernel")


def lift_endomorphism(res: Resolution, endo: ModuleHom) -> list[GradedMatrixHom]:
    """Lift a module endomorphism to a chain endomorphism of the resolution.

    Returns [f_0, .., f_n] with f_0 the given lift on generators and
    d_j f_j = f_{j-1} d_j throughout.  Each f_j is one solve of the matrix
    f_{j-1} d_j against the span the differential carries (the one resolve
    built): its columns are membership certificates, homogeneous of their
    forced degrees because the differential's columns are, so it is a legal
    graded map and builds unchecked.  A column that does not solve means
    the resolution is not exact, and solve raises EngineError naming it.
    The product stays in the engine's form, plain integer columns over the
    integers: f_0's columns are encoded once, d_j's entries multiply them
    (solvers._engine_compose), and each stage's certificates, engine
    vectors already, are the columns of f_j that the next product reads
    (ColumnSpan.solve_engine); no ring element is multiplied.
    """
    if endo.source != res.module or endo.target != res.module:
        raise ValueError("can only lift an endomorphism of the resolved module")
    lifts = [endo.lift]
    vecs = _engine_columns(endo.lift)
    for dj in res.maps:
        fj, vecs = column_span(dj).solve_engine(_engine_compose(vecs, dj), dj.source, endo.degree)
        lifts.append(fj)
    return lifts


def verify_lift(res: Resolution, endo: ModuleHom, lifts: list[GradedMatrixHom]) -> None:
    """Raise ValueError unless lifts is a chain lift of endo over res: one
    endomorphism of endo's degree per term, the first equal to endo.lift
    modulo the relations ("lift 0"), every square d_j f_j = f_(j-1) d_j
    commuting ("chain-map square j").  The message names the failed stage.
    Both sides of each square are formed on engine vectors
    (solvers._engine_compose), as lift_endomorphism forms its products."""
    if res.module != endo.source or res.module != endo.target or len(lifts) != len(res.modules) or any(
        (f.source, f.target, f.degree) != (p, p, endo.degree) for f, p in zip(lifts, res.modules)
    ):
        raise ValueError("lifts must be one endomorphism of endo's degree per term of a resolution of its module")
    if res.module.span.first_outside(lifts[0] - endo.lift) is not None:
        raise ValueError("lift 0 does not induce the endomorphism on the module")
    for j, dj in enumerate(res.maps):
        if _engine_compose(_engine_columns(dj), lifts[j + 1]) != _engine_compose(_engine_columns(lifts[j]), dj):
            raise ValueError(f"chain-map square {j} of the lifts does not commute")


def perturb_lift(
    res: Resolution,
    lifts: list[GradedMatrixHom],
    homotopies: list[GradedMatrixHom | None],
) -> list[GradedMatrixHom]:
    """Add a null-homotopic correction: f_j + d_{j+1} s_j + s_{j-1} d_j.

    homotopies[j] maps modules[j] -> modules[j+1] (or None); the result is
    another valid chain lift of the same module endomorphism.
    """
    if (len(lifts), len(homotopies)) != (len(res.modules), len(res.maps)):
        raise ValueError(f"expected {len(res.modules)} lifts and {len(res.maps)} homotopies, got {len(lifts)} and {len(homotopies)}")
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
    defining = tuple(-e for e in v) + (ring.one(),)
    # the old columns keep their shifts; the defining one has module degree k
    source2 = GradedFreeModule(ring, rel.source.shifts + _relation_shifts(gens2, [defining], rel.degree))
    bigger = PresentedModule(gens2, _from_columns(source2, gens2, rel.degree, rel._sparse_columns() + [_nonzero(defining)]))

    n = gens.rank
    units = [{j: ring.one()} for j in range(n)]
    inclusion = ModuleHom._closed(module, bigger, _from_columns(gens, gens2, 0, units))
    # the defining column (-v, 1) maps to -v + v = 0 and the old relations to themselves
    projection = ModuleHom._closed(bigger, module, _from_columns(gens2, gens, 0, units + [_nonzero(v)]))
    return bigger, inclusion, projection


def with_extra_relations(module: PresentedModule, columns) -> PresentedModule:
    """Pad the presentation with relations already in the span (checked)."""
    gens, rel = module.generators, module.relations
    extra = [gens.coerce_vector(c) for c in columns]
    idx = module.span.first_outside(extra)
    if idx is not None:
        raise ValueError(f"column {idx} is not in the relation span")
    # the old columns keep their shifts; the extra ones follow the rule
    shifts = rel.source.shifts + _relation_shifts(gens, extra, rel.degree)
    source = GradedFreeModule(module.ring, shifts)
    return PresentedModule(gens, _from_columns(source, gens, rel.degree, rel._sparse_columns() + [_nonzero(c) for c in extra]))
