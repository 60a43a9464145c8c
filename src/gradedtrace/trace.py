"""Trace calculus for endomorphisms of graded modules.

The trace of a degree-d endomorphism F of a graded free module ⊕R[n_i] is
the signed diagonal sum

    tr F = sum_i (-1)^(n_i) F_ii,

homogeneous of ring degree d.  For a finitely presented module, the trace
of an endomorphism is the plain sum of the free traces of a chain lift over
a resolution: the resolution convention (differentials of odd degree, shift
= degree - module degree of each relation column) stores the homological
sign in the shift parity, so no extra alternation appears here.

A short exact sequence certifies its exactness when it is built, from the
spans of two block maps, and records one section of b, a map; composites
through it induce an endomorphism on the quotient, which makes the
additivity defect tr(f_C) - tr(f_B) + tr(f_A) computable and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .freemod import (
    GradedFreeModule,
    GradedMatrixHom,
    compose,
    identity_hom,
    map_matrix,
)
from .modules import (
    ModuleHom,
    PresentedModule,
    Resolution,
    _block_map,
    _kernel_on_lift,
    _lift_stages,
    compose_module_homs,
    resolve,
    verify_lift,
)
from .rings import RingElement, RingMap, RingSpec
from .solvers import _engine_diagonal, column_span


@dataclass(frozen=True)
class TraceValue:
    """A trace together with the degree of the endomorphism it came from."""

    value: RingElement
    degree: int

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __str__(self) -> str:
        return f"{self.value} (degree {self.degree})"


def _signed_diagonal(ring: RingSpec, maps: list[GradedMatrixHom]) -> RingElement:
    """sum_f sum_i (-1)^(n_i) f_ii over free endomorphisms, added term by term."""
    total: dict = {}
    for f in maps:
        for i, (row, shift) in enumerate(zip(f._rows, f.source.shifts)):
            entry = row.get(i)
            if entry is not None:
                sign = -1 if shift % 2 else 1
                for exp, c in entry.items():
                    total[exp] = total.get(exp, 0) + sign * c
    return RingElement._clean(ring, {exp: c for exp, c in total.items() if c})


def free_trace(f: GradedMatrixHom) -> TraceValue:
    """Signed diagonal sum of a free endomorphism, read off the sparse rows."""
    if f.source != f.target:
        raise ValueError("trace needs an endomorphism (equal source and target)")
    return TraceValue(_signed_diagonal(f.ring, [f]), f.degree)


def signed_rank(module: GradedFreeModule) -> int:
    """sum_i (-1)^(n_i): the trace of the identity, as a plain integer."""
    return sum(-1 if s % 2 else 1 for s in module.shifts)


def projective_trace(e: GradedMatrixHom, f: GradedMatrixHom) -> TraceValue:
    """Trace of f compressed to the image of the idempotent e.

    e must be a degree-0 idempotent on the ambient free module; f any
    endomorphism of the same module.  When f already satisfies f = e f e
    this is the trace of f as an endomorphism of the summand cut out by e.
    """
    if e.source != e.target:
        raise ValueError("the idempotent must be an endomorphism")
    if e.degree != 0:
        raise ValueError("the idempotent must have degree 0")
    if compose(e, e) != e:
        raise ValueError("e is not idempotent: e∘e differs from e")
    if f.source != e.source or f.target != e.source:
        raise ValueError("f must be an endomorphism of the idempotent's module")
    return free_trace(compose(e, compose(f, e)))


def hs_trace(
    endo: ModuleHom,
    resolution: Resolution | None = None,
    lifts: list[GradedMatrixHom] | None = None,
) -> TraceValue:
    """Trace of a module endomorphism through a free resolution.

    The value is independent of the resolution and of the chain lift; both
    may be supplied to reuse work.  Given lifts require the resolution and
    are checked by modules.verify_lift, whose ValueError names the failed
    stage.  Without them the signed diagonal is read off the engine columns
    of the chain lift's stages (modules._lift_stages, solvers._engine_diagonal),
    so no lift matrix is built.
    """
    if endo.source != endo.target:
        raise ValueError("trace needs an endomorphism")
    if resolution is None:
        if lifts is not None:
            raise ValueError("lifts without their resolution are ambiguous")
        resolution = resolve(endo.source)
    if lifts is None:
        return TraceValue(_engine_diagonal(endo.ring, _lift_stages(resolution, endo)), endo.degree)
    verify_lift(resolution, endo, lifts)
    return TraceValue(_signed_diagonal(endo.ring, lifts), endo.degree)


def base_change_trace(
    phi: RingMap, f: GradedMatrixHom
) -> tuple[TraceValue, TraceValue]:
    """(phi applied to tr f, tr of the entrywise-mapped matrix).

    The two values agree for every ring map; returning both keeps the
    comparison observable instead of assumed.
    """
    before = free_trace(f)
    pushed = TraceValue(phi(before.value), phi.target.reduce_degree(before.degree))
    after_hom = map_matrix(phi, f)
    after = free_trace(after_hom)
    return pushed, TraceValue(after.value, phi.target.reduce_degree(after.degree))


def base_change_commutes(phi: RingMap, f: GradedMatrixHom) -> bool:
    pushed, after = base_change_trace(phi, f)
    return pushed.value == after.value


# ---------------------------------------------------------------------------
# Short exact sequences and additivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> left -a-> middle -b-> right -> 0 with degree-0 maps, exact.

    Construction certifies exactness and records preimages, a degree-0
    section of b on generators (right -> middle generators, column i a
    preimage of generator i), which induces endomorphisms on the quotient.
    The checks read the spans and sparse kernels of the block maps
    [a | middle relations] and [b | right relations]; kernels go unpruned,
    as a submodule holds them iff it holds what they span.  The section is
    the middle rows of one solve against b's block.
    """

    left: PresentedModule
    middle: PresentedModule
    right: PresentedModule
    a: ModuleHom
    b: ModuleHom
    preimages: GradedMatrixHom = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.a.source != self.left or self.a.target != self.middle:
            raise ValueError("a must map left -> middle")
        if self.b.source != self.middle or self.b.target != self.right:
            raise ValueError("b must map middle -> right")
        if self.a.degree != 0 or self.b.degree != 0:
            raise ValueError("short exact sequences use degree-0 maps")
        # b . a = 0
        composite = compose_module_homs(self.b, self.a)
        if self.right.span.first_outside(composite.lift) is not None:
            raise ValueError("b∘a is not zero")
        # a injective: anything a sends into middle relations dies in left;
        # the span of [a | middle relations] also serves the last check
        cover = column_span(_block_map(self.a))
        if self.left.span.first_outside(_kernel_on_lift(cover, self.left.generators.rank)) is not None:
            raise ValueError("a is not injective")
        # b surjective, with a section on generators
        image = column_span(_block_map(self.b))
        unit = identity_hom(self.right.generators)
        i = image.first_outside(unit)
        if i is not None:
            raise ValueError(f"b misses generator {i} of the right module")
        nb = self.middle.generators.rank
        section = GradedMatrixHom._closed(unit.source, self.middle.generators, 0, image.solve(unit, 0)._rows[:nb])
        # ker b is contained in im a + relations
        if cover.first_outside(_kernel_on_lift(image, nb)) is not None:
            raise ValueError("the kernel of b escapes the image of a")
        object.__setattr__(self, "preimages", section)


def induced_quotient_endo(ses: ShortExactSequence, f_middle: ModuleHom) -> ModuleHom:
    """The endomorphism of the right module induced by f_middle.

    Its lift is the closed composite b . f_middle . section (ses.preimages);
    the ModuleHom constructor checks that it descends, so a middle
    endomorphism that fails to preserve the image of a is rejected loudly.
    """
    if f_middle.source != ses.middle or f_middle.target != ses.middle:
        raise ValueError("f_middle must be an endomorphism of the middle module")
    return ModuleHom(ses.right, ses.right, compose(ses.b.lift, compose(f_middle.lift, ses.preimages)))


@dataclass(frozen=True)
class AdditivityReport:
    left: TraceValue
    middle: TraceValue
    right: TraceValue
    defect: RingElement

    def holds(self) -> bool:
        return self.defect.is_zero()


def additivity_defect(
    ses: ShortExactSequence, f_left: ModuleHom, f_middle: ModuleHom
) -> AdditivityReport:
    """tr(f_right) - tr(f_middle) + tr(f_left), with f_right induced.

    Requires the left square to commute (f_middle ∘ a = a ∘ f_left), which
    makes the induced endomorphism well defined and the right square commute.
    """
    if f_left.source != ses.left or f_left.target != ses.left:
        raise ValueError("f_left must be an endomorphism of the left module")
    if f_left.degree != f_middle.degree:
        raise ValueError("the two endomorphisms must have equal degree")
    square_left = compose_module_homs(f_middle, ses.a)
    square_right = compose_module_homs(ses.a, f_left)
    if square_left != square_right:
        raise ValueError("f_middle does not restrict to f_left along a")
    f_right = induced_quotient_endo(ses, f_middle)
    t_left = hs_trace(f_left)
    t_middle = hs_trace(f_middle)
    t_right = hs_trace(f_right)
    defect = t_right.value - t_middle.value + t_left.value
    return AdditivityReport(t_left, t_middle, t_right, defect)
