"""Graded free modules and homogeneous matrix maps between them.

A graded free module is a direct sum of shifted copies R[n] of the ring,
recorded as the tuple of integer shifts.  A map of degree d is a matrix whose
columns act on source generators: entry (i, j) is homogeneous of ring degree

    target.shifts[i] - source.shifts[j] + d

(or zero).  With Z/2 grading the same identity is required mod 2; shifts are
stored as given.  An element of ⊕R[n_i] is a column vector; it is homogeneous
of module degree k iff entry i is homogeneous of ring degree k + n_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .rings import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    HomogeneityError,
    RingElement,
    RingMap,
    RingMismatch,
    RingSpec,
)

Vector = tuple[RingElement, ...]


@dataclass(frozen=True)
class GradedFreeModule:
    """⊕_i R[shifts[i]]; the zero module has an empty shift tuple."""

    ring: RingSpec
    shifts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", tuple(self.shifts))

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def shifted(self, n: int) -> GradedFreeModule:
        return GradedFreeModule(self.ring, tuple(s + n for s in self.shifts))

    def zero_vector(self) -> Vector:
        z = self.ring.zero()
        return tuple(z for _ in self.shifts)

    def basis_vector(self, i: int) -> Vector:
        return tuple(
            self.ring.one() if j == i else self.ring.zero() for j in range(self.rank)
        )

    def coerce_vector(self, entries: Sequence) -> Vector:
        if len(entries) != self.rank:
            raise ValueError(f"expected {self.rank} entries, got {len(entries)}")
        out = []
        for e in entries:
            if isinstance(e, int):
                e = self.ring.const(e)
            if e.ring != self.ring:
                raise RingMismatch(f"{e.ring} is not {self.ring}")
            out.append(e)
        return tuple(out)

    def vector_degree(self, v: Vector):
        """Module degree of v: an int, ANY_DEGREE for 0, or INHOMOGENEOUS.

        Entry i of a degree-k element is homogeneous of ring degree k + n_i.
        """
        degs = set()
        for entry, n in zip(v, self.shifts):
            d = entry.degree()
            if d is ANY_DEGREE:
                continue
            if d is INHOMOGENEOUS:
                return INHOMOGENEOUS
            degs.add(self.ring.reduce_degree(d - n))
        if not degs:
            return ANY_DEGREE
        if len(degs) > 1:
            return INHOMOGENEOUS
        return degs.pop()

    def vector_component(self, v: Vector, k: int) -> Vector:
        """The module-degree-k homogeneous component of v."""
        return tuple(
            entry.homogeneous_component(k + n) for entry, n in zip(v, self.shifts)
        )

    def __str__(self) -> str:
        return f"{self.ring}[{','.join(str(s) for s in self.shifts)}]"


def direct_sum_modules(a: GradedFreeModule, b: GradedFreeModule) -> GradedFreeModule:
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} is not {b.ring}")
    return GradedFreeModule(a.ring, a.shifts + b.shifts)


class GradedMatrixHom:
    """A homogeneous map of graded free modules, stored as a dense matrix.

    rows index the target, columns the source; construction validates shapes
    and the entry degree law, so an instance is always a legal graded map.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(
        self,
        source: GradedFreeModule,
        target: GradedFreeModule,
        degree: int,
        entries: Sequence[Sequence],
    ):
        if source.ring != target.ring:
            raise RingMismatch(f"{source.ring} is not {target.ring}")
        ring = source.ring
        if len(entries) != target.rank:
            raise ValueError(
                f"expected {target.rank} rows, got {len(entries)}"
            )
        rows: list[Vector] = []
        for i, row in enumerate(entries):
            if len(row) != source.rank:
                raise ValueError(
                    f"row {i}: expected {source.rank} entries, got {len(row)}"
                )
            coerced = []
            for j, e in enumerate(row):
                if isinstance(e, int):
                    e = ring.const(e)
                if e.ring != ring:
                    raise RingMismatch(f"entry ({i},{j}) lives in {e.ring}, not {ring}")
                want = target.shifts[i] - source.shifts[j] + degree
                if not e.has_degree(want):
                    raise HomogeneityError(
                        f"entry ({i},{j}) = {e} must be homogeneous of degree "
                        f"{ring.reduce_degree(want)}, got degree {e.degree()}"
                    )
                coerced.append(e)
            rows.append(tuple(coerced))
        self.source = source
        self.target = target
        self.degree = degree
        self.entries = tuple(rows)

    @property
    def ring(self) -> RingSpec:
        return self.source.ring

    def __getitem__(self, ij: tuple[int, int]) -> RingElement:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.target.rank))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.source.rank)]

    def apply(self, v: Sequence) -> Vector:
        v = self.source.coerce_vector(v)
        out = []
        for i in range(self.target.rank):
            acc = self.ring.zero()
            for j in range(self.source.rank):
                acc = acc + self.entries[i][j] * v[j]
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMatrixHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.degree, self.entries))

    def __add__(self, other: GradedMatrixHom) -> GradedMatrixHom:
        if (
            self.source != other.source
            or self.target != other.target
            or self.degree != other.degree
        ):
            raise ValueError("can only add maps with equal source, target, degree")
        rows = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ]
        return GradedMatrixHom(self.source, self.target, self.degree, rows)

    def __neg__(self) -> GradedMatrixHom:
        rows = [[-e for e in row] for row in self.entries]
        return GradedMatrixHom(self.source, self.target, self.degree, rows)

    def __sub__(self, other: GradedMatrixHom) -> GradedMatrixHom:
        return self + (-other)

    def scale(self, r) -> GradedMatrixHom:
        """Multiply every entry by a degree-0 ring element or integer."""
        if isinstance(r, int):
            r = self.ring.const(r)
        if not r.has_degree(0):
            raise HomogeneityError(f"scale factor {r} must have degree 0")
        rows = [[r * e for e in row] for row in self.entries]
        return GradedMatrixHom(self.source, self.target, self.degree, rows)

    def shifted(self, n: int) -> GradedMatrixHom:
        """The same matrix acting between modules shifted by n."""
        return GradedMatrixHom(
            self.source.shifted(n), self.target.shifted(n), self.degree, self.entries
        )

    def __str__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )
        return f"[{body}] : {self.source} -> {self.target} (degree {self.degree})"

    def __repr__(self) -> str:
        return f"<GradedMatrixHom {self}>"

    def __matmul__(self, other: GradedMatrixHom) -> GradedMatrixHom:
        return compose(self, other)


def identity_hom(module: GradedFreeModule) -> GradedMatrixHom:
    ring = module.ring
    rows = [
        [ring.one() if i == j else ring.zero() for j in range(module.rank)]
        for i in range(module.rank)
    ]
    return GradedMatrixHom(module, module, 0, rows)


def zero_hom(
    source: GradedFreeModule, target: GradedFreeModule, degree: int
) -> GradedMatrixHom:
    z = source.ring.zero()
    rows = [[z for _ in range(source.rank)] for _ in range(target.rank)]
    return GradedMatrixHom(source, target, degree, rows)


def compose(g: GradedMatrixHom, f: GradedMatrixHom) -> GradedMatrixHom:
    """g after f; degrees add."""
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: inner modules differ ({f.target} vs {g.source})"
        )
    ring = f.ring
    rows = []
    for i in range(g.target.rank):
        row = []
        for j in range(f.source.rank):
            acc = ring.zero()
            for k in range(g.source.rank):
                acc = acc + g.entries[i][k] * f.entries[k][j]
            row.append(acc)
        rows.append(row)
    return GradedMatrixHom(f.source, g.target, g.degree + f.degree, rows)


def hom_from_columns(
    source: GradedFreeModule,
    target: GradedFreeModule,
    degree: int,
    columns: Iterable[Sequence],
) -> GradedMatrixHom:
    cols = [target.coerce_vector(c) for c in columns]
    if len(cols) != source.rank:
        raise ValueError(f"expected {source.rank} columns, got {len(cols)}")
    rows = [[cols[j][i] for j in range(source.rank)] for i in range(target.rank)]
    return GradedMatrixHom(source, target, degree, rows)


def direct_sum_homs(f: GradedMatrixHom, g: GradedMatrixHom) -> GradedMatrixHom:
    if f.degree != g.degree:
        raise ValueError("direct summands must have equal degree")
    source = direct_sum_modules(f.source, g.source)
    target = direct_sum_modules(f.target, g.target)
    ring = f.ring
    z = ring.zero()
    rows = []
    for i in range(f.target.rank):
        rows.append(list(f.entries[i]) + [z] * g.source.rank)
    for i in range(g.target.rank):
        rows.append([z] * f.source.rank + list(g.entries[i]))
    return GradedMatrixHom(source, target, f.degree, rows)


def determinant(f: GradedMatrixHom) -> RingElement:
    """Exact determinant by expansion with memoization over column subsets."""
    if f.source.rank != f.target.rank:
        raise ValueError("determinant needs a square matrix")
    return _bare_determinant(f.ring, f.entries)


def is_invertible(f: GradedMatrixHom) -> tuple[bool, GradedMatrixHom | None]:
    """Unit-determinant test with the exact inverse via the adjugate.

    Only degree-0 square maps can be invertible in the graded sense.
    """
    if f.degree != 0:
        raise ValueError("only degree-0 maps can be tested for invertibility")
    if f.source.rank != f.target.rank:
        raise ValueError("only square maps can be tested for invertibility")
    det = determinant(f)
    if not det.is_unit():
        return False, None
    n = f.source.rank
    det_inv = det.unit_inverse()
    ring = f.ring
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # Inverse entry (i, j) = det^-1 * cofactor_ji.
            sub = [
                [f.entries[r][c] for c in range(n) if c != i]
                for r in range(n) if r != j
            ]
            cof = _bare_determinant(ring, sub)
            if (i + j) % 2:
                cof = -cof
            row.append(det_inv * cof)
        rows.append(row)
    inverse = GradedMatrixHom(f.target, f.source, 0, rows)
    return True, inverse


def _bare_determinant(ring: RingSpec, rows: Sequence[Sequence[RingElement]]) -> RingElement:
    n = len(rows)
    cache: dict[tuple[int, int], RingElement] = {}

    def minor(row: int, colmask: int) -> RingElement:
        if row == n:
            return ring.one()
        key = (row, colmask)
        got = cache.get(key)
        if got is not None:
            return got
        acc = ring.zero()
        sign = 1
        for j in range(n):
            if not (colmask >> j) & 1:
                continue
            e = rows[row][j]
            if e:
                term = e * minor(row + 1, colmask & ~(1 << j))
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, (1 << n) - 1)


def map_matrix(phi: RingMap, f: GradedMatrixHom) -> GradedMatrixHom:
    """Apply a ring map entrywise; shifts and degree are preserved."""
    source = GradedFreeModule(phi.target, f.source.shifts)
    target = GradedFreeModule(phi.target, f.target.shifts)
    rows = [[phi(e) for e in row] for row in f.entries]
    return GradedMatrixHom(source, target, f.degree, rows)
