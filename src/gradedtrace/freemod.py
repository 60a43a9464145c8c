"""Graded free modules and homogeneous matrix maps between them.

A graded free module is a direct sum of shifted copies R[n] of the ring,
recorded as the tuple of integer shifts.  A map of degree d is a matrix whose
columns act on source generators: entry (i, j) is homogeneous of ring degree

    target.shifts[i] - source.shifts[j] + d

(or zero).  With Z/2 grading the same identity is required mod 2; shifts are
stored as given.  An element of ⊕R[n_i] is a column vector; it is homogeneous
of module degree k iff entry i is homogeneous of ring degree k + n_i.

A map stores sparse rows and never a zero entry; `entries` is a dense view.
The public constructor and hom_from_columns validate outside input once.
Closed operations (sums, compose, direct sums, tensor products, braidings and
dualities) give legal maps by construction: after their own shape and ring
checks they build unchecked and touch nonzero entries only.  Syzygy maps
and chain lifts build unchecked from their columns, through _from_columns.
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
            if not (e.ring is self.ring or e.ring == self.ring):
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
    """A homogeneous map of graded free modules, stored as sparse rows.

    Rows index the target, columns the source: _rows[i] maps j to the entry
    (i, j) when it is nonzero.  The constructor validates shapes and the entry
    degree law, and _closed takes rows that are legal by construction, so an
    instance is always a legal graded map.  An instance never changes, so the
    span of its columns in the target is built at most once: solvers.column_span
    builds it on first use and keeps it in _span.
    """

    __slots__ = ("source", "target", "degree", "_rows", "_span")

    def __init__(
        self,
        source: GradedFreeModule,
        target: GradedFreeModule,
        degree: int,
        entries: Sequence[Sequence],
    ):
        ring = source.ring
        if not (target.ring is ring or target.ring == ring):
            raise RingMismatch(f"{ring} is not {target.ring}")
        if len(entries) != target.rank:
            raise ValueError(
                f"expected {target.rank} rows, got {len(entries)}"
            )
        rows: list[dict[int, RingElement]] = []
        for i, row in enumerate(entries):
            if len(row) != source.rank:
                raise ValueError(
                    f"row {i}: expected {source.rank} entries, got {len(row)}"
                )
            sparse = {}
            for j, e in enumerate(row):
                if isinstance(e, int):
                    e = ring.const(e)
                if not (e.ring is ring or e.ring == ring):
                    raise RingMismatch(f"entry ({i},{j}) lives in {e.ring}, not {ring}")
                if not e:  # zero has every degree
                    continue
                want = target.shifts[i] - source.shifts[j] + degree
                if not e.has_degree(want):
                    raise HomogeneityError(
                        f"entry ({i},{j}) = {e} must be homogeneous of degree "
                        f"{ring.reduce_degree(want)}, got degree {e.degree()}"
                    )
                sparse[j] = e
            rows.append(sparse)
        self.source, self.target, self.degree = source, target, degree
        self._rows = tuple(rows)
        self._span = None

    @classmethod
    def _closed(cls, source, target, degree: int, rows) -> GradedMatrixHom:
        """The map with these sparse rows, unchecked: legal by construction."""
        hom = object.__new__(cls)
        hom.source, hom.target, hom.degree = source, target, degree
        hom._rows = tuple(rows)
        hom._span = None
        return hom

    @property
    def ring(self) -> RingSpec:
        return self.source.ring

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The dense matrix, built on each access."""
        zero = self.ring.zero()
        n = self.source.rank
        return tuple(tuple(row.get(j, zero) for j in range(n)) for row in self._rows)

    def __getitem__(self, ij: tuple[int, int]) -> RingElement:
        i, j = ij
        return self._rows[i].get(range(self.source.rank)[j], self.ring.zero())

    def column(self, j: int) -> Vector:
        j = range(self.source.rank)[j]
        zero = self.ring.zero()
        return tuple(row.get(j, zero) for row in self._rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.source.rank)]

    def apply(self, v: Sequence) -> Vector:
        v = self.source.coerce_vector(v)
        out = []
        for row in self._rows:
            acc = self.ring.zero()
            for j, e in row.items():
                acc = acc + e * v[j]
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMatrixHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self._rows)
        return hash((self.source, self.target, self.degree, rows))

    def __add__(self, other: GradedMatrixHom) -> GradedMatrixHom:
        if (
            self.source != other.source
            or self.target != other.target
            or self.degree != other.degree
        ):
            raise ValueError("can only add maps with equal source, target, degree")
        pairs = zip(self._rows, other._rows)
        rows = [_row_sum([*r1.items(), *r2.items()]) for r1, r2 in pairs]
        return GradedMatrixHom._closed(self.source, self.target, self.degree, rows)

    def __neg__(self) -> GradedMatrixHom:
        rows = [{j: -e for j, e in row.items()} for row in self._rows]
        return GradedMatrixHom._closed(self.source, self.target, self.degree, rows)

    def __sub__(self, other: GradedMatrixHom) -> GradedMatrixHom:
        return self + (-other)

    def __str__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )
        return f"[{body}] : {self.source} -> {self.target} (degree {self.degree})"

    def __repr__(self) -> str:
        return f"<GradedMatrixHom {self}>"


def _row_sum(terms) -> dict[int, RingElement]:
    """The sparse row summing (column, entry) terms; zero sums are dropped."""
    row: dict[int, RingElement] = {}
    for j, e in terms:
        row[j] = row[j] + e if j in row else e
    return {j: e for j, e in row.items() if e}


def identity_hom(module: GradedFreeModule) -> GradedMatrixHom:
    one = module.ring.one()
    rows = [{i: one} for i in range(module.rank)]
    return GradedMatrixHom._closed(module, module, 0, rows)


def zero_hom(
    source: GradedFreeModule, target: GradedFreeModule, degree: int
) -> GradedMatrixHom:
    if not (source.ring is target.ring or source.ring == target.ring):
        raise RingMismatch(f"{source.ring} is not {target.ring}")
    return GradedMatrixHom._closed(source, target, degree, [{} for _ in target.shifts])


def compose(g: GradedMatrixHom, f: GradedMatrixHom) -> GradedMatrixHom:
    """g after f; degrees add."""
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: inner modules differ ({f.target} vs {g.source})"
        )
    rows = [
        _row_sum((j, gk * fkj) for k, gk in g_row.items() for j, fkj in f._rows[k].items())
        for g_row in g._rows
    ]
    return GradedMatrixHom._closed(f.source, g.target, g.degree + f.degree, rows)


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


def _from_columns(source, target, degree: int, columns: list[Vector]) -> GradedMatrixHom:
    """The map with these columns, unchecked: legal by construction."""
    rows = [{j: col[i] for j, col in enumerate(columns) if col[i]} for i in range(target.rank)]
    return GradedMatrixHom._closed(source, target, degree, rows)


def direct_sum_homs(f: GradedMatrixHom, g: GradedMatrixHom) -> GradedMatrixHom:
    if f.degree != g.degree:
        raise ValueError("direct summands must have equal degree")
    source = direct_sum_modules(f.source, g.source)
    target = direct_sum_modules(f.target, g.target)
    offset = f.source.rank
    rows = list(f._rows) + [{offset + j: e for j, e in row.items()} for row in g._rows]
    return GradedMatrixHom._closed(source, target, f.degree, rows)


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
    entries = f.entries
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # Inverse entry (i, j) = det^-1 * cofactor_ji.
            sub = [
                [entries[r][c] for c in range(n) if c != i]
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
