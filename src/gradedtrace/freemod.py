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
checks they build unchecked and touch nonzero entries only, and so does
map_matrix.  Relation maps, syzygy maps and chain lifts build unchecked from
their columns, through _from_columns; the first two take their shifts from
_relation_shifts, the one place the resolution convention is written.
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
    """g after f; degrees add.

    Where a factor is the ring's shared one (RingSpec.one), the other entry
    is taken as it is instead of multiplied by 1; an entry of g is checked
    once, not once per product.  That holds only when f and g are over the
    same ring object.
    """
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: inner modules differ ({f.target} vs {g.source})"
        )
    one = g.ring.one() if g.ring is f.ring else None
    rows = []
    for g_row in g._rows:
        terms = []
        for k, gk in g_row.items():
            f_row = f._rows[k]
            if gk is one:
                terms += f_row.items()
                continue
            for j, fkj in f_row.items():
                terms.append((j, gk if fkj is one else gk * fkj))
        rows.append(_row_sum(terms))
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


def _relation_shifts(generators: GradedFreeModule, columns: list[Vector], degree: int) -> tuple[int, ...]:
    """The resolution convention: a column of module degree k gets source
    shift degree - k (a zero column 0), so the columns form a legal map of
    that degree.  Odd degree is enforced by PresentedModule and Resolution.
    """
    shifts = []
    for idx, v in enumerate(columns):
        k = generators.vector_degree(v)
        if k is INHOMOGENEOUS:
            raise HomogeneityError(f"relation column {idx} is not homogeneous")
        shifts.append(0 if k is ANY_DEGREE else degree - k)
    return tuple(shifts)


def direct_sum_homs(f: GradedMatrixHom, g: GradedMatrixHom) -> GradedMatrixHom:
    if f.degree != g.degree:
        raise ValueError("direct summands must have equal degree")
    source = direct_sum_modules(f.source, g.source)
    target = direct_sum_modules(f.target, g.target)
    offset = f.source.rank
    rows = list(f._rows) + [{offset + j: e for j, e in row.items()} for row in g._rows]
    return GradedMatrixHom._closed(source, target, f.degree, rows)


def determinant(f: GradedMatrixHom) -> RingElement:
    """Exact determinant (-1)^n c_n, from the characteristic polynomial."""
    if f.source.rank != f.target.rank:
        raise ValueError("determinant needs a square matrix")
    return (-1) ** f.source.rank * _charpoly(f)[-1]


def is_invertible(f: GradedMatrixHom) -> tuple[bool, GradedMatrixHom | None]:
    """Unit-determinant test with the exact inverse, by Cayley-Hamilton.

    With det(λI - A) = λ^n + c_1 λ^(n-1) + ... + c_n, the inverse is
    -c_n^-1 (A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I), by Horner's rule over
    compose.  The inverse of a graded isomorphism is graded, and the matrix
    inverse is unique, so the result is legal by construction.  Only
    degree-0 square maps can be invertible in the graded sense.
    """
    if f.degree != 0:
        raise ValueError("only degree-0 maps can be tested for invertibility")
    if f.source.rank != f.target.rank:
        raise ValueError("only square maps can be tested for invertibility")
    *coeffs, c_n = _charpoly(f)
    if not c_n.is_unit():  # det = ±c_n
        return False, None
    # the rows of f read as an endomorphism of its source, so that powers compose
    a = GradedMatrixHom._closed(f.source, f.source, 0, f._rows)
    b = identity_hom(f.source)
    for c in coeffs[1:]:
        rows = [_row_sum([*row.items(), (i, c)]) for i, row in enumerate(compose(a, b)._rows)]
        b = GradedMatrixHom._closed(f.source, f.source, 0, rows)
    scale = -c_n.unit_inverse()
    rows = [{j: scale * e for j, e in row.items()} for row in b._rows]
    return True, GradedMatrixHom._closed(f.target, f.source, 0, rows)


def _charpoly(f: GradedMatrixHom) -> list[RingElement]:
    """Coefficients 1, c_1, ..., c_n of det(λI - A) for the square matrix A of f.

    Berkowitz's division-free recurrence (Inform. Process. Lett. 18, 1984)
    grows the trailing principal block one row and column at a time.  With
    A_k = [[a, R], [S, M]] and M the block already done, the polynomial of
    A_k is the lower-triangular Toeplitz matrix with first column
    1, -a, -RS, -RMS, ..., -RM^(m-1)S applied to that of M, where m is the
    size of M.  That is O(n^4) ring products and no division, so it works
    over every ring kind.
    """
    rows, zero, one = f._rows, f.ring.zero(), f.ring.one()
    n = len(rows)

    def dot(row: dict[int, RingElement], v: dict[int, RingElement]) -> RingElement:
        return sum((e * v[j] for j, e in row.items() if j in v), zero)

    coeffs = [one]
    for k in range(n - 1, -1, -1):
        m = n - 1 - k
        v = {i: rows[i][k] for i in range(k + 1, n) if k in rows[i]}  # S
        col = [one, -rows[k].get(k, zero)]
        for _ in range(m):
            col.append(-dot(rows[k], v))  # v's keys pass k, so this is R v
            v = {i: e for i in range(k + 1, n) if (e := dot(rows[i], v))}  # M v
        coeffs = [sum((col[i - j] * coeffs[j] for j in range(min(i, m) + 1)), zero) for i in range(m + 2)]
    return coeffs


def map_matrix(phi: RingMap, f: GradedMatrixHom) -> GradedMatrixHom:
    """Apply a ring map entrywise; shifts and degree are preserved.

    RingMap checked each generator image's degree, so the image is legal.
    """
    source = GradedFreeModule(phi.target, f.source.shifts)
    target = GradedFreeModule(phi.target, f.target.shifts)
    rows = [{j: img for j, e in row.items() if (img := phi(e))} for row in f._rows]
    return GradedMatrixHom._closed(source, target, f.degree, rows)
