"""Exact membership, normal forms, and syzygies for column spans.

Two backends sit behind one interface.  Over the integers, a reduced column
Hermite form with one transform per grading block answers membership and
kernel questions; the same routine, alternated with its transpose, gives the
Smith normal form, and entries stay polynomially bounded in the input size
(Kannan and Bachem).  Over polynomial and Laurent rings, one engine class
does the same work with a strong Groebner basis for modules over
Z[x_1..x_n]: leading terms of submodule elements are divisible, coefficient
and monomial both, by a basis leading term, so normal forms certify
membership.  The term order is fixed once and for all:
position-over-term (lower index wins) with degree-reverse-lexicographic
monomials; it is not configurable.  Inside the engine a term is one packed
integer whose integer order is that term order, every basis element keeps
its leading term, and the basis is indexed by leading position, so that a
division step scans only the elements at the term's own position.  An
exponent or degree past 32767 raises EngineError instead of wrapping.

Greedy pruning (prune_columns) asks, column by column, whether a column lies
in the span of others, over the integers with the Hermite form alone.  When
the columns are grouped by degree, a whole group is one Z-lattice question:
its remainders against the span of lower degrees go through the same
Hermite form, and only a group whose remainders keep a residue term falls
back to one Groebner test per column, each completed only up to the degree
of the column it asks about.

A Laurent ring enters the same engine with a formal inverse y_i for every
variable x_i and the relation columns (x_i*y_i - 1)*e_k appended for every
coordinate; answers map back along y_i -> x_i^-1.  Rescaling columns by
unit monomials alone would compute membership in the wrong module (the
polynomial span is not saturated), so the inverse variables are essential.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass

from .freemod import GradedFreeModule, GradedMatrixHom, Vector, _from_columns, _relation_shifts
from .rings import (
    ANY_DEGREE,
    GRADING_Z,
    INHOMOGENEOUS,
    INTEGERS,
    LAURENT,
    RingElement,
    RingSpec,
)


class EngineError(RuntimeError):
    """An internal solver invariant failed, which indicates a bug, or an
    exponent or total degree passed the Groebner engine's bound."""


# ---------------------------------------------------------------------------
# Integer matrices: Hermite and Smith normal forms, exact determinants
# ---------------------------------------------------------------------------


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_determinant(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"determinant of a non-square matrix with {n} rows")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite(vecs: list[list[int]], m: int, duals: list[list[int]] | None = None) -> list[int]:
    """Bring the first m entries of vecs to reduced column Hermite form, in place.

    vecs[j] is column j of an m-row matrix, then entries combined along with
    it (a transform).  Columns are inserted in index order; at each existing
    pivot row a unimodular xgcd step leaves the gcd in the pivot column and
    zero in the new one, and after each insertion every pivot column's
    entries at later pivot rows are reduced into [0, pivot) (Kannan and
    Bachem), which bounds the entries.  The pivot columns end up first, in
    increasing pivot row, and are canonical for the lattice; the vanished
    ones follow in index order.  Returns the pivot rows.  Each step applies
    its inverse transpose to duals, so sum_j vecs[j] (x) duals[j] is kept.
    """
    pivots: dict[int, int] = {}  # pivot row -> index of its column
    rows: list[int] = []  # the pivot rows, in increasing order
    for j in range(len(vecs)):
        changed = False
        for r in range(m):
            b = vecs[j][r]
            if not b:
                continue
            changed = True
            k = pivots.get(r)
            if k is None:
                pivots[r] = j
                bisect.insort(rows, r)
                if b < 0:
                    vecs[j] = [-x for x in vecs[j]]
                    if duals is not None:
                        duals[j] = [-x for x in duals[j]]
                break
            g, s, t = _xgcd(vecs[k][r], b)
            x, y = vecs[k][r] // g, b // g
            vk, vj = vecs[k], vecs[j]
            vecs[k] = [s * p + t * q for p, q in zip(vk, vj)]
            vecs[j] = [x * q - y * p for p, q in zip(vk, vj)]
            if duals is not None:
                wk, wj = duals[k], duals[j]
                duals[k] = [x * p + y * q for p, q in zip(wk, wj)]
                duals[j] = [s * q - t * p for p, q in zip(wk, wj)]
        if not changed:  # a column that is zero in the first m entries changes nothing
            continue
        for i, c in enumerate(pivots[r] for r in rows):
            for r in rows[i + 1 :]:
                k = pivots[r]
                q = vecs[c][r] // vecs[k][r]
                if q:
                    vecs[c] = [p - q * z for p, z in zip(vecs[c], vecs[k])]
                    if duals is not None:
                        duals[k] = [z + q * p for p, z in zip(duals[c], duals[k])]
    if any(pivots[r] != i for i, r in enumerate(rows)):
        order = [pivots[r] for r in rows]
        order += sorted(set(range(len(vecs))).difference(order))
        vecs[:] = [vecs[j] for j in order]
        if duals is not None:
            duals[:] = [duals[j] for j in order]
    return rows


@dataclass
class SNFResult:
    """M = U . D . V with U, V unimodular and D a diagonal divisibility chain."""

    U: list[list[int]]
    D: list[list[int]]
    V: list[list[int]]
    Uinv: list[list[int]]
    Vinv: list[list[int]]

    @property
    def diagonal(self) -> list[int]:
        return [
            self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
        ]


def smith_normal_form(rows: list[list[int]]) -> SNFResult:
    """Diagonalize an integer matrix, tracking all four transforms.

    Column Hermite steps on D alternate with row Hermite steps (the same
    routine on the transpose) until D is diagonal; where d_t does not divide
    d_(t+1), row t+1 is added to row t and the alternation resumes (Kannan
    and Bachem).  V^-1 rides along D's columns and U^-1 along its rows; V
    and U take each step's inverse.  With N = max(m, n, 2) for an m x n
    input and B >= 2 a bound on its entries' size, every entry of the five
    matrices stays within 3 * N * log2(B * sqrt(N)) + 64 bits, three times
    a Hadamard bound plus slack; the Hermite columns, transforms and kernels
    of integer spans stay within it too.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # D's columns, each followed by its column of V^-1; V's rows are their duals
    cols = [[r[j] for r in rows] + e for j, e in enumerate(_eye(n))]
    V, U_cols, Uinv = _eye(n), _eye(m), _eye(m)
    while True:
        _hermite(cols, m, V)
        # D's rows, each followed by its row of U^-1; U's columns are their duals
        D = [[c[i] for c in cols] + u for i, u in enumerate(Uinv)]
        _hermite(D, n, U_cols)
        if not any(r[j] for i, r in enumerate(D) for j in range(n) if j != i):
            t = next((t for t in range(min(m, n) - 1) if D[t][t] and D[t + 1][t + 1] % D[t][t]), None)
            if t is None:
                break
            D[t] = [a + b for a, b in zip(D[t], D[t + 1])]
            U_cols[t + 1] = [a - b for a, b in zip(U_cols[t + 1], U_cols[t])]
        Uinv = [r[n:] for r in D]
        cols = [[r[j] for r in D] + c[m:] for j, c in enumerate(cols)]
    U = [list(r) for r in zip(*U_cols)]
    Vinv = [list(r) for r in zip(*(c[m:] for c in cols))]
    return SNFResult(U, [r[:n] for r in D], V, [r[n:] for r in D], Vinv)


# ---------------------------------------------------------------------------
# The strong Groebner engine for modules over Z[x_1..x_n]
# ---------------------------------------------------------------------------
#
# Engine vectors are dicts {term key: coeff}; a certificate is a dict of the
# same kind whose positions are input indices.  All coefficients are Python
# ints.  A term key packs (position, exponents) into one int: from the least
# significant end, one field per exponent holding _LIMIT - e (so a larger
# exponent of a later variable gives a smaller key, as degrevlex wants),
# then the total degree, then minus the position (the lower position wins).
# Every field has _FIELD_BITS bits, the top one a guard that a valid term
# leaves clear; integer order is the term order.  Multiplying a term by a
# monomial adds the difference of two keys, and lt(g) divides a term t iff
# key(g) - key(t) sets no exponent guard, since e_i(t) < e_i(g) borrows
# through the guard of field i.  A product whose exponent or degree passes
# _LIMIT sets a guard too, and raises EngineError where it is formed.


_FIELD_BITS = 16
_LIMIT = (1 << (_FIELD_BITS - 1)) - 1  # the largest exponent or degree a field holds


class _Packing:
    """Term keys over nvars engine variables."""

    __slots__ = ("shifts", "deg_shift", "top", "one", "exp_guard", "guard")

    def __init__(self, nvars: int):
        self.shifts = [i * _FIELD_BITS for i in range(nvars)]
        self.deg_shift = nvars * _FIELD_BITS
        self.top = self.deg_shift + _FIELD_BITS
        # the monomial 1 at position 0; the key offset of a monomial is key - one
        self.one = sum(_LIMIT << s for s in self.shifts)
        self.exp_guard = sum(1 << (s + _FIELD_BITS - 1) for s in self.shifts)
        self.guard = self.exp_guard | (1 << (self.top - 1))

    def pack(self, pos: int, exp: tuple[int, ...]) -> int:
        deg = sum(exp)
        if deg > _LIMIT:
            raise EngineError(f"degree {deg} passes the engine's bound of {_LIMIT}")
        key = (deg << self.deg_shift) + self.one - (pos << self.top)
        for e, s in zip(exp, self.shifts):
            key -= e << s
        return key

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        low = self.one - (key & ((1 << self.deg_shift) - 1))
        return -(key >> self.top), tuple([(low >> s) & _LIMIT for s in self.shifts])


@functools.cache
def _packing(nvars: int) -> _Packing:
    return _Packing(nvars)


def _iadd_scaled(acc: dict, offset: int, coeff: int, src: dict, guard: int) -> None:
    """acc += coeff * m * src, for the monomial m whose key offset is offset."""
    for key, c in src.items():
        key += offset
        if key & guard:
            raise EngineError(f"an exponent or degree passes the engine's bound of {_LIMIT}")
        s = acc.get(key, 0) + coeff * c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


class _GBElem:
    """A basis element with its leading key, coefficient, position and exponents."""

    __slots__ = ("vec", "cert", "key", "lc", "pos", "exp")

    def __init__(self, vec: dict, cert: dict | None, pk: _Packing):
        key = max(vec)
        if vec[key] < 0:
            vec = {k: -c for k, c in vec.items()}
            if cert is not None:
                cert = {k: -c for k, c in cert.items()}
        self.vec = vec
        self.cert = cert
        self.key = key
        self.lc = vec[key]
        self.pos, self.exp = pk.unpack(key)


def _positions(basis: list[_GBElem]) -> dict[int, list[int]]:
    """Basis indices grouped by leading position, in basis order."""
    out: dict[int, list[int]] = {}
    for i, g in enumerate(basis):
        out.setdefault(g.pos, []).append(i)
    return out


class _ModuleGB:
    """Strong Groebner basis with certificates and recorded syzygies.

    Completion processes every S-pair (lcm of leading terms) and G-pair
    (Bezout gcd of leading coefficients) of same-position basis elements;
    each zero reduction contributes a syzygy of the input columns.  After
    completion the inputs themselves are re-reduced, which contributes the
    remaining syzygy generators, and the basis is interreduced into a
    canonical form (sorted leading terms, positive leading coefficients,
    tails Euclidean-reduced).

    grown() copies a basis and admits more columns without certificates, so
    the copy answers contains() and nothing else.  Given a grading
    (variable weights, position shifts) and a degree bound, the copy
    processes only the pairs of module degree <= the bound: for homogeneous
    columns under positive weights, that decides membership up to the bound.
    """

    def __init__(self, nvars: int, columns: list[dict], grading: tuple | None = None):
        self.nvars = nvars
        self.pk = _packing(nvars)
        self.grading = grading
        self.max_degree: int | None = None
        self.certify = True
        self.basis: list[_GBElem] = []
        self.by_pos: dict[int, list[int]] = {}
        self.syzygies: list[dict] | None = []
        self._queue: list[tuple] = []
        units = [self.pk.pack(j, (0,) * nvars) for j in range(len(columns))]
        self._complete((dict(col), {unit: 1}) for col, unit in zip(columns, units))
        self._interreduce()
        for col, unit in zip(columns, units):
            if not col:
                continue
            cert = {unit: 1}
            if self._reduce(col, cert):
                raise EngineError(
                    "input column fails to reduce to zero against its own basis"
                )
            if cert:
                self.syzygies.append(cert)

    def grown(self, columns: list[dict], max_degree: int | None = None) -> _ModuleGB:
        """A copy with columns admitted and completed, certifying nothing."""
        out = _ModuleGB(self.nvars, [], self.grading)
        out.max_degree = max_degree
        out.certify = False
        out.basis = list(self.basis)
        out.by_pos = {pos: list(ix) for pos, ix in self.by_pos.items()}
        out._complete((dict(col), None) for col in columns)
        return out

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def _reduce(self, v: dict, cert: dict | None = None, skip: int = -1) -> dict:
        """Deterministic strong division; returns the remainder of v.

        A term c.X reduces against the first basis element g (other than
        basis[skip]) whose leading position matches, whose leading monomial
        divides X, and whose Euclidean quotient q = c // lc(g) is nonzero;
        remainders keep coefficients in [0, lc) of every dividing basis
        element, which makes normal forms canonical for a fixed basis order.
        With cert given, q * cert(g) is subtracted from it for every such step.
        """
        basis, by_pos = self.basis, self.by_pos
        top, divides, guard = self.pk.top, self.pk.exp_guard, self.pk.guard
        work = dict(v)
        remainder: dict = {}
        while work:
            key = max(work)
            c = work[key]
            for bi in by_pos.get(-(key >> top), ()):
                g = basis[bi]
                if (g.key - key) & divides or bi == skip:
                    continue
                q = c // g.lc
                if q:
                    break
            else:
                remainder[key] = c
                del work[key]
                continue
            offset = key - g.key
            _iadd_scaled(work, offset, -q, g.vec, guard)
            if cert is not None:
                _iadd_scaled(cert, offset, -q, g.cert, guard)
        return remainder

    def _complete(self, admissions) -> None:
        """Admit (vector, certificate) pairs, then reduce every pair they make."""
        for vec, cert in admissions:
            self._reduce_and_admit(vec, cert)
        while self._queue:
            _, kind, i, j = heapq.heappop(self._queue)
            if i >= len(self.basis) or j >= len(self.basis):
                raise EngineError("pair references a missing basis element")
            vec, cert = self._build_pair(kind, i, j)
            # A pair that cancels outright still certifies a syzygy, so it
            # goes through the same admission path as everything else.
            self._reduce_and_admit(vec, cert)

    def _register_pairs(self, t: int) -> None:
        g = self.basis[t]
        same = self.by_pos.setdefault(g.pos, [])
        for i in same:
            h = self.basis[i]
            lcm = tuple(map(max, h.exp, g.exp))
            if self.max_degree is not None:
                weights, shifts = self.grading
                degree = sum(w * e for w, e in zip(weights, lcm)) - shifts[g.pos]
                if degree > self.max_degree:
                    continue
            key = (sum(lcm), lcm, i, t)
            heapq.heappush(self._queue, (key, "s", i, t))
            if h.lc % g.lc != 0 and g.lc % h.lc != 0:
                heapq.heappush(self._queue, (key, "g", i, t))
        same.append(t)

    def _build_pair(self, kind: str, i: int, j: int) -> tuple[dict, dict | None]:
        gi, gj = self.basis[i], self.basis[j]
        lcm = self.pk.pack(gi.pos, tuple(map(max, gi.exp, gj.exp)))
        if kind == "s":
            g = gi.lc * gj.lc // _xgcd(gi.lc, gj.lc)[0]
            ci, cj = g // gi.lc, -(g // gj.lc)
        else:
            _, ci, cj = _xgcd(gi.lc, gj.lc)
        guard = self.pk.guard
        vec: dict = {}
        _iadd_scaled(vec, lcm - gi.key, ci, gi.vec, guard)
        _iadd_scaled(vec, lcm - gj.key, cj, gj.vec, guard)
        if not self.certify:
            return vec, None
        cert: dict = {}
        _iadd_scaled(cert, lcm - gi.key, ci, gi.cert, guard)
        _iadd_scaled(cert, lcm - gj.key, cj, gj.cert, guard)
        return vec, cert

    def _reduce_and_admit(self, vec: dict, cert: dict | None) -> None:
        rem = self._reduce(vec, cert)
        if not rem:
            if cert:
                self.syzygies.append(cert)
            return
        self.basis.append(_GBElem(rem, cert, self.pk))
        self._register_pairs(len(self.basis) - 1)

    def _interreduce(self) -> None:
        # Sorting by (term, coefficient) puts every potential strong divisor
        # before the elements it divides, ties included.
        divides = self.pk.exp_guard
        kept: list[_GBElem] = []
        for g in sorted(self.basis, key=lambda g: (g.key, g.lc)):
            if not any(
                h.pos == g.pos and not (h.key - g.key) & divides and g.lc % h.lc == 0
                for h in kept
            ):
                kept.append(g)
        self.basis = kept
        self.by_pos = _positions(kept)
        changed = True
        while changed:
            changed = False
            for idx, g in enumerate(kept):
                cert = dict(g.cert)
                rem = self._reduce(g.vec, cert, skip=idx)
                if rem != g.vec:
                    if not rem:
                        raise EngineError("interreduction killed a basis element")
                    kept[idx] = _GBElem(rem, cert, self.pk)
                    if kept[idx].key != g.key:
                        self.by_pos = _positions(kept)
                    changed = True


# ---------------------------------------------------------------------------
# Column spans: one membership interface over all three ring kinds
# ---------------------------------------------------------------------------


class _IntBackend:
    """Blockwise reduced Hermite forms over the integers.

    Columns are grouped by grading class (exact shift for Z grading, parity
    for Z/2); each class touches a disjoint set of rows, so membership,
    certificates, and kernels decompose blockwise and stay homogeneous.  A
    block is (rows, cols, pivot rows, basis, kernel): each basis vector is a
    Hermite column h of the block's matrix A followed by its transform t,
    A.t = h, and the kernel is in Hermite form as well.  A column to reduce
    is read as sparse integers, and only the blocks it touches are reduced.

    solve_column projects nothing, so it reads neither source nor k.  When
    the column belongs to a map g of the degree of the span's map plus the
    requested one, it lies in the rows of one grading class, its
    certificate lies in the block of that class, and every span column of
    that block has the source shift class that makes its entry of a map of
    the requested degree homogeneous: the certificate is already the
    component of module degree k.
    """

    def __init__(self, ambient: GradedFreeModule, columns: list[Vector]):
        self.ambient = ambient
        self.columns = columns
        ring = ambient.ring
        # class None holds the zero columns: a block of no rows, whose kernel comes first
        class_cols: dict[int | None, list[int]] = {None: []}
        for j, col in enumerate(columns):
            k = ambient.vector_degree(col)
            if k is INHOMOGENEOUS:
                raise EngineError("integer-backend columns must be homogeneous")
            c = None if k is ANY_DEGREE else ring.reduce_degree(-k)
            class_cols.setdefault(c, []).append(j)
        class_rows: dict[int, list[int]] = {}
        for i, n in enumerate(ambient.shifts):
            class_rows.setdefault(ring.reduce_degree(n), []).append(i)
        self.blocks: list[tuple] = []
        for c in [None] + sorted(class_cols.keys() - {None}):
            rows, cols = class_rows.get(c, []), class_cols[c]
            if any(columns[j][i] for j in cols for i in range(ambient.rank) if i not in rows):
                raise EngineError("column escapes its grading block")
            if not cols:  # the block of zero columns, often empty
                self.blocks.append((rows, cols, [], [], []))
                continue
            vecs = [
                [columns[j][i].coefficient(()) for i in rows] + unit
                for j, unit in zip(cols, _eye(len(cols)))
            ]
            pivots = _hermite(vecs, len(rows))
            kernel = [v[len(rows) :] for v in vecs[len(pivots) :]]
            _hermite(kernel, len(cols))
            self.blocks.append((rows, cols, pivots, vecs[: len(pivots)], kernel))
        # ambient row -> (its block, its place in the block); a row of no block is absent
        self._place = {i: (b, r) for b, block in enumerate(self.blocks) for r, i in enumerate(block[0])}

    def _reduce(self, column: dict[int, RingElement], certify: bool) -> tuple[dict[int, int], dict[int, int]]:
        """The remainder and certificate of a sparse column, as sparse integers.

        Each touched block walks its pivots in order: at each pivot q.(h, t)
        is subtracted, q the floor quotient there, so the remainder lies in
        [0, pivot) at pivot rows; without certify the certificate stays
        empty and zip stops each subtraction at the rows.
        """
        rem: dict[int, int] = {}
        cert: dict[int, int] = {}
        works: dict[int, list[int]] = {}
        for i, e in column.items():
            place = self._place.get(i)
            if place is None:
                rem[i] = e.coefficient(())
                continue
            b, r = place
            work = works.get(b)
            if work is None:
                rows, cols = self.blocks[b][:2]
                work = works[b] = [0] * (len(rows) + len(cols) if certify else len(rows))
            work[r] = e.coefficient(())
        for b, work in works.items():
            rows, cols, pivots, basis, _ = self.blocks[b]
            for p, vec in zip(pivots, basis):
                q = work[p] // vec[p]
                if q:
                    work = [a - q * c for a, c in zip(work, vec)]
            for i, a in zip(rows, work):
                if a:
                    rem[i] = a
            for j, a in zip(cols, work[len(rows) :]):
                if a:
                    cert[j] = -a
        return rem, cert

    def normal_form(self, v: Vector) -> tuple[Vector, list[RingElement]]:
        rem, cert = self._reduce(_nonzero(v), True)
        const = self.ambient.ring.const
        return (
            tuple(const(rem.get(i, 0)) for i in range(self.ambient.rank)),
            [const(cert.get(j, 0)) for j in range(len(self.columns))],
        )

    def inside(self, column: dict[int, RingElement]) -> bool:
        return not self._reduce(column, False)[0]

    def solve_column(self, column: dict[int, RingElement], source: GradedFreeModule, k: int) -> dict | None:
        rem, cert = self._reduce(column, True)
        const = self.ambient.ring.const
        return None if rem else {j: const(a) for j, a in cert.items()}

    def _embed(self, length: int, parts) -> list[tuple[RingElement, ...]]:
        """Each (indices, entries) pair as a vector of the given length."""
        out = []
        for indices, entries in parts:
            full = [0] * length
            for i, c in zip(indices, entries):
                full[i] = c
            out.append(tuple(map(self.ambient.ring.const, full)))
        return out

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        kernels = [(cols, k) for _, cols, _, _, kernel in self.blocks for k in kernel]
        return self._embed(len(self.columns), kernels)

    def basis_vectors(self) -> list[Vector]:
        return self._embed(self.ambient.rank, [(b[0], h) for b in self.blocks for h in b[3]])


def _engine_nvars(ring: RingSpec) -> int:
    return 2 * ring.nvars if ring.kind == LAURENT else ring.nvars


def _nonzero(v: Vector) -> dict[int, RingElement]:
    """A vector's nonzero entries by position: the sparse column the backends read."""
    return {i: e for i, e in enumerate(v) if e}


def _to_engine(ring: RingSpec, entries) -> dict:
    """The engine vector of (position, ring element) pairs."""
    pk = _packing(_engine_nvars(ring))
    out: dict = {}
    for pos, entry in entries:
        for exp, c in entry.items():
            if ring.kind == LAURENT:
                exp = tuple(max(e, 0) for e in exp) + tuple(max(-e, 0) for e in exp)
            out[pk.pack(pos, exp)] = c
    return out


def _unit_columns(ambient: GradedFreeModule) -> list[dict]:
    """The columns (x_i*y_i - 1)*e_k of a Laurent ring; none for other rings."""
    ring = ambient.ring
    if ring.kind != LAURENT:
        return []
    n = ring.nvars
    pk = _packing(2 * n)
    out = []
    for k in range(ambient.rank):
        for i in range(n):
            unit = tuple(1 if t in (i, n + i) else 0 for t in range(2 * n))
            out.append({pk.pack(k, unit): 1, pk.pack(k, (0,) * (2 * n)): -1})
    return out


class _PolyBackend:
    """The strong Groebner engine, over a polynomial or a Laurent ring.

    A Laurent exponent e enters the engine as the pair (max(e, 0), max(-e, 0))
    over twice the variables and leaves as their difference, and the columns
    (x_i*y_i - 1)*e_k join the inputs; certificates and syzygies keep only
    the entries of the caller's columns, since the added ones vanish.
    """

    def __init__(self, ambient: GradedFreeModule, columns: list[Vector]):
        self.ambient = ambient
        self.columns = columns
        self.ring = ambient.ring
        self.laurent = self.ring.kind == LAURENT
        engine_cols = [_to_engine(self.ring, enumerate(c)) for c in columns] + _unit_columns(ambient)
        self.gb = _ModuleGB(_engine_nvars(self.ring), engine_cols)

    def _element(self, terms: dict) -> RingElement:
        """The ring element of a fresh, zero-free dict of engine exponents."""
        if self.laurent:
            n = self.ring.nvars
            merged: dict = {}
            for exp, c in terms.items():
                key = tuple(a - b for a, b in zip(exp[:n], exp[n:]))
                merged[key] = merged.get(key, 0) + c
            terms = {exp: c for exp, c in merged.items() if c}
        return RingElement._clean(self.ring, terms)

    def _vector(self, vec: dict, length: int) -> Vector:
        """Positions 0..length-1 of an engine vector or certificate, as ring elements."""
        per_pos: list[dict] = [dict() for _ in range(length)]
        for key, c in vec.items():
            pos, exp = self.gb.pk.unpack(key)
            if pos < length:
                per_pos[pos][exp] = c
        zero = self.ring.zero()  # elements are immutable, so the zero entries share one
        return tuple(self._element(d) if d else zero for d in per_pos)

    def _certificate(self, entries) -> tuple[dict, Vector]:
        """The engine remainder and the certificate of (position, element) pairs."""
        cert: dict = {}
        rem = self.gb._reduce(_to_engine(self.ring, entries), cert)
        # _reduce subtracts the quotients' certificates: v = rem - sum(cert_j column_j)
        return rem, self._vector({k: -c for k, c in cert.items()}, len(self.columns))

    def normal_form(self, v: Vector) -> tuple[Vector, list[RingElement]]:
        rem, certificate = self._certificate(enumerate(v))
        return self._vector(rem, self.ambient.rank), list(certificate)

    def inside(self, column: dict[int, RingElement]) -> bool:
        return self.gb.contains(_to_engine(self.ring, column.items()))

    def solve_column(self, column: dict[int, RingElement], source: GradedFreeModule, k: int) -> dict | None:
        rem, certificate = self._certificate(column.items())
        return None if rem else _nonzero(source.vector_component(certificate, k))

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        # ColumnSpan converts once and keeps the result, so the certificates go
        certs, self.gb.syzygies = self.gb.syzygies, None
        vectors = [self._vector(cert, len(self.columns)) for cert in certs]
        return [vec for vec in vectors if any(vec)]

    def basis_vectors(self) -> list[Vector]:
        # x_i*y_i - 1 and its multiples are basis elements that vanish here
        out = []
        for g in self.gb.basis:
            v = self._vector(g.vec, self.ambient.rank)
            if any(v):
                out.append(v)
        return out


class ColumnSpan:
    """The submodule generated by a list of columns of a graded free module.

    normal_form(v) returns (remainder, certificate) with
    v = sum(certificate[j] * column_j) + remainder, remainder zero iff v lies
    in the span; contains(v) answers that without building the certificate.
    Two calls answer for a whole matrix g at once, read off its sparse rows:
    first_outside(g) returns the index of the first column of g outside the
    span, or None when every column lies in it; g may also be a list of
    vectors over the ambient ring, already coerced.  solve(g, degree) returns
    the map X of that degree with (span columns) . X = g, each column of X
    the certificate of g's column projected to its forced homogeneous
    component (over the integers it has no other), and raises EngineError
    naming the first column of g outside the span.  X maps into the free
    module that indexes the columns, which only the spans that column_span
    builds know (as source), so solve needs one of those.

    Results are deterministic for a fixed column order.  The kernel
    generators are fixed at construction; the first syzygy_vectors() call
    converts the nonzero ones to ring elements and keeps them, and every
    call returns a fresh list of them.  A span used only for membership
    never converts.  The span of a matrix's columns is built once, by
    column_span, and kept on the matrix.
    """

    def __init__(self, ambient: GradedFreeModule, columns: list[Vector]):
        self.ambient = ambient
        self.columns = [ambient.coerce_vector(c) for c in columns]
        self.source: GradedFreeModule | None = None
        self._kernel: tuple[tuple[RingElement, ...], ...] | None = None
        if ambient.ring.kind == INTEGERS:
            self._backend = _IntBackend(ambient, self.columns)
        else:
            self._backend = _PolyBackend(ambient, self.columns)

    def normal_form(self, v) -> tuple[Vector, list[RingElement]]:
        return self._backend.normal_form(self.ambient.coerce_vector(v))

    def contains(self, v) -> bool:
        return self._backend.inside(_nonzero(self.ambient.coerce_vector(v)))

    def _sparse_columns(self, g) -> list[dict[int, RingElement]]:
        if not isinstance(g, GradedMatrixHom):
            return [_nonzero(v) for v in g]
        if g.target != self.ambient:
            raise ValueError(f"a map into {g.target} is not a map into {self.ambient}")
        columns: list[dict[int, RingElement]] = [{} for _ in range(g.source.rank)]
        for i, row in enumerate(g._rows):
            for j, e in row.items():
                columns[j][i] = e
        return columns

    def first_outside(self, g) -> int | None:
        inside = self._backend.inside
        return next((j for j, c in enumerate(self._sparse_columns(g)) if not inside(c)), None)

    def solve(self, g: GradedMatrixHom, degree: int) -> GradedMatrixHom:
        if self.source is None:
            raise ValueError("solve needs the span of a map's columns, from column_span")
        rows: list[dict[int, RingElement]] = [{} for _ in self.columns]
        for c, column in enumerate(self._sparse_columns(g)):
            cert = self._backend.solve_column(column, self.source, degree - g.source.shifts[c])
            if cert is None:
                raise EngineError(f"column {c} lies outside the span: no solution")
            for j, e in cert.items():
                rows[j][c] = e
        return GradedMatrixHom._closed(g.source, self.source, degree, rows)

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        if self._kernel is None:
            self._kernel = tuple(self._backend.syzygy_vectors())
        return list(self._kernel)

    def basis_vectors(self) -> list[Vector]:
        return self._backend.basis_vectors()


def prune_columns(
    ambient: GradedFreeModule, columns: list
) -> tuple[list[Vector], list[int]]:
    """Drop columns lying in the span of the others (greedy, deterministic).

    The greedy pass visits the columns in index order and drops each one
    that lies in the span of the other columns still kept; over Z each test
    is one Hermite membership.  In a polynomial ring graded by Z with every
    variable of positive degree, a homogeneous column of degree d lies in a
    span iff it lies in the span of that span's columns of degree <= d, and
    dropping a column never changes the span of the kept columns of degree
    <= e, for any e.  So the decision on a degree-d column depends only on
    N_<d, the span of all columns of lower degree, and on the kept columns
    of degree d: the groups of equal degree are taken in increasing degree
    against one growing Groebner basis of N_<d, truncated at the largest
    column degree, and each group is one pass (_lattice_greedy): the degree
    0 part of the ring is Z, so the greedy choice within a group is a
    Z-lattice question about its remainders modulo N_<d, answered by the
    Hermite form.  A group whose remainders keep a residue term falls back
    to the greedy pass with one completion per column, truncated at d, since
    for homogeneous input a strong basis truncated at degree d decides
    membership in degrees <= d.  Every other ring or input forms one group,
    on which this is the plain greedy pass.  The kept indices are the same
    either way.
    """
    cols = [ambient.coerce_vector(c) for c in columns]
    ring = ambient.ring
    if ring.kind == INTEGERS:
        kept = list(range(len(cols)))
        for j in range(len(cols)):
            others = [cols[k] for k in kept if k != j]
            if others and _IntBackend(ambient, others).inside(_nonzero(cols[j])):
                kept.remove(j)
        return [cols[k] for k in kept], kept
    engine = [_to_engine(ring, enumerate(c)) for c in cols]
    groups = _degree_groups(ambient, cols)
    top = groups[-1][0] if groups else None
    lower = _ModuleGB(_engine_nvars(ring), [], (ring.var_degrees, ambient.shifts))
    lower = lower.grown(_unit_columns(ambient), top)
    kept = []
    for g, (degree, group) in enumerate(groups):
        survivors = None if degree is None else _lattice_greedy(lower, [engine[j] for j in group])
        if survivors is not None:
            group = [group[i] for i in survivors]
        else:
            if g:
                group = [j for j in group if not lower.contains(engine[j])]
            for j in list(group):
                # alone in a later group, a column was just tested against N_<d
                others = [engine[k] for k in group if k != j]
                if others and lower.grown(others, degree).contains(engine[j]):
                    group.remove(j)
        kept.extend(group)
        if g + 1 < len(groups):
            # with N_<d, the kept columns span what the whole group does
            lower = lower.grown([engine[k] for k in group], top)
    kept.sort()
    return [cols[k] for k in kept], kept


def _lattice_greedy(lower: _ModuleGB, vecs: list[dict]) -> list[int] | None:
    """The greedy pass over one degree group as a Z-lattice question.

    vecs are the group's engine columns, all of one degree d, and lower is a
    strong basis of N_<d truncated at or above d.  Returns the indices the
    greedy pass keeps, or None when no lattice decides it.

    Each column is reduced once against lower; a zero remainder is dropped.
    When no remainder term is divisible, monomial only, by a leading term of
    lower, no nonzero Z-combination of remainders lies in N_<d, since its
    leading term would be; then a column c lies in N_<d + span(others) iff
    some vector of the remainders' integer kernel K is 1 at c and 0 at
    every column dropped before c.  A remainder term that a leading term of
    lower divides keeps a residue that a combination can clear, which no
    lattice over the remainders' terms sees: that group returns None.

    Remainders that share no term, even through others, have independent
    kernels, so each block of them is walked on its own.  One Hermite form
    of a block, its columns inserted last first, leaves an echelon basis of
    K in the transforms of the columns that vanish: each starts at its own
    column.  Walking the block in index order, only the basis vector that
    starts at c and the vectors carried from kept columns can be nonzero at
    c.  If their entries at c have gcd 1, c is dropped: an xgcd chain leaves
    one vector with a unit at c, which goes, and the rest vanish at c and
    are carried on.  Otherwise c is kept and its basis vector is carried, to
    be read only after c.  The carried vectors number at most the kept
    columns.
    """
    remainders = [lower._reduce(v) for v in vecs]
    live = [i for i, rem in enumerate(remainders) if rem]
    if len(live) < 2:  # alone, a column is dropped iff it lies in N_<d
        return live
    basis, by_pos, divides, top = lower.basis, lower.by_pos, lower.pk.exp_guard, lower.pk.top
    if any(
        not (basis[b].key - key) & divides
        for i in live
        for key in remainders[i]
        for b in by_pos.get(-(key >> top), ())
    ):
        return None
    # union-find over the columns: two sharing a term join one block
    root = list(range(len(vecs)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    owner: dict[int, int] = {}  # term key -> a column holding it
    for i in live:
        for key in remainders[i]:
            root[find(i)] = find(owner.setdefault(key, i))
    blocks: dict[int, list[int]] = {}
    for i in live:
        blocks.setdefault(find(i), []).append(i)
    kept = []
    for block in blocks.values():
        if len(block) == 1:  # a nonzero remainder alone has no kernel
            kept += block
            continue
        keys = sorted(set().union(*(remainders[i] for i in block)))
        units = reversed(_eye(len(block)))
        lattice = [[remainders[i].get(key, 0) for key in keys] + unit for i, unit in zip(reversed(block), units)]
        transforms = [v[len(keys) :] for v in lattice[len(_hermite(lattice, len(keys))) :]]
        starts = {next(c for c, a in enumerate(k) if a): k for k in transforms}
        carried: list[list[int]] = []
        for c, i in enumerate(block):
            start = starts.get(c)
            here = [k for k in carried if k[c]] + ([start] if start else [])
            if math.gcd(*(k[c] for k in here)) != 1:
                kept.append(i)
                if start:
                    carried.append(start)
                continue
            here.sort(key=lambda k: abs(k[c]))  # a unit first makes each step a plain reduction
            pivot, carried = here[0], [k for k in carried if not k[c]]
            for k in here[1:]:
                g, s, t = _xgcd(pivot[c], k[c])
                x, y = pivot[c] // g, k[c] // g
                pivot, k = [s * p + t * q for p, q in zip(pivot, k)], [x * q - y * p for p, q in zip(pivot, k)]
                carried.append(k)
    return sorted(kept)


def _degree_groups(
    ambient: GradedFreeModule, cols: list[Vector]
) -> list[tuple[int | None, list[int]]]:
    """(degree, column indices) in increasing degree.

    Laurent rings, Z/2 grading, variables of degree <= 0, and zero or
    inhomogeneous columns put every column into one group, of degree None.
    """
    ring = ambient.ring
    degrees = [ambient.vector_degree(c) for c in cols]
    if (
        ring.kind == LAURENT
        or ring.grading != GRADING_Z
        or any(w <= 0 for w in ring.var_degrees)
        or not all(isinstance(d, int) for d in degrees)
    ):
        return [(None, list(range(len(cols))))]
    by_degree: dict[int, list[int]] = {}
    for j, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(j)
    return [(d, by_degree[d]) for d in sorted(by_degree)]


def column_span(f: GradedMatrixHom) -> ColumnSpan:
    """The span of f's columns in f.target, with f.source as its source,
    built on first use and kept on f."""
    if f._span is None:
        span = ColumnSpan(f.target, f.columns())
        span.source = f.source
        f._span = span
    return f._span


# No caller in the package: kept for the tracer of perfbench/layers.py, which wraps it.
def kernel_columns(ambient: GradedFreeModule, columns: list) -> list[tuple[RingElement, ...]]:
    """Generators of {c : sum c_j * column_j = 0}, as tuples over the ring."""
    return ColumnSpan(ambient, list(columns)).syzygy_vectors()


def syzygies(f: GradedMatrixHom, prune: bool = True) -> GradedMatrixHom:
    """The kernel of f, packaged as a degree-1 map onto its generators.

    Each kernel generator is homogeneous as an element of f.source; the
    resolution convention (freemod._relation_shifts) gives it source shift
    1 - (its module degree), so the map has degree exactly 1 and builds
    unchecked.  The kernel is read off column_span(f), which stays on f.
    """
    vectors = column_span(f).syzygy_vectors()
    if prune and vectors and f.ring.kind != INTEGERS:
        vectors, _ = prune_columns(f.source, vectors)
    source = GradedFreeModule(f.ring, _relation_shifts(f.source, vectors, 1))
    return _from_columns(source, f.source, 1, vectors)
