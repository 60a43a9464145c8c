"""Exact membership, normal forms, and syzygies for column spans.

Two backends sit behind one interface.  Over the integers, Smith normal form
(with all four unimodular transforms tracked) answers membership and kernel
questions block-by-block along the grading.  Over polynomial and Laurent
rings, one engine class does the same work with a strong Groebner basis for
modules over Z[x_1..x_n]: leading terms of submodule elements are divisible,
coefficient and monomial both, by a basis leading term, so normal forms
certify membership.  The term order is fixed once and for all:
position-over-term (lower index wins) with degree-reverse-lexicographic
monomials; it is not configurable.  Inside the engine a term is one packed
integer whose integer order is that term order, every basis element keeps
its leading term, and the basis is indexed by leading position, so that a
division step scans only the elements at the term's own position.  An
exponent or degree past 32767 raises EngineError instead of wrapping.

Greedy pruning (prune_columns) asks, column by column, whether a column lies
in the span of others.  When the columns are grouped by degree, each such
test completes its basis only up to the degree of the column it asks about.

A Laurent ring enters the same engine with a formal inverse y_i for every
variable x_i and the relation columns (x_i*y_i - 1)*e_k appended for every
coordinate; answers map back along y_i -> x_i^-1.  Rescaling columns by
unit monomials alone would compute membership in the wrong module (the
polynomial span is not saturated), so the inverse variables are essential.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

from .freemod import GradedFreeModule, GradedMatrixHom, Vector, hom_from_columns
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
# Integer matrices: Smith normal form and exact determinants
# ---------------------------------------------------------------------------


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_determinant(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(rows)
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
    """Diagonalize an integer matrix, tracking all four transforms."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    D = [list(r) for r in rows]
    U, Uinv = _eye(m), _eye(m)
    V, Vinv = _eye(n), _eye(n)

    def row_swap(i: int, j: int) -> None:
        D[i], D[j] = D[j], D[i]
        for r in U:
            r[i], r[j] = r[j], r[i]
        Uinv[i], Uinv[j] = Uinv[j], Uinv[i]

    def row_add(i: int, j: int, k: int) -> None:
        # row_i += k * row_j
        D[i] = [a + k * b for a, b in zip(D[i], D[j])]
        for r in U:
            r[j] -= k * r[i]
        Uinv[i] = [a + k * b for a, b in zip(Uinv[i], Uinv[j])]

    def row_negate(i: int) -> None:
        D[i] = [-a for a in D[i]]
        for r in U:
            r[i] = -r[i]
        Uinv[i] = [-a for a in Uinv[i]]

    def col_swap(i: int, j: int) -> None:
        for r in D:
            r[i], r[j] = r[j], r[i]
        V[i], V[j] = V[j], V[i]
        for r in Vinv:
            r[i], r[j] = r[j], r[i]

    def col_add(j: int, i: int, k: int) -> None:
        # col_j += k * col_i
        for r in D:
            r[j] += k * r[i]
        V[i] = [a - k * b for a, b in zip(V[i], V[j])]
        for r in Vinv:
            r[j] += k * r[i]

    def diagonalize() -> None:
        t = 0
        while t < min(m, n):
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = D[i][j]
                    if v != 0 and (best is None or abs(v) < abs(D[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(best[0], t)
            if best[1] != t:
                col_swap(best[1], t)
            while True:
                progress = False
                for i in range(m):
                    if i != t and D[i][t] != 0:
                        q = D[i][t] // D[t][t]
                        if q:
                            row_add(i, t, -q)
                        if D[i][t] != 0:
                            row_swap(i, t)
                            progress = True
                for j in range(n):
                    if j != t and D[t][j] != 0:
                        q = D[t][j] // D[t][t]
                        if q:
                            col_add(j, t, -q)
                        if D[t][j] != 0:
                            col_swap(j, t)
                            progress = True
                if not progress:
                    clear_col = all(D[i][t] == 0 for i in range(m) if i != t)
                    clear_row = all(D[t][j] == 0 for j in range(n) if j != t)
                    if clear_col and clear_row:
                        break
            if D[t][t] < 0:
                row_negate(t)
            t += 1

    diagonalize()
    while True:
        violation = None
        for t in range(min(m, n) - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a != 0 and b % a != 0:
                violation = t
                break
        if violation is None:
            break
        col_add(violation, violation + 1, 1)
        diagonalize()
    return SNFResult(U, D, V, Uinv, Vinv)


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
        self.syzygies: list[dict] = []
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


class _SNFBlock:
    """One grading block of the integer backend, kept to what queries need.

    With M = U.D.V the Smith form of the block's matrix and d_1..d_r its
    nonzero diagonal entries, the first r rows of U^-1 give the coordinates
    that the d_i divide and V^-1 maps the quotients to column coefficients.
    Remainders and basis vectors come from M itself, since U.D = M.V^-1
    and U.(U^-1 v - D x) = v - M.V^-1 x; U and V are not kept.
    """

    __slots__ = ("rows", "cols", "mat_columns", "uinv", "diag", "vinv")

    def __init__(self, rows: list[int], cols: list[int], mat: list[list[int]]):
        snf = smith_normal_form(mat)
        self.rows = rows
        self.cols = cols
        self.mat_columns = list(zip(*mat))
        self.diag = [d for d in snf.diagonal if d]
        self.uinv = snf.Uinv[: len(self.diag)]
        self.vinv = snf.Vinv

    def combine(self, coeffs: list[int]) -> list[int]:
        """M.coeffs, over the block's rows."""
        out = [0] * len(self.rows)
        for c, column in zip(coeffs, self.mat_columns):
            if c:
                out = [a + c * b for a, b in zip(out, column)]
        return out


class _IntBackend:
    """Blockwise Smith normal form over the integers.

    Columns are grouped by grading class (exact shift for Z grading, parity
    for Z/2); each class touches a disjoint set of rows, so membership,
    certificates, and kernels decompose blockwise and stay homogeneous.
    """

    def __init__(self, ambient: GradedFreeModule, columns: list[Vector]):
        self.ambient = ambient
        self.columns = columns
        ring = ambient.ring
        self.zero_column_indices: list[int] = []
        class_cols: dict[int, list[int]] = {}
        for j, col in enumerate(columns):
            k = ambient.vector_degree(col)
            if k is ANY_DEGREE:
                self.zero_column_indices.append(j)
                continue
            if k is INHOMOGENEOUS:
                raise EngineError("integer-backend columns must be homogeneous")
            class_cols.setdefault(ring.reduce_degree(-k), []).append(j)
        class_rows: dict[int, list[int]] = {}
        for i, n in enumerate(ambient.shifts):
            class_rows.setdefault(ring.reduce_degree(n), []).append(i)
        self.blocks: list[_SNFBlock] = []
        for c in sorted(class_cols):
            rows = class_rows.get(c, [])
            cols = class_cols[c]
            for j in cols:
                for i in range(ambient.rank):
                    if i not in rows and columns[j][i]:
                        raise EngineError("column escapes its grading block")
            mat = [
                [columns[j][i].coefficient((0,) * ring.nvars) for j in cols]
                for i in rows
            ]
            self.blocks.append(_SNFBlock(rows, cols, mat))

    def normal_form(self, v: Vector) -> tuple[Vector, list[RingElement]]:
        ring = self.ambient.ring
        zero_exp = (0,) * ring.nvars
        rem = [entry.coefficient(zero_exp) for entry in v]
        cert = [0] * len(self.columns)
        for block in self.blocks:
            sub = [rem[i] for i in block.rows]
            x = [0] * len(block.cols)
            for i, (row, d) in enumerate(zip(block.uinv, block.diag)):
                x[i] = sum(a * b for a, b in zip(row, sub)) // d
            coeffs = [sum(a * b for a, b in zip(row, x)) for row in block.vinv]
            for i, r in zip(block.rows, block.combine(coeffs)):
                rem[i] -= r
            for local, j in enumerate(block.cols):
                cert[j] = coeffs[local]
        remainder = tuple(ring.const(c) for c in rem)
        certificate = [ring.const(c) for c in cert]
        return remainder, certificate

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        ring = self.ambient.ring
        s = len(self.columns)
        out: list[tuple[RingElement, ...]] = []
        for j in self.zero_column_indices:
            out.append(
                tuple(ring.const(1 if k == j else 0) for k in range(s))
            )
        for block in self.blocks:
            for k in range(len(block.diag), len(block.cols)):
                full = [0] * s
                for local, j in enumerate(block.cols):
                    full[j] = block.vinv[local][k]
                if any(full):
                    out.append(tuple(ring.const(c) for c in full))
        return out

    def drop_syzygies(self) -> None:
        """Nothing is recorded: syzygies come from the Smith forms on demand."""

    def basis_vectors(self) -> list[Vector]:
        ring = self.ambient.ring
        out: list[Vector] = []
        for block in self.blocks:
            for k in range(len(block.cols)):
                # column k of U.D, which is M.V^-1
                col = block.combine([row[k] for row in block.vinv])
                if not any(col):
                    continue
                full = [0] * self.ambient.rank
                for local, i in enumerate(block.rows):
                    full[i] = col[local]
                out.append(tuple(ring.const(c) for c in full))
        return out


def _engine_nvars(ring: RingSpec) -> int:
    return 2 * ring.nvars if ring.kind == LAURENT else ring.nvars


def _to_engine(ring: RingSpec, v: Vector) -> dict:
    pk = _packing(_engine_nvars(ring))
    out: dict = {}
    for pos, entry in enumerate(v):
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
        # one shared zero: most entries of syzygies and certificates are zero
        self.zero = self.ring.zero()
        engine_cols = [_to_engine(self.ring, c) for c in columns] + _unit_columns(ambient)
        self.gb = _ModuleGB(_engine_nvars(self.ring), engine_cols)

    def _element(self, terms: dict) -> RingElement:
        if not terms:
            return self.zero
        if not self.laurent:
            return RingElement(self.ring, terms)
        n = self.ring.nvars
        merged: dict = {}
        for exp, c in terms.items():
            key = tuple(a - b for a, b in zip(exp[:n], exp[n:]))
            merged[key] = merged.get(key, 0) + c
        return RingElement(self.ring, merged)

    def _vector(self, vec: dict, length: int) -> Vector:
        """Positions 0..length-1 of an engine vector or certificate, as ring elements."""
        per_pos: list[dict] = [dict() for _ in range(length)]
        for key, c in vec.items():
            pos, exp = self.gb.pk.unpack(key)
            if pos < length:
                per_pos[pos][exp] = c
        return tuple(self._element(d) for d in per_pos)

    def normal_form(self, v: Vector) -> tuple[Vector, list[RingElement]]:
        cert: dict = {}
        rem = self.gb._reduce(_to_engine(self.ring, v), cert)
        # _reduce subtracts the quotients' certificates: v = rem - sum(cert_j column_j)
        certificate = self._vector({k: -c for k, c in cert.items()}, len(self.columns))
        return self._vector(rem, self.ambient.rank), list(certificate)

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        if self.gb.syzygies is None:
            raise EngineError("the syzygies of this span were dropped")
        out = []
        for cert in self.gb.syzygies:
            vec = self._vector(cert, len(self.columns))
            if any(vec):
                out.append(vec)
        return out

    def drop_syzygies(self) -> None:
        self.gb.syzygies = None

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
    in the span.  Results are deterministic for a fixed column order.
    """

    def __init__(self, ambient: GradedFreeModule, columns: list[Vector]):
        self.ambient = ambient
        self.columns = [ambient.coerce_vector(c) for c in columns]
        if ambient.ring.kind == INTEGERS:
            self._backend = _IntBackend(ambient, self.columns)
        else:
            self._backend = _PolyBackend(ambient, self.columns)
        self._syz: list[tuple[RingElement, ...]] | None = None

    def normal_form(self, v) -> tuple[Vector, list[RingElement]]:
        return self._backend.normal_form(self.ambient.coerce_vector(v))

    def contains(self, v) -> bool:
        remainder, _ = self.normal_form(v)
        return all(e.is_zero() for e in remainder)

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        if self._syz is None:
            self._syz = self._backend.syzygy_vectors()
        return self._syz

    def drop_syzygies(self) -> None:
        """Free the syzygies recorded while the span was built.

        For a span kept for membership and certificates alone: over
        polynomial and Laurent rings the recorded syzygies can take as much
        memory as the basis, and syzygy_vectors() raises EngineError after
        this unless it was asked before.
        """
        self._backend.drop_syzygies()

    def basis_vectors(self) -> list[Vector]:
        return self._backend.basis_vectors()


def prune_columns(
    ambient: GradedFreeModule, columns: list
) -> tuple[list[Vector], list[int]]:
    """Drop columns lying in the span of the others (greedy, deterministic).

    The greedy pass visits the columns in index order and drops each one
    that lies in the span of the other columns still kept.  In a ring graded
    by Z with every variable of positive degree, a homogeneous column of
    degree d lies in a span iff it lies in the span of that span's columns
    of degree <= d, and dropping a column never changes the span of the kept
    columns of degree <= e, for any e.  So the decision on a degree-d column
    depends only on N_<d, the span of all columns of lower degree, and on
    the kept columns of degree d: the groups of equal degree are taken in
    increasing degree against one growing Groebner basis of N_<d, a column
    in N_<d is dropped at once, and the greedy pass runs over the rest of
    its group.  Every other ring or input forms one group, on which this is
    the plain greedy pass.  The kept indices are the same either way.

    Grouped by degree, a basis is completed only up to the degree it is
    asked about, since for homogeneous input a strong basis truncated at
    degree d decides membership in degrees <= d: the test of a degree-d
    column up to d, and N_<d up to the largest column degree.
    """
    cols = [ambient.coerce_vector(c) for c in columns]
    ring = ambient.ring
    engine = [_to_engine(ring, c) for c in cols]
    groups = _degree_groups(ambient, cols)
    top = groups[-1][0] if groups else None
    lower = _ModuleGB(_engine_nvars(ring), [], (ring.var_degrees, ambient.shifts))
    lower = lower.grown(_unit_columns(ambient), top)
    kept: list[int] = []
    for g, (degree, group) in enumerate(groups):
        if g:
            group = [j for j in group if not lower.contains(engine[j])]
        i = 0
        while i < len(group):
            # alone in a later group, a column was just tested against N_<d
            others = [engine[k] for k in group if k != group[i]]
            if others and lower.grown(others, degree).contains(engine[group[i]]):
                group.pop(i)
            else:
                i += 1
        kept.extend(group)
        if g + 1 < len(groups):
            # with N_<d, the kept columns span what the whole group does
            lower = lower.grown([engine[k] for k in group], top)
    kept.sort()
    return [cols[k] for k in kept], kept


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


def kernel_columns(ambient: GradedFreeModule, columns: list) -> list[tuple[RingElement, ...]]:
    """Generators of {c : sum c_j * column_j = 0}, as tuples over the ring."""
    return ColumnSpan(ambient, list(columns)).syzygy_vectors()


def syzygies(f: GradedMatrixHom, prune: bool = True) -> GradedMatrixHom:
    """The kernel of f, packaged as a degree-1 map onto its generators.

    Each kernel generator is homogeneous as an element of f.source; giving
    the generator shift 1 - (its module degree) makes the resulting map have
    degree exactly 1, which is the resolution convention used throughout.
    """
    raw = kernel_columns(f.target, f.columns())
    vectors: list[Vector] = []
    for vec in raw:
        v = f.source.coerce_vector(vec)
        if all(e.is_zero() for e in v):
            continue
        vectors.append(v)
    if prune and vectors and f.ring.kind != INTEGERS:
        vectors, _ = prune_columns(f.source, vectors)
    shifts = []
    for v in vectors:
        k = f.source.vector_degree(v)
        if k is INHOMOGENEOUS:
            raise EngineError("syzygy generator is not homogeneous")
        if k is ANY_DEGREE:
            raise EngineError("zero syzygy column survived filtering")
        shifts.append(1 - k)
    source = GradedFreeModule(f.ring, tuple(shifts))
    return hom_from_columns(source, f.source, 1, vectors)
