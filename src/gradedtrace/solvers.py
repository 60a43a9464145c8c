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
division step scans only the elements at the term's own position.  Term
keys are computed once per monomial per process and looked up after.  An
exponent or degree past 32767 raises EngineError instead of wrapping.

Membership of a whole list of columns (ColumnSpan.first_outside) walks
their engine vectors alongside the span's kept generator vectors, in order:
a column equal to the next unmatched generator k is d(e_k), the image of a
basis vector, so it lies in the span and no backend sees it; every other
column gets a backend answer.

Greedy pruning (prune_columns) asks, column by column, whether a column lies
in the span of others.  Over the integers, and for each degree group of a
polynomial ring's columns, that is one Z-lattice question, answered by the
Hermite form and a walk over the kernel it leaves (_lattice_walk); only a
group whose remainders keep a residue term falls back to one Groebner test
per column.

A Laurent ring enters the same engine with a formal inverse y_i for every
variable x_i and the relation columns (x_i*y_i - 1)*e_k appended for every
coordinate; answers map back along y_i -> x_i^-1.  Rescaling columns by
unit monomials alone would compute membership in the wrong module (the
polynomial span is not saturated), so the inverse variables are essential.

Both backends take engine vectors, made by one codec (_encode): {row: int}
over the integers, packed terms over a polynomial or Laurent ring; each
answers through divide, _column (back to a Column), kernel and basis.
Columns travel as sparse Columns (freemod: position -> nonzero entry) from
both backends through kernels, pruning and syzygies into the next map, and
a map's span is built from its sparse rows; dense tuples are built only
where the public API returns them (ColumnSpan.normal_form, syzygy_vectors,
basis_vectors, and prune_columns on dense input).  A kernel column keeps
its engine vector on its way to the next map's span, and a map keeps the
engine vectors of its own columns once encoded (_engine_columns).  The
products of a resolution check, a chain lift and a chain-map square are
formed on engine vectors alone (_engine_compose); over a Laurent ring every
product key is brought to its canonical key, so no product goes through
freemod.compose, and a trace reads a chain lift's diagonal off its
certificates (_engine_diagonal).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math

from .freemod import Column, GradedFreeModule, GradedMatrixHom, Vector, _column_degree, _dense, _from_columns
from .freemod import _nonzero, _relation_shifts
from .rings import (
    GRADING_Z,
    INTEGERS,
    LAURENT,
    HomogeneityError,
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


def _check_ints(rows: list[list[int]]) -> None:
    """Refuse an entry that is not an int (a bool is one), naming its place."""
    for i, r in enumerate(rows):
        for j, a in enumerate(r):
            if not isinstance(a, int):
                raise ValueError(f"entry {a!r} at row {i}, column {j} is not an int")


def int_determinant(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix.

    A matrix that is not square, or an entry that is not an int, raises
    ValueError."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"determinant of a non-square matrix with {n} rows")
    _check_ints(rows)
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


def _hermite(vecs: list[list[int]], m: int, log: list[tuple] | None = None) -> list[int]:
    """Bring the first m entries of vecs to reduced column Hermite form, in place.

    vecs[j] is column j of an m-row matrix, then entries combined along with
    it (a transform).  Columns are inserted in index order; at each existing
    pivot row a unimodular xgcd step leaves the gcd in the pivot column and
    zero in the new one, and after each insertion every pivot column's
    entries at later pivot rows are reduced into [0, pivot) (Kannan and
    Bachem), which bounds the entries.  The pivot columns end up first, in
    increasing pivot row, and are canonical for the lattice; the vanished
    ones follow in index order.  Returns the pivot rows.  Each step goes to
    log; as pivots, quotients and order read only the first m entries,
    _replay of the log redoes the transform on any other vectors.
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
                    if log is not None:
                        log.append((j,))
                break
            g, s, t = _xgcd(vecs[k][r], b)
            x, y = vecs[k][r] // g, b // g
            vk, vj = vecs[k], vecs[j]
            if not t:  # the pivot divides b, so s = x = 1 and vecs[k] stays
                vecs[j] = [q - y * p for p, q in zip(vk, vj)]
                if log is not None:
                    log.append((k, j, y))
                continue
            vecs[k] = [s * p + t * q for p, q in zip(vk, vj)]
            vecs[j] = [x * q - y * p for p, q in zip(vk, vj)]
            if log is not None:
                log.append((k, j, s, t, x, y))
        if not changed:  # a column that is zero in the first m entries changes nothing
            continue
        for i, c in enumerate(pivots[r] for r in rows):
            for r in rows[i + 1 :]:
                k = pivots[r]
                q = vecs[c][r] // vecs[k][r]
                if q:
                    vecs[c] = [p - q * z for p, z in zip(vecs[c], vecs[k])]
                    if log is not None:
                        log.append((k, c, q))
    if any(pivots[r] != i for i, r in enumerate(rows)):
        order = [pivots[r] for r in rows]
        order += sorted(set(range(len(vecs))).difference(order))
        vecs[:] = [vecs[j] for j in order]
        if log is not None:
            log.append(("reorder", order))
    return rows


def _replay(log: list[tuple], vecs: list[list[int]], duals: list[list[int]]) -> None:
    """Apply the steps _hermite logged to vecs, and each step's inverse
    transpose to duals, so that sum_j vecs[j] (x) duals[j] is kept."""
    for step in log:
        if len(step) == 1:  # negate column j
            (j,) = step
            vecs[j], duals[j] = [-x for x in vecs[j]], [-x for x in duals[j]]
        elif len(step) == 3:  # v_j -= y v_k
            k, j, y = step
            vecs[j] = [q - y * p for p, q in zip(vecs[k], vecs[j])]
            duals[k] = [p + y * q for p, q in zip(duals[k], duals[j])]
        elif len(step) == 6:  # a Bezout step on columns k and j
            k, j, s, t, x, y = step
            vk, vj, wk, wj = vecs[k], vecs[j], duals[k], duals[j]
            vecs[k], vecs[j] = [s * p + t * q for p, q in zip(vk, vj)], [x * q - y * p for p, q in zip(vk, vj)]
            duals[k], duals[j] = [x * p + y * q for p, q in zip(wk, wj)], [s * q - t * p for p, q in zip(wk, wj)]
        else:
            vecs[:], duals[:] = [vecs[j] for j in step[1]], [duals[j] for j in step[1]]


class SNFResult:
    """M = U . D . V with U, V unimodular and D a diagonal divisibility chain.

    U, V, Uinv and Vinv are built together on the first access to any of
    them, by replaying smith_normal_form's record of steps onto identities.
    """

    def __init__(self, D: list[list[int]], col_log: list[tuple], row_log: list[tuple]):
        self.D, self._col_log, self._row_log = D, col_log, row_log

    @property
    def diagonal(self) -> list[int]:
        return [
            self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
        ]

    @functools.cached_property
    def _transforms(self) -> tuple[list[list[int]], ...]:
        m, n = len(self.D), len(self.D[0]) if self.D else 0
        Vinv_cols, V, Uinv, U_cols = _eye(n), _eye(n), _eye(m), _eye(m)
        _replay(self._col_log, Vinv_cols, V)
        _replay(self._row_log, Uinv, U_cols)
        return [list(r) for r in zip(*U_cols)], V, Uinv, [list(r) for r in zip(*Vinv_cols)]

    U = property(lambda self: self._transforms[0])
    V = property(lambda self: self._transforms[1])
    Uinv = property(lambda self: self._transforms[2])
    Vinv = property(lambda self: self._transforms[3])


def smith_normal_form(rows: list[list[int]]) -> SNFResult:
    """Diagonalize an integer matrix, recording every step.

    Column Hermite steps on D alone alternate with row Hermite steps (the
    same routine on the transpose) until D is diagonal; where d_t does not
    divide d_(t+1), row t+1 is added to row t and the alternation resumes
    (Kannan and Bachem).  Every step is logged, and V^-1 and U^-1 replay
    the steps on D's columns and rows, V and U their inverses.  With N =
    max(m, n, 2) for an m x n input and B >= 2 a bound on its entries' size,
    every entry of the five matrices stays within 3 * N * log2(B * sqrt(N))
    + 64 bits, three times a Hadamard bound plus slack; the Hermite columns,
    transforms and kernels of integer spans stay within it too.  A ragged
    matrix, or an entry that is not an int, raises ValueError naming where
    it is.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"row {i} of a ragged matrix has {len(r)} entries, row 0 has {n}")
    _check_ints(rows)
    cols = [[r[j] for r in rows] for j in range(n)]
    col_log, row_log = [], []  # steps on D's columns, and on its rows with the fix-ups
    while True:
        _hermite(cols, m, col_log)
        D = [[c[i] for c in cols] for i in range(m)]
        _hermite(D, n, row_log)
        if not any(r[j] for i, r in enumerate(D) for j in range(n) if j != i):
            t = next((t for t in range(min(m, n) - 1) if D[t][t] and D[t + 1][t + 1] % D[t][t]), None)
            if t is None:
                return SNFResult(D, col_log, row_log)
            D[t] = [a + b for a, b in zip(D[t], D[t + 1])]
            row_log.append((t + 1, t, -1))  # v_t -= -1 * v_(t+1), as _replay reads it
        cols = [[r[j] for r in D] for j in range(n)]


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
    """Term keys over nvars engine variables.

    A monomial's key at position 0 is computed once and kept in two tables,
    exponent tuple -> key and key -> exponent tuple; the key at position p
    is that key minus p << top.  The tables hold one entry per distinct
    monomial met, and the packing is shared per nvars, so they last the
    process.
    """

    __slots__ = ("shifts", "deg_shift", "top", "mask", "one", "exp_guard", "guard", "keys", "exps")

    def __init__(self, nvars: int):
        self.shifts = [i * _FIELD_BITS for i in range(nvars)]
        self.deg_shift = nvars * _FIELD_BITS
        self.top = self.deg_shift + _FIELD_BITS
        self.mask = (1 << self.top) - 1  # the monomial's part of a key
        # the monomial 1 at position 0; the key offset of a monomial is key - one
        self.one = sum(_LIMIT << s for s in self.shifts)
        self.exp_guard = sum(1 << (s + _FIELD_BITS - 1) for s in self.shifts)
        self.guard = self.exp_guard | (1 << (self.top - 1))
        self.keys: dict[tuple[int, ...], int] = {}
        self.exps: dict[int, tuple[int, ...]] = {}

    def pack(self, pos: int, exp: tuple[int, ...]) -> int:
        key = self.keys.get(exp)
        if key is None:
            deg = sum(exp)
            if deg > _LIMIT:
                raise EngineError(f"degree {deg} passes the engine's bound of {_LIMIT}")
            key = (deg << self.deg_shift) + self.one
            for e, s in zip(exp, self.shifts):
                key -= e << s
            self.keys[exp] = key
            self.exps[key] = exp
        return key - (pos << self.top)

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        mono = key & self.mask
        exp = self.exps.get(mono)
        if exp is None:
            low = self.one - (mono & ((1 << self.deg_shift) - 1))
            exp = self.exps[mono] = tuple([(low >> s) & _LIMIT for s in self.shifts])
        return -(key >> self.top), exp


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
    completion the basis is interreduced into a canonical form (sorted
    leading terms, positive leading coefficients, tails Euclidean-reduced),
    and the inputs themselves are re-reduced, which contributes the
    remaining syzygy generators.  Interreduction drops every element whose
    leading term another strongly divides, then tail-reduces the sorted
    rest in one pass.  When one kept element's leading monomial divides
    another's, their G-pair and strongness make the divisor's leading
    coefficient a proper multiple of the other's, so its quotient is zero:
    no kept element reduces another's leading term, and none can move.  A
    divisor of a tail term comes earlier in the sorted list, so every
    reducer is final before it is used, and one pass is the fixpoint
    (Lichtblau, "Effective computation of strong Groebner bases over
    Euclidean domains", Illinois J. Math. 56, 2012).

    Column j certifies as e_j, a vanishing one (a Laurent (x_i*y_i - 1)*e_k) as 0.

    grown() copies a basis and admits more columns without certificates, so
    the copy answers contains() and nothing else.  Given a grading
    (variable weights, position shifts) and a degree bound, the copy
    processes only the pairs of module degree <= the bound: for homogeneous
    columns under positive weights, that decides membership up to the bound.
    """

    def __init__(self, nvars: int, columns: list[dict], grading: tuple | None = None, vanishing: list[dict] | tuple = ()):
        self.nvars = nvars
        self.pk = _packing(nvars)
        self.grading = grading
        self.max_degree: int | None = None
        self.certify = True
        self.basis: list[_GBElem] = []
        self.by_pos: dict[int, list[int]] = {}
        self.syzygies: list[dict] | None = []
        self._queue: list[tuple] = []
        certs = [{self.pk.pack(j, (0,) * nvars): 1} for j in range(len(columns))] + [{} for _ in vanishing]
        columns = [*columns, *vanishing]
        self._complete((dict(col), dict(cert)) for col, cert in zip(columns, certs))
        self._interreduce()
        for col, cert in zip(columns, certs):
            if not col:
                continue
            if self._reduce(col, cert):
                raise EngineError(
                    "input column fails to reduce to zero against its own basis"
                )
            if cert:
                self.syzygies.append(cert)

    def grown(self, columns: list[dict], max_degree: int | None = None) -> _ModuleGB:
        """A copy with columns admitted and completed, certifying nothing.

        It shares the basis elements and skips __init__, which would
        complete and interreduce an empty input first."""
        out = object.__new__(_ModuleGB)
        out.nvars, out.pk, out.grading, out.max_degree = self.nvars, self.pk, self.grading, max_degree
        out.certify, out.syzygies, out._queue = False, None, []
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
        kept_at: dict[int, list[_GBElem]] = {}  # only a same-position element can divide
        for g in sorted(self.basis, key=lambda g: (g.key, g.lc)):
            same = kept_at.setdefault(g.pos, [])
            if not any(not (h.key - g.key) & divides and g.lc % h.lc == 0 for h in same):
                kept.append(g)
                same.append(g)
        self.basis = kept
        self.by_pos = _positions(kept)
        for idx, g in enumerate(kept):
            cert = dict(g.cert)
            rem = self._reduce(g.vec, cert, skip=idx)
            if rem != g.vec:
                if rem.get(g.key) != g.lc:  # reduction only adds terms below the one it reduces
                    raise EngineError("interreduction moved a leading term")
                kept[idx] = _GBElem(rem, cert, self.pk)


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
    A.t = h, and the kernel is in Hermite form as well.  The engine vectors
    are sparse integer columns {row: int}, and divide reduces only the
    blocks a vector touches.
    """

    def __init__(self, ambient: GradedFreeModule, vecs: list[dict[int, int]]):
        self.ring = ring = ambient.ring
        # class None holds the zero columns: a block of no rows, whose kernel comes first
        class_cols: dict[int | None, list[int]] = {None: []}
        for j, vec in enumerate(vecs):
            # a constant entry at row i has module degree -shifts[i]: one class per column
            classes = {ring.reduce_degree(ambient.shifts[i]) for i in vec}
            if len(classes) > 1:
                raise HomogeneityError(f"column {j} is not homogeneous")
            class_cols.setdefault(classes.pop() if classes else None, []).append(j)
        class_rows: dict[int, list[int]] = {}
        for i, n in enumerate(ambient.shifts):
            class_rows.setdefault(ring.reduce_degree(n), []).append(i)
        self.blocks: list[tuple] = []
        for c in [None] + sorted(class_cols.keys() - {None}):
            rows, cols = class_rows.get(c, []), class_cols[c]
            if not cols:  # the block of zero columns, often empty
                self.blocks.append((rows, cols, [], [], []))
                continue
            block = [[vecs[j].get(i, 0) for i in rows] + unit for j, unit in zip(cols, _eye(len(cols)))]
            pivots = _hermite(block, len(rows))
            kernel = [v[len(rows) :] for v in block[len(pivots) :]]
            _hermite(kernel, len(cols))
            self.blocks.append((rows, cols, pivots, block[: len(pivots)], kernel))
        # ambient row -> (its block, its place in the block); a row of no block is absent
        self._place = {i: (b, r) for b, block in enumerate(self.blocks) for r, i in enumerate(block[0])}

    def divide(self, column: dict[int, int], certify: bool = True) -> tuple[dict[int, int], dict[int, int]]:
        """The remainder and certificate of a sparse integer column, as sparse integers.

        Each touched block walks its pivots in order: at each pivot q.(h, t)
        is subtracted, q the floor quotient there, so the remainder lies in
        [0, pivot) at pivot rows; without certify the certificate stays
        empty and zip stops each subtraction at the rows.
        """
        rem: dict[int, int] = {}
        cert: dict[int, int] = {}
        works: dict[int, list[int]] = {}
        for i, a in column.items():
            place = self._place.get(i)
            if place is None:
                rem[i] = a
                continue
            b, r = place
            work = works.get(b)
            if work is None:
                rows, cols = self.blocks[b][:2]
                work = works[b] = [0] * (len(rows) + len(cols) if certify else len(rows))
            work[r] = a
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

    def _column(self, vec: dict[int, int]) -> Column:
        """A sparse integer column as a Column."""
        const = self.ring.const
        return {i: const(a) for i, a in vec.items()}

    def kernel(self) -> list[dict[int, int]]:
        return [{j: a for j, a in zip(cols, k) if a} for _, cols, _, _, kernel in self.blocks for k in kernel]

    def basis(self) -> list[dict[int, int]]:
        return [{i: a for i, a in zip(rows, h) if a} for rows, _, _, basis, _ in self.blocks for h in basis]


def _engine_nvars(ring: RingSpec) -> int:
    return 2 * ring.nvars if ring.kind == LAURENT else ring.nvars


@functools.cache
def _engine_exp(exp: tuple[int, ...]) -> tuple[int, ...]:
    """The engine exponent of a Laurent exponent: (max(e, 0), ..., max(-e, 0), ...)."""
    return tuple(max(e, 0) for e in exp) + tuple(max(-e, 0) for e in exp)


@functools.cache
def _ring_exp(exp: tuple[int, ...]) -> tuple[int, ...]:
    """The Laurent exponent of an engine exponent, along y_i -> x_i^-1."""
    n = len(exp) // 2
    return tuple(a - b for a, b in zip(exp[:n], exp[n:]))


class _EngineColumn(dict):
    """A kernel Column that keeps its engine vector, equal to _encode of its
    entries, so that pruning, the next span and membership tests read it
    instead of encoding the column again.  The vector is never mutated."""

    __slots__ = ("engine",)

    def __init__(self, column: Column, engine: dict):
        super().__init__(column)
        self.engine = engine


def _encode(ring: RingSpec, column: Column) -> dict:
    """The engine vector of a Column: the one an _EngineColumn keeps, else
    the sparse integer column {row: int} over the integers, or the packed
    vector over a polynomial or Laurent ring."""
    if isinstance(column, _EngineColumn):
        return column.engine
    if ring.kind == INTEGERS:
        return {i: e.coefficient(()) for i, e in column.items()}
    pack = _packing(_engine_nvars(ring)).pack
    if ring.kind == LAURENT:
        return {pack(pos, _engine_exp(exp)): c for pos, entry in column.items() for exp, c in entry.items()}
    return {pack(pos, exp): c for pos, entry in column.items() for exp, c in entry.items()}


def _engine_columns(f: GradedMatrixHom) -> list[dict]:
    """The engine vectors of f's columns, encoded from f's own entries (never
    borrowed from a span) on the first call and kept on f; later calls return
    the same list, which no caller mutates."""
    vecs = f._engine
    if vecs is None:
        vecs = f._engine = [_encode(f.ring, c) for c in f._sparse_columns()]
    return vecs


def _canonical(ring: RingSpec, vec: dict) -> dict:
    """vec with every key canonical over a Laurent ring, pack(pos,
    _engine_exp(_ring_exp(exp))) so that x_i*y_i packs as 1; over other
    rings vec itself."""
    if ring.kind != LAURENT:
        return vec
    pk, out = _packing(_engine_nvars(ring)), {}
    for key, c in vec.items():
        pos, exp = pk.unpack(key)
        key = pk.pack(pos, _engine_exp(_ring_exp(exp)))
        if s := out.pop(key, 0) + c:
            out[key] = s
    return out


def _engine_compose(vecs: list[dict], g: GradedMatrixHom) -> list[dict]:
    """The engine columns of f . g, vecs[k] the canonical engine column k of f.

    Column c is the sum over k of g[k, c] * vecs[k], read off g's own engine
    columns (_engine_columns): over the integers a term {k: c} scales vecs[k]
    by the int c; otherwise a term key gives the position k, -(key >> top),
    and the monomial's key offset, (key & mask) - one, which shifts vecs[k]'s
    keys.  Packed keys are one-to-one with polynomial terms, and canonical
    keys (_canonical) with Laurent terms, so the result is the canonical
    engine vector of the product's column; no ring element of g is read and
    none is multiplied.
    """
    if g.ring.kind == INTEGERS:
        out: list[dict] = []
        for column in _engine_columns(g):
            acc: dict = {}
            for k, c in column.items():
                for i, a in vecs[k].items():
                    acc[i] = acc.get(i, 0) + c * a
            out.append({i: a for i, a in acc.items() if a})
        return out
    pk = _packing(_engine_nvars(g.ring))
    top, mask, one, guard = pk.top, pk.mask, pk.one, pk.guard
    out = []
    for column in _engine_columns(g):
        acc = {}
        for key, c in column.items():
            _iadd_scaled(acc, (key & mask) - one, c, vecs[-(key >> top)], guard)
        out.append(_canonical(g.ring, acc))
    return out


def _engine_diagonal(ring: RingSpec, stages) -> RingElement:
    """The signed diagonals sum_i (-1)^(shifts[i]) f_ii, f_ii the terms of vecs[i]
    at position i, over (shifts, the canonical engine columns or certificates
    vecs of f) in stages; Laurent keys map back along y_i -> x_i^-1."""
    if ring.kind == INTEGERS:
        c = sum(-v.get(i, 0) if s % 2 else v.get(i, 0) for shifts, vecs in stages for i, (s, v) in enumerate(zip(shifts, vecs)))
        return RingElement._clean(ring, {(): c} if c else {})
    pk, total = _packing(_engine_nvars(ring)), {}
    for shifts, vecs in stages:
        for i, (shift, vec) in enumerate(zip(shifts, vecs)):
            for key, c in vec.items():
                if -(key >> pk.top) == i:
                    exp = pk.unpack(key)[1]
                    exp = _ring_exp(exp) if ring.kind == LAURENT else exp
                    total[exp] = total.get(exp, 0) + (-c if shift % 2 else c)
    return RingElement._clean(ring, {exp: c for exp, c in total.items() if c})


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
    (x_i*y_i - 1)*e_k join the inputs with an empty certificate, since they
    vanish: every certificate and syzygy lies over the caller's columns.
    """

    def __init__(self, ambient: GradedFreeModule, vecs: list[dict]):
        self.ring = ambient.ring
        self.laurent = self.ring.kind == LAURENT
        self.gb = _ModuleGB(_engine_nvars(self.ring), vecs, vanishing=_unit_columns(ambient))

    def _column(self, vec: dict) -> Column:
        """An engine vector or certificate as a Column; Laurent terms that
        cancel along y_i -> x_i^-1 drop out."""
        unpack, per_pos = self.gb.pk.unpack, {}
        for key, c in vec.items():
            pos, exp = unpack(key)
            terms = per_pos.setdefault(pos, {})
            if self.laurent:
                exp = _ring_exp(exp)
            if s := terms.pop(exp, 0) + c:
                terms[exp] = s
        return {pos: RingElement._clean(self.ring, terms) for pos, terms in per_pos.items() if terms}

    def divide(self, vec: dict, certify: bool = True) -> tuple[dict, dict]:
        """The remainder and certificate of an engine vector, as engine dicts:
        vec = remainder + sum(certificate_j column_j), the certificate
        canonical over the caller's columns (_canonical), and empty without
        certify."""
        if not certify:
            return self.gb._reduce(vec), {}
        cert: dict = {}
        rem = self.gb._reduce(vec, cert)
        # _reduce subtracts the quotients' certificates
        return rem, {k: -c for k, c in _canonical(self.ring, cert).items()}

    def kernel(self) -> list[dict]:
        """The kernel generators, certificates in canonical form (_canonical)."""
        # ColumnSpan reads them once and keeps the result, so the certificates go
        certs, self.gb.syzygies = self.gb.syzygies, None
        return [_canonical(self.ring, cert) for cert in certs]

    def basis(self) -> list[dict]:
        return [g.vec for g in self.gb.basis]


class ColumnSpan:
    """The submodule generated by a list of columns of a graded free module.

    Columns are dense vectors, coerced once, or Columns, taken as they are;
    the span keeps its generators' engine vectors, which its backend is
    built from.  normal_form(v) returns (remainder, certificate) with
    v = sum(certificate[j] * column_j) + remainder, remainder zero iff v lies
    in the span; contains(v) answers that without building the certificate.
    Two calls answer for a whole matrix g at once, read off its kept engine
    columns (_engine_columns): first_outside(g) returns the index of the
    first column of g outside the span, or None; g may also be a list of
    Columns or of dense vectors, each coerced as contains coerces it.
    solve(g, degree) returns the map X of that degree with
    (span columns) . X = g, each column of X the certificate of g's column
    as it is: the span's columns are homogeneous (so are the Laurent unit
    columns, y_i having degree -deg x_i), and strong division of a
    homogeneous column leaves every certificate entry in its forced degree.
    It raises EngineError naming the first column of g outside the span.  X
    maps into the free module that indexes the columns, which only the spans
    that column_span builds know (as source), so solve needs one.  A chain
    lift takes the certificates without boxing them (_certificates).

    Results are deterministic for a fixed column order.  The backend sees
    engine vectors only (_encode), and every question encodes its column
    once.  The kernel generators are fixed at construction; the first
    _sparse_kernel() call converts the nonzero ones to Columns and keeps
    them, and every syzygy_vectors() call returns a fresh dense list of
    them.  Over every ring each kept Column is an _EngineColumn, which
    carries its engine vector, and a span or membership test given one
    reads that vector instead of encoding the column.  A span used only for
    membership never converts.  The span of a matrix's columns is built
    once, by column_span, and kept on the matrix.
    """

    def __init__(self, ambient: GradedFreeModule, columns: list):
        self.ambient = ambient
        self.columns = [c if isinstance(c, dict) else _nonzero(ambient.coerce_vector(c)) for c in columns]
        self.source: GradedFreeModule | None = None
        self._kernel: tuple[Column, ...] | None = None
        ring = ambient.ring
        self._vecs = [_encode(ring, c) for c in self.columns]
        self._backend = (_IntBackend if ring.kind == INTEGERS else _PolyBackend)(ambient, self._vecs)

    def _inside(self, column: Column) -> bool:
        return not self._backend.divide(_encode(self.ambient.ring, column), False)[0]

    def normal_form(self, v) -> tuple[Vector, list[RingElement]]:
        ring, column = self.ambient.ring, self._backend._column
        rem, cert = self._backend.divide(_encode(ring, _nonzero(self.ambient.coerce_vector(v))))
        zero = ring.zero()
        return _dense(column(rem), self.ambient.rank, zero), list(_dense(column(cert), len(self.columns), zero))

    def contains(self, v) -> bool:
        return self._inside(_nonzero(self.ambient.coerce_vector(v)))

    def _engine_vectors(self, g) -> list[dict]:
        """The engine vectors of g's columns: a map's own (_engine_columns),
        refused unless it maps into the span's ambient module, or those of a
        list of Columns or dense vectors, each coerced and encoded once."""
        if isinstance(g, GradedMatrixHom):
            if g.target != self.ambient:
                raise ValueError(f"a map into {g.target} is not a map into {self.ambient}")
            return _engine_columns(g)
        ring = self.ambient.ring
        return [_encode(ring, v if isinstance(v, dict) else _nonzero(self.ambient.coerce_vector(v))) for v in g]

    def first_outside(self, g) -> int | None:
        """Walk g's engine vectors alongside the generators' kept ones, in
        order: one equal to the next unmatched generator k is d(e_k), in the
        span, and only the others go to the backend, without a certificate."""
        divide, gens = self._backend.divide, iter(self._vecs)
        gen = next(gens, None)
        for j, vec in enumerate(self._engine_vectors(g)):
            if vec == gen:
                gen = next(gens, None)
            elif divide(vec, False)[0]:
                return j
        return None

    def _certificates(self, vecs: list[dict]) -> list[dict]:
        """The certificate of each engine vector, canonical over the span's
        columns; EngineError names the first vector outside the span."""
        divide, certs = self._backend.divide, []
        for c, vec in enumerate(vecs):
            rem, cert = divide(vec)
            if rem:
                raise EngineError(f"column {c} lies outside the span: no solution")
            certs.append(cert)
        return certs

    def _solution(self, certs: list[dict], source: GradedFreeModule, degree: int) -> GradedMatrixHom:
        """The map from source, of that degree, whose columns are certs."""
        column, rows = self._backend._column, [{} for _ in self.columns]
        for c, cert in enumerate(certs):
            for j, e in column(cert).items():
                rows[j][c] = e
        return GradedMatrixHom._closed(source, self.source, degree, rows)

    def solve(self, g: GradedMatrixHom, degree: int) -> GradedMatrixHom:
        vecs = self._engine_vectors(g)
        if self.source is None:
            raise ValueError("solve needs the span of a map's columns, from column_span")
        return self._solution(self._certificates(vecs), g.source, degree)

    def _sparse_kernel(self) -> tuple[Column, ...]:
        """The nonzero kernel generators as sparse Columns, converted once."""
        if self._kernel is None:
            column = self._backend._column
            self._kernel = tuple(_EngineColumn(column(vec), vec) for vec in self._backend.kernel() if vec)
        return self._kernel

    def syzygy_vectors(self) -> list[Vector]:
        zero, n = self.ambient.ring.zero(), len(self.columns)
        return [_dense(c, n, zero) for c in self._sparse_kernel()]

    def basis_vectors(self) -> list[Vector]:
        zero, rank = self.ambient.ring.zero(), self.ambient.rank
        # over a Laurent ring, x_i*y_i - 1 and its multiples are basis vectors that vanish
        columns = map(self._backend._column, self._backend.basis())
        return [_dense(c, rank, zero) for c in columns if c]


def prune_columns(ambient: GradedFreeModule, columns: list) -> tuple[list, list[int]]:
    """Drop columns lying in the span of the others (greedy, deterministic).

    Returns the kept columns, in the form given (dense vectors coerced once,
    or Columns of engine output, whose degree is read off one term), and
    their indices.

    The greedy pass visits the columns in index order and drops each one
    that lies in the span of the other columns still kept (all-zero columns
    keep the last).  Over Z that is one Z-lattice question (_lattice_walk).
    In a polynomial ring graded by Z with every variable of positive degree,
    a homogeneous column of degree d lies in a span iff it lies in the span
    of that span's columns of degree <= d, and dropping a column never
    changes the span of the kept columns of degree <= e, for any e.  So the
    decision on a degree-d column depends only on N_<d, the span of all
    columns of lower degree, and on the kept columns of degree d: the groups
    of equal degree are taken in increasing degree against one growing
    Groebner basis of N_<d, truncated at the largest column degree, and
    each group is one pass (_lattice_greedy): the degree 0 part of the ring
    is Z, so within a group it is the same lattice question about the
    remainders modulo N_<d.  A group whose remainders keep a residue term
    falls back to the plain greedy pass, truncated at d, since for
    homogeneous input a strong basis truncated at degree d decides
    membership in degrees <= d.  Every other polynomial or Laurent ring or
    input forms one group, on which this is the plain greedy pass; the kept
    indices are the same either way.  The plain pass over k columns grows
    suffix bases S_(k-1) = lower and S_i = S_(i+1) + column i+1, and tests
    column i against S_i plus the columns kept before it, the span of the
    others still kept: (k-1) + k*r admitted columns for r kept, not k*(k-1).
    """
    cols = [c if isinstance(c, dict) else ambient.coerce_vector(c) for c in columns]
    ring = ambient.ring
    engine = [_encode(ring, c if isinstance(c, dict) else _nonzero(c)) for c in cols]
    if ring.kind == INTEGERS:
        kept = _lattice_walk(engine)
        if not kept and cols:  # every column zero: the greedy pass keeps the last one
            kept = [len(cols) - 1]
        return [cols[k] for k in kept], kept
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
            suffixes = [lower]  # suffixes[-1] spans N_<d and the columns after the one tested
            for j in reversed(group[1:]):
                suffixes.append(suffixes[-1].grown([engine[j]], degree))
            chosen: list[int] = []
            for i, j in enumerate(group):
                span = suffixes.pop()
                if chosen:
                    span = span.grown([engine[k] for k in chosen], degree)
                # alone in a later group, a column was just tested against N_<d
                if (i + 1 == len(group) and not chosen) or not span.contains(engine[j]):
                    chosen.append(j)
            group = chosen
        kept.extend(group)
        if g + 1 < len(groups):
            # with N_<d, the kept columns span what the whole group does
            lower = lower.grown([engine[k] for k in group], top)
    kept.sort()
    return [cols[k] for k in kept], kept


def _lattice_greedy(lower: _ModuleGB, vecs: list[dict]) -> list[int] | None:
    """The greedy pass over one degree group: the indices it keeps, or None.

    vecs are the group's engine columns, all of one degree d, and lower is a
    strong basis of N_<d truncated at or above d.  Unless a remainder modulo
    lower keeps a residue term, one whose monomial but not coefficient a
    leading term of lower divides, no nonzero Z-combination of remainders
    lies in N_<d, as its leading term would be one: the pass is then
    _lattice_walk over the remainders.  Otherwise two or more nonzero
    remainders return None.
    """
    remainders = [lower._reduce(v) for v in vecs]
    basis, by_pos, divides, top = lower.basis, lower.by_pos, lower.pk.exp_guard, lower.pk.top
    if sum(map(bool, remainders)) > 1 and any(
        not (basis[b].key - key) & divides
        for rem in remainders
        for key in rem
        for b in by_pos.get(-(key >> top), ())
    ):
        return None
    return _lattice_walk(remainders)


def _lattice_walk(vecs: list[dict]) -> list[int]:
    """The indices the greedy pass keeps among sparse integer columns.

    vecs[i] maps keys (rows or terms) to integers.  Visiting the columns in
    index order, the pass drops each one in the integer span of the others
    still kept: c goes iff some vector of the columns' integer kernel K is 1
    at c and 0 at every column dropped before c.  A zero column always goes.

    Columns that share no key, even through others, have independent
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
    live = [i for i, v in enumerate(vecs) if v]
    # union-find over the columns: two sharing a key join one block
    root = list(range(len(vecs)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    owner: dict = {}  # key -> a column holding it
    for i in live:
        for key in vecs[i]:
            root[find(i)] = find(owner.setdefault(key, i))
    blocks: dict[int, list[int]] = {}
    for i in live:
        blocks.setdefault(find(i), []).append(i)
    kept = []
    for block in blocks.values():
        if len(block) == 1:  # a nonzero column alone has no kernel
            kept += block
            continue
        keys = sorted(set().union(*(vecs[i] for i in block)))
        units = reversed(_eye(len(block)))
        lattice = [[vecs[i].get(key, 0) for key in keys] + unit for i, unit in zip(reversed(block), units)]
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


def _degree_groups(ambient: GradedFreeModule, cols: list) -> list[tuple[int | None, list[int]]]:
    """(degree, column indices) in increasing degree.

    Columns are dense vectors or sparse Columns (freemod._column_degree).
    Laurent rings, Z/2 grading, variables of degree <= 0, and zero or
    inhomogeneous columns put every column into one group, of degree None.
    """
    ring = ambient.ring
    one_group = [(None, list(range(len(cols))))]
    if ring.kind == LAURENT or ring.grading != GRADING_Z or any(w <= 0 for w in ring.var_degrees):
        return one_group
    degrees = [_column_degree(ambient, c) for c in cols]
    if not all(isinstance(d, int) for d in degrees):
        return one_group
    by_degree: dict[int, list[int]] = {}
    for j, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(j)
    return [(d, by_degree[d]) for d in sorted(by_degree)]


def column_span(f: GradedMatrixHom) -> ColumnSpan:
    """The span of f's columns in f.target, with f.source as its source,
    built on first use and kept on f.  Until then a map that syzygies made
    holds its kernel columns in the same slot, and the span is built from
    them, their engine vectors kept."""
    span = f._span
    if not isinstance(span, ColumnSpan):
        span = f._span = ColumnSpan(f.target, span or f._sparse_columns())
        span.source = f.source
    return span


# No caller in the package: kept for the tracer of perfbench/layers.py, which wraps it.
def kernel_columns(ambient: GradedFreeModule, columns: list) -> list[tuple[RingElement, ...]]:
    """Generators of {c : sum c_j * column_j = 0}, as tuples over the ring."""
    return ColumnSpan(ambient, list(columns)).syzygy_vectors()


def syzygies(f: GradedMatrixHom, prune: bool = True) -> GradedMatrixHom:
    """The kernel of f, packaged as a degree-1 map onto its generators.

    Each kernel generator is homogeneous as an element of f.source; the
    resolution convention (freemod._relation_shifts) gives it source shift
    1 - (its module degree), so the map has degree exactly 1 and builds
    unchecked.  The kernel is read off column_span(f), which stays on f,
    and goes from the engine through pruning into the map as sparse
    Columns: no dense vector is built.  The map holds its columns for its
    own column_span; over every ring each keeps its engine vector
    (_EngineColumn), which pruning and that span read, so no kernel column
    is encoded again on its way to the next span.
    """
    columns = list(column_span(f)._sparse_kernel())
    if prune and columns and f.ring.kind != INTEGERS:
        columns, _ = prune_columns(f.source, columns)
    source = GradedFreeModule(f.ring, _relation_shifts(f.source, columns, 1))
    out = _from_columns(source, f.source, 1, columns)
    out._span = columns  # column_span(out) builds from them
    return out
