"""Exact membership, normal forms, and syzygies for column spans.

Two backends sit behind one interface.  Over the integers, Smith normal form
(with all four unimodular transforms tracked) answers membership and kernel
questions block-by-block along the grading.  Over polynomial and Laurent
rings, one engine class does the same work with a strong Groebner basis for
modules over Z[x_1..x_n]: leading terms of submodule elements are divisible,
coefficient and monomial both, by a basis leading term, so normal forms
certify membership.  The term order is fixed once and for all:
position-over-term (lower index wins) with degree-reverse-lexicographic
monomials; it is not configurable.

A Laurent ring enters the same engine with a formal inverse y_i for every
variable x_i and the relation columns (x_i*y_i - 1)*e_k appended for every
coordinate; answers map back along y_i -> x_i^-1.  Rescaling columns by
unit monomials alone would compute membership in the wrong module (the
polynomial span is not saturated), so the inverse variables are essential.
"""

from __future__ import annotations

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
    """An internal solver invariant failed; indicates a bug, not bad input."""


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
# Engine vectors are dicts {(position, exponents): coeff}; certificates are
# dicts {input index: {exponents: coeff}}.  All coefficients are Python ints.


def _term_key(term: tuple[int, tuple[int, ...]]) -> tuple:
    pos, exp = term
    return (-pos, sum(exp), tuple(-e for e in reversed(exp)))


def _vec_iadd_scaled(
    acc: dict, mono: tuple[int, ...], coeff: int, v: dict
) -> None:
    for (pos, exp), c in v.items():
        key = (pos, tuple(a + b for a, b in zip(mono, exp)))
        s = acc.get(key, 0) + coeff * c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _poly_iadd_scaled(
    acc: dict, mono: tuple[int, ...], coeff: int, p: dict
) -> None:
    for exp, c in p.items():
        key = tuple(a + b for a, b in zip(mono, exp))
        s = acc.get(key, 0) + coeff * c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _cert_iadd_scaled(acc: dict, mono: tuple[int, ...], coeff: int, cert: dict) -> None:
    for j, poly in cert.items():
        tgt = acc.setdefault(j, {})
        _poly_iadd_scaled(tgt, mono, coeff, poly)
        if not tgt:
            del acc[j]


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
    __slots__ = ("vec", "cert", "lt", "lc")

    def __init__(self, vec: dict, cert: dict):
        self.vec = vec
        self.cert = cert
        self.lt = max(vec, key=_term_key)
        self.lc = vec[self.lt]
        if self.lc < 0:
            self.vec = {k: -c for k, c in vec.items()}
            self.cert = {
                j: {e: -c for e, c in poly.items()} for j, poly in cert.items()
            }
            self.lc = -self.lc


def _reduce(v: dict, basis: list[_GBElem]) -> tuple[dict, list[dict]]:
    """Deterministic strong division: v = sum(q_k g_k) + remainder.

    A term c.X reduces against g when lt(g)'s position matches, its monomial
    divides X, and the Euclidean quotient c // lc(g) is nonzero; remainders
    keep coefficients in [0, lc) of every dividing basis element, which makes
    normal forms canonical for a fixed basis order.
    """
    work = dict(v)
    remainder: dict = {}
    qs: list[dict] = [dict() for _ in basis]
    while work:
        term = max(work, key=_term_key)
        c = work[term]
        pos, exp = term
        hit = None
        for bi, g in enumerate(basis):
            gpos, gexp = g.lt
            if gpos != pos:
                continue
            if any(e < ge for e, ge in zip(exp, gexp)):
                continue
            q = c // g.lc
            if q == 0:
                continue
            hit = (bi, g, q)
            break
        if hit is None:
            remainder[term] = c
            del work[term]
        else:
            bi, g, q = hit
            mono = tuple(e - ge for e, ge in zip(exp, g.lt[1]))
            _poly_iadd_scaled(qs[bi], mono, q, {(0,) * len(mono): 1})
            _vec_iadd_scaled(work, mono, -q, g.vec)
    return remainder, qs


class _ModuleGB:
    """Strong Groebner basis with certificates and recorded syzygies.

    Completion processes every S-pair (lcm of leading terms) and G-pair
    (Bezout gcd of leading coefficients) of same-position basis elements;
    each zero reduction contributes a syzygy of the input columns.  After
    completion the inputs themselves are re-reduced, which contributes the
    remaining syzygy generators, and the basis is interreduced into a
    canonical form (sorted leading terms, positive leading coefficients,
    tails Euclidean-reduced).

    grown() copies a basis and admits more columns with empty certificates,
    so the copy answers contains() and nothing else.
    """

    def __init__(self, nvars: int, columns: list[dict]):
        self.nvars = nvars
        self.zero_exp = (0,) * nvars
        self.basis: list[_GBElem] = []
        self.syzygies: list[dict] = []
        self._queue: list[tuple] = []
        self._complete(
            (dict(col), {j: {self.zero_exp: 1}}) for j, col in enumerate(columns)
        )
        self._interreduce()
        for j, col in enumerate(columns):
            if not col:
                continue
            rem, qs = _reduce(col, self.basis)
            if rem:
                raise EngineError(
                    "input column fails to reduce to zero against its own basis"
                )
            cert = {j: {self.zero_exp: 1}}
            for qi, q in enumerate(qs):
                if q:
                    _cert_iadd_scaled(cert, self.zero_exp, -1, _scaled_cert(q, self.basis[qi].cert))
            if cert:
                self.syzygies.append(cert)

    def grown(self, columns: list[dict]) -> _ModuleGB:
        """A copy with columns admitted and completed, certifying nothing."""
        out = _ModuleGB(self.nvars, [])
        out.basis = list(self.basis)
        out._complete((dict(col), {}) for col in columns)
        return out

    def contains(self, vec: dict) -> bool:
        return not _reduce(vec, self.basis)[0]

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
        for i in range(t):
            h = self.basis[i]
            if h.lt[0] != g.lt[0]:
                continue
            lcm = tuple(max(a, b) for a, b in zip(h.lt[1], g.lt[1]))
            key = (sum(lcm), lcm, i, t)
            heapq.heappush(self._queue, (key, "s", i, t))
            if h.lc % g.lc != 0 and g.lc % h.lc != 0:
                heapq.heappush(self._queue, (key, "g", i, t))

    def _build_pair(self, kind: str, i: int, j: int) -> tuple[dict, dict]:
        gi, gj = self.basis[i], self.basis[j]
        lcm = tuple(max(a, b) for a, b in zip(gi.lt[1], gj.lt[1]))
        mi = tuple(a - b for a, b in zip(lcm, gi.lt[1]))
        mj = tuple(a - b for a, b in zip(lcm, gj.lt[1]))
        vec: dict = {}
        cert: dict = {}
        if kind == "s":
            g = gi.lc * gj.lc // _xgcd(gi.lc, gj.lc)[0]
            ci, cj = g // gi.lc, -(g // gj.lc)
        else:
            _, ci, cj = _xgcd(gi.lc, gj.lc)
        _vec_iadd_scaled(vec, mi, ci, gi.vec)
        _vec_iadd_scaled(vec, mj, cj, gj.vec)
        _cert_iadd_scaled(cert, mi, ci, gi.cert)
        _cert_iadd_scaled(cert, mj, cj, gj.cert)
        return vec, cert

    def _reduce_and_admit(self, vec: dict, cert: dict) -> None:
        rem, qs = _reduce(vec, self.basis)
        for qi, q in enumerate(qs):
            if q:
                _cert_iadd_scaled(cert, self.zero_exp, -1, _scaled_cert(q, self.basis[qi].cert))
        if not rem:
            if cert:
                self.syzygies.append(cert)
            return
        self.basis.append(_GBElem(rem, cert))
        self._register_pairs(len(self.basis) - 1)

    def _interreduce(self) -> None:
        # Sorting by (term, coefficient) puts every potential strong divisor
        # before the elements it divides, ties included.
        ordered = sorted(self.basis, key=lambda g: (_term_key(g.lt), g.lc))
        kept: list[_GBElem] = []
        for g in ordered:
            divisible = False
            for h in kept:
                if h.lt[0] != g.lt[0]:
                    continue
                if any(e < he for e, he in zip(g.lt[1], h.lt[1])):
                    continue
                if g.lc % h.lc == 0:
                    divisible = True
                    break
            if not divisible:
                kept.append(g)
        changed = True
        while changed:
            changed = False
            for idx, g in enumerate(kept):
                others = kept[:idx] + kept[idx + 1 :]
                rem, qs = _reduce(g.vec, others)
                if rem != g.vec:
                    cert = {
                        j: dict(poly) for j, poly in g.cert.items()
                    }
                    for qi, q in enumerate(qs):
                        if q:
                            _cert_iadd_scaled(
                                cert, self.zero_exp, -1, _scaled_cert(q, others[qi].cert)
                            )
                    if not rem:
                        raise EngineError("interreduction killed a basis element")
                    kept[idx] = _GBElem(rem, cert)
                    changed = True
        self.basis = kept


def _scaled_cert(poly: dict, cert: dict) -> dict:
    """poly * cert, as a certificate dict."""
    out: dict = {}
    for mono, coeff in poly.items():
        _cert_iadd_scaled(out, mono, coeff, cert)
    return out


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
    out: dict = {}
    for pos, entry in enumerate(v):
        for exp, c in entry.items():
            if ring.kind == LAURENT:
                exp = tuple(max(e, 0) for e in exp) + tuple(max(-e, 0) for e in exp)
            out[(pos, exp)] = c
    return out


def _unit_columns(ambient: GradedFreeModule) -> list[dict]:
    """The columns (x_i*y_i - 1)*e_k of a Laurent ring; none for other rings."""
    ring = ambient.ring
    if ring.kind != LAURENT:
        return []
    n = ring.nvars
    zero = (0,) * (2 * n)
    out = []
    for k in range(ambient.rank):
        for i in range(n):
            unit = tuple(1 if t in (i, n + i) else 0 for t in range(2 * n))
            out.append({(k, unit): 1, (k, zero): -1})
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

    def _vector(self, vec: dict) -> Vector:
        per_pos: list[dict] = [dict() for _ in range(self.ambient.rank)]
        for (pos, exp), c in vec.items():
            per_pos[pos][exp] = c
        return tuple(self._element(d) for d in per_pos)

    def normal_form(self, v: Vector) -> tuple[Vector, list[RingElement]]:
        rem, qs = _reduce(_to_engine(self.ring, v), self.gb.basis)
        cert_total: dict = {}
        for qi, q in enumerate(qs):
            if q:
                _cert_iadd_scaled(
                    cert_total, self.gb.zero_exp, 1, _scaled_cert(q, self.gb.basis[qi].cert)
                )
        certificate = [
            self._element(cert_total.get(j, {})) for j in range(len(self.columns))
        ]
        return self._vector(rem), certificate

    def syzygy_vectors(self) -> list[tuple[RingElement, ...]]:
        if self.gb.syzygies is None:
            raise EngineError("the syzygies of this span were dropped")
        s = len(self.columns)
        out = []
        for cert in self.gb.syzygies:
            vec = tuple(self._element(cert.get(j, {})) for j in range(s))
            if any(vec):
                out.append(vec)
        return out

    def drop_syzygies(self) -> None:
        self.gb.syzygies = None

    def basis_vectors(self) -> list[Vector]:
        # x_i*y_i - 1 and its multiples are basis elements that vanish here
        out = []
        for g in self.gb.basis:
            v = self._vector(g.vec)
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
    """
    cols = [ambient.coerce_vector(c) for c in columns]
    ring = ambient.ring
    engine = [_to_engine(ring, c) for c in cols]
    lower = _ModuleGB(_engine_nvars(ring), []).grown(_unit_columns(ambient))
    kept: list[int] = []
    groups = _degree_groups(ambient, cols)
    for g, group in enumerate(groups):
        if g:
            group = [j for j in group if not lower.contains(engine[j])]
        i = 0
        while i < len(group):
            # alone in a later group, a column was just tested against N_<d
            others = [engine[k] for k in group if k != group[i]]
            if others and lower.grown(others).contains(engine[group[i]]):
                group.pop(i)
            else:
                i += 1
        kept.extend(group)
        if g + 1 < len(groups):
            # with N_<d, the kept columns span what the whole group does
            lower = lower.grown([engine[k] for k in group])
    kept.sort()
    return [cols[k] for k in kept], kept


def _degree_groups(ambient: GradedFreeModule, cols: list[Vector]) -> list[list[int]]:
    """Column indices grouped by degree, in increasing degree.

    Laurent rings, Z/2 grading, variables of degree <= 0, and zero or
    inhomogeneous columns put every column into one group.
    """
    ring = ambient.ring
    degrees = [ambient.vector_degree(c) for c in cols]
    if (
        ring.kind == LAURENT
        or ring.grading != GRADING_Z
        or any(w <= 0 for w in ring.var_degrees)
        or not all(isinstance(d, int) for d in degrees)
    ):
        return [list(range(len(cols)))]
    by_degree: dict[int, list[int]] = {}
    for j, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(j)
    return [by_degree[d] for d in sorted(by_degree)]


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
