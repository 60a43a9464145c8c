"""Independent cross-checks for trace computations.

Each oracle recomputes an expected trace by a route that shares nothing
with the resolution/lift machinery: transverse fixed points are counted
with exact rational arithmetic, chain-level traces are alternating sums of
integer matrix diagonals, determinants come from cofactor expansion written
out here rather than imported from the solvers, and weight sums are frozen
lists added up term by term.  An oracle receives the ring the comparison
happens in plus the payload recorded in the case file, and returns the
expected value as an element of that ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .rings import RingElement, RingSpec


class OracleError(ValueError):
    """Payload malformed or oracle preconditions violated."""


def as_int(x) -> int:
    """Extract a plain integer from a constant ring element (or an int)."""
    if isinstance(x, int):
        return x
    if isinstance(x, RingElement):
        terms = x.terms()
        if not terms:
            return 0
        if len(terms) == 1:
            (exp, c), = terms.items()
            if all(e == 0 for e in exp):
                return c
        raise OracleError(f"expected an integer constant, got {x}")
    raise OracleError(f"expected an integer constant, got {x!r}")


def as_int_matrix(rows) -> list[list[int]]:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise OracleError("expected a matrix (list of rows)")
    out = [[as_int(e) for e in row] for row in rows]
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise OracleError("ragged matrix in oracle payload")
    return out


def _cofactor_determinant(rows: list[list[int]]) -> int:
    """Plain recursive cofactor expansion; independent of the solvers."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def _circle_index_sum(d: int) -> int:
    """Sum of fixed-point indices of x -> d.x (mod 1), for d != 1.

    The fixed points are the exact rationals k/|d-1|; each is verified
    transverse by evaluating the displacement on both sides with Fraction
    arithmetic, and contributes sign(1 - d).
    """
    count = abs(d - 1)
    total = 0
    eps = Fraction(1, 4 * count)
    for k in range(count):
        x = Fraction(k, count)
        image = d * x
        if (image - x) % 1 != 0:
            raise OracleError(f"candidate {x} is not a fixed point")
        shift = image - x
        left = (d * (x - eps)) - (x - eps) - shift
        right = (d * (x + eps)) - (x + eps) - shift
        if left > 0 > right:
            total += 1
        elif left < 0 < right:
            total -= 1
        else:
            raise OracleError(f"fixed point {x} is not transverse")
    return total


def circle_fixed_points(ring: RingSpec, payload) -> RingElement:
    """Indexed fixed-point count of the standard degree-d circle map.

    The map is x -> d.x (mod 1); for d != 1 its fixed points are counted
    with transversality indices.  The degree-1 map is isotopic to a
    fixed-point-free rotation and contributes 0.
    """
    if len(payload) != 1:
        raise OracleError("circle oracle expects one payload entry: the degree")
    d = as_int(payload[0])
    if d == 1:
        return ring.const(0)
    return ring.const(_circle_index_sum(d))


def suspension_fixed_points(ring: RingSpec, payload) -> RingElement:
    """Indexed fixed-point count of the suspended degree-d circle map.

    The sphere is the suspension of the circle, and the degree-d self-map
    suspends x -> d.x, perturbed along the cone direction so that all fixed
    points are isolated: the two poles survive with index +1 each, and the
    cone perturbation reverses the index of every equatorial fixed point.
    The total is 2 - (sum of circle indices); for d = 1 the equator is
    fixed-point free and only the poles count.
    """
    if len(payload) != 1:
        raise OracleError("suspension oracle expects one payload entry: the degree")
    d = as_int(payload[0])
    equatorial = 0 if d == 1 else _circle_index_sum(d)
    return ring.const(2 - equatorial)


def cw_alternating_sum(ring: RingSpec, payload) -> RingElement:
    """sum_k (-1)^k trace(M_k) for chain-level matrices M_0, M_1, ...

    Each payload entry is a square integer matrix (possibly empty) giving
    the induced map on the rank of cells in that dimension.
    """
    total = 0
    for k, rows in enumerate(payload):
        mat = as_int_matrix(rows)
        if mat and len(mat) != len(mat[0]):
            raise OracleError(f"chain matrix in dimension {k} is not square")
        tr = sum(mat[i][i] for i in range(len(mat)))
        total += tr if k % 2 == 0 else -tr
    return ring.const(total)


def det_i_minus_m(ring: RingSpec, payload) -> RingElement:
    """det(I - M) by cofactor expansion, for an integer matrix M."""
    if len(payload) != 1:
        raise OracleError("determinant oracle expects one payload entry: the matrix")
    m = as_int_matrix(payload[0])
    n = len(m)
    if any(len(r) != n for r in m):
        raise OracleError("matrix must be square")
    rows = [[(1 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
    return ring.const(_cofactor_determinant(rows))


def _charpoly(rows: list[list[int]]) -> list[Fraction]:
    """Coefficients of det(lambda.I - M), highest power first (Faddeev).

    The Faddeev-LeVerrier recurrence needs only matrix products and traces,
    which keeps this short and entirely separate from the solver code.
    """
    n = len(rows)
    coeffs: list[Fraction] = [Fraction(1)]
    a = [[Fraction(v) for v in row] for row in rows]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I ; c_k = -tr(A M_k)/k
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            am[i][i] += coeffs[-1]
        trace = sum(
            sum(a[i][t] * am[t][i] for t in range(n)) for i in range(n)
        )
        coeffs.append(Fraction(-1, k) * trace)
        m = am
    return coeffs


def _poly_mod(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Remainder of p by q, coefficients highest-first, q nonzero."""
    p = list(p)
    while len(p) >= len(q) and any(c != 0 for c in p):
        while p and p[0] == 0:
            p.pop(0)
        if len(p) < len(q):
            break
        lead = p[0] / q[0]
        for i in range(len(q)):
            p[i] -= lead * q[i]
    while p and p[0] == 0:
        p.pop(0)
    return p


def count_eigenlines(ring: RingSpec, payload) -> RingElement:
    """Fixed points of the projective map induced by an integer matrix.

    Requires the characteristic polynomial to be squarefree (checked via a
    rational gcd with its derivative); then the eigenvalues are distinct,
    every eigenline is a transverse fixed point of index +1, and the count
    is just the dimension.
    """
    if len(payload) != 1:
        raise OracleError("eigenline oracle expects one payload entry: the matrix")
    m = as_int_matrix(payload[0])
    n = len(m)
    if any(len(r) != n for r in m):
        raise OracleError("matrix must be square")
    p = _charpoly(m)
    dp = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    remainder_chain_p, remainder_chain_q = list(p), list(dp)
    while any(c != 0 for c in remainder_chain_q):
        remainder_chain_p, remainder_chain_q = (
            remainder_chain_q,
            _poly_mod(remainder_chain_p, remainder_chain_q),
        )
    gcd_degree = max(len(remainder_chain_p) - 1, 0)
    if gcd_degree != 0:
        raise OracleError("characteristic polynomial is not squarefree")
    return ring.const(n)


def signed_rank_sum(ring: RingSpec, payload) -> RingElement:
    """sum (-1)^s over the first shift list minus the same over the second."""
    if len(payload) != 2:
        raise OracleError("signed-rank oracle expects two shift lists")
    even, odd = payload

    def total(shifts) -> int:
        return sum(-1 if as_int(s) % 2 else 1 for s in shifts)

    return ring.const(total(even) - total(odd))


def weight_sum(ring: RingSpec, payload) -> RingElement:
    """Sum of a frozen list of weights (ring elements); empty sum is 0."""
    total = ring.zero()
    for w in payload:
        if isinstance(w, int):
            w = ring.const(w)
        if not isinstance(w, RingElement) or w.ring != ring:
            raise OracleError("weights must be elements of the comparison ring")
        total = total + w
    return total


ORACLES: dict[str, Callable[[RingSpec, list], RingElement]] = {
    "circle_fixed_points": circle_fixed_points,
    "suspension_fixed_points": suspension_fixed_points,
    "cw_alternating_sum": cw_alternating_sum,
    "det_i_minus_m": det_i_minus_m,
    "count_eigenlines": count_eigenlines,
    "signed_rank_sum": signed_rank_sum,
    "weight_sum": weight_sum,
}
