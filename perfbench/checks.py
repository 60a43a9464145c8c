"""Reference computations the benchmark checks the program's answers against.

Nothing here imports gradedtrace.  Every function takes plain data: ring
elements as dicts {exponent tuple: int}, free modules as lists of shifts,
matrices as lists of rows.  The routes are chosen to share nothing with
the program:

* Betti lower bounds for Z[x_0..x_{n-1}]/m^d come from the Eagon-Northcott
  formula, and the graded Euler characteristic of a resolution is compared
  with the Hilbert series counted from standard monomials.
* Signed ranks come from exact Fraction elimination of the relation matrix
  at fixed integer points, per parity class of generator shifts.
* Smith diagonals are compared with determinantal divisors, gcds of minors
  taken by cofactor expansion.
* Free traces are signed diagonal sums of raw term dictionaries.

Run ``python3 perfbench/checks.py`` to run the self-test, which shows that
every check rejects a wrong answer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd


class CheckFailed(Exception):
    """The program returned an answer the reference computation rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def poly_add(acc: dict, terms: dict, scale: int = 1) -> dict:
    """acc += scale * terms, dropping zero coefficients; returns acc."""
    for exp, c in terms.items():
        s = acc.get(exp, 0) + scale * c
        if s:
            acc[exp] = s
        else:
            acc.pop(exp, None)
    return acc


def signed_diagonal(shifts: list[int], diagonal: list[dict]) -> dict:
    """sum_i (-1)^shift_i * f_ii on raw term dictionaries."""
    total: dict = {}
    for shift, entry in zip(shifts, diagonal):
        poly_add(total, entry, -1 if shift % 2 else 1)
    return total


# ---------------------------------------------------------------------------
# Resolutions of Z[x_0..x_{n-1}]/m^d
# ---------------------------------------------------------------------------


def eagon_northcott(n: int, d: int) -> list[int]:
    """Minimal Betti numbers of S/m^d over a field, S in n variables."""
    return [1] + [comb(n + d - 1, d + i) * comb(d + i - 1, i) for i in range(n)]


def check_betti_lower_bound(ranks: list[int], n: int, d: int) -> None:
    """Any free resolution has ranks at least the minimal Betti numbers."""
    betti = eagon_northcott(n, d)
    padded = list(ranks) + [0] * max(0, len(betti) - len(ranks))
    for i, b in enumerate(betti):
        require(
            padded[i] >= b,
            f"resolution rank {padded[i]} at step {i} is below the Betti number {b} of m^{d} in {n} variables",
        )


def hilbert_numerator(d: int, weights: tuple[int, ...]) -> dict:
    """HS(S/m^d)(t) * prod_i (1 - t^weights[i]), keyed by degree.

    The Hilbert series is counted from the standard monomials of S/m^d,
    the monomials of total degree below d; variable i has degree weights[i].
    """
    series: dict = {}
    for total in range(d):
        for combo in combinations_with_replacement(weights, total):
            poly_add(series, {sum(combo): 1})
    for w in weights:
        series = poly_add(dict(series), {k + w: c for k, c in series.items()}, -1)
    return series


def euler_characteristic(module_shifts: list[list[int]]) -> dict:
    """sum_i (-1)^i sum_gens t^(internal degree), keyed by degree.

    A generator of step i with shift s has internal degree i - s, because
    differentials have degree 1 and a shift stores minus the module degree.
    """
    chi: dict = {}
    for i, shifts in enumerate(module_shifts):
        for s in shifts:
            poly_add(chi, {i - s: 1}, -1 if i % 2 else 1)
    return chi


def check_mpower_resolution(module_shifts: list[list[int]], d: int, weights: tuple[int, ...]) -> None:
    check_betti_lower_bound([len(s) for s in module_shifts], len(weights), d)
    require(
        euler_characteristic(module_shifts) == hilbert_numerator(d, weights),
        f"graded Euler characteristic of the resolution of m^{d} with weights {weights} "
        "differs from the Hilbert series of the standard monomials",
    )


# ---------------------------------------------------------------------------
# Signed ranks by exact elimination
# ---------------------------------------------------------------------------

# Fixed evaluation points, one coordinate per ring variable.  The rank of a
# matrix evaluated at a point never exceeds its rank over the fraction
# field; the maximum over these points reaches it unless every point is a
# common root of all maximal nonvanishing minors.
POINTS = ((3, 5, 7, 11), (-2, 9, 4, 13), (17, -3, 2, 5))


def _evaluate(terms: dict, point: tuple[int, ...]) -> Fraction:
    total = Fraction(0)
    for exp, c in terms.items():
        value = Fraction(c)
        for x, e in zip(point, exp):
            value *= Fraction(x) ** e
        total += value
    return total


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination with exact fractions."""
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank][col]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / p
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def signed_rank(generator_shifts: list[int], columns: list[list[dict]]) -> int:
    """sum over parity classes p of (-1)^p (generators of class p - rank).

    columns[j][i] is the raw entry of relation column j at generator i.
    The rank of each parity class is that of its rows of the relation
    matrix over the fraction field of the ring.
    """
    total = 0
    for parity in (0, 1):
        rows = [i for i, s in enumerate(generator_shifts) if s % 2 == parity]
        if not rows:
            continue
        rank = 0
        if columns:
            for point in POINTS:
                mat = [[_evaluate(col[i], point) for col in columns] for i in rows]
                rank = max(rank, fraction_rank(mat))
        total += (-1 if parity else 1) * (len(rows) - rank)
    return total


def resolution_signed_rank(module_shifts: list[list[int]]) -> int:
    """sum over every generator of every step of (-1)^shift."""
    return sum(-1 if s % 2 else 1 for shifts in module_shifts for s in shifts)


def check_scalar_trace(trace_terms: dict, scalar: int, expected_signed_rank: int, what: str) -> None:
    """The trace of multiplication by a scalar is scalar times the signed rank."""
    constant = sum(c for exp, c in trace_terms.items() if not any(exp))
    require(
        all(not any(exp) for exp in trace_terms) and constant == scalar * expected_signed_rank,
        f"{what}: trace {trace_terms} differs from {scalar} * signed rank {expected_signed_rank}",
    )


# ---------------------------------------------------------------------------
# Smith normal form by determinantal divisors
# ---------------------------------------------------------------------------


def determinantal_divisors(rows: list[list[int]]) -> list[int]:
    """D_k = gcd of all k x k minors, for k = 1 .. min(shape)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    memo: dict = {}

    def minor(rs: tuple[int, ...], cs: tuple[int, ...]) -> int:
        if not rs:
            return 1
        key = (rs, cs)
        if key in memo:
            return memo[key]
        total = 0
        r0 = rs[0]
        for idx, c in enumerate(cs):
            a = rows[r0][c]
            if a:
                sign = -1 if idx % 2 else 1
                total += sign * a * minor(rs[1:], cs[:idx] + cs[idx + 1 :])
        memo[key] = total
        return total

    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, minor(rs, cs))
        out.append(g)
    return out


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """The Smith diagonal the determinantal divisors give: d_k = D_k / D_(k-1)."""
    want = []
    prev = 1
    for dk in determinantal_divisors(rows):
        if dk == 0:
            want.append(0)
        else:
            want.append(dk // prev)
            prev = dk
    return want


def check_smith_diagonal(want: list[int], diagonal: list[int]) -> None:
    require(
        list(diagonal) == want,
        f"Smith diagonal {list(diagonal)} differs from the one the determinantal divisors give, {want}",
    )


# ---------------------------------------------------------------------------
# Reading ring elements back from command-line output
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_element(text: str, var_names: tuple[str, ...]) -> dict:
    """Read a printed ring element such as '3*x^2*y - t^-1 + 5'."""
    text = text.strip()
    if text == "0":
        return {}
    terms: dict = {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].lstrip("-")] + pieces[2::2]
    for sign, body in zip(signs, bodies):
        coeff = 1
        exp = [0] * len(var_names)
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            match = _FACTOR.match(factor)
            require(match is not None and match.group(1) in var_names, f"cannot read {body!r} in {text!r}")
            exp[var_names.index(match.group(1))] += int(match.group(2) or 1)
        poly_add(terms, {tuple(exp): -coeff if sign == "-" else coeff})
    return terms


# ---------------------------------------------------------------------------
# Self-test: every check must reject a wrong answer
# ---------------------------------------------------------------------------


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def self_test() -> None:
    """Raise CheckFailed unless each check accepts a right answer and rejects a wrong one."""
    # Z[x0,x1]/m^2: P0 = [0]; three quadrics of degree 4; two syzygies of degree 6.
    good = [[0], [-3, -3, -3], [-4, -4]]
    check_mpower_resolution(good, 2, (2, 2))
    require(_rejects(check_mpower_resolution, good[:-1], 2, (2, 2)), "a resolution with its last term dropped passed")
    # weights (2, 4): quadrics of degree 4, 6, 8; syzygies of degree 8 and 10
    check_mpower_resolution([[0], [-3, -5, -7], [-6, -8]], 2, (2, 4))
    require(_rejects(check_mpower_resolution, [[0], [-3, -5, -7], [-6, -6]], 2, (2, 4)), "a wrongly graded resolution passed")
    require(eagon_northcott(4, 3) == [1, 20, 45, 36, 10], "Eagon-Northcott numbers are wrong")
    require(_rejects(check_betti_lower_bound, [1, 20, 45, 36], 4, 3), "a short resolution passed the Betti bound")

    # Z[x]/(2x) with generators of shift 0: rank 1 - 1 = 0; the generator alone has rank 1.
    x2 = [[{(1,): 2}]]
    require(signed_rank([0], x2) == 0 and signed_rank([0], []) == 1, "signed rank is wrong")
    require(signed_rank([0, 1], []) == 0 and signed_rank([1], []) == -1, "parity classes are wrong")
    require(resolution_signed_rank([[0], [-1]]) == 0, "resolution signed rank is wrong")
    check_scalar_trace({(0,): 6}, 3, 2, "self-test")
    require(_rejects(check_scalar_trace, {(0,): 7}, 3, 2, "self-test"), "a trace off by one passed")
    require(_rejects(check_scalar_trace, {(0,): 6, (1,): 1}, 3, 2, "self-test"), "a non-constant trace passed")

    check_smith_diagonal(smith_diagonal([[2, 0], [0, 4]]), [2, 4])
    check_smith_diagonal(smith_diagonal([[2, 4], [6, 8]]), [2, 4])
    check_smith_diagonal(smith_diagonal([[0, 0, 0], [0, 0, 0]]), [0, 0])
    require(_rejects(check_smith_diagonal, smith_diagonal([[2, 0], [0, 4]]), [4, 2]), "a Smith diagonal with two entries swapped passed")
    require(_rejects(check_smith_diagonal, smith_diagonal([[1, 2], [2, 4]]), [1, 2]), "a wrong rank passed")

    diag = signed_diagonal([0, 1, 2], [{(1, 0): 3}, {(): 2}, {(): 5}])
    require(diag == {(1, 0): 3, (): 3}, "signed diagonal is wrong")
    require(parse_element("3*x^2*y - t^-1 + 5", ("x", "y", "t")) == {(2, 1, 0): 3, (0, 0, -1): -1, (0, 0, 0): 5}, "element reader is wrong")
    require(parse_element("-x", ("x",)) == {(1,): -1} and parse_element("0", ("x",)) == {}, "element reader is wrong")


if __name__ == "__main__":
    self_test()
    print("checks self-test: ok")
