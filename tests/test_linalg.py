"""Exact solvers: Smith normal form, membership, certificates, syzygies."""

import copy
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedtrace import (
    GRADING_Z2,
    ColumnSpan,
    EngineError,
    GradedFreeModule,
    GradedMatrixHom,
    HomogeneityError,
    compose,
    determinant,
    hom_from_columns,
    identity_hom,
    int_determinant,
    integers,
    is_invertible,
    laurent_ring,
    polynomial_ring,
    prune_columns,
    relation_hom_from_columns,
    smith_normal_form,
    syzygies,
)

import gradedtrace.solvers as solvers_impl
import genutils as gu
from gradedtrace.freemod import _relation_shifts

Z = integers()
ZX = polynomial_ring(["x"], [2])
ZXY = polynomial_ring(["x", "y"], [2, 4])
ZXY_EVEN = polynomial_ring(["x", "y"], [2, 2])
ZT = polynomial_ring(["t"], [0])
ZL = laurent_ring(["t"], [0])
# two Laurent variables, so that exponents split into and merge from pairs
LAURENT_2VAR = [
    laurent_ring(["s", "t"], [0, 2]),
    laurent_ring(["s", "t"], [2, 2], GRADING_Z2),
]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _is_identity(m):
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


# -- Smith normal form -------------------------------------------------------


def test_snf_diag_2_3_gives_1_6():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == [1, 6]


def test_snf_known_rectangular():
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf.diagonal == [2, 2, 156]


def test_snf_zero_and_empty():
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]
    assert smith_normal_form([]).diagonal == []


def test_snf_random_properties():
    rng = random.Random(23)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(mat)
        assert _mat_mul(snf.U, _mat_mul(snf.D, snf.V)) == mat
        assert int_determinant(snf.U) in (1, -1)
        assert int_determinant(snf.V) in (1, -1)
        assert _is_identity(_mat_mul(snf.U, snf.Uinv))
        assert _is_identity(_mat_mul(snf.Vinv, snf.V))
        diag = snf.diagonal
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert snf.D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


@pytest.mark.parametrize("rows", [[[1], [2, 3]], [[1, 2], [3]]])
def test_snf_refuses_a_ragged_matrix_by_its_row(rows):
    # the first once dropped the 3, the second raised a bare IndexError
    with pytest.raises(ValueError, match="row 1 of a ragged matrix"):
        smith_normal_form(rows)


def test_int_determinant():
    assert int_determinant([[2, 1], [1, 1]]) == 1
    assert int_determinant([[1, 2], [3, 4]]) == -2
    assert int_determinant([]) == 1


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1], [2]], [[1, 2], [3]], [[]]])
def test_int_determinant_refuses_a_matrix_that_is_not_square(rows):
    with pytest.raises(ValueError, match="non-square"):
        int_determinant(rows)


@pytest.mark.parametrize("solver", [smith_normal_form, int_determinant])
@pytest.mark.parametrize(
    "rows, place",
    [
        ([[1.5, 2], [3, 4]], "row 0, column 0"),  # once a Smith diagonal [0.5, 0.0], a determinant 0.0
        ([[1, 2], [3, 4.0]], "row 1, column 1"),
        ([[1, "2"], [3, 4]], "row 0, column 1"),  # once a bare TypeError from a comparison
        ([[1, 2], [None, 4]], "row 1, column 0"),
    ],
)
def test_integer_solvers_refuse_an_entry_that_is_not_an_int(solver, rows, place):
    with pytest.raises(ValueError, match=f"at {place} is not an int"):
        solver(rows)


def test_integer_solvers_take_bools_as_ints():
    assert smith_normal_form([[True, 2], [3, 4]]).diagonal == smith_normal_form([[1, 2], [3, 4]]).diagonal == [1, 2]
    assert int_determinant([[True, 2], [3, 4]]) == -2


# -- membership and certificates ---------------------------------------------


def test_integer_membership_brute_force_cross_check():
    m = GradedFreeModule(Z, (0, 0))
    cols = [m.coerce_vector([2, 0]), m.coerce_vector([0, 3]), m.coerce_vector([1, 1])]
    span = ColumnSpan(m, cols)
    # brute force: enumerate small combinations
    reachable = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                reachable.add((2 * a + c, 3 * b + c))
    for x in range(-4, 5):
        for y in range(-4, 5):
            v = m.coerce_vector([x, y])
            assert span.contains(v) == ((x, y) in reachable)


def test_certificates_recombine_exactly():
    rng = random.Random(41)
    for ring in gu.THREE_KINDS + LAURENT_2VAR:
        for _ in range(25):
            m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            cols = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(-2, 2)
                col = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
                cols.append(m.coerce_vector(col))
            span = ColumnSpan(m, cols)
            k = rng.randint(-2, 2)
            v = m.coerce_vector(
                [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
            )
            remainder, cert = span.normal_form(v)
            assert len(cert) == len(cols)
            rebuilt = list(remainder)
            for c, col in zip(cert, cols):
                for i in range(m.rank):
                    rebuilt[i] = rebuilt[i] + c * col[i]
            assert tuple(rebuilt) == v
            if all(e.is_zero() for e in remainder):
                assert span.contains(v)


def test_contains_agrees_with_the_normal_form_remainder():
    rng = random.Random(43)
    for ring in gu.RING_POOL:
        for _ in range(40):
            m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            k = rng.randint(-2, 2)
            cols = [
                m.coerce_vector(
                    [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
                )
                for _ in range(rng.randint(1, 4))
            ]
            span = ColumnSpan(m, cols)
            outside = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
            # a combination of the columns, so that some vectors lie in the span
            inside = [ring.zero()] * m.rank
            for col in cols:
                c = ring.const(rng.randint(-3, 3))
                inside = [e + c * x for e, x in zip(inside, col)]
            for v in (outside, inside, [a + b for a, b in zip(outside, inside)]):
                v = m.coerce_vector(v)
                remainder, _ = span.normal_form(v)
                assert span.contains(v) == all(e.is_zero() for e in remainder)
            assert span.contains(m.coerce_vector(inside))


def test_contains_builds_no_certificate(monkeypatch):
    calls = []
    normal_form = ColumnSpan.normal_form

    def counting(span, v):
        calls.append(v)
        return normal_form(span, v)

    monkeypatch.setattr(ColumnSpan, "normal_form", counting)
    for ring in (Z, ZXY, ZL):
        m = GradedFreeModule(ring, (0, 0))
        span = ColumnSpan(m, [(ring.const(2), ring.const(4)), (ring.zero(), ring.const(6))])
        assert span.contains((ring.const(2), ring.const(10)))
        assert not span.contains((ring.const(1), ring.zero()))
    assert calls == []


def test_polynomial_membership_known_ideal():
    m = GradedFreeModule(ZT, (0,))
    x = ZT.gen("t")
    span = ColumnSpan(m, [(ZT.const(2),), (x,)])
    assert span.contains((x + 2,))
    assert span.contains((2 * x**3 - 4 * x + 6,))
    assert not span.contains((ZT.one(),))
    assert not span.contains((ZT.const(3),))
    assert not span.contains((x + 1,))


def test_laurent_units_change_membership():
    # over Z[t, 1/t] the span of (2t, t^2) contains 2; over Z[t] it cannot
    mp = GradedFreeModule(ZT, (0,))
    tp = ZT.gen("t")
    assert not ColumnSpan(mp, [(2 * tp,), (tp * tp,)]).contains((ZT.const(2),))
    ml = GradedFreeModule(ZL, (0,))
    tl = ZL.gen("t")
    assert ColumnSpan(ml, [(2 * tl,), (tl * tl,)]).contains((ZL.const(2),))
    assert not ColumnSpan(ml, [(tl + 2,)]).contains((ZL.one(),))


def test_groebner_basis_is_permutation_invariant():
    rng = random.Random(77)
    for ring in gu.THREE_KINDS:
        for _ in range(15):
            m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            cols = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(-2, 2)
                col = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
                if any(not e.is_zero() for e in col):
                    cols.append(m.coerce_vector(col))
            if not cols:
                continue
            base = ColumnSpan(m, cols).basis_vectors()
            perm = cols[:]
            rng.shuffle(perm)
            again = ColumnSpan(m, perm).basis_vectors()
            assert sorted(map(str, base)) == sorted(map(str, again))


def test_prune_columns_keeps_span():
    m = GradedFreeModule(Z, (0, 0))
    cols = [
        m.coerce_vector([1, 0]),
        m.coerce_vector([2, 0]),
        m.coerce_vector([0, 1]),
        m.coerce_vector([3, 4]),
    ]
    kept, indices = prune_columns(m, cols)
    assert len(kept) < len(cols)
    span_all = ColumnSpan(m, cols)
    span_kept = ColumnSpan(m, kept)
    assert all(span_kept.contains(c) for c in cols)
    assert all(span_all.contains(c) for c in kept)
    assert [cols[i] for i in indices] == kept


def _greedy_reference(ambient, cols):
    """The plain greedy pass: drop each column lying in the span of the others kept."""
    kept = list(range(len(cols)))
    i = 0
    while i < len(kept):
        others = [cols[k] for k in kept if k != kept[i]]
        if others and ColumnSpan(ambient, others).contains(cols[kept[i]]):
            kept.pop(i)
        else:
            i += 1
    return kept


PRUNE_RINGS = [
    Z,
    integers(GRADING_Z2),
    polynomial_ring(["x", "y"], [2, 2]),
    # weighted: the degree of a pair is not the sum of its lcm's exponents
    polynomial_ring(["x", "y"], [2, 4]),
    polynomial_ring(["x", "y"], [2, 2], GRADING_Z2),
    polynomial_ring(["x", "t"], [2, 0]),
    polynomial_ring(["x", "s"], [2, -2]),
    laurent_ring(["t"], [2]),
]


def _dependent_columns(rng, ring):
    """A few homogeneous columns, then nonzero combinations of them, shuffled.

    A zero column puts every column into one group, so it is added rarely.
    """
    m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-1, hi=1))
    base = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-1, 2)
        col = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
        if any(col):
            base.append((k, col))
    cols = [col for _, col in base]
    for _ in range(rng.randint(1, 4) if base else 0):
        k = rng.choice(base)[0] + 2 * rng.randint(-1, 1)
        combo = [ring.zero()] * m.rank
        for kb, col in base:
            a = gu.random_homogeneous(rng, ring, k - kb, span=1)
            combo = [e + a * c for e, c in zip(combo, col)]
        if any(combo):
            cols.append(combo)
    if rng.random() < 0.1:
        cols.append([ring.zero()] * m.rank)
    rng.shuffle(cols)
    return m, [m.coerce_vector(c) for c in cols]


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ring=st.sampled_from(PRUNE_RINGS), rng=st.randoms(use_true_random=False))
def test_prune_columns_matches_greedy_reference(ring, rng):
    m, cols = _dependent_columns(rng, ring)
    kept, indices = prune_columns(m, cols)
    assert indices == _greedy_reference(m, cols)
    assert kept == [cols[i] for i in indices]


ONE_GROUP_RINGS = [
    polynomial_ring(["s"], [0]),
    laurent_ring(["t"], [0]),
    laurent_ring(["t"], [2], GRADING_Z2),
]


def _one_group_columns(rng, ring):
    """6-12 homogeneous columns: two or three drawn, a duplicate, a scalar
    multiple, a zero column, then combinations, shuffled."""
    m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=2, lo=-1, hi=1))
    base, want = [], rng.randint(2, 3)
    for _ in range(20):
        k = -rng.choice(m.shifts)  # degree 0 at one position at least: the constants lie there
        col = [gu.random_homogeneous(rng, ring, k + n, span=1) for n in m.shifts]
        if any(col):
            base.append((k, col))
        if len(base) == want:
            break
    cols = [col for _, col in base]
    if base:
        cols.append(list(rng.choice(base)[1]))
        cols.append([rng.choice((-3, -2, 2, 3)) * e for e in rng.choice(base)[1]])
    cols.append([ring.zero()] * m.rank)
    size = rng.randint(6, 12)
    while base and len(cols) < size:
        k = rng.choice(base)[0]
        combo = [ring.zero()] * m.rank
        for kb, col in base:
            a = gu.random_homogeneous(rng, ring, k - kb, span=1)
            combo = [e + a * c for e, c in zip(combo, col)]
        cols.append(combo)
    rng.shuffle(cols)
    return m, [m.coerce_vector(c) for c in cols]


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ring=st.sampled_from(ONE_GROUP_RINGS), rng=st.randoms(use_true_random=False))
def test_one_group_pruning_matches_greedy_reference(ring, rng):
    # every column of these rings falls into one group, pruned by the chain of suffix bases
    m, cols = _one_group_columns(rng, ring)
    kept, indices = prune_columns(m, cols)
    assert indices == _greedy_reference(m, cols)
    assert kept == [cols[i] for i in indices]


def test_one_group_pruning_admits_each_column_to_a_few_bases(monkeypatch):
    # The 165 raw first syzygies of a module over R(SU(2)) = Z[s:0] form one
    # group.  With r = 3 kept of k = 165, the chain of suffix bases admits at
    # most (k - 1) + k * r = 659 columns; one completion of the other columns
    # per column admitted 13,533.
    ring = polynomial_ring(["s"], [0])
    s = ring.gen("s")
    gens = GradedFreeModule(ring, (0, 0))
    rels = [[-2 * s**2 - 3 * s, 2 * s**2 + 3], [3 * s**2 + 2, 2 * s**2], [2 * s - 2, -(s**2) - 3]]
    rel = relation_hom_from_columns(gens, rels)
    columns = list(solvers_impl.column_span(rel)._sparse_kernel())
    assert len(columns) == 165
    admitted = []
    grown = solvers_impl._ModuleGB.grown

    def counting(self, cols, max_degree=None):
        admitted.append(len(cols))
        return grown(self, cols, max_degree)

    monkeypatch.setattr(solvers_impl._ModuleGB, "grown", counting)
    kept = prune_columns(rel.source, columns)[1]
    assert kept == [162, 163, 164]
    assert sum(admitted) <= (len(columns) - 1) + len(columns) * len(kept)


def test_prune_columns_keeps_the_last_of_all_zero_columns():
    # the greedy pass never drops a column left alone
    for ring in (Z, ZX):
        m = GradedFreeModule(ring, (0,))
        assert prune_columns(m, [(0,), (0,)])[1] == [1]
        assert prune_columns(m, [(0,)])[1] == [0]
        assert prune_columns(m, [])[1] == []


def test_prune_columns_answers_inhomogeneous_integer_columns():
    m = GradedFreeModule(Z, (0, 1))
    assert prune_columns(m, [(1, 1), (1, 1)])[1] == [1]
    assert prune_columns(m, [(2, 2), (1, 0), (0, 1), (3, 3)])[1] == [1, 2]
    assert prune_columns(m, [(2, 4), (3, 6), (1, 0)])[1] == [0, 1, 2]


def test_integer_span_refuses_an_inhomogeneous_column_by_its_index():
    m = GradedFreeModule(Z, (0, 1))
    with pytest.raises(HomogeneityError, match="column 1 is not homogeneous"):
        ColumnSpan(m, [(1, 0), (1, 1)])
    assert ColumnSpan(m, [(1, 0), (0, 1)]).contains((3, -2))


def test_integer_pruning_builds_no_span(monkeypatch):
    # one lattice walk answers the whole greedy pass over Z
    rng = random.Random(5)
    cases = []
    for ring in (Z, integers(GRADING_Z2)):
        m = GradedFreeModule(ring, (0, 1, 2, 0))
        for _ in range(5):
            rows = rng.choice([(0, 3), (1,), (2,)])
            cols = [m.coerce_vector([rng.randint(-4, 4) if i in rows else 0 for i in range(4)]) for _ in range(8)]
            cases.append((m, cols, _greedy_reference(m, cols)))
    built = []
    for cls in (solvers_impl.ColumnSpan, solvers_impl._IntBackend, solvers_impl._ModuleGB):
        init = cls.__init__

        def recording(self, *args, init=init, cls=cls):
            built.append(cls.__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", recording)
    for m, cols, want in cases:
        assert prune_columns(m, cols)[1] == want
    assert built == []


def test_prune_columns_keeps_the_greedy_choice_over_z():
    # One pass in increasing degree that keeps each column not yet in the span
    # (graded Nakayama) keeps [0, 1, 2], three columns where the greedy pass
    # finds two: column 2 = column 3 - y * column 4 and column 1 =
    # 3 * column 3 - (x + 3y) * column 4.  Degree 0 is Z, not a field.
    m = GradedFreeModule(ZXY_EVEN, (-1, 1, 1))
    x, y = ZXY_EVEN.gen("x"), ZXY_EVEN.gen("y")
    cols = [
        (0, -5, -3),
        (3, -x - 3 * y, 0),
        (1, -2 * x - y, -x),
        (1, -2 * x - 6 * y, -x - 3 * y),
        (0, -5, -3),
        (0, 10, 6),
    ]
    cols = [m.coerce_vector(c) for c in cols]
    assert _greedy_reference(m, cols) == [3, 4]
    assert prune_columns(m, cols)[1] == [3, 4]


def test_prune_columns_completes_gcd_pairs_of_the_tested_degree():
    # Column 0 = column 1 - column 2, but 3x^2 and 2x^2 do not divide each
    # other's leading term: only the gcd pair of the two, of degree 4 under
    # the weights (2, 4) and of exponent sum 2, shows that x^2 + y is in
    # their span.  A basis truncated below degree 4 misses it.
    m = GradedFreeModule(ZXY, (0,))
    x, y = ZXY.gen("x"), ZXY.gen("y")
    cols = [m.coerce_vector([c]) for c in (x * x + y, 3 * x * x + y, 2 * x * x)]
    assert _greedy_reference(m, cols) == [1, 2]
    assert prune_columns(m, cols)[1] == [1, 2]


def test_prune_columns_completes_lower_degrees_for_later_groups():
    # y^3 = y * x^2 - (x - y) * (x*y + y^2) lies in N_<6 only through the
    # S-pair of x^2 and x*y + y^2, of degree 6, above both of their own.
    m = GradedFreeModule(ZXY_EVEN, (0,))
    x, y = ZXY_EVEN.gen("x"), ZXY_EVEN.gen("y")
    cols = [m.coerce_vector([c]) for c in (x * x, x * y + y * y, y**3)]
    assert _greedy_reference(m, cols) == [0, 1]
    assert prune_columns(m, cols)[1] == [0, 1]


def test_prune_columns_falls_back_where_a_remainder_keeps_a_residue():
    # Against N_<4 = (2x), x^2 is its own remainder: 2x divides its monomial
    # but not its coefficient.  Column 1 = 2x * x - column 2, so the greedy
    # pass drops it, though the two remainders x^2 + y^2 and x^2 - y^2 are
    # Z-independent; only a completion sees that their sum lies in N_<4.
    m = GradedFreeModule(ZXY_EVEN, (0,))
    x, y = ZXY_EVEN.gen("x"), ZXY_EVEN.gen("y")
    cols = [m.coerce_vector([c]) for c in (2 * x, x * x + y * y, x * x - y * y)]
    assert _greedy_reference(m, cols) == [0, 2]
    assert prune_columns(m, cols)[1] == [0, 2]


# -- whole matrices: solve and many-column membership ---------------------------


def _per_column_solve(span, g, degree):
    """solve the way lift_endomorphism first did it: normal_form, then vector_component."""
    p = span.source
    cols = []
    for c, v in enumerate(g.columns()):
        remainder, cert = span.normal_form(v)
        assert not any(remainder)
        cols.append(p.vector_component(cert, degree - g.source.shifts[c]))
    return hom_from_columns(g.source, p, degree, cols)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(ring=st.sampled_from(gu.RING_POOL), rng=st.randoms(use_true_random=False))
def test_solve_and_first_outside_match_the_per_column_calls(ring, rng):
    m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
    p = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=4, lo=-2, hi=2))
    q = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
    d = rng.choice((0, 2))
    dmap = gu.random_matrix(rng, p, m, 1)
    span = solvers_impl.column_span(dmap)
    g = compose(dmap, gu.random_matrix(rng, q, p, d))
    x = span.solve(g, d)
    assert x == _per_column_solve(span, g, d)
    # the certificates solve boxes are the engine vectors of X's columns:
    # canonical, without the positions of Laurent unit columns
    assert span._certificates(solvers_impl._engine_columns(g)) == solvers_impl._engine_columns(x)
    assert compose(dmap, x) == g
    # the validating constructor accepts it, and certificates need no projection
    assert GradedMatrixHom(x.source, x.target, x.degree, x.entries) == x
    for c, v in enumerate(g.columns()):
        _, cert = span.normal_form(v)
        assert p.vector_component(cert, d - q.shifts[c]) == tuple(cert)
    # many-column membership agrees with contains, on a map and on vectors
    h = gu.random_matrix(rng, q, m, 1 + d)
    per_column = next((j for j, v in enumerate(h.columns()) if not span.contains(v)), None)
    assert span.first_outside(h) == span.first_outside(h.columns()) == per_column
    assert span.first_outside(g) is None
    # a column pushed outside the span is named, by both calls
    if q.rank:
        c = rng.randrange(q.rank)
        push = gu.random_matrix(rng, q, m, 1 + d, density=1.0)
        v = push.column(c)
        if not span.contains(v):
            rows = [{c: e} if e else {} for e in v]
            bad = g + GradedMatrixHom._closed(q, m, 1 + d, rows)
            assert span.first_outside(bad) == c
            with pytest.raises(EngineError, match=f"column {c} lies outside the span"):
                span.solve(bad, d)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ring=st.sampled_from(gu.RING_POOL), rng=st.randoms(use_true_random=False))
def test_a_maps_engine_columns_are_kept_and_compose_as_compose_does(ring, rng):
    m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
    p = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=4))
    q = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3))
    f = gu.random_matrix(rng, p, m, 1)
    g = gu.random_matrix(rng, q, p, rng.choice((0, 1)))
    vecs = solvers_impl._engine_columns(f)
    assert vecs == [solvers_impl._encode(ring, c) for c in f._sparse_columns()]
    assert solvers_impl._engine_columns(f) is vecs
    assert solvers_impl._engine_compose(vecs, g) == solvers_impl._engine_columns(compose(f, g))


def test_a_laurent_engine_product_cancels_t_times_its_inverse():
    m, p = GradedFreeModule(ZL, (0,)), GradedFreeModule(ZL, (0, 0))
    t, inv = ZL.gen("t"), ZL.gen("t", -1)
    f = GradedMatrixHom(p, m, 0, [[t, 1]])
    for rows, product in (([[inv], [-1]], [{}]), ([[inv], [0]], [{0: ZL.one()}]), ([[inv, inv], [-1, 1]], [{}, {0: 2 * ZL.one()}])):
        g = GradedMatrixHom(GradedFreeModule(ZL, (0,) * len(rows[0])), p, 0, rows)
        got = solvers_impl._engine_compose(solvers_impl._engine_columns(f), g)
        assert got == solvers_impl._engine_columns(compose(f, g)) == [solvers_impl._encode(ZL, c) for c in product]


def test_solve_needs_the_span_of_a_map_into_its_module():
    m = GradedFreeModule(Z, (0,))
    with pytest.raises(ValueError, match="column_span"):
        ColumnSpan(m, [(Z.const(2),)]).solve(identity_hom(m), 0)
    span = solvers_impl.column_span(GradedMatrixHom(m, m, 0, [[2]]))
    with pytest.raises(ValueError, match="is not a map into"):
        span.first_outside(identity_hom(GradedFreeModule(Z, (1,))))
    with pytest.raises(ValueError, match="is not a map into"):
        span.solve(identity_hom(GradedFreeModule(Z, (1,))), 0)


def test_first_outside_coerces_dense_vectors_as_contains_does():
    span = ColumnSpan(GradedFreeModule(Z, (0, 0)), [(2, 0)])
    for v in ((1, 0), (4, 0), (0, 0), (0, 3)):
        assert (span.first_outside([v]) is None) == span.contains(v)
    with pytest.raises(ValueError) as err:
        span.first_outside([(Z.const(1),)])
    assert str(err.value) == "expected 2 entries, got 1"

# -- the engine's packed terms --------------------------------------------------


def _term_key(pos, exp):
    """The engine's term order as a tuple: lower position, then degrevlex."""
    return (-pos, sum(exp), tuple(-e for e in reversed(exp)))


def _exponents(rng, n, small):
    """Exponents up to 3 (so that divisions happen), or up to the bound in total."""
    top = 3 if small else solvers_impl._LIMIT // max(n, 1)
    return tuple(rng.randint(0, top) for _ in range(n))


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(n=st.integers(0, 12), rng=st.randoms(use_true_random=False))
def test_packed_terms_match_the_tuple_reference(n, rng):
    terms = [
        (rng.randint(0, 5), _exponents(rng, n, rng.random() < 0.7))
        for _ in range(rng.randint(1, 8))
    ]
    mono = _exponents(rng, n, rng.random() < 0.5)
    pk = solvers_impl._packing(n)
    keys = [pk.pack(pos, exp) for pos, exp in terms]
    assert [pk.unpack(k) for k in keys] == terms
    offset = pk.pack(0, mono) - pk.one
    for (pos, exp), k in zip(terms, keys):
        product = tuple(a + b for a, b in zip(exp, mono))
        if sum(product) <= solvers_impl._LIMIT:
            assert pk.unpack(k + offset) == (pos, product)
        else:
            assert (k + offset) & pk.guard
        if n and sum(exp):
            # a product of degree one past the bound sets a guard bit
            past = (0,) * (n - 1) + (solvers_impl._LIMIT + 1 - sum(exp),)
            assert (k + pk.pack(0, past) - pk.one) & pk.guard
        for (pos2, exp2), k2 in zip(terms, keys):
            assert (k < k2) == (_term_key(pos, exp) < _term_key(pos2, exp2))
            assert (k == k2) == ((pos, exp) == (pos2, exp2))
            if pos != pos2:
                continue
            # does the leading monomial exp2 divide exp, and by what?
            divides = not (k2 - k) & pk.exp_guard
            assert divides == all(a >= b for a, b in zip(exp, exp2))
            if divides:
                quotient = tuple(a - b for a, b in zip(exp, exp2))
                assert pk.unpack(k - k2 + pk.one) == (0, quotient)


def test_engine_refuses_exponents_past_its_field_bound():
    limit = solvers_impl._LIMIT
    m = GradedFreeModule(ZXY_EVEN, (0, 0))
    x, y = ZXY_EVEN.gen("x"), ZXY_EVEN.gen("y")
    ColumnSpan(m, [(x**limit, 0)])
    # at entry: one exponent, or the total degree, past the bound
    for col in [(x ** (limit + 1), 0), (0, x**limit * y)]:
        with pytest.raises(EngineError):
            ColumnSpan(m, [col])
    with pytest.raises(EngineError):
        ColumnSpan(GradedFreeModule(ZL, (0,)), [(ZL.gen("t") ** -(limit + 1),)])
    with pytest.raises(EngineError):
        ColumnSpan(m, [(x, 0)]).normal_form((y ** (limit + 1), 0))
    # inside the engine: the S-pair y * c0 - x^limit * c1 holds y^(limit + 1)
    with pytest.raises(EngineError):
        ColumnSpan(m, [(x**limit, y**limit), (y, 0)])
    # a zero column puts all three into one group, completed in full
    with pytest.raises(EngineError):
        prune_columns(m, [(x**limit, y**limit), (y, 0), (0, 0)])


class _RecordingGB(solvers_impl._ModuleGB):
    """A certifying basis that records the skip index of every tail reduction."""

    def __init__(self, nvars, columns):
        self.skips = []
        super().__init__(nvars, columns)

    def _reduce(self, v, cert=None, skip=-1):
        if skip >= 0:
            self.skips.append(skip)
        return super()._reduce(v, cert, skip)


def _tail_reduced_to_fixpoint(gb):
    """The basis after tail reduction is repeated until a pass changes nothing."""
    ref = copy.copy(gb)
    ref.basis = list(gb.basis)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(ref.basis):
            cert = dict(g.cert)
            rem = ref._reduce(g.vec, cert, skip=i)
            if rem != g.vec:
                ref.basis[i] = solvers_impl._GBElem(rem, cert, ref.pk)
                changed = True
    return ref.basis


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(ring=st.sampled_from(gu.RING_POOL + LAURENT_2VAR[:1]), rng=st.randoms(use_true_random=False))
def test_one_tail_reduction_pass_is_the_interreduction_fixpoint(ring, rng):
    # even shifts and column degrees, so that few entries are forced to zero
    target = GradedFreeModule(ring, tuple(2 * s for s in gu.random_shifts(rng, max_rank=2, lo=-1, hi=0)))
    columns = []
    for _ in range(rng.randint(1, 5)):
        k = 2 * rng.randint(0, 2)
        column = ((i, gu.random_homogeneous(rng, ring, k + n, span=1)) for i, n in enumerate(target.shifts))
        vec = solvers_impl._encode(ring, {i: e for i, e in column if e})
        if ring.kind == "integers":  # {row: int}; the Groebner engine takes rows as terms in no variable
            vec = {solvers_impl._packing(0).pack(i, ()): c for i, c in vec.items()}
        columns.append(vec)
    gb = _RecordingGB(solvers_impl._engine_nvars(ring), columns + solvers_impl._unit_columns(target))
    basis = gb.basis
    # one pass, in basis order, which sorts leading terms
    assert gb.skips == list(range(len(basis)))
    assert [(g.key, g.lc) for g in basis] == sorted((g.key, g.lc) for g in basis)
    # no element reduces another's leading term, so no leading term can move
    for g in basis:
        for h in basis:
            if h is not g and h.pos == g.pos and not (h.key - g.key) & gb.pk.exp_guard:
                assert g.lc // h.lc == 0
    fixpoint = _tail_reduced_to_fixpoint(gb)
    assert [(g.vec, g.cert) for g in fixpoint] == [(g.vec, g.cert) for g in basis]


# -- syzygies ------------------------------------------------------------------


def test_koszul_syzygy():
    m = GradedFreeModule(ZXY, (0,))
    x, y = ZXY.gen("x"), ZXY.gen("y")
    f = relation_hom_from_columns(m, [(x,), (y,)], 1)
    syz = syzygies(f)
    assert syz.source.rank == 1
    assert compose(f, syz).is_zero()
    col = syz.column(0)
    expect = ColumnSpan(f.source, [f.source.coerce_vector([y, -x])])
    assert expect.contains(col)
    assert ColumnSpan(f.source, [col]).contains(f.source.coerce_vector([y, -x]))


def test_syzygies_random_compose_to_zero_and_homogeneous():
    rng = random.Random(13)
    for ring in gu.THREE_KINDS + LAURENT_2VAR:
        for _ in range(20):
            target = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            source = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            f = gu.random_matrix(rng, source, target, 1)
            syz = syzygies(f)
            assert compose(f, syz).is_zero()
            for j in range(syz.source.rank):
                col = syz.column(j)
                deg = syz.source.shifts[j]
                # column j is homogeneous by the entry-degree law already;
                # check it is a genuine kernel element
                assert all(e.is_zero() for e in f.apply(col))
                assert isinstance(deg, int)


def test_sparse_syzygies_equal_the_public_dense_route():
    # syzygies reads degrees off one term and cancels Laurent terms sparsely;
    # the reference goes through dense vectors, vector_degree and the
    # validating constructor
    rng = random.Random(26)
    rings = gu.RING_POOL + LAURENT_2VAR + [ZT, polynomial_ring(["s", "x"], [0, 2])]
    kinds = set()
    for ring in rings:
        for _ in range(15):
            target = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=3, lo=-2, hi=2))
            source = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=4, lo=-2, hi=2))
            f = gu.random_matrix(rng, source, target, 1)
            got = syzygies(f)
            vectors = ColumnSpan(f.target, f.columns()).syzygy_vectors()
            assert solvers_impl.column_span(f).syzygy_vectors() == vectors
            if vectors and ring.kind != "integers":
                vectors = prune_columns(f.source, vectors)[0]
            shifts = _relation_shifts(f.source, vectors, 1)
            want = hom_from_columns(GradedFreeModule(ring, shifts), f.source, 1, vectors)
            assert got.source.shifts == shifts
            assert got == want
            # both routes convert the engine's answers alike; these checks do not
            assert compose(f, got).is_zero()
            assert all(e and all(c for _, c in e.items()) for row in got._rows for e in row.values())
            kinds.add((ring.kind, bool(vectors)))
    assert {(k, True) for k in ("integers", "polynomial", "laurent")} <= kinds


# -- graded matrices: determinant and inverses ---------------------------------


def test_determinant_matches_int_determinant():
    rng = random.Random(9)
    m = GradedFreeModule(Z, (0, 0, 0))
    for _ in range(20):
        f = gu.random_endo(rng, m)
        rows = [[f.entries[i][j].coefficient(()) for j in range(3)] for i in range(3)]
        assert determinant(f) == Z.const(int_determinant(rows))


def test_is_invertible_on_unimodular():
    rng = random.Random(31)
    for ring in gu.THREE_KINDS:
        for _ in range(10):
            m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=4, lo=-2, hi=2))
            conj, inv = gu.random_unimodular(rng, m)
            flag, computed = is_invertible(conj)
            assert flag
            assert compose(conj, computed) == identity_hom(m)
            assert compose(computed, conj) == identity_hom(m)
            assert computed == inv


def test_is_invertible_rejects_rank_drop():
    m = GradedFreeModule(Z, (0, 0))
    f = GradedMatrixHom(m, m, 0, [[2, 0], [0, 1]])
    flag, inverse = is_invertible(f)
    assert not flag and inverse is None


def _dense_int_hom(rng, ring, rank):
    """A degree-0 endomorphism of ring^rank with integer entries in [-3, 3]."""
    m = GradedFreeModule(ring, (0,) * rank)
    rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    return GradedMatrixHom(m, m, 0, rows), rows


@pytest.mark.parametrize("rank", [0, 1, 2, 5, 9, 14, 19, 24])
def test_determinant_matches_int_determinant_up_to_rank_24(rank):
    rng = random.Random(100 + rank)
    f, rows = _dense_int_hom(rng, Z, rank)
    assert determinant(f) == Z.const(int_determinant(rows))
    # a sparse draw, so that zero pivots and empty rows are met too
    sparse = [[e if rng.random() < 0.3 else 0 for e in row] for row in rows]
    g = GradedMatrixHom(f.source, f.target, 0, sparse)
    assert determinant(g) == Z.const(int_determinant(sparse))


def test_determinant_is_multiplicative_over_every_kind():
    rng = random.Random(41)
    for ring in gu.THREE_KINDS:
        for _ in range(10):
            m = GradedFreeModule(ring, gu.random_shifts(rng, max_rank=6, lo=-2, hi=2))
            f, g = gu.random_endo(rng, m), gu.random_endo(rng, m)
            assert determinant(compose(g, f)) == determinant(g) * determinant(f)


@pytest.mark.parametrize("ring", gu.THREE_KINDS, ids=str)
def test_is_invertible_inverse_composes_to_the_identity_up_to_rank_12(ring):
    empty = GradedFreeModule(ring, ())
    assert is_invertible(identity_hom(empty)) == (True, identity_hom(empty))
    rng = random.Random(57)
    for rank in (1, 3, 6, 9, 12):
        m = GradedFreeModule(ring, tuple(rng.randint(-2, 2) for _ in range(rank)))
        conj, inv = gu.random_unimodular(rng, m, ops=3 * rank)
        flag, computed = is_invertible(conj)
        assert flag
        assert compose(conj, computed) == identity_hom(m)
        assert compose(computed, conj) == identity_hom(m)
        assert computed == inv


def test_is_invertible_inverts_a_map_between_different_modules():
    # multiplication by t: R[0] -> R[2] is a graded isomorphism when t is a unit of degree 2
    ZL2 = laurent_ring(["t"], [2])
    t = ZL2.gen("t")
    source, target = GradedFreeModule(ZL2, (0, 0)), GradedFreeModule(ZL2, (2, 0))
    f = GradedMatrixHom(source, target, 0, [[t, 3 * t], [0, -1]])
    assert determinant(f) == -t
    flag, inverse = is_invertible(f)
    assert flag
    assert compose(f, inverse) == identity_hom(target)
    assert compose(inverse, f) == identity_hom(source)
    # legal by construction: the validating constructor accepts the same rows
    assert GradedMatrixHom(target, source, 0, inverse.entries) == inverse


def test_rank_24_determinant_and_inverse_meet_their_time_bounds():
    rng = random.Random(3)
    f, rows = _dense_int_hom(rng, ZX, 24)
    start = time.perf_counter()
    det = determinant(f)
    assert time.perf_counter() - start < 1.0
    assert det == ZX.const(int_determinant(rows))
    conj, inv = gu.random_unimodular(rng, f.source, ops=300)
    assert sum(map(len, conj._rows)) > 500  # dense: 576 entries in all
    start = time.perf_counter()
    flag, computed = is_invertible(conj)
    assert time.perf_counter() - start < 3.0
    assert flag and computed == inv


@pytest.mark.parametrize(
    "ring", [r for r in gu.RING_POOL if r.kind == "laurent"] + [laurent_ring(["s", "t"], [0, 2])], ids=str
)
def test_laurent_certificates_lie_over_the_span_columns(ring):
    # the unit columns (x_i*y_i - 1)*e_k join the engine with an empty certificate
    rng = random.Random(71)
    checked = 0
    for _ in range(12):
        module = gu.random_presented_module(rng, ring, max_rank=2, max_rels=4)
        span = solvers_impl.column_span(module.relations)
        backend, n = span._backend, len(span.columns)
        gb = backend.gb
        certs = [g.cert for g in gb.basis] + list(gb.syzygies)
        for _ in range(3):
            k = rng.randint(-2, 2)
            column = {i: e for i, s in enumerate(module.generators.shifts) if (e := gu.random_homogeneous(rng, ring, k + s, span=1))}
            certs.append(backend.divide(solvers_impl._encode(ring, column))[1])
        certs += [c.engine for c in span._sparse_kernel()]
        assert all(gb.pk.unpack(key)[0] < n for cert in certs for key in cert)
        checked += sum(map(bool, certs))
    assert checked
