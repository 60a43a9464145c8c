"""Exact solvers: Smith normal form, membership, certificates, syzygies."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedtrace import (
    GRADING_Z2,
    ColumnSpan,
    EngineError,
    GradedFreeModule,
    GradedMatrixHom,
    compose,
    determinant,
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


def test_int_determinant():
    assert int_determinant([[2, 1], [1, 1]]) == 1
    assert int_determinant([[1, 2], [3, 4]]) == -2
    assert int_determinant([]) == 1


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
