"""Independent cross-check oracles: frozen values and rejection paths."""

import ast
import random
import time
from pathlib import Path

import pytest

import gradedtrace.oracles as oracles_module
from gradedtrace import ORACLES, OracleError, int_determinant, integers, laurent_ring
from gradedtrace.oracles import MAX_CIRCLE_FIXED_POINTS, MAX_ORACLE_MATRIX

Z = integers()
ZL = laurent_ring(["t"], [0])


def test_registry_is_complete():
    assert set(ORACLES) == {
        "circle_fixed_points",
        "suspension_fixed_points",
        "cw_alternating_sum",
        "det_i_minus_m",
        "count_eigenlines",
        "signed_rank_sum",
        "weight_sum",
    }


@pytest.mark.parametrize(
    "degree,expected",
    [(-2, 3), (-1, 2), (0, 1), (1, 0), (2, -1), (3, -2)],
)
def test_circle_fixed_points(degree, expected):
    assert ORACLES["circle_fixed_points"](Z, [degree]) == Z.const(expected)


@pytest.mark.parametrize(
    "degree,expected",
    [(-2, -1), (-1, 0), (0, 1), (1, 2), (2, 3), (3, 4)],
)
def test_suspension_fixed_points(degree, expected):
    assert ORACLES["suspension_fixed_points"](Z, [degree]) == Z.const(expected)


def test_circle_oracle_payload_arity():
    with pytest.raises(OracleError):
        ORACLES["circle_fixed_points"](Z, [])
    with pytest.raises(OracleError):
        ORACLES["circle_fixed_points"](Z, [2, 3])


def test_cw_alternating_sum():
    oracle = ORACLES["cw_alternating_sum"]
    assert oracle(Z, [[[1]], [[1, 0], [0, 1]], [[1]]]) == Z.const(0)
    assert oracle(Z, [[[3]], [], [[2]]]) == Z.const(5)
    assert oracle(Z, []) == Z.const(0)
    with pytest.raises(OracleError):
        oracle(Z, [[[1, 2]]])  # not square


def test_det_i_minus_m():
    oracle = ORACLES["det_i_minus_m"]
    assert oracle(Z, [[[1, 0], [0, 1]]]) == Z.const(0)
    assert oracle(Z, [[[1, 1], [0, 1]]]) == Z.const(0)
    assert oracle(Z, [[[2, 1], [1, 1]]]) == Z.const(-1)
    assert oracle(Z, [[[0, -1], [1, 0]]]) == Z.const(2)
    assert oracle(Z, [[]]) == Z.const(1)
    with pytest.raises(OracleError):
        oracle(Z, [[[1, 2, 3], [4, 5, 6]]])


def test_det_i_minus_m_matches_bareiss_from_8_to_20():
    rng = random.Random(8)
    oracle = ORACLES["det_i_minus_m"]
    for n in range(8, 21):
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        i_minus_m = [[(i == j) - m[i][j] for j in range(n)] for i in range(n)]
        assert oracle(Z, [m]) == Z.const(int_determinant(i_minus_m))


@pytest.mark.parametrize("n,bound", [(12, 0.5), (20, 2.0)])
def test_det_i_minus_m_meets_its_time_bound(n, bound):
    rng = random.Random(n)
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    start = time.perf_counter()
    ORACLES["det_i_minus_m"](Z, [m])
    assert time.perf_counter() - start < bound


@pytest.mark.parametrize("name", ["det_i_minus_m", "count_eigenlines"])
def test_matrix_oracles_refuse_a_matrix_past_the_bound(name):
    n = MAX_ORACLE_MATRIX + 1
    with pytest.raises(OracleError) as err:
        ORACLES[name](Z, [[[int(i == j) for j in range(n)] for i in range(n)]])
    assert str(err.value) == f"a {n} x {n} matrix is larger than the bound of {MAX_ORACLE_MATRIX}"


def test_det_i_minus_m_accepts_the_matrix_at_the_bound():
    n = MAX_ORACLE_MATRIX
    m = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    # a cyclic permutation of n points: det(I - M) = 1 - 1 = 0
    assert ORACLES["det_i_minus_m"](Z, [m]) == Z.const(0)


def test_the_oracles_import_nothing_from_the_engine():
    tree = ast.parse(Path(oracles_module.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert imported == {"__future__", "fractions", "typing", "rings"}


@pytest.mark.parametrize("name", ["circle_fixed_points", "suspension_fixed_points"])
def test_circle_oracles_refuse_a_degree_past_the_bound(name):
    for d in (2 + MAX_CIRCLE_FIXED_POINTS, -MAX_CIRCLE_FIXED_POINTS, 10**9):
        with pytest.raises(OracleError) as err:
            ORACLES[name](Z, [d])
        assert str(err.value) == (
            f"degree {d} has {abs(d - 1)} fixed points to check, "
            f"more than the bound of {MAX_CIRCLE_FIXED_POINTS}"
        )


def test_circle_oracle_accepts_the_degree_at_the_bound():
    d = 1 + MAX_CIRCLE_FIXED_POINTS
    assert ORACLES["circle_fixed_points"](Z, [d]) == Z.const(1 - d)


def test_count_eigenlines():
    oracle = ORACLES["count_eigenlines"]
    assert oracle(Z, [[[0, 1], [1, 1]]]) == Z.const(2)
    assert oracle(Z, [[[0, 0, 1], [1, 0, 0], [0, 1, -1]]]) == Z.const(3)
    # the identity has a repeated eigenvalue: squarefree check must fire
    with pytest.raises(OracleError):
        oracle(Z, [[[1, 0], [0, 1]]])
    with pytest.raises(OracleError):
        oracle(Z, [[[2, 1], [0, 2]]])


def test_signed_rank_sum():
    oracle = ORACLES["signed_rank_sum"]
    assert oracle(Z, [[0, 2, -2], [1, 1, 3]]) == Z.const(6)
    assert oracle(Z, [[0, 0, 1], []]) == Z.const(1)
    assert oracle(Z, [[0, 1], []]) == Z.const(0)
    with pytest.raises(OracleError):
        oracle(Z, [[0]])


def test_weight_sum():
    oracle = ORACLES["weight_sum"]
    t = ZL.gen("t")
    assert oracle(ZL, [1, t]) == 1 + t
    assert oracle(ZL, []) == ZL.zero()
    assert oracle(Z, [2, 3, -5]) == Z.const(0)
    with pytest.raises(OracleError):
        oracle(Z, [t])  # weight from the wrong ring
    with pytest.raises(OracleError):
        oracle(Z, ["x"])


def test_non_integer_payload_rejected():
    with pytest.raises(OracleError):
        ORACLES["det_i_minus_m"](Z, [[[ZL.gen("t"), 0], [0, 1]]])


def test_results_land_in_the_comparison_ring():
    for name in ("circle_fixed_points", "suspension_fixed_points"):
        value = ORACLES[name](ZL, [2])
        assert value.ring == ZL


@pytest.mark.parametrize("name", ["det_i_minus_m", "count_eigenlines", "cw_alternating_sum"])
def test_a_payload_row_that_is_not_a_list_is_refused(name):
    # the payload [[1, 2]]: a single row where a matrix of rows belongs
    with pytest.raises(OracleError) as err:
        ORACLES[name](Z, [[Z.const(1), Z.const(2)]])
    assert str(err.value) == "expected a matrix (list of rows)"


def test_a_scalar_for_a_chain_matrix_is_refused_whatever_its_value():
    # [] is the empty matrix; 0 and 5 are not matrices
    oracle = ORACLES["cw_alternating_sum"]
    assert oracle(Z, [[], [[Z.const(1)]]]) == Z.const(-1)
    for scalar in (0, 5):
        with pytest.raises(OracleError) as err:
            oracle(Z, [Z.const(scalar), [[Z.const(1)]]])
        assert str(err.value) == "expected a matrix (list of rows)"
