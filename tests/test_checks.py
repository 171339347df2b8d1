"""checks.qp_reference against a slow, separate exact solve in Fractions."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from safecut.checks import qp_reference, random_qp_instance


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


def _gauss_jordan(G, r):
    """x with G x = r by elimination over Fractions; None when G is singular."""
    n = len(r)
    M = [list(row) + [ri] for row, ri in zip(G, r)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if M[i][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col] / M[col][col]
                M[i] = [a - f * p for a, p in zip(M[i], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def fraction_reference(v_d, rows):
    """min |v - v_d|^2 subject to N v >= b, by brute force in Fractions.

    Every set of at most three rows, the empty set first, gives the
    projection of v_d onto those rows held with equality.  It is tested on
    every row, its own included, and the first feasible candidate of
    strictly smallest objective wins; None when no candidate is feasible.
    """
    N, b = rows
    v = [Fraction(float(x)) for x in np.ravel(v_d)]
    normals = [[Fraction(float(x)) for x in row] for row in np.reshape(N, (-1, 3))]
    offsets = [Fraction(float(x)) for x in np.ravel(b)]
    best, best_obj = None, None
    for size in range(min(len(offsets), 3) + 1):
        for S in combinations(range(len(offsets)), size):
            lam = _gauss_jordan([[_dot(normals[i], normals[j]) for j in S] for i in S],
                                [offsets[i] - _dot(normals[i], v) for i in S])
            if lam is None:
                continue
            w = [v[j] + sum(x * normals[i][j] for x, i in zip(lam, S)) for j in range(3)]
            if all(_dot(n, w) >= o for n, o in zip(normals, offsets)):
                obj = sum((wj - vj) ** 2 for wj, vj in zip(w, v))
                if best is None or obj < best_obj:
                    best, best_obj = w, obj
    return None if best is None else np.array([float(x) for x in best])


def _assert_same(v_d, rows):
    expected = fraction_reference(v_d, rows)
    got = qp_reference(v_d, rows)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.tobytes() == expected.tobytes()
    return got


def test_qp_reference_matches_fraction_solve_on_random_programs():
    rng = np.random.default_rng(2024)
    verdicts = [_assert_same(*random_qp_instance(rng)) is None for _ in range(300)]
    assert 0 < sum(verdicts) < len(verdicts)


def test_qp_reference_matches_fraction_solve_with_four_rows():
    # three-row candidates are then tested on a row outside their set
    rng = np.random.default_rng(7)
    for _ in range(40):
        normals = rng.normal(0.0, 1.0, (4, 3))
        _assert_same(rng.normal(0.0, 3.0, 3), (normals, rng.uniform(-4.0, 4.0, 4)))


@pytest.mark.parametrize("v_d, N, b, expected", [
    pytest.param([1.0, 2.0, 3.0], np.zeros((0, 3)), np.zeros(0), [1.0, 2.0, 3.0], id="no-rows"),
    # slack exactly 0 at v_d, with a second row slack: v_d is the optimum
    pytest.param([5.0, 0.3, -2.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [0.3, 1.0],
                 [5.0, 0.3, -2.0], id="row-met-exactly"),
    # rows {0} and {0, 1} give the same point and objective; the first stays
    pytest.param([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0],
                 [1.0, 0.0, 0.0], id="objective-tie"),
    pytest.param([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [1.0, 1.0],
                 None, id="antipodal-infeasible"),
])
def test_qp_reference_matches_fraction_solve_on_hand_built_programs(v_d, N, b, expected):
    got = _assert_same(np.array(v_d), (np.array(N, dtype=float), np.array(b, dtype=float)))
    assert (got is None) if expected is None else got.tolist() == expected
