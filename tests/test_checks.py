"""checks.qp_reference against a slow, separate exact solve in Fractions; the
program draws against their first form; every verify suite against a fault it
must catch."""

import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import safecut
from safecut import checks
from safecut.checks import qp_reference, random_qp_instance
from safecut.dynamics import forward_dynamics


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


def _linalg_norm_instance(rng):
    """random_qp_instance with its normals scaled by np.linalg.norm, as written first."""
    v_d = rng.normal(0.0, 3.0, 3)
    k = int(rng.integers(1, 4))
    normals = rng.normal(0.0, 1.0, (k, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = rng.uniform(-4.0, 4.0, k)
    if k >= 2 and rng.random() < 0.15:
        normals[1] = -normals[0]
        if rng.random() < 0.5:
            normals[1] += rng.normal(0.0, 1e-3, 3)
            normals[1] /= np.linalg.norm(normals[1])
        offsets[:2] = rng.uniform(-1.0, 3.0, 2)
    return v_d, (normals, offsets)


@pytest.mark.parametrize("seed", [0, [100, 1]], ids=["0", "100-1"])
def test_random_qp_instance_draws_match_linalg_norm_form(seed):
    # verify's counts and the benchmark's per-seed failed counts rest on these draws
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20000):
        v_d, (N, b) = random_qp_instance(rng)
        w_d, (M, c) = _linalg_norm_instance(oracle)
        assert (v_d.tobytes(), N.tobytes(), b.tobytes()) == (w_d.tobytes(), M.tobytes(), c.tobytes())


def _passes_v_d_through(real, v_d, rows):
    return v_d


def _one_jacobian_entry_off(real, *args):
    x, (row0, row1, (j20, j21, j22)) = real(*args)
    return x, (row0, row1, (1.001 * j20, j21, j22))


def _normals_lengthened(real, *args):
    h, normals = real(*args)
    return h, [tuple(1.001 * c for c in n) for n in normals]


def _mass_matrix_asymmetric(real, *args):
    M = real(*args)
    M[0, 1] *= 1.0 + 1e-12
    return M


def _coriolis_scaled(real, *args):
    return 1.01 * real(*args)


def _coriolis_transposed(real, *args):
    # C + C^T is unchanged, so skew-symmetry passes it; dynamics-residual does not
    return real(*args).T


def _first_acceleration_off(real, *args):
    qdd1, *rest = real(*args)
    return (qdd1 * (1.0 + 1e-6), *rest)


def _potential_sign_flipped(real, *args):
    return -real(*args)


def _heun_step(real, q, qdot, u, dt, params):
    """Second-order Heun step on forward_dynamics: the order check must refuse it."""
    a = forward_dynamics(*q[1:], *qdot, *u, params)
    q1 = [x + dt * v for x, v in zip(q, qdot)]
    v1 = [v + dt * x for v, x in zip(qdot, a)]
    b = forward_dynamics(*q1[1:], *v1, *u, params)
    return (tuple(x + 0.5 * dt * (v + w) for x, v, w in zip(q, qdot, v1)),
            tuple(v + 0.5 * dt * (x + y) for v, x, y in zip(qdot, a, b)))


# (suite, the name in checks the fault replaces, the fault, a pattern of the failing
# detail); the fault is called with the function it replaces, then that one's arguments
FAULTS = [
    pytest.param("qp-oracle", "safety_filter", _passes_v_d_through, r"^instance \d+: ",
                 id="qp-oracle"),
    pytest.param("jacobian-fd", "tip_kinematics", _one_jacobian_entry_off, "worst column error",
                 id="jacobian-fd"),
    pytest.param("barrier-gradients-fd", "selected_barrier_values", _normals_lengthened,
                 "worst deviation", id="barrier-gradients-fd"),
    pytest.param("mass-matrix-spd", "mass_matrix", _mass_matrix_asymmetric, "not exactly symmetric",
                 id="mass-matrix-spd"),
    pytest.param("skew-symmetry", "coriolis_matrix", _coriolis_scaled, "worst residual",
                 id="skew-symmetry"),
    pytest.param("dynamics-residual", "coriolis_matrix", _coriolis_transposed, "worst residual",
                 id="dynamics-residual-C-transposed"),
    pytest.param("dynamics-residual", "forward_dynamics", _first_acceleration_off,
                 "worst residual", id="dynamics-residual"),
    pytest.param("energy-audit", "potential_energy", _potential_sign_flipped, "drift",
                 id="energy-audit"),
    # an order between 1.8 and 2.2: the second-order step, seen as one
    pytest.param("rk4-order", "rk4_step", _heun_step, r"observed order (1\.8[1-9]|1\.9|2\.[01])",
                 id="rk4-order"),
]


def _verdict(suite):
    fn = dict(checks.VERIFY_SUITES)[suite]
    return fn(200, 0) if suite == "qp-oracle" else fn()


@pytest.mark.parametrize("suite, name, fault, detail", FAULTS)
def test_suite_fails_its_planted_fault(monkeypatch, suite, name, fault, detail):
    # each suite passes the code as it is and fails it with one planted fault,
    # so a passing suite is evidence, not a check that cannot fail
    ok, unpatched = _verdict(suite)
    assert ok, unpatched
    monkeypatch.setattr(checks, name, partial(fault, getattr(checks, name)))
    ok, patched = _verdict(suite)
    assert not ok and re.search(detail, patched), patched


def test_cli_import_keeps_scipy_solvers_out(tmp_path):
    # numpy is the only runtime dependency: importing scipy costs every
    # safecut process import time and resident memory, so neither the import
    # nor a reported run, summarize included, may load any scipy module
    code = ("import sys, safecut.cli; "
            "code = safecut.cli.main(['run', '--scenario', '1', '--emit', 'report', "
            "'--out', sys.argv[1]]); "
            "print('exit', code, *(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(safecut.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert "enclosure [turns]" in out
    assert out.splitlines()[-1].split() == ["exit", "0"]


def test_verify_suites_are_fixed_programs():
    # `safecut verify` and the benchmark call every suite but the QP oracle as
    # fn(): each is one fixed program, its sample counts and seeds its own.
    # Every suite has a row in FAULTS
    assert {p.values[0] for p in FAULTS} == {name for name, _ in checks.VERIFY_SUITES}
    for name, fn in checks.VERIFY_SUITES:
        params = inspect.signature(fn).parameters
        if name == "qp-oracle":
            assert list(params) == ["instances", "seed"]
            assert all(p.default is inspect.Parameter.empty for p in params.values())
        else:
            assert not params, f"{name} takes {list(params)}"
