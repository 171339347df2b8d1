"""Barrier geometry, the filter rows and the velocity filter."""

from __future__ import annotations

import math
import struct
from itertools import combinations, permutations

import numpy as np
import pytest

from safecut.checks import qp_reference, random_qp_instance
from safecut.safety import (_FEAS_TOL, DegeneratePointError, DepthShell, FilterParams,
                            InfeasibleQPError, SafeSetSpec, TumorSpec, filter_rows,
                            safety_filter, selected_barrier_values)

TUMOR = TumorSpec(center=(0.0, 6.0, 30.0), margin=4.0)
SHELL = DepthShell(center=(0.0, 6.0, 30.0), outer_radius=7.0)


def _rows(x, spec: SafeSetSpec):
    """(names, h, normals) of the filter rows an enabled filter takes from spec at x."""
    h, normals = selected_barrier_values(x, spec, True)
    return spec.names[:len(normals)], h[:len(normals)], normals


def _tumor_h(x):
    """The barrier value of TUMOR alone at x."""
    return selected_barrier_values(x, SafeSetSpec([TUMOR], []), False)[0][0]


def _shell_h(x):
    """The barrier value of SHELL alone at x."""
    return selected_barrier_values(x, SafeSetSpec([], [SHELL]), False)[0][0]


def _tumor_normal(x):
    """The filter's row normal of TUMOR alone at x."""
    _, _, [normal] = _rows(x, SafeSetSpec([TUMOR], []))
    return np.array(normal)


def _shell_normal(x):
    """The filter's row normal of SHELL alone at x."""
    _, _, [normal] = _rows(x, SafeSetSpec([], [SHELL]))
    return np.array(normal)


def test_barrier_sign_convention():
    assert _tumor_h(np.array([0.0, 0.0, 30.0])) == pytest.approx(2.0)
    assert _tumor_h(np.array([0.0, 6.0, 33.0])) == pytest.approx(-1.0)
    assert _shell_h(np.array([0.0, 6.0, 30.0])) == pytest.approx(7.0)
    assert _shell_h(np.array([0.0, 16.0, 30.0])) == pytest.approx(-3.0)


def test_gradients_are_unit_and_opposed():
    x = np.array([3.0, 2.0, 28.0])
    g_in = _tumor_normal(x)
    g_out = _shell_normal(x)
    assert np.linalg.norm(g_in) == pytest.approx(1.0)
    np.testing.assert_allclose(g_in, -g_out, atol=1e-12)


def _unit(rng):
    v = rng.normal(0.0, 1.0, 3)
    return v / np.linalg.norm(v)


def test_degenerate_point_raises():
    with pytest.raises(DegeneratePointError, match="tumor0: barrier gradient undefined"):
        _tumor_normal(np.asarray(TUMOR.center))
    with pytest.raises(DegeneratePointError, match="shell0: barrier gradient undefined"):
        _shell_normal(np.asarray(SHELL.center))


def test_spec_validation():
    with pytest.raises(ValueError):
        TumorSpec(center=(0, 0, 0), margin=0.0)
    with pytest.raises(ValueError):
        DepthShell(center=(0, 0, 0), outer_radius=-1.0)
    with pytest.raises(ValueError):
        SafeSetSpec(tumors=[TUMOR], shells=[DepthShell(TUMOR.center, 3.0)])
    with pytest.raises(ValueError):
        FilterParams(alpha=0.0)


def test_disabled_filter_takes_no_rows_and_needs_no_normal():
    # h is still every barrier value, even at a centre, where no normal exists
    spec = SafeSetSpec(tumors=[TUMOR], shells=[SHELL])
    h, normals = selected_barrier_values(np.asarray(TUMOR.center), spec, False)
    assert h == [-4.0, 7.0] and normals == []


def test_table_is_one_float_row_per_barrier():
    # (cx, cy, cz, r, s) in table order; a normal at a centre names its barrier
    far = TumorSpec(center=(100.0, 0.0, 0.0), margin=4.0)
    spec = SafeSetSpec(tumors=[far, TUMOR], shells=[SHELL])
    assert spec.barriers == [(100.0, 0.0, 0.0, 4.0, 1.0), (0.0, 6.0, 30.0, 4.0, 1.0),
                         (0.0, 6.0, 30.0, 7.0, -1.0)]
    assert all(type(v) is float for row in spec.barriers for v in row)
    with pytest.raises(DegeneratePointError, match="^tumor1: barrier gradient undefined"):
        selected_barrier_values(np.asarray(TUMOR.center), spec, True)


@pytest.mark.parametrize("shell, refused", [
    (DepthShell(TUMOR.center, 3.0), True),                  # inside the margin
    (DepthShell(TUMOR.center, 4.0), True),                  # on the margin
    (DepthShell((0.0, 6.0, 31.0), 4.5), True),              # holds the centre, cuts the sphere
    (DepthShell((0.0, 6.0, 31.0), 5.5), False),             # holds the whole sphere
    (DepthShell((0.0, 6.0, 36.0), 5.0), False),             # cuts the sphere, not the centre
    (DepthShell((0.0, 6.0, 40.0), 3.0), False),             # apart
])
def test_shell_holding_a_tumor_centre_holds_its_sphere(shell, refused):
    tumors, shells = [TumorSpec((50.0, 0.0, 0.0), 1.0), TUMOR], [SHELL, shell]
    if refused:
        with pytest.raises(ValueError, match=r"shell\.1: .* tumor\.1 "):
            SafeSetSpec(tumors, shells)
    else:
        assert SafeSetSpec(tumors, shells).names[-1] == "shell1"


def _random_safe_set(rng, spread: float, tip=None) -> SafeSetSpec:
    """A valid table of 1-6 random barriers; with tip given, every h(tip) >= 0."""
    while True:
        tumors, shells = [], []
        for _ in range(rng.integers(0, 4)):
            center = rng.uniform(-spread, spread, 3)
            if tip is None:
                margin = rng.uniform(1.0, 5.0)
            else:   # outside the sphere, down to about 1e-12 mm
                center = tip + center
                margin = np.linalg.norm(center - tip) * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
            tumors.append(TumorSpec(center, float(margin)))
        for _ in range(rng.integers(0, 4)):
            center = rng.uniform(-spread, spread, 3)
            if tip is None:
                radius = rng.uniform(6.0, 15.0)
            else:   # inside the shell, down to about 1e-12 mm
                center = tip + center
                radius = np.linalg.norm(center - tip) + 10.0 ** rng.uniform(-12.0, 1.0)
            shells.append(DepthShell(center, float(radius)))
        try:
            spec = SafeSetSpec(tumors, shells)
        except ValueError:      # a shell holds a tumor's centre but not its sphere
            continue
        if spec.barriers and (tip is None
                              or min(selected_barrier_values(tip, spec, False)[0]) >= 0.0):
            return spec


@pytest.mark.parametrize("table", ["tumors_and_shells", "tumors_only"])
def test_selection_follows_documented_rule(table):
    # the rule as documented, on tables of keep-out spheres and depth shells
    # and on tables of keep-out spheres alone: every barrier is a row, in table
    # order, with the table's h and the unit normal s_b (x - c_b) / ||x - c_b||
    def rows_follow_rule(x, spec):
        h, _ = selected_barrier_values(x, spec, False)
        names, hs, normals = _rows(x, spec)
        assert names == spec.names and hs == h
        for (*c, _, sign), normal in zip(spec.barriers, normals, strict=True):
            offset = x - np.array(c)
            np.testing.assert_allclose(normal, sign * offset / np.linalg.norm(offset),
                                       atol=1e-12)
        return h

    # by hand: 4.5 mm from the shared centre, 0.5 mm outside TUMOR and 2.5 mm inside SHELL
    fixed = SafeSetSpec([TUMOR], [SHELL] if table == "tumors_and_shells" else [])
    assert rows_follow_rule(np.array([0.0, 1.5, 30.0]), fixed) == [0.5, 2.5][:len(fixed.names)]
    rng = np.random.default_rng(41)
    for _ in range(400):
        spec = _random_safe_set(rng, 15.0)
        if table == "tumors_only":
            spec = SafeSetSpec(spec.tumors or [TUMOR], [])
        center = np.array(spec.barriers[rng.integers(len(spec.barriers))][:3])
        rows_follow_rule(center + rng.uniform(0.5, 15.0) * _unit(rng), spec)


def test_all_rows_feasible_inside_safe_set():
    # with every h >= 0, v = 0 meets every row n . v >= -alpha h, so the
    # all-rows program always has a solution, however the rows face
    rng = np.random.default_rng(43)
    most_rows = 0
    for _ in range(2000):
        tip = rng.uniform(-5.0, 5.0, 3)
        spec = _random_safe_set(rng, 10.0, tip)
        alpha = float(rng.uniform(0.05, 5.0))
        v_d = (rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-2.0, 2.0)).tolist()
        _, hs, normals = _rows(tip, spec)
        v_s, _ = filter_rows(v_d, normals, [-alpha * h for h in hs])
        tol = 1e-9 * max(1.0, float(np.linalg.norm(v_s)))
        for h, normal in zip(hs, normals):
            assert np.dot(normal, v_s) >= -alpha * h - tol
        most_rows = max(most_rows, len(normals))
    assert most_rows == 6


def test_assemble_offsets_scale_with_alpha():
    # the row offset -alpha * h caps the approach speed along the normal at alpha * h
    spec = SafeSetSpec(tumors=[TUMOR], shells=[])
    x = np.array([0.0, 0.0, 30.0])
    _, [h], [normal] = _rows(x, spec)
    assert h == pytest.approx(2.0)
    v_d = (0.0, 10.0, 0.0)   # straight at the tumor
    speeds = []
    for alpha in (0.4, 0.8):
        v_s, active = filter_rows(v_d, [normal], [-alpha * h])
        assert active == 1
        speeds.append(float(np.dot(normal, v_s)))
    assert speeds[0] == pytest.approx(-0.4 * 2.0)
    assert speeds[1] == pytest.approx(2.0 * speeds[0])


def test_filter_passthrough_is_exact():
    rows = (np.array([[0.0, 1.0, 0.0]]), np.array([-1.0]))
    v_d = np.array([5.0, 0.3, -2.0])
    out = safety_filter(v_d, rows)
    np.testing.assert_array_equal(out, v_d)
    assert out is not v_d


def test_filter_single_row_projection():
    # violating one row projects onto its hyperplane
    rows = (np.array([[0.0, 1.0, 0.0]]), np.array([2.0]))
    out = safety_filter(np.array([1.0, -3.0, 0.5]), rows)
    np.testing.assert_allclose(out, [1.0, 2.0, 0.5], atol=1e-12)
    N, b = rows
    assert np.count_nonzero(np.abs(N @ out - b) <= 1e-6) == 1


def test_filter_matches_dense_grid():
    # exhaustive grid cross-check on low-dimensional instances
    rng = np.random.default_rng(32)
    grid = np.linspace(-6.0, 6.0, 61)
    gx, gy, gz = np.meshgrid(grid, grid, grid, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    for _ in range(10):
        v_d = rng.uniform(-3.0, 3.0, 3)
        k = int(rng.integers(1, 3))
        normals = rng.normal(0.0, 1.0, (k, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = rng.uniform(-2.0, 2.0, k)
        rows = (normals, offsets)
        feasible = np.all(pts @ normals.T >= offsets[None, :] - 1e-9, axis=1)
        if not np.any(feasible):
            continue
        cost = np.sum((pts[feasible] - v_d) ** 2, axis=1)
        out = safety_filter(v_d, rows)
        # optimal: feasible, and no feasible grid point beats it
        assert np.all(normals @ out >= offsets - 1e-7)
        assert float(np.sum((out - v_d) ** 2)) <= float(np.min(cost)) + 1e-9


def test_kernel_active_count_matches_numpy_recount():
    # the adapter is the kernel on arrays, and the count folded into the
    # kernel's last feasibility test is the active set a recount finds
    rng = np.random.default_rng(0)
    counts = np.zeros(4, dtype=int)
    for _ in range(2000):
        v_d, (N, b) = random_qp_instance(rng)
        try:
            v, active = filter_rows(v_d.tolist(), N.tolist(), b.tolist())
        except InfeasibleQPError:
            continue
        assert np.array(v).tobytes() == safety_filter(v_d, (N, b)).tobytes()
        assert active == np.count_nonzero(np.abs(N @ np.array(v) - b) <= 1e-6)
        counts[active] += 1
    # passthrough, one-, two- and three-row optima all occur
    assert np.all(counts > 0)
    # a row met exactly at v_d: passed through, and still counted
    v_d = [5.0, 0.3, -2.0]
    assert filter_rows(v_d, [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)], [0.3, 0.0]) == (v_d, 1)


_TILTED = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)


_ANTIPODAL = [
    pytest.param([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [1.0, 1.0], id="axis"),
    # the rounded triple product of these three is about 1e-17, not 0: only
    # the residual refusal keeps a velocity near 1e16 from being returned
    pytest.param([_TILTED, -_TILTED, [0.6, 0.8, 0.0]], [1.0, 1.0, 0.0], id="tilted"),
]

# (batch, index): program `index` of default_rng([100, batch])
_ILL_CONDITIONED = [
    (0, 9854), (1, 4486), (1, 9209), (2, 27), (2, 1699),
    (2, 2257), (2, 8033), (3, 3055), (3, 4127), (3, 8671),
]


@pytest.mark.parametrize("N, b", _ANTIPODAL)
def test_filter_infeasible_antipodal(N, b):
    rows = (np.array(N, dtype=float), np.array(b))
    with pytest.raises(InfeasibleQPError):
        safety_filter(np.zeros(3), rows)


@pytest.mark.parametrize("batch, index", _ILL_CONDITIONED)
def test_filter_solves_ill_conditioned_feasible_programs(batch, index):
    # program `index` of default_rng([100, batch]): a near-antipodal pair puts
    # the optimum far out, where a normal-equations solve misses its residual
    rng = np.random.default_rng([100, batch])
    for _ in range(index):
        random_qp_instance(rng)
    v_d, rows = random_qp_instance(rng)
    expected = qp_reference(v_d, rows)
    assert expected is not None
    got = safety_filter(v_d, rows)
    assert np.linalg.norm(got - expected) <= 1e-3 * max(1.0, np.linalg.norm(expected))


@pytest.mark.parametrize("seed, batch, index", [(3, 1, 3836), (8, 0, 3910)])
def test_exact_oracle_on_programs_least_squares_got_wrong(seed, batch, index):
    # a least-squares oracle erred by 1.6e-3 relative on the first program and
    # called the second infeasible; the filter is within 4e-10 of a rational solve
    rng = np.random.default_rng([seed, batch])
    for _ in range(index):
        random_qp_instance(rng)
    v_d, rows = random_qp_instance(rng)
    expected = qp_reference(v_d, rows)
    assert expected is not None
    got = safety_filter(v_d, rows)
    assert np.linalg.norm(got - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))


def _solve(v_d, N, b):
    """safety_filter's v_s, or None where it raises InfeasibleQPError."""
    try:
        return safety_filter(v_d, (N, b))
    except InfeasibleQPError:
        return None


def _unit_rows(rng, k):
    N = rng.normal(0.0, 1.0, (k, 3))
    return N / np.linalg.norm(N, axis=1)[:, None]


def test_row_order_leaves_the_optimum():
    # the optimum is unique, so the exact oracle returns it correctly rounded in every
    # row order, bit for bit.  An order changes which candidate the filter tries first
    # and the order of the float operations inside each; the filter must agree within
    # _FEAS_TOL relative, the slack it grants every row of the candidate it accepts,
    # and keep its verdict
    rng = np.random.default_rng(11)
    orders = infeasible = 0
    for i in range(200):
        if i % 2 == 0:   # the verify draw: 1-3 rows, (near-)antipodal pairs included
            v_d, (N, b) = random_qp_instance(rng)
        else:            # 4-6 rows
            k = 4 + i // 2 % 3
            v_d, N, b = rng.normal(0.0, 3.0, 3), _unit_rows(rng, k), rng.uniform(-4.0, 4.0, k)
        k = len(b)
        expected, got = qp_reference(v_d, (N, b)), _solve(v_d, N, b)
        infeasible += expected is None
        orders_k = permutations(range(k)) if k <= 3 else (rng.permutation(k) for _ in range(12))
        for order in map(list, orders_k):
            orders += 1
            permuted = qp_reference(v_d, (N[order], b[order]))
            assert (permuted is None) == (expected is None), (i, order)
            assert permuted is None or permuted.tobytes() == expected.tobytes(), (i, order)
            v = _solve(v_d, N[order], b[order])
            assert (v is None) == (got is None), (i, order)
            if v is not None:
                bound = _FEAS_TOL * max(1.0, np.linalg.norm(got))
                assert np.linalg.norm(v - got) <= bound, (i, order)
    assert orders > 1000 and infeasible > 5


def test_programs_with_every_plane_through_one_point():
    # 4-6 rows through one point p (b = N p, rounded): the exact feasible set may be p
    # alone, and rounding b can empty it.  The contract stated in filter_rows' docstring
    rng = np.random.default_rng(12)
    empty = 0
    for i in range(1000):
        N = _unit_rows(rng, 4 + i % 3)
        b = N @ rng.normal(0.0, 2.0, 3).round(1)
        v_d = rng.normal(0.0, 3.0, 3)
        expected = qp_reference(v_d, (N, b))
        if expected is None:
            empty += 1
            v = _solve(v_d, N, b)
            assert v is None or np.max(b - N @ v) <= _FEAS_TOL * max(1.0, np.linalg.norm(v)), i
        else:
            got = safety_filter(v_d, (N, b))
            assert np.linalg.norm(got - expected) <= 1e-3 * max(1.0, np.linalg.norm(expected)), i
    assert empty > 50


def _frozen_filter_rows(v_d, normals, offsets):
    """filter_rows as it was before its vertex path was written on named floats:
    list-form candidates, each recomputing its rows' residuals.  Frozen here as
    the bitwise reference for the rewrite."""
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    cross = lambda a, b: (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                          a[0] * b[1] - a[1] * b[0])

    def active_rows(vx, vy, vz, slack):
        active = 0
        for (nx, ny, nz), offset in zip(normals, offsets):
            d = nx * vx + ny * vy + nz * vz
            if not d >= offset - slack:
                return None
            active += abs(d - offset) <= 1e-6
        return active

    def vertex_step(active, subset_offsets):
        size = len(active)
        r = [b - dot(n, v_d) for n, b in zip(active, subset_offsets)]
        if size == 2:
            active, r = active + [cross(*active)], r + [0.0]
        n0, n1, n2 = active
        c = (cross(n1, n2), cross(n2, n0), cross(n0, n1))
        det = dot(n0, c[0])
        w = [dot(r, col) / det for col in zip(*c)] if det else [math.nan] * 3
        tol = 1e-7 * max(1.0, math.hypot(*r))
        if not all(abs(dot(n, w) - ri) <= tol for n, ri in zip(active, r)):
            return None
        mu = [dot(w, ci) / det for ci in c[:size]]
        if min(mu) < -1e-9 * max(1.0, math.hypot(*mu)):
            return None
        return [v_d[0] + w[0], v_d[1] + w[1], v_d[2] + w[2]]

    vx, vy, vz = v_d
    active = active_rows(vx, vy, vz, 0.0)
    if active is not None:
        return v_d, active
    for (nx, ny, nz), offset in zip(normals, offsets):
        g = nx * nx + ny * ny + nz * nz
        if g == 0.0:
            continue
        resid = offset - (nx * vx + ny * vy + nz * vz)
        mu = resid / g
        if not math.isfinite(mu) or abs(g * mu - resid) > 1e-7 * max(1.0, abs(resid)):
            continue
        if mu < -1e-9 * max(1.0, abs(mu)):
            continue
        sx, sy, sz = vx + nx * mu, vy + ny * mu, vz + nz * mu
        active = active_rows(sx, sy, sz, 1e-9 * max(1.0, math.sqrt(sx * sx + sy * sy + sz * sz)))
        if active is not None:
            return [sx, sy, sz], active
    k = len(offsets)
    for size in (2, 3):
        for subset in combinations(range(k), size):
            v = vertex_step([normals[i] for i in subset], [offsets[i] for i in subset])
            if v:
                active = active_rows(*v, 1e-9 * max(1.0, math.sqrt(dot(v, v))))
                if active is not None:
                    return v, active
    raise InfeasibleQPError(f"no velocity satisfies all {k} constraint rows")


def _outcome(solve, v_d, normals, offsets) -> bytes:
    """The exact bytes of a solve: its velocity and active count, or its error message."""
    try:
        v, active = solve(v_d, normals, offsets)
    except InfeasibleQPError as exc:
        return str(exc).encode()
    return struct.pack("3di", *v, active)


def test_vertex_path_is_bitwise_the_frozen_enumeration():
    programs = []
    rng = np.random.default_rng(44)
    for _ in range(10000):
        v_d, (N, b) = random_qp_instance(rng)
        programs.append((v_d.tolist(), N.tolist(), b.tolist()))
    for case in _ANTIPODAL:
        N, b = case.values
        programs.append(([0.0, 0.0, 0.0], np.asarray(N, dtype=float).tolist(), b))
    for batch, index in _ILL_CONDITIONED:
        rng = np.random.default_rng([100, batch])
        for _ in range(index):
            random_qp_instance(rng)
        v_d, (N, b) = random_qp_instance(rng)
        programs.append((v_d.tolist(), N.tolist(), b.tolist()))
    # 4 and 5 rows, generic and with every plane through one rounded point
    rng = np.random.default_rng(45)
    for i in range(2000):
        k = 4 + i % 2
        N = rng.normal(0.0, 1.0, (k, 3))
        N /= np.linalg.norm(N, axis=1)[:, None]
        b = N @ rng.normal(0.0, 2.0, 3).round(1) if i % 4 >= 2 else rng.uniform(-4.0, 4.0, k)
        programs.append((rng.normal(0.0, 3.0, 3).tolist(), N.tolist(), b.tolist()))
    # nearly (anti)parallel pairs whose offsets differ in scale: the residual
    # tolerance decides whether their vertex is taken
    for i in range(2000):
        n0 = rng.normal(0.0, 1.0, 3)
        n0 /= np.linalg.norm(n0)
        n1 = (1 if i % 2 else -1) * n0 + 10.0 ** rng.uniform(-12, -4) * rng.normal(0.0, 1.0, 3)
        n1 /= np.linalg.norm(n1)
        b = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-1, 3, 2)
        programs.append((rng.normal(0.0, 3.0, 3).tolist(), [n0.tolist(), n1.tolist()], b.tolist()))
    outcomes = set()
    for program in programs:
        got = _outcome(filter_rows, *program)
        assert got == _outcome(_frozen_filter_rows, *program), program
        outcomes.add(got[-4:] if len(got) == 28 else b"raise")
    # every kind of outcome is compared: passthrough, one to three active rows, infeasible
    assert outcomes >= {struct.pack("i", a) for a in range(4)} | {b"raise"}


def test_filter_empty_rows_identity():
    v_d = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(safety_filter(v_d, (np.zeros((0, 3)), np.zeros(0))), v_d)


def test_non_finite_filter_and_barrier_parameters_rejected():
    # nan <= 0 is False, so a sign check alone let these through
    with pytest.raises(ValueError, match="alpha"):
        FilterParams(alpha=float("nan"))
    with pytest.raises(ValueError, match="alpha"):
        FilterParams(alpha=float("inf"))
    with pytest.raises(ValueError, match="margin"):
        TumorSpec(center=(0.0, 0.0, 0.0), margin=float("nan"))
    with pytest.raises(ValueError, match="centre"):
        TumorSpec(center=(0.0, float("inf"), 0.0), margin=1.0)
    with pytest.raises(ValueError, match="radius"):
        DepthShell(center=(0.0, 0.0, 0.0), outer_radius=float("inf"))
    with pytest.raises(ValueError, match="centre"):
        DepthShell(center=(float("nan"), 0.0, 0.0), outer_radius=2.0)
