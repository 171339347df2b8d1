"""Dynamics: the matrix-form oracles against each other, the plant kernel, the integrator.

The mass matrix's symmetry and definiteness, the Coriolis matrix's skew
symmetry, the equations-of-motion residual and energy conservation are the
verify suites' properties; test_checks shows that each suite can fail.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from safecut import checks, control, dynamics, kinematics, safety, scenario, sim
from safecut.checks import (coriolis_matrix, gravity_vector, kinetic_energy,
                            mass_matrix, potential_energy)
from safecut.dynamics import _KAPPA, DynamicParams, forward_dynamics, rk4_step
from safecut.kinematics import L2, L_END, JointConfig

PARAMS = DynamicParams()


def _random_config(rng):
    return JointConfig(float(rng.uniform(0, 50)),
                       float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))


def test_total_mass_in_prismatic_entry():
    M = mass_matrix(JointConfig(10.0, 0.4, -0.7), PARAMS)
    assert M[0, 0] == pytest.approx(sum(PARAMS.masses))


def test_gravity_vector_matches_potential_gradient():
    rng = np.random.default_rng(23)
    step = 1e-6
    for _ in range(50):
        q = _random_config(rng)
        arr = np.array(q)
        g = gravity_vector(q, PARAMS)
        for j in range(3):
            plus, minus = arr.copy(), arr.copy()
            plus[j] += step
            minus[j] -= step
            fd = (potential_energy(plus, PARAMS) - potential_energy(minus, PARAMS)) / (2 * step)
            assert g[j] == pytest.approx(fd, abs=1e-3)


def test_kinetic_energy_is_the_mass_matrix_quadratic_form():
    # two independent routes to M: point-mass velocities and the closed-form entries
    rng = np.random.default_rng(25)
    for _ in range(1000):
        q = _random_config(rng)
        qd = rng.normal(0.0, 1.0, 3) * (10.0, 1.0, 1.0)
        expected = 0.5 * float(qd @ mass_matrix(q, PARAMS) @ qd)
        assert kinetic_energy(q, qd.tolist(), PARAMS) == pytest.approx(expected, rel=1e-13)


def test_constant_force_on_prismatic_joint_free_fall():
    # u cancels nothing else: d1 under pure force f obeys d1(t) = d1_0 + f/(2m) t^2
    free = DynamicParams(gravity=(0.0, 0.0, 0.0))
    f = 900.0
    q, qd = (5.0, 0.0, 0.0), np.zeros(3)
    for _ in range(1000):
        q, qd = rk4_step(q, qd, np.array([f, 0.0, 0.0]), 1e-3, free)
    expected = 5.0 + 0.5 * f / sum(free.masses) * 1.0 ** 2
    assert q[0] == pytest.approx(expected, abs=1e-9)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        DynamicParams(masses=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        DynamicParams(link_inertias=(-1.0, 1.0))


def _rk4_matrix_form(q, qd, u, dt, params):
    """Reference RK4 on the matrix-form oracles and a dense linear solve."""
    def accel(q, qd):
        rhs = u - coriolis_matrix(q, qd, params) @ qd - gravity_vector(q, params)
        return np.linalg.solve(mass_matrix(q, params), rhs)

    k1 = accel(q, qd)
    k2 = accel(q + 0.5 * dt * qd, qd + 0.5 * dt * k1)
    v2 = qd + 0.5 * dt * k1
    k3 = accel(q + 0.5 * dt * v2, qd + 0.5 * dt * k2)
    v3 = qd + 0.5 * dt * k2
    k4 = accel(q + dt * v3, qd + dt * k3)
    v4 = qd + dt * k3
    return (q + dt / 6.0 * (qd + 2.0 * v2 + 2.0 * v3 + v4),
            qd + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def test_rk4_matches_matrix_form_oracle_on_stiff_loop():
    # the closed loop's stiffness: u = -k_d (qdot - target) at k_d = 8000,
    # dt = 1e-3, held constant over each step; near the straight
    # configuration dt k_d / lambda_min(M) stays below RK4's limit.  Gravity
    # is weak: a velocity-only loop does not hold a pose against full gravity.
    params = DynamicParams(gravity=(30.0, 20.0, -98.1))
    k_d, dt = 8000.0, 1e-3
    target = np.array([1.0, 0.05, -0.05])
    fast_q, fast_qd = (10.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    ref_q, ref_qd = np.array(fast_q), np.zeros(3)
    for _ in range(2000):
        fast_q, fast_qd = rk4_step(fast_q, fast_qd, -k_d * (np.array(fast_qd) - target),
                                   dt, params)
        ref_q, ref_qd = _rk4_matrix_form(ref_q, ref_qd, -k_d * (ref_qd - target), dt, params)
        fast, ref = np.concatenate([fast_q, fast_qd]), np.concatenate([ref_q, ref_qd])
        assert np.linalg.norm(fast - ref) <= 1e-9 * np.linalg.norm(ref)
    assert np.all(np.isfinite(fast))


def test_non_finite_angle_is_no_error_of_the_kernel():
    # the pivots are fixed at construction, so forward_dynamics raises nothing itself:
    # a nan angle flows through to a non-finite state, and only math.cos refuses inf
    kernel = ast.parse(inspect.getsource(forward_dynamics))
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(kernel))
    q, qdot = rk4_step((10.0, math.nan, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1e-3, PARAMS)
    assert not any(map(math.isfinite, q[1:] + qdot))
    with pytest.raises(ValueError, match="math domain error"):
        rk4_step((10.0, 0.0, math.inf), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1e-3, PARAMS)


@pytest.mark.parametrize("kwargs, message", [
    pytest.param(dict(masses=(1e-310, 1.0, 1.0)),
                 "masses must each be at least 2.2250738585072014e-308 g", id="subnormal-mass"),
    pytest.param(dict(masses=(1.0, 1.0, 1e308)),
                 "masses must each be at least .* summing below", id="mass-sum-overflows"),
    pytest.param(dict(masses=(1e306,) * 3), r"masses, link_inertias: pivot m22 = m3 "
                 r"L_END\^2 \+ i3 = inf overflows", id="m22-overflows"),
    # m22 = 289 m3 + i3 stays finite, m11 = 100 m2 + 729 m3 + i2 at theta3 = 0 does not
    pytest.param(dict(masses=(1.0, 1.0, 5e305)), r"masses, link_inertias: pivot m11 = m2 "
                 r"L2\^2 \+ m3 \(L2 \+ L_END\)\^2 \+ i2 = inf at theta3 = 0 overflows",
                 id="m11-overflows"),
    pytest.param(dict(masses=(2e-16, 1.0, 1.0), link_inertias=(0.0, 0.0)),
                 r"masses: m1 = 2e-16 is below 1e-12 \(m2 \+ m3\)", id="schur-complement"),
    pytest.param(dict(gravity=(0.0, 0.0, 1e308)),
                 r"gravity, masses: \(m1 \+ m2 \+ m3\) gz overflows", id="gravity-load"),
    pytest.param(dict(gravity=(1e308, 0.0, 0.0)), "gravity, masses: the theta2 load",
                 id="bending-gravity-load"),
])
def test_dynamic_params_refuse_a_plant_the_kernel_cannot_solve(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DynamicParams(**kwargs)


def test_kappa_keeps_the_schur_complement_positive():
    # m1 exactly at _KAPPA (m2 + m3), no rotor inertia, masses at the extremes,
    # angles on the corners where the complement is smallest: at theta2 =
    # +-pi/2 it is m1 + m2 m3 (L2 - a)^2 / m11, just m1 where a = L2, at theta3 = +-pi/2.
    # With u = (1, 0, 0) and the arm at rest, qdd1 = 1 / S, so 1 / qdd1 reads the
    # kernel's S back to 2u; DynamicParams states the kernel's S within 40u (m1 + m2 + m3)
    # of the identity S = m1 + m2 c2^2 + m3 c2^2 c3^2 + s2^2 m2 m3 (l2 - a)^2 / m11 at its
    # own rounded a.
    u = 2.0 ** -53
    angles = [0.0] + [x + k * math.ulp(x) for x in (math.pi / 2, -math.pi / 2)
                      for k in (-3, -1, 0, 1, 3)]
    worst = 0.0
    for m2, m3 in itertools.product((1e-6, 1.0, 1e6), (1e-6, 1.0, 1e6)):
        m1 = _KAPPA * (m2 + m3)
        params = DynamicParams(masses=(m1, m2, m3), link_inertias=(0.0, 0.0),
                               gravity=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="masses: m1"):
            DynamicParams(masses=(m1 / 2, m2, m3), link_inertias=(0.0, 0.0))
        f1, f2, f3, fl2 = map(Fraction, (m1, m2, m3, L2))
        for theta2, theta3 in itertools.product(angles, angles):
            accel = forward_dynamics(theta2, theta3, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, params)
            assert all(map(math.isfinite, accel)) and accel[0] > 0.0
            c2, s2 = Fraction(math.cos(theta2)), Fraction(math.sin(theta2))
            c3 = Fraction(math.cos(theta3))
            a = Fraction(L2 + L_END * math.cos(theta3))    # the kernel's rounded lever arm
            m11 = f2 * fl2 * fl2 + f3 * a * a
            exact = (f1 + f2 * c2 ** 2 + f3 * c2 ** 2 * c3 ** 2
                     + s2 ** 2 * f2 * f3 * (fl2 - a) ** 2 / m11)
            err = abs(Fraction(1.0 / accel[0]) - exact) / (f1 + f2 + f3)
            worst = max(worst, float(err) / u)
    assert worst <= 40 + 2, worst


@pytest.mark.parametrize("params, name", [(DynamicParams(), "masses")])
def test_params_are_frozen(params, name):
    # DynamicParams folds its plant factors at construction: a later assignment
    # to it would leave them stale
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(params, name, getattr(params, name))


def _unfolded_forward_dynamics(theta2, theta3, v1, v2, v3, u1, u2, u3, params):
    """forward_dynamics with every factor evaluated inline, from the fields."""
    m1, m2, m3 = params.masses
    i2, i3 = params.link_inertias
    gx, gy, gz = params.gravity
    l2, le = L2, L_END
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    a = l2 + le * c3
    w = m2 * l2 + m3 * a
    m00 = m1 + m2 + m3
    m01 = -s2 * w
    m02 = -m3 * c2 * le * s3
    m11 = m2 * l2 ** 2 + m3 * a * a + i2
    m22 = m3 * le * le + i3
    a2 = -c2 * w
    b2 = m3 * s2 * le * s3
    b3 = -m3 * c2 * le * c3
    d3 = -2.0 * m3 * a * le * s3
    r0 = u1 - (a2 * v2 * v2 + 2.0 * b2 * v2 * v3 + b3 * v3 * v3) + m00 * gz
    r1 = u2 - d3 * v2 * v3 + w * (gx * c2 - gz * s2)
    r2 = u3 + 0.5 * d3 * v2 * v2 - m3 * le * (gx * s2 * s3 + gy * c3 + gz * c2 * s3)
    p1, p2 = m01 / m11, m02 / m22
    schur = m00 - p1 * m01 - p2 * m02
    qdd1 = (r0 - p1 * r1 - p2 * r2) / schur
    return qdd1, (r1 - m01 * qdd1) / m11, (r2 - m02 * qdd1) / m22


def test_folded_plant_matches_inline_factors_bit_for_bit(monkeypatch):
    # m3 != 1 and gx, gy != 0: a reordered fold such as m3 le would round
    # differently (the catalog's m3 = 1 hides it)
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(10000):
        m, inertia = rng.uniform(0.1, 10.0, 3), rng.uniform(0.0, 5.0, 2)
        gravity = rng.normal(0.0, 5000.0, 3)
        assert m[2] != 1.0 and (gravity[:2] != 0.0).all()
        params = DynamicParams(masses=m, link_inertias=inertia, gravity=gravity)
        q = (float(rng.uniform(0.0, 50.0)), *rng.uniform(-1.5, 1.5, 2).tolist())
        cases.append((params, q, tuple(rng.normal(0.0, 2.0, 3).tolist()),
                      tuple(rng.normal(0.0, 1e4, 3).tolist())))

    def outputs(accel):
        # the accelerations, then one RK4 step on whichever forward_dynamics dynamics holds
        return np.array([(*accel(*q[1:], *qd, *u, p), *sum(rk4_step(q, qd, u, 1e-3, p), ()))
                         for p, q, qd, u in cases])

    folded = outputs(forward_dynamics)
    monkeypatch.setattr(dynamics, "forward_dynamics", _unfolded_forward_dynamics)
    inline = outputs(_unfolded_forward_dynamics)
    assert np.isfinite(folded).all() and folded.tobytes() == inline.tobytes()


@pytest.mark.parametrize("kwargs", [
    dict(masses=(float("nan"), 1.5, 1.0)),
    dict(link_inertias=(float("inf"), 1.0)),
    dict(gravity=(0.0, 0.0, float("nan"))),
])
def test_dynamic_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        DynamicParams(**kwargs)


ORACLES = ("mass_matrix", "coriolis_matrix", "gravity_vector", "kinetic_energy",
           "potential_energy")
KERNELS = {"tip_kinematics", "damped_least_squares", "forward_dynamics", "rk4_step"}


def test_runtime_modules_hold_one_form():
    # the matrix forms and test-only wrappers live in checks (the pseudo-inverse
    # oracle in the tests), nowhere in a runtime module; nor do the retired numpy
    # wrappers of tip_kinematics, the undamped solve's error, the per-step pivot test's,
    # the gain's box, the decay fit's error or the empty log's
    banned = set(ORACLES) | {"barrier_gradient", "depth_barrier_gradient", "RobotState",
                             "damped_pseudo_inverse", "forward_kinematics", "jacobian",
                             "SingularJacobianError", "SingularMassError", "ControllerParams",
                             "InsufficientTransientError", "EmptyLogError"}
    for module in (kinematics, dynamics, safety, control, sim, scenario):
        assert not banned & set(vars(module)), module.__name__
    for module in (kinematics, dynamics):
        assert not any(isinstance(v, types.ModuleType) and v.__name__.startswith("numpy")
                       for v in vars(module).values()), module.__name__
    # the path is the spec's field, read directly
    assert not hasattr(scenario.ScenarioSpec, "reference")


def test_oracles_call_no_kernel():
    # an oracle that wraps the kernel it checks would compare it with itself
    tree = ast.parse(inspect.getsource(checks))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ORACLES:
        nodes = list(ast.walk(defs[name]))
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert not used & KERNELS, name
