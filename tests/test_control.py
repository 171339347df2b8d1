"""Velocity-error computation, control law, disturbances, decay fitting."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from safecut.control import (DAMPING, DisturbanceSpec, control_law, disturbance,
                             measure_decay_rate, velocity_error)
from safecut.kinematics import JointConfig, damped_least_squares, tip_kinematics
from safecut.scenario import scenario_catalog

K_D = 8000.0


def jacobian(q) -> np.ndarray:
    return np.array(tip_kinematics(*q)[1])


def test_zero_error_when_tracking_exactly():
    rng = np.random.default_rng(41)
    for _ in range(30):
        q = JointConfig(rng.uniform(0, 40), rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        qd = rng.normal(0.0, 1.0, 3)
        J = jacobian(q)
        edot = velocity_error(J, J @ qd, J @ qd)
        np.testing.assert_allclose(edot, np.zeros(3), atol=1e-12)


def test_error_sign_opposes_command():
    q = JointConfig(10.0, 0.3, -0.5)
    edot = velocity_error(jacobian(q), np.zeros(3), np.array([1.0, 0.0, 0.0]))
    u = control_law(edot, K_D)
    # stationary arm told to move: u must push the tip along +x
    xdot_dir = jacobian(q) @ u
    assert xdot_dir[0] > 0.0


def test_control_law_is_linear():
    e = np.array([0.2, -0.1, 0.05])
    np.testing.assert_allclose(control_law(e, K_D), -K_D * e)
    np.testing.assert_allclose(control_law(2 * e, K_D), 2 * np.asarray(control_law(e, K_D)))


def test_gain_validation():
    # k_d is a spec setting, refused by its config key
    for k_d in (0.0, -1e-6):
        with pytest.raises(ValueError, match=r"^controller\.k_d must be positive and finite"):
            replace(scenario_catalog(1), k_d=k_d)


def test_disturbance_waveforms():
    assert disturbance(0.3, DisturbanceSpec()) == (0.0, 0.0, 0.0)
    const = DisturbanceSpec(waveform="constant", amplitude=(10.0, -5.0, 2.0))
    np.testing.assert_array_equal(disturbance(0.0, const), disturbance(7.7, const))
    sine = DisturbanceSpec(waveform="sinusoid", amplitude=(10.0, 10.0, 10.0),
                           frequency=2.0, seed=5)
    ts = np.linspace(0.0, 1.0, 400)
    samples = np.array([disturbance(t, sine) for t in ts])
    assert np.max(np.abs(samples)) <= 10.0 + 1e-12
    # deterministic in the seed
    np.testing.assert_array_equal(samples[0], disturbance(0.0, DisturbanceSpec(
        waveform="sinusoid", amplitude=(10.0, 10.0, 10.0), frequency=2.0, seed=5)))


def test_disturbance_validation_and_bound():
    with pytest.raises(ValueError):
        DisturbanceSpec(waveform="square")
    with pytest.raises(ValueError):
        DisturbanceSpec(waveform="sinusoid", frequency=0.0)
    spec = DisturbanceSpec(waveform="constant", amplitude=(1.0, -3.0, 2.0))
    assert np.max(np.abs(disturbance(0.0, spec))) == 3.0


def test_decay_rate_recovers_synthetic_exponential():
    lam = 12.0
    t = np.arange(0.0, 1.0, 1e-3)
    base = np.array([0.7, -0.2, 0.4])
    edot = np.exp(-lam * t)[:, None] * base[None, :]
    assert measure_decay_rate(t, edot) == pytest.approx(lam, rel=1e-6)


def test_decay_rate_uses_post_peak_window():
    # ramp up, then decay; the fit must ignore the ramp
    lam = 20.0
    t = np.arange(0.0, 2.0, 1e-3)
    ramp = np.minimum(t / 0.5, 1.0)
    tail = np.where(t > 0.5, np.exp(-lam * (t - 0.5)), 1.0)
    edot = (ramp * tail)[:, None] * np.array([1.0, 0.0, 0.0])[None, :]
    assert measure_decay_rate(t, edot) == pytest.approx(lam, rel=1e-2)


def test_decay_rate_rejects_flat_log():
    # no transient to fit: a flat log, and a spike whose window holds one point above the floor
    t = np.arange(0.0, 1.0, 1e-3)
    edot = np.zeros((t.size, 3))
    assert math.isnan(measure_decay_rate(t, edot))
    edot[500] = 1.0
    assert math.isnan(measure_decay_rate(t, edot))


def test_sinusoid_phases_depend_on_seed():
    a = DisturbanceSpec(waveform="sinusoid", amplitude=(1, 1, 1), frequency=1.0, seed=1)
    b = DisturbanceSpec(waveform="sinusoid", amplitude=(1, 1, 1), frequency=1.0, seed=2)
    assert not np.allclose(a.phases, b.phases)
    phase = np.array(a.phases)
    assert np.all((0.0 <= phase) & (phase < 2.0 * math.pi))


@pytest.mark.parametrize("seed", [1.5, True])
def test_disturbance_seed_must_be_an_integer(seed):
    # numpy took True as 1 and refused 1.5 without naming the field
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        DisturbanceSpec(waveform="sinusoid", amplitude=(1, 1, 1), frequency=1.0, seed=seed)


def test_controller_is_model_free():
    # structural guarantee: the tracking loop never touches inertial terms
    import ast
    import inspect

    import safecut.control as control

    tree = ast.parse(inspect.getsource(control))
    modules = [node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module]
    assert not any("dynamics" in m for m in modules)


def test_velocity_error_matches_pseudo_inverse_matrix():
    # the closed-form solve against the matrix form, near and far from the
    # singular flat configuration; both carry an error of order cond * eps.
    # velocity_error runs at the loop's DAMPING, the solve alone at a larger one
    rng = np.random.default_rng(42)
    for theta2 in (0.3, np.pi / 2 - 1e-4, np.pi / 2):
        for damping in (DAMPING, 1e-1):
            J = jacobian(JointConfig(10.0, theta2, -0.4))
            gram = J @ J.T + (damping * damping) * np.eye(3)
            cond = np.linalg.cond(gram)
            xdot, xdot_safe = rng.normal(0.0, 3.0, 3), rng.normal(0.0, 3.0, 3)
            # the damped pseudo-inverse as a matrix, by a dense inverse
            expected = J.T @ np.linalg.inv(gram) @ (xdot - xdot_safe)
            if damping == DAMPING:
                got = velocity_error(J, xdot, xdot_safe)
            else:
                got = damped_least_squares(J, xdot - xdot_safe, damping)
            tol = 10.0 * cond * np.finfo(float).eps * np.linalg.norm(expected)
            assert np.linalg.norm(np.asarray(got) - expected) <= tol


@pytest.mark.parametrize("make", [
    lambda: replace(scenario_catalog(1), k_d=float("nan")),
    lambda: replace(scenario_catalog(1), k_d=float("inf")),
    lambda: replace(scenario_catalog(1), k_d=-float("inf")),
    lambda: DisturbanceSpec(waveform="constant", amplitude=(1.0, float("nan"), 0.0)),
    lambda: DisturbanceSpec(waveform="sinusoid", amplitude=(1.0, 1.0, 1.0),
                            frequency=float("inf")),
])
def test_non_finite_controller_inputs_rejected(make):
    with pytest.raises(ValueError):
        make()
