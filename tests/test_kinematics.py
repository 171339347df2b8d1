"""Kinematics: closed-form positions, Jacobian consistency, pseudo-inverse."""

from __future__ import annotations

import math

import numpy as np
import pytest

from safecut.control import velocity_error
from safecut.kinematics import JointConfig, damped_least_squares, tip_kinematics


def damped_pseudo_inverse(J, damping: float) -> np.ndarray:
    """J^T (J J^T + damping^2 I)^-1 by a dense inverse: damped_least_squares as a matrix."""
    J = np.asarray(J, dtype=float)
    return J.T @ np.linalg.inv(J @ J.T + (damping * damping) * np.eye(3))


def position(q) -> np.ndarray:
    return np.array(tip_kinematics(*q)[0])


def jacobian(q) -> np.ndarray:
    return np.array(tip_kinematics(*q)[1])


def test_straight_configuration():
    x = position(JointConfig(5.0, 0.0, 0.0))
    np.testing.assert_allclose(x, [0.0, 0.0, 35.0], atol=1e-12)


def test_right_angle_bend():
    x = position(JointConfig(0.0, math.pi / 2, 0.0))
    np.testing.assert_allclose(x, [27.0, 0.0, 3.0], atol=1e-12)


def test_tip_bend_moves_in_minus_y():
    x = position(JointConfig(0.0, 0.0, math.pi / 2))
    np.testing.assert_allclose(x, [0.0, -17.0, 13.0], atol=1e-12)


def test_prismatic_column_is_vertical():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = JointConfig(*rng.uniform(-1.0, 1.0, 3))
        J = jacobian(q)
        np.testing.assert_allclose(J[:, 0], [0.0, 0.0, 1.0], atol=1e-12)


def test_joint_config_array_round_trip():
    # a JointConfig is the plain (d1, theta2, theta3) triple the kernels unpack
    q = JointConfig(3.0, 0.2, -0.4)
    assert q == (3.0, 0.2, -0.4)
    assert JointConfig(*np.array(q)) == q
    assert tip_kinematics(*np.array(q)) == tip_kinematics(*q)


def test_damped_pseudo_inverse_reconstructs_velocity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = JointConfig(rng.uniform(0, 50), rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        J = jacobian(q)
        qd = rng.normal(0.0, 1.0, 3)
        xd = J @ qd
        back = damped_pseudo_inverse(J, damping=1e-6) @ xd
        np.testing.assert_allclose(J @ back, xd, atol=1e-6)
        np.testing.assert_allclose(damped_least_squares(J, xd, damping=1e-6), back,
                                   rtol=1e-9, atol=1e-12)


def test_damping_keeps_singularity_finite():
    # theta2 = pi/2 lays the arm flat: insertion and pitch both move the tip
    # along x, rank drops to 2
    _, J = tip_kinematics(0.0, math.pi / 2, 0.0)
    assert np.linalg.matrix_rank(J) == 2
    for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        assert all(map(math.isfinite, velocity_error(J, e, (0.0, 0.0, 0.0))))

