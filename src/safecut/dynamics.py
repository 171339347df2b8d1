"""Rigid-body dynamics of the cutting arm: M(q) qdd + C(q, qd) qd + g(q) = u.

The three moving links are modelled as point masses at their distal ends
(carried base, bending link l2, tip link l_end), plus small constant rotor
inertias on the two bending joints.  That keeps the mass matrix symmetric
positive definite over the workspace while M[0][0] stays equal to the total
moved mass.  The input map is the identity: one generalized force per joint.
Only the scalar closed-form solve lives here; the matrix forms M, C, g and
the energies that check it are in checks.

Masses in g, lengths in mm, so forces are g*mm/s^2 and torques g*mm^2/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kinematics import KinematicParams


class SingularMassError(RuntimeError):
    """Raised if the mass matrix is not positive definite at a configuration.

    theta2, theta3 are the bending angles [rad] it was evaluated at.
    """

    def __init__(self, message: str, theta2: float, theta3: float):
        super().__init__(message)
        self.theta2, self.theta3 = theta2, theta3


@dataclass(frozen=True)
class DynamicParams:
    """Inertial parameters of the arm.

    masses: point masses [g] of carried base, link l2, link l_end.
    link_inertias: rotor inertias [g*mm^2] (i2, i3) of the two bending
        joints, each about its own axis.
    gravity: acceleration vector [mm/s^2] acting on every mass.
    kinematics: the link lengths the masses hang off.  This is the one copy
        of them: ScenarioSpec.kinematics reads it, so the controller and the
        plant cannot disagree.

    plant: the factors of forward_dynamics that no configuration changes
        (m1 + m2 + m3, m2 l2, m2 l2^2, m3 le^2 + i3, (m1 + m2 + m3) gz, -2 m3,
        m3 le, beside l2, le, m3, i2 and gravity), folded once at construction.
        Frozen, like the KinematicParams it reads: a field assigned afterwards
        would leave plant stale, so assignment raises instead.
    """

    masses: tuple = (2.0, 1.5, 1.0)
    link_inertias: tuple = (2.0, 1.0)
    gravity: tuple = (0.0, 0.0, -9810.0)
    kinematics: KinematicParams = field(default_factory=KinematicParams)
    plant: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # plain floats: the integrator runs on them every step
        for name, size in (("masses", 3), ("link_inertias", 2), ("gravity", 3)):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) != size or not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be {size} finite values, got {values!r}")
            object.__setattr__(self, name, values)
        if min(self.masses) <= 0.0:
            raise ValueError("masses must be positive")
        if min(self.link_inertias) < 0.0:
            raise ValueError("link inertias must be non-negative")
        (m1, m2, m3), (i2, i3), (gx, gy, gz) = self.masses, self.link_inertias, self.gravity
        l2, le = self.kinematics.l2, self.kinematics.l_end
        m00 = m1 + m2 + m3
        # each factor rounded as forward_dynamics evaluated it inline, so no float moves
        object.__setattr__(self, "plant", (l2, le, m3, i2, gx, gy, gz, m00, m2 * l2,
                                           m2 * l2 ** 2, m3 * le * le + i3, m00 * gz,
                                           -2.0 * m3, m3 * le))


def forward_dynamics(theta2, theta3, v1, v2, v3, u1, u2, u3, params: DynamicParams):
    """Joint accelerations M^-1 (u - C qdot - g) as plain floats, at bending angles
    theta2, theta3 (d1 enters none of M, C and g), joint velocities v1, v2, v3
    and joint forces/torques u1, u2, u3 (identity input map).

    M is arrowhead-shaped, [[m00, m01, m02], [m01, m11, 0], [m02, 0, m22]],
    so eliminating the two bending rows leaves one scalar Schur complement
    and the solve is exact in closed form.  Its configuration-independent
    factors are read from params.plant.  Its matrix-form oracles,
    mass_matrix, coriolis_matrix and gravity_vector, live in checks.
    """
    l2, le, m3, i2, gx, gy, gz, m00, m2l2, m2l2sq, m22, m00gz, neg2m3, m3le = params.plant
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    a = l2 + le * c3
    w = m2l2 + m3 * a
    m01 = -s2 * w
    m02 = -m3 * c2 * le * s3
    m11 = m2l2sq + m3 * a * a + i2
    # nonzero derivatives of M: dM01/dth2, dM02/dth2 (= dM01/dth3),
    # dM02/dth3, dM11/dth3; they give the Coriolis/centrifugal vector
    a2 = -c2 * w
    b2 = m3 * s2 * le * s3
    b3 = -m3 * c2 * le * c3
    d3 = neg2m3 * a * le * s3
    r0 = u1 - (a2 * v2 * v2 + 2.0 * b2 * v2 * v3 + b3 * v3 * v3) + m00gz
    r1 = u2 - d3 * v2 * v3 + w * (gx * c2 - gz * s2)
    r2 = u3 + 0.5 * d3 * v2 * v2 - m3le * (gx * s2 * s3 + gy * c3 + gz * c2 * s3)
    if not (0.0 < m11 < math.inf and 0.0 < m22 < math.inf):
        raise SingularMassError(f"mass matrix pivot not positive and finite at "
                                f"theta2={theta2!r}, theta3={theta3!r}", theta2, theta3)
    p1, p2 = m01 / m11, m02 / m22
    schur = m00 - p1 * m01 - p2 * m02
    if not 0.0 < schur < math.inf:
        raise SingularMassError(f"mass matrix Schur complement {schur!r} not positive "
                                f"and finite at theta2={theta2!r}, theta3={theta3!r}",
                                theta2, theta3)
    qdd1 = (r0 - p1 * r1 - p2 * r2) / schur
    return qdd1, (r1 - m01 * qdd1) / m11, (r2 - m02 * qdd1) / m22


def rk4_step(q, qdot, u, dt: float, params: DynamicParams):
    """One classical Runge-Kutta step with u held constant over the interval.

    q = (d1, theta2, theta3), qdot and u are 3-sequences; returns the new
    (q, qdot) as tuples of floats.
    """
    q1, q2, q3 = q
    v1, v2, v3 = qdot
    u1, u2, u3 = u
    h = 0.5 * dt
    a1, a2, a3 = forward_dynamics(q2, q3, v1, v2, v3, u1, u2, u3, params)
    w1, w2, w3 = v1 + h * a1, v2 + h * a2, v3 + h * a3
    b1, b2, b3 = forward_dynamics(q2 + h * v2, q3 + h * v3, w1, w2, w3, u1, u2, u3, params)
    x1, x2, x3 = v1 + h * b1, v2 + h * b2, v3 + h * b3
    c1, c2, c3 = forward_dynamics(q2 + h * w2, q3 + h * w3, x1, x2, x3, u1, u2, u3, params)
    y1, y2, y3 = v1 + dt * c1, v2 + dt * c2, v3 + dt * c3
    d1, d2, d3 = forward_dynamics(q2 + dt * x2, q3 + dt * x3, y1, y2, y3, u1, u2, u3, params)
    s = dt / 6.0
    return ((q1 + s * (v1 + 2.0 * w1 + 2.0 * x1 + y1),
             q2 + s * (v2 + 2.0 * w2 + 2.0 * x2 + y2),
             q3 + s * (v3 + 2.0 * w3 + 2.0 * x3 + y3)),
            (v1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             v2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             v3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3)))
