"""Rigid-body dynamics of the cutting arm: M(q) qdd + C(q, qd) qd + g(q) = u.

The three moving links are modelled as point masses at their distal ends
(carried base, bending link L2, tip link L_END, the constant link lengths
of kinematics), plus constant rotor inertias on the two bending joints,
which leave M[0][0] the total moved mass.  The input map is the identity:
one generalized force per joint.
Only the scalar closed-form solve lives here; the matrix forms M, C, g and
the energies that check it are in checks.

Masses in g, lengths in mm, so forces are g*mm/s^2 and torques g*mm^2/s^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .kinematics import L2, L_END

_KAPPA = 1e-12   # least m1 / (m2 + m3): see DynamicParams.__post_init__


@dataclass(frozen=True)
class DynamicParams:
    """Inertial parameters of the arm.

    masses: point masses [g] of carried base, link L2, link L_END.
    link_inertias: rotor inertias [g*mm^2] (i2, i3) of the two bending
        joints, each about its own axis.
    gravity: acceleration vector [mm/s^2] acting on every mass.

    plant: the factors of forward_dynamics that no configuration changes
        (m1 + m2 + m3, m2 L2, m2 L2^2, m3 L_END^2 + i3, (m1 + m2 + m3) gz, -2 m3,
        m3 L_END, beside L2, L_END, m3, i2 and gravity), folded once at
        construction, which refuses a set, naming its fields, where one or a
        joint's gravity load would overflow or a pivot could fail.  Frozen: a
        field assigned afterwards would leave plant stale, so assignment raises
        instead.
    """

    masses: tuple = (2.0, 1.5, 1.0)
    link_inertias: tuple = (2.0, 1.0)
    gravity: tuple = (0.0, 0.0, -9810.0)
    plant: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # plain floats: the integrator runs on them every step
        for name, size in (("masses", 3), ("link_inertias", 2), ("gravity", 3)):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) != size or not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be {size} finite values, got {values!r}")
            object.__setattr__(self, name, values)
        (m1, m2, m3), (i2, i3), (gx, gy, gz) = self.masses, self.link_inertias, self.gravity
        l2, le = L2, L_END
        # each factor rounded as forward_dynamics evaluated it inline, so no float moves
        m00, m2l2sq, m22 = m1 + m2 + m3, m2 * l2 ** 2, m3 * le * le + i3
        plant = (l2, le, m3, i2, gx, gy, gz, m00, m2 * l2, m2l2sq, m22, m00 * gz, -2.0 * m3,
                 m3 * le)
        # The kernel's pivots, fixed for every finite angle.  m22 is constant; m11 lies, as
        # |a| = |L2 + L_END c3| <= L2 + L_END and rounding is monotone, between its values at
        # a = 0 and theta3 = 0.  With L2, L_END >= 1 mm both are at least a mass, so normal,
        # and only their overflow is checked.  At any a, with c^2 + s^2 = 1, the Schur
        # complement is
        #   S = m1 + m2 c2^2 + m3 c2^2 c3^2 + s2^2 (m2 m3 (L2 - a)^2 + (m2 + m3) i2) / m11
        #       + c2^2 s3^2 m3 i3 / m22  >=  m1,
        # and the kernel's S is within 40u (m1 + m2 + m3) of it at its rounded a, u = 2^-53
        # (12u (m2 + m3) from m01^2/m11, 11u m3 from m02^2/m22, 8u (m2 + m3) from sin and
        # cos an ulp off the unit circle, 4u (m1 + m2 + m3) from m00 and the subtractions):
        # S > 0 if m1 > 4.4e-15 (m2 + m3), and _KAPPA keeps a 225x margin.  Normal floats keep
        # underflow's error below u m1; finite 2 m00, m22 and m11 bound the rest of plant.
        tiny = sys.float_info.min
        high = m2l2sq + m3 * (l2 + le) * (l2 + le) + i2
        for ok, fault in (
                (tiny <= min(self.masses) and 2.0 * m00 < math.inf, f"masses must each be at "
                 f"least {tiny!r} g, summing below {sys.float_info.max / 2:g} g"),
                (min(i2, i3) >= 0.0, "link inertias must be non-negative"),
                (m22 < math.inf, f"masses, link_inertias: pivot m22 = m3 L_END^2 + i3 = "
                 f"{m22!r} overflows"),
                (high < math.inf, f"masses, link_inertias: pivot m11 = m2 L2^2 + m3 (L2 + "
                 f"L_END)^2 + i2 = {high!r} at theta3 = 0 overflows"),
                (m1 >= _KAPPA * (m2 + m3), f"masses: m1 = {m1!r} is below {_KAPPA:g} "
                 f"(m2 + m3), where rounding can take the Schur complement to zero"),
                (abs(m00 * gz) < math.inf, "gravity, masses: (m1 + m2 + m3) gz overflows"),
                # the bending joints' loads in r1 and r2, with |a| <= L2 + L_END, |c|, |s| <= 1
                ((m2 * l2 + m3 * (l2 + le)) * (abs(gx) + abs(gz)) < math.inf, "gravity, masses: "
                 "the theta2 load bound (m2 L2 + m3 (L2 + L_END)) (|gx| + |gz|) overflows"),
                (m3 * le * (abs(gx) + abs(gy) + abs(gz)) < math.inf, "gravity, masses: the "
                 "theta3 load bound m3 L_END (|gx| + |gy| + |gz|) overflows")):
            if not ok:
                raise ValueError(fault)
        object.__setattr__(self, "plant", plant)


def forward_dynamics(theta2, theta3, v1, v2, v3, u1, u2, u3, params: DynamicParams):
    """Joint accelerations M^-1 (u - C qdot - g) as plain floats, at bending angles
    theta2, theta3 (d1 enters none of M, C and g), joint velocities v1, v2, v3
    and joint forces/torques u1, u2, u3 (identity input map).

    M is arrowhead-shaped, [[m00, m01, m02], [m01, m11, 0], [m02, 0, m22]],
    so eliminating the two bending rows leaves one scalar Schur complement
    and the solve is exact in closed form.  DynamicParams folds its
    configuration-independent factors into params.plant and fixes its pivots
    positive at every finite angle.  Its matrix-form oracles, mass_matrix,
    coriolis_matrix and gravity_vector, live in checks.
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
    p1, p2 = m01 / m11, m02 / m22
    schur = m00 - p1 * m01 - p2 * m02
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
