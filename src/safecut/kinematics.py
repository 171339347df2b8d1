"""Forward kinematics of the 3-DOF cutting arm.

Joint vector q = (d1, theta2, theta3): prismatic insertion along the base
z-axis, a bending joint about the base y-axis, and a distal bending joint
about the rotated x-axis.  The carried base link L1 and the two bending
links L2, L_END extend along the successive local z-axes, so at zero
bending the tip sits at (0, 0, d1 + L1 + L2 + L_END).

Lengths in mm, angles in rad.  The module is the chain and its one damped
solve, in plain floats.  The link lengths are constants of the instrument,
held here once: the plant (dynamics.DynamicParams) and the verify oracles
read them too, so the controller and the plant cannot disagree.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# mm, the bound on every length and coordinate, checked where each is built: inside it a
# coordinate's float spacing (1.2e-10 mm) stays under the 1e-9 mm tolerances
WORKSPACE_MM = 1e6

# mm, the link lengths of the instrument: carried base, bending link, tip link
L1, L2, L_END = 3.0, 10.0, 17.0


class JointConfig(NamedTuple):
    """One joint configuration: insertion d1 [mm], bending angles [rad]."""

    d1: float
    theta2: float
    theta3: float


def tip_kinematics(d1: float, theta2: float, theta3: float):
    """Tip position [mm] and 3x3 tip Jacobian d(position)/d(q), as float tuples.

    The one evaluation of the chain: sim.run calls it once per control step, ScenarioSpec
    once for the initial tip, and the verify Jacobian check differences its position
    against its J.  Column 1 of J is the prismatic axis (0, 0, 1) for any q.
    """
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    a = L2 + L_END * c3
    x = (s2 * a, -L_END * s3, d1 + L1 + c2 * a)
    J = ((0.0, c2 * a, -s2 * L_END * s3),
         (0.0, 0.0, -L_END * c3),
         (1.0, -s2 * a, -c2 * L_END * s3))
    return x, J


def damped_least_squares(J, e, damping: float):
    """J^T (J J^T + damping^2 I)^-1 e for a 3x3 J, as a tuple of floats.

    The damped pseudo-inverse applied to one vector, for damping > 0: the
    symmetric 3x3 system is solved in closed form by its adjugate, and the
    inverse is never formed.  The damping keeps the system regular where J
    loses rank, as at theta2 = pi/2.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    e0, e1, e2 = e
    lam = damping * damping
    a00 = j00 * j00 + j01 * j01 + j02 * j02 + lam
    a01 = j00 * j10 + j01 * j11 + j02 * j12
    a02 = j00 * j20 + j01 * j21 + j02 * j22
    a11 = j10 * j10 + j11 * j11 + j12 * j12 + lam
    a12 = j10 * j20 + j11 * j21 + j12 * j22
    a22 = j20 * j20 + j21 * j21 + j22 * j22 + lam
    c00 = a11 * a22 - a12 * a12
    c01 = a02 * a12 - a01 * a22
    c02 = a01 * a12 - a02 * a11
    c11 = a00 * a22 - a02 * a02
    c12 = a01 * a02 - a00 * a12
    c22 = a00 * a11 - a01 * a01
    det = a00 * c00 + a01 * c01 + a02 * c02
    y0 = (c00 * e0 + c01 * e1 + c02 * e2) / det
    y1 = (c01 * e0 + c11 * e1 + c12 * e2) / det
    y2 = (c02 * e0 + c12 * e1 + c22 * e2) / det
    return (j00 * y0 + j10 * y1 + j20 * y2,
            j01 * y0 + j11 * y1 + j21 * y2,
            j02 * y0 + j12 * y1 + j22 * y2)

