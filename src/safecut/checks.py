"""Self-contained verification suites: each checks the implementation against
an independent route (brute-force program solve, finite differences, energy
bookkeeping, step halving), never against the code it is checking.

The runtime modules hold one form of each quantity, the scalar one the
closed loop runs on.  The oracles below (mass matrix, Coriolis matrix,
gravity load, and the kinetic and potential energies) exist only to check
those kernels, so they live here; each is derived on its own from the model
and calls no kernel it checks.

Every suite returns (passed, detail).  The registry VERIFY_SUITES drives the
command-line `verify` subcommand and keeps suite names stable.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .dynamics import DynamicParams, forward_dynamics, rk4_step
from .kinematics import L1, L2, L_END, JointConfig, tip_kinematics
from .safety import (DepthShell, InfeasibleQPError, SafeSetSpec, TumorSpec, safety_filter,
                     selected_barrier_values)
from .scenario import JOINT_BOX


# ---------------------------------------------------------------------------
# matrix-form oracles of the scalar kernels

def mass_matrix(q, params: DynamicParams) -> np.ndarray:
    """Symmetric positive definite joint-space mass matrix at q = (d1, theta2, theta3)."""
    m1, m2, m3 = params.masses
    i2, i3 = params.link_inertias
    _, theta2, theta3 = q
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    a = L2 + L_END * c3
    m01 = -s2 * (m2 * L2 + m3 * a)
    m02 = -m3 * c2 * L_END * s3
    return np.array([
        [m1 + m2 + m3, m01, m02],
        [m01, m2 * L2 ** 2 + m3 * a * a + i2, 0.0],
        [m02, 0.0, m3 * L_END * L_END + i3],
    ])


def coriolis_matrix(q, qdot, params: DynamicParams) -> np.ndarray:
    """Coriolis/centrifugal matrix from Christoffel symbols of M(q).

    Built so that dM/dt - 2 C is skew-symmetric.  Only five partial
    derivatives of M wrt theta2 / theta3 are nonzero for this chain.
    """
    _, m2, m3 = params.masses
    _, theta2, theta3 = q
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    a = L2 + L_END * c3
    a2 = -c2 * (m2 * L2 + m3 * a)      # dM01/dtheta2
    b2 = m3 * s2 * L_END * s3          # dM02/dtheta2
    a3 = s2 * m3 * L_END * s3          # dM01/dtheta3
    b3 = -m3 * c2 * L_END * c3         # dM02/dtheta3
    d3 = -2.0 * m3 * a * L_END * s3    # dM11/dtheta3
    dq1, dq2, dq3 = float(qdot[0]), float(qdot[1]), float(qdot[2])
    half_pm = 0.5 * (a3 + b2)
    half_mm = 0.5 * (a3 - b2)
    return np.array([
        [0.0, a2 * dq2 + half_pm * dq3, half_pm * dq2 + b3 * dq3],
        [half_mm * dq3, 0.5 * d3 * dq3, half_mm * dq1 + 0.5 * d3 * dq2],
        [-half_mm * dq2, -half_mm * dq1 - 0.5 * d3 * dq2, 0.0],
    ])


def gravity_vector(q, params: DynamicParams) -> np.ndarray:
    """Generalized gravity load dU/dq for U the potential energy of the masses."""
    m1, m2, m3 = params.masses
    gx, gy, gz = params.gravity
    _, theta2, theta3 = q
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    a = L2 + L_END * c3
    return np.array([
        -(m1 + m2 + m3) * gz,
        -(m2 * L2 + m3 * a) * (gx * c2 - gz * s2),
        m3 * L_END * (gx * s2 * s3 + gy * c3 + gz * c2 * s3),
    ])


def kinetic_energy(q, qdot, params: DynamicParams) -> float:
    """1/2 sum m |p'|^2 over the point masses potential_energy places, plus
    1/2 i theta'^2 for the two bending links; M is never formed."""
    m1, m2, m3 = params.masses
    i2, i3 = params.link_inertias
    _, theta2, theta3 = q
    v1, w2, w3 = qdot
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    # time derivatives of the positions in potential_energy
    x2, z2 = L2 * c2 * w2, v1 - L2 * s2 * w2
    x3 = x2 + L_END * (c2 * c3 * w2 - s2 * s3 * w3)
    y3 = -L_END * c3 * w3
    z3 = z2 - L_END * (s2 * c3 * w2 + c2 * s3 * w3)
    return 0.5 * (m1 * v1 * v1 + m2 * (x2 * x2 + z2 * z2) + m3 * (x3 * x3 + y3 * y3 + z3 * z3)
                  + i2 * w2 * w2 + i3 * w3 * w3)


def potential_energy(q, params: DynamicParams) -> float:
    """-sum m g . p over the three point masses, placed link by link."""
    m1, m2, m3 = params.masses
    gx, gy, gz = params.gravity
    d1, theta2, theta3 = q
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    z1 = d1 + L1
    x2, z2 = L2 * s2, z1 + L2 * c2
    # the tip link points along the bending link's z-axis turned by theta3
    # about its x-axis
    x3, y3, z3 = x2 + L_END * s2 * c3, -L_END * s3, z2 + L_END * c2 * c3
    return -(m1 * gz * z1 + m2 * (gx * x2 + gz * z2) + m3 * (gx * x3 + gy * y3 + gz * z3))


# ---------------------------------------------------------------------------
# the program oracle and the verification suites

def _adjugate(a, b, c, d, e, f):
    """(adj G, det G) of the symmetric integer matrix [[a, b, c], [b, d, e], [c, e, f]]."""
    p, q, r = d * f - e * e, c * e - b * f, b * e - c * d
    s, t = a * f - c * c, b * c - a * e
    return ((p, q, r), (q, s, t), (r, t, a * d - b * b)), a * p + b * q + c * r


def qp_reference(v_d: np.ndarray, rows):
    """Exact brute-force solve of the velocity program with rows (N, b).

    Every float is a dyadic rational, so over one power-of-two denominator D
    the program reads, in Python ints: minimize |w - V|^2 subject to A w >= c,
    with w = D v, V = D v_d, A = D N and c = D^2 b.  Each set S of at most three
    rows with det G_S != 0 (G = A A^T) is a candidate active set: w = V + A_S^T lam
    with G_S lam = c_S - A_S V, solved by adjugate.  The feasible candidate of
    smallest objective, the first in enumeration order on a tie, is returned
    correctly rounded, or None if there is none.  All tests are exact (no
    tolerance, float or multiplier-sign reasoning): the decision path is
    independent of the filter's.  Skipped work has a known outcome: a
    feasible V (objective 0) returns at once; a candidate is tested only if its
    objective beats the best so far, and only on the rows outside S.
    """
    N, b = rows
    k = len(b)
    ratios = [x.as_integer_ratio() for x in np.concatenate((v_d, N, b), None).tolist()]
    # each denominator is a power of two, so scaling to the largest is a shift
    e = max([d.bit_length() for _, d in ratios])
    den = 1 << (e - 1)
    ints = [n << (e - d.bit_length()) for n, d in ratios]
    v0, v1, v2 = V = ints[:3]
    A = [ints[i:i + 3] for i in range(3, 3 + 3 * k, 3)]
    slack = [a0 * v0 + a1 * v1 + a2 * v2 - den * n     # A V - c
             for (a0, a1, a2), n in zip(A, ints[3 + 3 * k:])]
    if min(slack, default=0) >= 0:
        return np.array([x / den for x in V])
    G = [[0] * k for _ in range(k)]
    for i, (p0, p1, p2) in enumerate(A):
        for j in range(i, k):
            q0, q1, q2 = A[j]
            G[i][j] = G[j][i] = p0 * q0 + p1 * q1 + p2 * q2
    # S gives det = det G_S, lam = det times its multipliers, num = det |w - V|^2 and
    # det (A w - c)_m = det slack_m + sum_i lam_i G_mi (0 on S); best holds det w
    best, best_num, best_det = None, 0, 1
    for i, (si, Gi) in enumerate(zip(slack, G)):
        det, num = Gi[i], si * si
        if det and (best is None or num * best_det < best_num * det):
            for m in range(k):
                if m != i and det * slack[m] < si * Gi[m]:
                    break
            else:
                best, best_num, best_det = [det * v - si * a for v, a in zip(V, A[i])], num, det
    for i, j in combinations(range(k), 2):
        si, sj, Gi, Gj = slack[i], slack[j], G[i], G[j]
        det = Gi[i] * Gj[j] - Gi[j] * Gi[j]
        li, lj = Gi[j] * sj - Gj[j] * si, Gi[j] * si - Gi[i] * sj
        num = -(li * si + lj * sj)
        if det and (best is None or num * best_det < best_num * det):
            for m in range(k):
                if m != i and m != j and det * slack[m] + li * Gi[m] + lj * Gj[m] < 0:
                    break
            else:
                best = [det * v + li * p + lj * q for v, p, q in zip(V, A[i], A[j])]
                best_num, best_det = num, det
    for S in combinations(range(k), 3):
        i, j, l = S
        G0, G1, G2, s0, s1, s2 = G[i], G[j], G[l], slack[i], slack[j], slack[l]
        adj, det = _adjugate(G0[i], G0[j], G0[l], G1[j], G1[l], G2[l])
        l0, l1, l2 = [-(x * s0 + y * s1 + z * s2) for x, y, z in adj]
        num = -(l0 * s0 + l1 * s1 + l2 * s2)
        if det and (best is None or num * best_det < best_num * det):
            for m in range(k):
                if m not in S and det * slack[m] + l0 * G0[m] + l1 * G1[m] + l2 * G2[m] < 0:
                    break
            else:
                best = [det * v + l0 * x + l1 * y + l2 * z
                        for v, x, y, z in zip(V, A[i], A[j], A[l])]
                best_num, best_det = num, det
    if best is None:
        return None
    D = best_det * den
    return np.array([best[0] / D, best[1] / D, best[2] / D])


def random_qp_instance(rng: np.random.Generator):
    """(v_d, (N, b)): one random program of 1 to 3 rows with unit normals."""
    v_d = rng.normal(0.0, 3.0, 3)
    k = int(rng.integers(1, 4))
    rows = rng.normal(0.0, 1.0, (k, 3)).tolist()
    # each row over its length in floats, summed in the order of numpy's add.reduce
    lengths = [math.sqrt(x * x + y * y + z * z) for x, y, z in rows]
    normals = np.array([(x / n, y / n, z / n) for (x, y, z), n in zip(rows, lengths)])
    offsets = rng.uniform(-4.0, 4.0, k)
    if k >= 2 and rng.random() < 0.15:
        # (near-)antipodal pair: infeasible whenever the offsets sum positive
        normals[1] = -normals[0]
        if rng.random() < 0.5:
            normals[1] += rng.normal(0.0, 1e-3, 3)
            normals[1] /= math.sqrt(float(normals[1].dot(normals[1])))
        offsets[:2] = rng.uniform(-1.0, 3.0, 2)
    return v_d, (normals, offsets)


def check_qp_oracle(instances: int, seed: int):
    """Filter output equals the brute-force reference on random programs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    infeasible = 0
    for i in range(instances):
        v_d, rows = random_qp_instance(rng)
        expected = qp_reference(v_d, rows)
        if expected is None:
            infeasible += 1
            try:
                safety_filter(v_d, rows)
            except InfeasibleQPError:
                continue
            return False, f"instance {i}: filter solved an infeasible program"
        try:
            got = safety_filter(v_d, rows)
        except InfeasibleQPError:
            return False, f"instance {i}: filter rejected a feasible program"
        err = float(np.linalg.norm(got - expected)) / max(1.0, float(np.linalg.norm(expected)))
        worst = max(worst, err)
        if err > 1e-3:
            return False, f"instance {i}: relative deviation {err:.2e}"
    return True, (f"{instances} random programs, {infeasible} infeasible, "
                  f"worst relative deviation {worst:.2e}")


def _random_config(rng: np.random.Generator) -> JointConfig:
    """A uniform draw from the scenario workspace box."""
    return JointConfig(*(float(rng.uniform(low, high)) for low, high in JOINT_BOX.values()))


def check_jacobian_fd():
    """tip_kinematics' J against central differences of its separately written position."""
    samples, rng = 200, np.random.default_rng(1)
    step = 1e-6
    worst = 0.0
    for _ in range(samples):
        q = _random_config(rng)
        _, J = tip_kinematics(*q)
        for j in range(3):
            plus, minus = list(q), list(q)
            plus[j] += step
            minus[j] -= step
            xp, xm = tip_kinematics(*plus)[0], tip_kinematics(*minus)[0]
            worst = max(worst, *(abs((a - b) / (2 * step) - row[j])
                                 for a, b, row in zip(xp, xm, J)))
    return worst <= 1e-4, f"{samples} samples, worst column error {worst:.2e} (tol 1e-4)"


def check_barrier_gradients_fd():
    """Filter row normals against central differences of the barriers, plus unit norm.

    The normals are the ones the filter uses, from selected_barrier_values
    on a one-tumor and a one-shell safe set; the values are that set's table.
    """
    samples, rng = 200, np.random.default_rng(2)
    step = 1e-6
    worst = 0.0
    for _ in range(samples):
        center = rng.uniform(-20.0, 40.0, 3)
        tumor = TumorSpec(center, float(rng.uniform(1.0, 8.0)))
        shell = DepthShell(center, float(rng.uniform(2.0, 12.0)))
        x = (center + rng.uniform(0.5, 15.0) * _unit(rng)).tolist()
        for safe_set in (SafeSetSpec([tumor], []), SafeSetSpec([], [shell])):
            _, [g] = selected_barrier_values(x, safe_set, True)
            worst = max(worst, abs(float(np.linalg.norm(g)) - 1.0))
            for j in range(3):
                plus, minus = list(x), list(x)
                plus[j] += step
                minus[j] -= step
                fd = (selected_barrier_values(plus, safe_set, False)[0][0]
                      - selected_barrier_values(minus, safe_set, False)[0][0]) / (2 * step)
                worst = max(worst, abs(fd - g[j]))
    return worst <= 1e-6, f"{samples} samples, worst deviation {worst:.2e} (tol 1e-6)"


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(0.0, 1.0, 3)
    return v / np.linalg.norm(v)


def check_mass_matrix_spd():
    """Symmetry and positive definiteness across the workspace."""
    samples, rng = 1000, np.random.default_rng(3)
    params = DynamicParams()
    M = np.array([mass_matrix(_random_config(rng), params) for _ in range(samples)])
    if float(np.max(np.abs(M - M.transpose(0, 2, 1)))) > 0.0:
        return False, "mass matrix not exactly symmetric"
    min_eig = float(np.linalg.eigvalsh(M).min())
    return min_eig > 0.0, f"{samples} samples, smallest eigenvalue {min_eig:.3e}"


def check_skew_symmetry():
    """dM/dt - 2C plus its transpose vanishes; dM/dt by Richardson differences.

    The property reads C only through C + C^T, so it cannot tell C from its
    transpose: dynamics-residual is the suite that tells them apart.
    """
    samples, rng = 200, np.random.default_rng(4)
    params = DynamicParams()

    def mdot_fd(q: JointConfig, qd: np.ndarray) -> np.ndarray:
        arr = np.array(q)

        def central(h):
            mp = mass_matrix(arr + h * qd, params)
            mm = mass_matrix(arr - h * qd, params)
            return (mp - mm) / (2.0 * h)

        h = 1e-3
        return (4.0 * central(h / 2) - central(h)) / 3.0

    worst = 0.0
    for _ in range(samples):
        q = _random_config(rng)
        qd = rng.normal(0.0, 1.0, 3)
        resid = mdot_fd(q, qd) - 2.0 * coriolis_matrix(q, qd, params)
        worst = max(worst, float(np.max(np.abs(resid + resid.T))))
    return worst <= 1e-8, f"{samples} states, worst residual {worst:.2e} (tol 1e-8)"


def check_dynamics_residual():
    """forward_dynamics inverts the equations of motion to 1e-9."""
    samples, rng = 200, np.random.default_rng(11)
    params = DynamicParams()
    worst = 0.0
    for _ in range(samples):
        q = _random_config(rng)
        qd = rng.normal(0.0, 1.0, 3)
        u = rng.normal(0.0, 1e4, 3)
        qdd = np.array(forward_dynamics(q.theta2, q.theta3, *qd, *u, params))
        resid = (mass_matrix(q, params) @ qdd + coriolis_matrix(q, qd, params) @ qd
                 + gravity_vector(q, params) - u)
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst <= 1e-9, f"{samples} states, worst residual {worst:.2e} (tol 1e-9)"


def check_energy_audit():
    """Free motion conserves energy.

    Two passes: a zero-gravity coast whose kinetic energy must hold to 1e-6
    relative over one second at the control dt, and a gravity pass whose
    total energy is booked with kinetic_energy/potential_energy.
    """
    free = DynamicParams(gravity=(0.0, 0.0, 0.0))
    q, qd = (10.0, 0.2, -0.3), (4.0, 0.6, -0.8)
    ke0 = kinetic_energy(q, qd, free)
    kinetic = 0.0
    for _ in range(1000):
        q, qd = rk4_step(q, qd, (0.0, 0.0, 0.0), 1e-3, free)
        kinetic = max(kinetic, abs(kinetic_energy(q, qd, free) - ke0) / ke0)
    if kinetic > 1e-6:
        return False, f"zero-gravity kinetic drift {kinetic:.2e} (tol 1e-6)"

    # Gravity along x keeps the free motion a bounded swing: the prismatic
    # joint sees no net load, so total energy stays near the kinetic scale.
    grav = DynamicParams(gravity=(9810.0, 0.0, 0.0))
    q, qd = (10.0, 0.3, -0.2), (2.0, 0.4, -0.5)
    ke = kinetic_energy(q, qd, grav)
    e0, scale = ke + potential_energy(q, grav), max(ke, 1.0)
    drift = 0.0
    for _ in range(5000):
        q, qd = rk4_step(q, qd, (0.0, 0.0, 0.0), 2e-4, grav)
        ke = kinetic_energy(q, qd, grav)
        scale = max(scale, ke)
        drift = max(drift, abs(ke + potential_energy(q, grav) - e0))
    rel = drift / scale
    return rel <= 1e-6, (f"zero-gravity kinetic drift {kinetic:.2e}, "
                         f"total-energy drift {rel:.2e} (tol 1e-6)")


def check_rk4_order():
    """Observed convergence order of the integrator is at least 3.8.

    Gravity along x drives a stiff bounded swing.  The same problem is
    integrated at three halving steps, all inside the asymptotic range with
    differences well above the roundoff floor; the ratio of successive
    differences |y_h - y_h/2| / |y_h/2 - y_h/4| is 2^p for a method of order p,
    so no reference solution is needed.
    """
    params = DynamicParams(gravity=(9810.0, 0.0, 0.0))
    u = (2000.0, 1000.0, -800.0)
    horizon = 0.1

    def integrate(dt: float) -> np.ndarray:
        q, qd = (10.0, 0.3, -0.2), (3.0, 0.5, -0.7)
        for _ in range(int(round(horizon / dt))):
            q, qd = rk4_step(q, qd, u, dt, params)
        return np.array(q + qd)

    y1, y2, y3 = (integrate(dt) for dt in (5e-4, 2.5e-4, 1.25e-4))
    order = math.log2(float(np.linalg.norm(y1 - y2)) / float(np.linalg.norm(y2 - y3)))
    return order >= 3.8, f"observed order {order:.2f} from step halving (need >= 3.8)"


VERIFY_SUITES = (
    ("qp-oracle", check_qp_oracle),
    ("jacobian-fd", check_jacobian_fd),
    ("barrier-gradients-fd", check_barrier_gradients_fd),
    ("mass-matrix-spd", check_mass_matrix_spd),
    ("skew-symmetry", check_skew_symmetry),
    ("dynamics-residual", check_dynamics_residual),
    ("energy-audit", check_energy_audit),
    ("rk4-order", check_rk4_order),
)
