"""Safety layer: keep-out barriers, cutting-depth shells, and the velocity filter.

Each tumor carries a spherical keep-out region of radius equal to its cutting
margin; each depth shell bounds how far the tip may wander outward while
dissecting.  SafeSetSpec fixes them once as one barrier table, tumors first
then shells: barrier b has a name and one float row, its centre c_b, radius
r_b and sign s_b (+1 for a tumor, -1 for a shell), so

    h_b = s_b (||x - c_b|| - r_b),   normal_b = s_b (x - c_b) / ||x - c_b||,

positive outside a keep-out sphere and inside a shell.

The filter solves, at every control step,

    minimize    || v_s - v_d ||^2
    subject to  n_i . v_s >= -alpha * h_i     for every barrier of the table,

which keeps the commanded velocity safe while deviating minimally from the
desired one.  The rows are plain floats, normals n_i and offsets -alpha * h_i.
With at most a handful of rows in 3-D the program is solved exactly by
enumerating candidate active sets, each a square float solve, and checking the
KKT conditions, so no iterative QP solver or solver tolerance enters the loop;
filter_rows also counts the active rows, and safety_filter adapts it to arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .kinematics import WORKSPACE_MM

CENTRE_TOL = 1e-9   # mm; closer to a barrier's centre its normal is undefined
_DUAL_TOL = 1e-9
_FEAS_TOL = 1e-9


class DegeneratePointError(RuntimeError):
    """Barrier gradient requested at a sphere centre, where it is undefined."""


class InfeasibleQPError(RuntimeError):
    """No velocity satisfies every constraint row."""


@dataclass(frozen=True, eq=False)
class TumorSpec:
    """A marked tumor: centre, cutting margin [mm]; marking.N.tumor names the one a loop cuts."""

    center: np.ndarray
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_point(self.center, "tumor centre"))
        if not 0.0 < self.margin <= WORKSPACE_MM:
            raise ValueError(f"cutting margin must be positive and finite, at most "
                             f"{WORKSPACE_MM:g} mm, got {self.margin!r}")


@dataclass(frozen=True, eq=False)
class DepthShell:
    """Outer containment sphere around a dissection site."""

    center: np.ndarray
    outer_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_point(self.center, "shell centre"))
        if not 0.0 < self.outer_radius <= WORKSPACE_MM:
            raise ValueError(f"outer radius must be positive and finite, at most "
                             f"{WORKSPACE_MM:g} mm, got {self.outer_radius!r}")


@dataclass(frozen=True)
class FilterParams:
    """Filter configuration; an enabled filter takes every barrier as a row.

    alpha: class-K gain [1/s] on the barrier value; larger values allow
        faster approach toward a boundary (less conservative).
    activation_gate: when True the filter stays disengaged until every
        barrier is non-negative, mirroring an approach from outside the
        permitted shell; once engaged it never disengages.
    enabled: False bypasses filtering entirely (counterfactual runs).
    """

    alpha: float = 0.4
    activation_gate: bool = False
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


@dataclass(frozen=True, eq=False)
class SafeSetSpec:
    """All barriers of a scenario as one table; the only place that knows the list.

    Fixed here, as they depend on geometry only, per barrier (tumors first,
    then shells): its name in names ("tumor<i>", "shell<j>") and its float
    row in barriers, (cx, cy, cz, r, s): centre, radius (cutting margin or
    outer radius) and sign (+1 tumor, -1 shell).  A shell that contains a tumor's
    centre must contain its whole keep-out sphere.
    """

    tumors: list
    shells: list
    names: list = field(init=False, repr=False)
    barriers: list = field(init=False, repr=False)

    def __post_init__(self):
        nt, ns = len(self.tumors), len(self.shells)
        names = [f"tumor{i}" for i in range(nt)] + [f"shell{j}" for j in range(ns)]
        barriers = [(*t.center.tolist(), float(t.margin), 1.0) for t in self.tumors] + \
                   [(*s.center.tolist(), float(s.outer_radius), -1.0) for s in self.shells]
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "barriers", barriers)
        for j, shell in enumerate(self.shells):
            for i, tumor in enumerate(self.tumors):
                dist = float(np.linalg.norm(tumor.center - shell.center))
                if dist < shell.outer_radius and not dist + tumor.margin < shell.outer_radius:
                    raise ValueError(f"shell.{j}: depth shell holds the centre of tumor.{i} "
                                     "but not its whole keep-out sphere")


def _finite_point(p, what: str) -> np.ndarray:
    """A read-only float copy of p, 3 coordinates each within WORKSPACE_MM of 0 (so finite)."""
    p = np.array(p, dtype=float)
    if p.shape != (3,) or not np.all(np.abs(p) <= WORKSPACE_MM):
        raise ValueError(f"{what} must be 3 finite coordinates, each at most "
                         f"{WORKSPACE_MM:g} mm, got {p.tolist()}")
    p.flags.writeable = False
    return p


def selected_barrier_values(x, spec: SafeSetSpec, rows: bool):
    """(h, normals): the one evaluation of the barrier table at x, in floats.

    h holds every barrier value in table order, the order the log keeps;
    normals the unit normals of every barrier, the filter's rows, when rows
    is true, else none.  Raises DegeneratePointError, naming the barrier,
    when a normal is asked for within CENTRE_TOL of its barrier's centre.
    """
    x0, x1, x2 = x
    h, normals = [], []
    for cx, cy, cz, r, s in spec.barriers:
        dx, dy, dz = x0 - cx, x1 - cy, x2 - cz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        h.append(s * (dist - r))
        if rows:
            if dist < CENTRE_TOL:
                raise DegeneratePointError(
                    f"{spec.names[len(h) - 1]}: barrier gradient undefined at the sphere centre")
            normals.append((s * dx / dist, s * dy / dist, s * dz / dist))
    return h, normals


def safety_filter(v_d, rows) -> np.ndarray:
    """filter_rows on array rows (N, b): N is (k, 3), b is (k,); v_s as an array."""
    N, b = rows
    return np.array(filter_rows(np.asarray(v_d, dtype=float).tolist(), N.tolist(), b.tolist())[0])


def filter_rows(v_d, normals, offsets):
    """(v_s, active): the closest v_s to v_d with n_i . v_s >= b_i, all floats.

    Exact active-set enumeration: if v_d satisfies every row it is returned
    unchanged; otherwise all candidate active subsets of size 1..3 are tried
    and the first KKT-consistent projection (non-negative multipliers, all rows
    satisfied) is the unique optimum.  active counts the rows with
    |n_i . v_s - b_i| <= 1e-6, from the dot products of the test that accepted
    v_s.  Raises InfeasibleQPError when the rows admit no solution.

    The one-row candidates, which the closed loop almost always ends on, are
    projected inline; larger ones solve N_A w = b_A - N_A v_d in floats
    (_vertex_step), never the normal equations, which square its condition.
    Each row's residual b_i - n_i . v_d is computed once per call, for the
    passthrough test, its active count and every candidate.

    Degenerate programs, every plane through one point, may have that point
    as their only solution, and rounding b can leave the exact program
    infeasible.  There a v may still be returned; any v returned satisfies
    max(b - N v) <= _FEAS_TOL * max(1, |v|).  Where the exact optimum w
    exists, v is within 1e-3 * max(1, |w|) of it.
    """
    vx, vy, vz = v_d
    resids, active, inside = [], 0, True
    for (nx, ny, nz), offset in zip(normals, offsets):
        resid = offset - (nx * vx + ny * vy + nz * vz)
        resids.append(resid)
        inside = inside and resid <= 0.0
        active += abs(resid) <= 1e-6
    if inside:
        return v_d, active

    # tolerances scale with the candidate so ill-conditioned rows (nearly
    # parallel normals, distant optima) stay decidable
    for (nx, ny, nz), resid in zip(normals, resids):
        g = nx * nx + ny * ny + nz * nz
        if g == 0.0:
            continue
        mu = resid / g
        if not math.isfinite(mu) or abs(g * mu - resid) > 1e-7 * max(1.0, abs(resid)):
            continue
        if mu < -_DUAL_TOL * max(1.0, abs(mu)):
            continue
        v = [vx + nx * mu, vy + ny * mu, vz + nz * mu]
        active = _active_rows(normals, offsets, v)
        if active is not None:
            return v, active

    k = len(offsets)
    for subset in chain(combinations(range(k), 2), combinations(range(k), 3)):
        v = _vertex_step(vx, vy, vz, normals, resids, subset)
        active = _active_rows(normals, offsets, v) if v else None
        if active is not None:
            return v, active
    raise InfeasibleQPError(f"no velocity satisfies all {k} constraint rows")


def _vertex_step(vx: float, vy: float, vz: float, normals, resids, subset):
    """v + w with n_i . (v + w) = b_i on the two or three rows of subset, or None.

    resids holds r_i = b_i - n_i . v for every row, computed once per
    filter_rows call.  By the dual basis c_i = n_j x n_k (n_i . c_i = det,
    n_j . c_i = 0, j != i), w = sum (r_i / det) c_i with multipliers
    mu_i = (w . c_i) / det.  Two rows gain n_0 x n_1 (their c_2) with r = 0, so
    w stays still along their planes' common line.  None when det is 0, when
    w misses r by over 1e-7 max(1, |r|), a nan residual included, or when a
    multiplier is negative beyond _DUAL_TOL.
    """
    i, j = subset[0], subset[1]
    (a0, a1, a2), (b0, b1, b2) = normals[i], normals[j]
    r0, r1 = resids[i], resids[j]
    e0, e1, e2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0    # c_2
    triple = len(subset) == 3
    if triple:
        (d0, d1, d2), r2 = normals[subset[2]], resids[subset[2]]
    else:
        d0, d1, d2, r2 = e0, e1, e2, 0.0
    c00, c01, c02 = b1 * d2 - b2 * d1, b2 * d0 - b0 * d2, b0 * d1 - b1 * d0
    c10, c11, c12 = d1 * a2 - d2 * a1, d2 * a0 - d0 * a2, d0 * a1 - d1 * a0
    det = a0 * c00 + a1 * c01 + a2 * c02
    if not det:
        return None
    w0 = (r0 * c00 + r1 * c10 + r2 * e0) / det
    w1 = (r0 * c01 + r1 * c11 + r2 * e1) / det
    w2 = (r0 * c02 + r1 * c12 + r2 * e2) / det
    tol = 1e-7 * max(1.0, math.hypot(r0, r1, r2))
    if not (abs(a0 * w0 + a1 * w1 + a2 * w2 - r0) <= tol
            and abs(b0 * w0 + b1 * w1 + b2 * w2 - r1) <= tol
            and abs(d0 * w0 + d1 * w1 + d2 * w2 - r2) <= tol):
        return None
    mu0 = (w0 * c00 + w1 * c01 + w2 * c02) / det
    mu1 = (w0 * c10 + w1 * c11 + w2 * c12) / det
    mu = (mu0, mu1, (w0 * e0 + w1 * e1 + w2 * e2) / det) if triple else (mu0, mu1)
    if min(mu) < -_DUAL_TOL * max(1.0, math.hypot(*mu)):
        return None
    return [vx + w0, vy + w1, vz + w2]


def _active_rows(normals, offsets, v):
    """Rows with |n . v - b| <= 1e-6, or None unless n . v >= b - _FEAS_TOL max(1, |v|) on all."""
    vx, vy, vz = v
    slack = _FEAS_TOL * max(1.0, math.sqrt(vx * vx + vy * vy + vz * vz))
    active = 0
    for (nx, ny, nz), offset in zip(normals, offsets):
        d = nx * vx + ny * vy + nz * vz
        if not d >= offset - slack:
            return None
        active += abs(d - offset) <= 1e-6
    return active
