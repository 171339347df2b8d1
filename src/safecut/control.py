"""Model-free velocity tracking and disturbance shaping.

The control law reads only the Jacobian and one gain: u = -k_d * edot with
edot = Jpinv(q) (xdot - xdot_safe), Jpinv the least-squares inverse damped by
the constant DAMPING.  No inertial quantity appears here, which is what makes
the tracking loop model-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import damped_least_squares

_NOISE_FLOOR = 1e-12   # ||edot|| at or below it carries no transient to fit
DAMPING = 1e-3         # regularizes Jpinv where J loses rank


class InsufficientTransientError(RuntimeError):
    """Decay-rate fit requested on a log without a usable transient."""


@dataclass
class ControllerParams:
    """k_d maps velocity error to joint force/torque.

    The default gain is tuned so the measured closed-loop decay rate stays a
    few times above the largest filter alpha in the scenario catalog while
    the stiffest joint remains stable under RK4 at dt = 1e-3 s.
    """

    k_d: float = 8000.0

    def __post_init__(self):
        if not 0.0 < self.k_d < math.inf:
            raise ValueError(f"k_d must be positive and finite, got {self.k_d!r}")


@dataclass
class DisturbanceSpec:
    """Additive joint-space disturbance d(t) with ||d||_inf <= amplitude.

    waveform: "none", "constant", or "sinusoid" (per-joint phases drawn
    deterministically from seed).
    phases: the three sinusoid phases [rad], drawn from seed at construction.
    """

    waveform: str = "none"
    amplitude: tuple = (0.0, 0.0, 0.0)
    frequency: float = 0.0
    seed: int = 0
    phases: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.waveform not in ("none", "constant", "sinusoid"):
            raise ValueError(f"unknown waveform {self.waveform!r}")
        self.amplitude = tuple(float(a) for a in self.amplitude)
        if len(self.amplitude) != 3 or not all(math.isfinite(a) for a in self.amplitude):
            raise ValueError(f"amplitude must be 3 finite values, got {self.amplitude!r}")
        if not math.isfinite(self.frequency):
            raise ValueError(f"frequency must be finite, got {self.frequency!r}")
        if self.waveform == "sinusoid" and self.frequency <= 0.0:
            raise ValueError("sinusoid waveform needs a positive frequency")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # drawn once here, not on every control step's sample
        self.phases = tuple(np.random.default_rng(self.seed).uniform(0.0, math.tau, 3).tolist())


def velocity_error(J, xdot, xdot_safe):
    """Joint-space velocity error edot = Jpinv (xdot - xdot_safe), as floats.

    J is the step's tip Jacobian and xdot = J qdot the measured tip
    velocity; Jpinv is the least-squares inverse of J damped by DAMPING.
    """
    e = (xdot[0] - xdot_safe[0], xdot[1] - xdot_safe[1], xdot[2] - xdot_safe[2])
    return damped_least_squares(J, e, DAMPING)


def control_law(edot, params: ControllerParams):
    """u = -k_d * edot."""
    k = -params.k_d
    return (k * edot[0], k * edot[1], k * edot[2])


def disturbance(t: float, spec: DisturbanceSpec) -> tuple:
    """Disturbance sample at time t [s], as 3 floats."""
    if spec.waveform == "none":
        return (0.0, 0.0, 0.0)
    if spec.waveform == "constant":
        return spec.amplitude
    (a1, a2, a3), (p1, p2, p3) = spec.amplitude, spec.phases
    wt = 2.0 * math.pi * spec.frequency * t
    return (a1 * math.sin(wt + p1), a2 * math.sin(wt + p2), a3 * math.sin(wt + p3))


def measure_decay_rate(t: np.ndarray, edot: np.ndarray) -> float:
    """Least-squares slope of -log||edot|| over the initial transient.

    The window runs from the peak of ||edot|| until the norm first drops
    below 1% of that peak (or the end of the log).  Raises
    InsufficientTransientError when the peak never exceeds _NOISE_FLOOR or the
    window is too short to fit a slope.
    """
    t = np.asarray(t, dtype=float)
    norms = np.linalg.norm(np.asarray(edot, dtype=float), axis=1)
    if norms.size == 0 or float(norms.max()) <= _NOISE_FLOOR:
        raise InsufficientTransientError("no transient above the noise floor")
    start = int(norms.argmax())
    peak = norms[start]
    below = np.nonzero(norms[start:] < 0.01 * peak)[0]
    stop = start + int(below[0]) + 1 if below.size else norms.size
    window = slice(start, stop)
    tw, nw = t[window], norms[window]
    keep = nw > _NOISE_FLOOR
    if keep.sum() < 3:
        raise InsufficientTransientError("transient window too short for a fit")
    slope, _ = np.polyfit(tw[keep], np.log(nw[keep]), 1)
    return float(-slope)
