"""Scenario catalog: tumors, marking points, reference paths, configuration.

A scenario bundles everything one closed-loop run needs.  Marking points sit
on the cutting margin of a tumor; a subset can be re-marked as unsafe by
pushing them radially inside a keep-out sphere, which is how erroneous
markings are modelled.  The reference trajectory interpolates the marking
points at constant speed after an approach segment from the initial tip
position.

Scenarios 1-3 exercise the keep-out filter at alpha = 0.4 with one or two
tumors and one to three unsafe markings.  Scenario 4 adds a cutting-depth
shell around the removable tumor, switches to closest-barrier selection at
alpha = 1.5, and keeps the filter gated until the tip has entered the shell.

Every catalog run uses zero gravity: the velocity controller carries no
gravity compensation, matching its model-free construction, so a constant
gravity load would only add a fixed disturbance handled separately by the
disturbance studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .control import ControllerParams, DisturbanceSpec
from .dynamics import DynamicParams, RobotState
from .kinematics import JointConfig, JointLimits, KinematicParams, forward_kinematics
from .safety import DepthShell, FilterParams, SafeSetSpec, TumorSpec, barrier_value

SCENARIO_IDS = (1, 2, 3, 4)

_UNSAFE_DEPTH = 1.5          # mm inside the keep-out sphere
_MARKING_COUNT = 8
_MARKING_PLANE = (0.0, 0.0, 1.0)


@dataclass
class MarkingSet:
    """Marking points of one cutting loop.

    points: (m, 3) positions [mm]; unsafe: boolean flags per point;
    tumor_index: which tumor of the scenario the loop belongs to.
    """

    points: np.ndarray
    unsafe: np.ndarray
    tumor_index: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.unsafe = np.asarray(self.unsafe, dtype=bool).reshape(-1)
        if len(self.points) == 0:
            raise ValueError("marking set must contain at least one point")
        if len(self.unsafe) != len(self.points):
            raise ValueError("unsafe flags must match point count")


@dataclass
class ReferenceTrajectory:
    """Constant-speed piecewise-linear reference sampled on the control grid."""

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def sample(self, t: float):
        """Reference position and feedforward velocity at time t.

        Past the end the position clamps to the final point and the
        feedforward vanishes, leaving pure proportional pull.
        """
        n, dt = len(self.t), self.dt
        if n > 1 and t > self.t[-1] + 0.5 * dt:
            return self.pos[-1], np.zeros(3)
        idx = min(int(round(t / dt)) if dt else 0, n - 1)
        return self.pos[idx], self.vel[idx]


def generate_marking_points(tumor: TumorSpec, count: int, plane_normal) -> MarkingSet:
    """count equally spaced safe markings on the margin circle of the tumor.

    The circle lies in the plane through the centre orthogonal to
    plane_normal and is traversed counterclockwise about it, starting on the
    projection of the x-axis (y-axis when the normal is nearly parallel to x).
    """
    if count < 1:
        raise ValueError("need at least one marking point")
    n = np.asarray(plane_normal, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm < 1e-12:
        raise ValueError("plane normal must be nonzero")
    n = n / norm
    helper = np.array([1.0, 0.0, 0.0])
    if abs(float(n @ helper)) > 1.0 - 1e-9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = helper - float(helper @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    angles = 2.0 * math.pi * np.arange(count) / count
    pts = (tumor.center[None, :]
           + tumor.margin * (np.cos(angles)[:, None] * e1[None, :]
                             + np.sin(angles)[:, None] * e2[None, :]))
    return MarkingSet(pts, np.zeros(count, dtype=bool))


def inject_unsafe_points(ms: MarkingSet, intrusions: list) -> MarkingSet:
    """Copy of ms with selected points pushed inside a keep-out sphere.

    intrusions: (index, target_tumor, depth) tuples.  Each listed point is
    moved radially toward the target centre until its barrier value there
    equals -depth, and flagged unsafe.  depth must lie strictly inside the
    target margin.
    """
    pts = ms.points.copy()
    flags = ms.unsafe.copy()
    for index, target, depth in intrusions:
        if not 0 <= index < len(pts):
            raise ValueError(f"marking index {index} out of range")
        if not 0.0 < depth < target.margin:
            raise ValueError("intrusion depth must lie in (0, margin)")
        offset = pts[index] - target.center
        dist = float(np.linalg.norm(offset))
        if dist < 1e-9:
            raise ValueError("marking point coincides with the target centre")
        pts[index] = target.center + (target.margin - depth) * (offset / dist)
        flags[index] = True
    return MarkingSet(pts, flags, ms.tumor_index)


def build_reference(markings: list, speed: float, dt: float, approach_from) -> ReferenceTrajectory:
    """Approach segment plus each marking loop in order, closed and sampled.

    The path starts at approach_from, runs to the first marking point, then
    around every loop back to its first point, all at constant speed.
    Velocity samples are the exact segment derivatives; a vertex sample takes
    the outgoing direction.
    """
    if not markings:
        raise ValueError("cannot build a reference without marking sets")
    if speed <= 0.0 or dt <= 0.0:
        raise ValueError("speed and dt must be positive")
    waypoints = [np.asarray(approach_from, dtype=float)]
    for ms in markings:
        for p in ms.points:
            waypoints.append(p)
        waypoints.append(ms.points[0])
    pts = []
    for w in waypoints:
        if pts and float(np.linalg.norm(w - pts[-1])) < 1e-12:
            continue
        pts.append(w)
    pts = np.array(pts)
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    seg_dir = seg / seg_len[:, None]
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = float(cum[-1])
    n = int(math.ceil(total / speed / dt - 1e-9))
    t = np.arange(n + 1) * dt
    s = np.minimum(t * speed, total)
    idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg_len) - 1)
    pos = pts[idx] + (s - cum[idx])[:, None] * seg_dir[idx]
    vel = seg_dir[idx] * speed
    return ReferenceTrajectory(t, pos, vel)


@dataclass
class ScenarioSpec:
    """Complete description of one closed-loop run."""

    scenario_id: int
    tumors: list
    shells: list
    markings: list
    filter: FilterParams
    controller: ControllerParams = field(default_factory=ControllerParams)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    kinematics: KinematicParams = field(default_factory=KinematicParams)
    dynamics: DynamicParams = field(default_factory=DynamicParams)
    initial: RobotState = None
    speed: float = 2.0
    kp_gain: float = 5.0
    dt: float = 1e-3
    settle: float = 1.0
    duration: Optional[float] = None       # None: reference duration + settle

    def __post_init__(self):
        for name in ("dt", "speed", "settle", "duration"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not math.isfinite(self.kp_gain):
            raise ValueError(f"kp_gain must be finite, got {self.kp_gain!r}")
        if self.initial is None:
            self.initial = RobotState(JointConfig(0.0, 0.0, 0.0), np.zeros(3))
        # masses hang off the same link lengths the controller sees
        self.dynamics = replace(self.dynamics, kinematics=self.kinematics)

    def safe_set(self) -> SafeSetSpec:
        return SafeSetSpec(self.tumors, self.shells)

    def reference(self) -> ReferenceTrajectory:
        start = forward_kinematics(self.initial.q, self.kinematics)
        return build_reference(self.markings, self.speed, self.dt, start)

    def run_duration(self, ref: Optional[ReferenceTrajectory] = None) -> float:
        """The fixed duration, or the reference's duration plus settle.

        ref is this spec's reference when the caller has already built it.
        """
        if self.duration is not None:
            return self.duration
        return (self.reference() if ref is None else ref).duration + self.settle

    def validate(self):
        """Geometric sanity of the scenario; raises ValueError on failure."""
        if not JointLimits().contains(self.initial.q):
            raise ValueError("initial joints outside the workspace box")
        tip = forward_kinematics(self.initial.q, self.kinematics)
        for i, tumor in enumerate(self.tumors):
            if barrier_value(tip, tumor) < 0.0:
                raise ValueError(f"initial tip inside keep-out sphere of tumor {i}")
        self.safe_set()
        if not self.tumors:
            return
        for ms in self.markings:
            own = self.tumors[ms.tumor_index]
            for p, bad in zip(ms.points, ms.unsafe):
                if bad:
                    if min(barrier_value(p, t) for t in self.tumors) >= 0.0:
                        raise ValueError("unsafe marking does not intrude any keep-out sphere")
                elif abs(barrier_value(p, own)) > 1e-9:
                    raise ValueError("safe marking off the cutting margin")


def scenario_catalog(scenario_id: int) -> ScenarioSpec:
    """One of the four built-in scenarios; raises ValueError for other ids."""
    if scenario_id not in SCENARIO_IDS:
        raise ValueError(f"unknown scenario id {scenario_id}; valid: {SCENARIO_IDS}")
    removable = TumorSpec(np.array([0.0, 6.0, 30.0]), 4.0, removable=True)
    preserve = TumorSpec(np.array([0.0, -6.0, 30.0]), 4.0, removable=False)
    loop = generate_marking_points(removable, _MARKING_COUNT, _MARKING_PLANE)

    if scenario_id == 1:
        tumors = [removable]
        shells = []
        marks = inject_unsafe_points(loop, [(2, removable, _UNSAFE_DEPTH),
                                            (5, removable, _UNSAFE_DEPTH)])
        filt = FilterParams(alpha=0.4)
        d1 = 13.0
    elif scenario_id == 2:
        tumors = [removable, preserve]
        shells = []
        marks = inject_unsafe_points(loop, [(6, preserve, _UNSAFE_DEPTH)])
        filt = FilterParams(alpha=0.4)
        d1 = 13.0
    elif scenario_id == 3:
        tumors = [removable, preserve]
        shells = []
        marks = inject_unsafe_points(loop, [(2, removable, _UNSAFE_DEPTH),
                                            (4, removable, _UNSAFE_DEPTH),
                                            (6, preserve, _UNSAFE_DEPTH)])
        filt = FilterParams(alpha=0.4)
        d1 = 13.0
    else:
        tumors = [removable]
        shells = [DepthShell(np.array([0.0, 6.0, 30.0]), 7.0)]
        marks = inject_unsafe_points(loop, [(2, removable, _UNSAFE_DEPTH),
                                            (4, removable, _UNSAFE_DEPTH)])
        filt = FilterParams(alpha=1.5, mode="keep_out_and_depth", activation_gate=True)
        # start just outside the shell so the gate engages about a second in
        d1 = 6.7

    spec = ScenarioSpec(
        scenario_id=scenario_id,
        tumors=tumors,
        shells=shells,
        markings=[marks],
        filter=filt,
        dynamics=DynamicParams(gravity=(0.0, 0.0, 0.0)),
        initial=RobotState(JointConfig(d1, 0.0, 0.0), np.zeros(3)),
    )
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# plain-text configuration files
#
# One "key = value" pair per line, '#' starts a comment.  Vectors are comma
# separated, marking points semicolon separated.  Loading starts from the
# catalog scenario named by scenario_id and overrides field by field.

_CONFIG_HEADER = "# safecut scenario config v1"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_vec(v) -> str:
    return ", ".join(repr(float(x)) for x in v)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """Flat key/value view of a scenario, the config-file content."""
    d = {
        "scenario_id": _fmt(spec.scenario_id),
        "dt": _fmt(spec.dt),
        "speed": _fmt(spec.speed),
        "kp_gain": _fmt(spec.kp_gain),
        "settle": _fmt(spec.settle),
        "duration": "auto" if spec.duration is None else _fmt(spec.duration),
        "initial.d1": _fmt(spec.initial.q.d1),
        "initial.theta2": _fmt(spec.initial.q.theta2),
        "initial.theta3": _fmt(spec.initial.q.theta3),
        "initial.qdot": _fmt_vec(spec.initial.qdot),
        "kinematics.l1": _fmt(spec.kinematics.l1),
        "kinematics.l2": _fmt(spec.kinematics.l2),
        "kinematics.l_end": _fmt(spec.kinematics.l_end),
        "kinematics.outer_diameter": _fmt(spec.kinematics.outer_diameter),
        "dynamics.masses": _fmt_vec(spec.dynamics.masses),
        "dynamics.link_inertias": _fmt_vec(spec.dynamics.link_inertias),
        "dynamics.gravity": _fmt_vec(spec.dynamics.gravity),
        "filter.alpha": _fmt(spec.filter.alpha),
        "filter.mode": spec.filter.mode,
        "filter.activation_gate": _fmt(spec.filter.activation_gate),
        "filter.enabled": _fmt(spec.filter.enabled),
        "controller.k_d": _fmt(spec.controller.k_d),
        "controller.damping": _fmt(spec.controller.damping),
        "disturbance.waveform": spec.disturbance.waveform,
        "disturbance.amplitude": _fmt_vec(spec.disturbance.amplitude),
        "disturbance.frequency": _fmt(spec.disturbance.frequency),
        "disturbance.seed": _fmt(spec.disturbance.seed),
    }
    for i, tumor in enumerate(spec.tumors):
        d[f"tumor.{i}.center"] = _fmt_vec(tumor.center)
        d[f"tumor.{i}.margin"] = _fmt(tumor.margin)
        d[f"tumor.{i}.removable"] = _fmt(tumor.removable)
    for i, shell in enumerate(spec.shells):
        d[f"shell.{i}.center"] = _fmt_vec(shell.center)
        d[f"shell.{i}.outer_radius"] = _fmt(shell.outer_radius)
    for i, ms in enumerate(spec.markings):
        d[f"marking.{i}.tumor"] = _fmt(ms.tumor_index)
        d[f"marking.{i}.points"] = "; ".join(_fmt_vec(p) for p in ms.points)
        d[f"marking.{i}.unsafe"] = ", ".join("1" if u else "0" for u in ms.unsafe)
    return d


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")])


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _collect(d: dict, family: str) -> list:
    """Indexed sub-dicts for keys like 'tumor.0.center', in index order."""
    out = {}
    for key, value in d.items():
        if not key.startswith(family + "."):
            continue
        rest = key[len(family) + 1:]
        idx_s, _, attr = rest.partition(".")
        out.setdefault(int(idx_s), {})[attr] = value
    missing = [i for i in range(len(out)) if i not in out]
    if missing:
        raise ValueError(f"{family} indices must be contiguous from 0, missing {missing}")
    return [out[i] for i in sorted(out)]


def spec_from_dict(d: dict) -> ScenarioSpec:
    """Inverse of spec_to_dict; raises ValueError on malformed content."""
    known_prefixes = ("tumor.", "shell.", "marking.")
    scalar_keys = {
        "scenario_id", "dt", "speed", "kp_gain", "settle", "duration",
        "initial.d1", "initial.theta2", "initial.theta3", "initial.qdot",
        "kinematics.l1", "kinematics.l2", "kinematics.l_end", "kinematics.outer_diameter",
        "dynamics.masses", "dynamics.link_inertias", "dynamics.gravity",
        "filter.alpha", "filter.mode", "filter.activation_gate", "filter.enabled",
        "controller.k_d", "controller.damping",
        "disturbance.waveform", "disturbance.amplitude", "disturbance.frequency",
        "disturbance.seed",
    }
    for key in d:
        if key not in scalar_keys and not key.startswith(known_prefixes):
            raise ValueError(f"unknown configuration key {key!r}")

    tumors = [
        TumorSpec(_parse_vec(t["center"]), float(t["margin"]), _parse_bool(t["removable"]))
        for t in _collect(d, "tumor")
    ]
    shells = [
        DepthShell(_parse_vec(s["center"]), float(s["outer_radius"]))
        for s in _collect(d, "shell")
    ]
    markings = []
    for m in _collect(d, "marking"):
        pts = np.array([_parse_vec(p) for p in m["points"].split(";")])
        unsafe = np.array([bool(int(u)) for u in m["unsafe"].split(",")])
        markings.append(MarkingSet(pts, unsafe, int(m["tumor"])))

    kin = KinematicParams(
        l1=float(d["kinematics.l1"]), l2=float(d["kinematics.l2"]),
        l_end=float(d["kinematics.l_end"]),
        outer_diameter=float(d["kinematics.outer_diameter"]),
    )
    duration = None if d["duration"] == "auto" else float(d["duration"])
    return ScenarioSpec(
        scenario_id=int(d["scenario_id"]),
        tumors=tumors,
        shells=shells,
        markings=markings,
        filter=FilterParams(
            alpha=float(d["filter.alpha"]),
            mode=d["filter.mode"],
            activation_gate=_parse_bool(d["filter.activation_gate"]),
            enabled=_parse_bool(d["filter.enabled"]),
        ),
        controller=ControllerParams(
            k_d=float(d["controller.k_d"]),
            damping=float(d["controller.damping"]),
        ),
        disturbance=DisturbanceSpec(
            waveform=d["disturbance.waveform"],
            amplitude=tuple(_parse_vec(d["disturbance.amplitude"])),
            frequency=float(d["disturbance.frequency"]),
            seed=int(d["disturbance.seed"]),
        ),
        kinematics=kin,
        dynamics=DynamicParams(
            masses=tuple(_parse_vec(d["dynamics.masses"])),
            link_inertias=tuple(_parse_vec(d["dynamics.link_inertias"])),
            gravity=tuple(_parse_vec(d["dynamics.gravity"])),
            kinematics=kin,
        ),
        initial=RobotState(
            JointConfig(float(d["initial.d1"]), float(d["initial.theta2"]),
                        float(d["initial.theta3"])),
            _parse_vec(d["initial.qdot"]),
        ),
        speed=float(d["speed"]),
        kp_gain=float(d["kp_gain"]),
        dt=float(d["dt"]),
        settle=float(d["settle"]),
        duration=duration,
    )


def scenario_to_config(spec: ScenarioSpec) -> str:
    lines = [_CONFIG_HEADER]
    lines.extend(f"{key} = {value}" for key, value in spec_to_dict(spec).items())
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict:
    """Key/value pairs from config text; no defaults are applied here."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def load_scenario(text: str, base_id: Optional[int] = None) -> ScenarioSpec:
    """Scenario from config text, overriding catalog defaults field by field.

    The base scenario comes from the file's scenario_id key, or base_id when
    the file does not name one.
    """
    overrides = parse_config(text)
    sid = int(overrides["scenario_id"]) if "scenario_id" in overrides else base_id
    if sid is None:
        raise ValueError("config names no scenario_id and no base scenario given")
    merged = spec_to_dict(scenario_catalog(sid))
    merged.update(overrides)
    merged["scenario_id"] = str(sid)
    spec = spec_from_dict(merged)
    spec.validate()
    return spec
