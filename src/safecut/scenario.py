"""Scenario catalog: tumors, marking points, reference paths, configuration.

A scenario bundles everything one closed-loop run needs.  Marking points sit
on the cutting margin of a tumor; a subset can be re-marked as unsafe by
pushing them radially inside a keep-out sphere, which is how erroneous
markings are modelled.  The reference trajectory interpolates the marking
points at constant speed after an approach segment from the initial tip
position.

Scenarios 1-3 exercise the keep-out filter at alpha = 0.4 with one or two
tumors and one to three unsafe markings.  Scenario 4 adds a cutting-depth
shell around the removable tumor, filters on the tumor's and the shell's
rows at alpha = 1.5, and keeps the filter gated until the tip has entered the
shell.

Every catalog run uses zero gravity: the velocity controller carries no
gravity compensation, matching its model-free construction, so a constant
gravity load would only add a fixed disturbance handled separately by the
disturbance studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from .control import DisturbanceSpec
from .dynamics import DynamicParams
from .kinematics import JointConfig, KinematicParams, tip_kinematics
from .safety import (CENTRE_TOL, DepthShell, FilterParams, SafeSetSpec, TumorSpec,
                     _finite_point, selected_barrier_values)

_UNSAFE_DEPTH = 1.5          # mm inside the keep-out sphere
_MARKING_COUNT = 8
_MARKING_PLANE = (0.0, 0.0, 1.0)
_MIN_SEGMENT = 1e-12         # mm: a shorter reference segment has no direction
_LOG_COLUMNS = 30            # a run's log columns (sim.TrajectoryLog) besides one per barrier

# joint -> (low, high) in JointConfig order: an initial joint's box, checked before the
# initial tip is placed; not enforced by the plant, and the verify suites draw from it
JOINT_BOX = dict(d1=(0.0, 50.0), theta2=(-math.pi / 2, math.pi / 2),
                 theta3=(-math.pi / 2, math.pi / 2))

_REMOVABLE = ((0.0, 6.0, 30.0), 4.0)       # TumorSpec arguments
_PRESERVE = ((0.0, -6.0, 30.0), 4.0)

# id -> (tumors, DepthShell arguments, (marking index, intruded tumor index)
#        pairs, FilterParams arguments, initial d1 [mm]); the loop marks tumor 0
_CATALOG = {
    1: ((_REMOVABLE,), (), ((2, 0), (5, 0)), dict(alpha=0.4), 13.0),
    2: ((_REMOVABLE, _PRESERVE), (), ((6, 1),), dict(alpha=0.4), 13.0),
    3: ((_REMOVABLE, _PRESERVE), (), ((2, 0), (4, 0), (6, 1)), dict(alpha=0.4), 13.0),
    # starts just outside the shell so the gate engages about a second in
    4: ((_REMOVABLE,), (((0.0, 6.0, 30.0), 7.0),), ((2, 0), (4, 0)),
        dict(alpha=1.5, activation_gate=True), 6.7),
}
SCENARIO_IDS = tuple(_CATALOG)


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
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) == 0:
            raise ValueError("marking points must be one or more rows of 3 coordinates, "
                             f"got shape {self.points.shape}")
        for k, p in enumerate(self.points):
            _finite_point(p, f"point {k}")
        unsafe = np.asarray(self.unsafe).reshape(-1)
        if not np.isin(unsafe, (0, 1)).all():
            raise ValueError(f"unsafe flags must be 0 or 1, got {unsafe.tolist()}")
        self.unsafe = unsafe.astype(bool)
        if len(self.unsafe) != len(self.points):
            raise ValueError("unsafe flags must match point count")


def generate_marking_points(tumor: TumorSpec, count: int, plane_normal) -> MarkingSet:
    """count equally spaced safe markings on the margin circle of the tumor.

    The circle lies in the plane through the centre orthogonal to
    plane_normal and is traversed counterclockwise about it, starting on the
    projection of the x-axis (y-axis when the normal is nearly parallel to x).
    """
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


def reference_waypoints(markings: list, approach_from) -> tuple:
    """The reference path as a polyline: (waypoints (m, 3), arcs (m,)) [mm].

    The waypoints are approach_from, then each loop's points followed by that
    loop's first point again; arcs[i] is the path length up to waypoint i.
    """
    waypoints = np.concatenate([np.asarray(approach_from, dtype=float)[None]]
                               + [np.vstack((ms.points, ms.points[:1])) for ms in markings])
    seg_len = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    return waypoints, np.concatenate([[0.0], np.cumsum(seg_len)])


def reference_steps(total: float, speed: float, dt: float) -> int:
    """The step at which a path of total [mm] at speed ends: total / speed in dt, rounded up."""
    return math.ceil(total / speed / dt - 1e-9)


def reference_rows(waypoints, arcs, speed: float, dt: float):
    """One (position, feedforward velocity) float row per control step along the
    reference_waypoints path at constant speed: row k at arc s = min(k dt speed, total),
    on the segment holding s, moving at its direction times speed.  Segments under
    _MIN_SEGMENT have no direction and are skipped; ScenarioSpec ensures one is kept.
    After row reference_steps the position holds and the feedforward is zero."""
    seg = np.diff(waypoints, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    kept = np.flatnonzero(seg_len >= _MIN_SEGMENT)
    starts = arcs[kept].tolist()
    # (origin, start arc, unit direction, the next kept segment's start arc)
    segments = zip(waypoints[kept].tolist(), starts, (seg[kept] / seg_len[kept, None]).tolist(),
                   starts[1:] + [math.inf])
    total, end = float(arcs[-1]), -math.inf
    for k in range(reference_steps(total, speed, dt) + 1):
        s = min(k * dt * speed, total)
        while s >= end:
            (ox, oy, oz), arc, (ux, uy, uz), end = next(segments)
            v = (ux * speed, uy * speed, uz * speed)
        r = s - arc
        p = (ox + r * ux, oy + r * uy, oz + r * uz)
        yield p, v
    while True:
        yield p, (0.0, 0.0, 0.0)


@dataclass
class ScenarioSpec:
    """Complete description of one closed-loop run.

    initial_q and initial_qdot are the joint position and velocity at t = 0
    (config keys initial.d1, initial.theta2, initial.theta3, initial.qdot).
    Construction, dataclasses.replace included, builds the barrier table safe_set and
    the reference path (waypoints, arcs) from the initial tip, then runs validate().
    """

    scenario_id: int
    tumors: list
    shells: list
    markings: list
    filter: FilterParams
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    dynamics: DynamicParams = field(default_factory=DynamicParams)
    initial_q: JointConfig = JointConfig(0.0, 0.0, 0.0)
    initial_qdot: tuple = (0.0, 0.0, 0.0)
    speed: float = 2.0
    kp_gain: float = 5.0
    # config key controller.k_d, the gain of u = -k_d edot.  At dt = 1e-3 s catalog 1-3
    # reach r = dt k_d / lambda_min(M) = 1.941 and catalog 4 reaches 1.929, just inside the
    # sampled loop's stability edge near r = 2
    k_d: float = 8000.0
    dt: float = 1e-3
    settle: float = 1.0
    duration: Optional[float] = None       # None: reference duration + settle
    safe_set: SafeSetSpec = field(init=False, repr=False, compare=False)
    path: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, value in (("dt", self.dt), ("speed", self.speed), ("settle", self.settle),
                           ("duration", self.duration), ("controller.k_d", self.k_d)):
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
        if not 0.0 <= self.kp_gain < math.inf:
            raise ValueError(f"kp_gain must be finite and non-negative, got {self.kp_gain!r}")
        # plain floats, named by their config keys: the run starts from them
        self.initial_q = JointConfig._make(map(float, self.initial_q))
        for (name, (low, high)), v in zip(JOINT_BOX.items(), self.initial_q):
            if not low <= v <= high:    # nan too
                raise ValueError(f"initial.{name} = {v!r} outside the workspace box "
                                 f"[{low:g}, {high:g}]")
        self.initial_qdot = tuple(map(float, self.initial_qdot))
        if len(self.initial_qdot) != 3 or not all(map(math.isfinite, self.initial_qdot)):
            raise ValueError(f"initial.qdot must be 3 finite values, got {self.initial_qdot!r}")
        self.safe_set = SafeSetSpec(self.tumors, self.shells)
        tip, _ = tip_kinematics(*self.initial_q, self.kinematics)
        self.path = reference_waypoints(self.markings, tip)
        self.validate()

    @property
    def kinematics(self) -> KinematicParams:
        """The link lengths, held once on dynamics."""
        return self.dynamics.kinematics

    def run_duration(self) -> float:
        """duration, or the path's time at speed rounded up to the dt grid, plus settle."""
        if self.duration is not None:
            return self.duration
        return reference_steps(float(self.path[1][-1]), self.speed, self.dt) * self.dt + self.settle

    def validate(self):
        """Checks across parts of the scenario; raises ValueError.  Each length, coordinate and
        initial joint was bounded where built (WORKSPACE_MM, JOINT_BOX), so the path is finite."""
        if not self.markings:
            raise ValueError("a scenario needs at least one marking set")
        waypoints, arcs = self.path
        placed = ("the initial tip placed by initial.d1, initial.theta2, initial.theta3, "
                  "kinematics.l1, kinematics.l2, kinematics.l_end")
        if not (np.linalg.norm(np.diff(waypoints, axis=0), axis=1) >= _MIN_SEGMENT).any():
            raise ValueError(f"markings: the reference path from the initial tip through the "
                             f"marking points has no segment of {_MIN_SEGMENT:g} mm or longer")
        # the reference's step count first: run_duration rounds it up to an int
        steps = float(arcs[-1]) / self.speed / self.dt
        steps = self.run_duration() / self.dt if math.isfinite(steps) else steps
        columns = _LOG_COLUMNS + len(self.safe_set.names)
        if not (steps + 1.0) * columns * 8.0 <= np.iinfo(np.intp).max:    # inf steps too
            end = "settle" if self.duration is None else "duration"
            raise ValueError(f"dt = {self.dt!r}, speed = {self.speed!r}, {end} = "
                             f"{getattr(self, end)!r}: {steps + 1.0:.3g} steps x {columns} "
                             "float64 log columns are more than one array can address")
        safe_set, nt = self.safe_set, len(self.tumors)
        h, _ = selected_barrier_values(waypoints[0], safe_set, False)    # at the initial tip
        for i, hi in enumerate(h[:nt]):
            if hi < 0.0:
                raise ValueError(f"tumor.{i}: keep-out sphere holds {placed}")
        # a shell's h is its radius less the tip's distance from its centre
        for j, ((_, _, _, r, _), hj) in enumerate(zip(safe_set.barriers[nt:], h[nt:])):
            if r - hj < CENTRE_TOL:
                raise ValueError(f"shell.{j}: centre is within {CENTRE_TOL:g} mm of {placed}")
        if not self.tumors:
            return
        for i, ms in enumerate(self.markings):
            if not 0 <= ms.tumor_index < nt:
                raise ValueError(f"marking.{i}.tumor = {ms.tumor_index} names no tumor")
            for k, (p, bad) in enumerate(zip(ms.points, ms.unsafe)):
                h = selected_barrier_values(p, safe_set, False)[0][:nt]
                if bad:
                    if min(h) >= 0.0:
                        raise ValueError(f"marking.{i} point {k} is flagged unsafe but "
                                         "intrudes no keep-out sphere")
                elif abs(h[ms.tumor_index]) > 1e-9:
                    raise ValueError(f"marking.{i} point {k} is flagged safe but lies off the "
                                     f"cutting margin of tumor.{ms.tumor_index}")


def scenario_catalog(scenario_id: int) -> ScenarioSpec:
    """One of the four built-in scenarios; raises ValueError for other ids."""
    if scenario_id not in _CATALOG:
        raise ValueError(f"unknown scenario id {scenario_id}; valid: {SCENARIO_IDS}")
    tumor_args, shell_args, intrusions, filter_args, d1 = _CATALOG[scenario_id]
    tumors = [TumorSpec(*args) for args in tumor_args]
    loop = generate_marking_points(tumors[0], _MARKING_COUNT, _MARKING_PLANE)
    return ScenarioSpec(
        scenario_id=scenario_id,
        tumors=tumors,
        shells=[DepthShell(*args) for args in shell_args],
        markings=[inject_unsafe_points(loop, [(i, tumors[j], _UNSAFE_DEPTH)
                                              for i, j in intrusions])],
        filter=FilterParams(**filter_args),
        dynamics=DynamicParams(gravity=(0.0, 0.0, 0.0)),
        initial_q=JointConfig(d1, 0.0, 0.0),
    )


# ---------------------------------------------------------------------------
# plain-text configuration files
#
# One "key = value" pair per line, '#' starts a comment.  Vectors are comma
# separated, marking points semicolon separated.  Loading starts from the
# catalog scenario named by scenario_id and overrides field by field.
# The tables below are the whole schema: spec_to_dict and spec_from_dict
# both read them, so a new key is one table row.

_CONFIG_HEADER = "# safecut scenario config v1"


def _fmt_vec(v) -> str:
    return ", ".join(repr(float(x)) for x in v)


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")])


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# kind -> (format, parse)
_KINDS = {
    "int": (str, int),
    "float": (lambda v: repr(float(v)), float),
    "auto": (lambda v: "auto" if v is None else repr(float(v)),
             lambda text: None if text == "auto" else float(text)),
    "bool": (lambda v: "true" if v else "false", _parse_bool),
    "str": (str, str),
    "vec": (_fmt_vec, _parse_vec),
    "points": (lambda pts: "; ".join(_fmt_vec(p) for p in pts),
               lambda text: np.array([_parse_vec(p) for p in text.split(";")])),
    "flags": (lambda flags: ", ".join("1" if u else "0" for u in flags),
              lambda text: np.array([int(u) for u in text.split(",")])),
}

# config key -> (attribute path on ScenarioSpec, kind), in file order
_SCALAR_KEYS = {
    "scenario_id": ("scenario_id", "int"),
    "dt": ("dt", "float"),
    "speed": ("speed", "float"),
    "kp_gain": ("kp_gain", "float"),
    "settle": ("settle", "float"),
    "duration": ("duration", "auto"),
    "initial.d1": ("initial_q.d1", "float"),
    "initial.theta2": ("initial_q.theta2", "float"),
    "initial.theta3": ("initial_q.theta3", "float"),
    "initial.qdot": ("initial_qdot", "vec"),
    "kinematics.l1": ("dynamics.kinematics.l1", "float"),
    "kinematics.l2": ("dynamics.kinematics.l2", "float"),
    "kinematics.l_end": ("dynamics.kinematics.l_end", "float"),
    "dynamics.masses": ("dynamics.masses", "vec"),
    "dynamics.link_inertias": ("dynamics.link_inertias", "vec"),
    "dynamics.gravity": ("dynamics.gravity", "vec"),
    "filter.alpha": ("filter.alpha", "float"),
    "filter.activation_gate": ("filter.activation_gate", "bool"),
    "filter.enabled": ("filter.enabled", "bool"),
    "controller.k_d": ("k_d", "float"),
    "disturbance.waveform": ("disturbance.waveform", "str"),
    "disturbance.amplitude": ("disturbance.amplitude", "vec"),
    "disturbance.frequency": ("disturbance.frequency", "float"),
    "disturbance.seed": ("disturbance.seed", "int"),
}

# the config group and class of each nested attribute path above, innermost first
_NESTED = (("initial_q", "initial", JointConfig),
           ("dynamics.kinematics", "kinematics", KinematicParams),
           ("dynamics", "dynamics", DynamicParams), ("filter", "filter", FilterParams),
           ("disturbance", "disturbance", DisturbanceSpec))

# indexed families "<prefix>.<N>.<key>":
# prefix -> (ScenarioSpec list, class, {key: (constructor argument, kind)})
_FAMILIES = {
    "tumor": ("tumors", TumorSpec, {"center": ("center", "vec"),
                                    "margin": ("margin", "float")}),
    "shell": ("shells", DepthShell, {"center": ("center", "vec"),
                                     "outer_radius": ("outer_radius", "float")}),
    "marking": ("markings", MarkingSet, {"tumor": ("tumor_index", "int"),
                                         "points": ("points", "points"),
                                         "unsafe": ("unsafe", "flags")}),
}


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """Flat key/value view of a scenario, the config-file content."""
    d = {key: _KINDS[kind][0](attrgetter(path)(spec))
         for key, (path, kind) in _SCALAR_KEYS.items()}
    for prefix, (attr, _, keys) in _FAMILIES.items():
        for i, item in enumerate(getattr(spec, attr)):
            for key, (arg, kind) in keys.items():
                d[f"{prefix}.{i}.{key}"] = _KINDS[kind][0](getattr(item, arg))
    return d


def _named(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError prefixed with the config name it checks."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse(d: dict, key: str, kind: str):
    if key not in d:
        raise ValueError(f"missing configuration key {key!r}")
    return _named(key, _KINDS[kind][1], d[key])


def spec_from_dict(d: dict) -> ScenarioSpec:
    """Inverse of spec_to_dict; raises ValueError naming the offending key."""
    indices = {prefix: set() for prefix in _FAMILIES}
    for key in d:
        prefix, _, rest = key.partition(".")
        index, _, attr = rest.partition(".")
        # canonical indices only, else "tumor.01.x" and "tumor.1.x" give one field two values
        if (prefix in _FAMILIES and attr in _FAMILIES[prefix][2]
                and index.isdecimal() and str(int(index)) == index):
            indices[prefix].add(int(index))
        elif key not in _SCALAR_KEYS:
            raise ValueError(f"unknown configuration key {key!r}")

    args = {path: _parse(d, key, kind) for key, (path, kind) in _SCALAR_KEYS.items()}
    for path, group, cls in _NESTED:
        members = [p for p in args if p.rpartition(".")[0] == path]
        args[path] = _named(group, cls, **{p.rpartition(".")[2]: args.pop(p) for p in members})
    for prefix, (attr, cls, keys) in _FAMILIES.items():
        found = sorted(indices[prefix])
        if found != list(range(len(found))):
            raise ValueError(f"{prefix} indices must be contiguous from 0, got {found}")
        args[attr] = [_named(f"{prefix}.{i}", cls, **{arg: _parse(d, f"{prefix}.{i}.{key}", kind)
                                                      for key, (arg, kind) in keys.items()})
                      for i in found]
    return ScenarioSpec(**args)


def scenario_to_config(spec: ScenarioSpec) -> str:
    lines = [_CONFIG_HEADER]
    lines.extend(f"{key} = {value}" for key, value in spec_to_dict(spec).items())
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict:
    """Key/value pairs from config text; no defaults are applied here.

    A key set twice is refused, rather than letting one value silently win.
    """
    pairs, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ValueError(f"line {lineno}: {key!r} is set again, "
                             f"first set on line {first_line[key]}")
        pairs[key], first_line[key] = value.strip(), lineno
    return pairs


def load_scenario(text: str, base_id: Optional[int] = None) -> ScenarioSpec:
    """Scenario from config text, overriding catalog defaults field by field.

    The base scenario comes from the file's scenario_id key, or base_id when
    the file does not name one.
    """
    overrides = parse_config(text)
    sid = _parse(overrides, "scenario_id", "int") if "scenario_id" in overrides else base_id
    if sid is None:
        raise ValueError("config names no scenario_id and no base scenario given")
    return spec_from_dict({**spec_to_dict(scenario_catalog(sid)), **overrides,
                           "scenario_id": str(sid)})
