"""Scenario catalog: tumors, marking points, reference paths, configuration.

A scenario bundles everything one closed-loop run needs.  Marking points sit
on the cutting margin of a tumor; an erroneous marking is modelled by pushing
a point radially inside a keep-out sphere, and a point is unsafe exactly when
it lies inside one.  The reference trajectory interpolates the marking
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
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

import numpy as np

from .control import DisturbanceSpec
from .dynamics import DynamicParams
from .kinematics import JointConfig, tip_kinematics
from .safety import (CENTRE_TOL, DepthShell, FilterParams, SafeSetSpec, TumorSpec,
                     _finite_point, selected_barrier_values)

_UNSAFE_DEPTH = 1.5          # mm inside the keep-out sphere
_MARKING_COUNT = 8
_MARKING_PLANE = (0.0, 0.0, 1.0)
_MIN_SEGMENT = 1e-12         # mm: a shorter reference segment has no direction
_ON_MARGIN = 1e-9            # mm: a marking within this of a margin lies on it

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


@dataclass(frozen=True, eq=False)
class MarkingSet:
    """Marking points of one cutting loop.

    points: (m, 3) positions [mm], kept as a read-only copy; tumor_index: which tumor of the
    scenario the loop belongs to.  unsafe, a read-only boolean per point, is derived from the
    geometry: the ScenarioSpec that holds the loop sets it in validate(); None before.
    """

    points: np.ndarray
    tumor_index: int = 0
    unsafe: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) == 0:
            raise ValueError("marking points must be one or more rows of 3 coordinates, "
                             f"got shape {self.points.shape}")
        for k, p in enumerate(self.points):
            _finite_point(p, f"point {k}")


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
    return MarkingSet(pts)


def inject_unsafe_points(ms: MarkingSet, intrusions: list) -> MarkingSet:
    """Copy of ms with selected points pushed inside a keep-out sphere.

    intrusions: (index, target_tumor, depth) tuples.  Each listed point is
    moved radially toward the target centre until its barrier value there
    equals -depth, which makes it unsafe.  depth must lie strictly inside the
    target margin.
    """
    pts = ms.points.copy()
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
    return MarkingSet(pts, ms.tumor_index)


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


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Complete description of one closed-loop run.

    initial_q is the joint position at t = 0 (config keys initial.d1, initial.theta2,
    initial.theta3); the run starts there at rest.
    Construction, dataclasses.replace included, keeps tumors, shells and copies of the
    marking loops as tuples, builds the barrier table safe_set and the read-only reference
    path (waypoints, arcs) from the initial tip, then runs validate(), which also sets
    steps, the run's log rows, and each copied loop's unsafe flags.
    A spec is a value: it and every record it holds are frozen and their arrays read-only,
    since a write would skip the checks and leave safe_set, path, steps and the flags stale.
    dataclasses.replace, which checks again, is the way to derive a changed spec.
    A spec and its geometry compare by identity (eq=False), as numpy arrays have no
    single truth value; spec_to_dict(a) == spec_to_dict(b) compares their content.
    """

    scenario_id: int
    tumors: tuple
    shells: tuple
    markings: tuple
    filter: FilterParams
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    dynamics: DynamicParams = field(default_factory=DynamicParams)
    initial_q: JointConfig = JointConfig(0.0, 0.0, 0.0)
    speed: float = 2.0
    # config key controller.k_d, the gain of u = -k_d edot.  At dt = 1e-3 s catalog 1-3
    # reach r = dt k_d / lambda_min(M) = 1.941 and catalog 4 reaches 1.929, just inside the
    # sampled loop's stability edge near r = 2
    k_d: float = 8000.0
    dt: float = 1e-3
    settle: float = 1.0
    duration: Optional[float] = None       # None: reference duration + settle
    safe_set: SafeSetSpec = field(init=False, repr=False)
    path: tuple = field(init=False, repr=False)
    steps: int = field(init=False, repr=False)

    def __post_init__(self):
        for key, value in (("dt", self.dt), ("speed", self.speed), ("settle", self.settle),
                           ("duration", self.duration), ("controller.k_d", self.k_d)):
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
        # plain floats, named by their config keys: the run starts from them
        object.__setattr__(self, "initial_q", JointConfig._make(map(float, self.initial_q)))
        for (name, (low, high)), v in zip(JOINT_BOX.items(), self.initial_q):
            if not low <= v <= high:    # nan too
                raise ValueError(f"initial.{name} = {v!r} outside the workspace box "
                                 f"[{low:g}, {high:g}]")
        for name in ("tumors", "shells"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "safe_set", SafeSetSpec(self.tumors, self.shells))
        # own copies: validate writes their unsafe flags, and others may hold the loops given
        object.__setattr__(self, "markings", tuple(replace(ms) for ms in self.markings))
        tip, _ = tip_kinematics(*self.initial_q)
        waypoints, arcs = reference_waypoints(self.markings, tip)
        waypoints.flags.writeable = arcs.flags.writeable = False
        object.__setattr__(self, "path", (waypoints, arcs))
        self.validate()

    def validate(self):
        """Checks across parts of the scenario; raises ValueError.  Each length, coordinate and
        initial joint was bounded where built (WORKSPACE_MM, JOINT_BOX), so the path is finite."""
        from .sim import _csv_columns     # the log's layout; sim imports this module
        if not self.markings:
            raise ValueError("a scenario needs at least one marking set")
        waypoints, arcs = self.path
        placed = "the initial tip placed by initial.d1, initial.theta2, initial.theta3"
        if not (np.linalg.norm(np.diff(waypoints, axis=0), axis=1) >= _MIN_SEGMENT).any():
            raise ValueError(f"markings: the reference path from the initial tip through the "
                             f"marking points has no segment of {_MIN_SEGMENT:g} mm or longer")
        # the run's log rows: duration, or the reference's steps times dt plus settle, over dt,
        # and t = 0; the reference's count is checked first, since reference_steps rounds it up
        steps = float(arcs[-1]) / self.speed / self.dt
        if math.isfinite(steps):
            steps = (self.duration if self.duration is not None else
                     reference_steps(float(arcs[-1]), self.speed, self.dt) * self.dt
                     + self.settle) / self.dt
        columns = len(_csv_columns(self.safe_set.names))
        if not (steps + 1.0) * columns * 8.0 <= np.iinfo(np.intp).max:    # inf steps too
            end = "settle" if self.duration is None else "duration"
            raise ValueError(f"dt = {self.dt!r}, speed = {self.speed!r}, {end} = "
                             f"{getattr(self, end)!r}: {steps + 1.0:.3g} steps x {columns} "
                             "float64 log columns are more than one array can address")
        object.__setattr__(self, "steps", round(steps) + 1)
        # control.disturbance's phase at the run's last logged t: finite there, finite before
        dist, t = self.disturbance, (self.steps - 1) * self.dt
        if dist.waveform == "sinusoid" and not math.isfinite(2.0 * math.pi * dist.frequency * t):
            raise ValueError(f"disturbance.frequency = {dist.frequency!r}: the sinusoid's phase "
                             f"2 pi frequency t is not finite at the run's last t = {t!r} s")
        safe_set, nt = self.safe_set, len(self.tumors)
        h, _ = selected_barrier_values(waypoints[0], safe_set, False)    # at the initial tip
        for i, hi in enumerate(h[:nt]):
            if hi < 0.0:
                raise ValueError(f"tumor.{i}: keep-out sphere holds {placed}")
        # a shell's h is its radius less the tip's distance from its centre
        for j, ((_, _, _, r, _), hj) in enumerate(zip(safe_set.barriers[nt:], h[nt:])):
            if r - hj < CENTRE_TOL:
                raise ValueError(f"shell.{j}: centre is within {CENTRE_TOL:g} mm of {placed}")
        # a point is unsafe where it intrudes some keep-out sphere; a safe one lies on its
        # own tumor's cutting margin.  With no tumor every point is safe
        for i, ms in enumerate(self.markings):
            if nt and not 0 <= ms.tumor_index < nt:
                raise ValueError(f"marking.{i}.tumor = {ms.tumor_index} names no tumor")
            unsafe = np.zeros(len(ms.points), dtype=bool)
            for k, p in enumerate(ms.points if nt else ()):
                h = selected_barrier_values(p, safe_set, False)[0][:nt]
                unsafe[k] = min(h) < -_ON_MARGIN
                if not unsafe[k] and abs(h[ms.tumor_index]) > _ON_MARGIN:
                    raise ValueError(f"marking.{i} point {k} intrudes no keep-out sphere and lies "
                                     f"off the cutting margin of tumor.{ms.tumor_index}")
            unsafe.flags.writeable = False
            object.__setattr__(ms, "unsafe", unsafe)


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
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


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
}

# config key -> (attribute path on ScenarioSpec, kind), in file order
_SCALAR_KEYS = {
    "scenario_id": ("scenario_id", "int"),
    "dt": ("dt", "float"),
    "speed": ("speed", "float"),
    "settle": ("settle", "float"),
    "duration": ("duration", "auto"),
    "initial.d1": ("initial_q.d1", "float"),
    "initial.theta2": ("initial_q.theta2", "float"),
    "initial.theta3": ("initial_q.theta3", "float"),
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

# the config group and class of each nested attribute path above
_NESTED = (("initial_q", "initial", JointConfig), ("dynamics", "dynamics", DynamicParams),
           ("filter", "filter", FilterParams), ("disturbance", "disturbance", DisturbanceSpec))

# indexed families "<prefix>.<N>.<key>":
# prefix -> (ScenarioSpec list, class, {key: (constructor argument, kind)})
_FAMILIES = {
    "tumor": ("tumors", TumorSpec, {"center": ("center", "vec"),
                                    "margin": ("margin", "float")}),
    "shell": ("shells", DepthShell, {"center": ("center", "vec"),
                                     "outer_radius": ("outer_radius", "float")}),
    "marking": ("markings", MarkingSet, {"tumor": ("tumor_index", "int"),
                                         "points": ("points", "points")}),
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


def load_scenario(text: str) -> ScenarioSpec:
    """Scenario from config text: the catalog scenario the file's scenario_id names,
    overridden field by field by the file's other keys."""
    overrides = parse_config(text)
    base = _named("scenario_id", scenario_catalog, _parse(overrides, "scenario_id", "int"))
    return spec_from_dict({**spec_to_dict(base), **overrides})
