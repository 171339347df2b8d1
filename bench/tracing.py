"""Span tracer for the benchmark's per-layer run.

The tracer replaces public safecut functions with timing wrappers at every
module attribute through which the program looks them up (for example
``safecut.sim.rk4_step`` and ``safecut.checks.rk4_step`` both wrap
``dynamics.rk4_step``).  A wrapped call is a span: it has a layer name, a
parent span and a duration.  Spans are aggregated in memory as they close,
per layer (calls, inclusive time, self time, exceptions) and per
(parent layer, layer) edge, so a long run keeps a fixed footprint.

Self time is a span's duration minus the time of the wrapped spans inside
it.  Time a layer spends in code that is not wrapped therefore stays with
that layer: the loop and log writes of ``sim.run`` show up as its self time.
"""

from __future__ import annotations

import time

TOP = "<top>"        # parent of spans that no wrapped call encloses
_NO_CALLS = (0, 0.0, 0.0, 0)

# (layer name, safecut module that defines it, attribute path in that module)
LAYERS = (
    ("scenario.reference", "scenario", "ScenarioSpec.reference"),
    ("scenario.load_scenario", "scenario", "load_scenario"),
    ("sim.run", "sim", "run"),
    ("sim.desired_velocity", "sim", "desired_velocity"),
    ("sim.summarize", "sim", "summarize"),
    ("sim.export_csv", "sim", "export_csv"),
    ("sim.read_csv", "sim", "read_csv"),
    ("sim.export_plot_data", "sim", "export_plot_data"),
    ("safety.selected_barrier_values", "safety", "selected_barrier_values"),
    ("safety.barrier_value", "safety", "barrier_value"),
    ("safety.depth_barrier_value", "safety", "depth_barrier_value"),
    ("safety.safety_filter", "safety", "safety_filter"),
    ("safety.count_active_rows", "safety", "count_active_rows"),
    ("control.velocity_error", "control", "velocity_error"),
    ("control.control_law", "control", "control_law"),
    ("control.disturbance", "control", "disturbance"),
    ("kinematics.forward_kinematics", "kinematics", "forward_kinematics"),
    ("kinematics.jacobian", "kinematics", "jacobian"),
    ("kinematics.damped_pseudo_inverse", "kinematics", "damped_pseudo_inverse"),
    ("dynamics.rk4_step", "dynamics", "rk4_step"),
    ("checks.qp_reference", "checks", "qp_reference"),
    ("checks.random_qp_instance", "checks", "random_qp_instance"),
    ("cli.main", "cli", "main"),
)


class Tracer:
    """Aggregating span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.stats = {}      # layer -> [calls, inclusive s, self s, exceptions]
        self.edges = {}      # (parent layer, layer) -> calls
        self.hook_s = 0.0    # time spent in post hooks, charged to no layer
        self.missing = []    # layers whose function no longer exists
        self._names = [TOP]
        self._inner = [0.0]  # wrapped time inside each open span
        self._installed = []

    def wrap(self, layer, fn, post=None):
        """fn wrapped as a span of layer; post(args, result) runs untimed."""
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0, 0])
        names, inner, edges, clock = self._names, self._inner, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            edge = (names[-1], layer)
            names.append(layer)
            inner.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                elapsed = clock() - t0
                names.pop()
                child = inner.pop()
                inner[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                edges[edge] = edges.get(edge, 0) + 1
            if post is not None:
                t1 = clock()
                post(args, result)
                spent = clock() - t1
                # keep the hook out of the caller's self time
                inner[-1] += spent
                self.hook_s += spent
            return result

        return traced

    def install(self, modules, posts=None):
        """Wrap every LAYERS function wherever a safecut module binds it.

        modules maps the short module names of LAYERS to imported modules.
        A layer whose function is gone is recorded in missing, not raised.
        """
        posts = posts or {}
        for layer, home, path in LAYERS:
            owner = modules[home]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if layer not in self.missing:
                    self.missing.append(layer)
                continue
            self.stats.setdefault(layer, [0, 0.0, 0.0, 0])
            sites = [owner] if outer else list(modules.values())
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, name, self.wrap(layer, original, posts.get(layer)))
                        self._installed.append((site, name, original))

    def uninstall(self):
        while self._installed:
            site, name, original = self._installed.pop()
            setattr(site, name, original)

    def calls(self, layer):
        return self.stats.get(layer, _NO_CALLS)[0]

    def inclusive_s(self, layer):
        return self.stats.get(layer, _NO_CALLS)[1]

    def self_s(self, layer):
        return self.stats.get(layer, _NO_CALLS)[2]

    def errors(self, layer):
        return self.stats.get(layer, _NO_CALLS)[3]

    def total_self_s(self):
        return sum(s[2] for s in self.stats.values())

    def uncalled(self):
        return sorted(layer for layer, s in self.stats.items() if s[0] == 0)

    def edge_list(self):
        return sorted([p, c, n] for (p, c), n in self.edges.items())
