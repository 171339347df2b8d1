"""Command-line behaviour: outputs, overrides, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import safecut
from safecut import scenario
from safecut.cli import main
from safecut.control import DisturbanceSpec, disturbance
from safecut.safety import SafeSetSpec
from safecut.scenario import load_scenario, scenario_catalog, scenario_to_config
from safecut.sim import (export_csv, export_plot_data, gate_engage_time, read_csv, run,
                         summarize)

SHORT_CONFIG = "scenario_id = 1\nduration = 2.0\nspeed = 4.0\n"


def test_run_default_emit_writes_three_files(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["scenario1_barrier.dat", "scenario1_path.dat",
                     "scenario1_velocity.dat"]


def test_run_emit_csv_and_report(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--emit", "csv,report"])
    assert code == 0
    assert (out / "scenario1_log.csv").exists()
    captured = capsys.readouterr().out
    assert "scenario 1" in captured
    assert "min barrier tumor0" in captured
    assert "first violation" in captured


def test_run_alpha_sweep_directories(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_CONFIG)
    out = tmp_path / "sweep"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--alpha", "0.2,0.8", "--emit", "csv"])
    assert code == 0
    dirs = sorted(p.name for p in out.iterdir())
    assert dirs == ["alpha_0.2", "alpha_0.8", "unfiltered"]
    for d in dirs:
        assert (out / d / "scenario1_log.csv").exists()


def test_run_no_filter_baseline(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_CONFIG + "filter.enabled = false\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--emit", "csv"])
    assert code == 0
    log = read_csv(out / "scenario1_log.csv")
    assert not log.gate.any() and np.array_equal(log.xdot_safe, log.xdot_des)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["run"]) == 2
    assert main(["run", "--scenario", "1", "--alpha", "0.2,nope"]) == 2
    assert main(["run", "--scenario", "1", "--alpha", "-0.4"]) == 2
    assert main(["run", "--scenario", "1", "--emit", "json"]) == 2
    capsys.readouterr()
    for alphas in ("", "0.4,0.4"):   # no gain; two gains into one alpha_0.4/
        assert main(["run", "--scenario", "1", "--alpha", alphas,
                     "--out", str(tmp_path / "sweep")]) == 2
        assert "--alpha" in capsys.readouterr().err
    # two distinct gains whose directory names collide
    assert main(["run", "--scenario", "1", "--alpha", "0.1234567,0.1234568",
                 "--out", str(tmp_path / "sweep")]) == 2
    assert ("--alpha gains 0.1234567 and 0.1234568 both map to the one alpha_0.123457/ "
            "directory") in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    (tmp_path / "file").write_text("")
    for sweep in ([], ["--alpha", "0.4"]):   # an --out that names a file, refused before a run
        assert main(["run", "--scenario", "1", *sweep, "--out", str(tmp_path / "file")]) == 2
        assert "--out: cannot make" in capsys.readouterr().err
    assert main(["verify", "--qp-instances", "0"]) == 2
    assert main(["verify", "--qp-instances", "-5"]) == 2
    capsys.readouterr()
    assert main(["verify", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_bad_config_content_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario_id = 1\nfilter.alpha = -3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text("filter.alpha = 0.4\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # a --scenario that disagrees with the file's scenario_id: neither silently wins
    cfg.write_text(SHORT_CONFIG)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--scenario", "3", "--out", str(tmp_path / "o")]) == 2
    assert "scenario_id = 1 in the config disagrees with base scenario 3" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--scenario", "1", "--out", str(tmp_path / "o")]) == 0


def test_argparse_rejects_unknown_scenario():
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "9"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", [["--disturbance", "constant:200,200,200"], ["--no-filter"]])
def test_argparse_rejects_retired_flags(capsys, flag):
    # the disturbance and the filter switch are config keys, parsed in one place
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "1", *flag])
    assert err.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_disturbance_override_reaches_run(tmp_path):
    sinusoid = ("disturbance.waveform = sinusoid\ndisturbance.frequency = 2.5\n"
                "disturbance.amplitude = 40, -30, 20\n")
    expected = {
        "disturbance.waveform = constant\ndisturbance.amplitude = 50, 50, 50\n":
            DisturbanceSpec("constant", (50.0, 50.0, 50.0)),
        "disturbance.waveform = none\n": DisturbanceSpec(),
        sinusoid: DisturbanceSpec("sinusoid", (40.0, -30.0, 20.0), 2.5),
        sinusoid + "disturbance.seed = 7\n":
            DisturbanceSpec("sinusoid", (40.0, -30.0, 20.0), 2.5, 7),
    }
    logs = []
    for i, (keys, spec) in enumerate(expected.items()):
        cfg = tmp_path / f"disturbed{i}.cfg"
        cfg.write_text(SHORT_CONFIG + keys)
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--emit", "csv"]) == 0
        logs.append(log := read_csv(out / "scenario1_log.csv"))
        assert log.d.tolist() == [list(disturbance(t, spec)) for t in log.t.tolist()], keys
    assert np.all(logs[0].d == 50.0)
    assert np.all(logs[1].d == 0.0)


def test_report_prints_gate_engage_time(tmp_path, capsys):
    # scenario 4 gates the filter on the depth shell; the report line is the
    # engagement time of the run's own log
    cfg = tmp_path / "short4.cfg"
    cfg.write_text("scenario_id = 4\nduration = 2.0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--emit", "csv,report"]) == 0
    tg = gate_engage_time(read_csv(out / "scenario4_log.csv"))
    assert tg is not None
    assert f"  gate engaged [s]:            {tg:.3f}\n" in capsys.readouterr().out


def test_gate_that_never_engages_is_no_breach(tmp_path, capsys):
    # 0.5 s ends before scenario 4's tip enters the depth shell
    cfg = tmp_path / "gated.cfg"
    cfg.write_text("scenario_id = 4\nduration = 0.5\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--emit", "report"]) == 0
    report = capsys.readouterr().out
    assert "  gate engaged [s]:            never\n" in report
    assert "  first violation [s]:         none\n" in report


def test_violation_exit_code(tmp_path):
    # a filtered run driven hard enough to dent the margin returns 1
    cfg = tmp_path / "viol.cfg"
    cfg.write_text("scenario_id = 1\ndisturbance.waveform = constant\n"
                   "disturbance.amplitude = 200, 200, 200\n")
    code = main(["run", "--config", str(cfg), "--emit", "csv", "--out", str(tmp_path / "viol")])
    assert code == 1


# tumor 1 sits on scenario 4's approach, which its activation gate leaves
# unfiltered: the tip passes 0.498 mm deep into the keep-out sphere
APPROACH_BREACH_CONFIG = "scenario_id = 4\ntumor.1.center = 0.8, 1.2, 35.36\ntumor.1.margin = 0.5\n"
APPROACH_BREACH_LINE = "  min barrier tumor1 [mm]:      -0.498329\n"


def test_breach_before_the_gate_engages_is_reported(tmp_path, capsys):
    cfg = tmp_path / "approach.cfg"
    cfg.write_text(APPROACH_BREACH_CONFIG)
    assert main(["run", "--config", str(cfg), "--emit", "report",
                 "--out", str(tmp_path / "o")]) == 1
    report = capsys.readouterr().out
    assert APPROACH_BREACH_LINE in report
    assert "  first violation [s]:         0.734\n" in report


# catalog 3 with tumor 1 moved up to touch tumor 0's keep-out sphere (gap 0 mm) and
# marking 6 put back on tumor 0's margin: the paper's close-proximity regime
GAP0_CONFIG = (
    "scenario_id = 3\ntumor.1.center = 0.0, -2.0, 30.0\n"
    "marking.0.points = 4.0, 6.0, 30.0; 2.8284271247461903, 8.82842712474619, 30.0; "
    "1.5308084989341916e-16, 8.5, 30.0; -2.82842712474619, 8.82842712474619, 30.0; "
    "-2.5, 6.000000000000001, 30.0; -2.8284271247461907, 3.17157287525381, 30.0; "
    "0.0, 2.0, 30.0; 2.8284271247461894, 3.1715728752538093, 30.0\n")


def test_close_proximity_crease_stays_safe(tmp_path, capsys):
    # where the two keep-out spheres meet, a quarter of the steps bind both rows at once
    cfg = tmp_path / "gap0.cfg"
    cfg.write_text(GAP0_CONFIG)
    assert main(["run", "--config", str(cfg), "--emit", "csv,report",
                 "--out", str(tmp_path / "o")]) == 0
    log = read_csv(tmp_path / "o" / "scenario3_log.csv")
    assert len(log.data) == 20252
    assert np.count_nonzero(log.active_rows == 2) == 5024
    report = capsys.readouterr().out
    assert "  min barrier tumor0 [mm]:       0.076435\n" in report
    assert "  min barrier tumor1 [mm]:       0.959196\n" in report


def test_verify_quick_pass(capsys):
    assert main(["verify", "--qp-instances", "200"]) == 0
    captured = capsys.readouterr().out
    assert "qp-oracle: PASS" in captured
    assert "8/8 suites passed" in captured


# a marking point far outside the workspace bound: refused where its marking is built
FAR_POINT_ERROR = ("scenario_id = 1\nmarking.0.points = 0, 6, 30; 1e308, 0, 0\n",
                   "marking.0: point 1 must be 3 finite coordinates, each at most 1e+06 mm, "
                   "got [1e+308, 0.0, 0.0]")

CONFIG_ERRORS = [
    ("scenario_id = 1\ntumor.1.margin = 3.0\n", "tumor.1.center"),
    ("scenario_id = 1\nmarking.0.tumor = 5\n", "marking.0.tumor"),
    ("scenario_id = 1\ntumor.0.margn = 3.0\n", "tumor.0.margn"),
    ("scenario_id = 4\nshell.0.radius = 9\n", "shell.0.radius"),
    # retired keys: refused, never silently reinterpreted
    ("scenario_id = 4\nfilter.mode = keep_out_and_depth\n",
     "unknown configuration key 'filter.mode'"),
    ("scenario_id = 1\nkinematics.outer_diameter = 3.7\n",
     "unknown configuration key 'kinematics.outer_diameter'"),
    ("scenario_id = 2\ntumor.0.removable = true\n",
     "unknown configuration key 'tumor.0.removable'"),
    ("scenario_id = 1\ncontroller.damping = 0.002\n",
     "unknown configuration key 'controller.damping'"),
    ("scenario_id = 1\nkp_gain = 5.0\n", "unknown configuration key 'kp_gain'"),
    ("scenario_id = 1\ninitial.qdot = 0, 0, 0\n", "unknown configuration key 'initial.qdot'"),
    # the link lengths are constants of the instrument, even at their own values
    ("scenario_id = 1\nkinematics.l1 = 3.0\n", "unknown configuration key 'kinematics.l1'"),
    ("scenario_id = 1\nkinematics.l2 = 10.0\n", "unknown configuration key 'kinematics.l2'"),
    ("scenario_id = 1\nkinematics.l_end = 17.0\n", "unknown configuration key 'kinematics.l_end'"),
    ("scenario_id = 1\nfilter.mode = foo\n", "filter.mode"),
    ("scenario_id = 1\ntumor.x.margin = 3.0\n", "tumor.x.margin"),
    ("scenario_id = 2\ntumor.01.margin = 3.0\n", "tumor.01.margin"),
    ("scenario_id = 1\ntumor.0.margin = wide\n", "tumor.0.margin"),
    ("scenario_id = 1\ninitial.theta2 = nan\n", "initial.theta2"),
    ("scenario_id = 1\ninitial.d1 = -1\n", "initial.d1 = -1.0 outside the workspace box [0, 50]"),
    ("scenario_id = 1\ninitial.theta2 = 1.8\n", "initial.theta2 = 1.8 outside the workspace box"),
    ("scenario_id = 1\ninitial.theta3 = -1.8\n", "initial.theta3 = -1.8 outside the workspace box"),
    ("scenario_id = 1\ndisturbance.seed = -1\n", "disturbance: seed must be a non-negative"),
    ("scenario_id = 1\ndisturbance.waveform = ramp\n", "disturbance: unknown waveform 'ramp'"),
    ("scenario_id = 1\ndisturbance.amplitude = 1, x, 3\n", "disturbance.amplitude: "),
    # an indexed entry's own check names the entry
    ("scenario_id = 1\ntumor.0.margin = -1\n", "tumor.0: cutting margin must be positive"),
    ("scenario_id = 1\ntumor.0.center = 1, 2\n", "tumor.0: tumor centre must be 3 finite"),
    ("scenario_id = 1\ntumor.0.center = 0, 0, 43\n", "tumor.0: keep-out sphere holds the "
     "initial tip placed by initial.d1, initial.theta2, initial.theta3"),
    ("scenario_id = 1\nmarking.0.points = 1,2,3\n", "marking.0 point 0 intrudes no keep-out "
     "sphere and lies off the cutting margin of tumor.0"),
    ("scenario_id = 4\nshell.0.outer_radius = 3\n", "shell.0: depth shell holds the centre "
                                                     "of tumor.0 but not its whole keep-out sphere"),
    # a shell's normal is undefined at its centre
    ("scenario_id = 4\nduration = 0.05\nshell.1.center = 0, 0, 36.7\nshell.1.outer_radius = 40\n",
     "shell.1: centre is within 1e-09 mm of the initial tip placed by initial.d1, "
     "initial.theta2, initial.theta3"),
    # an unsafe marking is geometry, derived from the points and tumors, even at its own value
    ("scenario_id = 1\nmarking.0.unsafe = 0, 0, 1, 0, 0, 1, 0, 0\n",
     "unknown configuration key 'marking.0.unsafe'"),
    ("scenario_id = 1\nmarking.0.points = 1, 2; 3, 4; 5, 6\n",
     "marking.0: marking points must be one or more rows of 3 coordinates, got shape (3, 2)"),
    # the last value of a repeated key would silently win
    ("scenario_id = 1\nfilter.alpha = 0.4\nfilter.alpha = 0.8\n",
     "line 3: 'filter.alpha' is set again, first set on line 2"),
    # a nested group's own check names the group
    ("scenario_id = 1\nfilter.alpha = 0\n", "filter: alpha must be positive and finite, got 0.0"),
    ("scenario_id = 1\ncontroller.k_d = -1\n", "controller.k_d must be positive and finite"),
    ("scenario_id = 1\ndynamics.masses = 1, 2\n", "dynamics: masses must be 3 finite values"),
    ("scenario_id = 1\ndynamics.link_inertias = 0.0, 2.0, 1.0\n",
     "dynamics: link_inertias must be 2 finite values"),
    # a plant whose mass matrix could turn singular, or whose folded gravity load
    # overflows, is refused where DynamicParams is built, not met mid-run
    ("scenario_id = 1\ndynamics.masses = 1e306, 1e306, 1e306\n",
     "dynamics: masses, link_inertias: pivot m22 = m3 L_END^2 + i3 = inf overflows"),
    ("scenario_id = 1\ndynamics.masses = 2e-16, 1, 1\ndynamics.link_inertias = 0, 0\n",
     "dynamics: masses: m1 = 2e-16 is below 1e-12 (m2 + m3), where rounding can take the Schur "
     "complement to zero"),
    ("scenario_id = 1\ndynamics.gravity = 0, 0, 1e308\n",
     "dynamics: gravity, masses: (m1 + m2 + m3) gz overflows"),
    ("scenario_id = 1\nduration = 0.05\ndynamics.gravity = 1e308, 0, 0\n",
     "dynamics: gravity, masses: the theta2 load bound"),
    ("scenario_id = 1\nduration = 0.05\ndynamics.gravity = 0, 1e308, 0\n",
     "dynamics: gravity, masses: the theta3 load bound"),
    ("scenario_id = 1\ndisturbance.frequency = nan\n", "disturbance: frequency must be finite"),
    # a sinusoid phase 2 pi frequency t that overflows: nan at t = 0, or inf partway through
    ("scenario_id = 1\nduration = 0.01\ndisturbance.waveform = sinusoid\n"
     "disturbance.amplitude = 1, 1, 1\ndisturbance.frequency = 1e308\n",
     "disturbance.frequency = 1e+308: the sinusoid's phase 2 pi frequency t is not finite"),
    ("scenario_id = 1\nduration = 2.0\ndisturbance.waveform = sinusoid\n"
     "disturbance.amplitude = 1, 1, 1\ndisturbance.frequency = 2e307\n",
     "disturbance.frequency = 2e+307: the sinusoid's phase 2 pi frequency t is not finite "
     "at the run's last t = 2.0 s"),
    # one marking point on the initial tip: a path of no length has no direction
    ("scenario_id = 1\ntumor.0.center = 0.0, 4.0, 43.0\nmarking.0.points = 0.0, 0.0, 43.0\n",
     "markings: the reference path from the initial tip through the marking points has no "
     "segment of 1e-12 mm or longer"),
    # a marking point outside the workspace bound is named where its marking is built, not
    # downstream as a path too long for a float: the expected text runs to the message's end
    ("scenario_id = 1\nmarking.0.points = 0, 6, 30; nan, 0, 30\n",
     "marking.0: point 1 must be 3 finite coordinates, each at most 1e+06 mm, "
     "got [nan, 0.0, 30.0]\n"),
    FAR_POINT_ERROR,
    ("scenario_id = 1\nmarking.0.points = 0, 6, 30; 1e200, 0, 0\n",
     "marking.0: point 1 must be 3 finite coordinates, each at most 1e+06 mm, "
     "got [1e+200, 0.0, 0.0]"),
    # the joint box is checked before the initial tip is placed
    ("scenario_id = 1\ninitial.d1 = 1e100\n", "initial.d1 = 1e+100 outside the workspace box"),
    # timing whose step count is not finite, or whose log no array can hold
    ("scenario_id = 1\nspeed = 5e-324\n", "speed = 5e-324, settle = 1.0: inf steps"),
    ("scenario_id = 1\ndt = 5e-324\n", "dt = 5e-324, speed = 2.0, settle = 1.0: inf steps"),
    ("scenario_id = 1\ndt = 1e-200\n", "dt = 1e-200, speed = 2.0, settle = 1.0: 2.03e+201 steps"),
    ("scenario_id = 1\nspeed = 1e-200\n", "speed = 1e-200, settle = 1.0: 3.85e+204 steps"),
    ("scenario_id = 1\nsettle = 1e300\n", "settle = 1e+300: 1e+303 steps x 31 float64 log columns "
                                           "are more than one array can address"),
    ("scenario_id = 1\nduration = 1e300\n", "dt = 0.001, speed = 2.0, duration = 1e+300: 1e+303"),
    ("scenario_id = 4\nfilter.mode = keep_out_only\n",
     "unknown configuration key 'filter.mode'"),
]


@pytest.mark.parametrize("config, named", CONFIG_ERRORS)
def test_config_errors_exit_2_and_name_the_key(tmp_path, capsys, config, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


@pytest.fixture(scope="module")
def round_trips(tmp_path_factory):
    """Scenarios 3 and 4, each run with every emit by --scenario and again by its
    scenario_to_config file: {(id, "catalog" or "config"): (output directory,
    barrier tables built, reference paths built)}.  Scenario 3's filter reaches
    two-row candidates; scenario 4's is gated on its depth shell."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        tables, paths = [], []
        build_table, build_path = SafeSetSpec.__post_init__, scenario.reference_waypoints
        patch.setattr(SafeSetSpec, "__post_init__", lambda self: tables.append(build_table(self)))
        patch.setattr(scenario, "reference_waypoints",
                      lambda *args: paths.append(1) or build_path(*args))
        for sid in (3, 4):
            root = tmp_path_factory.mktemp(f"scenario{sid}")
            cfg = root / "catalog.cfg"
            cfg.write_text(scenario_to_config(scenario_catalog(sid)))
            for how, args in (("catalog", ["--scenario", str(sid)]),
                              ("config", ["--config", str(cfg)])):
                tables.clear()
                paths.clear()
                assert main(["run", *args, "--emit", "csv,plotdata,report",
                             "--out", str(root / how)]) == 0
                out[sid, how] = (root / how, len(tables), len(paths))
    return out


@pytest.mark.parametrize("scenario_id", [3, 4])
def test_catalog_run_is_its_config_round_trip(round_trips, tmp_path, scenario_id):
    catalog, config = round_trips[scenario_id, "catalog"][0], round_trips[scenario_id, "config"][0]
    for kind in ("log.csv", "path.dat", "barrier.dat", "velocity.dat"):
        name = f"scenario{scenario_id}_{kind}"
        assert (catalog / name).read_bytes() == (config / name).read_bytes(), name
    # the log read back and written again is the same file
    log = catalog / f"scenario{scenario_id}_log.csv"
    export_csv(read_csv(log), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == log.read_bytes()


def test_one_barrier_table_per_spec(round_trips):
    for sid in (3, 4):
        assert round_trips[sid, "catalog"][1] == 1
        # one table for the catalog base the file overrides, one for the loaded spec
        assert round_trips[sid, "config"][1] == 2


def test_one_reference_per_run(round_trips, tmp_path, monkeypatch):
    for sid in (3, 4):
        assert round_trips[sid, "catalog"][2] == 1
    # a config's run, step by step: the loaded spec's path is the one the run,
    # summary and plot data read; none of them builds another
    builds = []
    build = scenario.reference_waypoints
    monkeypatch.setattr(scenario, "reference_waypoints",
                        lambda *args: builds.append(1) or build(*args))
    spec = load_scenario(scenario_to_config(replace(scenario_catalog(4), duration=0.05)))
    builds.clear()
    log = run(spec)
    summarize(log, spec)
    export_plot_data(log, spec, tmp_path / "plots")
    assert not builds


DIVERGED = [
    (1, "controller.k_d = 1e6"),
    (4, "controller.k_d = 1e6"),
    (1, "dt = 0.005"),
    (1, "controller.k_d = 3e5\nduration = 1"),
    (1, "dt = 0.01\nduration = 1"),
    (1, "dynamics.masses = 1e-100, 1e-100, 1e-100"),
]
DIVERGED_ERROR = "PlantDivergedError: plant diverged"


def _diverged_config(scenario, override):
    # a short run, unless the override sets its own duration: a key may appear once
    short = "" if "duration" in override else "duration = 0.05\n"
    return f"scenario_id = {scenario}\n{short}{override}\n"


@pytest.mark.parametrize("scenario, override", DIVERGED)
def test_diverged_plant_exits_3_with_its_name(tmp_path, capsys, scenario, override):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(_diverged_config(scenario, override))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert DIVERGED_ERROR in capsys.readouterr().err


def test_tip_reaching_a_shell_centre_exits_3_naming_it(tmp_path, capsys):
    # a second shell centred on the tip's step-1 position: step 0 runs as in
    # the catalog (the gate is still open), step 1 has no shell1 normal
    spec = replace(scenario_catalog(4), duration=0.001)
    centre = ", ".join(repr(float(c)) for c in run(spec).x[1])
    cfg = tmp_path / "centre.cfg"
    cfg.write_text(f"scenario_id = 4\nduration = 0.05\nshell.1.center = {centre}\n"
                   "shell.1.outer_radius = 40\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "DegeneratePointError: shell1: barrier gradient undefined" in capsys.readouterr().err


@pytest.mark.parametrize("args, config, code, expected", [
    # a sweep below scenario 4's catalog alpha: the unfiltered baseline dents tumor 0,
    # and a baseline never counts toward exit 1
    pytest.param(["--scenario", "4", "--alpha", "0.4,0.8,1.5"], None, 0,
                 "scenario 4  filter off\n  min barrier tumor0 [mm]:      -1.504184\n", id="0"),
    pytest.param([], APPROACH_BREACH_CONFIG, 1, APPROACH_BREACH_LINE, id="1"),
    pytest.param([], FAR_POINT_ERROR[0], 2, FAR_POINT_ERROR[1], id="2"),
    pytest.param([], _diverged_config(*DIVERGED[0]), 3, DIVERGED_ERROR, id="3"),
])
def test_process_exit_code_and_message(tmp_path, args, config, code, expected):
    # the CLI contract through a real process: entry()'s sys.exit, the report on
    # stdout for exits 0 and 1 and the error on stderr for exits 2 and 3
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = ["--config", str(cfg)]
    src = os.path.dirname(os.path.dirname(safecut.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "safecut.cli",
                           "run", *args, "--emit", "report", "--out", str(tmp_path / "o")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == code, done.stderr
    assert expected in (done.stdout if code < 2 else done.stderr)
