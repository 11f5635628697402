"""Benchmark harness: config parsing, presets, reports, comparison, CLI."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wrkit.harness.run as run_module
import wrkit.harness.spec as spec_module
import wrkit.methods.workspace as workspace

from wrkit.bounds import heat_bound_even, heat_bound_unequal
from wrkit.errors import (
    IncompatibleGrids,
    InconsistentSpecs,
    ParseError,
    UnknownKey,
    ValidationError,
    WrkitError,
)
from wrkit.grids import make_partition, make_time_grid, zero_trace
from wrkit.harness import (
    build_guesses,
    build_problem,
    compare_methods,
    interface_error,
    load_config,
    preset_names,
    preset_text,
    run_experiment,
    with_out_dir,
)
from wrkit.harness.cli import main
from wrkit.harness.run import _execute
from wrkit.methods import Arrangement, Method, WrConfig, guess_grids, make_run_grids, wr_run

from conftest import heat_problem

MINIMAL_HEAT = """\
model = heat1d
interval = 0, 5
partition = 0, 2.5, 5
dx = 0.05
dt = 0.02
T = 0.2
nu = 1
"""

SPEED_JUMP_WAVE = """\
model = wave1d
interval = 0, 6
partition = 0, 2, 4, 6
c = 0.25, 2, 0.5
dx = 0.1
dt = 0.039
T = 2
"""

# nu T / h^2 = 2500: the equal-width reflection series Q does not settle.
DIVERGENT_Q_HEAT = """\
model = heat1d
interval = 0, 3
partition = 0, 1, 2, 3
nu = 100
dx = 0.1
dt = 0.5
T = 25
arrangement = outward
theta = 0.5
"""

TINY_WAVE = """\
model = wave1d
interval = 0, 5
partition = 0, 1, 1.5, 3, 4, 5
c = 1
dx = 0.02
dt = 0.02
T = 0.5
left = t2
right = t2exp
guess = t2
theta = 0.5
tol = 1e-10
"""


def test_minimal_config_defaults():
    spec = load_config(MINIMAL_HEAT)
    assert spec.model == "heat1d"
    assert spec.interval == (0.0, 5.0)
    assert spec.partition == (0.0, 2.5, 5.0)
    assert spec.n_subdomains == 2
    assert spec.nu == 1.0
    assert spec.config.method is Method.DNWR
    assert spec.config.theta_resolved == 0.5
    assert spec.config.tol == 1e-10
    assert spec.config.max_iters == 50
    assert spec.guess == "zero"
    assert spec.initial == "zero" and spec.left == "zero" and spec.right == "zero"
    assert spec.zero_data


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        load_config("model = heat1d\nnot a pair\n")
    assert exc.value.lineno == 2
    with pytest.raises(ParseError):
        load_config("model = heat1d\nmodel = wave1d\n")  # duplicate
    with pytest.raises(ParseError):
        load_config("= heat1d\n")


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey):
        load_config(MINIMAL_HEAT + "colour = blue\n")


def test_validation_failures():
    with pytest.raises(ValidationError):
        load_config(MINIMAL_HEAT.replace("heat1d", "heat3d"))
    with pytest.raises(ValidationError):  # nu missing
        load_config(MINIMAL_HEAT.replace("nu = 1\n", ""))
    with pytest.raises(ValidationError):  # theta out of range
        load_config(MINIMAL_HEAT + "theta = 1.5\n")
    with pytest.raises(ValidationError):  # unknown method
        load_config(MINIMAL_HEAT + "method = magic\n")
    with pytest.raises(ValidationError):  # 2D-only guess on a 1D model
        load_config(MINIMAL_HEAT + "guess = tsin\n")
    with pytest.raises(ValidationError):  # boundary off the dx lattice
        load_config(MINIMAL_HEAT.replace("0, 2.5, 5", "0, 2.43, 5"))
    with pytest.raises(ValidationError):  # wave-only key on heat
        load_config(MINIMAL_HEAT + "c = 1\n")
    with pytest.raises(ValidationError):  # 2D-only key on 1D model
        load_config(MINIMAL_HEAT + "dy = 0.1\n")
    with pytest.raises(ValidationError):  # overlap only for classical Schwarz
        load_config(MINIMAL_HEAT + "overlap_cells = 2\n")
    with pytest.raises(ValidationError):  # robin_p only for Robin Schwarz
        load_config(MINIMAL_HEAT + "robin_p = 1\n")
    with pytest.raises(ValidationError):  # unknown data preset
        load_config(MINIMAL_HEAT + "left = bogus\n")
    with pytest.raises(ValidationError):  # CFL above one
        load_config(TINY_WAVE.replace("dx = 0.02", "dx = 0.01"))
    with pytest.raises(ValidationError):  # subdomains of one cell each
        load_config(
            MINIMAL_HEAT.replace("interval = 0, 5", "interval = 0, 1")
            .replace("0, 2.5, 5", "0, 0.5, 1")
            .replace("dx = 0.05", "dx = 0.5")
        )
    # a boundary 1e-9 of a cell off the lattice: the run's node lookup
    # allows 1e-12 of a cell, so load_config must reject it too
    with pytest.raises(ValidationError):
        load_config(
            MINIMAL_HEAT.replace("interval = 0, 5", "interval = 0, 1")
            .replace("0, 2.5, 5", "0, 0.5000000001, 1")
            .replace("dx = 0.05", "dx = 0.1")
        )
    with pytest.raises(ValidationError):  # reversed y interval
        load_config(preset_text("fig_wave2d_T0p24") + "y_interval = 1, 0\n")
    for name, dt in (
        ("cmp2d_3sub_dnwr", "0.04, 0.02, 0.04"),
        ("fig_heat_5sub_T2", "0.004, 0.002, 0.004, 0.008, 0.004"),
    ):
        text = preset_text(name)
        assert text.count("\ndt = ") == 1
        with pytest.raises(ValidationError, match="single time step"):  # dt lists are wave1d's
            load_config(re.sub(r"\ndt = .*\n", f"\ndt = {dt}\n", text))
    with pytest.raises(ValidationError):  # Robin Schwarz across wave speed jumps
        load_config(SPEED_JUMP_WAVE + "method = swr_robin\nrobin_p = 1\n")
    with pytest.raises(ValidationError):  # overlap as wide as the narrowest subdomain
        load_config(
            MINIMAL_HEAT.replace("interval = 0, 5", "interval = 0, 1")
            .replace("0, 2.5, 5", "0, 0.2, 1")
            .replace("dx = 0.05", "dx = 0.1")
            + "method = swr_classical\noverlap_cells = 2\n"
        )
    with pytest.raises(ValidationError):  # Robin Schwarz on a wave model
        load_config(SPEED_JUMP_WAVE.replace("0.25, 2, 0.5", "2") + "method = swr_robin\nrobin_p = 1\n")
    for method in ("nnwr", "swr_classical"):
        with pytest.raises(ValidationError, match="only applies to dnwr"):  # sweep order is DNWR's
            load_config(MINIMAL_HEAT + f"method = {method}\narrangement = redblack\n")
    for line, bad in (
        ("dx = 0.05", "dx = nan"),
        ("nu = 1", "nu = nan"),
        ("dt = 0.02", "dt = nan"),
        ("T = 0.2", "T = inf"),
        ("nu = 1", "nu = 1\ntol = nan"),
    ):
        with pytest.raises(ValidationError):  # non-finite numbers
            load_config(MINIMAL_HEAT.replace(line, bad))
    # both Schwarz specs run with the rule met: Robin on heat, a narrower overlap
    load_config(MINIMAL_HEAT + "method = swr_robin\nrobin_p = 1\n")
    load_config(
        MINIMAL_HEAT.replace("interval = 0, 5", "interval = 0, 1")
        .replace("0, 2.5, 5", "0, 0.2, 1")
        .replace("dx = 0.05", "dx = 0.1")
        + "method = swr_classical\noverlap_cells = 1\n"
    )


def test_arrangement_names_round_trip(tmp_path):
    for name, member in (
        ("sequential", Arrangement.A1),
        ("redblack", Arrangement.A2),
        ("outward", Arrangement.A3),
    ):
        spec = load_config(MINIMAL_HEAT + f"arrangement = {name}\nlabel = {name}\n")
        assert spec.config.arrangement is member
        run_experiment(spec, out_dir=str(tmp_path))
        manifest = (tmp_path / f"{name}_manifest.txt").read_text().splitlines()
        assert f"arrangement = {name}" in manifest
    with pytest.raises(ValidationError):
        load_config(MINIMAL_HEAT + "arrangement = bogus\n")


def test_readme_config_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert keys == set(spec_module._KEYS)


def test_per_subdomain_dt_lengths():
    text = TINY_WAVE.replace("dt = 0.02", "dt = 0.02, 0.02, 0.02, 0.02, 0.02")
    spec = load_config(text)
    assert spec.dt_list() == (0.02,) * 5
    bad = TINY_WAVE.replace("dt = 0.02", "dt = 0.02, 0.02")
    with pytest.raises(ValidationError):
        load_config(bad)


def test_all_shipped_presets_validate():
    names = preset_names()
    assert len(names) >= 14
    for name in names:
        spec = load_config(preset_text(name))
        assert spec.label == name
    with pytest.raises(ValidationError):
        preset_text("fig_does_not_exist")


def test_random_guess_is_seeded_and_compatible():
    part = make_partition((0.0, 2.5, 5.0))
    tg = make_time_grid(1.0, 0.1)
    a = build_guesses("random(7)", (tg,), None)
    b = build_guesses("random(7)", (tg,), None)
    c = build_guesses("random(8)", (tg,), None)
    assert np.array_equal(a[0].samples, b[0].samples)
    assert not np.array_equal(a[0].samples, c[0].samples)
    assert a[0].samples[0] == 0.0  # compatible with zero initial data
    assert np.max(np.abs(a[0].samples)) <= 1.0
    with pytest.raises(ValidationError):
        build_guesses("random(x)", (tg,), None)


def test_t2_guess_samples():
    tg = make_time_grid(1.0, 0.25)
    (g,) = build_guesses("t2", (tg,), None)
    np.testing.assert_allclose(g.samples, tg.times**2, rtol=1e-15)


def run_tiny(tmp_path, text=MINIMAL_HEAT + "label = tiny\nguess = t2\n"):
    spec = load_config(text)
    return spec, run_experiment(spec, out_dir=str(tmp_path))


def test_run_experiment_writes_csv_and_manifest(tmp_path):
    spec, report = run_tiny(tmp_path)
    csv_file = tmp_path / "tiny.csv"
    manifest = tmp_path / "tiny_manifest.txt"
    assert csv_file.exists() and manifest.exists()
    lines = csv_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["iteration", "err_max"]
    assert "err_if_1" in header
    assert len(lines) - 1 == report.iterations
    assert report.initial_error > 0
    body = manifest.read_text()
    assert "tiny" in body and "heat1d" in body


def test_rerun_is_byte_identical(tmp_path):
    _, first = run_tiny(tmp_path)
    text1 = (tmp_path / "tiny.csv").read_bytes()
    _, second = run_tiny(tmp_path)
    assert (tmp_path / "tiny.csv").read_bytes() == text1
    assert first.max_errors == second.max_errors


def test_zero_data_run_has_single_row(tmp_path):
    spec, report = run_tiny(tmp_path, MINIMAL_HEAT + "label = nilcase\n")
    assert report.iterations == 1
    assert report.max_errors[0] == 0.0
    assert report.converged_at == 1


def test_heat_preset_bound_column(tmp_path):
    # The shipped short-window heat preset carries the envelope overlay
    # and the measured error never crosses it.
    spec = load_config(preset_text("fig_heat_5sub_T0p2"))
    report = run_experiment(with_out_dir(spec, str(tmp_path)))
    assert report.bound is not None
    assert len(report.bound) == report.iterations
    for err, bnd in zip(report.max_errors, report.bound):
        assert err <= bnd
    header = (tmp_path / "fig_heat_5sub_T0p2.csv").read_text().splitlines()[0]
    assert header.endswith(",bound")



def test_bound_overlay_when_q_diverges(tmp_path):
    # A Q series that does not settle leaves 2m - 1 = 1 as the multiplier,
    # so the run still writes its files and the overlay is the erfc factor.
    spec = load_config(DIVERGENT_Q_HEAT)
    report = run_experiment(with_out_dir(spec, str(tmp_path)))
    assert report.bound is not None
    assert report.bound[0] == math.erfc(1.0 / (2.0 * math.sqrt(2500.0))) * report.initial_error
    assert (tmp_path / "experiment.csv").exists()
    assert (tmp_path / "experiment_manifest.txt").exists()

def test_interface_error_against_zero_reference():
    # A zero problem keeps the g(t) = t^2 guess error exactly measurable:
    # the initial distance to the zero reference is max t^2 = T^2.
    spec = load_config(MINIMAL_HEAT + "guess = t2\n")
    assert spec.zero_data
    report = run_experiment(spec, out_dir=None)
    assert report.initial_error == pytest.approx(0.2**2, rel=1e-12)


def test_interface_error_identical_traces():
    prob = heat_problem()
    part = make_partition((0.0, 2.5, 5.0))
    grids = make_run_grids(part, 0.05, 0.5, 0.02)
    cfg = WrConfig(method=Method.DNWR, tol=1e-12, max_iters=40)
    gg = guess_grids(part, grids, cfg)
    hist = wr_run(
        prob, part, grids, cfg, build_guesses("t2", gg, None)
    )
    report = interface_error(hist, hist.final_traces)
    assert report.errors[-1][0] == 0.0
    assert report.converged_at is not None


def test_interface_error_rejects_mismatched_shapes():
    prob = heat_problem()
    part = make_partition((0.0, 2.5, 5.0))
    grids = make_run_grids(part, 0.05, 0.5, 0.02)
    cfg = WrConfig(method=Method.DNWR, tol=1e-12, max_iters=2)
    gg = guess_grids(part, grids, cfg)
    hist = wr_run(prob, part, grids, cfg, build_guesses("t2", gg, None))
    with pytest.raises(IncompatibleGrids):
        interface_error(hist, [hist.final_traces[0], hist.final_traces[0]])



def test_interface_error_builds_one_plan_per_pair_of_grids(monkeypatch):
    # Both interface traces of fig_wave_nonmatching live on coarser grids
    # than the reference; every row of the run shares those two plans.
    spec = load_config(preset_text("fig_wave_nonmatching"))
    part = make_partition(spec.partition)
    grids = make_run_grids(part, spec.dx, spec.T, spec.dt)
    gg = guess_grids(part, grids, spec.config)
    guesses = build_guesses(spec.guess, gg, None)
    hist = wr_run(build_problem(spec), part, grids, spec.config, guesses)
    assert hist.iterations > 2
    calls = []
    real = workspace.build_plan
    monkeypatch.setattr(workspace, "build_plan", lambda src, dst: calls.append(1) or real(src, dst))
    interface_error(hist, hist.reference)
    assert len(calls) == 2


def test_update_drop_monitor_without_a_reference():
    # Perfbench's fixed-point check runs on reference=None: each sweep's
    # error is its update relative to the trace's own scale, clipped at 1.
    spec = load_config(preset_text("fig_heat_5sub_T2"))
    part = make_partition(spec.partition)
    grids = make_run_grids(part, spec.dx, spec.T, spec.dt)
    gg = guess_grids(part, grids, spec.config)
    cfg = replace(spec.config, max_iters=15, tol=1e-300)
    hist = wr_run(
        build_problem(spec), part, grids, cfg, build_guesses(spec.guess, gg, None), reference=None
    )
    assert hist.metric == "update_drop"
    assert hist.iterations == 15
    scales = []
    for k, (traces, errs) in enumerate(zip(hist.dirichlet, hist.errors)):
        previous = hist.initial if k == 0 else hist.dirichlet[k - 1]
        expect = []
        for new, old in zip(traces, previous):
            scale = max(1.0, float(np.max(np.abs(new.samples))))
            scales.append(scale)
            expect.append(float(np.max(np.abs(new.samples - old.samples))) / scale)
        assert errs == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert hist.max_errors[k] == max(errs)
    assert max(scales) > 2.0  # so a scale of 1 would show


@pytest.mark.parametrize(
    "partition, kind, bound_fn, m",
    [
        ("0, 1, 2.5, 3, 4, 5", "heat-unequal", heat_bound_unequal, 2),
        ("0, 1, 2, 3, 5", "heat-even", heat_bound_even, 1),
    ],
)
def test_unequal_and_even_envelope_overlays(capsys, partition, kind, bound_fn, m):
    text = preset_text("fig_heat_5sub_T2").replace("0, 1, 2, 3, 4, 5", partition)
    spec = load_config(text)
    hist, report, info = _execute(spec)
    assert info["bound_overlay"] and hist.iterations >= 5
    widths = np.diff(spec.partition)
    err0 = report.initial_error
    expect = [bound_fn(m, widths, spec.nu, spec.T, k) * err0 for k in range(1, hist.iterations + 1)]
    assert report.bound == pytest.approx(expect, rel=1e-14, abs=0.0)
    assert report.csv_text.splitlines()[0].endswith(",bound")

    params = [f"m={m}", "widths=" + ",".join(repr(float(w)) for w in widths)]
    params += [f"nu={spec.nu!r}", f"T={spec.T!r}", f"kmax={hist.iterations}"]
    assert main(["bound", "--kind", kind, "--params", *params]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,bound" and len(lines) == hist.iterations + 2
    for k, line in enumerate(lines[2:], start=1):
        assert line.startswith(f"{k},")
        assert float(line.split(",")[1]) * err0 == report.bound[k - 1]


def test_driver_rejects_wrong_count_of_reference_traces():
    prob = heat_problem()
    part = make_partition((0.0, 2.5, 5.0))
    grids = make_run_grids(part, 0.05, 0.5, 0.02)
    cfg = WrConfig(method=Method.DNWR, max_iters=2)
    gg = guess_grids(part, grids, cfg)
    two = [zero_trace(gg[0]), zero_trace(gg[0])]  # one interface, two traces
    with pytest.raises(IncompatibleGrids):
        wr_run(prob, part, grids, cfg, build_guesses("t2", gg, None), reference=two)

def test_driver_rejects_reference_of_other_dimensionality():
    prob = heat_problem()
    part = make_partition((0.0, 2.5, 5.0))
    grids = make_run_grids(part, 0.05, 0.5, 0.02)
    cfg = WrConfig(method=Method.DNWR, max_iters=2)
    gg = guess_grids(part, grids, cfg)
    strip_like = [zero_trace(gg[0], ny=2)]  # (26, 3) samples for a 1D run
    with pytest.raises(IncompatibleGrids):
        wr_run(prob, part, grids, cfg, build_guesses("t2", gg, None), reference=strip_like)


COMPARE_BASE = """\
model = heat1d
interval = 0, 5
partition = 0, 2.5, 5
dx = 0.05
dt = 0.02
T = 0.5
nu = 1
initial = parabola
left = t2
right = texp
tol = 1e-6
max_iters = 120
"""


def test_compare_methods_table(tmp_path):
    specs = [
        load_config(COMPARE_BASE + "method = dnwr\nlabel = cmp_dnwr\n"),
        load_config(COMPARE_BASE + "method = nnwr\nlabel = cmp_nnwr\n"),
        load_config(
            COMPARE_BASE + "method = swr_classical\noverlap_cells = 1\nlabel = cmp_swr\n"
        ),
    ]
    table = compare_methods(specs, out_dir=str(tmp_path))
    assert [row.method for row in table.rows] == ["dnwr", "nnwr", "swr_classical"]
    for row in table.rows:
        assert row.iterations >= 1
        assert row.final_error < 1e-6
    out = tmp_path / "compare_cmp_dnwr.csv"
    assert out.exists()
    assert out.read_text().splitlines()[0] == "label,method,iterations,converged,final_err"


def test_compare_methods_rejects_mismatched_setups():
    a = load_config(COMPARE_BASE + "method = dnwr\nlabel = a\n")
    b = load_config(
        COMPARE_BASE.replace("T = 0.5", "T = 1.0") + "method = nnwr\nlabel = b\n"
    )
    with pytest.raises(InconsistentSpecs):
        compare_methods([a, b])
    with pytest.raises(InconsistentSpecs):
        compare_methods([])


def test_cli_run_and_preset(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(MINIMAL_HEAT + "guess = t2\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iterations" in out
    assert (tmp_path / "runs" / "tiny.csv").exists()

    rc = main(["preset", "--list"])
    assert rc == 0
    listing = capsys.readouterr().out
    assert "fig_wave_twostep" in listing and "cmp2d_3sub_nnwr" in listing


def test_cli_bound_subcommand(capsys):
    rc = main(
        [
            "bound",
            "--kind",
            "heat-equal",
            "--params",
            "count=5",
            "h=1",
            "nu=1",
            "T=2",
            "kmax=3",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,bound"
    assert lines[1].startswith("0,")
    assert len(lines) == 5

    rc = main(["bound", "--kind", "wave-steps", "--params", "T=5", "widths=1,0.5,1.5,1,1", "c=1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "11"


@pytest.mark.parametrize("kind, params", [
    ("heat-unequal", ["m=1", "widths=1,-1,1", "nu=1", "T=2", "kmax=2"]),  # was a negative envelope
    ("heat-unequal", ["m=1", "widths=1,0,1", "nu=1", "T=2", "kmax=2"]),  # was inf and a RuntimeWarning
    ("heat-even", ["m=1", "widths=1,1,0,1", "nu=1", "T=2"]),
    ("heat-equal", ["count=5", "h=1", "nu=1e-300", "T=1e-300", "kmax=3"]),  # nu*T underflows to 0
    ("heat-unequal", ["m=1", "widths=1,1,1", "nu=1e-300", "T=1e-300"]),
    ("wave-steps", ["T=1e300", "widths=1e-300", "c=1"]),  # T / h overflows
    ("wave-steps", ["T=1", "widths=1e-300", "c=1e300"]),  # h / c underflows to 0
])
def test_cli_bound_rejects_what_its_parsers_pass(capsys, kind, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second line
        rc = main(["bound", "--kind", kind, "--params", *params])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")



def test_cli_bound_heat_equal_when_q_diverges(capsys):
    rc = main(["bound", "--kind", "heat-equal", "--params", "count=5", "h=1", "nu=1", "T=2500"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 22
    # 2m - 1 = 3 binds: B(2) = 3^2 erfc(2 h / (2 sqrt(nu T)))
    assert lines[3] == f"2,{9 * math.erfc(2.0 / (2.0 * math.sqrt(2500.0)))!r}"

@pytest.mark.parametrize("kind, params", [
    ("heat-equal", ["count=5", "h=1"]),  # integer multiplier 3: 3**k overflows int -> float
    ("heat-unequal", ["m=2", "widths=1,1,1,1,1"]),  # float 3**k overflows to inf, erfc to 0
    ("heat-even", ["m=1", "widths=1,2,1,1"]),
])
def test_cli_bound_past_the_float_range(capsys, kind, params):
    rc = main(["bound", "--kind", kind, "--params", *params, "nu=1", "T=2", "kmax=700"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 702
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
    assert values[0] == 1.0 and values[-1] == 0.0


def test_an_overlay_whose_log_envelope_overflows_is_zero_without_warnings(tmp_path, capsys):
    # x = k h_min / (2 sqrt(nu T)) is about 6e158, so x^2 leaves the float range.
    config = tmp_path / "wide.cfg"
    config.write_text(
        "model = heat1d\ninterval = 0, 1.970100309819724e+115\npartition = 0, 4.92525077454931e+114, "
        "9.85050154909862e+114, 1.477575232364793e+115, 1.970100309819724e+115\n"
        "dx = 2.462625387274655e+114\nnu = 1.42724769270596e+45\n"
        "dt = 1.1006568214637918e-134\nT = 1.1006568214637918e-134\nlabel = wide\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0 and capsys.readouterr().err == ""
    rows = (tmp_path / "wide.csv").read_text().splitlines()
    assert rows[0].endswith(",bound") and all(row.endswith(",0.0") for row in rows[1:])


def test_an_out_that_cannot_be_made_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL_HEAT)
    calls = []
    monkeypatch.setattr(run_module, "_execute", lambda *args, **kwargs: calls.append(args))
    for argv in (
        ["preset", "fig_heat_5sub_T8", "--out", str(taken)],
        ["run", "--config", str(good), "--out", str(taken / "sub")],
        ["compare", "--configs", str(good), str(good), "--out", str(taken)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert calls == []


_MAGNITUDE = st.floats(math.log(1e-320), math.log(1e308)).map(math.exp)


@st.composite
def _specs_over_the_float_range(draw) -> str:
    """Config text of two subdomains of two cells, four steps at most, and any magnitudes."""
    model = draw(st.sampled_from(("heat1d", "wave1d", "wave2d")))
    dx, dy, dt, nu, c = (draw(_MAGNITUDE) for _ in range(5))
    if draw(st.booleans()):  # c from a Courant number in (0, 1]
        with np.errstate(all="ignore"):
            inverse = np.hypot(1.0 / np.float64(dx), 0.0 if model != "wave2d" else 1.0 / np.float64(dy))
            c = float(draw(st.floats(0.0, 1.0, exclude_min=True)) / (dt * inverse))
    T = draw(st.sampled_from((1.0, 2.0, 3.0, 3.5))) * dt
    text = (
        f"model = {model}\ninterval = 0, {4 * dx!r}\npartition = 0, {2 * dx!r}, {4 * dx!r}\ndx = {dx!r}\n"
        f"dt = {dt!r}\nT = {T!r}\nguess = random(3)\nmax_iters = 3\n"
    )
    text += f"nu = {nu!r}\n" if model == "heat1d" else f"c = {c!r}\n"
    return text + (f"y_interval = 0, {4 * dy!r}\ndy = {dy!r}\n" if model == "wave2d" else "")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_specs_over_the_float_range())
def test_a_spec_of_any_magnitude_loads_and_runs_or_fails_with_a_wrkit_error(text):
    # load_config rejects what the kernels' factors cannot take; what it
    # accepts runs, or stops with a WrkitError, and without numpy warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = load_config(text)
        except WrkitError:
            return
        try:
            _execute(spec)
        except WrkitError:
            pass


def test_cli_error_paths(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("model = heat1d\nwat\n")
    rc = main(["run", "--config", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    rc = main(["preset", "no_such_preset"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    endless = tmp_path / "endless.cfg"
    endless.write_text(MINIMAL_HEAT.replace("T = 0.2", "T = inf"))
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(MINIMAL_HEAT.encode() + "# caf\xe9\n".encode("latin-1"))
    # NNWR with theta = 1 on this chain grows about 3x per sweep until
    # its traces overflow (near sweep 640).
    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(
        "model = heat1d\ninterval = 0, 2\npartition = 0, 1, 2\nnu = 1\ndx = 0.1\n"
        "dt = 0.02\nT = 2.0\ninitial = parabola\nleft = t2\nright = texp\n"
        "method = nnwr\ntheta = 1\nmax_iters = 1000\nguess = t2\n"
    )
    # Wave speeds whose square overflows or underflows; each Courant number is 0.2 or less.
    chain = "model = wave1d\ninterval = 0, 1\npartition = 0, 0.5, 1\ndx = 0.05\n"
    fast, slow = tmp_path / "fast.cfg", tmp_path / "slow.cfg"
    fast.write_text(chain + "c = 1e200\ndt = 1e-202\nT = 1e-201\n")
    slow.write_text(chain + "c = 1e-200\ndt = 0.05\nT = 1\n")
    # A step so small that numpy refuses the time grid's size before allocating it.
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(
        "model = heat1d\ninterval = 0, 2\npartition = 0, 1, 2\nnu = 1\ndx = 0.1\ndt = 1e-300\nT = 0.2\n"
    )
    # Spacings so small that round or numpy refuses the grid before
    # allocating it, and specs whose scheme coefficients leave the float
    # range: each config with the input key its error line names.
    heat = "model = heat1d\nnu = 1\ndt = 0.02\nT = 0.2\n"
    huge = "model = heat1d\ninterval = 0, 4e200\npartition = 0, 2e200, 4e200\ndx = 1e200\n"
    tiny_chain = "model = wave1d\ninterval = 0, 0.004\npartition = 0, 0.002, 0.004\ndx = 0.001\n"
    named = {
        "dx_inf": (heat + "interval = 0, 2\npartition = 0, 1, 2\ndx = 1e-320\n", "dx = 1e-320"),
        "dx_huge": (
            heat + "interval = 0, 1\npartition = 0, 0.5, 1\ndx = 9.332636185032189e-302\n",
            "dx = 9.332636185032189e-302",
        ),
        "dy_inf": (
            "model = wave2d\ninterval = 0, 1\npartition = 0, 0.5, 1\nc = 1\ndx = 0.1\ndt = 0.01\nT = 0.1\n"
            "dy = 1e-320\n",
            "dy = 1e-320",
        ),
        "dx_sub": (heat + "interval = 0, 1e-299\npartition = 0, 5e-300, 1e-299\ndx = 1e-300\n", "dx = 1e-300"),
        "dy_sub": (
            "model = wave2d\ninterval = 0, 1\npartition = 0, 0.5, 1\nc = 1\ndx = 0.1\ndt = 1e-303\nT = 1e-302\n"
            "y_interval = 0, 1e-300\ndy = 1e-301\n",
            "dy = 1e-301",
        ),
        # A diffusivity whose r = nu dt / dx^2 overflows.
        "hot": (
            "model = heat1d\ninterval = 0, 2\npartition = 0, 1, 2\nnu = 1e308\ndx = 0.1\ndt = 0.02\nT = 0.2\n"
            "initial = parabola\nleft = t2\nright = t2\n",
            "nu = 1e+308",
        ),
        # A subnormal diffusivity, whose flux scale 0.5 dx / nu overflows.
        "nu_sub": (heat.replace("nu = 1", "nu = 1e-320") + "interval = 0, 2\npartition = 0, 1, 2\ndx = 0.1\n", "nu = 1e-320"),
        # A wave speed with a normal square but an infinite flux scale 0.5 dx / c^2.
        "c_flux": (
            "model = wave1d\ninterval = 0, 40\npartition = 0, 20, 40\nc = 1.5e-154\ndx = 10\ndt = 1\nT = 2\n",
            "c = 1.5e-154",
        ),
        # Wave steps whose cube underflows in the flux's second time difference (Courant 0.1).
        "dt_cube": (
            "model = wave1d\ninterval = 0, 2\npartition = 0, 1, 2\nc = 1e150\ndx = 0.1\ndt = 1e-152\nT = 1e-151\n",
            "dt = 1e-152",
        ),
        # A dx whose square overflows, on each model.
        "dx_sq_heat": (huge + "nu = 1\ndt = 1\nT = 2\n", "dx = 1e+200"),
        "dx_sq_wave": (huge.replace("heat1d", "wave1d") + "c = 1\ndt = 1e100\nT = 2e100\n", "dx = 1e+200"),
        "dx_sq_strip": (
            huge.replace("heat1d", "wave2d") + "c = 1\ndt = 1e100\nT = 2e100\ny_interval = 0, 4e200\ndy = 1e200\n",
            "dx = 1e+200",
        ),
        # Flux weights 0.5 dx / c^2 times 2 / dt^2, and 0.5 dx / (nu dt), that overflow.
        "c_rate": (tiny_chain + "c = 1e-153\ndt = 0.001\nT = 0.004\nguess = random(7)\n", "c = 1e-153"),
        "nu_rate": (
            tiny_chain.replace("wave1d", "heat1d") + "nu = 1e-300\ndt = 1e-12\nT = 4e-12\nguess = random(7)\n",
            "nu = 1e-300",
        ),
        "c_rate_dt": (
            "model = wave1d\ninterval = 0, 2\npartition = 0, 1, 2\nc = 1.5e-154\ndx = 0.1\ndt = 0.02\nT = 0.2\n",
            "c = 1.5e-154",
        ),
        # An envelope overlay whose nu*T underflows to 0, on a run that solves.
        "nu_T_overlay": (
            "model = heat1d\ninterval = 0, 2.8764219523228867e-93\n"
            "partition = 0, 9.588073174409622e-94, 1.9176146348819244e-93, 2.8764219523228867e-93\n"
            "dx = 4.794036587204811e-94\nnu = 2.0902722826084166e-199\n"
            "dt = 2.0902722826084166e-199\nT = 2.0902722826084166e-199\n",
            "nu = 2.0902722826084166e-199, T = 2.0902722826084166e-199",
        ),
        # Boundary data t^2 that overflows in the reference, before any sweep.
        "t2_reference": (
            "model = heat1d\ninterval = 0, 4\npartition = 0, 2, 4\ndx = 1\nnu = 1\n"
            "dt = 2.974033816955566e+284\nT = 2.974033816955566e+284\ninitial = parabola\nleft = t2\n",
            "trace samples must be finite",
        ),
        # Speeds whose jump term in the reference's piecewise-speed march overflows.
        "c_jump": (
            "model = wave1d\ninterval = 0, 4000\npartition = 0, 2000, 4000\ndx = 1000\nc = 1e104, 3e104\n"
            "dt = 1e-102\nT = 4e-102\ninitial = parabola\nleft = t2\n",
            "c = (1e+104, 3e+104)",
        ),
    }
    for name, (text, _) in named.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL_HEAT)
    taken = tmp_path / "taken"
    taken.write_text("")
    # Labels that are not plain file names: rejected with the config, before any solve.
    labels = {"escape": "../esc/escaped", "nested": "a/b", "nul": "a\0b"}
    for name, label in labels.items():
        (tmp_path / f"{name}.cfg").write_text(MINIMAL_HEAT + f"label = {label}\n")
    # An out directory holding a NUL byte, from the config or from the caller of main.
    nul_out = str(tmp_path / "made\0here")
    (tmp_path / "zero.cfg").write_text(MINIMAL_HEAT + f"out = {nul_out}\n")
    out = str(tmp_path / "out")
    for argv in (
        ["run", "--config", str(endless)],
        ["run", "--config", str(tmp_path)],  # a directory
        ["run", "--config", str(undecodable)],
        ["compare", "--configs", str(good), str(undecodable)],
        ["run", "--config", str(good), "--out", str(taken)],  # --out names a file
        ["run", "--config", str(diverging), "--out", str(tmp_path / "diverged")],
        ["run", "--config", str(fast), "--out", str(tmp_path / "fast")],
        ["run", "--config", str(slow), "--out", str(tmp_path / "slow")],
        ["run", "--config", str(tiny), "--out", str(tmp_path / "tiny")],
        *(["run", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / name)] for name in named),
        *(["run", "--config", str(tmp_path / f"{name}.cfg"), "--out", out] for name in labels),
        ["compare", "--configs", str(good), str(tmp_path / "escape.cfg"), "--out", out],
        ["run", "--config", str(tmp_path / "zero.cfg")],
        ["run", "--config", str(good), "--out", nul_out],
        ["compare", "--configs", str(good), str(good), "--out", nul_out],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a second line
            rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        if undecodable in map(Path, argv):
            assert str(undecodable) in err[0]
        if diverging in map(Path, argv):
            assert "sweep" in err[0]
        if fast in map(Path, argv) or slow in map(Path, argv):
            assert "c = 1e" in err[0] and "c^2 is not a normal float" in err[0]
        if tiny in map(Path, argv):
            assert "dt = 1e-300" in err[0] and "T = 0.2" in err[0]
        if Path(argv[2]).stem in named:
            assert named[Path(argv[2]).stem][1] in err[0]
        if out in argv:
            assert "plain file name" in err[0]
        if nul_out in argv or "zero.cfg" in argv[2]:
            assert "'out'" in err[0] and "NUL" in err[0]
    assert not (tmp_path / "esc").exists() and not (tmp_path / "out").exists()
    assert not any(p.name.startswith("made") for p in tmp_path.iterdir())

    for kind, params in (
        ("heat-equal", ["count=5", "h=1", "T=2"]),  # nu missing
        ("heat-equal", ["count=5", "h=x", "nu=1", "T=2"]),
        ("heat-equal", ["count=5", "h=1", "nu=1", "T=-2"]),
        ("heat-equal", ["count=4", "h=1", "nu=1", "T=2"]),  # even count
        ("wave-steps", ["T=5", "widths=1,1", "c=x"]),
        ("wave-steps", ["T=inf", "widths=1,1", "c=1"]),
        ("wave-steps", ["T=2", "widths=1,1", "c=inf"]),
        ("heat-equal", ["count=3", "h=1", "nu=1", "T=2", "kmax=-1"]),
        ("wave-steps", ["T=5", "widths=1,1", "c=1", "kmax=3"]),  # kmax is for the heat kinds
    ):
        rc = main(["bound", "--kind", kind, "--params", *params])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


def test_cli_reports_a_march_it_cannot_allocate(tmp_path, capsys, monkeypatch):
    # numpy's error for an array the host will not grant, raised without
    # allocating anything, since hosts differ in what they grant.
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64")

    monkeypatch.setattr(workspace, "_heat_march", refuse)
    config = tmp_path / "heat.cfg"
    config.write_text(MINIMAL_HEAT)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "more memory" in err[0]


def test_cli_compare(tmp_path, capsys):
    files = []
    for name, extra in (
        ("a.cfg", "method = dnwr\nlabel = cli_dnwr\n"),
        ("b.cfg", "method = nnwr\nlabel = cli_nnwr\n"),
    ):
        f = tmp_path / name
        f.write_text(COMPARE_BASE + extra)
        files.append(str(f))
    rc = main(["compare", "--configs", *files, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cli_dnwr" in out and "cli_nnwr" in out
