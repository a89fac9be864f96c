"""CLI surface: subcommands, config schema, CSV/manifest output, exit codes."""

import configparser
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import beamsim
from beamsim import analytic, cli, montecarlo, specfun, throughput
from beamsim.analytic import SparseModel
from beamsim.channel import FadingModel
from beamsim.montecarlo import SimConfig, estimate_se
from beamsim.rng import child_seed
from child_process import SRC_DIR, run_python

BASE_CONFIG = """
[run]
schema_version = 1
seed = 42
trials = 5000
units = nats

[simulate]
lambda0 = 1.9
b = 121
m = 3.2
snr_coeff = 0.01

[bounds]
lambda0 = 1.9
b = 121
m = 3.2
snr_coeff = 0.01

[throughput]
lambda0 = 1.9
snr_coeff = 0.01
t_f = 5e-6
n_b = 4
t_total = 0.01
b_values = 16, 121, 400

[sweep:demo]
variable = lambda0
values = 1.0, 1.9, 3.3
b = 121
m = 3.2
snr_coeff = 0.01
outputs = sim_se, upper_nakagami, lower

[sweep:plan]
variable = velocity
values = 1.0, 2.0, 11.1
lambda0 = 1.9
snr_coeff = 0.01
b = 1
t_f = 5e-6
n_b = 4
carrier_freq = 60e9
tc_model = clarke
b_values = 16, 121, 400
outputs = tp, b_star_numeric, hpbw_star
"""

# Link budget given by its parts instead of snr_coeff; {d} is the distance.
DERIVED_LINK = "intercept_c = 1e-6\ndistance_d = {d}\nalpha = 2.0\nnoise_power = 1e-10"

# Prepended to a child's script: ``compiled`` collects the names of the
# beamsim source files the process compiles, which it does once per module,
# when the module's code first runs.  The child runs with -X pycache_prefix
# set to an empty directory (compile_flags), so no cached bytecode is read.
COMPILE_HOOK = (
    "import os, sys\n"
    "compiled = []\n"
    "def _hook(event, args):\n"
    f"    if event == 'compile' and os.path.dirname(str(args[1])) == {str(SRC_DIR / 'beamsim')!r}:\n"
    "        compiled.append(os.path.basename(args[1]))\n"
    "sys.addaudithook(_hook)\n"
)


def compile_flags(tmp_path):
    return ("-X", f"pycache_prefix={tmp_path / 'pycache'}")


def run_main(*args):
    """Run ``beamsim.cli.main`` in this process; return (exit code, stdout, stderr).

    A warning the run emits is appended to stderr as one more line, as a
    fresh process would print it there.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(args))
    lines = [f"{w.category.__name__}: {w.message}\n" for w in caught]
    return rc, out.getvalue(), err.getvalue() + "".join(lines)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSubcommands:
    def test_simulate(self, config_path, tmp_path):
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "simulate", "--config", str(config_path), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out / "simulate.csv")
        assert rows[0] == ["lambda0", "b", "m_eff", "sim_se", "sim_ci95", "trials", "units"]
        assert rows[1][-1] == "nats"
        assert float(rows[1][3]) > 0

    def test_bounds_and_units(self, config_path, tmp_path):
        out_n = tmp_path / "n"
        out_b = tmp_path / "b"
        bounds = ("-m", "beamsim.cli", "bounds", "--config", str(config_path))
        assert run_python(*bounds, "--out-dir", str(out_n)).returncode == 0
        assert run_python(*bounds, "--out-dir", str(out_b), "--units", "bits").returncode == 0
        row_n = read_csv(out_n / "bounds.csv")[1]
        row_b = read_csv(out_b / "bounds.csv")[1]
        # every bound column scales by 1/ln 2; the units tag flips
        for idx in (4, 5, 6, 7):
            assert float(row_b[idx]) == pytest.approx(float(row_n[idx]) / math.log(2.0), rel=1e-12)
        assert row_n[-1] == "nats" and row_b[-1] == "bits"

    def test_bits_units(self, config_path, tmp_path):
        # the engine returns nats; the CLI scales its cells like every other one
        nats = run_main("simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "n"))
        bits = run_main("simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "b"),
                        "--units", "bits")
        assert nats[0] == bits[0] == 0, (nats, bits)
        row_n = read_csv(tmp_path / "n" / "simulate.csv")[1]
        row_b = read_csv(tmp_path / "b" / "simulate.csv")[1]
        for idx in (3, 4):  # sim_se, sim_ci95
            assert float(row_b[idx]) == float(row_n[idx]) * (1.0 / math.log(2.0))
        assert row_n[-1] == "nats" and row_b[-1] == "bits"

    def test_throughput(self, config_path, tmp_path):
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "throughput", "--config", str(config_path), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out / "throughput.csv")
        header = rows[0]
        assert "b_star_numeric" in header and "hpbw_star_numeric" in header
        curve = read_csv(out / "throughput_curve.csv")
        assert curve[0] == ["b", "tp", "tp_raw", "units"]
        # clamped column never negative, raw column may be
        for row in curve[1:]:
            assert float(row[1]) >= 0.0

    def test_sweep_outputs(self, config_path, tmp_path):
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(config_path), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        demo = read_csv(out / "demo.csv")
        assert demo[0] == ["lambda0", "sim_se", "sim_ci95", "upper_nakagami", "lower", "units"]
        assert len(demo) == 4
        assert all(row[-1] == "nats" for row in demo[1:])
        plan = read_csv(out / "plan.csv")
        assert plan[0][0] == "velocity"
        # v = 11.1 is infeasible: planner cells empty, not an error
        assert plan[3][1] == ""
        plan_tp = read_csv(out / "plan_tp.csv")
        assert plan_tp[0] == ["velocity", "b", "tp", "tp_raw", "units"]
        # clamping keeps tp >= 0 while tp_raw goes negative for v = 11.1
        v111 = [r for r in plan_tp[1:] if r[0] == "11.1"]
        assert v111 and all(float(r[2]) == 0.0 and float(r[3]) < 0.0 for r in v111)

    def test_plan_sweep_where_closed_form_has_no_grid(self, tmp_path):
        # between ~4.96 and ~5.59 m/s at 60 GHz the closed form's root is
        # B* < 1 while the numeric planner reports infeasible: blank cells, exit 0
        cfg = tmp_path / "plan.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:plan]\nvariable = velocity\nvalues = 4.5, 5.0, 5.5, 6.0\n"
            "lambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\nt_f = 5e-6\nn_b = 4\ncarrier_freq = 60e9\n"
            "outputs = b_star_numeric, b_star_closed, hpbw_star\n"
        )
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out / "plan.csv")
        assert rows[0] == [
            "velocity", "b_star_numeric", "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed", "units",
        ]
        assert all(float(cell) > 0 for cell in rows[1][1:5])
        for row in rows[2:]:
            assert row[1:5] == ["", "", "", ""], row

    @pytest.mark.parametrize(
        "variable, values, extra",
        [
            ("b", "49, 121, 625", "lambda0 = 1.9\nm = 3.2\n"),
            ("m", "1.0, 2.0, 3.2", "lambda0 = 1.9\nb = 121\n"),
            ("k_db", "0, 7, 13", "lambda0 = 1.9\nb = 121\n"),
            ("rho", "0.1, 1.0, 10.0", "lambda0 = 1.9\nb = 121\nm = 1\n"),
        ],
    )
    def test_other_sweep_variables(self, tmp_path, variable, values, extra):
        cfg = tmp_path / "var.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\nseed = 5\ntrials = 2000\n"
            f"[sweep:v]\nvariable = {variable}\nvalues = {values}\n"
            f"snr_coeff = 0.01\n{extra}"
            "outputs = sim_se, upper_nakagami, lower\n"
        )
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out / "v.csv")
        assert rows[0][0] == variable
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[1]) > 0        # sim_se
            assert float(row[3]) > 0        # upper_nakagami
            assert float(row[4]) > 0        # lower

    def test_rho_sweep_monotone(self, tmp_path):
        cfg = tmp_path / "rho.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:r]\nvariable = rho\nvalues = 0.1, 1.0, 10.0\n"
            "lambda0 = 1.9\nb = 121\nm = 1\nsnr_coeff = 0.01\noutputs = lower\n"
        )
        out = tmp_path / "out"
        assert run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(out)).returncode == 0
        rows = read_csv(out / "r.csv")
        lows = [float(r[1]) for r in rows[1:]]
        assert lows[0] < lows[1] < lows[2]

    def test_manifest_provenance(self, config_path, tmp_path):
        out = tmp_path / "out"
        run_python("-m", "beamsim.cli", "sweep", "--config", str(config_path), "--out-dir", str(out))
        entries = [json.loads(line) for line in (out / "run_manifest.jsonl").read_text().splitlines()]
        assert len(entries) == 2
        for entry in entries:
            assert entry["seed"] == 42
            assert entry["trials"] == 5000
            assert entry["units"] == "nats"
            assert "version" in entry and "wall_time_s" in entry
            crc = 0
            for path in sorted((SRC_DIR / "beamsim").glob("*.py")):
                crc = zlib.crc32(path.read_bytes(), crc)
            assert entry["source_crc32"] == crc
            # the Monte Carlo stream version goes with sim_se only
            assert entry.get("stream") == (5 if entry["name"] == "demo" else None)
            assert entry["python"] == sys.version.split()[0]
            assert "numpy" in entry
            # the engine has no worker count, so none is recorded
            assert "BEAMSIM_THREADS" not in entry
            # set by the package import unless the environment sets a count
            assert entry["OPENBLAS_NUM_THREADS"] is not None
            # defaults the user did not set are recorded
            assert "seed" in entry["config_resolved"]


    def test_csv_cells_use_the_csv_modules_conversion(self, tmp_path):
        path = tmp_path / "edge.csv"
        row = [None, 1.0, 0.1 + 0.2, 5e-324, math.inf, math.nan, -0.0, 121, 2**70, "nats", "a,b", 'q"x']
        cli._write_csv(path, ["h"], [row])
        assert path.read_bytes() == (
            b"h\r\n,1.0,0.30000000000000004,5e-324,inf,nan,-0.0,121,1180591620717411303424,"
            b'nats,"a,b","q""x"\r\n'
        )

    @pytest.mark.parametrize("kind, written", [
        ("simulate", ["simulate.csv"]),
        ("bounds", ["bounds.csv"]),
        ("throughput", ["throughput.csv", "throughput_curve.csv"]),
    ])
    def test_point_command_writes_one_manifest_entry(self, config_path, tmp_path, kind, written):
        out = tmp_path / "out"
        rc, _, err = run_main(kind, "--config", str(config_path), "--out-dir", str(out))
        assert rc == 0, err
        entries = [json.loads(line) for line in (out / "run_manifest.jsonl").read_text().splitlines()]
        assert [(entry["kind"], entry["csv"]) for entry in entries] == [(kind, written)]
        assert sorted(path.name for path in out.glob("*.csv")) == sorted(written)

    def test_throughput_curve_rows_are_the_librarys_curve(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_main("throughput", "--config", str(config_path), "--out-dir", str(out))[0] == 0
        b_values = [16.0, 121.0, 400.0]
        cfg = throughput.ThroughputConfig(t_f=5e-6, t_total=0.01, k=0.01 / 1.9, lambda0=1.9, n_b=4)
        expected = [[b, max(tp, 0.0), tp] for b, tp in zip(b_values, throughput.throughput_curve(b_values, cfg))]
        rows = read_csv(out / "throughput_curve.csv")[1:]
        assert [[float(cell) for cell in row[:3]] for row in rows] == expected
        assert all(row[3] == "nats" for row in rows)


class TestOnePath:
    """A point command is a one-row evaluation of the sweep's cells."""

    @staticmethod
    def _one_value_sweep(tmp_path, kind, outputs, extra=""):
        keys = BASE_CONFIG.partition(f"[{kind}]")[2].split("\n[", 1)[0].replace("lambda0 = 1.9\n", "")
        cfg = tmp_path / "one.ini"
        cfg.write_text(
            BASE_CONFIG.split("[sweep:", 1)[0]
            + f"[sweep:one]\nvariable = lambda0\nvalues = 1.9\n{keys}{extra}outputs = {outputs}\n"
        )
        out = tmp_path / "sweep"
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        header, row = read_csv(out / "one.csv")
        return dict(zip(header, row)), out

    @staticmethod
    def _point(config_path, tmp_path, kind):
        out = tmp_path / kind
        res = run_python("-m", "beamsim.cli", kind, "--config", str(config_path), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        header, row = read_csv(out / f"{kind}.csv")
        return dict(zip(header, row)), out

    def test_bounds_point_is_a_one_value_sweep(self, config_path, tmp_path):
        point, _ = self._point(config_path, tmp_path, "bounds")
        swept, _ = self._one_value_sweep(
            tmp_path, "bounds", "upper_nakagami, upper_rayleigh, lower, sparse"
        )
        for col in ("upper_nakagami", "upper_rayleigh", "lower", "sparse", "units"):
            assert point[col] == swept[col], col

    def test_throughput_point_is_a_one_value_sweep(self, config_path, tmp_path):
        point, point_out = self._point(config_path, tmp_path, "throughput")
        swept, sweep_out = self._one_value_sweep(
            tmp_path, "throughput", "b_star_numeric, b_star_closed, hpbw_star, tp", extra="b = 1\n"
        )
        for col in ("b_star_numeric", "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed", "units"):
            assert point[col] == swept[col], col
        curve = read_csv(point_out / "throughput_curve.csv")
        swept_curve = read_csv(sweep_out / "one_tp.csv")
        assert [row[1:] for row in swept_curve] == [["b", "tp", "tp_raw", "units"]] + curve[1:]

    def test_sweep_sim_se_uses_the_rho_of_its_row(self, tmp_path):
        # at (3.5, 121), (snr_coeff / lambda0) * 11 * 11 and b * snr_coeff / lambda0
        # differ in the last digit, and at 50000 trials so do both cells they
        # give; the engine must take the one the bounds use
        cfg = tmp_path / "rho.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\nseed = 7\ntrials = 50000\n"
            "[sweep:rho]\nvariable = lambda0\nvalues = 1.9, 3.5\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
        )
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 0, err
        row = read_csv(tmp_path / "out" / "rho.csv")[2]
        assert row[0] == "3.5"
        seed = child_seed(7, zlib.crc32(b"rho"), 1)
        est = estimate_se(SimConfig(3.5, 121, 121 * 0.01 / 3.5, FadingModel.nakagami(3.2), 50_000, seed))
        assert (float(row[1]), float(row[2])) == (est.mean, est.ci95)

    def test_rho_sweep_keeps_the_swept_rho(self, tmp_path):
        # the bounds of a rho-sweep row are those at the swept rho, bit for
        # bit, though b * (rho * lambda0 / b) / lambda0 rounds some of them
        lambda0, b = 1.9, 121
        cfg = tmp_path / "rho.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n[sweep:r]\nvariable = rho\nstart = 0.5\nstop = 50\ncount = 100\n"
            f"lambda0 = {lambda0}\nb = {b}\nm = 1.5\noutputs = upper_nakagami, upper_rayleigh, lower, sparse\n"
        )
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 0, err
        header, *rows = read_csv(tmp_path / "out" / "r.csv")
        model = SparseModel.from_occupancy(lambda0, b, 1.5)
        bounds = {
            "upper_nakagami": lambda rho: analytic.se_upper_nakagami(model, rho),
            "upper_rayleigh": lambda rho: analytic.se_upper_rayleigh(model, rho),
            "lower": lambda rho: analytic.se_lower(model, rho),
            "sparse": lambda rho: analytic.se_sparse_approx(lambda0, rho),
        }
        rhos = [float(row[0]) for row in rows]
        assert any(b * (rho * lambda0 / b) / lambda0 != rho for rho in rhos)
        for rho, row in zip(rhos, rows):
            cells = dict(zip(header, row))
            for column, bound in bounds.items():
                assert float(cells[column]) == bound(rho), (rho, column)


class TestPoint:
    """The one SNR scale of a point, rho = b * snr_coeff / lambda0, and the planner's K = rho / b."""

    @staticmethod
    def point(b):
        values = {"lambda0": 1.9, "b": b, "snr_coeff": 0.01, "t_f": 5e-6, "t_total": 0.01}
        return cli._point_from(cli.Section("sweep:p", values), ["sim_se", "b_star_numeric"], {"trials": 10}, 1)

    def test_reference_point(self):
        point = self.point(121)
        assert point.cfg.k == pytest.approx(0.0052632, abs=1e-7)
        assert point.cells["rho"] == pytest.approx(0.636842, abs=1e-6)
        assert point.cells["rho"] == pytest.approx(121 * point.cfg.k, rel=1e-14)
        assert point.sim.rho == point.cells["rho"]

    def test_omni(self):
        point = self.point(1)
        assert point.cells["rho"] == point.cfg.k

    def test_gain_linearity(self):
        p1, p2 = self.point(100), self.point(200)
        assert p2.cells["rho"] == pytest.approx(2 * p1.cells["rho"], rel=1e-14)
        assert p2.cfg.k == p1.cfg.k

    # rho = b * snr_coeff / lambda0 is subnormal, so 1/rho overflows; the
    # planner reads only K = snr_coeff / lambda0, which is finite and > 0
    TINY = "snr_coeff = 1e-310"

    def test_throughput_reads_only_k(self, tmp_path):
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(BASE_CONFIG.replace("snr_coeff = 0.01", self.TINY))
        rc, out, err = run_main("throughput", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 0, err
        assert out.startswith("B* numeric = ")

    def test_planner_sweep_reads_only_k(self, tmp_path):
        plan = (
            "[run]\nschema_version = 1\n[sweep:plan]\nvariable = velocity\nvalues = 1.0, 2.0\nlambda0 = 1.9\n"
            f"b = 1\n{self.TINY}\nt_f = 5e-6\ncarrier_freq = 60e9\nb_values = 16, 121\n"
            "outputs = tp, b_star_numeric, b_star_closed, hpbw_star\n"
        )
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(plan)
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 0, err
        header, *rows = read_csv(tmp_path / "out" / "plan.csv")
        for row in rows:
            cells = dict(zip(header, row))
            assert float(cells["b_star_numeric"]) >= 1.0 and math.isfinite(float(cells["hpbw_star_numeric"]))
        # a column that reads rho still rejects it
        cfg.write_text(plan.replace("outputs = tp", "outputs = lower, tp"))
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "bad"))
        assert rc == 2, err
        assert err.startswith("config error: [sweep:plan] b = 1, snr_coeff = 1e-310, lambda0 = 1.9: rho = "), err


    PLAN_NO_B = (
        "[run]\nschema_version = 1\n[sweep:plan]\nvariable = {variable}\nvalues = {values}\nlambda0 = 1.9\n"
        "snr_coeff = 0.01\nt_f = 5e-6\nt_total = 0.01\ncarrier_freq = 60e9\noutputs = {outputs}\n"
    )

    def test_planner_sweep_needs_no_b(self, tmp_path):
        cfg = tmp_path / "plan.ini"
        cfg.write_text(self.PLAN_NO_B.format(variable="lambda0", values="1.0, 1.9", outputs="b_star_numeric"))
        rc, out, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 0, err
        header, *rows = read_csv(tmp_path / "out" / "plan.csv")
        assert header == ["lambda0", "b_star_numeric", "units"] and len(rows) == 2
        assert all(math.isfinite(float(row[1])) and float(row[1]) >= 1.0 for row in rows)

    @pytest.mark.parametrize("variable, values, outputs", [
        ("lambda0", "1.0, 1.9", "b_star_numeric, lower"),
        ("lambda0", "1.0, 1.9", "sim_se"),
        ("lambda0", "1.0, 1.9", "upper_nakagami"),
        ("lambda0", "1.0, 1.9", "sparse"),
        # K = rho / b in a rho sweep
        ("rho", "0.5, 1.0", "b_star_numeric"),
    ])
    def test_b_still_required_where_read(self, tmp_path, variable, values, outputs):
        cfg = tmp_path / "plan.ini"
        cfg.write_text(self.PLAN_NO_B.format(variable=variable, values=values, outputs=outputs))
        rc, out, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert (rc, out, err) == (2, "", "config error: [sweep:plan] missing required key 'b'\n")
        assert not (tmp_path / "out").exists()


class TestBlame:
    """A value the library rejects becomes a config error naming the user's keys; nothing else is caught."""

    SECTION = cli.Section("sweep:s", {"b": 121, "snr_coeff": 0.01, "lambda0": 1.9})

    def test_value_error_names_the_keys(self):
        with pytest.raises(cli.ConfigError) as info:
            with cli._blame(self.SECTION, "rho"):
                raise ValueError("rho must be finite")
        assert str(info.value) == "[sweep:s] b = 121, snr_coeff = 0.01, lambda0 = 1.9: rho must be finite"
        assert info.value.__suppress_context__ and info.value.__cause__ is None

    @pytest.mark.parametrize("exc", [cli.ConfigError("already a config error"), ZeroDivisionError("x / 0")])
    def test_other_errors_pass_through(self, exc):
        with pytest.raises(type(exc)) as info:
            with cli._blame(self.SECTION, "rho"):
                raise exc
        assert info.value is exc


class TestVersion:
    """The manifest's version reads the checked-out commit from the checkout's files."""

    COMMIT = "0123456789abcdef0123456789abcdef01234567"
    OTHER = "fedcba9876543210fedcba9876543210fedcba98"

    @staticmethod
    def write(path, text):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def repo(self, root, head="ref: refs/heads/main\n"):
        """A checkout at ``root`` whose HEAD is ``head``; returns a directory inside it."""
        self.write(root / ".git" / "HEAD", head)
        inner = root / "src" / "pkg"
        inner.mkdir(parents=True)
        return inner

    def test_loose_ref(self, tmp_path):
        inner = self.repo(tmp_path)
        self.write(tmp_path / ".git" / "refs" / "heads" / "main", self.COMMIT + "\n")
        # a loose ref wins over a stale packed one
        self.write(tmp_path / ".git" / "packed-refs", f"{self.OTHER} refs/heads/main\n")
        assert cli._git_commit(inner) == self.COMMIT

    def test_packed_ref(self, tmp_path):
        inner = self.repo(tmp_path)
        self.write(
            tmp_path / ".git" / "packed-refs",
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{self.OTHER} refs/heads/mainline\n{self.COMMIT} refs/heads/main\n"
            f"{self.OTHER} refs/tags/v1\n^{self.OTHER}\n",
        )
        assert cli._git_commit(inner) == self.COMMIT

    def test_detached_head(self, tmp_path):
        assert cli._git_commit(self.repo(tmp_path, self.COMMIT + "\n")) == self.COMMIT

    def test_worktree(self, tmp_path):
        common = tmp_path / "main" / ".git"
        self.write(common / "refs" / "heads" / "topic", self.COMMIT + "\n")
        self.write(common / "worktrees" / "wt" / "HEAD", "ref: refs/heads/topic\n")
        self.write(common / "worktrees" / "wt" / "commondir", "../..\n")
        inner = tmp_path / "wt" / "src"
        inner.mkdir(parents=True)
        self.write(tmp_path / "wt" / ".git", f"gitdir: {common / 'worktrees' / 'wt'}\n")
        assert cli._git_commit(inner) == self.COMMIT
        # a relative gitdir is taken from the .git file's directory
        self.write(tmp_path / "wt" / ".git", "gitdir: ../main/.git/worktrees/wt\n")
        assert cli._git_commit(inner) == self.COMMIT

    def test_no_checkout(self, tmp_path):
        assert cli._git_commit(tmp_path) is None

    @pytest.mark.parametrize("head, ref", [
        ("ref: refs/heads/main\n", None),                  # unborn branch
        ("ref: refs/heads/main\n", "0123abc\n"),           # short ref
        ("ref: refs/heads/main\n", "\udcff" * 40),         # undecodable ref
        ("not a ref\n", None),
        ("0123456789abcdefg123456789abcdef01234567\n", None),
        ("", None),
    ], ids=["unborn", "short_ref", "undecodable_ref", "garbled_head", "non_hex_head", "empty_head"])
    def test_garbled_falls_back(self, tmp_path, head, ref):
        inner = self.repo(tmp_path, head)
        if ref is not None:
            path = tmp_path / ".git" / "refs" / "heads" / "main"
            path.parent.mkdir(parents=True)
            path.write_bytes(ref.encode("utf-8", "surrogateescape"))
        assert cli._git_commit(inner) is None

    @pytest.mark.parametrize("dot_git", [b"gitdir: missing\n", b"worktree\n", b"\xff\xfe"],
                             ids=["missing_gitdir", "no_gitdir_line", "undecodable"])
    def test_garbled_dot_git_file(self, tmp_path, dot_git):
        (tmp_path / ".git").write_bytes(dot_git)
        assert cli._git_commit(tmp_path) is None

    def test_matches_git(self):
        git = shutil.which("git")
        if git is None:
            pytest.skip("git is not installed")
        res = subprocess.run(
            [git, "rev-parse", "--short=7", "HEAD"], cwd=cli.PACKAGE_DIR, capture_output=True, text=True
        )
        if res.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        assert cli._version_string() == f"beamsim-{beamsim.__version__}+{res.stdout.strip()}"


class TestDeterminism:
    def test_sweep_csv_bytes(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_python("-m", "beamsim.cli", "sweep", "--config", str(config_path), "--out-dir", str(out1))
        run_python("-m", "beamsim.cli", "sweep", "--config", str(config_path), "--out-dir", str(out2))
        for name in ("demo.csv", "plan.csv", "plan_tp.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_validate_report_bytes(self, tmp_path):
        args = ("validate", "--criteria", "5,10", "--seed", "3", "--trials", "2000")
        r1 = run_python("-m", "beamsim.cli", *args, cwd=tmp_path)
        r2 = run_python("-m", "beamsim.cli", *args, cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout and r1.stdout


class TestExitCodes:
    def test_bad_schema_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nschema_version = 7\n")
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "schema_version" in res.stderr

    def test_missing_config_is_2(self, tmp_path):
        res = run_python(
            "-m", "beamsim.cli", "sweep", "--config", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)
        )
        assert res.returncode == 2

    def test_empty_sweep_values_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:x]\nvariable = lambda0\nvalues =\nb = 121\nsnr_coeff = 0.01\noutputs = lower\n"
        )
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "values" in res.stderr

    def test_unknown_output_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:x]\nvariable = lambda0\nvalues = 1, 2\nb = 121\nsnr_coeff = 0.01\noutputs = bogus\n"
        )
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "bogus" in res.stderr

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("simulate", "snr_coeff = 0.01", "snr_coeff = inf"),
            # finite, but rho = b * snr_coeff / lambda0 overflows
            ("simulate", "snr_coeff = 0.01", "snr_coeff = 1e308"),
            ("bounds", "snr_coeff = 0.01", "snr_coeff = 1e308"),
            ("simulate", "m = 3.2", "k_db = nan"),
            ("simulate", "m = 3.2", "m = 0.3"),
            ("bounds", "m = 3.2", "m = inf"),
            ("bounds", "m = 3.2", "k_db = 1e308"),
            ("bounds", "m = 3.2", "k_db = 2000"),
            ("simulate", "lambda0 = 1.9", "lambda0 = 1e308"),
            ("bounds", "lambda0 = 1.9", "lambda0 = 1e308"),
            ("simulate", "snr_coeff = 0.01", DERIVED_LINK.format(d="0")),
            ("simulate", "snr_coeff = 0.01", DERIVED_LINK.format(d="1e-200")),
            ("bounds", "lambda0 = 1.9", "lambda0 = 0"),
            ("bounds", "b = 121", "b = 0"),
            ("throughput", "t_total = 0.01", "t_total = inf"),
            ("throughput", "t_f = 5e-6", "t_f = inf"),
            # finite, but F_t = 2 t_f / t_total overflows
            ("throughput", "t_f = 5e-6", "t_f = 1e308"),
            ("throughput", "t_total = 0.01", "t_total = 1e308"),
            # t_total takes precedence over velocity, so these replace it
            ("throughput", "t_total = 0.01", "velocity = -1\ncarrier_freq = 60e9"),
            ("throughput", "t_total = 0.01", "velocity = inf\ncarrier_freq = 60e9"),
            ("throughput", "t_total = 0.01", "carrier_freq = nan\nvelocity = 1"),
            # both positive, but their Doppler shift underflows to 0
            ("throughput", "t_total = 0.01", "velocity = 5e-324\ncarrier_freq = 5e-324"),
            ("throughput", "t_total = 0.01", "tc_model = bogus\nvelocity = 1\ncarrier_freq = 60e9"),
            ("throughput", "b_values = 16, 121, 400", "b_values = 16, 0.5"),
            ("throughput", "b_values = 16, 121, 400", "b_values = nan"),
            # an integer whose square is not a finite float
            ("throughput", "n_b = 4", "n_b = 1" + "0" * 199),
            # b * snr_coeff is taken as a float
            ("bounds", "b = 121", "b = 1" + "0" * 400),
            # rho = 121 is fine, but lambda0 / b rounds to 0 paths per pair
            ("simulate", "lambda0 = 1.9\nb = 121\nm = 3.2\nsnr_coeff = 0.01",
             "lambda0 = 5e-324\nb = 121\nm = 3.2\nsnr_coeff = 5e-324"),
            # rho is subnormal, so 1/rho overflows
            ("bounds", "snr_coeff = 0.01", "snr_coeff = 5e-324"),
            # the same with a derived link coefficient: the message names its four keys
            ("simulate", "snr_coeff = 0.01",
             "intercept_c = 5e-324\ndistance_d = 1\nalpha = 2.0\nnoise_power = 1e-10"),
            ("bounds", "snr_coeff = 0.01",
             "alpha = 1e-308\nintercept_c = 1e-300\ndistance_d = 1\nnoise_power = 1e12"),
            ("simulate", "snr_coeff = 0.01",
             "noise_power = 1e308\nintercept_c = 1e-6\ndistance_d = 1\nalpha = 2.0"),
        ],
        ids=[
            "snr_coeff_inf", "simulate_rho_overflow", "bounds_rho_overflow", "k_db_nan",
            "m_below_half", "bounds_m_inf", "bounds_k_db_overflow",
            "bounds_k_db_shape_overflow", "lambda0_huge", "bounds_lambda0_huge",
            "distance_d_zero", "distance_d_tiny", "bounds_lambda0_zero", "bounds_b_zero",
            "t_total_inf", "t_f_inf", "t_f_huge", "t_total_huge", "velocity_negative", "velocity_inf",
            "carrier_freq_nan", "doppler_underflow", "tc_model_unknown", "b_values_below_one", "b_values_nan",
            "n_b_huge", "b_beyond_float", "simulate_mu_underflow", "bounds_inverse_rho_overflow",
            "derived_intercept_c_tiny", "derived_alpha_tiny", "derived_noise_power_huge",
        ],
    )
    def test_bad_point_value_is_2(self, tmp_path, kind, old, new):
        head, section, rest = BASE_CONFIG.partition(f"[{kind}]")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(head + section + rest.replace(old, new, 1))
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", kind, "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"config error: [{kind}] ")
        assert len(res.stderr.splitlines()) == 1, res.stderr
        if "noise_power" in new:
            for key in ("intercept_c", "distance_d", "alpha", "noise_power"):
                assert f"{key} = " in res.stderr, res.stderr
            assert "snr_coeff = " not in res.stderr, res.stderr
        if new.startswith("n_b = "):
            # its own key rejects it, not the planner, which would blame t_f and t_total too
            assert "n_b = " in res.stderr and "t_f = " not in res.stderr, res.stderr
        assert new.split(" = ")[0] in res.stderr, res.stderr
        assert not list(out.glob("*.csv"))
        assert not (out / "run_manifest.jsonl").exists()

    @pytest.mark.parametrize(
        "body, key",
        [
            ("variable = m\nvalues = 0.3, 1.0\nlambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\n"
             "outputs = sim_se\n", "m = 0.3: Nakagami shape"),
            ("variable = k_db\nvalues = 1, 1e308\nlambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\n"
             "outputs = lower\n", "k_db = 1e+308"),
            ("variable = lambda0\nvalues = 1.9, 1e308\nb = 121\nsnr_coeff = 0.01\n"
             "outputs = lower\n", "lambda0 = 1e+308 over b = 121 beam pairs makes the occupancy probability"),
            ("variable = rho\nvalues = 1, inf\nlambda0 = 1.9\nb = 121\n"
             "outputs = lower, upper_nakagami, sparse\n", "rho"),
            ("variable = rho\nvalues = -1, 1\nlambda0 = 1.9\nb = 121\noutputs = lower\n", "rho"),
            ("variable = velocity\nvalues = 1, 2\nlambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\n"
             "t_f = 5e-6\ncarrier_freq = 60e9\nb_values = 16, 0.5\noutputs = tp\n", "b_values"),
            # every comparison with NaN is false, so no pair of values reads as decreasing
            ("variable = velocity\nvalues = 1, nan, 0.5\nlambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\n"
             "outputs = lower\n", "values"),
            ("variable = velocity\nstart = 1\nstop = nan\ncount = 3\nlambda0 = 1.9\nb = 121\n"
             "snr_coeff = 0.01\noutputs = lower\n", "stop"),
            ("variable = lambda0\nstart = 1\nstop = 2\ncount = 1" + "0" * 199 + "\nb = 121\n"
             "snr_coeff = 0.01\noutputs = lower\n", "count"),
        ],
        ids=["m_below_half", "k_db_overflow", "lambda0_huge", "rho_inf", "rho_negative",
             "b_values_below_one", "values_nan", "stop_nan", "count_huge"],
    )
    def test_bad_swept_value_is_2(self, tmp_path, body, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nschema_version = 1\n[sweep:x]\n" + body)
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: [sweep:x] ")
        assert key in res.stderr, res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert not list(out.glob("*.csv"))
        assert not (out / "run_manifest.jsonl").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # a typo of n_b: with n_b = 64 the planner finds no feasible beam count
            ("n_b = 4", "nb = 64", "[throughput] unknown key 'nb'"),
            ("[bounds]", "[bound]", "unknown section [bound]"),
            ("[sweep:demo]", "[sweep]", "unknown section [sweep]"),
            # the planner reads neither the pairs nor the fading law
            ("n_b = 4", "n_b = 4\nm = 3.2", "[throughput] unknown key 'm'"),
            ("n_b = 4", "n_b = 4\nb = 121", "[throughput] unknown key 'b'"),
            ("n_b = 4", "n_b = 4\nk_db = 7.0", "[throughput] unknown key 'k_db'"),
        ],
        ids=["key_typo", "section_typo", "sweep_without_name", "throughput_m", "throughput_b",
             "throughput_k_db"],
    )
    def test_unknown_name_is_2(self, tmp_path, old, new, message):
        # every section and key is checked, also those the command does not read
        cfg = tmp_path / "bad.ini"
        cfg.write_text(BASE_CONFIG.replace(old, new, 1))
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "throughput", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"config error: {message}"), res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["run_section", "trials_flag", "validate"])
    def test_huge_trials_is_2(self, tmp_path, entry):
        huge = "1" + "0" * 199
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.replace("trials = 5000", f"trials = {huge}") if entry == "run_section"
                       else BASE_CONFIG)
        args = {
            "run_section": ("simulate", "--config", str(cfg)),
            "trials_flag": ("sweep", "--config", str(cfg), "--trials", huge),
            "validate": ("validate", "--trials", huge),
        }[entry]
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", *args, "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"config error: [run] trials = {huge}: must be "), res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "2147483648"])
    def test_trials_out_of_range_is_2(self, tmp_path, config_path, trials):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(BASE_CONFIG.replace("trials = 5000", f"trials = {trials}"))
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "bounds", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"config error: [run] trials = {trials}: must be an integer in [1, 2147483647]\n"
        assert not out.exists()

    def test_bad_later_section_leaves_no_output(self, tmp_path):
        # every section, planner keys included, is checked before the first one writes
        plan = "[sweep:b]\nvariable = velocity\nvalues = 1, 2\nlambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\n"
        later = {
            "rho": "[sweep:b]\nvariable = rho\nvalues = -1, 1\nlambda0 = 1.9\nb = 121\noutputs = lower\n",
            "'t_f'": plan + "carrier_freq = 60e9\noutputs = b_star_numeric\n",
            "tc_model": plan + "t_f = 5e-6\ncarrier_freq = 60e9\ntc_model = bogus\noutputs = lower, hpbw_star\n",
            # the Monte Carlo limit on lambda0 / b, checked when the section is planned
            "lambda0 / b": "[sweep:b]\nvariable = lambda0\nvalues = 1.9, 1e308\nb = 121\nsnr_coeff = 0.01\n"
                           "outputs = sim_se\n",
        }
        for i, (key, section) in enumerate(later.items()):
            cfg = tmp_path / "two.ini"
            cfg.write_text(
                "[run]\nschema_version = 1\n"
                "[sweep:a]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nm = 3.2\n"
                "snr_coeff = 0.01\noutputs = lower\n" + section
            )
            out = tmp_path / f"out{i}"
            res = run_python("-m", "beamsim.cli", "sweep", "--config", str(cfg), "--out-dir", str(out))
            assert res.returncode == 2, res.stderr
            assert res.stderr.startswith("config error: [sweep:b] "), res.stderr
            assert key in res.stderr, res.stderr
            assert not list(out.glob("*.csv")), key
            assert not (out / "run_manifest.jsonl").exists(), key

    @pytest.mark.parametrize("name", ["", "../escaped", "{abs}/name", "a/b", "a.b", "a:b"],
                             ids=["empty", "parent", "absolute", "subdir", "dot", "colon"])
    def test_bad_sweep_name_is_2(self, tmp_path, name):
        # the name is the CSV file's stem, so it is a plain word
        name = name.format(abs=tmp_path / "abs")
        cfg = tmp_path / "name.ini"
        cfg.write_text(BASE_CONFIG.replace("[sweep:demo]", f"[sweep:{name}]"))
        out = tmp_path / "sub" / "out"
        rc, stdout, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2, err
        assert err == f"config error: [sweep:{name}] the sweep name must match [A-Za-z0-9_-]+: " \
                      "it names the CSV file\n"
        assert stdout == ""
        assert not [path for path in tmp_path.rglob("*") if path.suffix in (".csv", ".jsonl")]

    @pytest.mark.parametrize("first, second", [("x", "x_tp"), ("x_tp", "x")])
    def test_sweeps_writing_one_file_is_2(self, tmp_path, first, second):
        # [sweep:x] with tp writes x_tp.csv besides x.csv
        tp = "variable = velocity\nvalues = 1, 2\nlambda0 = 1.9\nsnr_coeff = 0.01\nt_f = 5e-6\n" \
             "carrier_freq = 60e9\nb_values = 16, 121\noutputs = tp\n"
        plain = "variable = lambda0\nvalues = 1.0, 1.9\nb = 121\nsnr_coeff = 0.01\noutputs = lower\n"
        body = {"x": tp, "x_tp": plain}
        cfg = tmp_path / "two.ini"
        cfg.write_text(f"[run]\nschema_version = 1\n[sweep:{first}]\n{body[first]}[sweep:{second}]\n{body[second]}")
        out = tmp_path / "out"
        rc, stdout, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2, err
        assert err == f"config error: [sweep:{first}] and [sweep:{second}] both write x_tp.csv\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sweep", "bounds"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_unusable_out_dir_is_2(self, config_path, tmp_path, kind, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        rc, stdout, err = run_main(kind, "--config", str(config_path), "--out-dir", str(out))
        assert rc == 2, err
        reason = "Not a directory" if under else "File exists"
        assert err == f"config error: --out-dir {out}: {reason}\n"
        assert stdout == ""
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("kind, file", [
        ("sweep", "demo.csv"), ("sweep", "run_manifest.jsonl"),
        ("bounds", "bounds.csv"), ("bounds", "run_manifest.jsonl"),
    ])
    def test_unwritable_output_file_is_2(self, config_path, tmp_path, kind, file):
        # checked before anything is evaluated: no other output is written
        out = tmp_path / "out"
        (out / file).mkdir(parents=True)
        rc, stdout, err = run_main(kind, "--config", str(config_path), "--out-dir", str(out))
        assert rc == 2, err
        assert err == f"config error: --out-dir {out}: cannot write {file}: Is a directory\n"
        assert stdout == ""
        assert [path.name for path in out.iterdir()] == [file]

    @pytest.mark.parametrize("kind, config, file", [
        ("sweep", "[sweep:a]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nsnr_coeff = 0.01\noutputs = lower\n"
                  "[sweep:b]\nvariable = lambda0\nvalues = 1.0\nb = 16\nsnr_coeff = 0.01\noutputs = lower\n",
         "b.csv"),
        ("throughput", None, "throughput_curve.csv"),
    ], ids=["sweep_second_csv", "throughput_curve"])
    def test_unwritable_later_output_file_writes_nothing(self, tmp_path, kind, config, file):
        cfg = tmp_path / "two.ini"
        cfg.write_text(BASE_CONFIG if config is None else "[run]\nschema_version = 1\n" + config)
        out = tmp_path / "out"
        (out / file).mkdir(parents=True)
        rc, stdout, err = run_main(kind, "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2, err
        assert err == f"config error: --out-dir {out}: cannot write {file}: Is a directory\n"
        assert stdout == ""
        assert [path.name for path in out.iterdir()] == [file]

    @pytest.mark.parametrize("kind", ["sweep", "bounds"])
    def test_read_only_manifest_writes_nothing(self, config_path, tmp_path, monkeypatch, kind):
        # a manifest the user may not write, as os.access reports it (root may write any)
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_manifest.jsonl").write_text("")
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path).name != "run_manifest.jsonl" and access(path, mode))
        rc, stdout, err = run_main(kind, "--config", str(config_path), "--out-dir", str(out))
        assert rc == 2, err
        assert err == f"config error: --out-dir {out}: cannot write run_manifest.jsonl: Permission denied\n"
        assert stdout == ""
        assert [path.name for path in out.iterdir()] == ["run_manifest.jsonl"]
        assert (out / "run_manifest.jsonl").read_text() == ""

    def test_validate_registers_no_coherence_model(self, tmp_path):
        # criterion 9 uses its calibrated 1/v law inline, so the sweep after
        # it in the same process rejects that model as a fresh process does
        assert run_main("validate", "--criteria", "9", "--trials", "200")[0] == 0
        cfg = tmp_path / "cal.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:plan]\nvariable = velocity\nvalues = 1, 2\nlambda0 = 1.9\nb = 121\n"
            "snr_coeff = 0.01\nt_f = 5e-6\ncarrier_freq = 60e9\ntc_model = calibrated-inverse-v\n"
            "outputs = b_star_numeric\n"
        )
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 2, err
        assert err == "config error: [sweep:plan] unknown tc_model 'calibrated-inverse-v'; registered: clarke\n"

    @pytest.mark.parametrize(
        "kind, old, new, failing",
        [
            ("simulate", "snr_coeff = 0.01", "snr_coeff = 1e306", "estimate_se"),
            ("bounds", "lambda0 = 1.9", "lambda0 = 1e-308", "se_upper_nakagami"),
            ("bounds", "m = 3.2", "m = 1e308", "se_upper_nakagami"),
        ],
        ids=["simulate_rho_near_overflow", "bounds_rho_near_overflow", "bounds_shape_huge"],
    )
    def test_numerical_failure_is_one_line(self, tmp_path, kind, old, new, failing):
        # rho is finite, but rho z or the Nakagami quadrature overflows: the
        # failing operation reports that once, with no numpy warnings before it
        head, section, rest = BASE_CONFIG.partition(f"[{kind}]")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(head + section + rest.replace(old, new, 1))
        out = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", kind, "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith(f"numerical failure: {failing}: "), res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert not (out / "run_manifest.jsonl").exists()

    def test_failing_upper_column_after_a_good_section(self, tmp_path):
        # the upper_nakagami column of a section is one call; its failure at
        # rho = 121 * 0.01 / 1e-308 is reported once, with no numpy warning,
        # and the section before it keeps its bytes
        good = "[sweep:a]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nm = 3.2\nsnr_coeff = 0.01\n" \
               "outputs = upper_nakagami, lower\n"
        bad = good.replace("[sweep:a]", "[sweep:b]").replace("1.0, 1.9", "1e-308, 1.9")
        head = "[run]\nschema_version = 1\n"
        alone, both = tmp_path / "alone.ini", tmp_path / "both.ini"
        alone.write_text(head + good)
        both.write_text(head + good + bad)
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(alone), "--out-dir", str(tmp_path / "alone"))
        assert res.returncode == 0, res.stderr
        res = run_python("-m", "beamsim.cli", "sweep", "--config", str(both), "--out-dir", str(tmp_path / "both"))
        assert res.returncode == 1, res.stderr
        assert res.stderr == (
            "numerical failure: se_upper_nakagami: quadrature failed to converge (estimate inf, error inf)\n"
        )
        assert sorted(path.name for path in (tmp_path / "both").glob("*.csv")) == ["a.csv"]
        assert (tmp_path / "both" / "a.csv").read_bytes() == (tmp_path / "alone" / "a.csv").read_bytes()

    @pytest.mark.parametrize("sim_row, reported", [(0, "boom"), (1, "se_upper_nakagami")])
    def test_first_failing_cell_in_row_major_order(self, tmp_path, monkeypatch, sim_row, reported):
        # upper_nakagami fails at row 1 (rho = 1e307); a sim_se cell that
        # fails in an earlier row is the one reported, one in the same row is not
        def estimate_se(config):
            if config.rho == rhos[sim_row]:
                raise cli.NumericalError("boom")
            return real(config)

        real, rhos = montecarlo.estimate_se, (1.0, 1e307)
        monkeypatch.setattr(montecarlo, "estimate_se", estimate_se)
        cfg = tmp_path / "order.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\ntrials = 100\n[sweep:s]\nvariable = rho\nvalues = 1.0, 1e307\n"
            "lambda0 = 1.9\nb = 121\nm = 3.2\noutputs = upper_nakagami, sim_se\n"
        )
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 1
        assert err.startswith(f"numerical failure: {reported}"), err
        assert len(err.splitlines()) == 1, err

    def test_rayleigh_upper_where_two_over_rho_overflows(self, tmp_path):
        # 1/rho is finite but 2/rho is not: e^x E1(x) is 0, its limit, at x = inf
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n[sweep:r]\nvariable = rho\nvalues = 6e-309, 1\nlambda0 = 1.9\n"
            "b = 121\nm = 3.2\noutputs = upper_nakagami, upper_rayleigh, lower\n"
        )
        rc, _, err = run_main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert rc == 0, err
        header, *rows = read_csv(tmp_path / "out" / "r.csv")
        for row in rows:
            for column, cell in zip(header, row):
                if column != "units":
                    assert 0.0 < float(cell) < math.inf, (column, cell)

    def test_infeasible_is_3(self, tmp_path):
        cfg = tmp_path / "infeasible.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[throughput]\nlambda0 = 1.9\nsnr_coeff = 0.01\nt_f = 5e-6\nn_b = 4\n"
            "velocity = 11.1\ncarrier_freq = 60e9\n"
        )
        out_dir = tmp_path / "out"
        res = run_python("-m", "beamsim.cli", "throughput", "--config", str(cfg), "--out-dir", str(out_dir))
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr == (
            "infeasible configuration: no beam count achieves positive throughput "
            "(F_t=0.12407402529953958 with N_b=4)\n"
        )
        # decided from the config, before --out-dir is created
        assert not out_dir.exists()

    def test_unconverged_planner_is_1(self, config_path, tmp_path, monkeypatch):
        # Brent's ConvergenceError reaches main as it is: one stderr line naming brent_root
        monkeypatch.setattr(specfun, "_BRENT_MAXITER", 3)
        rc, out, err = run_main("throughput", "--config", str(config_path), "--out-dir", str(tmp_path / "out"))
        assert rc == 1 and out == ""
        assert err.startswith("numerical failure: brent_root did not converge in 3 steps"), err
        assert len(err.splitlines()) == 1, err
        assert not list((tmp_path / "out").iterdir())

    def test_planner_where_its_gap_overflows(self, tmp_path):
        # (1/F_t)^2 K ~ 3e311: the stationarity gap passes the float range
        # inside the planner's bracket, and B* is still a finite value
        cfg = tmp_path / "far.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[throughput]\nlambda0 = 1.9\nsnr_coeff = 5.7e11\nt_f = 5e-6\nt_total = 1e145\n"
        )
        rc, out, err = run_main("throughput", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert rc == 0, err
        header, row = read_csv(tmp_path / "throughput.csv")
        b_star = float(row[header.index("b_star_numeric")])
        assert 1.0 < b_star < (1e145 / 1e-5) ** 2

    SWEEP_HEAD = "[run]\nschema_version = 1\n[sweep:s]\nvariable = lambda0\nb = 121\nsnr_coeff = 0.01\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("bounds", "lambda0 = 1.9\n", "cannot parse config {cfg}: File contains no section headers. "
             "file: '{cfg}', line: 1 'lambda0 = 1.9\\n'"),
            ("bounds", "[bounds]\nlambda0 = 1.9\n", "[run] section with schema_version is required"),
            ("bounds", "[run]\nschema_version = 1\n[bounds]\nlambda0 = 1.9\nb = 121\n",
             "[bounds] needs 'snr_coeff' or all of intercept_c, distance_d, alpha, noise_power"),
            ("sweep", SWEEP_HEAD + "start = 1.0\nstop = 2.0\noutputs = lower\n",
             "[sweep:s] needs 'values' or the triple start/stop/count"),
            ("sweep", SWEEP_HEAD + "start = 1.0\nstop = 1.0\ncount = 3\noutputs = lower\n",
             "[sweep:s] start = 1.0, stop = 1.0, count = 3: must give numbers, finite and strictly "
             "increasing (the lambda0 grid)"),
            ("throughput", "[run]\nschema_version = 1\n[throughput]\nlambda0 = 1.9\nsnr_coeff = 0.01\n"
             "t_f = 5e-6\n", "[throughput] needs 't_total' or 'velocity' (+ carrier_freq) for throughput outputs"),
            ("bounds", "[run]\nschema_version = 1\n", "config must contain a [bounds] section for 'bounds'"),
            ("sweep", SWEEP_HEAD + "values = 1.0, 2.0\nt_f = 5e-6\nt_total = 0.01\noutputs = tp\n",
             "[sweep:s] 'tp' output needs a 'b_values' list"),
            ("sweep", "[run]\nschema_version = 1\n", "config contains no [sweep:NAME] sections"),
            ("validate", None, "--criteria expects integers, got '1,x'"),
        ],
        ids=["unparsable", "no_run", "no_snr_coeff", "no_grid", "collapsed_grid", "no_t_total",
             "no_point_section", "tp_without_b_values", "no_sweep", "criteria_not_integers"],
    )
    def test_config_error_writes_nothing(self, tmp_path, command, text, message):
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        if text is None:
            args = ["--criteria", "1,x"]
        else:
            cfg.write_text(text)
            args = ["--config", str(cfg)]
        rc, stdout, err = run_main(command, *args, "--out-dir", str(out))
        assert rc == 2, stdout + err
        assert err == f"config error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    BOUNDS_BODY = b"[run]\nschema_version = 1\n[bounds]\nlambda0 = 1.9\nb = 121\nsnr_coeff = 0.01\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"[run]\nschema_version = 1\n; caf\xe9\n",
             "cannot parse config {cfg}: 'utf-8' codec can't decode byte 0xe9 in position 30: "
             "invalid continuation byte"),
            (b"[run]\nschema_version = 1\nxx\n",
             "cannot parse config {cfg}: Source contains parsing errors: '{cfg}' [line  3]: 'xx\\n'"),
            (b"[DEFAULT]\nlambda0 = 1.9\n" + BOUNDS_BODY,
             "unknown section [DEFAULT]; known: run, simulate, bounds, throughput, sweep:NAME"),
            (b"[DEFAULT]\n" + BOUNDS_BODY,
             "unknown section [DEFAULT]; known: run, simulate, bounds, throughput, sweep:NAME"),
        ],
        ids=["not_utf8", "parsing_errors", "default_section", "empty_default_section"],
    )
    def test_unreadable_config_is_one_line(self, tmp_path, data, message):
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg.write_bytes(data)
        rc, stdout, err = run_main("bounds", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2, stdout + err
        assert err == f"config error: {message.format(cfg=cfg)}\n"
        assert stdout == ""
        assert not list(out.glob("*.csv")) and not (out / "run_manifest.jsonl").exists()

    def test_config_may_start_with_a_bom(self, tmp_path):
        cfg, out = tmp_path / "bom.ini", tmp_path / "out"
        cfg.write_bytes(b"\xef\xbb\xbf" + self.BOUNDS_BODY)
        rc, _, err = run_main("bounds", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 0, err
        assert read_csv(out / "bounds.csv")[1][0] == "1.9"


# Values at and beyond the float range, and not numbers at all; then ordinary ones.
EXTREME_VALUES = ["0", "-0", "5e-324", "1e-308", "1e308", "inf", "-inf", "nan", "abc", "1" + "0" * 199]
ORDINARY_VALUES = {
    "lambda0": ["0.5", "3.5"], "b": ["1", "16"], "m": ["0.5", "1"], "snr_coeff": ["1", "1e-6"],
    "t_f": ["1e-6", "1e-3"], "t_total": ["1e-3", "1"], "n_b": ["1", "8"], "k_db": ["0", "10"],
    "velocity": ["1", "30"], "rho": ["0.5", "10"], "trials": ["1", "200"],
}


def gate_sections():
    """The sections the gate starts from: BASE_CONFIG's [run] (at 200
    trials) and point sections, and a sweep that asks for every output."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_CONFIG)
    sections = {name: dict(parser[name]) for name in parser.sections() if not name.startswith("sweep:")}
    sections["run"]["trials"] = "200"
    sections["sweep:gate"] = {
        "variable": "lambda0", "values": "1.9", "lambda0": "1.9", "b": "121", "m": "3.2", "snr_coeff": "0.01",
        "t_f": "5e-6", "velocity": "1", "carrier_freq": "60e9", "b_values": "16, 121",
        "outputs": ", ".join(cli.OUTPUT_TAGS),
    }
    return sections


def drawn_value(key):
    """A value for ``key`` (a config key or the sweep variable rho): an
    extreme one, an ordinary one or one of its choices."""
    choices = cli.KEYS[key].choices if key in cli.KEYS else ()
    return st.sampled_from(EXTREME_VALUES + ORDINARY_VALUES.get(key, []) + list(choices))


def changes(kind):
    """Up to three keys that sections of ``kind`` accept, as ``cli.KEYS``
    lists them, each set to a drawn value."""
    keys = [key for key, row in cli.KEYS.items() if kind in row.sections]
    pair = st.sampled_from(keys).flatmap(lambda key: st.tuples(st.just(key), drawn_value(key)))
    return st.lists(pair, max_size=3).map(dict)


SWEPT = st.sampled_from(cli.SWEEP_VARIABLES).flatmap(lambda var: st.tuples(st.just(var), drawn_value(var)))
PLANNER_OPTIMA = ("b_star_numeric", "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed")


class TestBadInputProperty:
    """Any value of any key, in every section that accepts it, ends in exit
    0 with finite cells, or in exit 1, 2 or 3 with one stderr line (a set key
    named for 2) and no output."""

    @staticmethod
    def check_run(name, changed, named=(), finite_or_empty=()):
        """Run the command of section ``name`` (``simulate`` for [run]) with
        the ``changed`` keys set; an exit 2 names one of them or ``named``."""
        target = "simulate" if name == "run" else name
        command = target.partition(":")[0]
        gate = gate_sections()
        sections = {"run": gate["run"], target: gate[target]}
        sections[name].update(changed)
        text = "".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
            for section, keys in sections.items()
        )
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.ini"
            cfg.write_text(text)
            out = Path(tmp) / "out"
            rc, _, err = run_main(command, "--config", str(cfg), "--out-dir", str(out))
            if rc == 0:
                assert err == ""
                for path in out.glob("*.csv"):
                    header, *rows = read_csv(path)
                    for row in rows:
                        for col, cell in zip(header, row):
                            if col == "units" or (col in finite_or_empty and cell == ""):
                                continue
                            assert math.isfinite(float(cell)), (path.name, col, cell, changed)
                return
            assert rc in (1, 2, 3), (rc, err)
            assert len(err.splitlines()) == 1, err
            if rc == 2:
                assert err.startswith(f"config error: [{name}] "), err
                assert any(re.search(rf"\b{key}\b", err) for key in [*changed, *named]), (err, changed)
            assert not (out / "run_manifest.jsonl").exists()
            assert not list(out.glob("*.csv"))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(changed=changes("run"))
    def test_run_values(self, changed):
        self.check_run("run", changed)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["simulate", "bounds"]), changed=changes("simulate"))
    def test_point_values(self, kind, changed):
        self.check_run(kind, changed)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(changed=changes("throughput"))
    def test_throughput_values(self, changed):
        # the closed form is left empty where its approximation does not apply
        self.check_run("throughput", changed, finite_or_empty=("b_star_closed", "hpbw_star_closed"))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(swept=SWEPT, changed=changes("sweep:NAME"))
    def test_sweep_values(self, swept, changed):
        # each sweepable key both fixed (drawn in ``changed``) and swept; an
        # infeasible point leaves its planner optima empty
        variable, value = swept
        keys = {"variable": variable, "values": value, **changed}
        self.check_run("sweep:gate", keys, named=[keys["variable"]], finite_or_empty=PLANNER_OPTIMA)


class TestValidateCommand:
    def test_report_shape(self, tmp_path):
        res = run_python(
            "-m", "beamsim.cli", "validate", "--criteria", "5,6,10", "--seed", "1", "--trials", "2000", cwd=tmp_path
        )
        assert res.returncode == 0, res.stdout + res.stderr
        lines = res.stdout.splitlines()
        assert lines[0].startswith("beamsim validation")
        assert lines[-1].startswith("RESULT: 3/3")
        assert all("PASS" in line for line in lines[1:-1])

    def test_fault_injection_names_specfun(self, monkeypatch):
        # a kernel 1e-6 off its quadrature oracle fails criterion 10 by name
        exact = specfun.reg_lower_gamma
        monkeypatch.setattr(specfun, "reg_lower_gamma", lambda m, x: exact(m, x) + 1e-6)
        rc, out, err = run_main("validate", "--criteria", "10", "--seed", "1", "--trials", "2000")
        assert rc == 1, err
        assert "[10] specfun-kernel" in out and "FAIL" in out
        assert "specfun" in err

    def test_unknown_criterion_is_2(self, tmp_path):
        res = run_python("-m", "beamsim.cli", "validate", "--criteria", "99", cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_units_is_rejected(self, tmp_path):
        # the report is in nats: --units is not one of validate's flags
        res = run_python("-m", "beamsim.cli", "validate", "--criteria", "5", "--units", "bits", cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout == ""
        assert "error: unrecognized arguments: --units bits" in res.stderr

    @pytest.mark.parametrize("criteria", [",", ""], ids=["comma", "empty"])
    def test_no_criterion_is_2(self, criteria):
        rc, out, err = run_main("validate", "--criteria", criteria, "--trials", "200")
        assert rc == 2, out + err
        assert out == ""
        assert err == f"config error: --criteria names no criterion, got {criteria!r}\n"


class TestImportHygiene:
    def test_no_scipy_at_runtime(self, tmp_path):
        # scipy is a test-only dependency: a bounds-and-plan sweep, a sim_se
        # sweep of each fading law (whose quantile tables are built here) and
        # the quadrature/planner criteria must run without importing any of it
        cfg = tmp_path / "bp.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\ntrials = 2000\n"
            "[sweep:nakagami]\nvariable = m\nvalues = 0.7, 3.2\nlambda0 = 1.9\nb = 121\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
            "[sweep:rayleigh]\nvariable = lambda0\nvalues = 1.0, 16.0\nb = 16\nsnr_coeff = 0.01\n"
            "outputs = sim_se\n"
            "[sweep:rician]\nvariable = k_db\nvalues = 0, 10\nlambda0 = 3.5\nb = 625\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
            "[sweep:b]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = upper_nakagami, upper_rayleigh, lower, sparse\n"
            "[sweep:plan]\nvariable = velocity\nvalues = 1.0, 5.0, 11.1\nlambda0 = 1.9\nb = 121\n"
            "snr_coeff = 0.01\nt_f = 5e-6\nn_b = 4\ncarrier_freq = 60e9\nb_values = 16, 121\n"
            "outputs = tp, b_star_numeric, b_star_closed, hpbw_star\n"
        )
        script = (
            "import sys\n"
            "import beamsim.cli\n"
            f"assert beamsim.cli.main(['sweep', '--config', {str(cfg)!r}, '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert beamsim.cli.main(['validate', '--criteria', '5,6,9,10', '--trials', '2000']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print('scipy modules:', loaded)\n"
            "sys.exit(1 if loaded else 0)\n"
        )
        res = run_python("-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "scipy modules: []" in res.stdout

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", None)], ids=["unset", "omp_set"])
    def test_import_caps_blas_threads_and_defers_stdlib(self, tmp_path, preset, expected):
        # The package caps OpenBLAS at one thread before numpy loads unless a
        # thread variable is set, and `import beamsim.cli` leaves
        # `subprocess` and `concurrent.futures` unloaded (they stay unloaded
        # through a run: see test_run_spawns_no_process and
        # test_monte_carlo_runs_load_no_pool_modules), numpy.random with
        # the secrets module it imports, and the Monte Carlo engine and the
        # validation suite uncompiled.
        script = COMPILE_HOOK + (
            "import beamsim.cli\n"
            "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
            "print(sorted(m for m in ('subprocess', 'concurrent.futures', 'numpy.random', 'secrets')\n"
            "             if m in sys.modules))\n"
            "print(sorted(set(compiled) & {'montecarlo.py', 'validation.py'}))\n"
        )
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        if preset is not None:
            env["OMP_NUM_THREADS"] = preset
        res = run_python(*compile_flags(tmp_path), "-c", script, cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [repr(expected), "[]", "[]"]

    @pytest.mark.parametrize(
        "runs, wanted, unwanted",
        [
            ([["sweep", "--config", "{plan}"], ["bounds", "--config", "{base}"], ["throughput", "--config", "{base}"]],
             {"cli.py", "analytic.py", "throughput.py"}, {"montecarlo.py", "validation.py", "quantile.py"}),
            ([["sweep", "--config", "{sim}"]], {"montecarlo.py", "quantile.py"}, {"validation.py"}),
            ([["validate", "--criteria", "5"]], {"validation.py"}, set()),
        ],
        ids=["bounds_and_plan", "sim_se", "validate"],
    )
    def test_command_compiles_only_what_it_runs(self, tmp_path, config_path, runs, wanted, unwanted):
        # montecarlo and validation load on first use: a run that neither
        # simulates nor validates never compiles them (nor the quantile
        # tables the engine builds)
        plan, sim = tmp_path / "plan.ini", tmp_path / "sim.ini"
        plan.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:b]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = upper_nakagami, upper_rayleigh, lower, sparse\n"
            "[sweep:plan]\nvariable = velocity\nvalues = 1.0, 11.1\nlambda0 = 1.9\nb = 121\n"
            "snr_coeff = 0.01\nt_f = 5e-6\nn_b = 4\ncarrier_freq = 60e9\nb_values = 16, 121\n"
            "outputs = tp, b_star_numeric, b_star_closed, hpbw_star\n"
        )
        sim.write_text(
            "[run]\nschema_version = 1\ntrials = 2000\n"
            "[sweep:mc]\nvariable = lambda0\nvalues = 1.0, 3.5\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
        )
        paths = {"plan": plan, "sim": sim, "base": config_path}
        script = COMPILE_HOOK + "import beamsim.cli\n"
        for args in runs:
            argv = [arg.format(**paths) for arg in args] + ["--out-dir", str(tmp_path / "out")]
            script += f"assert beamsim.cli.main({argv!r}) == 0\n"
        script += "print(*sorted(compiled))\n"
        res = run_python(*compile_flags(tmp_path), "-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        compiled = set(res.stdout.splitlines()[-1].split())
        assert wanted <= compiled and not unwanted & compiled, compiled

    def test_public_names_resolve(self, tmp_path):
        # the engine's names re-exported by the package resolve through its
        # module __getattr__, in a process that has not loaded the engine
        script = (
            "import beamsim\n"
            "from beamsim import EmpiricalCdf, SimConfig, estimate_se\n"
            "assert estimate_se is beamsim.montecarlo.estimate_se\n"
            "assert [name for name in beamsim.__all__ if name not in dir(beamsim)] == []\n"
            "for name in beamsim.__all__:\n"
            "    getattr(beamsim, name)\n"
            "try:\n"
            "    beamsim.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        res = run_python("-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "module 'beamsim' has no attribute 'no_such_name'\n"

    def test_first_use_from_threads_waits_for_the_load(self, tmp_path):
        # More threads than cores read the lazy modules at once, with a short
        # switch interval: each waits until the module's code has run, where
        # importlib's LazyLoader let all but the first read a half-run module
        script = (
            "import sys, threading\n"
            "import beamsim\n"
            "barrier, errors = threading.Barrier(4), []\n"
            "def use():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        beamsim.estimate_se, beamsim.validation.run_validation\n"
            "    except AttributeError as exc:\n"
            "        errors.append(exc)\n"
            "interval = sys.getswitchinterval()\n"
            "sys.setswitchinterval(1e-5)\n"
            "try:\n"
            "    threads = [threading.Thread(target=use) for _ in range(4)]\n"
            "    for thread in threads:\n"
            "        thread.start()\n"
            "    for thread in threads:\n"
            "        thread.join(timeout=60)\n"
            "finally:\n"
            "    sys.setswitchinterval(interval)\n"
            "print(sum(thread.is_alive() for thread in threads), errors)\n"
        )
        res = run_python("-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "0 []\n"

    @pytest.mark.parametrize(
        "args, names",
        [
            (["sweep", "--config", "{sim}", "--out-dir", "{out}"], {"montecarlo.estimate_se", "rng.substream"}),
            (["validate", "--criteria", "2", "--trials", "1000"],
             {"montecarlo.estimate_se", "rng.substream", "validation.c02"}),
        ],
        ids=["sim_se", "validate"],
    )
    def test_benchmark_tracer_sees_lazy_modules(self, tmp_path, args, names):
        # perfbench's tracer patches its targets when it is installed, after
        # `import beamsim.cli`; its own attribute reads load the lazy modules
        sim = tmp_path / "sim.ini"
        sim.write_text(
            "[run]\nschema_version = 1\ntrials = 2000\n"
            "[sweep:mc]\nvariable = lambda0\nvalues = 1.0, 3.5\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
        )
        launch = SRC_DIR.parent / "perfbench" / "launch.py"
        timings, spans = tmp_path / "timings.json", tmp_path / "spans.json"
        argv = [arg.format(sim=sim, out=tmp_path / "out") for arg in args]
        res = run_python(str(launch), str(timings), "--spans", str(spans), "--", *argv, cwd=tmp_path)
        assert res.returncode == json.loads(timings.read_text())["exit_code"], res.stderr
        assert "Traceback" not in res.stderr, res.stderr
        recorded = {span[1] for span in json.loads(spans.read_text())["spans"]}
        assert names <= recorded, recorded

    def test_draw_free_run_loads_no_random_machinery(self, tmp_path, config_path):
        # Commands that neither draw nor derive a seed leave numpy.random and
        # the OpenSSL-backed secrets module it imports unloaded; a Monte
        # Carlo run loads numpy.random on its first seed.
        cfg = tmp_path / "bp.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:b]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = upper_nakagami, upper_rayleigh, lower, sparse\n"
            "[sweep:plan]\nvariable = velocity\nvalues = 1.0, 11.1\nlambda0 = 1.9\nb = 121\n"
            "snr_coeff = 0.01\nt_f = 5e-6\nn_b = 4\ncarrier_freq = 60e9\nb_values = 16, 121\n"
            "outputs = tp, b_star_numeric, b_star_closed, hpbw_star\n"
        )
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "import beamsim.cli\n"
            "def loaded():\n"
            "    print('loaded:', sorted(m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules))\n"
            f"assert beamsim.cli.main(['sweep', '--config', {str(cfg)!r}, '--out-dir', {str(out)!r}]) == 0\n"
            "for kind in ('bounds', 'throughput'):\n"
            f"    assert beamsim.cli.main([kind, '--config', {str(config_path)!r}, '--out-dir', {str(out)!r}]) == 0\n"
            "loaded()\n"
            f"assert beamsim.cli.main(['simulate', '--config', {str(config_path)!r}, '--trials', '2000',\n"
            f"                         '--out-dir', {str(out)!r}]) == 0\n"
            "loaded()\n"
        )
        res = run_python("-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        before, after = [line for line in res.stdout.splitlines() if line.startswith("loaded:")]
        assert before == "loaded: []"
        assert "'numpy.random'" in after

    def test_monte_carlo_runs_load_no_pool_modules(self, tmp_path):
        # The engine draws its chunks in the caller, so neither the
        # determinism criterion nor a sim_se sweep imports a thread pool or
        # the logging it pulls in.
        cfg = tmp_path / "mc.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\ntrials = 40000\n"
            "[sweep:mc]\nvariable = lambda0\nvalues = 1.0, 3.5\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
        )
        script = (
            "import sys\n"
            "import beamsim.cli\n"
            "assert beamsim.cli.main(['validate', '--criteria', '11', '--trials', '40000']) == 0\n"
            f"assert beamsim.cli.main(['sweep', '--config', {str(cfg)!r}, '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "print('pool modules:', sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
        )
        res = run_python("-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "pool modules: []" in res.stdout

    def test_run_spawns_no_process(self, tmp_path, config_path):
        # The manifest reads its version from the checkout's files: a sweep or
        # point command neither imports subprocess nor starts a git process.
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:b]\nvariable = lambda0\nvalues = 1.0, 1.9\nb = 121\nm = 3.2\n"
            "snr_coeff = 0.01\noutputs = upper_nakagami, upper_rayleigh, lower, sparse\n"
        )
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "import beamsim.cli\n"
            f"assert beamsim.cli.main(['sweep', '--config', {str(cfg)!r}, '--out-dir', {str(out)!r}]) == 0\n"
            f"assert beamsim.cli.main(['bounds', '--config', {str(config_path)!r}, '--out-dir', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in ('subprocess', '_posixsubprocess') if m in sys.modules))\n"
        )
        res = run_python("-c", script, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"
        entries = [json.loads(line) for line in (out / "run_manifest.jsonl").read_text().splitlines()]
        assert [entry["kind"] for entry in entries] == ["sweep", "bounds"]
        assert all(entry["version"] == cli._version_string() for entry in entries)
