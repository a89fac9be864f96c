"""CLI surface: subcommands, config schema, CSV/manifest output, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

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


def run_cli(*args, env_extra=None, cwd=None):
    """Run ``python -m beamsim.cli`` in a child process.

    The absolute ``src`` directory goes first on the child's ``PYTHONPATH`` so
    the package imports from any ``cwd``, installed or not; inherited entries
    are kept after it. An inherited ``BEAMSIM_FAULT_INJECT`` is dropped unless
    ``env_extra`` sets it.
    """
    env = dict(os.environ)
    env.pop("BEAMSIM_FAULT_INJECT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "beamsim.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


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
        res = run_cli("simulate", "--config", str(config_path), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out / "simulate.csv")
        assert rows[0] == ["lambda0", "b", "m_eff", "sim_se", "sim_ci95", "trials", "units"]
        assert rows[1][-1] == "nats"
        assert float(rows[1][3]) > 0

    def test_bounds_and_units(self, config_path, tmp_path):
        out_n = tmp_path / "n"
        out_b = tmp_path / "b"
        assert run_cli("bounds", "--config", str(config_path), "--out-dir", str(out_n)).returncode == 0
        assert run_cli("bounds", "--config", str(config_path), "--out-dir", str(out_b), "--units", "bits").returncode == 0
        row_n = read_csv(out_n / "bounds.csv")[1]
        row_b = read_csv(out_b / "bounds.csv")[1]
        # every bound column scales by 1/ln 2; the units tag flips
        for idx in (4, 5, 6, 7):
            assert float(row_b[idx]) == pytest.approx(float(row_n[idx]) / math.log(2.0), rel=1e-12)
        assert row_n[-1] == "nats" and row_b[-1] == "bits"

    def test_throughput(self, config_path, tmp_path):
        out = tmp_path / "out"
        res = run_cli("throughput", "--config", str(config_path), "--out-dir", str(out))
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
        res = run_cli("sweep", "--config", str(config_path), "--out-dir", str(out))
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
        res = run_cli("sweep", "--config", str(cfg), "--out-dir", str(out))
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
        res = run_cli("sweep", "--config", str(cfg), "--out-dir", str(out))
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
        assert run_cli("sweep", "--config", str(cfg), "--out-dir", str(out)).returncode == 0
        rows = read_csv(out / "r.csv")
        lows = [float(r[1]) for r in rows[1:]]
        assert lows[0] < lows[1] < lows[2]

    def test_manifest_provenance(self, config_path, tmp_path):
        out = tmp_path / "out"
        run_cli("sweep", "--config", str(config_path), "--out-dir", str(out))
        entries = [json.loads(line) for line in (out / "run_manifest.jsonl").read_text().splitlines()]
        assert len(entries) == 2
        for entry in entries:
            assert entry["seed"] == 42
            assert entry["trials"] == 5000
            assert entry["units"] == "nats"
            assert "version" in entry and "wall_time_s" in entry
            assert entry["stream"] == 2
            # defaults the user did not set are recorded
            assert "seed" in entry["config_resolved"]


class TestDeterminism:
    def test_sweep_csv_bytes(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("sweep", "--config", str(config_path), "--out-dir", str(out1))
        run_cli("sweep", "--config", str(config_path), "--out-dir", str(out2))
        for name in ("demo.csv", "plan.csv", "plan_tp.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_validate_report_bytes(self, tmp_path):
        args = ("validate", "--criteria", "5,10", "--seed", "3", "--trials", "2000")
        r1 = run_cli(*args, cwd=tmp_path)
        r2 = run_cli(*args, cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout and r1.stdout


class TestExitCodes:
    def test_bad_schema_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nschema_version = 7\n")
        res = run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "schema_version" in res.stderr

    def test_missing_config_is_2(self, tmp_path):
        res = run_cli("sweep", "--config", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path))
        assert res.returncode == 2

    def test_empty_sweep_values_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:x]\nvariable = lambda0\nvalues =\nb = 121\nsnr_coeff = 0.01\noutputs = lower\n"
        )
        res = run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "values" in res.stderr

    def test_unknown_output_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:x]\nvariable = lambda0\nvalues = 1, 2\nb = 121\nsnr_coeff = 0.01\noutputs = bogus\n"
        )
        res = run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "bogus" in res.stderr

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("simulate", "snr_coeff = 0.01", "snr_coeff = inf"),
            ("simulate", "m = 3.2", "k_db = nan"),
            ("simulate", "m = 3.2", "m = 0.3"),
            ("simulate", "lambda0 = 1.9", "lambda0 = 1e308"),
            ("bounds", "lambda0 = 1.9", "lambda0 = 1e308"),
            ("simulate", "snr_coeff = 0.01", DERIVED_LINK.format(d="0")),
            ("simulate", "snr_coeff = 0.01", DERIVED_LINK.format(d="1e-200")),
            ("throughput", "t_total = 0.01", "t_total = inf"),
            ("throughput", "t_f = 5e-6", "t_f = inf"),
        ],
        ids=[
            "snr_coeff_inf", "k_db_nan", "m_below_half", "lambda0_huge", "bounds_lambda0_huge",
            "distance_d_zero", "distance_d_tiny", "t_total_inf", "t_f_inf",
        ],
    )
    def test_bad_point_value_is_2(self, tmp_path, kind, old, new):
        head, section, rest = BASE_CONFIG.partition(f"[{kind}]")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(head + section + rest.replace(old, new, 1))
        out = tmp_path / "out"
        res = run_cli(kind, "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"config error: [{kind}] ")
        assert len(res.stderr.splitlines()) == 1, res.stderr
        if new.startswith("intercept_c"):
            for key in ("intercept_c", "distance_d", "alpha", "noise_power"):
                assert f"{key} = " in res.stderr, res.stderr
        if kind == "throughput":
            assert new.split(" = ")[0] in res.stderr, res.stderr
        assert not (out / f"{kind}.csv").exists()
        assert not (out / "run_manifest.jsonl").exists()

    def test_bad_swept_value_is_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[sweep:x]\nvariable = m\nvalues = 0.3, 1.0\nlambda0 = 1.9\nb = 121\n"
            "snr_coeff = 0.01\noutputs = sim_se\n"
        )
        res = run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: [sweep:x] ")
        assert len(res.stderr.splitlines()) == 1, res.stderr

    def test_infeasible_is_3(self, tmp_path):
        cfg = tmp_path / "infeasible.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
            "[throughput]\nlambda0 = 1.9\nsnr_coeff = 0.01\nt_f = 5e-6\nn_b = 4\n"
            "velocity = 11.1\ncarrier_freq = 60e9\n"
        )
        res = run_cli("throughput", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert res.returncode == 3
        assert "infeasible" in res.stderr.lower()


class TestValidateCommand:
    def test_report_shape(self, tmp_path):
        res = run_cli("validate", "--criteria", "5,6,10", "--seed", "1", "--trials", "2000", cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        lines = res.stdout.splitlines()
        assert lines[0].startswith("beamsim validation")
        assert lines[-1].startswith("RESULT: 3/3")
        assert all("PASS" in line for line in lines[1:-1])

    def test_fault_injection_names_specfun(self, tmp_path):
        res = run_cli(
            "validate", "--criteria", "10", "--seed", "1", "--trials", "2000",
            env_extra={"BEAMSIM_FAULT_INJECT": "specfun"},
            cwd=tmp_path,
        )
        assert res.returncode != 0, res.stderr
        assert "specfun" in res.stderr

    def test_unknown_criterion_is_2(self, tmp_path):
        res = run_cli("validate", "--criteria", "99", cwd=tmp_path)
        assert res.returncode == 2, res.stderr


class TestImportHygiene:
    def test_no_scipy_at_runtime(self, tmp_path):
        # scipy is a test-only dependency: a bounds-and-plan sweep and the
        # quadrature/planner criteria must run without importing any of it
        cfg = tmp_path / "bp.ini"
        cfg.write_text(
            "[run]\nschema_version = 1\n"
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
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("BEAMSIM_FAULT_INJECT", None)
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert res.returncode == 0, res.stdout + res.stderr
        assert "scipy modules: []" in res.stdout
