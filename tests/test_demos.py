"""The demos run end to end: each sweep config through ``beamsim sweep``,
and the README's config example."""

import configparser
import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from beamsim import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SWEEP_CONFIGS = ("se_bounds_vs_path_density", "se_vs_beam_count", "rician_fading", "beam_count_planning")
PLANNER_COLUMNS = ("b_star_numeric", "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed")
# No beam count fits the coherence interval at this velocity (60 GHz carrier).
INFEASIBLE_VELOCITY = 11.1


def run_python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


def expected_csvs(config: Path) -> list[str]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config, encoding="utf-8")
    names = []
    for section in parser.sections():
        if section.startswith("sweep:"):
            stem = section.split(":", 1)[1]
            tags = parser[section]["outputs"].replace(",", " ").split()
            names += [f"{stem}.csv"] + ([f"{stem}_tp.csv"] if "tp" in tags else [])
    return names


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_sweep_config_writes_finite_cells(tmp_path, name):
    config = DEMOS / f"{name}.ini"
    res = run_python(
        "-m", "beamsim.cli", "sweep", "--config", str(config), "--trials", "2000",
        "--out-dir", str(tmp_path), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    csv_names = expected_csvs(config)
    assert csv_names
    for csv_name in csv_names:
        with open(tmp_path / csv_name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows, csv_name
        for row in rows:
            infeasible = header[0] == "velocity" and float(row[0]) == INFEASIBLE_VELOCITY
            for col, cell in zip(header, row):
                if col == "units":
                    assert cell == "nats"
                elif infeasible and col in PLANNER_COLUMNS:
                    assert cell == "", (csv_name, col, row)
                else:
                    assert math.isfinite(float(cell)), (csv_name, col, row)


def readme_config_block():
    blocks = re.findall(r"^```ini\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_block_states_every_key():
    # every key appears, set or as a commented-out alternative, after a
    # "; key: domain" line in the words the CLI checks it with
    block = readme_config_block()
    assert set(re.findall(r"^(?:; )?(\w+) = ", block, re.MULTILINE)) == set(cli.KEYS)
    for key, row in cli.KEYS.items():
        assert f"\n; {key}: {row.domain}" in block, key


def test_readme_config_block_runs_verbatim(tmp_path):
    config = tmp_path / "readme.ini"
    config.write_text(readme_config_block(), encoding="utf-8")
    for command in ("simulate", "bounds", "throughput", "sweep"):
        res = run_python(
            "-m", "beamsim.cli", command, "--config", str(config), "--trials", "2000",
            "--out-dir", str(tmp_path / command), cwd=tmp_path,
        )
        assert res.returncode == 0, (command, res.stderr)
