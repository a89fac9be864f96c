"""Experiment runner.

Subcommands::

    beamsim simulate   --config cfg.ini [--seed N --trials N --units U --out-dir D]
    beamsim bounds     --config cfg.ini ...
    beamsim throughput --config cfg.ini ...
    beamsim sweep      --config cfg.ini ...
    beamsim validate   [--seed N --trials N --criteria 1,2,...]

Configs are flat key-value INI text with one ``[sweep:NAME]`` section per
sweep (schema documented in the README).  There is one evaluation path: a
section becomes a point (``_point_from``, with the swept value substituted
in a sweep) and ``_evaluate`` computes that point's named cells.  A sweep
writes one row per value; ``simulate``, ``bounds`` and ``throughput`` are
one-row evaluations with a fixed column tuple each (``POINT_COMMANDS``).
A value the library rejects is a config error naming its section.

Every run writes RFC-4180 CSV files plus a JSON-lines manifest recording
the seed, trial count, units, version, wall time, the fully resolved
configuration including defaults, and the Python and numpy versions and
worker and OpenBLAS thread settings the run had.  CSV bytes depend only on
config + seed, never on timing.

Exit codes: 0 success, 1 numerical failure, 2 config error, 3 infeasible
throughput configuration.  The ``BEAMSIM_THREADS`` environment variable
sets the Monte Carlo worker count (0 = auto).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Sequence

import numpy as np

import beamsim.throughput as throughput

from . import _BLAS_THREAD_VARS, __version__, analytic, validation
from .analytic import SparseModel
from .channel import FadingModel
from .errors import (
    ApproximationInvalidError,
    BeamsimError,
    ConfigError,
    InfeasibleConfigError,
    NumericalError,
)
from .montecarlo import STREAM_VERSION, THREADS_ENV_VAR, SimConfig, estimate_se
from .rng import child_seed

SCHEMA_VERSION = 1
LN2 = math.log(2.0)

SWEEP_VARIABLES = ("lambda0", "b", "m", "k_db", "velocity", "rho")
OUTPUT_TAGS = (
    "sim_se",
    "upper_nakagami",
    "upper_rayleigh",
    "lower",
    "sparse",
    "tp",
    "b_star_numeric",
    "b_star_closed",
    "hpbw_star",
)
# The beam-count planner's cells; a point that asks for one needs a ThroughputConfig.
PLANNER_COLUMNS = ("tp", "best_square_b", "f_t", "n_b", "b_max_feasible", "b_star_numeric",
                   "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed", "tp_at_optimum")


# =====================================================================
#  Config parsing
# =====================================================================

class SectionView:
    """Typed access to one INI section with field-level diagnostics."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = dict(raw)

    def _fetch(self, key: str, default: Any, required: bool) -> str | None:
        if key in self.raw:
            return self.raw[key]
        if required:
            raise ConfigError(f"[{self.name}] missing required key '{key}'")
        return default

    def get_str(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        val = self._fetch(key, default, required)
        return val if val is None else str(val).strip()

    def get_float(self, key: str, default: float | None = None, required: bool = False) -> float | None:
        val = self._fetch(key, default, required)
        if val is None or isinstance(val, float):
            return val
        try:
            return float(val)
        except ValueError:
            raise ConfigError(f"[{self.name}] key '{key}': expected a number, got {val!r}") from None

    def get_int(self, key: str, default: int | None = None, required: bool = False) -> int | None:
        val = self._fetch(key, default, required)
        if val is None or isinstance(val, int):
            return val
        try:
            return int(str(val), 10)
        except ValueError:
            raise ConfigError(f"[{self.name}] key '{key}': expected an integer, got {val!r}") from None

    def get_float_list(self, key: str, required: bool = False) -> list[float] | None:
        val = self._fetch(key, None, required)
        if val is None:
            return None
        items = [tok for tok in str(val).replace(",", " ").split() if tok]
        if not items:
            raise ConfigError(f"[{self.name}] key '{key}': list is empty")
        try:
            return [float(tok) for tok in items]
        except ValueError:
            raise ConfigError(f"[{self.name}] key '{key}': expected numbers, got {val!r}") from None

    def has(self, key: str) -> bool:
        return key in self.raw

    def resolved(self, defaults: dict[str, Any]) -> dict[str, Any]:
        """Raw keys merged over defaults; records what the user left unset."""
        merged = {k: v for k, v in defaults.items()}
        merged.update(self.raw)
        return merged


def load_config(path: str | Path) -> dict[str, SectionView]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    sections = {name: SectionView(name, dict(parser[name])) for name in parser.sections()}
    run = sections.get("run")
    if run is None:
        raise ConfigError("[run] section with schema_version is required")
    version = run.get_int("schema_version", required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"[run] schema_version {version} unsupported (this build expects {SCHEMA_VERSION})"
        )
    return sections


class RunParams:
    """Global run settings: [run] section overridden by CLI flags."""

    def __init__(self, sections: dict[str, SectionView], args: argparse.Namespace):
        run = sections.get("run", SectionView("run", {}))
        self.seed = args.seed if args.seed is not None else (run.get_int("seed", 0) or 0)
        self.trials = args.trials if args.trials is not None else (run.get_int("trials", 10_000) or 10_000)
        self.units = args.units if args.units is not None else (run.get_str("units", "nats") or "nats")
        if self.units not in ("nats", "bits"):
            raise ConfigError(f"[run] units must be 'nats' or 'bits', got {self.units!r}")
        if self.trials < 1:
            raise ConfigError(f"[run] trials must be >= 1, got {self.trials}")

    def defaults_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "trials": self.trials, "units": self.units}


def _fading_for(section: SectionView, key: str, value: float) -> FadingModel:
    """The fading model that ``key`` (``m``, or ``k_db`` in dB) = ``value``
    sets; a value the model rejects is a config error naming the key."""
    try:
        if key == "m":
            return FadingModel.nakagami(value)
        try:
            k_linear = 10.0 ** (value / 10.0)
        except OverflowError:
            k_linear = math.inf
        return FadingModel.rician(k_linear)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {value!r}: {exc}") from None


def _fading_from(section: SectionView) -> FadingModel:
    has_m = section.has("m")
    has_k = section.has("k_db")
    if has_m and has_k:
        raise ConfigError(f"[{section.name}] give either 'm' or 'k_db', not both")
    if has_m:
        return _fading_for(section, "m", section.get_float("m"))
    if has_k:
        return _fading_for(section, "k_db", section.get_float("k_db"))
    return FadingModel.rayleigh()


def _snr_coeff_from(section: SectionView) -> tuple[float, tuple[str, str] | None]:
    """The section's link coefficient and, when it is derived from the
    link-budget keys, its formula and the keys' values for messages."""
    needed = ("intercept_c", "distance_d", "alpha", "noise_power")
    link = None
    if section.has("snr_coeff"):
        what = "snr_coeff"
        val = section.get_float("snr_coeff")
    elif all(section.has(k) for k in needed):
        c, d, a, n = values = [section.get_float(k) for k in needed]
        given = ", ".join(f"{k} = {v!r}" for k, v in zip(needed, values))
        what = "snr_coeff from " + given
        link = ("intercept_c * distance_d^(-alpha) / noise_power", given)
        try:
            val = c * d ** (-a) / n
        except (ZeroDivisionError, OverflowError):
            val = math.nan
    else:
        raise ConfigError(
            f"[{section.name}] needs 'snr_coeff' or all of {', '.join(needed)}"
        )
    # A negative distance with a fractional exponent yields a complex power.
    if not (isinstance(val, float) and math.isfinite(val) and val > 0.0):
        raise ConfigError(f"[{section.name}] {what} must be finite and > 0, got {val!r}")
    return val, link


def _sweep_values(section: SectionView) -> list[float]:
    explicit = section.get_float_list("values")
    if explicit is not None:
        values = explicit
    else:
        if not (section.has("start") and section.has("stop") and section.has("count")):
            raise ConfigError(
                f"[{section.name}] needs 'values' or the triple start/stop/count"
            )
        count = section.get_int("count")
        if count < 2:
            raise ConfigError(f"[{section.name}] count must be >= 2, got {count}")
        values = list(np.linspace(section.get_float("start"), section.get_float("stop"), count))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"[{section.name}] values must be strictly increasing")
    return [float(v) for v in values]


def _outputs_from(section: SectionView) -> list[str]:
    raw = section.get_str("outputs", required=True)
    tags = [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]
    if not tags:
        raise ConfigError(f"[{section.name}] outputs list is empty")
    for tag in tags:
        if tag not in OUTPUT_TAGS:
            raise ConfigError(
                f"[{section.name}] unknown output '{tag}'; known: {', '.join(OUTPUT_TAGS)}"
            )
    return tags


# =====================================================================
#  Point evaluation
# =====================================================================

def _unit_scale(units: str) -> float:
    return 1.0 / LN2 if units == "bits" else 1.0


@contextlib.contextmanager
def _config_errors(section: SectionView):
    """Report a value the library rejects as a config error of ``section``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


class PointSpec:
    """Fully resolved parameters of one evaluation point.

    ``link`` is the formula of a derived ``snr_coeff`` and its keys' values
    (see :func:`_snr_coeff_from`), which a message about rho names."""

    def __init__(
        self,
        lambda0: float,
        b: int,
        fading: FadingModel,
        snr_coeff: float,
        velocity: float | None = None,
        rho_override: float | None = None,
        link: tuple[str, str] | None = None,
    ):
        if not (math.isfinite(lambda0) and lambda0 > 0.0):
            raise ValueError(f"lambda0 must be finite and > 0, got {lambda0}")
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        self.lambda0 = lambda0
        self.b = b
        self.fading = fading
        self.velocity = velocity
        # A direct rho request is honored by rescaling the link coefficient.
        if rho_override is not None:
            if not (math.isfinite(rho_override) and rho_override > 0.0):
                raise ValueError(f"rho must be finite and > 0, got {rho_override}")
            snr_coeff = rho_override * lambda0 / b
            link = None
        self.snr_coeff = snr_coeff
        # the bounds read 1/rho, so it must be finite too
        if not (math.isfinite(self.rho) and self.rho > 0.0 and math.isfinite(1.0 / self.rho)):
            terms, given = link or ("snr_coeff", f"snr_coeff = {snr_coeff!r}")
            raise ValueError(
                f"rho = b * {terms} / lambda0 = {self.rho!r} must be finite and > 0, with 1/rho "
                f"finite (b = {b}, {given}, lambda0 = {lambda0!r})"
            )

    @property
    def rho(self) -> float:
        return self.b * self.snr_coeff / self.lambda0

    @property
    def k(self) -> float:
        return self.snr_coeff / self.lambda0

    def sparse_model(self) -> SparseModel:
        return SparseModel.from_occupancy(
            self.lambda0, self.b, self.fading.effective_nakagami_m()
        )

    def sim_config(self, trials: int, seed: int) -> SimConfig:
        return SimConfig(self.lambda0, self.b, self.rho, self.fading, trials, seed)


def _point_from(
    section: SectionView,
    columns: Sequence[str],
    run: RunParams,
    seed: int | None,
    variable: str | None = None,
    value: float = math.nan,
) -> tuple[PointSpec, throughput.ThroughputConfig | None, SimConfig | None]:
    """The point ``section`` describes, with the sweep ``variable`` (if any)
    set to ``value``, its planner config, None unless ``columns`` name a
    planner cell, and its Monte Carlo config on ``seed``, None unless
    ``columns`` name ``sim_se``."""
    with _config_errors(section):
        lambda0 = value if variable == "lambda0" else section.get_float("lambda0", required=True)
        if variable == "b":
            if not (math.isfinite(value) and value >= 1 and abs(value - round(value)) <= 1e-9):
                raise ValueError(f"swept beam counts must be positive integers, got {value}")
            b = int(round(value))
        elif section.name == "throughput":
            b = section.get_int("b", 1)  # the planner does not depend on b
        else:
            b = section.get_int("b", required=True)
        fading = _fading_from(section)
        if variable in ("m", "k_db"):
            fading = _fading_for(section, variable, value)
        # A swept rho replaces the link coefficient, so it may be left out.
        if variable == "rho" and not section.has("snr_coeff"):
            snr_coeff, link = 1.0, None
        else:
            snr_coeff, link = _snr_coeff_from(section)
        velocity = value if variable == "velocity" else section.get_float("velocity")
        point = PointSpec(
            lambda0, b, fading, snr_coeff, velocity, value if variable == "rho" else None, link
        )
        sim = point.sim_config(run.trials, seed) if "sim_se" in columns else None
    planner = any(column in PLANNER_COLUMNS for column in columns)
    return point, _tp_config(section, point) if planner else None, sim


def _tp_config(section: SectionView, point: PointSpec) -> throughput.ThroughputConfig:
    t_f = section.get_float("t_f", required=True)
    n_b = section.get_int("n_b", 4)
    with _config_errors(section):
        if section.has("t_total"):
            t_total = section.get_float("t_total")
        elif point.velocity is not None:
            carrier = section.get_float("carrier_freq", required=True)
            model_tag = section.get_str("tc_model", "clarke")
            if model_tag != "clarke":
                raise ConfigError(
                    f"[{section.name}] unknown tc_model {model_tag!r}; registered: clarke"
                )
            t_total = throughput.coherence_time(point.velocity, carrier)
        else:
            raise ConfigError(
                f"[{section.name}] needs 't_total' or 'velocity' (+ carrier_freq) for throughput outputs"
            )
        return throughput.ThroughputConfig(
            t_f=t_f, t_total=t_total, k=point.k, lambda0=point.lambda0, n_b=n_b
        )


TP_CURVE_COLUMNS = ["b", "tp", "tp_raw", "units"]


def _b_values(section: SectionView) -> list[float]:
    """The section's ``b_values`` grid, empty without one."""
    b_values = section.get_float_list("b_values") or []
    for b in b_values:
        if not (math.isfinite(b) and b >= 1.0):
            raise ConfigError(f"[{section.name}] b_values entries must be finite and >= 1, got {b!r}")
    return b_values


def _tp_rows(cfg: throughput.ThroughputConfig, section: SectionView, run: RunParams) -> list[list[Any]]:
    """Throughput-curve rows (``TP_CURVE_COLUMNS``) over the section's
    ``b_values``, none without them; ``tp`` clamps ``tp_raw`` at zero."""
    scale = _unit_scale(run.units)
    rows = []
    for b in _b_values(section):
        raw = throughput.throughput_continuous(b, cfg) * scale
        rows.append([b, max(raw, 0.0), raw, run.units])
    return rows


def _evaluate(
    columns: Sequence[str],
    point: PointSpec,
    cfg: throughput.ThroughputConfig | None,
    sim: SimConfig | None,
    section: SectionView,
    run: RunParams,
) -> dict[str, Any]:
    """Named cells of one point: its ``lambda0``, ``b``, ``m_eff``, ``rho``
    and ``units``, plus every cell ``columns`` names.

    ``cfg`` is the point's planner config and ``sim`` its Monte Carlo
    config; each is None when no column needs it.  ``sim_se`` comes with
    ``sim_ci95`` and ``trials``; any planner column brings every planner
    optimum plus ``f_t`` and ``n_b``.  ``tp`` holds the throughput-curve
    rows of :func:`_tp_rows`.  Planner cells of an infeasible point are
    None, as are the closed-form cells wherever that approximation does not
    apply.
    """
    scale = _unit_scale(run.units)
    m_eff = point.fading.effective_nakagami_m()
    cells: dict[str, Any] = {
        "lambda0": point.lambda0, "b": point.b, "m_eff": m_eff, "rho": point.rho, "units": run.units,
    }
    model = None
    for column in columns:
        if column in cells:
            continue
        try:
            if column in ("sim_se", "sim_ci95", "trials"):
                est = estimate_se(sim)
                cells.update(sim_se=est.mean * scale, sim_ci95=est.ci95 * scale, trials=est.trials)
            elif column in ("upper_nakagami", "upper_rayleigh", "lower"):
                if model is None:
                    with _config_errors(section):
                        model = point.sparse_model()
                # Looked up per call, so wrappers put on the analytic module
                # (perfbench's tracer) see these calls.
                bound = {
                    "upper_nakagami": analytic.se_upper_nakagami,
                    "upper_rayleigh": analytic.se_upper_rayleigh,
                    "lower": analytic.se_lower,
                }[column]
                cells[column] = bound(model, point.rho) * scale
            elif column == "sparse":
                cells[column] = analytic.se_sparse_approx(point.lambda0, point.rho) * scale
            else:
                if column == "tp":
                    cells[column] = _tp_rows(cfg, section, run)
                elif column == "best_square_b":
                    cells[column] = _maybe_infeasible(lambda: throughput.best_square_b(cfg))
                else:
                    region = throughput.feasible_region(cfg)
                    b_num = _maybe_infeasible(lambda: throughput.optimal_b_numeric(cfg))
                    b_cf = _maybe_infeasible(lambda: throughput.optimal_b_closed_form(cfg))
                    cells.update(
                        f_t=cfg.f_t,
                        n_b=cfg.n_b,
                        b_max_feasible=region[1] if region else None,
                        b_star_numeric=b_num,
                        b_star_closed=b_cf,
                        hpbw_star_numeric=None if b_num is None else throughput.optimal_hpbw(b_num),
                        hpbw_star_closed=None if b_cf is None else throughput.optimal_hpbw(b_cf),
                        tp_at_optimum=(
                            None if b_num is None
                            else throughput.throughput_continuous(b_num, cfg) * scale
                        ),
                    )
        except (ConfigError, InfeasibleConfigError, NumericalError):
            raise
        except (BeamsimError, ValueError) as exc:
            raise NumericalError(f"{column}: {exc}") from exc
    return cells


def _maybe_infeasible(fn):
    """Sweep points may be infeasible; report as empty cells, not failure."""
    try:
        return fn()
    except (InfeasibleConfigError, ApproximationInvalidError):
        return None


# =====================================================================
#  Output writing
# =====================================================================

def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


@functools.cache
def _version_string() -> str:
    import subprocess  # only manifests need it; importing it costs every process

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"beamsim-{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"beamsim-{__version__}"


def _runtime() -> dict[str, Any]:
    """What a run's speed depends on beyond its config: the interpreter and
    numpy versions, the worker-count variable and the OpenBLAS thread count,
    i.e. the first variable OpenBLAS reads that is set (None: one per core)."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        THREADS_ENV_VAR: os.environ.get(THREADS_ENV_VAR),
        "OPENBLAS_NUM_THREADS": next(
            (os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ), None
        ),
    }


class Manifest:
    """JSON-lines run log; the file is created by the first entry, so a run
    rejected before it records anything leaves no manifest behind."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / "run_manifest.jsonl"

    def record(self, **fields: Any) -> None:
        entry = {"version": _version_string(), **_runtime(), **fields}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


# =====================================================================
#  Subcommands
# =====================================================================

# Each point command is a one-row evaluation: its CSV columns (``tp``, the
# throughput curve, goes to its own file) and its stdout line.
POINT_COMMANDS = {
    "simulate": (
        ("lambda0", "b", "m_eff", "sim_se", "sim_ci95", "trials", "units"),
        "SE = {sim_se!r} +- {sim_ci95!r} ({units}, {trials} trials)",
    ),
    "bounds": (
        ("lambda0", "b", "m_eff", "rho", "upper_nakagami", "upper_rayleigh", "lower", "sparse", "units"),
        "bounds written for lambda0={lambda0}, B={b}, rho={rho!r}",
    ),
    "throughput": (
        (
            "b_star_numeric", "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed",
            "best_square_b", "b_max_feasible", "tp_at_optimum", "units", "tp",
        ),
        "B* numeric = {b_star_numeric!r} (hpbw {hpbw_star_numeric!r} deg), "
        "closed form = {b_star_closed!r}",
    ),
}


def _cmd_point(kind: str, args: argparse.Namespace) -> int:
    sections = load_config(args.config)
    run = RunParams(sections, args)
    section = sections.get(kind)
    if section is None:
        raise ConfigError(f"config must contain a [{kind}] section for '{kind}'")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir)
    t0 = time.monotonic()

    columns, line = POINT_COMMANDS[kind]
    point, cfg, sim = _point_from(section, columns, run, run.seed)
    cells = _evaluate(columns, point, cfg, sim, section, run)
    if "b_max_feasible" in cells and cells["b_max_feasible"] is None:
        raise InfeasibleConfigError(
            "no beam count achieves positive throughput "
            f"(F_t={cells['f_t']!r} with N_b={cells['n_b']})"
        )
    provenance = dict(
        seed=run.seed, trials=run.trials, units=run.units,
        config_resolved=section.resolved(run.defaults_dict()),
    )
    if cells.get("tp"):
        _write_csv(out_dir / "throughput_curve.csv", TP_CURVE_COLUMNS, cells["tp"])
        manifest.record(
            kind="throughput_curve", csv="throughput_curve.csv", **provenance,
            wall_time_s=round(time.monotonic() - t0, 6),
        )
    header = [c for c in columns if c != "tp"]
    _write_csv(out_dir / f"{kind}.csv", header, [[cells[c] for c in header]])
    print(line.format(**cells))
    stream = {"stream": STREAM_VERSION} if "sim_se" in cells else {}
    manifest.record(
        kind=kind, csv=f"{kind}.csv", **provenance,
        wall_time_s=round(time.monotonic() - t0, 6), **stream,
    )
    return 0


def _columns(tags: Sequence[str]) -> list[str]:
    """The cells a sweep's output tags ask for, in CSV order, then units."""
    expand = {"sim_se": ["sim_se", "sim_ci95"], "hpbw_star": ["hpbw_star_numeric", "hpbw_star_closed"]}
    return [col for tag in tags for col in expand.get(tag, [tag])] + ["units"]


def _sweep_stem(name: str) -> str:
    """File stem of the ``[sweep:NAME]`` section ``name``."""
    return name.split(":", 1)[1] or "sweep"


def _sweep_plan(
    section: SectionView, run: RunParams
) -> tuple[str, list[str], list[tuple[float, PointSpec, throughput.ThroughputConfig | None, SimConfig | None]]]:
    """A sweep section's variable, cell columns and (value, point, planner
    config, Monte Carlo config) quadruples, after every check that needs no
    evaluation."""
    variable = section.get_str("variable", required=True)
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"[{section.name}] unknown sweep variable {variable!r}; known: {', '.join(SWEEP_VARIABLES)}"
        )
    values = _sweep_values(section)
    tags = _outputs_from(section)
    if "tp" in tags:
        if not section.has("b_values"):
            raise ConfigError(f"[{section.name}] 'tp' output needs a 'b_values' list")
        _b_values(section)
    columns = _columns(tags)
    stem_key = zlib.crc32(_sweep_stem(section.name).encode())
    # Only the Monte Carlo cells read a point's seed.
    seeds = [child_seed(run.seed, stem_key, idx) if "sim_se" in columns else None for idx in range(len(values))]
    return variable, columns, [
        (value, *_point_from(section, columns, run, seed, variable, value)) for value, seed in zip(values, seeds)
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    sections = load_config(args.config)
    run = RunParams(sections, args)
    sweep_names = [name for name in sections if name.startswith("sweep:")]
    if not sweep_names:
        raise ConfigError("config contains no [sweep:NAME] sections")
    # Every section is checked before any is evaluated, so a bad later
    # section leaves no output of the earlier ones behind.
    plans = {name: _sweep_plan(sections[name], run) for name in sweep_names}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir)

    for name, (variable, columns, points) in plans.items():
        section = sections[name]
        t0 = time.monotonic()
        stem = _sweep_stem(name)
        header = [variable] + [c for c in columns if c != "tp"]
        rows = []
        tp_rows = []
        for value, point, cfg, sim in points:
            cells = _evaluate(columns, point, cfg, sim, section, run)
            rows.append([value] + [cells[c] for c in header[1:]])
            tp_rows += [[value, *row] for row in cells.get("tp", [])]

        csv_path = out_dir / f"{stem}.csv"
        _write_csv(csv_path, header, rows)
        written = [csv_path.name]
        if tp_rows:
            tp_path = out_dir / f"{stem}_tp.csv"
            _write_csv(tp_path, [variable] + TP_CURVE_COLUMNS, tp_rows)
            written.append(tp_path.name)
        manifest.record(
            kind="sweep", name=stem, variable=variable, csv=written,
            seed=run.seed, trials=run.trials, units=run.units, stream=STREAM_VERSION,
            config_resolved=section.resolved(run.defaults_dict()),
            wall_time_s=round(time.monotonic() - t0, 6),
        )
        print(f"sweep '{stem}': {len(points)} points -> {', '.join(written)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    trials = args.trials if args.trials is not None else 20_000
    criteria = None
    if args.criteria:
        try:
            criteria = [int(tok) for tok in args.criteria.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"--criteria expects integers, got {args.criteria!r}") from None
    results = validation.run_validation(seed=seed, trials=trials, criteria=criteria)
    sys.stdout.write(validation.render_report(results, seed, trials))
    failure = validation.first_failure(results)
    if failure is not None:
        print(f"first failing criterion: {failure.name}", file=sys.stderr)
        return 1
    return 0


# =====================================================================
#  Entry point
# =====================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description="NLOS mmWave beamformed-link simulation and planning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser, config_required: bool) -> None:
        if config_required:
            p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--trials", type=int, default=None, help="override [run] trials")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--units", choices=("nats", "bits"), default=None,
                       help="override [run] units")

    for kind, desc in (
        ("simulate", "Monte Carlo spectral efficiency for one configuration"),
        ("bounds", "closed-form bound values for one configuration"),
        ("throughput", "optimal beam count and throughput for one configuration"),
    ):
        p = sub.add_parser(kind, help=desc)
        add_shared(p, config_required=True)

    p = sub.add_parser("sweep", help="run every [sweep:NAME] section of the config")
    add_shared(p, config_required=True)

    p = sub.add_parser("validate", help="run the built-in validation suite")
    add_shared(p, config_required=False)
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("simulate", "bounds", "throughput"):
            return _cmd_point(args.command, args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
