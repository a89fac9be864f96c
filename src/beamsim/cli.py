"""Experiment runner.

Subcommands::

    beamsim simulate   --config cfg.ini [--seed N --trials N --units U --out-dir D]
    beamsim bounds     --config cfg.ini ...
    beamsim throughput --config cfg.ini ...
    beamsim sweep      --config cfg.ini ...
    beamsim validate   [--seed N --trials N --criteria 1,2,...]

Configs are flat key-value INI text with one ``[sweep:NAME]`` section per
sweep (schema documented in the README).  ``KEYS`` declares each key's
parser, domain, sections and default once; ``load_config`` rejects an
unknown section or key and checks every value against its row before
anything is evaluated.  A value the library rejects is a config error
naming the keys the user wrote behind it (``DERIVED``).

There is one evaluation path: a section becomes a ``Point`` (``_point_from``,
with the swept value substituted in a sweep), the cells the section fixes
plus the bounds model, planner config and Monte Carlo config its columns
need.  ``_evaluate_rows`` stores the cells computed for all points in one
call (``upper_nakagami``) in the points' cells, and ``_evaluate`` computes
the rest of each point's named cells.  A sweep writes one row per value;
``simulate``, ``bounds`` and ``throughput`` are one-row evaluations with a
fixed column tuple each (``POINT_COMMANDS``).

Every run writes RFC-4180 CSV files plus a JSON-lines manifest with one
entry per evaluated section.  An entry names the section's CSV files and
records the seed, trial count, units, version (with the checked-out commit,
read from the checkout's files: no git process runs), a CRC-32 of the
package's source, wall time, those settings with the section's parsed
values, and the Python and numpy versions and the OpenBLAS thread setting
the run had.  CSV bytes depend only on config + seed, never on
timing.

Errors take one path to the exit code.  While a point is built, ``_blame``
turns a value the library rejects (a ``ValueError``) into a config error;
``_maybe_infeasible`` turns a planner optimum that does not exist into an
empty cell; and ``main`` maps the error type to the exit code: 0 success,
1 numerical failure (``NumericalError``), 2 config error (``ConfigError``),
3 infeasible throughput configuration (``InfeasibleConfigError``).  On a
point ``_point_from`` accepted, a cell's library call raises nothing else.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import errno
import functools
import json
import math
import os
import re
import sys
import time
import zlib
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

import beamsim.throughput as throughput

# montecarlo and validation load on first use (see __init__), so their names are read at call time
from . import _BLAS_THREAD_VARS, __version__, analytic, montecarlo, validation
from .analytic import SparseModel
from .channel import FadingModel
from .errors import ApproximationInvalidError, ConfigError, InfeasibleConfigError, NumericalError
from .rng import MAX_TRIALS, child_seed

SCHEMA_VERSION = 1
LN2 = math.log(2.0)
# A start/stop/count grid is built in memory and every point of it evaluated.
MAX_SWEEP_POINTS = 1_000_000

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
BOUND_COLUMNS = ("upper_nakagami", "upper_rayleigh", "lower")
# The cells that read a point's rho; a point that asks for one needs it finite.
RHO_COLUMNS = ("sim_se", *BOUND_COLUMNS, "sparse")
# The beam-count planner's cells; a point that asks for one needs a ThroughputConfig.
PLANNER_COLUMNS = ("tp", "best_square_b", "f_t", "n_b", "b_max_feasible", "b_star_numeric",
                   "b_star_closed", "hpbw_star_numeric", "hpbw_star_closed", "tp_at_optimum")
# The rows of the ``tp`` cell, the throughput curve; tp clamps tp_raw at zero.
TP_CURVE_COLUMNS = ["b", "tp", "tp_raw", "units"]


# =====================================================================
#  Config keys
# =====================================================================

class Key(NamedTuple):
    """One config key: ``parse`` reads its text, ``ok`` tells whether the
    value lies in the domain that ``domain`` words, ``sections`` accept it,
    and ``default`` stands in when it is left out (None: it has none).  A
    key with ``choices`` takes one of them, or a list of them."""

    parse: Any
    ok: Any
    domain: str
    sections: tuple[str, ...]
    default: Any = None
    choices: tuple[str, ...] = ()


def _words(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in _words(text)]


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _increasing(values: list[float]) -> bool:
    return bool(values) and all(map(math.isfinite, values)) and all(b > a for a, b in zip(values, values[1:]))


def _choice(choices: tuple[str, ...], sections: tuple[str, ...], default: str | None = None) -> Key:
    return Key(str, choices.__contains__, "one of " + ", ".join(choices), sections, default, choices)


SECTION_KINDS = ("run", "simulate", "bounds", "throughput", "sweep:NAME")
RUN, POINT, PLANNER, SWEEP = ("run",), SECTION_KINDS[1:], ("throughput", "sweep:NAME"), ("sweep:NAME",)
# the pairs and the fading law; the planner reads neither
SE_POINT = ("simulate", "bounds", "sweep:NAME")
# A sweep's NAME is the stem of its CSV files in --out-dir.
SWEEP_NAME = re.compile(r"[A-Za-z0-9_-]+")
LINK_KEYS = ("intercept_c", "distance_d", "alpha", "noise_power")
FINITE, POSITIVE = "a finite number", "a number, finite and > 0"

KEYS: dict[str, Key] = {
    "schema_version": Key(int, lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION), RUN),
    "seed": Key(int, lambda v: True, "an integer", RUN, 0),
    "trials": Key(int, lambda v: 1 <= v <= MAX_TRIALS, f"an integer in [1, {MAX_TRIALS}]", RUN, 10_000),
    "units": _choice(("nats", "bits"), RUN, "nats"),
    "lambda0": Key(float, _positive, POSITIVE, POINT),
    # b * snr_coeff is taken as a float
    "b": Key(int, lambda v: 1 <= v <= sys.float_info.max, f"an integer in [1, {sys.float_info.max:g}]", SE_POINT),
    "m": Key(float, lambda v: math.isfinite(v) and v >= 0.5, "a number, finite and >= 0.5", SE_POINT),
    "k_db": Key(float, math.isfinite, FINITE, SE_POINT),
    "snr_coeff": Key(float, _positive, POSITIVE, POINT),
    **{key: Key(float, math.isfinite, FINITE, POINT) for key in LINK_KEYS},
    "t_f": Key(float, _positive, POSITIVE, PLANNER),
    # the training overhead takes n_b^2 as a float
    "n_b": Key(int, lambda v: v >= 1 and v * v <= sys.float_info.max,
               f"an integer in [1, {math.sqrt(sys.float_info.max):g}]", PLANNER, 4),
    "t_total": Key(float, _positive, POSITIVE, PLANNER),
    "velocity": Key(float, _positive, POSITIVE, PLANNER),
    "carrier_freq": Key(float, _positive, POSITIVE, PLANNER),
    "tc_model": _choice(("clarke",), PLANNER, "clarke"),
    "b_values": Key(_floats, lambda bs: bool(bs) and all(math.isfinite(b) and b >= 1.0 for b in bs),
                    "numbers, finite and >= 1", PLANNER),
    "variable": _choice(SWEEP_VARIABLES, SWEEP),
    "values": Key(_floats, _increasing, "numbers, finite and strictly increasing", SWEEP),
    "start": Key(float, math.isfinite, FINITE, SWEEP),
    "stop": Key(float, math.isfinite, FINITE, SWEEP),
    "count": Key(int, lambda v: 2 <= v <= MAX_SWEEP_POINTS, f"an integer in [2, {MAX_SWEEP_POINTS}]", SWEEP),
    "outputs": Key(_words, lambda tags: bool(tags) and set(tags) <= set(OUTPUT_TAGS),
                   "one or more of " + ", ".join(OUTPUT_TAGS), SWEEP, None, OUTPUT_TAGS),
}

# The keys behind each quantity the library computes from them.
DERIVED = {
    "rho": ("b", "snr_coeff", "lambda0"),
    "snr_coeff": LINK_KEYS,
    "K": ("snr_coeff", "rho", "lambda0"),
    "F_t": ("t_f", "t_total"),
    "t_total": ("velocity", "carrier_freq"),
}


def _read(section: str, key: str, text: str, variable: str | None = None) -> Any:
    """``key = text`` of ``[section]``, parsed and checked against its row;
    a rejected grid key also names the swept ``variable``."""
    row = KEYS[key]
    try:
        value = row.parse(text)
        if row.ok(value):
            return value
    except ValueError:
        pass
    unknown = [tok for tok in _words(text) if tok not in row.choices] if row.choices else []
    if unknown:
        raise ConfigError(f"[{section}] unknown {key} {unknown[0]!r}; registered: {', '.join(row.choices)}")
    grid = f" (the {variable} grid)" if variable and key in ("values", "start", "stop", "count") else ""
    raise ConfigError(f"[{section}] {key} = {text}: must be {row.domain}{grid}")


class Section:
    """A config section's name and its keys' checked values."""

    def __init__(self, name: str, values: dict[str, Any]):
        self.name = name
        self.values = values

    def get(self, key: str, required: bool = False) -> Any:
        """The value of ``key``, else its default, else None; a config
        error if it is ``required`` and has no default."""
        if key in self.values:
            return self.values[key]
        if required and KEYS[key].default is None:
            raise ConfigError(f"[{self.name}] missing required key '{key}'")
        return KEYS[key].default


def load_config(path: str | Path) -> dict[str, Section]:
    # No header line can name the section "\n", so [DEFAULT] is an ordinary
    # section, rejected as unknown, rather than keys leaked into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        reason = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"cannot parse config {path}: {reason}") from None
    if not parser.has_section("run"):
        raise ConfigError("[run] section with schema_version is required")
    sections = {}
    # [run] first, so a config of another schema fails on schema_version
    for name in ["run"] + [name for name in parser.sections() if name != "run"]:
        kind = "sweep:NAME" if name.startswith("sweep:") else name
        if kind not in SECTION_KINDS:
            raise ConfigError(f"unknown section [{name}]; known: {', '.join(SECTION_KINDS)}")
        if kind == "sweep:NAME" and not SWEEP_NAME.fullmatch(_sweep_stem(name)):
            raise ConfigError(f"[{name}] the sweep name must match {SWEEP_NAME.pattern}: it names the CSV file")
        known = [key for key, row in KEYS.items() if kind in row.sections]
        raw = parser[name]
        for key in raw:
            if key not in known:
                raise ConfigError(f"[{name}] unknown key '{key}'; known: {', '.join(known)}")
        variable = raw.get("variable")
        sections[name] = Section(name, {key: _read(name, key, text, variable) for key, text in raw.items()})
    sections["run"].get("schema_version", required=True)
    return sections


def _run_params(run: Section, args: argparse.Namespace) -> dict[str, Any]:
    """The [run] seed, trials and units, each overridden by its flag."""
    flags = {key: getattr(args, key) for key in ("seed", "trials", "units")}
    return {key: run.get(key) if flag is None else _read("run", key, str(flag)) for key, flag in flags.items()}


def _user_keys(values: dict[str, Any], quantities: Sequence[str]) -> list[str]:
    """The keys set in ``values`` behind ``quantities``, through ``DERIVED``."""
    keys: list[str] = []
    for name in quantities:
        keys += [name] if name in values else _user_keys(values, DERIVED.get(name, ()))
    return list(dict.fromkeys(keys))


class _blame:
    """Report a value the library rejects as a config error of ``section``
    naming the keys the user set behind ``quantities``; every other
    exception passes through.  A class, not a generator: points enter it
    a few times each."""

    __slots__ = ("section", "quantities")

    def __init__(self, section: Section, *quantities: str):
        self.section = section
        self.quantities = quantities

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError):
            values = self.section.values
            given = ", ".join(f"{key} = {values[key]!r}" for key in _user_keys(values, self.quantities))
            raise ConfigError(f"[{self.section.name}] {given}: {exc}") from None


def _fading(section: Section) -> FadingModel:
    """The fading law of ``m`` (Nakagami), ``k_db`` (Rician, in dB) or neither (Rayleigh)."""
    m, k_db = section.values.get("m"), section.values.get("k_db")
    if m is not None and k_db is not None:
        raise ConfigError(f"[{section.name}] give either 'm' or 'k_db', not both")
    if m is not None:
        with _blame(section, "m"):
            return FadingModel.nakagami(m)
    if k_db is None:
        return FadingModel.rayleigh()
    try:
        k_linear = 10.0 ** (k_db / 10.0)
    except OverflowError:
        k_linear = math.inf
    with _blame(section, "k_db"):
        return FadingModel.rician(k_linear)


def _snr_coeff(section: Section) -> float:
    """The section's ``snr_coeff``, or c d^(-alpha) / noise_power from its link keys."""
    if "snr_coeff" in section.values:
        return section.values["snr_coeff"]
    if not all(key in section.values for key in LINK_KEYS):
        raise ConfigError(f"[{section.name}] needs 'snr_coeff' or all of {', '.join(LINK_KEYS)}")
    c, d, a, n = (section.values[key] for key in LINK_KEYS)
    with _blame(section, "snr_coeff"):
        try:
            val = c * d ** (-a) / n
        except (ZeroDivisionError, OverflowError):
            val = math.nan
        # A negative distance with a fractional exponent yields a complex power.
        if not (isinstance(val, float) and math.isfinite(val) and val > 0.0):
            raise ValueError(f"c d^(-alpha) / noise_power = {val!r} must be finite and > 0")
    return val


def _swept(section: Section, variable: str, value: float) -> float | int:
    """A swept ``value`` checked against its key's row, as an int for ``b``;
    a swept rho has no row, the point checks it."""
    row = KEYS.get(variable)
    if row is None:
        return value
    if row.parse is int and abs(value - round(value)) <= 1e-9:
        value = int(round(value))
    if not (isinstance(value, row.parse) and row.ok(value)):
        raise ConfigError(f"[{section.name}] {variable} = {value!r}: must be {row.domain}")
    return value


def _sweep_values(section: Section) -> list[float]:
    """The swept values: ``values``, or ``count`` points from ``start`` to ``stop``."""
    if "values" in section.values:
        return section.values["values"]
    start, stop, count = (section.values.get(key) for key in ("start", "stop", "count"))
    if None in (start, stop, count):
        raise ConfigError(f"[{section.name}] needs 'values' or the triple start/stop/count")
    values = [float(v) for v in np.linspace(start, stop, count)]
    if not _increasing(values):
        raise ConfigError(
            f"[{section.name}] start = {start!r}, stop = {stop!r}, count = {count}: must give "
            f"{KEYS['values'].domain} (the {section.values['variable']} grid)"
        )
    return values


# =====================================================================
#  Point evaluation
# =====================================================================

def _unit_scale(units: str) -> float:
    return 1.0 / LN2 if units == "bits" else 1.0


class Point(NamedTuple):
    """One point: ``cells`` holds the ``lambda0`` and ``m_eff`` it fixes,
    its ``b`` and ``rho`` where a column reads rho (``b`` also in a rho sweep),
    and the cells :func:`_evaluate_rows` computes for all points in one
    call; then its bounds model, planner config and Monte Carlo config,
    each None when no column needs it."""

    cells: dict[str, Any]
    model: SparseModel | None
    cfg: throughput.ThroughputConfig | None
    sim: montecarlo.SimConfig | None


def _point_from(
    section: Section,
    columns: Sequence[str],
    run: dict[str, Any],
    seed: int | None,
    variable: str | None = None,
    value: float = math.nan,
) -> Point:
    """The point ``section`` describes, with the sweep ``variable`` (if any)
    set to ``value``; its Monte Carlo config runs on ``seed``.

    rho is b * snr_coeff / lambda0 unless a rho sweep gives it, and must be
    finite and > 0 with 1/rho finite (the bounds read 1/rho); the planner
    reads only the per-beam scale K = snr_coeff / lambda0.
    """
    if variable is not None:
        section = Section(section.name, {**section.values, variable: value})
    fading = _fading(section)
    if variable is not None:
        # after the fading law, so a swept m or k_db it rejects is named in its words
        section.values[variable] = _swept(section, variable, value)
    lambda0 = section.get("lambda0", required=True)
    cells = {"lambda0": lambda0, "m_eff": fading.effective_nakagami_m()}
    reads_rho = any(column in RHO_COLUMNS for column in columns)
    # the planner reads b only through a swept rho, K = rho / b
    if reads_rho or variable == "rho":
        cells["b"] = section.get("b", required=True)
    snr_coeff = value / cells["b"] * lambda0 if variable == "rho" else _snr_coeff(section)
    if reads_rho:
        # a swept rho is kept as given: b * snr_coeff / lambda0 may round it
        rho = cells["rho"] = value if variable == "rho" else cells["b"] * snr_coeff / lambda0
        with _blame(section, "rho"):
            if not (math.isfinite(rho) and rho > 0.0 and math.isfinite(1.0 / rho)):
                formula = "rho" if variable == "rho" else "rho = b * snr_coeff / lambda0"
                raise ValueError(f"{formula} = {rho!r} must be finite and > 0, with 1/rho finite")
    model = cfg = sim = None
    if "sim_se" in columns:
        with _blame(section, "lambda0", "b", "m", "k_db"):
            sim = montecarlo.SimConfig(lambda0, cells["b"], cells["rho"], fading, run["trials"], seed)
    if any(column in BOUND_COLUMNS for column in columns):
        with _blame(section, "lambda0", "b"):
            model = SparseModel.from_occupancy(lambda0, cells["b"], cells["m_eff"])
    if any(column in PLANNER_COLUMNS for column in columns):
        cfg = _tp_config(section, snr_coeff / lambda0)
    return Point(cells, model, cfg, sim)


def _tp_config(section: Section, k: float) -> throughput.ThroughputConfig:
    t_f = section.get("t_f", required=True)
    if "t_total" in section.values:
        t_total = section.values["t_total"]
    elif "velocity" in section.values:
        carrier = section.get("carrier_freq", required=True)
        with _blame(section, "t_total"):
            t_total = throughput.coherence_time(section.values["velocity"], carrier)
    else:
        raise ConfigError(
            f"[{section.name}] needs 't_total' or 'velocity' (+ carrier_freq) for throughput outputs"
        )
    with _blame(section, "F_t", "K"):
        return throughput.ThroughputConfig(
            t_f=t_f, t_total=t_total, k=k, lambda0=section.values["lambda0"], n_b=section.get("n_b")
        )


def _evaluate_rows(columns: Sequence[str], points: list[Point], section: Section, units: str) -> list[dict]:
    """Named cells of each point by :func:`_evaluate`.

    The ``upper_nakagami`` cells are one call, made first and stored in the
    points' cells.  The ``NumericalError`` it raises is stored at the cell of
    its failing point, its ``index`` (every other point's holds None), so a
    section still fails on its first failing cell in row-major order.
    """
    if "upper_nakagami" in columns:
        try:
            # looked up per call, so wrappers put on the analytic module (perfbench's tracer) see it
            values = analytic.se_upper_nakagami([p.model for p in points], [p.cells["rho"] for p in points])
            upper = [value * _unit_scale(units) for value in values.tolist()]
        except NumericalError as exc:
            upper = [None] * len(points)
            upper[exc.index] = exc
        for point, cell in zip(points, upper):
            point.cells["upper_nakagami"] = cell
    return [_evaluate(columns, point, section, units) for point in points]


def _evaluate(columns: Sequence[str], point: Point, section: Section, units: str) -> dict[str, Any]:
    """Named cells of one point: its ``cells`` and ``units``, plus every
    cell ``columns`` names; a stored cell that is an exception raises it.

    ``sim_se`` comes with ``sim_ci95`` and ``trials``; any planner column
    brings every planner optimum plus ``f_t`` and ``n_b``.  ``tp`` holds the
    throughput-curve rows (``TP_CURVE_COLUMNS``) over the section's
    ``b_values``.  Planner cells of an infeasible point are None, as are the
    closed-form cells wherever that approximation does not apply.  Any other
    error a cell's library call raises is a ``NumericalError``, and it
    passes through to ``main``.
    """
    _, model, cfg, sim = point
    scale = _unit_scale(units)
    cells = {**point.cells, "units": units}
    for column in columns:
        if column in cells:
            if isinstance(cells[column], Exception):
                raise cells[column]
        elif column in ("sim_se", "sim_ci95", "trials"):
            est = montecarlo.estimate_se(sim)
            cells.update(sim_se=est.mean * scale, sim_ci95=est.ci95 * scale, trials=est.trials)
        elif column in BOUND_COLUMNS:
            # Looked up per call, so wrappers put on the analytic module
            # (perfbench's tracer) see these calls.
            bound = {"upper_rayleigh": analytic.se_upper_rayleigh, "lower": analytic.se_lower}[column]
            cells[column] = bound(model, cells["rho"]) * scale
        elif column == "sparse":
            cells[column] = analytic.se_sparse_approx(cells["lambda0"], cells["rho"]) * scale
        elif column == "tp":
            b_values = section.get("b_values") or []
            raws = [tp * scale for tp in throughput.throughput_curve(b_values, cfg).tolist()]
            cells[column] = [[b, max(raw, 0.0), raw, units] for b, raw in zip(b_values, raws)]
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
                tp_at_optimum=None if b_num is None else throughput.throughput_continuous(b_num, cfg) * scale,
            )
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

def _cannot_write(path: Path, reason: str) -> ConfigError:
    return ConfigError(f"--out-dir {path.parent}: cannot write {path.name}: {reason}")


def _open_output(path: Path, mode: str):
    """A file of ``--out-dir`` opened to write; one that cannot be is a config error."""
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc.strerror or str(exc)) from None


def _check_outputs(paths: Sequence[Path]) -> None:
    """Raise the error :func:`_open_output` would for the first of ``paths``
    that is a directory, or that (or, for a new file, whose directory) is
    not writable.  Runs check every file they write before evaluating
    anything, and the check creates none, so a rejected run leaves no
    output behind."""
    for path in paths:
        if path.is_dir():
            raise _cannot_write(path, os.strerror(errno.EISDIR))
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            raise _cannot_write(path, os.strerror(errno.EACCES))


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with _open_output(path, "w") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        # csv writes None as an empty cell, a float as its repr, anything else by str
        writer.writerows(rows)


PACKAGE_DIR = Path(__file__).resolve().parent


def _git_commit(start: Path) -> str | None:
    """The commit checked out in the git checkout that holds ``start``, read
    from its files; None outside a checkout, on an unborn branch, or when a
    file is unreadable or garbled.

    The checkout is the nearest ``.git`` from ``start`` upward.  A ``.git``
    file (a worktree) names its git directory on a ``gitdir:`` line, and
    that directory's ``commondir`` holds the refs.  ``HEAD`` is a commit
    (detached) or ``ref: NAME``, read from the loose ref file, else from
    ``packed-refs``.
    """
    def text(path: Path) -> str:
        return path.read_text(encoding="utf-8").strip()

    try:
        dot_git = next((d / ".git" for d in (start, *start.parents) if (d / ".git").exists()), None)
        if dot_git is None:
            return None
        git_dir = dot_git
        if dot_git.is_file():
            key, _, path = text(dot_git).partition(":")
            if key != "gitdir":
                return None
            git_dir = dot_git.parent / path.strip()
        common = git_dir / text(git_dir / "commondir") if (git_dir / "commondir").is_file() else git_dir
        head = text(git_dir / "HEAD")
        if head.startswith("ref:"):
            ref = head[len("ref:"):].strip()
            if (common / ref).is_file():
                head = text(common / ref)
            elif (common / "packed-refs").is_file():
                # "<commit> <name>" lines, with "#" headers and "^<commit>" peeled tags
                packed = map(str.split, text(common / "packed-refs").splitlines())
                head = next((entry[0] for entry in packed if entry[1:] == [ref]), "")
    except (OSError, ValueError):  # ValueError covers undecodable bytes
        return None
    return head if len(head) in (40, 64) and set(head) <= set("0123456789abcdef") else None


@functools.cache
def _version_string() -> str:
    """``beamsim-VERSION+COMMIT`` (its first 7 hex digits) in a git checkout,
    else ``beamsim-VERSION``; read from files, so no git process runs."""
    commit = _git_commit(PACKAGE_DIR)
    return f"beamsim-{__version__}" + (f"+{commit[:7]}" if commit else "")


@functools.cache
def _source_crc32() -> int:
    """CRC-32 of the package's ``*.py`` files in name order: the exact code
    that ran, edits in a checkout included."""
    crc = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        crc = zlib.crc32(path.read_bytes(), crc)
    return crc


def _runtime() -> dict[str, Any]:
    """What a run's speed depends on beyond its config: the interpreter and
    numpy versions and the OpenBLAS thread count, i.e. the first variable
    OpenBLAS reads that is set (None: one per core)."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
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
        entry = {"version": _version_string(), "source_crc32": _source_crc32(), **_runtime(), **fields}
        with _open_output(self.path, "a") as fh:
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


def _output(args: argparse.Namespace) -> tuple[Path, Manifest]:
    """``--out-dir``, created if missing, and the run manifest in it; a
    path that cannot be a directory is a config error."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {args.out_dir}: {exc.strerror or exc}") from None
    return out_dir, Manifest(out_dir)


def _provenance(run: dict[str, Any], section: Section, columns: Sequence[str]) -> dict[str, Any]:
    """Manifest fields of a section's run: the run settings, those with the
    section's values and, with ``sim_se``, the Monte Carlo stream version."""
    fields = dict(run, config_resolved={**run, **section.values})
    if "sim_se" in columns:
        fields["stream"] = montecarlo.STREAM_VERSION
    return fields


def _cmd_point(kind: str, args: argparse.Namespace) -> int:
    sections = load_config(args.config)
    run = _run_params(sections["run"], args)
    section = sections.get(kind)
    if section is None:
        raise ConfigError(f"config must contain a [{kind}] section for '{kind}'")
    t0 = time.monotonic()

    columns, line = POINT_COMMANDS[kind]
    point = _point_from(section, columns, run, run["seed"])
    # decided from the config alone, so an infeasible plan leaves no --out-dir
    if point.cfg is not None and throughput.feasible_region(point.cfg) is None:
        raise InfeasibleConfigError(
            f"no beam count achieves positive throughput (F_t={point.cfg.f_t!r} with N_b={point.cfg.n_b})"
        )
    out_dir, manifest = _output(args)
    files = [f"{kind}.csv"] + (["throughput_curve.csv"] if "tp" in columns else [])
    _check_outputs([out_dir / file for file in files] + [manifest.path])
    cells = _evaluate_rows(columns, [point], section, run["units"])[0]
    header = [c for c in columns if c != "tp"]
    _write_csv(out_dir / f"{kind}.csv", header, [[cells[c] for c in header]])
    written = [f"{kind}.csv"]
    if cells.get("tp"):
        _write_csv(out_dir / "throughput_curve.csv", TP_CURVE_COLUMNS, cells["tp"])
        written.append("throughput_curve.csv")
    manifest.record(
        kind=kind, csv=written, **_provenance(run, section, columns),
        wall_time_s=round(time.monotonic() - t0, 6),
    )
    print(line.format(**cells))
    return 0


def _columns(tags: Sequence[str]) -> list[str]:
    """The cells a sweep's output tags ask for, in CSV order, then units."""
    expand = {"sim_se": ["sim_se", "sim_ci95"], "hpbw_star": ["hpbw_star_numeric", "hpbw_star_closed"]}
    return [col for tag in tags for col in expand.get(tag, [tag])] + ["units"]


def _sweep_stem(name: str) -> str:
    """File stem of the ``[sweep:NAME]`` section ``name``."""
    return name.split(":", 1)[1]


def _sweep_plan(section: Section, run: dict[str, Any]) -> tuple[str, list[str], list[tuple[float, Point]]]:
    """A sweep section's variable, cell columns and (value, point) pairs,
    after every check that needs no evaluation."""
    variable = section.get("variable", required=True)
    values = _sweep_values(section)
    tags = section.get("outputs", required=True)
    if "tp" in tags and "b_values" not in section.values:
        raise ConfigError(f"[{section.name}] 'tp' output needs a 'b_values' list")
    columns = _columns(tags)
    stem_key = zlib.crc32(_sweep_stem(section.name).encode())
    # Only the Monte Carlo cells read a point's seed.
    seeds = [child_seed(run["seed"], stem_key, idx) if "sim_se" in columns else None for idx in range(len(values))]
    return variable, columns, [
        (value, _point_from(section, columns, run, seed, variable, value)) for value, seed in zip(values, seeds)
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    sections = load_config(args.config)
    run = _run_params(sections["run"], args)
    sweep_names = [name for name in sections if name.startswith("sweep:")]
    if not sweep_names:
        raise ConfigError("config contains no [sweep:NAME] sections")
    # Every section is checked before any is evaluated, so a bad later
    # section leaves no output of the earlier ones behind.
    plans = {name: _sweep_plan(sections[name], run) for name in sweep_names}
    writers: dict[str, str] = {}
    for name, (_, columns, _) in plans.items():
        stem = _sweep_stem(name)
        for file in [f"{stem}.csv"] + ([f"{stem}_tp.csv"] if "tp" in columns else []):
            if file in writers:
                raise ConfigError(f"[{writers[file]}] and [{name}] both write {file}")
            writers[file] = name
    out_dir, manifest = _output(args)
    _check_outputs([out_dir / file for file in writers] + [manifest.path])

    for name, (variable, columns, points) in plans.items():
        section = sections[name]
        t0 = time.monotonic()
        stem = _sweep_stem(name)
        header = [variable] + [c for c in columns if c != "tp"]
        rows = []
        tp_rows = []
        cell_rows = _evaluate_rows(columns, [point for _, point in points], section, run["units"])
        for (value, _), cells in zip(points, cell_rows):
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
            kind="sweep", name=stem, variable=variable, csv=written, **_provenance(run, section, columns),
            wall_time_s=round(time.monotonic() - t0, 6),
        )
        print(f"sweep '{stem}': {len(points)} points -> {', '.join(written)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    trials = 20_000 if args.trials is None else _read("run", "trials", str(args.trials))
    criteria = None
    if args.criteria is not None:
        try:
            criteria = [int(tok) for tok in _words(args.criteria)]
        except ValueError:
            raise ConfigError(f"--criteria expects integers, got {args.criteria!r}") from None
        if not criteria:
            raise ConfigError(f"--criteria names no criterion, got {args.criteria!r}")
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

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--trials", type=int, default=None, help="override [run] trials")
        p.add_argument("--out-dir", default=".", help="output directory")

    for kind, desc in (
        ("simulate", "Monte Carlo spectral efficiency for one configuration"),
        ("bounds", "closed-form bound values for one configuration"),
        ("throughput", "optimal beam count and throughput for one configuration"),
        ("sweep", "run every [sweep:NAME] section of the config"),
    ):
        p = sub.add_parser(kind, help=desc)
        p.add_argument("--config", required=True, help="INI config file")
        add_run_flags(p)
        p.add_argument("--units", choices=("nats", "bits"), default=None,
                       help="override [run] units")

    # The report is in nats: validate takes no --units.
    p = sub.add_parser("validate", help="run the built-in validation suite")
    add_run_flags(p)
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
