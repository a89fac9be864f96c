"""The benchmark's workloads: the beamsim command and INI config of each.

Each workload loads one layer heavily and leaves the others almost idle:

* ``mc_sweep``     -- ``beamsim sweep`` whose every section outputs only
  ``sim_se``: the Monte Carlo engine and the fading draws do the work, the
  closed-form bounds none.
* ``bounds_sweep`` -- ``beamsim sweep`` with no ``sim_se``: the bounds,
  special functions, planner and CSV writing do the work, Monte Carlo none.
  The velocity plan section stays last, so a failure there (see
  ``reference.json``, ``known_defect``) leaves the sections before it timed.
* ``validate``     -- ``beamsim validate`` at the acceptance budget: many
  short Monte Carlo calls beside quadrature oracles and the planner.

Every workload runs on one Monte Carlo worker.  On a two-core machine two
workers need both cores at once, so any other load on one core slows them:
with one core kept half busy, ``validate``'s ``run_s`` rose 29% on two
workers and 7% on one.  The two-worker path is still timed, in the traced
runs (``montecarlo.scaling_eff_2w``).

The seed only feeds the program's ``seed`` setting; the swept values are
fixed so that stored references apply to every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

NAMES = ("mc_sweep", "bounds_sweep", "validate")

MC_TRIALS = 400_000
VALIDATE_TRIALS = 100_000
VALIDATE_THREADS = "1"

# (section name, keys) in the order the sweep runs them.
MC_SECTIONS: list[tuple[str, dict[str, str]]] = [
    ("nakagami", {
        "variable": "lambda0", "start": "1.0", "stop": "3.5", "count": "6",
        "b": "121", "m": "3.2", "snr_coeff": "0.01", "outputs": "sim_se",
    }),
    ("rayleigh", {
        "variable": "lambda0", "values": "1.0, 1.25, 2.0",
        "b": "625", "snr_coeff": "0.01", "outputs": "sim_se",
    }),
    ("rician", {
        "variable": "k_db", "start": "0.0", "stop": "10.0", "count": "3",
        "lambda0": "3.5", "b": "625", "snr_coeff": "0.01", "outputs": "sim_se",
    }),
]

_BOUND_TAGS = "upper_nakagami, upper_rayleigh, lower, sparse"

BOUNDS_SECTIONS: list[tuple[str, dict[str, str]]] = [
    # m in [0.6, 4.0] crosses the three evaluation regimes of the Nakagami
    # upper bound: quadrature only (m < 1), certified series (1 <= m < 3 at
    # B = 121) and series rejected then quadrature (m >= 3).
    ("m_sweep", {
        "variable": "m", "start": "0.6", "stop": "4.0", "count": "69",
        "lambda0": "1.9", "b": "121", "snr_coeff": "0.01",
        "outputs": "upper_nakagami, lower",
    }),
    ("b_sweep", {
        "variable": "b", "start": "16", "stop": "1024", "count": "127",
        "lambda0": "1.9", "m": "3.2", "snr_coeff": "0.01", "outputs": _BOUND_TAGS,
    }),
    ("rho_sweep", {
        "variable": "rho", "start": "0.5", "stop": "50", "count": "100",
        "lambda0": "1.9", "b": "121", "m": "1.5", "outputs": _BOUND_TAGS,
    }),
    # Planner sweep; must stay last (see the module docstring).
    ("plan", {
        "variable": "velocity", "start": "0.5", "stop": "30", "count": "60",
        "lambda0": "1.9", "b": "121", "snr_coeff": "0.01", "t_f": "5e-6",
        "n_b": "4", "carrier_freq": "60e9",
        "b_values": "16, 64, 121, 256, 625, 1024",
        "outputs": "tp, b_star_numeric, b_star_closed, hpbw_star",
    }),
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload instantiated for a seed."""

    name: str
    argv: tuple[str, ...]          # beamsim arguments, before --config/--out-dir
    config: str | None             # INI text passed with --config, if any
    threads: str | None            # BEAMSIM_THREADS for the child, None = unset


def render_ini(seed: int, sections: list[tuple[str, dict[str, str]]], trials: int | None) -> str:
    lines = ["[run]", "schema_version = 1", f"seed = {seed}"]
    if trials is not None:
        lines.append(f"trials = {trials}")
    for name, keys in sections:
        lines += ["", f"[sweep:{name}]"] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def build(name: str, seed: int) -> Workload:
    if name == "mc_sweep":
        return Workload(name, ("sweep",), render_ini(seed, MC_SECTIONS, MC_TRIALS), None)
    if name == "bounds_sweep":
        return Workload(name, ("sweep",), render_ini(seed, BOUNDS_SECTIONS, None), None)
    if name == "validate":
        return Workload(
            name, ("validate", "--trials", str(VALIDATE_TRIALS), "--seed", str(seed)), None, VALIDATE_THREADS
        )
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
