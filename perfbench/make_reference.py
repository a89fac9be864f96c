"""Regenerate ``reference.json``, the stored references the benchmark checks against.

    python3 perfbench/make_reference.py

* ``mc_sweep``: the exact mean and 95% half-width of the per-trial rate
  ln(1 + rho Z) under the per-pair Poisson model, with Z the largest
  per-pair power sum.  Pairs are independent, so P(Z <= z) = H(z)^B with
  H(z) = 1 - sum_{k>=1} Pois(k; lambda0/B) Q_k(z) and Q_k the survival
  function of a k-path power sum (Gamma(k m, 1/m) for Nakagami and
  Rayleigh, ncx2(2k, 2kK) / (2(1+K)) for Rician).  Then
  E[h(Z)] = int h'(z) (1 - H(z)^B) dz for h(z) = ln(1 + rho z).  These
  values carry no sampling noise and do not depend on the random stream.
* ``bounds_sweep``: a snapshot of the closed-form sections as this
  revision writes them, and of the planner section computed point by
  point from ``beamsim.throughput`` with infeasible points as empty cells
  (the sweep itself cannot write that section here; see ``known_defect``).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# 95% half-width multiple used by beamsim for sim_ci95.
Z95 = 1.96


def _survival_fn(family: str, param: float, k: int):
    if family == "nakagami":
        return lambda z: special.gammaincc(k * param, param * z)
    if family == "rayleigh":
        return lambda z: special.gammaincc(k, z)
    kk = param
    return lambda z: stats.ncx2.sf(2.0 * (1.0 + kk) * z, 2 * k, 2 * k * kk)


def exact_rate_moments(lambda0: float, b: int, family: str, param: float, rho: float) -> tuple[float, float]:
    """E[h(Z)] and E[h(Z)^2] for h(z) = ln(1 + rho z) under the exact model."""
    mu = lambda0 / b
    terms = []
    k = 1
    while not terms or stats.poisson.sf(k - 1, mu) > 1e-20:
        terms.append((stats.poisson.pmf(k, mu), _survival_fn(family, param, k)))
        k += 1

    def tail(z: float) -> float:  # P(Z > z)
        s = math.fsum(w * q(z) for w, q in terms)
        return -math.expm1(b * math.log1p(-s))

    breaks = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, math.inf]

    def integral(f) -> float:
        return math.fsum(
            integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
            for lo, hi in zip(breaks, breaks[1:])
        )

    m1 = integral(lambda z: rho / (1.0 + rho * z) * tail(z))
    m2 = integral(lambda z: 2.0 * math.log1p(rho * z) * rho / (1.0 + rho * z) * tail(z))
    return m1, m2


def _points(keys: dict[str, str]) -> list[float]:
    if "values" in keys:
        return [float(v) for v in keys["values"].split(",")]
    return [float(v) for v in np.linspace(float(keys["start"]), float(keys["stop"]), int(keys["count"]))]


def mc_reference() -> dict:
    sections = {}
    for name, keys in workloads.MC_SECTIONS:
        var = keys["variable"]
        rows = []
        for value in _points(keys):
            p = {k: float(v) for k, v in keys.items() if k in ("lambda0", "b", "m", "k_db", "snr_coeff")}
            p[var] = value
            b = int(p["b"])
            if "m" in p:
                family, param = "nakagami", p["m"]
            elif "k_db" in p:
                family, param = "rician", 10.0 ** (p["k_db"] / 10.0)
            else:
                family, param = "rayleigh", 1.0
            rho = b * p["snr_coeff"] / p["lambda0"]
            m1, m2 = exact_rate_moments(p["lambda0"], b, family, param, rho)
            ci95 = Z95 * math.sqrt((m2 - m1 * m1) / workloads.MC_TRIALS)
            rows.append([value, m1, ci95, "nats"])
        sections[name] = {"header": [var, "sim_se", "sim_ci95", "units"], "rows": rows}
    return {
        # |sim_se - exact| must stay within this multiple of the row's own
        # sim_ci95 (3 x 1.96 = 5.9 standard errors), and sim_ci95 within
        # this relative distance of its exact value.
        "sim_se_ci95_multiple": 3.0,
        "ci95_rtol": 0.25,
        "sections": sections,
    }


def _read_csv(path: Path) -> tuple[list[str], list[list]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, [[c if c in ("", "nats") else float(c) for c in row] for row in rows]


def plan_reference(keys: dict[str, str]) -> dict:
    from beamsim import throughput
    from beamsim.errors import ApproximationInvalidError, InfeasibleConfigError

    lambda0, snr = float(keys["lambda0"]), float(keys["snr_coeff"])
    b_values = [float(v) for v in keys["b_values"].split(",")]
    rows, tp_rows = [], []
    for v in _points(keys):
        cfg = throughput.ThroughputConfig(
            t_f=float(keys["t_f"]),
            t_total=throughput.coherence_time(v, float(keys["carrier_freq"])),
            k=snr / lambda0, lambda0=lambda0, n_b=int(keys["n_b"]),
        )
        try:
            b_num = throughput.optimal_b_numeric(cfg)
        except InfeasibleConfigError:
            b_num = None
        try:
            b_cf = throughput.optimal_b_closed_form(cfg)
        except ApproximationInvalidError:
            b_cf = None
        if b_num is None:
            # Infeasible point: every planner cell is empty (README contract).
            b_cf = None
        cells = [b_num, b_cf,
                 throughput.optimal_hpbw(b_num) if b_num is not None else None,
                 throughput.optimal_hpbw(b_cf) if b_cf is not None else None]
        rows.append([v] + ["" if c is None else c for c in cells] + ["nats"])
        for b in b_values:
            raw = throughput.throughput_continuous(b, cfg)
            tp_rows.append([v, b, max(raw, 0.0), raw, "nats"])
    return {
        "header": ["velocity", "b_star_numeric", "b_star_closed",
                   "hpbw_star_numeric", "hpbw_star_closed", "units"],
        "rows": rows,
        "tp_header": ["velocity", "b", "tp", "tp_raw", "units"],
        "tp_rows": tp_rows,
    }


def bounds_reference() -> dict:
    import beamsim.cli

    sections = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bounds.ini"
        closed_form = [(n, k) for n, k in workloads.BOUNDS_SECTIONS if n != "plan"]
        cfg.write_text(workloads.render_ini(0, closed_form, None), encoding="utf-8")
        rc = beamsim.cli.main(["sweep", "--config", str(cfg), "--out-dir", tmp])
        if rc != 0:
            raise SystemExit(f"closed-form sections failed with exit code {rc}")
        for name, _ in closed_form:
            header, rows = _read_csv(Path(tmp) / f"{name}.csv")
            sections[name] = {"header": header, "rows": rows}
    sections["plan"] = plan_reference(dict(workloads.BOUNDS_SECTIONS)["plan"])
    return {"rtol": 1e-8, "sections": sections}


def main() -> None:
    reference = {
        "mc_sweep": mc_reference(),
        "bounds_sweep": bounds_reference(),
        "validate": {
            "criteria": list(range(1, 12)),
            "expected_fail": [2, 7, 8],
            "may_fail": {"4": (
                "criterion 4 (optimal-power-cdf-exactness) compares the empirical CDF of --trials draws "
                "with the closed form at a fixed sup-distance limit of 0.01; at 1e5 trials the distance "
                "has mean 0.0051 over seeds 1-1000, 2001-2020 and 3001-3020, and exceeds the limit at "
                "2 of those 1040 seeds (0.0105 at 2003, 0.0107 at 3005)"
            )},
        },
        "known_defect": {
            "workload": "bounds_sweep",
            "section": "plan",
            "exit_code": 1,
            "stderr": "numerical failure: hpbw_star",
            "cause": (
                "optimal_b_closed_form returns B* < 1 at infeasible points for "
                "v in [4.955, 5.59] m/s (0.84 at 5 m/s) while optimal_b_numeric "
                "reports infeasible; optimal_hpbw then raises, the sweep exits 1 "
                "and the plan CSV is never written, so every plan row fails"
            ),
        },
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
