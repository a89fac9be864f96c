"""Tracing for the benchmark's traced run, from outside the program.

The tracer wraps the public functions through which the CLI reaches each
layer.  Callers hold their own bindings (``from .channel import
sample_path_powers``), so every module attribute of ``beamsim`` bound to a
target function is patched, not only the defining one.  Each call records a
span (id, name, start, end, parent id, notes) in memory; spans opened in a
Monte Carlo worker thread take the innermost span of the installing thread
as their parent.  :func:`derive` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _family(fading) -> str:
    return fading.family.name.split("_")[0].lower()


def _note_csv(args):
    return {"rows": len(args["rows"]), "bytes": Path(args["path"]).stat().st_size}


def _note_sim(args):
    return {"trials": args["config"].trials, "family": _family(args["config"].fading)}


def _note_paths(args):
    return {"paths": int(args["n"]), "family": _family(args["model"])}


# (module, attribute, span name, note); a target missing from the program is
# skipped, so a later revision that deletes one still traces the rest.
TARGETS = [
    ("beamsim.cli", "load_config", "cli.load_config", None),
    ("beamsim.cli", "_write_csv", "cli.csv", _note_csv),
    ("beamsim.montecarlo", "estimate_se", "montecarlo.estimate_se", _note_sim),
    ("beamsim.montecarlo", "empirical_opt_power_cdf", "montecarlo.empirical_cdf", None),
    ("beamsim.channel", "sample_path_powers", "channel.sample_path_powers", _note_paths),
    ("beamsim.rng", "substream", "rng.substream", None),
    ("beamsim.analytic", "se_upper_nakagami", "analytic.se_upper_nakagami", None),
    ("beamsim.analytic", "max_exp_log_moment_quad", "analytic.certify_quad", None),
    ("beamsim.analytic", "se_upper_rayleigh", "analytic.se_upper_rayleigh", None),
    ("beamsim.analytic", "se_lower", "analytic.se_lower", None),
    ("beamsim.analytic", "se_sparse_approx", "analytic.se_sparse_approx", None),
    ("beamsim.analytic", "opt_power_cdf", "analytic.opt_power_cdf", None),
    ("beamsim.specfun", "exp_e1_scaled", "specfun.exp_e1_scaled", None),
    ("beamsim.specfun", "ln_gamma", "specfun.ln_gamma", None),
    ("beamsim.specfun", "reg_lower_gamma", "specfun.reg_lower_gamma", None),
    ("beamsim.throughput", "optimal_b_numeric", "throughput.optimal_b_numeric", None),
    ("beamsim.throughput", "optimal_b_closed_form", "throughput.optimal_b_closed_form", None),
    ("beamsim.throughput", "throughput_continuous", "throughput.throughput_continuous", None),
    ("beamsim.throughput", "coherence_time", "throughput.coherence_time", None),
    ("beamsim.throughput", "optimal_hpbw", "throughput.optimal_hpbw", None),
]

FAMILIES = ("nakagami", "rayleigh", "rician")
CRITERIA = range(1, 12)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.upper_calls: list = []    # (model, rho, method) of se_upper_nakagami

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, note, args, kwargs):
        stack = self._stack()
        outer = stack or self._owner_stack
        parent = outer[-1] if outer else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, {"raised": type(exc).__name__}))
            raise
        t1 = time.perf_counter()
        stack.pop()
        self.spans.append((sid, name, t0, t1, parent, note(args, kwargs) if note else None))
        return result

    def _wrap(self, name, fn, note):
        if note is not None:
            # Notes see the call's arguments by parameter name, defaults applied.
            signature = inspect.signature(fn)

            def named(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return note(bound.arguments)
        else:
            named = None

        def traced(*args, **kwargs):
            return self.call(name, fn, named, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _note_upper(self, args):
        self.upper_calls.append((args["model"], args["rho"], args.get("method", "auto")))
        return None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "beamsim" or n.startswith("beamsim."))]
        extra_notes = {"analytic.se_upper_nakagami": self._note_upper}
        for mod_name, attr, name, note in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, note or extra_notes.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        cli = sys.modules["beamsim.cli"]
        self._patch(cli.Manifest, "record", self._wrap("cli.manifest", cli.Manifest.record, None))
        criteria = getattr(sys.modules["beamsim.validation"], "_CRITERIA", {})
        for index, fn in list(criteria.items()):
            self._patch(criteria, index, self._wrap(f"validation.c{index:02d}", fn, None))

    def _patch(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def replay(self) -> dict:
        """Derived figures that need the recorded calls re-run, outside any span."""
        import beamsim.analytic as analytic

        out = {"series_ok_ratio": 0.0}
        evaluate = getattr(analytic, "se_upper_nakagami_eval", None)
        attempts = certified = 0
        if evaluate is not None:
            # The series path is tried for shape m >= 1 unless quadrature is forced.
            for model, rho, method in self.upper_calls:
                if model.m >= 1.0 and method in ("auto", "series"):
                    attempts += 1
                    certified += evaluate(model, rho, method=method).method == "series"
        if attempts:
            out["series_ok_ratio"] = certified / attempts
        return out


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def derive(spans: list, replay: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
        children[span[4]].append(span)

    def busy(name: str) -> float:
        return _union((s[2], s[3]) for s in by_name[name])

    def self_time(span) -> float:
        lo, hi = span[2], span[3]
        covered = _union((max(c[2], lo), min(c[3], hi)) for c in children[span[0]] if c[3] > lo and c[2] < hi)
        return hi - lo - covered

    def total(name: str, key: str) -> float:
        return sum((s[5] or {}).get(key, 0) for s in by_name[name])

    def per_family(name: str, key: str, family: str) -> tuple[float, float]:
        chosen = [s for s in by_name[name] if (s[5] or {}).get("family") == family]
        return sum(s[5][key] for s in chosen), sum(s[3] - s[2] for s in chosen)

    m: dict[str, float] = {}
    main = by_name["cli.main"]
    m["cli.load_config.busy_s"] = busy("cli.load_config")
    m["cli.manifest.lines"] = len(by_name["cli.manifest"])
    m["cli.manifest.busy_s"] = busy("cli.manifest")
    m["cli.csv.rows"] = total("cli.csv", "rows")
    m["cli.csv.bytes"] = total("cli.csv", "bytes")
    m["cli.self_s"] = sum(self_time(s) for s in main)

    est = by_name["montecarlo.estimate_se"]
    m["montecarlo.estimate_se.calls"] = len(est)
    m["montecarlo.estimate_se.trials"] = total("montecarlo.estimate_se", "trials")
    m["montecarlo.estimate_se.busy_s"] = busy("montecarlo.estimate_se")
    for family in FAMILIES:
        trials, seconds = per_family("montecarlo.estimate_se", "trials", family)
        m[f"montecarlo.trials_per_s.{family}"] = trials / seconds if seconds else 0.0
    m["montecarlo.self_s"] = sum(self_time(s) for s in est)
    m["montecarlo.empirical_cdf.calls"] = len(by_name["montecarlo.empirical_cdf"])
    m["montecarlo.empirical_cdf.busy_s"] = busy("montecarlo.empirical_cdf")

    m["channel.sample_path_powers.calls"] = len(by_name["channel.sample_path_powers"])
    m["channel.sample_path_powers.paths"] = total("channel.sample_path_powers", "paths")
    m["channel.sample_path_powers.busy_s"] = busy("channel.sample_path_powers")
    for family in FAMILIES:
        paths, seconds = per_family("channel.sample_path_powers", "paths", family)
        m[f"channel.sample_path_powers.ns_per_path.{family}"] = seconds / paths * 1e9 if paths else 0.0
    m["rng.substream.calls"] = len(by_name["rng.substream"])
    m["rng.substream.busy_s"] = busy("rng.substream")

    upper = by_name["analytic.se_upper_nakagami"]
    m["analytic.se_upper_nakagami.calls"] = len(upper)
    m["analytic.se_upper_nakagami.busy_s"] = busy("analytic.se_upper_nakagami")
    m["analytic.se_upper_nakagami.ms_per_call"] = (
        sum(s[3] - s[2] for s in upper) / len(upper) * 1e3 if upper else 0.0
    )
    m["analytic.se_upper_nakagami.series_ok_ratio"] = replay["series_ok_ratio"]
    m["analytic.certify_quad.calls"] = len(by_name["analytic.certify_quad"])
    m["analytic.certify_quad.busy_s"] = busy("analytic.certify_quad")
    m["analytic.se_upper_rayleigh.busy_s"] = busy("analytic.se_upper_rayleigh")
    m["analytic.se_lower.busy_s"] = busy("analytic.se_lower")
    m["analytic.opt_power_cdf.calls"] = len(by_name["analytic.opt_power_cdf"])
    m["analytic.opt_power_cdf.busy_s"] = busy("analytic.opt_power_cdf")

    for fn in ("exp_e1_scaled", "ln_gamma", "reg_lower_gamma"):
        m[f"specfun.{fn}.calls"] = len(by_name[f"specfun.{fn}"])
        m[f"specfun.{fn}.busy_s"] = busy(f"specfun.{fn}")

    numeric = by_name["throughput.optimal_b_numeric"]
    m["throughput.optimal_b_numeric.calls"] = len(numeric)
    m["throughput.optimal_b_numeric.busy_s"] = busy("throughput.optimal_b_numeric")
    m["throughput.infeasible.count"] = sum(
        (s[5] or {}).get("raised") == "InfeasibleConfigError" for s in numeric
    )
    for index in CRITERIA:
        m[f"validation.c{index:02d}.busy_s"] = busy(f"validation.c{index:02d}")
    return m
