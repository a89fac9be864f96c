"""beamsim benchmark: one workload, run in fresh CLI processes, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are described in
``workloads.py``.  Every process is launched hermetically: ``PYTHONPATH``
holds only the checkout's absolute ``src`` path, ``BEAMSIM_THREADS`` is set
by the workload (unset means the default single worker), and each process
writes to a fresh output directory under ``.perfbench_work/`` (git-ignored,
so it cannot mark the version string dirty), removed after its outputs are
checked.

``--trace 0`` repeats the workload for ``--seconds`` (at least
``MIN_RUNS`` times) after one untimed warm-up import and reports, as the
tenth percentile over the processes (see ``tenth_percentile``), the
end-to-end metrics:

* ``wall_s``      -- process spawn to exit, import included;
* ``setup_s``     -- spawn until ``beamsim.cli`` is imported;
* ``run_s``       -- duration of ``beamsim.cli.main(argv)``;
* ``peak_rss_mb`` -- peak resident set of that one process (``wait4``).

``--trace 1`` alternates untraced and traced processes for ``--seconds``
and reports the per-layer metrics of ``spans.derive`` (medians over the
traced processes), the import breakdown of ``python -X importtime``,
``montecarlo.scaling_eff_2w`` from traced ``mc_sweep`` processes of the
same seed at 1 and 2 workers (checked and counted like the others, whatever
the workload), and ``trace.overhead_s``, the traced minus the untraced
``run_s``, both as tenth percentiles.  Metric names and units are those
of ``BENCHMARK.json``.

Every process's outputs are checked against ``reference.json`` (see
``checks.py``) and against the first process of the same run, which must
write identical bytes.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (ops; their ratio is
``error_rate``) and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_RUNS = 3
IMPORT_RUNS = 3
SCALING_PAIRS = 2
CHILD_TIMEOUT_S = 120.0

IMPORT_METRICS = ("import.numpy_s", "import.scipy_s", "import.beamsim_self_s")


@dataclass
class Sample:
    wall_s: float
    setup_s: float | None
    run_s: float | None
    peak_rss_mb: float
    tally: checks.Tally
    timings: dict | None
    spans: dict | None


def child_env(workload: workloads.Workload) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BEAMSIM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if workload.threads is not None:
        env["BEAMSIM_THREADS"] = workload.threads
    return env


def run_once(workload: workloads.Workload, reference: dict, traced: bool,
             first_outputs: dict | None) -> tuple[Sample, dict]:
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        argv = list(workload.argv)
        if workload.config is not None:
            config = run_dir / "config.ini"
            config.write_text(workload.config, encoding="utf-8")
            argv += ["--config", str(config)]
        out_dir = run_dir / "out"
        argv += ["--out-dir", str(out_dir)]
        timings_path, spans_path = run_dir / "timings.json", run_dir / "spans.json"
        cmd = [sys.executable, str(HERE / "launch.py"), str(timings_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        cmd += ["--", *argv]
        with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(workload), cwd=run_dir)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            exited = time.monotonic()
        proc.returncode = exit_code = os.waitstatus_to_exitcode(status)

        stdout = (run_dir / "stdout").read_text(encoding="utf-8", errors="replace")
        stderr = (run_dir / "stderr").read_text(encoding="utf-8", errors="replace")
        outputs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
        if workload.name == "validate":
            outputs["stdout"] = stdout.encode("utf-8")
        tally = checks.check_process(workload.name, reference, exit_code, stdout, stderr, outputs)
        if first_outputs is not None and outputs != first_outputs:
            tally = checks.all_failed(tally, "outputs differ from the first process of this seed")
        if tally.unexpected and stderr.strip():
            print(f"{workload.name}: exit {exit_code}; stderr: {stderr.strip().splitlines()[-1]}")
        timings = json.loads(timings_path.read_text()) if timings_path.exists() else None
        traced_spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
        sample = Sample(
            wall_s=exited - spawned,
            setup_s=timings["imported"] - spawned if timings else None,
            run_s=timings["main_end"] - timings["main_start"] if timings else None,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            tally=tally,
            timings=timings,
            spans=traced_spans,
        )
        return sample, outputs
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def import_breakdown(env: dict[str, str]) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import beamsim.cli"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=WORK,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import beamsim.cli failed: {proc.stderr.strip()[-500:]}")
    return parse_importtime(proc.stderr)


def parse_importtime(log: str) -> dict[str, float]:
    """Self import time of numpy, scipy and beamsim from a ``-X importtime`` log.

    Each module's self time goes to the nearest enclosing numpy, scipy or
    beamsim import (itself included), so stdlib modules pulled in by numpy
    count as numpy.  The log is in post-order: a module after its imports.
    """
    entries = []
    for line in log.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if match:
            entries.append((int(match[1]), len(match[2]) // 2, match[3]))
    totals = {"numpy": 0, "scipy": 0, "beamsim": 0}
    stack: list[tuple[int, str | None]] = []
    for self_us, depth, module in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = module.split(".")[0]
        owner = top if top in totals else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner:
            totals[owner] += self_us
    return {
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.beamsim_self_s": totals["beamsim"] / 1e6,
    }


def tenth_percentile(values: list[float]) -> float:
    """Tenth percentile, interpolated between the samples (never below the smallest).

    The run's figure for each end-to-end metric.  Other tenants of the host
    slow its cores by up to half for seconds to minutes at a time, and a
    slowdown only ever adds to a process's time.  Over 35 s windows of
    back-to-back ``bounds_sweep`` processes in such a spell, the spread
    (q3 - q1) / median of the windows' ``run_s`` was 0.254 for the median
    and 0.071 for the tenth percentile; on a quiet host, 0.086 and 0.065.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def warm_up(env: dict[str, str]) -> None:
    """One untimed import, so the timed processes find the bytecode caches written."""
    proc = subprocess.run([sys.executable, "-c", "import beamsim.cli"], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=WORK)
    if proc.returncode != 0:
        raise RuntimeError(f"import beamsim.cli failed: {proc.stderr.strip()[-500:]}")


def scaling_efficiency(seed: int, reference: dict) -> tuple[float, checks.Tally]:
    """``mc_sweep``'s ``estimate_se`` busy time at 1 over 2 workers, halved.

    Runs the seed's ``mc_sweep`` traced at ``BEAMSIM_THREADS`` 1 and 2,
    ``SCALING_PAIRS`` times each, and compares the medians.  Returns the
    figure and the check tally of those processes.
    """
    base = workloads.build("mc_sweep", seed)
    busy: dict[str, list[float]] = {"1": [], "2": []}
    tally = checks.Tally()
    for _ in range(SCALING_PAIRS):
        for workers, times in busy.items():
            sample, _ = run_once(dataclasses.replace(base, threads=workers), reference, True, None)
            tally.merge(sample.tally)
            if sample.spans:
                derived = spans.derive(sample.spans["spans"], sample.spans["replay"])
                times.append(derived["montecarlo.estimate_se.busy_s"])
    if not busy["1"] or not busy["2"]:
        return 0.0, tally
    return statistics.median(busy["1"]) / statistics.median(busy["2"]) / 2.0, tally


def measure(workload, reference, seconds: float, trace: bool):
    """Run processes until ``seconds`` have passed; returns (untraced, traced) samples."""
    untraced: list[Sample] = []
    traced: list[Sample] = []
    first = None
    start = time.monotonic()
    while (len(traced) if trace else len(untraced)) < (1 if trace else MIN_RUNS) \
            or time.monotonic() - start < seconds:
        sample, outputs = run_once(workload, reference, False, first)
        first = outputs if first is None else first
        untraced.append(sample)
        if trace:
            sample, _ = run_once(workload, reference, True, first)
            traced.append(sample)
    return untraced, traced


def print_env(workload: workloads.Workload, samples: list[Sample]) -> None:
    info = next((s.timings for s in samples if s.timings), {})
    print(
        f"env: python {info.get('python')} numpy {info.get('numpy')} scipy {info.get('scipy')} "
        f"nproc {os.cpu_count()} BEAMSIM_THREADS {workload.threads or 'unset'}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "beamsim" / "cli.py").is_file():
        print(f"error: no beamsim sources at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    env = child_env(workload)
    try:
        warm_up(env)
        imports = [import_breakdown(env) for _ in range(IMPORT_RUNS)] if args.trace else []
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    untraced, traced = measure(workload, reference, args.seconds, bool(args.trace))
    samples = untraced + traced
    tally = checks.Tally()
    for sample in samples:
        tally.merge(sample.tally)
    if args.trace:
        scaling, scaling_tally = scaling_efficiency(args.seed, reference)
        tally.merge(scaling_tally)
    timed = [s for s in untraced if s.run_s is not None]
    if not timed or (args.trace and not any(s.spans for s in traced)):
        print("error: no process completed; nothing was measured", file=sys.stderr)
        return 1

    print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced processes")
    print_env(workload, samples)
    print(f"error_rate {tally.error_rate!r} ({tally.failed} failed of {tally.attempted} ops, "
          f"{tally.unexpected} unexpected)")
    for problem, count in tally.problems.most_common(5):
        print(f"  {count} x {problem}")

    metrics: dict[str, dict] = {}
    if not args.trace:
        for metric in bench["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            values = [getattr(s, name) for s in timed]
            value = tenth_percentile(values)
            med, q1, q3 = summary(values)
            print(f"{name} {value!r} {unit} (tenth percentile of n {len(values)}; min {min(values)!r}, "
                  f"q1 {q1!r}, median {med!r}, q3 {q3!r}, max {max(values)!r})")
            metrics[name] = {"value": value, "unit": unit}
    else:
        derived = [spans.derive(s.spans["spans"], s.spans["replay"]) for s in traced if s.spans]
        layer = {k: (statistics.median(d[k] for d in derived), f"median of {len(derived)} traced processes")
                 for k in derived[0]}
        for k in IMPORT_METRICS:
            layer[k] = (statistics.median(d[k] for d in imports), f"median of {len(imports)} -X importtime runs")
        traced_run = tenth_percentile([s.run_s for s in traced if s.run_s is not None])
        layer["trace.overhead_s"] = (traced_run - tenth_percentile([s.run_s for s in timed]),
                                     "traced minus untraced run_s, tenth percentiles")
        layer["montecarlo.scaling_eff_2w"] = (scaling, f"mc_sweep at 1 over 2 workers, {SCALING_PAIRS} pairs")
        for metric in bench["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value, how = layer[name]
            print(f"{name} {value!r} {unit} ({how})")
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
