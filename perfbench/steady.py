"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]

Each set runs ``run.py --trace 0`` at ``BENCHMARK.json``'s ``run_seconds``
once per workload of ``BENCHMARK.json`` for each of ``--runs`` seeds (every
run its own seed; the workloads interleave so that a slow spell of the
machine hits all of them).  For each workload and end-to-end metric it
prints, per set, the median, the quartiles and the spread
(q3 - q1) / median of the runs' values, and the shift of each set's median
from the first set's, against the metric's bound in ``BENCHMARK.json``.
Exits 1 if any run was incorrect, or any spread or any median shift, up or
down, exceeds its metric's bound.
With ``--sets 1 --runs 1`` it is one plain run of every workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(args.sets)] for w in names}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in names:
                res = bench_run(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: correct {res['correct']} "
                      f"failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{k} {v['value']:.4f}" for k, v in res["metrics"].items()),
                      flush=True)
            seed += 1

    ok = True
    print(f"\n{'workload':<13} {'metric':<12} {'unit':<5} set   n   median        q1            q3"
          "            spread  shift   bound")
    for w in names:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3 = summary(values)
                spread = (q3 - q1) / med
                first_median = med if first_median is None else first_median
                shift = med / first_median - 1.0
                flag = ""
                if spread > bound:
                    flag += " SPREAD>BOUND"
                if abs(shift) > bound:
                    flag += " SHIFT>BOUND"
                ok = ok and not flag
                print(f"{w:<13} {name:<12} {metric['unit']:<5} {s + 1:<3} {len(values):<3} "
                      f"{med:<13.6g} {q1:<13.6g} {q3:<13.6g} {spread:<7.4f} {shift:+.4f} "
                      f"{bound}{flag}")
        for s, runs in enumerate(results[w]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            ok = ok and correct
            print(f"{w:<13} error_rate   ratio {s + 1:<3} {len(runs):<3} {failed / attempted:<13.6g} "
                  f"({failed} failed of {attempted} ops; all runs correct: {correct})")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
