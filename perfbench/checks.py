"""Correctness checks of one beamsim process against ``reference.json``.

An op is one sweep row (with its ``_tp.csv`` rows, if any) or one
validation criterion.  An op fails when its row is missing or wrong, or
when the process ended with an exit code its workload does not expect.
Failures explained by a recorded known defect (``known_defect``, and the
criteria of ``validate`` listed in ``may_fail``) are counted as failed but
not as unexpected; any other failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field

# Relative tolerance on the swept value itself.
VALUE_RTOL = 1e-12

_CRITERION_LINE = re.compile(r"^\[\s*(\d+)\] \S+\s+(PASS|FAIL)\b", re.M)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    problems: Counter = field(default_factory=Counter)

    def add(self, problem: str | None, known: bool = False) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        self.unexpected += not known
        self.problems[("known defect: " if known else "") + problem] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.problems.update(other.problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _parse_csv(data: bytes | None) -> list[list[str]] | None:
    if data is None:
        return None
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def _cell_problem(col: str, want, got: str, rtol: float) -> str | None:
    if want == "" or isinstance(want, str):
        return None if got == want else f"{col}: expected {want!r}, got {got!r}"
    try:
        val = float(got)
    except ValueError:
        return f"{col}: expected a number, got {got!r}"
    if not math.isfinite(val) or abs(val - want) > rtol * abs(want):
        return f"{col}: {val!r} differs from reference {want!r}"
    return None


def _row_problem(header: list[str], want: list, got: list[str] | None, rtol: float, mc: dict | None) -> str | None:
    if got is None:
        return "missing row"
    if len(got) != len(want):
        return f"row has {len(got)} cells, expected {len(want)}"
    cells = dict(zip(header, got))
    for i, (col, w) in enumerate(zip(header, want)):
        if mc is not None and col == "sim_se":
            problem = _sim_se_problem(w, cells["sim_se"], cells["sim_ci95"], mc)
        elif mc is not None and col == "sim_ci95":
            problem = _cell_problem(col, w, got[i], mc["ci95_rtol"])
        else:
            problem = _cell_problem(col, w, got[i], VALUE_RTOL if i == 0 else rtol)
        if problem:
            return problem
    return None


def _sim_se_problem(exact: float, se: str, ci95: str, mc: dict) -> str | None:
    try:
        se_val, ci_val = float(se), float(ci95)
    except ValueError:
        return f"sim_se/sim_ci95 not numbers: {se!r}, {ci95!r}"
    limit = mc["sim_se_ci95_multiple"] * ci_val
    if not abs(se_val - exact) <= limit:
        return f"sim_se {se_val!r} is more than {limit!r} from exact {exact!r}"
    return None


def check_sweep(workload: str, reference: dict, exit_code: int, stderr: str, files: dict[str, bytes]) -> Tally:
    ref = reference[workload]
    known = reference["known_defect"]
    known_exit = (
        known["workload"] == workload
        and exit_code == known["exit_code"]
        and known["stderr"] in stderr
    )
    exit_problem = None if exit_code == 0 or known_exit else f"exit code {exit_code}"
    mc = ref if "sim_se_ci95_multiple" in ref else None
    rtol = ref.get("rtol", VALUE_RTOL)
    tally = Tally()
    for name, sec in ref["sections"].items():
        known_here = known_exit and name == known["section"]
        rows = _parse_csv(files.get(f"{name}.csv"))
        header_problem = None
        if rows is not None and rows[:1] != [sec["header"]]:
            header_problem = f"{name}.csv header {rows[:1]!r}"
        body = rows[1:] if rows else []
        tp_body = None
        if "tp_rows" in sec:
            tp_rows = _parse_csv(files.get(f"{name}_tp.csv"))
            tp_body = tp_rows[1:] if tp_rows and tp_rows[0] == sec["tp_header"] else []
            per_row = len(sec["tp_rows"]) // len(sec["rows"])
        for i, want in enumerate(sec["rows"]):
            problem = exit_problem or header_problem
            if problem is None:
                problem = _row_problem(sec["header"], want, body[i] if i < len(body) else None, rtol, mc)
            if problem is None and tp_body is not None:
                for j in range(i * per_row, (i + 1) * per_row):
                    got = tp_body[j] if j < len(tp_body) else None
                    problem = _row_problem(sec["tp_header"], sec["tp_rows"][j], got, rtol, None)
                    if problem:
                        problem = f"{name}_tp.csv: {problem}"
                        break
            tally.add(f"{name}: {problem}" if problem else None, known=known_here)
        for _ in range(len(body) - len(sec["rows"])):
            tally.add(f"{name}: unexpected extra row")
    return tally


def check_validate(reference: dict, exit_code: int, stdout: str) -> Tally:
    ref = reference["validate"]
    expected_exit = 1 if ref["expected_fail"] else 0
    found = {int(num): status for num, status in _CRITERION_LINE.findall(stdout)}
    tally = Tally()
    for c in ref["criteria"]:
        want = "FAIL" if c in ref["expected_fail"] else "PASS"
        known = False
        if exit_code != expected_exit:
            problem = f"exit code {exit_code}, expected {expected_exit}"
        elif c not in found:
            problem = f"criterion {c} missing from the report"
        elif found[c] != want:
            problem = f"criterion {c} {found[c]}, expected {want}"
            known = found[c] == "FAIL" and str(c) in ref.get("may_fail", {})
        else:
            problem = None
        tally.add(problem, known=known)
    return tally


def check_process(workload: str, reference: dict, exit_code: int, stdout: str, stderr: str,
                  files: dict[str, bytes]) -> Tally:
    if workload == "validate":
        return check_validate(reference, exit_code, stdout)
    return check_sweep(workload, reference, exit_code, stderr, files)


def all_failed(tally: Tally, problem: str) -> Tally:
    """Every op of the process fails, e.g. when its outputs are not reproducible."""
    out = Tally()
    for _ in range(tally.attempted):
        out.add(problem)
    return out
