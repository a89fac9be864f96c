"""Tests of the benchmark's own correctness checks, tracing arithmetic and import parsing.

    python3 -m pytest -q perfbench
"""

import copy
import json
from pathlib import Path

import checks
import run
import spans

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))


def _csv(header, rows) -> bytes:
    lines = [header] + [[repr(c) if isinstance(c, float) else str(c) for c in row] for row in rows]
    return "".join(",".join(cells) + "\r\n" for cells in lines).encode("utf-8")


def _sweep_files(workload: str) -> dict[str, bytes]:
    files = {}
    for name, sec in REFERENCE[workload]["sections"].items():
        files[f"{name}.csv"] = _csv(sec["header"], sec["rows"])
        if "tp_rows" in sec:
            files[f"{name}_tp.csv"] = _csv(sec["tp_header"], sec["tp_rows"])
    return files


def _rows(workload: str) -> int:
    return sum(len(sec["rows"]) for sec in REFERENCE[workload]["sections"].values())


def _report(statuses: dict[int, str]) -> str:
    lines = [f"[{c:2d}] crit-{c}  {s}  detail" for c, s in statuses.items()]
    return "\n".join(["beamsim validation (seed=1, trials=100000)", *lines]) + "\n"


EXPECTED_REPORT = {c: ("FAIL" if c in (2, 7, 8) else "PASS") for c in range(1, 12)}


def test_reference_outputs_pass():
    for workload in ("mc_sweep", "bounds_sweep"):
        tally = checks.check_sweep(workload, REFERENCE, 0, "", _sweep_files(workload))
        assert (tally.attempted, tally.failed) == (_rows(workload), 0), tally.problems
    tally = checks.check_validate(REFERENCE, 1, _report(EXPECTED_REPORT))
    assert (tally.attempted, tally.failed) == (11, 0)


def test_corrupted_cell_counts_as_failed_op():
    files = _sweep_files("bounds_sweep")
    text = files["b_sweep.csv"].decode()
    lines = text.split("\r\n")
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[5] = ",".join(cells)
    files["b_sweep.csv"] = "\r\n".join(lines).encode()
    tally = checks.check_sweep("bounds_sweep", REFERENCE, 0, "", files)
    assert tally.failed == 1 and tally.unexpected == 1
    assert tally.error_rate == 1 / _rows("bounds_sweep")


def test_nonnumeric_and_empty_cells_fail():
    files = _sweep_files("bounds_sweep")
    files["m_sweep.csv"] = files["m_sweep.csv"].replace(b"nats", b"bits", 1)
    plan = REFERENCE["bounds_sweep"]["sections"]["plan"]
    feasible = copy.deepcopy(plan)
    feasible["rows"][0][1] = ""  # a feasible point written as an empty cell
    files["plan.csv"] = _csv(feasible["header"], feasible["rows"])
    tally = checks.check_sweep("bounds_sweep", REFERENCE, 0, "", files)
    assert tally.failed == 2


def test_missing_row_counts_as_failed_op():
    files = _sweep_files("mc_sweep")
    files["rayleigh.csv"] = b"\r\n".join(files["rayleigh.csv"].split(b"\r\n")[:-2]) + b"\r\n"
    tally = checks.check_sweep("mc_sweep", REFERENCE, 0, "", files)
    assert tally.failed == 1 and tally.unexpected == 1


def test_missing_file_fails_every_row_of_it():
    files = _sweep_files("mc_sweep")
    del files["rician.csv"]
    tally = checks.check_sweep("mc_sweep", REFERENCE, 0, "", files)
    assert tally.failed == len(REFERENCE["mc_sweep"]["sections"]["rician"]["rows"])


def test_sim_se_outside_its_ci_fails():
    mc = copy.deepcopy(REFERENCE["mc_sweep"])
    row = mc["sections"]["nakagami"]["rows"][0]
    row[1] += 4 * row[2]  # 4 x ci95 away, beyond the 3 x ci95 allowed
    files = _sweep_files("mc_sweep")
    files["nakagami.csv"] = _csv(mc["sections"]["nakagami"]["header"], mc["sections"]["nakagami"]["rows"])
    tally = checks.check_sweep("mc_sweep", REFERENCE, 0, "", files)
    assert tally.failed == 1
    row[1] -= 2 * row[2]  # 2 x ci95 away: within the allowance
    files["nakagami.csv"] = _csv(mc["sections"]["nakagami"]["header"], mc["sections"]["nakagami"]["rows"])
    assert checks.check_sweep("mc_sweep", REFERENCE, 0, "", files).failed == 0


def test_wrong_exit_code_fails_every_op():
    tally = checks.check_sweep("mc_sweep", REFERENCE, 2, "config error: x", _sweep_files("mc_sweep"))
    assert tally.failed == tally.attempted == _rows("mc_sweep")
    tally = checks.check_validate(REFERENCE, 0, _report(EXPECTED_REPORT))
    assert tally.failed == tally.attempted == 11


def test_validate_flipped_or_missing_criterion_fails():
    statuses = {**EXPECTED_REPORT, 5: "FAIL"}
    del statuses[9]
    tally = checks.check_validate(REFERENCE, 1, _report(statuses))
    assert tally.failed == 2 and tally.unexpected == 2


def test_validate_seed_dependent_criterion_is_failed_but_expected():
    tally = checks.check_validate(REFERENCE, 1, _report({**EXPECTED_REPORT, 4: "FAIL"}))
    assert tally.failed == 1 and tally.unexpected == 0
    # Only a FAIL of a listed criterion is expected; a PASS of an expected FAIL is not.
    tally = checks.check_validate(REFERENCE, 1, _report({**EXPECTED_REPORT, 2: "PASS"}))
    assert tally.failed == 1 and tally.unexpected == 1


def test_known_defect_is_failed_but_expected():
    files = _sweep_files("bounds_sweep")
    del files["plan.csv"], files["plan_tp.csv"]
    stderr = "numerical failure: hpbw_star: beam pair count must be >= 1, got 0.83\n"
    tally = checks.check_sweep("bounds_sweep", REFERENCE, 1, stderr, files)
    plan_rows = len(REFERENCE["bounds_sweep"]["sections"]["plan"]["rows"])
    assert tally.failed == plan_rows and tally.unexpected == 0
    # The same exit from any other workload, or another cause, is unexpected.
    other = checks.check_sweep("bounds_sweep", REFERENCE, 1, "numerical failure: lower\n", files)
    assert other.unexpected == other.attempted


def test_all_failed_marks_every_op():
    tally = checks.check_validate(REFERENCE, 1, _report(EXPECTED_REPORT))
    out = checks.all_failed(tally, "outputs differ")
    assert out.failed == out.unexpected == out.attempted == 11


def test_derive_self_time_subtracts_union_of_children():
    # main [0, 10] has children [1, 4] and [3, 6] (overlapping) and [8, 9].
    trace = [
        (2, "cli.load_config", 1.0, 4.0, 1, None),
        (3, "cli.csv", 3.0, 6.0, 1, {"rows": 4, "bytes": 100}),
        (4, "cli.manifest", 8.0, 9.0, 1, None),
        (5, "specfun.ln_gamma", 8.2, 8.4, 4, None),
        (1, "cli.main", 0.0, 10.0, 0, None),
    ]
    m = spans.derive(trace, {"series_ok_ratio": 0.0})
    assert m["cli.self_s"] == 10.0 - 5.0 - 1.0
    assert (m["cli.csv.rows"], m["cli.csv.bytes"], m["cli.manifest.lines"]) == (4, 100, 1)
    assert m["specfun.ln_gamma.calls"] == 1


def test_parse_importtime_attributes_to_nearest_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       math",
        "import time:       200 |        300 |     numpy.core",
        "import time:        50 |        350 |   numpy",
        "import time:        10 |         10 |       numpy.linalg",
        "import time:       400 |        410 |     scipy.special",
        "import time:        30 |        440 |   scipy",
        "import time:         5 |        795 | beamsim",
        "import time:         7 |          7 | site",
    ])
    m = run.parse_importtime(log)
    assert m == {"import.numpy_s": 360e-6, "import.scipy_s": 430e-6, "import.beamsim_self_s": 5e-6}


def test_tenth_percentile_stays_within_the_samples():
    assert run.tenth_percentile([2.0]) == 2.0
    assert run.tenth_percentile([3.0, 1.0]) == 1.2
    values = [float(v) for v in range(1, 22)]
    assert run.tenth_percentile(values) == 3.0
