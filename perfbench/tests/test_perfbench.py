"""Tests of the benchmark itself (not of duomech):

    python3 -m pytest perfbench/tests -q

Metric names, exact repetition of the traced counts, identical output with
and without tracing, the reference check catching a changed value, and the
refusal to run without sources.  Under a minute; it runs full passes.
"""

from __future__ import annotations

import gzip
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_METRICS = (
    "dynamics.check_stability.calls_per_point",
    "dynamics.eigvals_per_point",
    "dynamics.solve_per_point",
    "measures.symplectic_eigenvalues.calls_per_point",
    "measures.eigvals_per_point",
    "measures.det_per_point",
    "sweep.find_critical_xi.evals_per_search",
    "montecarlo.steps_to_verdict",
)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, label = run.tail(samples)
    assert value == 89.0 and sum(s > value for s in samples) == 10
    assert label == "p90.0 of 100"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    assert run.tail(samples[:99]) == (98.0, "max of 99")


def _traced(workload):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = workload.run_pass()
    return tracer, result


def _counts(workload):
    tracer, result = _traced(workload)
    metrics = run.per_layer_metrics(tracer, [(1.0, 1.0, result)], [(1.0, 1.0, result)])
    return {name: metrics[name] for name in COUNT_METRICS}, result


@pytest.mark.parametrize("name", ["sweep", "bisect"])
def test_traced_counts_repeat_and_output_is_unchanged(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path)
    untraced = workload.run_pass()
    first, traced = _counts(workload)
    second, _ = _counts(workload)
    assert first == second
    assert traced.outputs == untraced.outputs
    check = workload.check(traced)
    assert check.failed == 0 and check.attempted == traced.points
    assert first["dynamics.check_stability.calls_per_point"] >= 1
    assert first["measures.det_per_point"] >= 1
    if name == "bisect":
        assert first["sweep.find_critical_xi.evals_per_search"] >= 20


def test_oracle_counts_repeat_and_reference_seed_matches(tmp_path):
    workload = workloads.OracleWorkload(workloads.load_reference_json("oracle.json")["seed"],
                                        tmp_path)
    first, result = _counts(workload)
    second, again = _counts(workload)
    assert first == second
    assert result.outputs == again.outputs
    assert first["montecarlo.steps_to_verdict"] == result.outputs["steps"] > 0
    assert workload.check(result).failed == 0


def test_oracle_passes_on_a_second_seed(tmp_path):
    workload = workloads.OracleWorkload(11, tmp_path)
    result = workload.run_pass()
    assert result.outputs["passed"], result.outputs
    assert workload.check(result).failed == 0


def _replace_field(data: bytes, row: int, column: str, value: str) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    col = lines[body[0]].rstrip("\n").split(",").index(column)
    fields = lines[body[row + 1]].rstrip("\n").split(",")
    fields[col] = value
    lines[body[row + 1]] = ",".join(fields) + "\n"
    return "".join(lines).encode()


def test_reference_check_counts_each_bad_row():
    reference = workloads.reference_csv("fig3")
    assert workloads.check_sweep_csv("fig3", reference).failed == 0
    ref_rows = workloads._split_csv(reference)[2]
    sigma1 = float(ref_rows[10][9])
    within = _replace_field(reference, 10, "sigma1", repr(sigma1 * (1 + 1e-10)))
    assert workloads.check_sweep_csv("fig3", within).failed == 0
    moved = _replace_field(reference, 10, "sigma1", repr(sigma1 * (1 + 1e-6)))
    emptied = _replace_field(moved, 20, "discord", "")
    unstable = _replace_field(emptied, 30, "stable", "false")
    result = workloads.check_sweep_csv("fig3", unstable)
    assert (result.attempted, result.failed) == (len(ref_rows), 3)
    assert workloads.check_sweep_csv("fig3", b"").failed == len(ref_rows)


def test_reference_check_rejects_moved_xi_l(tmp_path):
    workload = workloads.BisectWorkload(0, tmp_path)
    ref = workloads.load_reference_json("bisect.json")["xi_l"]
    found = {float(t): v for t, v in ref.items()}
    ok = workloads.PassResult([], len(found), {"xi_l": dict(found)})
    assert workload.check(ok).failed == 0
    found[0.2] += 1e-4
    found[0.3] = "BracketError: invalid bracket"
    bad = workloads.PassResult([], len(found), {"xi_l": found})
    assert workload.check(bad).failed == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_csvs_are_complete():
    for label in workloads.SWEEP_CALLS:
        with gzip.open(workloads.REFERENCE_DIR / f"sweep-{label}.csv.gz") as fh:
            _, header, rows = workloads._split_csv(fh.read())
        assert rows and all(row[header.index("stable")] == "true" for row in rows)


def test_oracle_check_separates_chance_fail_from_inconsistent_estimate(tmp_path):
    workload = workloads.OracleWorkload(144, tmp_path)
    chance = workloads.PassResult([], 1, {"passed": False, "max_abs_z": 4.135,
                                          "n_unique_above_3se": 6, "steps": 130000})
    check = workload.check(chance)
    assert (check.attempted, check.failed) == (1, 0) and check.notes
    wrong = workloads.PassResult([], 1, {"passed": False, "max_abs_z": 6.5,
                                         "n_unique_above_3se": 9, "steps": 130000})
    assert workload.check(wrong).failed == 1
    reference = workloads.OracleWorkload(workloads.load_reference_json("oracle.json")["seed"],
                                         tmp_path)
    assert reference.check(chance).failed == 1


def test_negative_seed_is_accepted(tmp_path):
    assert workloads.OracleWorkload(-3, tmp_path).config.seed == 2**64 - 3


def test_host_speed_scales_each_operation_by_the_calibrations_around_it(monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)
    speed = hostspeed.HostSpeed("point")
    for _ in range(3):
        speed.tick()
    speed.finish()
    assert speed.done == [0, 1, 2, 3]
    for i in range(3):
        expected = 2 * hostspeed.REF_S / (speed.values[i] + speed.values[i + 1])
        assert speed.scale(i) == expected
