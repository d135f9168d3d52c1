"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one batch untraced and one batch per pass traced; the
test checks that every metric of BENCHMARK.json is produced with its unit,
that the output checks pass on the library and fail on a broken output, and
that the command refuses to run without the library.  The tier-1 suite does
not collect this file (its testpaths is tests/).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from mdslab.codes import MDS  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _first_batch(wl):
    fields = workloads.build_fields(wl.orders)
    return next(wl.batches(fields, random.Random(3)))


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_metrics(name):
    metrics, checked, _ = run.run_untraced(workloads.WORKLOADS[name], seed=1,
                                           seconds=0, setup_repeats=1, batches=1)
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert checked.attempted > 0 and checked.failed == 0, checked.problems


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_metrics(name):
    metrics, checked, extra = run.run_traced(workloads.WORKLOADS[name], seed=1,
                                             batches=1)
    assert set(metrics) == set(PER_LAYER)
    assert checked.attempted > 0 and checked.failed == 0, checked.problems
    top = next(iter(extra["layers"]))
    if name == "search-oracle":
        assert top == "codes.oracle"
    if name == "criteria-large":
        assert top == "construction.criteria"
        assert metrics["codes.oracle.calls"] == 0
    if name == "verify-quick":
        assert metrics["verify.checks"] == sum(workloads.QUICK_CHECKS.values())
        assert metrics["linalg.det.calls"] > 0


def test_search_check_catches_a_lost_record():
    wl = workloads.WORKLOADS["search-small"]
    batch = _first_batch(wl)
    out = wl.call(batch)
    assert wl.check(batch, out).failed == 0
    records, text = out[-1]
    out[-1] = (records[:-1], text)
    assert wl.check(batch, out).failed == batch[-1].planned_count()


def test_search_check_catches_a_bad_record():
    wl = workloads.WORKLOADS["search-small"]
    batch = _first_batch(wl)
    out = wl.call(batch)
    records, text = out[0]
    parsed = json.loads(text)
    crit = parsed[0]["criteria"]["mds"]
    crit["holds"] = not crit["holds"]
    out[0] = (records, json.dumps(parsed))
    assert wl.check(batch, out).failed == 1


def test_criteria_check_catches_a_wrong_label():
    wl = workloads.WORKLOADS["criteria-large"]
    batch = _first_batch(wl)[:5]
    out = wl.call(batch)
    assert wl.check(batch, out).failed == 0
    label = out[0][0]
    out[0] = ("Other" if label == MDS else MDS,) + out[0][1:]
    assert wl.check(batch, out).failed == 1


def test_verify_check_catches_a_short_suite():
    wl = workloads.WORKLOADS["verify-quick"]
    batch = ("powersum", "schur")
    out = workloads.run_suites(batch, quick=True)
    assert wl.check(batch, out).failed == 0
    out[0].checked -= 1
    assert wl.check(batch, out).failed == 1


def test_command_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "search-oracle",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, unit in END_TO_END.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1])
    assert any(line.startswith("failed_frac 0 ") for line in lines)


def test_command_fails_without_the_library():
    bare = run.TRACE_DIR / "bare"          # BENCHMARK.json and bench/ only
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.SPEC, bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
