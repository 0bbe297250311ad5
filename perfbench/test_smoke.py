"""Smoke test of the benchmark itself: python3 -m pytest perfbench/test_smoke.py

Runs each workload at its smallest size, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit and that
fail_rate is reported. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_size_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 11
    spec = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert any(line.strip().startswith("fail_rate ") for line in lines)
    assert any(line.startswith("env ") for line in lines)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(spans.PER_LAYER_UNITS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "descent", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    # outer [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    for name, start, end, parent in [("a.outer", 0, 10, -1), ("a.child", 1, 3, 0),
                                     ("a.child", 4, 8, 0), ("a.outer", 5, 6, 2)]:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.job.append(0)
    tot = spans.span_totals(rec)
    assert tot["a.outer"] == {"calls": 2, "s": 10.0, "self_s": 4.0 + 1.0}
    assert tot["a.child"] == {"calls": 2, "s": 6.0, "self_s": 2.0 + 3.0}


def test_hd_quantile():
    assert run.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert run.hd_quantile([float(i) for i in range(1, 41)], run.TAIL_Q) == pytest.approx(30.5, abs=1e-6)
    # moves by a fraction of the gap, not all of it, when one job turns slow
    base = [1.0] * 10 + [2.0] * 10
    slow = [1.0] * 9 + [2.0] * 11
    assert 0 < run.hd_quantile(slow, 0.5) - run.hd_quantile(base, 0.5) < 0.5
