"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs spawn the real benchmark with smaller rounds
(``--smoke``); the file takes under a minute.
"""

from __future__ import annotations

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PER_LAYER  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in CONFIG["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_per_layer_list_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == PER_LAYER


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateway-2w",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


# ----------------------------------------------------------------------
# The checkers reject tampered outputs
# ----------------------------------------------------------------------


def valid_record() -> dict:
    """Two winners sharing operator o1 within capacity 10; q3 loses."""
    return {
        "period": 4,
        "revenue": 9.0,
        "admitted": ["q1", "q2"],
        "rejected": ["q3"],
        "auctions": [{
            "capacity": 10.0,
            "bidders": 3,
            "winners": {
                "q1": {"bid": 7.0, "ops": ["o1"], "payment": 5.0},
                "q2": {"bid": 5.0, "ops": ["o1", "o2"], "payment": 4.0}},
            "loads": {"o1": 6.0, "o2": 4.0, "o3": 5.0},
        }],
    }


def test_valid_record_passes():
    assert checks.check_period(valid_record()) == []


def test_rejects_a_winner_charged_above_its_bid():
    record = valid_record()
    record["auctions"][0]["winners"]["q2"]["payment"] = 5.5
    record["revenue"] = 10.5
    errors = checks.check_period(record)
    assert any("above its bid" in error for error in errors)


def test_rejects_an_admitted_set_over_capacity():
    record = valid_record()
    record["auctions"][0]["winners"]["q3"] = {
        "bid": 2.0, "ops": ["o3"], "payment": 1.0}
    record["admitted"].append("q3")
    record["rejected"] = []
    record["revenue"] = 10.0
    errors = checks.check_period(record)
    assert any("exceeds capacity" in error for error in errors)


def test_rejects_revenue_that_is_not_the_sum_of_payments():
    record = valid_record()
    record["revenue"] = 9.5
    assert any("sum of payments" in error
               for error in checks.check_period(record))


def test_rejects_a_query_both_admitted_and_rejected():
    record = valid_record()
    record["rejected"].append("q1")
    assert checks.check_period(record)


def test_rejects_a_query_settled_twice_or_never():
    record = valid_record()
    assert checks.check_settled_once({"q1": 1, "q2": 1, "q3": 1},
                                     [record]) == []
    assert checks.check_settled_once({"q1": 1, "q2": 1, "q3": 1},
                                     [record, record])
    assert checks.check_settled_once({"q1": 1, "q2": 1, "q3": 1, "q4": 1},
                                     [record])


def test_rejects_a_recovered_revenue_that_differs():
    live = {"revenue": 1234.5, "period": 20, "last_report": "{}"}
    assert checks.check_recovered(live, dict(live)) == []
    recovered = dict(live, revenue=1234.5000001)
    assert any("revenue" in error
               for error in checks.check_recovered(live, recovered))
    assert checks.check_recovered(live, dict(live, last_report="{ }"))


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------


class Outer:
    def work(self, inner):
        return inner.step() + inner.step()


class Inner:
    def step(self):
        return sum(range(20_000))

    @classmethod
    def make(cls):
        return cls()


def test_tracer_times_self_and_children_and_uninstalls():
    tracer = Tracer()
    tracer.wrap(Outer, "work", "outer")
    tracer.wrap(Inner, "step", "inner")
    tracer.wrap(Inner, "make", "inner.make")
    try:
        Outer().work(Inner.make())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["calls"] == 1
    assert summary["inner.make"]["calls"] == 1
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["busy_s"] - summary["inner"]["busy_s"], abs=1e-9)
    assert "work" in Outer.__dict__ and not hasattr(
        Outer.__dict__["work"], "__wrapped__")
    Outer().work(Inner())
    assert len(tracer.spans) == 4


def test_class_level_wrappers_keep_instances_picklable():
    tracer = Tracer()
    tracer.wrap(Inner, "step", "inner")
    try:
        clone = pickle.loads(pickle.dumps(copy.deepcopy(Inner())))
        assert clone.step() == Inner().step()
    finally:
        tracer.uninstall()
