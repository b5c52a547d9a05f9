"""Tests of the benchmark's own logic, at tiny sizes.

    python3 -m pytest perfbench -q

They check that a doctored digest counts as a failed operation, that
every metric ``BENCHMARK.json`` names is printed with its unit, that
cross-host comparisons are refused, and that each workload runs end to
end, untraced and traced, with traced digests equal to the pinned
untraced ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    PREDICTIONS,
    WORKLOADS,
    Fig3Sweep,
    Fig4Multihop,
    Scale100k,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "fig3-sweep": Fig3Sweep(lambdas=(4,), rounds=2, n_seeds=1),
    "scale-100k": Scale100k(n_nodes=400, n_clusters=6, rounds=2),
    "fig4-multihop": Fig4Multihop(n_nodes=300, n_clusters=12, rounds=4),
}


@pytest.fixture(scope="module")
def tiny_pins(tmp_path_factory):
    work = tmp_path_factory.mktemp("pins")
    return {name: pin.pins_for(w, work) for name, w in TINY.items()}


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "RESUME_SCANS", 1)


def _run(capsys, name: str, trace: int, pins: dict) -> tuple[list[str], dict]:
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01",
            "--trace", str(trace)]
    assert run.main(argv, workloads=TINY, pins=pins) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        LAYER_METRICS
    )
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_predictions_name_real_metrics_and_workloads():
    layer_names = [name for name, _ in LAYER_METRICS]
    e2e_names = {name for name, _ in run.END_TO_END}
    for prefixes, e2e, workloads, _why in PREDICTIONS:
        for prefix in prefixes.split():
            assert any(n.startswith(prefix) for n in layer_names), prefix
        assert {m.strip() for m in e2e.split(",")} <= e2e_names, e2e
        named = {w.strip() for w in workloads.split(",")}
        assert named == {"all"} or named <= set(WORKLOADS), workloads


def test_doctored_digest_counts_as_failed(tiny_pins, tmp_path):
    workload = TINY["scale-100k"]
    good = tiny_pins["scale-100k"]
    ops = run.Ops(workload, 3, good, rotate=False)
    assert ops.one(tmp_path) is not None
    assert (ops.attempted, ops.errors) == (1, [])
    doctored = {k: "0" * 16 for k in good}
    ops = run.Ops(workload, 3, doctored, rotate=False)
    assert ops.one(tmp_path) is not None  # timed, but wrong
    assert ops.attempted == 1
    assert len(ops.errors) == 1 and "digest mismatch" in ops.errors[0]


def test_raising_operation_counts_as_failed(tiny_pins, tmp_path, monkeypatch):
    workload = TINY["scale-100k"]

    def boom(*_args, **_kwargs):
        raise ValueError("broken build")

    monkeypatch.setattr(type(workload), "operation", boom)
    ops = run.Ops(workload, 3, tiny_pins["scale-100k"], rotate=False)
    assert ops.one(tmp_path) is None
    assert ops.attempted == 1 and "broken build" in ops.errors[0]


def test_loop_counts_a_raising_operation_and_goes_on(tiny_pins, tmp_path,
                                                      monkeypatch):
    workload = TINY["scale-100k"]
    real = type(workload).operation
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise OSError("transient")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(type(workload), "operation", flaky)
    ops = run.Ops(workload, 3, tiny_pins["scale-100k"], rotate=True)
    done = ops.loop(tmp_path, 0.5)
    assert done and ops.attempted == len(done) + 1
    assert len(ops.errors) == 1 and "transient" in ops.errors[0]


@pytest.mark.parametrize("name", list(TINY))
def test_workload_smoke_untraced_then_traced(name, tiny_pins, capsys):
    """Each workload runs end to end; every metric is printed by name
    with its unit, the last line meets the result schema, and the traced
    run reproduces the pinned digests."""
    for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        lines, result = _run(capsys, name, trace, tiny_pins)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, lines
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-2]
                   if ln.startswith("  ")}
        assert {m["name"]: m["unit"] for m in spec}.items() <= printed.items()
        record = json.loads(lines[-2])
        assert record["kind"] == "perfbench-record"
        assert {"cpu", "nproc", "python", "numpy", "scipy", "backend",
                "git_sha", "src_sha256"} <= set(record["fingerprint"])
    metrics = result["metrics"]
    assert metrics["trace.coverage"]["value"] > 0
    assert metrics["engine.rounds"]["value"] > 0
    if name == "fig4-multihop":
        assert metrics["checkpoint.snapshots"]["value"] == 4
        assert metrics["faults.injected"]["value"] > 0
    if name == "fig3-sweep":
        assert metrics["parallel.cells"]["value"] == 3
        assert metrics["sweep.cell_s.fcm"]["value"] > 0


def test_missing_program_exits_without_a_result(tmp_path):
    """In a tree holding only the benchmark, the runner fails loudly."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-100k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(workload: str, value: float, cpu: str = "cpu-a") -> dict:
    return {
        "kind": "perfbench-record", "workload": workload, "trace": 0,
        "fingerprint": {"cpu": cpu, "nproc": 2, "python": "3", "numpy": "2",
                        "scipy": "1", "backend": "numpy", "bench_sha256": "x"},
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                    for m in BENCH["end_to_end"]},
    }


def test_compare_refuses_cross_host_records():
    before = [_record("scale-100k", 1.0, cpu="cpu-a")]
    after = [_record("scale-100k", 1.0, cpu="cpu-b")]
    with pytest.raises(ValueError, match="different hosts"):
        compare.compare(before, after, BENCH)


def test_compare_flags_a_regression_beyond_the_bound():
    before = [_record("scale-100k", v) for v in (1.00, 1.01, 0.99, 1.00)]
    after = [_record("scale-100k", v) for v in (1.50, 1.51, 1.49, 1.50)]
    rows = {r["metric"]: r for r in compare.compare(before, after, BENCH)}
    assert rows["wall_s"]["verdict"] == "worse"  # lower is better
    assert rows["pdr"]["verdict"] == "ok"  # higher is better
