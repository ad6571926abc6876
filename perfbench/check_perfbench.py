"""The benchmark's own checks:  python3 -m pytest -q perfbench/check_perfbench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_each_workload(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    margin = json.loads(lines[-2])["detail"]["sde_gap_over_step_noise"]
    assert (margin is None) == (not workload.startswith("sde")) and (margin or 99) > 20
    names = {m["name"] for m in bench_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def test_traced_smoke_reports_every_per_layer_metric():
    proc = run_bench("--workload", "matrix-oracle", "--seed", "0", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in bench_spec()["per_layer"]}
    assert result["metrics"]["matrix_oracle.eigen.calls"]["value"] > 0


def test_benchmark_json_lists_the_layer_table():
    spec = bench_spec()
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {name: (unit, better)
                         for name, (unit, better, _needs, _fn) in layers.METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _small_op(tmp_path):
    from coulombflow import cli

    shape = workloads.Shape("tiny", "matrix", workloads.QUADRATIC, 0.004, paths=2, n=6)
    op = workloads.Op(0, shape, seed=3)
    seconds, error, run_dir = child.run_op(cli, op, tmp_path)
    assert error is None
    return cli, op, seconds, run_dir


def test_clean_run_dir_passes_the_gate(tmp_path):
    cli, op, seconds, run_dir = _small_op(tmp_path)
    rec = child.gate(cli, op, seconds, None, run_dir)
    assert rec["error"] is None, rec


def test_corrupted_run_dir_counts_as_failed(tmp_path):
    cli, op, seconds, run_dir = _small_op(tmp_path)
    snapshot = next((run_dir / "snapshots").glob("t_*.csv"))
    with open(snapshot, "a") as f:
        f.write("0.5\n")
    rec = child.gate(cli, op, seconds, None, run_dir)
    assert rec["error"] == "integrity"


def test_wrong_moments_are_a_wrong_result(tmp_path):
    cli, op, _seconds, run_dir = _small_op(tmp_path)
    snapshot = next((run_dir / "snapshots").glob("t_*.csv"))
    lines = snapshot.read_text().splitlines()
    snapshot.write_text("\n".join([lines[0]] + [str(3.0 * float(x)) for x in lines[1:]]) + "\n")
    assert workloads.check_output(op, run_dir).wrong


def test_absent_hooks_do_not_crash(tmp_path, monkeypatch):
    from coulombflow import cli

    renamed = [(p, m, "_gone_" + a if a in ("_coulomb_sum", "_bridge_trial") else a, w)
               for p, m, a, w in spans.HOOKS]
    monkeypatch.setattr(spans, "HOOKS", renamed)
    monkeypatch.setattr(layers, "HOOKS", renamed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert {"sde._gone__coulomb_sum", "sde._gone__bridge_trial"} <= set(tracer.absent)
        shape = workloads.Shape("tiny", "sde", workloads.QUADRATIC, 0.003, paths=1, n=4)
        op = workloads.Op(0, shape, seed=1)
        child.run_op(cli, op, tmp_path)
        totals = tracer.totals_since(0)
    finally:
        tracer.uninstall()
    assert totals["sde.step"]["calls"] == 3
    rec = {"traced": True, "layers": totals, "error": None, "kind": "sde", "snapshots": 1}
    metrics = layers.per_layer([rec], tracer.absent, 1.0, 1.0)
    assert "sde.step.calls" in metrics
    assert not any(k.startswith(("sde.coulomb_sum", "sde.bridge_trial")) for k in metrics)
    assert child.kernel_cache_mib({}) is None


def test_uninstall_restores_the_package():
    from coulombflow import pde

    original = pde.hilbert_transform
    tracer = spans.Tracer()
    tracer.install()
    assert pde.hilbert_transform is not original
    tracer.uninstall()
    assert pde.hilbert_transform is original


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = run_bench("--workload", "pde-relax", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_op_stream_is_seeded():
    a = [op.__dict__ for _, op in zip(range(12), workloads.op_stream("pde-relax", 5))]
    b = [op.__dict__ for _, op in zip(range(12), workloads.op_stream("pde-relax", 5))]
    c = [op.__dict__ for _, op in zip(range(12), workloads.op_stream("pde-relax", 6))]
    assert a == b and a != c


def test_compare_verdicts():
    base = compare.summary([1.0, 1.01, 0.99, 1.0])
    assert compare.verdict(base, compare.summary([1.5, 1.52, 1.49, 1.5]), "lower", 0.2) == "worse"
    assert compare.verdict(base, compare.summary([0.7, 0.71, 0.69, 0.7]), "lower", 0.2) == "better"
    assert compare.verdict(base, compare.summary([1.02, 1.0, 1.01, 0.99]), "lower", 0.2) == "unchanged"
    noisy = compare.summary([0.5, 1.5, 0.7, 1.3])
    assert compare.verdict(base, noisy, "lower", 0.2) == "unresolved"
    assert compare.verdict(None, base, "lower", 0.2) == "unresolved"


def test_reference_seconds_follow_the_calibration():
    import run

    recs = [{"process": 0, "seconds": 1.0, "cal_s": run.CAL_REF_S},
            {"process": 1, "seconds": 1.0, "cal_s": 2 * run.CAL_REF_S}]
    run.to_reference(recs)
    assert recs[0]["ref_s"] == 1.0 and recs[1]["ref_s"] == 0.5
