"""Smoke tests of the benchmark itself, at the tiny ``--size smoke``.

    python3 -m pytest perfbench/test_smoke.py -q

These live outside the package's test paths, so the main suite's time does
not grow. Every workload runs once untraced and once traced at the default
seed, whose first operation is the stored reference operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


# At the smoke size (12 participants) the movement-time EM can run to
# EM_MAX_ITER, which the benchmark rightly reports as a failed operation; at
# the measured size (600 participants) it converges. Any other failure
# fails these tests.
KNOWN_SMALL_SAMPLE_FAILURE = "EM reached EM_MAX_ITER"


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed0-smoke-trace{trace}.json").read_text()
    )
    failed_ops = [op for op in detail["ops"] if op["failures"]]
    assert res["failed"] == len(failed_ops)
    assert res["correct"] == (not failed_ops)
    for op in failed_ops:
        assert all(f.startswith(KNOWN_SMALL_SAMPLE_FAILURE) for f in op["failures"]), op
    return res


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert run.EXTRA_WORKLOADS == workloads.EXTRA_WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.per_layer_metrics()
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS)
def test_untraced_run(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert list(res["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


DIGESTS = {"study": 5, "recovery": 1, "policy": 1, "recovery_t2": 1}
BYPASSED = {
    "study": (),
    "recovery": ("data", "cli"),
    "policy": ("cli", "data", "pipeline", "features", "regression"),
    "recovery_t2": ("data", "cli"),
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS)
def test_traced_run_reports_layers_and_bypasses(workload):
    res = result(workload, 1)
    assert res["attempted"] >= 2
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in tracing.per_layer_metrics()]
    for layer in tracing.LAYERS:
        if layer in BYPASSED[workload]:
            assert metrics[f"{layer}.calls"] == 0, layer
    assert metrics["sim.calls"] > 0
    assert metrics["cli.output_digest_matches"] == DIGESTS[workload]
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "study":
        assert metrics["data.load_impressions_rows"] > 0 and metrics["data.bytes_written"] > 0
    if workload == "policy":
        assert metrics["sim.rank_feed_s"] > 0 and metrics["sim.realize_s"] > 0
    else:
        assert metrics["pipeline.em_iterations"] > 0 and metrics["regression.irls_iterations"] > 0


def test_tracer_restores_every_namespace():
    import feedlab
    from feedlab import cli, data, sim

    before = (data.load_impressions, cli.load_impressions, sim.run_pipeline,
              sim.SyntheticPool.__dict__["realize"], feedlab.load_impressions)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.load_impressions is data.load_impressions is feedlab.load_impressions
        assert cli.load_impressions is not before[0]
        assert sim.SyntheticPool.__dict__["realize"] is not before[3]
    after = (data.load_impressions, cli.load_impressions, sim.run_pipeline,
             sim.SyntheticPool.__dict__["realize"], feedlab.load_impressions)
    assert after == before


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, "sim.parameter_recovery", 0.0, 10.0, None, 1, 0),
        # two worker threads overlapping in [2, 4]
        S(2, "sim.simulate_session", 1.0, 4.0, 1, 2, 0),
        S(3, "sim.simulate_session", 2.0, 6.0, 1, 3, 0),
        S(4, "sim.realize", 2.5, 3.0, 2, 2, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.5, 3: 4.0, 4: 0.5}


def test_sampler_excludes_its_handler_and_scales_by_the_snippet():
    import time

    sampler = calibrate.Sampler()
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 20 * calibrate.INTERVAL_S:
            sum(range(1000))
    rec = sampler.record()
    assert rec["calibration_samples"] >= 5
    assert 0 < rec["wall_s"] < time.perf_counter() - t0
    assert rec["wall_scaled_s"] == pytest.approx(
        rec["wall_s"] * calibrate.REFERENCE_S / rec["calibration_s"])
    assert calibrate.scale(2.0, 2 * calibrate.REFERENCE_S) == pytest.approx(1.0)


def test_sub_seeds_are_deterministic_and_distinct():
    seeds = [workloads.sub_seed(7, i) for i in range(50)]
    assert seeds == [workloads.sub_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert workloads.sub_seed(8, 0) != seeds[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "recovery", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
