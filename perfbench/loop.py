"""The closed loop of one workload in one process, and the metrics it yields.

Imported only after ``run.py`` has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import resource
import statistics
import time
import traceback
from pathlib import Path

from feedlab.pipeline import EM_MAX_ITER

import calibrate
import tracing
import workloads


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str,
                 out: Path):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.wl = workloads.make_workload(workload, size)
        self.workdir = out / f"work-{workload}-{seed}-{os.getpid()}"
        self.ops: list[dict] = []
        self.tracer = tracing.Tracer() if trace else None
        self.reference = workloads.load_reference(self.wl)

    def set_up(self) -> None:
        """Write the inputs and warm up with one smoke-size operation.

        The warm-up loads the code paths and fills caches; its outputs are
        not checked (at the smoke size the EM may legitimately run to its
        iteration cap).
        """
        self.wl.setup(self.workdir / "inputs", self.seed)
        warm = workloads.make_workload(self.wl.name, "smoke")
        warm.setup(self.workdir / "warmup", self.seed)
        warm.run(workloads.sub_seed(self.seed, 0), 0)
        warm.cleanup(0)

    def schedule(self):
        """(op index, sub-seed, traced) of each operation, for as long as asked."""
        i = 0
        if self.trace:
            # the reference operation: default-seed sub-seed, checked against
            # reference.json and the recorded output digests
            yield 0, workloads.reference_sub_seed(), True
            i = 1
        for j in itertools.count():
            yield i + j, workloads.sub_seed(self.seed, j), self.trace and j % 2 == 1

    def loop(self) -> None:
        start = time.perf_counter()
        for index, seed, traced in self.schedule():
            self.ops.append(self.run_op(index, seed, traced))
            # start another operation only if it should end within --seconds
            typical = statistics.median(op["wall_s"] for op in self.ops)
            done = time.perf_counter() - start + typical > self.seconds
            kinds = {op["traced"] for op in self.ops}
            if done and (not self.trace or kinds == {True, False}):
                break

    def run_op(self, index: int, seed: int, traced: bool) -> dict:
        rec = {"index": index, "sub_seed": seed, "traced": traced, "failures": []}
        sampler = calibrate.Sampler()
        try:
            with self._traced(index) if traced else contextlib.nullcontext(), sampler:
                out = self.wl.run(seed, index)
            rec.update(sampler.record())
            rec["failures"] += self.wl.check(out)
            if traced:
                rec["failures"] += self._engine_checks(index)
            if seed == workloads.reference_sub_seed() and self.reference is not None:
                rec["failures"] += workloads.compare_reference(self.wl.summary(out), self.reference)
                rec["digests"] = self.wl.digests(out)
                rec["digest_matches"] = workloads.digest_matches(rec["digests"], self.reference)
        except Exception:  # an operation that raises is a failed operation
            rec["failures"].append(traceback.format_exc())
            rec.update(sampler.record())
        finally:
            self.wl.cleanup(index)
        return rec

    @contextlib.contextmanager
    def _traced(self, index: int):
        with self.tracer.installed(), self.tracer.span("op", index):
            yield

    def _engine_checks(self, index: int) -> list[str]:
        """EM and IRLS convergence, seen at the traced layer boundary."""
        failures = [
            f"EM reached EM_MAX_ITER ({n})"
            for n in tracing.em_iterations(self.tracer.spans, index)
            if n >= EM_MAX_ITER
        ]
        bad = tracing.irls_unconverged(self.tracer.spans, index)
        if bad:
            failures.append(f"{bad} IRLS fit(s) did not converge")
        return failures

    # -- metrics: name -> (value, sample count) ------------------------------

    def end_to_end(self, setups: list[float]) -> dict[str, tuple[float, int]]:
        """Times are scaled to the host's reference speed (see calibrate.py)."""
        ops = [o for o in self.ops if not o["failures"]] or self.ops
        walls = [o["wall_scaled_s"] for o in ops]
        return {
            "setup_s": (statistics.median(setups), len(setups)),
            "op_p50_s": (statistics.median(walls), len(walls)),
            "impressions_per_s": (self.wl.impressions_per_op * len(ops) / sum(walls), len(ops)),
            "op_cpu_s": (statistics.median(o["cpu_scaled_s"] for o in ops), len(ops)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    def unscaled(self) -> dict[str, tuple[float, int]]:
        """The raw wall and CPU times behind the scaled ones, and the mean snippet time."""
        ops = [o for o in self.ops if not o["failures"]] or self.ops
        return {
            "op_p50_wall_s": (statistics.median(o["wall_s"] for o in ops), len(ops)),
            "op_cpu_unscaled_s": (statistics.median(o["cpu_s"] for o in ops), len(ops)),
            "calibration_s": (statistics.median(o["calibration_s"] for o in ops), len(ops)),
        }

    def per_layer(self) -> tuple[dict[str, tuple[float, int]], dict]:
        """Per-layer metrics and the detail behind them (span table, per-op values)."""
        medians, per_op = tracing.layer_metrics(self.tracer.spans)
        traced = [o["wall_scaled_s"] for o in self.ops if o["traced"]]
        untraced = [o["wall_scaled_s"] for o in self.ops if not o["traced"]]
        out = {name: (medians[name], len(per_op))
               for name, _, _ in tracing.per_layer_metrics() if name in medians}
        matches = [o["digest_matches"] for o in self.ops if "digest_matches" in o]
        out["cli.output_digest_matches"] = (matches[0] if matches else 0, len(matches))
        out["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced),
            len(traced) + len(untraced),
        )
        order = [name for name, _, _ in tracing.per_layer_metrics()]
        out = {name: out[name] for name in order}
        return out, {"span_table": tracing.span_table(self.tracer.spans), "per_op": per_op}
