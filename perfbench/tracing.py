"""Tracing of feedlab's public layer functions, from outside the package.

The tracer wraps the functions listed in ``LAYER_FUNCTIONS``: every module
attribute that is the original function object (the defining module,
``from .x import y`` bindings in other modules and the package namespace)
and ``SyntheticPool.realize`` are replaced by a wrapper for the duration of
a ``with tracer.installed():`` block, then restored. Nothing under ``src/``
changes.

Each call records a span (name, start, end, parent span, thread id,
operation id) in memory; spans are written out once, when the run ends.
A span's self time is its duration minus the union of the intervals its
child spans cover, so parallel children in worker threads are not counted
twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# layer -> function names wrapped in that layer's module. Methods are
# written "Class.method".
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "cli": (
        "main",
        "cmd_simulate",
        "cmd_preprocess",
        "cmd_pca",
        "cmd_fit",
        "cmd_report",
    ),
    "data": (
        "load_impressions",
        "save_impressions",
        "save_dataset",
        "dataset_violations",
        "load_ratings",
        "load_posts",
        "save_posts",
        "save_ratings",
        "aggregate_ratings",
    ),
    "pipeline": (
        "run_pipeline",
        "apply_exclusions_stage1",
        "fit_movement_model",
        "adjust_dwell",
        "apply_floor",
        "save_movement_model",
        "save_audit",
    ),
    "features": (
        "fit_feature_pca",
        "project",
        "mean_dwell_by_post",
        "feature_dwell_correlations",
        "score_dwell_correlations",
        "attach_mean_dwell",
        "load_scores",
        "save_scores",
        "save_pca_fit",
    ),
    "regression": (
        "build_design",
        "fit_design",
        "fit_ols",
        "fit_logistic",
        "save_fit",
        "load_fit",
        "render_fit_table",
    ),
    "sim": (
        "simulate_session",
        "simulate_impressions",
        "SyntheticPool.realize",
        "rank_feed",
        "expected_engagement",
        "parameter_recovery",
        "run_policy_experiment",
    ),
}
LAYERS = tuple(LAYER_FUNCTIONS)
_DATA_WRITERS = {"save_impressions", "save_dataset", "save_posts", "save_ratings"}


def _span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.rsplit('.', 1)[-1]}"


def _counts_from_result(name: str, args: tuple, result) -> dict | None:
    """Work counts taken at the boundary from a call's arguments and result."""
    if name == "data.load_impressions":
        return {"rows": len(result[0])}
    if name.startswith("data.") and name[len("data."):] in _DATA_WRITERS:
        return {"bytes": os.path.getsize(args[0])}
    if name == "pipeline.fit_movement_model":
        return {"em_iterations": result.iterations}
    if name == "pipeline.run_pipeline":
        return {"input": result.audit.input_count, "retained": result.audit.retained_count}
    if name == "regression.build_design":
        return {"rows": result.n}
    if name == "regression.fit_logistic":
        return {
            "irls_iterations": result.metadata["iterations"],
            "irls_converged": bool(result.metadata["converged"]),
        }
    return None


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans for the operations run while it is installed."""

    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _owner_stack: list[int] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the span that is open on
        # the thread running the operation (e.g. parameter_recovery)
        owner = self._owner_stack
        return owner[-1] if owner else None

    @contextmanager
    def span(self, name: str, op: int):
        """A span opened by the benchmark itself, e.g. one whole operation."""
        self.op = op
        stack = self._stack()
        self._owner_stack = stack
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), op)
            )

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            result = failed = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident(), tracer.op)
                if not failed:
                    span.counts = _counts_from_result(name, args, result)
                tracer.spans.append(span)  # list.append is atomic under the GIL
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Patch every namespace the layer functions are looked up through."""
        import feedlab  # noqa: F401  (loads every submodule)

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "feedlab" or n.startswith("feedlab."))
        ]
        restore: list[tuple[object, str, object]] = []
        try:
            for layer, funcs in LAYER_FUNCTIONS.items():
                home = sys.modules[f"feedlab.{layer}"]
                for func in funcs:
                    name = _span_name(layer, func)
                    if "." in func:
                        cls_name, meth = func.split(".")
                        cls = getattr(home, cls_name)
                        original = cls.__dict__[meth]
                        restore.append((cls, meth, original))
                        setattr(cls, meth, self.wrap(name, original))
                        continue
                    original = getattr(home, func)
                    wrapper = self.wrap(name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, attr, original))
                                setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "thread": s.thread,
                            "op": s.op,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Self time and per-layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        covered = 0.0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "cli.simulate_s": ("cli.cmd_simulate",),
    "cli.preprocess_s": ("cli.cmd_preprocess",),
    "cli.pca_s": ("cli.cmd_pca",),
    "cli.fit_s": ("cli.cmd_fit",),
    "cli.report_s": ("cli.cmd_report",),
    "data.load_impressions_s": ("data.load_impressions",),
    "data.save_impressions_s": ("data.save_impressions",),
    "data.save_dataset_s": ("data.save_dataset",),
    "data.dataset_violations_s": ("data.dataset_violations",),
    "data.load_ratings_s": ("data.load_ratings",),
    "pipeline.run_pipeline_s": ("pipeline.run_pipeline",),
    "pipeline.stage1_s": ("pipeline.apply_exclusions_stage1",),
    "pipeline.fit_movement_model_s": ("pipeline.fit_movement_model",),
    "pipeline.adjust_dwell_s": ("pipeline.adjust_dwell",),
    "pipeline.floor_s": ("pipeline.apply_floor",),
    "features.pca_s": ("features.fit_feature_pca", "features.project"),
    "features.mean_dwell_by_post_s": ("features.mean_dwell_by_post",),
    "features.correlations_s": (
        "features.feature_dwell_correlations",
        "features.score_dwell_correlations",
    ),
    "regression.build_design_s": ("regression.build_design",),
    "regression.fit_ols_s": ("regression.fit_ols",),
    "regression.fit_logistic_s": ("regression.fit_logistic",),
    "sim.simulate_session_s": ("sim.simulate_session",),
    "sim.simulate_impressions_s": ("sim.simulate_impressions",),
    "sim.realize_s": ("sim.realize",),
    "sim.rank_feed_s": ("sim.rank_feed",),
    "sim.expected_engagement_s": ("sim.expected_engagement",),
    "sim.parameter_recovery_self_s": ("sim.parameter_recovery",),
    "sim.run_policy_experiment_self_s": ("sim.run_policy_experiment",),
}


COUNT_METRICS: dict[str, tuple[str, str]] = {
    "cli.output_digest_matches": ("count", "higher"),
    "data.load_impressions_rows": ("count", "lower"),
    "data.bytes_written": ("bytes", "lower"),
    "pipeline.em_iterations": ("count", "lower"),
    "pipeline.retained_ratio": ("ratio", "higher"),
    "regression.design_rows": ("count", "lower"),
    "regression.irls_iterations": ("count", "lower"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports, by layer."""
    rows = [(m, "s", "lower") for m in (*SELF_TIME_METRICS, "cli.self_s")]
    rows += [(m, unit, better) for m, (unit, better) in COUNT_METRICS.items()]
    rows += [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    rows.sort(key=lambda r: LAYERS.index(r[0].split(".", 1)[0]))
    return rows + [("trace.overhead_ratio", "ratio", "lower")]


def _op_metrics(spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans."""
    by_name: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls = {layer: 0 for layer in LAYERS}
    cli_self = 0.0
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer not in calls:
            continue  # the benchmark's own operation span
        calls[layer] += 1
        by_name[s.name] = by_name.get(s.name, 0.0) + selfs[s.id]
        if layer == "cli":
            cli_self += selfs[s.id]
        for key, value in (s.counts or {}).items():
            k = f"{s.name}.{key}"
            counts[k] = counts.get(k, 0) + value
    out = {
        metric: sum(by_name.get(n, 0.0) for n in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    out["cli.self_s"] = cli_self
    out["data.load_impressions_rows"] = counts.get("data.load_impressions.rows", 0)
    out["data.bytes_written"] = sum(
        counts.get(f"data.{w}.bytes", 0) for w in sorted(_DATA_WRITERS)
    )
    out["pipeline.em_iterations"] = counts.get("pipeline.fit_movement_model.em_iterations", 0)
    pipeline_in = counts.get("pipeline.run_pipeline.input", 0)
    out["pipeline.retained_ratio"] = (
        counts.get("pipeline.run_pipeline.retained", 0) / pipeline_in if pipeline_in else 0.0
    )
    out["regression.design_rows"] = counts.get("regression.build_design.rows", 0)
    out["regression.irls_iterations"] = counts.get(
        "regression.fit_logistic.irls_iterations", 0
    )
    for layer, n in calls.items():
        out[f"{layer}.calls"] = n
    return out


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[int, dict[str, float]]]:
    """Median over traced operations of each per-layer metric, and the per-op values."""
    selfs = self_times(spans)
    by_op: dict[int, list[Span]] = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = {op: _op_metrics(ss, selfs) for op, ss in sorted(by_op.items())}
    names = next(iter(per_op.values())).keys() if per_op else ()
    medians = {n: statistics.median(m[n] for m in per_op.values()) for n in names}
    return medians, per_op


def span_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span name -> calls, total (inclusive) seconds and self seconds, over the run."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.id]
    return dict(sorted(table.items()))


def irls_unconverged(spans: list[Span], op: int) -> int:
    return sum(
        1
        for s in spans
        if s.op == op and s.name == "regression.fit_logistic" and not s.counts["irls_converged"]
    )


def em_iterations(spans: list[Span], op: int) -> list[int]:
    return [
        s.counts["em_iterations"]
        for s in spans
        if s.op == op and s.name == "pipeline.fit_movement_model"
    ]
