"""The benchmark's workloads: one operation each, its output checks and digests.

Every workload is a closed loop driven by ``run.py``: one client in one
process runs operations back to back, each with a sub-seed derived from the
workload seed. An operation returns its raw outputs; ``check`` lists the
failed output checks (any failure fails the operation), ``summary`` gives
the values compared with ``reference.json`` at the default seed and
``digests`` the SHA-256 of the outputs that later changes must preserve.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from feedlab import cli, sim
from feedlab.pipeline import EM_MAX_ITER, ExclusionRules

DEFAULT_SEED = 0
FEED_LENGTH = 120
NEWS_PER_FEED = 90
# full: the acceptance scale (600 x 120 = 72k impressions per study or
# recovery replication; a quarter of README step 5's 1000 policy
# replications); smoke: tiny, for tests and warm-up
SIZES = {
    "full": {"participants": 600, "recovery_replications": 2, "policy_replications": 250},
    "smoke": {"participants": 12, "recovery_replications": 2, "policy_replications": 5},
}
POLICY_K = 20
POLICY_METRICS = ("mean_credibility", "mean_sensationalism", "engagement_rate",
                  "mean_dwell_seconds")
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")


def sub_seed(seed: int, op_index: int) -> int:
    """The seed of operation ``op_index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, op_index]).generate_state(1)[0])


def reference_sub_seed() -> int:
    return sub_seed(DEFAULT_SEED, 0)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _nonfinite(values: dict[str, float]) -> list[str]:
    return [f"non-finite {k} = {v!r}" for k, v in values.items() if not math.isfinite(v)]


@dataclass
class Workload:
    """Base class: a named operation at a size, run inside ``workdir``."""

    name: str
    size: str
    workdir: Path | None = None
    config: sim.SimConfig | None = None

    @property
    def participants(self) -> int:
        return SIZES[self.size]["participants"]

    @property
    def reference_key(self) -> str:
        return self.name

    @property
    def impressions_per_op(self) -> int:
        raise NotImplementedError

    def setup(self, workdir: Path, seed: int) -> None:
        """Write the run's inputs: a sim_config.json carrying the workload seed."""
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        config = {
            "participants": self.participants,
            "feed_length": FEED_LENGTH,
            "news_per_feed": NEWS_PER_FEED,
            "pool": {"kind": "synthetic"},
            "params": {},
            "seed": seed,
        }
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.config = sim.load_sim_config(self.config_path)

    @property
    def config_path(self) -> Path:
        return self.workdir / "sim_config.json"

    def op_dir(self, op_index: int) -> Path:
        return self.workdir / f"op_{op_index}"

    def run(self, seed: int, op_index: int):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def summary(self, out) -> dict:
        """{"exact": {...}, "approx": {...}} values compared with the reference."""
        raise NotImplementedError

    def digests(self, out) -> dict[str, str]:
        raise NotImplementedError

    def cleanup(self, op_index: int) -> None:
        shutil.rmtree(self.op_dir(op_index), ignore_errors=True)


# ---------------------------------------------------------------------------
# study: README walkthrough steps 1-4 and 7 through the CLI


@dataclass
class StudyOutput:
    exit_codes: dict[str, int]
    out: Path


class Study(Workload):
    @property
    def impressions_per_op(self) -> int:
        return self.participants * FEED_LENGTH

    def steps(self, seed: int, out: Path) -> list[tuple[str, list[str]]]:
        sim_dir, clean, pca, fit = out / "sim", out / "clean", out / "pca", out / "fit"
        return [
            ("simulate", ["simulate", "--config", str(self.config_path),
                          "--output-dir", str(sim_dir), "--seed", str(seed)]),
            ("preprocess", ["preprocess", "--input", str(sim_dir / "impressions.csv"),
                            "--output-dir", str(clean), "--rules.max-dwell", "30",
                            "--rules.edge-trim", "3", "--rules.min-dwell", "0.15"]),
            ("pca", ["pca", "--input", str(sim_dir / "ratings.csv"),
                     "--impressions", str(clean / "cleaned.csv"),
                     "--posts", str(sim_dir / "posts.csv"), "--output-dir", str(pca)]),
            ("fit_dwell", ["fit", "--input", str(clean / "cleaned.csv"),
                           "--scores", str(pca / "scores.csv"), "--model", "dwell",
                           "--output-dir", str(fit)]),
            ("fit_engage", ["fit", "--input", str(clean / "cleaned.csv"),
                            "--scores", str(pca / "scores.csv"), "--model", "engage",
                            "--output-dir", str(fit)]),
            ("report", ["report", "--input", str(fit)]),
        ]

    def run(self, seed: int, op_index: int) -> StudyOutput:
        out = self.op_dir(op_index)
        codes: dict[str, int] = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for label, argv in self.steps(seed, out):
                codes[label] = cli.main(argv)
                if codes[label] != 0:
                    break
        return StudyOutput(codes, out)

    def _load(self, out: StudyOutput) -> dict:
        o = out.out
        return {
            "audit": json.loads((o / "clean" / "audit.json").read_text()),
            "model": json.loads((o / "clean" / "movement_model.json").read_text()),
            "fit_dwell": json.loads((o / "fit" / "fit_dwell.json").read_text()),
            "fit_engage": json.loads((o / "fit" / "fit_engage.json").read_text()),
            "cleaned_rows": (o / "clean" / "cleaned.csv").read_bytes().count(b"\n") - 1,
        }

    def check(self, out: StudyOutput) -> list[str]:
        failures = [f"{k} exited {v}" for k, v in out.exit_codes.items() if v != 0]
        if len(out.exit_codes) != 6 or failures:
            return failures or ["study stopped early"]
        d = self._load(out)
        audit = d["audit"]
        if sum(audit["removed"].values()) + audit["retained_count"] != audit["input_count"]:
            failures.append(f"audit does not conserve impressions: {audit}")
        if audit["input_count"] != self.impressions_per_op:
            failures.append(f"audit input_count {audit['input_count']} != {self.impressions_per_op}")
        rows = {
            "retained_count": audit["retained_count"],
            "cleaned.csv rows": d["cleaned_rows"],
            "fit_dwell n": d["fit_dwell"]["n"],
            "fit_engage n": d["fit_engage"]["n"],
        }
        if len(set(rows.values())) != 1:
            failures.append(f"row counts disagree: {rows}")
        if not d["model"]["iterations"] < EM_MAX_ITER:
            failures.append(f"EM reached EM_MAX_ITER ({d['model']['iterations']})")
        if not d["fit_engage"]["metadata"]["converged"]:
            failures.append("IRLS did not converge")
        failures += _nonfinite(self._approx(d))
        return failures

    @staticmethod
    def _approx(d: dict) -> dict[str, float]:
        values = {
            f"movement.{k}": d["model"][k]
            for k in ("mu_alpha", "mu_beta", "tau_alpha", "tau_beta", "sigma_eps")
        }
        for model in ("fit_dwell", "fit_engage"):
            for t in d[model]["terms"]:
                values[f"{model}.{t['term']}.estimate"] = t["estimate"]
                values[f"{model}.{t['term']}.se"] = t["se"]
        return values

    def summary(self, out: StudyOutput) -> dict:
        d = self._load(out)
        exact = {"audit.input_count": d["audit"]["input_count"],
                 "audit.retained_count": d["audit"]["retained_count"],
                 "movement.iterations": d["model"]["iterations"]}
        exact |= {f"audit.removed.{k}": v for k, v in d["audit"]["removed"].items()}
        return {"exact": exact, "approx": self._approx(d)}

    def digests(self, out: StudyOutput) -> dict[str, str]:
        o = out.out
        files = {
            "cleaned.csv": o / "clean" / "cleaned.csv",
            "movement_model.json": o / "clean" / "movement_model.json",
            "scores.csv": o / "pca" / "scores.csv",
            "fit_dwell.json": o / "fit" / "fit_dwell.json",
            "fit_engage.json": o / "fit" / "fit_engage.json",
        }
        return {name: _sha256(p.read_bytes()) for name, p in files.items()}


# ---------------------------------------------------------------------------
# recovery / recovery_t2: in-memory parameter recovery


@dataclass
class Recovery(Workload):
    threads: int = 1

    @property
    def reference_key(self) -> str:
        return "recovery"  # any thread count must reproduce the threads=1 report

    @property
    def replications(self) -> int:
        return SIZES[self.size]["recovery_replications"]

    @property
    def impressions_per_op(self) -> int:
        return self.replications * self.participants * FEED_LENGTH

    def run(self, seed: int, op_index: int) -> sim.RecoveryReport:
        return sim.parameter_recovery(
            replace(self.config, seed=seed),
            ExclusionRules(),
            replications=self.replications,
            threads=self.threads,
        )

    def check(self, report: sim.RecoveryReport) -> list[str]:
        failures = []
        if len(report.replications) != self.replications:
            failures.append(f"{len(report.replications)} replications reported")
        for i, rep in enumerate(report.replications):
            n = rep["n_analysis_rows"]
            if not 0 < n <= self.participants * FEED_LENGTH:
                failures.append(f"replication {i}: n_analysis_rows {n}")
            for stage in ("stage1", "stage2"):
                for term, row in rep[stage].items():
                    if not row["se"] > 0:
                        failures.append(f"replication {i}: {stage}.{term} se {row['se']!r}")
        return failures + _nonfinite(self._approx(report))

    @staticmethod
    def _approx(report: sim.RecoveryReport) -> dict[str, float]:
        s = report.summary
        values = {
            f"{coef}.{k}": v
            for coef, row in s["coefficients"].items()
            for k, v in row.items()
        }
        for key in ("fraction_replications_all_within_3se",
                    "stage2_dwell_bias_adjusted", "stage2_dwell_bias_raw"):
            values[key] = s[key]
        for i, rep in enumerate(report.replications):
            for stage in ("stage1", "stage2"):
                for term, row in rep[stage].items():
                    values[f"rep{i}.{stage}.{term}.estimate"] = row["estimate"]
                    values[f"rep{i}.{stage}.{term}.se"] = row["se"]
            values[f"rep{i}.stage2_raw_dwell_estimate"] = rep["stage2_raw_dwell_estimate"]
        return values

    def summary(self, report: sim.RecoveryReport) -> dict:
        exact = {f"rep{i}.n_analysis_rows": rep["n_analysis_rows"]
                 for i, rep in enumerate(report.replications)}
        return {"exact": exact, "approx": self._approx(report)}

    def digests(self, report: sim.RecoveryReport) -> dict[str, str]:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        return {"recovery_report.json": _sha256(text.encode())}


# ---------------------------------------------------------------------------
# policy: the ranking-policy experiment (README step 5)


class Policy(Workload):
    @property
    def replications(self) -> int:
        return SIZES[self.size]["policy_replications"]

    @property
    def impressions_per_op(self) -> int:
        return self.replications * len(sim.POLICIES) * POLICY_K

    def run(self, seed: int, op_index: int) -> list[sim.PolicyOutcome]:
        return sim.run_policy_experiment(
            replace(self.config, seed=seed),
            sim.POLICIES,
            k=POLICY_K,
            replications=self.replications,
            threads=1,
        )

    def check(self, outcomes: list[sim.PolicyOutcome]) -> list[str]:
        failures = []
        by_policy = {o.policy: o for o in outcomes}
        if tuple(by_policy) != sim.POLICIES:
            return [f"outcomes for {tuple(by_policy)}, not {sim.POLICIES}"]
        failures += [f"{o.policy}: {o.replications} replications"
                     for o in outcomes if o.replications != self.replications]
        dwell, engage = by_policy["dwell_opt"], by_policy["engage_opt"]
        # the paper's dissociation: optimizing dwell surfaces more
        # sensational, less credible posts than optimizing engagement
        if not dwell.mean_sensationalism > engage.mean_sensationalism:
            failures.append("dwell_opt is not more sensational than engage_opt")
        if not dwell.mean_credibility < engage.mean_credibility:
            failures.append("dwell_opt is not less credible than engage_opt")
        return failures + _nonfinite(self._approx(outcomes))

    @staticmethod
    def _approx(outcomes: list[sim.PolicyOutcome]) -> dict[str, float]:
        values = {}
        for o in outcomes:
            for metric in POLICY_METRICS:
                value, se = o.metric(metric)
                values[f"{o.policy}.{metric}"] = value
                values[f"{o.policy}.{metric}.se"] = se
        return values

    def summary(self, outcomes: list[sim.PolicyOutcome]) -> dict:
        exact = {f"{o.policy}.replications": o.replications for o in outcomes}
        return {"exact": exact, "approx": self._approx(outcomes)}

    def digests(self, outcomes: list[sim.PolicyOutcome]) -> dict[str, str]:
        """The outcomes as ``feedlab experiment`` writes policy_outcomes.csv."""
        lines = ["policy,metric,value,se,replications"]
        for o in outcomes:
            for metric in POLICY_METRICS:
                value, se = o.metric(metric)
                lines.append(f"{o.policy},{metric},{value!r},{se!r},{o.replications}")
        return {"policy_outcomes.csv": _sha256(("\n".join(lines) + "\n").encode())}


# the measured workloads (BENCHMARK.json), then those that can be run by name
WORKLOADS = ("study", "recovery", "policy")
EXTRA_WORKLOADS = ("recovery_t2",)


def make_workload(name: str, size: str = "full") -> Workload:
    if name == "study":
        return Study(name, size)
    if name == "recovery":
        return Recovery(name, size, threads=1)
    if name == "recovery_t2":
        return Recovery(name, size, threads=2)
    if name == "policy":
        return Policy(name, size)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS + EXTRA_WORKLOADS}")


# ---------------------------------------------------------------------------
# Reference values at the default seed


def load_reference(workload: Workload) -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    ref = json.loads(REFERENCE_PATH.read_text())
    return ref.get(workload.size, {}).get(workload.reference_key)


def compare_reference(summary: dict, reference: dict) -> list[str]:
    """Exact values must be equal; approximate ones within the stated tolerance."""
    failures = []
    for key, want in reference["exact"].items():
        got = summary["exact"].get(key)
        if got != want:
            failures.append(f"reference {key}: {got!r} != {want!r}")
    for key, want in reference["approx"].items():
        got = summary["approx"].get(key)
        if got is None or not math.isclose(
            got, want, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL
        ):
            failures.append(f"reference {key}: {got!r} != {want!r}")
    return failures


def digest_matches(digests: dict[str, str], reference: dict) -> int:
    return sum(1 for k, v in reference["digests"].items() if digests.get(k) == v)
