import json

import numpy as np
import pytest

from feedlab.cli import main
from feedlab.data import load_impressions
from feedlab.features import load_scores
from feedlab.regression import load_fit
from feedlab.sim import GenerativeParams, SimConfig, SyntheticPool, save_sim_config


@pytest.fixture
def sim_config_path(tmp_path):
    cfg = SimConfig(
        participants=12,
        feed_length=40,
        news_per_feed=30,
        pool=SyntheticPool(n_true_news=30, n_false_news=30, n_opinion=10, n_mundane=10),
        seed=424242,
    )
    path = tmp_path / "sim_config.json"
    save_sim_config(path, cfg)
    return path


def run(args):
    return main([str(a) for a in args])


class TestSimulateCommand:
    def test_produces_dataset_and_snapshot(self, tmp_path, sim_config_path):
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 0
        for name in ("posts.csv", "impressions.csv", "ratings.csv", "dataset.json", "resolved_config.json"):
            assert (out / name).exists()

    def test_seed_determinism(self, tmp_path, sim_config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out1, "--seed", 7]) == 0
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out2, "--seed", 7]) == 0
        assert (out1 / "impressions.csv").read_bytes() == (out2 / "impressions.csv").read_bytes()
        assert (out1 / "ratings.csv").read_bytes() == (out2 / "ratings.csv").read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.json", "--output-dir", tmp_path]) == 2


class TestPreprocessCommand:
    def test_end_to_end(self, tmp_path, sim_config_path):
        sim_out = tmp_path / "sim"
        run(["simulate", "--config", sim_config_path, "--output-dir", sim_out])
        out = tmp_path / "clean"
        assert run(["preprocess", "--input", sim_out / "impressions.csv", "--output-dir", out]) == 0
        cleaned, _ = load_impressions(out / "cleaned.csv")
        assert cleaned and all(i.dwell_adjusted is not None for i in cleaned)
        audit = json.loads((out / "audit.json").read_text())
        assert (
            sum(audit["removed"].values()) + audit["retained_count"] == audit["input_count"]
        )
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["rules_max_dwell"] == 30.0
        assert resolved["rules_edge_trim"] == 3
        assert resolved["rules_min_dwell"] == 0.15

    def test_rule_overrides_respected(self, tmp_path, sim_config_path):
        sim_out = tmp_path / "sim"
        run(["simulate", "--config", sim_config_path, "--output-dir", sim_out])
        out = tmp_path / "clean"
        code = run(
            [
                "preprocess",
                "--input", sim_out / "impressions.csv",
                "--output-dir", out,
                "--rules.max-dwell", 10,
                "--rules.edge-trim", 5,
                "--rules.min-dwell", 0.3,
            ]
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["rules_max_dwell"] == 10.0
        assert resolved["rules_edge_trim"] == 5

    def test_hand_fixture_audit_counts(self, tmp_path, pipeline_fixture_10):
        from feedlab.data import save_impressions

        path = tmp_path / "fixture.csv"
        save_impressions(path, pipeline_fixture_10)
        out = tmp_path / "out"
        assert run(["preprocess", "--input", path, "--output-dir", out]) == 0
        audit = json.loads((out / "audit.json").read_text())
        assert audit["removed"] == {
            "over_max_dwell": 1,
            "edge_positions": 6,
            "below_min_adjusted": 1,
        }
        assert audit["retained_count"] == 2

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["preprocess", "--input", empty, "--output-dir", tmp_path / "o"]) == 2
        assert "header" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["preprocess", "--input", tmp_path / "nope.csv", "--output-dir", tmp_path]) == 2


@pytest.fixture
def analysis_dirs(tmp_path, sim_config_path):
    sim_out = tmp_path / "sim"
    clean_out = tmp_path / "clean"
    pca_out = tmp_path / "pca"
    run(["simulate", "--config", sim_config_path, "--output-dir", sim_out])
    run(["preprocess", "--input", sim_out / "impressions.csv", "--output-dir", clean_out])
    run(
        [
            "pca",
            "--input", sim_out / "ratings.csv",
            "--impressions", clean_out / "cleaned.csv",
            "--posts", sim_out / "posts.csv",
            "--output-dir", pca_out,
        ]
    )
    return sim_out, clean_out, pca_out


class TestPcaCommand:
    def test_outputs(self, analysis_dirs):
        _, _, pca_out = analysis_dirs
        fit = json.loads((pca_out / "pca_fit.json").read_text())
        fractions = np.array(fit["variance_fraction"])
        assert abs(fractions.sum() - 1.0) < 1e-10
        assert (pca_out / "correlations.csv").exists()
        header = (pca_out / "correlations.csv").read_text().splitlines()[0]
        assert header == "feature,r,p,n"
        top = (pca_out / "top_posts.txt").read_text()
        assert "top posts for pc1" in top
        assert "top posts for pc2" in top
        scores = load_scores(pca_out / "scores.csv")
        assert all(s.mean_dwell is not None for s in scores)

    def test_rerun_byte_identical(self, tmp_path, analysis_dirs):
        sim_out, clean_out, pca_out = analysis_dirs
        again = tmp_path / "pca2"
        run(
            [
                "pca",
                "--input", sim_out / "ratings.csv",
                "--impressions", clean_out / "cleaned.csv",
                "--posts", sim_out / "posts.csv",
                "--output-dir", again,
            ]
        )
        for name in ("pca_fit.json", "correlations.csv", "scores.csv", "top_posts.txt"):
            assert (again / name).read_bytes() == (pca_out / name).read_bytes()

    def test_without_impressions_emits_pairwise(self, tmp_path, analysis_dirs):
        sim_out, _, _ = analysis_dirs
        out = tmp_path / "pca3"
        assert run(["pca", "--input", sim_out / "ratings.csv", "--output-dir", out]) == 0
        lines = (out / "correlations.csv").read_text().splitlines()
        assert len(lines) == 1 + 28  # 8 choose 2 feature pairs


class TestFitCommand:
    def test_dwell_and_engage(self, tmp_path, analysis_dirs):
        _, clean_out, pca_out = analysis_dirs
        for model in ("dwell", "engage"):
            out = tmp_path / f"fit_{model}"
            code = run(
                [
                    "fit",
                    "--input", clean_out / "cleaned.csv",
                    "--scores", pca_out / "scores.csv",
                    "--model", model,
                    "--output-dir", out,
                ]
            )
            assert code == 0
            fit = load_fit(out / f"fit_{model}.json")
            assert {"intercept", "credibility", "sensationalism"} <= {
                t.term for t in fit.terms
            }
            assert (out / f"fit_{model}.txt").read_text().startswith("term")

    def test_engageless_data_is_rank_error(self, tmp_path, analysis_dirs, capsys):
        _, clean_out, pca_out = analysis_dirs
        cleaned, _ = load_impressions(clean_out / "cleaned.csv")
        from dataclasses import replace
        from feedlab.data import save_impressions

        no_engage = [replace(i, shared=False, liked=False) for i in cleaned]
        path = tmp_path / "no_engage.csv"
        save_impressions(path, no_engage)
        code = run(
            [
                "fit",
                "--input", path,
                "--scores", pca_out / "scores.csv",
                "--model", "dwell",
                "--output-dir", tmp_path / "o",
            ]
        )
        assert code == 2
        assert "engage" in capsys.readouterr().err

    def test_library_parity(self, tmp_path, analysis_dirs):
        # the subcommand is a thin shell: library calls produce the identical fit
        _, clean_out, pca_out = analysis_dirs
        out = tmp_path / "fit_parity"
        run(
            [
                "fit",
                "--input", clean_out / "cleaned.csv",
                "--scores", pca_out / "scores.csv",
                "--model", "dwell",
                "--output-dir", out,
            ]
        )
        from feedlab.regression import build_design, dwell_model_spec, fit_design

        impressions, _ = load_impressions(clean_out / "cleaned.csv")
        scores = load_scores(pca_out / "scores.csv")
        spec = dwell_model_spec()
        lib_fit = fit_design(build_design(impressions, scores, spec), spec)
        assert load_fit(out / "fit_dwell.json") == lib_fit


class TestExperimentAndRecover:
    def test_experiment_outputs(self, tmp_path, sim_config_path):
        out = tmp_path / "exp"
        code = run(
            [
                "experiment",
                "--config", sim_config_path,
                "--output-dir", out,
                "--policies", "dwell_opt,engage_opt,random",
                "-k", 10,
                "--replications", 20,
            ]
        )
        assert code == 0
        lines = (out / "policy_outcomes.csv").read_text().splitlines()
        assert lines[0] == "policy,metric,value,se,replications"
        assert len(lines) == 1 + 3 * 4

    def test_experiment_rejects_unknown_policy(self, tmp_path, sim_config_path, capsys):
        code = run(
            [
                "experiment",
                "--config", sim_config_path,
                "--output-dir", tmp_path / "exp2",
                "--policies", "virality",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["experiment", "-k", 0], ["recover", "--replications", 0]]
    )
    def test_degenerate_sizes_are_input_errors(self, tmp_path, sim_config_path, argv):
        out = tmp_path / "degenerate"
        assert run(argv + ["--config", sim_config_path, "--output-dir", out]) == 2
        assert not out.exists()

    def test_recover_outputs(self, tmp_path, sim_config_path):
        out = tmp_path / "rec"
        code = run(
            [
                "recover",
                "--config", sim_config_path,
                "--output-dir", out,
                "--replications", 2,
                "--seed", 3,
            ]
        )
        assert code == 0
        report = json.loads((out / "recovery_report.json").read_text())
        assert "summary" in report and "stage2_dwell_bias_adjusted" in report["summary"]

    def test_report_rejects_non_fit_file(self, tmp_path, sim_config_path, capsys):
        out = tmp_path / "rec"
        run(["recover", "--config", sim_config_path, "--output-dir", out, "--replications", 2])
        capsys.readouterr()
        assert run(["report", "--input", out / "recovery_report.json"]) == 2
        captured = capsys.readouterr()
        assert "not a regression fit file" in captured.err
        assert captured.out == ""

    def test_report_renders_fits(self, tmp_path, analysis_dirs, capsys):
        _, clean_out, pca_out = analysis_dirs
        out = tmp_path / "fit_report"
        run(
            [
                "fit",
                "--input", clean_out / "cleaned.csv",
                "--scores", pca_out / "scores.csv",
                "--model", "dwell",
                "--output-dir", out,
            ]
        )
        capsys.readouterr()
        assert run(["report", "--input", out]) == 0
        text = capsys.readouterr().out
        assert "fit_dwell.json" in text
        assert "estimate" in text
