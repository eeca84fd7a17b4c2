import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import feedlab
from feedlab import cli
from feedlab.cli import main
from feedlab.data import FEATURE_NAMES, file_digest, load_impressions, write_json
from feedlab.features import load_scores
from feedlab.regression import load_fit
from feedlab.sim import POLICIES, GenerativeParams, SimConfig, SyntheticPool, config_to_dict


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
    write_json(path, config_to_dict(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


class TestSimulateCommand:
    def test_produces_dataset_and_snapshot(self, tmp_path, sim_config_path):
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 0
        for name in ("posts.csv", "impressions.csv", "ratings.csv", "dataset.json", "resolved_config.json"):
            assert (out / name).exists()

    def test_dataset_json_names_impressions_by_digest(self, tmp_path, sim_config_path):
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 0
        dataset = json.loads((out / "dataset.json").read_text())
        assert sorted(dataset) == ["posts", "provenance"]
        digest = dataset["provenance"]["impressions_sha256"]
        assert digest == file_digest(out / "impressions.csv")
        assert {"seed", "config_digest"} <= dataset["provenance"].keys()

    def test_seed_determinism(self, tmp_path, sim_config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out1, "--seed", 7]) == 0
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out2, "--seed", 7]) == 0
        assert (out1 / "impressions.csv").read_bytes() == (out2 / "impressions.csv").read_bytes()
        assert (out1 / "ratings.csv").read_bytes() == (out2 / "ratings.csv").read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.json", "--output-dir", tmp_path]) == 2

    @pytest.mark.parametrize("key", ["logdwell_loc", "logdwell_scale"])
    def test_derived_marginal_in_config_is_input_error(
        self, tmp_path, sim_config_path, capsys, key
    ):
        config = json.loads(sim_config_path.read_text())
        config["params"][key] = 99.0
        sim_config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (None, [], "the config must be a JSON object, got list"),
            ("pool", 5, "pool must be a JSON object, got int"),
            ("participants", 2.5, "the config field participants must be int, got 2.5"),
            ("params", [], "params must be a JSON object, got list"),
            ("params", {"motor_sd": "0.4"}, "params field motor_sd must be float, got '0.4'"),
            ("pool", {}, "the config field pool must be of kind 'synthetic', got None"),
        ],
        ids=[
            "top_level_list", "pool_int", "participants_float", "params_list", "param_text",
            "pool_without_kind",
        ],
    )
    def test_malformed_config_is_input_error(
        self, tmp_path, sim_config_path, capsys, key, value, message
    ):
        config = json.loads(sim_config_path.read_text())
        if key is None:
            config = value
        else:
            config[key] = value
        sim_config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 2
        assert f"error: {sim_config_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, field, value, message",
        [
            (
                "params", "dwell_intercept", float("nan"),
                "{path}: params: dwell_intercept must be finite, got nan",
            ),
            (
                "pool", "feature_noise_sd", float("inf"),
                "{path}: pool: feature_noise_sd must be finite, got inf",
            ),
            ("pool", "feature_noise_sd", -0.1, "{path}: pool: feature_noise_sd must be non-negative"),
            (
                "params", "dwell_intercept", 10**400,
                "{path}: params field dwell_intercept must be float, "
                "got an integer too large for a float",
            ),
            (
                "pool", "credibility_strength", -(10**400),
                "{path}: pool field credibility_strength must be float, "
                "got an integer too large for a float",
            ),
        ],
        ids=["params_nan", "pool_inf", "pool_negative_sd", "params_huge_int", "pool_huge_int"],
    )
    def test_bad_config_number_is_input_error(
        self, tmp_path, sim_config_path, capsys, key, field, value, message
    ):
        # Python's json reads NaN and Infinity, so the dataclasses must reject them
        config = json.loads(sim_config_path.read_text())
        config[key][field] = value
        sim_config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 2
        assert f"error: {message.format(path=sim_config_path)}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json_config_names_its_path(self, tmp_path, sim_config_path, capsys):
        sim_config_path.write_text('{"participants": 12,\n}\n')
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 2
        assert f"error: {sim_config_path}: Expecting property name" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_pool_is_input_error(self, tmp_path, sim_config_path, capsys):
        config = json.loads(sim_config_path.read_text())
        config["pool"].update(n_true_news=0, n_false_news=0, n_opinion=0, n_mundane=0)
        config.update(feed_length=0, news_per_feed=0)
        sim_config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 2
        message = "the config: the post pool must hold at least one post"
        assert f"error: {sim_config_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_post_count_is_input_error(self, tmp_path, sim_config_path, capsys):
        config = json.loads(sim_config_path.read_text())
        config["pool"].update(n_true_news=-3, n_false_news=50)
        sim_config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", out]) == 2
        assert f"error: {sim_config_path}: pool: n_true_news must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment", "recover"])
    def test_negative_config_seed_names_the_file(self, tmp_path, sim_config_path, capsys, command):
        config = json.loads(sim_config_path.read_text())
        config["seed"] = -1
        sim_config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run([command, "--config", sim_config_path, "--output-dir", out]) == 2
        message = "the config: seed must be >= 0, got -1"
        assert f"error: {sim_config_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment", "recover"])
    @pytest.mark.parametrize("seed", ["-5", "five"])
    def test_bad_seed_flag_is_named(self, tmp_path, sim_config_path, capsys, command, seed):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", sim_config_path, "--output-dir", out, "--seed", seed])
        assert exc.value.code == 2
        message = f"argument --seed: must be a non-negative integer, got '{seed}'"
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPreprocessCommand:
    def test_end_to_end(self, tmp_path, sim_config_path):
        sim_out = tmp_path / "sim"
        run(["simulate", "--config", sim_config_path, "--output-dir", sim_out])
        out = tmp_path / "clean"
        assert run(["preprocess", "--input", sim_out / "impressions.csv", "--output-dir", out]) == 0
        cleaned, _ = load_impressions(out / "cleaned.csv")
        assert len(cleaned) and cleaned.dwell_adjusted is not None
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

    def test_missing_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert run(["preprocess", "--input", path, "--output-dir", tmp_path]) == 2
        assert str(path) in capsys.readouterr().err

    def test_duplicate_position_exit_2(self, tmp_path, capsys):
        path = tmp_path / "impressions.csv"
        path.write_text(
            "participant_id,post_id,position,dwell_raw,shared,liked\n"
            "p1,post_a,1,2.0,0,0\np1,post_b,1,3.0,1,0\np1,post_c,2,4.0,0,0\n"
        )
        out = tmp_path / "out"
        assert run(["preprocess", "--input", path, "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert "error: participant 'p1' has duplicated position(s) [1]" in err
        assert "unknown post" not in err
        assert not out.exists()

    def test_id_ending_in_nul_exit_2(self, tmp_path, capsys):
        path = tmp_path / "impressions.csv"
        path.write_text(
            "participant_id,post_id,position,dwell_raw,shared,liked\n"
            "z,post_a,1,2.0,0,0\nz\x00,post_b,1,3.0,1,0\n"
        )
        out = tmp_path / "out"
        assert run(["preprocess", "--input", path, "--output-dir", out]) == 2
        assert "error: participant id 'z\\x00' ends in a NUL character" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_over_field_limit_exit_2(self, tmp_path, capsys):
        # a quoted id sends the file to the csv module, whose field limit is 131072
        path = tmp_path / "impressions.csv"
        path.write_text(
            "participant_id,post_id,position,dwell_raw,shared,liked\n"
            f'"{"p" * 200000}",post_a,1,2.0,0,0\n'
        )
        out = tmp_path / "out"
        assert run(["preprocess", "--input", path, "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: line " in err and "field larger than field limit" in err
        assert not out.exists()

    def test_rejected_rows_past_20_are_counted(self, tmp_path, capsys):
        path = tmp_path / "impressions.csv"
        bad = "".join(f"p1,post_a,x{i},2.0,0,0\n" for i in range(23))
        path.write_text(f"participant_id,post_id,position,dwell_raw,shared,liked\n{bad}")
        assert run(["preprocess", "--input", path, "--output-dir", tmp_path / "out"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 21
        assert all(line.startswith("warning: impressions line ") for line in lines[:20])
        assert lines[20] == "warning: impressions: 3 more rejected rows"

    def test_position_outside_int64_is_a_row_error(self, tmp_path, capsys):
        # the row is reported and dropped; it used to end the run with exit 1
        path = tmp_path / "impressions.csv"
        path.write_text(
            "participant_id,post_id,position,dwell_raw,shared,liked\n"
            "p1,post_a,99999999999999999999,2.0,0,0\n"
        )
        out = tmp_path / "out"
        assert run(["preprocess", "--input", path, "--output-dir", out]) == 0
        err = capsys.readouterr().err
        assert err == (
            "warning: impressions line 2: position '99999999999999999999' is outside the int64 range\n"
        )
        cleaned, errors = load_impressions(out / "cleaned.csv")
        assert len(cleaned) == 0 and not errors


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
        assert scores.feature_names[-1] == "mean_dwell"

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

    def test_cell_over_field_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text(f"rater_id,post_id,feature,value\nr1,post_a,truth,4.0\nr2,{'x' * 200000},truth,1\n")
        out = tmp_path / "out"
        assert run(["pca", "--input", path, "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: line 3: field larger than field limit" in err
        assert not out.exists()

    def test_fewer_than_9_rated_posts_exit_2_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        rows = "".join(f"r1,post_{i},{f},{i}.5\n" for i in range(8) for f in FEATURE_NAMES)
        path.write_text(f"rater_id,post_id,feature,value\n{rows}")
        out = tmp_path / "out"
        assert run(["pca", "--input", path, "--output-dir", out]) == 2
        assert capsys.readouterr().err == (
            "error: need at least 9 fully rated posts for the component fit\n"
        )
        assert not out.exists()

    def test_negative_top_k_exit_2_writes_nothing(self, tmp_path, capsys, sim_config_path):
        sim_out = tmp_path / "sim"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", sim_out]) == 0
        out = tmp_path / "pca_neg"
        args = ["pca", "--input", sim_out / "ratings.csv", "--output-dir", out, "--top-k", -1]
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert "argument --top-k: must be a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "bad_row",
        ["", "post_x,0.5", "post_x" + ",abc" * 9, "post_x,nan" + ",0.5" * 8],
        ids=["blank", "ragged", "text", "nonfinite"],
    )
    def test_malformed_scores_row_is_input_error(self, tmp_path, analysis_dirs, capsys, bad_row):
        _, clean_out, pca_out = analysis_dirs
        text = (pca_out / "scores.csv").read_text()
        scores = tmp_path / "scores.csv"
        scores.write_text(text + bad_row + "\n")
        out = tmp_path / "o"
        code = run(
            [
                "fit",
                "--input", clean_out / "cleaned.csv",
                "--scores", scores,
                "--model", "dwell",
                "--output-dir", out,
            ]
        )
        assert code == 2
        assert f"{scores} line {text.count(chr(10)) + 1}: " in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_post_in_scores_is_input_error(self, tmp_path, analysis_dirs, capsys):
        # a second row for a post, its component scores negated, must not replace the first
        _, clean_out, pca_out = analysis_dirs
        text = (pca_out / "scores.csv").read_text()
        first = text.splitlines()[1].split(",")
        copy = [first[0], *(repr(-float(v)) for v in first[1:3]), *first[3:]]
        scores = tmp_path / "scores.csv"
        scores.write_text(text + ",".join(copy) + "\n")
        out = tmp_path / "o"
        code = run(
            [
                "fit",
                "--input", clean_out / "cleaned.csv",
                "--scores", scores,
                "--model", "dwell",
                "--output-dir", out,
            ]
        )
        assert code == 2
        line = text.count("\n") + 1
        expected = f"{scores} line {line}: post_id {first[0]!r} is also on line 2"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_engageless_data_is_rank_error(self, tmp_path, analysis_dirs, capsys):
        _, clean_out, pca_out = analysis_dirs
        cleaned, _ = load_impressions(clean_out / "cleaned.csv")
        from dataclasses import replace
        from feedlab.data import save_impressions

        no_action = np.zeros(len(cleaned), dtype=bool)
        no_engage = replace(cleaned, shared=no_action, liked=no_action)
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

    @pytest.mark.parametrize("model, fit", [("dwell", "OLS"), ("engage", "logistic")])
    def test_fewer_rows_than_columns_is_input_error(self, tmp_path, capsys, model, fit):
        from feedlab.data import FeatureMatrix, save_impressions
        from feedlab.features import save_scores
        from conftest import as_table, make_impression

        rows = [make_impression("p1", f"post_{i}", i, 2.0 + i, actions=i % 2, adjusted=1.5 + i)
                for i in range(1, 4)]
        save_impressions(tmp_path / "cleaned.csv", as_table(rows))
        posts = tuple(f"post_{i}" for i in range(1, 4))
        save_scores(tmp_path / "scores.csv", FeatureMatrix(posts, ("pc1", "pc2"), np.eye(3, 2)))
        code = run(
            [
                "fit",
                "--input", tmp_path / "cleaned.csv",
                "--scores", tmp_path / "scores.csv",
                "--model", model,
                "--output-dir", tmp_path / "o",
            ]
        )
        assert code == 2
        assert f"need n > k for {fit} inference (n=3, k=6)" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["dwell", "engage"])
    def test_uncleaned_impressions_exit_2(self, tmp_path, capsys, model):
        path = tmp_path / "impressions.csv"
        path.write_text(
            "participant_id,post_id,position,dwell_raw,shared,liked\np1,post_a,1,2.0,0,0\n"
        )
        out = tmp_path / "o"
        args = ["fit", "--input", path, "--scores", tmp_path / "scores.csv", "--model", model]
        assert run([*args, "--output-dir", out]) == 2
        assert capsys.readouterr().err == (
            "error: fit needs cleaned impressions (run preprocess first)\n"
        )
        assert not out.exists()

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
        out = tmp_path / "exp2"
        code = run(
            [
                "experiment",
                "--config", sim_config_path,
                "--output-dir", out,
                "--policies", "virality",
            ]
        )
        assert code == 2
        assert "unknown policy 'virality'" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_rejects_repeated_policy(self, tmp_path, sim_config_path, capsys):
        out = tmp_path / "exp3"
        argv = ["experiment", "--config", sim_config_path, "--output-dir", out]
        assert run(argv + ["--policies", "random,random"]) == 2
        assert "['random']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "-k", 0],
            ["recover", "--replications", 0],
            # k over the pool's 80 posts, for each policy alone
            *(["experiment", "--policies", policy, "-k", 300] for policy in POLICIES),
        ],
    )
    def test_degenerate_sizes_are_input_errors(self, tmp_path, sim_config_path, argv):
        # argparse exits 2 on a bad --replications; the command returns 2 on a bad -k
        out = tmp_path / "degenerate"
        try:
            code = run(argv + ["--config", sim_config_path, "--output-dir", out])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["experiment", "-k", 0], "-k 0: must be in 1..80, the config's pool size"),
            (["experiment", "-k", 81], "-k 81: must be in 1..80, the config's pool size"),
        ],
    )
    def test_degenerate_size_names_its_flag(self, tmp_path, sim_config_path, capsys, argv, message):
        out = tmp_path / "degenerate"
        assert run(argv + ["--config", sim_config_path, "--output-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["preprocess", "--rules.max-dwell", "nan"], "must be a positive number, got 'nan'"),
            (["preprocess", "--rules.min-dwell", "nan"], "must be a positive number, got 'nan'"),
            (["preprocess", "--rules.min-dwell", "0"], "must be a positive number, got '0'"),
            (["preprocess", "--rules.edge-trim", "0"], "must be a positive integer, got '0'"),
            (["recover", "--rules.max-dwell", "-1"], "must be a positive number, got '-1'"),
            (["recover", "--rules.edge-trim", "2.5"], "must be a positive integer, got '2.5'"),
            (["pca", "--top-k", "-1"], "must be a non-negative integer, got '-1'"),
            (["experiment", "--replications", "-2"], "must be a positive integer, got '-2'"),
            (["recover", "--replications", "0"], "must be a positive integer, got '0'"),
        ],
    )
    def test_bad_flag_value_is_named(self, tmp_path, sim_config_path, capsys, argv, message):
        # argparse rejects the value before any input is read
        out = tmp_path / "degenerate"
        studies = ("experiment", "recover")
        inputs = ["--config", sim_config_path] if argv[0] in studies else ["--input", "absent.csv"]
        with pytest.raises(SystemExit) as exc:
            run(argv + inputs + ["--output-dir", out])
        assert exc.value.code == 2
        assert f"argument {argv[1]}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_max_dwell_is_allowed(self):
        argv = ["preprocess", "--input", "i.csv", "--output-dir", "out", "--rules.max-dwell", "inf"]
        assert cli.build_parser().parse_args(argv).rules_max_dwell == math.inf

    @pytest.mark.parametrize("command", ["experiment", "recover"])
    def test_threads_flag_is_gone(self, tmp_path, sim_config_path, capsys, command):
        out = tmp_path / "threaded"
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", sim_config_path, "--output-dir", out, "--threads", 2])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
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

    def test_report_on_a_directory_without_fits_exit_2(self, tmp_path, capsys):
        (tmp_path / "fit_dwell.txt").write_text("term\n")
        assert run(["report", "--input", tmp_path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no fit_*.json under {tmp_path}\n"
        assert captured.out == ""

    def test_report_rejects_non_fit_file(self, tmp_path, sim_config_path, capsys):
        out = tmp_path / "rec"
        run(["recover", "--config", sim_config_path, "--output-dir", out, "--replications", 2])
        capsys.readouterr()
        path = out / "recovery_report.json"
        assert run(["report", "--input", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: not a RegressionFit: " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fields", [{"n": 3, "note": "x"}, {}], ids=["unknown", "missing"])
    def test_report_rejects_fit_with_wrong_fields(self, tmp_path, capsys, fields):
        term = {"term": "intercept", "estimate": 1.0, "se": 0.1, "statistic": 10.0, "p": 0.0}
        path = tmp_path / "fit_dwell.json"
        path.write_text(json.dumps({"model": "ols", "terms": [term], **fields}))
        assert run(["report", "--input", path]) == 2
        assert f"error: {path}: not a RegressionFit" in capsys.readouterr().err

    def test_report_names_file_and_term_with_unknown_field(self, tmp_path, capsys):
        term = {"term": "x", "estimate": 1.0, "se": 0.1, "statistic": 10.0, "p": 0.0, "extra": 1}
        path = tmp_path / "fit_dwell.json"
        path.write_text(json.dumps({"model": "ols", "n": 10, "terms": [term]}))
        assert run(["report", "--input", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: term 0: not a TermEstimate: "
        )

    @pytest.mark.parametrize(
        "payload, message",
        [
            (5, "the fit must be a JSON object, got int"),
            ({"model": "ols", "terms": 5}, "the fit field terms must be a JSON list, got 5"),
            (
                {"model": "ols", "terms": [], "n": 3, "warnings": 5},
                "the fit field warnings must be a JSON list, got 5",
            ),
            ({"model": "ols", "terms": [], "n": "x"}, "the fit field n must be int, got 'x'"),
            ({"model": "ols", "terms": [], "n": 2.5}, "the fit field n must be int, got 2.5"),
            ({"model": "ols", "terms": [], "n": True}, "the fit field n must be int, got True"),
            ({"model": 5, "terms": [], "n": 3}, "the fit field model must be str, got 5"),
        ],
        ids=[
            "top_level_int", "terms_int", "warnings_int", "n_text", "n_float", "n_bool", "model_int",
        ],
    )
    def test_report_rejects_malformed_fit_shapes(self, tmp_path, capsys, payload, message):
        path = tmp_path / "fit_dwell.json"
        path.write_text(json.dumps(payload))
        assert run(["report", "--input", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: {message}" in captured.err
        assert "internal error" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "term, message",
        [
            (
                {"term": "x", "estimate": None, "se": 1.0, "statistic": 1.0, "p": 0.5},
                "the term field estimate must be float, got None",
            ),
            (
                {"term": "x", "estimate": 1.0, "se": True, "statistic": 1.0, "p": 0.5},
                "the term field se must be float, got True",
            ),
            ("x", "the term must be a JSON object, got str"),
            (
                {"term": 7, "estimate": 1.0, "se": 1.0, "statistic": 1.0, "p": 0.5},
                "the term field term must be str, got 7",
            ),
            (
                {"term": "x", "estimate": 10**400, "se": 1.0, "statistic": 1.0, "p": 0.5},
                "the term field estimate must be float, got an integer too large for a float",
            ),
        ],
        ids=["null_estimate", "bool_se", "string_term", "int_term_name", "huge_int_estimate"],
    )
    def test_report_rejects_term_that_is_not_numbers(self, tmp_path, capsys, term, message):
        path = tmp_path / "fit_dwell.json"
        path.write_text(json.dumps({"model": "ols", "n": 10, "terms": [term]}))
        assert run(["report", "--input", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: term 0: {message}" in captured.err
        assert captured.out == ""

    def test_report_renders_infinite_statistic(self, tmp_path, capsys):
        # a perfect OLS fit has zero SEs, and its saved t statistic is Infinity
        term = {"term": "x", "estimate": 4, "se": 0.0, "statistic": float("inf"), "p": 0.0}
        path = tmp_path / "fit_dwell.json"
        path.write_text(json.dumps({"model": "ols", "n": 10, "terms": [term]}))
        assert run(["report", "--input", path]) == 0
        assert "x     4.000     0.000  inf      0.000" in capsys.readouterr().out

    def test_report_renders_fit_without_terms(self, tmp_path, capsys):
        path = tmp_path / "fit_dwell.json"
        path.write_text(json.dumps({"model": "ols", "n": 3, "terms": []}))
        assert run(["report", "--input", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "== fit_dwell.json ==",
            "term  estimate  SE  t value  p",
            "----  --------  --  -------  -",
            "n = 3  model = ols",
            "",
        ]

    def test_report_names_malformed_fit_file(self, tmp_path, capsys):
        path = tmp_path / "fit_dwell.json"
        path.write_text("")
        assert run(["report", "--input", tmp_path]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: Expecting value" in captured.err
        assert captured.out == ""

    def test_report_prints_nothing_when_a_later_fit_is_bad(self, tmp_path, capsys):
        # fit_a.json sorts first and is good; fit_b.json is not a fit
        term = {"term": "x", "estimate": 1.0, "se": 0.1, "statistic": 10.0, "p": 0.0}
        (tmp_path / "fit_a.json").write_text(json.dumps({"model": "ols", "n": 10, "terms": [term]}))
        (tmp_path / "fit_b.json").write_text(json.dumps({"model": "ols", "n": "x", "terms": []}))
        assert run(["report", "--input", tmp_path]) == 2
        captured = capsys.readouterr()
        assert f"error: {tmp_path / 'fit_b.json'}: the fit field n must be int" in captured.err
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


class TestDirectoryAsInputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{dir}"],
            ["preprocess", "--input", "{dir}"],
            ["pca", "--input", "{dir}"],
            ["pca", "--input", "{sim}/ratings.csv", "--impressions", "{dir}"],
            ["fit", "--input", "{cleaned}", "--scores", "{dir}", "--model", "dwell"],
        ],
        ids=["simulate-config", "preprocess-input", "pca-input", "pca-impressions", "fit-scores"],
    )
    def test_exit_2_naming_the_path(self, tmp_path, sim_config_path, capsys, argv):
        sim_out, cleaned = tmp_path / "sim", tmp_path / "cleaned.csv"
        assert run(["simulate", "--config", sim_config_path, "--output-dir", sim_out]) == 0
        cleaned.write_text(
            "participant_id,post_id,position,dwell_raw,shared,liked,dwell_adjusted\n"
            "p1,post_a,1,2.0,0,0,2.0\n"
        )
        directory = tmp_path / "a_directory"
        directory.mkdir()
        out = tmp_path / "out"
        capsys.readouterr()
        args = [a.format(dir=directory, sim=sim_out, cleaned=cleaned) for a in argv]
        assert run([*args, "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(directory) in err
        assert not out.exists()


class TestOutputDirIsAFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "sim_config.json"],
            ["preprocess", "--input", "impressions.csv"],
            ["pca", "--input", "ratings.csv"],
            ["fit", "--input", "cleaned.csv", "--scores", "scores.csv", "--model", "dwell"],
            ["experiment", "--config", "sim_config.json"],
            ["recover", "--config", "sim_config.json"],
        ],
        ids=["simulate", "preprocess", "pca", "fit", "experiment", "recover"],
    )
    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
    def test_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv, nested):
        # the path is checked before the command starts, so no command may run
        for command in ("simulate", "preprocess", "pca", "fit", "experiment", "recover"):
            monkeypatch.setattr(cli, f"cmd_{command}", lambda args: pytest.fail("the command ran"))
        a_file = tmp_path / "a_file"
        a_file.write_text("kept\n")
        out = a_file / "sub" if nested else a_file
        assert run([*argv, "--output-dir", out]) == 2
        assert capsys.readouterr().err == f"error: --output-dir {out}: {a_file} is not a directory\n"
        assert a_file.read_text() == "kept\n"


# Runs CLI commands in one fresh process in which importing scipy raises
# ImportError, and prints each command's exit code and any scipy module loaded.
_NO_SCIPY_PROBE = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
from feedlab.cli import main
codes = {name: main(argv) for name, argv in json.loads(sys.argv[1])}
loaded = {top: sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
          for top in ("scipy", "concurrent.futures")}
print(json.dumps({"codes": codes, **loaded}))
"""


def test_no_command_loads_scipy(tmp_path, sim_config_path):
    # p-values are computed with numpy and math alone, so scipy is not a runtime
    # dependency: every command runs with it unimportable. Replications run in the
    # calling thread, so no command loads a thread pool either
    sim_out, clean_out, pca_out, fit_out = (tmp_path / d for d in ("sim", "clean", "pca", "fit"))
    fit = ["fit", "--input", clean_out / "cleaned.csv", "--scores", pca_out / "scores.csv",
           "--output-dir", fit_out]
    commands = {
        "simulate": ["simulate", "--config", sim_config_path, "--output-dir", sim_out],
        "preprocess": ["preprocess", "--input", sim_out / "impressions.csv",
                       "--output-dir", clean_out],
        "pca": ["pca", "--input", sim_out / "ratings.csv", "--impressions",
                clean_out / "cleaned.csv", "--posts", sim_out / "posts.csv",
                "--output-dir", pca_out],
        "fit dwell": [*fit, "--model", "dwell"],
        "fit engage": [*fit, "--model", "engage"],
        "report": ["report", "--input", fit_out],
        "experiment": ["experiment", "--config", sim_config_path, "--replications", 2,
                       "--output-dir", tmp_path / "exp"],
        "recover": ["recover", "--config", sim_config_path, "--replications", 2,
                    "--output-dir", tmp_path / "rec"],
    }
    argv = json.dumps([[name, [str(a) for a in args]] for name, args in commands.items()])
    path = [str(Path(feedlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": dict.fromkeys(commands, 0), "scipy": [], "concurrent.futures": []
    }, proc.stderr
    assert (fit_out / "fit_dwell.json").is_file() and (fit_out / "fit_engage.json").is_file()
