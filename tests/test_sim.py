import math
from dataclasses import replace

import numpy as np
import pytest

from feedlab.data import FeatureMatrix, dataset_violations, save_impressions
from feedlab.pipeline import ExclusionRules, apply_exclusions_stage1, apply_floor, run_pipeline
from feedlab.regression import build_design, dwell_model_spec, engagement_model_spec, fit_design
from feedlab.sim import (
    GenerativeParams,
    POLICIES,
    SimConfig,
    SyntheticPool,
    align_scores_to_axes,
    expected_dwell,
    expected_engagement,
    load_sim_config,
    parameter_recovery,
    pool_scores,
    rank_feed,
    resolve_marginal,
    run_policy_experiment,
    save_sim_config,
    simulate_dataset,
    simulate_impressions,
    simulate_session,
)
from feedlab.features import fit_feature_pca, project


def resolved_default(pool_seed=5):
    pool = SyntheticPool().realize(np.random.default_rng(pool_seed))
    params = resolve_marginal(GenerativeParams(), pool.credibility, pool.sensationalism)
    return pool, params


class TestSimulateImpression:
    def test_degenerate_params_are_deterministic(self):
        params = GenerativeParams(
            dwell_intercept=math.log(2.0),
            dwell_credibility=0.0,
            dwell_sensationalism=0.0,
            dwell_noise_sd=0.0,
            engage_intercept=0.0,
            engage_dwell=0.0,
            engage_credibility=0.0,
            engage_sensationalism=0.0,
            engage_dwell_sensationalism=0.0,
            motor_mean=0.0,
            motor_sd=0.0,
        )
        params = resolve_marginal(params, np.zeros(4), np.zeros(4))
        rng = np.random.default_rng(0)
        out = simulate_impressions(np.zeros(10_000), np.zeros(10_000), params, rng)
        assert np.all(out["dwell_observed"] == 2.0)
        rate = out["engaged"].mean()
        assert rate == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(10_000))

    def test_sensationalism_dwell_ratio_exact_when_noiseless(self):
        params = GenerativeParams(dwell_noise_sd=0.0, motor_mean=0.0, motor_sd=0.0)
        params = resolve_marginal(params, np.zeros(2), np.array([0.0, 1.0]))
        rng = np.random.default_rng(0)
        d0 = simulate_impressions(np.array([0.0]), np.array([0.0]), params, rng)["dwell_attention"][0]
        d1 = simulate_impressions(np.array([0.0]), np.array([1.0]), params, rng)["dwell_attention"][0]
        assert d1 / d0 == pytest.approx(math.exp(0.038), rel=1e-12)

    def test_engage_rate_matches_closed_form(self):
        pool, params = resolved_default()
        c, s = 0.8, -0.5
        p_closed = float(expected_engagement(params, np.array([c]), np.array([s]))[0])
        rng = np.random.default_rng(42)
        n = 1_000_000
        out = simulate_impressions(np.full(n, c), np.full(n, s), params, rng)
        rate = out["engaged"].mean()
        se = math.sqrt(p_closed * (1 - p_closed) / n)
        assert abs(rate - p_closed) <= 3 * se

    def test_action_count_consistency(self):
        pool, params = resolved_default()
        rng = np.random.default_rng(1)
        out = simulate_impressions(np.zeros(5000), np.zeros(5000), params, rng)
        assert np.all(out["action_count"] == out["shared"].astype(int) + out["liked"].astype(int))
        assert np.all(out["engaged"] == (out["action_count"] >= 1))
        assert np.all(out["dwell_observed"] >= out["dwell_attention"])

    def test_requires_resolved_marginal(self):
        with pytest.raises(ValueError, match="resolve_marginal"):
            simulate_impressions(np.zeros(2), np.zeros(2), GenerativeParams(), np.random.default_rng(0))


class TestSimulateDataset:
    def test_validates_and_has_contiguous_positions(self):
        ds = simulate_dataset(SimConfig(participants=4, seed=11))
        assert dataset_violations(list(ds.posts), list(ds.impressions)) == []
        by_pid = {}
        for imp in ds.impressions:
            by_pid.setdefault(imp.participant_id, []).append(imp.position)
        assert all(sorted(v) == list(range(1, 121)) for v in by_pid.values())

    def test_zero_participants(self):
        ds = simulate_dataset(SimConfig(participants=0, seed=11))
        assert len(ds.impressions) == 0
        assert len(ds.posts) == 276

    def test_seed_determinism_byte_identical(self, tmp_path):
        a = simulate_dataset(SimConfig(participants=3, seed=123))
        b = simulate_dataset(SimConfig(participants=3, seed=123))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_impressions(pa, list(a.impressions))
        save_impressions(pb, list(b.impressions))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = simulate_dataset(SimConfig(participants=2, seed=1))
        b = simulate_dataset(SimConfig(participants=2, seed=2))
        assert a.impressions != b.impressions

    def test_feed_composition_stratified(self):
        ds = simulate_dataset(SimConfig(participants=2, seed=3))
        cats = {p.post_id: p.category for p in ds.posts}
        by_pid = {}
        for imp in ds.impressions:
            by_pid.setdefault(imp.participant_id, []).append(cats[imp.post_id])
        for feed_cats in by_pid.values():
            n_news = sum(c in ("true_news", "false_news") for c in feed_cats)
            assert n_news == 90
            assert len(feed_cats) == 120

    def test_engagement_rate_near_expectation(self):
        cfg = SimConfig(participants=50, seed=21)
        ds, pool, params = simulate_session(cfg)
        p_all = expected_engagement(params, pool.credibility, pool.sensationalism)
        expected = float(p_all.mean())  # feeds are near-uniform samples of the pool
        rate = np.mean([i.engaged for i in ds.impressions])
        se = math.sqrt(expected * (1 - expected) / len(ds.impressions))
        assert abs(rate - expected) < max(3 * se, 0.01)

    def test_feed_length_cannot_exceed_pool(self):
        with pytest.raises(ValueError, match="pool size"):
            SimConfig(participants=1, feed_length=300)


class TestRankFeed:
    def test_identical_posts_tie_break_by_id(self):
        pool, params = resolved_default()
        clone = replace(
            pool,
            credibility=np.zeros(pool.size),
            sensationalism=np.zeros(pool.size),
        )
        top = rank_feed("dwell_opt", clone, params, 5)
        assert top == sorted(clone.post_ids())[:5]

    def test_sign_dissociation_two_posts(self):
        pool, _ = resolved_default()
        two = replace(
            pool,
            matrix=FeatureMatrix(
                pool.matrix.post_ids[:2], pool.matrix.feature_names, pool.matrix.values[:2]
            ),
            categories=pool.categories[:2],
            credibility=np.array([0.0, 0.0]),
            sensationalism=np.array([0.0, 1.0]),
        )
        # noiseless stage 1 with an explicitly configured log-dwell marginal
        # (auto-resolution over a 2-post noiseless pool would be degenerate)
        params = GenerativeParams(
            dwell_noise_sd=0.0,
            logdwell_loc=math.log(2.5),
            logdwell_scale=0.9,
        )
        ids = two.post_ids()
        assert rank_feed("dwell_opt", two, params, 1)[0] == ids[1]  # high-s dwells longer
        assert rank_feed("engage_opt", two, params, 1)[0] == ids[0]  # low-s engages more

    def test_quadrature_vs_monte_carlo(self):
        pool, params = resolved_default()
        idx = np.arange(0, 50)
        quad = expected_engagement(params, pool.credibility[idx], pool.sensationalism[idx])
        rng = np.random.default_rng(78)
        draws = 1_200_000
        for i in (0, 17, 33, 49):
            eps = rng.standard_normal(draws)
            logd = (
                params.dwell_intercept
                + params.dwell_credibility * pool.credibility[idx[i]]
                + params.dwell_sensationalism * pool.sensationalism[idx[i]]
                + params.dwell_noise_sd * eps
            )
            z = (logd - params.logdwell_loc) / params.logdwell_scale
            from scipy.special import expit

            p = expit(
                params.engage_intercept
                + params.engage_dwell * z
                + params.engage_credibility * pool.credibility[idx[i]]
                + params.engage_sensationalism * pool.sensationalism[idx[i]]
                + params.engage_dwell_sensationalism * z * pool.sensationalism[idx[i]]
            )
            mc, se = p.mean(), p.std(ddof=1) / math.sqrt(draws)
            assert abs(float(quad[i]) - mc) <= 1e-6 + 3 * se

    def test_ranking_invariant_to_monotone_transform(self):
        pool, params = resolved_default()
        top = rank_feed("dwell_opt", pool, params, pool.size)
        lin = (
            params.dwell_credibility * pool.credibility
            + params.dwell_sensationalism * pool.sensationalism
        )
        ids = pool.post_ids()
        oracle = [ids[j] for j in sorted(range(pool.size), key=lambda j: (-lin[j], ids[j]))]
        assert top == oracle

    def test_monotone_in_sensationalism_coefficient(self):
        base = GenerativeParams()
        stronger = replace(base, dwell_sensationalism=base.dwell_sensationalism + 0.1)
        s_pos = np.array([0.5, 1.5])
        c = np.zeros(2)
        assert np.all(expected_dwell(stronger, c, s_pos) > expected_dwell(base, c, s_pos))

    def test_random_policy_needs_rng(self):
        pool, params = resolved_default()
        with pytest.raises(ValueError, match="rng"):
            rank_feed("random", pool, params, 3)

    def test_unknown_policy(self):
        pool, params = resolved_default()
        with pytest.raises(ValueError, match="unknown policy"):
            rank_feed("novelty", pool, params, 3)


class TestPolicyExperiment:
    def test_dissociation_and_random_unbiasedness(self):
        cfg = SimConfig(participants=1, seed=99)
        outcomes = {o.policy: o for o in run_policy_experiment(cfg, k=20, replications=200)}
        d, e, r = outcomes["dwell_opt"], outcomes["engage_opt"], outcomes["random"]
        assert d.mean_sensationalism > e.mean_sensationalism + 0.2
        assert d.mean_credibility < e.mean_credibility
        # random policy surfaces an unbiased sample of the pool (mean ~ 0)
        assert abs(r.mean_sensationalism) < 3 * r.se_sensationalism + 0.05
        assert abs(r.mean_credibility) < 3 * r.se_credibility + 0.05

    def test_exhaustive_k_equalizes_composition_metrics(self):
        pool_cfg = SyntheticPool(n_true_news=10, n_false_news=10, n_opinion=3, n_mundane=3)
        cfg = SimConfig(participants=1, feed_length=20, news_per_feed=16, pool=pool_cfg, seed=5)
        outcomes = run_policy_experiment(cfg, k=pool_cfg.size, replications=8)
        creds = {round(o.mean_credibility, 12) for o in outcomes}
        senss = {round(o.mean_sensationalism, 12) for o in outcomes}
        assert len(creds) == 1 and len(senss) == 1

    def test_threaded_matches_serial(self):
        cfg = SimConfig(participants=1, seed=31)
        serial = run_policy_experiment(cfg, k=10, replications=12, threads=1)
        threaded = run_policy_experiment(cfg, k=10, replications=12, threads=4)
        assert serial == threaded

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            run_policy_experiment(SimConfig(participants=1, seed=31), k=0, replications=2)

    def test_outcome_metric_accessor(self):
        cfg = SimConfig(participants=1, seed=31)
        (outcome,) = run_policy_experiment(cfg, ["random"], k=5, replications=3)
        value, se = outcome.metric("engagement_rate")
        assert 0.0 <= value <= 1.0 and se >= 0.0


class TestDescriptiveRefit:
    def test_engagement_footprint_signs(self):
        # the dwell-model engage terms are emergent, not injected: refit the
        # descriptive dwell spec on simulated data and check their signs
        cfg = SimConfig(participants=300, seed=4242)
        ds, pool, params = simulate_session(cfg)
        res = run_pipeline(ds, ExclusionRules())
        design = build_design(list(res.impressions), pool_scores(pool), dwell_model_spec())
        fit = fit_design(design, dwell_model_spec())
        assert fit.term("engage").estimate > 0
        assert fit.term("engage:sensationalism").estimate > 0
        assert fit.term("sensationalism").estimate > 0
        assert fit.term("credibility").estimate < 0


class TestAlignment:
    def test_alignment_fixes_sign_and_order(self):
        pool, _ = resolved_default(pool_seed=9)
        fit = fit_feature_pca(pool.matrix)
        scores = project(fit, pool.matrix)
        flipped = [
            replace(s, pc_scores=tuple(-v for v in s.pc_scores)) for s in scores
        ]
        aligned, meta = align_scores_to_axes(
            flipped, pool.post_ids(), pool.credibility, pool.sensationalism
        )
        cred = np.array([s.pc_scores[0] for s in aligned])
        sens = np.array([s.pc_scores[1] for s in aligned])
        assert np.corrcoef(cred, pool.credibility)[0, 1] > 0.9
        assert np.corrcoef(sens, pool.sensationalism)[0, 1] > 0.9
        assert meta["credibility_abs_corr"] > 0.9


class TestParameterRecovery:
    def test_stage1_recovers_and_pipeline_beats_raw(self):
        cfg = SimConfig(participants=250, seed=808)
        report = parameter_recovery(cfg, ExclusionRules(), replications=3)
        s = report.summary
        assert s["stage2_dwell_bias_adjusted"] < s["stage2_dwell_bias_raw"]
        for term in ("stage1.credibility", "stage1.sensationalism"):
            row = s["coefficients"][term]
            assert row["coverage_3se"] == 1.0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "movement-time regression absorbs the genuine attention->engagement "
            "association (slope ~0.6 s/action even with zero true motor time), "
            "so adjustment is not a no-op without a confound and pipeline-on/off "
            "parity cannot hold under the two-stage generator"
        ),
    )
    def test_no_confound_parity_pipeline_on_off(self):
        params = GenerativeParams(motor_mean=0.0, motor_sd=0.0)
        cfg = SimConfig(participants=250, seed=909, params=params)
        ds, pool, _ = simulate_session(cfg)
        rules = ExclusionRules()
        adjusted = run_pipeline(ds, rules)
        stage1, _ = apply_exclusions_stage1(list(ds.impressions), rules)
        raw_rows, _ = apply_floor(
            [replace(i, dwell_adjusted=i.dwell_raw) for i in stage1], rules
        )
        spec = engagement_model_spec()
        scores = pool_scores(pool)
        fit_adj = fit_design(build_design(list(adjusted.impressions), scores, spec), spec)
        fit_raw = fit_design(build_design(raw_rows, scores, spec), spec)
        assert fit_adj.term("dwell").estimate == pytest.approx(
            fit_raw.term("dwell").estimate, abs=1e-6
        )

    def test_threaded_matches_serial(self):
        cfg = SimConfig(participants=60, seed=2024)
        serial = parameter_recovery(cfg, ExclusionRules(), replications=3, threads=1)
        threaded = parameter_recovery(cfg, ExclusionRules(), replications=3, threads=2)
        assert threaded.to_dict() == serial.to_dict()

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            parameter_recovery(SimConfig(participants=20, seed=1), replications=0)

    def test_report_serializable(self):
        cfg = SimConfig(participants=120, seed=5150)
        report = parameter_recovery(cfg, ExclusionRules(), replications=2)
        import json

        blob = json.dumps(report.to_dict())
        assert "stage2_dwell_bias_adjusted" in blob


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        cfg = SimConfig(
            participants=10,
            feed_length=40,
            news_per_feed=30,
            pool=SyntheticPool(n_true_news=20, n_false_news=20, n_opinion=5, n_mundane=5),
            params=GenerativeParams(motor_mean=0.9),
            seed=77,
        )
        save_sim_config(tmp_path / "cfg.json", cfg)
        loaded = load_sim_config(tmp_path / "cfg.json")
        assert loaded == cfg

    def test_policies_constant(self):
        assert POLICIES == ("dwell_opt", "engage_opt", "random", "chronological")
