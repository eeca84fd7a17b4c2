import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from feedlab._numeric import sigmoid
from feedlab.data import DataFormatError, FeatureMatrix, dataset_violations, save_impressions, write_json
from feedlab.pipeline import ExclusionRules, raw_dwell_control, run_pipeline
from feedlab.regression import build_design, dwell_model_spec, engagement_model_spec, fit_design
from feedlab.sim import (
    GenerativeParams,
    POLICIES,
    SimConfig,
    SyntheticPool,
    _GH_NODES,
    _GH_W,
    _RANK_CHUNK,
    _engagement_bounds,
    _logit_terms,
    _node_sum,
    _top_k_engagement,
    _two_stage,
    align_scores_to_axes,
    config_to_dict,
    expected_dwell,
    expected_engagement,
    load_sim_config,
    log_dwell_marginal,
    parameter_recovery,
    rank_feed,
    run_policy_experiment,
    simulate_impressions,
    simulate_session,
)
from feedlab.features import fit_feature_pca, project
from oracles import (
    expit_expected_engagement,
    two_branch_align_scores_to_axes,
    mean_var_marginal,
    per_participant_session,
    per_replication_policy_experiment,
    per_stream_impressions,
    three_call_pool,
)
from conftest import pool_scores


PARAMS = GenerativeParams()


def default_pool(pool_seed=5):
    """A realized default pool and its log-dwell marginal ``(loc, scale)`` under PARAMS."""
    pool = SyntheticPool().realize(np.random.default_rng(pool_seed))
    return pool, log_dwell_marginal(PARAMS, pool.credibility, pool.sensationalism)


def engagement_scores(params, c, s):
    """expected_engagement against the marginal of the posts ``c``, ``s``."""
    return expected_engagement(params, c, s, *log_dwell_marginal(params, c, s))


class TestLogDwellMarginal:
    """The direct reductions against ``ndarray.mean``/``var``: exact equality."""

    def test_matches_mean_and_var_on_realized_pools(self):
        draw = np.random.default_rng(0)
        for seed in range(1000):
            pool = SyntheticPool().realize(np.random.default_rng(seed))
            params = PARAMS
            if seed % 2:
                params = GenerativeParams(
                    dwell_credibility=draw.normal(), dwell_sensationalism=draw.normal()
                )
            c, s = pool.credibility, pool.sensationalism
            assert log_dwell_marginal(params, c, s) == mean_var_marginal(params, c, s), seed

    @pytest.mark.parametrize("n", [1, 2, 64, 276])
    def test_constant_pool(self, n):
        # lin = 0.75 on every post, summed and divided without rounding: the
        # variance is 0, so the scale is the noise SD, and 0 without noise
        c, s = np.ones(n), np.ones(n)
        for noise_sd in (0.9, 0.0):
            params = GenerativeParams(
                dwell_credibility=0.5, dwell_sensationalism=0.25, dwell_noise_sd=noise_sd
            )
            loc, scale = log_dwell_marginal(params, c, s)
            assert (loc, scale) == mean_var_marginal(params, c, s)
            assert loc == params.dwell_intercept + 0.75 and scale == noise_sd
        # a constant that does not sum exactly still matches the methods
        params = GenerativeParams(dwell_noise_sd=0.0)
        c, s = np.full(n, 0.1), np.full(n, -0.7)
        assert log_dwell_marginal(params, c, s) == mean_var_marginal(params, c, s)


# default and edge settings of a synthetic pool: no noise, no offset, one
# category only, a single post
POOL_SETTINGS = [
    SyntheticPool(),
    SyntheticPool(feature_noise_sd=0.0, feature_offset=0.0),
    SyntheticPool(
        n_true_news=7, n_false_news=0, n_opinion=0, n_mundane=0,
        credibility_strength=-1.5, sensationalism_strength=2.25,
    ),
    SyntheticPool(n_true_news=0, n_false_news=0, n_opinion=1, n_mundane=0),
]


class TestRealize:
    """The one-call draw and the features built on first read, against three
    draws and the features built at once: exact equality."""

    @pytest.mark.parametrize("settings", POOL_SETTINGS)
    def test_one_draw_is_the_three_call_stream(self, settings):
        for seed in range(20):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            pool = settings.realize(rng)
            cred, sens, noise, _ = three_call_pool(settings, reference)
            assert np.array_equal(pool.credibility, cred)
            assert np.array_equal(pool.sensationalism, sens)
            assert np.array_equal(pool.noise, noise)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.standard_normal() == reference.standard_normal()

    @pytest.mark.parametrize("settings", POOL_SETTINGS)
    def test_values_are_the_eager_formula_and_read_only(self, settings):
        for seed in range(20):
            pool = settings.realize(np.random.default_rng(seed))
            *_, expected = three_call_pool(settings, np.random.default_rng(seed))
            values = pool.matrix.values
            assert values.shape == expected.shape == (settings.size, 8)
            assert values.tobytes() == expected.tobytes()
            assert pool.matrix is pool.matrix
            for array in (values, pool.credibility, pool.sensationalism, pool.noise):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_pools_compare_and_hash_by_identity(self):
        # two pools of one draw hold equal arrays, which have no truth value
        first, second = (SyntheticPool().realize(np.random.default_rng(4)) for _ in range(2))
        assert first == first and first != second
        assert len({first, second, first}) == 2 and hash(first) == hash(first)
        # the features are still built once, on first read
        assert first.matrix is first.matrix
        assert first.matrix.values.tobytes() == second.matrix.values.tobytes()


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
        marginal = log_dwell_marginal(params, np.zeros(4), np.zeros(4))
        rng = np.random.default_rng(0)
        out = simulate_impressions(np.zeros(10_000), np.zeros(10_000), params, *marginal, rng)
        assert np.all(out["dwell_observed"] == 2.0)
        rate = out["engaged"].mean()
        assert rate == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(10_000))

    def test_sensationalism_dwell_ratio_exact_when_noiseless(self):
        params = GenerativeParams(dwell_noise_sd=0.0, motor_mean=0.0, motor_sd=0.0)
        marginal = log_dwell_marginal(params, np.zeros(2), np.array([0.0, 1.0]))
        rng = np.random.default_rng(0)
        d0 = simulate_impressions(np.array([0.0]), np.array([0.0]), params, *marginal, rng)
        d1 = simulate_impressions(np.array([0.0]), np.array([1.0]), params, *marginal, rng)
        ratio = d1["dwell_attention"][0] / d0["dwell_attention"][0]
        assert ratio == pytest.approx(math.exp(0.038), rel=1e-12)

    def test_engage_rate_matches_closed_form(self):
        _, marginal = default_pool()
        c, s = 0.8, -0.5
        p_closed = float(expected_engagement(PARAMS, np.array([c]), np.array([s]), *marginal)[0])
        rng = np.random.default_rng(42)
        n = 1_000_000
        out = simulate_impressions(np.full(n, c), np.full(n, s), PARAMS, *marginal, rng)
        rate = out["engaged"].mean()
        se = math.sqrt(p_closed * (1 - p_closed) / n)
        assert abs(rate - p_closed) <= 3 * se

    def test_action_count_consistency(self):
        _, marginal = default_pool()
        rng = np.random.default_rng(1)
        out = simulate_impressions(np.zeros(5000), np.zeros(5000), PARAMS, *marginal, rng)
        assert np.all(out["action_count"] == out["shared"].astype(int) + out["liked"].astype(int))
        assert np.all(out["engaged"] == (out["action_count"] >= 1))
        assert np.all(out["dwell_observed"] >= out["dwell_attention"])


class TestSimulateDataset:
    def test_validates_and_has_contiguous_positions(self):
        imps, pool = simulate_session(SimConfig(participants=4, seed=11))
        assert dataset_violations(pool.posts(), imps) == []
        by_pid = {}
        for pid, position in zip(imps.participant_id.tolist(), imps.position):
            by_pid.setdefault(pid, []).append(int(position))
        assert all(sorted(v) == list(range(1, 121)) for v in by_pid.values())

    def test_zero_participants(self):
        imps, pool = simulate_session(SimConfig(participants=0, seed=11))
        assert len(imps) == 0
        assert len(pool.posts()) == 276

    def test_seed_determinism_byte_identical(self, tmp_path):
        a, _ = simulate_session(SimConfig(participants=3, seed=123))
        b, _ = simulate_session(SimConfig(participants=3, seed=123))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_impressions(pa, a)
        save_impressions(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a, _ = simulate_session(SimConfig(participants=2, seed=1))
        b, _ = simulate_session(SimConfig(participants=2, seed=2))
        assert a != b

    def test_feed_composition_stratified(self):
        imps, pool = simulate_session(SimConfig(participants=2, seed=3))
        cats = {p.post_id: p.category for p in pool.posts()}
        by_pid = {}
        for pid, post in zip(imps.participant_id.tolist(), imps.post_id.tolist()):
            by_pid.setdefault(pid, []).append(cats[post])
        for feed_cats in by_pid.values():
            n_news = sum(c in ("true_news", "false_news") for c in feed_cats)
            assert n_news == 90
            assert len(feed_cats) == 120

    def test_engagement_rate_near_expectation(self):
        cfg = SimConfig(participants=50, seed=21)
        imps, pool = simulate_session(cfg)
        p_all = engagement_scores(cfg.params, pool.credibility, pool.sensationalism)
        expected = float(p_all.mean())  # feeds are near-uniform samples of the pool
        rate = np.mean(imps.action_count >= 1)
        se = math.sqrt(expected * (1 - expected) / len(imps))
        assert abs(rate - expected) < max(3 * se, 0.01)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SimConfig(participants=1, seed=-1)

    def test_feed_length_cannot_exceed_pool(self):
        with pytest.raises(ValueError, match="pool size"):
            SimConfig(participants=1, feed_length=300)


class TestRankFeed:
    def test_identical_posts_tie_break_by_id(self):
        pool, _ = default_pool()
        clone = replace(
            pool,
            credibility=np.zeros(pool.size),
            sensationalism=np.zeros(pool.size),
        )
        top = rank_feed("dwell_opt", clone, PARAMS, 5)
        assert top.dtype.kind == "i"
        assert [clone.post_ids[j] for j in top] == sorted(clone.post_ids)[:5]

    def test_chronological_and_random_rows(self):
        pool, _ = default_pool()
        for k in (0, 7, pool.size):
            rows = rank_feed("chronological", pool, PARAMS, k)
            assert rows.dtype.kind == "i" and rows.flags.writeable
            assert np.array_equal(rows, np.arange(k))
        top = rank_feed("random", pool, PARAMS, 7, rng=np.random.default_rng(3))
        assert np.array_equal(top, np.random.default_rng(3).permutation(pool.size)[:7])

    def test_deterministic_policies_at_k_zero_score_nothing(self):
        # an empty pool has no log-dwell marginal: its mean would divide by 0 and warn
        empty = SyntheticPool(0, 0, 0, 0).realize(np.random.default_rng(0))
        for pool in (empty, default_pool()[0]):
            for policy in ("chronological", "dwell_opt", "engage_opt"):
                rows = rank_feed(policy, pool, PARAMS, 0)
                assert rows.shape == (0,) and rows.dtype.kind == "i" and rows.flags.writeable
                assert rows is not rank_feed(policy, pool, PARAMS, 0)

    def test_ties_break_by_id_in_any_row_order(self):
        # rounded credibility and no sensationalism: five score levels, many ties
        pool, _ = default_pool()
        tied = replace(
            pool, credibility=np.round(pool.credibility), sensationalism=np.zeros(pool.size)
        )
        ids = tuple(np.random.default_rng(4).permutation(pool.post_ids).tolist())
        shuffled = replace(tied, post_ids=ids)
        # alternate the two id orders, so a ranking cannot reuse the other's
        scorers = {"dwell_opt": expected_dwell, "engage_opt": engagement_scores}
        for candidate in (shuffled, tied, shuffled):
            names = candidate.post_ids
            for policy, score in scorers.items():
                scores = score(PARAMS, candidate.credibility, candidate.sensationalism)
                expected = np.lexsort((np.array(names), -scores))[:40]
                assert np.array_equal(rank_feed(policy, candidate, PARAMS, 40), expected)

    def test_sign_dissociation_two_posts(self):
        pool, _ = default_pool()
        two = replace(
            pool,
            post_ids=pool.post_ids[:2],
            categories=pool.categories[:2],
            credibility=np.array([0.0, 0.0]),
            sensationalism=np.array([0.0, 1.0]),
            noise=pool.noise[:2],
        )
        # noiseless stage 1 scored against an explicit log-dwell marginal (the
        # marginal of a 2-post noiseless pool is degenerate)
        params = GenerativeParams(dwell_noise_sd=0.0)
        c, s = two.credibility, two.sensationalism
        dwell = expected_dwell(params, c, s)
        engagement = expected_engagement(params, c, s, math.log(2.5), 0.9)
        assert dwell[1] > dwell[0]  # high-s dwells longer
        assert engagement[0] > engagement[1]  # low-s engages more
        assert rank_feed("dwell_opt", two, params, 1).tolist() == [1]

    def test_quadrature_vs_monte_carlo(self):
        pool, (loc, scale) = default_pool()
        params = PARAMS
        idx = np.arange(0, 50)
        c, s = pool.credibility[idx], pool.sensationalism[idx]
        quad = expected_engagement(params, c, s, loc, scale)
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
            z = (logd - loc) / scale

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
        pool, _ = default_pool()
        top = rank_feed("dwell_opt", pool, PARAMS, pool.size)
        lin = (
            PARAMS.dwell_credibility * pool.credibility
            + PARAMS.dwell_sensationalism * pool.sensationalism
        )
        ids = pool.post_ids
        assert top.tolist() == sorted(range(pool.size), key=lambda j: (-lin[j], ids[j]))

    def test_monotone_in_sensationalism_coefficient(self):
        base = GenerativeParams()
        stronger = replace(base, dwell_sensationalism=base.dwell_sensationalism + 0.1)
        s_pos = np.array([0.5, 1.5])
        c = np.zeros(2)
        assert np.all(expected_dwell(stronger, c, s_pos) > expected_dwell(base, c, s_pos))

    def test_random_policy_needs_rng(self):
        pool, _ = default_pool()
        with pytest.raises(ValueError, match="rng"):
            rank_feed("random", pool, PARAMS, 3)

    def test_unknown_policy(self):
        pool, _ = default_pool()
        with pytest.raises(ValueError, match="unknown policy"):
            rank_feed("novelty", pool, PARAMS, 3)


class TestExpectedEngagementQuadrature:
    """The in-place quadrature against the same quadrature with scipy's expit."""

    def test_agrees_with_expit_quadrature(self):
        for seed in range(60):
            pool, marginal = default_pool(seed)
            c, s = pool.credibility, pool.sensationalism
            np.testing.assert_allclose(
                expected_engagement(PARAMS, c, s, *marginal),
                expit_expected_engagement(PARAMS, c, s, *marginal),
                rtol=1e-14,
                atol=0,
            )

    def test_engage_opt_ranking_matches_expit_quadrature(self):
        for seed in range(200):
            pool, _ = default_pool(seed)
            c, s = pool.credibility, pool.sensationalism
            scores = expit_expected_engagement(PARAMS, c, s, *mean_var_marginal(PARAMS, c, s))
            expected = np.lexsort((np.array(pool.post_ids), -scores))
            top = rank_feed("engage_opt", pool, PARAMS, pool.size)
            assert np.array_equal(top, expected), seed

    def test_saturated_logistic_matches_expit_without_warnings(self):
        # the outer rows have no dwell slope and credibility terms of +-1000,
        # so every node is past |eta| = 745; the middle row's dwell slope of
        # 400 spreads its nodes across both signs, past 745 at the ends
        params = GenerativeParams(
            engage_intercept=0.0,
            engage_dwell=400.0,
            engage_credibility=1000.0,
            engage_sensationalism=0.0,
            engage_dwell_sensationalism=400.0,
        )
        c, s = np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, -1.0])
        marginal = (math.log(2.5), 1.0)
        expected = expit_expected_engagement(params, c, s, *marginal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expected_engagement(params, c, s, *marginal)
        assert got[0] == 0.0 and expected[0] == 0.0
        assert got[2] == expected[2] == pytest.approx(1.0, abs=1e-14)
        assert 0.0 < got[1] < 1.0
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    def test_block_rows_match_single_pools(self):
        # a (pools, posts) block with one marginal per pool; pool 2's has no spread
        pools = [default_pool(seed) for seed in range(5)]
        c = np.stack([pool.credibility for pool, _ in pools])
        s = np.stack([pool.sensationalism for pool, _ in pools])
        loc = np.array([[marginal[0]] for _, marginal in pools])
        scale = np.array([[marginal[1]] for _, marginal in pools])
        scale[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = expected_engagement(PARAMS, c, s, loc, scale)
            rows = [
                expected_engagement(PARAMS, c[i], s[i], loc[i, 0], scale[i, 0])
                for i in range(len(pools))
            ]
        assert block.shape == c.shape
        for got, expected in zip(block, rows):
            assert got.tobytes() == expected.tobytes()
        # without spread the dwell noise has no weight (b = 0), so every node
        # gives the logistic of the score's constant part
        a = PARAMS.engage_intercept + PARAMS.engage_credibility * c[2]
        a += PARAMS.engage_sensationalism * s[2]
        np.testing.assert_allclose(block[2], expit(a), rtol=1e-14, atol=0)


class TestPrunedQuadrature:
    """The 42 kept nodes against the full 64-node rule (the ``expit`` oracle)."""

    # the dropped nodes' normalised weight (2.7e-18) bounds the pruning; the
    # relative part covers the logistics' last bits and the summation order
    ATOL, RTOL = 3e-18, 1e-14

    def check(self, params, c, s, loc, scale):
        got = expected_engagement(params, c, s, loc, scale)
        full = expit_expected_engagement(params, c, s, loc, scale)
        np.testing.assert_allclose(got, full, rtol=self.RTOL, atol=self.ATOL)

    def test_the_kept_nodes(self):
        kept = _GH_W / math.sqrt(math.pi) > 1e-17
        assert kept.sum() == _GH_NODES.size == 42
        assert np.array_equal(_GH_NODES, -_GH_NODES[::-1])
        assert (_GH_W[~kept] / math.sqrt(math.pi)).sum() < 2.7e-18

    def test_realized_pools(self):
        for seed in range(30):
            pool, marginal = default_pool(seed)
            self.check(PARAMS, pool.credibility, pool.sensationalism, *marginal)

    def test_noiseless_dwell_and_zero_scale(self):
        pool, (loc, scale) = default_pool(3)
        c, s = pool.credibility, pool.sensationalism
        noiseless = GenerativeParams(dwell_noise_sd=0.0)
        self.check(noiseless, c, s, *log_dwell_marginal(noiseless, c, s))
        self.check(PARAMS, c, s, loc, 0.0)

    def test_steep_dwell_slope(self):
        # a dwell slope of 400 spreads each post's nodes over both signs of
        # eta, saturated in both tails
        c, s = np.linspace(-3, 3, 61), np.linspace(2, -2, 61)
        for intercept in (-60.0, -2.2, 0.0, 60.0):
            steep = GenerativeParams(engage_intercept=intercept, engage_dwell=400.0)
            self.check(steep, c, s, math.log(2.5), 0.9)

    def test_score_held_by_the_dropped_tail(self):
        # at c = s = 0, loc = b0 and scale = noise SD, eta = g0 + g_dwell * node:
        # every kept node's eta is below -46 and the dropped upper tail's above
        # 46, so the full rule's score is that tail's weight, 1.3e-18
        params = GenerativeParams(engage_intercept=-1731.0, engage_dwell=200.0)
        zeros = np.zeros(1)
        marginal = (params.dwell_intercept, params.dwell_noise_sd)
        full = expit_expected_engagement(params, zeros, zeros, *marginal)[0]
        assert 1.3e-18 < full < 1.4e-18
        assert expected_engagement(params, zeros, zeros, *marginal)[0] < 1e-30
        self.check(params, zeros, zeros, *marginal)


class TestEngagementBounds:
    """The bound on each score, and the candidates that engage_opt scores."""

    @given(
        a=st.floats(-40, 40),
        b=st.one_of(st.just(0.0), st.floats(-50, 50)),
    )
    @settings(max_examples=500, deadline=None)
    def test_score_lies_within_the_bound(self, a, b):
        a, b = np.array([a]), np.array([b])
        score = _node_sum(a, b)
        centre, half_width = _engagement_bounds(a, b)
        assert centre - half_width <= score <= centre + half_width

    @given(
        c=st.floats(-5, 5),
        s=st.floats(-5, 5),
        scale=st.sampled_from([0.0, -1.0, -1e-300]),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_spread_is_within_the_bound(self, c, s, scale):
        # without spread the dwell noise has no weight: b is 0, the bound its margin
        c, s = np.array([c]), np.array([s])
        a, b = _logit_terms(PARAMS, c, s, 1.0, scale)
        assert b[0] == 0.0
        centre, half_width = _engagement_bounds(a, b)
        score = expected_engagement(PARAMS, c, s, 1.0, scale)
        assert centre - half_width <= score <= centre + half_width

    @pytest.mark.parametrize("k", [1, 20, 276])
    def test_candidates_score_as_on_the_whole_pool(self, k):
        # a chunk of pools, one marginal each: every candidate's score has the
        # bits of the whole-pool call, and no left-out post reaches the top k
        pools = [default_pool(seed) for seed in range(8)]
        c = np.stack([pool.credibility for pool, _ in pools])
        s = np.stack([pool.sensationalism for pool, _ in pools])
        loc = np.array([[marginal[0]] for _, marginal in pools])
        scale = np.array([[marginal[1]] for _, marginal in pools])
        full = expected_engagement(PARAMS, c, s, loc, scale)
        scores = _top_k_engagement(PARAMS, c, s, loc, scale, k)
        scored = np.isfinite(scores)
        assert np.all(scores[~scored] == -np.inf)
        assert scores[scored].tobytes() == full[scored].tobytes()
        kth = np.sort(full, axis=1)[:, -k, None]
        assert np.all(full[~scored] < np.broadcast_to(kth, full.shape)[~scored])
        if k < 276:
            assert scored.sum() < c.size / 4

    def test_curvature_keeps_a_post_whose_centre_is_low(self):
        # with loc = b0 and scale = noise SD = 1, post 0 has a = -3, b = 0 and
        # post 1 a = -4, b = 3: post 1's centre, W * s(-4) = 0.018, is below
        # post 0's score s(-3) = 0.047, yet its dwell spread lifts it to ~0.13
        params = GenerativeParams(
            dwell_credibility=0.0, dwell_sensationalism=0.0, dwell_noise_sd=1.0,
            engage_intercept=0.0, engage_dwell=0.0, engage_credibility=1.0,
            engage_sensationalism=0.0, engage_dwell_sensationalism=3.0,
        )
        c, s = np.array([-3.0, -4.0]), np.array([0.0, 1.0])
        centre, _ = _engagement_bounds(*_logit_terms(params, c, s, params.dwell_intercept, 1.0))
        full = expected_engagement(params, c, s, params.dwell_intercept, 1.0)
        assert centre[1] < full[0] < full[1]
        scores = _top_k_engagement(params, c, s, params.dwell_intercept, 1.0, 1)
        assert scores.tobytes() == full.tobytes()

    def test_flat_scores_make_every_post_a_candidate(self):
        # equal inputs give equal scores, so every post ties and ranks by id
        params, pool = FLAT_SCORES_CONFIG.params, FLAT_SCORES_CONFIG.pool
        pool = pool.realize(np.random.default_rng(FLAT_SCORES_CONFIG.seed))
        c, s = pool.credibility, pool.sensationalism
        marginal = log_dwell_marginal(params, c, s)
        scores = _top_k_engagement(params, c, s, *marginal, 20)
        assert np.all(scores == scores[0]) and np.isfinite(scores[0])
        by_id = sorted(range(pool.size), key=lambda j: pool.post_ids[j])
        assert rank_feed("engage_opt", pool, params, 20).tolist() == by_id[:20]


class TestLogistic:
    """The one numpy logistic that the simulator and the quadrature use."""

    def test_within_ulps_of_expit(self):
        # both compute 1 / (1 + exp(-x)), with exps that can differ by an ulp; where
        # exp(-x) is in [2**53, 2**54), adding 1 rounds to one of two neighbours 2
        # apart, and there an ulp of exp can become 4 ulps of the logistic
        x = np.linspace(-745.0, 745.0, 1_000_001)
        band = (x > -54 * math.log(2.0)) & (x <= -53 * math.log(2.0))
        np.testing.assert_array_max_ulp(sigmoid(x[~band]), expit(x[~band]), 2)
        np.testing.assert_array_max_ulp(sigmoid(x[band]), expit(x[band]), 4)

    def test_engage_probability_saturates_without_warnings(self):
        params = GenerativeParams(
            engage_intercept=0.0,
            engage_dwell=0.0,
            engage_credibility=1000.0,
            engage_sensationalism=0.0,
            engage_dwell_sensationalism=0.0,
        )
        c = np.array([-1.0, -0.75, 0.0, 0.75, 1.0])  # eta = 1000 c, past |eta| = 745 at the ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = simulate_impressions(c, np.zeros(5), params, 0.0, 1.0, np.random.default_rng(0))
        assert out["p_engage"].tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


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
        """The ``threads`` keyword that the benchmark harness passes changes nothing."""
        cfg = SimConfig(participants=1, seed=31)
        serial = run_policy_experiment(cfg, k=10, replications=12, threads=1)
        threaded = run_policy_experiment(cfg, k=10, replications=12, threads=4)
        assert serial == threaded

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            run_policy_experiment(SimConfig(participants=1, seed=31), k=0, replications=2)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_k_over_pool_size_rejected(self, policy):
        cfg = SimConfig(participants=1, seed=31)
        with pytest.raises(ValueError, match=r"k must be in 1\.\.276"):
            run_policy_experiment(cfg, (policy,), k=cfg.pool.size + 24, replications=2)

    def test_peak_memory_is_bounded(self):
        # the (replications, pool) block is ranked in chunks: ranking the whole
        # block in one call held ~29 MB here (its bounds and gathered candidates)
        tracemalloc.start()
        try:
            run_policy_experiment(SimConfig(participants=1), k=20, replications=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy 'novelty'"):
            run_policy_experiment(SimConfig(participants=1, seed=17), ("dwell_opt", "novelty"), k=5)

    def test_repeated_policy_rejected(self):
        with pytest.raises(ValueError, match=r"more than once: \['random'\]"):
            run_policy_experiment(
                SimConfig(participants=1, seed=17), ("random", "dwell_opt", "random"), k=5
            )

    def test_never_builds_the_pool_features(self, monkeypatch):
        realize, pools = SyntheticPool.realize, []

        def recording_realize(self, rng):
            pools.append(realize(self, rng))
            return pools[-1]

        monkeypatch.setattr(SyntheticPool, "realize", recording_realize)
        run_policy_experiment(SimConfig(participants=1, seed=31), k=10, replications=6)
        assert len(pools) == 6
        assert not any({"values", "matrix"} & vars(pool).keys() for pool in pools)

    def test_outcome_metric_accessor(self):
        cfg = SimConfig(participants=1, seed=31)
        (outcome,) = run_policy_experiment(cfg, ["random"], k=5, replications=3)
        value, se = outcome.metric("engagement_rate")
        assert 0.0 <= value <= 1.0 and se >= 0.0


# a pool too small in news posts for news_per_feed, so feeds are uniform samples
SMALL_POOL = SyntheticPool(n_true_news=5, n_false_news=5, n_opinion=10, n_mundane=10)
SMALL_POOL_CONFIG = SimConfig(
    participants=1, feed_length=20, news_per_feed=16, pool=SMALL_POOL, seed=8
)
DEFAULT_CONFIG = SimConfig(participants=1, seed=17)
# no credibility or sensationalism terms: every post scores the same, so
# every ranking is decided by the post-id tie-break
FLAT_SCORES_CONFIG = SimConfig(
    participants=1,
    params=GenerativeParams(
        dwell_credibility=0.0,
        dwell_sensationalism=0.0,
        engage_credibility=0.0,
        engage_sensationalism=0.0,
        engage_dwell_sensationalism=0.0,
    ),
    seed=19,
)


class TestBatchedSimulatorMatchesPerStreamLoops:
    """The batched simulators against one-stream-at-a-time oracles: exact equality."""

    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(participants=25, seed=3),
            SimConfig(participants=6, feed_length=20, news_per_feed=20, pool=SMALL_POOL, seed=4),
            SimConfig(participants=1, seed=5),
            SimConfig(participants=0, seed=6),
        ],
        ids=["mixed_feeds", "uniform_feeds", "one_participant", "no_participants"],
    )
    def test_session(self, config):
        feeds, dwell, shared, liked = per_participant_session(config)
        imps = simulate_session(config)[0]
        n, length = config.participants, config.feed_length
        assert np.array_equal(imps.post_code.reshape(n, length), feeds)
        assert np.array_equal(imps.participant_code, np.repeat(np.arange(n), length))
        columns = (imps.dwell_raw, imps.shared, imps.liked)
        for column, expected in zip(columns, (dwell, shared, liked)):
            assert column.dtype == expected.dtype
            assert np.array_equal(column.reshape(n, length), expected)

    @pytest.mark.parametrize(
        "config, policies, k, replications, threads",
        [
            (DEFAULT_CONFIG, POLICIES, 20, 30, 1),
            (DEFAULT_CONFIG, POLICIES, 1, 7, 1),
            (DEFAULT_CONFIG, POLICIES, 276, 5, 1),
            (DEFAULT_CONFIG, ("random", "dwell_opt"), 10, 9, 1),
            (DEFAULT_CONFIG, ("dwell_opt", "random"), 10, 9, 1),
            (DEFAULT_CONFIG, ("engage_opt", "chronological", "random"), 15, 6, 1),
            (DEFAULT_CONFIG, ("random", "dwell_opt", "chronological"), 5, 4, 1),
            (DEFAULT_CONFIG, POLICIES, 20, 1, 1),
            (DEFAULT_CONFIG, POLICIES, 20, 11, 2),
            (FLAT_SCORES_CONFIG, POLICIES, 40, 5, 1),
            (SMALL_POOL_CONFIG, POLICIES, SMALL_POOL.size, 3, 1),
            # more than three ranking chunks, the last one partial
            (DEFAULT_CONFIG, POLICIES, 20, 3 * _RANK_CHUNK + 2, 1),
            (DEFAULT_CONFIG, POLICIES, 20, 3 * _RANK_CHUNK + 2, 2),
            (FLAT_SCORES_CONFIG, POLICIES, 40, 3 * _RANK_CHUNK + 2, 1),
        ],
    )
    def test_policy_experiment(self, config, policies, k, replications, threads):
        # threads, which the benchmark harness passes, is accepted and changes nothing
        expected = per_replication_policy_experiment(config, policies, k, replications)
        assert run_policy_experiment(config, policies, k, replications, threads) == expected

    def test_simulate_impressions_keeps_the_draw_order(self):
        _, marginal = default_pool()
        c, s = np.linspace(-2, 2, 50), np.linspace(1, -1, 50)
        out = simulate_impressions(c, s, PARAMS, *marginal, np.random.default_rng(12))
        expected = per_stream_impressions(c, s, PARAMS, *marginal, np.random.default_rng(12))
        engaged, liked, dwell, _ = expected
        assert np.array_equal(out["engaged"], engaged)
        assert np.array_equal(out["liked"], liked)
        assert np.array_equal(out["dwell_observed"], dwell)

    def test_two_stage_matches_the_five_term_logit(self):
        # a + b eps rounds apart from the z-scored five-term logit; over 250k
        # impressions the probabilities agree to 1e-15 and no engagement draw flips
        _, (loc, scale) = default_pool()
        rng = np.random.default_rng(14)
        c, s = 2 * rng.standard_normal((2, 250_000))
        out = simulate_impressions(c, s, PARAMS, loc, scale, np.random.default_rng(15))
        engaged, _, _, p_engage = per_stream_impressions(
            c, s, PARAMS, loc, scale, np.random.default_rng(15)
        )
        np.testing.assert_allclose(out["p_engage"], p_engage, rtol=0, atol=1e-15)
        assert np.array_equal(out["engaged"], engaged)

    def test_two_stage_block_matches_rows_with_per_row_marginals(self):
        # one marginal per row, one of them with scale 0 (z = 0 in that row only)
        params = PARAMS
        rng = np.random.default_rng(13)
        c, s = rng.standard_normal((3, 40)), rng.standard_normal((3, 40))
        variates = np.stack([rng.standard_normal((3, 40)), rng.random((3, 40)),
                             rng.random((3, 40)), rng.standard_normal((3, 40))])
        loc, scale = np.array([[1.0], [0.5], [0.9]]), np.array([[0.8], [0.0], [1.3]])
        block = _two_stage(c, s, params, loc, scale, *variates)
        for r in range(3):
            row = _two_stage(c[r], s[r], params, loc[r, 0], scale[r, 0], *variates[:, r])
            for key, values in row.items():
                assert np.array_equal(block[key][r], values), key
        no_dwell_term = params.engage_intercept + params.engage_credibility * c[1]
        no_dwell_term = no_dwell_term + params.engage_sensationalism * s[1]
        assert np.array_equal(block["p_engage"][1], sigmoid(no_dwell_term))


class TestDescriptiveRefit:
    def test_engagement_footprint_signs(self):
        # the dwell-model engage terms are emergent, not injected: refit the
        # descriptive dwell spec on simulated data and check their signs
        cfg = SimConfig(participants=300, seed=4242)
        imps, pool = simulate_session(cfg)
        res = run_pipeline(imps, ExclusionRules())
        design = build_design(res.impressions, pool_scores(pool), dwell_model_spec())
        fit = fit_design(design, dwell_model_spec())
        assert fit.term("engage").estimate > 0
        assert fit.term("engage:sensationalism").estimate > 0
        assert fit.term("sensationalism").estimate > 0
        assert fit.term("credibility").estimate < 0


def swapped_and_flipped(scores):
    """``scores`` with pc1 and pc2 swapped and every sign flipped."""
    order = [1, 0, *range(2, len(scores.feature_names))]
    return replace(scores, values=-scores.values[:, order])


def score_table(columns):
    """A scores table of the given (posts, components) values, columns pc1..pcK."""
    names = tuple(f"pc{j + 1}" for j in range(columns.shape[1]))
    return FeatureMatrix(tuple(f"post_{i}" for i in range(len(columns))), names, columns)


class TestAlignment:
    def test_alignment_fixes_sign_and_order(self):
        pool, _ = default_pool(pool_seed=9)
        scores = project(fit_feature_pca(pool.matrix), pool.matrix)
        axes = pool.credibility, pool.sensationalism
        straight, straight_meta = align_scores_to_axes(scores, *axes)
        assert (straight_meta["credibility_component"], straight_meta["sensationalism_component"]) == (1, 2)
        aligned, meta = align_scores_to_axes(swapped_and_flipped(scores), *axes)
        assert aligned.post_ids == pool.post_ids
        assert aligned.feature_names == ("pc1", "pc2")
        cred, sens = aligned.values.T
        assert np.corrcoef(cred, pool.credibility)[0, 1] > 0.9
        assert np.corrcoef(sens, pool.sensationalism)[0, 1] > 0.9
        assert meta["credibility_abs_corr"] > 0.9
        assert (meta["credibility_component"], meta["sensationalism_component"]) == (2, 1)
        for axis in ("credibility", "sensationalism"):
            assert meta[f"{axis}_sign"] == -straight_meta[f"{axis}_sign"]
        np.testing.assert_array_equal(aligned.values, straight.values)

    @staticmethod
    def assert_matches_two_branch_oracle(scores, cred, sens):
        aligned, meta = align_scores_to_axes(scores, cred, sens)
        want, want_meta = two_branch_align_scores_to_axes(scores, cred, sens)
        assert np.array_equal(aligned.values, want.values)
        assert (aligned.post_ids, aligned.feature_names) == (want.post_ids, want.feature_names)
        assert meta == want_meta
        return meta

    def test_matches_two_branch_oracle_on_built_cases(self):
        rng = np.random.default_rng(31)
        cred, sens, noise = rng.standard_normal((3, 40))
        pool, _ = default_pool(pool_seed=9)
        scores = project(fit_feature_pca(pool.matrix), pool.matrix)
        meta = self.assert_matches_two_branch_oracle(
            swapped_and_flipped(scores), pool.credibility, pool.sensationalism
        )
        assert (meta["credibility_component"], meta["sensationalism_component"]) == (2, 1)
        # pc1 is the best component for both axes: sensationalism takes its next best, pc3
        both = np.column_stack([cred + sens, cred + 2 * noise, sens + 3 * noise])
        meta = self.assert_matches_two_branch_oracle(score_table(both), cred, sens)
        assert (meta["credibility_component"], meta["sensationalism_component"]) == (1, 3)
        # exact ties: the lowest index wins, and a taken column's twin is next best
        twins = np.column_stack([cred + sens, cred + sens, sens + 3 * noise])
        meta = self.assert_matches_two_branch_oracle(score_table(twins), cred, sens)
        assert (meta["credibility_component"], meta["sensationalism_component"]) == (1, 2)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(4, 30), st.integers(2, 6)),
        both=st.booleans(),
        twin=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_two_branch_oracle(self, seed, shape, both, twin):
        rng = np.random.default_rng(seed)
        n, k = shape
        cred, sens = rng.standard_normal((2, n))
        columns = rng.standard_normal((n, k)) + rng.standard_normal(k) * cred[:, None]
        columns += rng.standard_normal(k) * sens[:, None]
        j, other = rng.choice(k, size=2, replace=False)
        if both:
            columns[:, j] = cred + sens
        if twin:
            columns[:, other] = columns[:, j]
        self.assert_matches_two_branch_oracle(score_table(columns), cred, sens)


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
        imps, pool = simulate_session(cfg)
        rules = ExclusionRules()
        adjusted = run_pipeline(imps, rules)
        raw_rows = raw_dwell_control(adjusted, rules)
        spec = engagement_model_spec()
        scores = pool_scores(pool)
        fit_adj = fit_design(build_design(adjusted.impressions, scores, spec), spec)
        fit_raw = fit_design(build_design(raw_rows, scores, spec), spec)
        assert fit_adj.term("dwell").estimate == pytest.approx(
            fit_raw.term("dwell").estimate, abs=1e-6
        )

    def test_threaded_matches_serial(self):
        """The ``threads`` keyword that the benchmark harness passes changes nothing."""
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
        write_json(tmp_path / "cfg.json", config_to_dict(cfg))
        loaded = load_sim_config(tmp_path / "cfg.json")
        assert loaded == cfg
        # and the loaded config saves the same bytes
        first = (tmp_path / "cfg.json").read_bytes()
        write_json(tmp_path / "cfg.json", config_to_dict(loaded))
        assert (tmp_path / "cfg.json").read_bytes() == first

    def test_unknown_field_rejected(self, tmp_path):
        # a misspelt key used to be ignored, so the run silently used the default
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"participants": 10, "seeds": 5}))
        with pytest.raises(DataFormatError, match="seeds"):
            load_sim_config(path)

    @pytest.mark.parametrize(
        "payload, cls",
        [
            ({"participants": 10, "seeds": 5}, "SimConfig"),
            ({"pool": {"kind": "synthetic", "n_posts": 5}}, "SyntheticPool"),
            ({"params": {"motor": 0.5}}, "GenerativeParams"),
        ],
        ids=["top_level", "pool", "params"],
    )
    def test_unknown_field_names_the_file(self, tmp_path, payload, cls):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not a {cls}: "):
            load_sim_config(path)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GenerativeParams(dwell_intercept=10**400),
            lambda: SyntheticPool(credibility_strength=-(10**400)),
        ],
        ids=["params", "pool"],
    )
    def test_huge_int_rejected_in_code(self, build):
        # a config file's huge integer stops in from_fields; one built in code stops here
        with pytest.raises(ValueError, match="must be finite, got an integer too large for a float"):
            build()

    def test_policies_constant(self):
        assert POLICIES == ("dwell_opt", "engage_opt", "random", "chronological")
