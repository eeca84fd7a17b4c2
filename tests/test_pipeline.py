import json
import math
import re
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedlab import pipeline
from feedlab.data import DataFormatError, FeatureMatrix
from feedlab.features import mean_dwell_by_post
from feedlab.pipeline import (
    ExclusionRules,
    MovementModel,
    ParticipantFit,
    PipelineAudit,
    PipelineOrderError,
    adjust_dwell,
    apply_exclusions_stage1,
    apply_floor,
    fit_movement_model,
    load_movement_model,
    raw_dwell_control,
    run_pipeline,
    save_movement_model,
)
from feedlab.regression import build_design, dwell_model_spec
from feedlab.sim import SimConfig, simulate_session
from conftest import as_table, make_impression, rows_of, simulate_hierarchical_dwell
from oracles import per_moment_movement_em, per_participant_ols, per_row_dwell_pipeline


def full_feed(pid, dwells, actions=None):
    actions = actions or [0] * len(dwells)
    return [
        make_impression(pid, f"post_{i + 1:03d}", i + 1, d, a)
        for i, (d, a) in enumerate(zip(dwells, actions))
    ]


class TestStage1:
    def test_over_cap_removed(self):
        feed = full_feed("p1", [2.0] * 10)
        feed[4] = make_impression("p1", "post_005", 5, 31.0, 0)
        kept, audit = apply_exclusions_stage1(as_table(feed), ExclusionRules())
        assert audit.removed["over_max_dwell"] == 1
        assert (kept.dwell_raw <= 30.0).all()

    def test_edge_positions(self):
        feed = full_feed("p1", [2.0] * 120)
        kept, audit = apply_exclusions_stage1(as_table(feed), ExclusionRules())
        positions = set(kept.position.tolist())
        assert 2 not in positions and 4 in positions
        assert min(positions) == 4 and max(positions) == 117
        assert audit.removed["edge_positions"] == 6

    def test_feed_length_uses_original_positions(self):
        # a capped impression at the end must not shrink the edge window
        feed = full_feed("p1", [2.0] * 9 + [31.0])
        kept, audit = apply_exclusions_stage1(as_table(feed), ExclusionRules())
        assert audit.removed["over_max_dwell"] == 1
        assert set(kept.position.tolist()) == {4, 5, 6, 7}

    def test_short_feed_warns_and_empties(self):
        feed = full_feed("p1", [2.0] * 6)
        with pytest.warns(UserWarning, match="trimmed edges"):
            kept, audit = apply_exclusions_stage1(as_table(feed), ExclusionRules())
        assert len(kept) == 0
        assert audit.retained_count == 0

    def test_empty_input(self):
        kept, audit = apply_exclusions_stage1(as_table([]), ExclusionRules())
        assert len(kept) == 0
        assert audit.input_count == 0 and audit.retained_count == 0

    @given(
        dwells=st.lists(st.floats(0.0, 60.0, allow_nan=False), min_size=8, max_size=40),
    )
    @settings(max_examples=50)
    def test_audit_conservation(self, dwells):
        feed = full_feed("p1", list(dwells))
        kept, audit = apply_exclusions_stage1(as_table(feed), ExclusionRules())
        assert sum(audit.removed.values()) + len(kept) == len(feed)


class TestAdjustAndFloor:
    def _model(self, slope):
        return MovementModel(2.0, slope, 0.0, 0.0, 0.1, {"p1": ParticipantFit(2.0, slope)})

    def test_zero_action_identity_exact(self):
        imps = as_table([make_impression("p1", "a", 1, 4.2, 0)])
        out = adjust_dwell(imps, self._model(1.5))
        assert out.dwell_adjusted.tolist() == [4.2]

    def test_subtraction(self):
        imps = as_table([make_impression("p1", "a", 1, 5.0, 2)])
        out = adjust_dwell(imps, self._model(1.5))
        assert out.dwell_adjusted[0] == pytest.approx(2.0)

    def test_negative_floored_to_zero(self):
        imps = as_table([make_impression("p1", "a", 1, 5.0, 2)])
        out = adjust_dwell(imps, self._model(3.0))
        assert out.dwell_adjusted.tolist() == [0.0]

    def test_matches_per_row_reference_exactly(self):
        imps, _ = simulate_hierarchical_dwell(np.random.default_rng(12), n_participants=20, n_per=40)
        model = fit_movement_model(imps)
        out = adjust_dwell(imps, model)
        for (pid, _, _, dwell, shared, liked, _), adjusted in zip(
            rows_of(imps), out.dwell_adjusted.tolist()
        ):
            a = int(shared) + int(liked)
            expected = dwell if a == 0 else max(0.0, dwell - model.participants[pid].slope * a)
            assert adjusted == expected

    def test_unknown_participant_is_hard_error(self):
        imps = as_table([make_impression("p2", "a", 1, 5.0, 1)])
        with pytest.raises(PipelineOrderError):
            adjust_dwell(imps, self._model(1.5))

    def test_floor_removes_below_threshold(self):
        imps = as_table([
            make_impression("p1", "a", 1, 1.0, 0, adjusted=0.10),
            make_impression("p1", "b", 2, 1.0, 0, adjusted=0.15),
            make_impression("p1", "c", 3, 1.0, 0, adjusted=0.20),
        ])
        kept, audit = apply_floor(imps, ExclusionRules())
        assert kept.post_id.tolist() == ["b", "c"]  # boundary 0.15 kept
        assert audit.removed["below_min_adjusted"] == 1

    def test_clean_input_zero_removals(self):
        imps = as_table([make_impression("p1", "a", 1, 1.0, 0, adjusted=1.0)])
        kept, audit = apply_floor(imps, ExclusionRules())
        assert audit.removed["below_min_adjusted"] == 0
        assert len(kept) == 1


class TestMovementModel:
    def test_noiseless_single_participant_exact(self):
        actions = [0, 1, 2, 0, 1, 2, 0, 0, 1, 2]
        imps = as_table(full_feed("p1", [3.0 + 1.5 * a for a in actions], actions))
        model = fit_movement_model(imps)
        assert model.mu_alpha == pytest.approx(3.0, abs=1e-9)
        assert model.mu_beta == pytest.approx(1.5, abs=1e-9)
        assert model.participants["p1"].slope == pytest.approx(1.5, abs=1e-9)

    def test_zero_engagement_pins_slope(self):
        imps = as_table(full_feed("p1", [2.0, 2.5, 3.0, 2.2, 2.8]))
        with pytest.warns(UserWarning, match="unidentifiable"):
            model = fit_movement_model(imps)
        assert model.mu_beta == 0.0
        assert model.tau_beta == 0.0
        assert all(p.slope == 0.0 for p in model.participants.values())

    def test_constant_nonzero_actions_pin_slope(self):
        # every impression has one action: the slope is unidentifiable, and
        # on balanced data the random-intercept ML mean is the grand mean
        rng = np.random.default_rng(12)
        dwells = 3.0 + rng.standard_normal((8, 15)) + rng.standard_normal((8, 1))
        imps = as_table(
            imp
            for i, row in enumerate(dwells)
            for imp in full_feed(f"p{i}", list(row), [1] * len(row))
        )
        with pytest.warns(UserWarning, match="unidentifiable"):
            model = fit_movement_model(imps)
        assert model.mu_beta == 0.0
        assert model.tau_beta == 0.0
        assert all(p.slope == 0.0 for p in model.participants.values())
        assert model.mu_alpha == pytest.approx(dwells.mean(), rel=1e-12)
        assert model.tau_alpha > 0.0

    def test_iteration_cap_warns(self, monkeypatch):
        rng = np.random.default_rng(9)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=30, n_per=40)
        monkeypatch.setattr(pipeline, "EM_MAX_ITER", 2)
        with pytest.warns(UserWarning, match="EM_MAX_ITER=2"):
            model = fit_movement_model(imps)
        assert model.iterations == 2

    @staticmethod
    def _fit_both(imps, max_iter):
        """The library fit and the per-moment oracle, with each one's warnings."""
        fits, messages = [], []
        for fit in (fit_movement_model, lambda t: per_moment_movement_em(t, max_iter)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fits.append(fit(imps))
            messages.append([str(w.message) for w in caught])
        return fits, messages

    @staticmethod
    def _assert_same_fit(model, want):
        """Equal iteration counts and participants, every float within 1e-12
        relative: the library sums over participants from population totals,
        the oracle term by term, so the two round differently."""
        assert model.iterations == want.iterations
        assert list(model.participants) == list(want.participants)
        fields = ("mu_alpha", "mu_beta", "tau_alpha", "tau_beta", "sigma_eps", "log_likelihood")
        np.testing.assert_allclose(
            [getattr(model, f) for f in fields], [getattr(want, f) for f in fields], rtol=1e-12
        )
        np.testing.assert_allclose(
            [astuple(p) for p in model.participants.values()],
            [astuple(p) for p in want.participants.values()],
            rtol=1e-12,
        )

    # participant counts on both sides of numpy's pairwise-sum blocks (8, 128)
    @pytest.mark.parametrize("participants", [1, 2, 7, 8, 9, 127, 128, 129, 600])
    def test_block_em_equals_per_moment_oracle(self, participants):
        rng = np.random.default_rng(participants)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=participants, n_per=30)
        (model, want), (got_warned, want_warned) = self._fit_both(imps, pipeline.EM_MAX_ITER)
        self._assert_same_fit(model, want)
        assert got_warned == want_warned

    def test_block_em_equals_oracle_on_simulated_study(self):
        # the simulator's stage-1 table takes the EM hundreds of iterations;
        # 600x120 (~67k impressions) is the acceptance scale
        for participants, seed in ((40, 42), (600, 0)):
            config = SimConfig(participants, feed_length=120, news_per_feed=90, seed=seed)
            stage1, _ = apply_exclusions_stage1(simulate_session(config)[0], ExclusionRules())
            (model, want), (got_warned, want_warned) = self._fit_both(stage1, pipeline.EM_MAX_ITER)
            self._assert_same_fit(model, want)
            assert model.iterations > 100
            assert got_warned == want_warned == []

    def test_block_em_equals_oracle_with_pinned_slope(self):
        rng = np.random.default_rng(12)
        dwells = 3.0 + rng.standard_normal((8, 15)) + rng.standard_normal((8, 1))
        imps = as_table(
            imp
            for i, row in enumerate(dwells)
            for imp in full_feed(f"p{i}", list(row), [1] * len(row))
        )
        (model, want), (got_warned, want_warned) = self._fit_both(imps, pipeline.EM_MAX_ITER)
        self._assert_same_fit(model, want)
        assert model.mu_beta == 0.0
        assert got_warned == want_warned and "unidentifiable" in got_warned[0]

    def test_block_em_equals_oracle_at_iteration_cap(self, monkeypatch):
        rng = np.random.default_rng(9)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=30, n_per=40)
        monkeypatch.setattr(pipeline, "EM_MAX_ITER", 2)
        (model, want), (got_warned, want_warned) = self._fit_both(imps, 2)
        self._assert_same_fit(model, want)
        assert model.iterations == 2
        assert got_warned == want_warned and "EM_MAX_ITER=2" in got_warned[0]

    def test_recovery_and_shrinkage_beats_no_pooling(self):
        rng = np.random.default_rng(314)
        imps, true_slopes = simulate_hierarchical_dwell(rng, n_participants=120, n_per=80)
        model = fit_movement_model(imps)
        assert model.mu_beta == pytest.approx(1.2, rel=0.10)
        oracle = per_participant_ols(imps)
        em_rmse = np.sqrt(
            np.mean([(model.participants[p].slope - t) ** 2 for p, t in true_slopes.items()])
        )
        np_rmse = np.sqrt(
            np.mean([(oracle[p][1] - true_slopes[p]) ** 2 for p in oracle])
        )
        assert em_rmse < np_rmse

    def test_shrinkage_contracts_in_design_metric(self):
        # the posterior deviation is a contraction of the no-pooling deviation
        # in the per-participant design metric; componentwise betweenness can
        # overshoot slightly when intercept and slope information correlate
        rng = np.random.default_rng(2718)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=80, n_per=60)
        model = fit_movement_model(imps)
        oracle = per_participant_ols(imps)
        n_between = 0
        n_defined = 0
        for pid, (a0, b0) in oracle.items():
            a = imps.action_count[imps.participant_id == pid].astype(float)
            X = np.column_stack([np.ones_like(a), a])
            H = X.T @ X
            d = np.array([a0 - model.mu_alpha, b0 - model.mu_beta])
            m = np.array(
                [
                    model.participants[pid].intercept - model.mu_alpha,
                    model.participants[pid].slope - model.mu_beta,
                ]
            )
            assert m @ H @ m <= d @ H @ d + 1e-9
            n_defined += 1
            lo, hi = sorted([b0, model.mu_beta])
            if lo - 1e-9 <= model.participants[pid].slope <= hi + 1e-9:
                n_between += 1
        assert n_defined > 50
        assert n_between / n_defined >= 0.9

    def test_rmse_decreases_with_more_data(self):
        rmses = []
        for n_per in (10, 50, 200):
            rng = np.random.default_rng(55)  # same participants, longer feeds
            imps, true_slopes = simulate_hierarchical_dwell(
                rng, n_participants=60, n_per=n_per
            )
            model = fit_movement_model(imps)
            rmses.append(
                np.sqrt(
                    np.mean(
                        [(model.participants[p].slope - t) ** 2 for p, t in true_slopes.items()]
                    )
                )
            )
        assert rmses[0] > rmses[1] > rmses[2]

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(9)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=30, n_per=40)
        m1 = fit_movement_model(imps)
        m2 = fit_movement_model(as_table(rows_of(imps)))
        assert m1 == m2

    def test_requires_input(self):
        with pytest.raises(ValueError):
            fit_movement_model(as_table([]))

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=5, n_per=20)
        model = fit_movement_model(imps)
        path = tmp_path / "movement_model.json"
        save_movement_model(path, model)
        loaded = load_movement_model(path)
        assert loaded == model

    def test_unknown_field_names_the_file(self, tmp_path):
        rng = np.random.default_rng(10)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=5, n_per=20)
        path = tmp_path / "movement_model.json"
        save_movement_model(path, fit_movement_model(imps))
        path.write_text(json.dumps(dict(json.loads(path.read_text()), extra=1)))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not a MovementModel"):
            load_movement_model(path)

    # a saved model: odd floats, an integer slope and the default NaN log-likelihood
    MODEL = MovementModel(
        0.1 + 0.2, 1.2345678901234567, 1e-300, 0.0, 2.5,
        {"p0": ParticipantFit(-0.5, 3), "p1": ParticipantFit(1e22, 0.7)},
    )

    def test_save_load_save_is_byte_identical(self, tmp_path):
        path = tmp_path / "movement_model.json"
        save_movement_model(path, self.MODEL)
        first = path.read_bytes()
        save_movement_model(path, load_movement_model(path))
        assert path.read_bytes() == first

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("participants"), "not a MovementModel: "),
            (
                lambda d: d.update(participants=[1.0, 2.0]),
                "the movement model field participants must be a JSON object, got list",
            ),
            (
                lambda d: d["participants"]["p0"].pop("slope"),
                "participant 'p0': not a ParticipantFit: ",
            ),
            (
                lambda d: d["participants"]["p0"].update(slope=None),
                "participant 'p0': the participant field slope must be float, got None",
            ),
            (
                lambda d: d["participants"]["p0"].update(slope=10**400),
                "participant 'p0': the participant field slope must be float, "
                "got an integer too large for a float",
            ),
            (
                lambda d: d.update(mu_alpha="x"),
                "the movement model field mu_alpha must be float, got 'x'",
            ),
            (
                lambda d: d.update(iterations=True),
                "the movement model field iterations must be int, got True",
            ),
            (None, "the movement model must be a JSON object, got list"),
        ],
        ids=["no_participants", "participants_list", "no_slope", "null_slope", "huge_int_slope",
             "text_mu_alpha", "bool_iterations", "top_level_list"],
    )
    def test_malformed_file_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "movement_model.json"
        save_movement_model(path, self.MODEL)
        payload = json.loads(path.read_text())
        if edit is None:
            payload = [payload]
        else:
            edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_movement_model(path)


class TestRunPipeline:
    def test_fixture_audit_counts_exact(self, pipeline_fixture_10):
        result = run_pipeline(pipeline_fixture_10, ExclusionRules())
        assert result.audit.input_count == 10
        assert result.audit.removed == {
            "over_max_dwell": 1,
            "edge_positions": 6,
            "below_min_adjusted": 1,
        }
        assert result.audit.retained_count == 2
        kept = result.impressions
        by_pos = dict(zip(kept.position.tolist(), kept.dwell_adjusted.tolist()))
        assert by_pos[4] == 2.0  # zero-action identity, exact
        # post-fit slope equals the pooled least-squares slope of the three
        # stage-1 survivors (single participant, EM fixed point)
        assert by_pos[7] == pytest.approx(5.0 - 2 * 1.975, abs=1e-9)

    def test_empty_dataset(self):
        result = run_pipeline(as_table([]), ExclusionRules())
        assert len(result.impressions) == 0
        assert result.audit.input_count == 0
        assert result.model.participants == {}

    def test_audit_conservation_end_to_end(self):
        rng = np.random.default_rng(77)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=10, n_per=30)
        result = run_pipeline(imps, ExclusionRules())
        assert (
            sum(result.audit.removed.values()) + result.audit.retained_count
            == result.audit.input_count
        )

    def test_raw_dwell_control(self, pipeline_fixture_10):
        # stage 1 keeps positions 4, 6 and 7; the floor drops 6 (0.10 s raw)
        rules = ExclusionRules()
        kept = raw_dwell_control(run_pipeline(pipeline_fixture_10, rules), rules)
        assert kept.position.tolist() == [4, 7]
        assert kept.dwell_adjusted.tolist() == [2.0, 5.0]
        # the rows of stage 1 whose raw dwell reaches the floor, raw dwell as adjusted
        rng = np.random.default_rng(78)
        imps, _ = simulate_hierarchical_dwell(rng, n_participants=10, n_per=30)
        rules = ExclusionRules(min_adjusted_dwell=3.0)
        stage1, _ = apply_exclusions_stage1(imps, rules)
        expected = stage1[stage1.dwell_raw >= rules.min_adjusted_dwell]
        result = run_pipeline(imps, rules)
        assert result.stage1 == stage1
        kept = raw_dwell_control(result, rules)
        assert 0 < len(kept) < len(stage1)
        assert kept == replace(expected, dwell_adjusted=expected.dwell_raw)

    def test_rules_validation(self):
        with pytest.raises(ValueError):
            ExclusionRules(max_dwell=-1)
        with pytest.raises(ValueError):
            ExclusionRules(edge_trim=0)

    @pytest.mark.parametrize("field", ["max_dwell", "edge_trim", "min_adjusted_dwell"])
    def test_nan_threshold_is_named(self, field):
        # nan <= 0 is False, so a sign test alone would let NaN through
        with pytest.raises(ValueError, match=f"exclusion rule {field} must be positive, got nan"):
            ExclusionRules(**{field: float("nan")})

    def test_infinite_max_dwell_is_a_rule(self):
        assert ExclusionRules(max_dwell=math.inf).max_dwell == math.inf

    def test_audit_must_conserve(self):
        with pytest.raises(ValueError, match="conserve"):
            PipelineAudit(10, {"a": 3}, 5)


def _dropping_feeds():
    """p1 and p4 keep rows through stage 1; p2's feed is all edges, p3's all
    over the cap, and the floor removes every stage-1 row of p4. Posts
    ``x_*`` appear only in rows that stage 1 or the floor drops."""
    rng = np.random.default_rng(3)
    p1 = [
        make_impression("p1", f"post_{i:02d}", i, float(d), int(a))
        for i, d, a in zip(range(1, 21), rng.uniform(1.0, 6.0, 20), rng.integers(0, 3, 20))
    ]
    p2 = [make_impression("p2", f"x_{i}", i, 2.0, 1) for i in range(1, 7)]
    p3 = [make_impression("p3", f"x_{i}", i, 31.0 + i, 0) for i in range(1, 11)]
    p4 = [make_impression("p4", f"x_{i}", i, 0.1, 0) for i in range(1, 11)]
    return p4 + p1 + p3 + p2


@pytest.mark.filterwarnings("ignore:movement-time EM stopped")  # tiny fixtures stop at the cap
class TestWholeParticipantDropped:
    def test_model_adjustment_and_audit_match_per_row_oracle(self):
        rows = as_table(_dropping_feeds())
        rules = ExclusionRules()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_pipeline(rows, rules)
            stage1, _ = apply_exclusions_stage1(rows, rules)
        short = [str(w.message) for w in caught if "trimmed edges" in str(w.message)]
        assert len(short) == 2 and all(m.endswith(": p2") for m in short)
        pids, adjusted, removed = per_row_dwell_pipeline(
            rows, rules, lambda pid: result.model.participants[pid].slope
        )
        assert pids == ["p1", "p4"]
        assert list(result.model.participants) == pids
        assert adjust_dwell(stage1, result.model).dwell_adjusted.tolist() == adjusted
        assert result.audit.removed == removed
        assert result.audit.retained_count == len(result.impressions) == 14

        cleaned = result.impressions
        assert cleaned.groups("participant")[0].tolist() == ["p1"]
        # posts without scores are fine once no row of theirs is left
        posts = sorted(set(cleaned.post_id.tolist()))
        scores = FeatureMatrix(
            tuple(posts), ("pc1", "pc2"), [[float(i), float(i % 3)] for i in range(len(posts))]
        )
        assert sorted(mean_dwell_by_post(cleaned)) == posts
        assert build_design(cleaned, scores, dwell_model_spec()).n == 14

    def test_ids_without_rows_do_not_warn_or_fit(self):
        table = as_table(_dropping_feeds())
        kept = table[np.isin(table.participant_id, ["p1", "p4"])]
        assert len(kept.participant_vocab) == 4  # a selection keeps the vocabulary
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            stage1, audit = apply_exclusions_stage1(kept, ExclusionRules())
        assert audit.removed == {"over_max_dwell": 0, "edge_positions": 12}
        model = fit_movement_model(stage1)
        assert list(model.participants) == ["p1", "p4"]
        # the same bits as on a table holding only the selected ids
        fresh = as_table(rows_of(stage1))
        assert len(fresh.participant_vocab) == 2 and len(fresh.post_vocab) < len(stage1.post_vocab)
        assert fit_movement_model(fresh) == model
        assert adjust_dwell(fresh, model) == adjust_dwell(stage1, model)

    def test_group_order_is_code_point_order(self):
        # by code point, as np.unique sorts: upper case first ("P1" < "p1"),
        # "p10" before "p9", and the non-ASCII "é" last
        ids = ["p9", "é", "p10", "P1", "p1"]
        rng = np.random.default_rng(8)
        rows = [
            make_impression(pid, f"post_{k:02d}", k, float(d), int(a))
            for pid in ids
            for k, d, a in zip(range(1, 16), rng.uniform(1, 6, 15), rng.integers(0, 3, 15))
        ]
        table = as_table(rows)
        order = np.unique(np.array(ids)).tolist()
        assert table.participant_vocab.tolist() == order == ["P1", "p1", "p10", "p9", "é"]
        assert table.groups("participant")[0].tolist() == order
        model = fit_movement_model(table)
        assert list(model.participants) == order
        # a wider vocabulary, its extra ids sorting between the table's, gives the same bits
        extra = [make_impression(pid, "post_99", 1, 2.0) for pid in ("P0", "p05", "p99", "z")]
        wide = as_table(rows + extra)
        assert len(wide.participant_vocab) == 9
        assert fit_movement_model(wide[: len(rows)]) == model
