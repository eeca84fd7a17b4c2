import ctypes
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from feedlab import sim
from feedlab.data import FeatureMatrix
from feedlab.features import fit_feature_pca, project
from feedlab.pipeline import run_pipeline
from feedlab.regression import (
    _ROW_BLOCK,
    _check_rank,
    _r_factor,
    DesignSpec,
    build_design,
    dwell_model_spec,
    engagement_model_spec,
    fit_design,
    fit_logistic,
    fit_ols,
    load_fit,
    render_fit_table,
    save_fit,
)
from conftest import as_table, make_impression
from oracles import grid_search_logistic_mle, logaddexp_irls, normal_equations_ols, q_residual_ols


def step_halving_data():
    rng = np.random.default_rng(26)
    n = 200
    X = np.column_stack([np.ones(n), 10.0 * rng.standard_normal(n)])
    eta = X @ np.array([0.5, 2.0])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return X, y


def separated_data():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    return np.column_stack([np.ones(6), x]), (x > 0).astype(float)


def scores_for(post_ids, cred=0.5, sens=-0.25):
    return FeatureMatrix(tuple(post_ids), ("pc1", "pc2"), [[cred, sens]] * len(post_ids))


class TestDesignSpec:
    def test_interaction_must_reference_main_effect(self):
        with pytest.raises(ValueError, match="undeclared"):
            DesignSpec(
                response="log_dwell",
                predictors=("credibility",),
                interactions=(("engage", "credibility"),),
            )

    def test_unknown_response(self):
        with pytest.raises(ValueError, match="response"):
            DesignSpec(response="clicks", predictors=("engage",))

    def test_standard_specs(self):
        assert dwell_model_spec().column_names() == (
            "intercept",
            "engage",
            "credibility",
            "sensationalism",
            "engage:credibility",
            "engage:sensationalism",
        )
        assert engagement_model_spec().column_names() == (
            "intercept",
            "dwell",
            "credibility",
            "sensationalism",
            "dwell:credibility",
            "dwell:sensationalism",
        )


class TestBuildDesign:
    def test_engage_coding(self):
        imps = as_table([
            make_impression("p1", "a", 1, 3.0, actions=1, adjusted=2.0),
            make_impression("p1", "b", 2, 3.0, actions=0, adjusted=2.0),
        ])
        d = build_design(imps, scores_for(["a", "b"]), dwell_model_spec())
        engage = d.X[:, d.columns.index("engage")]
        assert engage[0] == 0.5 and engage[1] == -0.5

    def test_dwell_zscore_arithmetic(self):
        # adjusted dwells e^0, e^2: log-dwell mean 1, SD sqrt(2);
        # the e^2 row's z-scored dwell predictor is 1/sqrt(2)... use three
        # rows engineered for mean 1, SD 1: logs (0, 1, 2)
        imps = as_table([
            make_impression("p1", "a", 1, 3.0, adjusted=1.0),
            make_impression("p1", "b", 2, 3.0, adjusted=math.e),
            make_impression("p1", "c", 3, 3.0, adjusted=math.e**2),
        ])
        d = build_design(imps, scores_for(["a", "b", "c"]), engagement_model_spec())
        zs = d.X[:, d.columns.index("dwell")]
        assert d.centering["log_dwell_mean"] == pytest.approx(1.0)
        assert zs[2] == pytest.approx((2.0 - 1.0) / d.centering["log_dwell_sd"])

    def test_six_row_fixture_matches_hand_matrix(self):
        scores = FeatureMatrix(("a", "b"), ("pc1", "pc2"), [[1.0, -1.0], [0.0, 2.0]])
        imps = as_table([
            make_impression("p1", "a", 1, 3.0, actions=0, adjusted=1.0),
            make_impression("p1", "b", 2, 3.0, actions=1, adjusted=2.0),
            make_impression("p1", "a", 3, 3.0, actions=2, adjusted=4.0),
            make_impression("p2", "b", 1, 3.0, actions=0, adjusted=1.0),
            make_impression("p2", "a", 2, 3.0, actions=0, adjusted=0.5),
            make_impression("p2", "b", 3, 3.0, actions=1, adjusted=8.0),
        ])
        d = build_design(imps, scores, dwell_model_spec())
        eng = np.array([-0.5, 0.5, 0.5, -0.5, -0.5, 0.5])
        cred = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        sens = np.array([-1.0, 2.0, -1.0, 2.0, -1.0, 2.0])
        expected = np.column_stack(
            [np.ones(6), eng, cred, sens, eng * cred, eng * sens]
        )
        assert np.allclose(d.X, expected, atol=0)
        assert d.X.flags.f_contiguous
        assert np.allclose(d.y, np.log([1.0, 2.0, 4.0, 1.0, 0.5, 8.0]), atol=1e-15)

    @pytest.mark.parametrize(
        "spec, hand_columns",
        [
            (sim.STAGE1_RECOVERY_SPEC, lambda e, c, s: [c, s]),
            (
                DesignSpec(
                    response="log_dwell",
                    predictors=("sensationalism", "engage", "credibility"),
                    interactions=(("credibility", "engage"),),
                ),
                lambda e, c, s: [s, e, c, c * e],
            ),
        ],
        ids=["stage1_recovery", "reordered"],
    )
    def test_columns_follow_the_spec_order(self, spec, hand_columns):
        scores = FeatureMatrix(
            ("a", "b", "c"), ("pc1", "pc2"), [[1.0, -1.0], [0.0, 2.0], [-3.0, 0.5]]
        )
        imps = as_table([
            make_impression("p1", "a", 1, 3.0, actions=0, adjusted=1.0),
            make_impression("p1", "b", 2, 3.0, actions=1, adjusted=2.0),
            make_impression("p2", "c", 1, 3.0, actions=2, adjusted=4.0),
            make_impression("p2", "a", 2, 3.0, actions=0, adjusted=0.5),
        ])
        d = build_design(imps, scores, spec)
        eng = np.array([-0.5, 0.5, 0.5, -0.5])
        cred = np.array([1.0, 0.0, -3.0, 1.0])
        sens = np.array([-1.0, 2.0, 0.5, -1.0])
        assert d.columns == spec.column_names()
        assert np.array_equal(d.X, np.column_stack([np.ones(4), *hand_columns(eng, cred, sens)]))

    def test_missing_scores_listed(self):
        imps = as_table([make_impression("p1", "ghost", 1, 3.0, adjusted=2.0)])
        with pytest.raises(ValueError, match="ghost"):
            build_design(imps, scores_for(["a"]), dwell_model_spec())

    def test_scores_need_pc1_and_pc2_first(self):
        # a one-component scores.csv with mean_dwell loads as (pc1, mean_dwell)
        imps = as_table([make_impression("p1", "a", 1, 3.0, adjusted=2.0)])
        scores = FeatureMatrix(("a",), ("pc1", "mean_dwell"), [[0.5, 2.0]])
        with pytest.raises(ValueError, match=r"pc1 and pc2 .*'mean_dwell'"):
            build_design(imps, scores, dwell_model_spec())

    def test_requires_adjusted_dwell(self):
        imps = as_table([make_impression("p1", "a", 1, 3.0)])
        with pytest.raises(ValueError, match="pipeline"):
            build_design(imps, scores_for(["a"]), dwell_model_spec())


class TestFitOls:
    def test_exact_line(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x])
        fit = fit_ols(X, 2.0 * x, ["intercept", "x"])
        assert fit.term("x").estimate == pytest.approx(2.0, abs=1e-12)
        assert fit.metadata["r_squared"] == pytest.approx(1.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(300), rng.standard_normal((300, 4))])
        beta = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ beta + rng.standard_normal(300)
        fit = fit_ols(X, y, ["intercept", "a", "b", "c", "d"])
        oracle = normal_equations_ols(X, y)
        for j, t in enumerate(fit.terms):
            assert t.estimate == pytest.approx(oracle[j], rel=1e-9)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(22)
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
        y = rng.standard_normal(200)
        fit = fit_ols(X, y, ["intercept", "a", "b", "c"])
        beta = np.array([t.estimate for t in fit.terms])
        resid = y - X @ beta
        assert np.max(np.abs(X.T @ resid)) < 1e-8 * len(y)

    def test_pure_noise_estimates_bounded(self):
        rng = np.random.default_rng(23)
        n = 100_000
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = rng.standard_normal(n)
        fit = fit_ols(X, y, ["intercept", "a", "b"])
        for t in fit.terms[1:]:
            assert abs(t.estimate) < 4 * t.se

    def test_rank_deficiency_names_columns(self):
        X = np.column_stack([np.ones(20), np.ones(20)])
        with pytest.raises(ValueError, match="collinear"):
            fit_ols(X, np.arange(20.0), ["intercept", "constant_copy"])

    def test_coding_shift_moves_only_intercept(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal(500)
        X1 = np.column_stack([np.ones(500), x])
        X2 = np.column_stack([np.ones(500), x + 10.0])
        y = 1.0 + 0.5 * x + rng.standard_normal(500)
        f1 = fit_ols(X1, y, ["intercept", "x"])
        f2 = fit_ols(X2, y, ["intercept", "x"])
        assert f1.term("x").estimate == pytest.approx(f2.term("x").estimate, abs=1e-8)
        assert f1.term("intercept").estimate != pytest.approx(
            f2.term("intercept").estimate, abs=1e-3
        )


class TestFitLogistic:
    def test_balanced_symmetric_near_zero(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0] * 5)
        y = np.array([0, 1, 0, 1] * 5, dtype=float)
        X = np.column_stack([np.ones_like(x), x])
        fit = fit_logistic(X, y, ["intercept", "x"])
        assert abs(fit.term("intercept").estimate) < 1e-6
        assert abs(fit.term("x").estimate) < 0.5

    def test_grid_search_oracle_12_rows(self):
        # frozen oracle: exhaustive 1e-3 grid over [-5,5]^2 -> (-0.143, 0.716)
        x = np.array([-2.0, -1.6, -1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4])
        y = np.array([0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1], dtype=float)
        X = np.column_stack([np.ones(12), x])
        b0, b1 = grid_search_logistic_mle(x, y)
        assert b0 == pytest.approx(-0.143, abs=1e-9)
        assert b1 == pytest.approx(0.716, abs=1e-9)
        fit = fit_logistic(X, y, ["intercept", "x"])
        assert fit.term("intercept").estimate == pytest.approx(b0, abs=2e-3)
        assert fit.term("x").estimate == pytest.approx(b1, abs=2e-3)
        assert fit.metadata["converged"]

    def test_score_equations_hold_at_optimum(self):
        rng = np.random.default_rng(25)
        n = 5000
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        eta = X @ np.array([-1.0, 0.8, -0.3])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_logistic(X, y, ["intercept", "a", "b"])
        beta = np.array([t.estimate for t in fit.terms])
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        assert np.max(np.abs(X.T @ (y - p))) < 1e-6

    def test_deviance_non_increasing(self):
        # step-halving accepts only non-increasing deviance; re-fit a hard
        # case and confirm the recorded deviance is a true optimum value
        X, y = step_halving_data()
        fit = fit_logistic(X, y, ["intercept", "x"])
        beta = np.array([t.estimate for t in fit.terms])
        eta_hat = X @ beta
        dev_hat = float(2.0 * np.sum(np.logaddexp(0.0, eta_hat) - y * eta_hat))
        assert fit.metadata["deviance"] == pytest.approx(dev_hat, rel=1e-12)

    def test_separation_warning(self):
        X, y = separated_data()
        fit = fit_logistic(X, y, ["intercept", "x"])
        assert fit.warnings
        assert "separation" in " ".join(fit.warnings)

    @pytest.mark.parametrize("n", [3, 6])
    def test_needs_more_rows_than_columns(self, n):
        # with n < k the R factor has only n pivots, so the rank check alone passes
        X = np.column_stack([np.ones(n), np.random.default_rng(n).standard_normal((n, 5))])
        y = (np.arange(n) % 2).astype(float)
        with pytest.raises(ValueError, match=rf"need n > k for logistic inference \(n={n}, k=6\)"):
            fit_logistic(X, y, ["intercept", "a", "b", "c", "d", "e"])

    def test_binary_response_required(self):
        X = np.ones((5, 1))
        with pytest.raises(ValueError, match="binary"):
            fit_logistic(X, np.array([0.0, 0.5, 1.0, 0.0, 1.0]), ["intercept"])

    def test_coding_shift_moves_only_intercept(self):
        rng = np.random.default_rng(27)
        n = 4000
        x = rng.standard_normal(n)
        eta = -0.5 + 0.7 * x
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        f1 = fit_logistic(np.column_stack([np.ones(n), x]), y, ["intercept", "x"])
        f2 = fit_logistic(np.column_stack([np.ones(n), x + 5.0]), y, ["intercept", "x"])
        assert f1.term("x").estimate == pytest.approx(f2.term("x").estimate, abs=1e-8)


def walkthrough_design(spec):
    """The design for ``spec`` of a simulated study at the walkthrough's size and seed."""
    config = sim.SimConfig(participants=40, feed_length=120, news_per_feed=90, seed=42)
    impressions, pool = sim.simulate_session(config)
    cleaned = run_pipeline(impressions).impressions
    scores = project(fit_feature_pca(pool.matrix), pool.matrix)
    aligned, _ = sim.align_scores_to_axes(scores, pool.credibility, pool.sensationalism)
    design = build_design(cleaned, aligned, spec)
    assert design.X.flags.f_contiguous
    return design.X, design.y, design.columns


def walkthrough_engagement_design():
    return walkthrough_design(engagement_model_spec())


def logistic_rows(n):
    rng = np.random.default_rng(n)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    eta = X @ np.array([-0.5, 0.8, -0.3, 0.2])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return X, y, ("intercept", "a", "b", "c")


def ols_rows(n):
    # columns on scales 1e-1 to 1e3; the signal is of the noise's size, so the
    # oracle's residual pass loses no digits to cancellation
    rng = np.random.default_rng(n)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 5)) * [1.0, 10.0, 0.1, 1e3, 1.0]])
    y = X @ np.array([0.3, -1.0, 0.05, 2.0, 1e-3, 0.7]) + rng.standard_normal(n)
    return X, y, ("intercept", "a", "b", "c", "d", "e")


def large_eta_data():
    # two far points on the fitted side put |eta| past 750, where exp(eta) overflows
    rng = np.random.default_rng(29)
    x = rng.standard_normal(300)
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(0.5 + x)))).astype(float)
    x, y = np.append(x, [800.0, -900.0]), np.append(y, [1.0, 0.0])
    return np.column_stack([np.ones(302), x]), y, ("intercept", "x")


class TestFitLogisticMatchesLogaddexpOracle:
    """fit_logistic's deviance form, Fortran-ordered buffers, blocked rank
    check and information summed per row block change only rounding: estimates, SEs and deviance agree with the
    C-ordered ``logaddexp`` IRLS to 1e-12, with the same iterations,
    convergence and warnings. An estimate is compared relative to the largest
    one, since the separated fit's intercept is zero up to rounding."""

    @pytest.mark.parametrize(
        "data",
        [
            walkthrough_engagement_design,
            lambda: (*step_halving_data(), ("intercept", "x")),
            lambda: (*separated_data(), ("intercept", "x")),
            large_eta_data,
            *(lambda n=n: logistic_rows(n)
              for n in (_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1)),
        ],
        ids=["walkthrough", "step_halving", "separation", "large_eta",
             "n4095", "n4096", "n4097", "n8193"],
    )
    def test_agrees(self, data):
        X, y, columns = data()
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            fit = fit_logistic(X, y, columns)
            want = logaddexp_irls(X, y)
        got = np.array([[t.estimate, t.se] for t in fit.terms])
        scale = np.max(np.abs(want["beta"]))
        np.testing.assert_allclose(got[:, 0], want["beta"], rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(got[:, 1], want["se"], rtol=1e-12, atol=0)
        assert fit.metadata["deviance"] == pytest.approx(want["deviance"], rel=1e-12)
        assert fit.metadata["iterations"] == want["iterations"]
        assert fit.metadata["converged"] == want["converged"]
        assert fit.warnings == want["warnings"]


class TestFitOlsMatchesQOracle:
    """fit_ols takes beta, Q'y and the residual norm from the blocked R of
    [X | y]; against the full-Q fit with a residual pass, estimates (relative
    to the largest), SEs, r_squared and residual_sd agree to 1e-12."""

    @pytest.mark.parametrize(
        "data",
        [
            *(lambda n=n: ols_rows(n)
              for n in (7, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5)),
            lambda: walkthrough_design(dwell_model_spec()),
            lambda: walkthrough_design(sim.STAGE1_RECOVERY_SPEC),
        ],
        ids=["n7", "n4095", "n4096", "n4097", "n12293", "walkthrough_dwell", "recovery_stage1"],
    )
    def test_agrees(self, data):
        X, y, columns = data()
        fit = fit_ols(X, y, columns)
        want = q_residual_ols(X, y)
        got = np.array([[t.estimate, t.se] for t in fit.terms])
        scale = np.max(np.abs(want["beta"]))
        np.testing.assert_allclose(got[:, 0], want["beta"], rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(got[:, 1], want["se"], rtol=1e-12, atol=0)
        for name in ("r_squared", "residual_sd"):
            assert fit.metadata[name] == pytest.approx(want[name], rel=1e-12, abs=0)
        assert fit.metadata["df_resid"] == want["df_resid"]

    def test_response_in_the_span_of_x_passes(self):
        X, _, columns = ols_rows(3 * _ROW_BLOCK + 5)
        beta = np.array([0.3, -1.0, 0.05, 2.0, 1e-3, 0.7])
        fit = fit_ols(X, X @ beta, columns)
        np.testing.assert_allclose([t.estimate for t in fit.terms], beta, rtol=1e-9)
        assert fit.metadata["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_collinear_column_is_named(self):
        X, y, columns = ols_rows(3 * _ROW_BLOCK + 5)
        X = np.column_stack([X, 2.5 * X[:, 1]])
        with pytest.raises(ValueError, match=r"collinear column\(s\): a_copy$"):
            fit_ols(X, y, [*columns, "a_copy"])


@pytest.mark.parametrize("fit", [fit_ols, fit_logistic], ids=["ols", "logistic"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "rows_x, rows_y, message",
    [
        ([3, 17], [], r"2 row\(s\) hold NaN or inf, in b$"),
        ([], [5], r"1 row\(s\) hold NaN or inf, in the response$"),
        ([3, 4], [4, 9], r"3 row\(s\) hold NaN or inf, in b, the response$"),
    ],
    ids=["x", "y", "x_and_y"],
)
def test_non_finite_input_is_reported(fit, bad, rows_x, rows_y, message):
    # NaN compares False, so the rank check alone lets a NaN through
    X, y, _ = logistic_rows(50)
    X[rows_x, 2] = bad
    y[rows_y] = bad
    with pytest.raises(ValueError, match=message):
        fit(X, y, ["intercept", "a", "b", "c"])


@pytest.mark.parametrize(
    "fit, y, message",
    [
        (fit_ols, [np.nan, 1.0, 2.0], r"1 row\(s\) hold NaN or inf, in the response$"),
        (fit_logistic, [np.nan, 1.0, 0.0], r"1 row\(s\) hold NaN or inf, in the response$"),
        (fit_logistic, [2.0, 1.0, 0.0], r"need n > k for logistic inference \(n=3, k=4\)$"),
        (fit_ols, [0.5, 1.0, 2.0], r"need n > k for OLS inference \(n=3, k=4\)$"),
    ],
    ids=["ols_nan", "logistic_nan", "logistic_non_binary", "ols_short"],
)
def test_non_finite_input_is_reported_before_n_le_k(fit, y, message):
    # three rows and four columns: every case has n <= k, which is reported
    # after NaN or inf and before a logistic response that is not 0/1
    X = np.column_stack([np.ones(3), np.arange(9.0).reshape(3, 3) ** 2])
    with pytest.raises(ValueError, match=message):
        fit(X, np.array(y), ["intercept", "a", "b", "c"])


class TestBlockedRFactor:
    @pytest.mark.parametrize("n", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5, 4])
    def test_diag_matches_one_qr(self, n):
        rng = np.random.default_rng(n)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 5)) * [1.0, 10.0, 0.1, 1e3, 1.0]])
        got = np.abs(np.diag(_r_factor(X)))
        want = np.abs(np.diag(np.linalg.qr(X, mode="r")))
        assert got.shape == (min(n, 6),)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_column_zero_before_the_last_block_passes(self):
        n = 3 * _ROW_BLOCK + 5
        rng = np.random.default_rng(30)
        late = np.zeros(n)
        late[-5:] = rng.standard_normal(5)
        X = np.column_stack([np.ones(n), rng.standard_normal(n), late])
        _check_rank(_r_factor(X), ["intercept", "x", "late"])

    def test_multiple_of_another_column_is_named(self):
        n = 3 * _ROW_BLOCK + 5
        rng = np.random.default_rng(31)
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, rng.standard_normal(n), 2.5 * x])
        y = (rng.random(n) < 0.3).astype(float)
        with pytest.raises(ValueError, match=r"collinear column\(s\): x_copy$"):
            fit_logistic(X, y, ["intercept", "x", "z", "x_copy"])


class TestFitDesignAndIO:
    def _fitted(self):
        rng = np.random.default_rng(28)
        scores = FeatureMatrix(
            tuple(f"post_{i:02d}" for i in range(20)),
            ("pc1", "pc2"),
            np.array([rng.standard_normal(2) for _ in range(20)]),
        )
        imps = []
        for p in range(30):
            for pos in range(1, 11):
                pid = f"post_{rng.integers(20):02d}"
                actions = int(rng.random() < 0.2) + int(rng.random() < 0.1)
                imps.append(
                    make_impression(
                        f"p{p}", pid, pos, 3.0, actions=actions,
                        adjusted=float(rng.lognormal(0.5, 0.6) + 0.2),
                    )
                )
        return as_table(imps), scores

    def test_dispatch_and_roundtrip(self, tmp_path):
        imps, scores = self._fitted()
        for spec in (dwell_model_spec(), engagement_model_spec()):
            design = build_design(imps, scores, spec)
            fit = fit_design(design, spec)
            assert fit.model == ("ols" if spec.response == "log_dwell" else "logistic")
            assert fit.n == len(imps)
            for t in fit.terms:
                assert t.se > 0
                assert 0.0 <= t.p <= 1.0
            save_fit(tmp_path / "fit.json", fit)
            loaded = load_fit(tmp_path / "fit.json")
            assert loaded == fit
            # and the loaded fit saves the same bytes
            first = (tmp_path / "fit.json").read_bytes()
            save_fit(tmp_path / "fit.json", loaded)
            assert (tmp_path / "fit.json").read_bytes() == first

    def test_render_table_aligned(self):
        imps, scores = self._fitted()
        design = build_design(imps, scores, dwell_model_spec())
        fit = fit_design(design, dwell_model_spec())
        table = render_fit_table(fit)
        lines = table.splitlines()
        assert lines[0].startswith("term")
        assert "estimate" in lines[0]
        assert any("engage:sensationalism" in ln for ln in lines)


def test_bundled_openblas_runs_on_one_thread_after_a_fit():
    # a threaded OpenBLAS dot splits its sum by thread count, so OLS fits
    # would differ in their last bits between hosts with different core counts
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    fit_ols(X, np.array([0.1, 1.2, 1.9, 3.2, 3.9]), ["intercept", "x"])
    here = Path(np.__file__).parent
    libs = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]
    getters = [getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
               for lib in libs]
    getters = [g for g in getters if g is not None]
    if not getters:
        pytest.skip("numpy here does not bundle scipy-openblas")
    assert [g() for g in getters] == [1] * len(getters)
