import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedlab.data import FEATURE_NAMES, FeatureMatrix
from feedlab.features import (
    attach_mean_dwell,
    component_scores,
    correlate,
    feature_dwell_correlations,
    fit_feature_pca,
    fit_pca,
    load_pca_fit,
    load_scores,
    mean_dwell_by_post,
    project,
    save_pca_fit,
    save_scores,
    score_dwell_correlations,
    standardize,
    top_posts,
)
from conftest import as_table, make_impression
from oracles import (
    comparison_sort_ranking,
    permutation_pearson_p,
    two_pass_column_stats,
)


def hadamard8():
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return np.kron(np.kron(h2, h2), h2) / math.sqrt(8.0)


def random_matrix(rng, n=50, p=3):
    return rng.normal(3.0, 2.0, size=(n, p))


class TestStandardize:
    def test_two_point_column(self):
        z, means, sds = standardize(np.array([[0.0], [2.0]]))
        assert z[:, 0] == pytest.approx([-0.7071, 0.7071], abs=1e-4)
        assert means[0] == 1.0
        assert sds[0] == pytest.approx(math.sqrt(2.0))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        z1, _, _ = standardize(random_matrix(rng))
        z2, _, _ = standardize(z1)
        assert np.allclose(z1, z2, atol=1e-10)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        x = random_matrix(rng, 50, 3)
        z, means, sds = standardize(x)
        o_means, o_sds = two_pass_column_stats(x)
        assert np.allclose(means, o_means, atol=1e-12)
        assert np.allclose(sds, o_sds, atol=1e-12)
        assert np.allclose(z, (x - o_means) / o_sds, atol=1e-12)

    def test_post_conditions(self):
        rng = np.random.default_rng(3)
        z, _, _ = standardize(random_matrix(rng, 40, 4))
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_constant_column_named(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ValueError, match="c0"):
            standardize(x, names=["c0", "c1"])


class TestCorrelate:
    def test_self_correlation(self):
        x = np.arange(10.0)
        res = correlate(x, x)
        assert res.r == 1.0
        assert res.p == 0.0

    def test_negated(self):
        x = np.arange(10.0)
        res = correlate(x, -x)
        assert res.r == -1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = correlate(x, y)
        scaled = correlate(3.0 * x + 7.0, y)
        assert scaled.r == pytest.approx(base.r, abs=1e-12)
        assert scaled.p == pytest.approx(base.p, abs=1e-12)
        flipped = correlate(-2.0 * x + 1.0, y)
        assert flipped.r == pytest.approx(-base.r, abs=1e-12)
        assert flipped.p == pytest.approx(base.p, abs=1e-12)

    @given(
        a=st.floats(0.1, 5.0),
        b=st.floats(-10.0, 10.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40)
    def test_affine_invariance_property(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        base = correlate(x, y)
        res = correlate(a * x + b, y)
        assert res.r == pytest.approx(base.r, abs=1e-9)
        assert res.p == pytest.approx(base.p, abs=1e-9)

    def test_permutation_oracle_n276(self):
        # fixture pinned by seed; 0.170043 is the 1e6-draw permutation
        # p-value (oracle seed 99), computed once and frozen
        rng = np.random.default_rng(276276)
        x = rng.standard_normal(276)
        y = 0.12 * x + rng.standard_normal(276)
        res = correlate(x, y)
        assert abs(res.p - 0.170043) < 0.005
        live = permutation_pearson_p(x, y, draws=50_000, seed=7)
        assert abs(res.p - live) < 0.005

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="zero-variance"):
            correlate(np.ones(5), np.arange(5.0))

    def test_needs_three(self):
        with pytest.raises(ValueError, match="n >= 3"):
            correlate(np.array([1.0, 2.0]), np.array([3.0, 4.0]))


class TestMeanDwell:
    def test_single_and_pair(self):
        imps = as_table([
            make_impression("p1", "a", 1, 5.0, adjusted=2.0),
            make_impression("p2", "b", 1, 5.0, adjusted=1.0),
            make_impression("p3", "b", 1, 5.0, adjusted=3.0),
        ])
        out = mean_dwell_by_post(imps)
        assert out == {"a": 2.0, "b": 2.0}

    def test_requires_adjusted(self):
        with pytest.raises(ValueError, match="pipeline"):
            mean_dwell_by_post(as_table([make_impression("p1", "a", 1, 5.0)]))

    def test_matches_sum_count_oracle(self):
        rng = np.random.default_rng(11)
        imps = [
            make_impression(
                f"p{i}", f"post_{rng.integers(20):02d}", 1, 5.0, adjusted=float(rng.uniform(0.2, 9))
            )
            for i in range(1000)
        ]
        out = mean_dwell_by_post(as_table(imps))
        sums, counts = {}, {}
        for _, post, _, _, _, _, adjusted in imps:
            sums[post] = sums.get(post, 0.0) + adjusted
            counts[post] = counts.get(post, 0) + 1
        for pid, mean in out.items():
            assert mean == pytest.approx(sums[pid] / counts[pid], abs=1e-12)


class TestFitPca:
    def test_hadamard_known_covariance_recovery(self):
        # geometric spectrum (ratio 0.2) over Hadamard eigenvectors gives a
        # unit-diagonal covariance with well-separated components
        Q = hadamard8()
        lam = 0.2 ** np.arange(8)
        lam = lam * (8.0 / lam.sum())
        C = Q @ np.diag(lam) @ Q.T
        assert np.allclose(np.diag(C), 1.0, atol=1e-12)
        L = np.linalg.cholesky(C)
        rng = np.random.default_rng(20011)
        X = rng.standard_normal((5000, 8)) @ L.T
        z, means, sds = standardize(X)
        fit = fit_pca(z, FEATURE_NAMES, means, sds)
        for j in range(8):
            dev = min(
                np.max(np.abs(fit.loadings[:, j] - Q[:, j])),
                np.max(np.abs(fit.loadings[:, j] + Q[:, j])),
            )
            assert dev < 0.02
        assert np.allclose(fit.variance_fraction, lam / 8.0, atol=0.02)

    def test_rank_one_two_columns(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(40)
        x = np.column_stack([base, 2.0 * base + 1.0])
        z, means, sds = standardize(x)
        fit = fit_pca(z, ("a", "b"), means, sds)
        assert fit.variance_fraction == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_orthonormal_loadings(self):
        rng = np.random.default_rng(7)
        z, means, sds = standardize(rng.standard_normal((276, 8)))
        fit = fit_pca(z, FEATURE_NAMES, means, sds)
        gram = fit.loadings.T @ fit.loadings
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_fractions_sorted_and_sum_to_one(self):
        rng = np.random.default_rng(8)
        z, means, sds = standardize(rng.standard_normal((100, 8)))
        fit = fit_pca(z, FEATURE_NAMES, means, sds)
        assert np.all(np.diff(fit.variance_fraction) <= 0)
        assert abs(fit.variance_fraction.sum() - 1.0) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        z, means, sds = standardize(rng.standard_normal((60, 8)))
        fit = fit_pca(z, FEATURE_NAMES, means, sds)
        scores = z @ fit.loadings
        assert np.max(np.abs(scores @ fit.loadings.T - z)) < 1e-8

    def test_scores_mutually_uncorrelated(self):
        rng = np.random.default_rng(10)
        z, means, sds = standardize(rng.standard_normal((200, 8)))
        fit = fit_pca(z, FEATURE_NAMES, means, sds)
        scores = z @ fit.loadings
        corr = (scores.T @ scores) / (len(scores) - 1)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 1e-8

    def test_sign_canonicalization_stable_under_row_permutation(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((80, 8))
        z, means, sds = standardize(x)
        fit1 = fit_pca(z, FEATURE_NAMES, means, sds)
        perm = rng.permutation(80)
        z2, means2, sds2 = standardize(x[perm])
        fit2 = fit_pca(z2, FEATURE_NAMES, means2, sds2)
        assert np.allclose(fit1.loadings, fit2.loadings, atol=1e-9)
        assert np.allclose(fit1.variance_fraction, fit2.variance_fraction, atol=1e-12)

    def test_non_finite_rejected(self):
        z = np.zeros((10, 3))
        z[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_pca(z, ("a", "b", "c"), np.zeros(3), np.ones(3))

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        z, means, sds = standardize(rng.standard_normal((40, 8)))
        fit = fit_pca(z, FEATURE_NAMES, means, sds)
        save_pca_fit(tmp_path / "f.json", fit)
        loaded = load_pca_fit(tmp_path / "f.json")
        assert loaded.feature_names == fit.feature_names
        assert np.array_equal(loaded.loadings, fit.loadings)
        assert loaded.flipped == fit.flipped


def matrix_from(rng, n=40):
    vals = rng.normal(3.0, 1.0, size=(n, 8))
    ids = tuple(f"post_{i:03d}" for i in range(n))
    return FeatureMatrix(ids, FEATURE_NAMES, vals)


class TestProject:
    def test_training_scores_standardized(self):
        rng = np.random.default_rng(13)
        matrix = matrix_from(rng)
        fit = fit_feature_pca(matrix)
        scores = project(fit, matrix)
        assert scores.post_ids == matrix.post_ids
        assert scores.feature_names == tuple(f"pc{j}" for j in range(1, 9))
        mat = scores.values
        assert np.allclose(mat.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(mat.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_single_post_at_means_scores_zero_pre_z(self):
        rng = np.random.default_rng(14)
        matrix = matrix_from(rng)
        fit = fit_feature_pca(matrix)
        at_means = fit.means.reshape(1, -1)
        raw = component_scores(fit, at_means)
        assert np.allclose(raw, 0.0, atol=1e-12)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(15)
        matrix = matrix_from(rng)
        fit = fit_feature_pca(matrix)
        other = matrix_from(rng, n=17)
        raw = component_scores(fit, other)
        oracle = ((other.values - fit.means) / fit.sds) @ fit.loadings
        assert np.allclose(raw, oracle, atol=1e-12)

    def test_reordered_feature_columns_rejected(self):
        rng = np.random.default_rng(15)
        matrix = matrix_from(rng)
        fit = fit_feature_pca(matrix)
        order = [1, 0, *range(2, 8)]
        reordered = FeatureMatrix(
            matrix.post_ids,
            tuple(matrix.feature_names[j] for j in order),
            matrix.values[:, order],
        )
        with pytest.raises(ValueError, match="feature columns .* are not the fit's") as err:
            component_scores(fit, reordered)
        assert str(list(fit.feature_names)) in str(err.value)
        assert str(list(reordered.feature_names)) in str(err.value)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(16)
        matrix = matrix_from(rng)
        perm = rng.permutation(matrix.n_posts)
        shuffled = FeatureMatrix(
            tuple(matrix.post_ids[i] for i in perm),
            matrix.feature_names,
            matrix.values[perm],
        )
        scores1 = project(fit_feature_pca(matrix), matrix)
        scores2 = project(fit_feature_pca(shuffled), shuffled)
        s1 = dict(zip(scores1.post_ids, scores1.values.tolist()))
        s2 = dict(zip(scores2.post_ids, scores2.values.tolist()))
        for pid in s1:
            assert s1[pid] == pytest.approx(s2[pid], abs=1e-9)

    def test_rank_deficient_null_components_stay_zero(self):
        rng = np.random.default_rng(17)
        base = rng.standard_normal(30)
        vals = np.column_stack([base + rng.normal(0, 1, 30), base, 2 * base, -base])
        ids = tuple(f"p{i}" for i in range(30))
        matrix = FeatureMatrix(ids, ("a", "b", "c", "d"), vals)
        fit = fit_feature_pca(matrix)
        scores = project(fit, matrix)
        assert np.allclose(scores.values[:, 2:], 0.0, atol=1e-8)


class TestTopPosts:
    def _scores(self, values):
        return FeatureMatrix(
            tuple(pid for pid, _ in values),
            ("pc1", "pc2"),
            [[float(v), 0.0] for _, v in values],
        )

    def _ranked_ids(self, scores, k):
        return [scores.post_ids[i] for i in top_posts(scores, 0, k)]

    def _oracle_ids(self, scores, k):
        pairs = zip(scores.post_ids, scores.values[:, 0].tolist())
        return [pid for pid, _ in comparison_sort_ranking(pairs)[:k]]

    def test_k_zero(self):
        assert top_posts(self._scores([("a", 1.0)]), 0, 0) == []

    def test_distinct_scores_full_sort_oracle(self):
        rng = np.random.default_rng(18)
        scores = self._scores(
            [(f"post_{i}", float(v)) for i, v in enumerate(rng.standard_normal(5))]
        )
        assert self._ranked_ids(scores, 5) == self._oracle_ids(scores, 5)

    def test_ties_break_by_post_id(self):
        scores = self._scores([("b", 1.0), ("a", 1.0), ("c", 2.0)])
        assert self._ranked_ids(scores, 3) == ["c", "a", "b"]
        assert self._oracle_ids(scores, 3) == ["c", "a", "b"]

    @given(seed=st.integers(0, 5000), k=st.integers(0, 8))
    @settings(max_examples=40)
    def test_matches_sorted_prefix(self, seed, k):
        rng = np.random.default_rng(seed)
        scores = self._scores(
            [(f"p{i}", float(rng.integers(-3, 4))) for i in range(8)]
        )
        assert self._ranked_ids(scores, k) == self._oracle_ids(scores, k)


class TestDwellCorrelations:
    def test_attach_and_correlate(self):
        rng = np.random.default_rng(19)
        matrix = matrix_from(rng, n=30)
        fit = fit_feature_pca(matrix)
        scores = project(fit, matrix)
        dwell = {pid: float(rng.uniform(1, 5)) for pid in matrix.post_ids[:-2]}
        with pytest.warns(UserWarning, match="omitted"):
            scored = attach_mean_dwell(scores, dwell)
        assert scored.post_ids == matrix.post_ids[:-2]
        assert scored.feature_names == (*scores.feature_names, "mean_dwell")
        assert np.array_equal(scored.values[:, :-1], scores.values[:-2])
        assert scored.values[:, -1].tolist() == [dwell[pid] for pid in scored.post_ids]
        by_feature = feature_dwell_correlations(matrix, dwell)
        assert set(by_feature) == set(FEATURE_NAMES)
        with pytest.raises(ValueError, match="mean dwell attached"):
            score_dwell_correlations(scores)
        by_pc = score_dwell_correlations(scored)
        assert set(by_pc) == {f"pc{j}" for j in range(1, 9)}
        for res in by_pc.values():
            assert -1.0 <= res.r <= 1.0 and 0.0 <= res.p <= 1.0

    def test_scores_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        matrix = matrix_from(rng, n=12)
        plain = project(fit_feature_pca(matrix), matrix)
        dwell = {pid: float(rng.uniform(1, 5)) for pid in matrix.post_ids}
        with_dwell = attach_mean_dwell(plain, dwell)
        for name, scores in (("plain", plain), ("dwell", with_dwell)):
            first, second = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
            save_scores(first, scores)
            loaded = load_scores(first)
            assert loaded.post_ids == scores.post_ids
            assert loaded.feature_names == scores.feature_names
            assert np.array_equal(loaded.values, scores.values)
            save_scores(second, loaded)
            assert second.read_bytes() == first.read_bytes()
        assert with_dwell.feature_names[-1] == "mean_dwell"
        assert "mean_dwell" not in plain.feature_names
