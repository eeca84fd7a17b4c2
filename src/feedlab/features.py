"""Feature-space analyses: correlations, PCA, scores, top posts.

Every per-post table is a :class:`~feedlab.data.FeatureMatrix`: the rated
features, and the component scores that :func:`project` returns (columns
``pc1..pcK``, plus a final ``mean_dwell`` column once
:func:`attach_mean_dwell` has joined dwell on); :func:`fit_feature_pca` and
:func:`project` take that table only.

The component analysis is an eigendecomposition of the sample correlation
matrix (features are z-scored first; the rating scales are heterogeneous, so
covariance PCA would let one scale dominate). Components are sorted by
eigenvalue, and each loading column is oriented so its largest-magnitude
entry is positive; cross-fit comparisons must still be sign-tolerant because
the orientation of a near-tied column is not meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ._numeric import t_sf_two_sided
from .data import (
    DataFormatError, FeatureMatrix, Impressions, _parse_rows, float_array, from_fields, id_list,
    json_list, read_json, write_csv, write_json,
)


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    p: float


@dataclass(frozen=True)
class PcaFit:
    """Standardization constants + loadings (columns = components)."""

    feature_names: tuple[str, ...]
    means: np.ndarray
    sds: np.ndarray
    loadings: np.ndarray
    variance_fraction: np.ndarray
    flipped: tuple[bool, ...]

    def cumulative_variance(self) -> np.ndarray:
        return np.cumsum(self.variance_fraction)


def correlate(x: np.ndarray, y: np.ndarray) -> CorrelationResult:
    """Pearson correlation with a two-sided Student-t p-value (n-2 df)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("correlate needs two equal-length 1-D vectors")
    n = x.size
    if n < 3:
        raise ValueError("correlate needs n >= 3")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(xc @ xc)
    sy = np.sqrt(yc @ yc)
    if sx == 0 or sy == 0:
        raise ValueError("correlate: zero-variance input")
    r = float(np.clip((xc @ yc) / (sx * sy), -1.0, 1.0))
    if 1.0 - r * r <= 0:
        return CorrelationResult(r=r, n=n, p=0.0)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    return CorrelationResult(r=r, n=n, p=float(t_sf_two_sided(t, n - 2)))


def mean_dwell_by_post(impressions: Impressions) -> dict[str, float]:
    """Mean adjusted dwell per post over cleaned impressions."""
    if impressions.dwell_adjusted is None:
        raise ValueError("impressions have no dwell_adjusted; run the dwell pipeline first")
    post_ids, group, counts = impressions.groups("post")
    sums = np.bincount(group, weights=impressions.dwell_adjusted, minlength=len(post_ids))
    return dict(zip(post_ids.tolist(), (sums / counts).tolist()))


def fit_feature_pca(matrix: FeatureMatrix) -> PcaFit:
    """Eigendecomposition of the sample correlation matrix of a feature table.

    Each column is z-scored (mean 0, sample SD 1 with the n-1 denominator),
    so the correlation matrix is z'z/(n-1). A constant column is an error
    naming the column: correlation PCA is undefined for it. Rank-deficient
    input yields zero eigenvalues rather than an error.
    """
    if matrix.n_posts < 2:
        raise ValueError("the component fit needs at least 2 posts")
    x = matrix.values
    means = x.mean(axis=0)
    sds = x.std(axis=0, ddof=1)
    bad = np.flatnonzero(sds == 0)
    if bad.size:
        raise ValueError(f"constant column(s): {', '.join(matrix.feature_names[j] for j in bad)}")
    z = (x - means) / sds
    if not np.all(np.isfinite(z)):
        raise ValueError("fit_feature_pca: non-finite standardized values")
    n, p = z.shape
    corr = (z.T @ z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if np.any(eigvals < -1e-8):
        raise ValueError("fit_feature_pca: correlation matrix is not positive semidefinite")
    eigvals = np.clip(eigvals, 0.0, None)
    flips = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(p)] < 0
    eigvecs[:, flips] = -eigvecs[:, flips]
    return PcaFit(
        feature_names=matrix.feature_names,
        means=means,
        sds=sds,
        loadings=eigvecs,
        variance_fraction=eigvals / p,
        flipped=tuple(flips.tolist()),
    )


def project(fit: PcaFit, matrix: FeatureMatrix) -> FeatureMatrix:
    """Standardize with the fit's constants, project, and z-score each column.

    The matrix must have the fit's feature columns, in the fit's order.
    Returns the scores as a table with the matrix's posts and columns
    ``pc1..pcK``. Score columns with zero variance (e.g. null components of
    rank-deficient input) are left at their centered value of 0 instead of
    dividing by zero.
    """
    if matrix.feature_names != fit.feature_names:
        raise ValueError(
            f"feature columns {list(matrix.feature_names)} are not the fit's "
            f"{list(fit.feature_names)}"
        )
    raw = ((matrix.values - fit.means) / fit.sds) @ fit.loadings
    centered = raw - raw.mean(axis=0)
    sds = raw.std(axis=0, ddof=1) if raw.shape[0] > 1 else np.zeros(raw.shape[1])
    # a null component's scores are rounding noise around 0; scaling that
    # noise to unit variance would fabricate a predictor
    live = sds > sds.max() * 1e-12 if sds.max() > 0 else sds > 0
    scaled = np.where(live, centered / np.where(live, sds, 1.0), centered)
    names = tuple(f"pc{j + 1}" for j in range(scaled.shape[1]))
    return FeatureMatrix(matrix.post_ids, names, scaled)


def attach_mean_dwell(
    scores: FeatureMatrix, dwell_by_post: Mapping[str, float]
) -> FeatureMatrix:
    """The rows of posts that have dwell data, with a final ``mean_dwell``
    column; warn about the rest."""
    missing = [pid for pid in scores.post_ids if pid not in dwell_by_post]
    if missing:
        warnings.warn(
            f"{len(missing)} post(s) have no retained impressions and were "
            f"omitted from dwell analyses: {id_list(missing)}"
        )
    rows = [i for i, pid in enumerate(scores.post_ids) if pid in dwell_by_post]
    post_ids = tuple(scores.post_ids[i] for i in rows)
    dwell = np.array([dwell_by_post[pid] for pid in post_ids], dtype=float)
    return FeatureMatrix(
        post_ids,
        (*scores.feature_names, "mean_dwell"),
        np.column_stack([scores.values[rows], dwell]),
    )


def top_posts(scores: FeatureMatrix, component: int, k: int) -> list[int]:
    """Rows of the top-k posts by one component's score, ties broken by post_id."""
    if k < 0:
        raise ValueError("k must be >= 0")
    column = scores.values[:, component].tolist()
    ranked = sorted(range(scores.n_posts), key=lambda i: (-column[i], scores.post_ids[i]))
    return ranked[:k]


def feature_dwell_correlations(
    matrix: FeatureMatrix, dwell_by_post: Mapping[str, float]
) -> dict[str, CorrelationResult]:
    """Correlate each feature's per-post mean rating with mean dwell."""
    idx = [i for i, pid in enumerate(matrix.post_ids) if pid in dwell_by_post]
    if len(idx) < 3:
        raise ValueError("need at least 3 posts with both features and dwell")
    dwell = np.array([dwell_by_post[matrix.post_ids[i]] for i in idx])
    return {
        feature: correlate(matrix.values[idx, j], dwell)
        for j, feature in enumerate(matrix.feature_names)
    }


def score_dwell_correlations(scores: FeatureMatrix) -> dict[str, CorrelationResult]:
    """Correlate each component's z-scores with the ``mean_dwell`` column."""
    if scores.feature_names[-1:] != ("mean_dwell",) or scores.n_posts < 3:
        raise ValueError("need at least 3 posts with mean dwell attached")
    dwell = scores.values[:, -1]
    return {
        name: correlate(scores.values[:, j], dwell)
        for j, name in enumerate(scores.feature_names[:-1])
    }


# ---------------------------------------------------------------------------
# Persistence


def save_pca_fit(path: str | Path, fit: PcaFit) -> None:
    write_json(path, fit)


def load_pca_fit(path: str | Path) -> PcaFit:
    return from_fields(
        PcaFit, read_json(path), path, "the component fit",
        feature_names=json_list, flipped=json_list, means=float_array, sds=float_array,
        loadings=float_array, variance_fraction=float_array,
    )


def save_scores(path: str | Path, scores: FeatureMatrix) -> None:
    """Write scores.csv: post_id, then the table's columns (pc1..pcK[, mean_dwell])."""
    if not scores.n_posts:
        raise ValueError("no scores to save")
    write_csv(
        path,
        ["post_id", *scores.feature_names],
        ([pid, *row] for pid, row in zip(scores.post_ids, scores.values.tolist())),
    )


def _score_row(row: list[str]) -> tuple[str, list[float]]:
    values = [float(v) for v in row[1:]]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return row[0], values


def load_scores(path: str | Path) -> FeatureMatrix:
    """Parse scores.csv into its table. A header other than post_id, pc1..pcK and an
    optional mean_dwell is a :class:`DataFormatError`; then so is the first blank, ragged,
    non-numeric or non-finite row, or a post_id already on an earlier line."""
    header, rows, errors = _parse_rows(path, (), _score_row)
    has_dwell = header[-1] == "mean_dwell"
    n_comp = len(header) - 1 - has_dwell
    if n_comp < 1 or header[: n_comp + 1] != ["post_id"] + [f"pc{j + 1}" for j in range(n_comp)]:
        raise DataFormatError(f"{path}: not a scores file (header {','.join(header)!r})")
    # the rows before the first rejected one are on lines 2, 3, ...
    first_line: dict[str, int] = {}
    for lineno, (post_id, _) in enumerate(rows[: errors[0].line - 2 if errors else None], start=2):
        if post_id in first_line:
            raise DataFormatError(
                f"{path} line {lineno}: post_id {post_id!r} is also on line {first_line[post_id]}"
            )
        first_line[post_id] = lineno
    if errors:
        raise DataFormatError(f"{path} line {errors[0].line}: {errors[0].message}")
    columns = tuple(header[1:])
    values = np.array([v for _, v in rows], dtype=float).reshape(-1, len(columns))
    return FeatureMatrix(tuple(first_line), columns, values)
