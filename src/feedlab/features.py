"""Feature-space analyses: standardization, correlations, PCA, scores, top posts.

The component analysis is an eigendecomposition of the sample correlation
matrix (features are z-scored first; the rating scales are heterogeneous, so
covariance PCA would let one scale dominate). Components are sorted by
eigenvalue, and each loading column is oriented so its largest-magnitude
entry is positive; cross-fit comparisons must still be sign-tolerant because
the orientation of a near-tied column is not meaningful.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._numeric import t_sf_two_sided
from .data import FeatureMatrix, ImpressionRecord, Impressions


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


@dataclass(frozen=True)
class PostScore:
    """Per-post component scores (z-scored) plus optional mean dwell."""

    post_id: str
    pc_scores: tuple[float, ...]
    mean_dwell: float | None = None


def standardize(
    values: np.ndarray | FeatureMatrix, names: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column (mean 0, sample SD 1 with the n-1 denominator).

    Returns ``(z, means, sds)``. A constant column is an error naming the
    column: downstream correlation PCA is undefined for it.
    """
    if isinstance(values, FeatureMatrix):
        names = values.feature_names
        values = values.values
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("standardize needs a 2-D matrix with at least 2 rows")
    means = x.mean(axis=0)
    sds = x.std(axis=0, ddof=1)
    bad = np.flatnonzero(sds == 0)
    if bad.size:
        labels = [names[j] if names is not None else f"column {j}" for j in bad]
        raise ValueError(f"constant column(s): {', '.join(map(str, labels))}")
    return (x - means) / sds, means, sds


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


def mean_dwell_by_post(impressions: Iterable[ImpressionRecord]) -> dict[str, float]:
    """Mean adjusted dwell per post over cleaned impressions."""
    imps = Impressions.of(impressions)
    if imps.dwell_adjusted is None:
        raise ValueError("impressions have no dwell_adjusted; run the dwell pipeline first")
    post_ids, group = np.unique(imps.post_id, return_inverse=True)
    sums = np.bincount(group, weights=imps.dwell_adjusted, minlength=len(post_ids))
    counts = np.bincount(group, minlength=len(post_ids))
    return dict(zip(post_ids.tolist(), (sums / counts).tolist()))


def fit_pca(
    z: np.ndarray,
    feature_names: Sequence[str],
    means: np.ndarray,
    sds: np.ndarray,
) -> PcaFit:
    """Eigendecomposition of the sample correlation matrix of ``z``.

    ``z`` must already be standardized (see :func:`standardize`); the
    correlation matrix is then z'z/(n-1). Rank-deficient input yields zero
    eigenvalues rather than an error.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("fit_pca: non-finite input")
    n, p = z.shape
    corr = (z.T @ z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if np.any(eigvals < -1e-8):
        raise ValueError("fit_pca: correlation matrix is not positive semidefinite")
    eigvals = np.clip(eigvals, 0.0, None)
    flips = []
    for j in range(p):
        col = eigvecs[:, j]
        flip = col[np.argmax(np.abs(col))] < 0
        if flip:
            eigvecs[:, j] = -col
        flips.append(bool(flip))
    return PcaFit(
        feature_names=tuple(feature_names),
        means=np.array(means, dtype=float),
        sds=np.array(sds, dtype=float),
        loadings=eigvecs,
        variance_fraction=eigvals / p,
        flipped=tuple(flips),
    )


def fit_feature_pca(matrix: FeatureMatrix) -> PcaFit:
    """Standardize a feature matrix and fit the component model."""
    z, means, sds = standardize(matrix)
    return fit_pca(z, matrix.feature_names, means, sds)


def component_scores(fit: PcaFit, matrix: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Project rows onto the components using the fit's own means/SDs (pre-z)."""
    if isinstance(matrix, FeatureMatrix):
        if matrix.feature_names != fit.feature_names:
            # tolerate reordered columns, not missing ones
            idx = [matrix.feature_names.index(f) for f in fit.feature_names]
            values = matrix.values[:, idx]
        else:
            values = matrix.values
    else:
        values = np.asarray(matrix, dtype=float)
    z = (values - fit.means) / fit.sds
    return z @ fit.loadings


def project(fit: PcaFit, matrix: FeatureMatrix) -> list[PostScore]:
    """Standardize with the fit's constants, project, and z-score each column.

    Score columns with zero variance (e.g. null components of rank-deficient
    input) are left at their centered value of 0 instead of dividing by zero.
    """
    raw = component_scores(fit, matrix)
    centered = raw - raw.mean(axis=0)
    if raw.shape[0] > 1:
        sds = raw.std(axis=0, ddof=1)
    else:
        sds = np.zeros(raw.shape[1])
    # a null component's scores are rounding noise around 0; scaling that
    # noise to unit variance would fabricate a predictor
    live = sds > sds.max() * 1e-12 if sds.max() > 0 else sds > 0
    scaled = np.where(live, centered / np.where(live, sds, 1.0), centered)
    return [
        PostScore(post_id=pid, pc_scores=tuple(float(v) for v in scaled[i]))
        for i, pid in enumerate(matrix.post_ids)
    ]


def attach_mean_dwell(
    scores: list[PostScore], dwell_by_post: Mapping[str, float]
) -> list[PostScore]:
    """Return scores for posts that have dwell data; warn about the rest."""
    missing = [s.post_id for s in scores if s.post_id not in dwell_by_post]
    if missing:
        warnings.warn(
            f"{len(missing)} post(s) have no retained impressions and were "
            f"omitted from dwell analyses: {', '.join(missing[:10])}"
            + ("..." if len(missing) > 10 else "")
        )
    return [
        replace(s, mean_dwell=dwell_by_post[s.post_id])
        for s in scores
        if s.post_id in dwell_by_post
    ]


def top_posts(scores: list[PostScore], component: int, k: int) -> list[PostScore]:
    """Top-k posts by one component's score, ties broken by post_id."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(scores, key=lambda s: (-s.pc_scores[component], s.post_id))
    return ranked[:k]


def feature_dwell_correlations(
    matrix: FeatureMatrix, dwell_by_post: Mapping[str, float]
) -> dict[str, CorrelationResult]:
    """Correlate each feature's per-post mean rating with mean dwell."""
    shared = [pid for pid in matrix.post_ids if pid in dwell_by_post]
    if len(shared) < 3:
        raise ValueError("need at least 3 posts with both features and dwell")
    idx = [matrix.post_ids.index(pid) for pid in shared]
    dwell = np.array([dwell_by_post[pid] for pid in shared])
    return {
        feature: correlate(matrix.values[idx, j], dwell)
        for j, feature in enumerate(matrix.feature_names)
    }


def score_dwell_correlations(scores: list[PostScore]) -> dict[str, CorrelationResult]:
    """Correlate each component's z-scores with mean dwell (scores must carry it)."""
    with_dwell = [s for s in scores if s.mean_dwell is not None]
    if len(with_dwell) < 3:
        raise ValueError("need at least 3 posts with mean dwell attached")
    dwell = np.array([s.mean_dwell for s in with_dwell])
    mat = np.array([s.pc_scores for s in with_dwell])
    return {
        f"pc{j + 1}": correlate(mat[:, j], dwell) for j in range(mat.shape[1])
    }


# ---------------------------------------------------------------------------
# Persistence


def save_pca_fit(path: str | Path, fit: PcaFit) -> None:
    payload = {
        "feature_names": list(fit.feature_names),
        "means": fit.means.tolist(),
        "sds": fit.sds.tolist(),
        "loadings": fit.loadings.tolist(),
        "variance_fraction": fit.variance_fraction.tolist(),
        "flipped": list(fit.flipped),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_pca_fit(path: str | Path) -> PcaFit:
    payload = json.loads(Path(path).read_text())
    return PcaFit(
        feature_names=tuple(payload["feature_names"]),
        means=np.array(payload["means"]),
        sds=np.array(payload["sds"]),
        loadings=np.array(payload["loadings"]),
        variance_fraction=np.array(payload["variance_fraction"]),
        flipped=tuple(payload["flipped"]),
    )


def save_scores(path: str | Path, scores: list[PostScore]) -> None:
    if not scores:
        raise ValueError("no scores to save")
    n_comp = len(scores[0].pc_scores)
    has_dwell = all(s.mean_dwell is not None for s in scores)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        header = ["post_id"] + [f"pc{j + 1}" for j in range(n_comp)]
        if has_dwell:
            header.append("mean_dwell")
        w.writerow(header)
        for s in scores:
            row = [s.post_id] + [repr(v) for v in s.pc_scores]
            if has_dwell:
                row.append(repr(s.mean_dwell))
            w.writerow(row)


def load_scores(path: str | Path) -> list[PostScore]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "post_id":
        raise ValueError(f"{path}: not a scores file")
    header = rows[0]
    has_dwell = header[-1] == "mean_dwell"
    n_comp = len(header) - 1 - int(has_dwell)
    out = []
    for row in rows[1:]:
        out.append(
            PostScore(
                post_id=row[0],
                pc_scores=tuple(float(v) for v in row[1 : 1 + n_comp]),
                mean_dwell=float(row[-1]) if has_dwell else None,
            )
        )
    return out
