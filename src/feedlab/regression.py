"""Impression-level outcome models: OLS for log dwell, IRLS logistic for engagement.

Both models are fixed-effects only (no random terms, no participant dummies)
and report classical standard errors; output metadata flags that SEs are not
clustered by participant. The intercept is always included and listed first.
Both fits end in one inference tail, :func:`_fit`, which turns the estimates
and their covariance into SEs, statistics, p-values and the terms.

Coding conventions, applied by :func:`build_design`:

* ``engage``        engaged impressions +0.5, others -0.5
* ``credibility``   component-1 z-score of the post
* ``sensationalism``component-2 z-score of the post
* ``dwell``         natural-log adjusted dwell, z-scored over the analysis
                    sample (constants recorded in the design)
* interactions      elementwise products of the coded main-effect columns

The OLS response is natural-log adjusted dwell (not z-scored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._numeric import normal_sf_two_sided, one_blas_thread, sigmoid, t_sf_two_sided
from .data import (
    FeatureMatrix, Impressions, from_fields, id_list, json_list, read_json, write_json
)

MAX_CONDITION = 1e10
IRLS_MAX_ITER = 100
IRLS_GRADIENT_TOL = 1e-8
IRLS_DEVIANCE_RTOL = 1e-10
SEPARATION_COEF_BOUND = 15.0
_ROW_BLOCK = 4096

_MAIN_EFFECTS = ("engage", "credibility", "sensationalism", "dwell")


@dataclass(frozen=True)
class DesignSpec:
    """Which response and which coded predictor columns to build."""

    response: str
    predictors: tuple[str, ...]
    interactions: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.response not in ("log_dwell", "engaged"):
            raise ValueError(f"unknown response {self.response!r}")
        for p in self.predictors:
            if p not in _MAIN_EFFECTS:
                raise ValueError(f"unknown predictor {p!r}")
        for a, b in self.interactions:
            if a not in self.predictors or b not in self.predictors:
                raise ValueError(
                    f"interaction {a}:{b} references an undeclared main effect"
                )

    def column_names(self) -> tuple[str, ...]:
        return (
            ("intercept",)
            + self.predictors
            + tuple(f"{a}:{b}" for a, b in self.interactions)
        )


def dwell_model_spec() -> DesignSpec:
    """Log-dwell OLS: engagement, credibility, sensationalism + engage interactions."""
    return DesignSpec(
        response="log_dwell",
        predictors=("engage", "credibility", "sensationalism"),
        interactions=(("engage", "credibility"), ("engage", "sensationalism")),
    )


def engagement_model_spec() -> DesignSpec:
    """Engagement logistic: z-scored log dwell, credibility, sensationalism + dwell interactions."""
    return DesignSpec(
        response="engaged",
        predictors=("dwell", "credibility", "sensationalism"),
        interactions=(("dwell", "credibility"), ("dwell", "sensationalism")),
    )


@dataclass(frozen=True)
class Design:
    """Design matrix ``X`` (n x k, Fortran-ordered), response ``y`` and column names."""
    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    centering: dict

    @property
    def n(self) -> int:
        return self.X.shape[0]


def build_design(
    impressions: Impressions,
    scores: FeatureMatrix,
    spec: DesignSpec,
) -> Design:
    """Assemble the design matrix (intercept first, spec order) and response.

    ``scores``' first two columns, ``pc1`` and ``pc2``, are each post's
    credibility and sensationalism.
    """
    if scores.feature_names[:2] != ("pc1", "pc2"):
        raise ValueError(
            f"scores need pc1 and pc2 as their first columns, not {list(scores.feature_names)}"
        )
    row_of = {pid: i for i, pid in enumerate(scores.post_ids)}
    post_ids, post_row, _ = impressions.groups("post")
    post_ids = post_ids.tolist()
    missing = [pid for pid in post_ids if pid not in row_of]
    if missing:
        raise ValueError(f"{len(missing)} post(s) lack component scores: {id_list(missing)}")
    n = len(impressions)
    if n == 0:
        raise ValueError("no impressions in analysis sample")
    if impressions.dwell_adjusted is None:
        raise ValueError("impressions must be pipeline output (dwell_adjusted set)")
    dwell_adj = impressions.dwell_adjusted
    if np.any(dwell_adj <= 0):
        raise ValueError(
            f"non-positive adjusted dwell {dwell_adj.min()} cannot be logged; "
            "was the floor rule applied?"
        )
    engaged = (impressions.action_count >= 1).astype(float)
    # credibility and sensationalism scores, gathered once per distinct post
    post_scores = scores.values[[row_of[pid] for pid in post_ids], :2]
    cred = post_scores[post_row, 0]
    sens = post_scores[post_row, 1]

    log_dwell = np.log(dwell_adj)
    centering: dict = {}
    columns: dict[str, np.ndarray] = {
        "engage": np.where(engaged > 0, 0.5, -0.5),
        "credibility": cred,
        "sensationalism": sens,
    }
    if "dwell" in spec.predictors:
        mu = log_dwell.mean()
        sd = log_dwell.std(ddof=1) if n > 1 else 0.0
        if sd == 0:
            raise ValueError("log dwell is constant; cannot z-score the dwell predictor")
        columns["dwell"] = (log_dwell - mu) / sd
        centering["log_dwell_mean"] = float(mu)
        centering["log_dwell_sd"] = float(sd)

    names = spec.column_names()
    X = np.empty((n, len(names)), order="F")
    X[:, 0] = 1.0
    for j, name in enumerate(spec.predictors, start=1):
        X[:, j] = columns[name]
    for j, (a, b) in enumerate(spec.interactions, start=1 + len(spec.predictors)):
        X[:, j] = columns[a] * columns[b]

    y = log_dwell if spec.response == "log_dwell" else engaged
    return Design(X=X, y=y, columns=names, centering=centering)


@dataclass(frozen=True)
class TermEstimate:
    term: str
    estimate: float
    se: float
    statistic: float
    p: float


@dataclass(frozen=True)
class RegressionFit:
    model: str
    terms: tuple[TermEstimate, ...]
    n: int
    metadata: dict = field(default_factory=dict)
    centering: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def term(self, name: str) -> TermEstimate:
        for t in self.terms:
            if t.term == name:
                return t
        raise KeyError(name)


def _check_rank(R: np.ndarray, columns: Sequence[str]) -> None:
    diag = np.abs(np.diag(R))
    top = diag.max() if diag.size else 0.0
    if top == 0 or np.any(diag < top / MAX_CONDITION):
        bad = [columns[j] for j in np.flatnonzero(diag < top / MAX_CONDITION)] or list(columns)
        raise ValueError(f"design is rank deficient; collinear column(s): {', '.join(bad)}")


def _checked(X, y, columns: Sequence[str], model: str) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, once they hold no NaN or inf and n > k; BLAS is
    held to one thread for the fit that follows."""
    one_blas_thread()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    bad = np.column_stack([~np.isfinite(X), ~np.isfinite(y)])
    if bad.any():
        where = np.array([*columns, "the response"])[bad.any(axis=0)]
        raise ValueError(f"{bad.any(axis=1).sum()} row(s) hold NaN or inf, in {', '.join(where)}")
    n, k = X.shape
    if n <= k:
        raise ValueError(f"need n > k for {model} inference (n={n}, k={k})")
    return X, y


def _fit(model, columns, beta, cov, n, p_value, metadata, warnings) -> RegressionFit:
    """The fit whose terms are ``beta`` with the SEs of covariance ``cov``, the
    statistics ``beta / se`` and their two-sided p-values ``p_value(statistic)``."""
    se = np.sqrt(np.diag(cov))
    # a perfect OLS fit has zero residual variance and zero SEs
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(se == 0, np.where(beta == 0, 0.0, np.copysign(np.inf, beta)), beta / se)
    p = np.where(se == 0, np.where(beta == 0, 1.0, 0.0), p_value(stat))
    rows = zip(columns, beta.tolist(), se.tolist(), stat.tolist(), p.tolist())
    terms = tuple(TermEstimate(*r) for r in rows)
    return RegressionFit(model, terms, n, metadata, warnings=warnings)


def _r_factor(X: np.ndarray) -> np.ndarray:
    """R of X's QR, from the QR of the stacked Rs of X's ``_ROW_BLOCK``-row blocks.

    On a tall X this takes a fraction of one QR's time, and ``|diag(R)|``
    agrees with ``np.linalg.qr``'s to rounding.
    """
    rs = [np.linalg.qr(X[i:i + _ROW_BLOCK], mode="r") for i in range(0, len(X), _ROW_BLOCK)]
    return np.linalg.qr(np.vstack(rs), mode="r")


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    columns: Sequence[str],
) -> RegressionFit:
    """Least squares with classical SEs and two-sided t p-values, from the R of
    ``[X | y]``: it holds X's R, ``Q'y`` and the residual norm, so Q is never formed."""
    X, y = _checked(X, y, columns, "OLS")
    n, k = X.shape
    Ra = _r_factor(np.column_stack([X, y]))
    R, qty, rss = Ra[:k, :k], Ra[:k, k], float(Ra[k, k] ** 2)
    _check_rank(R, columns)
    beta = np.linalg.solve(R, qty)
    sigma2 = rss / (n - k)
    Rinv = np.linalg.solve(R, np.eye(k))
    tss = float(((y - y.mean()) ** 2).sum())
    metadata = {
        "r_squared": 1.0 - rss / tss if tss > 0 else float("nan"),
        "residual_sd": math.sqrt(sigma2),
        "df_resid": n - k,
        "se_type": "classical (not clustered by participant)",
    }
    p_value = lambda t: t_sf_two_sided(t, n - k)
    return _fit("ols", columns, beta, sigma2 * (Rinv @ Rinv.T), n, p_value, metadata, ())


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    columns: Sequence[str],
) -> RegressionFit:
    """Logistic ML via iteratively reweighted least squares with step-halving.

    Converges when the score gradient's max-abs falls below 1e-8 or the
    relative deviance change falls below 1e-10. The deviance is summed as
    ``2 * (max(eta, 0) + log1p(exp(-|eta|)) - y * eta)``, which never
    overflows. Wald SEs come from the inverse observed information at the
    optimum; p-values are two-sided normal. Suspected separation
    (non-convergence or huge coefficients) is reported as a warning on the
    fit, not an exception.
    """
    X, y = _checked(X, y, columns, "logistic")
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("logistic response must be binary 0/1")
    n, k = X.shape
    _check_rank(_r_factor(X), columns)
    # the loop uses preallocated buffers and a Fortran-ordered X (build_design's X is
    # one: no copy), on which X @ beta and X.T @ r take half their C-order time; the
    # information is summed per _ROW_BLOCK rows so that w * X stays in cache
    X = np.asfortranarray(X)
    eta, cand_eta, p, w, buf, tmp = (np.empty(n) for _ in range(6))
    wx = np.empty((min(n, _ROW_BLOCK), k), order="F")

    def deviance_at(eta):
        np.abs(eta, out=buf)
        np.exp(np.negative(buf, out=buf), out=buf)
        np.log1p(buf, out=buf)
        np.add(buf, np.maximum(eta, 0.0, out=tmp), out=buf)
        np.subtract(buf, np.multiply(y, eta, out=tmp), out=buf)
        return 2.0 * float(np.sum(buf))

    def information():
        np.maximum(np.multiply(np.subtract(1.0, p, out=w), p, out=w), 1e-12, out=w)
        info = np.zeros((k, k))
        for i in range(0, n, _ROW_BLOCK):
            xb = X[i:i + _ROW_BLOCK]
            info += xb.T @ np.multiply(xb, w[i:i + _ROW_BLOCK, None], out=wx[:len(xb)])
        return info

    beta = np.zeros(k)
    # start the intercept at the empirical log odds when it is a constant column
    if np.all(X[:, 0] == 1.0):
        pbar = min(max(y.mean(), 1e-6), 1 - 1e-6)
        beta[0] = math.log(pbar / (1 - pbar))

    np.matmul(X, beta, out=eta)
    deviance = deviance_at(eta)
    sigmoid(eta, out=p)
    grad = X.T @ np.subtract(y, p, out=buf)
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        step = np.linalg.solve(information(), grad)

        # step-halving: accept the first step that does not increase deviance
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            cand_dev = deviance_at(np.matmul(X, candidate, out=cand_eta))
            if cand_dev <= deviance + 1e-12:
                break
            scale *= 0.5
        beta, eta, cand_eta = candidate, cand_eta, eta
        prev_dev, deviance = deviance, cand_dev

        sigmoid(eta, out=p)
        grad = X.T @ np.subtract(y, p, out=buf)
        if (np.max(np.abs(grad)) < IRLS_GRADIENT_TOL
                or abs(prev_dev - deviance) < IRLS_DEVIANCE_RTOL * (abs(prev_dev) + 1e-30)):
            converged = True
            break

    fit_warnings: list[str] = []
    if not converged:
        fit_warnings.append(f"IRLS did not converge in {IRLS_MAX_ITER} iterations")
    if np.max(np.abs(beta)) > SEPARATION_COEF_BOUND:
        fit_warnings.append(
            f"coefficient magnitude exceeds {SEPARATION_COEF_BOUND}; possible separation"
        )

    metadata = {
        "log_likelihood": -deviance / 2.0,
        "deviance": deviance,
        "iterations": iterations,
        "converged": converged,
        "se_type": "classical Wald (not clustered by participant)",
    }
    return _fit(
        "logistic", columns, beta, np.linalg.inv(information()), n, normal_sf_two_sided,
        metadata, tuple(fit_warnings),
    )


def fit_design(design: Design, spec: DesignSpec) -> RegressionFit:
    fit = (fit_ols if spec.response == "log_dwell" else fit_logistic)(
        design.X, design.y, design.columns
    )
    return replace(fit, centering=design.centering)


# ---------------------------------------------------------------------------
# Persistence / rendering


def save_fit(path: str | Path, fit: RegressionFit) -> None:
    write_json(path, fit)


def load_fit(path: str | Path) -> RegressionFit:
    return from_fields(
        RegressionFit, read_json(path), path, "the fit", warnings=json_list,
        terms=lambda value: tuple(
            from_fields(TermEstimate, t, f"{path}: term {i}", "the term")
            for i, t in enumerate(json_list(value))
        ),
    )


def render_fit_table(fit: RegressionFit) -> str:
    """Aligned text table: term, estimate, SE, statistic, p."""
    stat_label = "t value" if fit.model == "ols" else "z value"
    header = ["term", "estimate", "SE", stat_label, "p"]
    rows = [
        [t.term, f"{t.estimate:.3f}", f"{t.se:.3f}", f"{t.statistic:.3f}", f"{t.p:.3f}"]
        for t in fit.terms
    ]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    rule = ["-" * w for w in widths]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in [header, rule, *rows]]
    lines += [f"n = {fit.n}  model = {fit.model}", *(f"warning: {w}" for w in fit.warnings)]
    return "\n".join(lines)
