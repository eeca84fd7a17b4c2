"""Dwell-time preprocessing: exclusion rules, movement-time model, adjustment, floor.

Scrollable feeds couple dwell and engagement mechanically: acting on a post
takes motor time that inflates its dwell. The pipeline isolates the
attentional component in four ordered steps:

1. drop impressions dwelling past ``max_dwell`` (raw dwell), then trim the
   first/last ``edge_trim`` feed positions, whose timing is unreliable;
2. fit a hierarchical Gaussian model of raw dwell on action count with a
   random intercept and random slope per participant; the shrunken
   per-participant slope estimates each participant's seconds-per-action
   motor cost. When action counts are constant the slope is unidentifiable:
   its mean and variance are pinned at 0 and the same EM fits the random
   intercept alone;
3. subtract ``slope * action_count`` from raw dwell (floored at 0);
4. drop impressions whose adjusted dwell falls below ``min_adjusted_dwell``
   (boundary value kept).

The mixed model is fit by deterministic EM to convergence (relative
log-likelihood change < 1e-8, at most 500 iterations, with a warning if the
cap is reached first); per-participant coefficients are empirical-Bayes
posterior means given the estimated variance components. Identical inputs
produce bit-identical fits.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset, ImpressionRecord, Impressions, from_fields, write_json

EM_MAX_ITER = 500
EM_LL_RTOL = 1e-8
_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class ExclusionRules:
    max_dwell: float = 30.0
    edge_trim: int = 3
    min_adjusted_dwell: float = 0.15

    def __post_init__(self):
        if self.max_dwell <= 0 or self.edge_trim <= 0 or self.min_adjusted_dwell <= 0:
            raise ValueError("exclusion rule thresholds must be positive")


@dataclass(frozen=True)
class PipelineAudit:
    """Per-rule removal counts; removals plus retained must equal the input."""

    input_count: int
    removed: dict[str, int]
    retained_count: int

    def __post_init__(self):
        if sum(self.removed.values()) + self.retained_count != self.input_count:
            raise ValueError("audit does not conserve impressions")


@dataclass(frozen=True)
class MovementModel:
    """Population and per-participant movement-time coefficients.

    ``participants`` maps participant_id -> (intercept, slope); the slope is
    that participant's estimated motor seconds per engagement action.
    """

    mu_alpha: float
    mu_beta: float
    tau_alpha: float
    tau_beta: float
    sigma_eps: float
    participants: dict[str, tuple[float, float]]
    log_likelihood: float = float("nan")
    iterations: int = 0

    def slope(self, participant_id: str) -> float:
        return self.participants[participant_id][1]


class PipelineOrderError(RuntimeError):
    """An impression reached adjustment without a fitted participant."""


# ---------------------------------------------------------------------------
# Exclusion stages


def apply_exclusions_stage1(
    impressions: Iterable[ImpressionRecord], rules: ExclusionRules
) -> tuple[Impressions, PipelineAudit]:
    """Drop over-cap raw dwells, then edge positions of each participant's feed."""
    imps = Impressions.of(impressions)
    # length of the feed as displayed: max position seen for the participant
    pids, group, _ = imps.groups("participant")
    lengths = np.zeros(len(pids), dtype=np.int64)
    np.maximum.at(lengths, group, imps.position)
    short = pids[lengths <= 2 * rules.edge_trim].tolist()
    if short:
        warnings.warn(
            f"{len(short)} participant(s) have feeds of <= {2 * rules.edge_trim} posts; "
            f"all their impressions fall in the trimmed edges: {', '.join(short[:5])}"
            + ("..." if len(short) > 5 else "")
        )
    over = imps.dwell_raw > rules.max_dwell
    edge = ~over & (
        (imps.position <= rules.edge_trim)
        | (imps.position > lengths[group] - rules.edge_trim)
    )
    kept = imps[~over & ~edge]
    audit = PipelineAudit(
        input_count=len(imps),
        removed={"over_max_dwell": int(over.sum()), "edge_positions": int(edge.sum())},
        retained_count=len(kept),
    )
    return kept, audit


def adjust_dwell(
    impressions: Iterable[ImpressionRecord], model: MovementModel
) -> Impressions:
    """Subtract the participant's motor cost per action from raw dwell.

    Zero-action impressions pass through with dwell_adjusted == dwell_raw
    exactly; negative adjusted values are floored at 0 (the minimum-dwell
    rule removes them next).
    """
    imps = Impressions.of(impressions)
    pids, group, _ = imps.groups("participant")
    missing = [pid for pid in pids.tolist() if pid not in model.participants]
    if missing:
        raise PipelineOrderError(
            f"participant {missing[0]!r} missing from movement model; "
            "adjust_dwell must run on the impressions the model was fit to"
        )
    slope = np.array([model.slope(pid) for pid in pids.tolist()], dtype=float)
    a = imps.action_count
    y = imps.dwell_raw
    value = np.where(a == 0, y, np.maximum(0.0, y - slope[group] * a))
    return replace(imps, dwell_adjusted=value)


def apply_floor(
    impressions: Iterable[ImpressionRecord], rules: ExclusionRules
) -> tuple[Impressions, PipelineAudit]:
    """Drop impressions with adjusted dwell strictly below the floor."""
    imps = Impressions.of(impressions)
    if imps.dwell_adjusted is None:
        raise PipelineOrderError("apply_floor requires adjusted impressions")
    below = imps.dwell_adjusted < rules.min_adjusted_dwell
    kept = imps[~below]
    audit = PipelineAudit(
        input_count=len(imps),
        removed={"below_min_adjusted": int(below.sum())},
        retained_count=len(kept),
    )
    return kept, audit


# ---------------------------------------------------------------------------
# Movement-time model (random-intercept, random-slope EM)


def _pooled_ols(n, sum_a, sum_a2, sum_y, sum_ay, sum_y2):
    N = n.sum()
    A = sum_a.sum()
    A2 = sum_a2.sum()
    Y = sum_y.sum()
    AY = sum_ay.sum()
    det = N * A2 - A * A
    if det <= 0:
        # no action variation: intercept-only
        mu = np.array([Y / N, 0.0])
    else:
        mu = np.array([(A2 * Y - A * AY) / det, (N * AY - A * Y) / det])
    rss = (
        sum_y2.sum()
        - 2 * (mu[0] * Y + mu[1] * AY)
        + mu[0] ** 2 * N
        + 2 * mu[0] * mu[1] * A
        + mu[1] ** 2 * A2
    )
    sigma2 = max(rss / max(N - 2, 1), _VAR_FLOOR)
    return mu, sigma2


def fit_movement_model(impressions: Iterable[ImpressionRecord]) -> MovementModel:
    """Fit dwell_raw ~ intercept + slope * action_count with participant-level
    random intercepts and slopes, by EM on the marginal Gaussian likelihood.

    If action counts never vary (e.g. nobody engaged), the slope is
    unidentifiable: a warning is emitted and the slope mean and variance are
    pinned at exactly 0, so every participant's slope is 0 and the same EM
    fits only the random intercept. A warning is also emitted if the EM
    stops at ``EM_MAX_ITER`` without meeting the convergence tolerance.
    """
    imps = Impressions.of(impressions)
    if len(imps) == 0:
        raise ValueError("fit_movement_model needs at least one impression")
    # per-participant sufficient statistics, ordered by participant id
    pids, g, counts = imps.groups("participant")
    y = imps.dwell_raw
    a = imps.action_count.astype(float)
    n_i = counts.astype(float)
    sum_a, sum_a2, sum_y, sum_y2, sum_ay = (
        np.bincount(g, weights=w, minlength=len(pids)) for w in (a, a * a, y, y * y, a * y)
    )
    slope_pinned = float(np.var(a)) == 0.0
    if slope_pinned:
        warnings.warn(
            "action counts are constant across all impressions; movement slope "
            "is unidentifiable and has been set to 0"
        )

    mu, sigma2 = _pooled_ols(n_i, sum_a, sum_a2, sum_y, sum_ay, sum_y2)
    tau0 = max(0.1 * sigma2, 1e-6)
    tau2 = np.array([tau0, 0.0 if slope_pinned else tau0])
    N = float(n_i.sum())
    sxx = np.array([[n_i.sum(), sum_a.sum()], [sum_a.sum(), sum_a2.sum()]])

    def e_step(mu, tau2, sigma2):
        """Posterior means/covariances of participant deviations + marginal LL."""
        g1, g2 = tau2
        r12 = math.sqrt(g1 * g2)
        # posterior covariance via A = I + G^(1/2) H G^(1/2), H = S_xx / sigma2;
        # stable as tau2 -> 0 (no explicit G inverse)
        a11 = 1.0 + g1 * n_i / sigma2
        a12 = r12 * sum_a / sigma2
        a22 = 1.0 + g2 * sum_a2 / sigma2
        det = a11 * a22 - a12 * a12
        s11 = g1 * a22 / det
        s12 = -r12 * a12 / det
        s22 = g2 * a11 / det
        # residual cross-moments against the population line
        q1 = sum_y - (mu[0] * n_i + mu[1] * sum_a)
        q2 = sum_ay - (mu[0] * sum_a + mu[1] * sum_a2)
        m1 = (s11 * q1 + s12 * q2) / sigma2
        m2 = (s12 * q1 + s22 * q2) / sigma2
        s_rr = (
            sum_y2
            - 2 * (mu[0] * sum_y + mu[1] * sum_ay)
            + mu[0] ** 2 * n_i
            + 2 * mu[0] * mu[1] * sum_a
            + mu[1] ** 2 * sum_a2
        )
        quad = (s_rr - (q1 * m1 + q2 * m2)) / sigma2
        ll = -0.5 * float(
            N * math.log(2 * math.pi)
            + np.sum(n_i * math.log(sigma2) + np.log(det) + quad)
        )
        return m1, m2, s11, s12, s22, ll

    ll_prev = -np.inf
    iterations = 0
    converged = False
    for iterations in range(1, EM_MAX_ITER + 1):
        m1, m2, s11, s12, s22, ll = e_step(mu, tau2, sigma2)
        if abs(ll - ll_prev) < EM_LL_RTOL * max(1.0, abs(ll_prev)):
            converged = True
            break
        ll_prev = ll

        # M-step: random-effect variances, fixed effects, then the residual
        # variance at the new mu. With the slope pinned, m2 == 0 and S_xx is
        # singular: the intercept is the mean residual, the slope stays 0.
        tau2 = np.array(
            [
                max(float(np.mean(m1 * m1 + s11)), _VAR_FLOOR),
                max(float(np.mean(m2 * m2 + s22)), _VAR_FLOOR),
            ]
        )
        rhs1 = float(np.sum(sum_y - (n_i * m1 + sum_a * m2)))
        rhs2 = float(np.sum(sum_ay - (sum_a * m1 + sum_a2 * m2)))
        if slope_pinned:
            tau2[1] = 0.0
            mu = np.array([rhs1 / N, 0.0])
        else:
            mu = np.linalg.solve(sxx, np.array([rhs1, rhs2]))
        b1 = mu[0] + m1
        b2 = mu[1] + m2
        resid = (
            sum_y2
            - 2 * (b1 * sum_y + b2 * sum_ay)
            + b1 * b1 * n_i
            + 2 * b1 * b2 * sum_a
            + b2 * b2 * sum_a2
        )
        trace = s11 * n_i + 2 * s12 * sum_a + s22 * sum_a2
        sigma2 = max(float(np.sum(resid + trace)) / N, _VAR_FLOOR)
    if not converged:
        warnings.warn(
            f"movement-time EM stopped at EM_MAX_ITER={EM_MAX_ITER} iterations "
            "without converging; the fit may be unreliable"
        )

    # posterior means consistent with the final parameter values
    m1, m2, s11, s12, s22, ll = e_step(mu, tau2, sigma2)
    participants = {
        pid: (float(mu[0] + m1[i]), float(mu[1] + m2[i])) for i, pid in enumerate(pids.tolist())
    }
    return MovementModel(
        mu_alpha=float(mu[0]),
        mu_beta=float(mu[1]),
        tau_alpha=math.sqrt(float(tau2[0])),
        tau_beta=math.sqrt(float(tau2[1])),
        sigma_eps=math.sqrt(sigma2),
        participants=participants,
        log_likelihood=ll,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Composition


@dataclass(frozen=True)
class PipelineResult:
    impressions: Impressions
    model: MovementModel
    audit: PipelineAudit


def run_pipeline(
    data: Dataset | Iterable[ImpressionRecord], rules: ExclusionRules | None = None
) -> PipelineResult:
    """Stage-1 exclusions -> movement fit -> adjustment -> floor."""
    rules = rules or ExclusionRules()
    impressions = Impressions.of(data.impressions if isinstance(data, Dataset) else data)
    stage1, audit1 = apply_exclusions_stage1(impressions, rules)
    # with nothing left to fit, the empty table passes through a zero model
    empty_model = MovementModel(0.0, 0.0, 0.0, 0.0, 0.0, {})
    model = fit_movement_model(stage1) if len(stage1) else empty_model
    cleaned, audit2 = apply_floor(adjust_dwell(stage1, model), rules)
    audit = PipelineAudit(
        input_count=len(impressions),
        removed=dict(audit1.removed, **audit2.removed),
        retained_count=len(cleaned),
    )
    return PipelineResult(cleaned, model, audit)


# ---------------------------------------------------------------------------
# Persistence


def save_movement_model(path: str | Path, model: MovementModel) -> None:
    """Write movement_model.json; each participant is {"intercept", "slope"}."""
    participants = {pid: {"intercept": a, "slope": b} for pid, (a, b) in model.participants.items()}
    write_json(path, replace(model, participants=participants))


def load_movement_model(path: str | Path) -> MovementModel:
    d = json.loads(Path(path).read_text())
    participants = {pid: (v["intercept"], v["slope"]) for pid, v in d["participants"].items()}
    return from_fields(MovementModel, d, participants=participants)


def save_audit(path: str | Path, audit: PipelineAudit) -> None:
    write_json(path, audit)
