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
posterior means given the estimated variance components. Each iteration
works on population totals and on per-participant blocks built once, so it
costs a few numpy calls whatever the number of participants. Identical
inputs produce bit-identical fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Impressions, from_fields, id_list, read_json, write_json

EM_MAX_ITER = 500
EM_LL_RTOL = 1e-8
_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class ExclusionRules:
    max_dwell: float = 30.0
    edge_trim: int = 3
    min_adjusted_dwell: float = 0.15

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value > 0:  # NaN is not > 0
                raise ValueError(f"exclusion rule {name} must be positive, got {value!r}")


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
class ParticipantFit:
    """One participant's intercept and slope, the motor seconds per engagement action."""

    intercept: float
    slope: float


@dataclass(frozen=True)
class MovementModel:
    """Population and per-participant movement-time coefficients, as movement_model.json
    holds them: ``participants`` maps each participant id to its :class:`ParticipantFit`."""

    mu_alpha: float
    mu_beta: float
    tau_alpha: float
    tau_beta: float
    sigma_eps: float
    participants: dict[str, ParticipantFit]
    log_likelihood: float = float("nan")
    iterations: int = 0


class PipelineOrderError(RuntimeError):
    """An impression reached adjustment without a fitted participant."""


# ---------------------------------------------------------------------------
# Exclusion stages


def _drop(impressions: Impressions, **removed: np.ndarray) -> tuple[Impressions, PipelineAudit]:
    """The rows that none of the disjoint masks ``removed`` marks, and the audit of each rule."""
    kept = impressions[~np.logical_or.reduce(list(removed.values()))]
    counts = {rule: int(mask.sum()) for rule, mask in removed.items()}
    return kept, PipelineAudit(len(impressions), counts, len(kept))


def apply_exclusions_stage1(
    impressions: Impressions, rules: ExclusionRules
) -> tuple[Impressions, PipelineAudit]:
    """Drop over-cap raw dwells, then edge positions of each participant's feed."""
    # length of the feed as displayed: max position seen for the participant
    pids, group, _ = impressions.groups("participant")
    lengths = np.zeros(len(pids), dtype=np.int64)
    np.maximum.at(lengths, group, impressions.position)
    short = pids[lengths <= 2 * rules.edge_trim].tolist()
    if short:
        warnings.warn(
            f"{len(short)} participant(s) have feeds of <= {2 * rules.edge_trim} posts; "
            f"all their impressions fall in the trimmed edges: {id_list(short, 5)}"
        )
    over = impressions.dwell_raw > rules.max_dwell
    edge = ~over & (
        (impressions.position <= rules.edge_trim)
        | (impressions.position > lengths[group] - rules.edge_trim)
    )
    return _drop(impressions, over_max_dwell=over, edge_positions=edge)


def adjust_dwell(impressions: Impressions, model: MovementModel) -> Impressions:
    """Subtract the participant's motor cost per action from raw dwell.

    Zero-action impressions pass through with dwell_adjusted == dwell_raw
    exactly; negative adjusted values are floored at 0 (the minimum-dwell
    rule removes them next).
    """
    pids, group, _ = impressions.groups("participant")
    missing = [pid for pid in pids.tolist() if pid not in model.participants]
    if missing:
        raise PipelineOrderError(
            f"participant {missing[0]!r} missing from movement model; "
            "adjust_dwell must run on the impressions the model was fit to"
        )
    slope = np.array([model.participants[pid].slope for pid in pids.tolist()], dtype=float)
    a = impressions.action_count
    y = impressions.dwell_raw
    value = np.where(a == 0, y, np.maximum(0.0, y - slope[group] * a))
    return replace(impressions, dwell_adjusted=value)


def apply_floor(
    impressions: Impressions, rules: ExclusionRules
) -> tuple[Impressions, PipelineAudit]:
    """Drop impressions with adjusted dwell strictly below the floor."""
    if impressions.dwell_adjusted is None:
        raise PipelineOrderError("apply_floor requires adjusted impressions")
    below = impressions.dwell_adjusted < rules.min_adjusted_dwell
    return _drop(impressions, below_min_adjusted=below)


# ---------------------------------------------------------------------------
# Movement-time model (random-intercept, random-slope EM)


def _rss_at(mu, tot):
    """Sum over impressions of (y - mu[0] - mu[1] * a)^2, from the population
    totals ``tot`` = (n, sum a, sum a^2, sum y, sum a*y, sum y^2)."""
    N, A, A2, Y, AY, YY = tot
    b0, b1 = mu
    return YY - 2 * (b0 * Y + b1 * AY) + b0 * b0 * N + 2 * b0 * b1 * A + b1 * b1 * A2


def _solve_sxx(tot, r0, r1):
    """The mu with S_xx mu = (r0, r1), where S_xx = [[n, sum a], [sum a, sum a^2]]."""
    N, A, A2 = tot[:3]
    det = N * A2 - A * A
    return (A2 * r0 - A * r1) / det, (N * r1 - A * r0) / det


def _pooled_ols(tot):
    N, A, A2, Y, AY, _ = tot
    # no action variation: intercept-only
    mu = (Y / N, 0.0) if N * A2 - A * A <= 0 else _solve_sxx(tot, Y, AY)
    return mu, max(_rss_at(mu, tot) / max(N - 2, 1), _VAR_FLOOR)


def fit_movement_model(impressions: Impressions) -> MovementModel:
    """Fit dwell_raw ~ intercept + slope * action_count with participant-level
    random intercepts and slopes, by EM on the marginal Gaussian likelihood.

    Each iteration is a few numpy calls on blocks built once from the
    per-participant moments. Every sum over participants (the log-likelihood,
    the M-step's right-hand side, tau^2 and sigma^2) comes from population
    totals, a matmul or a dot product, and mu from a closed-form 2x2 solve
    against the constant S_xx.

    If action counts never vary (e.g. nobody engaged), the slope is
    unidentifiable: a warning is emitted and the slope mean and variance are
    pinned at exactly 0, so every participant's slope is 0 and the same EM
    fits only the random intercept. A warning is also emitted if the EM
    stops at ``EM_MAX_ITER`` without meeting the convergence tolerance.
    """
    if len(impressions) == 0:
        raise ValueError("fit_movement_model needs at least one impression")
    # per-participant sufficient statistics, ordered by participant id
    pids, g, counts = impressions.groups("participant")
    y = impressions.dwell_raw
    a = impressions.action_count.astype(float)
    n_i = counts.astype(float)
    P = len(pids)
    stats = np.stack(
        [n_i] + [np.bincount(g, weights=w, minlength=P) for w in (a, a * a, y, a * y, y * y)]
    )
    tot = stats.sum(axis=1).tolist()
    n_i, sum_a, sum_a2, sum_y, sum_ay, _ = stats
    N = tot[0]
    slope_pinned = float(np.var(a)) == 0.0
    if slope_pinned:
        warnings.warn(
            "action counts are constant across all impressions; movement slope "
            "is unidentifiable and has been set to 0"
        )
    # Blocks built once, one column per participant i. With c = g1*g2/sigma2,
    # det(I + G^(1/2) S_xx,i G^(1/2) / sigma2) is 1 + (g1, g2, c) @ D / sigma2
    # and the posterior covariance (s11, s12, s22) is ((g1, 0, g2) + c*C) / det:
    # no G inverse, so both stay finite as tau2 -> 0. With Z = [[sum y | sum ay],
    # [n | sum a], [sum a | sum a^2]], (1, -mu0, -mu1) @ Z is the residual
    # cross-moments (q1 | q2), and Z @ (m1 | m2) is (sum of m.(sum y, sum ay),
    # sum of S_xx,i m). T @ V sums m' S_xx,i m + trace(S_xx,i S).
    D = np.stack([n_i, sum_a2, n_i * sum_a2 - sum_a * sum_a])
    C = np.stack([sum_a2, -sum_a, n_i])
    Z = np.stack([sum_y, sum_ay, n_i, sum_a, sum_a, sum_a2]).reshape(3, 2 * P)
    V = np.concatenate([n_i, 2 * sum_a, sum_a2])

    def e_step(mu, tau2, sigma2):
        """Posterior means m = (m1, m2), covariances S = (s11, s12, s22) and the
        marginal log-likelihood."""
        g1, g2 = tau2
        c = g1 * g2 / sigma2
        det = 1.0 + np.array([g1, g2, c]) / sigma2 @ D
        S = C * c
        S[0] += g1
        S[2] += g2
        S /= det
        q = np.array([1.0, -mu[0], -mu[1]]) / sigma2 @ Z
        m = S[:2] * q[:P]
        m += S[1:] * q[P:]
        # sum over participants of (s_rr - q.m) / sigma2
        quad = _rss_at(mu, tot) / sigma2 - q @ m.ravel()
        ll = -0.5 * (N * math.log(2 * math.pi * sigma2) + float(np.log(det).sum()) + quad)
        return m, S, ll

    mu, sigma2 = _pooled_ols(tot)
    tau0 = max(0.1 * sigma2, 1e-6)
    tau2 = (tau0, 0.0 if slope_pinned else tau0)
    ll_prev = -np.inf
    for iterations in range(1, EM_MAX_ITER + 1):
        m, S, ll = e_step(mu, tau2, sigma2)
        if abs(ll - ll_prev) < EM_LL_RTOL * max(1.0, abs(ll_prev)):
            break
        ll_prev = ll

        # M-step: random-effect variances, fixed effects, then the residual
        # variance at the new mu, with T = (m1^2, m1*m2, m2^2) + S. With the
        # slope pinned, m2 == 0 and S_xx is singular: the intercept is the
        # mean residual, the slope stays 0.
        T = np.empty_like(S)
        np.multiply(m[0], m, out=T[:2])
        np.multiply(m[1], m[1], out=T[2])
        T += S
        t1, t2 = T[::2].sum(axis=1).tolist()
        tau2 = (max(t1 / P, _VAR_FLOOR), 0.0 if slope_pinned else max(t2 / P, _VAR_FLOOR))
        my, u0, u1 = (Z @ m.ravel()).tolist()
        r0, r1 = tot[3] - u0, tot[4] - u1
        mu = (r0 / N, 0.0) if slope_pinned else _solve_sxx(tot, r0, r1)
        # sum of the residuals about mu + m, expanded around mu, plus the trace
        ss = _rss_at(mu, tot) - 2 * (my - mu[0] * u0 - mu[1] * u1) + float(T.ravel() @ V)
        sigma2 = max(ss / N, _VAR_FLOOR)
    else:
        warnings.warn(
            f"movement-time EM stopped at EM_MAX_ITER={EM_MAX_ITER} iterations "
            "without converging; the fit may be unreliable"
        )
        # posterior means consistent with the final parameter values
        m, _, ll = e_step(mu, tau2, sigma2)
    b1, b2 = m[0] + mu[0], m[1] + mu[1]
    participants = dict(zip(pids.tolist(), map(ParticipantFit, b1.tolist(), b2.tolist())))
    return MovementModel(
        mu_alpha=mu[0],
        mu_beta=mu[1],
        tau_alpha=math.sqrt(tau2[0]),
        tau_beta=math.sqrt(tau2[1]),
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
    stage1: Impressions  # the rows past the stage-1 exclusions: the movement model's data


def run_pipeline(impressions: Impressions, rules: ExclusionRules | None = None) -> PipelineResult:
    """Stage-1 exclusions -> movement fit -> adjustment -> floor."""
    rules = rules or ExclusionRules()
    stage1, audit1 = apply_exclusions_stage1(impressions, rules)
    # with nothing left to fit, the empty table passes through a zero model
    empty_model = MovementModel(0.0, 0.0, 0.0, 0.0, 0.0, {})
    model = fit_movement_model(stage1) if len(stage1) else empty_model
    cleaned, audit2 = apply_floor(adjust_dwell(stage1, model), rules)
    audit = PipelineAudit(len(impressions), dict(audit1.removed, **audit2.removed), len(cleaned))
    return PipelineResult(cleaned, model, audit, stage1)


def raw_dwell_control(result: PipelineResult, rules: ExclusionRules) -> Impressions:
    """The no-adjustment control of a :func:`run_pipeline` result: its stage-1 rows
    through the same floor, with raw dwell carried through as the adjusted dwell."""
    stage1 = result.stage1
    return apply_floor(replace(stage1, dwell_adjusted=stage1.dwell_raw), rules)[0]


# ---------------------------------------------------------------------------
# Persistence


def save_movement_model(path: str | Path, model: MovementModel) -> None:
    """Write movement_model.json; each participant is {"intercept", "slope"}."""
    write_json(path, model)


def load_movement_model(path: str | Path) -> MovementModel:
    def participants(value) -> dict[str, ParticipantFit]:
        if not isinstance(value, dict):
            raise TypeError(f"must be a JSON object, got {type(value).__name__}")
        return {
            pid: from_fields(ParticipantFit, v, f"{path}: participant {pid!r}", "the participant")
            for pid, v in value.items()
        }

    return from_fields(
        MovementModel, read_json(path), path, "the movement model", participants=participants
    )


def save_audit(path: str | Path, audit: PipelineAudit) -> None:
    write_json(path, audit)
