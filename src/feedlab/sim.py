"""Generative two-stage user model, feed-ranking policies, and recovery studies.

A simulated user processes each feed post in two stages:

* Stage 1 (exposure): attentional dwell is log-normal in the post's
  credibility and sensationalism scores,
  ``log dwell = b0 + b_cred*c + b_sens*s + Normal(0, noise_sd)``.
* Stage 2 (engagement): conditional on dwell, the user shares (and possibly
  likes) the post with probability
  ``logistic(g0 + g_dwell*z + g_cred*c + g_sens*s + g_dwell_sens*z*s)``
  where ``z`` is the log-dwell z-score under the configured marginal.

Observed dwell adds a motor cost per action, ``action_count * max(0,
Normal(motor_mean, motor_sd))``, recreating the confound the dwell pipeline
removes. The stage-1 direction (dwell causes engagement opportunity, not the
reverse) is a modeling commitment recorded in experiment metadata; the
descriptive association between engagement and dwell emerges from it.

Determinism: every run is seeded, with replication-indexed substreams
(`numpy` SeedSequence spawn keys), so results are bit-identical regardless
of thread count.

Default intercepts, noise scales, and the like/share split are calibration
constants chosen for a plausible feed (base engagement rate near 10%); they
are configuration, not estimates.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._numeric import sigmoid
from .data import (
    CATEGORIES,
    Dataset,
    FeatureMatrix,
    FEATURE_NAMES,
    Impressions,
    NEWS_CATEGORIES,
    Post,
    from_fields,
    write_json,
)
from .features import PostScore, fit_feature_pca, project
from .pipeline import ExclusionRules, apply_exclusions_stage1, apply_floor, run_pipeline
from .regression import (
    DesignSpec,
    RegressionFit,
    build_design,
    engagement_model_spec,
    fit_design,
)

# Gauss-Hermite nodes and weights for expected_engagement, computed once
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(64)

POLICIES = ("dwell_opt", "engage_opt", "random", "chronological")


@dataclass(frozen=True)
class GenerativeParams:
    """Two-stage user parameters plus the motor-time confound.

    Stage-1/stage-2 coefficient defaults are per SD of the post scores;
    intercepts and noise scales are calibration constants.
    """

    dwell_intercept: float = math.log(2.5)
    dwell_credibility: float = -0.017
    dwell_sensationalism: float = 0.038
    dwell_noise_sd: float = 0.9
    engage_intercept: float = -2.2
    engage_dwell: float = 0.355
    engage_credibility: float = 0.212
    engage_sensationalism: float = -0.221
    engage_dwell_sensationalism: float = 0.062
    motor_mean: float = 1.2
    motor_sd: float = 0.4
    like_given_engage: float = 0.5
    logdwell_loc: float | None = None
    logdwell_scale: float | None = None

    def __post_init__(self):
        if self.dwell_noise_sd < 0 or self.motor_sd < 0:
            raise ValueError("noise SDs must be non-negative")
        if not 0.0 <= self.like_given_engage <= 1.0:
            raise ValueError("like_given_engage must be a probability")

    @property
    def resolved(self) -> bool:
        return self.logdwell_loc is not None and self.logdwell_scale is not None


def resolve_marginal(
    params: GenerativeParams, credibility: np.ndarray, sensationalism: np.ndarray
) -> GenerativeParams:
    """Fill the log-dwell marginal (mean/SD over the pool plus stage-1 noise).

    The stage-2 dwell predictor is standardized against this marginal, the
    generative counterpart of z-scoring log dwell over the analysis sample.
    """
    lin = (
        params.dwell_credibility * np.asarray(credibility, dtype=float)
        + params.dwell_sensationalism * np.asarray(sensationalism, dtype=float)
    )
    loc = params.dwell_intercept + float(lin.mean())
    scale = math.sqrt(float(lin.var()) + params.dwell_noise_sd**2)
    return replace(params, logdwell_loc=loc, logdwell_scale=scale)


def engage_probability(
    params: GenerativeParams, c: np.ndarray, s: np.ndarray, z: np.ndarray
) -> np.ndarray:
    return sigmoid(
        params.engage_intercept
        + params.engage_dwell * z
        + params.engage_credibility * c
        + params.engage_sensationalism * s
        + params.engage_dwell_sensationalism * z * s
    )


def simulate_impressions(
    c: np.ndarray,
    s: np.ndarray,
    params: GenerativeParams,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Vectorized two-stage draw for a block of posts.

    Exactly four variate arrays are drawn, in a fixed order (dwell noise,
    engage uniform, like uniform, motor noise), so a block's output depends
    only on the generator state on entry.
    """
    if not params.resolved:
        raise ValueError("params.logdwell_loc/scale unset; call resolve_marginal first")
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    n = c.size
    eps = rng.standard_normal(n)
    u_engage = rng.random(n)
    u_like = rng.random(n)
    motor_eps = rng.standard_normal(n)

    log_dwell = (
        params.dwell_intercept
        + params.dwell_credibility * c
        + params.dwell_sensationalism * s
        + params.dwell_noise_sd * eps
    )
    dwell_attention = np.exp(log_dwell)
    if params.logdwell_scale > 0:
        z = (log_dwell - params.logdwell_loc) / params.logdwell_scale
    else:
        z = np.zeros(n)
    p_engage = engage_probability(params, c, s, z)
    engaged = u_engage < p_engage
    shared = engaged
    liked = engaged & (u_like < params.like_given_engage)
    action_count = shared.astype(int) + liked.astype(int)
    motor = np.maximum(0.0, params.motor_mean + params.motor_sd * motor_eps)
    dwell_observed = dwell_attention + action_count * motor
    return {
        "dwell_attention": dwell_attention,
        "p_engage": p_engage,
        "engaged": engaged,
        "shared": shared,
        "liked": liked,
        "action_count": action_count,
        "dwell_observed": dwell_observed,
    }


# ---------------------------------------------------------------------------
# Post pools


@dataclass(frozen=True)
class PoolPosts:
    """A realized post pool: features, categories, and true score coordinates.

    Row ``i`` of every array is the post ``matrix.post_ids[i]``.
    """

    matrix: FeatureMatrix
    categories: np.ndarray
    credibility: np.ndarray
    sensationalism: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.n_posts

    def post_ids(self) -> tuple[str, ...]:
        return self.matrix.post_ids

    def posts(self) -> tuple[Post, ...]:
        """The pool as post records, features attached."""
        names = self.matrix.feature_names
        rows = zip(self.post_ids(), self.categories.tolist(), self.matrix.values.tolist())
        return tuple(
            Post(pid, f"Synthetic headline {i + 1}", "synthetic", category, dict(zip(names, row)))
            for i, (pid, category, row) in enumerate(rows)
        )


# loading directions for the synthetic feature model: the credibility axis
# raises every rating; the sensationalism axis raises provocative-style
# ratings and lowers truth-style ratings
_CRED_PATTERN = np.ones(8) / math.sqrt(8)
_SENS_SIGNS = {
    "familiarity": -1,
    "favorability": -1,
    "impactful": 1,
    "informative": -1,
    "provocative": 1,
    "sharing": 1,
    "surprising": 1,
    "truth": -1,
}
_SENS_PATTERN = np.array([_SENS_SIGNS[f] for f in FEATURE_NAMES]) / math.sqrt(8)


@functools.cache
def _post_ids(n: int) -> tuple[str, ...]:
    """The ids of a pool of ``n`` posts, zero-padded so that they sort in pool order."""
    width = len(str(n))
    return tuple(f"post_{i + 1:0{width}d}" for i in range(n))


@dataclass(frozen=True)
class SyntheticPool:
    """Two-factor synthetic pool mirroring the 276-post study composition.

    Posts carry independent standard-normal credibility/sensationalism
    coordinates; the 8 observable features mix the two axes plus white noise,
    so component analysis of the realized features can re-estimate the
    coordinates. ``credibility_strength`` must exceed
    ``sensationalism_strength`` for the component order to match.
    """

    n_true_news: int = 100
    n_false_news: int = 100
    n_opinion: int = 38
    n_mundane: int = 38
    credibility_strength: float = 0.8
    sensationalism_strength: float = 0.6
    feature_noise_sd: float = 0.15
    feature_offset: float = 3.0

    @property
    def size(self) -> int:
        return self.n_true_news + self.n_false_news + self.n_opinion + self.n_mundane

    def realize(self, rng: np.random.Generator) -> PoolPosts:
        n = self.size
        cred = rng.standard_normal(n)
        sens = rng.standard_normal(n)
        noise = rng.standard_normal((n, 8))
        values = (
            self.feature_offset
            + self.credibility_strength * np.outer(cred, _CRED_PATTERN)
            + self.sensationalism_strength * np.outer(sens, _SENS_PATTERN)
            + self.feature_noise_sd * noise
        )
        categories = np.repeat(
            np.array(CATEGORIES),
            [self.n_true_news, self.n_false_news, self.n_opinion, self.n_mundane],
        )
        return PoolPosts(FeatureMatrix(_post_ids(n), FEATURE_NAMES, values), categories, cred, sens)


@dataclass(frozen=True)
class SimConfig:
    participants: int
    feed_length: int = 120
    news_per_feed: int = 90
    pool: SyntheticPool = field(default_factory=SyntheticPool)
    params: GenerativeParams = field(default_factory=GenerativeParams)
    seed: int = 0

    def __post_init__(self):
        if self.participants < 0:
            raise ValueError("participants must be >= 0")
        if self.feed_length > self.pool.size:
            raise ValueError(
                f"feed_length {self.feed_length} exceeds pool size {self.pool.size}"
            )
        if not 0 <= self.news_per_feed <= self.feed_length:
            raise ValueError("news_per_feed must be within the feed length")


# ---------------------------------------------------------------------------
# Dataset simulation


def _sample_feed(
    news_idx: np.ndarray, other_idx: np.ndarray, config: SimConfig, rng: np.random.Generator
) -> np.ndarray:
    """Indices of one participant's feed, positions 1..feed_length.

    ``news_idx`` and ``other_idx`` split the pool's indices by category. When
    they support it, the feed mixes ``news_per_feed`` news posts with
    opinion/mundane posts, then shuffles; otherwise it is a uniform sample
    without replacement.
    """
    n_other = config.feed_length - config.news_per_feed
    if len(news_idx) >= config.news_per_feed and len(other_idx) >= n_other:
        chosen = np.concatenate(
            [
                rng.choice(news_idx, size=config.news_per_feed, replace=False),
                rng.choice(other_idx, size=n_other, replace=False),
            ]
        )
    else:
        chosen = rng.choice(len(news_idx) + len(other_idx), size=config.feed_length, replace=False)
    return rng.permutation(chosen)


def simulate_session(
    config: SimConfig, seed_seq: np.random.SeedSequence | None = None
) -> tuple[Dataset, PoolPosts, GenerativeParams]:
    """Simulate one study and also return the realized pool and resolved params."""
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    pool_seq, users_seq = seed_seq.spawn(2)
    pool = config.pool.realize(np.random.default_rng(pool_seq))
    params = resolve_marginal(config.params, pool.credibility, pool.sensationalism)
    is_news = np.isin(pool.categories, NEWS_CATEGORIES)
    news_idx, other_idx = np.flatnonzero(is_news), np.flatnonzero(~is_news)
    n, length = config.participants, config.feed_length
    feeds = np.empty((n, length), dtype=np.int64)
    dwell = np.empty((n, length))
    shared = np.empty((n, length), dtype=bool)
    liked = np.empty((n, length), dtype=bool)
    user_seqs = users_seq.spawn(n)
    for u in range(n):
        rng = np.random.default_rng(user_seqs[u])
        feeds[u] = _sample_feed(news_idx, other_idx, config, rng)
        out = simulate_impressions(
            pool.credibility[feeds[u]], pool.sensationalism[feeds[u]], params, rng
        )
        dwell[u] = out["dwell_observed"]
        shared[u] = out["shared"]
        liked[u] = out["liked"]
    # zero-padded ids are generated in sorted order, so a participant's index
    # and a feed's pool indices are the codes
    width = len(str(max(n, 1)))
    impressions = Impressions(
        participant_vocab=np.array([f"p_{u + 1:0{width}d}" for u in range(n)], dtype=str),
        participant_code=np.repeat(np.arange(n, dtype=np.int32), length),
        post_vocab=np.array(pool.post_ids(), dtype=str),
        post_code=feeds.ravel().astype(np.int32),
        position=np.tile(np.arange(1, length + 1), n),
        dwell_raw=dwell.ravel(),
        shared=shared.ravel(),
        liked=liked.ravel(),
    )
    provenance = {
        "generator": "feedlab.sim.simulate_dataset",
        "seed": config.seed,
        "config_digest": config_digest(config),
    }
    dataset = Dataset(pool.posts(), impressions, provenance)
    return dataset, pool, params


def simulate_dataset(config: SimConfig) -> Dataset:
    """Simulate a full study: every participant walks a sampled 1..n feed."""
    dataset, _, _ = simulate_session(config)
    return dataset


def pool_scores(pool: PoolPosts) -> list[PostScore]:
    """The pool's true (credibility, sensationalism) coordinates as scores."""
    return [
        PostScore(post_id=pid, pc_scores=(float(c), float(s)))
        for pid, c, s in zip(pool.post_ids(), pool.credibility, pool.sensationalism)
    ]


# ---------------------------------------------------------------------------
# Ranking policies


def expected_dwell(params: GenerativeParams, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Closed-form mean observed-attention dwell (log-normal mean)."""
    return np.exp(
        params.dwell_intercept
        + params.dwell_credibility * np.asarray(c)
        + params.dwell_sensationalism * np.asarray(s)
        + 0.5 * params.dwell_noise_sd**2
    )


def expected_engagement(
    params: GenerativeParams, c: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Engagement probability marginalized over stage-1 dwell noise.

    Gauss-Hermite quadrature over the dwell noise; exact (to quadrature
    accuracy) counterpart of simulating many impressions per post.
    """
    if not params.resolved:
        raise ValueError("params must carry the log-dwell marginal")
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    scale = params.logdwell_scale
    mean_log = (
        params.dwell_intercept
        + params.dwell_credibility * c
        + params.dwell_sensationalism * s
    )
    slope = params.engage_dwell + params.engage_dwell_sensationalism * s
    a = (
        params.engage_intercept
        + params.engage_credibility * c
        + params.engage_sensationalism * s
    )
    b = np.zeros_like(a)
    if scale > 0:
        a = a + slope * (mean_log - params.logdwell_loc) / scale
        b = slope * params.dwell_noise_sd / scale
    eta = a[:, None] + b[:, None] * (math.sqrt(2.0) * _GH_X)[None, :]
    return (sigmoid(eta) @ _GH_W) / math.sqrt(math.pi)


def rank_feed(
    policy: str,
    pool: PoolPosts,
    params: GenerativeParams,
    k: int,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Top-k post ids under a ranking policy; score ties break by post_id."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if k < 0 or k > pool.size:
        raise ValueError(f"k must be in 0..{pool.size}")
    ids = pool.post_ids()
    if policy == "chronological":
        return list(ids[:k])
    if policy == "random":
        if rng is None:
            raise ValueError("random policy needs an rng")
        order = rng.permutation(pool.size)
        return [ids[j] for j in order[:k]]
    if not params.resolved:
        params = resolve_marginal(params, pool.credibility, pool.sensationalism)
    if policy == "dwell_opt":
        scores = expected_dwell(params, pool.credibility, pool.sensationalism)
    else:
        scores = expected_engagement(params, pool.credibility, pool.sensationalism)
    order = np.lexsort((np.array(ids), -scores))
    return [ids[j] for j in order[:k].tolist()]


# ---------------------------------------------------------------------------
# Replications


def _map_replications(work: Callable, seed: int, replications: int, threads: int) -> list:
    """Run ``work`` once per replication on its own SeedSequence substream.

    Results come back in replication-index order whatever ``threads`` is, so
    a run is bit-identical at any thread count.
    """
    seqs = np.random.SeedSequence(seed).spawn(replications)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            return list(executor.map(work, seqs))
    return [work(sq) for sq in seqs]


# ---------------------------------------------------------------------------
# Policy experiments


@dataclass(frozen=True)
class PolicyOutcome:
    """Across-replication ecosystem metrics for one ranking policy."""

    policy: str
    mean_credibility: float
    se_credibility: float
    mean_sensationalism: float
    se_sensationalism: float
    engagement_rate: float
    se_engagement_rate: float
    mean_dwell_seconds: float
    se_mean_dwell: float
    replications: int

    def metric(self, name: str) -> tuple[float, float]:
        return {
            "mean_credibility": (self.mean_credibility, self.se_credibility),
            "mean_sensationalism": (self.mean_sensationalism, self.se_sensationalism),
            "engagement_rate": (self.engagement_rate, self.se_engagement_rate),
            "mean_dwell_seconds": (self.mean_dwell_seconds, self.se_mean_dwell),
        }[name]


def _replication_metrics(
    config: SimConfig,
    policies: Sequence[str],
    k: int,
    seed_seq: np.random.SeedSequence,
) -> dict[str, tuple[float, float, float, float]]:
    rng = np.random.default_rng(seed_seq)
    pool = config.pool.realize(rng)
    params = resolve_marginal(config.params, pool.credibility, pool.sensationalism)
    index = {pid: j for j, pid in enumerate(pool.post_ids())}
    out: dict[str, tuple[float, float, float, float]] = {}
    for policy in policies:
        top = rank_feed(policy, pool, params, k, rng=rng)
        idx = np.array([index[pid] for pid in top], dtype=int)
        sim = simulate_impressions(
            pool.credibility[idx], pool.sensationalism[idx], params, rng
        )
        out[policy] = (
            float(pool.credibility[idx].mean()),
            float(pool.sensationalism[idx].mean()),
            float(sim["engaged"].mean()),
            float(sim["dwell_observed"].mean()),
        )
    return out


def run_policy_experiment(
    config: SimConfig,
    policies: Sequence[str] = POLICIES,
    k: int = 20,
    replications: int = 100,
    threads: int = 1,
) -> list[PolicyOutcome]:
    """Per policy: rank a fresh pool, simulate one user session over the top-k,
    and aggregate ecosystem metrics across seeded replications."""
    if replications < 1:
        raise ValueError("need at least one replication")
    if k < 1:
        raise ValueError("k must be >= 1")
    work = lambda sq: _replication_metrics(config, policies, k, sq)
    per_rep = _map_replications(work, config.seed, replications, threads)

    outcomes = []
    for policy in policies:
        rows = np.array([rep[policy] for rep in per_rep])
        means = rows.mean(axis=0)
        if replications > 1:
            ses = rows.std(axis=0, ddof=1) / math.sqrt(replications)
        else:
            ses = np.zeros(4)
        # PolicyOutcome's fields after the policy alternate a metric's mean and SE
        pairs = np.column_stack([means, ses]).ravel().tolist()
        outcomes.append(PolicyOutcome(policy, *pairs, replications))
    return outcomes


# ---------------------------------------------------------------------------
# Parameter recovery


def align_scores_to_axes(
    scores: list[PostScore],
    post_ids: Sequence[str],
    credibility: np.ndarray,
    sensationalism: np.ndarray,
) -> tuple[list[PostScore], dict]:
    """Map estimated components onto the generating axes.

    Component order and sign are not identified by the component fit alone
    (close eigenvalues can swap; orientation is a convention), so recovery
    matches each axis to the estimated component that correlates with it
    most strongly, flipping signs to positive correlation. Returns rewritten
    scores whose first two entries are (credibility, sensationalism) plus
    the mapping metadata.
    """
    by_id = {s.post_id: s for s in scores}
    mat = np.array([by_id[pid].pc_scores for pid in post_ids])
    n_comp = mat.shape[1]
    targets = {"credibility": np.asarray(credibility), "sensationalism": np.asarray(sensationalism)}
    corr = {
        axis: np.array(
            [np.corrcoef(mat[:, j], vec)[0, 1] for j in range(n_comp)]
        )
        for axis, vec in targets.items()
    }
    cred_j = int(np.argmax(np.abs(corr["credibility"])))
    sens_j = int(np.argmax(np.abs(corr["sensationalism"])))
    if cred_j == sens_j:
        # extremely degenerate fit: force distinct components
        order = np.argsort(-np.abs(corr["sensationalism"]))
        sens_j = int(order[1]) if int(order[0]) == cred_j else int(order[0])
    cred_sign = 1.0 if corr["credibility"][cred_j] >= 0 else -1.0
    sens_sign = 1.0 if corr["sensationalism"][sens_j] >= 0 else -1.0
    aligned = [
        PostScore(
            post_id=pid,
            pc_scores=(
                float(cred_sign * by_id[pid].pc_scores[cred_j]),
                float(sens_sign * by_id[pid].pc_scores[sens_j]),
            ),
            mean_dwell=by_id[pid].mean_dwell,
        )
        for pid in post_ids
    ]
    meta = {
        "credibility_component": cred_j + 1,
        "credibility_sign": cred_sign,
        "credibility_abs_corr": float(abs(corr["credibility"][cred_j])),
        "sensationalism_component": sens_j + 1,
        "sensationalism_sign": sens_sign,
        "sensationalism_abs_corr": float(abs(corr["sensationalism"][sens_j])),
    }
    return aligned, meta


def stage1_recovery_spec() -> DesignSpec:
    """Dwell model matching the generative stage 1 (no engagement predictor)."""
    return DesignSpec(response="log_dwell", predictors=("credibility", "sensationalism"))


_STAGE1_TARGETS = {"credibility": "dwell_credibility", "sensationalism": "dwell_sensationalism"}
_STAGE2_TARGETS = {
    "dwell": "engage_dwell",
    "credibility": "engage_credibility",
    "sensationalism": "engage_sensationalism",
    "dwell:sensationalism": "engage_dwell_sensationalism",
}


@dataclass(frozen=True)
class RecoveryReport:
    generating: dict[str, float]
    replications: list[dict]
    summary: dict
    metadata: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _recover_once(
    config: SimConfig,
    rules: ExclusionRules,
    stage2_spec: DesignSpec,
    stage1_spec: DesignSpec,
    seed_seq: np.random.SeedSequence,
) -> dict:
    dataset, pool, params = simulate_session(config, seed_seq)

    cleaned = run_pipeline(dataset, rules)
    # no-adjustment control: same exclusions, raw dwell carried through
    stage1_kept, _ = apply_exclusions_stage1(dataset.impressions, rules)
    raw_kept, _ = apply_floor(replace(stage1_kept, dwell_adjusted=stage1_kept.dwell_raw), rules)

    fit = fit_feature_pca(pool.matrix)
    scores = project(fit, pool.matrix)
    aligned, align_meta = align_scores_to_axes(
        scores, pool.post_ids(), pool.credibility, pool.sensationalism
    )

    def fits_for(impressions):
        d1 = build_design(impressions, aligned, stage1_spec)
        d2 = build_design(impressions, aligned, stage2_spec)
        return fit_design(d1, stage1_spec), fit_design(d2, stage2_spec)

    s1_fit, s2_fit = fits_for(cleaned.impressions)
    _, s2_raw_fit = fits_for(raw_kept)

    def capture(fit_: RegressionFit, targets: dict[str, str]) -> dict:
        rows = {}
        for term, attr in targets.items():
            t = fit_.term(term)
            rows[term] = {
                "generating": getattr(params, attr),
                "estimate": t.estimate,
                "se": t.se,
                "within_3se": bool(abs(t.estimate - getattr(params, attr)) <= 3 * t.se),
            }
        return rows

    rep = {
        "stage1": capture(s1_fit, _STAGE1_TARGETS),
        "stage2": capture(s2_fit, _STAGE2_TARGETS),
        "stage2_raw_dwell_estimate": s2_raw_fit.term("dwell").estimate,
        "alignment": align_meta,
        "n_analysis_rows": s2_fit.n,
    }
    return rep


def parameter_recovery(
    config: SimConfig,
    rules: ExclusionRules | None = None,
    stage1_spec: DesignSpec | None = None,
    stage2_spec: DesignSpec | None = None,
    replications: int = 20,
    threads: int = 1,
) -> RecoveryReport:
    """Simulate -> preprocess -> score -> refit, against known parameters.

    Reports per-coefficient bias and 3-SE coverage across replications, and
    compares the stage-2 dwell coefficient with and without the motor-time
    adjustment (identical exclusions either way).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    rules = rules or ExclusionRules()
    stage1_spec = stage1_spec or stage1_recovery_spec()
    stage2_spec = stage2_spec or engagement_model_spec()
    work = lambda sq: _recover_once(config, rules, stage2_spec, stage1_spec, sq)
    reps = _map_replications(work, config.seed, replications, threads)

    all_terms = [("stage1", t) for t in _STAGE1_TARGETS] + [("stage2", t) for t in _STAGE2_TARGETS]
    summary: dict = {"coefficients": {}}
    for stage, term in all_terms:
        gen = reps[0][stage][term]["generating"]
        ests = np.array([r[stage][term]["estimate"] for r in reps])
        cover = np.mean([r[stage][term]["within_3se"] for r in reps])
        summary["coefficients"][f"{stage}.{term}"] = {
            "generating": gen,
            "mean_estimate": float(ests.mean()),
            "bias": float(ests.mean() - gen),
            "sd_estimate": float(ests.std(ddof=1)) if len(reps) > 1 else 0.0,
            "coverage_3se": float(cover),
        }
    all_within = [all(r[stage][term]["within_3se"] for stage, term in all_terms) for r in reps]
    gen_dwell = reps[0]["stage2"]["dwell"]["generating"]
    adj_ests = np.array([r["stage2"]["dwell"]["estimate"] for r in reps])
    raw_ests = np.array([r["stage2_raw_dwell_estimate"] for r in reps])
    summary["fraction_replications_all_within_3se"] = float(np.mean(all_within))
    summary["stage2_dwell_bias_adjusted"] = float(abs(adj_ests.mean() - gen_dwell))
    summary["stage2_dwell_bias_raw"] = float(abs(raw_ests.mean() - gen_dwell))

    params = config.params
    generating = {
        f"stage1.{t}": getattr(params, a) for t, a in _STAGE1_TARGETS.items()
    } | {f"stage2.{t}": getattr(params, a) for t, a in _STAGE2_TARGETS.items()}
    metadata = {
        "replications": replications,
        "participants": config.participants,
        "feed_length": config.feed_length,
        "rules": asdict(rules),
        "causal_structure": (
            "stage-1 dwell feeds stage-2 engagement; the reverse path is "
            "excluded by construction"
        ),
        "raw_comparison": "identical exclusions, motor-time adjustment skipped",
    }
    return RecoveryReport(generating, reps, summary, metadata)


# ---------------------------------------------------------------------------
# Config persistence


# the log-dwell marginal is always recomputed from the realized pool
_DERIVED_PARAMS = ("logdwell_loc", "logdwell_scale")


def config_to_dict(config: SimConfig) -> dict:
    """The config's fields, with the pool's kind and without the derived marginal."""
    d = asdict(config)
    d["pool"]["kind"] = "synthetic"
    d["params"] = {k: v for k, v in d["params"].items() if k not in _DERIVED_PARAMS}
    return d


def config_digest(config: SimConfig) -> str:
    return hashlib.sha256(
        json.dumps(config_to_dict(config), sort_keys=True).encode()
    ).hexdigest()


def save_sim_config(path: str | Path, config: SimConfig) -> None:
    write_json(path, config_to_dict(config))


def load_sim_config(path: str | Path) -> SimConfig:
    """Read sim_config.json; a missing or unknown field is a :class:`DataFormatError`."""
    d = json.loads(Path(path).read_text())
    pool, params = dict(d.get("pool", {"kind": "synthetic"})), d.get("params", {})
    kind = pool.pop("kind", None)
    if kind != "synthetic":
        raise ValueError(f"unsupported pool kind {kind!r}")
    derived = [k for k in _DERIVED_PARAMS if k in params]
    if derived:
        raise ValueError(
            f"{path}: params {', '.join(derived)} cannot be set; "
            "they are derived from the pool on every run"
        )
    return from_fields(
        SimConfig,
        d,
        pool=from_fields(SyntheticPool, pool),
        params=from_fields(GenerativeParams, params),
    )
