"""Generative two-stage user model, feed-ranking policies, and recovery studies.

A simulated user processes each feed post in two stages:

* Stage 1 (exposure): attentional dwell is log-normal in the post's
  credibility and sensationalism scores,
  ``log dwell = b0 + b_cred*c + b_sens*s + Normal(0, noise_sd)``.
* Stage 2 (engagement): conditional on dwell, the user shares (and possibly
  likes) the post with probability
  ``logistic(g0 + g_dwell*z + g_cred*c + g_sens*s + g_dwell_sens*z*s)``
  where ``z`` is log dwell's z-score under the pool's log-dwell marginal,
  which :func:`log_dwell_marginal` works out from the params and the pool.

Observed dwell adds a motor cost per action, ``action_count * max(0,
Normal(motor_mean, motor_sd))``, recreating the confound the dwell pipeline
removes. The stage-1 direction (dwell causes engagement opportunity, not the
reverse) is a modeling commitment recorded in experiment metadata; the
descriptive association between engagement and dwell emerges from it.

Determinism: every run is seeded, with replication-indexed substreams
(`numpy` SeedSequence spawn keys) run one after another in index order.

Default intercepts, noise scales, and the like/share split are calibration
constants chosen for a plausible feed (base engagement rate near 10%); they
are configuration, not estimates.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from ._numeric import sigmoid
from .data import (
    CATEGORIES,
    FeatureMatrix,
    FEATURE_NAMES,
    Impressions,
    NEWS_CATEGORIES,
    Post,
    from_fields,
    read_json,
)
from .features import fit_feature_pca, project
from .pipeline import ExclusionRules, raw_dwell_control, run_pipeline
from .regression import (
    DesignSpec,
    RegressionFit,
    build_design,
    engagement_model_spec,
    fit_design,
)

# the 64-node Gauss-Hermite rule, computed once (tests/oracles.py's reference),
# and the nodes with a normalised weight over 1e-17 that expected_engagement
# sums, scaled to a standard-normal variable, with their normalised weights
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(64)
_GH_KEPT = _GH_W / math.sqrt(math.pi) > 1e-17
_GH_NODES = math.sqrt(2.0) * _GH_X[_GH_KEPT]
_GH_WEIGHTS = _GH_W[_GH_KEPT] / math.sqrt(math.pi)
# the bound of _engagement_bounds: the kept rule's total weight W, half its
# second moment M2 times the logistic's largest curvature max|s''| = 1/(6 sqrt 3),
# and an absolute margin far above the rounding of the node sum and the centre
_GH_MASS = float(_GH_WEIGHTS.sum())
_GH_CURVATURE = 0.5 * float(_GH_WEIGHTS @ _GH_NODES**2) / (6.0 * math.sqrt(3.0))
_BOUND_MARGIN = 1e-9

POLICIES = ("dwell_opt", "engage_opt", "random", "chronological")
# the across-replication metrics of a PolicyOutcome, in policy_outcomes.csv's order
POLICY_METRICS = (
    "mean_credibility", "mean_sensationalism", "engagement_rate", "mean_dwell_seconds"
)


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")


def _check_finite(obj) -> None:
    """A ValueError naming the first float field of dataclass ``obj`` that is not a
    finite float: NaN, ±inf, or an int too large to convert to one."""
    for f in fields(obj):
        if f.type == "float" and not abs(v := getattr(obj, f.name)) <= sys.float_info.max:
            got = repr(v) if isinstance(v, float) else "an integer too large for a float"
            raise ValueError(f"{f.name} must be finite, got {got}")


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

    def __post_init__(self):
        _check_finite(self)
        if self.dwell_noise_sd < 0 or self.motor_sd < 0:
            raise ValueError("noise SDs must be non-negative")
        if not 0.0 <= self.like_given_engage <= 1.0:
            raise ValueError("like_given_engage must be a probability")


def _mean_log_dwell(params: GenerativeParams, c, s):
    """Stage 1's mean log dwell, ``b0 + b_cred*c + b_sens*s``, summed left to right."""
    return params.dwell_intercept + params.dwell_credibility * c + params.dwell_sensationalism * s


def log_dwell_marginal(
    params: GenerativeParams, credibility: np.ndarray, sensationalism: np.ndarray
) -> tuple[float, float]:
    """The log-dwell marginal ``(loc, scale)`` of a pool: mean and SD over its
    posts, stage-1 noise included.

    The stage-2 dwell predictor is standardized against this marginal, the
    generative counterpart of z-scoring log dwell over the analysis sample.
    The reductions are called directly, without the wrappers of
    ``ndarray.mean``/``var``; they sum in the same order, so the bits are the same.
    """
    lin = (
        params.dwell_credibility * np.asarray(credibility, dtype=float)
        + params.dwell_sensationalism * np.asarray(sensationalism, dtype=float)
    )
    mean = np.add.reduce(lin) / lin.size
    x = lin - mean
    x *= x
    loc = params.dwell_intercept + float(mean)
    scale = math.sqrt(float(np.add.reduce(x) / lin.size) + params.dwell_noise_sd**2)
    return loc, scale


def _logit_terms(params: GenerativeParams, c, s, loc, scale) -> tuple[np.ndarray, np.ndarray]:
    """The terms ``a``, ``b`` of each post's stage-2 logit ``a + b z`` at the
    standard-normal dwell noise ``z``, log dwell z-scored against ``loc``/``scale``:
    the one logit that the simulator (:func:`_two_stage`) draws engagement from
    and the quadrature (:func:`expected_engagement`) integrates.

    ``a`` is ``g0 + g_cred*c + g_sens*s + slope * (mean log dwell - loc) / scale``
    and ``b`` is ``slope * noise_sd / scale``, where ``slope = g_dwell +
    g_dwell_sens*s``; where the scale is not positive, both dwell parts are 0.
    Every operation is element by element, so a post's terms do not depend on
    where it sits in ``c``.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    mean_log = _mean_log_dwell(params, c, s)
    slope = params.engage_dwell + params.engage_dwell_sensationalism * s
    a = (
        params.engage_intercept
        + params.engage_credibility * c
        + params.engage_sensationalism * s
    )
    spread = np.asarray(scale) > 0
    a += np.divide(slope * (mean_log - loc), scale, out=np.zeros_like(a), where=spread)
    b = np.divide(slope * params.dwell_noise_sd, scale, out=np.zeros_like(a), where=spread)
    return a, b


def _draw_variates(rng: np.random.Generator, eps, u_engage, u_like, motor_eps) -> None:
    """Fill one stream's four variate rows, in the model's fixed order."""
    rng.standard_normal(out=eps)
    rng.random(out=u_engage)
    rng.random(out=u_like)
    rng.standard_normal(out=motor_eps)


def _two_stage(
    c, s, params: GenerativeParams, loc, scale, eps, u_engage, u_like, motor_eps
) -> dict[str, np.ndarray]:
    """The two-stage model on posts' scores and their variates, arrays of any one
    broadcast shape; it draws nothing.

    ``loc``/``scale`` are the log-dwell marginal, which may broadcast against
    the block (one marginal per replication). The engagement probability is
    the logistic of ``a + b * eps``, the stage-2 logit of :func:`_logit_terms`
    at the dwell noise ``eps``, the one that :func:`expected_engagement`
    integrates. Every step is elementwise, so a block's cells are
    bit-identical to the same posts and variates evaluated one stream at a time.
    """
    dwell_attention = np.exp(_mean_log_dwell(params, c, s) + params.dwell_noise_sd * eps)
    a, b = _logit_terms(params, c, s, loc, scale)
    p_engage = sigmoid(a + b * eps)
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


def simulate_impressions(
    c: np.ndarray,
    s: np.ndarray,
    params: GenerativeParams,
    loc: float,
    scale: float,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Vectorized two-stage draw for a block of posts, z-scoring log dwell
    against the marginal ``loc``/``scale``.

    Exactly four variate arrays of ``c``'s size are drawn, in a fixed order
    (dwell noise, engage uniform, like uniform, motor noise), so a block's
    output depends only on the generator state on entry. That order is the
    contract the batched simulators keep: each stream draws its four rows in
    its own loop, and one :func:`_two_stage` call evaluates all of them.
    Engagement is drawn from the stage-2 logit of :func:`_logit_terms`, the
    one :func:`expected_engagement` integrates.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    variates = np.empty((4, c.size))
    _draw_variates(rng, *variates)
    return _two_stage(c, s, params, loc, scale, *variates)


# ---------------------------------------------------------------------------
# Post pools


@dataclass(frozen=True, eq=False)
class PoolPosts:
    """A realized post pool: categories, true score coordinates and the feature noise.

    Row ``i`` of every array is the post ``post_ids[i]``. ``noise`` is the
    (posts, 8) standard-normal feature noise that ``source`` drew, from which
    ``matrix`` builds the features when first read. A pool equals only itself
    and hashes by identity, as field-wise equality over arrays has no truth value.
    """

    post_ids: tuple[str, ...]
    categories: np.ndarray
    credibility: np.ndarray
    sensationalism: np.ndarray
    noise: np.ndarray
    source: SyntheticPool

    @functools.cached_property
    def matrix(self) -> FeatureMatrix:
        """The features as a checked table, one column per ``FEATURE_NAMES`` entry,
        built when first read: the policy experiment realizes a pool per
        replication and never reads them. The values are ``offset + cred_strength *
        outer(cred, pattern) + sens_strength * outer(sens, pattern) + noise_sd *
        noise`` under ``source``'s settings, summed left to right in place.
        """
        src = self.source
        values = np.multiply.outer(self.credibility, _CRED_PATTERN)
        values *= src.credibility_strength
        values += src.feature_offset
        sens_part = np.multiply.outer(self.sensationalism, _SENS_PATTERN)
        sens_part *= src.sensationalism_strength
        values += sens_part
        values += self.noise * src.feature_noise_sd
        return FeatureMatrix(self.post_ids, FEATURE_NAMES, values)

    @property
    def size(self) -> int:
        return len(self.post_ids)

    def posts(self) -> tuple[Post, ...]:
        """The pool's post records; the features are ``matrix``."""
        return tuple(
            Post(pid, f"Synthetic headline {i + 1}", "synthetic", category)
            for i, (pid, category) in enumerate(zip(self.post_ids, self.categories.tolist()))
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
def _padded_ids(prefix: str, n: int) -> tuple[str, ...]:
    """The synthetic ids of ``n`` rows, ``prefix`` then 1..n zero-padded to one width.
    They sort in row order, so a row's index is its code into their sorted vocabulary."""
    width = len(str(n))
    return tuple(f"{prefix}{i + 1:0{width}d}" for i in range(n))


@functools.cache
def _categories(*counts: int) -> np.ndarray:
    """The read-only categories of a pool holding ``counts`` posts of each of CATEGORIES."""
    categories = np.repeat(np.array(CATEGORIES), counts)
    categories.flags.writeable = False
    return categories


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

    def __post_init__(self):
        _check_finite(self)
        for name in ("n_true_news", "n_false_news", "n_opinion", "n_mundane"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.feature_noise_sd < 0:
            raise ValueError("feature_noise_sd must be non-negative")

    @property
    def size(self) -> int:
        return self.n_true_news + self.n_false_news + self.n_opinion + self.n_mundane

    def realize(self, rng: np.random.Generator) -> PoolPosts:
        """Draw one pool: credibility, sensationalism, then the feature noise.

        The 10 normals per post come from one ``standard_normal`` call, the
        same stream (and generator state after it) as drawing n, n and (n, 8)
        in turn. They are made read-only, so the features that
        :attr:`PoolPosts.matrix` builds when first read are those of the draw.
        Every pool of one composition shares its post ids and its read-only
        categories array.
        """
        n = self.size
        draws = rng.standard_normal(10 * n)
        draws.flags.writeable = False
        categories = _categories(
            self.n_true_news, self.n_false_news, self.n_opinion, self.n_mundane
        )
        return PoolPosts(
            _padded_ids("post_", n), categories, draws[:n], draws[n : 2 * n],
            draws[2 * n :].reshape(n, 8), self,
        )


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.pool.size < 1:
            raise ValueError("the post pool must hold at least one post")
        if self.feed_length > self.pool.size:
            raise ValueError(
                f"feed_length {self.feed_length} exceeds pool size {self.pool.size}"
            )
        if not 0 <= self.news_per_feed <= self.feed_length:
            raise ValueError("news_per_feed must be within the feed length")


# ---------------------------------------------------------------------------
# Study simulation


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
        # choice over a length draws what choice over the array draws
        # (``a[choice(len(a))]``), without its per-call argument handling
        chosen = np.concatenate(
            [
                news_idx[rng.choice(len(news_idx), size=config.news_per_feed, replace=False)],
                other_idx[rng.choice(len(other_idx), size=n_other, replace=False)],
            ]
        )
    else:
        chosen = rng.choice(len(news_idx) + len(other_idx), size=config.feed_length, replace=False)
    return rng.permutation(chosen)


def simulate_session(
    config: SimConfig, seed_seq: np.random.SeedSequence | None = None
) -> tuple[Impressions, PoolPosts]:
    """Simulate one study: its impressions and the realized pool.

    Log dwell is z-scored against the pool's :func:`log_dwell_marginal`.
    Each participant is one stream on its own spawned generator, which draws
    the feed and then the four variate rows of :func:`simulate_impressions`.
    The loop only draws; one :func:`_two_stage` call then evaluates the whole
    (participants, feed_length) block, bit-identical to one call per participant.
    """
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    pool_seq, users_seq = seed_seq.spawn(2)
    pool = config.pool.realize(np.random.default_rng(pool_seq))
    loc, scale = log_dwell_marginal(config.params, pool.credibility, pool.sensationalism)
    is_news = np.isin(pool.categories, NEWS_CATEGORIES)
    news_idx, other_idx = np.flatnonzero(is_news), np.flatnonzero(~is_news)
    n, length = config.participants, config.feed_length
    feeds = np.empty((n, length), dtype=np.int64)
    variates = np.empty((4, n, length))
    for u, user_seq in enumerate(users_seq.spawn(n)):
        rng = np.random.default_rng(user_seq)
        feeds[u] = _sample_feed(news_idx, other_idx, config, rng)
        _draw_variates(rng, *variates[:, u])
    out = _two_stage(
        pool.credibility[feeds], pool.sensationalism[feeds], config.params, loc, scale, *variates
    )
    impressions = Impressions(
        participant_vocab=np.array(_padded_ids("p_", n), dtype=str),
        participant_code=np.repeat(np.arange(n, dtype=np.int32), length),
        post_vocab=np.array(pool.post_ids, dtype=str),
        post_code=feeds.ravel().astype(np.int32),
        position=np.tile(np.arange(1, length + 1), n),
        dwell_raw=out["dwell_observed"].ravel(),
        shared=out["shared"].ravel(),
        liked=out["liked"].ravel(),
    )
    return impressions, pool


# ---------------------------------------------------------------------------
# Ranking policies


def expected_dwell(params: GenerativeParams, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Closed-form mean observed-attention dwell (log-normal mean)."""
    return np.exp(
        _mean_log_dwell(params, np.asarray(c), np.asarray(s)) + 0.5 * params.dwell_noise_sd**2
    )


def _node_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kept nodes' weighted sum of the logistic at ``a + b z``, per post."""
    eta = np.multiply.outer(b, _GH_NODES)
    eta += a[..., None]
    sigmoid(eta, out=eta)
    eta *= _GH_WEIGHTS
    # a reduction along the contiguous node axis adds every post's 42 terms in
    # one order, wherever the post sits and however many there are
    return eta.sum(axis=-1)


def _engagement_bounds(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(centre, half_width)`` such that :func:`_node_sum` at ``a``, ``b`` lies
    in ``centre +- half_width``.

    The kept nodes and weights are symmetric about 0, so the first-order term
    of the logistic's Taylor expansion about ``a`` cancels, and the sum is
    within ``max|s''| / 2 * M2 * b**2`` of ``W * s(a)``; ``_BOUND_MARGIN`` covers
    the rounding of both sums.
    """
    centre = sigmoid(a) * _GH_MASS
    with np.errstate(over="ignore"):
        half_width = b * b
    half_width *= _GH_CURVATURE
    half_width += _BOUND_MARGIN
    return centre, half_width


def expected_engagement(
    params: GenerativeParams,
    c: np.ndarray,
    s: np.ndarray,
    loc: float | np.ndarray,
    scale: float | np.ndarray,
) -> np.ndarray:
    """Engagement probability marginalized over stage-1 dwell noise, log dwell
    z-scored against the marginal ``loc``/``scale``.

    Gauss-Hermite quadrature over the dwell noise; exact (to quadrature
    accuracy) counterpart of simulating many impressions per post.

    ``c``/``s`` may be one pool's posts, a ``(pools, posts)`` block or any
    gathered posts; ``loc``/``scale`` broadcast against them: a scalar, a
    ``(pools, 1)`` column (one marginal per pool) or one value per post. A
    post's score is bit-identical wherever it sits and whatever else is
    scored with it: every step is element by element, and the node sum adds
    each post's terms in one order. Where the scale is not positive, the
    dwell noise does not move the score.

    The sum runs over the 42 of the 64 Gauss-Hermite nodes whose normalised
    weight exceeds 1e-17 (``_GH_NODES``); the dropped 22 weigh 2.7e-18 in
    all, so a score is within 3e-18 of the full rule's, plus the last bits
    of the sum's order. The logit at each node is the simulator's
    (:func:`_logit_terms`, as in :func:`_two_stage`), and its logistic is
    ``_numeric.sigmoid`` over one (..., posts, 42) buffer. A score can differ
    from one computed with scipy's ``expit`` in its last bits and from one
    CPU to another; the scores only rank posts, and rankings and every
    output built on them do not change.
    """
    return _node_sum(*_logit_terms(params, c, s, loc, scale))


def _top_k_engagement(params: GenerativeParams, c, s, loc, scale, k: int) -> np.ndarray:
    """Per pool of ``c``/``s``: :func:`expected_engagement` at each post that can
    reach the pool's top k, and -inf at the others.

    A post is left out when its upper bound (:func:`_engagement_bounds`) is
    below the k-th largest lower bound in its pool: k posts then score more,
    so it is not in the top k, whatever the ties. The candidates (about 31
    of 276 at the default params) are gathered and scored in one
    ``expected_engagement`` call, each to the same bits as in a call on its
    whole pool, so the top k and its order are those of scoring every post.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    centre, half_width = _engagement_bounds(*_logit_terms(params, c, s, loc, scale))
    kth_lower = np.partition(centre - half_width, -k, axis=-1)[..., -k, None]
    candidate = centre + half_width >= kth_lower
    scores = np.full(c.shape, -np.inf)
    scores[candidate] = expected_engagement(
        params,
        c[candidate],
        s[candidate],
        np.broadcast_to(loc, c.shape)[candidate],
        np.broadcast_to(scale, c.shape)[candidate],
    )
    return scores


def _id_order(ids: Sequence[str]) -> np.ndarray:
    """A pool's rows in post-id order."""
    return np.argsort(np.array(ids), kind="stable")


def _rank_rows(
    policy: str, params: GenerativeParams, c, s, loc, scale, by_id: np.ndarray, k: int
) -> np.ndarray:
    """Per row of a pool or a ``(pools, posts)`` block: the rows of its top k
    posts under a deterministic policy, best first, as a new int array.

    ``chronological`` keeps the first k rows. ``loc``/``scale`` are each
    pool's log-dwell marginal, and ``by_id`` the posts' id order, in which
    score ties break. ``engage_opt`` scores only the posts that can reach the
    top k (:func:`_top_k_engagement`); the others sort last and are never kept.
    """
    if policy == "chronological":
        return np.tile(np.arange(k), (*np.shape(c)[:-1], 1))
    if policy == "dwell_opt":
        scores = expected_dwell(params, c, s)
    else:
        scores = _top_k_engagement(params, c, s, loc, scale, k)
    return by_id[np.argsort(-scores[..., by_id], axis=-1, kind="stable")[..., :k]]


def rank_feed(
    policy: str,
    pool: PoolPosts,
    params: GenerativeParams,
    k: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The pool rows of the top k posts under a ranking policy, best first.

    ``random`` is a permutation drawn from ``rng``; the other policies are ranked by
    :func:`_rank_rows`: score ties break by post id, ``engage_opt`` scores against the
    pool's :func:`log_dwell_marginal` and ``chronological`` takes the first k rows. At
    k = 0 none is scored, as an empty pool has no marginal. The array is new and writable.
    """
    _check_policy(policy)
    if k < 0 or k > pool.size:
        raise ValueError(f"k must be in 0..{pool.size}")
    if policy == "random":
        if rng is None:
            raise ValueError("random policy needs an rng")
        return rng.permutation(pool.size)[:k]
    if k == 0:
        return np.empty(0, dtype=np.intp)
    c, s = pool.credibility, pool.sensationalism
    marginal = log_dwell_marginal(params, c, s)
    return _rank_rows(policy, params, c, s, *marginal, _id_order(pool.post_ids), k)


# ---------------------------------------------------------------------------
# Replications


def _replication_streams(seed: int, replications: int) -> list[np.random.SeedSequence]:
    """One SeedSequence substream per replication, in index order. Callers run the
    replications one after another in the calling thread."""
    if replications < 1:
        raise ValueError("need at least one replication")
    return np.random.SeedSequence(seed).spawn(replications)


# ---------------------------------------------------------------------------
# Policy experiments

# replications that run_policy_experiment ranks per _rank_rows call. The
# bounds leave ~31 of 276 posts per pool to the quadrature, so a chunk's
# buffers are small and larger chunks spread the calls' fixed cost: at 250
# replications (k = 20, 2-vCPU Xeon, median of 9) chunks of 4, 8, 16, 32 and
# 64 ran 38.8, 36.8, 34.9, 33.8 and 34.4 ms, and the whole block in one call
# 34.1 ms, with a traced peak of 29 MB at 1000 replications. 16 keeps the
# benchmark's peak RSS where chunks of 4 left it; 32 read 0.6 MB above.
_RANK_CHUNK = 16


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
        """The mean and SE of one of ``POLICY_METRICS``."""
        values, j = astuple(self), 1 + 2 * POLICY_METRICS.index(name)
        return values[j], values[j + 1]


def run_policy_experiment(
    config: SimConfig,
    policies: Sequence[str] = POLICIES,
    k: int = 20,
    replications: int = 100,
    threads: int = 1,
) -> list[PolicyOutcome]:
    """Per policy: rank a fresh pool, simulate one user session over the top-k,
    and aggregate ecosystem metrics across seeded replications.

    Each replication is one stream on its own spawned generator. It realizes
    the pool, works out its :func:`log_dwell_marginal` and keeps the pool's
    credibility and sensationalism as one row of a (replications, pool)
    block; then, per policy in argument order, it draws the ``random`` rows
    through :func:`rank_feed` (for that policy only) and the four variate
    rows of :func:`simulate_impressions`. After the loop, :func:`_rank_rows`
    picks every other policy's rows, ``_RANK_CHUNK`` replications at a time,
    into the same (policies, replications, k) block of pool rows; their
    credibility and sensationalism are gathered once, and one
    :func:`_two_stage` call evaluates the whole block. Every value is
    bit-identical to ranking and simulating one replication at a time. Each policy must be one of
    ``POLICIES``, named once, and k must be in 1..pool size. ``threads`` is
    accepted and unused; it stays only because ``perfbench/workloads.py`` passes it.
    """
    streams = _replication_streams(config.seed, replications)
    n = config.pool.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    for policy in policies:
        _check_policy(policy)
    repeated = sorted({p for p in policies if policies.count(p) > 1})
    if repeated:
        raise ValueError(f"policies named more than once: {repeated}")
    params = config.params
    block = (len(policies), replications, k)
    rows = np.empty(block, dtype=np.intp)
    cred, sens = np.empty((replications, n)), np.empty((replications, n))
    loc, scale = np.empty((replications, 1)), np.empty((replications, 1))
    variates = np.empty((4, *block))

    for r, seed_seq in enumerate(streams):
        rng = np.random.default_rng(seed_seq)
        pool = config.pool.realize(rng)
        cred[r], sens[r] = pool.credibility, pool.sensationalism
        loc[r], scale[r] = log_dwell_marginal(params, pool.credibility, pool.sensationalism)
        for j, policy in enumerate(policies):
            if policy == "random":
                rows[j, r] = rank_feed(policy, pool, params, k, rng=rng)
            _draw_variates(rng, *variates[:, j, r])
    by_id = _id_order(_padded_ids("post_", n))
    for j, policy in enumerate(policies):
        if policy != "random":
            for start in range(0, replications, _RANK_CHUNK):
                chunk = slice(start, start + _RANK_CHUNK)
                rows[j, chunk] = _rank_rows(
                    policy, params, cred[chunk], sens[chunk], loc[chunk], scale[chunk], by_id, k
                )
    c = np.take_along_axis(cred[None], rows, axis=2)
    s = np.take_along_axis(sens[None], rows, axis=2)
    # the two-stage model needs only the top k rows: free the pool block first
    del cred, sens
    sim = _two_stage(c, s, params, loc, scale, *variates)
    # (policies, replications, metric), each metric a mean over the k posts of a row
    metrics = (c, s, sim["engaged"], sim["dwell_observed"])
    per_rep = np.stack([m.mean(axis=2) for m in metrics], axis=2)

    outcomes = []
    for policy, rows in zip(policies, per_rep):
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
    scores: FeatureMatrix,
    credibility: np.ndarray,
    sensationalism: np.ndarray,
) -> tuple[FeatureMatrix, dict]:
    """Map estimated components onto the generating axes.

    Component order and sign are not identified by the component fit alone
    (close eigenvalues can swap; orientation is a convention), so recovery
    matches each axis in turn, credibility first, to the estimated component
    that correlates with it most strongly in absolute value (the lowest
    index among ties); when credibility has already taken that component,
    sensationalism takes its next-best one. Signs flip to positive
    correlation. ``scores``' rows are the posts of
    ``credibility``/``sensationalism``, in that order. Returns the scores
    table with columns ``pc1``, ``pc2`` = (credibility, sensationalism) plus
    the mapping metadata.
    """
    mat = scores.values
    columns, meta, taken = [], {}, set()
    for axis, vec in (("credibility", credibility), ("sensationalism", sensationalism)):
        r = np.array([np.corrcoef(mat[:, j], vec)[0, 1] for j in range(mat.shape[1])])
        j = next(int(j) for j in np.argsort(-np.abs(r), kind="stable") if j not in taken)
        taken.add(j)
        sign = 1.0 if r[j] >= 0 else -1.0
        columns.append(sign * mat[:, j])
        meta[f"{axis}_component"], meta[f"{axis}_sign"] = j + 1, sign
        meta[f"{axis}_abs_corr"] = float(abs(r[j]))
    aligned = FeatureMatrix(scores.post_ids, ("pc1", "pc2"), np.column_stack(columns))
    return aligned, meta


# the dwell model matching the generative stage 1 (no engagement predictor)
STAGE1_RECOVERY_SPEC = DesignSpec(
    response="log_dwell", predictors=("credibility", "sensationalism")
)


# the GenerativeParams field that each recovered (stage, term) estimates
_TARGETS = {
    ("stage1", "credibility"): "dwell_credibility",
    ("stage1", "sensationalism"): "dwell_sensationalism",
    ("stage2", "dwell"): "engage_dwell",
    ("stage2", "credibility"): "engage_credibility",
    ("stage2", "sensationalism"): "engage_sensationalism",
    ("stage2", "dwell:sensationalism"): "engage_dwell_sensationalism",
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
    config: SimConfig, rules: ExclusionRules, seed_seq: np.random.SeedSequence
) -> dict:
    impressions, pool = simulate_session(config, seed_seq)

    cleaned = run_pipeline(impressions, rules)
    raw_kept = raw_dwell_control(cleaned, rules)

    fit = fit_feature_pca(pool.matrix)
    scores = project(fit, pool.matrix)
    aligned, align_meta = align_scores_to_axes(scores, pool.credibility, pool.sensationalism)

    def fit_spec(impressions, spec: DesignSpec) -> RegressionFit:
        return fit_design(build_design(impressions, aligned, spec), spec)

    specs = {"stage1": STAGE1_RECOVERY_SPEC, "stage2": engagement_model_spec()}
    fits = {stage: fit_spec(cleaned.impressions, spec) for stage, spec in specs.items()}
    rep = {"stage1": {}, "stage2": {}, "alignment": align_meta, "n_analysis_rows": fits["stage2"].n}
    # the no-adjustment control needs only the stage-2 dwell coefficient
    rep["stage2_raw_dwell_estimate"] = fit_spec(raw_kept, specs["stage2"]).term("dwell").estimate
    for (stage, term), attr in _TARGETS.items():
        t, generating = fits[stage].term(term), getattr(config.params, attr)
        rep[stage][term] = {
            "generating": generating,
            "estimate": t.estimate,
            "se": t.se,
            "within_3se": bool(abs(t.estimate - generating) <= 3 * t.se),
        }
    return rep


def parameter_recovery(
    config: SimConfig,
    rules: ExclusionRules | None = None,
    replications: int = 20,
    threads: int = 1,
) -> RecoveryReport:
    """Simulate -> preprocess -> score -> refit, against known parameters.

    Reports per-coefficient bias and 3-SE coverage across replications, and
    compares the stage-2 dwell coefficient with and without the motor-time
    adjustment (identical exclusions either way). ``threads`` is accepted and
    unused; it stays only because ``perfbench/workloads.py`` passes it.
    """
    streams = _replication_streams(config.seed, replications)
    rules = rules or ExclusionRules()
    reps = [_recover_once(config, rules, seed_seq) for seed_seq in streams]

    generating = {f"{st}.{t}": getattr(config.params, a) for (st, t), a in _TARGETS.items()}
    summary: dict = {"coefficients": {}}
    for (stage, term), gen in zip(_TARGETS, generating.values()):
        ests = np.array([r[stage][term]["estimate"] for r in reps])
        cover = np.mean([r[stage][term]["within_3se"] for r in reps])
        summary["coefficients"][f"{stage}.{term}"] = {
            "generating": gen,
            "mean_estimate": float(ests.mean()),
            "bias": float(ests.mean() - gen),
            "sd_estimate": float(ests.std(ddof=1)) if len(reps) > 1 else 0.0,
            "coverage_3se": float(cover),
        }
    all_within = [all(r[stage][term]["within_3se"] for stage, term in _TARGETS) for r in reps]
    raw_ests = np.array([r["stage2_raw_dwell_estimate"] for r in reps])
    summary["fraction_replications_all_within_3se"] = float(np.mean(all_within))
    summary["stage2_dwell_bias_adjusted"] = abs(summary["coefficients"]["stage2.dwell"]["bias"])
    summary["stage2_dwell_bias_raw"] = float(abs(raw_ests.mean() - generating["stage2.dwell"]))

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


def config_to_dict(config: SimConfig) -> dict:
    """The config's fields, with the pool's kind."""
    d = asdict(config)
    d["pool"]["kind"] = "synthetic"
    return d


def config_digest(config: SimConfig) -> str:
    return hashlib.sha256(
        json.dumps(config_to_dict(config), sort_keys=True).encode()
    ).hexdigest()


def load_sim_config(path: str | Path) -> SimConfig:
    """Read sim_config.json, whose pool must be of kind ``"synthetic"``."""

    def pool(value) -> SyntheticPool:
        if isinstance(value, dict) and (kind := value.pop("kind", None)) != "synthetic":
            raise TypeError(f"must be of kind 'synthetic', got {kind!r}")
        return from_fields(SyntheticPool, value, path, "pool")

    return from_fields(
        SimConfig, read_json(path), path, "the config",
        pool=pool, params=lambda value: from_fields(GenerativeParams, value, path, "params"),
    )
