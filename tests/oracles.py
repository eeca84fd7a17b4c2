"""Independent oracle implementations used to check the estimation code.

These deliberately avoid the library's code paths: means by explicit
sum/count, OLS by normal equations, logistic ML by grid search, p-values by
permutation, sorting by a plain comparison sort, the simulators one
stream (participant or replication) at a time, and impressions.csv by one
``%`` format over a list of every cell.
"""

import csv
import io
import math

import numpy as np
from scipy import special

from feedlab.data import _IMPRESSION_FIELDS, NEWS_CATEGORIES
from feedlab.sim import (
    _GH_W,
    _GH_X,
    PolicyOutcome,
    expected_dwell,
)


def brute_force_cell_means(records):
    """(post_id, feature) -> mean by explicit sum and count."""
    sums, counts = {}, {}
    for r in records:
        key = (r.post_id, r.feature)
        sums[key] = sums.get(key, 0.0) + r.value
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def two_pass_column_stats(x):
    """Column means and n-1 SDs computed entry by entry."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    means = np.array([sum(x[i, j] for i in range(n)) / n for j in range(p)])
    sds = np.array(
        [
            (sum((x[i, j] - means[j]) ** 2 for i in range(n)) / (n - 1)) ** 0.5
            for j in range(p)
        ]
    )
    return means, sds


def normal_equations_ols(X, y):
    """beta = (X'X)^-1 X'y, solved directly."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(X.T @ X, X.T @ y)


def permutation_pearson_p(x, y, draws, seed):
    """Two-sided permutation p-value for the Pearson correlation."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc @ xc) * (yc @ yc))
    r_obs = abs((xc @ yc) / denom)
    hits = 0
    done = 0
    chunk = 20000
    while done < draws:
        m = min(chunk, draws - done)
        perms = rng.permuted(np.tile(yc, (m, 1)), axis=1)
        rs = np.abs(perms @ xc) / denom
        hits += int((rs >= r_obs - 1e-15).sum())
        done += m
    return hits / draws


def _logistic_loglik_grid(x, y, b0s, b1s):
    """Best (loglik, b0, b1) over a grid, for a 2-column [1, x] design."""
    best = (-np.inf, None, None)
    eta_x = np.outer(b1s, x)
    for i0 in range(0, len(b0s), 400):
        b0c = b0s[i0 : i0 + 400]
        eta = b0c[:, None, None] + eta_x[None, :, :]
        ll = (y * eta - np.logaddexp(0.0, eta)).sum(axis=2)
        j = np.unravel_index(np.argmax(ll), ll.shape)
        if ll[j] > best[0]:
            best = (float(ll[j]), float(b0c[j[0]]), float(b1s[j[1]]))
    return best


def grid_search_logistic_mle(x, y, lo=-5.0, hi=5.0, step=1e-3):
    """Grid argmax of the logistic log-likelihood on [lo, hi]^2.

    Coarse-to-fine refinement: the log-likelihood is concave, so the grid
    argmax at each resolution lies within one cell of the continuous
    optimum, and a +-3-cell window is a safe refinement bracket. Verified
    once against the exhaustive 1e-3 grid (1.0e8 points): identical argmax.
    """
    cur = 0.1
    b0s = np.round(np.arange(lo, hi + cur / 2, cur), 10)
    b1s = b0s
    _, c0, c1 = _logistic_loglik_grid(x, y, b0s, b1s)
    while cur > step:
        nxt = max(cur / 10.0, step)
        half = 3 * cur
        b0s = np.round(np.arange(max(lo, c0 - half), min(hi, c0 + half) + nxt / 2, nxt), 10)
        b1s = np.round(np.arange(max(lo, c1 - half), min(hi, c1 + half) + nxt / 2, nxt), 10)
        _, c0, c1 = _logistic_loglik_grid(x, y, b0s, b1s)
        cur = nxt
    return c0, c1


def comparison_sort_ranking(scores):
    """Full selection-sort ranking of (post_id, score) pairs, best first, ties by post_id."""
    items = list(scores)
    out = []
    while items:
        best = items[0]
        for cand in items[1:]:
            key_best = (-best[1], best[0])
            key_cand = (-cand[1], cand[0])
            if key_cand < key_best:
                best = cand
        out.append(best)
        items.remove(best)
    return out


def per_participant_ols(impressions):
    """Independent per-participant (intercept, slope) least squares.

    Returns only participants whose action counts vary.
    """
    pids, inverse = np.unique(impressions.participant_id, return_inverse=True)
    # each participant's rows, in row order
    rows = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    actions = impressions.shared.astype(float) + impressions.liked.astype(float)
    out = {}
    for pid, mine in zip(pids.tolist(), rows):
        a = actions[mine]
        y = impressions.dwell_raw[mine]
        sxx = ((a - a.mean()) ** 2).sum()
        if sxx == 0:
            continue
        slope = ((a - a.mean()) * (y - y.mean())).sum() / sxx
        out[pid] = (y.mean() - slope * a.mean(), slope)
    return out


def per_row_dwell_pipeline(impressions, rules, slope):
    """The dwell pipeline's exclusions and adjustment, one row at a time.

    ``slope(participant_id)`` is the fitted motor seconds per action. Returns
    the participants left after stage 1 in sorted order, the adjusted dwell
    of each stage-1 row in row order, and the removal count of each rule.
    """
    columns = (impressions.participant_id, impressions.position, impressions.dwell_raw,
               impressions.shared, impressions.liked)
    rows = list(zip(*(c.tolist() for c in columns)))
    length = {}
    for pid, position, _, _, _ in rows:
        length[pid] = max(length.get(pid, 0), position)
    removed = {"over_max_dwell": 0, "edge_positions": 0, "below_min_adjusted": 0}
    stage1 = []
    for pid, position, dwell, shared, liked in rows:
        if dwell > rules.max_dwell:
            removed["over_max_dwell"] += 1
        elif not rules.edge_trim < position <= length[pid] - rules.edge_trim:
            removed["edge_positions"] += 1
        else:
            stage1.append((pid, dwell, int(shared) + int(liked)))
    adjusted = [
        dwell if actions == 0 else max(0.0, dwell - slope(pid) * actions)
        for pid, dwell, actions in stage1
    ]
    removed["below_min_adjusted"] = sum(v < rules.min_adjusted_dwell for v in adjusted)
    return sorted({pid for pid, _, _ in stage1}), adjusted, removed


def mean_var_marginal(params, c, s):
    """The log-dwell marginal ``(loc, scale)`` through ``ndarray.mean``/``var``."""
    lin = (
        params.dwell_credibility * np.asarray(c, dtype=float)
        + params.dwell_sensationalism * np.asarray(s, dtype=float)
    )
    loc = params.dwell_intercept + float(lin.mean())
    scale = math.sqrt(float(lin.var()) + params.dwell_noise_sd**2)
    return loc, scale


def expit_expected_engagement(params, c, s, loc, scale):
    """Gauss-Hermite engagement probability with scipy's ``expit`` at every node."""
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    mean_log = (
        params.dwell_intercept + params.dwell_credibility * c + params.dwell_sensationalism * s
    )
    slope = params.engage_dwell + params.engage_dwell_sensationalism * s
    a = params.engage_intercept + params.engage_credibility * c + params.engage_sensationalism * s
    b = np.zeros_like(a)
    if scale > 0:
        a = a + slope * (mean_log - loc) / scale
        b = slope * params.dwell_noise_sd / scale
    eta = a[:, None] + b[:, None] * (math.sqrt(2.0) * _GH_X)[None, :]
    return (special.expit(eta) @ _GH_W) / math.sqrt(math.pi)


def choice_sample_feed(news_idx, other_idx, config, rng):
    """One participant's feed drawn by ``rng.choice`` over the index arrays themselves."""
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


def per_stream_impressions(c, s, params, loc, scale, rng):
    """One stream's two-stage draw: four variate arrays in order, then the model.

    Returns engaged, liked and observed dwell.
    """
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
    if scale > 0:
        z = (log_dwell - loc) / scale
    else:
        z = np.zeros(n)
    p_engage = special.expit(
        params.engage_intercept
        + params.engage_dwell * z
        + params.engage_credibility * c
        + params.engage_sensationalism * s
        + params.engage_dwell_sensationalism * z * s
    )
    engaged = u_engage < p_engage
    liked = engaged & (u_like < params.like_given_engage)
    action_count = engaged.astype(int) + liked.astype(int)
    motor = np.maximum(0.0, params.motor_mean + params.motor_sd * motor_eps)
    return engaged, liked, np.exp(log_dwell) + action_count * motor


def per_participant_session(config):
    """The study simulation one participant at a time, each drawing and
    evaluating its own feed: feeds (pool indices), dwell, shared and liked
    as (participants, feed_length) arrays."""
    pool_seq, users_seq = np.random.SeedSequence(config.seed).spawn(2)
    pool = config.pool.realize(np.random.default_rng(pool_seq))
    params = config.params
    loc, scale = mean_var_marginal(params, pool.credibility, pool.sensationalism)
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
        feeds[u] = choice_sample_feed(news_idx, other_idx, config, rng)
        shared[u], liked[u], dwell[u] = per_stream_impressions(
            pool.credibility[feeds[u]], pool.sensationalism[feeds[u]], params, loc, scale, rng
        )
    return feeds, dwell, shared, liked


def per_replication_policy_experiment(config, policies, k, replications):
    """The ranking-policy experiment one replication at a time: realize the
    pool, then per policy rank it (engagement by the ``expit`` quadrature,
    ties by post id through the id strings) and simulate one session over
    the top k."""
    per_rep = []
    for seed_seq in np.random.SeedSequence(config.seed).spawn(replications):
        rng = np.random.default_rng(seed_seq)
        pool = config.pool.realize(rng)
        c, s = pool.credibility, pool.sensationalism
        params = config.params
        loc, scale = mean_var_marginal(params, c, s)
        out = {}
        for policy in policies:
            if policy == "chronological":
                idx = np.arange(k)
            elif policy == "random":
                idx = rng.permutation(pool.size)[:k]
            else:
                if policy == "dwell_opt":
                    scores = expected_dwell(params, c, s)
                else:
                    scores = expit_expected_engagement(params, c, s, loc, scale)
                idx = np.lexsort((np.array(pool.post_ids()), -scores))[:k]
            engaged, _, dwell = per_stream_impressions(c[idx], s[idx], params, loc, scale, rng)
            out[policy] = (
                float(c[idx].mean()),
                float(s[idx].mean()),
                float(engaged.mean()),
                float(dwell.mean()),
            )
        per_rep.append(out)
    outcomes = []
    for policy in policies:
        rows = np.array([rep[policy] for rep in per_rep])
        means = rows.mean(axis=0)
        if replications > 1:
            ses = rows.std(axis=0, ddof=1) / math.sqrt(replications)
        else:
            ses = np.zeros(4)
        pairs = np.column_stack([means, ses]).ravel().tolist()
        outcomes.append(PolicyOutcome(policy, *pairs, replications))
    return outcomes


def csv_cell(value):
    """``value`` as a csv writer whose lines end in CRLF writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue()[:-3]


def percent_format_impressions(path, table):
    """impressions.csv as one ``%`` format over the interleaved cells: each id
    quoted as the csv module quotes it, ``%d`` for positions and bools and
    ``%.6f`` for dwells; an empty table writes the plain header."""
    values = [c for c in table._values() if c is not None][: 5 if len(table) else 4]
    columns = [[csv_cell(i) for i in ids.tolist()] for ids in (table.participant_id, table.post_id)]
    columns += (c.tolist() for c in values)
    width = len(columns)
    cells = [None] * (len(table) * width)
    for i, column in enumerate(columns):
        cells[i::width] = column
    line = ",".join(("%s", "%s", "%d", "%.6f", "%d", "%d", "%.6f")[:width]) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_IMPRESSION_FIELDS[:width]) + "\n")
        fh.write(line * len(table) % tuple(cells))
