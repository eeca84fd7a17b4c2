"""Independent oracle implementations used to check the estimation code.

These deliberately avoid the library's code paths: means by explicit
sum/count, OLS by normal equations and by the full Q of one QR, logistic
ML by grid search, p-values by permutation, sorting by a plain comparison
sort, the simulators one stream (participant or replication) at a time,
the axis alignment with one branch per axis, a pool's features drawn in three
calls and built at once,
impressions.csv by one ``%`` format over a list of every cell, the
movement-time EM with one array per participant moment, and the IRLS
logistic with ``logaddexp`` on a C-ordered design.
"""

import csv
import io
import math
import warnings

import numpy as np
from scipy import special

from feedlab.data import _IMPRESSION_FIELDS, NEWS_CATEGORIES, FeatureMatrix
from feedlab.pipeline import _VAR_FLOOR, EM_LL_RTOL, MovementModel, ParticipantFit
from feedlab.regression import IRLS_DEVIANCE_RTOL, IRLS_GRADIENT_TOL, SEPARATION_COEF_BOUND
from feedlab.sim import (
    _CRED_PATTERN,
    _GH_W,
    _GH_X,
    _SENS_PATTERN,
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


def q_residual_ols(X, y):
    """OLS from the full Q of ``np.linalg.qr(X)``: beta = R^-1 Q'y, and the
    residual sum of squares from the residual vector y - X beta.

    Returns a dict of beta, se, r_squared, residual_sd and df_resid.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    Q, R = np.linalg.qr(X)
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    sigma2 = rss / (n - k)
    Rinv = np.linalg.solve(R, np.eye(k))
    tss = float(((y - y.mean()) ** 2).sum())
    return {"beta": beta, "se": np.sqrt(np.diag(sigma2 * (Rinv @ Rinv.T))),
            "r_squared": 1.0 - rss / tss, "residual_sd": math.sqrt(sigma2), "df_resid": n - k}


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


def stable_argsort_top_k(scores, by_id, k):
    """Per row of ``scores``: the positions of its k highest, best first, from a
    stable argsort of every negated score in ``by_id`` order, so ties break by
    id and NaN ranks last."""
    return by_id[np.argsort(-scores[..., by_id], axis=-1, kind="stable")[..., :k]]


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


def pooled_ols_start(n, sum_a, sum_a2, sum_y, sum_ay, sum_y2):
    """The EM's start values: the pooled OLS line through every impression
    and its residual variance, from per-participant moment arrays."""
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


def per_moment_movement_em(impressions, max_iter):
    """The movement-time EM written term by term, one array per participant
    moment, at most ``max_iter`` iterations, with the library's warnings.

    ``pipeline.fit_movement_model`` sums over participants from population
    totals and constant blocks, so its floats differ from these by rounding
    only; its iteration count, warnings and participants must be equal.
    """
    pids, g, counts = impressions.groups("participant")
    y = impressions.dwell_raw
    a = impressions.action_count.astype(float)
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

    mu, sigma2 = pooled_ols_start(n_i, sum_a, sum_a2, sum_y, sum_ay, sum_y2)
    tau0 = max(0.1 * sigma2, 1e-6)
    tau2 = np.array([tau0, 0.0 if slope_pinned else tau0])
    N = float(n_i.sum())
    sxx = np.array([[n_i.sum(), sum_a.sum()], [sum_a.sum(), sum_a2.sum()]])

    def e_step(mu, tau2, sigma2):
        g1, g2 = tau2
        r12 = math.sqrt(g1 * g2)
        a11 = 1.0 + g1 * n_i / sigma2
        a12 = r12 * sum_a / sigma2
        a22 = 1.0 + g2 * sum_a2 / sigma2
        det = a11 * a22 - a12 * a12
        s11 = g1 * a22 / det
        s12 = -r12 * a12 / det
        s22 = g2 * a11 / det
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
    for iterations in range(1, max_iter + 1):
        m1, m2, s11, s12, s22, ll = e_step(mu, tau2, sigma2)
        if abs(ll - ll_prev) < EM_LL_RTOL * max(1.0, abs(ll_prev)):
            converged = True
            break
        ll_prev = ll
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
            f"movement-time EM stopped at EM_MAX_ITER={max_iter} iterations "
            "without converging; the fit may be unreliable"
        )

    m1, m2, s11, s12, s22, ll = e_step(mu, tau2, sigma2)
    participants = {
        pid: ParticipantFit(float(mu[0] + m1[i]), float(mu[1] + m2[i]))
        for i, pid in enumerate(pids.tolist())
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


def logaddexp_irls(X, y, max_iter=100):
    """Logistic ML by IRLS with step-halving on a C-ordered X, the deviance
    summed with ``np.logaddexp``: ``regression.fit_logistic``'s iteration
    without its rank check or its Fortran-ordered buffers.

    Returns a dict of beta, se, deviance, iterations, converged and warnings.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def deviance(eta):
        return float(2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta))

    def sigmoid(eta):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-eta))

    beta = np.zeros(X.shape[1])
    if np.all(X[:, 0] == 1.0):
        pbar = min(max(y.mean(), 1e-6), 1 - 1e-6)
        beta[0] = math.log(pbar / (1 - pbar))
    eta = X @ beta
    dev = deviance(eta)
    p = sigmoid(eta)
    grad = X.T @ (y - p)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = np.clip(p * (1.0 - p), 1e-12, None)
        step = np.linalg.solve(X.T @ (w[:, None] * X), grad)
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            cand_eta = X @ candidate
            cand_dev = deviance(cand_eta)
            if cand_dev <= dev + 1e-12:
                break
            scale *= 0.5
        beta, eta = candidate, cand_eta
        prev_dev, dev = dev, cand_dev
        p = sigmoid(eta)
        grad = X.T @ (y - p)
        if (np.max(np.abs(grad)) < IRLS_GRADIENT_TOL
                or abs(prev_dev - dev) < IRLS_DEVIANCE_RTOL * (abs(prev_dev) + 1e-30)):
            converged = True
            break
    fit_warnings = []
    if not converged:
        fit_warnings.append(f"IRLS did not converge in {max_iter} iterations")
    if np.max(np.abs(beta)) > SEPARATION_COEF_BOUND:
        fit_warnings.append(
            f"coefficient magnitude exceeds {SEPARATION_COEF_BOUND}; possible separation"
        )
    w = np.clip(p * (1.0 - p), 1e-12, None)
    se = np.sqrt(np.diag(np.linalg.inv(X.T @ (w[:, None] * X))))
    return {"beta": beta, "se": se, "deviance": dev, "iterations": iterations,
            "converged": converged, "warnings": tuple(fit_warnings)}


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


def three_call_pool(pool, rng):
    """A synthetic pool's draw in three calls (credibility, sensationalism, the
    (n, 8) noise) and its feature values built at once from them, summed left
    to right in place: ``(cred, sens, noise, values)``."""
    n = pool.size
    cred = rng.standard_normal(n)
    sens = rng.standard_normal(n)
    noise = rng.standard_normal((n, 8))
    values = np.multiply.outer(cred, _CRED_PATTERN)
    values *= pool.credibility_strength
    values += pool.feature_offset
    sens_part = np.multiply.outer(sens, _SENS_PATTERN)
    sens_part *= pool.sensationalism_strength
    values += sens_part
    values += noise * pool.feature_noise_sd
    return cred, sens, noise, values


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

    Returns engaged, liked, observed dwell and the engagement probability.
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
    return engaged, liked, np.exp(log_dwell) + action_count * motor, p_engage


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
        shared[u], liked[u], dwell[u], _ = per_stream_impressions(
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
                idx = np.lexsort((np.array(pool.post_ids), -scores))[:k]
            engaged, _, dwell, _ = per_stream_impressions(c[idx], s[idx], params, loc, scale, rng)
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


def two_branch_align_scores_to_axes(
    scores: FeatureMatrix,
    credibility: np.ndarray,
    sensationalism: np.ndarray,
) -> tuple[FeatureMatrix, dict]:
    """The axis alignment with one branch per axis: credibility takes its
    ``argmax`` component, sensationalism its own unless credibility took it,
    then its next-best one in ``np.argsort`` order."""
    mat = scores.values
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
        order = np.argsort(-np.abs(corr["sensationalism"]), kind="stable")
        sens_j = int(order[1]) if int(order[0]) == cred_j else int(order[0])
    cred_sign = 1.0 if corr["credibility"][cred_j] >= 0 else -1.0
    sens_sign = 1.0 if corr["sensationalism"][sens_j] >= 0 else -1.0
    aligned = FeatureMatrix(
        scores.post_ids,
        ("pc1", "pc2"),
        np.column_stack([cred_sign * mat[:, cred_j], sens_sign * mat[:, sens_j]]),
    )
    meta = {
        "credibility_component": cred_j + 1,
        "credibility_sign": cred_sign,
        "credibility_abs_corr": float(abs(corr["credibility"][cred_j])),
        "sensationalism_component": sens_j + 1,
        "sensationalism_sign": sens_sign,
        "sensationalism_abs_corr": float(abs(corr["sensationalism"][sens_j])),
    }
    return aligned, meta
