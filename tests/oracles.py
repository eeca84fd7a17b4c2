"""Independent oracle implementations used to check the estimation code.

These deliberately avoid the library's code paths: means by explicit
sum/count, OLS by normal equations, logistic ML by grid search, p-values by
permutation, sorting by a plain comparison sort.
"""

import numpy as np


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


def comparison_sort_ranking(scores, component):
    """Full selection-sort ranking by one component, ties by post_id."""
    items = list(scores)
    out = []
    while items:
        best = items[0]
        for cand in items[1:]:
            key_best = (-best.pc_scores[component], best.post_id)
            key_cand = (-cand.pc_scores[component], cand.post_id)
            if key_cand < key_best:
                best = cand
        out.append(best)
        items.remove(best)
    return out


def per_participant_ols(impressions):
    """Independent per-participant (intercept, slope) least squares.

    Returns only participants whose action counts vary.
    """
    groups = {}
    for imp in impressions:
        groups.setdefault(imp.participant_id, []).append(imp)
    out = {}
    for pid, rows in sorted(groups.items()):
        a = np.array([r.action_count for r in rows], dtype=float)
        y = np.array([r.dwell_raw for r in rows], dtype=float)
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
    length = {}
    for r in impressions:
        length[r.participant_id] = max(length.get(r.participant_id, 0), r.position)
    removed = {"over_max_dwell": 0, "edge_positions": 0, "below_min_adjusted": 0}
    stage1 = []
    for r in impressions:
        if r.dwell_raw > rules.max_dwell:
            removed["over_max_dwell"] += 1
        elif not rules.edge_trim < r.position <= length[r.participant_id] - rules.edge_trim:
            removed["edge_positions"] += 1
        else:
            stage1.append(r)
    adjusted = [
        r.dwell_raw
        if r.action_count == 0
        else max(0.0, r.dwell_raw - slope(r.participant_id) * r.action_count)
        for r in stage1
    ]
    removed["below_min_adjusted"] = sum(v < rules.min_adjusted_dwell for v in adjusted)
    return sorted({r.participant_id for r in stage1}), adjusted, removed
