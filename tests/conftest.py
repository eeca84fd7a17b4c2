import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from feedlab.data import _IMPRESSION_FIELDS, FeatureMatrix, Impressions, Post, FEATURE_NAMES


def make_impression(pid="p1", post="post_01", position=1, dwell=2.0, actions=0, adjusted=None):
    """One impression row: a tuple in the table's field order (participant_id,
    post_id, position, dwell_raw, shared, liked, dwell_adjusted)."""
    return (pid, post, position, dwell, actions >= 1, actions >= 2, adjusted)


def as_table(rows):
    """The Impressions table of ``make_impression`` rows.

    Rows must all carry ``dwell_adjusted`` or all hold None there; an empty
    table lacks it.
    """
    rows = list(rows)
    columns = list(zip(*rows)) if rows else [()] * len(_IMPRESSION_FIELDS)
    n_adjusted = sum(v is not None for v in columns[6])
    if 0 < n_adjusted < len(rows):
        raise ValueError("mixed adjusted/unadjusted impressions cannot form one table")
    dtypes = (np.int64, float, bool, bool, float)[: 5 if n_adjusted else 4]
    return Impressions._from_ids(*columns[:2], *map(np.array, columns[2:], dtypes))


def rows_of(table):
    """The table's rows as ``make_impression`` tuples (dwell_adjusted None when absent)."""
    columns = [[None] * len(table) if c is None else c.tolist() for c in table._columns()]
    return list(zip(*columns))


@pytest.fixture
def tiny_posts():
    return [
        Post(f"post_{i:02d}", f"headline {i}", "src", "true_news")
        for i in range(1, 6)
    ]


@pytest.fixture
def pipeline_fixture_10():
    """One participant, feed of 10; exercises every exclusion rule.

    Hand enumeration: positions 1-3 and 8-10 are edge-trimmed (6), position
    5 exceeds the 30s cap (1), position 6 falls below the 0.15s floor after
    (identity) adjustment (1); positions 4 and 7 survive.
    """
    rows = [
        make_impression("p1", f"post_{p:02d}", p, 1.0, 0) for p in (1, 2, 3, 8, 9, 10)
    ]
    rows.append(make_impression("p1", "post_04", 4, 2.0, 0))
    rows.append(make_impression("p1", "post_05", 5, 30.5, 0))
    rows.append(make_impression("p1", "post_06", 6, 0.10, 0))
    rows.append(make_impression("p1", "post_07", 7, 5.0, 2))
    rows.sort(key=lambda row: row[2])
    return as_table(rows)


def simulate_hierarchical_dwell(
    rng,
    n_participants=200,
    n_per=114,
    mu_alpha=3.0,
    tau_alpha=0.5,
    mu_beta=1.2,
    tau_beta=0.3,
    sigma=1.0,
    p_one=0.08,
    p_two=0.04,
):
    """Draw dwell = alpha_i + beta_i*actions + noise for known parameters.

    Participant ``p{i:04d}`` sees posts ``post_001``.. at positions 1..n_per;
    the draws are made one participant at a time, in that order.
    """
    pids = np.array([f"p{i:04d}" for i in range(n_participants)])
    actions = np.empty((n_participants, n_per), dtype=np.int64)
    dwell = np.empty((n_participants, n_per))
    true_slopes = {}
    for i, pid in enumerate(pids.tolist()):
        alpha = mu_alpha + tau_alpha * rng.standard_normal()
        beta = mu_beta + tau_beta * rng.standard_normal()
        true_slopes[pid] = beta
        u = rng.random(n_per)
        actions[i] = np.where(u < p_two, 2, np.where(u < p_one + p_two, 1, 0))
        dwell[i] = alpha + beta * actions[i] + sigma * rng.standard_normal(n_per)
    # both id lists are sorted as written, so their indices are the codes
    impressions = Impressions(
        participant_vocab=pids,
        participant_code=np.repeat(np.arange(n_participants, dtype=np.int32), n_per),
        post_vocab=np.array([f"post_{j + 1:03d}" for j in range(n_per)]),
        post_code=np.tile(np.arange(n_per, dtype=np.int32), n_participants),
        position=np.tile(np.arange(1, n_per + 1, dtype=np.int64), n_participants),
        dwell_raw=dwell.ravel(),
        shared=actions.ravel() >= 1,
        liked=actions.ravel() >= 2,
    )
    return impressions, true_slopes


def pool_scores(pool):
    """A simulated pool's true (credibility, sensationalism) coordinates as scores."""
    return FeatureMatrix(
        pool.post_ids(), ("pc1", "pc2"), np.column_stack([pool.credibility, pool.sensationalism])
    )


def make_feature_post(post_id, values, category="true_news"):
    return Post(
        post_id,
        f"headline {post_id}",
        "src",
        category,
        features={f: float(v) for f, v in zip(FEATURE_NAMES, values)},
    )
