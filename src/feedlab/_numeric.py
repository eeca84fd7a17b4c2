"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np
from scipy import special


def sigmoid(x):
    return special.expit(x)


def t_sf_two_sided(t: np.ndarray | float, df: float) -> np.ndarray | float:
    """Two-sided p-value for a t statistic with ``df`` degrees of freedom."""
    return 2.0 * special.stdtr(df, -np.abs(t))


def normal_sf_two_sided(z: np.ndarray | float) -> np.ndarray | float:
    return 2.0 * special.ndtr(-np.abs(z))
