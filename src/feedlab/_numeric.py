"""Small shared numeric helpers."""

from __future__ import annotations

import ctypes
from functools import cache
from pathlib import Path

import numpy as np
from scipy import special


@cache
def one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread; other BLAS builds are left as they are.

    Called by the regression fits. On their tall, narrow matrices threads only cost
    CPU time, and a threaded ``dot`` splits its sum by thread count, so fits would
    vary with the host's cores. The setting is process-wide and made once.
    """
    here = Path(np.__file__).parent
    for lib in [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]:
        blas = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            getattr(blas, name, lambda n: None)(1)


def sigmoid(x):
    return special.expit(x)


def t_sf_two_sided(t: np.ndarray | float, df: float) -> np.ndarray | float:
    """Two-sided p-value for a t statistic with ``df`` degrees of freedom."""
    return 2.0 * special.stdtr(df, -np.abs(t))


def normal_sf_two_sided(z: np.ndarray | float) -> np.ndarray | float:
    return 2.0 * special.ndtr(-np.abs(z))
