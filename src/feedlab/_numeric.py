"""Small shared numeric helpers.

scipy is imported only inside the p-value functions, so a process that
computes no p-value (simulate, preprocess, the policy experiment, report)
never loads it: importing ``scipy.special`` takes about as long as the rest
of such a process's start-up.
"""

from __future__ import annotations

import ctypes
from functools import cache
from pathlib import Path

import numpy as np


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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-x))`` of a float array, into ``out`` if given
    (``out=x`` reuses ``x``'s buffer).

    numpy picks its ``exp`` for the CPU at run time, so a value can differ from
    scipy's ``expit`` (the same formula with the C library's ``exp``) in its
    last bits, and from one CPU to another. Where ``exp(-x)`` overflows the
    result is exactly 0, as ``expit``'s is, and no warning is raised.
    """
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def t_sf_two_sided(t: np.ndarray | float, df: float) -> np.ndarray | float:
    """Two-sided p-value for a t statistic with ``df`` degrees of freedom."""
    from scipy import special

    return 2.0 * special.stdtr(df, -np.abs(t))


def normal_sf_two_sided(z: np.ndarray | float) -> np.ndarray | float:
    from scipy import special

    return 2.0 * special.ndtr(-np.abs(z))
