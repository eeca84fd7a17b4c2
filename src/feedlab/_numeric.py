"""Small shared numeric helpers, with numpy and the standard library alone.

The p-values of the fits and correlations are computed here without scipy, which
would take about as long to import as the rest of a short process's start-up.

- The normal tail is ``math.erfc(|z| / sqrt 2)``.
- The two-sided t tail with ``df`` degrees of freedom is the regularized
  incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2), in two regimes
  (DiDonato & Morris 1992, ACM TOMS 18(3), Algorithm 708):

  - a = df/2 >= 15 and t^2 < df (x > 1/2): their asymptotic expansion for large
    a (BGRAT), a series in incomplete gammas Q(1/2 + n, u) with
    u = (a - 1/4) log1p(t^2/df), starting from Q(1/2, u) = erfc(sqrt u). Its
    prefactor Gamma(a + 1/2) / Gamma(a) comes from Stirling's series for the
    difference of the two log Gammas, so nothing large cancels.
  - otherwise: the incomplete beta's continued fraction (modified Lentz), on
    I_x(a, 1/2) or, above x = (a + 1) / (a + 5/2), on its complement; the
    prefactor is built from log1p(t^2/df) and log1p(df/t^2), never from
    ``1 - x``. This covers every t at df < 30 and the far tail t^2 >= df above,
    where the fraction converges in a few terms.

  At large a the continued fraction alone needs hundreds of terms near its
  switch and loses accuracy there (against mpmath: 5e-11 at df 1e6, 4e-10 at
  df 1e7); the expansion needs at most 10 terms (4 at df 67k).

Accuracy gate (``tests/test_numeric.py``): relative error at most 1e-12 against
scipy (``stdtr``, ``ndtr``; the Cauchy closed form at df = 1, where ``stdtr``
loses up to 6e-11 near t = 0) over df from 1 to 1e7 and |t| up to where the
p-value leaves the normal floating-point range, and z in [0, 37]. Against mpmath
the t tail's largest error seen is 3e-13, for p below 1e-240, where rounding the
exponent (``a * log x`` or ``u``) costs that much. A t whose square overflows
(|t| > 1.3e154) gives 0, as scipy's does.
"""

from __future__ import annotations

import ctypes
import math
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
    """Two-sided p-value ``P(|T| >= |t|)`` for a t statistic with ``df`` degrees of freedom.

    Element by element, like a ufunc: a scalar gives a scalar, an array an array of
    its shape. 0 gives 1.0, ±inf 0.0 and NaN NaN, without a warning; a ``df`` that
    is not finite and positive gives NaN. See the module docstring.
    """
    df = float(df)
    return _elementwise(lambda v: _t_tail(v, df), t)


def normal_sf_two_sided(z: np.ndarray | float) -> np.ndarray | float:
    """Two-sided standard normal p-value ``P(|Z| >= |z|)``, ``erfc(|z| / sqrt 2)``;
    shapes and edges as in :func:`t_sf_two_sided`."""
    return _elementwise(lambda v: math.erfc(abs(v) * _SQRT1_2), z)


_SQRT1_2 = math.sqrt(0.5)
_LARGE_A = 15.0  # a = df / 2 from which the asymptotic series is used (DiDonato & Morris)
# Stirling's series for log Gamma: B_2k / (2k (2k - 1)), k = 1..8; at a >= 15 the
# next term is below 1e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _elementwise(f, x):
    values = np.asarray(x, dtype=float)
    out = np.array([f(v) for v in values.ravel().tolist()], dtype=float)
    return out.reshape(values.shape)[()]


def _t_tail(t: float, df: float) -> float:
    """I_x(df/2, 1/2) at x = df / (df + t^2): the two-sided t tail."""
    t = abs(t)
    if math.isnan(t) or not 0.0 < df < math.inf:
        return math.nan
    if t < 1e-17:  # 1 - p < 0.8 |t| rounds away (and t^2 would underflow)
        return 1.0
    if t == math.inf:
        return 0.0
    a, t2 = 0.5 * df, t * t
    if a >= _LARGE_A and t2 < df:
        return _large_a_series(a, t2 / df)
    return _fraction_tail(a, t2, df)


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / (Gamma(a) sqrt(a - 1/4))) for a >= 15, from Stirling's
    series; each term is small, so nothing cancels (math.lgamma's difference would
    lose ~1e-8 at a = 5e6)."""
    h = 0.5 / a
    series = sum(c * ((a + 0.5) ** -(2 * k + 1) - a ** -(2 * k + 1))
                 for k, c in enumerate(_STIRLING))
    return -0.5 * math.log1p(-0.5 * h) + 0.5 * (math.log1p(h) / h - 1.0) + series


def _bgrat_coefficients() -> tuple[float, ...]:
    """The first 30 d_n of DiDonato & Morris's BGRAT expansion, which depend on
    b = 1/2 alone."""
    b, c, d = 0.5, [], []
    for n in range(1, 31):
        c.append((c[-1] if c else 1.0) / ((2 * n) * (2 * n + 1)))
        s = sum((b * i - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append((b - 1.0) * c[-1] + s / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients()


def _large_a_series(a: float, ratio: float) -> float:
    """I_x(a, 1/2) for a >= 15 and x = 1 / (1 + ratio) > 1/2: DiDonato & Morris's
    BGRAT, an expansion in incomplete gammas Q(1/2 + n, u) with u = -(a - 1/4) log x."""
    T = a - 0.25
    log_x = -math.log1p(ratio)
    u = -T * log_x
    q = math.erfc(math.sqrt(u))  # Q(1/2, u)
    r = math.exp(0.5 * math.log(u) - u) / math.sqrt(math.pi)  # u^(1/2) e^-u / Gamma(1/2)
    v, t2 = 0.25 / (T * T), 0.25 * log_x * log_x
    j, total, bp2n = q, q, 0.5
    for d in _BGRAT_D:
        j = (bp2n * (bp2n + 1.0) * j + (u + bp2n + 1.0) * r) * v
        bp2n += 2.0
        r *= t2
        total += d * j
        if abs(d * j) <= 1e-16 * total:
            break
    return math.exp(_log_gamma_ratio(a)) * total


def _fraction_tail(a: float, t2: float, df: float) -> float:
    """I_x(a, 1/2) by the continued fraction, on I_x(a, 1/2) itself below
    x = (a + 1) / (a + 5/2), else on I_y(1/2, a) with y = 1 - x; x, y and their logs
    are each formed from t^2 and df, never as 1 - the other."""
    b = 0.5
    log_x, log_y = -math.log1p(t2 / df), -math.log1p(df / t2)
    if a >= _LARGE_A:
        log_beta = 0.5 * math.log(math.pi / (a - 0.25)) - _log_gamma_ratio(a)
    else:
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * log_x + b * log_y - log_beta)
    x = df / (df + t2)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, t2 / (df + t2)) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (modified Lentz). Where it is used it
    converges within 30 terms."""
    c, d = 1.0, 1.0 / _away_from_0(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 200):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / _away_from_0(1.0 + num * d)
            c = _away_from_0(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _away_from_0(v: float) -> float:
    """``v``, or 1e-300 if it is smaller in magnitude: Lentz's guard against a 0 factor."""
    return v if abs(v) > 1e-300 else 1e-300
