"""Campaign statistics (paper §IV-D).

The paper's protocol: a campaign is 100 experiments; its SDC rate is one
random sample; campaigns are run until (1) the sample distribution is
normal or near normal and (2) the t-based margin of error at 95% confidence
is within ±3 percentage points.  These helpers implement that machinery.

The three distribution functions the protocol needs — a Student-t quantile,
the Shapiro-Wilk test and a normal quantile — are implemented here rather
than taken from scipy, whose import alone costs every process over a second
and ~70 MB.  DESIGN.md "Statistics without scipy" gives the algorithms and
the accuracy the differential tests hold them to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

_STANDARD_NORMAL = NormalDist()
_EPS = 2.0 ** -53
_TINY = 1e-300
_LGAMMA_HALF = math.lgamma(0.5)


# ---------------------------------------------------------------------------
# Student's t quantile

def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2)``.

    For large ``a`` the three-``lgamma`` form cancels two values near
    ``a log a``, losing ~1e-12 of the result; there the difference
    ``log Γ(a) - log Γ(a + 1/2)`` comes from Stirling's series instead.
    """
    if a < 50.0:
        return math.lgamma(a) + _LGAMMA_HALF - math.lgamma(a + 0.5)

    def correction(x: float) -> float:  # lgamma(x) minus Stirling's leading terms
        x2 = x * x
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x2)) / x2) / x2) / x

    return (_LGAMMA_HALF + 0.5 - 0.5 * math.log(a) - a * math.log1p(0.5 / a)
            + correction(a) - correction(a + 0.5))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, by modified
    Lentz's method; converges fast for ``x < (a + 1) / (a + b + 2)``."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _t_upper_tail(t: float, df: float) -> float:
    """``P(T > t)`` for ``t >= 0``: ``I_x(df/2, 1/2) / 2`` at
    ``x = df / (df + t²)``, with ``1 - x`` formed directly."""
    a = 0.5 * df
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    front = math.exp(a * math.log(x) + 0.5 * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_continued_fraction(a, 0.5, x) / a
    return 0.5 - front * _beta_continued_fraction(0.5, a, y)


def _t_density(t: float, df: float) -> float:
    return math.exp(-_log_beta_half(0.5 * df) - 0.5 * math.log(df)
                    - 0.5 * (df + 1.0) * math.log1p(t * t / df))


@lru_cache(maxsize=256)
def t_quantile(q: float, df: float) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Closed forms for df = 1 (Cauchy) and df = 2.  Otherwise Newton steps on
    the upper tail probability from a Cornish-Fisher start, each step kept
    inside the bracket seen so far by bisection.
    """
    if not 0.0 < q < 1.0 or not df > 0:
        raise ValueError(f"t_quantile needs 0 < q < 1 and df > 0, got q={q}, df={df}")
    if q < 0.5:
        return -t_quantile(1.0 - q, df)
    tail = 1.0 - q  # exact for q >= 1/2
    if tail == 0.5:
        return 0.0
    if df == 1:
        return math.cos(math.pi * tail) / math.sin(math.pi * tail)
    if df == 2:
        return (2.0 * q - 1.0) / math.sqrt(2.0 * q * tail)
    z = _STANDARD_NORMAL.inv_cdf(q)
    t = z + (z ** 3 + z) / (4 * df) + (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96 * df * df)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        excess = _t_upper_tail(t, df) - tail
        if excess == 0.0:
            return t
        if excess > 0.0:
            lo = t
        else:
            hi = t
        nt = t + excess / _t_density(t, df)
        if not lo < nt < hi:
            nt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * t
        if abs(nt - t) <= 4 * _EPS * nt:
            return nt
        t = nt
    raise ArithmeticError(f"t quantile did not converge (q={q}, df={df})")


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston 1995, algorithm AS R94)

def _poly(c: tuple[float, ...], x: float) -> float:
    """``c[0] + c[1] x + c[2] x² + ...`` in AS R94's ``POLY`` order."""
    if len(c) == 1:
        return c[0]
    p = x * c[-1]
    for coeff in c[-2:0:-1]:
        p = (p + coeff) * x
    return c[0] + p


def _ppnd(p: float) -> float:
    """Normal quantile by AS 111 (Beasley & Springer 1977), the
    approximation AS R94 builds its coefficients on."""
    q = p - 0.5
    if abs(q) <= 0.42:
        r = q * q
        return q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r
                    + 2.50662823884) / ((((3.13082909833 * r - 21.06224101826) * r
                                          + 23.08336743743) * r - 8.47351093090) * r + 1.0)
    r = math.sqrt(-math.log(p if q < 0 else 1.0 - p))
    v = (((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r
         - 2.78718931138) / ((1.63706781897 * r + 3.54388924762) * r + 1.0)
    return -v if q < 0 else v


def _alnorm_upper(z: float) -> float:
    """Upper tail of the standard normal by AS 66 (Hill 1973), as AS R94
    evaluates its p-value."""
    upper = True
    if z < 0.0:
        upper = False
        z = -z
    if not (z <= 7.0 or (upper and z <= 18.66)):
        tail = 0.0
    else:
        y = 0.5 * z * z
        if z <= 1.28:
            tail = 0.5 - z * (0.398942280444 - 0.399903438504 * y / (
                y + 5.75885480458 - 29.8213557808 / (
                    y + 2.62433121679 + 48.6959930692 / (y + 5.92885724438))))
        else:
            tail = 0.398942280385 * math.exp(-y) / (
                z - 3.8052e-8 + 1.00000615302 / (
                    z + 3.98064794e-4 + 1.98615381364 / (
                        z - 0.151679116635 + 5.29330324926 / (
                            z + 4.8385912808 - 15.1508972451 / (
                                z + 0.742380924027 + 30.789933034 / (z + 3.99019417011))))))
    return tail if upper else 1.0 - tail


_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)
_G = (-2.273, 0.459)
_SMALL = 1e-19


@lru_cache(maxsize=256)
def _swilk_coefficients(n: int) -> tuple[float, ...]:
    """The ``n`` Shapiro-Wilk weights in sorted-sample order: the AS R94
    half ``a_1..a_{n//2}`` negated, a middle 0 for odd ``n``, then mirrored."""
    half = n // 2
    if n == 3:
        a = [math.sqrt(0.5)]
    else:
        an25 = n + 0.25
        m = [_ppnd((i - 0.375) / an25) for i in range(1, half + 1)]
        summ2 = 0.0
        for mi in m:
            summ2 += mi * mi
        summ2 *= 2.0
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_C1, rsn) - m[0] / ssumm2
        if n > 5:
            first = 2
            a2 = -m[1] / ssumm2 + _poly(_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            a = [a1, a2]
        else:
            first = 1
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
            a = [a1]
        a += [-mi / fac for mi in m[first:]]
    middle = [0.0] if n % 2 else []
    return tuple([-ai for ai in a] + middle + a[::-1])


def shapiro_wilk(samples) -> tuple[float, float]:
    """Shapiro-Wilk ``(W, p)`` for ``n >= 3`` samples.

    A port of Royston's AS R94 ``swilk`` for uncensored data, as
    ``scipy.stats.shapiro`` runs it — including its centring: the sorted
    sample is shifted by the *unsorted* input's element ``n // 2`` (scipy
    gh-15777), which changes W and p only in their last bits.  A sample
    whose range is below 1e-19 gets ``(1.0, 1.0)``, and a W that rounds to
    1 or past it gets p = 1.  The p-value is exact for n = 3 and Royston's
    normalising approximations for n <= 11 and n >= 12 otherwise (valid to
    n = 5000).
    """
    x = [float(v) for v in samples]
    n = len(x)
    if n < 3:
        raise ValueError(f"Shapiro-Wilk needs at least 3 samples, got {n}")
    centre = x[n // 2]
    y = [v - centre for v in sorted(x)]
    span = y[-1] - y[0]
    if span < _SMALL:
        return 1.0, 1.0
    coef = _swilk_coefficients(n)
    scaled = [v / span for v in y]
    # W is the squared correlation of the weights with the scaled sample;
    # summed in AS R94's order so W agrees with the reference to the last bit
    # on almost every sample.
    sa = sx = 0.0
    for c, xi in zip(coef, scaled):
        sa += c
        sx += xi
    sa /= n
    sx /= n
    ssa = ssx = sax = 0.0
    for c, xi in zip(coef, scaled):
        asa = c - sa
        xsx = xi - sx
        ssa += asa * asa
        ssx += xsx * xsx
        sax += asa * xsx
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)  # 1 - W, kept exact near W = 1
    w = 1.0 - w1
    if w1 <= 0.0:  # a perfect fit, or rounded past one: scipy's C also gives p = 1
        return w, 1.0
    if n == 3:
        return w, max(1.0 - 6.0 / math.pi * math.acos(math.sqrt(w)), 0.0)
    y_stat = math.log(w1)
    if n <= 11:
        gamma = _poly(_G, n)
        if y_stat >= gamma:
            return w, _SMALL
        y_stat = -math.log(gamma - y_stat)
        mean = _poly(_C3, n)
        sd = math.exp(_poly(_C4, n))
    else:
        log_n = math.log(n)
        mean = _poly(_C5, log_n)
        sd = math.exp(_poly(_C6, log_n))
    return w, _alnorm_upper((y_stat - mean) / sd)


# ---------------------------------------------------------------------------
# The §IV-D helpers

def margin_of_error(samples, confidence: float = 0.95) -> float:
    """t-based margin of error of the sample mean.

    ``t* · s / sqrt(n)`` with ``s`` the sample standard deviation — the
    "standard t-value based formula where the sample size and the standard
    error of the sample distribution is known" [paper §IV-D, ref 25].
    """
    x = np.asarray(list(samples), dtype=float)
    n = x.size
    if n < 2:
        return math.inf
    s = x.std(ddof=1)
    if s == 0.0:
        return 0.0
    t_star = t_quantile(0.5 + confidence / 2.0, n - 1)
    return float(t_star * s / math.sqrt(n))


def confidence_interval(samples, confidence: float = 0.95) -> tuple[float, float]:
    x = np.asarray(list(samples), dtype=float)
    moe = margin_of_error(x, confidence)
    m = float(x.mean())
    return (m - moe, m + moe)


def is_near_normal(samples, alpha: float = 0.05) -> bool:
    """Shapiro-Wilk normality check; degenerate (constant) samples count as
    normal (a zero-variance estimate needs no distributional caveats)."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 3 or np.allclose(x, x[0]):
        return True
    _w, p = shapiro_wilk(x)
    return bool(p > alpha)


@dataclass
class RateEstimate:
    """A rate (e.g. SDC rate) with its campaign-level uncertainty."""

    mean: float
    margin: float
    samples: list[float]
    confidence: float = 0.95

    @property
    def interval(self) -> tuple[float, float]:
        return (self.mean - self.margin, self.mean + self.margin)

    def __str__(self) -> str:
        return f"{100 * self.mean:.1f}% ± {100 * self.margin:.1f}"


def estimate_rate(samples, confidence: float = 0.95) -> RateEstimate:
    x = [float(v) for v in samples]
    mean = float(np.mean(x)) if x else float("nan")
    return RateEstimate(mean, margin_of_error(x, confidence), x, confidence)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a single pooled proportion — used for the
    micro-benchmark study, which pools experiments rather than campaigns."""
    if trials == 0:
        return (0.0, 1.0)
    z = _STANDARD_NORMAL.inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))
