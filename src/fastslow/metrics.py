"""Wasserstein-1 verification of the Gaussian fluctuation limit.

In one dimension the Wasserstein-1 distance between two laws equals the
L1 distance between their CDFs, so the distance between an empirical
measure and a Gaussian target has a closed form piecewise between order
statistics.  This module provides that exact estimator with percentile
bootstrap confidence intervals, a checkpointed end-to-end verification
that the rescaled fluctuations theta_t = (X_t - Xbar_t)/sqrt(eps)
approach N(0, sigma_t^2), the two-bracket theoretical rate envelope

    C1 (eta^{1/4} + eps^{1/4} + |eta/eps - 1/gamma^2|^{1/2}
        + (eta/eps)^{1/2} eta^{1/2 - zeta} + eps^{1/2 - zeta})
  + C2 ((eta/eps)^{1/2} eta^{1/4} + (eta/eps) eta^{1/4}
        + (1 + eta/eps) exp(-K T/(16 eta)))

with zeta in (0, 1/2), and a log-log rate regression across (eps, eta)
sweeps.  The envelope bounds the true W1, while the estimator also reads
its Monte Carlo floor (:func:`w1_floor`, the mean it returns when the
sample law equals the limit); so a sweep compares each point with the
envelope plus that floor, the constant anchored at the coarsest point.

The estimator is built once per sample as a table (:class:`_W1Table`):
the sorted sample, the rank of each original index, the Gaussian CDF
antiderivative G on the sorted sample, and the Gaussian quantiles at the
plateau levels k/n with G at each.  :func:`w1_vs_gaussian` evaluates it
on the sample itself, and every bootstrap resample is its sorted ranks in
the same table.  A quantile that falls strictly inside its interval is
where the CDFs cross, so a resample takes G there from the table too: it
makes no float sort and evaluates neither the Gaussian CDF nor its
quantile.  The result is bit-equal to sorting the resampled values and
integrating afresh.

The Gaussian CDF and quantile, and the log-gamma and log1p of
:func:`w1_floor`, are bit-exact ports of Cephes' ``ndtr``, ``ndtri``,
``lgam`` and ``log1p``, the routines scipy.special runs, so no function
here loads scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy  # unused here; `import fastslow` loads it for perfbench's version read

from fastslow.coefficients import CoefficientSet, _require_positive
from fastslow.homogenization import (
    HomogenizedModel,
    LimitTrajectory,
    attach_variance,
    build_homogenized,
    limit_ode,
)
from fastslow.sde_engine import (
    CHANNEL_BOOTSTRAP,
    PURPOSE_BOOTSTRAP,
    STABILITY_FRACTION,
    PathBundle,
    ScaleRegime,
    _grid,
    _grid_index,
    _run_shares,
    _split,
    _stream,
    _workers,
    fluctuation_samples,
    simulate_paths,
)

__all__ = [
    "WassersteinReport",
    "RateFit",
    "w1_vs_gaussian",
    "w1_between_gaussians",
    "w1_floor",
    "bootstrap_w1",
    "clt_verify",
    "theoretical_bound",
    "theoretical_bound_terms",
    "rate_sweep",
    "default_checkpoints",
]

#: Bootstrap defaults: resample count and CI level.
N_BOOTSTRAP = 400
CI_LEVEL = 0.95

#: Homogenization grid (x_range, nx, ny) used when no homogenized model
#: is passed to :func:`clt_verify` or :func:`rate_sweep`.
HOM_GRID = ((-3.0, 3.0), 33, 4096)

#: Step of the limit-ODE integration behind the variance profile.
LIMIT_ODE_DT = 5e-4

#: Trapezoid nodes of :func:`w1_floor` on z in [-9, 9]; against a rule
#: with 50 times as many nodes the relative change is below 1e-6 for n
#: from 1 to 10^4.
_FLOOR_NODES = 4001


@dataclass(frozen=True)
class WassersteinReport:
    """Exact W1 of fluctuation samples against the Gaussian limit at one time.

    ``bootstrap_ci`` is the percentile CI of the W1 estimate; the mean
    and standard-deviation gaps localize which moment drives a large
    distance.
    """

    t: float
    n: int
    w1: float
    bootstrap_ci: tuple[float, float]
    mean_gap: float
    sd_gap: float
    limit_var: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "w1": self.w1,
            "ci_lo": self.bootstrap_ci[0],
            "ci_hi": self.bootstrap_ci[1],
            "mean_gap": self.mean_gap,
            "sd_gap": self.sd_gap,
        }


@dataclass(frozen=True)
class RateFit:
    """Log-log regression of W1 against eps across a sweep.

    ``floor_values`` is the Monte Carlo floor (:func:`w1_floor`) of each
    point's estimate.  ``bound_values`` is the theoretical envelope with
    C1 = C2 = ``c_fit`` plus that floor at each sweep point, ``c_fit``
    anchored so the bound meets the coarsest point; ``noisy_points``
    flags points whose bootstrap CI spans more than [w1/3, 3 w1].
    """

    points: tuple[tuple[float, float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    bound_values: tuple[float, ...]
    c_fit: float
    noisy_points: tuple[int, ...]
    floor_values: tuple[float, ...] = ()
    reports: tuple[WassersteinReport, ...] = ()

    def to_dict(self) -> dict:
        return {
            "points": [
                {"epsilon": e, "eta": h, "w1": w} for e, h, w in self.points
            ],
            "rate": {
                "slope": self.slope,
                "intercept": self.intercept,
                "r2": self.r_squared,
            },
            "bound": list(self.bound_values),
            "floor": list(self.floor_values),
            "c_fit": self.c_fit,
            "noisy_points": list(self.noisy_points),
        }


#: |z| beyond which exp(-z^2/2) underflows to exactly 0.0 in float64;
#: clamping before squaring avoids overflow warnings without changing
#: any representable value.
_Z_UNDERFLOW = 40.0


# The standard normal CDF and quantile, log-gamma and log1p are ports of
# Cephes' ``ndtr``, ``ndtri``, ``lgam`` and ``log1p`` (S. L. Moshier,
# *Methods and Programs for Mathematical Functions*, 1989), the routines
# that scipy.special.ndtr, ndtri, gammaln and log1p run, so that no
# function here loads scipy.special.  They take Cephes' steps in its
# order.  The Horner steps of ``polevl`` run as numpy elementwise
# operations, plain IEEE arithmetic with no fused multiply-add.  Where
# Cephes calls the C library's exp or log, the ports call math.exp or
# math.log once per element, since numpy's own exp and log differ from
# the C library's in the last bit on a few percent of inputs.  So every
# value, and the sign of every zero, is scipy's.  Each table holds its
# polynomial's coefficients from the highest power down; a denominator
# table starts with the leading 1 that Cephes' ``p1evl`` implies, which
# gives the same bits, since 1 * x is x.

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242

# erf on |x| <= 1: x T(x^2) / U(x^2).
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4,
)
# erfc on 1 <= x < 8: exp(-x^2) P(x) / Q(x); from 8 on, R and S.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# ndtri for exp(-2) < y <= 1 - exp(-2): with c = y - 1/2,
# (c + c c^2 P0(c^2) / Q0(c^2)) sqrt(2 pi).
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri in the tails, with t = sqrt(-2 log y) and r = 1/t:
# t - log(t)/t - r P(r)/Q(r), by P1/Q1 for t < 8 and by P2/Q2 beyond.
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
# lgam on 2 <= u < 3, with x = u - 2: x B(x) / C(x).
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
# lgam from 13 to 1000: Stirling's series A(1/x^2) / x; from 1000 on its
# first three terms, and beyond 1e8 none.
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_A_FAR = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows above
# log1p on 1/sqrt(2) <= 1 + x <= sqrt(2): x - x^2/2 + x^3 P(x) / Q(x).
_LOG1P_P = (
    4.5270000862445199635215e-5, 4.9854102823193375972212e-1, 6.5787325942061044846969e0,
    2.9911919328553073277375e1, 6.0949667980987787057556e1, 5.7112963590585538103336e1,
    2.0039553499201281259648e1,
)
_LOG1P_Q = (
    1.0, 1.5062909083469192043167e1, 8.3047565967967209469434e1, 2.2176239823732856465394e2,
    3.0909872225312059774938e2, 2.1642788614495947685003e2, 6.0118660497603843919306e1,
)
_SQRT2 = 1.41421356237309504880


def _polevl(x, coef):
    """Cephes' ``polevl``: the polynomial ``coef`` at x by Horner's steps,
    on a float or elementwise on an array."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` (math.exp or math.log) at each element of the 1-d ``x``."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def _erf_central(x):
    """Cephes' erf for |x| <= 1, on a float or an array."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc_tail(x: float) -> float:
    """Cephes' erfc for x >= 1: 0 once -x^2 < -MAXLOG, before any
    polynomial can overflow."""
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(z) * _polevl(x, p) / _polevl(x, q)


def _erfc_tail_array(x: np.ndarray) -> np.ndarray:
    """:func:`_erfc_tail` at each element of the 1-d ``x``."""
    y = np.zeros_like(x)
    with np.errstate(over="ignore"):  # -inf is below -MAXLOG as it should be
        z = -x * x
    live = ~(z < -_MAXLOG)
    x, z = x[live], z[live]
    near = x < 8.0
    p = np.where(near, _polevl(x, _ERFC_P), _polevl(x, _ERFC_R))
    q = np.where(near, _polevl(x, _ERFC_Q), _polevl(x, _ERFC_S))
    y[live] = _libm(math.exp, z) * p / q
    return y


def _ndtr(a):
    """Standard normal CDF, bit for bit scipy.special.ndtr: with
    x = a sqrt(1/2), 1/2 + erf(x)/2 where |x| < 1, else erfc(|x|)/2,
    mirrored for x > 0.  NaN gives NaN.  A 0-d ``a`` gives a float,
    computed on Python floats with no array built."""
    if np.ndim(a) == 0:
        x = float(a) * _SQRT1_2
        if math.isnan(x):
            return math.nan
        if abs(x) < 1.0:
            return 0.5 + 0.5 * _erf_central(x)
        y = 0.5 * _erfc_tail(abs(x))
        return 1.0 - y if x > 0 else y
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    central = z < 1.0
    y[central] = 0.5 + 0.5 * _erf_central(x[central])
    tail = ~central
    half = 0.5 * _erfc_tail_array(z[tail])
    y[tail] = np.where(x[tail] > 0, 1.0 - half, half)
    y[np.isnan(x)] = np.nan
    return y


def _ndtri(y0):
    """Standard normal quantile, bit for bit scipy.special.ndtri.  Central
    on exp(-2) < y0 <= 1 - exp(-2); in the tails y = min(y0, 1 - y0)
    splits at t = sqrt(-2 log y) = 8.  0 and 1 give -inf and inf, levels
    outside [0, 1] NaN, and NaN runs through the tail's arithmetic as in
    Cephes.  A 0-d ``y0`` gives a float."""
    y0 = np.asarray(y0, dtype=float)
    x = np.full_like(y0, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    valid = ~((y0 <= 0.0) | (y0 >= 1.0))
    flip = y0 > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y0, y0)
    central = valid & (y > _EXP_M2)
    c = y[central] - 0.5
    c2 = c * c
    x[central] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = valid & ~central
    t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    t0 = t - _libm(math.log, t) / t
    r = 1.0 / t
    t1 = np.where(
        t < 8.0,
        r * _polevl(r, _NDTRI_P1) / _polevl(r, _NDTRI_Q1),
        r * _polevl(r, _NDTRI_P2) / _polevl(r, _NDTRI_Q2),
    )
    t = t0 - t1
    x[tail] = np.where(flip[tail], t, -t)
    return float(x) if x.ndim == 0 else x


def _gammaln(x):
    """log Gamma(x) for x > 0, bit for bit scipy.special.gammaln (Cephes'
    ``lgam``).  Below 13, u = x + p is stepped by whole p into [2, 3),
    z the product of the factors that takes, and the value is log(z) at
    u = 2, else log(z) + w B(w)/C(w) at w = x + (p - 2).  From 13 on it
    is Stirling's series, inf above MAXLGM.  A 0-d ``x`` gives a float;
    otherwise ``x`` is 1-d."""
    x0 = np.asarray(x, dtype=float)
    x = np.atleast_1d(x0)
    y = np.full_like(x, np.inf)
    small = x < 13.0
    xs = x[small]
    u, p, z = xs.copy(), np.zeros_like(xs), np.ones_like(xs)
    while (down := u >= 3.0).any():
        p[down] -= 1.0
        u[down] = xs[down] + p[down]
        z[down] *= u[down]
    while (up := u < 2.0).any():
        z[up] /= u[up]
        p[up] += 1.0
        u[up] = xs[up] + p[up]
    w = xs + (p - 2.0)
    log_z = _libm(math.log, z)
    y[small] = np.where(u == 2.0, log_z, log_z + w * _polevl(w, _LGAM_B) / _polevl(w, _LGAM_C))
    stirling = ~small & ~(x > _MAXLGM)  # NaN falls here and stays NaN
    xl = x[stirling]
    q = (xl - 0.5) * _libm(math.log, xl) - xl + _LS2PI
    series = xl <= 1e8
    xm = xl[series]
    r = 1.0 / (xm * xm)
    q[series] += np.where(xm < 1000.0, _polevl(r, _LGAM_A), _polevl(r, _LGAM_A_FAR)) / xm
    y[stirling] = q
    return float(y[0]) if x0.ndim == 0 else y


def _log1p(x: np.ndarray) -> np.ndarray:
    """log(1 + x) at each element of the 1-d ``x`` > -1, bit for bit
    scipy.special.log1p (Cephes' ``log1p``): the C library's log of
    1 + x outside [1/sqrt(2), sqrt(2)], x - x^2/2 + x^3 P(x)/Q(x)
    inside."""
    z = 1.0 + x
    outer = (z < _SQRT1_2) | (z > _SQRT2)
    y = np.empty_like(x)
    y[outer] = _libm(math.log, z[outer])
    v = x[~outer]
    v2 = v * v
    y[~outer] = v + (-0.5 * v2 + v * (v2 * _polevl(v, _LOG1P_P) / _polevl(v, _LOG1P_Q)))
    return y


def _xlog1py(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a log(1 + y) elementwise, 0 where a == 0 (so y may be -1 there),
    bit for bit scipy.special.xlog1py on finite arguments."""
    out = np.zeros_like(y)
    live = a != 0
    out[live] = a[live] * _log1p(y[live])
    return out


def _gaussian_cdf_antiderivative(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Antiderivative of the N(mu, sigma^2) CDF vanishing at -infinity."""
    z = (x - mu) / sigma
    zc = np.clip(z, -_Z_UNDERFLOW, _Z_UNDERFLOW)
    return (x - mu) * _ndtr(z) + sigma * np.exp(-0.5 * zc**2) / math.sqrt(2.0 * math.pi)


class _W1Table:
    """Exact W1 against N(mu, sigma2) of one sample and its resamples.

    Holds the sorted sample ``xs``, the rank of each original index in
    it (``xs[rank[i]] == samples[i]``), ``G`` on ``xs``, the Gaussian
    ``quantile`` mu + sigma ndtri(k/n) at each plateau level k/n and
    ``G_quantile``, G at each quantile.  A resample drawing original
    indices ``idx`` has the sorted values ``xs[j]`` with
    ``j = sort(rank[idx])``.  Where a quantile is clipped to an interval
    end, G of the crossing is that end's gathered G; where it falls
    strictly inside, the crossing is the quantile and G of it is
    ``G_quantile``'s.
    """

    def __init__(self, samples, mu: float, sigma2: float):
        x = np.asarray(samples, dtype=float)
        self.n = n = x.size
        if n < 2:
            raise ValueError(f"need at least two samples (got {n})")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        if sigma2 < 0:
            raise ValueError(f"variance must be nonnegative (got {sigma2})")
        order = np.argsort(x)
        self.xs = x[order]
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[order] = np.arange(n)
        self.mu, self.sigma2 = mu, sigma2
        if sigma2 == 0.0:
            return
        self.sigma = sigma = math.sqrt(sigma2)
        self.q = np.arange(1, n) / n  # plateau levels of F_n between order stats
        self.quantile = mu + sigma * _ndtri(self.q)
        self.G = self._G(self.xs)
        self.G_quantile = self._G(self.quantile)

    def _G(self, x):
        return _gaussian_cdf_antiderivative(x, self.mu, self.sigma)

    def w1(self, j: np.ndarray) -> float:
        """W1 of the sample with sorted values ``xs[j]`` (``j`` sorted ranks)."""
        v = self.xs[j]
        mu = self.mu
        if self.sigma2 == 0.0:
            return float(np.mean(np.abs(v - mu)))
        sigma = self.sigma
        a, b = v[:-1], v[1:]
        g = self.G[j]
        ga, gb = g[:-1], g[1:]
        quantile = self.quantile
        crossing = np.clip(quantile, a, b)
        inside = (quantile > a) & (quantile < b)
        g_crossing = np.where(quantile <= a, ga, gb)
        g_crossing[inside] = self.G_quantile[inside]
        middle = np.sum(self.q * (2.0 * crossing - a - b) + ga + gb - 2.0 * g_crossing)

        left_tail = self._G(v[0])  # integral of F below the smallest sample
        z_hi = (v[-1] - mu) / sigma
        z_hi_c = min(max(z_hi, -_Z_UNDERFLOW), _Z_UNDERFLOW)
        right_tail = sigma * (
            np.exp(-0.5 * z_hi_c**2) / math.sqrt(2.0 * math.pi)
            - z_hi * (1.0 - _ndtr(z_hi))
        )
        return float(middle + left_tail + right_tail)


def w1_vs_gaussian(samples, mu: float, sigma2: float) -> float:
    """Exact W1 distance of an empirical measure from N(mu, sigma2).

    Integrates |F_n - F| in closed form on each interval between
    consecutive order statistics (where F_n is constant and the Gaussian
    CDF F crosses the plateau at a known quantile) plus the two Gaussian
    tails.  With sigma2 = 0 the target is a point mass and the distance
    is mean |x_i - mu|.  Needs at least two finite samples and
    sigma2 >= 0 (ValueError otherwise).
    """
    table = _W1Table(samples, mu, sigma2)
    return table.w1(np.arange(table.n))


def w1_between_gaussians(mu1: float, sigma1: float, mu2: float, sigma2: float) -> float:
    """Closed-form W1 between two 1-D Gaussians.

    The optimal coupling is the common-quantile one, so the distance is
    E|d + s Z| with d = mu1 - mu2, s = sigma1 - sigma2 and Z standard
    normal (a folded-normal mean).
    """
    d = mu1 - mu2
    s = abs(sigma1 - sigma2)
    if s == 0.0:
        return abs(d)
    ratio = d / s
    return s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * ratio**2) + d * (
        1.0 - 2.0 * _ndtr(-ratio)
    )


def w1_floor(n: int, sigma2: float) -> float:
    """Mean of :func:`w1_vs_gaussian` over n i.i.d. draws of its target
    N(mu, sigma2): the estimator's Monte Carlo floor, which falls like
    n^{-1/2} (Bobkov & Ledoux, 2019).  n F_n(z) is Binomial(n, Phi(z)),
    whose mean absolute deviation is 2 k (1 - p) P(B = k) with
    k = floor(n p) + 1 (de Moivre); the trapezoid rule integrates it
    over z.  ValueError for an ``n`` that is not an integer >= 1 or a
    negative ``sigma2``.  The log-pmf takes the ports :func:`_gammaln`
    and :func:`_xlog1py`, so the floor is bit for bit the one that
    scipy.special's ``gammaln``, ``xlogy`` and ``xlog1py`` give, and
    loads no scipy submodule.  Where p rounds to 1, k = n and the
    xlog1py term is 0.
    """
    _require_positive(n=n)
    if not sigma2 >= 0:
        raise ValueError(f"variance must be nonnegative (got {sigma2})")
    z = np.linspace(-9.0, 9.0, _FLOOR_NODES)
    p = _ndtr(z)
    k = np.floor(n * p) + 1.0
    inside = k <= n
    k = np.minimum(k, n)
    # k never falls along z, so the log-gammas are taken once per run of
    # equal k and gathered back (1231 runs of the 4001 nodes at n = 1e4).
    starts = np.concatenate(([True], k[1:] != k[:-1]))
    run, distinct = np.cumsum(starts) - 1, k[starts]
    log_pmf = (
        _gammaln(n + 1.0) - _gammaln(distinct + 1.0)[run] - _gammaln(n - distinct + 1.0)[run]
        + k * _libm(math.log, p) + _xlog1py(n - k, -p)
    )
    mad = np.where(inside, 2.0 * k * (1.0 - p) * np.exp(log_pmf), 0.0)
    return math.sqrt(sigma2) * float(np.trapezoid(mad, z)) / n


def bootstrap_w1(
    samples,
    mu: float,
    sigma2: float,
    seed,
    n_boot: int = N_BOOTSTRAP,
    level: float = CI_LEVEL,
) -> tuple[float, float]:
    """Percentile bootstrap CI for :func:`w1_vs_gaussian`.

    Resamples the empirical measure with replacement from the stream
    (seed, bootstrap, 0, 0, bootstrap channel), so path simulation and
    resampling never share a stream; ``seed`` may also be the
    ``numpy.random.Generator`` to resample from.  The sample is sorted,
    and the plateau quantiles and G at the sample and at the quantiles are
    evaluated, once; each resample is its sorted ranks in that table (see
    :class:`_W1Table`) and takes G at the quantiles from it, so it costs
    an integer sort and a few gathers and gives the same W1 as sorting the
    resampled values.

    Raises ValueError for an ``n_boot`` that is not an integer >= 1, a
    ``level`` outside (0, 1), or samples :func:`w1_vs_gaussian` rejects.
    """
    _require_positive(n_boot=n_boot)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1) (got {level!r})")
    table = _W1Table(samples, mu, sigma2)
    n = table.n
    rng = seed if isinstance(seed, np.random.Generator) else _stream(
        seed, PURPOSE_BOOTSTRAP, 0, 0, CHANNEL_BOOTSTRAP
    )
    stats = np.empty(n_boot)
    for i in range(n_boot):
        idx = rng.integers(0, n, size=n)  # the draw of choice(n, size=n)
        stats[i] = table.w1(np.sort(table.rank[idx]))
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = _percentiles(stats, [alpha, 100.0 - alpha])
    return float(lo), float(hi)


def _percentiles(values: np.ndarray, percents) -> np.ndarray:
    """``np.percentile(values, percents)`` of the 1-d ``values``, bit for
    bit, by its default linear method: order statistics i = floor(v) and
    i + 1 (both the last at v >= n - 1) of the virtual index
    v = (n - 1) q, q = percents / 100, weighted by g = v - i as numpy's
    ``_lerp`` weights them.  np.percentile's ``np.unique`` call imports
    numpy.ma; np.partition does not."""
    n = values.size
    v = (n - 1) * np.true_divide(percents, 100)
    i = np.floor(v)
    j = i + 1
    top = v >= n - 1
    i[top] = j[top] = -1
    g = v - i
    i, j = i.astype(np.intp), j.astype(np.intp)
    part = np.partition(values, np.concatenate((i, j)))
    a, b = part[i], part[j]
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def _check_n_paths(n_paths) -> None:
    """ValueError naming ``n_paths`` unless it is an integer >= 2, the
    fewest samples a W1 estimate takes."""
    _require_positive(n_paths=n_paths)
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a W1 estimate (got {n_paths})")


def default_checkpoints(T: float) -> tuple[float, float, float]:
    """Default observation times {T/4, T/2, T}."""
    return (T / 4.0, T / 2.0, T)


def clt_verify(
    model: CoefficientSet,
    regime: ScaleRegime,
    x0: float,
    y0: float,
    dt: float,
    n_paths: int,
    checkpoints: Sequence[float] | None = None,
    seed=0,
    n_boot: int = N_BOOTSTRAP,
    hom: HomogenizedModel | None = None,
) -> list[WassersteinReport]:
    """End-to-end fluctuation check at each checkpoint time.

    Integrates the limit ODE of the homogenized model ``hom`` with its
    variance profile, simulates the coupled system keeping only
    checkpoint snapshots, and reports the exact W1 distance of the
    rescaled fluctuations from N(0, sigma_t^2) with a bootstrap CI.

    ``hom`` must be built for ``model`` (same name and expressions) at
    ``regime.gamma`` (ValueError otherwise); when omitted, one is built
    on :data:`HOM_GRID`.  A ``dt`` that is not positive or lies above
    eta/20 raises :class:`~fastslow.sde_engine.StabilityError` before
    any homogenization work.  Checkpoints must sit on the simulation grid
    and default to {T/4, T/2, T}.  An ``n_paths`` that is not an integer
    >= 2 and an ``n_boot`` that is not an integer >= 1 raise ValueError
    before any other work.
    """
    _check_n_paths(n_paths)
    _require_positive(n_boot=n_boot)
    if checkpoints is None:
        checkpoints = default_checkpoints(regime.T)
    times, capture = _checkpoint_steps(regime, dt, checkpoints)
    hom = _matching_hom(model, regime.gamma, hom)
    trajectory = attach_variance(hom, limit_ode(hom, x0, regime.T, LIMIT_ODE_DT))
    bundle = simulate_paths(
        model, regime, x0, y0, dt, n_paths, seed, capture_indices=capture
    )
    return _clt_reports(bundle, times, trajectory, n_boot)


def _checkpoint_steps(
    regime: ScaleRegime, dt: float, checkpoints: Sequence[float]
) -> tuple[list[float], list[int]]:
    """Checkpoint times and their step indices on the simulation grid.

    Raises ValueError for a time outside (0, T],
    :class:`~fastslow.sde_engine.StabilityError` for a step that is not
    positive or lies above eta/20 and
    :class:`~fastslow.sde_engine.AlignmentError` for a time off the grid.
    """
    T = regime.T
    times = [float(t) for t in checkpoints]
    for t in times:
        if not 0.0 < t <= T + 1e-12:
            raise ValueError(f"checkpoint {t} outside (0, {T}]")
    n_steps, dt_eff = _grid(regime, dt)
    return times, [_grid_index(t, dt_eff, n_steps, "path") for t in times]


def _matching_hom(
    model: CoefficientSet, gamma: float, hom: HomogenizedModel | None
) -> HomogenizedModel:
    """``hom`` checked against ``model`` and ``gamma``, or one built on HOM_GRID."""
    if hom is None:
        return build_homogenized(model, *HOM_GRID, gamma)
    if (
        hom.model_name != model.name
        or hom.model_expressions != model.expressions
        or hom.gamma != gamma
    ):
        raise ValueError(
            f"hom was built for model {hom.model_name!r} "
            f"{dict(hom.model_expressions or {})} at gamma={hom.gamma:g}, not "
            f"for {model.name!r} {dict(model.expressions or {})} at "
            f"gamma={gamma:g}"
        )
    return hom


def _clt_reports(
    bundle: PathBundle,
    times: Sequence[float],
    trajectory: LimitTrajectory,
    n_boot: int = N_BOOTSTRAP,
) -> list[WassersteinReport]:
    """W1 of the captured states of ``bundle`` against the limit
    ``trajectory`` at each time, the i-th bootstrapped from the stream
    (bundle seed, bootstrap, bundle point, i, bootstrap channel)."""
    reports = []
    for i, t in enumerate(times):
        sample = fluctuation_samples(bundle, trajectory, t)
        w1 = w1_vs_gaussian(sample.theta, sample.limit_mean, sample.limit_var)
        rng = _stream(
            bundle.master_seed, PURPOSE_BOOTSTRAP, bundle.point, i, CHANNEL_BOOTSTRAP
        )
        ci = bootstrap_w1(sample.theta, sample.limit_mean, sample.limit_var, rng, n_boot)
        reports.append(
            WassersteinReport(
                t=t,
                n=len(sample.theta),
                w1=w1,
                bootstrap_ci=ci,
                mean_gap=abs(float(np.mean(sample.theta)) - sample.limit_mean),
                sd_gap=abs(
                    float(np.std(sample.theta)) - math.sqrt(sample.limit_var)
                ),
                limit_var=sample.limit_var,
            )
        )
    return reports


def theoretical_bound_terms(regime: ScaleRegime, K: float, zeta: float) -> dict:
    """Individual envelope terms (C1 and C2 brackets) plus diagnostics,
    at the regime's horizon T.

    The regime-drift term eta/eps - 1/gamma^2 enters under an absolute
    value; its sign is reported separately rather than guessed away.
    """
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta must lie in (0, 1/2) (got {zeta})")
    if not K > 0:
        raise ValueError(f"K must be positive (got {K})")
    eps, eta, gamma = regime.epsilon, regime.eta, regime.gamma
    ratio = eta / eps
    inv_gamma2 = 0.0 if math.isinf(gamma) else 1.0 / gamma**2
    drift = ratio - inv_gamma2
    bracket1 = {
        "eta_quarter": eta**0.25,
        "eps_quarter": eps**0.25,
        "regime_drift_sqrt": abs(drift) ** 0.5,
        "ratio_eta_holder": ratio**0.5 * eta ** (0.5 - zeta),
        "eps_holder": eps ** (0.5 - zeta),
    }
    bracket2 = {
        "ratio_sqrt_eta_quarter": ratio**0.5 * eta**0.25,
        "ratio_eta_quarter": ratio * eta**0.25,
        "fast_transient": (1.0 + ratio) * math.exp(-K * regime.T / (16.0 * eta)),
    }
    return {
        "bracket1": bracket1,
        "bracket2": bracket2,
        "regime_drift_negative": drift < 0,
    }


def theoretical_bound(
    regime: ScaleRegime,
    K: float,
    zeta: float = 0.1,
    C1: float = 1.0,
    C2: float = 1.0,
) -> float:
    """Two-bracket theoretical envelope at one (eps, eta, gamma) point,
    at the regime's horizon T."""
    terms = theoretical_bound_terms(regime, K, zeta)
    return C1 * sum(terms["bracket1"].values()) + C2 * sum(terms["bracket2"].values())


def rate_sweep(
    model: CoefficientSet,
    epsilons: Sequence[float],
    eta_rule: Callable[[float], float] | str,
    clt_config: Mapping,
    gamma: float = 1.0,
    T: float = 1.0,
    K: float = 1.0,
    zeta: float = 0.1,
    seed=0,
) -> RateFit:
    """W1 rate regression across an (eps, eta) sweep.

    Runs :func:`clt_verify` at the final-time checkpoint for each sweep
    point (eps decreasing, eta from ``eta_rule``; the string "equal"
    means eta = eps), regresses log w1 on log eps by ordinary least
    squares, and bounds each point by the theoretical envelope with
    C1 = C2 plus the point's Monte Carlo floor (:func:`w1_floor`), the
    constant anchored so the bound meets the coarsest point.  The floor
    does not shrink with eps, so it is added rather than scaled with the
    envelope; where it exceeds the coarsest w1 the constant is 0.
    ``clt_config`` supplies
    the per-point keyword arguments of :func:`clt_verify` (x0, y0, dt
    as a rule ``dt_eta_fraction`` of eta, n_paths, n_boot, hom); any
    other key raises ValueError naming it before any work.  One
    homogenized model and one limit trajectory serve every point; the
    model is built on :data:`HOM_GRID` unless ``clt_config`` carries
    ``hom`` (checked as in :func:`clt_verify`), after every point's step
    has passed the eta/20 guard
    (:class:`~fastslow.sde_engine.StabilityError` otherwise).  An
    ``n_boot`` that is not an integer >= 1 and an ``n_paths`` that is
    not an integer >= 2 raise ValueError before any homogenization or
    simulation.  Sweep point i draws from the streams
    of point i + 1, so no point shares a stream with :func:`clt_verify`
    under the same seed.

    The points are simulated one after another, each on every CPU that
    :func:`~fastslow.sde_engine.simulate_paths` takes.  Their W1 and
    bootstrap, serial work on one point's sample, then run side by side
    through :func:`~fastslow.sde_engine._run_shares`, on the
    :func:`~fastslow.sde_engine._workers` that the sweep's n_paths x (sum
    of n_steps) path-steps take, one per point at most, each over a
    contiguous range of points, and returns the points' reports.
    A point's result depends on its own streams alone, so no split moves
    a value, and the error of the earliest failing point is raised, as
    in process.

    A point whose bootstrap CI extends outside [w1/3, 3 w1] is flagged
    as noisy, not failed.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 3:
        raise ValueError("need at least three sweep points")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("sweep must have strictly decreasing epsilon")
    if eta_rule == "equal":
        eta_of = lambda e: e  # noqa: E731
    elif callable(eta_rule):
        eta_of = eta_rule
    else:
        raise ValueError(f"unknown eta rule {eta_rule!r}")

    cfg = dict(clt_config)
    n_boot = cfg.pop("n_boot", N_BOOTSTRAP)
    _require_positive(n_boot=n_boot)
    x0 = float(cfg.pop("x0", 0.0))
    y0 = float(cfg.pop("y0", 0.0))
    n_paths = cfg.pop("n_paths", 10_000)
    _check_n_paths(n_paths)
    dt_eta_fraction = float(cfg.pop("dt_eta_fraction", STABILITY_FRACTION))
    hom = cfg.pop("hom", None)
    if cfg:
        raise ValueError(f"unknown clt_config keys: {sorted(cfg)}")
    regimes = [
        ScaleRegime(epsilon=eps, eta=float(eta_of(eps)), gamma=gamma, T=T)
        for eps in eps_list
    ]
    grids = [_checkpoint_steps(r, dt_eta_fraction * r.eta, (T,)) for r in regimes]
    hom = _matching_hom(model, gamma, hom)
    # Every point shares x0, T and hom, so one limit trajectory serves all.
    trajectory = attach_variance(hom, limit_ode(hom, x0, T, LIMIT_ODE_DT))

    bundles = [
        simulate_paths(
            model, r, x0, y0, dt_eta_fraction * r.eta, n_paths, seed,
            capture_indices=capture, _point=i + 1,
        )
        for i, (r, (_, capture)) in enumerate(zip(regimes, grids))
    ]
    path_steps = n_paths * sum(b.n_steps for b in bundles)
    shares = _split(len(bundles), _workers(path_steps))

    def run(share: range) -> list[WassersteinReport]:
        return [_clt_reports(bundles[i], grids[i][0], trajectory, n_boot)[0] for i in share]

    reports = [rep for part in _run_shares(run, shares, "sweep points") for rep in part]
    points = [(r.epsilon, r.eta, rep.w1) for r, rep in zip(regimes, reports)]
    noisy = [
        i
        for i, rep in enumerate(reports)
        if rep.w1 > 0
        and (rep.bootstrap_ci[0] < rep.w1 / 3.0 or rep.bootstrap_ci[1] > 3.0 * rep.w1)
    ]

    log_e = np.log([p[0] for p in points])
    log_w = np.log([p[2] for p in points])
    slope, intercept = np.polyfit(log_e, log_w, 1)
    fitted = slope * log_e + intercept
    ss_res = float(np.sum((log_w - fitted) ** 2))
    ss_tot = float(np.sum((log_w - np.mean(log_w)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    floors = tuple(w1_floor(rep.n, rep.limit_var) for rep in reports)
    raw0 = theoretical_bound(regimes[0], K, zeta)
    c_fit = max(points[0][2] - floors[0], 0.0) / raw0 if raw0 > 0 else 0.0
    bounds = tuple(
        theoretical_bound(r, K, zeta, c_fit, c_fit) + floor
        for r, floor in zip(regimes, floors)
    )
    return RateFit(
        points=tuple(points),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        bound_values=bounds,
        c_fit=c_fit,
        noisy_points=tuple(noisy),
        floor_values=floors,
        reports=tuple(reports),
    )
