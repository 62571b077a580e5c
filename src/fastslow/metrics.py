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
antiderivative G on the sorted sample and the Gaussian quantiles at the
plateau levels k/n.  :func:`w1_vs_gaussian` evaluates it on the sample
itself, and every bootstrap resample is its sorted ranks in the same
table, so a resample makes no float sort, no ndtri call and evaluates G
only where a quantile falls strictly inside its interval.  The result is
bit-equal to sorting the resampled values and integrating afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, xlog1py, xlogy

from fastslow.coefficients import CoefficientSet
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
    _check_stability,
    _grid_index,
    _run_shares,
    _split,
    _stream,
    _workers,
    fluctuation_samples,
    simulate_paths,
    time_grid,
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


def _gaussian_cdf_antiderivative(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Antiderivative of the N(mu, sigma^2) CDF vanishing at -infinity."""
    z = (x - mu) / sigma
    zc = np.clip(z, -_Z_UNDERFLOW, _Z_UNDERFLOW)
    return (x - mu) * ndtr(z) + sigma * np.exp(-0.5 * zc**2) / math.sqrt(2.0 * math.pi)


class _W1Table:
    """Exact W1 against N(mu, sigma2) of one sample and its resamples.

    Holds the sorted sample ``xs``, the rank of each original index in
    it (``xs[rank[i]] == samples[i]``), ``G`` on ``xs`` and the Gaussian
    ``quantile`` mu + sigma ndtri(k/n) at each plateau level k/n.  A
    resample drawing original indices ``idx`` has the sorted values
    ``xs[j]`` with ``j = sort(rank[idx])``.  Where a quantile is clipped
    to an interval end, G of the crossing is that end's gathered G.
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
        self.quantile = mu + sigma * ndtri(self.q)
        self.G = self._G(self.xs)

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
        g_crossing[inside] = self._G(crossing[inside])
        middle = np.sum(self.q * (2.0 * crossing - a - b) + ga + gb - 2.0 * g_crossing)

        left_tail = self._G(v[0])  # integral of F below the smallest sample
        z_hi = (v[-1] - mu) / sigma
        z_hi_c = min(max(z_hi, -_Z_UNDERFLOW), _Z_UNDERFLOW)
        right_tail = sigma * (
            np.exp(-0.5 * z_hi_c**2) / math.sqrt(2.0 * math.pi)
            - z_hi * (1.0 - ndtr(z_hi))
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
        1.0 - 2.0 * ndtr(-ratio)
    )


def w1_floor(n: int, sigma2: float) -> float:
    """Mean of :func:`w1_vs_gaussian` over n i.i.d. draws of its target
    N(mu, sigma2): the estimator's Monte Carlo floor, which falls like
    n^{-1/2} (Bobkov & Ledoux, 2019).  n F_n(z) is Binomial(n, Phi(z)),
    whose mean absolute deviation is 2 k (1 - p) P(B = k) with
    k = floor(n p) + 1 (de Moivre); the trapezoid rule integrates it
    over z.  ValueError for an ``n`` that is not an integer >= 1 or a
    negative ``sigma2``.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1 (got {n!r})")
    if not sigma2 >= 0:
        raise ValueError(f"variance must be nonnegative (got {sigma2})")
    z = np.linspace(-9.0, 9.0, _FLOOR_NODES)
    p = ndtr(z)
    k = np.floor(n * p) + 1.0
    inside = k <= n
    k = np.minimum(k, n)
    log_pmf = (
        gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
        + xlogy(k, p) + xlog1py(n - k, -p)
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
    ``numpy.random.Generator`` to resample from.  The sample is sorted, and G
    and the plateau quantiles are evaluated, once; each resample is its
    sorted ranks in that table (see :class:`_W1Table`), so it costs an
    integer sort and a few gathers and gives the same W1 as sorting the
    resampled values.

    Raises ValueError for an ``n_boot`` that is not an integer >= 1, a
    ``level`` outside (0, 1), or samples :func:`w1_vs_gaussian` rejects.
    """
    _check_n_boot(n_boot)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1) (got {level!r})")
    table = _W1Table(samples, mu, sigma2)
    n = table.n
    rng = seed if isinstance(seed, np.random.Generator) else _stream(
        seed, PURPOSE_BOOTSTRAP, 0, 0, CHANNEL_BOOTSTRAP
    )
    stats = np.empty(n_boot)
    for i in range(n_boot):
        idx = rng.choice(n, size=n, replace=True)
        stats[i] = table.w1(np.sort(table.rank[idx]))
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(stats, [alpha, 100.0 - alpha])
    return float(lo), float(hi)


def _check_n_boot(n_boot) -> None:
    if isinstance(n_boot, bool) or not isinstance(n_boot, (int, np.integer)) or n_boot < 1:
        raise ValueError(f"n_boot must be an integer >= 1 (got {n_boot!r})")


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
    on :data:`HOM_GRID`.  A ``dt`` above eta/20 raises
    :class:`~fastslow.sde_engine.StabilityError` before any
    homogenization work.  Checkpoints must sit on the simulation grid
    and default to {T/4, T/2, T}.  An ``n_boot`` that is not an integer
    >= 1 raises ValueError before any other work.
    """
    _check_n_boot(n_boot)
    if checkpoints is None:
        checkpoints = default_checkpoints(regime.T)
    times, capture = _checkpoint_steps(regime, dt, checkpoints)
    hom = _matching_hom(model, regime.gamma, hom)
    trajectory = attach_variance(hom, limit_ode(hom, x0, regime.T, LIMIT_ODE_DT))
    bundle = simulate_paths(
        model, regime, x0, y0, dt, n_paths, seed, store_paths=False,
        capture_indices=capture,
    )
    return _clt_reports(bundle, times, trajectory, n_boot)


def _checkpoint_steps(
    regime: ScaleRegime, dt: float, checkpoints: Sequence[float]
) -> tuple[list[float], list[int]]:
    """Checkpoint times and their step indices on the simulation grid.

    Raises ValueError for a time outside (0, T],
    :class:`~fastslow.sde_engine.StabilityError` for a step above eta/20
    and :class:`~fastslow.sde_engine.AlignmentError` for a time off the
    grid.
    """
    T = regime.T
    times = [float(t) for t in checkpoints]
    for t in times:
        if not 0.0 < t <= T + 1e-12:
            raise ValueError(f"checkpoint {t} outside (0, {T}]")
    _check_stability(dt, regime.eta)
    n_steps, dt_eff = time_grid(T, dt)
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
    ``n_boot`` that is not an integer >= 1 raises ValueError before any
    homogenization or simulation.  Sweep point i draws from the streams
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
    _check_n_boot(n_boot)
    x0 = float(cfg.pop("x0", 0.0))
    y0 = float(cfg.pop("y0", 0.0))
    n_paths = int(cfg.pop("n_paths", 10_000))
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
            store_paths=False, capture_indices=capture, _point=i + 1,
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
