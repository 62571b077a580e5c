"""Deterministic limit objects of the slow-fast system.

With the slow variable frozen at x, the fast process

    dY = (1/eta) f(x, Y) dt + (1/sqrt(eta)) tau(x, Y) dW

has the one-dimensional stationary density

    m(y | x) ~ (1 / tau^2(x, y)) * exp( int_{y0}^{y} 2 f(x, u) / tau^2(x, u) du ),

from which averaging produces the limit drift c_bar(x) = int c(x, y) m(y|x) dy
and the limit ODE dXbar = c_bar(Xbar) dt.  The fluctuation variance needs the
corrector phi solving the cell problem

    f * d_y phi + (tau^2 / 2) * d_yy phi = c - c_bar,      int phi m dy = 0,

whose derivative has the one-dimensional variation-of-parameters form

    d_y phi(x, y) = (2 / (tau^2(x, y) m(y|x))) *
                    int_{y_min}^{y} (c(x, u) - c_bar(x)) m(u|x) du.

(The right-hand side integrates to zero over the full line, which makes the
formula window-stable at both ends.)  The effective diffusion is

    q(x, y) = sigma^2(x, y) + (1/gamma^2) (d_y phi(x, y) * tau(x, y))^2,

q_bar its m-average, and the fluctuation limit at time t is a centred
Gaussian with variance

    sigma_t^2 = int_0^t exp( int_s^t 2 c_bar'(Xbar_u) du ) q_bar(Xbar_s) ds.

Everything here is tabulated on an x-grid with a per-x truncated y-window
and interpolated with natural cubic splines in both variables.

The natural spline with its tridiagonal solve, the bracketed root (Brent's
method) and the cumulative trapezoid rule are small private ports of scipy's
``CubicSpline(..., bc_type="natural")``, of the LAPACK ``dgtsv`` that its
``solve_banded`` runs, of ``brentq`` and of ``cumulative_trapezoid``.  Each
repeats the original's operations in its order, so every value keeps its
bits, while importing this module loads no scipy at all.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from fastslow.coefficients import CoefficientSet, _require_positive
from fastslow.sde_engine import time_grid

__all__ = [
    "HomogenizedModel",
    "LimitTrajectory",
    "TruncationError",
    "DomainEscapeError",
    "NonFiniteCorrectorError",
    "BoundaryQualityWarning",
    "default_y_window",
    "invariant_density",
    "averaged_drift",
    "solve_poisson",
    "local_q",
    "poisson_residual",
    "build_homogenized",
    "limit_ode",
    "limit_variance",
    "attach_variance",
]

#: Boundary density above this fraction of the peak means the window is
#: too narrow to carry the stationary mass.
BOUNDARY_MASS_TOL = 1e-8
#: Target boundary fraction when auto-widening a window.
WINDOW_TARGET = 1e-10
#: Density floor (relative to the row peak) below which the corrector
#: ratio is not evaluated directly.
DENSITY_FLOOR = 1e-300
#: Interior of a row = density above this fraction of the row peak.
INTERIOR_FRACTION = 1e-6
#: y-range scanned for the stationary point of f(x, .).
Y_SCAN_RANGE = (-60.0, 60.0)
#: Initial half-width of a y-window, in Laplace standard deviations.
WINDOW_HALF_WIDTH_SIGMAS = 8.0


class TruncationError(ValueError):
    """The y-window clips non-negligible stationary mass."""


class DomainEscapeError(ValueError):
    """The limit ODE left the tabulated x-range."""

    def __init__(self, message: str, t_exit: float):
        super().__init__(message)
        self.t_exit = t_exit


class NonFiniteCorrectorError(ValueError):
    """d_y phi or q_bar at an x-node is not finite."""


class BoundaryQualityWarning(UserWarning):
    """The corrector was extended by its nearest value where the density underflowed."""


class _Spline:
    """Piecewise polynomial on the breaks ``x``; ``c[k, i]`` multiplies
    (t - x[i])**(K - 1 - k) on interval i, highest power first, as in
    scipy's ``PPoly``.  Values may carry trailing axes (``c`` is then
    (K, n - 1, ...)).
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    def __call__(self, t):
        """Values at ``t``, computed as ``PPoly.__call__`` computes them:
        interval i with x[i] <= t < x[i + 1] (the first or last interval
        outside the breaks, as it extrapolates), then the sum over
        ascending powers of c * s**k with s = t - x[i], added left to
        right.  NaN gives NaN; a scalar gives a 0-d array.  Like scipy's
        loop, it warns of no overflow or invalid operation."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)
        s = (t - self.x[i]).reshape(t.shape + (1,) * (self.c.ndim - 2))
        total, power = 0.0, 1.0
        with np.errstate(all="ignore"):
            for coef in self.c[::-1]:
                total = total + coef[i] * power
                power = power * s
        return np.asarray(total)

    def derivative(self) -> "_Spline":
        k = len(self.c) - 1
        factor = np.arange(k, 0, -1.0).reshape((k,) + (1,) * (self.c.ndim - 1))
        return _Spline(self.x, self.c[:-1] * factor)


def _natural_spline(x, y) -> _Spline:
    """The cubic spline through (x, y) with zero second derivative at both
    ends, built as ``CubicSpline(x, y, bc_type="natural")`` builds it: the
    slopes s solve the same tridiagonal system by a port of the LAPACK
    routine it calls (:func:`_solve_tridiagonal`), then the Hermite
    coefficients follow from (y, s).  ``y`` may carry
    trailing axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.diff(x)
    if len(x) < 2 or not (np.all(dx > 0) and np.all(np.isfinite(y))):
        raise ValueError("a spline needs two or more increasing breaks and finite values")
    n = len(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((3, n))  # banded: upper, main and lower diagonal
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    zero = 0.0  # the natural end condition, in scipy's form (it fixes the sign of a zero)
    A[1, 0] = 2 * dx[0]
    A[0, 1] = dx[0]
    b[0] = -0.5 * zero * dx[0] ** 2 + 3 * (y[1] - y[0])
    A[1, -1] = 2 * dx[-1]
    A[-1, -2] = dx[-1]
    b[-1] = 0.5 * zero * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
    s = _solve_tridiagonal(A, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return _Spline(x, np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])))


def _solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of the tridiagonal system held in ``ab`` in the banded
    form of scipy's ``solve_banded((1, 1), ab, b)``: upper, main and lower
    diagonal in rows 0, 1 and 2, with ab[0, 0] and ab[2, -1] unused.
    ``b`` is (n, ...) with n >= 2; the result has its shape.

    It repeats, step for step, LAPACK's ``dgtsv``, which ``solve_banded``
    calls for this band: Gaussian elimination with partial pivoting that
    swaps rows i and i + 1 where |d[i]| < |dl[i]|, then back substitution,
    one right-hand-side column after another.  The loop runs on Python
    floats, IEEE doubles with no fused multiply-add, so every value keeps
    its bits, zeros their sign.  A zero pivot raises LinAlgError, as
    ``solve_banded`` does.
    """
    du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
    n = len(d)
    cols = b.reshape(n, -1).T.tolist()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            dl[i] = 0.0
            for col in cols:
                col[i + 1] = col[i + 1] - fact * col[i]
        else:  # swap rows i and i + 1
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:  # the second superdiagonal, kept in dl
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            for col in cols:
                col[i], col[i + 1] = col[i + 1], col[i] - fact * col[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    for col in cols:
        col[n - 1] = col[n - 1] / d[n - 1]
        col[n - 2] = (col[n - 2] - du[n - 2] * col[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            col[i] = (col[i] - du[i] * col[i + 1] - dl[i] * col[i + 2]) / d[i]
    return np.array(cols).T.reshape(b.shape)


def _brentq(f, a: float, b: float, xtol: float = 2e-12, maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method, step for step as scipy's
    ``brentq`` takes it (rtol = 4 eps): the same points are evaluated, in
    the same order, so the root keeps its bits.

    Raises ValueError on a NaN value or a bracket whose ends have the same
    sign, and RuntimeError after ``maxiter`` iterations without
    convergence, as scipy does.
    """
    rtol = 4 * float(np.finfo(float).eps)

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                q = dblk * dpre * (fblk - fpre)
                # In C a zero q gives an infinite or NaN step, which the test
                # below rejects; Python would raise.
                stry = -fcur * (fblk * dblk - fpre * dpre) / q if q else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x from x[0]; the operations of
    scipy's ``cumulative_trapezoid(y, x, initial=0.0)``."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass(frozen=True)
class LimitTrajectory:
    """Limit ODE orbit Xbar on its time grid, and the variance profile.

    ``sigma2`` is filled by :func:`attach_variance` (None until then).
    """

    t_grid: np.ndarray
    x_bar: np.ndarray
    sigma2: np.ndarray | None = None


@dataclass(frozen=True)
class HomogenizedModel:
    """Tabulated limit objects with cubic-spline evaluation.

    ``y_grid``, ``density``, ``phi``, ``dy_phi`` are (nx, ny) matrices;
    row i lives on the per-x window ``y_grid[i]``.  ``c_bar`` and
    ``q_bar`` are per-x arrays.  ``model_name`` and ``model_expressions``
    identify the model the tables were built for.  Instances are
    immutable; evaluation methods are pure and thread-safe.  Only the
    c_bar and q_bar splines are fitted at construction; :meth:`phi_at`
    and :meth:`dy_phi_at` fit the row splines they read on each call.
    """

    x_grid: np.ndarray
    y_grid: np.ndarray
    density: np.ndarray
    c_bar: np.ndarray
    phi: np.ndarray
    dy_phi: np.ndarray
    q_bar: np.ndarray
    gamma: float
    model_name: str
    warnings: tuple[str, ...] = ()
    model_expressions: Mapping[str, str] | None = None
    _c_bar_spline: _Spline = field(init=False, repr=False, compare=False)
    _c_bar_prime: _Spline = field(init=False, repr=False, compare=False)
    _q_bar_spline: _Spline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cb = _natural_spline(self.x_grid, self.c_bar)
        object.__setattr__(self, "_c_bar_spline", cb)
        object.__setattr__(self, "_c_bar_prime", cb.derivative())
        object.__setattr__(self, "_q_bar_spline", _natural_spline(self.x_grid, self.q_bar))

    # -- evaluation ----------------------------------------------------
    def c_bar_at(self, x):
        """Averaged drift c_bar(x)."""
        return self._c_bar_spline(x)

    def c_bar_prime_at(self, x):
        """Derivative of the averaged drift (drives the variance profile)."""
        return self._c_bar_prime(x)

    def q_bar_at(self, x):
        """Averaged effective diffusion q_bar(x)."""
        return self._q_bar_spline(x)

    def _rows_at(self, table, x, y):
        x = float(x)
        vals = np.array(
            [
                _natural_spline(y_row, row)(np.clip(y, y_row[0], y_row[-1]))
                for y_row, row in zip(self.y_grid, table)
            ]
        )
        return _natural_spline(self.x_grid, vals)(x)

    def phi_at(self, x, y):
        """Corrector phi(x, y) (y clamped to the row windows)."""
        return self._rows_at(self.phi, x, y)

    def dy_phi_at(self, x, y):
        """Corrector derivative d_y phi(x, y)."""
        return self._rows_at(self.dy_phi, x, y)


def _scalar_interp(interp: _Spline):
    """A float -> float function equal to ``float(interp(x))`` for a
    one-dimensional spline or its derivative.

    It repeats, on Python floats, what :meth:`_Spline.__call__` computes
    for one point: the interval i with breaks[i] <= x < breaks[i + 1] (the
    first or last interval outside the breaks, as it extrapolates) and
    the sum over ascending powers of coefficient * s**k, with s = x -
    breaks[i] and s**k formed by repeated products, added left to right.
    So each value keeps its bits, without the array call per point.
    """
    breaks = interp.x.tolist()
    ascending = interp.c[::-1].T.tolist()  # per interval, lowest power first
    last = len(breaks) - 2

    def at(x):
        x = float(x)
        i = min(max(bisect_right(breaks, x) - 1, 0), last)
        s = x - breaks[i]
        total, power = 0.0, 1.0
        for coef in ascending[i]:
            total = total + coef * power
            power = power * s
        return total

    return at


def default_y_window(model: CoefficientSet, x: float) -> tuple[float, float]:
    """Choose a y-window centred on the stationary mode.

    The mode solves f(x, y*) = 0 (scan of ``Y_SCAN_RANGE``, then
    bisection); the width scale is the Laplace estimate
    s = sqrt(-tau^2 / (2 d2_f)) at the mode.  The window [y* - k s,
    y* + k s], k = ``WINDOW_HALF_WIDTH_SIGMAS``, is widened by 1.5x
    until the unnormalized density at both ends falls below
    ``WINDOW_TARGET`` of the peak.
    """
    lo, hi = Y_SCAN_RANGE
    ys = np.linspace(lo, hi, 4097)
    fv = model.f(np.full_like(ys, x), ys)
    sign = np.sign(fv)
    flips = np.nonzero(np.diff(sign) != 0)[0]
    if len(flips) == 0:
        raise TruncationError(
            f"no stationary point of f({x}, .) in the scanned range "
            f"{Y_SCAN_RANGE}"
        )
    # Use the sign change closest to the window centre; dissipative f
    # crosses downward there.
    mid = 0.5 * (lo + hi)
    k = flips[np.argmin(np.abs(ys[flips] - mid))]
    y_star = _brentq(lambda u: float(model.f(x, u)), ys[k], ys[k + 1], xtol=1e-12)
    d2f = float(model.d2_f(x, y_star))
    tau2 = float(model.tau(x, y_star)) ** 2
    if d2f >= 0:
        raise TruncationError(
            f"stationary point y*={y_star:.4g} of f({x}, .) is not attracting"
        )
    s = np.sqrt(-tau2 / (2.0 * d2f))
    half = WINDOW_HALF_WIDTH_SIGMAS * s
    for _ in range(9):
        window = (y_star - half, y_star + half)
        dens = _raw_density(model, x, np.linspace(*window, 513))
        if max(dens[0], dens[-1]) < WINDOW_TARGET * dens.max():
            return window
        half *= 1.5
    raise TruncationError(
        f"could not find a y-window at x={x} with boundary mass below "
        f"{WINDOW_TARGET:g} of the peak; the fast process may not be "
        "confined"
    )


def _raw_density(model: CoefficientSet, x: float, y: np.ndarray) -> np.ndarray:
    """Unnormalized stationary density on the given nodes."""
    xa = np.full_like(y, float(x))
    tau2 = np.asarray(model.tau(xa, y), float) ** 2
    ratio = 2.0 * np.asarray(model.f(xa, y), float) / tau2
    expo = _cumulative_trapezoid(ratio, y)
    expo -= expo.max()
    return np.exp(expo) / tau2


def invariant_density(
    model: CoefficientSet,
    x: float,
    y_window: tuple[float, float],
    ny: int,
) -> np.ndarray:
    """Normalized stationary density of the frozen-x fast process.

    Parameters
    ----------
    y_window : (lo, hi)
        Truncation window; the implied grid is ``np.linspace(lo, hi, ny)``.
    ny : int
        Number of nodes, an integer of at least 64.

    Returns
    -------
    ndarray
        Density row, trapezoid-normalized to unit mass on the window.

    Raises
    ------
    TruncationError
        If the boundary density exceeds ``BOUNDARY_MASS_TOL`` of the
        peak (the window clips real mass; widen it).
    """
    _require_positive(ny=ny)
    if ny < 64:
        raise ValueError(f"ny must be at least 64 (got {ny})")
    lo, hi = float(y_window[0]), float(y_window[1])
    if not lo < hi:
        raise ValueError(f"empty y-window ({lo}, {hi})")
    y = np.linspace(lo, hi, ny)
    dens = _raw_density(model, x, y)
    peak = dens.max()
    if max(dens[0], dens[-1]) > BOUNDARY_MASS_TOL * peak:
        raise TruncationError(
            f"x={x}: boundary density {max(dens[0], dens[-1]) / peak:.2e} "
            f"of peak exceeds {BOUNDARY_MASS_TOL:g}; widen the y-window "
            f"beyond ({lo:.4g}, {hi:.4g})"
        )
    return dens / np.trapezoid(dens, y)


def averaged_drift(
    model: CoefficientSet, x: float, y_grid: np.ndarray, density: np.ndarray
) -> float:
    """Averaged drift c_bar(x) = int c(x, y) m(y|x) dy (trapezoid)."""
    c = model.c(np.full_like(y_grid, float(x)), y_grid)
    return float(np.trapezoid(c * density, y_grid))


def solve_poisson(
    model: CoefficientSet,
    x: float,
    y_grid: np.ndarray,
    density: np.ndarray,
    c_bar: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the cell problem for the corrector on one row.

    Integrates the centred drift against the density, from the left end
    up to the density's mode and from the right end beyond it, divides by
    (tau^2/2) m to get d_y phi, cumulates to phi, and centres phi so
    that int phi m dy = 0.  Where the density underflows (below
    ``DENSITY_FLOOR`` of the peak) the ratio is extended by its nearest
    interior value and a :class:`BoundaryQualityWarning` is issued.

    Returns
    -------
    (phi, dy_phi) : pair of ndarray
    """
    xa = np.full_like(y_grid, float(x))
    if c_bar is None:
        c_bar = averaged_drift(model, x, y_grid, density)
    c = np.asarray(model.c(xa, y_grid), float)
    tau2 = np.asarray(model.tau(xa, y_grid), float) ** 2
    # The flux vanishes at both ends.  Right of the mode it is -int_y^end:
    # cumulated from the left end, it would be a round-off remainder there,
    # divided below by a vanishing density.
    source = (c - c_bar) * density
    from_left = _cumulative_trapezoid(source, y_grid)
    from_right = _cumulative_trapezoid(source[::-1], y_grid[::-1])[::-1]
    flux = np.where(np.arange(len(y_grid)) <= np.argmax(density), from_left, from_right)
    good = density > DENSITY_FLOOR * density.max()
    dy_phi = np.empty_like(flux)
    dy_phi[good] = 2.0 * flux[good] / (tau2[good] * density[good])
    if not good.all():
        idx = np.arange(len(y_grid))
        dy_phi[~good] = np.interp(idx[~good], idx[good], dy_phi[good])
        warnings.warn(
            f"x={x}: density underflow on {int((~good).sum())} nodes; "
            "d_y phi extended by nearest interior values",
            BoundaryQualityWarning,
            stacklevel=2,
        )
    phi = _cumulative_trapezoid(dy_phi, y_grid)
    phi = phi - np.trapezoid(phi * density, y_grid)
    return phi, dy_phi


def local_q(model: CoefficientSet, x, y, dy_phi_value, gamma: float):
    """Effective local diffusion q(x, y).

    q = sigma^2 + (1/gamma^2) (d_y phi * tau)^2, with the gamma = inf
    branch returning sigma^2 exactly (no rounding through 1/inf).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive or inf (got {gamma})")
    sig2 = np.asarray(model.sigma(x, y), float) ** 2
    if np.isinf(gamma):
        return sig2
    corr = np.asarray(dy_phi_value, float) * np.asarray(model.tau(x, y), float)
    return sig2 + corr**2 / gamma**2


def poisson_residual(
    model: CoefficientSet,
    x: float,
    y_grid: np.ndarray,
    density: np.ndarray,
    phi: np.ndarray,
    dy_phi: np.ndarray,
    c_bar: float,
) -> float:
    """Max abs generator residual |f d_y phi + (tau^2/2) d_yy phi - (c - c_bar)|
    over the interior of the row (density above ``INTERIOR_FRACTION`` of
    the peak).  d_yy phi is a central difference of ``dy_phi``.
    """
    xa = np.full_like(y_grid, float(x))
    f = np.asarray(model.f(xa, y_grid), float)
    tau2 = np.asarray(model.tau(xa, y_grid), float) ** 2
    c = np.asarray(model.c(xa, y_grid), float)
    dyy = np.gradient(dy_phi, y_grid)
    resid = f * dy_phi + 0.5 * tau2 * dyy - (c - c_bar)
    interior = density >= INTERIOR_FRACTION * density.max()
    return float(np.max(np.abs(resid[interior])))


def build_homogenized(
    model: CoefficientSet,
    x_range: tuple[float, float],
    nx: int,
    ny: int = 8192,
    gamma: float = np.inf,
) -> HomogenizedModel:
    """Tabulate every limit object over an x-grid.

    Per x-node: choose a y-window, compute the stationary density, the
    averaged drift, the corrector and its derivative, the local
    effective diffusion and its average.  Errors at a node are re-raised
    naming the offending x.  Before the first node, ValueError names an
    ``nx`` or ``ny`` that is not an integer, an ``nx`` below 2 and an
    ``x_range`` that is not finite with lo < hi.
    """
    _require_positive(nx=nx, ny=ny)
    if nx < 2:
        raise ValueError(f"nx must be at least 2 (got {nx})")
    lo, hi = x_range[0], x_range[1]
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"x_range must be finite with lo < hi (got {tuple(x_range)})")
    xs = np.linspace(lo, hi, nx)
    y_rows = np.empty((nx, ny))
    dens = np.empty((nx, ny))
    phi = np.empty((nx, ny))
    dy_phi = np.empty((nx, ny))
    c_bar = np.empty(nx)
    q_bar = np.empty(nx)
    notes: list[str] = []
    for i, x in enumerate(xs):
        try:
            window = default_y_window(model, float(x))
            y = np.linspace(window[0], window[1], ny)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", BoundaryQualityWarning)
                row = invariant_density(model, float(x), window, ny)
                cb = averaged_drift(model, float(x), y, row)
                ph, dph = solve_poisson(model, float(x), y, row, cb)
            for w in caught:
                notes.append(str(w.message))
            q_row = local_q(model, np.full_like(y, float(x)), y, dph, gamma)
            y_rows[i] = y
            dens[i] = row
            phi[i] = ph
            dy_phi[i] = dph
            c_bar[i] = cb
            q_bar[i] = float(np.trapezoid(q_row * row, y))
            if not (np.all(np.isfinite(dph)) and np.isfinite(q_bar[i])):
                raise NonFiniteCorrectorError(_corrector_failure(y, row, dph, q_bar[i]))
        except Exception as exc:
            raise type(exc)(f"x-node {i} (x={x:.6g}): {exc}") from exc
    return HomogenizedModel(
        x_grid=xs,
        y_grid=y_rows,
        density=dens,
        c_bar=c_bar,
        phi=phi,
        dy_phi=dy_phi,
        q_bar=q_bar,
        gamma=float(gamma),
        model_name=model.name,
        warnings=tuple(notes),
        model_expressions=model.expressions,
    )


def _corrector_failure(
    y: np.ndarray, density: np.ndarray, dy_phi: np.ndarray, q_bar: float
) -> str:
    """Why a row's corrector is not finite: where |d_y phi| peaks, and the
    underflowed density on that side of the mode, if any."""
    mode = int(np.argmax(density))
    peak = int(np.argmax(np.nan_to_num(np.abs(dy_phi), nan=np.inf)))
    under = density <= DENSITY_FLOOR * density.max()
    side, tail = ("right", under[mode:]) if peak > mode else ("left", under[:mode])
    msg = (
        f"the corrector is not finite: |d_y phi| peaks at {abs(dy_phi[peak]):.3g} "
        f"(y={y[peak]:.4g}) and q_bar = {q_bar:.3g}"
    )
    if tail.any():
        msg += (
            f"; the density underflows on {int(tail.sum())} nodes of the {side} "
            "tail of the y-window, where d_y phi = 2 flux / (tau^2 m) divides "
            "by a vanishing density"
        )
    return msg


def limit_ode(
    hom: HomogenizedModel, x0: float, T: float, dt: float
) -> LimitTrajectory:
    """Integrate dXbar = c_bar(Xbar) dt with classical RK4 on Python floats.

    The nodes are those of :func:`~fastslow.sde_engine.time_grid`
    (T, dt), the grid of the simulations: ceil(T/dt) steps of T/n.
    c_bar is evaluated on scalars, bit-equal to the spline's array call.
    Raises :class:`DomainEscapeError` if the orbit leaves the tabulated
    x-range (reporting the exit time).
    """
    if dt <= 0 or T <= 0:
        raise ValueError(f"need T, dt > 0 (got T={T}, dt={dt})")
    lo, hi = float(hom.x_grid[0]), float(hom.x_grid[-1])
    if not lo <= x0 <= hi:
        raise DomainEscapeError(
            f"x0={x0} outside tabulated range [{lo}, {hi}]", 0.0
        )
    n, h = time_grid(T, dt)
    t = np.linspace(0.0, T, n + 1)
    xb = np.empty(n + 1)
    xb[0] = x0
    c_bar = _scalar_interp(hom._c_bar_spline)
    x = float(x0)
    for k in range(n):
        k1 = c_bar(x)
        k2 = c_bar(x + 0.5 * h * k1)
        k3 = c_bar(x + 0.5 * h * k2)
        k4 = c_bar(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not lo <= x <= hi:
            raise DomainEscapeError(
                f"limit orbit left [{lo}, {hi}] at t={t[k + 1]:.6g}",
                float(t[k + 1]),
            )
        xb[k + 1] = x
    return LimitTrajectory(t_grid=t, x_bar=xb)


def _variance_profile(hom: HomogenizedModel, traj: LimitTrajectory) -> np.ndarray:
    """sigma_t^2 on the trajectory nodes via a stable step recursion.

    With A_t = int_0^t c_bar'(Xbar), sigma_t^2 = e^{2A_t} int_0^t
    e^{-2A_s} q_bar ds.  The recursion keeps all exponents O(dt):

        sigma^2_{k+1} = e^{2 dA} sigma^2_k
                        + (dt/2) (e^{2 dA} q_k + q_{k+1}).
    """
    t = traj.t_grid
    cp = np.asarray(hom.c_bar_prime_at(traj.x_bar), float)
    qb = np.asarray(hom.q_bar_at(traj.x_bar), float)
    out = np.empty_like(t)
    out[0] = 0.0
    for k in range(len(t) - 1):
        dt = t[k + 1] - t[k]
        growth = np.exp((cp[k] + cp[k + 1]) * dt)  # e^{2 dA}, trapezoid dA
        out[k + 1] = growth * out[k] + 0.5 * dt * (growth * qb[k] + qb[k + 1])
    return out


def attach_variance(hom: HomogenizedModel, traj: LimitTrajectory) -> LimitTrajectory:
    """Return a copy of ``traj`` with the sigma2 profile filled in."""
    return replace(traj, sigma2=_variance_profile(hom, traj))


def limit_variance(hom: HomogenizedModel, traj: LimitTrajectory, t: float) -> float:
    """Fluctuation variance sigma_t^2 at time t in [0, T].

    Computed from the stored trajectory (linear interpolation between
    its nodes for off-node t).
    """
    if not 0.0 <= t <= traj.t_grid[-1] + 1e-12:
        raise ValueError(
            f"t={t} outside trajectory range [0, {traj.t_grid[-1]}]"
        )
    prof = traj.sigma2 if traj.sigma2 is not None else _variance_profile(hom, traj)
    return float(np.interp(t, traj.t_grid, prof))

