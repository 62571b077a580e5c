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
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline, PPoly
from scipy.optimize import brentq

from fastslow.coefficients import CoefficientSet

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
    "write_detail_csv",
    "write_summary_csv",
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


@dataclass(frozen=True)
class LimitTrajectory:
    """Limit ODE orbit Xbar, its linearization Psi, and the variance profile.

    ``psi`` solves dPsi = c_bar'(Xbar) Psi dt with Psi(0) = x0; ``sigma2``
    is filled by :func:`attach_variance` (None until then).
    """

    t_grid: np.ndarray
    x_bar: np.ndarray
    psi: np.ndarray
    sigma2: np.ndarray | None = None


@dataclass(frozen=True)
class HomogenizedModel:
    """Tabulated limit objects with cubic-spline evaluation.

    ``y_grid``, ``density``, ``phi``, ``dy_phi`` are (nx, ny) matrices;
    row i lives on the per-x window ``y_grid[i]``.  ``c_bar`` and
    ``q_bar`` are per-x arrays.  ``model_name`` and ``model_expressions``
    identify the model the tables were built for.  Instances are
    immutable; evaluation methods are pure and thread-safe.
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
    interpolation: str = "cubic-x/cubic-y"
    warnings: tuple[str, ...] = ()
    model_expressions: Mapping[str, str] | None = None
    _c_bar_spline: CubicSpline = field(init=False, repr=False, compare=False)
    _c_bar_prime: CubicSpline = field(init=False, repr=False, compare=False)
    _q_bar_spline: CubicSpline = field(init=False, repr=False, compare=False)
    _phi_rows: tuple = field(init=False, repr=False, compare=False)
    _dy_phi_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.x_grid) >= 4:
            cb = CubicSpline(self.x_grid, self.c_bar, bc_type="natural")
            qb = CubicSpline(self.x_grid, self.q_bar, bc_type="natural")
        else:
            # Degenerate x-grids (2-3 nodes) fall back to the unique
            # low-order polynomial interpolant.
            cb = _poly_interp(self.x_grid, self.c_bar)
            qb = _poly_interp(self.x_grid, self.q_bar)
        prime = cb.derivative() if isinstance(cb, CubicSpline) else cb.deriv()
        object.__setattr__(self, "_c_bar_spline", cb)
        object.__setattr__(self, "_c_bar_prime", prime)
        object.__setattr__(self, "_q_bar_spline", qb)
        phi_rows = tuple(
            CubicSpline(self.y_grid[i], self.phi[i], bc_type="natural")
            for i in range(len(self.x_grid))
        )
        dy_rows = tuple(
            CubicSpline(self.y_grid[i], self.dy_phi[i], bc_type="natural")
            for i in range(len(self.x_grid))
        )
        object.__setattr__(self, "_phi_rows", phi_rows)
        object.__setattr__(self, "_dy_phi_rows", dy_rows)

    # -- evaluation ----------------------------------------------------
    def c_bar_at(self, x):
        """Averaged drift c_bar(x)."""
        return self._c_bar_spline(x)

    def c_bar_prime_at(self, x):
        """Derivative of the averaged drift (drives the linearization)."""
        return self._c_bar_prime(x)

    def q_bar_at(self, x):
        """Averaged effective diffusion q_bar(x)."""
        return self._q_bar_spline(x)

    def _rows_at(self, rows, x, y):
        x = float(x)
        vals = np.array(
            [
                rows[i](np.clip(y, self.y_grid[i][0], self.y_grid[i][-1]))
                for i in range(len(self.x_grid))
            ]
        )
        if len(self.x_grid) >= 4:
            return CubicSpline(self.x_grid, vals, bc_type="natural")(x)
        return _poly_interp(self.x_grid, vals)(x)

    def phi_at(self, x, y):
        """Corrector phi(x, y) (y clamped to the row windows)."""
        return self._rows_at(self._phi_rows, x, y)

    def dy_phi_at(self, x, y):
        """Corrector derivative d_y phi(x, y)."""
        return self._rows_at(self._dy_phi_rows, x, y)

    def y_window(self, i: int) -> tuple[float, float]:
        return float(self.y_grid[i][0]), float(self.y_grid[i][-1])


def _poly_interp(xs, vals):
    """Exact low-order polynomial interpolant for degenerate grids."""
    return np.poly1d(np.polyfit(xs, vals, deg=len(xs) - 1))


def _scalar_interp(interp):
    """A float -> float function equal to ``float(interp(x))``.

    For a piecewise polynomial (a :class:`CubicSpline` or its derivative)
    it repeats, on Python floats, what ``PPoly.__call__`` computes for
    one point: the interval i with breaks[i] <= x < breaks[i + 1] (the
    first or last interval outside the breaks, as it extrapolates) and
    the sum over ascending powers of coefficient * s**k, with s = x -
    breaks[i] and s**k formed by repeated products, added left to right.
    So each value keeps its bits, without the array call per point.
    """
    if not isinstance(interp, PPoly):
        return lambda x: float(interp(x))
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


def default_y_window(
    model: CoefficientSet,
    x: float,
    half_width_sigmas: float = 8.0,
    scan_range: tuple[float, float] = (-60.0, 60.0),
) -> tuple[float, float]:
    """Choose a y-window centred on the stationary mode.

    The mode solves f(x, y*) = 0 (located by scan + bisection); the
    width scale is the Laplace estimate s = sqrt(-tau^2 / (2 d2_f)) at
    the mode.  The window [y* - k s, y* + k s] is widened by 1.5x until
    the unnormalized density at both ends falls below ``WINDOW_TARGET``
    of the peak.
    """
    ys = np.linspace(scan_range[0], scan_range[1], 4097)
    fv = model.f(np.full_like(ys, x), ys)
    sign = np.sign(fv)
    flips = np.nonzero(np.diff(sign) != 0)[0]
    if len(flips) == 0:
        raise TruncationError(
            f"no stationary point of f({x}, .) in {scan_range}; "
            "widen scan_range"
        )
    # Use the sign change closest to the window centre; dissipative f
    # crosses downward there.
    mid = 0.5 * (scan_range[0] + scan_range[1])
    k = flips[np.argmin(np.abs(ys[flips] - mid))]
    y_star = brentq(lambda u: float(model.f(x, u)), ys[k], ys[k + 1], xtol=1e-12)
    d2f = float(model.d2_f(x, y_star))
    tau2 = float(model.tau(x, y_star)) ** 2
    if d2f >= 0:
        raise TruncationError(
            f"stationary point y*={y_star:.4g} of f({x}, .) is not attracting"
        )
    s = np.sqrt(-tau2 / (2.0 * d2f))
    half = half_width_sigmas * s
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
    expo = cumulative_trapezoid(ratio, y, initial=0.0)
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
        Number of nodes, at least 64.

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

    Integrates the centred drift against the density, divides by
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
    flux = cumulative_trapezoid((c - c_bar) * density, y_grid, initial=0.0)
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
    phi = cumulative_trapezoid(dy_phi, y_grid, initial=0.0)
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
    naming the offending x.
    """
    if nx < 2:
        raise ValueError(f"nx must be at least 2 (got {nx})")
    xs = np.linspace(x_range[0], x_range[1], nx)
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
            "tail of the y-window, where d_y phi = 2 flux / (tau^2 m) divides a "
            "round-off flux by a vanishing density"
        )
    return msg


def limit_ode(
    hom: HomogenizedModel, x0: float, T: float, dt: float
) -> LimitTrajectory:
    """Integrate the coupled (Xbar, Psi) system with classical RK4.

    dXbar = c_bar(Xbar) dt,  dPsi = c_bar'(Xbar) Psi dt,  Psi(0) = x0.

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
    n = max(1, int(round(T / dt)))
    h = T / n
    t = np.linspace(0.0, T, n + 1)
    xb = np.empty(n + 1)
    ps = np.empty(n + 1)
    xb[0], ps[0] = x0, x0

    c_bar = _scalar_interp(hom._c_bar_spline)
    c_bar_prime = _scalar_interp(hom._c_bar_prime)

    def rhs(state):
        x, p = state
        return np.array([c_bar(x), c_bar_prime(x) * p])

    state = np.array([x0, x0], dtype=float)
    for k in range(n):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not lo <= state[0] <= hi:
            raise DomainEscapeError(
                f"limit orbit left [{lo}, {hi}] at t={t[k + 1]:.6g}",
                float(t[k + 1]),
            )
        xb[k + 1], ps[k + 1] = state
    return LimitTrajectory(t_grid=t, x_bar=xb, psi=ps)


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
    return LimitTrajectory(
        t_grid=traj.t_grid,
        x_bar=traj.x_bar,
        psi=traj.psi,
        sigma2=_variance_profile(hom, traj),
    )


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


def _format(v: float) -> str:
    return repr(float(v))


def write_detail_csv(hom: HomogenizedModel, path) -> None:
    """Dump (x, y, m, phi, dy_phi) rows for every tabulated node."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,m,phi,dy_phi\n")
        for i, x in enumerate(hom.x_grid):
            for j in range(hom.y_grid.shape[1]):
                fh.write(
                    ",".join(
                        [
                            _format(x),
                            _format(hom.y_grid[i, j]),
                            _format(hom.density[i, j]),
                            _format(hom.phi[i, j]),
                            _format(hom.dy_phi[i, j]),
                        ]
                    )
                    + "\n"
                )


def write_summary_csv(hom: HomogenizedModel, path) -> None:
    """Dump the per-x summary (x, c_bar, q_bar)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,c_bar,q_bar\n")
        for i, x in enumerate(hom.x_grid):
            fh.write(
                ",".join(
                    [_format(x), _format(hom.c_bar[i]), _format(hom.q_bar[i])]
                )
                + "\n"
            )
