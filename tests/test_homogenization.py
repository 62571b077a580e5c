"""Stationary density, averaging, corrector, and the limit ODE/variance."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fastslow.coefficients import get_model, model_from_expressions
from fastslow.homogenization import (
    DomainEscapeError,
    NonFiniteCorrectorError,
    TruncationError,
    attach_variance,
    averaged_drift,
    build_homogenized,
    default_y_window,
    invariant_density,
    limit_ode,
    limit_variance,
    local_q,
    poisson_residual,
    solve_poisson,
)
from fastslow.sde_engine import time_grid


def _affine_row(affine, x, ny=2048):
    window = default_y_window(affine, x)
    y = np.linspace(window[0], window[1], ny)
    dens = invariant_density(affine, x, window, ny)
    return y, dens


def test_default_window_brackets_fast_equilibrium(affine):
    lo, hi = default_y_window(affine, 0.7)
    assert lo < 0.7 < hi
    assert hi - lo >= 16.0  # at least +-8 stationary standard deviations


def test_invariant_density_matches_gaussian(affine):
    y, dens = _affine_row(affine, 0.7)
    exact = np.exp(-0.5 * (y - 0.7) ** 2) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(dens - exact)) < 1e-8
    assert np.trapezoid(dens, y) == pytest.approx(1.0, abs=1e-12)


def test_invariant_density_bounded_model(bounded):
    x = -1.3
    y, dens = (lambda w: (np.linspace(*w, 2048), invariant_density(bounded, x, w, 2048)))(
        default_y_window(bounded, x)
    )
    mean = 0.5 * math.tanh(x)
    exact = np.exp(-0.5 * (y - mean) ** 2) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(dens - exact)) < 1e-8


def test_invariant_density_rejects_narrow_window(affine):
    with pytest.raises(TruncationError):
        invariant_density(affine, 0.0, (-2.0, 2.0), 256)


def test_invariant_density_validates_arguments(affine):
    with pytest.raises(ValueError):
        invariant_density(affine, 0.0, (-10.0, 10.0), 32)
    with pytest.raises(ValueError):
        invariant_density(affine, 0.0, (3.0, -3.0), 256)


@pytest.mark.parametrize("bad", [True, 128.0, 100.5])
def test_grid_sizes_must_be_integers(affine, bad):
    """nx and ny of build_homogenized and ny of invariant_density take
    the count rule: a bool, an integral float or a fraction raises
    ValueError naming the argument, where np.linspace or np.empty raised
    a bare TypeError on a float and a bool passed as a size."""
    for name in ("nx", "ny"):
        sizes = dict(nx=3, ny=256) | {name: bad}
        message = f"{name} must be an integer >= 1 (got {bad!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_homogenized(affine, (-1.0, 1.0), **sizes)
    with pytest.raises(ValueError, match=re.escape(f"ny must be an integer >= 1 (got {bad!r})")):
        invariant_density(affine, 0.0, (-10.0, 10.0), bad)


@pytest.mark.parametrize(
    "x_range", [(1.0, -1.0), (0.5, 0.5), (-1.0, math.nan), (-math.inf, 1.0)]
)
def test_build_homogenized_checks_x_range_before_any_node(affine, monkeypatch, x_range):
    """A reversed, empty or non-finite x_range raises ValueError naming
    it before the first node, where the spline once failed after every
    node with a message that named no argument."""
    import fastslow.homogenization as hom_mod

    def not_reached(*args, **kwargs):
        raise AssertionError("a node ran before x_range was checked")

    monkeypatch.setattr(hom_mod, "default_y_window", not_reached)
    message = f"x_range must be finite with lo < hi (got {x_range})"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_homogenized(affine, x_range, 3, 256)


def test_averaged_drift_affine(affine):
    for x in (-2.0, 0.0, 1.5):
        y, dens = _affine_row(affine, x)
        assert averaged_drift(affine, x, y, dens) == pytest.approx(-x, abs=1e-9)


def test_averaged_drift_bounded_against_hermite(bounded):
    """Dual route: trapezoid-on-density vs Gauss-Hermite for E tanh(Y)."""
    x = 0.9
    y, dens = (lambda w: (np.linspace(*w, 4096), invariant_density(bounded, x, w, 4096)))(
        default_y_window(bounded, x)
    )
    ours = averaged_drift(bounded, x, y, dens)
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    mean = 0.5 * math.tanh(x)
    expect = float(weights @ np.tanh(nodes + mean)) / math.sqrt(2.0 * math.pi)
    expect -= 0.5 * math.tanh(x)
    assert ours == pytest.approx(expect, abs=1e-9)


def test_corrector_affine_closed_form(affine):
    x = 0.4
    y, dens = _affine_row(affine, x, ny=8192)
    phi, dy_phi = solve_poisson(affine, x, y, dens)
    core = np.abs(y - x) < 2.0
    assert np.max(np.abs(dy_phi[core] + 1.0)) < 1e-6
    assert np.max(np.abs(phi[core] - (x - y[core]))) < 1e-4
    # centering: int phi m dy = 0
    assert np.trapezoid(phi * dens, y) == pytest.approx(0.0, abs=1e-12)


def test_poisson_residual_small(affine, bounded):
    for model in (affine, bounded):
        x = -0.6
        window = default_y_window(model, x)
        y = np.linspace(window[0], window[1], 4096)
        dens = invariant_density(model, x, window, 4096)
        phi, dy_phi = solve_poisson(model, x, y, dens)
        c_bar = averaged_drift(model, x, y, dens)
        assert poisson_residual(model, x, y, dens, phi, dy_phi, c_bar) < 1e-3


def test_local_q_gamma_branches(affine):
    assert local_q(affine, 0.0, 0.0, -1.0, math.inf) == 1.0
    assert local_q(affine, 0.0, 0.0, -1.0, 1.0) == pytest.approx(3.0)
    assert local_q(affine, 0.0, 0.0, -1.0, 2.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        local_q(affine, 0.0, 0.0, -1.0, 0.0)


def test_build_homogenized_affine_tables(affine):
    hom = build_homogenized(affine, (-3, 3), 13, 2048, gamma=1.0)
    np.testing.assert_allclose(hom.c_bar, -hom.x_grid, atol=1e-8)
    np.testing.assert_allclose(hom.q_bar, 3.0, atol=1e-8)
    assert hom.c_bar_at(0.37) == pytest.approx(-0.37, abs=1e-6)
    assert hom.c_bar_prime_at(0.37) == pytest.approx(-1.0, abs=1e-5)
    assert hom.q_bar_at(-1.1) == pytest.approx(3.0, abs=1e-6)
    assert hom.phi_at(0.25, 0.75) == pytest.approx(0.25 - 0.75, abs=1e-4)
    assert hom.dy_phi_at(0.25, 0.75) == pytest.approx(-1.0, abs=1e-5)


def test_build_homogenized_fits_only_the_averaged_splines(affine, monkeypatch):
    """Construction fits the c_bar and q_bar splines and no per-row
    corrector spline; phi_at and dy_phi_at fit the rows they read when
    called, and keep the affine closed forms phi = x - y, d_y phi = -1."""
    import fastslow.homogenization as hom_mod

    fitted = []
    fit = hom_mod._natural_spline

    def counting_fit(x, y):
        fitted.append(len(x))
        return fit(x, y)

    monkeypatch.setattr(hom_mod, "_natural_spline", counting_fit)
    hom = build_homogenized(affine, (-3, 3), 13, 2048, gamma=1.0)
    assert fitted == [13, 13]
    assert hom.phi_at(0.25, 0.75) == pytest.approx(0.25 - 0.75, abs=1e-4)
    assert hom.dy_phi_at(0.25, 0.75) == pytest.approx(-1.0, abs=1e-5)
    assert hom.phi_at(-1.4, 0.3) == pytest.approx(-1.4 - 0.3, abs=1e-4)
    assert hom.dy_phi_at(-1.4, 0.3) == pytest.approx(-1.0, abs=1e-5)


def test_build_homogenized_grid_refinement(bounded):
    coarse = build_homogenized(bounded, (-2, 2), 9, 1024)
    fine = build_homogenized(bounded, (-2, 2), 9, 2048)
    assert np.max(np.abs(coarse.c_bar - fine.c_bar)) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_build_homogenized_error_names_x_node():
    # tau vanishes at y = 0, poisoning every row's density integrand.
    bad = model_from_expressions("pinch", "y", "1", "-y", "y")
    with pytest.raises(Exception, match="x-node"):
        build_homogenized(bad, (-1, 1), 3, 256)


def test_build_homogenized_names_non_finite_corrector():
    """A slow drift exp(y^3) outgrows the Gaussian fast density, so d_y phi
    and q_bar overflow: the failure names the x-node and where |d_y phi|
    peaks instead of failing inside the spline fit."""
    model = model_from_expressions("custom", "exp(y^3)", "1", "-y", "sqrt(2)")
    with np.errstate(all="ignore"), pytest.raises(NonFiniteCorrectorError) as info:
        build_homogenized(model, (-1, 1), 5, 2048, 1.0)
    message = str(info.value)
    assert message.startswith("x-node 0 (x=-1): the corrector is not finite")
    assert "|d_y phi| peaks at 1.21e+220 (y=7.984) and q_bar = inf" in message


def test_quintic_corrector_is_finite_and_converges_in_ny():
    """A quintic fast drift underflows the density on the right tail of
    the window.  The flux is cumulated from the right end there, so d_y phi
    divides a tail integral, not a round-off remainder, by the vanishing
    density, and q_bar agrees between ny = 2048 and 8192."""
    model = model_from_expressions("quintic", "-x + 0.5*sin(y)", "1", "x - y - y^5", "1")
    coarse, fine = (build_homogenized(model, (-1, 0), 3, ny, gamma=1) for ny in (2048, 8192))
    assert np.all(np.isfinite(coarse.dy_phi)) and np.all(np.isfinite(fine.dy_phi))
    np.testing.assert_allclose(coarse.q_bar, fine.q_bar, rtol=0, atol=1e-5)
    np.testing.assert_allclose(fine.q_bar, [1.037038, 1.060821, 1.073256], atol=1e-5)


def test_limit_ode_affine_orbit(affine):
    hom = build_homogenized(affine, (-3, 3), 17, 1024, gamma=1.0)
    traj = limit_ode(hom, 1.0, 1.0, 1e-3)
    exact = np.exp(-traj.t_grid)
    np.testing.assert_allclose(traj.x_bar, exact, atol=5e-7)


def test_limit_ode_steps_on_the_simulation_grid(affine):
    """limit_ode takes the grid of time_grid: ceil(T/dt) steps of T/n,
    where rounding T/dt = 3333.3 would give one step fewer."""
    hom = build_homogenized(affine, (-3, 3), 17, 1024, gamma=1.0)
    traj = limit_ode(hom, 1.0, 1.0, 3e-4)
    n_steps, h = time_grid(1.0, 3e-4)
    assert len(traj.t_grid) == n_steps + 1 == 3335
    assert traj.t_grid[1] == h and traj.t_grid[-1] == 1.0


def test_limit_ode_escape_names_exit_time():
    grow = model_from_expressions("unstable-slow", "y", "1", "x - y", "sqrt(2)")
    hom = build_homogenized(grow, (-1, 1), 9, 1024)  # c_bar = x: exponential growth
    with pytest.raises(DomainEscapeError) as err:
        limit_ode(hom, 0.5, 2.0, 1e-3)
    assert 0.0 < err.value.t_exit < 2.0


def test_variance_profile_affine(affine):
    hom = build_homogenized(affine, (-3, 3), 17, 2048, gamma=1.0)
    traj = attach_variance(hom, limit_ode(hom, 0.0, 1.0, 5e-4))
    q_bar = 3.0
    for t in (0.25, 0.7, 1.0):
        exact = q_bar * (1.0 - math.exp(-2.0 * t)) / 2.0
        assert limit_variance(hom, traj, t) == pytest.approx(exact, abs=1e-6)
    assert traj.sigma2[0] == 0.0
    assert np.all(np.diff(traj.sigma2) >= 0)  # monotone toward equilibrium here


def test_variance_gamma_infinity_branch(affine):
    hom = build_homogenized(affine, (-3, 3), 9, 1024)  # gamma = inf
    traj = attach_variance(hom, limit_ode(hom, 0.0, 1.0, 1e-3))
    exact = 1.0 * (1.0 - math.exp(-2.0)) / 2.0
    assert limit_variance(hom, traj, 1.0) == pytest.approx(exact, abs=1e-6)


def test_limit_variance_range_check(affine):
    hom = build_homogenized(affine, (-3, 3), 9, 1024)
    traj = attach_variance(hom, limit_ode(hom, 0.0, 1.0, 1e-3))
    with pytest.raises(ValueError):
        limit_variance(hom, traj, 1.5)


@pytest.mark.parametrize("name", ["affine-oracle", "bounded-coupled"])
def test_limit_ode_scalar_spline_is_bit_identical(name, monkeypatch):
    """limit_ode evaluates c_bar and c_bar' on scalars without the
    spline's array call, and its trajectory is bit for bit the one the
    spline calls give, on the grid and step the sweeps use.  Each scalar
    value equals the spline's at its breaks, beside them, between them
    and outside them."""
    import fastslow.homogenization as hom_mod
    from fastslow.metrics import HOM_GRID, LIMIT_ODE_DT

    hom = build_homogenized(get_model(name), *HOM_GRID, 1.0)
    got = [limit_ode(hom, x0, 1.0, LIMIT_ODE_DT) for x0 in (0.0, 0.4, -2.5)]
    monkeypatch.setattr(hom_mod, "_scalar_interp", lambda interp: lambda x: float(interp(x)))
    for x0, traj in zip((0.0, 0.4, -2.5), got):
        ref = limit_ode(hom, x0, 1.0, LIMIT_ODE_DT)
        assert np.array_equal(traj.x_bar, ref.x_bar)
    monkeypatch.undo()
    breaks = hom.x_grid
    xs = np.concatenate(
        [breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
         np.linspace(-3.5, 3.5, 2001)]
    )
    for interp in (hom._c_bar_spline, hom._c_bar_prime):
        scalar = hom_mod._scalar_interp(interp)
        assert np.array_equal([scalar(x) for x in xs], interp(xs))


def _array_rk4_x_bar(hom, x0, T, dt):
    """X-bar of the two-state (Xbar, Psi) RK4 on numpy arrays, with the
    spline's own array calls: the integrator limit_ode replaced."""
    n = max(1, int(round(T / dt)))
    h = T / n
    xb = np.empty(n + 1)
    xb[0] = x0

    def rhs(state):
        x, p = state
        return np.array(
            [float(hom._c_bar_spline(x)), float(hom._c_bar_prime(x)) * p]
        )

    state = np.array([x0, x0], dtype=float)
    for k in range(n):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        xb[k + 1] = state[0]
    return xb


@pytest.mark.parametrize("name", ["affine-oracle", "bounded-coupled"])
def test_limit_ode_matches_two_state_array_rk4(name):
    """Integrating Xbar alone on Python floats gives, bit for bit, the
    Xbar of the coupled (Xbar, Psi) array RK4 it replaced, on the grid
    and step the sweeps use."""
    from fastslow.metrics import HOM_GRID, LIMIT_ODE_DT

    hom = build_homogenized(get_model(name), *HOM_GRID, 1.0)
    for x0 in (0.0, 0.4, -2.5):
        traj = limit_ode(hom, x0, 1.0, LIMIT_ODE_DT)
        assert np.array_equal(traj.x_bar, _array_rk4_x_bar(hom, x0, 1.0, LIMIT_ODE_DT))


# -- the in-repo ports of scipy's spline, banded solve, brentq and cumulative trapezoid --
# Each must reproduce scipy bit for bit, so that no tabulated value, limit
# orbit or artifact moves with them.

_finite = st.floats(-1e3, 1e3, allow_subnormal=False)


def _same_bits(got, want) -> bool:
    """Same shape and values, NaN where NaN, and zeros of the same sign
    (repr, and so every CSV artifact, tells -0.0 from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got) & ~np.isnan(got), np.signbit(want) & ~np.isnan(want))
    )


@st.composite
def _spline_data(draw):
    n = draw(st.integers(2, 12))
    x0 = draw(st.floats(-5.0, 5.0))
    steps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n - 1, max_size=n - 1))
    x = x0 + np.concatenate(([0.0], np.cumsum(steps)))
    columns = draw(st.sampled_from([None, 3]))
    size = n if columns is None else n * columns
    y = np.array(draw(st.lists(_finite, min_size=size, max_size=size)))
    return x, (y if columns is None else y.reshape(n, columns))


def _probe_points(x):
    mids = 0.5 * (x[:-1] + x[1:])
    return np.concatenate(
        [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), mids,
         [x[0] - 1.5, x[-1] + 1.5, np.nan]]
    )


@settings(max_examples=150, deadline=None)
@given(_spline_data())
def test_natural_spline_equals_scipy_bit_for_bit(data):
    """The natural spline and its derivative equal scipy's CubicSpline
    (bc_type="natural") and its derivative at the breaks, beside them,
    between them, outside them and at NaN, on 1-D and 2-D values, and at
    a scalar, which gives a 0-d array (a row for 2-D values)."""
    from scipy.interpolate import CubicSpline

    import fastslow.homogenization as hom_mod

    x, y = data
    ours = hom_mod._natural_spline(x, y)
    ref = CubicSpline(x, y, bc_type="natural")
    t = _probe_points(x)
    for got, want in ((ours, ref), (ours.derivative(), ref.derivative())):
        assert _same_bits(got(t), want(t))
        for point in (float(t[-4]), float(x[1])):
            assert isinstance(got(point), np.ndarray)
            assert _same_bits(got(point), want(point))


@st.composite
def _banded_system(draw):
    n = draw(st.sampled_from([2, 3]) | st.integers(4, 12))
    ab = np.array(draw(st.lists(_finite, min_size=3 * n, max_size=3 * n))).reshape(3, n)
    # A small main diagonal makes |d[i]| < |dl[i]|, where dgtsv swaps rows.
    ab[1] *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    columns = draw(st.sampled_from([None, 1, 3]))
    size = n if columns is None else n * columns
    zeros = st.sampled_from([0.0, -0.0])
    b = np.array(draw(st.lists(_finite | zeros, min_size=size, max_size=size)))
    return ab, (b if columns is None else b.reshape(n, columns))


@settings(max_examples=300, deadline=None)
@given(_banded_system())
# Rows swapped at every step, with zero right-hand sides of both signs.
@example((np.array([[0.0, 2.0], [1e-3, 1.0], [3.0, 0.0]]), np.array([-0.0, 0.0])))
@example((
    np.array([[0.0, 1.5, -2.0], [0.25, -1e-3, 4.0], [-3.0, 2.0, 0.0]]),
    np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -2.0], [0.0, 0.0, 0.5]]),
))
# Singular: a zero first column, and a last pivot that cancels.
@example((np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 0.0]]), np.ones(3)))
@example((np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]), np.ones(2)))
def test_solve_tridiagonal_equals_scipy_bit_for_bit(system):
    """The ported dgtsv solve equals ``solve_banded((1, 1), ...)`` bit for
    bit, zeros with their sign, for n = 2, 3 and more, one or three
    right-hand sides, bands that swap rows or do not, and right-hand
    sides with zeros; where scipy finds the band singular it raises
    scipy's LinAlgError with scipy's message."""
    from scipy.linalg import solve_banded

    import fastslow.homogenization as hom_mod

    ab, b = system
    try:
        want = solve_banded((1, 1), ab, b, check_finite=False)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            hom_mod._solve_tridiagonal(ab, b)
        return
    assert _same_bits(hom_mod._solve_tridiagonal(ab, b), want)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    st.floats(-3.0, 3.0),
    st.floats(0.01, 4.0),
    st.floats(0.0, 1.0),
    st.sampled_from([2e-12, 1e-12, 1e-8, 1e-4, 1e-2]),
    st.sampled_from([1.0, 1e-200, 1e200]),
)
# A bracket where only the "- delta" of the short-step test picks the step.
@example([-2.79, 0.59, 1.1, 0.37], 0.19, 2.39, 0.13, 1e-2, 1.0)
def test_brentq_equals_scipy_bit_for_bit(coef, lo, width, at, xtol, scale):
    """The ported brentq evaluates f as often as scipy's and returns the
    same root bit for bit, or raises scipy's error for a bracket whose
    ends share a sign.  f vanishes inside the bracket, at lo + at * width;
    the ends share a sign only where that zero is even.  Scaled to tiny or
    huge values, the steps' products underflow or overflow as in C."""
    from scipy.optimize import brentq

    import fastslow.homogenization as hom_mod

    def g(u):
        return float(np.polyval(coef, u) + coef[0] * math.sin(3.0 * u))

    hi = lo + width
    level = g(lo + at * width)
    calls = []

    def f(u):
        return scale * (g(u) - level)

    def counted(u):
        calls.append(u)
        return f(u)

    try:
        root, info = brentq(f, lo, hi, xtol=xtol, full_output=True)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            hom_mod._brentq(f, lo, hi, xtol=xtol)
        return
    assert _same_bits(hom_mod._brentq(counted, lo, hi, xtol=xtol), root)
    assert len(calls) == info.function_calls


def test_brentq_edge_cases_match_scipy():
    """A NaN value, a bracket whose ends share a sign and no convergence
    within the iteration cap raise the errors scipy's brentq raises.  Ends
    whose product underflows to -0.0 still bracket the root: the sign test
    reads signs, not the product."""
    from scipy.optimize import brentq

    import fastslow.homogenization as hom_mod

    cases = [
        (lambda u: math.nan, {}),
        (lambda u: u - 0.5 if u < 0.9 else math.nan, {}),
        (lambda u: 1.0 + u * u, {}),
        (lambda u: u**3 - 0.3, {"maxiter": 1}),
        (lambda u: 1e-200 * (u**3 - 0.3), {}),
    ]
    for f, kwargs in cases:
        calls = []

        def counted(u):
            calls.append(u)
            return f(u)

        try:
            root, info = brentq(f, 0.0, 1.0, full_output=True, **kwargs)
        except (ValueError, RuntimeError) as want:
            with pytest.raises(type(want)) as got:
                hom_mod._brentq(f, 0.0, 1.0, **kwargs)
            assert str(got.value) == str(want)
        else:
            assert _same_bits(hom_mod._brentq(counted, 0.0, 1.0, **kwargs), root)
            assert len(calls) == info.function_calls


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 3.0), _finite), min_size=1, max_size=40))
def test_cumulative_trapezoid_equals_scipy_bit_for_bit(steps):
    from scipy.integrate import cumulative_trapezoid

    import fastslow.homogenization as hom_mod

    x = np.cumsum([0.0] + [dx for dx, _ in steps])
    y = np.array([0.5] + [v for _, v in steps])
    assert _same_bits(
        hom_mod._cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0)
    )
