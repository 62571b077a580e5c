"""Stationary density, averaging, corrector, and the limit ODE/variance."""

import math

import numpy as np
import pytest

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
    write_detail_csv,
    write_summary_csv,
)


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
    """A quintic fast drift underflows the density on the right tail of the
    window, where d_y phi divides round-off flux by ~0: the failure names
    the x-node and that cause instead of failing inside the spline fit."""
    model = model_from_expressions("custom", "-x + 0.5*sin(y)", "1", "x - y - y^5", "1")
    with np.errstate(all="ignore"), pytest.raises(NonFiniteCorrectorError) as info:
        build_homogenized(model, (-1, 1), 5, 2048, 1.0)
    message = str(info.value)
    assert message.startswith("x-node 1 (x=-0.5): the corrector is not finite")
    assert "density underflows on 206 nodes of the right tail" in message


def test_limit_ode_affine_orbit(affine):
    hom = build_homogenized(affine, (-3, 3), 17, 1024, gamma=1.0)
    traj = limit_ode(hom, 1.0, 1.0, 1e-3)
    exact = np.exp(-traj.t_grid)
    np.testing.assert_allclose(traj.x_bar, exact, atol=5e-7)
    np.testing.assert_allclose(traj.psi, exact, atol=5e-6)


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


def test_csv_outputs(tmp_path, affine):
    hom = build_homogenized(affine, (-1, 1), 3, 256, gamma=1.0)
    detail = tmp_path / "detail.csv"
    summary = tmp_path / "summary.csv"
    write_detail_csv(hom, detail)
    write_summary_csv(hom, summary)
    dlines = detail.read_text().splitlines()
    slines = summary.read_text().splitlines()
    assert dlines[0] == "x,y,m,phi,dy_phi"
    assert slines[0] == "x,c_bar,q_bar"
    assert len(dlines) == 1 + 3 * 256
    assert len(slines) == 1 + 3
    x, c_bar, q_bar = map(float, slines[1].split(","))
    assert c_bar == pytest.approx(-x, abs=1e-8)


@pytest.mark.parametrize("name", ["affine-oracle", "bounded-coupled"])
def test_limit_ode_scalar_spline_is_bit_identical(name, monkeypatch):
    """limit_ode evaluates c_bar and c_bar' on scalars without the array
    call of CubicSpline, and its trajectory is bit for bit the one the
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
        assert np.array_equal(traj.x_bar, ref.x_bar) and np.array_equal(traj.psi, ref.psi)
    monkeypatch.undo()
    breaks = hom.x_grid
    xs = np.concatenate(
        [breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
         np.linspace(-3.5, 3.5, 2001)]
    )
    for interp in (hom._c_bar_spline, hom._c_bar_prime):
        scalar = hom_mod._scalar_interp(interp)
        assert np.array_equal([scalar(x) for x in xs], interp(xs))
