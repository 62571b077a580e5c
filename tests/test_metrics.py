"""Tests for the exact W1 estimator, envelopes, and sweep regression."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

import fastslow.metrics as metrics_mod
import fastslow.sde_engine as sde_engine
from fastslow.metrics import (
    LIMIT_ODE_DT,
    RateFit,
    WassersteinReport,
    bootstrap_w1,
    clt_verify,
    default_checkpoints,
    rate_sweep,
    theoretical_bound,
    theoretical_bound_terms,
    w1_between_gaussians,
    w1_floor,
    w1_vs_gaussian,
)
from fastslow.coefficients import model_from_expressions
from fastslow.homogenization import attach_variance, build_homogenized
from fastslow.sde_engine import (
    CHANNEL_BOOTSTRAP,
    PURPOSE_BOOTSTRAP,
    BlowUpError,
    ScaleRegime,
    StabilityError,
    _stream,
    simulate_paths,
)

# -- exact W1 against a Gaussian ---------------------------------------


def test_w1_point_mass_target():
    assert w1_vs_gaussian([0.0, 1.0, 2.0], 1.0, 0.0) == pytest.approx(2.0 / 3.0)


def test_w1_matches_cdf_area():
    """Dual route: W1 equals the area between the empirical and Gaussian
    CDFs, here integrated numerically with breakpoints at the samples."""
    rng = np.random.default_rng(3)
    xs = rng.normal(0.4, 1.3, 20)
    mu, sigma2 = -0.2, 0.8
    got = w1_vs_gaussian(xs, mu, sigma2)
    sigma = math.sqrt(sigma2)
    xs_sorted = np.sort(xs)

    def area(x):
        fn = np.searchsorted(xs_sorted, x, side="right") / len(xs)
        return abs(fn - ndtr((x - mu) / sigma))

    lo = min(xs_sorted[0], mu - 9 * sigma) - 1.0
    hi = max(xs_sorted[-1], mu + 9 * sigma) + 1.0
    expect, err = quad(area, lo, hi, points=list(xs_sorted), limit=300)
    assert got == pytest.approx(expect, abs=max(1e-9, 10 * err))


def test_w1_permutation_invariance():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=50)
    shuffled = rng.permutation(xs)
    assert w1_vs_gaussian(xs, 0.1, 1.2) == w1_vs_gaussian(shuffled, 0.1, 1.2)


_sample_lists = st.lists(
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(_sample_lists, st.floats(-2.0, 2.0), st.floats(0.1, 4.0), st.floats(-3.0, 3.0))
def test_w1_location_equivariance(xs, mu, sigma2, d):
    base = w1_vs_gaussian(xs, mu, sigma2)
    moved = w1_vs_gaussian(np.asarray(xs) + d, mu + d, sigma2)
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(_sample_lists, st.floats(-2.0, 2.0), st.floats(0.1, 4.0), st.floats(0.1, 10.0))
def test_w1_scale_equivariance(xs, mu, sigma2, c):
    base = w1_vs_gaussian(xs, mu, sigma2)
    scaled = w1_vs_gaussian(c * np.asarray(xs), c * mu, c * c * sigma2)
    assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(_sample_lists, st.floats(-2.0, 2.0), st.floats(0.0, 4.0))
def test_w1_dominates_mean_gap(xs, mu, sigma2):
    w1 = w1_vs_gaussian(xs, mu, sigma2)
    gap = abs(float(np.mean(xs)) - mu)
    assert w1 >= gap - 1e-9 * (1.0 + gap)


def test_w1_sampling_floor_decays():
    rng = np.random.default_rng(7)
    small = w1_vs_gaussian(rng.normal(0, 1, 10_000), 0.0, 1.0)
    large = w1_vs_gaussian(rng.normal(0, 1, 100_000), 0.0, 1.0)
    assert large < 0.5 * small  # roughly n^(-1/2)


def test_w1_validation():
    with pytest.raises(ValueError):
        w1_vs_gaussian([1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        w1_vs_gaussian([0.0, np.inf], 0.0, 1.0)
    with pytest.raises(ValueError):
        w1_vs_gaussian([0.0, 1.0], 0.0, -1.0)


def test_w1_floor_closed_forms_and_scaling():
    # One draw: W1(delta_X, N(0, s2)) = E|X - Y| = 2 s / sqrt(pi).
    assert w1_floor(1, 4.0) == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-12)
    assert w1_floor(7, 9.0) == pytest.approx(3.0 * w1_floor(7, 1.0), rel=1e-12)
    assert w1_floor(5, 0.0) == 0.0
    # Large n: sqrt(n) times the floor tends to the Brownian-bridge
    # constant sqrt(2/pi) * int sqrt(Phi(z) (1 - Phi(z))) dz.
    bridge = quad(lambda z: math.sqrt(ndtr(z) * ndtr(-z)), -np.inf, np.inf)[0]
    n = 100_000
    assert math.sqrt(n) * w1_floor(n, 1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi) * bridge, rel=1e-3
    )


def test_w1_floor_is_the_mean_of_the_estimator():
    rng = np.random.default_rng(11)
    reads = [w1_vs_gaussian(rng.normal(0.5, 2.0, 20), 0.5, 4.0) for _ in range(4000)]
    se = np.std(reads) / math.sqrt(len(reads))
    assert abs(np.mean(reads) - w1_floor(20, 4.0)) < 4.0 * se


@pytest.mark.parametrize(
    "n, sigma2", [(0, 1.0), (2.5, 1.0), (True, 1.0), (3, -1.0), (3, math.nan)]
)
def test_w1_floor_validation(n, sigma2):
    with pytest.raises(ValueError):
        w1_floor(n, sigma2)


# -- Gaussian-vs-Gaussian closed form ----------------------------------


def test_w1_between_gaussians_shift_and_scale():
    assert w1_between_gaussians(0.5, 1.0, 0.0, 1.0) == pytest.approx(0.5)
    assert w1_between_gaussians(0.0, 1.1, 0.0, 1.0) == pytest.approx(
        0.1 * math.sqrt(2.0 / math.pi)
    )
    assert w1_between_gaussians(2.0, 0.7, 2.0, 0.7) == 0.0


def test_w1_between_gaussians_general_case_quadrature():
    """E|d + s Z| via direct quadrature: d = 0.3, s = 0.2."""
    z = np.linspace(-12.0, 12.0, 200_001)
    phi = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    expect = np.trapezoid(np.abs(0.3 + 0.2 * z) * phi, z)
    assert w1_between_gaussians(0.3, 1.2, 0.0, 1.0) == pytest.approx(
        expect, rel=1e-8
    )


# -- bootstrap ---------------------------------------------------------


def test_bootstrap_w1_determinism_and_shape():
    rng = np.random.default_rng(11)
    xs = rng.normal(0.2, 1.0, 200)
    lo, hi = bootstrap_w1(xs, 0.0, 1.0, seed=4, n_boot=100)
    assert lo <= hi
    assert lo > 0.0
    again = bootstrap_w1(xs, 0.0, 1.0, seed=4, n_boot=100)
    assert (lo, hi) == again
    other = bootstrap_w1(xs, 0.0, 1.0, seed=5, n_boot=100)
    assert (lo, hi) != other


# Independent reference: the estimator as it was before the sorted table,
# one sort, one ndtri and three passes of G per call, and the bootstrap
# as a loop over resampled values.


def _G_old(x, mu, sigma):
    z = (x - mu) / sigma
    zc = np.clip(z, -40.0, 40.0)
    return (x - mu) * ndtr(z) + sigma * np.exp(-0.5 * zc**2) / math.sqrt(2.0 * math.pi)


def w1_vs_gaussian_old(samples, mu, sigma2):
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if sigma2 == 0.0:
        return float(np.mean(np.abs(xs - mu)))
    sigma = math.sqrt(sigma2)

    q = np.arange(1, n) / n
    a, b = xs[:-1], xs[1:]
    crossing = np.clip(mu + sigma * ndtri(q), a, b)
    G = lambda x: _G_old(x, mu, sigma)  # noqa: E731
    middle = np.sum(q * (2.0 * crossing - a - b) + G(a) + G(b) - 2.0 * G(crossing))

    left_tail = G(xs[0])
    z_hi = (xs[-1] - mu) / sigma
    z_hi_c = min(max(z_hi, -40.0), 40.0)
    right_tail = sigma * (
        np.exp(-0.5 * z_hi_c**2) / math.sqrt(2.0 * math.pi)
        - z_hi * (1.0 - ndtr(z_hi))
    )
    return float(middle + left_tail + right_tail)


def bootstrap_w1_old(samples, mu, sigma2, seed, n_boot, level=0.95):
    xs = np.asarray(samples, dtype=float)
    rng = _stream(seed, PURPOSE_BOOTSTRAP, 0, 0, CHANNEL_BOOTSTRAP)
    stats = np.empty(n_boot)
    for i in range(n_boot):
        stats[i] = w1_vs_gaussian_old(rng.choice(xs, size=xs.size, replace=True), mu, sigma2)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(stats, [alpha, 100.0 - alpha])
    return float(lo), float(hi)


def _reference_cases():
    rng = np.random.default_rng(2024)
    return {
        "normal": (rng.normal(0.0, 1.0, 2000), 0.0, 1.0),
        "shifted": (rng.normal(0.3, 1.2, 2000), 0.0, 1.0),
        "skewed": (rng.exponential(1.0, 1500), 1.0, 1.0),
        "tie_rich": (np.round(rng.normal(0.0, 1.0, 1500), 1), 0.0, 1.0),
        "far_tail": (rng.normal(0.0, 1.0, 300), 30.0, 0.25),
        "n2": (np.array([0.3, -1.0]), 0.0, 2.0),
        "n17": (rng.normal(0.0, 1.0, 17), 0.1, 0.5),
        "two_atoms": (np.repeat([-1.0, 2.0], [40, 60]), 0.0, 1.0),
        "point_mass": (rng.normal(0.0, 1.0, 500), 0.2, 0.0),
    }


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_w1_bit_equal_to_reference_formula(case):
    xs, mu, sigma2 = _reference_cases()[case]
    assert w1_vs_gaussian(xs, mu, sigma2) == w1_vs_gaussian_old(xs, mu, sigma2)


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_bootstrap_bit_equal_to_resampling_loop(case):
    xs, mu, sigma2 = _reference_cases()[case]
    for seed, level in ((3 + (1 << 32), 0.95), (8, 0.8)):
        assert bootstrap_w1(xs, mu, sigma2, seed, 60, level) == bootstrap_w1_old(
            xs, mu, sigma2, seed, 60, level
        )


def test_bootstrap_resamples_bit_equal_one_by_one():
    """Each resample's W1 from the table equals the reference on the
    resampled values, not only the two CI ends."""
    xs, mu, sigma2 = _reference_cases()["tie_rich"]
    table = metrics_mod._W1Table(xs, mu, sigma2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        idx = rng.choice(xs.size, size=xs.size, replace=True)
        j = np.sort(table.rank[idx])
        assert table.w1(j) == w1_vs_gaussian_old(xs[idx], mu, sigma2)


def test_bootstrap_w1_rejects_bad_samples():
    with pytest.raises(ValueError, match="at least two"):
        bootstrap_w1([1.0], 0.0, 1.0, seed=0, n_boot=10)
    with pytest.raises(ValueError, match="finite"):
        bootstrap_w1([0.0, np.nan], 0.0, 1.0, seed=0, n_boot=10)
    with pytest.raises(ValueError, match="variance"):
        bootstrap_w1([0.0, 1.0], 0.0, -1.0, seed=0, n_boot=10)


@pytest.mark.parametrize("n_boot", [0, -3, 2.5, True, "10"])
def test_bootstrap_w1_rejects_bad_n_boot(n_boot):
    with pytest.raises(ValueError, match="n_boot"):
        bootstrap_w1([0.0, 1.0, 2.0], 0.0, 1.0, seed=0, n_boot=n_boot)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_bootstrap_w1_rejects_bad_level(level):
    with pytest.raises(ValueError, match="level"):
        bootstrap_w1([0.0, 1.0, 2.0], 0.0, 1.0, seed=0, n_boot=10, level=level)


def test_bootstrap_w1_accepts_numpy_integer_n_boot():
    xs = np.random.default_rng(1).normal(0.0, 1.0, 50)
    assert bootstrap_w1(xs, 0.0, 1.0, 4, np.int64(20)) == bootstrap_w1(xs, 0.0, 1.0, 4, 20)


def _not_reached(*args, **kwargs):
    raise AssertionError("work started before n_boot was checked")


def test_clt_verify_checks_n_boot_before_any_work(affine, monkeypatch):
    monkeypatch.setattr(metrics_mod, "build_homogenized", _not_reached)
    monkeypatch.setattr(metrics_mod, "simulate_paths", _not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.1)
    with pytest.raises(ValueError, match="n_boot"):
        clt_verify(affine, regime, 0.0, 0.0, 0.0025, 10, n_boot=0)


def test_rate_sweep_checks_n_boot_before_any_work(affine, monkeypatch):
    monkeypatch.setattr(metrics_mod, "build_homogenized", _not_reached)
    monkeypatch.setattr(metrics_mod, "simulate_paths", _not_reached)
    with pytest.raises(ValueError, match="n_boot"):
        rate_sweep(affine, (0.16, 0.08, 0.04), "equal", {"n_boot": 0}, T=0.2)


# -- theoretical envelope ----------------------------------------------


def test_theoretical_bound_frozen_value():
    regime = ScaleRegime(0.01, 0.01, 1.0, 1.0)
    assert theoretical_bound(regime, K=1.0, zeta=0.1) == pytest.approx(
        1.5857506108320298, rel=1e-12
    )
    # written-out sum, independently of the bracket bookkeeping
    eps = eta = 0.01
    expect = (
        eta**0.25
        + eps**0.25
        + abs(eta / eps - 1.0) ** 0.5
        + (eta / eps) ** 0.5 * eta**0.4
        + eps**0.4
        + (eta / eps) ** 0.5 * eta**0.25
        + (eta / eps) * eta**0.25
        + (1.0 + eta / eps) * math.exp(-1.0 / (16.0 * eta))
    )
    assert theoretical_bound(regime, K=1.0, zeta=0.1) == pytest.approx(
        expect, rel=1e-12
    )


def test_theoretical_bound_terms_structure():
    regime = ScaleRegime(0.04, 0.01, 2.0, 1.0)
    terms = theoretical_bound_terms(regime, K=2.0, zeta=0.2)
    b1, b2 = terms["bracket1"], terms["bracket2"]
    ratio = 0.25
    assert b1["eta_quarter"] == pytest.approx(0.01**0.25)
    assert b1["eps_quarter"] == pytest.approx(0.04**0.25)
    assert b1["regime_drift_sqrt"] == pytest.approx(abs(ratio - 0.25) ** 0.5)
    assert b1["ratio_eta_holder"] == pytest.approx(ratio**0.5 * 0.01**0.3)
    assert b1["eps_holder"] == pytest.approx(0.04**0.3)
    assert b2["ratio_sqrt_eta_quarter"] == pytest.approx(ratio**0.5 * 0.01**0.25)
    assert b2["ratio_eta_quarter"] == pytest.approx(ratio * 0.01**0.25)
    assert b2["fast_transient"] == pytest.approx(
        1.25 * math.exp(-2.0 / (16.0 * 0.01))
    )
    assert terms["regime_drift_negative"] is False  # drift exactly zero here
    drifted = theoretical_bound_terms(
        ScaleRegime(0.04, 0.001, 2.0, 1.0), K=1.0, zeta=0.1
    )
    assert drifted["regime_drift_negative"] is True


def test_theoretical_bound_gamma_infinity_and_limits():
    tall = ScaleRegime(0.01, 0.0001, math.inf, 1.0)
    terms = theoretical_bound_terms(tall, K=1.0, zeta=0.1)
    assert terms["bracket1"]["regime_drift_sqrt"] == pytest.approx(0.1)  # |eta/eps|^0.5
    coarse = theoretical_bound(ScaleRegime(0.04, 0.04, 1.0, 1.0), K=1.0)
    fine = theoretical_bound(ScaleRegime(0.01, 0.01, 1.0, 1.0), K=1.0)
    tiny = theoretical_bound(ScaleRegime(1e-8, 1e-8, 1.0, 1.0), K=1.0)
    assert coarse > fine > tiny > 0.0
    assert tiny < 0.05


def test_theoretical_bound_validation():
    regime = ScaleRegime(0.01, 0.01, 1.0, 1.0)
    for bad_zeta in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            theoretical_bound(regime, K=1.0, zeta=bad_zeta)
    with pytest.raises(ValueError):
        theoretical_bound(regime, K=0.0)


# -- end-to-end fluctuation check --------------------------------------


def test_clt_verify_affine_smoke(affine):
    regime = ScaleRegime(0.04, 0.04, 1.0, 0.4)
    reports = clt_verify(
        affine, regime, 0.0, 0.0, 0.002, 500, seed=11, n_boot=100
    )
    assert [r.t for r in reports] == [0.1, 0.2, 0.4]
    for rep in reports:
        assert rep.n == 500
        assert 0.0 <= rep.w1 < 0.5
        assert rep.bootstrap_ci[0] <= rep.bootstrap_ci[1]
        assert rep.mean_gap >= 0.0 and rep.sd_gap >= 0.0
        assert rep.w1 >= rep.mean_gap - 1e-12
        expect_var = 1.5 * (1.0 - math.exp(-2.0 * rep.t))
        assert rep.limit_var == pytest.approx(expect_var, rel=1e-4)
        keys = set(rep.to_dict())
        assert keys == {"t", "w1", "ci_lo", "ci_hi", "mean_gap", "sd_gap"}
    again = clt_verify(
        affine, regime, 0.0, 0.0, 0.002, 500, seed=11, n_boot=100
    )
    assert [r.w1 for r in again] == [r.w1 for r in reports]
    assert [r.bootstrap_ci for r in again] == [r.bootstrap_ci for r in reports]


def test_clt_verify_rejects_bad_checkpoints(affine):
    regime = ScaleRegime(0.04, 0.04, 1.0, 0.4)
    with pytest.raises(ValueError):
        clt_verify(affine, regime, 0.0, 0.0, 0.002, 10, checkpoints=(0.0,))
    with pytest.raises(ValueError):
        clt_verify(affine, regime, 0.0, 0.0, 0.002, 10, checkpoints=(0.9,))


def test_clt_verify_checks_step_before_homogenizing(affine, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("homogenization ran before the step was checked")

    monkeypatch.setattr(metrics_mod, "build_homogenized", not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.1)
    message = re.escape("dt=0.05 exceeds the stability guard eta/20=0.0025")
    with pytest.raises(StabilityError, match=message):
        clt_verify(affine, regime, 0.0, 0.0, 0.05, 10)


@pytest.fixture(scope="module")
def affine_hom(affine):
    return build_homogenized(affine, (-3.0, 3.0), 9, 512, gamma=1.0)


def test_clt_verify_rejects_hom_of_another_gamma(affine, affine_hom):
    regime = ScaleRegime(0.04, 0.04, 2.0, 0.4)
    with pytest.raises(ValueError, match="gamma=1"):
        clt_verify(affine, regime, 0.0, 0.0, 0.002, 10, hom=affine_hom)


def test_clt_verify_rejects_hom_of_another_model(bounded, affine_hom):
    regime = ScaleRegime(0.04, 0.04, 1.0, 0.4)
    with pytest.raises(ValueError, match="affine-oracle"):
        clt_verify(bounded, regime, 0.0, 0.0, 0.002, 10, hom=affine_hom)


def test_clt_verify_rejects_hom_of_other_expressions_under_one_name():
    """CLI expression models are all named "custom"; the check compares
    the expressions too."""
    built_for = model_from_expressions("custom", "-2*x", "1", "-y", "sqrt(2)")
    other = model_from_expressions("custom", "-x + 0.5*sin(y)", "1", "x - y", "sqrt(2)")
    hom = build_homogenized(built_for, (-3.0, 3.0), 9, 512, gamma=1.0)
    regime = ScaleRegime(0.04, 0.04, 1.0, 0.4)
    with pytest.raises(ValueError, match=re.escape("-x + 0.5*sin(y)")):
        clt_verify(other, regime, 0.0, 0.0, 0.002, 10, hom=hom)
    same = model_from_expressions("custom", "-2*x", "1", "-y", "sqrt(2)")
    (report,) = clt_verify(
        same, regime, 0.0, 0.0, 0.002, 20, checkpoints=(0.4,), n_boot=10, hom=hom
    )
    assert math.isfinite(report.w1)


def test_default_checkpoints():
    assert default_checkpoints(1.0) == (0.25, 0.5, 1.0)


# -- rate sweep --------------------------------------------------------


def _stub_clt(w1_of_eps, ci_of_w1):
    def fake(bundle, times, trajectory, n_boot):
        w1 = w1_of_eps(bundle.regime.epsilon)
        return [
            WassersteinReport(
                t=times[0],
                n=bundle.n_paths,
                w1=w1,
                bootstrap_ci=ci_of_w1(w1),
                mean_gap=0.0,
                sd_gap=0.0,
                limit_var=1.0,
            )
        ]

    return fake


def test_rate_sweep_recovers_synthetic_slope(affine, monkeypatch):
    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(lambda e: e**0.25, lambda w: (0.9 * w, 1.1 * w))
    )
    fit = rate_sweep(
        affine, (0.16, 0.08, 0.04, 0.02), "equal", {"n_paths": 10}, K=1.0
    )
    assert fit.slope == pytest.approx(0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.noisy_points == ()
    # envelope anchored at the coarsest point by construction
    assert fit.bound_values[0] == pytest.approx(fit.points[0][2], rel=1e-12)
    assert len(fit.bound_values) == 4
    d = fit.to_dict()
    assert set(d) == {"points", "rate", "bound", "floor", "c_fit", "noisy_points"}
    assert set(d["rate"]) == {"slope", "intercept", "r2"}


def test_rate_sweep_bound_is_envelope_plus_floor(affine, monkeypatch):
    """The Monte Carlo floor does not shrink with eps, so it is added to
    the envelope rather than scaled with it.  A sweep whose W1 does not
    decay still lies above the bound, and a coarsest point under its
    floor anchors the constant at 0."""
    eps = (0.16, 0.08, 0.04)
    raw = [theoretical_bound(ScaleRegime(e, e, 1.0, 1.0), 1.0, 0.1) for e in eps]
    floor = w1_floor(10, 1.0)
    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(lambda e: 1.0, lambda w: (0.9 * w, 1.1 * w))
    )
    fit = rate_sweep(affine, eps, "equal", {"n_paths": 10}, K=1.0)
    assert fit.floor_values == (floor,) * 3
    assert fit.c_fit == pytest.approx((1.0 - floor) / raw[0], rel=1e-12)
    assert fit.bound_values == pytest.approx([fit.c_fit * r + floor for r in raw], rel=1e-12)
    assert fit.bound_values[0] == pytest.approx(1.0, rel=1e-12)
    assert all(b < 1.0 for b in fit.bound_values[1:])

    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(lambda e: 0.1, lambda w: (0.9 * w, 1.1 * w))
    )
    fit = rate_sweep(affine, eps, "equal", {"n_paths": 10}, K=1.0)
    assert fit.c_fit == 0.0
    assert fit.bound_values == fit.floor_values == (floor,) * 3


def test_rate_sweep_flags_noisy_points_and_eta_rule(affine, monkeypatch):
    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(lambda e: e**0.5, lambda w: (w / 5.0, 1.1 * w))
    )
    fit = rate_sweep(
        affine, (0.16, 0.08, 0.04), lambda e: e * e, {"n_paths": 10}, K=1.0
    )
    assert fit.noisy_points == (0, 1, 2)
    assert [p[1] for p in fit.points] == pytest.approx([e * e for e, _, _ in fit.points])


def test_rate_sweep_validation(affine):
    with pytest.raises(ValueError):
        rate_sweep(affine, (0.1, 0.05), "equal", {})
    with pytest.raises(ValueError):
        rate_sweep(affine, (0.1, 0.1, 0.05), "equal", {})
    with pytest.raises(ValueError):
        rate_sweep(affine, (0.1, 0.05, 0.025), "linked", {})


def test_rate_sweep_affine_end_to_end(affine):
    fit = rate_sweep(
        affine,
        (0.16, 0.08, 0.04),
        "equal",
        {"n_paths": 300, "n_boot": 100},
        T=0.4,
        seed=6,
    )
    assert len(fit.points) == 3
    assert all(w > 0 for _, _, w in fit.points)
    assert all(b > 0 for b in fit.bound_values)
    assert fit.bound_values[0] == pytest.approx(fit.points[0][2], rel=1e-12)
    assert set(fit.to_dict()["rate"]) == {"slope", "intercept", "r2"}


def test_rate_sweep_homogenizes_once_per_sweep(affine, affine_hom, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_homogenized(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "build_homogenized", counting)
    config = {"n_paths": 50, "n_boot": 10}
    rate_sweep(affine, (0.16, 0.08, 0.04), "equal", config, T=0.2)
    assert len(calls) == 1
    rate_sweep(affine, (0.16, 0.08, 0.04), "equal", dict(config, hom=affine_hom), T=0.2)
    assert len(calls) == 1


def test_rate_sweep_integrates_the_limit_once_and_matches_clt_verify(
    affine, affine_hom, monkeypatch
):
    """Every sweep point shares x0, T and hom, so one limit trajectory
    serves them all, and each point reports exactly what clt_verify's
    pipeline does on a limit integrated for that point alone, at the
    point's own streams (point i + 1)."""
    calls = []
    real = metrics_mod.limit_ode

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metrics_mod, "limit_ode", counting)
    eps, T, seed = (0.16, 0.08, 0.04), 0.2, 9
    config = {"n_paths": 40, "n_boot": 10, "hom": affine_hom}
    fit = rate_sweep(affine, eps, "equal", config, T=T, seed=seed)
    assert len(calls) == 1
    for i, e in enumerate(eps):
        regime = ScaleRegime(e, e, 1.0, T)
        times, capture = metrics_mod._checkpoint_steps(regime, e / 20, (T,))
        trajectory = attach_variance(affine_hom, real(affine_hom, 0.0, T, LIMIT_ODE_DT))
        bundle = simulate_paths(
            affine, regime, 0.0, 0.0, e / 20, 40, seed, store_paths=False,
            capture_indices=capture, _point=i + 1,
        )
        (alone,) = metrics_mod._clt_reports(bundle, times, trajectory, n_boot=10)
        assert fit.reports[i] == alone
    # clt_verify runs the same pipeline on the streams of point 0.
    regime = ScaleRegime(eps[0], eps[0], 1.0, T)
    times, capture = metrics_mod._checkpoint_steps(regime, eps[0] / 20, (T,))
    trajectory = attach_variance(affine_hom, real(affine_hom, 0.0, T, LIMIT_ODE_DT))
    assert clt_verify(
        affine, regime, 0.0, 0.0, eps[0] / 20, 40, checkpoints=(T,), seed=seed,
        n_boot=10, hom=affine_hom,
    ) == metrics_mod._clt_reports(
        simulate_paths(
            affine, regime, 0.0, 0.0, eps[0] / 20, 40, seed, store_paths=False,
            capture_indices=capture,
        ),
        times,
        trajectory,
        n_boot=10,
    )


def test_clt_verify_and_rate_sweep_share_no_stream(affine, affine_hom, stream_keys):
    """Under one seed, clt_verify at the coarsest rate-sweep regime and the
    rate sweep open disjoint sets of streams (paths and bootstrap); the
    old rule gave clt_verify and sweep point 0 the same path-0 W1 stream."""
    eps, T, seed = (0.16, 0.08, 0.04), 0.2, 5
    clt = stream_keys(
        lambda: clt_verify(
            affine, ScaleRegime(eps[0], eps[0], 1.0, T), 0.0, 0.0, eps[0] / 20, 6,
            checkpoints=(T / 2, T), seed=seed, n_boot=3, hom=affine_hom,
        )
    )
    rate = stream_keys(
        lambda: rate_sweep(
            affine, eps, "equal", {"n_paths": 6, "n_boot": 3, "hom": affine_hom},
            T=T, seed=seed,
        )
    )
    assert len(clt) == 2 * 6 + 2
    assert len(rate) == len(eps) * (2 * 6 + 1)
    assert not clt & rate


_WORKER_SWEEP = (0.16, 0.08, 0.04, 0.02)  # 25, 50, 100 and 200 steps at T = 0.2


def _worker_sweep(model, hom):
    return rate_sweep(
        model, _WORKER_SWEEP, "equal", {"n_paths": 40, "n_boot": 10, "hom": hom},
        T=0.2, seed=3,
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_rate_sweep_on_workers_equals_the_run_in_process(
    affine, affine_hom, force_workers, starts, all_joined, workers
):
    """The fit and every point's report, simulation, W1 and bootstrap, are
    the same floats on forked workers as in process.  Each of the 4
    points' simulations starts ``workers`` workers, then the points' W1
    and bootstraps run on 2, as {0, 1} and {2, 3}; none is left.  The
    workers return their results, so neither run reads what the other
    left in memory, whichever runs first."""
    force_workers(workers)
    fit = _worker_sweep(affine, affine_hom)
    assert len(starts) == len(_WORKER_SWEEP) * workers + 2
    assert all_joined()
    force_workers(1)
    in_process = _worker_sweep(affine, affine_hom)
    assert len(starts) == len(_WORKER_SWEEP) * workers + 2
    assert fit.to_dict() == in_process.to_dict()
    assert fit.reports == in_process.reports


@pytest.mark.parametrize("workers", [1, 2])
def test_rate_sweep_raises_the_first_failing_point(
    affine, affine_hom, force_workers, poison, starts, all_joined, workers
):
    """When sweep points 0 and 3 both blow up, point 0's error is raised
    although point 3 fails at an earlier step, in process and on 2
    workers: the points are simulated in order, so point 3 never starts.
    No worker is left."""
    poison(sde_engine, {3: (0, 20, math.inf)}, point=1)
    poison(sde_engine, {17: (0, 0, math.inf)}, point=4)
    force_workers(workers)
    with np.errstate(invalid="ignore"), pytest.raises(
        BlowUpError, match=r"at step 21 \(path column 3\)"
    ):
        _worker_sweep(affine, affine_hom)
    assert len(starts) == (0 if workers == 1 else workers)
    assert all_joined()


def test_rate_sweep_checks_every_step_before_homogenizing(affine, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_homogenized(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "build_homogenized", counting)
    with pytest.raises(StabilityError, match="eta/20"):
        rate_sweep(
            affine, (0.16, 0.08, 0.04), "equal", {"dt_eta_fraction": 0.1}, T=0.2
        )
    assert calls == []


@pytest.mark.parametrize(
    "extra, named",
    [({"n_path": 10}, "['n_path']"), ({"point": 1, "dt": 0.01}, "['dt', 'point']")],
)
def test_rate_sweep_rejects_unknown_config_keys_before_homogenizing(
    affine, monkeypatch, extra, named
):
    """A clt_config key rate_sweep does not read, a misspelt one or one
    that would collide with the stream point, raises ValueError naming
    it before any homogenization."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_homogenized(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "build_homogenized", counting)
    monkeypatch.setattr(metrics_mod, "simulate_paths", _not_reached)
    with pytest.raises(ValueError, match=re.escape(f"unknown clt_config keys: {named}")):
        rate_sweep(affine, (0.16, 0.08, 0.04), "equal", {"n_boot": 10, **extra}, T=0.2)
    assert len(calls) == 0
