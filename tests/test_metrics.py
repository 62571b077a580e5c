"""Tests for the exact W1 estimator, envelopes, and sweep regression."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, log1p, ndtr, ndtri, xlog1py, xlogy

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
    STABILITY_FRACTION,
    BlowUpError,
    FluctuationSample,
    ScaleRegime,
    StabilityError,
    _stream,
    fluctuation_samples,
    simulate_paths,
    simulate_with_increments,
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


@pytest.mark.parametrize(
    "n, pinned",
    [(2, "0x1.a82949e66adccp-1"), (300, "0x1.2e9819d963a60p-4"), (10_000, "0x1.a5bcbd291af48p-7")],
)
def test_w1_floor_bits_are_pinned(n, pinned):
    """The floor keeps its bits when the log-gammas are taken once per
    run of equal k: the values are those of evaluating them at every
    node."""
    assert w1_floor(n, 1.0).hex() == pinned


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


# -- the Cephes ports of ndtr and ndtri, against scipy ------------------


def _bits(values) -> list:
    """The IEEE bit patterns of ``values``: equal lists are bit-equal,
    the sign of zero and NaN's payload included."""
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


def _around(center: float, ulps: int = 4, width: float = 1e-9) -> list[float]:
    """The floats within ``ulps`` of ``center`` and a grid of +-``width``."""
    below = above = center
    near = [center]
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        near += [float(below), float(above)]
    return near + np.linspace(center - width, center + width, 41).tolist()


def _ndtr_cases() -> np.ndarray:
    """Signed zeros, infinities and NaN; a = x sqrt(2) for x = a sqrt(1/2)
    on both sides of sqrt(1/2) and 1, where erf and erfc meet, and of 8,
    where erfc changes its polynomials; erfc's underflow near a = -37.7;
    and |a| = 1e92, where the polynomials overflow past that underflow."""
    a = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e92, -1e92, 1e300, -1e300]
    for x in (math.sqrt(0.5), 1.0, 8.0):
        for side in (1.0, -1.0):
            a += _around(side * x * math.sqrt(2.0))
    a += np.linspace(-37.8, -37.5, 601).tolist() + _around(-37.67)
    return np.array(a)


def test_ndtr_port_bit_equal_to_scipy_at_its_branch_edges():
    a = _ndtr_cases()
    assert _bits(metrics_mod._ndtr(a)) == _bits(ndtr(a))
    assert _bits(metrics_mod._ndtr(a.reshape(1, -1))) == _bits(ndtr(a))
    assert _bits([metrics_mod._ndtr(v) for v in a.tolist()]) == _bits(ndtr(a))
    assert _bits([metrics_mod._ndtr(v) for v in a]) == _bits(ndtr(a))  # numpy scalars


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_ndtr_port_bit_equal_to_scipy(values):
    a = np.array(values)
    assert _bits(metrics_mod._ndtr(a)) == _bits(ndtr(a))
    assert _bits([metrics_mod._ndtr(v) for v in values]) == _bits(ndtr(a))


def _ndtri_cases() -> np.ndarray:
    """0, 1, e^-2 and 1 - e^-2, where the central branch meets the tails,
    1e-300, every k/n for n in {2, 3, 10 000}, and levels outside [0, 1]."""
    e2 = math.exp(-2.0)
    y = [0.0, 1.0, e2, 1.0 - e2, 1e-300, 5e-324, -0.0, -0.5, 1.5, math.inf, math.nan]
    y += _around(e2, width=1e-12) + _around(1.0 - e2, width=1e-12)
    for n in (2, 3, 10_000):
        y += (np.arange(n + 1) / n).tolist()
    return np.array(y)


def test_ndtri_port_bit_equal_to_scipy_at_its_branch_edges():
    y = _ndtri_cases()
    assert _bits(metrics_mod._ndtri(y)) == _bits(ndtri(y))
    assert _bits([metrics_mod._ndtri(v) for v in y[:100].tolist()]) == _bits(ndtri(y[:100]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(0.0, 1.0) | st.floats(1e-320, 1e-14) | st.floats(allow_nan=True),
        min_size=1,
        max_size=40,
    )
)
def test_ndtri_port_bit_equal_to_scipy(values):
    y = np.array(values)
    assert _bits(metrics_mod._ndtri(y)) == _bits(ndtri(y))
    assert _bits([metrics_mod._ndtri(v) for v in values]) == _bits(ndtri(y))


# -- the Cephes ports of lgam and log1p, and the floor on them ---------


def test_gammaln_port_bit_equal_to_scipy():
    """Every integer from 1 to 20001, the arguments of the floor up to
    n = 2 10^4; reals in (0, 13), stepped into [2, 3) by the recurrence,
    and around 2 and 3; and Stirling's series on both sides of 13, of
    1000, where it keeps three terms, and of 1e8, beyond which it keeps
    none, up to MAXLGM, where it overflows to inf."""
    rng = np.random.default_rng(31)
    x = np.concatenate((
        np.arange(1.0, 20002.0),
        rng.uniform(1e-9, 13.0, 20_000),
        np.exp(rng.uniform(math.log(13.0), math.log(1e300), 20_000)),
        _around(2.0), _around(3.0), _around(13.0), _around(1000.0), _around(1e8, width=1e-3),
        [1e-300, 2.556348e305, 2.556349e305, math.inf, math.nan],
    ))
    assert _bits(metrics_mod._gammaln(x)) == _bits(gammaln(x))
    assert _bits([metrics_mod._gammaln(v) for v in (1.0, 5.5, 12.5, 13.0, 2e4 + 1)]) == _bits(
        gammaln([1.0, 5.5, 12.5, 13.0, 2e4 + 1])
    )


def test_log1p_ports_bit_equal_to_scipy_on_the_floor_range():
    """log1p and xlog1py on [-1, 0], the floor's -p, with the edges of
    log1p's polynomial, 1 + y = 1/sqrt(2), and xlog1py's 0 at a == 0,
    where y = -1 (p rounded to 1) has no logarithm."""
    rng = np.random.default_rng(32)
    edge = math.sqrt(0.5) - 1.0
    y = np.concatenate((-rng.random(100_000), _around(edge), [0.0, -0.0, -1e-300, -1.0 + 2**-53]))
    assert _bits(metrics_mod._log1p(y)) == _bits(log1p(y))
    a = rng.integers(0, 5, y.size).astype(float)
    a, y = np.append(a, [0.0, 0.0]), np.append(y, [-1.0, 0.0])
    assert _bits(metrics_mod._xlog1py(a, y)) == _bits(xlog1py(a, y))


def _scipy_floor(n: int, sigma2: float) -> float:
    """:func:`w1_floor`'s formula on scipy.special's gammaln, xlogy and
    xlog1py."""
    z = np.linspace(-9.0, 9.0, metrics_mod._FLOOR_NODES)
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


@pytest.mark.parametrize("n", [1, 2, 12, 13, 999, 1000, 1001, 10**4, 2 * 10**4])
def test_w1_floor_bit_equal_to_scipy_formula(n):
    """Around the lgam branches at 13 and 1000, the floor on the ports is
    bit for bit the floor on scipy.special."""
    assert _bits([w1_floor(n, 1.7)]) == _bits([_scipy_floor(n, 1.7)])


def test_percentiles_bit_equal_to_numpy():
    """The CI ends of :func:`bootstrap_w1` from np.partition and numpy's
    interpolation equal np.percentile's for n from 1 to 1000 at five
    levels, on continuous values and on tie-rich ones."""
    rng = np.random.default_rng(33)
    for n in range(1, 1001):
        values = rng.exponential(size=n) if n % 2 else rng.integers(0, 4, n) * 0.5
        for level in (0.5, 0.8, 0.9, 0.95, 0.99):
            alpha = 100.0 * (1.0 - level) / 2.0
            ends = [alpha, 100.0 - alpha]
            assert _bits(metrics_mod._percentiles(values, ends)) == _bits(
                np.percentile(values, ends)
            ), (n, level)


@pytest.mark.parametrize("case", ["normal", "far_tail", "n17", "tie_rich"])
def test_table_G_at_quantiles_is_G_of_each_quantile(case):
    """A resample reads G at an inside crossing from ``G_quantile``; that is
    G evaluated at the quantiles it picks, bit for bit."""
    xs, mu, sigma2 = _reference_cases()[case]
    table = metrics_mod._W1Table(xs, mu, sigma2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = rng.random(table.quantile.size) < rng.random()
        assert _bits(table.G_quantile[m]) == _bits(table._G(table.quantile[m]))


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
    raise AssertionError("work started before the arguments were checked")


def test_clt_verify_checks_n_boot_before_any_work(affine, monkeypatch):
    monkeypatch.setattr(metrics_mod, "build_homogenized", _not_reached)
    monkeypatch.setattr(metrics_mod, "simulate_paths", _not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.1)
    with pytest.raises(ValueError, match="n_boot"):
        clt_verify(affine, regime, 0.0, 0.0, 0.0025, 10, n_boot=0)


def test_rate_sweep_checks_n_boot_before_any_work(affine, monkeypatch):
    monkeypatch.setattr(metrics_mod, "build_homogenized", _not_reached)
    monkeypatch.setattr(metrics_mod, "_final_states", _not_reached)
    with pytest.raises(ValueError, match="n_boot"):
        rate_sweep(affine, (0.16, 0.08, 0.04), "equal", {"n_boot": 0}, T=0.2)


@pytest.mark.parametrize(
    "n_paths, message",
    [
        (1, "n_paths must be >= 2 for a W1 estimate (got 1)"),
        (0, "n_paths must be >= 1 (got 0)"),
        (2.5, "n_paths must be an integer >= 1 (got 2.5)"),
        (30.9, "n_paths must be an integer >= 1 (got 30.9)"),
        (True, "n_paths must be an integer >= 1 (got True)"),
    ],
)
def test_path_counts_are_checked_before_any_work(affine, monkeypatch, n_paths, message):
    """clt_verify and rate_sweep take an integer n_paths >= 2, the fewest
    samples a W1 estimate takes, and raise ValueError naming it before
    any homogenization or simulation: rate_sweep does not truncate 30.9
    to 30 paths, nor does either run one path for True."""
    monkeypatch.setattr(metrics_mod, "build_homogenized", _not_reached)
    monkeypatch.setattr(metrics_mod, "simulate_paths", _not_reached)
    monkeypatch.setattr(metrics_mod, "_final_states", _not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(message)):
        clt_verify(affine, regime, 0.0, 0.0, 0.0025, n_paths, n_boot=10)
    config = {"n_paths": n_paths, "n_boot": 10}
    with pytest.raises(ValueError, match=re.escape(message)):
        rate_sweep(affine, (0.16, 0.08, 0.04), "equal", config, T=0.2)


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


def test_clt_verify_rejects_bad_checkpoints(affine, monkeypatch):
    regime = ScaleRegime(0.04, 0.04, 1.0, 0.4)
    with pytest.raises(ValueError):
        clt_verify(affine, regime, 0.0, 0.0, 0.002, 10, checkpoints=(0.0,))
    with pytest.raises(ValueError):
        clt_verify(affine, regime, 0.0, 0.0, 0.002, 10, checkpoints=(0.9,))

    def not_reached(*args, **kwargs):
        raise AssertionError("work started before the checkpoints were checked")

    # No checkpoint: an error before any homogenization or simulation,
    # not an empty list of reports.
    monkeypatch.setattr(metrics_mod, "build_homogenized", not_reached)
    monkeypatch.setattr(metrics_mod, "simulate_paths", not_reached)
    with pytest.raises(ValueError, match="checkpoints must not be empty"):
        clt_verify(affine, regime, 0.0, 0.0, 0.002, 10, checkpoints=())


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


def _stub_clt(eps, w1_of_eps, ci_of_w1):
    """A ``_clt_reports`` whose sweep point i (stream point i + 1) of the
    sweep over ``eps`` reports w1_of_eps(eps[i])."""

    def fake(samples, seed, point, n_boot):
        w1 = w1_of_eps(eps[point - 1])
        return [
            WassersteinReport(
                t=samples[0].t,
                n=len(samples[0].theta),
                w1=w1,
                bootstrap_ci=ci_of_w1(w1),
                mean_gap=0.0,
                sd_gap=0.0,
                limit_var=1.0,
            )
        ]

    return fake


def test_rate_sweep_recovers_synthetic_slope(affine, monkeypatch):
    eps = (0.16, 0.08, 0.04, 0.02)
    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(eps, lambda e: e**0.25, lambda w: (0.9 * w, 1.1 * w))
    )
    fit = rate_sweep(affine, eps, "equal", {"n_paths": 10}, K=1.0)
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
        metrics_mod, "_clt_reports", _stub_clt(eps, lambda e: 1.0, lambda w: (0.9 * w, 1.1 * w))
    )
    fit = rate_sweep(affine, eps, "equal", {"n_paths": 10}, K=1.0)
    assert fit.floor_values == (floor,) * 3
    assert fit.c_fit == pytest.approx((1.0 - floor) / raw[0], rel=1e-12)
    assert fit.bound_values == pytest.approx([fit.c_fit * r + floor for r in raw], rel=1e-12)
    assert fit.bound_values[0] == pytest.approx(1.0, rel=1e-12)
    assert all(b < 1.0 for b in fit.bound_values[1:])

    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(eps, lambda e: 0.1, lambda w: (0.9 * w, 1.1 * w))
    )
    fit = rate_sweep(affine, eps, "equal", {"n_paths": 10}, K=1.0)
    assert fit.c_fit == 0.0
    assert fit.bound_values == fit.floor_values == (floor,) * 3


def test_rate_sweep_flags_noisy_points_and_eta_rule(affine, monkeypatch):
    eps = (0.16, 0.08, 0.04)
    monkeypatch.setattr(
        metrics_mod, "_clt_reports", _stub_clt(eps, lambda e: e**0.5, lambda w: (w / 5.0, 1.1 * w))
    )
    fit = rate_sweep(affine, eps, lambda e: e * e, {"n_paths": 10}, K=1.0)
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


def _pair_sums(dw: np.ndarray, times: int) -> np.ndarray:
    """``dw`` summed over consecutive pairs of steps ``times`` times."""
    for _ in range(times):
        dw = dw[0::2] + dw[1::2]
    return dw


def test_rate_sweep_integrates_the_limit_once_and_matches_clt_verify(
    affine, affine_hom, monkeypatch
):
    """Every sweep point shares x0, T and hom, so one limit trajectory
    serves them all, and each point reports exactly what clt_verify's
    pipeline does on a limit integrated for that point alone.  The finest
    point runs on its own streams (point 3), as simulate_paths runs them;
    each coarser point steps on pair sums of the finest point's
    increments, on the coarsest grid of the finest that is no coarser
    than its own, and bootstraps from the streams of its own point.  At
    T = 0.2 the own grids halve (25/50/100 steps); at T = 0.3 they do not
    (38/75/150), and the coarsest point steps on 75."""
    calls = []
    real = metrics_mod.limit_ode

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metrics_mod, "limit_ode", counting)
    eps, seed, n_paths = (0.16, 0.08, 0.04), 9, 40
    config = {"n_paths": n_paths, "n_boot": 10, "hom": affine_hom}
    for T, steps in ((0.2, [25, 50, 100]), (0.3, [75, 75, 150])):
        calls.clear()
        fit = rate_sweep(affine, eps, "equal", config, T=T, seed=seed)
        assert len(calls) == 1
        trajectory = attach_variance(affine_hom, real(affine_hom, 0.0, T, LIMIT_ODE_DT))
        assert trajectory.t_grid[-1] == pytest.approx(T)

        finest = ScaleRegime(eps[-1], eps[-1], 1.0, T)
        n_f = steps[-1]
        bundle = simulate_paths(
            affine, finest, 0.0, 0.0, eps[-1] / 20, n_paths, seed,
            capture_indices=[n_f], _point=len(eps),
        )
        assert bundle.n_steps == n_f
        (alone,) = metrics_mod._clt_reports(
            [fluctuation_samples(bundle, trajectory, T)], seed, len(eps), n_boot=10
        )
        assert fit.reports[-1] == alone

        dW1, dW2 = next(sde_engine._noise_blocks(
            seed, range(n_paths), n_f, bundle.dt, n_f, point=len(eps)
        ))
        for i, (e, n) in enumerate(zip(eps[:-1], steps)):
            regime = ScaleRegime(e, e, 1.0, T)
            times = (n_f // n).bit_length() - 1
            caps = simulate_with_increments(
                affine, regime, 0.0, 0.0, T / n,
                _pair_sums(dW1, times), _pair_sums(dW2, times), [n],
            )
            theta = (caps[n][0] - trajectory.x_bar[-1]) / math.sqrt(e)
            sample = FluctuationSample(T, theta, 0.0, float(trajectory.sigma2[-1]))
            (alone,) = metrics_mod._clt_reports([sample], seed, i + 1, n_boot=10)
            assert fit.reports[i] == alone, (T, i)
    # clt_verify runs the same pipeline on the streams of point 0.
    regime = ScaleRegime(eps[0], eps[0], 1.0, T)
    times, capture = metrics_mod._checkpoint_steps(regime, eps[0] / 20, (T,))
    bundle = simulate_paths(
        affine, regime, 0.0, 0.0, eps[0] / 20, n_paths, seed, capture_indices=capture
    )
    assert clt_verify(
        affine, regime, 0.0, 0.0, eps[0] / 20, n_paths, checkpoints=(T,), seed=seed,
        n_boot=10, hom=affine_hom,
    ) == metrics_mod._clt_reports(
        [fluctuation_samples(bundle, trajectory, t) for t in times], seed, 0, n_boot=10
    )


def test_clt_verify_and_rate_sweep_share_no_stream(affine, affine_hom, stream_ids):
    """Under one seed, clt_verify at the coarsest rate-sweep regime and the
    rate sweep open disjoint sets of streams (paths and bootstrap); the
    old rule gave clt_verify and sweep point 0 the same path-0 W1 stream.
    The sweep draws the paths of its finest point alone, once, and one
    bootstrap stream per point."""
    eps, T, seed = (0.16, 0.08, 0.04), 0.2, 5
    clt = stream_ids(
        lambda: clt_verify(
            affine, ScaleRegime(eps[0], eps[0], 1.0, T), 0.0, 0.0, eps[0] / 20, 6,
            checkpoints=(T / 2, T), seed=seed, n_boot=3, hom=affine_hom,
        )
    )
    rate = stream_ids(
        lambda: rate_sweep(
            affine, eps, "equal", {"n_paths": 6, "n_boot": 3, "hom": affine_hom},
            T=T, seed=seed,
        )
    )
    assert len(clt) == 2 * 6 + 2
    assert len(rate) == 2 * 6 + len(eps)
    assert {word >> 32 for _, word in rate} == {1, 2, 3}  # the points
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
    the same floats on forked workers as in process.  The one pass of
    all 4 points starts ``workers`` workers, then the points' W1 and
    bootstraps run on 2, as {0, 1} and {2, 3}; none is left.  The
    workers return their results, so neither run reads what the other
    left in memory, whichever runs first."""
    force_workers(workers)
    fit = _worker_sweep(affine, affine_hom)
    assert len(starts) == workers + 2
    assert all_joined()
    force_workers(1)
    in_process = _worker_sweep(affine, affine_hom)
    assert len(starts) == workers + 2
    assert fit.to_dict() == in_process.to_dict()
    assert fit.reports == in_process.reports


@pytest.mark.parametrize("workers", [1, 2])
def test_rate_sweep_raises_the_first_failing_point(
    affine, affine_hom, monkeypatch, force_workers, poison, starts, all_joined, workers
):
    """A blow-up in the sweep's one pass raises the error of the earliest
    failing time, ties going to the lower point, in process and on 2
    workers (both poisoned paths lie in the first share), in one noise
    block and in blocks of 8 finest steps (one step of point 0).  The
    points step on the finest point's streams (point 4), so a poisoned
    finest increment reaches every point.  No worker is left.

    First path 3 is poisoned at finest step 20: the finest point fails
    first, at its step 21, and point 0 at its step 3 (time 24).  Then path
    17 is poisoned too, at finest step 7 of the other channel: every
    point fails at time 8 (finest step 8, point 0's step 1), and the
    lowest point's error is raised."""
    stages = (
        ({3: (0, 20, math.inf)}, r"at step 21 \(path column 3\)"),
        ({17: (1, 7, -math.inf)}, r"at step 1 \(path column 17\)"),
    )
    # 40 paths, 4 levels: 16 bytes x 40 paths x 15 rows per 8 finest steps
    one_block, small = sde_engine._NOISE_BLOCK_BYTES, 16 * 40 * 15
    force_workers(workers)
    for poisoned, raised in stages:
        poison(sde_engine, poisoned, point=4)  # on top of the stages before
        for size in (one_block, small):
            monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", size)
            assert (sde_engine._block_steps(40, 3) == 8) == (size == small)
            with np.errstate(invalid="ignore"), pytest.raises(BlowUpError, match=raised):
                _worker_sweep(affine, affine_hom)
    assert len(starts) == (0 if workers == 1 else 4 * workers)
    assert all_joined()


def test_nested_grids_keep_the_dyadic_grids():
    """On the benchmark list, whose steps halve, every point keeps the
    grid _grid lays at its own step, bit for bit."""
    regimes = [ScaleRegime(e, e, 1.0, 1.0) for e in (0.16, 0.08, 0.04, 0.02)]
    dts = [r.eta * STABILITY_FRACTION for r in regimes]
    grids, finest = sde_engine._nested_grids(regimes, dts)
    assert finest == 3
    assert [n for n, _ in grids] == [125, 250, 500, 1000]
    assert grids == [sde_engine._grid(r, dt) for r, dt in zip(regimes, dts)]


@pytest.mark.parametrize(
    "eps, T, steps",
    [((0.1, 0.05, 0.03), 1.0, [667] * 3), ((0.16, 0.08, 0.04), 0.3, [75, 75, 150])],
)
def test_nested_grids_on_a_list_that_is_not_dyadic(eps, T, steps):
    """Every point takes the coarsest grid of n_f / 2**k steps that is no
    coarser than its own: its step divides the finest grid into a power
    of two and passes its own guard at the step it asked for."""
    regimes = [ScaleRegime(e, e, 1.0, T) for e in eps]
    dts = [r.eta / 20 for r in regimes]
    grids, finest = sde_engine._nested_grids(regimes, dts)
    assert finest == len(eps) - 1
    assert [n for n, _ in grids] == steps
    n_f = grids[finest][0]
    for regime, dt, (n, dt_eff) in zip(regimes, dts, grids):
        own, _ = sde_engine._grid(regime, dt)
        ratio = n_f // n
        assert n * ratio == n_f and ratio & (ratio - 1) == 0
        assert dt_eff == T / n <= dt
        assert sde_engine._grid(regime, dt_eff) == (n, dt_eff)
        assert n >= own and (n % 2 or n // 2 < own)


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
    monkeypatch.setattr(metrics_mod, "_final_states", _not_reached)
    with pytest.raises(ValueError, match=re.escape(f"unknown clt_config keys: {named}")):
        rate_sweep(affine, (0.16, 0.08, 0.04), "equal", {"n_boot": 10, **extra}, T=0.2)
    assert len(calls) == 0
