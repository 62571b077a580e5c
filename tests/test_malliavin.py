"""Tests for tangent (Malliavin-derivative) integration and moment checks."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

import fastslow.malliavin as malliavin_mod
import fastslow.oracles as oracles_mod
from fastslow.coefficients import (
    COEFFICIENT_KEYS,
    CoefficientTable,
    ModelEvaluationError,
    model_from_expressions,
)
from fastslow.malliavin import (
    BOUND_IDS,
    TangentBlowUpError,
    decay_check,
    moment_sweep,
)
from fastslow.oracles import (
    SecondOrderTangents,
    contraction_norm_second,
    default_r_grid,
    first_order_tangents,
    full_pair_grid,
    hnorm_first,
    q_decomposition,
    quadruple_analytic,
    quadruple_brute_force,
    quadruple_envelope,
    quadruple_fit_constant,
    quadruple_integral_check,
    quadruple_quadrature,
    second_order_tangents,
    z_process,
)
from fastslow.sde_engine import (
    _EM_KEYS as EM_KEYS,
    BlowUpError,
    ScaleRegime,
    StabilityError,
    _noise_blocks,
    _StepScales,
    draw_increments,
    simulate_paths,
    time_grid,
)

ALL_COMBOS = ((0, 0), (0, 1), (1, 0), (1, 1))
#: The rows of a tangent pass, first- and second-order.
FIRST_ROWS = ("final_dx", "final_dy", "sup_abs_dx", "sup_abs_dy")
SECOND_ROWS = ("final_d2x", "final_d2y", "sup_abs_d2x", "sup_abs_d2y")


def _every_step(regime, dt):
    """The capture indices of every step of the grid of ``regime`` at ``dt``."""
    return range(time_grid(regime.T, dt)[0] + 1)


def _paths(bundle):
    """(X, Y), each of shape (n_steps + 1, n_paths), of a bundle captured
    at every step."""
    X, Y = zip(*(bundle.state_at(k) for k in range(bundle.n_steps + 1)))
    return np.array(X), np.array(Y)


@pytest.fixture(scope="module")
def bounded_bundle(bounded):
    """A bundle captured at every step, which the scalar reference reads."""
    regime = ScaleRegime(epsilon=0.05, eta=0.05, gamma=1.0, T=0.5)
    dt = regime.eta / 20
    return simulate_paths(
        bounded, regime, 0.1, -0.2, dt, 4, 42, capture_indices=_every_step(regime, dt)
    )


# -- grids -------------------------------------------------------------


def test_default_r_grid_and_pair_grid():
    grid = default_r_grid(2000, 16)
    assert len(grid) == 16
    assert grid[0] == 0 and grid[-1] == 2000
    assert np.all(np.diff(grid) > 0)
    pairs = full_pair_grid([0, 5])
    assert pairs.tolist() == [[0, 0], [0, 5], [5, 0], [5, 5]]


@pytest.mark.parametrize("bad", [True, 4.0, 2.5])
def test_default_r_grid_takes_counts(bad):
    """n_steps and n_r take the count rule: a float reached np.linspace
    as a bare TypeError, and n_r = True gave the grid [0]."""
    for name in ("n_steps", "n_r"):
        args = dict(n_steps=100, n_r=4) | {name: bad}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1 (got {bad!r})")):
            default_r_grid(**args)


# -- first-order tangents ----------------------------------------------


def test_injection_values_at_perturbation_time(affine, affine_bundle):
    first = first_order_tangents(affine, affine_bundle, [0, 1000])
    i = first.position(1000)
    eps_root = math.sqrt(affine_bundle.regime.epsilon)
    eta_root = math.sqrt(affine_bundle.regime.eta)
    assert np.all(first.DX[0, i, 1000] == eps_root)  # sigma = 1
    assert np.all(first.DY[0, i, 1000] == 0.0)
    assert np.all(first.DX[1, i, 1000] == 0.0)
    assert np.all(first.DY[1, i, 1000] == math.sqrt(2.0) / eta_root)
    # nothing before the perturbation time
    assert np.all(first.DX[:, i, :1000] == 0.0)
    assert np.all(first.DY[:, i, :1000] == 0.0)
    with pytest.raises(KeyError):
        first.position(17)


def test_first_order_matches_matrix_exponential(affine):
    """On the affine model the tangent flow is the deterministic linear
    system with matrix [[-2, 1], [1/eta, -1/eta]]; compare against its
    matrix exponential at the perturbation-grid node times, relative to
    the injected tangent scale."""
    regime = ScaleRegime(epsilon=0.01, eta=0.01, gamma=1.0, T=1.0)
    dt = regime.eta / 50.0
    bundle = simulate_paths(affine, regime, 0.1, -0.3, dt, 2, 21)
    r_grid = default_r_grid(bundle.n_steps, 16)
    first = first_order_tangents(affine, bundle, r_grid)
    A = np.array([[-2.0, 1.0], [1.0 / regime.eta, -1.0 / regime.eta]])
    inits = {
        0: np.array([math.sqrt(regime.epsilon), 0.0]),
        1: np.array([0.0, math.sqrt(2.0) / math.sqrt(regime.eta)]),
    }
    worst = 0.0
    for i, r in enumerate(first.r_indices):
        for t_idx in first.r_indices[first.r_indices >= r]:
            exact_flow = expm(A * ((t_idx - r) * bundle.dt))
            for j, v0 in inits.items():
                exact = exact_flow @ v0
                got = np.array(
                    [first.DX[j, i, t_idx, 0], first.DY[j, i, t_idx, 0]]
                )
                err = np.linalg.norm(got - exact) / np.linalg.norm(v0)
                worst = max(worst, err)
    assert worst < 1e-3


def test_epsilon_scaling_of_tangents(affine):
    """The W2 tangent does not involve epsilon on the affine model and
    the W1 tangent is exactly proportional to sqrt(epsilon)."""
    shared = dict(x0=0.2, y0=0.0, dt=1e-3, n_paths=3, master_seed=5)
    small = simulate_paths(
        affine, ScaleRegime(0.01, 0.02, math.sqrt(0.5), 0.2), **shared
    )
    big = simulate_paths(
        affine, ScaleRegime(0.04, 0.02, math.sqrt(2.0), 0.2), **shared
    )
    r_list = [0, 100, 200]
    f_small = first_order_tangents(affine, small, r_list)
    f_big = first_order_tangents(affine, big, r_list)
    assert np.array_equal(f_small.DX[1], f_big.DX[1])
    assert np.array_equal(f_small.DY[1], f_big.DY[1])
    assert np.array_equal(f_big.DX[0], 2.0 * f_small.DX[0])
    assert np.array_equal(f_big.DY[0], 2.0 * f_small.DY[0])


def test_first_order_validation(affine, affine_bundle):
    with pytest.raises(ValueError):
        first_order_tangents(affine, affine_bundle, [])
    n = affine_bundle.n_steps
    with pytest.raises(ValueError, match=re.escape(f"r-index 1000000 outside [0, {n}]")):
        first_order_tangents(affine, affine_bundle, [10**6])
    # an r of a pair goes through the same check
    with pytest.raises(ValueError, match=re.escape(f"r-index {n + 1} outside [0, {n}]")):
        second_order_tangents(affine, affine_bundle, [(0, n + 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda m, b, r: first_order_tangents(m, b, r),
        lambda m, b, r: second_order_tangents(m, b, [(0, r[-1])]),
        lambda m, b, r: z_process(m, b, r[-1]),
        lambda m, b, r: q_decomposition(m, b, r[-1]),
        lambda m, b, r: full_pair_grid(r),
    ],
    ids=["first_order", "second_order", "z_process", "q_decomposition", "pair_grid"],
)
def test_fractional_r_index_is_rejected(affine, affine_bundle, call):
    with pytest.raises(ValueError, match=re.escape("r-index 10.7 is not an integer")):
        call(affine, affine_bundle, [4, 10.7])
    # Python and numpy integers are steps; a float or a bool is not, even
    # an integral one, as for the capture indices of simulate_paths
    for r in (10, np.int64(10), np.uint8(10)):
        call(affine, affine_bundle, [4, r])
    for r in (10.0, np.float64(10.0), True, np.True_):
        with pytest.raises(ValueError, match=re.escape(f"r-index {r} is not an integer")):
            call(affine, affine_bundle, [4, r])


def test_integral_r_indices_keep_their_values(affine, affine_bundle):
    first = first_order_tangents(affine, affine_bundle, [np.int64(10), 4], False)
    assert first.r_indices.tolist() == [4, 10]
    assert np.array_equal(
        z_process(affine, affine_bundle, np.int64(10)), z_process(affine, affine_bundle, 10)
    )


def test_step_indices_take_the_capture_rule():
    """Every element is checked, integer arrays pass whole, and a float
    array names its first element."""
    r_grid = malliavin_mod._r_grid
    assert r_grid(10, np.array([5, 2, 5])).tolist() == [2, 5]
    assert r_grid(10, [(2, np.int32(5))]).tolist() == [2, 5]
    for bad, name in (([2.0, 5.0], "2.0"), (np.array([2.0, 5.0]), "2.0"), ([2, False], "False")):
        with pytest.raises(ValueError, match=re.escape(f"r-index {name} is not an integer")):
            r_grid(10, bad)
    # a cell's steps are checked before the rows become one array
    with pytest.raises(ValueError, match=re.escape("r-index 10.0 is not an integer")):
        malliavin_mod._index_array([(0, 1, 4, 10.0)], 4, "cell")


def test_tangent_blow_up_names_channel():
    wild = model_from_expressions("wild-tau", "-x", "1", "-y", "3 + 2*cos(40*y)")
    regime = ScaleRegime(epsilon=0.01, eta=0.01, gamma=1.0, T=0.5)
    bundle = simulate_paths(wild, regime, 0.0, 0.0, 5e-4, 2, 77)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TangentBlowUpError, match="channel W2"):
            first_order_tangents(wild, bundle, [0])


def test_series_byte_cap(affine):
    regime = ScaleRegime(0.01, 0.01, 1.0, 0.5)
    bundle = simulate_paths(affine, regime, 0.0, 0.0, 5e-5, 1, 0)
    with pytest.raises(MemoryError):
        first_order_tangents(affine, bundle, range(bundle.n_steps + 1))


# -- second-order tangents ---------------------------------------------


def test_second_order_affine_identically_zero(affine, affine_bundle):
    """Every second partial of the affine coefficients vanishes, so the
    second-order tangents are exactly zero."""
    pairs = full_pair_grid([500, 1500])
    second = second_order_tangents(affine, affine_bundle, pairs)
    # zero running sups: the whole series is zero
    assert np.all(second.sup_abs_d2x == 0.0)
    assert np.all(second.sup_abs_d2y == 0.0)
    assert np.all(second.final_d2x == 0.0)


def test_second_order_swap_symmetry(bounded, bounded_bundle):
    """Channel/time swaps (j1, r1; j2, r2) <-> (j2, r2; j1, r1) give the
    same mixed second tangent although each combo is integrated
    independently."""
    one = second_order_tangents(bounded, bounded_bundle, [(140, 40)], combos=((0, 1),))
    other = second_order_tangents(bounded, bounded_bundle, [(40, 140)], combos=((1, 0),))
    assert np.array_equal(one.final_d2x, other.final_d2x)
    assert np.array_equal(one.final_d2y, other.final_d2y)
    same_a = second_order_tangents(bounded, bounded_bundle, [(140, 40)], combos=((1, 1),))
    same_b = second_order_tangents(bounded, bounded_bundle, [(40, 140)], combos=((1, 1),))
    assert np.array_equal(same_a.final_d2x, same_b.final_d2x)


# -- fast-flow fundamental solution ------------------------------------


def test_z_process_affine_exact(affine, affine_bundle):
    eta = affine_bundle.regime.eta
    r = 600
    z = z_process(affine, affine_bundle, r)
    gaps = np.maximum(affine_bundle.t_grid - r * affine_bundle.dt, 0.0)
    expect = np.exp(-gaps / eta)[:, None]
    assert np.max(np.abs(z - expect)) < 1e-12
    assert np.all(z[: r + 1] == 1.0)
    assert np.all(z_process(affine, affine_bundle, affine_bundle.n_steps) == 1.0)
    with pytest.raises(ValueError):
        z_process(affine, affine_bundle, -1)


def test_z_process_bounded_is_deterministic(bounded, bounded_bundle):
    """The bounded model has d2_f = -1 and d2_tau = 0, so its fast flow
    is the same deterministic exponential on every path."""
    eta = bounded_bundle.regime.eta
    r = 100
    z = z_process(bounded, bounded_bundle, r)
    gaps = np.maximum(bounded_bundle.t_grid - r * bounded_bundle.dt, 0.0)
    expect = np.exp(-gaps / eta)[:, None]
    assert np.max(np.abs(z - expect)) < 1e-12
    assert np.all(z == z[:, :1])


def _stored_path_z(model, bundle, r):
    """The z-process by the stored-path formula: the log increments of all
    steps from r at once, on the captured rows X[r:-1], Y[r:-1] and the
    W2 increments drawn for the bundle, cumulated with np.cumsum."""
    out = np.ones((bundle.n_steps + 1, bundle.n_paths))
    if r == bundle.n_steps:
        return out
    eta = bundle.regime.eta
    X, Y = _paths(bundle)
    d2f, d2t = model.evaluate(X[r:-1], Y[r:-1], ("d2_f", "d2_tau"))
    _, w2 = draw_increments(bundle.master_seed, range(bundle.n_paths), bundle.n_steps, bundle.dt)
    incr = (
        d2f * (bundle.dt / eta)
        + d2t * (w2[r:] / math.sqrt(eta))
        - d2t**2 * (bundle.dt / (2.0 * eta))
    )
    out[r + 1 :] = np.exp(np.cumsum(incr, axis=0))
    return out


@pytest.mark.parametrize("fixture", ["bounded", "trig"])
def test_z_process_matches_the_stored_path_formula(fixture, request):
    """The z-process cumulated along the bundle's replay equals, bit for
    bit, the formula evaluated on the path captured at every step, from
    r = 0, an inner r, T/2 and the horizon.  On trig, d2_tau varies with
    the state, so the W2 term moves every path differently."""
    model = request.getfixturevalue(fixture)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    dt = regime.eta / 20
    bundle = simulate_paths(
        model, regime, 0.4, 0.3, dt, 5, 9, capture_indices=_every_step(regime, dt)
    )
    n = bundle.n_steps
    for r in (0, 7, n // 2, n):
        z = z_process(model, bundle, r)
        assert np.array_equal(z, _stored_path_z(model, bundle, r)), r
        assert np.all(z[: r + 1] == 1.0) and np.all(z > 0.0), r
    z = z_process(model, bundle, 0)
    assert np.all(z == z[:, :1]) == (fixture == "bounded")


def test_z_process_replays_a_bundle_without_paths(trig):
    """A bundle that captures no step gives the z-process of the bundle
    of the same seed captured at every step, bit for bit."""
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    shared = (trig, regime, 0.4, 0.3, regime.eta / 20, 5, 9)
    light = simulate_paths(*shared)
    stored = simulate_paths(*shared, capture_indices=_every_step(regime, shared[4]))
    assert light.captures == {}
    for r in (0, 7, light.n_steps // 2):
        assert np.array_equal(z_process(trig, light, r), z_process(trig, stored, r)), r


@pytest.mark.parametrize("fixture", ["bounded", "trig"])
def test_z_process_steps_no_tangent(fixture, request, monkeypatch):
    """The z-process reads only the base path's coefficient values and W2
    increments, so it runs no tangent pass and steps no first-order row.
    Its output equals, bit for bit, the log cumulated by a ``record``
    hook of the bundle's replay that also advances the W2 tangent at r."""
    model = request.getfixturevalue(fixture)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    bundle = simulate_paths(model, regime, 0.4, 0.3, regime.eta / 20, 5, 9)
    stepped = []
    first_step = malliavin_mod._first_step

    def spy_first(d, dx, *args):
        stepped.append(dx.shape[0])
        return first_step(d, dx, *args)

    monkeypatch.setattr(malliavin_mod, "_first_step", spy_first)
    n, eta, dt = bundle.n_steps, regime.eta, bundle.dt
    for r in (0, 7, n // 2):
        got = z_process(model, bundle, r)
        assert stepped == []
        ref = np.ones_like(got)
        log_z = np.zeros(bundle.n_paths)

        def record(k, dx, dy, values, w2):
            nonlocal log_z
            if k < n:
                _, d2f, _, d2t = oracles_mod._fast_partials(values)
                log_z = log_z + (
                    d2f * (dt / eta) + d2t * (w2 / math.sqrt(eta)) - d2t**2 * (dt / (2.0 * eta))
                )
                ref[k + 1] = np.exp(log_z)

        oracles_mod._bundle_pass(model, bundle, [(1, r)], record=record)
        assert stepped == [1] * (n - r)
        assert np.array_equal(got, ref), r
        stepped.clear()


def test_q_decomposition_affine_closed_form(affine, affine_bundle):
    eta = affine_bundle.regime.eta
    dt = affine_bundle.dt
    r = 1000
    q1, q2 = q_decomposition(affine, affine_bundle, r)
    scale = math.sqrt(2.0) / math.sqrt(eta)
    assert np.all(q1[r] == scale)
    ks = np.arange(r, affine_bundle.n_steps + 1)
    expect = scale * (1.0 - dt / eta) ** (ks - r)
    assert np.allclose(q1[ks, 0], expect, rtol=1e-10)
    assert np.all(q1[:r] == 0.0) and np.all(q2[: r + 1] == 0.0)
    first = first_order_tangents(affine, affine_bundle, [r])
    resid = np.max(np.abs(q1 + q2 - first.DY[1, 0]))
    assert resid < 1e-9 * (1.0 + np.max(np.abs(first.DY[1, 0])))


# -- norm quadratures --------------------------------------------------


def _synthetic_first(final_dx, r_values, dt):
    from fastslow.oracles import FirstOrderTangents

    n_r = final_dx.shape[1]
    return FirstOrderTangents(
        r_indices=np.arange(n_r),
        r_values=np.asarray(r_values, float),
        regime=ScaleRegime(0.01, 0.01, 1.0, float(r_values[-1]) or 1.0),
        dt=dt,
        final_dx=final_dx,
        final_dy=np.zeros_like(final_dx),
        sup_abs_dx=np.abs(final_dx),
        sup_abs_dy=np.zeros_like(final_dx),
    )


def test_hnorm_synthetic_square():
    """final DX = 1 on both channels over [0, 2] gives (int 2 du)^2 = 16."""
    first = _synthetic_first(np.ones((2, 9, 3)), np.linspace(0, 2, 9), 0.25)
    assert hnorm_first(first) == pytest.approx([16.0, 16.0, 16.0])
    with pytest.raises(ValueError):
        hnorm_first(_synthetic_first(np.ones((2, 7, 3)), np.linspace(0, 2, 7), 0.25))


def test_hnorm_grid_refinement_and_order(affine, affine_bundle):
    n = affine_bundle.n_steps
    h16 = hnorm_first(
        first_order_tangents(
            affine, affine_bundle, default_r_grid(n, 16), store_series=False
        )
    )
    h32 = hnorm_first(
        first_order_tangents(
            affine, affine_bundle, default_r_grid(n, 32), store_series=False
        )
    )
    assert np.all(np.abs(h32 - h16) <= 0.05 * np.abs(h32))
    shuffled = list(default_r_grid(n, 16))[::-1]
    again = hnorm_first(
        first_order_tangents(affine, affine_bundle, shuffled, store_series=False)
    )
    assert np.array_equal(h16, again)


def _direct_contraction(final_d2x, nodes):
    """Literal-loop reference for the squared contraction norm."""
    n_r = len(nodes)
    n_paths = final_d2x.shape[-1]
    kern = final_d2x.reshape(2, 2, n_r, n_r, n_paths)
    h = np.diff(nodes)
    w = np.zeros(n_r)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    out = np.zeros(n_paths)
    for p in range(n_paths):
        m = np.zeros((2, 2, n_r, n_r))
        for i in range(2):
            for j in range(2):
                for v in range(n_r):
                    for q in range(n_r):
                        s = 0.0
                        for k in range(2):
                            for u in range(n_r):
                                s += w[u] * kern[i, k, u, v, p] * kern[k, j, u, q, p]
                        m[i, j, v, q] = s
        out[p] = float(np.sum(m**2 * w[None, None, :, None] * w[None, None, None, :]))
    return out


def _synthetic_second(final_d2x, r_idx, dt, combos=ALL_COMBOS):
    pairs = full_pair_grid(r_idx)
    return SecondOrderTangents(
        combos=combos,
        pair_indices=pairs,
        pair_values=pairs * dt,
        regime=ScaleRegime(0.01, 0.01, 1.0, 1.0),
        dt=dt,
        final_d2x=final_d2x,
        final_d2y=np.zeros_like(final_d2x),
        sup_abs_d2x=np.abs(final_d2x),
        sup_abs_d2y=np.zeros_like(final_d2x),
    )


def test_contraction_synthetic_against_direct_loop():
    rng = np.random.default_rng(1)
    r_idx = np.arange(8)
    dt = 0.125
    final = rng.normal(size=(4, 64, 3))
    second = _synthetic_second(final, r_idx, dt)
    got = contraction_norm_second(second)
    expect = _direct_contraction(final, r_idx * dt)
    assert np.allclose(got, expect, rtol=1e-12)
    assert np.all(got >= 0.0)


def test_contraction_zero_for_affine_and_nonnegative(affine, bounded, bounded_bundle):
    r8 = default_r_grid(bounded_bundle.n_steps, 8)
    second = second_order_tangents(bounded, bounded_bundle, full_pair_grid(r8))
    val = contraction_norm_second(second)
    assert np.all(val >= 0.0)
    assert np.any(val > 0.0)


def test_contraction_validation():
    r8 = np.arange(8)
    zeros = np.zeros((4, 64, 2))
    with pytest.raises(ValueError, match="four channel combos"):
        contraction_norm_second(
            _synthetic_second(np.zeros((1, 64, 2)), r8, 0.1, combos=((0, 1),))
        )
    bad_pairs = _synthetic_second(zeros, r8, 0.1)
    trimmed = SecondOrderTangents(
        combos=bad_pairs.combos,
        pair_indices=bad_pairs.pair_indices[:60],
        pair_values=bad_pairs.pair_values[:60],
        regime=bad_pairs.regime,
        dt=0.1,
        final_d2x=zeros[:, :60],
        final_d2y=zeros[:, :60],
        sup_abs_d2x=zeros[:, :60],
        sup_abs_d2y=zeros[:, :60],
    )
    with pytest.raises(ValueError, match="pair grid"):
        contraction_norm_second(trimmed)
    with pytest.raises(ValueError, match="at least 8"):
        contraction_norm_second(
            _synthetic_second(np.zeros((4, 36, 2)), np.arange(6), 0.1)
        )
    reordered = SecondOrderTangents(
        combos=bad_pairs.combos,
        pair_indices=bad_pairs.pair_indices[::-1],
        pair_values=bad_pairs.pair_values[::-1],
        regime=bad_pairs.regime,
        dt=0.1,
        final_d2x=zeros,
        final_d2y=zeros,
        sup_abs_d2x=zeros,
        sup_abs_d2y=zeros,
    )
    with pytest.raises(ValueError, match="row-major"):
        contraction_norm_second(reordered)


# -- moment sweep ------------------------------------------------------


def test_moment_sweep_affine_structure(affine):
    regimes = [
        ScaleRegime(0.1, 0.1, 1.0, 0.5),
        ScaleRegime(0.05, 0.05, 1.0, 0.5),
    ]
    reports = moment_sweep(affine, regimes, 1, 100, seed=3)
    assert set(reports) == set(BOUND_IDS)
    for rep in reports.values():
        assert rep.p == 1
        assert len(rep.points) == 2
        assert [q.epsilon for q in rep.points] == [0.1, 0.05]
        assert rep.points[0].passes  # anchor point passes by construction
        d = rep.to_dict()
        assert d["bound_id"] == rep.bound_id
        assert len(d["points"]) == 2 and "stderr" in d["points"][0]
        mixed = rep.bound_id in ("d2x_w1w2", "d2x_w2w2")
        for q, r, point in zip(rep.points, regimes, d["points"]):
            assert ("separation_realized" in point) == mixed
            if mixed:  # pair_sep_etas = 3: 0.3 reaches before 0 from T/2 = 0.25
                assert q.separation_requested == pytest.approx(3.0 * r.eta)
                assert q.separation_realized == pytest.approx(min(0.25, 3.0 * r.eta))
    # affine second partials vanish: the pure second-order moment is zero
    w1w1 = reports["d2x_w1w1"]
    assert all(q.empirical == 0.0 for q in w1w1.points)
    assert w1w1.C_fit == 0.0 and w1w1.passes
    # envelope formulas (K_hat = 1 for the affine model at p = 1)
    for q, r in zip(reports["dw1_x_sup"].points, regimes):
        assert q.envelope == pytest.approx(r.epsilon)
    for q, r in zip(reports["dw2_x_sup"].points, regimes):
        assert q.envelope == pytest.approx(r.epsilon + r.eta)
    q0 = reports["dw2_y_final"].points[0]
    assert q0.envelope == pytest.approx(
        10.0 * math.exp(-0.25 / 0.1) + 0.1 + 0.1
    )


# -- one tangent pass, over live or stored noise ------------------------


@pytest.mark.parametrize(
    "r_indices, pairs, combos",
    [
        # r1 > r2, r1 < r2 and r1 == r2, on a grid without 0
        ([12, 30, 45], [(30, 12), (12, 30), (30, 30)], ALL_COMBOS),
        # a grid containing 0 and the horizon; one channel combo
        ([0, 12, 30, 60], [(0, 0), (0, 60), (60, 0), (12, 30)], ((1, 1),)),
        # first order only (the dw2_y_final branch of decay_check)
        ([0, 30, 45], None, ALL_COMBOS),
    ],
)
def test_tangent_pass_matches_recorders_bitwise(bounded, r_indices, pairs, combos):
    """The pass on live noise equals, bit for bit, the recorders on the
    stored bundle that simulate_paths draws from the same seed; the
    pass's tangents are the channel-major grid that first_order_tangents
    asks for, and its cells the combo-major product that
    second_order_tangents expands."""
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    n_steps, dt = time_grid(regime.T, regime.eta / 20)
    assert n_steps == 60
    noise = _noise_blocks(4 + (1 << 32), range(6), n_steps, dt)
    tangents = [(j, r) for j in (0, 1) for r in r_indices]
    cells = None if pairs is None else [(a, b, *q) for a, b in combos for q in pairs]
    rows = malliavin_mod._tangent_pass(
        bounded, regime, dt, n_steps, 0.4, 0.3, noise, 6, tangents, cells
    )
    bundle = simulate_paths(bounded, regime, 0.4, 0.3, dt, 6, 4 + (1 << 32))
    ref_first = first_order_tangents(bounded, bundle, r_indices)
    assert ref_first.r_indices.tolist() == r_indices
    for name in FIRST_ROWS:
        got = rows[name].reshape(2, len(r_indices), 6)
        assert np.array_equal(got, getattr(ref_first, name)), name
    if pairs is None:
        assert list(rows) == list(FIRST_ROWS)
        return
    ref_second = second_order_tangents(bounded, bundle, pairs, combos)
    assert ref_second.combos == combos
    assert ref_second.pair_indices.tolist() == [list(q) for q in pairs]
    assert np.any(rows["final_d2x"] != 0.0)
    assert list(rows) == [*FIRST_ROWS, *SECOND_ROWS]
    for name in SECOND_ROWS:
        assert rows[name].shape == (len(cells), 6), name
        expect = getattr(ref_second, name).reshape(len(cells), 6)
        assert np.array_equal(rows[name], expect), name


def _split_pass(tangent_pass, noise_blocks, sizes):
    """The reference for the sweeps' wide pass: one pass per run of
    consecutive global path ids, of the given sizes, each over the noise
    blocks of its own ids, with the runs' arrays joined along the path
    axis.  The pass is handed (seed, path_ids, kwargs) in place of its
    noise: what the sweep asked of ``_noise_blocks``."""

    def run(model, regime, dt, n_steps, x0, y0, noise, n_paths, *args, first_column=0):
        seed, path_ids, kwargs = noise
        edges = np.cumsum([0, *sizes])
        assert edges[-1] == n_paths == len(path_ids)
        parts = [
            tangent_pass(
                model, regime, dt, n_steps, x0, y0,
                noise_blocks(seed, path_ids[lo:hi], n_steps, dt, **kwargs), hi - lo, *args,
                first_column=first_column + lo,
            )
            for lo, hi in zip(edges, edges[1:])
        ]
        return {n: np.concatenate([p[n] for p in parts], -1) for n in parts[0]}

    return run


def test_wide_pass_equals_per_chunk_passes(bounded, monkeypatch):
    """One pass over all paths of a sweep point reports the same floats
    as passes over the noise blocks of the same global path ids split
    into runs of 50, 50 and 30: a path's noise and tangents do not
    depend on the paths that share its pass, and the moments sum over
    all paths at once."""
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    passes = []
    tangent_pass, noise_blocks = malliavin_mod._tangent_pass, malliavin_mod._noise_blocks

    def counted(model, regime, dt, n_steps, x0, y0, noise, n_paths, *args, **kwargs):
        passes.append(n_paths)
        return tangent_pass(model, regime, dt, n_steps, x0, y0, noise, n_paths, *args, **kwargs)

    def run():
        reports = moment_sweep(
            bounded, regimes, 1, 130, seed=5, x0=0.4, y0=0.3,
            pair_sep_etas=2.0, k_hat=1.0,
        )
        decays = [
            decay_check(
                bounded, regimes[-1], bound_id, 1, 130, 6,
                separations_eta=(0.5, 1.0, 2.0), x0=0.4, y0=0.3,
            )
            for bound_id in ("d2x_w1w2", "d2x_w2w2", "dw2_y_final")
        ]
        return [r.to_dict() for r in reports.values()], [d.to_dict() for d in decays]

    monkeypatch.setattr(malliavin_mod, "_tangent_pass", counted)
    wide = run()
    assert passes == [130] * 5  # one pass per regime and per decay check
    passes.clear()
    monkeypatch.setattr(
        malliavin_mod, "_noise_blocks", lambda seed, ids, n_steps, dt, **kw: (seed, ids, kw)
    )
    monkeypatch.setattr(
        malliavin_mod, "_tangent_pass", _split_pass(counted, noise_blocks, (50, 50, 30))
    )
    assert run() == wide
    assert passes == [50, 50, 30] * 5


def test_moment_sweep_and_decay_check_share_no_stream(affine, stream_ids):
    """Under the one seed the CLI gives both, the moment sweep's points
    and the decay check open disjoint sets of streams."""
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.2), ScaleRegime(0.05, 0.05, 1.0, 0.2)]
    moments = stream_ids(lambda: moment_sweep(affine, regimes, 1, 5, seed=4, k_hat=1.0))
    decays = stream_ids(
        lambda: decay_check(affine, regimes[-1], "d2x_w1w2", 1, 5, 4, separations_eta=(1.0,))
    )
    assert len(moments) == len(regimes) * 2 * 5
    assert len(decays) == 2 * 5
    assert not moments & decays


def _scalar_tangents(model, bundle, r_grid, cells):
    """Literal per-path reference for both tangent orders.

    Follows the recursions of the module docstring step by step in
    Python floats, with the one-key coefficient views, along the path of
    a bundle captured at every step.  The first-order series is stored,
    and the second-order initial data of each cell (j1, j2, r1, r2) read
    it at r1 and r2.  Returns the first-order
    (DX, DY) series, shape (2, n_r, n_t, n_paths), and the second-order
    (final D2X, final D2Y, sup |D2X|, sup |D2Y|), each (n_cells, n_paths).
    """
    m = model
    er = math.sqrt(bundle.regime.epsilon)
    hr = math.sqrt(bundle.regime.eta)
    dt, eta, n = bundle.dt, bundle.regime.eta, bundle.n_steps
    n_t, n_paths = n + 1, bundle.n_paths
    DX = np.zeros((2, len(r_grid), n_t, n_paths))
    DY = np.zeros((2, len(r_grid), n_t, n_paths))
    second = np.zeros((4, len(cells), n_paths))
    dW1, dW2 = draw_increments(bundle.master_seed, range(n_paths), n, dt)
    paths = _paths(bundle)
    for p in range(n_paths):
        X, Y = (rows[:, p].tolist() for rows in paths)
        W1, W2 = dW1[:, p].tolist(), dW2[:, p].tolist()
        for i, r in enumerate(r_grid):
            for j in (0, 1):
                dx = er * m.sigma(X[r], Y[r]) if j == 0 else 0.0
                dy = m.tau(X[r], Y[r]) / hr if j == 1 else 0.0
                for k in range(r, n_t):
                    DX[j, i, k, p], DY[j, i, k, p] = dx, dy
                    if k == n:
                        break
                    x, y = X[k], Y[k]
                    dx, dy = (
                        dx
                        + dt * (m.d1_c(x, y) * dx + m.d2_c(x, y) * dy)
                        + er * W1[k] * (m.d1_sigma(x, y) * dx + m.d2_sigma(x, y) * dy),
                        dy
                        + dt / eta * (m.d1_f(x, y) * dx + m.d2_f(x, y) * dy)
                        + W2[k] / hr * (m.d1_tau(x, y) * dx + m.d2_tau(x, y) * dy),
                    )
        for c, (j1, j2, r1, r2) in enumerate(cells):
            i1, i2 = list(r_grid).index(r1), list(r_grid).index(r2)
            DX1, DY1 = DX[j1, i1, :, p], DY[j1, i1, :, p]
            DX2, DY2 = DX[j2, i2, :, p], DY[j2, i2, :, p]
            a1 = a2 = 0.0
            x1, y1, x2, y2 = X[r1], Y[r1], X[r2], Y[r2]
            if j1 == 0:
                a1 += m.d1_sigma(x1, y1) * DX2[r1] + m.d2_sigma(x1, y1) * DY2[r1]
            if j2 == 0:
                a1 += m.d1_sigma(x2, y2) * DX1[r2] + m.d2_sigma(x2, y2) * DY1[r2]
            if j1 == 1:
                a2 += m.d1_tau(x1, y1) * DX2[r1] + m.d2_tau(x1, y1) * DY2[r1]
            if j2 == 1:
                a2 += m.d1_tau(x2, y2) * DX1[r2] + m.d2_tau(x2, y2) * DY1[r2]
            d2x, d2y = er * a1, a2 / hr
            sup_x, sup_y = abs(d2x), abs(d2y)
            for k in range(max(r1, r2), n):
                x, y = X[k], Y[k]

                def source(g):
                    d11, d12, d22 = (
                        getattr(m, f"{d}_{g}")(x, y) for d in ("d11", "d12", "d22")
                    )
                    return (
                        d11 * DX1[k] * DX2[k]
                        + d12 * (DX1[k] * DY2[k] + DY1[k] * DX2[k])
                        + d22 * DY1[k] * DY2[k]
                    )

                d2x, d2y = (
                    d2x
                    + dt * (m.d1_c(x, y) * d2x + m.d2_c(x, y) * d2y + source("c"))
                    + er * W1[k] * (
                        m.d1_sigma(x, y) * d2x + m.d2_sigma(x, y) * d2y + source("sigma")
                    ),
                    d2y
                    + dt / eta * (m.d1_f(x, y) * d2x + m.d2_f(x, y) * d2y + source("f"))
                    + W2[k] / hr * (
                        m.d1_tau(x, y) * d2x + m.d2_tau(x, y) * d2y + source("tau")
                    ),
                )
                sup_x, sup_y = max(sup_x, abs(d2x)), max(sup_y, abs(d2y))
            second[:, c, p] = d2x, d2y, sup_x, sup_y
    return DX, DY, second


def test_recorders_match_scalar_reference(bounded, bounded_bundle):
    """Both recorders against the literal per-path recursions, on a grid
    with 0 and the horizon, pairs with r1 > r2, r1 < r2 and r1 == r2,
    and all four channel combos."""
    n = bounded_bundle.n_steps
    r_grid = [0, 12, 30, n]
    pairs = [(30, 12), (12, 30), (30, 30), (0, n), (n, n)]
    cells = [(a, b, *q) for a, b in ALL_COMBOS for q in pairs]
    DX, DY, ref = _scalar_tangents(bounded, bounded_bundle, r_grid, cells)
    ref = ref.reshape(4, len(ALL_COMBOS), len(pairs), bounded_bundle.n_paths)
    first = first_order_tangents(bounded, bounded_bundle, r_grid)
    np.testing.assert_allclose(first.DX, DX, rtol=1e-12, atol=0)
    np.testing.assert_allclose(first.DY, DY, rtol=1e-12, atol=0)
    np.testing.assert_allclose(first.final_dx, DX[:, :, -1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(first.final_dy, DY[:, :, -1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(first.sup_abs_dx, np.abs(DX).max(axis=2), rtol=1e-12, atol=0)
    np.testing.assert_allclose(first.sup_abs_dy, np.abs(DY).max(axis=2), rtol=1e-12, atol=0)
    second = second_order_tangents(bounded, bounded_bundle, pairs)
    got = (second.final_d2x, second.final_d2y, second.sup_abs_d2x, second.sup_abs_d2y)
    for name, value, expect in zip(("final_d2x", "final_d2y", "sup_x", "sup_y"), got, ref):
        np.testing.assert_allclose(value, expect, rtol=1e-12, atol=0, err_msg=name)
    assert np.all(np.any(ref[0] != 0.0, axis=(1, 2)))  # every combo moves


def test_cell_list_that_is_not_a_product(bounded, bounded_bundle):
    """A cell list that no combos x pairs product gives: mixed channel
    pairs, r1 > r2, r1 < r2 and r1 == r2, cells at r = 0 and at the
    horizon, and one repeated cell.  The stored-row pass matches the
    literal recursions, and the pass on live noise matches it bit for bit."""
    n = bounded_bundle.n_steps
    cells = [
        (0, 1, 30, 12),
        (1, 0, 12, 30),
        (1, 1, 30, 30),
        (0, 0, 0, n),
        (0, 1, n, 0),
        (1, 1, 0, 0),
        (0, 1, 30, 12),
    ]
    _, _, ref = _scalar_tangents(bounded, bounded_bundle, [0, 12, 30, n], cells)
    stored = oracles_mod._bundle_pass(bounded, bounded_bundle, (), cells)
    for name, expect in zip(SECOND_ROWS, ref):
        assert stored[name].shape == (len(cells), bounded_bundle.n_paths)
        np.testing.assert_allclose(stored[name], expect, rtol=1e-12, atol=0, err_msg=name)
        assert np.array_equal(stored[name][0], stored[name][-1]), name
    assert np.all(np.any(ref[:2] != 0.0, axis=(0, 2)))  # every cell moves

    noise = _noise_blocks(42, range(bounded_bundle.n_paths), n, bounded_bundle.dt)
    live = malliavin_mod._tangent_pass(
        bounded, bounded_bundle.regime, bounded_bundle.dt, n, 0.1, -0.2, noise,
        bounded_bundle.n_paths, (), cells,
    )
    assert list(live) == list(stored)
    for name in stored:
        assert np.array_equal(live[name], stored[name]), name


def test_bundle_functions_read_only_the_increments(bounded, bounded_bundle):
    """The bundle functions replay the increments, redrawn from the
    bundle's streams, from its initial state: a bundle that captures no
    step gives the tangents and Q1, Q2 of one captured at every step,
    bit for bit."""
    regime = bounded_bundle.regime
    shared = (bounded, regime, 0.1, -0.2, regime.eta / 20, 4, 42)
    light = simulate_paths(*shared)
    assert light.captures == {}
    assert len(bounded_bundle.captures) == bounded_bundle.n_steps + 1
    n = bounded_bundle.n_steps
    r_grid, pairs = [0, 12, 30, n], [(30, 12), (12, 30), (0, n)]
    got, ref = (first_order_tangents(bounded, b, r_grid) for b in (light, bounded_bundle))
    for name in ("DX", "DY", "final_dx", "final_dy", "sup_abs_dx", "sup_abs_dy"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    got, ref = (second_order_tangents(bounded, b, pairs) for b in (light, bounded_bundle))
    assert np.any(ref.final_d2x != 0.0)
    for name in ("final_d2x", "final_d2y", "sup_abs_d2x", "sup_abs_d2y"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    q_light, q_ref = (q_decomposition(bounded, b, 12) for b in (light, bounded_bundle))
    for got, ref in zip(q_light, q_ref):
        assert np.array_equal(got, ref)


def test_bundle_tangents_replay_the_bundle_point(bounded):
    """A bundle keeps the stream point its paths drew from: the tangents
    of a point-3 bundle are those of the pass over the point-3 streams,
    and differ from those of the point-0 bundle of the same seed."""
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    shared = (bounded, regime, 0.4, 0.3, regime.eta / 20, 5, 11)
    at_3 = simulate_paths(*shared, _point=3)
    at_0 = simulate_paths(*shared)
    assert (at_3.point, at_0.point) == (3, 0)
    r_grid = [0, 12, 30]
    got = first_order_tangents(bounded, at_3, r_grid, store_series=False)
    noise = _noise_blocks(11, range(5), at_3.n_steps, at_3.dt, point=3)
    rows = malliavin_mod._tangent_pass(
        bounded, regime, at_3.dt, at_3.n_steps, 0.4, 0.3, noise, 5,
        [(j, r) for j in (0, 1) for r in r_grid],
    )
    for name in FIRST_ROWS:
        ref = rows[name].reshape(2, len(r_grid), 5)
        assert np.array_equal(getattr(got, name), ref), name
    other = first_order_tangents(bounded, at_0, r_grid, store_series=False)
    assert not np.array_equal(got.final_dx, other.final_dx)


@pytest.mark.parametrize("combo", [(-1, 0), (0.5, 0), (2, 0)])
def test_channels_other_than_0_or_1_are_rejected(bounded, bounded_bundle, combo):
    """A channel must be the integer 0 (W1) or 1 (W2): neither labelled
    nor truncated nor left to an IndexError, and rejected before any
    noise block is read."""

    def no_noise():
        raise AssertionError("a noise block was read")
        yield

    with pytest.raises(ValueError, match=r"cell \(.*\) has a channel other than 0 or 1"):
        second_order_tangents(bounded, bounded_bundle, [(12, 30)], combos=(combo,))
    with pytest.raises(ValueError, match="has a channel other than 0 or 1"):
        malliavin_mod._tangent_pass(
            bounded, bounded_bundle.regime, bounded_bundle.dt, bounded_bundle.n_steps,
            0.1, -0.2, no_noise(), bounded_bundle.n_paths, (),
            [(0, 1, 30, 12), (*combo, 30, 30)],
        )


def test_sweeps_request_only_the_cells_they_read(bounded, monkeypatch):
    """moment_sweep hands the pass exactly the tangents and the 3 cells its
    bounds read; with the cells' factors the pass holds 7 tangents, and
    it steps only the started ones and 3 cells per step.  decay_check
    hands it the W2 tangent at each r for dw2_y_final and otherwise one
    cell per separation and no tangent."""
    requested, first_rows, second_rows = [], set(), set()
    tangent_pass = malliavin_mod._tangent_pass
    first_step, second_step = malliavin_mod._first_step, malliavin_mod._second_step

    def spy_pass(
        model, regime, dt, n_steps, x0, y0, noise, n_paths, tangents, cells=None, **kwargs
    ):
        requested.append(
            ([tuple(t) for t in tangents], None if cells is None else [tuple(c) for c in cells])
        )
        return tangent_pass(
            model, regime, dt, n_steps, x0, y0, noise, n_paths, tangents, cells, **kwargs
        )

    def spy_first(d, dx, *args):
        first_rows.add(dx.shape[0])
        return first_step(d, dx, *args)

    def spy_second(p, d2x, *args):
        second_rows.add(d2x.shape[0])
        return second_step(p, d2x, *args)

    monkeypatch.setattr(malliavin_mod, "_tangent_pass", spy_pass)
    monkeypatch.setattr(malliavin_mod, "_first_step", spy_first)
    monkeypatch.setattr(malliavin_mod, "_second_step", spy_second)
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    moment_sweep(bounded, regimes, 1, 5, seed=5, pair_sep_etas=2.0, k_hat=1.0)
    # T/2 is step 30 of 60 and step 60 of 120; 2 eta back is 40 steps on the
    # first grid (clamped to 0) and 40 steps on the second.  The r-selection
    # is T/4, T/2, 3T/4.
    assert requested == [
        (
            [(0, 15), (0, 30), (0, 45), (1, 15), (1, 30), (1, 45), (1, 30)],
            [(0, 0, 30, 30), (0, 1, 30, 0), (1, 1, 30, 0)],
        ),
        (
            [(0, 30), (0, 60), (0, 90), (1, 30), (1, 60), (1, 90), (1, 60)],
            [(0, 0, 60, 60), (0, 1, 60, 20), (1, 1, 60, 20)],
        ),
    ]
    # (W2, r_lo) first, then both channels at each selected r.
    assert first_rows == {1, 3, 5, 7}
    assert second_rows == {3}
    requested.clear()
    for bound_id in ("d2x_w1w2", "d2x_w2w2", "dw2_y_final"):
        decay_check(bounded, regimes[-1], bound_id, 1, 5, 6, separations_eta=(0.5, 2.0))
    assert requested == [
        ([], [(0, 1, 60, 50), (0, 1, 60, 20)]),
        ([], [(1, 1, 60, 50), (1, 1, 60, 20)]),
        ([(1, 110), (1, 80)], None),
    ]


def test_tangent_subset_equals_full_grid_and_starts_late(bounded, bounded_bundle, monkeypatch):
    """A pass asked for some (channel, r) tangents, unsorted and with a
    repeat, returns them bit for bit as the pass asked for the full grid
    does, in the order asked; its cells match too.  No tangent and no
    cell is stepped before its own start: each step advances exactly
    the rows started by then."""
    n = bounded_bundle.n_steps
    full = [(j, r) for j in (0, 1) for r in (0, 12, 30, n)]
    subset = [(1, 30), (0, 12), (1, n), (1, 30)]
    cells = [(0, 1, n, 0), (0, 1, 30, 12)]
    ref = oracles_mod._bundle_pass(bounded, bounded_bundle, full, cells)

    steps = []
    first_step, second_step = malliavin_mod._first_step, malliavin_mod._second_step

    def spy_first(d, dx, dy, w1, w2, s, k, tangents):
        steps.append(("first", k, dx.shape[0]))
        return first_step(d, dx, dy, w1, w2, s, k, tangents)

    def spy_second(p, d2x, d2y, factors, w1, w2, s, k, cells):
        steps.append(("second", k, d2x.shape[0]))
        return second_step(p, d2x, d2y, factors, w1, w2, s, k, cells)

    monkeypatch.setattr(malliavin_mod, "_first_step", spy_first)
    monkeypatch.setattr(malliavin_mod, "_second_step", spy_second)
    got = oracles_mod._bundle_pass(bounded, bounded_bundle, subset, cells)
    rows = [full.index(t) for t in subset]
    for name in FIRST_ROWS:
        assert got[name].shape == (len(subset), bounded_bundle.n_paths)
        assert np.array_equal(got[name], ref[name][rows]), name
    for name in SECOND_ROWS:
        assert np.array_equal(got[name], ref[name]), name
    assert np.all(np.any((got["final_d2x"] != 0.0) | (got["final_d2y"] != 0.0), axis=1))

    # Held: (W2, 0); (W1, 12), (W2, 12); (W1, 30), (W2, 30); (W1, n), (W2, n).
    started = [1 if k < 12 else 3 if k < 30 else 5 for k in range(n)]
    assert [c for kind, _, c in steps if kind == "first"] == started
    assert [k for kind, k, _ in steps if kind == "first"] == list(range(n))
    # The cell (W1, W2, 30, 12) from step 30; (W1, W2, n, 0) is never stepped.
    assert [(k, c) for kind, k, c in steps if kind == "second"] == [
        (k, 1) for k in range(30, n)
    ]


def test_second_order_blow_up_names_the_cell(bounded):
    s = _StepScales.of(ScaleRegime(0.05, 0.05, 1.0, 0.15), 0.0025)
    ones, w = np.ones((2, 3)), np.zeros(3)
    d2x = ones.copy()
    d2x[1, 2] = np.inf  # only the second cell blows up
    match = r"step 8 \(cell \(j1, j2, r1, r2\) = \(1, 1, 5, 2\)\)"
    with pytest.raises(TangentBlowUpError, match=match), np.errstate(invalid="ignore"):
        malliavin_mod._second_step(
            [ones] * 20, d2x, ones, (ones,) * 4, w, w, s, 7, [[0, 1, 5, 2], [1, 1, 5, 2]]
        )


# -- the sweep pass does only the work its reports read -----------------

#: The partials of bounded-coupled that are identically zero: tau is the
#: constant sqrt(2), c and f are sums of a function of x and one of y.
BOUNDED_ZERO_PARTIALS = frozenset(
    {"d12_c", "d12_f", "d22_f", "d1_tau", "d2_tau", "d11_tau", "d12_tau", "d22_tau"}
)


def test_second_order_blow_up_names_the_cell_without_zero_terms():
    """With the identically zero partials of bounded-coupled passed as
    None, the blow-up still names the step and the cell."""
    s = _StepScales.of(ScaleRegime(0.05, 0.05, 1.0, 0.15), 0.0025)
    ones, w = np.ones((2, 3)), np.zeros(3)
    d2x = ones.copy()
    d2x[1, 2] = np.inf  # only the second cell blows up
    p = [None if key in BOUNDED_ZERO_PARTIALS else ones for key in malliavin_mod._PARTIAL_KEYS]
    match = r"step 8 \(cell \(j1, j2, r1, r2\) = \(1, 1, 5, 2\)\)"
    with pytest.raises(TangentBlowUpError, match=match), np.errstate(invalid="ignore"):
        malliavin_mod._second_step(
            p, d2x, ones, (ones,) * 4, w, w, s, 7, [[0, 1, 5, 2], [1, 1, 5, 2]]
        )


def test_first_order_blow_up_names_the_tangent_without_zero_terms():
    s = _StepScales.of(ScaleRegime(0.05, 0.05, 1.0, 0.15), 0.0025)
    ones, w = np.ones((2, 3)), np.ones(3)
    dx = ones.copy()
    dx[1, 0] = np.inf
    d = [ones, ones, ones, ones, ones, ones, None, None]  # no tau partial
    with pytest.raises(TangentBlowUpError, match=r"step 5 \(channel W2, r-index 3\)"):
        malliavin_mod._first_step(d, dx, ones.copy(), w, w, s, 4, [(0, 3), (1, 3)])


def _unfolded_first_step(d, dx, dy, w1, w2, s, k, tangents):
    """The first-order step with every term (the reference)."""
    d1c, d2c, d1s, d2s, d1f, d2f, d1t, d2t = d
    drift_x = (d1c * dx + d2c * dy) * s.dt
    noise_x = s.eps_root * (d1s * dx + d2s * dy) * w1
    drift_y = (d1f * dx + d2f * dy) * (s.dt / s.eta)
    noise_y = (d1t * dx + d2t * dy) * (w2 / s.eta_root)
    dx += drift_x
    dx += noise_x
    dy += drift_y
    dy += noise_y


def _unfolded_second_step(p, d2x, d2y, factors, w1, w2, s, k, cells):
    """The second-order step with every term (the reference)."""
    DX1, DY1, DX2, DY2 = factors
    cross = DX1 * DY2 + DY1 * DX2
    both_x = DX1 * DX2
    both_y = DY1 * DY2
    (
        d1c, d2c, d11c, d12c, d22c,
        d1s, d2s, d11s, d12s, d22s,
        d1f, d2f, d11f, d12f, d22f,
        d1t, d2t, d11t, d12t, d22t,
    ) = p
    b1c = d11c * both_x + d12c * cross + d22c * both_y + d2c * d2y
    b1s = d11s * both_x + d12s * cross + d22s * both_y + d2s * d2y
    b2f = d11f * both_x + d12f * cross + d22f * both_y + d1f * d2x
    b2t = d11t * both_x + d12t * cross + d22t * both_y + d1t * d2x
    drift_x = (d1c * d2x + b1c) * s.dt
    noise_x = s.eps_root * (d1s * d2x + b1s) * w1
    drift_y = (d2f * d2y + b2f) * (s.dt / s.eta)
    noise_y = (d2t * d2y + b2t) * (w2 / s.eta_root)
    d2x += drift_x
    d2x += noise_x
    d2y += drift_y
    d2y += noise_y


@pytest.fixture
def unfolded(monkeypatch):
    """``unfolded()`` puts the sweep pass in its reference form: every
    Euler-Maruyama step evaluates all 24 keys, both tangent steps run
    every term, and the noise comes in 3 blocks from streams kept open,
    for the sweeps and for :func:`fastslow.oracles._bundle_pass`.  It
    returns a list that gets, for each noise stream drawn, the number of
    blocks it yielded."""
    em_states, noise_blocks = malliavin_mod._em_states, malliavin_mod._noise_blocks
    drawn = []

    def all_keys_from_step_0(*args, keys_from, **kwargs):
        return em_states(*args, keys_from=0, **kwargs)

    def counted(blocks):
        drawn.append(0)
        for block in blocks:
            drawn[-1] += 1
            yield block

    def three_blocks(seed, path_ids, n_steps, dt, **kwargs):
        return counted(noise_blocks(seed, path_ids, n_steps, dt, -(-n_steps // 3), **kwargs))

    def apply():
        monkeypatch.setattr(malliavin_mod, "_em_states", all_keys_from_step_0)
        monkeypatch.setattr(malliavin_mod, "_noise_blocks", three_blocks)
        monkeypatch.setattr(oracles_mod, "_noise_blocks", three_blocks)
        monkeypatch.setattr(malliavin_mod, "_zero_partials", lambda model: frozenset())
        monkeypatch.setattr(malliavin_mod, "_first_step", _unfolded_first_step)
        monkeypatch.setattr(malliavin_mod, "_second_step", _unfolded_second_step)
        return drawn

    return apply


def _sweeps(model, p=1):
    """The moment sweep and the three decay checks at moment order ``p``,
    as reported."""
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    reports = moment_sweep(
        model, regimes, p, 30, seed=5, x0=0.4, y0=0.3, pair_sep_etas=2.0, k_hat=1.0,
    )
    decays = [
        decay_check(
            model, regimes[-1], bound_id, p, 30, 6,
            separations_eta=(0.5, 1.0, 2.0), x0=0.4, y0=0.3,
        )
        for bound_id in ("d2x_w1w2", "d2x_w2w2", "dw2_y_final")
    ]
    return [r.to_dict() for r in reports.values()], [d.to_dict() for d in decays]


@pytest.mark.parametrize("fixture", ["bounded", "trig"])
def test_sweeps_equal_the_unfolded_reference(fixture, request, unfolded):
    """The moment sweep and all three decay bounds report the same floats
    as the reference that evaluates all 24 keys from step 0, runs every
    term of both tangent steps and draws its noise from open streams, on
    a model with 8 identically zero partials and on one whose tau and
    all its partials vary (only d12_f is 0)."""
    model = request.getfixturevalue(fixture)
    zero = malliavin_mod._zero_partials(model)
    assert zero == (BOUNDED_ZERO_PARTIALS if fixture == "bounded" else {"d12_f"})
    fast = _sweeps(model)
    unfolded()
    assert _sweeps(model) == fast


@pytest.mark.parametrize(
    "weights, parts, ranges",
    [
        ([100, 200, 400, 800], 2, [(0, 3), (3, 4)]),  # the malliavin_sweep regimes
        ([100, 200, 400, 800], 3, [(0, 2), (2, 3), (3, 4)]),
        ([60, 120], 2, [(0, 1), (1, 2)]),
        ([5, 5, 5, 5], 2, [(0, 2), (2, 4)]),
        ([1, 9, 1], 3, [(0, 1), (1, 2), (2, 3)]),
        ([9, 1, 1, 1], 2, [(0, 1), (1, 4)]),
        ([3, 3, 3], 1, [(0, 3)]),
    ],
)
def test_balanced_ranges_rule(weights, parts, ranges):
    """Whole passes are cut into contiguous, non-empty ranges whose largest
    summed n_steps is the least possible."""
    got = malliavin_mod._balanced_ranges(weights, parts)
    assert [(r.start, r.stop) for r in got] == ranges


@pytest.mark.parametrize("workers", [2, 3])
def test_sweeps_on_workers_equal_the_run_in_process(
    bounded, force_workers, starts, all_joined, workers
):
    """At p = 1 and p = 2, the moment sweep and the three decay checks
    report the same floats (``to_dict``) on forked workers as in process:
    on 2 workers the sweep's two regimes run as whole units, on 3 each
    regime runs on shares of 10 paths, and each decay check runs its one
    pass on shares of the paths.  Each call starts ``workers`` workers and
    leaves none."""
    force_workers(1)
    in_process = [_sweeps(bounded, p) for p in (1, 2)]
    assert starts == []
    force_workers(workers)
    assert [_sweeps(bounded, p) for p in (1, 2)] == in_process
    assert len(starts) == 2 * 4 * workers
    assert all_joined()


def test_forked_sweep_compiles_its_kernels_in_the_parent(force_workers, starts, all_joined):
    """Before a moment sweep forks, this process compiles the 4-key EM
    kernel and the 24-key kernel that its passes run, so the workers
    inherit them rather than each compiling and discarding its own."""
    model = model_from_expressions("fresh", "-x + 0.5*cos(y)", "1", "-y", "sqrt(2)")
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    force_workers(2)
    moment_sweep(model, regimes, 1, 20, seed=5, k_hat=1.0)
    assert len(starts) == 2
    assert all_joined()
    assert {EM_KEYS, COEFFICIENT_KEYS} <= set(model.table._kernels)


def _leaves(obj) -> list:
    """The values held in nested dicts, lists and tuples."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in _leaves(item)]
    return [obj]


def test_workers_reply_with_moments_or_with_their_share_of_rows(
    bounded, monkeypatch, starts, all_joined
):
    """With ``_workers`` forced to 2, the moment sweep of two regimes runs
    whole regimes: each worker finishes its regime and replies with its
    means and standard errors, Python floats only.  The moment sweep of
    one regime and each decay check run on two shares of 15 paths: each
    worker replies with its share's rows, which this process joins and
    then finishes.  Every report equals the in-process one exactly."""
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]

    def run_all():
        sweeps = _sweeps(bounded, 2)
        one_regime = moment_sweep(
            bounded, regimes[1:], 2, 30, seed=5, x0=0.4, y0=0.3, k_hat=1.0
        )
        return sweeps, {b: r.to_dict() for b, r in one_regime.items()}

    in_process = run_all()
    assert starts == []
    replies = []
    run_shares = malliavin_mod._run_shares

    def spy(run, shares, unit="paths"):
        parts = run_shares(run, shares, unit)
        replies.append((unit, parts))
        return parts

    monkeypatch.setattr(malliavin_mod, "_workers", lambda path_steps: 2)
    monkeypatch.setattr(malliavin_mod, "_run_shares", spy)
    assert run_all() == in_process
    assert len(starts) == 2 * 5
    assert all_joined()
    assert [unit for unit, _ in replies] == ["regimes", "paths", "paths", "paths", "paths"]
    whole = _leaves(replies[0][1])
    assert len(whole) == 2 * len(BOUND_IDS) * 2  # (mean, stderr) per regime and bound
    assert all(type(v) is float for v in whole)
    for _, parts in replies[1:]:
        rows = _leaves(parts)
        assert rows and all(isinstance(v, np.ndarray) and v.shape[-1] == 15 for v in rows)


def test_workers_of_a_path_share_reply_with_the_rows_finish_reads(
    bounded, monkeypatch, starts, all_joined
):
    """A pass split by paths replies with only the row kinds that its
    sweep's finish reads: a moment sweep of one regime with sup_abs_dx,
    final_dy and final_d2x, a decay check of a mixed bound with final_d2x,
    of dw2_y_final with final_dy and of both with both.  The reports are
    the in-process ones."""
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.3)
    decay = dict(separations_eta=(0.5, 2.0), x0=0.4, y0=0.3)

    def run_all():
        moments = moment_sweep(bounded, [regime], 1, 30, seed=5, k_hat=1.0)
        decays = [
            malliavin_mod._decay_reports(bounded, regime, bounds, 1, 30, 6, **decay)
            for bounds in (["d2x_w1w2"], ["dw2_y_final"], ["dw2_y_final", "d2x_w2w2"])
        ]
        return moments, decays

    in_process = run_all()
    replies = []
    run_shares = malliavin_mod._run_shares

    def spy(run, shares, unit="paths"):
        parts = run_shares(run, shares, unit)
        replies.append([sorted(rows) for part in parts for rows in part])
        return parts

    monkeypatch.setattr(malliavin_mod, "_workers", lambda path_steps: 2)
    monkeypatch.setattr(malliavin_mod, "_run_shares", spy)
    assert run_all() == in_process
    assert len(starts) == 2 * 4
    assert all_joined()
    assert replies == [
        [["final_d2x", "final_dy", "sup_abs_dx"]] * 2,
        [["final_d2x"]] * 2,
        [["final_dy"]] * 2,
        [["final_d2x", "final_dy"]] * 2,
    ]


def test_one_pass_serves_every_order_and_every_bound(bounded, monkeypatch):
    """``_moment_reports`` at p = 1 and 2 equals ``moment_sweep`` at each
    order, and ``_decay_reports`` of the three decay bounds equals each
    bound's ``decay_check``, field for field.  The two helpers run one
    ``_sweep_passes`` call each, and check_assumptions still runs once
    per order."""
    calls, checked = [], []
    sweep_passes, check = malliavin_mod._sweep_passes, malliavin_mod.check_assumptions

    def counting(model, passes, *args):
        calls.append(len(passes))
        return sweep_passes(model, passes, *args)

    def checking(model, *args):
        checked.append(args[-1])
        return check(model, *args)

    monkeypatch.setattr(malliavin_mod, "_sweep_passes", counting)
    monkeypatch.setattr(malliavin_mod, "check_assumptions", checking)
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    start = dict(x0=0.4, y0=0.3)
    bounds = ["d2x_w1w2", "d2x_w2w2", "dw2_y_final"]
    seps = (0.0, 0.5, 2.0)
    by_order = malliavin_mod._moment_reports(
        bounded, regimes, [1, 2], 30, seed=5, pair_sep_etas=2.0, **start
    )
    decays = malliavin_mod._decay_reports(
        bounded, regimes[-1], bounds, 2, 30, 6, separations_eta=seps, **start
    )
    assert calls == [2, 1]
    assert checked == [1, 2]
    for p in (1, 2):
        assert by_order[p] == moment_sweep(
            bounded, regimes, p, 30, seed=5, pair_sep_etas=2.0, **start
        )
    assert list(decays) == bounds
    for bound_id in bounds:
        assert decays[bound_id] == decay_check(
            bounded, regimes[-1], bound_id, 2, 30, 6, separations_eta=seps, **start
        )
    assert len(calls) == 2 + 2 + 3


_POISONED = ("poisoned", "y - 2*x", "1", "x - y")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_regime_is_raised(force_workers, poison, starts, all_joined, workers):
    """When both regimes of a moment sweep blow up, the earlier regime's
    error is raised although the later one fails at an earlier step, as
    in process: on 2 workers (one regime each) and on 3, where path 3 of
    regime 0 fails in the first share of paths and path 17 of regime 1
    in the second.  No worker is left."""
    model = model_from_expressions(*_POISONED, "sqrt(2)")
    poison(malliavin_mod, {3: (0, 40, math.inf)}, point=1)
    poison(malliavin_mod, {17: (0, 0, math.inf)}, point=2)
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    force_workers(workers)
    with pytest.raises(BlowUpError, match=r"at step 41 \(path column 3\)"):
        moment_sweep(model, regimes, 1, 30, seed=5, k_hat=1.0)
    assert len(starts) == (0 if workers == 1 else workers)
    assert all_joined()


@pytest.mark.parametrize(
    "tau, channel, value, error, message",
    [
        ("sqrt(2)", 0, math.inf, BlowUpError, r"non-finite state at step 1 \(path column 37\)"),
        (
            "exp(-y^2)", 1, 1e3, ModelEvaluationError,
            r"tau degenerates at step 1 \(path column 37\)",
        ),
    ],
)
def test_decay_check_names_the_global_path_in_a_later_share(
    force_workers, poison, starts, all_joined, tau, channel, value, error, message
):
    """A blow-up or a degenerate tau of path 37, in the second of two
    shares of 25 paths of a decay check, names the path by its id, not by
    its column 12 in the share, in process and on two workers.  Step 0 of
    the path's noise on one channel is set to ``value``; the tangents
    start at step 20, so the error comes from the Euler-Maruyama step."""
    model = model_from_expressions(*_POISONED, tau)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.3)
    poison(malliavin_mod, {37: (channel, 0, value)})
    for workers in (1, 2):
        force_workers(workers)
        with np.errstate(invalid="ignore"), pytest.raises(error, match=message):
            decay_check(model, regime, "d2x_w1w2", 1, 50, 6, separations_eta=(0.5, 2.0))
        assert all_joined()
    assert [proc.exitcode for proc in starts] == [0, 0]


def test_sweep_pass_evaluates_em_keys_before_the_first_start(bounded, monkeypatch):
    """Each sweep pass makes one kernel call per step: of the 4 EM keys
    before its first start (the smallest r of its tangents and cell
    factors) and of all 24 keys from it.  The horizon state costs a call
    only where a tangent starts there: the W2 tangent of dw2_y_final at
    separation 0, which then reads its injection D_T^{W2} Y_T =
    tau / sqrt(eta) = sqrt(2 / eta) from that call."""
    calls = []
    evaluate = CoefficientTable.evaluate

    def counting(self, x, y, keys):
        calls.append(tuple(keys))
        return evaluate(self, x, y, keys)

    def schedule(first_at, n_steps, horizon=False):
        return [EM_KEYS] * first_at + [COEFFICIENT_KEYS] * (n_steps - first_at + horizon)

    monkeypatch.setattr(CoefficientTable, "evaluate", counting)
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    moment_sweep(bounded, regimes, 1, 5, seed=5, pair_sep_etas=2.0, k_hat=1.0)
    # Regime 0 (60 steps) holds the cells' factor (W2, 0); regime 1 (120
    # steps) starts at r_lo = 60 - 40 before the selection's 30.
    assert calls == schedule(0, 60) + schedule(20, 120)
    for bound_id, first_at in (("d2x_w1w2", 20), ("d2x_w2w2", 20), ("dw2_y_final", 80)):
        calls.clear()
        decay_check(bounded, regimes[-1], bound_id, 1, 5, 6, separations_eta=(0.5, 2.0))
        assert calls == schedule(first_at, 120), bound_id
    calls.clear()
    report = decay_check(
        bounded, regimes[-1], "dw2_y_final", 1, 5, 6, separations_eta=(0.0, 2.0)
    )
    assert calls == schedule(80, 120, horizon=True)
    assert report.empirical[0] == pytest.approx(2.0 / regimes[-1].eta, rel=1e-12)


def test_partial_vanishing_at_some_states_is_kept(monkeypatch, unfolded):
    """Only a partial whose expression is the constant 0 is left out: on
    a path started at x = 0, d1_c = sin(x) and d11_f = -0.5 sin(x) are
    exact zeros at step 0, yet the steps read them as arrays, and the
    tangents equal the unfolded reference."""
    model = model_from_expressions("sine", "y - cos(x)", "1", "0.5*sin(x) - y", "sqrt(2)")
    zero = malliavin_mod._zero_partials(model)
    assert {"d1_c", "d11_c", "d1_f", "d11_f"}.isdisjoint(zero)
    assert {"d12_c", "d22_c", "d1_sigma", "d12_f", "d22_f", "d2_tau"} <= zero
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    bundle = simulate_paths(model, regime, 0.0, 0.3, regime.eta / 20, 5, 3)
    tangents, cells = [(0, 0), (1, 0), (1, 20)], [(0, 1, 0, 0), (1, 1, 20, 0)]
    read = {}
    first_step, second_step = malliavin_mod._first_step, malliavin_mod._second_step

    def spy_first(d, *rest):
        read.setdefault("first", (d[0], rest[5]))
        return first_step(d, *rest)

    def spy_second(p, *rest):
        read.setdefault("second", (p[malliavin_mod._PARTIAL_KEYS.index("d11_f")], rest[6]))
        return second_step(p, *rest)

    monkeypatch.setattr(malliavin_mod, "_first_step", spy_first)
    monkeypatch.setattr(malliavin_mod, "_second_step", spy_second)
    got = oracles_mod._bundle_pass(model, bundle, tangents, cells)
    for name in ("first", "second"):
        value, k = read[name]
        assert k == 0 and isinstance(value, np.ndarray) and np.all(value == 0.0), name
    drawn = unfolded()
    ref = oracles_mod._bundle_pass(model, bundle, tangents, cells)
    assert drawn == [3]
    assert list(got) == list(ref)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name


@pytest.mark.parametrize("fixture", ["bounded", "trig"])
def test_q_decomposition_evaluates_once_per_read_row(fixture, request, monkeypatch):
    """q_decomposition reads tau at r and the fast partials from the
    pass's values.  Replaying the bundle's increments, the pass makes one
    kernel call per state, of the 4 EM keys before r and of all 24 keys
    from r up to the horizon, which costs none, each on the captured row
    bit for bit; and Q1,
    Q2 equal, bit for bit, the recursion run on its own kernel calls
    over the stored first-order series."""
    model = request.getfixturevalue(fixture)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    dt = regime.eta / 20
    bundle = simulate_paths(
        model, regime, 0.4, 0.3, dt, 5, 8, capture_indices=_every_step(regime, dt)
    )
    n, r, dt, eta_root = bundle.n_steps, 12, bundle.dt, math.sqrt(regime.eta)
    X, Y = _paths(bundle)
    dxw2 = first_order_tangents(model, bundle, [r]).DX[1, 0]
    _, dW2 = draw_increments(bundle.master_seed, range(5), n, dt)
    (tau_r,) = model.evaluate(X[r], Y[r], ("tau",))
    q1, q2 = np.zeros((2, n + 1, 5))
    q1[r] = tau_r / eta_root
    zm, q2_state = np.ones(5), np.zeros(5)
    for k in range(r, n):
        d1f, d2f, d1t, d2t = model.evaluate(X[k], Y[k], ("d1_f", "d2_f", "d1_tau", "d2_tau"))
        a = 1.0 + d2f * (dt / regime.eta) + d2t * (dW2[k] / eta_root)
        g = d1f * dxw2[k] * (dt / regime.eta) + d1t * dxw2[k] * (dW2[k] / eta_root)
        zm = a * zm
        q2_state = a * q2_state + g
        q1[k + 1] = zm * (tau_r / eta_root)
        q2[k + 1] = q2_state

    calls = []
    evaluate = CoefficientTable.evaluate

    def counting(self, x, y, keys):
        calls.append((tuple(keys), np.array(x)))
        return evaluate(self, x, y, keys)

    monkeypatch.setattr(CoefficientTable, "evaluate", counting)
    got1, got2 = q_decomposition(model, bundle, r)
    assert [keys for keys, _ in calls] == [EM_KEYS] * r + [COEFFICIENT_KEYS] * (n - r)
    assert all(np.array_equal(x, X[k]) for (_, x), k in zip(calls, range(n + 1)))
    assert np.array_equal(got1, q1) and np.array_equal(got2, q2)


#: sha256 of the sweep reports and the recorder finals on a polynomial
#: model (only +, -, * and squares, so no libm call enters the digest).
GOLDEN = {
    "moments": "2d0b52c6558a793964fe1dca4f5954aba649b465f6459cd00b75d9fdb32a362e",
    "decays": "9e16a7163a579b68221c11acfdeb1cf45a747426c345622a38d1758116e4185a",
    "first": "08af726f2f22b837f7554cdaf47758bb2aad144e1e9b72c573fe75c1fa1cad09",
    "second": "0e0cacf9419fc8f5cb81fc07b858ce2786ce3a725e34937046c44fc35615fa97",
}


def test_golden_digests_on_polynomial_model():
    poly = model_from_expressions(
        "poly", "y - 0.5*x - 0.1*x*y", "1 + 0.1*x*y", "0.5*x - y + 0.1*x*y", "1 + 0.1*x**2"
    )

    def of_json(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    def of_arrays(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return h.hexdigest()

    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.3), ScaleRegime(0.05, 0.05, 1.0, 0.3)]
    reports = moment_sweep(
        poly, regimes, 1, 40, seed=5, x0=0.4, y0=0.3,
        pair_sep_etas=2.0, k_hat=1.0,
    )
    decays = [
        decay_check(
            poly, regimes[-1], bound_id, 1, 40, 6,
            separations_eta=(0.5, 1.0, 2.0), x0=0.4, y0=0.3,
        ).to_dict()
        for bound_id in ("d2x_w1w2", "d2x_w2w2", "dw2_y_final")
    ]
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.15)
    bundle = simulate_paths(poly, regime, 0.4, 0.3, regime.eta / 20, 6, 4 + (1 << 32))
    first = first_order_tangents(poly, bundle, [0, 12, 30, 60])
    second = second_order_tangents(poly, bundle, [(30, 12), (12, 30), (30, 30), (0, 60)])
    assert {
        "moments": of_json([r.to_dict() for r in reports.values()]),
        "decays": of_json(decays),
        "first": of_arrays(
            first.final_dx, first.final_dy, first.sup_abs_dx, first.sup_abs_dy
        ),
        "second": of_arrays(
            second.final_d2x, second.final_d2y, second.sup_abs_d2x, second.sup_abs_d2y
        ),
    } == GOLDEN


def test_moment_sweep_validation(affine):
    good = [ScaleRegime(0.1, 0.1, 1.0, 0.1)]
    with pytest.raises(ValueError):
        moment_sweep(affine, [], 1, 10)
    with pytest.raises(ValueError):
        moment_sweep(affine, good, 3, 10)
    with pytest.raises(ValueError):
        moment_sweep(
            affine,
            [ScaleRegime(0.05, 0.05, 1.0, 0.1), ScaleRegime(0.1, 0.1, 1.0, 0.1)],
            1,
            10,
        )
    antidissipative = model_from_expressions("runup", "y", "1", "y", "sqrt(2)")
    with pytest.raises(ValueError, match="dissipativity"):
        moment_sweep(antidissipative, good, 1, 10)


def test_sweeps_reject_step_above_stability_guard(affine, monkeypatch):
    """A step fraction above 1/20 raises, naming the step and the
    guard, before any work."""

    def not_reached(*args, **kwargs):
        raise AssertionError("work started before the step was checked")

    monkeypatch.setattr(malliavin_mod, "check_assumptions", not_reached)
    monkeypatch.setattr(malliavin_mod, "_noise_blocks", not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.1)
    message = re.escape("dt=0.05 exceeds the stability guard eta/20=0.0025")
    with pytest.raises(StabilityError, match=message):
        moment_sweep(affine, [regime], 1, 10, dt_eta_fraction=1.0)
    with pytest.raises(StabilityError, match=message):
        decay_check(affine, regime, "dw2_y_final", 1, 10, 0, dt_eta_fraction=1.0)


@pytest.mark.parametrize(
    "sizes, message",
    [
        (dict(n_paths=0), "n_paths must be >= 1 (got 0)"),
        (dict(n_paths=2.5), "n_paths must be an integer >= 1 (got 2.5)"),
        (dict(n_paths=True), "n_paths must be an integer >= 1 (got True)"),
        (dict(p=True), "p must be an integer >= 1 (got True)"),
        (dict(p=2.0), "p must be an integer >= 1 (got 2.0)"),
        (dict(p=1.5), "p must be an integer >= 1 (got 1.5)"),
    ],
)
def test_sweeps_reject_nonpositive_sizes_first(affine, monkeypatch, sizes, message):
    def not_reached(*args, **kwargs):
        raise AssertionError("work started before the sizes were checked")

    monkeypatch.setattr(malliavin_mod, "check_assumptions", not_reached)
    monkeypatch.setattr(malliavin_mod, "_noise_blocks", not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.1)
    args = dict(n_paths=10, p=1) | sizes
    with pytest.raises(ValueError, match=re.escape(message)):
        moment_sweep(affine, [regime], **args)
    with pytest.raises(ValueError, match=re.escape(message)):
        decay_check(affine, regime, "dw2_y_final", seed=0, **args)


@pytest.mark.parametrize(
    "bound_id, name, value, message",
    [
        (None, "pair_sep_etas", -1.0, "value -1.0 is not a finite number in [0, inf]"),
        (None, "pair_sep_etas", math.nan, "value nan is not"),
        (None, "pair_sep_etas", math.inf, "value inf is not"),
        ("d2x_w1w2", "separations_eta", (), "must not be empty"),
        ("d2x_w1w2", "separations_eta", (1.0, -2.0), "value -2.0 is not"),
        ("d2x_w2w2", "separations_eta", (math.nan,), "value nan is not"),
        ("dw2_y_final", "separations_eta", (-1.0,), "value -1.0 is not"),
        ("dw2_y_final", "separations_eta", (math.inf,), "value inf is not"),
        ("dw2_y_final", "separations_eta", (100.0,), "value 100.0 exceeds the horizon"),
        ("d2x_w1w2", "separations_eta", (1.0, 2.5), "value 2.5 exceeds r1 = T/2"),
    ],
)
def test_sweeps_reject_bad_arguments_before_any_draw(
    affine, monkeypatch, bound_id, name, value, message
):
    """Bad pair and decay separations raise a ValueError naming
    the argument and the value, before any assumption check or draw
    (``bound_id`` None calls moment_sweep, else decay_check)."""

    def not_reached(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(malliavin_mod, "check_assumptions", not_reached)
    monkeypatch.setattr(malliavin_mod, "_noise_blocks", not_reached)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.2)
    with pytest.raises(ValueError, match=re.escape(f"{name} {message}")):
        if bound_id is None:
            moment_sweep(affine, [regime], 1, 10, **{name: value})
        else:
            decay_check(affine, regime, bound_id, 1, 10, 0, **{name: value})


# -- separation decay --------------------------------------------------


def test_decay_check_bounded_monotone(bounded):
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.5)
    rep = decay_check(
        bounded, regime, "d2x_w2w2", 1, 400, 9, separations_eta=(1.0, 2.0, 4.0)
    )
    assert rep.separations == (1.0, 2.0, 4.0)
    assert rep.monotone_within_noise
    assert rep.empirical[0] > rep.empirical[-1]
    again = decay_check(
        bounded, regime, "d2x_w2w2", 1, 400, 9, separations_eta=(1.0, 2.0, 4.0)
    )
    assert rep.empirical == again.empirical


def test_decay_check_affine_final_y(affine):
    """On the affine model D^{W2}Y is path-independent, so the spread is
    zero and the decay in the separation is exactly exponential."""
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.5)
    rep = decay_check(
        affine, regime, "dw2_y_final", 1, 50, 2, separations_eta=(1.0, 2.0, 4.0)
    )
    assert rep.monotone_within_noise
    # identical paths: the spread is pure floating-point cancellation
    assert np.all(np.asarray(rep.stderr) <= 1e-6 * np.asarray(rep.empirical))
    assert rep.empirical[0] > rep.empirical[1] > rep.empirical[2] > 0.0


def test_decay_check_validation(affine):
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.5)
    with pytest.raises(ValueError):
        decay_check(affine, regime, "dw1_x_sup", 1, 10, 0)
    with pytest.raises(ValueError):
        decay_check(
            affine, regime, "dw2_y_final", 1, 10, 0, separations_eta=(100.0,)
        )


# -- quadruple time-decay integral -------------------------------------


def test_quadruple_frozen_values():
    assert quadruple_analytic(2.0, 1.0) == pytest.approx(0.1105517606, rel=1e-9)
    assert quadruple_analytic(10.0, 1.0) == pytest.approx(2.137500052e-3, rel=1e-9)
    assert quadruple_analytic(50.0, 1.0) == pytest.approx(
        971.0 / (8.0 * 50.0**4), rel=1e-12
    )
    with pytest.raises(ValueError):
        quadruple_analytic(0.0, 1.0)
    with pytest.raises(ValueError):
        quadruple_analytic(1.0, -1.0)


def test_quadruple_closed_form_vs_brute_force():
    for k, n in ((0.5, 40), (2.0, 40), (5.0, 120)):
        exact = quadruple_analytic(k, 1.0)
        brute = quadruple_brute_force(k, 1.0, n)
        assert abs(brute - exact) / exact < 1e-3


@given(st.floats(0.5, 20.0), st.floats(0.25, 4.0))
def test_quadruple_scaling_identity(k, T):
    """Substituting u -> T u turns the [0, T]^4 integral into T^4 times
    the [0, 1]^4 integral at rate k T."""
    assert quadruple_analytic(k, T) == pytest.approx(
        T**4 * quadruple_analytic(k * T, 1.0), rel=1e-9
    )


def test_quadruple_quadrature_converges():
    val, ok = quadruple_quadrature(2.0, 1.0)
    assert ok
    assert abs(val - quadruple_analytic(2.0, 1.0)) / val < 1e-5


def test_quadruple_true_envelope_dominates():
    """The integral is below 2.5 T (k^-3 + k^-2 e^-2k) at every k, and
    k^3 times the integral increases toward the 2.5 T limit (which is
    why anchoring the constant at a finite k cannot dominate larger k)."""
    for k in (0.5, 1.0, 2.0, 10.0, 50.0, 100.0, 1e3, 1e6):
        assert quadruple_analytic(k, 1.0) <= quadruple_envelope(k, 1.0, 2.5)
    scaled = [k**3 * quadruple_analytic(k, 1.0) for k in (2.0, 10.0, 50.0, 100.0)]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] < 2.5


def test_quadruple_report_flags():
    small = quadruple_integral_check(2.0)
    assert small.quadrature_flag == "ok"
    assert small.quadrature is not None
    assert abs(small.quadrature - small.analytic) / small.analytic < 1e-5
    anchor = quadruple_integral_check(10.0)
    assert anchor.analytic == pytest.approx(anchor.envelope, rel=1e-12)
    large = quadruple_integral_check(50.0)
    assert large.quadrature_flag == "skipped-large-k"
    assert large.quadrature is None
    # the k-anchored envelope genuinely falls below the integral here
    assert 1.10 < large.analytic / large.envelope < 1.17
    d = large.to_dict()
    assert d["k"] == 50.0 and d["quadrature"] is None


def test_quadruple_fit_constant_matches_anchor():
    c = quadruple_fit_constant(1.0)
    shape = 10.0**-3 + 10.0**-2 * math.exp(-20.0)
    assert c * shape == pytest.approx(quadruple_analytic(10.0, 1.0), rel=1e-12)
    assert quadruple_envelope(2.0, 1.0, 3.0) == pytest.approx(
        3.0 * (0.125 + 0.25 * math.exp(-4.0))
    )
