"""Coefficient parsing, evaluation, partials, and structural constants."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow.coefficients import (
    COEFFICIENT_KEYS,
    CoefficientTable,
    ExpressionError,
    ModelEvaluationError,
    builtin_model_names,
    check_assumptions,
    eval_all,
    get_model,
    model_from_expressions,
    validate_partials,
)
from fastslow.malliavin import (
    _ALPHA_KEYS,
    _FIRST_KEYS,
    _PARTIAL_KEYS,
    _tangent_pass,
    first_order_tangents,
    second_order_tangents,
)
from fastslow.sde_engine import (
    _EM_KEYS,
    ScaleRegime,
    _noise_blocks,
    simulate_paths,
    time_grid,
)


def test_builtin_names():
    assert builtin_model_names() == ("affine-oracle", "bounded-coupled")


def test_get_model_normalizes_name():
    assert get_model("Affine Oracle").name == "affine-oracle"
    assert get_model("bounded_coupled").name == "bounded-coupled"


def test_get_model_unknown():
    with pytest.raises(KeyError, match="built-ins"):
        get_model("no-such-model")


def test_affine_values(affine):
    vals = eval_all(affine, 1.0, 2.0)
    assert vals["c"] == pytest.approx(2.0 - 2.0)
    assert vals["sigma"] == 1.0
    assert vals["f"] == pytest.approx(-1.0)
    assert vals["tau"] == pytest.approx(math.sqrt(2.0))
    assert vals["d1_c"] == -2.0 and vals["d2_c"] == 1.0
    assert vals["d1_f"] == 1.0 and vals["d2_f"] == -1.0
    for key in ("d1_sigma", "d2_sigma", "d1_tau", "d2_tau", "d11_c", "d22_f"):
        assert vals[key] == 0.0


def test_eval_all_has_all_24_keys(bounded):
    vals = eval_all(bounded, 0.3, -0.7)
    assert len(vals) == 24
    assert all(np.isfinite(v) for v in vals.values())


def test_coefficients_broadcast(affine):
    x = np.linspace(-1, 1, 5)
    y = np.zeros(5)
    out = affine.c(x, y)
    assert out.shape == (5,)
    np.testing.assert_allclose(out, -2.0 * x)
    # scalar-array mixes broadcast too
    assert affine.f(0.5, y).shape == (5,)


def test_constant_coefficient_broadcasts(affine):
    out = affine.sigma(np.zeros((3, 4)), np.ones((3, 4)))
    assert out.shape == (3, 4)
    assert np.all(out == 1.0)
    assert affine.d1_c(np.zeros(3), 0.5).shape == (3,)
    for key in COEFFICIENT_KEYS:
        assert type(getattr(affine, key)(0.3, -0.2)) is float


@pytest.mark.parametrize("name", ["affine-oracle", "bounded-coupled", "trig"])
def test_evaluate_matches_each_expression(name, request):
    """Every fused-kernel value equals its own expression, lambdified
    alone, to 1e-14 relative error."""
    model = request.getfixturevalue("trig") if name == "trig" else get_model(name)
    X, Y = np.meshgrid(np.linspace(-1.37, 1.61, 5), np.linspace(-1.23, 1.89, 4))
    x, y = sp.symbols("x y", real=True)
    values = model.evaluate(X, Y, COEFFICIENT_KEYS)
    for key, value in zip(COEFFICIENT_KEYS, values):
        single = sp.lambdify((x, y), model.table.expressions[key], modules="numpy")
        ref = np.broadcast_to(single(X, Y), X.shape)
        np.testing.assert_allclose(
            np.broadcast_to(value, X.shape), ref, rtol=1e-14, atol=0, err_msg=key
        )


def test_evaluate_broadcasts_mixed_shapes_and_keeps_constants_scalar(bounded):
    x = np.linspace(-1.0, 1.0, 3)[:, None]
    y = np.linspace(-2.0, 2.0, 4)
    c, d1_c, tau = bounded.evaluate(x, y, ("c", "d1_c", "tau"))
    assert c.shape == (3, 4)
    np.testing.assert_array_equal(c, bounded.c(x, y))
    np.testing.assert_array_equal(np.broadcast_to(d1_c, (3, 4)), bounded.d1_c(x, y))
    assert type(tau) is float and tau == math.sqrt(2.0)
    assert all(type(v) is float for v in bounded.evaluate(0.3, 0.2, COEFFICIENT_KEYS))
    with pytest.raises(KeyError, match="d3_c"):
        bounded.evaluate(0.3, 0.2, ("c", "d3_c"))


#: Every key tuple the library evaluates, the per-order subsets of the
#: tangent recursion, and the tuples of the Q1/Q2 reference recursion in
#: test_malliavin (the last two).
_LIBRARY_TUPLES = (
    _EM_KEYS,
    _FIRST_KEYS,
    _PARTIAL_KEYS,
    _ALPHA_KEYS,
    ("sigma", "tau"),
    COEFFICIENT_KEYS,
    ("d1_f", "d1_tau", "d2_tau", "d2_f"),
    ("d2_f", "d2_tau"),
    ("tau",),
    ("d1_f", "d2_f", "d1_tau", "d2_tau"),
)


@pytest.mark.parametrize("name", ["affine-oracle", "bounded-coupled", "trig"])
def test_every_key_tuple_is_bit_equal_to_each_key_alone(name, request):
    """Each value of every key tuple the library evaluates is bit-equal
    to its expression lambdified alone: a key's value does not depend on
    the keys evaluated with it."""
    model = request.getfixturevalue("trig") if name == "trig" else get_model(name)
    rng = np.random.default_rng(3)
    X, Y = rng.uniform(-2.5, 2.5, size=(2, 40, 50))
    x, y = sp.symbols("x y", real=True)
    alone = {
        key: np.broadcast_to(
            sp.lambdify((x, y), model.table.expressions[key], modules="numpy")(X, Y),
            X.shape,
        )
        for key in COEFFICIENT_KEYS
    }
    for keys in _LIBRARY_TUPLES:
        for key, value in zip(keys, model.evaluate(X, Y, keys)):
            assert np.array_equal(np.broadcast_to(value, X.shape), alone[key]), (keys, key)


def test_tangents_evaluate_once_per_step(bounded, monkeypatch):
    """Exactly one kernel call per state a pass reads, none through the
    one-key views, and every state the pass evaluates is the row the
    bundle captured, bit for bit: the bundle functions replay the
    bundle's increments, with the 4 EM keys before the first
    perturbation step and all 24 keys from it, up to the horizon where a
    tangent starts there and before it otherwise, whether or not a
    recorder reads the series; on live noise drawn from the bundle's
    streams the pass makes the same calls.
    simulate_paths keeps one call of the 4 EM keys per step."""
    regime = ScaleRegime(epsilon=0.05, eta=0.05, gamma=1.0, T=0.2)
    calls = []
    evaluate = CoefficientTable.evaluate

    def counting(self, x, y, keys):
        calls.append((tuple(keys), np.array(x)))
        return evaluate(self, x, y, keys)

    def assert_calls(first_at, stop):
        """One call on each state k < stop: of the EM keys before
        first_at and of all 24 keys from it."""
        expect = [_EM_KEYS] * first_at + [COEFFICIENT_KEYS] * (stop - first_at)
        assert [k for k, _ in calls] == expect
        assert all(
            np.array_equal(x, bundle.state_at(k)[0]) for (_, x), k in zip(calls, range(stop))
        )
        calls.clear()

    monkeypatch.setattr(CoefficientTable, "evaluate", counting)
    dt = regime.eta / 20
    every_step = range(time_grid(regime.T, dt)[0] + 1)
    bundle = simulate_paths(bounded, regime, 0.4, 0.3, dt, 3, 5, capture_indices=every_step)
    n = bundle.n_steps
    assert_calls(n, n)
    first_order_tangents(bounded, bundle, [0, 10, 20, 40])
    assert_calls(0, n)
    first_order_tangents(bounded, bundle, [10, 20, 40])
    assert_calls(10, n)
    first_order_tangents(bounded, bundle, [10, 20, 40], store_series=False)
    assert_calls(10, n)
    first_order_tangents(bounded, bundle, [10, n], store_series=False)
    assert_calls(10, n + 1)
    second_order_tangents(bounded, bundle, [(10, 10), (20, 10), (40, 40)])
    assert_calls(10, n)

    noise = _noise_blocks(5, range(3), n, bundle.dt)
    tangents = [(j, r) for j in (0, 1) for r in (10, 20, 40)]
    cells = [(a, b, *q) for a in (0, 1) for b in (0, 1) for q in [(20, 10), (40, 40)]]
    _tangent_pass(bounded, regime, bundle.dt, n, 0.4, 0.3, noise, 3, tangents, cells)
    assert_calls(10, n)


def test_eval_all_rejects_nonfinite_point(affine):
    with pytest.raises(ModelEvaluationError):
        eval_all(affine, math.nan, 0.0)


def test_eval_all_rejects_degenerate_tau():
    flat = model_from_expressions("flat-tau", "y", "1", "-y", "x")
    with pytest.raises(ModelEvaluationError, match="tau"):
        eval_all(flat, 0.0, 1.0)  # tau = x = 0 at this point


def test_expression_guard_rejects_bad_tokens():
    # Names outside the grammar: sympy would take them from its namespace
    # or make them undefined functions that fail only when evaluated.
    names = ("foo(x)", "erf(x)", "log(x)", "Abs(x)", "I*x", "E*x")
    for bad in ("__import__('os')", "x; y", "lambda x: x", "z + 1", "x!", *names):
        with pytest.raises(ExpressionError):
            model_from_expressions("bad", bad, "1", "-y", "1")


def test_expression_guard_rejects_empty():
    with pytest.raises(ExpressionError):
        model_from_expressions("bad", "", "1", "-y", "1")


def test_custom_expressions_and_partials():
    m = model_from_expressions("trig", "sin(x)*cos(y)", "1 + 0.5*cos(x)", "-y", "sqrt(2)")
    assert m.c(0.0, 0.0) == pytest.approx(0.0)
    assert m.d1_c(0.0, 0.0) == pytest.approx(1.0)  # cos(0)cos(0)
    assert m.d2_c(0.0, math.pi / 2) == pytest.approx(-math.sin(0.0) * 1.0)
    assert m.d12_c(0.0, 0.0) == pytest.approx(-math.cos(0.0) * math.sin(0.0))
    assert m.expressions["c"] == "sin(x)*cos(y)"


def test_caret_power_supported():
    m = model_from_expressions("pow", "x^2", "1", "-y", "sqrt(2)")
    assert m.c(3.0, 0.0) == pytest.approx(9.0)
    assert m.d1_c(3.0, 0.0) == pytest.approx(6.0)


def test_validate_partials_builtin(affine, bounded):
    pts = [(-1.2, 0.4), (0.0, 0.0), (0.7, -2.1)]
    assert validate_partials(affine, pts) < 1e-8
    assert validate_partials(bounded, pts) < 1e-6


def test_validate_partials_catches_wrong_derivative():
    # Hand-build a model whose stored d1_c is wrong by replacing the field.
    import dataclasses

    m = model_from_expressions("wrong", "x*y", "1", "-y", "sqrt(2)")
    broken = dataclasses.replace(m, d1_c=lambda x, y: np.broadcast_arrays(x, y)[0] * 0.0)
    assert validate_partials(broken, [(1.0, 1.0)]) > 0.4


def test_check_assumptions_affine_exact(affine):
    for p in (1, 2):
        rep = check_assumptions(affine, (-3, 3), (-3, 3), 11, 11, p)
        assert rep.M_hat == pytest.approx(1.0, abs=1e-15)
        assert rep.K_hat == pytest.approx(1.0, abs=1e-15)
        assert rep.passes
        assert rep.p == p


def test_check_assumptions_bounded(bounded):
    rep = check_assumptions(bounded, (-6, 6), (-6, 6), 101, 101, 1)
    assert rep.K_hat == pytest.approx(1.5, abs=1e-12)
    assert rep.M_hat == pytest.approx(0.5, abs=1e-12)
    assert rep.passes


def test_check_assumptions_failing_model_names_point():
    # f = +y is anti-dissipative: K_hat < 0 everywhere.
    m = model_from_expressions("unstable", "y", "1", "y", "sqrt(2)")
    rep = check_assumptions(m, (-1, 1), (-1, 1), 5, 5, 1)
    assert not rep.passes
    assert rep.K_hat < 0
    x, y = rep.worst_point
    assert -1 <= x <= 1 and -1 <= y <= 1


def test_check_assumptions_validates_arguments(affine):
    with pytest.raises(ValueError):
        check_assumptions(affine, (-1, 1), (-1, 1), 1, 5, 1)
    with pytest.raises(ValueError):
        check_assumptions(affine, (1, -1), (-1, 1), 5, 5, 1)
    with pytest.raises(ValueError):
        check_assumptions(affine, (-1, 1), (-1, 1), 5, 5, 0)


def test_assumption_report_to_dict(affine):
    d = check_assumptions(affine, (-2, 2), (-2, 2), 5, 5, 2).to_dict()
    assert d["passes"] is True
    assert d["K_hat"] == 1.0 and d["M_hat"] == 1.0
    assert d["grid"]["nx"] == 5


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(0.1, 2, allow_nan=False),
)
def test_affine_family_constants(a, b):
    """K_hat/M_hat of c-independent fast dynamics f = a*x - y, tau = b.

    d1_f = a, d2_f = -1, tau partials 0, so at p = 1:
    M_hat = |a|, K_hat = 2 - |a|.
    """
    m = model_from_expressions("fam", "y", "1", f"({a})*x - y", f"{b}")
    rep = check_assumptions(m, (-1, 1), (-1, 1), 3, 3, 1)
    assert rep.M_hat == pytest.approx(abs(a), abs=1e-12)
    assert rep.K_hat == pytest.approx(2.0 - abs(a), abs=1e-12)
    assert rep.passes == (rep.K_hat > 0)
