"""Coefficient parsing, evaluation, partials, and structural constants."""

import math
import re

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from fastslow.coefficients import (
    COEFFICIENT_KEYS,
    CoefficientTable,
    ExpressionError,
    ModelEvaluationError,
    _Add,
    _Call,
    _Mul,
    _Num,
    _Pi,
    _Pow,
    _Printer,
    _Sym,
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
)
from fastslow.oracles import first_order_tangents, second_order_tangents
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


_X, _Y = sp.symbols("x y", real=True)
_SYMPY_NAMES = {
    "x": _X,
    "y": _Y,
    "sin": sp.sin,
    "cos": sp.cos,
    "tanh": sp.tanh,
    "exp": sp.exp,
    "sqrt": sp.sqrt,
    "pi": sp.pi,
}


def _sympy_keys(texts) -> dict:
    """The coefficient keys of ``texts`` (coefficient name -> expression
    string) as sympy parses and differentiates them: the oracle of the
    in-repo parser and differentiator."""
    keys = {}
    for func, text in texts.items():
        e = parse_expr(
            text,
            local_dict=_SYMPY_NAMES,
            transformations=standard_transformations + (convert_xor,),
        )
        keys.update(
            {
                func: e,
                "d1_" + func: sp.diff(e, _X),
                "d2_" + func: sp.diff(e, _Y),
                "d11_" + func: sp.diff(e, _X, 2),
                "d12_" + func: sp.diff(e, _X, _Y),
                "d22_" + func: sp.diff(e, _Y, 2),
            }
        )
    return keys


@pytest.mark.parametrize("name", ["affine-oracle", "bounded-coupled", "trig"])
def test_evaluate_matches_each_expression(name, request):
    """Every fused-kernel value equals sympy's derivative of the model's
    expression strings, lambdified alone, to 1e-14 relative error."""
    model = request.getfixturevalue("trig") if name == "trig" else get_model(name)
    X, Y = np.meshgrid(np.linspace(-1.37, 1.61, 5), np.linspace(-1.23, 1.89, 4))
    oracle = _sympy_keys(model.expressions)
    values = model.evaluate(X, Y, COEFFICIENT_KEYS)
    for key, value in zip(COEFFICIENT_KEYS, values):
        single = sp.lambdify((_X, _Y), oracle[key], modules="numpy")
        ref = np.broadcast_to(single(X, Y), X.shape)
        np.testing.assert_allclose(
            np.broadcast_to(value, X.shape), ref, rtol=1e-14, atol=0, err_msg=key
        )


#: The text of each key of the two built-ins, printed in table order by
#: one printer, and the function applications it names.  These texts
#: decide the kernels' arithmetic, and so the bits of every result.
_BUILTIN_TEXTS = {
    "affine-oracle": (
        ["-2*x + y", "-2", "1", "0", "0", "0"]
        + ["1", "0", "0", "0", "0", "0"]
        + ["x - y", "1", "-1", "0", "0", "0"]
        + ["sqrt(2)", "0", "0", "0", "0", "0"],
        {},
    ),
    "bounded-coupled": (
        [
            "-0.5*_call0 + _call1",
            "0.5*_call0**2 - 0.5",
            "1 - _call1**2",
            "-1.0*(_call0**2 - 1)*_call0",
            "0",
            "2*(_call1**2 - 1)*_call1",
            "0.1*_call2*_call3 + 1",
            "-0.1*_call4*_call3",
            "-0.1*_call5*_call2",
            "-0.1*_call2*_call3",
            "0.1*_call4*_call5",
            "-0.1*_call2*_call3",
            "-y + 0.5*_call0",
            "0.5 - 0.5*_call0**2",
            "-1",
            "1.0*(_call0**2 - 1)*_call0",
            "0",
            "0",
        ]
        + ["sqrt(2)", "0", "0", "0", "0", "0"],
        {
            "tanh(x)": "_call0",
            "tanh(y)": "_call1",
            "cos(x)": "_call2",
            "cos(y)": "_call3",
            "sin(x)": "_call4",
            "sin(y)": "_call5",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_BUILTIN_TEXTS))
def test_builtin_kernel_texts_are_pinned(name):
    """The built-ins print the texts their kernels have always run."""
    texts, calls = _BUILTIN_TEXTS[name]
    model = get_model(name)
    printer = _Printer()
    assert [printer.doprint(model.table.expressions[k]) for k in COEFFICIENT_KEYS] == texts
    assert printer.calls == calls


_EPS = np.finfo(float).eps
#: Each function of a tree and its derivative, as numpy evaluates them.
_FUNCTIONS = {
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda u: -np.sin(u)),
    "tanh": (np.tanh, lambda u: 1.0 - np.tanh(u) ** 2),
    "exp": (np.exp, np.exp),
    "log": (np.log, lambda u: 1.0 / u),
}


def _rounding_bound(e, x, y) -> tuple[float, float]:
    """(value, bound) of the tree ``e`` at (x, y): bound * eps bounds,
    to first order, the rounding error of the kernel that computes it.
    Each operation and function adds up to a few ulps of its result, and
    an operand's error propagates through the operation's derivative."""
    if isinstance(e, _Num):
        v = np.float64(float(e.value))
        return v, abs(v)
    if isinstance(e, _Sym):
        return np.float64(x if e.name == "x" else y), 0.0
    if isinstance(e, _Pi):
        return np.float64(np.pi), np.pi
    if isinstance(e, _Call):
        u, err = _rounding_bound(e.arg, x, y)
        f, df = _FUNCTIONS[e.func]
        v = f(u)
        return v, abs(df(u)) * err + 4 * abs(v)
    if isinstance(e, _Pow):
        (b, err_b), (p, err_p) = _rounding_bound(e.base, x, y), _rounding_bound(e.exp, x, y)
        v = b**p
        return v, abs(p * b ** (p - 1)) * err_b + abs(v * np.log(abs(b))) * err_p + 4 * abs(v)
    parts = [e.coeff, *e.factors] if isinstance(e, _Mul) else [*e.terms, e.const]
    values, errs = zip(*(_rounding_bound(part, x, y) for part in parts))
    n = len(parts)
    if isinstance(e, _Add):
        return sum(values), sum(errs) + n * sum(map(abs, values))
    v = math.prod(values)
    spread = sum(
        err * math.prod(abs(w) for j, w in enumerate(values) if j != i)
        for i, err in enumerate(errs)
    )
    return v, spread + n * abs(v)


_POINTS = ((0.37, -0.81), (1.13, 0.29), (-0.66, 1.41), (-1.27, -0.52))


def _grammar_texts():
    """Expression strings over the whole grammar: numbers, x, y, pi, the
    four operators, ^ and ** with constant exponents and with exponents
    that depend on x and y, unary minus, and the five functions."""
    leaves = st.sampled_from(["x", "y", "pi", "2", "3", "0.5", "1.25", "0.1"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(inner, st.sampled_from(["2", "3", "-1", "-2", "0.5", "(1/3)"])).map(
                lambda t: f"({t[0]})^{t[1]}"
            ),
            st.tuples(inner, inner).map(lambda t: f"(1.5 + tanh({t[0]}))**({t[1]})"),
            st.tuples(st.sampled_from(["sin", "cos", "tanh", "exp", "sqrt"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            inner.map(lambda t: f"-{t}"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(text=_grammar_texts())
@example(text="2^3^2*x - x**-1 + +y - --x")
@example(text="1e-3*x + .5*y + 5.*x*y + pi*x/y")
@example(text="sqrt(x^2 + 1) + sqrt(4)*x + sqrt(8)*y + 0^0 + (-2)^3*y^0.5")
@example(text="x^y + 2^x + exp(x)^2*exp(-x) + tanh(x/2)^(1/3)")
@example(text="(-2)^(1/3) + x")
def test_partials_match_sympy_over_the_grammar(text):
    """Every text of the grammar builds, and each of its six keys agrees
    with sympy's ``lambdify(diff(parse_expr(text)))``, evaluated at 30
    digits, to within the kernel's own rounding bound at every point
    where both are real and finite.  sympy's value is the exact one, so
    a wrong derivative rule, a dropped term or a misplaced parenthesis
    fails by far more than a few ulps of that bound."""
    oracle = _sympy_keys({"c": text})
    try:
        model = model_from_expressions("grammar", text, "1", "-y", "1")
    except ExpressionError:
        # Only a division by an exact zero, which sympy makes zoo, and a
        # constant that is not real fail to build.
        assert any(
            a.is_number and (a.has(sp.nan) or a.is_extended_real is False)
            for a in sp.preorder_traversal(oracle["c"])
        ), text
        return
    keys = [k for k in COEFFICIENT_KEYS if k.endswith("_c") or k == "c"]
    with np.errstate(all="ignore"), mpmath.workdps(30):
        for key in keys:
            try:
                exact = sp.lambdify((_X, _Y), oracle[key], modules="mpmath")
            except Exception:  # a function mpmath lacks, such as DiracDelta
                continue
            for x, y in _POINTS:
                try:
                    ref = complex(exact(mpmath.mpf(x), mpmath.mpf(y)))
                except (TypeError, ValueError, ZeroDivisionError, NameError):
                    continue
                if ref.imag or not math.isfinite(ref.real):
                    continue
                _, bound = _rounding_bound(model.table.expressions[key], x, y)
                if not np.isfinite(bound):
                    continue
                (value,) = model.evaluate(x, y, (key,))
                assert abs(value - ref.real) <= _EPS * bound, (text, key, x, y, value, ref)


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
    to the value of the key's own one-key kernel: a key's value does not
    depend on the keys evaluated with it."""
    model = request.getfixturevalue("trig") if name == "trig" else get_model(name)
    rng = np.random.default_rng(3)
    X, Y = rng.uniform(-2.5, 2.5, size=(2, 40, 50))
    alone = {
        key: np.broadcast_to(model.evaluate(X, Y, (key,))[0], X.shape)
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
    # Names outside the grammar, rejected before parsing.
    names = ("foo(x)", "erf(x)", "log(x)", "Abs(x)", "I*x", "E*x")
    # Syntax outside the grammar, a division by an exact zero and a
    # constant that is not real.
    syntax = ("x//y", "sin(x)(y)", "sin", "sin(x y)", "1/0", "x*(y - y)^-1", "(-2.0)^0.5")
    for bad in ("__import__('os')", "x; y", "lambda x: x", "z + 1", "x!", *names, *syntax):
        with pytest.raises(ExpressionError):
            model_from_expressions("bad", bad, "1", "-y", "1")
    # A constant that does not fold is checked at build and named: a
    # complex power, a NaN square root and a NaN log in a derivative.
    for bad, constant in [
        ("(-pi)^0.5 + x", "(-pi)**0.5"),
        ("sqrt(-pi)*x", "sqrt(-pi)"),
        ("(-pi)^x", "log(-pi)"),
    ]:
        with pytest.raises(ExpressionError, match=re.escape(f"the constant {constant} is not real")):
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


@pytest.mark.parametrize("bad", [True, 2.0, 5.5])
@pytest.mark.parametrize("name", ["nx", "ny", "p"])
def test_check_assumptions_takes_integer_sizes_and_orders(affine, name, bad):
    """nx, ny and p take the count rule: a bool, an integral float or a
    fraction raises ValueError naming the argument, where a float size
    once reached np.linspace as a bare TypeError and p=2.0 or p=True
    passed."""
    args = dict(nx=5, ny=5, p=1) | {name: bad}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1 (got {bad!r})")):
        check_assumptions(affine, (-1, 1), (-1, 1), **args)


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
