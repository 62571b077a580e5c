"""Coefficient models for coupled slow-fast stochastic systems.

A model bundles the four coefficient functions of the system

    dX_t = c(X_t, Y_t) dt + sqrt(eps) * sigma(X_t, Y_t) dW^1_t
    dY_t = (1/eta) f(X_t, Y_t) dt + (1/sqrt(eta)) tau(X_t, Y_t) dW^2_t

together with every first- and second-order partial derivative that the
tangent (sensitivity) equations downstream need.  Models are defined as
symbolic expressions in ``x`` and ``y``; partials are produced by symbolic
differentiation, so the supplied derivatives are exact.  All 24 expressions
sit in one :class:`CoefficientTable`; :meth:`CoefficientSet.evaluate`
computes any subset of them in one kernel call.  The kernel evaluates
each function application (``tanh(x)``, ``cos(y)``, ...) once for the
whole subset and otherwise computes every key exactly as that key
computes alone, so a key's value does not depend on the keys evaluated
with it.

Two built-in models ship with the package:

``affine-oracle``
    c = y - 2x, sigma = 1, f = x - y, tau = sqrt(2).  Every derived
    quantity (invariant density, averaged drift, corrector, limit
    variance, tangent flows) has a closed form, making this the
    reference oracle for tests.

``bounded-coupled``
    c = tanh(y) - 0.5 tanh(x), sigma = 1 + 0.1 cos(x) cos(y),
    f = 0.5 tanh(x) - y, tau = sqrt(2).  Bounded with bounded
    derivatives and coupled in both variables; the stress model for
    the Monte Carlo inequality checks.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import sympy as sp
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)
from sympy.printing.numpy import NumPyPrinter

__all__ = [
    "CoefficientSet",
    "CoefficientTable",
    "COEFFICIENT_KEYS",
    "AssumptionReport",
    "ModelEvaluationError",
    "ExpressionError",
    "model_from_expressions",
    "get_model",
    "builtin_model_names",
    "eval_all",
    "check_assumptions",
    "validate_partials",
    "TAU_MIN",
    "ASSUMPTION_GRID",
]

#: Nondegeneracy floor for the fast diffusion: |tau| below this raises.
TAU_MIN = 1e-6

#: Default grid of :func:`check_assumptions` in the moment sweep and the
#: CLI: (lo, hi) of the box on each axis, and nodes per axis.
ASSUMPTION_GRID = ((-6.0, 6.0), 201)

#: Central-difference step of :func:`validate_partials`.
_FD_STEP = 1e-4

_FUNC_NAMES = ("c", "sigma", "f", "tau")
_PARTIAL_PREFIXES = ("d1_", "d2_", "d11_", "d12_", "d22_")

#: The 24 coefficient keys ``c, d1_c, ..., d22_tau`` in table order.
COEFFICIENT_KEYS = tuple(
    prefix + func for func in _FUNC_NAMES for prefix in ("",) + _PARTIAL_PREFIXES
)

_X, _Y = sp.symbols("x y", real=True)
_PARSE_LOCALS = {
    "x": _X,
    "y": _Y,
    "sin": sp.sin,
    "cos": sp.cos,
    "tanh": sp.tanh,
    "exp": sp.exp,
    "sqrt": sp.sqrt,
    "pi": sp.pi,
}
_TRANSFORMS = standard_transformations + (convert_xor,)
# Expression strings may only use numbers, x/y, the allowed function
# names, arithmetic operators and parentheses.
_TEXT_OK = re.compile(r"^[0-9a-zA-Z_+\-*/^(). \t]*$")
# A name (the group), or a number with its exponent, so that 1e6 holds no name.
_NAME = re.compile(r"([A-Za-z_]\w*)|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class ExpressionError(ValueError):
    """A model expression failed to parse or used a disallowed symbol."""


class ModelEvaluationError(ValueError):
    """A coefficient function produced a non-finite or degenerate value."""


class _CallNamingPrinter(NumPyPrinter):
    """The NumPy printer of ``lambdify``, but each function application is
    printed once, as a name, and :attr:`calls` maps its text to the name.

    Nested applications are named first, so the calls can be assigned in
    the order of :attr:`calls`.  Every other node prints as it does in a
    lone ``lambdify(..., modules="numpy")``, so a key's arithmetic, and
    thus its bits, do not depend on the keys printed with it.
    """

    def __init__(self):
        super().__init__(
            {
                "fully_qualified_modules": False,
                "inline": True,
                "allow_unknown_functions": True,
                "user_functions": {},
            }
        )
        self.calls: dict[str, str] = {}

    def _print(self, expr, **kwargs):
        text = super()._print(expr, **kwargs)
        if isinstance(expr, sp.Function):
            return self.calls.setdefault(text, f"_call{len(self.calls)}")
        return text


def _compile_kernel(exprs) -> Callable:
    """A function of (x, y) returning the tuple of ``exprs``' values,
    with each function application evaluated once."""
    printer = _CallNamingPrinter()
    values = [printer.doprint(e) for e in exprs]
    lines = [f"    {name} = {text}\n" for text, name in printer.calls.items()]
    returned = "".join(value + ", " for value in values)
    source = "def kernel(x, y):\n" + "".join(lines) + f"    return ({returned})\n"
    namespace: dict = {}
    exec("from numpy import *", namespace)  # the names lambdify's numpy code uses
    exec(source, namespace)
    return namespace["kernel"]


class CoefficientTable:
    """The symbolic table of a model's 24 coefficient expressions.

    :meth:`evaluate` runs one kernel per requested key tuple, compiled on
    first use and cached, so a hot loop that asks for the same keys every
    step pays one Python call per step.  A kernel evaluates each function
    application of the tuple once and prints every key as it prints
    alone, so each value is bit-equal to its expression lambdified alone,
    whatever tuple it is asked with.  The library starts no threads: its
    workers are forked processes, and each inherits the kernels compiled
    before the fork (:meth:`CoefficientSet.compile`); a kernel that a
    worker compiles itself stays in that worker's copy of the cache.
    """

    def __init__(self, expressions: Mapping[str, sp.Expr]):
        self.expressions = dict(expressions)
        self._kernels: dict[tuple[str, ...], Callable] = {}

    def _kernel(self, keys: tuple[str, ...]) -> Callable:
        kernel = self._kernels.get(keys)
        if kernel is None:
            unknown = [k for k in keys if k not in self.expressions]
            if unknown:
                raise KeyError(f"unknown coefficient key(s): {', '.join(unknown)}")
            kernel = _compile_kernel([self.expressions[k] for k in keys])
            self._kernels[keys] = kernel
        return kernel

    def evaluate(self, x, y, keys: tuple[str, ...]) -> tuple:
        """Values of ``keys`` at (x, y), in the order of ``keys``.

        Array values broadcast against the inputs; a value that does not
        depend on the inputs (a constant, or any value at scalar inputs)
        is returned as a ``float`` and never broadcast.
        """
        values = self._kernel(tuple(keys))(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        )
        return tuple(v if isinstance(v, np.ndarray) else float(v) for v in values)


def _view(table: CoefficientTable, key: str) -> Callable:
    """One-key callable over ``table`` with full scalar/array broadcasting.

    Scalar inputs give a ``float``; a constant is broadcast (and copied)
    to the broadcast input shape.
    """
    keys = (key,)

    def view(x, y):
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x_arr.shape, y_arr.shape)
        out = np.asarray(table.evaluate(x_arr, y_arr, keys)[0], dtype=float)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        if out.ndim == 0 and np.isscalar(x) and np.isscalar(y):
            return float(out)
        return out

    view.__name__ = view.__qualname__ = key
    return view


@dataclass(frozen=True)
class CoefficientSet:
    """The four coefficients c, sigma, f, tau and all their partials.

    ``d1_*`` / ``d2_*`` are the first partials in x and y, ``d11_*`` /
    ``d12_*`` / ``d22_*`` the second partials (the mixed partial is
    stored once; all models are C^2).  Every named callable accepts
    scalars or numpy arrays and broadcasts; it is a one-key view of
    ``table``.  Hot loops call :meth:`evaluate` instead, which reads
    ``table`` directly, so replacing a named field changes that view
    only.  Instances are immutable; forked workers inherit them, with
    the kernels that :meth:`compile` built before the fork.
    """

    name: str
    c: Callable
    sigma: Callable
    f: Callable
    tau: Callable
    d1_c: Callable
    d2_c: Callable
    d11_c: Callable
    d12_c: Callable
    d22_c: Callable
    d1_sigma: Callable
    d2_sigma: Callable
    d11_sigma: Callable
    d12_sigma: Callable
    d22_sigma: Callable
    d1_f: Callable
    d2_f: Callable
    d11_f: Callable
    d12_f: Callable
    d22_f: Callable
    d1_tau: Callable
    d2_tau: Callable
    d11_tau: Callable
    d12_tau: Callable
    d22_tau: Callable
    table: CoefficientTable = field(compare=False, repr=False)
    expressions: Mapping[str, str] | None = None

    def evaluate(self, x, y, keys: tuple[str, ...]) -> tuple:
        """Values of the coefficient ``keys`` (e.g. ``("c", "d1_c")``) at
        (x, y), from one kernel call; see :meth:`CoefficientTable.evaluate`.
        """
        return self.table.evaluate(x, y, keys)

    def compile(self, *key_tuples: tuple[str, ...]) -> None:
        """Compile now the kernels that :meth:`evaluate` runs for each of
        ``key_tuples``, so that processes forked after this call inherit
        them instead of each compiling its own."""
        for keys in key_tuples:
            self.table._kernel(tuple(keys))


@dataclass(frozen=True)
class AssumptionReport:
    """Grid suprema of the dissipativity/boundedness constants.

    ``M_hat`` bounds the coupling strength of the fast tangent equation,
    ``K_hat`` is its dissipativity margin at moment order ``2p``:

        M_hat = sup |d1 f| + 2(2p-1) |d1 tau|^2 + |d2 tau|^2
        K_hat = -sup [ (2p-1)|d1 f| + (2p-1)(2p-2)|d1 tau|^2
                       + 2p(2p-1)|d2 tau|^2 + 2p d2 f ]

    with the suprema taken over the stated evaluation grid.  The moment
    machinery is well posed exactly when ``K_hat > 0``.
    """

    p: int
    M_hat: float
    K_hat: float
    grid: Mapping[str, object]
    passes: bool
    worst_point: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "M_hat": self.M_hat,
            "K_hat": self.K_hat,
            "grid": dict(self.grid),
            "passes": self.passes,
            "worst_point": list(self.worst_point),
        }


def _parse_expression(text: str) -> sp.Expr:
    """Parse one coefficient expression over the variables x, y.

    Allowed: numbers, x, y, + - * / ^ ( ), and sin, cos, tanh, exp,
    sqrt, pi.  Anything else is rejected.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("coefficient expression must be a non-empty string")
    if "__" in text or not _TEXT_OK.match(text):
        raise ExpressionError(f"disallowed characters in expression {text!r}")
    # Checked before parsing: sympy would take any other name from its own
    # namespace (E, I, log) or make it an undefined function (foo(x)).
    unknown = set(_NAME.findall(text)) - {"", *_PARSE_LOCALS}
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ExpressionError(f"expression {text!r} uses unknown name(s): {names}")
    try:
        return parse_expr(text, local_dict=_PARSE_LOCALS, transformations=_TRANSFORMS)
    except Exception as exc:  # sympy raises a zoo of error types
        raise ExpressionError(f"could not parse expression {text!r}: {exc}") from exc


def model_from_expressions(
    name: str,
    c: str,
    sigma: str,
    f: str,
    tau: str,
) -> CoefficientSet:
    """Build a :class:`CoefficientSet` from four expression strings.

    Parameters
    ----------
    name : str
        Identifier used in reports and dumps.
    c, sigma, f, tau : str
        Expressions in ``x`` and ``y``; see :func:`_parse_expression`
        for the allowed grammar.

    Returns
    -------
    CoefficientSet
        With all 20 partials generated by symbolic differentiation and
        held, with the four coefficients, in one :class:`CoefficientTable`.
    """
    texts = {"c": c, "sigma": sigma, "f": f, "tau": tau}
    exprs: dict[str, sp.Expr] = {}
    for func, text in texts.items():
        try:
            expr = _parse_expression(text)
        except ExpressionError as exc:
            raise ExpressionError(f"coefficient {func!r}: {exc}") from exc
        exprs[func] = expr
        exprs["d1_" + func] = sp.diff(expr, _X)
        exprs["d2_" + func] = sp.diff(expr, _Y)
        exprs["d11_" + func] = sp.diff(expr, _X, 2)
        exprs["d12_" + func] = sp.diff(expr, _X, _Y)
        exprs["d22_" + func] = sp.diff(expr, _Y, 2)
    table = CoefficientTable(exprs)
    return CoefficientSet(
        name=name,
        expressions=dict(texts),
        table=table,
        **{key: _view(table, key) for key in COEFFICIENT_KEYS},
    )


def _affine_oracle() -> CoefficientSet:
    """Linear model with closed forms for every derived quantity.

    With c = y - 2x, f = x - y, tau = sqrt(2) the frozen-x fast process
    is an Ornstein-Uhlenbeck process with stationary law N(x, 1), the
    averaged drift is c_bar = -x (c_bar' = -1), the corrector is
    phi = x - y (d_y phi = -1), and at gamma the effective diffusion is
    q = 1 + 2/gamma^2 (constant in x; 1 at gamma = inf), so

        sigma_t^2 = q_bar * (1 - exp(-2 t)) / 2.
    """
    return model_from_expressions(
        "affine-oracle", c="y - 2*x", sigma="1", f="x - y", tau="sqrt(2)"
    )


def _bounded_coupled() -> CoefficientSet:
    """Bounded, fully coupled stress model.

    f = 0.5 tanh(x) - y with tau = sqrt(2) keeps the frozen-x fast
    process an OU process with stationary law N(0.5 tanh(x), 1);
    everything else (averaged drift, corrector) requires quadrature.
    """
    return model_from_expressions(
        "bounded-coupled",
        c="tanh(y) - 0.5*tanh(x)",
        sigma="1 + 0.1*cos(x)*cos(y)",
        f="0.5*tanh(x) - y",
        tau="sqrt(2)",
    )


_REGISTRY: dict[str, Callable[[], CoefficientSet]] = {
    "affine-oracle": _affine_oracle,
    "bounded-coupled": _bounded_coupled,
}


def builtin_model_names() -> tuple[str, ...]:
    """Names accepted by :func:`get_model`."""
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> CoefficientSet:
    """Look up a built-in model by name (spaces/underscores tolerated)."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(builtin_model_names())
        raise KeyError(f"unknown model {name!r}; built-ins: {known}") from None
    return factory()


def eval_all(model: CoefficientSet, x: float, y: float) -> dict[str, float]:
    """Evaluate all 24 coefficient values at one point.

    Returns a dict keyed ``c, d1_c, ..., d22_tau``.  Raises
    :class:`ModelEvaluationError` if any value is non-finite or if tau
    degenerates (|tau| < TAU_MIN) at the point.
    """
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ModelEvaluationError(f"evaluation point ({x}, {y}) is not finite")
    values = model.evaluate(float(x), float(y), COEFFICIENT_KEYS)
    out = dict(zip(COEFFICIENT_KEYS, values))
    for key, val in out.items():
        if not np.isfinite(val):
            raise ModelEvaluationError(
                f"model {model.name!r}: {key} is not finite at ({x}, {y})"
            )
    if abs(out["tau"]) < TAU_MIN:
        raise ModelEvaluationError(
            f"model {model.name!r}: tau degenerates at ({x}, {y}): "
            f"|tau|={abs(out['tau']):.3e} < {TAU_MIN:g}"
        )
    return out


def check_assumptions(
    model: CoefficientSet,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    p: int,
) -> AssumptionReport:
    """Evaluate the structural constants M_hat/K_hat on a grid.

    Parameters
    ----------
    x_range, y_range : (lo, hi)
        Evaluation box; must be non-empty.
    nx, ny : int
        Grid resolution per axis, at least 2.
    p : int
        Moment order; the constants weight derivatives by powers of 2p.

    Returns
    -------
    AssumptionReport
        ``passes`` is true iff the dissipativity margin K_hat > 0.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must have nx, ny >= 2 (got {nx}, {ny})")
    if p < 1 or int(p) != p:
        raise ValueError(f"moment order p must be an integer >= 1 (got {p})")
    if not (x_range[0] < x_range[1]) or not (y_range[0] < y_range[1]):
        raise ValueError(
            f"empty evaluation range x={tuple(x_range)}, y={tuple(y_range)}"
        )
    p = int(p)
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    d1f, d1t, d2t, d2f = model.evaluate(X, Y, ("d1_f", "d1_tau", "d2_tau", "d2_f"))
    d1f, d1t, d2t = np.abs(d1f), np.abs(d1t), np.abs(d2t)

    m_expr = d1f + 2 * (2 * p - 1) * d1t**2 + d2t**2
    k_expr = np.broadcast_to(
        (2 * p - 1) * d1f
        + (2 * p - 1) * (2 * p - 2) * d1t**2
        + 2 * p * (2 * p - 1) * d2t**2
        + 2 * p * d2f,
        X.shape,
    )
    worst = np.unravel_index(int(np.argmax(k_expr)), k_expr.shape)
    k_hat = -float(np.max(k_expr))
    return AssumptionReport(
        p=p,
        M_hat=float(np.max(m_expr)),
        K_hat=k_hat,
        grid={
            "x_range": [float(x_range[0]), float(x_range[1])],
            "y_range": [float(y_range[0]), float(y_range[1])],
            "nx": nx,
            "ny": ny,
        },
        passes=bool(k_hat > 0.0),
        worst_point=(float(X[worst]), float(Y[worst])),
    )


def validate_partials(model: CoefficientSet, sample_points) -> float:
    """Cross-check every supplied partial against a central difference.

    First partials are differenced from the parent function; second
    partials from the corresponding first partial (d12 from d1 in y).
    Returns the max over points and partials of

        |supplied - finite difference| / (1 + |supplied|).
    """
    h = _FD_STEP
    worst = 0.0
    pairs = []
    for g in _FUNC_NAMES:
        base = getattr(model, g)
        d1 = getattr(model, "d1_" + g)
        d2 = getattr(model, "d2_" + g)
        pairs.extend(
            [
                (d1, base, "x"),
                (d2, base, "y"),
                (getattr(model, "d11_" + g), d1, "x"),
                (getattr(model, "d12_" + g), d1, "y"),
                (getattr(model, "d22_" + g), d2, "y"),
            ]
        )
    for x, y in sample_points:
        for supplied, parent, axis in pairs:
            if axis == "x":
                fd = (parent(x + h, y) - parent(x - h, y)) / (2 * h)
            else:
                fd = (parent(x, y + h) - parent(x, y - h)) / (2 * h)
            val = float(supplied(x, y))
            worst = max(worst, abs(val - float(fd)) / (1.0 + abs(val)))
    return worst
