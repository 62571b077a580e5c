"""Coefficient models for coupled slow-fast stochastic systems.

A model bundles the four coefficient functions of the system

    dX_t = c(X_t, Y_t) dt + sqrt(eps) * sigma(X_t, Y_t) dW^1_t
    dY_t = (1/eta) f(X_t, Y_t) dt + (1/sqrt(eta)) tau(X_t, Y_t) dW^2_t

together with every first- and second-order partial derivative that the
tangent (sensitivity) equations downstream need.  Models are defined as
expression strings in ``x`` and ``y``, which this module parses (with
Python's ``ast``, admitting only the grammar of :func:`_parse_expression`)
into small expression trees and differentiates symbolically by the sum,
product, power and chain rules (forward symbolic differentiation;
Griewank & Walther, *Evaluating Derivatives*, SIAM 2008), so the
supplied derivatives are exact.  No sympy code runs.  All 24 trees
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

import ast
import dataclasses
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np
import sympy  # unused here; `import fastslow` loads it for perfbench's version read

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

# Expression strings may only use numbers, x/y, the allowed function
# names, arithmetic operators and parentheses.
_TEXT_OK = re.compile(r"^[0-9a-zA-Z_+\-*/^(). \t]*$")
# A name (the group), or a number with its exponent, so that 1e6 holds no name.
_NAME = re.compile(r"([A-Za-z_]\w*)|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
#: Functions an expression may apply; ``log`` enters only through the
#: derivative of a power whose exponent depends on x or y.
_PARSED_FUNCS = ("sin", "cos", "tanh", "exp", "sqrt")
#: Order of function applications among the factors of a product and the
#: terms of a sum.
_FUNC_ORDER = ("exp", "log", "sin", "cos", "tanh")


class ExpressionError(ValueError):
    """A model expression failed to parse or used a disallowed symbol."""


class ModelEvaluationError(ValueError):
    """A coefficient function produced a non-finite or degenerate value."""


# Expression trees.  The constructors _add, _mul and _pow keep every tree
# canonical: sums and products are flat, their numbers folded into one
# constant or coefficient, like terms and like powers combined, 0 terms
# and exact 1 factors dropped, and the terms and factors sorted, so equal
# trees compare equal.  A number is exact (int or Fraction) or a float; a
# float stays a float, as in 1.0*x.


class _Expr:
    """A node of a coefficient expression tree."""

    #: True only for the number 0, whose kernel value is 0.0 everywhere.
    is_zero = False


@dataclass(frozen=True)
class _Num(_Expr):
    value: int | Fraction | float
    is_float: bool

    @property
    def is_zero(self) -> bool:
        return self.value == 0


@dataclass(frozen=True)
class _Sym(_Expr):
    name: str


@dataclass(frozen=True)
class _Pi(_Expr):
    pass


@dataclass(frozen=True)
class _Call(_Expr):
    func: str
    arg: _Expr


@dataclass(frozen=True)
class _Pow(_Expr):
    base: _Expr
    exp: _Expr


@dataclass(frozen=True)
class _Mul(_Expr):
    """coeff times the factors: at least one, none a number or a product."""

    coeff: _Num
    factors: tuple[_Expr, ...]


@dataclass(frozen=True)
class _Add(_Expr):
    """const plus the terms: at least one, none a number or a sum."""

    const: _Num
    terms: tuple[_Expr, ...]


def _num(value) -> _Num:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ExpressionError(f"a constant of the expression is {value}")
        return _Num(value, True)
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    return _Num(value, False)


_ZERO, _ONE, _MINUS_ONE, _TWO, _HALF = (_num(v) for v in (0, 1, -1, 2, Fraction(1, 2)))


def _is_one(num: _Num) -> bool:
    return num.value == 1 and not num.is_float


def _key(e: _Expr) -> tuple:
    """A total order on trees: numbers, pi, symbols, sums, function
    applications, products, powers."""
    if isinstance(e, _Num):
        return (0, e.value, e.is_float)
    if isinstance(e, _Pi):
        return (1,)
    if isinstance(e, _Sym):
        return (2, e.name)
    if isinstance(e, _Add):
        return (3, tuple(map(_term_key, e.terms)), _key(e.const))
    if isinstance(e, _Call):
        return (4, _FUNC_ORDER.index(e.func), _key(e.arg))
    if isinstance(e, _Mul):
        return (5, _term_key(e), _key(e.coeff))
    return (6, _key(e.base), _key(e.exp))


def _factor_key(f: _Expr) -> tuple:
    """A product's factors sort by base, then exponent."""
    return (_key(f.base), _key(f.exp)) if isinstance(f, _Pow) else (_key(f), _key(_ONE))


def _term_key(t: _Expr) -> tuple:
    """A sum's terms sort by their factors, whatever their coefficients."""
    return tuple(map(_factor_key, t.factors if isinstance(t, _Mul) else (t,)))


def _split(t: _Expr) -> tuple:
    """(coefficient, factors) of a term."""
    if isinstance(t, _Mul):
        return t.coeff.value, t.factors
    return 1, (t,)


def _term(coeff, factors: tuple) -> _Expr:
    if len(factors) == 1 and coeff == 1 and not isinstance(coeff, float):
        return factors[0]
    return _Mul(_num(coeff), factors)


def _add(*args: _Expr) -> _Expr:
    const = 0
    coeffs: dict[tuple, object] = {}
    for a in args:
        if isinstance(a, _Add):
            const += a.const.value
            parts = a.terms
        elif isinstance(a, _Num):
            if not a.is_zero:
                const += a.value
            continue
        else:
            parts = (a,)
        for t in parts:
            c, factors = _split(t)
            coeffs[factors] = coeffs.get(factors, 0) + c
    terms = sorted(
        (_term(c, factors) for factors, c in coeffs.items() if c != 0), key=_term_key
    )
    if not terms:
        return _num(const)
    if len(terms) == 1 and const == 0:
        return terms[0]
    return _Add(_num(const), tuple(terms))


def _negated(s: _Add) -> _Add:
    return _Add(_num(-s.const.value), tuple(_term(-c, f) for c, f in map(_split, s.terms)))


def _mul(*args: _Expr) -> _Expr:
    """The product of ``args``.  A sum factor keeps a positive leading
    term, its sign moving to the coefficient, and a product of a number
    and one sum is distributed over the sum's terms."""
    coeff = 1
    exponents: dict[_Expr, list[_Expr]] = {}
    flat = []
    for a in args:
        if isinstance(a, _Mul):
            coeff *= a.coeff.value
            flat.extend(a.factors)
        elif isinstance(a, _Num):
            coeff *= a.value
        else:
            flat.append(a)
    for f in flat:
        if isinstance(f, _Add) and _split(f.terms[0])[0] < 0:
            coeff, f = -coeff, _negated(f)
        base, exp = (f.base, f.exp) if isinstance(f, _Pow) else (f, _ONE)
        exponents.setdefault(base, []).append(exp)
    powers = [_pow(base, _add(*exps)) for base, exps in exponents.items()]
    if any(isinstance(p, _Mul) for p in powers):
        return _mul(_num(coeff), *powers)
    factors = []
    for p in powers:
        if isinstance(p, _Num):
            coeff *= p.value
        else:
            factors.append(p)
    if coeff == 0:
        return _ZERO
    if not factors:
        return _num(coeff)
    if len(factors) == 1 and isinstance(factors[0], _Add):
        s = factors[0]
        return _add(_num(coeff * s.const.value), *(_mul(_num(coeff), t) for t in s.terms))
    return _term(coeff, tuple(sorted(factors, key=_factor_key)))


def _root(n: int, q: int) -> int | None:
    """The integer q-th root of n >= 0, if there is one."""
    if n < 2:
        return n
    guess = round(math.exp(math.log(n) / q))
    return next((r for r in (guess - 1, guess, guess + 1) if r >= 0 and r**q == n), None)


def _pow_num(b: _Num, e: _Num) -> _Expr:
    """b**e of two numbers: folded, unless an exact root is irrational, as
    sqrt(2), which stays a power."""
    if b.is_float or e.is_float:
        value = float(b.value) ** float(e.value)
        if isinstance(value, complex):
            raise ExpressionError(f"{b.value}**{e.value} is not real")
        return _num(value)
    if b.value == 0 and e.value < 0:
        raise ExpressionError("division by zero")
    p, q = Fraction(e.value).as_integer_ratio()
    base = Fraction(b.value)
    if q == 1:
        if abs(p) * max(base.numerator.bit_length(), base.denominator.bit_length()) > 4096:
            return _num(float(base) ** p)
        return _num(base**p)
    if base < 0:
        raise ExpressionError(f"{b.value}**({e.value}) is not real")
    roots = (_root(base.numerator, q), _root(base.denominator, q))
    if None in roots:
        return _Pow(b, e)
    return _pow_num(_num(Fraction(*roots)), _num(p))


def _pow(b: _Expr, e: _Expr) -> _Expr:
    if isinstance(e, _Num):
        if e.value == 0:
            return _num(1.0 if e.is_float else 1)
        if _is_one(e):
            return b
        if isinstance(b, _Num):
            return _pow_num(b, e)
        if not e.is_float and isinstance(e.value, int):
            if isinstance(b, _Pow):
                return _pow(b.base, _mul(b.exp, e))
            if isinstance(b, _Mul):
                return _mul(*(_pow(f, e) for f in (b.coeff, *b.factors)))
    if isinstance(b, _Num) and _is_one(b):
        return _ONE
    return _Pow(b, e)


def _call(func: str, arg: _Expr) -> _Expr:
    if arg.is_zero and func != "log":
        return _ONE if func in ("cos", "exp") else _ZERO
    if func == "log" and isinstance(arg, _Num) and _is_one(arg):
        return _ZERO
    return _Call(func, arg)


#: d func(u) / du, as a tree in u.
_DERIVATIVE = {
    "sin": lambda u: _call("cos", u),
    "cos": lambda u: _mul(_MINUS_ONE, _call("sin", u)),
    "tanh": lambda u: _add(_ONE, _mul(_MINUS_ONE, _pow(_call("tanh", u), _TWO))),
    "exp": lambda u: _call("exp", u),
    "log": lambda u: _pow(u, _MINUS_ONE),
}


def _diff(e: _Expr, var: str) -> _Expr:
    """d e / d var by the sum, product, power and chain rules."""
    if isinstance(e, _Sym):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, _Add):
        return _add(*(_diff(t, var) for t in e.terms))
    if isinstance(e, _Mul):
        fs = e.factors
        return _add(
            *(_mul(e.coeff, *fs[:i], _diff(f, var), *fs[i + 1 :]) for i, f in enumerate(fs))
        )
    if isinstance(e, _Pow):
        d_base, d_exp = _diff(e.base, var), _diff(e.exp, var)
        if d_exp.is_zero:
            return _mul(e.exp, _pow(e.base, _add(e.exp, _MINUS_ONE)), d_base)
        return _mul(
            e,
            _add(
                _mul(d_exp, _call("log", e.base)),
                _mul(e.exp, d_base, _pow(e.base, _MINUS_ONE)),
            ),
        )
    if isinstance(e, _Call):
        return _mul(_DERIVATIVE[e.func](e.arg), _diff(e.arg, var))
    return _ZERO


# Printing.  Each tree prints as the Python text that numpy evaluates:
# terms left to right in the order of the sum, factors left to right
# after the coefficient, negative exact powers as a divisor, and every
# function application as a name bound once per kernel.

_ATOM, _POW, _MUL, _ADD = 1000, 60, 50, 40


def _precedence(e: _Expr) -> int:
    if isinstance(e, _Num):
        if e.value < 0:
            return _ADD
        return _MUL if isinstance(e.value, Fraction) else _ATOM
    if isinstance(e, _Add):
        return _ADD
    if isinstance(e, _Mul):
        return _ADD if e.coeff.value < 0 else _MUL
    if isinstance(e, _Pow):
        return _POW
    return _ATOM


def _negative_exact_power(f: _Expr) -> bool:
    return (
        isinstance(f, _Pow)
        and isinstance(f.exp, _Num)
        and not f.exp.is_float
        and f.exp.value < 0
    )


def _is_negated_one(t: _Expr) -> bool:
    """A term -c*u of one factor: a positive constant prints before it."""
    return isinstance(t, _Mul) and t.coeff.value < 0 and len(t.factors) == 1


class _Printer:
    """Prints trees as numpy code; each function application is printed
    once, as a name, and :attr:`calls` maps its text to the name.

    Nested applications are named first, so the calls can be assigned in
    the order of :attr:`calls`.  A tree prints the same text whatever
    else the printer printed, up to the numbering of the names, so a
    key's arithmetic, and thus its bits, do not depend on the keys
    printed with it.  :attr:`numpy_names` are the numpy functions and
    constants the texts use.
    """

    def __init__(self):
        self.calls: dict[str, str] = {}
        self.numpy_names: set[str] = set()

    def _parens(self, e: _Expr, level: float) -> str:
        text = self.doprint(e)
        return f"({text})" if _precedence(e) <= level else text

    def doprint(self, e: _Expr) -> str:
        if isinstance(e, _Num):
            if isinstance(e.value, Fraction):
                return f"{e.value.numerator}/{e.value.denominator}"
            return repr(e.value) if e.is_float else str(e.value)
        if isinstance(e, _Sym):
            return e.name
        if isinstance(e, _Pi):
            self.numpy_names.add("pi")
            return "pi"
        if isinstance(e, _Call):
            text = f"{e.func}({self.doprint(e.arg)})"
            self.numpy_names.add(e.func)
            return self.calls.setdefault(text, f"_call{len(self.calls)}")
        if isinstance(e, _Pow):
            if e.exp == _HALF:
                self.numpy_names.add("sqrt")
                return f"sqrt({self.doprint(e.base)})"
            if _negative_exact_power(e):
                return self._product(_Mul(_ONE, (e,)))
            return f"{self._parens(e.base, _POW)}**{self._parens(e.exp, _POW)}"
        if isinstance(e, _Mul):
            return self._product(e)
        return self._sum(e)

    def _sum(self, e: _Add) -> str:
        terms = list(e.terms)
        const = e.const
        if const.value > 0 and len(terms) == 1 and _is_negated_one(terms[0]):
            terms.insert(0, const)
        elif not const.is_zero:
            terms.append(const)
        parts = []
        for t in terms:
            text = self.doprint(t)
            parts += ["-", text[1:]] if text.startswith("-") else ["+", text]
        return ("-" if parts[0] == "-" else "") + " ".join(parts[1:])

    def _product(self, e: _Mul) -> str:
        level = _precedence(e)
        coeff = e.coeff.value
        sign = "-" if coeff < 0 else ""
        numerator = [] if abs(coeff) == 1 and not e.coeff.is_float else [_num(abs(coeff))]
        divisor = []
        for f in e.factors:
            if _negative_exact_power(f):
                exp = -f.exp.value
                divisor.append(f.base if exp == 1 else _Pow(f.base, _num(exp)))
            else:
                numerator.append(f)
        numerator = numerator or [_ONE]
        if sign and len(numerator) == 1:
            # Python's unary minus binds between ``*`` and ``**``.
            text = sign + self._parens(numerator[0], (_POW + _MUL) / 2)
        else:
            text = sign + "*".join(self._parens(f, level) for f in numerator)
        below = [self._parens(f, level) for f in divisor]
        if len(below) == 1:
            return f"{text}/{below[0]}"
        return f"{text}/({'*'.join(below)})" if below else text


def _compile_kernel(exprs) -> Callable:
    """A function of (x, y) returning the tuple of ``exprs``' values,
    with each function application evaluated once."""
    printer = _Printer()
    values = [printer.doprint(e) for e in exprs]
    lines = [f"    {name} = {text}\n" for text, name in printer.calls.items()]
    returned = "".join(value + ", " for value in values)
    source = "def kernel(x, y):\n" + "".join(lines) + f"    return ({returned})\n"
    # Only the numpy names the texts use: a star import of numpy would
    # load numpy.f2py and numpy.testing, which numpy.__all__ names.
    namespace = {name: getattr(np, name) for name in printer.numpy_names}
    exec(source, namespace)
    return namespace["kernel"]


def _constant_parts(e: _Expr, out: list) -> bool:
    """Whether ``e`` reads neither x nor y.  When it reads one, each of
    its largest subtrees that reads neither and is not a number or pi is
    appended to ``out``."""
    if isinstance(e, _Sym):
        return False
    if isinstance(e, (_Num, _Pi)):
        return True
    if isinstance(e, _Call):
        children = (e.arg,)
    elif isinstance(e, _Pow):
        children = (e.base, e.exp)
    else:
        children = e.factors if isinstance(e, _Mul) else e.terms
    constant = [_constant_parts(child, out) for child in children]
    if all(constant):
        return True
    out.extend(
        child for child, c in zip(children, constant) if c and not isinstance(child, (_Num, _Pi))
    )
    return False


def _check_constants(trees) -> None:
    """ExpressionError naming the first constant subtree of ``trees``
    (one that reads neither x nor y and is not a number) whose kernel
    value is not real: a complex number, as ``(-pi)**0.5`` gives, or NaN,
    as ``sqrt(-pi)`` gives.  Such a constant does not fold at parse, and
    a kernel would otherwise return it, or drop its imaginary part."""
    parts: list[_Expr] = []
    for tree in trees:
        if _constant_parts(tree, parts) and not isinstance(tree, (_Num, _Pi)):
            parts.append(tree)
    if not parts:
        return
    parts = list(dict.fromkeys(parts))
    with np.errstate(all="ignore"):
        values = _compile_kernel(parts)(0.0, 0.0)
    for part, value in zip(parts, values):
        if np.iscomplexobj(value) or np.isnan(value):
            printer = _Printer()
            text = printer.doprint(part)
            # Later calls may name earlier ones, so they are put back first.
            for call, name in reversed(printer.calls.items()):
                text = text.replace(name, call)
            raise ExpressionError(f"the constant {text} is not real (it evaluates to {value})")


class CoefficientTable:
    """The symbolic table of a model's 24 coefficient expressions.

    ``expressions`` maps each key to its expression tree; a tree's
    ``is_zero`` is true only for the constant 0.  :meth:`evaluate` runs
    one kernel per requested key tuple, compiled on first use and
    cached, so a hot loop that asks for the same keys every step pays
    one Python call per step.  A kernel evaluates each function
    application of the tuple once and prints every key as it prints
    alone, so each value is bit-equal to the key's own one-key kernel,
    whatever tuple it is asked with.  The library starts no threads: its
    workers are forked processes, and each inherits the kernels compiled
    before the fork (:meth:`CoefficientSet.compile`); a kernel that a
    worker compiles itself stays in that worker's copy of the cache.
    """

    def __init__(self, expressions: Mapping[str, _Expr]):
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


#: The names an expression may use as values.
_VALUES = {"x": _Sym("x"), "y": _Sym("y"), "pi": _Pi()}

#: The tree of each binary operator of the grammar; ``^`` is read as ``**``.
_BINARY = {
    ast.Add: _add,
    ast.Sub: lambda a, b: _add(a, _mul(_MINUS_ONE, b)),
    ast.Mult: _mul,
    ast.Div: lambda a, b: _mul(a, _pow(b, _MINUS_ONE)),
    ast.Pow: _pow,
}


def _tree(node: ast.AST, text: str) -> _Expr:
    """The tree of one node of Python's parse of an expression; any node
    outside the grammar raises :class:`ExpressionError`."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _num(node.value)
    if isinstance(node, ast.Name) and node.id in _VALUES:
        return _VALUES[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_tree(node.left, text), _tree(node.right, text))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _tree(node.operand, text)
        return operand if isinstance(node.op, ast.UAdd) else _mul(_MINUS_ONE, operand)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _PARSED_FUNCS
        and len(node.args) == 1
        and not node.keywords
    ):
        arg = _tree(node.args[0], text)
        return _pow(arg, _HALF) if node.func.id == "sqrt" else _call(node.func.id, arg)
    raise ExpressionError(f"expression {text!r}: {ast.unparse(node)!r} is outside the grammar")


def _parse_expression(text: str) -> _Expr:
    """Parse one coefficient expression over the variables x, y.

    Allowed: numbers, x, y, + - * / ^ ** ( ), unary minus and plus, and
    sin, cos, tanh, exp, sqrt of one argument, and pi.  Anything else is
    rejected.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("coefficient expression must be a non-empty string")
    if "__" in text or not _TEXT_OK.match(text):
        raise ExpressionError(f"disallowed characters in expression {text!r}")
    unknown = set(_NAME.findall(text)) - {"", *_VALUES, *_PARSED_FUNCS}
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ExpressionError(f"expression {text!r} uses unknown name(s): {names}")
    try:
        node = ast.parse(text.replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ExpressionError(f"could not parse expression {text!r}: {exc}") from exc
    return _tree(node, text)


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
    exprs: dict[str, _Expr] = {}
    for func, text in texts.items():
        try:
            expr = _parse_expression(text)
            d1, d2 = _diff(expr, "x"), _diff(expr, "y")
            trees = {
                func: expr,
                "d1_" + func: d1,
                "d2_" + func: d2,
                "d11_" + func: _diff(d1, "x"),
                "d12_" + func: _diff(d1, "y"),
                "d22_" + func: _diff(d2, "y"),
            }
            _check_constants(trees.values())
            exprs.update(trees)
        except (ExpressionError, ArithmeticError, RecursionError) as exc:
            raise ExpressionError(f"coefficient {func!r}: {exc}") from exc
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


def _is_int(value) -> bool:
    """The package's one integer rule for steps and counts: an int or a
    numpy integer is one; a bool or a float such as 2.0 is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_positive(**sizes) -> None:
    """Raise ValueError naming the first size that is not an integer
    (:func:`_is_int`) >= 1."""
    for name, value in sizes.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer >= 1 (got {value!r})")
        if value < 1:
            raise ValueError(f"{name} must be >= 1 (got {value})")


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
        Grid resolution per axis, integers of at least 2.
    p : int
        Moment order, an integer >= 1; the constants weight derivatives
        by powers of 2p.

    Returns
    -------
    AssumptionReport
        ``passes`` is true iff the dissipativity margin K_hat > 0.
    """
    _require_positive(nx=nx, ny=ny, p=p)
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must have nx, ny >= 2 (got {nx}, {ny})")
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
