"""Tangent (Malliavin derivative) processes along simulated paths.

A noise perturbation of channel j at time r propagates through the
system as the first-order tangent pair (DX, DY) solving the affine
system driven by the same increments as the base path:

    DX_t = 1_{j=1} sqrt(eps) sigma(X_r, Y_r)
           + int_r^t [d1_c DX + d2_c DY] ds
           + sqrt(eps) int_r^t [d1_sigma DX + d2_sigma DY] dW^1,
    DY_t = 1_{j=2} tau(X_r, Y_r)/sqrt(eta)
           + (1/eta) int_r^t [d1_f DX + d2_f DY] ds
           + (1/sqrt(eta)) int_r^t [d1_tau DX + d2_tau DY] dW^2.

Second-order tangents (sensitivities of the first-order ones, with
perturbation times r1, r2 and channels j1, j2) satisfy the same
homogeneous system forced by second-derivative source terms built from
products of first-order tangents; they start at t = r1 v r2 from the
initial data

    D2X = sqrt(eps) * alpha_1,   D2Y = alpha_2 / sqrt(eta),

where alpha_1 collects d_sigma--weighted first-order values at the
perturbation times (when the matching channel is 1) and alpha_2 the
d_tau--weighted analogue (channel 2).

The fast tangent equation has the exponential fundamental solution

    Z_{r}(t) = exp( (1/eta) int_r^t d2_f ds
                    + (1/sqrt(eta)) int_r^t d2_tau dW^2
                    - (1/(2 eta)) int_r^t d2_tau^2 ds ),

which decays like exp(-K (t - r)/eta) in mean square under the
dissipativity margin K of :func:`fastslow.coefficients.check_assumptions`;
D^{W2}Y splits as Q1 + Q2 with Q1 = Z * tau(X_r, Y_r)/sqrt(eta) and Q2
the response to the D^{W2}X feedback.

Both tangent orders are advanced by one forward pass over noise,
:func:`_tangent_pass`: it runs the Euler-Maruyama recursion over the
noise blocks it is given, and the same increments drive the base path
and its tangents.  Each step makes one kernel call, of the 4 EM keys
before the first tangent starts and of all 24 coefficient keys from
there, which the tangent steps read too.  The steps leave out every
term whose partial is identically zero for the model.  Its first-order
state is a list of tangents (j, r), the ones a caller reads joined with
the two factors of every cell, and its second-order state a list of
cells (j1, j2, r1, r2), one D2_{r1,r2} per channel pair and time pair
that a caller reads: it holds O((n_tangents + n_cells) n_paths) values.
Both lists are sorted by start, so the started rows are a prefix, and
each tangent and each cell is stepped only from its own start.  The
pass always draws its noise from the streams, so no noise is stored:
the moment sweeps feed it the streams of their own points, and every
function of a :class:`~fastslow.sde_engine.PathBundle` replays the
bundle through it (:func:`_bundle_pass`), from its initial state on the
noise redrawn from its streams, so none reads a stored path:
:func:`first_order_tangents` asks for both channels at every r of its
grid, :func:`second_order_tangents` for every cell of its combos x pairs
product, and :func:`z_process` and :func:`q_decomposition` for the W2
tangent at r; all but the second also read the pass at every step.

The module also evaluates the Monte Carlo moment-inequality suite
(scaling of tangent moments in eps and eta), the H-norm and
contraction norm of the final-time derivative kernels, and a quadruple
time-decay integral with an exact closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from fastslow.coefficients import (
    ASSUMPTION_GRID,
    COEFFICIENT_KEYS,
    CoefficientSet,
    check_assumptions,
)
from fastslow.sde_engine import (
    PURPOSE_DECAY_CHECK,
    PURPOSE_MOMENT_SWEEP,
    STABILITY_FRACTION,
    PathBundle,
    ScaleRegime,
    _check_stability,
    _EM_KEYS,
    _em_states,
    _joined_paths,
    _noise_blocks,
    _require_positive,
    _run_shares,
    _split,
    _StepScales,
    _workers,
    simulate_paths,  # noqa: F401  (perfbench's tracer wraps it here)
    time_grid,
)

__all__ = [
    "FirstOrderTangents",
    "SecondOrderTangents",
    "MomentPoint",
    "MomentReport",
    "DecayReport",
    "QuadrupleIntegralReport",
    "TangentBlowUpError",
    "DecompositionError",
    "first_order_tangents",
    "second_order_tangents",
    "z_process",
    "q_decomposition",
    "hnorm_first",
    "contraction_norm_second",
    "moment_sweep",
    "decay_check",
    "quadruple_analytic",
    "quadruple_brute_force",
    "quadruple_quadrature",
    "quadruple_envelope",
    "quadruple_integral_check",
    "BOUND_IDS",
    "check_decay_settings",
    "full_pair_grid",
    "default_r_grid",
    "DECAY_SEPARATIONS",
]

#: Moment-suite bound identifiers (see :func:`moment_sweep`).
BOUND_IDS = (
    "dw1_x_sup",
    "dw2_x_sup",
    "dw2_y_final",
    "d2x_w1w1",
    "d2x_w1w2",
    "d2x_w2w2",
)
#: The second-order bounds at a separated pair (r1, r2).
_MIXED_BOUNDS = ("d2x_w1w2", "d2x_w2w2")
#: The first-order perturbation times of :func:`moment_sweep`, as
#: fractions of the horizon.
_R_SELECTION = (0.25, 0.5, 0.75)
#: Default separations of :func:`decay_check`, in units of eta.
DECAY_SEPARATIONS = (1.0, 3.0, 10.0)
#: :func:`quadruple_quadrature` stops at this relative change or beyond
#: this many panels per axis; :func:`quadruple_integral_check` runs it
#: up to k = ``_QUADRATURE_MAX_K``.
_QUADRATURE_REL_TOL = 1e-6
_QUADRATURE_MAX_PANELS = 512
_QUADRATURE_MAX_K = 6.0

#: Every channel pair (j1, j2), 0 = W1 and 1 = W2, in row-major order.
_ALL_COMBOS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: The rows of one tangent pass (:func:`_tangent_pass`), first- and
#: second-order.
_FIRST_ROWS = ("final_dx", "final_dy", "sup_abs_dx", "sup_abs_dy")
_SECOND_ROWS = ("final_d2x", "final_d2y", "sup_abs_d2x", "sup_abs_d2y")

#: Soft cap on tangent series allocations (bytes).
_SERIES_BYTE_CAP = 2 * 1024**3

#: Partials one first-order tangent step reads.
_FIRST_KEYS = (
    "d1_c", "d2_c", "d1_sigma", "d2_sigma", "d1_f", "d2_f", "d1_tau", "d2_tau"
)
#: All 20 partials, in table order: what one second-order step reads.
_PARTIAL_KEYS = tuple(k for k in COEFFICIENT_KEYS if k.startswith("d"))
#: Partials the second-order initial data reads at the perturbation times.
_ALPHA_KEYS = ("d1_sigma", "d2_sigma", "d1_tau", "d2_tau")


def _picker(keys: tuple[str, ...], zero: frozenset[str] = frozenset()):
    """Picks the values of ``keys`` from a tuple of all 24 key values;
    a key in ``zero`` is picked as None."""
    none_at = len(COEFFICIENT_KEYS)
    pick = itemgetter(
        *(none_at if key in zero else COEFFICIENT_KEYS.index(key) for key in keys)
    )
    return lambda values: pick((*values, None))


def _zero_partials(model: CoefficientSet) -> frozenset[str]:
    """The partials whose expression is the constant 0, which
    :meth:`~fastslow.coefficients.CoefficientSet.evaluate` returns as the
    float 0.0 at every state.  A partial that vanishes only at some
    states is not among them."""
    expressions = model.table.expressions
    return frozenset(
        key for key in _PARTIAL_KEYS
        if expressions[key].is_Number and expressions[key].is_zero
    )


_alpha_partials = _picker(_ALPHA_KEYS)
_injection_values = _picker(("sigma", "tau"))
_tau = _picker(("tau",))
_fast_partials = _picker(("d1_f", "d2_f", "d1_tau", "d2_tau"))


class TangentBlowUpError(FloatingPointError):
    """A tangent trajectory became non-finite."""


class DecompositionError(ValueError):
    """Q1 + Q2 failed to reconstruct D^{W2}Y within tolerance."""


@dataclass(frozen=True)
class FirstOrderTangents:
    """First-order tangents for both channels over an r-grid.

    ``DX``/``DY`` (when stored) have shape (2, n_r, n_t, n_paths) with
    channel axis j in {0: W1-derivative, 1: W2-derivative}; entries are
    zero for t < r.  ``final_*`` and ``sup_abs_*`` (shape (2, n_r,
    n_paths)) are always recorded.
    """

    r_indices: np.ndarray
    r_values: np.ndarray
    regime: ScaleRegime
    dt: float
    final_dx: np.ndarray
    final_dy: np.ndarray
    sup_abs_dx: np.ndarray
    sup_abs_dy: np.ndarray
    DX: np.ndarray | None = None
    DY: np.ndarray | None = None

    def position(self, r_index: int) -> int:
        """Row of ``r_index`` on the r-axis."""
        hits = np.nonzero(self.r_indices == r_index)[0]
        if len(hits) == 0:
            raise KeyError(f"r-index {r_index} not in tangent r-grid")
        return int(hits[0])


@dataclass(frozen=True)
class SecondOrderTangents:
    """Second-order tangents on a list of (r1, r2) index pairs.

    ``combos`` is the channel-pair axis ((j1, j2) with 0 = W1, 1 = W2);
    ``final_*`` and ``sup_abs_*`` have shape (n_combos, n_pairs,
    n_paths).
    """

    combos: tuple[tuple[int, int], ...]
    pair_indices: np.ndarray
    pair_values: np.ndarray
    regime: ScaleRegime
    dt: float
    final_d2x: np.ndarray
    final_d2y: np.ndarray
    sup_abs_d2x: np.ndarray
    sup_abs_d2y: np.ndarray


def default_r_grid(n_steps: int, n_r: int = 16) -> np.ndarray:
    """n_r equispaced step indices spanning [0, T] (first..last step)."""
    return np.unique(np.round(np.linspace(0, n_steps, n_r)).astype(int))


def full_pair_grid(r_indices: Sequence[int]) -> np.ndarray:
    """All (r1, r2) pairs of an r-grid in row-major order."""
    r = _step_indices(r_indices)
    return np.array([(a, b) for a in r for b in r], dtype=int)


def _step_indices(values) -> np.ndarray:
    """``values`` as a flat int array; ValueError naming the first one
    that is not integral (a cast would truncate 10.7 to step 10)."""
    arr = np.asarray(values).ravel()
    if arr.dtype.kind in "iu":
        return arr.astype(int)
    flat = arr.astype(float)
    bad = ~(np.isfinite(flat) & (flat == np.round(flat)))
    if bad.any():
        raise ValueError(f"r-index {flat[bad][0]} is not an integer")
    return flat.astype(int)


def _r_grid(n_steps: int, r_indices: Sequence[int]) -> np.ndarray:
    """Sorted distinct perturbation steps of ``r_indices``.

    Raises ValueError when there is none, or naming the first step that
    is not an integer or lies outside [0, n_steps].
    """
    r_idx = np.unique(_step_indices(r_indices))
    if len(r_idx) == 0:
        raise ValueError("need at least one perturbation index")
    outside = r_idx[(r_idx < 0) | (r_idx > n_steps)]
    if len(outside):
        raise ValueError(f"r-index {outside[0]} outside [0, {n_steps}]")
    return r_idx


def _check_bytes(*shape: int) -> None:
    need = 8 * int(np.prod([int(s) for s in shape]))
    if need > _SERIES_BYTE_CAP:
        raise MemoryError(
            f"tangent series of shape {shape} needs {need / 1e9:.1f} GB; "
            "reduce the r-grid, the path count, or disable store_series"
        )


def _inject_first(dx, dy, i: int, j: int, sigma, tau, s: _StepScales) -> None:
    """Start row i, the tangent of channel j: (sqrt(eps) sigma, 0) on W1
    or (0, tau/sqrt(eta)) on W2, with sigma, tau at the perturbation time."""
    dx[i] = s.eps_root * sigma if j == 0 else 0.0
    dy[i] = tau / s.eta_root if j == 1 else 0.0


def _times(coef, value):
    """coef * value, or None where ``coef`` is None (an identically zero
    partial)."""
    return None if coef is None else coef * value


def _sum(*terms):
    """The left-to-right sum of the terms that are not None, or None when
    none is left.  Leaving out an identically zero term adds 0.0 nowhere,
    so every remaining sum keeps its bits."""
    total = None
    for term in terms:
        if term is not None:
            total = term if total is None else total + term
    return total


def _reads(*coefs) -> bool:
    """Whether any of the partials ``coefs`` is not identically zero."""
    return any(c is not None for c in coefs)


def _advance(x, y, drift_x, noise_x, drift_y, noise_y, w1, w2, s: _StepScales):
    """The explicit step of a tangent pair, in place:

        x += drift_x dt + sqrt(eps) noise_x dW1,
        y += drift_y dt/eta + noise_y dW2/sqrt(eta),

    where a sum that is None (all its terms identically zero) adds
    nothing.  The sums are formed from x and y before the call."""
    if drift_x is not None:
        x += drift_x * s.dt
    if noise_x is not None:
        x += s.eps_root * noise_x * w1
    if drift_y is not None:
        y += drift_y * (s.dt / s.eta)
    if noise_y is not None:
        y += noise_y * (w2 / s.eta_root)


def _first_step(d, dx, dy, w1, w2, s: _StepScales, k: int, tangents):
    """Advance the (n, n_paths) first-order rows ``dx``, ``dy`` over step
    k, in place; row i is the tangent (j, r) = ``tangents[i]``.

    ``d`` holds the :data:`_FIRST_KEYS` partials on the base state at k,
    None for each that is identically zero; their terms are left out.
    """
    d1c, d2c, d1s, d2s, d1f, d2f, d1t, d2t = d
    _advance(
        dx, dy,
        _sum(_times(d1c, dx), _times(d2c, dy)),
        _sum(_times(d1s, dx), _times(d2s, dy)),
        _sum(_times(d1f, dx), _times(d2f, dy)),
        _sum(_times(d1t, dx), _times(d2t, dy)),
        w1, w2, s,
    )
    if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
        bad = np.argwhere(~(np.isfinite(dx) & np.isfinite(dy)))
        j, r = tangents[int(bad[0][0])]
        raise TangentBlowUpError(
            f"first-order tangent blew up at step {k + 1} "
            f"(channel W{j + 1}, r-index {r})"
        )


def _second_start(j1, j2, alpha_1, alpha_2, at_1, at_2, s: _StepScales):
    """Initial (D2X, D2Y), each (n_paths,), of one cell at max(r1, r2).

    ``alpha_i`` holds the :data:`_ALPHA_KEYS` partials at r_i; ``at_1``
    is (DX, DY) of the (j2, r2) tangent at time r1 and ``at_2`` that of
    the (j1, r1) tangent at time r2 (zero when the time precedes the
    perturbation).
    """
    d1s_1, d2s_1, d1t_1, d2t_1 = alpha_1
    d1s_2, d2s_2, d1t_2, d2t_2 = alpha_2
    dx_2_at_1, dy_2_at_1 = at_1
    dx_1_at_2, dy_1_at_2 = at_2
    alpha1 = (j1 == 0) * (d1s_1 * dx_2_at_1 + d2s_1 * dy_2_at_1) + (j2 == 0) * (
        d1s_2 * dx_1_at_2 + d2s_2 * dy_1_at_2
    )
    alpha2 = (j1 == 1) * (d1t_1 * dx_2_at_1 + d2t_1 * dy_2_at_1) + (j2 == 1) * (
        d1t_2 * dx_1_at_2 + d2t_2 * dy_1_at_2
    )
    return s.eps_root * alpha1, alpha2 / s.eta_root


def _second_step(p, d2x, d2y, factors, w1, w2, s: _StepScales, k, cells):
    """Advance the (n, n_paths) second-order rows ``d2x``, ``d2y`` over
    step k, in place; row i is the cell ``cells[i]``.

    ``p`` holds the :data:`_PARTIAL_KEYS` values on the base state at k,
    None for each that is identically zero; their terms are left out,
    and so is a product of factors that no remaining term reads.
    ``factors`` holds the first-order (DX1, DY1, DX2, DY2) of every row
    at k.
    """
    DX1, DY1, DX2, DY2 = factors
    (
        d1c, d2c, d11c, d12c, d22c,
        d1s, d2s, d11s, d12s, d22s,
        d1f, d2f, d11f, d12f, d22f,
        d1t, d2t, d11t, d12t, d22t,
    ) = p
    both_x = DX1 * DX2 if _reads(d11c, d11s, d11f, d11t) else None
    cross = DX1 * DY2 + DY1 * DX2 if _reads(d12c, d12s, d12f, d12t) else None
    both_y = DY1 * DY2 if _reads(d22c, d22s, d22f, d22t) else None

    def source(d11, d12, d22, last, state):
        return _sum(
            _times(d11, both_x), _times(d12, cross), _times(d22, both_y),
            _times(last, state),
        )

    b1c = source(d11c, d12c, d22c, d2c, d2y)
    b1s = source(d11s, d12s, d22s, d2s, d2y)
    b2f = source(d11f, d12f, d22f, d1f, d2x)
    b2t = source(d11t, d12t, d22t, d1t, d2x)
    _advance(
        d2x, d2y,
        _sum(_times(d1c, d2x), b1c),
        _sum(_times(d1s, d2x), b1s),
        _sum(_times(d2f, d2y), b2f),
        _sum(_times(d2t, d2y), b2t),
        w1, w2, s,
    )
    if not (np.isfinite(d2x).all() and np.isfinite(d2y).all()):
        bad = np.argwhere(~(np.isfinite(d2x) & np.isfinite(d2y)))
        raise TangentBlowUpError(
            f"second-order tangent blew up at step {k + 1} "
            f"(cell (j1, j2, r1, r2) = {tuple(cells[bad[0][0]])})"
        )


def _index_array(rows, width: int, what: str) -> np.ndarray:
    """``rows`` as an (n, width) int array whose first width // 2 columns
    are channels and the rest steps: a tangent (j, r) or a cell (j1, j2,
    r1, r2).  Before any cast, ValueError names the first ``what`` whose
    channel is not 0 (W1) or 1 (W2) or whose step is not an integer."""
    arr = np.asarray(rows).reshape(-1, width)
    bad = ~np.isin(arr[:, : width // 2], (0, 1)).all(axis=1)
    if bad.any():
        raise ValueError(
            f"{what} {tuple(arr[bad][0].tolist())} has a channel other than 0 or 1"
        )
    return _step_indices(arr).reshape(-1, width)


def _tangent_pass(
    model: CoefficientSet,
    regime: ScaleRegime,
    dt: float,
    n_steps: int,
    x0: float,
    y0: float,
    noise,
    n_paths: int,
    tangents: Sequence[tuple[int, int]],
    cells: Sequence[tuple[int, int, int, int]] | None = None,
    record=None,
    first_column: int = 0,
) -> dict[str, np.ndarray]:
    """First- and second-order tangents in one forward pass over noise.

    ``noise`` yields (dW1, dW2) blocks of shape (b, n_paths) that cover
    steps 0..n_steps-1 in order: the blocks of
    :func:`~fastslow.sde_engine._noise_blocks`, of a sweep's own streams
    or of a bundle's (:func:`_bundle_pass`).  The pass runs
    :func:`~fastslow.sde_engine._em_states` from (x0, y0) over them, so
    the same increments drive the base path and its tangents, and the
    tangent steps read the 24 coefficient keys that each Euler-Maruyama
    step evaluates from the first start on: one kernel call per step.
    Before the first start (the smallest r of the tangents and cell
    factors) the pass reads no state, so those steps evaluate only the 4
    EM keys.  The horizon state is evaluated only where a tangent or
    cell factor starts there; otherwise it costs no call.  The steps
    leave out every term whose partial is identically zero for the model
    (:func:`_zero_partials`, decided once per pass), which changes no
    value.

    The first-order state holds the tangents (j, r) of ``tangents``
    joined with the two factors (j1, r1) and (j2, r2) of every cell
    (j1, j2, r1, r2) of ``cells``, each step checked to lie in
    [0, n_steps] before any noise is read; the second-order state holds
    the cells.  Both are sorted by start, r for a tangent and
    max(r1, r2) for a cell, so the started rows are a prefix: a tangent
    is injected at r, a cell starts at max(r1, r2) from its alpha data,
    and each is stepped only from there.  ``record(k, dx, dy, values,
    w2)``, when given, sees the first-order values of ``tangents``,
    (n_tangents, n_paths) each, the 24 key values of the state and the
    W2 increments (n_paths,) of step k at every k from the first r; at
    the horizon k = n_steps ``w2`` is None, and so is ``values`` unless
    a tangent or cell factor starts there.

    Returns one dict of named rows: the (n_tangents, n_paths) arrays
    ``final_dx``, ``final_dy``, ``sup_abs_dx`` and ``sup_abs_dy``, in the
    order of ``tangents``, and, given ``cells``, the (n_cells, n_paths)
    arrays ``final_d2x``, ``final_d2y``, ``sup_abs_d2x`` and
    ``sup_abs_d2y``, in the order of ``cells``.  Beyond one noise block
    it keeps O((n_tangents + n_cells) n_paths) state, so its memory does
    not grow with n_steps.  An Euler-Maruyama error names a path by its column plus
    ``first_column``, the path id of the first column of ``noise``.
    """
    cell_arr = _index_array(() if cells is None else cells, 4, "cell")
    asked = _index_array(tangents, 2, "tangent")
    wanted = np.concatenate([asked, cell_arr[:, [0, 2]], cell_arr[:, [1, 3]]])
    _r_grid(n_steps, wanted[:, 1])
    held = sorted(set(map(tuple, wanted.tolist())), key=lambda t: (t[1], t[0]))
    row = {t: i for i, t in enumerate(held)}
    asked_rows = [row[t] for t in map(tuple, asked.tolist())]
    inject: dict[int, list[int]] = {}
    for i, (_, r) in enumerate(held):
        inject.setdefault(r, []).append(i)
    # Cells by start; ``unsort`` puts them back in the order of ``cells``.
    order = np.argsort(np.maximum(cell_arr[:, 2], cell_arr[:, 3]), kind="stable")
    unsort = np.argsort(order)
    cell_list = cell_arr[order].tolist()
    row_1 = np.array([row[(a, r1)] for a, _, r1, _ in cell_list], dtype=int)
    row_2 = np.array([row[(b, r2)] for _, b, _, r2 in cell_list], dtype=int)
    starts: dict[int, list[int]] = {}
    for c, (_, _, r1, r2) in enumerate(cell_list):
        starts.setdefault(max(r1, r2), []).append(c)
    alpha_at = {r for cell in cell_list for r in cell[2:]}
    s = _StepScales.of(regime, dt)
    dx, dy, sup_dx, sup_dy = (np.zeros((len(held), n_paths)) for _ in range(4))
    d2x, d2y, sup_x, sup_y = (np.zeros((len(cell_list), n_paths)) for _ in range(4))
    alpha: dict[int, tuple] = {}
    n1 = n2 = 0  # started tangents and cells
    first_at = held[0][1]
    zero = _zero_partials(model)
    first_partials = _picker(_FIRST_KEYS, zero)
    all_partials = _picker(_PARTIAL_KEYS, zero)
    states = _em_states(
        model, s, x0, y0, n_paths, noise, keys_from=first_at, first_column=first_column
    )

    for k, x, y, w1, w2, values in states:
        if k < first_at:
            continue
        # The horizon state comes without values: only a start reads them.
        if values is None and (k in inject or k in alpha_at):
            values = model.evaluate(x, y, COEFFICIENT_KEYS)
        if k in inject:
            sigma, tau = _injection_values(values)
            for i in inject[k]:
                _inject_first(dx, dy, i, held[i][0], sigma, tau, s)
            n1 = inject[k][-1] + 1
        if k in alpha_at:
            alpha[k] = _alpha_partials(values)
        for c in starts.get(k, ()):
            a, b, r1, r2 = cell_list[c]
            # The tangent of the earlier r is the current state; that of
            # the later r is zero at the earlier time (current if equal).
            now_2 = (dx[row_2[c]], dy[row_2[c]]) if r2 <= r1 else (0.0, 0.0)
            now_1 = (dx[row_1[c]], dy[row_1[c]]) if r1 <= r2 else (0.0, 0.0)
            d2x[c], d2y[c] = _second_start(a, b, alpha[r1], alpha[r2], now_2, now_1, s)
            n2 = c + 1
        np.maximum(sup_dx[:n1], np.abs(dx[:n1]), out=sup_dx[:n1])
        np.maximum(sup_dy[:n1], np.abs(dy[:n1]), out=sup_dy[:n1])
        if record is not None:
            record(k, dx[asked_rows], dy[asked_rows], values, w2)
        if n2:
            np.maximum(sup_x[:n2], np.abs(d2x[:n2]), out=sup_x[:n2])
            np.maximum(sup_y[:n2], np.abs(d2y[:n2]), out=sup_y[:n2])
        if w1 is None:
            break
        if n2:
            r_1, r_2 = row_1[:n2], row_2[:n2]
            factors = (dx[r_1], dy[r_1], dx[r_2], dy[r_2])
            p = all_partials(values)
            _second_step(p, d2x[:n2], d2y[:n2], factors, w1, w2, s, k, cell_list)
        _first_step(first_partials(values), dx[:n1], dy[:n1], w1, w2, s, k, held)

    rows = dict(zip(_FIRST_ROWS, (a[asked_rows] for a in (dx, dy, sup_dx, sup_dy))))
    if cells is not None:
        rows.update(zip(_SECOND_ROWS, (a[unsort] for a in (d2x, d2y, sup_x, sup_y))))
    return rows


def _bundle_pass(
    model: CoefficientSet,
    bundle: PathBundle,
    tangents: Sequence[tuple[int, int]],
    cells: Sequence[tuple[int, int, int, int]] | None = None,
    record=None,
) -> dict[str, np.ndarray]:
    """:func:`_tangent_pass` along a bundle's paths: from its x0, y0, on
    the noise redrawn from its streams (master_seed, paths, point, j,
    channel), bit for bit the increments
    :func:`~fastslow.sde_engine.simulate_paths` drew.  It reads no stored
    path, so a bundle that keeps none gives the same values."""
    noise = _noise_blocks(
        bundle.master_seed, range(bundle.n_paths), bundle.n_steps, bundle.dt,
        point=bundle.point,
    )
    return _tangent_pass(
        model, bundle.regime, bundle.dt, bundle.n_steps, bundle.x0, bundle.y0,
        noise, bundle.n_paths, tangents, cells, record,
    )


def first_order_tangents(
    model: CoefficientSet,
    bundle: PathBundle,
    r_indices: Sequence[int],
    store_series: bool = True,
) -> FirstOrderTangents:
    """Integrate both-channel first-order tangents along every path.

    Replays the bundle through the tangent pass of the moment sweeps
    (:func:`_bundle_pass`), asking for both channels at every r; the
    pass replays the Euler-Maruyama step, so it reads no stored path.
    The perturbation at step index r injects the initial data
    (sqrt(eps) sigma, 0) on channel W1 and (0, tau/sqrt(eta)) on channel
    W2; states are zero before r.

    Parameters
    ----------
    r_indices : sequence of int
        Perturbation step indices in [0, n_steps] (ValueError naming
        the first outside); sorted and deduplicated internally.
    store_series : bool
        Keep the full (2, n_r, n_t, n_paths) series; final values and
        running sups are kept either way.
    """
    r_idx = _r_grid(bundle.n_steps, r_indices)
    shape = (2, len(r_idx), bundle.n_paths)
    record = DX = DY = None
    if store_series:
        series = (2, len(r_idx), bundle.n_steps + 1, bundle.n_paths)
        _check_bytes(2, *series)
        DX, DY = np.zeros(series), np.zeros(series)

        def record(k, dx, dy, values, w2):
            DX[:, :, k] = dx.reshape(shape)
            DY[:, :, k] = dy.reshape(shape)

    rows = _bundle_pass(
        model, bundle, [(j, r) for j in (0, 1) for r in r_idx.tolist()], record=record
    )
    return FirstOrderTangents(
        r_indices=r_idx,
        r_values=r_idx * bundle.dt,
        regime=bundle.regime,
        dt=bundle.dt,
        DX=DX,
        DY=DY,
        **{name: value.reshape(shape) for name, value in rows.items()},
    )


def second_order_tangents(
    model: CoefficientSet,
    bundle: PathBundle,
    pairs: Sequence[tuple[int, int]],
    combos: Sequence[tuple[int, int]] = _ALL_COMBOS,
) -> SecondOrderTangents:
    """Integrate second-order tangents for the given (r1, r2) pairs.

    Replays the bundle through the tangent pass of the moment sweeps
    (:func:`_bundle_pass`), asking for every cell
    (j1, j2, r1, r2) of the ``combos`` x ``pairs`` product (each r in
    [0, n_steps]; ValueError naming the first outside); the first-order
    factors (j1, r1) and (j2, r2) of the cells advance alongside.  Each
    channel combo (j1, j2) is integrated independently (so swap symmetry
    is a real check, not imposed).  The state is zero before
    t = max(r1, r2), starts there from the alpha initial data, read from
    the current first-order state, and is forced by the second-partial
    source terms

        b1[g] = d11_g DX1 DX2 + d12_g (DX1 DY2 + DY1 DX2)
                + d22_g DY1 DY2 + d2_g D2Y          (g in {c, sigma})
        b2[g] = d11_g DX1 DX2 + d12_g (DX1 DY2 + DY1 DX2)
                + d22_g DY1 DY2 + d1_g D2X          (g in {f, tau})

    with DXi, DYi the first-order tangents for (j_i, r_i).  A channel
    other than 0 (W1) or 1 (W2) raises ValueError naming its cell
    (j1, j2, r1, r2) before any step.
    """
    pair_arr = _step_indices(pairs).reshape(-1, 2)
    cells = [(a, b, *q) for a, b in combos for q in pair_arr.tolist()]
    rows = _bundle_pass(model, bundle, (), cells)
    shape = (len(combos), len(pair_arr), bundle.n_paths)
    return SecondOrderTangents(
        combos=tuple((int(a), int(b)) for a, b in combos),
        pair_indices=pair_arr,
        pair_values=pair_arr * bundle.dt,
        regime=bundle.regime,
        dt=bundle.dt,
        **{name: rows[name].reshape(shape) for name in _SECOND_ROWS},
    )


def z_process(model: CoefficientSet, bundle: PathBundle, r_index: int) -> np.ndarray:
    """Exponential fundamental solution Z_r(t) of the fast tangent flow.

    Returns shape (n_t, n_paths): 1 for t <= r, and for t > r the
    exponential of the discretized log

        (1/eta) int d2_f ds + (1/sqrt(eta)) int d2_tau dW^2
        - (1/(2 eta)) int d2_tau^2 ds

    cumulated step by step from r, as :func:`q_decomposition` cumulates
    its recursion: a ``record`` hook of the bundle's replay
    (:func:`_bundle_pass`) reads d2_f and d2_tau from the coefficient
    values the pass evaluates at each state, and the W2 increments of
    each step.  It reads no stored path.  Always positive.
    """
    (r,) = _r_grid(bundle.n_steps, [r_index])
    eta = bundle.regime.eta
    out = np.ones((bundle.n_steps + 1, bundle.n_paths))
    if r == bundle.n_steps:
        return out
    log_z = None

    def record(k, dx, dy, values, w2):
        nonlocal log_z
        if k == bundle.n_steps:
            return
        _, d2f, _, d2t = _fast_partials(values)
        incr = (
            d2f * (bundle.dt / eta)
            + d2t * (w2 / math.sqrt(eta))
            - d2t**2 * (bundle.dt / (2.0 * eta))
        )
        log_z = incr if log_z is None else log_z + incr
        if not np.all(np.isfinite(log_z)):
            raise TangentBlowUpError("z-process log overflowed; check dissipativity")
        out[k + 1] = np.exp(log_z)

    _bundle_pass(model, bundle, [(1, r)], record=record)
    return out


def q_decomposition(
    model: CoefficientSet, bundle: PathBundle, r_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split D^{W2}Y_t into Q1 + Q2 along each path.

    Q1 = Zm(t) tau(X_r, Y_r)/sqrt(eta) with Zm the fundamental solution
    of the discretized homogeneous fast tangent recursion (so the
    decomposition telescopes exactly in discrete time); Q2 solves the
    affine recursion forced by D^{W2}X.  Both advance step by step with
    the bundle's replay (:func:`_bundle_pass`), which keeps no tangent
    series, on the coefficient values it evaluates at each state (one
    kernel call per step).
    Verifies Q1 + Q2 against the directly integrated D^{W2}Y and raises
    :class:`DecompositionError` if the reconstruction residual exceeds
    1e-6 * (1 + max |D|).

    Returns (Q1, Q2), each of shape (n_t, n_paths), zero before r.
    """
    (r,) = _r_grid(bundle.n_steps, [r_index])
    eta = bundle.regime.eta
    eta_root = math.sqrt(eta)
    dt = bundle.dt
    n_t = bundle.n_steps + 1
    q1 = np.zeros((n_t, bundle.n_paths))
    q2 = np.zeros((n_t, bundle.n_paths))
    zm = np.ones(bundle.n_paths)
    q2_state = np.zeros(bundle.n_paths)
    tau_r = resid = d_max = 0.0

    def record(k, dx, dy, values, w2):
        # D^{W2}X and D^{W2}Y at step k, from k = r on, with the pass's
        # coefficient values at the state and the step's W2 increments;
        # Q1 + Q2 and D are zero before r.
        nonlocal zm, q2_state, tau_r, resid, d_max
        if k == r:
            tau_r = _tau(values)
            q1[r] = tau_r / eta_root
        dxw2, dyw2 = dx[0], dy[0]
        resid = max(resid, float(np.max(np.abs(q1[k] + q2[k] - dyw2))))
        d_max = max(d_max, float(np.max(np.abs(dyw2))))
        if k == bundle.n_steps:
            return
        d1f, d2f, d1t, d2t = _fast_partials(values)
        a = 1.0 + d2f * (dt / eta) + d2t * (w2 / eta_root)
        g = d1f * dxw2 * (dt / eta) + d1t * dxw2 * (w2 / eta_root)
        zm = a * zm
        q2_state = a * q2_state + g
        q1[k + 1] = zm * (tau_r / eta_root)
        q2[k + 1] = q2_state

    _bundle_pass(model, bundle, [(1, r)], record=record)
    tol = 1e-6 * (1.0 + d_max)
    if resid > tol:
        raise DecompositionError(
            f"Q1+Q2 reconstruction residual {resid:.3e} exceeds {tol:.3e}"
        )
    return q1, q2


def hnorm_first(first: FirstOrderTangents) -> np.ndarray:
    """Per-path fourth power of the derivative H-norm at the final time:

        ( int (|D_u^{W1}X_T|^2 + |D_u^{W2}X_T|^2) du )^2,

    trapezoid over the tangent r-grid (at least 8 nodes).  The grid is
    the stored sorted one, so the result does not depend on how the
    caller enumerated the perturbation times.
    """
    if len(first.r_indices) < 8:
        raise ValueError("H-norm quadrature needs an r-grid of at least 8 nodes")
    integrand = np.sum(first.final_dx**2, axis=0)  # (n_r, n_paths)
    return np.trapezoid(integrand, first.r_values, axis=0) ** 2


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes, dtype=float)
    w[:-1] += np.diff(nodes) / 2.0
    w[1:] += np.diff(nodes) / 2.0
    return w


def contraction_norm_second(second: SecondOrderTangents) -> np.ndarray:
    """Per-path squared contraction norm of the final-time second kernel.

    Requires ``second`` built on the full pair grid of an r-grid (at
    least 8 nodes) with all four channel combos.  For channel pair
    (i, j) forms the one-argument contraction

        M[v, w] = sum_k int D2[i,k,u,v] * D2[k,j,u,w] du

    (trapezoid in u over the r-grid) and returns the squared
    Hilbert-Schmidt size  sum_{i,j} int int M[v, w]^2 dv dw  per path.
    """
    if second.combos != _ALL_COMBOS:
        raise ValueError("contraction needs all four channel combos")
    n_pairs = len(second.pair_indices)
    n_r = int(round(math.sqrt(n_pairs)))
    if n_r * n_r != n_pairs:
        raise ValueError("contraction needs a full n_r x n_r pair grid")
    if n_r < 8:
        raise ValueError("contraction quadrature needs an r-grid of at least 8 nodes")
    r_idx = second.pair_indices[:n_r, 1]
    expect = full_pair_grid(r_idx)
    if not (
        np.all(np.diff(r_idx) > 0)
        and np.array_equal(expect, second.pair_indices)
    ):
        raise ValueError(
            "pair grid is not the row-major full grid of an ascending r-grid"
        )
    w = _trapezoid_weights(r_idx * second.dt)
    n_paths = second.final_d2x.shape[-1]
    kern = second.final_d2x.reshape(2, 2, n_r, n_r, n_paths)
    m = np.einsum("ikuvp,kjuwp,u->ijvwp", kern, kern, w)
    return np.einsum("ijvwp,ijvwp,v,w->p", m, m, w, w)


# -- moment-inequality suite ------------------------------------------


@dataclass(frozen=True)
class MomentPoint:
    """One sweep point of a moment bound; the mixed bounds also carry the
    pair separation asked for and the one realized on the grid."""

    epsilon: float
    eta: float
    empirical: float
    envelope: float
    stderr: float
    passes: bool
    separation_requested: float | None = None
    separation_realized: float | None = None


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo moments of one tangent quantity across a regime sweep.

    ``C_fit`` anchors the envelope at the first (coarsest) sweep point;
    a point passes when empirical <= C_fit * envelope (up to rounding).
    """

    bound_id: str
    p: int
    points: tuple[MomentPoint, ...]
    C_fit: float
    passes: bool
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = asdict(self)
        out["points"] = [
            {k: v for k, v in q.items() if v is not None} for q in out["points"]
        ]
        return out


@dataclass(frozen=True)
class DecayReport:
    """Moment decay in the perturbation-time separation at a fixed regime."""

    bound_id: str
    p: int
    epsilon: float
    eta: float
    separations: tuple[float, ...]
    empirical: tuple[float, ...]
    stderr: tuple[float, ...]
    monotone_within_noise: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _moment_envelopes(
    p: int,
    eps: float,
    eta: float,
    k_hat: float,
    T: float,
    r_mid: float,
    sep: float,
) -> dict[str, float]:
    """Theoretical scaling envelopes per bound id.

    ``r_mid`` is the first-order perturbation time, ``sep`` the pair
    separation r1 - r2 used by the mixed second-order bounds.
    """
    ratio = eps / eta
    return {
        "dw1_x_sup": eps**p,
        "dw2_x_sup": eps**p + eta**p,
        "dw2_y_final": eta ** (-p) * math.exp(-k_hat * (T - r_mid) / eta)
        + eps**p
        + eta**p,
        "d2x_w1w1": eps ** (2 * p),
        "d2x_w1w2": eps ** (2 * p)
        + (eps * eta) ** p
        + ratio**p * math.exp(-k_hat * sep / eta),
        "d2x_w2w2": eps ** (2 * p)
        + eta ** (2 * p)
        + (eps * eta) ** p
        + (1.0 + ratio**p) * math.exp(-k_hat * abs(sep) / (2.0 * eta)),
    }


def _mean_se(per_path: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of per-path values."""
    n = per_path.size
    mean = float(np.sum(per_path)) / n
    var = max(float(np.sum(per_path**2)) / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)


def _require_values(name: str, values) -> list[float]:
    """``values`` as floats; ValueError naming ``name`` when there is none
    or naming the first that is not a finite number in [0, inf]."""
    out = [float(v) for v in values]
    if not out:
        raise ValueError(f"{name} must not be empty")
    for v in out:
        if not 0.0 <= v < math.inf:
            raise ValueError(f"{name} value {v} is not a finite number in [0, inf]")
    return out


@dataclass(frozen=True)
class _SweepPass:
    """One tangent pass of a sweep: its regime on ``n_steps`` steps of
    ``dt``, its streams (seed, ``purpose``, ``point``, path id, channel)
    and the tangents and cells that its bounds read."""

    regime: ScaleRegime
    n_steps: int
    dt: float
    purpose: int
    point: int
    tangents: list[tuple[int, int]]
    cells: list[tuple[int, int, int, int]] | None


def _balanced_ranges(weights: Sequence[int], parts: int) -> list[range]:
    """range(len(weights)) as ``parts`` <= len(weights) contiguous ranges,
    none empty, whose largest summed weight is the least possible (among
    equals, the one with the earliest cuts)."""
    n = len(weights)
    edges = [0, *itertools.accumulate(weights)]
    # best[i]: (largest sum, starts) of the first i items cut into k ranges
    best = {i: (edges[i], (0,)) for i in range(1, n + 1)}
    for k in range(2, parts + 1):
        best = {
            i: min(
                (max(best[j][0], edges[i] - edges[j]), (*best[j][1], j))
                for j in range(k - 1, i)
            )
            for i in range(k, n + 1)
        }
    starts = (*best[n][1], n)
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def _sweep_passes(
    model: CoefficientSet,
    passes: Sequence[_SweepPass],
    n_paths: int,
    seed,
    x0: float,
    y0: float,
) -> list[dict[str, np.ndarray]]:
    """What :func:`_tangent_pass` returns for each pass of a sweep, over
    paths 0..n_paths-1 started at (x0, y0), in the order of ``passes``.

    The call runs on the :func:`~fastslow.sde_engine._workers` that its
    n_paths x (sum of n_steps) path-steps take, through
    :func:`~fastslow.sde_engine._run_shares`, so it forks at most once.
    With at least as many passes as workers, each worker runs a
    contiguous range of whole passes over all paths, the ranges balanced
    by their summed n_steps: each step of a pass costs a fixed overhead
    that a split of its paths would not divide.  With fewer passes, each
    worker runs every pass over a contiguous share of the path ids.  In
    process (one worker) that is every pass over all paths.  A path
    draws its noise from its own streams, so neither split moves a
    value.  Each worker returns its passes' results, which this process
    concatenates in pass order, or joins along the path axis in path
    order.  The error of the first failing range of passes or share of
    paths is raised, so with whole passes an earlier pass fails before a
    later one, as in process; an Euler-Maruyama error names the path id.
    """
    workers = _workers(n_paths * sum(q.n_steps for q in passes))
    whole = len(passes) >= workers
    if whole:
        shares = _balanced_ranges([q.n_steps for q in passes], workers)
    else:
        shares = _split(n_paths, workers)

    def run(share: range) -> list:
        out = []
        for i in share if whole else range(len(passes)):
            q, ids = passes[i], range(n_paths) if whole else share
            noise = _noise_blocks(
                seed, ids, q.n_steps, q.dt, purpose=q.purpose, point=q.point
            )
            out.append(_tangent_pass(
                model, q.regime, q.dt, q.n_steps, x0, y0, noise, len(ids),
                q.tangents, q.cells, first_column=ids.start,
            ))
        return out

    model.compile(_EM_KEYS, COEFFICIENT_KEYS)  # before the fork, as in simulate_paths
    parts = _run_shares(run, shares, "regimes" if whole else "paths")
    if whole:
        return [result for part in parts for result in part]
    return _joined_paths(parts)


def moment_sweep(
    model: CoefficientSet,
    regimes: Sequence[ScaleRegime],
    p: int,
    n_paths: int,
    seed=0,
    x0: float = 0.0,
    y0: float = 0.0,
    dt_eta_fraction: float = STABILITY_FRACTION,
    pair_sep_etas: float = 3.0,
    k_hat: float | None = None,
) -> dict[str, MomentReport]:
    """Monte Carlo moment suite for the six tangent bounds.

    For each regime (ordered by decreasing epsilon) computes:

    - ``dw1_x_sup`` / ``dw2_x_sup``: mean over the first-order
      perturbation times T/4, T/2 and 3T/4 (:data:`_R_SELECTION`) of
      E sup_t |D_r^{Wj} X_t|^{2p} (sup over the stored grid);
    - ``dw2_y_final``: E |D_{T/2}^{W2} Y_T|^{2p};
    - ``d2x_w1w1``: E |D2_{r,r}^{W1,W1} X_T|^{2p} at r = T/2;
    - ``d2x_w1w2`` / ``d2x_w2w2``: the same at (r1, r2) =
      (T/2, max(0, T/2 - pair_sep_etas * eta)); the envelope reads the
      separation r1 - r2 realized on the grid, and each point reports
      both the requested separation pair_sep_etas * eta and the
      realized one.

    The envelope constant ``C_fit`` is anchored at the first regime; a
    Monte Carlo standard error above 30% of the mean attaches an
    under-sampled warning (never a failure).  ``k_hat`` defaults to the
    ``K_hat`` of :func:`~fastslow.coefficients.check_assumptions` on
    ``ASSUMPTION_GRID`` (ValueError when it fails).  Each regime steps
    at ``dt_eta_fraction`` of its eta (default 1/20, the stability
    guard); a larger fraction raises
    :class:`~fastslow.sde_engine.StabilityError` before any work, as does
    a negative or non-finite ``pair_sep_etas`` (ValueError naming the
    value).

    Each regime runs one tangent pass that advances the base path and
    only the tangents the bounds read, each from its own start: the
    first-order tangents of both channels at T/4, T/2 and 3T/4, the
    factors of the second-order cells, and the three cells, (W1, W1) at
    (T/2, T/2) and (W1, W2), (W2, W2) at (T/2, r2); no path, increment
    or tangent series is kept.  A pass holds at most 7 first-order and
    3 second-order tangent rows of n_paths values, one noise block of at
    most 32 MiB and a draw buffer of at most 512 streams.  A sweep of at
    least 1M path-steps in all runs on forked workers, one per CPU
    (:func:`_sweep_passes`): each worker runs a contiguous range of whole
    regimes, the ranges balanced by their summed steps, or, with more
    workers than regimes, every regime on a contiguous share of the
    paths, and returns its tangent finals and sups.  Regime i draws path
    j's noise from the streams (seed, moment sweep, i + 1, j, channel),
    so a path's values do not depend on which paths share its pass or
    its worker.  The tangent pass is the one
    :func:`first_order_tangents` and :func:`second_order_tangents` run
    over a bundle's streams, so they give the same values on the same
    paths.
    """
    _require_positive(n_paths=n_paths)
    if len(regimes) < 1:
        raise ValueError("need at least one regime")
    eps_list = [r.epsilon for r in regimes]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("regimes must be ordered by strictly decreasing epsilon")
    if p not in (1, 2):
        raise ValueError(f"moment order p must be 1 or 2 (got {p})")
    _require_values("pair_sep_etas", [pair_sep_etas])
    steps = [dt_eta_fraction * r.eta for r in regimes]
    for step, regime in zip(steps, regimes):
        _check_stability(step, regime.eta)
    if k_hat is None:
        box, nodes = ASSUMPTION_GRID
        rep = check_assumptions(model, box, box, nodes, nodes, p)
        if not rep.passes:
            raise ValueError(
                f"model {model.name!r} fails the dissipativity margin at "
                f"p={p} (K_hat={rep.K_hat:.4g}); envelopes are undefined"
            )
        k_hat = rep.K_hat

    passes, picks = [], []
    for i_reg, (regime, step) in enumerate(zip(regimes, steps)):
        n_steps, dt_eff = time_grid(regime.T, step)
        r_sel = sorted({int(round(f * n_steps)) for f in _R_SELECTION})
        r_mid = int(round(0.5 * n_steps))
        sep_steps = int(round(pair_sep_etas * regime.eta / dt_eff))
        r_lo = max(0, r_mid - sep_steps)
        cells = [(0, 0, r_mid, r_mid), (0, 1, r_mid, r_lo), (1, 1, r_mid, r_lo)]
        tangents = [(j, r) for j in (0, 1) for r in r_sel] + [(1, r_mid)]
        passes.append(
            _SweepPass(
                regime, n_steps, dt_eff, PURPOSE_MOMENT_SWEEP, i_reg + 1, tangents, cells
            )
        )
        picks.append((len(r_sel), r_mid, r_lo))

    per_regime: list[dict] = []
    results = _sweep_passes(model, passes, n_paths, seed, x0, y0)
    for q, (n_sel, r_mid, r_lo), rows in zip(passes, picks, results):
        regime, dt_eff = q.regime, q.dt
        d2x_w1w1, d2x_w1w2, d2x_w2w2 = rows["final_d2x"]
        sup_abs_dx = rows["sup_abs_dx"]
        per_path = {
            "dw1_x_sup": np.mean(sup_abs_dx[:n_sel] ** (2 * p), axis=0),
            "dw2_x_sup": np.mean(sup_abs_dx[n_sel : 2 * n_sel] ** (2 * p), axis=0),
            "dw2_y_final": np.abs(rows["final_dy"][2 * n_sel]) ** (2 * p),
            "d2x_w1w1": np.abs(d2x_w1w1) ** (2 * p),
            "d2x_w1w2": np.abs(d2x_w1w2) ** (2 * p),
            "d2x_w2w2": np.abs(d2x_w2w2) ** (2 * p),
        }
        sep = (r_mid - r_lo) * dt_eff
        env = _moment_envelopes(
            p, regime.epsilon, regime.eta, k_hat, regime.T, r_mid * dt_eff, sep
        )
        per_regime.append(
            {
                "regime": regime,
                "moments": {k: _mean_se(v) for k, v in per_path.items()},
                "env": env,
                "separation": {
                    "separation_requested": pair_sep_etas * regime.eta,
                    "separation_realized": sep,
                },
            }
        )

    reports: dict[str, MomentReport] = {}
    for bound_id in BOUND_IDS:
        points = []
        warnings: list[str] = []
        c_fit = 0.0
        for i, entry in enumerate(per_regime):
            mean, se = entry["moments"][bound_id]
            envelope = entry["env"][bound_id]
            if i == 0:
                c_fit = mean / envelope if envelope > 0 else 0.0
            ok = mean <= c_fit * envelope * (1.0 + 1e-12)
            if mean > 0 and se > 0.3 * mean:
                warnings.append(
                    f"point {i} (eps={entry['regime'].epsilon:g}): "
                    f"stderr {se:.2e} exceeds 30% of mean {mean:.2e}"
                )
            points.append(
                MomentPoint(
                    epsilon=entry["regime"].epsilon,
                    eta=entry["regime"].eta,
                    empirical=mean,
                    envelope=envelope,
                    stderr=se,
                    passes=ok,
                    **(entry["separation"] if bound_id in _MIXED_BOUNDS else {}),
                )
            )
        reports[bound_id] = MomentReport(
            bound_id=bound_id,
            p=p,
            points=tuple(points),
            C_fit=c_fit,
            passes=all(q.passes for q in points),
            warnings=tuple(warnings),
        )
    return reports


def _decay_steps(
    regime: ScaleRegime,
    bound_id: str,
    seps: Sequence[float],
    dt_eta_fraction: float,
) -> tuple[int, float, int, list[int]]:
    """(n_steps, dt_eff, r_top, r_list) of :func:`decay_check` for the
    separations ``seps`` that :func:`check_decay_settings` returned, at
    the step ``dt_eta_fraction`` * eta: r_top is the step of r1 = T/2 or
    of the horizon, r_list those of the separations before it.
    ValueError names a separation that reaches before t = 0."""
    step = dt_eta_fraction * regime.eta
    _check_stability(step, regime.eta)
    n_steps, dt_eff = time_grid(regime.T, step)
    if bound_id == "dw2_y_final":
        r_top, top = n_steps, "the horizon"
    else:
        r_top, top = int(round(0.5 * n_steps)), "r1 = T/2"
    r_list = [r_top - int(round(s * regime.eta / dt_eff)) for s in seps]
    for s, r in zip(seps, r_list):
        if r < 0:
            raise ValueError(f"separations_eta value {s} exceeds {top}")
    return n_steps, dt_eff, r_top, r_list


def check_decay_settings(
    bound_ids: Sequence[str],
    separations_eta: Sequence[float],
    regime: ScaleRegime | None = None,
    dt_eta_fraction: float = STABILITY_FRACTION,
) -> list[float]:
    """The separations as floats, after the checks :func:`decay_check`
    makes before any work.  ValueError names a bound without separation
    structure, an empty list or a separation that is negative or
    non-finite; given ``regime``, also a separation that reaches before
    t = 0 there at the step ``dt_eta_fraction`` * eta."""
    for bound_id in bound_ids:
        if bound_id not in (*_MIXED_BOUNDS, "dw2_y_final"):
            raise ValueError(f"no separation structure for bound {bound_id!r}")
    seps = _require_values("separations_eta", separations_eta)
    if regime is not None:
        for bound_id in bound_ids:
            _decay_steps(regime, bound_id, seps, dt_eta_fraction)
    return seps


def decay_check(
    model: CoefficientSet,
    regime: ScaleRegime,
    bound_id: str,
    p: int,
    n_paths: int,
    seed,
    separations_eta: Sequence[float] = DECAY_SEPARATIONS,
    x0: float = 0.0,
    y0: float = 0.0,
    dt_eta_fraction: float = STABILITY_FRACTION,
) -> DecayReport:
    """Moment decay in the perturbation-time separation.

    For ``d2x_w1w2`` / ``d2x_w2w2``: E|D2_{r1,r2} X_T|^{2p} with
    r1 = T/2 and r2 = r1 - sep;  for ``dw2_y_final``:
    E|D_r^{W2} Y_T|^{2p} with r = T - sep.  Separations are given in
    units of eta and checked by :func:`check_decay_settings` and
    :func:`_decay_steps` before any work.
    All separations share the same simulated paths, so the comparison
    is low-noise; monotone_within_noise allows each consecutive increase
    up to twice the summed standard errors.  The step is
    ``dt_eta_fraction`` of eta (default 1/20, the stability guard); a
    larger fraction raises :class:`~fastslow.sde_engine.StabilityError`.
    Like :func:`moment_sweep`, one tangent pass advances the base path
    and only the tangents the bound reads, each from its own start, and
    keeps no series: ``dw2_y_final`` the W2 tangent at each r, the mixed
    bounds one second-order cell (j1, W2, r1, r2) per separation, with
    j1 = W1 for ``d2x_w1w2`` and W2 for ``d2x_w2w2``, and its two
    factors.  A pass of at least 1M path-steps is split into contiguous
    shares of the path ids, one per CPU, that run at once on forked
    workers, each returning its paths' finals (:func:`_sweep_passes`).
    Path j draws its noise from the streams (seed, decay check, 0, j,
    channel), which no moment sweep point shares.
    """
    _require_positive(n_paths=n_paths)
    seps = check_decay_settings([bound_id], separations_eta)
    n_steps, dt_eff, r_top, r_list = _decay_steps(regime, bound_id, seps, dt_eta_fraction)
    if bound_id == "dw2_y_final":
        tangents = [(1, r) for r in r_list]
        cells = None
    else:
        tangents = []
        j1 = 0 if bound_id == "d2x_w1w2" else 1
        cells = [(j1, 1, r_top, r2) for r2 in r_list]

    one_pass = _SweepPass(
        regime, n_steps, dt_eff, PURPOSE_DECAY_CHECK, 0, tangents, cells
    )
    [rows] = _sweep_passes(model, [one_pass], n_paths, seed, x0, y0)
    per_sep = list(np.abs(rows["final_dy" if cells is None else "final_d2x"]))
    means, ses = zip(*(_mean_se(v ** (2 * p)) for v in per_sep))
    monotone = all(
        means[i + 1] <= means[i] + 2.0 * (ses[i] + ses[i + 1])
        for i in range(len(means) - 1)
    )
    return DecayReport(
        bound_id=bound_id,
        p=p,
        epsilon=regime.epsilon,
        eta=regime.eta,
        separations=tuple(seps),
        empirical=means,
        stderr=ses,
        monotone_within_noise=monotone,
    )


# -- quadruple time-decay integral ------------------------------------


@dataclass(frozen=True)
class QuadrupleIntegralReport:
    k: float
    T: float
    analytic: float
    quadrature: float | None
    quadrature_flag: str
    envelope: float
    C_fit: float

    def to_dict(self) -> dict:
        return asdict(self)


def quadruple_analytic(k: float, T: float) -> float:
    """Exact value of int_{[0,T]^4} exp(-k(|u-v|+|u-w|+|s-v|+|s-w|)).

    Splitting the 24 orderings of (u, s, v, w) by how {u, s} and {v, w}
    interleave gives two exponent patterns: 16 orderings decay with
    2k (max - min) and 8 with 2k (max - min) + 2k (middle gap).
    Integrating each pattern in gap coordinates over the simplex yields
    (with E2 = exp(-2kT), E4 = exp(-4kT)):

        ( E2 (16 T^2 k^2 + 40 T k + 28) + 20 T k - 29 + E4 ) / (8 k^4).
    """
    if k <= 0 or T <= 0:
        raise ValueError(f"need k, T > 0 (got k={k}, T={T})")
    e2 = math.exp(-2.0 * T * k)
    e4 = math.exp(-4.0 * T * k)
    return (
        e2 * (16.0 * T**2 * k**2 + 40.0 * T * k + 28.0)
        + 20.0 * T * k
        - 29.0
        + e4
    ) / (8.0 * k**4)


def _pairwise_value(pts: np.ndarray, wts: np.ndarray, k: float) -> float:
    """Weighted 4-D sum via the pairwise factorization.

    exp(-k E) factors as A(u,v)A(u,w)A(s,v)A(s,w) with
    A(a,b) = exp(-k |a - b|), so the full sum collapses to
    sum_{v,w} wv ww B(v,w)^2 with B = A^T diag(w) A.
    """
    A = np.exp(-k * np.abs(pts[:, None] - pts[None, :]))
    B = (A * wts[:, None]).T @ A
    return float(np.einsum("vw,v,w->", B * B, wts, wts))


def quadruple_brute_force(k: float, T: float, n: int = 40) -> float:
    """Brute-force sum over an n^4 cell grid (cell-corner trapezoid rule)."""
    pts = np.linspace(0.0, T, n + 1)
    wts = np.full(n + 1, T / n)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    return _pairwise_value(pts, wts, k)


def quadruple_quadrature(k: float, T: float) -> tuple[float, bool]:
    """Adaptive 4-D quadrature by panel-doubling Gauss-Legendre.

    Composite 8-point Gauss-Legendre panels per axis, refined by
    doubling until the relative change drops below ``_QUADRATURE_REL_TOL``
    (at most ``_QUADRATURE_MAX_PANELS``).  Returns (value, converged).
    """
    xg, wg = np.polynomial.legendre.leggauss(8)
    prev = None
    n = 8
    while n <= _QUADRATURE_MAX_PANELS:
        edges = np.linspace(0.0, T, n + 1)
        h = np.diff(edges)
        pts = (edges[:-1, None] + h[:, None] * (xg[None, :] + 1.0) / 2.0).ravel()
        wts = (h[:, None] * wg[None, :] / 2.0).ravel()
        val = _pairwise_value(pts, wts, k)
        if prev is not None and abs(val - prev) <= _QUADRATURE_REL_TOL * abs(val):
            return val, True
        prev = val
        n *= 2
    return prev, False


def quadruple_envelope(k: float, T: float, C: float) -> float:
    """Envelope shape C (k^-3 + k^-2 exp(-2k))."""
    return C * (k**-3 + k**-2 * math.exp(-2.0 * k))


def quadruple_fit_constant(T: float, k_ref: float = 10.0) -> float:
    """Envelope constant anchored by equality at the reference k."""
    shape = k_ref**-3 + k_ref**-2 * math.exp(-2.0 * k_ref)
    return quadruple_analytic(k_ref, T) / shape


def quadruple_integral_check(k: float, T: float = 1.0) -> QuadrupleIntegralReport:
    """Evaluate the quadruple decay integral and its fitted envelope.

    The analytic closed form is always computed; for k up to
    ``_QUADRATURE_MAX_K`` an independent adaptive quadrature runs as a
    cross-check (skipped at large k where the closed form's leading
    terms dominate and the quadrature would need very fine panels).
    Nonconvergent quadrature falls back to analytic-only with a flag.
    """
    analytic = quadruple_analytic(k, T)
    if k <= _QUADRATURE_MAX_K:
        quad, ok = quadruple_quadrature(k, T)
        flag = "ok" if ok else "not-converged"
        if not ok:
            quad = None
    else:
        quad, flag = None, "skipped-large-k"
    c_fit = quadruple_fit_constant(T)
    return QuadrupleIntegralReport(
        k=float(k),
        T=float(T),
        analytic=analytic,
        quadrature=quad,
        quadrature_flag=flag,
        envelope=quadruple_envelope(k, T, c_fit),
        C_fit=c_fit,
    )
