"""Tangent (Malliavin derivative) processes along stored paths.

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

Both tangent orders are advanced by one recursion, which runs over a
stream of base states (k, X_k, Y_k, dW1_k, dW2_k).  Its second-order
state is a list of cells (j1, j2, r1, r2), one D2_{r1,r2} per channel
pair and time pair that a caller reads.  The moment sweeps feed it
live Euler-Maruyama states, so at each sweep point the noise of all
paths drives the base path and its tangents in one forward pass and
nothing is stored; :func:`first_order_tangents`,
:func:`second_order_tangents` (which asks for every cell of its combos
x pairs product) and :func:`q_decomposition` feed it the rows of a
stored :class:`~fastslow.sde_engine.PathBundle`, and the first and the
last also read the first-order state at every step.

The module also evaluates the Monte Carlo moment-inequality suite
(scaling of tangent moments in eps and eta), the H-norm and
contraction norm of the final-time derivative kernels, and a quadruple
time-decay integral with an exact closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from fastslow.coefficients import COEFFICIENT_KEYS, CoefficientSet, check_assumptions
from fastslow.sde_engine import (
    PURPOSE_DECAY_CHECK,
    PURPOSE_MOMENT_SWEEP,
    PathBundle,
    ScaleRegime,
    _check_stability,
    _em_states,
    _noise_blocks,
    _require_positive,
    _StepScales,
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

#: Every channel pair (j1, j2), 0 = W1 and 1 = W2, in row-major order.
_ALL_COMBOS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Soft cap on tangent series allocations (bytes).
_SERIES_BYTE_CAP = 2 * 1024**3

#: Partials one first-order tangent step needs, in one kernel call.
_FIRST_KEYS = (
    "d1_c", "d2_c", "d1_sigma", "d2_sigma", "d1_f", "d2_f", "d1_tau", "d2_tau"
)
#: All 20 partials, in table order: what one second-order step needs.
_PARTIAL_KEYS = tuple(k for k in COEFFICIENT_KEYS if k.startswith("d"))
#: Partials the second-order initial data reads at the perturbation times.
_ALPHA_KEYS = ("d1_sigma", "d2_sigma", "d1_tau", "d2_tau")


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


def _require_storage(bundle: PathBundle) -> None:
    if bundle.X is None or bundle.Y is None:
        raise ValueError("bundle must store full paths for tangent integration")
    if bundle.dW1 is None or bundle.dW2 is None:
        raise ValueError("bundle must store increments for tangent integration")


def _stored_states(bundle: PathBundle):
    """A stored bundle's rows in the shape :func:`_em_states` yields:
    (k, X_k, Y_k, dW1_k, dW2_k) for every step k, then
    (n_steps, X_n, Y_n, None, None)."""
    _require_storage(bundle)
    n = bundle.n_steps
    rows = zip(range(n), bundle.X, bundle.Y, bundle.dW1, bundle.dW2)
    return itertools.chain(rows, [(n, bundle.X[n], bundle.Y[n], None, None)])


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


def _r_grid(n_steps: int, r_indices: Sequence[int], pairs=()) -> np.ndarray:
    """Sorted distinct perturbation steps of ``r_indices`` and ``pairs``.

    Raises ValueError when there is none, or naming the first step that
    is not an integer or lies outside [0, n_steps].
    """
    steps = [_step_indices(v) for v in (r_indices, pairs)]
    r_idx = np.unique(np.concatenate(steps))
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


def _inject_first(dx, dy, i: int, sigma, tau, s: _StepScales) -> None:
    """Start row i of both channels: (sqrt(eps) sigma, 0) on W1 and
    (0, tau/sqrt(eta)) on W2, with sigma, tau at the perturbation time."""
    dx[0, i] = s.eps_root * sigma
    dy[0, i] = 0.0
    dx[1, i] = 0.0
    dy[1, i] = tau / s.eta_root


def _first_step(d, dx, dy, w1, w2, s: _StepScales, k: int, r_idx):
    """Advance the (2, n_r, n_paths) first-order state over step k.

    ``d`` holds the :data:`_FIRST_KEYS` partials on the base state at k.
    """
    d1c, d2c, d1s, d2s, d1f, d2f, d1t, d2t = d
    dx_new = dx + (d1c * dx + d2c * dy) * s.dt + s.eps_root * (
        d1s * dx + d2s * dy
    ) * w1
    dy_new = dy + (d1f * dx + d2f * dy) * (s.dt / s.eta) + (
        d1t * dx + d2t * dy
    ) * (w2 / s.eta_root)
    if not (np.isfinite(dx_new).all() and np.isfinite(dy_new).all()):
        bad = np.argwhere(~(np.isfinite(dx_new) & np.isfinite(dy_new)))
        j, i = int(bad[0][0]), int(bad[0][1])
        raise TangentBlowUpError(
            f"first-order tangent blew up at step {k + 1} "
            f"(channel W{j + 1}, r-index {int(r_idx[i])})"
        )
    return dx_new, dy_new


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
    """Advance the (n_cells, n_paths) second-order state over step k.

    ``p`` holds the :data:`_PARTIAL_KEYS` values on the base state at k
    and ``factors`` the first-order (DX1, DY1, DX2, DY2) of every cell
    at k.
    """
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
    d2x_new = d2x + (d1c * d2x + b1c) * s.dt + s.eps_root * (d1s * d2x + b1s) * w1
    d2y_new = d2y + (d2f * d2y + b2f) * (s.dt / s.eta) + (d2t * d2y + b2t) * (
        w2 / s.eta_root
    )
    if not (np.isfinite(d2x_new).all() and np.isfinite(d2y_new).all()):
        bad = np.argwhere(~(np.isfinite(d2x_new) & np.isfinite(d2y_new)))
        raise TangentBlowUpError(
            f"second-order tangent blew up at step {k + 1} "
            f"(cell (j1, j2, r1, r2) = {tuple(cells[bad[0][0]])})"
        )
    return d2x_new, d2y_new


def _cell_array(cells) -> np.ndarray:
    """``cells`` as an (n_cells, 4) int array of (j1, j2, r1, r2); before
    any cast, ValueError names the first cell whose channel is not 0 (W1)
    or 1 (W2) or whose time is not an integer."""
    arr = np.asarray(cells).reshape(-1, 4)
    bad = ~np.isin(arr[:, :2], (0, 1)).all(axis=1)
    if bad.any():
        raise ValueError(
            f"cell {tuple(arr[bad][0].tolist())} has a channel other than 0 or 1"
        )
    return _step_indices(arr).reshape(-1, 4)


def _tangent_pass(
    model: CoefficientSet,
    regime: ScaleRegime,
    dt: float,
    n_steps: int,
    n_paths: int,
    states,
    r_indices: Sequence[int],
    cells: Sequence[tuple[int, int, int, int]] | None = None,
    record=None,
) -> tuple[FirstOrderTangents, dict[str, np.ndarray] | None]:
    """First- and second-order tangents in one loop over base states.

    ``states`` yields (k, x, y, dw1, dw2) for k = 0..n_steps-1 and last
    (n_steps, x, y, None, None): live noise through
    :func:`~fastslow.sde_engine._em_states`, or a stored bundle's rows
    through :func:`_stored_states`.  Step by step on them, the loop
    advances the first-order state from the first r and the
    second-order state from the first max(r1, r2); each cell
    (j1, j2, r1, r2) of ``cells`` starts at its own max(r1, r2) from its
    alpha data.  The r-grid is ``r_indices`` together with every r of
    ``cells``, each checked to lie in [0, n_steps].  ``record(k, dx,
    dy)``, when given, sees the (2, n_r, n_paths) first-order state at
    every k from the first r.

    Returns the tangents without series and (None without ``cells``) the
    (n_cells, n_paths) arrays ``final_d2x``, ``final_d2y``,
    ``sup_abs_d2x`` and ``sup_abs_d2y`` by name.  Beyond what ``states``
    holds it keeps O((n_r + n_cells) n_paths) state, so its memory does
    not grow with n_steps.
    """
    cell_arr = _cell_array(() if cells is None else cells)
    j1, j2, r1, r2 = cell_arr.T
    r_idx = _r_grid(n_steps, r_indices, cell_arr[:, 2:])
    s = _StepScales.of(regime, dt)
    # First-order r-rows of each cell's two factors.
    pos1, pos2 = np.searchsorted(r_idx, r1), np.searchsorted(r_idx, r2)
    cell_list = cell_arr.tolist()
    starts: dict[int, list[int]] = {}
    for c, k in enumerate(np.maximum(r1, r2).tolist()):
        starts.setdefault(k, []).append(c)
    row = {int(r): i for i, r in enumerate(r_idx)}
    pair_rows = set(cell_arr[:, 2:].ravel().tolist())
    dx, dy, sup_dx, sup_dy = (np.zeros((2, len(r_idx), n_paths)) for _ in range(4))
    d2x, d2y, sup_x, sup_y = (np.zeros((len(cell_arr), n_paths)) for _ in range(4))
    alpha: dict[int, tuple] = {}
    first_at = int(r_idx[0])
    second_at = min(starts, default=n_steps + 1)

    for k, x, y, w1, w2 in states:
        if k in row:
            sigma, tau = model.evaluate(x, y, ("sigma", "tau"))
            _inject_first(dx, dy, row[k], sigma, tau, s)
        if k in pair_rows:
            alpha[k] = model.evaluate(x, y, _ALPHA_KEYS)
        for c in starts.get(k, ()):
            a, b, t1, t2 = cell_list[c]
            # The tangent of the earlier r is the current state; that of
            # the later r is zero at the earlier time (current if equal).
            now_2 = (dx[b, pos2[c]], dy[b, pos2[c]]) if t2 <= t1 else (0.0, 0.0)
            now_1 = (dx[a, pos1[c]], dy[a, pos1[c]]) if t1 <= t2 else (0.0, 0.0)
            d2x[c], d2y[c] = _second_start(a, b, alpha[t1], alpha[t2], now_2, now_1, s)
        if k >= first_at:
            np.maximum(sup_dx, np.abs(dx), out=sup_dx)
            np.maximum(sup_dy, np.abs(dy), out=sup_dy)
            if record is not None:
                record(k, dx, dy)
        if k >= second_at:
            np.maximum(sup_x, np.abs(d2x), out=sup_x)
            np.maximum(sup_y, np.abs(d2y), out=sup_y)
        if w1 is None:
            break
        if k >= second_at:
            factors = (dx[j1, pos1], dy[j1, pos1], dx[j2, pos2], dy[j2, pos2])
            p = model.evaluate(x, y, _PARTIAL_KEYS)
            d2x, d2y = _second_step(p, d2x, d2y, factors, w1, w2, s, k, cell_list)
        if k >= first_at:
            d = model.evaluate(x, y, _FIRST_KEYS)
            dx, dy = _first_step(d, dx, dy, w1, w2, s, k, r_idx)

    first = FirstOrderTangents(
        r_indices=r_idx,
        r_values=r_idx * dt,
        regime=regime,
        dt=dt,
        final_dx=dx,
        final_dy=dy,
        sup_abs_dx=sup_dx,
        sup_abs_dy=sup_dy,
    )
    if cells is None:
        return first, None
    return first, {
        "final_d2x": d2x, "final_d2y": d2y, "sup_abs_d2x": sup_x, "sup_abs_d2y": sup_y
    }


def first_order_tangents(
    model: CoefficientSet,
    bundle: PathBundle,
    r_indices: Sequence[int],
    store_series: bool = True,
) -> FirstOrderTangents:
    """Integrate both-channel first-order tangents along every path.

    Runs the tangent recursion of the moment sweeps over the bundle's
    stored states and increments.  The perturbation at step index r
    injects the initial data (sqrt(eps) sigma, 0) on channel W1 and
    (0, tau/sqrt(eta)) on channel W2; states are zero before r.

    Parameters
    ----------
    r_indices : sequence of int
        Perturbation step indices in [0, n_steps] (ValueError naming
        the first outside); sorted and deduplicated internally.
    store_series : bool
        Keep the full (2, n_r, n_t, n_paths) series; final values and
        running sups are kept either way.
    """
    states = _stored_states(bundle)
    record = DX = DY = None
    if store_series:
        n_r = len(_r_grid(bundle.n_steps, r_indices))
        shape = (2, n_r, bundle.n_steps + 1, bundle.n_paths)
        _check_bytes(2, *shape)
        DX, DY = np.zeros(shape), np.zeros(shape)

        def record(k, dx, dy):
            DX[:, :, k] = dx
            DY[:, :, k] = dy

    first, _ = _tangent_pass(
        model, bundle.regime, bundle.dt, bundle.n_steps, bundle.n_paths,
        states, r_indices, record=record,
    )
    return replace(first, DX=DX, DY=DY)


def second_order_tangents(
    model: CoefficientSet,
    bundle: PathBundle,
    pairs: Sequence[tuple[int, int]],
    combos: Sequence[tuple[int, int]] = _ALL_COMBOS,
) -> SecondOrderTangents:
    """Integrate second-order tangents for the given (r1, r2) pairs.

    Runs the tangent recursion of the moment sweeps over the bundle's
    stored states and increments, with the first-order tangents of
    every r in ``pairs`` (each in [0, n_steps]; ValueError naming the
    first outside) advanced alongside.  Each channel combo (j1, j2) is
    integrated independently (so swap symmetry is a real check, not
    imposed).  The state is zero before t = max(r1, r2), starts there
    from the alpha initial data, read from the current first-order
    state, and is forced by the second-partial source terms

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
    _, second = _tangent_pass(
        model, bundle.regime, bundle.dt, bundle.n_steps, bundle.n_paths,
        _stored_states(bundle), (), cells,
    )
    shape = (len(combos), len(pair_arr), bundle.n_paths)
    return SecondOrderTangents(
        combos=tuple((int(a), int(b)) for a, b in combos),
        pair_indices=pair_arr,
        pair_values=pair_arr * bundle.dt,
        regime=bundle.regime,
        dt=bundle.dt,
        **{name: value.reshape(shape) for name, value in second.items()},
    )


def z_process(model: CoefficientSet, bundle: PathBundle, r_index: int) -> np.ndarray:
    """Exponential fundamental solution Z_r(t) of the fast tangent flow.

    Returns shape (n_t, n_paths): 1 for t <= r, and for t > r the
    exponential of the discretized log

        (1/eta) int d2_f ds + (1/sqrt(eta)) int d2_tau dW^2
        - (1/(2 eta)) int d2_tau^2 ds

    cumulated along the stored path and noise.  Always positive.
    """
    _require_storage(bundle)
    (r,) = _r_grid(bundle.n_steps, [r_index])
    eta = bundle.regime.eta
    n_t = bundle.n_steps + 1
    out = np.ones((n_t, bundle.n_paths))
    if r == bundle.n_steps:
        return out
    d2f, d2t = model.evaluate(bundle.X[r:-1], bundle.Y[r:-1], ("d2_f", "d2_tau"))
    incr = (
        d2f * (bundle.dt / eta)
        + d2t * (bundle.dW2[r:] / math.sqrt(eta))
        - d2t**2 * (bundle.dt / (2.0 * eta))
    )
    log_z = np.cumsum(incr, axis=0)
    if not np.all(np.isfinite(log_z)):
        raise TangentBlowUpError("z-process log overflowed; check dissipativity")
    out[r + 1 :] = np.exp(log_z)
    return out


def q_decomposition(
    model: CoefficientSet, bundle: PathBundle, r_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split D^{W2}Y_t into Q1 + Q2 along each path.

    Q1 = Zm(t) tau(X_r, Y_r)/sqrt(eta) with Zm the fundamental solution
    of the discretized homogeneous fast tangent recursion (so the
    decomposition telescopes exactly in discrete time); Q2 solves the
    affine recursion forced by D^{W2}X.  Both advance step by step with
    the first-order tangent pass, which keeps no tangent series.
    Verifies Q1 + Q2 against the directly integrated D^{W2}Y and raises
    :class:`DecompositionError` if the reconstruction residual exceeds
    1e-6 * (1 + max |D|).

    Returns (Q1, Q2), each of shape (n_t, n_paths), zero before r.
    """
    _require_storage(bundle)
    (r,) = _r_grid(bundle.n_steps, [r_index])
    eta = bundle.regime.eta
    eta_root = math.sqrt(eta)
    dt = bundle.dt
    n_t = bundle.n_steps + 1
    q1 = np.zeros((n_t, bundle.n_paths))
    q2 = np.zeros((n_t, bundle.n_paths))
    (tau_r,) = model.evaluate(bundle.X[r], bundle.Y[r], ("tau",))
    q1[r] = tau_r / eta_root
    zm = np.ones(bundle.n_paths)
    q2_state = np.zeros(bundle.n_paths)
    resid = d_max = 0.0

    def record(k, dx, dy):
        # D^{W2}X and D^{W2}Y at step k; Q1 + Q2 and D are zero before r.
        nonlocal zm, q2_state, resid, d_max
        dxw2, dyw2 = dx[1, 0], dy[1, 0]
        resid = max(resid, float(np.max(np.abs(q1[k] + q2[k] - dyw2))))
        d_max = max(d_max, float(np.max(np.abs(dyw2))))
        if k == bundle.n_steps:
            return
        d1f, d2f, d1t, d2t = model.evaluate(
            bundle.X[k], bundle.Y[k], ("d1_f", "d2_f", "d1_tau", "d2_tau")
        )
        a = 1.0 + d2f * (dt / eta) + d2t * (bundle.dW2[k] / eta_root)
        g = d1f * dxw2 * (dt / eta) + d1t * dxw2 * (bundle.dW2[k] / eta_root)
        zm = a * zm
        q2_state = a * q2_state + g
        q1[k + 1] = zm * (tau_r / eta_root)
        q2[k + 1] = q2_state

    _tangent_pass(
        model, bundle.regime, dt, bundle.n_steps, bundle.n_paths,
        _stored_states(bundle), [r], record=record,
    )
    tol = 1e-6 * (1.0 + d_max)
    if resid > tol:
        raise DecompositionError(
            f"Q1+Q2 reconstruction residual {resid:.3e} exceeds {tol:.3e}"
        )
    return q1, q2


def hnorm_first(first: FirstOrderTangents, r_values=None) -> np.ndarray:
    """Per-path fourth power of the derivative H-norm at the final time:

        ( int (|D_u^{W1}X_T|^2 + |D_u^{W2}X_T|^2) du )^2,

    trapezoid over the tangent r-grid (at least 8 nodes).  ``r_values``
    overrides the integration abscissae (same length as the r-grid);
    the stored sorted grid is used either way, so the result does not
    depend on how the caller enumerated the perturbation times.
    """
    if len(first.r_indices) < 8:
        raise ValueError("H-norm quadrature needs an r-grid of at least 8 nodes")
    nodes = first.r_values if r_values is None else np.asarray(r_values, float)
    if len(nodes) != len(first.r_indices):
        raise ValueError("r_values length must match the tangent r-grid")
    integrand = np.sum(first.final_dx**2, axis=0)  # (n_r, n_paths)
    return np.trapezoid(integrand, nodes, axis=0) ** 2


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes, dtype=float)
    w[:-1] += np.diff(nodes) / 2.0
    w[1:] += np.diff(nodes) / 2.0
    return w


def contraction_norm_second(second: SecondOrderTangents, r_values=None) -> np.ndarray:
    """Per-path squared contraction norm of the final-time second kernel.

    Requires ``second`` built on the full pair grid of an r-grid (at
    least 8 nodes) with all four channel combos.  For channel pair
    (i, j) forms the one-argument contraction

        M[v, w] = sum_k int D2[i,k,u,v] * D2[k,j,u,w] du

    (trapezoid in u over the r-grid) and returns the squared
    Hilbert-Schmidt size  sum_{i,j} int int M[v, w]^2 dv dw  per path.
    ``r_values`` overrides the integration abscissae.
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
    nodes = r_idx * second.dt if r_values is None else np.asarray(r_values, float)
    if len(nodes) != n_r:
        raise ValueError("r_values length must match the r-grid")
    w = _trapezoid_weights(nodes)
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


def _sweep_pass(
    model: CoefficientSet,
    regime: ScaleRegime,
    dt: float,
    n_steps: int,
    x0: float,
    y0: float,
    seed,
    stream: tuple[int, int],
    path_ids: Sequence[int],
    r_indices: Sequence[int],
    cells: Sequence[tuple[int, int, int, int]] | None = None,
):
    """One :func:`_tangent_pass` on live noise over the paths ``path_ids``,
    drawn from the streams (seed, purpose, point, path_id, channel) with
    ``stream`` = (purpose, point)."""
    purpose, point = stream
    noise = _noise_blocks(seed, path_ids, n_steps, dt, purpose=purpose, point=point)
    states = _em_states(model, _StepScales.of(regime, dt), x0, y0, len(path_ids), noise)
    return _tangent_pass(
        model, regime, dt, n_steps, len(path_ids), states, r_indices, cells
    )


def _mean_se(per_path: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of per-path values."""
    n = per_path.size
    mean = float(np.sum(per_path)) / n
    var = max(float(np.sum(per_path**2)) / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)


def _require_values(name: str, values, upper: float = math.inf) -> list[float]:
    """``values`` as floats; ValueError naming ``name`` when there is none
    or naming the first that is not a finite number in [0, upper]."""
    out = [float(v) for v in values]
    if not out:
        raise ValueError(f"{name} must not be empty")
    for v in out:
        if not (0.0 <= v <= upper and math.isfinite(v)):
            raise ValueError(f"{name} value {v} is not a finite number in [0, {upper:g}]")
    return out


def moment_sweep(
    model: CoefficientSet,
    regimes: Sequence[ScaleRegime],
    p: int,
    n_paths: int,
    r_selection: Sequence[float] = (0.25, 0.5, 0.75),
    seed=0,
    x0: float = 0.0,
    y0: float = 0.0,
    dt: float | None = None,
    pair_sep_etas: float = 3.0,
    k_hat: float | None = None,
    assumption_box: tuple[float, float] = (-6.0, 6.0),
) -> dict[str, MomentReport]:
    """Monte Carlo moment suite for the six tangent bounds.

    ``r_selection`` gives the first-order perturbation times as
    fractions of the horizon, each in [0, 1].  For each regime (ordered
    by decreasing epsilon) computes:

    - ``dw1_x_sup`` / ``dw2_x_sup``: mean over the r-selection of
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
    under-sampled warning (never a failure).  ``dt`` defaults to eta/20
    per regime; a larger step raises
    :class:`~fastslow.sde_engine.StabilityError` before any work, as do
    an empty ``r_selection``, a fraction outside [0, 1] and a negative
    or non-finite ``pair_sep_etas`` (ValueError naming the value).

    Each regime runs one step loop over all ``n_paths`` paths that
    advances the base path, the first-order tangents from the first
    perturbation step and the three second-order cells the bounds read,
    (W1, W1) at (T/2, T/2) and (W1, W2), (W2, W2) at (T/2, r2), from
    the first max(r1, r2); no path, increment or tangent series is
    kept.  The pass holds O((n_r + 3) n_paths) tangent state, one noise
    block of at most 32 MiB and a draw buffer of at most 512 streams.
    Regime i draws path j's noise from the streams (seed, moment sweep,
    i + 1, j, channel), so a path's values do not depend on which paths
    share its pass.  The tangent recursion is the one
    :func:`first_order_tangents` and :func:`second_order_tangents` run
    over a stored bundle, so they give the same values on the same
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
    fractions = _require_values("r_selection", r_selection, 1.0)
    _require_values("pair_sep_etas", [pair_sep_etas])
    steps = [dt if dt is not None else r.eta / 20.0 for r in regimes]
    for step, regime in zip(steps, regimes):
        _check_stability(step, regime.eta)
    if k_hat is None:
        rep = check_assumptions(
            model, assumption_box, assumption_box, 201, 201, p
        )
        if not rep.passes:
            raise ValueError(
                f"model {model.name!r} fails the dissipativity margin at "
                f"p={p} (K_hat={rep.K_hat:.4g}); envelopes are undefined"
            )
        k_hat = rep.K_hat

    per_regime: list[dict] = []
    for i_reg, (regime, step) in enumerate(zip(regimes, steps)):
        T = regime.T
        n_steps, dt_eff = time_grid(T, step)
        r_sel = sorted({int(round(f * n_steps)) for f in fractions})
        r_mid = int(round(0.5 * n_steps))
        sep_steps = int(round(pair_sep_etas * regime.eta / dt_eff))
        r_lo = max(0, r_mid - sep_steps)
        cells = [(0, 0, r_mid, r_mid), (0, 1, r_mid, r_lo), (1, 1, r_mid, r_lo)]
        r_union = sorted(set(r_sel) | {r_mid, r_lo})
        first, second = _sweep_pass(
            model, regime, dt_eff, n_steps, x0, y0, seed,
            (PURPOSE_MOMENT_SWEEP, i_reg + 1), range(n_paths), r_union, cells,
        )
        sel_rows = [first.position(r) for r in r_sel]
        d2x_w1w1, d2x_w1w2, d2x_w2w2 = second["final_d2x"]
        per_path = {
            "dw1_x_sup": np.mean(first.sup_abs_dx[0, sel_rows] ** (2 * p), axis=0),
            "dw2_x_sup": np.mean(first.sup_abs_dx[1, sel_rows] ** (2 * p), axis=0),
            "dw2_y_final": np.abs(first.final_dy[1, first.position(r_mid)]) ** (2 * p),
            "d2x_w1w1": np.abs(d2x_w1w1) ** (2 * p),
            "d2x_w1w2": np.abs(d2x_w1w2) ** (2 * p),
            "d2x_w2w2": np.abs(d2x_w2w2) ** (2 * p),
        }
        sep = (r_mid - r_lo) * dt_eff
        env = _moment_envelopes(
            p, regime.epsilon, regime.eta, k_hat, T, r_mid * dt_eff, sep
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
    separations_eta: Sequence[float],
    dt: float | None = None,
) -> tuple[int, float, int, list[int]]:
    """(n_steps, dt_eff, r_top, r_list) of :func:`decay_check`: r_top is
    the step of r1 = T/2 or of the horizon, r_list those of the
    separations before it.  ValueError names a bound without separation
    structure and an empty list or a separation that is negative,
    non-finite or reaches before t = 0."""
    seps = check_decay_settings([bound_id], separations_eta)
    step = dt if dt is not None else regime.eta / 20.0
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
) -> list[float]:
    """The separations as floats, after the checks :func:`decay_check`
    makes before any work.  ValueError names a bound without separation
    structure, an empty list or a separation that is negative or
    non-finite; given ``regime``, also a separation that reaches before
    t = 0 there at the default step eta/20."""
    for bound_id in bound_ids:
        if bound_id not in (*_MIXED_BOUNDS, "dw2_y_final"):
            raise ValueError(f"no separation structure for bound {bound_id!r}")
    seps = _require_values("separations_eta", separations_eta)
    if regime is not None:
        for bound_id in bound_ids:
            _decay_steps(regime, bound_id, seps)
    return seps


def decay_check(
    model: CoefficientSet,
    regime: ScaleRegime,
    bound_id: str,
    p: int,
    n_paths: int,
    seed,
    separations_eta: Sequence[float] = (1.0, 3.0, 10.0),
    x0: float = 0.0,
    y0: float = 0.0,
    dt: float | None = None,
) -> DecayReport:
    """Moment decay in the perturbation-time separation.

    For ``d2x_w1w2`` / ``d2x_w2w2``: E|D2_{r1,r2} X_T|^{2p} with
    r1 = T/2 and r2 = r1 - sep;  for ``dw2_y_final``:
    E|D_r^{W2} Y_T|^{2p} with r = T - sep.  Separations are given in
    units of eta and checked by :func:`_decay_steps` before any work.
    All separations share the same simulated paths, so the comparison
    is low-noise; monotone_within_noise allows each consecutive increase
    up to twice the summed standard errors.  ``dt`` defaults to eta/20;
    a larger step raises :class:`~fastslow.sde_engine.StabilityError`.
    Like :func:`moment_sweep`, one step loop over all paths advances the
    base path and starts every tangent at its perturbation step, and
    keeps no series; the mixed bounds advance one second-order cell
    (j1, W2, r1, r2) per separation, with j1 = W1 for ``d2x_w1w2`` and
    W2 for ``d2x_w2w2``.  Path j draws its noise from the streams (seed,
    decay check, 0, j, channel), which no moment sweep point shares.
    """
    _require_positive(n_paths=n_paths)
    n_steps, dt_eff, r_top, r_list = _decay_steps(regime, bound_id, separations_eta, dt)
    seps = [float(s) for s in separations_eta]
    if bound_id == "dw2_y_final":
        r_union = sorted(set(r_list))
        cells = None
    else:
        r_union = sorted({r_top, *r_list})
        j1 = 0 if bound_id == "d2x_w1w2" else 1
        cells = [(j1, 1, r_top, r2) for r2 in r_list]

    first, second = _sweep_pass(
        model, regime, dt_eff, n_steps, x0, y0, seed,
        (PURPOSE_DECAY_CHECK, 0), range(n_paths), r_union, cells,
    )
    if second is None:
        per_sep = [np.abs(first.final_dy[1, first.position(r)]) for r in r_list]
    else:
        per_sep = list(np.abs(second["final_d2x"]))
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


def quadruple_quadrature(
    k: float, T: float, rel_tol: float = 1e-6, max_panels: int = 512
) -> tuple[float, bool]:
    """Adaptive 4-D quadrature by panel-doubling Gauss-Legendre.

    Composite 8-point Gauss-Legendre panels per axis, refined by
    doubling until the relative change drops below ``rel_tol``.
    Returns (value, converged).
    """
    xg, wg = np.polynomial.legendre.leggauss(8)
    prev = None
    n = 8
    while n <= max_panels:
        edges = np.linspace(0.0, T, n + 1)
        h = np.diff(edges)
        pts = (edges[:-1, None] + h[:, None] * (xg[None, :] + 1.0) / 2.0).ravel()
        wts = (h[:, None] * wg[None, :] / 2.0).ravel()
        val = _pairwise_value(pts, wts, k)
        if prev is not None and abs(val - prev) <= rel_tol * abs(val):
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


def quadruple_integral_check(
    k: float, T: float = 1.0, small_k_threshold: float = 6.0
) -> QuadrupleIntegralReport:
    """Evaluate the quadruple decay integral and its fitted envelope.

    The analytic closed form is always computed; for k below
    ``small_k_threshold`` an independent adaptive quadrature runs as a
    cross-check (skipped at large k where the closed form's leading
    terms dominate and the quadrature would need very fine panels).
    Nonconvergent quadrature falls back to analytic-only with a flag.
    """
    analytic = quadruple_analytic(k, T)
    if k <= small_k_threshold:
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
