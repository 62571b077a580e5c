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
the moment sweeps feed it the streams of their own points, and the
oracles of :mod:`fastslow.oracles` replay a
:class:`~fastslow.sde_engine.PathBundle` through it on the noise
redrawn from the bundle's streams.

The module also evaluates the Monte Carlo moment-inequality suite
(scaling of tangent moments in eps and eta) and the decay of the
moments in the perturbation-time separation.  The Z-process, the
Q1 + Q2 split, the bundle tangents, the norms of the final-time kernels
and the quadruple time-decay integral are in :mod:`fastslow.oracles`,
which no run imports.
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
    _require_positive,
    check_assumptions,
)
from fastslow.sde_engine import (
    PURPOSE_DECAY_CHECK,
    PURPOSE_MOMENT_SWEEP,
    STABILITY_FRACTION,
    ScaleRegime,
    _EM_KEYS,
    _em_states,
    _grid,
    _joined_paths,
    _noise_blocks,
    _run_shares,
    _split,
    _steps,
    _StepScales,
    _workers,
    simulate_paths,  # noqa: F401  (perfbench's tracer wraps it here)
)

__all__ = [
    "MomentPoint",
    "MomentReport",
    "DecayReport",
    "TangentBlowUpError",
    "moment_sweep",
    "decay_check",
    "BOUND_IDS",
    "check_decay_settings",
    "DECAY_SEPARATIONS",
]


def __getattr__(name: str):
    """The bundle tangents, which live in :mod:`fastslow.oracles`, by
    their old names here.  perfbench's tracer (``WRAPPED`` in
    ``perfbench/tracing.py``) looks both up in this module; the forward
    goes away when ROADMAP item 1(d) deletes the tracer's wrappers.  A
    lookup loads :mod:`fastslow.oracles` on first use only."""
    if name in ("first_order_tangents", "second_order_tangents"):
        from fastslow import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

#: The rows of one tangent pass (:func:`_tangent_pass`), first- and
#: second-order.
_FIRST_ROWS = ("final_dx", "final_dy", "sup_abs_dx", "sup_abs_dy")
_SECOND_ROWS = ("final_d2x", "final_d2y", "sup_abs_d2x", "sup_abs_d2y")

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
    return frozenset(key for key in _PARTIAL_KEYS if expressions[key].is_zero)


_alpha_partials = _picker(_ALPHA_KEYS)
_injection_values = _picker(("sigma", "tau"))


class TangentBlowUpError(FloatingPointError):
    """A tangent trajectory became non-finite."""


def _r_grid(n_steps: int, r_indices: Sequence[int]) -> np.ndarray:
    """The perturbation steps of ``r_indices`` as an int array, by
    :func:`~fastslow.sde_engine._steps`; ValueError also when there is
    none."""
    r_idx = np.array(_steps(r_indices, n_steps, "r-index"), dtype=int)
    if len(r_idx) == 0:
        raise ValueError("need at least one perturbation index")
    return r_idx


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
    channel is not 0 (W1) or 1 (W2), then the first entry that is not an
    integer (:func:`~fastslow.sde_engine._steps`); the caller checks the
    steps' range."""
    arr = np.asarray(rows).reshape(-1, width)
    bad = ~np.isin(arr[:, : width // 2], (0, 1)).all(axis=1)
    if bad.any():
        raise ValueError(
            f"{what} {tuple(arr[bad][0].tolist())} has a channel other than 0 or 1"
        )
    _steps(rows, math.inf, "r-index")
    return arr.astype(int)


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
    or of a bundle's (:func:`fastslow.oracles._bundle_pass`).  The pass runs
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
    ``dt``, its streams (seed, ``purpose``, ``point``, path id, channel),
    the tangents and cells that its bounds read and the names of the
    rows of :func:`_tangent_pass` that its sweep's ``finish`` reads."""

    regime: ScaleRegime
    n_steps: int
    dt: float
    purpose: int
    point: int
    tangents: list[tuple[int, int]]
    cells: list[tuple[int, int, int, int]] | None
    reads: tuple[str, ...]


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
    finish,
) -> list:
    """``finish(i, rows)`` for each pass i of a sweep, in the order of
    ``passes``, where ``rows`` holds the rows named in the pass's
    ``reads`` of what :func:`_tangent_pass` returns for pass i over paths
    0..n_paths-1 started at (x0, y0).

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
    value.  ``finish`` runs where a pass's rows are whole: a worker of
    whole passes finishes each itself and returns only what ``finish``
    keeps, which this process concatenates in pass order; a worker of a
    share of paths returns its share's rows, only those of ``reads``,
    which this process joins along the path axis in path order and then
    finishes.  Either way ``finish`` reads the same full-path arrays, so
    no value moves.  The error of the first failing range of passes or
    share of paths is raised, so with whole passes an earlier pass fails
    before a later one, as in process; an Euler-Maruyama error names the
    path id.
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
            rows = _tangent_pass(
                model, q.regime, q.dt, q.n_steps, x0, y0, noise, len(ids),
                q.tangents, q.cells, first_column=ids.start,
            )
            rows = {name: rows[name] for name in q.reads}
            out.append(finish(i, rows) if whole else rows)
        return out

    model.compile(_EM_KEYS, COEFFICIENT_KEYS)  # before the fork, as in simulate_paths
    parts = _run_shares(run, shares, "regimes" if whole else "paths")
    if whole:
        return [result for part in parts for result in part]
    return [finish(i, rows) for i, rows in enumerate(_joined_paths(parts))]


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

    The moment order ``p`` is the integer 1 or 2 (ValueError naming it
    otherwise).  The envelope constant ``C_fit`` is anchored at the
    first regime; a Monte Carlo standard error above 30% of the mean
    attaches an under-sampled warning (never a failure).  ``k_hat``
    defaults to the ``K_hat`` of
    :func:`~fastslow.coefficients.check_assumptions` on
    ``ASSUMPTION_GRID`` (ValueError when it fails).  Each regime steps
    at ``dt_eta_fraction`` of its eta (default 1/20, the stability
    guard); a larger fraction, or one that is not positive, raises
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
    regimes, the ranges balanced by their summed steps, and returns each
    regime's moments (mean and standard error per bound), or, with more
    workers than regimes, runs every regime on a contiguous share of the
    paths and returns its share's rows of the three kinds the moments
    read.  Regime i draws path j's noise from the streams (seed, moment
    sweep, i + 1, j, channel), so a path's values do not depend on which
    paths share its pass or its worker.  The tangent pass is the one
    that :func:`fastslow.oracles.first_order_tangents` and
    :func:`fastslow.oracles.second_order_tangents` run over a bundle's
    streams, so they give the same values on the same paths.
    :func:`_moment_reports` serves several orders p from the same passes.
    """
    return _moment_reports(
        model, regimes, [p], n_paths, seed, x0, y0, dt_eta_fraction, pair_sep_etas, k_hat
    )[p]


def _moment_reports(
    model: CoefficientSet,
    regimes: Sequence[ScaleRegime],
    orders: Sequence[int],
    n_paths: int,
    seed=0,
    x0: float = 0.0,
    y0: float = 0.0,
    dt_eta_fraction: float = STABILITY_FRACTION,
    pair_sep_etas: float = 3.0,
    k_hat: float | None = None,
) -> dict[int, dict[str, MomentReport]]:
    """:func:`moment_sweep` at each moment order p of ``orders``, as
    {p: its reports}, from one tangent pass per regime: the pass's rows
    do not depend on p, so each is finished into the moments of every
    order at once.  Every order is checked, and without ``k_hat`` its
    :func:`~fastslow.coefficients.check_assumptions` run, before any
    pass."""
    _require_positive(n_paths=n_paths)
    if len(regimes) < 1:
        raise ValueError("need at least one regime")
    eps_list = [r.epsilon for r in regimes]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("regimes must be ordered by strictly decreasing epsilon")
    for p in orders:
        _require_positive(p=p)
        if p > 2:
            raise ValueError(f"moment order p must be 1 or 2 (got {p})")
    _require_values("pair_sep_etas", [pair_sep_etas])
    grids = [_grid(r, dt_eta_fraction * r.eta) for r in regimes]
    k_hats = dict.fromkeys(orders, k_hat)
    box, nodes = ASSUMPTION_GRID
    for p in orders:
        if k_hat is None:
            rep = check_assumptions(model, box, box, nodes, nodes, p)
            if not rep.passes:
                raise ValueError(
                    f"model {model.name!r} fails the dissipativity margin at "
                    f"p={p} (K_hat={rep.K_hat:.4g}); envelopes are undefined"
                )
            k_hats[p] = rep.K_hat

    passes, picks = [], []
    for i_reg, (regime, (n_steps, dt_eff)) in enumerate(zip(regimes, grids)):
        r_sel = sorted({int(round(f * n_steps)) for f in _R_SELECTION})
        r_mid = int(round(0.5 * n_steps))
        sep_steps = int(round(pair_sep_etas * regime.eta / dt_eff))
        r_lo = max(0, r_mid - sep_steps)
        cells = [(0, 0, r_mid, r_mid), (0, 1, r_mid, r_lo), (1, 1, r_mid, r_lo)]
        tangents = [(j, r) for j in (0, 1) for r in r_sel] + [(1, r_mid)]
        passes.append(
            _SweepPass(
                regime, n_steps, dt_eff, PURPOSE_MOMENT_SWEEP, i_reg + 1,
                tangents, cells, ("sup_abs_dx", "final_dy", "final_d2x"),
            )
        )
        picks.append((len(r_sel), r_mid, r_lo))

    def finish(i: int, rows: dict[str, np.ndarray]) -> dict[int, dict]:
        """{p: {bound_id: (mean, stderr)}} of regime i's rows."""
        n_sel = picks[i][0]
        sup_abs_dx = rows["sup_abs_dx"]
        finals = {
            "dw2_y_final": np.abs(rows["final_dy"][2 * n_sel]),
            **dict(zip(("d2x_w1w1", "d2x_w1w2", "d2x_w2w2"), np.abs(rows["final_d2x"]))),
        }
        return {
            p: {
                "dw1_x_sup": _mean_se(np.mean(sup_abs_dx[:n_sel] ** (2 * p), axis=0)),
                "dw2_x_sup": _mean_se(
                    np.mean(sup_abs_dx[n_sel : 2 * n_sel] ** (2 * p), axis=0)
                ),
                **{bound_id: _mean_se(v ** (2 * p)) for bound_id, v in finals.items()},
            }
            for p in orders
        }

    moments = _sweep_passes(model, passes, n_paths, seed, x0, y0, finish)
    by_order: dict[int, dict[str, MomentReport]] = {p: {} for p in orders}
    for p, bound_id in itertools.product(orders, BOUND_IDS):
        points, warnings, c_fit = [], [], 0.0
        for i, (q, (_, r_mid, r_lo), finished) in enumerate(zip(passes, picks, moments)):
            regime, sep = q.regime, (r_mid - r_lo) * q.dt
            mean, se = finished[p][bound_id]
            envelope = _moment_envelopes(
                p, regime.epsilon, regime.eta, k_hats[p], regime.T, r_mid * q.dt, sep
            )[bound_id]
            if i == 0:
                c_fit = mean / envelope if envelope > 0 else 0.0
            if mean > 0 and se > 0.3 * mean:
                warnings.append(
                    f"point {i} (eps={regime.epsilon:g}): "
                    f"stderr {se:.2e} exceeds 30% of mean {mean:.2e}"
                )
            separation = (pair_sep_etas * regime.eta, sep) if bound_id in _MIXED_BOUNDS else ()
            points.append(
                MomentPoint(
                    regime.epsilon, regime.eta, mean, envelope, se,
                    mean <= c_fit * envelope * (1.0 + 1e-12), *separation,
                )
            )
        by_order[p][bound_id] = MomentReport(
            bound_id, p, tuple(points), c_fit, all(q.passes for q in points), tuple(warnings)
        )
    return by_order


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
    n_steps, dt_eff = _grid(regime, dt_eta_fraction * regime.eta)
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
    :func:`_decay_steps` before any work, as are ``p`` and ``n_paths``,
    integers >= 1 (ValueError naming them).
    All separations share the same simulated paths, so the comparison
    is low-noise; monotone_within_noise allows each consecutive increase
    up to twice the summed standard errors.  The step is
    ``dt_eta_fraction`` of eta (default 1/20, the stability guard); a
    larger fraction, or one that is not positive, raises
    :class:`~fastslow.sde_engine.StabilityError`.
    Like :func:`moment_sweep`, one tangent pass advances the base path
    and only the tangents the bound reads, each from its own start, and
    keeps no series: ``dw2_y_final`` the W2 tangent at each r, the mixed
    bounds one second-order cell (j1, W2, r1, r2) per separation, with
    j1 = W1 for ``d2x_w1w2`` and W2 for ``d2x_w2w2``, and its two
    factors.  A pass of at least 1M path-steps is split into contiguous
    shares of the path ids, one per CPU, that run at once on forked
    workers, each returning its paths' rows of the one or two kinds the
    bounds read, which this process joins and reduces
    (:func:`_sweep_passes`).  Path j draws its noise from the streams
    (seed, decay check, 0, j, channel), which no moment sweep point
    shares.  :func:`_decay_reports` checks several bounds
    in one pass.
    """
    return _decay_reports(
        model, regime, [bound_id], p, n_paths, seed, separations_eta, x0, y0,
        dt_eta_fraction,
    )[bound_id]


def _decay_reports(
    model: CoefficientSet,
    regime: ScaleRegime,
    bound_ids: Sequence[str],
    p: int,
    n_paths: int,
    seed,
    separations_eta: Sequence[float] = DECAY_SEPARATIONS,
    x0: float = 0.0,
    y0: float = 0.0,
    dt_eta_fraction: float = STABILITY_FRACTION,
) -> dict[str, DecayReport]:
    """:func:`decay_check` of each bound of ``bound_ids``, as {bound_id:
    its report}, from one tangent pass that holds the union of the
    bounds' tangents and cells.  Each row is stepped alone on the same
    noise, so each report equals the bound's own check."""
    _require_positive(n_paths=n_paths, p=p)
    bound_ids = list(dict.fromkeys(bound_ids))  # a config may name a bound twice
    seps = check_decay_settings(bound_ids, separations_eta)
    tangents: list[tuple[int, int]] = []
    cells: list[tuple[int, int, int, int]] = []
    picks = {}  # bound_id: (the rows it reads, their slice)
    # n_steps and dt_eff depend on the regime alone; r_top on the bound.
    for bound_id in bound_ids:
        n_steps, dt_eff, r_top, r_list = _decay_steps(regime, bound_id, seps, dt_eta_fraction)
        if bound_id == "dw2_y_final":
            picks[bound_id] = "final_dy", slice(len(tangents), len(tangents) + len(seps))
            tangents += [(1, r) for r in r_list]
        else:
            j1 = 0 if bound_id == "d2x_w1w2" else 1
            picks[bound_id] = "final_d2x", slice(len(cells), len(cells) + len(seps))
            cells += [(j1, 1, r_top, r2) for r2 in r_list]

    def finish(i: int, rows: dict[str, np.ndarray]) -> dict[str, list]:
        """{bound_id: [(mean, stderr) per separation]} of the pass's rows."""
        return {
            bound_id: [_mean_se(v ** (2 * p)) for v in np.abs(rows[key][at])]
            for bound_id, (key, at) in picks.items()
        }

    one_pass = _SweepPass(
        regime, n_steps, dt_eff, PURPOSE_DECAY_CHECK, 0, tangents, cells or None,
        tuple(dict.fromkeys(key for key, _ in picks.values())),
    )
    [moments] = _sweep_passes(model, [one_pass], n_paths, seed, x0, y0, finish)
    reports = {}
    for bound_id, per_sep in moments.items():
        means, ses = zip(*per_sep)
        monotone = all(
            means[i + 1] <= means[i] + 2.0 * (ses[i] + ses[i + 1])
            for i in range(len(means) - 1)
        )
        reports[bound_id] = DecayReport(
            bound_id=bound_id,
            p=p,
            epsilon=regime.epsilon,
            eta=regime.eta,
            separations=tuple(seps),
            empirical=means,
            stderr=ses,
            monotone_within_noise=monotone,
        )
    return reports
