"""The paper's oracles: the checks that tests and studies run, and no run.

Along a :class:`~fastslow.sde_engine.PathBundle`:

- :func:`first_order_tangents` and :func:`second_order_tangents`, the
  tangents of both channels at every r of a grid and of every cell of a
  combos x pairs product, with the full first-order series on request;
- :func:`z_process`, the exponential fundamental solution Z_r(t) of the
  fast tangent flow, and :func:`q_decomposition`, the split
  D^{W2}Y = Q1 + Q2 with Q1 = Z * tau(X_r, Y_r)/sqrt(eta).

Each replays the bundle from its initial state on the noise redrawn
from its streams, so none needs a captured state or stored noise.  The
first two ask the tangent pass of the moment sweeps,
:func:`fastslow.malliavin._tangent_pass` (:func:`_bundle_pass`), for
their full grids; :func:`q_decomposition` reads that pass at every step
from r through its ``record`` hook, with the W2 tangent at r, and
:func:`z_process`, which reads only the base path, runs the bundle's
Euler-Maruyama recursion alone.

On the final-time kernels: the H-norm :func:`hnorm_first` and the
contraction norm :func:`contraction_norm_second`, trapezoid rules over
an r-grid (:func:`default_r_grid`, :func:`full_pair_grid`).  And the
quadruple time-decay integral with its exact closed form
(:func:`quadruple_analytic`), brute-force and quadrature cross-checks
and fitted envelope.

No run path imports this module: ``import fastslow`` exports its public
names lazily, and the CLI and the sweeps never load it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from fastslow.coefficients import CoefficientSet, _require_positive
from fastslow.malliavin import (
    _SECOND_ROWS,
    TangentBlowUpError,
    _picker,
    _r_grid,
    _tangent_pass,
)
from fastslow.sde_engine import (
    PathBundle,
    ScaleRegime,
    _em_states,
    _noise_blocks,
    _steps,
    _StepScales,
)

__all__ = [
    "FirstOrderTangents",
    "SecondOrderTangents",
    "QuadrupleIntegralReport",
    "DecompositionError",
    "first_order_tangents",
    "second_order_tangents",
    "z_process",
    "q_decomposition",
    "hnorm_first",
    "contraction_norm_second",
    "default_r_grid",
    "full_pair_grid",
    "quadruple_analytic",
    "quadruple_brute_force",
    "quadruple_quadrature",
    "quadruple_envelope",
    "quadruple_fit_constant",
    "quadruple_integral_check",
]

#: :func:`quadruple_quadrature` stops at this relative change or beyond
#: this many panels per axis; :func:`quadruple_integral_check` runs it
#: up to k = ``_QUADRATURE_MAX_K``.
_QUADRATURE_REL_TOL = 1e-6
_QUADRATURE_MAX_PANELS = 512
_QUADRATURE_MAX_K = 6.0

#: Every channel pair (j1, j2), 0 = W1 and 1 = W2, in row-major order.
_ALL_COMBOS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Soft cap on tangent series allocations (bytes).
_SERIES_BYTE_CAP = 2 * 1024**3

_tau = _picker(("tau",))
_fast_partials = _picker(("d1_f", "d2_f", "d1_tau", "d2_tau"))


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
    """n_r equispaced step indices spanning [0, T] (first..last step);
    ValueError names an n_steps or n_r that is not an integer >= 1."""
    _require_positive(n_steps=n_steps, n_r=n_r)
    return _r_grid(n_steps, np.round(np.linspace(0, n_steps, n_r)).astype(int))


def full_pair_grid(r_indices: Sequence[int]) -> np.ndarray:
    """All (r1, r2) pairs of an r-grid in row-major order; ValueError
    names the first r that is not an integer
    (:func:`~fastslow.sde_engine._steps`)."""
    _steps(r_indices, math.inf, "r-index")
    r = np.asarray(r_indices).ravel().astype(int)
    return np.array([(a, b) for a in r for b in r], dtype=int)


def _check_bytes(*shape: int) -> None:
    need = 8 * int(np.prod([int(s) for s in shape]))
    if need > _SERIES_BYTE_CAP:
        raise MemoryError(
            f"tangent series of shape {shape} needs {need / 1e9:.1f} GB; "
            "reduce the r-grid, the path count, or disable store_series"
        )


def _bundle_pass(
    model: CoefficientSet,
    bundle: PathBundle,
    tangents: Sequence[tuple[int, int]],
    cells: Sequence[tuple[int, int, int, int]] | None = None,
    record=None,
) -> dict[str, np.ndarray]:
    """:func:`~fastslow.malliavin._tangent_pass` along a bundle's paths,
    from its x0, y0, on :func:`_bundle_noise`."""
    return _tangent_pass(
        model, bundle.regime, bundle.dt, bundle.n_steps, bundle.x0, bundle.y0,
        _bundle_noise(bundle), bundle.n_paths, tangents, cells, record,
    )


def _bundle_noise(bundle: PathBundle):
    """The noise blocks redrawn from a bundle's streams (master_seed,
    paths, point, j, channel), bit for bit the increments
    :func:`~fastslow.sde_engine.simulate_paths` drew."""
    return _noise_blocks(
        bundle.master_seed, range(bundle.n_paths), bundle.n_steps, bundle.dt,
        point=bundle.point,
    )


def first_order_tangents(
    model: CoefficientSet,
    bundle: PathBundle,
    r_indices: Sequence[int],
    store_series: bool = True,
) -> FirstOrderTangents:
    """Integrate both-channel first-order tangents along every path.

    Replays the bundle through the tangent pass of the moment sweeps
    (:func:`_bundle_pass`), asking for both channels at every r.
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
    (j1, j2, r1, r2) of the ``combos`` x ``pairs`` product (each r an
    integer in [0, n_steps]; ValueError naming the first that is not,
    :func:`~fastslow.sde_engine._steps`); the first-order
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
    _steps(pairs, bundle.n_steps, "r-index")
    pair_arr = np.asarray(pairs).reshape(-1, 2).astype(int)
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
    its recursion.  It reads only the base path, so it replays the
    bundle's Euler-Maruyama recursion
    (:func:`~fastslow.sde_engine._em_states` on :func:`_bundle_noise`)
    with no tangent: d2_f and d2_tau come from the coefficient values
    evaluated at each state from r on, with the W2 increments of each
    step.  Always positive.
    """
    (r,) = _r_grid(bundle.n_steps, [r_index])
    eta = bundle.regime.eta
    out = np.ones((bundle.n_steps + 1, bundle.n_paths))
    if r == bundle.n_steps:
        return out
    states = _em_states(
        model, _StepScales.of(bundle.regime, bundle.dt), bundle.x0, bundle.y0,
        bundle.n_paths, _bundle_noise(bundle), keys_from=r,
    )
    log_z = None
    for k, _, _, _, w2, values in states:
        if k < r:
            continue
        if w2 is None:
            break
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
