"""Euler-Maruyama simulation of the coupled slow-fast system.

Paths of

    dX = c(X, Y) dt + sqrt(eps) * sigma(X, Y) dW^1
    dY = (1/eta) f(X, Y) dt + (1/sqrt(eta)) tau(X, Y) dW^2

are advanced with the explicit scheme

    X_{k+1} = X_k + c dt + sqrt(eps) sigma dW1_k
    Y_{k+1} = Y_k + (f/eta) dt + (tau/sqrt(eta)) dW2_k

under the stability guard dt <= eta/20 (twenty steps per fast
relaxation time).  One rule lays the time grid: :func:`_grid` applies
the guard to a positive step, then :func:`time_grid`, for every
simulation, sweep and set of checkpoints.  One rule takes the steps
asked of a grid, capture indices and perturbation steps alike:
:func:`_steps` keeps each once, in ascending order, and names the first
that is not an integer or lies off it.  Every random number comes from
a counter-based Philox stream (Salmon et al., SC11): every stream of a
run has the key ``SeedSequence(seed).generate_state(2, uint64)``, the
seed a non-negative int, and starts at the counter
(0, 0, path_id | channel << 32, purpose | point << 32), its stream id:
what draws it, the sweep point (0 for a run of one point, i + 1 for
sweep point i), the global path id and the noise channel.  Philox
carries from the low counter words, so two streams of one run meet only
after 2**128 blocks: they are distinct by construction, and a path's
noise does not depend on the paths drawn with it.  Noise is drawn in
blocks of a fixed byte budget, so peak memory grows with the block, not
with n_steps.  A simulation whose draw exceeds one block either runs
in time blocks, continuing every stream from block to block, or in
groups of paths, each drawn whole in one block before the next group
starts; :func:`_path_groups` chooses, and neither choice moves a value.
Nor does running a large simulation on one forked worker per CPU, each
on a contiguous share of the path ids (:func:`_run_shares`).
One recursion, :func:`_em_states`, advances the state over the blocks
and yields each step's state with its increments and, from the step its
consumer first reads them, the values of all 24 coefficient keys: one
kernel call per step, of the 4 EM keys before that step and of all 24
from it.  A bundle keeps the states of the steps asked for alone; noise
is never stored, as the seed and point of a bundle redraw it bit for bit.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from fastslow.coefficients import (
    COEFFICIENT_KEYS,
    TAU_MIN,
    CoefficientSet,
    ModelEvaluationError,
    _is_int,
    _require_positive,
)

if TYPE_CHECKING:
    from fastslow.homogenization import LimitTrajectory

__all__ = [
    "ScaleRegime",
    "PathBundle",
    "FluctuationSample",
    "StabilityError",
    "BlowUpError",
    "AlignmentError",
    "simulate_paths",
    "simulate_with_increments",
    "draw_increments",
    "fluctuation_samples",
    "limit_gaussian_samples",
    "time_grid",
]

#: Stream channel tags, the high half of a stream's third counter word.
CHANNEL_W1 = 0
CHANNEL_W2 = 1
CHANNEL_GAUSS_LIMIT = 2
CHANNEL_BOOTSTRAP = 3

#: Stream purposes, the low half of a stream's fourth counter word.
PURPOSE_PATHS = 0
PURPOSE_MOMENT_SWEEP = 1
PURPOSE_DECAY_CHECK = 2
PURPOSE_BOOTSTRAP = 3
PURPOSE_LIMIT_SAMPLE = 4

#: Stability guard: at most this fraction of the fast relaxation time
#: per step.
STABILITY_FRACTION = 1.0 / 20.0

#: Coefficients the Euler-Maruyama step evaluates, in one kernel call.
_EM_KEYS = ("c", "sigma", "f", "tau")

#: Bytes of one noise block of both channels (16 bytes per path-step):
#: a block of m paths holds max(1, _NOISE_BLOCK_BYTES // (16 m)) steps.
#: The block length changes no result, only peak memory and the number
#: of draw calls.
_NOISE_BLOCK_BYTES = 32 * 1024**2

#: Streams drawn per batch into the path-major draw buffer, which holds
#: at most this many rows of one block, whatever the path count.
_DRAW_BATCH = 512


def _split(n: int, parts: int) -> list[range]:
    """range(n) as at most ``parts`` contiguous ranges of near-equal size."""
    size = -(-n // parts)
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _path_groups(n_paths: int, n_steps: int) -> list[range]:
    """The path ids of :func:`simulate_paths`, as the groups it runs one
    after another.

    A group of at most _NOISE_BLOCK_BYTES // (16 n_steps) paths draws its
    whole noise in one block, with no stream left open.  Each group pays
    the per-step cost of the Euler-Maruyama loop again, so the paths are
    split into n_groups such groups of near-equal size only when
    (n_groups - 1) * n_steps <= n_paths: the extra steps are then no more
    than one per path.  Otherwise one group holds every path and draws in
    time blocks (one block when the whole draw fits).
    """
    per_block = max(1, _NOISE_BLOCK_BYTES // (16 * n_steps))
    n_groups = -(-n_paths // per_block)
    if (n_groups - 1) * n_steps > n_paths:
        n_groups = 1
    return _split(n_paths, n_groups)


#: Path-steps of a call below which it runs in process: forking and
#: joining two workers costs 9-16 ms, about what a serial simulation of
#: 1M path-steps takes at some 95 ns per path-step.  A tangent pass of
#: the Malliavin sweeps costs about 2.5 times that (220-280 ns per
#: path-step), so 1M is a conservative threshold for the sweeps; forking
#: for every sweep pass, whatever its size, ran the malliavin_sweep
#: workload slower than this rule does (1.19 against 1.00 s, timed in
#: process).
_PARALLEL_MIN_PATH_STEPS = 1_000_000


def _workers(path_steps: int) -> int:
    """The number of worker processes a call of ``path_steps`` path-steps
    forks: the CPUs in the affinity set, or 1 (run in process) when the
    call has fewer than _PARALLEL_MIN_PATH_STEPS path-steps, when the
    platform reports no affinity set or has no ``fork`` start method, or
    when this process is itself a worker."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or path_steps < _PARALLEL_MIN_PATH_STEPS:
        return 1
    import multiprocessing

    if (
        multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return cpus


def _run_shares(run, shares: Sequence[range], unit: str = "paths") -> list:
    """``[run(share) for share in shares]``: in process when there is one
    share, else each in its own forked worker, all at once.  A share is
    a range of ``unit``: path ids, the regimes of a Malliavin sweep or
    the points of a rate sweep.

    A worker owns its share, so it ends by itself when the share is done:
    no worker waits for more work, even when this process is killed.  It
    sends back (None, its result) or (the exception it raised, None)
    through its own pipe, which this process reads in share order.  Every
    worker is joined before this returns or raises; then the exception of
    the first failing share, in share order, is raised, as a serial run
    over the shares would raise it.  A worker that dies without a reply
    raises RuntimeError naming its share of ``unit`` and its exit code.
    """
    if len(shares) == 1:
        return [run(shares[0])]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for share in shares:
            receive, send = context.Pipe(duplex=False)
            pipes.append(receive)
            proc = context.Process(target=_share_worker, args=(run, share, send))
            proc.start()
            procs.append(proc)
            send.close()
        replies = []
        for receive in pipes:
            try:
                replies.append(receive.recv())
            except EOFError:
                replies.append(EOFError)  # it died before it replied
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for receive in pipes:
            receive.close()
    for share, proc, reply in zip(shares, procs, replies):
        if reply is EOFError:
            raise RuntimeError(
                f"the worker of {unit} {share.start}..{share.stop - 1} exited "
                f"with code {proc.exitcode} before it reported"
            )
        if reply[0] is not None:
            raise reply[0]
    return [result for _, result in replies]


def _share_worker(run, share: range, send) -> None:
    """The body of one worker of :func:`_run_shares`: run the share and
    send back (None, its result), or (the exception it raised, None).

    It first moves every object it inherited out of the collector's
    reach: a full collection would otherwise visit each of them and so
    copy every page that holds one."""
    gc.freeze()
    try:
        reply = None, run(share)
    except BaseException as exc:  # reported to the parent, which re-raises it
        reply = exc, None
    send.send(reply)
    send.close()


def _joined_paths(parts: Sequence):
    """The results of consecutive shares of path ids as one, in share
    order: the only one as it is, else their arrays joined along the last
    (path) axis within the tuples, lists and dicts that hold them."""
    head = parts[0]
    if len(parts) == 1:
        return head
    if isinstance(head, np.ndarray):
        return np.concatenate(parts, axis=-1)
    if isinstance(head, dict):
        return {k: _joined_paths([p[k] for p in parts]) for k in head}
    return type(head)(map(_joined_paths, zip(*parts)))


class StabilityError(ValueError):
    """The requested step is not positive or exceeds the eta/20 stability
    guard."""


class BlowUpError(FloatingPointError):
    """A simulated state became non-finite."""


class AlignmentError(ValueError):
    """A requested time is off the grids, or a step was not captured."""


@dataclass(frozen=True)
class ScaleRegime:
    """The two small parameters, the declared limit regime, and the horizon.

    ``gamma`` is the declared limit of sqrt(eps/eta) (may be ``inf``);
    at finite (eps, eta) the gap |sqrt(eps/eta) - gamma| is reported as
    regime drift, not treated as an error.
    """

    epsilon: float
    eta: float
    gamma: float
    T: float

    def __post_init__(self):
        for name in ("epsilon", "eta", "gamma", "T"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive (got {v})")

    @property
    def sqrt_ratio(self) -> float:
        """sqrt(eps / eta) at the configured point."""
        return math.sqrt(self.epsilon / self.eta)

    def regime_drift(self) -> float | None:
        """|sqrt(eps/eta) - gamma| for finite gamma, else None."""
        if math.isinf(self.gamma):
            return None
        return abs(self.sqrt_ratio - self.gamma)

    def scaling_quotient(self) -> float:
        """Diagnostic quotient for the admissibility of an (eps, eta) sweep.

        sqrt(eps) divided by sqrt(eta/eps) when gamma = inf, or by
        (sqrt(eps/eta) - gamma) when gamma is finite.  A sweep is
        admissible when this stays bounded away from zero; it is
        reported, never enforced.  May be ``inf`` when the configured
        point sits exactly on the declared regime.
        """
        if math.isinf(self.gamma):
            denom = math.sqrt(self.eta / self.epsilon)
        else:
            denom = self.sqrt_ratio - self.gamma
        if denom == 0.0:
            return math.inf
        return math.sqrt(self.epsilon) / denom


@dataclass(frozen=True)
class PathBundle:
    """Simulated states plus the seed and point of the noise that
    generated them.

    ``captures`` holds {step index: (X_row, Y_row)} for each requested
    step, in ascending order ({} when none was requested).  The noise is
    not stored: path j drew it under the run key of master_seed from
    the streams (paths, point, j, channel), which :func:`_noise_blocks`
    redraws bit for bit.
    Immutable once assembled.
    """

    regime: ScaleRegime
    x0: float
    y0: float
    dt: float
    master_seed: int
    n_paths: int
    n_steps: int
    captures: Mapping[int, tuple[np.ndarray, np.ndarray]]
    point: int = 0

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def state_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) rows at step k; :class:`AlignmentError` if not captured."""
        if k not in self.captures:
            raise AlignmentError(f"step {k} was not captured")
        return self.captures[k]


@dataclass(frozen=True)
class _StepScales:
    """The step and the noise scales one explicit step of the system uses."""

    dt: float
    eta: float
    eps_root: float
    eta_root: float

    @classmethod
    def of(cls, regime: ScaleRegime, dt: float) -> _StepScales:
        return cls(dt, regime.eta, math.sqrt(regime.epsilon), math.sqrt(regime.eta))


@dataclass(frozen=True)
class FluctuationSample:
    """Rescaled deviation theta = (X_t - Xbar_t)/sqrt(eps) across paths."""

    t: float
    theta: np.ndarray
    limit_mean: float
    limit_var: float


def _grid(regime: ScaleRegime, dt: float) -> tuple[int, float]:
    """:func:`time_grid` of the horizon at step dt, the grid of every
    simulation, sweep and checkpoint; first :class:`StabilityError` when
    dt is not positive (zero, negative or NaN) or exceeds the eta/20
    guard."""
    if not dt > 0:
        raise StabilityError(f"dt must be positive (got {dt})")
    guard = regime.eta * STABILITY_FRACTION
    if dt > guard * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:g} exceeds the stability guard eta/20={guard:g} "
            f"(eta={regime.eta:g}); reduce dt or increase eta"
        )
    return time_grid(regime.T, dt)


def _steps(values, n_steps: float, what: str, error: type[Exception] = ValueError) -> list[int]:
    """The distinct steps of ``values``, an array or an iterable of
    integers or of equal-length rows of them, in ascending order.
    Raises ``error`` naming the first ``what`` that is not an integer
    (:func:`~fastslow.coefficients._is_int`), then the smallest that
    lies off [0, n_steps]."""
    if not isinstance(values, np.ndarray):
        values = np.asarray(list(values), dtype=object)
    given = values.ravel().tolist()
    for k in given:
        if not _is_int(k):
            raise error(f"{what} {k} is not an integer")
    steps = sorted({int(k) for k in given})
    for k in steps:
        if not 0 <= k <= n_steps:
            raise error(f"{what} {k} outside [0, {n_steps}]")
    return steps


def time_grid(T: float, dt: float) -> tuple[int, float]:
    """Number of steps and realized step of the uniform grid on [0, T].

    n_steps = ceil(T / dt) (at least 1, with a 1e-9 slack so a dt that
    divides T exactly is not rounded up) and dt_eff = T / n_steps <= dt.
    """
    n_steps = max(1, math.ceil(T / dt - 1e-9))
    return n_steps, T / n_steps


#: The largest word of a stream id: 2**32 - 1.
_WORD = 0xFFFFFFFF


def _run_key(master_seed) -> np.ndarray:
    """The Philox key of every stream of a run:
    ``SeedSequence(master_seed).generate_state(2, np.uint64)``.

    The seed must be a non-negative int (numpy integers included);
    anything else, such as a tuple, a float, a bool or a negative int,
    raises ValueError naming it.
    """
    if not _is_int(master_seed) or master_seed < 0:
        raise ValueError(f"a seed must be a non-negative int (got {master_seed!r})")
    return np.random.SeedSequence(int(master_seed)).generate_state(2, np.uint64)


def _counters(purpose: int, point: int, path_ids: Sequence[int], channel: int):
    """The start counters of the streams (purpose, point, path_id,
    channel), one per path id in order: (0, 0, path_id | channel << 32,
    purpose | point << 32).

    Philox carries from the low words, so a stream reaches its high
    words only after 2**128 blocks: distinct stream ids start distinct
    counters, and their streams never meet.  The counters are one 4-word
    array, rewritten before each is handed out, so a counter is valid
    until the next is taken.  Path ids, a point or a purpose outside
    [0, 2**32) raise ValueError at the call, before any is handed out.
    """
    ids = np.asarray(path_ids).reshape(-1)
    if len(ids) and (ids.min() < 0 or ids.max() > _WORD):
        bad = [int(i) for i in ids if not 0 <= i <= _WORD][:3]
        raise ValueError(f"path ids must lie in [0, 2**32) (got {bad})")
    for name, word in (("point", point), ("purpose", purpose)):
        if not 0 <= word <= _WORD:
            raise ValueError(f"a stream {name} must lie in [0, 2**32) (got {word})")
    counter = np.array([0, 0, 0, purpose | point << 32], np.uint64)
    high = channel << 32

    def start(path_id):
        counter[2] = int(path_id) | high
        return counter

    return map(start, path_ids)


class _Key(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands Philox the run key (:func:`_run_key`)."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words (asked for {n_words} {dtype})")
        return self.key


def _generator(key: np.ndarray, counter: np.ndarray) -> np.random.Generator:
    """The generator of the stream that starts at ``counter`` under the
    run key ``key``: the numbers of ``Philox(key=key, counter=counter)``,
    built in less time."""
    return np.random.Generator(np.random.Philox(_Key(key), counter=counter))


def _restarted(key: np.ndarray, counters):
    """One generator per counter of ``counters``: the generator of a
    single Philox whose state is set, before each is handed out, to the
    run key ``key`` with that counter and an empty buffer, as a fresh
    ``Philox`` holds it.  So each draws the numbers of :func:`_generator`
    of its counter, valid until the next is taken; setting a state costs
    less than building a generator."""
    bit_generator = np.random.Philox(_Key(key))
    generator = np.random.Generator(bit_generator)
    empty = np.zeros(4, np.uint64)
    for counter in counters:
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": empty,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def _stream(master_seed, purpose, point, path_id, channel) -> np.random.Generator:
    """The generator of one (master_seed, purpose, point, path_id, channel) stream."""
    return _generator(_run_key(master_seed), next(_counters(purpose, point, (path_id,), channel)))


def _mapped_array(rows: int, cols: int) -> np.ndarray:
    """An uninitialized (rows, cols) float array in its own private
    anonymous map.

    Noise block buffers are large, and the C heap keeps a large freed
    array: freeing one raises the allocator's threshold for mapping, so
    the next block of that size lands in the heap, where any allocation
    above it keeps the freed block in the process after the run.  A map
    goes back to the operating system as soon as the array is dropped;
    tracemalloc does not count it.  Where the platform has no private
    anonymous maps (Windows, which cannot fork either), the array is an
    ordinary numpy array.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty((rows, cols))
    n = rows * cols
    buf = mmap.mmap(-1, 8 * max(1, n), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # As numpy advises its own large arrays: fewer page faults.
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, np.float64, count=n).reshape(rows, cols)


def _noise_blocks(
    master_seed,
    path_ids: Sequence[int],
    n_steps: int,
    dt: float,
    block_steps: int | None = None,
    purpose: int = PURPOSE_PATHS,
    point: int = 0,
):
    """Brownian increments of m paths, drawn in blocks of whole steps.

    Takes the run key of master_seed and the start counters of the 2 m
    streams (purpose, point, path_id, channel) and yields (dW1, dW2)
    blocks of shape (b, m), one column per path id, that cover steps
    0..n_steps-1 in order.  When the draw spans several blocks, each
    stream is opened once and stays open from block to block; when it
    fits in one block, each channel sets one generator to each stream's
    counter in turn (:func:`_restarted`), which draws the same numbers and
    keeps no stream open: :func:`simulate_paths` draws a grouped pass
    this way, one group of paths at a time (:func:`_path_groups`).  Path
    ids or a point outside [0, 2**32) and a seed that is not a
    non-negative int raise ValueError before any draw.
    A block holds ``block_steps`` steps (default: as many as fit in
    :data:`_NOISE_BLOCK_BYTES`, at least one) or the remainder.  Philox
    streams are counter-based, so a stream drawn in blocks gives the
    numbers of one draw of n_steps: every block length yields the same
    increments.  The streams fill the rows of a path-major buffer in
    batches of at most :data:`_DRAW_BATCH`, and one transposing copy
    per batch scales them by sqrt(dt) into the batch's columns.  The
    yielded arrays are reused: a block is valid until the next one is
    drawn.
    """
    key = _run_key(master_seed)
    counters = [_counters(purpose, point, path_ids, ch) for ch in (CHANNEL_W1, CHANNEL_W2)]
    m = len(path_ids)
    if block_steps is None:
        block_steps = _NOISE_BLOCK_BYTES // (16 * max(1, m))
    size = max(1, min(block_steps, n_steps))
    if size < n_steps:
        # Later blocks continue the streams, so they stay open.  Setting
        # the state of one generator instead would need a state read and
        # a state set per stream and block, which costs more than opening
        # it once.
        streams = [[_generator(key, c) for c in cs] for cs in counters]
    else:
        # A single block draws each stream whole before the next, so one
        # generator per channel, set to each stream's counter in turn,
        # serves them all and no stream object outlives its draw.
        streams = [_restarted(key, cs) for cs in counters]
    raw = _mapped_array(min(m, _DRAW_BATCH), size)
    out = (_mapped_array(size, m), _mapped_array(size, m))
    scale = math.sqrt(dt)
    for k in range(0, n_steps, size):
        b = min(size, n_steps - k)
        for gens, dw in zip(streams, out):
            gens = iter(gens)
            for lo in range(0, m, _DRAW_BATCH):
                hi = min(lo + _DRAW_BATCH, m)
                rows = raw[: hi - lo, :b]
                # rows first: zip then takes no stream past the batch
                for row, gen in zip(rows, gens):
                    gen.standard_normal(out=row)
                np.multiply(rows.T, scale, out=dw[:b, lo:hi])
        yield out[0][:b], out[1][:b]


def draw_increments(
    master_seed,
    path_ids: Sequence[int],
    n_steps: int,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Brownian increments (n_steps, n_paths) for both channels.

    Each (path, channel) stream is drawn independently of every other,
    so a path's noise does not depend on which paths are drawn with it.
    This is the noise :func:`simulate_paths` runs on, drawn as a single
    block.
    """
    blocks = _noise_blocks(master_seed, path_ids, n_steps, dt, n_steps)
    empty = np.empty((0, len(path_ids)))
    return next(blocks, (empty, empty))


def _em_states(
    model: CoefficientSet,
    scales: _StepScales,
    x0: float,
    y0: float,
    n_paths: int,
    blocks,
    keys_from: float,
    first_column: int = 0,
):
    """The Euler-Maruyama recursion of n_paths paths over noise blocks.

    ``blocks`` yields (dW1, dW2) arrays of shape (b, n_paths) covering
    the steps in order.  Yields (k, x, y, dw1, dw2, values) for every
    step k: the state at k, the increments that advance it and, from
    step ``keys_from`` on, the values of all 24 coefficient keys at the
    state, which the tangent pass reads.  Each step makes one kernel
    call: of the 4 EM keys before ``keys_from``, where it yields None
    for the values, and of all 24 keys from it (``math.inf``: never).
    A key's value does not depend on the tuple it is evaluated with, so
    the switch moves no state.  Last comes (n_steps, x, y, None, None,
    None), as no step follows.  The yielded rows are valid until the
    next item is drawn; the states are never written in place.  Errors
    name a path by its column plus ``first_column``, the column of the
    first path in the caller's arrays.
    """
    em_values = itemgetter(*(COEFFICIENT_KEYS.index(key) for key in _EM_KEYS))
    x = np.full(n_paths, float(x0))
    y = np.full(n_paths, float(y0))
    k = 0
    for w1, w2 in blocks:
        for dw1, dw2 in zip(w1, w2):
            if k < keys_from:
                values, em = None, model.evaluate(x, y, _EM_KEYS)
            else:
                values = model.evaluate(x, y, COEFFICIENT_KEYS)
                em = em_values(values)
            yield k, x, y, dw1, dw2, values
            x, y = _em_step(model, x, y, em, dw1, dw2, k, scales, first_column)
            k += 1
    yield k, x, y, None, None, None


def _em_loop(
    model: CoefficientSet,
    scales: _StepScales,
    x0: float,
    y0: float,
    groups,
    n_paths: int,
    wanted: Sequence[int],
    first_column: int = 0,
):
    """The captures of :func:`_em_states` run over n_paths paths, one
    group of columns after another: {k: (x_row, y_row)} for each step k
    of ``wanted``.

    ``groups`` yields (columns, blocks): a range of the columns and the
    noise blocks of its paths.  Errors name a path by its column plus
    ``first_column``, the path id of the first column.
    """
    captures = {k: (np.empty(n_paths), np.empty(n_paths)) for k in wanted}
    for columns, blocks in groups:
        cols = slice(columns.start, columns.stop)
        states = _em_states(
            model, scales, x0, y0, len(columns), blocks,
            keys_from=math.inf, first_column=first_column + columns.start,
        )
        for k, x, y, _, _, _ in states:
            if k in captures:
                captures[k][0][cols] = x
                captures[k][1][cols] = y
    return captures


def simulate_with_increments(
    model: CoefficientSet,
    regime: ScaleRegime,
    x0: float,
    y0: float,
    dt: float,
    dW1: np.ndarray,
    dW2: np.ndarray,
    capture_indices: Iterable[int] = (),
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Run the Euler-Maruyama recursion on externally supplied noise.

    Returns the captures {k: (X_row, Y_row)} of ``capture_indices``.
    Raises :class:`BlowUpError` (naming the step) on non-finite states
    and :class:`~fastslow.coefficients.ModelEvaluationError` (naming the
    step, the path column and |tau|) where |tau| < TAU_MIN; a constant
    tau is checked once.  The noise runs through the step loop of
    :func:`simulate_paths` as one block.
    """
    n_steps, n_paths = dW1.shape
    return _em_loop(
        model, _StepScales.of(regime, dt), x0, y0, [(range(n_paths), [(dW1, dW2)])],
        n_paths, _steps(capture_indices, n_steps, "capture index", AlignmentError),
    )


def _em_step(
    model: CoefficientSet,
    x: np.ndarray,
    y: np.ndarray,
    values: tuple,
    dw1: np.ndarray,
    dw2: np.ndarray,
    k: int,
    scales: _StepScales,
    first_column: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler-Maruyama step from the state (x, y) at step index k.

    ``values`` holds c, sigma, f and tau at (x, y).  Checks |tau|
    against TAU_MIN (at k = 0 only for a constant tau) and raises
    :class:`BlowUpError` naming step k + 1 on a non-finite state.  An
    error names the path column of the failing row plus ``first_column``.
    """
    c, sigma, f, tau = values
    if k == 0 or np.ndim(tau):
        _check_tau(model, tau, k, first_column)
    dt, eta = scales.dt, scales.eta
    x_new = x + c * dt + scales.eps_root * sigma * dw1
    y_new = y + f * (dt / eta) + tau * (dw2 / scales.eta_root)
    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
        bad = int(np.argmax(~(np.isfinite(x_new) & np.isfinite(y_new))))
        raise BlowUpError(
            f"non-finite state at step {k + 1} (path column {first_column + bad}); "
            "check coefficients and the step size"
        )
    return x_new, y_new


def _check_tau(model: CoefficientSet, tau, k: int, first_column: int) -> None:
    """Raise if |tau| of any path column falls below TAU_MIN at step k,
    naming the column plus ``first_column``."""
    abs_tau = np.ravel(np.abs(tau))
    j = int(np.argmin(abs_tau))
    if abs_tau[j] < TAU_MIN:
        raise ModelEvaluationError(
            f"model {model.name!r}: tau degenerates at step {k} (path column "
            f"{first_column + j}): |tau|={abs_tau[j]:.3e} < {TAU_MIN:g}"
        )


def simulate_paths(
    model: CoefficientSet,
    regime: ScaleRegime,
    x0: float,
    y0: float,
    dt: float,
    n_paths: int,
    master_seed,
    capture_indices: Iterable[int] = (),
    *,
    _point: int = 0,
) -> PathBundle:
    """Simulate a bundle of independent paths.

    Parameters
    ----------
    dt : float
        Requested step; must satisfy 0 < dt <= eta/20 (StabilityError
        otherwise).  The realized step divides T exactly; see
        :func:`time_grid`.
    n_paths : int
        Number of Monte Carlo paths, an integer >= 1; path ids 0..n_paths-1.
    master_seed : int
        Root of the noise streams (purpose paths, point ``_point``, which
        only :func:`fastslow.metrics.rate_sweep` sets): a non-negative
        int, else ValueError before any draw (:func:`_run_key`).  The
        bundle keeps the seed and the point, not the noise.
    capture_indices : iterable of int
        Step indices whose state rows the bundle keeps as its
        ``captures`` (none by default), 16 bytes per path and step;
        AlignmentError names the first that is not an integer or lies
        off [0, n_steps] (:func:`_steps`).  No
        other state is kept, so peak memory is O(n_paths * block) plus
        the captures, not O(n_paths * n_steps).

    The path ids are split into contiguous shares of near-equal size, one
    per :func:`_workers` of the call's n_paths x n_steps path-steps, which
    run at once in forked workers (:func:`_run_shares`; one share runs in
    process).  Each share returns its own captures, which this process
    joins in path order (one share's are kept as they are).
    Within a share, the Euler-Maruyama loop runs over the groups of
    :func:`_path_groups`, one after another.  A group that is not the
    whole share draws its noise in one block of at most
    ``_NOISE_BLOCK_BYTES`` and keeps no stream open; one group of the
    whole share draws in time blocks.  Path ids key the streams, so
    neither split moves a value.  A path that blows up is named by its
    path id; with several groups or shares, a failure in an earlier one
    is reported before one at an earlier step of a later one.
    """
    _require_positive(n_paths=n_paths)
    n_steps, dt_eff = _grid(regime, dt)
    wanted = _steps(capture_indices, n_steps, "capture index", AlignmentError)
    scales = _StepScales.of(regime, dt_eff)

    def run(share: range):
        groups = (
            (group, _noise_blocks(
                master_seed, share[group.start : group.stop], n_steps, dt_eff, point=_point
            ))
            for group in _path_groups(len(share), n_steps)
        )
        return _em_loop(model, scales, x0, y0, groups, len(share), wanted, share.start)

    shares = _split(n_paths, _workers(n_paths * n_steps))
    model.compile(_EM_KEYS)  # before the fork, so no worker compiles it again
    captures = _joined_paths(_run_shares(run, shares))

    return PathBundle(
        regime=regime,
        x0=float(x0),
        y0=float(y0),
        dt=dt_eff,
        master_seed=int(master_seed),
        n_paths=n_paths,
        n_steps=n_steps,
        captures=captures,
        point=_point,
    )


def _grid_index(t: float, dt: float, n_max: int, what: str) -> int:
    k = int(round(t / dt))
    if abs(k * dt - t) > dt / 2 + 1e-12 or not 0 <= k <= n_max:
        raise AlignmentError(
            f"time t={t} does not sit on the {what} grid (dt={dt:g})"
        )
    return k


def fluctuation_samples(
    bundle: PathBundle, trajectory: LimitTrajectory, t: float
) -> FluctuationSample:
    """Fluctuation samples theta_t = (X_t - Xbar_t)/sqrt(eps).

    ``t`` must sit on both the bundle grid and the trajectory grid
    within half a step.  The limit law is N(0, sigma_t^2); the variance
    is read from the trajectory profile (requires
    :func:`fastslow.homogenization.attach_variance`).
    """
    k = _grid_index(t, bundle.dt, bundle.n_steps, "path")
    traj_dt = float(trajectory.t_grid[1] - trajectory.t_grid[0])
    j = _grid_index(t, traj_dt, len(trajectory.t_grid) - 1, "trajectory")
    x_row, _ = bundle.state_at(k)
    theta = (x_row - trajectory.x_bar[j]) / math.sqrt(bundle.regime.epsilon)
    if not np.all(np.isfinite(theta)):
        raise BlowUpError(f"non-finite fluctuation samples at t={t}")
    if trajectory.sigma2 is None:
        raise ValueError(
            "trajectory has no variance profile; call attach_variance first"
        )
    return FluctuationSample(
        t=float(t),
        theta=theta,
        limit_mean=0.0,
        limit_var=float(trajectory.sigma2[j]),
    )


def limit_gaussian_samples(sigma2_t: float, n: int, seed) -> np.ndarray:
    """n i.i.d. N(0, sigma2_t) draws from the named limit-sampling
    stream; ValueError names an n that is not an integer >= 1."""
    _require_positive(n=n)
    if sigma2_t < 0:
        raise ValueError(f"variance must be nonnegative (got {sigma2_t})")
    rng = _stream(seed, PURPOSE_LIMIT_SAMPLE, 0, 0, CHANNEL_GAUSS_LIMIT)
    return rng.normal(0.0, math.sqrt(sigma2_t), n)

