"""Tests for the slow-fast Euler-Maruyama engine and its noise plumbing."""

import faulthandler
import functools
import gc
import hashlib
import math
import multiprocessing
import os
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import fastslow.sde_engine as sde_engine
from fastslow.coefficients import ModelEvaluationError, model_from_expressions
from fastslow.homogenization import attach_variance, build_homogenized, limit_ode
from fastslow.sde_engine import (
    CHANNEL_W1,
    CHANNEL_W2,
    PURPOSE_MOMENT_SWEEP,
    PURPOSE_PATHS,
    AlignmentError,
    BlowUpError,
    PathBundle,
    ScaleRegime,
    StabilityError,
    draw_increments,
    fluctuation_samples,
    limit_gaussian_samples,
    simulate_paths,
    simulate_with_increments,
    time_grid,
)
from fastslow.sde_engine import _Key, _counters, _run_key, _stream


# -- regime bookkeeping ------------------------------------------------


def test_scale_regime_rejects_nonpositive_parameters():
    for bad in (
        dict(epsilon=0.0, eta=0.1, gamma=1.0, T=1.0),
        dict(epsilon=0.1, eta=-0.1, gamma=1.0, T=1.0),
        dict(epsilon=0.1, eta=0.1, gamma=0.0, T=1.0),
        dict(epsilon=0.1, eta=0.1, gamma=1.0, T=0.0),
    ):
        with pytest.raises(ValueError):
            ScaleRegime(**bad)


def test_scale_regime_drift_and_ratio():
    r = ScaleRegime(epsilon=0.04, eta=0.01, gamma=2.0, T=1.0)
    assert r.sqrt_ratio == pytest.approx(2.0)
    assert r.regime_drift() == pytest.approx(0.0)
    drifted = ScaleRegime(epsilon=0.09, eta=0.01, gamma=2.0, T=1.0)
    assert drifted.regime_drift() == pytest.approx(1.0)
    assert ScaleRegime(0.01, 0.01, math.inf, 1.0).regime_drift() is None


def test_scaling_quotient_branches():
    slow = ScaleRegime(epsilon=0.04, eta=0.0004, gamma=math.inf, T=1.0)
    assert slow.scaling_quotient() == pytest.approx(math.sqrt(0.04) / 0.1)
    exact = ScaleRegime(epsilon=0.04, eta=0.01, gamma=2.0, T=1.0)
    assert exact.scaling_quotient() == math.inf
    off = ScaleRegime(epsilon=0.09, eta=0.01, gamma=2.0, T=1.0)
    assert off.scaling_quotient() == pytest.approx(0.3 / 1.0)


def test_simulate_rejects_unstable_dt(affine, affine_regime):
    with pytest.raises(StabilityError):
        simulate_paths(
            affine, affine_regime, 0.0, 0.0, affine_regime.eta / 10, 2, 0
        )


@pytest.mark.parametrize("dt", [-0.001, 0.0, math.nan])
def test_a_step_that_is_not_positive_raises_stability_error(affine, affine_regime, dt):
    """A negative, zero or NaN step is named before any draw, whether a
    simulation is given it or a moment sweep steps at that fraction of
    eta, rather than running one step of T, dividing by zero or failing
    to round NaN."""
    from fastslow.malliavin import moment_sweep

    with pytest.raises(StabilityError, match=re.escape(f"dt must be positive (got {dt})")):
        simulate_paths(affine, affine_regime, 0.0, 0.0, dt, 2, 0)
    with pytest.raises(StabilityError, match=r"dt must be positive \(got "):
        moment_sweep(affine, [affine_regime], 1, 2, dt_eta_fraction=dt, k_hat=1.0)


# -- determinism -------------------------------------------------------


def _every_step(regime, dt):
    """The capture indices of every step of the grid of ``regime`` at ``dt``."""
    return range(time_grid(regime.T, dt)[0] + 1)


def _assert_equal_captures(got, ref):
    """Two capture dicts hold the same steps, in the same order, and the
    same rows bit for bit."""
    assert list(got) == list(ref)
    for k in ref:
        for name, row, expect in zip("XY", got[k], ref[k]):
            assert np.array_equal(row, expect), (k, name)


def _small_bundle(model, seed=7, n_paths=6):
    """A bundle of 250 steps captured at every step."""
    regime = ScaleRegime(epsilon=0.04, eta=0.02, gamma=math.sqrt(2.0), T=0.25)
    dt = regime.eta / 20
    return simulate_paths(
        model, regime, 0.3, -0.2, dt, n_paths, seed, capture_indices=_every_step(regime, dt)
    )


def test_same_seed_is_bitwise_identical(affine):
    a = _small_bundle(affine)
    b = _small_bundle(affine)
    assert len(a.captures) == a.n_steps + 1
    _assert_equal_captures(a.captures, b.captures)


def test_chunking_does_not_change_results(affine):
    """A path does not depend on how many paths run with it: the first
    two paths of a six-path bundle are a two-path bundle."""
    whole = _small_bundle(affine)
    part = _small_bundle(affine, n_paths=2)
    _assert_equal_captures(
        {k: (x[:2], y[:2]) for k, (x, y) in whole.captures.items()}, part.captures
    )


def test_different_seeds_differ(affine):
    a = _small_bundle(affine, seed=7)
    b = _small_bundle(affine, seed=8)
    assert not np.array_equal(a.state_at(a.n_steps)[0], b.state_at(b.n_steps)[0])


def test_channel_streams_are_independent():
    dW1, dW2 = draw_increments(11, [0, 1], 64, 0.001)
    assert dW1.shape == (64, 2)
    assert not np.array_equal(dW1, dW2)
    assert not np.array_equal(dW1[:, 0], dW1[:, 1])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_paths=0), "n_paths must be >= 1 (got 0)"),
        (dict(n_paths=2.5), "n_paths must be an integer >= 1 (got 2.5)"),
        (dict(n_paths=4.0), "n_paths must be an integer >= 1 (got 4.0)"),
        (dict(n_paths=True), "n_paths must be an integer >= 1 (got True)"),
    ],
)
def test_simulate_rejects_nonpositive_sizes(affine, affine_regime, kwargs, message):
    args = dict(n_paths=4, master_seed=0) | kwargs
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_paths(affine, affine_regime, 0.0, 0.0, affine_regime.eta / 20, **args)


# -- noise blocks --------------------------------------------------------


def _reference_stream(entropy, purpose, point, pid, channel):
    """The stream (purpose, point, pid, channel) of a seed, built with
    numpy's public constructors alone: the seed's SeedSequence state as
    the key and the stream id in the two high counter words."""
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    # uint64 words: numpy would read a list with a word above 2**63 as floats
    counter = np.array([0, 0, pid | channel << 32, purpose | point << 32], np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_draw_increments_match_one_normal_draw_per_stream():
    ids, n_steps, dt = [4, 0, 9], 37, 0.001
    dW1, dW2 = draw_increments(8 + (2 << 32), ids, n_steps, dt)
    assert dW1.shape == dW2.shape == (n_steps, len(ids))
    for j, pid in enumerate(ids):
        for dw, channel in ((dW1, CHANNEL_W1), (dW2, CHANNEL_W2)):
            ref = _reference_stream(8 + (2 << 32), PURPOSE_PATHS, 0, pid, channel).normal(
                0.0, math.sqrt(dt), n_steps
            )
            assert np.array_equal(dw[:, j], ref)


def test_draw_increments_golden_digest():
    # Any change to how the streams are keyed or drawn moves this digest.
    dW1, dW2 = draw_increments(8 + (2 << 32), range(5), 7, 1e-3)
    digest = hashlib.sha256(dW1.tobytes() + dW2.tobytes()).hexdigest()
    assert digest == "7f1a15e037d1bd34ce310436ad812d25b12632be22dff2bcf19edde68bfe7aa6"


@pytest.mark.parametrize("block", [1, 5, 24, 40])
def test_noise_blocks_join_stream_groups(block, monkeypatch):
    """Blocks whose streams are drawn in row batches of 4 (11 paths: two
    full batches and a ragged one of 3) join, batch after batch, exactly
    the columns draw_increments gives in one batch."""
    ids, n_steps, dt = [9, 0, 4, 3, 2**32 - 1, 7, 12, 5, 1, 8, 6], 24, 1e-3
    ref1, ref2 = draw_increments(3 + (1 << 32), ids, n_steps, dt)
    monkeypatch.setattr(sde_engine, "_DRAW_BATCH", 4)
    lengths, rows1, rows2 = [], [], []
    for w1, w2 in sde_engine._noise_blocks(3 + (1 << 32), ids, n_steps, dt, block):
        lengths.append(len(w1))
        rows1.append(w1.copy())  # the yielded blocks are reused
        rows2.append(w2.copy())
    size = min(block, n_steps)
    assert lengths == [min(size, n_steps - k) for k in range(0, n_steps, size)]
    dW1, dW2 = np.concatenate(rows1), np.concatenate(rows2)
    for j in range(len(ids)):
        assert np.array_equal(dW1[:, j], ref1[:, j]), j
        assert np.array_equal(dW2[:, j], ref2[:, j]), j


@pytest.mark.parametrize("block", [24, 5])
def test_single_block_rekeys_one_generator_per_channel(block, monkeypatch):
    """A draw that fits in one block builds one Philox per channel and
    sets its counter for each stream; a draw over several blocks opens one
    generator per stream and keeps it.  Both give, column for column,
    the numbers of numpy's public Philox for each (path, channel)."""
    ids, n_steps, dt = [9, 0, 4, 2**32 - 1, 7], 24, 1e-3
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(sde_engine.np.random, "Philox", counting)
    rows1, rows2 = [], []
    for w1, w2 in sde_engine._noise_blocks(8 + (2 << 32), ids, n_steps, dt, block):
        rows1.append(w1.copy())  # the yielded blocks are reused
        rows2.append(w2.copy())
    assert len(built) == (2 if block >= n_steps else 2 * len(ids))
    monkeypatch.undo()
    for dw, channel in ((np.concatenate(rows1), CHANNEL_W1), (np.concatenate(rows2), CHANNEL_W2)):
        for j, pid in enumerate(ids):
            ref = _reference_stream(8 + (2 << 32), PURPOSE_PATHS, 0, pid, channel)
            assert np.array_equal(dw[:, j], ref.normal(0.0, math.sqrt(dt), n_steps)), (channel, j)


def test_noise_without_private_maps(monkeypatch):
    """Where mmap has no private anonymous maps, the block buffers are
    numpy arrays and the noise is the same."""
    ref = draw_increments(7, range(4), 10, 1e-3)
    monkeypatch.delattr(sde_engine.mmap, "MAP_PRIVATE")
    assert sde_engine._mapped_array(3, 5).shape == (3, 5)
    for got, want in zip(draw_increments(7, range(4), 10, 1e-3), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "seed",
    [0, 77, 2**40 + 5, (), (77,), (77, 3), (5, 256, 1), (910, 0, 7), (1, 2, 3, 4)],
)
@pytest.mark.parametrize("channel", [0, 1, 2, 3])
def test_philox_keys_equal_seed_sequence_state(seed, channel):
    """The run key of an int seed equals SeedSequence's state bit for
    bit, and every stream of the seed draws what numpy's public Philox
    draws from that key and the stream's counter.  A tuple of 32-bit
    words stands for the int with those little-endian words (() for 0),
    which SeedSequence reads as the same entropy, so ints of one to four
    words are checked against their words."""
    entropy = seed
    if isinstance(seed, tuple):
        seed = sum(word << (32 * i) for i, word in enumerate(seed))
    key = _run_key(seed)
    assert key.dtype == np.uint64
    assert np.array_equal(key, np.random.SeedSequence(entropy).generate_state(2, np.uint64))
    for purpose, point in ((0, 0), (4, 7), (1, 2**32 - 1)):
        for pid in (0, 1, 5, 123456789, 2**32 - 1):
            got = _stream(seed, purpose, point, pid, channel).standard_normal(5)
            ref = _reference_stream(entropy, purpose, point, pid, channel)
            assert np.array_equal(got, ref.standard_normal(5)), (purpose, point, pid)


def test_distinct_int_seeds_key_distinct_streams():
    """Seeds that share their low word, or whose words differ only by
    position, give distinct run keys; numpy integers give the key of
    their value."""
    seeds = [0, 77, 2**32 + 77, 77 << 32, 2**64 + 77, 2**96 + 77, 2**128 - 1]
    keys = {tuple(_run_key(s).tolist()) for s in seeds}
    assert len(keys) == len(seeds)
    for s in (np.int64(77), np.uint32(77), np.uint64(2**32 + 77)):
        assert np.array_equal(_run_key(s), _run_key(int(s)))


def test_stream_ids_give_distinct_counters():
    """Every (purpose, point, path id, channel) of one seed, the extremes
    2**32 - 1 included, starts a counter of its own, (0, 0, path_id |
    channel << 32, purpose | point << 32), and a stream that has drawn
    has left its two high words, its stream id, as they were."""
    words = (0, 1, 2, 2**32 - 1)
    grid = [(a, b, c, d) for a in words for b in words for c in words for d in words]
    starts = set()
    for purpose, point, pid, channel in grid:
        (counter,) = _counters(purpose, point, [pid], channel)
        high = (pid | channel << 32, purpose | point << 32)
        assert counter.tolist() == [0, 0, *high]
        starts.add(tuple(counter.tolist()))
        rng = _stream(77, purpose, point, pid, channel)
        rng.standard_normal(1001)
        assert rng.bit_generator.state["state"]["counter"][2:].tolist() == list(high)
    assert len(starts) == len(grid)
    # One counter array serves every stream of a call, rewritten in turn.
    assert [c.tolist()[2] for c in _counters(4, 2, range(3), 1)] == [
        pid | 1 << 32 for pid in range(3)
    ]


@pytest.mark.parametrize(
    "seed, ids, message",
    [
        (3, [0, 2**32], r"path ids must lie in \[0, 2\*\*32\) \(got \[4294967296\]\)"),
        (3, [-1, 2], r"path ids must lie in \[0, 2\*\*32\) \(got \[-1\]\)"),
        (-2, [0], r"a seed must be a non-negative int \(got -2\)"),
        ((8, 2), [0], r"a seed must be a non-negative int \(got \(8, 2\)\)"),
        ([8], [0], r"a seed must be a non-negative int \(got \[8\]\)"),
        (8.0, [0], r"a seed must be a non-negative int \(got 8.0\)"),
        (True, [0], r"a seed must be a non-negative int \(got True\)"),
        (np.int64(-1), [0], r"a seed must be a non-negative int \(got np.int64\(-1\)\)"),
    ],
)
def test_invalid_stream_keys_raise_before_any_draw(seed, ids, message, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(sde_engine.np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match=message):
        draw_increments(seed, ids, 4, 1e-3)


def test_stream_words_outside_32_bits_raise_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(sde_engine.np.random, "Philox", no_draw)
    for kwargs, message in (
        (dict(point=2**32), r"a stream point must lie in \[0, 2\*\*32\) \(got 4294967296\)"),
        (dict(purpose=-1), r"a stream purpose must lie in \[0, 2\*\*32\) \(got -1\)"),
    ):
        with pytest.raises(ValueError, match=message):
            next(sde_engine._noise_blocks(3, [0], 4, 1e-3, **kwargs))


def test_key_serves_only_a_philox_key():
    key = _run_key(7)
    assert _Key(key).generate_state(2, np.uint64) is key
    with pytest.raises(ValueError, match="2 uint64 words"):
        _Key(key).generate_state(4, np.uint32)


@pytest.mark.parametrize("batch", [None, 3, 6])
@pytest.mark.parametrize(
    "block",
    [
        40,  # n_steps below the block length: one short block
        24,  # n_steps equal to the block length
        5,  # n_steps not a multiple of the block length
        1,
    ],
)
def test_blocked_noise_matches_one_block(bounded, monkeypatch, batch, block):
    """simulate_paths, drawing its noise in blocks of ``block`` steps and
    row batches of ``batch`` streams (None: the default, one batch),
    captures exactly what draw_increments + simulate_with_increments
    give on the same noise in one block, at a few steps and at every
    step.  Six
    paths of 24 steps run as one group at every block length, so blocks
    of 5 and 1 steps keep every stream open from block to block."""
    n_paths, seed, marks = 6, 3 + (1 << 32), (0, 5, 23, 24)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.06)
    n_steps, dt = time_grid(regime.T, regime.eta / 20)
    assert n_steps == 24
    dW1, dW2 = draw_increments(seed, range(n_paths), n_steps, dt)
    monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * n_paths * block)
    if batch is not None:
        monkeypatch.setattr(sde_engine, "_DRAW_BATCH", batch)
    assert sde_engine._path_groups(n_paths, n_steps) == [range(n_paths)]
    blocks = sde_engine._noise_blocks(seed, range(n_paths), n_steps, dt)
    assert sum(1 for _ in blocks) == math.ceil(n_steps / min(block, n_steps))

    for steps in (marks, range(n_steps + 1)):
        bundle = simulate_paths(
            bounded, regime, 0.4, 0.3, dt, n_paths, seed, capture_indices=steps
        )
        caps = simulate_with_increments(
            bounded, regime, 0.4, 0.3, dt, dW1, dW2, capture_indices=steps
        )
        assert list(caps) == list(steps)
        _assert_equal_captures(bundle.captures, caps)


@pytest.mark.parametrize(
    "n_paths, n_steps, groups",
    [
        # the rate-sweep points at 10k paths: one block, then 2, 3 and 5 groups
        (10_000, 125, [10_000]),
        (10_000, 250, [5_000] * 2),
        (10_000, 500, [3_334, 3_334, 3_332]),
        (10_000, 1_000, [2_000] * 5),
        # 10 groups would repeat 18000 > 10000 steps: time blocks
        (10_000, 2_000, [10_000]),
        # more steps than fit one path's draw in a block
        (3, 3_000_000, [3]),
        (1, 3_000_000, [1]),
    ],
)
def test_path_groups_rule(n_paths, n_steps, groups):
    """At the 32 MiB budget a pass is split into n_groups groups of
    near-equal size, each of whose draws fits one block, exactly when
    (n_groups - 1) * n_steps <= n_paths; otherwise one group holds every
    path.  The groups cover the path ids in order."""
    assert sde_engine._NOISE_BLOCK_BYTES == 32 * 1024**2
    got = sde_engine._path_groups(n_paths, n_steps)
    assert [len(ids) for ids in got] == groups
    assert [i for ids in got for i in ids] == list(range(n_paths))
    if len(got) > 1:
        assert 16 * n_steps * max(groups) <= sde_engine._NOISE_BLOCK_BYTES


@pytest.mark.parametrize(
    "n_paths, n_steps, cpus, shares",
    [
        (10_000, 2_000, 2, [5_000] * 2),
        (10_000, 2_000, 3, [3_334, 3_334, 3_332]),
        (2, 1_000_000, 4, [1, 1]),  # at most one share per path
        (999, 1_000, 2, [999]),  # below 1M path-steps: in process
        (10_000, 2_000, 1, [10_000]),
    ],
)
def test_worker_shares_rule(monkeypatch, n_paths, n_steps, cpus, shares):
    """A pass of at least 1M path-steps is split into min(CPUs in the
    affinity set, n_paths) contiguous shares of near-equal size; a
    smaller pass, one CPU, a platform without ``fork`` and a worker
    itself run one share."""
    assert sde_engine._PARALLEL_MIN_PATH_STEPS == 1_000_000
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    def worker_shares():
        return sde_engine._split(n_paths, sde_engine._workers(n_paths * n_steps))

    got = worker_shares()
    assert [len(ids) for ids in got] == shares
    assert [i for ids in got for i in ids] == list(range(n_paths))
    for name, value in (("parent_process", object), ("get_all_start_methods", list)):
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, name, value)
            assert worker_shares() == [range(n_paths)]


@pytest.mark.parametrize(
    "block_paths, groups",
    [
        (100, [100]),  # one block
        (50, [50, 50]),
        (34, [34, 34, 32]),  # ragged
        (20, [20] * 5),  # (5 - 1) * 24 = 96 <= 100
        (17, [100]),  # 6 groups: 5 * 24 = 120 > 100, so time blocks of 4 steps
        (4, [100]),  # time blocks of 1 step
    ],
)
@pytest.mark.parametrize(
    "every_step, redraw, marks",
    [
        (True, True, (0, 5, 23, 24)),  # every step captured
        (True, False, ()),
        (False, False, (0, 5, 23, 24)),  # a few steps captured
        (False, False, ()),  # none captured
    ],
)
def test_path_groups_match_one_block(
    bounded, monkeypatch, force_workers, starts, all_joined,
    block_paths, groups, every_step, redraw, marks,
):
    """simulate_paths at a block budget that holds the whole draw of
    ``block_paths`` paths captures exactly what draw_increments +
    simulate_with_increments give on the noise of all 100 paths drawn
    in one block, at ``marks`` or, with ``every_step``, at every step,
    whether the budget splits the pass into path groups or
    leaves it on time blocks, and whether it runs in process or on two
    forked workers, whose shares of 50 paths each run their own groups
    (at 17 paths a block, 3 groups where the serial pass is on time
    blocks).  No worker is left after the pass.  With ``redraw``, the
    noise the bundle functions redraw from the bundle's streams at the
    same budget is that one-block noise too."""
    n_paths, seed = 100, 5 + (2 << 32)
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.06)
    n_steps, dt = time_grid(regime.T, regime.eta / 20)
    assert n_steps == 24
    dW1, dW2 = draw_increments(seed, range(n_paths), n_steps, dt)
    steps = range(n_steps + 1) if every_step else marks
    caps = simulate_with_increments(
        bounded, regime, 0.4, 0.3, dt, dW1, dW2, capture_indices=steps
    )
    monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * n_steps * block_paths)
    assert [len(ids) for ids in sde_engine._path_groups(n_paths, n_steps)] == groups
    for workers in (1, 2):
        force_workers(workers)
        bundle = simulate_paths(
            bounded, regime, 0.4, 0.3, dt, n_paths, seed, capture_indices=steps
        )
        assert len(starts) == (0 if workers == 1 else 2)
        assert all_joined()
        assert list(bundle.captures) == list(steps)
        _assert_equal_captures(bundle.captures, caps)
        if redraw:
            import fastslow.oracles as oracles

            blocks = []

            def replay(model, regime, dt, n_steps, x0, y0, noise, *args):
                blocks.extend((w1.copy(), w2.copy()) for w1, w2 in noise)

            monkeypatch.setattr(oracles, "_tangent_pass", replay)
            oracles._bundle_pass(bounded, bundle, [(0, 0)])
            assert np.array_equal(np.concatenate([w1 for w1, _ in blocks]), dW1)
            assert np.array_equal(np.concatenate([w2 for _, w2 in blocks]), dW2)


def test_grouped_pass_keeps_no_stream_open(affine, monkeypatch):
    """A pass run in path groups builds one Philox per channel and group
    and sets its counter for each stream, where time blocks would open one
    generator per stream and keep it."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    regime = ScaleRegime(0.05, 0.05, 1.0, 0.06)
    monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * 24 * 20)
    monkeypatch.setattr(sde_engine.np.random, "Philox", counting)
    simulate_paths(affine, regime, 0.0, 0.0, regime.eta / 20, 100, 3)
    assert len(built) == 2 * 5
    built.clear()
    monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * 24 * 17)
    simulate_paths(affine, regime, 0.0, 0.0, regime.eta / 20, 100, 3)
    assert len(built) == 2 * 100


def _traced_peak(run) -> int:
    """Peak traced memory, in bytes, of one call of ``run``, with the cycle
    collector off: cyclic garbage of ``run`` then counts, and no
    collection empties the interpreter's free lists mid-measurement."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


def test_memory_does_not_grow_with_steps(affine, monkeypatch):
    """Peak memory of a simulation with its default arguments, which
    captures no step, and of the fused tangent pass stays flat when
    n_steps grows 8x at a fixed path count, within each way
    simulate_paths draws: on time blocks with every stream open (100
    paths, 64 and 512 steps, 30-step blocks) and in path groups drawn in
    one block each (2000 paths, 20 and 160 steps, 2 and 10 groups).  The
    two ways hold different objects (open streams against one restarted
    generator per channel), so each is compared with itself.

    A tuple freed after a resize enters the interpreter's free list, which
    keeps up to 2000 per size and which tracemalloc counts as live, so
    the first 2000-odd steps of a process grow the traced memory whatever
    the code does: an untraced 4096-step tangent pass, an untraced
    4096-step simulation on time blocks and one untraced bundle's
    tangents fill those lists and warm the tangent path first, so the
    test does not depend on the tests run before it in the process.  A full
    collection empties them again, so the collector stays off from the
    warm-up to the last measurement.  The noise block buffers live in
    anonymous maps, which tracemalloc does not see, so the peak of the
    bytes held from ``_mapped_array`` is recorded too.  On time blocks it
    must not grow; in path groups, where a group's one block grows with
    n_steps as the group shrinks, it must be the buffers of one group: the
    largest group's two channel blocks, within the block budget, and its
    draw buffer.  Nor may the path-major draw buffer grow when the path
    count grows from 600 to 2000."""
    from fastslow.malliavin import _tangent_pass
    from fastslow.oracles import first_order_tangents

    dt = 1.0 / 4096

    def regime(n_steps):
        out = ScaleRegime(0.005, 0.005, 1.0, n_steps * dt)
        assert time_grid(out.T, dt) == (n_steps, dt)
        return out

    def simulation(n_paths, block):
        def run(n_steps):
            monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * n_paths * block)
            simulate_paths(affine, regime(n_steps), 0.0, 0.0, dt, n_paths, 1)
        return run

    def bundle_tangents(n_steps):
        # A bundle keeps no noise: its tangents redraw it in blocks.
        monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * 100 * 30)
        bundle = simulate_paths(affine, regime(n_steps), 0.0, 0.0, dt, 100, 1)
        first_order_tangents(affine, bundle, [n_steps // 4, n_steps // 2], False)

    def tangent_pass(n_steps):
        monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * 200 * 32)
        r = [n_steps // 4, n_steps // 2]
        tangents = [(j, q) for j in (0, 1) for q in r]
        cells = [(j1, j2, r[1], r[0]) for j1 in (0, 1) for j2 in (0, 1)]
        noise = sde_engine._noise_blocks(
            1, range(200), n_steps, dt, purpose=PURPOSE_MOMENT_SWEEP, point=1
        )
        _tangent_pass(
            affine, regime(n_steps), dt, n_steps, 0.0, 0.0, noise, 200, tangents, cells
        )

    # Forked workers' memory is not traced: measure passes run in process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    held = [0, 0]  # bytes held from _mapped_array now, and their peak
    real_mapped_array = sde_engine._mapped_array

    def release(nbytes):
        held[0] -= nbytes

    def recording_mapped_array(rows, cols):
        out = real_mapped_array(rows, cols)
        held[0] += 8 * rows * cols
        held[1] = max(held[1], held[0])
        # A view of ``out`` keeps its base, not ``out``, alive: watch the base.
        weakref.finalize(out if out.base is None else out.base, release, 8 * rows * cols)
        return out

    monkeypatch.setattr(sde_engine, "_mapped_array", recording_mapped_array)

    def peaks(run, n_steps):
        held[1] = 0
        traced = _traced_peak(lambda: run(n_steps))
        assert held[0] == 0
        return traced, held[1]

    def groups(n_paths, block, n_steps):
        monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * n_paths * block)
        return [len(ids) for ids in sde_engine._path_groups(n_paths, n_steps)]

    time_blocks, path_groups = simulation(100, 30), simulation(2000, 16)
    assert groups(100, 30, 64) == groups(100, 30, 512) == [100]
    assert groups(2000, 16, 20) == [1000] * 2
    assert groups(2000, 16, 160) == [200] * 10
    gc.disable()
    try:
        tangent_pass(4096)
        time_blocks(4096)
        bundle_tangents(64)
        cases = (
            (time_blocks, (512, 64)), (tangent_pass, (512, 64)),
            (bundle_tangents, (512, 64)), (path_groups, (160, 20)),
        )
        for run, steps in cases:
            (long, long_mapped), (short, short_mapped) = (peaks(run, n) for n in steps)
            assert long <= 1.1 * short, (steps, short, long)
            assert short_mapped > 0, steps
            if run is not path_groups:
                assert long_mapped == short_mapped, (steps, short_mapped, long_mapped)
        budget = 16 * 2000 * 16
        for n_steps, mapped, size in ((20, short_mapped, 1000), (160, long_mapped, 200)):
            block = 16 * size * n_steps
            assert block <= budget
            assert mapped == block + 8 * min(size, sde_engine._DRAW_BATCH) * n_steps
    finally:
        gc.enable()

    def draw_buffer(n_paths):
        held[1] = 0
        next(sde_engine._noise_blocks(1, range(n_paths), 32, dt, 32))
        return held[1] - 2 * 8 * n_paths * 32  # less the two channel blocks

    assert draw_buffer(600) == draw_buffer(2000) == 8 * sde_engine._DRAW_BATCH * 32


@pytest.mark.parametrize(
    "n_paths, budget_paths, steps, groups",
    [(100, None, (256, 2048), [100]), (2000, 1000, (16, 128), [1000, 1000])],
)
def test_nested_pass_noise_stays_within_the_block(
    affine, monkeypatch, n_paths, budget_paths, steps, groups
):
    """The coarse levels of a pass count against the block budget: a pass
    of four levels holds, at its peak, its levels within
    _NOISE_BLOCK_BYTES plus its draw buffer: on time blocks of 32 finest
    steps (100 paths), as many bytes at 2048 finest steps as at 256, and
    in two path groups drawn whole (2000 paths of 16 and 128 steps), one
    group's.  The maps are watched through their bases, which views of a
    block keep alive."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    held = [0, 0]
    real_mapped_array = sde_engine._mapped_array

    def release(nbytes):
        held[0] -= nbytes

    def recording_mapped_array(rows, cols):
        out = real_mapped_array(rows, cols)
        held[0] += 8 * rows * cols
        held[1] = max(held[1], held[0])
        weakref.finalize(out if out.base is None else out.base, release, 8 * rows * cols)
        return out

    monkeypatch.setattr(sde_engine, "_mapped_array", recording_mapped_array)
    regime = ScaleRegime(0.05, 0.05, 1.0, 1.0)
    peaks = []
    for n_steps in steps:
        rows = sde_engine._level_rows(n_steps if budget_paths else 32, 3)
        budget = 16 * rows * (budget_paths or n_paths)
        monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", budget)
        if budget_paths is None:
            assert sde_engine._block_steps(n_paths, 3) == 32
        assert [len(g) for g in sde_engine._path_groups(n_paths, n_steps, 3)] == groups
        chains = [
            (sde_engine._StepScales.of(regime, 1.0 / (n_steps >> q)), q, ()) for q in range(4)
        ]
        held[1] = 0
        run = functools.partial(sde_engine._em_loop, affine, chains, 0.0, 0.0)
        leg = n_steps, 1.0 / n_steps, 3, 0, run
        sde_engine._pass([leg], n_paths, 1, sde_engine.PURPOSE_PATHS, n_paths * n_steps)
        assert held[0] == 0
        block_steps = n_steps if budget_paths else 32
        draw = 8 * min(groups[0], sde_engine._DRAW_BATCH) * block_steps
        assert held[1] == budget + draw, (n_steps, held[1], budget, draw)
        peaks.append(held[1])
    assert budget_paths or peaks[0] == peaks[1]


# -- scheme correctness ------------------------------------------------


def test_affine_step_matches_linear_recursion(affine):
    """The update on the affine model is exactly linear; replay it
    independently on the bundle's noise, drawn again from its seed."""
    bundle = _small_bundle(affine)
    eps, eta = bundle.regime.epsilon, bundle.regime.eta
    dt = bundle.dt
    dW1, dW2 = draw_increments(bundle.master_seed, range(bundle.n_paths), bundle.n_steps, dt)
    x = np.full(bundle.n_paths, bundle.x0)
    y = np.full(bundle.n_paths, bundle.y0)
    for k in range(bundle.n_steps):
        x, y = (
            x + (y - 2.0 * x) * dt + math.sqrt(eps) * dW1[k],
            y + (x - y) * dt / eta + math.sqrt(2.0) * dW2[k] / math.sqrt(eta),
        )
    x_final, y_final = bundle.state_at(bundle.n_steps)
    assert np.allclose(x, x_final, rtol=0, atol=1e-13)
    assert np.allclose(y, y_final, rtol=0, atol=1e-13)


def test_self_difference_shrinks_with_dt(affine):
    """Halving dt must shrink the strong self-difference on shared noise."""
    regime = ScaleRegime(epsilon=0.04, eta=0.1, gamma=math.inf, T=1.0)
    n_fine = 800  # dt = eta/80
    dt_fine = regime.T / n_fine
    w1, w2 = draw_increments(5, list(range(64)), n_fine, dt_fine)

    def final_x(level):
        """level = 1, 2, 4: coarsen fine increments by summing blocks."""
        coarse1 = w1.reshape(n_fine // level, level, -1).sum(axis=1)
        coarse2 = w2.reshape(n_fine // level, level, -1).sum(axis=1)
        n = n_fine // level
        caps = simulate_with_increments(
            affine, regime, 0.5, 0.0, dt_fine * level, coarse1, coarse2, capture_indices=[n]
        )
        return caps[n][0]

    x4, x2, x1 = final_x(4), final_x(2), final_x(1)
    err_coarse = np.mean(np.abs(x4 - x2))
    err_fine = np.mean(np.abs(x2 - x1))
    assert err_fine < err_coarse
    # additive noise: first-order self-convergence, ratio near 2
    assert 1.5 < err_coarse / err_fine < 2.6


def test_blow_up_error_names_the_step():
    stiff = model_from_expressions("runaway", "1e6 * x**3", "1", "-y", "sqrt(2)")
    regime = ScaleRegime(epsilon=0.01, eta=0.1, gamma=math.inf, T=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError, match="step"):
            simulate_paths(stiff, regime, 2.0, 0.0, 0.005, 2, 1)


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
def test_errors_name_the_global_path_in_a_later_group(
    monkeypatch, force_workers, poison, starts, all_joined, tau, channel, value, error, message
):
    """Under path groups, a blow-up or a degenerate tau of path 37, in the
    second of two groups of 25 paths, names the path by its id, not by
    its column 12 in the group; on two workers the error crosses from the
    second worker's share with its message.  Step 0 of the path's noise
    on one channel is set to ``value`` as the engine draws it."""
    regime = ScaleRegime(epsilon=0.05, eta=0.05, gamma=1.0, T=0.06)
    model = model_from_expressions("poisoned", "y - 2*x", "1", "x - y", tau)
    monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * 24 * 25)
    assert sde_engine._path_groups(50, 24) == [range(0, 25), range(25, 50)]
    poison(sde_engine, {37: (channel, 0, value)})
    for workers in (1, 2):
        force_workers(workers)
        with np.errstate(invalid="ignore"), pytest.raises(error, match=message):
            simulate_paths(model, regime, 0.0, 0.0, regime.eta / 20, 50, 1)
        assert all_joined()
    assert [proc.exitcode for proc in starts] == [0, 0]


def test_first_failing_share_is_raised(monkeypatch, force_workers, poison, starts, all_joined):
    """When paths of both shares blow up, the share of the lower path ids
    is reported, although path 37 fails at an earlier step than path 10:
    a serial pass in two groups reports the same, and no worker is left."""
    regime = ScaleRegime(epsilon=0.05, eta=0.05, gamma=1.0, T=0.06)
    model = model_from_expressions("poisoned", "y - 2*x", "1", "x - y", "sqrt(2)")
    monkeypatch.setattr(sde_engine, "_NOISE_BLOCK_BYTES", 16 * 24 * 25)
    poison(sde_engine, {10: (0, 5, math.inf), 37: (0, 0, math.inf)})
    for workers in (1, 2):
        force_workers(workers)
        with pytest.raises(BlowUpError, match=r"at step 6 \(path column 10\)"):
            simulate_paths(model, regime, 0.0, 0.0, regime.eta / 20, 50, 1)
        assert len(starts) == 2 * (workers - 1)
        assert all_joined()


@pytest.mark.parametrize("workers", [2, 3])
def test_run_shares_returns_large_replies_in_share_order(workers, starts, all_joined):
    """Each of 2 or 3 forked workers returns a 2 MiB array, more than a
    pipe buffer holds, and a later share finishes first (its worker then
    waits to send): the results come back in share order and every
    worker is joined.  A pass that hangs ends the test run after 60 s."""
    size = 2**18  # float64 values: 2 MiB

    def run(share: range) -> np.ndarray:
        time.sleep(0.1 * (workers - share.start))
        return np.arange(share.start * size, share.stop * size, dtype=float)

    faulthandler.dump_traceback_later(60, exit=True)
    try:
        got = sde_engine._run_shares(run, sde_engine._split(workers, workers))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert [part.nbytes for part in got] == [8 * size] * workers
    assert np.array_equal(np.concatenate(got), np.arange(workers * size, dtype=float))
    assert len(starts) == workers
    assert all_joined()


def test_workers_keep_inherited_objects_out_of_collections(starts, all_joined):
    """Each forked worker runs its share with everything it inherited
    frozen, so none of its garbage collections visits (and so copies the
    pages of) the objects of this process; this process stays unfrozen."""
    inherited = [object() for _ in range(1000)]
    assert gc.get_freeze_count() == 0

    def run(share: range) -> int:
        return gc.get_freeze_count()

    frozen = sde_engine._run_shares(run, sde_engine._split(2, 2))
    assert all(count >= len(inherited) for count in frozen)
    assert gc.get_freeze_count() == 0
    assert len(starts) == 2
    assert all_joined()


def test_forked_pass_compiles_its_kernel_in_the_parent(force_workers, starts, all_joined):
    """Before simulate_paths forks, this process compiles the 4-key EM
    kernel, so the workers inherit it rather than each compiling its own."""
    model = model_from_expressions("fresh", "-x + 0.5*cos(y)", "1", "-y", "sqrt(2)")
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.06)
    force_workers(2)
    simulate_paths(model, regime, 0.4, 0.3, regime.eta / 20, 10, 5)
    assert len(starts) == 2
    assert all_joined()
    assert list(model.table._kernels) == [sde_engine._EM_KEYS]


def test_worker_that_dies_is_reported(affine, monkeypatch, force_workers, starts, all_joined):
    """A worker that exits without a reply (here the second, as if killed)
    raises RuntimeError naming its share and exit code once both workers
    are joined: paths 25..49 of a simulation pass, and regime 1 of a
    moment sweep whose two regimes run as whole units."""
    import fastslow.malliavin as malliavin

    regime = ScaleRegime(epsilon=0.05, eta=0.05, gamma=1.0, T=0.06)
    em_loop, noise_blocks = sde_engine._em_loop, sde_engine._noise_blocks

    def dying_share(*args):
        if args[6] >= 25:  # the path id of the share's first column
            os._exit(7)
        return em_loop(*args)

    def dying_regime(*args, point, **kwargs):
        if point == 2:
            os._exit(7)
        return noise_blocks(*args, point=point, **kwargs)

    monkeypatch.setattr(sde_engine, "_em_loop", dying_share)
    monkeypatch.setattr(sde_engine, "_noise_blocks", dying_regime)
    force_workers(2)
    with pytest.raises(RuntimeError, match=r"paths 25\.\.49 exited with code 7"):
        simulate_paths(affine, regime, 0.0, 0.0, regime.eta / 20, 50, 1)
    regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.06), regime]
    with pytest.raises(RuntimeError, match=r"regimes 1\.\.1 exited with code 7"):
        malliavin.moment_sweep(affine, regimes, 1, 50, seed=1, k_hat=1.0)
    assert [proc.exitcode for proc in starts] == [0, 7, 0, 7]
    assert all_joined()


@pytest.mark.parametrize("patch", ["one CPU", "no fork"])
def test_no_worker_without_fork_or_a_second_cpu(
    affine, monkeypatch, force_workers, starts, patch
):
    """With one CPU in the affinity set, or no ``fork`` start method, a
    pass of any size starts no process and runs in process."""
    regime = ScaleRegime(epsilon=0.05, eta=0.05, gamma=1.0, T=0.06)
    force_workers(1 if patch == "one CPU" else 2)
    if patch == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    every_step = _every_step(regime, regime.eta / 20)
    bundle = simulate_paths(
        affine, regime, 0.0, 0.0, regime.eta / 20, 50, 1, capture_indices=every_step
    )
    assert starts == []
    dW1, dW2 = draw_increments(1, range(50), 24, bundle.dt)
    caps = simulate_with_increments(
        affine, regime, 0.0, 0.0, bundle.dt, dW1, dW2, capture_indices=every_step
    )
    _assert_equal_captures(bundle.captures, caps)


def test_degenerate_tau_names_step_column_and_value():
    regime = ScaleRegime(epsilon=0.01, eta=0.1, gamma=math.inf, T=1.0)
    flat = model_from_expressions("flat-tau", "y", "1", "-y", "x")
    with pytest.raises(
        ModelEvaluationError, match=r"step 0 \(path column 0\): \|tau\|=0\.000e\+00"
    ):
        simulate_paths(flat, regime, 0.0, 0.0, 0.005, 2, 1)
    tiny = model_from_expressions("tiny-tau", "y", "1", "-y", "1e-9")
    with pytest.raises(ModelEvaluationError, match=r"step 0 .*\|tau\|=1\.000e-09"):
        simulate_paths(tiny, regime, 0.0, 0.0, 0.005, 2, 1)


# -- captures ----------------------------------------------------------


def test_captures_match_full_storage(affine):
    """A bundle asked for unsorted and repeated steps captures exactly
    those steps, sorted and each once, and its rows are those that
    simulate_with_increments captures at every step on the draw_increments
    noise of the bundle's streams.  A bundle asked for no step captures
    {}.  state_at of a step that was not captured raises AlignmentError
    naming the step."""
    regime = ScaleRegime(epsilon=0.04, eta=0.02, gamma=math.sqrt(2.0), T=0.25)
    dt = regime.eta / 20
    n_steps, dt_eff = time_grid(regime.T, dt)
    dW1, dW2 = draw_increments(7, range(6), n_steps, dt_eff)
    full = simulate_with_increments(
        affine, regime, 0.3, -0.2, dt_eff, dW1, dW2, capture_indices=range(n_steps + 1)
    )
    assert list(full) == list(range(n_steps + 1))
    bundle = simulate_paths(
        affine, regime, 0.3, -0.2, dt, 6, 7, capture_indices=(250, 0, 50, 0, 250)
    )
    assert list(bundle.captures) == [0, 50, 250]
    _assert_equal_captures(bundle.captures, {k: full[k] for k in (0, 50, 250)})
    with pytest.raises(AlignmentError, match="step 17 was not captured"):
        bundle.state_at(17)
    bare = simulate_paths(affine, regime, 0.3, -0.2, dt, 6, 7)
    assert bare.captures == {}
    with pytest.raises(AlignmentError, match="step 0 was not captured"):
        bare.state_at(0)


def test_capture_index_out_of_range(affine, affine_regime):
    with pytest.raises(AlignmentError):
        simulate_paths(
            affine,
            affine_regime,
            0.0,
            0.0,
            affine_regime.eta / 20,
            2,
            0,
            capture_indices=(10**6,),
        )


@pytest.mark.parametrize("bad", [5.7, 2.0, np.float64(3.0), True, np.True_])
def test_capture_index_must_be_an_integer(affine, bad):
    """A capture index that is not an integer step (a fraction, a float
    such as 2.0, a bool) raises AlignmentError naming it, where int()
    once truncated [5.7, 2.2] to steps 2 and 5; a numpy integer is a
    step."""
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.06)
    run = (affine, regime, 0.0, 0.0, 0.0025, 4, 1)
    with pytest.raises(AlignmentError, match=re.escape(f"capture index {bad} is not an integer")):
        simulate_paths(*run, capture_indices=[2, bad])
    assert list(simulate_paths(*run, capture_indices=[np.int64(5), 2]).captures) == [2, 5]


# -- fluctuation sampling ----------------------------------------------


@pytest.fixture(scope="module")
def affine_limit(affine):
    hom = build_homogenized(affine, (-3, 3), 25, 2048, gamma=1.0)
    traj = limit_ode(hom, 0.0, 1.0, 1e-3)
    return hom, attach_variance(hom, traj)


def test_fluctuation_samples_align_and_scale(affine, affine_bundle, affine_limit):
    _, traj = affine_limit
    sample = fluctuation_samples(affine_bundle, traj, 0.5)
    assert sample.t == 0.5
    assert sample.theta.shape == (affine_bundle.n_paths,)
    assert sample.limit_mean == 0.0
    expect_var = 1.5 * (1.0 - math.exp(-1.0))
    assert sample.limit_var == pytest.approx(expect_var, abs=1e-5)
    k = round(0.5 / affine_bundle.dt)
    x_row, _ = affine_bundle.state_at(k)
    manual = (x_row - traj.x_bar[round(0.5 / 1e-3)]) / math.sqrt(0.01)
    assert np.array_equal(sample.theta, manual)


def test_fluctuation_samples_snap_and_reject(affine_bundle, affine_limit):
    _, traj = affine_limit
    # within half a step the time snaps to the nearest node
    snapped = fluctuation_samples(affine_bundle, traj, 0.5 + affine_bundle.dt / 3)
    exact = fluctuation_samples(affine_bundle, traj, 0.5)
    assert np.array_equal(snapped.theta, exact.theta)
    # beyond the horizon there is no node within half a step
    with pytest.raises(AlignmentError):
        fluctuation_samples(affine_bundle, traj, 1.0 + 5 * affine_bundle.dt)


def test_fluctuation_samples_need_variance(affine, affine_bundle, affine_limit):
    hom, _ = affine_limit
    bare = limit_ode(hom, 0.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        fluctuation_samples(affine_bundle, bare, 0.5)


def test_limit_gaussian_samples_moments_and_determinism():
    draws = limit_gaussian_samples(2.5, 200_000, 3)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.02)
    assert np.var(draws) == pytest.approx(2.5, rel=0.02)
    assert np.array_equal(draws, limit_gaussian_samples(2.5, 200_000, 3))
    assert limit_gaussian_samples(0.0, 5, 0) == pytest.approx([0.0] * 5)
    with pytest.raises(ValueError):
        limit_gaussian_samples(-1.0, 5, 0)


@pytest.mark.parametrize("bad", [True, 5.0, 2.5, 0])
def test_limit_gaussian_samples_take_a_count(bad):
    """n takes the count rule, where int(n) once drew 2 samples for
    n = 2.5 and 1 for n = True."""
    with pytest.raises(ValueError, match=r"^n must be (an integer )?>= 1 \(got "):
        limit_gaussian_samples(1.0, bad, 0)


def test_bundle_time_grid(affine_bundle):
    t = affine_bundle.t_grid
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(affine_bundle.regime.T)
    assert len(t) == affine_bundle.n_steps + 1
    regime = affine_bundle.regime
    assert time_grid(regime.T, regime.eta / 20.0) == (
        affine_bundle.n_steps,
        affine_bundle.dt,
    )


def test_time_grid_rounds_up_and_tolerates_exact_divisors():
    assert time_grid(1.0, 0.003) == (334, 1.0 / 334)
    assert time_grid(0.25, 0.001) == (250, 0.001)
    assert time_grid(1.0, 5.0) == (1, 1.0)
