"""Shared fixtures: built-in models, small reusable path bundles, and the
forked workers of large passes."""

import multiprocessing
import os

import pytest

import fastslow.sde_engine as sde_engine
from fastslow.coefficients import get_model, model_from_expressions
from fastslow.sde_engine import ScaleRegime, simulate_paths, time_grid


@pytest.fixture(scope="session")
def affine():
    return get_model("affine-oracle")


@pytest.fixture(scope="session")
def bounded():
    return get_model("bounded-coupled")


@pytest.fixture(scope="session")
def trig():
    """A model whose tau and every partial but d12_f vary with the state."""
    return model_from_expressions(
        "trig",
        "sin(x)*cos(y) - 0.3*x*y",
        "1 + 0.5*cos(x)*sin(y)",
        "tanh(x) - y - 0.1*y^3",
        "sqrt(2) + 0.2*sin(x*y)",
    )


@pytest.fixture(scope="session")
def affine_regime():
    return ScaleRegime(epsilon=0.01, eta=0.01, gamma=1.0, T=1.0)


@pytest.fixture(scope="session")
def affine_bundle(affine, affine_regime):
    """Small bundle shared by tangent/engine tests, captured at every step
    of its time grid."""
    dt = affine_regime.eta / 20.0
    n_steps, _ = time_grid(affine_regime.T, dt)
    return simulate_paths(
        affine, affine_regime, 0.0, 0.0, dt, 8, 12345, capture_indices=range(n_steps + 1)
    )


@pytest.fixture
def stream_ids(monkeypatch):
    """``stream_ids(call)`` runs ``call()`` and returns the set of the
    stream ids, the two high start-counter words, of every stream it
    opened."""
    real = sde_engine._counters

    def run(call):
        seen = set()

        def recording(*args):
            for counter in real(*args):
                seen.add(tuple(counter[2:].tolist()))
                yield counter

        with monkeypatch.context() as patch:
            patch.setattr(sde_engine, "_counters", recording)
            call()
        return seen

    return run


@pytest.fixture
def force_workers(monkeypatch):
    """``force_workers(n)`` runs every call that may fork (a simulation
    pass, a moment sweep or a decay check) on ``n`` forked workers (1: in
    process), whatever its size and the CPUs of this machine."""

    def force(n):
        monkeypatch.setattr(sde_engine, "_PARALLEL_MIN_PATH_STEPS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return force


@pytest.fixture
def starts(monkeypatch):
    """The worker processes started, in order."""
    started = []
    context = multiprocessing.get_context("fork")

    class Counted(context.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(context, "Process", Counted)
    return started


@pytest.fixture
def all_joined(starts):
    """``all_joined()``: every started worker has ended and been joined, so
    none is left."""

    def check() -> bool:
        return multiprocessing.active_children() == [] and all(
            proc.exitcode is not None for proc in starts
        )

    return check


@pytest.fixture
def poison(monkeypatch):
    """``poison(module, {i: (channel, k, value)}, point=None)`` makes the
    ``_noise_blocks`` that ``module`` calls yield ``value`` as step ``k``
    of path ``i``'s noise on ``channel``, for the streams of ``point``
    only when it is given."""

    def apply(module, poisoned_paths, point=None):
        real = module._noise_blocks

        def poisoned(seed, path_ids, n_steps, *args, **kwargs):
            hit = point is None or kwargs.get("point", 0) == point
            first = 0
            for block in real(seed, path_ids, n_steps, *args, **kwargs):
                for i, (channel, k, value) in poisoned_paths.items():
                    if hit and i in path_ids and first <= k < first + len(block[0]):
                        block[channel][k - first, path_ids.index(i)] = value
                first += len(block[0])
                yield block

        monkeypatch.setattr(module, "_noise_blocks", poisoned)

    return apply
