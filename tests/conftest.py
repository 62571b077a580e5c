"""Shared fixtures: built-in models and small reusable path bundles."""

import pytest

import fastslow.sde_engine as sde_engine
from fastslow.coefficients import get_model
from fastslow.sde_engine import ScaleRegime, simulate_paths


@pytest.fixture(scope="session")
def affine():
    return get_model("affine-oracle")


@pytest.fixture(scope="session")
def bounded():
    return get_model("bounded-coupled")


@pytest.fixture(scope="session")
def affine_regime():
    return ScaleRegime(epsilon=0.01, eta=0.01, gamma=1.0, T=1.0)


@pytest.fixture(scope="session")
def affine_bundle(affine, affine_regime):
    """Small fully stored bundle shared by tangent/engine tests."""
    return simulate_paths(
        affine, affine_regime, 0.0, 0.0, affine_regime.eta / 20.0, 8, 12345
    )


@pytest.fixture
def stream_keys(monkeypatch):
    """``stream_keys(call)`` runs ``call()`` and returns the set of the
    Philox keys of every stream it opened."""
    real = sde_engine._philox_keys

    def run(call):
        seen = set()

        def recording(*args):
            keys = real(*args)
            seen.update(map(tuple, keys.tolist()))
            return keys

        with monkeypatch.context() as patch:
            patch.setattr(sde_engine, "_philox_keys", recording)
            call()
        return seen

    return run
