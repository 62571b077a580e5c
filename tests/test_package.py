"""Tests for the package's public surface."""

import importlib
import pkgutil

import pytest

import fastslow

MODULES = (
    "coefficients",
    "homogenization",
    "sde_engine",
    "malliavin",
    "metrics",
    "cli",
)


@pytest.mark.parametrize("module", ("fastslow", *(f"fastslow.{m}" for m in MODULES)))
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_every_module_is_listed():
    found = {info.name for info in pkgutil.iter_modules(fastslow.__path__)}
    assert found == set(MODULES)
