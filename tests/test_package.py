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


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    """A fresh interpreter that imports the CLI, or the bare package as the
    benchmark's child does, loads none of the scipy subpackages that hold
    a spline, a root bracket, a cumulative trapezoid or a banded solve,
    nor the heavy ones those import in turn."""
    import subprocess
    import sys

    for module in ("fastslow.cli", "fastslow"):
        probe = (
            "import sys\n"
            f"import {module}\n"
            "heavy = ('interpolate', 'optimize', 'integrate', 'sparse', 'spatial', 'linalg')\n"
            "print(' '.join(f'scipy.{m}' for m in heavy if f'scipy.{m}' in sys.modules))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [], module
