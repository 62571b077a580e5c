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
    "oracles",
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


def _fresh_interpreter(probe: str) -> str:
    """stdout of ``probe`` run by a new interpreter (a nonzero exit fails)."""
    import subprocess
    import sys

    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


#: Modules a fresh import must not load: the scipy subpackages that hold a
#: spline, a root bracket, a cumulative trapezoid, a banded solve or the
#: special functions, the heavy ones those import in turn, the numpy
#: subpackages that a star import of numpy loads, and the numpy.ma that
#: np.unique, and so np.percentile, imports.
_HEAVY = tuple(
    f"scipy.{m}"
    for m in ("interpolate", "optimize", "integrate", "sparse", "spatial", "linalg", "special")
) + ("numpy.f2py", "numpy.testing", "numpy.ma")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    """A fresh interpreter that imports the CLI, or the bare package as the
    benchmark's child does, loads none of :data:`_HEAVY`, but does load
    the bare scipy package, whose version the benchmark's child reads."""
    for module in ("fastslow.cli", "fastslow"):
        probe = (
            "import sys\n"
            f"import {module}\n"
            f"print(' '.join(m for m in {_HEAVY!r} if m in sys.modules))\n"
            "print('scipy' in sys.modules)\n"
        )
        heavy, scipy_loaded = _fresh_interpreter(probe).splitlines()
        assert heavy.split() == [], module
        assert scipy_loaded == "True", module


#: Small runs of the CLI's pipelines: a CLT check, with its W1 estimates
#: and bootstrap, a moment sweep, which compiles coefficient kernels, and
#: a rate sweep, with the Monte Carlo floor of each point.
_RUNS = (
    "from fastslow.coefficients import get_model\n"
    "from fastslow.homogenization import build_homogenized\n"
    "from fastslow.malliavin import moment_sweep\n"
    "from fastslow.metrics import clt_verify, rate_sweep\n"
    "from fastslow.sde_engine import ScaleRegime\n"
    "affine = get_model('affine-oracle')\n"
    "hom = build_homogenized(affine, (-3.0, 3.0), 9, 512, 1.0)\n"
    "regime = ScaleRegime(0.04, 0.04, 1.0, 0.4)\n"
    "clt_verify(affine, regime, 0.0, 0.0, 0.002, 300, n_boot=50, hom=hom)\n"
    "regimes = [ScaleRegime(0.1, 0.1, 1.0, 0.5), ScaleRegime(0.05, 0.05, 1.0, 0.5)]\n"
    "moment_sweep(get_model('bounded-coupled'), regimes, 1, 50, seed=3)\n"
    "clt = {'n_paths': 300, 'n_boot': 20, 'hom': hom}\n"
    "rate_sweep(affine, [0.16, 0.08, 0.04], 'equal', clt, T=0.3)\n"
)


def test_runs_load_no_heavy_module():
    """The runs of :data:`_RUNS` load none of :data:`_HEAVY`."""
    probe = (
        "import sys\n"
        + _RUNS
        + f"print(' '.join(m for m in {_HEAVY!r} if m in sys.modules))\n"
    )
    assert _fresh_interpreter(probe).split() == []


def test_runs_never_load_the_oracles():
    """The CLI, the runs of :data:`_RUNS` and a decay check never load
    ``fastslow.oracles``: only tests and studies call the paper's oracles,
    and a run that compiled the module would pay for it in peak memory."""
    probe = (
        "import sys\n"
        "import fastslow.cli\n"
        + _RUNS
        + "from fastslow.malliavin import decay_check\n"
        "decay_check(get_model('bounded-coupled'), regimes[-1], 'd2x_w1w2', 1, 50, 3,\n"
        "            separations_eta=(0.5, 2.0))\n"
        "print('fastslow.oracles' in sys.modules)\n"
    )
    assert _fresh_interpreter(probe).split() == ["False"]


def test_building_models_runs_no_sympy():
    """Building both built-ins and a custom model, compiling their kernels
    and evaluating them loads no sympy module beyond those that
    ``import fastslow`` loaded, and sympy itself stays loaded, since the
    benchmark's child reads its version."""
    probe = (
        "import sys\n"
        "import fastslow\n"
        "from fastslow.coefficients import COEFFICIENT_KEYS, get_model, model_from_expressions\n"
        "from fastslow.sde_engine import _EM_KEYS\n"
        "before = set(sys.modules)\n"
        "models = [get_model('affine-oracle'), get_model('bounded-coupled'),\n"
        "          model_from_expressions('custom', 'sin(x)*y^2 - exp(-x/2)',\n"
        "                                 '1 + 0.5*cos(x*y)', 'tanh(x) - y^3', 'sqrt(2 + sin(y))')]\n"
        "for model in models:\n"
        "    model.compile(COEFFICIENT_KEYS, _EM_KEYS)\n"
        "    model.evaluate(0.3, -0.2, COEFFICIENT_KEYS)\n"
        "    model.evaluate(0.3, -0.2, _EM_KEYS)\n"
        "added = sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'sympy')\n"
        "print(' '.join(added))\n"
        "print('sympy' in sys.modules)\n"
    )
    added, sympy_loaded = _fresh_interpreter(probe).split("\n")[:2]
    assert added.split() == []
    assert sympy_loaded == "True"
