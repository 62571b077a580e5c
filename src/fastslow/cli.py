"""Config-driven command line runner.

Usage::

    fastslow <command> --config <path> [--seed S]

with command one of ``check-assumptions``, ``homogenize``,
``clt-verify``, ``malliavin-sweep``, ``rate-sweep``, ``bound-eval``.
Each command reads a single JSON config, runs the corresponding module
operations, and writes CSV/JSON outputs plus a run manifest to the
configured output directory.  All data outputs are deterministic
functions of (config, seed); files are written atomically (temp file
then rename).

Exit codes: 0 pass, 2 assertion failure, 3 warnings only, 64 usage
error, 70 internal software error (a worker process died before it
reported, or a root search did not converge), 74 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import numbers
import os
import platform
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
import scipy

import fastslow
from fastslow.coefficients import (
    ASSUMPTION_GRID,
    CoefficientSet,
    ExpressionError,
    check_assumptions,
    get_model,
    model_from_expressions,
)
from fastslow.homogenization import BoundaryQualityWarning, build_homogenized
from fastslow.malliavin import (
    DECAY_SEPARATIONS,
    check_decay_settings,
    decay_check,
    moment_sweep,
)
from fastslow.metrics import (
    HOM_GRID,
    N_BOOTSTRAP,
    clt_verify,
    rate_sweep,
    theoretical_bound,
    theoretical_bound_terms,
)
from fastslow.sde_engine import STABILITY_FRACTION, ScaleRegime

__all__ = ["ExperimentConfig", "ConfigError", "main"]

EXIT_PASS = 0
EXIT_ASSERTION = 2
EXIT_WARNINGS = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IO = 74

#: The sections a command reads whole: each key with its default (None:
#: the key is required).
_WHOLE = {
    "regime": {"epsilon": None, "eta": None, "gamma": math.inf, "T": None},
    "sweep": {"epsilons": None, "eta_rule": "equal", "gamma": 1.0, "T": 1.0},
}

_HOM = {"grid.x_range": HOM_GRID[0], "grid.nx": HOM_GRID[1], "grid.ny": HOM_GRID[2]}
_PATHS = {"grid.x0": 0.0, "grid.y0": 0.0, "grid.dt_eta_fraction": STABILITY_FRACTION}
_BOUND = {"analysis.K": 1.0, "analysis.zeta": 0.1}

#: What each command reads: the sections of :data:`_WHOLE` it may read,
#: of which it reads the first one present (None: it may run without
#: one), and each grid and analysis key with its default (None: the
#: library's own, and for ``grid.y_range`` the x_range).
_READS = {
    "check-assumptions": ((), {
        "grid.x_range": ASSUMPTION_GRID[0], "grid.y_range": None,
        "grid.nx": ASSUMPTION_GRID[1], "grid.ny": ASSUMPTION_GRID[1], "analysis.p": (1,),
    }),
    "homogenize": (
        ("regime", None), {"grid.x_range": (-3.0, 3.0), "grid.nx": 41, "grid.ny": 8192}
    ),
    "clt-verify": (("regime",), {
        **_HOM, **_PATHS, "grid.n_paths": 10_000, "grid.checkpoints": None,
        "analysis.bootstrap": N_BOOTSTRAP,
    }),
    "malliavin-sweep": (("sweep",), {
        **_PATHS, "grid.n_paths": 2000, "analysis.p": (1,),
        "analysis.decay_separations": DECAY_SEPARATIONS,
        "analysis.decay_bounds": ("d2x_w1w2", "d2x_w2w2"),
    }),
    "rate-sweep": (("sweep",), {
        **_HOM, **_PATHS, "grid.n_paths": 10_000, "analysis.bootstrap": N_BOOTSTRAP, **_BOUND,
    }),
    "bound-eval": (("regime", "sweep"), {**_BOUND, "analysis.C1": 1.0, "analysis.C2": 1.0}),
}

#: The keys each config section may hold: those some command reads.
_SECTION_KEYS = {
    "expressions": ("c", "sigma", "f", "tau"),
    **_WHOLE,
    **{
        section: {
            key.partition(".")[2]
            for _, keys in _READS.values()
            for key in keys
            if key.startswith(f"{section}.")
        }
        for section in ("grid", "analysis")
    },
    "io": ("master_seed", "output_dir"),
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _number(name: str, value):
    """``value`` when it is a real number (not a bool); ConfigError
    naming ``name`` otherwise, where a comparison or int() would raise a
    bare TypeError or ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number (got {value!r})")
    return value


def _require_count(name: str, value) -> None:
    """ConfigError naming ``name`` unless ``value`` is None or an integral
    number of at least 1."""
    if value is not None and not (
        float(_number(name, value)).is_integer() and value >= 1
    ):
        raise ConfigError(f"{name} must be a positive integer (got {value})")


def _seed(name: str, value) -> int:
    """``value`` as an int; ConfigError naming ``name`` unless it is a
    non-negative integral number (a bool or 1.5 is not taken for 1)."""
    _number(name, value)
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer (got {value!r})")
    return int(value)


def _require_range(name: str, value) -> None:
    """ConfigError naming ``name`` unless ``value`` is a pair [lo, hi] of
    finite numbers with lo < hi."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{name} must be a pair [lo, hi] (got {value!r})")
    lo, hi = (_number(name, v) for v in value)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"{name} must be finite with lo < hi (got {value!r})")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, regime(s), grids, analysis knobs, and IO.

    Parses from / serializes to a stable JSON dict (round-trip
    identity).  Numeric constraints of the downstream modules and the
    model expressions are validated at load time, before any simulation
    starts; :meth:`settings` then checks the config against one command.
    """

    model: str | None = None
    expressions: dict | None = None
    regime: dict | None = None
    sweep: dict | None = None
    grid: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    io: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object (got {type(raw).__name__})")
        unknown = set(raw) - {"model", *_SECTION_KEYS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = ExperimentConfig(
            model=raw.get("model"),
            expressions=_norm_dict(raw.get("expressions")),
            regime=_norm_dict(raw.get("regime")),
            sweep=_norm_dict(raw.get("sweep")),
            grid=_norm_dict(raw.get("grid")) or {},
            analysis=_norm_dict(raw.get("analysis")) or {},
            io=_norm_dict(raw.get("io")) or {},
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {}
        for key, value in asdict(self).items():
            if value not in (None, {}):
                out[key] = value
        return out

    def validate(self) -> None:
        if (self.model is None) == (self.expressions is None):
            raise ConfigError("config needs exactly one of 'model' or 'expressions'")
        for section, keys in _SECTION_KEYS.items():
            unknown = set(getattr(self, section) or ()) - set(keys)
            if unknown:
                raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
        if self.expressions is not None:
            missing = set(_SECTION_KEYS["expressions"]) - set(self.expressions)
            if missing:
                raise ConfigError(f"expressions missing coefficients: {sorted(missing)}")
        elif not isinstance(self.model, str):
            raise ConfigError(f"model must be the name of a built-in (got {self.model!r})")
        try:
            self.coefficient_set()
        except ExpressionError as exc:
            raise ConfigError(f"expressions: {exc}") from None
        except KeyError as exc:  # get_model: an unknown name, with the built-ins
            raise ConfigError(exc.args[0]) from None
        if self.regime is not None:
            regime = self._section("regime")
            for key in ("epsilon", "eta", "T", "gamma"):
                if regime[key] is None or not _number(f"regime.{key}", regime[key]) > 0:
                    raise ConfigError(f"regime.{key} must be positive (got {regime[key]})")
        if self.sweep is not None:
            sweep = self._section("sweep")
            eps = sweep["epsilons"]
            if not isinstance(eps, (list, tuple)) or not eps:
                raise ConfigError("sweep.epsilons must be a non-empty list")
            if any(not _number("sweep.epsilons", e) > 0 for e in eps):
                raise ConfigError("sweep.epsilons must be positive")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise ConfigError("sweep.epsilons must be strictly decreasing")
            if sweep["eta_rule"] != "equal":
                raise ConfigError(f"unknown sweep.eta_rule {sweep['eta_rule']!r}")
            for key in ("T", "gamma"):
                if not _number(f"sweep.{key}", sweep[key]) > 0:
                    raise ConfigError(f"sweep.{key} must be positive (got {sweep[key]})")
        for key in ("n_paths", "nx", "ny"):
            _require_count(f"grid.{key}", self.grid.get(key))
        fraction = self.grid.get("dt_eta_fraction")
        if fraction is not None and not (
            0.0 < _number("grid.dt_eta_fraction", fraction) <= STABILITY_FRACTION
        ):
            raise ConfigError(f"grid.dt_eta_fraction must lie in (0, 1/20] (got {fraction})")
        checkpoints = self.grid.get("checkpoints")
        if checkpoints is not None:
            if not isinstance(checkpoints, (list, tuple)) or not checkpoints:
                raise ConfigError(
                    f"grid.checkpoints must be a non-empty list of times (got {checkpoints!r})"
                )
            for t in checkpoints:
                if not math.isfinite(_number("grid.checkpoints", t)):
                    raise ConfigError(f"grid.checkpoints must be finite (got {t})")
        for key in ("x_range", "y_range"):
            if key in self.grid:
                _require_range(f"grid.{key}", self.grid[key])
        for section, keys in (("grid", ("x0", "y0")), ("analysis", ("K", "C1", "C2"))):
            values = getattr(self, section)
            for key in keys:
                if key in values:
                    _number(f"{section}.{key}", values[key])
        zeta = self.analysis.get("zeta")
        if zeta is not None and not 0.0 < _number("analysis.zeta", zeta) < 0.5:
            raise ConfigError(f"analysis.zeta must lie in (0, 1/2) (got {zeta})")
        orders = self.analysis.get("p", ())
        if not isinstance(orders, (list, tuple)):
            raise ConfigError(f"analysis.p must be a list of moment orders (got {orders!r})")
        if "p" in self.analysis and not orders:
            raise ConfigError("analysis.p must not be empty")
        for p in orders:
            if isinstance(p, bool) or p not in (1, 2):
                raise ConfigError(
                    f"analysis.p entries must be the positive integers 1 or 2 (got {p!r})"
                )
        self.decay_settings()
        _require_count("analysis.bootstrap", self.analysis.get("bootstrap"))
        self.master_seed()

    # -- resolved accessors -------------------------------------------

    def settings(self, command: str) -> dict:
        """Everything ``command`` reads, by key name: each grid and analysis
        key of :data:`_READS` as configured or at its default there, the
        keys of the whole section read (with the defaults of
        :data:`_WHOLE`), and ``regimes``, that section's regimes.

        ConfigError when the command needs a section the config lacks,
        then naming each key or section the command does not read."""
        sections, defaults = _READS[command]
        read = next((s for s in sections if s is None or getattr(self, s) is not None), None)
        if read is None and sections and sections[-1] is not None:
            self._section(sections[-1])  # raises the ConfigError naming it
        given = {f"{s}.{key}" for s in ("grid", "analysis") for key in getattr(self, s)}
        given |= {s for s in _WHOLE if getattr(self, s) is not None}
        unread = given - set(defaults) - {read}
        if unread:
            raise ConfigError(f"keys {command} does not read: {sorted(unread)}")
        values = {key.partition(".")[2]: self._value(command, key) for key in defaults}
        if read is None:
            return {**values, "regimes": []}
        regimes = [self.scale_regime()] if read == "regime" else self.sweep_regimes()
        return {**values, **self._section(read), "regimes": regimes}

    def _value(self, command: str, key: str):
        """``key`` ("section.name") as configured, else ``command``'s default."""
        section, _, name = key.partition(".")
        return getattr(self, section).get(name, _READS[command][1][key])

    def _section(self, name: str) -> dict:
        """The ``regime`` or ``sweep`` section with the defaults of
        :data:`_WHOLE`; ConfigError when the config has none."""
        if getattr(self, name) is None:
            raise ConfigError(f"this command needs a '{name}' section")
        return {**_WHOLE[name], **getattr(self, name)}

    def coefficient_set(self) -> CoefficientSet:
        """The model, built once: :meth:`validate` builds it, and each
        command reads the same one."""
        return self._model

    @cached_property
    def _model(self) -> CoefficientSet:
        if self.model is not None:
            return get_model(self.model)
        e = self.expressions
        return model_from_expressions("custom", e["c"], e["sigma"], e["f"], e["tau"])

    def scale_regime(self) -> ScaleRegime:
        return ScaleRegime(**self._section("regime"))

    def sweep_regimes(self) -> list[ScaleRegime]:
        sweep = self._section("sweep")
        return [
            ScaleRegime(epsilon=e, eta=e, gamma=sweep["gamma"], T=sweep["T"])
            for e in sweep["epsilons"]
        ]

    def decay_settings(
        self, regime: ScaleRegime | None = None
    ) -> tuple[list[float], list[str]]:
        """``analysis.decay_separations`` and ``analysis.decay_bounds`` of
        ``malliavin-sweep``, checked as :func:`decay_check` checks them, at
        ``regime`` and the configured step fraction when a regime is
        given (ConfigError otherwise)."""
        seps = self._value("malliavin-sweep", "analysis.decay_separations")
        bounds = list(self._value("malliavin-sweep", "analysis.decay_bounds"))
        fraction = self._value("malliavin-sweep", "grid.dt_eta_fraction")
        where = "" if regime is None else f" at eps={regime.epsilon:g}"
        try:
            seps = check_decay_settings(bounds, seps, regime, fraction)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"analysis.decay_separations / decay_bounds{where}: {exc}"
            ) from None
        return seps, bounds

    def master_seed(self, override=None) -> int:
        """The ``--seed`` override when given, else ``io.master_seed``
        (default 0); ConfigError unless it is a non-negative integer."""
        if override is not None:
            return _seed("--seed", override)
        return _seed("io.master_seed", self.io.get("master_seed", 0))

    def output_dir(self) -> str:
        return str(self.io.get("output_dir", "fastslow-out"))


def _norm_dict(value):
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object (got {type(value).__name__})")
    return dict(value)


# -- atomic output helpers --------------------------------------------


def _write_json(path: str, payload) -> None:
    _atomic_file(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_csv_rows(path: str, header: str, rows) -> None:
    """A CSV of ``header`` and one line per row, each value written as
    ``repr(float(v))``; the rows are written as they come, so none is
    held beyond its own line."""
    lines = (",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    _atomic_file(path, itertools.chain([header + "\n"], lines))


def _atomic_file(path: str, pieces) -> None:
    """Write the strings ``pieces`` in turn to a temp file, then rename.

    The file's directory is created here, at the first write, so a run
    that fails before writing leaves no directory behind."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(
    out_dir, command, config, seed, setup_s, t0, children_at_start, exit_code
) -> None:
    payload = {
        "command": command,
        "config_hash": _config_hash(config),
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fastslow": fastslow.__version__,
        },
        "setup_s": setup_s,
        "wall_time_s": time.monotonic() - t0,
        "peak_rss_mb": _peak_rss_mb(children_at_start),
        "exit_code": exit_code,
    }
    _write_json(os.path.join(out_dir, "run_manifest.json"), payload)


def _peak_rss_mb(children_at_start: float = 0.0) -> dict | None:
    """Peak resident memory in MiB of this process and of its largest
    worker; None where there is no ``getrusage`` (Windows).  The workers'
    peak is that of the largest child process waited for, a reading that
    survives exec and never falls, so it starts at what the launching
    process or earlier runs left: it is reported only when it grew past
    ``children_at_start``, the reading at the start of the run (by
    default the reading itself), and is 0 otherwise, as when no worker
    ran.  Pages a worker shares with this process count in both, so
    their sum over-counts the total."""
    try:
        import resource
    except ImportError:
        return None
    unit = 1024.0**2 if sys.platform == "darwin" else 1024.0  # ru_maxrss: bytes, else KiB
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / unit
    return {
        "process": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit,
        "workers": children if children > children_at_start else 0.0,
    }


# -- commands ---------------------------------------------------------


def cmd_check_assumptions(config: ExperimentConfig, s: dict, out_dir, seed) -> int:
    model = config.coefficient_set()
    x_range = tuple(s["x_range"])
    y_range = tuple(s["y_range"] or x_range)
    all_pass = True
    for p in map(int, s["p"]):
        report = check_assumptions(model, x_range, y_range, int(s["nx"]), int(s["ny"]), p)
        _write_json(os.path.join(out_dir, f"assumptions_p{p}.json"), report.to_dict())
        all_pass = all_pass and report.passes
    return EXIT_PASS if all_pass else EXIT_ASSERTION


def _homogenized(s: dict, model: CoefficientSet, gamma):
    """Homogenized model on the command's ``grid.x_range``, ``nx`` and ``ny``."""
    return build_homogenized(model, tuple(s["x_range"]), int(s["nx"]), int(s["ny"]), gamma)


def cmd_homogenize(config: ExperimentConfig, s: dict, out_dir, seed) -> int:
    model = config.coefficient_set()
    gamma = s["regimes"][0].gamma if s["regimes"] else math.inf
    hom = _homogenized(s, model, gamma)
    _write_csv_rows(
        os.path.join(out_dir, "homogenized_detail.csv"),
        "x,y,m,phi,dy_phi",
        (
            (x, *node)
            for x, *rows in zip(hom.x_grid, hom.y_grid, hom.density, hom.phi, hom.dy_phi)
            for node in zip(*rows)
        ),
    )
    _write_csv_rows(
        os.path.join(out_dir, "homogenized_summary.csv"),
        "x,c_bar,q_bar",
        zip(hom.x_grid, hom.c_bar, hom.q_bar),
    )
    _write_json(
        os.path.join(out_dir, "homogenize.json"),
        {
            "model": model.name,
            "gamma": None if math.isinf(gamma) else gamma,
            "x_range": list(s["x_range"]),
            "nx": int(s["nx"]),
            "ny": int(s["ny"]),
            "warnings": list(hom.warnings),
        },
    )
    return EXIT_WARNINGS if hom.warnings else EXIT_PASS


def _regime_diagnostics(regime: ScaleRegime) -> dict:
    """Regime drift and scaling quotient, with None where a value is inf or None."""
    values = {
        "regime_drift": regime.regime_drift(),
        "scaling_quotient": regime.scaling_quotient(),
    }
    return {
        key: v if v is not None and math.isfinite(v) else None
        for key, v in values.items()
    }


def cmd_clt_verify(config: ExperimentConfig, s: dict, out_dir, seed) -> int:
    model = config.coefficient_set()
    regime = s["regimes"][0]
    hom = _homogenized(s, model, regime.gamma)
    reports = clt_verify(
        model,
        regime,
        x0=float(s["x0"]),
        y0=float(s["y0"]),
        dt=regime.eta * float(s["dt_eta_fraction"]),
        n_paths=int(s["n_paths"]),
        checkpoints=s["checkpoints"],
        seed=seed,
        n_boot=int(s["bootstrap"]),
        hom=hom,
    )
    payload = {
        "model": model.name,
        "regime": {
            "epsilon": regime.epsilon,
            "eta": regime.eta,
            "gamma": None if math.isinf(regime.gamma) else regime.gamma,
            "T": regime.T,
            **_regime_diagnostics(regime),
        },
        "checkpoints": [r.to_dict() for r in reports],
        "rate": None,
        "bound": [],
        "warnings": list(hom.warnings),
    }
    _write_json(os.path.join(out_dir, "clt_verify.json"), payload)
    _write_csv_rows(
        os.path.join(out_dir, "clt_checkpoints.csv"),
        "t,w1,ci_lo,ci_hi,mean_gap,sd_gap",
        [
            (r.t, r.w1, r.bootstrap_ci[0], r.bootstrap_ci[1], r.mean_gap, r.sd_gap)
            for r in reports
        ],
    )
    # W1 dominates the mean gap up to bootstrap half-width.
    for r in reports:
        half = (r.bootstrap_ci[1] - r.bootstrap_ci[0]) / 2.0
        if r.w1 < r.mean_gap - half:
            return EXIT_ASSERTION
    return EXIT_WARNINGS if hom.warnings else EXIT_PASS


def cmd_malliavin_sweep(config: ExperimentConfig, s: dict, out_dir, seed) -> int:
    model = config.coefficient_set()
    regimes = s["regimes"]
    n_paths = int(s["n_paths"])
    start = {key: float(s[key]) for key in ("x0", "y0", "dt_eta_fraction")}
    orders = [int(p) for p in s["p"]]
    # Reject a separation that reaches before t = 0 at the finest point
    # before any artifact is written.
    separations, decay_bounds = config.decay_settings(regimes[-1])
    any_warn = False
    all_pass = True
    for p in orders:
        reports = moment_sweep(model, regimes, p, n_paths, seed=seed, **start)
        _write_json(
            os.path.join(out_dir, f"moments_p{p}.json"),
            {bid: rep.to_dict() for bid, rep in reports.items()},
        )
        all_pass = all_pass and all(rep.passes for rep in reports.values())
        any_warn = any_warn or any(rep.warnings for rep in reports.values())
    if decay_bounds:
        payload = {}
        for bid in decay_bounds:
            rep = decay_check(
                model, regimes[-1], bid, orders[0], n_paths, seed,
                separations_eta=separations, **start,
            )
            payload[bid] = rep.to_dict()
            all_pass = all_pass and rep.monotone_within_noise
        _write_json(os.path.join(out_dir, "decay.json"), payload)
    if not all_pass:
        return EXIT_ASSERTION
    return EXIT_WARNINGS if any_warn else EXIT_PASS


def cmd_rate_sweep(config: ExperimentConfig, s: dict, out_dir, seed) -> int:
    model = config.coefficient_set()
    epsilons, gamma, T = s["epsilons"], s["gamma"], s["T"]
    if len(epsilons) < 3:
        raise ConfigError(f"rate-sweep needs at least three sweep.epsilons (got {epsilons})")
    hom = _homogenized(s, model, gamma)
    fit = rate_sweep(
        model,
        epsilons,
        s["eta_rule"],
        {
            "x0": s["x0"],
            "y0": s["y0"],
            "n_paths": s["n_paths"],
            "dt_eta_fraction": float(s["dt_eta_fraction"]),
            "n_boot": int(s["bootstrap"]),
            "hom": hom,
        },
        gamma=gamma,
        T=T,
        K=float(s["K"]),
        zeta=float(s["zeta"]),
        seed=seed,
    )
    payload = {
        "model": model.name,
        "regime": {"gamma": gamma, "T": T, "eta_rule": s["eta_rule"]},
        "checkpoints": [r.to_dict() for r in fit.reports],
        **fit.to_dict(),
        "warnings": list(hom.warnings),
    }
    for point in payload["points"]:
        point.update(
            _regime_diagnostics(ScaleRegime(point["epsilon"], point["eta"], gamma, T))
        )
    _write_json(os.path.join(out_dir, "rate_sweep.json"), payload)
    _write_csv_rows(
        os.path.join(out_dir, "rate_points.csv"),
        "epsilon,eta,w1,bound",
        [
            (e, h, w, b)
            for (e, h, w), b in zip(fit.points, fit.bound_values)
        ],
    )
    for (_, _, w1), bound in zip(fit.points, fit.bound_values):
        if w1 > bound * (1.0 + 1e-9):
            return EXIT_ASSERTION
    return EXIT_WARNINGS if fit.noisy_points or hom.warnings else EXIT_PASS


def cmd_bound_eval(config: ExperimentConfig, s: dict, out_dir, seed) -> int:
    model_name = config.model if config.model is not None else "custom"
    K, zeta, C1, C2 = (float(s[key]) for key in ("K", "zeta", "C1", "C2"))
    rows = []
    details = []
    for regime in s["regimes"]:
        value = theoretical_bound(regime, K, zeta, C1, C2)
        terms = theoretical_bound_terms(regime, K, zeta)
        rows.append(
            (regime.epsilon, regime.eta,
             math.inf if math.isinf(regime.gamma) else regime.gamma,
             regime.T, zeta, K, C1, C2, value)
        )
        details.append(
            {
                "epsilon": regime.epsilon,
                "eta": regime.eta,
                "gamma": None if math.isinf(regime.gamma) else regime.gamma,
                "T": regime.T,
                "bound": value,
                "terms": terms,
            }
        )
    _write_json(
        os.path.join(out_dir, "bound_eval.json"),
        {"model": model_name, "K": K, "zeta": zeta, "C1": C1, "C2": C2, "table": details},
    )
    _write_csv_rows(
        os.path.join(out_dir, "bound_eval.csv"),
        "epsilon,eta,gamma,T,zeta,K,C1,C2,bound",
        rows,
    )
    return EXIT_PASS


_DISPATCH = {
    "check-assumptions": cmd_check_assumptions,
    "homogenize": cmd_homogenize,
    "clt-verify": cmd_clt_verify,
    "malliavin-sweep": cmd_malliavin_sweep,
    "rate-sweep": cmd_rate_sweep,
    "bound-eval": cmd_bound_eval,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Slow-fast SDE laboratory: averaging, fluctuations, tangents.",
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    return parser


def main(argv=None) -> int:
    # From the first line of the package import; in a process that calls
    # main more than once, this includes whatever ran before this call.
    setup_s = time.monotonic() - fastslow._IMPORT_STARTED
    children_at_start = (_peak_rss_mb() or {}).get("workers")  # the reading as it stands
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"fastslow: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"fastslow: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = ExperimentConfig.from_dict(raw)
        seed = config.master_seed(args.seed)
        settings = config.settings(args.command)
    except ConfigError as exc:
        print(f"fastslow: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = config.output_dir()
    t0 = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", BoundaryQualityWarning)
            code = _DISPATCH[args.command](config, settings, out_dir, seed)
    except ConfigError as exc:
        print(f"fastslow: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"fastslow: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"fastslow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except RuntimeError as exc:
        print(f"fastslow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE

    try:
        _write_manifest(
            out_dir, args.command, config, seed, setup_s, t0, children_at_start, code
        )
    except OSError as exc:
        print(f"fastslow: cannot write manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
