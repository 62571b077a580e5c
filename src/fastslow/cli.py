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
error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
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

import numpy as np
import scipy

import fastslow
from fastslow.coefficients import (
    ASSUMPTION_GRID,
    CoefficientSet,
    check_assumptions,
    get_model,
    model_from_expressions,
)
from fastslow.homogenization import (
    BoundaryQualityWarning,
    build_homogenized,
    write_detail_csv,
    write_summary_csv,
)
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
from fastslow.sde_engine import (
    STABILITY_FRACTION,
    ScaleRegime,
    StabilityError,
    _check_stability,
)

__all__ = ["ExperimentConfig", "ConfigError", "main"]

EXIT_PASS = 0
EXIT_ASSERTION = 2
EXIT_WARNINGS = 3
EXIT_USAGE = 64
EXIT_IO = 74

#: The keys each config section may hold: those some command reads.
_SECTION_KEYS = {
    "expressions": ("c", "sigma", "f", "tau"),
    "regime": ("epsilon", "eta", "gamma", "T"),
    "sweep": ("epsilons", "eta_rule", "gamma", "T"),
    "grid": (
        "dt", "dt_eta_fraction", "n_paths", "nx", "ny", "x_range", "y_range",
        "x0", "y0", "checkpoints",
    ),
    "analysis": ("p", "K", "C1", "C2", "zeta", "bootstrap", "decay_separations", "decay_bounds"),
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
    identity).  Numeric constraints of the downstream modules are
    validated at load time; in particular a configured ``grid.dt``
    larger than eta/20 is rejected before any simulation starts.
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
        if self.regime is not None:
            for key in ("epsilon", "eta", "T"):
                value = self.regime.get(key)
                if value is None or not _number(f"regime.{key}", value) > 0:
                    raise ConfigError(f"regime.{key} must be positive (got {value})")
            gamma = self.regime.get("gamma", math.inf)
            if not _number("regime.gamma", gamma) > 0:
                raise ConfigError(f"regime.gamma must be positive (got {gamma})")
            dt = self.grid.get("dt")
            if dt is not None:
                if not _number("grid.dt", dt) > 0:
                    raise ConfigError(f"grid.dt must be positive (got {dt})")
                try:
                    _check_stability(dt, self.regime["eta"])
                except StabilityError as exc:
                    raise ConfigError(f"grid.{exc}") from None
        if self.sweep is not None:
            eps = self.sweep.get("epsilons")
            if not isinstance(eps, (list, tuple)) or not eps:
                raise ConfigError("sweep.epsilons must be a non-empty list")
            if any(not _number("sweep.epsilons", e) > 0 for e in eps):
                raise ConfigError("sweep.epsilons must be positive")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise ConfigError("sweep.epsilons must be strictly decreasing")
            rule = self.sweep.get("eta_rule", "equal")
            if rule != "equal":
                raise ConfigError(f"unknown sweep.eta_rule {rule!r}")
            for key in ("T", "gamma"):
                value = self.sweep.get(key, 1.0)
                if not _number(f"sweep.{key}", value) > 0:
                    raise ConfigError(f"sweep.{key} must be positive (got {value})")
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
        orders = self.analysis.get("p", [1])
        if not isinstance(orders, (list, tuple)):
            raise ConfigError(f"analysis.p must be a list of moment orders (got {orders!r})")
        if not orders:
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

    def coefficient_set(self) -> CoefficientSet:
        if self.model is not None:
            return get_model(self.model)
        e = self.expressions
        return model_from_expressions("custom", e["c"], e["sigma"], e["f"], e["tau"])

    def scale_regime(self) -> ScaleRegime:
        if self.regime is None:
            raise ConfigError("this command needs a 'regime' section")
        return ScaleRegime(
            epsilon=self.regime["epsilon"],
            eta=self.regime["eta"],
            gamma=self.regime.get("gamma", math.inf),
            T=self.regime["T"],
        )

    def sweep_regimes(self) -> list[ScaleRegime]:
        if self.sweep is None:
            raise ConfigError("this command needs a 'sweep' section")
        gamma = self.sweep.get("gamma", 1.0)
        T = self.sweep.get("T", 1.0)
        return [
            ScaleRegime(epsilon=e, eta=e, gamma=gamma, T=T)
            for e in self.sweep["epsilons"]
        ]

    def moment_orders(self) -> list[int]:
        """``analysis.p``, default [1]."""
        return [int(p) for p in self.analysis.get("p", [1])]

    def dt_eta_fraction(self) -> float:
        """``grid.dt_eta_fraction``, the sweeps' step as a fraction of
        eta, default the stability guard 1/20."""
        return float(self.grid.get("dt_eta_fraction", STABILITY_FRACTION))

    def decay_settings(
        self, regime: ScaleRegime | None = None
    ) -> tuple[list[float], list[str]]:
        """``analysis.decay_separations`` and ``analysis.decay_bounds`` (or
        their defaults), checked as :func:`decay_check` checks them, at
        ``regime`` and the configured step fraction when a regime is
        given (ConfigError otherwise)."""
        seps = self.analysis.get("decay_separations", DECAY_SEPARATIONS)
        bounds = list(self.analysis.get("decay_bounds", ("d2x_w1w2", "d2x_w2w2")))
        where = "" if regime is None else f" at eps={regime.epsilon:g}"
        try:
            seps = check_decay_settings(bounds, seps, regime, self.dt_eta_fraction())
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


def _atomic_write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    _atomic_file(write, path)


def _write_json(path: str, payload) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv_rows(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _atomic_file(write_fn, path: str) -> None:
    """Run a path-taking writer against a temp file, then rename.

    The file's directory is created here, at the first write, so a run
    that fails before writing leaves no directory behind."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(out_dir, command, config, seed, t0, exit_code) -> None:
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
        "wall_time_s": time.monotonic() - t0,
        "exit_code": exit_code,
    }
    _write_json(os.path.join(out_dir, "run_manifest.json"), payload)


# -- commands ---------------------------------------------------------


def cmd_check_assumptions(config: ExperimentConfig, out_dir, seed) -> int:
    model = config.coefficient_set()
    box, nodes = ASSUMPTION_GRID
    x_range = tuple(config.grid.get("x_range", box))
    y_range = tuple(config.grid.get("y_range", x_range))
    nx = int(config.grid.get("nx", nodes))
    ny = int(config.grid.get("ny", nodes))
    all_pass = True
    for p in config.moment_orders():
        report = check_assumptions(model, x_range, y_range, nx, ny, p)
        _write_json(os.path.join(out_dir, f"assumptions_p{p}.json"), report.to_dict())
        all_pass = all_pass and report.passes
    return EXIT_PASS if all_pass else EXIT_ASSERTION


def cmd_homogenize(config: ExperimentConfig, out_dir, seed) -> int:
    model = config.coefficient_set()
    regime = config.scale_regime() if config.regime is not None else None
    gamma = regime.gamma if regime is not None else math.inf
    x_range = tuple(config.grid.get("x_range", (-3.0, 3.0)))
    nx = int(config.grid.get("nx", 41))
    ny = int(config.grid.get("ny", 8192))
    hom = build_homogenized(model, x_range, nx, ny, gamma)
    _atomic_file(
        lambda p: write_detail_csv(hom, p),
        os.path.join(out_dir, "homogenized_detail.csv"),
    )
    _atomic_file(
        lambda p: write_summary_csv(hom, p),
        os.path.join(out_dir, "homogenized_summary.csv"),
    )
    _write_json(
        os.path.join(out_dir, "homogenize.json"),
        {
            "model": model.name,
            "gamma": None if math.isinf(gamma) else gamma,
            "x_range": list(x_range),
            "nx": nx,
            "ny": ny,
            "warnings": list(hom.warnings),
        },
    )
    return EXIT_WARNINGS if hom.warnings else EXIT_PASS


def _clt_homogenized(config: ExperimentConfig, model: CoefficientSet, gamma):
    """Homogenized model on the config's ``grid.x_range/nx/ny``."""
    x_range, nx, ny = HOM_GRID
    grid = config.grid
    return build_homogenized(
        model,
        tuple(grid.get("x_range", x_range)),
        int(grid.get("nx", nx)),
        int(grid.get("ny", ny)),
        gamma,
    )


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


def cmd_clt_verify(config: ExperimentConfig, out_dir, seed) -> int:
    model = config.coefficient_set()
    regime = config.scale_regime()
    grid = config.grid
    hom = _clt_homogenized(config, model, regime.gamma)
    reports = clt_verify(
        model,
        regime,
        x0=float(grid.get("x0", 0.0)),
        y0=float(grid.get("y0", 0.0)),
        dt=float(grid.get("dt", regime.eta * STABILITY_FRACTION)),
        n_paths=int(grid.get("n_paths", 10_000)),
        checkpoints=grid.get("checkpoints"),
        seed=seed,
        n_boot=int(config.analysis.get("bootstrap", N_BOOTSTRAP)),
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


def cmd_malliavin_sweep(config: ExperimentConfig, out_dir, seed) -> int:
    model = config.coefficient_set()
    regimes = config.sweep_regimes()
    n_paths = int(config.grid.get("n_paths", 2000))
    x0 = float(config.grid.get("x0", 0.0))
    y0 = float(config.grid.get("y0", 0.0))
    fraction = config.dt_eta_fraction()
    # Reject a separation that reaches before t = 0 at the finest point
    # before any artifact is written.
    separations, decay_bounds = config.decay_settings(regimes[-1])
    any_warn = False
    all_pass = True
    for p in config.moment_orders():
        reports = moment_sweep(
            model, regimes, p, n_paths, seed=seed, x0=x0, y0=y0, dt_eta_fraction=fraction
        )
        _write_json(
            os.path.join(out_dir, f"moments_p{p}.json"),
            {bid: rep.to_dict() for bid, rep in reports.items()},
        )
        all_pass = all_pass and all(rep.passes for rep in reports.values())
        any_warn = any_warn or any(rep.warnings for rep in reports.values())
    if decay_bounds:
        finest = regimes[-1]
        payload = {}
        for bid in decay_bounds:
            rep = decay_check(
                model,
                finest,
                bid,
                config.moment_orders()[0],
                n_paths,
                seed,
                separations_eta=separations,
                x0=x0,
                y0=y0,
                dt_eta_fraction=fraction,
            )
            payload[bid] = rep.to_dict()
            all_pass = all_pass and rep.monotone_within_noise
        _write_json(os.path.join(out_dir, "decay.json"), payload)
    if not all_pass:
        return EXIT_ASSERTION
    return EXIT_WARNINGS if any_warn else EXIT_PASS


def cmd_rate_sweep(config: ExperimentConfig, out_dir, seed) -> int:
    model = config.coefficient_set()
    if config.sweep is None:
        raise ConfigError("rate-sweep needs a 'sweep' section")
    epsilons = config.sweep["epsilons"]
    if len(epsilons) < 3:
        raise ConfigError(f"rate-sweep needs at least three sweep.epsilons (got {epsilons})")
    grid = config.grid
    gamma = config.sweep.get("gamma", 1.0)
    T = config.sweep.get("T", 1.0)
    hom = _clt_homogenized(config, model, gamma)
    fit = rate_sweep(
        model,
        epsilons,
        config.sweep.get("eta_rule", "equal"),
        {
            "x0": grid.get("x0", 0.0),
            "y0": grid.get("y0", 0.0),
            "n_paths": grid.get("n_paths", 10_000),
            "dt_eta_fraction": config.dt_eta_fraction(),
            "n_boot": int(config.analysis.get("bootstrap", N_BOOTSTRAP)),
            "hom": hom,
        },
        gamma=gamma,
        T=T,
        K=float(config.analysis.get("K", 1.0)),
        zeta=float(config.analysis.get("zeta", 0.1)),
        seed=seed,
    )
    payload = {
        "model": model.name,
        "regime": {
            "gamma": gamma,
            "T": T,
            "eta_rule": config.sweep.get("eta_rule", "equal"),
        },
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


def cmd_bound_eval(config: ExperimentConfig, out_dir, seed) -> int:
    model_name = config.model if config.model is not None else "custom"
    K = float(config.analysis.get("K", 1.0))
    zeta = float(config.analysis.get("zeta", 0.1))
    C1 = float(config.analysis.get("C1", 1.0))
    C2 = float(config.analysis.get("C2", 1.0))
    regimes = (
        [config.scale_regime()] if config.regime is not None else config.sweep_regimes()
    )
    rows = []
    details = []
    for regime in regimes:
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
    except ConfigError as exc:
        print(f"fastslow: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = config.output_dir()
    t0 = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", BoundaryQualityWarning)
            code = _DISPATCH[args.command](config, out_dir, seed)
    except ConfigError as exc:
        print(f"fastslow: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"fastslow: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"fastslow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    try:
        _write_manifest(out_dir, args.command, config, seed, t0, code)
    except OSError as exc:
        print(f"fastslow: cannot write manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
