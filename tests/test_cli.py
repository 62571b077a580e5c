"""End-to-end tests of the command line interface.

Every command is driven through ``main(argv)`` against JSON configs in a
temporary directory, checking exit codes, artifact schemas, and the
byte-identical determinism contract for data outputs.
"""

import json
import math
import os

import pytest

import fastslow.cli as cli_mod
import fastslow.malliavin as malliavin_mod
import fastslow.sde_engine as sde_engine
from fastslow.cli import (
    EXIT_ASSERTION,
    EXIT_IO,
    EXIT_PASS,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    EXIT_WARNINGS,
    ConfigError,
    ExperimentConfig,
    _regime_diagnostics,
    main,
)
from fastslow.coefficients import get_model
from fastslow.homogenization import build_homogenized
from fastslow.malliavin import BOUND_IDS, decay_check, moment_sweep
from fastslow.metrics import clt_verify
from fastslow.sde_engine import ScaleRegime


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_json(out_dir, name):
    with open(os.path.join(str(out_dir), name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(out_dir, name):
    with open(os.path.join(str(out_dir), name), "rb") as fh:
        return fh.read()


def _csv_rows(out_dir, name):
    text = _read_bytes(out_dir, name).decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    return lines[0], [ln.split(",") for ln in lines[1:]]


# -- config object ----------------------------------------------------


def test_config_round_trip_identity():
    raw = {
        "model": "affine-oracle",
        "regime": {"epsilon": 0.05, "eta": 0.05, "gamma": 1.0, "T": 0.2},
        "grid": {"dt_eta_fraction": 0.05, "n_paths": 200, "nx": 17, "ny": 2048},
        "analysis": {"zeta": 0.1, "p": [1, 2], "bootstrap": 50},
        "io": {"output_dir": "out", "master_seed": 3},
    }
    cfg = ExperimentConfig.from_dict(raw)
    once = cfg.to_dict()
    again = ExperimentConfig.from_dict(once).to_dict()
    assert once == again == raw


def test_config_drops_empty_sections():
    cfg = ExperimentConfig.from_dict({"model": "affine-oracle", "grid": {}})
    assert cfg.to_dict() == {"model": "affine-oracle"}
    assert cfg.master_seed() == 0
    assert cfg.master_seed(9) == 9
    assert cfg.output_dir() == "fastslow-out"


def test_config_expressions_model():
    cfg = ExperimentConfig.from_dict(
        {
            "expressions": {
                "c": "y - 2*x",
                "sigma": "1",
                "f": "x - y",
                "tau": "sqrt(2)",
            }
        }
    )
    model = cfg.coefficient_set()
    assert model.name == "custom"
    assert model.c(1.0, 3.0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "raw,fragment",
    [
        ({"model": "affine-oracle", "mystery": 1}, "unknown config keys"),
        ({}, "exactly one"),
        (
            {
                "model": "affine-oracle",
                "expressions": {"c": "x", "sigma": "1", "f": "-y", "tau": "1"},
            },
            "exactly one",
        ),
        (
            {"expressions": {"c": "x", "sigma": "1", "f": "-y"}},
            "missing coefficients",
        ),
        (
            {"model": "affine-oracle", "regime": {"epsilon": 0.0, "eta": 0.1, "T": 1.0}},
            "regime.epsilon",
        ),
        (
            {"model": "affine-oracle", "regime": {"epsilon": 0.1, "eta": 0.1, "T": -1.0}},
            "regime.T",
        ),
        (
            {
                "model": "affine-oracle",
                "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0, "gamma": -2.0},
            },
            "regime.gamma",
        ),
        # The step is grid.dt_eta_fraction of eta for every command.
        (
            {
                "model": "affine-oracle",
                "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
                "grid": {"dt": 0.005},
            },
            r"unknown grid keys: \['dt'\]",
        ),
        (
            {"expressions": {"c": "x +* y", "sigma": "1", "f": "-y", "tau": "1"}},
            "expressions: coefficient 'c': could not parse",
        ),
        ({"model": "affine-oracle", "sweep": {"epsilons": []}}, "non-empty"),
        (
            {"model": "affine-oracle", "sweep": {"epsilons": [0.1, 0.1]}},
            "strictly decreasing",
        ),
        (
            {"model": "affine-oracle", "sweep": {"epsilons": [0.1, -0.05]}},
            "positive",
        ),
        (
            {
                "model": "affine-oracle",
                "sweep": {"epsilons": [0.1, 0.05], "eta_rule": "linked"},
            },
            "eta_rule",
        ),
        ({"model": "affine-oracle", "analysis": {"zeta": 0.5}}, "zeta"),
        ({"model": "affine-oracle", "analysis": {"p": [0]}}, "positive integers"),
        ({"model": "affine-oracle", "grid": {"n_paths": 0}}, "positive integer"),
        ({"model": "affine-oracle", "grid": {"ny": 2.5}}, "positive integer"),
        ({"model": "affine-oracle", "analysis": {"bootstrap": 0}}, "analysis.bootstrap"),
        ({"model": "affine-oracle", "analysis": {"p": [1, 3]}}, r"1 or 2 \(got 3\)"),
        (
            {
                "model": "affine-oracle",
                "sweep": {"epsilons": [0.1]},
                "analysis": {"decay_separations": []},
            },
            "decay_separations / decay_bounds: separations_eta must not be empty",
        ),
        (
            {
                "model": "affine-oracle",
                "sweep": {"epsilons": [0.1]},
                "analysis": {"decay_separations": [1.0, "nan"]},
            },
            "separations_eta value nan is not a finite number",
        ),
        (
            {
                "model": "affine-oracle",
                "sweep": {"epsilons": [0.1]},
                "analysis": {"decay_bounds": ["d2x_w1w1"]},
            },
            "no separation structure for bound 'd2x_w1w1'",
        ),
        ("not a dict", "must be an object"),
        # Non-numeric values: ConfigError naming the key, not a bare
        # ValueError from int() or TypeError from a comparison.
        (
            {"model": "affine-oracle", "grid": {"n_paths": "many"}},
            "grid.n_paths must be a number",
        ),
        (
            {"model": "affine-oracle", "analysis": {"bootstrap": "x"}},
            "analysis.bootstrap must be a number",
        ),
        (
            {"model": "affine-oracle", "analysis": {"zeta": "x"}},
            "analysis.zeta must be a number",
        ),
        (
            {"model": "affine-oracle", "regime": {"epsilon": "a", "eta": 0.1, "T": 1.0}},
            "regime.epsilon must be a number",
        ),
        (
            {"model": "affine-oracle", "sweep": {"epsilons": [0.1], "T": 0.0}},
            r"sweep.T must be positive \(got 0.0\)",
        ),
        (
            {"model": "affine-oracle", "sweep": {"epsilons": [0.1], "gamma": -1.0}},
            r"sweep.gamma must be positive \(got -1.0\)",
        ),
        # A key no command reads is rejected by name inside each section,
        # so a misspelt grid.n_paths does not silently run the default.
        ({"model": "affine-oracle", "grid": {"n_path": 5}}, r"unknown grid keys: \['n_path'\]"),
        ({"model": "affine-oracle", "grid": {"r_grid": 8}}, r"unknown grid keys: \['r_grid'\]"),
        (
            {"expressions": {"c": "x", "sigma": "1", "f": "-y", "tau": "1", "d1_c": "1"}},
            r"unknown expressions keys: \['d1_c'\]",
        ),
        (
            {
                "model": "affine-oracle",
                "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0, "Tmax": 2},
            },
            r"unknown regime keys: \['Tmax'\]",
        ),
        ({"model": "affine-oracle", "sweep": {"epsilons": [0.1], "eta": 0.1}}, "unknown sweep keys"),
        ({"model": "affine-oracle", "analysis": {"bootstraps": 50}}, "unknown analysis keys"),
        ({"model": "affine-oracle", "io": {"seed": 3}}, r"unknown io keys: \['seed'\]"),
        (
            {"model": "no-such-model"},
            r"unknown model 'no-such-model'; built-ins: affine-oracle, bounded-coupled",
        ),
        ({"model": 5}, r"model must be the name of a built-in \(got 5\)"),
    ],
)
def test_config_rejections(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(raw)


def test_config_missing_sections_raise_on_access():
    cfg = ExperimentConfig.from_dict({"model": "affine-oracle"})
    with pytest.raises(ConfigError, match="'regime'"):
        cfg.scale_regime()
    with pytest.raises(ConfigError, match="'sweep'"):
        cfg.sweep_regimes()


def test_config_sweep_regimes_tie_eta_to_epsilon():
    cfg = ExperimentConfig.from_dict(
        {"model": "affine-oracle", "sweep": {"epsilons": [0.2, 0.1], "T": 0.5}}
    )
    regimes = cfg.sweep_regimes()
    assert [(r.epsilon, r.eta, r.gamma, r.T) for r in regimes] == [
        (0.2, 0.2, 1.0, 0.5),
        (0.1, 0.1, 1.0, 0.5),
    ]


# -- argument and file errors -----------------------------------------


def test_main_usage_errors(tmp_path):
    cfg = _write_config(tmp_path, {"model": "affine-oracle"})
    assert main(["frobnicate", "--config", cfg]) == EXIT_USAGE
    assert main(["bound-eval"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_main_missing_config_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["bound-eval", "--config", missing]) == EXIT_IO


def test_main_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json", encoding="utf-8")
    assert main(["bound-eval", "--config", str(path)]) == EXIT_USAGE


def test_main_invalid_config_schema(tmp_path):
    cfg = _write_config(tmp_path, {"model": "affine-oracle", "bogus": True})
    assert main(["bound-eval", "--config", cfg]) == EXIT_USAGE


def test_main_non_numeric_config_value_is_a_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {"model": "affine-oracle", "grid": {"n_paths": "many"}})
    assert main(["check-assumptions", "--config", cfg]) == EXIT_USAGE


@pytest.mark.parametrize(
    "section, key",
    [
        ("analysis", "K"),
        ("analysis", "C1"),
        ("analysis", "C2"),
        ("grid", "x0"),
        ("grid", "y0"),
        ("sweep", "T"),
        ("sweep", "gamma"),
    ],
)
def test_main_non_numeric_value_is_named_at_parse_time(tmp_path, capsys, section, key):
    """A value that reaches float() or a comparison only when a command
    runs is checked when the config is parsed: exit 64 naming the key,
    before the output directory is made."""
    out = tmp_path / "out"
    raw = {"model": "affine-oracle", "sweep": {"epsilons": [0.1]}, "io": {"output_dir": str(out)}}
    raw.setdefault(section, {})[key] = "x"
    cfg = _write_config(tmp_path, raw)
    assert main(["bound-eval", "--config", cfg]) == EXIT_USAGE
    assert f"{section}.{key} must be a number (got 'x')" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("x_range", 5, "grid.x_range must be a pair [lo, hi] (got 5)"),
        ("x_range", [1, "a"], "grid.x_range must be a number (got 'a')"),
        ("x_range", [2, 1], "grid.x_range must be finite with lo < hi (got [2, 1])"),
        ("y_range", [0, 1, 2], "grid.y_range must be a pair [lo, hi] (got [0, 1, 2])"),
        ("y_range", [0, math.inf], "grid.y_range must be finite with lo < hi (got [0, inf])"),
    ],
)
def test_main_grid_range_is_checked_at_parse_time(tmp_path, capsys, key, value, message):
    """grid.x_range and grid.y_range must each be a pair of finite numbers
    with lo < hi: anything else fails with exit 64 naming the key, before
    the output directory is made, instead of a TypeError traceback from
    the assumption grid."""
    out = tmp_path / "out"
    raw = {"model": "affine-oracle", "grid": {key: value}, "io": {"output_dir": str(out)}}
    cfg = _write_config(tmp_path, raw)
    assert main(["check-assumptions", "--config", cfg]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "seed, message",
    [
        ("x", "io.master_seed must be a number (got 'x')"),
        (1.5, "io.master_seed must be a non-negative integer (got 1.5)"),
        (True, "io.master_seed must be a number (got True)"),
        (-1, "io.master_seed must be a non-negative integer (got -1)"),
    ],
)
def test_main_master_seed_is_checked_at_parse_time(tmp_path, capsys, seed, message):
    """io.master_seed must be a non-negative integer: a string is not left
    to int() (a traceback), 1.5 and true do not run as seed 1, and -1 is
    not left to the stream keys (exit 2).  Each fails with exit 64 naming
    the key, before the output directory is made."""
    out = tmp_path / "out"
    raw = {
        "model": "affine-oracle",
        "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
        "io": {"output_dir": str(out), "master_seed": seed},
    }
    assert main(["bound-eval", "--config", _write_config(tmp_path, raw)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_main_negative_seed_option_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {
        "model": "affine-oracle",
        "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
        "io": {"output_dir": str(out)},
    }
    cfg = _write_config(tmp_path, raw)
    assert main(["bound-eval", "--config", cfg, "--seed", "-1"]) == EXIT_USAGE
    assert "--seed must be a non-negative integer (got -1)" in capsys.readouterr().err
    assert not out.exists()
    assert main(["bound-eval", "--config", cfg, "--seed", "0"]) == EXIT_PASS
    assert _read_json(out, "run_manifest.json")["seed"] == 0


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("checkpoints", 5, "grid.checkpoints must be a non-empty list of times (got 5)"),
        ("checkpoints", [], "grid.checkpoints must be a non-empty list of times (got [])"),
        ("checkpoints", [0.1, "a"], "grid.checkpoints must be a number (got 'a')"),
        ("checkpoints", [0.1, math.inf], "grid.checkpoints must be finite (got inf)"),
        ("dt_eta_fraction", "x", "grid.dt_eta_fraction must be a number (got 'x')"),
        ("dt_eta_fraction", 0.1, "grid.dt_eta_fraction must lie in (0, 1/20] (got 0.1)"),
        ("dt_eta_fraction", 0, "grid.dt_eta_fraction must lie in (0, 1/20] (got 0)"),
    ],
)
def test_main_grid_times_are_checked_at_parse_time(tmp_path, capsys, key, value, message):
    """grid.checkpoints must be a non-empty list of finite numbers and
    grid.dt_eta_fraction a number in (0, 1/20]: exit 64 naming the key,
    before the output directory is made, instead of a TypeError
    traceback in clt-verify or a late failure in rate-sweep."""
    out = tmp_path / "out"
    raw = {
        "model": "affine-oracle",
        "sweep": {"epsilons": [0.16, 0.08, 0.04], "T": 0.3},
        "grid": {key: value},
        "io": {"output_dir": str(out)},
    }
    assert main(["rate-sweep", "--config", _write_config(tmp_path, raw)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "p, message",
    [
        (2, "analysis.p must be a list of moment orders (got 2)"),
        ([True], "analysis.p entries must be the positive integers 1 or 2 (got True)"),
    ],
)
def test_main_analysis_p_must_be_a_list_of_orders(tmp_path, capsys, p, message):
    """analysis.p is a list of the integers 1 and 2: a bare number is not
    iterated into a TypeError (exit 1), and a bool is not taken for 1."""
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
            "analysis": {"p": p},
            "io": {"output_dir": str(tmp_path / "out")},
        },
    )
    assert main(["bound-eval", "--config", cfg]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["malliavin-sweep", "check-assumptions"])
def test_main_empty_analysis_p_is_a_usage_error(tmp_path, capsys, command):
    """An empty analysis.p is rejected when the config is parsed (exit 64,
    nothing written) instead of indexing the first order in malliavin-sweep
    or writing no data artifact in check-assumptions."""
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.2, 0.1], "T": 1.0},
            "grid": {"n_paths": 10},
            "analysis": {"p": [], "decay_separations": [1.0]},
            "io": {"output_dir": str(out)},
        },
    )
    assert main([command, "--config", cfg]) == EXIT_USAGE
    assert "analysis.p must not be empty" in capsys.readouterr().err
    assert not out.exists()


REGIME = {"epsilon": 0.1, "eta": 0.1, "T": 1.0}
SWEEP = {"epsilons": [0.16, 0.08, 0.04], "T": 0.3}


@pytest.mark.parametrize(
    "command, given, key",
    [
        ("clt-verify", {"regime": REGIME, "analysis": {"p": [1]}}, "analysis.p"),
        ("rate-sweep", {"sweep": SWEEP, "grid": {"checkpoints": [0.3]}}, "grid.checkpoints"),
        ("malliavin-sweep", {"sweep": SWEEP, "grid": {"nx": 9}}, "grid.nx"),
        ("check-assumptions", {"regime": REGIME}, "regime"),
        ("homogenize", {"grid": {"n_paths": 10}}, "grid.n_paths"),
        ("bound-eval", {"regime": REGIME, "grid": {"n_paths": 10}}, "grid.n_paths"),
        ("bound-eval", {"regime": REGIME, "sweep": SWEEP}, "sweep"),
    ],
)
def test_main_key_the_command_does_not_read_is_a_usage_error(
    tmp_path, capsys, command, given, key
):
    """A key or section the command does not read fails with exit 64
    naming it, before the output directory is made, instead of running
    as if it were absent."""
    out = tmp_path / "out"
    raw = {"model": "affine-oracle", **given, "io": {"output_dir": str(out)}}
    assert main([command, "--config", _write_config(tmp_path, raw)]) == EXIT_USAGE
    assert f"keys {command} does not read: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-assumptions", "bound-eval"])
def test_main_bad_expression_is_a_usage_error(tmp_path, capsys, command):
    """An expression that does not parse fails with exit 64 naming the
    coefficient when the config is parsed, also for bound-eval, which
    builds no model, and writes nothing."""
    out = tmp_path / "out"
    raw = {
        "expressions": {"c": "x +* y", "sigma": "1", "f": "-y", "tau": "1"},
        **({"regime": REGIME} if command == "bound-eval" else {}),
        "io": {"output_dir": str(out)},
    }
    assert main([command, "--config", _write_config(tmp_path, raw)]) == EXIT_USAGE
    assert "expressions: coefficient 'c': could not parse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli_mod._DISPATCH))
def test_main_unknown_model_is_a_usage_error(tmp_path, capsys, command):
    """An unknown built-in model name fails with exit 64 naming it and the
    built-ins when the config is parsed, and writes nothing: also for
    bound-eval, which builds no model and once wrote its table."""
    out = tmp_path / "out"
    section = {
        "check-assumptions": {},
        "malliavin-sweep": {"sweep": {"epsilons": [0.1, 0.05, 0.025]}},
        "rate-sweep": {"sweep": {"epsilons": [0.1, 0.05, 0.025]}},
    }.get(command, {"regime": REGIME})
    raw = {"model": "no-such-model", **section, "io": {"output_dir": str(out)}}
    assert main([command, "--config", _write_config(tmp_path, raw)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown model 'no-such-model'; built-ins: affine-oracle, bounded-coupled" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "model",
    [
        {"model": "bounded-coupled"},
        {"expressions": {"c": "y - 2*x", "sigma": "1", "f": "x - y", "tau": "sqrt(2)"}},
    ],
)
def test_main_builds_the_model_once(tmp_path, monkeypatch, model):
    """A CLI run builds its model once, when the config is validated, and
    the command reads that one: one get_model or model_from_expressions
    call per run."""
    built = []
    for name in ("get_model", "model_from_expressions"):
        real = getattr(cli_mod, name)

        def counted(*args, real=real):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(cli_mod, name, counted)
    cfg = _write_config(tmp_path, {**model, "io": {"output_dir": str(tmp_path / "out")}})
    assert main(["check-assumptions", "--config", cfg]) in (EXIT_PASS, EXIT_WARNINGS)
    assert built == [model.get("model", "custom")]


def test_main_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
            "io": {"output_dir": str(blocker / "out")},
        },
    )
    assert main(["bound-eval", "--config", cfg]) == EXIT_IO


# -- bound-eval -------------------------------------------------------


def test_bound_eval_frozen_value_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "regime": {"epsilon": 0.01, "eta": 0.01, "gamma": 1.0, "T": 1.0},
            "analysis": {"zeta": 0.1, "K": 1.0},
            "io": {"output_dir": str(out), "master_seed": 5},
        },
    )
    assert main(["bound-eval", "--config", cfg]) == EXIT_PASS

    payload = _read_json(out, "bound_eval.json")
    assert payload["model"] == "affine-oracle"
    assert payload["K"] == 1.0 and payload["zeta"] == 0.1
    row = payload["table"][0]
    assert row["epsilon"] == 0.01 and row["eta"] == 0.01
    assert row["bound"] == pytest.approx(1.5857506108320298, rel=1e-12)
    assert set(row["terms"]) == {"bracket1", "bracket2", "regime_drift_negative"}

    header, rows = _csv_rows(out, "bound_eval.csv")
    assert header == "epsilon,eta,gamma,T,zeta,K,C1,C2,bound"
    assert len(rows) == 1
    assert float(rows[0][-1]) == pytest.approx(1.5857506108320298, rel=1e-12)

    manifest = _read_json(out, "run_manifest.json")
    assert manifest["command"] == "bound-eval"
    assert manifest["exit_code"] == EXIT_PASS
    assert manifest["seed"] == 5
    assert len(manifest["config_hash"]) == 64
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "fastslow"}
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["setup_s"] >= 0.0


def test_bound_eval_sweep_table_and_default_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.16, 0.08, 0.04], "gamma": 1.0, "T": 1.0},
            "analysis": {"zeta": 0.1, "K": 1.0},
        },
    )
    assert main(["bound-eval", "--config", cfg]) == EXIT_PASS
    out = tmp_path / "fastslow-out"
    payload = _read_json(out, "bound_eval.json")
    bounds = [row["bound"] for row in payload["table"]]
    assert len(bounds) == 3
    # The envelope shrinks monotonically along the sweep.
    assert bounds[0] > bounds[1] > bounds[2] > 0.0
    header, rows = _csv_rows(out, "bound_eval.csv")
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == [0.16, 0.08, 0.04]


# -- check-assumptions ------------------------------------------------


def test_check_assumptions_affine_passes(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "analysis": {"p": [1, 2]},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["check-assumptions", "--config", cfg]) == EXIT_PASS
    for p in (1, 2):
        payload = _read_json(out, f"assumptions_p{p}.json")
        assert payload["passes"] is True
        assert payload["p"] == p
        assert payload["M_hat"] == pytest.approx(1.0)
        assert payload["K_hat"] == pytest.approx(1.0)


def test_check_assumptions_failing_model(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "expressions": {"c": "y", "sigma": "1", "f": "y", "tau": "sqrt(2)"},
            "analysis": {"p": [1]},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["check-assumptions", "--config", cfg]) == EXIT_ASSERTION
    payload = _read_json(out, "assumptions_p1.json")
    assert payload["passes"] is False
    assert payload["K_hat"] <= 0.0


# -- homogenize -------------------------------------------------------


def test_homogenize_affine_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "regime": {"epsilon": 0.05, "eta": 0.05, "gamma": 1.0, "T": 0.2},
            "grid": {"nx": 9, "ny": 4096, "x_range": [-3.0, 3.0]},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["homogenize", "--config", cfg]) == EXIT_PASS

    header, rows = _csv_rows(out, "homogenized_summary.csv")
    assert header == "x,c_bar,q_bar"
    assert len(rows) == 9
    for x_txt, c_txt, q_txt in rows:
        assert float(c_txt) == pytest.approx(-float(x_txt), abs=1e-5)
        assert float(q_txt) == pytest.approx(3.0, abs=1e-4)

    header, rows = _csv_rows(out, "homogenized_detail.csv")
    assert header == "x,y,m,phi,dy_phi"
    assert len(rows) == 9 * 4096

    payload = _read_json(out, "homogenize.json")
    assert payload["model"] == "affine-oracle"
    assert payload["gamma"] == 1.0
    assert payload["warnings"] == []
    assert (out / "run_manifest.json").exists()


def test_homogenize_csvs_hold_every_node_of_the_model(tmp_path):
    """Each line of both homogenize CSVs is the repr of the floats that
    build_homogenized gives on the same grid: x-major, then y, in the
    detail file, one line per x in the summary, each file ending in one
    newline."""
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "bounded-coupled",
            "regime": {"epsilon": 0.05, "eta": 0.05, "gamma": 1.0, "T": 0.2},
            "grid": {"nx": 3, "ny": 256, "x_range": [-1.0, 1.0]},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["homogenize", "--config", cfg]) == EXIT_PASS
    hom = build_homogenized(get_model("bounded-coupled"), (-1.0, 1.0), 3, 256, 1.0)
    nodes = [a.tolist() for a in (hom.y_grid, hom.density, hom.phi, hom.dy_phi)]
    detail = ["x,y,m,phi,dy_phi"] + [
        ",".join(repr(v) for v in (x, *(a[i][j] for a in nodes)))
        for i, x in enumerate(hom.x_grid.tolist())
        for j in range(256)
    ]
    summary = ["x,c_bar,q_bar"] + [
        f"{x!r},{c!r},{q!r}"
        for x, c, q in zip(hom.x_grid.tolist(), hom.c_bar.tolist(), hom.q_bar.tolist())
    ]
    assert len(detail) == 1 + 3 * 256 and len(summary) == 1 + 3
    for name, lines in (("homogenized_detail.csv", detail), ("homogenized_summary.csv", summary)):
        assert _read_bytes(out, name).decode("utf-8") == "\n".join(lines) + "\n", name


def test_homogenize_custom_expressions(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "expressions": {
                "c": "y - 2*x",
                "sigma": "1",
                "f": "x - y",
                "tau": "sqrt(2)",
            },
            "grid": {"nx": 5, "ny": 2048},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["homogenize", "--config", cfg]) == EXIT_PASS
    payload = _read_json(out, "homogenize.json")
    assert payload["model"] == "custom"
    # No regime section: the corrector variance defaults to gamma = inf,
    # so q_bar collapses to the averaged sigma^2 = 1.
    assert payload["gamma"] is None
    _, rows = _csv_rows(out, "homogenized_summary.csv")
    for _, c_txt, q_txt in rows:
        assert float(q_txt) == pytest.approx(1.0, abs=1e-4)


# -- clt-verify -------------------------------------------------------


def _clt_config(tmp_path, out_name, seed=3, fraction=0.05):
    out = tmp_path / out_name
    return out, _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "regime": {"epsilon": 0.05, "eta": 0.05, "gamma": 1.0, "T": 0.2},
            "grid": {
                "dt_eta_fraction": fraction,
                "n_paths": 200,
                "nx": 17,
                "ny": 2048,
                "x0": 0.0,
                "y0": 0.0,
            },
            "analysis": {"bootstrap": 50},
            "io": {"output_dir": str(out), "master_seed": seed},
        },
        name=f"{out_name}.json",
    )


def test_dead_worker_is_a_software_error(tmp_path, capsys, monkeypatch, force_workers):
    """A forked worker that exits before it reports ends the run with exit
    70 (EX_SOFTWARE) and a one-line message naming its share and exit
    code, not a traceback, and writes no manifest."""
    force_workers(2)
    share_worker = sde_engine._share_worker

    def dying(run, share, send):
        if share.start > 0:
            os._exit(9)
        share_worker(run, share, send)

    monkeypatch.setattr(sde_engine, "_share_worker", dying)
    out, cfg = _clt_config(tmp_path, "clt-dead")
    assert main(["clt-verify", "--config", cfg]) == EXIT_SOFTWARE
    assert capsys.readouterr().err == (
        "fastslow: RuntimeError: the worker of paths 100..199 exited with code 9 "
        "before it reported\n"
    )
    assert not (out / "run_manifest.json").exists()


def test_clt_verify_artifacts(tmp_path):
    out, cfg = _clt_config(tmp_path, "clt-a")
    assert main(["clt-verify", "--config", cfg]) == EXIT_PASS

    payload = _read_json(out, "clt_verify.json")
    assert payload["model"] == "affine-oracle"
    assert payload["warnings"] == []
    # On gamma = 1 the drift is 0 and the scaling quotient is inf, written null.
    assert payload["regime"] == {
        "epsilon": 0.05,
        "eta": 0.05,
        "gamma": 1.0,
        "T": 0.2,
        "regime_drift": 0.0,
        "scaling_quotient": None,
    }
    assert payload["rate"] is None and payload["bound"] == []
    checkpoints = payload["checkpoints"]
    assert [c["t"] for c in checkpoints] == pytest.approx([0.05, 0.1, 0.2])
    for c in checkpoints:
        assert set(c) == {"t", "w1", "ci_lo", "ci_hi", "mean_gap", "sd_gap"}
        assert 0.0 <= c["ci_lo"] <= c["w1"] <= c["ci_hi"]

    header, rows = _csv_rows(out, "clt_checkpoints.csv")
    assert header == "t,w1,ci_lo,ci_hi,mean_gap,sd_gap"
    assert len(rows) == 3
    assert [float(r[1]) for r in rows] == [c["w1"] for c in checkpoints]


def test_clt_verify_manifest_counts_the_workers(tmp_path, monkeypatch):
    """With the simulation forced onto two forked workers, clt-verify writes
    the data of the serial run, and its manifest reports the peak memory
    of this process and of its largest worker: 0 for the serial run,
    which forks none.  The children's peak of this process never falls,
    so a run here can read 0 whenever an earlier test's worker outgrew
    this one's; the forked run's workers are read more than 0 in a new
    interpreter, as the command runs."""
    import multiprocessing
    import subprocess
    import sys

    import fastslow.sde_engine as sde_engine

    serial_out, serial_cfg = _clt_config(tmp_path, "clt-serial")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["clt-verify", "--config", serial_cfg]) == EXIT_PASS
    peak = _read_json(serial_out, "run_manifest.json")["peak_rss_mb"]
    assert peak["process"] > 0 and peak["workers"] == 0

    started = []
    context = multiprocessing.get_context("fork")

    class Counted(context.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(context, "Process", Counted)
    monkeypatch.setattr(sde_engine, "_PARALLEL_MIN_PATH_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out, cfg = _clt_config(tmp_path, "clt-workers")
    assert main(["clt-verify", "--config", cfg]) == EXIT_PASS
    assert len(started) == 2
    for name in ("clt_verify.json", "clt_checkpoints.csv"):
        assert _read_bytes(out, name) == _read_bytes(serial_out, name), name
    assert set(_read_json(out, "run_manifest.json")["peak_rss_mb"]) == {"process", "workers"}

    forked = (
        "import os, sys\n"
        "import fastslow.sde_engine as sde_engine\n"
        "from fastslow.cli import main\n"
        "sde_engine._PARALLEL_MIN_PATH_STEPS = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    new_out, new_cfg = _clt_config(tmp_path, "clt-new-process")
    run = subprocess.run(
        [sys.executable, "-c", forked, "clt-verify", "--config", new_cfg], timeout=300
    )
    assert run.returncode == EXIT_PASS
    assert _read_bytes(new_out, "clt_verify.json") == _read_bytes(serial_out, "clt_verify.json")
    manifest = _read_json(new_out, "run_manifest.json")
    assert manifest["peak_rss_mb"]["process"] > 0 and manifest["peak_rss_mb"]["workers"] > 0
    # A new interpreter imports the package, so set-up takes measurable time.
    assert manifest["setup_s"] > 0.0


def test_bound_eval_manifest_reads_no_workers(tmp_path):
    """bound-eval forks no worker, so its manifest reads 0 for the workers,
    although a child that this process waited for before the run left its
    children's peak above 0."""
    import multiprocessing
    import resource

    child = multiprocessing.get_context("fork").Process(target=int)
    child.start()
    child.join()
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0
    out = tmp_path / "out"
    raw = {
        "model": "affine-oracle",
        "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
        "io": {"output_dir": str(out)},
    }
    assert main(["bound-eval", "--config", _write_config(tmp_path, raw)]) == EXIT_PASS
    peak = _read_json(out, "run_manifest.json")["peak_rss_mb"]
    assert peak["process"] > 0 and peak["workers"] == 0


def test_clt_verify_byte_identical_reruns_and_threads(tmp_path):
    out_a, cfg_a = _clt_config(tmp_path, "clt-b1")
    out_b, cfg_b = _clt_config(tmp_path, "clt-b2")
    out_c, cfg_c = _clt_config(tmp_path, "clt-b3")

    assert main(["clt-verify", "--config", cfg_a]) == EXIT_PASS
    assert main(["clt-verify", "--config", cfg_b]) == EXIT_PASS
    # --threads is not an option
    assert main(["clt-verify", "--config", cfg_c, "--threads", "4"]) == EXIT_USAGE

    for name in ("clt_verify.json", "clt_checkpoints.csv"):
        baseline = _read_bytes(out_a, name)
        assert _read_bytes(out_b, name) == baseline


def test_clt_verify_seed_changes_data(tmp_path):
    out_a, cfg_a = _clt_config(tmp_path, "clt-c1", seed=3)
    out_b, cfg_b = _clt_config(tmp_path, "clt-c2", seed=3)
    assert main(["clt-verify", "--config", cfg_a]) == EXIT_PASS
    assert main(["clt-verify", "--config", cfg_b, "--seed", "4"]) == EXIT_PASS
    assert _read_bytes(out_a, "clt_checkpoints.csv") != _read_bytes(
        out_b, "clt_checkpoints.csv"
    )
    assert _read_json(out_b, "run_manifest.json")["seed"] == 4


def test_clt_verify_reads_the_step_fraction(tmp_path):
    """clt-verify steps at grid.dt_eta_fraction of eta, as the sweeps do:
    its checkpoints equal those of clt_verify run in process at that
    step, and differ from those at the default 1/20."""
    out_fine, cfg_fine = _clt_config(tmp_path, "clt-fine", fraction=0.025)
    out_default, cfg_default = _clt_config(tmp_path, "clt-default")
    assert main(["clt-verify", "--config", cfg_fine]) == EXIT_PASS
    assert main(["clt-verify", "--config", cfg_default]) == EXIT_PASS

    model = get_model("affine-oracle")
    regime = ScaleRegime(0.05, 0.05, 1.0, 0.2)
    reports = clt_verify(
        model, regime, 0.0, 0.0, dt=0.05 * 0.025, n_paths=200, seed=3, n_boot=50,
        hom=build_homogenized(model, (-3.0, 3.0), 17, 2048, 1.0),
    )
    fine = _read_json(out_fine, "clt_verify.json")["checkpoints"]
    assert fine == [r.to_dict() for r in reports]
    assert fine != _read_json(out_default, "clt_verify.json")["checkpoints"]


def _underflow_config(tmp_path, out_name, section):
    """A model whose fast density underflows on the left of its y-window
    (f = exp(-y) - 1 has a double-exponential left tail), so every
    homogenization x-node records a boundary warning."""
    out = tmp_path / out_name
    return out, _write_config(
        tmp_path,
        {
            "expressions": {
                "c": "-x + 0.5*sin(y)",
                "sigma": "1",
                "f": "exp(-y) - 1",
                "tau": "1",
            },
            **section,
            "grid": {"n_paths": 200, "x_range": [-1.0, 1.0], "nx": 9, "ny": 1024},
            "analysis": {"bootstrap": 50},
            "io": {"output_dir": str(out), "master_seed": 6},
        },
        name=f"{out_name}.json",
    )


@pytest.mark.parametrize(
    "command, section, artifact",
    [
        (
            "clt-verify",
            {"regime": {"epsilon": 0.05, "eta": 0.05, "gamma": 1.0, "T": 0.2}},
            "clt_verify.json",
        ),
        (
            "rate-sweep",
            {"sweep": {"epsilons": [0.16, 0.08, 0.04], "gamma": 1.0, "T": 0.3}},
            "rate_sweep.json",
        ),
    ],
)
def test_homogenization_warnings_are_reported(tmp_path, command, section, artifact):
    out, cfg = _underflow_config(tmp_path, command, section)
    code = main([command, "--config", cfg])
    payload = _read_json(out, artifact)
    assert len(payload["warnings"]) == 9
    assert all("density underflow" in w for w in payload["warnings"])
    # A point above its envelope still fails the run; clt-verify has none.
    over = [
        pt["w1"] > bound * (1.0 + 1e-9)
        for pt, bound in zip(payload.get("points", []), payload["bound"])
    ]
    assert code == (EXIT_ASSERTION if any(over) else EXIT_WARNINGS)
    assert _read_json(out, "run_manifest.json")["exit_code"] == code


# -- malliavin-sweep --------------------------------------------------


def test_malliavin_sweep_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 0.25},
            "grid": {"n_paths": 60},
            "analysis": {
                "p": [1],
                "decay_separations": [1.0, 2.0],
                "decay_bounds": ["d2x_w1w2"],
            },
            "io": {"output_dir": str(out), "master_seed": 2},
        },
    )
    code = main(["malliavin-sweep", "--config", cfg])

    payload = _read_json(out, "moments_p1.json")
    assert set(payload) == set(BOUND_IDS)
    for bid, report in payload.items():
        assert report["bound_id"] == bid
        assert report["p"] == 1
        assert [pt["epsilon"] for pt in report["points"]] == [0.1, 0.05]
        for pt in report["points"]:
            assert pt["stderr"] >= 0.0 and pt["envelope"] > 0.0

    # Affine tangents are deterministic, so the W1 slow moment equals
    # eps exactly and the anchored envelope is met at both points.
    dw1 = payload["dw1_x_sup"]
    assert [pt["empirical"] for pt in dw1["points"]] == pytest.approx([0.1, 0.05])
    assert dw1["passes"] is True
    # Second tangents vanish identically for affine coefficients.
    for bid in ("d2x_w1w1", "d2x_w1w2", "d2x_w2w2"):
        assert payload[bid]["C_fit"] == 0.0
        assert payload[bid]["passes"] is True

    decay = _read_json(out, "decay.json")
    assert set(decay) == {"d2x_w1w2"}
    report = decay["d2x_w1w2"]
    assert report["separations"] == [1.0, 2.0]
    assert report["empirical"] == [0.0, 0.0]
    assert report["monotone_within_noise"] is True

    # The exit code mirrors the recorded pass/warning flags.
    all_pass = all(rep["passes"] for rep in payload.values())
    all_pass = all_pass and report["monotone_within_noise"]
    any_warn = any(rep["warnings"] for rep in payload.values())
    if not all_pass:
        assert code == EXIT_ASSERTION
    elif any_warn:
        assert code == EXIT_WARNINGS
    else:
        assert code == EXIT_PASS


def test_malliavin_sweep_reads_the_grid_start(tmp_path):
    """malliavin-sweep starts its paths at grid.x0, grid.y0: the moments
    and the decay report it writes equal those of moment_sweep and
    decay_check run in process from that start."""
    out = tmp_path / "out"
    sweep = {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 0.25}
    cfg = _write_config(
        tmp_path,
        {
            "model": "bounded-coupled",
            "sweep": sweep,
            "grid": {"n_paths": 20, "x0": 0.4, "y0": 0.3},
            "analysis": {"p": [1], "decay_separations": [1.0, 2.0], "decay_bounds": ["d2x_w1w2"]},
            "io": {"output_dir": str(out), "master_seed": 2},
        },
    )
    main(["malliavin-sweep", "--config", cfg])

    def written(payload):
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    model = get_model("bounded-coupled")
    regimes = [ScaleRegime(e, e, 1.0, 0.25) for e in sweep["epsilons"]]
    reports = moment_sweep(model, regimes, 1, 20, seed=2, x0=0.4, y0=0.3)
    moments = {bid: rep.to_dict() for bid, rep in reports.items()}
    assert _read_bytes(out, "moments_p1.json") == written(moments)
    decay = decay_check(
        model, regimes[-1], "d2x_w1w2", 1, 20, 2, separations_eta=(1.0, 2.0), x0=0.4, y0=0.3
    )
    assert _read_bytes(out, "decay.json") == written({"d2x_w1w2": decay.to_dict()})


def test_malliavin_sweep_runs_one_pass_for_all_orders_and_bounds(tmp_path, monkeypatch):
    """malliavin-sweep at p = 1 and 2 with both default decay bounds calls
    _sweep_passes twice, once for the moment sweep of every order and
    once for the decay check of every bound, and writes what moment_sweep
    at each order and decay_check of each bound report."""
    calls = []
    sweep_passes = malliavin_mod._sweep_passes

    def counting(*args):
        calls.append(len(args[1]))
        return sweep_passes(*args)

    monkeypatch.setattr(malliavin_mod, "_sweep_passes", counting)
    out = tmp_path / "out"
    sweep = {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 0.25}
    cfg = _write_config(
        tmp_path,
        {
            "model": "bounded-coupled",
            "sweep": sweep,
            "grid": {"n_paths": 20},
            "analysis": {"p": [1, 2], "decay_separations": [1.0, 2.0]},
            "io": {"output_dir": str(out), "master_seed": 2},
        },
    )
    main(["malliavin-sweep", "--config", cfg])
    assert calls == [2, 1]

    def written(payload):
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    model = get_model("bounded-coupled")
    regimes = [ScaleRegime(e, e, 1.0, 0.25) for e in sweep["epsilons"]]
    for p in (1, 2):
        reports = moment_sweep(model, regimes, p, 20, seed=2)
        moments = {bid: rep.to_dict() for bid, rep in reports.items()}
        assert _read_bytes(out, f"moments_p{p}.json") == written(moments)
    decay = {
        bid: decay_check(model, regimes[-1], bid, 1, 20, 2, separations_eta=(1.0, 2.0)).to_dict()
        for bid in ("d2x_w1w2", "d2x_w2w2")
    }
    assert _read_bytes(out, "decay.json") == written(decay)


def test_malliavin_sweep_reads_the_step_fraction(tmp_path):
    """malliavin-sweep steps at grid.dt_eta_fraction of each eta: the
    moments and the decay report it writes equal those of moment_sweep
    and decay_check run in process at that fraction, and differ from
    those at the default 1/20."""
    out = tmp_path / "out"
    sweep = {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 0.25}
    cfg = _write_config(
        tmp_path,
        {
            "model": "bounded-coupled",
            "sweep": sweep,
            "grid": {"n_paths": 20, "x0": 0.4, "y0": 0.3, "dt_eta_fraction": 0.025},
            "analysis": {"p": [1], "decay_separations": [1.0, 2.0], "decay_bounds": ["d2x_w1w2"]},
            "io": {"output_dir": str(out), "master_seed": 2},
        },
    )
    main(["malliavin-sweep", "--config", cfg])

    def written(payload):
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    model = get_model("bounded-coupled")
    regimes = [ScaleRegime(e, e, 1.0, 0.25) for e in sweep["epsilons"]]
    start = dict(x0=0.4, y0=0.3)
    moments = {
        fraction: {
            bid: rep.to_dict()
            for bid, rep in moment_sweep(
                model, regimes, 1, 20, seed=2, dt_eta_fraction=fraction, **start
            ).items()
        }
        for fraction in (0.025, 0.05)
    }
    assert _read_bytes(out, "moments_p1.json") == written(moments[0.025])
    assert moments[0.025] != moments[0.05]
    decay = decay_check(
        model, regimes[-1], "d2x_w1w2", 1, 20, 2, separations_eta=(1.0, 2.0),
        dt_eta_fraction=0.025, **start,
    )
    assert _read_bytes(out, "decay.json") == written({"d2x_w1w2": decay.to_dict()})


@pytest.mark.parametrize(
    "analysis",
    [
        {"p": [1], "decay_separations": [1.0, -2.0]},
        # Fine when the config is parsed, but 12 eta reaches before t = 0
        # at the finest point: r1 = T/2 = 10 eta there.
        {"p": [1], "decay_separations": [1.0, 12.0]},
    ],
)
def test_malliavin_sweep_bad_decay_separation_writes_nothing(tmp_path, analysis):
    """A separation that decay_check would reject fails with exit 64
    before any artifact is written."""
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.1, 0.005], "gamma": 1.0, "T": 0.1},
            "grid": {"n_paths": 20},
            "analysis": analysis,
            "io": {"output_dir": str(out), "master_seed": 2},
        },
    )
    assert main(["malliavin-sweep", "--config", cfg]) == EXIT_USAGE
    assert not out.exists()


def test_decay_reach_is_checked_only_by_malliavin_sweep():
    """Whether a separation reaches before t = 0 depends on the sweep point
    that only malliavin-sweep uses, so other commands accept it."""
    raw = {
        "model": "affine-oracle",
        "sweep": {"epsilons": [0.2, 0.1], "T": 1.0},
        "analysis": {"decay_bounds": ["dw2_y_final", "d2x_w2w2"]},
    }
    config = ExperimentConfig.from_dict(raw)
    with pytest.raises(
        ConfigError, match=r"at eps=0\.1: separations_eta value 10\.0 exceeds r1 = T/2"
    ):
        config.decay_settings(config.sweep_regimes()[-1])


# -- rate-sweep -------------------------------------------------------


def _rate_config(tmp_path, out_name, seed=6):
    out = tmp_path / out_name
    return out, _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.16, 0.08, 0.04], "gamma": 1.0, "T": 0.3},
            "grid": {"n_paths": 200, "nx": 17, "ny": 2048},
            "analysis": {"bootstrap": 50, "K": 1.0, "zeta": 0.1},
            "io": {"output_dir": str(out), "master_seed": seed},
        },
        name=f"{out_name}.json",
    )


def test_rate_sweep_artifacts(tmp_path):
    out, cfg = _rate_config(tmp_path, "out")
    code = main(["rate-sweep", "--config", cfg])
    assert code in (EXIT_PASS, EXIT_WARNINGS)

    payload = _read_json(out, "rate_sweep.json")
    assert payload["model"] == "affine-oracle"
    assert payload["warnings"] == []
    assert payload["regime"] == {"gamma": 1.0, "T": 0.3, "eta_rule": "equal"}
    assert len(payload["checkpoints"]) == 3
    assert len(payload["points"]) == 3
    assert set(payload["rate"]) == {"slope", "intercept", "r2"}
    assert len(payload["bound"]) == 3
    # The envelope constant is anchored at the coarsest point.
    assert payload["bound"][0] == pytest.approx(payload["points"][0]["w1"], rel=1e-12)
    assert [pt["epsilon"] for pt in payload["points"]] == [0.16, 0.08, 0.04]
    for pt in payload["points"]:
        assert pt["regime_drift"] == 0.0 and pt["scaling_quotient"] is None

    header, rows = _csv_rows(out, "rate_points.csv")
    assert header == "epsilon,eta,w1,bound"
    assert [float(r[0]) for r in rows] == [0.16, 0.08, 0.04]
    for _, eta_txt, w1_txt, bound_txt in rows:
        assert float(w1_txt) <= float(bound_txt) * (1.0 + 1e-9)
    assert [float(r[2]) for r in rows] == [pt["w1"] for pt in payload["points"]]
    assert [float(r[3]) for r in rows] == payload["bound"]
    # Each bound is the envelope plus the point's Monte Carlo floor.
    assert len(payload["floor"]) == 3
    assert all(b > f > 0 for b, f in zip(payload["bound"], payload["floor"]))

    manifest = _read_json(out, "run_manifest.json")
    assert manifest["command"] == "rate-sweep"
    assert manifest["exit_code"] == code


def test_rate_sweep_on_workers_writes_the_serial_artifacts(
    tmp_path, force_workers, starts, all_joined
):
    """With its one simulation pass and its points' statistics forced
    onto two forked workers each, rate-sweep writes the data artifacts of
    the serial run byte for byte.  The workers return their results, so
    nothing an earlier run left in memory reaches the artifacts."""
    out, cfg = _rate_config(tmp_path, "rate-workers", seed=7)
    force_workers(2)
    code = main(["rate-sweep", "--config", cfg])
    assert code in (EXIT_PASS, EXIT_WARNINGS)
    assert len(starts) == 2 + 2  # the points' one pass, then statistics
    assert all_joined()

    serial_out, serial_cfg = _rate_config(tmp_path, "rate-serial", seed=7)
    force_workers(1)
    assert main(["rate-sweep", "--config", serial_cfg]) == code
    assert len(starts) == 2 + 2
    for name in ("rate_sweep.json", "rate_points.csv"):
        assert _read_bytes(out, name) == _read_bytes(serial_out, name), name


def test_regime_diagnostics_write_null_for_inf_or_none():
    off = _regime_diagnostics(ScaleRegime(epsilon=0.04, eta=0.01, gamma=1.0, T=1.0))
    assert off == {"regime_drift": 1.0, "scaling_quotient": pytest.approx(0.2)}
    inf = _regime_diagnostics(ScaleRegime(epsilon=0.04, eta=0.01, gamma=math.inf, T=1.0))
    assert inf == {"regime_drift": None, "scaling_quotient": pytest.approx(0.4)}


def test_rate_sweep_needs_three_points_before_any_work(tmp_path, capsys, monkeypatch):
    """rate-sweep with fewer than three sweep.epsilons is a usage error
    (exit 64) raised before the homogenization, with no data artifact;
    the config itself stays valid, as malliavin-sweep runs two points."""

    def not_reached(*args, **kwargs):
        raise AssertionError("homogenization started before the sweep was checked")

    monkeypatch.setattr(cli_mod, "build_homogenized", not_reached)
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.08, 0.04], "T": 0.3},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["rate-sweep", "--config", cfg]) == EXIT_USAGE
    message = "rate-sweep needs at least three sweep.epsilons (got [0.08, 0.04])"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section",
    [
        ("clt-verify", {"regime": {"epsilon": 0.1, "eta": 0.1, "T": 0.3}}),
        ("rate-sweep", {"sweep": {"epsilons": [0.16, 0.08, 0.04], "T": 0.3}}),
    ],
)
def test_w1_commands_reject_one_path_before_any_work(
    tmp_path, capsys, monkeypatch, command, section
):
    """clt-verify and rate-sweep with grid.n_paths 1, too few for a W1
    estimate, are a usage error (exit 64) raised before the
    homogenization, with no data artifact; the count itself is valid, as
    malliavin-sweep takes it."""

    def not_reached(*args, **kwargs):
        raise AssertionError("homogenization started before n_paths was checked")

    monkeypatch.setattr(cli_mod, "build_homogenized", not_reached)
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            **section,
            "grid": {"n_paths": 1},
            "io": {"output_dir": str(out)},
        },
    )
    assert main([command, "--config", cfg]) == EXIT_USAGE
    message = "grid.n_paths must be >= 2 for a W1 estimate (got 1)"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rate_sweep_requires_sweep_section(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "regime": {"epsilon": 0.1, "eta": 0.1, "T": 1.0},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["rate-sweep", "--config", cfg]) == EXIT_USAGE
    assert not out.exists()


def test_clt_verify_without_regime_writes_nothing(tmp_path, capsys):
    """A command whose section is missing fails with exit 64 and leaves
    no output directory: it is made at the first write."""
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.16, 0.08, 0.04], "T": 0.3},
            "io": {"output_dir": str(out)},
        },
    )
    assert main(["clt-verify", "--config", cfg]) == EXIT_USAGE
    assert "this command needs a 'regime' section" in capsys.readouterr().err
    assert not out.exists()
