"""The three scorecard workloads, their correctness gates and digests.

Each workload is the scorecard call of ``tests/test_acceptance.py``
(criteria 04, 05 and 09), driven through the library's public functions
so the scorecard start (x0, y0) = (0.4, 0.3) can be expressed.  A
workload's seeds are its scorecard seeds shifted by the benchmark's
``--seed``, so ``--seed 0`` uses the scorecard seeds.

This module imports ``fastslow`` only inside functions, so the child
process can time the import itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

#: Scorecard seeds per workload; the benchmark seed is added to each.
SCORECARD_SEEDS = {
    "clt_bounded": {"seed": 2024},
    "rate_sweep": {"seed": 77},
    "malliavin_sweep": {"moment_seed": 909, "decay_seed": 910},
}

#: Model each workload runs on.
MODELS = {
    "clt_bounded": "bounded-coupled",
    "rate_sweep": "affine-oracle",
    "malliavin_sweep": "bounded-coupled",
}


def workload_seeds(name: str, seed: int) -> dict:
    """Scorecard seeds of ``name`` shifted by the benchmark seed."""
    return {key: base + seed for key, base in SCORECARD_SEEDS[name].items()}


def run_clt_bounded(model, seeds):
    from fastslow.metrics import clt_verify
    from fastslow.sde_engine import ScaleRegime

    regime = ScaleRegime(epsilon=0.01, eta=0.01, gamma=1.0, T=1.0)
    return clt_verify(
        model,
        regime,
        x0=0.0,
        y0=0.0,
        dt=regime.eta / 20.0,
        n_paths=10_000,
        checkpoints=(1.0,),
        seed=seeds["seed"],
        n_boot=400,
    )[0]


def gate_clt_bounded(rep) -> list[str]:
    """Criterion-04 tolerances: w1 <= 0.15 and CI upper end <= 0.2."""
    values = (rep.w1, *rep.bootstrap_ci)
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite result {values}"]
    failures = []
    if not rep.w1 <= 0.15:
        failures.append(f"w1 {rep.w1!r} above 0.15")
    if not rep.bootstrap_ci[1] <= 0.2:
        failures.append(f"CI upper end {rep.bootstrap_ci[1]!r} above 0.2")
    return failures


def run_rate_sweep(model, seeds):
    from fastslow.metrics import rate_sweep

    return rate_sweep(
        model,
        [0.16, 0.08, 0.04, 0.02],
        "equal",
        {"x0": 0.0, "y0": 0.0, "n_paths": 10_000, "n_boot": 400},
        gamma=1.0,
        T=1.0,
        K=1.0,
        zeta=0.1,
        seed=seeds["seed"],
    )


def gate_rate_sweep(fit) -> list[str]:
    """Criterion 05: w1 decreases (one CI-overlapping stall allowed) and
    every point lies under its envelope."""
    w1 = [w for (_, _, w) in fit.points]
    cis = [r.bootstrap_ci for r in fit.reports]
    failures = []
    stalls = [i for i in range(len(w1) - 1) if not w1[i + 1] < w1[i]]
    if len(stalls) > 1:
        failures.append(f"w1 sequence {w1} fails to decrease at pairs {stalls}")
    for i in stalls:
        if not cis[i + 1][0] <= cis[i][1]:
            failures.append(f"non-decrease at pair {i} without CI overlap")
    for (eps, _, w), bound in zip(fit.points, fit.bound_values):
        if not w <= bound * (1.0 + 1e-9):
            failures.append(f"eps={eps}: w1 {w!r} above bound {bound!r}")
    return failures


def run_malliavin_sweep(model, seeds):
    from fastslow.malliavin import decay_check, moment_sweep
    from fastslow.sde_engine import ScaleRegime

    regimes = [
        ScaleRegime(epsilon=e, eta=e, gamma=1.0, T=1.0)
        for e in (0.2, 0.1, 0.05, 0.025)
    ]
    reports = moment_sweep(
        model, regimes, 1, 2000, seed=seeds["moment_seed"], x0=0.4, y0=0.3
    )
    decays = {
        bound_id: decay_check(
            model,
            regimes[-1],
            bound_id,
            1,
            2000,
            seeds["decay_seed"],
            separations_eta=(1.0, 3.0, 10.0),
            x0=0.4,
            y0=0.3,
        )
        for bound_id in ("d2x_w1w2", "d2x_w2w2")
    }
    return {"moments": reports, "decays": decays}


def gate_malliavin_sweep(result) -> list[str]:
    """Criterion 09: ratio spread <= 3 and decay monotone within noise."""
    failures = []
    for bound_id in ("dw1_x_sup", "dw2_x_sup", "d2x_w1w1"):
        points = result["moments"][bound_id].points
        ratios = [pt.empirical / pt.envelope for pt in points]
        spread = max(ratios) / min(ratios)
        if not spread <= 3.0:
            failures.append(f"{bound_id}: ratio spread {spread!r} above 3")
    for bound_id, rep in result["decays"].items():
        if not rep.monotone_within_noise:
            failures.append(f"{bound_id}: moments {rep.empirical} not decaying")
    return failures


WORKLOADS = {
    "clt_bounded": (run_clt_bounded, gate_clt_bounded),
    "rate_sweep": (run_rate_sweep, gate_rate_sweep),
    "malliavin_sweep": (run_malliavin_sweep, gate_malliavin_sweep),
}


def _floats(value):
    """Every float in a result, in a fixed traversal order."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return
    if isinstance(value, float):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _floats(value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(result) -> str:
    """sha256 over the repr of every float the workload reports."""
    text = "\n".join(repr(float(v)) for v in _floats(result))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
