"""Bound the peak memory of the CLI commands whose passes run on workers.

    python .github/memory_guard.py

Runs ``clt-verify``, ``malliavin-sweep`` and ``rate-sweep`` on the configs
of the perfbench workloads ``clt_bounded``, ``malliavin_sweep`` and
``rate_sweep``, with ``src`` of this tree on the import path, each in an
empty directory.  perfbench's ``peak_rss_mb`` reads its child process
alone, so it misses the workers those passes fork; the run manifest counts
both.  A command fails the guard when it exits with a code it does not
accept, or when its process plus its largest worker peaked above
300 MiB; the sum over-counts the pages the workers share with the parent.
``malliavin-sweep`` exits 2 when a moment verdict fails and 3 on
warnings, and ``rate-sweep`` 3 on warnings (noisy points); the guard
bounds memory, so it accepts those.  Prints each command's exit code and
peak, and exits 1 when any command fails the guard.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

LIMIT_MB = 300.0

#: (command, config, accepted exit codes) per guarded run.
GUARDS = [
    (
        "clt-verify",
        {
            "model": "bounded-coupled",
            "regime": {"epsilon": 0.01, "eta": 0.01, "gamma": 1.0, "T": 1.0},
            "grid": {"n_paths": 10000, "checkpoints": [1.0]},
            "analysis": {"bootstrap": 400},
            "io": {"master_seed": 2024},
        },
        (0,),
    ),
    (
        "malliavin-sweep",
        {
            "model": "bounded-coupled",
            "sweep": {"epsilons": [0.2, 0.1, 0.05, 0.025], "gamma": 1.0, "T": 1.0},
            "grid": {"n_paths": 2000, "x0": 0.4, "y0": 0.3},
            "analysis": {"p": [1], "decay_bounds": ["d2x_w1w2", "d2x_w2w2"]},
            "io": {"master_seed": 909},
        },
        (0, 2, 3),
    ),
    (
        "rate-sweep",
        {
            "model": "affine-oracle",
            "sweep": {"epsilons": [0.16, 0.08, 0.04, 0.02], "gamma": 1.0, "T": 1.0},
            "grid": {"n_paths": 10000},
            "analysis": {"bootstrap": 400},
            "io": {"master_seed": 77},
        },
        (0, 3),
    ),
]


def guard(command: str, config: dict, accepted: tuple[int, ...], workdir: str) -> bool:
    """Run ``command`` on ``config`` in ``workdir``; True when it passes."""
    os.makedirs(workdir)
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = subprocess.run(
        [sys.executable, "-m", "fastslow.cli", command, "--config", path],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=src),
    ).returncode
    print(f"{command} exit code {code}")
    if code not in accepted:
        return False
    with open(os.path.join(workdir, "fastslow-out", "run_manifest.json"), encoding="utf-8") as fh:
        peak = json.load(fh)["peak_rss_mb"]
    total = peak["process"] + peak["workers"]
    print(
        f"{command} peak_rss_mb: process {peak['process']:.1f} + workers "
        f"{peak['workers']:.1f} = {total:.1f} MiB (limit {LIMIT_MB:g})"
    )
    return total <= LIMIT_MB


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        passed = [
            guard(command, config, accepted, os.path.join(scratch, command))
            for command, config, accepted in GUARDS
        ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
