"""Compare the CLI data artifacts of two source trees byte for byte.

    python .github/cli_artifacts.py BASE_TREE HEAD_TREE

Runs a small config of each of the six commands (``check-assumptions``,
``homogenize``, ``clt-verify``, ``malliavin-sweep``, ``rate-sweep``,
``bound-eval``) once with ``BASE_TREE/src`` and once with ``HEAD_TREE/src`` on the
import path, each run in an empty directory so that it writes into the
default ``fastslow-out``.  Every artifact except ``run_manifest.json``
(it records the wall time) is compared, and a Markdown table with the
exit codes and "same" or "moved" per artifact goes to stdout.  The
configs leave the assumption grid, the bootstrap count and the decay
separations at their defaults, so the defaults are compared too.
``malliavin-sweep start`` starts the sweep from x0 = 0.4, y0 = 0.3, and
``malliavin-sweep fine`` and ``clt-verify fine`` step at eta/40, so the
start and the step fraction read from ``grid`` are compared as well.
``malliavin-sweep orders`` asks for p = 1 and 2, so the moments of
several orders, finished from one pass per regime, are compared too.
``homogenize default`` runs at the command's own grid, 41 x-nodes of
8192 y-nodes, so both CSVs are compared at full size (about 4 s per
tree).  A rate sweep draws the noise of its finest point once and steps
its coarser points on sums of it.  ``rate-sweep`` steps 75, 75 and 150
times, where its points' own grids have 38, 75 and 150 steps, and
``rate-sweep nonnested`` 167, 334 and 334 times (own: 100, 200 and 334),
so the nesting rule of the grids is compared too.  Every config but
``rate-sweep grouped`` and ``malliavin-sweep grouped`` draws its noise
in one 32 MiB block.  ``rate-sweep grouped``'s pass draws 6000 paths of
500 finest steps with two coarse levels (125, 250 and 500 steps), which
runs in groups of paths: two per worker on two CPUs, three in process.
``malliavin-sweep grouped`` runs 3000 paths at eps = 0.05, 0.025 and
0.0125 (200, 400 and 800 steps at T = 0.5): the tangent pass of its
800-step regime draws more than one block, so it runs in two groups of
paths, on the worker of its whole regime on two CPUs and in process on
one, as does its decay check in process.  The script reports and does
not gate: it exits 0 whatever it finds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REGIME = {"epsilon": 0.05, "eta": 0.05, "gamma": 1.0, "T": 0.5}

#: Config per run name; a run name is its command, or the command and a tag.
CONFIGS = {
    "check-assumptions": {"model": "bounded-coupled", "analysis": {"p": [1, 2]}},
    "homogenize": {
        "model": "bounded-coupled",
        "regime": REGIME,
        "grid": {"x_range": [-2.0, 2.0], "nx": 9, "ny": 1024},
    },
    "homogenize default": {"model": "bounded-coupled", "regime": REGIME},
    "clt-verify": {
        "model": "bounded-coupled",
        "regime": REGIME,
        "grid": {"n_paths": 400, "nx": 17, "ny": 2048},
        "io": {"master_seed": 3},
    },
    "clt-verify fine": {
        "model": "bounded-coupled",
        "regime": REGIME,
        "grid": {"n_paths": 400, "nx": 17, "ny": 2048, "dt_eta_fraction": 0.025},
        "io": {"master_seed": 3},
    },
    "malliavin-sweep": {
        "model": "bounded-coupled",
        "sweep": {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 1.0},
        "grid": {"n_paths": 100},
        "analysis": {"p": [1]},
        "io": {"master_seed": 4},
    },
    "malliavin-sweep start": {
        "model": "bounded-coupled",
        "sweep": {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 1.0},
        "grid": {"n_paths": 100, "x0": 0.4, "y0": 0.3},
        "analysis": {"p": [1]},
        "io": {"master_seed": 4},
    },
    "malliavin-sweep orders": {
        "model": "bounded-coupled",
        "sweep": {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 1.0},
        "grid": {"n_paths": 100},
        "analysis": {"p": [1, 2]},
        "io": {"master_seed": 4},
    },
    "malliavin-sweep fine": {
        "model": "bounded-coupled",
        "sweep": {"epsilons": [0.1, 0.05], "gamma": 1.0, "T": 1.0},
        "grid": {"n_paths": 100, "dt_eta_fraction": 0.025},
        "analysis": {"p": [1]},
        "io": {"master_seed": 4},
    },
    "malliavin-sweep grouped": {
        "model": "bounded-coupled",
        "sweep": {"epsilons": [0.05, 0.025, 0.0125], "gamma": 1.0, "T": 0.5},
        "grid": {"n_paths": 3000},
        "analysis": {"p": [1]},
        "io": {"master_seed": 4},
    },
    "rate-sweep": {
        "model": "affine-oracle",
        "sweep": {"epsilons": [0.16, 0.08, 0.04], "gamma": 1.0, "T": 0.3},
        "grid": {"n_paths": 200, "nx": 17, "ny": 2048},
        "io": {"master_seed": 6},
    },
    "rate-sweep nonnested": {
        "model": "affine-oracle",
        "sweep": {"epsilons": [0.1, 0.05, 0.03], "gamma": 1.0, "T": 0.5},
        "grid": {"n_paths": 300, "nx": 17, "ny": 2048},
        "io": {"master_seed": 8},
    },
    "rate-sweep grouped": {
        "model": "affine-oracle",
        "sweep": {"epsilons": [0.08, 0.04, 0.02], "gamma": 1.0, "T": 0.5},
        "grid": {"n_paths": 6000, "nx": 17, "ny": 2048},
        "io": {"master_seed": 7},
    },
    "bound-eval": {
        "model": "bounded-coupled",
        "sweep": {"epsilons": [0.1, 0.05, 0.025], "gamma": 1.0, "T": 1.0},
        "analysis": {"K": 0.8, "zeta": 0.2, "C1": 2.0},
    },
}


def run(tree: str, name: str, workdir: str) -> tuple[int, dict[str, bytes]]:
    """Exit code and data artifacts of the run ``name`` from ``tree``."""
    os.makedirs(workdir)
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(CONFIGS[name], fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    command = name.split()[0]
    code = subprocess.run(
        [sys.executable, "-m", "fastslow.cli", command, "--config", config],
        cwd=workdir,
        env=env,
    ).returncode
    out = os.path.join(workdir, "fastslow-out")
    artifacts = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            if name != "run_manifest.json":
                with open(os.path.join(out, name), "rb") as fh:
                    artifacts[name] = fh.read()
    return code, artifacts


def main(base: str, head: str) -> None:
    print("| run | exit base / head | artifact | |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory() as scratch:
        for run_name in CONFIGS:
            base_code, base_out = run(base, run_name, os.path.join(scratch, "base", run_name))
            head_code, head_out = run(head, run_name, os.path.join(scratch, "head", run_name))
            codes = f"{base_code} / {head_code}"
            for name in sorted(set(base_out) | set(head_out)):
                if name not in base_out or name not in head_out:
                    mark = "**only in " + ("head**" if name in head_out else "base**")
                else:
                    mark = "same" if base_out[name] == head_out[name] else "**moved**"
                print(f"| {run_name} | {codes} | `{name}` | {mark} |")
            if not base_out and not head_out:
                print(f"| {run_name} | {codes} | none written | |")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
