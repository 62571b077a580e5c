"""Benchmark of the three scorecard pipelines, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload clt_bounded --seed 0 --seconds 25 --trace 0

Every measured run of the workload is a fresh child process
(``perfbench/child.py``), one at a time, with BLAS/OpenMP pinned to one
thread: the homogenization cache of ``fastslow.metrics`` lives for one
process, so only a fresh process pays what a CLI run pays.  Children run
until ``--seconds`` have passed (at least one); without tracing,
set-up-only children then top the set-up samples up to
``MIN_SETUP_SAMPLES``.  Medians are reported.

The host this was written on drifts in speed by up to 25% over minutes,
the same for every kind of work, so each untraced child also times a
fixed calibration owned by the benchmark (``child.calibrate``), and
``wall_s`` and ``setup_s`` are the medians of the child's own times
scaled to a host whose calibration takes ``CAL_REF_S``.  The raw samples
are printed with every run.

With ``--trace 1`` two instrumented children run first: one with every
layer wrapped in spans (per-layer times and counts) and one with
``tracemalloc`` on (per-span peak memory), kept apart because
``tracemalloc`` slows every allocation.  ``trace.overhead_s`` is the span
child's wall time minus the untraced median.

The last stdout line is the result JSON; the line before it carries the
environment, the seeds and the determinism digest.  Both are also written
to ``perfbench/results/``.  The metric names and units are checked
against ``BENCHMARK.json``; a mismatch fails the run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Set-up samples per run, topped up with set-up-only children.
MIN_SETUP_SAMPLES = 5
#: Calibration seconds of the reference host; see ``child.calibrate``.
CAL_REF_S = 0.5
#: Every child must end within this budget of the run's start.
RUN_BUDGET_S = 170.0
#: Thread pins of every child: the plain serial baseline.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name == "error_rate":
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict | None:
    """Run one child to completion; its last stdout line, or None on failure."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise HarnessError("run budget exhausted before the next child")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {args} exceeded the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.stderr.write(f"child {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}\n")
    return None


def _read_cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, if it has any."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the library sources, which names the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "**", "*.py"), recursive=True)):
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache": _read_cache_sizes(),
        "machine": platform.machine(),
        "versions": versions,
        "pinned": PINNED,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def declared_metrics(trace: bool) -> dict:
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        section = spec["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in section}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise HarnessError(f"cannot read the metrics of BENCHMARK.json: {exc!r}") from None


def at_reference_speed(child: dict, key: str) -> float:
    """A child's time scaled to a host whose calibration takes CAL_REF_S."""
    return child[key] * CAL_REF_S / child["cal_s"]


def passed(child: dict | None) -> bool:
    """The child ran to the end and its result passed the gate."""
    return child is not None and not child["failures"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    if run_child(["--workload", workload, "--setup-only"], deadline) is None:
        raise HarnessError("warm-up child failed: cannot import fastslow from src/")

    base = ["--workload", workload, "--seed", str(seed)]
    measure_start = time.perf_counter()
    traced = []
    if trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        for mode in ("spans", "memory"):
            out = os.path.join(HERE, "results", f"{workload}-seed{seed}.{mode}.json.gz")
            traced.append(run_child([*base, "--trace", mode, "--spans-out", out], deadline))
    runs, setups = [], []
    while not runs or time.perf_counter() - measure_start < seconds:
        runs.append(run_child(base, deadline))
    while not trace and len(setups) + sum(r is not None for r in runs) < MIN_SETUP_SAMPLES:
        setups.append(run_child(["--workload", workload, "--setup-only"], deadline))

    everything = runs + traced
    failed = sum(not passed(r) for r in everything)
    digests = sorted({r["digest"] for r in everything if passed(r)})
    timed = [r for r in runs if passed(r)]
    set_up = [r for r in runs + setups if r is not None]
    if not timed:
        raise HarnessError("no successful run of the workload to report")
    untraced = [r["wall_s"] for r in timed]

    if trace:
        if not all(passed(r) for r in traced):
            raise HarnessError("a traced run failed")
        spans, memory = traced
        metrics = {**spans["layers"], **memory["layers"]}
        metrics["trace.overhead_s"] = spans["wall_s"] - statistics.median(untraced)
        metrics["error_rate"] = failed / len(everything)
    else:
        metrics = {
            "wall_s": statistics.median(at_reference_speed(r, "wall_s") for r in timed),
            "setup_s": statistics.median(at_reference_speed(r, "setup_s") for r in set_up),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }

    versions = next(r["versions"] for r in everything if r is not None)
    details = {
        "workload": workload,
        "seed": seed,
        "workload_seeds": workloads.workload_seeds(workload, seed),
        "digest": digests[0] if len(digests) == 1 else digests,
        "environment": environment(versions),
        "wall_s_samples": untraced,
        "setup_s_samples": [r["setup_s"] for r in set_up],
        "cal_s_samples": [r["cal_s"] for r in set_up],
        "failures": [r["failures"] if r else ["child process failed"] for r in everything],
    }
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, details


def check_declared(result: dict, trace: bool) -> None:
    """The run fails unless it emits exactly the declared metrics and units."""
    declared = declared_metrics(trace)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        units = sorted(k for k in declared if k in emitted and declared[k] != emitted[k])
        raise HarnessError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, wrong unit {units}"
        )


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="added to every scorecard seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if not os.path.isfile(os.path.join("src", "fastslow", "__init__.py")):
            raise HarnessError("run from the repository root: src/fastslow is missing")
        declared_metrics(bool(args.trace))
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        check_declared(result, bool(args.trace))
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "results", name), "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
