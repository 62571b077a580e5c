"""One measured run of one workload, in a fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload NAME --seed N [--trace spans|memory]
    python3 perfbench/child.py --setup-only --workload NAME

Times the import of ``fastslow`` and the model build (set-up), then the
workload call alone (wall), applies the workload's correctness gate and
prints one JSON line.  ``--trace spans`` wraps every layer in spans and
reports per-layer times and counts; ``--trace memory`` wraps only the
memory spans and reports their peak ``tracemalloc`` memory.  Spans are
written to ``--spans-out`` when the run ends.  An untraced child times
``calibrate()`` after its measured work, so the parent can scale its
times to reference host speed.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of work owned by the benchmark.

    Elementwise array steps in a Python loop (as in the EM and tangent
    steps), plain interpreter arithmetic, a sort and fresh pages: none of
    it runs library code, so a change to the library cannot move it,
    while a host that runs slower moves it with the workload.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(20240))
    x = rng.normal(size=10_000)
    for _ in range(1500):
        x = x + 0.01 * np.tanh(x) - 0.01 * np.cos(x) * x
    total = 0
    for i in range(1_500_000):
        total += i * i
    np.sort(rng.normal(size=1_000_000))
    np.empty((2048, 2048))[:] = 1.0
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", choices=("spans", "memory"), default=None)
    parser.add_argument("--spans-out", default=None, help="file the spans go to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    tracer = None
    import_fastslow = lambda: __import__("fastslow")  # noqa: E731
    if args.trace:
        import tracing

        tracer = tracing.Tracer(memory=args.trace == "memory")
        import_fastslow = tracer.span("fastslow.import", import_fastslow)

    setup_start = time.perf_counter()
    fastslow = import_fastslow()
    get_model = fastslow.get_model
    if tracer:
        get_model = tracer.span("coefficients.get_model", get_model)
    model = get_model(workloads.MODELS[args.workload])
    setup_s = time.perf_counter() - setup_start

    out = {"setup_s": setup_s}
    if args.setup_only:
        out["cal_s"] = calibrate()
        print(json.dumps(out))
        return 0

    run, gate = workloads.WORKLOADS[args.workload]
    seeds = workloads.workload_seeds(args.workload, args.seed)
    if tracer:
        tracer.install()
        run = tracer.span("workload", run)
    if args.trace == "spans":
        model = tracer.wrap_model(model)
    if args.trace == "memory":
        tracemalloc.start()
    try:
        wall_start = time.perf_counter()
        result = run(model, seeds)
        out["wall_s"] = time.perf_counter() - wall_start
        out["failures"] = gate(result)
        out["digest"] = workloads.digest(result)
    except Exception:  # a failed run is reported, never raised past here
        out["failures"] = ["exception: " + traceback.format_exc()]
    if args.trace == "memory":
        tracemalloc.stop()
        out["layers"] = tracing.memory_metrics(tracer)
    elif args.trace == "spans":
        out["layers"] = tracing.layer_metrics(tracer, "workload")
    if tracer and args.spans_out:
        tracer.write(args.spans_out)
    if not tracer:
        out["cal_s"] = calibrate()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {
        "python": sys.version.split()[0],
        **{m: sys.modules[m].__version__ for m in ("numpy", "scipy", "sympy")},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
