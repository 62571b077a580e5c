"""In-memory spans around the library's layers, and the metrics they give.

The tracer wraps each layer's public functions at the module attribute
where callers look them up, so no library file changes.  A span is
``(name, start, end, parent, peak_bytes)``; spans stay in memory and are
written once when the run ends.  A layer's self time is its span minus
the spans of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import time
import tracemalloc
from collections import defaultdict


def _count_draw(args):
    n_paths, n_steps = len(args["path_ids"]), args["n_steps"]
    return {
        "sde_engine.streams_created": 2 * n_paths,
        "sde_engine.normals_drawn": 2 * n_paths * n_steps,
    }


def _count_em(args):
    n_steps, n_paths = args["dW1"].shape
    return {"sde_engine.em_path_steps": n_steps * n_paths}


def _count_probe(args):
    return {"malliavin.probe_simulations": int(args["n_paths"] == 1)}


def _count_bootstrap(args):
    return {"metrics.bootstrap_resamples": args["n_boot"]}


def _count_first(args):
    bundle = args["bundle"]
    n_r = len({int(r) for r in args["r_indices"]})
    return {"malliavin.first_order_steps": 2 * n_r * (bundle.n_steps + 1) * bundle.n_paths}


def _count_second(args):
    bundle = args["bundle"]
    steps = len(args["combos"]) * len(args["pairs"]) * (bundle.n_steps + 1)
    return {"malliavin.second_order_steps": steps * bundle.n_paths}


#: Every wrapped function: (module, attribute, span name, memory span?,
#: counter computed from the call's bound arguments).
WRAPPED = (
    ("fastslow.sde_engine", "draw_increments", "sde_engine.draw_increments", False, _count_draw),
    ("fastslow.sde_engine", "simulate_with_increments", "sde_engine.em", False, _count_em),
    ("fastslow.metrics", "simulate_paths", "sde_engine.simulate_paths", True, None),
    ("fastslow.metrics", "build_homogenized", "homogenization.build_homogenized", False, None),
    ("fastslow.metrics", "limit_ode", "homogenization.limit_ode", False, None),
    ("fastslow.metrics", "attach_variance", "homogenization.attach_variance", False, None),
    ("fastslow.metrics", "w1_vs_gaussian", "metrics.w1_vs_gaussian", False, None),
    ("fastslow.metrics", "bootstrap_w1", "metrics.bootstrap_w1", False, _count_bootstrap),
    ("fastslow.malliavin", "simulate_paths", "sde_engine.simulate_paths", True, _count_probe),
    ("fastslow.malliavin", "first_order_tangents", "malliavin.first_order_tangents", True, _count_first),
    ("fastslow.malliavin", "second_order_tangents", "malliavin.second_order_tangents", True, _count_second),
    ("fastslow.malliavin", "check_assumptions", "coefficients.check_assumptions", False, None),
)

#: Names of the 24 coefficient callables of a ``CoefficientSet``.
COEFFICIENTS = tuple(
    prefix + func
    for func in ("c", "sigma", "f", "tau")
    for prefix in ("", "d1_", "d2_", "d11_", "d12_", "d22_")
)


class Tracer:
    """Records nested spans and computed counters for one process.

    A memory tracer wraps only the memory spans and measures their peak
    traced memory; ``tracemalloc`` slows every allocation, so a run that
    measures time uses a tracer without it.
    """

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        # [base, peak] traced bytes of each open memory span, innermost last
        self._memory: list[list[int]] = []

    def span(self, name: str, fn, memory: bool = False, counter=None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments).items():
                    self.counters[key] += value
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            if memory:
                self._enter_memory()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                peak = self._exit_memory() if memory else None
                self._open.pop()
                self.spans[index] = (name, start, end, parent, peak)

        return wrapper

    def _enter_memory(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], peak)
        tracemalloc.reset_peak()
        self._memory.append([current, current])

    def _exit_memory(self) -> int:
        frame = self._memory.pop()
        frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], frame[1])
        return frame[1] - frame[0]

    def install(self):
        """Wrap the functions of :data:`WRAPPED` where they are looked up."""
        import importlib

        for module_name, attr, name, memory, counter in WRAPPED:
            if self.memory and not memory:
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            counter = None if self.memory else counter
            setattr(module, attr, self.span(name, fn, self.memory, counter))

    def wrap_model(self, model):
        """A copy of ``model`` whose 24 coefficient callables record spans."""
        import numpy as np

        def counted(fn):
            inner = self.span("coefficients.eval", fn)

            @functools.wraps(fn)
            def wrapper(x, y):
                self.counters["coefficients.eval_points"] += np.broadcast(x, y).size
                return inner(x, y)

            return wrapper

        return dataclasses.replace(
            model, **{name: counted(getattr(model, name)) for name in COEFFICIENTS}
        )

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def peak_mb(self, *names: str) -> float:
        peaks = [s[4] for s in self.spans if s[0] in names and s[4] is not None]
        return max(peaks, default=0) / 2**20

    def write(self, path: str) -> None:
        """Write every span once, as gzip-compressed JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "peak_bytes"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def memory_metrics(tracer: Tracer) -> dict[str, float]:
    """Peak traced memory of the memory spans, from a ``tracemalloc`` run."""
    return {
        "sde_engine.simulate_paths_peak_mb": tracer.peak_mb("sde_engine.simulate_paths"),
        "malliavin.tangents_peak_mb": tracer.peak_mb(
            "malliavin.first_order_tangents", "malliavin.second_order_tangents"
        ),
    }


#: Self-time metric of every span name a span run records.
SELF_TIME = {
    "fastslow.import": "fastslow.import_s",
    "coefficients.get_model": "coefficients.get_model_s",
    "coefficients.eval": "coefficients.eval_s",
    "coefficients.check_assumptions": "coefficients.check_assumptions_s",
    "sde_engine.draw_increments": "sde_engine.draw_increments_s",
    "sde_engine.em": "sde_engine.em_s",
    "sde_engine.simulate_paths": "sde_engine.simulate_paths_s",
    "homogenization.build_homogenized": "homogenization.build_homogenized_s",
    "homogenization.limit_ode": "homogenization.limit_ode_s",
    "homogenization.attach_variance": "homogenization.attach_variance_s",
    "metrics.w1_vs_gaussian": "metrics.w1_vs_gaussian_s",
    "metrics.bootstrap_w1": "metrics.bootstrap_w1_s",
    "malliavin.first_order_tangents": "malliavin.first_order_tangents_s",
    "malliavin.second_order_tangents": "malliavin.second_order_tangents_s",
}

#: Span names whose call count is a metric (``<name>_calls``).
CALLS = (
    "coefficients.eval",
    "sde_engine.simulate_paths",
    "homogenization.build_homogenized",
    "homogenization.limit_ode",
    "metrics.w1_vs_gaussian",
)

#: Counters computed from call arguments.
COUNTS = (
    "coefficients.eval_points",
    "sde_engine.streams_created",
    "sde_engine.normals_drawn",
    "sde_engine.em_path_steps",
    "metrics.bootstrap_resamples",
    "malliavin.first_order_steps",
    "malliavin.second_order_steps",
    "malliavin.probe_simulations",
)


def layer_metrics(tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer times and counts (without units) from a span run.

    ``root`` is the span around the whole workload call; its self time
    is the wall time no wrapped layer accounts for, so the self times
    below add up to the root span exactly.
    """
    own = tracer.self_times()
    unaccounted = set(own) - set(SELF_TIME) - {root}
    if unaccounted:
        raise ValueError(f"spans without a self-time metric: {sorted(unaccounted)}")
    calls = tracer.calls()
    metrics = {metric: own[name] for name, metric in SELF_TIME.items()}
    metrics.update({f"{name}_calls": calls[name] for name in CALLS})
    metrics.update({name: tracer.counters[name] for name in COUNTS})
    metrics["trace.unattributed_s"] = own[root]
    return metrics
