"""Span tracing of degcensus from outside the program.

`Tracer.install` replaces every public function of the six modules with a
wrapper that records a span (name, start, end, parent) in memory, under
every name callers look it up by: a function imported by name into another
module (`cli.verify_x_switch_identity`, `switching.enumerate_bipartite`,
`sampling.count_orientations_with_degrees`, ...) is replaced there too.
`BipartiteGraph.__init__` is wrapped as `core.BipartiteGraph`, the graph
builds.  Generator functions get one span per `next()`, so the consumer's
work between items is not charged to them.  `uninstall` puts every original
back.

`core.falling` is left alone: it is a one-line helper that `derive_stats`
calls once per degree, and a span around it would cost more than it does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "estimators", "oracles", "sampling", "switching")
UNWRAPPED = {"core.falling"}

# (metric, unit); the traced run reports all of them on every workload, 0
# where the workload does not reach the layer
PER_LAYER = (
    ("cli.self_ms_per_op", "ms"),
    ("core.graph_builds_per_op", "count"),
    ("core.graph_build_us", "us"),
    ("core.derive_stats_us", "us"),
    ("estimators.calls_per_op", "count"),
    ("estimators.us_per_call", "us"),
    ("oracles.count_bipartite.calls_per_op", "count"),
    ("oracles.count_bipartite.self_s_per_pass", "s"),
    ("oracles.count_loopfree.s_per_pass", "s"),
    ("oracles.count_oriented.s_per_pass", "s"),
    ("oracles.count_bipartite_stratified.s_per_pass", "s"),
    ("oracles.enumerate_undirected.s_per_pass", "s"),
    ("oracles.count_eulerian_orientations.s_per_pass", "s"),
    ("oracles.enumerate_bipartite.graphs_per_s", "1/s"),
    ("oracles.count_orientations_with_degrees.us_per_call", "us"),
    ("sampling.swap_chain.ms_per_sample", "ms"),
    ("sampling.rejection.ms_per_sample", "ms"),
    ("sampling.sample_undirected.ms_per_sample", "ms"),
    ("sampling.swap_chain.steps_per_s", "1/s"),
    ("switching.count_forward_x_switches.us_per_graph", "us"),
    ("switching.count_reverse_x_switches.us_per_graph", "us"),
    ("switching.count_twocycle_switches.us_per_graph", "us"),
    ("switching.count_reverse_twocycle_switches.us_per_graph", "us"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.items: dict[str, int] = defaultdict(int)  # yielded or returned items
        self.samplers: list[dict] = []  # one per iter_bipartite_samples call
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self.stack.pop()
        return end - self.spans[idx][1]

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "sampling.sample_undirected":
                tracer.items[name] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = tracer._sampler_info(args, kwargs) if name == "sampling.iter_bipartite_samples" else None
            return tracer._iterate(name, fn(*args, **kwargs), info)

        return wrapper

    def _iterate(self, name: str, gen, info: dict | None):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                if info is not None:
                    info["finished"] = True
                return
            finally:
                took = self._close(idx)
                if info is not None:
                    info["seconds"] += took
            self.items[name] += 1
            if info is not None:
                info["samples"] += 1
            yield item

    def _sampler_info(self, args, kwargs) -> dict:
        dp, cfg = args[0], args[1]
        method = cfg.resolved_method(dp)
        steps = None
        if method == "swap-chain" and kwargs.get("condition") is None:
            burn_in = cfg.resolved_burn_in(dp.total)
            base, rem = divmod(cfg.samples, cfg.streams)
            quotas = [base + (1 if k < rem else 0) for k in range(cfg.streams)]
            steps = sum(burn_in + q * max(burn_in, 1) for q in quotas if q)
        info = {"method": method, "steps": steps, "samples": 0, "seconds": 0.0, "finished": False}
        self.samplers.append(info)
        return info

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"degcensus.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("degcensus."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(obj) not in wrappers:
                    make = self._wrap_generator if inspect.isgeneratorfunction(obj) else self._wrap
                    wrappers[id(obj)] = make(name, obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        graph = importlib.import_module("degcensus.core").BipartiteGraph
        self._undo.append((graph, "__init__", graph.__init__))
        graph.__init__ = self._wrap("core.BipartiteGraph", graph.__init__)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, obj = self._undo.pop()
            setattr(target, attr, obj)

    # -- summary ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, passes: int, ops: int) -> dict[str, float]:
        """Per-layer metrics over the traced passes (see PER_LAYER)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        est_calls, est_time = 0, 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            count[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[i]
            layer_self[layer] += end - start - covered[i]
            # an estimator call as its caller sees it: not one estimator
            # calling another
            if layer == "estimators" and (parent < 0 or not spans[parent][0].startswith("estimators.")):
                est_calls += 1
                est_time += end - start

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def mean(name: str, scale: float) -> float:
            return ratio(total[name], count[name]) * scale

        def sampler(method: str, what: str) -> float:
            runs = [r for r in self.samplers if r["method"] == method]
            if what == "steps":
                runs = [r for r in runs if r["steps"] is not None and r["finished"]]
                return ratio(sum(r["steps"] for r in runs), sum(r["seconds"] for r in runs))
            return ratio(sum(r["seconds"] for r in runs), sum(r["samples"] for r in runs)) * 1e3

        out = {
            "cli.self_ms_per_op": ratio(layer_self["cli"], ops) * 1e3,
            "core.graph_builds_per_op": ratio(count["core.BipartiteGraph"], ops),
            "core.graph_build_us": mean("core.BipartiteGraph", 1e6),
            "core.derive_stats_us": mean("core.derive_stats", 1e6),
            "estimators.calls_per_op": ratio(est_calls, ops),
            "estimators.us_per_call": ratio(est_time, est_calls) * 1e6,
            "oracles.count_bipartite.calls_per_op": ratio(count["oracles.count_bipartite"], ops),
            "oracles.count_bipartite.self_s_per_pass": ratio(own["oracles.count_bipartite"], passes),
            "oracles.enumerate_bipartite.graphs_per_s": ratio(
                self.items["oracles.enumerate_bipartite"], total["oracles.enumerate_bipartite"]
            ),
            "oracles.count_orientations_with_degrees.us_per_call": mean(
                "oracles.count_orientations_with_degrees", 1e6
            ),
            "sampling.swap_chain.ms_per_sample": sampler("swap-chain", "time"),
            "sampling.rejection.ms_per_sample": sampler("configuration-rejection", "time"),
            "sampling.sample_undirected.ms_per_sample": ratio(
                total["sampling.sample_undirected"], self.items["sampling.sample_undirected"]
            ) * 1e3,
            "sampling.swap_chain.steps_per_s": sampler("swap-chain", "steps"),
            "trace.spans_per_op": ratio(len(spans), ops),
        }
        for oracle in (
            "count_loopfree", "count_oriented", "count_bipartite_stratified",
            "enumerate_undirected", "count_eulerian_orientations",
        ):
            out[f"oracles.{oracle}.s_per_pass"] = ratio(total[f"oracles.{oracle}"], passes)
        for counter in (
            "count_forward_x_switches", "count_reverse_x_switches",
            "count_twocycle_switches", "count_reverse_twocycle_switches",
        ):
            out[f"switching.{counter}.us_per_graph"] = mean(f"switching.{counter}", 1e6)
        return out
