"""Per-layer tracing from outside the package.

The layers are the package's modules. `Tracer.install()` replaces every public
function of each layer module at every `ambiprob.*` module attribute that
binds it (the package imports names directly, e.g. `cli` binds
`engine.posterior`), and `remove()` puts the originals back, so untraced ops
run the program unchanged.

Most functions get a span: name, op id, parent span, start and end, kept in
memory and written out at the end. Functions called once per family or per
predicate node get a call count only, because a span would cost more than the
call; their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("model", "scenarios", "dsl", "engine", "mc", "cli")
COUNT_ONLY = {"model.eval_query", "model.family_str", "model.day_name", "dsl.pred_to_query"}

# Span groups behind the `<group>.self_s` metrics. A group whose functions are
# all gone is reported as missing.
GROUPS = {
    "model.enumerate": ("model.enumerate_families",),
    "model.prior": ("model.uniform_prior", "model.restrict_prior"),
    "dsl.parse": ("dsl.tokenize", "dsl.parse", "dsl.parse_statement_text",
                  "dsl.parse_event_text", "dsl.load_protocol"),
    "dsl.compile": ("dsl.compile_protocol",),
    "engine.posterior": ("engine.posterior",),
    "engine.marginal": ("engine.marginal",),
}

# name -> (unit, better); the per-layer metrics, in BENCHMARK.json order
METRICS = {
    "model.enumerate.calls": ("count", "lower"),
    "model.enumerate.self_s": ("s", "lower"),
    "model.families": ("count", "lower"),
    "model.prior.self_s": ("s", "lower"),
    "model.eval_query.calls": ("count", "lower"),
    "model.self_s": ("s", "lower"),
    "scenarios.build.calls": ("count", "lower"),
    "scenarios.build.self_s": ("s", "lower"),
    "scenarios.rows": ("count", "lower"),
    "dsl.parse.self_s": ("s", "lower"),
    "dsl.lower.calls": ("count", "lower"),
    "dsl.compile.calls": ("count", "lower"),
    "dsl.compile.self_s": ("s", "lower"),
    "dsl.compile.rows": ("count", "lower"),
    "dsl.compile.entries": ("count", "lower"),
    "dsl.errors": ("count", "lower"),
    "dsl.self_s": ("s", "lower"),
    "engine.posterior.calls": ("count", "lower"),
    "engine.posterior.self_s": ("s", "lower"),
    "engine.case_rows": ("count", "lower"),
    "engine.marginal.calls": ("count", "lower"),
    "engine.marginal.self_s": ("s", "lower"),
    "engine.errors": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "mc.sample.calls": ("count", "lower"),
    "mc.sample.self_s": ("s", "lower"),
    "mc.draws": ("count", "lower"),
    "mc.draws_per_s": ("1/s", "higher"),
    "mc.accept_ratio": ("ratio", "higher"),
    "mc.errors": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
}


class Tracer:
    def __init__(self, discover: bool = True):
        self.spans: list[list] = []  # [name, op id, parent index, start, end]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # result-derived counters
        self.errors: Counter = Counter()  # layer -> exceptions first raised there
        self.op = -1
        self.layers: set[str] = set()
        self.wrapped: set[str] = set()
        self.unreadable: set[str] = set()  # result counters the program no longer exposes
        self._patches: list[tuple] = []
        self._seen: list = []  # exceptions and scenarios already counted in this op
        if discover:
            self._discover()

    # -- wrapping -------------------------------------------------------------

    def _discover(self):
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"ambiprob.{layer}")
            except ImportError:
                continue
            self.layers.add(layer)
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    qual = f"{layer}.{name}"
                    wrap = self._counter if qual in COUNT_ONLY else self._span
                    originals[id(obj)] = (obj, wrap(qual, layer, obj))
                    self.wrapped.add(qual)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ambiprob" and not mod_name.startswith("ambiprob."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def begin_op(self, op_id: int):
        self.op = op_id
        self._seen.clear()

    def _counter(self, qual, layer, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, qual, layer, fn):
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter

        def spanned(*args, **kwargs):
            calls[qual] += 1
            index = len(spans)
            record = [qual, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = clock()
                stack.pop()
                self._error(layer, exc)
                raise
            record[4] = clock()
            stack.pop()
            self._observe(qual, layer, result)
            return result
        return spanned

    def _error(self, layer, exc):
        if not any(seen is exc for seen in self._seen):
            self._seen.append(exc)
            self.errors[layer] += 1

    def _read(self, obj, attr, *metrics):
        """`obj.attr`, or None after marking `metrics` unreadable."""
        value = getattr(obj, attr, None)
        if value is None:
            self.unreadable.update(metrics)
        return value

    def _observe(self, qual, layer, result):
        """Derive work counters from what a layer returned."""
        c = self.counts
        if qual == "model.enumerate_families":
            c["model.families"] += len(result)
        elif qual == "dsl.compile_protocol":
            rows = self._read(result, "rows", "dsl.compile.rows", "dsl.compile.entries")
            if rows is not None:
                c["dsl.compile.rows"] += len(rows)
                c["dsl.compile.entries"] += sum(len(r) for r in rows.values())
        elif qual == "engine.posterior":
            table = self._read(result, "case_table", "engine.case_rows")
            if table is not None:
                c["engine.case_rows"] += len(table)
        elif qual == "mc.sample_posterior":
            fields = [self._read(result, f, "mc.draws", "mc.draws_per_s", "mc.accept_ratio")
                      for f in ("trials", "rejected_families", "rejected_runs", "statement_matches")]
            if None not in fields:
                c["mc.draws"] += sum(fields[:3])
                c["mc.matches"] += fields[3]
        elif layer == "scenarios" and hasattr(result, "kernel"):
            # build_scenario returns the constructor's Scenario; count it once
            if not any(seen is result for seen in self._seen):
                self._seen.append(result)
                c["scenarios.build.calls"] += 1
                c["scenarios.rows"] += len(result.kernel.rows)

    # -- results ----------------------------------------------------------------

    def wrapper_seconds(self, reps: int = 20_000) -> float:
        """Estimated time the wrappers added to the traced ops: spans and counts
        recorded, times the per-call cost of each wrapper timed on a no-op."""
        def noop():
            return None

        def per_call(fn):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            return (time.perf_counter() - start) / reps

        probe = Tracer(discover=False)
        bare = per_call(noop)
        span_cost = per_call(probe._span("probe.noop", "probe", noop)) - bare
        count_cost = per_call(probe._counter("probe.noop", "probe", noop)) - bare
        counted = sum(self.calls[name] for name in COUNT_ONLY)
        return len(self.spans) * span_cost + counted * count_cost

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self, traced_wall: float, untraced_wall: float, out_bytes: int):
        """(metrics, missing, accounted): every per-layer metric the program
        still exposes, the names of those it no longer does, and the summed
        self time of all spans."""
        own = self.self_times()
        layer_self = defaultdict(float)
        for name, value in own.items():
            layer_self[name.split(".")[0]] += value
        accounted = sum(own.values())
        m: dict[str, float] = {}
        missing: list[str] = []

        def put(name, value, needs=()):
            if all(n in self.wrapped or n in self.layers for n in needs) and name not in self.unreadable:
                m[name] = value
            else:
                missing.append(name)

        for g, names in GROUPS.items():
            if any(n in self.wrapped for n in names):
                m[f"{g}.self_s"] = sum(own.get(n, 0.0) for n in names)
            else:
                missing.append(f"{g}.self_s")
        put("model.enumerate.calls", self.calls["model.enumerate_families"], ["model.enumerate_families"])
        put("model.families", self.counts["model.families"], ["model.enumerate_families"])
        put("model.eval_query.calls", self.calls["model.eval_query"], ["model.eval_query"])
        put("scenarios.build.calls", self.counts["scenarios.build.calls"], ["scenarios"])
        put("scenarios.build.self_s", layer_self["scenarios"], ["scenarios"])
        put("scenarios.rows", self.counts["scenarios.rows"], ["scenarios"])
        put("dsl.lower.calls", self.calls["dsl.pred_to_query"], ["dsl.pred_to_query"])
        put("dsl.compile.calls", self.calls["dsl.compile_protocol"], ["dsl.compile_protocol"])
        put("dsl.compile.rows", self.counts["dsl.compile.rows"], ["dsl.compile_protocol"])
        put("dsl.compile.entries", self.counts["dsl.compile.entries"], ["dsl.compile_protocol"])
        put("engine.posterior.calls", self.calls["engine.posterior"], ["engine.posterior"])
        put("engine.case_rows", self.counts["engine.case_rows"], ["engine.posterior"])
        put("engine.marginal.calls", self.calls["engine.marginal"], ["engine.marginal"])
        put("mc.sample.calls", self.calls["mc.sample_posterior"], ["mc.sample_posterior"])
        put("mc.sample.self_s", layer_self["mc"], ["mc"])
        draws = self.counts["mc.draws"]
        put("mc.draws", draws, ["mc.sample_posterior"])
        put("mc.draws_per_s", draws / layer_self["mc"] if layer_self["mc"] else 0.0,
            ["mc.sample_posterior"])
        put("mc.accept_ratio", self.counts["mc.matches"] / draws if draws else 0.0,
            ["mc.sample_posterior"])
        for layer in ("model", "dsl", "engine"):
            put(f"{layer}.self_s", layer_self[layer], [layer])
        for layer in ("dsl", "engine", "mc"):
            put(f"{layer}.errors", self.errors[layer], [layer])
        put("cli.self_s", layer_self["cli"], ["cli"])
        m["cli.out_bytes"] = out_bytes
        m["trace.overhead_frac"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
        m["trace.unaccounted_frac"] = (traced_wall - accounted) / traced_wall if traced_wall else 0.0
        ordered = {name: m[name] for name in METRICS if name in m}
        return ordered, missing, accounted

    def dump(self, path: str):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")
