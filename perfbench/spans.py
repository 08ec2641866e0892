"""In-memory span tracing installed from outside the program.

:func:`install` wraps the public entry point of each layer (module
build, fingerprint, artifact store, campaign scheduler, interpreter,
fault injector, profiler, model, experiment harness) so every call
records a span: op id, span id, parent span id, name, start and end in
``perf_counter_ns``.  Spans stay in a list until the run ends; nothing
is written while ops are timed.  The same wrappers also read the
layer counters the program already keeps (``CampaignResult`` fields,
``model.queries`` statistics) at the boundary where they are produced.

A layer's self time is its span's duration minus the duration of its
direct child spans.  Garbage-collector pauses inside traced ops are
recorded as well, through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of the traced ops of one run."""

    def __init__(self):
        #: (op, span id, parent span id or None, name, start ns, end ns)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Models created during the current op; their query counters
        #: are read when the op ends.
        self.models: list = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._gc_start = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self.models = []

    def end_op(self) -> None:
        from repro.cache import get_cache

        # Each op runs against its own freshly configured store, so the
        # store's byte counter is this op's.
        counters = self.counters
        counters["cache.bytes_written"] += get_cache().stats.bytes_written
        for model in self.models:
            for _name, hits, misses, _inv in model.queries.stats.rows():
                counters["query.hits"] += hits
                counters["query.misses"] += misses
        self.models = []
        self.op = None

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: collector time and full collections
        inside traced ops (this overlaps the spans it interrupts)."""
        if self.op is None:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.counters["runtime.gc_s"] += (
            time.perf_counter_ns() - self._gc_start) / 1e9
        if info["generation"] == 2:
            self.counters["runtime.gc_full"] += 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name``; ``after(args, result)``
        updates counters from the call's arguments and result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, span, parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child = defaultdict(int)
        for _op, _span, parent, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for _op, span, _parent, name, start, end in self.spans:
            totals[name] += (end - start - child[span]) / 1e9
        return totals

    def total_seconds(self, name: str) -> float:
        """Summed duration of the spans named ``name``."""
        return sum(end - start for _op, _span, _parent, span_name, start, end
                   in self.spans if span_name == name) / 1e9

    def covered_seconds(self) -> float:
        """Op time covered by top-level spans."""
        return sum(end - start for op, _span, parent, _name, start, end
                   in self.spans if parent is None and op is not None) / 1e9


# -- counters read at layer boundaries ----------------------------------


def _count_build(tracer, _args, _result):
    tracer.counters["bench.builds"] += 1


def _count_load(tracer, _args, result):
    tracer.counters["cache.hits" if result is not None
                    else "cache.misses"] += 1


def _count_shard(tracer, _args, _result):
    tracer.counters["sched.shards"] += 1


def _count_campaign(tracer, _args, result):
    if result.from_cache:
        return
    counters = tracer.counters
    counters["fi.trials"] += result.total
    counters["interp.dyn_instr"] += result.dynamic_instructions
    counters["interp.skipped_instr"] += result.skipped_instructions
    counters["interp.snapshot_bytes"] += result.snapshot_bytes
    counters["interp.codegen_fallbacks"] += result.codegen_fallbacks
    counters["batch.divergences"] += result.batch_divergences
    counters["batch.reconverged"] += result.batch_reconverged
    counters["batch.drains"] += result.batch_drains
    counters["batch.drain_instr"] += result.drain_instructions


def _count_profile(tracer, _args, result):
    profile, _outputs = result
    tracer.counters["profiling.dyn_instr"] += profile.dynamic_count


def _keep_model(tracer, _args, model):
    tracer.models.append(model)


def _targets():
    """(owner, attribute, span name, counter hook) of every wrapped entry
    point.  Owners are classes, or modules for plain functions."""
    from repro.bench import registry
    from repro.cache import disk, fingerprint
    from repro.core import simple_models, trident
    from repro.fi import campaign
    from repro.harness import runner
    from repro.interp import engine
    from repro.profiling import profiler
    from repro.sched import executor, spec

    return (
        (spec.ModuleSpec, "materialize", "bench.build", None),
        (registry, "build_module", "bench.build", _count_build),
        (fingerprint, "module_fingerprint", "cache.fingerprint", None),
        (disk.ArtifactCache, "load", "cache.load", _count_load),
        (disk.ArtifactCache, "store", "cache.store", None),
        (executor, "run_store_campaign", "sched.campaign", _count_campaign),
        (engine.ExecutionEngine, "__init__", "interp.engine_build", None),
        (engine.ExecutionEngine, "golden", "interp.golden", None),
        (engine.ExecutionEngine, "capture", "interp.capture", None),
        (campaign.FaultInjector, "run_span", "fi.trials", _count_shard),
        (profiler.ProfilingInterpreter, "run", "profiling.run",
         _count_profile),
        (simple_models, "create_model", "model.create", _keep_model),
        (trident.Trident, "overall_sdc", "model.overall", None),
        (trident.Trident, "overall_crash", "model.overall", None),
        (trident.Trident, "sdc_map", "model.sdc_map", None),
        (runner, "run_experiment", "harness", None),
    )


def install(tracer: Tracer):
    """Wrap every target; returns a function that removes the wrappers.

    A plain function is replaced in every loaded ``repro`` module that
    bound it by name at import time, so callers that imported it
    directly see the wrapper too.
    """
    undo = []
    for owner, attr, name, after in _targets():
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original):
                setattr(module, attr, wrapped)
                undo.append((module, attr, original))

    gc.callbacks.append(tracer.on_gc)

    def uninstall():
        gc.callbacks.remove(tracer.on_gc)
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall
