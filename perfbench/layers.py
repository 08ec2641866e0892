"""The benchmark's metric table: every metric, its unit, and the map from
each per-layer metric to the end-to-end metric and workloads it should
move.

``BENCHMARK.json`` lists the same names and units; the self-test checks
that the two agree, that every run emits every metric with its unit,
and that each per-layer metric is non-zero on the workloads this table
maps it to (so the map is checked, not just written down).
"""

WORKLOADS = ("inject", "inject_batch", "analyze", "replay")
FI = ("inject", "inject_batch")
ALL = WORKLOADS

#: (name, unit, better) of the untraced run's metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Traced-run metrics: (name, unit, better, end-to-end metric it should
#: move, workloads where it is non-zero and meaningful).  Times ending
#: in ``_s`` are self times (span minus child spans), as means per
#: traced op; counts are means per traced op too, unless the name says
#: otherwise.
PER_LAYER = (
    ("import.repro_cli_s", "s", "lower", "setup_s", ALL),
    ("bench.build_s", "s", "lower", "op_p50_s", ALL),
    ("bench.builds", "count", "lower", "op_p50_s", ALL),
    ("cache.fingerprint_s", "s", "lower", "op_p50_s", ALL),
    ("cache.load_s", "s", "lower", "op_p50_s", ALL),
    ("cache.hits", "count", "higher", "op_p50_s", ("replay",)),
    ("cache.misses", "count", "lower", "op_p50_s", FI + ("analyze",)),
    ("cache.store_s", "s", "lower", "op_p50_s", FI + ("analyze",)),
    ("cache.bytes_written", "bytes", "lower", "op_p50_s",
     FI + ("analyze",)),
    ("harness.self_s", "s", "lower", "op_p50_s", ("replay",)),
    ("sched.campaign_self_s", "s", "lower", "op_p50_s", FI + ("replay",)),
    ("sched.shards", "count", "lower", "op_p50_s", FI),
    ("interp.engine_build_s", "s", "lower", "op_p50_s", FI),
    ("interp.golden_s", "s", "lower", "op_p50_s", FI),
    ("interp.capture_s", "s", "lower", "op_p50_s", FI),
    ("fi.trials_s", "s", "lower", "ops_per_s", FI),
    ("fi.trials", "count", "higher", "ops_per_s", FI),
    ("interp.dyn_instr", "count", "lower", "ops_per_s", FI),
    ("interp.instr_per_s", "1/s", "higher", "ops_per_s", FI),
    ("interp.skipped_instr", "count", "higher", "ops_per_s", FI),
    ("interp.snapshot_bytes", "bytes", "lower", "peak_rss_mb", FI),
    ("interp.codegen_fallbacks", "count", "lower", "ops_per_s", ()),
    ("batch.divergences", "count", "lower", "ops_per_s",
     ("inject_batch",)),
    ("batch.reconverged", "count", "higher", "ops_per_s",
     ("inject_batch",)),
    ("batch.drains", "count", "lower", "ops_per_s", ("inject_batch",)),
    ("batch.drain_frac", "ratio", "lower", "ops_per_s", ("inject_batch",)),
    ("profiling.run_s", "s", "lower", "op_p50_s", ("analyze",)),
    ("profiling.dyn_instr", "count", "lower", "op_p50_s", ("analyze",)),
    ("model.create_s", "s", "lower", "op_p50_s", ("analyze", "replay")),
    ("model.overall_s", "s", "lower", "op_p50_s", ("analyze", "replay")),
    ("model.sdc_map_s", "s", "lower", "op_p50_s", ("analyze",)),
    ("query.hits", "count", "higher", "op_p50_s", ("analyze",)),
    ("query.misses", "count", "lower", "op_p50_s", ("analyze",)),
    ("runtime.gc_s", "s", "lower", "op_p50_s", ALL),
    ("runtime.gc_full", "count", "lower", "op_p50_s", ("replay",)),
    ("op_cpu_s", "s", "lower", "", ALL),
    ("vm.steal_ticks", "count", "lower", "", ()),
    ("vm.calibration_s", "s", "lower", "", ALL),
    ("trace.coverage", "ratio", "higher", "", ALL),
    ("trace.unattributed_s", "s", "lower", "", ()),
    ("trace.overhead_ops_per_s", "1/s", "higher", "ops_per_s", ()),
)

#: Span name of each wrapped entry point -> the self-time metric it
#: feeds.  Several entry points may share one span name.
SPAN_METRICS = {
    "bench.build": "bench.build_s",
    "cache.fingerprint": "cache.fingerprint_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "harness": "harness.self_s",
    "sched.campaign": "sched.campaign_self_s",
    "interp.engine_build": "interp.engine_build_s",
    "interp.golden": "interp.golden_s",
    "interp.capture": "interp.capture_s",
    "fi.trials": "fi.trials_s",
    "profiling.run": "profiling.run_s",
    "model.create": "model.create_s",
    "model.overall": "model.overall_s",
    "model.sdc_map": "model.sdc_map_s",
}
