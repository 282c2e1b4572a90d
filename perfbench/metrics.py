"""Names and units of every metric the benchmark reports.

Kept free of library imports so the parent process can use it without
importing numpy.
"""

END_TO_END_UNITS = {
    "instance_s": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}

# Per-layer metrics: every value is per traced instance unless it is a maximum.
PER_LAYER_UNITS = {
    "games.self_s": "s",
    "games.pairs_scanned": "count",
    "games.pairs_losing": "count",
    "games.losing_ratio": "1",
    "games.build_calls": "count",
    "games.outputs_built": "count",
    "games.search_s": "s",
    "matops.self_s": "s",
    "matops.norm2_calls": "count",
    "matops.eig_calls": "count",
    "matops.eig_dim_max": "count",
    "cli.self_s": "s",
    "cli.json_dump_s": "s",
    "cli.json_load_s": "s",
    "cli.json_mb": "MB",
    "solution_group.self_s": "s",
    "solution_group.relators_checked": "count",
    "strategies.self_s": "s",
    "strategies.correlation_entries": "count",
    "strategies.decompose_blocks": "count",
    "rounding.self_s": "s",
    "rounding.elements": "count",
    "rounding.budget_used": "1",
    "gf2.self_s": "s",
    "gf2.calls": "count",
    "graphs.self_s": "s",
    "graphs.search_s": "s",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "graphs.budget_refusals": "count",
    "bench.unattributed_s": "s",
    "trace.spans": "count",
    "trace.untraced_instance_s": "s",
    "trace.traced_instance_s": "s",
    "trace.overhead_ratio": "1",
}
MAX_METRICS = {"matops.eig_dim_max", "rounding.budget_used"}

# Filled in by run.py from the untraced and traced phases, not by the tracer.
TRACE_SUMMARY = {"trace.untraced_instance_s", "trace.traced_instance_s", "trace.overhead_ratio"}
