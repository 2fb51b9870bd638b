"""The ``python -m repro trace`` subcommand.

Runs one (graph, algorithm) point with telemetry and the span tracer
on the probe bus and exports everything under one path prefix::

    python -m repro trace --graph RV --algorithm bfs \
        --interval 64 --rate 16 --out out/rv_bfs

writes ``out/rv_bfs.trace.json`` (the Perfetto file, load it at
https://ui.perfetto.dev), ``.timeline.jsonl`` (gauge time series; also
``.timeline.csv`` with ``--csv``), ``.summary.json`` (histograms and
stall tables), ``.spans.jsonl`` (canonical sampled span stream) and
``.spansummary.json`` (per-stage percentiles, merge fan-in).  Every
export is re-read and schema-validated before the command reports
success, so the CI trace-smoke job is just this command.
"""

import os


def add_trace_arguments(parser):
    """Attach the trace-specific flags to the __main__ parser."""
    parser.add_argument(
        "--graph", default="RV", metavar="KEY",
        help="benchmark graph key (see repro.graph.datasets; default RV)",
    )
    parser.add_argument(
        "--algorithm", default="pagerank",
        choices=("pagerank", "bfs", "sssp", "scc"),
        help="algorithm to run (default pagerank)",
    )
    parser.add_argument(
        "--interval", type=int, default=64, metavar="CYCLES",
        help="gauge sampling interval in cycles (default 64)",
    )
    parser.add_argument(
        "--rate", type=int, default=16, metavar="N",
        help="trace 1 of every N requests per PE (default 16)",
    )
    parser.add_argument(
        "--depth", type=int, default=256, metavar="EVENTS",
        help="flight-recorder ring depth (default 256)",
    )
    parser.add_argument(
        "--out", default="telemetry/trace", metavar="PREFIX",
        help="output path prefix (default telemetry/trace)",
    )
    parser.add_argument(
        "--csv", action="store_true",
        help="also write the timeline as CSV",
    )


def run_trace(args, log=print):
    """Run the observed point, export, validate; returns an exit code."""
    # The engine knob must land in the environment before the
    # simulation stack is imported (engine selection happens at build).
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    # Imported here: the CLI parser must stay importable without the
    # simulation stack.
    from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
    from repro.accel.system import AcceleratorSystem
    from repro.experiments.common import bench_graph, iteration_budget
    from repro.fabric.design import MOMS_TWO_LEVEL
    from repro.report import format_table, telemetry_summary_line
    from repro.telemetry import export, perfetto
    from repro.telemetry.collector import (
        BANK_REASONS, PE_REASONS, TelemetryConfig,
    )
    from repro.tracing import export as span_export
    from repro.tracing.analyze import STAGE_ORDER
    from repro.tracing.spans import SpansConfig

    quick = not args.full
    graph = bench_graph(args.graph, quick=quick)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, args.algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    log(f"[trace] {args.graph} / {args.algorithm}: "
        f"{graph.n_nodes:,} nodes, {graph.n_edges:,} edges, "
        f"sampling gauges every {args.interval} cycles and 1/{args.rate} "
        f"requests")
    system = AcceleratorSystem(
        graph, args.algorithm, config,
        telemetry=TelemetryConfig(sample_interval=args.interval),
        spans=SpansConfig(sample_rate=args.rate, recorder_depth=args.depth),
    )
    result = system.run(
        max_iterations=iteration_budget(args.algorithm, quick)
    )
    telemetry = system.telemetry
    tracer = system.tracer
    spans = result.stats["spans"]
    log(f"[trace] ran {result.cycles:,} cycles, "
        f"{result.iterations} iteration(s), "
        f"{result.edges_processed:,} edges; traced "
        f"{spans['spans_completed']}/{spans['requests_seen']:,} requests "
        f"({spans['spans_live']} still in flight)")

    prefix = args.out
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    trace_path = f"{prefix}.trace.json"
    timeline_path = f"{prefix}.timeline.jsonl"
    summary_path = f"{prefix}.summary.json"
    spans_path = f"{prefix}.spans.jsonl"
    span_summary_path = f"{prefix}.spansummary.json"
    run_info = {
        "graph": args.graph,
        "algorithm": args.algorithm,
        "run_cycles": result.cycles,
        "gteps": result.gteps,
    }

    events = perfetto.write_perfetto(trace_path, telemetry, tracer)
    rows = export.write_timeline_jsonl(telemetry, timeline_path)
    export.write_summary_json(telemetry, summary_path, extra=run_info)
    if args.csv:
        export.write_timeline_csv(telemetry, f"{prefix}.timeline.csv")
    span_export.write_spans_jsonl(tracer, spans_path)
    span_export.write_span_summary(dict(spans, **run_info),
                                   span_summary_path)

    # Self-validate every export; a schema violation is a command
    # failure (this is the CI gate).
    trace_counts = perfetto.validate_perfetto(trace_path)
    timeline_info = export.validate_timeline_jsonl(timeline_path)
    spans_info = span_export.validate_spans_jsonl(spans_path)
    span_export.validate_span_summary(span_summary_path)

    log("")
    log(format_table(
        telemetry.pe_stall_table(),
        columns=["component"] + list(PE_REASONS) + ["total"],
        title="PE cycle accounting (sums to run cycles per row)",
    ))
    log("")
    log(format_table(
        telemetry.bank_stall_table(),
        columns=["component"] + list(BANK_REASONS) + ["total"],
        title="bank cycle accounting",
    ))
    stages = spans["stages"]
    log("")
    log(format_table(
        [dict(stages[stage], stage=stage)
         for stage in STAGE_ORDER if stage in stages],
        columns=["stage", "kind", "count", "p50", "p99", "p999",
                 "max", "mean"],
        title="per-stage latency decomposition (cycles, exact "
              "nearest-rank percentiles)",
    ))
    totals = stages.get("_totals", {})
    queueing = totals.get("queueing_cycles", 0)
    service = totals.get("service_cycles", 0)
    split = queueing / (queueing + service) if queueing + service else 0.0
    log("")
    log(telemetry_summary_line(telemetry.summary()))
    log(f"[trace] critical path: {queueing:,} queueing vs "
        f"{service:,} service cycles ({split:.0%} queueing) | "
        f"mshr merge rate {result.stats['mshr_merge_rate']:.1%}")
    log(f"[trace] {trace_path}: {events} events validated "
        f"({trace_counts})")
    log(f"[trace] {timeline_path}: {rows} rows validated "
        f"({len(timeline_info['meta']['series'])} series)")
    log(f"[trace] {summary_path}: written")
    log(f"[trace] {spans_path}: {spans_info['spans']} spans validated")
    log(f"[trace] {span_summary_path}: validated")
    log("[trace] open the trace at https://ui.perfetto.dev "
        "(arrows follow sampled requests across PE/bank/DRAM tracks)")
    return 0
