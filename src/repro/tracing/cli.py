"""The ``python -m repro spans`` subcommand.

Runs one (graph, algorithm) point with the span tracer attached and
exports the collection under one path prefix::

    python -m repro spans --graph RV --algorithm bfs --rate 16 \
        --spans-out out/rv_bfs

writes ``out/rv_bfs.spans.jsonl`` (canonical sampled span stream),
``out/rv_bfs.flow.json`` (Chrome trace_event flow arrows, load it at
https://ui.perfetto.dev), and ``out/rv_bfs.spansummary.json``
(exact per-stage percentiles + merge fan-in distributions).  Every
export is re-read and schema-validated before the command reports
success, so the CI spans-smoke job is just this command.

``--engine`` (shared with the profile/trace groups) selects the
simulation engine; the span stream is byte-identical under both.
"""

import os


def add_spans_arguments(parser):
    """Attach the spans-specific flags to the __main__ parser."""
    parser.add_argument(
        "--rate", type=int, default=16, metavar="N",
        help="trace 1 of every N requests per PE (default 16)",
    )
    parser.add_argument(
        "--depth", type=int, default=256, metavar="EVENTS",
        help="flight-recorder ring depth (default 256)",
    )
    parser.add_argument(
        "--spans-out", default="tracing/spans", metavar="PREFIX",
        help="output path prefix (default tracing/spans)",
    )


def run_spans(args, log=print):
    """Run the traced point, export, validate; returns an exit code."""
    # The engine knob must land in the environment before the
    # simulation stack is imported (engine selection happens at build).
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    from repro.accel.config import (
        ArchitectureConfig,
        SCALED_DEFAULTS,
        _design,
    )
    from repro.accel.system import AcceleratorSystem
    from repro.experiments.common import bench_graph, iteration_budget
    from repro.fabric.design import MOMS_TWO_LEVEL
    from repro.report import format_table
    from repro.tracing.analyze import STAGE_ORDER
    from repro.tracing.export import (
        validate_flow_trace,
        validate_span_summary,
        validate_spans_jsonl,
        write_flow_trace,
        write_span_summary,
        write_spans_jsonl,
    )
    from repro.tracing.spans import SpansConfig

    quick = not args.full
    graph = bench_graph(args.graph, quick=quick)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, args.algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    log(f"[spans] {args.graph} / {args.algorithm}: "
        f"{graph.n_nodes:,} nodes, {graph.n_edges:,} edges, "
        f"sampling 1/{args.rate} requests")
    system = AcceleratorSystem(
        graph, args.algorithm, config,
        spans=SpansConfig(sample_rate=args.rate,
                          recorder_depth=args.depth),
    )
    result = system.run(
        max_iterations=iteration_budget(args.algorithm, quick)
    )
    tracer = system.tracer
    summary = result.stats["spans"]
    log(f"[spans] ran {result.cycles:,} cycles, "
        f"{result.iterations} iteration(s); traced "
        f"{summary['spans_completed']}/{summary['requests_seen']:,} "
        f"requests ({summary['spans_live']} still in flight)")

    prefix = args.spans_out
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    spans_path = f"{prefix}.spans.jsonl"
    flow_path = f"{prefix}.flow.json"
    summary_path = f"{prefix}.spansummary.json"

    write_spans_jsonl(tracer, spans_path)
    write_flow_trace(tracer, flow_path)
    write_span_summary(
        dict(summary, graph=args.graph, algorithm=args.algorithm,
             run_cycles=result.cycles, gteps=result.gteps),
        summary_path,
    )

    # Self-validate every export; a schema violation is a command
    # failure (this is the CI gate).
    spans_info = validate_spans_jsonl(spans_path)
    flow_counts = validate_flow_trace(flow_path)
    validate_span_summary(summary_path)

    stages = summary["stages"]
    rows = [
        dict(stages[stage], stage=stage)
        for stage in STAGE_ORDER
        if stage in stages
    ]
    log("")
    log(format_table(
        rows,
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
    log(f"[spans] critical path: {queueing:,} queueing vs "
        f"{service:,} service cycles ({split:.0%} queueing) | "
        f"mshr merge rate {result.stats['mshr_merge_rate']:.1%}")
    log(f"[spans] {spans_path}: {spans_info['spans']} spans validated")
    log(f"[spans] {flow_path}: validated ({flow_counts})")
    log(f"[spans] {summary_path}: written")
    log("[spans] open the flow trace at https://ui.perfetto.dev "
        "(arrows follow sampled requests across PE/bank/DRAM tracks)")
    return 0
