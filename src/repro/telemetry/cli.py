"""The ``python -m repro trace`` subcommand.

Runs one (graph, algorithm) point with telemetry enabled and exports
the collection next to each other under one path prefix::

    python -m repro trace --graph RV --algorithm pagerank \
        --interval 64 --out out/rv_pagerank

writes ``out/rv_pagerank.trace.json`` (Chrome trace_event, load it at
https://ui.perfetto.dev), ``out/rv_pagerank.timeline.jsonl`` (gauge
time series), ``out/rv_pagerank.summary.json`` (histograms + stall
tables), and with ``--csv`` also ``out/rv_pagerank.timeline.csv``.

Every export is re-read and schema-validated before the command
reports success, so the CI telemetry-smoke job is just this command.
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
        "--out", default="telemetry/trace", metavar="PREFIX",
        help="output path prefix (default telemetry/trace)",
    )
    parser.add_argument(
        "--csv", action="store_true",
        help="also write the timeline as CSV",
    )


def run_trace(args, log=print):
    """Run the traced point, export, validate; returns an exit code."""
    # The engine knob must land in the environment before the
    # simulation stack is imported (engine selection happens at build).
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    # Imported here: the CLI parser must stay importable without the
    # simulation stack.
    from repro.accel.config import (
        ArchitectureConfig,
        SCALED_DEFAULTS,
        _design,
    )
    from repro.accel.system import AcceleratorSystem
    from repro.experiments.common import bench_graph, iteration_budget
    from repro.fabric.design import MOMS_TWO_LEVEL
    from repro.report import format_table, telemetry_summary_line
    from repro.telemetry.collector import (
        BANK_REASONS,
        PE_REASONS,
        TelemetryConfig,
    )
    from repro.telemetry.export import (
        validate_timeline_jsonl,
        write_summary_json,
        write_timeline_csv,
        write_timeline_jsonl,
    )
    from repro.telemetry.trace import (
        validate_chrome_trace,
        write_chrome_trace,
    )

    quick = not args.full
    graph = bench_graph(args.graph, quick=quick)
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, args.algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    log(f"[trace] {args.graph} / {args.algorithm}: "
        f"{graph.n_nodes:,} nodes, {graph.n_edges:,} edges, "
        f"sampling every {args.interval} cycles")
    system = AcceleratorSystem(
        graph, args.algorithm, config,
        telemetry=TelemetryConfig(sample_interval=args.interval),
    )
    result = system.run(
        max_iterations=iteration_budget(args.algorithm, quick)
    )
    telemetry = system.telemetry
    log(f"[trace] ran {result.cycles:,} cycles, "
        f"{result.iterations} iteration(s), "
        f"{result.edges_processed:,} edges")

    prefix = args.out
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    trace_path = f"{prefix}.trace.json"
    timeline_path = f"{prefix}.timeline.jsonl"
    summary_path = f"{prefix}.summary.json"

    events = write_chrome_trace(telemetry, trace_path)
    rows = write_timeline_jsonl(telemetry, timeline_path)
    write_summary_json(telemetry, summary_path, extra={
        "graph": args.graph,
        "algorithm": args.algorithm,
        "run_cycles": result.cycles,
        "gteps": result.gteps,
    })
    if args.csv:
        write_timeline_csv(telemetry, f"{prefix}.timeline.csv")

    # Self-validate every export; a schema violation is a command
    # failure (this is the CI gate).
    trace_counts = validate_chrome_trace(trace_path)
    timeline_info = validate_timeline_jsonl(timeline_path)

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
    log("")
    log(telemetry_summary_line(telemetry.summary()))
    log(f"[trace] {trace_path}: {events} events validated "
        f"({trace_counts})")
    log(f"[trace] {timeline_path}: {rows} rows validated "
        f"({len(timeline_info['meta']['series'])} series)")
    log(f"[trace] {summary_path}: written")
    log("[trace] open the trace at https://ui.perfetto.dev "
        "(or chrome://tracing)")
    return 0
