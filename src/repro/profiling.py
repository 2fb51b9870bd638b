"""The ``python -m repro profile`` subcommand.

Runs one quick (graph, algorithm, architecture) point under cProfile
and prints where the simulator actually spends its time::

    python -m repro profile --graph RV --algorithm pagerank --org two-level

Output is three tables:

* **per-component self time** -- profiler rows aggregated by repro
  module (``core.bank``, ``sim.channel``, ...), so "which component is
  hot" is one glance instead of a pstats session;
* **top functions** -- the usual self-time leaderboard, restricted to
  the simulator's own code by default (``--all-functions`` lifts that);
* **engine + pool summary** -- simulated cycles per second, the wake
  machinery's tick fraction, and steady-state token allocations per
  simulated cycle (near zero when the freelists are circulating).

The perf work in this tree (SoA channels, token pooling, batched
channel operations) is measured against exactly this view; keep using it before
and after any hot-path change.
"""

import cProfile
import os
import pstats
import time


def add_profile_arguments(parser):
    """Attach the profile-specific flags to the __main__ parser."""
    parser.add_argument(
        "--org", default="two-level",
        choices=("shared", "private", "two-level", "traditional"),
        help="memory-system organization to profile (default two-level)",
    )
    parser.add_argument(
        "--engine", default=None, choices=("demand", "legacy"),
        help="simulation engine for profile/trace/spans "
             "(default: REPRO_ENGINE env, else demand)",
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the top-functions table (default 20)",
    )
    parser.add_argument(
        "--all-functions", action="store_true",
        help="include non-repro frames (numpy, stdlib) in the tables",
    )
    parser.add_argument(
        "--pstats-out", default=None, metavar="PATH",
        help="also dump the raw cProfile stats for snakeviz/pstats",
    )


def _org_constant(name):
    from repro.fabric import design

    return {
        "shared": design.MOMS_SHARED,
        "private": design.MOMS_PRIVATE,
        "two-level": design.MOMS_TWO_LEVEL,
        "traditional": design.MOMS_TRADITIONAL,
    }[name]


def _module_of(filename):
    """Map a profiler filename to a repro module label, or None."""
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return None
    relative = filename[index + len(marker):]
    if relative.endswith(".py"):
        relative = relative[:-3]
    return relative.replace(os.sep, ".")


def _collect_rows(stats):
    """(module_rows, function_rows) aggregated from a pstats object.

    ``module_rows``: {module: [self_s, calls]} over repro code only.
    ``function_rows``: (self_s, cumulative_s, calls, label, is_repro).
    """
    modules = {}
    functions = []
    for (filename, lineno, name), row in stats.stats.items():
        cc, ncalls, tottime, cumtime, _callers = row
        module = _module_of(filename)
        if module is not None:
            entry = modules.setdefault(module, [0.0, 0])
            entry[0] += tottime
            entry[1] += ncalls
            label = f"{module}:{name}"
        else:
            base = os.path.basename(filename) if filename else filename
            label = f"{base}:{name}" if base else name
        functions.append((tottime, cumtime, ncalls, label, module is not None))
    return modules, functions


def run_profile(args, log=print):
    """Profile one quick point; prints the tables, returns an exit code."""
    # Imported here: the CLI parser must stay importable without the
    # simulation stack (same convention as the trace subcommand).
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine

    from repro.accel.config import (
        ArchitectureConfig,
        SCALED_DEFAULTS,
        _design,
    )
    from repro.accel.system import AcceleratorSystem
    from repro.core import messages
    from repro.core.stats import EngineActivity
    from repro.experiments.common import bench_graph, iteration_budget
    from repro.report import format_table

    quick = not args.full
    graph = bench_graph(args.graph, quick=quick)
    config = ArchitectureConfig(
        _design(4, 4, _org_constant(args.org), args.algorithm, n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(graph, args.algorithm, config)
    budget = iteration_budget(args.algorithm, quick)

    messages.reset_pool_counters()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = system.run(max_iterations=budget)
    profiler.disable()
    wall = time.perf_counter() - start
    fresh = messages.fresh_allocations()

    stats = pstats.Stats(profiler)
    if args.pstats_out:
        stats.dump_stats(args.pstats_out)
    modules, functions = _collect_rows(stats)

    engine_name = os.environ.get("REPRO_ENGINE", "demand") or "demand"
    log(f"profiled: {args.algorithm} on {graph.name} / {args.org} 4x4, "
        f"engine={engine_name}")
    log(f"  {result.cycles:,} cycles in {wall:.3f}s wall "
        f"({result.cycles / wall:,.0f} cycles/s), "
        f"{result.edges_processed:,} edges")

    total_self = sum(entry[0] for entry in modules.values()) or 1.0
    module_rows = [
        {
            "component": module,
            "self_s": entry[0],
            "share_pct": 100.0 * entry[0] / total_self,
            "calls": entry[1],
        }
        for module, entry in sorted(
            modules.items(), key=lambda item: -item[1][0]
        )
    ]
    log("")
    log(format_table(
        module_rows,
        columns=("component", "self_s", "share_pct", "calls"),
        title="per-component self time (repro modules)",
    ))

    pool = functions if args.all_functions \
        else [row for row in functions if row[4]]
    pool.sort(key=lambda row: -row[0])
    function_rows = [
        {
            "function": label,
            "self_s": tottime,
            "cum_s": cumtime,
            "calls": ncalls,
        }
        for tottime, cumtime, ncalls, label, _is_repro in pool[:args.top]
    ]
    log("")
    log(format_table(
        function_rows,
        columns=("function", "self_s", "cum_s", "calls"),
        title=f"top {len(function_rows)} functions by self time",
    ))

    activity = EngineActivity.from_engine(system.engine)
    log("")
    log(f"engine: {activity.summary_line()}")
    aborts = ", ".join(
        f"{reason}={activity.fusion_abort_reasons[reason]}"
        for reason in sorted(activity.fusion_abort_reasons)
    ) or "none"
    log(f"fusion: {activity.fused_runs} fused runs covering "
        f"{activity.fused_cycles:,} cycles "
        f"(mean {activity.mean_run_len:.1f}); aborts: {aborts}")
    per_cycle = fresh / result.cycles if result.cycles else 0.0
    log(f"tokens: {fresh} fresh constructions over {result.cycles:,} "
        f"cycles = {per_cycle:.4f} allocations/cycle "
        f"(pools: {messages.pool_stats()})")
    if args.pstats_out:
        log(f"raw stats written to {args.pstats_out}")
    return 0
