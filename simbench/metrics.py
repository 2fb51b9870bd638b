"""Per-layer metrics of one traced run, and the workload split checks.

Self times come from :class:`layers.LayerTracer`; counts come from the
stats objects the simulator modules keep (``EngineActivity``,
``PEStats``, ``BankStats``, ``MshrStats``, ``SubentryStats``,
``CacheStats``, ``DramStats``), except ``sim.channel.ops``, which is
the number of calls that crossed into the channel layer.  ``ns_per_*``
is a layer's self time over the named count.  Stall counts overlap
across components (one blocked request can stall a bank, its port and
the PE behind it), so they are counts, never cycles lost.

The ``check.*_gap`` metrics compare the program's own counter with the
calls the wrappers saw: counter minus wrapped calls.  A non-zero gap is
work done on a path that bypasses the wrapped method, such as the
fused bank retry spin (``MomsBank.step_n``), which replays failing
MSHR inserts and lookups in bulk through ``failing_insert_run``.
``check.pe_edge_gap`` is weaker: both of its sides are the PEs' own
``edges_processed`` counter, once as the run's total and once as its
growth inside wrapped PE ``tick``/``step_n`` calls.  It is 0 by
construction unless edges are counted outside those two methods, so
it cannot show a vector or fused path that skips wrapped work.
"""

from repro.core.stats import EngineActivity

# name -> unit, in report order; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "graph.generate_s": "s",
    "graph.reorder_s": "s",
    "graph.partition_s": "s",
    "accel.system.build_s": "s",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
    "accel.system.self_s": "s",
    "accel.scheduler.self_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.component_ticks": "count",
    "sim.engine.component_wakes": "count",
    "sim.engine.tick_fraction": "ratio",
    "sim.engine.cycles_skipped": "count",
    "sim.engine.fused_cycles": "count",
    "sim.engine.ns_per_tick": "ns",
    "sim.channel.self_s": "s",
    "sim.channel.ops": "count",
    "sim.channel.ns_per_op": "ns",
    "accel.pe.self_s": "s",
    "accel.pe.edges": "count",
    "accel.pe.ns_per_edge": "ns",
    "accel.pe.raw_stalls": "count",
    "accel.pe.moms_request_stalls": "count",
    "accel.pe.id_stalls": "count",
    "core.bank.self_s": "s",
    "core.bank.requests": "count",
    "core.bank.cache_hits": "count",
    "core.bank.primary_misses": "count",
    "core.bank.secondary_misses": "count",
    "core.bank.merge_rate": "ratio",
    "core.bank.ns_per_request": "ns",
    "core.bank.stall_mshr": "count",
    "core.bank.stall_subentry": "count",
    "core.bank.stall_downstream": "count",
    "core.bank.stall_response_port": "count",
    "core.mshr.self_s": "s",
    "core.mshr.self_share": "ratio",
    "core.mshr.lookups": "count",
    "core.mshr.inserts": "count",
    "core.mshr.insert_failures": "count",
    "core.mshr.kicks": "count",
    "core.mshr.insert_fail_ratio": "ratio",
    "core.mshr.ns_per_insert": "ns",
    "core.subentry.self_s": "s",
    "core.subentry.appends": "count",
    "core.subentry.overflows": "count",
    "core.cache.self_s": "s",
    "core.cache.probes": "count",
    "core.cache.hit_rate": "ratio",
    "mem.dram.self_s": "s",
    "mem.dram.lines_single": "count",
    "mem.dram.lines_burst": "count",
    "mem.dram.lines_written": "count",
    "mem.dram.single_line_fraction": "ratio",
    "mem.dram.effective_bandwidth_ratio": "ratio",
    "mem.dram.peak_queue": "count",
    "mem.dram.ns_per_beat": "ns",
    "fabric.crossbar.self_s": "s",
    "fabric.crossbar.ticks": "count",
    "fabric.crossing.self_s": "s",
    "fabric.crossing.ticks": "count",
    "fabric.arbiter.self_s": "s",
    "fabric.arbiter.ticks": "count",
    "check.mshr_insert_gap": "count",
    "check.mshr_lookup_gap": "count",
    "check.subentry_append_gap": "count",
    "check.pe_edge_gap": "count",
}


def _ns_per(seconds, count):
    return seconds * 1e9 / count if count else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _total(objects, field):
    return sum(getattr(obj, field) for obj in objects)


def layer_metrics(tracer, system, result, setup_layers, plain_s, traced_s):
    """Per-layer metrics of *system* after its traced run.

    Returns ``(metrics, units)``.
    """
    activity = EngineActivity.from_engine(system.engine)
    banks = system.hierarchy.banks
    bank_stats = [bank.stats for bank in banks]
    mshr = [bank.mshrs.stats for bank in banks]
    subentry = [bank.subentries.stats for bank in banks]
    cache = [bank.cache.stats for bank in banks]
    dram = [channel.stats for channel in system.mem.channels]
    pes = [element.stats for element in system.pes]
    calls = tracer.calls
    self_s = tracer.self_s

    requests = _total(bank_stats, "requests")
    primary = _total(bank_stats, "primary_misses")
    secondary = _total(bank_stats, "secondary_misses")
    inserts = _total(mshr, "inserts")
    failures = _total(mshr, "insert_failures")
    beats = sum(stats.total_beats for stats in dram)
    busy = _total(dram, "busy_cycles")
    lines_single = _total(dram, "lines_single")
    lines_burst = _total(dram, "lines_burst")
    ops = tracer.entries_of("sim.channel")

    def ticks(kind):
        return activity.by_kind.get(kind, {}).get("ticks", 0)

    metrics = {
        "graph.generate_s": setup_layers["graph.generate"],
        "graph.reorder_s": setup_layers["graph.reorder"],
        "graph.partition_s": setup_layers["graph.partition"],
        "accel.system.build_s": setup_layers["accel.system"],
        "trace.run_s": traced_s,
        "trace.overhead": traced_s / plain_s,
        "accel.system.self_s": self_s("accel.system"),
        "accel.scheduler.self_s": self_s("accel.scheduler"),
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.component_ticks": activity.component_ticks,
        "sim.engine.component_wakes": activity.component_wakes,
        "sim.engine.tick_fraction": activity.tick_fraction,
        "sim.engine.cycles_skipped": activity.cycles_skipped,
        "sim.engine.fused_cycles": activity.fused_cycles,
        "sim.engine.ns_per_tick": _ns_per(self_s("sim.engine"),
                                          activity.component_ticks),
        "sim.channel.self_s": self_s("sim.channel"),
        "sim.channel.ops": ops,
        "sim.channel.ns_per_op": _ns_per(self_s("sim.channel"), ops),
        "accel.pe.self_s": self_s("accel.pe"),
        "accel.pe.edges": result.edges_processed,
        "accel.pe.ns_per_edge": _ns_per(self_s("accel.pe"),
                                        result.edges_processed),
        "accel.pe.raw_stalls": _total(pes, "raw_stalls"),
        "accel.pe.moms_request_stalls": _total(pes, "moms_request_stalls"),
        "accel.pe.id_stalls": _total(pes, "id_stalls"),
        "core.bank.self_s": self_s("core.bank"),
        "core.bank.requests": requests,
        "core.bank.cache_hits": _total(bank_stats, "cache_hits"),
        "core.bank.primary_misses": primary,
        "core.bank.secondary_misses": secondary,
        "core.bank.merge_rate": _ratio(secondary, primary + secondary),
        "core.bank.ns_per_request": _ns_per(self_s("core.bank"), requests),
        "core.bank.stall_mshr": _total(bank_stats, "stall_mshr"),
        "core.bank.stall_subentry": _total(bank_stats, "stall_subentry"),
        "core.bank.stall_downstream": _total(bank_stats, "stall_downstream"),
        "core.bank.stall_response_port": _total(bank_stats,
                                                "stall_response_port"),
        "core.mshr.self_s": self_s("core.mshr"),
        "core.mshr.self_share": _ratio(self_s("core.mshr"), traced_s),
        "core.mshr.lookups": _total(mshr, "lookups"),
        "core.mshr.inserts": inserts,
        "core.mshr.insert_failures": failures,
        "core.mshr.kicks": _total(mshr, "kicks"),
        "core.mshr.insert_fail_ratio": _ratio(failures, inserts + failures),
        "core.mshr.ns_per_insert": _ns_per(self_s("core.mshr"), inserts),
        "core.subentry.self_s": self_s("core.subentry"),
        "core.subentry.appends": _total(subentry, "appends"),
        "core.subentry.overflows": _total(subentry, "overflows"),
        "core.cache.self_s": self_s("core.cache"),
        "core.cache.probes": _total(cache, "probes"),
        "core.cache.hit_rate": _ratio(_total(cache, "hits"),
                                      _total(cache, "probes")),
        "mem.dram.self_s": self_s("mem.dram"),
        "mem.dram.lines_single": lines_single,
        "mem.dram.lines_burst": lines_burst,
        "mem.dram.lines_written": _total(dram, "lines_written"),
        "mem.dram.single_line_fraction": _ratio(lines_single,
                                                lines_single + lines_burst),
        "mem.dram.effective_bandwidth_ratio": _ratio(beats, busy),
        "mem.dram.peak_queue": max(stats.peak_queue for stats in dram),
        "mem.dram.ns_per_beat": _ns_per(self_s("mem.dram"), beats),
        "fabric.crossbar.self_s": self_s("fabric.crossbar"),
        "fabric.crossbar.ticks": ticks("Crossbar"),
        "fabric.crossing.self_s": self_s("fabric.crossing"),
        "fabric.crossing.ticks": ticks("DieCrossing"),
        "fabric.arbiter.self_s": self_s("fabric.arbiter"),
        "fabric.arbiter.ticks": ticks("RoundRobinArbiter"),
        "check.mshr_insert_gap": inserts + failures
        - calls.get("CuckooMshrFile.insert", 0)
        - calls.get("AssociativeMshrFile.insert", 0),
        "check.mshr_lookup_gap": _total(mshr, "lookups")
        - calls.get("CuckooMshrFile.lookup", 0)
        - calls.get("AssociativeMshrFile.lookup", 0),
        "check.subentry_append_gap": _total(subentry, "appends")
        + _total(subentry, "overflows")
        - calls.get("SubentryStore.append", 0)
        - calls.get("SubentryStore._append_columnar", 0),
        "check.pe_edge_gap": result.edges_processed - tracer.pe_edges,
    }
    return metrics, dict(PER_LAYER_UNITS)


def split_checks(per_workload):
    """The layer split the three workloads were chosen for.

    *per_workload* maps workload name to its per-layer metrics as
    reported (``{"value", "unit"}`` entries).  Yields (description,
    holds) pairs.
    """
    def value(workload, metric):
        return per_workload[workload][metric]["value"]

    starved, uk, rv = ("scc-rv-mshr-starved", "scc-uk-traditional",
                       "pagerank-rv-twolevel")
    yield ("core.mshr.self_share on scc-rv-mshr-starved >= 5x "
           "scc-uk-traditional",
           value(starved, "core.mshr.self_share")
           >= 5 * value(uk, "core.mshr.self_share"))
    yield ("sim.engine.fused_cycles > 0 on scc-rv-mshr-starved",
           value(starved, "sim.engine.fused_cycles") > 0)
    yield ("core.cache.hit_rate higher on scc-uk-traditional than on "
           "pagerank-rv-twolevel",
           value(uk, "core.cache.hit_rate") > value(rv, "core.cache.hit_rate"))
