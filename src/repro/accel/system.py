"""Top-level accelerator system (paper Fig. 6) and the run loop.

Assembles DRAM channels, the burst interconnect (with per-channel
arbiters and die crossings), the MOMS hierarchy, the PEs, and the
scheduler for one (graph, algorithm, architecture) triple; then runs
Template 1 iterations to convergence or an iteration budget, and
reports functional results plus cycle-accurate statistics converted to
wall-clock throughput with the design's modeled frequency.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from repro.accel.algorithms import get_spec
from repro.accel.pe import ProcessingElement
from repro.accel.scheduler import Scheduler
from repro.accel.template import AlgorithmSpec
from repro.core.hierarchy import build_hierarchy
from repro.fabric.arbiter import RoundRobinArbiter
from repro.fabric.crossing import cross_link
from repro.fabric.design import MOMS_TRADITIONAL
from repro.fabric.floorplan import AWS_F1_FLOORPLAN
from repro.fabric.frequency import FrequencyModel
from repro.graph.layout import GraphLayout
from repro.graph.partition import partition_edges
from repro.graph.reorder import compose, dbg_reorder, hash_cache_lines
from repro.mem.system import MemorySystem
from repro.sim import Channel, make_engine
from repro.sim.probe import make_probe


@dataclass
class RunResult:
    """Outcome of one accelerator run."""

    values: np.ndarray
    iterations: int
    cycles: int
    frequency_mhz: float
    edges_processed: int
    dram_bytes_read: int
    dram_bytes_written: int
    hit_rate: float
    stats: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.cycles / (self.frequency_mhz * 1e6)

    @property
    def gteps(self):
        """Billions of traversed edges per second (processed edges)."""
        if self.cycles == 0:
            return 0.0
        return self.edges_processed / self.seconds / 1e9

    @property
    def bandwidth_gb_s(self):
        total = self.dram_bytes_read + self.dram_bytes_written
        return total / self.seconds / 1e9 if self.cycles else 0.0


def _observer(name, value, observer_cls, config_cls):
    """Coerce an observer argument: an instance, its config, or True."""
    if isinstance(value, observer_cls):
        return value
    if value is True:
        return observer_cls()
    if isinstance(value, config_cls):
        return observer_cls(value)
    raise TypeError(
        f"{name} must be a {observer_cls.__name__}, "
        f"{config_cls.__name__}, or True; got {value!r}"
    )


def _round_up_pow2(value):
    power = 1
    while power < value:
        power *= 2
    return power


class AcceleratorSystem:
    """One fully assembled accelerator instance."""

    def __init__(self, graph, algorithm, config, use_hashing=True,
                 use_dbg=False, source=0, seed=0, checks=False,
                 fault_plan=None, watchdog_window=200_000,
                 telemetry=None, checkpoint=None, spans=None):
        self.original_graph = graph
        if isinstance(algorithm, AlgorithmSpec):
            self.spec = algorithm
        elif algorithm in ("sssp", "bfs"):
            self.spec = get_spec(algorithm, source=source)
        else:
            self.spec = get_spec(algorithm)
        config.validate(weighted=self.spec.weighted)
        self.config = config.scaled_for(graph)
        self.use_hashing = use_hashing
        self.use_dbg = use_dbg

        # The layout takes its edge width from the graph, so the graph
        # must carry weights exactly when the kernel decodes them.
        working = graph
        if self.spec.weighted and not working.weighted:
            working = working.with_weights(np.random.default_rng(42))
        elif working.weighted and not self.spec.weighted:
            working = working.without_weights()
        permutation = None
        if use_dbg:
            permutation = dbg_reorder(working)
        if use_hashing:
            hashing = hash_cache_lines(
                working.n_nodes, self.config.nodes_per_dst_interval,
                seed=11 + seed,
            )
            permutation = (
                hashing if permutation is None
                else compose(permutation, hashing)
            )
        self._preperm_graph = working
        if permutation is not None:
            working = working.relabel(permutation)
        self.graph = working
        self.permutation = permutation

        self._build()

        # Opt-in robustness instrumentation (repro.faults).  Imported
        # lazily so the default path never touches the package.
        self.ledger = None
        self.fault_state = None
        if checks:
            from repro.faults import TokenLedger, Watchdog
            self.ledger = TokenLedger()
            self.engine.watchdog = Watchdog(window=watchdog_window)
        if fault_plan is not None:
            from repro.faults import install_faults
            install_faults(self, fault_plan)

        # Opt-in observers on the probe bus, lazily imported:
        # cycle-resolved telemetry (repro.telemetry) and request-level
        # span tracing (repro.tracing).  Each argument is the observer's
        # config, an observer instance, or True for defaults; the
        # default path pays only the "_probe is None" gates.
        self.telemetry = None
        if telemetry:
            from repro.telemetry import Telemetry, TelemetryConfig
            self.telemetry = _observer(
                "telemetry", telemetry, Telemetry, TelemetryConfig,
            ).attach(self)
        self.tracer = None
        if spans:
            from repro.tracing import SpanTracer, SpansConfig
            self.tracer = _observer(
                "spans", spans, SpanTracer, SpansConfig,
            ).attach(self)
        self._wire_probe()

        # Opt-in periodic checkpointing (repro.checkpoint): accepts a
        # Checkpointer, a "path[:interval]" spec string, or nothing --
        # in which case the REPRO_CHECKPOINT environment spec applies.
        # Lazily imported like the other robustness hooks; disabled
        # runs pay only the engine's "is None" gate.
        self.checkpointer = None
        if checkpoint is None:
            checkpoint = os.environ.get("REPRO_CHECKPOINT", "").strip() \
                or None
        if checkpoint is not None:
            from repro.checkpoint import Checkpointer
            if isinstance(checkpoint, Checkpointer):
                checkpointer = checkpoint
            else:
                checkpointer = Checkpointer.from_spec(checkpoint)
            checkpointer.attach(self)
            self.checkpointer = checkpointer

    # -- construction --------------------------------------------------------

    def _wire_probe(self):
        """Point every observed component's ``_probe`` slot at the
        attached observers (repro.sim.probe): the ledger, telemetry
        and span tracer all subscribe to the one event bus."""
        probe = make_probe((self.ledger, self.telemetry, self.tracer))
        if probe is None:
            return
        hierarchy = self.hierarchy
        for component in (*self.pes, *hierarchy.banks,
                          *hierarchy.crossbars, *self.mem.channels):
            component._probe = probe

    def _build(self):
        config = self.config
        design = config.design
        spec = self.spec
        self.engine = make_engine()
        self.partitioning = partition_edges(
            self.graph, config.nodes_per_src_interval,
            config.nodes_per_dst_interval,
        )
        self.layout = GraphLayout(
            self.partitioning,
            node_bytes=spec.node_bytes,
            use_const=spec.use_const,
            synchronous=spec.synchronous,
        )
        mem_bytes = _round_up_pow2(self.layout.required_bytes + (1 << 16))
        self.mem = MemorySystem(
            self.engine, mem_bytes, n_channels=design.n_channels,
            timings=config.dram_timings,
        )
        floorplan = AWS_F1_FLOORPLAN if config.use_floorplan else None
        self.floorplan = floorplan
        self.hierarchy = build_hierarchy(
            self.engine, self.mem, design, scale=config.structure_scale,
            cache_scale=config.cache_scale, floorplan=floorplan,
        )
        self.frequency_model = FrequencyModel()
        self.frequency_mhz = self.frequency_model.frequency_mhz(design)

        # Burst interconnect: per-PE DMA ports into per-channel arbiters,
        # with die crossings where PE and controller sit on different SLRs.
        pe_dies = (floorplan.assign_pes(design.n_pes)
                   if floorplan is not None else [None] * design.n_pes)
        burst_ports = [[None] * design.n_channels
                       for _ in range(design.n_pes)]
        for channel_index, channel in enumerate(self.mem.channels):
            inputs = []
            for pe in range(design.n_pes):
                hops = 0
                if floorplan is not None:
                    hops = floorplan.hops(
                        pe_dies[pe], floorplan.die_of_channel(channel_index)
                    )
                near, far = cross_link(
                    self.engine, 4, hops,
                    name=f"burst.pe{pe}.ch{channel_index}",
                )
                burst_ports[pe][channel_index] = near
                inputs.append(far)
            self.engine.add_component(
                RoundRobinArbiter(inputs, channel.req,
                                  name=f"burst.arb{channel_index}")
            )

        job_channel = self.engine.add_channel(Channel(1, name="jobs"))
        done_channel = self.engine.add_channel(
            Channel(max(2, design.n_pes), name="done")
        )
        self.scheduler = Scheduler(job_channel, done_channel,
                                   self.partitioning)
        self.engine.add_component(self.scheduler)

        self.pes = []
        for pe in range(design.n_pes):
            dma_resp = self.engine.add_channel(
                Channel(config.dma_queue_beats, name=f"pe{pe}.dma")
            )
            element = ProcessingElement(
                pe, spec, self.layout, self.mem, config,
                moms_req=self.hierarchy.pe_req_ports[pe],
                moms_resp=self.hierarchy.pe_resp_ports[pe],
                burst_ports=burst_ports[pe],
                dma_resp=dma_resp,
                job_channel=job_channel,
                done_channel=done_channel,
            )
            self.engine.add_component(element)
            self.pes.append(element)

        # Materialize the graph image.  Initial values are defined in the
        # *original* labeling (e.g. SCC labels are node ids, SSSP's source
        # is an original id) and scattered through the reordering
        # permutation into the working label space.
        v_in = spec.initial_dram_image(self._preperm_graph)
        v_const = spec.const_dram_image(self._preperm_graph)
        if self.permutation is not None:
            v_in = self._scatter(v_in)
            v_const = self._scatter(v_const) if v_const is not None else None
        self.layout.materialize(self.mem, v_in, v_const)
        base = spec.const_scalar(self.graph)
        for element in self.pes:
            element.configure_run(base)

    def _scatter(self, values):
        """Move a per-node array from original into working label space."""
        out = np.empty_like(values)
        out[self.permutation] = values
        return out

    # -- execution -----------------------------------------------------------

    def _update_active_flags(self):
        part = self.partitioning
        active = self.scheduler.active_srcs
        for d in range(part.q_dst):
            for s in range(part.q_src):
                self.layout.set_active(self.mem, d, s, bool(active[s]))

    # The outer run loop keeps its state in ``_run_*`` instance
    # attributes instead of local variables so a snapshot taken
    # mid-iteration (repro.checkpoint) captures it: Python frames do
    # not pickle, but the attributes do, and resume_run() re-enters
    # the loop from them.
    _run_in_iteration = False

    def run(self, max_iterations=None, max_cycles_per_iteration=5_000_000):
        """Run to convergence (or the iteration budget); returns RunResult."""
        spec = self.spec
        if max_iterations is None:
            max_iterations = 10 if spec.always_active else 1_000
        self._run_iterations = 0
        self._run_max_iterations = max_iterations
        self._run_budget = max_cycles_per_iteration
        self._run_start_cycle = self.engine.now
        self._run_iter_start = self.engine.now
        self._run_in_iteration = False
        if self.telemetry is not None:
            self.telemetry.begin(self.engine)
        return self._drive(resume=False)

    def resume_run(self):
        """Continue a snapshot-restored run to completion.

        Only valid on a system restored mid-run by
        :func:`repro.checkpoint.restore_system`; the interrupted
        iteration finishes first (with the remaining slice of its cycle
        budget), then the outer loop proceeds as if never interrupted.
        The returned RunResult is bit-identical to the uninterrupted
        run's.
        """
        if not self._run_in_iteration:
            raise RuntimeError(
                "resume_run() needs a run interrupted mid-iteration; "
                "this system has none (snapshots are only written "
                "inside engine.run, so any loaded snapshot has one)"
            )
        return self._drive(resume=True)

    def _drive(self, resume):
        spec = self.spec
        while True:
            if resume:
                resume = False
                engine_resume = True  # finish the interrupted iteration
            else:
                if self._run_iterations >= self._run_max_iterations:
                    break
                if not spec.always_active:
                    self._update_active_flags()
                queued = self.scheduler.start_iteration(spec.always_active)
                if queued == 0:
                    break
                self._run_iterations += 1
                self._run_iter_start = self.engine.now
                self._run_in_iteration = True
                engine_resume = False
            # raise_on_limit: a busted budget raises CycleLimitError
            # with the activity counters and a stall report attached.
            # A resumed iteration gets only the unused remainder of its
            # budget, so interrupting cannot extend the allowance.
            # stable_done: _iteration_done reads scheduler queues and
            # PE phases, all of which flip only through channel pushes
            # or phase transitions on real ticks -- never inside a
            # silent cycle -- so macro-tick fusion (REPRO_FUSION) is
            # licensed for the accelerator run loop.
            self.engine.run(
                done=self._iteration_done,
                max_cycles=self._run_budget
                - (self.engine.now - self._run_iter_start),
                raise_on_limit=True,
                resume=engine_resume,
                stable_done=True,
            )
            self._run_in_iteration = False
            if self.ledger is not None:
                self._check_iteration_drained(self._run_iterations)
            work_remains = self.scheduler.finish_iteration()
            if spec.synchronous:
                self.layout.swap_in_out()
            if not spec.always_active and not work_remains:
                break
        return self._finish_run()

    def _finish_run(self):
        spec = self.spec
        iterations = self._run_iterations
        cycles = self.engine.now - self._run_start_cycle
        if self.telemetry is not None:
            self.telemetry.finalize(self.engine)
        words = self.layout.read_values(self.mem, "in")
        if spec.node_bytes == 4:
            words = np.asarray(words, dtype=np.uint32)
        values = spec.finalize(words, self.graph)
        if self.permutation is not None:
            # Report results in the original labeling.
            values = values[self.permutation]
        return RunResult(
            values=values,
            iterations=iterations,
            cycles=cycles,
            frequency_mhz=self.frequency_mhz,
            edges_processed=sum(pe.stats.edges_processed for pe in self.pes),
            dram_bytes_read=self.mem.total_bytes_read(),
            dram_bytes_written=self.mem.total_bytes_written(),
            hit_rate=self.hierarchy.hit_rate(),
            stats=self._collect_stats(),
        )

    def _check_iteration_drained(self, iteration):
        """End-of-iteration invariants: ledger + structural drain."""
        from repro.faults import check_drained
        context = f"end of iteration {iteration}"
        if self.ledger is not None:
            self.ledger.assert_drained(context)
        check_drained(self, context)
        for channel in self.engine._channels:
            channel.validate()

    @property
    def use_active_flags(self):
        return not self.spec.always_active

    def _iteration_done(self):
        return (
            self.scheduler.iteration_done()
            and all(pe.is_idle() for pe in self.pes)
        )

    def _collect_stats(self):
        design = self.config.design
        # Macro-tick bookkeeping (fused_runs & co.) describes how the
        # engine advanced time, and legitimately varies with hook
        # cadence: a checkpointer or sampler clamps fusion horizons, so
        # a checkpointed run fuses differently from a bare one while
        # computing the exact same model.  Per-run stats are an
        # architectural fingerprint (replay and chaos compare them
        # across hook configurations bit for bit), so the bookkeeping
        # stays out of them; it is surfaced through EngineActivity
        # (profile) and the telemetry summary instead.
        engine_activity = self.engine.activity()
        for key in self.engine.FUSION_BOOKKEEPING_KEYS:
            engine_activity.pop(key, None)
        stats = {
            "raw_stalls": sum(pe.stats.raw_stalls for pe in self.pes),
            "moms_request_stalls": sum(
                pe.stats.moms_request_stalls for pe in self.pes
            ),
            "id_stalls": sum(pe.stats.id_stalls for pe in self.pes),
            "local_reads": sum(pe.stats.local_reads for pe in self.pes),
            "moms_reads": sum(pe.stats.moms_reads for pe in self.pes),
            "jobs": self.scheduler.jobs_completed,
            "dram_lines_single": sum(
                ch.stats.lines_single for ch in self.mem.channels
            ),
            "dram_single_line_fraction": self.mem.single_line_fraction(),
            "dram_effective_bw_ratio": self.mem.effective_bandwidth_ratio(),
            "stall_breakdown": self.hierarchy.stall_breakdown(),
            "organization": design.organization,
            "cycles_skipped": self.engine.cycles_skipped,
            "engine": engine_activity,
        }
        # MSHR merge rate -- merged (secondary) misses over all misses,
        # the paper's key coalescing-efficiency figure (Fig. 12).
        merge_by_bank = {}
        secondary_total = miss_total = 0
        for bank in self.hierarchy.banks:
            secondary = bank.stats.secondary_misses
            misses = secondary + bank.stats.primary_misses
            secondary_total += secondary
            miss_total += misses
            merge_by_bank[bank.name] = (
                round(secondary / misses, 4) if misses else 0.0
            )
        stats["mshr_merge_rate"] = (
            round(secondary_total / miss_total, 4) if miss_total else 0.0
        )
        stats["mshr_merge_rate_by_bank"] = merge_by_bank
        if self.telemetry is not None:
            stats["telemetry"] = self.telemetry.summary()
        # getattr: systems restored from pre-tracing snapshots have no
        # tracer attribute (older snapshots are accepted, DESIGN 6.7).
        tracer = getattr(self, "tracer", None)
        if tracer is not None:
            stats["spans"] = tracer.summary()
        return stats


def run_algorithm(graph, algorithm, config, **kwargs):
    """Convenience one-shot: build a system and run it."""
    run_kwargs = {}
    if "max_iterations" in kwargs:
        run_kwargs["max_iterations"] = kwargs.pop("max_iterations")
    system = AcceleratorSystem(graph, algorithm, config, **kwargs)
    return system.run(**run_kwargs)
