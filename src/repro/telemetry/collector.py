"""Cycle-resolved telemetry: gauges, latency histograms, stall accounting.

The paper's headline argument is about *occupancy over time* -- a
miss-optimized memory system wins because thousands of misses stay in
flight across the DRAM latency window -- yet scalar end-of-run counters
cannot show that shape.  This module records it:

* **Gauges / timelines** -- a periodic sampler (driven from the engine
  run loop, one ``is None`` test per step when disabled) snapshots MSHR
  occupancy per bank, subentry-buffer fill, DRAM queue depths and
  rolling bandwidth (burst vs single split), and PE input/output
  backpressure into a per-run time series.
* **Latency histograms** -- log2-bucketed issue->response latency per
  requester (PE MOMS reads), per bank (miss issue -> line return) and
  per DRAM channel (request accept -> beat delivery).
* **Stall attribution** -- every PE and bank cycle in the run window is
  attributed to exactly one category (busy, pipeline, waiting-on-mem,
  output-backpressure, raw-stall, mshr-full, subentry-full,
  downstream-full, idle); the per-component table sums exactly to the
  run's cycle count by construction.
* **Spans** -- PE phase intervals (idle/init/pointers/stream/writeback)
  for the Perfetto export (:mod:`repro.telemetry.perfetto`).

The collector is a probe-bus subscriber (:mod:`repro.sim.probe`): the
components' ``_probe`` slots default to ``None``, so the disabled path
costs one attribute load and ``is None`` test per site, and the
enabled path never perturbs architectural state -- cycle counts and
results are bit-identical with telemetry on or off, on both engines.

Demand-driven caveat: samples are taken on *simulated* cycles only.
During fast-forwarded idle windows no component state changes, so the
skipped samples would have repeated the previous row; the timeline
simply has no duplicate points there.
"""

import math
from collections import deque
from dataclasses import dataclass

from repro.accel.pe import (
    IDLE as PE_IDLE,
    INIT_CONST,
    INIT_VIN,
    POINTERS,
    STREAM,
    WRITEBACK,
)
from repro.sim.probe import Probe

# v2 added the "fusion" block (macro-tick run counters, explicit
# zeros when fusion is off); consumers are tolerant of missing keys.
TELEMETRY_SCHEMA_VERSION = 2

# Stall-attribution categories.  Every accounted cycle lands in exactly
# one of these; BUSY and PIPELINE are the productive buckets.
BUSY = "busy"
PIPELINE = "pipeline"
WAIT_MEM = "waiting-on-mem"
BACKPRESSURE = "output-backpressure"
RAW = "raw-stall"
MSHR_FULL = "mshr-full"
SUBENTRY_FULL = "subentry-full"
DOWNSTREAM_FULL = "downstream-full"
IDLE = "idle"

PE_REASONS = (BUSY, PIPELINE, WAIT_MEM, BACKPRESSURE, RAW, IDLE)
BANK_REASONS = (BUSY, WAIT_MEM, BACKPRESSURE, MSHR_FULL, SUBENTRY_FULL,
                DOWNSTREAM_FULL, IDLE)


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of one telemetry collection.

    ``sample_interval`` is the gauge-sampling period in cycles; when the
    sample buffer exceeds ``max_samples`` the collector decimates it
    (drops every other row) and doubles the interval, bounding memory
    on arbitrarily long runs.  ``max_spans`` bounds the phase-span list
    the same way (further spans are counted, not stored).
    """

    sample_interval: int = 256
    max_samples: int = 1 << 16
    max_spans: int = 250_000


class LatencyHistogram:
    """Log2-bucketed latency histogram.

    Bucket ``b`` counts latencies with ``bit_length() == b``, i.e. the
    interval ``[2**(b-1), 2**b - 1]`` (bucket 0 is exactly latency 0),
    which is how the FPGA implementation would bucket with a priority
    encoder.
    """

    N_BUCKETS = 48  # covers latencies up to 2**47 cycles

    __slots__ = ("counts", "total", "sum", "max")

    def __init__(self):
        self.counts = [0] * self.N_BUCKETS
        self.total = 0
        self.sum = 0
        self.max = 0

    def record(self, latency):
        if latency < 0:
            latency = 0
        bucket = latency.bit_length()
        if bucket >= self.N_BUCKETS:
            bucket = self.N_BUCKETS - 1
        self.counts[bucket] += 1
        self.total += 1
        self.sum += latency
        if latency > self.max:
            self.max = latency

    def merge(self, other):
        for bucket, count in enumerate(other.counts):
            self.counts[bucket] += count
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        return self

    @property
    def mean(self):
        return self.sum / self.total if self.total else 0.0

    def percentile(self, fraction):
        """Upper bound of the log2 bucket holding the given quantile."""
        if not self.total:
            return 0
        target = max(1, math.ceil(self.total * fraction))
        cumulative = 0
        for bucket, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                return (1 << bucket) - 1 if bucket else 0
        return self.max

    def as_dict(self):
        buckets = {
            str(bucket): count
            for bucket, count in enumerate(self.counts) if count
        }
        return {
            "count": self.total,
            "mean": round(self.mean, 2),
            "max": self.max,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "log2_buckets": buckets,
        }

    def compact(self):
        """The few numbers worth carrying in a sweep journal row."""
        return {
            "count": self.total,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


class _Account:
    """Cycle-attribution bookkeeping for one PE or bank."""

    __slots__ = ("label", "last_tick", "snapshot", "buckets")

    def __init__(self, label):
        self.label = label
        self.last_tick = None  # cycle of the not-yet-classified last tick
        self.snapshot = None
        self.buckets = {}

    def add(self, reason, cycles):
        if cycles:
            self.buckets[reason] = self.buckets.get(reason, 0) + cycles

    def total(self):
        return sum(self.buckets.values())


# -- per-component snapshots and classifiers --------------------------------
#
# A tick is classified at the *next* settle point (the following tick or
# the run's finalize) from the deltas of cheap monotonic counters, so
# the hooks never need to thread outcome flags through the tick bodies.


def _pe_snapshot(pe):
    stats = pe.stats
    dma_pushes = 0
    for port in pe.dma.channel_ports:
        if port is not None:
            dma_pushes += port.total_pushed
    return (
        stats.edges_processed,
        stats.raw_stalls,
        stats.moms_request_stalls + stats.id_stalls,
        pe.dma_resp.total_popped,
        pe.moms_resp.total_popped,
        pe.moms_req.total_pushed,
        dma_pushes,
        stats.jobs_completed,
        getattr(pe, "_applied", 0),
        getattr(pe, "_wb_sent", 0),
        len(pe._pipeline),
    )


def _pe_wait_reason(pe):
    """Why the PE is not progressing, judged from its current state."""
    phase = pe._phase
    if phase == PE_IDLE:
        return IDLE
    if phase in (INIT_CONST, INIT_VIN, POINTERS, WRITEBACK):
        return WAIT_MEM  # blocked on DMA beats or write acknowledgements
    # STREAM: prefer the output-side diagnosis when the request port is
    # the binding constraint, then in-flight memory, then the arithmetic
    # pipeline.
    if pe._edge_queue and pe.moms_req.free_slots() == 0:
        return BACKPRESSURE
    if pe._outstanding_moms or pe._bursts_outstanding:
        return WAIT_MEM
    if pe._pipeline:
        return PIPELINE
    return BUSY


def _classify_pe_tick(pe, old, new):
    if (new[0] > old[0] or new[3] > old[3] or new[4] > old[4]
            or new[5] > old[5] or new[6] > old[6] or new[7] > old[7]
            or new[8] != old[8] or new[9] != old[9] or new[10] != old[10]):
        return BUSY
    if new[1] > old[1]:
        return RAW
    if new[2] > old[2]:
        return BACKPRESSURE
    return _pe_wait_reason(pe)


def _bank_snapshot(bank):
    stats = bank.stats
    return (
        stats.requests,
        stats.responses,
        stats.lines_returned,
        stats.stall_mshr,
        stats.stall_subentry,
        stats.stall_downstream,
        stats.stall_response_port,
    )


def _bank_wait_reason(bank):
    if bank._drain_items is not None:
        # A mid-drain bank only sleeps when the response port is full
        # (with room it re-wakes itself every cycle), so a gap in this
        # state is backpressure, matching the all-tick engine's
        # per-cycle stall_response_port accounting.
        return BACKPRESSURE
    if bank.mshrs.occupancy:
        return WAIT_MEM
    return IDLE


def _classify_bank_tick(bank, old, new):
    if new[0] > old[0] or new[1] > old[1] or new[2] > old[2]:
        return BUSY
    if new[3] > old[3]:
        return MSHR_FULL
    if new[4] > old[4]:
        return SUBENTRY_FULL
    if new[5] > old[5]:
        return DOWNSTREAM_FULL
    if new[6] > old[6]:
        return BACKPRESSURE
    return _bank_wait_reason(bank)


# (snapshot, classify, wait-reason) per accounted component kind.
_PE_KIND = (_pe_snapshot, _classify_pe_tick, _pe_wait_reason)
_BANK_KIND = (_bank_snapshot, _classify_bank_tick, _bank_wait_reason)


def _gap_reason(tick_reason, wait_reason):
    """Attribute the sleep window following a tick.

    A tick that ended in a stall keeps stalling until the wake that
    ends the gap; a productive (or idle) tick's gap is attributed from
    the component's wait state instead.
    """
    if tick_reason in (BUSY, IDLE):
        return wait_reason
    return tick_reason


class Telemetry(Probe):
    """One run's telemetry collection, attached to an AcceleratorSystem.

    The engine drives the sampler (``engine.sampler``); PEs, banks and
    DRAM channels feed the per-event handlers through their ``_probe``
    slot.  Everything here observes -- no method mutates any simulated
    structure.
    """

    def __init__(self, config=None):
        self.config = config or TelemetryConfig()
        self.sample_interval = max(1, int(self.config.sample_interval))
        self.next_sample = 0  # read by the engine run loop
        self.samples = []
        self.samples_dropped = 0
        self.start_cycle = 0
        self.end_cycle = None
        self._system = None
        self._dram = []
        self._pe_accounts = {}
        self._bank_accounts = {}
        # Latency histograms.
        self.moms_latency = {}  # pe_index -> LatencyHistogram
        self.miss_latency = {}  # bank name -> LatencyHistogram
        self.dram_latency = {}  # channel name -> LatencyHistogram
        self._moms_issue_times = {}  # (pe_index, req_id) -> deque of cycles
        self._miss_issue_times = {}  # (bank name, line_addr) -> cycle
        # Spans.
        self.spans = []  # (track, track_id, label, start, end)
        self.spans_dropped = 0
        self._open_phase = {}  # pe_index -> (phase, start)
        # Rolling-bandwidth baselines per DRAM channel.
        self._dram_prev = {}  # name -> (cycle, bytes, burst_lines, single_lines)

    # -- wiring --------------------------------------------------------------

    def attach(self, system):
        """Install the sampler on *system*'s engine and open accounts
        for its PEs, banks and channels (the system wires the probe)."""
        self._system = system
        engine = system.engine
        engine.sampler = self
        now = engine.now
        self.next_sample = now
        for pe in system.pes:
            self._pe_accounts[pe] = _Account(f"pe{pe.pe_index}")
            self.moms_latency[pe.pe_index] = LatencyHistogram()
            self._open_phase[pe.pe_index] = (pe._phase, now)
        for bank in system.hierarchy.banks:
            self._bank_accounts[bank] = _Account(bank.name)
            self.miss_latency[bank.name] = LatencyHistogram()
        for channel in system.mem.channels:
            self._dram.append(channel)
            self.dram_latency[channel.name] = LatencyHistogram()
            stats = channel.stats
            self._dram_prev[channel.name] = (
                now, stats.bytes_read + stats.bytes_written,
                stats.lines_burst, stats.lines_single,
            )
        return self

    @property
    def banks(self):
        """The attached cache banks (for structure-stat export)."""
        return tuple(self._bank_accounts)

    @property
    def dram_channels(self):
        """The attached DRAM channels (for structure-stat export)."""
        return tuple(self._dram)

    def begin(self, engine):
        """Mark the start of the accounted run window."""
        self.start_cycle = engine.now
        self.next_sample = engine.now

    def finalize(self, engine):
        """Close the run window: settle trailing ticks, gaps and spans."""
        end = engine.now
        self.end_cycle = end
        for accounts, kind in ((self._pe_accounts, _PE_KIND),
                               (self._bank_accounts, _BANK_KIND)):
            for component, account in accounts.items():
                if account.last_tick is None:
                    account.add(IDLE,
                                end - self.start_cycle - account.total())
                    continue
                self._close_tick(account, component, kind, end)
                account.last_tick = None
                account.snapshot = None
        for pe_index, (phase, start) in list(self._open_phase.items()):
            if end > start:
                self._add_span("pe", pe_index, phase, start, end)
            self._open_phase[pe_index] = (phase, end)

    # -- sampler (driven by Engine.run) --------------------------------------

    def sample(self, engine):
        """Record one gauge row; called by the engine when due."""
        now = engine.now
        row = {"cycle": now}
        total_mshr = 0
        total_subentries = 0
        for bank in self._bank_accounts:
            occupancy = bank.mshrs.occupancy
            row[f"bank.{bank.name}.mshr"] = occupancy
            live = bank.subentries.entries_live
            row[f"bank.{bank.name}.subentries"] = live
            row[f"bank.{bank.name}.line_in"] = bank.line_in.pending
            total_mshr += occupancy
            total_subentries += live
        row["mshr_total"] = total_mshr
        row["subentries_total"] = total_subentries
        for channel in self._dram:
            stats = channel.stats
            name = channel.name
            row[f"dram.{name}.queue"] = (
                channel.req.pending + channel.pending
            )
            prev_cycle, prev_bytes, prev_burst, prev_single = \
                self._dram_prev[name]
            elapsed = now - prev_cycle
            total_bytes = stats.bytes_read + stats.bytes_written
            if elapsed > 0:
                row[f"dram.{name}.bw_bytes_per_cycle"] = round(
                    (total_bytes - prev_bytes) / elapsed, 3
                )
            else:
                row[f"dram.{name}.bw_bytes_per_cycle"] = 0.0
            row[f"dram.{name}.burst_lines"] = stats.lines_burst - prev_burst
            row[f"dram.{name}.single_lines"] = (
                stats.lines_single - prev_single
            )
            self._dram_prev[name] = (
                now, total_bytes, stats.lines_burst, stats.lines_single,
            )
        for pe in self._pe_accounts:
            index = pe.pe_index
            row[f"pe.{index}.edge_queue"] = len(pe._edge_queue)
            row[f"pe.{index}.moms_outstanding"] = pe._outstanding_moms
            row[f"pe.{index}.req_fill"] = pe.moms_req.pending
            row[f"pe.{index}.resp_fill"] = pe.moms_resp.pending
        row["channel_tokens_total"] = sum(
            channel.pending for channel in engine._channels
        )
        self.samples.append(row)
        if len(self.samples) > self.config.max_samples:
            # Bound memory on long runs: halve resolution, keep coverage.
            self.samples_dropped += len(self.samples) - \
                len(self.samples[::2])
            self.samples = self.samples[::2]
            self.sample_interval *= 2
        interval = self.sample_interval
        self.next_sample = now - now % interval + interval

    # -- per-tick accounting (probe events) ----------------------------------

    def pe_tick(self, pe, now):
        self._tick(self._pe_accounts[pe], pe, _PE_KIND, now)

    def bank_tick(self, bank, now):
        self._tick(self._bank_accounts[bank], bank, _BANK_KIND, now)

    def _tick(self, account, component, kind, now):
        """Settle the previous tick and sleep gap (called at tick start)."""
        if account.last_tick is None:
            account.add(IDLE, now - self.start_cycle)
            snapshot = kind[0](component)
        else:
            snapshot = self._close_tick(account, component, kind, now)
        account.last_tick = now
        account.snapshot = snapshot

    @staticmethod
    def _close_tick(account, component, kind, now):
        """Classify the account's last tick and the gap up to *now*."""
        snapshot_of, classify, wait_reason = kind
        snapshot = snapshot_of(component)
        reason = classify(component, account.snapshot, snapshot)
        account.add(reason, 1)
        gap = now - account.last_tick - 1
        if gap > 0:
            account.add(_gap_reason(reason, wait_reason(component)), gap)
        return snapshot

    # -- phase spans (probe event) -------------------------------------------

    def _add_span(self, track, track_id, label, start, end):
        if len(self.spans) >= self.config.max_spans:
            self.spans_dropped += 1
            return
        self.spans.append((track, track_id, label, start, end))

    def pe_phase(self, pe_index, new_phase, now):
        """PE phase transition: close the open span, open the next."""
        phase, start = self._open_phase[pe_index]
        if now > start:
            self._add_span("pe", pe_index, phase, start, now)
        self._open_phase[pe_index] = (new_phase, now)

    # -- latency histograms (probe events) -----------------------------------

    def moms_issue(self, pe_index, req_id, addr, now):
        key = (pe_index, req_id)
        times = self._moms_issue_times.get(key)
        if times is None:
            times = self._moms_issue_times[key] = deque()
        times.append(now)

    def moms_retire(self, pe_index, req_id, addr, now):
        key = (pe_index, req_id)
        times = self._moms_issue_times.get(key)
        if not times:
            return  # issued before telemetry attached; drop silently
        self.moms_latency[pe_index].record(now - times.popleft())
        if not times:
            del self._moms_issue_times[key]

    def bank_alloc(self, bank_name, req_id, port, line_addr, now):
        # One MSHR per line per bank, so the key is unique while in flight.
        self._miss_issue_times[(bank_name, line_addr)] = now

    def bank_drain(self, bank_name, line_addr, fan_in, now):
        issued = self._miss_issue_times.pop((bank_name, line_addr), None)
        if issued is not None:
            self.miss_latency[bank_name].record(now - issued)

    def dram_deliver(self, channel_name, response, respond_to, now):
        if respond_to is not None and response.issued_at >= 0:
            self.dram_latency[channel_name].record(now - response.issued_at)

    # -- results -------------------------------------------------------------

    @property
    def cycles(self):
        end = self.end_cycle
        if end is None:
            return 0
        return end - self.start_cycle

    def _account_rows(self, accounts, reasons):
        rows = []
        for account in accounts.values():
            row = {"component": account.label}
            total = 0
            for reason in reasons:
                value = account.buckets.get(reason, 0)
                row[reason] = value
                total += value
            for reason, value in account.buckets.items():
                if reason not in reasons:
                    row[reason] = value
                    total += value
            row["total"] = total
            rows.append(row)
        return rows

    def pe_stall_table(self):
        """Per-PE cycle accounting; each row's total == run cycles."""
        return self._account_rows(self._pe_accounts, PE_REASONS)

    def bank_stall_table(self):
        """Per-bank cycle accounting; each row's total == run cycles."""
        return self._account_rows(self._bank_accounts, BANK_REASONS)

    def _bucket_totals(self, accounts):
        totals = {}
        for account in accounts.values():
            for reason, value in account.buckets.items():
                totals[reason] = totals.get(reason, 0) + value
        return totals

    def merged_latency(self, histograms):
        merged = LatencyHistogram()
        for histogram in histograms.values():
            merged.merge(histogram)
        return merged

    def mshr_timeline(self):
        """(cycle, total in-flight misses) pairs from the sampled gauges."""
        return [(row["cycle"], row["mshr_total"]) for row in self.samples]

    def summary(self):
        """Compact, JSON-safe digest for journal rows and reports."""
        mshr = [row["mshr_total"] for row in self.samples]
        engine = self._system.engine if self._system is not None else None
        fused_runs = getattr(engine, "fused_runs", 0)
        fused_cycles = getattr(engine, "fused_cycles", 0)
        abort_reasons = getattr(engine, "fusion_abort_reasons", None) or {}
        bank_stats = [bank.stats for bank in self._bank_accounts]
        requests = sum(s.requests for s in bank_stats)
        hits = sum(s.cache_hits for s in bank_stats)
        secondary = sum(s.secondary_misses for s in bank_stats)
        primary = sum(s.primary_misses for s in bank_stats)
        dram_stats = [channel.stats for channel in self._dram]
        lines_single = sum(s.lines_single for s in dram_stats)
        lines_total = sum(s.lines_total for s in dram_stats)
        busy = sum(s.busy_cycles for s in dram_stats)
        beats = sum(s.total_beats for s in dram_stats)
        return {
            "version": TELEMETRY_SCHEMA_VERSION,
            "cycles": self.cycles,
            "sample_interval": self.sample_interval,
            "samples": len(self.samples),
            "samples_dropped": self.samples_dropped,
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "mshr_peak": max(mshr, default=0),
            "mshr_mean": round(sum(mshr) / len(mshr), 2) if mshr else 0.0,
            # Macro-tick fusion counters: execution-strategy metadata
            # (how the engine advanced time), recorded with explicit
            # zeros when fusion is off so the keys are never absent.
            "fusion": {
                "fused_runs": fused_runs,
                "fused_cycles": fused_cycles,
                "mean_run_len": round(fused_cycles / fused_runs, 2)
                if fused_runs else 0.0,
                "abort_reasons": {
                    reason: abort_reasons[reason]
                    for reason in sorted(abort_reasons)
                },
            },
            "pe_stalls": self._bucket_totals(self._pe_accounts),
            "bank_stalls": self._bucket_totals(self._bank_accounts),
            "cache": {
                "requests": requests,
                "hits": hits,
                "secondary_misses": secondary,
                "primary_misses": primary,
                "no_dram_fraction": round(
                    (hits + secondary) / requests, 4) if requests else 0.0,
                "merge_rate": round(
                    secondary / (secondary + primary), 4
                ) if secondary + primary else 0.0,
            },
            "moms_latency": self.merged_latency(self.moms_latency).compact(),
            "miss_latency": self.merged_latency(self.miss_latency).compact(),
            "dram_latency": self.merged_latency(self.dram_latency).compact(),
            "dram": {
                "single_line_fraction": round(
                    lines_single / lines_total, 4) if lines_total else 0.0,
                "effective_bw_ratio": round(
                    beats / busy, 4) if busy else 1.0,
            },
        }
