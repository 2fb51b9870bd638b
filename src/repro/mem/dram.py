"""Timed model of one DRAM channel behind the AWS f1 shell.

The model captures the two properties the paper's results hinge on:

* a fixed access latency (tens of accelerator cycles), during which a
  miss-optimized memory system accumulates secondary misses, and
* a service rate that depends on the request kind: 64-byte *burst*
  beats stream at one line per cycle (16 GB/s at 250 MHz) while
  *single* random reads only achieve one line per two cycles (the
  ~8 GB/s shell limitation measured in Section V-A).

Each channel responds strictly in order; out-of-order behaviour only
arises when a transfer is interleaved across several channels, which
is exactly the situation the paper's PEs are designed to tolerate.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.sim import Channel, Component

LINE_BYTES = 64


@dataclass
class DramTimings:
    """Latency/bandwidth parameters of one channel (in cycles).

    The default latency models the AWS f1 shell's round trip (several
    hundred ns at 250 MHz), which is what gives a MOMS its coalescing
    window: the longer a line is in flight, the more pending misses
    pile onto its MSHR.
    """

    latency: int = 150
    cycles_per_beat_burst: int = 1
    cycles_per_beat_single: int = 2
    request_queue_depth: int = 32
    max_deliveries_per_cycle: int = 4

    def cycles_per_beat(self, kind):
        if kind == "burst":
            return self.cycles_per_beat_burst
        if kind == "single":
            return self.cycles_per_beat_single
        raise ValueError(f"unknown request kind {kind!r}")


@dataclass(slots=True)
class MemRequest:
    """A read or write request against the global address space.

    ``respond_to`` is the channel into which response beats (or the
    write acknowledgement) are pushed; ``tag`` is returned verbatim
    with every response so requesters can match them.
    """

    addr: int
    nbytes: int
    kind: str = "burst"  # 'burst' | 'single'
    is_write: bool = False
    tag: object = None
    respond_to: object = None
    data: object = None  # numpy uint8 array for writes

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("request must cover at least one byte")
        if self.kind not in ("burst", "single"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.is_write and self.data is None:
            raise ValueError("write request needs data")

    @property
    def beats(self):
        return -(-self.nbytes // LINE_BYTES)


@dataclass(slots=True)
class MemResponse:
    """One 64-byte beat of read data, or a write acknowledgement.

    ``issued_at`` is the cycle the channel accepted the originating
    request; telemetry uses it to histogram accept->delivery latency
    (queueing + service + backpressure included).
    """

    tag: object
    addr: int
    data: object = None
    beat: int = 0
    last: bool = True
    is_write_ack: bool = False
    issued_at: int = -1


def _acquire_response(tag, addr, beat, last, is_write_ack, issued_at):
    """Pooled MemResponse acquisition (see repro.core.messages)."""
    pool = MemResponse._pool
    if pool:
        response = pool.pop()
        response.tag = tag
        response.addr = addr
        response.data = None
        response.beat = beat
        response.last = last
        response.is_write_ack = is_write_ack
        response.issued_at = issued_at
        return response
    MemResponse._fresh += 1
    return MemResponse(tag=tag, addr=addr, beat=beat, last=last,
                       is_write_ack=is_write_ack, issued_at=issued_at)


def _acquire_request(addr, nbytes, kind, is_write, tag, respond_to, data):
    """Pooled MemRequest acquisition (see repro.core.messages).

    The one sanctioned construction site for hot-path MemRequests
    (simlint R3): issuers that used to inline the pool-or-construct
    fallback call this instead, so the freelist is always consulted
    first and the pool-miss accounting stays in one place.
    """
    pool = MemRequest._pool
    if pool:
        request = pool.pop()
        request.addr = addr
        request.nbytes = nbytes
        request.kind = kind
        request.is_write = is_write
        request.tag = tag
        request.respond_to = respond_to
        request.data = data
        return request
    MemRequest._fresh += 1
    return MemRequest(addr=addr, nbytes=nbytes, kind=kind,
                      is_write=is_write, tag=tag, respond_to=respond_to,
                      data=data)


@dataclass
class DramStats:
    bytes_read: int = 0
    bytes_written: int = 0
    busy_cycles: int = 0
    reads_single: int = 0
    reads_burst: int = 0
    writes: int = 0
    lines_single: int = 0
    lines_burst: int = 0
    lines_written: int = 0
    peak_queue: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def lines_total(self):
        """Read lines delivered, burst + single."""
        return self.lines_burst + self.lines_single

    @property
    def total_beats(self):
        """All data-bus beats serviced (reads and writes)."""
        return self.lines_burst + self.lines_single + self.lines_written

    @property
    def single_line_fraction(self):
        """Share of read lines fetched as single (non-burst) accesses.

        The paper's shell serves singles at half the burst rate, so a
        fraction near 1.0 means the run is paying the ~50% random-read
        bandwidth penalty of Section V-A.
        """
        total = self.lines_total
        return self.lines_single / total if total else 0.0

    @property
    def effective_bandwidth_ratio(self):
        """Beats delivered per busy cycle: 1.0 = pure burst streaming,
        0.5 = all single-beat reads."""
        return self.total_beats / self.busy_cycles if self.busy_cycles \
            else 1.0

    def as_dict(self):
        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_cycles": self.busy_cycles,
            "reads_single": self.reads_single,
            "reads_burst": self.reads_burst,
            "writes": self.writes,
            "lines_single": self.lines_single,
            "lines_burst": self.lines_burst,
            "lines_written": self.lines_written,
            "peak_queue": self.peak_queue,
            "single_line_fraction": round(self.single_line_fraction, 4),
            "effective_bandwidth_ratio": round(
                self.effective_bandwidth_ratio, 4),
        }


class DramChannel(Component):
    """One DDR4 channel: request queue, data bus, fixed-latency responses."""

    demand_driven = True
    # Opt-in hooks; class attributes so the unfaulted/unchecked path
    # pays a single "is None" test (see repro.faults).
    _fault = None
    _ledger = None
    # Opt-in telemetry collector (repro.telemetry), same gating: one
    # "is None" test per delivered beat when unset.
    _tele = None
    # Opt-in span tracer (repro.tracing), same gating: one "is None"
    # test per accepted request / delivered beat when unset.
    _trace = None

    def __init__(self, timings, store, name="dram"):
        self.timings = timings
        self.store = store
        self.name = name
        self.req = Channel(timings.request_queue_depth, name=f"{name}.req")
        self._scheduled = deque()  # (ready_time, MemResponse, respond_to)
        self._next_free = 0
        self.stats = DramStats()

    def attach(self, engine):
        """Register this channel's FIFOs with *engine*."""
        engine.add_channel(self.req)
        engine.add_component(self)
        engine.add_time_source(self)
        # New requests wake the channel at their visibility cycle;
        # response maturity is re-armed per tick (see _arm).
        self.req.subscribe_data(self)
        return self

    def tick(self, engine):
        if self._fault is not None:
            blackout_end = self._fault.dram_blackout_until(engine.now)
            if blackout_end:
                # Channel dead for the window: no accepts, no deliveries.
                # Self-arm the wake at the window end; queued requests
                # and due responses are simply served late.
                engine.wake_at(self, blackout_end)
                return
        delivered = self._deliver(engine)
        self._accept(engine)
        self._arm(engine, delivered)

    def _arm(self, engine, delivered):
        """Schedule the wake for the head of the response queue.

        A head maturing in the future sets a timer; a head that is due
        but undelivered was either rate-limited this cycle (re-arm next
        cycle) or blocked on a full requester FIFO (one-shot space wake
        from that FIFO's next commit).  Queued requests need no arming
        here: popping the request FIFO dirties it, and its commit
        re-fires the data subscription while tokens remain.
        """
        if not self._scheduled:
            return
        head_time, _, respond_to = self._scheduled[0]
        if head_time > engine.now:
            engine.wake_at(self, head_time)
        elif delivered >= self.timings.max_deliveries_per_cycle \
                or respond_to is None:
            engine.wake(self)
        else:
            respond_to.request_space_wake(self)

    def next_event_time(self):
        """Next cycle at which a scheduled response becomes ready."""
        if not self._scheduled:
            return None
        return self._scheduled[0][0]

    @property
    def pending(self):
        """Responses scheduled but not yet delivered."""
        return len(self._scheduled)

    def _deliver(self, engine):
        delivered = 0
        limit = self.timings.max_deliveries_per_cycle
        scheduled = self._scheduled
        now = engine.now
        store = self.store
        ledger = self._ledger
        tele = self._tele
        trace = self._trace
        response_pool = MemResponse._pool
        while delivered < limit and scheduled and scheduled[0][0] <= now:
            _, response, respond_to = scheduled[0]
            if respond_to is None:
                # Fire-and-forget request: the beat evaporates here, so
                # this is its release point (data was never attached).
                scheduled.popleft()
                if ledger is not None:
                    ledger.retire(("dram", self.name), response.addr)
                if response_pool is not None:
                    response_pool.append(response)
                delivered += 1
                continue
            space = respond_to.free_slots()
            if space <= 0:
                break  # head-of-line blocking at the requester
            # Consecutive due beats bound for the same requester move as
            # one push_many (one capacity check, one dirty registration)
            # -- clamped to free space so partial delivery still happens
            # exactly as with per-beat pushes.
            batch = []
            while (
                len(batch) < space
                and delivered + len(batch) < limit
                and scheduled
                and scheduled[0][0] <= now
                and scheduled[0][2] is respond_to
            ):
                _, response, _ = scheduled.popleft()
                if ledger is not None:
                    ledger.retire(("dram", self.name), response.addr)
                if tele is not None and response.issued_at >= 0:
                    tele.dram_deliver(self.name, now - response.issued_at)
                if trace is not None:
                    trace.dram_deliver(self.name, respond_to,
                                       response.addr, now)
                if response.data is None and not response.is_write_ack:
                    response.data = store.read_bytes(response.addr, LINE_BYTES)
                batch.append(response)
            respond_to.push_many(batch)
            delivered += len(batch)
        return delivered

    def _accept(self, engine):
        if self.req._visible:
            self._accept_one(engine.now)

    def _accept_one(self, now):
        """Accept the head request at cycle *now* (one per cycle).

        Factored out of :meth:`_accept` so a fused run can replay the
        exact per-cycle accept with each silent cycle's clock value --
        *now* is a parameter precisely so ``step_n`` never reads
        ``engine.now`` per element.
        """
        req = self.req
        request = req.pop()
        timings = self.timings
        stats = self.stats
        start = max(now, self._next_free)
        beats = request.beats
        tag = request.tag
        addr = request.addr
        respond_to = request.respond_to
        if self._trace is not None:
            # Before the accept-side recycle below clears respond_to,
            # which the tracer uses to attribute the fetch to a bank.
            self._trace.dram_accept(self.name, request, now)
        extra_latency = 0 if self._fault is None \
            else self._fault.dram_extra_latency(now)
        if request.is_write:
            self.store.write_bytes(addr, request.data, request.nbytes)
            service = beats * timings.cycles_per_beat_burst
            self._next_free = start + service
            stats.bytes_written += request.nbytes
            stats.writes += 1
            stats.lines_written += beats
            stats.busy_cycles += service
            if respond_to is not None:
                ack = _acquire_response(tag, addr, 0, True, True, now)
                self._schedule(
                    start + service + timings.latency + extra_latency,
                    ack, respond_to)
        else:
            cpb = timings.cycles_per_beat(request.kind)
            ready_base = start + timings.latency + extra_latency
            last = beats - 1
            for beat in range(beats):
                response = _acquire_response(
                    tag, addr + beat * LINE_BYTES, beat, beat == last,
                    False, now,
                )
                self._schedule(ready_base + (beat + 1) * cpb, response,
                               respond_to)
            self._next_free = start + beats * cpb
            stats.bytes_read += beats * LINE_BYTES
            stats.busy_cycles += beats * cpb
            if request.kind == "single":
                stats.reads_single += 1
                stats.lines_single += beats
            else:
                stats.reads_burst += 1
                stats.lines_burst += beats
            queue_depth = req._visible + len(self._scheduled)
            if queue_depth > stats.peak_queue:
                stats.peak_queue = queue_depth
        # The channel is a request's single consumer; recycle it (the
        # write payload reference is dropped so pooled tokens never pin
        # a node-value array).
        pool = MemRequest._pool
        if pool is not None:
            request.data = None
            request.tag = None
            request.respond_to = None
            pool.append(request)

    def step_n(self, engine, budget):
        """Fused-tick protocol (see ``repro.sim.Component.step_n``).

        The multi-cycle run a DRAM channel performs under a stable
        singleton wake set is the accept drain: one queued request
        popped per cycle while no response beat is deliverable -- the
        schedule head is either still maturing (the engine's timer
        horizon already bounds *budget* below it) or head-of-line
        blocked on a full requester FIFO that nothing can drain during
        silent cycles.  The batch stops before the first write (store
        writes and ack scheduling stay per-cycle), keeps at least one
        request visible so the queue's per-cycle commit wake chain
        stays intact, and replays each accept with its own cycle value
        via :meth:`_accept_one`.
        """
        if (self._fault is not None or self._trace is not None
                or self._ledger is not None):
            return 0
        req = self.req
        visible = req._visible
        if visible < 2 or req._space_subs or req._space_requests:
            return 0
        now = engine.now
        limit = budget
        scheduled = self._scheduled
        if scheduled:
            head_time, _, respond_to = scheduled[0]
            if head_time <= now:
                # Due head: fusable only while head-of-line blocked on
                # a full requester FIFO; deliverable or evaporating
                # heads do real work every cycle.
                if respond_to is None or respond_to.free_slots() > 0:
                    return 0
            elif head_time - now < limit:
                # Belt and braces: _arm's wake_at already put this
                # maturity in the engine's timer heap, which clamps the
                # budget -- but don't depend on that invariant here.
                limit = head_time - now
        else:
            # Empty schedule: newly accepted beats mature no earlier
            # than now + latency + 1, past any in-window cycle.
            if self.timings.latency < limit:
                limit = self.timings.latency
        m = visible - 1
        if limit < m:
            m = limit
        if m < 1:
            return 0
        ring = req._ring
        head_i = req._head
        mask = req._mask
        k = 0
        while k < m and not ring[(head_i + k) & mask].is_write:
            k += 1
        if k < 1:
            return 0
        for j in range(k):
            self._accept_one(now + j)
        return k

    def _schedule(self, ready_time, response, respond_to):
        if self._scheduled and ready_time < self._scheduled[-1][0]:
            if self._fault is not None:
                # An injected latency spike ending between two requests
                # would step the schedule backwards; clamp to the tail
                # so the FIFO delivery order stays intact.
                ready_time = self._scheduled[-1][0]
            else:
                # Constant latency and FIFO acceptance keep this monotonic.
                raise AssertionError(
                    "DRAM response schedule went out of order"
                )
        self._scheduled.append((ready_time, response, respond_to))
        if self._ledger is not None:
            self._ledger.issue(("dram", self.name), response.addr)
        if self._fault is not None:
            self._fault.dram_maybe_reorder(self._scheduled)

    def is_idle(self):
        return not self._scheduled and not self.req.pending


# The DRAM tokens circulate through the same freelist machinery as the
# MOMS tokens.  Imported at module bottom: repro.core's package init
# pulls in the hierarchy, which imports this module's classes.
from repro.core.messages import register_pool  # noqa: E402

register_pool(MemRequest)
register_pool(MemResponse)
