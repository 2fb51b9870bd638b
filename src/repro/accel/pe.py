"""The processing element (paper Fig. 9 and Section IV-C/D).

Each PE processes one destination-interval job at a time:

1. pull a job from the scheduler;
2. DMA the interval's initial node values (and V_const for PageRank)
   from DRAM into BRAM -- one outstanding burst, 4 node writes/cycle;
3. fetch the job's edge pointers, then stream the active shards'
   compressed edges with multiple outstanding tagged bursts (beats may
   return out of order across DRAM channels; the shard tag supplies
   the implicit high source bits);
4. for every edge, fetch the source value through the MOMS -- treating
   each in-flight edge as a suspended hardware thread.  Unweighted
   graphs use the destination offset itself as the request ID
   (Fig. 10b: the MOMS stores the whole thread state); weighted graphs
   allocate IDs from a free queue and park (offset, weight) in a state
   memory (Fig. 10a).  use_local_src short-circuits sources resident
   in the current interval to BRAM;
5. run gather() through a pipeline of configurable depth with
   stall-on-RAW (the 4-cycle floating-point PageRank pipeline is what
   throttles the high-locality graphs in Fig. 11);
6. apply() and write the interval back, then notify the scheduler.
"""

import struct
from collections import deque

import numpy as np

from repro.graph.encoding import EDGE_DST_BITS, EDGE_SRC_BITS, TERMINATOR_BIT
from repro.mem.dram import LINE_BYTES, MemResponse, _acquire_request
from repro.sim import Component

IDLE = "idle"
INIT_CONST = "init_const"
INIT_VIN = "init_vin"
POINTERS = "pointers"
STREAM = "stream"
WRITEBACK = "writeback"

_SRC_MASK = (1 << EDGE_SRC_BITS) - 1
_DST_MASK = (1 << EDGE_DST_BITS) - 1
_U32 = struct.Struct("=I")  # native-endian u32, same layout numpy views use


class BurstRequester:
    """Issues (possibly channel-spanning) bursts into per-channel ports.

    Works directly off the address interleaver's piece list, so the
    capacity probe and beat count allocate nothing; ``issue`` draws its
    piece requests from the :class:`MemRequest` freelist.
    """

    def __init__(self, mem, channel_ports, respond_to):
        self.mem = mem
        self.interleaver = mem.interleaver
        self.channel_ports = channel_ports
        self.respond_to = respond_to

    def can_issue(self, addr, nbytes, is_write=False):
        pieces = self.interleaver.split(addr, nbytes)
        ports = self.channel_ports
        if len(pieces) == 1:
            return ports[pieces[0][0]].can_push()
        needed = {}
        for channel, _local, _nbytes, _global_addr in pieces:
            needed[channel] = needed.get(channel, 0) + 1
        # simlint: disable=R1 -- filled in piece order just above, and
        # dict iteration is insertion-ordered; also order-insensitive
        # (an all-must-pass capacity check), so no cycle decision rides
        # on it.
        for channel, count in needed.items():
            if not ports[channel].can_push_n(count):
                return False
        return True

    def beats_for(self, addr, nbytes):
        """Total response beats a read burst will produce.

        A burst split across interleave granules yields one piece per
        channel, and an unaligned piece rounds up to whole lines -- the
        sum can exceed ceil(nbytes / 64).
        """
        return sum(
            -(-piece_bytes // LINE_BYTES)
            for _c, _l, piece_bytes, _g in self.interleaver.split(addr, nbytes)
        )

    def issue(self, addr, nbytes, tag, is_write=False, data=None):
        pieces = self.interleaver.split(addr, nbytes)
        ports = self.channel_ports
        respond_to = self.respond_to
        if is_write:
            data = np.asarray(data, dtype=np.uint8)
        for channel, _local, piece_bytes, global_addr in pieces:
            piece_data = None
            if is_write:
                offset = global_addr - addr
                piece_data = data[offset:offset + piece_bytes]
            request = _acquire_request(global_addr, piece_bytes, "burst",
                                       is_write, tag, respond_to, piece_data)
            ports[channel].push(request)
        return len(pieces)


class PEStats:
    def __init__(self):
        self.edges_processed = 0
        self.raw_stalls = 0
        self.moms_request_stalls = 0
        self.id_stalls = 0
        self.jobs_completed = 0
        self.local_reads = 0
        self.moms_reads = 0
        self.busy_cycles = 0
        self.cycles_by_phase = {}

    def note_phase(self, phase):
        self.cycles_by_phase[phase] = self.cycles_by_phase.get(phase, 0) + 1


class ProcessingElement(Component):
    """One out-of-order multithreaded PE."""

    demand_driven = True
    # Probe-bus slot (repro.sim.probe); class attribute so the
    # unobserved path pays one "is None" test per tick / phase change /
    # MOMS event.
    _probe = None

    def __init__(self, pe_index, spec, layout, mem, config,
                 moms_req, moms_resp, burst_ports, dma_resp,
                 job_channel, done_channel):
        self.pe_index = pe_index
        self.spec = spec
        self.layout = layout
        self.mem = mem
        self.config = config
        self.moms_req = moms_req
        self.moms_resp = moms_resp
        self.dma = BurstRequester(mem, burst_ports, dma_resp)
        self.dma_resp = dma_resp
        self.job_channel = job_channel
        self.done_channel = done_channel
        self.stats = PEStats()

        # Wake on anything that can unblock the state machine: a new
        # job, returned DMA beats / write acks, and MOMS responses.
        # Purely internal progress (BRAM applies, gather commits, burst
        # issue slots) is re-armed per tick in _arm(), which also spins
        # while a burst port is full; a full MOMS request port arms a
        # one-shot space wake at the stall site instead of a static
        # subscription, so bank-side pops stop waking PEs with nothing
        # to send.
        job_channel.subscribe_data(self)
        dma_resp.subscribe_data(self)
        moms_resp.subscribe_data(self)

        part = layout.partitioning
        self._nd = part.n_dst
        self._ns = part.n_src
        self._bram = np.zeros(self._nd, dtype=np.float64)
        self._const_bram = np.zeros(self._nd, dtype=np.float64)
        self._base_const = 0.0  # global scalar constant (set per run)

        # Weighted-graph MOMS interface (Fig. 10a).
        self._free_ids = deque(range(config.id_pool_size))
        self._id_state = {}

        self._phase = IDLE
        self._job = None
        self._engine = None
        self._pipeline = deque()  # (commit_cycle, dst_off, new, old)
        self._edge_queue = deque()  # (src_node, dst_off, weight)
        self._decoded_backlog_limit = config.dma_queue_beats * 16
        self._outstanding_moms = 0

    # -- per-run configuration --------------------------------------------

    def configure_run(self, base_const):
        self._base_const = base_const

    # -- main tick ----------------------------------------------------------

    def tick(self, engine):
        self._engine = engine
        if self._probe is not None:
            self._probe.pe_tick(self, engine.now)
        phase = self._phase
        if phase == IDLE:
            self._tick_idle(engine)
        elif phase in (INIT_CONST, INIT_VIN):
            self._tick_init(engine)
        elif phase == POINTERS:
            self._tick_pointers(engine)
        elif phase == STREAM:
            self._tick_stream(engine)
        elif phase == WRITEBACK:
            self._tick_writeback(engine)
        if phase != IDLE:
            self.stats.busy_cycles += 1
            self.stats.note_phase(phase)
            # A busy PE's state machine can always progress on a later
            # cycle (e.g. phase transitions, rate budgets); never let the
            # engine declare the system dead while a job is in flight.
            engine.mark_active()
        self._arm(engine)

    def _arm(self, engine):
        """Self-schedule the next tick for progress no channel signals.

        Channel subscriptions cover externally-triggered progress (new
        jobs, DMA beats, MOMS responses, freed port space); this
        re-arm covers the internal kind: BRAM apply/read-out budgets,
        burst issue slots freeing up, decoded edges awaiting dispatch,
        and gather-pipeline commits (a precise timer, so a PE blocked
        only on its arithmetic pipeline sleeps until the commit cycle).
        """
        phase = self._phase
        if phase == IDLE:
            # A job may already be sitting in the channel from before
            # this PE went idle (pushed while we were busy, so its data
            # wake ticked us mid-job and won't fire again).
            if self.job_channel._visible:
                engine.wake(self)
            return
        if phase in (INIT_CONST, INIT_VIN):
            if self._apply_backlog or (
                self._rd_burst_outstanding == 0
                and self._rd_requested < self._rd_total
            ):
                engine.wake(self)
            return
        if phase == POINTERS:
            if not self._ptr_requested:
                engine.wake(self)
            return
        if phase == STREAM:
            if self._pipeline:
                engine.wake_at(self, self._pipeline[0][0])
            if (self.dma_resp._visible or self.moms_resp._visible
                    or self._can_stream_more()):
                # Beats to decode, responses to serve (or spin on a RAW
                # hazard, matching the all-tick stall cadence), or a
                # burst slot worth retrying.
                engine.wake(self)
                return
            if self._edge_queue:
                # Progress on the head edge is all that remains; wake
                # only if it can move without an external event.
                src_node = self._edge_queue[0][0]
                if self.spec.use_local_src and self._lo <= src_node < self._hi:
                    engine.wake(self)  # local read, gated only on gather
                elif self.spec.weighted and not self._free_ids:
                    pass  # IDs free only via responses -> moms_resp wake
                elif self.moms_req.free_slots() > 0:
                    engine.wake(self)
                else:
                    # Request port full: one-shot wake from its next
                    # commit with free space (usually already armed by
                    # the _process_edges stall this tick; dedup'd).
                    self.moms_req.request_space_wake(self)
            elif self._stream_done():
                # The POINTERS->STREAM transition tick never ran
                # _tick_stream; an already-empty stream (no active
                # shards) still needs one tick to enter writeback.
                engine.wake(self)
            return
        # WRITEBACK: keep stepping while node values remain to send;
        # once everything is issued, the write acks wake us.  The
        # acks-complete clause only matters for empty intervals, whose
        # first writeback tick must still fire to report completion.
        if self._wb_sent < self._n_local * 4 \
                or self._wb_acks_received >= self._wb_acks_expected:
            engine.wake(self)

    def _set_phase(self, phase):
        probe = self._probe
        if probe is not None:
            engine = self._engine
            probe.pe_phase(self.pe_index, phase,
                           engine.now if engine is not None else 0)
        self._phase = phase

    def _can_stream_more(self):
        """True if _request_edge_bursts could issue on a later cycle."""
        if self._stream_cursor >= len(self._shards):
            return False
        if self._bursts_outstanding >= self.config.max_outstanding_edge_bursts:
            return False
        backlog = len(self._edge_queue) + self._beats_outstanding * 16
        return backlog <= self._decoded_backlog_limit

    def step_n(self, engine, budget):
        """Fused-tick protocol (see ``repro.sim.Component.step_n``).

        Two PE runs are silently repeatable under a stable singleton
        wake set: the INIT apply tail (draining the BRAM-apply backlog
        at the port rate with no DMA traffic this window) and the
        STREAM decode-under-stall run (one beat decoded per cycle
        while the head edge stalls on a full MOMS port, an empty ID
        pool, or a RAW hazard).  Everything else -- burst issue, MOMS
        dispatch, response serving, phase transitions -- does real
        per-cycle work and falls through to normal ticks.
        """
        if self._probe is not None:
            return 0
        phase = self._phase
        if phase == STREAM:
            return self._step_n_stream(engine, budget)
        if phase in (INIT_CONST, INIT_VIN):
            return self._step_n_init(budget)
        return 0

    def _step_n_init(self, budget):
        """Fused INIT run: apply backlog words at the BRAM port rate.

        Fusable only while no beat is waiting in the DMA queue and the
        next burst cannot issue yet (one in flight, or all requested),
        so each cycle's whole effect is ``init_nodes_per_cycle`` words
        applied plus the busy/phase counters.  At least one word is
        left behind: the completion transition and the possibly
        partial final apply happen on the real tick that follows.
        """
        if self.dma_resp._visible:
            return 0
        if (self._rd_burst_outstanding == 0
                and self._rd_requested < self._rd_total):
            return 0  # this cycle would issue the next DMA burst
        backlog = self._apply_backlog
        if not backlog:
            return 0
        per = self.config.init_nodes_per_cycle
        total = 0
        for _, chunk in backlog:
            total += len(chunk)
        m = (total - 1) // per
        if budget < m:
            m = budget
        if m < 1:
            return 0
        # The per-cycle apply loop with an m-cycle budget: identical
        # word order and chunk trimming, one loop instead of m.
        self._apply_words(m * per)
        stats = self.stats
        stats.busy_cycles += m
        phase = self._phase
        stats.cycles_by_phase[phase] = \
            stats.cycles_by_phase.get(phase, 0) + m
        return m

    def _step_n_stream(self, engine, budget):
        """Fused STREAM run: whole-run edge decode under a head stall.

        Each silent cycle pops and decodes exactly one DMA beat into
        the edge backlog while the head edge re-stalls the dispatcher
        -- MOMS request port full, ID pool empty, or RAW hazard -- all
        conditions nothing can clear during the window (the blocking
        structures drain only through components that are asleep, and
        the gather pipeline's next commit is past the engine's timer
        horizon).  One beat stays in the queue and the run stops
        before any burst issue could resume, so the real tick that
        follows sees exactly the state the per-cycle path would.
        """
        dma_resp = self.dma_resp
        visible = dma_resp._visible
        if visible < 2 or dma_resp._space_subs or dma_resp._space_requests:
            return 0
        if self.moms_resp._visible or not self._edge_queue:
            return 0
        if self._stream_cursor < len(self._shards):
            return 0  # _request_edge_bursts could do real work mid-run
        m = visible - 1
        if budget < m:
            m = budget
        pipeline = self._pipeline
        if pipeline:
            # Belt and braces: _arm's wake_at already put this commit
            # cycle in the engine's timer heap, which bounds the
            # budget -- but don't depend on that invariant here.
            h = pipeline[0][0] - engine.now
            if h < m:
                m = h
        if m < 1:
            return 0
        src_node, dst_off, _ = self._edge_queue[0]
        local = self.spec.use_local_src and self._lo <= src_node < self._hi
        moms_full = False
        if local:
            if not self._raw_hazard(dst_off):
                return 0  # head would dispatch into the gather slot
        else:
            moms_req = self.moms_req
            moms_full = (moms_req._occ + moms_req._staged_n
                         >= moms_req.capacity)
            if not moms_full and not (self.spec.weighted
                                      and not self._free_ids):
                return 0  # head would issue into the MOMS
        decode = self._decode_edge_beats
        for _ in range(m):
            decode()
        stats = self.stats
        if local:
            stats.raw_stalls += m
        elif moms_full:
            # Same precedence as _process_edges: a full request port
            # is counted before the ID pool is even consulted.  The
            # space-wake re-registrations those cycles would perform
            # are deferred to the real tick, which runs the same stall
            # before any commit can fire the one-shot.
            stats.moms_request_stalls += m
        else:
            stats.id_stalls += m
        stats.busy_cycles += m
        stats.cycles_by_phase[STREAM] = \
            stats.cycles_by_phase.get(STREAM, 0) + m
        return m

    def is_idle(self):
        return self._phase == IDLE

    # -- idle: pull the next job ---------------------------------------------

    def _tick_idle(self, engine):
        if not self.job_channel._visible:
            return
        job = self.job_channel.pop()
        self._job = job
        lo, hi = self.layout.partitioning.dst_interval_bounds(job.d)
        self._lo, self._hi = lo, hi
        self._n_local = hi - lo
        self._job_updated = False
        self._edges_this_job = 0
        if self.spec.use_const:
            self._start_array_read(
                INIT_CONST, self.layout.v_const_interval_addr(job.d)
            )
        else:
            self._start_array_read(
                INIT_VIN, self.layout.v_in_interval_addr(job.d)
            )

    # -- init: burst-read node arrays into BRAM -------------------------------

    def _start_array_read(self, phase, base_addr):
        self._set_phase(phase)
        self._rd_base = base_addr
        self._rd_total = self._n_local * 4
        self._rd_requested = 0
        self._rd_received = 0
        self._rd_burst_outstanding = 0
        self._apply_backlog = deque()  # (start_index, words array)
        self._applied = 0

    def _tick_init(self, engine):
        # One outstanding initialization burst at a time (Section IV-D).
        if (
            self._rd_burst_outstanding == 0
            and self._rd_requested < self._rd_total
        ):
            nbytes = min(self.config.burst_bytes,
                         self._rd_total - self._rd_requested)
            addr = self._rd_base + self._rd_requested
            if self.dma.can_issue(addr, nbytes):
                beats = self.dma.beats_for(addr, nbytes)
                self.dma.issue(addr, nbytes, tag=("init", self._phase))
                self._rd_requested += nbytes
                self._rd_burst_outstanding = beats
        # Drain all arriving beats into the apply backlog in one bulk
        # pop; the beats are fully consumed here, so they recycle to
        # the freelist immediately.
        beats = self.dma_resp.pop_all()
        if beats:
            pool = MemResponse._pool
            base = self._rd_base
            n_local = self._n_local
            backlog = self._apply_backlog
            for beat in beats:
                start = (beat.addr - base) // 4
                count = min(16, n_local - start)
                backlog.append(
                    (start, beat.data[:4 * count].view(np.uint32).tolist())
                )
                if pool is not None:
                    beat.data = None
                    pool.append(beat)
            self._rd_burst_outstanding -= len(beats)
            self._rd_received += len(beats)
        if self._apply_backlog:
            engine.mark_active()  # BRAM writes advance without channel traffic
        # Apply at the BRAM port rate (4 node writes per cycle).
        self._apply_words(self.config.init_nodes_per_cycle)
        if self._applied == self._n_local and \
                self._rd_requested == self._rd_total and \
                self._rd_burst_outstanding == 0:
            if self._phase == INIT_CONST:
                self._start_array_read(
                    INIT_VIN, self.layout.v_in_interval_addr(self._job.d)
                )
            else:
                self._start_pointers()

    def _apply_words(self, budget):
        """Write up to *budget* backlog words into BRAM, oldest first."""
        backlog = self._apply_backlog
        decode = self.spec.decode
        init = self.spec.init
        while budget > 0 and backlog:
            start, words = backlog[0]
            take = min(budget, len(words))
            if self._phase == INIT_CONST:
                for i in range(take):
                    self._const_bram[start + i] = float(words[i])
            else:
                for i in range(take):
                    index = start + i
                    self._bram[index] = init(
                        self._const_bram[index], decode(words[i])
                    )
            self._applied += take
            budget -= take
            if take == len(words):
                backlog.popleft()
            else:
                backlog[0] = (start + take, words[take:])

    # -- edge pointers ---------------------------------------------------------

    def _start_pointers(self):
        self._set_phase(POINTERS)
        self._ptr_beats_expected = None  # known once the burst is issued
        self._ptr_beats_received = 0
        self._ptr_requested = False

    def _tick_pointers(self, engine):
        part = self.layout.partitioning
        base = self.layout.edge_ptr_addr(self._job.d, 0)
        nbytes = part.q_src * 8
        if not self._ptr_requested:
            if self.dma.can_issue(base, nbytes):
                # The pointer array is not line-aligned per job, so the
                # beat count must come from the actual piece split.
                self._ptr_beats_expected = self.dma.beats_for(base, nbytes)
                self.dma.issue(base, nbytes, tag=("ptrs",))
                self._ptr_requested = True
            return
        beats = self.dma_resp.pop_all()
        if beats:
            self._ptr_beats_received += len(beats)
            pool = MemResponse._pool
            if pool is not None:
                for beat in beats:
                    beat.data = None
                    pool.append(beat)
        if self._ptr_beats_received < self._ptr_beats_expected:
            return
        # Parse the pointers (bit-identical to the transferred beats).
        shards = []
        for s in range(part.q_src):
            addr, count, active = self.layout.read_pointer(
                self.mem, self._job.d, s
            )
            if active and count:
                shards.append({
                    "s": s,
                    "addr": addr,
                    "count": count,
                    "bytes_total": self.layout.codec.shard_bytes(count),
                    "bytes_requested": 0,
                    "edges_decoded": 0,
                })
        self._shards = shards
        self._shard_by_s = {shard["s"]: shard for shard in shards}
        self._stream_cursor = 0
        self._bursts_outstanding = 0
        self._beats_outstanding = 0
        self._set_phase(STREAM)

    # -- edge streaming + gather ------------------------------------------------

    def _tick_stream(self, engine):
        # The five stream sub-stages run every cycle in hardware, but in
        # simulation most are no-ops on any given tick; guard each one
        # inline so an idle stage costs a branch, not a function call.
        pipeline = self._pipeline
        if pipeline:
            now = engine.now
            if pipeline[0][0] <= now:
                bram = self._bram
                always_active = self.spec.always_active
                while pipeline and pipeline[0][0] <= now:
                    _, dst_off, new, old = pipeline.popleft()
                    bram[dst_off] = new
                    if always_active or new != old:
                        self._job_updated = True
            if pipeline:
                engine.mark_active()  # internal state is advancing
        if self._stream_cursor < len(self._shards):
            self._request_edge_bursts()
        if self.dma_resp._visible:
            self._decode_edge_beats()
        if self.moms_resp._visible:
            gather_free = self._process_response()
        else:
            gather_free = True
        if self._edge_queue:
            self._process_edges(gather_free)
        if not (self._bursts_outstanding or self._edge_queue
                or self._pipeline or self._outstanding_moms):
            if self._stream_done():
                self._start_writeback()

    def _request_edge_bursts(self):
        config = self.config
        if self._bursts_outstanding >= config.max_outstanding_edge_bursts:
            return
        backlog = len(self._edge_queue) + self._beats_outstanding * 16
        if backlog > self._decoded_backlog_limit:
            return
        while self._stream_cursor < len(self._shards):
            shard = self._shards[self._stream_cursor]
            if shard["bytes_requested"] >= shard["bytes_total"]:
                self._stream_cursor += 1
                continue
            nbytes = min(config.burst_bytes,
                         shard["bytes_total"] - shard["bytes_requested"])
            addr = shard["addr"] + shard["bytes_requested"]
            if not self.dma.can_issue(addr, nbytes):
                return
            # A burst spanning an interleave granule becomes one piece
            # per channel; each piece ends with its own last-beat.
            beats = self.dma.beats_for(addr, nbytes)
            pieces = self.dma.issue(addr, nbytes, tag=("edges", shard["s"]))
            shard["bytes_requested"] += nbytes
            self._bursts_outstanding += pieces
            self._beats_outstanding += beats
            return  # one burst issued per cycle

    def _decode_edge_beats(self):
        # Pull up to one beat per cycle from the DMA queue (512-bit
        # port) -- an architectural rate, not a simulator artifact.
        if not self.dma_resp._visible:
            return
        beat = self.dma_resp.pop()
        tag = beat.tag
        if tag[0] != "edges":
            raise AssertionError(f"unexpected DMA beat {tag} in stream")
        s = tag[1]
        if beat.last:
            self._bursts_outstanding -= 1
        self._beats_outstanding -= 1
        # Decode over plain Python ints (one bulk conversion) -- numpy
        # scalar iteration costs ~10x per word on this hot path.  The
        # conversion copies, so the beat recycles before the decode.
        words = beat.data.view(np.uint32).tolist()
        pool = MemResponse._pool
        if pool is not None:
            beat.data = None
            pool.append(beat)
        weighted = self.spec.weighted
        src_base = s * self._ns
        shard = self._shard_by_s[s]
        if weighted:
            edge_words = words[0::2]
            weight_words = words[1::2]
        else:
            edge_words = words
            weight_words = None
        append = self._edge_queue.append
        decoded = 0
        for i, word in enumerate(edge_words):
            if word & TERMINATOR_BIT:
                break
            append((
                src_base + ((word >> EDGE_DST_BITS) & _SRC_MASK),
                word & _DST_MASK,
                weight_words[i] if weighted else 0,
            ))
            decoded += 1
        shard["edges_decoded"] += decoded
        if shard["edges_decoded"] > shard["count"]:
            # Padding within the final line is cut by the
            # terminator; exceeding the count means corruption.
            raise AssertionError("decoded more edges than the shard has")

    def _raw_hazard(self, dst_off):
        for _, entry_dst, _, _ in self._pipeline:
            if entry_dst == dst_off:
                return True
        return False

    def _commit_pipeline(self, engine):
        pipeline = self._pipeline
        while pipeline and pipeline[0][0] <= engine.now:
            _, dst_off, new, old = pipeline.popleft()
            self._bram[dst_off] = new
            if self.spec.always_active or new != old:
                self._job_updated = True
        if pipeline:
            engine.mark_active()  # internal state is advancing

    def _enter_pipeline(self, engine, dst_off, u_value, weight):
        old = self._bram[dst_off]
        new = self.spec.gather(u_value, old, weight)
        self._pipeline.append(
            (engine.now + self.spec.gather_latency, dst_off, new, old)
        )
        self.stats.edges_processed += 1
        self._edges_this_job += 1

    def _process_response(self):
        """Serve one MOMS response; returns True if the gather slot is free."""
        moms_resp = self.moms_resp
        if not moms_resp._visible:
            return True
        req_id, addr, data, _port = moms_resp.front_response()
        probe = self._probe
        if probe is not None:
            # Peek-time check: a corrupted or misrouted ID is flagged
            # here, before it indexes the thread-state memory below.
            probe.moms_verify(self.pe_index, req_id)
        if self.spec.weighted:
            dst_off, weight = self._id_state[req_id]
        else:
            dst_off, weight = req_id, 0
        if self._raw_hazard(dst_off):
            self.stats.raw_stalls += 1
            return False  # gather slot wasted on the stall
        # unpack copies the word out, so the peeked data slice is done
        # with before drop() consumes (and recycles) the response.
        word = _U32.unpack_from(data)[0]
        moms_resp.drop()
        self._outstanding_moms -= 1
        if probe is not None:
            probe.moms_retire(self.pe_index, req_id, addr, self._engine.now)
        if self.spec.weighted:
            del self._id_state[req_id]
            self._free_ids.append(req_id)
        self._enter_pipeline(self._engine, dst_off, self.spec.decode(word),
                             weight)
        return False

    def _process_edges(self, gather_free):
        if not self._edge_queue:
            return
        src_node, dst_off, weight = self._edge_queue[0]
        local = self.spec.use_local_src and self._lo <= src_node < self._hi
        if local:
            if not gather_free:
                return
            if self._raw_hazard(dst_off):
                self.stats.raw_stalls += 1
                return
            self._edge_queue.popleft()
            u_value = self._bram[src_node - self._lo]
            self._enter_pipeline(self._engine, dst_off, u_value, weight)
            self.stats.local_reads += 1
            return
        # Remote source: suspend the edge into the MOMS.
        moms_req = self.moms_req
        if moms_req._occ + moms_req._staged_n >= moms_req.capacity:
            self.stats.moms_request_stalls += 1
            moms_req.request_space_wake(self)
            return
        if self.spec.weighted:
            if not self._free_ids:
                self.stats.id_stalls += 1
                return
            req_id = self._free_ids.popleft()
            self._id_state[req_id] = (dst_off, weight)
        else:
            req_id = dst_off
        self._edge_queue.popleft()
        addr = self.layout.v_in_addr + src_node * 4
        moms_req.push_request(addr, 4, req_id, self.pe_index)
        if self._probe is not None:
            self._probe.moms_issue(self.pe_index, req_id, addr,
                                   self._engine.now)
        self._outstanding_moms += 1
        self.stats.moms_reads += 1

    def _stream_done(self):
        if self._bursts_outstanding or self._edge_queue or self._pipeline:
            return False
        if self._outstanding_moms > 0:
            return False
        return all(
            sh["bytes_requested"] >= sh["bytes_total"]
            and sh["edges_decoded"] == sh["count"]
            for sh in self._shards
        )

    # -- writeback -----------------------------------------------------------

    def _start_writeback(self):
        self._set_phase(WRITEBACK)
        n = self._n_local
        apply_fn = self.spec.apply
        encode = self.spec.encode
        words = np.zeros(n, dtype=np.uint32)
        for i in range(n):
            words[i] = encode(
                apply_fn(self._bram[i], self._const_bram[i], self._base_const)
            )
        self._wb_words = words
        self._wb_sent = 0
        self._wb_acks_expected = 0
        self._wb_acks_received = 0
        # Model the 4-values/cycle BRAM read rate as a head start delay.
        self._wb_ready_budget = 0

    def _tick_writeback(self, engine):
        acks = self.dma_resp.pop_all()
        if acks:
            pool = MemResponse._pool
            for ack in acks:
                if not ack.is_write_ack:
                    raise AssertionError("unexpected read beat in writeback")
                if pool is not None:
                    pool.append(ack)
            self._wb_acks_received += len(acks)
        total_bytes = self._n_local * 4
        if self._wb_sent < total_bytes:
            engine.mark_active()  # BRAM reads advance without channel traffic
        # The BRAM read port feeds 4 node values per cycle into the DMA.
        self._wb_ready_budget = min(
            self._wb_ready_budget + self.config.init_nodes_per_cycle * 4,
            self._n_local * 4,
        )
        total = self._n_local * 4
        if self._wb_sent < total:
            ready = self._wb_ready_budget - self._wb_sent
            nbytes = min(self.config.burst_bytes, total - self._wb_sent,
                         ready)
            if nbytes >= 4:
                addr = self.layout.v_out_interval_addr(self._job.d) + \
                    self._wb_sent
                if self.dma.can_issue(addr, nbytes, is_write=True):
                    data = self._wb_words.view(np.uint8)[
                        self._wb_sent:self._wb_sent + nbytes
                    ]
                    pieces = self.dma.issue(addr, nbytes, tag=("wb",),
                                            is_write=True, data=data)
                    self._wb_acks_expected += pieces
                    self._wb_sent += nbytes
        if (
            self._wb_sent == total
            and self._wb_acks_received == self._wb_acks_expected
        ):
            self.done_channel.push((self._job.d, self._job_updated))
            self.stats.jobs_completed += 1
            self._set_phase(IDLE)
            self._job = None
