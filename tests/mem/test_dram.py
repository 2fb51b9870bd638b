"""Tests for the DRAM channel timing model and the memory system."""

import hashlib

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultState, Window

from repro.mem import (
    LINE_BYTES,
    DramTimings,
    MemRequest,
    MemResponse,
    MemorySystem,
)
from repro.sim import Channel, Component, Engine


def make_system(n_channels=1, latency=10, size=1 << 16):
    engine = Engine()
    timings = DramTimings(latency=latency)
    mem = MemorySystem(engine, size, n_channels=n_channels, timings=timings)
    return engine, mem


def drain(engine, resp, count, max_cycles=100_000):
    got = []
    engine.run(done=lambda: len(resp) >= count or engine.now > max_cycles)
    while resp.can_pop():
        got.append(resp.pop())
    return got


class TestMemRequest:
    def test_beats_rounds_up(self):
        r = MemRequest(addr=0, nbytes=65)
        assert r.beats == 2

    def test_write_needs_data(self):
        with pytest.raises(ValueError):
            MemRequest(addr=0, nbytes=64, is_write=True)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            MemRequest(addr=0, nbytes=64, kind="banana")


class TestDramChannel:
    def test_read_returns_store_contents(self):
        engine, mem = make_system()
        mem.view_u32(128, 4)[:] = [1, 2, 3, 4]
        resp = engine.add_channel(Channel(8))
        mem.channels[0].req.push(
            MemRequest(addr=128, nbytes=64, kind="single", tag="t",
                       respond_to=resp)
        )
        (beat,) = drain(engine, resp, 1)
        assert beat.tag == "t"
        assert beat.last
        assert list(beat.data[:16].view(np.uint32)) == [1, 2, 3, 4]

    def test_read_latency(self):
        engine, mem = make_system(latency=25)
        resp = engine.add_channel(Channel(8))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=64, kind="single", respond_to=resp)
        )
        engine.run(done=lambda: len(resp) >= 1)
        # 1 cycle to pop request + 2 cycles single-beat service + latency,
        # +1 for channel commit visibility.
        assert 25 <= engine.now <= 31

    def test_burst_beats_arrive_in_order(self):
        engine, mem = make_system()
        for i in range(32):
            mem.view_u32(i * 64, 1)[0] = i
        resp = engine.add_channel(Channel(64))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=32 * 64, kind="burst", respond_to=resp)
        )
        beats = drain(engine, resp, 32)
        assert [b.beat for b in beats] == list(range(32))
        assert [b.data[:4].view(np.uint32)[0] for b in beats] == list(range(32))
        assert beats[-1].last and not beats[0].last

    def test_single_reads_half_bandwidth(self):
        """Single random reads take ~2 cycles/line; bursts ~1 cycle/line."""
        n_lines = 128

        def run(kind):
            engine, mem = make_system(latency=5)
            resp = engine.add_channel(Channel(256))
            received = []

            if kind == "single":
                requests = [
                    MemRequest(addr=i * 64, nbytes=64, kind="single",
                               respond_to=resp)
                    for i in range(n_lines)
                ]
            else:
                requests = [
                    MemRequest(addr=0, nbytes=n_lines * 64, kind="burst",
                               respond_to=resp)
                ]
            pending = list(requests)

            while len(received) < n_lines:
                while pending and mem.channels[0].req.can_push():
                    mem.channels[0].req.push(pending.pop(0))
                engine._step()
                while resp.can_pop():
                    received.append(resp.pop())
            return engine.now

        t_single = run("single")
        t_burst = run("burst")
        ratio = t_single / t_burst
        assert 1.6 <= ratio <= 2.4

    def test_write_updates_store_and_acks(self):
        engine, mem = make_system()
        resp = engine.add_channel(Channel(4))
        payload = np.arange(64, dtype=np.uint8)
        mem.channels[0].req.push(
            MemRequest(addr=256, nbytes=64, is_write=True, data=payload,
                       tag="w", respond_to=resp)
        )
        (ack,) = drain(engine, resp, 1)
        assert ack.is_write_ack and ack.tag == "w"
        assert np.array_equal(mem.read_bytes(256, 64), payload)

    def test_stats_accumulate(self):
        engine, mem = make_system()
        resp = engine.add_channel(Channel(64))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=4 * 64, kind="burst", respond_to=resp)
        )
        drain(engine, resp, 4)
        stats = mem.channels[0].stats
        assert stats.bytes_read == 256
        assert stats.reads_burst == 1
        assert stats.lines_burst == 4

    def test_head_of_line_blocking_on_full_response_channel(self):
        engine, mem = make_system(latency=2)
        resp = engine.add_channel(Channel(1))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=4 * 64, kind="burst", respond_to=resp)
        )
        # Never pop: the channel fills and the DRAM must hold responses.
        engine.run(done=lambda: len(resp) == 1, max_cycles=100)
        for _ in range(20):
            engine._step()
        assert len(resp) == 1
        assert mem.channels[0].pending == 3


class TestMemorySystem:
    def test_functional_views_alias_store(self):
        _, mem = make_system()
        mem.view_u32(0, 2)[:] = [7, 9]
        assert list(mem.read_bytes(0, 4).view(np.uint32)) == [7]
        mem.view_f32(8, 1)[0] = 1.5
        assert mem.view_f32(8, 1)[0] == 1.5

    def test_unaligned_view_rejected(self):
        _, mem = make_system()
        with pytest.raises(ValueError):
            mem.view_u32(2, 1)

    def test_split_burst_routes_by_granule(self):
        engine, mem = make_system(n_channels=2, size=1 << 16)
        req = MemRequest(addr=2048 - 64, nbytes=128, kind="burst")
        pieces = mem.split_burst(req)
        assert [channel for channel, _ in pieces] == [0, 1]
        assert pieces[0][1].nbytes == 64
        assert pieces[1][1].addr == 2048

    def test_split_burst_write_slices_data(self):
        engine, mem = make_system(n_channels=2, size=1 << 16)
        data = np.arange(128, dtype=np.uint8)
        req = MemRequest(addr=2048 - 64, nbytes=128, kind="burst",
                         is_write=True, data=data)
        pieces = mem.split_burst(req)
        assert np.array_equal(pieces[0][1].data, data[:64])
        assert np.array_equal(pieces[1][1].data, data[64:])

    def test_multi_channel_interleaved_read(self):
        """A burst spanning two granules is served by two channels."""
        engine, mem = make_system(n_channels=2, size=1 << 16)
        resp = engine.add_channel(Channel(128))
        req = MemRequest(addr=0, nbytes=4096, kind="burst", tag="x",
                         respond_to=resp)
        for channel, piece in mem.split_burst(req):
            mem.channels[channel].req.push(piece)
        beats = drain(engine, resp, 64)
        assert len(beats) == 64
        addrs = sorted(b.addr for b in beats)
        assert addrs == [i * 64 for i in range(64)]
        assert mem.total_bytes_read() == 4096
        assert mem.channels[0].stats.bytes_read == 2048
        assert mem.channels[1].stats.bytes_read == 2048

    def test_reset_stats(self):
        engine, mem = make_system()
        resp = engine.add_channel(Channel(8))
        mem.channels[0].req.push(
            MemRequest(addr=0, nbytes=64, kind="single", respond_to=resp)
        )
        drain(engine, resp, 1)
        assert mem.total_bytes_read() == 64
        mem.reset_stats()
        assert mem.total_bytes_read() == 0


# -- Cycle-resolved service traces -------------------------------------------

TRACE_SEED = 20210614

# (final cycle, sha256 of the delivered-beat trace) of _service_trace.
SERVICE_TRACE_CLEAN = (
    2932, "f5cac0385dc74dd383a24dfb1161a968a782ebb7bb90778b49f85211f502fc9a")
SERVICE_TRACE_FAULTED = (
    2932, "85463783f33cec5f61b7554d432e7b98058e5656123ea08f33f62363ba285ff7")


class _ScriptedProducer(Component):
    """Pushes a fixed (cycle, request-factory) script into a channel."""

    demand_driven = True

    def __init__(self, engine, req, script):
        self.req = req
        self.script = script
        self.idx = 0
        engine.add_component(self)
        req.subscribe_space(self)
        engine.wake(self)

    def tick(self, engine):
        while self.idx < len(self.script):
            when, make = self.script[self.idx]
            if when > engine.now:
                engine.wake_at(self, when)
                return
            if not self.req.can_push():
                return  # space wake re-arms
            self.req.push(make())
            self.idx += 1

    def is_idle(self):
        return self.idx >= len(self.script)


class _PatternedConsumer(Component):
    """Drains 0..3 beats per cycle following a fixed seeded pattern."""

    demand_driven = True

    def __init__(self, engine, resp, pattern, got):
        self.resp = resp
        self.pattern = pattern
        self.got = got
        engine.add_component(self)
        resp.subscribe_data(self)

    def tick(self, engine):
        budget = self.pattern[engine.now % len(self.pattern)]
        while budget and self.resp.can_pop():
            beat = self.resp.pop()
            self.got.append((
                engine.now, beat.tag, beat.addr, beat.beat, beat.last,
                beat.is_write_ack,
                None if beat.is_write_ack else bytes(beat.data),
            ))
            budget -= 1
        if self.resp.can_pop():
            engine.wake(self)  # throttled this cycle, not starved


def _service_trace(fault_plan=None):
    """Drive one DRAM channel with a seeded random request mix.

    Two requesters share the channel, so a fault plan's reorders (which
    only swap beats bound for different requesters) can engage.
    Returns the delivered beats in delivery order, the final cycle,
    the channel stats and the fault counters.
    """
    engine = Engine()
    size = 1 << 20
    mem = MemorySystem(engine, size, n_channels=1,
                       timings=DramTimings(latency=12))
    mem.view_u32(0, size // 4)[:] = np.arange(size // 4, dtype=np.uint32)
    channel = mem.channels[0]
    fault = None
    if fault_plan is not None:
        fault = FaultState(fault_plan, engine)
        channel._fault = fault
    resps = [engine.add_channel(Channel(8)) for _ in range(2)]
    rng = np.random.default_rng(TRACE_SEED)
    script = []
    when = 0
    expected_beats = 0
    for index in range(800):
        when += int(rng.integers(0, 4))
        beats = int(rng.integers(1, 9))
        # Reads stay in the lower half, writes in the upper half, so
        # every read beat must carry the initial image.
        lines = size // 2 // LINE_BYTES
        addr = int(rng.integers(0, lines - beats)) * LINE_BYTES
        resp = resps[index % 2]
        if rng.random() < 0.2:
            addr += size // 2
            payload = bytes(rng.integers(0, 256, 8, dtype=np.uint8))
            script.append((when, (
                lambda a=addr, p=payload, r=resp, t=("w", index): MemRequest(
                    addr=a, nbytes=8, kind="single", is_write=True,
                    data=np.frombuffer(p, dtype=np.uint8), tag=t,
                    respond_to=r)
            )))
            expected_beats += 1  # the write ack
        else:
            script.append((when, (
                lambda a=addr, n=beats * LINE_BYTES, r=resp, t=("r", index):
                    MemRequest(addr=a, nbytes=n, kind="burst", tag=t,
                               respond_to=r)
            )))
            expected_beats += beats
    _ScriptedProducer(engine, channel.req, script)
    got = []
    patterns = np.random.default_rng(TRACE_SEED + 1).integers(0, 4, (2, 64))
    for resp, pattern in zip(resps, patterns.tolist()):
        _PatternedConsumer(engine, resp, pattern, got)
    engine.run(done=lambda: len(got) >= expected_beats, max_cycles=400_000)
    assert len(got) == expected_beats
    assert channel.pending == 0
    return got, engine.now, channel.stats.as_dict(), \
        dict(fault.stats) if fault is not None else None


def _trace_digest(trace):
    return hashlib.sha256(repr(trace).encode("utf-8")).hexdigest()


def _check_service_contract(got):
    """Every read beat carries its line's bytes, beats arrive in order."""
    store = np.arange((1 << 20) // 4, dtype=np.uint32).view(np.uint8)
    next_beat = {}
    for _, tag, addr, beat, last, is_ack, data in got:
        if is_ack:
            assert tag[0] == "w" and tag not in next_beat
            next_beat[tag] = None
            continue
        assert beat == next_beat.get(tag, 0)
        next_beat[tag] = None if last else beat + 1
        if tag[0] == "r":
            assert data == bytes(store[addr:addr + LINE_BYTES])
    assert all(value is None for value in next_beat.values())


class TestServiceTrace:
    """Beat-for-beat service traces of one channel under a random mix.

    The digests pin the exact delivery cycle, order and payload of every
    beat, so any change to the accept, schedule or delivery paths that
    moves a single beat fails here, not only in end-to-end cycle counts.
    """

    def test_random_mix_trace_pinned(self):
        got, cycles, stats, _ = _service_trace()
        _check_service_contract(got)
        assert len(got) > 2500
        assert stats["peak_queue"] > 8  # backpressure was exercised
        assert (cycles, _trace_digest(got)) == SERVICE_TRACE_CLEAN

    def test_faulted_trace_pinned(self):
        plan = FaultPlan(
            seed=3,
            dram_latency=Window(512, 64, phase=31),
            dram_extra_latency=40,
            dram_blackout=Window(1500, 90, phase=700),
            dram_reorder_permille=200,
        )
        got, cycles, _, fault_stats = _service_trace(plan)
        for counter in ("latency_spiked_requests", "reorders",
                        "blackout_cycles_entered"):
            assert fault_stats[counter] > 0, counter
        _check_service_contract(got)
        assert (cycles, _trace_digest(got)) == SERVICE_TRACE_FAULTED

