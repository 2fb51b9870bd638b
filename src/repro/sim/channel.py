"""FIFO channels and fixed-latency delay lines.

These are the only two communication primitives in the simulator.  Both
are *registered*: a token pushed in cycle ``t`` is first visible to the
consumer in cycle ``t + 1`` (channel) or ``t + latency`` (delay line).
Capacity accounting is also registered -- a slot freed by a pop in cycle
``t`` can only be reused in cycle ``t + 1`` -- so simulation results do
not depend on the order in which components are ticked within a cycle.

Channels are preallocated power-of-two ring buffers.  Three integers
describe the whole FIFO state -- ``_head`` (ring index of the oldest
visible token), ``_visible`` (committed tokens), ``_staged_n`` (tokens
pushed this cycle) -- which makes :meth:`Channel.commit`, the single
hottest function in the simulator, integer bookkeeping instead of list
copying.  Staged tokens live at ``(head + visible + staged_n) & mask``;
a pop advances ``head`` and shrinks ``visible`` together, so the staging
region never moves mid-cycle.  Slots are not cleared on pop (popped
references are retained until the slot is overwritten, bounded by the
ring size) -- measurably cheaper and harmless for the token objects the
simulator moves.

On top of the generic object FIFO sits a *fields API*
(:meth:`push_request` / :meth:`front_request` / :meth:`pop_request`,
the ``response`` equivalents, :meth:`pop_line` and :meth:`drop`): hot
producers and consumers exchange plain field values instead of token
objects.  On a plain :class:`Channel` the fields API recycles pooled
``MomsRequest`` / ``MomsResponse`` objects (see
:mod:`repro.core.messages`); on a :class:`SoaChannel` the fields go
straight into struct-of-arrays columns and no token object exists at
all.  Both ends of a channel must agree on the convention, which the
hierarchy builder guarantees by only using :class:`SoaChannel` on
direct point-to-point PE<->bank paths.

For the demand-driven engine, channels are also the wake fabric:
components subscribe to *data* (tokens visible) and *space* (capacity
free) conditions, and every end-of-cycle :meth:`Channel.commit` wakes
the subscribers whose condition holds.  Because commits only run on
channels touched during the cycle, wake traffic is proportional to
actual token movement.
"""

from collections import deque

# Token classes and freelists for the object-mode fields API.  Bound by
# repro.core.messages at its import time (a direct import here would be
# circular: repro.core.bank imports repro.sim).  While unbound, the
# fresh-construction fallback below performs the import, which triggers
# the binding as a side effect.
_MomsRequest = None
_MomsResponse = None
_request_pool = None
_response_pool = None


def _new_request(addr, size, req_id, port):
    cls = _MomsRequest
    if cls is None:
        import repro.core.messages  # noqa: F401  (binds the globals)
        cls = _MomsRequest
    cls._fresh += 1
    return cls(addr, size, req_id, port)


def _new_response(req_id, addr, data, port):
    cls = _MomsResponse
    if cls is None:
        import repro.core.messages  # noqa: F401  (binds the globals)
        cls = _MomsResponse
    cls._fresh += 1
    return cls(req_id, addr, data, port)


def _ring_size_for(capacity):
    size = 1
    while size < capacity:
        size *= 2
    return size


class Channel:
    """A capacity-limited FIFO with next-cycle visibility.

    The producer calls :meth:`can_push` / :meth:`push`; the consumer
    calls :meth:`can_pop` / :meth:`front` / :meth:`pop`.  The engine
    calls :meth:`commit` at the end of every cycle to make staged pushes
    visible and to refresh the registered occupancy used for capacity
    checks.
    """

    # Backpressure fault hook: original capacity while throttled.  A
    # class attribute so unthrottled channels pay nothing.
    _base_capacity = None

    def __init__(self, capacity, name=""):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        size = _ring_size_for(capacity)
        self._ring = [None] * size
        self._mask = size - 1
        self._head = 0  # ring index of the oldest visible token
        self._visible = 0  # committed tokens the consumer may pop
        self._staged_n = 0  # tokens pushed this cycle (visible next)
        self._occ = 0  # registered occupancy at cycle start
        self._engine = None
        self._dirty = False  # touched this cycle -> needs commit
        self._data_subs = []  # consumers woken when tokens are visible
        self._space_subs = []  # producers woken when capacity is free
        self._space_requests = []  # one-shot space wakes
        # Lifetime statistics, useful for utilization reports.
        self.total_pushed = 0
        self.total_popped = 0

    def bind(self, engine):
        """Attach this channel to an engine (done by Engine.add_channel)."""
        self._engine = engine

    # -- wake wiring --------------------------------------------------------

    def subscribe_data(self, component):
        """Wake *component* whenever a commit leaves tokens visible."""
        if component not in self._data_subs:
            self._data_subs.append(component)
        return self

    def subscribe_space(self, component):
        """Wake *component* whenever a commit leaves free capacity."""
        if component not in self._space_subs:
            self._space_subs.append(component)
        return self

    def request_space_wake(self, component):
        """One-shot: wake *component* at the next commit with free space.

        The workhorse of the demand engine's backpressure handling: a
        producer that found this channel full arms exactly one wake
        instead of subscribing statically, so commits with free space
        stop waking producers that have nothing to send.
        """
        if component not in self._space_requests:
            self._space_requests.append(component)

    # -- fault hooks --------------------------------------------------------

    def throttle(self, capacity):
        """Clamp the effective capacity (backpressure fault window).

        All producers -- including the arbiters and crossbars that
        inline their capacity arithmetic -- read ``capacity``, so the
        clamp back-pressures every path uniformly.  Tokens already in
        flight stay poppable.  :meth:`restore` undoes the clamp.
        """
        if self._base_capacity is None:
            self._base_capacity = self.capacity
        if capacity > self._mask + 1:
            self._grow_ring(capacity)
        self.capacity = capacity

    def restore(self):
        """Undo :meth:`throttle`; no-op if not throttled."""
        if self._base_capacity is not None:
            self.capacity = self._base_capacity
            self._base_capacity = None

    def _grow_ring(self, capacity):
        """Re-lay the ring for a larger capacity (throttle above base)."""
        count = self._visible + self._staged_n
        old_ring, old_mask, head = self._ring, self._mask, self._head
        size = _ring_size_for(capacity)
        ring = [None] * size
        for i in range(count):
            ring[i] = old_ring[(head + i) & old_mask]
        self._ring = ring
        self._mask = size - 1
        self._head = 0

    def validate(self):
        """Assert occupancy accounting invariants (checked mode only).

        Total in-flight tokens can never exceed the channel's true
        capacity (throttling only lowers the limit for *new* pushes),
        and visible tokens can only shrink within a cycle (pops), never
        grow past the registered occupancy.
        """
        limit = self.capacity if self._base_capacity is None \
            else self._base_capacity
        if self.pending > limit:
            raise AssertionError(
                f"channel {self.name!r}: {self.pending} tokens in flight "
                f"exceeds capacity {limit}"
            )
        if self._visible > self._occ:
            raise AssertionError(
                f"channel {self.name!r}: visible tokens "
                f"({self._visible}) exceed registered occupancy "
                f"({self._occ}) mid-cycle"
            )

    # -- producer side ------------------------------------------------------

    def can_push(self):
        """True if a push this cycle would not exceed capacity."""
        return self._occ + self._staged_n < self.capacity

    def can_push_n(self, n):
        """True if *n* pushes this cycle would not exceed capacity."""
        return self._occ + self._staged_n + n <= self.capacity

    def free_slots(self):
        """Number of pushes still accepted this cycle."""
        return self.capacity - self._occ - self._staged_n

    def push(self, item):
        """Stage *item*; it becomes poppable next cycle."""
        staged = self._staged_n
        if self._occ + staged >= self.capacity:
            raise OverflowError(f"push to full channel {self.name!r}")
        self._ring[(self._head + self._visible + staged) & self._mask] = item
        self._staged_n = staged + 1
        self.total_pushed += 1
        engine = self._engine
        if engine is not None:
            engine._active = True
            if not self._dirty:
                self._dirty = True
                engine._dirty_channels.append(self)

    def push_many(self, items):
        """Stage several tokens in one call (one capacity check).

        The hot-path variant of :meth:`push` for producers that emit
        bursts -- e.g. a DRAM channel delivering several beats to one
        requester per cycle -- saving per-token bookkeeping.
        """
        n = len(items)
        if n == 0:
            return
        staged = self._staged_n
        if self._occ + staged + n > self.capacity:
            raise OverflowError(
                f"push of {n} tokens to full channel {self.name!r}"
            )
        ring = self._ring
        mask = self._mask
        base = self._head + self._visible + staged
        first = base & mask
        if first + n <= mask + 1:
            ring[first:first + n] = items
        else:
            for i, item in enumerate(items):
                ring[(base + i) & mask] = item
        self._staged_n = staged + n
        self.total_pushed += n
        engine = self._engine
        if engine is not None:
            engine._active = True
            if not self._dirty:
                self._dirty = True
                engine._dirty_channels.append(self)

    # -- consumer side ------------------------------------------------------

    def can_pop(self):
        """True if a token is available this cycle."""
        return self._visible > 0

    def front(self):
        """Peek at the next token without consuming it."""
        if not self._visible:
            raise IndexError(f"front of empty channel {self.name!r}")
        return self._ring[self._head]

    def pop(self):
        """Consume and return the next token."""
        visible = self._visible
        if not visible:
            raise IndexError(f"pop from empty channel {self.name!r}")
        head = self._head
        item = self._ring[head]
        self._head = (head + 1) & self._mask
        self._visible = visible - 1
        self.total_popped += 1
        engine = self._engine
        if engine is not None:
            engine._active = True
            if not self._dirty:
                self._dirty = True
                engine._dirty_channels.append(self)
        return item

    def pop_many(self, limit=None):
        """Consume up to *limit* visible tokens (all of them by default).

        One bookkeeping update for the whole batch -- the consumer-side
        mirror of :meth:`push_many` for components that drain a queue
        in a single tick (DMA beats, write acks).
        """
        n = self._visible
        if limit is not None and limit < n:
            n = limit
        if n <= 0:
            return []
        ring = self._ring
        mask = self._mask
        head = self._head
        if head + n <= mask + 1:
            items = ring[head:head + n]
        else:
            items = [ring[(head + i) & mask] for i in range(n)]
        self._head = (head + n) & mask
        self._visible -= n
        self.total_popped += n
        engine = self._engine
        if engine is not None:
            engine._active = True
            if not self._dirty:
                self._dirty = True
                engine._dirty_channels.append(self)
        return items

    def pop_all(self):
        """Consume every visible token (see :meth:`pop_many`)."""
        return self.pop_many()

    def drop(self):
        """Consume the head token and recycle it to its freelist.

        For consumers that already read everything they need via
        :meth:`front` / :meth:`front_request` / :meth:`front_response`:
        the token returns to its pool without another field round trip.
        """
        item = self.pop()
        pool = getattr(type(item), "_pool", None)
        if pool is not None:
            pool.append(item)

    # -- fields API (see module docstring) ----------------------------------

    def push_request(self, addr, size, req_id, port):
        """Stage a MOMS request given as plain fields (pooled token)."""
        pool = _request_pool
        if pool:
            token = pool.pop()
            token.addr = addr
            token.size = size
            token.req_id = req_id
            token.port = port
        else:
            token = _new_request(addr, size, req_id, port)
        self.push(token)

    def front_request(self):
        """Peek the head request as an ``(addr, size, req_id, port)`` tuple."""
        token = self.front()
        return (token.addr, token.size, token.req_id, token.port)

    def pop_request(self):
        """Consume the head request; returns its field tuple."""
        token = self.pop()
        fields = (token.addr, token.size, token.req_id, token.port)
        pool = _request_pool
        if pool is not None:
            pool.append(token)
        return fields

    def push_response(self, req_id, addr, data, port):
        """Stage a MOMS response given as plain fields (pooled token)."""
        pool = _response_pool
        if pool:
            token = pool.pop()
            token.req_id = req_id
            token.addr = addr
            token.data = data
            token.port = port
        else:
            token = _new_response(req_id, addr, data, port)
        self.push(token)

    def front_response(self):
        """Peek the head response as a ``(req_id, addr, data, port)`` tuple."""
        token = self.front()
        return (token.req_id, token.addr, token.data, token.port)

    def pop_response(self):
        """Consume the head response; returns its field tuple."""
        token = self.pop()
        fields = (token.req_id, token.addr, token.data, token.port)
        pool = _response_pool
        if pool is not None:
            pool.append(token)
        return fields

    def pop_line(self):
        """Consume a returned memory line as ``(addr, data)``.

        Line fills arrive as either ``MemResponse`` (from DRAM) or
        ``MomsResponse`` (from a next-level MOMS); both are recycled to
        their own freelists by type, so the bank never needs to know
        which kind it received.
        """
        token = self.pop()
        fields = (token.addr, token.data)
        pool = getattr(type(token), "_pool", None)
        if pool is not None:
            pool.append(token)
        return fields

    # -- end of cycle -------------------------------------------------------

    def commit(self):
        """End-of-cycle update; called by the engine on dirty channels."""
        engine = self._engine
        staged = self._staged_n
        if staged:
            self._visible += staged
            self._staged_n = 0
            if engine is not None:
                # Newly visible tokens enable progress next cycle even if
                # nothing else happened; don't let the engine fast-forward
                # or declare deadlock past them.
                engine._active = True
        occupancy = self._visible
        self._occ = occupancy
        self._dirty = False
        # The all-tick legacy engine never reads the wake set, so the
        # whole wake loop is demand-engine-only work.
        if engine is None or not engine._demand_enabled:
            return
        # Engine.wake() inlined: this loop runs for every token movement
        # in the system, so the call and dedup cost is worth flattening.
        wake = engine._wake_next
        if occupancy and self._data_subs:
            for component in self._data_subs:
                order = component._engine_order
                if order not in wake:
                    wake[order] = component
                    engine.component_wakes += 1
                    component.wakes += 1
        if occupancy < self.capacity:
            for component in self._space_subs:
                order = component._engine_order
                if order not in wake:
                    wake[order] = component
                    engine.component_wakes += 1
                    component.wakes += 1
            requests = self._space_requests
            if requests:
                for component in requests:
                    order = component._engine_order
                    if order not in wake:
                        wake[order] = component
                        engine.component_wakes += 1
                        component.wakes += 1
                requests.clear()

    def __len__(self):
        """Number of tokens currently visible to the consumer."""
        return self._visible

    @property
    def pending(self):
        """Total tokens in flight (visible + staged)."""
        return self._visible + self._staged_n


class SoaChannel(Channel):
    """Struct-of-arrays channel for direct point-to-point token paths.

    Field values live in parallel preallocated columns (``addr`` /
    ``size`` / ``port`` integers, plus object columns for ``req_id``
    and response ``data``), indexed by the same ring arithmetic as the
    base class; no token object exists between producer and consumer.
    Used by the hierarchy builder for the PE<->L1 request and response
    ports of the private and two-level organizations, where one bank
    owns both ends.  Paths through arbiters, crossbars, or die
    crossings move tokens opaquely and stay on plain channels.

    The generic object API (:meth:`push` / :meth:`front` / :meth:`pop`)
    still works -- tokens are decomposed into, and rebuilt from, the
    columns -- so harness code and fault tooling see a normal channel.
    ``kind`` ("request" or "response") only matters to that compat
    layer; the fields API addresses the columns directly.
    """

    def __init__(self, capacity, name="", kind="request"):
        if kind not in ("request", "response"):
            raise ValueError(f"unknown SoA channel kind {kind!r}")
        super().__init__(capacity, name)
        self.kind = kind
        size = self._mask + 1
        self._ring = None  # the object ring is replaced by columns
        self._col_addr = [0] * size
        self._col_size = [0] * size
        self._col_rid = [None] * size
        self._col_port = [0] * size
        self._col_data = [None] * size

    def _grow_ring(self, capacity):
        count = self._visible + self._staged_n
        old_mask, head = self._mask, self._head
        size = _ring_size_for(capacity)
        for attr in ("_col_addr", "_col_size", "_col_rid", "_col_port",
                     "_col_data"):
            old = getattr(self, attr)
            fresh = ([0] * size if attr in ("_col_addr", "_col_size",
                                            "_col_port") else [None] * size)
            for i in range(count):
                fresh[i] = old[(head + i) & old_mask]
            setattr(self, attr, fresh)
        self._mask = size - 1
        self._head = 0

    # -- fields API against the columns -------------------------------------

    def _stage_slot(self):
        staged = self._staged_n
        if self._occ + staged >= self.capacity:
            raise OverflowError(f"push to full channel {self.name!r}")
        self._staged_n = staged + 1
        self.total_pushed += 1
        engine = self._engine
        if engine is not None:
            engine._active = True
            if not self._dirty:
                self._dirty = True
                engine._dirty_channels.append(self)
        return (self._head + self._visible + staged) & self._mask

    def _advance(self):
        visible = self._visible
        if not visible:
            raise IndexError(f"pop from empty channel {self.name!r}")
        head = self._head
        self._head = (head + 1) & self._mask
        self._visible = visible - 1
        self.total_popped += 1
        engine = self._engine
        if engine is not None:
            engine._active = True
            if not self._dirty:
                self._dirty = True
                engine._dirty_channels.append(self)
        return head

    def push_request(self, addr, size, req_id, port):
        i = self._stage_slot()
        self._col_addr[i] = addr
        self._col_size[i] = size
        self._col_rid[i] = req_id
        self._col_port[i] = port

    def front_request(self):
        if not self._visible:
            raise IndexError(f"front of empty channel {self.name!r}")
        i = self._head
        return (self._col_addr[i], self._col_size[i],
                self._col_rid[i], self._col_port[i])

    def pop_request(self):
        i = self._advance()
        return (self._col_addr[i], self._col_size[i],
                self._col_rid[i], self._col_port[i])

    def push_response(self, req_id, addr, data, port):
        i = self._stage_slot()
        self._col_rid[i] = req_id
        self._col_addr[i] = addr
        self._col_data[i] = data
        self._col_port[i] = port

    def front_response(self):
        if not self._visible:
            raise IndexError(f"front of empty channel {self.name!r}")
        i = self._head
        return (self._col_rid[i], self._col_addr[i],
                self._col_data[i], self._col_port[i])

    def pop_response(self):
        i = self._advance()
        return (self._col_rid[i], self._col_addr[i],
                self._col_data[i], self._col_port[i])

    def drop(self):
        self._advance()

    def pop_line(self):
        i = self._advance()
        return (self._col_addr[i], self._col_data[i])

    # -- object-API compatibility layer --------------------------------------

    def push(self, item):
        if self.kind == "request":
            self.push_request(item.addr, item.size, item.req_id, item.port)
        else:
            self.push_response(item.req_id, item.addr, item.data, item.port)

    def push_many(self, items):
        if not self.can_push_n(len(items)):
            raise OverflowError(
                f"push of {len(items)} tokens to full channel {self.name!r}"
            )
        for item in items:
            # simlint: disable=R2 -- this IS the bulk API: one capacity
            # check above, then self.push routes each token into the
            # SoA field columns (object-API compatibility shim).
            self.push(item)

    def _rebuild(self, i):
        if self.kind == "request":
            return _new_request(self._col_addr[i], self._col_size[i],
                                self._col_rid[i], self._col_port[i])
        return _new_response(self._col_rid[i], self._col_addr[i],
                             self._col_data[i], self._col_port[i])

    def front(self):
        if not self._visible:
            raise IndexError(f"front of empty channel {self.name!r}")
        return self._rebuild(self._head)

    def pop(self):
        return self._rebuild(self._advance())

    def pop_many(self, limit=None):
        n = self._visible
        if limit is not None and limit < n:
            n = limit
        return [self.pop() for _ in range(n)]


class DelayLine:
    """An unbounded pipe that delivers each token ``latency`` cycles later.

    Used for memory access latency and die-crossing register stages.
    Tokens keep FIFO order because the latency is constant.  When a
    consumer is subscribed, every push schedules a wake timer for the
    token's maturity cycle, so the consumer sleeps through the whole
    latency window.
    """

    def __init__(self, latency, name=""):
        if latency < 1:
            raise ValueError("delay line latency must be >= 1")
        self.latency = latency
        self.name = name
        self._in_flight = deque()  # (ready_time, item)
        self._engine = None
        self._consumer = None
        self.total_pushed = 0

    def bind(self, engine):
        self._engine = engine

    def subscribe_data(self, component):
        """Wake *component* when each token matures (one consumer)."""
        self._consumer = component
        return self

    def push(self, item):
        """Insert *item*; it becomes poppable ``latency`` cycles from now."""
        engine = self._engine
        now = engine.now if engine is not None else 0
        ready = now + self.latency
        self._in_flight.append((ready, item))
        self.total_pushed += 1
        if engine is not None:
            engine.mark_active()
            if self._consumer is not None:
                engine.wake_at(self._consumer, ready)
            else:
                engine.note_event_at(ready)

    def can_pop(self):
        if not self._in_flight:
            return False
        now = self._engine.now if self._engine is not None else 0
        return self._in_flight[0][0] <= now

    def front(self):
        return self._in_flight[0][1]

    def pop(self):
        if not self.can_pop():
            raise IndexError(f"pop from not-ready delay line {self.name!r}")
        _, item = self._in_flight.popleft()
        if self._engine is not None:
            self._engine.mark_active()
        return item

    def next_event_time(self):
        """Cycle at which the head token becomes ready, or None if empty."""
        if not self._in_flight:
            return None
        return self._in_flight[0][0]

    def commit(self):
        """Delay lines need no end-of-cycle action; kept for uniformity."""

    def __len__(self):
        return len(self._in_flight)

    @property
    def pending(self):
        return len(self._in_flight)
