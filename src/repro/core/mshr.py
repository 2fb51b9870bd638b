"""Miss status holding register (MSHR) files.

Two implementations:

* :class:`CuckooMshrFile` -- the paper's RAM-backed file: thousands of
  entries, looked up by cuckoo hashing over d ways instead of a fully
  associative CAM, so it maps onto ordinary BRAM.  An insertion can
  fail after a bounded kick chain; the bank then stalls and retries,
  which is the paper's behaviour under extreme occupancy.
* :class:`AssociativeMshrFile` -- the classic small fully-associative
  file (16 entries in the paper's traditional-cache baseline); misses
  block as soon as it fills, which is exactly why traditional
  non-blocking caches throttle irregular workloads.
"""

from dataclasses import dataclass, field

from repro.sim.kernels import lcg_jump


@dataclass(slots=True)
class MshrEntry:
    """State of one outstanding cache line."""

    line_addr: int
    subentry_head: object = None
    subentry_count: int = 0


@dataclass
class MshrStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    insert_failures: int = 0
    kicks: int = 0
    peak_occupancy: int = 0

    def as_dict(self):
        """JSON-safe snapshot (telemetry / report export)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "inserts": self.inserts,
            "insert_failures": self.insert_failures,
            "kicks": self.kicks,
            "peak_occupancy": self.peak_occupancy,
        }


class CuckooMshrFile:
    """d-way cuckoo hash table of MSHR entries, BRAM-style.

    ``capacity`` slots are split into ``n_ways`` tables.  Lookup probes
    one slot per way; insert kicks resident entries along a bounded
    chain and reports failure (-> pipeline stall) if the chain exceeds
    ``max_kicks``, mirroring the FPGA implementation in the paper's
    prior work.
    """

    # Fault-injection hook (repro.faults.plan.FaultState); class
    # attribute so unfaulted files pay one "is None" test per insert.
    _fault = None

    def __init__(self, capacity, n_ways=4, max_kicks=16, seed=1):
        if capacity < n_ways:
            raise ValueError("capacity must be at least n_ways")
        self.n_ways = n_ways
        self.way_size = max(1, capacity // n_ways)
        self.capacity = self.way_size * n_ways
        self.max_kicks = max_kicks
        self._tables = [[None] * self.way_size for _ in range(n_ways)]
        # Odd multipliers for multiply-shift hashing, seeded deterministically.
        rng_state = seed * 2654435761 % (1 << 32) or 1
        self._multipliers = []
        for _ in range(n_ways):
            rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            self._multipliers.append((rng_state >> 16) | 1)
        self._victim_state = rng_state ^ 0x9E3779B97F4A7C15
        self.occupancy = 0
        self.stats = MshrStats()
        # Hash memo: line addresses repeat heavily (lookup + insert +
        # remove all probe the same slots, and hot lines recur across
        # the run), so the splitmix64 chain is worth caching.  Bounded
        # by the number of distinct lines touched.
        self._slot_cache = {}

    def _slots(self, line_addr):
        """The candidate slot per way for *line_addr* (cached)."""
        slots = self._slot_cache.get(line_addr)
        if slots is None:
            # splitmix64-style finalizer: full avalanche even for small,
            # sequential line addresses (a plain multiply stays too
            # linear and caps the achievable cuckoo load factor).
            mask = (1 << 64) - 1
            way_size = self.way_size
            out = []
            for multiplier in self._multipliers:
                h = (line_addr + multiplier) & mask
                h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & mask
                h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & mask
                h ^= h >> 31
                out.append(h % way_size)
            slots = tuple(out)
            self._slot_cache[line_addr] = slots
        return slots

    def _slot(self, way, line_addr):
        return self._slots(line_addr)[way]

    def lookup(self, line_addr):
        """Return the entry for *line_addr* or None."""
        self.stats.lookups += 1
        for table, slot in zip(self._tables, self._slots(line_addr)):
            entry = table[slot]
            if entry is not None and entry.line_addr == line_addr:
                self.stats.hits += 1
                return entry
        return None

    def insert(self, line_addr):
        """Allocate an entry; returns it, or None on cuckoo failure.

        The caller must have checked that no entry for *line_addr*
        exists (a lookup always precedes insertion in the bank pipeline).
        """
        if self._fault is not None and self._fault.mshr_blocked():
            # Forced-full window: report failure without touching table
            # or PRNG state, so the retry after the window behaves
            # exactly like a first attempt.
            self.stats.insert_failures += 1
            return None
        entry = MshrEntry(line_addr)
        carried = entry
        tables = self._tables
        path = []  # (way, slot) of every displacement, for exact unwind
        for kick in range(self.max_kicks + 1):
            # First look for any empty slot among the d candidate ways.
            slots = self._slots(carried.line_addr)
            placed = False
            for way, slot in enumerate(slots):
                if tables[way][slot] is None:
                    tables[way][slot] = carried
                    placed = True
                    break
            if placed:
                self.occupancy += 1
                self.stats.inserts += 1
                self.stats.kicks += kick
                if self.occupancy > self.stats.peak_occupancy:
                    self.stats.peak_occupancy = self.occupancy
                return entry
            # All full: displace a pseudo-randomly chosen victim way so
            # kick chains explore the table instead of looping.
            self._victim_state = (
                self._victim_state * 6364136223846793005 + 1442695040888963407
            ) % (1 << 64)
            way = (self._victim_state >> 33) % self.n_ways
            slot = slots[way]
            resident = tables[way][slot]
            tables[way][slot] = carried
            path.append((way, slot))
            carried = resident
        # Kick chain too long: unwind the displacements in reverse so the
        # table is exactly as before (hardware bounds speculative kicks
        # the same way).
        for way, slot in reversed(path):
            displaced = self._tables[way][slot]
            self._tables[way][slot] = carried
            carried = displaced
        assert carried is entry
        self.stats.insert_failures += 1
        return None

    def contains(self, line_addr):
        """Pure presence probe: no lookup/hit stats (fusion oracle).

        ``MomsBank.step_n`` must predict that a retry cycle's MSHR
        lookup would miss without bumping the counters the real,
        stats-replicated retries account for.
        """
        for table, slot in zip(self._tables, self._slots(line_addr)):
            entry = table[slot]
            if entry is not None and entry.line_addr == line_addr:
                return True
        return False

    def failing_insert_run(self, line_addr, budget):
        """Commit up to *budget* consecutive failing inserts of *line_addr*.

        The fused-retry kernel behind ``MomsBank.step_n``: a bank
        stalled on cuckoo insert failure re-attempts the same insert
        every cycle, and each failing attempt leaves the table exactly
        as before (the exact unwind in :meth:`insert`), advancing only
        the victim PRNG by ``max_kicks + 1`` draws and
        ``insert_failures`` by one.  Consecutive attempts are *not*
        automatically failures -- a different victim-way draw can place
        the entry with the table unchanged -- so each attempt is
        dry-run against an overlay view of the table (displacements
        recorded as ``(way, slot) -> carried line address``, nothing
        touched until the attempt's verdict is known).  The run stops
        before the first attempt that would succeed and commits the k
        failing attempts in bulk: ``_victim_state`` advanced
        ``k * (max_kicks + 1)`` draws, ``insert_failures += k``.
        Returns k; the caller replays the next, possibly succeeding,
        attempt on a real tick.
        """
        steps = self.max_kicks + 1
        if self.occupancy >= self.capacity:
            # Retry storm on a *full* table: no empty slot exists and
            # none can appear inside the silent window (removals only
            # happen on real drain ticks), so every attempt fails by
            # construction -- the kick chain just shuffles residents
            # and unwinds.  The whole run collapses to the PRNG
            # advance: budget * steps draws, jumped in O(log n).
            self._victim_state = lcg_jump(self._victim_state, budget * steps)
            self.stats.insert_failures += budget
            return budget
        tables = self._tables
        n_ways = self.n_ways
        mask = (1 << 64) - 1
        failures = 0
        state = committed = self._victim_state
        placed = False
        while failures < budget and not placed:
            carried_addr = line_addr
            view = {}
            for _ in range(steps):
                slots = self._slots(carried_addr)
                for way in range(n_ways):
                    if ((way, slots[way]) not in view
                            and tables[way][slots[way]] is None):
                        placed = True
                        break
                if placed:
                    break
                state = (
                    state * 6364136223846793005 + 1442695040888963407
                ) & mask
                way = (state >> 33) % n_ways
                slot = slots[way]
                occupant = view.get((way, slot))
                if occupant is None:
                    occupant = tables[way][slot].line_addr
                view[(way, slot)] = carried_addr
                carried_addr = occupant
            if not placed:
                failures += 1
                committed = state
        if failures:
            self._victim_state = committed
            self.stats.insert_failures += failures
        return failures

    def remove(self, line_addr):
        """Free the entry for *line_addr* (line returned and drained)."""
        for table, slot in zip(self._tables, self._slots(line_addr)):
            entry = table[slot]
            if entry is not None and entry.line_addr == line_addr:
                table[slot] = None
                self.occupancy -= 1
                return entry
        raise KeyError(f"no MSHR for line {line_addr:#x}")

    @property
    def load_factor(self):
        return self.occupancy / self.capacity

    def entries(self):
        """All live entries (diagnostics / invariant checks)."""
        for table in self._tables:
            for entry in table:
                if entry is not None:
                    yield entry


class AssociativeMshrFile:
    """Small fully-associative MSHR file (traditional cache baseline)."""

    _fault = None  # see CuckooMshrFile._fault

    def __init__(self, capacity=16):
        if capacity < 1:
            raise ValueError("need at least one MSHR")
        self.capacity = capacity
        self._entries = {}
        self.stats = MshrStats()

    def lookup(self, line_addr):
        self.stats.lookups += 1
        entry = self._entries.get(line_addr)
        if entry is not None:
            self.stats.hits += 1
        return entry

    def insert(self, line_addr):
        """Allocate an entry, or None when the file is full (-> block)."""
        if self._fault is not None and self._fault.mshr_blocked():
            self.stats.insert_failures += 1
            return None
        if len(self._entries) >= self.capacity:
            self.stats.insert_failures += 1
            return None
        entry = MshrEntry(line_addr)
        self._entries[line_addr] = entry
        self.stats.inserts += 1
        if len(self._entries) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(self._entries)
        return entry

    def remove(self, line_addr):
        return self._entries.pop(line_addr)

    @property
    def occupancy(self):
        return len(self._entries)

    @property
    def load_factor(self):
        return len(self._entries) / self.capacity

    def entries(self):
        return iter(list(self._entries.values()))
