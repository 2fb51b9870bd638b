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

from dataclasses import dataclass
from functools import cache

from repro.sim.kernels import lcg_jump

_MASK64 = (1 << 64) - 1


@cache
def _fail_map(max_kicks):
    """``(A, C)`` of ``x -> A*x + C``: the ``max_kicks + 1`` victim draws
    of one failing insert on a full table.  A module-level cache, so
    snapshots carry no derived constants."""
    c = lcg_jump(0, max_kicks + 1)
    return (lcg_jump(1, max_kicks + 1) - c) & _MASK64, c


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
        if n_ways < 1:
            raise ValueError(f"n_ways must be >= 1, got {n_ways}")
        if max_kicks < 0:
            raise ValueError(f"max_kicks must be >= 0, got {max_kicks}")
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
        if self.occupancy >= self.capacity:
            # Full table: no slot is empty, so the kick chain can only
            # shuffle residents and unwind.  Its one lasting effect, the
            # max_kicks + 1 victim draws, is a single affine step.
            a, c = _fail_map(self.max_kicks)
            self._victim_state = (self._victim_state * a + c) & _MASK64
            self.stats.insert_failures += 1
            return None
        entry = MshrEntry(line_addr)
        kicks, self._victim_state = self._kick_walk(
            entry, self._victim_state, True)
        stats = self.stats
        if kicks < 0:
            stats.insert_failures += 1
            return None
        self.occupancy += 1
        stats.inserts += 1
        stats.kicks += kicks
        if self.occupancy > stats.peak_occupancy:
            stats.peak_occupancy = self.occupancy
        return entry

    def _kick_walk(self, carried, state, keep):
        """Walk one bounded kick chain for entry *carried*, in place.

        Returns ``(kicks, state)``: displacements before an empty slot
        (-1 past ``max_kicks``) and the victim PRNG state after the
        draws.  A failed chain, or any chain unless *keep* (a dry run),
        is unwound exactly (hardware bounds speculative kicks the same
        way).
        """
        tables = self._tables
        memo = self._slot_cache
        n_ways = self.n_ways
        path = []  # (way, slot) of every displacement, for exact unwind
        for kick in range(self.max_kicks + 1):
            addr = carried.line_addr
            slots = memo.get(addr) or self._slots(addr)
            # First look for any empty slot among the d candidate ways.
            for way, slot in enumerate(slots):
                if tables[way][slot] is None:
                    break
            else:
                # All full: displace a pseudo-randomly chosen victim way
                # so kick chains explore the table instead of looping.
                state = (state * 6364136223846793005
                         + 1442695040888963407) & _MASK64
                way = (state >> 33) % n_ways
                slot = slots[way]
                table = tables[way]
                table[slot], carried = carried, table[slot]
                path.append((way, slot))
                continue
            if keep:
                tables[way][slot] = carried
                return kick, state
            break
        else:
            kick = -1
        for way, slot in reversed(path):
            table = tables[way]
            table[slot], carried = carried, table[slot]
        return kick, state

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
        every cycle; a failing attempt only advances the victim PRNG
        ``max_kicks + 1`` draws and ``insert_failures`` by one.  A
        later draw sequence may still place the entry, so each attempt
        is a dry-run :meth:`_kick_walk`; the run stops before the first
        that would succeed and commits the k failures in bulk.  Returns
        k; the caller replays the next attempt on a real tick.
        """
        if self.occupancy >= self.capacity:
            # Full table: every attempt fails (see insert) and no slot
            # frees inside the silent window (removals need real drain
            # ticks), so the run is budget * (max_kicks + 1) draws.
            self._victim_state = lcg_jump(
                self._victim_state, budget * (self.max_kicks + 1))
            self.stats.insert_failures += budget
            return budget
        probe = MshrEntry(line_addr)
        state = self._victim_state
        failures = 0
        while failures < budget:
            kicks, after = self._kick_walk(probe, state, False)
            if kicks >= 0:
                break
            failures, state = failures + 1, after
        self._victim_state = state
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
