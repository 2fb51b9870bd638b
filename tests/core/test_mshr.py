"""Tests for cuckoo and fully-associative MSHR files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AssociativeMshrFile, CuckooMshrFile
from repro.core.mshr import MshrEntry
from repro.sim.kernels import lcg_jump

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
MASK64 = (1 << 64) - 1


def oracle_insert(mshrs, line_addr):
    """Reference insert: the literal kick-and-unwind chain, no shortcuts.

    Every attempt walks up to ``max_kicks + 1`` displacements and
    unwinds them on failure, drawing the victim PRNG once per kick --
    including on a full table, where the chain can never succeed.
    """
    entry = MshrEntry(line_addr)
    carried = entry
    tables = mshrs._tables
    path = []
    for kick in range(mshrs.max_kicks + 1):
        slots = mshrs._slots(carried.line_addr)
        placed = False
        for way, slot in enumerate(slots):
            if tables[way][slot] is None:
                tables[way][slot] = carried
                placed = True
                break
        if placed:
            mshrs.occupancy += 1
            mshrs.stats.inserts += 1
            mshrs.stats.kicks += kick
            if mshrs.occupancy > mshrs.stats.peak_occupancy:
                mshrs.stats.peak_occupancy = mshrs.occupancy
            return entry
        mshrs._victim_state = (
            mshrs._victim_state * 6364136223846793005 + 1442695040888963407
        ) % (1 << 64)
        way = (mshrs._victim_state >> 33) % mshrs.n_ways
        slot = slots[way]
        resident = tables[way][slot]
        tables[way][slot] = carried
        path.append((way, slot))
        carried = resident
    for way, slot in reversed(path):
        displaced = tables[way][slot]
        tables[way][slot] = carried
        carried = displaced
    assert carried is entry
    mshrs.stats.insert_failures += 1
    return None


class TestCuckooMshrFile:
    def test_insert_then_lookup(self):
        mshrs = CuckooMshrFile(64)
        entry = mshrs.insert(0x123)
        assert entry is not None
        assert mshrs.lookup(0x123) is entry
        assert mshrs.occupancy == 1

    def test_lookup_missing_returns_none(self):
        mshrs = CuckooMshrFile(64)
        assert mshrs.lookup(0x42) is None

    def test_remove_frees_slot(self):
        mshrs = CuckooMshrFile(64)
        mshrs.insert(7)
        removed = mshrs.remove(7)
        assert removed.line_addr == 7
        assert mshrs.lookup(7) is None
        assert mshrs.occupancy == 0

    @pytest.mark.parametrize("kwargs", [
        dict(n_ways=0), dict(n_ways=-2), dict(max_kicks=-1),
    ])
    def test_impossible_settings_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            CuckooMshrFile(64, **kwargs)

    def test_remove_missing_raises(self):
        mshrs = CuckooMshrFile(64)
        with pytest.raises(KeyError):
            mshrs.remove(9)

    def test_fills_to_high_load_factor(self):
        """Cuckoo hashing reaches high occupancy before failing."""
        mshrs = CuckooMshrFile(1024, n_ways=4)
        inserted = 0
        for line in range(1024):
            if mshrs.insert(line) is not None:
                inserted += 1
        assert inserted / mshrs.capacity > 0.85

    def test_insert_failure_preserves_state(self):
        """A failed insert must leave every previous entry findable."""
        mshrs = CuckooMshrFile(16, n_ways=2, max_kicks=4)
        inserted = []
        line = 0
        # Fill until the first failure.
        while True:
            if mshrs.insert(line) is not None:
                inserted.append(line)
            else:
                break
            line += 1
            assert line < 10_000
        # All previously inserted lines still there, failed one absent.
        for prev in inserted:
            assert mshrs.lookup(prev) is not None
        assert mshrs.lookup(line) is None
        assert mshrs.occupancy == len(inserted)

    def test_kick_stats_recorded(self):
        mshrs = CuckooMshrFile(32, n_ways=2)
        for line in range(24):
            mshrs.insert(line)
        assert mshrs.stats.inserts <= 24
        assert mshrs.stats.peak_occupancy == mshrs.occupancy

    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    unique=True, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_behaves_like_a_set(self, lines):
        """Property: cuckoo file == python set (when inserts succeed)."""
        mshrs = CuckooMshrFile(512)
        model = set()
        for line in lines:
            if mshrs.insert(line) is not None:
                model.add(line)
        for line in lines:
            assert (mshrs.lookup(line) is not None) == (line in model)
        assert mshrs.occupancy == len(model)
        assert sorted(e.line_addr for e in mshrs.entries()) == sorted(model)

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=63)),
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_insert_remove_interleaving(self, ops):
        """Property: arbitrary insert/remove sequences stay consistent."""
        mshrs = CuckooMshrFile(256)
        model = set()
        for is_insert, line in ops:
            if is_insert:
                if line not in model and mshrs.insert(line) is not None:
                    model.add(line)
            elif line in model:
                mshrs.remove(line)
                model.discard(line)
        assert mshrs.occupancy == len(model)
        for line in model:
            assert mshrs.lookup(line) is not None


def _table_layout(mshrs):
    return [[None if entry is None else entry.line_addr for entry in table]
            for table in mshrs._tables]


def _filled(capacity, seed, max_kicks=16, n_ways=4, insert=oracle_insert):
    """A cuckoo file filled until it is full (or 50 lines per slot)."""
    mshrs = CuckooMshrFile(capacity, n_ways=n_ways, max_kicks=max_kicks,
                           seed=seed)
    line = 0
    while mshrs.occupancy < mshrs.capacity and line < 50 * capacity:
        insert(mshrs, line)
        line += 1
    return mshrs, line


def _assert_same(mshrs, oracle):
    assert mshrs._victim_state == oracle._victim_state
    assert mshrs.stats.as_dict() == oracle.stats.as_dict()
    assert mshrs.occupancy == oracle.occupancy
    assert _table_layout(mshrs) == _table_layout(oracle)


class TestLcgJump:
    @pytest.mark.parametrize("n", [0, 1, 2, 33, 4096 * 33])
    @pytest.mark.parametrize("seed", [
        0, 1, 0x9E3779B97F4A7C15, MASK64, 0x1234_5678_9ABC_DEF0,
    ])
    def test_matches_scalar_advances(self, seed, n):
        state = seed
        for _ in range(n):
            state = (state * LCG_A + LCG_C) & MASK64
        assert lcg_jump(seed, n) == state

    def test_composes(self):
        seed = 0xDEADBEEF
        assert lcg_jump(lcg_jump(seed, 1000), 2345) == lcg_jump(seed, 3345)


class TestOracleIdentity:
    """``insert`` (full-table closed form + shared kick walk) and the
    fused ``failing_insert_run`` against the reference kick-and-unwind
    chain: verdict, PRNG state, stats and table layout after every
    operation, on tables driven to full and held there."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_ops_match_oracle(self, data):
        n_ways = data.draw(st.integers(1, 8), label="n_ways")
        capacity = data.draw(st.integers(max(4, n_ways), 64),
                             label="capacity")
        max_kicks = data.draw(st.integers(0, 33), label="max_kicks")
        seed = data.draw(st.integers(1, 1000), label="seed")
        # Fill phase: the same lines through each file's own insert.
        mshrs, next_line = _filled(capacity, seed, max_kicks, n_ways,
                                   CuckooMshrFile.insert)
        oracle, _ = _filled(capacity, seed, max_kicks, n_ways)
        _assert_same(mshrs, oracle)
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["insert", "insert", "insert", "remove", "run"]),
            st.integers(0, 2 * capacity), st.integers(1, 64)),
            min_size=1, max_size=60), label="ops")
        for op, pick, budget in ops:
            live = sorted(e.line_addr for e in oracle.entries())
            if op == "remove" and live:
                line = live[pick % len(live)]
                assert mshrs.remove(line).line_addr == line
                oracle.remove(line)
            elif op == "insert":
                # A line the caller knows is absent: a fresh one, or
                # one of a few lines that keep retrying.
                line = next_line + pick % 4
                if line in live:
                    continue
                got = mshrs.insert(line)
                want = oracle_insert(oracle, line)
                assert (got is None) == (want is None)
                assert got is None or got.line_addr == line
                if want is not None:
                    next_line += 4
            elif op == "run":
                line = next_line + 4
                k = mshrs.failing_insert_run(line, budget)
                assert 0 <= k <= budget
                for _ in range(k):
                    assert oracle_insert(oracle, line) is None
                if k < budget:
                    # Stopped exactly before the attempt that succeeds.
                    _assert_same(mshrs, oracle)
                    assert mshrs.insert(line) is not None
                    assert oracle_insert(oracle, line) is not None
                    next_line += 8
            _assert_same(mshrs, oracle)


class TestFailingInsertRun:
    """The fused retry spin equals the same number of reference
    failing inserts: table layout, PRNG state and stats all match."""

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_full_table_run_matches_repeated_inserts(self, seed):
        fused, line = _filled(64, seed)
        replayed, _ = _filled(64, seed)
        assert fused.occupancy == fused.capacity
        budget = 4096
        assert fused.failing_insert_run(line, budget) == budget
        for _ in range(budget):
            assert oracle_insert(replayed, line) is None
        _assert_same(fused, replayed)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_partial_table_run_stops_before_a_success(self, seed):
        # Short kick chains on a nearly full table: some attempts fail,
        # and a later draw sequence may place the line.
        fused, line = _filled(64, seed, max_kicks=2)
        fused.remove(next(fused.entries()).line_addr)
        replayed, _ = _filled(64, seed, max_kicks=2)
        replayed.remove(next(replayed.entries()).line_addr)
        target = line + 1000
        k = fused.failing_insert_run(target, 256)
        for _ in range(k):
            assert oracle_insert(replayed, target) is None
        _assert_same(fused, replayed)
        if k < 256:
            # The run stopped exactly before the attempt that succeeds.
            assert oracle_insert(replayed, target) is not None


class TestAssociativeMshrFile:
    def test_blocks_at_capacity(self):
        mshrs = AssociativeMshrFile(capacity=4)
        for line in range(4):
            assert mshrs.insert(line) is not None
        assert mshrs.insert(99) is None
        assert mshrs.stats.insert_failures == 1

    def test_remove_unblocks(self):
        mshrs = AssociativeMshrFile(capacity=2)
        mshrs.insert(1)
        mshrs.insert(2)
        assert mshrs.insert(3) is None
        mshrs.remove(1)
        assert mshrs.insert(3) is not None

    def test_paper_default_is_sixteen(self):
        mshrs = AssociativeMshrFile()
        assert mshrs.capacity == 16

    def test_load_factor(self):
        mshrs = AssociativeMshrFile(capacity=8)
        mshrs.insert(5)
        assert mshrs.load_factor == pytest.approx(1 / 8)
