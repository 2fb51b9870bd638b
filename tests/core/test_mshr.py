"""Tests for cuckoo and fully-associative MSHR files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AssociativeMshrFile, CuckooMshrFile
from repro.sim.kernels import lcg_jump

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
MASK64 = (1 << 64) - 1


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


def _filled(capacity, seed, max_kicks=16):
    """A cuckoo file filled until inserts start failing."""
    mshrs = CuckooMshrFile(capacity, n_ways=4, max_kicks=max_kicks,
                           seed=seed)
    line = 0
    while mshrs.occupancy < mshrs.capacity and line < 50 * capacity:
        mshrs.insert(line)
        line += 1
    return mshrs, line


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


class TestFailingInsertRun:
    """The fused retry spin equals the same number of real failing
    inserts: table layout, PRNG state and stats all match."""

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_full_table_run_matches_repeated_inserts(self, seed):
        fused, line = _filled(64, seed)
        replayed, _ = _filled(64, seed)
        assert fused.occupancy == fused.capacity
        budget = 4096
        assert fused.failing_insert_run(line, budget) == budget
        for _ in range(budget):
            assert replayed.insert(line) is None
        assert fused._victim_state == replayed._victim_state
        assert fused.stats.as_dict() == replayed.stats.as_dict()
        assert _table_layout(fused) == _table_layout(replayed)

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
            assert replayed.insert(target) is None
        assert fused._victim_state == replayed._victim_state
        assert fused.stats.as_dict() == replayed.stats.as_dict()
        assert _table_layout(fused) == _table_layout(replayed)
        if k < 256:
            # The run stopped exactly before the attempt that succeeds.
            assert replayed.insert(target) is not None


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
