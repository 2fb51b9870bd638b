"""Subentry buffer: per-miss request state, stored as linked rows.

Each MSHR owns a linked chain of fixed-size rows; each row slot (a
*subentry*) records one pending request (its ID, requester port, and
byte offset within the line).  Rows are allocated from one free pool,
so the total number of outstanding requests a bank can absorb is
``n_rows * row_size`` regardless of how they distribute over lines --
this is what lets a MOMS coalesce hundreds of requests onto a single
in-flight DRAM line at a fraction of the cost of a cache array.
"""

from dataclasses import dataclass


@dataclass
class SubentryStats:
    appends: int = 0
    overflows: int = 0
    rows_allocated: int = 0
    peak_rows: int = 0
    peak_entries: int = 0

    def as_dict(self):
        """JSON-safe snapshot (telemetry / report export)."""
        return {
            "appends": self.appends,
            "overflows": self.overflows,
            "rows_allocated": self.rows_allocated,
            "peak_rows": self.peak_rows,
            "peak_entries": self.peak_entries,
        }


class SubentryStore:
    """A pool of linked rows of subentries."""

    def __init__(self, total_subentries, row_size=4):
        if row_size < 1:
            raise ValueError("row size must be >= 1")
        if total_subentries < row_size:
            raise ValueError("need at least one row of subentries")
        self.row_size = row_size
        self.n_rows = total_subentries // row_size
        self.capacity = self.n_rows * row_size
        self._free_rows = self.n_rows
        self._entries_live = 0
        self.stats = SubentryStats()

    def new_chain(self):
        """Start an empty chain (no rows allocated yet)."""
        return []

    def append(self, chain, item):
        """Add *item* to *chain*; False if a new row is needed but none free.

        The chain is a list of rows (lists).  A failed append leaves the
        chain unchanged; the bank stalls and retries.
        """
        if chain and len(chain[-1]) < self.row_size:
            chain[-1].append(item)
        else:
            if self._free_rows == 0:
                self.stats.overflows += 1
                return False
            self._free_rows -= 1
            self.stats.rows_allocated += 1
            chain.append([item])
            rows_in_use = self.n_rows - self._free_rows
            if rows_in_use > self.stats.peak_rows:
                self.stats.peak_rows = rows_in_use
        self._entries_live += 1
        self.stats.appends += 1
        if self._entries_live > self.stats.peak_entries:
            self.stats.peak_entries = self._entries_live
        return True

    def free_chain(self, chain):
        """Return all of *chain*'s rows to the pool after draining."""
        self._free_rows += len(chain)
        self._entries_live -= sum(len(row) for row in chain)
        chain.clear()

    @staticmethod
    def chain_items(chain):
        """Flat iteration over a chain's subentries, oldest first."""
        for row in chain:
            yield from row

    @staticmethod
    def chain_length(chain):
        return sum(len(row) for row in chain)

    @property
    def free_rows(self):
        return self._free_rows

    @property
    def entries_live(self):
        return self._entries_live

    @property
    def load_factor(self):
        return 1.0 - self._free_rows / self.n_rows
