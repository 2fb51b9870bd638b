"""Structural description of one accelerator design point.

This is the vocabulary shared by the area model, the frequency model,
and the accelerator configuration: how many PEs and MOMS banks, which
MOMS organization (shared / private / two-level / traditional cache),
sizes of the MSHR, subentry and cache structures, and the algorithm
(which fixes node width and gather pipeline depth).
"""

from dataclasses import dataclass, replace


MOMS_SHARED = "shared"
MOMS_PRIVATE = "private"
MOMS_TWO_LEVEL = "two-level"
MOMS_TRADITIONAL = "traditional"

ORGANIZATIONS = (MOMS_SHARED, MOMS_PRIVATE, MOMS_TWO_LEVEL, MOMS_TRADITIONAL)


@dataclass(frozen=True)
class DesignDescription:
    """Everything the fabric models need to know about a design."""

    n_pes: int
    n_banks: int
    organization: str
    algorithm: str = "pagerank"
    n_channels: int = 4
    weighted: bool = False
    # Shared-level structures, per bank.
    shared_mshrs: int = 4096
    shared_subentries: int = 32768
    shared_cache_kib: int = 256
    # Cuckoo insertion kick bound for every MOMS MSHR file (both
    # levels).  Deeper chains trade insert latency for occupancy at
    # full load -- the deep-queue benchmark raises this to 32.
    mshr_max_kicks: int = 16
    # Private-level structures, per PE (two-level / private organizations).
    private_mshrs: int = 4096
    private_subentries: int = 49152
    private_cache_kib: int = 0
    # PE parameters.
    nodes_per_interval: int = 32768
    node_bits: int = 32
    # Traditional-cache parameters (Fig. 11 baseline).
    traditional_mshrs: int = 16
    traditional_subentries_per_mshr: int = 8

    def __post_init__(self):
        if self.organization not in ORGANIZATIONS:
            raise ValueError(f"unknown organization {self.organization!r}")
        if self.n_pes < 1 or self.n_channels < 1:
            raise ValueError("need at least one PE and one channel")
        if self.has_shared_level and self.n_banks < 1:
            raise ValueError("shared organizations need at least one bank")
        if self.mshr_max_kicks < 0:
            # A negative bound fails every insert, even on an empty
            # table, so the bank would spin until the cycle limit.
            raise ValueError(
                f"mshr_max_kicks must be >= 0, got {self.mshr_max_kicks}")
        if self.organization == MOMS_TRADITIONAL:
            self._check_traditional()

    def _check_traditional(self):
        """Each blocking-cache bank needs an MSHR and a subentry row."""
        # Imported here: repro.core's package init imports this module.
        from repro.core.bank import BankParams

        if self.traditional_mshrs < 1:
            raise ValueError(f"traditional_mshrs must be >= 1, got "
                             f"{self.traditional_mshrs}")
        row = BankParams.subentry_row_size
        total = self.traditional_mshrs * self.traditional_subentries_per_mshr
        if total < row:
            raise ValueError(
                f"traditional_mshrs * traditional_subentries_per_mshr = "
                f"{total} subentries is less than one row of {row}")

    @property
    def has_shared_level(self):
        return self.organization in (MOMS_SHARED, MOMS_TWO_LEVEL,
                                     MOMS_TRADITIONAL)

    @property
    def has_private_level(self):
        return self.organization in (MOMS_PRIVATE, MOMS_TWO_LEVEL,
                                     MOMS_TRADITIONAL)

    @property
    def label(self):
        """Paper-style label, e.g. '16/16 64k two-level'."""
        parts = [f"{self.n_pes}"]
        if self.has_shared_level:
            parts[0] += f"/{self.n_banks}"
        if self.has_private_level and self.private_cache_kib:
            parts.append(f"{self.private_cache_kib}k")
        parts.append(self.organization)
        return " ".join(parts)

    def with_(self, **kwargs):
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)
