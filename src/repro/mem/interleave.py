"""Address interleaving across DRAM channels.

The paper interleaves the global address space across the available
channels every 2,048 bytes to maximize aggregate bandwidth (Section
IV-B).  The interleaver maps a global byte address to a (channel,
local address) pair and can split multi-granule bursts into the
per-channel pieces they touch.
"""

DEFAULT_GRANULE = 2048


class AddressInterleaver:
    """Round-robin interleaving of a flat address space over channels."""

    def __init__(self, n_channels, granule=DEFAULT_GRANULE):
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if granule < 1 or granule & (granule - 1):
            raise ValueError("granule must be a positive power of two")
        self.n_channels = n_channels
        self.granule = granule

    def channel_of(self, addr):
        """Channel that owns global byte address *addr*."""
        return (addr // self.granule) % self.n_channels

    def to_local(self, addr):
        """Translate a global address to (channel, channel-local address)."""
        granule_index = addr // self.granule
        channel = granule_index % self.n_channels
        local = (granule_index // self.n_channels) * self.granule + (
            addr % self.granule
        )
        return channel, local

    def to_global(self, channel, local):
        """Inverse of :meth:`to_local`."""
        granule_index = (local // self.granule) * self.n_channels + channel
        return granule_index * self.granule + local % self.granule

    def split(self, addr, nbytes):
        """Split [addr, addr+nbytes) into per-channel contiguous pieces.

        Returns a list of (channel, local_addr, piece_bytes, global_addr)
        tuples in global address order.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        granule = self.granule
        offset = addr % granule
        if offset + nbytes <= granule:
            # Fast path: the burst stays inside one granule (every MOMS
            # line read and most DMA bursts), so the piece list is the
            # whole request -- no boundary walk needed.
            granule_index = addr // granule
            local = (granule_index // self.n_channels) * granule + offset
            return [(granule_index % self.n_channels, local, nbytes, addr)]
        pieces = []
        cursor = addr
        end = addr + nbytes
        while cursor < end:
            boundary = (cursor // self.granule + 1) * self.granule
            piece_end = min(end, boundary)
            channel, local = self.to_local(cursor)
            pieces.append((channel, local, piece_end - cursor, cursor))
            cursor = piece_end
        return pieces
