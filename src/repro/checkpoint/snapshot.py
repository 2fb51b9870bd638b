"""Snapshot file format: versioned, compressed, checksummed, atomic.

A snapshot is the complete pickled object graph of one
:class:`~repro.accel.system.AcceleratorSystem` taken between engine
steps, wrapped in a self-describing container::

    magic "RPSN" | u32 header length | JSON header | zlib(pickle(system))

The JSON header carries the format version, the snapshot cycle, the
engine kind the system was built under, the workload identity, and a
sha256 of the compressed payload.  Readers verify the magic, reject
*newer* format versions (older ones are accepted -- the compatibility
policy is DESIGN.md Section 6.7), and verify the checksum before
unpickling, so a torn or corrupted file fails loudly instead of
resuming garbage.  Format 1 also recorded a ``kernels`` mode; files
written in the retired ``vector`` mode hold classes that no longer
exist and are refused before their payload is touched.  Formats 1
and 2 wired observers through per-component ``_ledger`` / ``_tele`` /
``_trace`` slots and ``Engine.tracer``; format 3 pickles the single
``_probe`` slot, so an observed format <=2 system is refused after
decoding (an unobserved one resumes unchanged).

Writes go to a temporary file in the destination directory, are
fsynced, and are moved into place with ``os.replace`` -- readers
therefore only ever observe a complete, valid snapshot, even if the
writer is SIGKILLed mid-write (the property the chaos harness leans
on).
"""

import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib

SNAPSHOT_MAGIC = b"RPSN"
SNAPSHOT_FORMAT = 3
_PROBE_FORMAT = 3  # first format whose observers ride the probe bus

_HEADER_LEN = struct.Struct(">I")


class SnapshotError(RuntimeError):
    """A snapshot could not be written, read, or trusted."""


def _engine_kind(engine):
    # Local import keeps module import order trivial.
    from repro.sim.engine import LegacyEngine

    return "legacy" if isinstance(engine, LegacyEngine) else "demand"


def save_snapshot(system, path, meta=None):
    """Atomically write *system*'s snapshot to *path*; returns the header.

    ``meta`` (a JSON-safe dict) is merged into the header -- the
    checkpointer records its interval and write ordinal there.
    """
    try:
        payload = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise SnapshotError(
            f"system state is not snapshot-safe: {error!r}; every "
            f"stateful component must pickle (see "
            f"repro.checkpoint.protocol and DESIGN.md Section 6.7)"
        ) from error
    compressed = zlib.compress(payload, 1)
    header = {
        "format": SNAPSHOT_FORMAT,
        "cycle": system.engine.now,
        "engine": _engine_kind(system.engine),
        "algorithm": system.spec.name,
        "organization": system.config.design.organization,
        "iterations": getattr(system, "_run_iterations", 0),
        "payload_bytes": len(compressed),
        "pickle_bytes": len(payload),
        "sha256": hashlib.sha256(compressed).hexdigest(),
    }
    if meta:
        header.update(meta)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
    try:
        with os.fdopen(handle, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(_HEADER_LEN.pack(len(blob)))
            fh.write(blob)
            fh.write(compressed)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


def _read_header_from(fh, path):
    """Parse the header from an open snapshot file; leaves *fh* at the
    first payload byte."""
    magic = fh.read(len(SNAPSHOT_MAGIC))
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"{path}: not a snapshot file (bad magic {magic!r})"
        )
    raw_len = fh.read(_HEADER_LEN.size)
    if len(raw_len) < _HEADER_LEN.size:
        raise SnapshotError(f"{path}: truncated snapshot header")
    (blob_len,) = _HEADER_LEN.unpack(raw_len)
    blob = fh.read(blob_len)
    if len(blob) < blob_len:
        raise SnapshotError(f"{path}: truncated snapshot header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as error:
        raise SnapshotError(
            f"{path}: snapshot header is not valid JSON"
        ) from error
    if header.get("format", 0) > SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path}: snapshot format {header.get('format')} is newer "
            f"than this code understands (<= {SNAPSHOT_FORMAT}); "
            f"replay it with the code version that wrote it"
        )
    return header


def read_header(path):
    """The JSON header of the snapshot at *path* (no payload decode)."""
    with open(path, "rb") as fh:
        return _read_header_from(fh, path)


def load_snapshot(path):
    """Verify and unpickle the snapshot at *path*.

    Returns ``(system, header)``.  The checksum is verified before
    unpickling; any mismatch (torn write that somehow bypassed the
    atomic rename, bit rot, truncation) raises :class:`SnapshotError`.
    """
    with open(path, "rb") as fh:
        header = _read_header_from(fh, path)
        if header.get("kernels") == "vector":
            raise SnapshotError(
                f"{path}: snapshot was written in the retired 'vector' "
                f"kernel mode, which this code no longer has; replay it "
                f"with the code version that wrote it"
            )
        compressed = fh.read()
    expected = header.get("payload_bytes")
    if expected is not None and len(compressed) != expected:
        raise SnapshotError(
            f"{path}: payload is {len(compressed)} bytes, header "
            f"promises {expected} (truncated or corrupted)"
        )
    digest = hashlib.sha256(compressed).hexdigest()
    if digest != header.get("sha256"):
        raise SnapshotError(
            f"{path}: payload checksum mismatch ({digest[:12]}... != "
            f"{str(header.get('sha256'))[:12]}...); snapshot is corrupted"
        )
    try:
        system = pickle.loads(zlib.decompress(compressed))
    except Exception as error:
        raise SnapshotError(
            f"{path}: snapshot payload failed to decode: {error!r} "
            f"(written by an incompatible code version?)"
        ) from error
    if header.get("format", 0) < _PROBE_FORMAT and any(
            getattr(system, name, None) is not None
            for name in ("ledger", "telemetry", "tracer")):
        raise SnapshotError(
            f"{path}: format {header.get('format')} snapshot has an "
            f"observer on the retired hook layout (_ledger/_tele/_trace "
            f"slots, Engine.tracer); replay it with the code version "
            f"that wrote it")
    return system, header
