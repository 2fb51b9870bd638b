"""Snapshot container: format, corruption, versioning, atomicity."""

import dataclasses
import json
import os
import pathlib
import pickle
import shutil
import struct

import pytest

from repro.accel.algorithms import get_spec
from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.checkpoint import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
    Checkpointer,
    SnapshotAuditError,
    SnapshotError,
    audit_system,
    load_snapshot,
    read_header,
    save_snapshot,
)
from repro.checkpoint import snapshot as snapshot_module
from repro.graph import web_graph

# A format-1 snapshot written by the last code version that still had
# the kernel-mode switch, in its scalar mode: the BFS point of the
# ``system`` fixture (shared MOMS, demand engine), taken mid-run.
FORMAT1_SCALAR = (pathlib.Path(__file__).resolve().parent / "data"
                  / "format1_scalar.snap")


@pytest.fixture(scope="module")
def system():
    graph = web_graph(200, 800, seed=3)
    config = ArchitectureConfig(
        _design(2, 2, "shared", "bfs", n_channels=2),
        **SCALED_DEFAULTS,
    )
    return AcceleratorSystem(graph, "bfs", config)


def _snap(system, tmp_path, name="a.snap"):
    path = str(tmp_path / name)
    save_snapshot(system, path)
    return path


def _rewrite_header(path, **changes):
    """Patch header keys in place; the payload checksum stays valid."""
    with open(path, "rb") as fh:
        fh.read(len(SNAPSHOT_MAGIC))
        (blob_len,) = struct.unpack(">I", fh.read(4))
        header = json.loads(fh.read(blob_len))
        payload = fh.read()
    header.update(changes)
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC + struct.pack(">I", len(blob))
                 + blob + payload)


class TestContainerFormat:
    def test_roundtrip_header(self, system, tmp_path):
        path = _snap(system, tmp_path)
        header = read_header(path)
        assert header["format"] == SNAPSHOT_FORMAT
        assert header["cycle"] == 0
        assert header["algorithm"] == "bfs"
        assert header["organization"] == "shared"
        assert header["engine"] in ("demand", "legacy")
        assert "kernels" not in header
        assert header["payload_bytes"] > 0

    def test_roundtrip_load(self, system, tmp_path):
        path = _snap(system, tmp_path)
        restored, header = load_snapshot(path)
        assert restored.engine.now == system.engine.now
        assert restored.spec.name == system.spec.name
        assert header == read_header(path)

    def test_meta_merged_into_header(self, system, tmp_path):
        path = str(tmp_path / "m.snap")
        save_snapshot(system, path, meta={"ordinal": 7})
        assert read_header(path)["ordinal"] == 7

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.snap")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_header(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "short.snap")
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC + struct.pack(">I", 500) + b"{}")
        with pytest.raises(SnapshotError, match="truncated snapshot header"):
            read_header(path)

    def test_truncated_payload_rejected(self, system, tmp_path):
        path = _snap(system, tmp_path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-64])
        with pytest.raises(SnapshotError, match="truncated or corrupted"):
            load_snapshot(path)

    def test_corrupted_payload_rejected_by_checksum(self, system, tmp_path):
        path = _snap(system, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_newer_format_rejected_with_pointer(self, system, tmp_path):
        path = _snap(system, tmp_path)
        _rewrite_header(path, format=SNAPSHOT_FORMAT + 1)
        with pytest.raises(SnapshotError, match="newer"):
            read_header(path)

    def test_header_readable_without_payload_decode(self, system, tmp_path):
        # read_header must not touch the payload at all: corrupt it and
        # the header still parses (triage on a damaged snapshot).
        path = _snap(system, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert read_header(path)["algorithm"] == "bfs"


class TestFormatOne:
    """Snapshots from before the kernel-mode switch was retired."""

    def test_scalar_snapshot_resumes_bit_identically(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "demand")
        header = read_header(str(FORMAT1_SCALAR))
        assert header["format"] == 1
        assert header["kernels"] == "scalar"
        restored, _ = load_snapshot(str(FORMAT1_SCALAR))
        assert restored.engine.now == header["cycle"] > 0
        replayed = restored.resume_run()

        graph = web_graph(200, 800, seed=3)
        config = ArchitectureConfig(
            _design(2, 2, "shared", "bfs", n_channels=2),
            **SCALED_DEFAULTS,
        )
        baseline = AcceleratorSystem(graph, "bfs", config).run()
        assert header["cycle"] < baseline.cycles  # taken mid-run
        assert replayed.cycles == baseline.cycles
        assert replayed.iterations == baseline.iterations
        assert replayed.stats == baseline.stats
        assert (replayed.values == baseline.values).all()

    def test_vector_snapshot_refused_before_unpickling(self, tmp_path,
                                                      monkeypatch):
        path = str(tmp_path / "vector.snap")
        shutil.copy(FORMAT1_SCALAR, path)
        _rewrite_header(path, kernels="vector")

        def no_unpickle(*args, **kwargs):
            raise AssertionError("payload was unpickled")

        monkeypatch.setattr(snapshot_module.pickle, "loads", no_unpickle)
        with pytest.raises(SnapshotError, match="retired 'vector'"):
            load_snapshot(path)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, system, tmp_path):
        _snap(system, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.snap"]

    def test_overwrite_in_place(self, system, tmp_path):
        path = _snap(system, tmp_path)
        first = read_header(path)
        save_snapshot(system, path, meta={"ordinal": 2})
        assert read_header(path)["ordinal"] == 2
        assert read_header(path)["sha256"] == first["sha256"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.snap"]


class TestCheckpointerSpec:
    def test_plain_path(self):
        cp = Checkpointer.from_spec("out/run.snap")
        assert cp.path == "out/run.snap"
        assert cp.interval == Checkpointer("x").interval

    def test_path_with_interval(self):
        cp = Checkpointer.from_spec("out/run.snap:500")
        assert (cp.path, cp.interval) == ("out/run.snap", 500)

    def test_colon_in_path_without_interval(self):
        cp = Checkpointer.from_spec("out:dir/run.snap")
        assert cp.path == "out:dir/run.snap"

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Checkpointer("x", interval=0)


class TestSnapshotProtocol:
    def test_built_system_passes_audit(self, system):
        seen = audit_system(system)
        assert any(cls.__name__ == "AcceleratorSystem" for cls in seen)

    def test_unregistered_class_fails_audit(self, system):
        class Intruder:
            pass

        Intruder.__module__ = "repro.notreal"
        system._intruder = Intruder()
        try:
            with pytest.raises(SnapshotAuditError, match="notreal"):
                audit_system(system)
        finally:
            del system._intruder

    def test_spec_without_recipe_refuses_to_pickle(self):
        spec = dataclasses.replace(get_spec("bfs"), recipe=None)
        with pytest.raises(pickle.PicklingError, match="recipe"):
            pickle.dumps(spec)

    def test_spec_with_recipe_rebuilds(self):
        spec = get_spec("pagerank")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.name == spec.name
        assert clone.recipe == spec.recipe

    def test_unpicklable_state_reported_as_snapshot_error(
            self, system, tmp_path):
        system._poison = lambda: None
        try:
            with pytest.raises(SnapshotError, match="snapshot-safe"):
                save_snapshot(system, str(tmp_path / "p.snap"))
        finally:
            del system._poison
        assert not list(tmp_path.iterdir())  # failed write left nothing
