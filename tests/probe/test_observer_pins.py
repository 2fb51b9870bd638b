"""Observer output is pinned, independent, and cross-consistent.

One small fixed point (PageRank on a 900-node web graph, 4x4
two-level MOMS, two iterations, demand engine) is run once per
observer -- token ledger, telemetry, span tracer -- attached alone,
and once with all three attached.  Three contracts:

* **Pinned bytes.**  Each observer's exports hash to fixed SHA-256
  digests, so a refactor of the hook plumbing cannot silently change
  what any observer reports.
* **Independence.**  Attaching a second observer changes nothing the
  first one reports: the single-observer digests equal the
  all-observer ones.
* **Cross-view agreement.**  The three views count the same MOMS and
  miss events, so their totals must agree on a drained run.
"""

import hashlib
import json

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.fabric.design import MOMS_TWO_LEVEL
from repro.graph import web_graph
from repro.telemetry import TelemetryConfig, write_timeline_jsonl
from repro.tracing import SpansConfig, spans_jsonl_bytes

GRAPH = web_graph(900, 4500, seed=11)

PINS = {
    "ledger": {
        "ledger_snapshot": (
            "7741ce2707ad5295856742a6b40b4c54"
            "370ab7b5cc0e554c2170707c74277add"),
    },
    "telemetry": {
        "telemetry_summary": (
            "969d197e510f947a797e256a24453108"
            "d7aa504f9255d7979ee3f68d1198d867"),
        "timeline_jsonl": (
            "9b31bc785065a0c74ada147d49aaecdd"
            "09167673f8bc57ea30940a91da0af9b4"),
        "pe_stall_table": (
            "86247475fa2928843f6b0bc7a7e906b9"
            "09e05e344711ead59cb2a7fafabe2d2a"),
        "bank_stall_table": (
            "86b1935fde06366e15ae1b71a1ce88c5"
            "385c114872c6f6b07f93606a36ce8116"),
    },
    "spans": {
        "spans_jsonl": (
            "ed47b4fd8316f502ac9b7b68a154f21d"
            "b224311e0fcbb8ab900ed078808171ca"),
        "recorder_tail": (
            "d0919bac5e1f39672375b968c2dcf362"
            "862ac36794dfed102f05a63c2186d416"),
    },
}


def _sha(payload):
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def _run(monkeypatch, tmp_path, ledger=False, telemetry=False, spans=False):
    monkeypatch.setenv("REPRO_ENGINE", "demand")
    config = ArchitectureConfig(
        _design(4, 4, MOMS_TWO_LEVEL, "pagerank", n_channels=2),
        **SCALED_DEFAULTS,
    )
    system = AcceleratorSystem(
        GRAPH, "pagerank", config, checks=ledger,
        telemetry=TelemetryConfig(sample_interval=64) if telemetry else None,
        spans=SpansConfig(sample_rate=8) if spans else None,
    )
    result = system.run(max_iterations=2)
    digests = {}
    if ledger:
        digests["ledger_snapshot"] = _sha(system.ledger.snapshot())
    if telemetry:
        tele = system.telemetry
        timeline = tmp_path / "timeline.jsonl"
        write_timeline_jsonl(tele, str(timeline))
        digests["telemetry_summary"] = _sha(tele.summary())
        digests["timeline_jsonl"] = _sha(timeline.read_bytes())
        digests["pe_stall_table"] = _sha(tele.pe_stall_table())
        digests["bank_stall_table"] = _sha(tele.bank_stall_table())
    if spans:
        digests["spans_jsonl"] = _sha(spans_jsonl_bytes(system.tracer))
        digests["recorder_tail"] = _sha(system.tracer.recorder.tail())
    return system, result, digests


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    monkeypatch = pytest.MonkeyPatch()
    tmp_path = tmp_path_factory.mktemp("observers")
    try:
        out = {
            name: _run(monkeypatch, tmp_path, **{name: True})
            for name in PINS
        }
        out["all"] = _run(monkeypatch, tmp_path, ledger=True,
                          telemetry=True, spans=True)
    finally:
        monkeypatch.undo()
    return out


def test_observer_output_is_pinned(runs):
    for name, pins in PINS.items():
        _system, _result, digests = runs[name]
        assert digests == pins, name


def test_second_observer_changes_nothing(runs):
    _system, reference, all_digests = runs["all"]
    for name, pins in PINS.items():
        _system, result, digests = runs[name]
        assert result.cycles == reference.cycles, name
        assert result.values.tobytes() == reference.values.tobytes(), name
        assert digests == {key: all_digests[key] for key in pins}, name


def test_views_agree_on_a_drained_run(runs):
    system, _result, _digests = runs["all"]
    tele = system.telemetry
    tracer = system.tracer
    snapshot = system.ledger.snapshot()
    pe_issued = sum(
        counts["issued"] for scope, counts in snapshot.items()
        if scope.startswith("('pe',")
    )
    bank_issued = sum(
        counts["issued"] for scope, counts in snapshot.items()
        if scope.startswith("('bank',")
    )
    moms_total = sum(sum(h.counts) for h in tele.moms_latency.values())
    miss_total = sum(sum(h.counts) for h in tele.miss_latency.values())
    assert moms_total > 0 and miss_total > 0
    assert moms_total == tracer.requests_seen == pe_issued
    assert miss_total == bank_issued
    for scope, counts in snapshot.items():
        assert counts["issued"] == counts["retired"], scope
        assert counts["in_flight"] == 0, scope
