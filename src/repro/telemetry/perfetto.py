"""One Perfetto ``trace_event`` file for every observer of a run.

The Trace Event Format's JSON object form, loadable by
https://ui.perfetto.dev and ``chrome://tracing``: from telemetry, PE
phase slices (``"X"``) and occupancy/bandwidth counter tracks
(``"C"``); from the span tracer, one slice per sampled request on its
PE, bank and DRAM tracks bound by ``"s"/"t"/"f"`` flow arrows.
``"M"`` events name the tracks.  One cycle maps to one microsecond.
"""

import json

from repro.tracing.analyze import decompose
from repro.tracing.export import ordered_spans

PERFETTO_SCHEMA_VERSION = 1

_JSON = {"sort_keys": True, "separators": (",", ":")}

# Synthetic process ids grouping the tracks in the viewer.
_PID_PHASES, _PID_MEMORY, _PID_REQUESTS, _PID_BANKS, _PID_DRAM = range(1, 6)

# Gauge series ("bank.<name>.mshr", ...) -> counter track.
_COUNTERS = {
    ("bank", "mshr"): "mshr in flight",
    ("bank", "subentries"): "subentries live",
    ("dram", "queue"): "dram queue depth",
    ("dram", "bw_bytes_per_cycle"): "dram bandwidth B/cycle",
}


def _process(pid, name):
    return {"ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": name}}


def _thread(pid, tid, name):
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def _telemetry_events(telemetry):
    events = [_process(_PID_PHASES, "PE phases"),
              _process(_PID_MEMORY, "memory system")]
    for pe_index in sorted(telemetry.moms_latency):
        events.append(_thread(_PID_PHASES, pe_index, f"pe{pe_index}"))
    for track, track_id, label, start, end in telemetry.spans:
        if track != "pe" or label == "idle":
            continue  # idle gaps read better as empty space on the track
        events.append({"ph": "X", "pid": _PID_PHASES, "tid": track_id,
                       "name": label, "cat": "phase",
                       "ts": start, "dur": end - start})
    for row in telemetry.samples:
        counters = {
            "mshr in flight": {"total": row.get("mshr_total", 0)},
            "subentries live": {"total": row.get("subentries_total", 0)},
        }
        for key, value in row.items():
            parts = key.split(".", 2)
            track = _COUNTERS.get((parts[0], parts[-1]))
            if track is not None and len(parts) == 3:
                counters.setdefault(track, {})[parts[1]] = value
        for name, args in counters.items():
            events.append({"ph": "C", "pid": _PID_MEMORY, "tid": 0,
                           "name": name, "ts": row["cycle"], "args": args})
    return events


def _slice(pid, tid, name, start, end, args):
    return {"ph": "X", "pid": pid, "tid": tid, "name": name,
            "ts": start, "dur": max(1, end - start), "args": args}


def _flow(ph, flow_id, pid, tid, ts):
    event = {"ph": ph, "pid": pid, "tid": tid, "ts": ts,
             "name": "request", "cat": "moms", "id": flow_id}
    if ph == "f":
        event["bp"] = "e"  # bind to the enclosing slice's end
    return event


def _span_events(tracer):
    spans = [s for s in ordered_spans(tracer.spans) if "retire" in s]
    banks = sorted({s["bank"] for s in spans if "bank" in s})
    bank_tid = {bank: index for index, bank in enumerate(banks)}
    events = [_process(_PID_REQUESTS, "sampled requests"),
              _process(_PID_BANKS, "MOMS banks"),
              _process(_PID_DRAM, "DRAM")]
    for pe in sorted({s["pe"] for s in spans}):
        events.append(_thread(_PID_REQUESTS, pe, f"pe{pe}"))
    for bank, tid in bank_tid.items():
        events.append(_thread(_PID_BANKS, tid, bank))
    for flow_id, span in enumerate(spans):
        name = f"pe{span['pe']}#{span['seq']}"
        events.append(_slice(_PID_REQUESTS, span["pe"], name,
                             span["issue"], span["retire"],
                             {"outcome": span.get("outcome", "?"),
                              "stages": decompose(span)}))
        events.append(_flow("s", flow_id, _PID_REQUESTS, span["pe"],
                            span["issue"]))
        if "outcome_cycle" in span and "bank" in span:
            tid = bank_tid[span["bank"]]
            end = span.get("replay", span["outcome_cycle"] + 1)
            events.append(_slice(_PID_BANKS, tid, name,
                                 span["outcome_cycle"], end,
                                 {"outcome": span["outcome"],
                                  "line_addr": span.get("line_addr"),
                                  "fan_in": span.get("fan_in")}))
            events.append(_flow("t", flow_id, _PID_BANKS, tid,
                                span["outcome_cycle"]))
        if "dram_accept" in span:
            deliver = span.get("dram_deliver", span["dram_accept"] + 1)
            events.append(_slice(_PID_DRAM, 0, name,
                                 span["dram_accept"], deliver,
                                 {"line_addr": span.get("line_addr")}))
            events.append(_flow("t", flow_id, _PID_DRAM, 0,
                                span["dram_accept"]))
        events.append(_flow("f", flow_id, _PID_REQUESTS, span["pe"],
                            span["retire"]))
    return events


def write_perfetto(path, telemetry=None, tracer=None):
    """Write the run's trace to *path*; returns the event count."""
    events = []
    other = {"schema": PERFETTO_SCHEMA_VERSION}
    if telemetry is not None:
        events.extend(_telemetry_events(telemetry))
        other["start_cycle"] = telemetry.start_cycle
        other["end_cycle"] = telemetry.end_cycle
    if tracer is not None:
        events.extend(_span_events(tracer))
        other["sample_rate"] = tracer.config.sample_rate
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": other}
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, **_JSON)
    return len(events)


def validate_perfetto(path):
    """Parse *path* and check trace_event structural rules.

    Raises ``ValueError`` on the first violation; returns a dict of
    per-phase-type event counts on success.  The ``trace`` command
    runs this on its own output before it reports success.
    """
    with open(path, encoding="ascii") as handle:
        trace = json.load(handle)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a traceEvents list")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    counts = {}
    flows = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ValueError(f"event {i} has no phase type 'ph'")
        if "name" not in event:
            raise ValueError(f"event {i} ({ph}) has no name")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"event {i} ({ph}) has non-numeric ts")
        if "pid" not in event or "tid" not in event:
            raise ValueError(f"event {i} ({ph}) lacks pid/tid")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i} (X) has invalid dur")
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"event {i} (C) has no args values")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"event {i} (C) arg {key!r} is non-numeric"
                    )
        elif ph in ("s", "t", "f"):
            if "id" not in event:
                raise ValueError(f"flow event {i} missing id")
            flows.setdefault(event["id"], []).append(ph)
        else:
            raise ValueError(f"event {i} has unexpected phase {ph!r}")
    for flow_id, phases in flows.items():
        if phases[0] != "s" or phases[-1] != "f" or len(phases) < 2:
            raise ValueError(
                f"flow {flow_id} malformed ({''.join(phases)})"
            )
    return counts
