"""Span exporters and their schema validators.

Two artifacts, both self-validated by the ``trace`` command before it
exits:

* **Span JSONL** -- a versioned meta header line, then one canonical
  JSON object per sampled span.  The encoding is byte-deterministic:
  spans are sorted by ``(issue, pe, seq)``, keys are sorted, and the
  separators are fixed, so the determinism tests can literally
  ``bytes``-compare exports from the demand and legacy engines.
* **Span summary JSON** -- the tracer's per-stage percentiles and
  merge fan-in distributions.

The sampled requests' Perfetto slices and flow arrows are part of the
run's single trace file (:mod:`repro.telemetry.perfetto`).
"""

import json

from repro.tracing.analyze import decompose
from repro.tracing.spans import INTERNAL_KEYS, SPAN_SCHEMA_VERSION

_JSON = {"sort_keys": True, "separators": (",", ":")}


def _public(span):
    """The exported view of a span: observations plus derived stages."""
    record = {
        key: value for key, value in span.items() if key not in INTERNAL_KEYS
    }
    record["stages"] = decompose(span)
    return record


def ordered_spans(spans):
    return sorted(spans, key=lambda s: (s["issue"], s["pe"], s["seq"]))


def spans_jsonl_bytes(tracer):
    """The canonical span-stream encoding (used directly by tests)."""
    header = {
        "schema": SPAN_SCHEMA_VERSION,
        "kind": "spans",
        "sample_rate": tracer.config.sample_rate,
        "requests_seen": tracer.requests_seen,
        "spans": len(tracer.spans),
    }
    lines = [json.dumps(header, **_JSON)]
    lines.extend(
        json.dumps(_public(span), **_JSON)
        for span in ordered_spans(tracer.spans)
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def write_spans_jsonl(tracer, path):
    with open(path, "wb") as handle:
        handle.write(spans_jsonl_bytes(tracer))
    return path


def validate_spans_jsonl(path):
    """Schema-check a span JSONL file; raises ValueError on problems."""
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty span stream")
    header = json.loads(lines[0])
    if header.get("kind") != "spans":
        raise ValueError(f"{path}: missing spans meta header")
    if header.get("schema") != SPAN_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {header.get('schema')!r} != "
            f"{SPAN_SCHEMA_VERSION}"
        )
    if header.get("spans") != len(lines) - 1:
        raise ValueError(
            f"{path}: header says {header.get('spans')} spans, "
            f"file has {len(lines) - 1}"
        )
    for index, line in enumerate(lines[1:], start=2):
        span = json.loads(line)
        for key in ("pe", "seq", "issue", "events", "stages"):
            if key not in span:
                raise ValueError(f"{path}:{index}: span missing {key!r}")
        stages = span["stages"]
        for stage, duration in stages.items():
            if duration < 0:
                raise ValueError(
                    f"{path}:{index}: negative {stage} ({duration})"
                )
        if "total" in stages:
            # Exact accounting: the on-request stages sum to total.
            parts = sum(
                stages.get(stage, 0)
                for stage in ("queue", "miss_wait", "drain", "return")
            )
            if parts != stages["total"]:
                raise ValueError(
                    f"{path}:{index}: stage sum {parts} != "
                    f"total {stages['total']}"
                )
    return {"meta": header, "spans": len(lines) - 1}


def write_span_summary(summary, path):
    with open(path, "w", encoding="ascii") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def validate_span_summary(path):
    with open(path, "r", encoding="ascii") as handle:
        summary = json.load(handle)
    for key in ("schema", "sample_rate", "requests_seen", "stages",
                "merge_fanin", "recorder"):
        if key not in summary:
            raise ValueError(f"{path}: summary missing {key!r}")
    if summary["schema"] != SPAN_SCHEMA_VERSION:
        raise ValueError(f"{path}: schema {summary['schema']!r}")
    return summary
