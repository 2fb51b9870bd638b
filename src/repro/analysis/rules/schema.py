"""R14: versioned row schemas, one pass for writers and readers.

Journal rows (``repro.experiments.common.JOURNAL_SCHEMA``), activity
summaries (``repro.core.stats.ACTIVITY_SCHEMA_VERSION``) and telemetry
exports (``TELEMETRY_SCHEMA_VERSION``) are all consumed by tolerant
readers that key their compatibility decisions on the embedded version
number.  R14 keeps both halves of that contract in one pass:

* writers reference the constants -- an integer literal under a
  ``schema``/``version`` dict key, in any file, keeps "working" when
  the constant is bumped and silently stamps rows with a stale
  version, which is exactly the drift the tolerant parsing was built
  to survive, not to create;
* the constants stay honest -- each versioned schema is pinned in
  :data:`SCHEMA_CONTRACTS` with its version number and the exact set
  of string keys the writer's dict literals carry at that version.
  The pass recomputes both from source; keys that changed while the
  version constant did not is the silent-drift bug the versioning
  exists to prevent, and a reader consulting a key no writer emits is
  dead tolerant-fallback code waiting to mask a typo.  Bumping a
  version legitimately requires re-pinning the contract here -- that
  forced diff is the review hook.
"""

import ast

from repro.analysis.rules.base import Rule

_VERSION_KEYS = ("schema", "version")


# -- R14: the pinned schema contracts --------------------------------------

class SchemaContract:
    """One versioned row schema: its constant, writer, and readers.

    ``rel`` matches a repo-relative path by exact name or trailing
    ``/<rel>`` component; ``writer_keys`` is the full recursive set of
    string keys the writer's dict literals carry at ``version``
    (nested dicts included -- readers index into them).
    """

    __slots__ = ("name", "rel", "constant", "version", "writer",
                 "writer_keys", "readers", "extra_reader_keys")

    def __init__(self, name, rel, constant, version, writer,
                 writer_keys, readers=(), extra_reader_keys=()):
        self.name = name
        self.rel = rel
        self.constant = constant
        self.version = version
        self.writer = writer
        self.writer_keys = frozenset(writer_keys)
        self.readers = tuple(readers)  # (rel, qualname) pairs
        self.extra_reader_keys = frozenset(extra_reader_keys)


# The pin table.  Changing a writer's keys requires bumping its version
# constant; bumping the constant requires re-pinning the entry here
# (both directions produce an R14 finding until done).
SCHEMA_CONTRACTS = (
    SchemaContract(
        name="engine-activity",
        rel="repro/core/stats.py",
        constant="ACTIVITY_SCHEMA_VERSION",
        version=3,
        writer="EngineActivity.as_dict",
        writer_keys={
            "version", "cycles_simulated", "cycles_skipped",
            "component_ticks", "component_wakes", "all_tick_equivalent",
            "runs", "fused_runs", "fused_cycles", "mean_run_len",
            "fusion_abort_reasons", "by_kind",
        },
    ),
    SchemaContract(
        name="telemetry-summary",
        rel="repro/telemetry/collector.py",
        constant="TELEMETRY_SCHEMA_VERSION",
        version=2,
        writer="Telemetry.summary",
        writer_keys={
            "version", "cycles", "sample_interval", "samples",
            "samples_dropped", "spans", "spans_dropped", "mshr_peak",
            "mshr_mean", "fusion", "fused_runs", "fused_cycles",
            "mean_run_len", "abort_reasons", "pe_stalls", "bank_stalls",
            "cache", "requests", "hits", "secondary_misses",
            "primary_misses", "no_dram_fraction", "merge_rate",
            "moms_latency", "miss_latency", "dram_latency", "dram",
            "single_line_fraction", "effective_bw_ratio",
        },
        readers=(("repro/report.py", "telemetry_summary_line"),),
        # Latency percentiles come from LatencyHistogram.compact(),
        # whose rows nest under the *_latency keys.
        extra_reader_keys={"p50", "p99"},
    ),
    SchemaContract(
        name="journal-row",
        rel="repro/experiments/common.py",
        constant="JOURNAL_SCHEMA",
        version=2,
        writer="_run_points_hardened.finish",
        writer_keys={
            "schema", "index", "fingerprint", "point", "status",
            "attempt", "payload", "error",
        },
        readers=(
            ("repro/experiments/common.py", "_decode_payload"),
            ("repro/experiments/common.py", "_load_journal"),
        ),
    ),
    # Self-check contract: matched only by the in-memory fixture rel
    # the rule tests lint against (no repo file is named fixture.py).
    SchemaContract(
        name="fixture-row",
        rel="fixture.py",
        constant="ROW_SCHEMA",
        version=1,
        writer="as_row",
        writer_keys={"schema", "alpha"},
        readers=(("fixture.py", "read_row"),),
    ),
)


def _rel_matches(rel, pin):
    return rel == pin or rel.endswith("/" + pin)


def _module_constant(source, name):
    """(value, node) of a module-level integer assignment, or None."""
    for stmt in source.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if (isinstance(target, ast.Name) and target.id == name
                    and isinstance(stmt.value, ast.Constant)
                    and type(stmt.value.value) is int):
                return stmt.value.value, stmt
    return None


def _function_info(source, qualname):
    for info in source.functions:
        if info.qualname == qualname:
            return info
    return None


def _literal_dict_keys(func_node):
    """All string keys of dict literals in *func_node*, nested included."""
    keys = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    keys.add(key.value)
    return keys


def _key_reads(func_node):
    """Yield (key, anchor node) string-key reads in *func_node*.

    ``row["k"]`` (load context), ``row.get("k", ...)``, ``"k" in row``.
    """
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            yield node.slice.value, node
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.args[0].value, node
        elif (isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)):
            yield node.left.value, node


class SchemaCoherenceRule(Rule):
    """R14: writer/reader key sets must match the pinned contract."""

    id = "R14"
    name = "schema-coherence"
    severity = "error"
    summary = ("versioned rows must reference their schema constant, "
               "and key sets must match the pin table")
    rationale = (
        "Tolerant readers mask schema drift by design: a writer that "
        "grows or renames a key without bumping its version constant "
        "ships rows old readers silently misparse, and a reader "
        "consulting a key no writer emits falls back to its default "
        "forever -- both bugs with no local symptom.  A writer that "
        "inlines the version as a literal decouples it from the "
        "constant, so bumping the constant no longer bumps the rows.  "
        "Recomputing the key sets from source, diffing them against "
        "the pinned contract, and flagging literal versions turns each "
        "drift into a lint finding at the offending line."
    )
    hint = (
        "if the key change is intentional, bump the schema's version "
        "constant and re-pin the entry in SCHEMA_CONTRACTS "
        "(repro/analysis/rules/schema.py) in the same commit"
    )
    literal_hint = (
        "reference JOURNAL_SCHEMA / ACTIVITY_SCHEMA_VERSION / "
        "TELEMETRY_SCHEMA_VERSION (or define a constant next to the "
        "new writer)"
    )

    POSITIVE = (
        "ROW_SCHEMA = 1\n"
        "def as_row():\n"
        "    return {'schema': ROW_SCHEMA, 'alpha': 1, 'beta': 2}\n"
        "def read_row(row):\n"
        "    return row['alpha']\n"
    )
    NEGATIVE = (
        "ROW_SCHEMA = 1\n"
        "def as_row():\n"
        "    return {'schema': ROW_SCHEMA, 'alpha': 1}\n"
        "def read_row(row):\n"
        "    return row.get('alpha', 0)\n"
    )

    def check(self, source, ctx):
        yield from self._check_literal_versions(source)
        for contract in SCHEMA_CONTRACTS:
            yield from self._check_version_and_writer(source, contract)
            yield from self._check_readers(source, ctx, contract)

    def _check_literal_versions(self, source):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant)
                        and key.value in _VERSION_KEYS
                        and isinstance(value, ast.Constant)
                        and type(value.value) is int):
                    yield self.finding(
                        source, value,
                        f"row field '{key.value}' is the integer literal "
                        f"{value.value}; writers must reference the "
                        f"schema constant",
                        hint=self.literal_hint,
                    )

    def _check_version_and_writer(self, source, contract):
        if not _rel_matches(source.rel, contract.rel):
            return
        version = None
        found = _module_constant(source, contract.constant)
        if found is not None:
            version, node = found
            if version != contract.version:
                yield self.finding(
                    source, node,
                    f"{contract.constant} is {version} but the "
                    f"'{contract.name}' contract pins version "
                    f"{contract.version}: re-pin the entry in "
                    f"SCHEMA_CONTRACTS with the new version and key "
                    f"set",
                )
                return  # stale pin table; key diffs would be noise
        info = _function_info(source, contract.writer)
        if info is None:
            return  # writer moved/removed: pin update caught in review
        keys = _literal_dict_keys(info.node)
        if keys != contract.writer_keys:
            added = sorted(keys - contract.writer_keys)
            removed = sorted(contract.writer_keys - keys)
            parts = []
            if added:
                parts.append(f"added {added}")
            if removed:
                parts.append(f"removed {removed}")
            yield self.finding(
                source, info.node,
                f"'{contract.writer}' keys changed without a version "
                f"bump ({', '.join(parts)}): '{contract.name}' is "
                f"pinned at version {contract.version} with the old "
                f"key set",
            )

    def _check_readers(self, source, ctx, contract):
        readers_here = [qual for rel, qual in contract.readers
                        if _rel_matches(source.rel, rel)]
        if not readers_here:
            return
        allowed = self._writer_keys(ctx, contract)
        if allowed is None:
            return  # writer not in the linted tree; nothing to diff
        allowed = allowed | contract.extra_reader_keys
        for qualname in readers_here:
            info = _function_info(source, qualname)
            if info is None:
                continue
            for key, node in _key_reads(info.node):
                if key not in allowed:
                    yield self.finding(
                        source, node,
                        f"'{qualname}' reads key '{key}' that no "
                        f"'{contract.name}' writer emits: the tolerant "
                        f"fallback would mask this permanently",
                    )

    @staticmethod
    def _writer_keys(ctx, contract):
        """Recursive writer key set recomputed from the linted tree."""
        memo = ctx.memo.setdefault("R14", {})
        if contract.name in memo:
            return memo[contract.name]
        keys = None
        for source in ctx.sources:
            if not _rel_matches(source.rel, contract.rel):
                continue
            info = _function_info(source, contract.writer)
            if info is not None:
                keys = frozenset(_literal_dict_keys(info.node))
                break
        memo[contract.name] = keys
        return keys
