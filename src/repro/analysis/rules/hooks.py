"""R6/R12: mutable default arguments and optional-hook gating.

The opt-in instrumentation layers (repro.faults, repro.telemetry,
repro.tracing, repro.checkpoint) hang off well-known attributes --
``_probe`` (the observer bus) and ``_fault`` on components,
``watchdog`` / ``sampler`` / ``checkpointer`` on the engine,
``ledger`` / ``telemetry`` / ``tracer`` on the accelerator system --
that are ``None`` in the default configuration.  The contract
(DESIGN.md 6.2/6.3) is that every dereference is dominated by an
``is not None`` test (directly, through a local alias, in a ternary,
after an early return, or as the left arm of an ``and``), so the
uninstrumented hot path pays exactly one pointer test and the
disabled-hook overhead budgets in bench_sim.py stay <3%.

R12 checks the contract with the flow-sensitive analysis from
:mod:`repro.analysis.dataflow`, in two facets over one scan per
function: a hook dereferenced in place without a dominating guard, in
every linted file; and a hook handed to a helper that dereferences its
parameter unguarded, flagged at the call site even though no hook
method call appears there.
"""

import ast

from repro.analysis.dataflow import FlowScan, param_summaries, \
    unsafe_arguments
from repro.analysis.rules.base import Rule

# Attribute names that carry optional instrumentation objects.
HOOK_ATTRS = frozenset({
    "_probe", "_fault",                         # component-level slots
    "watchdog", "sampler", "checkpointer",      # engine-level hooks
    "ledger", "telemetry", "tracer",            # system-level observers
})

# The instrumentation packages themselves call their own methods
# unconditionally -- that is their job, not a gating violation.
_EXEMPT_PATH_MARKERS = ("repro/faults/", "repro/telemetry/",
                        "repro/tracing/", "repro/checkpoint/",
                        "repro/analysis/")


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
})


class MutableDefaultRule(Rule):
    """R6: no mutable default arguments anywhere in repro.*."""

    id = "R6"
    name = "mutable-default-arg"
    severity = "error"
    summary = "no mutable default arguments"
    rationale = (
        "A mutable default is shared across every call -- in a "
        "simulator that replays the same configuration twice to prove "
        "bit-identity, state smuggled between runs through a default "
        "list/dict is a determinism bug with no local symptom."
    )
    hint = "default to None and materialize inside the function body"

    POSITIVE = (
        "def enqueue(self, items=[]):\n"
        "    return items\n"
    )
    NEGATIVE = (
        "def enqueue(self, items=None):\n"
        "    return items if items is not None else []\n"
    )

    def check(self, source, ctx):
        for info in source.functions:
            args = info.node.args
            defaults = list(args.defaults) + [
                default for default in args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if isinstance(default, _MUTABLE_DISPLAYS) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                ):
                    yield self.finding(
                        source, default,
                        f"mutable default argument in '{info.qualname}'",
                    )


class InterproceduralHookRule(Rule):
    """R12: optional hooks are dereferenced only behind a non-None fact."""

    id = "R12"
    name = "interprocedural-hook"
    severity = "error"
    summary = ("optional hooks must be is-None gated where dereferenced "
               "and where handed to dereferencing helpers")
    rationale = (
        "Hooks are None in the default configuration; an ungated "
        "dereference is an AttributeError the moment the instrumented "
        "test matrix does not cover that branch, and a truthiness gate "
        "(`if self._probe:`) invites hooks with __bool__/__len__ "
        "semantics to silently drop events.  Factoring the call into a "
        "helper (`emit(self._probe, ...)` where `emit` does "
        "`probe.record()`) hides the same AttributeError behind one "
        "call edge, so the dataflow pass also summarizes every "
        "function's deref-unsafe parameters (transitively, through "
        "forwarding helpers) and flags any hook handed to one without "
        "a dominating `is not None` fact at the call site.  The "
        "explicit pointer test is the entire disabled-hook cost model "
        "behind the <3% overhead gates."
    )
    hint = ("test the hook before the call (`if self._probe is not "
            "None: emit(self._probe, ...)`) or make the helper tolerate "
            "None with an early return")
    deref_hint = ("wrap the dereference in `if <hook> is not None:` "
                  "(alias via a local first if it is used repeatedly)")

    POSITIVE = (
        "def emit(probe, event):\n"
        "    probe.record(event)\n"
        "def tick(self, engine):\n"
        "    emit(self._probe, 'bank')\n"
    )
    NEGATIVE = (
        "def emit(probe, event):\n"
        "    if probe is None:\n"
        "        return\n"
        "    probe.record(event)\n"
        "def push(probe, event):\n"
        "    probe.record(event)\n"
        "def tick(self, engine):\n"
        "    emit(self._probe, 'bank')\n"
        "    if self._probe is not None:\n"
        "        push(self._probe, 'bank')\n"
    )

    def check(self, source, ctx):
        if any(marker in source.rel for marker in _EXEMPT_PATH_MARKERS):
            return
        memo = ctx.memo.get(self.id)
        if memo is None:
            scans = {}
            memo = (scans, param_summaries(ctx.callgraph, scans))
            ctx.memo[self.id] = memo
        scans, summaries = memo
        callgraph = ctx.callgraph
        for info in source.functions:
            assignments = source.local_assignments(info.node)

            def is_hook(path):
                return self._is_hook_path(path, assignments)

            scan = scans.get(id(info.node))
            if scan is None:
                scan = FlowScan(info.node)
            for site in scan.derefs:
                if site.guarded or not is_hook(site.path):
                    continue
                yield self.finding(
                    source, site.node,
                    f"'{ast.unparse(site.node)}' in '{info.qualname}' "
                    f"dereferences optional hook "
                    f"'{'.'.join(site.path)}' without a dominating "
                    f"`is not None` test",
                    hint=self.deref_hint,
                )
            key = (source.rel, info.qualname)
            if key not in callgraph.functions:
                continue
            seen = set()
            for site in scan.calls:
                for hit in unsafe_arguments(callgraph, key, site,
                                            summaries, is_hook):
                    if id(hit.node) in seen:
                        continue
                    seen.add(id(hit.node))
                    callee_rel, callee_qual = hit.callee
                    yield self.finding(
                        source, hit.node,
                        f"'{ast.unparse(hit.node)}' flows unguarded "
                        f"from '{info.qualname}' into parameter "
                        f"'{hit.param}' of '{callee_qual}' "
                        f"({callee_rel}), which dereferences it",
                    )

    @staticmethod
    def _is_hook_path(path, assignments):
        """Is *path* an optional-hook expression?

        ``self._probe`` / ``engine.system.ledger`` style paths ending in
        a known hook attribute, or a bare local the function assigns
        from one (the alias idiom).
        """
        if len(path) >= 2:
            return path[-1] in HOOK_ATTRS
        return any(isinstance(value, ast.Attribute)
                   and value.attr in HOOK_ATTRS
                   for value in assignments.get(path[0], ()))
