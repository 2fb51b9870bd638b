"""R11: static snapshot-completeness (the lint-time twin of audit_system).

The checkpoint protocol (DESIGN.md, ``repro.checkpoint.protocol``)
keeps an explicit inventory -- :data:`SNAPSHOT_REGISTRY` -- of every
class a pickled system may carry, and ``audit_system`` verifies it at
runtime by walking a real pickle.  That audit only fires when someone
builds a system *and* runs the audit test; a stateful class added to a
subsystem the audit fixture does not exercise drifts silently until a
checkpoint fails in the field.

R11 closes the gap statically: it recomputes the containment relation
from source.  Starting at ``AcceleratorSystem``, every class whose
instances are stored into an attribute of a contained class (directly
constructed, built inside a comprehension, appended to a container
attribute, or returned by a called builder -- via the call graph's
returned-class summaries) is itself contained, and every contained
class must appear in the registry or in ``SNAPSHOT_EXCLUDED`` (the
explicit opt-out table, with a reason).

Precision notes (DESIGN.md 6.10): containment is attribute-assignment
based, widened to *every* construction inside ``__init__``/``_build*``
methods of contained classes (builders construct to keep).  Classes
reaching system state only through module-level constants or through
containers threaded via locals can escape the static walk -- the
runtime audit still catches those -- while temporaries built in a
constructor may be over-approximated into state; both audits together
cover what neither does alone.
"""

import ast

from repro.analysis.rules.base import Rule

# The root of the containment walk: the object checkpoints pickle.
_ROOT_CLASSES = ("AcceleratorSystem",)

# Registration/exclusion table spellings recognized in source.
_REGISTER_FUNC = "register"
_REGISTER_ALL = "_register_all"
_EXCLUDED_TABLE = "SNAPSHOT_EXCLUDED"

# Builder methods whose every construction is treated as kept state.
_BUILDER_PREFIXES = ("__init__", "_build")


def _collect_registry(sources):
    """(registered names, excluded names) declared anywhere in *sources*."""
    registered, excluded = set(), set()
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name == _REGISTER_FUNC and node.args:
                    target = node.args[0]
                    if isinstance(target, ast.Name):
                        registered.add(target.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == _EXCLUDED_TABLE
                            and isinstance(node.value, ast.Dict)):
                        for key in node.value.keys:
                            if (isinstance(key, ast.Constant)
                                    and isinstance(key.value, str)):
                                excluded.add(key.value)
        # The registry file's grouped form: ``for cls, note in (...)``
        # inside _register_all, with (Name, "note") tuple entries.
        for info in source.functions:
            if info.name != _REGISTER_ALL:
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.For):
                    continue
                if not isinstance(node.iter, (ast.Tuple, ast.List)):
                    continue
                for entry in node.iter.elts:
                    if (isinstance(entry, (ast.Tuple, ast.List))
                            and entry.elts
                            and isinstance(entry.elts[0], ast.Name)):
                        registered.add(entry.elts[0].id)
    return registered, excluded


class SnapshotCompletenessRule(Rule):
    """R11: every class reachable from system state is registered."""

    id = "R11"
    name = "snapshot-completeness"
    severity = "error"
    summary = ("classes stored into system state must be in "
               "SNAPSHOT_REGISTRY or SNAPSHOT_EXCLUDED")
    rationale = (
        "Snapshots pickle the whole system object graph; audit_system "
        "verifies the registry at runtime but only over the object "
        "graph its fixture builds.  The static containment walk flags "
        "an unregistered stateful class the moment it is assigned into "
        "system state, at lint time, before any checkpoint exists to "
        "fail -- and the explicit SNAPSHOT_EXCLUDED table forces the "
        "\"this is deliberately not snapshot state\" decision to be "
        "written down with a reason."
    )
    hint = (
        "register the class in repro.checkpoint.protocol._register_all "
        "(with a note on what state it carries) after checking it "
        "pickles cleanly, or add it to SNAPSHOT_EXCLUDED with the "
        "reason it is not snapshot state"
    )

    # The registry declaration keeps the fixture past the
    # partial-scope gate even without force_hot (CLI scaffold trees).
    POSITIVE = (
        "class TokenRing:\n"
        "    pass\n"
        "def _register_all(register):\n"
        "    for cls, note in (\n"
        "        (TokenRing, 'ring state'),\n"
        "    ):\n"
        "        register(cls, note)\n"
        "class RogueBuffer:\n"
        "    def __init__(self):\n"
        "        self.rows = []\n"
        "class AcceleratorSystem:\n"
        "    def __init__(self):\n"
        "        self.ring = TokenRing()\n"
        "        self.rogue = RogueBuffer()\n"
    )
    NEGATIVE = (
        "SNAPSHOT_EXCLUDED = {\n"
        "    'ScratchPlan': 'rebuilt from the config on restore',\n"
        "}\n"
        "class TokenQueue:\n"
        "    def __init__(self):\n"
        "        self.items = []\n"
        "def _register_all(register):\n"
        "    for cls, note in (\n"
        "        (TokenQueue, 'ring state'),\n"
        "    ):\n"
        "        register(cls, note)\n"
        "class ScratchPlan:\n"
        "    pass\n"
        "def make_queue():\n"
        "    return TokenQueue()\n"
        "class AcceleratorSystem:\n"
        "    def __init__(self):\n"
        "        self.queue = make_queue()\n"
        "        self.plan = ScratchPlan()\n"
    )

    def check(self, source, ctx):
        buckets = ctx.memo.get(self.id)
        if buckets is None:
            buckets = self._analyze(ctx)
            ctx.memo[self.id] = buckets
        for finding_args in buckets.get(source.rel, ()):
            node, message = finding_args
            yield self.finding(source, node, message)

    # -- whole-program analysis ---------------------------------------------

    def _analyze(self, ctx):
        callgraph = ctx.callgraph
        registered, excluded = _collect_registry(ctx.sources)
        # Whole-program pass, whole program required: a partial scope
        # (e.g. --quick's hot packages) that does not include the
        # registry declarations would flag every registered class.
        # Fixture trees (force_hot) stay checkable without a registry.
        if not registered and not excluded and not ctx.force_hot:
            return {}
        returned = callgraph.returned_classes()
        buckets = {}
        seen_classes = set()
        worklist = [name for name in _ROOT_CLASSES
                    if name in callgraph.class_defs]
        flagged = set()  # (rel, line, class name) dedup
        while worklist:
            class_name = worklist.pop()
            if class_name in seen_classes:
                continue
            seen_classes.add(class_name)
            for method_key in self._methods_of(callgraph, class_name):
                rel = method_key[0]
                info = callgraph.functions[method_key]
                for node, constructed in self._kept_constructions(
                        callgraph, method_key, info, returned):
                    for name in sorted(constructed):
                        if name in excluded:
                            continue
                        if name not in registered:
                            marker = (rel, getattr(node, "lineno", 1),
                                      name)
                            if marker not in flagged:
                                flagged.add(marker)
                                buckets.setdefault(rel, []).append((
                                    node,
                                    f"'{name}' is stored into "
                                    f"'{class_name}' state (via "
                                    f"'{info.qualname}') but is not in "
                                    f"SNAPSHOT_REGISTRY or "
                                    f"SNAPSHOT_EXCLUDED",
                                ))
                        if name not in seen_classes:
                            worklist.append(name)
        for rel in buckets:
            buckets[rel].sort(
                key=lambda pair: (getattr(pair[0], "lineno", 1), pair[1])
            )
        return buckets

    @staticmethod
    def _methods_of(callgraph, class_name):
        keys = []
        for rel, class_qual in callgraph.class_defs.get(class_name, ()):
            table = callgraph.methods.get((rel, class_qual), {})
            keys.extend(sorted(table.values()))
        return keys

    def _kept_constructions(self, callgraph, key, info, returned):
        """(anchor node, constructed class names) kept as state."""
        builder = info.name.startswith(_BUILDER_PREFIXES)
        for node in ast.walk(info.node):
            exprs = ()
            if isinstance(node, ast.Assign):
                if any(self._is_self_target(t) for t in node.targets):
                    exprs = (node.value,)
            elif isinstance(node, ast.AnnAssign):
                if (self._is_self_target(node.target)
                        and node.value is not None):
                    exprs = (node.value,)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in ("append", "extend", "add",
                                          "appendleft", "insert")
                        and self._rooted_in_self(func.value)):
                    exprs = tuple(node.args)
                elif builder:
                    # Builder widening: constructions anywhere in
                    # __init__/_build* count as kept.
                    classes = self._direct_classes(callgraph, key, node,
                                                   returned)
                    if classes:
                        yield node, classes
                    continue
            if not exprs:
                continue
            classes = set()
            for expr in exprs:
                classes |= self._expr_classes(callgraph, key, expr,
                                              returned)
            if classes:
                yield node, classes

    @staticmethod
    def _is_self_target(target):
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    @staticmethod
    def _rooted_in_self(expr):
        node = expr
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _expr_classes(self, callgraph, key, expr, returned):
        classes = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                classes |= self._direct_classes(callgraph, key, node,
                                                returned)
        return classes

    @staticmethod
    def _direct_classes(callgraph, key, call, returned):
        """Classes one call constructs or returns (summary-resolved)."""
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return set()
        if name in callgraph.class_defs:
            return {name}
        info = callgraph.functions.get(key)
        if (isinstance(func, ast.Name) and func.id == "cls"
                and info is not None and info.class_name is not None):
            return {info.class_name}
        classes = set()
        for callee in callgraph.resolve_call(key, call):
            classes |= set(returned.get(callee, ()))
        return classes
