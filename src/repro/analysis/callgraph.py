"""Tree-wide name-resolved call graph (the whole-program index).

One index every call-graph consumer shares (DESIGN.md 6.10): the
hot-path set behind R1-R3 (everything reachable from the engine's
per-cycle loop), and the whole-program passes R11-R14.  It holds every
function definition in the analyzable packages, resolved call edges
between them, per-class method tables, bound-method alias tables, and
class-construction summaries.

Resolution is *name-based* over :data:`CALLGRAPH_PACKAGES`: the engine
and the component protocol dispatch dynamically (``component.tick``,
``decode()`` through a stored bound method), so an exact static call
graph does not exist.
The deliberate over-approximations, and the two refinements that keep
them useful:

* an attribute call ``x.meth(...)`` resolves to *every* method named
  ``meth`` -- except that ``self.meth(...)`` inside a class that
  defines ``meth`` resolves to exactly that method (the common case,
  and the one the fusion-purity traversal depends on);
* bound-method aliases (``self._step = self._step_fast`` at
  construction, ``decode = self._decode_edge_beats; decode()`` in a
  fused kernel) resolve through a per-class alias table, so
  indirection through a stored bound method does not truncate the
  traversal;
* a bare-name call resolves to same-file definitions first, falling
  back to every definition of that name tree-wide.

Over-approximation errs toward *more* rule coverage; a cold function
misclassified hot costs at worst one justified suppression.  A call
that resolves to nothing (stdlib, numpy, a channel primitive) simply
has no out-edge; soundness notes live with each pass that consumes
the graph.
"""

import ast
from collections import deque

# The simulator-core packages: the only places a hot function can live.
# Experiments, graph preprocessing, baselines and reporting run O(1)
# times per sweep point no matter who names a colliding method.
HOT_PACKAGES = (
    "repro/sim/",
    "repro/core/",
    "repro/mem/",
    "repro/accel/",
    "repro/fabric/",
)

# Entry points of the per-cycle loop, looked up in the engine module:
# ``Engine._step`` ticks every runnable component and commits dirty
# channels, so anything it (or a wake) reaches runs O(cycles) times.
HOT_SEEDS = ("_step", "wake", "wake_at")
HOT_SEED_MODULE_SUFFIX = "sim/engine.py"

# Packages whose definitions participate in whole-program resolution.
# Strictly wider than the hot-path set: the instrumentation and
# persistence layers (faults, telemetry, tracing, checkpoint) carry
# contracts of their own (R11/R12) even though they are never hot.
CALLGRAPH_PACKAGES = HOT_PACKAGES + (
    "repro/faults/",
    "repro/telemetry/",
    "repro/tracing/",
    "repro/checkpoint/",
)


def in_hot_package(rel):
    return any(marker in rel for marker in HOT_PACKAGES)


def in_callgraph_package(rel):
    return any(marker in rel for marker in CALLGRAPH_PACKAGES)


def _call_nodes(func_node):
    """Call expressions belonging to *func_node* itself (not nested defs)."""
    stack = [func_node]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                yield child
            stack.append(child)


class CallGraph:
    """Function index + resolved call edges over the analyzable tree.

    Functions are keyed by ``(rel, qualname)``.  ``include_all=True``
    (fixture snippets, self-checks) admits every parsed file instead of
    only :data:`CALLGRAPH_PACKAGES`.
    """

    def __init__(self, sources, include_all=False):
        self.include_all = include_all
        self.functions = {}   # (rel, qualname) -> FunctionInfo
        self.sources = {}     # rel -> SourceFile (in-scope files only)
        self.by_name = {}     # bare name -> sorted list of keys
        self.class_defs = {}  # class name -> sorted list of (rel, qualname)
        self.methods = {}     # (rel, class qualname) -> {name: key}
        self.bound_aliases = {}  # class name -> {attr: set of method names}
        self._callee_cache = {}
        self._build(sources)

    # -- construction -------------------------------------------------------

    def _in_scope(self, rel):
        return self.include_all or in_callgraph_package(rel)

    def _build(self, sources):
        for source in sources:
            if not self._in_scope(source.rel):
                continue
            self.sources[source.rel] = source
            for class_qual, node in source.classes:
                name = class_qual.rsplit(".", 1)[-1]
                self.class_defs.setdefault(name, []).append(
                    (source.rel, class_qual)
                )
            for info in source.functions:
                key = (source.rel, info.qualname)
                self.functions[key] = info
                self.by_name.setdefault(info.name, []).append(key)
                if info.class_name is not None:
                    class_qual = info.qualname.rsplit(".", 1)[0]
                    self.methods.setdefault(
                        (source.rel, class_qual), {}
                    )[info.name] = key
                self._index_bound_aliases(source, info)
        for name in self.by_name:
            self.by_name[name].sort()
        for name in self.class_defs:
            self.class_defs[name].sort()

    def _index_bound_aliases(self, source, info):
        """Record ``self.attr = self.method`` bindings in *info*."""
        if info.class_name is None:
            return
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            values = [node.value]
            if isinstance(node.value, ast.IfExp):
                values = [node.value.body, node.value.orelse]
            methods = set()
            for value in values:
                if (isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"):
                    methods.add(value.attr)
            if not methods:
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self.bound_aliases.setdefault(
                        info.class_name, {}
                    ).setdefault(target.attr, set()).update(methods)

    # -- resolution ---------------------------------------------------------

    def class_of(self, key):
        """(rel, class qualname) of a method key, or None."""
        info = self.functions.get(key)
        if info is None or info.class_name is None:
            return None
        rel, qualname = key
        return (rel, qualname.rsplit(".", 1)[0])

    def method_names_for_alias(self, class_name, attr):
        """Method names a stored bound-method attribute may carry."""
        per_class = self.bound_aliases.get(class_name, {})
        names = set(per_class.get(attr, ()))
        if not names:
            # Receiver class unknown: union over every class's table.
            for table in self.bound_aliases.values():
                names.update(table.get(attr, ()))
        return names

    def resolve_call(self, caller_key, call):
        """Keys a call expression may dispatch to (sorted, possibly ())."""
        func = call.func
        caller = self.functions.get(caller_key)
        rel = caller_key[0]
        names = set()
        if isinstance(func, ast.Name):
            name = func.id
            # Local bound-method alias: ``decode = self._decode_edge_beats``.
            aliased = False
            if caller is not None:
                source = self.sources.get(rel)
                table = (source.local_assignments(caller.node)
                         if source is not None else {})
                for value in table.get(name, ()):
                    if (isinstance(value, ast.Attribute)
                            and isinstance(value.value, ast.Name)
                            and value.value.id == "self"):
                        aliased = True
                        names.add(value.attr)
                        names.update(self.method_names_for_alias(
                            caller.class_name, value.attr
                        ))
            if not aliased:
                names.add(name)
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and caller is not None
                    and caller.class_name is not None):
                class_key = self.class_of(caller_key)
                own = self.methods.get(class_key, {}).get(attr)
                if own is not None:
                    return (own,)
                names.update(self.method_names_for_alias(
                    caller.class_name, attr
                ))
            names.add(attr)
        else:
            return ()
        keys = set()
        for name in names:
            candidates = self.by_name.get(name, ())
            same_file = [key for key in candidates if key[0] == rel]
            if isinstance(func, ast.Name) and same_file:
                keys.update(same_file)
            else:
                keys.update(candidates)
        return tuple(sorted(keys))

    def callees(self, key):
        """Sorted keys this function may call (cached)."""
        cached = self._callee_cache.get(key)
        if cached is not None:
            return cached
        info = self.functions.get(key)
        out = set()
        if info is not None:
            for call in _call_nodes(info.node):
                out.update(self.resolve_call(key, call))
        out.discard(key)
        result = tuple(sorted(out))
        self._callee_cache[key] = result
        return result

    def reachable_from(self, seeds, skip_classes=frozenset(),
                       skip_key=None):
        """Transitive closure over call edges from *seeds*.

        ``skip_classes`` prunes traversal into methods of the named
        classes (e.g. the channel primitives, whose internals are the
        engine's business, not a component contract's).  ``skip_key``
        is an optional per-key predicate for finer pruning.
        """
        seen = set()
        queue = deque(seeds)
        while queue:
            key = queue.popleft()
            if key in seen or key not in self.functions:
                continue
            info = self.functions[key]
            if info.class_name in skip_classes:
                continue
            if skip_key is not None and skip_key(key):
                continue
            seen.add(key)
            for callee in self.callees(key):
                if callee not in seen:
                    queue.append(callee)
        return seen

    def hot_keys(self):
        """Functions reachable from the engine's per-cycle entry points,
        restricted to :data:`HOT_PACKAGES` (the R1-R3 scope)."""
        seeds = [key for key in sorted(self.functions)
                 if key[0].endswith(HOT_SEED_MODULE_SUFFIX)
                 and self.functions[key].name in HOT_SEEDS]
        return frozenset(key for key in self.reachable_from(seeds)
                         if in_hot_package(key[0]))

    # -- construction summaries (for R11) -----------------------------------

    def returned_classes(self):
        """Map key -> frozenset of tree class names it may return.

        A two-rule fixpoint over direct evidence: ``return Cls(...)``
        (or ``return name`` where *name* was assigned a construction)
        contributes ``Cls``; ``return f(...)`` contributes whatever the
        resolved *f* returns.  ``return self`` and classmethod
        ``cls(...)`` resolve to the defining class -- the idiom behind
        ``Telemetry.attach`` and ``Checkpointer.from_spec``.
        """
        direct = {}
        pending_calls = {}  # key -> set of callee keys feeding returns
        for key in sorted(self.functions):
            info = self.functions[key]
            rel = key[0]
            source = self.sources.get(rel)
            classes = set()
            calls = set()
            table = (source.local_assignments(info.node)
                     if source is not None else {})
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                exprs = [node.value]
                if isinstance(node.value, ast.Name):
                    exprs += list(table.get(node.value.id, ()))
                for expr in exprs:
                    self._collect_constructions(
                        key, info, expr, classes, calls
                    )
                    if (isinstance(expr, ast.Name)
                            and expr.id == "self"
                            and info.class_name is not None):
                        classes.add(info.class_name)
            direct[key] = classes
            pending_calls[key] = calls
        # Fixpoint: propagate callee return-classes into callers.
        changed = True
        while changed:
            changed = False
            for key in direct:
                for callee in pending_calls[key]:
                    extra = direct.get(callee, ())
                    for name in extra:
                        if name not in direct[key]:
                            direct[key].add(name)
                            changed = True
        return {key: frozenset(value) for key, value in direct.items()}

    def _collect_constructions(self, key, info, expr, classes, calls):
        """Tree classes constructed in *expr*; called functions into *calls*."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name is None:
                continue
            if name in self.class_defs:
                classes.add(name)
            elif (isinstance(func, ast.Name) and func.id == "cls"
                    and info.class_name is not None):
                classes.add(info.class_name)
            else:
                calls.update(self.resolve_call(key, node))
