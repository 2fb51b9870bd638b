"""Per-layer host-time attribution for the traced benchmark run.

:class:`LayerTracer` wraps public methods of the simulator's classes
(and the module functions the system constructor calls) from outside the
program: nothing under ``src/`` knows it is being traced.  Every
wrapped call that crosses from one layer into another is a span
boundary.  The tracer keeps one "current layer" and charges the host
time since the previous boundary to it, so a layer's total is its own
span time minus the time covered by its child spans -- its *self
time* -- with no per-span records to store.  Calls that stay inside
one layer (``push_request`` calling ``push``, ``append`` calling
``_append_columnar``) only bump the per-method call counter.

Wrappers go onto the classes before a system is built, so bound
methods that components cache at construction (a bank's
``self._sub_append``, a PE's ``self._dispatch_step``) are the wrapped
ones.  :meth:`LayerTracer.installed` restores every original on exit.
"""

import functools
import importlib
import time
from contextlib import contextmanager

OTHER = "other"

CHANNEL_METHODS = (
    "push", "push_many", "push_request", "push_response",
    "pop", "pop_many", "pop_all", "pop_request", "pop_response",
    "pop_line", "drop", "commit",
)

# (layer, module, class or None for module functions, names).  Only
# names a class defines itself are wrapped, so a subclass that
# inherits a method is not wrapped twice.
TARGETS = (
    ("sim.engine", "repro.sim.engine", "Engine", ("run",)),
    ("accel.system", "repro.accel.system", "AcceleratorSystem",
     ("__init__", "run")),
    ("accel.scheduler", "repro.accel.scheduler", "Scheduler",
     ("tick", "step_n")),
    ("accel.pe", "repro.accel.pe", "ProcessingElement", ("tick", "step_n")),
    ("core.bank", "repro.core.bank", "MomsBank", ("tick", "step_n")),
    ("mem.dram", "repro.mem.dram", "DramChannel", ("tick", "step_n")),
    ("fabric.crossbar", "repro.fabric.crossbar", "Crossbar",
     ("tick", "step_n")),
    ("fabric.crossing", "repro.fabric.crossing", "DieCrossing",
     ("tick", "step_n")),
    ("fabric.arbiter", "repro.fabric.arbiter", "RoundRobinArbiter",
     ("tick", "step_n")),
    # prime_slots is the vector bank's batched cuckoo hashing, contains
    # the fused retry spin's presence probe.
    ("core.mshr", "repro.core.mshr", "CuckooMshrFile",
     ("lookup", "insert", "remove", "failing_insert_run", "prime_slots",
      "contains")),
    ("core.mshr", "repro.core.mshr", "AssociativeMshrFile",
     ("lookup", "insert", "remove")),
    # _append_columnar is the append the vector-kernel bank binds at
    # construction instead of the public append.
    ("core.subentry", "repro.core.subentry", "SubentryStore",
     ("append", "_append_columnar", "free_chain")),
    ("core.cache", "repro.core.cache", "CacheArray",
     ("probe", "fill", "contains")),
    ("sim.channel", "repro.sim.channel", "Channel", CHANNEL_METHODS),
    ("sim.channel", "repro.sim.channel", "SoaChannel", CHANNEL_METHODS),
    # Set-up layers: the system constructor looks these names up in its
    # module globals at call time.
    ("graph.reorder", "repro.accel.system", None,
     ("hash_cache_lines", "dbg_reorder", "compose")),
    ("graph.reorder", "repro.graph.coo", "Graph", ("relabel",)),
    ("graph.partition", "repro.accel.system", None, ("partition_edges",)),
)

# Methods that open a span only when called from the given layer and
# otherwise stay with their caller: Graph.relabel is set-up reordering
# inside the system constructor, but the generators' label scramble is
# graph generation.
ONLY_FROM = {"Graph.relabel": "accel.system"}


class LayerTracer:
    """Self time per layer and call counts per wrapped method."""

    def __init__(self):
        self.layers = [OTHER]
        self.self_ns = [0]
        self.entries = [0]  # calls that crossed into the layer
        self.calls = {}  # "Class.method" -> every call, nested or not
        self.pe_edges = 0  # edges_processed growth seen inside PE calls
        self._current = 0
        self._mark = 0
        self._saved = []

    def _index(self, layer):
        if layer not in self.layers:
            self.layers.append(layer)
            self.self_ns.append(0)
            self.entries.append(0)
        return self.layers.index(layer)

    def reset(self):
        """Zero every accumulator; keeps the installed wrappers."""
        self.self_ns[:] = [0] * len(self.layers)
        self.entries[:] = [0] * len(self.layers)
        for key in self.calls:
            self.calls[key] = 0
        self.pe_edges = 0
        self._current = 0
        self._mark = time.perf_counter_ns()

    def stop(self):
        """Charge the open interval to the current layer."""
        now = time.perf_counter_ns()
        self.self_ns[self._current] += now - self._mark
        self._mark = now

    def self_s(self, layer):
        if layer not in self.layers:
            return 0.0
        return self.self_ns[self.layers.index(layer)] / 1e9

    def entries_of(self, layer):
        if layer not in self.layers:
            return 0
        return self.entries[self.layers.index(layer)]

    def wrap(self, layer, key, fn):
        """Return *fn* wrapped as a span of *layer*."""
        index = self._index(layer)
        self.calls[key] = 0
        calls = self.calls
        self_ns = self.self_ns
        entries = self.entries
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            outer = tracer._current
            if outer == index:
                return fn(*args, **kwargs)
            now = clock()
            self_ns[outer] += now - tracer._mark
            tracer._current = index
            tracer._mark = now
            entries[index] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[index] += now - tracer._mark
                tracer._current = outer
                tracer._mark = now

        return wrapper

    def _wrap_pe(self, key, fn):
        """PE span that also adds up the edges processed inside it."""
        inner = self.wrap("accel.pe", key, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(element, *args):
            stats = element.stats
            before = stats.edges_processed
            try:
                return inner(element, *args)
            finally:
                tracer.pe_edges += stats.edges_processed - before

        return wrapper

    def _wrap_from(self, caller, layer, key, fn):
        """Span of *layer* when called from *caller*, else not wrapped."""
        inner = self.wrap(layer, key, fn)
        caller_index = self._index(caller)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._current == caller_index:
                return inner(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for layer, module_name, class_name, names in TARGETS:
                module = importlib.import_module(module_name)
                owner = module if class_name is None \
                    else getattr(module, class_name)
                for name in names:
                    original = (vars(owner).get(name) if class_name
                                else getattr(module, name))
                    if not callable(original):
                        continue  # inherited, or a None opt-out
                    key = f"{class_name or module_name}.{name}"
                    if layer == "accel.pe":
                        wrapped = self._wrap_pe(key, original)
                    elif key in ONLY_FROM:
                        wrapped = self._wrap_from(ONLY_FROM[key], layer,
                                                  key, original)
                    else:
                        wrapped = self.wrap(layer, key, original)
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapped)
            self.reset()
            yield self
        finally:
            while self._saved:
                owner, name, original = self._saved.pop()
                setattr(owner, name, original)
