"""Call-graph construction and resolution (simlint v2, DESIGN.md 6.10).

Half of these run over synthetic two-module trees to pin the precise
resolution rules (same-class first, bound-method aliases, returned-class
summaries); the rest run over the real source tree and assert the edges
the whole-program passes depend on actually exist -- e.g. the engine's
dispatch loop reaching every component's tick/step_n by name.
"""

import pathlib

import pytest

from repro.analysis.callgraph import CallGraph, _call_nodes
from repro.analysis.engine import collect_sources
from repro.analysis.source import parse_source

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

ENGINE_REL = "src/repro/sim/engine.py"
BANK_REL = "src/repro/core/bank.py"
DRAM_REL = "src/repro/mem/dram.py"


def graph_of(*modules):
    """CallGraph over (rel, text) synthetic modules (include_all)."""
    sources = []
    for rel, text in modules:
        source, error = parse_source(rel, text, rel=rel)
        assert source is not None, error
        sources.append(source)
    return CallGraph(sources, include_all=True)


@pytest.fixture(scope="module")
def tree():
    sources, errors = collect_sources([SRC])
    assert not errors, errors
    return CallGraph(sources)


class TestRealTreeEdges:
    def test_engine_step_dispatches_to_component_ticks(self, tree):
        # The load-bearing edge for every whole-program pass: the
        # engine's per-cycle loop calls component.tick(self), which
        # name-dispatch must resolve to each component's tick.
        callees = set(tree.callees((ENGINE_REL, "Engine._step")))
        assert (BANK_REL, "MomsBank.tick") in callees
        assert (DRAM_REL, "DramChannel.tick") in callees

    def test_fused_dispatch_reaches_step_n(self, tree):
        step_n_keys = {
            key for key in tree.functions if key[1].endswith(".step_n")
        }
        assert (BANK_REL, "MomsBank.step_n") in step_n_keys
        assert (DRAM_REL, "DramChannel.step_n") in step_n_keys
        # Some engine method must actually call into them.
        engine_keys = [key for key in tree.functions
                       if key[0] == ENGINE_REL]
        reached = set()
        for key in engine_keys:
            reached.update(tree.callees(key))
        assert (BANK_REL, "MomsBank.step_n") in reached

    def test_file_dependents_closes_over_callers(self, tree):
        dependents = tree.file_dependents([BANK_REL])
        assert BANK_REL in dependents
        # The system builds banks; an edit to bank.py is in its scope.
        assert "src/repro/accel/system.py" in dependents

    def test_reachable_from_respects_skip_classes(self, tree):
        seed = (ENGINE_REL, "Engine._step")
        full = tree.reachable_from([seed])
        pruned = tree.reachable_from([seed], skip_classes={"MomsBank"})
        assert (BANK_REL, "MomsBank.tick") in full
        assert all(tree.functions[key].class_name != "MomsBank"
                   for key in pruned)
        assert pruned < full


class TestSyntheticResolution:
    def test_same_class_method_preferred(self):
        graph = graph_of(
            ("repro/a.py",
             "class Alpha:\n"
             "    def run(self):\n"
             "        self.helper()\n"
             "    def helper(self):\n"
             "        pass\n"),
            ("repro/b.py",
             "class Beta:\n"
             "    def helper(self):\n"
             "        pass\n"),
        )
        key = ("repro/a.py", "Alpha.run")
        assert tuple(graph.callees(key)) == (("repro/a.py", "Alpha.helper"),)

    def test_bound_method_alias_resolves(self):
        graph = graph_of(
            ("repro/a.py",
             "class Decoder:\n"
             "    def __init__(self, fast):\n"
             "        self._decode_step = (self._decode_fast if fast\n"
             "                             else self._decode_scalar)\n"
             "    def run(self):\n"
             "        self._decode_step()\n"
             "    def _decode_fast(self):\n"
             "        pass\n"
             "    def _decode_scalar(self):\n"
             "        pass\n"),
        )
        callees = set(graph.callees(("repro/a.py", "Decoder.run")))
        assert ("repro/a.py", "Decoder._decode_fast") in callees
        assert ("repro/a.py", "Decoder._decode_scalar") in callees

    def test_bare_name_prefers_same_file(self):
        graph = graph_of(
            ("repro/a.py",
             "def build():\n"
             "    pass\n"
             "def run():\n"
             "    build()\n"),
            ("repro/b.py",
             "def build():\n"
             "    pass\n"),
        )
        assert tuple(graph.callees(("repro/a.py", "run"))) \
            == (("repro/a.py", "build"),)

    def test_returned_classes_fixpoint_through_wrappers(self):
        graph = graph_of(
            ("repro/a.py",
             "class TokenQueue:\n"
             "    pass\n"
             "def make_queue():\n"
             "    return TokenQueue()\n"
             "def make_default():\n"
             "    return make_queue()\n"
             "class Ring:\n"
             "    def clone(self):\n"
             "        return self\n"),
        )
        returned = graph.returned_classes()
        assert returned[("repro/a.py", "make_queue")] == {"TokenQueue"}
        # One fixpoint hop: the wrapper inherits the summary.
        assert returned[("repro/a.py", "make_default")] == {"TokenQueue"}
        # `return self` resolves to the enclosing class.
        assert returned[("repro/a.py", "Ring.clone")] == {"Ring"}

    def test_call_nodes_covers_nested_expressions(self):
        source, _ = parse_source(
            "repro/a.py",
            "def f(xs):\n"
            "    return [g(h(x)) for x in xs]\n",
            rel="repro/a.py",
        )
        info = source.functions[0]
        names = {node.func.id for node in _call_nodes(info.node)}
        assert names == {"g", "h"}
