"""The call-graph hot-path set against the real tree.

Pins the property the hot-scoped rules (R1/R2/R3) depend on: the
engine seeds exist, every per-cycle component module is on the hot
path (everything ``CallGraph.reachable_from`` the engine's
``_step``/``wake``/``wake_at``, restricted to the simulator-core
packages), and the O(1)-per-sweep-point layers (experiments, graph
preprocessing, baselines) never are.
"""

import pathlib

from repro.analysis.engine import LintContext, collect_sources

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class TestHotPathIndex:
    @classmethod
    def setup_class(cls):
        sources, errors = collect_sources([SRC])
        assert not errors, errors
        cls.sources = {source.rel: source for source in sources}
        cls.ctx = LintContext(sources)

    def _hot_quals(self, rel):
        source = self.sources.get(rel)
        if source is None:
            return ()
        return tuple(info.qualname
                     for info in self.ctx.hot_functions(source))

    def test_engine_seeds_are_hot(self):
        quals = self._hot_quals("src/repro/sim/engine.py")
        assert "Engine._step" in quals
        assert "Engine.wake" in quals

    def test_tick_methods_reached_through_dynamic_dispatch(self):
        # _step calls component.tick(self); name-based resolution must
        # mark every per-cycle component's tick hot.
        for rel, qual in (
            ("src/repro/core/bank.py", "MomsBank.tick"),
            ("src/repro/accel/pe.py", "ProcessingElement.tick"),
            ("src/repro/mem/dram.py", "DramChannel.tick"),
            ("src/repro/accel/scheduler.py", "Scheduler.tick"),
        ):
            assert qual in self._hot_quals(rel), (rel, qual)

    def test_transitive_helpers_are_hot(self):
        # tick -> _tick_stream -> ... (PE state machine) and the
        # channel commit path both ride the call graph.
        assert "ProcessingElement._tick_stream" in self._hot_quals(
            "src/repro/accel/pe.py")
        assert any(
            qual.endswith(".commit")
            for qual in self._hot_quals("src/repro/sim/channel.py")
        )

    def test_cold_layers_never_classified_hot(self):
        for rel in (
            "src/repro/experiments/common.py",
            "src/repro/graph/generators.py",
            "src/repro/baselines/cpu.py",
            "src/repro/report.py",
            "src/repro/profiling.py",
            "src/repro/analysis/engine.py",
        ):
            assert rel in self.sources, rel
            assert self._hot_quals(rel) == (), rel

    def test_hot_files_cover_the_legacy_lint_module_list(self):
        # The module list the old standalone AST test hard-coded must
        # be a subset of the files holding a hot function.
        hot_files = {rel for rel in self.sources if self._hot_quals(rel)}
        for legacy in (
            "src/repro/core/bank.py",
            "src/repro/core/hierarchy.py",
            "src/repro/mem/dram.py",
            "src/repro/accel/pe.py",
            "src/repro/accel/scheduler.py",
        ):
            assert legacy in hot_files, legacy

    def test_pooled_classes_discovered_from_tree(self):
        assert {"MomsRequest", "MomsResponse",
                "MemRequest", "MemResponse"} <= self.ctx.pooled_classes
