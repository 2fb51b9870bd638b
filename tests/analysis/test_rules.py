"""Per-rule fixtures: positive fires, negative clean, suppressible.

The generic sweep drives every rule through its own built-in POSITIVE
and NEGATIVE snippets (the same ones ``--quick`` self-checks), plus
each retired rule's snippets through its successor (fixture_cases),
then proves a trailing ``# simlint: disable=<id>`` neutralizes the
positive.  The per-rule classes below pin the sharper distinctions
each rule is supposed to draw.
"""

import pytest

from repro.analysis import lint_text

from .fixture_cases import FIXTURE_CASES, case_id


def _only(result):
    assert len(result.findings) == 1, [
        f.message for f in result.findings
    ]
    return result.findings[0]


class TestEveryRuleFixture:
    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=case_id)
    def test_positive_fires(self, case):
        rule = case.rule
        result = lint_text(case.positive, rules=(rule,))
        assert result.findings, f"{case.label} positive fixture is clean"
        assert all(f.rule == rule.id for f in result.findings)

    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=case_id)
    def test_negative_clean(self, case):
        result = lint_text(case.negative, rules=(case.rule,))
        assert not result.findings, [f.message for f in result.findings]

    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=case_id)
    def test_inline_suppression(self, case):
        rule = case.rule
        base = lint_text(case.positive, rules=(rule,))
        line = base.findings[0].line
        lines = case.positive.splitlines()
        lines[line - 1] += f"  # simlint: disable={rule.id}"
        result = lint_text("\n".join(lines) + "\n", rules=(rule,))
        hits = [f for f in result.findings if f.line == line]
        assert not hits, [f.message for f in hits]
        assert any(f.line == line for f in result.suppressed)

    @pytest.mark.parametrize("case", FIXTURE_CASES, ids=case_id)
    def test_suppression_by_name_and_all(self, case):
        rule = case.rule
        base = lint_text(case.positive, rules=(rule,))
        line = base.findings[0].line
        for token in (rule.name, "all"):
            lines = case.positive.splitlines()
            lines[line - 1] += f"  # simlint: disable={token}"
            result = lint_text("\n".join(lines) + "\n", rules=(rule,))
            assert not [f for f in result.findings if f.line == line]


class TestNondeterminismR1:
    def test_seeded_random_instance_allowed(self):
        clean = (
            "import random\n"
            "def tick(self, engine):\n"
            "    rng = random.Random(1234)\n"
            "    return rng\n"
        )
        assert not lint_text(clean, rules="R1").findings

    def test_unseeded_random_instance_flagged(self):
        bad = (
            "import random\n"
            "def tick(self, engine):\n"
            "    return random.Random()\n"
        )
        assert lint_text(bad, rules="R1").findings

    def test_from_import_resolves(self):
        bad = (
            "from random import shuffle\n"
            "def tick(self, engine):\n"
            "    shuffle(self.queue)\n"
        )
        assert lint_text(bad, rules="R1").findings

    def test_datetime_now_flagged(self):
        bad = (
            "import datetime\n"
            "def tick(self, engine):\n"
            "    return datetime.datetime.now()\n"
        )
        assert lint_text(bad, rules="R1").findings

    def test_set_iteration_flagged_sorted_allowed(self):
        bad = (
            "def tick(self, engine):\n"
            "    waiting = set(self.ids)\n"
            "    for item in waiting:\n"
            "        self.serve(item)\n"
        )
        finding = _only(lint_text(bad, rules="R1"))
        assert "set" in finding.message
        clean = bad.replace("in waiting:", "in sorted(waiting):")
        assert not lint_text(clean, rules="R1").findings

    def test_dict_view_is_warning_severity(self):
        warm = (
            "def tick(self, engine):\n"
            "    for key, value in self.buckets.items():\n"
            "        self.serve(key, value)\n"
        )
        finding = _only(lint_text(warm, rules="R1"))
        assert finding.severity == "warning"

    def test_cold_function_ignored_without_force_hot(self):
        cold = (
            "import time\n"
            "def report(self):\n"
            "    return time.monotonic()\n"
        )
        assert not lint_text(cold, rules="R1", force_hot=False).findings


class TestChannelDisciplineR2:
    def test_varying_and_freelist_receivers_allowed(self):
        good = (
            "def tick(self, engine):\n"
            "    for channel, item in pieces:\n"
            "        ports[channel].push(item)\n"
            "        token = pool.pop()\n"
        )
        assert not lint_text(good, rules="R2").findings

    def test_indexed_pop_allowed(self):
        good = (
            "def tick(self, engine):\n"
            "    while self.backlog:\n"
            "        job = self.backlog.pop(0)\n"
        )
        assert not lint_text(good, rules="R2").findings

    def test_fabric_modules_exempt(self):
        bad = (
            "def tick(self, engine):\n"
            "    for item in batch:\n"
            "        self.out.push(item)\n"
        )
        flagged = lint_text(bad, rules="R2", rel="repro/core/x.py")
        assert flagged.findings
        exempt = lint_text(bad, rules="R2", rel="repro/fabric/x.py")
        assert not exempt.findings


class TestPoolingR3:
    def test_register_pool_discovery_drives_the_rule(self):
        unregistered = (
            "class SpillRequest:\n"
            "    pass\n"
            "def tick(self, engine):\n"
            "    return SpillRequest()\n"
        )
        assert not lint_text(unregistered, rules="R3").findings
        registered = (
            "from repro.core.messages import register_pool\n"
            + unregistered.replace(
                "class SpillRequest:\n    pass\n",
                "class SpillRequest:\n    pass\n"
                "register_pool(SpillRequest)\n",
            )
        )
        assert lint_text(registered, rules="R3").findings

    def test_acquire_helpers_allowed(self):
        good = (
            "from repro.core.messages import register_pool\n"
            "class SpillRequest:\n"
            "    pass\n"
            "register_pool(SpillRequest)\n"
            "def _acquire_spill(addr):\n"
            "    return SpillRequest(addr)\n"
        )
        assert not lint_text(good, rules="R3").findings


class TestHookGatingR4:
    """The retired syntactic R4's cases, held by R12's deref facet."""

    def test_alias_guard_recognized(self):
        good = (
            "def tick(self, engine):\n"
            "    probe = self._probe\n"
            "    if probe is not None:\n"
            "        probe.bank_tick(self, engine.now)\n"
        )
        assert not lint_text(good, rules="R12").findings

    def test_boolop_guard_recognized(self):
        good = (
            "def tick(self, engine):\n"
            "    if self._fault is not None and self._fault.blocked():\n"
            "        return\n"
        )
        assert not lint_text(good, rules="R12").findings

    def test_ternary_is_none_guard_recognized(self):
        good = (
            "def tick(self, engine):\n"
            "    extra = 0 if self._fault is None "
            "else self._fault.extra_latency(engine.now)\n"
        )
        assert not lint_text(good, rules="R12").findings

    def test_wrong_branch_flagged(self):
        bad = (
            "def tick(self, engine):\n"
            "    if self._probe is None:\n"
            "        self._probe.bank_tick(self, engine.now)\n"
        )
        assert lint_text(bad, rules="R12").findings

    def test_truthiness_guard_not_accepted(self):
        bad = (
            "def tick(self, engine):\n"
            "    if self._probe:\n"
            "        self._probe.bank_tick(self, engine.now)\n"
        )
        assert lint_text(bad, rules="R12").findings

    def test_instrumentation_packages_exempt(self):
        code = (
            "def check(self, engine):\n"
            "    self._probe.moms_verify(engine)\n"
        )
        assert lint_text(code, rules="R12",
                         rel="repro/faults/ledger.py").findings == []
        assert lint_text(code, rules="R12",
                         rel="repro/core/bank.py").findings

    def test_files_outside_the_call_graph_checked(self):
        # The deref facet covers every linted file, not only the
        # call-graph packages: experiments, graph, top-level modules.
        code = (
            "def run(system):\n"
            "    system.ledger.verify()\n"
        )
        for rel in ("repro/experiments/common.py", "repro/graph/x.py",
                    "repro/report.py"):
            assert lint_text(code, rules="R12", rel=rel,
                             force_hot=False).findings, rel


class TestFloatCompareR5:
    def test_division_equality_flagged(self):
        finding = _only(lint_text(
            "def f(used, total):\n"
            "    return used / total == 1\n",
            rules="R5",
        ))
        assert finding.severity == "warning"

    def test_integer_compare_clean(self):
        assert not lint_text(
            "def f(used, total):\n"
            "    return used * 2 == total and used // 2 != total\n",
            rules="R5",
        ).findings


class TestMutableDefaultR6:
    def test_kwonly_defaults_covered(self):
        bad = (
            "def f(*, seen=set()):\n"
            "    return seen\n"
        )
        assert lint_text(bad, rules="R6").findings

    def test_call_defaults_covered(self):
        bad = (
            "def f(seen=dict()):\n"
            "    return seen\n"
        )
        assert lint_text(bad, rules="R6").findings


class TestSlotsR7:
    def test_dataclass_slots_accepted(self):
        good = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class SpillToken:\n"
            "    addr: int\n"
        )
        assert not lint_text(good, rules="R7").findings

    def test_non_token_class_ignored(self):
        good = (
            "class BankParams:\n"
            "    def __init__(self):\n"
            "        self.ways = 4\n"
        )
        assert not lint_text(good, rules="R7").findings


class TestFusionSafetyR10:
    """The retired R10's step_n clock cases, held by R13's clock facet."""

    def test_while_loop_read_flagged(self):
        bad = (
            "def step_n(self, engine, budget):\n"
            "    m = 0\n"
            "    while m < budget:\n"
            "        self.stamp(engine.now)\n"
            "        m += 1\n"
            "    return m\n"
        )
        finding = _only(lint_text(bad, rules="R13"))
        assert "frozen" in finding.message

    def test_comprehension_read_flagged(self):
        bad = (
            "def step_n(self, engine, budget):\n"
            "    self.trace.extend(engine.now for _ in range(budget))\n"
            "    return budget\n"
        )
        assert lint_text(bad, rules="R13").findings

    def test_first_generator_source_allowed(self):
        good = (
            "def step_n(self, engine, budget):\n"
            "    rows = [row for row in self.window(engine.now)]\n"
            "    return len(rows)\n"
        )
        assert not lint_text(good, rules="R13").findings

    def test_loop_condition_read_flagged(self):
        bad = (
            "def step_n(self, engine, budget):\n"
            "    while engine.now < self.deadline:\n"
            "        self.advance()\n"
            "    return 0\n"
        )
        assert lint_text(bad, rules="R13").findings

    def test_per_cycle_tick_not_covered(self):
        good = (
            "def tick(self, engine):\n"
            "    for item in self.backlog:\n"
            "        self.stamp(engine.now, item)\n"
        )
        assert not lint_text(good, rules="R13").findings

    def test_renamed_engine_param_tracked(self):
        bad = (
            "def step_n(self, eng, budget):\n"
            "    for _ in range(budget):\n"
            "        self.stamp(eng.now)\n"
            "    return budget\n"
        )
        assert lint_text(bad, rules="R13").findings


class TestSchemaLiteralR8:
    """The retired R8's literal-version cases, held by R14."""

    def test_string_version_not_flagged(self):
        good = (
            "def sarif_envelope():\n"
            "    return {'version': '2.1.0'}\n"
        )
        assert not lint_text(good, rules="R14").findings

    def test_constant_reference_clean_literal_flagged(self):
        bad = (
            "def row():\n"
            "    return {'schema': 3}\n"
        )
        assert lint_text(bad, rules="R14").findings
