"""Fixture cases shared by the rule and CLI sweeps.

Every live rule contributes its own POSITIVE/NEGATIVE pair.  The
retired rules' pairs ride along under their old ids, each checked by
the rule that absorbed its contract -- the standing proof that the
successor flags a superset:

* R4 (syntactic hook gating) -> R12's direct-dereference facet;
* R8 (literal schema versions) -> R14's literal-version check;
* R10 (per-element ``engine.now`` in ``step_n``) -> R13's clock facet,
  which now covers the kernel itself as well as its helpers.
"""

from collections import namedtuple

from repro.analysis.rules import ALL_RULES, RULES_BY_KEY

RETIRED = {
    "R4": ("R12", (
        "def tick(self, engine):\n"
        "    self._probe.bank_tick(self, engine.now)\n"
    ), (
        "def tick(self, engine):\n"
        "    if self._probe is not None:\n"
        "        self._probe.bank_tick(self, engine.now)\n"
        "    fault = self._fault\n"
        "    latency = 0 if fault is None else fault.extra_latency()\n"
    )),
    "R8": ("R14", (
        "def journal_row(point):\n"
        "    return {'schema': 2, 'point': repr(point)}\n"
    ), (
        "JOURNAL_SCHEMA = 2\n"
        "def journal_row(point):\n"
        "    return {'schema': JOURNAL_SCHEMA, 'point': repr(point)}\n"
    )),
    "R10": ("R13", (
        "def step_n(self, engine, budget):\n"
        "    m = 0\n"
        "    for _ in range(budget):\n"
        "        self.trace.append(engine.now + m)\n"
        "        m += 1\n"
        "    return m\n"
    ), (
        "def step_n(self, engine, budget):\n"
        "    base = engine.now\n"
        "    m = self.mshrs.failing_insert_run(self.addr, budget)\n"
        "    self.trace.extend(base + i for i in range(m))\n"
        "    self.stats.stall_mshr += m\n"
        "    return m\n"
    )),
}


# One (rule, positive, negative) triple, labelled by fixture origin.
FixtureCase = namedtuple("FixtureCase", "label rule positive negative")


FIXTURE_CASES = sorted(
    [FixtureCase(rule.id, rule, rule.POSITIVE, rule.NEGATIVE)
     for rule in ALL_RULES]
    + [FixtureCase(label, RULES_BY_KEY[successor.lower()], pos, neg)
       for label, (successor, pos, neg) in RETIRED.items()],
    key=lambda case: int(case.label[1:]),
)


def case_id(case):
    return case.label
