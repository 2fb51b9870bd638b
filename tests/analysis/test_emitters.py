"""Emitter golden files: the serialized formats are frozen.

A fixed synthetic LintResult must serialize to byte-identical JSON and
SARIF against the checked-in goldens, so an accidental envelope change
(key rename, ordering change, schema drift) fails loudly.  Bump
LINT_SCHEMA / TOOL_VERSION and regenerate deliberately when the format
is *meant* to change (see make_fixture_result's docstring).
"""

import json
import pathlib

import pytest

from repro.analysis import lint_text
from repro.analysis.emitters import emit_json, emit_sarif, emit_text
from repro.analysis.findings import Finding, LintResult
from repro.analysis.rules import RULES_BY_KEY

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# The whole-program passes each freeze the SARIF their POSITIVE
# fixture produces (regenerate() rewrites these too).
WHOLE_PROGRAM_RULES = ("r11", "r12", "r13", "r14")


def make_fixture_result():
    """The frozen input behind the goldens.

    Regenerate after deliberate format changes with::

        PYTHONPATH=src:tests python - <<'EOF'
        from analysis.test_emitters import regenerate
        regenerate()
        EOF
    """
    findings = [
        Finding(
            rule="R2", name="single-token-channel", severity="error",
            path="src/repro/core/bank.py", line=42, col=9,
            message="'resp_out.push(...)' inside a loop in hot function "
                    "'MomsBank.tick'",
            hint="use push_many or the fields API",
        ),
        Finding(
            rule="R5", name="float-cycle-compare", severity="warning",
            path="src/repro/mem/dram.py", line=7, col=12,
            message="equality comparison involving float arithmetic in "
                    "cycle/latency code",
            hint="keep cycle math integral",
        ),
    ]
    suppressed = [
        Finding(
            rule="R1", name="nondeterminism", severity="warning",
            path="src/repro/fabric/crossbar.py", line=61, col=38,
            message="hot function 'Crossbar.tick' iterates a '.items()' "
                    "view",
            hint="iterate sorted() views",
            suppressed=True,
        ),
    ]
    result = LintResult(
        findings=findings,
        suppressed=suppressed,
        files_scanned=3,
        rules_run=("R1", "R2", "R5"),
    )
    return result


def regenerate():
    result = make_fixture_result()
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "findings.json").write_text(
        emit_json(result, show_suppressed=True), encoding="utf-8")
    (GOLDEN / "findings.sarif").write_text(
        emit_sarif(result), encoding="utf-8")
    for key in WHOLE_PROGRAM_RULES:
        rule = RULES_BY_KEY[key]
        result = lint_text(rule.POSITIVE, rules=(rule,))
        (GOLDEN / f"{key}.sarif").write_text(
            emit_sarif(result), encoding="utf-8")


class TestEmitterGoldens:
    def test_json_matches_golden(self):
        expected = (GOLDEN / "findings.json").read_text(encoding="utf-8")
        assert emit_json(make_fixture_result(),
                         show_suppressed=True) == expected

    def test_sarif_matches_golden(self):
        expected = (GOLDEN / "findings.sarif").read_text(encoding="utf-8")
        assert emit_sarif(make_fixture_result()) == expected

    def test_sarif_is_valid_enough(self):
        log = json.loads(emit_sarif(make_fixture_result()))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"R1", "R2", "R3", "R5", "R6", "R7",
                "R11", "R12", "R13", "R14"} <= rule_ids
        results = run["results"]
        # Active findings carry no suppressions; the inline-suppressed
        # one is present but marked.
        kinds = {
            result["ruleId"]:
                [s["kind"] for s in result.get("suppressions", [])]
            for result in results
        }
        assert kinds["R2"] == []
        assert kinds["R1"] == ["inSource"]
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].startswith("src/repro/")

    @pytest.mark.parametrize("key", WHOLE_PROGRAM_RULES)
    def test_whole_program_positive_sarif_frozen(self, key):
        # Each whole-program pass's POSITIVE fixture serializes to the
        # checked-in SARIF byte-for-byte: message wording, anchor line,
        # and envelope are all part of the pass's contract.
        rule = RULES_BY_KEY[key]
        result = lint_text(rule.POSITIVE, rules=(rule,))
        expected = (GOLDEN / f"{key}.sarif").read_text(encoding="utf-8")
        assert emit_sarif(result) == expected

    def test_text_format_shape(self):
        text = emit_text(make_fixture_result(), show_suppressed=True)
        assert "src/repro/core/bank.py:42:9: R2 error:" in text
        assert "[suppressed]" in text
        assert text.endswith(
            "2 finding(s) (1 error, 1 warning), 1 suppressed, "
            "3 file(s), rules R1,R2,R5\n"
        )
