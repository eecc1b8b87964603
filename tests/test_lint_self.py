"""Self-check: the repo's own source must satisfy its lint rules.

This is the test-suite mirror of the CI gate ``repro lint src/`` — if it
fails, either fix the violation or (for a deliberate exemption) add a
``# repro: ignore[...]`` comment next to the offending line.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import Baseline, lint_paths
from repro.lint.registry import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "lint-baseline.json"


class TestSelfCheck:
    def test_src_is_clean_modulo_baseline(self):
        result = lint_paths([SRC])
        fresh, _ = Baseline.load(BASELINE).split(result.all_findings)
        rendered = "\n".join(f.render() for f in fresh)
        assert fresh == [], f"new lint findings in src/:\n{rendered}"

    def test_src_has_meaningful_coverage(self):
        result = lint_paths([SRC])
        assert result.checked_files > 50
        assert result.parse_errors == []

    def test_all_advertised_rules_registered(self):
        ids = {rule.id for rule in all_rules()}
        assert {
            "REP101",
            "REP102",
            "REP103",
            "REP104",
            "REP105",
            "REP106",
            "REP107",
            "REP108",
            "REP109",
            "REP110",
            "REP112",
        } <= ids

    def test_every_rule_has_severity_and_summary(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert str(rule.severity) in {"error", "warning"}
            assert rule.scope in {"file", "project"}, rule.id

    def test_interprocedural_rules_are_project_scope(self):
        scopes = {rule.id: rule.scope for rule in all_rules()}
        for rule_id in ("REP104", "REP106", "REP108", "REP109", "REP110",
                        "REP112"):
            assert scopes[rule_id] == "project", rule_id

    def test_every_rule_has_explain_doc(self):
        # --explain's source of truth: each rule carries its full docstring.
        for rule in all_rules():
            assert rule.doc, f"{rule.id} has no docstring for --explain"

    def test_committed_baseline_is_valid_and_current(self):
        # The baseline must load, and must not grandfather findings that no
        # longer exist (the ratchet only shrinks).
        baseline = Baseline.load(BASELINE)
        data = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert data["version"] == 1
        current = lint_paths([SRC]).all_findings
        _, grandfathered = baseline.split(current)
        assert len(grandfathered) == sum(baseline.counts.values()), (
            "lint-baseline.json lists findings that no longer occur; "
            "remove the stale entries"
        )
