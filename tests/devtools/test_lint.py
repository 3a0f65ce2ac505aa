"""Tests for the repro.devtools domain linter."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import LintReport, lint_file, lint_paths, main
from repro.devtools.rules import (
    RULES,
    legal_transition_names,
    resolve_rules,
)
from repro.errors import ValidationError
from repro.storage.power import LEGAL_TRANSITIONS

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Registered rule ids.  The storage boundary is analysis check D201
#: (tests/devtools/analysis/test_determinism.py), not a lint rule.
RULE_IDS = [f"R{i}" for i in range(1, 9)] + ["R10"]


FIXTURE_RULES = [
    ("r1_float_equality.py", "R1"),
    ("r2_magic_number.py", "R2"),
    ("r3_exception_hierarchy.py", "R3"),
    ("r4_power_state.py", "R4"),
    ("r5_public_api.py", "R5"),
    ("r6_mutable_default.py", "R6"),
    ("r7_naked_except.py", "R7"),
    ("r8_ad_hoc_time.py", "R8"),
    ("r10_cross_array.py", "R10"),
]


@pytest.mark.parametrize("fixture,rule_id", FIXTURE_RULES)
def test_fixture_trips_exactly_its_rule(fixture: str, rule_id: str) -> None:
    path = FIXTURES / fixture
    violations = lint_file(path)
    assert violations, f"{fixture} should trip {rule_id}"
    assert {v.rule_id for v in violations} == {rule_id}
    rendered = violations[0].render()
    assert rendered.startswith(f"{path}:{violations[0].line}:")
    assert f"{rule_id}[" in rendered


def test_src_tree_lints_clean() -> None:
    report = lint_paths([REPO_ROOT / "src" / "repro"])
    offenders = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"src/repro has lint violations:\n{offenders}"
    assert report.files_checked > 50


def test_registry_has_all_rules() -> None:
    assert sorted(RULES, key=lambda r: int(r[1:])) == RULE_IDS
    for rule in RULES.values():
        assert rule.name and rule.summary


def test_resolve_rules_accepts_ids_and_names() -> None:
    by_id = resolve_rules(["R2"])
    by_name = resolve_rules(["magic-number"])
    assert by_id == by_name
    assert resolve_rules(["r3", "R3", "exception-hierarchy"]) == resolve_rules(
        ["R3"]
    )
    with pytest.raises(ValidationError):
        resolve_rules(["R99"])


def test_select_limits_rules_applied() -> None:
    path = FIXTURES / "r3_exception_hierarchy.py"
    assert lint_file(path, resolve_rules(["R3"]))
    assert not lint_file(path, resolve_rules(["R1", "R6"]))


def test_suppression_by_id_name_and_bare(tmp_path: Path) -> None:
    cases = {
        "by_id.py": 'raise ValueError("x")  # lint: ignore[R3]\n',
        "by_name.py": 'raise ValueError("x")  # lint: ignore[exception-hierarchy]\n',
        "bare.py": 'raise ValueError("x")  # lint: ignore\n',
    }
    for name, body in cases.items():
        target = tmp_path / name
        target.write_text(body)
        assert not lint_file(target), f"{name} should be suppressed"
    wrong = tmp_path / "wrong_rule.py"
    wrong.write_text('raise ValueError("x")  # lint: ignore[R2]\n')
    assert [v.rule_id for v in lint_file(wrong)] == ["R3"]


def test_parse_error_reported_as_pseudo_rule(tmp_path: Path) -> None:
    broken = tmp_path / "broken.py"
    broken.write_text("def incomplete(:\n")
    violations = lint_file(broken)
    assert [v.rule_id for v in violations] == ["E0"]
    assert violations[0].rule_name == "parse-error"


def test_every_rule_has_a_fixture() -> None:
    """Adding a lint rule without a fixture proving it fires must fail."""
    covered = {rule_id for _, rule_id in FIXTURE_RULES}
    missing = sorted(set(RULES) - covered)
    assert not missing, (
        "every lint rule needs a tests/devtools/fixtures/ fixture proving "
        f"it fires; missing: {missing}"
    )


def test_json_report_round_trips() -> None:
    # Only the r*.py rule fixtures: fixtures/analysis/ holds the analyzer's
    # own fixtures, which deliberately contain lint-style violations too.
    report = lint_paths(sorted(FIXTURES.glob("r*.py")))
    payload = json.loads(report.render_json())
    assert payload["files_checked"] == len(FIXTURE_RULES)
    seen = {v["rule_id"] for v in payload["violations"]}
    assert seen == set(RULE_IDS)
    for violation in payload["violations"]:
        assert violation["line"] >= 1
        assert violation["message"]


def test_report_rendering_counts() -> None:
    clean = LintReport(violations=(), files_checked=3)
    assert clean.clean
    assert clean.render_text() == "clean: 3 files checked"
    dirty = lint_paths([FIXTURES / "r1_float_equality.py"])
    assert not dirty.clean
    assert dirty.render_text().endswith("1 violation in 1 file checked")


def test_main_exit_codes(capsys: pytest.CaptureFixture[str]) -> None:
    assert main([str(FIXTURES / "r6_mutable_default.py")]) == 1
    out = capsys.readouterr().out
    assert "R6[mutable-default]" in out
    assert main([str(REPO_ROOT / "src" / "repro" / "units.py")]) == 0
    assert main(["--select", "R99", str(FIXTURES)]) == 2
    assert main(["--select", "R9", str(FIXTURES)]) == 2
    assert main(["--list-rules"]) == 0
    assert "R4" in capsys.readouterr().out
    assert main([str(FIXTURES / "no_such_file.py")]) == 2


def test_r4_table_matches_state_machine() -> None:
    extracted = legal_transition_names()
    runtime = {(a.name, b.name) for a, b in LEGAL_TRANSITIONS}
    assert extracted == runtime
