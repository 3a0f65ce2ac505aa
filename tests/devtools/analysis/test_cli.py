"""Tests for the analyzer CLI (`ecostor analyze`) and its fixture matrix."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as ecostor_main
from repro.devtools.analysis.cli import analyze_paths, main
from repro.devtools.analysis.framework import CHECKERS

REPO_ROOT = Path(__file__).resolve().parents[3]
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"

#: Analysis fixture → exact finding ids it must produce, in order.
FIXTURE_CHECKS = [
    ("d1_dimensions.py", ["D101", "D102", "D103", "D104"]),
    ("d2_determinism.py", ["D202", "D203", "D204", "D204"]),
    ("d2_purity", ["D201", "D201"]),
    ("d205_snapshots.py", ["D205", "D205"]),
    ("d201_direct.py", ["D201"] * 15),
    ("d201_tiers", ["D201", "D201"]),
]


@pytest.mark.parametrize("fixture,expected", FIXTURE_CHECKS)
def test_fixture_produces_expected_finding_ids(
    fixture: str, expected: list[str]
) -> None:
    report = analyze_paths([FIXTURES / fixture])
    assert [f.check_id for f in report.findings] == expected


def test_every_check_id_has_a_fixture() -> None:
    """Adding a check without a fixture proving it fires must fail."""
    registered = {cid for checker in CHECKERS for cid in checker.check_ids}
    covered = {cid for _, expected in FIXTURE_CHECKS for cid in expected}
    missing = sorted(registered - covered)
    assert not missing, (
        "every analysis check needs a tests/devtools/fixtures/analysis/ "
        f"fixture proving it fires; missing: {missing}"
    )


def test_src_tree_analyzes_clean_with_committed_baseline() -> None:
    report = analyze_paths(
        [REPO_ROOT / "src" / "repro"],
        baseline_path=REPO_ROOT / "analysis-baseline.json",
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"src/repro has unbaselined findings:\n{rendered}"
    assert report.files_indexed > 90
    assert report.baselined, "committed baseline entries should still match"


def test_main_exit_codes(capsys: pytest.CaptureFixture) -> None:
    assert main([str(FIXTURES / "d2_purity"), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "D201[storage-boundary]" in out
    assert main([str(FIXTURES / "d2_purity"), "--select", "D203"]) == 0
    assert main(["--list-checks"]) == 0
    assert "D101" in capsys.readouterr().out


def test_main_rejects_unknown_check(capsys: pytest.CaptureFixture) -> None:
    assert main(["--select", "D999"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_main_json_format(capsys: pytest.CaptureFixture) -> None:
    status = main(
        [str(FIXTURES / "d1_dimensions.py"), "--format", "json", "--no-baseline"]
    )
    assert status == 1
    document = json.loads(capsys.readouterr().out)
    assert [f["check_id"] for f in document["new_findings"]] == [
        "D101",
        "D102",
        "D103",
        "D104",
    ]


def test_write_baseline_then_clean(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "d2_determinism.py")
    assert main([target, "--write-baseline", "--baseline", str(baseline)]) == 0
    assert baseline.exists()
    assert main([target, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined finding(s) suppressed" in out


def test_ecostor_analyze_subcommand(capsys: pytest.CaptureFixture) -> None:
    status = ecostor_main(
        ["analyze", str(FIXTURES / "d1_dimensions.py"), "--no-baseline"]
    )
    assert status == 1
    assert "D101[mixed-dimension-arith]" in capsys.readouterr().out
    assert ecostor_main(["analyze", "--list-checks"]) == 0
