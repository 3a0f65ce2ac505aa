"""Tests for D2 — storage boundary (D201) and determinism (D202–D204)."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.analysis import checks  # noqa: F401  (registers checkers)
from repro.devtools.analysis.framework import resolve_checkers, run_checkers
from repro.devtools.analysis.symbols import index_paths

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"


def _findings(paths: list[Path], select: list[str]) -> list:
    return run_checkers(index_paths(paths), resolve_checkers(select))


# ----------------------------------------------------------------------
# D201 — storage boundary
# ----------------------------------------------------------------------
#: The placement, write-delay and power mutators, in the order
#: d201_direct.py calls them (its lines 12-20).
DIRECT_MUTATORS = [
    "migrate_item",
    "preload_item",
    "unpin_item",
    "select_write_delay",
    "flush_write_delay",
    "flush_item",
    "charge_block_migration",
    "enable_power_off",
    "disable_power_off",
]

#: The inter-tier and replica mutators, called after them (lines 21-26).
TIER_MUTATORS = [
    "promote_item",
    "demote_item",
    "archive_item",
    "replicate_item",
    "add_replica",
    "remove_replica",
]


def test_d201_flags_transitive_mutation_with_chain() -> None:
    findings = _findings([FIXTURES / "d2_purity"], ["D201"])
    assert [f.check_id for f in findings] == ["D201", "D201"]
    direct, finding = findings
    # The helper's own call is a direct-call finding at the call site...
    assert direct.context == "d2_purity.helpers.drain_everything"
    assert "direct call to flush_write_delay()" in direct.message
    # ...and the policy that reaches it is reported with its chain.
    assert finding.context == "d2_purity.policy.LeakyPolicy.on_checkpoint"
    assert "flush_write_delay" in finding.message
    assert "on_checkpoint -> _tidy -> drain_everything" in finding.message


def _direct_call_names(findings: list) -> list[str]:
    return [f.message.split("()", 1)[0] for f in findings]


def test_d201_flags_every_direct_mutator_call() -> None:
    from repro.devtools.analysis.determinism import STORAGE_MUTATORS

    assert STORAGE_MUTATORS == frozenset(DIRECT_MUTATORS + TIER_MUTATORS)
    findings = _findings([FIXTURES / "d201_direct.py"], ["D201"])
    assert [f.line for f in findings] == list(range(12, 27))
    assert _direct_call_names(findings[: len(DIRECT_MUTATORS)]) == [
        f"direct call to {name}" for name in DIRECT_MUTATORS
    ]
    assert all(f.context == "" for f in findings)  # module level


def test_d201_flags_every_tier_mutator_call() -> None:
    findings = _findings([FIXTURES / "d201_direct.py"], ["D201"])
    tier = findings[len(DIRECT_MUTATORS) :]
    assert [f.line for f in tier] == list(range(21, 27))
    assert _direct_call_names(tier) == [
        f"direct call to {name}" for name in TIER_MUTATORS
    ]
    assert all(f.context == "" for f in tier)  # module level


def test_d201_flags_tier_mutation_through_controller_helper() -> None:
    """The controller is exempt from the direct part, not from the walk."""
    findings = _findings([FIXTURES / "d201_tiers"], ["D201"])
    assert {f.context for f in findings} == {
        "repro.policy.RebalancingPolicy.on_checkpoint"
    }
    chains = sorted(f.message.rsplit("call chain: ", 1)[1] for f in findings)
    assert chains == [
        "on_checkpoint -> _rebalance -> flush_write_delay())",
        "on_checkpoint -> _rebalance -> promote_item())",
    ]


def test_d201_exempts_only_actions_and_controller(tmp_path: Path) -> None:
    for module in (
        "actions/executor.py",
        "storage/controller.py",
        "storage/enclosure.py",
        "storage/virtualization.py",
    ):
        path = tmp_path / "repro" / module
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / "__init__.py").touch()
        path.write_text("controller.flush_write_delay(0.0)\n")
    (tmp_path / "repro" / "__init__.py").touch()
    findings = _findings([tmp_path / "repro"], ["D201"])
    assert sorted(Path(f.path).name for f in findings) == [
        "enclosure.py",
        "virtualization.py",
    ]


def test_d201_executor_gateway_is_sanctioned() -> None:
    findings = _findings([FIXTURES / "d2_purity"], ["D201"])
    assert all("PurePolicy" not in f.context for f in findings)


def test_d201_recursion_terminates(tmp_path: Path) -> None:
    module = tmp_path / "recursive.py"
    module.write_text(
        "class PowerPolicy:\n"
        "    pass\n"
        "\n"
        "\n"
        "class Looper(PowerPolicy):\n"
        "    def on_checkpoint(self, now: float) -> None:\n"
        "        self._spin(now)\n"
        "\n"
        "    def _spin(self, now: float) -> None:\n"
        "        self._spin(now)\n",
        encoding="utf-8",
    )
    assert _findings([module], ["D201"]) == []


def test_d201_real_policies_are_pure() -> None:
    findings = _findings([Path("src/repro")], ["D201"])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"impure policy paths:\n{rendered}"


# ----------------------------------------------------------------------
# D202 / D203 / D204
# ----------------------------------------------------------------------
def test_d2_determinism_fixture_findings() -> None:
    findings = _findings([FIXTURES / "d2_determinism.py"], ["D202", "D203", "D204"])
    assert [f.check_id for f in findings] == ["D202", "D203", "D204", "D204"]


def test_d202_seeded_random_instance_is_fine(tmp_path: Path) -> None:
    module = tmp_path / "seeded.py"
    module.write_text(
        "import random\n"
        "\n"
        "rng = random.Random(11)\n"
        "value = rng.uniform(0.0, 1.0)\n"
        "random.seed(11)\n",
        encoding="utf-8",
    )
    assert _findings([module], ["D202"]) == []


def test_d202_from_import_alias_detected(tmp_path: Path) -> None:
    module = tmp_path / "aliased.py"
    module.write_text(
        "from random import shuffle\n"
        "\n"
        "deck = [1, 2, 3]\n"
        "shuffle(deck)\n",
        encoding="utf-8",
    )
    findings = _findings([module], ["D202"])
    assert [f.check_id for f in findings] == ["D202"]


def test_d203_datetime_now_detected(tmp_path: Path) -> None:
    module = tmp_path / "stamped.py"
    module.write_text(
        "import datetime\n"
        "\n"
        "stamp = datetime.datetime.now()\n",
        encoding="utf-8",
    )
    findings = _findings([module], ["D203"])
    assert [f.check_id for f in findings] == ["D203"]


def test_d204_sorted_set_is_fine(tmp_path: Path) -> None:
    module = tmp_path / "ordered.py"
    module.write_text(
        "names = {'b', 'a'}\n"
        "ordered = sorted(names)\n"
        "listed = list(sorted(names))\n"
        "for name in sorted(names):\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert _findings([module], ["D204"]) == []


def test_d204_set_operations_detected(tmp_path: Path) -> None:
    module = tmp_path / "setops.py"
    module.write_text(
        "current = {'a', 'b'}\n"
        "wanted = {'b', 'c'}\n"
        "for stale in current - wanted:\n"
        "    pass\n",
        encoding="utf-8",
    )
    findings = _findings([module], ["D204"])
    assert [f.check_id for f in findings] == ["D204"]
