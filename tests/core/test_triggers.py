"""Tests for repro.core.triggers — §V-D pattern-change triggers."""

import pytest

from repro.core.triggers import PatternChangeTriggers
from repro.monitoring.storage import StorageMonitor
from repro.storage.enclosure import DiskEnclosure
from repro.trace.records import IOType, PhysicalIORecord
from tests.io_fields import physical_fields

BE = 52.0


def setup(count=2):
    encs = [DiskEnclosure(f"e{i}", spin_down_timeout=BE) for i in range(count)]
    monitor = StorageMonitor(encs)
    triggers = PatternChangeTriggers(BE)
    triggers.reset(0.0)
    return triggers, monitor, encs


def touch(monitor, t, enclosure="e0"):
    monitor.on_physical(*physical_fields(PhysicalIORecord(t, enclosure, 0, 1, IOType.READ)))


class TestGuards:
    def test_suppressed_within_one_break_even(self):
        triggers, monitor, _ = setup()
        # Even a glaring hot-idle condition stays quiet early on.
        result = triggers.check(BE * 0.9, ["e0"], ["e1"], monitor)
        assert not result.fired

    def test_invalid_break_even(self):
        with pytest.raises(ValueError):
            PatternChangeTriggers(0.0)


class TestHotIdleCondition:
    def test_fires_when_hot_enclosure_idles_past_break_even(self):
        triggers, monitor, _ = setup()
        touch(monitor, 10.0, "e0")
        result = triggers.check(10.0 + BE + 1.0, ["e0"], [], monitor)
        assert result.fired
        assert "e0" in result.reason

    def test_quiet_while_hot_stays_busy(self):
        triggers, monitor, _ = setup()
        touch(monitor, 10.0, "e0")
        touch(monitor, 60.0, "e0")
        result = triggers.check(100.0, ["e0"], [], monitor)
        assert not result.fired

    def test_never_touched_hot_counts_from_period_end(self):
        triggers, monitor, _ = setup()
        result = triggers.check(BE + 1.0, ["e0"], [], monitor)
        assert result.fired


class TestSpinUpBudget:
    def test_allowed_spin_ups_formula(self):
        triggers, _, _ = setup()
        assert triggers.allowed_spin_ups(BE) == pytest.approx(2.0)
        assert triggers.allowed_spin_ups(2 * BE) == pytest.approx(4.0)

    def test_fires_when_cold_enclosure_thrashes(self):
        # Note: with spin_down_timeout == break-even (the paper's Table
        # II setting) a real enclosure cannot cycle faster than once per
        # ~break-even, so condition (ii) only fires for shorter
        # timeouts; we inject the spin-up events directly to exercise
        # the budget comparison itself.
        triggers, monitor, encs = setup()
        cold = encs[1]
        now = 2 * BE
        cold.spin_up_events.extend([10.0, 30.0, 50.0, 70.0, 90.0, 100.0])
        touch(monitor, now - 1.0, "e0")
        result = triggers.check(now, ["e0"], ["e1"], monitor)
        # Budget at 2 x BE is 4; six spin-ups exceed it.
        assert result.fired
        assert "e1" in result.reason

    def test_quiet_when_spin_ups_within_budget(self):
        triggers, monitor, encs = setup()
        cold = encs[1]
        cold.enable_power_off(0.0)
        cold.settle(500.0)
        cold.submit(500.0)  # one spin-up
        touch(monitor, 499.0, "e0")
        result = triggers.check(500.0, ["e0"], ["e1"], monitor)
        assert not result.fired  # budget at t=500 is ~19

    def test_reset_moves_reference(self):
        triggers, monitor, _ = setup()
        touch(monitor, 10.0, "e0")
        triggers.reset(200.0)
        # Hot idle measured against the new reference: quiet right away.
        result = triggers.check(210.0, ["e0"], [], monitor)
        assert not result.fired
