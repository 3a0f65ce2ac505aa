"""Tests for the DDR baseline."""

import pytest

from repro import units
from repro.baselines.ddr import DDRPolicy
from repro.config import DEFAULT_CONFIG
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer
from tests.io_fields import physical_fields


def build_system(enclosures=3, item_size=4 * units.GB):
    context = build_context(DEFAULT_CONFIG, enclosures)
    names = context.enclosure_names()
    for e in range(enclosures):
        item = f"item-{e}"
        context.virtualization.add_item(
            item, item_size, default_volume(names[e])
        )
        context.app_monitor.register_item(item, default_volume(names[e]))
    return context


def stream(item, start, end, gap):
    """Physical traffic: rotating offsets defeat the read cache (DDR
    judges enclosures by their *physical* IOPS)."""
    t = start
    offset = 0
    records = []
    while t < end:
        records.append(LogicalIORecord(t, item, offset, 4096, IOType.READ))
        offset = (offset + 512 * 1024) % (4 * units.GB - units.MB)
        t += gap
    return records


class TestDDRConfiguration:
    def test_defaults_from_config(self, small_context):
        policy = DDRPolicy()
        policy.bind(small_context)
        policy.on_start(0.0)
        assert policy.monitoring_period == DEFAULT_CONFIG.ddr_monitoring_period
        assert policy.target_th == DEFAULT_CONFIG.ddr_target_th
        assert policy.low_th == DEFAULT_CONFIG.ddr_target_th / 2

    def test_nothing_cold_at_start(self, small_context):
        policy = DDRPolicy()
        policy.bind(small_context)
        policy.on_start(0.0)
        assert not any(e.power_off_enabled for e in small_context.enclosures)

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            DDRPolicy(iops_smoothing_seconds=0.0)


class TestDDRBehaviour:
    def test_sub_second_determination_count(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=0.25)
        records = stream("item-0", 0.0, 10.0, gap=1.0)
        result = TraceReplayer(context, policy).run(records, duration=10.0)
        assert result.determinations == 40

    def test_busy_enclosures_never_marked_cold(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=10.0)
        # 1 IOPS on every enclosure, far above LowTH (0.25).
        records = []
        for e in range(3):
            records += stream(f"item-{e}", 0.1 * e, 300.0, gap=1.0)
        result = TraceReplayer(context, policy).run(
            sorted(records), duration=300.0
        )
        assert result.spin_down_count == 0
        assert result.migrated_bytes == 0

    def test_idle_enclosure_marked_cold_and_spins_down(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=10.0)
        # Only enclosure 0 busy; 1 and 2 silent -> cold -> off.
        records = stream("item-0", 0.0, 600.0, gap=1.0)
        result = TraceReplayer(context, policy).run(records, duration=600.0)
        assert result.spin_down_count >= 2

    def test_access_to_cold_enclosure_migrates_blocks(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=5.0)
        # Enclosure 1 quiet for a long time, then accessed.
        records = stream("item-0", 0.0, 400.0, gap=1.0)
        records.append(
            LogicalIORecord(300.0, "item-1", 0, 8192, IOType.READ)
        )
        result = TraceReplayer(context, policy).run(
            sorted(records), duration=400.0
        )
        assert policy.blocks_migrated >= 1
        assert result.migrated_bytes >= 8192

    def test_no_block_migration_without_hot_targets(self):
        # Single enclosure: even if cold, there is nowhere to migrate.
        context = build_context(DEFAULT_CONFIG, 1)
        context.virtualization.add_item(
            "only", units.MB, default_volume("enc-00")
        )
        context.app_monitor.register_item("only", default_volume("enc-00"))
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=5.0)
        records = [
            LogicalIORecord(200.0, "only", 0, 4096, IOType.READ),
        ]
        result = TraceReplayer(context, policy).run(records, duration=300.0)
        assert policy.blocks_migrated == 0

    def test_smoothing_resists_momentary_quiet(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=0.5, iops_smoothing_seconds=60.0)
        policy.bind(context)
        policy.on_start(0.0)
        # Simulate sustained traffic then one quiet window.
        monitor = context.storage_monitor
        from repro.trace.records import PhysicalIORecord

        clock = 0.0
        for _ in range(200):
            clock += 0.5
            monitor.on_physical(
                *physical_fields(PhysicalIORecord(clock, "enc-00", 0, 1, IOType.READ))
            )
            policy.on_checkpoint(clock)
        assert "enc-00" not in policy._cold
        # One empty window barely dents the smoothed estimate.
        clock += 0.5
        policy.on_checkpoint(clock)
        assert "enc-00" not in policy._cold
