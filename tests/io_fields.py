"""Unpack trace records into the plain fields the per-I/O entry points take.

``StorageController.submit``, ``ApplicationMonitor.record``,
``PowerPolicy.after_io`` and ``StorageMonitor.on_physical`` all take
scalar fields, not record objects; tests build records for readability
and spread them through these helpers::

    controller.submit(*fields(LogicalIORecord(1.0, "a", 0, 4096, IOType.READ)))
    monitor.on_physical(*physical_fields(PhysicalIORecord(1.0, "e0", 0)))
"""

from __future__ import annotations

from typing import Callable

from repro.trace.records import IOType, LogicalIORecord, PhysicalIORecord


def fields(record: LogicalIORecord) -> tuple[float, str, int, int, bool, bool]:
    """``(timestamp, item_id, offset, size, is_read, sequential)``."""
    return (
        record.timestamp,
        record.item_id,
        record.offset,
        record.size,
        record.io_type is IOType.READ,
        record.sequential,
    )


def physical_fields(
    record: PhysicalIORecord,
) -> tuple[float, str, int, int, IOType, str | None]:
    """``(timestamp, enclosure, block, count, io_type, item_id)``."""
    return (
        record.timestamp,
        record.enclosure,
        record.block_address,
        record.count,
        record.io_type,
        record.item_id,
    )


def collecting_tap(
    sink: list[PhysicalIORecord],
) -> Callable[[float, str, int, int, IOType, "str | None"], None]:
    """A physical tap that appends each reported I/O to ``sink`` as a record."""

    def tap(
        timestamp: float,
        enclosure: str,
        block: int,
        count: int,
        io_type: IOType,
        item_id: str | None,
    ) -> None:
        sink.append(
            PhysicalIORecord(timestamp, enclosure, block, count, io_type, item_id)
        )

    return tap
