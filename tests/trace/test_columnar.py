"""Columnar trace round-trips and the `.ecot` binary format.

Three layers of guarantee, mirroring the tentpole's claims:

* build-from-records is lossless: ``ColumnarTrace.from_records(rs)``
  materializes back to exactly ``rs`` (order, flags, every field);
* the ``.ecot`` file format is lossless and versioned: save → load
  (mmap-ed or copied) reproduces the same columns, and corrupt or
  future-versioned files are refused, never guessed at;
* a non-finite timestamp is refused on every way in (build from
  records, ``.ecot`` load), since the columns are the kernel's only
  input.
"""

from __future__ import annotations

import struct

import pytest

from repro.errors import TraceError
from repro.trace.columnar import (
    ECOT_MAGIC,
    FLAG_READ,
    FLAG_SEQUENTIAL,
    ColumnarTrace,
)
from repro.trace.records import IOType, LogicalIORecord


def _records() -> list[LogicalIORecord]:
    return [
        LogicalIORecord(
            timestamp=0.0,
            item_id="orders",
            offset=0,
            size=8192,
            io_type=IOType.READ,
        ),
        LogicalIORecord(
            timestamp=0.5,
            item_id="stock",
            offset=65536,
            size=4096,
            io_type=IOType.WRITE,
            sequential=True,
        ),
        LogicalIORecord(
            timestamp=2.25,
            item_id="orders",
            offset=16384,
            size=512,
            io_type=IOType.WRITE,
        ),
    ]


class TestBuildRoundTrip:
    def test_records_round_trip_exactly(self):
        records = _records()
        trace = ColumnarTrace.from_records(records)
        assert trace.to_records() == records

    def test_interns_items_in_first_appearance_order(self):
        trace = ColumnarTrace.from_records(_records())
        assert trace.items == ("orders", "stock")
        assert list(trace.item_index) == [0, 1, 0]

    def test_flags_encode_io_type_and_sequential(self):
        trace = ColumnarTrace.from_records(_records())
        assert trace.flags[0] == FLAG_READ
        assert trace.flags[1] == FLAG_SEQUENTIAL
        assert trace.flags[2] == 0

    def test_sequence_protocol(self):
        records = _records()
        trace = ColumnarTrace.from_records(records)
        assert len(trace) == 3
        assert trace[1] == records[1]
        assert trace[-1] == records[-1]
        assert list(trace[1:]) == records[1:]
        with pytest.raises(IndexError):
            trace[3]

    def test_empty_trace(self):
        trace = ColumnarTrace.from_records([])
        assert len(trace) == 0
        assert trace.to_records() == []


class TestEcotFormat:
    @pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "copy"])
    def test_save_load_round_trip(self, tmp_path, use_mmap):
        records = _records()
        built = ColumnarTrace.from_records(records)
        path = tmp_path / "trace.ecot"
        assert built.save(path) == len(records)
        loaded = ColumnarTrace.load(path, use_mmap=use_mmap)
        assert loaded == built
        assert loaded.to_records() == records

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.ecot"
        ColumnarTrace.from_records([]).save(path)
        assert ColumnarTrace.load(path).to_records() == []

    def test_single_record_round_trips(self, tmp_path):
        records = _records()[:1]
        path = tmp_path / "one.ecot"
        ColumnarTrace.from_records(records).save(path)
        assert ColumnarTrace.load(path).to_records() == records

    def test_non_ascii_item_ids_round_trip(self, tmp_path):
        records = [
            LogicalIORecord(
                timestamp=float(i),
                item_id=item_id,
                offset=0,
                size=4096,
                io_type=IOType.READ,
            )
            for i, item_id in enumerate(["データ/項目", "naïve id", "π"])
        ]
        path = tmp_path / "unicode.ecot"
        ColumnarTrace.from_records(records).save(path)
        loaded = ColumnarTrace.load(path)
        assert loaded.items == ("データ/項目", "naïve id", "π")
        assert loaded.to_records() == records

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "bogus.ecot"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(TraceError, match="not an .ecot"):
            ColumnarTrace.load(path)

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "future.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="version 99"):
            ColumnarTrace.load(path)

    def test_truncated_columns_refused(self, tmp_path):
        path = tmp_path / "cut.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TraceError, match="truncated"):
            ColumnarTrace.load(path)

    def test_magic_constant_is_first_four_bytes(self, tmp_path):
        path = tmp_path / "magic.ecot"
        ColumnarTrace.from_records([]).save(path)
        assert path.read_bytes()[:4] == ECOT_MAGIC


class TestNonFiniteTimestamps:
    """``nan``/``inf`` never reach the kernel through the columns."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_from_records_refuses(self, bad):
        records = _records()
        records[1] = LogicalIORecord(bad, "stock", 0, 4096, IOType.WRITE)
        with pytest.raises(TraceError, match="non-finite timestamp"):
            ColumnarTrace.from_records(records)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_load_refuses(self, tmp_path, bad):
        path = tmp_path / "bad.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = bytearray(path.read_bytes())
        # Overwrite the first timestamp in place: the column starts at
        # the header's span field, little-endian float64.
        span = struct.unpack_from("<4sIQIQ", raw)[4]
        struct.pack_into("<d", raw, span, bad)
        path.write_bytes(bytes(raw))
        for use_mmap in (True, False):
            with pytest.raises(TraceError, match="non-finite timestamp"):
                ColumnarTrace.load(path, use_mmap=use_mmap)
