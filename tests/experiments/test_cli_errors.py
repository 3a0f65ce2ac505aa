"""Tests for the CLI's top-level error mapping.

``main()`` turns every *domain* error — bad traces, invalid arguments,
API misuse, audit failures, unusable snapshots — into exit status 2
with a one-line ``ecostor: error: ...`` diagnostic on stderr.  Anything
else is a bug and must still propagate as a traceback.
"""

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.placement import HotSetTooSmall
from repro.errors import AuditError, CapacityError, PlacementError


class TestDomainErrorsExitTwo:
    def test_usage_error_from_mismatched_snapshot_flags(self, capsys):
        status = main(
            ["run", "fileserver", "proposed", "--snapshot-every", "100"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "--snapshot-dir" in err

    def test_validation_error_from_negative_snapshot_every(
        self, capsys, tmp_path
    ):
        status = main(
            [
                "run", "fileserver", "proposed",
                "--snapshot-every", "-5",
                "--snapshot-dir", str(tmp_path),
            ]
        )
        assert status == 2
        assert "non-negative" in capsys.readouterr().err

    def test_snapshot_error_from_corrupt_snapshot(self, capsys, tmp_path):
        bad = tmp_path / "snap-0000000001.ecsn"
        bad.write_bytes(b"torn")
        assert main(["resume", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_trace_error_from_corrupt_ecot(self, capsys, tmp_path):
        bad = tmp_path / "bad.ecot"
        bad.write_bytes(b"garbage bytes")
        assert main(["trace", "info", str(bad)]) == 2
        assert ".ecot" in capsys.readouterr().err

    def test_trace_error_from_item_past_enclosure_capacity(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "huge-offset.csv"
        trace.write_text(
            "timestamp,item_id,offset,size,io_type,sequential\n"
            "0.5,a,100000000000000,4096,R,0\n"
        )
        assert main(["replay-trace", str(trace), "no-power-saving"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: trace does not fit the array")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("interval", ["nan", "inf", "0"])
    def test_non_finite_timeline_interval_rejected(self, capsys, interval):
        status = main(
            ["power-timeline", "tpcc", "pdc", "--interval", interval]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "finite and positive" in err
        assert err.count("\n") == 1

    def test_audit_error_maps_to_exit_two(self, capsys, monkeypatch):
        def fail(args):
            raise AuditError("invariant violated at t=120.0\n  - detail")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        err = capsys.readouterr().err
        # Only the first line of a multi-line error is printed.
        assert "invariant violated at t=120.0" in err
        assert "detail" not in err

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_non_positive_shards_rejected_before_load(
        self, capsys, tmp_path, shards
    ):
        # The guard fires before the trace is opened, so the file's
        # content (or existence) never matters.
        status = main(
            ["trace", "info", str(tmp_path / "any.ecot"), "--shards", shards]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "--shards must be a positive array count" in err

    def test_placement_error_maps_to_exit_two(self, capsys, monkeypatch):
        def fail(args):
            raise PlacementError("no feasible hot/cold split")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "no feasible hot/cold split" in err

    def test_hot_set_too_small_maps_to_exit_two(self, capsys, monkeypatch):
        def fail(args):
            raise HotSetTooSmall("2 hot enclosures cannot absorb the load")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        assert "hot enclosures" in capsys.readouterr().err

    def test_empty_message_falls_back_to_class_name(
        self, capsys, monkeypatch
    ):
        def fail(args):
            raise AuditError()

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        assert "AuditError" in capsys.readouterr().err


class TestBugsStillPropagate:
    def test_unexpected_errors_are_not_swallowed(self, monkeypatch):
        def explode(args):
            raise RuntimeError("a genuine bug")

        monkeypatch.setattr(cli, "_cmd_run", explode)
        with pytest.raises(RuntimeError, match="a genuine bug"):
            main(["run", "fileserver", "proposed"])

    def test_simulator_capacity_errors_are_not_swallowed(self, monkeypatch):
        def overflow(args):
            raise CapacityError("placement overflowed enc-03")

        monkeypatch.setattr(cli, "_cmd_run", overflow)
        with pytest.raises(CapacityError, match="enc-03"):
            main(["run", "fileserver", "proposed"])


class TestSnapshotCliRoundTrip:
    def test_run_resume_reports_match(self, capsys, tmp_path):
        assert main(
            [
                "run", "tpcc", "pdc",
                "--snapshot-every", "6000",
                "--snapshot-dir", str(tmp_path),
            ]
        ) == 0
        run_out = capsys.readouterr().out
        assert "snapshots:" in run_out
        snapshots = sorted(tmp_path.glob("snap-*.ecsn"))
        assert snapshots
        assert main(["resume", str(snapshots[0])]) == 0
        resume_out = capsys.readouterr().out
        # Every measured line of the resumed report equals the original
        # run's (the snapshot count line exists only on the run side).
        resumed_lines = resume_out.strip().splitlines()
        assert all(line in run_out for line in resumed_lines)
        assert "enclosure power" in resume_out
