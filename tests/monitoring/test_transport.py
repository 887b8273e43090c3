"""Tests for the SSH/rsync transfer model."""

import dataclasses

import pytest

from repro.monitoring.transport import (
    MD5_LINE_BYTES,
    SENSOR_SAMPLE_BYTES,
    SSH_SESSION_OVERHEAD_BYTES,
    RsyncChannel,
    TransferLedger,
    TransferRecord,
)


class TestRsyncChannel:
    def test_first_sync_moves_everything(self):
        chan = RsyncChannel(host_id=3)
        record = chan.sync(0.0, produced_md5_lines=10, produced_sensor_samples=5)
        assert record.new_md5_lines == 10
        assert record.new_sensor_samples == 5
        assert record.bytes_moved == (
            10 * MD5_LINE_BYTES + 5 * SENSOR_SAMPLE_BYTES + SSH_SESSION_OVERHEAD_BYTES
        )

    def test_incremental_sync_moves_only_deltas(self):
        chan = RsyncChannel(host_id=3)
        chan.sync(0.0, 10, 5)
        record = chan.sync(1200.0, 12, 6)
        assert record.new_md5_lines == 2
        assert record.new_sensor_samples == 1

    def test_idle_sync_costs_only_overhead(self):
        # rsync with nothing new still opens a session.
        chan = RsyncChannel(host_id=3)
        chan.sync(0.0, 10, 5)
        record = chan.sync(1200.0, 10, 5)
        assert record.bytes_moved == SSH_SESSION_OVERHEAD_BYTES

    def test_backlog_carried_after_missed_rounds(self):
        # A dead switch skips rounds; the next success carries the backlog.
        chan = RsyncChannel(host_id=3)
        chan.sync(0.0, 2, 1)
        # Rounds at t=1200, 2400 missed; host kept producing.
        record = chan.sync(3600.0, 8, 4)
        assert record.new_md5_lines == 6
        assert record.new_sensor_samples == 3

    def test_pending_preview(self):
        chan = RsyncChannel(host_id=3)
        chan.sync(0.0, 2, 1)
        assert chan.pending(4, 2) == 2 * MD5_LINE_BYTES + 1 * SENSOR_SAMPLE_BYTES

    def test_production_counts_cannot_regress(self):
        chan = RsyncChannel(host_id=3)
        chan.sync(0.0, 10, 5)
        with pytest.raises(ValueError):
            chan.sync(1.0, 9, 5)

    def test_totals_accumulate(self):
        chan = RsyncChannel(host_id=3)
        chan.sync(0.0, 1, 1)
        chan.sync(1.0, 2, 2)
        assert chan.sessions == 2
        assert chan.total_bytes > 2 * SSH_SESSION_OVERHEAD_BYTES


class TestTransferLedger:
    def test_channels_are_per_host(self):
        ledger = TransferLedger()
        assert ledger.channel(1) is ledger.channel(1)
        assert ledger.channel(1) is not ledger.channel(2)

    def test_record_sync_aggregates(self):
        ledger = TransferLedger()
        ledger.record_sync(0.0, 1, 5, 2)
        ledger.record_sync(0.0, 2, 3, 2)
        ledger.record_sync(1200.0, 1, 6, 3)
        assert ledger.total_sessions == 3
        assert ledger.bytes_for_host(1) > ledger.bytes_for_host(2)
        assert ledger.mean_session_bytes() == pytest.approx(
            ledger.total_bytes / 3
        )

    def test_empty_ledger(self):
        ledger = TransferLedger()
        assert ledger.total_bytes == 0
        assert ledger.mean_session_bytes() == 0.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            TransferRecord(0.0, 1, new_md5_lines=-1, new_sensor_samples=0, bytes_moved=0)

    def test_rows_of_a_checked_ledger_skip_the_per_row_check(self, monkeypatch):
        """The store checked every row as it entered, so reading rows back
        runs no per-row ``__post_init__``; direct construction still does."""
        ledger = TransferLedger()
        for i in range(1000):
            ledger.record_sync(1200.0 * i, i % 7, 3 * i, 5 * i)
        checks = []
        check = TransferRecord.__post_init__
        monkeypatch.setattr(
            TransferRecord, "__post_init__", lambda row: checks.append(check(row))
        )
        rows = list(ledger.records)
        assert len(rows) == 1000 and rows[-1] == ledger.records[-1]
        assert rows[-1] == TransferRecord(*dataclasses.astuple(rows[-1]))
        assert len(checks) == 1
        with pytest.raises(ValueError):
            TransferRecord(0.0, 1, new_md5_lines=-1, new_sensor_samples=0, bytes_moved=0)


class TestExperimentIntegration:
    def test_transfers_wired_into_the_run(self, short_results):
        transfers = short_results.transfers
        assert transfers is not None
        assert transfers.total_sessions > 100
        assert transfers.total_bytes > transfers.total_sessions * SSH_SESSION_OVERHEAD_BYTES

    def test_md5_lines_match_workload_runs(self, short_results):
        # Every completed run's md5sum eventually crosses the wire.
        transfers = short_results.transfers
        ledger = short_results.ledger
        for host_id, runs in ledger.runs_per_host.items():
            moved = sum(
                r.new_md5_lines for r in transfers.records if r.host_id == host_id
            )
            # The final few runs may still be pending at campaign end.
            assert runs - 3 <= moved <= runs
