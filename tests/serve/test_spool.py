"""Crash-safe spool semantics: footers, torn tails, corruption."""

import pytest

from repro.errors import SpoolError
from repro.serve import SpoolReader, SpoolWriter
from repro.serve.codec import encode_jsonl, frame_record


def _records(n):
    return [
        frame_record(i, i * 1e-3, 14, bytes([i, i + 1]), fcs_ok=i % 3 != 0)
        for i in range(n)
    ]


class TestRoundTrip:
    def test_clean_shutdown_is_complete_and_counted(self, tmp_path):
        path = str(tmp_path / "run.spool")
        with SpoolWriter(path, meta={"channel": 14, "seed": 7}) as spool:
            for record in _records(5):
                spool.append(record)
        reader = SpoolReader(path)
        assert reader.complete
        assert len(reader) == 5
        assert reader.meta == {"channel": 14, "seed": 7}
        assert [r["seq"] for r in reader.frame_records()] == list(range(5))

    def test_replayed_records_encode_byte_identically(self, tmp_path):
        path = str(tmp_path / "run.spool")
        originals = _records(4)
        with SpoolWriter(path) as spool:
            for record in originals:
                spool.append(record)
        reader = SpoolReader(path)
        assert [encode_jsonl(r) for r in reader.records()] == [
            encode_jsonl(r) for r in originals
        ]

    def test_append_after_close_raises(self, tmp_path):
        path = str(tmp_path / "run.spool")
        spool = SpoolWriter(path)
        spool.close()
        with pytest.raises(SpoolError):
            spool.append(_records(1)[0])


def abort(spool: SpoolWriter) -> None:
    """Close *spool*'s file without the footer, as a killed process would."""
    spool._closed = True
    spool._handle.close()


class TestCrashTolerance:
    def test_abort_leaves_a_loadable_incomplete_spool(self, tmp_path):
        path = str(tmp_path / "crash.spool")
        spool = SpoolWriter(path)
        for record in _records(3):
            spool.append(record)
        abort(spool)  # simulated SIGKILL: no footer
        reader = SpoolReader(path)
        assert not reader.complete
        assert len(reader) == 3

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "torn.spool")
        spool = SpoolWriter(path)
        for record in _records(3):
            spool.append(record)
        abort(spool)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "frame", "seq":')  # cut mid-record
        reader = SpoolReader(path)
        assert not reader.complete
        assert len(reader) == 3  # everything before the tear survived

    def test_torn_line_followed_by_valid_data_is_corruption(self, tmp_path):
        path = str(tmp_path / "bad.spool")
        spool = SpoolWriter(path)
        spool.append(_records(1)[0])
        abort(spool)
        with open(path, "ab") as handle:
            handle.write(b"{broken\n")
            handle.write(encode_jsonl(_records(2)[1]))
        with pytest.raises(SpoolError, match="corrupt"):
            SpoolReader(path)


class TestHeaderAndFooter:
    def test_foreign_file_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_bytes(b'{"type": "frame", "seq": 0}\n')
        with pytest.raises(SpoolError, match="not a wazabee-spool/1"):
            SpoolReader(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.spool"
        path.write_bytes(b"")
        with pytest.raises(SpoolError, match="empty"):
            SpoolReader(str(path))

    def test_footer_count_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "lying.spool")
        spool = SpoolWriter(path)
        spool.append(_records(1)[0])
        abort(spool)
        with open(path, "ab") as handle:
            handle.write(encode_jsonl({"type": "spool-end", "records": 99}))
        with pytest.raises(SpoolError, match="footer claims"):
            SpoolReader(path)
