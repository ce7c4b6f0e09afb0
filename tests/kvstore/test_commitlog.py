"""Commit log: append/replay/truncate, in-memory and on-disk; the binary
record; and the charged size, which must stay the old JSON line's length."""

import json
from pathlib import Path

import pytest

from repro.kvstore.cells import Cell
from repro.kvstore.commitlog import (CommitLog, charged_size, decode_records,
                                     encode_record, read_records)


def cells():
    return [Cell("r1", "c1", b"hello", 1.0),
            Cell("r2", "c2", None, 2.0),             # tombstone
            Cell("r3", "c3", bytes(range(256)), 3.0, ttl=60.0),  # binary
            Cell("clé-行", "U\t1", b"", 4.5, ttl=7)]   # non-ASCII, int TTL


class TestInMemoryLog:
    def test_append_and_replay_order(self):
        log = CommitLog()
        for cell in cells():
            log.append(cell)
        assert list(log.replay()) == cells()

    def test_truncate_empties(self):
        log = CommitLog()
        log.append(cells()[0])
        log.truncate()
        assert list(log.replay()) == []
        assert log.size_bytes == 0

    def test_size_grows(self):
        log = CommitLog()
        size = log.append(cells()[0])
        assert size > 0
        assert log.size_bytes == size


class TestOnDiskLog:
    def test_roundtrip_through_file(self, tmp_path: Path):
        path = tmp_path / "node.commitlog"
        log = CommitLog(path)
        for cell in cells():
            log.append(cell)
        assert list(log.replay()) == cells()

    def test_survives_reopen(self, tmp_path: Path):
        """Crash recovery: a new process replays the old file."""
        path = tmp_path / "node.commitlog"
        log = CommitLog(path)
        for cell in cells():
            log.append(cell)
        log.flush()  # what the node does before acknowledging
        replayed = list(CommitLog.open(path).replay())
        assert replayed == cells()

    def test_fresh_log_truncates_stale_file(self, tmp_path: Path):
        path = tmp_path / "node.commitlog"
        path.write_text("garbage\n")
        log = CommitLog(path)
        assert list(log.replay()) == []

    def test_binary_values_preserved(self, tmp_path: Path):
        path = tmp_path / "bin.commitlog"
        log = CommitLog(path)
        payload = bytes(range(256))
        log.append(Cell("r", "c", payload, 0.0))
        assert list(log.replay())[0].value == payload

    def test_truncate_on_disk(self, tmp_path: Path):
        path = tmp_path / "node.commitlog"
        log = CommitLog(path)
        log.append(cells()[0])
        log.truncate()
        assert path.read_bytes() == b""
        log.append(cells()[1])  # the same handle keeps working
        assert list(log.replay()) == [cells()[1]]


class TestAdoptedLog:
    def test_open_continues_in_place(self, tmp_path: Path):
        path = tmp_path / "node.commitlog"
        log = CommitLog(path)
        log.append(cells()[0])
        log.close()
        before = path.read_bytes()
        adopted = CommitLog.open(path)
        assert path.read_bytes() == before  # nothing rewritten
        assert adopted.size_bytes == charged_size(cells()[0])
        adopted.append(cells()[1])
        adopted.close()
        assert list(CommitLog.open(path).replay()) == cells()[:2]

    def test_open_missing_file_is_empty(self, tmp_path: Path):
        log = CommitLog.open(tmp_path / "sub" / "node.commitlog")
        assert list(log.replay()) == []

    def test_torn_last_record_is_dropped_at_every_offset(self, tmp_path):
        """A crash mid-append leaves a prefix of the last record: replay
        must stop cleanly before it, and the next append must land where
        the torn bytes were."""
        whole = b"".join(encode_record(cell) for cell in cells()[:3])
        torn_record = encode_record(cells()[3])
        path = tmp_path / "node.commitlog"
        for cut in range(len(torn_record)):
            path.write_bytes(whole + torn_record[:cut])
            log = CommitLog.open(path)
            assert list(log.replay()) == cells()[:3], cut
            log.append(cells()[0])
            log.close()
            assert path.read_bytes() == whole + encode_record(cells()[0])

    def test_corrupt_record_stops_replay(self, tmp_path: Path):
        records = [encode_record(cell) for cell in cells()]
        damaged = bytearray(records[2])
        damaged[40] ^= 0xFF  # a value byte: only the CRC can notice
        path = tmp_path / "node.commitlog"
        path.write_bytes(records[0] + records[1] + bytes(damaged)
                         + records[3])
        assert list(CommitLog.open(path).replay()) == cells()[:2]


class TestRecord:
    def test_roundtrip(self):
        data = b"".join(encode_record(cell) for cell in cells())
        assert decode_records(data) == (cells(), len(data))

    def test_file_is_read_in_chunks(self, tmp_path: Path, monkeypatch):
        """Records straddle every chunk boundary when chunks are 7 bytes."""
        monkeypatch.setattr("repro.kvstore.commitlog._READ_CHUNK", 7)
        path = tmp_path / "node.commitlog"
        path.write_bytes(b"".join(map(encode_record, cells())) + b"torn")
        with path.open("rb") as handle:
            assert read_records(handle) == (cells(), 4)

    def test_ttl_zero_is_not_no_ttl(self):
        cell = Cell("r", "c", b"v", 1.0, ttl=0)
        (decoded,), _ = decode_records(encode_record(cell))
        assert decoded.ttl == 0 and decoded.ttl is not None


def legacy_json_line(cell: Cell) -> str:
    """The line this log wrote before it went binary; the device is still
    charged its length. Kept here only, as the reference."""
    return json.dumps({
        "row": cell.row,
        "column": cell.column,
        "value": (cell.value.decode("latin-1")
                  if cell.value is not None else None),
        "write_ts": cell.write_ts,
        "ttl": cell.ttl,
    }, separators=(",", ":"))


class TestChargedSize:
    @pytest.mark.parametrize("byte", range(256))
    def test_every_byte_value(self, byte: int):
        cell = Cell("r", "c", bytes([byte]) * 3 + b"x", 1.0)
        assert charged_size(cell) == len(legacy_json_line(cell)) + 1

    @pytest.mark.parametrize("cell", cells() + [
        Cell("r", "c", bytes(range(256)) * 2, 0.1 + 0.2, ttl=1e-7),
        Cell("r", "c", b"v", 3, ttl=None),                 # int clock
        Cell("r", "c", b"v", 1e22, ttl=float("inf")),
        Cell("r", "c", None, -0.0, ttl=12345678901234567890),
        Cell('q"uo\\te\n', "\x7f\x00", b"", 2.5),           # escapes in keys
        Cell("\U0001f600", "\ud800", b"v", 2.5),            # astral, surrogate
    ])
    def test_matches_legacy_line(self, cell: Cell):
        assert charged_size(cell) == len(legacy_json_line(cell)) + 1

    def test_append_returns_it_in_both_modes(self, tmp_path: Path):
        for log in (CommitLog(), CommitLog(tmp_path / "n.commitlog")):
            sizes = [log.append(cell) for cell in cells()]
            assert sizes == [len(legacy_json_line(c)) + 1 for c in cells()]
            assert log.size_bytes == sum(sizes)
