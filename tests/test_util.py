"""The JSONL reader: one line parsed at a time, failures named by line."""

from __future__ import annotations

import pytest

from refsynth.errors import DataError, SchemaViolation
from refsynth.util import parse_jsonl, read_jsonl


def positive(payload):
    if not isinstance(payload, int) or payload <= 0:
        raise SchemaViolation(f"not a positive number: {payload!r}")
    return payload


class TestParseJsonl:
    def test_blank_lines_are_skipped_and_numbering_keeps_them(self):
        lines = ["1\n", "\n", "  \n", "2\n", "-3\n"]
        with pytest.raises(DataError, match=r"^in\.jsonl:5: not a positive number: -3$"):
            list(parse_jsonl(lines, "in.jsonl", positive))

    @pytest.mark.parametrize("bad, message", [
        ("{broken", r"^in\.jsonl:3 is not valid JSON$"),
        ("0", r"^in\.jsonl:3: not a positive number: 0$"),
    ], ids=["json", "parse"])
    def test_records_before_a_bad_line_are_yielded_first(self, bad, message):
        read = []

        def lines():
            for line in ("1", "2", bad, "4"):
                read.append(line)
                yield line

        records = parse_jsonl(lines(), "in.jsonl", positive)
        assert next(records) == 1 and read == ["1"]
        assert next(records) == 2 and read == ["1", "2"]
        with pytest.raises(DataError, match=message):
            next(records)
        assert read == ["1", "2", bad]


class TestReadJsonl:
    def test_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("1\n2\n-1\n", encoding="utf-8")
        records = read_jsonl(str(path), positive)
        assert [next(records), next(records)] == [1, 2]
        with pytest.raises(DataError, match=f"{path}:3:"):
            next(records)

    def test_a_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'1\n"\xff"\n')
        records = read_jsonl(str(path), positive)
        assert next(records) == 1
        with pytest.raises(DataError, match=f"{path}:2 is not valid JSON"):
            next(records)

    def test_a_missing_file_fails_on_the_first_read(self, tmp_path):
        records = read_jsonl(str(tmp_path / "absent.jsonl"), positive)
        with pytest.raises(FileNotFoundError):
            next(records)
