"""The JSON readers: one document per stream named by its file, JSONL one line at a time."""

from __future__ import annotations

import io
import json
import re

import pytest

from refsynth.errors import DataError, MalformedDocument, SchemaViolation
from refsynth.util import decode_json, load_json, parse_jsonl, read_jsonl

NON_STANDARD = ["NaN", "Infinity", "-Infinity"]


def positive(payload):
    if not isinstance(payload, int) or payload <= 0:
        raise SchemaViolation(f"not a positive number: {payload!r}")
    return payload


class TestDecodeJson:
    def test_reads_what_json_loads_reads(self):
        for text in ('{"a": [1, 2.5, "x", null, true]}', b'{"a": 1}', b"\xef\xbb\xbf[1]", "1e999"):
            assert decode_json(text) == json.loads(text)

    @pytest.mark.parametrize("token", NON_STANDARD)
    def test_rejects_the_non_standard_numbers(self, token):
        with pytest.raises(MalformedDocument, match=f"^{token} is not a JSON value$"):
            decode_json(f'{{"w": [{token}]}}')


class TestLoadJson:
    def test_text_and_bytes_give_the_same_document(self):
        assert load_json(io.StringIO('{"a": [1]}'), "doc") == {"a": [1]}
        assert load_json(io.BytesIO(b'{"a": [1]}'), "doc") == {"a": [1]}

    @pytest.mark.parametrize("content", [b'{"a": ', b'{"a": "\xc3("}'], ids=["truncated", "not-utf8"])
    def test_names_the_file_of_a_named_stream(self, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        message = f"^{re.escape(str(path))} is not valid JSON"
        with open(path, "rb") as handle, pytest.raises(MalformedDocument, match=message):
            load_json(handle, "doc")

    @pytest.mark.parametrize("content", [b'{"a": ', b'{"a": "\xc3("}'], ids=["truncated", "not-utf8"])
    def test_falls_back_to_the_label(self, content):
        with pytest.raises(MalformedDocument, match="^corpus is not valid JSON"):
            load_json(io.BytesIO(content), "corpus")


    @pytest.mark.parametrize("token", NON_STANDARD)
    def test_non_standard_numbers_name_the_file(self, token):
        with pytest.raises(MalformedDocument, match=f"^doc is not valid JSON: {token} is not a JSON value$"):
            load_json(io.StringIO(f'{{"w": {token}}}'), "doc")

    def test_a_schema_that_checks_numbers_reads_them_as_floats(self):
        data = load_json(io.StringIO('[NaN, Infinity, -Infinity]'), "doc", schema_checks_numbers=True)
        assert [repr(x) for x in data] == ["nan", "inf", "-inf"]


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


    @pytest.mark.parametrize("token", NON_STANDARD)
    def test_non_standard_numbers_name_the_line(self, token):
        with pytest.raises(DataError, match=f"^in\\.jsonl:2: {token} is not a JSON value$"):
            list(parse_jsonl(["1", f"[{token}]"], "in.jsonl", positive))


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
