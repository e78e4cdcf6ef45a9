"""What each JSON-lines reader makes of awkward but possible files.

Every row file is read one JSON object per line: an object split over
two lines or two objects on one line is an error naming ``file:line``,
with the reason the line alone gives when decoded; a BOM at the start
of a line, CRLF endings, U+2028 inside a string, trailing spaces and a
blank last line read as the clean file does.  The same holds for the
response log, where a complete line whose key parses but whose body
does not is reported at load, and a torn tail is cut off.  Files span
several read blocks, so a line's number survives block boundaries.
"""

from __future__ import annotations

import json
import re

import pytest

from dfscreen import cli, synth
from dfscreen.corpus import DatasetError, load_dataset_jsonl
from dfscreen.embedding import EmbeddingClient, EmbeddingError, EmbeddingProviderConfig
from dfscreen.evaluation import EvaluationError
from dfscreen.gateway import LlmResponse, ResponseCache, ResponseCacheError
from dfscreen.projection import ProjectionError, read_points_jsonl
from dfscreen.triage import read_results_jsonl

from test_cli import single_review_workspace


def read_vectors(path):
    client = EmbeddingClient(EmbeddingProviderConfig(kind="file_import", path=path))
    return [v.tolist() for v in client.embed_batch(["", "", ""], ["a", "b", "c"])]


def result_row(rid, routed):
    return {"final": "include", "record_id": rid, "routed": routed,
            "stage1": {"confidence": 0.5, "label": "exclude"},
            "stage1_completion_tokens": 9, "stage1_prompt_tokens": 120,
            "stage2": {"confidence": 0.97, "label": "include"} if routed else None,
            "stage2_completion_tokens": 11 if routed else 0,
            "stage2_prompt_tokens": 120 if routed else 0, "unparsed_final": False}


# reader, its error class, the reason its messages name, three good rows,
# and the string field of the second row that U+2028 goes into (a field
# the reader ignores where the format has no other string).
READERS = {
    "dataset": (lambda path: load_dataset_jsonl(path, "R").records, DatasetError,
                "bad record row",
                [{"id": "a", "title": "T", "abstract": "A", "gold_label": "include"},
                 {"id": "b", "title": "U", "abstract": "B"},
                 {"id": "c", "title": "V", "abstract": "C", "gold_label": "exclude"}],
                "title"),
    "points": (read_points_jsonl, ProjectionError, "bad point row",
               [{"id": "a", "x": 1.0, "y": 0.0}, {"id": "b", "x": 0.0, "y": 1.0},
                {"id": "c", "x": -0.5, "y": 2.5}], "note"),
    "results": (read_results_jsonl, EvaluationError, "unreadable result row",
                [result_row("a", True), result_row("b", False), result_row("c", True)],
                "record_id"),
    "vectors": (read_vectors, EmbeddingError, "bad vector row",
                [{"id": "a", "vector": [1.0, 0.0]}, {"id": "b", "vector": [0.0, 1.0]},
                 {"id": "c", "vector": [0.5, 0.5]}], "note"),
}


def encode(row) -> bytes:
    return json.dumps(row).encode("utf-8")


def write(tmp_path, data: bytes, name="rows.jsonl") -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def line_error(path, lineno, what, line: bytes) -> str:
    """The message of a line that decodes to no single JSON value."""
    with pytest.raises(ValueError) as info:
        json.loads(line.decode("utf-8-sig"))
    return f"{path}:{lineno}: {what}: {info.value}"


def split_in_two(row) -> tuple[bytes, bytes]:
    text = encode(row)
    cut = text.index(b", ") + 1
    return text[:cut] + b"\n", text[cut:]


@pytest.mark.parametrize("fmt", READERS)
class TestRowReaders:
    def test_two_objects_on_one_line(self, tmp_path, fmt):
        read, error, what, (r1, r2, r3), _ = READERS[fmt]
        line = encode(r1) + b"," + encode(r2) + b"\n"
        path = write(tmp_path, line + encode(r3) + b"\n")
        with pytest.raises(error) as info:
            read(path)
        assert str(info.value) == line_error(path, 1, what, line)

    def test_object_split_over_two_lines(self, tmp_path, fmt):
        read, error, what, (r1, r2, r3), _ = READERS[fmt]
        first, second = split_in_two(r2)
        path = write(tmp_path, encode(r1) + b"\n" + first + second + b"\n" + encode(r3) + b"\n")
        with pytest.raises(error) as info:
            read(path)
        assert str(info.value) == line_error(path, 2, what, first)

    def test_joined_and_split_lines_together(self, tmp_path, fmt):
        # As many objects as lines, yet neither line holds exactly one.
        read, error, what, (r1, r2, r3), _ = READERS[fmt]
        line = encode(r1) + b"," + encode(r2) + b"\n"
        first, second = split_in_two(r3)
        path = write(tmp_path, line + first + second + b"\n")
        with pytest.raises(error) as info:
            read(path)
        assert str(info.value) == line_error(path, 1, what, line)

    @pytest.mark.parametrize("case", ["bom-on-line-3", "crlf", "u2028", "trailing-spaces",
                                      "blank-last-line", "bom-on-line-1"])
    def test_reads_as_the_clean_file(self, tmp_path, fmt, case):
        read, _, _, rows, field = READERS[fmt]
        rows = [dict(row) for row in rows]
        if case == "u2028":
            rows[1][field] = "before\u2028after"
        lines = [encode(row) for row in rows]
        clean = read(write(tmp_path, b"".join(line + b"\n" for line in lines), "clean.jsonl"))
        if case == "bom-on-line-3":
            lines[2] = b"\xef\xbb\xbf" + lines[2]
        elif case == "bom-on-line-1":
            lines[0] = b"\xef\xbb\xbf" + lines[0]
        elif case == "u2028":
            lines[1] = json.dumps(rows[1], ensure_ascii=False).encode("utf-8")
            assert "\u2028".encode("utf-8") in lines[1]
        ending = {"crlf": b"\r\n", "trailing-spaces": b"   \n"}.get(case, b"\n")
        data = b"".join(line + ending for line in lines)
        if case == "blank-last-line":
            data += b"\n"
        assert len(clean) == 3
        assert read(write(tmp_path, data)) == clean

    def test_bom_on_a_blank_line_is_an_error(self, tmp_path, fmt):
        read, error, what, (r1, r2, _), _ = READERS[fmt]
        path = write(tmp_path, encode(r1) + b"\n\xef\xbb\xbf\n" + encode(r2) + b"\n")
        with pytest.raises(error) as info:
            read(path)
        assert str(info.value) == line_error(path, 2, what, b"\xef\xbb\xbf\n")


def dataset_lines(n):
    return [encode({"id": f"r{i}", "title": f"Title {i}", "abstract": "word " * 40})
            for i in range(n)]


class TestManyBlocks:
    def test_rows_across_blocks(self, tmp_path):
        lines = dataset_lines(3000)
        lines[1700] = b"\xef\xbb\xbf" + lines[1700] + b"\r"
        path = write(tmp_path, b"\n".join(lines) + b"\n")
        records = load_dataset_jsonl(path, "R").records
        assert [r.id for r in records] == [f"r{i}" for i in range(3000)]

    @pytest.mark.parametrize("bad", [2, 1499, 2999])
    def test_error_line_counts_across_blocks(self, tmp_path, bad):
        lines = dataset_lines(3000)
        lines[bad] = lines[bad][:-1]
        path = write(tmp_path, b"\n".join(lines) + b"\n")
        with pytest.raises(DatasetError) as info:
            load_dataset_jsonl(path, "R")
        assert str(info.value) == line_error(path, bad + 1, "bad record row",
                                             lines[bad] + b"\n")


def log_line(key, text="x", prompt_tokens=1, completion_tokens=1, model_id="m") -> bytes:
    row = {"key": key, "text": text, "prompt_tokens": prompt_tokens,
           "completion_tokens": completion_tokens, "model_id": model_id}
    return (json.dumps(row) + "\n").encode("utf-8")


def body_damage(key="k1"):
    """Complete lines with key ``key`` whose body does not load, and the reason."""
    missing_text = json.dumps({"key": key, "prompt_tokens": 1, "completion_tokens": 1,
                               "model_id": "m"}).encode() + b"\n"
    with pytest.raises(TypeError) as missing:
        LlmResponse(prompt_tokens=1, completion_tokens=1, model_id="m")
    with pytest.raises(ValueError) as negative:
        LlmResponse(text="x", prompt_tokens=-1, completion_tokens=1, model_id="m")
    bad_byte = log_line(key, text="caf\u00e9").replace(b"\\u00e9", b"\xe9")
    with pytest.raises(UnicodeDecodeError) as undecodable:
        bad_byte.decode("utf-8")
    return {
        "missing-text": (missing_text, repr(missing.value)),
        "negative-tokens": (log_line(key, prompt_tokens=-1), repr(negative.value)),
        "non-utf8": (bad_byte, repr(undecodable.value)),
    }


class TestResponseLogReader:
    @pytest.mark.parametrize("case", ["missing-text", "negative-tokens", "non-utf8"])
    def test_corrupt_body_after_a_good_key_is_reported_at_load(self, tmp_path, case):
        line, reason = body_damage()[case]
        path = write(tmp_path, log_line("k0") + line + log_line("k2"), "responses.jsonl")
        with pytest.raises(ResponseCacheError) as info:
            ResponseCache(path).get("k0")
        assert str(info.value) == f"{path}:2: corrupt response cache line: {reason}"

    @pytest.mark.parametrize("bad", [3, 1700, 2999])
    def test_error_line_counts_across_blocks(self, tmp_path, bad):
        lines = [log_line(f"k{i}", text="answer " * 20) for i in range(3000)]
        lines[bad - 1] = body_damage()["negative-tokens"][0]
        path = write(tmp_path, b"".join(lines), "responses.jsonl")
        with pytest.raises(ResponseCacheError, match=re.escape(f"{path}:{bad}: ")):
            ResponseCache(path).get("k0")

    def test_torn_tail_after_many_blocks_is_cut_off(self, tmp_path, capsys):
        lines = [log_line(f"k{i}", text="answer " * 20) for i in range(3000)]
        whole = b"".join(lines)
        path = write(tmp_path, whole + lines[0][:40], "responses.jsonl")
        cache = ResponseCache(path)
        assert cache.get("k2999") == LlmResponse("answer " * 20, 1, 1, "m")
        assert "dropped a torn last line (40 bytes)" in capsys.readouterr().err
        with open(path, "rb") as fh:
            assert fh.read() == whole

    def test_blank_and_crlf_lines_load(self, tmp_path):
        data = log_line("k0") + b"\n  \n" + log_line("k1").replace(b"\n", b"\r\n")
        cache = ResponseCache(write(tmp_path, data, "responses.jsonl"))
        assert cache.get("k0") == cache.get("k1") == LlmResponse("x", 1, 1, "m")

    @pytest.mark.parametrize("case", ["missing-text", "negative-tokens", "non-utf8"])
    def test_screen_exits_2_naming_the_line(self, tmp_path, capsys, case):
        dataset = synth.synth_review("BODY", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        assert cli.main(["screen", "--config", config_path,
                         "--out", str(tmp_path / "cold")]) == cli.EXIT_OK
        log = tmp_path / "ws" / "cache" / "responses.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        line, reason = body_damage(json.loads(lines[1])["key"])[case]
        lines[1] = line
        log.write_bytes(b"".join(lines))
        capsys.readouterr()
        rc = cli.main(["screen", "--config", config_path, "--out", str(tmp_path / "warm")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {log}:2: corrupt response cache line: {reason}\n")
