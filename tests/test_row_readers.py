"""What each JSON-lines reader makes of awkward but possible files.

Every row file is read one JSON object per line: an object split over
two lines or two objects on one line is an error naming ``file:line``,
with the reason the line alone gives when decoded; a BOM at the start
of a line, CRLF endings, U+2028 inside a string, trailing spaces and a
blank last line read as the clean file does.  The same holds for the
response log, where a complete line whose key parses but whose body
does not is reported at load, and a torn tail is cut off.  A field of
another type than the writer writes fails its line.  Files span several
read blocks, so a line's number survives block boundaries.  A results
file, report, or imported points or vectors file that repeats its id is
rejected, naming the file and id.
"""

from __future__ import annotations

import json
import re

import pytest

from dfscreen import cli, synth
from dfscreen.corpus import DatasetError, load_dataset_jsonl
from dfscreen.embedding import EmbeddingClient, EmbeddingError, EmbeddingProviderConfig
from dfscreen.evaluation import EvaluationError, MetricsReport, ReviewMetrics, write_report
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

    @pytest.mark.parametrize("line", [b'{"id": "b", "title": }\n', b'{"x": tru}\n',
                                      b'{"v": [1, ]}\n', b'{"s": .5}\n'])
    def test_object_with_a_value_missing(self, tmp_path, fmt, line):
        read, error, what, (r1, _, r3), _ = READERS[fmt]
        path = write(tmp_path, encode(r1) + b"\n" + line + encode(r3) + b"\n")
        with pytest.raises(error) as info:
            read(path)
        assert str(info.value) == line_error(path, 2, what, line)
        assert "Expecting value" in str(info.value)

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
    with pytest.raises(TypeError) as extra:
        LlmResponse(text="x", prompt_tokens=1, completion_tokens=1, model_id="m", usage=5)
    extra_field = json.dumps({"key": key, "text": "x", "prompt_tokens": 1,
                              "completion_tokens": 1, "model_id": "m",
                              "usage": 5}).encode() + b"\n"
    value_missing = b'{"key": "%s", "text": }\n' % key.encode()
    with pytest.raises(ValueError) as no_value:
        json.loads(value_missing)
    cases = {
        "value-missing": (value_missing, repr(no_value.value)),
        "missing-text": (missing_text, repr(missing.value)),
        "negative-tokens": (log_line(key, prompt_tokens=-1), repr(negative.value)),
        "non-utf8": (bad_byte, repr(undecodable.value)),
        "extra-field": (extra_field, repr(extra.value)),
    }
    for case, field, value in WRONG_TYPES:
        body = {"text": "x", "prompt_tokens": 1, "completion_tokens": 1, "model_id": "m",
                field: value}
        try:
            LlmResponse(**body)
            reason = None  # accepted: the tests that use the case fail
        except ValueError as exc:
            reason = repr(exc)
        cases[case] = (log_line(key, **body), reason)
    return cases


# Response bodies with a field of the wrong type, which fail their line.
WRONG_TYPES = [("text-int", "text", 5), ("text-null", "text", None),
               ("model-id-int", "model_id", 7), ("tokens-float", "prompt_tokens", 1.5),
               ("tokens-bool", "prompt_tokens", True)]
BODY_CASES = ["value-missing", "missing-text", "negative-tokens", "non-utf8", "extra-field",
              *(c for c, _, _ in WRONG_TYPES)]


class TestResponseLogReader:
    @pytest.mark.parametrize("case", BODY_CASES)
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

    @pytest.mark.parametrize("case", BODY_CASES)
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


RESULT_DAMAGE = [("stage1_prompt_tokens", "12"), ("stage2_completion_tokens", -1),
                 ("stage1_completion_tokens", True), ("final", "maybe"), ("final", None),
                 ("routed", "yes"), ("unparsed_final", 0), ("stage1", [1, 2]),
                 ("stage2", "include"), ("record_id", 5),
                 ("stage1", {"confidence": True, "label": "include"})]
VECTOR_DAMAGE = ["abc", 5, [1, "x"], None, [[1.0, 0.0]], [True, False], {"x": 1.0}]


class TestWronglyTypedFields:
    """A field of another type than the writer writes fails its line."""

    @pytest.mark.parametrize("field,value", RESULT_DAMAGE)
    def test_results_row(self, tmp_path, field, value):
        rows = [result_row("a", True), result_row("b", False)]
        rows[1][field] = value
        path = write(tmp_path, b"".join(encode(row) + b"\n" for row in rows))
        with pytest.raises(EvaluationError) as info:
            read_results_jsonl(path)
        assert str(info.value).startswith(f"{path}:2: unreadable result row: ")

    @pytest.mark.parametrize("value", VECTOR_DAMAGE)
    def test_vectors_row(self, tmp_path, value):
        rows = [{"id": "a", "vector": [1.0, 0.0]}, {"id": "b", "vector": value},
                {"id": "c", "vector": [0.5, 0.5]}]
        path = write(tmp_path, b"".join(encode(row) + b"\n" for row in rows))
        with pytest.raises(EmbeddingError) as info:
            read_vectors(path)
        assert str(info.value) == f"{path}:2: bad vector row: vector is not a list of numbers"

    @pytest.mark.parametrize("field,value", [("stage1_prompt_tokens", "12"), ("final", "maybe"),
                                             ("stage1", [1, 2]),
                                             ("stage1", {"confidence": True,
                                                         "label": "include"})])
    def test_evaluate_exits_4_naming_the_line(self, tmp_path, capsys, field, value):
        dataset = synth.synth_review("TYPE", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        out = tmp_path / "run"
        assert cli.main(["screen", "--config", config_path, "--out", str(out)]) == cli.EXIT_OK
        path = out / "results_TYPE.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[field] = value
        lines[1] = encode(row) + b"\n"
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", config_path, "--results", str(out)])
        assert rc == cli.EXIT_EVALUATION
        assert f"{path}:2: unreadable result row: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", 5, [1, "x"]])
    def test_project_exits_2_naming_the_line(self, tmp_path, capsys, value):
        dataset = synth.synth_review("VEC", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["embedding"] = {"kind": "file_import", "path": "vectors.jsonl"}
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        rows = [{"id": r.id, "vector": [float(i), 1.0]} for i, r in enumerate(dataset.records)]
        rows[1]["vector"] = value
        path = write(tmp_path / "ws", b"".join(encode(row) + b"\n" for row in rows),
                     "vectors.jsonl")
        capsys.readouterr()
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {path}:2: bad vector row: vector is not a list of numbers\n")


# JSON number literals that decode to a value that is not finite.
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


def vectors_with(number: str) -> bytes:
    """Three vector rows, the second holding ``number`` as written."""
    return (b'{"id": "a", "vector": [1.0, 0.0]}\n'
            b'{"id": "b", "vector": [%s, 1.0]}\n'
            b'{"id": "c", "vector": [0.5, 0.5]}\n' % number.encode())


class TestNonFiniteVectors:
    """An imported vector holding NaN or an infinity fails its line."""

    @pytest.mark.parametrize("number", NON_FINITE)
    def test_reader_names_the_line(self, tmp_path, number):
        path = write(tmp_path, vectors_with(number))
        with pytest.raises(EmbeddingError) as info:
            read_vectors(path)
        assert str(info.value) == (
            f"{path}:2: bad vector row: vector holds a value that is not finite")

    @pytest.mark.parametrize("number", NON_FINITE)
    def test_project_exits_2_naming_the_line(self, tmp_path, capsys, number):
        dataset = synth.synth_review("VEC", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["embedding"] = {"kind": "file_import", "path": "vectors.jsonl"}
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        lines = [encode({"id": r.id, "vector": [float(i), 1.0]}) + b"\n"
                 for i, r in enumerate(dataset.records)]
        lines[1] = b'{"id": "%s", "vector": [%s, 1.0]}\n' % (
            dataset.records[1].id.encode(), number.encode())
        path = write(tmp_path / "ws", b"".join(lines), "vectors.jsonl")
        capsys.readouterr()
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {path}:2: bad vector row: vector holds a value that is not finite\n")


class TestRepeatedIds:
    """A row file that repeats its id is rejected, naming the file and the id:
    a results file or report with exit 4, an imported points or vectors
    file with exit 2."""

    @pytest.mark.parametrize("kind", ["points", "vectors"])
    def test_project_rejects_a_repeated_import(self, tmp_path, capsys, kind):
        dataset = synth.synth_review("DUP", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        if kind == "points":
            raw["projection"] = {"method": "import", "path": "rows.jsonl"}
            rows = [{"id": r.id, "x": float(i), "y": 1.0} for i, r in enumerate(dataset.records)]
            rows.append({**rows[1], "x": -3.0})
        else:
            raw["embedding"] = {"kind": "file_import", "path": "rows.jsonl"}
            rows = [{"id": r.id, "vector": [float(i), 1.0]}
                    for i, r in enumerate(dataset.records)]
            rows.append({**rows[1], "vector": [-3.0, 0.0]})
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        path = write(tmp_path / "ws", b"".join(encode(row) + b"\n" for row in rows))
        capsys.readouterr()
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {path}: record id {rows[1]['id']!r} repeated\n")

    @pytest.mark.parametrize("flip", [False, True], ids=["same-row", "other-label"])
    def test_evaluate_rejects_a_repeated_result(self, tmp_path, capsys, flip):
        dataset = synth.synth_review("DUP", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        out = tmp_path / "run"
        assert cli.main(["screen", "--config", config_path, "--out", str(out)]) == cli.EXIT_OK
        path = out / "results_DUP.jsonl"
        line = path.read_bytes().splitlines(keepends=True)[1]
        row = json.loads(line)
        if flip:  # a last row that would change the score if it were kept
            row["final"] = "include" if row["final"] == "exclude" else "exclude"
        with open(path, "ab") as fh:
            fh.write(encode(row) + b"\n")
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", config_path, "--results", str(out)])
        assert rc == cli.EXIT_EVALUATION
        assert capsys.readouterr().err == (
            f"evaluation error: {path}: record id {row['record_id']!r} repeated\n")
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("both", [False, True], ids=["one-report", "both-reports"])
    def test_compare_rejects_a_repeated_review(self, tmp_path, capsys, both):
        rows = [ReviewMetrics(rid, 5, 1, 1, 13, 5 / 6, 5 / 6, f1, 0.9, 0.2, 0.01, 0.02)
                for rid, f1 in (("A", 0.8), ("B", 0.6), ("C", 0.7))]
        paths = []
        for name, repeat in (("a.csv", both), ("b.csv", True)):
            report = rows + rows[1:2] if repeat else rows
            paths.append(str(tmp_path / name))
            write_report(MetricsReport(rows=report), paths[-1])
        capsys.readouterr()
        rc = cli.main(["compare", "--run-a", paths[0], "--run-b", paths[1]])
        assert rc == cli.EXIT_EVALUATION
        assert capsys.readouterr().err == (
            f"evaluation error: {paths[0 if both else 1]}: review 'B' repeated\n")
