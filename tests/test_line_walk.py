"""Both JSON-lines readers against a reader that takes one line at a time.

The files are built from pieces that each reader must judge as its line
alone would: objects, two objects on one line, an object split over two
lines, a BOM, CR, form feed, U+00A0 and U+2028, a non-UTF-8 byte, JSON
that is not an object and a repeated key.  Pads make lines cross the
64 KiB read blocks.  A row file must give exactly the reference's rows or
its message; the response log the reference's responses or its message,
with its torn tail cut off.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfscreen.gateway import LlmResponse, ResponseCache, ResponseCacheError
from dfscreen.jsonl import read_jsonl

BOM = b"\xef\xbb\xbf"
NBSP = "\u00a0".encode("utf-8")
LS = "\u2028".encode("utf-8")


class RowError(Exception):
    pass


def reject_dup(pairs):
    keys = [k for k, _ in pairs]
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise ValueError(f"duplicate key {k!r}")
    return dict(pairs)


def reference_rows(path: str, data: bytes, convert):
    """The rows, or the message, of reading ``data`` one line at a time."""
    decoder = json.JSONDecoder(object_pairs_hook=reject_dup)
    rows = []
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        if not line.strip():
            continue
        try:
            row = decoder.decode(line.decode("utf-8-sig"))
            if not isinstance(row, dict):
                raise ValueError("expected a JSON object")
            rows.append(convert(row))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{path}:{lineno}: bad row: {exc}"
    return rows


def reference_log(path: str, data: bytes):
    """The responses, or the message, of loading ``data`` one line at a time."""
    decoder = json.JSONDecoder()
    responses = {}
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        if not line.endswith(b"\n"):
            break  # a torn tail
        if not line.strip():
            continue
        try:
            row = decoder.decode(line.decode("utf-8"))
            key = row.pop("key")
            responses[key] = LlmResponse(**row)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{path}:{lineno}: corrupt response cache line: {exc!r}"
    return responses


def row_pieces(n: int, pad: int) -> tuple[list[bytes], list[bytes]]:
    """Lines of a row file that read, and lines that fail; ``n`` numbers the object."""
    obj = json.dumps({"id": n, "note": "x" * pad}).encode()
    half = obj.index(b", ") + 1
    good = [obj + b"\n", obj + b"\r\n", obj + b" \t\r\n", b"  " + obj + b"\n",
            BOM + obj + b"\n", b"\n", b" \t\n", b"\x0c\n",
            json.dumps({"id": n, "note": "a\u2028b"}, ensure_ascii=False).encode() + b"\n"]
    bad = [BOM + b"\n", obj + b"\x0c\n", NBSP + obj + b"\n", obj + NBSP + b"\n", LS + b"\n",
           obj + b"," + obj + b"\n", obj + obj + b"\n", obj[:half] + b"\n" + obj[half:] + b"\n",
           obj.replace(b"}", b', "e": "\xe9"}') + b"\n", b"\xff\n", b"[1]\n", b"null\n",
           b'{"id": %d, "id": 0}\n' % n, b'{"note": "no id"}\n',
           b'{"id": %d, "note": }\n' % n, b'{"x": tru}\n', b'{"v": [1, ]}\n', b'{"s": .5}\n']
    return good, bad


def log_pieces(n: int, pad: int) -> tuple[list[bytes], list[bytes]]:
    """Lines of a response log that load, and lines that fail; ``n`` numbers the key."""
    body = {"key": f"k{n}", "text": "a" * pad, "prompt_tokens": n, "completion_tokens": 1,
            "model_id": "m"}
    line = json.dumps(body).encode()
    half = line.index(b", ") + 1
    good = [line + b"\n", line + b"\r\n", b" " + line + b"\n", b"\n", b"\x0c\n",
            json.dumps({**body, "text": "a\u2028b"}, ensure_ascii=False).encode() + b"\n",
            json.dumps({**body, "key": "k0"}).encode() + b"\n",
            b'{"key": "k%d", "key": "k0", "text": "t", "prompt_tokens": 1, '
            b'"completion_tokens": 1, "model_id": "m"}\n' % n]
    bad = [BOM + line + b"\n", NBSP + line + b"\n", line + b"," + line + b"\n",
           line[:half] + b"\n" + line[half:] + b"\n",
           line.replace(b"}", b', "e": "\xe9"}') + b"\n", b"\xff\n",
           json.dumps({**body, "prompt_tokens": -1}).encode() + b"\n",
           json.dumps({**body, "text": 5}).encode() + b"\n",
           b'{"text": "no key"}\n', b'{"key": "k%d", "text": "t"}\n' % n,
           b'{"key": "k%d", "text": }\n' % n]
    return good, bad


@st.composite
def files(draw, pieces, tail: bool) -> bytes:
    """Up to 12 lines, most of them good, padded across read blocks.

    ``tail`` ends the file with a last line cut short, where drawn.
    """
    parts = []
    for n in range(draw(st.integers(1, 12))):
        good, bad = pieces(n, draw(st.sampled_from([0, 10, 3000, 40000, 70000])))
        parts.append(draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good)))
    if draw(st.booleans()):
        good, _ = pieces(len(parts), draw(st.sampled_from([0, 10, 3000])))
        last = good[0][:-1]
        parts.append(last[:draw(st.integers(1, len(last)))] if tail else last)
    return b"".join(parts)


def row_id(row):
    return row["id"], row


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                           HealthCheck.function_scoped_fixture])


@SETTINGS
@given(data=files(row_pieces, tail=False))
def test_row_file_reads_as_one_line_at_a_time(tmp_path, data):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data)
    expected = reference_rows(str(path), data, row_id)
    if isinstance(expected, str):
        with pytest.raises(RowError) as info:
            read_jsonl(str(path), row_id, RowError, "bad row")
        assert str(info.value) == expected
    else:
        assert read_jsonl(str(path), row_id, RowError, "bad row") == expected


@SETTINGS
@given(data=files(log_pieces, tail=True))
def test_response_log_loads_as_one_line_at_a_time(tmp_path, data):
    path = tmp_path / "responses.jsonl"
    path.write_bytes(data)
    expected = reference_log(str(path), data)
    cache = ResponseCache(str(path))
    if isinstance(expected, str):
        with pytest.raises(ResponseCacheError) as info:
            cache.get("k0")
        assert str(info.value) == expected
        return
    for n in range(14):
        assert cache.get(f"k{n}") == expected.get(f"k{n}")
    whole = data[:data.rfind(b"\n") + 1]
    assert path.read_bytes() == whole
