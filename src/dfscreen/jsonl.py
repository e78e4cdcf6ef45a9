"""The JSON-lines row files: datasets, vectors, points and results.

One rule for all of them: UTF-8, one JSON object per line, blank lines
skipped, a repeated key rejected, and every error naming ``file:line``.
A reader whose rows are keyed by id rejects a repeated id with
``check_unique``, naming the file and the id.
Rows are written with sorted keys; ``dumps``, for the response log and
the oracle's answers, keeps insertion order.  Only ``json`` and ``re`` are
imported: the benchmark harness imports ``dfscreen.synth``, which reaches
this module, and whatever the harness loads raises every worker's
measured peak RSS.

A file, or bytes already read from one (a sealed cache artifact), is
read in blocks of whole lines, each walked once by ``each_row``: an
object that fills its line is taken in place by ``json``'s C scanner,
and any other line is decoded alone, so every line reads, and fails, as
reading one line at a time would.  The response log
(``gateway``) is read with the same walk.  Rows become plain, not
frozen, dataclasses through their own constructors: a frozen
``__init__`` sets each field through the slower ``object.__setattr__``.
"""

from __future__ import annotations

import json
import re


def _reject_dup_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        dup = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"duplicate key {dup!r}")
    return obj


# Built once: json.loads with a hook builds a new decoder on every call,
# and json.dumps a new C encoder.  _ENCODE writes what
# json.dumps(row, sort_keys=True) does, and _DUMPS what json.dumps(row)
# does.  Neither checks for cycles, so both are safe to share between threads.
_DECODER = json.JSONDecoder(object_pairs_hook=_reject_dup_keys)
_ENCODE, _DUMPS = (
    json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ", ", sort_keys, False, True,
    )
    for sort_keys in (True, False)
)
_BLOCK = 1 << 16  # bytes read at a time; a block is cut back to whole lines
_SPACE = re.compile(r"[ \t\r]*")  # JSON whitespace that stays on its line


def blocks(fh):
    """The bytes of ``fh`` in blocks of whole lines, each ending in ``\\n``.

    What follows the last ``\\n`` comes last, as a block of its own.
    """
    rest = b""
    while chunk := fh.read(_BLOCK):
        chunk = rest + chunk
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield chunk[:cut]
        rest = chunk[cut:]
    if rest:
        yield rest


def buffer_blocks(data):
    """``data``, text or bytes, in the blocks ``blocks`` reads from a file of it."""
    nl = "\n" if isinstance(data, str) else b"\n"
    start, end = 0, len(data)
    while start < end:
        cut = data.rfind(nl, start, start + _BLOCK) + 1
        if not cut:  # no line ends in the block: take the whole line
            cut = data.find(nl, start) + 1 or end
        yield data[start:cut]
        start = cut


def each_row(block: bytes | str, lineno: int, decoder, bom: bool, take, fail) -> list:
    """``take(obj)`` for each object line of ``block``, whose first line is ``lineno + 1``.

    The block is decoded once, if it is bytes.  An object that starts its
    line and, scanned in place, ends on it (only spaces, tabs and CRs
    after) is taken as it is.  Any other line, and a line holding a non-UTF-8 byte,
    is decoded alone, after a BOM where ``bom``: skipped if blank, else it
    must be one object.  A line that is not, or whose ``take`` raises
    ValueError, KeyError or TypeError, raises ``fail(line number, exc)``.
    """
    try:
        text, rest = (block if isinstance(block, str) else block.decode("utf-8")), b""
    except UnicodeDecodeError as exc:
        cut = block.rfind(b"\n", 0, exc.start) + 1
        text, rest = block[:cut].decode("utf-8"), block[cut:]

    def alone(line: bytes):
        row = decoder.decode(line.decode("utf-8-sig" if bom else "utf-8"))
        if not isinstance(row, dict):
            raise ValueError("expected a JSON object")
        return row

    out = []
    scan, space = decoder.scan_once, _SPACE.match
    pos, end = 0, len(text)
    try:
        while pos < end:
            lineno += 1
            nl = text.find("\n", pos)
            if nl < 0:
                nl = end
            start, pos = pos, nl + 1
            row = None
            if text[start] == "{":
                try:
                    row, after = scan(text, start)
                    if after != nl and space(text, after).end() != nl:
                        row = None
                except (ValueError, StopIteration):
                    pass  # judged alone below, for the line's own message
            if row is None:
                line = text[start:pos].encode("utf-8")
                if not line.strip():
                    continue
                row = alone(line)
            out.append(take(row))
        if rest:
            lineno += 1
            nl = rest.find(b"\n") + 1
            alone(rest[:nl] if nl else rest)  # raises: the line holds the byte
    except (ValueError, KeyError, TypeError) as exc:
        raise fail(lineno, exc) from None
    return out


def read_jsonl(path: str, convert, error: type[Exception], what: str,
               data: str | bytes | bytearray | None = None) -> list:
    """``convert(row)`` for each object line of ``path``, or of ``data`` read from it.

    Lines come in file order.  A line that is not UTF-8 JSON, not an
    object, or that ``convert`` rejects with ValueError, KeyError or
    TypeError raises ``error`` with the message ``path:line: what: reason``.
    """
    def fail(lineno, exc):
        return error(f"{path}:{lineno}: {what}: {exc}")

    def read(chunks) -> list:
        out = []
        lineno = 0
        for block in chunks:
            out += each_row(block, lineno, _DECODER, True, convert, fail)
            lineno += block.count("\n" if isinstance(block, str) else b"\n")
        return out

    if data is not None:
        return read(buffer_blocks(data))
    with open(path, "rb") as fh:
        return read(blocks(fh))


def check_unique(path: str, ids, error: type[Exception], what: str) -> None:
    """Raise ``error`` naming ``path`` and the first of ``ids`` it repeats."""
    seen = set()
    for i in ids:
        if i in seen:
            raise error(f"{path}: {what} {i!r} repeated")
        seen.add(i)


def dumps(obj) -> str:
    """``json.dumps(obj)``: keys in insertion order, non-ASCII escaped."""
    return "".join(_DUMPS(obj, 0))


def write_jsonl(path: str, rows) -> None:
    """One sorted-key JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("".join(_ENCODE(row, 0)) + "\n")
