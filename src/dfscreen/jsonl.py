"""The JSON-lines row files: datasets, vectors, points and results.

One rule for all of them: UTF-8, one JSON object per line, blank lines
skipped, a repeated key rejected, and every error naming ``file:line``.
Rows are written with sorted keys.  Only ``json`` and ``re`` are
imported: the benchmark harness imports ``dfscreen.synth``, which reaches
this module, and whatever the harness loads raises every worker's
measured peak RSS.

A file is read in blocks of whole lines.  ``scan_lines`` walks a block
with ``json``'s C scanner in one pass, taking one object per line; a
block it cannot take whole goes line by line through the decoder, which
judges it exactly as reading one line at a time always has, errors and
their messages included.  The response log (``gateway``) is read the
same way.
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


# Built once: json.loads with a hook builds a new decoder on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_reject_dup_keys)
_ENCODER = json.JSONEncoder(sort_keys=True)
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


def lines(block: bytes):
    """The lines of ``block`` as iterating a file yields them, each with its ``\\n``."""
    pieces = block.split(b"\n")
    last = pieces.pop()
    for piece in pieces:
        yield piece + b"\n"
    if last:
        yield last


def scan_lines(text: str, scan, bom: bool) -> list[dict] | None:
    """The object on each line of ``text`` that is not blank, in order.

    ``scan`` is a decoder's ``scan_once``.  Each object starts its line,
    after a BOM when ``bom`` and after spaces, tabs and CRs, and the same
    whitespace alone may follow it up to the line's ``\\n``: an object
    split over lines, two on one line, a value that is not an object, a
    BOM on a blank line or anything else gives None, and the caller
    reads ``text`` line by line instead.
    """
    rows = []
    space = _SPACE.match
    pos, end = 0, len(text)
    try:
        while pos < end:
            nl = text.find("\n", pos)
            if nl < 0:
                nl = end
            if text[pos] != "{":
                lead = pos + (bom and text[pos] == "\ufeff")
                first = space(text, lead).end()
                if first == nl and lead == pos:
                    pos = nl + 1  # a blank line
                    continue
                if first == nl or text[first] != "{":
                    return None
                pos = first
            row, pos = scan(text, pos)
            if pos != nl and space(text, pos).end() != nl:
                return None
            rows.append(row)
            pos = nl + 1
    except (ValueError, StopIteration):
        return None
    return rows


def from_row(cls, row: dict):
    """``cls(**row)`` for a dataclass ``cls``.

    A row holding exactly the class's fields skips ``__init__`` and the
    per-field ``object.__setattr__`` a frozen class pays for: the row's
    items become the object's fields, then ``__post_init__``, where the
    class has one, checks them.  Any other row goes through
    ``cls(**row)``, which fills in defaults or raises the usual TypeError.
    """
    if row.keys() != cls.__dataclass_fields__.keys():
        return cls(**row)
    obj = object.__new__(cls)
    obj.__dict__.update(row)
    if hasattr(cls, "__post_init__"):
        obj.__post_init__()
    return obj


def read_jsonl(path: str, convert, error: type[Exception], what: str) -> list:
    """``convert(row)`` for each object line of ``path``, in file order.

    A line that is not UTF-8 JSON, not an object, or that ``convert``
    rejects with ValueError, KeyError or TypeError raises ``error`` with
    the message ``path:line: what: reason``.
    """
    out = []
    lineno = 0
    with open(path, "rb") as fh:
        for block in blocks(fh):
            try:
                rows = scan_lines(block.decode("utf-8"), _DECODER.scan_once, bom=True)
                if rows is not None:
                    out += [convert(row) for row in rows]
                    lineno += block.count(b"\n")
                    continue
            except (ValueError, KeyError, TypeError):
                pass  # the line that fails is found below
            for lineno, line in enumerate(lines(block), start=lineno + 1):
                if not line.strip():
                    continue
                try:
                    # utf-8-sig drops a leading BOM, as json.loads does for bytes.
                    row = _DECODER.decode(line.decode("utf-8-sig"))
                    if not isinstance(row, dict):
                        raise ValueError("expected a JSON object")
                    out.append(convert(row))
                except (ValueError, KeyError, TypeError) as exc:
                    raise error(f"{path}:{lineno}: {what}: {exc}") from None
    return out


def write_jsonl(path: str, rows) -> None:
    """One sorted-key JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_ENCODER.encode(row) + "\n")
