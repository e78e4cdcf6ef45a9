"""The JSON-lines row files: datasets, vectors, points and results.

One rule for all of them: UTF-8, one JSON object per line, blank lines
skipped, a repeated key rejected, and every error naming ``file:line``.
Rows are written with sorted keys.  Only ``json`` is imported: the
benchmark harness imports ``dfscreen.synth``, which reaches this module,
and whatever the harness loads raises every worker's measured peak RSS.
"""

from __future__ import annotations

import json


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


def read_jsonl(path: str, convert, error: type[Exception], what: str) -> list:
    """``convert(row)`` for each object line of ``path``, in file order.

    A line that is not UTF-8 JSON, not an object, or that ``convert``
    rejects with ValueError, KeyError or TypeError raises ``error`` with
    the message ``path:line: what: reason``.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
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
