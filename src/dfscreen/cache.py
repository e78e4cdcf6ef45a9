"""Content-addressed cache for pipeline intermediates.

Each stage's output is stored under a key derived from the stage name,
its parameters, and the keys of its inputs, so any upstream change
ripples into fresh downstream keys while untouched stages replay from
disk.  Writes are atomic (temp file + rename) so a crashed run never
leaves a half-written artifact behind.

Every file it writes is the body, a newline, a seal line and a newline.
The seal line is ``canonical_json`` of the writer's facts, if any, and
``"seal"``: the sha256 of the body and then of those facts' canonical
JSON.  Fact keys sort before ``"seal"``, so a read cuts the facts' bytes
out of the line and checks the digest without parsing JSON.  A file whose
seal is missing or fails is a miss, as a missing file is, and is reported;
a checked body that does not parse is an error naming the file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_key(stage: str, params: dict, input_keys: list[str]) -> str:
    payload = canonical_json(
        {"stage": stage, "params": params, "inputs": list(input_keys)}
    )
    return f"{stage}-{sha256_hex(payload)[:32]}"


_TAIL = len(b'"seal":"') + 64 + len(b'"}')  # the seal line's last member and brace


def _seal_line(h, facts_json: bytes) -> bytes:
    """The seal line of a body whose sha256 so far is ``h``: ``facts_json``
    with ``"seal"``, the digest of the body and then of it, as last member."""
    h.update(facts_json)
    sep = b"," if facts_json != b"{}" else b""
    return facts_json[:-1] + sep + b'"seal":"' + h.hexdigest().encode("ascii") + b'"}'


@dataclass
class Sealed:
    """A checked cache file: ``body``, its bytes, and the ``facts`` its seal holds.

    The facts are parsed from their checked bytes, ``facts_json``, on first
    access, and kept in their place.
    """

    body: bytearray
    facts_json: bytes | None

    @functools.cached_property
    def facts(self) -> dict:
        facts, self.facts_json = json.loads(self.facts_json), None
        return facts


class ArtifactCache:
    """Key-to-file store under one directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.root, key)

    def read_text(self, key: str, what: str | None = "artifact") -> Sealed | None:
        """The checked file at ``key``, or None on a miss.

        A missing file is a miss.  So is one whose seal is missing or fails:
        one stderr line names it as ``what``, unless ``what`` is None.  The
        check hashes bytes and parses nothing.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                data = bytearray(os.fstat(fh.fileno()).st_size)
                del data[fh.readinto(data):]
        except FileNotFoundError:
            return None
        cut = data.rfind(b"\n", 0, len(data) - 1)
        if cut >= 0 and data.endswith(b"\n"):
            line = data[cut + 1:-1]
            facts_json = line[:-_TAIL].removesuffix(b",") + b"}"
            del data[cut:]  # the body alone, cut in place
            if line == _seal_line(hashlib.sha256(data), facts_json):
                return Sealed(data, facts_json)
        if what is not None:
            print(f"{what} {path}: damaged or unsealed; building it again", file=sys.stderr)
        return None

    def write_atomic(self, key: str, write: Callable[[str], None],
                     facts: dict | None = None) -> str:
        """Run ``write(path)`` on a fresh temp file, seal it, then rename it to the key.

        The seal line, appended after the body, holds ``facts``.  A writer
        that fails part way leaves nothing at the key, and concurrent
        writers of the same key are safe.
        """
        facts_json = canonical_json(facts or {}).encode("ascii")
        target = self.path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{key}.")
        os.close(fd)
        try:
            write(tmp)
            with open(tmp, "rb+") as fh:
                fh.write(b"\n" + _seal_line(hashlib.sha256(fh.read()), facts_json) + b"\n")
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target

    def write_text(self, key: str, text: str) -> str:
        def write(path: str) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

        return self.write_atomic(key, write)
