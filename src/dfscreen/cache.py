"""Content-addressed cache for pipeline intermediates.

Each stage's output is stored under a key derived from the stage name,
its parameters, and the keys of its inputs, so any upstream change
ripples into fresh downstream keys while untouched stages replay from
disk.  Writes are atomic (temp file + rename) so a crashed run never
leaves a half-written artifact behind.

Every file it writes is the body, a newline and a seal line: the
canonical JSON of the writer's facts, if any, and ``"seal"``, the sha256
of the body and then of those facts' canonical JSON.  A file whose seal
is missing or fails is a miss, as a missing file is, and is reported.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
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


def _seal(body, facts: dict) -> str:
    """sha256 of the body's bytes followed by the canonical JSON of ``facts``."""
    h = hashlib.sha256(body)
    h.update(canonical_json(facts).encode("ascii"))
    return h.hexdigest()


class ArtifactCache:
    """Key-to-file store under one directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.root, key)

    def read_text(self, key: str, what: str | None = "artifact", with_facts: bool = False,
                  decode: bool = True):
        """The body at ``key`` as text, or None on a miss; ``with_facts``, (body, facts).

        Without ``decode`` the body is its checked bytes, a bytearray, for the
        caller to decode.  A missing file is a miss.  So is one whose seal is
        missing or fails, or whose body is not UTF-8 where it is decoded: one
        stderr line names it as ``what``, unless ``what`` is None.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                data = bytearray(os.fstat(fh.fileno()).st_size)
                del data[fh.readinto(data):]
        except FileNotFoundError:
            return None
        cut = data.rfind(b"\n", 0, len(data) - 1)
        whole = cut >= 0 and data.endswith(b"\n")
        try:
            facts = json.loads(data[cut + 1:])
            seal = facts.pop("seal", None)
            del data[max(cut, 0):]  # the body alone, cut in place
            if whole and seal == _seal(data, facts):
                body = data.decode("utf-8") if decode else data
                return (body, facts) if with_facts else body
        except (ValueError, TypeError, AttributeError):
            pass
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
        target = self.path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{key}.")
        os.close(fd)
        try:
            write(tmp)
            facts = facts or {}
            with open(tmp, "rb+") as fh:
                seal = {**facts, "seal": _seal(fh.read(), facts)}
                fh.write(f"\n{canonical_json(seal)}\n".encode("ascii"))
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
