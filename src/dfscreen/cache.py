"""Content-addressed cache for pipeline intermediates.

Each stage's output is stored under a key derived from the stage name,
its parameters, and the keys of its inputs, so any upstream change
ripples into fresh downstream keys while untouched stages replay from
disk.  Writes are atomic (temp file + rename) so a crashed run never
leaves a half-written artifact behind.
"""

from __future__ import annotations

import hashlib
import json
import os
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


class ArtifactCache:
    """Key-to-file store under one directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.root, key)

    def has(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def read_text(self, key: str) -> str:
        with open(self.path(key), encoding="utf-8") as fh:
            return fh.read()

    def write_atomic(self, key: str, write: Callable[[str], None]) -> str:
        """Run ``write(path)`` on a fresh temp file, then rename it to the key.

        A writer that fails part way leaves nothing at the key, and
        concurrent writers of the same key are safe.
        """
        target = self.path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{key}.")
        os.close(fd)
        try:
            write(tmp)
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
