"""Text embedding behind a provider-agnostic interface.

Three providers:

* ``remote_http`` posts batches to an embeddings endpoint and reads
  vectors back from the response.
* ``file_import`` loads precomputed vectors keyed by record id, for
  reusing embeddings produced elsewhere.
* ``hashed_tf`` builds hashed term-frequency vectors locally. It needs no
  network and is fully deterministic, which makes it the right backend
  for tests and the synthetic benchmark corpus.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rng import fnv1a64

_TOKEN = re.compile(r"[a-z0-9]+")


class EmbeddingError(RuntimeError):
    """Raised when a provider cannot produce a vector."""


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    """Which embedding backend to use and how to reach it."""

    kind: str  # "remote_http" | "file_import" | "hashed_tf"
    model: str = "hashed-tf-64"
    url: str | None = None
    path: str | None = None  # file_import source
    dim: int = 64  # hashed_tf only
    timeout: float = 60.0

    def __post_init__(self):
        if self.kind not in ("remote_http", "file_import", "hashed_tf"):
            raise EmbeddingError(f"unknown embedding provider kind {self.kind!r}")
        if self.kind == "remote_http" and not self.url:
            raise EmbeddingError("remote_http embedding provider needs a url")
        if self.kind == "file_import" and not self.path:
            raise EmbeddingError("file_import embedding provider needs a path")
        if self.dim < 2:
            raise EmbeddingError("embedding dim must be at least 2")

    def fingerprint(self) -> str:
        """What decides the vectors besides the texts (and an imported file's bytes)."""
        base = f"{self.kind}:{self.model}:{self.dim}"
        return f"{base}@{self.url}" if self.kind == "remote_http" else base


@lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    return fnv1a64(token)


def hashed_tf_vector(text: str, dim: int) -> np.ndarray:
    """Hashed term-frequency vector, L2-normalized. Zero vector if no tokens."""
    vec = np.zeros(dim, dtype=np.float64)
    for tok in _TOKEN.findall(text.lower()):
        vec[_token_hash(tok) % dim] += 1.0
    norm = math.sqrt(float(vec @ vec))
    if norm > 0:
        vec /= norm
    return vec


@dataclass
class EmbeddingClient:
    """Embeds batches of texts with the configured provider."""

    config: EmbeddingProviderConfig
    _import_table: dict[str, list[float]] | None = field(default=None, repr=False)

    def embed_batch(
        self, texts: list[str], ids: list[str] | None = None
    ) -> list[np.ndarray]:
        """Vectors for ``texts``, one per input.

        ``ids`` is required for the file_import provider, which looks
        vectors up by record id rather than by text.
        """
        if self.config.kind == "file_import":
            return self._import_vectors(texts, ids)
        if self.config.kind == "hashed_tf":
            return [hashed_tf_vector(t, self.config.dim) for t in texts]
        return self._remote(texts)

    def _remote(self, texts: list[str]) -> list[np.ndarray]:
        import requests

        payload = {"model": self.config.model, "input": texts}
        try:
            resp = requests.post(self.config.url, json=payload, timeout=self.config.timeout)
        except requests.RequestException as exc:
            raise EmbeddingError(f"embedding request failed: {exc}") from None
        if resp.status_code != 200:
            raise EmbeddingError(f"embedding endpoint returned HTTP {resp.status_code}")
        try:
            data = resp.json()["data"]
            vectors = [np.asarray(item["embedding"], dtype=np.float64) for item in data]
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbeddingError(f"malformed embedding response: {exc}") from None
        if len(vectors) != len(texts):
            raise EmbeddingError(
                f"embedding endpoint returned {len(vectors)} vectors for {len(texts)} texts"
            )
        dims = {len(v) for v in vectors}
        if len(dims) > 1:
            raise EmbeddingError(f"inconsistent vector dimensions in batch: {sorted(dims)}")
        return vectors

    def _import_vectors(
        self, texts: list[str], ids: list[str] | None
    ) -> list[np.ndarray]:
        if ids is None:
            raise EmbeddingError("file_import provider needs record ids")
        if len(ids) != len(texts):
            raise EmbeddingError("ids and texts length mismatch")
        if self._import_table is None:
            table: dict[str, list[float]] = {}
            with open(self.config.path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                        table[str(row["id"])] = row["vector"]
                    except (ValueError, KeyError, TypeError) as exc:
                        raise EmbeddingError(
                            f"{self.config.path}:{lineno}: bad vector row: {exc}"
                        ) from None
            self._import_table = table
        out = []
        for rid in ids:
            if rid not in self._import_table:
                raise EmbeddingError(f"no imported vector for record {rid!r}")
            out.append(np.asarray(self._import_table[rid], dtype=np.float64))
        dims = {len(v) for v in out}
        if len(dims) > 1:
            raise EmbeddingError(f"inconsistent imported dimensions: {sorted(dims)}")
        return out


def write_vectors_jsonl(ids: list[str], vectors: list[np.ndarray], path: str) -> None:
    """Persist vectors in the format the file_import provider reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for rid, vec in zip(ids, vectors):
            fh.write(json.dumps({"id": rid, "vector": vec.tolist()}) + "\n")
