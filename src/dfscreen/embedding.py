"""Text embedding behind a provider-agnostic interface.

Three providers:

* ``remote_http`` posts batches to an embeddings endpoint and reads
  vectors back from the response.
* ``file_import`` loads precomputed vectors keyed by record id, for
  reusing embeddings produced elsewhere.
* ``hashed_tf`` builds hashed term-frequency vectors locally. It needs no
  network and is fully deterministic, which makes it the right backend
  for tests and the synthetic benchmark corpus.

``hashed_tf`` tokens are the maximal runs of ASCII ``a``-``z`` and
``0``-``9`` in the lower-cased text; every other character separates
them.  Each token adds one to the count at its FNV-1a hash modulo
``dim``, and the counts are scaled to unit length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .gateway import post_json
from .jsonl import check_unique, read_jsonl, write_jsonl
from .rng import fnv1a64

if TYPE_CHECKING:
    import numpy as np

# Texts tokenized at a time: a whole review at once raises the peak RSS.
_CHUNK = 64
# Between the texts of a chunk: an ASCII encoding never holds the byte 0xFF.
_SEP = b"\xff"
# a-z, 0-9 and the separator stay; every other byte becomes a space.
_TOKEN_BYTES = bytes(
    b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" + _SEP else 0x20 for b in range(256)
)


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


class _Columns(dict):
    """Token bytes to column, hashed on first lookup; the separator to spare column ``dim``."""

    def __init__(self, dim: int):
        super().__init__({_SEP: dim})
        self.dim = dim

    def __missing__(self, token: bytes) -> int:
        self[token] = col = _token_hash(token.decode()) % self.dim
        return col


def hashed_tf_matrix(texts: list[str], dim: int) -> np.ndarray:
    """Hashed term-frequency vectors, L2-normalized, one row per text (zero if no tokens).

    Lower-casing comes before the ASCII encode, which turns the Kelvin sign
    into ``k``; any other non-ASCII character encodes as ``?``, a separator.
    """
    import numpy as np
    out = np.zeros((len(texts), dim), dtype=np.float64)
    columns = _Columns(dim)
    for start in range(0, len(texts), _CHUNK):
        chunk = texts[start:start + _CHUNK]
        tokens = (b" " + _SEP + b" ").join(
            t.lower().encode("ascii", "replace") for t in chunk
        ).translate(_TOKEN_BYTES).split()
        cols = np.fromiter(map(columns.__getitem__, tokens), np.intp, len(tokens))
        # A separator counts in the spare column of the row it opens, so a
        # token's row is the number of separators up to it.
        rows = np.cumsum(cols == dim)
        n = len(chunk)
        counts = np.bincount(rows * (dim + 1) + cols, minlength=n * (dim + 1))
        out[start:start + n] = counts.reshape(n, dim + 1)[:, :dim]
    # The counts are integers, so the sum of squares is exact.
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    norms[norms == 0] = 1.0
    out /= norms[:, np.newaxis]
    return out


@dataclass
class EmbeddingClient:
    """Embeds batches of texts with the configured provider."""

    config: EmbeddingProviderConfig

    def embed_batch(
        self, texts: list[str], ids: list[str] | None = None
    ) -> np.ndarray | list[np.ndarray]:
        """Vectors for ``texts``, one per input; ``hashed_tf`` gives one array.

        ``ids`` is required for the file_import provider, which looks
        vectors up by record id rather than by text.
        """
        if self.config.kind == "file_import":
            return self._import_vectors(texts, ids)
        if self.config.kind == "hashed_tf":
            return hashed_tf_matrix(texts, self.config.dim)
        return self._remote(texts)

    def _remote(self, texts: list[str]) -> list[np.ndarray]:
        payload = {"model": self.config.model, "input": texts}
        body = post_json(self.config.url, payload)
        try:
            vectors = [_vector(item["embedding"]) for item in body["data"]]
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

        def entry(row):
            return str(row["id"]), _vector(row["vector"])

        rows = read_jsonl(self.config.path, entry, EmbeddingError, "bad vector row")
        check_unique(self.config.path, (rid for rid, _ in rows), EmbeddingError, "record id")
        table = dict(rows)
        out = []
        for rid in ids:
            if rid not in table:
                raise EmbeddingError(f"no imported vector for record {rid!r}")
            out.append(table[rid])
        dims = {len(v) for v in out}
        if len(dims) > 1:
            raise EmbeddingError(f"inconsistent imported dimensions: {sorted(dims)}")
        return out


def _vector(value) -> np.ndarray:
    """``value`` as a float64 vector: one flat list of finite numbers, else ValueError."""
    import numpy as np
    vec = np.array(value)
    if vec.ndim != 1 or vec.dtype.kind not in "iuf":
        raise ValueError("vector is not a list of numbers")
    if not np.isfinite(vec).all():
        raise ValueError("vector holds a value that is not finite")
    return vec.astype(np.float64, copy=False)


def write_vectors_jsonl(ids: list[str], vectors: list[np.ndarray], path: str) -> None:
    """Persist vectors in the format the file_import provider reads."""
    write_jsonl(path, ({"id": rid, "vector": vec.tolist()} for rid, vec in zip(ids, vectors)))
