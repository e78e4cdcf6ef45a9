from __future__ import annotations

import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dfscreen import embedding
from dfscreen.embedding import (
    EmbeddingClient,
    EmbeddingError,
    EmbeddingProviderConfig,
    hashed_tf_matrix,
    write_vectors_jsonl,
)
from dfscreen.gateway import ProviderError
from dfscreen.rng import fnv1a64

from http_stub import Reply, embedding_vector

# The tokenization rule, applied one text at a time.
TOKEN = re.compile(r"[a-z0-9]+")
# NUL; "İ", which lower-cases to "i" and a combining dot; the Kelvin sign,
# which lower-cases to "k"; "ÿ", whose code point is the separator byte.
TOKENIZER_EDGES = "\x00İ\u212aKkAZaz09?\xff\u03a3é -\n"
TEXT = st.one_of(st.text(), st.text(alphabet=TOKENIZER_EDGES))


def reference_row(text: str, dim: int) -> np.ndarray:
    """One text's vector, token by token, hashed without the memo."""
    row = np.zeros(dim, dtype=np.float64)
    for tok in TOKEN.findall(text.lower()):
        row[fnv1a64(tok) % dim] += 1.0
    norm = math.sqrt(float(row @ row))
    if norm > 0:
        row /= norm
    return row


class TestHashedTf:
    def test_deterministic(self):
        a = hashed_tf_matrix(["cardiac imaging outcomes"], 32)[0]
        b = hashed_tf_matrix(["cardiac imaging outcomes"], 32)[0]
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        v = hashed_tf_matrix(["one two three four"], 64)[0]
        assert math.isclose(float(v @ v), 1.0, rel_tol=1e-12)

    def test_empty_text_zero_vector(self):
        v = hashed_tf_matrix([""], 16)[0]
        assert not v.any()

    def test_case_insensitive_tokens(self):
        assert np.array_equal(
            hashed_tf_matrix(["Cardiac STUDY"], 32)[0], hashed_tf_matrix(["cardiac study"], 32)[0]
        )

    def test_token_counts_accumulate(self):
        once = hashed_tf_matrix(["word"], 32)[0]
        # Repeating the only token leaves the direction unchanged.
        thrice = hashed_tf_matrix(["word word word"], 32)[0]
        assert np.allclose(once, thrice)

    def test_different_texts_differ(self):
        a = hashed_tf_matrix(["cardiac cohort"], 64)[0]
        b = hashed_tf_matrix(["renal biopsy"], 64)[0]
        assert not np.array_equal(a, b)


    @given(
        st.text(alphabet="abcXYZ019 .,-é\n", max_size=60),
        st.sampled_from([2, 16, 64]),
    )
    def test_memoised_hashing_matches_direct_fnv(self, text, dim):
        expected = reference_row(text, dim)
        assert hashed_tf_matrix([text], dim)[0].tobytes() == expected.tobytes()

    def test_each_distinct_token_hashed_once(self, monkeypatch):
        calls = []

        def counting(token):
            calls.append(token)
            return fnv1a64(token)

        monkeypatch.setattr(embedding, "fnv1a64", counting)
        embedding._token_hash.cache_clear()
        try:
            hashed_tf_matrix(["renal renal biopsy"], 16)[0]
            hashed_tf_matrix(["biopsy cohort"], 16)[0]
        finally:
            embedding._token_hash.cache_clear()
        assert calls == ["renal", "biopsy", "cohort"]

    @given(
        st.one_of(
            st.lists(TEXT, max_size=3),
            st.lists(TEXT, min_size=embedding._CHUNK + 1, max_size=3 * embedding._CHUNK),
        ),
        st.sampled_from([2, 7, 64]),
    )
    @example([], 7)
    @example([""], 2)
    @example(["İ \u212aelvin", "a\x00b", "", "ÿ9z"] * 40, 64)
    def test_matrix_rows_match_per_text_reference(self, texts, dim):
        matrix = hashed_tf_matrix(texts, dim)
        assert matrix.shape == (len(texts), dim)
        assert matrix.dtype == np.float64
        for text, row in zip(texts, matrix):
            assert row.tobytes() == reference_row(text, dim).tobytes()


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(EmbeddingError):
            EmbeddingProviderConfig(kind="magic")

    def test_remote_needs_url(self):
        with pytest.raises(EmbeddingError):
            EmbeddingProviderConfig(kind="remote_http")

    def test_import_needs_path(self):
        with pytest.raises(EmbeddingError):
            EmbeddingProviderConfig(kind="file_import")

    def test_tiny_dim_rejected(self):
        with pytest.raises(EmbeddingError):
            EmbeddingProviderConfig(kind="hashed_tf", dim=1)


class TestClient:
    def test_hashed_tf_batch(self):
        client = EmbeddingClient(EmbeddingProviderConfig(kind="hashed_tf", dim=16))
        vecs = client.embed_batch(["alpha beta", "gamma"])
        assert len(vecs) == 2
        assert all(v.shape == (16,) for v in vecs)

    def test_file_import(self, tmp_path):
        path = str(tmp_path / "vectors.jsonl")
        write_vectors_jsonl(
            ["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, 4.0])], path
        )
        client = EmbeddingClient(
            EmbeddingProviderConfig(kind="file_import", path=path)
        )
        vecs = client.embed_batch(["ignored", "ignored"], ids=["b", "a"])
        assert np.array_equal(vecs[0], np.array([3.0, 4.0]))
        assert np.array_equal(vecs[1], np.array([1.0, 2.0]))

    @given(
        st.lists(
            st.one_of(
                st.floats(width=64),
                st.sampled_from([-0.0, 5e-324, -2.225e-308, 1.7976931348623157e308,
                                 -1e300]),
            ),
            max_size=20,
        )
    )
    def test_vector_rows_match_per_element_floats(self, values):
        vec = np.array(values, dtype=np.float64)
        expected = json.dumps({"id": "r", "vector": [float(x) for x in vec]}) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vectors.jsonl")
            write_vectors_jsonl(["r"], [vec], path)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == expected

    def test_file_import_requires_ids(self, tmp_path):
        path = str(tmp_path / "vectors.jsonl")
        write_vectors_jsonl(["a"], [np.array([1.0])], path)
        client = EmbeddingClient(EmbeddingProviderConfig(kind="file_import", path=path))
        with pytest.raises(EmbeddingError, match="ids"):
            client.embed_batch(["x"])

    def test_file_import_missing_id(self, tmp_path):
        path = str(tmp_path / "vectors.jsonl")
        write_vectors_jsonl(["a"], [np.array([1.0, 2.0])], path)
        client = EmbeddingClient(EmbeddingProviderConfig(kind="file_import", path=path))
        with pytest.raises(EmbeddingError, match="no imported vector"):
            client.embed_batch(["x"], ids=["zzz"])

    @staticmethod
    def remote(stub, model="hashed-tf-64"):
        return EmbeddingClient(EmbeddingProviderConfig(
            kind="remote_http", model=model, url=stub.url("/v1/embeddings")))

    def test_remote_http(self, stub):
        stub.script.append(Reply(body={"data": [{"embedding": [0.1, 0.2]},
                                                {"embedding": [0.3, 0.4]}]}))
        vecs = self.remote(stub, model="encoder-v1").embed_batch(["first", "second"])
        [seen] = stub.received
        assert seen.path == "/v1/embeddings"
        assert seen.body == {"model": "encoder-v1", "input": ["first", "second"]}
        assert np.allclose(vecs[1], [0.3, 0.4])

    def test_remote_vectors_are_the_stub_answer(self, stub):
        texts = ["first", "second", "third"]
        vecs = self.remote(stub).embed_batch(texts)
        assert [v.tolist() for v in vecs] == [embedding_vector(t) for t in texts]
        assert all(v.dtype == np.float64 for v in vecs)

    def test_remote_count_mismatch(self, stub):
        stub.script.append(Reply(body={"data": [{"embedding": [0.1]}]}))
        with pytest.raises(EmbeddingError, match="1 vectors for 2"):
            self.remote(stub).embed_batch(["a", "b"])

    def test_remote_body_shape_is_checked(self, stub):
        stub.script.append(Reply(body={"vectors": []}))
        with pytest.raises(EmbeddingError, match="malformed embedding response"):
            self.remote(stub).embed_batch(["a"])

    def test_remote_http_error(self, stub):
        stub.script.append(Reply(status=503, body=b"down"))
        with pytest.raises(ProviderError, match="HTTP 503"):
            self.remote(stub).embed_batch(["a"])

    def test_remote_body_that_is_no_json(self, stub):
        stub.script.append(Reply(body=b"not json"))
        with pytest.raises(ProviderError, match="malformed response"):
            self.remote(stub).embed_batch(["a"])
