"""The response log's prefix digests, taken in one pass per command.

``cli._LogDigest`` hashes each prefix on from the last line-ending prefix
it hashed.  Whatever sizes it is asked for, in whatever order, and
whatever is appended between them, each digest is ``_file_sha256`` of
that prefix, and a missing log has none.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from dfscreen import cli

LINES = [b'{"key": "k%d", "text": "%s"}\n' % (i, b"x" * (i * 37 % 200)) for i in range(400)]


def ends(data: bytes) -> list[int]:
    """The sizes of ``data``'s line-ending prefixes, the empty one first."""
    return [0] + [i + 1 for i, byte in enumerate(data) if byte == 10]


@pytest.fixture
def log(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_bytes(b"".join(LINES[:300]))
    return str(path)


def check(digest: cli._LogDigest, path: str, sizes) -> None:
    for size in sizes:
        assert digest(size) == cli._file_sha256(path, size), size


def test_increasing_repeated_and_decreasing_sizes(log):
    with open(log, "rb") as fh:
        data = fh.read()
    lines = ends(data)
    sizes = [lines[5], lines[5], lines[40], lines[300], lines[300], lines[41], lines[0],
             lines[0], lines[299], lines[7], lines[150]]
    check(cli._LogDigest(log), log, sizes)
    assert cli._LogDigest(log)(len(data)) == hashlib.sha256(data).hexdigest()


def test_sizes_after_an_append(log):
    with open(log, "rb") as fh:
        before = ends(fh.read())
    digest = cli._LogDigest(log)
    check(digest, log, [before[100], before[-1]])
    with open(log, "ab") as fh:
        fh.write(b"".join(LINES[300:]))
    with open(log, "rb") as fh:
        after = ends(fh.read())
    check(digest, log, [before[-1], after[350], after[-1], before[200], after[-1]])


def test_prefix_that_ends_mid_line(log):
    with open(log, "rb") as fh:
        lines = ends(fh.read())
    digest = cli._LogDigest(log)
    mid = lines[20] + 5
    assert cli._file_sha256(log, mid) is None
    check(digest, log, [lines[10], mid, lines[20], mid, lines[30]])


def test_prefix_longer_than_the_log(log):
    with open(log, "rb") as fh:
        size = len(fh.read())
    digest = cli._LogDigest(log)
    assert digest(size + 1) is None
    check(digest, log, [size + 1, size, size + 100, size])


def test_missing_log(tmp_path, log):
    assert cli._LogDigest(str(tmp_path / "absent.jsonl"))(0) is None
    with open(log, "rb") as fh:
        data = fh.read()
    lines = ends(data)
    digest = cli._LogDigest(log)
    check(digest, log, [lines[50]])
    os.unlink(log)
    assert digest(lines[50]) is None
    assert digest(lines[60]) is None
    with open(log, "wb") as fh:
        fh.write(data)
    check(digest, log, [lines[60]])


def test_prefixes_in_order_read_the_log_once(log, monkeypatch):
    with open(log, "rb") as fh:
        data = fh.read()
    lines = ends(data)
    hashed = []
    real = cli._file_sha256

    def record(path, size, start=0, h=None):
        hashed.append(size - start)
        return real(path, size, start, h)

    monkeypatch.setattr(cli, "_file_sha256", record)
    digest = cli._LogDigest(log)
    for n in (10, 80, 80, 200, 300):
        assert digest(lines[n]) == hashlib.sha256(data[:lines[n]]).hexdigest()
    assert sum(hashed) == len(data)
