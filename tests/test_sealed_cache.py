"""Every file the artifact cache writes is sealed, and read under one rule.

A cached file that is damaged (cut anywhere, emptied, or one byte
changed) or unsealed, as an older cache's files are, is a miss: the
command that reads it prints one stderr line naming it, builds it again,
and writes the same bytes back, and its outputs are those of a run over
the clean cache.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dfscreen import cli, synth
from dfscreen.cache import ArtifactCache, canonical_json

from test_cli import single_review_workspace, slurp

DATASET = synth.synth_review("SEAL", 40, 10, k=3, seed=6)
# Each cached kind, and a command that reads it from a warm cache.
READERS = {
    "curate": ["screen", "--threshold", "0.95"],  # a memo miss: the cascade runs
    "project": ["project"],
    "cluster": ["screen", "--dry-run"],
    "pool": ["sweep", "--thresholds", "0.5,0.9"],
    "screen": ["screen"],
}


def damage(data: bytes, how: str, rng: random.Random) -> bytes:
    """``data`` cut at a seeded byte or line end, emptied, or with one byte flipped."""
    if how == "byte-cut":
        return data[:rng.randrange(1, len(data))]
    if how == "line-cut":
        return data[:rng.choice([i + 1 for i in range(len(data) - 1) if data[i] == 10])]
    if how == "empty":
        return b""
    flipped = bytearray(data)
    flipped[rng.randrange(len(data))] ^= 0x01
    return bytes(flipped)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A workspace whose cache a cold screen has filled, a project included."""
    root = tmp_path_factory.mktemp("warm")
    config_path = single_review_workspace(str(root / "ws"), DATASET)
    assert cli.main(["screen", "--config", config_path, "--out", str(root / "cold")]) == 0
    assert cli.main(["project", "--config", config_path]) == 0
    return root / "ws"


def run(ws, argv, out, capsys):
    """(exit code, stdout, stderr, {output name: bytes}) of ``argv`` over ``ws``.

    The workspace's path in stdout reads ``<ws>``.
    """
    capsys.readouterr()
    flags = ["--config", str(ws / "config.json")]
    if argv[0] != "project":
        flags += ["--out", str(out)]
    rc = cli.main(argv + flags)
    stdout, stderr = capsys.readouterr()
    outputs = {name: slurp(out / name) for name in os.listdir(out)} if out.exists() else {}
    return rc, stdout.replace(str(ws), "<ws>").replace(str(out), "<out>"), stderr, outputs


def cached(ws, kind):
    (name,) = [n for n in os.listdir(ws / "cache") if n.startswith(f"{kind}-")]
    return ws / "cache" / name


@pytest.mark.parametrize("how", ["byte-cut", "line-cut", "empty", "flip"])
@pytest.mark.parametrize("kind", list(READERS))
def test_damaged_file_is_reported_rebuilt_and_rewritten(warm, tmp_path, capsys, kind, how):
    clean, hurt = tmp_path / "clean", tmp_path / "hurt"
    shutil.copytree(warm, clean)
    shutil.copytree(warm, hurt)
    expected = run(clean, READERS[kind], tmp_path / "clean_out", capsys)
    assert expected[0] == cli.EXIT_OK and expected[2] == ""
    path = cached(hurt, kind)
    sealed = slurp(path)
    with open(path, "wb") as fh:
        fh.write(damage(sealed, how, random.Random(f"{kind}-{how}")))
    rc, stdout, stderr, outputs = run(hurt, READERS[kind], tmp_path / "hurt_out", capsys)
    assert rc == cli.EXIT_OK
    what = "screen memo" if kind == "screen" else "artifact"
    assert stderr == f"{what} {path}: damaged or unsealed; building it again\n"
    assert slurp(path) == sealed
    assert (stdout, outputs) == (expected[1], expected[3])


@pytest.mark.parametrize("kind", ["curate", "project", "cluster", "pool"])
def test_sealed_body_that_is_not_utf8_is_exit_2(warm, tmp_path, capsys, kind):
    ws = tmp_path / "ws"
    shutil.copytree(warm, ws)
    path = cached(ws, kind)
    cache = ArtifactCache(str(path.parent))
    hit = cache.read_text(path.name)

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(b"\xff" + hit.body)

    cache.write_atomic(path.name, write, hit.facts)  # as only a forger could
    rc, _, stderr, _ = run(ws, READERS[kind], tmp_path / "out", capsys)
    assert rc == cli.EXIT_CONFIG
    assert stderr.startswith(f"config error: unreadable artifact {path}: ")


def unseal(cache_dir):
    """Strip every cache file's seal line, as a cache written before seals holds."""
    names = sorted(n for n in os.listdir(cache_dir) if n != "responses.jsonl")
    for name in names:
        data = slurp(os.path.join(cache_dir, name))
        with open(os.path.join(cache_dir, name), "wb") as fh:
            fh.write(data[:data.rindex(b"\n", 0, len(data) - 1)])
    return names


def test_unsealed_cache_is_rebuilt_once(warm, tmp_path, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(warm, ws)
    expected = run(ws, ["screen"], tmp_path / "warm", capsys)
    names = unseal(ws / "cache")
    assert set(name.split("-")[0] for name in names) == set(READERS)
    rc, stdout, stderr, outputs = run(ws, ["screen"], tmp_path / "first", capsys)
    assert rc == cli.EXIT_OK and (stdout, outputs) == (expected[1], expected[3])
    # The memo misses; the cascade reads the other files, the points to
    # build the clustering again.
    assert sorted(stderr.splitlines()) == sorted(
        f"{'screen memo' if name.startswith('screen-') else 'artifact'} {ws / 'cache' / name}: "
        "damaged or unsealed; building it again" for name in names)
    rc, stdout, stderr, outputs = run(ws, ["screen"], tmp_path / "second", capsys)
    assert rc == cli.EXIT_OK and stderr == ""
    assert (stdout, outputs) == (expected[1], expected[3])


def test_facts_ride_in_the_seal(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    cache.write_text("plain", "{}")
    cache.write_atomic("memo", lambda path: open(path, "w").close(), {"records": 3})
    plain, memo = cache.read_text("plain"), cache.read_text("memo")
    assert (plain.body, plain.facts) == (b"{}", {})
    assert (memo.body, memo.facts) == (b"", {"records": 3})
    assert cache.read_text("missing") is None


# Facts as writers give them: JSON values under keys that sort before "seal".
FACTS = st.dictionaries(
    st.text(max_size=6).filter(lambda k: k < "seal"),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=8)
                 | st.floats(allow_nan=False, allow_infinity=False),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                 max_leaves=8),
    max_size=4)
SEAL = b'"seal":"' + b"0" * 64 + b'"}'


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.binary(max_size=300), facts=FACTS, where=st.integers(0, 1 << 16),
       flip=st.integers(1, 255))
@example(body=b"", facts={}, where=0, flip=1)
@example(body=b"[1]\n", facts={"labels": {"seal": "include", "r2": None}}, where=9, flip=2)
@example(body=b'{"a":1,' + SEAL + b"\n{" + SEAL, facts={"records": 1}, where=3, flip=4)
def test_seal_line_is_the_facts_and_seal_in_canonical_json(tmp_path, capsys, body, facts,
                                                            where, flip):
    cache = ArtifactCache(str(tmp_path))

    def write(path):
        with open(path, "wb") as fh:
            fh.write(body)

    path = cache.write_atomic("k", write, facts)
    sealed = slurp(path)
    digest = hashlib.sha256(body + canonical_json(facts).encode("ascii")).hexdigest()
    assert sealed == body + f"\n{canonical_json({**facts, 'seal': digest})}\n".encode("ascii")
    hit = cache.read_text("k")
    assert (hit.body, hit.facts) == (body, facts)
    capsys.readouterr()
    at = where % len(sealed)
    flipped = bytearray(sealed)
    flipped[at] ^= flip
    for damaged in (bytes(flipped), sealed[:at]):
        with open(path, "wb") as fh:
            fh.write(damaged)
        assert cache.read_text("k") is None
        assert capsys.readouterr().err == (
            f"artifact {path}: damaged or unsealed; building it again\n")
