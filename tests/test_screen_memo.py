"""The ``screen-*`` memo and the ``screen_key`` it is stored at.

A warm ``screen`` whose key matches a memo writes the memo's results
bytes and rebuilds the all-hits ledger without loading the response log.
The key must therefore cover every input that can change a result
(``TestScreenKey``), and a memo that is damaged, or whose answers the log
no longer holds, must be screened again (``TestScreenMemo``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import random
import shutil

import pytest

from dfscreen import cli, gateway, prompting, synth, triage
from dfscreen.cache import content_key
from dfscreen.corpus import EXCLUDE, INCLUDE, ReviewDataset, write_dataset_jsonl
from dfscreen.gateway import HttpChatProvider, OracleProvider, ProviderError, ResponseCache
from dfscreen.projection import Point2D, write_points_jsonl

from test_cli import drop_memos, single_review_workspace, slurp

DATASET = synth.synth_review("MEMO", 40, 10, k=3, seed=6)
RESULTS = "results_MEMO.jsonl"


def screen(config_path, out, *flags):
    return cli.main(["screen", "--config", config_path, "--out", str(out), *flags])


def manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def edit_config(config_path, change):
    with open(config_path) as fh:
        raw = json.load(fh)
    change(raw)
    with open(config_path, "w") as fh:
        json.dump(raw, fh)


def memo_path(config_path):
    cache_dir = cli.PipelineConfig.load(config_path).cache_dir
    (name,) = [n for n in os.listdir(cache_dir) if n.startswith("screen-")]
    return os.path.join(cache_dir, name)


def setting(key, value):
    return lambda root, config_path: edit_config(config_path, lambda raw: raw.update({key: value}))


def oracle(key, **profile):
    defaults = cli.ORACLE_PROFILES

    def change(raw):
        raw["provider"] = {"kind": "oracle", **defaults, key: {**defaults[key], **profile}}

    return lambda root, config_path: edit_config(config_path, change)


def review_k(root, config_path):
    edit_config(config_path, lambda raw: raw["reviews"]["MEMO"].update(k=4))


def append_to_criteria(root, config_path):
    with open(os.path.join(root, "criteria.txt"), "a", encoding="utf-8") as fh:
        fh.write("Exclude studies published only as conference abstracts.\n")


def rewrite_dataset(root, config_path):
    records = list(DATASET.records)
    records[3] = dataclasses.replace(records[3], title="A rewritten title")
    write_dataset_jsonl(ReviewDataset("MEMO", records), os.path.join(root, "data.jsonl"))


def import_projection(root, config_path):
    # The PCA points mirrored: a projection the key has never seen.
    pipe = cli._pipeline_for(cli.PipelineConfig.load(config_path), "MEMO")
    points = {rid: Point2D(-p.x, p.y * 2) for rid, p in pipe.points()[0].items()}
    write_points_jsonl(points, os.path.join(root, "points.jsonl"))
    edit_config(config_path, lambda raw: raw.update(
        projection={"method": "import", "path": "points.jsonl"}))


def vectors_file(scale):
    """Embed from an imported vectors file whose values depend on ``scale``."""
    def change(root, config_path):
        with open(os.path.join(root, "vectors.jsonl"), "w", encoding="utf-8") as fh:
            for i, r in enumerate(DATASET.records):
                vector = [float(i % 7) * scale, float(i % 3), float(i) ** scale]
                fh.write(json.dumps({"id": r.id, "vector": vector}) + "\n")
        edit_config(config_path, lambda raw: raw.update(
            embedding={"kind": "file_import", "path": "vectors.jsonl"}))

    return change


# One input changed at a time; each must change the key.
KEYED = {
    "criteria": append_to_criteria,
    "dataset": rewrite_dataset,
    "profile": oracle("profile", p_hi=0.5),
    "stage2_profile": oracle("stage2_profile", acc_lo=0.6),
    "stage1-model": setting("stage1", {"model": "mini-2"}),
    "stage2-model": setting("stage2", {"model": "large-2"}),
    "seed": setting("seed", 1),
    "temperature": setting("temperature", 0.5),
    "threshold": setting("threshold", 0.6),
    "strategy": setting("strategy", "fs"),
    "k": review_k,
    "embedding": setting("embedding", {"kind": "hashed_tf", "dim": 16}),
    "projection": import_projection,
}
# Inputs that decide no result byte, and so keep the key.
UNKEYED = {
    "parallelism": setting("parallelism", 4),
    "cache_dir": setting("cache_dir", "other_cache"),
    "pricing": setting("stage1", {"pricing": {"input_usd_per_mtok": 9.0}}),
}


class TestScreenKey:
    def changed_run(self, tmp_path, change, prepare=None):
        """(key before, key after, warm results, cold results of the changed config)."""
        root = str(tmp_path / "ws")
        config_path = single_review_workspace(root, DATASET)
        if prepare is not None:
            prepare(root, config_path)
        assert screen(config_path, tmp_path / "before") == cli.EXIT_OK
        change(root, config_path)
        assert screen(config_path, tmp_path / "warm") == cli.EXIT_OK
        fresh = str(tmp_path / "fresh")
        shutil.copytree(root, fresh, ignore=shutil.ignore_patterns("cache", "other_cache"))
        assert screen(os.path.join(fresh, "config.json"), tmp_path / "cold") == cli.EXIT_OK
        keys = [manifest(tmp_path / out)["reviews"]["MEMO"]["screen_key"]
                for out in ("before", "warm", "cold")]
        assert keys[1] == keys[2]
        return (keys[0], keys[1], slurp(tmp_path / "warm" / RESULTS),
                slurp(tmp_path / "cold" / RESULTS))

    @pytest.mark.parametrize("name", KEYED)
    def test_changed_input_changes_the_key(self, tmp_path, name):
        before, after, warm, cold = self.changed_run(tmp_path, KEYED[name])
        assert warm == cold
        assert after != before

    def test_rewritten_vectors_file_changes_the_key(self, tmp_path):
        before, after, warm, cold = self.changed_run(tmp_path, vectors_file(2.0),
                                                     prepare=vectors_file(1.0))
        assert warm == cold
        assert after != before

    @pytest.mark.parametrize("name", UNKEYED)
    def test_input_that_decides_no_result_keeps_the_key(self, tmp_path, name):
        before, after, warm, cold = self.changed_run(tmp_path, UNKEYED[name])
        assert warm == cold
        assert after == before

    def test_relabelled_dataset_gets_new_answers(self, tmp_path):
        # No zs prompt holds a label, so the oracle's identity must name them.
        def relabel(root, config_path):
            flip = {INCLUDE: EXCLUDE, EXCLUDE: INCLUDE}
            records = [dataclasses.replace(r, gold_label=flip[r.gold_label])
                       for r in DATASET.records]
            write_dataset_jsonl(ReviewDataset("MEMO", records), os.path.join(root, "data.jsonl"))

        before, after, warm, cold = self.changed_run(tmp_path, relabel,
                                                     prepare=setting("strategy", "zs"))
        assert warm == cold != slurp(tmp_path / "before" / RESULTS)
        assert after != before

    def test_http_url_is_in_the_key(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(HttpChatProvider, "send", refuse)
        root = str(tmp_path / "ws")
        config_path = single_review_workspace(root, DATASET)
        with open(config_path) as fh:
            raw = json.load(fh)
        keys = set()
        for stage, url in (("stage1", "http://127.0.0.1:9/a"), ("stage2", "http://127.0.0.1:9/a"),
                           ("stage2", "http://127.0.0.1:9/b")):
            raw.update(provider={"kind": "http"},
                       stage1={"model": "m1", "url": "http://127.0.0.1:9/v1"},
                       stage2={"model": "m2", "url": "http://127.0.0.1:9/v1"})
            raw[stage]["url"] = url
            cfg = cli.PipelineConfig(raw, base_dir=root)
            keys.add(cli._pipeline_for(cfg, "MEMO").screen_key())
        assert len(keys) == 3


def key_of(root, raw):
    """The screen key of review MEMO under config ``raw``."""
    return cli._pipeline_for(cli.PipelineConfig(raw, base_dir=root), "MEMO").screen_key()


def http_config(root):
    raw = json.loads(slurp(single_review_workspace(root, DATASET)))
    url = "http://127.0.0.1:9/v1"
    return raw, {**raw, "provider": {"kind": "http"}, "stage1": {"model": "mini", "url": url},
                 "stage2": {"model": "large", "url": url}}


def test_embedding_kind_model_and_url_are_in_the_key(tmp_path, monkeypatch):
    # The key comes from the config and file hashes: nothing is embedded.
    def refuse(*args, **kwargs):
        raise AssertionError("a text was embedded")

    monkeypatch.setattr(cli.EmbeddingClient, "embed_batch", refuse)
    root = str(tmp_path / "ws")
    raw, _ = http_config(root)
    keys = {key_of(root, {**raw, "embedding": embedding}) for embedding in (
        {"kind": "hashed_tf", "dim": 32},
        {"kind": "remote_http", "model": "m", "url": "http://127.0.0.1:9/a"},
        {"kind": "remote_http", "model": "m2", "url": "http://127.0.0.1:9/a"},
        {"kind": "remote_http", "model": "m", "url": "http://127.0.0.1:9/b"},
    )}
    assert len(keys) == 4


def test_provider_kind_is_keyed_and_api_keys_and_prices_are_not(tmp_path):
    root = str(tmp_path / "ws")
    oracle, http = http_config(root)
    changed = {**http, "stage1": {**http["stage1"], "api_key_env": "KEY_1"},
               "stage2": {**http["stage2"], "api_key_env": "KEY_2",
                          "pricing": {"output_usd_per_mtok": 9.0}}}
    assert key_of(root, oracle) != key_of(root, http) == key_of(root, changed)


@pytest.mark.parametrize("k", [4, None], ids=["pinned", "unpinned"])
def test_cluster_key_holds_k_as_configured(tmp_path, k):
    # The rule's count comes from the curated records, which the curate key fixes.
    root = str(tmp_path / "ws")
    raw = json.loads(slurp(single_review_workspace(root, DATASET)))
    raw["reviews"]["MEMO"].pop("k")
    if k is not None:
        raw["reviews"]["MEMO"]["k"] = k
    keys = cli._pipeline_for(cli.PipelineConfig(raw, base_dir=root), "MEMO").keys()
    assert keys["cluster"] == content_key("cluster", {"k": k, "seed": 0}, [keys["project"]])


def test_criteria_saved_with_a_bom_keeps_the_key_and_the_prompts(tmp_path, capsys):
    # Some editors start a UTF-8 file with U+FEFF; it is no criteria text.
    keys, outputs = [], []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        root = str(tmp_path / name)
        config_path = single_review_workspace(root, DATASET)
        criteria = os.path.join(root, "criteria.txt")
        text = slurp(criteria)
        with open(criteria, "wb") as fh:
            fh.write(bom + text)
        keys.append(key_of(root, json.loads(slurp(config_path))))
        capsys.readouterr()
        assert screen(config_path, tmp_path / f"{name}_run", "--dry-run") == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert keys[0] == keys[1]
    assert outputs[0] == outputs[1]


EMBEDDING_TEST = "test_embedding_kind_model_and_url_are_in_the_key"
PROVIDER_TEST = "test_provider_kind_is_keyed_and_api_keys_and_prices_are_not"
# Each key a config may hold, and where it is shown to change the screen key
# or to keep it: a KEYED or UNKEYED name, or the test that changes it.
COVERED = {
    "strategy": "strategy", "threshold": "threshold", "seed": "seed",
    "temperature": "temperature", "parallelism": "parallelism", "cache_dir": "cache_dir",
    "reviews.dataset": "dataset", "reviews.criteria": "criteria", "reviews.k": "k",
    "embedding.kind": EMBEDDING_TEST, "embedding.model": EMBEDDING_TEST,
    "embedding.url": EMBEDDING_TEST, "embedding.dim": "embedding",
    "embedding.path": "test_rewritten_vectors_file_changes_the_key",
    "projection.method": "projection", "projection.path": "projection",
    "stage1.model": "stage1-model", "stage1.pricing": "pricing",
    "stage1.url": "test_http_url_is_in_the_key", "stage1.api_key_env": PROVIDER_TEST,
    "stage2.model": "stage2-model", "stage2.pricing": PROVIDER_TEST,
    "stage2.url": "test_http_url_is_in_the_key", "stage2.api_key_env": PROVIDER_TEST,
    "provider.kind": PROVIDER_TEST,
    "provider.profile": "profile", "provider.stage2_profile": "stage2_profile",
}


def test_every_config_key_is_covered():
    sections = {"reviews": cli.REVIEW_KEYS, "embedding": cli.EMBEDDING_KEYS,
                "projection": cli.PROJECTION_KEYS, "stage1": cli.STAGE_KEYS,
                "stage2": cli.STAGE_KEYS, "provider": cli.PROVIDER_KEYS}
    assert set(sections) <= set(cli.CONFIG_KEYS)
    accepted = {f"{section}.{key}" for section, keys in sections.items() for key in keys}
    accepted |= set(cli.CONFIG_KEYS).difference(sections)
    assert accepted == set(COVERED), "name where each new config key is covered"
    assert set(COVERED.values()) <= {*KEYED, *UNKEYED, *vars(TestScreenKey), *globals()}


# What triage.SCREEN_FORMAT versions, pinned at its current value: the
# templates' text and the source of the parser, routing and row format.
VERSIONED = "c74a5b7e8e83df486234e7be7f510927e1b869f0e1b56433f83d897d000123b6"


def test_screen_format_versions_the_code_that_writes_results():
    h = hashlib.sha256()
    for template in prompting._TEMPLATES.values():
        h.update(template.encode())
    for f in (gateway._last_decision_word, gateway._first_json_object,
              gateway.parse_decision, triage.effective_confidence, triage.should_route,
              triage.ScreeningResult.to_dict):
        h.update(inspect.getsource(f).encode())
    assert (triage.SCREEN_FORMAT, h.hexdigest()) == (1, VERSIONED), (
        "a template, the parser, routing or the row format changed: if a result's "
        "bytes can change, bump triage.SCREEN_FORMAT; then pin the new digest")


class TestScreenMemo:
    @pytest.fixture
    def warm(self, tmp_path):
        """(config path, cold output, warm output, memo path, memo bytes)."""
        config_path = single_review_workspace(str(tmp_path / "ws"), DATASET)
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert screen(config_path, cold) == cli.EXIT_OK
        assert screen(config_path, warm) == cli.EXIT_OK
        path = memo_path(config_path)
        return config_path, cold, warm, path, slurp(path)

    @staticmethod
    def refuse_the_cascade(monkeypatch):
        """Make any screen that runs the cascade, or loads the log, fail."""
        def refuse(*args, **kwargs):
            raise AssertionError("the memo was not used")

        monkeypatch.setattr(cli.triage, "run_two_stage", refuse)
        monkeypatch.setattr(cli.triage, "run_single_stage", refuse)
        monkeypatch.setattr(ResponseCache, "_ensure_loaded", refuse)

    def test_warm_screen_replays_the_memo(self, warm, tmp_path, monkeypatch):
        config_path, cold, warm_out, _, _ = warm
        self.refuse_the_cascade(monkeypatch)
        assert screen(config_path, tmp_path / "again") == cli.EXIT_OK
        for name in (RESULTS, "manifest.json"):
            assert slurp(tmp_path / "again" / name) == slurp(warm_out / name)
        assert slurp(warm_out / RESULTS) == slurp(cold / RESULTS)
        entry = manifest(warm_out)["reviews"]["MEMO"]
        assert manifest(warm_out)["ledger"] == {
            "large": {"cache_hits": entry["routed"], "call_count": 0, "completion_tokens": 0,
                      "prompt_tokens": 0, "usd": 0.0},
            "mini": {"cache_hits": entry["records"], "call_count": 0, "completion_tokens": 0,
                     "prompt_tokens": 0, "usd": 0.0},
        }

    @staticmethod
    def damages(data):
        """(name, damaged bytes) for a memo; the cuts and flips fall at seeded positions."""
        rng = random.Random(7)
        trailer = data.rindex(b"\n", 0, len(data) - 1) + 1
        lines = [i + 1 for i in range(len(data) - 1) if data[i] == 10]
        out = [(f"cut-at-{n}", data[:n]) for n in rng.sample(range(1, len(data)), 3)]
        out += [(f"cut-at-line-{n}", data[:n]) for n in (lines[0], trailer)]
        out.append(("empty", b""))
        flips = rng.sample(range(trailer), 2) + rng.sample(range(trailer, len(data)), 3)
        for n in flips:
            flipped = bytearray(data)
            flipped[n] ^= 0x01
            out.append((f"flip-at-{n}", bytes(flipped)))
        return out

    def test_damaged_memo_is_reported_and_screened_again(self, warm, tmp_path, capsys):
        config_path, _, warm_out, path, memo = warm
        for name, damaged in self.damages(memo):
            with open(path, "wb") as fh:
                fh.write(damaged)
            capsys.readouterr()
            out = tmp_path / name
            assert screen(config_path, out) == cli.EXIT_OK, name
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"screen memo {path}: damaged"), name
            for result in (RESULTS, "manifest.json"):
                assert slurp(out / result) == slurp(warm_out / result), name
            assert slurp(path) == memo, name

    @pytest.mark.parametrize("damage", ["deleted", "shortened"])
    def test_log_without_the_answers_runs_the_cascade(self, warm, tmp_path, capsys, damage):
        config_path, cold, _, path, _ = warm
        log = os.path.join(os.path.dirname(path), "responses.jsonl")
        if damage == "deleted":
            os.unlink(log)
        else:
            with open(log, "r+b") as fh:
                fh.truncate(os.path.getsize(log) // 2)
        capsys.readouterr()
        out = tmp_path / "out"
        assert screen(config_path, out) == cli.EXIT_OK
        assert "screen memo" not in capsys.readouterr().err
        assert sum(e["call_count"] for e in manifest(out)["ledger"].values()) > 0
        assert slurp(out / RESULTS) == slurp(cold / RESULTS)

    def test_log_another_strategy_appended_to_still_hits(self, warm, tmp_path, monkeypatch):
        config_path, _, warm_out, path, _ = warm
        log = os.path.join(os.path.dirname(path), "responses.jsonl")
        size = os.path.getsize(log)
        assert screen(config_path, tmp_path / "zs", "--strategy", "zs") == cli.EXIT_OK
        assert os.path.getsize(log) > size
        self.refuse_the_cascade(monkeypatch)
        assert screen(config_path, tmp_path / "again") == cli.EXIT_OK
        for name in (RESULTS, "manifest.json"):
            assert slurp(tmp_path / "again" / name) == slurp(warm_out / name)

    @pytest.mark.parametrize("settings,flags", [
        ({"stage1": {"model": "solo"}, "stage2": {"model": "solo"}}, []),
        ({}, ["--threshold", "0"]),
        ({}, ["--strategy", "zs"]),
    ], ids=["one-model-for-both-stages", "nothing-routed", "single-stage"])
    def test_memo_replays_the_warm_cascade_manifest(self, tmp_path, monkeypatch, settings,
                                                    flags):
        config_path = single_review_workspace(str(tmp_path / "ws"), DATASET)
        edit_config(config_path, lambda raw: raw.update(settings))
        assert screen(config_path, tmp_path / "cold", *flags) == cli.EXIT_OK
        drop_memos(config_path)
        assert screen(config_path, tmp_path / "cascade", *flags) == cli.EXIT_OK
        self.refuse_the_cascade(monkeypatch)
        assert screen(config_path, tmp_path / "memo", *flags) == cli.EXIT_OK
        assert slurp(tmp_path / "memo" / "manifest.json") == slurp(
            tmp_path / "cascade" / "manifest.json")
        entry = manifest(tmp_path / "memo")["reviews"]["MEMO"]
        hits = sum(e["cache_hits"] for e in manifest(tmp_path / "memo")["ledger"].values())
        assert hits == entry["records"] + entry["routed"]

    def test_new_screen_format_misses_the_memo(self, warm, tmp_path, monkeypatch):
        config_path, cold, warm_out, path, memo = warm
        runs = []
        real = cli.triage.run_two_stage

        def counted(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.triage, "run_two_stage", counted)
        monkeypatch.setattr(triage, "SCREEN_FORMAT", triage.SCREEN_FORMAT + 1)
        out = tmp_path / "out"
        assert screen(config_path, out) == cli.EXIT_OK
        assert runs == [1]
        key = manifest(out)["reviews"]["MEMO"]["screen_key"]
        assert key != manifest(warm_out)["reviews"]["MEMO"]["screen_key"]
        assert slurp(out / RESULTS) == slurp(cold / RESULTS)
        assert slurp(path) == memo
        memos = [n for n in os.listdir(os.path.dirname(path)) if n.startswith("screen-")]
        assert len(memos) == 2

    def test_sweep_replays_the_log_and_leaves_the_memo(self, warm, tmp_path, monkeypatch):
        # A sweep runs the cascade over the cached answers, whatever memo
        # exists: one hit per record and per routed record, and no send.
        config_path, _, warm_out, path, memo = warm
        calls, hits, sends = [], [], []
        real_complete = cli.triage.complete
        real_get = ResponseCache.get

        def counted(*args, **kwargs):
            calls.append(kwargs["tags"]["record_id"])
            return real_complete(*args, **kwargs)

        def get(self, key):
            hit = real_get(self, key)
            hits.append(hit is not None)
            return hit

        monkeypatch.setattr(cli.triage, "complete", counted)
        monkeypatch.setattr(ResponseCache, "get", get)
        monkeypatch.setattr(OracleProvider, "send", lambda *a, **k: sends.append(a))
        argv = ["sweep", "--config", config_path, "--thresholds", "0.5,0.9",
                "--out", str(tmp_path / "sweep")]
        assert cli.main(argv) == cli.EXIT_OK
        entry = manifest(warm_out)["reviews"]["MEMO"]
        assert len(calls) == entry["records"] + entry["routed"]
        assert hits == [True] * len(calls)
        assert sends == []
        assert memo_path(config_path) == path and slurp(path) == memo

    def test_run_with_a_failed_record_writes_no_memo(self, tmp_path, monkeypatch):
        config_path = single_review_workspace(str(tmp_path / "ws"), DATASET)
        failing = DATASET.records[0].id
        real_send = OracleProvider.send

        def send(self, prompt_text, temperature, max_tokens, tags):
            if tags["record_id"] == failing:
                raise ProviderError("refused")
            return real_send(self, prompt_text, temperature, max_tokens, tags)

        monkeypatch.setattr(OracleProvider, "send", send)
        assert screen(config_path, tmp_path / "failed") == cli.EXIT_OK
        assert manifest(tmp_path / "failed")["reviews"]["MEMO"]["failed"] == [failing]
        cache_dir = cli.PipelineConfig.load(config_path).cache_dir
        assert [n for n in os.listdir(cache_dir) if n.startswith("screen-")] == []
        monkeypatch.undo()
        assert screen(config_path, tmp_path / "whole") == cli.EXIT_OK
        assert os.path.exists(memo_path(config_path))
