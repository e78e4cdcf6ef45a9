from __future__ import annotations

import builtins
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import dfscreen
from dfscreen import cli, corpus, embedding, evaluation, synth
from dfscreen.corpus import EXCLUDE, ReviewDataset, write_dataset_jsonl
from dfscreen.gateway import (
    HttpChatProvider,
    OracleProvider,
    ProviderError,
    ResponseCache,
)
from dfscreen.projection import write_points_jsonl
from dfscreen.synth import ReviewShape
from dfscreen.triage import RunError, read_results_jsonl

from http_stub import Reply, closed_url

SHAPES = [
    ReviewShape("REV-A", "test", 90, 20, 80, 18, 3),
    ReviewShape("REV-B", "test", 70, 15, 64, 14, 3),
    ReviewShape("REV-C", "test", 100, 25, 92, 23, 4),
]


def build_workspace(root, seed=0):
    data_dir = os.path.join(root, "data")
    os.makedirs(data_dir, exist_ok=True)
    reviews = {}
    for shape in SHAPES:
        raw = synth.synth_raw_review(shape, seed=seed)
        write_dataset_jsonl(raw, os.path.join(data_dir, f"{shape.review_id}.jsonl"))
        criteria_path = os.path.join(data_dir, f"{shape.review_id}.txt")
        with open(criteria_path, "w", encoding="utf-8") as fh:
            fh.write(synth.synth_criteria(shape.review_id) + "\n")
        reviews[shape.review_id] = {
            "dataset": f"data/{shape.review_id}.jsonl",
            "criteria": f"data/{shape.review_id}.txt",
            "k": shape.k,
        }
    config = {
        "reviews": reviews,
        "embedding": {"kind": "hashed_tf", "dim": 32},
        "projection": "pca",
        "strategy": "dfsl",
        "threshold": 0.9,
        "seed": seed,
        "provider": {
            "kind": "oracle",
            "profile": {"acc_hi": 0.95, "acc_lo": 0.75, "p_hi": 0.87},
            "stage2_profile": {"acc_hi": 0.97, "acc_lo": 0.95, "p_hi": 0.95},
        },
        "cache_dir": "cache",
    }
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config_path


def single_review_workspace(root, dataset):
    """One review, one worker thread, oracle provider; returns the config path."""
    os.makedirs(root, exist_ok=True)
    write_dataset_jsonl(dataset, os.path.join(root, "data.jsonl"))
    with open(os.path.join(root, "criteria.txt"), "w", encoding="utf-8") as fh:
        fh.write(synth.synth_criteria(dataset.review_id) + "\n")
    config = {
        "reviews": {
            dataset.review_id: {"dataset": "data.jsonl", "criteria": "criteria.txt", "k": 3}
        },
        "embedding": {"kind": "hashed_tf", "dim": 32},
        "parallelism": 1,
        "cache_dir": "cache",
    }
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return config_path


def slurp(path):
    with open(path, "rb") as fh:
        return fh.read()


def drop_memos(config_path):
    """Delete the ``screen-*`` memos, so the next ``screen`` runs the cascade."""
    cache_dir = cli.PipelineConfig.load(config_path).cache_dir
    if os.path.isdir(cache_dir):
        for name in os.listdir(cache_dir):
            if name.startswith("screen-"):
                os.unlink(os.path.join(cache_dir, name))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("workspace")
    return build_workspace(str(root))


class TestConfigLoading:
    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        rc = cli.main(["curate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["curate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["curate", "screen"])
    def test_csv_open_quote_past_the_field_limit_is_exit_2(self, tmp_path, capsys, command):
        config_path = single_review_workspace(str(tmp_path / "ws"), synth.synth_review(
            "QUOTE", 12, 3, k=3, seed=1))
        data = tmp_path / "ws" / "data.csv"
        data.write_text('id,title,abstract\n1,"T1,A1\n' + "x" * (1 << 17) + "\n")
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["reviews"]["QUOTE"]["dataset"] = "data.csv"
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        capsys.readouterr()
        assert cli.main([command, "--config", config_path, "--out", str(tmp_path / "out")]) \
            == cli.EXIT_CONFIG
        assert f"config error: {data}:3: field larger than field limit" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, tmp_path):
        root = str(tmp_path / "ws")
        config_path = build_workspace(root)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["strategy"] = "tree-of-thought"
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        rc = cli.main(["project", "--config", config_path])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda raw: {**raw, "parallelism": 0}, id="parallelism-0"),
            pytest.param(lambda raw: {**raw, "parallelism": "x"}, id="parallelism-str"),
            pytest.param(lambda raw: {**raw, "threshold": "high"}, id="threshold-str"),
            pytest.param(lambda raw: {**raw, "seed": "a"}, id="seed-str"),
            pytest.param(lambda raw: {**raw, "temperature": "hot"}, id="temperature-str"),
            pytest.param(lambda raw: {**raw, "reviews": {"BAD": 3}}, id="review-int"),
            pytest.param(
                lambda raw: {**raw, "reviews": {"BAD": {"dataset": 3, "criteria": "c.txt"}}},
                id="dataset-int",
            ),
            pytest.param(
                lambda raw: {**raw, "reviews": {"BAD": {**raw["reviews"]["CFG"], "k": "x"}}},
                id="k-str",
            ),
            pytest.param(lambda raw: {**raw, "cache_dir": 5}, id="cache_dir-int"),
            # A review id names its output files, so it must be one file name.
            *[pytest.param(lambda raw, rid=rid: {**raw, "reviews": {rid: raw["reviews"]["CFG"]}},
                           id=f"review-id-{what}")
              for rid, what in (("", "empty"), ("a/b", "slash"), ("a\\b", "backslash"))],
            pytest.param(
                lambda raw: {**raw, "projection": {"method": "import"}},
                id="import-without-path",
            ),
            pytest.param(lambda raw: {**raw, "projection": [1]}, id="projection-list"),
            pytest.param(lambda raw: {**raw, "provider": "oracle"}, id="provider-str"),
            pytest.param(lambda raw: {**raw, "stage1": "mini"}, id="stage1-str"),
            pytest.param(lambda raw: [raw], id="top-level-list"),
            # A number must be a JSON number of its field's type, never a bool.
            pytest.param(lambda raw: {**raw, "threshold": "0.5"}, id="threshold-numeric-str"),
            pytest.param(lambda raw: {**raw, "threshold": True}, id="threshold-bool"),
            pytest.param(lambda raw: {**raw, "temperature": "0"}, id="temperature-numeric-str"),
            pytest.param(lambda raw: {**raw, "seed": 1.7}, id="seed-real"),
            pytest.param(lambda raw: {**raw, "seed": True}, id="seed-bool"),
            pytest.param(lambda raw: {**raw, "parallelism": 2.9}, id="parallelism-real"),
            pytest.param(
                lambda raw: {**raw, "reviews": {"BAD": {**raw["reviews"]["CFG"], "k": True}}},
                id="k-bool",
            ),
            pytest.param(
                lambda raw: {**raw, "stage1": {"pricing": {"input_usd_per_mtok": "0.40"}}},
                id="pricing-str",
            ),
            pytest.param(
                lambda raw: {**raw, "stage2": {"pricing": {"output_usd_per_mtok": True}}},
                id="pricing-bool",
            ),
            # A string setting takes a string; null only where it may be unset.
            pytest.param(lambda raw: {**raw, "stage1": {"model": 5}}, id="model-int"),
            pytest.param(lambda raw: {**raw, "stage1": {"model": ["a"]}}, id="model-list"),
            pytest.param(
                lambda raw: {**raw, "provider": {"kind": "http"}, "stage1": {"url": 5},
                             "stage2": {"url": "http://127.0.0.1:9/v1"}},
                id="stage-url-int",
            ),
            pytest.param(
                lambda raw: {**raw, "embedding": {"kind": "remote_http", "url": 5}},
                id="embedding-url-int",
            ),
            pytest.param(
                lambda raw: {**raw, "provider": {"kind": "http"},
                             "stage1": {"url": "http://127.0.0.1:9/v1", "api_key_env": 7},
                             "stage2": {"url": "http://127.0.0.1:9/v1"}},
                id="api_key_env-int",
            ),
        ],
    )
    def test_malformed_value_is_exit_2(self, tmp_path, capsys, mutate):
        dataset = synth.synth_review("CFG", 40, 10, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        with open(config_path, "w") as fh:
            json.dump(mutate(raw), fh)
        rc = cli.main(["screen", "--config", config_path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(
                lambda raw: {**raw, "stage1": {"pricing": {"input_usd_per_mtok": math.inf}}},
                "stage1 pricing: price inf is not finite and nonnegative", id="price-infinity",
            ),
            pytest.param(
                lambda raw: {**raw, "stage2": {"pricing": {"output_usd_per_mtok": math.nan}}},
                "stage2 pricing: price nan is not finite and nonnegative", id="price-nan",
            ),
            pytest.param(lambda raw: {**raw, "temperature": math.nan},
                         "config: temperature nan outside [0,2]", id="temperature-nan"),
            pytest.param(lambda raw: {**raw, "temperature": -5},
                         "config: temperature -5.0 outside [0,2]", id="temperature-negative"),
            pytest.param(lambda raw: {**raw, "temperature": math.inf},
                         "config: temperature inf outside [0,2]", id="temperature-infinity"),
        ],
    )
    def test_nonfinite_or_out_of_range_number_is_exit_2(self, tmp_path, capsys, mutate, message):
        # json writes and reads the non-standard literals NaN and Infinity.
        dataset = synth.synth_review("CFG", 40, 10, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        with open(config_path, "w") as fh:
            json.dump(mutate(raw), fh)
        rc = cli.main(["screen", "--config", config_path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("k", [2, 11])
    @pytest.mark.parametrize("command", ["curate", "evaluate", "screen"])
    def test_pinned_k_outside_its_range_is_exit_2(self, tmp_path, capsys, command, k):
        dataset = synth.synth_review("CFG", 40, 10, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        run = str(tmp_path / "run")
        assert cli.main(["screen", "--config", config_path, "--out", run]) == cli.EXIT_OK
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["reviews"]["CFG"]["k"] = k
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        before = sorted(os.listdir(run))
        capsys.readouterr()
        flag = "--results" if command == "evaluate" else "--out"
        assert cli.main([command, "--config", config_path, flag, run]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: review CFG: k {k} outside [3, 10]\n"
        assert sorted(os.listdir(run)) == before

    def test_absolute_review_id_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # os.path.join drops --out before an absolute id.
        rid = str(tmp_path / "escaped")
        dataset = synth.synth_review("ESC", 40, 10, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["reviews"] = {rid: raw["reviews"]["ESC"]}
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        rc = cli.main(["curate", "--config", config_path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert f"config error: review id {rid!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "escaped_curated.jsonl")

    @pytest.mark.parametrize(
        "section,mutate",
        [
            ("config", lambda raw: raw.update(treshold=0.1)),
            ("review CFG", lambda raw: raw["reviews"]["CFG"].update(K=4)),
            ("embedding", lambda raw: raw["embedding"].update(timeout=5)),
            ("projection", lambda raw: raw.update(projection={"method": "pca", "dims": 2})),
            ("stage1", lambda raw: raw.update(stage1={"modle": "m1"})),
            ("stage2", lambda raw: raw.update(stage2={"model": "m2", "price": {}})),
            ("provider", lambda raw: raw.update(provider={"kind": "oracle", "profil": {}})),
        ],
        ids=["top-level", "review", "embedding", "projection", "stage1", "stage2",
             "provider"],
    )
    def test_unknown_key_is_exit_2(self, tmp_path, capsys, section, mutate):
        dataset = synth.synth_review("CFG", 40, 10, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        mutate(raw)
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        rc = cli.main(["screen", "--config", config_path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: unknown key "), err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "command,provider,stage2",
        [
            ("project", {"kind": "oracle", "profile": {"acc_hi": 2, "acc_lo": 0.7, "p_hi": 0.8}},
             {}),
            ("screen", {"kind": "http"}, {"model": "m2"}),
        ],
        ids=["profile-out-of-range", "http-stage-without-url"],
    )
    def test_provider_checked_before_any_work(
        self, tmp_path, capsys, command, provider, stage2
    ):
        dataset = synth.synth_review("CFG", 40, 10, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw.update(provider=provider, stage1={"model": "m1", "url": "http://127.0.0.1:9/v1"},
                   stage2=stage2)
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        argv = [command, "--config", config_path]
        if command == "screen":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        cache_dir = tmp_path / "ws" / "cache"
        assert not cache_dir.exists() or os.listdir(cache_dir) == []
        assert not os.path.exists(tmp_path / "out")

    def test_paths_resolved_against_config_dir(self, ws):
        cfg = cli.PipelineConfig.load(ws)
        for entry in cfg.reviews.values():
            assert os.path.isabs(entry["dataset"])
            assert os.path.exists(entry["dataset"])
        assert os.path.isabs(cfg.cache_dir)

    def test_pricing_defaults(self, ws):
        cfg = cli.PipelineConfig.load(ws)
        assert cfg.stage1["pricing"].input_usd_per_mtok == 0.40
        assert cfg.stage1["pricing"].output_usd_per_mtok == 1.60
        assert cfg.stage2["pricing"].input_usd_per_mtok == 2.00
        assert cfg.stage2["pricing"].output_usd_per_mtok == 8.00


class TestCurate:
    def test_counts_and_outputs(self, ws, tmp_path, capsys):
        out = str(tmp_path / "curated")
        rc = cli.main(["curate", "--config", ws, "--out", out])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "REV-A: 90 -> 80" in stdout
        assert "REV-B: 70 -> 64" in stdout
        assert "REV-C: 100 -> 92" in stdout
        with open(os.path.join(out, "curation_report.json")) as fh:
            report = json.load(fh)
        for shape in SHAPES:
            row = report[shape.review_id]
            assert row["retrieved"] == shape.retrieved
            assert row["curated"] == shape.curated
            assert row["includes"] == shape.curated_includes
            assert os.path.exists(os.path.join(out, f"{shape.review_id}_curated.jsonl"))


class TestStageCommands:
    def test_each_stage_runs(self, ws, capsys):
        for stage in ("project", "cluster", "pool"):
            rc = cli.main([stage, "--config", ws])
            assert rc == cli.EXIT_OK
            stdout = capsys.readouterr().out
            for shape in SHAPES:
                assert f"{shape.review_id}: {stage} ->" in stdout

    def test_cluster_prints_chosen_k(self, ws, capsys):
        rc = cli.main(["cluster", "--config", ws])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "REV-A: k=3" in stdout
        assert "REV-C: k=4" in stdout


class TestImportProjection:
    def test_imported_pca_points_give_the_pca_pool(self, tmp_path):
        config_path = build_workspace(str(tmp_path / "ws"))
        pca = cli._pipeline_for(cli.PipelineConfig.load(config_path), "REV-A")
        points, points_key = pca.points()
        pool, _ = pca.pool()
        with open(config_path) as fh:
            raw = json.load(fh)
        # Relative to the config file, like every other path in it.  A sealed
        # project-* artifact is not a plain points file, so write one.
        write_points_jsonl(points, str(tmp_path / "ws" / "points.jsonl"))
        os.unlink(pca.cache.path(points_key))
        raw["projection"] = {"method": "import", "path": "points.jsonl"}
        raw["reviews"] = {"REV-A": raw["reviews"]["REV-A"]}
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        assert cli.main(["pool", "--config", config_path]) == cli.EXIT_OK
        imported = cli._pipeline_for(cli.PipelineConfig.load(config_path), "REV-A")
        assert imported.points()[1] != points_key
        assert imported.points()[0] == points
        assert imported.pool()[0].to_json() == pool.to_json()


    def test_import_never_embeds(self, tmp_path, monkeypatch):
        dataset = synth.synth_review("IMP", 30, 8, k=3, seed=2)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(tmp_path / "ws" / "points.jsonl", "w") as fh:
            for i, r in enumerate(dataset.records):
                fh.write(json.dumps({"id": r.id, "x": float(i % 7), "y": float(i % 5)}) + "\n")
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["projection"] = {"method": "import", "path": "points.jsonl"}
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        embedded = []
        real = embedding.EmbeddingClient.embed_batch

        def record(self, texts, ids=None):
            embedded.append(self.config.kind)
            return real(self, texts, ids)

        monkeypatch.setattr(embedding.EmbeddingClient, "embed_batch", record)
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_OK
        assert embedded == []
        stages = {name.split("-")[0] for name in os.listdir(tmp_path / "ws" / "cache")}
        assert stages == {"curate", "project"}


class TestScreen:
    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        config_path = build_workspace(str(tmp_path / "ws"))
        out = str(tmp_path / "never")
        rc = cli.main(["screen", "--config", config_path, "--out", out, "--dry-run"])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        total = sum(s.curated for s in SHAPES)
        assert f"total: up to {2 * total} calls" in stdout
        assert not os.path.exists(out)
        cache_dir = cli.PipelineConfig.load(config_path).cache_dir
        assert not os.path.exists(os.path.join(cache_dir, "responses.jsonl"))

    def test_screen_outputs(self, ws, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = cli.main(["screen", "--config", ws, "--out", out])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "usd_total: $" in stdout
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["strategy"] == "dfsl"
        assert manifest["threshold"] == 0.9
        assert len(manifest["config_sha256"]) == 64
        for shape in SHAPES:
            entry = manifest["reviews"][shape.review_id]
            assert entry["records"] == shape.curated
            assert entry["failed"] == []
            assert 0 <= entry["routed"] <= shape.curated
            results = read_results_jsonl(
                os.path.join(out, f"results_{shape.review_id}.jsonl")
            )
            assert len(results) == shape.curated
            assert sum(1 for r in results if r.routed) == entry["routed"]
        assert "ledger" in manifest

    def test_threshold_override_routes_nothing_at_zero(self, ws, tmp_path):
        out = str(tmp_path / "zero")
        rc = cli.main(["screen", "--config", ws, "--out", out, "--threshold", "0"])
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["threshold"] == 0.0
        for shape in SHAPES:
            assert manifest["reviews"][shape.review_id]["routed"] == 0

    def test_bad_threshold_override(self, ws, tmp_path):
        rc = cli.main(
            ["screen", "--config", ws, "--out", str(tmp_path / "x"), "--threshold", "1.5"]
        )
        assert rc == cli.EXIT_CONFIG

    def test_single_stage_strategy(self, ws, tmp_path):
        out = str(tmp_path / "zs")
        rc = cli.main(["screen", "--config", ws, "--out", out, "--strategy", "zs"])
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["strategy"] == "zs"
        results = read_results_jsonl(os.path.join(out, "results_REV-A.jsonl"))
        assert all(not r.routed for r in results)
        assert all(r.stage2 is None for r in results)

    def test_provider_failure_maps_to_exit_3(self, ws, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise RunError("9 of 80 records failed")

        monkeypatch.setattr(cli.triage, "run_two_stage", explode)
        drop_memos(ws)
        rc = cli.main(["screen", "--config", ws, "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_PROVIDER
        assert "provider failure" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["dfsl", "fs", "zs"])
    def test_dry_run_renders_the_prompts_screen_sends(
        self, ws, tmp_path, monkeypatch, strategy
    ):
        rendered, sent = [], []
        real_render, real_complete = cli.triage.render, cli.triage.complete

        def render(*args, **kwargs):
            prompt = real_render(*args, **kwargs)
            rendered.append(prompt.text)
            return prompt

        def complete(prompt_text, *args, **kwargs):
            sent.append(prompt_text)
            return real_complete(prompt_text, *args, **kwargs)

        monkeypatch.setattr(cli.triage, "render", render)
        monkeypatch.setattr(cli.triage, "complete", complete)
        out = str(tmp_path / "run")
        argv = ["screen", "--config", ws, "--out", out, "--strategy", strategy]
        assert cli.main(argv + ["--dry-run"]) == cli.EXIT_OK
        planned = list(rendered)
        drop_memos(ws)
        assert cli.main(argv) == cli.EXIT_OK
        assert len(planned) == len(set(planned)) == sum(s.curated for s in SHAPES)
        assert set(planned) == set(sent)


class TestPipelineErrors:
    @pytest.fixture
    def all_exclude(self, tmp_path):
        dataset = synth.synth_review("ALLEX", 24, 0, k=3, seed=5)
        assert all(r.gold_label == EXCLUDE for r in dataset.records)
        return single_review_workspace(str(tmp_path / "ws"), dataset)

    @pytest.mark.parametrize(
        "command", [["screen"], ["screen", "--dry-run"], ["sweep"]],
        ids=["screen", "dry-run", "sweep"],
    )
    def test_unconstructible_pool_is_exit_2(self, all_exclude, tmp_path, capsys, command):
        argv = command + ["--config", all_exclude, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error: pool unconstructible" in capsys.readouterr().err

    def test_truncated_projection_artifact_is_exit_2(self, tmp_path, capsys):
        config_path = build_workspace(str(tmp_path / "ws"))
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_OK
        cache_dir = cli.PipelineConfig.load(config_path).cache_dir
        artifact = os.path.join(
            cache_dir, sorted(f for f in os.listdir(cache_dir) if f.startswith("project-"))[0]
        )
        data = slurp(artifact)
        with open(artifact, "wb") as fh:
            fh.write(data[: len(data) // 2])
        capsys.readouterr()
        # A torn artifact is a miss: reported, then built and written again.
        assert cli.main(["cluster", "--config", config_path]) == cli.EXIT_OK
        assert capsys.readouterr().err == (
            f"artifact {artifact}: damaged or unsealed; building it again\n")
        assert slurp(artifact) == data


class TestGoldLabels:
    """Scoring commands need every gold label; the oracle needs them to answer."""

    @pytest.fixture
    def partly_unlabeled(self, tmp_path):
        dataset = synth.synth_review("HALF", 60, 15, k=3, seed=4)
        records = [
            r if i % 3 else dataclasses.replace(r, gold_label=None)
            for i, r in enumerate(dataset.records)
        ]
        return single_review_workspace(
            str(tmp_path / "ws"), ReviewDataset(dataset.review_id, records)
        )

    def test_sweep_is_exit_4_before_any_call(
        self, partly_unlabeled, tmp_path, monkeypatch, capsys
    ):
        with open(partly_unlabeled) as fh:
            raw = json.load(fh)
        raw["provider"] = {"kind": "http"}
        raw["stage1"] = {"model": "m1", "url": "http://127.0.0.1:9/v1"}
        raw["stage2"] = {"model": "m2", "url": "http://127.0.0.1:9/v1"}
        with open(partly_unlabeled, "w") as fh:
            json.dump(raw, fh)
        sent = []
        monkeypatch.setattr(HttpChatProvider, "send", lambda *a, **k: sent.append(a))
        argv = ["sweep", "--config", partly_unlabeled, "--out", str(tmp_path / "sweep")]
        assert cli.main(argv) == cli.EXIT_EVALUATION
        assert "gold labels missing" in capsys.readouterr().err
        assert sent == []

    def test_sweep_checks_every_review_before_any_call(self, tmp_path, monkeypatch, capsys):
        config_path = build_workspace(str(tmp_path / "ws"))
        with open(config_path) as fh:
            raw = json.load(fh)
        last = os.path.join(tmp_path, "ws", raw["reviews"]["REV-C"]["dataset"])
        dataset = corpus.load_dataset_jsonl(last, "REV-C")
        records = [dataclasses.replace(r, gold_label=None) if i == 5 else r
                   for i, r in enumerate(dataset.records)]
        write_dataset_jsonl(ReviewDataset("REV-C", records), last)
        raw["provider"] = {"kind": "http"}
        raw["stage1"] = {"model": "m1", "url": "http://127.0.0.1:9/v1"}
        raw["stage2"] = {"model": "m2", "url": "http://127.0.0.1:9/v1"}
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        sent = []
        monkeypatch.setattr(HttpChatProvider, "send", lambda *a, **k: sent.append(a))
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", config_path, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_EVALUATION
        assert "review REV-C: gold labels missing" in capsys.readouterr().err
        assert sent == []
        assert not (out / "sweep.csv").exists()

    def test_evaluate_is_exit_4(self, partly_unlabeled, tmp_path, capsys):
        results = tmp_path / "run"
        results.mkdir()
        (results / "results_HALF.jsonl").write_text("")
        argv = ["evaluate", "--config", partly_unlabeled, "--results", str(results)]
        assert cli.main(argv) == cli.EXIT_EVALUATION
        assert "gold labels missing" in capsys.readouterr().err

    def test_oracle_screen_is_exit_2(self, partly_unlabeled, tmp_path, capsys):
        argv = ["screen", "--config", partly_unlabeled, "--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "oracle provider needs gold labels" in capsys.readouterr().err


class TestStageMemo:
    def test_screen_hashes_each_dataset_once(self, tmp_path, monkeypatch):
        config_path = build_workspace(str(tmp_path / "ws"))
        hashed = []
        real = cli._file_sha256

        def record(path, *size):
            if not size:  # a size is the response log's prefix
                hashed.append(path)
            return real(path, *size)

        monkeypatch.setattr(cli, "_file_sha256", record)
        argv = ["screen", "--config", config_path, "--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_OK
        reviews = cli.PipelineConfig.load(config_path).reviews
        assert sorted(hashed) == sorted(entry["dataset"] for entry in reviews.values())

    @staticmethod
    def warm_artifacts_opened(tmp_path, monkeypatch, argv):
        """Cache artifacts a warm ``argv`` opens, in order, after a cold screen."""
        config_path = build_workspace(str(tmp_path / "ws"))
        cold = ["screen", "--config", config_path, "--out", str(tmp_path / "cold")]
        assert cli.main(cold) == cli.EXIT_OK
        cache_dir = cli.PipelineConfig.load(config_path).cache_dir
        opened = []
        real_open = builtins.open

        def record(file, *args, **kwargs):
            if os.path.dirname(os.path.abspath(str(file))) == cache_dir:
                opened.append(os.path.basename(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", record)
        rc = cli.main(argv + ["--config", config_path, "--out", str(tmp_path / "warm")])
        assert rc == cli.EXIT_OK
        monkeypatch.undo()
        return [name for name in opened if name != "responses.jsonl"]

    def test_warm_screen_opens_each_artifact_at_most_once(self, tmp_path, monkeypatch):
        # A memo hit reads its memo and no stage artifact.
        artifacts = self.warm_artifacts_opened(tmp_path, monkeypatch, ["screen"])
        assert len(artifacts) == len(set(artifacts))
        assert {name.split("-")[0] for name in artifacts} == {"screen"}
        assert len(artifacts) == len(SHAPES)

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "unpinned"])
    def test_warm_screen_parses_no_curated_record(self, tmp_path, monkeypatch, pinned):
        # The keys come from file hashes and k as configured, pinned or not.
        config_path = build_workspace(str(tmp_path / "ws"))
        if not pinned:
            with open(config_path) as fh:
                raw = json.load(fh)
            for entry in raw["reviews"].values():
                del entry["k"]
            with open(config_path, "w") as fh:
                json.dump(raw, fh)
        argv = ["screen", "--config", config_path, "--out"]
        assert cli.main(argv + [str(tmp_path / "cold")]) == cli.EXIT_OK
        opened, parsed = [], []
        real_open, real_load = builtins.open, corpus.load_dataset_jsonl

        def record_open(file, *args, **kwargs):
            opened.append(os.path.basename(str(file)).split("-")[0])
            return real_open(file, *args, **kwargs)

        def record_load(path, *args):
            parsed.append(path)
            return real_load(path, *args)

        monkeypatch.setattr(builtins, "open", record_open)
        monkeypatch.setattr(corpus, "load_dataset_jsonl", record_load)
        assert cli.main(argv + [str(tmp_path / "warm")]) == cli.EXIT_OK
        monkeypatch.undo()
        assert parsed == []
        assert not {"curate", "project", "cluster", "pool"}.intersection(opened)
        for shape in SHAPES:
            name = f"results_{shape.review_id}.jsonl"
            assert slurp(tmp_path / "warm" / name) == slurp(tmp_path / "cold" / name)

    def test_warm_evaluate_parses_no_curated_record(self, tmp_path, monkeypatch):
        # The gold labels come from each curated artifact's seal.
        config_path = build_workspace(str(tmp_path / "ws"))
        cold = tmp_path / "cold"
        assert cli.main(["screen", "--config", config_path, "--out", str(cold)]) == cli.EXIT_OK
        argv = ["evaluate", "--config", config_path, "--results", str(cold)]
        assert cli.main(argv) == cli.EXIT_OK
        expected = {name: slurp(cold / name) for name in ("report.csv", "report.json")}
        opened, parsed = [], []
        real_open, real_load = builtins.open, corpus.load_dataset_jsonl

        def record_open(file, *args, **kwargs):
            opened.append(os.path.basename(str(file)))
            return real_open(file, *args, **kwargs)

        def record_load(path, *args):
            parsed.append(path)
            return real_load(path, *args)

        monkeypatch.setattr(builtins, "open", record_open)
        monkeypatch.setattr(corpus, "load_dataset_jsonl", record_load)
        assert cli.main(argv) == cli.EXIT_OK
        monkeypatch.undo()
        assert parsed == []
        curated = [name for name in opened if name.startswith("curate-")]
        assert len(curated) == len(set(curated)) == len(SHAPES)
        assert {name: slurp(cold / name) for name in expected} == expected

    def test_cold_baseline_screen_builds_no_exemplar_artifact(self, tmp_path):
        dataset = synth.synth_review("BASE", 40, 10, k=3, seed=4)
        bare, built = (single_review_workspace(str(tmp_path / ws), dataset)
                       for ws in ("bare", "built"))
        assert cli.main(["pool", "--config", built]) == cli.EXIT_OK
        for config_path, out in ((bare, "bare_run"), (built, "built_run")):
            argv = ["screen", "--config", config_path, "--out", str(tmp_path / out),
                    "--strategy", "zs"]
            assert cli.main(argv) == cli.EXIT_OK
        names = os.listdir(tmp_path / "bare" / "cache")
        assert sorted(name.split("-")[0] for name in names) == [
            "curate", "responses.jsonl", "screen"]
        # The results and manifest of a screen whose exemplar artifacts exist.
        for name in ("results_BASE.jsonl", "manifest.json"):
            assert slurp(tmp_path / "bare_run" / name) == slurp(tmp_path / "built_run" / name)

    @pytest.mark.parametrize(
        "command", [["sweep"], ["screen", "--dry-run"]], ids=["sweep", "dry-run"]
    )
    def test_warm_command_never_opens_points(self, tmp_path, monkeypatch, command):
        artifacts = self.warm_artifacts_opened(tmp_path, monkeypatch, command)
        assert len(artifacts) == len(set(artifacts))
        assert {name.split("-")[0] for name in artifacts} == {"curate", "cluster", "pool"}


class TestArtifactWrites:
    @pytest.mark.parametrize(
        "owner,writer,stage",
        [
            (corpus, "write_dataset_jsonl", "curate-"),
            (cli, "write_points_jsonl", "project-"),
        ],
        ids=["curate", "project"],
    )
    def test_failed_write_leaves_nothing_at_the_key(
        self, tmp_path, monkeypatch, capsys, owner, writer, stage
    ):
        dataset = synth.synth_review("TORN", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        cache_dir = str(tmp_path / "ws" / "cache")
        real = getattr(owner, writer)

        def torn(*args):
            # Write the artifact, cut it in half, then fail like a full disk.
            real(*args)
            path = args[-1]
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)
            raise OSError("no space left on device")

        monkeypatch.setattr(owner, writer, torn)
        argv = ["screen", "--config", config_path, "--out"]
        assert cli.main(argv + [str(tmp_path / "failed")]) == cli.EXIT_CONFIG
        assert "no space left on device" in capsys.readouterr().err
        assert [f for f in os.listdir(cache_dir) if stage in f] == []
        monkeypatch.undo()

        assert cli.main(argv + [str(tmp_path / "rerun")]) == cli.EXIT_OK
        clean_config = single_review_workspace(str(tmp_path / "clean"), dataset)
        clean = str(tmp_path / "clean_run")
        assert cli.main(["screen", "--config", clean_config, "--out", clean]) == cli.EXIT_OK
        for name in ("results_TORN.jsonl", "manifest.json"):
            assert slurp(os.path.join(tmp_path, "rerun", name)) == slurp(
                os.path.join(clean, name)
            )


def cached(cache_dir, stage):
    """The one artifact of ``stage`` in a single-review cache."""
    (name,) = [n for n in os.listdir(cache_dir) if n.startswith(f"{stage}-")]
    return os.path.join(cache_dir, name)


class TestNoVectorFile:
    def test_cold_screen_writes_no_vectors(self, tmp_path):
        dataset = synth.synth_review("NOVEC", 40, 10, k=3, seed=4)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        assert cli.main(["screen", "--config", config_path,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        names = os.listdir(tmp_path / "ws" / "cache")
        assert sorted(name.split("-")[0] for name in names) == [
            "cluster", "curate", "pool", "project", "responses.jsonl", "screen"]

    def test_deleted_points_are_embedded_again(self, tmp_path, monkeypatch):
        # An older cache holds an embed-* file of vectors at the embed key;
        # rebuilding the points must embed again, not read it.
        dataset = synth.synth_review("STRAY", 40, 10, k=3, seed=4)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_OK
        pipe = cli._pipeline_for(cli.PipelineConfig.load(config_path), "STRAY")
        ids = [r.id for r in dataset.records]
        stray = embedding.EmbeddingClient(embedding.EmbeddingProviderConfig(
            kind="hashed_tf", dim=7)).embed_batch([r.text for r in dataset.records], ids)
        embedding.write_vectors_jsonl(ids, stray, pipe.cache.path(pipe.keys()["embed"]))
        points_path = cached(pipe.cache.root, "project")
        points = slurp(points_path)
        os.unlink(points_path)

        kinds = []
        real = embedding.EmbeddingClient.embed_batch

        def record(self, texts, ids=None):
            kinds.append(self.config.kind)
            return real(self, texts, ids)

        monkeypatch.setattr(embedding.EmbeddingClient, "embed_batch", record)
        assert cli.main(["project", "--config", config_path]) == cli.EXIT_OK
        assert kinds == ["hashed_tf"]
        assert slurp(points_path) == points

    def test_embed_command_is_gone(self, ws, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["embed", "--config", ws])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "invalid choice: 'embed'" in capsys.readouterr().err


def test_fetch_command_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fetch", "12345", "--out", str(tmp_path / "out.jsonl")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "invalid choice: 'fetch'" in capsys.readouterr().err


def _cut_in_half(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _empty(path):
    open(path, "wb").close()


def _bad_byte(path):
    data = bytearray(slurp(path))
    data[len(data) // 2] = 0xFF
    with open(path, "wb") as fh:
        fh.write(data)


class TestDamagedArtifact:
    @pytest.fixture
    def warm_ws(self, tmp_path):
        """A single-review workspace whose cache a cold screen has filled."""
        dataset = synth.synth_review("DMG", 40, 10, k=3, seed=6)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        argv = ["screen", "--config", config_path, "--out", str(tmp_path / "cold")]
        assert cli.main(argv) == cli.EXIT_OK
        return config_path, str(tmp_path / "ws" / "cache")

    @staticmethod
    def dry_run_rebuilds(tmp_path, capsys, config_path, path, damage):
        """Damage ``path``; a dry run then reports it and writes it again.

        The dry run's stdout, and the file, are as they were before.
        """
        sealed = slurp(path)
        # A warm screen replays its memo; the dry run reads the stage artifacts.
        argv = ["screen", "--config", config_path, "--out", str(tmp_path / "warm"), "--dry-run"]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_OK
        clean = capsys.readouterr().out
        damage(path)
        assert cli.main(argv) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == f"artifact {path}: damaged or unsealed; building it again\n"
        assert out == clean
        assert slurp(path) == sealed

    @pytest.mark.parametrize("damage", [_cut_in_half, _empty, _bad_byte],
                             ids=["half", "empty", "non-utf8"])
    @pytest.mark.parametrize("stage", ["cluster", "pool"])
    def test_damaged_artifact_is_exit_2(self, tmp_path, capsys, warm_ws, stage, damage):
        # Since every artifact is sealed, a damaged one is a miss, not exit 2.
        config_path, cache_dir = warm_ws
        self.dry_run_rebuilds(tmp_path, capsys, config_path, cached(cache_dir, stage), damage)

    def test_curated_records_missing_an_exemplar_is_exit_2(self, tmp_path, capsys, warm_ws):
        # The cut fails the seal, so the records are curated again: no
        # PoolError (test_triage covers prompter's).
        config_path, cache_dir = warm_ws
        pipe = cli._pipeline_for(cli.PipelineConfig.load(config_path), "DMG")
        exemplar = pipe.pool()[0].ranked[0]["include"][0].record_id

        def drop_exemplar(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(line for line in lines
                              if not line.strip() or json.loads(line).get("id") != exemplar)

        path = cached(cache_dir, "curate")
        self.dry_run_rebuilds(tmp_path, capsys, config_path, path, drop_exemplar)



class TestEmptiedCuratedArtifact:
    def test_warm_screen_is_exit_2_naming_the_file(self, tmp_path, capsys):
        dataset = synth.synth_review("EMPTY", 40, 10, k=3, seed=6)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        cold = ["screen", "--config", config_path, "--out", str(tmp_path / "cold")]
        assert cli.main(cold) == cli.EXIT_OK
        path = cached(str(tmp_path / "ws" / "cache"), "curate")
        sealed = slurp(path)
        capsys.readouterr()
        # A warm screen replays its memo; sweep and the dry run read the
        # records.  An emptied artifact is a miss, curated again.
        for argv in (["sweep", "--config", config_path, "--out", str(tmp_path / "sweep")],
                     ["screen", "--config", config_path, "--out", str(tmp_path / "dry"),
                      "--dry-run"]):
            _empty(path)
            assert cli.main(argv) == cli.EXIT_OK
            assert capsys.readouterr().err == (
                f"artifact {path}: damaged or unsealed; building it again\n")
            assert slurp(path) == sealed
        assert os.path.exists(tmp_path / "sweep" / "sweep.csv")

    def test_a_review_curated_to_nothing_writes_no_artifact(self, tmp_path, capsys):
        blank = synth.synth_review("BLANK", 12, 4, k=3, seed=1)
        dataset = ReviewDataset("BLANK", [dataclasses.replace(r, abstract=" ")
                                          for r in blank.records])
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        for _ in range(2):
            argv = ["screen", "--config", config_path, "--out", str(tmp_path / "out")]
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: review BLANK: no records left after curation\n")
            assert os.listdir(tmp_path / "ws" / "cache") == []

def run_fresh(commands, module, loaded):
    """Run dfscreen ``commands`` in one new interpreter.

    Importing ``dfscreen.cli`` must not load ``module``; after each command
    it is loaded exactly when ``loaded`` says.
    """
    code = (
        "import json, sys\n"
        "from dfscreen import cli\n"
        "module, loaded = sys.argv[1], sys.argv[2] == 'loaded'\n"
        "assert module not in sys.modules, 'imported by dfscreen.cli'\n"
        "for argv in json.loads(sys.argv[3]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert (module in sys.modules) is loaded, argv\n"
    )
    src = os.path.dirname(os.path.dirname(dfscreen.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    state = "loaded" if loaded else "absent"
    proc = subprocess.run([sys.executable, "-c", code, module, state, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_offline_commands_never_import_http_client(tmp_path):
    dataset = synth.synth_review("OFFLINE", 12, 4, k=3, seed=3)
    config = ["--config", single_review_workspace(str(tmp_path / "ws"), dataset)]
    run_fresh([["screen", *config, "--out", str(tmp_path / "out")],
               ["evaluate", *config, "--results", str(tmp_path / "out")],
               ["sweep", *config, "--thresholds", "0.5,0.9", "--out", str(tmp_path / "sweep")]],
              "http.client", loaded=False)


def test_warm_commands_never_import_numpy(tmp_path):
    config_path = build_workspace(str(tmp_path / "ws"))
    config = ["--config", config_path]
    cold, warm, cheap = (str(tmp_path / name) for name in ("cold", "warm", "cheap"))
    assert cli.main(["screen", *config, "--out", cold]) == cli.EXIT_OK
    run_fresh([
        ["screen", *config, "--out", warm],
        ["evaluate", *config, "--results", warm],
        ["sweep", *config, "--thresholds", "0.5,0.9", "--out", str(tmp_path / "sweep")],
        ["screen", *config, "--out", str(tmp_path / "dry"), "--dry-run"],
        ["screen", *config, "--out", cheap, "--threshold", "0"],
        ["evaluate", *config, "--results", cheap],
        ["compare", "--run-a", os.path.join(cheap, "report.csv"),
         "--run-b", os.path.join(warm, "report.csv")],
        ["curate", *config, "--out", str(tmp_path / "curated")],
    ], "numpy", loaded=False)
    # Built from nothing, the vectors need numpy, and the results are the same.
    shutil.rmtree(tmp_path / "ws" / "cache")
    recold = str(tmp_path / "recold")
    run_fresh([["screen", *config, "--out", recold]], "numpy", loaded=True)
    for shape in SHAPES:
        name = f"results_{shape.review_id}.jsonl"
        assert slurp(os.path.join(recold, name)) == slurp(os.path.join(cold, name))


def test_synth_imports_numpy_only_to_write_records(tmp_path):
    # The benchmark worker imports synth before every measured pass.
    code = (
        "import sys\n"
        "from dfscreen import synth\n"
        "assert 'numpy' not in sys.modules, 'imported by dfscreen.synth'\n"
        "assert '_hashlib' not in sys.modules, 'imported by dfscreen.synth'\n"
        "synth.write_workspace(sys.argv[1])\n"
        "assert 'numpy' in sys.modules, 'records drawn without numpy'\n"
    )
    src = os.path.dirname(os.path.dirname(dfscreen.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ws")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestResponseLog:
    @pytest.fixture
    def one_review(self, tmp_path):
        dataset = synth.synth_review("TORN", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        cold = str(tmp_path / "cold")
        assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK
        log = os.path.join(str(tmp_path / "ws"), "cache", "responses.jsonl")
        return config_path, cold, log

    def test_torn_tail_at_every_byte_is_dropped_and_resent(
        self, one_review, tmp_path, capsys
    ):
        config_path, cold, log = one_review
        full = slurp(log)
        head = full[: full.rindex(b"\n", 0, len(full) - 1) + 1]
        last = full[len(head):]
        out = str(tmp_path / "warm")
        for cut in range(len(last)):
            with open(log, "wb") as fh:
                fh.write(head + last[:cut])
            capsys.readouterr()
            assert cli.main(["screen", "--config", config_path, "--out", out]) == cli.EXIT_OK
            assert ("dropped a torn last line" in capsys.readouterr().err) == (cut > 0)
            with open(os.path.join(out, "manifest.json")) as fh:
                ledger = json.load(fh)["ledger"]
            assert sum(e["call_count"] for e in ledger.values()) == 1
            assert slurp(os.path.join(out, "results_TORN.jsonl")) == slurp(
                os.path.join(cold, "results_TORN.jsonl")
            )
            assert slurp(log) == full

    def test_corrupt_line_is_exit_2(self, one_review, tmp_path, capsys):
        config_path, _, log = one_review
        lines = slurp(log).split(b"\n")
        lines[1] = b"{not json"
        with open(log, "wb") as fh:
            fh.write(b"\n".join(lines))
        capsys.readouterr()
        rc = cli.main(["screen", "--config", config_path, "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG
        assert f"{log}:2: corrupt response cache line" in capsys.readouterr().err

    @pytest.mark.parametrize("command,fail", [("screen", False), ("sweep", False),
                                              ("screen", True)],
                             ids=["screen", "sweep", "failed-screen"])
    def test_commands_close_the_log(self, ws, tmp_path, monkeypatch, command, fail):
        caches = []

        class Tracked(ResponseCache):
            closed = False

            def __init__(self, path):
                super().__init__(path)
                caches.append(self)

            def close(self):
                super().close()
                self.closed = True

        def explode(*args, **kwargs):
            raise RunError("9 of 80 records failed")

        monkeypatch.setattr(cli, "ResponseCache", Tracked)
        if fail:
            monkeypatch.setattr(cli.triage, "run_two_stage", explode)
            drop_memos(ws)
        rc = cli.main([command, "--config", ws, "--out", str(tmp_path / "out")])
        assert rc == (cli.EXIT_PROVIDER if fail else cli.EXIT_OK)
        assert len(caches) == 1 and caches[0].closed


class TestResponseCacheKey:
    def test_oracle_profile_change_misses_the_cache(self, tmp_path, monkeypatch):
        root = tmp_path / "ws"
        config_path = build_workspace(str(root))
        assert cli.main(["screen", "--config", config_path,
                         "--out", str(tmp_path / "cold")]) == cli.EXIT_OK
        with open(config_path) as fh:
            config = json.load(fh)
        config["provider"]["profile"]["p_hi"] = 0.2
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        config["cache_dir"] = "fresh_cache"
        fresh_config = str(root / "fresh.json")
        with open(fresh_config, "w") as fh:
            json.dump(config, fh)

        sent = []
        real_send = OracleProvider.send

        def counted(self, prompt_text, temperature, max_tokens, tags):
            sent.append(self.model_id)
            return real_send(self, prompt_text, temperature, max_tokens, tags)

        monkeypatch.setattr(OracleProvider, "send", counted)
        warm, fresh = str(tmp_path / "warm"), str(tmp_path / "fresh")
        assert cli.main(["screen", "--config", config_path, "--out", warm]) == cli.EXIT_OK
        stage1_model = cli.PipelineConfig.load(config_path).stage1["model"]
        with open(os.path.join(warm, "manifest.json")) as fh:
            records = sum(r["records"] for r in json.load(fh)["reviews"].values())
        assert sent.count(stage1_model) == records
        assert cli.main(["screen", "--config", fresh_config, "--out", fresh]) == cli.EXIT_OK
        for shape in SHAPES:
            name = f"results_{shape.review_id}.jsonl"
            assert slurp(os.path.join(warm, name)) == slurp(os.path.join(fresh, name))


class TestEmbedKey:
    def test_rewritten_vectors_file_is_embedded_again(self, tmp_path, capsys):
        dataset = synth.synth_review("VEC", 40, 10, k=3, seed=5)

        def workspace(name, scale):
            config_path = single_review_workspace(str(tmp_path / name), dataset)
            vectors = str(tmp_path / name / "vectors.jsonl")
            with open(config_path) as fh:
                raw = json.load(fh)
            raw["embedding"] = {"kind": "file_import", "path": "vectors.jsonl"}
            with open(config_path, "w") as fh:
                json.dump(raw, fh)
            write_vectors(vectors, scale)
            return config_path, vectors

        def write_vectors(path, scale):
            with open(path, "w", encoding="utf-8") as fh:
                for i, r in enumerate(dataset.records):
                    vector = [float(i % 7) * scale, float(i % 3), float(i) ** scale]
                    fh.write(json.dumps({"id": r.id, "vector": vector}) + "\n")

        def cluster(config_path):
            capsys.readouterr()
            assert cli.main(["cluster", "--config", config_path]) == cli.EXIT_OK
            return capsys.readouterr().out.splitlines()[0]

        config_path, vectors = workspace("ws", 1.0)
        before = cluster(config_path)
        write_vectors(vectors, 2.0)
        after = cluster(config_path)
        fresh_config, _ = workspace("fresh", 2.0)
        assert after == cluster(fresh_config)
        assert after != before

    def test_remote_url_is_in_the_key(self, tmp_path):
        dataset = synth.synth_review("URL", 12, 4, k=3, seed=3)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        with open(config_path) as fh:
            raw = json.load(fh)
        keys = set()
        for url in ("http://127.0.0.1:9/a", "http://127.0.0.1:9/b"):
            raw["embedding"] = {"kind": "remote_http", "model": "m", "url": url}
            cfg = cli.PipelineConfig(raw, base_dir=str(tmp_path / "ws"))
            keys.add(cli._pipeline_for(cfg, "URL").keys()["embed"])
        assert len(keys) == 2


class TestWarmPipeline:
    def test_warm_screen_never_reads_vectors(self, tmp_path, monkeypatch):
        config_path = build_workspace(str(tmp_path / "ws"))
        cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
        assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK

        def refuse(self, texts, ids=None):
            raise embedding.EmbeddingError(f"{self.config.kind} vectors requested")

        monkeypatch.setattr(embedding.EmbeddingClient, "embed_batch", refuse)
        assert cli.main(["screen", "--config", config_path, "--out", warm]) == cli.EXIT_OK
        for shape in SHAPES:
            name = f"results_{shape.review_id}.jsonl"
            assert slurp(os.path.join(warm, name)) == slurp(os.path.join(cold, name))
        cache_dir = cli.PipelineConfig.load(config_path).cache_dir
        assert [name for name in os.listdir(cache_dir) if name.startswith("embed-")] == []


class TestReproducibility:
    def test_warm_runs_are_byte_identical(self, tmp_path):
        config_path = build_workspace(str(tmp_path / "ws"))
        outs = [str(tmp_path / f"run{i}") for i in range(3)]
        for out in outs:
            assert cli.main(["screen", "--config", config_path, "--out", out]) == cli.EXIT_OK

        def slurp(out, name):
            with open(os.path.join(out, name), "rb") as fh:
                return fh.read()

        # Screening outcomes never depend on cache warmth.
        for shape in SHAPES:
            name = f"results_{shape.review_id}.jsonl"
            blobs = {slurp(out, name) for out in outs}
            assert len(blobs) == 1
        # Two warm runs agree byte for byte, manifest included.
        assert slurp(outs[1], "manifest.json") == slurp(outs[2], "manifest.json")
        # The cold manifest differs only in its ledger (calls vs cache hits).
        cold = json.loads(slurp(outs[0], "manifest.json"))
        warm = json.loads(slurp(outs[1], "manifest.json"))
        del cold["ledger"], warm["ledger"]
        assert cold == warm


class TestEvaluate:
    def test_report_written(self, ws, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(["screen", "--config", ws, "--out", out]) == cli.EXIT_OK
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", ws, "--results", out])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "macro F1:" in stdout
        with open(os.path.join(out, "report.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["review_id"] for r in rows] == ["REV-A", "REV-B", "REV-C"]
        for row in rows:
            assert 0.0 <= float(row["f1"]) <= 1.0
            assert float(row["usd_stage1"]) > 0.0
        with open(os.path.join(out, "report.json")) as fh:
            summary = json.load(fh)
        assert summary["reviews"] == ["REV-A", "REV-B", "REV-C"]
        assert 0.0 <= summary["macro"]["f1"] <= 1.0

    def test_missing_results_is_exit_4(self, ws, tmp_path, capsys):
        rc = cli.main(["evaluate", "--config", ws, "--results", str(tmp_path / "void")])
        assert rc == cli.EXIT_EVALUATION
        assert "evaluation error" in capsys.readouterr().err

    def test_results_cut_mid_line_is_exit_4(self, ws, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(["screen", "--config", ws, "--out", out]) == cli.EXIT_OK
        path = os.path.join(out, "results_REV-B.jsonl")
        lines = slurp(path).splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.write(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", ws, "--results", out])
        assert rc == cli.EXIT_EVALUATION
        assert f"{path}:{len(lines)}: unreadable result row" in capsys.readouterr().err


class TestSweep:
    def test_sweep_table(self, ws, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        rc = cli.main(["sweep", "--config", ws, "--thresholds", "0.5,0.9", "--out", out])
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(SHAPES) * 2
        by_review = {}
        for row in rows:
            by_review.setdefault(row["review_id"], []).append(
                (float(row["threshold"]), float(row["routed_ratio"]))
            )
        for pairs in by_review.values():
            assert pairs == sorted(pairs)
            ratios = [r for _, r in pairs]
            assert ratios == sorted(ratios)

    def test_review_id_with_a_comma_stays_one_field(self, tmp_path):
        dataset = synth.synth_review("A,B", 40, 10, k=3, seed=6)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        out = str(tmp_path / "sweep")
        argv = ["sweep", "--config", config_path, "--thresholds", "0.5,0.9", "--out", out]
        assert cli.main(argv) == cli.EXIT_OK
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["review_id"], float(row["threshold"])) for row in rows] == [
            ("A,B", 0.5), ("A,B", 0.9)]
        assert all(None not in row for row in rows)

    def test_failed_record_is_exit_3(self, ws, tmp_path, monkeypatch, capsys):
        dataset, _, _ = cli._pipeline_for(cli.PipelineConfig.load(ws), "REV-B").curated()
        victim = dataset.records[0].id
        real_complete = cli.triage.complete

        def flaky(prompt_text, provider, ledger, **kwargs):
            if kwargs["tags"]["record_id"] == victim:
                raise ProviderError("upstream down")
            return real_complete(prompt_text, provider, ledger, **kwargs)

        monkeypatch.setattr(cli.triage, "complete", flaky)
        rc = cli.main(["sweep", "--config", ws, "--out", str(tmp_path / "sweep")])
        assert rc == cli.EXIT_PROVIDER
        err = capsys.readouterr().err
        assert "provider failure" in err and victim in err

    def test_bad_threshold_list(self, ws, tmp_path, capsys):
        for thresholds in ("0.5,huge", "0.5,1.2", ","):
            rc = cli.main(
                ["sweep", "--config", ws, "--thresholds", thresholds, "--out", str(tmp_path)]
            )
            assert rc == cli.EXIT_CONFIG, thresholds
        assert "config error: no thresholds given" in capsys.readouterr().err

    def test_sweep_sends_each_prompt_once(self, tmp_path, monkeypatch):
        # One screen at the highest threshold: each record once to stage 1,
        # and to stage 2 only the records routed there.
        dataset = synth.synth_review("ONCE", 40, 10, k=3, seed=6)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        calls = []
        real_complete = cli.triage.complete

        def counting(prompt_text, provider, ledger, **kwargs):
            calls.append((provider.model_id, kwargs["tags"]["record_id"]))
            return real_complete(prompt_text, provider, ledger, **kwargs)

        monkeypatch.setattr(cli.triage, "complete", counting)
        argv = ["sweep", "--config", config_path, "--thresholds", "0.5,0.95,0.0,0.95",
                "--out", str(tmp_path / "sweep")]
        assert cli.main(argv) == cli.EXIT_OK
        monkeypatch.undo()
        out = tmp_path / "run"
        assert cli.main(["screen", "--config", config_path, "--out", str(out),
                         "--threshold", "0.95"]) == cli.EXIT_OK
        routed = sorted(r.record_id for r in read_results_jsonl(str(out / "results_ONCE.jsonl"))
                        if r.routed)
        assert 0 < len(routed) < len(dataset)
        assert len(calls) == len(set(calls)) == len(dataset) + len(routed)
        assert sorted(rid for model, rid in calls if model == "mini") == sorted(
            r.id for r in dataset.records)
        assert sorted(rid for model, rid in calls if model == "large") == routed


class TestCompare:
    def test_identical_runs_exit_4(self, ws, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(["screen", "--config", ws, "--out", out]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--config", ws, "--results", out]) == cli.EXIT_OK
        report = os.path.join(out, "report.csv")
        capsys.readouterr()
        rc = cli.main(["compare", "--run-a", report, "--run-b", report])
        assert rc == cli.EXIT_EVALUATION
        assert "runs identical" in capsys.readouterr().err

    def test_bad_integer_in_report_is_exit_4(self, ws, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(["screen", "--config", ws, "--out", out]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--config", ws, "--results", out]) == cli.EXIT_OK
        report = os.path.join(out, "report.csv")
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][rows[0].index("tp")] = "x"
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        rc = cli.main(["compare", "--run-a", report, "--run-b", bad])
        assert rc == cli.EXIT_EVALUATION
        assert f"{bad}:3: unreadable row" in capsys.readouterr().err

    def test_compare_two_runs(self, ws, tmp_path, capsys):
        out_a = str(tmp_path / "cascade")
        out_b = str(tmp_path / "cheap")
        assert cli.main(["screen", "--config", ws, "--out", out_a]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--config", ws, "--results", out_a]) == cli.EXIT_OK
        assert cli.main(
            ["screen", "--config", ws, "--out", out_b, "--threshold", "0"]
        ) == cli.EXIT_OK
        assert cli.main(["evaluate", "--config", ws, "--results", out_b]) == cli.EXIT_OK
        capsys.readouterr()
        rc = cli.main(
            [
                "compare",
                "--run-a",
                os.path.join(out_b, "report.csv"),
                "--run-b",
                os.path.join(out_a, "report.csv"),
            ]
        )
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "macro F1:" in stdout
        assert "paired t:" in stdout


def spoil(path):
    """Put a byte that is never UTF-8 into the second line of a file."""
    data = slurp(path)
    cut = data.index(b"\n") + 2
    with open(path, "wb") as fh:
        fh.write(data[:cut] + b"\xff" + data[cut:])


class TestNonUtf8Input:
    @pytest.fixture
    def one_review(self, tmp_path):
        dataset = synth.synth_review("BYTES", 30, 8, k=3, seed=4)
        return dataset, single_review_workspace(str(tmp_path / "ws"), dataset)

    def configure(self, config_path, **changes):
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        config.update(changes)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def write_rows(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)

    @pytest.mark.parametrize("target", [
        "dataset-jsonl", "dataset-csv", "criteria", "points", "vectors", "report",
    ])
    def test_bad_byte_exits_with_its_code_and_names_the_file(
        self, one_review, tmp_path, capsys, target
    ):
        dataset, config_path = one_review
        root = os.path.dirname(config_path)
        argv = ["screen", "--config", config_path, "--out", str(tmp_path / "out")]
        code = cli.EXIT_CONFIG
        if target == "dataset-jsonl":
            path = os.path.join(root, "data.jsonl")
        elif target == "dataset-csv":
            path = os.path.join(root, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "title", "abstract", "gold_label"])
                writer.writerows((r.id, r.title, r.abstract, r.gold_label)
                                 for r in dataset.records)
            review = {"dataset": "data.csv", "criteria": "criteria.txt", "k": 3}
            self.configure(config_path, reviews={"BYTES": review})
        elif target == "criteria":
            path = os.path.join(root, "criteria.txt")
        elif target == "points":
            path = os.path.join(root, "points.jsonl")
            self.write_rows(path, ({"id": r.id, "x": float(i), "y": float(i % 7)}
                                   for i, r in enumerate(dataset.records)))
            self.configure(config_path, projection={"method": "import", "path": path})
        elif target == "vectors":
            path = os.path.join(root, "vectors.jsonl")
            self.write_rows(path, ({"id": r.id, "vector": [float(i), float(i % 5), 1.0]}
                                   for i, r in enumerate(dataset.records)))
            self.configure(config_path, embedding={"kind": "file_import", "path": path})
        else:
            path = str(tmp_path / "report.csv")
            report = evaluation.MetricsReport([
                evaluation.ReviewMetrics(rid, 1, 0, 0, 1, 1.0, 1.0, f1, 1.0, 0.0, 0.0, 0.0)
                for rid, f1 in (("R1", 0.5), ("R2", 0.7))
            ])
            evaluation.write_report(report, path)
            argv = ["compare", "--run-a", path, "--run-b", path]
            code = cli.EXIT_EVALUATION
        spoil(path)
        assert cli.main(argv) == code
        assert path in capsys.readouterr().err


class TestRepeatedKey:
    """A row file whose object repeats a key fails with its command's code."""

    @pytest.mark.parametrize("target,what", [
        ("points", "bad point row"), ("vectors", "bad vector row"),
    ])
    def test_imported_file_is_exit_2(self, tmp_path, capsys, target, what):
        dataset = synth.synth_review("DUPKEY", 30, 8, k=3, seed=4)
        config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
        path = str(tmp_path / f"{target}.jsonl")
        if target == "points":
            rows = [{"id": r.id, "x": float(i), "y": float(i % 7)}
                    for i, r in enumerate(dataset.records)]
            section = {"projection": {"method": "import", "path": path}}
        else:
            rows = [{"id": r.id, "vector": [float(i), float(i % 5), 1.0]}
                    for i, r in enumerate(dataset.records)]
            section = {"embedding": {"kind": "file_import", "path": path}}
        lines = [json.dumps(row) for row in rows]
        lines[1] = '{"id": "other", ' + lines[1][1:]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({**config, **section}, fh)
        argv = ["screen", "--config", config_path, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"{path}:2: {what}: duplicate key 'id'" in capsys.readouterr().err

    def test_results_file_is_exit_4(self, ws, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(["screen", "--config", ws, "--out", out]) == cli.EXIT_OK
        path = os.path.join(out, "results_REV-B.jsonl")
        lines = slurp(path).splitlines(keepends=True)
        lines[2] = b'{"final": "exclude", ' + lines[2][1:]
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", ws, "--results", out])
        assert rc == cli.EXIT_EVALUATION
        assert f"{path}:3: unreadable result row: duplicate key 'final'" in capsys.readouterr().err


class TestHttpEndpoints:
    """``provider.kind: http`` and ``embedding.kind: remote_http`` against a loopback stub."""

    @staticmethod
    def workspace(root, chat_url, embeddings_url, n=30):
        dataset = synth.synth_review("HTTP", n, n // 4, k=3, seed=3)
        config_path = single_review_workspace(root, dataset)
        raw = json.loads(slurp(config_path))
        raw.update(provider={"kind": "http"},
                   stage1={"model": "mini", "url": chat_url},
                   stage2={"model": "large", "url": chat_url},
                   embedding={"kind": "remote_http", "model": "enc", "url": embeddings_url})
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        return ["--config", config_path]

    def stub_workspace(self, tmp_path, stub, n=30):
        return self.workspace(str(tmp_path / "ws"), stub.url("/v1/chat/completions"),
                              stub.url("/v1/embeddings"), n)

    def test_warm_screen_and_sweep_send_nothing_and_replay_bytes(self, tmp_path, stub):
        config = self.stub_workspace(tmp_path, stub)
        runs = [str(tmp_path / f"run{i}") for i in range(3)]
        sweeps = [str(tmp_path / f"sweep{i}") for i in range(2)]
        sweep = ["sweep", *config, "--thresholds", "0.5,0.95"]
        assert cli.main([*sweep, "--out", sweeps[0]]) == cli.EXIT_OK
        paths = [seen.path for seen in stub.received]
        assert paths[0] == "/v1/embeddings" and paths.count("/v1/embeddings") == 1
        assert len(paths) > 30  # every record at stage 1, the unsure ones at stage 2
        # Every record the config's threshold routes, the sweep's top one did.
        for out in runs:
            assert cli.main(["screen", *config, "--out", out]) == cli.EXIT_OK
        assert cli.main([*sweep, "--out", sweeps[1]]) == cli.EXIT_OK
        assert len(stub.received) == len(paths)
        ledger = json.loads(slurp(os.path.join(runs[0], "manifest.json")))["ledger"]
        assert (ledger["mini"]["call_count"], ledger["mini"]["cache_hits"]) == (0, 30)
        results = {slurp(os.path.join(out, "results_HTTP.jsonl")) for out in runs}
        assert len(results) == 1
        assert slurp(os.path.join(runs[1], "manifest.json")) == slurp(
            os.path.join(runs[2], "manifest.json"))
        assert len({slurp(os.path.join(out, "sweep.csv")) for out in sweeps}) == 1

    def test_refusing_chat_endpoint_is_exit_3_within_the_budget(self, tmp_path, stub, capsys):
        # A 400 is not retried, so no backoff is slept; test_triage bounds the
        # sends of a transient failure with an injected sleep.
        config = self.stub_workspace(tmp_path, stub, n=9)  # a budget of 0 records
        assert cli.main(["project", *config]) == cli.EXIT_OK
        embedded = len(stub.received)
        stub.always = Reply(status=400, body=b"bad request")
        assert cli.main(["screen", *config, "--out", str(tmp_path / "out")]) == cli.EXIT_PROVIDER
        err = capsys.readouterr().err
        assert err.startswith("provider failure: 1 of 9 records failed")
        assert "HTTP 400: bad request" in err
        assert len(stub.received) - embedded == 1

    @pytest.mark.parametrize("entry", [None, "1e999"], ids=["null", "1e999"])
    def test_non_finite_embedding_is_exit_2(self, tmp_path, stub, capsys, entry):
        config = self.stub_workspace(tmp_path, stub)
        data = [{"embedding": [float(i), float(i % 3)]} for i in range(30)]
        data[7] = {"embedding": [entry, 1.0]}
        stub.script.append(Reply(body={"data": data}))
        assert cli.main(["project", *config]) == cli.EXIT_CONFIG
        [seen] = stub.received
        assert len(seen.body["input"]) == len(data)
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed embedding response: "), err
        assert "Traceback" not in err

    def test_dead_embedding_endpoint_is_exit_3(self, tmp_path, capsys):
        config = self.workspace(str(tmp_path / "ws"), closed_url("/v1/chat/completions"),
                                closed_url("/v1/embeddings"))
        assert cli.main(["project", *config]) == cli.EXIT_PROVIDER
        err = capsys.readouterr().err
        assert err.startswith("provider failure: transport error:")
        assert "refused" in err
