"""A warm ``screen`` that runs the cascade: the memos removed first.

A warm ``screen`` whose ``screen-*`` memo matches replays it and never
selects exemplars, renders or parses.  The tests below screen warm after
``drop_memos``, so the cascade runs over a warm response log and warm
stage artifacts, and each checks that it did run: its exemplar selection
bound, pools rewritten at their key, and byte identity across runs.
"""

from __future__ import annotations

import json
import os

import pytest

from dfscreen import cli, synth
from dfscreen.exemplar_pool import ExemplarPool

from conftest import full_pool
from test_cli import SHAPES, build_workspace, drop_memos, slurp
from test_prompt_heads import WARM_REPLAY_REVIEWS


@pytest.fixture
def cascades(monkeypatch):
    """The ids of the reviews ``screen`` sent through the cascade, in order."""
    reviews = []
    real = cli._screen_review

    def counted(pipe, *args):
        reviews.append(pipe.review_id)
        return real(pipe, *args)

    monkeypatch.setattr(cli, "_screen_review", counted)
    return reviews


def warm_screen(config_path, out, cascades):
    """Screen with the memos removed; assert every review ran the cascade."""
    drop_memos(config_path)
    del cascades[:]
    assert cli.main(["screen", "--config", config_path, "--out", out]) == cli.EXIT_OK
    assert sorted(cascades) == sorted(cli.PipelineConfig.load(config_path).reviews)


def test_warm_cascade_selects_once_per_cluster(tmp_path, monkeypatch, cascades):
    config_path = synth.write_workspace(str(tmp_path / "ws"), seed=0)
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["reviews"] = {rid: config["reviews"][rid] for rid in WARM_REPLAY_REVIEWS}
    config["parallelism"] = 1
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK

    calls = []
    real = ExemplarPool.select_instances

    def counted(self, target_id, cluster):
        calls.append(target_id)
        return real(self, target_id, cluster)

    monkeypatch.setattr(ExemplarPool, "select_instances", counted)
    warm_screen(config_path, warm, cascades)
    # test_prompt_heads derives this bound: one pick per cluster, plus one
    # for each target inside its cluster's pick.
    assert 0 < len(calls) <= 144
    for rid in WARM_REPLAY_REVIEWS:
        name = f"results_{rid}.jsonl"
        assert slurp(os.path.join(cold, name)) == slurp(os.path.join(warm, name))


def test_warm_cascade_over_full_length_pools_is_byte_identical(tmp_path, cascades):
    config_path = build_workspace(str(tmp_path / "ws"))
    cut, full = str(tmp_path / "cut"), str(tmp_path / "full")
    cold = str(tmp_path / "cold")
    assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK
    warm_screen(config_path, cut, cascades)
    cfg = cli.PipelineConfig.load(config_path)
    for _, pipe in cli._pipelines(cfg):
        clus, _ = pipe.clustering()
        pool, pool_key = pipe.pool()
        longer = full_pool(pipe.curated()[0], clus, pipe.points()[0])
        assert any(len(longer.ranked[c][label]) > len(lst)
                   for c, by_label in pool.ranked.items()
                   for label, lst in by_label.items())
        pipe.cache.write_text(pool_key, longer.to_json())
    warm_screen(config_path, full, cascades)
    assert sorted(os.listdir(full)) == sorted(os.listdir(cut))
    for name in os.listdir(cut):
        assert slurp(os.path.join(full, name)) == slurp(os.path.join(cut, name))


def test_warm_cascade_over_pools_with_assignment_map_is_byte_identical(tmp_path, cascades):
    """Pool artifacts that also carry the clustering's map, as older ones do."""
    config_path = build_workspace(str(tmp_path / "ws"))
    plain, mapped = str(tmp_path / "plain"), str(tmp_path / "mapped")
    cold = str(tmp_path / "cold")
    assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK
    warm_screen(config_path, plain, cascades)
    cfg = cli.PipelineConfig.load(config_path)
    for _, pipe in cli._pipelines(cfg):
        clus, _ = pipe.clustering()
        _, pool_key = pipe.pool()
        older = json.loads(pipe.cache.read_text(pool_key))
        assert "assignment" not in older
        older["assignment"] = clus.assignment
        pipe.cache.write_text(pool_key, json.dumps(older, sort_keys=True))
    log = os.path.join(cfg.cache_dir, "responses.jsonl")
    logged = slurp(log)
    warm_screen(config_path, mapped, cascades)
    assert slurp(log) == logged
    assert sorted(os.listdir(mapped)) == sorted(os.listdir(plain))
    for name in os.listdir(plain):
        assert slurp(os.path.join(mapped, name)) == slurp(os.path.join(plain, name))


def test_warm_cascade_runs_are_byte_identical(tmp_path, cascades):
    config_path = build_workspace(str(tmp_path / "ws"))
    cold, *warm = [str(tmp_path / f"run{i}") for i in range(3)]
    assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK
    for out in warm:
        warm_screen(config_path, out, cascades)
    memo = str(tmp_path / "memo")
    del cascades[:]
    assert cli.main(["screen", "--config", config_path, "--out", memo]) == cli.EXIT_OK
    assert cascades == []
    for shape in SHAPES:
        name = f"results_{shape.review_id}.jsonl"
        assert len({slurp(os.path.join(out, name)) for out in (cold, *warm, memo)}) == 1
    # Two warm cascades agree byte for byte, manifest included, and the
    # memo's replay reports the same manifest as they do.
    manifests = [slurp(os.path.join(out, "manifest.json")) for out in (*warm, memo)]
    assert len(set(manifests)) == 1
    # The cold manifest differs only in its ledger (calls vs cache hits).
    cold_manifest = json.loads(slurp(os.path.join(cold, "manifest.json")))
    warm_manifest = json.loads(manifests[0])
    del cold_manifest["ledger"], warm_manifest["ledger"]
    assert cold_manifest == warm_manifest
