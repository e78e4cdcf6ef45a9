"""Prompts built on kept heads equal prompts rendered whole.

``reference_prompts`` is the prompter and render the pipeline had
before heads were kept: every dfsl target selects its own exemplars and
every prompt is filled in full.  The prompts ``triage.prompter`` gives
must match it byte for byte, for every strategy, including targets that
are exemplars of their own cluster and a target placed by nearest
centroid; their digest must be the sha256 of the text, and the cache key
``complete`` looks up must be ``ResponseCache.key`` of the text.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import pytest

from dfscreen import cli, prompting, synth, triage
from dfscreen.clustering import Clustering
from dfscreen.exemplar_pool import ExemplarPool, select_instances
from dfscreen.gateway import OracleProfile, OracleProvider, ResponseCache
from dfscreen.prompting import Strategy, static_instances

from conftest import build_pipeline
from test_cli import slurp

FIELDS = re.compile(r"\{(criteria|title|abstract|instances)\}")
TEMPLATES = {
    Strategy.ZERO_SHOT: prompting.ZERO_SHOT_TEMPLATE,
    Strategy.CHAIN_OF_THOUGHT: prompting.CHAIN_OF_THOUGHT_TEMPLATE,
    Strategy.FEW_SHOT: prompting.FEW_SHOT_TEMPLATE,
    Strategy.DYNAMIC_FEW_SHOT: prompting.DYNAMIC_FEW_SHOT_TEMPLATE,
}


def reference_render(strategy, criteria, record, instances) -> str:
    values = {"criteria": criteria, "title": record.title, "abstract": record.abstract}
    if instances:
        values["instances"] = "\n\n".join(
            f"Title: {rec.title}\nAbstract: {rec.abstract}\nDecision: {label}"
            for rec, label in instances
        )
    parts = FIELDS.split(TEMPLATES[strategy])
    parts[1::2] = [values[name] for name in parts[1::2]]
    return "".join(parts)


def reference_prompts(strategy, criteria, dataset, seed, exemplars) -> dict[str, str]:
    by_id = dataset.by_id()
    shared = static_instances(dataset, seed) if strategy is Strategy.FEW_SHOT else None
    out = {}
    for record in dataset.records:
        instances = shared
        if strategy is Strategy.DYNAMIC_FEW_SHOT:
            instances = [(by_id[e.record_id], e.label)
                         for e in select_instances(record, *exemplars)]
        out[record.id] = reference_render(strategy, criteria, record, instances)
    return out


@pytest.fixture(scope="module", params=[0, 7], ids=["seed0", "seed7"])
def review(request):
    """(dataset, criteria, seed, exemplars); one record is left unclustered."""
    seed = request.param
    dataset = synth.synth_review(f"HEADS{seed}", 160, 40, k=4, seed=seed)
    points, clustering, pool = build_pipeline(dataset, k=4, seed=seed)
    in_pools = {e.record_id for by_label in pool.ranked.values()
                for ranked in by_label.values() for e in ranked}
    fresh = next(r.id for r in reversed(dataset.records) if r.id not in in_pools)
    assignment = {rid: c for rid, c in clustering.assignment.items() if rid != fresh}
    clustering = Clustering(clustering.k, clustering.centroids, assignment, clustering.inertia)
    return dataset, synth.synth_criteria(dataset.review_id), seed, (pool, clustering, points)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_prompts_equal_whole_renders(review, strategy):
    dataset, criteria, seed, exemplars = review
    dynamic = strategy is Strategy.DYNAMIC_FEW_SHOT
    prompt_for = triage.prompter(strategy, criteria, dataset, seed,
                                 exemplars if dynamic else None)
    reference = reference_prompts(strategy, criteria, dataset, seed, exemplars)
    for record in dataset.records:
        prompt = prompt_for(record)
        assert prompt.text == reference[record.id], record.id
        assert prompt.digest == hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()
        assert prompt.strategy is strategy


def test_the_cases_are_covered(review):
    dataset, _, _, (pool, clustering, _) = review
    unclustered = [r.id for r in dataset.records if r.id not in clustering.assignment]
    own = [r.id for r in dataset.records if r.id in clustering.assignment and r.id in {
        e.record_id for e in pool.select_instances(None, clustering.assignment[r.id])}]
    assert len(unclustered) == 1
    assert own



def test_a_list_of_instances_is_rendered_as_it_is_now(review):
    dataset, criteria, _, _ = review
    target, *records = dataset.records[:5]
    instances = [(records[0], "include"), (records[1], "exclude"), (records[2], "exclude")]
    for _ in range(2):
        prompt = prompting.render(Strategy.FEW_SHOT, criteria, target, instances)
        assert prompt.text == reference_render(Strategy.FEW_SHOT, criteria, target, instances)
        instances[0] = (records[3], "include")


def test_kept_heads_follow_strategy_and_criteria(review):
    dataset, criteria, _, _ = review
    shared = prompting.Instances(static_instances(dataset, 0))
    for strategy, text in [(Strategy.FEW_SHOT, criteria), (Strategy.FEW_SHOT, "Other."),
                           (Strategy.DYNAMIC_FEW_SHOT, "Other."), (Strategy.FEW_SHOT, criteria)]:
        for record in dataset.records[:3]:
            prompt = prompting.render(strategy, text, record, shared)
            assert prompt.text == reference_render(strategy, text, record, shared)
            assert prompt.digest == hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()
    with pytest.raises(prompting.PromptError, match="does not take instances"):
        prompting.render(Strategy.ZERO_SHOT, criteria, dataset.records[0], shared)


class KeyLog(ResponseCache):
    """An in-memory cache that remembers every key looked up."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return super().get(key)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_cache_keys_are_the_keys_of_the_text(review, strategy, monkeypatch):
    dataset, criteria, seed, exemplars = review
    reference = set(reference_prompts(strategy, criteria, dataset, seed, exemplars).values())
    gold = {r.id: r.gold_label for r in dataset.records}
    profile = OracleProfile(0.95, 0.75, 0.5)
    s1, s2 = (OracleProvider(m, gold, profile, seed) for m in ("s1", "s2"))
    sent = []
    real_complete = triage.complete

    def complete(prompt_text, provider, *args, **kwargs):
        sent.append(ResponseCache.key(prompt_text, provider.identity, 0.0))
        assert prompt_text in reference
        return real_complete(prompt_text, provider, *args, **kwargs)

    monkeypatch.setattr(triage, "complete", complete)
    cache = KeyLog()
    if strategy is Strategy.DYNAMIC_FEW_SHOT:
        cfg = triage.RunConfig("s1", "s2", seed=seed, parallelism=1)
        triage.run_two_stage(dataset, *exemplars, cfg, s1, s2, criteria, cache=cache)
    else:
        triage.run_single_stage(dataset, strategy, s1, criteria, seed=seed,
                                parallelism=1, cache=cache)
    assert len(sent) >= len(dataset)
    assert cache.keys == sent


# The reviews the benchmark's warm_replay workload screens: all but the
# two largest of the synthetic workspace.
WARM_REPLAY_REVIEWS = ("CD004414", "CD011420", "CD011431", "CD011977",
                       "CD012069", "CD012233", "CD012551", "CD012768")


def test_warm_screen_selects_once_per_cluster(tmp_path, monkeypatch):
    config_path = synth.write_workspace(str(tmp_path / "ws"), seed=0)
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["reviews"] = {rid: config["reviews"][rid] for rid in WARM_REPLAY_REVIEWS}
    config["parallelism"] = 1
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    assert cli.main(["screen", "--config", config_path, "--out", cold]) == cli.EXIT_OK

    # One pick per cluster, plus one for each target inside its cluster's pick.
    cfg = cli.PipelineConfig.load(config_path)
    bound = 0
    for rid in sorted(cfg.reviews):
        pipe = cli._pipeline_for(cfg, rid)
        pool, clustering, _ = pipe.exemplars()
        picks = {}
        for record in pipe.curated()[0].records:
            cluster = clustering.assignment[record.id]
            if cluster not in picks:
                picks[cluster] = {e.record_id for e in pool.select_instances(None, cluster)}
            bound += record.id in picks[cluster]
        bound += len(picks)
    assert bound == 144

    calls = []
    real = ExemplarPool.select_instances

    def counted(self, target_id, cluster):
        calls.append(target_id)
        return real(self, target_id, cluster)

    monkeypatch.setattr(ExemplarPool, "select_instances", counted)
    assert cli.main(["screen", "--config", config_path, "--out", warm]) == cli.EXIT_OK
    assert len(calls) <= bound
    for rid in WARM_REPLAY_REVIEWS:
        name = f"results_{rid}.jsonl"
        assert slurp(os.path.join(cold, name)) == slurp(os.path.join(warm, name))
