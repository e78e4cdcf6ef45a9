from __future__ import annotations

import math
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

from dfscreen import synth
from dfscreen.clustering import kmeans
from dfscreen.corpus import EXCLUDE, INCLUDE
from dfscreen.embedding import EmbeddingClient, EmbeddingProviderConfig
from dfscreen.exemplar_pool import Exemplar, ExemplarPool, build_pool
from dfscreen.gateway import OracleProfile, OracleProvider, ProviderError, estimate_tokens
from dfscreen.projection import project_2d


@dataclass
class ScriptedProvider:
    """Queue-driven provider for tests: strings respond, exceptions raise."""

    model_id: str
    script: list = field(default_factory=list)
    report_usage: bool = True
    calls: list = field(default_factory=list)

    def send(self, prompt_text, temperature, max_tokens, tags):
        self.calls.append({"prompt": prompt_text, "temperature": temperature, "tags": tags})
        if not self.script:
            raise ProviderError(f"{self.model_id}: script exhausted")
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        text = str(item)
        if self.report_usage:
            return text, estimate_tokens(prompt_text), estimate_tokens(text)
        return text, None, None


def oracle_provider(
    gold: dict[str, str], profile: OracleProfile, seed: int, model_id: str = "oracle"
) -> OracleProvider:
    return OracleProvider(model_id=model_id, gold=gold, profile=profile, seed=seed)


def routed_ratio(results) -> float:
    if not results:
        raise ValueError("no results")
    return sum(1 for r in results if r.routed) / len(results)


def build_pipeline(dataset, k, seed=0, dim=32):
    """Embed, project, cluster, and pool a labeled dataset for tests."""
    ids = [r.id for r in dataset.records]
    client = EmbeddingClient(EmbeddingProviderConfig(kind="hashed_tf", dim=dim))
    vectors = client.embed_batch([r.text for r in dataset.records], ids)
    points = project_2d(ids, vectors, method="pca")
    clustering = kmeans(points, k, seed)
    pool = build_pool(dataset, clustering, points)
    return points, clustering, pool


def full_pool(dataset, clustering, points):
    """Reference pool: every labeled record ranked against every cluster.

    Same key as ``build_pool`` (in-cluster first, then distance, then id)
    but nothing cut, like the pools older caches hold.
    """
    ranked = {}
    for cluster in range(clustering.k):
        cx, cy = clustering.centroids[cluster]
        scored = sorted(
            (clustering.assignment[r.id] != cluster,
             math.hypot(points[r.id].x - cx, points[r.id].y - cy), r.id, r.gold_label)
            for r in dataset.records if r.gold_label in (INCLUDE, EXCLUDE)
        )
        ranked[cluster] = {
            label: [Exemplar(rid, label, cluster, d) for _, d, rid, lab in scored
                    if lab == label]
            for label in (INCLUDE, EXCLUDE)
        }
    return ExemplarPool(ranked)


@pytest.fixture
def small_dataset():
    return synth.synth_review("SMALL", 60, 15, k=4, seed=11)


@pytest.fixture
def small_pipeline(small_dataset):
    points, clustering, pool = build_pipeline(small_dataset, k=4, seed=3)
    return small_dataset, points, clustering, pool
