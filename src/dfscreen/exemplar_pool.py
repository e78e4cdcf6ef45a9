"""Per-cluster exemplar pools for dynamic few-shot selection.

For each cluster and label we rank the candidates by closeness to that
cluster's centroid, in-cluster candidates ahead of spill-ins from other
clusters.  Selection for a target record walks its cluster's ranked lists,
skipping the target itself so a record can never appear as its own worked
example.  It thus never reads past a list's 2nd include or 3rd exclude, and
the pool keeps only that prefix; an older cache's full-length pool selects
the same.  A record's cluster comes from the clustering: the pool keeps no
copy, and ignores the one an older pool artifact carries.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import astuple, dataclass

from .clustering import Clustering, nearest_centroid
from .corpus import EXCLUDE, INCLUDE, ReviewDataset
from .projection import Point2D


WANT = {INCLUDE: 1, EXCLUDE: 2}  # exemplars per target, include first


class PoolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Exemplar:
    """A labeled record serving as a worked example."""

    record_id: str
    label: str
    cluster: int
    distance: float  # to the centroid of the cluster it serves


@dataclass
class ExemplarPool:
    """Reachable ranked candidates per (cluster, label).

    Selection is told the target's cluster; the pool does not know it.
    """

    ranked: dict[int, dict[str, list[Exemplar]]]

    def select_instances(self, target_id: str | None, cluster: int) -> list[Exemplar]:
        """Exemplars for one target in ``cluster``: include first, then two excludes.

        The target record is skipped wherever it appears, and no record
        is used twice within the selection.  With ``target_id`` None it is
        the pick of every target outside it.
        """
        if cluster not in self.ranked:
            raise PoolError(f"no candidates ranked for cluster {cluster}")
        used = {target_id}
        chosen = []
        for label, want in WANT.items():
            got = 0
            for cand in self.ranked[cluster][label]:
                if cand.record_id in used:
                    continue
                chosen.append(cand)
                used.add(cand.record_id)
                got += 1
                if got == want:
                    break
            if got < want:
                raise PoolError(
                    f"pool unconstructible: need {want} {label} exemplar(s) "
                    f"for target {target_id!r} in cluster {cluster}, found {got}"
                )
        return chosen

    def to_json(self) -> str:
        """The pool artifact: each exemplar is the row of its fields, in order."""
        ranked = {
            str(c): {lab: [astuple(e) for e in lst] for lab, lst in by_label.items()}
            for c, by_label in self.ranked.items()
        }
        return json.dumps({"ranked": ranked}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExemplarPool":
        """Load a pool artifact; an older one's ``"assignment"`` key is ignored."""
        obj = json.loads(text)
        ranked = {
            int(c): {lab: [Exemplar(*row) for row in rows] for lab, rows in by_label.items()}
            for c, by_label in obj["ranked"].items()
        }
        return cls(ranked)


def cluster_of(target_id: str, clustering: Clustering, points: dict[str, Point2D]) -> int:
    """The cluster a target's exemplars come from.

    A record that was part of the clustering uses its assignment there;
    anything else (a fresh, unclustered record) is placed by nearest
    centroid from its projected point.
    """
    cluster = clustering.assignment.get(target_id)
    if cluster is None:
        import numpy as np
        if target_id not in points:
            raise PoolError(
                f"cannot place target {target_id!r}: not clustered and no point"
            )
        cluster = nearest_centroid(np.array(points[target_id]),
                                   np.array(clustering.centroids))
    return cluster


def select_instances(
    target,
    pool: ExemplarPool,
    clustering: Clustering,
    points: dict[str, Point2D],
) -> list[Exemplar]:
    """Exemplars for ``target``, in the cluster ``cluster_of`` places it in."""
    target_id = target if isinstance(target, str) else target.id
    return pool.select_instances(target_id, cluster_of(target_id, clustering, points))


def build_pool(
    dataset: ReviewDataset,
    clustering: Clustering,
    points: dict[str, Point2D],
) -> ExemplarPool:
    """Rank every labeled record against every cluster centroid.

    Any record carrying a gold label may serve as an exemplar.  A list
    keeps one more than ``WANT`` asks for, as the target may take a place.
    """
    candidates = [r for r in dataset.records if r.gold_label in WANT]
    if not candidates:
        raise PoolError("pool unconstructible: no labeled records")
    for rec in candidates:
        if rec.id not in points:
            raise PoolError(f"no projected point for labeled record {rec.id!r}")
        if rec.id not in clustering.assignment:
            raise PoolError(f"no cluster assignment for labeled record {rec.id!r}")

    ranked: dict[int, dict[str, list[Exemplar]]] = {}
    for cluster in range(clustering.k):
        cx, cy = clustering.centroids[cluster]
        ranked[cluster] = {}
        for label, want in WANT.items():
            best = heapq.nsmallest(want + 1, (
                (clustering.assignment[rec.id] != cluster,
                 math.hypot(points[rec.id].x - cx, points[rec.id].y - cy), rec.id)
                for rec in candidates if rec.gold_label == label
            ))
            ranked[cluster][label] = [
                Exemplar(record_id=rid, label=label, cluster=cluster, distance=dist)
                for _, dist, rid in best
            ]
    return ExemplarPool(ranked)
