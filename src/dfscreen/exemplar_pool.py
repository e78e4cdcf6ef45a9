"""Per-cluster exemplar pools for dynamic few-shot selection.

For each cluster and label we keep the full candidate list ranked by
closeness to that cluster's centroid, in-cluster candidates ahead of
spill-ins from other clusters.  Selection for a target record walks the
ranked lists, skipping the target itself so a record can never appear as
its own worked example.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, nearest_centroid
from .corpus import EXCLUDE, INCLUDE, ReviewDataset
from .projection import Point2D


class PoolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Exemplar:
    """A labeled record serving as a worked example."""

    record_id: str
    label: str
    cluster: int
    distance: float  # to the centroid of the cluster it serves

    def key(self) -> tuple:
        return (self.record_id, self.label, self.cluster, self.distance)


@dataclass
class ExemplarPool:
    """Ranked candidate lists per (cluster, label), plus the assignment map."""

    ranked: dict[int, dict[str, list[Exemplar]]]
    assignment: dict[str, int]

    def nominal(self, cluster: int) -> list[Exemplar]:
        """The cluster's headline exemplars: best include, two best excludes."""
        inc = self.ranked[cluster][INCLUDE][:1]
        exc = self.ranked[cluster][EXCLUDE][:2]
        if len(inc) < 1 or len(exc) < 2:
            raise PoolError(
                f"pool unconstructible: cluster {cluster} has "
                f"{len(inc)} include and {len(exc)} exclude candidates"
            )
        return inc + exc

    def select_instances(self, target_id: str) -> list[Exemplar]:
        """Exemplars for one target: include first, then two excludes.

        The target record is skipped wherever it appears, and no record
        is used twice within the selection.
        """
        if target_id not in self.assignment:
            raise PoolError(f"unknown target record {target_id!r}")
        return self.select_for_cluster(target_id, self.assignment[target_id])

    def select_for_cluster(self, target_id: str, cluster: int) -> list[Exemplar]:
        if cluster not in self.ranked:
            raise PoolError(f"no candidates ranked for cluster {cluster}")
        used = {target_id}
        chosen = []
        for label, want in ((INCLUDE, 1), (EXCLUDE, 2)):
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
        return json.dumps(
            {
                "assignment": self.assignment,
                "ranked": {
                    str(c): {
                        label: [list(e.key()) for e in lst]
                        for label, lst in by_label.items()
                    }
                    for c, by_label in self.ranked.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExemplarPool":
        obj = json.loads(text)
        ranked = {
            int(c): {
                label: [
                    Exemplar(rid, label_, int(cl), float(d))
                    for rid, label_, cl, d in rows
                ]
                for label, rows in by_label.items()
            }
            for c, by_label in obj["ranked"].items()
        }
        assignment = {str(k): int(v) for k, v in obj["assignment"].items()}
        return cls(ranked=ranked, assignment=assignment)


def select_instances(
    target,
    pool: ExemplarPool,
    clustering: Clustering,
    points: dict[str, Point2D],
) -> list[Exemplar]:
    """Exemplars for ``target``, resolving its cluster as needed.

    A record that was part of the clustering uses its stored assignment;
    anything else (a fresh, unclustered record) is placed by nearest
    centroid from its projected point.
    """
    target_id = target if isinstance(target, str) else target.id
    if target_id in pool.assignment:
        cluster = pool.assignment[target_id]
    else:
        if target_id not in points:
            raise PoolError(
                f"cannot place target {target_id!r}: not clustered and no point"
            )
        cluster = nearest_centroid(np.array(points[target_id]),
                                   np.array(clustering.centroids))
    return pool.select_for_cluster(target_id, cluster)


def build_pool(
    dataset: ReviewDataset,
    clustering: Clustering,
    points: dict[str, Point2D],
    labeled_ids: set[str] | None = None,
) -> ExemplarPool:
    """Rank every labeled record against every cluster centroid.

    ``labeled_ids`` restricts which records may serve as exemplars;
    by default any record carrying a gold label is eligible.
    """
    candidates = [
        r
        for r in dataset.records
        if r.gold_label in (INCLUDE, EXCLUDE)
        and (labeled_ids is None or r.id in labeled_ids)
    ]
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
        scored = []
        for rec in candidates:
            p = points[rec.id]
            dist = math.hypot(p.x - cx, p.y - cy)
            in_cluster = clustering.assignment[rec.id] == cluster
            scored.append((not in_cluster, dist, rec.id, rec.gold_label))
        scored.sort()
        by_label = {INCLUDE: [], EXCLUDE: []}
        for spill, dist, rid, label in scored:
            by_label[label].append(
                Exemplar(record_id=rid, label=label, cluster=cluster, distance=dist)
            )
        ranked[cluster] = by_label
    return ExemplarPool(ranked=ranked, assignment=dict(clustering.assignment))
