"""K-means clustering of projected 2-D points.

Seeded k-means++ initialization followed by Lloyd iterations. All
randomness flows through SplitMix64 and points are processed in sorted
record-id order, so a (points, k, seed) triple always yields the same
clustering.  The inertia is checked every iteration: a Lloyd step that
increased it would mean a bug, not bad luck.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .projection import Point2D
from .rng import SplitMix64

MAX_ITERATIONS = 300
K_MIN = 3
K_MAX = 10


class ClusteringError(ValueError):
    pass


@dataclass
class Clustering:
    """Result of a k-means run over named points."""

    k: int
    centroids: list[Point2D]
    assignment: dict[str, int]
    inertia: float

    def members(self, cluster: int) -> list[str]:
        return sorted(rid for rid, c in self.assignment.items() if c == cluster)

    def to_json(self) -> str:
        # Centroids are named tuples, so they serialise as [x, y] pairs.
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Clustering":
        clustering = cls(**json.loads(text))
        clustering.centroids = [Point2D(*c) for c in clustering.centroids]
        return clustering


def choose_k(n: int, override: int | None = None) -> int:
    """Cluster count heuristic: sqrt(n)/4 rounded half-up, clamped to [3, 10].

    ``override`` pins the count when a review needs a hand-set value.
    """
    if override is not None:
        if not K_MIN <= override <= K_MAX:
            raise ClusteringError(f"k override {override} outside [{K_MIN}, {K_MAX}]")
        return override
    if n < 1:
        raise ClusteringError("need at least one point")
    # floor(x + 0.5) rather than round(): banker's rounding would send
    # exact halves to the nearest even value.
    k = math.floor(math.sqrt(n) / 4.0 + 0.5)
    return max(K_MIN, min(K_MAX, k))


def nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> int | np.ndarray:
    """Index of the closest centroid, ties going to the lowest index.

    ``points`` is one point of shape (2,), giving an int, or an (n, 2)
    array, giving the n labels from one n x k distance matrix.
    """
    deltas = centroids - points[..., np.newaxis, :]
    dists = np.einsum("...ij,...ij->...i", deltas, deltas)
    labels = np.argmin(dists, axis=-1)
    return int(labels) if labels.ndim == 0 else labels


def _init_plusplus(coords: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    n = coords.shape[0]
    centroids = np.empty((k, 2), dtype=np.float64)
    centroids[0] = coords[rng.randrange(n)]
    # Squared distance to the nearest chosen centroid drives the weights.
    d2 = np.einsum("ij,ij->i", coords - centroids[0], coords - centroids[0])
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining mass is on already-chosen positions; any
            # point works, pick uniformly.
            idx = rng.randrange(n)
        else:
            # First index whose running sum exceeds r; cumsum adds in
            # order, so the sums are those of a sequential loop.
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centroids[c] = coords[idx]
        new_d2 = np.einsum("ij,ij->i", coords - centroids[c], coords - centroids[c])
        d2 = np.minimum(d2, new_d2)
    return centroids


def kmeans(points: dict[str, Point2D], k: int, seed: int) -> Clustering:
    """Seeded k-means over named 2-D points.

    Points are ordered by record id before anything random happens, so
    the result is independent of dict insertion order.  Empty clusters
    are reseeded to the point currently farthest from its centroid.
    """
    if k < 1:
        raise ClusteringError(f"k must be positive, got {k}")
    ids = sorted(points)
    if len(ids) < k:
        raise ClusteringError(f"cannot form {k} clusters from {len(ids)} points")
    coords = np.array([[points[i].x, points[i].y] for i in ids], dtype=np.float64)
    rng = SplitMix64(seed)
    centroids = _init_plusplus(coords, k, rng)

    labels = nearest_centroid(coords, centroids)
    prev_inertia = math.inf
    for _ in range(MAX_ITERATIONS):
        # Update step.
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = coords[mask].mean(axis=0)
            else:
                deltas = coords - centroids[labels]
                worst = int(np.argmax(np.einsum("ij,ij->i", deltas, deltas)))
                centroids[c] = coords[worst]
                labels[worst] = c
        # Assignment step.
        new_labels = nearest_centroid(coords, centroids)
        deltas = coords - centroids[new_labels]
        inertia = float(np.einsum("ij,ij->i", deltas, deltas).sum())
        # A genuine increase means the update logic is broken; the slack
        # only absorbs accumulated float error.
        if inertia > prev_inertia + 1e-9:
            raise AssertionError(
                f"k-means inertia increased: {prev_inertia} -> {inertia}"
            )
        converged = bool((new_labels == labels).all()) and prev_inertia < math.inf
        labels = new_labels
        prev_inertia = inertia
        if converged:
            break

    return Clustering(
        k=k,
        centroids=[Point2D(float(x), float(y)) for x, y in centroids],
        assignment={rid: int(lab) for rid, lab in zip(ids, labels)},
        inertia=prev_inertia,
    )
