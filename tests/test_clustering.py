from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfscreen import clustering
from dfscreen.clustering import (
    Clustering,
    ClusteringError,
    choose_k,
    kmeans,
    nearest_centroid,
)
from dfscreen.projection import Point2D
from dfscreen.rng import SplitMix64

import numpy as np


def blob(cx, cy, count, seed, spread=0.5, prefix="p"):
    rng = SplitMix64(seed)
    return {
        f"{prefix}{i}": Point2D(cx + (rng.random() - 0.5) * spread,
                                cy + (rng.random() - 0.5) * spread)
        for i in range(count)
    }


def reference_nearest(point, centroids):
    """One point at a time, as a plain distance scan."""
    deltas = centroids - point
    return int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))


def reference_init_plusplus(coords, k, rng):
    """k-means++ seeding with the cumulative draw as a sequential loop."""
    n = coords.shape[0]
    centroids = np.empty((k, 2), dtype=np.float64)
    centroids[0] = coords[rng.randrange(n)]
    d2 = np.einsum("ij,ij->i", coords - centroids[0], coords - centroids[0])
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = rng.randrange(n)
        else:
            r = rng.random() * total
            cum = 0.0
            idx = n - 1
            for i in range(n):
                cum += float(d2[i])
                if r < cum:
                    idx = i
                    break
        centroids[c] = coords[idx]
        new_d2 = np.einsum("ij,ij->i", coords - centroids[c], coords - centroids[c])
        d2 = np.minimum(d2, new_d2)
    return centroids


def reference_kmeans(points, k, seed):
    """kmeans with per-point assignment and the looped k-means++ draw."""
    per_point = lambda pts, cents: np.array([reference_nearest(p, cents) for p in pts])
    with mock.patch.object(clustering, "nearest_centroid", per_point), \
            mock.patch.object(clustering, "_init_plusplus", reference_init_plusplus):
        return kmeans(points, k, seed)


class TestChooseK:
    @pytest.mark.parametrize(
        "n,expected",
        [
            # sqrt(n)/4 rounded half-up, clamped to [3, 10]
            (429, 5),
            (119, 3),
            (1117, 8),
            (247, 4),
            (307, 4),
            (192, 3),
            (2897, 10),
            (303, 4),
            (3343, 10),
        ],
    )
    def test_heuristic_values(self, n, expected):
        assert choose_k(n) == expected

    def test_lower_clamp(self):
        assert choose_k(1) == 3
        assert choose_k(100) == 3

    def test_upper_clamp(self):
        assert choose_k(10**6) == 10

    def test_half_rounds_up(self):
        # sqrt(196)/4 = 3.5 exactly; half-up gives 4, banker's would give 4
        # here but 2.5-style cases must not round to even.
        assert choose_k(196) == 4
        # sqrt(100)/4 = 2.5 -> 3 after rounding, already at the clamp floor.
        assert choose_k(100) == 3

    def test_override_wins(self):
        assert choose_k(546, override=5) == 5
        assert choose_k(10, override=10) == 10

    def test_override_validated(self):
        with pytest.raises(ClusteringError):
            choose_k(100, override=2)
        with pytest.raises(ClusteringError):
            choose_k(100, override=11)

    def test_rejects_empty(self):
        with pytest.raises(ClusteringError):
            choose_k(0)

    @given(st.integers(1, 10**6))
    def test_always_in_range(self, n):
        assert 3 <= choose_k(n) <= 10


class TestNearestCentroid:
    def test_picks_closest(self):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert nearest_centroid(np.array([1.0, 1.0]), centroids) == 0
        assert nearest_centroid(np.array([9.0, 9.0]), centroids) == 1

    def test_tie_goes_to_lowest_index(self):
        centroids = np.array([[-1.0, 0.0], [1.0, 0.0]])
        assert nearest_centroid(np.array([0.0, 5.0]), centroids) == 0

    def test_array_of_points_gives_per_point_labels(self):
        rng = SplitMix64(5)
        points = np.array([[round(rng.random() * 4, 1), round(rng.random() * 4, 1)]
                           for _ in range(50)])
        centroids = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 2.0], [4.0, 0.0], [1.0, 3.0]])
        labels = nearest_centroid(points, centroids)
        assert labels.shape == (50,)
        assert labels.tolist() == [reference_nearest(p, centroids) for p in points]


class TestKmeans:
    def test_two_blobs_recovered(self):
        points = {**blob(0.0, 0.0, 10, 1, prefix="a"), **blob(10.0, 10.0, 10, 2, prefix="b")}
        result = kmeans(points, 2, seed=0)
        labels_a = {result.assignment[f"a{i}"] for i in range(10)}
        labels_b = {result.assignment[f"b{i}"] for i in range(10)}
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_blob_recovery_across_seeds(self):
        points = {**blob(0.0, 0.0, 10, 5, prefix="a"), **blob(8.0, -8.0, 10, 6, prefix="b")}
        for seed in range(25):
            result = kmeans(points, 2, seed=seed)
            labels_a = {result.assignment[f"a{i}"] for i in range(10)}
            labels_b = {result.assignment[f"b{i}"] for i in range(10)}
            assert len(labels_a) == 1 and len(labels_b) == 1 and labels_a != labels_b

    def test_assignment_is_nearest_centroid_brute_force(self):
        points = {**blob(0, 0, 15, 3, prefix="a"), **blob(5, 1, 15, 4, prefix="b"),
                  **blob(-3, 6, 15, 5, prefix="c")}
        result = kmeans(points, 3, seed=11)
        for rid, p in points.items():
            dists = [
                math.hypot(p.x - c.x, p.y - c.y) for c in result.centroids
            ]
            best = min(range(len(dists)), key=lambda i: (dists[i], i))
            assert math.isclose(
                dists[result.assignment[rid]], dists[best], rel_tol=1e-12
            )

    def test_inertia_matches_definition(self):
        points = blob(0, 0, 30, 7)
        result = kmeans(points, 3, seed=2)
        expected = sum(
            (p.x - result.centroids[result.assignment[rid]].x) ** 2
            + (p.y - result.centroids[result.assignment[rid]].y) ** 2
            for rid, p in points.items()
        )
        assert math.isclose(result.inertia, expected, rel_tol=1e-9)

    def test_deterministic_given_seed(self):
        points = blob(0, 0, 40, 9, spread=4.0)
        a = kmeans(points, 4, seed=21)
        b = kmeans(dict(reversed(list(points.items()))), 4, seed=21)
        assert a.assignment == b.assignment
        assert a.centroids == b.centroids

    def test_k_equals_n(self):
        points = {f"p{i}": Point2D(float(i), 0.0) for i in range(5)}
        result = kmeans(points, 5, seed=0)
        assert sorted(result.assignment.values()) == [0, 1, 2, 3, 4]
        assert result.inertia == pytest.approx(0.0)

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(ClusteringError):
            kmeans({"a": Point2D(0, 0)}, 2, seed=0)

    def test_k_must_be_positive(self):
        with pytest.raises(ClusteringError):
            kmeans({"a": Point2D(0, 0)}, 0, seed=0)

    def test_duplicate_points_tolerated(self):
        # More clusters than distinct positions exercises the
        # empty-cluster reseed path.
        points = {f"p{i}": Point2D(float(i % 2), 0.0) for i in range(8)}
        result = kmeans(points, 3, seed=1)
        assert len(result.centroids) == 3
        assert set(result.assignment.values()) <= {0, 1, 2}

    def test_json_round_trip(self):
        points = blob(2.0, -1.0, 12, 15)
        result = kmeans(points, 3, seed=8)
        restored = Clustering.from_json(result.to_json())
        assert restored.k == result.k
        assert restored.assignment == result.assignment
        assert restored.centroids == result.centroids
        assert restored.inertia == result.inertia


class ScriptedRng:
    """randrange always 0, random a fixed value: pins the k-means++ draw."""

    def __init__(self, value):
        self.value = value

    def randrange(self, n):
        return 0

    def random(self):
        return self.value


def test_plusplus_draw_on_a_running_sum_boundary():
    # Squared distances to the first point are [0, 1, 0, 1], so r = 0.5 * 2
    # equals the running sums at indices 1 and 2; the draw must take the
    # first index whose running sum exceeds r, index 3, as the loop does.
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    got = clustering._init_plusplus(coords, 2, ScriptedRng(0.5))
    assert got.tolist() == reference_init_plusplus(coords, 2, ScriptedRng(0.5)).tolist()
    assert got[1].tolist() == [-1.0, 0.0]


@given(
    st.integers(3, 10),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=10, max_size=60),
    st.integers(0, 2**32),
)
def test_kmeans_equals_per_point_reference(k, decimals, coords, seed):
    # Points on a coarse grid with 1-5 decimals: ties in distance,
    # duplicate points and empty clusters are common, which is where a
    # vectorised assignment could drift from the per-point loop.
    scale = 10.0**decimals
    points = {f"p{i:03d}": Point2D(x / scale, y / scale) for i, (x, y) in enumerate(coords)}
    assert kmeans(points, k, seed).to_json() == reference_kmeans(points, k, seed).to_json()
