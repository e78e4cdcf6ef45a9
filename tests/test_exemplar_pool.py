from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import full_pool
from dfscreen.clustering import Clustering, kmeans
from dfscreen.corpus import EXCLUDE, INCLUDE, ReviewDataset, StudyRecord
from dfscreen.exemplar_pool import (
    WANT,
    ExemplarPool,
    PoolError,
    build_pool,
    select_instances,
)
from dfscreen.projection import Point2D
from dfscreen.rng import SplitMix64


def labeled_fixture(n=60, includes=20, k=4, seed=5):
    rng = SplitMix64(seed)
    records = []
    points = {}
    include_slots = set(rng.sample_indices(n, includes))
    for i in range(n):
        rid = f"s{i:03d}"
        records.append(
            StudyRecord(
                id=rid,
                title=f"Record {i}",
                abstract=f"Body text {i}",
                gold_label=INCLUDE if i in include_slots else EXCLUDE,
            )
        )
        cluster = i % k
        cx, cy = (cluster * 10.0, (cluster % 2) * 10.0)
        points[rid] = Point2D(cx + rng.random() * 2, cy + rng.random() * 2)
    dataset = ReviewDataset("FIX", records)
    clustering = kmeans(points, k, seed=1)
    return dataset, points, clustering


def dist(p: Point2D, c: Point2D) -> float:
    return math.hypot(p.x - c.x, p.y - c.y)


def headline(pool, clustering, cluster):
    """Selection for a record the clustering never saw, placed on a centroid.

    Nothing is skipped for it, so it gets the cluster's best include and
    two best excludes.
    """
    c = clustering.centroids[cluster]
    return select_instances("fresh", pool, clustering, {"fresh": Point2D(c.x, c.y)})


class TestBuildPool:
    def test_nominal_contents_verified_by_scan(self):
        dataset, points, clustering = labeled_fixture()
        pool = build_pool(dataset, clustering, points)
        gold = {r.id: r.gold_label for r in dataset.records}
        for cluster in range(clustering.k):
            centroid = clustering.centroids[cluster]
            nominal = headline(pool, clustering, cluster)
            assert [e.label for e in nominal] == [INCLUDE, EXCLUDE, EXCLUDE]
            # Walk every candidate and find the true best by hand.
            best_inc = None
            for rid, label in gold.items():
                if label != INCLUDE:
                    continue
                in_cluster = clustering.assignment[rid] == cluster
                key = (not in_cluster, dist(points[rid], centroid), rid)
                if best_inc is None or key < best_inc[0]:
                    best_inc = (key, rid)
            assert nominal[0].record_id == best_inc[1]
            exc_keys = []
            for rid, label in gold.items():
                if label != EXCLUDE:
                    continue
                in_cluster = clustering.assignment[rid] == cluster
                exc_keys.append(((not in_cluster, dist(points[rid], centroid), rid), rid))
            exc_keys.sort()
            assert [nominal[1].record_id, nominal[2].record_id] == [
                exc_keys[0][1],
                exc_keys[1][1],
            ]

    def test_ranked_lists_prefer_in_cluster(self):
        dataset, points, clustering = labeled_fixture()
        pool = build_pool(dataset, clustering, points)
        for cluster in range(clustering.k):
            for label in (INCLUDE, EXCLUDE):
                seen_spill = False
                for e in pool.ranked[cluster][label]:
                    spill = clustering.assignment[e.record_id] != cluster
                    if spill:
                        seen_spill = True
                    else:
                        assert not seen_spill, "in-cluster candidate after a spill-in"

    def test_distances_stored_against_serving_cluster(self):
        dataset, points, clustering = labeled_fixture()
        pool = build_pool(dataset, clustering, points)
        for cluster in range(clustering.k):
            centroid = clustering.centroids[cluster]
            for e in pool.ranked[cluster][INCLUDE][:5]:
                assert e.distance == pytest.approx(dist(points[e.record_id], centroid))

    def test_unlabeled_records_not_candidates(self):
        dataset, points, clustering = labeled_fixture()
        blind = ReviewDataset(
            dataset.review_id,
            [
                StudyRecord(id=r.id, title=r.title, abstract=r.abstract,
                            gold_label=r.gold_label if i % 2 == 0 else None)
                for i, r in enumerate(dataset.records)
            ],
        )
        pool = build_pool(blind, clustering, points)
        labeled = {r.id for r in blind.records if r.gold_label is not None}
        for cluster in range(clustering.k):
            for label in (INCLUDE, EXCLUDE):
                assert all(e.record_id in labeled for e in pool.ranked[cluster][label])

    def test_no_labels_is_unconstructible(self):
        dataset, points, clustering = labeled_fixture()
        blind = ReviewDataset(
            dataset.review_id,
            [
                StudyRecord(id=r.id, title=r.title, abstract=r.abstract)
                for r in dataset.records
            ],
        )
        with pytest.raises(PoolError, match="pool unconstructible"):
            build_pool(blind, clustering, points)

    def test_missing_point_rejected(self):
        dataset, points, clustering = labeled_fixture()
        broken = dict(points)
        del broken[dataset.records[0].id]
        with pytest.raises(PoolError, match="no projected point"):
            build_pool(dataset, clustering, broken)


class TestSelectInstances:
    def test_order_is_include_exclude_exclude(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        for record in dataset.records:
            chosen = select_instances(record, pool, clustering, {})
            assert [e.label for e in chosen] == [INCLUDE, EXCLUDE, EXCLUDE]

    def test_no_leakage_exhaustive(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        for record in dataset.records:
            chosen = select_instances(record, pool, clustering, {})
            assert record.id not in {e.record_id for e in chosen}

    def test_no_repeats_within_selection(self, small_pipeline):
        dataset, _, clustering, pool = small_pipeline
        for record in dataset.records:
            ids = [e.record_id for e in select_instances(record, pool, clustering, {})]
            assert len(set(ids)) == 3

    def test_skipping_target_promotes_next_candidate(self):
        dataset, points, clustering = labeled_fixture()
        pool = build_pool(dataset, clustering, points)
        for cluster in range(clustering.k):
            top = pool.ranked[cluster][INCLUDE][0]
            if clustering.assignment[top.record_id] != cluster:
                continue
            chosen = select_instances(top.record_id, pool, clustering, {})
            assert chosen[0].record_id == pool.ranked[cluster][INCLUDE][1].record_id

    def test_unknown_target_rejected(self, small_pipeline):
        _, points, clustering, pool = small_pipeline
        with pytest.raises(PoolError, match="'nope': not clustered and no point"):
            select_instances("nope", pool, clustering, points)

    def test_unclustered_target_placed_by_nearest_centroid(self):
        dataset, points, clustering = labeled_fixture()
        pool = build_pool(dataset, clustering, points)
        target = StudyRecord(id="fresh", title="New", abstract="Record")
        target_points = dict(points)
        # Land the new record on top of cluster 2's centroid.
        c = clustering.centroids[2]
        target_points["fresh"] = Point2D(c.x, c.y)
        chosen = select_instances(target, pool, clustering, target_points)
        assert [e.label for e in chosen] == [INCLUDE, EXCLUDE, EXCLUDE]
        assert chosen == pool.select_instances("fresh", 2)

    def test_unclustered_target_without_point_rejected(self):
        dataset, points, clustering = labeled_fixture()
        pool = build_pool(dataset, clustering, points)
        target = StudyRecord(id="ghost", title="X", abstract="Y")
        with pytest.raises(PoolError, match="not clustered"):
            select_instances(target, pool, clustering, points)


class TestUnconstructible:
    def base(self, labels):
        records = []
        points = {}
        for i, label in enumerate(labels):
            rid = f"u{i}"
            records.append(
                StudyRecord(id=rid, title=f"T{i}", abstract=f"A{i}", gold_label=label)
            )
            points[rid] = Point2D(float(i), 0.0)
        dataset = ReviewDataset("U", records)
        clustering = Clustering(
            k=1,
            centroids=[Point2D(0.0, 0.0)],
            assignment={r.id: 0 for r in records},
            inertia=0.0,
        )
        return dataset, points, clustering

    def test_single_include_as_target(self):
        dataset, points, clustering = self.base([INCLUDE, EXCLUDE, EXCLUDE, EXCLUDE])
        pool = build_pool(dataset, clustering, points)
        with pytest.raises(PoolError, match="pool unconstructible"):
            select_instances("u0", pool, clustering, points)
        # Other targets still work: the include is free for them.
        assert len(select_instances("u1", pool, clustering, points)) == 3

    def test_two_excludes_one_is_target(self):
        dataset, points, clustering = self.base([INCLUDE, INCLUDE, EXCLUDE, EXCLUDE])
        pool = build_pool(dataset, clustering, points)
        with pytest.raises(PoolError, match="pool unconstructible"):
            select_instances("u2", pool, clustering, points)
        assert len(select_instances("u0", pool, clustering, points)) == 3

    def test_nominal_needs_two_excludes(self):
        dataset, points, clustering = self.base([INCLUDE, EXCLUDE])
        pool = build_pool(dataset, clustering, points)
        with pytest.raises(PoolError, match="pool unconstructible"):
            headline(pool, clustering, 0)


@st.composite
def pool_fixtures(draw):
    """Labelled records on a small integer grid (so distances tie), any k."""
    k = draw(st.integers(1, 4))
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    rows = draw(st.lists(
        st.tuples(st.sampled_from([INCLUDE, EXCLUDE, EXCLUDE, None]), grid,
                  st.integers(0, k - 1)),
        min_size=1, max_size=24,
    ))
    if all(label is None for label, _, _ in rows):
        rows[0] = (EXCLUDE, *rows[0][1:])
    records, points, assignment = [], {}, {}
    for i, (label, (x, y), cluster) in enumerate(rows):
        rid = f"r{draw(st.integers(0, 99)):02d}-{i}"  # ids not in dataset order
        records.append(StudyRecord(id=rid, title="T", abstract="A", gold_label=label))
        points[rid] = Point2D(float(x), float(y))
        assignment[rid] = cluster
    centroids = [Point2D(float(x), float(y))
                 for x, y in draw(st.lists(grid, min_size=k, max_size=k))]
    clustering = Clustering(k=k, centroids=centroids, assignment=assignment, inertia=0.0)
    fresh = {f"fresh{i}": Point2D(float(x), float(y))
             for i, (x, y) in enumerate(draw(st.lists(grid, max_size=4)))}
    return ReviewDataset("HYP", records), points, clustering, fresh


def outcome(select):
    try:
        return select()
    except PoolError as exc:
        return f"PoolError: {exc}"


class TestReachablePrefix:
    @given(pool_fixtures())
    def test_cut_pool_is_the_full_ranking_prefix(self, fixture):
        dataset, points, clustering, _ = fixture
        pool = build_pool(dataset, clustering, points)
        full = full_pool(dataset, clustering, points)
        assert pool.ranked.keys() == full.ranked.keys()
        for cluster in range(clustering.k):
            for label, want in WANT.items():
                assert pool.ranked[cluster][label] == full.ranked[cluster][label][:want + 1]

    @given(pool_fixtures())
    def test_cut_pool_selects_as_the_full_ranking(self, fixture):
        dataset, points, clustering, fresh = fixture
        pool = build_pool(dataset, clustering, points)
        full = full_pool(dataset, clustering, points)
        for record in dataset.records:
            assert outcome(lambda: select_instances(record, pool, clustering, {})) == \
                outcome(lambda: select_instances(record, full, clustering, {}))
        placed = {**points, **fresh}
        for rid in fresh:
            assert outcome(lambda: select_instances(rid, pool, clustering, placed)) == \
                outcome(lambda: select_instances(rid, full, clustering, placed))

    def test_short_cluster_error_text_matches(self):
        dataset, points, clustering = TestUnconstructible().base([INCLUDE, EXCLUDE, EXCLUDE])
        pool = build_pool(dataset, clustering, points)
        full = full_pool(dataset, clustering, points)
        for rid in ("u0", "u1"):
            expected = outcome(lambda: select_instances(rid, full, clustering, points))
            assert expected.startswith("PoolError: pool unconstructible")
            assert outcome(lambda: select_instances(rid, pool, clustering, points)) == expected


def test_pool_json_round_trip(small_pipeline):
    dataset, _, clustering, pool = small_pipeline
    restored = ExemplarPool.from_json(pool.to_json())
    assert restored.ranked == pool.ranked
    for record in dataset.records:
        assert select_instances(record, restored, clustering, {}) == \
            select_instances(record, pool, clustering, {})
