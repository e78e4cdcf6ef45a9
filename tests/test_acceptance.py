"""Acceptance suite: ten checks covering metric arithmetic, curation,
clustering, exemplar pools, cascade invariants, statistics, cost
accounting, and end-to-end reproducibility.  Each check prints a single
pass/fail line so a test run doubles as a scorecard.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager

import pytest
import scipy.integrate

from dfscreen import cli, synth
from dfscreen.clustering import choose_k, kmeans
from dfscreen.corpus import EXCLUDE, INCLUDE, ReviewDataset, StudyRecord, curate
from dfscreen.evaluation import (
    confusion,
    f1_from_precision_recall,
    macro_f1,
    metrics,
    paired_t_test,
    t_cdf,
)
from dfscreen.exemplar_pool import select_instances
from dfscreen.gateway import (
    CostLedger,
    ModelPricing,
    OracleProfile,
    OracleProvider,
    ResponseCache,
)
from dfscreen.projection import Point2D
from dfscreen.rng import SplitMix64
from dfscreen.triage import RunConfig, effective_confidence, run_two_stage

from conftest import build_pipeline
from test_cli import SHAPES as CLI_SHAPES, build_workspace

REVIEW_ORDER = [
    "CD012233",
    "CD012768",
    "CD011977",
    "CD012069",
    "CD012551",
    "CD004414",
    "CD012661",
    "CD011431",
    "CD011420",
    "CD010772",
]

# Reference per-review (precision, recall) pairs for the dynamic
# strategy, frozen as constants.
REFERENCE_PRECISION_RECALL = {
    "CD012233": (0.3800, 0.5429),
    "CD012768": (0.4578, 0.9500),
    "CD011977": (0.6744, 0.6304),
    "CD012069": (0.2412, 0.8278),
    "CD012551": (0.3659, 0.7377),
    "CD004414": (0.6875, 0.7333),
    "CD012661": (0.6746, 0.6196),
    "CD011431": (0.7039, 0.4615),
    "CD011420": (0.8214, 0.6053),
    "CD010772": (0.3871, 0.2857),
}

# Reference per-review F1 at three routing thresholds, row order as in
# REVIEW_ORDER.
REFERENCE_THRESHOLD_F1 = {
    0.7: [0.4419, 0.6179, 0.6517, 0.3742, 0.4946, 0.7097, 0.6479, 0.5582, 0.6970, 0.3377],
    0.8: [0.4598, 0.6230, 0.6667, 0.3760, 0.4974, 0.7097, 0.6537, 0.5714, 0.7077, 0.3333],
    0.9: [0.4615, 0.6034, 0.6591, 0.3873, 0.5000, 0.7333, 0.6555, 0.5791, 0.7077, 0.3467],
}


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(number, title):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"\nacceptance {number:02d} {title}: FAIL")
            raise
        else:
            with capfd.disabled():
                print(f"\nacceptance {number:02d} {title}: PASS")

    return _criterion


def test_criterion_01_macro_metric_reproduction(criterion):
    with criterion(1, "macro metric reproduction"):
        started = time.monotonic()
        f1s = [
            f1_from_precision_recall(p, r)
            for p, r in (REFERENCE_PRECISION_RECALL[rid] for rid in REVIEW_ORDER)
        ]
        assert abs(macro_f1(f1s) - 0.552) <= 0.0005
        assert abs(macro_f1(REFERENCE_THRESHOLD_F1[0.9]) - 0.563) <= 0.0005
        assert time.monotonic() - started < 1.0


def test_criterion_02_single_review_spot_check(criterion):
    with criterion(2, "single-review spot check"):
        p, r = REFERENCE_PRECISION_RECALL["CD004414"]
        f1 = f1_from_precision_recall(p, r)
        assert abs(f1 - 0.7097) <= 0.0001
        # The same review's reference F1 at the loosest threshold agrees.
        assert abs(f1 - REFERENCE_THRESHOLD_F1[0.7][REVIEW_ORDER.index("CD004414")]) <= 0.0001


def test_criterion_03_curation_fixtures(criterion):
    with criterion(3, "curation fixtures"):
        shape = synth.BENCHMARK_REVIEWS[0]
        assert shape.review_id == "CD012233"
        raw = synth.synth_raw_review(shape, seed=0)
        curated, report = curate(raw)
        assert report.retrieved == 472
        assert report.curated == 429
        assert curated.include_count() == 38

        rng = SplitMix64(2024)
        for trial in range(1000):
            n_core = 3 + rng.randrange(12)
            core = [
                StudyRecord(
                    id=f"t{trial}-{i}",
                    title=f"Fixture {trial} record {i}",
                    abstract=f"Body {trial} {i}.",
                    gold_label=INCLUDE if rng.random() < 0.3 else EXCLUDE,
                )
                for i in range(n_core)
            ]
            rows = list(core)
            n_blank = rng.randrange(4)
            for b in range(n_blank):
                rec = StudyRecord(
                    id=f"t{trial}-m{b}",
                    title="Stub" if b % 2 else "",
                    abstract="",
                    gold_label=EXCLUDE,
                )
                rows.insert(rng.randrange(len(rows) + 1), rec)
            n_dup = rng.randrange(4)
            for d in range(n_dup):
                src = core[rng.randrange(len(core))]
                if d % 2 == 0:
                    dup = StudyRecord(
                        id=src.id,
                        title=src.title,
                        abstract=src.abstract + " Again.",
                        gold_label=src.gold_label,
                    )
                else:
                    dup = StudyRecord(
                        id=f"t{trial}-d{d}",
                        title="  " + src.title.upper().replace(" ", "   "),
                        abstract=src.abstract,
                        gold_label=src.gold_label,
                    )
                rows.insert(rng.randrange(len(rows) + 1), dup)
            dataset, rep = curate(ReviewDataset(f"T{trial}", rows))
            assert rep.retrieved == len(rows)
            assert rep.removed_missing == n_blank
            assert rep.removed_duplicate == n_dup
            assert rep.curated == rep.retrieved - rep.removed_missing - rep.removed_duplicate
            assert rep.curated == len(dataset) == n_core


def test_criterion_04_cluster_count_rule_and_kmeans(criterion):
    with criterion(4, "cluster count rule and k-means recovery"):
        matches = [
            shape.review_id
            for shape in synth.BENCHMARK_REVIEWS
            if choose_k(shape.curated) == shape.k
        ]
        assert len(matches) == 9
        mismatched = [
            s.review_id for s in synth.BENCHMARK_REVIEWS if s.review_id not in matches
        ]
        assert mismatched == ["CD011431"]
        assert choose_k(546) == 6  # the rule's value for that review's size
        assert choose_k(546, override=5) == 5  # pinned via config override

        jitter = SplitMix64(4)
        points = {}
        blob_a, blob_b = set(), set()
        for i in range(10):
            points[f"a{i}"] = Point2D(jitter.random() - 0.5, jitter.random() - 0.5)
            blob_a.add(f"a{i}")
            points[f"b{i}"] = Point2D(100.0 + jitter.random(), 100.0 + jitter.random())
            blob_b.add(f"b{i}")
        recovered = 0
        for seed in range(100):
            clustering = kmeans(points, 2, seed)
            # Inertia non-increase is asserted inside every iteration of
            # the solver; reaching here means no seed violated it.
            groups = {}
            for rid, cluster in clustering.assignment.items():
                groups.setdefault(cluster, set()).add(rid)
            if set(map(frozenset, groups.values())) == {
                frozenset(blob_a),
                frozenset(blob_b),
            }:
                recovered += 1
        assert recovered == 100


def test_criterion_05_exemplar_pool(criterion):
    with criterion(5, "exemplar pool composition and leakage guard"):
        dataset = synth.synth_review("POOLCHK", 60, 15, k=4, seed=11)
        points, clustering, pool = build_pipeline(dataset, k=4, seed=3)
        gold = {r.id: r.gold_label for r in dataset.records}
        for cluster in range(clustering.k):
            cx, cy = clustering.centroids[cluster]
            # A record the clustering never saw, on the centroid, skips nothing.
            on_centroid = {"fresh": Point2D(cx, cy)}
            nominal = select_instances("fresh", pool, clustering, on_centroid)
            assert [e.label for e in nominal] == [INCLUDE, EXCLUDE, EXCLUDE]
            scored = {}
            for rid, label in gold.items():
                p = points[rid]
                scored[rid] = (
                    clustering.assignment[rid] != cluster,
                    math.hypot(p.x - cx, p.y - cy),
                    rid,
                )
            best_inc = min((r for r in gold if gold[r] == INCLUDE), key=scored.get)
            exc_sorted = sorted(
                (r for r in gold if gold[r] == EXCLUDE), key=scored.get
            )
            assert nominal[0].record_id == best_inc
            assert [nominal[1].record_id, nominal[2].record_id] == exc_sorted[:2]
        for record in dataset.records:
            chosen = select_instances(record, pool, clustering, points)
            ids = [e.record_id for e in chosen]
            assert record.id not in ids
            assert len(set(ids)) == 3
            assert [e.label for e in chosen] == [INCLUDE, EXCLUDE, EXCLUDE]


def test_criterion_06_triage_invariants_at_scale(criterion):
    with criterion(6, "triage invariants over 9,515 records"):
        started = time.monotonic()
        dataset = synth.synth_review("FULLSCALE", 9515, 1052, k=10, seed=6)
        points, clustering, pool = build_pipeline(dataset, k=10, seed=6)
        gold = {r.id: r.gold_label for r in dataset.records}
        stage1 = OracleProvider(
            "mini", gold, OracleProfile(acc_hi=0.95, acc_lo=0.75, p_hi=0.87), seed=6
        )
        stage2 = OracleProvider(
            "large", gold, OracleProfile(acc_hi=0.97, acc_lo=0.95, p_hi=0.95), seed=6
        )
        free = ModelPricing(0.0, 0.0)
        cache = ResponseCache()
        routed_sets = {}
        for th in (0.7, 0.8, 0.9):
            cfg = RunConfig(
                stage1_model="mini",
                stage2_model="large",
                threshold=th,
                stage1_pricing=free,
                stage2_pricing=free,
                seed=6,
            )
            results, ledger = run_two_stage(
                dataset, pool, clustering, points, cfg,
                stage1, stage2, "Include matching records.", cache=cache,
            )
            assert ledger.usd_total == 0.0
            assert len(results) == 9515
            for r in results:
                assert r.stage1 is not None
                assert r.routed == (effective_confidence(r.stage1) < th)
            routed_sets[th] = {r.record_id for r in results if r.routed}
        assert routed_sets[0.7] <= routed_sets[0.8] <= routed_sets[0.9]
        ratio = len(routed_sets[0.9]) / 9515
        assert abs(ratio - 0.1296) <= 0.02
        assert time.monotonic() - started < 30.0


def test_criterion_07_cascade_improvement(criterion):
    with criterion(7, "cascade improvement across seeds"):
        sizes = [40, 44, 48, 52, 56, 60, 64, 68, 72, 80]
        pipelines = []
        for i, n in enumerate(sizes):
            dataset = synth.synth_review(f"IMP-{i}", n, n // 4, k=3, seed=700 + i)
            points, clustering, pool = build_pipeline(dataset, k=3, seed=i)
            gold = {r.id: r.gold_label for r in dataset.records}
            pipelines.append((dataset, points, clustering, pool, gold))

        outcomes = []
        for seed in range(100):
            f1_stage1, f1_cascade = [], []
            for dataset, points, clustering, pool, gold in pipelines:
                s1 = OracleProvider(
                    "s1", gold, OracleProfile(acc_hi=0.95, acc_lo=0.75, p_hi=0.8), seed
                )
                s2 = OracleProvider(
                    "s2", gold, OracleProfile(acc_hi=0.95, acc_lo=0.95, p_hi=0.95), seed
                )
                cfg = RunConfig(
                    stage1_model="s1", stage2_model="s2", threshold=0.9,
                    seed=seed, parallelism=1,
                )
                # No response cache here: prompts repeat across seeds and
                # a shared cache would replay the wrong seed's answers.
                results, _ = run_two_stage(
                    dataset, pool, clustering, points, cfg, s1, s2, "Criteria."
                )
                finals = {r.record_id: r.final for r in results}
                alone = {r.record_id: r.stage1.label for r in results}
                f1_cascade.append(metrics(confusion(finals, gold))["f1"])
                f1_stage1.append(metrics(confusion(alone, gold))["f1"])
            outcomes.append(
                (macro_f1(f1_cascade) - macro_f1(f1_stage1), f1_stage1, f1_cascade)
            )

        improved = sum(1 for delta, _, _ in outcomes if delta > 0)
        assert improved >= 95
        deltas = [delta for delta, _, _ in outcomes]
        median_delta = statistics.median_low(deltas)
        _, before, after = outcomes[deltas.index(median_delta)]
        assert paired_t_test(before, after).p_value < 0.05


def test_criterion_08_statistics(criterion):
    with criterion(8, "t distribution and paired test"):
        for i in range(100):
            t = -8.0 + 16.0 * i / 99.0
            closed_form = 0.5 + math.atan(t) / math.pi
            assert abs(t_cdf(t, 1) - closed_form) < 1e-10

        res = paired_t_test([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])
        assert abs(res.t_statistic - 3.873) <= 0.001
        assert abs(res.p_value - 0.0305) <= 0.0005

        def t_pdf(x, df):
            return (
                math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0))
                / math.sqrt(df * math.pi)
                * (1.0 + x * x / df) ** (-(df + 1) / 2.0)
            )

        tail, err = scipy.integrate.quad(t_pdf, res.t_statistic, math.inf, args=(3,))
        assert err < 1e-8
        assert abs(res.p_value - 2.0 * tail) < 1e-8


def test_criterion_09_cost_ledger(criterion):
    with criterion(9, "cost ledger arithmetic"):
        mini = ModelPricing(0.40, 1.60)
        large = ModelPricing(2.00, 8.00)
        ledger = CostLedger({"mini": mini, "large": large})
        # Replay 1.0M + 1.0M tokens in uneven chunks.
        remaining_p = remaining_c = 1_000_000
        chunk = SplitMix64(9)
        while remaining_p > 0 or remaining_c > 0:
            p = min(remaining_p, 1 + chunk.randrange(99_999))
            c = min(remaining_c, 1 + chunk.randrange(99_999))
            ledger.record("mini", p, c)
            remaining_p -= p
            remaining_c -= c
        entry = ledger.entry("mini")
        assert (entry.prompt_tokens, entry.completion_tokens) == (1_000_000, 1_000_000)
        assert ledger.usd_for("mini") == 2.00  # exact, no accumulation drift

        totals = {"large": [0, 0]}
        for i in range(777):
            p, c = 1000 + 7 * i, 50 + (i % 13)
            ledger.record("large", p, c)
            totals["large"][0] += p
            totals["large"][1] += c
        assert ledger.usd_for("large") == large.cost(*totals["large"])
        assert ledger.usd_total == ledger.usd_for("mini") + ledger.usd_for("large")

        # Stage-2 spend for a routed volume of 12.96% of 9,515 records at
        # nominal full-abstract prompt sizes lands in low single digits.
        routed_calls = round(9515 * 0.1296)
        usd_stage2 = large.cost(routed_calls * 1600, routed_calls * 64)
        assert 1.0 <= usd_stage2 < 10.0


def test_criterion_10_reproducibility(criterion, tmp_path):
    with criterion(10, "byte-identical reruns"):
        config_path = build_workspace(str(tmp_path / "ws"))
        outs = [str(tmp_path / f"run{i}") for i in range(3)]
        for out in outs:
            assert cli.main(["screen", "--config", config_path, "--out", out]) == 0

        def slurp(out, name):
            with open(os.path.join(out, name), "rb") as fh:
                return fh.read()

        # First run warms the response cache; the two warm invocations
        # must agree byte for byte on every artifact they write.
        names = [f"results_{s.review_id}.jsonl" for s in CLI_SHAPES]
        names.append("manifest.json")
        for name in names:
            assert slurp(outs[1], name) == slurp(outs[2], name)
        # Screening outcomes are also warmth-independent.
        for name in names[:-1]:
            assert slurp(outs[0], name) == slurp(outs[1], name)
