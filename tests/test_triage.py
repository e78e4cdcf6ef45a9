from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfscreen import synth, triage
from dfscreen.corpus import EXCLUDE, INCLUDE, ReviewDataset
from dfscreen.evaluation import confusion, metrics
from dfscreen.gateway import (
    Decision,
    ModelPricing,
    OracleProfile,
    ProviderError,
    ResponseCache,
    estimate_tokens,
)
from dfscreen.prompting import Strategy
from dfscreen.triage import (
    RunConfig,
    RunError,
    ScreeningResult,
    SweepPoint,
    effective_confidence,
    read_results_jsonl,
    run_single_stage,
    run_two_stage,
    should_route,
    sweep_thresholds,
    write_results_jsonl,
)

from conftest import build_pipeline, oracle_provider, routed_ratio


@dataclass
class MappedProvider:
    """Replies with a fixed response text per record id; raises on demand."""

    model_id: str
    table: dict = field(default_factory=dict)
    default: str = '{"confidence": 0.95, "decision": "exclude"}'
    errors: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)

    def send(self, prompt_text, temperature, max_tokens, tags):
        rid = tags["record_id"]
        self.calls.append((rid, prompt_text))
        if rid in self.errors:
            raise self.errors[rid]
        text = self.table.get(rid, self.default)
        return text, estimate_tokens(prompt_text), estimate_tokens(text)


class Delegate:
    """Forwards to a provider but lacks its ``in_process`` marker."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id

    def send(self, prompt_text, temperature, max_tokens, tags):
        return self.inner.send(prompt_text, temperature, max_tokens, tags)


def answer(label, confidence=None):
    obj = {"decision": label}
    if confidence is not None:
        obj["confidence"] = confidence
    return json.dumps(obj)


def gold_of(dataset):
    return {r.id: r.gold_label for r in dataset.records}


@pytest.fixture
def tiny():
    dataset = synth.synth_review("TINY", 12, 4, k=3, seed=2)
    points, clustering, pool = build_pipeline(dataset, k=3, seed=1)
    return dataset, points, clustering, pool


def make_cfg(**kw):
    kw.setdefault("stage1_model", "s1")
    kw.setdefault("stage2_model", "s2")
    return RunConfig(**kw)


class TestRoutingRule:
    def test_unparseable_routes_at_any_threshold(self):
        assert should_route(None, 0.0) is True
        assert should_route(None, 0.9) is True
        assert should_route(None, 1.0) is True

    def test_strictly_below(self):
        at = Decision(label=INCLUDE, confidence=0.9)
        below = Decision(label=INCLUDE, confidence=0.8999999999)
        assert should_route(at, 0.9) is False
        assert should_route(below, 0.9) is True

    def test_threshold_one_keeps_full_confidence(self):
        assert should_route(Decision(label=INCLUDE, confidence=1.0), 1.0) is False
        assert should_route(Decision(label=INCLUDE, confidence=0.999), 1.0) is True

    def test_missing_confidence_counts_as_zero(self):
        parsed_no_conf = Decision(label=EXCLUDE, confidence=None)
        assert effective_confidence(parsed_no_conf) == 0.0
        assert should_route(parsed_no_conf, 0.0) is False  # 0 < 0 fails
        assert should_route(parsed_no_conf, 0.5) is True

    def test_effective_confidence(self):
        assert effective_confidence(None) == 0.0
        assert effective_confidence(Decision(label=INCLUDE, confidence=0.42)) == 0.42


class TestRunConfig:
    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            make_cfg(threshold=1.5)

    def test_parallelism_validated(self):
        with pytest.raises(ValueError, match="parallelism"):
            make_cfg(parallelism=0)

    def test_defaults(self):
        cfg = make_cfg()
        assert cfg.strategy is Strategy.DYNAMIC_FEW_SHOT
        assert cfg.threshold == 0.9
        assert cfg.stage1_pricing == ModelPricing(0.40, 1.60)
        assert cfg.stage2_pricing == ModelPricing(2.00, 8.00)


class TestTwoStage:
    def run_oracle(self, pipeline, threshold=0.9, seed=0, cache=None):
        dataset, points, clustering, pool = pipeline
        gold = gold_of(dataset)
        cfg = make_cfg(threshold=threshold, seed=seed)
        s1 = oracle_provider(gold, OracleProfile(0.95, 0.75, 0.8), seed, model_id="s1")
        s2 = oracle_provider(gold, OracleProfile(0.97, 0.95, 0.95), seed, model_id="s2")
        return run_two_stage(
            dataset, pool, clustering, points, cfg, s1, s2, "Include adult trials.",
            cache=cache,
        )

    def test_shape_and_order(self, small_pipeline):
        dataset = small_pipeline[0]
        results, ledger = self.run_oracle(small_pipeline)
        assert len(results) == len(dataset)
        ids = [r.record_id for r in results]
        assert ids == sorted(ids)
        assert set(ids) == {r.id for r in dataset.records}

    def test_routing_invariant_per_record(self, small_pipeline):
        results, _ = self.run_oracle(small_pipeline, threshold=0.9)
        for r in results:
            assert r.routed == should_route(r.stage1, 0.9)
            if r.routed:
                assert r.stage2 is not None
                assert r.final == r.stage2.label
                assert r.stage2_prompt_tokens > 0
            else:
                assert r.stage2 is None
                assert r.final == r.stage1.label
                assert r.stage2_prompt_tokens == 0
                assert r.stage2_completion_tokens == 0

    def test_deterministic_across_parallelism(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        gold = gold_of(dataset)
        outs = []
        for workers in (1, 8):
            cfg = make_cfg(parallelism=workers)
            s1 = oracle_provider(gold, OracleProfile(0.95, 0.75, 0.8), 0, model_id="s1")
            s2 = oracle_provider(gold, OracleProfile(0.97, 0.95, 0.95), 0, model_id="s2")
            results, _ = run_two_stage(
                dataset, pool, clustering, points, cfg, s1, s2, "Criteria."
            )
            outs.append(results)
        assert outs[0] == outs[1]

    def test_deterministic_across_workers(self, small_pipeline):
        # Without the in_process marker the oracle's answers are screened
        # by 8 workers; they must equal a one-worker run and a direct one.
        dataset, points, clustering, pool = small_pipeline
        gold = gold_of(dataset)
        outs = []
        for workers, wrap in ((1, Delegate), (8, Delegate), (8, lambda p: p)):
            cfg = make_cfg(parallelism=workers)
            s1 = oracle_provider(gold, OracleProfile(0.95, 0.75, 0.8), 0, model_id="s1")
            s2 = oracle_provider(gold, OracleProfile(0.97, 0.95, 0.95), 0, model_id="s2")
            results, _ = run_two_stage(
                dataset, pool, clustering, points, cfg, wrap(s1), wrap(s2), "Criteria."
            )
            outs.append(results)
        assert outs[0] == outs[1] == outs[2]

    def test_ledger_matches_result_tokens(self, small_pipeline):
        results, ledger = self.run_oracle(small_pipeline)
        e1 = ledger.entry("s1")
        e2 = ledger.entry("s2")
        assert e1.prompt_tokens == sum(r.stage1_prompt_tokens for r in results)
        assert e1.completion_tokens == sum(r.stage1_completion_tokens for r in results)
        assert e2.prompt_tokens == sum(r.stage2_prompt_tokens for r in results)
        assert e2.completion_tokens == sum(r.stage2_completion_tokens for r in results)
        assert e1.call_count == len(results)
        assert e2.call_count == sum(1 for r in results if r.routed)
        assert ledger.usd_total > 0.0

    def test_stage2_sees_same_prompt(self, tiny):
        dataset, points, clustering, pool = tiny
        s1 = MappedProvider("s1", default=answer(EXCLUDE, 0.1))  # all routed
        s2 = MappedProvider("s2", default=answer(EXCLUDE, 0.99))
        cfg = make_cfg()
        run_two_stage(dataset, pool, clustering, points, cfg, s1, s2, "C.")
        p1 = dict(s1.calls)
        p2 = dict(s2.calls)
        assert set(p1) == set(p2) == {r.id for r in dataset.records}
        for rid in p1:
            assert p1[rid] == p2[rid]

    def test_unparseable_stage1_routes_even_at_zero(self, tiny):
        dataset, points, clustering, pool = tiny
        victim = dataset.records[0].id
        s1 = MappedProvider(
            "s1",
            table={victim: "no verdict here"},
            default=answer(EXCLUDE, 0.99),
        )
        s2 = MappedProvider("s2", default=answer(INCLUDE, 0.99))
        cfg = make_cfg(threshold=0.0)
        results, _ = run_two_stage(dataset, pool, clustering, points, cfg, s1, s2, "C.")
        by_id = {r.record_id: r for r in results}
        hit = by_id[victim]
        assert hit.stage1 is None
        assert hit.routed is True
        assert hit.final == INCLUDE
        others = [r for r in results if r.record_id != victim]
        assert all(not r.routed for r in others)

    def test_unparseable_stage2_fails_safe_to_exclude(self, tiny):
        dataset, points, clustering, pool = tiny
        victim = dataset.records[0].id
        s1 = MappedProvider(
            "s1",
            table={victim: answer(INCLUDE, 0.2)},
            default=answer(EXCLUDE, 0.99),
        )
        s2 = MappedProvider("s2", table={victim: "???"}, default=answer(INCLUDE, 0.9))
        cfg = make_cfg()
        results, _ = run_two_stage(dataset, pool, clustering, points, cfg, s1, s2, "C.")
        hit = {r.record_id: r for r in results}[victim]
        assert hit.routed is True
        assert hit.stage2 is None
        assert hit.final == EXCLUDE
        assert hit.unparsed_final is True

    def test_parsed_but_confidence_free_stage1(self, tiny):
        dataset, points, clustering, pool = tiny
        s1 = MappedProvider("s1", default=answer(INCLUDE))  # no confidence field
        s2 = MappedProvider("s2", default=answer(EXCLUDE, 0.99))
        results0, _ = run_two_stage(
            dataset, pool, clustering, points, make_cfg(threshold=0.0), s1, s2, "C."
        )
        assert all(not r.routed for r in results0)
        assert all(r.final == INCLUDE for r in results0)
        results9, _ = run_two_stage(
            dataset, pool, clustering, points, make_cfg(threshold=0.9), s1, s2, "C."
        )
        assert all(r.routed for r in results9)
        assert all(r.final == EXCLUDE for r in results9)

    def test_isolated_failures_collected(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        bad = dataset.records[0].id
        s1 = MappedProvider(
            "s1",
            default=answer(EXCLUDE, 0.99),
            errors={bad: ProviderError("boom")},
        )
        s2 = MappedProvider("s2", default=answer(EXCLUDE, 0.99))
        failures = []
        results, _ = run_two_stage(
            dataset, pool, clustering, points, make_cfg(), s1, s2, "C.",
            failures=failures,
        )
        assert len(results) == len(dataset) - 1
        assert [rid for rid, _ in failures] == [bad]
        assert all(r.record_id != bad for r in results)

    def test_too_many_failures_abort(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        doomed = [r.id for r in dataset.records[:8]]  # 8/60 > 10%
        s1 = MappedProvider(
            "s1",
            default=answer(EXCLUDE, 0.99),
            errors={rid: ProviderError("down") for rid in doomed},
        )
        s2 = MappedProvider("s2", default=answer(EXCLUDE, 0.99))
        with pytest.raises(RunError, match="records failed"):
            run_two_stage(
                dataset, pool, clustering, points, make_cfg(), s1, s2, "C."
            )

    def test_wrong_strategy_rejected(self, tiny):
        dataset, points, clustering, pool = tiny
        cfg = make_cfg(strategy=Strategy.ZERO_SHOT)
        with pytest.raises(ValueError, match="confidence-reporting"):
            run_two_stage(
                dataset, pool, clustering, points, cfg,
                MappedProvider("s1"), MappedProvider("s2"), "C.",
            )

    def test_shared_cache_replays_for_free(self, small_pipeline):
        cache = ResponseCache()
        first, ledger1 = self.run_oracle(small_pipeline, cache=cache)
        second, ledger2 = self.run_oracle(small_pipeline, cache=cache)
        assert second == first
        e1 = ledger2.entry("s1")
        assert e1.call_count == 0
        assert e1.cache_hits == len(first)
        assert ledger2.usd_total == 0.0


class TestSingleStage:
    def test_zero_shot_run(self, small_dataset):
        include_ids = [r.id for r in small_dataset.records if r.gold_label == INCLUDE]
        provider = MappedProvider(
            "base",
            table={rid: "include" for rid in include_ids},
            default="exclude",
        )
        results, ledger = run_single_stage(
            small_dataset, Strategy.ZERO_SHOT, provider, "C."
        )
        assert len(results) == len(small_dataset)
        finals = {r.record_id: r.final for r in results}
        for r in small_dataset.records:
            assert finals[r.id] == r.gold_label
        assert all(res.routed is False and res.stage2 is None for res in results)
        assert ledger.entry("base").call_count == len(results)
        for _, prompt in provider.calls:
            assert "Instances:" not in prompt

    def test_unparseable_defaults_to_exclude(self, tiny):
        dataset = tiny[0]
        victim = dataset.records[0].id
        provider = MappedProvider("base", table={victim: "shrug"}, default="include")
        results, _ = run_single_stage(dataset, Strategy.ZERO_SHOT, provider, "C.")
        hit = {r.record_id: r for r in results}[victim]
        assert hit.stage1 is None
        assert hit.final == EXCLUDE
        assert hit.unparsed_final is True

    def test_static_few_shot_shares_instances(self, small_dataset):
        provider = MappedProvider("base", default="exclude")
        run_single_stage(small_dataset, Strategy.FEW_SHOT, provider, "C.", seed=4)
        sections = set()
        for _, prompt in provider.calls:
            body = prompt.split("Instances:\n", 1)[1].split("\n\nTitle:\n", 1)[0]
            assert body.count("Decision:") == 3
            sections.add(body)
        assert len(sections) == 1

    def test_dynamic_strategy_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="run_two_stage"):
            run_single_stage(
                small_dataset, Strategy.DYNAMIC_FEW_SHOT, MappedProvider("m"), "C."
            )


@dataclass
class SlowFailure(MappedProvider):
    """Fails the records in ``slow`` only after a pause, so they fail last."""

    slow: tuple = ()

    def send(self, prompt_text, temperature, max_tokens, tags):
        if tags["record_id"] in self.slow:
            time.sleep(0.05)
        return super().send(prompt_text, temperature, max_tokens, tags)


class TestExecutor:
    def run(self, pipeline, s1, s2=None, parallelism=8, failures=None):
        dataset, points, clustering, pool = pipeline
        s2 = s2 or MappedProvider("s2", default=answer(EXCLUDE, 0.99))
        return run_two_stage(
            dataset, pool, clustering, points, make_cfg(parallelism=parallelism),
            s1, s2, "C.", failures=failures,
        )

    def test_error_stops_the_run_before_the_next_record(
        self, small_pipeline, monkeypatch
    ):
        dataset = small_pipeline[0]
        third = dataset.records[2].id
        real_render = triage.render

        def render(strategy, criteria, record, instances):
            if record.id == third:
                raise ValueError("no prompt for the third record")
            return real_render(strategy, criteria, record, instances)

        monkeypatch.setattr(triage, "render", render)
        s1 = MappedProvider("s1", default=answer(EXCLUDE, 0.99))
        with pytest.raises(ValueError, match="third record"):
            self.run(small_pipeline, s1, parallelism=1)
        assert [rid for rid, _ in s1.calls] == [r.id for r in dataset.records[:2]]

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_failures_listed_in_dataset_order(self, small_pipeline, parallelism):
        dataset = small_pipeline[0]
        ids = [r.id for r in dataset.records]
        doomed = [ids[i] for i in (3, 17, 18, 40, 59)]  # 5/60, within budget
        s1 = SlowFailure(
            "s1",
            default=answer(EXCLUDE, 0.99),
            errors={rid: ProviderError(f"down: {rid}") for rid in doomed},
            slow=(doomed[0],),
        )
        failures = []
        results, _ = self.run(small_pipeline, s1, parallelism=parallelism,
                              failures=failures)
        assert failures == [(rid, f"down: {rid}") for rid in doomed]
        assert [r.record_id for r in results] == sorted(set(ids) - set(doomed))

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_run_error_names_the_first_failure_in_dataset_order(
        self, small_pipeline, parallelism
    ):
        ids = [r.id for r in small_pipeline[0].records]
        doomed = [ids[i] for i in (5, 9, 21, 22, 30, 44, 58)]  # 7/60 > 10%
        s1 = SlowFailure(
            "s1",
            default=answer(EXCLUDE, 0.99),
            errors={rid: ProviderError("down") for rid in doomed},
            slow=(doomed[0],),
        )
        failures = []
        with pytest.raises(RunError) as info:
            self.run(small_pipeline, s1, parallelism=parallelism, failures=failures)
        assert str(info.value) == (
            f"7 of 60 records failed (12%); first: ({doomed[0]!r}, 'down')"
        )
        assert [rid for rid, _ in failures] == doomed

    def test_parallelism_one_runs_on_the_calling_thread(self, small_pipeline):
        seen = set()

        class Recording(MappedProvider):
            def send(self, prompt_text, temperature, max_tokens, tags):
                seen.add(threading.get_ident())
                return super().send(prompt_text, temperature, max_tokens, tags)

        s1 = Recording("s1", default=answer(INCLUDE, 0.5))  # every record routes
        s2 = Recording("s2", default=answer(INCLUDE, 0.99))
        results, _ = self.run(small_pipeline, s1, s2, parallelism=1)
        assert len(s1.calls) == len(s2.calls) == len(results) == 60
        assert seen == {threading.get_ident()}

    def test_in_process_providers_run_on_the_calling_thread(self, small_pipeline):
        dataset = small_pipeline[0]
        gold = gold_of(dataset)
        seen = set()

        def recording(provider):
            send = provider.send

            def record(prompt_text, temperature, max_tokens, tags):
                seen.add(threading.get_ident())
                return send(prompt_text, temperature, max_tokens, tags)

            provider.send = record
            return provider

        s1 = recording(oracle_provider(gold, OracleProfile(0.9, 0.7, 0.5), 0, "s1"))
        s2 = recording(oracle_provider(gold, OracleProfile(0.97, 0.95, 0.95), 0, "s2"))
        assert s1.in_process and s2.in_process
        results, ledger = self.run(small_pipeline, s1, s2, parallelism=8)
        assert len(results) == 60 and ledger.entry("s2").call_count > 0
        assert seen == {threading.get_ident()}

    def test_waiting_provider_spreads_within_parallelism(self, small_pipeline):
        lock = threading.Lock()
        in_flight = [0, 0]  # now, most at once
        seen = set()

        class Waiting(MappedProvider):
            def send(self, prompt_text, temperature, max_tokens, tags):
                with lock:
                    seen.add(threading.get_ident())
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                try:
                    time.sleep(0.002)
                    return super().send(prompt_text, temperature, max_tokens, tags)
                finally:
                    with lock:
                        in_flight[0] -= 1

        s1 = Waiting("s1", default=answer(INCLUDE, 0.5))  # every record routes
        s2 = Waiting("s2", default=answer(INCLUDE, 0.99))
        assert not hasattr(s1, "in_process")
        results, _ = self.run(small_pipeline, s1, s2, parallelism=4)
        assert len(s1.calls) == len(s2.calls) == len(results) == 60
        assert len(seen) > 1
        assert 1 < in_flight[1] <= 4

    def test_empty_dataset(self):
        provider = MappedProvider("base", default="exclude")
        failures = []
        results, ledger = run_single_stage(
            ReviewDataset("EMPTY", []), Strategy.ZERO_SHOT, provider, "C.",
            failures=failures,
        )
        assert results == [] and failures == [] and provider.calls == []
        assert ledger.models() == []

    def test_more_workers_than_records(self, tiny):
        dataset = tiny[0]
        provider = MappedProvider("base", default="exclude")
        results, _ = run_single_stage(
            dataset, Strategy.ZERO_SHOT, provider, "C.", parallelism=64
        )
        assert [r.record_id for r in results] == sorted(r.id for r in dataset.records)
        assert len(provider.calls) == len(dataset)

    def test_every_record_screened_once_under_contention(self, small_pipeline):
        # Tiny switch interval: workers preempt each other between bytecodes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            s1 = MappedProvider("s1", default=answer(INCLUDE, 0.5))
            s2 = MappedProvider("s2", default=answer(INCLUDE, 0.99))
            results, ledger = self.run(small_pipeline, s1, s2, parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        ids = [r.id for r in small_pipeline[0].records]
        assert Counter(rid for rid, _ in s1.calls) == Counter(ids)
        assert Counter(rid for rid, _ in s2.calls) == Counter(ids)
        assert [r.record_id for r in results] == sorted(ids)
        assert ledger.entry("s1").call_count == ledger.entry("s2").call_count == 60


class TestRoutedRatio:
    def make(self, flags):
        return [
            ScreeningResult(
                record_id=f"r{i}",
                stage1=Decision(label=EXCLUDE, confidence=0.95),
                routed=f,
                stage2=None,
                final=EXCLUDE,
            )
            for i, f in enumerate(flags)
        ]

    def test_fraction(self):
        assert routed_ratio(self.make([True, False, False, True])) == 0.5
        assert routed_ratio(self.make([False])) == 0.0
        assert routed_ratio(self.make([True])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            routed_ratio([])


class TestSweep:
    def confidence_ladder(self, dataset):
        # Record i answers with confidence i/n; stage 2 is always right.
        n = len(dataset)
        table = {}
        for i, rec in enumerate(sorted(dataset.records, key=lambda r: r.id)):
            table[rec.id] = answer(rec.gold_label, i / n)
        return table

    def test_nesting_and_counts(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        n = len(dataset)
        s1 = MappedProvider("s1", table=self.confidence_ladder(dataset))
        s2 = MappedProvider(
            "s2",
            table={r.id: answer(r.gold_label, 0.99) for r in dataset.records},
        )
        thresholds = [0.0, 0.25, 0.5, 1.0]
        sweep = sweep_thresholds(
            dataset, pool, clustering, points, make_cfg(), s1, s2, "C.", thresholds
        )
        assert [p.threshold for p in sweep] == thresholds
        # Confidence i/n < th exactly for i < ceil(th*n); spot-check counts.
        assert len(sweep[0].routed_ids) == 0
        assert len(sweep[1].routed_ids) == 15
        assert len(sweep[2].routed_ids) == 30
        assert len(sweep[3].routed_ids) == n
        for lo, hi in zip(sweep, sweep[1:]):
            assert set(lo.routed_ids) <= set(hi.routed_ids)
            assert lo.routed_ratio <= hi.routed_ratio
        # Stage 1 and stage 2 both answer with gold here, so F1 is perfect.
        assert all(p.f1 == 1.0 for p in sweep)

    def test_threshold_zero_equals_stage1_alone(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        gold = gold_of(dataset)
        s1 = oracle_provider(gold, OracleProfile(0.9, 0.6, 0.8), 5, model_id="s1")
        s2 = oracle_provider(gold, OracleProfile(1.0, 1.0, 1.0), 5, model_id="s2")
        sweep = sweep_thresholds(
            dataset, pool, clustering, points, make_cfg(), s1, s2, "C.", [0.0]
        )
        assert sweep[0].routed_ids == ()
        assert sweep[0].routed_ratio == 0.0

    def test_requires_gold(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        blind = ReviewDataset(dataset.review_id,
                              [replace(r, gold_label=None) for r in dataset.records])
        with pytest.raises(ValueError, match="gold labels"):
            sweep_thresholds(
                blind, pool, clustering, points, make_cfg(),
                MappedProvider("s1"), MappedProvider("s2"), "C.", [0.5],
            )

    def test_threshold_validated(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        with pytest.raises(ValueError, match="outside"):
            sweep_thresholds(
                dataset, pool, clustering, points, make_cfg(),
                MappedProvider("s1"), MappedProvider("s2"), "C.", [0.5, 1.2],
            )


    def test_sweep_sends_each_prompt_once(self, small_pipeline, monkeypatch):
        dataset, points, clustering, pool = small_pipeline
        n = len(dataset)
        s1 = MappedProvider("s1", table=self.confidence_ladder(dataset))
        s2 = MappedProvider("s2", default=answer(EXCLUDE, 0.99))
        calls = []
        real_complete = triage.complete

        def counting(*args, **kwargs):
            calls.append(kwargs["tags"]["record_id"])
            return real_complete(*args, **kwargs)

        monkeypatch.setattr(triage, "complete", counting)
        sweep = sweep_thresholds(
            dataset, pool, clustering, points, make_cfg(), s1, s2, "C.",
            [0.25, 0.5, 0.0, 0.5],
        )
        routed_at_max = len(sweep[1].routed_ids)
        assert routed_at_max == 30
        assert len(calls) == n + routed_at_max
        assert len(s1.calls) == n and len(s2.calls) == routed_at_max

    def test_failed_record_raises_run_error(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        bad = dataset.records[0].id
        s1 = MappedProvider(
            "s1", default=answer(EXCLUDE, 0.99), errors={bad: ProviderError("boom")}
        )
        with pytest.raises(RunError, match=bad):
            sweep_thresholds(
                dataset, pool, clustering, points, make_cfg(),
                s1, MappedProvider("s2"), "C.", [0.5],
            )

    def test_empty_threshold_list(self, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        s1 = MappedProvider("s1")
        assert sweep_thresholds(
            dataset, pool, clustering, points, make_cfg(),
            s1, MappedProvider("s2"), "C.", [],
        ) == []
        assert s1.calls == []


@pytest.fixture(scope="module")
def sweep_pipeline():
    dataset = synth.synth_review("SWEEP", 16, 5, k=2, seed=4)
    points, clustering, pool = build_pipeline(dataset, k=2, seed=1)
    return dataset, points, clustering, pool


LABELS = st.sampled_from([INCLUDE, EXCLUDE])
CONFIDENCES = st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
STAGE1_REPLIES = st.one_of(
    st.just("no verdict here"),
    st.builds(answer, LABELS),
    st.builds(answer, LABELS, CONFIDENCES),
)
STAGE2_REPLIES = st.just("???") | st.builds(answer, LABELS, CONFIDENCES)


@given(data=st.data())
def test_one_pass_sweep_equals_a_run_per_threshold(sweep_pipeline, data):
    dataset, points, clustering, pool = sweep_pipeline
    ids = [r.id for r in dataset.records]
    table1 = data.draw(st.fixed_dictionaries({rid: STAGE1_REPLIES for rid in ids}))
    table2 = data.draw(st.fixed_dictionaries({rid: STAGE2_REPLIES for rid in ids}))
    drawn = data.draw(st.lists(CONFIDENCES, min_size=1, max_size=4))
    thresholds = data.draw(st.permutations(drawn + drawn[:1] + [0.0, 1.0]))
    cfg = make_cfg(parallelism=2)
    sweep = sweep_thresholds(
        dataset, pool, clustering, points, cfg,
        MappedProvider("s1", table=table1), MappedProvider("s2", table=table2),
        "C.", thresholds,
    )
    expected = []
    for th in thresholds:
        results, _ = run_two_stage(
            dataset, pool, clustering, points, make_cfg(threshold=th, parallelism=2),
            MappedProvider("s1", table=table1), MappedProvider("s2", table=table2),
            "C.",
        )
        finals = {r.record_id: r.final for r in results}
        expected.append(
            SweepPoint(
                threshold=th,
                f1=metrics(confusion(finals, gold_of(dataset)))["f1"],
                routed_ratio=routed_ratio(results),
                routed_ids=tuple(sorted(r.record_id for r in results if r.routed)),
            )
        )
    assert sweep == expected


class TestSerialization:
    def test_round_trip(self, tmp_path, small_pipeline):
        dataset, points, clustering, pool = small_pipeline
        gold = gold_of(dataset)
        s1 = oracle_provider(gold, OracleProfile(0.95, 0.75, 0.8), 0, model_id="s1")
        s2 = oracle_provider(gold, OracleProfile(0.97, 0.95, 0.95), 0, model_id="s2")
        results, _ = run_two_stage(
            dataset, pool, clustering, points, make_cfg(), s1, s2, "C."
        )
        path = str(tmp_path / "results.jsonl")
        write_results_jsonl(results, path)
        assert read_results_jsonl(path) == results

    def test_dict_round_trip_with_flags(self):
        r = ScreeningResult(
            record_id="x",
            stage1=None,
            routed=True,
            stage2=None,
            final=EXCLUDE,
            stage1_prompt_tokens=10,
            stage1_completion_tokens=3,
            stage2_prompt_tokens=10,
            stage2_completion_tokens=0,
            unparsed_final=True,
        )
        assert ScreeningResult.from_dict(r.to_dict()) == r
