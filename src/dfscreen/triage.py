"""Two-stage screening cascade and threshold sensitivity sweep.

Stage 1 screens every record with the cheap model using a dynamically
assembled few-shot prompt.  Records whose reported confidence falls
strictly below the threshold are re-screened by the strong model with
the very same prompt; its answer overrides.  Unparseable stage-1 output
counts as zero confidence so it always escalates; unparseable stage-2
output fails safe to exclude and is flagged for audit.

This module is the one place that turns a review into prompts
(``prompter``, also behind the CLI's dry run) and runs them (one
executor and failure budget for the cascade and the single-model
baselines).  The executor's workers drain the records: up to
``parallelism`` of them, the calling thread included, each take the
next record until none is left, so ``parallelism=1`` runs everything on
the calling thread and never more than ``parallelism`` provider calls
are in flight.  When every provider of the run is ``in_process`` (the
oracle), there is no wait to overlap and the calling thread screens
alone: more threads would only contend for the interpreter lock.  A
threshold sweep is scored from a single cascade run.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from .clustering import Clustering
from .corpus import EXCLUDE, ReviewDataset, StudyRecord
from .evaluation import EvaluationError, confusion, metrics
from .exemplar_pool import ExemplarPool, PoolError, cluster_of, select_instances
from .gateway import (
    CostLedger,
    Decision,
    ModelPricing,
    ProviderError,
    ResponseCache,
    UnparseableResponse,
    complete,
    parse_decision,
)
from .jsonl import from_row, read_jsonl, write_jsonl
from .projection import Point2D
from .prompting import Instances, RenderedPrompt, Strategy, render, static_instances

DEFAULT_THRESHOLD = 0.9
DEFAULT_PARALLELISM = 8
DEFAULT_STAGE1_PRICING = ModelPricing(0.40, 1.60)
DEFAULT_STAGE2_PRICING = ModelPricing(2.00, 8.00)


class RunError(RuntimeError):
    """Raised when too many records fail for the run to be trustworthy."""


@dataclass(frozen=True)
class RunConfig:
    stage1_model: str
    stage2_model: str
    strategy: Strategy = Strategy.DYNAMIC_FEW_SHOT
    threshold: float = DEFAULT_THRESHOLD
    stage1_pricing: ModelPricing = DEFAULT_STAGE1_PRICING
    stage2_pricing: ModelPricing = DEFAULT_STAGE2_PRICING
    seed: int = 0
    temperature: float = 0.0
    parallelism: int = DEFAULT_PARALLELISM

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside [0,1]")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome for one record, both stages."""

    record_id: str
    stage1: Decision | None  # None when stage-1 output was unparseable
    routed: bool
    stage2: Decision | None
    final: str
    stage1_prompt_tokens: int = 0
    stage1_completion_tokens: int = 0
    stage2_prompt_tokens: int = 0
    stage2_completion_tokens: int = 0
    unparsed_final: bool = False

    def to_dict(self) -> dict:
        """The ``results_*.jsonl`` row: every field, decisions as dicts."""
        return {name: dict(vars(v)) if isinstance(v, Decision) else v
                for name, v in vars(self).items()}

    @classmethod
    def from_dict(cls, row: dict) -> "ScreeningResult":
        """Inverse of ``to_dict``; a field an older file lacks takes its default."""
        return from_row(cls, {name: from_row(Decision, v) if isinstance(v, dict) else v
                              for name, v in row.items()})


def effective_confidence(stage1: Decision | None) -> float:
    """Confidence used for routing; unparseable or missing counts as 0."""
    if stage1 is None or stage1.confidence is None:
        return 0.0
    return stage1.confidence


def should_route(stage1: Decision | None, threshold: float) -> bool:
    """Strictly-below rule; a record at exactly the threshold stays put.

    Unparseable output routes unconditionally, even at threshold 0.
    """
    if stage1 is None:
        return True
    return effective_confidence(stage1) < threshold


def prompter(
    strategy: Strategy,
    criteria: str,
    dataset: ReviewDataset,
    seed: int,
    exemplars: tuple[ExemplarPool, Clustering, dict[str, Point2D]] | None = None,
) -> Callable[[StudyRecord], RenderedPrompt]:
    """The prompt each record of ``dataset`` is screened with.

    ``dfsl`` selects per-record instances from ``exemplars`` (pool,
    clustering, points); ``fs`` draws its fixed set once, seeded, for the
    whole review; ``zs`` and ``cot`` carry no instances.  Prompts are
    rendered on demand, one record at a time.  A pool exemplar that is not
    in ``dataset`` is a PoolError.

    Targets that share instances are rendered with one ``Instances``, so
    their head is built once.  A ``dfsl`` target outside its cluster's
    pick (the pick that skips no target) gets that pick, resolved once per
    cluster; only a target in its cluster's pick is selected for on its own.
    """
    by_id = dataset.by_id()

    def resolve(chosen) -> Instances:
        try:
            return Instances((by_id[e.record_id], e.label) for e in chosen)
        except KeyError as exc:
            raise PoolError(f"pool exemplar {exc.args[0]} is not in the "
                            f"{dataset.review_id} dataset") from None

    if strategy is not Strategy.DYNAMIC_FEW_SHOT:
        shared = Instances()
        if strategy is Strategy.FEW_SHOT:
            shared = Instances(static_instances(dataset, seed))
        return lambda record: render(strategy, criteria, record, shared)
    pool, clustering, points = exemplars
    picks: dict[int, tuple[set[str], Instances]] = {}  # cluster -> (ids, instances)

    def prompt(record: StudyRecord) -> RenderedPrompt:
        cluster = cluster_of(record.id, clustering, points)
        pick = picks.get(cluster)
        if pick is None:
            try:
                chosen = pool.select_instances(None, cluster)
            except PoolError:
                # Then no target of the cluster has a pick: raise the error
                # that names this one.
                select_instances(record, *exemplars)
                raise
            pick = picks[cluster] = ({e.record_id for e in chosen}, resolve(chosen))
        ids, instances = pick
        if record.id in ids:
            instances = resolve(select_instances(record, *exemplars))
        return render(strategy, criteria, record, instances)

    return prompt


def _screen_all(
    dataset: ReviewDataset,
    prompt_for: Callable[[StudyRecord], RenderedPrompt],
    ledger: CostLedger,
    stage1_provider,
    stage2_provider,
    threshold: float,
    temperature: float,
    parallelism: int,
    cache: ResponseCache | None,
    failures: list | None,
    sleep,
) -> list[ScreeningResult]:
    """Screen every record; at most ``parallelism`` at a time.

    Up to ``parallelism`` workers, the calling thread among them, take
    records in dataset order until none is left, so ``parallelism=1``
    starts no thread, and neither do providers that are all
    ``in_process``.  Results come back id-sorted.

    With ``stage2_provider`` None the stage-1 answer is final; an
    unparseable final answer fails safe to exclude and is flagged.
    Individual provider failures are isolated (collected into
    ``failures`` when a list is passed); more than 10% failed records
    aborts with a RunError since the run is no longer representative.
    Any other error stops the workers from starting another record and
    is re-raised once they have finished the ones in hand.
    """

    def ask(provider, prompt: RenderedPrompt, tags: dict):
        resp = complete(prompt.text, provider, ledger, temperature=temperature,
                        cache=cache, tags=tags, sleep=sleep, digest=prompt.digest)
        try:
            return resp, parse_decision(resp.text, prompt.strategy.expects_confidence)
        except UnparseableResponse:
            return resp, None

    def screen_one(record: StudyRecord) -> ScreeningResult:
        prompt = prompt_for(record)
        tags = {"record_id": record.id}
        resp1, d1 = ask(stage1_provider, prompt, tags)
        routed = stage2_provider is not None and should_route(d1, threshold)
        resp2, d2 = ask(stage2_provider, prompt, tags) if routed else (None, None)
        answer = d2 if routed else d1
        return ScreeningResult(
            record_id=record.id,
            stage1=d1,
            routed=routed,
            stage2=d2,
            final=EXCLUDE if answer is None else answer.label,
            stage1_prompt_tokens=resp1.prompt_tokens,
            stage1_completion_tokens=resp1.completion_tokens,
            stage2_prompt_tokens=resp2.prompt_tokens if routed else 0,
            stage2_completion_tokens=resp2.completion_tokens if routed else 0,
            unparsed_final=answer is None,
        )

    records = dataset.records
    outcomes: list = [None] * len(records)
    indices = iter(range(len(records)))
    claim = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with claim:
                i = next(indices, None)
            if i is None:
                return
            try:
                outcomes[i] = screen_one(records[i])
            except ProviderError as exc:
                outcomes[i] = exc
            except BaseException as exc:  # re-raised by the caller after the join
                outcomes[i] = exc
                stop.set()

    if all(getattr(p, "in_process", False)
           for p in (stage1_provider, stage2_provider) if p is not None):
        parallelism = 1
    helpers = [threading.Thread(target=work)
               for _ in range(min(parallelism, len(records)) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        # Every index is claimed unless something failed; either way the
        # helpers finish the record in hand and start no other.
        stop.set()
        for t in helpers:
            t.join()
    results: list[ScreeningResult] = []
    failed: list[tuple[str, str]] = []
    for record, outcome in zip(records, outcomes):
        if isinstance(outcome, ProviderError):
            failed.append((record.id, str(outcome)))
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            results.append(outcome)
    if failures is not None:
        failures.extend(failed)
    if len(dataset) > 0 and len(failed) / len(dataset) > 0.10:
        raise RunError(
            f"{len(failed)} of {len(dataset)} records failed "
            f"({len(failed) / len(dataset):.0%}); first: {failed[0]}"
        )
    results.sort(key=lambda r: r.record_id)
    return results


def run_two_stage(
    dataset: ReviewDataset,
    pool: ExemplarPool,
    clustering: Clustering,
    points: dict[str, Point2D],
    cfg: RunConfig,
    stage1_provider,
    stage2_provider,
    criteria: str,
    cache: ResponseCache | None = None,
    failures: list | None = None,
    sleep=time.sleep,
) -> tuple[list[ScreeningResult], CostLedger]:
    """Screen a dataset through the cascade. Results come back id-sorted.

    Individual provider failures are isolated (collected into
    ``failures`` when a list is passed); more than 10% failed records
    aborts with a RunError since the run is no longer representative.
    """
    if cfg.strategy is not Strategy.DYNAMIC_FEW_SHOT:
        raise ValueError("the cascade needs the confidence-reporting strategy")
    ledger = CostLedger({stage1_provider.model_id: cfg.stage1_pricing,
                         stage2_provider.model_id: cfg.stage2_pricing})
    prompt_for = prompter(cfg.strategy, criteria, dataset, cfg.seed,
                          (pool, clustering, points))
    results = _screen_all(
        dataset, prompt_for, ledger, stage1_provider, stage2_provider,
        cfg.threshold, cfg.temperature, cfg.parallelism, cache, failures, sleep,
    )
    return results, ledger


def run_single_stage(
    dataset: ReviewDataset,
    strategy: Strategy,
    provider,
    criteria: str,
    pricing: ModelPricing = DEFAULT_STAGE1_PRICING,
    seed: int = 0,
    temperature: float = 0.0,
    parallelism: int = DEFAULT_PARALLELISM,
    cache: ResponseCache | None = None,
    failures: list | None = None,
    sleep=time.sleep,
) -> tuple[list[ScreeningResult], CostLedger]:
    """Baseline runs: one model, no routing, no confidence field.

    The static few-shot strategy draws its fixed demonstration set once,
    seeded, shared by every target in the dataset.
    """
    if strategy is Strategy.DYNAMIC_FEW_SHOT:
        raise ValueError("use run_two_stage for the confidence strategy")
    ledger = CostLedger({provider.model_id: pricing})
    results = _screen_all(
        dataset, prompter(strategy, criteria, dataset, seed), ledger, provider, None,
        0.0, temperature, parallelism, cache, failures, sleep,
    )
    return results, ledger


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    f1: float
    routed_ratio: float
    routed_ids: tuple[str, ...]


def sweep_thresholds(
    dataset: ReviewDataset,
    pool: ExemplarPool,
    clustering: Clustering,
    points: dict[str, Point2D],
    cfg: RunConfig,
    stage1_provider,
    stage2_provider,
    criteria: str,
    thresholds: list[float],
    cache: ResponseCache | None = None,
) -> list[SweepPoint]:
    """Score the cascade at each threshold from one run, at the highest.

    A record routed at a lower threshold is routed there too (confidence
    < th <= max) with the same stage-2 prompt, so each point is exact:
    routed records take the run's final answer, the rest their stage-1
    label.  A sweep costs one cascade run plus the stage-2 calls the
    highest threshold adds.  Needs gold labels, and every record: a
    provider failure on any record raises RunError.
    """
    for th in thresholds:
        if not 0.0 <= th <= 1.0:
            raise ValueError(f"threshold {th} outside [0,1]")
    gold = {r.id: r.gold_label for r in dataset.records}
    if any(v is None for v in gold.values()):
        raise ValueError("threshold sweep needs gold labels on every record")
    if not thresholds:
        return []
    failures: list[tuple[str, str]] = []
    results, _ = run_two_stage(
        dataset, pool, clustering, points, replace(cfg, threshold=max(thresholds)),
        stage1_provider, stage2_provider, criteria, cache=cache, failures=failures,
    )
    if failures:
        raise RunError(
            f"sweep needs every record; {len(failures)} of {len(dataset)} "
            f"failed: {sorted(rid for rid, _ in failures)}"
        )
    out = []
    for th in thresholds:
        routed = {r.record_id for r in results if should_route(r.stage1, th)}
        finals = {
            r.record_id: r.final if r.record_id in routed else r.stage1.label
            for r in results
        }
        f1 = metrics(confusion(finals, gold))["f1"]
        out.append(SweepPoint(th, f1, len(routed) / len(results), tuple(sorted(routed))))
    return out


def write_results_jsonl(results: list[ScreeningResult], path: str) -> None:
    write_jsonl(path, (r.to_dict() for r in results))


def read_results_jsonl(path: str) -> list[ScreeningResult]:
    return read_jsonl(path, ScreeningResult.from_dict, EvaluationError, "unreadable result row")
