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
baselines, each run set by one ``RunConfig``).  The executor's workers drain the records: up to
``parallelism`` of them, the calling thread included, each take the
next record until none is left, so ``parallelism=1`` runs everything on
the calling thread and never more than ``parallelism`` provider calls
are in flight.  When every provider of the run is ``in_process`` (the
oracle), there is no wait to overlap and the calling thread screens
alone: more threads would only contend for the interpreter lock.  A
threshold sweep is scored from the results of a single cascade run.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

from .clustering import Clustering
from .corpus import EXCLUDE, INCLUDE, LABELS, ReviewDataset, StudyRecord
from .evaluation import ConfusionMatrix, EvaluationError, check_ids, metrics
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
from .jsonl import check_unique, read_jsonl, write_jsonl
from .projection import Point2D
from .prompting import Head, RenderedPrompt, Strategy, head, render, static_instances

DEFAULT_THRESHOLD = 0.9
DEFAULT_PARALLELISM = 8
DEFAULT_STAGE1_PRICING = ModelPricing(0.40, 1.60)
DEFAULT_STAGE2_PRICING = ModelPricing(2.00, 8.00)

# Version of the code that turns a screen's inputs into its results bytes:
# the prompt templates (``prompting``), ``parse_decision`` (``gateway``),
# ``should_route`` and the results row (``ScreeningResult.to_dict``).  It is
# in the key a warm ``screen`` replays its results at, so bump it with any
# change that can change a result's bytes.
SCREEN_FORMAT = 1


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
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0,2]")


@dataclass
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
        """Inverse of ``to_dict``; a field an older file lacks takes its default.

        A field of another type than ``to_dict`` writes raises ValueError.
        """
        r = cls(**{name: _decision(v) for name, v in row.items()})
        if type(r.record_id) is not str:
            raise ValueError(f"record_id {r.record_id!r} is not a string")
        if r.final not in LABELS:
            raise ValueError(f"final {r.final!r} is not one of {LABELS}")
        if type(r.routed) is not bool or type(r.unparsed_final) is not bool:
            raise ValueError("routed and unparsed_final must be true or false")
        for d in (r.stage1, r.stage2):
            if d is not None and type(d) is not Decision:
                raise ValueError(f"decision {d!r} is neither null nor an object")
        for n in (r.stage1_prompt_tokens, r.stage1_completion_tokens,
                  r.stage2_prompt_tokens, r.stage2_completion_tokens):
            if type(n) is not int or n < 0:
                raise ValueError(f"token count {n!r} is not a nonnegative integer")
        return r


def _decision(value):
    """A results row's decision object as a Decision; any other value as it is."""
    return Decision(**value) if isinstance(value, dict) else value


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

    Each prompt is ``render`` of a head built once for the targets that
    share it: one for a ``zs``, ``cot`` or ``fs`` review, one per
    ``dfsl`` cluster for its pick (the pick that skips no target), and one
    of its own for a target inside its cluster's pick.
    """
    by_id = dataset.by_id()

    def head_of(chosen) -> Head:
        try:
            instances = [(by_id[e.record_id], e.label) for e in chosen]
        except KeyError as exc:
            raise PoolError(f"pool exemplar {exc.args[0]} is not in the "
                            f"{dataset.review_id} dataset") from None
        return head(strategy, criteria, instances)

    if strategy is not Strategy.DYNAMIC_FEW_SHOT:
        fixed = static_instances(dataset, seed) if strategy is Strategy.FEW_SHOT else None
        shared = head(strategy, criteria, fixed)
        return lambda record: render(shared, record)
    pool, clustering, points = exemplars
    picks: dict[int, tuple[set[str], Head]] = {}  # cluster -> (ids, head)

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
            pick = picks[cluster] = ({e.record_id for e in chosen}, head_of(chosen))
        ids, shared = pick
        if record.id in ids:
            shared = head_of(select_instances(record, *exemplars))
        return render(shared, record)

    return prompt


def _screen_all(
    dataset: ReviewDataset,
    prompt_for: Callable[[StudyRecord], RenderedPrompt],
    ledger: CostLedger,
    stage1_provider,
    stage2_provider,
    cfg: RunConfig,
    cache: ResponseCache | None,
    failures: list | None,
    sleep,
) -> list[ScreeningResult]:
    """Screen every record; at most ``cfg.parallelism`` at a time.

    Up to ``cfg.parallelism`` workers, the calling thread among them,
    take records in dataset order until none is left, so a parallelism
    of 1 starts no thread, and neither do providers that are all
    ``in_process``.  Results come back id-sorted.

    A stage-1 answer that routes at ``cfg.threshold`` goes to
    ``stage2_provider``; with that None, the stage-1 answer is final.  An
    unparseable final answer fails safe to exclude and is flagged.
    Individual provider failures are isolated (collected into
    ``failures`` when a list is passed); more than 10% failed records
    aborts with a RunError since the run is no longer representative;
    once that many have failed, no worker starts another record.
    Any other error stops the workers from starting another record and
    is re-raised once they have finished the ones in hand.
    """

    def ask(provider, prompt: RenderedPrompt, digest: str, tags: dict):
        resp = complete(prompt.text, provider, ledger, temperature=cfg.temperature,
                        cache=cache, tags=tags, sleep=sleep, digest=digest)
        try:
            return resp, parse_decision(resp.text, prompt.strategy.expects_confidence)
        except UnparseableResponse:
            return resp, None

    def screen_one(record: StudyRecord) -> ScreeningResult:
        prompt = prompt_for(record)
        digest = prompt.digest  # one hash for both stages
        tags = {"record_id": record.id}
        resp1, d1 = ask(stage1_provider, prompt, digest, tags)
        routed = stage2_provider is not None and should_route(d1, cfg.threshold)
        resp2, d2 = ask(stage2_provider, prompt, digest, tags) if routed else (None, None)
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
    budget = len(records) // 10  # more failed records than this is a RunError
    failed_count = 0

    def work() -> None:
        nonlocal failed_count
        while not stop.is_set():
            with claim:
                i = next(indices, None)
            if i is None:
                return
            try:
                outcomes[i] = screen_one(records[i])
            except ProviderError as exc:
                outcomes[i] = exc
                with claim:
                    failed_count += 1
                    if failed_count > budget:
                        stop.set()  # the RunError is certain
            except BaseException as exc:  # re-raised by the caller after the join
                outcomes[i] = exc
                stop.set()

    parallelism = cfg.parallelism
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
        # Every index is claimed unless the budget is spent or something
        # failed; either way the helpers finish the record in hand.
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
    if len(failed) > budget:
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
    results = _screen_all(dataset, prompt_for, ledger, stage1_provider, stage2_provider,
                          cfg, cache, failures, sleep)
    return results, ledger


def run_single_stage(
    dataset: ReviewDataset,
    cfg: RunConfig,
    provider,
    criteria: str,
    cache: ResponseCache | None = None,
    failures: list | None = None,
    sleep=time.sleep,
) -> tuple[list[ScreeningResult], CostLedger]:
    """Baseline runs of ``cfg.strategy``: one model, no routing, no confidence field.

    ``provider`` is priced at ``cfg.stage1_pricing``.  The static few-shot
    strategy draws its fixed demonstration set once, seeded by
    ``cfg.seed``, shared by every target in the dataset.
    """
    if cfg.strategy is Strategy.DYNAMIC_FEW_SHOT:
        raise ValueError("use run_two_stage for the confidence strategy")
    ledger = CostLedger({provider.model_id: cfg.stage1_pricing})
    prompt_for = prompter(cfg.strategy, criteria, dataset, cfg.seed)
    results = _screen_all(dataset, prompt_for, ledger, provider, None, cfg, cache, failures,
                          sleep)
    return results, ledger


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    f1: float
    routed_ratio: float
    routed_ids: tuple[str, ...]


def sweep_thresholds(
    results: list[ScreeningResult], gold: dict[str, str], thresholds: list[float]
) -> list[SweepPoint]:
    """Score the cascade at each threshold from one run's results.

    A record routed at a lower threshold is routed at the run's too
    (confidence < th <= the run's) with the same stage-2 prompt, so each
    point is exact: routed records take the run's final answer, the rest
    their stage-1 label.  A threshold that routes a record the results do
    not mark routed is above the run's, and raises ValueError.

    ``results`` hold one row per record.  Their ids are checked against
    ``gold`` once, and each record's routing confidence is read once: at
    any threshold the routed records are those stage 1 left unparsed and
    a prefix of the rest ranked by confidence, whose confusion counts
    come from a running tally.
    """
    check_ids((r.record_id for r in results), gold)
    unparsed = [r for r in results if r.stage1 is None]
    counts = [0, 0, 0, 0]  # tp, fp, fn, tn; a (predicted, actual) pair's index below
    ranked = []  # (confidence, id, index as kept, index as routed, routed in the run)
    for r in results:
        actual = gold[r.record_id] != INCLUDE
        as_routed = 2 * (r.final != INCLUDE) + actual
        if r.stage1 is None:
            counts[as_routed] += 1
        else:
            as_kept = 2 * (r.stage1.label != INCLUDE) + actual
            counts[as_kept] += 1
            ranked.append((effective_confidence(r.stage1), r.record_id, as_kept, as_routed,
                           r.routed))
    ranked.sort()
    tallies = [tuple(counts)]  # tallies[k]: the counts with the k least confident routed
    for _, _, as_kept, as_routed, _ in ranked:
        counts[as_kept] -= 1
        counts[as_routed] += 1
        tallies.append(tuple(counts))
    confidences = [row[0] for row in ranked]
    # A threshold that routes the first k ranked records raises for k >= unrun.
    unrun = 0 if any(not r.routed for r in unparsed) else next(
        (k + 1 for k, row in enumerate(ranked) if not row[4]), math.inf)
    out = []
    for th in thresholds:
        k = bisect_left(confidences, th)  # how many confidences lie below th
        if k >= unrun:
            first = next(r.record_id for r in results
                         if should_route(r.stage1, th) and not r.routed)
            raise ValueError(f"threshold {th} routes {first}, which the run did not route")
        f1 = metrics(ConfusionMatrix(*tallies[k]))["f1"]
        routed = sorted([r.record_id for r in unparsed] + [row[1] for row in ranked[:k]])
        out.append(SweepPoint(th, f1, len(routed) / len(results), tuple(routed)))
    return out


def write_results_jsonl(results: list[ScreeningResult], path: str) -> None:
    write_jsonl(path, (r.to_dict() for r in results))


def read_results_jsonl(path: str, data: bytes | None = None) -> list[ScreeningResult]:
    """The results rows of ``path``, or of ``data`` already read from it."""
    results = read_jsonl(path, ScreeningResult.from_dict, EvaluationError,
                         "unreadable result row", data)
    check_unique(path, (r.record_id for r in results), EvaluationError, "record id")
    return results
