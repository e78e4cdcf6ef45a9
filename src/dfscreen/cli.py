"""Command-line front end for the screening pipeline.

One JSON config describes an experiment: datasets and criteria per
review, embedding backend, clustering overrides, strategy, threshold,
models and pricing, seed, cache directory.  Commands run individual
stages or the whole cascade; intermediates land in a content-addressed
cache so reruns only redo what changed.

Exit codes: 0 success, 2 config error, 3 provider failure,
4 evaluation mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import clustering as clustering_mod
from . import corpus, evaluation, triage
from .cache import ArtifactCache, canonical_json, content_key, sha256_hex
from .embedding import EmbeddingClient, EmbeddingError, EmbeddingProviderConfig
from .exemplar_pool import ExemplarPool, PoolError, build_pool
from .gateway import (
    CostLedger,
    HttpChatProvider,
    LedgerEntry,
    ModelPricing,
    OracleProfile,
    OracleProvider,
    ProviderError,
    ResponseCache,
    ResponseCacheError,
    estimate_cost,
    estimate_tokens,
)
from .projection import (
    ProjectionError,
    project_2d,
    read_points_jsonl,
    write_points_jsonl,
)
from .prompting import PromptError, Strategy
from .prompting import render  # noqa: F401  (the benchmark's tracer patches cli.render)
from .pubmed import PubMedClient, PubMedError
from .triage import RunConfig, RunError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_EVALUATION = 4

DRY_RUN_COMPLETION_TOKENS = 64  # nominal per-call output allowance


class ConfigError(ValueError):
    pass


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class PipelineConfig:
    """Validated view over the experiment config file."""

    def __init__(self, raw: dict, base_dir: str = "."):
        self.raw = raw
        self.base_dir = base_dir
        reviews = raw.get("reviews")
        if not isinstance(reviews, dict) or not reviews:
            raise ConfigError("config needs a nonempty 'reviews' mapping")
        self.reviews: dict[str, dict] = {}
        for rid, entry in reviews.items():
            if "dataset" not in entry or "criteria" not in entry:
                raise ConfigError(f"review {rid}: needs 'dataset' and 'criteria' paths")
            self.reviews[rid] = {
                "dataset": self._resolve(entry["dataset"]),
                "criteria": self._resolve(entry["criteria"]),
                "k": entry.get("k"),
            }
        emb = raw.get("embedding", {"kind": "hashed_tf", "dim": 64})
        try:
            self.embedding = EmbeddingProviderConfig(
                kind=emb.get("kind", "hashed_tf"),
                model=emb.get("model", "hashed-tf-64"),
                url=emb.get("url"),
                path=self._resolve(emb["path"]) if emb.get("path") else None,
                dim=emb.get("dim", 64),
            )
        except Exception as exc:
            raise ConfigError(f"embedding config: {exc}") from None
        proj = raw.get("projection", "pca")
        if isinstance(proj, str):
            proj = {"method": proj}
        if proj.get("method") not in ("pca", "import"):
            raise ConfigError(f"unknown projection method {proj.get('method')!r}")
        self.projection = proj
        try:
            self.strategy = Strategy(raw.get("strategy", "dfsl"))
        except ValueError:
            raise ConfigError(f"unknown strategy {raw.get('strategy')!r}") from None
        self.threshold = float(raw.get("threshold", triage.DEFAULT_THRESHOLD))
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0,1]")
        self.seed = int(raw.get("seed", 0))
        self.temperature = float(raw.get("temperature", 0.0))
        self.parallelism = int(raw.get("parallelism", triage.DEFAULT_PARALLELISM))
        self.stage1 = self._model_cfg(raw, "stage1", "mini", 0.40, 1.60)
        self.stage2 = self._model_cfg(raw, "stage2", "large", 2.00, 8.00)
        self.provider = raw.get("provider", {"kind": "oracle"})
        if self.provider.get("kind") not in ("oracle", "http"):
            raise ConfigError(f"unknown provider kind {self.provider.get('kind')!r}")
        self.cache_dir = self._resolve(raw.get("cache_dir", "cache"))

    def _resolve(self, path: str) -> str:
        if os.path.isabs(path):
            return path
        return os.path.normpath(os.path.join(self.base_dir, path))

    @staticmethod
    def _model_cfg(raw, key, default_model, in_price, out_price) -> dict:
        entry = raw.get(key, {})
        pricing = entry.get("pricing", {})
        try:
            return {
                "model": entry.get("model", default_model),
                "pricing": ModelPricing(
                    float(pricing.get("input_usd_per_mtok", in_price)),
                    float(pricing.get("output_usd_per_mtok", out_price)),
                ),
                "url": entry.get("url"),
                "api_key_env": entry.get("api_key_env"),
            }
        except ValueError as exc:
            raise ConfigError(f"{key} config: {exc}") from None

    def config_hash(self) -> str:
        return sha256_hex(canonical_json(self.raw))

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))


class ReviewPipeline:
    """Lazy stage runner for one review, backed by the artifact cache.

    Every stage's cache key folds in its parameters and its input's key,
    so a changed dataset, embedding config, or seed invalidates exactly
    the stages downstream of the change.
    """

    def __init__(self, cfg: PipelineConfig, review_id: str, cache: ArtifactCache):
        self.cfg = cfg
        self.review_id = review_id
        self.entry = cfg.reviews[review_id]
        self.cache = cache
        self._curated = None
        self._vectors = None
        self._points = None
        self._clustering = None
        self._pool = None

    def criteria(self) -> str:
        with open(self.entry["criteria"], encoding="utf-8") as fh:
            return fh.read().strip()

    def curated(self):
        if self._curated is None:
            dataset_path = self.entry["dataset"]
            key = content_key(
                "curate", {"dataset_sha256": _file_sha256(dataset_path)}, []
            )
            if self.cache.has(key):
                dataset = corpus.load_dataset_jsonl(self.cache.path(key), self.review_id)
                report = None
            else:
                raw = corpus.load_dataset(dataset_path, self.review_id)
                dataset, report = corpus.curate(raw)
                corpus.write_dataset_jsonl(dataset, self.cache.path(key) + ".tmp")
                os.replace(self.cache.path(key) + ".tmp", self.cache.path(key))
            self._curated = (dataset, report, key)
        return self._curated

    def vectors(self):
        if self._vectors is None:
            dataset, _, curate_key = self.curated()
            key = content_key(
                "embed", {"provider": self.cfg.embedding.fingerprint()}, [curate_key]
            )
            ids = [r.id for r in dataset.records]
            if self.cache.has(key):
                client = EmbeddingClient(
                    EmbeddingProviderConfig(
                        kind="file_import", path=self.cache.path(key)
                    )
                )
                vecs = client.embed_batch([r.text for r in dataset.records], ids)
            else:
                client = EmbeddingClient(self.cfg.embedding)
                vecs = client.embed_batch([r.text for r in dataset.records], ids)
                from .embedding import write_vectors_jsonl

                write_vectors_jsonl(ids, vecs, self.cache.path(key))
            self._vectors = (ids, vecs, key)
        return self._vectors

    def points(self):
        if self._points is None:
            ids, vecs, embed_key = self.vectors()
            method = self.cfg.projection["method"]
            params = {"method": method}
            if method == "import":
                params["source_sha256"] = _file_sha256(
                    self.cfg._resolve(self.cfg.projection["path"])
                )
            key = content_key("project", params, [embed_key])
            if self.cache.has(key):
                pts = read_points_jsonl(self.cache.path(key))
            else:
                if method == "import":
                    pts = project_2d(
                        ids,
                        method="import",
                        import_path=self.cfg._resolve(self.cfg.projection["path"]),
                    )
                else:
                    pts = project_2d(ids, vectors=vecs, method="pca")
                write_points_jsonl(pts, self.cache.path(key))
            self._points = (pts, key)
        return self._points

    def clustering(self):
        if self._clustering is None:
            pts, project_key = self.points()
            k = clustering_mod.choose_k(len(pts), override=self.entry.get("k"))
            key = content_key(
                "cluster", {"k": k, "seed": self.cfg.seed}, [project_key]
            )
            if self.cache.has(key):
                clus = clustering_mod.Clustering.from_json(self.cache.read_text(key))
            else:
                clus = clustering_mod.kmeans(pts, k, self.cfg.seed)
                self.cache.write_text(key, clus.to_json())
            self._clustering = (clus, key)
        return self._clustering

    def pool(self):
        if self._pool is None:
            dataset, _, _ = self.curated()
            pts, _ = self.points()
            clus, cluster_key = self.clustering()
            key = content_key("pool", {}, [cluster_key])
            if self.cache.has(key):
                pool = ExemplarPool.from_json(self.cache.read_text(key))
            else:
                pool = build_pool(dataset, clus, pts)
                self.cache.write_text(key, pool.to_json())
            self._pool = (pool, key)
        return self._pool

    def exemplars(self):
        """(pool, clustering, points): what dynamic few-shot selects from."""
        return self.pool()[0], self.clustering()[0], self.points()[0]

    def screen_key(self) -> str:
        _, pool_key = self.pool()
        params = {
            "strategy": self.cfg.strategy.value,
            "threshold": self.cfg.threshold,
            "stage1": self.cfg.stage1["model"],
            "stage2": self.cfg.stage2["model"],
            "temperature": self.cfg.temperature,
            "seed": self.cfg.seed,
        }
        return content_key("screen", params, [pool_key])


def _build_providers(cfg: PipelineConfig, gold: dict[str, str]):
    kind = cfg.provider.get("kind", "oracle")
    if kind == "http":
        def make(stage):
            if not stage.get("url"):
                raise ConfigError(f"http provider needs a url for {stage['model']}")
            api_key = None
            if stage.get("api_key_env"):
                api_key = os.environ.get(stage["api_key_env"])
            return HttpChatProvider(stage["model"], stage["url"], api_key=api_key)

        return make(cfg.stage1), make(cfg.stage2)
    if any(v is None for v in gold.values()):
        raise ConfigError("oracle provider needs gold labels on every record")
    p1 = cfg.provider.get("profile", {"acc_hi": 0.95, "acc_lo": 0.75, "p_hi": 0.87})
    p2 = cfg.provider.get(
        "stage2_profile", {"acc_hi": 0.97, "acc_lo": 0.95, "p_hi": 0.95}
    )
    try:
        prof1, prof2 = OracleProfile(**p1), OracleProfile(**p2)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"oracle profile: {exc}") from None
    return (
        OracleProvider(cfg.stage1["model"], gold, prof1, cfg.seed),
        OracleProvider(cfg.stage2["model"], gold, prof2, cfg.seed),
    )


def _run_config(cfg: PipelineConfig) -> RunConfig:
    return RunConfig(
        stage1_model=cfg.stage1["model"],
        stage2_model=cfg.stage2["model"],
        strategy=cfg.strategy,
        threshold=cfg.threshold,
        stage1_pricing=cfg.stage1["pricing"],
        stage2_pricing=cfg.stage2["pricing"],
        seed=cfg.seed,
        temperature=cfg.temperature,
        parallelism=cfg.parallelism,
    )


def cmd_curate(args) -> int:
    cfg = PipelineConfig.load(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    reports = {}
    for rid, entry in sorted(cfg.reviews.items()):
        raw = corpus.load_dataset(entry["dataset"], rid)
        dataset, report = corpus.curate(raw)
        corpus.write_dataset_jsonl(dataset, os.path.join(out_dir, f"{rid}_curated.jsonl"))
        reports[rid] = {
            "retrieved": report.retrieved,
            "curated": report.curated,
            "removed_missing": report.removed_missing,
            "removed_duplicate": report.removed_duplicate,
            "includes": dataset.include_count(),
        }
        print(
            f"{rid}: {report.retrieved} -> {report.curated} "
            f"({report.removed_missing} missing, {report.removed_duplicate} duplicate)"
        )
    with open(os.path.join(out_dir, "curation_report.json"), "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def cmd_fetch(args) -> int:
    pmids = []
    if args.pmid_file:
        with open(args.pmid_file, encoding="utf-8") as fh:
            pmids.extend(line.strip() for line in fh if line.strip())
    pmids.extend(args.pmids)
    if not pmids:
        raise ConfigError("no PMIDs given (use --pmid-file or positional ids)")
    client = PubMedClient(api_key=os.environ.get("NCBI_API_KEY"))
    dataset = client.fetch(pmids, review_id=args.review_id)
    corpus.write_dataset_jsonl(dataset, args.out)
    print(f"fetched {len(dataset)} of {len(pmids)} records -> {args.out}")
    return EXIT_OK


def _pipeline_for(cfg: PipelineConfig, rid: str) -> ReviewPipeline:
    return ReviewPipeline(cfg, rid, ArtifactCache(cfg.cache_dir))


def _stage_command(stage: str):
    def run(args) -> int:
        cfg = PipelineConfig.load(args.config)
        for rid in sorted(cfg.reviews):
            pipe = _pipeline_for(cfg, rid)
            if stage == "embed":
                _, _, key = pipe.vectors()
            elif stage == "project":
                _, key = pipe.points()
            elif stage == "cluster":
                clus, key = pipe.clustering()
                print(f"{rid}: k={clus.k} inertia={clus.inertia:.4f}")
            else:
                _, key = pipe.pool()
            print(f"{rid}: {stage} -> {pipe.cache.path(key)}")
        return EXIT_OK

    return run


def _screen_review(cfg: PipelineConfig, rid: str, response_cache, failures):
    pipe = _pipeline_for(cfg, rid)
    dataset, _, _ = pipe.curated()
    criteria = pipe.criteria()
    gold = {r.id: r.gold_label for r in dataset.records}
    stage1, stage2 = _build_providers(cfg, gold)
    if cfg.strategy is Strategy.DYNAMIC_FEW_SHOT:
        results, ledger = triage.run_two_stage(
            dataset,
            *pipe.exemplars(),
            _run_config(cfg),
            stage1,
            stage2,
            criteria,
            cache=response_cache,
            failures=failures,
        )
    else:
        results, ledger = triage.run_single_stage(
            dataset,
            cfg.strategy,
            stage1,
            criteria,
            pricing=cfg.stage1["pricing"],
            seed=cfg.seed,
            temperature=cfg.temperature,
            parallelism=cfg.parallelism,
            cache=response_cache,
            failures=failures,
        )
    return pipe, dataset, results, ledger


def _dry_run_screen(cfg: PipelineConfig) -> int:
    stages = 2 if cfg.strategy is Strategy.DYNAMIC_FEW_SHOT else 1
    total_calls = 0
    usd_upper = 0.0
    for rid in sorted(cfg.reviews):
        pipe = _pipeline_for(cfg, rid)
        dataset, _, _ = pipe.curated()
        exemplars = pipe.exemplars() if stages == 2 else None
        prompt_for = triage.prompter(
            cfg.strategy, pipe.criteria(), dataset, cfg.seed, exemplars
        )
        prompt_tokens = sum(
            estimate_tokens(prompt_for(record).text) for record in dataset.records
        )
        calls = len(dataset) * stages
        completion_tokens = len(dataset) * DRY_RUN_COMPLETION_TOKENS
        entry = LedgerEntry(prompt_tokens, completion_tokens)
        cost = estimate_cost(entry, cfg.stage1["pricing"])
        if stages == 2:
            # Upper bound assumes every record routes.
            cost += estimate_cost(entry, cfg.stage2["pricing"])
        total_calls += calls
        usd_upper += cost
        print(f"{rid}: {len(dataset)} records, up to {calls} calls, <= ${cost:.2f}")
    print(f"total: up to {total_calls} calls, <= ${usd_upper:.2f}")
    return EXIT_OK


def cmd_screen(args) -> int:
    cfg = PipelineConfig.load(args.config)
    if args.strategy:
        cfg.strategy = Strategy(args.strategy)
    if args.threshold is not None:
        if not 0.0 <= args.threshold <= 1.0:
            raise ConfigError(f"threshold {args.threshold} outside [0,1]")
        cfg.threshold = args.threshold
    if args.stage1:
        cfg.stage1["model"] = args.stage1
    if args.stage2:
        cfg.stage2["model"] = args.stage2
    if args.dry_run:
        return _dry_run_screen(cfg)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    response_cache = ResponseCache(os.path.join(cfg.cache_dir, "responses.jsonl"))
    os.makedirs(cfg.cache_dir, exist_ok=True)
    merged = CostLedger()
    manifest = {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "strategy": cfg.strategy.value,
        "threshold": cfg.threshold,
        "reviews": {},
    }
    for rid in sorted(cfg.reviews):
        failures: list = []
        pipe, dataset, results, ledger = _screen_review(
            cfg, rid, response_cache, failures
        )
        merged.merge(ledger)
        results_path = os.path.join(out_dir, f"results_{rid}.jsonl")
        triage.write_results_jsonl(results, results_path)
        manifest["reviews"][rid] = {
            "screen_key": pipe.screen_key(),
            "records": len(dataset),
            "results": os.path.basename(results_path),
            "routed": sum(1 for r in results if r.routed),
            "failed": sorted(rid_ for rid_, _ in failures),
        }
        print(
            f"{rid}: screened {len(results)} records, "
            f"routed {manifest['reviews'][rid]['routed']}"
        )
    manifest["ledger"] = merged.to_dict()
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"usd_total: ${merged.usd_total:.4f}")
    return EXIT_OK


def _gold_for(cfg: PipelineConfig, rid: str) -> dict[str, str]:
    pipe = _pipeline_for(cfg, rid)
    dataset, _, _ = pipe.curated()
    gold = {r.id: r.gold_label for r in dataset.records}
    if any(v is None for v in gold.values()):
        raise evaluation.EvaluationError(f"review {rid}: gold labels missing")
    return gold


def cmd_evaluate(args) -> int:
    cfg = PipelineConfig.load(args.config)
    rows = []
    for rid in sorted(cfg.reviews):
        results_path = os.path.join(args.results, f"results_{rid}.jsonl")
        if not os.path.exists(results_path):
            raise evaluation.EvaluationError(f"missing results file {results_path}")
        results = triage.read_results_jsonl(results_path)
        gold = _gold_for(cfg, rid)
        usd1 = cfg.stage1["pricing"].cost(
            sum(r.stage1_prompt_tokens for r in results),
            sum(r.stage1_completion_tokens for r in results),
        )
        usd2 = cfg.stage2["pricing"].cost(
            sum(r.stage2_prompt_tokens for r in results),
            sum(r.stage2_completion_tokens for r in results),
        )
        rows.append(evaluation.evaluate_run(rid, results, gold, usd1, usd2))
    report = evaluation.MetricsReport(rows=rows)
    csv_path = os.path.join(args.results, "report.csv")
    json_path = os.path.join(args.results, "report.json")
    evaluation.write_report(report, csv_path, json_path)
    macro = report.macro()
    for row in rows:
        print(
            f"{row.review_id}: P={row.precision:.4f} R={row.recall:.4f} "
            f"F1={row.f1:.4f} routed={row.routed_ratio:.2%}"
        )
    print(f"macro F1: {macro['f1']:.4f}")
    print(f"report: {csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = PipelineConfig.load(args.config)
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad thresholds list {args.thresholds!r}") from None
    if not thresholds:
        raise ConfigError("no thresholds given")
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"threshold {t} outside [0,1]")
    if cfg.strategy is not Strategy.DYNAMIC_FEW_SHOT:
        raise ConfigError("sweep needs the dfsl strategy")
    os.makedirs(args.out, exist_ok=True)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    response_cache = ResponseCache(os.path.join(cfg.cache_dir, "responses.jsonl"))
    out_rows = []
    for rid in sorted(cfg.reviews):
        pipe = _pipeline_for(cfg, rid)
        dataset, _, _ = pipe.curated()
        gold = {r.id: r.gold_label for r in dataset.records}
        stage1, stage2 = _build_providers(cfg, gold)
        points = triage.sweep_thresholds(
            dataset,
            *pipe.exemplars(),
            _run_config(cfg),
            stage1,
            stage2,
            pipe.criteria(),
            thresholds,
            cache=response_cache,
        )
        for pt in points:
            out_rows.append((rid, pt.threshold, pt.f1, pt.routed_ratio))
            print(
                f"{rid} @ {pt.threshold:.2f}: F1={pt.f1:.4f} "
                f"routed={pt.routed_ratio:.2%}"
            )
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("review_id,threshold,f1,routed_ratio\n")
        for rid, th, f1, ratio in out_rows:
            fh.write(f"{rid},{th!r},{f1!r},{ratio!r}\n")
    print(f"sweep table: {sweep_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    report_a = evaluation.read_report_csv(args.run_a)
    report_b = evaluation.read_report_csv(args.run_b)
    outcome = evaluation.compare_runs(report_a, report_b)
    test = outcome["t_test"]
    for rid, f1a, f1b in zip(
        outcome["reviews"], outcome["f1_before"], outcome["f1_after"]
    ):
        print(f"{rid}: {f1a:.4f} -> {f1b:.4f} ({f1b - f1a:+.4f})")
    print(
        f"macro F1: {outcome['macro_before']:.4f} -> {outcome['macro_after']:.4f}"
    )
    print(
        f"paired t: t={test.t_statistic:.4f} df={test.df} "
        f"two-sided p={test.p_value:.6f} "
        f"(tails: lower={test.lower_tail_p:.6f}, upper={test.upper_tail_p:.6f})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfscreen",
        description="Two-stage dynamic few-shot screening pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="clean raw datasets and report the removals")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("fetch", help="fetch title/abstract records from PubMed")
    p.add_argument("pmids", nargs="*", help="PMIDs to fetch")
    p.add_argument("--pmid-file", help="file with one PMID per line")
    p.add_argument("--review-id", default="pubmed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fetch)

    for stage in ("embed", "project", "cluster", "pool"):
        p = sub.add_parser(stage, help=f"run the {stage} stage (and its inputs)")
        p.add_argument("--config", required=True)
        p.set_defaults(func=_stage_command(stage))

    p = sub.add_parser("screen", help="run the screening cascade")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--threshold", type=float)
    p.add_argument("--stage1", help="override the stage-1 model id")
    p.add_argument("--stage2", help="override the stage-2 model id")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("evaluate", help="score screening results against gold labels")
    p.add_argument("--config", required=True)
    p.add_argument("--results", required=True, help="directory cmd_screen wrote")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="threshold sensitivity sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--thresholds", default="0.7,0.8,0.9")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="paired t-test between two report CSVs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, corpus.DatasetError, OSError, ResponseCacheError,
            EmbeddingError, ProjectionError, clustering_mod.ClusteringError,
            PoolError, PromptError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProviderError, RunError, PubMedError) as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except evaluation.EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    raise SystemExit(main())
