"""One set-up or one measured pass, run in a fresh process.

    worker.py setup --workload W --workspace DIR --seed N --parallelism P
    worker.py pass  --workload W --workspace DIR --seed N --pass-dir D [--trace 0|1]

Each invocation writes one JSON object to ``<pass-dir or workspace>/worker.json``.
Output the program prints goes to ``stdout.txt`` next to it.  The
program is imported from the checkout's ``src/`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import time

import common

common.use_checkout_source()

from dfscreen import cli, synth, triage  # noqa: E402
from dfscreen.cache import ArtifactCache  # noqa: E402
from dfscreen.gateway import OracleProfile, OracleProvider, ResponseCache  # noqa: E402

import latency  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _main(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dfscreen {' '.join(argv)} exited {code}")


def make_workspace(ws: str, seed: int, parallelism: int, reviews=None) -> str:
    """Synth workspace with the pool capped at the machine's cores."""
    path = synth.write_workspace(ws, seed=seed)
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["parallelism"] = parallelism
    if reviews is not None:
        config["reviews"] = {rid: config["reviews"][rid] for rid in reviews}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def setup(workload: str, ws: str, seed: int, parallelism: int) -> dict:
    start = time.perf_counter()
    config = make_workspace(ws, seed, parallelism, common.WORKLOAD_REVIEWS[workload])
    out = {"synth.workspace_s": time.perf_counter() - start}
    if workload == "warm_replay":
        # Cold fill, then one warm screen whose manifest every pass must match.
        _main(["screen", "--config", config, "--out", os.path.join(ws, "ref_cold")])
        _main(["screen", "--config", config, "--out", os.path.join(ws, "ref_warm")])
    elif workload == "latency_bound":
        # Artifacts plus the zero-latency oracle's answers to compare with.
        _main(["screen", "--config", config, "--out", os.path.join(ws, "ref_oracle")])
    return out


def _ledger_totals(ledger: dict) -> tuple[int, float]:
    calls = sum(e["call_count"] for e in ledger.values())
    usd = sum(e["usd"] for e in ledger.values())
    return calls, usd


def _screen_totals(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    calls, usd = _ledger_totals(manifest["ledger"])
    reviews = manifest["reviews"].values()
    return {
        "provider_calls": calls,
        "usd_spent": usd,
        "records": sum(r["records"] for r in reviews),
        "failed": sum(len(r["failed"]) for r in reviews),
    }


def latency_cascade(config_path: str, pass_dir: str, seed: int) -> dict:
    """Cascade over the workspace's reviews through the latency provider."""
    cfg = cli.PipelineConfig.load(config_path)
    run_cfg = triage.RunConfig(
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
    responses = ResponseCache(os.path.join(pass_dir, "responses.jsonl"))
    out_dir = os.path.join(pass_dir, "run")
    os.makedirs(out_dir)
    totals = {"provider_calls": 0, "usd_spent": 0.0, "records": 0, "failed": 0}
    for rid in sorted(cfg.reviews):
        pipe = cli.ReviewPipeline(cfg, rid, ArtifactCache(cfg.cache_dir))
        dataset, _, _ = pipe.curated()
        pool, _ = pipe.pool()
        clus, _ = pipe.clustering()
        pts, _ = pipe.points()
        gold = {r.id: r.gold_label for r in dataset.records}
        stage1, stage2 = (
            latency.LatencyProvider(
                OracleProvider(stage["model"], gold, OracleProfile(**profile), cfg.seed),
                stage=n,
                seed=seed,
                record_ids=sorted(gold),
            )
            for n, stage, profile in (
                (1, cfg.stage1, cfg.provider["profile"]),
                (2, cfg.stage2, cfg.provider["stage2_profile"]),
            )
        )
        failures: list = []
        results, ledger = triage.run_two_stage(
            dataset, pool, clus, pts, run_cfg, stage1, stage2, pipe.criteria(),
            cache=responses, failures=failures, sleep=stage1.scaled_sleep,
        )
        triage.write_results_jsonl(results, os.path.join(out_dir, f"results_{rid}.jsonl"))
        calls, usd = _ledger_totals(ledger.to_dict())
        totals["provider_calls"] += calls
        totals["usd_spent"] += usd
        totals["records"] += len(dataset)
        totals["failed"] += len(failures)
    return totals


def measured_pass(workload: str, ws: str, pass_dir: str, seed: int, tracer) -> dict:
    """The timed body of one pass; returns the end-to-end counts."""
    config = os.path.join(ws, "config.json")
    run_dir = os.path.join(pass_dir, "run")

    def span(name):
        return tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()

    def command(name, argv):
        with span(name):
            _main(argv)

    out: dict = {}
    if workload == "cold_workspace":
        command("screen", ["screen", "--config", config, "--out", run_dir])
        out.update(_screen_totals(run_dir))
    elif workload == "warm_replay":
        command("screen", ["screen", "--config", config, "--out", run_dir])
        command("evaluate", ["evaluate", "--config", config, "--results", run_dir])
        start = time.perf_counter()
        command("sweep", ["sweep", "--config", config,
                          "--thresholds", common.SWEEP_THRESHOLDS,
                          "--out", os.path.join(pass_dir, "sweep")])
        out["sweep_s"] = time.perf_counter() - start
        command("dry_run", ["screen", "--config", config, "--out", run_dir, "--dry-run"])
        out.update(_screen_totals(run_dir))
        with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
            out["macro_f1"] = json.load(fh)["macro"]["f1"]
    else:
        with span("latency_cascade"):
            out.update(latency_cascade(config, pass_dir, seed))
    return out


def run_pass(workload: str, ws: str, pass_dir: str, seed: int, trace: bool) -> dict:
    tracer = None
    if trace:
        tracer = Tracer(run_id=os.path.basename(pass_dir),
                        cache_root=os.path.join(ws, "cache"))
        tracer.install(providers=(latency.LatencyProvider,))
    if workload == "latency_bound":
        responses = os.path.join(pass_dir, "responses.jsonl")
    else:
        responses = os.path.join(ws, "cache", "responses.jsonl")
    responses_before = os.path.getsize(responses) if os.path.exists(responses) else 0
    cpu0 = os.times()
    start = time.perf_counter()
    out = measured_pass(workload, ws, pass_dir, seed, tracer)
    wall = time.perf_counter() - start
    cpu1 = os.times()
    out["wall_s"] = wall
    out["cpu_s"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    size = os.path.getsize(responses) if os.path.exists(responses) else 0
    out["responses_mb"] = (size - responses_before) / 1e6
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(pass_dir, "spans.jsonl"))
        with open(os.path.join(ws, "config.json"), encoding="utf-8") as fh:
            parallelism = json.load(fh)["parallelism"]
        layers = layer_metrics(tracer, parallelism)
        # Layer views of the pass totals, so a traced run reports them too.
        layers["gateway.usd_spent"] = out["usd_spent"]
        layers["triage.failed_ratio"] = out["failed"] / out["records"]
        layers["evaluation.macro_f1"] = out.get("macro_f1", 0.0)
        layers["cache.responses_mb"] = out["responses_mb"]
        layers["cli.sweep_s"] = out.get("sweep_s", 0.0)
        out["layers"] = layers
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--workspace", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--parallelism", type=int, default=1)
    parser.add_argument("--pass-dir")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    out_dir = args.pass_dir if args.mode == "pass" else args.workspace
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stdout.txt"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log):
        if args.mode == "setup":
            result = setup(args.workload, args.workspace, args.seed, args.parallelism)
        else:
            result = run_pass(args.workload, args.workspace, args.pass_dir, args.seed,
                              bool(args.trace))
    with open(os.path.join(out_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
