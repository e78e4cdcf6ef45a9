"""dfscreen benchmark: cold, warm-replay and latency-bound screening.

    python3 perfbench/run.py --workload cold_workspace --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Builds a synthetic workspace from ``--seed``, sets it up in a fresh
process (``setup_s``), then runs measured passes, each in a fresh
process, until ``--seconds`` have elapsed, checking every pass's
outputs.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The
last line of standard output is one JSON object; the lines before it
are a human-readable report with host facts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import common
from tracer import LAYER_METRICS

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_REPS = {"cold_workspace": 3, "warm_replay": 1, "latency_bound": 2}
PROCESS_TIMEOUT_S = 170

# Reported on every workload with ``--trace 0``; these are BENCHMARK.json's
# end-to-end metrics.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in the report only: they are zero on some workload or exist on
# one workload alone, so they are checked or shown rather than bounded.
REPORT_ONLY = {"sweep_s": "s", "provider_calls": "count", "usd_spent": "USD",
               "failed_ratio": "ratio", "macro_f1": "ratio"}


def _steal_s() -> float:
    """CPU time the hypervisor took from this machine so far (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _run_worker(args: list[str]) -> tuple[float, float]:
    """Run one worker process to completion; return its wall and steal time."""
    steal = _steal_s()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=common.ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:3])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return wall, _steal_s() - steal


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def host_facts() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "commit": commit or "unknown (not a git checkout)",
    }


def pass_checks(workload: str, ws: str, pass_dir: str, result: dict,
                curated: dict[str, int], first_run: str | None) -> list[str]:
    run_dir = os.path.join(pass_dir, "run")
    errors = checks.result_counts(run_dir, curated)
    if result["failed"]:
        errors.append(f"{result['failed']} of {result['records']} records failed")
    if first_run is not None:
        # Every pass of a run, traced or not, writes the same results.
        errors += checks.same_bytes(run_dir, first_run)
    if workload in ("cold_workspace", "warm_replay"):
        errors += checks.manifest_counts(run_dir)
    if workload == "warm_replay":
        errors += checks.same_bytes(run_dir, os.path.join(ws, "ref_cold"))
        errors += checks.same_bytes(run_dir, os.path.join(ws, "ref_warm"), ["manifest.json"])
        if result["provider_calls"] or result["usd_spent"]:
            errors.append(f"warm replay made {result['provider_calls']} provider calls, "
                          f"spent ${result['usd_spent']}")
        threshold = _load(os.path.join(ws, "config.json"))["threshold"]
        errors += checks.sweep_consistent(os.path.join(pass_dir, "sweep", "sweep.csv"),
                                          run_dir, threshold)
        errors += checks.dry_run_total(os.path.join(pass_dir, "stdout.txt"),
                                       result["records"])
        layers = result.get("layers")
        if layers and layers["gateway.cache_hit_ratio"] != 1.0:
            errors.append(f"warm cache hit ratio {layers['gateway.cache_hit_ratio']}")
    if workload == "latency_bound":
        errors += checks.same_bytes(run_dir, os.path.join(ws, "ref_oracle"))
    return errors


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans_dir: str | None) -> dict:
    from dfscreen import synth

    parallelism = os.cpu_count() or 1
    curated = {s.review_id: s.curated for s in synth.BENCHMARK_REVIEWS
               if s.review_id in common.WORKLOAD_REVIEWS[workload]}
    work = os.path.join(common.WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    ws = os.path.join(work, "ws")
    try:
        setup_s, workspace_s = [], []
        for _ in range(SETUP_REPS[workload]):
            shutil.rmtree(ws, ignore_errors=True)
            wall, _ = _run_worker(["setup", "--workload", workload, "--workspace", ws,
                                   "--seed", str(seed), "--parallelism", str(parallelism)])
            setup_s.append(wall)
            workspace_s.append(_load(os.path.join(ws, "worker.json"))["synth.workspace_s"])

        passes, errors, durations = [], [], []
        first_run = None
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = os.path.join(work, f"pass{len(passes)}")
            if workload == "cold_workspace":
                shutil.rmtree(os.path.join(ws, "cache"), ignore_errors=True)
            duration, steal = _run_worker(["pass", "--workload", workload, "--workspace", ws,
                                    "--seed", str(seed), "--pass-dir", pass_dir,
                                    "--trace", "1" if traced else "0"])
            result = _load(os.path.join(pass_dir, "worker.json"))
            result["traced"] = traced
            # Host CPU steal during the pass, to tell a disturbed run from a slow one.
            result["steal_s"] = steal
            errors += [f"pass {len(passes)}: {e}" for e in
                       pass_checks(workload, ws, pass_dir, result, curated, first_run)]
            first_run = first_run or os.path.join(pass_dir, "run")
            if traced and spans_dir:
                os.makedirs(spans_dir, exist_ok=True)
                shutil.copy(os.path.join(pass_dir, "spans.jsonl"), os.path.join(
                    spans_dir, f"{workload}-{seed}-pass{len(passes)}.jsonl"))
            passes.append(result)
            durations.append(duration)
            # Stop when the next pass would end more than half a pass past
            # the deadline, so a run measures close to ``seconds``.
            enough = not trace or len(passes) >= 2
            left = seconds - (time.perf_counter() - start)
            if enough and left < statistics.median(durations) / 2:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(common.WORK_ROOT)
        except OSError:
            pass
    return {"workload": workload, "seed": seed, "setup_s": setup_s,
            "synth.workspace_s": workspace_s, "passes": passes, "errors": errors}


def summarize(run: dict, trace: bool) -> dict:
    """Medians over the run's untraced passes (traced ones for layers)."""
    plain = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    values = {
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "setup_s": run["setup_s"],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "provider_calls": [p["provider_calls"] for p in plain],
        "usd_spent": [p["usd_spent"] for p in plain],
        "failed_ratio": [p["failed"] / p["records"] for p in plain],
    }
    for name in ("sweep_s", "macro_f1"):  # warm_replay only
        if name in plain[0]:
            values[name] = [p[name] for p in plain]
    summary = {name: {"median": statistics.median(v), "max": max(v), "n": len(v)}
               for name, v in values.items()}
    layers = {}
    if trace:
        for name in LAYER_METRICS:
            if name == "synth.workspace_s":
                layers[name] = statistics.median(run["synth.workspace_s"])
            elif name == "trace.overhead_s":
                layers[name] = (statistics.median(p["wall_s"] for p in traced)
                                - statistics.median(p["wall_s"] for p in plain))
            else:
                layers[name] = statistics.median(p["layers"][name] for p in traced)
    return {"summary": summary, "layers": layers}


def print_report(run: dict, digest: dict, facts: dict) -> None:
    print(f"== {run['workload']} (seed {run['seed']}, {len(run['passes'])} passes)")
    units = {**END_TO_END, **REPORT_ONLY}
    for name, stats in digest["summary"].items():
        print(f"  {name:<16} {stats['median']:>14.6g} {units[name]:<6}"
              f" median of n={stats['n']}, max {stats['max']:.6g}")
    for name, value in digest["layers"].items():
        print(f"  {name:<36} {value:>14.6g}")
    for error in run["errors"]:
        print(f"  CHECK FAILED: {error}")
    steal = sum(p["steal_s"] for p in run["passes"])
    print(f"  host CPU steal during the passes: {steal:.2f} s")
    print("  checks: " + ("FAILED" if run["errors"] else "all passed"))
    print(json.dumps({"host": facts, "workload": run["workload"], "seed": run["seed"],
                      "summary": digest["summary"], "layers": digest["layers"],
                      "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "steal_s")}
                                 for p in run["passes"]],
                      "errors": run["errors"]}, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*common.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="directory to keep the traced passes' spans in")
    args = parser.parse_args(argv)
    try:
        common.use_checkout_source()
    except common.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = host_facts()
    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.spans)
        digest = summarize(run, bool(args.trace))
        print_report(run, digest, facts)
        correct = correct and not run["errors"]
        attempted += sum(p["records"] for p in run["passes"])
        failed += sum(p["failed"] for p in run["passes"])
        if args.trace:
            chosen = {name: (value, LAYER_METRICS[name])
                      for name, value in digest["layers"].items()}
        else:
            chosen = {name: (digest["summary"][name]["median"], unit)
                      for name, unit in END_TO_END.items()}
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit) in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
