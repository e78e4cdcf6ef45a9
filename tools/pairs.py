"""Alternate single benchmark passes of two checkouts on one workspace.

    python3 tools/pairs.py CHECKOUT_A CHECKOUT_B [--workload W] [--seed N]
                           [--pairs 10] [--work DIR]

Each CHECKOUT is a tree holding ``src/`` and ``perfbench/``.  The script
runs one ``perfbench/worker.py setup`` of CHECKOUT_A, then alternates
``perfbench/worker.py pass`` runs of the two checkouts on that workspace
in ABBA order (A first in even pairs, B first in odd ones), so host drift
falls on both sides alike.  Every pass's outputs (the ``run/`` directory:
results, manifest and, on ``warm_replay``, the evaluate report) must
match the first pass's byte for byte; the script stops at the first that
does not.  It prints each pass, then for ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` each side's median and quartiles and the number of pairs
in which B is lower.  It gates nothing: the exit code is 0 unless a pass
fails or outputs differ.  Standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("cold_workspace", "warm_replay", "latency_bound")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
TIMEOUT_S = 300


def worker(checkout: str, args: list[str]) -> None:
    """Run one worker process of ``checkout``; raise if it fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "worker.py"), *args],
        cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: worker {' '.join(args[:3])} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")


def differing(run_dir: str, reference: str) -> list[str]:
    """Files of the two output directories that differ or exist on one side only."""
    a, b = set(os.listdir(reference)), set(os.listdir(run_dir))
    out = sorted(a ^ b)
    out += [name for name in sorted(a & b) if not filecmp.cmp(
        os.path.join(reference, name), os.path.join(run_dir, name), shallow=False)]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout A, the baseline")
    parser.add_argument("b", help="checkout B, the change")
    parser.add_argument("--workload", default="warm_replay", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--work", help="directory for the workspace and passes "
                        "(default: a new temporary one, removed at the end)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    work = os.path.abspath(args.work) if args.work else tempfile.mkdtemp(prefix="pairs-")
    ws = os.path.join(work, "ws")
    common = ["--workload", args.workload, "--workspace", ws, "--seed", str(args.seed)]
    values = {side: {m: [] for m in METRICS} for side in checkouts}
    reference = None
    try:
        worker(checkouts["A"], ["setup", *common, "--parallelism", str(os.cpu_count() or 1)])
        for n in range(args.pairs):
            row = {}
            for side in ("AB" if n % 2 == 0 else "BA"):
                pass_dir = os.path.join(work, f"pass{n}{side}")
                if args.workload == "cold_workspace":
                    shutil.rmtree(os.path.join(ws, "cache"), ignore_errors=True)
                worker(checkouts[side], ["pass", *common, "--pass-dir", pass_dir])
                with open(os.path.join(pass_dir, "worker.json"), encoding="utf-8") as fh:
                    result = json.load(fh)
                run_dir = os.path.join(pass_dir, "run")
                if reference is None:
                    reference = run_dir
                else:
                    diffs = differing(run_dir, reference)
                    if diffs:
                        print(f"pair {n} {side}: outputs differ from the first pass: "
                              f"{', '.join(diffs)}")
                        return 1
                    shutil.rmtree(pass_dir)
                for m in METRICS:
                    values[side][m].append(result[m])
                row[side] = result
            print(f"pair {n:2d} ({'AB' if n % 2 == 0 else 'BA'}): " + "  ".join(
                f"{m} {row['A'][m]:.4f} -> {row['B'][m]:.4f}" for m in METRICS))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; outputs identical")
    for m in METRICS:
        a, b = values["A"][m], values["B"][m]
        wins = sum(y < x for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        print(f"  {m:<12} A median {qa[1]:.4f} (q1 {qa[0]:.4f}, q3 {qa[2]:.4f})  "
              f"B median {qb[1]:.4f} (q1 {qb[0]:.4f}, q3 {qb[2]:.4f})  "
              f"B/A {qb[1] / qa[1] - 1:+.1%}  B lower in {wins} of {len(a)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
