"""Alternate single benchmark passes of two checkouts.

    python3 tools/pairs.py CHECKOUT_A CHECKOUT_B [--workload W] [--seed N]
                           [--pairs 10] [--work DIR]

Each CHECKOUT is a tree holding ``src/`` and ``perfbench/``.  The script
runs ``perfbench/worker.py setup`` of each checkout on a workspace of its
own, so each side's cache (the ``screen-*`` memos included) holds what
its own code wrote, then alternates ``perfbench/worker.py pass`` runs of
the two checkouts in ABBA order (A first in even pairs, B first in odd
ones), so host drift falls on both sides alike.  Every pass's outputs
(the ``run/`` directory: results, manifest and, on ``warm_replay``, the
evaluate report; and on ``warm_replay`` the sweep's ``sweep/sweep.csv``)
must match its own side's first pass byte for byte; the script stops at
the first that does not.  The files in which A's outputs
differ from B's, such as a manifest holding a changed key, are printed
once after the first pair, and the run goes on.  It prints each pass,
then for ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` each side's median
and quartiles and the number of pairs in which B is lower.  It gates
nothing: the exit code is 0 unless a pass fails or a side's outputs
differ from its first pass.  Standard library only.
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
SWEEP_CSV = os.path.join("sweep", "sweep.csv")


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


def outputs(pass_dir: str) -> set[str]:
    """A pass's output files, relative to ``pass_dir``: every file of ``run/``
    and, where the pass swept, ``sweep/sweep.csv``."""
    names = {os.path.join("run", name) for name in os.listdir(os.path.join(pass_dir, "run"))}
    if os.path.exists(os.path.join(pass_dir, SWEEP_CSV)):
        names.add(SWEEP_CSV)
    return names


def differing(pass_dir: str, reference: str) -> list[str]:
    """Output files of the two passes that differ or exist on one side only."""
    a, b = outputs(reference), outputs(pass_dir)
    out = sorted(a ^ b)
    out += [name for name in sorted(a & b) if not filecmp.cmp(
        os.path.join(reference, name), os.path.join(pass_dir, name), shallow=False)]
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
    ws = {side: os.path.join(work, f"ws{side}") for side in checkouts}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    values = {side: {m: [] for m in METRICS} for side in checkouts}
    reference = {}  # each side's first pass directory
    between = []  # the output files in which A's differ from B's
    try:
        for side in checkouts:
            worker(checkouts[side], ["setup", *common, "--workspace", ws[side],
                                     "--parallelism", str(os.cpu_count() or 1)])
        for n in range(args.pairs):
            row = {}
            for side in ("AB" if n % 2 == 0 else "BA"):
                pass_dir = os.path.join(work, f"pass{n}{side}")
                if args.workload == "cold_workspace":
                    shutil.rmtree(os.path.join(ws[side], "cache"), ignore_errors=True)
                worker(checkouts[side], ["pass", *common, "--workspace", ws[side],
                                         "--pass-dir", pass_dir])
                with open(os.path.join(pass_dir, "worker.json"), encoding="utf-8") as fh:
                    result = json.load(fh)
                if side not in reference:
                    reference[side] = pass_dir
                else:
                    diffs = differing(pass_dir, reference[side])
                    if diffs:
                        print(f"pair {n} {side}: outputs differ from {side}'s first pass: "
                              f"{', '.join(diffs)}")
                        return 1
                    shutil.rmtree(pass_dir)
                for m in METRICS:
                    values[side][m].append(result[m])
                row[side] = result
            if n == 0:
                between = differing(reference["B"], reference["A"])
                if between:
                    print(f"outputs of A and B differ: {', '.join(between)}")
            print(f"pair {n:2d} ({'AB' if n % 2 == 0 else 'BA'}): " + "  ".join(
                f"{m} {row['A'][m]:.4f} -> {row['B'][m]:.4f}" for m in METRICS))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    same = "A and B differ, each side's passes identical" if between else "outputs identical"
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; {same}")
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
