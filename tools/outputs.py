"""Run the dfscreen command matrix against one source tree and keep every output.

    python3 tools/outputs.py SRC_DIR OUT_DIR [--seed N] [--against OUT_A]

SRC_DIR is a tree's ``src/`` directory; OUT_DIR must not exist yet.  The
script writes the 10-review synthetic workspace into ``OUT_DIR/ws``,
rewrites one review's raw dataset as CSV and leaves another's ``k``
unpinned (``csv_review``), and runs, each in a fresh interpreter that
imports ``dfscreen`` from SRC_DIR:

* ``screen --dry-run`` for dfsl, fs, zs and cot on a cold cache;
* ``curate``, ``project``, ``cluster`` and ``pool``;
* ``screen`` dfsl cold and warm, then fs, zs and cot;
* ``sweep``, then ``screen`` dfsl once more;
* ``evaluate`` of the dfsl runs, cold and warm, and of the fs run, then
  ``compare`` of the cold dfsl and fs reports: the dfsl results are scored
  from their ``screen-*`` memo's sealed counts (the warm ones are a copy
  of the memo), and the fs results, which no memo of the config vouches
  for, are parsed;
* the four dry runs again, warm;
* ``sweep-above``, a sweep above the config's threshold, whose stage 2
  sends what no earlier command asked.

Each command's stdout and stderr go to ``OUT_DIR/stdout/NN-name.txt``
with its exit code on the last line and OUT_DIR written as ``<OUT>``.

``--against OUT_A`` then compares OUT_DIR with an earlier run's output:
every file byte for byte, except ``responses.jsonl``, compared as a set
of lines (with more than one worker its lines land in completion order).
A command's log is matched by its name, without the ``NN-`` prefix, so a
command added to or dropped from the matrix renames no other log.
It prints each file that differs or exists on one side only, and the
script exits 1 if any does, as it does when a command fails.  Standard
library only.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys

STRATEGIES = ("dfsl", "fs", "zs", "cot")
SWEEP_THRESHOLDS = "0.5,0.6,0.7,0.8,0.9"
SWEEP_ABOVE_THRESHOLDS = "0.9,0.95"
CSV_REVIEW = "CD012768"  # the review whose raw dataset the workspace holds as CSV
# The review left to the automatic cluster count: 6 for its 546 curated
# records, where the workspace pins 5.
AUTO_K_REVIEW = "CD011431"
CLI = "import sys; from dfscreen.cli import main; sys.exit(main(sys.argv[1:]))"


def command_matrix(ws: str) -> list[tuple[str, list[str]]]:
    """(name, dfscreen argv) in the order they run."""
    config = ["--config", os.path.join(ws, "config.json")]

    def out(name):
        return ["--out", os.path.join(ws, name)]

    def dry_runs(when):
        return [
            (f"dry-run-{s}-{when}",
             ["screen", *config, *out("dry"), "--dry-run", "--strategy", s])
            for s in STRATEGIES
        ]

    def evaluate(run):
        return ["evaluate", *config, "--results", os.path.join(ws, run)]

    return [
        *dry_runs("cold"),
        ("curate", ["curate", *config, *out("reports")]),
        *[(stage, [stage, *config]) for stage in ("project", "cluster", "pool")],
        ("screen-dfsl-cold", ["screen", *config, *out("run_cold")]),
        ("screen-dfsl-warm", ["screen", *config, *out("run_warm")]),
        *[(f"screen-{s}", ["screen", *config, *out(f"run_{s}"), "--strategy", s])
          for s in STRATEGIES[1:]],
        ("sweep", ["sweep", *config, "--thresholds", SWEEP_THRESHOLDS, *out("sweep")]),
        ("screen-dfsl-after-sweep", ["screen", *config, *out("run_after_sweep")]),
        ("evaluate-dfsl", evaluate("run_cold")),
        ("evaluate-dfsl-warm", evaluate("run_warm")),
        ("evaluate-fs", evaluate("run_fs")),
        ("compare", ["compare",
                     "--run-a", os.path.join(ws, "run_cold", "report.csv"),
                     "--run-b", os.path.join(ws, "run_fs", "report.csv")]),
        *dry_runs("warm"),
        ("sweep-above", ["sweep", *config, "--thresholds", SWEEP_ABOVE_THRESHOLDS,
                         *out("sweep_above")]),
    ]


def csv_review(ws: str) -> None:
    """Rewrite ``CSV_REVIEW``'s raw JSON-lines dataset as CSV and point the config at it.

    The config also drops ``AUTO_K_REVIEW``'s ``k``, so the matrix runs the
    automatic cluster count.
    """
    data = os.path.join(ws, "data", f"{CSV_REVIEW}_raw")
    columns = ["id", "title", "abstract", "gold_label"]
    with open(data + ".jsonl", encoding="utf-8") as src, \
            open(data + ".csv", "w", encoding="utf-8", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(columns)
        for line in src:
            row = json.loads(line)
            writer.writerow([row.get(c, "") for c in columns])
    os.unlink(data + ".jsonl")
    config_path = os.path.join(ws, "config.json")
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["reviews"][CSV_REVIEW]["dataset"] = f"data/{CSV_REVIEW}_raw.csv"
    del config["reviews"][AUTO_K_REVIEW]["k"]
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(src: str, out_dir: str, seed: int) -> int:
    env = dict(os.environ, PYTHONPATH=src)
    ws = os.path.join(out_dir, "ws")
    logs = os.path.join(out_dir, "stdout")
    os.makedirs(logs)
    subprocess.run(
        [sys.executable, "-m", "dfscreen.synth", ws, "--seed", str(seed)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    csv_review(ws)
    failed = 0
    for n, (name, argv) in enumerate(command_matrix(ws), start=1):
        proc = subprocess.run(
            [sys.executable, "-c", CLI, *argv], env=env, capture_output=True, text=True
        )
        text = (proc.stdout + proc.stderr).replace(out_dir, "<OUT>")
        with open(os.path.join(logs, f"{n:02d}-{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{text}exit: {proc.returncode}\n")
        failed += proc.returncode != 0
        print(f"{name}: exit {proc.returncode}")
    return failed


def files(root: str) -> dict[str, str]:
    """Each file's relative path, keyed by it with a log's ``NN-`` prefix dropped."""
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(d, name), root)
            log = os.path.dirname(rel) == "stdout"
            out[os.path.join("stdout", name.split("-", 1)[1]) if log else rel] = rel
    return out


def differing(out_a: str, out_b: str) -> list[str]:
    """Files (as ``files`` keys them) that differ between two output directories."""
    a, b = files(out_a), files(out_b)
    out = sorted(a.keys() ^ b.keys())
    for key in sorted(a.keys() & b.keys()):
        path_a, path_b = os.path.join(out_a, a[key]), os.path.join(out_b, b[key])
        if os.path.basename(key) == "responses.jsonl":
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                same = set(fa) == set(fb)
        else:
            same = filecmp.cmp(path_a, path_b, shallow=False)
        if not same:
            out.append(key)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the tree's src/ directory")
    parser.add_argument("out", help="output directory; must not exist")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", metavar="OUT_A",
                        help="an earlier OUT_DIR to compare the new one with")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out)
    if os.path.exists(out_dir):
        parser.error(f"{out_dir} exists")
    if args.against and not os.path.isdir(args.against):
        parser.error(f"{args.against} is not a directory")
    failed = run(os.path.abspath(args.src), out_dir, args.seed)
    if args.against:
        diffs = differing(args.against, out_dir)
        for rel in diffs:
            print(f"differs: {rel}")
        print(f"{len(diffs)} of {len(files(out_dir))} files differ from {args.against}")
        failed += len(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
