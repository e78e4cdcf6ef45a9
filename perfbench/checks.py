"""Output checks.  A failed check fails the run; it is never reported as fast.

Each check returns a list of messages, empty when the outputs are right.
They read the artifacts as plain files and restate the program's
documented rules (routing is strict ``confidence < threshold``, an
unparsed stage-1 answer always routes) rather than calling its code.
"""

from __future__ import annotations

import csv
import json
import os


def _results_files(run_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(run_dir) if f.startswith("results_"))


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def result_counts(run_dir: str, curated: dict[str, int]) -> list[str]:
    """One results line per curated record, for every review screened."""
    errors = []
    for rid, want in sorted(curated.items()):
        path = os.path.join(run_dir, f"results_{rid}.jsonl")
        if not os.path.exists(path):
            errors.append(f"{rid}: no results file")
            continue
        got = len(_read_rows(path))
        if got != want:
            errors.append(f"{rid}: {got} result lines, {want} curated records")
    return errors


def manifest_counts(run_dir: str) -> list[str]:
    """Manifest routed counts match the results; nothing failed."""
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    errors = []
    for rid, entry in sorted(manifest["reviews"].items()):
        rows = _read_rows(os.path.join(run_dir, entry["results"]))
        routed = sum(1 for row in rows if row["routed"])
        if entry["routed"] != routed:
            errors.append(f"{rid}: manifest routed {entry['routed']}, results {routed}")
        if entry["failed"]:
            errors.append(f"{rid}: {len(entry['failed'])} failed records")
    return errors


def same_bytes(run_dir: str, ref_dir: str, names: list[str] | None = None) -> list[str]:
    """Files of ``run_dir`` byte-identical to those of ``ref_dir``."""
    names = names if names is not None else _results_files(ref_dir)
    if not names:
        return [f"{ref_dir}: nothing to compare"]
    errors = []
    for name in names:
        mine = os.path.join(run_dir, name)
        if not os.path.exists(mine):
            errors.append(f"{name}: missing from {run_dir}")
        elif _read_bytes(mine) != _read_bytes(os.path.join(ref_dir, name)):
            errors.append(f"{name}: differs from {ref_dir}")
    return errors


def _routes(row: dict, threshold: float) -> bool:
    stage1 = row["stage1"]
    if stage1 is None:
        return True
    confidence = stage1["confidence"]
    return (0.0 if confidence is None else confidence) < threshold


def sweep_consistent(sweep_csv: str, run_dir: str, threshold: float) -> list[str]:
    """Sweep routed sets nest and match the screen; F1 at the run's
    threshold equals ``evaluate``'s F1, review by review."""
    with open(sweep_csv, encoding="utf-8", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    with open(os.path.join(run_dir, "report.csv"), encoding="utf-8", newline="") as fh:
        f1_evaluate = {row["review_id"]: row["f1"] for row in csv.DictReader(fh)}
    errors = []
    by_review: dict[str, list[dict]] = {}
    for row in sweep:
        by_review.setdefault(row["review_id"], []).append(row)
    if sorted(by_review) != sorted(f1_evaluate):
        errors.append("sweep and evaluate cover different reviews")
    for rid, points in sorted(by_review.items()):
        rows = _read_rows(os.path.join(run_dir, f"results_{rid}.jsonl"))
        previous: set[str] = set()
        for point in sorted(points, key=lambda p: float(p["threshold"])):
            th = float(point["threshold"])
            routed = {row["record_id"] for row in rows if _routes(row, th)}
            if not previous <= routed:
                errors.append(f"{rid}: routed set at {th} does not contain the one below")
            previous = routed
            if float(point["routed_ratio"]) != len(routed) / len(rows):
                errors.append(f"{rid} @ {th}: sweep routed_ratio {point['routed_ratio']}, "
                              f"screen gives {len(routed)}/{len(rows)}")
            if th == threshold and point["f1"] != f1_evaluate.get(rid):
                errors.append(f"{rid}: sweep F1 {point['f1']} at {th}, "
                              f"evaluate F1 {f1_evaluate.get(rid)}")
        if threshold not in {float(p["threshold"]) for p in points}:
            errors.append(f"{rid}: sweep has no point at {threshold}")
    return errors


def dry_run_total(stdout_path: str, records: int) -> list[str]:
    """The dry run plans two calls per record (every record may route)."""
    want = f"total: up to {2 * records} calls"
    with open(stdout_path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("total: up to")]
    if not lines or not lines[-1].startswith(want):
        return [f"dry run: expected '{want}', got {lines[-1:]!r}"]
    return []
