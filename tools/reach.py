"""List the dfscreen functions that the command matrix never enters.

    python3 tools/reach.py SRC_DIR [--seed N]

SRC_DIR is a tree's ``src/`` directory.  The script writes the 10-review
synthetic workspace into a temporary directory and runs, in this one
interpreter, the workspace writer, ``tools/outputs.py``'s ``csv_review``
(one review's dataset as CSV, another's ``k`` unpinned) and every command
of its ``command_matrix`` through ``dfscreen.cli.main``,
then a ``remote_http`` ``project`` and an ``http`` ``screen`` of one review
against ``tests/http_stub.py``'s loopback endpoint and a ``file_import``
``project`` of the same review, with a call tracer installed by
``sys.settrace`` and ``threading.settrace`` from before ``dfscreen`` is
first imported.  It then prints, by file and line, each
function defined in SRC_DIR's ``dfscreen`` package (methods and nested
functions included, lambdas and comprehensions not) that no command
entered, and a count.  A function
listed in ``UNREACHABLE`` is printed under the reason it is there; any
other is printed on its own, and a table entry that a command now
enters, or that names no function, is reported as stale.  It exits 1 if a command fails or a
function outside the table is never entered.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import threading

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [TOOLS, os.path.join(os.path.dirname(TOOLS), "tests")]
from http_stub import Stub  # noqa: E402
from outputs import CSV_REVIEW, command_matrix, csv_review  # noqa: E402


TRACER = "kept for the benchmark's tracer"
ERROR_PATH = "error paths"

# Functions the offline matrix cannot enter, keyed by (file in the
# package, qualified name), each with its reason.
UNREACHABLE = {
    ("embedding.py", "write_vectors_jsonl"): TRACER,
    ("jsonl.py", "each_row.<locals>.alone"): ERROR_PATH,
    ("jsonl.py", "read_jsonl.<locals>.fail"): ERROR_PATH,
    ("gateway.py", "ResponseCache._ensure_loaded.<locals>.fail"): ERROR_PATH,
    ("gateway.py", "_opener.<locals>.NoRedirect.redirect_request"): ERROR_PATH,
}


def http_commands(ws: str, stub: Stub) -> list[tuple[str, list[str]]]:
    """(name, argv) of a ``project`` and a ``screen`` of one review at ``stub``.

    They read a config of their own with their own cache, so the matrix's
    outputs are the same as without them.
    """
    with open(os.path.join(ws, "config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    chat = stub.url("/v1/chat/completions")
    config.update(
        reviews={CSV_REVIEW: config["reviews"][CSV_REVIEW]}, cache_dir="http_cache",
        provider={"kind": "http"}, stage1={**config["stage1"], "url": chat},
        stage2={**config["stage2"], "url": chat},
        embedding={"kind": "remote_http", "model": "stub", "url": stub.url("/v1/embeddings")},
    )
    path = os.path.join(ws, "http_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return [("project-remote-http", ["project", "--config", path]),
            ("screen-http", ["screen", "--config", path, "--out", os.path.join(ws, "run_http")])]


def import_command(ws: str) -> tuple[str, list[str]]:
    """(name, argv) of a ``project`` of one review that imports its vectors.

    The vectors file is written here, one vector per raw record id (the
    raw dataset repeats some, and a vectors file may not), and the config
    has a cache of its own, so the matrix's outputs are the same as
    without it.
    """
    with open(os.path.join(ws, "config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    review = config["reviews"][CSV_REVIEW]
    with open(os.path.join(ws, review["dataset"]), encoding="utf-8", newline="") as src, \
            open(os.path.join(ws, "vectors.jsonl"), "w", encoding="utf-8") as dst:
        ids = dict.fromkeys(row["id"] for row in csv.DictReader(src))
        for i, rid in enumerate(ids):
            vector = [float(i % 7), float(i % 3), float(i)]
            dst.write(json.dumps({"id": rid, "vector": vector}) + "\n")
    config.update(reviews={CSV_REVIEW: review}, cache_dir="import_cache",
                  embedding={"kind": "file_import", "path": "vectors.jsonl"})
    path = os.path.join(ws, "import_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return "project-file-import", ["project", "--config", path]


def defined_functions(package_dir: str) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every named function -> its qualified name."""
    out = {}
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package_dir, name)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if not code.co_name.startswith("<"):
                key = (path, code.co_firstlineno, code.co_name)
                out[key] = getattr(code, "co_qualname", code.co_name)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the tree's src/ directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    package_dir = os.path.join(src, "dfscreen")
    defined = defined_functions(package_dir)

    entered = set()  # set.add is atomic, so threads may share it

    def tracer(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename.startswith(package_dir):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return None  # no line events

    sys.path.insert(0, src)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        ws = os.path.join(tmp, "ws")
        sys.settrace(tracer)
        threading.settrace(tracer)
        try:
            from dfscreen import cli, synth

            if os.path.dirname(os.path.abspath(cli.__file__)) != package_dir:
                parser.error(f"dfscreen was imported from {cli.__file__}, not {src}")
            with contextlib.redirect_stdout(io.StringIO()):
                synth.main([ws, "--seed", str(args.seed)])
            csv_review(ws)
            with Stub() as stub:
                for name, command in [*command_matrix(ws), *http_commands(ws, stub),
                                      import_command(ws)]:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(command)
                    if code != 0:
                        print(f"{name}: exit {code}", file=sys.stderr)
                        failed += 1
        finally:
            sys.settrace(None)
            threading.settrace(None)

    listed = {reason: [] for reason in UNREACHABLE.values()}
    unlisted, stale = [], []
    for key in sorted(defined):
        path, line, _ = key
        where = f"{os.path.relpath(path, src)}:{line} {defined[key]}"
        reason = UNREACHABLE.get((os.path.basename(path), defined[key]))
        if key not in entered:
            (unlisted if reason is None else listed[reason]).append(where)
        elif reason is not None:
            stale.append(where)
    for reason, wheres in listed.items():
        if wheres:
            print(f"{reason}:")
            for where in wheres:
                print(f"  {where}")
    for where in unlisted:
        print(where)
    for where in stale:
        print(f"stale table entry, now entered: {where}")
    known = {(os.path.basename(path), name) for (path, _, _), name in defined.items()}
    for file, name in sorted(UNREACHABLE.keys() - known):
        print(f"stale table entry, no such function: dfscreen/{file} {name}")
    never = sum(key not in entered for key in defined)
    print(f"{never} of {len(defined)} functions never entered, "
          f"{len(unlisted)} outside the table")
    return 1 if failed or unlisted else 0


if __name__ == "__main__":
    raise SystemExit(main())
