"""List the dfscreen functions that the command matrix never enters.

    python3 tools/reach.py SRC_DIR [--seed N]

SRC_DIR is a tree's ``src/`` directory.  The script writes the 10-review
synthetic workspace into a temporary directory and runs, in this one
interpreter, the workspace writer and every command of
``tools/outputs.py``'s ``command_matrix`` through ``dfscreen.cli.main``,
with a call tracer installed by ``sys.settrace`` and
``threading.settrace`` from before ``dfscreen`` is first imported.  It
then prints, by file and line, each function defined in SRC_DIR's
``dfscreen`` package (methods and nested functions included, lambdas and
comprehensions not) that no command entered, and a count.  It exits 1
if a command fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from outputs import command_matrix  # noqa: E402


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
            for name, command in command_matrix(ws):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(command)
                if code != 0:
                    print(f"{name}: exit {code}", file=sys.stderr)
                    failed += 1
        finally:
            sys.settrace(None)
            threading.settrace(None)

    never = sorted(key for key in defined if key not in entered)
    for key in never:
        path, line, _ = key
        print(f"{os.path.relpath(path, src)}:{line} {defined[key]}")
    print(f"{len(never)} of {len(defined)} functions never entered")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
