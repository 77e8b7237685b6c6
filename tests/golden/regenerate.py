"""Rewrite the golden artifact manifest from the current code, or check it.

    python tests/golden/regenerate.py
    python tests/golden/regenerate.py --check
    python tests/golden/regenerate.py --unreached

Rewrite it only for a change that moves artifact bytes on purpose or adds
invocations, and list every moved file and new case in CHANGES.md.
``--check`` writes nothing: it prints each (invocation, seed, file) whose
digest differs from the manifest, or that only one side has, which is the
moved-file list, and exits 1 if there is any.  ``--unreached`` writes
nothing either: it runs the invocations under a line tracer limited to
``src/corrlab`` and prints each function with the statements that no
invocation executes.  The invocations, seeds and inputs are those of
``tests/test_golden.py``; the manifest records this environment, and in
any other the test skips.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
SRC = TESTS.parent / "src" / "corrlab"
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import test_golden as golden  # noqa: E402


def current_digests(cases=golden) -> dict:
    """{seed: {invocation: {file: sha256}}} of the current code, run in a
    temporary directory that holds the inputs; ``cases`` is a loaded
    ``test_golden`` module."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        cases.write_inputs(Path(workdir))
        os.chdir(workdir)
        try:
            return {str(seed): {label: cases.artifact_digests(label, seed)
                                for label in cases.INVOCATIONS}
                    for seed in cases.THREADS}
        finally:
            os.chdir(start)


def moved_files(recorded: dict, digests: dict) -> list[tuple[str, str, str]]:
    """(invocation, seed, file) of every digest that differs between two
    manifests' digests or is in only one of them, sorted."""
    keys = {(label, seed, name)
            for side in (recorded, digests)
            for seed, per_label in side.items()
            for label, files in per_label.items()
            for name in files}
    return sorted(key for key in keys
                  if recorded.get(key[1], {}).get(key[0], {}).get(key[2])
                  != digests.get(key[1], {}).get(key[0], {}).get(key[2]))


def executed_lines() -> set[tuple[str, int]]:
    """(file, line) of every line of ``src/corrlab`` that a golden
    invocation executes, in any thread, its import included: corrlab and
    the cases are imported afresh under the tracer."""
    executed, in_src = set(), {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_src:
            in_src[name] = Path(name).resolve().parent == SRC
        return trace_lines if in_src[name] else None

    for name in [name for name in sys.modules
                 if name == golden.__name__ or name.split(".")[0] == "corrlab"]:
        del sys.modules[name]
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        current_digests(importlib.import_module(golden.__name__))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(str(Path(name).resolve()), line) for name, line in executed}


def _statements(function: ast.AST):
    """The statements inside a function, nested ones included, each with the
    lines that run it: a simple statement's lines, or a compound one's header."""
    for node in ast.walk(function):
        if node is function or not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring runs no code
        body = getattr(node, "body", None)
        last = node.end_lineno if not body else max(node.lineno, body[0].lineno - 1)
        yield node, range(node.lineno, last + 1)


def unreached(executed: set[tuple[str, int]]) -> list[str]:
    """Report lines: each function or method of ``src/corrlab`` that has
    statements no line of ``executed`` runs (its ``def`` line aside),
    followed by those statements with their line numbers."""
    report = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        functions = [(node.name, node) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        functions += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                      if isinstance(cls, ast.ClassDef) for node in cls.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name, function in sorted(functions, key=lambda item: item[1].lineno):
            missed = sorted(node.lineno for node, span in _statements(function)
                            if not any((str(path), line) in executed for line in span))
            if missed:
                report.append(f"{path.relative_to(SRC.parent)}:{function.lineno} {name}")
                report += [f"    {line:5d}  {lines[line - 1].strip()}" for line in missed]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="print the files whose digests differ from the manifest; "
                           "exit 1 if any does, and write nothing")
    mode.add_argument("--unreached", action="store_true",
                      help="print each src function's statements that no invocation "
                           "executes, and write nothing")
    args = parser.parse_args(argv)
    if args.unreached:
        print("\n".join(unreached(executed_lines())))
        return 0
    digests = current_digests()
    files = sum(len(files) for per_seed in digests.values() for files in per_seed.values())
    if args.check:
        manifest = json.loads(golden.MANIFEST.read_text())
        here = golden.environment()
        if manifest["environment"] != here:
            print(f"note: manifest made in {manifest['environment']}, checked in {here}")
        moved = moved_files(manifest["digests"], digests)
        for label, seed, name in moved:
            print(f"{label}\t{seed}\t{name}")
        print(f"{len(moved)} of {files} digests differ from {golden.MANIFEST}")
        return 1 if moved else 0
    manifest = {"environment": golden.environment(), "digests": digests}
    golden.MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {files} digests to {golden.MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
