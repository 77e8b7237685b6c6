"""Rewrite the golden artifact manifest from the current code, or check it.

    python tests/golden/regenerate.py
    python tests/golden/regenerate.py --check

Rewrite it only for a change that moves artifact bytes on purpose or adds
invocations, and list every moved file and new case in CHANGES.md.
``--check`` writes nothing: it prints each (invocation, seed, file) whose
digest differs from the manifest, or that only one side has, which is the
moved-file list, and exits 1 if there is any.  The invocations, seeds and
inputs are those of ``tests/test_golden.py``; the manifest records this
environment, and in any other the test skips.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import test_golden as golden  # noqa: E402


def current_digests() -> dict:
    """{seed: {invocation: {file: sha256}}} of the current code, run in a
    temporary directory that holds the inputs."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        golden.write_inputs(Path(workdir))
        os.chdir(workdir)
        try:
            return {str(seed): {label: golden.artifact_digests(label, seed)
                                for label in golden.INVOCATIONS}
                    for seed in golden.THREADS}
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print the files whose digests differ from the manifest; "
                             "exit 1 if any does, and write nothing")
    args = parser.parse_args(argv)
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
