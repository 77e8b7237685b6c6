"""Rewrite the golden artifact manifest from the current code.

    python tests/golden/regenerate.py

Run it only for a change that moves artifact bytes on purpose, and list
every moved file in CHANGES.md.  The invocations, seeds and inputs are
those of ``tests/test_golden.py``; the manifest records this environment,
and in any other the test skips.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import test_golden as golden  # noqa: E402


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        golden.write_inputs(Path(workdir))
        os.chdir(workdir)
        try:
            digests = {str(seed): {label: golden.artifact_digests(label, seed)
                                   for label in golden.INVOCATIONS}
                       for seed in golden.THREADS}
        finally:
            os.chdir(start)
    manifest = {"environment": golden.environment(), "digests": digests}
    golden.MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    files = sum(len(files) for per_seed in digests.values() for files in per_seed.values())
    print(f"wrote {files} digests to {golden.MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
