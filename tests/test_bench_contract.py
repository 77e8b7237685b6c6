"""The names the benchmark harness takes from the package still exist.

The harness under ``bench/`` is read here, not run: a renamed function
or method would otherwise show only when a benchmark run fails to start
or to install its tracer.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _tracer_constant(name):
    for node in _tree(BENCH / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py assigns no {name}")


def test_bench_scripts_found():
    assert {"tracer.py", "micro.py", "worker.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_package_import_resolves(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "corrlab" or node.module.startswith("corrlab.")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}"), (path.name, node.module, alias.name)


def test_every_traced_name_resolves():
    # the lookups of Tracer.install: a missing method there is a KeyError
    for short in _tracer_constant("MODULES"):
        importlib.import_module(f"corrlab.{short}")
    for short, cls_name, method in _tracer_constant("METHODS"):
        cls = getattr(importlib.import_module(f"corrlab.{short}"), cls_name)
        assert method in vars(cls), (short, cls_name, method)
