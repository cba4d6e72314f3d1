"""The benchmark's tracer and probes still find the package names they use.

``bench/tracing.py`` wraps the functions listed in ``LAYERS`` by name, and
``bench/run.py`` calls package names from its set-up probe and its command
table.  A refactor that renames or removes one of them would break the
traced benchmark run, so it fails here instead.  The files are read as
source text, not imported, so nothing under ``bench/`` is written.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import vacuum_refine

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _constant(filename: str, name: str):
    """The literal value assigned to a module-level name in a bench file."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


LAYERS = _constant("tracing.py", "LAYERS")


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_functions_exist(layer):
    module = importlib.import_module(f"vacuum_refine.{layer}")
    for function in LAYERS[layer]:
        assert callable(getattr(module, function, None)), f"{layer}.{function}"


def test_probe_and_command_names_exist():
    probe = _constant("run.py", "SETUP_PROBE")
    called = re.findall(r"\bvr\.(\w+)\(", probe)
    assert called, probe
    commands = list(_constant("run.py", "COMMAND_FUNCTIONS").values())
    for name in called + commands:
        assert callable(getattr(vacuum_refine, name, None)), name
