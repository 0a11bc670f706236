"""perfbench/tracing.py wraps package functions by module and attribute
name; a renamed or deleted target would only show up when a traced
benchmark run fails.  The target lists are read from the file's source."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    lists = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPAN_TARGETS", "COUNTER_TARGETS"):
                lists[name] = ast.literal_eval(node.value)
    assert sorted(lists) == ["COUNTER_TARGETS", "SPAN_TARGETS"]
    return [(mod, attr) for targets in lists.values()
            for mod, attr, *_ in targets]


@pytest.mark.parametrize("module, attr", _targets())
def test_every_tracer_target_exists(module, attr):
    assert hasattr(importlib.import_module(f"fiberflow.{module}"), attr)
