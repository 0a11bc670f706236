"""perfbench/tracing.py wraps package functions by module and attribute
name; a renamed or deleted target would only show up when a traced
benchmark run fails.  The target lists are read from the file's source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fiberflow import harness_cli

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


def test_tracer_records_each_hirzebruch_run(tmp_path, monkeypatch):
    # the tracer reads the scenario, the recorded states and the grid off
    # `run_flow`'s result; a run record without them would show only when
    # a traced benchmark run fails
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    config = harness_cli.parse_config(
        "[run]\nscenario = hirzebruch\n\n[params]\ngrid_points = 128\n")
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        manifest, _ = harness_cli.execute(config, tmp_path)
    finally:
        tracer.uninstall()
    assert manifest["error"] is None
    assert tracer.runs == [(0, manifest["steps_recorded"], 128)]
