"""The scripts under scripts/, run in process through their `main`."""

import importlib.util
import json
from pathlib import Path

from fiberflow.harness_cli import execute, parse_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blowup_zoom_json_is_the_report_of_the_same_run(tmp_path, capsys):
    zoom = _load("blowup_zoom")
    assert zoom.main(["--grid", "256", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    # `fiberflow run` with the script's params, settings and analysis
    config = parse_config("[run]\nscenario = hirzebruch\n\n"
                          "[params]\ngrid_points = 256\n\n"
                          "[analysis]\nchecks = classification,splitting\n")
    _, code = execute(config, tmp_path)
    assert code == 0
    assert got == json.loads((tmp_path / "report.json").read_text())
    assert got["splitting"]["splits"] is True
