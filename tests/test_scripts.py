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


def _run_report(out: Path) -> dict:
    """report.json of `fiberflow run` with blowup_zoom's params, settings
    and analysis at grid 256."""
    config = parse_config("[run]\nscenario = hirzebruch\n\n"
                          "[params]\ngrid_points = 256\n\n"
                          "[analysis]\nchecks = classification,splitting\n")
    _, code = execute(config, out)
    assert code == 0
    return json.loads((out / "report.json").read_text())


def test_blowup_zoom_json_is_the_report_of_the_same_run(tmp_path, capsys):
    zoom = _load("blowup_zoom")
    assert zoom.main(["--grid", "256", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == _run_report(tmp_path)
    assert got["splitting"]["splits"] is True


def test_blowup_zoom_table_has_a_row_per_pick_of_the_report(tmp_path,
                                                             capsys):
    zoom = _load("blowup_zoom")
    assert zoom.main(["--grid", "256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    split = _run_report(tmp_path)["splitting"]
    header = next(i for i, line in enumerate(lines) if line.split()[0] == "t")
    rows = [line.split() for line in lines[header + 1:]
            if not line.startswith(("A-norm", "verdict:"))]
    assert len(rows) == len(split["curvatures"])
    assert [row[1] for row in rows] == [f"{k:.3f}"
                                        for k in split["curvatures"]]
    assert lines[-1] == f"verdict: {split['verdict']}"


def test_reproduce_all_checks_every_sweep_member(tmp_path):
    repro = _load("reproduce_all")
    checked = []
    real_cli = repro.cli

    def cli(argv):
        if argv[0] == "check":
            checked.append(Path(argv[1]).name)
        return real_cli(argv)

    repro.cli = cli
    assert repro.main(["--base", str(tmp_path), "--workers", "1"]) == 0
    summary = json.loads((tmp_path / "sweep" / "sweep_summary.json")
                         .read_text())
    members = [Path(m["output_dir"]).name for m in summary["members"]]
    assert len(members) == 5
    assert checked == ["product", "hirzebruch", *members]
