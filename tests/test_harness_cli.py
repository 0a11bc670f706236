"""Harness: config dialect, emission, exit codes, sweeps, re-checking."""

import importlib.util
import itertools
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fiberflow import calabi_flow, harness_cli
from fiberflow.calabi_flow import (
    DIAG_COLUMNS,
    FLOW_COLUMNS,
    HirzebruchParams,
    RunSettings,
    loglog_slope,
    run_flow,
)
from fiberflow.chart_geometry import calabi_sampler, point_to_complex
from fiberflow.harness_cli import (
    ANALYSIS_KEYS,
    DIAG_CSV_SCHEMA,
    FLOW_CSV_SCHEMA,
    FLOW_KEYS,
    PARAM_KEYS,
    RUN_KEYS,
    AnalysisConfig,
    ParseError,
    RunDirError,
    ValidationError,
    _check_chart_residuals,
    _csv_text,
    _read_csv,
    check_run_dir,
    execute,
    load_config,
    main,
    parse_config,
    run_sweep,
)
from fiberflow.singularity_analyzer import MIN_SAMPLES, classify_type

from conftest import grid_member, reject_steps_after

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

PRODUCT_CFG = """\
[run]
scenario = product

[params]
f0 = 3.0
c0 = 1.0

[flow]
stop_margin = 0.001
"""

HZ_CFG = """\
[run]
scenario = hirzebruch

[params]
grid_points = 256

[flow]
stop_margin = 0.001

[analysis]
max_picks = 6
heat_tol = 0.005
"""


@pytest.fixture(scope="module")
def product_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("prod")
    manifest, code = execute(parse_config(PRODUCT_CFG), out, seed=3)
    return out, manifest, code


@pytest.fixture(scope="module")
def hz_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("hz")
    manifest, code = execute(parse_config(HZ_CFG), out, seed=3)
    return out, manifest, code


# ---------------------------------------------------------------------------
# parsing


def test_minimal_product_defaults():
    cfg = parse_config(PRODUCT_CFG)
    assert cfg.params.scenario == "product"
    assert cfg.params.f0 == 3.0 and cfg.params.c0 == 1.0
    assert cfg.params.n == 1 and cfg.params.R_h is None
    assert cfg.settings.dt_max == 0.01
    assert cfg.analysis.checks == ("closed_form", "time_ratio",
                                   "classification", "splitting")


def test_typo_key_suggestion():
    text = "[run]\nscenario = hirzebruch\n\n[params]\ngird_points = 256\n"
    with pytest.raises(ValidationError, match="grid_points"):
        parse_config(text)


def test_degenerate_interval_rejected():
    text = "[run]\nscenario = hirzebruch\n\n[params]\na0 = 2.0\nb0 = 2.0\n"
    with pytest.raises(ValidationError):
        parse_config(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_config("[run]\nscenario = product\nf0 3.0\n")
    assert err.value.line == 3
    assert err.value.col == 1


def test_malformed_section_and_duplicates():
    with pytest.raises(ParseError):
        parse_config("[run\nscenario = product\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("[run]\nscenario = product\nscenario = product\n")
    with pytest.raises(ParseError, match="before any"):
        parse_config("scenario = product\n")
    with pytest.raises(ParseError, match="empty section name"):
        parse_config("[ ]\nscenario = product\n")
    with pytest.raises(ParseError, match="missing key before '='"):
        parse_config("[run]\n= product\n")


def test_unknown_section_suggestion():
    with pytest.raises(ValidationError, match="run"):
        parse_config("[rnu]\nscenario = product\n")


def test_unknown_scenario_suggestion():
    with pytest.raises(ValidationError, match="product"):
        parse_config("[run]\nscenario = prodcut\n")


def test_missing_scenario_rejected():
    with pytest.raises(ValidationError, match="required key missing") as err:
        parse_config("[run]\noutput_dir = out\n")
    assert err.value.key == "scenario"


def test_bad_value_names_key_and_line():
    text = "[run]\nscenario = product\n\n[params]\nf0 = three\n"
    with pytest.raises(ValidationError, match="f0.*line 5"):
        parse_config(text)


def test_unknown_check_rejected():
    text = "[run]\nscenario = product\n[analysis]\nchecks = classifcation\n"
    with pytest.raises(ValidationError, match="classification"):
        parse_config(text)


@pytest.mark.parametrize("kwargs,key,match", [
    # a misspelt check would record a verdict that no check computed
    ({"checks": ("montiors", "time_ratio")}, "montiors",
     "did you mean 'monitors'"),
    # no pick could qualify
    ({"max_picks": 0}, "max_picks", "at least 1"),
    # a gate no run can pass, and one that fails every run
    ({"heat_tol": -1.0}, "heat_tol", "finite and at least 0"),
    ({"heat_tol": float("nan")}, "heat_tol", "finite and at least 0"),
    ({"mode": "typeI_max_curvatur"}, "mode",
     "did you mean 'typeI_max_curvature'"),
], ids=["checks-misspelt", "max_picks-0", "heat_tol-negative", "heat_tol-nan",
        "mode-misspelt"])
def test_analysis_config_rejects_bad_values_when_made(kwargs, key, match):
    with pytest.raises(ValidationError, match=match) as err:
        AnalysisConfig(**kwargs)
    assert err.value.key == key


def test_scenario_mismatched_check_rejected():
    text = "[run]\nscenario = product\n[analysis]\nchecks = chart_residuals\n"
    with pytest.raises(ValidationError, match="hirzebruch"):
        parse_config(text)


def test_full_roundtrip_mapping():
    text = """\
[run]
scenario = hirzebruch
output_dir = runs/custom

[params]
a0 = 1.0
b0 = 2.0
k = 2
R_h =

[flow]
dt_fixed =
shape = skew

[analysis]
mode = typeII_supremum
heat_tol = 0.02
"""
    cfg = parse_config(text)
    assert cfg.params.k == 2 and cfg.params.R_h is None
    assert cfg.settings.dt_fixed is None
    assert cfg.params.shape == "skew"
    assert cfg.analysis.mode == "typeII_supremum"
    assert cfg.analysis.heat_tol == 0.02
    assert cfg.output_dir == "runs/custom"
    assert cfg.echo["params"]["k"] == "2"


# Keys configs no longer take, each at its old default, by section: the
# values are module constants now (calabi_flow, singularity_analyzer) and
# the seed comes from --seed alone.
RETIRED_KEYS = {
    "flow": {"v_floor": "1e-06", "newton_tol": "1e-10",
             "newton_max_iter": "12", "max_halvings": "10",
             "support_threshold": "0.001"},
    "recording": {"stride": "1", "tracked_nodes": "0"},
    "analysis": {"span_decades": "1.0", "window_cap": "50.0",
                 "slope_bounded": "0.05", "slope_diverging": "0.10",
                 "burst_cap": "1.5", "seed": "0"},
}


@pytest.mark.parametrize("section,key", [
    (section, key) for section, keys in RETIRED_KEYS.items()
    for key in keys])
def test_retired_key_is_a_config_error(tmp_path, capsys, section, key):
    # an unknown key, or for [recording] an unknown section, named with
    # its suggestion like any other
    text = HZ_CFG + f"\n[{section}]\n{key} = {RETIRED_KEYS[section][key]}\n"
    named = "recording" if section == "recording" else key
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == named
    cfg = tmp_path / "old.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert f"config error: {named}: unknown " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _perfbench_workloads(monkeypatch):
    """The benchmark's perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, wl)
    spec.loader.exec_module(wl)
    return wl


def test_benchmark_and_bundled_configs_parse(monkeypatch):
    # the benchmark generates its configs from its own templates: each
    # must still pass the schema; parsing runs no flow
    wl = _perfbench_workloads(monkeypatch)
    texts = [wl.collapse_config(grid, k, b0, shape)
             for k in (1, 2, 3) for shape in ("tanh", "skew")
             for grid in wl.COLLAPSE_GRID for b0 in wl.COLLAPSE_B0[k]]
    ctx = wl.Refine.prepare(0)
    ladders = [wl.Refine.warmup(ctx)] + list(
        itertools.islice(wl.Refine.ops(ctx), wl.REFINE_CYCLE))
    texts += [wl.refine_config(grid) for ladder in ladders
              for grid in ladder]
    bundled = sorted(CONFIGS.glob("**/*.cfg"))
    assert bundled
    texts += [path.read_text() for path in bundled]
    for text in texts:
        parse_config(text)


BENCHMARK_WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_warmup_op_passes_its_own_check(monkeypatch, tmp_path,
                                                   name):
    # the op each benchmark run starts with, through the workload's own
    # execute and check: a call the benchmark makes into the package that
    # no longer works shows here, not only in a benchmark run
    workload = _perfbench_workloads(monkeypatch).WORKLOADS[name]
    ctx = workload.prepare(0)
    op = workload.warmup(ctx)
    out_dir = tmp_path / "warmup"
    outcome = workload.check(op, ctx, workload.execute(op, ctx, out_dir),
                             out_dir)
    assert (outcome.error, outcome.wrong) == (None, None)


def _readme_key_tables() -> dict[str, list[str]]:
    """The keys listed in the first column of each README table under a
    ``### `[section]` `` heading, by section (`params.<scenario>` for the
    parameter tables)."""
    tables: dict[str, list[str]] = {}
    name = None
    for line in (ROOT / "README.md").read_text().splitlines():
        head = re.fullmatch(r"### `\[(\w+)\]`(?: \(scenario `(\w+)`\))?",
                            line)
        if head:
            name = ".".join(filter(None, head.groups()))
            tables[name] = []
        elif line.startswith("#"):
            name = None
        elif name and line.startswith("| `"):
            tables[name] += re.findall(r"`(\w+)`", line.split("|")[1])
    return tables


def test_readme_key_tables_list_exactly_the_schema_keys():
    want = {"run": RUN_KEYS, "flow": FLOW_KEYS, "analysis": ANALYSIS_KEYS}
    want |= {f"params.{scenario}": keys
             for scenario, keys in PARAM_KEYS.items()}
    got = _readme_key_tables()
    assert set(got) == set(want)
    for name, keys in want.items():
        assert sorted(got[name]) == sorted(keys), name


# ---------------------------------------------------------------------------
# execution and emission


def test_product_execute_passes(product_dir):
    out, manifest, code = product_dir
    assert code == 0
    assert manifest["passed"] is True
    assert manifest["classification"] == "TypeI"
    assert 1.9 <= manifest["plateau_value"] <= 2.1
    assert manifest["error"] is None
    for name in ("flow.csv", "diagnostics.csv", "report.json",
                 "manifest.json", "rescaled_0.csv"):
        assert (out / name).exists()


def test_hirzebruch_execute_passes(hz_dir):
    out, manifest, code = hz_dir
    assert code == 0
    assert set(manifest["acceptance"]) == {
        "monitors", "time_ratio", "classification", "splitting",
        "chart_residuals"}
    assert all(manifest["acceptance"].values())
    assert 0.98 <= manifest["time_ratio"] <= 1.02
    assert manifest["stop_reason"] == "time_exhausted"
    assert manifest["seed"] == 3
    rescaled = sorted(out.glob("rescaled_*.csv"))
    assert len(rescaled) >= 3


@pytest.fixture(scope="module")
def twist_runs():
    """A short run for each twist k and initial shape."""
    return {(k, shape): run_flow(
                HirzebruchParams(k=k, grid_points=256, shape=shape),
                RunSettings())
            for k in (1, 2, 3) for shape in ("tanh", "skew")}


@pytest.mark.parametrize("shape", ["tanh", "skew"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_chart_residuals_pass_for_each_twist_and_shape(twist_runs, k, shape):
    assert _check_chart_residuals(twist_runs[k, shape], seed=k) is True


EPS = 1e-6
# Both residuals read the chart derivatives of the connection s, not its
# value, so a mutated s carries the derivatives that follow from it.  A
# mutation acts on a batch of blocks, with xi as a (P, 1) column.
MUTATIONS = {
    # s = k xi d_z(phi) becomes k (xi + EPS conj(xi)) d_z(phi): no longer
    # holomorphic in xi, so d_xi conj(s) no longer vanishes
    "s": lambda b, xi: replace(
        b, s=b.s * (1 + EPS * xi.conjugate() / xi),
        dsbar_dz=b.dsbar_dz * (1 + EPS * xi / xi.conjugate())[..., None],
        dsbar_dxi=EPS * np.conj(b.s / xi)),
    "dsbar_dz": lambda b, xi: replace(b, dsbar_dz=b.dsbar_dz * (1 + EPS)),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_chart_residuals_fail_on_a_mutated_connection(
        monkeypatch, twist_runs, mutation):
    def mutated_sampler(profile, n, k):
        sampler = calabi_sampler(profile, n=n, k=k)

        def blocks(points):
            xi = point_to_complex(points)[1][:, None]
            return MUTATIONS[mutation](sampler.blocks_fn(points), xi)
        return replace(sampler, blocks_fn=blocks)

    # the chart of `sampler_from_state`, which `_check_chart_residuals` uses
    monkeypatch.setattr(calabi_flow, "calabi_sampler", mutated_sampler)
    for key, run in twist_runs.items():
        assert _check_chart_residuals(run, seed=key[0]) is False, key


def test_csv_headers_versioned(hz_dir):
    out, _, _ = hz_dir
    flow_lines = (out / "flow.csv").read_text().splitlines()
    assert flow_lines[0].startswith("# fiberflow.flow/1 columns: t,")
    assert flow_lines[1].split(",")[:4] == ["t", "lower", "upper", "width"]
    diag_lines = (out / "diagnostics.csv").read_text().splitlines()
    assert diag_lines[0].startswith("# fiberflow.diagnostics/1")
    assert len(diag_lines) - 2 == json.loads(
        (out / "manifest.json").read_text())["steps_recorded"]


def _per_value_field(v) -> str:
    """The per-value CSV formatting the row format string replaced."""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def test_csv_row_format_matches_per_value_formatting():
    # a column table holds float64; the integral columns print as ints
    floats = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
              -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
              np.float64(2.5e-17), np.float64("nan"), 7, np.int64(-3), True]
    ints = [0, 194, -1, np.int64(2047), np.int32(5), np.uint16(9), True,
            np.True_, np.False_, 2 ** 62, np.int64(-2 ** 62), 3, 4, 5, 6,
            7]
    oks = [True, False, np.True_, np.False_, 1, 0, np.int8(1), True, False,
           True, False, True, False, True, False, True]
    columns = ("t", "node", "grad_bound_ok", "rm_sup")
    rows = [(x, n, ok, -x) for x, n, ok in zip(floats, ints, oks)]
    table = {name: np.array([row[i] for row in rows], dtype=float)
             for i, name in enumerate(columns)}
    want = ["# test/1 columns: t,node,grad_bound_ok,rm_sup",
            "t,node,grad_bound_ok,rm_sup"]
    want += [",".join(_per_value_field(v) for v in row) for row in rows]
    assert _csv_text("test/1", table) == "\n".join(want) + "\n"


def test_product_flow_columns(product_dir):
    out, _, _ = product_dir
    header = (out / "flow.csv").read_text().splitlines()[1]
    assert header == "t,f,c"


def test_byte_determinism(tmp_path):
    cfg = parse_config(HZ_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    execute(cfg, a, seed=9)
    execute(cfg, b, seed=9)
    for name in ("flow.csv", "diagnostics.csv", "report.json",
                 "rescaled_0.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _past_parse(text, **flow):
    """The config of `text` with the [flow] values `flow`, which leave the
    analysis too few states: parse_config refuses them, and a run that
    takes them stops with TooFewSamples, exit 3."""
    config = parse_config(text)
    return replace(config, settings=replace(config.settings, **flow))


def test_manifest_written_on_runtime_error(tmp_path):
    config = _past_parse("[run]\nscenario = hirzebruch\n",
                         dt_fixed=0.25, stop_margin=0.3)
    manifest, code = execute(config, tmp_path)
    assert code == 3
    assert manifest["error"] is not None
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert stored["error"]["type"] == manifest["error"]["type"]
    assert stored["stop_reason"] == "time_exhausted"


# ---------------------------------------------------------------------------
# stored-run re-checking


def test_check_run_dir_consistent(hz_dir):
    out, _, _ = hz_dir
    summary, code = check_run_dir(out)
    assert code == 0
    assert summary["consistent"] is True
    assert all(summary["recheck"].values())


def _clone(src, dst):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def _damage(path, how):
    data = path.read_bytes()
    if how == "missing":
        path.unlink()
    elif how == "empty":
        path.write_bytes(b"")
    elif how == "truncated":  # cut inside a line
        path.write_bytes(data[:len(data) // 2 + 3])
    elif how == "short":  # cut at a line boundary
        lines = data.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:len(lines) // 2]))
    elif how == "header-only":  # schema line and header, no rows
        path.write_bytes(b"".join(data.splitlines(keepends=True)[:2]))
    elif how == "array":  # valid JSON, but not an object
        path.write_text("[]\n")
    elif how in _FIELD_DAMAGE:
        rows, column, value = _FIELD_DAMAGE[how]
        lines = data.decode().splitlines()
        col = lines[1].split(",").index(column)
        for row in range(len(lines))[rows]:
            fields = lines[row].split(",")
            fields[col] = value
            lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")


# (line slice, column, value) of each field damage: a float where the
# file stores an integer, a node off the 256-point grid of HZ_CFG, a field
# that is not a number, and an rm_sup column of zeros, which leaves
# classify_type no sample to analyse
_FIELD_DAMAGE = {"node-inf": (slice(-1, None), "node", "inf"),
                 "node-2.5": (slice(2, 3), "node", "2.5"),
                 "node-1e300": (slice(2, 3), "node", "1e300"),
                 "node-grid_points": (slice(2, 3), "node", "256"),
                 "node-negative": (slice(2, 3), "node", "-1"),
                 "grad_bound_ok-0.7": (slice(2, 3), "grad_bound_ok", "0.7"),
                 "t-abc": (slice(2, 3), "t", "abc"),
                 "rm_sup-zero": (slice(2, None), "rm_sup", "0")}


@pytest.mark.parametrize("name,how", [
    ("diagnostics.csv", "truncated"),
    ("diagnostics.csv", "empty"),
    ("diagnostics.csv", "missing"),
    ("diagnostics.csv", "short"),
    ("diagnostics.csv", "node-inf"),
    ("diagnostics.csv", "node-2.5"),
    ("diagnostics.csv", "node-1e300"),
    ("diagnostics.csv", "node-grid_points"),
    ("diagnostics.csv", "node-negative"),
    ("diagnostics.csv", "grad_bound_ok-0.7"),
    ("diagnostics.csv", "header-only"),
    ("diagnostics.csv", "t-abc"),
    ("diagnostics.csv", "rm_sup-zero"),
    ("manifest.json", "truncated"),
    ("manifest.json", "empty"),
    ("manifest.json", "missing"),
    ("manifest.json", "array"),
    ("report.json", "truncated"),
    ("rescaled_0.csv", "missing"),
])
def test_check_damaged_run_dir_exits_3_naming_the_file(hz_dir, tmp_path,
                                                        capsys, name, how):
    out, _, _ = hz_dir
    clone = _clone(out, tmp_path / "clone")
    _damage(clone / name, how)
    assert main(["check", str(clone)]) == 3
    captured = capsys.readouterr()
    assert name in captured.err
    assert "Traceback" not in captured.err


def test_check_damaged_product_flow_exits_3(product_dir, tmp_path, capsys):
    out, _, _ = product_dir
    clone = _clone(out, tmp_path / "clone")
    _damage(clone / "flow.csv", "truncated")
    assert main(["check", str(clone)]) == 3
    assert "flow.csv" in capsys.readouterr().err


def _other_schema(clone, name):
    """Give the stored file `name` the schema version 9 of its kind."""
    path = clone / name
    if name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest["schema"] = "fiberflow.manifest/9"
        path.write_text(json.dumps(manifest))
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace("/1 columns:", "/9 columns:")
        path.write_text("".join(lines))


@pytest.mark.parametrize("name", ["manifest.json", "diagnostics.csv"])
def test_check_file_of_another_schema_exits_3_naming_it(hz_dir, tmp_path,
                                                        capsys, name):
    out, _, _ = hz_dir
    clone = _clone(out, tmp_path / "clone")
    _other_schema(clone, name)
    with pytest.raises(RunDirError, match="schema"):
        check_run_dir(clone)
    assert main(["check", str(clone)]) == 3
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_check_manifest_missing_entry_exits_3(hz_dir, tmp_path, capsys):
    out, _, _ = hz_dir
    clone = _clone(out, tmp_path / "clone")
    manifest = json.loads((clone / "manifest.json").read_text())
    del manifest["T_observed"]
    (clone / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RunDirError, match="T_observed"):
        check_run_dir(clone)
    assert main(["check", str(clone)]) == 3
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("fixture,edit", [
    ("hz_dir", lambda m: m.pop("acceptance")),
    ("product_dir", lambda m: m["config"]["params"].update(R_h="abc")),
    # keys and a section that configs no longer take, at their old defaults
    ("hz_dir", lambda m: m["config"].setdefault("analysis", {}).update(
        slope_bounded="0.05")),
    ("hz_dir", lambda m: m["config"]["flow"].update(v_floor="1e-06")),
    ("hz_dir", lambda m: m["config"].update(recording={"stride": "1"})),
    ("hz_dir", lambda m: m.update(T_predicted=0)),
    ("hz_dir", lambda m: m.update(T_observed=float("nan"))),
    ("hz_dir", lambda m: m.update(T_observed=None)),
], ids=["no-acceptance", "R_h", "slope_bounded", "v_floor", "recording",
        "T_predicted-zero", "T_observed-nan", "T_observed-null"])
def test_check_malformed_manifest_value_exits_3(request, tmp_path, capsys,
                                                fixture, edit):
    out, _, _ = request.getfixturevalue(fixture)
    clone = _clone(out, tmp_path / "clone")
    manifest = json.loads((clone / "manifest.json").read_text())
    edit(manifest)
    (clone / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RunDirError, match="manifest.json"):
        check_run_dir(clone)
    assert main(["check", str(clone)]) == 3
    err = capsys.readouterr().err
    assert "run directory error:" in err and "manifest.json" in err
    assert "Traceback" not in err


FLOW_DAMAGE = [(fixture, how) for fixture in ("hz_dir", "product_dir")
               for how in ("short", "t-edited", "size-edited")]
FLOW_DAMAGE += [("product_dir", "f-edited"), ("hz_dir", "lower-edited"),
                ("hz_dir", "upper-edited"), ("hz_dir", "lower-row-0-edited")]


@pytest.mark.parametrize("fixture, how", FLOW_DAMAGE,
                         ids=[f"{f}-{h}" for f, h in FLOW_DAMAGE])
def test_check_flow_csv_apart_from_diagnostics_csv_exits_3(
        request, tmp_path, capsys, fixture, how):
    # a run writes every column of flow.csv as `flow_table` derives it from
    # the diagnostics table; one entry edited by an ulp is caught
    out, _, _ = request.getfixturevalue(fixture)
    clone = _clone(out, tmp_path / "clone")
    path = clone / "flow.csv"
    if how == "short":
        _damage(path, how)
    else:
        lines = path.read_text().splitlines()
        column = {"t-edited": 0, "f-edited": 1, "lower-edited": 1,
                  "lower-row-0-edited": 1, "upper-edited": 2,
                  "size-edited": 3 if fixture == "hz_dir" else 2}[how]
        # the first data row follows the schema and header lines
        row = 2 if how == "lower-row-0-edited" else len(lines) // 2
        fields = lines[row].split(",")
        fields[column] = repr(float(fields[column]) * (1.0 + 1e-15))
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RunDirError, match="flow.csv"):
        check_run_dir(clone)
    assert main(["check", str(clone)]) == 3
    err = capsys.readouterr().err
    assert "flow.csv" in err and "Traceback" not in err


DIAG_EDITS = [
    ("hz_dir", {"grad_f_sq_sup": "1e9", "max_f_slack": "-5"},
     "max_f_slack"),
    ("hz_dir", {"grad_f_sq_sup": "1e9"}, "grad_f_sq_sup"),
    ("hz_dir", {"grad_bound_ok": "2"}, "grad_bound_ok"),
    ("hz_dir", {"grad_bound_ok": "0"}, "grad_bound_ok"),
    ("hz_dir", {"max_v": "ulp"}, "grad_f_sq_sup"),
    ("hz_dir", {"max_f_slack": "ulp"}, "max_f_slack"),
    ("product_dir", {"max_f_slack": "-5"}, "max_f_slack"),
    ("product_dir", {"grad_f_sq_sup": "1e-300"}, "grad_f_sq_sup"),
    ("product_dir", {"grad_bound_ok": "0"}, "grad_bound_ok"),
    ("product_dir", {"node": "1"}, "node"),
    ("hz_dir", {"fiber_area": "1e9"}, "fiber_area"),
    ("hz_dir", {"fiber_area": "ulp"}, "fiber_area"),
    ("hz_dir", {"a_sq_sup": "1e9"}, "a_sq_sup"),
    ("hz_dir", {"a_sq_sup": "ulp"}, "a_sq_sup"),
    ("hz_dir", {"width": "ulp"}, "width"),
]


@pytest.mark.parametrize("fixture, edits, column", DIAG_EDITS,
                         ids=[f"{f}-" + "-".join(f"{k}={v}" for k, v in e.items())
                              for f, e, _ in DIAG_EDITS])
def test_check_monitor_column_apart_from_its_derivation_exits_3(
        request, tmp_path, capsys, fixture, edits, column):
    # a run writes max_f_slack, grad_f_sq_sup and grad_bound_ok as
    # `build_monitors` derives them from the other stored columns (the
    # product scenario's as constants), and each node on the grid; "ulp"
    # scales the stored value by 1 + 1e-15
    out, _, _ = request.getfixturevalue(fixture)
    clone = _clone(out, tmp_path / "clone")
    path = clone / "diagnostics.csv"
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    row = len(lines) // 2
    fields = lines[row].split(",")
    for name, value in edits.items():
        i = header.index(name)
        fields[i] = (repr(float(fields[i]) * (1.0 + 1e-15))
                     if value == "ulp" else value)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RunDirError, match=f"diagnostics.csv: .*{column}"):
        check_run_dir(clone)
    assert main(["check", str(clone)]) == 3
    err = capsys.readouterr().err
    assert "diagnostics.csv" in err and column in err
    assert "Traceback" not in err


def _edit_cell(path, row, column, value):
    """Write `value` into `column` of data row `row` of a CSV file."""
    lines = path.read_text().splitlines()
    i = lines[1].split(",").index(column)
    fields = lines[row + 2].split(",")
    fields[i] = value
    lines[row + 2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_check_ties_width_to_the_flow_ends(hz_dir, tmp_path, capsys):
    """A width edited in diagnostics.csv and flow.csv alike keeps
    flow.csv the table `flow_table` derives; it is still not the upper
    less the lower end of f, and check names it (exit 3)."""
    out, _, _ = hz_dir
    clone = _clone(out, tmp_path / "clone")
    row = (len((clone / "flow.csv").read_text().splitlines()) - 2) // 2
    for name in ("diagnostics.csv", "flow.csv"):
        _edit_cell(clone / name, row, "width", "1e9")
    with pytest.raises(RunDirError, match="diagnostics.csv: .*width"):
        check_run_dir(clone)
    assert main(["check", str(clone)]) == 3
    err = capsys.readouterr().err
    assert "width" in err and "Traceback" not in err


# the columns of a product run that no verdict and no derived file reads
# in its second row
PRODUCT_UNREAD = ["k_v_max", "a_sq_sup", "grad_ln_sq_sup", "horiz_sup",
                  "mixed_sup", "rm_sup", "fiber_area", "roundness", "max_v",
                  "max_f"]


@pytest.mark.parametrize("column", PRODUCT_UNREAD)
def test_check_replays_a_product_run(product_dir, tmp_path, capsys, column):
    """A product run is a closed form that costs microseconds, so check
    runs it again from the config echo: a diagnostics.csv column edited in
    a row that no verdict and no derived file reads is named in `differs`
    (exit 1)."""
    out, manifest, _ = product_dir
    clone = _clone(out, tmp_path / "clone")
    _edit_cell(clone / "diagnostics.csv", 1, column, "1e9")
    summary, code = check_run_dir(clone)
    assert summary["recheck"] == manifest["acceptance"] == summary["stored"]
    assert summary["differs"] == [f"diagnostics.csv {column}"]
    assert summary["consistent"] is False and code == 1
    assert main(["check", str(clone)]) == 1
    assert f"diagnostics.csv {column} differs" in capsys.readouterr().out


def test_check_replay_matches_an_untouched_product_run(product_dir):
    out, _, _ = product_dir
    summary, code = check_run_dir(out)
    assert summary["differs"] == [] and code == 0


def test_check_crashed_run_exits_3_naming_the_error(tmp_path, capsys):
    config = _past_parse(PRODUCT_CFG, dt_max=1.0, time_frac=1.0)
    manifest, code = execute(config, tmp_path)
    assert code == 3 and manifest["acceptance"] == {}
    assert (tmp_path / "diagnostics.csv").exists()
    assert main(["check", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and "TooFewSamples" in err


def _middle_row(value):
    return lambda run_dir, header, lines: (len(lines) // 2, value)


def _middle_f_with_min_f(value):
    """The middle row of a product flow.csv, with the same value written
    to diagnostics.csv's min_f, which `check` requires to equal f."""
    def edit(run_dir, header, lines):
        row = len(lines) // 2
        path = run_dir / "diagnostics.csv"
        diag = path.read_text().splitlines()
        fields = diag[row].split(",")
        fields[diag[1].split(",").index("min_f")] = value
        diag[row] = ",".join(fields)
        path.write_text("\n".join(diag) + "\n")
        return row, value
    return edit


def _last_pick_row_rm_sup(run_dir, header, lines):
    """The row of the last blow-up pick, and its rm_sup: as the last
    pick's horiz_sup, rescaled by the pick's curvature, it reads 1, far
    above the splitting report's horiz_tol of 0.05."""
    report = json.loads((run_dir / "report.json").read_text())
    k_last = report["splitting"]["curvatures"][-1]
    rm = header.index("rm_sup")
    row = next(i for i in range(2, len(lines))
               if float(lines[i].split(",")[rm]) == k_last)
    return row, lines[row].split(",")[rm]


@pytest.mark.parametrize("fixture,name,column,edit,check", [
    ("hz_dir", "diagnostics.csv", "heat_residual",
     _middle_row(repr(2.0 * parse_config(HZ_CFG).analysis.heat_tol)),
     "monitors"),
    ("product_dir", "flow.csv", "f", _middle_f_with_min_f("nan"),
     "closed_form"),
    ("hz_dir", "diagnostics.csv", "horiz_sup", _last_pick_row_rm_sup,
     "splitting"),
], ids=["heat_residual-above-heat_tol", "flow-f-nan",
        "horiz_sup-of-last-pick-above-horiz_tol"])
def test_check_tampered_value_fails_its_check(request, tmp_path, fixture,
                                              name, column, edit, check):
    out, manifest, _ = request.getfixturevalue(fixture)
    clone = _clone(out, tmp_path / "clone")
    lines = (clone / name).read_text().splitlines()
    header = lines[1].split(",")
    row, value = edit(clone, header, lines)
    fields = lines[row].split(",")
    fields[header.index(column)] = value
    lines[row] = ",".join(fields)
    (clone / name).write_text("\n".join(lines) + "\n")
    summary, code = check_run_dir(clone)
    assert manifest["acceptance"][check] is True
    assert summary["recheck"][check] is False
    assert summary["consistent"] is False
    assert code == 1


def test_check_edited_report_fails_naming_report_json(hz_dir, tmp_path,
                                                      capsys):
    # valid JSON that no longer matches the analysis of diagnostics.csv
    out, _, _ = hz_dir
    clone = _clone(out, tmp_path / "clone")
    report = json.loads((clone / "report.json").read_text())
    report["splitting"] = []
    (clone / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary, code = check_run_dir(clone)
    assert code == 1
    assert summary["consistent"] is False
    assert summary["recheck"] == summary["stored"]
    assert main(["check", str(clone)]) == 1
    captured = capsys.readouterr()
    assert "report.json" in captured.out
    assert "manifest.json" not in captured.out + captured.err


def _edit_rescaled_rm(run_dir):
    path = run_dir / "rescaled_0.csv"
    lines = path.read_text().splitlines()
    rm = lines[1].split(",").index("rm")
    fields = lines[2].split(",")
    fields[rm] = "123456"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _edit_manifest(key, value):
    def edit(run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert key in manifest
        manifest[key] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return edit


@pytest.mark.parametrize("edit,name", [
    (_edit_rescaled_rm, "rescaled_0.csv"),
    (_edit_manifest("plateau_value", 99.0), "manifest.json plateau_value"),
    (_edit_manifest("a_decay_exponent", 5.0),
     "manifest.json a_decay_exponent"),
    # check recomputes these three from the config and the stored columns;
    # a T_predicted off by 1e-6 keeps the time_ratio verdict
    (_edit_manifest("T_predicted", 0.5 + 1e-6), "manifest.json T_predicted"),
    (_edit_manifest("time_ratio", 7.5), "manifest.json time_ratio"),
    (_edit_manifest("heat_residual_max", 123.0),
     "manifest.json heat_residual_max"),
    # check derives these from diagnostics.csv and the verdicts, never
    # from the manifest
    (_edit_manifest("classification", "TypeII"),
     "manifest.json classification"),
    (_edit_manifest("passed", False), "manifest.json passed"),
    (_edit_manifest("T_observed", 0.7), "manifest.json T_observed"),
    (_edit_manifest("stop_reason", "fiber_collapsed"),
     "manifest.json stop_reason"),
], ids=["rescaled_0-rm", "plateau_value", "a_decay_exponent", "T_predicted",
        "time_ratio", "heat_residual_max", "classification", "passed",
        "T_observed", "stop_reason"])
def test_check_edited_analysis_output_fails_naming_it(hz_dir, tmp_path,
                                                      capsys, edit, name):
    # the verdicts still hold; only the stored analysis output is wrong
    out, _, _ = hz_dir
    clone = _clone(out, tmp_path / "clone")
    edit(clone)
    summary, code = check_run_dir(clone)
    assert code == 1
    assert summary["consistent"] is False
    assert summary["recheck"] == summary["stored"]
    assert summary["differs"] == [name]
    assert main(["check", str(clone)]) == 1
    assert f"  {name} differs" in capsys.readouterr().out


def test_check_edited_analysis_note_fails(tmp_path):
    # two picks are too few to split, so the manifest carries an
    # analysis_note instead of a_decay_exponent
    text = HZ_CFG.replace("max_picks = 6", "max_picks = 2")
    manifest, _ = execute(parse_config(text), tmp_path)
    assert "2 qualifying picks" in manifest["analysis_note"]
    assert check_run_dir(tmp_path)[0]["differs"] == []
    _edit_manifest("analysis_note", "edited")(tmp_path)
    summary, code = check_run_dir(tmp_path)
    assert code == 1 and summary["differs"] == ["manifest.json analysis_note"]


@pytest.fixture(scope="module")
def grid96_dir(tmp_path_factory):
    """A sweep member run, whose checks are monitors,time_ratio."""
    out = tmp_path_factory.mktemp("grid96")
    manifest, code = execute(parse_config(grid_member(96)), out)
    return out, manifest, code


@pytest.mark.parametrize("fixture,key,value", [
    ("grid96_dir", "classification", "TypeII"),
    ("grid96_dir", "passed", False),
    ("product_dir", "passed", False),
    # the config echo makes the run a hirzebruch run
    ("hz_dir", "scenario", "product"),
])
def test_check_edited_entry_no_verdict_reads_fails_naming_it(
        request, tmp_path, capsys, fixture, key, value):
    out, manifest, code = request.getfixturevalue(fixture)
    assert code == 0 and manifest[key] != value
    clone = _clone(out, tmp_path / "clone")
    _edit_manifest(key, value)(clone)
    summary, code = check_run_dir(clone)
    assert code == 1
    assert summary["recheck"] == summary["stored"] == manifest["acceptance"]
    assert summary["differs"] == [f"manifest.json {key}"]
    assert main(["check", str(clone)]) == 1
    assert f"  manifest.json {key} differs" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["analysis_note", "made_up"])
def test_check_manifest_entry_not_derived_fails_naming_it(hz_dir, tmp_path,
                                                          key):
    # the run derived a_decay_exponent, not an analysis_note
    out, manifest, _ = hz_dir
    assert key not in manifest
    clone = _clone(out, tmp_path / "clone")
    edited = dict(manifest, **{key: "edited"})
    (clone / "manifest.json").write_text(json.dumps(edited))
    summary, code = check_run_dir(clone)
    assert code == 1 and summary["differs"] == [f"manifest.json {key}"]


# the manifest entries a run records rather than derives from its tables
RECORDED_INPUTS = {"schema", "code_version", "config", "seed", "output_dir",
                   "error", "wall_clock_s"}


@pytest.mark.parametrize("fixture", ["hz_dir", "product_dir"])
def test_every_manifest_entry_is_recorded_or_derived_by_record(request,
                                                               fixture):
    # an entry `check` does not derive again would be carried on trust
    out, manifest, _ = request.getfixturevalue(fixture)
    config = parse_config(HZ_CFG if fixture == "hz_dir" else PRODUCT_CFG)
    diag = _read_csv(out / "diagnostics.csv", DIAG_CSV_SCHEMA, DIAG_COLUMNS)
    derived: dict = {}
    harness_cli._record(config, diag, True, derived)
    assert RECORDED_INPUTS == harness_cli.RECORDED_ENTRIES
    assert not RECORDED_INPUTS & set(derived)
    assert set(manifest) == RECORDED_INPUTS | set(derived)
    assert json.dumps(derived, sort_keys=True) == json.dumps(
        {key: manifest[key] for key in derived}, sort_keys=True)


def test_error_manifest_keeps_the_run_numbers(tmp_path):
    # the analysis raises TooFewSamples after the run's numbers are derived
    config = _past_parse(PRODUCT_CFG, dt_max=1.0, time_frac=1.0)
    manifest, code = execute(config, tmp_path)
    assert code == 3 and manifest["error"]["type"] == "TooFewSamples"
    diag = _read_csv(tmp_path / "diagnostics.csv", DIAG_CSV_SCHEMA,
                     DIAG_COLUMNS)
    stored = json.loads((tmp_path / "manifest.json").read_text())
    T_predicted = calabi_flow.predict_max_time(config.params)
    T_observed = calabi_flow.observed_stop_time(config.params, diag)
    assert {key: stored[key] for key in (
        "T_predicted", "T_observed", "time_ratio", "steps_recorded",
        "heat_residual_max")} == {
        "T_predicted": T_predicted, "T_observed": T_observed,
        "time_ratio": T_observed / T_predicted,
        "steps_recorded": diag["t"].size, "heat_residual_max": 0.0}
    assert stored["classification"] is None and stored["acceptance"] == {}


def _hz(params: str) -> str:
    return f"[run]\nscenario = hirzebruch\n\n[params]\n{params}\n"


@pytest.mark.parametrize("k,grid", [(1, 512), (2, 724), (3, 887)])
def test_default_grid_keeps_k_h2_of_k1(k, grid):
    assert parse_config(_hz(f"k = {k}")).params.grid_points == grid
    explicit = parse_config(_hz(f"k = {k}\ngrid_points = 300"))
    assert explicit.params.grid_points == 300


# (config text, expected exit code); the grid_points = 128 runs are under-
# resolved and must still fail the monitors gate for every twist k
RUN_THEN_CHECK = {
    "bundled-hirzebruch": ((CONFIGS / "hirzebruch.cfg").read_text(), 0),
    "bundled-product": ((CONFIGS / "product.cfg").read_text(), 0),
    "product-R_h": (PRODUCT_CFG.replace("c0 = 1.0", "c0 = 1.5\nR_h = 3.0"),
                    0),
    "k2-default-grid": (_hz("k = 2"), 0),
    "k3-b0-4-default-grid": (_hz("k = 3\nb0 = 4.0"), 0),
    "k1-grid-128": (_hz("grid_points = 128"), 1),
    "k2-grid-128": (_hz("k = 2\ngrid_points = 128"), 1),
    "k3-grid-128": (_hz("k = 3\ngrid_points = 128"), 1),
}


@pytest.mark.parametrize("name", sorted(RUN_THEN_CHECK))
def test_run_then_check_agree(tmp_path, name):
    text, want = RUN_THEN_CHECK[name]
    manifest, code = execute(parse_config(text), tmp_path, seed=4)
    summary, check_code = check_run_dir(tmp_path)
    assert code == want and check_code == code
    assert summary["recheck"] == manifest["acceptance"]
    assert summary["consistent"] is True
    if want == 1:
        assert manifest["acceptance"]["monitors"] is False
    else:
        assert all(manifest["acceptance"].values())


def test_run_stopped_by_a_rejected_step_fails_monitors(tmp_path,
                                                       monkeypatch):
    reject_steps_after(monkeypatch, 55)
    manifest, code = execute(load_config(CONFIGS / "hirzebruch.cfg"),
                             tmp_path)
    assert manifest["stop_reason"] == "step_rejected"
    assert manifest["steps_recorded"] == 56
    assert code == 1
    assert [name for name, ok in manifest["acceptance"].items()
            if not ok] == ["monitors"]
    summary, check_code = check_run_dir(tmp_path)
    assert check_code == 1 and summary["consistent"] is True
    assert summary["recheck"] == manifest["acceptance"]


# the tables a run holds in memory are the tables its CSVs store
ROUND_TRIP = {
    "bundled-hirzebruch": (CONFIGS / "hirzebruch.cfg").read_text(),
    "bundled-product": (CONFIGS / "product.cfg").read_text(),
    "k2-skew": _hz("k = 2") + "\n[flow]\nshape = skew\n",
}


def _assert_same_table(got, want):
    """Same keys in the same order and the same float64 bytes in every
    column, NaN matching NaN."""
    assert list(got) == list(want)
    for name in want:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype == np.float64, name
        nan = np.isnan(b)
        assert np.array_equal(np.isnan(a), nan), name
        assert a[~nan].tobytes() == b[~nan].tobytes(), name


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_run_tables_equal_the_stored_csvs(tmp_path, name):
    config = parse_config(ROUND_TRIP[name])
    run = run_flow(config.params, config.settings)
    manifest, _ = execute(config, tmp_path)
    assert manifest["error"] is None
    assert list(run.diagnostics) == list(DIAG_COLUMNS)
    _assert_same_table(run.diagnostics, _read_csv(
        tmp_path / "diagnostics.csv", DIAG_CSV_SCHEMA, DIAG_COLUMNS))
    _assert_same_table(run.flow, _read_csv(
        tmp_path / "flow.csv", FLOW_CSV_SCHEMA,
        FLOW_COLUMNS[config.params.scenario]))


def test_rerun_with_fewer_picks_removes_the_stale_rescaled_files(tmp_path):
    # splitting is left out: two picks are too few to split
    text = PRODUCT_CFG + ("\n[analysis]\n"
                          "checks = closed_form,time_ratio,classification\n"
                          "max_picks = ")
    _, code = execute(parse_config(text + "6"), tmp_path)
    assert code == 0
    assert len(list(tmp_path.glob("rescaled_*.csv"))) == 6
    manifest, code = execute(parse_config(text + "2"), tmp_path)
    assert code == 0 and "analysis_note" in manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "diagnostics.csv", "flow.csv", "manifest.json", "report.json"]
    summary, code = check_run_dir(tmp_path)
    assert code == 0 and summary["differs"] == []


def test_check_names_a_stored_rescaled_file_without_a_pick(tmp_path,
                                                           capsys):
    out = tmp_path / "run"
    _, code = execute(load_config(CONFIGS / "product.cfg"), out)
    assert code == 0 and not (out / "rescaled_9.csv").exists()
    (out / "rescaled_9.csv").write_bytes((out / "rescaled_0.csv").read_bytes())
    summary, code = check_run_dir(out)
    assert code == 1 and summary["differs"] == ["rescaled_9.csv"]
    assert main(["check", str(out)]) == 1
    assert "  rescaled_9.csv differs" in capsys.readouterr().out


def test_check_product_closed_form(product_dir):
    out, _, _ = product_dir
    summary, code = check_run_dir(out)
    assert code == 0
    assert summary["recheck"]["closed_form"] is True


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_convergence_order(tmp_path):
    names = []
    for n in (96, 128, 192):
        p = tmp_path / f"grid_{n}.cfg"
        p.write_text(grid_member(n))
        names.append(str(p))
    configs = [(name, load_config(name)) for name in names]
    summary, code = run_sweep(configs, tmp_path / "sweep", workers=2)
    assert code == 0
    assert summary["all_passed"] is True
    assert summary["heat_residual_order"] >= 1.9
    stored = json.loads(
        (tmp_path / "sweep" / "sweep_summary.json").read_text())
    assert stored["heat_residual_order"] == summary["heat_residual_order"]
    assert len(stored["members"]) == 3
    for n in (96, 128, 192):
        assert (tmp_path / "sweep" / f"grid_{n}" / "manifest.json").exists()


def test_sweep_order_leaves_out_a_member_without_a_heat_residual(
        tmp_path, monkeypatch):
    """A member that records fewer than three states has no time stencil,
    so its `heat_residual_max` is NaN; the order is the slope of the
    other members alone."""
    reject_steps_after(monkeypatch, 1, grid_points=128)
    configs = [("grid_96.cfg", parse_config(grid_member(96))),
               ("short_128.cfg", parse_config(grid_member(128))),
               ("grid_192.cfg", parse_config(grid_member(192)))]
    summary, _ = run_sweep(configs, tmp_path, workers=1)
    good, bad = summary["members"][::2], summary["members"][1]
    assert np.isnan(bad["heat_residual_max"])
    assert summary["heat_residual_order"] == loglog_slope(
        [m["drho"] for m in good[::-1]],
        [m["heat_residual_max"] for m in good[::-1]])
    assert summary["heat_residual_order"] >= 1.9


def _strict_json(path):
    """The JSON object at `path`, which must be RFC 8259 JSON: no NaN or
    Infinity token."""
    def refuse(token):
        raise ValueError(f"{path.name}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_files_are_strict_json_when_the_heat_residual_is_undefined(
        tmp_path, monkeypatch):
    """A run stopped by a rejected second step records two states, so no
    heat residual and too few samples to classify; its manifest and the
    sweep's summary still land, as JSON that writes the undefined heat
    residual as null."""
    reject_steps_after(monkeypatch, 1)
    config = parse_config(grid_member(128))
    summary, code = run_sweep([("short_128.cfg", config)], tmp_path,
                              workers=1)
    assert code == 3
    manifest = _strict_json(tmp_path / "short_128" / "manifest.json")
    assert manifest["error"]["type"] == "TooFewSamples"
    assert manifest["steps_recorded"] == 2
    assert manifest["heat_residual_max"] is None
    stored = _strict_json(tmp_path / "sweep_summary.json")
    assert stored["members"][0]["heat_residual_max"] is None
    assert np.isnan(summary["members"][0]["heat_residual_max"])


def test_run_without_a_heat_residual_fails_monitors_and_checks_consistent(
        tmp_path, monkeypatch):
    """With no heat residual at any state, `monitors` fails; the manifest
    stores null for the undefined maximum, and `check` derives the NaN
    again from the stored table and calls the record consistent."""
    monkeypatch.setattr(
        calabi_flow, "heat_residual_series",
        lambda states, params: np.full(len(states), np.nan))
    manifest, code = execute(parse_config(HZ_CFG), tmp_path, seed=3)
    assert code == 1
    assert [name for name, ok in manifest["acceptance"].items()
            if not ok] == ["monitors"]
    assert _strict_json(tmp_path / "manifest.json")[
        "heat_residual_max"] is None
    summary, check_code = check_run_dir(tmp_path)
    assert check_code == 1 and summary["consistent"] is True
    assert summary["recheck"] == manifest["acceptance"]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_worker_count_below_one_is_a_config_error(tmp_path, capsys,
                                                        workers):
    # both ran the sweep in sequence before
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--output", str(out),
                 "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "config error: workers: must be at least 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_pool_has_no_more_workers_than_configs(tmp_path, monkeypatch):
    # a fork pool starts all max_workers processes at the first submit, so
    # a fake records the size asked for and runs the members in process
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    configs = [(f"{name}.cfg", parse_config(PRODUCT_CFG))
               for name in ("a", "b")]
    summary, code = run_sweep(configs, tmp_path, workers=64)
    assert code == 0 and summary["all_passed"] is True
    assert sizes == [2]


# ---------------------------------------------------------------------------
# CLI surface


def test_main_run_and_check(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] closed_form" in text
    assert main(["check", str(out)]) == 0


def test_main_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nscenario = hirzebruch\n[params]\ngird_points = 4\n")
    assert main(["run", str(bad)]) == 2
    assert "grid_points" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_non_finite_values_are_config_errors(tmp_path):
    with pytest.raises(ValidationError, match="dt_max"):
        parse_config(HZ_CFG.replace("[flow]\n", "[flow]\ndt_max = nan\n"))
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(PRODUCT_CFG.replace("f0 = 3.0", "f0 = inf"))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("edit,key", [
    (("[params]\n", "[params]\nn = 2\n"), "n"),
    (("[params]\n", "[params]\nb0 = 3.5\n"), "params"),
])
def test_run_time_config_errors_found_at_parse(tmp_path, capsys, edit, key):
    text = HZ_CFG.replace(*edit)
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_chart_residuals_refuse_a_base_the_chart_does_not_have(tmp_path,
                                                               capsys):
    """The chart of `chart_residuals` has a Fubini-Study base: R_h = -2
    exits 2 naming R_h; without that check the config runs, and an
    explicit R_h = n(n+1) keeps it."""
    text = HZ_CFG.replace("[params]\n", "[params]\nR_h = -2\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "R_h"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "bad")]) == 2
    assert "R_h" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    cfg.write_text(text.replace("max_picks = 6", "max_picks = 6\nchecks = "
                                "monitors, time_ratio, classification"))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert "] chart_residuals" not in capsys.readouterr().out
    cfg.write_text(HZ_CFG.replace("[params]\n", "[params]\nR_h = 2.0\n"))
    assert main(["run", str(cfg), "--output", str(tmp_path / "fs")]) == 0
    assert "[PASS] chart_residuals" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    "dt_max = nan", "time_frac = 1.5", "dt_fixed = 0"])
def test_bad_flow_value_is_reported_under_flow(tmp_path, capsys, line):
    text = HZ_CFG.replace("[flow]\n", f"[flow]\n{line}\n")
    assert text != HZ_CFG
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "flow"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "config error: flow: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,edit,key", [
    # no pick qualifies: an acceptance failure, exit 1
    ("hirzebruch", ("max_picks = 6", "max_picks = 0"), "max_picks"),
    # a NaN gate fails `monitors`: exit 1
    ("hirzebruch", ("heat_tol = 0.005", "heat_tol = nan"), "heat_tol"),
    # a gate no run can pass: exit 1
    ("hirzebruch", ("heat_tol = 0.005", "heat_tol = -1"), "heat_tol"),
    # ignored: exit 0
    ("product", ("[flow]\n", "[flow]\nshape = tanh\n"), "shape"),
    # one recorded state, whose stop-time fit failed in np.polyfit: exit 3
    ("hirzebruch", ("stop_margin = 0.001", "stop_margin = 0.6"),
     "stop_margin"),
    ("product", ("stop_margin = 0.001", "stop_margin = 0.6"), "stop_margin"),
    # the base collapses before the fiber, WrongRegime: exit 3
    ("product", ("f0 = 3.0", "f0 = 0.5"), "params"),
    # no acceptance check, so the run passes whatever its numbers: exit 0
    ("hirzebruch", ("max_picks = 6", "max_picks = 6\nchecks ="), "checks"),
    ("hirzebruch", ("max_picks = 6", "max_picks = 6\nchecks = ,"), "checks"),
    # two recorded states, too few for the classification: exit 3
    ("hirzebruch", ("stop_margin = 0.001", "stop_margin = 0.49"),
     "stop_margin"),
    ("product", ("[flow]\n", "[flow]\ndt_max = 1.0\ntime_frac = 1.0\n"),
     "stop_margin"),
])
def test_values_that_fail_only_after_a_run_are_rejected_at_parse(
        tmp_path, capsys, scenario, edit, key):
    base = {"hirzebruch": HZ_CFG, "product": PRODUCT_CFG}[scenario]
    text = base.replace(*edit)
    assert text != base
    with pytest.raises(ValidationError, match=key):
        parse_config(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stop_margin,states", [
    ("0.2", 4), ("0.31", 3), ("0.49", 2)])
def test_stop_margin_must_leave_the_analysis_its_states(stop_margin,
                                                        states):
    """The step rule's states are counted at parse: with dt_fixed = 0.1
    before T_predicted = 0.5, a margin of 0.2 leaves the states at t = 0,
    0.1, 0.2 and 0.3, which a run records and classifies, and a wider one
    fewer."""
    text = _hz("grid_points = 128") + (f"\n[flow]\ndt_fixed = 0.1\n"
                                        f"stop_margin = {stop_margin}\n")
    if states < MIN_SAMPLES:
        with pytest.raises(ValidationError,
                           match=f"stop_margin: .* leaves {states} "):
            parse_config(text)
    else:
        config = parse_config(text)
        diag = run_flow(config.params, config.settings).diagnostics
        assert diag["t"].size == states
        classify_type(diag, calabi_flow.observed_stop_time(config.params,
                                                           diag))


@pytest.mark.parametrize("L", ["8.0", "800.0"])
@pytest.mark.parametrize("shape", ["tanh", "skew"])
def test_half_width_without_a_valid_profile_is_rejected_at_parse(
        tmp_path, capsys, shape, L):
    # unchecked, the run would stop with BadProfile, exit 3, after making
    # its directory: L = 8 is too short for the endpoint closure, and at
    # L = 800 the tail increments underflow to zero
    text = HZ_CFG.replace("[params]\n", f"[params]\nL = {L}\n").replace(
        "[flow]\n", f"[flow]\nshape = {shape}\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "L"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "config error: L: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_shape_is_rejected_at_parse(tmp_path, capsys):
    # unchecked, the run would stop with BadProfile: exit 3
    text = HZ_CFG.replace("[flow]\n", "[flow]\nshape = skwe\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "shape"
    assert "did you mean 'skew'" in str(err.value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "config error: shape: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_output_dir_is_rejected_at_parse(tmp_path, monkeypatch,
                                               capsys):
    # Path("") is the working directory: the run would write its files
    # there and delete rescaled_<i>.csv files above its pick count
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG.replace("[params]\n",
                                       "output_dir =\n\n[params]\n"))
    with pytest.raises(ValidationError) as err:
        load_config(cfg)
    assert err.value.key == "output_dir"
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", str(cfg)]) == 2
    assert "config error: output_dir: " in capsys.readouterr().err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_empty_output_flag_is_a_config_error(tmp_path, monkeypatch, capsys,
                                             command):
    # like an empty [run] output_dir: Path("") is the working directory
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, str(cfg), "--output", ""]) == 2
    assert "config error: --output: " in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_sweep_configs_sharing_an_output_dir_are_a_config_error(
        tmp_path, capsys):
    # a/x.cfg and b/x.cfg both run into <output>/x: the second run would
    # replace the first one's files while the summary lists both
    names = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        names.append(str(tmp_path / sub / "x.cfg"))
        Path(names[-1]).write_text(PRODUCT_CFG)
    out = tmp_path / "out"
    assert main(["sweep", *names, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err
    assert names[0] in err and names[1] in err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_product_base_dimension_below_one_is_a_params_error(tmp_path, capsys,
                                                           n):
    # n = 0 raised ZeroDivisionError at parse, a traceback; n = -1 ran
    # and passed
    text = PRODUCT_CFG.replace("[params]\n", f"[params]\nn = {n}\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "params"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "config error: params: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_product_run_takes_the_fixed_step(tmp_path):
    # dt_fixed sets the step in both scenarios; the last step ends at
    # T - stop_margin = 0.499.  Eleven states are too few for the
    # splitting fit, so the run fails only that check: exit 1.
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG.replace("[flow]\n",
                                       "[flow]\ndt_fixed = 0.05\n"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 1
    acceptance = json.loads((out / "manifest.json").read_text())[
        "acceptance"]
    assert [name for name, ok in acceptance.items() if not ok] == [
        "splitting"]
    t = _read_csv(out / "flow.csv", FLOW_CSV_SCHEMA, FLOW_COLUMNS["product"])["t"]
    assert t.size == 11
    assert np.diff(t)[:-1] == pytest.approx([0.05] * 9, abs=1e-15)
    assert t[-1] == pytest.approx(0.499, abs=1e-15)


def test_main_check_missing_dir_is_runtime_error(tmp_path):
    assert main(["check", str(tmp_path / "nope")]) == 3


def test_main_sweep_no_match(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "*.cfg")]) == 2


def test_sweep_pattern_matching_no_file_is_a_config_error(tmp_path, capsys):
    # a misspelt name among matching ones was dropped, and the sweep ran
    # without it
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG)
    missing = str(tmp_path / "q.cfg")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), missing, "--output", str(out)]) == 2
    assert (f"config error: {missing}: matches no config file"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("check", ["--seed", "1"]),
    ("run", ["--workers", "2"]),
])
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, monkeypatch,
                                                   capsys, command, flag):
    # `check` reads no flag and `run` no worker count; a usage error, not
    # a flag that is silently ignored
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "p.cfg"
    target.write_text(PRODUCT_CFG)
    if command == "check":
        target = tmp_path / "run_dir"
    with pytest.raises(SystemExit) as exc:
        main([command, str(target), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_flag_and_config_precedence(tmp_path, monkeypatch, capsys):
    # --output wins over [run] output_dir, which wins over the default
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG)
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "runs" / "p" / "manifest.json")
                          .read_text())
    assert manifest["seed"] == 0
    file_dir = tmp_path / "from_file"
    cfg.write_text(PRODUCT_CFG.replace(
        "[params]\n", f"output_dir = {file_dir}\n\n[params]\n"))
    assert main(["run", str(cfg)]) == 0
    assert (file_dir / "manifest.json").exists()
    flag_dir = tmp_path / "from_flag"
    assert main(["run", str(cfg), "--output", str(flag_dir),
                 "--seed", "5"]) == 0
    manifest = json.loads((flag_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["output_dir"] == str(flag_dir)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # np.random.default_rng rejects a negative seed, and only after the
    # flow has run and its files are written; reject it before the run
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRODUCT_CFG)
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error: seed: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("entry", ["execute", "run_sweep"])
def test_library_entry_points_reject_a_negative_seed_before_running(
        tmp_path, entry):
    # with chart_residuals on, the seed is first used after the flow has
    # run and its files are written
    config = parse_config((CONFIGS / "sweep" / "hz_grid_096.cfg").read_text()
                          .replace("checks = monitors,time_ratio",
                                   "checks = monitors,chart_residuals"))
    out = tmp_path / "out"
    with pytest.raises(ValidationError) as err:
        if entry == "execute":
            execute(config, out, seed=-1)
        else:
            run_sweep([("hz_grid_096.cfg", config)], out, workers=1, seed=-1)
    assert err.value.key == "seed"
    assert not out.exists()
    assert not list(tmp_path.rglob("flow.csv"))
