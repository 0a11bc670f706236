"""Run orchestration: config parsing, file emission, sweeps, re-checking.

The config dialect is plain ``key = value`` lines under ``[section]``
headers, full-line comments starting with ``#`` or ``;``.  The schema is
strict: unknown sections or keys are rejected with a suggestion rather
than ignored, so a typo cannot silently fall back to a default.

Emitted files per run directory:
  flow.csv          per recorded step profile summary
  diagnostics.csv   curvature and monitor series (one row per step)
  rescaled_<i>.csv  dilated diagnostic series per blow-up pick
  report.json       classification and splitting report
  manifest.json     config echo, versions, timings, acceptance map

Exit codes: 0 all enabled checks pass, 1 acceptance failure,
2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import difflib
import glob
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .calabi_flow import (
    DIAG_COLUMNS,
    PROFILE_SHAPES,
    ConfigError,
    FlowError,
    FlowRun,
    HirzebruchParams,
    ProductParams,
    RunSettings,
    _step_size,
    build_monitors,
    flow_table,
    init_hirzebruch_profile,
    loglog_slope,
    observed_stop_time,
    predict_max_time,
    product_closed_form,
    run_flow,
    sampler_from_state,
    stop_cause,
)
from .chart_geometry import (
    check_kahler_compatibility,
    check_totally_geodesic,
)
from .singularity_analyzer import (
    MIN_SAMPLES,
    PICK_MODES,
    AnalysisError,
    classify_sup_series,  # no caller here; perfbench/tracing.py wraps it
    classify_type,
    pick_blowup_sequence,
    rescale_series,
    splitting_report,
)

MANIFEST_SCHEMA = "fiberflow.manifest/1"
SWEEP_SCHEMA = "fiberflow.sweep/1"
FLOW_CSV_SCHEMA = "fiberflow.flow/1"
DIAG_CSV_SCHEMA = "fiberflow.diagnostics/1"
RESCALED_CSV_SCHEMA = "fiberflow.rescaled/1"
# the manifest entries a run records; `_record` derives every other one
RECORDED_ENTRIES = frozenset({"schema", "code_version", "config", "seed",
                              "output_dir", "error", "wall_clock_s"})

HEAT_RESIDUAL_TOL = 1e-3
SLACK_TOL = 1e-6
TIME_RATIO_BAND = 0.02
CLOSED_FORM_TOL = 1e-6
CHART_RESIDUAL_TOL = 1e-8


class HarnessError(Exception):
    """Base for configuration-layer failures."""


class ParseError(HarnessError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class ValidationError(HarnessError):
    def __init__(self, key: str, msg: str):
        super().__init__(f"{key}: {msg}")
        self.key = key


class RunDirError(Exception):
    """A stored run file is missing, empty, cut short or malformed."""


# ---------------------------------------------------------------------------
# config schema


def _to_opt_float(s: str) -> float | None:
    return None if s == "" else float(s)


def _to_str_tuple(s: str) -> tuple[str, ...]:
    names = tuple(x.strip() for x in s.split(",") if x.strip())
    if not names:
        raise ValueError("no names")
    return names


RUN_KEYS: dict[str, Callable] = {"scenario": str, "output_dir": str}

PARAM_KEYS: dict[str, dict[str, Callable]] = {
    "product": {"f0": float, "c0": float, "n": int, "R_h": _to_opt_float},
    "hirzebruch": {"a0": float, "b0": float, "n": int, "k": int,
                   "R_h": _to_opt_float, "L": float, "grid_points": int},
}

FLOW_KEYS: dict[str, Callable] = {
    "dt_max": float, "time_frac": float, "stop_margin": float,
    "dt_fixed": _to_opt_float, "shape": str,
}

ANALYSIS_KEYS: dict[str, Callable] = {
    "mode": str, "max_picks": int, "heat_tol": float,
    "checks": _to_str_tuple,
}

CHECK_NAMES = ("monitors", "time_ratio", "classification", "splitting",
               "chart_residuals", "closed_form")

DEFAULT_CHECKS = {
    "hirzebruch": ("monitors", "time_ratio", "classification", "splitting",
                   "chart_residuals"),
    "product": ("closed_form", "time_ratio", "classification", "splitting"),
}


@dataclass(frozen=True)
class AnalysisConfig:
    mode: str = "typeI_max_curvature"
    max_picks: int = 8
    heat_tol: float = HEAT_RESIDUAL_TOL
    checks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValidationError(
                    name, f"unknown check{_suggestion(name, CHECK_NAMES)}")
        if self.max_picks < 1:
            raise ValidationError("max_picks", "must be at least 1")
        # a heat residual is never negative: the gate could then never pass
        if not 0.0 <= self.heat_tol < math.inf:
            raise ValidationError(
                "heat_tol", f"must be finite and at least 0, got "
                            f"{self.heat_tol!r}")
        if self.mode not in PICK_MODES:
            raise ValidationError(
                "mode", f"unknown pick mode {self.mode!r}"
                        f"{_suggestion(self.mode, PICK_MODES)}")


@dataclass(frozen=True)
class RunConfig:
    params: HirzebruchParams | ProductParams
    settings: RunSettings
    analysis: AnalysisConfig
    output_dir: str | None
    echo: dict


def _suggestion(key: str, allowed: Sequence[str]) -> str:
    close = difflib.get_close_matches(key, allowed, n=1, cutoff=0.6)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] in "#;":
            continue
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ParseError(lineno, col, "malformed section header")
            current = stripped[1:-1].strip()
            if not current:
                raise ParseError(lineno, col, "empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ParseError(lineno, col,
                             "expected 'key = value' or '[section]'")
        if current is None:
            raise ParseError(lineno, col, "key before any [section] header")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(lineno, col, "missing key before '='")
        if key in sections[current]:
            raise ParseError(lineno, col, f"duplicate key {key!r}")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _convert(section: str, key: str, value: str, lineno: int,
             conv: Callable):
    try:
        return conv(value)
    except (ValueError, TypeError):
        raise ValidationError(
            key, f"bad value {value!r} in [{section}] on line {lineno}")


def _take(sections: dict, section: str,
          allowed: dict[str, Callable]) -> dict:
    got = sections.get(section, {})
    out = {}
    for key, (value, lineno) in got.items():
        if key not in allowed:
            raise ValidationError(
                key, f"unknown key in [{section}]"
                     f"{_suggestion(key, list(allowed))}")
        out[key] = _convert(section, key, value, lineno, allowed[key])
    return out


def parse_config(text: str) -> RunConfig:
    """Strictly validated RunConfig from a key = value document."""
    sections = _parse_sections(text)
    known = {"run", "params", "flow", "analysis"}
    for name in sections:
        if name not in known:
            raise ValidationError(
                name, f"unknown section{_suggestion(name, sorted(known))}")

    run_kv = _take(sections, "run", RUN_KEYS)
    scenario = run_kv.get("scenario")
    if scenario is None:
        raise ValidationError("scenario", "required key missing in [run]")
    if scenario not in PARAM_KEYS:
        raise ValidationError(
            "scenario", f"unknown scenario {scenario!r}"
                        f"{_suggestion(scenario, list(PARAM_KEYS))}")
    if run_kv.get("output_dir") == "":
        # Path("") is the current directory, which the run would fill
        raise ValidationError("output_dir", "empty value in [run]")

    param_kv = _take(sections, "params", PARAM_KEYS[scenario])
    flow_kv = _take(sections, "flow", FLOW_KEYS)
    ana_kv = _take(sections, "analysis", ANALYSIS_KEYS)

    if "shape" in flow_kv:
        if scenario != "hirzebruch":
            raise ValidationError(
                "shape", "only applies to the hirzebruch scenario")
        shape = param_kv["shape"] = flow_kv.pop("shape")
        if shape not in PROFILE_SHAPES:
            raise ValidationError(
                "shape", f"unknown shape {shape!r}"
                         f"{_suggestion(shape, list(PROFILE_SHAPES))}")
    try:
        params = (HirzebruchParams(**param_kv) if scenario == "hirzebruch"
                  else ProductParams(**param_kv))
    except FlowError as exc:
        raise ValidationError("params", str(exc)) from exc
    try:
        settings = RunSettings(**flow_kv)
    except ConfigError as exc:
        raise ValidationError("flow", str(exc)) from exc
    if scenario == "hirzebruch":
        # the profile diagnostics are implemented over surface bases only
        if params.n != 1:
            raise ValidationError("n", "the hirzebruch scenario needs n = 1")
        # the run's own initial profile: a half-width L too small for the
        # endpoint closure, or so large that the increments underflow,
        # would stop the run with BadProfile after it had started
        try:
            init_hirzebruch_profile(params)
        except FlowError as exc:
            raise ValidationError("L", str(exc)) from exc
    try:
        t_pred = predict_max_time(params)
    except FlowError as exc:
        raise ValidationError("params", str(exc)) from exc
    # the states the step rule schedules, counted up to the analysis'
    # minimum; a run records no more (a stop margin at or above the
    # predicted time leaves the initial state alone)
    states, t = 1, 0.0
    while states < MIN_SAMPLES and (
            dt := _step_size(settings, t_pred, t)) is not None:
        states, t = states + 1, t + dt
    if states < MIN_SAMPLES:
        raise ValidationError(
            "stop_margin", f"the step rule (dt_max, time_frac, dt_fixed) "
                           f"leaves {states} recorded state(s) before the "
                           f"predicted collapse time {t_pred!r} less "
                           f"stop_margin; the analysis needs at least "
                           f"{MIN_SAMPLES}, in [flow]")
    # a fixed step too small to move t at the stop time t_end would leave
    # the run short of t_end for ever (the step rule stops only there)
    t_end = t_pred - settings.stop_margin
    if settings.dt_fixed is not None and t_end + settings.dt_fixed == t_end:
        raise ValidationError(
            "dt_fixed", f"{settings.dt_fixed!r} does not advance t at the "
                        f"stop time {t_end!r} (the predicted collapse time "
                        f"less stop_margin), in [flow]")

    ana_kv.setdefault("checks", DEFAULT_CHECKS[scenario])
    analysis = AnalysisConfig(**ana_kv)
    scenario_only = {"closed_form": "product", "chart_residuals": "hirzebruch"}
    for name in analysis.checks:
        needs = scenario_only.get(name)
        if needs is not None and needs != scenario:
            raise ValidationError(
                name, f"check only applies to the {needs} scenario")
    fs_scalar = params.n * (params.n + 1)
    if "chart_residuals" in analysis.checks and params.base_scalar != fs_scalar:
        raise ValidationError(
            "R_h", f"chart_residuals evaluates a chart over the Fubini-Study "
                   f"base, R_h = {fs_scalar}; leave R_h out or chart_residuals "
                   f"out of checks")

    echo = {name: {k: v for k, (v, _) in kv.items()}
            for name, kv in sections.items()}
    return RunConfig(
        params=params, settings=settings, analysis=analysis,
        output_dir=run_kv.get("output_dir"), echo=echo)


def _require_seed(seed: int) -> None:
    """ValidationError if `seed` is negative, which the `chart_residuals`
    points cannot take (np.random.default_rng takes no negative seed)."""
    if seed < 0:
        raise ValidationError("seed", "must be at least 0")


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise HarnessError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# deterministic file emission


# Columns written as integers (bools as 1/0); every other column is a
# float written with 17 significant digits, which round-trips float64.
INT_COLUMNS = frozenset({"node", "grad_bound_ok"})


def _csv_header(schema: str, columns: Sequence[str]) -> list[str]:
    """The two header lines of a CSV of `_csv_text`: schema line, then
    the column names."""
    return [f"# {schema} columns: {','.join(columns)}", ",".join(columns)]


def _csv_text(schema: str, table: dict[str, np.ndarray]) -> str:
    """The text of the CSV file of a column table: `_csv_header` of the
    table's keys, one line per row."""
    columns = list(table)
    row_fmt = ",".join("%d" if c in INT_COLUMNS else "%.17g"
                       for c in columns)
    lines = _csv_header(schema, columns)
    rows = np.column_stack(list(table.values())).tolist()
    lines.extend(row_fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise RunDirError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise RunDirError(f"{path}: not text ({exc.reason} at byte "
                          f"{exc.start})") from exc


def _read_csv(path: Path, schema: str,
              columns: Sequence[str]) -> dict[str, np.ndarray]:
    """The column table a CSV of `_csv_text` with `schema` and `columns`
    stores, one float64 array per column; RunDirError naming the file if
    it is unreadable, has another schema or header or a short or bad row,
    or a value in an INT_COLUMNS column that is not a finite integer.
    `%.17g` round-trips float64, so the table equals the one the file was
    written from."""
    lines = _read_text(path).splitlines()
    if lines[:2] != _csv_header(schema, columns):
        raise RunDirError(f"{path}: missing or unexpected schema or column "
                          f"header")
    if len(lines) < 3:
        raise RunDirError(f"{path}: no data rows")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split(",")
        if len(fields) != len(columns):
            raise RunDirError(f"{path}: line {lineno} has {len(fields)} "
                              f"fields, expected {len(columns)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise RunDirError(f"{path}: line {lineno}: {exc}") from exc
    table = dict(zip(columns, np.array(rows, dtype=float).T.copy()))
    for name in INT_COLUMNS.intersection(columns):
        col = table[name]
        bad = np.flatnonzero(~np.isfinite(col) | (np.trunc(col) != col))
        if bad.size:
            raise RunDirError(f"{path}: line {bad[0] + 3}: {name} = "
                              f"{float(col[bad[0]])} is not an integer")
    return table


def _read_json(path: Path) -> dict:
    """The JSON object stored at path."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise RunDirError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise RunDirError(f"{path}: expected a JSON object")
    return payload


def _json_text(payload) -> str:
    """`payload` as RFC 8259 JSON text with sorted keys, each float that is
    not finite, which JSON has no token for, written as null."""
    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(payload), indent=2, sort_keys=True,
                      allow_nan=False)


def _atomic_json(path: Path, payload: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_json_text(payload) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_RESCALED_NAME = re.compile(r"rescaled_\d+\.csv")


def _stored_rescaled(run_dir: Path) -> list[str]:
    """The names of the `rescaled_<i>.csv` files in a run directory."""
    return sorted(p.name for p in run_dir.glob("rescaled_*.csv")
                  if _RESCALED_NAME.fullmatch(p.name))


# ---------------------------------------------------------------------------
# analysis and acceptance checks


def analyze(diag: dict[str, np.ndarray], T_observed: float,
            ana: AnalysisConfig
            ) -> tuple[dict, np.ndarray, list[dict[str, np.ndarray]],
                       str | None]:
    """Classify, pick, rescale and split one diagnostics table: the
    `report.json` object, with its `splitting` entry, the picked rows of
    `diag` and a rescaled table per pick when the picks qualify, else no
    rows, no tables and a note saying why they do not."""
    report = {"type": classify_type(diag, T_observed)}
    try:
        rows = pick_blowup_sequence(diag, T_observed, ana.mode,
                                    max_picks=ana.max_picks)
        tables = rescale_series(diag, T_observed, rows)
    except AnalysisError as exc:
        return report, np.zeros(0, dtype=int), [], str(exc)
    report["splitting"] = splitting_report(diag["rm_sup"][rows], tables,
                                           ana.mode)
    return report, rows, tables, None


def _record(config: RunConfig, diag: dict[str, np.ndarray],
            chart_ok: bool | None, record: dict) -> dict[str, str]:
    """A run's record, derived from its diagnostics table: fills
    `record` with every derived manifest entry and returns the text of
    every derived file (`report.json`, each `rescaled_<i>.csv`) by name.
    `execute` writes what it derives; `check_run_dir` derives it again
    from the stored table and compares.  `chart_ok` is the
    `chart_residuals` verdict (None when the config leaves it out).  The
    run's numbers land in `record` before the analysis runs, so a manifest
    whose analysis raises keeps them."""
    T_predicted = predict_max_time(config.params)
    T_observed = observed_stop_time(config.params, diag)
    resid = diag["heat_residual"]  # NaN where a row has no time stencil
    record.update(scenario=config.params.scenario, T_predicted=T_predicted,
                  T_observed=T_observed, time_ratio=T_observed / T_predicted,
                  stop_reason=stop_cause(config.params, config.settings,
                                         diag),
                  steps_recorded=len(diag["t"]),
                  heat_residual_max=(float("nan") if np.all(np.isnan(resid))
                                     else float(np.nanmax(resid))))
    report, _, tables, note = analyze(diag, T_observed, config.analysis)
    record["classification"] = report["type"]["classification"]
    record["plateau_value"] = report["type"]["plateau_value"]
    if "splitting" in report:
        record["a_decay_exponent"] = report["splitting"]["a_decay_exponent"]
    else:
        record["analysis_note"] = note
    record["acceptance"] = _acceptance(config, diag, record, report,
                                       chart_ok)
    record["passed"] = all(record["acceptance"].values())
    files = {"report.json": _json_text(report) + "\n"}
    for i, table in enumerate(tables):
        files[f"rescaled_{i}.csv"] = _csv_text(RESCALED_CSV_SCHEMA, table)
    return files


def _acceptance(config: RunConfig, diag: dict[str, np.ndarray],
                record: dict, report: dict,
                chart_ok: bool | None) -> dict[str, bool]:
    """The verdict of every check the config enables, from the run's
    diagnostics table and what `_record` derived from it: the
    manifest entries in `record` and the `report.json` object.
    `chart_residuals` needs a live profile, so its verdict is `chart_ok`.
    A NaN in a column that `monitors` or `closed_form` reads fails that
    check.
    """
    ana = config.analysis
    checks: dict[str, bool] = {}
    for name in ana.checks:
        if name == "monitors":
            ok = (record["heat_residual_max"] <= ana.heat_tol
                  and np.max(diag["max_f_slack"]) <= SLACK_TOL
                  and np.all(diag["grad_bound_ok"] > 0.5)
                  and np.min(diag["min_f"]) > 0.0
                  and record["stop_reason"] != "step_rejected")
        elif name == "time_ratio":
            ok = abs(record["time_ratio"] - 1.0) <= TIME_RATIO_BAND
        elif name == "classification":
            ok = record["classification"] == "TypeI"
        elif name == "splitting":
            ok = report.get("splitting", {}).get("splits", False)
        elif name == "closed_form":
            p = config.params
            flow = flow_table(p, diag)
            exact = [product_closed_form(p.f0, p.c0, p.base_scalar, p.n,
                                         float(t))[:2] for t in flow["t"]]
            got = np.column_stack((flow["f"], flow["c"]))
            ok = np.max(np.abs(got - exact)) <= CLOSED_FORM_TOL
        elif name == "chart_residuals":
            ok = chart_ok
        checks[name] = bool(ok)
    return checks


def _check_chart_residuals(run: FlowRun, seed: int) -> bool:
    """Kahler compatibility and totally geodesic fibers at 5 seeded chart
    points of the run's sampled state (`FlowRun.sample`: the first
    recorded state at or past half the span the run aims to cover), on
    the chart of `sampler_from_state`, the one chart profile of the
    package (numpy only, so a run loads no scipy module for this check).
    The points are evaluated in one batch call."""
    sampler = sampler_from_state(run.sample, run.params)
    points = sampler.random_points(np.random.default_rng(seed), 5)
    batch = sampler.evaluate_batch(points)
    worst = 0.0
    for i in range(len(points)):
        blocks = batch.row(i)
        worst = max(worst, check_kahler_compatibility(blocks),
                    check_totally_geodesic(blocks))
    return worst <= CHART_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# execution


def execute(config: RunConfig, out_dir: str | Path,
            seed: int = 0) -> tuple[dict, int]:
    """Run, analyze, emit files; returns (manifest, exit_code).

    The manifest lands atomically even when the compute fails, as long
    as the output directory itself is writable.  A negative seed raises
    ValidationError before anything is run or written.
    """
    _require_seed(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    manifest: dict = {
        "schema": MANIFEST_SCHEMA,
        "code_version": __version__,
        "config": config.echo,
        "scenario": config.params.scenario,
        "seed": seed,
        "output_dir": str(out),
        "acceptance": {},
        "passed": False,
        "error": None,
        "stop_reason": None,
        "classification": None,
    }
    code = 3
    try:
        run = run_flow(config.params, config.settings)
        (out / "flow.csv").write_text(_csv_text(FLOW_CSV_SCHEMA, run.flow))
        (out / "diagnostics.csv").write_text(
            _csv_text(DIAG_CSV_SCHEMA, run.diagnostics))
        chart_ok = (_check_chart_residuals(run, seed)
                    if "chart_residuals" in config.analysis.checks else None)
        files = _record(config, run.diagnostics, chart_ok, manifest)
        for name in _stored_rescaled(out):
            if name not in files:  # left by an earlier run with more picks
                (out / name).unlink()
        for name, text in files.items():
            (out / name).write_text(text)
        code = 0 if manifest["passed"] else 1
    except Exception as exc:  # recorded, not swallowed silently
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 3
    finally:
        manifest["wall_clock_s"] = time.perf_counter() - started
        _atomic_json(out / "manifest.json", manifest)
    return manifest, code


# ---------------------------------------------------------------------------
# stored-run re-checking


def _check_derived_columns(params: HirzebruchParams | ProductParams,
                           diag: dict[str, np.ndarray], path: Path) -> None:
    """RunDirError naming `path` unless every `node` of a diagnostics
    table is a grid node (0 for the product scenario) and its derived
    columns are, bit for bit, the ones a run derives: the monitor columns,
    `build_monitors` of the stored t, heat_residual, min_f, max_f and
    max_v, or the constants `_run_product` writes; and for a hirzebruch
    run `width`, the upper less the lower end of f in `flow_table`,
    `fiber_area` = 2 pi width / k and `a_sq_sup` = 2n grad_ln_sq_sup."""
    if isinstance(params, ProductParams):
        nodes, rows = 1, diag["t"].size
        derived = {"max_f_slack": np.zeros(rows),
                   "grad_f_sq_sup": np.zeros(rows),
                   "grad_bound_ok": np.ones(rows)}
    else:
        nodes = params.grid_points
        monitors = build_monitors(params, diag["t"], diag["heat_residual"],
                                  diag["min_f"], diag["max_f"],
                                  diag["max_v"])
        flow = flow_table(params, diag)
        derived = {name: monitors[name] for name in
                   ("max_f_slack", "grad_f_sq_sup", "grad_bound_ok")}
        derived.update(
            width=flow["upper"] - flow["lower"],
            fiber_area=2.0 * np.pi * diag["width"] / params.k,
            a_sq_sup=(2.0 * params.n) * diag["grad_ln_sq_sup"])
    node = diag["node"]
    bad = np.flatnonzero((node < 0) | (node >= nodes))
    if bad.size:
        raise RunDirError(f"{path}: line {bad[0] + 3}: node = "
                          f"{float(node[bad[0]])} is not one of the "
                          f"{nodes} grid nodes")
    for name, column in derived.items():
        if not np.array_equal(diag[name], column, equal_nan=True):
            raise RunDirError(f"{path}: {name} is not the column derived "
                              f"from the stored columns")


def _replayed_columns(config: RunConfig,
                      diag: dict[str, np.ndarray]) -> list[str]:
    """The columns of a product run's diagnostics table that are not, bit
    for bit (NaN equal to NaN), the ones `run_flow` computes again from
    its config: a product run is a closed form that costs microseconds.
    A hirzebruch run is not run again here."""
    if not isinstance(config.params, ProductParams):
        return []
    replay = run_flow(config.params, config.settings).diagnostics
    return [name for name in DIAG_COLUMNS
            if not np.array_equal(diag[name], replay[name], equal_nan=True)]


def check_run_dir(run_dir: str | Path) -> tuple[dict, int]:
    """Derive a stored run's record again, as `execute` did, and compare.

    The config is parsed again from the manifest's echo, and `_record`
    runs on the stored diagnostics table, with the stored
    `chart_residuals` verdict, the one input it does not derive.
    `flow.csv` must hold the text of the table `flow_table` derives from
    the stored diagnostics table, as a run writes it: with `%.17g`, every
    column bit for bit; so must the derived columns of diagnostics.csv
    (`_check_derived_columns`).  A product run is run again from the
    config.  `differs` names each column of a product run's
    diagnostics.csv that is not the replayed one (`_replayed_columns`),
    each derived file whose text is not the stored one, each stored
    rescaled_<i>.csv that is not derived, each derived manifest entry
    whose JSON text is not the stored one, and each stored entry that is
    neither derived nor in RECORDED_ENTRIES.  Raises RunDirError naming
    the file when the recorded run ended in error, flow.csv or a derived
    column is not the derived one, a `node` is off the grid, or a stored
    file is of another schema, missing, empty, cut short or malformed.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    diag_path = run_dir / "diagnostics.csv"
    manifest = _read_json(manifest_path)
    try:
        if manifest["schema"] != MANIFEST_SCHEMA:
            raise RunDirError(f"{manifest_path}: schema is not "
                              f"{MANIFEST_SCHEMA}")
        error = manifest["error"]
        if error is not None:
            raise RunDirError(f"{manifest_path}: the run ended in error "
                              f"({error['type']}: {error['message']})")
        for key in ("T_predicted", "T_observed"):
            if not 0.0 < float(manifest[key]) < math.inf:
                raise RunDirError(f"{manifest_path}: {key} is not finite "
                                  f"and positive")
        stored = {k: bool(v) for k, v in manifest["acceptance"].items()}
        config = parse_config("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
            for name, kv in manifest["config"].items()))
        diag = _read_csv(diag_path, DIAG_CSV_SCHEMA, DIAG_COLUMNS)
        recorded = manifest.get("steps_recorded")
        if recorded is not None and recorded != diag["t"].size:
            raise RunDirError(f"{diag_path}: {diag['t'].size} rows, the "
                              f"manifest records {recorded}")
        _check_derived_columns(config.params, diag, diag_path)
        flow_path = run_dir / "flow.csv"
        if _read_text(flow_path) != _csv_text(
                FLOW_CSV_SCHEMA, flow_table(config.params, diag)):
            raise RunDirError(f"{flow_path}: not the table derived from "
                              f"{diag_path.name}")
        _read_json(run_dir / "report.json")  # not JSON: exit 3, not 1
        replayed = _replayed_columns(config, diag)
        chart_ok = (stored["chart_residuals"]
                    if "chart_residuals" in config.analysis.checks else None)
        record: dict = {}
        try:
            files = _record(config, diag, chart_ok, record)
        except (AnalysisError, ArithmeticError, ValueError) as exc:
            raise RunDirError(
                f"{diag_path}: no analysis with T_observed = "
                f"{record.get('T_observed')} ({type(exc).__name__}: {exc})"
            ) from exc
    except HarnessError as exc:
        raise RunDirError(f"{manifest_path}: config echo: {exc}") from exc
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise RunDirError(f"{manifest_path}: missing or malformed entry "
                          f"({type(exc).__name__}: {exc})") from exc
    except FlowError as exc:
        raise RunDirError(f"{run_dir}: {exc}") from exc
    differs = [f"{diag_path.name} {name}" for name in replayed]
    differs += [name for name, text in files.items()
                if _read_text(run_dir / name) != text]
    differs += [name for name in _stored_rescaled(run_dir)
                if name not in files]
    # floats round-trip through JSON text, and a derived NaN is the null
    # the manifest stores for it
    differs += [f"manifest.json {key}" for key, value in record.items()
                if key not in manifest
                or _json_text(manifest[key]) != _json_text(value)]
    differs += [f"manifest.json {key}" for key in sorted(
        manifest.keys() - record.keys() - RECORDED_ENTRIES)]
    summary = {
        "run_dir": str(run_dir),
        "recheck": record["acceptance"],
        "stored": stored,
        "differs": differs,
        "consistent": not differs,
        "passed": record["passed"],
    }
    return summary, 0 if summary["passed"] and summary["consistent"] else 1


# ---------------------------------------------------------------------------
# sweeps


def _execute_member(item: tuple[RunConfig, str, int]) -> tuple[dict, int]:
    config, out_dir, seed = item
    return execute(config, out_dir, seed)


def run_sweep(configs: Sequence[tuple[str, RunConfig]], base_dir: str | Path,
              workers: int = 2, seed: int = 0) -> tuple[dict, int]:
    _require_seed(seed)
    if workers < 1:
        raise ValidationError("workers", "must be at least 1")
    base = Path(base_dir)
    out_dirs = [str(base / Path(name).stem) for name, _ in configs]
    writer: dict[str, str] = {}
    for (name, _), out in zip(configs, out_dirs):
        if out in writer:
            # the later run would overwrite the earlier one's files
            raise HarnessError(f"configs {writer[out]} and {name} would "
                               f"both write {out}")
        writer[out] = name
    base.mkdir(parents=True, exist_ok=True)
    items = [(cfg, out, seed) for (_, cfg), out in zip(configs, out_dirs)]
    if workers > 1 and len(items) > 1:
        # Deferred: this import costs ~20 ms at startup; only a parallel
        # sweep uses it.
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            outcomes = list(pool.map(_execute_member, items))
    else:
        outcomes = [_execute_member(it) for it in items]

    members = []
    for (name, cfg), out, (manifest, code) in zip(configs, out_dirs,
                                                   outcomes):
        entry = {
            "config": name,
            "output_dir": out,
            "exit_code": code,
            "passed": manifest.get("passed", False),
            "scenario": cfg.params.scenario,
            "T_observed": manifest.get("T_observed"),
            "classification": manifest.get("classification"),
            "heat_residual_max": manifest.get("heat_residual_max"),
        }
        if cfg.params.scenario == "hirzebruch":
            entry["grid_points"] = cfg.params.grid_points
            entry["drho"] = 2.0 * cfg.params.L / (cfg.params.grid_points - 1)
        members.append(entry)

    order = None
    # a member with no finite positive heat residual (a failed run, or one
    # too short for a time stencil) has no point on the log-log line
    pts = [(m["drho"], m["heat_residual_max"]) for m in members
           if m.get("drho") and 0.0 < (m["heat_residual_max"] or 0.0) < np.inf]
    if len({d for d, _ in pts}) >= 2:
        d, r = np.array(sorted(pts)).T
        order = loglog_slope(d, r)

    summary = {
        "schema": SWEEP_SCHEMA,
        "code_version": __version__,
        "members": members,
        "heat_residual_order": order,
        "all_passed": all(m["passed"] for m in members),
    }
    _atomic_json(base / "sweep_summary.json", summary)
    codes = [c for _, c in outcomes]
    code = 3 if 3 in codes else (1 if 1 in codes else 0)
    return summary, code


# ---------------------------------------------------------------------------
# CLI plumbing


def _cmd_run(args) -> int:
    config = load_config(args.config)
    # empty values are config errors, so `or` takes the first one given
    out = args.output or config.output_dir or f"runs/{Path(args.config).stem}"
    manifest, code = execute(config, out, args.seed)
    status = ("pass" if code == 0 else
              "acceptance-fail" if code == 1 else "error")
    print(f"{args.config}: {status} -> {out}")
    if manifest["error"] is not None:
        print(f"  {manifest['error']['type']}: "
              f"{manifest['error']['message']}", file=sys.stderr)
    for name, ok in manifest["acceptance"].items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return code


def _cmd_sweep(args) -> int:
    names = set()
    for pattern in args.patterns:
        if not (matched := glob.glob(pattern)):
            raise ValidationError(pattern, "matches no config file")
        names.update(matched)
    configs = [(name, load_config(name)) for name in sorted(names)]
    out = args.output or "runs/sweep"
    summary, code = run_sweep(configs, out, workers=args.workers,
                              seed=args.seed)
    for m in summary["members"]:
        print(f"{m['config']}: {'pass' if m['passed'] else 'FAIL'}")
    if summary["heat_residual_order"] is not None:
        print(f"heat residual order: {summary['heat_residual_order']:.3f}")
    return code


def _cmd_check(args) -> int:
    summary, code = check_run_dir(args.run_dir)
    for name, ok in summary["recheck"].items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    for name in summary["differs"]:
        print(f"  {name} differs from its value recomputed from the stored "
              "files and the config")
    print(f"{args.run_dir}: "
          f"{'pass' if code == 0 else 'FAIL'}"
          f" (consistent={summary['consistent']})")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fiberflow",
        description="collapse-flow runs, sweeps, and stored-run checks")
    # each subcommand takes only the flags it reads: `check` none of them
    executes = argparse.ArgumentParser(add_help=False)
    executes.add_argument("--output", default=None,
                          help="output directory")
    executes.add_argument("--seed", type=int, default=0,
                          help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[executes],
                           help="execute one config")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", parents=[executes],
                             help="execute a glob of configs concurrently")
    p_sweep.add_argument("--workers", type=int, default=2,
                         help="sweep parallelism")
    p_sweep.add_argument("patterns", nargs="+")
    p_check = sub.add_parser("check",
                             help="re-evaluate acceptance on stored files")
    p_check.add_argument("run_dir")
    args = parser.parse_args(argv)

    try:
        if getattr(args, "output", None) == "":
            # Path("") is the current directory, which the run would fill
            raise ValidationError("--output", "empty value")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check(args)
    except HarnessError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunDirError as exc:
        print(f"run directory error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
