"""Acceptance gate: end-to-end checks with hard tolerances and budgets.

Each test records a single [PASS]/[FAIL] verdict line; conftest echoes the
collected scoreboard in the terminal summary so a tee'd run shows it.
"""

import time

import numpy as np

from fiberflow import (
    HirzebruchParams,
    ProductParams,
    RunSettings,
    a_norm_sq,
    calabi_sampler,
    check_kahler_compatibility,
    check_totally_geodesic,
    classify_type,
    fd_ricci_oracle,
    frame_point,
    fubini_study_base,
    grad_ln_f_norm_sq,
    mixed_curvature_residuals,
    pick_blowup_sequence,
    rescale_series,
    ricci_blocks,
    run_flow,
    splitting_report,
)
from fiberflow.chart_geometry import check_base_einstein, perturbed_fs_base

from conftest import grid_sweep, make_logistic


VERDICTS: list[str] = []


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_product_matches_closed_form():
    t0 = time.perf_counter()
    run = run_flow(ProductParams(f0=3.0, c0=1.0, n=1), RunSettings())
    wall = time.perf_counter() - t0
    err = 0.0
    for t, f, c in zip(run.flow["t"], run.flow["f"], run.flow["c"]):
        err = max(err, abs(f - (3.0 - 2.0 * t)), abs(c - (1.0 - 2.0 * t)))
    t_err = abs(run.T_observed - 0.5)
    ok = err <= 1e-6 and t_err <= 1e-3 and wall < 5.0
    _verdict("product closed form", ok,
             f"max |f,c| error {err:.2e} (tol 1e-6), "
             f"|T-0.5| {t_err:.2e} (tol 1e-3), {wall:.2f}s (budget 5s)")


def test_product_curvature_plateau():
    t0 = time.perf_counter()
    run = run_flow(ProductParams(f0=3.0, c0=1.0, n=1), RunSettings())
    wall = time.perf_counter() - t0
    ts = run.diagnostics["t"]
    sups = run.diagnostics["rm_sup"]
    rem = run.T_observed - ts
    decade = rem <= 10.0 * rem[-1]
    prods = rem[decade] * sups[decade]
    dev = float(np.max(np.abs(prods - 2.0))) / 2.0
    ok = dev <= 0.05 and wall < 5.0
    _verdict("product curvature plateau", ok,
             f"(T-t)*sup|Rm| within {dev:.2%} of 2 over final decade "
             f"({int(decade.sum())} samples, tol 5%), {wall:.2f}s (budget 5s)")


def test_collapse_rates_and_type():
    t0 = time.perf_counter()
    run = run_flow(HirzebruchParams(), RunSettings())
    report = classify_type(run.diagnostics, run.T_observed)
    wall = time.perf_counter() - t0
    ts = run.diagnostics["t"]
    ws = run.diagnostics["width"]
    slope = float(np.polyfit(ts, ws, 1)[0])
    slope_err = abs(slope + 2.0) / 2.0
    ratio = run.T_observed / run.T_predicted
    ok = (slope_err <= 0.02 and 0.98 <= ratio <= 1.02
          and report["classification"] == "TypeI" and wall < 60.0)
    _verdict("fiber collapse", ok,
             f"width slope {slope:.5f} (target -2, tol 2%), "
             f"T ratio {ratio:.5f} (window [0.98,1.02]), "
             f"class {report['classification']} (want TypeI), "
             f"{wall:.1f}s (budget 60s)")


def test_ricci_against_stencil_oracle():
    samp = calabi_sampler(make_logistic(1.0, 1.0), n=1, k=1)
    rng = np.random.default_rng(2026)
    ric_err = kahler = tg = 0.0
    pts = samp.random_points(rng, 20)
    for p in pts:
        blocks = samp.evaluate(p)
        ric = ricci_blocks(blocks).assemble()
        oracle = fd_ricci_oracle(samp, p).assemble()
        scale = float(np.max(np.abs(ric)))
        ric_err = max(ric_err, float(np.max(np.abs(ric - oracle))) / scale)
        kahler = max(kahler, check_kahler_compatibility(blocks))
        tg = max(tg, check_totally_geodesic(blocks))
    mixed = 0.0
    for p in pts[:5]:
        hhv, vvh = mixed_curvature_residuals(frame_point(samp, p))
        mixed = max(mixed, hhv, vvh)
    ok = ric_err <= 1e-4 and kahler <= 1e-8 and tg <= 1e-8 and mixed <= 1e-3
    _verdict("curvature identities", ok,
             f"ricci vs oracle {ric_err:.2e} (tol 1e-4) at 20 points, "
             f"kahler {kahler:.2e} / geodesic {tg:.2e} (tol 1e-8), "
             f"mixed residual {mixed:.2e} (tol 1e-3)")


def test_a_norm_identity_random_frames():
    rng = np.random.default_rng(77)
    worst = 0.0
    counts = {1: 34, 2: 33, 3: 33}
    for n, count in counts.items():
        samp = calabi_sampler(make_logistic(1.0, 1.0), n=n, k=1)
        for p in samp.random_points(rng, count):
            fp = frame_point(samp, p)
            lhs = a_norm_sq(fp)
            rhs = 2.0 * n * grad_ln_f_norm_sq(fp)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-8
    _verdict("A-tensor norm identity", ok,
             f"rel error {worst:.2e} (tol 1e-8) over 100 frames, n in 1..3")


def test_rescaled_decay_exponents():
    run = run_flow(HirzebruchParams(), RunSettings())
    diag = run.diagnostics
    rows = pick_blowup_sequence(diag, run.T_observed)
    rep = splitting_report(diag["rm_sup"][rows],
                           rescale_series(diag, run.T_observed, rows),
                           "typeI_max_curvature")
    a_exp, h_exp = rep["a_decay_exponent"], rep["horiz_decay_exponent"]
    a_err = abs(a_exp + 1.0)
    h_err = abs(h_exp + 1.0)
    ok = a_err <= 0.1 and h_err <= 0.1
    _verdict("rescaled decay exponents", ok,
             f"A-norm exponent {a_exp:.4f}, horizontal "
             f"exponent {h_exp:.4f} (target -1, tol 0.1)")


def test_discretization_and_monitors(tmp_path):
    order = grid_sweep(tmp_path)["heat_residual_order"]
    run = run_flow(HirzebruchParams(), RunSettings())
    a0 = run.params.a0
    diag = run.diagnostics
    slack = float(np.max(diag["max_f_slack"]))
    floor_ok = bool(np.all((diag["min_f"] >= a0 - diag["t"] - 1e-3)
                           & (diag["min_f"] > 0.0)))
    grad_ok = bool(np.all(diag["grad_bound_ok"] == 1.0))
    ok = order >= 1.9 and slack <= 1e-9 and floor_ok and grad_ok
    _verdict("discretization and monitors", ok,
             f"heat residual order {order:.3f} (want >= 1.9), max-f slack "
             f"{slack:.1e} (tol 1e-9), floor held {floor_ok}, "
             f"gradient bound held {grad_ok}")


def test_einstein_detector():
    rng = np.random.default_rng(5)
    clean = 0.0
    fired = np.inf
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, size=2) + 1j * rng.uniform(-0.5, 0.5, 2)
        clean = max(clean, check_base_einstein(fubini_study_base(z)))
        fired = min(fired, check_base_einstein(perturbed_fs_base(z)))
    ok = clean <= 1e-10 and fired >= 1e-3
    _verdict("einstein detector", ok,
             f"clean residual {clean:.2e} (tol 1e-10), perturbed residual "
             f"{fired:.2e} (must exceed 1e-3)")
