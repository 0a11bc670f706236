"""Whole-run post-processing in blocks against a per-state reference.

The reference below is a frozen copy of the per-state diagnostics and
monitors that the block code replaced, with the same formulas in the same
evaluation order, so every field must agree exactly (NaN with NaN).
"""

import math

import numpy as np
import pytest

from fiberflow import calabi_flow
from fiberflow.calabi_flow import (
    DiagnosticsSample,
    HirzebruchParams,
    MonitorReport,
    RunSettings,
    build_monitors,
    curvature_profiles,
    diagnostics_series,
    profile_diagnostics,
    run_flow,
)

# ---------------------------------------------------------------------------
# frozen per-state reference


def _ref_v(st, k):
    d = st.rho[1] - st.rho[0]
    inc = st.df
    v = np.empty_like(st.f)
    v[1:-1] = (inc[1:] + inc[:-1]) / (2.0 * d * k)
    v[0] = (1.5 * inc[0] - 0.5 * inc[1]) / (d * k)
    v[-1] = (1.5 * inc[-1] - 0.5 * inc[-2]) / (d * k)
    return v


def _ref_d1(arr, d):
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * d)
    out[0] = (-1.5 * arr[0] + 2.0 * arr[1] - 0.5 * arr[2]) / d
    out[-1] = (1.5 * arr[-1] - 2.0 * arr[-2] + 0.5 * arr[-3]) / d
    return out


def _ref_d2(arr, d):
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / d ** 2
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def _ref_profiles(st, params, thr):
    k = params.k
    d = st.rho[1] - st.rho[0]
    f = st.f
    v = _ref_v(st, k)
    max_v = float(np.max(v))
    supp = v >= thr * max_v
    lnv = np.log(np.where(v > 0.0, v, 1.0))
    lv1 = _ref_d1(lnv, d)
    lv2 = _ref_d2(lnv, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_v = np.where(supp, -lv2 / v, 0.0)
    grad_ln_sq = 2.0 * k ** 2 * v / f ** 2
    a_sq = 2.0 * params.n * grad_ln_sq
    kappa_h = params.base_scalar / f - grad_ln_sq
    v1 = _ref_d1(v, d)
    lf1 = k * v / f
    lf2 = k * v1 / f - lf1 ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        hess_rr = np.where(supp, (2.0 / v) * (lf2 - 0.5 * lv1 * lf1), 0.0)
        hess_tt = np.where(supp, (1.0 / v) * lv1 * lf1, 0.0)
    vhc_r = -0.5 * (hess_rr + grad_ln_sq) + 0.25 * grad_ln_sq
    vhc_t = -0.5 * hess_tt + 0.25 * grad_ln_sq
    rm = np.where(supp, np.sqrt(4.0 * k_v ** 2 + 4.0 * kappa_h ** 2), 0.0)
    width = st.upper - st.lower
    return dict(v=v, supp=supp, k_v=k_v, grad_ln_sq=grad_ln_sq, a_sq=a_sq,
                kappa_h=kappa_h, vhc_r=vhc_r, vhc_t=vhc_t, rm=rm,
                width=float(width), area=float(2.0 * np.pi * width / k))


def _ref_diagnostics(st, params, thr):
    prof = _ref_profiles(st, params, thr)
    supp = prof["supp"]
    mixed_sup = float(max(np.max(np.abs(prof["vhc_r"][supp])),
                          np.max(np.abs(prof["vhc_t"][supp]))))
    center = int(np.argmax(prof["v"]))
    return DiagnosticsSample(
        t=st.t,
        node=int(np.argmax(prof["rm"])),
        k_v_max=float(np.max(np.where(supp, prof["k_v"], -np.inf))),
        a_sq_sup=float(np.max(prof["a_sq"])),
        grad_ln_sq_sup=float(np.max(prof["grad_ln_sq"])),
        horiz_sup=float(np.max(np.abs(prof["kappa_h"]))),
        mixed_sup=mixed_sup,
        rm_sup=float(np.max(prof["rm"])),
        fiber_area=prof["area"],
        roundness=float(prof["k_v"][center] * prof["area"] / (4.0 * np.pi)),
        width=prof["width"],
        max_v=float(np.max(prof["v"])),
    )


def _ref_heat_residuals(states, params):
    k, n = params.k, params.n
    sink = params.base_scalar / n
    m = len(states)
    out = np.full(m, np.nan)
    if m < 3:
        return out
    rho = states[0].rho
    d = rho[1] - rho[0]
    mask = np.abs(rho) <= params.L / 2.0
    for idx in range(1, m - 1):
        tm, t0, tp = (states[idx - 1].t, states[idx].t, states[idx + 1].t)
        dm, dp = t0 - tm, tp - t0
        wm = -dp / (dm * (dm + dp))
        w0 = (dp - dm) / (dm * dp)
        wp = dm / (dp * (dm + dp))
        ft = (wm * states[idx - 1].f + w0 * states[idx].f
              + wp * states[idx + 1].f)
        f = states[idx].f
        f1 = np.full_like(f, np.nan)
        f1[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1]
                    - f[4:]) / (12.0 * d)
        f2 = np.full_like(f, np.nan)
        f2[2:-2] = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2]
                    + 16.0 * f[3:-1] - f[4:]) / (12.0 * d ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = k * (f2 / f1 + n * f1 / f) - sink
        out[idx] = float(np.nanmax(np.abs(ft - rhs)[mask]))
    return out


def _ref_monitors(states, params):
    k = params.k
    sink = params.base_scalar / params.n
    residuals = _ref_heat_residuals(states, params)
    max0 = float(np.max(states[0].f))
    grad0 = 2.0 * k ** 2 * float(np.max(_ref_v(states[0], k)))
    reports = []
    for idx, st in enumerate(states):
        grad_sup = 2.0 * k ** 2 * float(np.max(_ref_v(st, k)))
        reports.append(MonitorReport(
            t=st.t,
            heat_residual=float(residuals[idx]),
            min_f=float(np.min(st.f)),
            max_f=float(np.max(st.f)),
            max_f_slack=float(np.max(st.f)) - (max0 - sink * st.t),
            grad_f_sq_sup=grad_sup,
            grad_bound_ok=grad_sup <= grad0 * (1.0 + 1e-9) + 1e-12,
            width=st.upper - st.lower,
        ))
    return reports


# ---------------------------------------------------------------------------
# comparisons


def _same(a, b) -> bool:
    """Equal type and value, NaN matching NaN and 0.0 not matching -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for name in type(w).__dataclass_fields__:
            a, b = getattr(g, name), getattr(w, name)
            assert _same(a, b), f"row {i} {name}: {a!r} != {b!r}"


GRID = 512
BLOCK = calabi_flow._block_rows(GRID)
# run lengths around the block boundaries; the heat residual blocks the
# m - 2 states that have both time neighbours, hence B + 2 and 2 B + 2
LENGTHS = (1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1,
           2 * BLOCK + 2)


@pytest.fixture(scope="module", params=[(k, shape) for k in (1, 2, 3)
                                        for shape in ("tanh", "skew")],
                ids=lambda p: f"k{p[0]}-{p[1]}")
def case(request):
    k, shape = request.param
    params = HirzebruchParams(k=k, grid_points=GRID)
    return params, run_flow(params, RunSettings(), shape)


@pytest.mark.parametrize("thr", [1e-3, 0.05])
def test_block_diagnostics_and_monitors_match_per_state(case, thr):
    params, run = case
    assert BLOCK > 2 and len(run.states) > LENGTHS[-1]
    for m in LENGTHS + (len(run.states),):
        states = run.states[-m:]
        diags = diagnostics_series(states, params, thr)
        _assert_rows_equal(diags, [_ref_diagnostics(s, params, thr)
                                   for s in states])
        monitors = build_monitors(states, params,
                                  np.array([d.max_v for d in diags]))
        _assert_rows_equal(monitors, _ref_monitors(states, params))


def test_run_records_match_per_state(case):
    params, run = case
    thr = RunSettings().support_threshold
    _assert_rows_equal(run.diagnostics,
                       [_ref_diagnostics(s, params, thr) for s in run.states])
    _assert_rows_equal(run.monitors, _ref_monitors(run.states, params))


@pytest.mark.parametrize("thr", [1e-3, 0.05])
def test_one_row_functions_match_per_state(case, thr):
    params, run = case
    for st in (run.states[0], run.states[-1]):
        _assert_rows_equal([profile_diagnostics(st, params, thr)],
                           [_ref_diagnostics(st, params, thr)])
        prof = curvature_profiles(st, params, thr)
        want = _ref_profiles(st, params, thr)
        for name, arr in want.items():
            got = getattr(prof, name)
            if isinstance(arr, float):
                assert _same(got, arr), name
            else:
                assert (got.dtype == arr.dtype
                        and got.tobytes() == arr.tobytes()), name
