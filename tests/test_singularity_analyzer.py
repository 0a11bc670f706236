"""Analyzer: picking, rescaling laws, classification, splitting report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberflow import calabi_flow, singularity_analyzer
from fiberflow.calabi_flow import (
    HirzebruchParams,
    ProductParams,
    RunSettings,
    curvature_profiles,
    recorded_states,
    run_flow,
)
from fiberflow.singularity_analyzer import (
    FIBER_LIMIT_TARGET,
    RESCALED_COLUMNS,
    WINDOW_CAP,
    AnalysisError,
    TooFewSamples,
    WindowOutOfRange,
    _horizon_ladder,
    classify_sup_series,
    classify_type,
    pick_blowup_sequence,
    rescale_series,
    splitting_report,
)


@pytest.fixture(scope="module")
def hrun():
    return run_flow(HirzebruchParams(), RunSettings())


@pytest.fixture(scope="module")
def hstates():
    """The recorded states of `hrun`."""
    return list(recorded_states(HirzebruchParams(), RunSettings()))


@pytest.fixture(scope="module")
def prun():
    return run_flow(ProductParams(), RunSettings())


def _table(run):
    """The analyzer's input: the run's diagnostics table and stop time."""
    return run.diagnostics, run.T_observed


@pytest.fixture(scope="module")
def htab(hrun):
    return _table(hrun)


@pytest.fixture(scope="module")
def ptab(prun):
    return _table(prun)


def _picks(diag, rows):
    """(node, t, K) of each picked row."""
    return list(zip(diag["node"][rows], diag["t"][rows], diag["rm_sup"][rows]))


def synthetic_power_series(alpha, T=0.5):
    """Curvature sup growing like (T - t)^-alpha on 200 samples of the
    remaining time from 0.45 to 1e-4; classifier test input."""
    rem = np.logspace(np.log10(0.45), np.log10(1e-4), 200)
    return T - rem, rem ** (-alpha), T


def _zero(table):
    """Index of the picked row in a rescaled table: its s = 0 sample."""
    return int(np.flatnonzero(table["s"] == 0.0)[0])


# ---------------------------------------------------------------------------
# point picking


def test_typeI_picks_monotone_and_late(hrun, htab):
    rows = pick_blowup_sequence(*htab)
    ks = list(htab[0]["rm_sup"][rows])
    ts = list(htab[0]["t"][rows])
    assert len(ks) >= 3
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert hrun.T_observed - ts[-1] <= 0.01 * hrun.T_observed


def test_typeI_pick_is_spatial_max(hrun, hstates, htab):
    rows = pick_blowup_sequence(*htab)
    ts = [s.t for s in hstates]
    for node, t, kk in _picks(htab[0], rows):
        prof = curvature_profiles(hstates[ts.index(t)], hrun.params)
        assert prof["rm"][int(node)] == kk
        assert np.max(prof["rm"]) == kk
        assert np.all(prof["rm"] ** 2 / kk ** 2 <= 1.0 + 1e-15)


def test_picks_sit_where_fiber_smallest(hrun, hstates, htab):
    # direct-scan oracle: the curvature max lives at the edge of the
    # supported region, where v is within a hair of the support cutoff
    rows = pick_blowup_sequence(*htab)
    ts = [s.t for s in hstates]
    for node, t, _ in _picks(htab[0], rows):
        prof = curvature_profiles(hstates[ts.index(t)], hrun.params)
        assert prof["supp"][int(node)]
        assert prof["v"][int(node)] <= 2e-3 * np.max(prof["v"])


def test_typeII_picks_satisfy_normalization(hrun, hstates, htab):
    rows = pick_blowup_sequence(*htab, "typeII_supremum")
    ks = list(htab[0]["rm_sup"][rows])
    assert len(ks) >= 3
    assert all(b > a for a, b in zip(ks, ks[1:]))
    ts = [s.t for s in hstates]
    for node, t, kk in _picks(htab[0], rows):
        prof = curvature_profiles(hstates[ts.index(t)], hrun.params)
        assert np.all(prof["rm"] ** 2 <= kk ** 2 * (1.0 + 1e-15))
        assert prof["rm"][int(node)] == kk


def test_typeII_picks_are_the_window_maximizers(htab):
    # loop reference: the first row maximizing (T_i - t) * rm_sup in each
    # window between consecutive horizons, kept while K_i increases
    diag, T_obs = htab
    keep = diag["t"] < T_obs
    ts, rm, nodes = diag["t"][keep], diag["rm_sup"][keep], diag["node"][keep]
    horizons = _horizon_ladder(T_obs - ts, 9)
    want = []
    for lo, hi in zip(horizons, horizons[1:]):
        best, best_val = None, -np.inf
        for j in range(lo + 1, hi + 1):
            if (ts[hi] - ts[j]) * rm[j] > best_val:
                best, best_val = j, (ts[hi] - ts[j]) * rm[j]
        if not want or rm[best] > rm[want[-1]]:
            want.append(best)
    rows = pick_blowup_sequence(*htab, "typeII_supremum")
    assert _picks(diag, rows) == [(nodes[j], ts[j], rm[j]) for j in want]


@pytest.mark.parametrize("mode", ["typeI_max_curvature", "typeII_supremum"])
def test_picks_use_the_run_support_threshold(mode, monkeypatch):
    # each pick reads the support mask of the recorded diagnostics row at
    # its time, so its node and curvature are that row's argmax and max
    monkeypatch.setattr(calabi_flow, "SUPPORT_THRESHOLD", 0.05)
    run = run_flow(HirzebruchParams(), RunSettings())
    diag = run.diagnostics
    rows = pick_blowup_sequence(*_table(run), mode)
    for node, t, kk in _picks(diag, rows):
        j = int(np.flatnonzero(diag["t"] == t)[0])
        assert (node, kk) == (diag["node"][j], diag["rm_sup"][j])
    for table in rescale_series(*_table(run), rows):
        assert table["rm"][_zero(table)] == 1.0


def test_product_picks_match_closed_form(ptab):
    rows = pick_blowup_sequence(*ptab)
    for node, t, kk in _picks(ptab[0], rows):
        assert node == 0
        assert kk == pytest.approx(4.0 / (1.0 - 2.0 * t), rel=1e-3)


def test_downsampled_run_keeps_picks_monotone(htab):
    # every other row of the diagnostics table: a run recorded sparser
    diag, T_obs = htab
    sparse = {name: col[::2] for name, col in diag.items()}
    ks = list(sparse["rm_sup"][pick_blowup_sequence(sparse, T_obs)])
    assert len(ks) >= 3
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_too_few_samples():
    sparse = run_flow(HirzebruchParams(),
                      RunSettings(dt_fixed=0.25, stop_margin=0.3))
    with pytest.raises(TooFewSamples):
        pick_blowup_sequence(*_table(sparse))


def test_unknown_mode_rejected(htab):
    with pytest.raises(AnalysisError):
        pick_blowup_sequence(*htab, "loudest_node")


@pytest.mark.parametrize("column", ["rm_sup", "t"])
def test_rescale_rejects_flat_picks(htab, column):
    # two picked rows with equal curvature, or equal time
    diag, T_obs = htab
    rows = pick_blowup_sequence(diag, T_obs)
    flat = dict(diag, **{column: diag[column].copy()})
    flat[column][rows[1]] = flat[column][rows[0]]
    with pytest.raises(AnalysisError):
        rescale_series(flat, T_obs, rows)


def test_rescale_needs_three_picks(htab):
    with pytest.raises(TooFewSamples):
        rescale_series(*htab, pick_blowup_sequence(*htab)[:2])


# ---------------------------------------------------------------------------
# rescaling


def test_rescaled_normalization_exact(htab, ptab):
    for tab in (htab, ptab):
        for table in rescale_series(*tab, pick_blowup_sequence(*tab)):
            assert np.count_nonzero(table["s"] == 0.0) == 1
            assert table["rm"][_zero(table)] == 1.0


def test_rescaling_laws_exact(hrun, htab):
    # pure algebra against the recorded diagnostics: sectional blocks
    # and the sup carry 1/K, the A-norm square carries 1/K, the gradient
    # is invariant, the area carries K
    rows = pick_blowup_sequence(*htab)
    diag = hrun.diagnostics
    for row, table in zip(rows, rescale_series(*htab, rows)):
        kk = diag["rm_sup"][row]
        z = _zero(table)
        t0 = diag["t"][row] + table["s"][z] / kk
        d0 = {name: col[list(diag["t"]).index(t0)]
              for name, col in diag.items()}
        assert table["rm"][z] * kk == pytest.approx(d0["rm_sup"], rel=1e-14)
        assert table["a_sq"][z] * kk == pytest.approx(d0["a_sq_sup"],
                                                      rel=1e-14)
        assert table["horiz"][z] * kk == pytest.approx(d0["horiz_sup"],
                                                       rel=1e-14)
        assert table["fiber_area"][z] / kk == pytest.approx(d0["fiber_area"],
                                                            rel=1e-14)
        assert table["grad_ln_sq"][z] == d0["grad_ln_sq_sup"]


def test_window_shapes(hrun, htab):
    diag, T_obs = htab
    rows = pick_blowup_sequence(*htab)
    for row, table in zip(rows, rescale_series(*htab, rows)):
        t, kk = diag["t"][row], diag["rm_sup"][row]
        beta = min(t * kk, WINDOW_CAP)
        alpha = min((T_obs - t) * kk * 0.9, WINDOW_CAP)
        assert table["s"][0] >= -beta - 1e-9
        assert table["s"][-1] <= alpha + 1e-9
        assert table["s"].size >= 2


def test_window_out_of_range(htab, monkeypatch):
    diag, T_obs = htab
    rows = pick_blowup_sequence(*htab)
    # the third pick does not precede this earlier stop time
    with pytest.raises(WindowOutOfRange):
        rescale_series(diag, diag["t"][rows[2]], rows)
    # an uncapped first window reaches back before the first stored row
    late = {name: col[rows[0]:] for name, col in diag.items()}
    monkeypatch.setattr(singularity_analyzer, "WINDOW_CAP", 1e9)
    with pytest.raises(WindowOutOfRange):
        rescale_series(late, T_obs, rows - rows[0])


# ---------------------------------------------------------------------------
# type classification


def test_classify_hirzebruch_bounded(htab):
    rep = classify_type(*htab)
    assert rep["classification"] == "TypeI"
    assert rep["plateau_value"] == pytest.approx(2.0, rel=0.05)
    assert rep["trend_slope"] <= 0.025
    assert rep["burst"] <= 1.25


def test_classify_product_plateau(ptab):
    rep = classify_type(*ptab)
    assert rep["classification"] == "TypeI"
    assert rep["plateau_value"] == pytest.approx(2.0, rel=0.02)
    assert rep["burst"] <= 1.01


def test_classify_synthetic_type_two():
    t, s, T = synthetic_power_series(1.3)
    rep = classify_sup_series(t, s, T)
    assert rep["classification"] == "TypeII"
    assert rep["trend_slope"] == pytest.approx(0.3, abs=0.01)


def test_classify_synthetic_margins():
    t, s, T = synthetic_power_series(1.0)
    assert classify_sup_series(t, s, T)["classification"] == "TypeI"
    rep = classify_sup_series(*synthetic_power_series(1.2))
    assert rep["classification"] == "TypeII"
    diverging = rep["thresholds"]["slope_diverging"]
    assert rep["trend_slope"] >= 2.0 * diverging - 1e-6


def test_classify_needs_samples():
    with pytest.raises(TooFewSamples):
        classify_sup_series(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 0.5)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.85, 1.05))
def test_classifier_bounded_band(alpha):
    rep = classify_sup_series(*synthetic_power_series(alpha))
    assert rep["classification"] == "TypeI"


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(1.2, 2.5))
def test_classifier_diverging_band(alpha):
    rep = classify_sup_series(*synthetic_power_series(alpha))
    assert rep["classification"] == "TypeII"


# ---------------------------------------------------------------------------
# splitting report


def _splitting(tab, mode="typeI_max_curvature"):
    """The splitting report of a table's picks and their rescaled tables."""
    rows = pick_blowup_sequence(*tab, mode)
    tables = rescale_series(*tab, rows)
    return splitting_report(tab[0]["rm_sup"][rows], tables, mode), tables


def test_splitting_hirzebruch(htab):
    rep, _ = _splitting(htab)
    assert rep["a_decay_exponent"] == pytest.approx(-1.0, abs=0.1)
    assert not rep["a_identically_zero"]
    assert rep["horiz_decay_exponent"] == pytest.approx(-1.0, abs=0.1)
    assert rep["horiz_final"] <= 0.01
    assert rep["rescaled_mixed_max"] <= 0.05
    assert rep["fiber_final"] == pytest.approx(FIBER_LIMIT_TARGET, rel=0.02)
    assert rep["splits"]
    assert rep["verdict"].startswith("splitting")


def test_splitting_product_exact(ptab):
    rep, tables = _splitting(ptab)
    assert rep["a_identically_zero"]
    assert rep["a_decay_exponent"] is None
    for table in tables:
        z = _zero(table)
        assert table["k_v"][z] * table["fiber_area"][z] == pytest.approx(
            FIBER_LIMIT_TARGET, rel=1e-12)
    assert rep["horiz_final"] <= 0.05
    assert rep["splits"]


def _constant_a_tables(run):
    ks = [10.0, 20.0, 40.0, 80.0]
    one = np.array([1.0])
    tables = [{
        "s": np.array([0.0]), "rm": one,
        "k_v": np.array([2.0 / run.T_observed]),
        "a_sq": np.array([0.04]), "grad_ln_sq": one * 0.02,
        "horiz": np.array([0.001 * 10.0 / kk]), "mixed": one * 0.0,
        "fiber_area": np.array([FIBER_LIMIT_TARGET / (2.0 / run.T_observed)]),
        "roundness": one,
    } for kk in ks]
    return ks, tables


def test_splitting_negative_control(hrun):
    rep = splitting_report(*_constant_a_tables(hrun), "typeI_max_curvature")
    assert rep["a_decay_exponent"] == pytest.approx(0.0, abs=0.05)
    assert not rep["splits"]
    assert rep["verdict"].startswith("no-splitting")


# ---------------------------------------------------------------------------
# emission helpers


def test_rescaled_columns_shape(htab):
    for table in rescale_series(*htab, pick_blowup_sequence(*htab)):
        assert tuple(table) == RESCALED_COLUMNS
        for name in RESCALED_COLUMNS:
            assert table[name].shape == table["s"].shape


def test_report_objects_serializable(htab):
    rep = {"type": classify_type(*htab), "splitting": _splitting(htab)[0]}
    text = json.dumps(rep)
    back = json.loads(text)
    assert back == rep
    assert back["type"]["classification"] == "TypeI"
    assert back["splitting"]["splits"] is True
