"""Analyzer: picking, rescaling laws, classification, splitting report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberflow.calabi_flow import (
    HirzebruchParams,
    ProductParams,
    RunSettings,
    curvature_profiles,
    run_flow,
)
from fiberflow.harness_cli import diagnostics_table
from fiberflow.singularity_analyzer import (
    FIBER_LIMIT_TARGET,
    RESCALED_COLUMNS,
    AnalysisError,
    BlowupPick,
    BlowupSequence,
    RescaledPick,
    RescaledSeries,
    TooFewSamples,
    WindowOutOfRange,
    _horizon_ladder,
    analysis_report,
    classify_sup_series,
    classify_type,
    pick_blowup_sequence,
    rescale_series,
    rescaled_csv_rows,
    splitting_report,
    synthetic_power_series,
)


@pytest.fixture(scope="module")
def hrun():
    return run_flow(HirzebruchParams(), RunSettings())


@pytest.fixture(scope="module")
def prun():
    return run_flow(ProductParams(), RunSettings())


def _table(run):
    """The analyzer's input: the run's diagnostics table and stop time."""
    return diagnostics_table(run), run.T_observed


@pytest.fixture(scope="module")
def htab(hrun):
    return _table(hrun)


@pytest.fixture(scope="module")
def ptab(prun):
    return _table(prun)


# ---------------------------------------------------------------------------
# point picking


def test_typeI_picks_monotone_and_late(hrun, htab):
    seq = pick_blowup_sequence(*htab)
    assert seq.mode == "typeI_max_curvature"
    ks = [p.curvature for p in seq.picks]
    ts = [p.t for p in seq.picks]
    assert len(ks) >= 3
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert hrun.T_observed - ts[-1] <= 0.01 * hrun.T_observed


def test_typeI_pick_is_spatial_max(hrun, htab):
    seq = pick_blowup_sequence(*htab)
    ts = [s.t for s in hrun.states]
    for p in seq.picks:
        prof = curvature_profiles(hrun.states[ts.index(p.t)], hrun.params)
        assert prof.rm[p.node] == p.curvature
        assert np.max(prof.rm) == p.curvature
        assert np.all(prof.rm ** 2 / p.curvature ** 2 <= 1.0 + 1e-15)


def test_picks_sit_where_fiber_smallest(hrun, htab):
    # direct-scan oracle: the curvature max lives at the edge of the
    # supported region, where v is within a hair of the support cutoff
    seq = pick_blowup_sequence(*htab)
    ts = [s.t for s in hrun.states]
    for p in seq.picks:
        prof = curvature_profiles(hrun.states[ts.index(p.t)], hrun.params)
        assert prof.supp[p.node]
        assert prof.v[p.node] <= 2e-3 * np.max(prof.v)


def test_typeII_picks_satisfy_normalization(hrun, htab):
    seq = pick_blowup_sequence(*htab, "typeII_supremum")
    ks = [p.curvature for p in seq.picks]
    assert len(ks) >= 3
    assert all(b > a for a, b in zip(ks, ks[1:]))
    ts = [s.t for s in hrun.states]
    for p in seq.picks:
        prof = curvature_profiles(hrun.states[ts.index(p.t)], hrun.params)
        assert np.all(prof.rm ** 2 <= p.curvature ** 2 * (1.0 + 1e-15))
        assert prof.rm[p.node] == p.curvature


def test_typeII_picks_are_the_window_maximizers(htab):
    # loop reference: the first row maximizing (T_i - t) * rm_sup in each
    # window between consecutive horizons, kept while K_i increases
    diag, T_obs = htab
    keep = diag["t"] < T_obs
    ts, rm, nodes = diag["t"][keep], diag["rm_sup"][keep], diag["node"][keep]
    horizons = _horizon_ladder(T_obs - ts, 9, 1.0)
    want = []
    for lo, hi in zip(horizons, horizons[1:]):
        best, best_val = None, -np.inf
        for j in range(lo + 1, hi + 1):
            if (ts[hi] - ts[j]) * rm[j] > best_val:
                best, best_val = j, (ts[hi] - ts[j]) * rm[j]
        if not want or rm[best] > rm[want[-1]]:
            want.append(best)
    seq = pick_blowup_sequence(*htab, "typeII_supremum")
    assert [(p.node, p.t, p.curvature) for p in seq.picks] == [
        (nodes[j], ts[j], rm[j]) for j in want]


@pytest.mark.parametrize("mode", ["typeI_max_curvature", "typeII_supremum"])
def test_picks_use_the_run_support_threshold(mode):
    # each pick reads the support mask of the recorded diagnostics row at
    # its time, so its node and curvature are that row's argmax and max
    run = run_flow(HirzebruchParams(), RunSettings(support_threshold=0.05))
    rows = {d.t: d for d in run.diagnostics}
    seq = pick_blowup_sequence(*_table(run), mode)
    for p in seq.picks:
        assert (p.node, p.curvature) == (rows[p.t].node, rows[p.t].rm_sup)
    for rp in rescale_series(*_table(run), seq).picks:
        assert rp.rm[rp.zero_index] == 1.0


def test_product_picks_match_closed_form(ptab):
    seq = pick_blowup_sequence(*ptab)
    for p in seq.picks:
        assert p.node == 0
        assert p.curvature == pytest.approx(4.0 / (1.0 - 2.0 * p.t), rel=1e-3)


def test_downsampled_run_keeps_picks_monotone():
    run = run_flow(HirzebruchParams(), RunSettings(record_stride=2))
    ks = [p.curvature for p in pick_blowup_sequence(*_table(run)).picks]
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


def test_sequence_validation_rejects_flat_curvature():
    picks = [BlowupPick(0, 0.1, 5.0), BlowupPick(0, 0.2, 5.0),
             BlowupPick(0, 0.3, 6.0)]
    with pytest.raises(AnalysisError):
        BlowupSequence(picks=picks, mode="typeI_max_curvature").validate()


# ---------------------------------------------------------------------------
# rescaling


def test_rescaled_normalization_exact(htab, ptab):
    for tab in (htab, ptab):
        rs = rescale_series(*tab, pick_blowup_sequence(*tab))
        for rp in rs.picks:
            assert rp.rm[rp.zero_index] == 1.0
            assert rp.s[rp.zero_index] == 0.0


def test_rescaling_laws_exact(hrun, htab):
    # pure algebra against the recorded diagnostics: sectional blocks
    # and the sup carry 1/K, the A-norm square carries 1/K, the gradient
    # is invariant, the area carries K
    rs = rescale_series(*htab, pick_blowup_sequence(*htab))
    ts = [d.t for d in hrun.diagnostics]
    for rp in rs.picks:
        kk = rp.pick.curvature
        rows = [hrun.diagnostics[ts.index(rp.pick.t + s / kk)]
                for s in [rp.s[rp.zero_index]]]
        d0 = rows[0]
        z = rp.zero_index
        assert rp.rm[z] * kk == pytest.approx(d0.rm_sup, rel=1e-14)
        assert rp.a_sq[z] * kk == pytest.approx(d0.a_sq_sup, rel=1e-14)
        assert rp.horiz[z] * kk == pytest.approx(d0.horiz_sup, rel=1e-14)
        assert rp.fiber_area[z] / kk == pytest.approx(d0.fiber_area,
                                                      rel=1e-14)
        assert rp.grad_ln_sq[z] == d0.grad_ln_sq_sup


def test_window_shapes(hrun, htab):
    rs = rescale_series(*htab, pick_blowup_sequence(*htab), window_cap=50.0)
    for rp in rs.picks:
        kk = rp.pick.curvature
        assert rp.beta == pytest.approx(min(rp.pick.t * kk, 50.0))
        assert rp.alpha == pytest.approx(
            min((hrun.T_observed - rp.pick.t) * kk * 0.9, 50.0))
        assert rp.s[0] >= -rp.beta - 1e-9
        assert rp.s[-1] <= rp.alpha + 1e-9
        assert rp.s.size >= 2


def test_window_out_of_range(htab):
    good = pick_blowup_sequence(*htab).picks
    beyond = BlowupSequence(
        picks=[good[0], good[1],
               BlowupPick(good[2].node, 0.6, good[2].curvature * 2)],
        mode="typeI_max_curvature")
    with pytest.raises(WindowOutOfRange):
        rescale_series(*htab, beyond)
    unrecorded = BlowupSequence(
        picks=[good[0], good[1],
               BlowupPick(good[2].node, (good[1].t + good[2].t) / 2.0,
                          good[2].curvature)],
        mode="typeI_max_curvature")
    with pytest.raises(WindowOutOfRange):
        rescale_series(*htab, unrecorded)


# ---------------------------------------------------------------------------
# type classification


def test_classify_hirzebruch_bounded(htab):
    rep = classify_type(*htab)
    assert rep.classification == "TypeI"
    assert rep.plateau_value == pytest.approx(2.0, rel=0.05)
    assert rep.trend_slope <= 0.025
    assert rep.burst <= 1.25


def test_classify_product_plateau(ptab):
    rep = classify_type(*ptab)
    assert rep.classification == "TypeI"
    assert rep.plateau_value == pytest.approx(2.0, rel=0.02)
    assert rep.burst <= 1.01


def test_classify_synthetic_type_two():
    t, s, T = synthetic_power_series(1.3)
    rep = classify_sup_series(t, s, T)
    assert rep.classification == "TypeII"
    assert rep.trend_slope == pytest.approx(0.3, abs=0.01)


def test_classify_synthetic_margins():
    t, s, T = synthetic_power_series(1.0)
    assert classify_sup_series(t, s, T).classification == "TypeI"
    rep = classify_sup_series(*synthetic_power_series(1.2))
    assert rep.classification == "TypeII"
    assert rep.trend_slope >= 2.0 * rep.slope_diverging - 1e-6


def test_classify_needs_samples():
    with pytest.raises(TooFewSamples):
        classify_sup_series(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 0.5)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.85, 1.05))
def test_classifier_bounded_band(alpha):
    rep = classify_sup_series(*synthetic_power_series(alpha))
    assert rep.classification == "TypeI"


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(1.2, 2.5))
def test_classifier_diverging_band(alpha):
    rep = classify_sup_series(*synthetic_power_series(alpha))
    assert rep.classification == "TypeII"


# ---------------------------------------------------------------------------
# splitting report


def test_splitting_hirzebruch(htab):
    rs = rescale_series(*htab, pick_blowup_sequence(*htab))
    rep = splitting_report(rs)
    assert rep.a_decay_exponent == pytest.approx(-1.0, abs=0.1)
    assert not rep.a_identically_zero
    assert rep.horiz_decay_exponent == pytest.approx(-1.0, abs=0.1)
    assert rep.horiz_final <= 0.01
    assert rep.rescaled_mixed_max <= 0.05
    assert rep.fiber_final == pytest.approx(FIBER_LIMIT_TARGET, rel=0.02)
    assert rep.splits
    assert rep.verdict.startswith("splitting")


def test_splitting_product_exact(ptab):
    rs = rescale_series(*ptab, pick_blowup_sequence(*ptab))
    rep = splitting_report(rs)
    assert rep.a_identically_zero
    assert np.isnan(rep.a_decay_exponent)
    assert np.all(rep.fiber_products == pytest.approx(FIBER_LIMIT_TARGET,
                                                      rel=1e-12))
    assert rep.horiz_final <= 0.05
    assert rep.splits


def _constant_a_series(run):
    picks = []
    for kk in (10.0, 20.0, 40.0, 80.0):
        p = BlowupPick(node=0, t=0.1, curvature=kk)
        one = np.array([1.0])
        picks.append(RescaledPick(
            pick=p, alpha=1.0, beta=1.0, s=np.array([0.0]),
            rm=one, k_v=np.array([2.0 / run.T_observed]),
            a_sq=np.array([0.04]), grad_ln_sq=one * 0.02,
            horiz=np.array([0.001 * 10.0 / kk]), mixed=one * 0.0,
            fiber_area=np.array([FIBER_LIMIT_TARGET
                                 / (2.0 / run.T_observed)]),
            roundness=one, zero_index=0))
    return RescaledSeries(mode="typeI_max_curvature",
                          T_observed=run.T_observed, picks=picks)


def test_splitting_negative_control(hrun):
    rep = splitting_report(_constant_a_series(hrun))
    assert rep.a_decay_exponent == pytest.approx(0.0, abs=0.05)
    assert not rep.splits
    assert rep.verdict.startswith("no-splitting")


# ---------------------------------------------------------------------------
# emission helpers


def test_rescaled_csv_rows_shape(htab):
    rs = rescale_series(*htab, pick_blowup_sequence(*htab))
    rows = rescaled_csv_rows(rs.picks[0])
    assert len(rows) == rs.picks[0].s.size
    assert all(len(r) == len(RESCALED_COLUMNS) for r in rows)


def test_analysis_report_serializable(htab):
    rs = rescale_series(*htab, pick_blowup_sequence(*htab))
    rep = analysis_report(classify_type(*htab), splitting_report(rs))
    text = json.dumps(rep)
    back = json.loads(text)
    assert back["type"]["classification"] == "TypeI"
    assert back["splitting"]["splits"] is True
