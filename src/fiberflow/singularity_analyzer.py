"""Blow-up analysis over the diagnostics table of a recorded flow run.

Post-processing only: point picking at high-curvature space-time nodes,
parabolic rescaling of the recorded diagnostic series, bounded-tail
type classification, and the splitting report that certifies the
collapsed-fiber limit (A-tensor decay, horizontal flatness, round-fiber
area-curvature product).

The input is the run's diagnostics table, the columns of
`diagnostics.csv` as float arrays keyed by column name, with the run's
observed stop time T_observed.  `fiberflow run` builds the table from
the rows it writes and `fiberflow check` reads it back from the file, so
both analyse the same numbers.  Nothing is re-simulated and no profile
is re-evaluated: each row's `node` and `rm_sup` are the spatial argmax
and max of |Rm| over the supported grid nodes, so the continuum
supremum behind the picking is taken over recorded nodes and recorded
steps, and recording density is part of the measurement contract.
"""

from __future__ import annotations

import numpy as np

# curvature_profiles has no caller here; perfbench/tracing.py counts calls
from .calabi_flow import curvature_profiles, loglog_slope

FIBER_LIMIT_TARGET = 4.0 * np.pi
# splitting_report's gates: |A-norm exponent + 1|, the final rescaled
# horizontal max, and the fiber product's relative distance from the target
A_EXPONENT_TOL = 0.25
HORIZ_TOL = 0.05
FIBER_TOL = 0.05

PICK_MODES = ("typeI_max_curvature", "typeII_supremum")
# classify_sup_series reads at least MIN_SAMPLES samples before the stop
# time, and fits its trend to at least as many; parse_config refuses a
# config whose step rule leaves a run fewer states
MIN_SAMPLES = 4

# Analysis constants, read when used so that a test can monkeypatch one.
# The pick ladder spans the last SPAN_DECADES decades of remaining time;
# a rescaled window reaches at most WINDOW_CAP either side of its pick.
SPAN_DECADES = 1.0
WINDOW_CAP = 50.0
# classify_sup_series's gates: a trend slope at or above SLOPE_DIVERGING
# is TypeII; one at or below SLOPE_BOUNDED with a burst of at most
# BURST_CAP is TypeI
SLOPE_BOUNDED = 0.05
SLOPE_DIVERGING = 0.10
BURST_CAP = 1.5


class AnalysisError(Exception):
    """Base for analyzer failures."""


class TooFewSamples(AnalysisError):
    """Recorded series too sparse to build a qualifying pick sequence."""


class WindowOutOfRange(AnalysisError):
    """A pick's rescaled time window leaves the recorded run."""


# ---------------------------------------------------------------------------
# point picking


def _horizon_ladder(rem: np.ndarray, max_picks: int) -> list[int]:
    """Recorded indices whose remaining time descends a log ladder.

    The ladder lives in the last SPAN_DECADES decades of remaining time,
    where the curvature growth is resolved and the sup is attained on
    well-supported nodes.
    """
    targets = rem[-1] * np.logspace(SPAN_DECADES, 0.0, max_picks)
    idxs: list[int] = []
    for tgt in targets:
        j = int(np.searchsorted(-rem, -tgt))
        if j < rem.size and (not idxs or j > idxs[-1]):
            idxs.append(j)
    return idxs


def pick_blowup_sequence(diag: dict[str, np.ndarray], T_observed: float,
                         mode: str = "typeI_max_curvature",
                         max_picks: int = 8) -> np.ndarray:
    """High-curvature picks (x_i, t_i, K_i) with strictly increasing K_i.

    Each pick is a diagnostics row: x_i, t_i and K_i are its `node`, `t`
    and `rm_sup`.  Returns the picked row indices of the table.

    typeI_max_curvature: K_i is the spatial curvature max at ladder
    times approaching the stop time.

    typeII_supremum: within the window between consecutive ladder
    horizons T_{i-1} < t <= T_i, maximize (T_i - t) * |Rm|(x, t) over
    recorded space-time.  The continuum version takes the supremum over
    all of [0, T_i]; on bounded-curvature data that maximizer never
    advances, so the windowed form is the finite-data adaptation.  The
    spatial factor is constant at fixed t, hence each pick still sits at
    the spatial max of its own slice and K_i^-2 |Rm|^2 <= 1 holds over
    the slice with equality at x_i.
    """
    if mode not in PICK_MODES:
        raise AnalysisError(f"unknown pick mode {mode!r}")
    keep = np.flatnonzero(diag["t"] < T_observed)
    ts, rm = diag["t"][keep], diag["rm_sup"][keep]
    rem = T_observed - ts
    if ts.size < 3:
        raise TooFewSamples("run recorded fewer than 3 usable samples")

    if mode == "typeI_max_curvature":
        raw = _horizon_ladder(rem, max_picks)
    else:
        horizons = _horizon_ladder(rem, max_picks + 1)
        # the first maximizer of (T_i - t) * K over each window
        raw = [lo + 1 + int(np.argmax((ts[hi] - ts[lo + 1:hi + 1])
                                      * rm[lo + 1:hi + 1]))
               for lo, hi in zip(horizons, horizons[1:])]

    picks: list[int] = []
    for j in raw:
        if picks and rm[j] <= rm[picks[-1]]:
            continue
        picks.append(j)
    if len(picks) < 3:
        raise TooFewSamples(
            f"only {len(picks)} qualifying picks in the recorded series")
    return keep[picks]


# ---------------------------------------------------------------------------
# parabolic rescaling


RESCALED_COLUMNS = ("s", "rm", "k_v", "a_sq", "grad_ln_sq", "horiz",
                    "mixed", "fiber_area", "roundness")


def rescale_series(diag: dict[str, np.ndarray], T_observed: float,
                   rows: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Recorded diagnostics under g_i(s) = K_i g(t_i + s/K_i), one column
    table per picked row, keyed in RESCALED_COLUMNS order.

    Sectional blocks and the curvature sup carry 1/K_i, the squared
    A-norm carries 1/K_i, |grad ln f|^2 is scale invariant, and the
    fiber area carries K_i.  The picked row sits at s = 0.

    Window per pick: rescaled time s in [-beta_i, alpha_i] with
    beta_i = min(t_i K_i, cap) and alpha_i = min((T_obs - t_i) K_i * 0.9,
    cap), cap = WINDOW_CAP, so the window always sits inside
    [0, T_observed) for picks taken from the run itself.  Raises
    WindowOutOfRange for picks whose window leaves the run.
    """
    ts, rm = diag["t"], diag["rm_sup"]
    if len(rows) < 3:
        raise TooFewSamples(f"{len(rows)} picks, need at least 3")
    if not np.all(np.diff([rm[rows], ts[rows]]) > 0.0):
        raise AnalysisError("pick curvatures and times must increase strictly")
    tables = []
    for t, kk in zip(ts[rows].tolist(), rm[rows].tolist()):
        if kk <= 0.0 or t >= T_observed:
            raise WindowOutOfRange(
                f"pick at t={t} does not precede the singular time")
        beta = min(t * kk, WINDOW_CAP)
        alpha = min((T_observed - t) * kk * 0.9, WINDOW_CAP)
        lo, hi = t - beta / kk, t + alpha / kk
        if lo < ts[0] - 1e-12 or hi > T_observed + 1e-12:
            raise WindowOutOfRange(
                f"window [{lo}, {hi}] leaves the recorded run")
        sel = np.flatnonzero((ts >= lo - 1e-15) & (ts <= hi + 1e-15))
        tables.append({
            "s": (ts[sel] - t) * kk,
            "rm": rm[sel] / kk,
            "k_v": diag["k_v_max"][sel] / kk,
            "a_sq": diag["a_sq_sup"][sel] / kk,
            "grad_ln_sq": diag["grad_ln_sq_sup"][sel],
            "horiz": diag["horiz_sup"][sel] / kk,
            "mixed": diag["mixed_sup"][sel] / kk,
            "fiber_area": diag["fiber_area"][sel] * kk,
            "roundness": diag["roundness"][sel],
        })
    return tables


# ---------------------------------------------------------------------------
# type classification


def classify_sup_series(times: np.ndarray, rm_sup: np.ndarray,
                        T_observed: float) -> dict:
    """Decide bounded vs diverging (T - t) * max|Rm| from its tail.

    The tail is the last decade of remaining time.  trend_slope is the
    log-log growth rate of the tail toward the singular time (positive
    means diverging); burst is its max over its median.  Bounded needs
    both a flat trend and no burst; diverging needs a clearly positive
    trend.  Thresholds leave >= 2x margin for the closed-form oracles.
    Returns the `type` object of `report.json`.
    """
    times = np.asarray(times, dtype=float)
    rm_sup = np.asarray(rm_sup, dtype=float)
    rem = T_observed - times
    ok = (rem > 0.0) & (rm_sup > 0.0)
    rem, rm_sup = rem[ok], rm_sup[ok]
    if rem.size < MIN_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_SAMPLES} samples before "
                            f"the stop time")
    vals = rem * rm_sup

    tail = rem <= rem[-1] * 10.0
    if tail.sum() < MIN_SAMPLES:
        tail = np.zeros_like(tail)
        tail[-MIN_SAMPLES:] = True
    tv, tr = vals[tail], rem[tail]
    # np.median's bits without its NaN check, which imports numpy.ma
    mid = np.sort(tv)[(tv.size - 1) // 2:tv.size // 2 + 1]
    plateau = float(np.mean(mid))
    burst = float(np.max(tv) / plateau)
    trend = -float(np.polyfit(np.log(tr), np.log(tv), 1)[0])

    if trend >= SLOPE_DIVERGING:
        cls = "TypeII"
    elif trend <= SLOPE_BOUNDED and burst <= BURST_CAP:
        cls = "TypeI"
    else:
        cls = "Inconclusive"
    return {
        "classification": cls,
        "plateau_value": plateau,
        "trend_slope": trend,
        "burst": burst,
        "tail_samples": tv.size,
        "thresholds": {"slope_bounded": SLOPE_BOUNDED,
                       "slope_diverging": SLOPE_DIVERGING,
                       "burst_cap": BURST_CAP},
    }


def classify_type(diag: dict[str, np.ndarray], T_observed: float) -> dict:
    return classify_sup_series(diag["t"], diag["rm_sup"], T_observed)


# ---------------------------------------------------------------------------
# splitting report


def splitting_report(curvatures: np.ndarray,
                     tables: list[dict[str, np.ndarray]], mode: str) -> dict:
    """Certify the measurable precursors of the collapsed-fiber limit.

    (i) the rescaled A-norm dies like 1/K_i (exponent -1 against K_i),
    or vanishes identically in the product regime; (ii) the rescaled
    horizontal sectional max goes to zero; (iii) the rescaled mixed
    vertical-horizontal block stays near zero throughout; (iv) the
    fiber curvature-area product holds the round value 4*pi, so the
    fiber factor is the round sphere.  `curvatures` are the picks' K_i
    and `tables` their `rescale_series` tables; returns the `splitting`
    object of `report.json`, whose `a_decay_exponent` is None when the
    A-tensor vanishes identically.
    """
    ks = np.asarray(curvatures, dtype=float)

    def at_zero(name: str) -> np.ndarray:
        """Each table's `name` value at s = 0, its picked row."""
        return np.array([tab[name][np.flatnonzero(tab["s"] == 0.0)[0]]
                         for tab in tables])

    a_sq0 = at_zero("a_sq")
    horiz0 = at_zero("horiz")
    mixed_max = float(max(np.max(np.abs(tab["mixed"])) for tab in tables))
    fiber = at_zero("k_v") * at_zero("fiber_area")

    a_zero = bool(np.max(np.abs(a_sq0)) == 0.0)
    a_norm0 = np.sqrt(np.maximum(a_sq0, 0.0))
    a_exp = None if a_zero else loglog_slope(ks, a_norm0)

    horiz_exp = loglog_slope(ks, horiz0) if np.all(horiz0 > 0.0) else 0.0
    horiz_final = float(horiz0[-1])
    fiber_final = float(fiber[-1])

    a_ok = a_zero or abs(a_exp + 1.0) <= A_EXPONENT_TOL
    horiz_ok = horiz_final <= HORIZ_TOL
    fiber_ok = abs(fiber_final / FIBER_LIMIT_TARGET - 1.0) <= FIBER_TOL
    splits = bool(a_ok and horiz_ok and fiber_ok)
    if splits:
        verdict = ("splitting: A-tensor vanishes identically" if a_zero
                   else "splitting: A-norm decays, horizontal flattens")
    else:
        reasons = []
        if not a_ok:
            reasons.append(f"A-norm exponent {a_exp:+.3f} != -1")
        if not horiz_ok:
            reasons.append(f"horizontal max {horiz_final:.3g} not small")
        if not fiber_ok:
            reasons.append("fiber area-curvature product off round value")
        verdict = "no-splitting: " + "; ".join(reasons)

    return {
        "mode": mode,
        "curvatures": ks.tolist(),
        "rescaled_a_norm": a_norm0.tolist(),
        "a_decay_exponent": a_exp,
        "a_identically_zero": a_zero,
        "rescaled_horiz": horiz0.tolist(),
        "horiz_decay_exponent": horiz_exp,
        "horiz_final": horiz_final,
        "rescaled_mixed_max": mixed_max,
        "fiber_final": fiber_final,
        "fiber_target": FIBER_LIMIT_TARGET,
        "splits": splits,
        "verdict": verdict,
    }
