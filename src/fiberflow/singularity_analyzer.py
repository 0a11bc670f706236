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

from dataclasses import dataclass

import numpy as np

# curvature_profiles has no caller here; perfbench/tracing.py counts calls
from .calabi_flow import curvature_profiles, loglog_slope

FIBER_LIMIT_TARGET = 4.0 * np.pi

PICK_MODES = ("typeI_max_curvature", "typeII_supremum")


class AnalysisError(Exception):
    """Base for analyzer failures."""


class TooFewSamples(AnalysisError):
    """Recorded series too sparse to build a qualifying pick sequence."""


class WindowOutOfRange(AnalysisError):
    """A pick's rescaled time window leaves the recorded run."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BlowupPick:
    node: int
    t: float
    curvature: float


@dataclass(frozen=True)
class BlowupSequence:
    picks: list[BlowupPick]
    mode: str

    def validate(self) -> None:
        if self.mode not in PICK_MODES:
            raise AnalysisError(f"unknown pick mode {self.mode!r}")
        ks = [p.curvature for p in self.picks]
        if len(ks) < 3:
            raise TooFewSamples(f"{len(ks)} picks, need at least 3")
        if not all(b > a for a, b in zip(ks, ks[1:])):
            raise AnalysisError("pick curvatures must increase strictly")
        ts = [p.t for p in self.picks]
        if not all(b > a for a, b in zip(ts, ts[1:])):
            raise AnalysisError("pick times must increase strictly")


@dataclass(frozen=True)
class RescaledPick:
    """Diagnostic series of one pick under g_i(s) = K_i g(t_i + s/K_i).

    Sectional blocks and the curvature sup carry 1/K_i, the squared
    A-norm carries 1/K_i, |grad ln f|^2 is scale invariant, and the
    fiber area carries K_i.  zero_index marks the sample at s = 0.
    """

    pick: BlowupPick
    alpha: float
    beta: float
    s: np.ndarray
    rm: np.ndarray
    k_v: np.ndarray
    a_sq: np.ndarray
    grad_ln_sq: np.ndarray
    horiz: np.ndarray
    mixed: np.ndarray
    fiber_area: np.ndarray
    roundness: np.ndarray
    zero_index: int


@dataclass(frozen=True)
class RescaledSeries:
    mode: str
    T_observed: float
    picks: list[RescaledPick]


@dataclass(frozen=True)
class TypeReport:
    times: np.ndarray
    sup_series: np.ndarray
    tail_times: np.ndarray
    tail_values: np.ndarray
    classification: str
    plateau_value: float
    trend_slope: float
    burst: float
    slope_bounded: float
    slope_diverging: float
    burst_cap: float

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "plateau_value": self.plateau_value,
            "trend_slope": self.trend_slope,
            "burst": self.burst,
            "tail_samples": int(self.tail_times.size),
            "thresholds": {
                "slope_bounded": self.slope_bounded,
                "slope_diverging": self.slope_diverging,
                "burst_cap": self.burst_cap,
            },
        }


@dataclass(frozen=True)
class SplittingReport:
    mode: str
    curvatures: np.ndarray
    rescaled_a_norm: np.ndarray
    rescaled_a_sq: np.ndarray
    a_decay_exponent: float
    a_identically_zero: bool
    rescaled_horiz: np.ndarray
    horiz_decay_exponent: float
    horiz_final: float
    rescaled_mixed_max: float
    fiber_products: np.ndarray
    fiber_final: float
    fiber_target: float
    splits: bool
    verdict: str

    def to_dict(self) -> dict:
        a_exp = self.a_decay_exponent
        return {
            "mode": self.mode,
            "curvatures": [float(x) for x in self.curvatures],
            "rescaled_a_norm": [float(x) for x in self.rescaled_a_norm],
            "a_decay_exponent": None if np.isnan(a_exp) else a_exp,
            "a_identically_zero": self.a_identically_zero,
            "rescaled_horiz": [float(x) for x in self.rescaled_horiz],
            "horiz_decay_exponent": self.horiz_decay_exponent,
            "horiz_final": self.horiz_final,
            "rescaled_mixed_max": self.rescaled_mixed_max,
            "fiber_final": self.fiber_final,
            "fiber_target": self.fiber_target,
            "splits": self.splits,
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# point picking


def _horizon_ladder(rem: np.ndarray, max_picks: int,
                    span_decades: float) -> list[int]:
    """Recorded indices whose remaining time descends a log ladder.

    The ladder lives in the last span_decades decades of remaining time,
    where the curvature growth is resolved and the sup is attained on
    well-supported nodes.
    """
    targets = rem[-1] * np.logspace(span_decades, 0.0, max_picks)
    idxs: list[int] = []
    for tgt in targets:
        j = int(np.searchsorted(-rem, -tgt))
        if j < rem.size and (not idxs or j > idxs[-1]):
            idxs.append(j)
    return idxs


def pick_blowup_sequence(diag: dict[str, np.ndarray], T_observed: float,
                         mode: str = "typeI_max_curvature",
                         max_picks: int = 8,
                         span_decades: float = 1.0) -> BlowupSequence:
    """High-curvature picks (x_i, t_i, K_i) with strictly increasing K_i.

    Each pick is a diagnostics row: x_i, t_i and K_i are its `node`, `t`
    and `rm_sup`.

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
    keep = diag["t"] < T_observed
    ts, nodes, rm = diag["t"][keep], diag["node"][keep], diag["rm_sup"][keep]
    rem = T_observed - ts
    if ts.size < 3:
        raise TooFewSamples("run recorded fewer than 3 usable samples")

    def row(j: int) -> BlowupPick:
        return BlowupPick(node=int(nodes[j]), t=float(ts[j]),
                          curvature=float(rm[j]))

    if mode == "typeI_max_curvature":
        raw = [row(j) for j in _horizon_ladder(rem, max_picks, span_decades)]
    else:
        horizons = _horizon_ladder(rem, max_picks + 1, span_decades)
        # the first maximizer of (T_i - t) * K over each window
        raw = [row(lo + 1 + int(np.argmax((ts[hi] - ts[lo + 1:hi + 1])
                                          * rm[lo + 1:hi + 1])))
               for lo, hi in zip(horizons, horizons[1:])]

    picks: list[BlowupPick] = []
    for p in raw:
        if picks and p.curvature <= picks[-1].curvature:
            continue
        picks.append(p)
    if len(picks) < 3:
        raise TooFewSamples(
            f"only {len(picks)} qualifying picks in the recorded series")
    seq = BlowupSequence(picks=picks, mode=mode)
    seq.validate()
    return seq


# ---------------------------------------------------------------------------
# parabolic rescaling


def rescale_series(diag: dict[str, np.ndarray], T_observed: float,
                   seq: BlowupSequence,
                   window_cap: float = 50.0) -> RescaledSeries:
    """Recorded diagnostics under the dilated metrics g_i.

    Window per pick: rescaled time s in [-beta_i, alpha_i] with
    beta_i = min(t_i K_i, cap) and alpha_i = min((T_obs - t_i) K_i * 0.9,
    cap), so the window always sits inside [0, T_observed) for picks
    taken from the run itself.  Raises WindowOutOfRange for picks that
    are not recorded times or whose window leaves the run.
    """
    seq.validate()
    ts = diag["t"]
    out: list[RescaledPick] = []
    for p in seq.picks:
        kk = p.curvature
        if kk <= 0.0 or p.t >= T_observed:
            raise WindowOutOfRange(
                f"pick at t={p.t} does not precede the singular time")
        if p.t not in ts:
            raise WindowOutOfRange(f"pick time {p.t} is not a recorded time")
        beta = min(p.t * kk, window_cap)
        alpha = min((T_observed - p.t) * kk * 0.9, window_cap)
        lo, hi = p.t - beta / kk, p.t + alpha / kk
        if lo < ts[0] - 1e-12 or hi > T_observed + 1e-12:
            raise WindowOutOfRange(
                f"window [{lo}, {hi}] leaves the recorded run")
        sel = np.flatnonzero((ts >= lo - 1e-15) & (ts <= hi + 1e-15))
        out.append(RescaledPick(
            pick=p, alpha=float(alpha), beta=float(beta),
            s=(ts[sel] - p.t) * kk,
            rm=diag["rm_sup"][sel] / kk,
            k_v=diag["k_v_max"][sel] / kk,
            a_sq=diag["a_sq_sup"][sel] / kk,
            grad_ln_sq=diag["grad_ln_sq_sup"][sel],
            horiz=diag["horiz_sup"][sel] / kk,
            mixed=diag["mixed_sup"][sel] / kk,
            fiber_area=diag["fiber_area"][sel] * kk,
            roundness=diag["roundness"][sel],
            zero_index=int(np.flatnonzero(ts[sel] == p.t)[0]),
        ))
    return RescaledSeries(mode=seq.mode, T_observed=T_observed, picks=out)


# ---------------------------------------------------------------------------
# type classification


def classify_sup_series(times: np.ndarray, rm_sup: np.ndarray,
                        T_observed: float,
                        slope_bounded: float = 0.05,
                        slope_diverging: float = 0.10,
                        burst_cap: float = 1.5) -> TypeReport:
    """Decide bounded vs diverging (T - t) * max|Rm| from its tail.

    The tail is the last decade of remaining time.  trend_slope is the
    log-log growth rate of the tail toward the singular time (positive
    means diverging); burst is its max over its median.  Bounded needs
    both a flat trend and no burst; diverging needs a clearly positive
    trend.  Thresholds leave >= 2x margin for the closed-form oracles.
    """
    times = np.asarray(times, dtype=float)
    rm_sup = np.asarray(rm_sup, dtype=float)
    rem = T_observed - times
    ok = (rem > 0.0) & (rm_sup > 0.0)
    times, rem, rm_sup = times[ok], rem[ok], rm_sup[ok]
    if times.size < 4:
        raise TooFewSamples("need at least 4 samples before the stop time")
    vals = rem * rm_sup

    tail = rem <= rem[-1] * 10.0
    if tail.sum() < 4:
        tail = np.zeros_like(tail)
        tail[-4:] = True
    tv, tr = vals[tail], rem[tail]
    plateau = float(np.median(tv))
    burst = float(np.max(tv) / plateau)
    trend = -float(np.polyfit(np.log(tr), np.log(tv), 1)[0])

    if trend >= slope_diverging:
        cls = "TypeII"
    elif trend <= slope_bounded and burst <= burst_cap:
        cls = "TypeI"
    else:
        cls = "Inconclusive"
    return TypeReport(
        times=times, sup_series=vals, tail_times=times[tail],
        tail_values=tv, classification=cls, plateau_value=plateau,
        trend_slope=trend, burst=burst, slope_bounded=slope_bounded,
        slope_diverging=slope_diverging, burst_cap=burst_cap)


def classify_type(diag: dict[str, np.ndarray], T_observed: float,
                  **thresholds) -> TypeReport:
    return classify_sup_series(diag["t"], diag["rm_sup"], T_observed,
                               **thresholds)


def synthetic_power_series(alpha: float, T: float = 0.5,
                           samples: int = 200, rem_start: float = 0.45,
                           rem_stop: float = 1e-4, amplitude: float = 1.0
                           ) -> tuple[np.ndarray, np.ndarray, float]:
    """Curvature sup growing like (T - t)^-alpha; classifier test input."""
    rem = np.logspace(np.log10(rem_start), np.log10(rem_stop), samples)
    return T - rem, amplitude * rem ** (-alpha), T


# ---------------------------------------------------------------------------
# splitting report


def splitting_report(rs: RescaledSeries, a_exponent_tol: float = 0.25,
                     horiz_tol: float = 0.05,
                     fiber_tol: float = 0.05) -> SplittingReport:
    """Certify the measurable precursors of the collapsed-fiber limit.

    (i) the rescaled A-norm dies like 1/K_i (exponent -1 against K_i),
    or vanishes identically in the product regime; (ii) the rescaled
    horizontal sectional max goes to zero; (iii) the rescaled mixed
    vertical-horizontal block stays near zero throughout; (iv) the
    fiber curvature-area product holds the round value 4*pi, so the
    fiber factor is the round sphere.
    """
    ks = np.array([rp.pick.curvature for rp in rs.picks])
    a_sq0 = np.array([rp.a_sq[rp.zero_index] for rp in rs.picks])
    horiz0 = np.array([rp.horiz[rp.zero_index] for rp in rs.picks])
    mixed_max = float(max(np.max(np.abs(rp.mixed)) for rp in rs.picks))
    fiber = np.array([rp.k_v[rp.zero_index] * rp.fiber_area[rp.zero_index]
                      for rp in rs.picks])

    a_zero = bool(np.max(np.abs(a_sq0)) == 0.0)
    a_norm0 = np.sqrt(np.maximum(a_sq0, 0.0))
    if a_zero:
        a_exp = float("nan")
    else:
        a_exp = loglog_slope(ks, a_norm0)

    horiz_exp = loglog_slope(ks, horiz0) if np.all(horiz0 > 0.0) else 0.0
    horiz_final = float(horiz0[-1])
    fiber_final = float(fiber[-1])

    a_ok = a_zero or abs(a_exp + 1.0) <= a_exponent_tol
    horiz_ok = horiz_final <= horiz_tol
    fiber_ok = abs(fiber_final / FIBER_LIMIT_TARGET - 1.0) <= fiber_tol
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

    return SplittingReport(
        mode=rs.mode, curvatures=ks, rescaled_a_norm=a_norm0,
        rescaled_a_sq=a_sq0, a_decay_exponent=a_exp,
        a_identically_zero=a_zero, rescaled_horiz=horiz0,
        horiz_decay_exponent=horiz_exp, horiz_final=horiz_final,
        rescaled_mixed_max=mixed_max, fiber_products=fiber,
        fiber_final=fiber_final, fiber_target=FIBER_LIMIT_TARGET,
        splits=splits, verdict=verdict)


# ---------------------------------------------------------------------------
# emission helpers (file writing stays in the harness)


RESCALED_COLUMNS = ("s", "rm", "k_v", "a_sq", "grad_ln_sq", "horiz",
                    "mixed", "fiber_area", "roundness")


def rescaled_csv_rows(rp: RescaledPick) -> list[tuple[float, ...]]:
    cols = [getattr(rp, name) for name in RESCALED_COLUMNS]
    return [tuple(float(c[i]) for c in cols) for i in range(rp.s.size)]


def analysis_report(type_report: TypeReport,
                    split_report: SplittingReport | None) -> dict:
    out = {"type": type_report.to_dict()}
    if split_report is not None:
        out["splitting"] = split_report.to_dict()
    return out
