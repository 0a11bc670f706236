"""Reduced collapse flow for rotationally symmetric fibered metrics.

The dilation profile f(rho, t) on a twisted line-bundle chart over a
Kahler-Einstein surface obeys the quasilinear equation

    df/dt = k (f_rr / f_r + n f_r / f) - R_h / n

with exponential tails f - k a(t) ~ e^rho on the left and k b(t) - f ~
e^(-rho) on the right.  The endpoints themselves move linearly,

    d(ka)/dt = k - R_h/n        d(kb)/dt = -k - R_h/n,

the unique rates compatible with the equation and smooth pole closure
(the tail ratios f_rr/f_r approach +-1).  The fiber therefore loses area
at constant rate and collapses at T = (b0 - a0)/2, which is what the
cohomology predictor computes without touching the PDE.

The equation is severely stiff near the poles: the parabolic scale is set
by v = f_r / k, which is ~e^(-L) in the tails, so explicit stepping would
need ~1e11 steps on the default grid.  Steps are taken with the TR-BDF2
one-step scheme (trapezoid stage then BDF2 stage, L-stable) and an
analytic banded Jacobian.

The spatially constant case runs on its exact linear closed form and is
used as the oracle for everything downstream of the PDE.
"""

from __future__ import annotations

import functools
import importlib.util
import logging
import math
import os
from dataclasses import dataclass, fields
from importlib.machinery import PathFinder
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .chart_geometry import ChartError, ChartSampler, calabi_sampler

log = logging.getLogger(__name__)

GAMMA = 2.0 - np.sqrt(2.0)

# Numerical constants of a run.  Each is read when it is used, not bound
# as a default argument, so a test can monkeypatch one.
# A hirzebruch run stops (`fiber_collapsed`) once its collapse proxy
# 4 k max v drops below V_FLOOR, a product run once its fiber size c does.
V_FLOOR = 1e-6
# Newton residual tolerance (relative) and iteration cap per implicit stage
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 12
# step halvings before `step_flow` gives up with StepRejected
MAX_HALVINGS = 10
# curvature masks keep the nodes with v >= SUPPORT_THRESHOLD * max v
SUPPORT_THRESHOLD = 1e-3


class FlowError(ChartError):
    pass


class ConfigError(FlowError):
    """Run settings are internally inconsistent."""


class BadProfile(FlowError):
    """Initial profile violates monotonicity or endpoint asymptotics."""


class StepRejected(FlowError):
    """Implicit solve failed to converge after all step halvings."""


class PastSingularTime(FlowError):
    """Closed form queried at or beyond the collapse time."""


class WrongRegime(FlowError):
    """Base class collapses before the fiber; outside the scenario."""


# ---------------------------------------------------------------------------
# parameters and run records


def _require_finite(record, error: type[FlowError]) -> None:
    """Raise `error` naming the first numeric field that is NaN or infinite.

    Comparisons with NaN are all False, so range checks alone let it
    through; a NaN dt then never advances the flow."""
    for fld in fields(record):
        value = getattr(record, fld.name)
        if value is None or isinstance(value, str):
            continue
        if not math.isfinite(value):
            raise error(f"{fld.name} must be finite, got {value!r}")


# Run inputs check themselves when they are made, so no invalid record
# reaches a run: the params raise BadProfile, the settings ConfigError.
@dataclass(frozen=True)
class HirzebruchParams:
    """Twisted-bundle collapse scenario over a Kahler-Einstein surface.

    f ranges over (k*a0, k*b0); R_h is the base scalar constant in the
    normalization where the Fubini-Study base has R_h = n(n+1).  `shape`
    names the initial profile in `PROFILE_SHAPES`.
    """

    scenario: ClassVar[str] = "hirzebruch"
    a0: float = 1.0
    b0: float = 2.0
    n: int = 1
    k: int = 1
    R_h: float | None = None
    L: float = 20.0
    grid_points: int = 512
    shape: str = "tanh"

    @property
    def base_scalar(self) -> float:
        return float(self.n * (self.n + 1)) if self.R_h is None else self.R_h

    def __post_init__(self) -> None:
        _require_finite(self, BadProfile)
        if not (0.0 < self.a0 < self.b0):
            raise BadProfile("need 0 < a0 < b0")
        if self.k < 1 or self.n < 1:
            raise BadProfile("k and n must be positive integers")
        if self.L <= 0.0 or self.grid_points < 64:
            raise BadProfile("grid too small")
        if self.shape not in PROFILE_SHAPES:
            raise BadProfile(f"unknown shape {self.shape!r}")


@dataclass(frozen=True)
class ProductParams:
    """Spatially constant dilation over a Kahler-Einstein surface with a
    round fiber factor of initial area 2*pi*c0."""

    scenario: ClassVar[str] = "product"
    f0: float = 3.0
    c0: float = 1.0
    n: int = 1
    R_h: float | None = None

    @property
    def base_scalar(self) -> float:
        return float(self.n * (self.n + 1)) if self.R_h is None else self.R_h

    def __post_init__(self) -> None:
        _require_finite(self, BadProfile)
        if self.f0 <= 0.0 or self.c0 <= 0.0:
            raise BadProfile("need positive f0 and c0")
        if self.n < 1:
            raise BadProfile("n must be a positive integer")


@dataclass(frozen=True)
class RunSettings:
    dt_max: float = 0.01
    time_frac: float = 0.1
    stop_margin: float = 1e-3
    dt_fixed: float | None = None

    def __post_init__(self) -> None:
        _require_finite(self, ConfigError)
        if self.dt_max <= 0.0 or not (0.0 < self.time_frac <= 1.0):
            raise ConfigError("need dt_max > 0 and 0 < time_frac <= 1")
        if self.stop_margin <= 0.0:
            raise ConfigError("need stop_margin > 0")
        if self.dt_fixed is not None and self.dt_fixed <= 0.0:
            raise ConfigError("dt_fixed must be positive when set")


@dataclass(frozen=True)
class FlowState:
    """Profile snapshot.  `lower`/`upper` are the endpoint values k a(t),
    k b(t); v = (d_rho f)/k is the derived fiber density.

    `df` carries the node-to-node increments of f at full relative
    precision.  Near the poles f approaches its endpoint like e^(-|rho|),
    so on wide grids the increments fall below the float64 resolution of
    f itself; every derivative taken from nodal f there is noise.  All
    stepping and v extraction therefore run on `df`.
    """

    t: float
    rho: np.ndarray
    f: np.ndarray
    lower: float
    upper: float
    df: np.ndarray

    def v_profile(self, k: int) -> np.ndarray:
        """v = (d_rho f)/k at the nodes, for the twist k of the bundle."""
        return _v_rows(self.df, self.rho[1] - self.rho[0], k)

    def validate(self) -> None:
        if np.any(self.df <= 0.0):
            raise BadProfile("profile not strictly increasing")
        if self.f[0] <= 0.0:
            raise BadProfile("profile not positive")


# The columns of a run's diagnostics table, in the order `diagnostics.csv`
# stores them: the per-step curvature sups of `diagnostics_series`, then
# the monitors of `build_monitors`.
_CURVATURE_COLUMNS = ("t", "node", "k_v_max", "a_sq_sup", "grad_ln_sq_sup",
                      "horiz_sup", "mixed_sup", "rm_sup", "fiber_area",
                      "roundness", "width", "max_v")
DIAG_COLUMNS = _CURVATURE_COLUMNS + (
    "heat_residual", "min_f", "max_f", "max_f_slack", "grad_f_sq_sup",
    "grad_bound_ok")

# The columns of a run's `flow.csv` table, in order, by scenario.
FLOW_COLUMNS = {"product": ("t", "f", "c"),
                "hirzebruch": ("t", "lower", "upper", "width")}


@dataclass(frozen=True)
class FlowRun:
    """A finished run.  `diagnostics` is its diagnostics table: one float64
    array per column of `DIAG_COLUMNS`, in that order, one entry per
    recorded state; `node` and `grad_bound_ok` hold integral floats.
    `sample` is the one profile a hirzebruch run keeps (None for the
    product scenario): its first recorded state at or past half the span
    the run aims to cover, t >= (T_predicted - stop_margin) / 2, or its
    last recorded state if it stops earlier.  The rest is derived from
    these fields by the rules `fiberflow check` applies to stored runs."""

    params: HirzebruchParams | ProductParams
    settings: RunSettings
    diagnostics: dict[str, np.ndarray]
    sample: FlowState | None

    # the derived values, each one call of its one rule; `states` holds
    # the `flow.csv` row of each recorded state, in order
    scenario = property(lambda self: self.params.scenario)
    flow = property(lambda self: flow_table(self.params, self.diagnostics))
    states = property(lambda self: list(zip(*self.flow.values())))
    T_predicted = property(lambda self: predict_max_time(self.params))
    T_observed = property(
        lambda self: observed_stop_time(self.params, self.diagnostics))
    stop_reason = property(
        lambda self: stop_cause(self.params, self.settings, self.diagnostics))


def flow_table(params: HirzebruchParams | ProductParams,
               diag: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The `flow.csv` table of a run whose diagnostics table is `diag`.  A
    hirzebruch row holds t, the endpoint values k a(t), k b(t) of f (its
    `min_f` and `max_f`: a recorded f is nondecreasing) and the width; the
    initial f reaches k a0 and k b0 only to within e^(-L), so row 0 holds
    them exactly.  A product row holds t, f (`min_f`) and c (`width`)."""
    if isinstance(params, ProductParams):
        columns = (diag["t"], diag["min_f"], diag["width"])
    else:
        lower, upper = diag["min_f"].copy(), diag["max_f"].copy()
        lower[0], upper[0] = params.k * params.a0, params.k * params.b0
        columns = (diag["t"], lower, upper, diag["width"])
    return dict(zip(FLOW_COLUMNS[params.scenario], columns))


# ---------------------------------------------------------------------------
# cohomology bookkeeping


def predict_max_time(params: HirzebruchParams | ProductParams) -> float:
    """Collapse time of the fiber class, whose coefficient shrinks at rate
    2; WrongRegime unless the base class is still positive then.

    The classes are (base, fiber) = (k a0, b0 - a0) with base rate
    k - R_h/n for the twisted bundle, (f0, c0) with rate -R_h/n for the
    product.  Valid params start both coefficients positive."""
    if isinstance(params, ProductParams):
        base, fiber = params.f0, params.c0
        base_rate = -params.base_scalar / params.n
    else:
        base, fiber = params.k * params.a0, params.b0 - params.a0
        base_rate = params.k - params.base_scalar / params.n
    t_max = fiber / 2.0
    if base + t_max * base_rate <= 0.0:
        raise WrongRegime("base class collapses before the fiber")
    return t_max


# ---------------------------------------------------------------------------
# initial profiles


def _sigma_increments(rho: np.ndarray, shift: float) -> np.ndarray:
    """sigma(b - shift) - sigma(a - shift) over grid cells, evaluated as
    sigma(b) (1 - sigma(a)) (1 - e^(a-b)): exact identity, every factor at
    full relative precision however deep in the tails a and b sit."""
    a = rho[:-1] - shift
    b = rho[1:] - shift
    sig_b = 1.0 / (1.0 + np.exp(-b))
    com_a = 1.0 / (1.0 + np.exp(a))  # 1 - sigma(a)
    return sig_b * com_a * (-np.expm1(a - b))


# Each initial shape is a sum of logistic steps (weight, shift): f = lower
# + sum of weight * width * sigma(rho - shift).  Every step has the tail
# ratios f_rr/f_r -> +-1 exactly that the pole closure needs.
PROFILE_SHAPES = {"tanh": ((1.0, 0.0),),
                  "skew": ((1.0 - 0.35, 0.0), (0.35, 1.2))}


def init_hirzebruch_profile(params: HirzebruchParams) -> FlowState:
    """The initial state of `params.shape`; f and `df` sum its steps in
    order."""
    lower = params.k * params.a0
    upper = params.k * params.b0
    width = upper - lower
    rho = np.linspace(-params.L, params.L, params.grid_points)
    f, df = lower, 0.0
    # where e^(+-rho) overflows, the logistic factors take their limits
    # 0 and 1 exactly; only a grid too wide for the profile gets there
    with np.errstate(over="ignore"):
        for w, c in PROFILE_SHAPES[params.shape]:
            f = f + (w * width) * (1.0 / (1.0 + np.exp(-(rho - c))))
            df = df + (w * width) * _sigma_increments(rho, c)
    state = FlowState(t=0.0, rho=rho, f=f, lower=lower, upper=upper, df=df)
    state.validate()
    if abs(f[0] - lower) > 1e-6 or abs(f[-1] - upper) > 1e-6:
        raise BadProfile("grid half-width too small for endpoint closure")
    return state


# ---------------------------------------------------------------------------
# discrete operators and the implicit stepper


def _reconstruct(f0: float, inc: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(f0, f0 + cumsum(inc)), into `out` when it is given."""
    if out is None:
        out = np.empty(inc.size + 1)
    out[0] = f0
    np.add.accumulate(inc, out=out[1:])
    out[1:] += f0
    return out


def _to_increments(z: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """Inverse of `_reconstruct`: (z[0], diff(z)), into `out` when it is
    given."""
    if out is None:
        out = np.empty_like(z)
    out[0] = z[0]
    np.subtract(z[1:], z[:-1], out=out[1:])
    return out


@functools.cache
def _dgtsv():
    """LAPACK `dgtsv` from scipy's extension module scipy.linalg._flapack,
    loaded on its own and once per process.

    Importing the scipy.linalg package to reach it takes about 0.3 s; the
    extension alone takes a few ms and does not import scipy.  CPython
    keeps one copy of a single-phase extension module, so this is the very
    routine `get_lapack_funcs("gtsv", dtype=np.float64)` returns, in either
    import order.  Where the extension is not found in scipy's (private)
    layout, the routine comes through `get_lapack_funcs`."""
    scipy_spec = importlib.util.find_spec("scipy")
    spec = scipy_spec and PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(d, "linalg")
         for d in scipy_spec.submodule_search_locations])
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dgtsv
        except (ImportError, AttributeError):
            pass
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs("gtsv", dtype=np.float64)


def solve_banded(gtsv, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in `ab`, in the (1, 1) storage of
    `scipy.linalg.solve_banded`, for `b` with the LAPACK routine `gtsv`
    (`_dgtsv()` for every `FlowProblem`).

    The bands and `b` are overwritten and the solution is returned in the
    storage of `b`.  scipy's `solve_banded((1, 1), ab, b)` calls the same
    `gtsv` on the same bands, so the solution is the same bit for bit;
    what is left out is its argument handling and its copies.  Its checks
    are kept: ValueError for NaN or inf input, LinAlgError for a singular
    matrix, ValueError for an illegal argument."""
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = gtsv(ab[2, :-1], ab[1], ab[0, 1:], b,
                            overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                            overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of gtsv")
    return x


class _TRBDF2:
    """TR-BDF2 (Hosea & Shampine, Appl. Numer. Math. 20, 1996) for
    u' = phi(u): a trapezoid stage to t + gamma dt, then a BDF2 stage to
    t + dt, each solved by Newton's method; second order and L-stable.

    A problem subclasses it with the size of u and gives three methods.
    `_eval(u)` returns (phi(u), aux): phi(u) a fresh array, aux what
    `_correction` needs at u, which may lean on the problem's buffers
    until the next `_eval`.  `_correction(coeff, aux, resid)` returns x
    with (I - coeff dphi/du) x = resid; the core may halve it in place.
    `_valid(u)` says whether phi is defined at u; every iterate is valid.
    The work buffers are allocated once, so one problem must not step
    from several threads at once."""

    def __init__(self, size: int):
        # the stage right-hand sides' second terms, the Newton residual and
        # the absolute value of its entries past the first
        self._scratch = np.empty(size)
        self._resid = np.empty(size)
        self._abs = np.empty(size - 1)

    def _newton(self, coeff: float, rhs_const: np.ndarray,
                guess: np.ndarray) -> tuple:
        """Solve u - coeff * phi(u) = rhs_const and return (u, phi(u), aux)
        of the converged iterate; raises StepRejected on non-convergence.
        An update that would leave the valid region is halved, at most six
        times.  The returned u may be `guess` or `rhs_const` itself;
        neither is written to."""
        u = guess
        if not self._valid(u):
            u = rhs_const
        if not self._valid(u):
            raise StepRejected("no valid starting iterate")
        absr = self._abs
        scale = (1.0 + abs(rhs_const[0])
                 + float(np.add.reduce(np.abs(rhs_const[1:], out=absr))))
        resid = self._resid
        for _ in range(NEWTON_MAX_ITER):
            phi, aux = self._eval(u)
            np.multiply(coeff, phi, out=resid)  # u - coeff phi - rhs_const
            np.subtract(u, resid, out=resid)
            resid -= rhs_const
            err = (abs(resid[0])
                   + float(np.add.reduce(np.abs(resid[1:], out=absr))))
            if err <= NEWTON_TOL * scale:
                return u, phi, aux
            x = self._correction(coeff, aux, resid)
            for _ in range(6):
                candidate = u - x
                if self._valid(candidate):
                    break
                x *= 0.5
            else:
                raise StepRejected("iterate left the valid region")
            u = candidate
        raise StepRejected("implicit solve did not converge")

    def step_once(self, u: np.ndarray, p0: np.ndarray, dt: float) -> tuple:
        """One TR-BDF2 step from u, whose rates p0 = phi(u) the caller
        holds: the stepped u', phi(u') and the aux of u', as stage 2's
        Newton solve built them.  StepRejected if either stage fails;
        nothing is written to u or p0."""
        g = GAMMA
        # Stage right-hand sides and guesses are fresh, since the solve
        # may return one as its iterate; `_scratch` holds their second
        # terms (sums and products commute exactly).
        c1 = 0.5 * g * dt
        rhs_const = np.multiply(c1, p0)
        rhs_const += u
        guess = np.multiply(g * dt, p0)
        guess += u
        u1, _, _ = self._newton(c1, rhs_const, guess)
        c2 = (1.0 - g) / (2.0 - g) * dt
        rhs_const = np.divide(u1, g * (2.0 - g))
        rhs_const -= np.multiply((1.0 - g) ** 2 / (g * (2.0 - g)), u,
                                 out=self._scratch)
        guess = np.divide(u1, g)
        guess -= np.multiply((1.0 - g) / g, u, out=self._scratch)
        return self._newton(c2, rhs_const, guess)


class FlowProblem(_TRBDF2):
    """Grid, operators and parameters for one PDE run: the rho equation on
    the TR-BDF2 core.

    The implicit solve works on u = (f[0], increments of f) rather than
    nodal values.  In the tails the increments are e^(-|rho|) times
    smaller than f, so nodal stencils lose up to ten digits to
    cancellation on wide grids and the Newton residual bottoms out above
    any usable tolerance; increments carry full relative precision.  The
    change of variables is triangular (cumsum), so the Newton systems
    still reduce to one banded solve:  with T = cumsum and D = diff its
    inverse, I - c D J T = D (I - c J) T.

    A step reads no state that an earlier one left.  The Newton kernel
    works in buffers allocated once per problem, so one FlowProblem must
    not step from several threads at once.  No buffer is handed out as a
    result: the rates, phi, the iterates and their nodal f are fresh
    arrays, which a caller may keep.
    """

    def __init__(self, params: HirzebruchParams):
        nodes = params.grid_points
        super().__init__(nodes)
        self.params = params
        self.rho = np.linspace(-params.L, params.L, nodes)
        self.drho = float(self.rho[1] - self.rho[0])
        rh = params.base_scalar
        self.sink = rh / params.n
        # Endpoint rows advance at the speed of the *discrete* exponential
        # tail: for f - endpoint ~ q^j the stencil ratio s2f/s1f is the
        # constant below, not exactly 1.  Pinning the continuum rate k
        # instead leaves an O(drho^2) mismatch against the neighbouring
        # interior nodes, which wipes out the e^(-L)-sized boundary
        # increment within one step.  The discrete rate converges to the
        # continuum one at the scheme's order.
        h = self.drho
        r_disc = 2.0 * (np.cosh(h) - 1.0) / (h * np.sinh(h))
        self.rate_lower_disc = params.k * r_disc - self.sink
        self.rate_upper_disc = -params.k * r_disc - self.sink
        self._two_h = 2.0 * h
        self._h_sq = h ** 2
        # the LAPACK extension alone, not the ~0.3 s scipy.linalg import
        self._gtsv = _dgtsv()
        # The Newton matrix, refilled by `_newton_matrix` for every update
        # because `solve_banded` overwrites it.  ab[0, 0] and ab[2, -1] lie
        # outside the matrix, where gtsv never writes, and stay zero.
        self._ab = np.zeros((3, nodes))
        # Work buffers: the interior stencils s1, n s1 and s2, two
        # temporaries, the banded right-hand side (solved in place) and
        # the update.
        self._s1, self._ns1, self._s2, self._tmp1, self._tmp2 = np.empty(
            (5, nodes - 2))
        self._rhs = np.empty(nodes)
        self._dx = np.empty(nodes)

    @staticmethod
    def _pack(state: FlowState) -> np.ndarray:
        """u = (f[0], increments of f) of a state."""
        return np.concatenate(([state.f[0]], state.df))

    def _unpack(self, t: float, u: np.ndarray, f: np.ndarray) -> FlowState:
        """The state at t of u and its nodal profile f."""
        return FlowState(t=t, rho=self.rho, f=f, lower=float(f[0]),
                         upper=float(f[-1]), df=u[1:].copy())

    # -- the rho equation, in increment space ---------------------------------
    #
    # One iterate costs one stencil pass: `_rates` gives the nodal rates
    # and the interior stencils, and the Jacobian is built from the same
    # stencils only when the iterate has not converged.

    def _rates(self, f: np.ndarray, inc: np.ndarray
               ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Nodal rates F at (f, increments of f) and the interior stencils
        (s1 = f_rho, n s1, s2 = f_rhorho) they were built from.  Boundary
        rows are the endpoint rates.  The rates are a fresh array; the
        stencils are the problem's buffers, valid until the next call."""
        s1 = np.add(inc[1:], inc[:-1], out=self._s1)
        s1 /= self._two_h
        s2 = np.subtract(inc[1:], inc[:-1], out=self._s2)
        s2 /= self._h_sq
        ns1 = np.multiply(self.params.n, s1, out=self._ns1)
        rates = np.empty(f.size)
        rates[0] = self.rate_lower_disc
        # k (s2/s1 + n s1/f) - sink, one operation at a time in place
        mid = np.divide(s2, s1, out=rates[1:-1])
        mid += np.divide(ns1, f[1:-1], out=self._tmp1)
        mid *= self.params.k
        mid -= self.sink
        rates[-1] = self.rate_upper_disc
        return rates, (s1, ns1, s2)

    def _eval(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi(u) = (F[0], diff(F)) for the rates F of u, and the nodal f
        of u; the stencils stay in the problem's buffers for
        `_correction`."""
        f = _reconstruct(u[0], u[1:])
        return _to_increments(self._rates(f, u[1:])[0]), f

    def _phi(self, u: np.ndarray) -> np.ndarray:
        """Rates of (f[0], increments): (F[0], diff(F))."""
        return self._eval(u)[0]

    def _newton_matrix(self, coeff: float, f: np.ndarray,
                       stencils: tuple[np.ndarray, ...]) -> np.ndarray:
        """I - coeff * J in `solve_banded` (1, 1) storage, written into the
        problem's band buffer, where J is the tridiagonal d(rates)/d(nodal
        f); its boundary rows are zero (the endpoint rates are constants).

        Each band is built in place in the order of its formula, and
        products are exact to reorder, so the bands equal those of the
        expressions in the comments bit for bit."""
        k = self.params.k
        s1, ns1, s2 = stencils
        fi = f[1:-1]
        ab = self._ab
        curv = np.divide(1.0, s1, out=self._tmp1)  # 1/s1, then (1/s1)/h^2
        adv = np.square(curv, out=self._tmp2)      # s2 (1/s1)^2 / (2h)
        adv *= s2
        adv /= self._two_h
        curv /= self._h_sq
        # n / (2h f), held in the diagonal's storage until the off-diagonal
        # bands are built
        geo = np.multiply(self._two_h, fi, out=ab[1, 1:-1])
        np.divide(self.params.n, geo, out=geo)
        # the signed zeros are what -coeff times a zero boundary row of J
        # gives
        ab[0, 1] = ab[2, -2] = -coeff * 0.0
        ab[1, 0] = ab[1, -1] = 1.0
        up = np.subtract(curv, adv, out=ab[0, 2:])  # -coeff k (curv-adv+geo)
        up += geo
        up *= k
        up *= -coeff
        low = np.add(curv, adv, out=ab[2, :-2])     # -coeff k (curv+adv-geo)
        low -= geo
        low *= k
        low *= -coeff
        # 1 - coeff k (-2 curv - n s1/f^2).  -2.0 * curv equals
        # (-2.0 / s1) / h^2 bit for bit: scaling by a power of two commutes
        # with rounding.
        diag = np.square(fi, out=geo)
        np.divide(ns1, diag, out=diag)
        np.subtract(np.multiply(-2.0, curv, out=adv), diag, out=diag)
        diag *= k
        diag *= coeff
        np.subtract(1.0, diag, out=diag)
        return ab

    def _valid(self, u: np.ndarray) -> bool:
        return bool(np.minimum.reduce(u) > 0.0
                    and np.maximum.reduce(u) < np.inf)

    def _correction(self, coeff: float, f: np.ndarray,
                    resid: np.ndarray) -> np.ndarray:
        """x with (I - coeff D J T) x = resid at the u of nodal f, solved as
        the banded f-space system (I - coeff J) z = T resid, then x = D z;
        x is the problem's buffer."""
        z = solve_banded(self._gtsv,
                         self._newton_matrix(coeff, f, (self._s1, self._ns1,
                                                        self._s2)),
                         _reconstruct(resid[0], resid[1:], self._rhs))
        return _to_increments(z, self._dx)


def step_flow(problem: FlowProblem, t: float, u: np.ndarray, p: np.ndarray,
              dt: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Advance (t, u = (f[0], increments of f), p = phi(u)) by dt and
    return (t, u, p, f) there, f the nodal profile of u.  Halves dt on
    solver failure, retrying from the same u and p, and raises
    StepRejected once halvings are spent.  The new profile is strictly
    increasing: the Newton solve returns only iterates whose f[0] and
    increments are all positive and finite."""
    if not 0.0 < dt < math.inf:
        raise FlowError(f"need a finite dt > 0, got {dt!r}")
    remaining = dt
    halvings_left = MAX_HALVINGS
    sub_dt = dt
    while remaining > 1e-15 * dt:
        sub_dt = min(sub_dt, remaining)
        try:
            u, p, f = problem.step_once(u, p, sub_dt)
        except StepRejected:
            halvings_left -= 1
            if halvings_left < 0:
                raise
            sub_dt *= 0.5
            continue
        t += sub_dt
        remaining -= sub_dt
    return t, u, p, f


# ---------------------------------------------------------------------------
# profile-level diagnostics
#
# Recorded states are processed in blocks stacked into (rows, nodes)
# arrays, so numpy's per-call cost is paid once per block rather than once
# per state.  Every formula acts along the last axis; the per-state
# functions are the one-row case of the block code.

# Nodes per block: 16 rows at the default 512 nodes, 4 at 2048.  With the
# previous block's arrays still held (see `diagnostics_series`) the
# diagnostics peak at about 1.4 MB, next to the 2 MB of states a run
# buffers (`_FLUSH_NODES`).  On a 2-core Xeon with 2 MB of L2 cache per
# core, the diagnostics of refine sweeps took 10% more CPU time at 6144
# nodes per block and 25% more at 4096.
_BLOCK_NODES = 8192

# A run buffers its recorded states until they hold this many nodes (256
# states at 512 nodes, 64 at 2048), passes them through the block code in
# one call and drops them, so it holds O(N) profile memory whatever its
# step count: 2 MB of `f` and `df`.  Each call pays the block code's set-up
# (time weights, grid slices, output columns) once, so the buffer is kept
# well above one block.
_FLUSH_NODES = 2 ** 17


def _block_rows(nodes: int) -> int:
    return max(1, _BLOCK_NODES // nodes)


def _v_rows(df: np.ndarray, d: float, k: int) -> np.ndarray:
    """v = (d_rho f)/k at the nodes from increments of f along the last
    axis: centred inside, one-sided second order at the two ends."""
    v = np.empty(df.shape[:-1] + (df.shape[-1] + 1,))
    mid = np.add(df[..., 1:], df[..., :-1], out=v[..., 1:-1])
    mid /= 2.0 * d * k
    v[..., 0] = (1.5 * df[..., 0] - 0.5 * df[..., 1]) / (d * k)
    v[..., -1] = (1.5 * df[..., -1] - 0.5 * df[..., -2]) / (d * k)
    return v


def _max_v(df: np.ndarray, d: float, k: int) -> float:
    """max of `_v_rows(df, d, k)` for one state without building v: the
    largest centred sum is divided once, which gives the same value as
    dividing every sum first, because rounding is monotone."""
    return max(float(np.maximum.reduce(df[1:] + df[:-1])) / (2.0 * d * k),
               (1.5 * df[0] - 0.5 * df[1]) / (d * k),
               (1.5 * df[-1] - 0.5 * df[-2]) / (d * k))


# `_d1` and `_d2` take their interior stencils over the rows laid end to
# end, in one contiguous pass: the values that straddle two rows land on
# the end nodes, which the one-sided formulas then overwrite.


def _d1(arr: np.ndarray, d: float) -> np.ndarray:
    out = np.empty(arr.shape)
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    mid = np.subtract(flat[2:], flat[:-2], out=flat_out[1:-1])
    mid /= 2.0 * d
    out[..., 0] = (-1.5 * arr[..., 0] + 2.0 * arr[..., 1]
                   - 0.5 * arr[..., 2]) / d
    out[..., -1] = (1.5 * arr[..., -1] - 2.0 * arr[..., -2]
                    + 0.5 * arr[..., -3]) / d
    return out


def _d2(arr: np.ndarray, d: float) -> np.ndarray:
    """(arr[j+1] - 2 arr[j] + arr[j-1]) / d^2 inside, in that order; the
    end values repeat their neighbours'."""
    out = np.empty(arr.shape)
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    mid = np.multiply(2.0, flat[1:-1], out=flat_out[1:-1])
    np.subtract(flat[2:], mid, out=mid)
    mid += flat[:-2]
    mid /= d ** 2
    out[..., 0] = out[..., 1]
    out[..., -1] = out[..., -2]
    return out


def _curvature_rows(f: np.ndarray, v: np.ndarray, v_max: np.ndarray,
                    d: float, params: HirzebruchParams
                    ) -> dict[str, np.ndarray]:
    """Per-node curvature arrays, keyed as returned, for rows of nodal f
    and v whose maxima along the last axis are v_max.  The support mask
    `supp` is v >= SUPPORT_THRESHOLD * v_max.  k_v and the Hessian terms
    hess_rr and hess_tt of vhc_r and vhc_t are raw stencil values at every
    node, which a caller reads on the support only: fiber curvature
    divides stencils of ln v by v, which amplifies noise where v
    underflows.  rm is zero outside the support."""
    if params.n != 1:
        raise FlowError("profile diagnostics implemented over surface bases")
    k = params.k
    supp = v >= SUPPORT_THRESHOLD * v_max[..., None]
    # Each array is built in place in the order of the formula in its
    # comment; sums and products commute exactly, and so does negation
    # with division, so the values are those of the formulas bit for bit.
    lnv = np.where(v > 0.0, v, 1.0)             # ln v where v > 0, else 0
    np.log(lnv, out=lnv)
    lv1 = _d1(lnv, d)
    grad_ln_sq = np.multiply(2.0 * k ** 2, v)   # 2 k^2 v / f^2
    grad_ln_sq /= np.square(f)
    kappa_h = np.divide(params.base_scalar, f)  # R_h / f - grad_ln_sq
    kappa_h -= grad_ln_sq
    lf1 = np.multiply(k, v)                     # k v / f
    lf1 /= f
    lf2 = _d1(v, d)                             # k v_rho / f - lf1^2
    lf2 *= k
    lf2 /= f
    lf2 -= np.square(lf1)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_v = _d2(lnv, d)                       # -(ln v)_rhorho / v
        np.negative(k_v, out=k_v)
        k_v /= v
        scratch = np.multiply(0.5, lv1)         # (2/v) (lf2 - lv1 lf1 / 2)
        scratch *= lf1
        np.subtract(lf2, scratch, out=lf2)
        hess_rr = np.divide(2.0, v)
        hess_rr *= lf2
        hess_tt = np.divide(1.0, v)             # (1/v) lv1 lf1
        hess_tt *= lv1
        hess_tt *= lf1
    # Freed early: these temporaries add to the peak memory of a run, on
    # top of the states it buffers.
    del lnv, lv1, lf1, lf2
    # sqrt(4 k_v^2 + 4 kappa_h^2) on the support; k_v is raw outside it,
    # where its square may overflow
    with np.errstate(over="ignore"):
        rm = np.square(k_v)
        rm *= 4.0
        np.square(kappa_h, out=scratch)
        scratch *= 4.0
        rm += scratch
        np.sqrt(rm, out=rm)
    rm = np.where(supp, rm, 0.0)
    return {"supp": supp, "k_v": k_v, "grad_ln_sq": grad_ln_sq,
            "kappa_h": kappa_h, "hess_rr": hess_rr, "hess_tt": hess_tt,
            "rm": rm}


def _vhc(hess_rr: np.ndarray, hess_tt: np.ndarray,
         grad_ln_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vhc_r, vhc_t) = (-(hess_rr + g)/2 + g/4, -hess_tt/2 + g/4), with
    g = grad_ln_sq; the sums and products commute exactly."""
    quarter = np.multiply(0.25, grad_ln_sq)
    vhc_r = np.add(hess_rr, grad_ln_sq)
    vhc_r *= -0.5
    vhc_r += quarter
    vhc_t = np.multiply(-0.5, hess_tt)
    vhc_t += quarter
    return vhc_r, vhc_t


def curvature_profiles(state: FlowState, params: HirzebruchParams
                       ) -> dict[str, np.ndarray | float]:
    """Per-node curvature arrays of one state, from the profile alone (no
    chart reconstruction): v, the support mask `supp`, k_v, grad_ln_sq,
    a_sq, kappa_h, vhc_r, vhc_t and rm, with k_v, rm and the Hessian terms
    of vhc_r and vhc_t zero outside the support; then its time `t`, grid
    `rho`, fiber `width` and fiber `area`."""
    v = state.v_profile(params.k)
    rows = _curvature_rows(state.f, v, np.maximum.reduce(v),
                           state.rho[1] - state.rho[0], params)
    supp, g = rows["supp"], rows["grad_ln_sq"]
    vhc_r, vhc_t = _vhc(np.where(supp, rows["hess_rr"], 0.0),
                        np.where(supp, rows["hess_tt"], 0.0), g)
    width = float(state.upper - state.lower)
    return {"v": v, "supp": supp, "k_v": np.where(supp, rows["k_v"], 0.0),
            "grad_ln_sq": g, "a_sq": 2.0 * params.n * g,
            "kappa_h": rows["kappa_h"], "vhc_r": vhc_r, "vhc_t": vhc_t,
            "rm": rows["rm"], "t": state.t, "rho": state.rho,
            "width": width, "area": float(2.0 * np.pi * width / params.k)}


def diagnostics_series(states: Sequence[FlowState], params: HirzebruchParams
                       ) -> dict[str, np.ndarray]:
    """The curvature columns of the diagnostics table (`t` to `max_v` of
    `DIAG_COLUMNS`) of the states: per state, the curvature sups over the
    supported nodes v >= threshold * max v.  The columns are filled one
    block of states at a time."""
    k = params.k
    d = states[0].rho[1] - states[0].rho[0]
    rows = _block_rows(states[0].f.size)
    out = {name: np.empty(len(states)) for name in _CURVATURE_COLUMNS}
    # A block's arrays are dropped only when the next block's replace
    # them, so the allocator reuses their space.  Freed all at once, the
    # space can go back to the system and be faulted in again for every
    # block: up to 90,000 page faults were measured when the 1,872 states
    # of a 2048-node run went through in one call, which made the blocks
    # slower than single states.
    for lo in range(0, len(states), rows):
        block = states[lo:lo + rows]
        v = _v_rows(np.stack([s.df for s in block]), d, k)
        v_max = np.maximum.reduce(v, axis=1)
        p = _curvature_rows(np.stack([s.f for s in block]), v, v_max, d,
                            params)
        supp = p["supp"]
        vhc_r, vhc_t = _vhc(p["hess_rr"], p["hess_tt"], p["grad_ln_sq"])
        mixed_r = np.maximum.reduce(
            np.where(supp, np.abs(vhc_r, out=vhc_r), -np.inf), axis=1)
        mixed_t = np.maximum.reduce(
            np.where(supp, np.abs(vhc_t, out=vhc_t), -np.inf), axis=1)
        grad_max = np.maximum.reduce(p["grad_ln_sq"], axis=1)
        width = np.array([s.upper - s.lower for s in block], dtype=float)
        area = 2.0 * np.pi * width / k
        # the node of max v lies in the support: k_v there needs no mask
        center = np.argmax(v, axis=1)
        roundness = (p["k_v"][np.arange(len(block)), center] * area
                     / (4.0 * np.pi))
        at = slice(lo, lo + len(block))
        out["t"][at] = [s.t for s in block]
        out["node"][at] = np.argmax(p["rm"], axis=1)
        out["k_v_max"][at] = np.maximum.reduce(
            np.where(supp, p["k_v"], -np.inf), axis=1)
        # max(c g) = c max(g) for c > 0: rounding is monotone
        out["a_sq_sup"][at] = (2.0 * params.n) * grad_max
        out["grad_ln_sq_sup"][at] = grad_max
        out["horiz_sup"][at] = np.maximum.reduce(np.abs(p["kappa_h"]),
                                                 axis=1)
        # the larger of the two, mixed_r on ties (Python's max)
        out["mixed_sup"][at] = np.where(mixed_t > mixed_r, mixed_t, mixed_r)
        out["rm_sup"][at] = np.maximum.reduce(p["rm"], axis=1)
        out["fiber_area"][at] = area
        out["roundness"][at] = roundness
        out["width"][at] = width
        out["max_v"][at] = v_max
    return out


def profile_diagnostics(state: FlowState, params: HirzebruchParams
                        ) -> dict[str, np.ndarray]:
    """`diagnostics_series` of one state: its one-row curvature columns."""
    return diagnostics_series([state], params)


# ---------------------------------------------------------------------------
# monitors


def _d1_4th(f: np.ndarray, d: float) -> np.ndarray:
    """4th-order f_rho along the last axis, at all but two nodes per end."""
    return (f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1]
            - f[..., 4:]) / (12.0 * d)


def _d2_4th(f: np.ndarray, d: float) -> np.ndarray:
    """4th-order f_rhorho along the last axis, like `_d1_4th`."""
    return (-f[..., :-4] + 16.0 * f[..., 1:-3] - 30.0 * f[..., 2:-2]
            + 16.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * d ** 2)


def heat_residual_series(states: Sequence[FlowState],
                         params: HirzebruchParams) -> np.ndarray:
    """Sup over the central half of the grid of |df/dt - RHS|, with
    4th-order space stencils and 3-point time stencils on the recorded
    states.  First and last entries are NaN (no centered time stencil)."""
    k, n = params.k, params.n
    sink = params.base_scalar / n
    m = len(states)
    out = np.full(m, np.nan)
    if m < 3:
        return out
    rho = states[0].rho
    d = rho[1] - rho[0]
    # The central half is one run of nodes at least two nodes from either
    # end (grid_points >= 64), where the space stencils are defined, so
    # only its columns and a two-node halo are stacked.
    central = np.flatnonzero(np.abs(rho) <= params.L / 2.0)
    a, b = int(central[0]) - 2, int(central[-1]) + 3
    t = np.array([s.t for s in states])
    dm, dp = t[1:-1] - t[:-2], t[2:] - t[1:-1]
    wm = (-dp / (dm * (dm + dp)))[:, None]
    w0 = ((dp - dm) / (dm * dp))[:, None]
    wp = (dm / (dp * (dm + dp)))[:, None]
    rows = _block_rows(rho.size)
    for lo in range(1, m - 1, rows):
        hi = min(lo + rows, m - 1)
        f = np.stack([s.f[a:b] for s in states[lo - 1:hi + 1]])
        now = f[1:-1]
        w = slice(lo - 1, hi - 1)
        ft = (wm[w] * f[:-2, 2:-2] + w0[w] * now[:, 2:-2]
              + wp[w] * f[2:, 2:-2])
        f1 = _d1_4th(now, d)
        f2 = _d2_4th(now, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = k * (f2 / f1 + n * f1 / now[:, 2:-2]) - sink
        out[lo:hi] = np.fmax.reduce(np.abs(ft - rhs), axis=1)
    return out


def build_monitors(params: HirzebruchParams, t: np.ndarray,
                   heat_residual: np.ndarray, min_f: np.ndarray,
                   max_f: np.ndarray, max_v: np.ndarray
                   ) -> dict[str, np.ndarray]:
    """The monitor columns of the diagnostics table (`heat_residual` to
    `grad_bound_ok` of `DIAG_COLUMNS`) from columns of the recorded
    states: their times, heat residuals (`heat_residual_series`), min and
    max of f, and max v (the `max_v` column of their diagnostics)."""
    k = params.k
    sink = params.base_scalar / params.n
    grad_sup = 2.0 * k ** 2 * np.asarray(max_v, dtype=float)
    ok = grad_sup <= grad_sup[0] * (1.0 + 1e-9) + 1e-12
    return {"heat_residual": heat_residual,
            "min_f": min_f,
            "max_f": max_f,
            "max_f_slack": max_f - (max_f[0] - sink * t),
            "grad_f_sq_sup": grad_sup,
            "grad_bound_ok": ok.astype(float)}


# ---------------------------------------------------------------------------
# closed-form product mode


def product_closed_form(f0: float, c0: float, R_h: float, n: int,
                        t: float) -> tuple[float, float, float]:
    """f(t) = f0 - (R_h/n) t, c(t) = c0 - 2t, fiber curvature 2/c(t)."""
    f = f0 - (R_h / n) * t
    c = c0 - 2.0 * t
    if f <= 0.0 or c <= 0.0:
        raise PastSingularTime("closed form queried at or past collapse")
    return f, c, 2.0 / c


# ---------------------------------------------------------------------------
# runs


def _collapse_proxy(params: HirzebruchParams | ProductParams,
                    diag: dict[str, np.ndarray]) -> np.ndarray:
    """4 k max_v per recorded state for hirzebruch, width for product."""
    return (diag["width"] if isinstance(params, ProductParams)
            else 4.0 * params.k * diag["max_v"])


def observed_stop_time(params: HirzebruchParams | ProductParams,
                       diag: dict[str, np.ndarray]) -> float:
    """T_observed of a run whose diagnostics table is `diag`, the one rule
    of `run_flow` and `fiberflow check`: the root of a linear fit of the
    collapse proxy over the last decade of remaining time (over all times
    if that decade holds one); the last time if the fit degenerates or
    only one time is recorded."""
    times = diag["t"]
    widths = _collapse_proxy(params, diag)
    if times.size < 2:
        return float(times[-1])
    remaining = predict_max_time(params) - times
    cutoff = remaining[-1] * 10.0 if remaining[-1] > 0 else remaining[-1]
    sel = remaining <= max(cutoff, remaining[-1] + 1e-12)
    if np.count_nonzero(sel) < 2:
        sel = np.ones_like(times, dtype=bool)
    coeffs = np.polyfit(times[sel], widths[sel], 1)
    if coeffs[0] >= 0.0:
        return float(times[-1])
    return float(-coeffs[1] / coeffs[0])


def _step_size(settings: RunSettings, t_pred: float,
               t: float) -> float | None:
    """The next step from time t of a run aiming at t_pred - stop_margin,
    the one step rule of both scenarios; None once the run is there."""
    remaining = t_pred - settings.stop_margin - t
    if remaining <= 1e-12:
        return None
    if settings.dt_fixed is not None:
        return min(settings.dt_fixed, remaining)
    return min(settings.dt_max, settings.time_frac * (t_pred - t), remaining)


def stop_cause(params: HirzebruchParams | ProductParams,
               settings: RunSettings, diag: dict[str, np.ndarray]) -> str:
    """Why a run whose diagnostics table is `diag` stopped, by the rules of
    the stepping loops: `fiber_collapsed` if it took a step and its last
    collapse proxy is below V_FLOOR, else `time_exhausted` if the step
    rule gives no next step, else `step_rejected`."""
    t = diag["t"]
    if t.size > 1 and _collapse_proxy(params, diag)[-1] < V_FLOOR:
        return "fiber_collapsed"
    if _step_size(settings, predict_max_time(params), float(t[-1])) is None:
        return "time_exhausted"
    return "step_rejected"


def run_flow(params: HirzebruchParams | ProductParams,
             settings: RunSettings | None = None) -> FlowRun:
    settings = settings or RunSettings()
    if isinstance(params, ProductParams):
        return _run_product(params, settings)
    return _run_hirzebruch(params, settings)


def _run_product(params: ProductParams, settings: RunSettings) -> FlowRun:
    """Oracle fixture: the product scenario's states are the closed form
    evaluated on the stepper's time grid, not an integration, so its
    `closed_form` check compares the formula with itself."""
    t_pred = predict_max_time(params)
    rh = params.base_scalar
    t = 0.0
    times = [t]
    # (f, c, 2/c) per state, as Python floats: the golden digests of
    # configs/product.cfg pin the bytes of that arithmetic
    rows = [product_closed_form(params.f0, params.c0, rh, params.n, t)]
    while (dt := _step_size(settings, t_pred, t)) is not None:
        t = t + dt
        times.append(t)
        rows.append(product_closed_form(params.f0, params.c0, rh, params.n,
                                        t))
        if rows[-1][1] < V_FLOOR:
            break
    f, c, k_v = zip(*rows)
    kappa_h = [rh / params.n / x for x in f]
    zero = [0.0] * len(rows)
    diags = {
        "t": times, "node": zero, "k_v_max": k_v,
        "a_sq_sup": zero, "grad_ln_sq_sup": zero, "horiz_sup": kappa_h,
        "mixed_sup": zero,
        "rm_sup": [float(np.sqrt(4.0 * a ** 2 + 4.0 * b ** 2))
                   for a, b in zip(k_v, kappa_h)],
        "fiber_area": [2.0 * np.pi * x for x in c],
        "roundness": [1.0] * len(rows), "width": c, "max_v": c,
        "heat_residual": zero, "min_f": f, "max_f": f, "max_f_slack": zero,
        "grad_f_sq_sup": zero, "grad_bound_ok": [1.0] * len(rows)}
    diags = {name: np.array(col, dtype=float) for name, col in diags.items()}
    return FlowRun(params, settings, diags, sample=None)


def recorded_states(params: HirzebruchParams,
                    settings: RunSettings | None = None
                    ) -> Iterator[FlowState]:
    """The recorded states of a hirzebruch run, in order: the initial
    state and every stepped state.  This is the one stepping loop:
    `run_flow` consumes it, and tests that need the profiles of a run take
    them from it; `stop_cause` reads why it stopped off the run's table.
    From step to step it carries u = (f[0], increments of f) and its
    rates p = phi(u), which each `step_flow` returns for the next, so
    phi is evaluated once, at the initial state."""
    settings = settings or RunSettings()
    problem = FlowProblem(params)
    state = init_hirzebruch_profile(params)
    t_pred = predict_max_time(params)
    yield state
    t, u = state.t, problem._pack(state)
    p = problem._phi(u)
    while (dt := _step_size(settings, t_pred, t)) is not None:
        try:
            t_new, u, p, f = step_flow(problem, t, u, p, dt)
        except StepRejected as exc:
            log.warning("run stopped early at t=%.6f: %s", t, exc)
            return
        if not t_new > t:
            raise FlowError(f"step of dt={dt!r} did not advance t={t!r}")
        t = t_new
        state = problem._unpack(t, u, f)
        yield state
        if 4.0 * params.k * _max_v(state.df, problem.drho, params.k) < V_FLOOR:
            return


def _run_hirzebruch(params: HirzebruchParams,
                    settings: RunSettings) -> FlowRun:
    """Fill the run's tables while `recorded_states` steps.  Its states
    gather in a buffer; once `_FLUSH_NODES` nodes' worth are new, they go
    through `diagnostics_series`, and through `heat_residual_series` with
    one state of halo on each side, and all but the last two states are
    dropped: those are the halo of the next heat residuals.  The monitor
    columns are filled from the run's columns at the end."""
    t_pred = predict_max_time(params)
    half = 0.5 * (t_pred - settings.stop_margin)
    size = max(1, _FLUSH_NODES // params.grid_points)
    buf: list[FlowState] = []
    curvature = []  # the curvature columns of each flush
    heat = [np.full(1, np.nan)]  # no time stencil at the first state
    rows = []  # per state: f[0], f[-1]
    sample = None

    def flush(new: int) -> None:
        curvature.append(diagnostics_series(buf[-new:], params))
        heat.append(heat_residual_series(buf, params)[1:-1])
        del buf[:-2]

    for state in recorded_states(params, settings):
        buf.append(state)
        # every recorded f is nondecreasing, so its min and max are its
        # ends: the initial f sums monotone logistic steps, a stepped f is
        # a cumulative sum of positive increments
        rows.append((state.f[0], state.f[-1]))
        if sample is None and state.t >= half:
            sample = state
        if len(rows) % size == 0:
            flush(size)
    if len(rows) % size:
        flush(len(rows) % size)
    if len(rows) > 1:
        heat.append(np.full(1, np.nan))  # nor at the last
    min_f, max_f = np.array(rows).T.copy()
    diags = {name: np.concatenate([c[name] for c in curvature])
             for name in _CURVATURE_COLUMNS}
    diags.update(build_monitors(params, diags["t"], np.concatenate(heat),
                                min_f, max_f, diags["max_v"]))
    return FlowRun(params, settings, diags,
                   sample=state if sample is None else sample)


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Slope of the least-squares line through (ln x, ln y)."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# chart reconstruction


# `_local_profile` keeps its blend as a table.  The rows of a grid interval
# are the coefficients of s^0..s^14 of f less its anchor node and of f',
# f'', f'''; they are linear in six increments of `df`.  On an interior
# interval the two blended quintics differ by the sixth difference of the
# node values over 5! times s (s^2 - 1) (s^2 - 4), the product over the
# five nodes they share; that is the fifth difference of the increments,
# with the weights over 5! of `_FIFTH_DIFF`.  It is taken once per row,
# before the blend polynomial's large coefficients multiply it: folded
# into the window maps it is rounded once per coefficient, and the
# cancellation between them costs f' to f''' two to three digits.
_FIFTH_DIFF = np.array([-1.0, 5.0, -10.0, 10.0, -5.0, 1.0]) / 120.0
_POWERS = np.arange(15)


@functools.cache
def _window_basis() -> tuple[np.ndarray, np.ndarray]:
    """The maps (5, 4, 15, 6) from the increments df[j..j + 5] to the rows
    of the quintic through nodes j..j + 5 on the interval that starts at
    node j + 2 + o, indexed by o + 2, and the rows (4, 15) of the blend
    polynomial w(s) s (s^2 - 1) (s^2 - 4); both for h = 1.  Every sum is
    of integers, so each entry is exact or rounded once.  Built on first
    use, so that `import fiberflow` makes no LAPACK call."""
    deriv = np.diag(np.arange(1.0, 15.0), 1)
    ders = np.stack([np.linalg.matrix_power(deriv, d) for d in range(4)])
    # node m of a window less its anchor node 2: df[j] + ... + df[j + m - 1]
    # less df[j] + df[j + 1]
    cum = np.tri(6, 6, -1)
    cum = cum - cum[2]
    # the inverse Vandermonde matrices of the windows' nodes in s map node
    # values to coefficients; 120 times them are integer matrices (the
    # Lagrange denominators m! (5 - m)! divide 5!), which rounding recovers
    nodes = np.arange(6.0) - np.arange(0.0, 5.0)[:, None]
    lagrange = np.zeros((5, 15, 6))
    lagrange[:, :6] = np.rint(120.0 * np.linalg.inv(
        nodes[..., None] ** np.arange(6.0)))
    smooth = np.zeros(10)
    smooth[5:] = (126.0, -420.0, 540.0, -315.0, 70.0)
    blend = np.convolve(smooth, np.poly(np.arange(-2.0, 3.0))[::-1])
    return ders @ (lagrange @ cum)[:, None] / 120.0, ders @ blend


def _local_profile(state: FlowState
                   ) -> Callable[[np.ndarray], tuple[np.ndarray, ...]]:
    """f and its first three rho-derivatives from a C^4 blend of local
    quintics through the stored nodes, elementwise over an array of rho
    (a float gives 0-d arrays); numpy only.

    On [rho_i, rho_i+1], with s = (rho - rho_i)/h, the profile blends the
    degree-5 polynomials through the six nodes from j = i - 3 and from
    j = i - 2 (each window clipped to the grid) with the degree-9
    smoothstep w(s) = s^5 (126 - 420 s + 540 s^2 - 315 s^3 + 70 s^4),
    whose first four derivatives vanish at s = 0 and 1.  Both windows hold
    both ends of the interval, so the profile interpolates every node, is
    exact on quintics and is C^4 across nodes: on either side of rho_i+1
    it agrees with the window from i - 2 to fourth order.  At a clipped
    end the two windows coincide and nothing is blended.

    The blend on an interval is one polynomial of degree 14 in s.  Its
    coefficients, and those of its first three rho-derivatives, are taken
    relative to the anchor node f[j + 2] from the increments `df`, so the
    derivatives keep full relative precision in the tails.  They are row
    i of a table indexed by interval, filled the first time a call reaches
    interval i; a call then costs one contraction of the rows with the
    powers of s.  A row's arithmetic does not depend on how many rows a
    call fills, so a point's values depend only on the state and rho, not
    on the other points of the call or on earlier calls."""
    rho, f, df = state.rho, state.f, state.df
    rho0, h = float(rho[0]), float(rho[1] - rho[0])
    last = rho.size - 6
    scale = h ** -np.arange(4.0)[:, None]
    window, blend = _window_basis()
    window, blend = window * scale[..., None], blend * scale
    table = np.empty((rho.size - 1, 4, _POWERS.size))
    filled = np.zeros(rho.size - 1, dtype=bool)

    def prof(r):
        r = np.asarray(r, dtype=float)
        # truncation, not floor: the two differ below rho0 only, where the
        # index is clipped to 0 either way
        i = np.minimum(np.maximum(((r - rho0) / h).astype(int), 0),
                       rho.size - 2)
        s = (r - rho[i]) / h
        if not filled[i].all():
            # not np.unique, whose hash path imports numpy.ma
            reached = np.zeros(filled.size, dtype=bool)
            reached[i] = True
            rows = np.flatnonzero(reached & ~filled)
            j = np.minimum(np.maximum(rows - 3, 0), last)
            # the last window's sixth increment would lie past the grid;
            # no unblended row reads it
            inc = df[np.minimum(j[:, None] + np.arange(6), df.size - 1)]
            # einsum, not a matrix product, whose BLAS kernel rounds one
            # row and many rows differently; the clipped ends, where the
            # windows from i - 3 and i - 2 are one, do not blend
            diff = np.where((rows >= 3) & (rows <= last + 2),
                            np.einsum('rm,m->r', inc, _FIFTH_DIFF), 0.0)
            table[rows] = (np.einsum('rdkm,rm->rdk', window[rows - j], inc)
                           + diff[:, None, None] * blend)
            filled[rows] = True
        out = np.einsum('...dk,...k->d...', table[i],
                        s[..., None] ** _POWERS)
        out[0] += f[np.minimum(np.maximum(i - 3, 0), last) + 2]
        return out[0, ...], out[1, ...], out[2, ...], out[3, ...]

    return prof


def sampler_from_state(state: FlowState,
                       params: HirzebruchParams) -> ChartSampler:
    """The chart sampler of `calabi_sampler` on the C^4 local profile of
    the stored nodes (`_local_profile`); numpy only.  That metric is an
    honest member of the ansatz family (any smooth increasing profile is),
    so chart-level identity checks and finite-difference oracles on it are
    valid regardless of PDE accuracy.  Its base is Fubini-Study, so
    `ChartError` unless `params.base_scalar` is n(n+1)."""
    if params.base_scalar != params.n * (params.n + 1):
        raise ChartError(f"the chart's base is Fubini-Study, whose scalar is "
                         f"{params.n * (params.n + 1)}, not R_h = "
                         f"{params.base_scalar!r}")
    return calabi_sampler(_local_profile(state), n=params.n, k=params.k)
