"""Flow module: profiles, implicit stepping, monitors, closed forms."""

import hashlib
import itertools
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fiberflow import calabi_flow
from fiberflow.calabi_flow import (
    BadProfile,
    ConfigError,
    FlowError,
    FlowProblem,
    HirzebruchParams,
    PastSingularTime,
    ProductParams,
    RunSettings,
    StepRejected,
    WrongRegime,
    _local_profile,
    build_monitors,
    curvature_profiles,
    init_hirzebruch_profile,
    predict_max_time,
    product_closed_form,
    profile_diagnostics,
    recorded_states,
    run_flow,
    sampler_from_state,
    step_flow,
    stop_cause,
)
from fiberflow.chart_geometry import (
    ChartError,
    _stencil,
    calabi_sampler,
    check_kahler_compatibility,
    check_totally_geodesic,
    fd_ricci_oracle,
    point_to_complex,
    ricci_blocks,
    riemann_fd,
    sectional_from_riemann,
)
from fiberflow.oneill_curvature import (
    a_norm_sq,
    frame_point,
    grad_f_norm_sq,
    grad_ln_f_norm_sq,
    mixed_curvature_residuals,
    vertical_horizontal_curvature,
    vertical_sectional,
)
from fiberflow.harness_cli import load_config, main, parse_config
from conftest import (grid_member, grid_sweep, make_logistic,
                      reject_steps_after)
from test_golden_outputs import DIGESTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def default_run():
    return run_flow(HirzebruchParams(), RunSettings())


@pytest.fixture(scope="module")
def default_states():
    """The recorded states of `default_run`."""
    return list(recorded_states(HirzebruchParams(), RunSettings()))


@pytest.fixture(scope="module")
def product_run():
    return run_flow(ProductParams(), RunSettings())


# ---------------------------------------------------------------------------
# initial profiles


def test_init_profile_midpoint_on_grid():
    params = HirzebruchParams(grid_points=501)
    st = init_hirzebruch_profile(params)
    mid = np.argmin(np.abs(st.rho))
    assert st.rho[mid] == 0.0
    assert st.f[mid] == pytest.approx(1.5, abs=1e-12)


def test_init_profile_endpoint_closure():
    st = init_hirzebruch_profile(HirzebruchParams(L=20.0))
    assert abs(st.f[0] - 1.0) <= 1e-6
    assert abs(st.f[-1] - 2.0) <= 1e-6
    with pytest.raises(BadProfile):
        init_hirzebruch_profile(HirzebruchParams(L=10.0))


def test_init_profile_strictly_monotone():
    st = init_hirzebruch_profile(HirzebruchParams())
    assert np.all(st.df > 0.0)
    assert np.all(st.v_profile(1) > 0.0)


def test_init_profile_unknown_shape():
    with pytest.raises(BadProfile):
        HirzebruchParams(shape="sawtooth")


def test_skew_profile_runs_and_is_asymmetric():
    params = HirzebruchParams(grid_points=501, shape="skew")
    st = init_hirzebruch_profile(params)
    mid = np.argmin(np.abs(st.rho))
    assert np.all(st.df > 0.0)
    assert abs(st.f[0] - 1.0) <= 1e-6 and abs(st.f[-1] - 2.0) <= 1e-6
    assert abs(st.f[mid] - 1.5) > 1e-3


# SHA-256 of f.tobytes() + df.tobytes() of the initial state, recorded
# with numpy 2.4.6
INIT_DIGESTS = {
    ("tanh", 1, 512):
        "b9976ef4582e42abff540e7d78fbcea7915b87553deb013f313a0aee94372d7d",
    ("tanh", 2, 724):
        "a089ee61e04bf3010d5c5ef39cd9d8e14e7b0029fb75dcea037359fd69554a63",
    ("skew", 1, 512):
        "d11f611452a7821796ba5de207237ade6c490daf806bb767e8489f8acbfc3c74",
    ("skew", 2, 724):
        "b4f1201ebbe51fd661c0e175cdf4af167500b4d27d3fbb8205b5754d1eb83bb4",
}


@pytest.mark.parametrize("shape, k, grid", sorted(INIT_DIGESTS))
def test_init_profile_bytes_are_pinned(shape, k, grid):
    st = init_hirzebruch_profile(
        HirzebruchParams(k=k, grid_points=grid, shape=shape))
    digest = hashlib.sha256(st.f.tobytes() + st.df.tobytes()).hexdigest()
    assert digest == INIT_DIGESTS[shape, k, grid]


def test_init_profile_chart_residuals():
    params = HirzebruchParams()
    st = init_hirzebruch_profile(params)
    samp = sampler_from_state(st, params)
    rng = np.random.default_rng(3)
    for pt in samp.random_points(rng, 4):
        blocks = samp.evaluate(pt)
        assert check_kahler_compatibility(blocks) <= 1e-8
        assert check_totally_geodesic(blocks) <= 1e-8


@pytest.mark.parametrize("R_h", [-2.0, 0.0, 3.0])
def test_sampler_refuses_a_base_scalar_other_than_fubini_study(R_h):
    params = HirzebruchParams(R_h=R_h)
    st = init_hirzebruch_profile(HirzebruchParams())
    with pytest.raises(ChartError, match="R_h"):
        sampler_from_state(st, params)
    sampler_from_state(st, HirzebruchParams(R_h=2.0))


def test_local_profile_reproduces_a_quintic():
    """The six-node local polynomial is exact on a degree-5 polynomial, for
    f and its first three derivatives, in the interior and in the clipped
    windows of the first and last nodes."""
    quintic = np.polynomial.Polynomial([1.5, 0.8, -0.3, 0.25, 0.1, -0.04])
    rho = np.linspace(-1.0, 1.5, 24)
    f = quintic(rho)
    state = calabi_flow.FlowState(t=0.0, rho=rho, f=f, lower=f[0],
                                  upper=f[-1], df=np.diff(f))
    prof = _local_profile(state)
    where = np.sort(np.concatenate([rho, (rho[1:] + rho[:-1]) / 2]))
    got = np.array([prof(r) for r in where])
    for d in range(4):
        want = quintic.deriv(d)(where)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got[:, d] - want)) <= 1e-10 * scale, d


@pytest.mark.parametrize("shape", ["tanh", "skew"])
def test_local_profile_is_continuous_across_nodes(shape):
    """f, f', f'' and f''' have equal one-sided limits at every node: the
    two sides differ only by the change over 2e-9 h, far below 1e-8 of
    each derivative's size.  A profile that switches its six-node window
    at a node jumps there in f' and f'''."""
    st = init_hirzebruch_profile(HirzebruchParams(shape=shape))
    prof = _local_profile(st)
    eps = 1e-9 * (st.rho[1] - st.rho[0])
    below = np.array([prof(r - eps) for r in st.rho[1:-1]])
    above = np.array([prof(r + eps) for r in st.rho[1:-1]])
    scale = np.max(np.abs(below), axis=0)
    assert np.all(np.abs(above - below) <= 1e-8 * scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracles_agree_on_the_local_profile_next_to_nodes(n):
    """`fd_ricci_oracle` and `mixed_curvature_residuals` meet the oracle
    tolerances of the acceptance gate (Ricci 1e-4 relative, mixed 1e-3)
    at seeded points whose rho lies within 1e-3 of a node, so that every
    stencil crosses it."""
    st = init_hirzebruch_profile(HirzebruchParams(n=n))
    samp = calabi_sampler(_local_profile(st), n=n, k=1)
    rng = np.random.default_rng(40 + n)
    for p in samp.random_points(rng, 3, margin=0.1):
        z, xi = point_to_complex(p)
        rho = np.log(abs(xi) ** 2) + np.log(1.0 + np.vdot(z, z).real)
        node = st.rho[np.argmin(np.abs(st.rho - rho))]
        # scaling xi moves rho alone; the margin keeps p in the domain
        p[-2:] *= np.exp((node + rng.uniform(-1e-3, 1e-3) - rho) / 2.0)
        ric = ricci_blocks(samp.evaluate(p)).assemble()
        oracle = fd_ricci_oracle(samp, p, richardson=True).assemble()
        assert np.max(np.abs(ric - oracle)) <= 1e-4 * np.max(np.abs(ric))
        rlow = riemann_fd(samp.metric_fn(), p, 1e-3)
        hhv, vvh = mixed_curvature_residuals(frame_point(samp, p),
                                             step=1e-3, rlow=rlow)
        assert max(hhv, vvh) <= 1e-3


@pytest.mark.parametrize("grid_points", [512, 1024])
def test_local_profile_tracks_the_quintic_spline(grid_points):
    """Against the interpolating quintic spline of the same nodes, the
    blended local quintics differ by O(h^3) in f''' (about 0.7 h^3 at these
    grids) and by less in f, f' and f''.  scipy.interpolate is imported
    here only: no module of the package uses it."""
    from scipy.interpolate import make_interp_spline

    st = init_hirzebruch_profile(HirzebruchParams(grid_points=grid_points))
    h = st.rho[1] - st.rho[0]
    spline = make_interp_spline(st.rho, st.f, k=5)
    where = np.linspace(st.rho[0], st.rho[-1], 4001)
    prof = _local_profile(st)
    got = np.array([prof(r) for r in where])
    for d in range(4):
        err = np.max(np.abs(got[:, d] - spline.derivative(d)(where)))
        assert err <= h ** 3, d


# The blend of `_local_profile` in exact rational arithmetic on the stored
# floats, as its docstring states it: the quintic through the six nodes
# from j, summed from `df` and less its anchor node j + 2, evaluated at the
# offset u from that node; the smoothstep w; Leibniz's rule.  Coefficient
# lists run from the constant term up.


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            out[p + q] += x * y
    return out


def _derivatives(poly):
    out = [poly]
    for _ in range(3):
        out.append([p * c for p, c in enumerate(out[-1])][1:])
    return out


def _value(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _lagrange(m):
    poly = [Fraction(1)]
    for node in range(-2, 4):
        if node != m:
            poly = _poly_mul(poly, [Fraction(-node, m - node),
                                    Fraction(1, m - node)])
    return poly


_LAGRANGE = [_derivatives(_lagrange(m)) for m in range(-2, 4)]
_SMOOTHSTEP = _derivatives([Fraction(0)] * 5 + [Fraction(c) for c in
                                                (126, -420, 540, -315, 70)])


def _exact_blend(state, r):
    """(f, f', f'', f''') of the blend at the float `r` as Fractions."""
    rho, f, df = state.rho, state.f, state.df
    last = rho.size - 6
    h = float(rho[1] - rho[0])
    i = min(max(int((r - rho[0]) / h), 0), rho.size - 2)
    s = (Fraction(float(r)) - Fraction(float(rho[i]))) / Fraction(h)
    j = min(max(i - 3, 0), last)

    def window(w, u):
        y = [Fraction(0)]
        for inc in df[w:w + 5]:
            y.append(y[-1] + Fraction(float(inc)))
        return [sum((y[m] - y[2]) * _value(_LAGRANGE[m][d], u)
                    for m in range(6)) / Fraction(h) ** d for d in range(4)]

    a = window(j, s + (i - j - 2))
    out = list(a)
    if j != min(max(i - 2, 0), last):
        b = window(j + 1, s + (i - j - 3))
        d = [b[0] - a[0] + Fraction(float(df[j + 2]))] + [
            b[p] - a[p] for p in (1, 2, 3)]
        w = [_value(_SMOOTHSTEP[p], s) / Fraction(h) ** p for p in range(4)]
        out = [a[0] + w[0] * d[0],
               a[1] + w[0] * d[1] + w[1] * d[0],
               a[2] + w[0] * d[2] + 2 * w[1] * d[1] + w[2] * d[0],
               a[3] + w[0] * d[3] + 3 * (w[1] * d[2] + w[2] * d[1])
               + w[3] * d[0]]
    out[0] += Fraction(float(f[j + 2]))
    return out


# The largest error of the blend as it was evaluated before it became a
# table (Horner's rule on two six-node windows, then Leibniz's rule), at
# the points of the test below over both shapes and k = 1, 3: f, f', f'',
# f''' per grid and region.  In the centre (|rho| <= 8) f is absolute and
# each derivative is over its largest size on the grid; in the tails
# (|rho| > 8) and on the clipped end intervals every error is relative.
# The table may err by twice these.
_BLEND_ERRORS_BEFORE = {
    512: {"centre": (5.0e-16, 1.6e-15, 3.5e-13, 1.3e-11),
          "tails": (9.7e-17, 2.9e-15, 1.4e-13, 1.2e-11),
          "ends": (1.1e-16, 6.5e-15, 2.3e-13, 1.0e-11)},
    2048: {"centre": (4.3e-16, 8.8e-16, 5.0e-13, 2.5e-10),
           "tails": (1.1e-16, 1.9e-15, 5.0e-13, 1.6e-10),
           "ends": (1.0e-16, 7.3e-15, 3.9e-13, 1.6e-10)},
}


@pytest.mark.parametrize("grid_points", [512, 2048])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", ["tanh", "skew"])
def test_local_profile_table_matches_the_exact_blend(shape, k, grid_points):
    """The table's f and derivatives against the exact blend of the same
    stored floats, within twice the error of the evaluation it replaced,
    in the centre, in the tails and on the clipped end intervals."""
    st = init_hirzebruch_profile(HirzebruchParams(shape=shape, k=k,
                                                  grid_points=grid_points))
    prof = _local_profile(st)
    rng = np.random.default_rng(0)
    h = st.rho[1] - st.rho[0]
    last = grid_points - 2
    points = {
        "centre": rng.uniform(-8.0, 8.0, 20),
        "tails": np.concatenate([rng.uniform(-19.9, -8.0, 10),
                                 rng.uniform(8.0, 19.9, 10)]),
        "ends": np.concatenate([st.rho[i] + h * np.array([0.1, 0.5, 0.9])
                                for i in (0, 1, 2, last - 2, last - 1,
                                          last)]),
    }
    size = [np.max(np.abs(col)) for col in prof(st.rho)]
    for region, where in points.items():
        for r, got in zip(where, np.array(prof(where)).T):
            want = _exact_blend(st, r)
            for d in range(4):
                err = abs(Fraction(float(got[d])) - want[d])
                if region != "centre":
                    err /= abs(want[d])
                elif d > 0:
                    err /= Fraction(float(size[d]))
                bound = 2.0 * _BLEND_ERRORS_BEFORE[grid_points][region][d]
                assert err <= bound, (region, d, float(err))


def test_local_profile_takes_a_float_to_zero_d_arrays():
    prof = _local_profile(init_hirzebruch_profile(HirzebruchParams()))
    for got, want in zip(prof(0.3), prof(np.array([0.3]))):
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == want[0]


@pytest.mark.parametrize("n", [1, 3])
def test_local_profile_row_is_the_same_alone_and_in_a_stencil(n):
    """Each point of a curvature stencil gets the same bits alone as in
    the stencil's batch, whether or not its interval's row was filled by
    an earlier call."""
    params = HirzebruchParams(n=n)
    st = init_hirzebruch_profile(params)
    samp = sampler_from_state(st, params)
    point = samp.random_points(np.random.default_rng(n), 1)[0]
    stencil = _stencil(point, 1e-3)[0]
    z, xi = point_to_complex(stencil)
    rho = np.log(np.abs(xi) ** 2) + np.log(1.0 + np.sum(np.abs(z) ** 2,
                                                        axis=1))
    batch = np.array(_local_profile(st)(rho))
    warm = _local_profile(st)
    warm(rho)
    for p, r in enumerate(rho):
        for prof in (_local_profile(st), warm):
            assert np.array_equal(np.array(prof(r)), batch[:, p])
            assert np.array_equal(np.array(prof(rho[p:p + 1]))[:, 0],
                                  batch[:, p])


def test_local_profile_values_do_not_depend_on_call_history():
    """Seeded points get the same bits from a fresh profile one at a time,
    in one batch, in shuffled batches and after a warm-up batch that
    fills every interval's row: a row's arithmetic does not depend on how
    many rows the call that fills it fills."""
    st = init_hirzebruch_profile(HirzebruchParams(grid_points=512))
    rng = np.random.default_rng(5)
    rho = rng.uniform(-21.0, 21.0, 300)
    batch = np.array(_local_profile(st)(rho))
    alone = _local_profile(st)
    assert np.array_equal(np.array([alone(r) for r in rho]).T, batch)
    shuffled = _local_profile(st)
    got = np.empty_like(batch)
    for part in np.array_split(rng.permutation(rho.size), 7):
        got[:, part] = shuffled(rho[part])
    assert np.array_equal(got, batch)
    warm = _local_profile(st)
    warm(np.linspace(-21.0, 21.0, 4096))
    assert np.array_equal(np.array(warm(rho)), batch)
    assert np.array_equal(np.array([warm(r) for r in rho[:20]]).T,
                          batch[:, :20])


# ---------------------------------------------------------------------------
# stepping


def _step(problem, state, dt):
    """`step_flow` by dt from a FlowState, to the FlowState it reaches."""
    u = problem._pack(state)
    t, u, _, f = step_flow(problem, state.t, u, problem._phi(u), dt)
    return problem._unpack(t, u, f)


def test_single_step_endpoint_rates():
    params = HirzebruchParams()
    problem = FlowProblem(params)
    st = init_hirzebruch_profile(params)
    s2 = _step(problem, st, 0.01)
    assert (s2.lower - st.lower) / 0.01 == pytest.approx(-1.0, rel=0.02)
    assert (s2.upper - st.upper) / 0.01 == pytest.approx(-3.0, rel=0.02)
    assert np.all(s2.df > 0.0)


def test_endpoint_rates_from_interior_drift():
    # stations at rho = -L/2 and +L/2 track the endpoint motion with
    # exponentially small bias, measuring the PDE rather than the
    # imposed boundary rows
    params = HirzebruchParams(L=14.0, grid_points=512)
    states = list(recorded_states(params, RunSettings(dt_max=0.005)))
    rho = states[0].rho
    i_lo = int(np.argmin(np.abs(rho + 7.0)))
    i_hi = int(np.argmin(np.abs(rho - 7.0)))
    ts = np.array([s.t for s in states])
    sel = (ts >= 0.02) & (ts <= 0.1)
    lo = np.polyfit(ts[sel], [s.f[i_lo] for s in states if 0.02 <= s.t <= 0.1], 1)[0]
    hi = np.polyfit(ts[sel], [s.f[i_hi] for s in states if 0.02 <= s.t <= 0.1], 1)[0]
    assert lo == pytest.approx(-1.0, rel=0.02)
    assert hi == pytest.approx(-3.0, rel=0.02)


def test_interior_rhs_translation_equivariance():
    n_pts = 64
    j = np.arange(n_pts)
    f = np.exp(0.3 * np.sin(2.0 * np.pi * j / n_pts + 0.37))
    assert np.all(np.abs(np.roll(f, -1) - np.roll(f, 1)) > 0.0)
    # drho = 0.17, k = n = 1, sink R_h / n = 2
    problem = FlowProblem(HirzebruchParams(L=0.17 * (n_pts + 1) / 2.0,
                                           grid_points=n_pts + 2))
    wrap = np.arange(-1, n_pts + 1) % n_pts

    def interior_rates(g):
        # periodic padding by one node each side; the kernel is fed the
        # nodal values and the increments directly
        padded = g[wrap]
        return problem._rates(padded, padded[1:] - padded[:-1])[0][1:-1]

    shifted_then_rhs = interior_rates(np.roll(f, 5))
    rhs_then_shifted = np.roll(interior_rates(f), 5)
    assert np.array_equal(shifted_then_rhs, rhs_then_shifted)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_newton_jacobian_matches_central_differences(k, n):
    problem = FlowProblem(HirzebruchParams(k=k, n=n, L=4.0, grid_points=64))
    f = k * (1.0 + 1.0 / (1.0 + np.exp(-problem.rho)))

    def rates(g):
        return problem._rates(g, np.diff(g))[0]

    coeff = 0.25
    _, stencils = problem._rates(f, np.diff(f))
    ab = problem._newton_matrix(coeff, f, stencils)
    newton = (np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1))
    jac = (np.eye(f.size) - newton) / coeff

    eps = 1e-6
    jac_fd = np.empty_like(jac)
    for col in range(f.size):
        e = np.zeros_like(f)
        e[col] = eps
        jac_fd[:, col] = (rates(f + e) - rates(f - e)) / (2.0 * eps)

    assert np.all(jac_fd[[0, -1]] == 0.0)
    assert np.all(jac[[0, -1]] == 0.0)
    interior = slice(1, -1)
    err = np.max(np.abs(jac[interior] - jac_fd[interior]))
    assert err <= 1e-6 * np.max(np.abs(jac_fd[interior]))


def test_a_step_is_a_function_of_its_inputs(monkeypatch):
    # Two runs stepped in turn on one problem, a rejected attempt between
    # them, take the bits each takes alone on a fresh problem.
    params = HirzebruchParams(grid_points=128)
    # three Newton iterations are too few for dt = 0.2 from these states,
    # so step_flow halves before it succeeds
    monkeypatch.setattr(calabi_flow, "NEWTON_MAX_ITER", 3)
    starts = [FlowProblem._pack(init_hirzebruch_profile(params)),
              FlowProblem._pack(init_hirzebruch_profile(
                  replace(params, shape="skew")))]

    def steps(problems):
        """Per run: u, phi(u), then (t, u, p, f) after a step of 0.005,
        then a rejected step_once of 0.2, and (t, u, p, f) after a step of
        0.2; the problem of each call is next(problems)."""
        out = [[u, next(problems)._phi(u)] for u in starts]
        for run in out:
            run += step_flow(next(problems), 0.0, run[0], run[1], 0.005)
        for run in out:
            with pytest.raises(StepRejected):
                next(problems).step_once(run[3], run[4], 0.2)
        for run in out:
            run += step_flow(next(problems), *run[2:5], 0.2)
        return out

    shared = FlowProblem(params)
    interleaved = steps(itertools.repeat(shared))
    alone = steps(FlowProblem(params) for _ in itertools.count())
    for got, want in zip(interleaved, alone):
        assert got[2] == want[2] and got[6] == want[6]
        assert all(np.array_equal(a, b) for a, b in zip(got, want)
                   if isinstance(a, np.ndarray))
        # the rates a step returns are phi of the u it returns
        for u, p in ((got[3], got[4]), (got[7], got[8])):
            assert np.array_equal(p, shared._phi(u))


def test_a_run_evaluates_phi_once(monkeypatch, tmp_path):
    # each step starts from the rates that the step before returned
    calls = []
    real = FlowProblem._phi
    monkeypatch.setattr(FlowProblem, "_phi",
                        lambda self, u: calls.append(1) or real(self, u))
    assert main(["run", str(CONFIGS / "hirzebruch.cfg"),
                 "--output", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_stepper_is_second_order_in_time():
    # TR-BDF2 is second order: the profiles at t = 0.04 after m = 2, 4,
    # ..., 32 equal steps from the initial state differ by a quarter as
    # much at each doubling of m
    params = HirzebruchParams(grid_points=128)
    start = FlowProblem._pack(init_hirzebruch_profile(params))
    ends = []
    for m in (2, 4, 8, 16, 32):
        problem = FlowProblem(params)
        t, u, p = 0.0, start, problem._phi(start)
        for _ in range(m):
            t, u, p, f = step_flow(problem, t, u, p, 0.04 / m)
        ends.append(f)
    diffs = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
    ratios = np.divide(diffs[:-1], diffs[1:])
    assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios


class _HeatProblem(calabi_flow._TRBDF2):
    """The semi-discrete heat equation u_t = u_xx on the 32 interior nodes
    of (0, pi), zero at both ends: phi(u) = A u, A the tridiagonal
    second difference."""

    def __init__(self, nodes=32):
        super().__init__(nodes)
        self.h = np.pi / (nodes + 1)
        self.x = self.h * np.arange(1, nodes + 1)
        off = np.ones(nodes - 1)
        self.a = (np.diag(np.full(nodes, -2.0)) + np.diag(off, 1)
                  + np.diag(off, -1)) / self.h ** 2

    def _eval(self, u):
        return self.a @ u, None

    def _correction(self, coeff, aux, resid):
        return np.linalg.solve(np.eye(resid.size) - coeff * self.a, resid)

    def _valid(self, u):
        return bool(np.isfinite(u).all())


def test_trbdf2_core_on_the_heat_equation():
    # The core alone, on a linear problem with a closed form: sin x is an
    # eigenvector of the second difference, so u = e^(lam t) sin x.
    heat = _HeatProblem()
    lam = -4.0 / heat.h ** 2 * np.sin(heat.h / 2.0) ** 2
    start = np.sin(heat.x)
    errors = []
    for m in (4, 8, 16, 32):
        u, p = start, heat._eval(start)[0]
        for _ in range(m):
            u, p, _ = heat.step_once(u, p, 0.5 / m)
        errors.append(np.max(np.abs(u - np.exp(lam * 0.5) * start)))
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios
    # L-stable: one step at dt |lam| = 1e4 damps the mode; a trapezoid
    # second stage would leave it near its size
    u, _, _ = heat.step_once(start, heat._eval(start)[0], -1e4 / lam)
    damping = np.max(np.abs(u)) / np.max(np.abs(start))
    assert damping <= 1e-3, damping


class _RejectingHeatProblem(_HeatProblem):
    """The heat problem whose first stage solve is rejected."""

    rejections = 1

    def _newton(self, coeff, rhs_const, guess):
        if self.rejections:
            self.rejections -= 1
            raise StepRejected("forced")
        return super()._newton(coeff, rhs_const, guess)


def _same_bits(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_step_flow_serves_any_problem_on_the_core():
    # step_flow knows the problem only through the core: on the heat
    # problem it is one step_once, or two at dt/2 after a rejected stage
    start = np.sin(_HeatProblem().x)
    p = _HeatProblem()._phi(start)
    dt = 0.01
    t, *stepped = step_flow(_HeatProblem(), 0.5, start, p, dt)
    assert t == 0.5 + dt
    assert _same_bits(stepped, _HeatProblem().step_once(start, p, dt))
    heat = _RejectingHeatProblem()
    t, *stepped = step_flow(heat, 0.5, start, p, dt)
    assert heat.rejections == 0 and t == 0.5 + dt
    u, q, _ = _HeatProblem().step_once(start, p, dt / 2)
    assert _same_bits(stepped, _HeatProblem().step_once(u, q, dt / 2))


def test_kept_results_survive_later_calls_on_the_same_problem():
    # The Newton kernel works in buffers allocated once per FlowProblem;
    # no array a caller keeps may be one of them.
    params = HirzebruchParams(grid_points=128)
    problem = FlowProblem(params)
    start = init_hirzebruch_profile(params)
    held = {}
    rates, stencils = problem._rates(start.f, start.df)
    held["rates"] = rates
    held.update((f"stencil {i}", s) for i, s in enumerate(stencils))
    copies = {name: arr.copy() for name, arr in held.items()}
    # the Jacobian temporaries and bands are not the stencils they read
    problem._newton_matrix(0.01, start.f, stencils)
    assert all(np.array_equal(held[name], copies[name]) for name in held)
    # the stencils are the kernel's buffers, valid until its next call
    del held["stencil 0"], held["stencil 1"], held["stencil 2"]

    u = problem._pack(start)
    held.update(zip(("step_once u", "step_once p", "step_once f"),
                    problem.step_once(u, problem._phi(u), 0.01)))
    # two consecutive stepped states of a run, and one of this problem
    states = recorded_states(params)
    next(states)  # the initial state
    for i in range(2):
        state = next(states)
        held[f"recorded {i} f"], held[f"recorded {i} df"] = state.f, state.df
    stepped = _step(problem, start, 0.01)
    held["stepped f"], held["stepped df"] = stepped.f, stepped.df
    copies = {name: arr.copy() for name, arr in held.items()}

    next(states)
    next(states)
    state = stepped
    for _ in range(3):
        state = _step(problem, state, 0.01)
        u = problem._pack(state)
        problem.step_once(u, problem._phi(u), 0.02)
        problem._rates(state.f, state.df)
        problem._phi(problem._pack(start))
    for name, arr in held.items():
        assert np.array_equal(arr, copies[name]), name


# -- the tridiagonal solve ---------------------------------------------------


def _gtsv():
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs("gtsv", dtype=np.float64)


def _pivoting_system(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random (1, 1) banded system.  Its first diagonal entry is a tenth of
    the one below it, so elimination interchanges rows at the first step;
    at N = 64 and 2048 the random bands make it interchange about every
    other step as well."""
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((3, n))
    ab[1, 0] = 0.1 * ab[2, 0]
    ab[0, 0] = ab[2, -1] = 0.0  # outside the matrix
    return ab, rng.standard_normal(n)


@pytest.mark.parametrize("n", [3, 64, 2048])
def test_solve_banded_matches_scipy_bit_for_bit(n):
    from scipy.linalg import solve_banded as scipy_solve_banded

    ab, b = _pivoting_system(n, seed=n)
    assert abs(ab[1, 0]) < abs(ab[2, 0])
    want = scipy_solve_banded((1, 1), ab, b)
    rhs = b.copy()
    got = calabi_flow.solve_banded(_gtsv(), ab.copy(), rhs)
    assert np.shares_memory(got, rhs)  # solved in the storage of b
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["upper", "diagonal", "lower", "rhs"])
def test_solve_banded_rejects_non_finite_input(where, bad):
    ab, b = _pivoting_system(64, seed=1)
    row = {"upper": ab[0], "diagonal": ab[1], "lower": ab[2], "rhs": b}
    row[where][10] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        calabi_flow.solve_banded(_gtsv(), ab, b)


def test_solve_banded_singular_matrix_raises_linalg_error():
    from scipy.linalg import solve_banded as scipy_solve_banded

    ab, b = _pivoting_system(64, seed=2)
    ab[1, 5] = ab[0, 5] = ab[2, 5] = 0.0  # column 5 of the matrix is zero
    with pytest.raises(np.linalg.LinAlgError):
        scipy_solve_banded((1, 1), ab, b)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        calabi_flow.solve_banded(_gtsv(), ab, b)


def test_newton_solves_are_counted_through_module_solve_banded(monkeypatch):
    # The benchmark's tracer (perfbench/tracing.py) counts Newton solves by
    # wrapping this module attribute, so `_newton` must look it up on every
    # call; 223 is the count perfbench/selfcheck.py pins for this config.
    config = load_config(CONFIGS / "hirzebruch.cfg")
    calls = []
    real = calabi_flow.solve_banded
    monkeypatch.setattr(calabi_flow, "solve_banded",
                        lambda *args: calls.append(1) or real(*args))
    run_flow(config.params, config.settings)
    assert len(calls) == 223


@pytest.fixture
def fresh_dgtsv():
    """Drop the cached LAPACK routine before and after the test, so the
    test loads it and no later test sees a monkeypatched route."""
    calabi_flow._dgtsv.cache_clear()
    yield
    calabi_flow._dgtsv.cache_clear()


def _bundled_run_digests(out: Path) -> dict[str, str]:
    assert main(["run", str(CONFIGS / "hirzebruch.cfg"),
                 "--output", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv")) + [out / "report.json"]}


def test_direct_dgtsv_solves_the_bundled_newton_systems_like_scipy(
        monkeypatch, fresh_dgtsv):
    systems = []
    real_init = FlowProblem.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        gtsv = self._gtsv

        def recording(dl, d, du, b, **flags):
            systems.append([x.copy() for x in (dl, d, du, b)])
            return gtsv(dl, d, du, b, **flags)
        self._gtsv = recording

    monkeypatch.setattr(FlowProblem, "__init__", recording_init)
    config = load_config(CONFIGS / "hirzebruch.cfg")
    run_flow(config.params, config.settings)
    assert len(systems) == 223
    direct, lapack = calabi_flow._dgtsv(), _gtsv()
    assert direct is lapack
    for system in systems:
        want = lapack(*[x.copy() for x in system])
        got = direct(*[x.copy() for x in system])
        assert want[4] == got[4] == 0
        assert np.array_equal(got[3], want[3])


def test_failed_direct_load_falls_back_to_get_lapack_funcs(
        tmp_path, monkeypatch, fresh_dgtsv):
    import scipy.linalg

    class NoFinder:
        @staticmethod
        def find_spec(name, path=None, target=None):
            return None

    calls = []
    real = scipy.linalg.get_lapack_funcs
    monkeypatch.setattr(calabi_flow, "PathFinder", NoFinder)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        lambda *args, **kw: calls.append(args) or
                        real(*args, **kw))
    assert _bundled_run_digests(tmp_path / "run") == DIGESTS["hirzebruch"]
    assert calls == [("gtsv",)]


def test_direct_load_after_scipy_linalg_keeps_the_golden_bytes(
        tmp_path, fresh_dgtsv):
    import scipy.linalg  # the direct load below comes after this import

    assert "scipy.linalg" in sys.modules
    assert _bundled_run_digests(tmp_path / "run") == DIGESTS["hirzebruch"]
    assert calabi_flow._dgtsv() is _gtsv()


def test_v_evolution_consistency(default_run, default_states):
    params = default_run.params
    a, b = default_states[30], default_states[31]
    dt = b.t - a.t
    va, vb = a.v_profile(params.k), b.v_profile(params.k)
    vdot = (vb - va) / dt
    d = a.rho[1] - a.rho[0]
    mids = []
    for st, v in ((a, va), (b, vb)):
        w = np.log(v) + params.n * np.log(st.f)
        w2 = np.full_like(w, np.nan)
        w2[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / d ** 2
        mids.append(w2)
    resid = vdot - 0.5 * (mids[0] + mids[1])
    mask = np.abs(a.rho) <= 10.0
    assert np.nanmax(np.abs(resid[mask])) <= 2e-3


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
def test_step_flow_rejects_bad_dt(dt):
    params = HirzebruchParams()
    problem = FlowProblem(params)
    st = init_hirzebruch_profile(params)
    with pytest.raises(FlowError):
        _step(problem, st, dt)


def test_oversized_step_is_rejected_not_silently_accepted(monkeypatch):
    monkeypatch.setattr(calabi_flow, "MAX_HALVINGS", 0)
    params = HirzebruchParams()
    problem = FlowProblem(params)
    st = init_hirzebruch_profile(params)
    with pytest.raises(StepRejected):
        _step(problem, st, 5.0)


def test_run_settings_validation():
    # rejected when made, so no run can start from them
    with pytest.raises(ConfigError):
        RunSettings(dt_max=-0.1)
    with pytest.raises(ConfigError):
        RunSettings(stop_margin=0.0)
    with pytest.raises(ConfigError):
        RunSettings(time_frac=1.5)
    with pytest.raises(ConfigError, match="dt_fixed"):
        RunSettings(dt_fixed=0.0)
    with pytest.raises(ConfigError, match="dt_fixed"):
        replace(RunSettings(), dt_fixed=0.0)


def test_non_finite_settings_rejected():
    with pytest.raises(ConfigError, match="dt_max"):
        RunSettings(dt_max=float("nan"))
    with pytest.raises(BadProfile, match="f0"):
        ProductParams(f0=float("inf"))
    with pytest.raises(BadProfile, match="b0"):
        HirzebruchParams(b0=float("inf"))


def test_run_memory_does_not_grow_with_the_recorded_states():
    # One 1024-node sweep member stopped at two margins, the second with
    # about twice the recorded states.  A run that kept its states would
    # peak 16 KB (f and df) higher per extra state, about 3.7 MB here.
    run_flow(HirzebruchParams(grid_points=64), RunSettings(stop_margin=0.45))
    peaks, counts = [], []
    for margin in ("0.375", "0.25"):
        config = parse_config(grid_member(1024).replace(
            "stop_margin = 0.25", f"stop_margin = {margin}"))
        tracemalloc.start()
        try:
            run = run_flow(config.params, config.settings)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        counts.append(run.diagnostics["t"].size)
    assert counts[1] >= 1.9 * counts[0]
    assert abs(peaks[1] - peaks[0]) <= 2 ** 20


def test_run_loop_raises_when_a_step_does_not_advance(monkeypatch):
    calls = []

    def stalled(problem, t, u, p, dt):
        calls.append(dt)
        if len(calls) == 3:
            raise AssertionError("run loop kept stepping a stalled state")
        return t, u, p, None

    monkeypatch.setattr(calabi_flow, "step_flow", stalled)
    with pytest.raises(FlowError, match="did not advance"):
        run_flow(HirzebruchParams(grid_points=64))


# ---------------------------------------------------------------------------
# full runs and monitors


def test_run_reaches_stop_with_increasing_times(default_run):
    assert default_run.stop_reason == "time_exhausted"
    ts = default_run.diagnostics["t"]
    assert np.all(ts[1:] > ts[:-1])


def test_observed_vs_predicted_time(default_run):
    ratio = default_run.T_observed / default_run.T_predicted
    assert 0.98 <= ratio <= 1.02


def test_heat_residual_small(default_run):
    worst = np.nanmax(default_run.diagnostics["heat_residual"])
    assert worst <= 1e-3


def test_heat_residual_convergence_order(tmp_path):
    summary = grid_sweep(tmp_path)
    assert summary["heat_residual_order"] >= 1.9
    resid = [m["heat_residual_max"] for m in summary["members"]]
    assert resid[0] > resid[-1]


def test_max_f_decays_at_sink_rate(default_run):
    assert np.all(default_run.diagnostics["max_f_slack"] <= 1e-9)
    maxima = default_run.diagnostics["max_f"]
    assert np.all(maxima[1:] <= maxima[:-1] + 1e-12)


def test_min_f_stays_above_floor(default_run):
    # lower endpoint drains at rate k - R_h/n = -1, so the floor over
    # the whole run is its value at the singular time: a0 - 1*T = 0.5
    assert np.all(default_run.diagnostics["min_f"] >= 0.5 * 0.98)


def test_gradient_bound_monitor(default_run):
    assert np.all(default_run.diagnostics["grad_bound_ok"] == 1.0)
    sups = default_run.diagnostics["grad_f_sq_sup"]
    assert sups[0] == pytest.approx(0.5, rel=0.01)
    assert sups[-1] < sups[0]


def test_width_decay_rate(default_run):
    ts = default_run.diagnostics["t"]
    ws = default_run.diagnostics["width"]
    slope = np.polyfit(ts, ws, 1)[0]
    k = default_run.params.k
    assert slope == pytest.approx(-2.0 * k, rel=0.02)
    # and the width is exactly linear: residual of the fit is tiny
    fit = np.polyval(np.polyfit(ts, ws, 1), ts)
    assert np.max(np.abs(fit - ws)) <= 1e-8


def test_width_decay_rate_k2():
    params = HirzebruchParams(k=2, grid_points=256)
    run = run_flow(params, RunSettings(stop_margin=0.2))
    ts = run.diagnostics["t"]
    ws = run.diagnostics["width"]
    slope = np.polyfit(ts, ws, 1)[0]
    assert slope == pytest.approx(-4.0, rel=0.02)


@pytest.mark.parametrize("k,shape", [(1, "tanh"), (2, "skew")])
def test_max_v_of_the_v_floor_stop_equals_max_of_v_profile(k, shape):
    states = list(recorded_states(HirzebruchParams(k=k, shape=shape),
                                  RunSettings()))
    d = states[0].rho[1] - states[0].rho[0]
    got = [calabi_flow._max_v(s.df, d, k) for s in states]
    assert got == [np.max(s.v_profile(k)) for s in states]


def test_v_floor_stop_reason(monkeypatch):
    monkeypatch.setattr(calabi_flow, "V_FLOOR", 0.3)
    run = run_flow(HirzebruchParams(), RunSettings())
    assert run.stop_reason == "fiber_collapsed"
    assert run.diagnostics["t"][-1] < run.T_predicted - 0.05


# name: (params, settings, V_FLOOR or None, step solves before every
# further one is rejected or None, the cause the loop stopped for)
STOP_CAUSES = {
    "hirzebruch-time": (HirzebruchParams(grid_points=64), RunSettings(),
                        None, None, "time_exhausted"),
    "hirzebruch-collapse": (HirzebruchParams(grid_points=64), RunSettings(),
                            0.3, None, "fiber_collapsed"),
    "hirzebruch-rejected": (HirzebruchParams(grid_points=64), RunSettings(),
                            None, 20, "step_rejected"),
    "hirzebruch-rejected-first-step": (HirzebruchParams(grid_points=64),
                                       RunSettings(), None, 0,
                                       "step_rejected"),
    "product-time": (ProductParams(), RunSettings(), None, None,
                     "time_exhausted"),
    # c = 2 (T - t) falls below V_FLOOR before the time runs out
    "product-collapse": (ProductParams(), RunSettings(stop_margin=1e-7),
                         None, None, "fiber_collapsed"),
    # the last step both runs out of time and collapses c: the collapse
    # rule comes first in the loop
    "product-collapse-last-step": (
        ProductParams(), RunSettings(dt_fixed=0.1, stop_margin=1e-7),
        None, None, "fiber_collapsed"),
}


@pytest.mark.parametrize("name", list(STOP_CAUSES))
def test_stop_cause_names_the_rule_that_stopped_the_loop(name, monkeypatch,
                                                         caplog):
    params, settings, v_floor, reject_after, cause = STOP_CAUSES[name]
    if v_floor is not None:
        monkeypatch.setattr(calabi_flow, "V_FLOOR", v_floor)
    if reject_after is not None:
        reject_steps_after(monkeypatch, reject_after)
    run = run_flow(params, settings)
    diag = run.diagnostics
    assert stop_cause(params, settings, diag) == run.stop_reason == cause
    # what each rule of the loop leaves in the table
    t = diag["t"]
    aim = run.T_predicted - settings.stop_margin
    proxy = (diag["width"] if isinstance(params, ProductParams)
             else 4.0 * params.k * diag["max_v"])
    floor = calabi_flow.V_FLOOR
    if cause == "step_rejected":
        assert t.size == reject_after + 1 and t[-1] < aim
        assert "run stopped early" in caplog.text
    elif cause == "time_exhausted":
        assert t[-1] == pytest.approx(aim, abs=1e-12)
        assert np.all(proxy[1:] >= floor)
    else:
        assert proxy[-1] < floor and np.all(proxy[1:-1] >= floor)
        assert (t[-1] == pytest.approx(aim, abs=1e-12)) == (
            name == "product-collapse-last-step")


@pytest.mark.parametrize("params", [HirzebruchParams(grid_points=64),
                                    ProductParams()])
def test_stop_margin_past_collapse_records_one_state(params):
    # T_predicted is 0.5 for both: no step is taken, and the stop-time fit
    # falls back to the one recorded time instead of failing in np.polyfit
    run = run_flow(params, RunSettings(stop_margin=0.6))
    assert run.T_predicted == 0.5
    assert list(run.diagnostics["t"]) == [0.0]
    assert run.T_observed == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_collapse_proxy_is_the_f_range_for_each_twist(k, monkeypatch):
    # 4 k max v = 4 max f_rho, the f-range k (b - a) of a logistic
    # profile; the v_floor stop compares that same proxy
    params = HirzebruchParams(k=k, grid_points=513)
    st = init_hirzebruch_profile(params)
    proxy = 4.0 * k * float(np.max(st.v_profile(k)))
    assert proxy == pytest.approx(st.upper - st.lower, rel=1e-3)
    monkeypatch.setattr(calabi_flow, "V_FLOOR", 0.3 * k)
    run = run_flow(HirzebruchParams(k=k, grid_points=256), RunSettings())
    assert run.stop_reason == "fiber_collapsed"
    assert run.flow["upper"][-1] - run.flow["lower"][-1] == pytest.approx(
        0.3 * k, rel=0.02)
    assert run.flow["t"][-1] == pytest.approx(0.35, abs=0.01)


# ---------------------------------------------------------------------------
# profile diagnostics


def test_initial_diagnostics_round_fiber():
    params = HirzebruchParams()
    st = init_hirzebruch_profile(params)
    diag = {name: col.item()
            for name, col in profile_diagnostics(st, params).items()}
    assert diag["k_v_max"] == pytest.approx(2.0, rel=0.01)
    assert diag["roundness"] == pytest.approx(1.0, abs=0.005)
    assert diag["a_sq_sup"] == pytest.approx(0.5, rel=0.01)
    assert diag["grad_ln_sq_sup"] == pytest.approx(0.25, rel=0.01)
    assert diag["horiz_sup"] == pytest.approx(2.0, rel=1e-6)
    assert diag["rm_sup"] == pytest.approx(np.sqrt(32.0), rel=0.01)
    assert diag["fiber_area"] == pytest.approx(2.0 * np.pi, rel=1e-9)


def test_diagnostics_track_collapse(default_run):
    diag = default_run.diagnostics
    assert diag["rm_sup"][-1] > 100.0 * diag["rm_sup"][0]
    assert diag["a_sq_sup"][-1] < 0.05 * diag["a_sq_sup"][0]
    assert diag["roundness"][-1] == pytest.approx(1.0, abs=0.005)
    remaining = default_run.T_observed - diag["t"][-1]
    assert remaining * diag["rm_sup"][-1] == pytest.approx(2.0, rel=0.05)


def test_diagnostics_require_surface_base():
    params = HirzebruchParams(n=2)
    st = init_hirzebruch_profile(params)
    with pytest.raises(FlowError):
        profile_diagnostics(st, params)


def test_vhc_profile_forms_match_chart_curvature():
    # analytic profile-level mixed-curvature values against the frame
    # computation on the full 2-complex-dimensional chart
    prof = make_logistic(1.0, 1.0)
    samp = calabi_sampler(prof, n=1, k=1)
    rho0 = 0.4
    pt = np.array([0.0, 0.0, np.exp(rho0 / 2.0), 0.0])
    fp = frame_point(samp, pt)
    vhc_chart = vertical_horizontal_curvature(fp)

    f, f1, f2, f3 = prof(rho0)
    v, v1 = f1, f2
    lf1 = v / f
    lf2 = v1 / f - lf1 ** 2
    lv1 = v1 / v
    gsq = 2.0 * v / f ** 2
    hess_rr = (2.0 / v) * (lf2 - 0.5 * lv1 * lf1)
    hess_tt = (1.0 / v) * lv1 * lf1
    vhc_r = -0.5 * (hess_rr + gsq) + 0.25 * gsq
    vhc_t = -0.5 * hess_tt + 0.25 * gsq
    got = np.sort(vhc_chart[:, 0])
    want = np.sort(np.array([vhc_r, vhc_t]))
    assert np.max(np.abs(got - want)) <= 1e-4


@pytest.mark.parametrize("k", [1, 2, 3])
def test_profile_curvature_matches_chart_for_each_twist(k):
    # profile-level arrays and the monitors' |grad f|^2 against the frame
    # computations and the curvature stencil on the chart of the same
    # analytic profile; the fine grid keeps the profile stencils' O(h^2)
    # error near 3e-5
    params = HirzebruchParams(k=k, grid_points=4001, shape="skew")
    st = init_hirzebruch_profile(params)
    prof = curvature_profiles(st, params)
    # the skew shape: logistic steps of 0.65 and 0.35 of the width, the
    # second shifted by 1.2
    width = st.upper - st.lower
    step0 = make_logistic(st.lower, (1.0 - 0.35) * width)
    step1 = make_logistic(0.0, 0.35 * width)

    def chart_frame(j):
        # the chart of the shape translated by -rho_j, at xi = 1 (rho = 0,
        # inside the sampler's box, where e^(rho_j / 2) need not be):
        # xi -> e^(rho_j / 2) xi maps it isometrically onto the chart of
        # the shape at rho_j
        c = st.rho[j]
        samp = calabi_sampler(
            lambda rho: tuple(a + b for a, b in zip(step0(rho + c),
                                                    step1(rho + c - 1.2))),
            n=1, k=k)
        return frame_point(samp, np.array([0.0, 0.0, 1.0, 0.0]))

    for j in (1800, 2040, 2300):
        fp = chart_frame(j)
        assert prof["k_v"][j] == pytest.approx(
            vertical_sectional(fp.blocks), rel=1e-4)
        assert prof["grad_ln_sq"][j] == pytest.approx(
            grad_ln_f_norm_sq(fp), rel=1e-4)
        assert prof["a_sq"][j] == pytest.approx(a_norm_sq(fp), rel=1e-4)
        got = np.sort([prof["vhc_r"][j], prof["vhc_t"][j]])
        want = np.sort(vertical_horizontal_curvature(fp)[:, 0])
        assert np.max(np.abs(got - want)) <= 1e-4
        # the ambient sectional curvature of the horizontal frame plane
        rlow = riemann_fd(fp.sampler.metric_fn(), fp.point, 1e-3)
        assert prof["kappa_h"][j] == pytest.approx(
            sectional_from_riemann(rlow, fp.g_real, *fp.horizontal), rel=1e-4)
    grad_sup = build_monitors(
        params, t=np.zeros(1), heat_residual=np.zeros(1), min_f=st.f[:1],
        max_f=st.f[-1:], max_v=np.array([np.max(prof["v"])])
    )["grad_f_sq_sup"][0]
    assert grad_sup == pytest.approx(
        grad_f_norm_sq(chart_frame(int(np.argmax(prof["v"])))), rel=1e-4)


@pytest.mark.parametrize("k, b0", [(1, 2.0), (2, 2.0), (3, 4.0)])
def test_fiber_gauss_bonnet_for_each_twist(k, b0, monkeypatch):
    # The integral of K_v over the fiber sphere is 4 pi for any profile.
    # With dA = v drho dtheta, v = f_rho / k and K_v = -(ln v)''/v it
    # telescopes to 2 pi times the difference of (ln v)' at the two ends,
    # which is +-1 in the exponential tails.  The two nodes at each end
    # carry one-sided stencils and are left out.
    params = HirzebruchParams(k=k, b0=b0)
    states = list(recorded_states(replace(params, shape="skew"),
                                  RunSettings()))
    # every node supported, so k_v is the raw stencil value everywhere
    monkeypatch.setattr(calabi_flow, "SUPPORT_THRESHOLD", 0.0)
    for st in (states[0], states[len(states) // 2], states[-1]):
        prof = curvature_profiles(st, params)
        h = st.rho[1] - st.rho[0]
        density = np.gradient(st.f, st.rho) / k
        assert 2.0 * np.pi * h * np.sum(density) == pytest.approx(
            prof["area"], rel=1e-6)
        total = 2.0 * np.pi * h * np.sum((prof["k_v"] * density)[2:-2])
        assert total == pytest.approx(4.0 * np.pi, rel=1e-6)
    # the logistic profile is the round sphere: area * K_v = 4 pi
    tanh = init_hirzebruch_profile(params)
    assert profile_diagnostics(tanh, params)["roundness"][0] == (
        pytest.approx(1.0, abs=0.005))


def test_s_constancy_on_reconstructed_charts(default_run, default_states):
    rng = np.random.default_rng(11)
    params = default_run.params
    for st in (default_states[0], default_run.sample):
        samp = sampler_from_state(st, params)
        for pt in samp.random_points(rng, 2):
            blocks = samp.evaluate(pt)
            ric = fd_ricci_oracle(samp, pt)
            ratio = ric.mixed[0] / ric.fiber
            assert abs(ratio - blocks.s[0]) <= 1e-4 * abs(blocks.s[0])


# ---------------------------------------------------------------------------
# product scenario and cohomology bookkeeping


def test_product_run_matches_closed_form(product_run):
    flow = product_run.flow
    for t, f_run, c_run in zip(flow["t"], flow["f"], flow["c"]):
        if t == 0.0:
            continue
        f, c, kv = product_closed_form(3.0, 1.0, 2.0, 1, t)
        assert abs(f_run - f) <= 1e-6
        assert abs(c_run - c) <= 1e-6
    assert abs(product_run.T_observed - 0.5) <= 1e-3


def test_product_plateau(product_run):
    diag = product_run.diagnostics
    remaining = product_run.T_observed - diag["t"][-1]
    assert remaining * diag["rm_sup"][-1] == pytest.approx(2.0, rel=0.05)
    assert diag["roundness"][-1] == 1.0


def test_product_closed_form_values():
    assert product_closed_form(3.0, 2.0, 2.0, 1, 0.0) == (3.0, 2.0, 1.0)
    f, c, kv = product_closed_form(3.0, 2.0, 2.0, 1, 0.5)
    assert (f, c, kv) == (2.0, 1.0, 2.0)
    with pytest.raises(PastSingularTime):
        product_closed_form(3.0, 1.0, 2.0, 1, 0.5)
    with pytest.raises(PastSingularTime):
        product_closed_form(1.0, 4.0, 2.0, 1, 0.6)


def test_predict_max_time_product_classes():
    # classes (f0, c0), base rate -R_h/n = -2: the fiber class c0 - 2t
    # collapses at c0 / 2
    assert predict_max_time(ProductParams(f0=3.0, c0=1.0)) == 0.5
    assert predict_max_time(ProductParams(f0=3.0, c0=1.0, n=2)) == 0.5
    # the base coefficient would reach 1 - 2 * 1.5 < 0 at the collapse
    with pytest.raises(WrongRegime):
        predict_max_time(ProductParams(f0=1.0, c0=3.0))
    # and exactly 1 - 2 * 0.5 = 0 here
    with pytest.raises(WrongRegime):
        predict_max_time(ProductParams(f0=1.0, c0=1.0))
    assert predict_max_time(ProductParams(f0=1.0, c0=1.0, R_h=1.0)) == 0.5


def test_predict_max_time_hirzebruch_classes():
    # classes (k a0, b0 - a0), base rate k - R_h/n: the fiber class
    # collapses at (b0 - a0) / 2 whatever k
    assert predict_max_time(HirzebruchParams()) == 0.5
    assert predict_max_time(HirzebruchParams(k=3, b0=4.0)) == 1.5
    # the base coefficient 1 + 0.5 (1 - R_h) is exactly 0 at R_h = 3
    assert predict_max_time(HirzebruchParams(R_h=2.5)) == 0.5
    with pytest.raises(WrongRegime):
        predict_max_time(HirzebruchParams(R_h=3.0))


def test_predicted_time_matches_observed(default_run):
    t_max = predict_max_time(default_run.params)
    assert t_max == default_run.T_predicted
    assert abs(default_run.T_observed - t_max) / t_max <= 0.02
