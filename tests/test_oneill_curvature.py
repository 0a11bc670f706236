import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_logistic
from fiberflow import chart_geometry as cg
from fiberflow import oneill_curvature as oc


def twisted_sampler(n=1, k=1, lower=1.0, width=1.5):
    return cg.calabi_sampler(make_logistic(lower, width), n=n, k=k)


def twisted_frame(n=1, seed=0):
    samp = twisted_sampler(n=n)
    rng = np.random.default_rng(seed)
    p = samp.random_points(rng, 1)[0]
    return oc.frame_point(samp, p)


# ---------------------------------------------------------------------------
# frames


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frames_orthonormal_and_adapted(n):
    fp = twisted_frame(n=n, seed=3)
    frames = np.vstack([fp.vertical, fp.horizontal])
    gram = frames @ fp.g_real @ frames.T
    assert np.max(np.abs(gram - np.eye(2 * n + 2))) <= 1e-10
    # vertical plane is J-invariant, and so is its orthogonal complement
    for u in fp.vertical:
        for x in fp.horizontal:
            assert abs(oc.inner(fp, fp.j @ u, x)) <= 1e-10
            assert abs(oc.inner(fp, fp.j @ x, u)) <= 1e-10


def test_gradient_is_vertical():
    fp = twisted_frame(seed=5)
    v = oc.grad_f(fp)
    for x in fp.horizontal:
        assert abs(oc.inner(fp, v, x)) <= 1e-12
    b = fp.blocks
    closed = 2.0 * abs(b.df_dxi) ** 2 / b.g_fiber
    assert oc.grad_f_norm_sq(fp) == pytest.approx(closed, rel=1e-10)


# ---------------------------------------------------------------------------
# fundamental tensor


def test_a_tensor_unit_vector_examples():
    fp = twisted_frame(seed=7)
    x = fp.horizontal[0]
    v = oc.grad_ln_f(fp)
    axx = oc.a_tensor(fp, x, x)
    assert np.max(np.abs(axx + 0.5 * v)) <= 1e-12
    axjx = oc.a_tensor(fp, x, fp.j @ x)
    assert np.max(np.abs(axjx - 0.5 * (fp.j @ v))) <= 1e-12


def test_a_tensor_zero_for_constant_dilation():
    samp = cg.product_sampler(base_size=2.0, fiber_size=1.0)
    fp = oc.frame_point(samp, np.array([0.1, -0.2, 0.3, 0.1]))
    for x in fp.horizontal:
        for y in fp.horizontal:
            assert np.max(np.abs(oc.a_tensor(fp, x, y))) == 0.0
    assert oc.a_norm_sq(fp) == 0.0


def test_a_tensor_rejects_vertical_input():
    fp = twisted_frame(seed=1)
    with pytest.raises(oc.NotHorizontal):
        oc.a_tensor(fp, fp.vertical[0], fp.horizontal[0])


def test_a_tensor_polarization_parts():
    fp = twisted_frame(seed=11)
    x, y = fp.horizontal
    xr = 0.6 * x + 0.8 * y
    v = oc.grad_ln_f(fp)
    sym = oc.a_tensor(fp, xr, y) + oc.a_tensor(fp, y, xr)
    assert np.max(np.abs(sym + oc.inner(fp, xr, y) * v)) <= 1e-12
    skew = 0.5 * (oc.a_tensor(fp, xr, y) - oc.a_tensor(fp, y, xr))
    assert np.max(np.abs(skew - 0.5 * oc.omega(fp, xr, y) * (fp.j @ v))) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]))
def test_a_norm_identity_brute_vs_closed(seed, n):
    # |A|^2 = 2n |grad ln f|^2, frame expansion against the closed form
    samp = twisted_sampler(n=n)
    rng = np.random.default_rng(seed)
    p = samp.random_points(rng, 1)[0]
    fp = oc.frame_point(samp, p)
    brute = oc.a_norm_sq(fp)
    closed = 2.0 * n * oc.grad_ln_f_norm_sq(fp)
    assert brute == pytest.approx(closed, rel=1e-8)


def test_a_norm_hand_value():
    # flat base, unit fiber and d_xi f = sqrt(0.045) at the one chart point
    flat = cg.flat_base(1)
    zero = np.zeros((1, 1), complex)
    blocks = cg.ChartMetricBlocks(
        base=cg.BaseMetric(n=1, h=flat.h[None], ricci=flat.ricci[None],
                           scalar=flat.scalar),
        f=np.ones(1), s=zero, g_fiber=np.ones(1),
        df_dxi=np.full(1, np.sqrt(0.045), complex), d2f=np.zeros(1),
        df_dz=zero, dsbar_dz=np.zeros((1, 1, 1), complex), dsbar_dxi=zero,
        dg_dxi=np.zeros(1, complex), d2g=np.zeros(1))
    samp = cg.ChartSampler(n=1, evaluate_batch=lambda points: blocks,
                           domain=np.array([[-1.0, 1.0]] * 4))
    fp = oc.frame_point(samp, np.zeros(4))
    assert oc.grad_ln_f_norm_sq(fp) == pytest.approx(0.09, rel=1e-12)
    assert oc.a_norm_sq(fp) == pytest.approx(0.18, rel=1e-12)


def test_a_norm_scaling_law():
    # scaling the profile by 7 scales the whole metric by 7
    samp = twisted_sampler(lower=1.0, width=1.0)
    p = samp.random_points(np.random.default_rng(13), 1)[0]
    fp = oc.frame_point(samp, p)
    scaled = oc.frame_point(twisted_sampler(lower=7.0, width=7.0), p)
    assert oc.a_norm_sq(scaled) == pytest.approx(oc.a_norm_sq(fp) / 7.0,
                                                 rel=1e-12)
    assert oc.grad_ln_f_norm_sq(scaled) == pytest.approx(
        oc.grad_ln_f_norm_sq(fp) / 7.0, rel=1e-12)


def test_a_mixed_duality():
    fp = twisted_frame(seed=17)
    x, y = fp.horizontal
    u = fp.vertical[0]
    au = oc.a_tensor_mixed(fp, x, u)
    assert oc.inner(fp, au, y) == pytest.approx(
        -oc.inner(fp, oc.a_tensor(fp, x, y), u), abs=1e-12)


# ---------------------------------------------------------------------------
# sectional splitting


def test_sectional_residual_twisted_planes():
    samp = twisted_sampler()
    rng = np.random.default_rng(23)
    for p in samp.random_points(rng, 10):
        fp = oc.frame_point(samp, p)
        x, y = fp.horizontal
        kb = oc.base_sectional_fd(fp, x, y)
        assert abs(oc.sectional_residual(fp, x, y, kb)) <= 1e-3


def test_sectional_residual_twisted_n2_plane_sweep():
    samp = twisted_sampler(n=2)
    rng = np.random.default_rng(29)
    p = samp.random_points(rng, 1)[0]
    fp = oc.frame_point(samp, p)
    hz = fp.horizontal
    for x, y in [(hz[0], hz[1]), (hz[0], hz[2]), (hz[1], hz[3])]:
        kb = oc.base_sectional_fd(fp, x, y)
        assert abs(oc.sectional_residual(fp, x, y, kb)) <= 1e-3


def test_sectional_residual_product_reduces_to_classical():
    # constant dilation: no A, no gradient, kappa_M = kappa_B / c
    samp = cg.product_sampler(base_size=2.0, fiber_size=1.0, n=2)
    fp = oc.frame_point(samp, np.array([0.2, -0.1, 0.15, 0.05, 0.3, 0.1]))
    hz = fp.horizontal
    for x, y in [(hz[0], hz[1]), (hz[0], hz[2])]:
        kb = oc.base_sectional_fd(fp, x, y)
        assert abs(oc.sectional_residual(fp, x, y, kb)) <= 1e-3


def test_sectional_residual_degenerate_plane():
    fp = twisted_frame(seed=31)
    x = fp.horizontal[0]
    with pytest.raises(oc.DegeneratePlane):
        oc.sectional_residual(fp, x, x, 2.0)


# ---------------------------------------------------------------------------
# mixed curvature


def test_vertical_horizontal_closed_vs_fd():
    samp = twisted_sampler()
    rng = np.random.default_rng(37)
    p = samp.random_points(rng, 1)[0]
    fp = oc.frame_point(samp, p)
    rlow = cg.riemann_fd(samp.metric_fn(), p, 1e-3)
    closed = oc.vertical_horizontal_curvature(fp)
    for i, u in enumerate(fp.vertical):
        for j, x in enumerate(fp.horizontal):
            fd = cg.riem4(rlow, x, u, u, x)
            assert closed[i, j] == pytest.approx(fd, abs=1e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_evaluations_per_call(n, monkeypatch):
    """Each oracle hands its whole stencil to the sampler in one batch
    call: riemann_fd evaluates each distinct stencil point once, the
    covariant Hessian behind vertical_horizontal_curvature is stenciled
    once per frame point, and fd_ricci_oracle evaluates both Richardson
    stencils together.  `calls` holds the rows of each sampler call."""
    calls = []
    real = cg.fubini_study_base

    def counted(z):
        calls.append(len(z))
        return real(z)

    monkeypatch.setattr(cg, "fubini_study_base", counted)
    fp = twisted_frame(n=n, seed=5)
    d = fp.dim
    seen = []

    def metric(points):
        seen.append(points)
        return fp.sampler.metric_fn()(points)

    calls.clear()
    cg.riemann_fd(metric, fp.point, 1e-3)
    assert calls == [2 * d * d + 2 * d + 1]
    assert len(np.unique(seen[0], axis=0)) == len(seen[0])
    calls.clear()
    oc.vertical_horizontal_curvature(fp)
    assert len(calls) == 1 and calls[0] <= 2 * d * d + 1
    calls.clear()
    cg.fd_ricci_oracle(fp.sampler, fp.point, richardson=True)
    assert len(calls) == 1


def _vhc(fp):
    return oc.vertical_horizontal_curvature(fp)


def _mixed(fp):
    return oc.mixed_curvature_residuals(fp)


def _sectional(fp):
    return oc.sectional_residual(fp, *fp.horizontal, 2.0)


def _base_sectional(fp):
    return oc.base_sectional_fd(fp, *fp.horizontal)


# each stencil oracle with its widest offset in a coordinate: `step` for
# the Hessian grid, 2 `step` for the star of stars of `riemann_fd`
STENCIL_MARGINS = [(_vhc, 1.0), (_mixed, 2.0), (_sectional, 2.0),
                   (_base_sectional, 2.0)]


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("coord", range(4))
@pytest.mark.parametrize("oracle, widest", STENCIL_MARGINS)
def test_stencil_oracles_refuse_the_domain_edge(oracle, widest, coord, side):
    """Each oracle that stencils around a frame point refuses a point
    half its stencil's reach from the domain's edge, and evaluates one
    at one and a half times that reach."""
    samp = twisted_sampler()
    margin = widest * cg.DEFAULT_FD_STEP
    inward = 1.0 - 2.0 * side
    point = samp.domain.mean(axis=1)
    point[coord] = samp.domain[coord, side] + inward * 0.5 * margin
    with pytest.raises(cg.DomainEdge):
        oracle(oc.frame_point(samp, point))
    point[coord] = samp.domain[coord, side] + inward * 1.5 * margin
    assert np.all(np.isfinite(oracle(oc.frame_point(samp, point))))


def test_vertical_horizontal_zero_for_product():
    samp = cg.product_sampler(base_size=2.0, fiber_size=1.0)
    fp = oc.frame_point(samp, np.array([0.1, -0.2, 0.3, 0.1]))
    vhc = oc.vertical_horizontal_curvature(fp)
    assert vhc.shape == (2, 2)
    assert np.max(np.abs(vhc)) <= 1e-6


def test_mixed_curvature_residuals_structured():
    prod = cg.product_sampler(base_size=2.0, fiber_size=1.0)
    fp = oc.frame_point(prod, np.array([0.1, -0.2, 0.3, 0.1]))
    hhv, vvh = oc.mixed_curvature_residuals(fp)
    assert hhv <= 1e-6 and vvh <= 1e-6
    tw = twisted_sampler()
    fp = oc.frame_point(tw, np.array([0.12, -0.06, 1.05, 0.11]))
    hhv, vvh = oc.mixed_curvature_residuals(fp)
    assert hhv <= 1e-3 and vvh <= 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_curvature_residuals_match_frame_loop(n):
    """The stacked contractions against riem4 taken frame vector by frame
    vector, on a random (non-symmetric) tensor so no term can hide."""
    fp = twisted_frame(n=n, seed=2)
    rlow = np.random.default_rng(n).normal(size=(fp.dim,) * 4)
    hhv = max(abs(cg.riem4(rlow, x, y, z, u)) for x in fp.horizontal
              for y in fp.horizontal for z in fp.horizontal
              for u in fp.vertical)
    u0, u1 = fp.vertical
    vvh = max(abs(cg.riem4(rlow, u0, u1, z, x)) for z in fp.vertical
              for x in fp.horizontal)
    got = oc.mixed_curvature_residuals(fp, rlow=rlow)
    tol = 1e-12 * np.max(np.abs(rlow))
    assert got[0] == pytest.approx(hhv, abs=tol)
    assert got[1] == pytest.approx(vvh, abs=tol)


def test_mixed_curvature_detector_fires():
    # a hand-broken metric with horizontal-vertical coupling must show
    # curvature components a submersion product structure forbids
    samp = twisted_sampler()
    p0 = np.array([0.12, -0.06, 1.05, 0.11])
    fp = oc.frame_point(samp, p0)
    base_fn = samp.metric_fn()

    def broken_fn(p):
        g = base_fn(p)
        e = np.zeros((len(p), 4, 4))
        e[:, 0, 2] = e[:, 2, 0] = np.sin(5.0 * p[:, 0]) * p[:, 2]
        return g + 0.1 * e

    rlow = cg.riemann_fd(broken_fn, p0, 1e-3)
    hhv, vvh = oc.mixed_curvature_residuals(fp, rlow=rlow)
    assert max(hhv, vvh) > 1e-2


# ---------------------------------------------------------------------------
# product values


@pytest.mark.parametrize("size", [1.0, 0.4])
def test_product_sectional_values(size):
    f0 = 2.0
    samp = cg.product_sampler(base_size=f0, fiber_size=size)
    p = np.array([0.1, -0.2, 0.3, 0.1])
    fp = oc.frame_point(samp, p)
    assert oc.a_norm_sq(fp) == 0.0
    assert oc.grad_ln_f_norm_sq(fp) == 0.0
    # round fiber of area 2*pi*size has curvature 2/size
    assert oc.vertical_sectional(fp.blocks) == pytest.approx(2.0 / size,
                                                             rel=1e-12)
    # the base sphere of area 2*pi*f0 has curvature 2/f0
    rlow = cg.riemann_fd(samp.metric_fn(), p, 1e-3)
    x, y = fp.horizontal
    assert cg.sectional_from_riemann(rlow, fp.g_real, x, y) == pytest.approx(
        2.0 / f0, abs=1e-4)
    assert np.max(np.abs(oc.vertical_horizontal_curvature(fp))) <= 1e-6
