from dataclasses import fields, replace

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


def _reference_gram_schmidt(g, seeds):
    """Classical Gram-Schmidt of the rows of `seeds` for the metric g,
    one vector at a time."""
    out = []
    for v in seeds:
        w = np.array(v, dtype=float)
        for u in out:
            w = w - (u @ g @ w) * u
        out.append(w / np.sqrt(w @ g @ w))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frames_orthonormal_and_adapted(n):
    """At seeded points the frames are Gram-Schmidt on the fiber and then
    the base coordinate vectors, to 1e-13, and g-orthonormal to 1e-13;
    the vertical plane and its orthogonal complement are J-invariant."""
    samp = twisted_sampler(n=n)
    eye = np.eye(2 * n + 2)
    for point in samp.random_points(np.random.default_rng(70 + n), 5):
        fp = oc.frame_point(samp, point)
        want = _reference_gram_schmidt(fp.g_real,
                                       np.vstack([eye[2 * n:], eye[:2 * n]]))
        frames = np.vstack([fp.vertical, fp.horizontal])
        assert np.max(np.abs(frames - want)) <= 1e-13
        gram = frames @ fp.g_real @ frames.T
        assert np.max(np.abs(gram - np.eye(2 * n + 2))) <= 1e-13
        for u in fp.vertical:
            for x in fp.horizontal:
                assert abs(oc.inner(fp, fp.j @ u, x)) <= 1e-10
                assert abs(oc.inner(fp, fp.j @ x, u)) <= 1e-10


@pytest.mark.parametrize("g", [np.diag([1.0, 1.0, -1.0, 1.0]),
                               np.diag([1.0, 0.0, 1.0, 1.0])],
                         ids=["indefinite", "singular"])
def test_frames_refuse_a_metric_that_is_not_positive_definite(g):
    with pytest.raises(oc.DegeneratePlane):
        oc._adapted_frames(g)


@pytest.mark.parametrize("g", [np.full((4, 4), np.nan),
                               np.diag([1.0, np.nan, 1.0, 1.0]),
                               np.diag([1.0, np.inf, 1.0, 1.0])],
                         ids=["all-nan", "nan-entry", "inf-entry"])
def test_frames_refuse_a_metric_that_is_not_finite(g):
    """Cholesky passes a NaN through without raising, and an infinite
    diagonal entry gives a zero frame vector: neither may give frames."""
    with pytest.raises(oc.DegeneratePlane, match="not finite"):
        oc._adapted_frames(g)


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
        base=cg.BaseMetric(h=flat.h[None], ricci=flat.ricci[None],
                           scalar=flat.scalar),
        f=np.ones(1), s=zero, g_fiber=np.ones(1),
        df_dxi=np.full(1, np.sqrt(0.045), complex), d2f=np.zeros(1),
        df_dz=zero, dsbar_dz=np.zeros((1, 1, 1), complex), dsbar_dxi=zero,
        dg_dxi=np.zeros(1, complex), d2g=np.zeros(1))
    samp = cg.ChartSampler(blocks_fn=lambda points: blocks,
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
    """The frame point is the centre of its stencil layout, which the
    stencil oracles at it share: frame_point, the Richardson
    fd_ricci_oracle, riemann_fd, mixed_curvature_residuals,
    vertical_horizontal_curvature and a_norm_sq together make one sampler
    call, on the 4d^2 + 2d + 1 distinct points of the layout (73 / 157 /
    273 at n = 1 / 2 / 3), and assemble its Hermitian metrics once.
    `calls` holds the rows of each sampler call, `assemblies` those of
    each Hermitian assembly."""
    calls, assemblies = [], []
    real_base, real_assemble = cg.fubini_study_base, cg.assemble_block_metric

    def counted(z, *args):
        calls.append(len(z))
        return real_base(z, *args)

    def assembled(blocks, check=True):
        assemblies.append(len(blocks.f))
        return real_assemble(blocks, check)

    monkeypatch.setattr(cg, "fubini_study_base", counted)
    monkeypatch.setattr(cg, "assemble_block_metric", assembled)
    samp = twisted_sampler(n=n)
    point = samp.random_points(np.random.default_rng(5), 1)[0]
    d = 2 * n + 2
    seen = []

    def metric(points):
        seen.append(points)
        return samp.metric_fn()(points)

    fp = oc.frame_point(samp, point)
    cg.fd_ricci_oracle(samp, point, richardson=True)
    cg.riemann_fd(metric, point, 1e-3)
    oc.mixed_curvature_residuals(fp)
    oc.vertical_horizontal_curvature(fp)
    oc.a_norm_sq(fp)
    rows = [4 * d * d + 2 * d + 1]
    assert calls == assemblies == rows == [{1: 73, 2: 157, 3: 273}[n]]
    assert len(np.unique(seen[0], axis=0)) == len(seen[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_chart_point_quantity_is_computed_once(n, monkeypatch):
    """One oracle op, in the call order of the `oracles` benchmark
    workload, computes each quantity at its point once: the Fubini-Study
    factor 1/(1 + |z|^2) once per `blocks_fn` call, two d x d inverses
    (the frames' Cholesky factor and `riemann_fd`'s Christoffel symbols of
    the second kind; g^-1 is F^T F of the frames), one horizontality check
    for the A stack on (horizontal, horizontal), and one totally-geodesic
    residual (one `np.linalg.solve`) for the point's blocks, which
    `ricci_blocks` and `check_totally_geodesic` both read."""
    counts = {"blocks_fn": 0, "_fs_factor": 0, "inv": 0, "solve": 0,
              "_require_horizontal": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    plain = twisted_sampler(n=n)
    samp = replace(plain, blocks_fn=counting("blocks_fn", plain.blocks_fn))
    point = plain.random_points(np.random.default_rng(70 + n), 1)[0]
    monkeypatch.setattr(cg, "_fs_factor", counting("_fs_factor",
                                                   cg._fs_factor))
    monkeypatch.setattr(oc, "_require_horizontal",
                        counting("_require_horizontal",
                                 oc._require_horizontal))
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    h = cg.DEFAULT_FD_STEP
    fp = oc.frame_point(samp, point)
    cg.ricci_blocks(fp.blocks)
    cg.fd_ricci_oracle(samp, point, richardson=True)
    rlow = cg.riemann_fd(samp.metric_fn(), point, h)
    oc.mixed_curvature_residuals(fp, step=h, rlow=rlow)
    oc.vertical_horizontal_curvature(fp, step=h)
    oc.a_norm_sq(fp)
    oc.grad_ln_f_norm_sq(fp)
    cg.check_kahler_compatibility(fp.blocks)
    cg.check_totally_geodesic(fp.blocks)
    assert counts == {"blocks_fn": 1, "_fs_factor": 1, "inv": 2, "solve": 1,
                      "_require_horizontal": 1}


# every stencil oracle at a frame point, at the default step
STENCIL_ORACLES = [
    lambda fp: cg.fd_ricci_oracle(fp.sampler, fp.point,
                                  richardson=True).assemble(),
    lambda fp: cg.fd_ricci_oracle(fp.sampler, fp.point).assemble(),
    lambda fp: cg.riemann_fd(fp.sampler.metric_fn(), fp.point,
                             cg.DEFAULT_FD_STEP),
    lambda fp: np.array(oc.mixed_curvature_residuals(fp)),
    lambda fp: oc.vertical_horizontal_curvature(fp),
    lambda fp: cg.hermitian_hessian_fd(fp.sampler.log_det_fn(), fp.point,
                                       cg.DEFAULT_FD_STEP),
]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_sampler_gives_the_bits_of_a_fresh_sampler_per_oracle(n):
    """At seeded points, the stencil oracles on one sampler, which they
    share through its last batch (one stencil call, the frame point's),
    give the bits each gives on a sampler of its own, made with
    `dataclasses.replace` (which keeps no batch)."""
    plain = twisted_sampler(n=n)
    rows = []

    def counted(points):
        rows.append(len(points))
        return plain.blocks_fn(points)

    shared = replace(plain, blocks_fn=counted)
    d = 2 * n + 2
    for point in plain.random_points(np.random.default_rng(40 + n), 3):
        rows.clear()
        fp = oc.frame_point(shared, point)
        got = [oracle(fp) for oracle in STENCIL_ORACLES]
        assert rows == [4 * d * d + 2 * d + 1]
        for oracle, want in zip(STENCIL_ORACLES, got):
            fresh = replace(plain, blocks_fn=plain.blocks_fn)
            assert np.array_equal(oracle(oc.frame_point(fresh, point)), want)


def _vhc(fp):
    return oc.vertical_horizontal_curvature(fp)


def _mixed(fp):
    return oc.mixed_curvature_residuals(fp)


def _sectional(fp):
    return oc.sectional_residual(fp, *fp.horizontal, 2.0)


def _base_sectional(fp):
    return oc.base_sectional_fd(fp, *fp.horizontal)


def _ricci(fp):
    return cg.fd_ricci_oracle(fp.sampler, fp.point, richardson=True).assemble()


def _reach(oracle, widest, base_only=False):
    """An oracle with its stencil's widest offset in each coordinate, in
    steps: 2 `step` for every oracle, whose one stencil layout holds the
    double shifts of `riemann_fd`; `base_sectional_fd` never moves the
    fiber coordinates."""
    reach = np.full(4, widest)
    if base_only:
        reach[2:] = 0.0
    return pytest.param(oracle, reach, id=f"{oracle.__name__}-{widest}")


STENCIL_MARGINS = [_reach(_vhc, 2.0), _reach(_mixed, 2.0),
                   _reach(_sectional, 2.0),
                   _reach(_base_sectional, 2.0, base_only=True),
                   _reach(_ricci, 2.0)]


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("coord", range(4))
@pytest.mark.parametrize("oracle, reach", STENCIL_MARGINS)
def test_stencil_oracles_refuse_the_domain_edge(oracle, reach, coord, side):
    """Each oracle that stencils around a frame point refuses a point
    half its stencil's reach from the domain's edge, and evaluates one
    at one and a half times that reach; with no reach in a coordinate,
    it evaluates a point on the edge."""
    samp = twisted_sampler()
    margin = reach[coord] * cg.DEFAULT_FD_STEP
    inward = 1.0 - 2.0 * side
    point = samp.domain.mean(axis=1)
    point[coord] = samp.domain[coord, side] + inward * 0.5 * margin
    if margin > 0.0:
        with pytest.raises(cg.DomainEdge):
            oracle(oc.frame_point(samp, point))
    else:
        assert np.all(np.isfinite(oracle(oc.frame_point(samp, point))))
    point[coord] = samp.domain[coord, side] + inward * 1.5 * margin
    assert np.all(np.isfinite(oracle(oc.frame_point(samp, point))))


def _frame_alone(sampler, point):
    """The blocks, real metric, its inverse and the frames at `point`
    evaluated on its own, by `evaluate` and `real_metric`; the frames come
    from the one frame routine, `_adapted_frames`, and the inverse is
    F^T F of their matrix F."""
    blocks = sampler.evaluate(point)
    g = cg.real_metric(blocks)
    frames = oc._adapted_frames(g)
    return blocks, g, frames.T @ frames, frames[:2], frames[2:]


def _frame_bits(blocks, *arrays):
    """The bytes of every array of `blocks`, in field order, then of
    `arrays`."""
    out = [blocks.base.h, blocks.base.ricci]
    out += [getattr(blocks, fld.name) for fld in fields(blocks)[1:]]
    return [np.asarray(a).tobytes() for a in out + list(arrays)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_point_is_its_stencil_centre(n):
    """At seeded interior points the frame point comes from one sampler
    call on its stencil layout, whose centre it is, and its blocks,
    `g_real`, `g_real_inv` and frames carry the bits of the point
    evaluated alone.  So do they at a point half a step from the box in
    any coordinate, whose stencil the sampler refuses: that point is
    evaluated alone, in one call of one row.  `g_real_inv`, taken from the
    frames, inverts `g_real` to 1e-13."""
    plain = twisted_sampler(n=n)
    rows = []

    def counted(points):
        rows.append(len(points))
        return plain.blocks_fn(points)

    samp = replace(plain, blocks_fn=counted)
    d = 2 * n + 2
    cases = [(p, 4 * d * d + 2 * d + 1)
             for p in plain.random_points(np.random.default_rng(60 + n), 4)]
    for coord in range(d):
        edge = plain.domain.mean(axis=1)
        edge[coord] = plain.domain[coord, 1] - 0.5 * cg.DEFAULT_FD_STEP
        cases.append((edge, 1))
    for point, calls in cases:
        rows.clear()
        fp = oc.frame_point(samp, point)
        assert rows == [calls]
        fresh = replace(plain, blocks_fn=plain.blocks_fn)
        assert (_frame_bits(fp.blocks, fp.g_real, fp.g_real_inv, fp.vertical,
                            fp.horizontal)
                == _frame_bits(*_frame_alone(fresh, point)))
        assert np.max(np.abs(fp.g_real @ fp.g_real_inv
                             - np.eye(d))) <= 1e-13


@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda samp, p: oc.frame_point(samp, p), id="frame_point"),
    pytest.param(lambda samp, p: cg.fd_ricci_oracle(samp, p),
                 id="fd_ricci_oracle"),
    pytest.param(lambda samp, p: cg.riemann_fd(samp.metric_fn(), p,
                                               cg.DEFAULT_FD_STEP),
                 id="riemann_fd"),
])
def test_points_of_another_width_are_refused(entry, width):
    """At n = 1 a chart point has 4 coordinates: one with 3 or 5 is
    refused by the sampler with a `ChartError` naming the shape of the
    stack it was handed, whichever entry point it came through."""
    samp = twisted_sampler()
    point = np.resize(samp.domain.mean(axis=1), width)
    with pytest.raises(cg.ChartError,
                       match=rf"shape \(\d+, {width}\) .*\(P, 4\)") as err:
        entry(samp, point)
    assert not isinstance(err.value, cg.DomainEdge)


@pytest.mark.parametrize("bad", ["outside", "nan"])
@pytest.mark.parametrize("coord", range(4))
def test_frame_point_refuses_points_off_the_domain(coord, bad):
    """The frame point itself goes through the sampler's box: a
    coordinate just outside it, or a NaN one, raises."""
    samp = twisted_sampler()
    point = samp.domain.mean(axis=1)
    point[coord] = (np.nextafter(samp.domain[coord, 1], np.inf)
                    if bad == "outside" else np.nan)
    with pytest.raises(cg.DomainEdge):
        oc.frame_point(samp, point)


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
