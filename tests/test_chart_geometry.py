from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_logistic
from fiberflow import chart_geometry as cg
from fiberflow import oneill_curvature as oc
from fiberflow.calabi_flow import (HirzebruchParams, _local_profile,
                                   init_hirzebruch_profile)


def twisted_sampler(lower=1.0, width=1.0, n=1, k=1):
    return cg.calabi_sampler(make_logistic(lower, width), n=n, k=k)


def flat_blocks(f=1.0, s=0j, g_fiber=1.0, dsbar_dxi=0j):
    """Blocks at one point over the flat base of dimension 1, every field
    not named here zero."""
    zero = np.zeros(1, complex)
    return cg.ChartMetricBlocks(
        base=cg.flat_base(1), f=f, s=np.array([s]), g_fiber=g_fiber,
        df_dxi=0j, d2f=0.0, df_dz=zero, dsbar_dz=np.zeros((1, 1), complex),
        dsbar_dxi=np.array([dsbar_dxi]), dg_dxi=0j, d2g=0.0)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_block_metric_hand_value():
    blocks = flat_blocks(f=2.0, s=0.5 + 0j, g_fiber=3.0)
    g = cg.assemble_block_metric(blocks)
    assert np.allclose(g, np.array([[2.75, 1.5], [1.5, 3.0]]), atol=1e-15)


@pytest.mark.parametrize("f, g_fiber", [(-1.0, 1.0), (1.0, 0.0)])
def test_assemble_rejects_nonpositive_dilation(f, g_fiber):
    with pytest.raises(cg.NonPositiveDefinite):
        cg.assemble_block_metric(flat_blocks(f=f, g_fiber=g_fiber))


# ---------------------------------------------------------------------------
# structure checks


def test_fiber_christoffel_hand_value():
    blocks = flat_blocks(f=2.0, s=0.5 + 0j, g_fiber=3.0, dsbar_dxi=0.4 + 0j)
    assert cg.check_totally_geodesic(blocks) == pytest.approx(0.6, abs=1e-15)


def test_twisted_chart_is_totally_geodesic_and_compatible():
    samp = twisted_sampler()
    rng = np.random.default_rng(3)
    for p in samp.random_points(rng, 8):
        blocks = samp.evaluate(p)
        assert cg.check_totally_geodesic(blocks) <= 1e-13
        assert cg.check_kahler_compatibility(blocks) <= 1e-13
        assert blocks.horizontal_homothety_residual() <= 1e-13


def test_kahler_compatibility_detects_tampering():
    samp = twisted_sampler()
    p = np.array([0.1, 0.05, 1.0, 0.1])
    blocks = samp.evaluate(p)
    from dataclasses import replace
    broken = replace(blocks, dsbar_dz=blocks.dsbar_dz * 1.01)
    assert cg.check_kahler_compatibility(broken) > 1e-4


def test_ricci_blocks_refuses_horizontal_gradient():
    samp = twisted_sampler()
    p = np.array([0.1, 0.05, 1.0, 0.1])
    blocks = samp.evaluate(p)
    from dataclasses import replace
    broken = replace(blocks, df_dz=blocks.df_dz + 0.05)
    with pytest.raises(cg.StructureViolation):
        cg.ricci_blocks(broken)


def test_ricci_blocks_refuses_non_geodesic_fibers():
    # the refusal reads the fiber Christoffel block: g_fiber / f = 1e-3
    # scales a d_xi conj(s) of 2e-6 to 2e-9, below the tolerance, and one
    # of 2e-4 to 2e-7, above it
    ric = cg.ricci_blocks(flat_blocks(f=1e3, dsbar_dxi=2e-6 + 0j))
    assert ric.fiber == 0.0
    with pytest.raises(cg.StructureViolation, match="totally geodesic"):
        cg.ricci_blocks(flat_blocks(f=1e3, dsbar_dxi=2e-4 + 0j))


def test_base_einstein_residual_fs_vs_perturbed():
    z = np.array([0.2 + 0.1j])
    fs = cg.fubini_study_base(z)
    assert cg.check_base_einstein(fs) <= 1e-10
    pert = cg.perturbed_fs_base(z)
    assert cg.check_base_einstein(pert) >= 1e-3


# ---------------------------------------------------------------------------
# base metric closed forms


def test_fubini_study_point_values():
    bm = cg.fubini_study_base(np.zeros(2, dtype=complex))
    assert np.allclose(bm.h, np.eye(2), atol=1e-15)
    assert np.allclose(bm.ricci, 3.0 * np.eye(2), atol=1e-15)
    assert bm.scalar == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# Ricci: structured formulas against the log-det oracle


def test_structured_ricci_matches_oracle_product():
    samp = cg.product_sampler(base_size=3.0, fiber_size=1.0)
    rng = np.random.default_rng(11)
    for p in samp.random_points(rng, 6):
        blocks = samp.evaluate(p)
        ric = cg.ricci_blocks(blocks).assemble()
        oracle = cg.fd_ricci_oracle(samp, p).assemble()
        scale = np.max(np.abs(ric))
        assert np.max(np.abs(ric - oracle)) <= 1e-4 * scale


def test_structured_ricci_matches_oracle_twisted():
    samp = twisted_sampler()
    rng = np.random.default_rng(12)
    for p in samp.random_points(rng, 6):
        blocks = samp.evaluate(p)
        ric = cg.ricci_blocks(blocks).assemble()
        oracle = cg.fd_ricci_oracle(samp, p).assemble()
        scale = np.max(np.abs(ric))
        assert np.max(np.abs(ric - oracle)) <= 1e-4 * scale


def test_product_ricci_closed_relations():
    # Ricci of a metric product: base block is the base Ricci regardless of
    # the dilation constant, fiber block is Einstein with factor 2/size.
    size = 0.7
    samp = cg.product_sampler(base_size=2.5, fiber_size=size)
    p = np.array([0.2, -0.1, 0.3, 0.25])
    blocks = samp.evaluate(p)
    ric = cg.ricci_blocks(blocks)
    assert np.allclose(ric.base, blocks.base.ricci, atol=1e-12)
    assert ric.fiber == pytest.approx((2.0 / size) * blocks.g_fiber, rel=1e-12)
    assert np.max(np.abs(ric.mixed)) <= 1e-15


def _ricci_errors(h):
    """Max error of the Ricci oracle on the twisted chart at step h."""
    samp = twisted_sampler()
    p = np.array([0.11, -0.07, 1.02, 0.13])
    ric = cg.ricci_blocks(samp.evaluate(p)).assemble()
    return [np.max(np.abs(cg.fd_ricci_oracle(samp, p, step=h).assemble()
                          - ric))]


def _sectional_errors(h):
    """Errors of the base and fiber sectional curvatures from `riemann_fd`
    on a product, whose factors have Gauss curvature 2 / size."""
    samp = cg.product_sampler(base_size=2.5, fiber_size=0.7)
    p = np.array([0.2, -0.1, 0.3, 0.25])
    g = cg.real_metric(samp.evaluate(p))
    rlow = cg.riemann_fd(samp.metric_fn(), p, h)
    e = np.eye(4)
    return [abs(cg.sectional_from_riemann(rlow, g, e[0], e[1]) - 2.0 / 2.5),
            abs(cg.sectional_from_riemann(rlow, g, e[2], e[3]) - 2.0 / 0.7)]


@pytest.mark.parametrize("errors", [_ricci_errors, _sectional_errors],
                         ids=["fd_ricci_oracle", "riemann_fd"])
def test_fd_oracle_second_order_convergence(errors):
    order = np.log2(np.divide(errors(4e-3), errors(2e-3)))
    assert np.all(order >= 1.9)


def test_mixed_to_fiber_ratio_is_connection():
    # R_mixed / R_fiber reproduces the connection components; fourth-order
    # extrapolation keeps the oracle noise under the tight bound.
    samp = twisted_sampler(lower=1.0, width=2.0)
    rng = np.random.default_rng(21)
    for p in samp.random_points(rng, 4):
        blocks = samp.evaluate(p)
        oracle = cg.fd_ricci_oracle(samp, p, richardson=True)
        ratio = oracle.mixed / oracle.fiber
        assert np.max(np.abs(ratio - blocks.s)) <= 1e-6


def test_scalar_curvature_fd_product():
    # additive in the factors: base part scalar/f plus fiber part 2/size
    f0, size = 2.0, 1.0
    samp = cg.product_sampler(base_size=f0, fiber_size=size)
    p = np.array([0.1, 0.0, 0.2, -0.1])
    ric = cg.fd_ricci_oracle(samp, p).assemble()
    g = cg.assemble_block_metric(samp.evaluate(p), check=False)
    val = float(np.trace(ric @ np.linalg.inv(g)).real)
    assert val == pytest.approx(2.0 / f0 + 2.0 / size, rel=1e-4)


# ---------------------------------------------------------------------------
# stencil plans


def _naive_stencil(point, step):
    """The grids p + h (s_i + s_j) over the star shifts s_0 = 0,
    s_1 = +e_0, s_2 = -e_0, s_3 = +e_1, ... for h = step and h = step / 2,
    (2, 2d + 1, 2d + 1, d), and their distinct points by their bytes, from
    np.unique."""
    d = len(point)
    star = np.zeros((2 * d + 1, d))
    axis = np.arange(d)
    star[1 + 2 * axis, axis] = 1.0
    star[2 + 2 * axis, axis] = -1.0
    grids = np.stack([point + h * (star[:, None] + star)
                      for h in (step, step / 2.0)])
    flat = grids.reshape(-1, d)
    keys = flat.view(np.dtype((np.void, flat.strides[0]))).ravel()
    return grids, flat[np.unique(keys, return_index=True)[1]]


def _assert_plan_is_naive(point, step):
    grids, distinct = _naive_stencil(point, step)
    rows, index = cg._stencil(point, step)
    assert np.array_equal(rows[index].view(np.int64), grids.view(np.int64))
    assert len(rows) == len(distinct)
    assert {r.tobytes() for r in rows} == {r.tobytes() for r in distinct}


@settings(deadline=None, max_examples=200)
@given(coords=st.sampled_from([2, 4, 6, 8]).flatmap(
           lambda d: st.lists(st.floats(-10.0, 10.0), min_size=d,
                              max_size=d)),
       step=st.sampled_from([1e-3, 3e-3]) | st.floats(1e-4, 1e-1))
def test_stencil_plan_is_the_naive_stencil_at_random_points(coords, step):
    _assert_plan_is_naive(np.array(coords), step)


def _round_trip_off(h=1e-3):
    """A coordinate x whose round trip (x + h) - h is not x."""
    xs = np.linspace(0.1, 0.2, 1001)
    return xs[(xs + h) - h != xs][0]


@pytest.mark.parametrize("step", [1e-3, 3e-3])
@pytest.mark.parametrize("d", [2, 4, 6, 8])
@pytest.mark.parametrize("special", [
    -0.0,  # the centre is p + 0.0, whose zero is +0.0
    _round_trip_off(),  # (x + h) - h is not x, but x + (h - h) is
    1e-20,  # below the ulp of h
])
def test_stencil_plan_is_the_naive_stencil_at_special_points(special, d,
                                                              step):
    point = np.random.default_rng(d).uniform(-1.0, 1.0, d)
    point[d // 2] = special
    _assert_plan_is_naive(point, step)


def test_stencil_rows_are_a_function_of_the_dimension_alone():
    """4d^2 + 2d + 1 rows at every point: the h grid's 2d^2 + 2d + 1 and
    the h/2 grid's 2d^2 + 1, less the 2d double shifts of the h/2 grid,
    which are the single shifts of the h grid; the special points
    included, a coordinate whose round trip (x + h) - h is not x too."""
    for d in (2, 4, 6, 8):
        for special in (0.3, -0.0, _round_trip_off(), 1e-20):
            point = np.full(d, 0.3)
            point[d // 2] = special
            assert len(cg._stencil(point, 1e-3)[0]) == 4 * d * d + 2 * d + 1


def test_stencil_reaches_two_steps_in_every_coordinate():
    """The layout's widest offset, the h grid's double shifts, is 2h in
    each coordinate; so every oracle refuses a point closer to the box."""
    for d in (2, 4, 6, 8):
        shift, _ = cg._stencil_plan(d)
        assert np.array_equal(np.max(np.abs(shift), axis=0), np.full(d, 2.0))


# ---------------------------------------------------------------------------
# real form and real-geometry oracles


def test_real_metric_compatible_with_complex_structure():
    samp = twisted_sampler()
    p = np.array([0.12, -0.04, 1.1, 0.2])
    g = cg.real_metric(samp.evaluate(p))
    j = cg.complex_structure(2)
    assert np.allclose(g, g.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(g)) > 0.0
    assert np.allclose(j.T @ g @ j, g, atol=1e-13)
    omega = j.T @ g
    assert np.allclose(omega, -omega.T, atol=1e-13)


def test_real_partials_convention():
    # F = |z|^2 has d_z F = conj(z); real gradient is (2x, 2y)
    z = 0.3 - 0.4j
    grad = cg.real_partials(np.array([np.conj(z)]))
    assert grad[0] == pytest.approx(2 * z.real)
    assert grad[1] == pytest.approx(2 * z.imag)


@pytest.mark.parametrize("size", [1.0, 0.5])
def test_riemann_fd_round_sphere(size):
    def metric(p):
        w = 1.0 + p[..., 0] ** 2 + p[..., 1] ** 2
        return cg.real_metric_from_hermitian(
            (size / w ** 2)[..., None, None].astype(complex))

    pt = np.array([0.23, -0.11])
    rlow = cg.riemann_fd(metric, pt, 1e-3)
    kappa = cg.sectional_from_riemann(rlow, metric(pt),
                                      np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0]))
    assert kappa == pytest.approx(2.0 / size, rel=1e-3)


def test_riemann_fd_flat_chart():
    g = np.diag([2.0, 2.0, 2.0, 2.0])
    rlow = cg.riemann_fd(lambda p: np.broadcast_to(g, (len(p), 4, 4)),
                         np.array([0.1, 0.2, -0.1, 0.3]), 1e-3)
    assert np.max(np.abs(rlow)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_riemann_fd_has_the_symmetries_of_a_curvature_tensor(n):
    """At seeded twisted-chart points r_abcd is antisymmetric in (a, b)
    and in (c, d), and symmetric under (a, b) <-> (c, d), to 1e-9 of its
    largest entry: finite differences of the Christoffel symbols at
    p +- h e_c broke the pair symmetry by about 5e-7."""
    samp = twisted_sampler(width=1.5, n=n)
    for p in samp.random_points(np.random.default_rng(80 + n), 5):
        rlow = cg.riemann_fd(samp.metric_fn(), p, cg.DEFAULT_FD_STEP)
        scale = np.max(np.abs(rlow))
        for defect in (rlow + rlow.transpose(1, 0, 2, 3),
                       rlow + rlow.transpose(0, 1, 3, 2),
                       rlow - rlow.transpose(2, 3, 0, 1)):
            assert np.max(np.abs(defect)) <= 1e-9 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_riemann_fd_scales_with_the_metric(n):
    """A metric scaled by 4 has its lowered curvature scaled by 4, bit for
    bit (a power of two scales every rounding step exactly), and its
    sectional curvatures divided by 4."""
    samp = twisted_sampler(width=1.5, n=n)
    metric = samp.metric_fn()

    def scaled(points):
        return 4.0 * metric(points)

    eye = np.eye(2 * n + 2)
    planes = [(eye[0], eye[1]), (eye[-2], eye[-1]), (eye[0], eye[-1]),
              (eye[0] + eye[-2], eye[1] - 0.5 * eye[-1])]
    for p in samp.random_points(np.random.default_rng(90 + n), 20):
        rlow = cg.riemann_fd(metric, p, cg.DEFAULT_FD_STEP)
        rlow4 = cg.riemann_fd(scaled, p, cg.DEFAULT_FD_STEP)
        assert rlow4.tobytes() == (4.0 * rlow).tobytes()
        g = metric(p[None])[0]
        for x, y in planes:
            assert (cg.sectional_from_riemann(rlow4, 4.0 * g, x, y)
                    == pytest.approx(
                        cg.sectional_from_riemann(rlow, g, x, y) / 4.0,
                        rel=1e-14))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_richardson_is_the_extrapolation_of_the_two_steps(n):
    """The Richardson oracle at step h is (4 R(h/2) - R(h)) / 3 of the
    plain oracles, exactly, as complex matrices: the h/2 layout's grid of
    step h/2 is the h layout's half grid, point for point."""
    samp = twisted_sampler(width=1.5, n=n)
    h = cg.DEFAULT_FD_STEP
    for p in samp.random_points(np.random.default_rng(100 + n), 3):
        rich = cg.fd_ricci_oracle(samp, p, h, richardson=True).assemble()
        half = cg.fd_ricci_oracle(samp, p, h / 2.0).assemble()
        full = cg.fd_ricci_oracle(samp, p, h).assemble()
        assert np.array_equal(rich, (4.0 * half - full) / 3.0)


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("oracle", [
    lambda samp, p, h: cg.riemann_fd(samp.metric_fn(), p, h),
    lambda samp, p, h: cg.fd_ricci_oracle(samp, p, h),
    lambda samp, p, h: cg.hermitian_hessian_fd(samp.log_det_fn(), p, h),
    lambda samp, p, h: oc.vertical_horizontal_curvature(
        oc.frame_point(samp, p), h),
], ids=["riemann_fd", "fd_ricci_oracle", "hermitian_hessian_fd",
        "vertical_horizontal_curvature"])
def test_oracles_refuse_a_step_that_is_not_finite_and_positive(oracle,
                                                               step):
    """A zero step would give NaN arrays and a NaN or infinite one would
    blame the point; the step is refused, by name."""
    samp = twisted_sampler()
    point = samp.random_points(np.random.default_rng(4), 1)[0]
    with pytest.raises(cg.ChartError, match="step") as err:
        oracle(samp, point, step)
    assert not isinstance(err.value, cg.DomainEdge)


def test_domain_edge_guard():
    samp = twisted_sampler()
    edge = samp.domain[:, 1].copy()
    with pytest.raises(cg.DomainEdge):
        cg.fd_ricci_oracle(samp, edge)


@pytest.mark.parametrize("coord", range(4))
def test_domain_edge_guard_refuses_nan(coord):
    """A NaN coordinate lies in no box: `evaluate_batch` and the oracle
    that stencils through it refuse it as they refuse an infinite one."""
    samp = twisted_sampler()
    point = samp.random_points(np.random.default_rng(9), 1)[0]
    samp.evaluate_batch(point[None])
    for bad in (np.inf, np.nan):
        point[coord] = bad
        with pytest.raises(cg.DomainEdge):
            samp.evaluate_batch(point[None])
        with pytest.raises(cg.DomainEdge):
            cg.fd_ricci_oracle(samp, point)


def _blocks_bits(blocks):
    """The bytes of every array of a batch of blocks, in field order."""
    arrays = [blocks.base.h, blocks.base.ricci]
    arrays += [getattr(blocks, fld.name) for fld in fields(blocks)[1:]]
    return [np.asarray(a).tobytes() for a in arrays]


def _metric_stacks(samp, points):
    """The Hermitian and the real metric stack that `samp` keeps with the
    batch at `points`, each checked read-only."""
    stacks = (samp._metric_stack(points, real=False), samp.metric_fn()(points))
    for stack in stacks:
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0
    return stacks


def test_sampler_keeps_its_last_batch_only():
    """Batches A, B, A: each call after a different batch evaluates again
    and gets the bits of a fresh sampler; A twice in a row evaluates once
    and returns the same blocks.  The metric stacks derived from a batch
    go with it: read-only, the same arrays while it is the last batch,
    built anew for the next batch, with the bits of an assembly from
    scratch."""
    plain = twisted_sampler(n=2)
    calls = []

    def counted(points):
        calls.append(points.copy())
        return plain.blocks_fn(points)

    samp = replace(plain, blocks_fn=counted)
    rng = np.random.default_rng(11)
    a, b = samp.random_points(rng, 5), samp.random_points(rng, 5)
    first = samp.evaluate_batch(a)
    assert samp.evaluate_batch(a.copy()) is first and len(calls) == 1
    stacks = _metric_stacks(samp, a)
    assert all(x is y for x, y in zip(_metric_stacks(samp, a.copy()), stacks))
    for points in (b, a):
        got = samp.evaluate_batch(points)
        fresh = replace(plain, blocks_fn=plain.blocks_fn)
        assert _blocks_bits(got) == _blocks_bits(fresh.evaluate_batch(points))
        new = _metric_stacks(samp, points)
        assert all(x is not y for x, y in zip(new, stacks))
        blocks = fresh.evaluate_batch(points)
        assert [x.tobytes() for x in new] == [
            cg.assemble_block_metric(blocks, check=False).tobytes(),
            cg.real_metric(blocks).tobytes()]
        stacks = new
    assert [c.tobytes() for c in calls] == [p.tobytes() for p in (a, b, a)]


def test_replaced_sampler_starts_with_no_batch():
    """`dataclasses.replace(sampler, blocks_fn=...)` makes a sampler that
    evaluates its own formula, even on the last batch of the sampler it
    came from; the two compare equal but share no batch."""
    samp = twisted_sampler()
    points = samp.random_points(np.random.default_rng(12), 4)
    before = samp.evaluate_batch(points)

    def doubled(p):
        blocks = samp.blocks_fn(p)
        return replace(blocks, f=2.0 * blocks.f)

    other = replace(samp, blocks_fn=doubled)
    assert np.array_equal(other.evaluate_batch(points).f, 2.0 * before.f)
    same = replace(samp)
    assert same == samp
    assert same.evaluate_batch(points) is not before
    assert samp.evaluate_batch(points) is before


def test_sampler_batches_are_read_only():
    """The blocks a sampler keeps cannot be written through: every array
    of a batch, and of a row taken from it, is read-only (an index array
    takes copies, which share no memory with the batch)."""
    samp = twisted_sampler(n=2)
    batch = samp.evaluate_batch(
        samp.random_points(np.random.default_rng(13), 3))
    for blocks in (batch, batch.row(1)):
        arrays = [blocks.base.h, blocks.base.ricci]
        arrays += [v for v in (getattr(blocks, fld.name)
                               for fld in fields(blocks)[1:])
                   if isinstance(v, np.ndarray)]
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


def test_row_with_an_index_array_is_the_batch_of_those_points():
    samp = twisted_sampler(n=2)
    points = samp.random_points(np.random.default_rng(14), 5)
    picked = samp.evaluate_batch(points).row(np.array([3, 1]))
    fresh = replace(samp, blocks_fn=samp.blocks_fn)
    assert _blocks_bits(picked) == _blocks_bits(
        fresh.evaluate_batch(points[[3, 1]]))


def test_random_points_stay_inside():
    """Every coordinate of a random point lies at least 2.5 steps inside
    the box: the points shifted that far up, or down, in all coordinates
    at once still evaluate."""
    samp = twisted_sampler()
    rng = np.random.default_rng(5)
    pts = samp.random_points(rng, 50)
    for shift in (2.5 * cg.DEFAULT_FD_STEP, -2.5 * cg.DEFAULT_FD_STEP):
        samp.evaluate_batch(pts + shift)


# ---------------------------------------------------------------------------
# batch evaluation


def _rho(points, k=1):
    z, xi = cg.point_to_complex(points)
    return np.log(np.abs(xi) ** 2) + k * np.log(1.0 + np.sum(np.abs(z) ** 2,
                                                            axis=-1))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("chart", ["local_profile", "logistic", "product"])
def test_batch_rows_match_single_point_evaluation(chart, n):
    """Every field of batch row i equals that of `evaluate(point_i)`.  On
    the local profile the first rows lie within 1e-9 node spacings of a
    node, on either side, where the profile switches its blend."""
    if chart == "local_profile":
        st = init_hirzebruch_profile(HirzebruchParams(n=n))
        samp = cg.calabi_sampler(_local_profile(st), n=n, k=1)
    elif chart == "logistic":
        samp = twisted_sampler(n=n, k=2)
    else:
        samp = cg.product_sampler(n=n)
    points = samp.random_points(np.random.default_rng(60 + n), 8,
                                margin=0.1)
    if chart == "local_profile":
        rho = _rho(points[:4])
        node = st.rho[np.argmin(np.abs(st.rho[:, None] - rho), axis=0)]
        shift = np.array([-1e-9, 1e-9, 0.0, 1e-6]) * (st.rho[1] - st.rho[0])
        # scaling xi moves rho alone; the margin keeps the rows in the domain
        points[:4, -2:] *= np.exp((node + shift - rho) / 2.0)[:, None]
    batch = samp.evaluate_batch(points)
    for i, point in enumerate(points):
        one = samp.evaluate(point)
        for fld in fields(one):
            got, want = getattr(batch, fld.name), getattr(one, fld.name)
            if fld.name == "base":
                assert (got.n, got.scalar) == (want.n, want.scalar)
                assert np.array_equal(got.h[i], want.h)
                assert np.array_equal(got.ricci[i], want.ricci)
            else:
                assert np.array_equal(got[i], want), (fld.name, i)


def test_batch_with_one_bad_row_raises():
    logistic = make_logistic(1.0, 1.0)
    samp = cg.calabi_sampler(logistic, n=2)
    points = samp.random_points(np.random.default_rng(7), 5)
    pole = points.copy()
    pole[3, -2:] = 0.0
    with pytest.raises(cg.DomainEdge):
        samp.evaluate_batch(pole)
    cut = np.sort(_rho(points))[-2]

    def bent(rho):
        f, f1, f2, f3 = logistic(rho)
        return f, np.where(rho > cut, -f1, f1), f2, f3

    bent_samp = cg.calabi_sampler(bent, n=2)
    bent_samp.evaluate_batch(np.delete(points, np.argmax(_rho(points)), 0))
    with pytest.raises(cg.NonPositiveDefinite):
        bent_samp.evaluate_batch(points)
