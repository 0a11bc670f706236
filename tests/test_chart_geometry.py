from dataclasses import fields

import numpy as np
import pytest

from conftest import make_logistic
from fiberflow import chart_geometry as cg
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


def test_fd_oracle_second_order_convergence():
    samp = twisted_sampler()
    p = np.array([0.11, -0.07, 1.02, 0.13])
    ric = cg.ricci_blocks(samp.evaluate(p)).assemble()
    err = []
    for h in (4e-3, 2e-3):
        oracle = cg.fd_ricci_oracle(samp, p, step=h).assemble()
        err.append(np.max(np.abs(oracle - ric)))
    order = np.log2(err[0] / err[1])
    assert order >= 1.9


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


def test_domain_edge_guard():
    samp = twisted_sampler()
    edge = samp.domain[:, 1].copy()
    with pytest.raises(cg.DomainEdge):
        cg.fd_ricci_oracle(samp, edge)


@pytest.mark.parametrize("coord", range(4))
def test_domain_edge_guard_refuses_nan(coord):
    """A NaN coordinate lies in no box: `check_point` and the oracle that
    calls it refuse it as they refuse an infinite one."""
    samp = twisted_sampler()
    point = samp.random_points(np.random.default_rng(9), 1)[0]
    samp.check_point(point, margin=2.5 * cg.DEFAULT_FD_STEP)
    for bad in (np.inf, np.nan):
        point[coord] = bad
        with pytest.raises(cg.DomainEdge):
            samp.check_point(point, margin=0.0)
        with pytest.raises(cg.DomainEdge):
            cg.fd_ricci_oracle(samp, point)


def test_random_points_stay_inside():
    samp = twisted_sampler()
    rng = np.random.default_rng(5)
    pts = samp.random_points(rng, 50)
    for p in pts:
        samp.check_point(p, margin=2.5 * cg.DEFAULT_FD_STEP)


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
