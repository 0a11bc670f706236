"""The stacked frame algebra of `oneill_curvature` against its per-pair
definitions, its refusal of non-finite and non-horizontal input, and the
fixed contractions that search no einsum path per call."""

import dataclasses

import numpy as np
import pytest

from conftest import make_logistic
from fiberflow import chart_geometry as cg
from fiberflow import oneill_curvature as oc


def twisted_frame(n, seed):
    samp = cg.calabi_sampler(make_logistic(1.0, 1.5), n=n, k=1)
    p = samp.random_points(np.random.default_rng(seed), 1)[0]
    return oc.frame_point(samp, p)


def with_row(fp, index, row):
    hor = fp.horizontal.copy()
    hor[index] = row
    return dataclasses.replace(fp, horizontal=hor)


# ---------------------------------------------------------------------------
# stacked sums against the per-pair definitions


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_norm_sq_is_the_frame_pair_sum(n, seed):
    fp = twisted_frame(n, seed)
    pairs = sum(oc.inner(fp, w, w) for w in
                (oc.a_tensor(fp, x, y) for x in fp.horizontal
                 for y in fp.horizontal))
    assert oc.a_norm_sq(fp) == pytest.approx(2.0 * pairs, rel=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertical_horizontal_curvature_is_the_per_pair_closed_form(n, seed):
    fp = twisted_frame(n, seed)
    hess = oc._hessian_ln_f(fp, cg.DEFAULT_FD_STEP)
    v = oc.grad_ln_f(fp)
    want = np.array([[-0.5 * (u @ hess @ u + (v @ fp.g_real @ u) ** 2)
                      + oc.inner(fp, au, au)
                      for au in (oc.a_tensor_mixed(fp, x, u)
                                 for x in fp.horizontal)]
                     for u in fp.vertical])
    got = oc.vertical_horizontal_curvature(fp)
    assert got.shape == (2, 2 * n)
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("scale, refused", [(0.5, False), (2.0, True)])
def test_horizontality_threshold_is_per_vector(scale, refused):
    fp = twisted_frame(2, 4)
    row = fp.horizontal[1] + scale * oc.HORIZONTALITY_TOL * fp.vertical[0]
    bent = with_row(fp, 1, row)
    if refused:
        for oracle in (oc.a_norm_sq, oc.vertical_horizontal_curvature):
            with pytest.raises(oc.NotHorizontal):
                oracle(bent)
    else:
        oc.a_norm_sq(bent)
        oc.vertical_horizontal_curvature(bent)


# ---------------------------------------------------------------------------
# non-finite input


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vectors_are_refused(bad):
    fp = twisted_frame(1, 6)
    x, y = fp.horizontal
    x_bad = x.copy()
    x_bad[0] = bad
    with pytest.raises(oc.NotHorizontal):
        oc.a_tensor(fp, x_bad, y)
    with pytest.raises(oc.NotHorizontal):
        oc.a_tensor_mixed(fp, x_bad, fp.vertical[0])
    with pytest.raises(oc.NotHorizontal):
        oc.sectional_residual(fp, x_bad, y, 2.0)
    bent = with_row(fp, 0, x_bad)
    for oracle in (oc.a_norm_sq, oc.vertical_horizontal_curvature):
        with pytest.raises(oc.NotHorizontal):
            oracle(bent)
    rlow = np.random.default_rng(0).normal(size=(fp.dim,) * 4)
    with pytest.raises(cg.ChartError):
        cg.sectional_from_riemann(rlow, fp.g_real, x_bad, y)
    with pytest.raises(cg.ChartError):
        cg.sectional_from_riemann(rlow, fp.g_real, x, x_bad)


# ---------------------------------------------------------------------------
# fixed contractions


def test_no_contraction_path_is_searched_per_call(monkeypatch):
    # the module whose einsum_path np.einsum(optimize=...) calls (numpy 2)
    from numpy._core import einsumfunc

    def refuse(*args, **kwargs):
        raise AssertionError("einsum_path called")

    monkeypatch.setattr(einsumfunc, "einsum_path", refuse)
    a = np.ones((2, 2))
    with pytest.raises(AssertionError):
        np.einsum("ij,jk->ik", a, a, optimize=True)
    fp = twisted_frame(3, 8)
    oc.frame_point(fp.sampler, fp.point)
    cg.riemann_fd(fp.sampler.metric_fn(), fp.point, cg.DEFAULT_FD_STEP)
    cg.fd_ricci_oracle(fp.sampler, fp.point, richardson=True)
    oc.mixed_curvature_residuals(fp)
    oc.vertical_horizontal_curvature(fp)
    oc.a_norm_sq(fp)
