"""Curvature bookkeeping for the fibration: fundamental tensor of the
horizontal distribution, gradient invariants, sectional-curvature splitting.

Everything operates on real orthonormal frames built at a single chart
point.  The fundamental tensor combines the non-integrability of the
horizontal distribution with its failure to be minimal; for the metrics
handled here both parts are controlled by the vertical gradient of the
dilation, which is what the closed forms below exploit.  Finite-difference
routines from `chart_geometry` act as the independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart_geometry import (
    ChartError,
    ChartMetricBlocks,
    ChartSampler,
    _christoffel,
    _distinct,
    _hessian_grid,
    _real_hessian,
    complex_structure,
    real_metric,
    real_metric_from_hermitian,
    real_partials,
    riemann_fd,
    riem4,
    sectional_from_riemann,
)


class NotHorizontal(ChartError):
    """Vector handed to a horizontal-slot operation is not horizontal."""


class DegeneratePlane(ChartError):
    """Spanning vectors are linearly dependent (or numerically so)."""


HORIZONTALITY_TOL = 1e-9


@dataclass(frozen=True)
class FramePoint:
    """Chart point with assembled real metric and adapted orthonormal frames.

    `vertical` has shape (2, d) and spans the fiber tangent; `horizontal`
    has shape (2n, d).  Rows are orthonormal for `g_real`.  `sampler` is
    kept when known so curvature oracles can stencil around the point.
    """

    blocks: ChartMetricBlocks
    point: np.ndarray
    g_real: np.ndarray
    g_real_inv: np.ndarray
    j: np.ndarray
    vertical: np.ndarray
    horizontal: np.ndarray
    sampler: ChartSampler | None = None

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def dim(self) -> int:
        return 2 * self.blocks.n + 2


def _gram_schmidt(g: np.ndarray, seeds: list[np.ndarray],
                  against: list[np.ndarray]) -> np.ndarray:
    out: list[np.ndarray] = []
    for v in seeds:
        w = np.array(v, dtype=float)
        for u in against + out:
            w = w - (u @ g @ w) * u
        nrm = float(w @ g @ w)
        if nrm <= 1e-24:
            raise DegeneratePlane("frame seed collapsed under projection")
        out.append(w / np.sqrt(nrm))
    return np.array(out)


def frame_point_from_blocks(blocks: ChartMetricBlocks,
                            point: np.ndarray | None = None,
                            sampler: ChartSampler | None = None) -> FramePoint:
    n = blocks.n
    d = 2 * n + 2
    g = real_metric(blocks)
    ginv = np.linalg.inv(g)
    j = complex_structure(n + 1)
    eye = np.eye(d)
    vertical = _gram_schmidt(g, [eye[2 * n], eye[2 * n + 1]], [])
    horizontal = _gram_schmidt(g, [eye[a] for a in range(2 * n)],
                               list(vertical))
    if point is None:
        point = np.zeros(d)
    return FramePoint(blocks=blocks, point=np.asarray(point, dtype=float),
                      g_real=g, g_real_inv=ginv, j=j,
                      vertical=vertical, horizontal=horizontal,
                      sampler=sampler)


def frame_point(sampler: ChartSampler, point: np.ndarray) -> FramePoint:
    blocks = sampler.evaluate(np.asarray(point, dtype=float))
    return frame_point_from_blocks(blocks, point=point, sampler=sampler)


def inner(fp: FramePoint, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ fp.g_real @ y)


def omega(fp: FramePoint, x: np.ndarray, y: np.ndarray) -> float:
    """Kahler form omega(x, y) = g(Jx, y)."""
    return float((fp.j @ x) @ fp.g_real @ y)


def _require_horizontal(fp: FramePoint, x: np.ndarray) -> None:
    nrm = np.sqrt(max(inner(fp, x, x), 1e-30))
    for u in fp.vertical:
        if abs(inner(fp, u, x)) > HORIZONTALITY_TOL * nrm:
            raise NotHorizontal("vector has a vertical component")


# ---------------------------------------------------------------------------
# gradient invariants


def grad_f(fp: FramePoint) -> np.ndarray:
    """Real gradient vector of the dilation; vertical by construction."""
    b = fp.blocks
    d_hol = np.concatenate([b.df_dz_filled(), [complex(b.df_dxi)]])
    return fp.g_real_inv @ real_partials(d_hol)


def grad_ln_f(fp: FramePoint) -> np.ndarray:
    return grad_f(fp) / fp.blocks.f


def grad_f_norm_sq(fp: FramePoint) -> float:
    """|grad f|^2 = 2 |d_xi f|^2 / g_fiber when the gradient is vertical."""
    v = grad_f(fp)
    return inner(fp, v, v)


def grad_ln_f_norm_sq(fp: FramePoint) -> float:
    v = grad_ln_f(fp)
    return inner(fp, v, v)


# ---------------------------------------------------------------------------
# fundamental tensor of the horizontal distribution


def a_tensor(fp: FramePoint, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vertical value of the fundamental tensor on two horizontal vectors.

    A_xy = 1/2 (omega(x, y) J grad(ln f) - g(x, y) grad(ln f)); the skew
    part is the obstruction to integrability, the symmetric part the mean
    curvature of the horizontal distribution.
    """
    _require_horizontal(fp, x)
    _require_horizontal(fp, y)
    v = grad_ln_f(fp)
    return 0.5 * (omega(fp, x, y) * (fp.j @ v) - inner(fp, x, y) * v)


def a_tensor_mixed(fp: FramePoint, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Horizontal value on (horizontal, vertical), via the duality
    g(A_x u, y) = -g(A_x y, u)."""
    _require_horizontal(fp, x)
    out = np.zeros(fp.dim)
    for e in fp.horizontal:
        out = out - inner(fp, a_tensor(fp, x, e), u) * e
    return out


def a_norm_sq(fp: FramePoint) -> float:
    """Full tensor norm |A|^2, both slots counted.

    The (horizontal, vertical) frame sum equals the (horizontal,
    horizontal) one by duality, hence the factor two on a single brute
    double sum.
    """
    tot = 0.0
    for x in fp.horizontal:
        for y in fp.horizontal:
            w = a_tensor(fp, x, y)
            tot += inner(fp, w, w)
    return 2.0 * tot


# ---------------------------------------------------------------------------
# sectional-curvature splitting


def dilation_grad_norm_sq(fp: FramePoint) -> float:
    """|grad ln lambda|^2 for the horizontally conformal factor lambda.

    The horizontal part of the metric is f times the base metric, so the
    conformality factor of the projection is lambda = f^(-1/2) and the
    gradient norm is one quarter of |grad ln f|^2.  The curvature split
    below holds with this normalization (and measurably not with ln f
    itself).
    """
    return 0.25 * grad_ln_f_norm_sq(fp)


def sectional_residual(fp: FramePoint, x: np.ndarray, y: np.ndarray,
                       kappa_base: float, step: float = 1e-3) -> float:
    """Defect of kappa_B / f = kappa_M + 3 |A_xy|^2 + |grad ln lambda|^2.

    `kappa_base` is the base sectional curvature of the projected plane;
    kappa_M comes from the metric-only curvature stencil, the remaining
    terms from closed frame algebra, so the residual genuinely ties the
    two routes together.  Zero within stencil tolerance for valid
    submersion metrics.
    """
    if fp.sampler is None:
        raise ChartError("sectional residual needs a sampler to stencil around")
    _require_horizontal(fp, x)
    _require_horizontal(fp, y)
    gram = inner(fp, x, x) * inner(fp, y, y) - inner(fp, x, y) ** 2
    if gram <= 1e-12:
        raise DegeneratePlane("plane spanning vectors are parallel")
    rlow = riemann_fd(fp.sampler.metric_fn(), fp.point, step)
    ambient = sectional_from_riemann(rlow, fp.g_real, x, y)
    w = a_tensor(fp, x, y)
    return (kappa_base / fp.blocks.f
            - ambient - 3.0 * inner(fp, w, w) - dilation_grad_norm_sq(fp))


def base_sectional_fd(fp: FramePoint, x: np.ndarray, y: np.ndarray,
                      step: float = 1e-3) -> float:
    """Base sectional curvature of the projected plane, by stencils on the
    base metric alone (the projection drops fiber coordinates)."""
    if fp.sampler is None:
        raise ChartError("base stencil needs a sampler")
    n = fp.n
    fiber_tail = fp.point[2 * n:]
    samp = fp.sampler

    def base_fn(points: np.ndarray) -> np.ndarray:
        tails = np.broadcast_to(fiber_tail, (len(points), 2))
        full = np.concatenate([points, tails], axis=1)
        return real_metric_from_hermitian(samp.evaluate_batch(full).base.h)

    h_real = real_metric_from_hermitian(fp.blocks.base.h)
    rlow_b = riemann_fd(base_fn, fp.point[:2 * n], step)
    return sectional_from_riemann(rlow_b, h_real, x[:2 * n], y[:2 * n])


def vertical_sectional(blocks: ChartMetricBlocks) -> float:
    """Intrinsic (= ambient, fibers being geodesic) fiber curvature."""
    g = blocks.g_fiber
    dd_ln_g = blocks.d2g / g - abs(blocks.dg_dxi) ** 2 / g ** 2
    return float(-dd_ln_g / g)


def _hessian_ln_f(fp: FramePoint, step: float) -> np.ndarray:
    """Covariant Hessian matrix of ln f at the frame point via metric-only
    stencils.  One sampler call on the distinct stencil points feeds both
    the ln f stencil and the Christoffel stencil."""
    if fp.sampler is None:
        raise ChartError("hessian stencil needs a sampler")
    rows, index = _distinct(_hessian_grid(fp.point, step))
    blocks = fp.sampler.evaluate_batch(rows)
    lnf = np.log(blocks.f)[index]
    grad1 = (lnf[0, 1::2] - lnf[0, 2::2]) / (2.0 * step)
    # the first row of the grid is the Christoffel stencil of `_star`
    gamma = _christoffel(real_metric(blocks)[index[0]], step)
    return _real_hessian(lnf, step) - np.einsum('cab,c->ab', gamma, grad1)


def _mixed_sectional(fp: FramePoint, u: np.ndarray, x: np.ndarray,
                     hess_ln_f: np.ndarray) -> float:
    """Closed form of `mixed_sectional_closed` from a ready Hessian matrix."""
    v = grad_ln_f(fp)
    du = inner(fp, v, u)
    au = a_tensor_mixed(fp, x, u)
    hess = float(u @ hess_ln_f @ u)
    return -0.5 * (hess + du * du) + inner(fp, au, au)


def mixed_sectional_closed(fp: FramePoint, u: np.ndarray, x: np.ndarray,
                           step: float = 1e-3) -> float:
    """<R(x, u) u, x> for unit vertical u, unit horizontal x.

    Closed form -1/2 (Hess ln f (u, u) + (d ln f (u))^2) + |A_x u|^2; the
    Hessian piece is stenciled, the rest is frame algebra.
    """
    return _mixed_sectional(fp, u, x, _hessian_ln_f(fp, step))


def mixed_sectional_fd(fp: FramePoint, u: np.ndarray, x: np.ndarray,
                       step: float = 1e-3,
                       rlow: np.ndarray | None = None) -> float:
    if rlow is None:
        if fp.sampler is None:
            raise ChartError("curvature stencil needs a sampler")
        rlow = riemann_fd(fp.sampler.metric_fn(), fp.point, step)
    return riem4(rlow, x, u, u, x)


def vertical_horizontal_curvature(fp: FramePoint,
                                  step: float = 1e-3) -> np.ndarray:
    """Closed-form R(v_i, x_j, v_i, x_j) over the adapted frames, (2, 2n).

    Each entry stays bounded while the fiber collapses, which is what
    makes the vertical sectional term dominate the curvature blowup.
    """
    hess = _hessian_ln_f(fp, step)
    out = np.zeros((2, 2 * fp.n))
    for i, u in enumerate(fp.vertical):
        for jdx, x in enumerate(fp.horizontal):
            out[i, jdx] = _mixed_sectional(fp, u, x, hess)
    return out


def mixed_curvature_residuals(fp: FramePoint, step: float = 1e-3,
                              rlow: np.ndarray | None = None
                              ) -> tuple[float, float]:
    """Max |<R(h, h) h, v>| and |<R(v, v) v, h>| over the adapted frames.

    These are the curvature components a metric product cannot have; for
    the structured metrics here they vanish to stencil tolerance, and a
    generic perturbation of the metric makes them jump, so they act as a
    splitting detector.
    """
    if rlow is None:
        if fp.sampler is None:
            raise ChartError("curvature stencil needs a sampler")
        rlow = riemann_fd(fp.sampler.metric_fn(), fp.point, step)
    # riem4(rlow, x, y, z, w) contracts rlow's slots with (w, z, x, y)
    hor, ver = fp.horizontal, fp.vertical
    hhv = np.einsum('abcd,ua,zb,xc,yd->xyzu', rlow, ver, hor, hor, hor,
                    optimize=True)
    vvh = np.einsum('abcd,xa,zb,c,d->zx', rlow, hor, ver, ver[0], ver[1],
                    optimize=True)
    return float(np.max(np.abs(hhv))), float(np.max(np.abs(vvh)))
