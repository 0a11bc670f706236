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
    DEFAULT_FD_STEP,
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
    kept so curvature oracles can stencil around the point.
    """

    blocks: ChartMetricBlocks
    point: np.ndarray
    g_real: np.ndarray
    g_real_inv: np.ndarray
    j: np.ndarray
    vertical: np.ndarray
    horizontal: np.ndarray
    sampler: ChartSampler

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


def frame_point(sampler: ChartSampler, point: np.ndarray) -> FramePoint:
    """The blocks of `sampler` at `point` with their adapted frames."""
    point = np.asarray(point, dtype=float)
    blocks = sampler.evaluate(point)
    n = blocks.n
    d = 2 * n + 2
    g = real_metric(blocks)
    ginv = np.linalg.inv(g)
    j = complex_structure(n + 1)
    eye = np.eye(d)
    vertical = _gram_schmidt(g, [eye[2 * n], eye[2 * n + 1]], [])
    horizontal = _gram_schmidt(g, [eye[a] for a in range(2 * n)],
                               list(vertical))
    return FramePoint(blocks=blocks, point=point, g_real=g, g_real_inv=ginv,
                      j=j, vertical=vertical, horizontal=horizontal,
                      sampler=sampler)


def inner(fp: FramePoint, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ fp.g_real @ y)


def omega(fp: FramePoint, x: np.ndarray, y: np.ndarray) -> float:
    """Kahler form omega(x, y) = g(Jx, y)."""
    return float((fp.j @ x) @ fp.g_real @ y)


def _require_horizontal(fp: FramePoint, xs: np.ndarray) -> None:
    """Refuse the rows x of `xs` unless each is finite and has
    |g(u, x)| <= HORIZONTALITY_TOL |x| for both frame verticals u."""
    if not np.all(np.isfinite(xs)):
        raise NotHorizontal("vector is not finite")
    xg = xs @ fp.g_real
    nrm = np.sqrt(np.maximum(np.sum(xg * xs, axis=1), 1e-30))
    if not np.all(np.abs(fp.vertical @ xg.T) <= HORIZONTALITY_TOL * nrm):
        raise NotHorizontal("vector has a vertical component")


# ---------------------------------------------------------------------------
# gradient invariants


def grad_f(fp: FramePoint) -> np.ndarray:
    """Real gradient vector of the dilation; vertical by construction."""
    b = fp.blocks
    d_hol = np.concatenate([b.df_dz, [complex(b.df_dxi)]])
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


def _a_stack(fp: FramePoint, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A(x_i, y_j), shape (k, m, d), on the horizontal rows of `xs` (k, d)
    and `ys` (m, d), from G = xs g ys^T and Omega = (xs J^T) g ys^T."""
    _require_horizontal(fp, xs)
    _require_horizontal(fp, ys)
    v = grad_ln_f(fp)
    gy = fp.g_real @ ys.T
    gram = xs @ gy
    om = (xs @ fp.j.T) @ gy
    return 0.5 * (om[..., None] * (fp.j @ v) - gram[..., None] * v)


def a_tensor(fp: FramePoint, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vertical value of the fundamental tensor on two horizontal vectors.

    A_xy = 1/2 (omega(x, y) J grad(ln f) - g(x, y) grad(ln f)); the skew
    part is the obstruction to integrability, the symmetric part the mean
    curvature of the horizontal distribution.
    """
    return _a_stack(fp, np.array([x]), np.array([y]))[0, 0]


def a_tensor_mixed(fp: FramePoint, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Horizontal value on (horizontal, vertical), via the duality
    g(A_x u, y) = -g(A_x y, u)."""
    hor = fp.horizontal
    return -((_a_stack(fp, np.array([x]), hor)[0] @ fp.g_real @ u) @ hor)


def a_norm_sq(fp: FramePoint) -> float:
    """Full tensor norm |A|^2, both slots counted.

    The (horizontal, vertical) frame sum equals the (horizontal,
    horizontal) one by duality, hence the factor two on the one
    (horizontal, horizontal) frame sum.
    """
    a = _a_stack(fp, fp.horizontal, fp.horizontal).reshape(-1, fp.dim)
    return 2.0 * float(np.sum((a @ fp.g_real) * a))


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
                       kappa_base: float,
                       step: float = DEFAULT_FD_STEP) -> float:
    """Defect of kappa_B / f = kappa_M + 3 |A_xy|^2 + |grad ln lambda|^2.

    `kappa_base` is the base sectional curvature of the projected plane;
    kappa_M comes from the metric-only curvature stencil, the remaining
    terms from closed frame algebra, so the residual genuinely ties the
    two routes together.  Zero within stencil tolerance for valid
    submersion metrics.
    """
    w = a_tensor(fp, x, y)
    gram = inner(fp, x, x) * inner(fp, y, y) - inner(fp, x, y) ** 2
    if not gram > 1e-12:
        raise DegeneratePlane("plane spanning vectors are parallel")
    fp.sampler.check_point(fp.point, 2.0 * step)
    rlow = riemann_fd(fp.sampler.metric_fn(), fp.point, step)
    ambient = sectional_from_riemann(rlow, fp.g_real, x, y)
    return (kappa_base / fp.blocks.f
            - ambient - 3.0 * inner(fp, w, w) - dilation_grad_norm_sq(fp))


def base_sectional_fd(fp: FramePoint, x: np.ndarray, y: np.ndarray,
                      step: float = DEFAULT_FD_STEP) -> float:
    """Base sectional curvature of the projected plane, by stencils on the
    base metric alone (the projection drops fiber coordinates)."""
    n = fp.n
    fiber_tail = fp.point[2 * n:]
    samp = fp.sampler
    samp.check_point(fp.point, 2.0 * step)

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
    rows, index = _distinct(_hessian_grid(fp.point, step))
    blocks = fp.sampler.evaluate_batch(rows)
    lnf = np.log(blocks.f)[index]
    grad1 = (lnf[0, 1::2] - lnf[0, 2::2]) / (2.0 * step)
    # the first row of the grid is the Christoffel stencil of `_star`
    gamma = _christoffel(real_metric(blocks)[index[0]], step)
    return _real_hessian(lnf, step) - np.einsum('cab,c->ab', gamma, grad1)


def vertical_horizontal_curvature(fp: FramePoint,
                                  step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Closed-form R(v_i, x_j, v_i, x_j) over the adapted frames, (2, 2n).

    For unit vertical u and unit horizontal x, <R(x, u) u, x> =
    -1/2 (Hess ln f (u, u) + (d ln f (u))^2) + |A_x u|^2, the Hessian of
    ln f stenciled once and |A_x u|^2 = sum_e g(A(x, e), u)^2 over the frame.
    Each entry stays bounded while the fiber collapses, which is what
    makes the vertical sectional term dominate the curvature blowup.
    """
    fp.sampler.check_point(fp.point, step)
    hess = _hessian_ln_f(fp, step)
    g, ver, hor = fp.g_real, fp.vertical, fp.horizontal
    du = grad_ln_f(fp) @ g @ ver.T
    hess_uu = np.sum((ver @ hess) * ver, axis=1)
    au_sq = np.sum((_a_stack(fp, hor, hor) @ g @ ver.T) ** 2, axis=1)
    return (-0.5 * (hess_uu + du * du))[:, None] + au_sq.T


def mixed_curvature_residuals(fp: FramePoint, step: float = DEFAULT_FD_STEP,
                              rlow: np.ndarray | None = None
                              ) -> tuple[float, float]:
    """Max |<R(h, h) h, v>| and |<R(v, v) v, h>| over the adapted frames.

    These are the curvature components a metric product cannot have; for
    the structured metrics here they vanish to stencil tolerance, and a
    generic perturbation of the metric makes them jump, so they act as a
    splitting detector.
    """
    if rlow is None:
        fp.sampler.check_point(fp.point, 2.0 * step)
        rlow = riemann_fd(fp.sampler.metric_fn(), fp.point, step)
    # riem4(rlow, x, y, z, w) contracts rlow's slots with (w, z, x, y)
    hor, ver = fp.horizontal, fp.vertical
    # hhv[u, z, x, y] = riem4(x, y, z, u), slots a, b, c, d in turn
    hhv = np.tensordot(ver, rlow, axes=(1, 0))
    for _ in range(3):
        hhv = np.tensordot(hhv, hor, axes=(1, 1))
    # vvh[x, z] = riem4(v0, v1, z, x)
    vvh = hor @ (rlow @ ver[1] @ ver[0]) @ ver.T
    return float(np.max(np.abs(hhv))), float(np.max(np.abs(vvh)))
