"""Block-form algebra for Kahler metrics adapted to a conformal submersion chart.

A chart carries holomorphic base coordinates z^1..z^n and one fiber coordinate
xi.  Metrics of submersion type are stored as structured blocks

    g_ij  = f * h_ij + s_i * conj(s_j) * g_fiber
    g_ix  = s_i * g_fiber
    g_xx  = g_fiber

where h is the base metric, f the dilation and s the connection one-form
components.  Everything here is pointwise algebra plus finite-difference
oracles that only see the assembled metric, so structured formulas and
oracle values can be compared without sharing code paths.

Real chart coordinates are ordered (x^1, y^1, ..., x^n, y^n, x_fiber,
y_fiber) with z = x + i*y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

POSITIVITY_FLOOR = 1e-14
STRUCTURE_TOL = 1e-8
DEFAULT_FD_STEP = 1e-3


class ChartError(Exception):
    """Base class for chart-level failures."""


class NonPositiveDefinite(ChartError):
    """Assembled metric (or a declared block) is not positive definite."""


class SingularBase(ChartError):
    """Base metric numerically singular."""


class StructureViolation(ChartError):
    """Chart data violates the submersion-structure preconditions."""


class DomainEdge(ChartError):
    """A finite-difference stencil would leave the sampler domain."""


# ---------------------------------------------------------------------------
# base metric data


@dataclass(frozen=True)
class BaseMetric:
    """Pointwise base-metric data: h, its Ricci tensor and declared scalar.

    `scalar` is the constant the flow normalization declares for the base,
    h^{ij} ricci_ij; for a Kahler-Einstein base it matches the pointwise
    trace everywhere.  `dh`/`d2h` hold holomorphic first and mixed second
    coordinate derivatives of h when the construction knows them (index
    layout dh[k,i,j] = d_k h_ij, d2h[k,l,i,j] = d_k d_lbar h_ij).
    """

    n: int
    h: np.ndarray
    ricci: np.ndarray
    scalar: float
    dh: np.ndarray | None = None
    d2h: np.ndarray | None = None

    def einstein_residual(self) -> np.ndarray:
        """(scalar/n) h - ricci, the pointwise Kahler-Einstein defect."""
        return (self.scalar / self.n) * self.h - self.ricci

    def trace_residual(self) -> float:
        """Difference between declared scalar and the pointwise trace."""
        tr = np.trace(np.linalg.solve(self.h, self.ricci)).real
        return abs(tr - self.scalar)

    def validate(self, tol: float = STRUCTURE_TOL) -> None:
        if self.h.shape != (self.n, self.n):
            raise StructureViolation("base metric shape mismatch")
        if not np.allclose(self.h, self.h.conj().T, atol=tol):
            raise StructureViolation("base metric not Hermitian")
        try:
            np.linalg.cholesky(self.h)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefinite("base metric not positive definite") from exc
        if self.trace_residual() > max(tol, 1e-6):
            raise StructureViolation("declared base scalar does not match trace")


def fubini_study_base(z: np.ndarray) -> BaseMetric:
    """Fubini-Study data at a chart point, normalized so Ric(h) = (n+1) h.

    Potential ln(1 + |z|^2); for n = 1 this is the round sphere with Gauss
    curvature 2 and total area 2*pi.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    a = 1.0 / (1.0 + np.vdot(z, z).real)
    eye = np.eye(n)
    zb = z.conj()
    zz = np.outer(zb, z)
    h = a * eye - (a * a) * zz
    # d_k h_ij = -a^2 (delta_ij zb_k + delta_jk zb_i) + 2 a^3 zb_i z_j zb_k,
    # stacked over k on the leading axis
    zk = zb[:, None, None]
    dh = (-(a * a) * (eye * zk)
          - (a * a) * (zb[:, None] * eye[:, None, :])
          + 2.0 * a ** 3 * zz * zk)
    d2h = _fs_second_derivs(z, a)
    ricci = (n + 1.0) * h
    return BaseMetric(n=n, h=h, ricci=ricci, scalar=float(n * (n + 1)), dh=dh, d2h=d2h)


def _fs_second_derivs(z: np.ndarray, a: float) -> np.ndarray:
    """d_k d_lbar h_ij for the Fubini-Study metric with potential ln(1+|z|^2).

    Axes are (k, l, i, j); `d_kl` is delta_kl, `d_il` delta_il and so on,
    each broadcast over the two axes it does not carry.
    """
    n = z.size
    eye = np.eye(n)
    zb = z.conj()
    zz = np.outer(zb, z)
    d_ij = eye[None, None]
    d_kl = eye[:, :, None, None]
    d_il = eye.T[None, :, :, None]
    d_kj = eye[:, None, None, :]
    zb_k = zb[:, None, None, None]
    z_l = z[None, :, None, None]
    zz_kl = zz[:, :, None, None]
    d2h = (-(a ** 2) * (d_ij * d_kl)
           + 2.0 * a ** 3 * (d_ij * zz_kl))
    d2h = d2h - (a ** 2) * (d_il * d_kj)
    d2h = d2h + 2.0 * a ** 3 * (
        (zb[:, None] * d_kj) * z_l
        + (d_il * z) * zb_k
        + d_kl * zz
    )
    return d2h - 6.0 * a ** 4 * zz * zz_kl


def flat_base(n: int) -> BaseMetric:
    """Flat base: identity h, zero curvature."""
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    return BaseMetric(n=n, h=eye, ricci=zero, scalar=0.0,
                      dh=np.zeros((n, n, n), dtype=complex),
                      d2h=np.zeros((n, n, n, n), dtype=complex))


def perturbed_fs_base(z: np.ndarray, amplitude: float = 0.1,
                      step: float = 1e-3) -> BaseMetric:
    """Fubini-Study base rescaled by a position-dependent factor.

    Keeps the unperturbed scalar constant in the declaration, so the
    Einstein residual acts as a detector for the broken symmetry.  The
    Ricci tensor comes from the log-det stencil, not a closed form.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size

    def h_at(zz: np.ndarray) -> np.ndarray:
        return (1.0 + amplitude * zz[0].real) * fubini_study_base(zz).h

    def logdet(p: np.ndarray) -> float:
        zz = p[0::2] + 1j * p[1::2]
        return float(np.linalg.slogdet(h_at(zz))[1])

    p0 = np.empty(2 * n)
    p0[0::2] = z.real
    p0[1::2] = z.imag
    ric = -hermitian_hessian_fd(logdet, p0, n, step)
    return BaseMetric(n=n, h=h_at(z), ricci=ric, scalar=float(n * (n + 1)))


# ---------------------------------------------------------------------------
# chart blocks


@dataclass(frozen=True)
class ChartMetricBlocks:
    """Structured metric data at a single chart point.

    Derivative fields follow the chart coordinates: `df_dxi` is the
    holomorphic fiber derivative of f, `df_dz` the holomorphic base
    derivatives, `d2f` the mixed fiber second derivative d_xi d_xibar f.
    `dsbar_dz[i, j] = d_{z_i} conj(s_j)` feeds the Kahler-compatibility
    check and `dsbar_dxi[j] = d_xi conj(s_j)` the totally-geodesic check.
    """

    base: BaseMetric
    f: float
    s: np.ndarray
    g_fiber: float
    df_dxi: complex = 0.0
    d2f: float = 0.0
    df_dz: np.ndarray | None = None
    dsbar_dz: np.ndarray | None = None
    dsbar_dxi: np.ndarray | None = None
    dg_dxi: complex = 0.0
    d2g: float = 0.0

    @property
    def n(self) -> int:
        return self.base.n

    def df_dz_filled(self) -> np.ndarray:
        if self.df_dz is None:
            return np.zeros(self.n, dtype=complex)
        return np.asarray(self.df_dz, dtype=complex)

    def dsbar_dxi_filled(self) -> np.ndarray:
        if self.dsbar_dxi is None:
            return np.zeros(self.n, dtype=complex)
        return np.asarray(self.dsbar_dxi, dtype=complex)

    def horizontal_homothety_residual(self) -> float:
        """Max |X_i(f)| over horizontal lifts X_i = d_i - s_i d_xi.

        The chart partials d_i f need not vanish; the coordinate-free
        statement of horizontal homothety is that f is constant along the
        horizontal distribution, i.e. the lift derivative vanishes.
        """
        res = self.df_dz_filled() - self.s * self.df_dxi
        return float(np.max(np.abs(res))) if self.n else 0.0

    def validate(self, tol: float = STRUCTURE_TOL) -> None:
        if self.f <= POSITIVITY_FLOOR:
            raise NonPositiveDefinite("dilation f must be positive")
        if self.g_fiber <= POSITIVITY_FLOOR:
            raise NonPositiveDefinite("fiber component must be positive")
        self.base.validate(tol)
        if self.s.shape != (self.n,):
            raise StructureViolation("connection components shape mismatch")
        if self.horizontal_homothety_residual() > tol:
            raise StructureViolation("gradient of f has a horizontal component")


def assemble_block_metric(blocks: ChartMetricBlocks, check: bool = True) -> np.ndarray:
    """Assemble the (n+1) x (n+1) Hermitian matrix from structured blocks."""
    n = blocks.n
    g = np.zeros((n + 1, n + 1), dtype=complex)
    s = blocks.s
    g[:n, :n] = blocks.f * blocks.base.h + np.outer(s, s.conj()) * blocks.g_fiber
    g[:n, n] = s * blocks.g_fiber
    g[n, :n] = s.conj() * blocks.g_fiber
    g[n, n] = blocks.g_fiber
    if check:
        if blocks.f <= POSITIVITY_FLOOR or blocks.g_fiber <= POSITIVITY_FLOOR:
            raise NonPositiveDefinite("non-positive dilation or fiber component")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefinite("assembled metric not positive definite") from exc
    return g


@dataclass(frozen=True)
class InverseBlocks:
    """Blocks of the inverse metric, entries of the true matrix inverse."""

    base: np.ndarray
    mixed: np.ndarray
    fiber: float

    def assemble(self) -> np.ndarray:
        n = self.base.shape[0]
        ginv = np.zeros((n + 1, n + 1), dtype=complex)
        ginv[:n, :n] = self.base
        ginv[:n, n] = self.mixed
        ginv[n, :n] = self.mixed.conj()
        ginv[n, n] = self.fiber
        return ginv


def invert_block_metric(blocks: ChartMetricBlocks) -> InverseBlocks:
    """Closed-form inverse via the Schur complement f*h of the fiber entry.

    Returns entries of the literal matrix inverse; the structured forms are
      base  (1/f) h^{-1}
      mixed -(1/f) h^{-1} s
      fiber 1/g_fiber + (1/f) s^H h^{-1} s
    """
    if blocks.f <= POSITIVITY_FLOOR or blocks.g_fiber <= POSITIVITY_FLOOR:
        raise NonPositiveDefinite("non-positive dilation or fiber component")
    try:
        hinv_s = np.linalg.solve(blocks.base.h, blocks.s)
        hinv = np.linalg.inv(blocks.base.h)
    except np.linalg.LinAlgError as exc:
        raise SingularBase("base metric numerically singular") from exc
    inv_base = hinv / blocks.f
    inv_mixed = -hinv_s / blocks.f
    inv_fiber = 1.0 / blocks.g_fiber + float(np.vdot(blocks.s, hinv_s).real) / blocks.f
    return InverseBlocks(base=inv_base, mixed=inv_mixed, fiber=inv_fiber)


def fiber_christoffel(blocks: ChartMetricBlocks) -> np.ndarray:
    """Gamma^i_{xi xi} = (1/f) h^{i jbar} g_fiber d_xi conj(s_j).

    Vanishes exactly when the fibers are totally geodesic.
    """
    dsbar = blocks.dsbar_dxi_filled()
    try:
        # h^{i jbar} w_j contracts with the conjugate-transposed inverse
        contr = np.linalg.solve(blocks.base.h.conj(), dsbar)
    except np.linalg.LinAlgError as exc:
        raise SingularBase("base metric numerically singular") from exc
    return (blocks.g_fiber / blocks.f) * contr


def check_totally_geodesic(blocks: ChartMetricBlocks) -> float:
    """Max norm of the fiber Christoffel block; zero iff fibers are geodesic."""
    gamma = fiber_christoffel(blocks)
    return float(np.max(np.abs(gamma))) if blocks.n else 0.0


def check_kahler_compatibility(blocks: ChartMetricBlocks) -> float:
    """Residual of h_ij * d_xi f = d_i conj(s_j) * g_fiber (max entry)."""
    if blocks.dsbar_dz is None:
        dsbar = np.zeros((blocks.n, blocks.n), dtype=complex)
    else:
        dsbar = blocks.dsbar_dz
    res = blocks.base.h * blocks.df_dxi - dsbar * blocks.g_fiber
    return float(np.max(np.abs(res))) if blocks.n else 0.0


def check_base_einstein(base: BaseMetric) -> float:
    """Max-entry norm of (scalar/n) h - ricci against the declared constant."""
    return float(np.max(np.abs(base.einstein_residual())))


# ---------------------------------------------------------------------------
# Ricci blocks


@dataclass(frozen=True)
class RicciBlocks:
    base: np.ndarray
    mixed: np.ndarray
    fiber: float

    def assemble(self) -> np.ndarray:
        n = self.base.shape[0]
        ric = np.zeros((n + 1, n + 1), dtype=complex)
        ric[:n, :n] = self.base
        ric[:n, n] = self.mixed
        ric[n, :n] = self.mixed.conj()
        ric[n, n] = self.fiber
        return ric


def complex_laplacian_f(blocks: ChartMetricBlocks) -> float:
    """Laplacian of the dilation for a vertical gradient.

    Delta f = (1/g_fiber) ((n/f) |d_xi f|^2 + d_xi d_xibar f).
    """
    n = blocks.n
    grad_term = (n / blocks.f) * abs(blocks.df_dxi) ** 2
    return float((grad_term + blocks.d2f) / blocks.g_fiber)


def ricci_blocks(blocks: ChartMetricBlocks, tol: float = STRUCTURE_TOL) -> RicciBlocks:
    """Structured Ricci blocks of a submersion-type Kahler metric.

    fiber: -d_xi d_xibar (ln g_fiber + n ln f)
    mixed: s_i * fiber
    base:  (-Delta f + scalar/n) h_ij + s_i conj(s_j) * fiber
    """
    if blocks.horizontal_homothety_residual() > tol:
        raise StructureViolation("gradient of f has a horizontal component")
    if float(np.max(np.abs(blocks.dsbar_dxi_filled()), initial=0.0)) > tol:
        raise StructureViolation("fibers not totally geodesic")
    n = blocks.n
    g = blocks.g_fiber
    f = blocks.f
    dd_ln_g = blocks.d2g / g - abs(blocks.dg_dxi) ** 2 / g ** 2
    dd_ln_f = blocks.d2f / f - abs(blocks.df_dxi) ** 2 / f ** 2
    fiber = -(dd_ln_g + n * dd_ln_f)
    mixed = blocks.s * fiber
    lap = complex_laplacian_f(blocks)
    base = (-lap + blocks.base.scalar / n) * blocks.base.h \
        + np.outer(blocks.s, blocks.s.conj()) * fiber
    return RicciBlocks(base=base, mixed=mixed, fiber=float(fiber))


# ---------------------------------------------------------------------------
# real form, almost complex structure


def real_metric(blocks: ChartMetricBlocks) -> np.ndarray:
    """Real Riemannian metric 2 Re(g_AB dz^A dzbar^B) in real coordinates."""
    g = assemble_block_metric(blocks, check=False)
    return real_metric_from_hermitian(g)


def real_metric_from_hermitian(g: np.ndarray) -> np.ndarray:
    m = g.shape[0]
    out = np.zeros((2 * m, 2 * m))
    a = 2.0 * g.real
    b = 2.0 * g.imag
    out[0::2, 0::2] = a
    out[1::2, 1::2] = a
    out[0::2, 1::2] = b
    out[1::2, 0::2] = -b
    return out


def complex_structure(m: int) -> np.ndarray:
    """Matrix of J with J d/dx = d/dy per complex coordinate, size 2m."""
    j = np.zeros((2 * m, 2 * m))
    for a in range(m):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0
    return j


def real_partials(dz: np.ndarray) -> np.ndarray:
    """Real partial derivatives of a real scalar from holomorphic ones.

    d/dx F = 2 Re d_z F, d/dy F = -2 Im d_z F.
    """
    dz = np.asarray(dz, dtype=complex)
    out = np.empty(2 * dz.size)
    out[0::2] = 2.0 * dz.real
    out[1::2] = -2.0 * dz.imag
    return out


def point_to_complex(point: np.ndarray) -> tuple[np.ndarray, complex]:
    p = np.asarray(point, dtype=float)
    m = p.size // 2
    zs = p[0:2 * m:2] + 1j * p[1:2 * m:2]
    return zs[:-1], complex(zs[-1])


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class ChartSampler:
    """Deterministic map from a real chart point to structured blocks.

    `domain` is a (2n+2, 2) box of admissible real coordinates; oracles
    refuse stencils that would leave it.
    """

    n: int
    evaluate: Callable[[np.ndarray], ChartMetricBlocks]
    domain: np.ndarray
    fd_step: float = DEFAULT_FD_STEP

    def metric_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return lambda p: real_metric(self.evaluate(p))

    def log_det_fn(self) -> Callable[[np.ndarray], float]:
        def ld(p: np.ndarray) -> float:
            g = assemble_block_metric(self.evaluate(p), check=False)
            sign, val = np.linalg.slogdet(g)
            return float(val)
        return ld

    def check_point(self, point: np.ndarray, margin: float) -> None:
        p = np.asarray(point, dtype=float)
        lo = self.domain[:, 0] + margin
        hi = self.domain[:, 1] - margin
        if np.any(p < lo) or np.any(p > hi):
            raise DomainEdge("stencil leaves the sampler domain")

    def random_points(self, rng: np.random.Generator, count: int,
                      margin: float | None = None) -> np.ndarray:
        m = 4.0 * self.fd_step if margin is None else margin
        lo = self.domain[:, 0] + m
        hi = self.domain[:, 1] - m
        return rng.uniform(lo, hi, size=(count, self.domain.shape[0]))


def _box(n: int, z_bound: float, re_range: tuple[float, float],
         im_range: tuple[float, float]) -> np.ndarray:
    box = []
    for _ in range(n):
        box.append([-z_bound, z_bound])
        box.append([-z_bound, z_bound])
    box.append(list(re_range))
    box.append(list(im_range))
    return np.array(box)


def flat_sampler(n: int = 1) -> ChartSampler:
    base = flat_base(n)

    def evaluate(point: np.ndarray) -> ChartMetricBlocks:
        return ChartMetricBlocks(
            base=base, f=1.0, s=np.zeros(n, dtype=complex), g_fiber=1.0,
            df_dz=np.zeros(n, dtype=complex),
            dsbar_dz=np.zeros((n, n), dtype=complex),
            dsbar_dxi=np.zeros(n, dtype=complex))

    return ChartSampler(n=n, evaluate=evaluate,
                        domain=_box(n, 0.8, (-0.8, 0.8), (-0.8, 0.8)))


def product_sampler(base_size: float = 3.0, fiber_size: float = 1.0,
                    n: int = 1) -> ChartSampler:
    """Product of a Fubini-Study base scaled by `base_size` and a round fiber.

    The fiber sphere carries fiber_size * omega_FS, so its area is
    2*pi*fiber_size and its Gauss curvature 2/fiber_size.
    """

    def evaluate(point: np.ndarray) -> ChartMetricBlocks:
        z, xi = point_to_complex(point)
        base = fubini_study_base(z)
        r2 = abs(xi) ** 2
        w = 1.0 + r2
        gf = fiber_size / w ** 2
        dg = -2.0 * fiber_size * np.conj(xi) / w ** 3
        d2g = -2.0 * fiber_size * (1.0 - 2.0 * r2) / w ** 4
        return ChartMetricBlocks(
            base=base, f=base_size, s=np.zeros(n, dtype=complex), g_fiber=gf,
            df_dz=np.zeros(n, dtype=complex),
            dsbar_dz=np.zeros((n, n), dtype=complex),
            dsbar_dxi=np.zeros(n, dtype=complex),
            dg_dxi=complex(dg), d2g=float(d2g))

    return ChartSampler(n=n, evaluate=evaluate,
                        domain=_box(n, 0.5, (-0.9, 0.9), (-0.9, 0.9)))


# The chart box of `calabi_sampler` as `_box` takes it after n: |Re z_i|,
# |Im z_i| <= 0.35, Re xi in [0.65, 1.45] and Im xi in [-0.35, 0.35].
_CALABI_BOX = (0.35, (0.65, 1.45), (-0.35, 0.35))


def calabi_sampler(profile: Callable[[float], tuple[float, float, float, float]],
                   n: int = 1, k: int = 1) -> ChartSampler:
    """Calabi-symmetric metric on a twisted fiber chart over Fubini-Study.

    The potential depends on rho = ln|xi|^2 + k ln(1+|z|^2) only; `profile`
    returns (f, df/drho, d2f/drho2, d3f/drho3) of the dilation.  With
    v = f'/k the fiber component is g_fiber = v * exp(k*phi - rho); the
    connection components are s_i = k xi d_i phi, holomorphic in xi, so the
    structure is Kahler-compatible and totally geodesic by construction.
    """

    def evaluate(point: np.ndarray) -> ChartMetricBlocks:
        z, xi = point_to_complex(point)
        base = fubini_study_base(z)
        a = 1.0 / (1.0 + np.vdot(z, z).real)
        phi = float(np.log(1.0 / a))
        phi_d = z.conj() * a
        r2 = abs(xi) ** 2
        if r2 <= 0.0:
            raise DomainEdge("fiber coordinate too close to the pole")
        rho = float(np.log(r2) + k * phi)
        fval, f1, f2, f3 = profile(rho)
        v, v1, v2 = f1 / k, f2 / k, f3 / k
        if f1 <= 0.0:
            raise NonPositiveDefinite("profile not strictly increasing")
        efac = np.exp(k * phi - rho)
        gf = v * efac
        dg = (v1 - v) * efac / xi
        d2g = (v2 - 2.0 * v1 + v) * efac / r2
        s = k * xi * phi_d
        dsbar_dz = k * np.conj(xi) * base.h
        return ChartMetricBlocks(
            base=base, f=float(fval), s=s, g_fiber=float(gf),
            df_dxi=complex(f1 / xi), d2f=float(f2 / r2),
            df_dz=f1 * k * phi_d,
            dsbar_dz=dsbar_dz,
            dsbar_dxi=np.zeros(n, dtype=complex),
            dg_dxi=complex(dg), d2g=float(d2g))

    return ChartSampler(n=n, evaluate=evaluate,
                        domain=_box(n, *_CALABI_BOX))


# ---------------------------------------------------------------------------
# finite-difference oracles


def _second_derivative(fn: Callable[[np.ndarray], float], p: np.ndarray,
                       a: int, h: float, f0: float) -> float:
    ea = np.zeros(p.size)
    ea[a] = h
    return (fn(p + ea) - 2.0 * f0 + fn(p - ea)) / h ** 2


def _mixed_derivative(fn: Callable[[np.ndarray], float], p: np.ndarray,
                      a: int, b: int, h: float) -> float:
    ea = np.zeros(p.size)
    eb = np.zeros(p.size)
    ea[a] = h
    eb[b] = h
    return (fn(p + ea + eb) - fn(p + ea - eb)
            - fn(p - ea + eb) + fn(p - ea - eb)) / (4.0 * h ** 2)


def hermitian_hessian_fd(fn: Callable[[np.ndarray], float], point: np.ndarray,
                         m: int, step: float) -> np.ndarray:
    """Mixed complex Hessian d_A d_Bbar of a real scalar by central stencils.

    d_A d_Abar = (d_xx + d_yy)/4; off-diagonal entries combine the four
    real mixed partials into (real + i imag)/4.
    """
    p = np.asarray(point, dtype=float)
    f0 = fn(p)
    out = np.zeros((m, m), dtype=complex)
    xs = [2 * a for a in range(m)]
    ys = [2 * a + 1 for a in range(m)]
    for a in range(m):
        dxx = _second_derivative(fn, p, xs[a], step, f0)
        dyy = _second_derivative(fn, p, ys[a], step, f0)
        out[a, a] = 0.25 * (dxx + dyy)
    for a in range(m):
        for b in range(a + 1, m):
            dxx = _mixed_derivative(fn, p, xs[a], xs[b], step)
            dyy = _mixed_derivative(fn, p, ys[a], ys[b], step)
            dxy = _mixed_derivative(fn, p, xs[a], ys[b], step)
            dyx = _mixed_derivative(fn, p, ys[a], xs[b], step)
            val = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
            out[a, b] = val
            out[b, a] = np.conj(val)
    return out


def fd_ricci_oracle(sampler: ChartSampler, point: np.ndarray,
                    step: float | None = None,
                    richardson: bool = False) -> RicciBlocks:
    """Ricci blocks from R_AB = -d_A d_Bbar ln det g, oblivious to structure.

    With `richardson` the h and h/2 evaluations are extrapolated to fourth
    order, which the tight ratio-structure checks need.
    """
    h = sampler.fd_step if step is None else step
    margin = 2.5 * h
    sampler.check_point(point, margin)
    fn = sampler.log_det_fn()
    m = sampler.n + 1

    def hess(hh: float) -> np.ndarray:
        return hermitian_hessian_fd(fn, point, m, hh)

    mat = hess(h)
    if richardson:
        mat = (4.0 * hess(h / 2.0) - mat) / 3.0
    ric = -mat
    return RicciBlocks(base=ric[:-1, :-1], mixed=ric[:-1, -1],
                       fiber=float(ric[-1, -1].real))


def scalar_curvature_fd(sampler: ChartSampler, point: np.ndarray,
                        step: float | None = None) -> float:
    """Complex scalar curvature g^{AB} R_AB via the log-det oracle.

    The real (Riemannian) scalar curvature is twice this value.
    """
    ric = fd_ricci_oracle(sampler, point, step=step)
    blocks = sampler.evaluate(np.asarray(point, dtype=float))
    g = assemble_block_metric(blocks, check=False)
    ginv = np.linalg.inv(g)
    return float(np.trace(ric.assemble() @ ginv).real)


# --- real-geometry oracles (Christoffel, Riemann) --------------------------


def _memo(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """`fn` with its results kept, keyed on the exact bytes of the point.

    Meant to live for one oracle call: overlapping stencils then evaluate
    each distinct point once, and a hit returns what `fn` would have
    returned for the same bits.  Callers must not mutate the results.
    """
    cache: dict[bytes, object] = {}

    def cached(p: np.ndarray) -> object:
        key = p.tobytes()
        if key not in cache:
            cache[key] = fn(p)
        return cache[key]

    return cached


def christoffel_fd(metric_fn: Callable[[np.ndarray], np.ndarray],
                   point: np.ndarray, step: float) -> np.ndarray:
    """Christoffel symbols Gamma^a_{bc} of a real metric via central FD."""
    p = np.asarray(point, dtype=float)
    d = p.size
    g0 = metric_fn(p)
    dg = np.zeros((d, d, d))
    for a in range(d):
        ea = np.zeros(d)
        ea[a] = step
        dg[a] = (metric_fn(p + ea) - metric_fn(p - ea)) / (2.0 * step)
    ginv = np.linalg.inv(g0)
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc); dg[a] is the
    # metric derivative in direction a, so T[b,d,c] collects the parenthesis.
    term = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
    return 0.5 * np.einsum('ad,bdc->abc', ginv, term)


def riemann_fd(metric_fn: Callable[[np.ndarray], np.ndarray],
               point: np.ndarray, step: float) -> np.ndarray:
    """Lowered curvature tensor r[a,b,c,d] = <R(e_c, e_d) e_b, e_a>.

    Built from finite differences of the Christoffel symbols; second-order
    accurate in `step`.  Sign convention fixed so that the sectional
    curvature of a round sphere comes out positive via
    `sectional_from_riemann`.  The Christoffel stencils around p +- e_c
    overlap ((p + e_c) + e_a is bitwise (p + e_a) + e_c), so `metric_fn`
    runs once per distinct point: 2d^2 + 2d + 1 times unless a shift
    x + h - h does not round back to x.
    """
    metric_fn = _memo(metric_fn)
    p = np.asarray(point, dtype=float)
    d = p.size
    gamma0 = christoffel_fd(metric_fn, p, step)
    dgamma = np.zeros((d, d, d, d))
    for c in range(d):
        ec = np.zeros(d)
        ec[c] = step
        gp = christoffel_fd(metric_fn, p + ec, step)
        gm = christoffel_fd(metric_fn, p - ec, step)
        dgamma[c] = (gp - gm) / (2.0 * step)
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #           + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    rup = (
        np.einsum('cadb->abcd', dgamma)
        - np.einsum('dacb->abcd', dgamma)
        + np.einsum('ace,edb->abcd', gamma0, gamma0)
        - np.einsum('ade,ecb->abcd', gamma0, gamma0)
    )
    g0 = metric_fn(p)
    return np.einsum('ae,ebcd->abcd', g0, rup)


def riem4(rlow: np.ndarray, x: np.ndarray, y: np.ndarray,
          z: np.ndarray, w: np.ndarray) -> float:
    """<R(x, y) z, w> from the lowered tensor of `riemann_fd`."""
    return float(np.einsum('abcd,a,b,c,d->', rlow, w, z, x, y))


def sectional_from_riemann(rlow: np.ndarray, g: np.ndarray,
                           x: np.ndarray, y: np.ndarray) -> float:
    """Sectional curvature of span(x, y)."""
    xx = float(x @ g @ x)
    yy = float(y @ g @ y)
    xy = float(x @ g @ y)
    denom = xx * yy - xy * xy
    if denom <= 1e-12:
        raise ChartError("degenerate plane")
    return riem4(rlow, x, y, y, x) / denom
