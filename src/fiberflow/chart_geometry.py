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

import functools
from dataclasses import dataclass, field, fields, replace
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
    """A chart point (a stencil point included) lies outside the domain."""


# ---------------------------------------------------------------------------
# base metric data


@dataclass(frozen=True)
class BaseMetric:
    """Pointwise base-metric data: h, its Ricci tensor and declared scalar.

    `scalar` is the constant the flow normalization declares for the base,
    h^{ij} ricci_ij; for a Kahler-Einstein base it matches the pointwise
    trace everywhere.  A batch carries h and ricci stacked on a leading
    axis.
    """

    n: int
    h: np.ndarray
    ricci: np.ndarray
    scalar: float


def _fs_factor(z: np.ndarray) -> np.ndarray:
    """a = 1 / (1 + |z|^2) over the last axis of z."""
    return 1.0 / (1.0 + np.sum(z.real ** 2 + z.imag ** 2, axis=-1))


def fubini_study_base(z: np.ndarray) -> BaseMetric:
    """Fubini-Study data at chart points z (..., n), normalized so
    Ric(h) = (n+1) h; h and ricci carry the leading axes of z.

    Potential ln(1 + |z|^2); for n = 1 this is the round sphere with Gauss
    curvature 2 and total area 2*pi.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    a = _fs_factor(z)[..., None, None]
    h = a * np.eye(n) - (a * a) * (z.conj()[..., :, None] * z[..., None, :])
    return BaseMetric(n=n, h=h, ricci=(n + 1.0) * h, scalar=float(n * (n + 1)))


def flat_base(n: int) -> BaseMetric:
    """Flat base: identity h, zero curvature."""
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    return BaseMetric(n=n, h=eye, ricci=zero, scalar=0.0)


def perturbed_fs_base(z: np.ndarray) -> BaseMetric:
    """Fubini-Study base rescaled by the factor 1 + 0.1 Re z_0.

    Keeps the unperturbed scalar constant in the declaration, so the
    Einstein residual acts as a detector for the broken symmetry.  The
    Ricci tensor comes from the log-det stencil, not a closed form.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size

    def h_at(zz: np.ndarray) -> np.ndarray:
        scale = 1.0 + 0.1 * zz[..., 0].real
        return scale[..., None, None] * fubini_study_base(zz).h

    def logdet(points: np.ndarray) -> np.ndarray:
        zz = points[:, 0::2] + 1j * points[:, 1::2]
        return np.linalg.slogdet(h_at(zz))[1]

    p0 = np.empty(2 * n)
    p0[0::2] = z.real
    p0[1::2] = z.imag
    ric = -hermitian_hessian_fd(logdet, p0, DEFAULT_FD_STEP)
    return BaseMetric(n=n, h=h_at(z), ricci=ric, scalar=float(n * (n + 1)))


# ---------------------------------------------------------------------------
# chart blocks


@dataclass(frozen=True)
class ChartMetricBlocks:
    """Structured metric data at a chart point, or at a batch of P points:
    then `base.h`, `base.ricci` and every other field carry a leading
    axis of length P, the scalar fields as 1-D arrays (see `row`).  The
    samplers set every field.

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
    df_dxi: complex
    d2f: float
    df_dz: np.ndarray
    dsbar_dz: np.ndarray
    dsbar_dxi: np.ndarray
    dg_dxi: complex
    d2g: float

    @property
    def n(self) -> int:
        return self.base.n

    def row(self, i: int | np.ndarray) -> ChartMetricBlocks:
        """Point i of a batch, its scalar fields as Python numbers; an
        index array i gives the batch of those points."""
        def take(value):
            if isinstance(value, BaseMetric):
                return replace(value, h=value.h[i], ricci=value.ricci[i])
            value = value[i]
            return value.item() if value.ndim == 0 else value

        return ChartMetricBlocks(**{fld.name: take(getattr(self, fld.name))
                                    for fld in fields(self)})

    def horizontal_homothety_residual(self) -> float:
        """Max |X_i(f)| over horizontal lifts X_i = d_i - s_i d_xi.

        The chart partials d_i f need not vanish; the coordinate-free
        statement of horizontal homothety is that f is constant along the
        horizontal distribution, i.e. the lift derivative vanishes.
        """
        res = self.df_dz - self.s * self.df_dxi
        return float(np.max(np.abs(res)))


def assemble_block_metric(blocks: ChartMetricBlocks, check: bool = True) -> np.ndarray:
    """Assemble the (n+1) x (n+1) Hermitian matrix from structured blocks;
    a batch gives a stack of matrices."""
    n = blocks.n
    s = np.asarray(blocks.s)
    f = np.asarray(blocks.f)[..., None, None]
    gf = np.asarray(blocks.g_fiber)[..., None]
    g = np.empty(s.shape[:-1] + (n + 1, n + 1), dtype=complex)
    ssbar = s[..., :, None] * s.conj()[..., None, :]
    g[..., :n, :n] = f * blocks.base.h + ssbar * gf[..., None]
    g[..., :n, n] = s * gf
    g[..., n, :n] = s.conj() * gf
    g[..., n, n] = blocks.g_fiber
    if check:
        if np.any(f <= POSITIVITY_FLOOR) or np.any(gf <= POSITIVITY_FLOOR):
            raise NonPositiveDefinite("non-positive dilation or fiber component")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefinite("assembled metric not positive definite") from exc
    return g


def check_totally_geodesic(blocks: ChartMetricBlocks) -> float:
    """Max norm of the fiber Christoffel block
    Gamma^i_{xi xi} = (1/f) h^{i jbar} g_fiber d_xi conj(s_j), which
    vanishes exactly when the fibers are totally geodesic."""
    try:
        # h^{i jbar} w_j contracts with the conjugate-transposed inverse
        contr = np.linalg.solve(blocks.base.h.conj(), blocks.dsbar_dxi)
    except np.linalg.LinAlgError as exc:
        raise SingularBase("base metric numerically singular") from exc
    return float(np.max(np.abs((blocks.g_fiber / blocks.f) * contr)))


def check_kahler_compatibility(blocks: ChartMetricBlocks) -> float:
    """Residual of h_ij * d_xi f = d_i conj(s_j) * g_fiber (max entry)."""
    res = blocks.base.h * blocks.df_dxi - blocks.dsbar_dz * blocks.g_fiber
    return float(np.max(np.abs(res)))


def check_base_einstein(base: BaseMetric) -> float:
    """Max-entry norm of (scalar/n) h - ricci, the pointwise Kahler-Einstein
    defect against the declared constant."""
    return float(np.max(np.abs((base.scalar / base.n) * base.h - base.ricci)))


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


def ricci_blocks(blocks: ChartMetricBlocks) -> RicciBlocks:
    """Structured Ricci blocks of a submersion-type Kahler metric.

    fiber: -d_xi d_xibar (ln g_fiber + n ln f)
    mixed: s_i * fiber
    base:  (-Delta f + scalar/n) h_ij + s_i conj(s_j) * fiber
    """
    if blocks.horizontal_homothety_residual() > STRUCTURE_TOL:
        raise StructureViolation("gradient of f has a horizontal component")
    if check_totally_geodesic(blocks) > STRUCTURE_TOL:
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
    """Real form of a Hermitian matrix, or of a stack of them."""
    m = g.shape[-1]
    out = np.empty(g.shape[:-2] + (2 * m, 2 * m))
    a = 2.0 * g.real
    b = 2.0 * g.imag
    out[..., 0::2, 0::2] = a
    out[..., 1::2, 1::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = -b
    return out


@functools.cache
def complex_structure(m: int) -> np.ndarray:
    """Read-only matrix of J, J d/dx = d/dy per complex coordinate, 2m."""
    j = np.zeros((2 * m, 2 * m))
    for a in range(m):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0
    j.flags.writeable = False
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


def point_to_complex(point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, xi) of a real chart point, or of a stack of them."""
    p = np.asarray(point, dtype=float)
    zs = p[..., 0::2] + 1j * p[..., 1::2]
    return zs[..., :-1], zs[..., -1]


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class ChartSampler:
    """Deterministic map from real chart points to structured blocks.

    `evaluate_batch` takes a (P, 2n+2) stack of points and returns one
    batch of blocks for them (see `ChartMetricBlocks`); `evaluate` is its
    one-row case.  `domain` is a (2n+2, 2) box of admissible real
    coordinates, and `blocks_fn` the sampler's own batch formula, which
    `evaluate_batch` calls only on points inside the box.  The sampler
    keeps its last batch, so the frame point and the stencil oracles at
    one point share one `blocks_fn` call; with the batch it keeps the
    Hermitian metric stack and its real form, each assembled the first
    time `log_det_fn` or `metric_fn` reads it, read-only, and dropped
    with the batch.  A sampler made by `dataclasses.replace` starts with
    no batch.
    """

    n: int
    blocks_fn: Callable[[np.ndarray], ChartMetricBlocks]
    domain: np.ndarray
    # [(shape, bytes) of the last batch's points, its read-only blocks,
    #  [its Hermitian metric stack, their real form], None until read]
    _last: list = field(default_factory=list, init=False, compare=False,
                        repr=False)

    def evaluate_batch(self, points: np.ndarray) -> ChartMetricBlocks:
        """The blocks at `points`, their arrays read-only; `ChartError`
        unless `points` is a (P, 2n+2) stack, and `DomainEdge` unless
        every coordinate of every point lies in `domain` (a NaN coordinate
        lies nowhere).  Points with the shape and bytes of the last batch,
        which lay in the box, get its blocks again."""
        p = np.asarray(points, dtype=float)
        d = self.domain.shape[0]
        if p.ndim != 2 or p.shape[1] != d:
            raise ChartError(f"points of shape {p.shape} are not a "
                             f"(P, {d}) stack")
        key = (p.shape, p.tobytes())
        if self._last and self._last[0] == key:
            return self._last[1]
        if not ((p >= self.domain[:, 0]).all()
                and (p <= self.domain[:, 1]).all()):
            raise DomainEdge("point outside the sampler domain")
        blocks = self.blocks_fn(p)
        for value in (blocks.base.h, blocks.base.ricci,
                      *(getattr(blocks, fld.name) for fld in fields(blocks))):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._last[:] = (key, blocks, [None, None])
        return blocks

    def evaluate(self, point: np.ndarray) -> ChartMetricBlocks:
        return self.evaluate_batch(np.asarray(point, dtype=float)[None]).row(0)

    def _metric_stack(self, points: np.ndarray, real: bool) -> np.ndarray:
        """The Hermitian metric stack (P, n+1, n+1) of the blocks at
        `points`, or with `real` its real form (P, d, d): the batch's own,
        assembled the first time it is read."""
        blocks = self.evaluate_batch(points)
        stacks = self._last[2]
        if stacks[0] is None:
            stacks[0] = assemble_block_metric(blocks, check=False)
            stacks[0].flags.writeable = False
        if real and stacks[1] is None:
            stacks[1] = real_metric_from_hermitian(stacks[0])
            stacks[1].flags.writeable = False
        return stacks[1] if real else stacks[0]

    def metric_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """Real metrics (P, d, d) at a (P, d) stack of points, read-only."""
        return lambda points: self._metric_stack(points, real=True)

    def log_det_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """ln det of the Hermitian metrics (P,) at a (P, d) stack of points."""
        return lambda points: np.linalg.slogdet(
            self._metric_stack(points, real=False))[1]

    def random_points(self, rng: np.random.Generator, count: int,
                      margin: float | None = None) -> np.ndarray:
        m = 4.0 * DEFAULT_FD_STEP if margin is None else margin
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


def product_sampler(base_size: float = 3.0, fiber_size: float = 1.0,
                    n: int = 1) -> ChartSampler:
    """Product of a Fubini-Study base scaled by `base_size` and a round fiber.

    The fiber sphere carries fiber_size * omega_FS, so its area is
    2*pi*fiber_size and its Gauss curvature 2/fiber_size.
    """

    def blocks(points: np.ndarray) -> ChartMetricBlocks:
        z, xi = point_to_complex(points)
        r2 = np.abs(xi) ** 2
        w = 1.0 + r2
        zero = np.zeros(z.shape, dtype=complex)
        return ChartMetricBlocks(
            base=fubini_study_base(z), f=np.full(r2.shape, float(base_size)),
            s=zero, g_fiber=fiber_size / w ** 2,
            df_dxi=np.zeros(xi.shape, dtype=complex), d2f=np.zeros(r2.shape),
            df_dz=zero, dsbar_dz=np.zeros(z.shape + (n,), dtype=complex),
            dsbar_dxi=zero,
            dg_dxi=-2.0 * fiber_size * np.conj(xi) / w ** 3,
            d2g=-2.0 * fiber_size * (1.0 - 2.0 * r2) / w ** 4)

    return ChartSampler(n=n, blocks_fn=blocks,
                        domain=_box(n, 0.5, (-0.9, 0.9), (-0.9, 0.9)))


# The chart box of `calabi_sampler` as `_box` takes it after n: |Re z_i|,
# |Im z_i| <= 0.35, Re xi in [0.65, 1.45] and Im xi in [-0.35, 0.35]; so
# xi keeps off the pole xi = 0, where rho = ln|xi|^2 has no value.
_CALABI_BOX = (0.35, (0.65, 1.45), (-0.35, 0.35))


def calabi_sampler(profile: Callable[[np.ndarray], tuple[np.ndarray, ...]],
                   n: int = 1, k: int = 1) -> ChartSampler:
    """Calabi-symmetric metric on a twisted fiber chart over Fubini-Study.

    The potential depends on rho = ln|xi|^2 + k ln(1+|z|^2) only; `profile`
    maps an array of rho to the arrays (f, df/drho, d2f/drho2, d3f/drho3)
    of the dilation.  With v = f'/k the fiber component is
    g_fiber = v * exp(k*phi - rho); the connection components are
    s_i = k xi d_i phi, holomorphic in xi, so the structure is
    Kahler-compatible and totally geodesic by construction.
    """

    def blocks(points: np.ndarray) -> ChartMetricBlocks:
        z, xi = point_to_complex(points)
        base = fubini_study_base(z)
        a = _fs_factor(z)
        phi = np.log(1.0 / a)
        phi_d = z.conj() * a[:, None]
        r2 = np.abs(xi) ** 2
        rho = np.log(r2) + k * phi
        fval, f1, f2, f3 = profile(rho)
        v, v1, v2 = f1 / k, f2 / k, f3 / k
        if np.any(f1 <= 0.0):
            raise NonPositiveDefinite("profile not strictly increasing")
        efac = np.exp(k * phi - rho)
        return ChartMetricBlocks(
            base=base, f=fval, s=(k * xi)[:, None] * phi_d, g_fiber=v * efac,
            df_dxi=f1 / xi, d2f=f2 / r2,
            df_dz=(f1 * k)[:, None] * phi_d,
            dsbar_dz=(k * np.conj(xi))[:, None, None] * base.h,
            dsbar_dxi=np.zeros(phi_d.shape, dtype=complex),
            dg_dxi=(v1 - v) * efac / xi, d2g=(v2 - 2.0 * v1 + v) * efac / r2)

    return ChartSampler(n=n, blocks_fn=blocks, domain=_box(n, *_CALABI_BOX))


# ---------------------------------------------------------------------------
# finite-difference oracles


# Every oracle evaluates the distinct points of one stencil layout in one
# batch call and reads the values back through an index table.  The
# layout of a step h holds two grids, p + h (s_i + s_j) and
# p + (h/2) (s_i + s_j), over the star shifts s_0 = 0, s_1 = +e_0,
# s_2 = -e_0, s_3 = +e_1, ...; so the oracles at one point and step ask
# their sampler for the same points, which it evaluates once.


@functools.cache
def _stencil_plan(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The one stencil layout in dimension d: the shifts (m, d) of its
    distinct points p + h shift, and the table (2, 2d + 1, 2d + 1) of the
    rows that hold each entry of its two grids, the one of step h and the
    one of step h/2.

    Entries with equal shifts share a row: the centre p + 0.0, which every
    entry whose shifts cancel is, and p + h e_a, which the h/2 grid's
    double shift p + (h/2) 2 e_a is too.  That leaves 4d^2 + 2d + 1 rows,
    reaching 2h from p (the h grid's double shifts), in every coordinate.
    No oracle result depends on those now; the layout, and with it the
    refusal within 2h of the box, is kept as it is on purpose."""
    star = np.zeros((2 * d + 1, d))
    star[1 + 2 * np.arange(d), np.arange(d)] = 1.0
    star[2 + 2 * np.arange(d), np.arange(d)] = -1.0
    pairs = star[:, None] + star
    rows: dict[tuple, int] = {}
    index = np.array([rows.setdefault(tuple(shift), len(rows)) for shift in
                      np.stack([pairs, 0.5 * pairs]).reshape(-1, d)])
    plan = (np.array(list(rows)), index.reshape(2, 2 * d + 1, 2 * d + 1))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _stencil(point: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The distinct points of the stencil layout of `point` (d,) and
    `step`, and the index table (2, 2d + 1, 2d + 1) that reads values
    computed at them back on its grids of step `step` and `step`/2;
    `ChartError` unless the step is finite and positive."""
    if not 0.0 < step < np.inf:
        raise ChartError(f"finite-difference step {step!r} is not "
                         f"finite and positive")
    p = np.asarray(point, dtype=float)
    shift, index = _stencil_plan(p.shape[-1])
    return p + step * shift, index


@functools.cache
def _triangle_plan(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns of an m x m strict upper triangle; diagonal; read-only."""
    plan = (*np.triu_indices(m, 1), np.arange(m))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _real_hessian(values: np.ndarray, step) -> np.ndarray:
    """Real Hessian (d, d, ...) by central differences, from values
    (2d + 1, 2d + 1, ...) on a `_stencil` grid of that step: trailing value
    axes are carried along, and `step` broadcasts against them."""
    h2 = step ** 2
    out = (values[1::2, 1::2] - values[1::2, 2::2]
           - values[2::2, 1::2] + values[2::2, 2::2]) / (4.0 * h2)
    upper, lower, diag = _triangle_plan(len(out))
    out[lower, upper] = out[upper, lower]
    out[diag, diag] = (values[0, 1::2] - 2.0 * values[0, 0]
                       + values[0, 2::2]) / h2
    return out


def _complex_hessian(real: np.ndarray) -> np.ndarray:
    """d_A d_Bbar (m, m, ...) of a real scalar from its symmetric real
    Hessian (2m, 2m, ...) in the chart order (x^1, y^1, ...): the four real
    mixed partials combine into (real + i imag)/4, exactly Hermitian."""
    xx, yy = real[0::2, 0::2], real[1::2, 1::2]
    return 0.25 * ((xx + yy) + 1j * (real[0::2, 1::2] - real[1::2, 0::2]))


def hermitian_hessian_fd(fn: Callable[[np.ndarray], np.ndarray],
                         point: np.ndarray, step: float) -> np.ndarray:
    """Mixed complex Hessian d_A d_Bbar of a real scalar by central
    stencils; `fn` maps a (P, 2m) stack of points to (P,) values."""
    rows, index = _stencil(point, step)
    return _complex_hessian(_real_hessian(fn(rows)[index[0]], step))


def fd_ricci_oracle(sampler: ChartSampler, point: np.ndarray,
                    step: float = DEFAULT_FD_STEP,
                    richardson: bool = False) -> RicciBlocks:
    """Ricci blocks from R_AB = -d_A d_Bbar ln det g, oblivious to structure.

    With `richardson` the `step` and `step`/2 evaluations are extrapolated
    to fourth order, which the tight ratio-structure checks need; one
    sampler call on the stencil layout and one Hessian pass serve both.
    """
    rows, index = _stencil(point, step)
    grids = 2 if richardson else 1
    values = np.moveaxis(sampler.log_det_fn()(rows)[index[:grids]], 0, -1)
    mats = _complex_hessian(_real_hessian(
        values, np.array([step, step / 2.0])[:grids]))
    mat = mats[..., 0]
    if richardson:
        mat = (4.0 * mats[..., 1] - mat) / 3.0
    ric = -mat
    return RicciBlocks(base=ric[:-1, :-1], mixed=ric[:-1, -1],
                       fiber=float(ric[-1, -1].real))


# --- real-geometry oracles (Christoffel, Riemann) --------------------------


def _christoffel_at(g: np.ndarray, step: float) -> tuple[np.ndarray, ...]:
    """Christoffel symbols Gamma_{e,ca} and Gamma^e_{ca} (d, d, d) at p by
    central differences, from metric values g (2d + 1, d, d) at p, p + step
    e_0, p - step e_0, p + step e_1, ..., a `_stencil` grid's first row."""
    # dg[c, a, b] = d_c g_ab
    dg = (g[1::2] - g[2::2]) / (2.0 * step)
    # Gamma_{e,ca} = 1/2 (d_c g_ea + d_a g_ec - d_e g_ca)
    low = 0.5 * (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
    d = len(dg)
    return low, (np.linalg.inv(g[0]) @ low.reshape(d, -1)).reshape(low.shape)


def riemann_fd(metric_fn: Callable[[np.ndarray], np.ndarray],
               point: np.ndarray, step: float) -> np.ndarray:
    """Lowered curvature tensor r[a,b,c,d] = <R(e_c, e_d) e_b, e_a>,

        r_abcd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
                 - Gamma_{e,ca} Gamma^e_{db} + Gamma_{e,da} Gamma^e_{cb},

    second-order accurate in `step`; a round sphere's sectional curvature
    comes out positive via `sectional_from_riemann`.  `metric_fn` maps a
    (P, d) stack of points to their (P, d, d) real metrics; it is called
    once, on the stencil layout, and read on its grid of step h: p,
    p +- h e_a and p +- h e_a +- h e_b (a != b).
    """
    rows, index = _stencil(point, step)
    g = metric_fn(rows)[index[0]]
    low, up = _christoffel_at(g[0], step)
    d = len(low)
    # m[c, a, d, b] = Gamma_{e,ca} Gamma^e_{db}
    m = (low.reshape(d, -1).T @ up.reshape(d, -1)).reshape((d,) * 4)
    # s[a, b, c, d] = g_ad,bc; u = s - (c <-> d)
    s = _real_hessian(g, step).transpose(2, 0, 1, 3)
    u = s - s.transpose(0, 1, 3, 2)
    return (0.5 * (u + u.transpose(1, 0, 3, 2))
            + m.transpose(1, 3, 2, 0) - m.transpose(1, 3, 0, 2))


def riem4(rlow: np.ndarray, x: np.ndarray, y: np.ndarray,
          z: np.ndarray, w: np.ndarray) -> float:
    """<R(x, y) z, w> from the lowered tensor of `riemann_fd`."""
    return float(np.einsum('abcd,a,b,c,d->', rlow, w, z, x, y))


def sectional_from_riemann(rlow: np.ndarray, g: np.ndarray,
                           x: np.ndarray, y: np.ndarray) -> float:
    """Sectional curvature of span(x, y)."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ChartError("plane vector is not finite")
    xx = float(x @ g @ x)
    yy = float(y @ g @ y)
    xy = float(x @ g @ y)
    denom = xx * yy - xy * xy
    if not denom > 1e-12:
        raise ChartError("degenerate plane")
    return riem4(rlow, x, y, y, x) / denom
