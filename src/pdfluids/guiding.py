"""The fluid-guiding objective and its proximal operators.

The guided velocity x minimizes

    f(x) = ||B (x - u_target)||^2 + ||W (x - u_current)||^2

subject to zero divergence, where B is the obstacle-aware Gaussian blur and
W a diagonal matrix of per-face guiding weights (cell weights averaged onto
faces, larger entries meaning weaker guiding).  f is quadratic,
f(x) = 1/2 x^T A x + b^T x + c with A = 2(B^T B + W^2), so its prox is a
linear solve; the production path approximates the inverse of
M = A + sigma*I through one Sherman-Morrison-Woodbury step around the
diagonal part, with q = 2 B^T B (u_target - u_current) - sigma*u_current
precomputed once per time step.

Faces adjacent to SOLID cells carry no objective terms; every operator
passes them through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blur import _check_radius, blur_obstacle_aware
from .fields import (CellFlags, ScalarField, VelocityField, _flat_faces,
                     cell_to_face_average, divergence, face_valid_mask)
from .optim import (AdmmParams, ConvergenceLog, PdParams, ProxOperator, SolverCarry,
                    _fixed_projection, admm_solve, pd_solve)
from .pressure import BcTable, CgConfig, DivergenceProjector, _pcg, _require_finite

MAX_CG_ITERS = 4000   # cap of the exact prox's and the IOP minimizer's CG


@dataclass
class GuidingConfig:
    """Everything the guiding objective needs for one time step."""

    flags: CellFlags
    weights: ScalarField          # W, finite and > 0 everywhere
    radius: ScalarField           # blur radii, finite, >= 0 and 0 at SOLID
    u_target: VelocityField
    u_current: VelocityField

    def __post_init__(self):
        w = self.weights.values
        if not (w > 0).all() or not np.isfinite(w).all():
            raise ValueError("guiding weights must be finite and positive")
        _check_radius(self.radius, self.flags)

    @property
    def w_bar(self) -> float:
        """Mean guiding weight over fluid cells."""
        fluid = self.flags.fluid
        if not fluid.any():
            raise ValueError("no fluid cells")
        return float(self.weights.values[fluid].mean())

    def with_current(self, u_current: VelocityField) -> "GuidingConfig":
        return replace(self, u_current=u_current)


def split_scalar_field(dims, flags, left: float, right: float,
                       zero_at_solid: bool = False) -> ScalarField:
    """Cell field taking one value on the left half of the domain and
    another on the right (the split-domain test configuration)."""
    vals = np.where(np.arange(dims.nx)[:, None, None] < dims.nx // 2,
                    float(left), float(right))
    vals = np.broadcast_to(vals, dims.shape).copy()
    if zero_at_solid:
        vals[flags.solid] = 0.0
    return ScalarField(dims, vals)


class GuidingQuadratic:
    """Matrix-free quadratic form of the guiding objective.

    Provides A, b, c, the shifted system M = A + sigma*I, the precomputable
    q and diagonal-inverse factors, and the stacked least-squares operator.
    `valid`, its complement `fixed` and `w2` are flat over the active
    faces, ordered as `as_flat`.  The operators taking `out` write their
    result there (a new field when None; out may be the input).
    """

    def __init__(self, cfg: GuidingConfig):
        self.cfg = cfg
        d = self.dims = cfg.flags.dims
        self.valid = _flat_faces(d, lambda a: face_valid_mask(cfg.flags, a))
        self.fixed = ~self.valid
        self.w2 = np.square(_flat_faces(d, lambda a: cell_to_face_average(cfg.weights, a)))

    # -- masking helpers ----------------------------------------------------
    def mask(self, vel: VelocityField, out: VelocityField | None = None) -> VelocityField:
        if out is None:
            out = vel.copy()
        elif out is not vel:
            np.copyto(out.as_flat(), vel.as_flat())
        np.copyto(out.as_flat(), 0.0, where=self.fixed)
        return out

    def keep_fixed(self, out: VelocityField, v: VelocityField) -> VelocityField:
        """Give the faces outside the objective v's values, in place."""
        np.copyto(out.as_flat(), v.as_flat(), where=self.fixed)
        return out

    def _wsq(self, vel: VelocityField) -> VelocityField:
        out = vel.copy()
        np.multiply(vel.as_flat(), self.w2, out=out.as_flat())
        np.copyto(out.as_flat(), 0.0, where=self.fixed)
        return out

    # -- operators ----------------------------------------------------------
    def apply_B(self, vel: VelocityField, out: VelocityField | None = None) -> VelocityField:
        return blur_obstacle_aware(vel, self.cfg.radius, self.cfg.flags, out=out)

    def apply_Bt(self, vel: VelocityField, out: VelocityField | None = None) -> VelocityField:
        return blur_obstacle_aware(vel, self.cfg.radius, self.cfg.flags,
                                   transpose=True, out=out)

    def apply_BtB(self, vel: VelocityField, out: VelocityField | None = None) -> VelocityField:
        out = self.mask(vel, out)
        return self.mask(self.apply_Bt(self.apply_B(out, out), out), out)

    def apply_A(self, vel: VelocityField) -> VelocityField:
        return 2.0 * (self.apply_BtB(vel) + self._wsq(vel))

    def b(self) -> VelocityField:
        return -2.0 * (self.apply_BtB(self.cfg.u_target)
                       + self._wsq(self.cfg.u_current))

    def apply_M(self, sigma: float, vel: VelocityField) -> VelocityField:
        masked = self.mask(vel)
        return self.apply_A(masked) + sigma * masked

    # -- prox precomputation -------------------------------------------------
    def q(self, sigma: float) -> VelocityField:
        return 2.0 * self.apply_BtB(self.cfg.u_target - self.cfg.u_current) \
            - sigma * self.mask(self.cfg.u_current)

    def gamma_diag(self, sigma: float) -> np.ndarray:
        """Per-face entries of (2 W^2 + sigma I)^-1, flat like `w2`."""
        return 1.0 / (2.0 * self.w2 + sigma)


@dataclass
class GuidingPrecompute:
    """Per-time-step cache for the approximate prox: q, the diagonal inverse
    gamma and its square, and the masked u_current."""

    sigma: float
    q: VelocityField
    gamma: np.ndarray
    gamma_sq: np.ndarray
    u_current: VelocityField

    @classmethod
    def build(cls, quad: GuidingQuadratic, sigma: float) -> "GuidingPrecompute":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        gamma = quad.gamma_diag(sigma)
        return cls(sigma, quad.q(sigma), gamma, np.square(gamma),
                   quad.mask(quad.cfg.u_current))


def _cg_velocity(apply_op, rhs: VelocityField, tol: float,
                 max_iters: int) -> tuple[VelocityField, int]:
    """Plain CG over velocity fields for SPD operators: the one CG loop of
    `pressure` on the flattened field, stopping at ||r|| <= tol * ||rhs||.
    Returns (x, iterations); raises PoissonConvergenceError ("guiding") on a
    non-finite rhs, d.A d or residual (at once), on a breakdown and when
    max_iters is used up."""
    field = VelocityField.zeros(rhs.dims)

    def apply(d, out):
        field.set_flat(d)
        out[:] = apply_op(field).as_flat()

    x, iters = _pcg(apply, rhs.as_flat(), tol, 0.0, max_iters, solver="guiding")
    return VelocityField._of(rhs.dims, x), iters


def guiding_objective(x: VelocityField, cfg: GuidingConfig,
                      quad: GuidingQuadratic | None = None) -> float:
    """Value of ||B(x - u_target)||^2 + ||W(x - u_current)||^2 over the
    faces that carry objective terms (those not adjacent to SOLID)."""
    quad = quad if quad is not None else GuidingQuadratic(cfg)
    bt = quad.apply_B(quad.mask(x - cfg.u_target)).as_flat()
    wd = quad.w2 * np.square((x - cfg.u_current).as_flat())
    return float(np.sum(np.square(bt[quad.valid]))) + float(np.sum(wd[quad.valid]))


class GuidingProx(ProxOperator):
    """Approximate guiding prox via the SMW inverse of M = A + sigma*I.

        x = u_current + gamma (sigma v + q) - 2 B^T B gamma^2 (sigma v + q)

    with gamma = (2 W^2 + sigma I)^-1 diagonal; q, gamma, gamma^2 and the
    masked u_current are cached until sigma changes.  Faces outside the
    objective pass v through.  The result is the prox's own field, which
    its next call overwrites; a caller that keeps it copies it.
    """

    def __init__(self, cfg: GuidingConfig):
        self.cfg = cfg
        self.quad = GuidingQuadratic(cfg)
        self._pre = None
        dims = cfg.flags.dims
        self._out, self._g1, self._g2 = (VelocityField.zeros(dims) for _ in range(3))

    def __call__(self, sigma, v):
        if self._pre is None or self._pre.sigma != sigma:
            self._pre = GuidingPrecompute.build(self.quad, sigma)
        quad, pre = self.quad, self._pre
        s, g1, g2 = self._out, self._g1, self._g2
        sf, g1f, g2f = s.as_flat(), g1.as_flat(), g2.as_flat()
        quad.mask(v, s)
        sf *= sigma
        sf += pre.q.as_flat()
        np.multiply(sf, pre.gamma, out=g1f)
        np.multiply(sf, pre.gamma_sq, out=g2f)
        quad.apply_BtB(g2, g2)
        # x = (u_current + g1) - 2 B^T B g2, written over s
        np.add(pre.u_current.as_flat(), g1f, out=sf)
        g2f *= 2.0
        sf -= g2f
        return quad.keep_fixed(s, v)


class GuidingProxExact(ProxOperator):
    """Exact guiding prox: solve (A + sigma I) x = sigma v - b by CG.

    Reference path for the SMW approximation and for oracle comparisons.
    """

    def __init__(self, cfg: GuidingConfig, tol: float = 1e-10):
        self.cfg = cfg
        self.quad = GuidingQuadratic(cfg)
        self.tol = tol

    def __call__(self, sigma, v):
        quad = self.quad
        rhs = sigma * quad.mask(v) - quad.b()
        x, _ = _cg_velocity(lambda f: quad.apply_M(sigma, f), rhs, self.tol,
                            MAX_CG_ITERS)
        return quad.keep_fixed(x, v)


def default_guiding_params(w_bar: float) -> tuple[PdParams, AdmmParams]:
    """Step sizes tuned against the mean guiding weight.

    tau = 0.58 / w_bar, sigma = 2.44 / tau, theta = 0.3 for the primal-dual
    iteration, rho = 1.4 * w_bar^2 for ADMM.
    """
    if w_bar <= 0:
        raise ValueError("mean guiding weight must be positive")
    tau = 0.58 / w_bar
    return (PdParams(tau=tau, sigma=2.44 / tau, theta=0.3),
            AdmmParams(rho=1.4 * w_bar * w_bar))


def direct_least_squares(cfg: GuidingConfig, tol: float = 1e-8,
                         max_iters: int = 200000,
                         log: ConvergenceLog | None = None) -> VelocityField:
    """Comparison baseline: solve the stacked system [A; D] x = [-b; 0] in the
    least-squares sense with CG on the normal equations.

    D is the divergence operator restricted to the objective faces (fixed
    faces contribute nothing).  Divergence of the result is only as small as
    the least-squares balance allows.
    """
    quad = GuidingQuadratic(cfg)
    flags = cfg.flags
    d = flags.dims
    fluid = flags.fluid

    def apply_D(vel: VelocityField) -> np.ndarray:
        return divergence(quad.mask(vel), flags).values

    def apply_Dt(cellvals: np.ndarray) -> VelocityField:
        # the negated difference of the cell values, zero beyond the walls
        out = VelocityField.zeros(d)
        src = np.append(np.where(fluid, cellvals, 0.0) / d.h, 0.0)
        np.subtract(*(src.take(cells) for cells in d._face_cells), out=out.as_flat())
        return quad.mask(out)

    def normal_op(vel: VelocityField) -> VelocityField:
        return quad.apply_A(quad.apply_A(vel)) + apply_Dt(apply_D(vel))

    rhs = quad.apply_A(-1.0 * quad.b())
    x, iters = _cg_velocity(normal_op, rhs, tol, max_iters)
    if log is not None:
        log.method = "direct-lsq"
        log.record(0.0, tol, tol, iters)
        log.converged = True
    return quad.keep_fixed(x, cfg.u_current)


def guide_step(u_current: VelocityField, cfg: GuidingConfig, method: str = "pd",
               pd_params: PdParams | None = None,
               admm_params: AdmmParams | None = None,
               cg: CgConfig | None = None,
               log: ConvergenceLog | None = None,
               exact_prox: bool = False,
               dual: SolverCarry | None = None) -> VelocityField:
    """One guided projection: replace the plain pressure projection with a
    proximal solve of the guiding objective under the divergence constraint.

    method "pd" (default) or "admm" for production, "direct" for the
    stacked least-squares baseline, and "iop" only to demonstrate how
    alternating projections mishandle guiding.  Its prox is the constant
    map onto the unconstrained minimizer, so iterated orthogonal projection
    is one projection, at cg's final accuracy, of u_current with the
    minimizer on the objective faces; it reads no PD parameters and is
    logged as one converged row.  A "pd" or "admm" solve with the SMW prox
    starts from the carried dual x of `dual` when its dims and sigma match
    (pd_solve) and leaves its own final x there; the exact prox, "direct"
    and "iop" neither read nor write that x.  The projections of all but
    "direct" reuse the PoissonSystem on `dual` (DivergenceProjector).  A
    non-finite u_current raises PoissonConvergenceError before any blur or
    prox runs.
    """
    _require_finite(u_current)
    cfg = cfg.with_current(u_current)
    log = log if log is not None else ConvergenceLog()
    if method == "direct":
        return direct_least_squares(cfg, log=log)
    if method == "iop":
        quad = GuidingQuadratic(cfg)
        minimizer, _ = _cg_velocity(quad.apply_A, -1.0 * quad.b(), 1e-10, MAX_CG_ITERS)
        start = u_current.copy()
        np.copyto(start.as_flat(), minimizer.as_flat(), where=quad.valid)
        return _fixed_projection(start, cfg.flags, cg if cg is not None else CgConfig(),
                                 log, "iop", dual)
    bc = BcTable.from_flags(cfg.flags)
    projector = DivergenceProjector(cfg.flags, bc, cg, dual)
    pd_default, admm_default = default_guiding_params(cfg.w_bar)
    pd_params = pd_params if pd_params is not None else pd_default
    prox, dual = (GuidingProxExact(cfg), None) if exact_prox else (GuidingProx(cfg), dual)
    if method == "pd":
        return pd_solve(prox, projector, pd_params, u_current, log, dual=dual)
    if method == "admm":
        params = admm_params if admm_params is not None else admm_default
        return admm_solve(prox, projector, params, u_current, log, dual=dual)
    raise ValueError(f"unknown guiding method {method!r}")
