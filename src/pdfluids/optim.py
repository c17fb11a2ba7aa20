"""Proximal-splitting optimizers over velocity fields.

All solvers minimize f(z) + g(z) where g is the indicator of the
divergence-free set (its proximal operator is the pressure projection) and
f is supplied as a proximal operator.  The first-order primal-dual
iteration (Chambolle & Pock, JMIV 2011) is the one proximal loop: it
solves the guiding objective and the separating walls, and ADMM runs as
its case theta = 1, sigma = rho, tau = 1/rho.  `_fixed_projection` is the
plain projection at the final CG accuracy, logged as one row, for the
paths that need no loop (unguided smoke, the regular liquid walls and
iterated orthogonal projection, whose prox is a constant map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import CellFlags, GridDims, VelocityField
from .pressure import BcTable, CgConfig, DivergenceProjector, PoissonSystem

class ProxOperator:
    """Callable prox contract: (sigma, v) -> argmin_x f(x) + sigma/2 ||x-v||^2.

    A prox never writes v.  It may return a field of its own that its next
    call overwrites; the loops below read it only before that call.
    `has_indicator` marks an f that holds the indicator of a constraint set:
    a projection output alone then says nothing of dom f, so pd_solve also
    stops on the distance of the prox output to it.  `relaxation` is the
    over-relaxation factor r that pd_solve runs this f at (1: none).
    """

    has_indicator = False
    relaxation = 1.0

    def __call__(self, sigma: float, v: VelocityField) -> VelocityField:
        raise NotImplementedError


@dataclass
class SolverCarry:
    """Solver state a caller keeps from one solve to the next of nearly the
    same problem: the final dual x of a guided PD solve on its active faces
    (`as_flat`), the grid it lives on and the sigma it ran at, all unset
    until a solve given the carry returns, the PoissonSystem that
    DivergenceProjector reuses while its key matches, and the wall set (a
    `separating.BcState`) that `scenes.liquid_step` hands on."""

    x: np.ndarray | None = None
    dims: GridDims | None = None
    sigma: float = math.nan
    system: PoissonSystem | None = None
    walls: object = None


def _check_stop(max_iters: int, eps_abs: float, eps_rel: float):
    """Raise ValueError unless an outer loop runs at least once and both
    stop tolerances are finite and >= 0."""
    if not (max_iters >= 1 and 0 <= eps_abs < math.inf and 0 <= eps_rel < math.inf):
        raise ValueError("need max_iters >= 1 and finite stop tolerances >= 0, got "
                         f"max_iters={max_iters}, eps_abs={eps_abs}, eps_rel={eps_rel}")


@dataclass
class PdParams:
    """Step sizes and stopping control of the primal-dual iteration."""

    tau: float
    sigma: float
    theta: float = 0.3
    max_iters: int = 300
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3

    def __post_init__(self):
        if not (0 < self.tau < math.inf and 0 < self.sigma < math.inf):
            raise ValueError(f"tau and sigma must be finite and > 0, got {self}")
        if not (0 < self.theta <= 1):
            raise ValueError("theta must be in (0, 1]")
        _check_stop(self.max_iters, self.eps_abs, self.eps_rel)


@dataclass
class AdmmParams:
    rho: float
    max_iters: int = 2000
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3

    def __post_init__(self):
        if not (0 < self.rho < math.inf and 1.0 / self.rho < math.inf):
            raise ValueError(f"rho and 1/rho must be positive and finite, got {self.rho}")
        _check_stop(self.max_iters, self.eps_abs, self.eps_rel)


@dataclass
class ConvergenceLog:
    """Per-iteration residuals and solver effort of one optimizer run; row
    n (from 0) is iteration n + 1."""

    method: str = ""
    residuals: list[float] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    eps_cg: list[float] = field(default_factory=list)
    cg_iters: list[int] = field(default_factory=list)
    converged: bool = False

    def record(self, residual: float, epsilon: float, eps_cg: float, cg_iters: int):
        self.residuals.append(residual)
        self.epsilons.append(epsilon)
        self.eps_cg.append(eps_cg)
        self.cg_iters.append(cg_iters)

    def __len__(self):
        return len(self.residuals)

    @property
    def total_cg_iters(self) -> int:
        return int(sum(self.cg_iters))

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else math.inf


def stop_check(change: VelocityField, z_new: VelocityField, eps_abs: float,
               eps_rel: float, dual: VelocityField | None = None,
               tau: float = 1.0) -> tuple[bool, float, float]:
    """Stopping rule.

    residual = ||change||_2 with change = z_new - z_old or, given the dual
    residual field `dual`, the larger of the pair ||dual||_2 and
    ||change||_2 / tau; threshold eps = sqrt(n_dof) * eps_abs + eps_rel *
    ||z_new||_2 with n_dof the number of velocity degrees of freedom.
    """
    residual = change.norm() if dual is None else max(dual.norm(), change.norm() / tau)
    eps = math.sqrt(z_new.n_dof) * eps_abs + eps_rel * z_new.norm()
    return residual <= eps, residual, eps


def moreau_transform(prox_f: ProxOperator, sigma: float, v: VelocityField) -> VelocityField:
    """Prox of the convex conjugate, prox_{f*,1/sigma}(v) = v - sigma*prox_{f,sigma}(v/sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return v - sigma * prox_f(sigma, v * (1.0 / sigma))


# The loop below updates iterates that each solve call allocates once, with
# numpy `out=` calls on the active faces (`as_flat`; each operation's
# operands and order as the field operators compute them, so the bits are
# theirs), and swaps z and z_old by reference.  It never writes z0 or a
# prox's input.
# iterate_callback sees the loop's own z, which the next iteration
# overwrites: a callback that keeps it copies it.  The returned field is the
# solve's own, never written again.


def pd_solve(prox_f: ProxOperator, projector: DivergenceProjector, params: PdParams,
             z0: VelocityField, log: ConvergenceLog,
             iterate_callback=None, dual: SolverCarry | None = None) -> VelocityField:
    """First-order primal-dual iteration with K = identity, over-relaxed by
    r = prox_f.relaxation.

    Per iteration, with zb the relaxed base:
      x  <- x + r*sigma*y - r*sigma*prox_f(sigma, x/sigma + y)
      z  <- project(zb - tau*x)         (adaptive CG accuracy)
      y  <- z + theta*(z - zb)
      zb <- zb + r*(z - zb)
    and stop once the stop residual falls below the stop threshold with the
    CG tolerance already at its final accuracy.  At r = 1 the base is the
    last projection output.  The residual is the iterate change
    ||z - z_old|| of the projection outputs or, for a prox whose f holds an
    indicator (`has_indicator`), the larger of the primal and dual
    residuals ||z - z_old|| / tau of the projection step and ||p - z|| of
    dual feasibility, with p the prox output: at r = 1, x changes by
    sigma*(y - p), so y + (x_old - x)/sigma - z = p - z.  At theta = 1,
    sigma = rho and tau = 1/rho they are ADMM's s = rho ||z - z_old|| and
    r = ||x - z|| (Boyd et al., Found. Trends ML 2011, 3.3.1), and the
    relaxed step is ADMM over-relaxed by alpha = r (ibid., 3.4.3), whose
    pair the relaxation leaves as it is.  Starts from y = zb = z0 and from
    the caller's dual x, else 0: x is `dual.x` when the carry holds one
    on z0's dims that ran at this sigma.  When the loop returns, the carry
    takes the final x and sigma; a solve that raises leaves it as it was.
    iterate_callback sees each projection output.  Returns the last
    projection output; non-convergence is flagged on the log.
    """
    log.method = log.method or "pd"
    z, z_old, y = z0.copy(), z0.copy(), z0.copy()
    arg, t = VelocityField.zeros(z0.dims), VelocityField.zeros(z0.dims)
    yb, ab, tb = y.as_flat(), arg.as_flat(), t.as_flat()
    tau, sigma, theta = params.tau, params.sigma, params.theta
    # x is read and written on the active faces only
    carried = dual is not None and dual.dims == z0.dims and dual.sigma == sigma
    xb = dual.x.copy() if carried else np.zeros(z0.n_dof)
    relax = prox_f.relaxation
    base = z0.copy() if relax != 1.0 else None   # else z_old, swapped in
    dual_res = arg if prox_f.has_indicator else None   # p - z, once arg is projected
    for _ in range(params.max_iters):
        np.multiply(xb, 1.0 / sigma, out=ab)
        ab += yb
        p = prox_f(sigma, arg)
        np.multiply(yb, relax * sigma, out=tb)
        xb += tb
        np.multiply(p.as_flat(), relax * sigma, out=tb)
        xb -= tb
        z, z_old = z_old, z
        zb = z_old.as_flat() if base is None else base.as_flat()
        np.multiply(xb, tau, out=tb)
        np.subtract(zb, tb, out=ab)
        _, cg_iters, eps_cg = projector.project(arg, out=z)
        if iterate_callback is not None:
            iterate_callback(z)
        np.subtract(z.as_flat(), zb, out=tb)
        np.multiply(tb, theta, out=yb)
        yb += z.as_flat()
        if base is not None:
            tb *= relax
            zb += tb
            np.subtract(z.as_flat(), z_old.as_flat(), out=tb)
        if dual_res is not None:
            np.subtract(p.as_flat(), z.as_flat(), out=ab)
        # t holds z - z_old; the stop residual also sets the CG accuracy
        stop, residual, eps = stop_check(t, z, params.eps_abs, params.eps_rel, dual_res, tau)
        projector.adapt(residual, eps)
        log.record(residual, eps, eps_cg, cg_iters)
        log.converged = stop and eps_cg <= projector.cg.eps_final
        if log.converged:
            break
    if dual is not None:
        dual.x, dual.dims, dual.sigma = xb, z0.dims, sigma
    return z


def admm_solve(prox_f: ProxOperator, projector: DivergenceProjector,
               params: AdmmParams, z0: VelocityField, log: ConvergenceLog,
               iterate_callback=None, dual: SolverCarry | None = None) -> VelocityField:
    """ADMM (iterate_callback sees each z),
      x <- prox_f(rho, z - y);  z <- project(x + y);  y <- y + x - z,
    run as pd_solve at theta = 1, sigma = rho, tau = 1/rho, whose x/sigma is
    -(y + z - z_old): the same z iterates up to rounding, the same stop.
    The scaled dual starts from the caller's dual (pd_solve's carry), else 0."""
    log.method = log.method or "admm"
    pd = PdParams(tau=1.0 / params.rho, sigma=params.rho, theta=1.0, max_iters=params.max_iters,
                  eps_abs=params.eps_abs, eps_rel=params.eps_rel)
    return pd_solve(prox_f, projector, pd, z0, log, iterate_callback, dual)


def _fixed_projection(vel: VelocityField, flags: CellFlags, cg: CgConfig,
                      log: ConvergenceLog, method: str,
                      carry: SolverCarry | None) -> VelocityField:
    """Plain projection at the final CG accuracy with default walls, on the
    system `carry` holds, logged as one converged row with its CG iterations."""
    fixed = CgConfig(cg.eps_final, cg.eps_final, cg.max_cg_iters)
    projector = DivergenceProjector(flags, BcTable.from_flags(flags), fixed, carry)
    out, iters, _ = projector.project(vel)
    log.method = method
    log.record(0.0, 0.0, cg.eps_final, iters)
    log.converged = True
    return out
