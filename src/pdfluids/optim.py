"""Proximal-splitting optimizers over velocity fields.

All solvers minimize f(z) + g(z) where g is the indicator of the
divergence-free set (its proximal operator is the pressure projection) and
f is supplied as a proximal operator.  The first-order primal-dual
iteration is the workhorse; ADMM and iterated orthogonal projection are
provided for comparison and share the same projection and stopping
machinery so their convergence logs are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fields import VelocityField
from .pressure import DivergenceProjector

# acceleration constant of the adaptive primal-dual step-size schedule
GAMMA_ACCEL = 200.0


class ProxOperator:
    """Callable prox contract: (sigma, v) -> argmin_x f(x) + sigma/2 ||x-v||^2."""

    is_orthogonal_projection = False

    def __call__(self, sigma: float, v: VelocityField) -> VelocityField:
        raise NotImplementedError


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
    adaptive: bool = False
    krylov: bool = False

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
        if not (0 < self.rho < math.inf):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
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


def stop_check(z_new: VelocityField, z_old: VelocityField, eps_abs: float,
               eps_rel: float) -> tuple[bool, float, float]:
    """Iterate-change stopping rule.

    residual = ||z_new - z_old||_2, threshold
    eps = sqrt(n_dof) * eps_abs + eps_rel * ||z_new||_2 with n_dof the number
    of velocity degrees of freedom.
    """
    residual = (z_new - z_old).norm()
    eps = math.sqrt(z_new.n_dof) * eps_abs + eps_rel * z_new.norm()
    return residual <= eps, residual, eps


def moreau_transform(prox_f: ProxOperator, sigma: float, v: VelocityField) -> VelocityField:
    """Prox of the convex conjugate, prox_{f*,1/sigma}(v) = v - sigma*prox_{f,sigma}(v/sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return v - sigma * prox_f(sigma, v * (1.0 / sigma))


def adaptive_pd_update(tau: float, sigma: float,
                       gamma_accel: float) -> tuple[float, float, float]:
    """Accelerated step-size schedule.

    theta' = 1/sqrt(1 + 2*tau*gamma), tau' = tau*theta', sigma' = sigma/theta'.
    """
    theta = 1.0 / math.sqrt(1.0 + 2.0 * tau * gamma_accel)
    return tau * theta, sigma / theta, theta


def krylov_accelerate(z_k: VelocityField, z_km1: VelocityField | None, error_fn,
                      eps_km1: float | None) -> tuple[VelocityField, float]:
    """One secant-style correction of an alternating-projection iterate.

    eps_k = error_fn(z_k); for k > 1 the candidate
    z_tmp = z_k - (eps_k/eps_{k-1}) (z_k - z_{k-1}) replaces z_k only when it
    has a strictly smaller error.  Returns (iterate, eps_k); eps_{k-1} = 0
    skips the correction.
    """
    eps_k = float(error_fn(z_k))
    if z_km1 is None or eps_km1 is None or eps_km1 == 0.0 or eps_k == 0.0:
        return z_k, eps_k
    ratio = eps_k / eps_km1
    z_tmp = z_k - ratio * (z_k - z_km1)
    if float(error_fn(z_tmp)) < eps_k:
        return z_tmp, eps_k
    return z_k, eps_k


def _guard_extensions(prox_f: ProxOperator, params: PdParams):
    if (params.adaptive or params.krylov) and not prox_f.is_orthogonal_projection:
        raise ValueError("adaptive parameters and Krylov correction are only "
                         "supported for orthogonal-projection prox operators")


def _loop_tail(z: VelocityField, z_old: VelocityField, eps_cg: float,
               cg_iters: int, projector: DivergenceProjector, eps_abs: float,
               eps_rel: float, log: ConvergenceLog) -> bool:
    """End of one outer iteration, shared by every solver: stop check, CG
    accuracy adaptation, log row.  Returns and records on the log whether
    the solve has converged: the iterate change is below the threshold and
    the projection ran at its final accuracy."""
    stop, residual, eps = stop_check(z, z_old, eps_abs, eps_rel)
    projector.adapt(residual, eps)
    log.record(residual, eps, eps_cg, cg_iters)
    log.converged = stop and eps_cg <= projector.cg.eps_final
    return log.converged


def pd_solve(prox_f: ProxOperator, projector: DivergenceProjector, params: PdParams,
             z0: VelocityField, log: ConvergenceLog, krylov_error=None,
             iterate_callback=None) -> VelocityField:
    """First-order primal-dual iteration with K = identity.

    Per iteration:
      x <- x + sigma*y - sigma*prox_f(sigma, x/sigma + y)
      z <- project(z - tau*x)           (adaptive CG accuracy)
      y <- z + theta*(z - z_old)
    and stop once ||z - z_old|| falls below the stop threshold with the CG
    tolerance already at its final accuracy.  Starts from x = 0, y = z0.
    iterate_callback sees each projection output, before the Krylov step.
    Returns the last projection output, so the result is divergence-free to
    the last CG accuracy even when the Krylov correction moved the iterate;
    non-convergence is flagged on the log.
    """
    _guard_extensions(prox_f, params)
    log.method = log.method or "pd"
    z = z_proj = z0.copy()
    x = VelocityField.zeros(z.dims)
    y = z0.copy()
    tau, sigma, theta = params.tau, params.sigma, params.theta
    if params.krylov and krylov_error is None:
        krylov_error = lambda f: (f - prox_f(1.0, f)).norm()
    z_km1 = None
    eps_km1 = None
    for _ in range(params.max_iters):
        x = x + sigma * y - sigma * prox_f(sigma, x * (1.0 / sigma) + y)
        z_old = z
        z_proj, cg_iters, eps_cg = projector.project(z_old - tau * x)
        if iterate_callback is not None:
            iterate_callback(z_proj)
        z = z_proj
        if params.krylov:
            z, eps_km1 = krylov_accelerate(z_proj, z_km1, krylov_error, eps_km1)
            z_km1 = z
        if params.adaptive:
            tau, sigma, theta = adaptive_pd_update(tau, sigma, GAMMA_ACCEL)
        y = z + theta * (z - z_old)
        if _loop_tail(z, z_old, eps_cg, cg_iters, projector, params.eps_abs,
                      params.eps_rel, log):
            break
    return z_proj


def admm_solve(prox_f: ProxOperator, projector: DivergenceProjector,
               params: AdmmParams, z0: VelocityField, log: ConvergenceLog,
               iterate_callback=None) -> VelocityField:
    """Alternating direction method of multipliers with scaled dual y0 = 0;
    iterate_callback sees each projection output.

      x <- prox_f(rho, z - y);  z <- project(x + y);  y <- y + x - z
    """
    log.method = log.method or "admm"
    z = z0.copy()
    y = VelocityField.zeros(z.dims)
    for _ in range(params.max_iters):
        x = prox_f(params.rho, z - y)
        z_old = z
        z, cg_iters, eps_cg = projector.project(x + y)
        if iterate_callback is not None:
            iterate_callback(z)
        y = y + x - z
        if _loop_tail(z, z_old, eps_cg, cg_iters, projector, params.eps_abs,
                      params.eps_rel, log):
            break
    return z


def iop_solve(prox_f: ProxOperator, projector: DivergenceProjector,
              z0: VelocityField, log: ConvergenceLog, krylov: bool = False,
              eps_abs: float = 1e-3, eps_rel: float = 1e-3,
              max_iters: int = 500, krylov_error=None) -> VelocityField:
    """Iterated orthogonal projection: alternate prox_f and the projection.

    Valid only when prox_f is an orthogonal projection; optionally applies
    the Krylov correction each iteration.  Returns the last projection
    output, as pd_solve does.
    """
    if not prox_f.is_orthogonal_projection:
        raise ValueError("iop_solve requires an orthogonal-projection prox operator")
    _check_stop(max_iters, eps_abs, eps_rel)
    log.method = log.method or "iop"
    z = z_proj = z0.copy()
    if krylov and krylov_error is None:
        krylov_error = lambda f: (f - prox_f(1.0, f)).norm()
    z_km1 = None
    eps_km1 = None
    for _ in range(max_iters):
        x = prox_f(1.0, z)
        z_old = z
        z_proj, cg_iters, eps_cg = projector.project(x)
        z = z_proj
        if krylov:
            z, eps_km1 = krylov_accelerate(z_proj, z_km1, krylov_error, eps_km1)
            z_km1 = z
        if _loop_tail(z, z_old, eps_cg, cg_iters, projector, eps_abs, eps_rel, log):
            break
    return z_proj
