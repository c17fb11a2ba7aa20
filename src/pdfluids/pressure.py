"""Pressure Poisson solves and the divergence-free projection.

The linear system is the 5/7-point Laplacian assembled matrix-free from the
cell flags and a per-face boundary table: Neumann faces drop out of the
stencil (the face velocity is kept), Dirichlet faces use a ghost pressure of
zero (free surface).  Conjugate gradients with Jacobi preconditioning solve
the SPD form; all-Neumann systems get their right-hand side mean-subtracted
for compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .fields import (CellFlags, CellType, GridDims, ScalarField, VelocityField,
                     _along, _check_dims, divergence, fluid_adjacent_face_mask)


class FaceTag(IntEnum):
    INTERIOR = 0   # fluid-fluid, coupled in the stencil
    NEUMANN = 1    # zero pressure gradient, face velocity fixed
    DIRICHLET = 2  # ghost pressure 0, face velocity updated


class PoissonConvergenceError(RuntimeError):
    """CG ran out of iterations, broke down or met a non-finite value (in
    the velocity, the rhs or the residual); carries the iterations reached
    and the last relative residual."""

    def __init__(self, iterations: int, residual: float):
        what = ("did not converge" if math.isfinite(residual)
                else "met a non-finite value")
        super().__init__(f"pressure CG {what} in {iterations} "
                         f"iterations (last relative residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class BcTable:
    """Per-face boundary tags derived from the cell flags.

    Faces between two FLUID cells are INTERIOR.  Fluid-solid faces default
    to NEUMANN, fluid-empty faces to DIRICHLET (free surface), and domain
    wall faces of fluid cells to NEUMANN; all defaults can be overridden.
    """

    def __init__(self, dims: GridDims, tags: tuple[np.ndarray, np.ndarray, np.ndarray]):
        self.dims = dims
        self.tags = tags

    @classmethod
    def from_flags(cls, flags: CellFlags, solid_faces: FaceTag = FaceTag.NEUMANN,
                   wall_faces: FaceTag = FaceTag.NEUMANN) -> "BcTable":
        d = flags.dims
        v = flags.values
        tags = []
        for axis in range(3):
            t = np.full(d.face_shape(axis), FaceTag.NEUMANN, dtype=np.uint8)
            a = v[_along(axis, slice(None, -1))]
            b = v[_along(axis, slice(1, None))]
            it = t[_along(axis, slice(1, -1))]
            both_fluid = (a == CellType.FLUID) & (b == CellType.FLUID)
            fl_solid = ((a == CellType.FLUID) & (b == CellType.SOLID)) | \
                       ((a == CellType.SOLID) & (b == CellType.FLUID))
            fl_empty = ((a == CellType.FLUID) & (b == CellType.EMPTY)) | \
                       ((a == CellType.EMPTY) & (b == CellType.FLUID))
            it[both_fluid] = FaceTag.INTERIOR
            it[fl_solid] = solid_faces
            it[fl_empty] = FaceTag.DIRICHLET
            for side in (0, -1):
                t[_along(axis, side)] = np.where(
                    v[_along(axis, side)] == CellType.FLUID,
                    np.uint8(wall_faces), np.uint8(FaceTag.NEUMANN))
            tags.append(t)
        return cls(d, tuple(tags))

    def copy(self) -> "BcTable":
        return BcTable(self.dims, tuple(t.copy() for t in self.tags))

    def set_face(self, axis: int, index: tuple[int, int, int], tag: FaceTag):
        self.tags[axis][index] = np.uint8(tag)


@dataclass
class CgConfig:
    """Residual tolerances of the pressure solver."""

    eps_start: float = 1e-2
    eps_final: float = 1e-5
    max_cg_iters: int = 10000

    def __post_init__(self):
        if not (0 < self.eps_final <= self.eps_start):
            raise ValueError("need 0 < eps_final <= eps_start")


@dataclass
class AdaptiveCgController:
    """Decade-stepped CG accuracy schedule over an optimizer solve."""

    eps_start: float
    eps_final: float
    current: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.eps_final <= self.eps_start):
            raise ValueError("need 0 < eps_final <= eps_start")
        self.current = self.eps_start

    @classmethod
    def from_config(cls, cfg: CgConfig) -> "AdaptiveCgController":
        return cls(cfg.eps_start, cfg.eps_final)

    @property
    def at_final(self) -> bool:
        return self.current <= self.eps_final

    def reset(self):
        self.current = self.eps_start


def adapt_cg_tolerance(controller: AdaptiveCgController, residual_z: float,
                       eps_stop: float) -> float:
    """Drop the CG tolerance a decade once the iterate change nears the
    stopping threshold (within one decade), clamped at the final accuracy."""
    if residual_z <= 10.0 * eps_stop:
        controller.current = max(controller.current / 10.0, controller.eps_final)
    return controller.current


class PoissonSystem:
    """Matrix-free SPD Laplacian for a given flag field and boundary table."""

    def __init__(self, flags: CellFlags, bc: BcTable):
        if flags.dims != bc.dims:
            raise ValueError("dimension mismatch between flags and bc table")
        d = flags.dims
        self.dims = d
        self.fluid = flags.fluid
        inv_h2 = 1.0 / (d.h * d.h)
        diag = np.zeros(d.shape)
        self._stencil = []   # (lo, hi, conn): cells coupled through a face
        has_dirichlet = False
        for axis in d.axes:
            t = bc.tags[axis]
            # count non-Neumann faces into each fluid cell's diagonal
            for cells in (slice(None, -1), slice(1, None)):
                diag += (t[_along(axis, cells)] != FaceTag.NEUMANN).astype(np.float64)
            inner = t[_along(axis, slice(1, -1))]
            conn = (inner == FaceTag.INTERIOR).astype(np.float64) * inv_h2
            self._stencil.append((_along(axis, slice(None, -1)),
                                  _along(axis, slice(1, None)), conn))
            if (t[fluid_adjacent_face_mask(flags, axis)] == FaceTag.DIRICHLET).any():
                has_dirichlet = True
        diag *= inv_h2
        diag[~self.fluid] = 0.0
        self.diag = diag
        self.has_dirichlet = has_dirichlet
        self.active = self.fluid & (diag > 0)
        self._inactive = ~self.active
        with np.errstate(divide="ignore"):
            inv = np.where(self.active, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
        self.inv_diag = inv

    def apply(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A p, written into `out` when given."""
        if out is None:
            out = self.diag * p
        else:
            np.multiply(self.diag, p, out=out)
        for lo, hi, conn in self._stencil:
            out[lo] -= conn * p[hi]
            out[hi] -= conn * p[lo]
        out[self._inactive] = 0.0
        return out

    def prepare_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Mask to active cells; mean-subtract when no Dirichlet face exists."""
        b = np.where(self.active, rhs, 0.0)
        if not self.has_dirichlet:
            n = int(self.active.sum())
            if n:
                b = np.where(self.active, b - b[self.active].mean(), 0.0)
        return b

    def cg(self, b: np.ndarray, eps: float, max_iters: int,
           inf_tol: float | None = None):
        """Jacobi-preconditioned CG on A x = b.

        Stops when ||r||_2 <= eps * max(||b||_2, 1) and, if inf_tol is given,
        additionally max|r_i| <= inf_tol.  Returns (x, iterations).  Raises
        PoissonConvergenceError on a non-finite rhs or residual, on a
        breakdown and when max_iters is used up.
        """
        x = np.zeros_like(b)
        bnorm = float(np.linalg.norm(b))
        if not math.isfinite(bnorm):
            raise PoissonConvergenceError(0, bnorm)
        if bnorm == 0.0:
            return x, 0
        target = eps * max(bnorm, 1.0)
        r = b.copy()
        r_flat = r.reshape(-1)
        z = np.empty_like(b)
        ad = np.empty_like(b)
        tmp = np.empty_like(b)

        def done():
            rn = math.sqrt(float(r_flat.dot(r_flat)))
            if not math.isfinite(rn):
                raise PoissonConvergenceError(it, rn)
            if rn > target:
                return False, rn
            if inf_tol is not None and float(np.abs(r).max()) > inf_tol:
                return False, rn
            return True, rn

        it = 0
        ok, rnorm = done()
        if ok:
            return x, 0
        np.multiply(r, self.inv_diag, out=z)
        d = z.copy()
        rz = float(np.vdot(r, z))
        for it in range(1, max_iters + 1):
            self.apply(d, ad)
            dad = float(np.vdot(d, ad))
            if dad <= 0.0:
                break
            alpha = rz / dad
            x += np.multiply(alpha, d, out=tmp)
            r -= np.multiply(alpha, ad, out=tmp)
            ok, rnorm = done()
            if ok:
                return x, it
            np.multiply(r, self.inv_diag, out=z)
            rz_new = float(np.vdot(r, z))
            d *= rz_new / rz
            d += z
            rz = rz_new
        raise PoissonConvergenceError(it, rnorm / max(bnorm, 1.0))


def solve_poisson(rhs: ScalarField, flags: CellFlags, bc: BcTable, eps_cg: float,
                  max_cg_iters: int = 10000,
                  inf_tol: float | None = None) -> ScalarField:
    """Pressure p with ||lap(p) - rhs|| <= eps_cg * max(||rhs||, 1).

    lap is the boundary-aware discrete Laplacian (div of the ghost-treated
    gradient); internally CG runs on the SPD negation.
    """
    _check_dims(rhs, flags)
    rhs.validate_finite()
    system = PoissonSystem(flags, bc)
    b = system.prepare_rhs(-rhs.values)
    p, _ = system.cg(b, eps_cg, max_cg_iters, inf_tol=inf_tol)
    return ScalarField(rhs.dims, p)


def subtract_gradient(vel: VelocityField, p: ScalarField, flags: CellFlags,
                      bc: BcTable) -> VelocityField:
    """Velocity update u <- u - grad(p) with the table's ghost treatment.

    Interior fluid-fluid faces use the two-sided difference, Dirichlet faces
    a ghost pressure of zero on the non-fluid side, Neumann faces are left
    unchanged.
    """
    _check_dims(vel, p)
    _check_dims(vel, flags)
    d = vel.dims
    inv_h = 1.0 / d.h
    fl = flags.fluid
    out = vel.copy()
    pv = p.values
    for axis in d.axes:
        t = bc.tags[axis]
        arr = out.component(axis)
        inner = _along(axis, slice(1, -1))
        lo, hi = _along(axis, slice(None, -1)), _along(axis, slice(1, None))
        it = t[inner]
        grad = np.zeros_like(it, dtype=np.float64)
        interior = it == FaceTag.INTERIOR
        grad[interior] = (pv[hi] - pv[lo])[interior] * inv_h
        diri = it == FaceTag.DIRICHLET
        diri_lo = diri & fl[lo] & ~fl[hi]   # ghost on the high side
        diri_hi = diri & fl[hi] & ~fl[lo]   # ghost on the low side
        grad[diri_lo] = (0.0 - pv[lo][diri_lo]) * inv_h
        grad[diri_hi] = (pv[hi][diri_hi] - 0.0) * inv_h
        arr[inner] -= grad
        # domain wall faces: only a Dirichlet ghost can drive an update
        for side in (0, -1):
            wall = _along(axis, side)
            m = (t[wall] == FaceTag.DIRICHLET) & fl[wall]
            # low wall: grad = (p_cell - 0)/h; high wall: grad = (0 - p_cell)/h
            sign = 1.0 if side == 0 else -1.0
            arr[wall][m] -= sign * pv[wall][m] * inv_h
    return out


def project(vel: VelocityField, flags: CellFlags, bc: BcTable, eps_cg: float,
            max_cg_iters: int = 10000) -> VelocityField:
    """Divergence-free (Euclidean) projection via a pressure solve.

    Faces tagged NEUMANN keep their input velocity; only the velocity field
    is touched.  The CG residual is additionally driven below 10*eps_cg in
    max norm so the per-cell divergence bound holds at any rhs scale.
    """
    projector = DivergenceProjector(flags, bc, CgConfig(eps_cg, eps_cg, max_cg_iters))
    return projector.project(vel)[0]


class DivergenceProjector:
    """Projection bundle used inside the optimizer loops.

    Owns the Poisson system for a fixed flag/boundary configuration plus the
    adaptive CG tolerance controller, and reports the CG effort of each
    projection so convergence logs can attribute cost.  A fixed accuracy
    eps is CgConfig(eps, eps, max_cg_iters).
    """

    def __init__(self, flags: CellFlags, bc: BcTable, cg: CgConfig | None = None):
        self.flags = flags
        self.bc = bc
        self.cg = cg if cg is not None else CgConfig()
        self.controller = AdaptiveCgController.from_config(self.cg)
        self.system = PoissonSystem(flags, bc)

    def project(self, vel: VelocityField) -> tuple[VelocityField, int, float]:
        """The one projection routine: divergence, pressure solve at the
        current accuracy (max-norm residual below 10x it), gradient update.
        Returns (projected velocity, CG iterations, CG accuracy).  A
        non-finite face raises before the solve, also one the divergence
        never reads (no FLUID neighbour)."""
        if not all(np.isfinite(arr).all() for _, arr in vel.components()):
            raise PoissonConvergenceError(0, math.nan)
        eps = self.controller.current
        div = divergence(vel, self.flags)
        b = self.system.prepare_rhs(-div.values)
        p, iters = self.system.cg(b, eps, self.cg.max_cg_iters, inf_tol=10.0 * eps)
        out = subtract_gradient(vel, ScalarField(vel.dims, p), self.flags, self.bc)
        return out, iters, eps

    def adapt(self, residual: float, eps_stop: float) -> float:
        return adapt_cg_tolerance(self.controller, residual, eps_stop)

    @property
    def final_accuracy(self) -> float:
        return self.controller.eps_final
