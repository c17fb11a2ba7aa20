"""Separating solid-wall boundary conditions.

Fluid may leave a wall (positive wall-normal velocity) but never penetrate
it: u.n >= 0 on every face between FLUID and SOLID cells, so the exact
pressure step projects the input onto {div u = 0, u.n >= 0}, the LCP of
Batty, Bertails & Bridson (SIGGRAPH 2007).  A BcState holds the
non-separating set of those faces, the ones the wall holds, as one flat
face mask.

Two solvers are provided.  The standard one poses the step as
min f(z) + g(z) with f(z) = 1/2 ||z - a||^2 plus the indicator of
{u.n >= 0} and g the indicator of the divergence-free set under
free-surface walls, and runs the primal-dual iteration on it: the prox of
f clamps u.n at 0 face by face, the pressure projection handles g, and no
face is ever classified.  The iteration is over-relaxed (Boyd et al.,
Found. Trends ML 2011, 3.4.3) and stops on the primal and dual residuals
of its projection outputs.  The accelerated one returns the same
projection by a primal-dual active-set sweep: it projects the input with
Neumann tags on the set and free-surface Dirichlet ones on the other
walls, adds the faces the result penetrates, releases the faces whose
wall would pull (a negative multiplier), and repeats until no face
moves, retagging one table and one pressure system in place.  It starts
from the set that the caller's state carries over from the previous
frame.  Each solver reads a state on its own walls only, and writes one
that holds no other face, when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CellFlags, CellType, VelocityField, _flat_faces, _to_faces
from .optim import ConvergenceLog, PdParams, ProxOperator, pd_solve
from .pressure import BcTable, CgConfig, DivergenceProjector, FaceTag, _require_finite
# re-exported: bench/test_bench.py checks that the tracer rebinds it here
from .pressure import subtract_gradient  # noqa: F401

MAX_SWEEPS = 50   # cap of the accelerated solver's active-set sweeps


# _NORMAL[lower, upper]: the face sign of the wall normal by the types of the
# two cells (read by flat index), +1 with SOLID below FLUID, -1 with FLUID
# below SOLID
_NORMAL = np.zeros((3, 3))
_NORMAL[CellType.SOLID, CellType.FLUID] = 1.0
_NORMAL[CellType.FLUID, CellType.SOLID] = -1.0


class BoundaryFaces:
    """All fluid-solid faces of a flag field: `index` holds their ascending
    indices into `VelocityField.as_flat` (so (axis, i, j, k) order), `sign`
    the sign of the wall normal, which points out of the solid along the
    face's axis, and `cell` the flat index of each face's FLUID cell."""

    def __init__(self, flags: CellFlags):
        sign = _flat_faces(flags.dims, lambda axis: _to_faces(
            flags.values, axis, lambda a, b: _NORMAL.take(3 * a + b)))
        self.index = np.flatnonzero(sign)
        self.sign = sign[self.index]
        lower, upper = (cells[self.index] for cells in flags.dims._face_cells)
        self.cell = np.where(flags.fluid.reshape(-1)[upper], upper, lower)

    def __len__(self):
        return self.index.size

    def normal_velocity(self, vel: VelocityField) -> np.ndarray:
        """u . n per face (positive = moving away from the wall)."""
        return vel.as_flat()[self.index] * self.sign

    def zero_normal(self, vel: VelocityField, mask: np.ndarray):
        vel.as_flat()[self.index[mask]] = 0.0


@dataclass
class BcState:
    """The non-separating set: one bool per active face, laid out as in
    `VelocityField.as_flat` (so as `SolverCarry.x`)."""

    nsep: np.ndarray

    @classmethod
    def initial(cls, flags: CellFlags, eps: float | None = None) -> "BcState":
        """The empty set.  `eps` is read by nothing: bench/workloads.py passes it."""
        return cls(_flat_faces(flags.dims, lambda a: np.zeros(flags.dims.face_shape(a), bool)))


class WallProx(ProxOperator):
    """The prox of f(z) = 1/2 ||z - a||^2 + the indicator of the wall set C:
    u.n >= 0 on every wall face or, given `locked`, u.n = 0 on the locked
    faces and no constraint on the others.  C constrains each face on its
    own, so prox(sigma, v) = P_C((a + sigma v) / (1 + sigma)), the weighted
    mean clamped face by face; every face off the walls keeps the mean.  The
    result is the prox's own field, which its next call overwrites."""

    has_indicator = True
    relaxation = 1.5   # the low end of Boyd's [1.5, 1.8]: 1.8 costs a 3D dam more

    def __init__(self, a: VelocityField, faces: BoundaryFaces,
                 locked: np.ndarray | None = None):
        self.a, self.faces, self.locked = a, faces, locked
        self._out = VelocityField.zeros(a.dims)

    def __call__(self, sigma, v):
        out, faces = self._out, self.faces
        flat = out.as_flat()
        np.multiply(v.as_flat(), sigma, out=flat)
        flat += self.a.as_flat()
        flat *= 1.0 / (1.0 + sigma)
        if self.locked is not None:
            faces.zero_normal(out, self.locked)
        else:
            flat[faces.index] = faces.sign * np.maximum(
                flat[faces.index] * faces.sign, 0.0)
        return out


def free_surface_walls_table(flags: CellFlags) -> BcTable:
    """Boundary table of the standard solver: every wall a free surface."""
    return BcTable.from_flags(flags, solid_faces=FaceTag.DIRICHLET)


def classified_walls_table(flags: CellFlags, state: BcState) -> BcTable:
    """Neumann at non-separating faces, Dirichlet at separating ones (the
    set lies on the walls of flags, as a solver's set on its flags does)."""
    bc = free_surface_walls_table(flags)
    bc.tags[state.nsep] = FaceTag.NEUMANN
    return bc


def solve_separating_standard(u: VelocityField, flags: CellFlags,
                              params: PdParams | None = None,
                              state: BcState | None = None,
                              cg: CgConfig | None = None,
                              log: ConvergenceLog | None = None,
                              lock_set: bool = False) -> VelocityField:
    """Primal-dual solve with separating walls: the projection of u onto
    {div = 0 on FLUID, u.n >= 0}, to the stop tolerance.

    The pressure solver sees every wall as a free surface and the prox of
    f(z) = 1/2 ||z - u||^2 + the wall constraint (WallProx) clamps u.n at 0;
    one pd_solve from z = u, by default at tau 1/3, sigma 3, theta 1 (ADMM
    at rho 3), over-relaxed by WallProx.relaxation = 1.5: the dual moves by
    1.5 sigma (y - p) and each projection z = project(zb - tau x) starts
    from the relaxed base zb, which then moves 1.5 of the way to z.  It
    stops on the primal and dual residuals ||p - z|| and ||z - z_old|| / tau
    (z_old the previous projection output, not the base) at a tolerance of
    1e-5.  It reads no set; the caller's state ends holding the faces whose
    |u.n| in the result lies within the last stop threshold.  With lock_set
    the caller's set is the constraint instead: its normals are held at 0,
    every other wall face is left free and the state is not touched, the
    validation mode against plain no-penetration projections.  A non-finite
    u raises PoissonConvergenceError before the prox runs.
    """
    _require_finite(u)
    log = log if log is not None else ConvergenceLog()
    log.method = log.method or "pd-separating"
    if lock_set and state is None:
        raise ValueError("lock_set requires a state holding the set to lock")
    faces = BoundaryFaces(flags)
    params = params if params is not None else PdParams(
        tau=1.0 / 3.0, sigma=3.0, theta=1.0, max_iters=800, eps_abs=1e-5, eps_rel=1e-5)
    projector = DivergenceProjector(flags, free_surface_walls_table(flags), cg)
    prox = WallProx(u, faces, state.nsep[faces.index] if lock_set else None)
    z = pd_solve(prox, projector, params, u, log)
    if state is not None and not lock_set:
        state.nsep = BcState.initial(flags).nsep
        state.nsep[faces.index] = np.abs(faces.normal_velocity(z)) <= log.epsilons[-1]
    return z


def solve_separating_accelerated(u: VelocityField, flags: CellFlags,
                                 cg: CgConfig | None = None,
                                 state: BcState | None = None,
                                 log: ConvergenceLog | None = None) -> VelocityField:
    """The exact separating-wall projection of u, by a primal-dual
    active-set sweep.

    Separating walls ask u.n >= 0 on every fluid-solid face, so the exact
    pressure step projects u onto {div = 0 on FLUID, u.n >= 0}, the LCP of
    Batty, Bertails & Bridson (SIGGRAPH 2007).  Each sweep projects a copy
    of u with the normals of the non-separating set zeroed, under Neumann
    tags on the set and Dirichlet ones on the other walls, to z.  A set
    face's multiplier is mu = p[cell]/h - u.n, with the sweep's pressure p
    and the input's u.n (the wall pushes when mu >= 0).  The faces outside
    the set with z.n < -tol enter it and the set faces with mu < -tol leave
    it, tol = eps_final * max(1, max|z.n|, max|mu| on the set); the loop
    ends when no face moves.  This is the primal-dual active-set method, a
    semismooth Newton method (Hintermueller, Ito & Kunisch, SIAM J. Optim.
    2002) that may start from any set, so it starts from the faces with
    u.n < 0 together with the wall faces of the set the caller's state
    holds: passed to every frame, as `scenes.liquid_step` passes its
    scene's, the state carries the last frame's set (a face's flat index
    does not change between frames).  It takes the final set when the solve
    returns.  One table and one PoissonSystem serve every sweep:
    each sweep retags the faces that moved, in place, and its CG starts
    from the previous sweep's pressure.  Every solve runs at eps_final.  A
    non-finite u raises PoissonConvergenceError before any solve.
    """
    _require_finite(u)
    log = log if log is not None else ConvergenceLog()
    log.method = log.method or "accelerated-separating"
    cg = cg if cg is not None else CgConfig()
    eps_cg = cg.eps_final
    cg = CgConfig(eps_cg, eps_cg, cg.max_cg_iters)
    faces = BoundaryFaces(flags)
    un_in = faces.normal_velocity(u)
    nsep = un_in < 0.0   # the set, one bool per wall face
    if state is not None:
        nsep |= state.nsep[faces.index]
    held = BcState.initial(flags)   # the set, a flat face mask
    held.nsep[faces.index] = nsep
    projector = DivergenceProjector(flags, classified_walls_table(flags, held), cg)
    inv_h = 1.0 / flags.dims.h
    # the sweep's own fields: its projection input (then the iterate change)
    # and two iterates in turn, each projection writing all of its own
    start, *iterates = (VelocityField.zeros(u.dims) for _ in range(3))
    z = u
    for k in range(MAX_SWEEPS):
        np.copyto(start.as_flat(), u.as_flat())
        faces.zero_normal(start, nsep)
        z_old, z = z, iterates[k % 2]   # z_old is u itself at the first sweep
        cg_iters = projector.project(start, out=z)[1]
        np.subtract(z.as_flat(), z_old.as_flat(), out=start.as_flat())
        log.record(start.norm(), 0.0, eps_cg, cg_iters)
        un = faces.normal_velocity(z)
        mu = projector.pressure.reshape(-1)[faces.cell] * inv_h - un_in
        tol = eps_cg * max(1.0, np.abs(un).max(initial=0.0),
                           np.abs(mu[nsep]).max(initial=0.0))
        moved = np.where(nsep, mu < -tol, un < -tol)
        if not moved.any():
            log.converged = True
            break
        nsep ^= moved
        projector.retag(faces.index[moved], faces.cell[moved], np.where(
            nsep[moved], FaceTag.NEUMANN, FaceTag.DIRICHLET))
    if state is not None:
        held.nsep[faces.index] = nsep
        state.nsep = held.nsep
    return z
