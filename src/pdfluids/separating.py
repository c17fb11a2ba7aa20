"""Separating solid-wall boundary conditions.

Fluid may leave a wall (positive wall-normal velocity) but never penetrate
it.  Boundary faces between FLUID and SOLID cells are classified into
separating and non-separating sets with a hysteresis rule: a face only
changes state when the evidence exceeds the solver accuracy, and a
non-separating face additionally remembers the accumulated wall-ward motion
so solver noise cannot flip it back.

Two solvers are provided.  The standard one runs the primal-dual iteration
with the classification hooked after every projection, the pressure solver
treating every wall as a free surface.  The accelerated one instead feeds
the classification into the pressure boundary table (Neumann at
non-separating faces, free-surface Dirichlet at separating ones) and sweeps
until the classification stops changing; faces lock in, which makes it
cheaper but only approximately equal to the standard solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CellFlags, CellType, VelocityField, _flat_faces, _to_faces
from .optim import ConvergenceLog, PdParams, ProxOperator, pd_solve
from .pressure import BcTable, CgConfig, DivergenceProjector, FaceTag, _require_finite
# re-exported: bench/test_bench.py checks that the tracer rebinds it here
from .pressure import subtract_gradient  # noqa: F401

MAX_SWEEPS = 50   # cap of the accelerated solver's classify-and-project sweeps


# _NORMAL[lower, upper]: the face sign of the wall normal by the types of the
# two cells (read by flat index), +1 with SOLID below FLUID, -1 with FLUID
# below SOLID
_NORMAL = np.zeros((3, 3))
_NORMAL[CellType.SOLID, CellType.FLUID] = 1.0
_NORMAL[CellType.FLUID, CellType.SOLID] = -1.0


class BoundaryFaces:
    """All fluid-solid faces of a flag field: `index` holds their ascending
    indices into `VelocityField.as_flat` (so (axis, i, j, k) order) and
    `sign` the sign of the wall normal, which points out of the solid
    along the face's axis."""

    def __init__(self, flags: CellFlags):
        sign = _flat_faces(flags.dims, lambda axis: _to_faces(
            flags.values, axis, lambda a, b: _NORMAL.take(3 * a + b)))
        self.index = np.flatnonzero(sign)
        self.sign = sign[self.index]

    def __len__(self):
        return self.index.size

    def normal_velocity(self, vel: VelocityField) -> np.ndarray:
        """u . n per face (positive = moving away from the wall)."""
        return vel.as_flat()[self.index] * self.sign

    def zero_normal(self, vel: VelocityField, mask: np.ndarray):
        vel.as_flat()[self.index[mask]] = 0.0


@dataclass
class BcState:
    """Non-separating set, wall-ward memory and the classification threshold."""

    faces: BoundaryFaces
    nsep: np.ndarray
    memory: np.ndarray
    eps: float = 1e-5

    @classmethod
    def initial(cls, flags: CellFlags, eps: float = 1e-5) -> "BcState":
        faces = BoundaryFaces(flags)
        return cls(faces, np.zeros(len(faces), dtype=bool),
                   np.zeros(len(faces)), eps)

    def reset(self, flags: CellFlags, eps: float):
        """Empty classification of the faces of `flags` at threshold eps, in
        place, so a caller holding this state sees the solver's final sets."""
        fresh = BcState.initial(flags, eps)
        self.faces, self.nsep, self.memory, self.eps = (
            fresh.faces, fresh.nsep, fresh.memory, fresh.eps)


def classify(u: VelocityField, state: BcState) -> int:
    """Hysteresis classification of boundary faces; returns the number of
    faces that entered or left the non-separating set.

    Faces with |u.n| below the threshold keep their previous state.  Wall-ward
    motion (u.n <= 0) marks the face non-separating and accumulates into the
    memory; outward motion frees the face only once it outweighs the
    remembered wall-ward motion.
    """
    un = state.faces.normal_velocity(u)
    act = np.abs(un) >= state.eps
    into = act & (un <= 0.0)
    flips = np.count_nonzero(into & ~state.nsep)
    state.nsep[into] = True
    state.memory[into] += un[into]
    outward = act & (un > 0.0) & (np.abs(un) >= np.abs(state.memory))
    flips += np.count_nonzero(outward & state.nsep)
    state.nsep[outward] = False
    state.memory[outward] = 0.0
    return int(flips)


class SeparatingProx(ProxOperator):
    """Zero the wall-normal component on the non-separating faces of the
    state.  An orthogonal projection: idempotent, touches nothing else."""

    is_orthogonal_projection = True

    def __init__(self, state: BcState):
        self.state = state

    def __call__(self, sigma, v):
        out = v.copy()
        self.state.faces.zero_normal(out, self.state.nsep)
        return out


def violation_norm(state: BcState):
    """Krylov error measure: distance to the non-separating constraint set."""

    def err(v: VelocityField) -> float:
        un = state.faces.normal_velocity(v)
        return float(np.linalg.norm(un[state.nsep]))

    return err


def free_surface_walls_table(flags: CellFlags) -> BcTable:
    """Boundary table of the standard solver: every wall a free surface."""
    return BcTable.from_flags(flags, solid_faces=FaceTag.DIRICHLET)


def classified_walls_table(flags: CellFlags, state: BcState) -> BcTable:
    """Neumann at non-separating faces, Dirichlet at separating ones."""
    bc = free_surface_walls_table(flags)
    bc.tags[state.faces.index[state.nsep]] = FaceTag.NEUMANN
    return bc


def solve_separating_standard(u: VelocityField, flags: CellFlags,
                              params: PdParams | None = None,
                              state: BcState | None = None,
                              cg: CgConfig | None = None,
                              log: ConvergenceLog | None = None,
                              lock_set: bool = False) -> VelocityField:
    """Primal-dual solve with separating walls.

    The pressure solver sees every wall as a free surface; the prox zeroes
    non-separating normals and the classification runs on z after each
    projection with the threshold synced to the current CG accuracy.  The
    caller's state is reset at the start of the solve (memory zeroed).
    With lock_set the caller's classification is frozen (no
    reclassification at all), the validation mode against plain
    no-penetration projections.  A non-finite u raises
    PoissonConvergenceError before the classification or the prox runs.
    """
    _require_finite(u)
    log = log if log is not None else ConvergenceLog()
    log.method = log.method or "pd-separating"
    cg = cg if cg is not None else CgConfig()
    if lock_set and state is None:
        raise ValueError("lock_set requires a pre-classified state")
    if state is None:
        state = BcState.initial(flags, eps=cg.eps_final)
    elif not lock_set:
        state.reset(flags, cg.eps_final)
    params = params if params is not None else PdParams(
        tau=150.0, sigma=1.0 / 150.0, theta=1.0, adaptive=True,
        krylov=True, max_iters=200, eps_abs=1e-3, eps_rel=1e-3)
    projector = DivergenceProjector(flags, free_surface_walls_table(flags), cg)
    state.eps = projector.eps
    if not lock_set:
        classify(u, state)
    prox = SeparatingProx(state)

    def reclassify(z):
        """Classification of each projection output, the threshold synced to
        the current CG accuracy; notes whether the set moved."""
        nonlocal changed
        state.eps = projector.eps
        changed = classify(z, state) > 0 or changed

    # While the classification is still moving, the accumulated duals steer
    # the iteration to a feasible point that can sit far from the
    # minimal-change solution (rest states would keep O(1e-2) spurious
    # velocity, feasible but wrong).  Rerun the pass from the original input
    # with the stabilized set and memory carried over; a pass without any
    # set change is a clean fixed-set solve whose limit is the projection of
    # the input.  The hysteresis guarantees the set stabilizes, normally by
    # the second pass.  The log runs on across passes.
    for _ in range(4):
        changed = False
        z = pd_solve(prox, projector, params, u, log,
                     krylov_error=violation_norm(state),
                     iterate_callback=None if lock_set else reclassify)
        if not changed:
            break
    return z


def solve_separating_accelerated(u: VelocityField, flags: CellFlags,
                                 cg: CgConfig | None = None,
                                 state: BcState | None = None,
                                 log: ConvergenceLog | None = None) -> VelocityField:
    """Mixed-boundary sweep solver.

    Starting from an empty non-separating set and one classification of the
    input, repeat {zero non-separating normals; project with Neumann at
    non-separating and Dirichlet at separating walls; reclassify} until the
    set stops changing.  Every sweep solves at cg.eps_final.  The Neumann
    faces hold the zeroed normals exactly, so after each sweep u.n is 0.0
    on every non-separating face, below any threshold: a face that enters
    the set never leaves (lock-in, so the loop ends quickly), and every
    face outside the set has memory 0, so the memory rule of classify
    frees it on any outward motion.  A non-finite u raises
    PoissonConvergenceError before the classification runs.
    """
    _require_finite(u)
    log = log if log is not None else ConvergenceLog()
    log.method = log.method or "accelerated-separating"
    cg = cg if cg is not None else CgConfig()
    eps_cg = cg.eps_final
    cg = CgConfig(eps_cg, eps_cg, cg.max_cg_iters)
    if state is None:
        state = BcState.initial(flags, eps=eps_cg)
    else:
        state.reset(flags, eps_cg)
    classify(u, state)
    z = u.copy()
    prox = SeparatingProx(state)
    for _ in range(MAX_SWEEPS):
        z_old = z
        z = prox(0.0, z)
        projector = DivergenceProjector(flags, classified_walls_table(flags, state), cg)
        z, cg_iters, _ = projector.project(z)
        flips = classify(z, state)
        log.record((z - z_old).norm(), 0.0, eps_cg, cg_iters)
        if not flips:
            log.converged = True
            break
    return z
