"""Scene builders and time-stepping drivers.

Smoke scenes advance an Eulerian density/velocity pair with buoyancy,
semi-Lagrangian advection and a (possibly guided) pressure stage.  Liquid
scenes carry marker particles with a PIC/FLIP transfer around the pressure
stage, which is selectable between a regular no-penetration projection and
the separating-wall solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (CellFlags, CellType, GridDims, ScalarField, VelocityField,
                     _along, _face_stencils, _flat_faces,
                     advect_semi_lagrangian, cell_to_face_average,
                     face_centers, face_valid_mask, fluid_adjacent_face_mask,
                     upsample)
from .guiding import GuidingConfig, guide_step, split_scalar_field
from .optim import AdmmParams, ConvergenceLog, PdParams, SolverCarry, _fixed_projection
from .pressure import CgConfig
from .separating import (BcState, solve_separating_accelerated,
                         solve_separating_standard)

CFL_LIMIT = 5.0

SCENE_NAMES = ("circular", "star", "plume", "tornado", "dam", "hydrostatic",
               "obstacle-box", "divergent")

BC_MODES = ("regular", "separating-standard", "separating-accelerated")


@dataclass
class SceneSpec:
    """Parameterization of the built-in scenes."""

    name: str
    nx: int = 64
    ny: int = 64
    nz: int = 1
    h: float | None = None          # defaults to 1/nx
    dt: float | None = None
    seed: int = 0
    # guiding controls (split left/right domain halves)
    w_left: float = 1.0
    w_right: float = 1.0
    radius_left: float = 1.0
    radius_right: float = 1.0
    # scene-specific shape parameters
    omega: float = 1.0              # target angular speed
    star_lobes: int = 5
    star_amp: float = 0.5
    updraft: float = 0.1            # tornado vertical component
    fill_fraction: float = 0.3      # dam width fraction
    fill_height: float = 0.8        # dam / hydrostatic column height fraction
    obstacle: tuple | None = None   # fractional (x0, y0, x1, y1) box
    emitter: tuple | None = None    # fractional (x0, y0, x1, y1) box
    gravity: float = 9.81
    buoyancy: float = 4.0
    particles_per_cell: int | None = None

    def __post_init__(self):
        if self.name not in SCENE_NAMES:
            raise ValueError(f"unknown scene {self.name!r}; "
                             f"expected one of {SCENE_NAMES}")
        if self.h is None:
            self.h = 1.0 / max(self.nx, 1)   # nx < 4 is rejected by GridDims
        if self.dt is None:
            self.dt = 0.05 if self.name not in ("dam", "hydrostatic") else 0.01
        if self.particles_per_cell is None:
            self.particles_per_cell = 4 if self.nz == 1 else 8
        if not self.particles_per_cell >= 1:
            raise ValueError(f"particles_per_cell must be >= 1, got {self.particles_per_cell}")
        self.dims   # built once so GridDims checks nx, ny, nz and h
        if not self.dt > 0:
            raise ValueError(f"time step dt must be positive, got {self.dt}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.w_left > 0 and self.w_right > 0):
            raise ValueError("guiding weights w_left, w_right must be positive")
        if not (self.radius_left >= 0 and self.radius_right >= 0):
            raise ValueError("blur radii radius_left, radius_right must be >= 0")
        for box in (b for b in (self.obstacle, self.emitter) if b is not None):
            x0, y0, x1, y1 = np.asarray(box, float) if np.shape(box) == (4,) else [np.nan] * 4
            if not (0 <= x0 <= x1 <= 1 and 0 <= y0 <= y1 <= 1):
                raise ValueError(f"box {box!r} needs four finite fractions "
                                 "0 <= x0 <= x1 <= 1, 0 <= y0 <= y1 <= 1")
            walls = CellFlags.closed_box(self.dims).solid[_fractional_box(self.dims, box)]
            # an emitter on wall cells only, whose density never reaches a
            # FLUID cell, stays valid: bench/test_bench.py's 16^2 scene has one
            if not walls.size or (box is self.obstacle and walls.all()):
                raise ValueError(f"box {box!r} covers no cell inside the closed box's walls")
        if _static_flags(self).solid.all():
            raise ValueError("no open cell: the closed box's walls and the "
                             "obstacle fill the grid")

    @property
    def dims(self) -> GridDims:
        return GridDims(self.nx, self.ny, self.nz, self.h)

    @property
    def is_liquid(self) -> bool:
        return self.name in ("dam", "hydrostatic")


@dataclass
class SceneState:
    """Everything a running scene carries between frames.  `carry` is the
    solver state one frame hands the next: the guided solve's dual, which
    `smoke_step` starts each guided solve from, and the wall set, which
    `liquid_step` starts each separating-wall solve from."""

    spec: SceneSpec
    flags: CellFlags
    vel: VelocityField
    density: ScalarField | None = None
    particles_pos: np.ndarray | None = None   # (N, 3) meters
    particles_vel: np.ndarray | None = None   # (N, 3)
    frame: int = 0
    last_log: ConvergenceLog | None = None
    carry: SolverCarry = field(default_factory=SolverCarry)

    @property
    def dt(self) -> float:
        return self.spec.dt


def _fractional_box(dims: GridDims, box) -> tuple[slice, slice, slice]:
    x0, y0, x1, y1 = box
    return (slice(int(x0 * dims.nx), max(int(x1 * dims.nx), int(x0 * dims.nx) + 1)),
            slice(int(y0 * dims.ny), max(int(y1 * dims.ny), int(y0 * dims.ny) + 1)),
            slice(None))


def _static_flags(spec: SceneSpec) -> CellFlags:
    """The closed box with the obstacle's cells SOLID."""
    flags = CellFlags.closed_box(spec.dims)
    if spec.obstacle is not None:
        flags.values[_fractional_box(flags.dims, spec.obstacle)] = CellType.SOLID
    return flags


def _guiding_config(spec: SceneSpec, flags: CellFlags, u_target: VelocityField,
                    u_current: VelocityField) -> GuidingConfig:
    """The scene's split-domain guiding weights and blur radii around a
    target velocity."""
    d = flags.dims
    weights = split_scalar_field(d, flags, spec.w_left, spec.w_right)
    radius = split_scalar_field(d, flags, spec.radius_left, spec.radius_right,
                                zero_at_solid=True)
    return GuidingConfig(flags=flags, weights=weights, radius=radius,
                         u_target=u_target, u_current=u_current.copy())


def _zero_solid_faces(vel: VelocityField, flags: CellFlags):
    vel.as_flat()[~_flat_faces(flags.dims, lambda a: face_valid_mask(flags, a))] = 0.0


def _target(dims: GridDims, flags: CellFlags, *fns) -> VelocityField:
    """Target velocity whose component a is fns[a](x, y, z) at the face
    centers, measured from the domain center, on the active axes only.  A
    component without a function, and every face next to a solid, is zero."""
    center = [0.5 * n * dims.h for n in dims.shape]
    u_t = VelocityField.zeros(dims)
    for axis, fn in zip(dims.axes, fns):
        X, Y, Z = face_centers(dims, axis)
        u_t.component(axis)[...] = fn(X - center[0], Y - center[1], Z - center[2])
    _zero_solid_faces(u_t, flags)
    return u_t


def _radial_target(dims: GridDims, flags: CellFlags, rate: float) -> VelocityField:
    """Purely divergent outflow from the center (guiding stress test)."""
    return _target(dims, flags, lambda x, y, z: rate * x, lambda x, y, z: rate * y)


def _seed_particles(flags: CellFlags, fluid_mask: np.ndarray, per_cell: int,
                    rng) -> np.ndarray:
    """About per_cell jittered particles on a sub-grid of each fluid cell,
    along the k active axes; an inactive axis holds them at mid-cell."""
    d = flags.dims
    k = len(d.axes)
    cells = np.argwhere(fluid_mask)
    n_side = max(round(per_cell ** (1 / k)), 1)
    offs = (np.arange(n_side) + 0.5) / n_side
    grids = np.meshgrid(*[offs if a < k else 0.5 for a in range(3)], indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    base = cells[:, None, :] + offsets[None, :, :]
    pos = base.reshape(-1, 3) * d.h
    jitter = rng.uniform(-0.2, 0.2, size=pos.shape) * (d.h / n_side)
    jitter[:, k:] = 0.0
    return pos + jitter


def build_scene(spec: SceneSpec):
    """Deterministic initial state, plus a guiding configuration for the
    scenes that define a target velocity."""
    rng = np.random.default_rng(spec.seed)
    flags = _static_flags(spec)
    d = flags.dims   # one GridDims, and its cached tables, for the whole run
    solid = flags.solid
    state = SceneState(spec=spec, flags=flags, vel=VelocityField.zeros(d))
    cfg = None

    if spec.is_liquid:
        fluid = np.zeros(d.shape, dtype=bool)
        if spec.name == "dam":
            ncols = max(int((d.nx - 2) * spec.fill_fraction), 1)
            nrows = max(int((d.ny - 2) * spec.fill_height), 1)
            fluid[1:1 + ncols, 1:1 + nrows, :] = True
        else:  # hydrostatic: full-width resting column
            nrows = max(int((d.ny - 2) * spec.fill_height), 1)
            fluid[1:-1, 1:1 + nrows, :] = True
        fluid &= ~solid
        state.particles_pos = _seed_particles(flags, fluid, spec.particles_per_cell, rng)
        state.particles_vel = np.zeros_like(state.particles_pos)
        state.flags = flags_from_particles(state)
        return state, None

    # smoke scenes
    state.density = ScalarField.zeros(d)
    if spec.emitter is not None:
        state.density.values[_fractional_box(d, spec.emitter)] = 1.0
    else:
        cx, cy = int(0.5 * d.nx), int(0.22 * d.ny)
        r = max(d.nx // 12, 2)
        X, Y, _ = np.indices(d.shape)
        blob = (X - cx) ** 2 + (Y - cy) ** 2 <= r * r
        state.density.values[blob & ~solid] = 1.0

    omega, k, a = spec.omega, spec.star_lobes, spec.star_amp
    if spec.name == "circular":
        u_t = _target(d, flags, lambda x, y, z: -omega * y,
                      lambda x, y, z: omega * x)
    elif spec.name == "star":

        def lobes(x, y):
            return 1.0 + a * np.cos(k * np.arctan2(y, x))

        u_t = _target(d, flags, lambda x, y, z: -omega * y * lobes(x, y),
                      lambda x, y, z: omega * x * lobes(x, y))
    elif spec.name == "tornado":
        # swirl around the vertical (y) axis with a small upward component
        u_t = _target(d, flags, lambda x, y, z: -omega * z,
                      lambda x, y, z: spec.updraft, lambda x, y, z: omega * x)
    elif spec.name == "divergent":
        u_t = _radial_target(d, flags, omega)
    elif spec.name in ("plume", "obstacle-box"):
        u_t = None
    else:  # pragma: no cover
        raise ValueError(spec.name)

    if u_t is not None:
        cfg = _guiding_config(spec, flags, u_t, state.vel)
    return state, cfg


# ---------------------------------------------------------------------------
# smoke stepping

def _cfl_dt(vel: VelocityField, dt: float, h: float) -> float:
    """Clamp the step so no sample moves more than CFL_LIMIT cells."""
    vmax = vel.max_abs()
    if vmax * dt / h > CFL_LIMIT:
        return CFL_LIMIT * h / vmax
    return dt


def add_buoyancy(state: SceneState):
    """f = beta * density * y-hat applied to y-faces next to fluid."""
    beta = state.spec.buoyancy
    dens_face = cell_to_face_average(state.density, 1)
    m = fluid_adjacent_face_mask(state.flags, 1)
    state.vel.v[m] += state.dt * beta * dens_face[m]


def smoke_step(state: SceneState, cfg: GuidingConfig | None = None,
               method: str = "pd", pd_params: PdParams | None = None,
               admm_params: AdmmParams | None = None,
               cg: CgConfig | None = None,
               exact_prox: bool = False) -> SceneState:
    """One smoke frame: buoyancy, advection, then the guided projection (or a
    plain one when no guiding configuration is given).  The guided solve
    starts from the dual the last one left on `state.carry`, when it ran on
    the same dims and sigma, and leaves its own there.  Either projection
    reuses the PoissonSystem on `state.carry` (DivergenceProjector)."""
    spec = state.spec
    if state.density is None:
        raise ValueError("smoke_step needs a smoke scene")
    if spec.emitter is not None:
        state.density.values[_fractional_box(state.flags.dims, spec.emitter)] = 1.0
    add_buoyancy(state)
    _zero_solid_faces(state.vel, state.flags)
    dt = _cfl_dt(state.vel, state.dt, spec.h)
    vel_adv = advect_semi_lagrangian(state.vel, state.vel, dt, state.flags)
    state.density = advect_semi_lagrangian(state.density, state.vel, dt, state.flags)
    np.maximum(state.density.values, 0.0, out=state.density.values)
    u_c = vel_adv
    log = ConvergenceLog()
    if cfg is None:
        state.vel = _fixed_projection(u_c, state.flags, cg, log, "projection", state.carry)
    else:
        state.vel = guide_step(u_c, cfg, method=method, pd_params=pd_params,
                               admm_params=admm_params, cg=cg, log=log,
                               exact_prox=exact_prox, dual=state.carry)
    state.last_log = log
    state.frame += 1
    return state


# ---------------------------------------------------------------------------
# liquid stepping (PIC/FLIP)

FLIP_BLEND = 0.95
EXTRAPOLATION_LAYERS = 2   # cells of velocity spread into the empty region


def _particle_cells(dims: GridDims, pos: np.ndarray) -> np.ndarray:
    """Flat C-order index of the cell holding each particle, clamped to the
    grid; an axis of one cell (z in 2D) adds nothing."""
    cell = 0
    for n, p in zip(dims.shape, pos.T):
        if n > 1:
            cell = cell * n + np.floor(np.clip(p / dims.h, 0.0, n - 1.0)).astype(np.intp)
    return cell


def flags_from_particles(state: SceneState) -> CellFlags:
    # SOLID cells are static: build_scene sets them, smoke flags never
    # change and this rebuild keeps them, rewriting only FLUID and EMPTY
    d = state.flags.dims
    solid = state.flags.solid
    vals = np.full(d.shape, CellType.EMPTY, dtype=np.uint8)
    vals[solid] = CellType.SOLID
    occupied = np.zeros(d.shape, dtype=bool)
    occupied.ravel()[_particle_cells(d, state.particles_pos)] = True
    vals[occupied & ~solid] = CellType.FLUID
    return CellFlags(d, vals)


def particles_to_grid(state: SceneState, stencils: list) -> VelocityField:
    """Multilinear scatter of particle velocities onto the staggered grid:
    each face takes the weighted mean of the particles in its stencil (the
    `_face_stencils` of state.particles_pos)."""
    vel = VelocityField.zeros(state.flags.dims)
    for (axis, arr), st in zip(vel.components(), stencils):
        # terms laid out corner by corner: bincount adds the terms of each
        # face in that order, the order of one scatter per corner
        idx, wts = zip(*st.corners())
        idx, wts = np.concatenate(idx), np.stack(wts)
        pv = state.particles_vel[:, axis]
        acc = np.bincount(idx, (wts * pv).ravel(), arr.size).reshape(arr.shape)
        wsum = np.bincount(idx, wts.ravel(), arr.size).reshape(arr.shape)
        nz = wsum > 0
        arr[nz] = acc[nz] / wsum[nz]
    return vel


def sample_at_particles(vel: VelocityField, stencils: list) -> np.ndarray:
    """Velocity at N particles, as an (N, 3) array, read through their
    `_face_stencils` on vel's grid; 0.0 on an inactive axis."""
    out = np.zeros((stencils[0].base.size, 3))
    for (axis, arr), st in zip(vel.components(), stencils):
        out[:, axis] = st.gather(arr)
    return out


class _Extrapolation:
    """The flag-only part of `extrapolate_velocity` over the flat active
    faces: per layer, the faces that grow, the count of known neighbours
    each averages and, per neighbour slot in summation order, the face each
    reads (-1, a zero kept past the last face, when that neighbour is
    missing or not yet known)."""

    def __init__(self, flags: CellFlags):
        d = flags.dims
        parts, self.n = [], 0
        for axis in d.axes:
            # wall faces are known from the start and never grow
            known = fluid_adjacent_face_mask(flags, axis) | ~face_valid_mask(flags, axis)
            parts.append((known, self.n))
            self.n += known.size
        self.layers = []
        for _ in range(EXTRAPOLATION_LAYERS):
            faces, reads, counts = [], [], []
            for known, start in parts:
                shape, flat = known.shape, known.ravel()
                cnt = np.zeros(shape)
                for a in d.axes:
                    lo, hi = _along(a, slice(1, None)), _along(a, slice(None, -1))
                    cnt[lo] += known[hi]
                    cnt[hi] += known[lo]
                grow = np.flatnonzero(~flat & (cnt.ravel() > 0))
                at = np.unravel_index(grow, shape)
                slots = []
                for a in d.axes:
                    step = math.prod(shape[a + 1:])
                    for has, nb in ((at[a] > 0, grow - step),
                                    (at[a] < shape[a] - 1, grow + step)):
                        nb = np.where(has, nb, 0)
                        slots.append(np.where(has & flat[nb], start + nb, -1))
                faces.append(start + grow)
                reads.append(slots)
                counts.append(cnt.ravel()[grow])
                flat[grow] = True
            self.layers.append((np.concatenate(faces),
                                [np.concatenate(r) for r in zip(*reads)],
                                np.concatenate(counts)))

    def apply(self, vel: VelocityField) -> VelocityField:
        ext = np.zeros(self.n + 1)
        ext[:self.n] = vel.as_flat()
        for faces, reads, cnt in self.layers:
            acc = np.zeros(faces.size)
            for slot in reads:
                acc += ext[slot]
            ext[faces] = acc / cnt
        return VelocityField._of(vel.dims, ext[:self.n])


def extrapolate_velocity(fields, flags: CellFlags) -> list:
    """Each of `fields` with its face values spread into the empty region by
    averaging valid neighbours, EXTRAPOLATION_LAYERS cells deep; wall faces
    are left alone.  One plan of the flags serves every field."""
    plan = _Extrapolation(flags)
    return [plan.apply(vel) for vel in fields]


def _clamp_particles(state: SceneState, pos: np.ndarray,
                     vel: np.ndarray | None = None) -> np.ndarray:
    """Keep particles inside the open interior; revert moves that ended
    inside interior obstacles.  When a particle hits the wall box its
    wall-ward velocity component is cancelled (otherwise the FLIP memory
    keeps pressing it against the wall for many frames)."""
    d = state.flags.dims
    h = d.h
    eps = 1e-4 * h
    lo = [h + eps, h + eps, eps if d.is_2d else h + eps]
    hi = [(d.nx - 1) * h - eps, (d.ny - 1) * h - eps,
          d.nz * h - eps if d.is_2d else (d.nz - 1) * h - eps]
    for a in range(3):
        if vel is not None:
            hit_lo = pos[:, a] < lo[a]
            hit_hi = pos[:, a] > hi[a]
            vel[hit_lo, a] = np.maximum(vel[hit_lo, a], 0.0)
            vel[hit_hi, a] = np.minimum(vel[hit_hi, a], 0.0)
        np.clip(pos[:, a], lo[a], hi[a], out=pos[:, a])
    stuck = state.flags.solid.ravel()[_particle_cells(d, pos)]
    if stuck.any():
        pos[stuck] = state.particles_pos[stuck]
    return pos


def liquid_begin_step(state: SceneState):
    """Particle transfer, flag update and gravity; returns the intermediate
    grid velocity, the pre-force copy used for the FLIP delta and the
    particles' face stencils, which liquid_finish_step reads again."""
    state.flags = flags_from_particles(state)
    stencils = _face_stencils(state.flags.dims, state.particles_pos.T)
    vel = particles_to_grid(state, stencils)
    # transfer taps can spill momentum onto faces with no fluid neighbour
    # (inside walls, into the air); those DOFs carry no meaning and stay zero
    spill = ~_flat_faces(vel.dims, lambda a: fluid_adjacent_face_mask(state.flags, a))
    vel.as_flat()[spill] = 0.0
    vel_old = vel.copy()
    m = fluid_adjacent_face_mask(state.flags, 1)
    vel.v[m] -= state.spec.gravity * state.dt
    return vel, vel_old, stencils


def liquid_pressure_solve(vel: VelocityField, flags: CellFlags, mode: str,
                          cg: CgConfig | None = None,
                          state: BcState | None = None,
                          log: ConvergenceLog | None = None) -> VelocityField:
    """Pressure stage of a liquid step under the selected wall treatment; a
    separating-wall solve starts from the set `state` holds and leaves its own there."""
    if mode not in BC_MODES:
        raise ValueError(f"unknown bc mode {mode!r}; expected one of {BC_MODES}")
    log = log if log is not None else ConvergenceLog()
    if mode == "regular":
        out = vel.copy()
        _zero_solid_faces(out, flags)
        return _fixed_projection(out, flags, cg, log, "regular", None)
    if mode == "separating-standard":
        return solve_separating_standard(vel, flags, state=state, cg=cg, log=log)
    return solve_separating_accelerated(vel, flags, cg=cg, state=state, log=log)


def liquid_finish_step(state: SceneState, vel_new: VelocityField,
                       vel_old: VelocityField, stencils: list):
    """FLIP/PIC particle update, velocity extrapolation and advection.  The
    PIC and FLIP-delta gathers read the stencils of liquid_begin_step, then
    the list is emptied, so the midpoint stencil is built with them freed."""
    d = state.flags.dims
    # extrapolate the pre-force field the same way so the FLIP delta near the
    # surface measures physical acceleration, not the extrapolation pattern
    vel_ext, old_ext = extrapolate_velocity((vel_new, vel_old), state.flags)
    pic = sample_at_particles(vel_ext, stencils)
    delta = sample_at_particles(vel_ext - old_ext, stencils)
    stencils.clear()
    flip = state.particles_vel + delta
    state.particles_vel = FLIP_BLEND * flip + (1.0 - FLIP_BLEND) * pic
    dt = _cfl_dt(vel_ext, state.dt, d.h)
    mid = _clamp_particles(state, state.particles_pos + 0.5 * dt * pic)
    pos = state.particles_pos + dt * sample_at_particles(vel_ext, _face_stencils(d, mid.T))
    state.particles_pos = _clamp_particles(state, pos, state.particles_vel)
    state.vel = vel_new
    state.frame += 1


def liquid_step(state: SceneState, mode: str = "regular",
                cg: CgConfig | None = None,
                bc_state: BcState | None = None) -> SceneState:
    """One liquid frame under the selected boundary treatment.  A wall solve
    starts from the set on `state.carry.walls` and leaves its own there.  A
    passed `bc_state` becomes that set: bench/workloads.py passes one."""
    if state.particles_pos is None:
        raise ValueError("liquid_step needs a particle scene")
    if bc_state is not None or state.carry.walls is None:
        state.carry.walls = bc_state or BcState.initial(state.flags)
    vel, vel_old, stencils = liquid_begin_step(state)
    log = ConvergenceLog()
    vel_new = liquid_pressure_solve(vel, state.flags, mode, cg=cg,
                                    state=state.carry.walls, log=log)
    state.last_log = log
    liquid_finish_step(state, vel_new, vel_old, stencils)
    return state


def ceiling_contact_cells(flags: CellFlags) -> int:
    """FLUID cells in the row right below the top solid ring."""
    return int(flags.fluid[:, -2, :].sum())


def upsampled_target(coarse_vel: VelocityField, factor: int, fine_spec: SceneSpec,
                     state: SceneState) -> GuidingConfig:
    """Guiding configuration whose target is a refined coarse velocity.

    The workflow behind resimulation: run a coarse scene saving velocities,
    then guide a fine run toward the upsampled frames.
    """
    u_t = upsample(coarse_vel, factor)
    if u_t.dims != state.flags.dims:
        raise ValueError(f"upsampled target {u_t.dims} does not match "
                         f"the fine grid {state.flags.dims}")
    _zero_solid_faces(u_t, state.flags)
    return _guiding_config(fine_spec, state.flags, u_t, state.vel)
