import copy
import dataclasses
import functools
import math

import numpy as np
import pytest

from pdfluids.fields import CellType, GridDims, VelocityField, cell_centers, divergence
from pdfluids.guiding import default_guiding_params, guide_step
from pdfluids.optim import SolverCarry
from pdfluids.pressure import CgConfig, PoissonConvergenceError
from pdfluids.scenes import (SCENE_NAMES, SceneSpec, SceneState, build_scene,
                             ceiling_contact_cells, _seed_particles,
                             flags_from_particles, liquid_begin_step,
                             liquid_finish_step, liquid_step, particles_to_grid,
                             sample_at_particles, smoke_step)
from pdfluids.separating import solve_separating_standard

from conftest import random_velocity, sample_velocity


def angular_momentum(state: SceneState) -> float:
    """z component of sum(r x u) over fluid cells, about the domain center."""
    d = state.flags.dims
    uc = 0.5 * (state.vel.u[:-1, :, :] + state.vel.u[1:, :, :])
    vc = 0.5 * (state.vel.v[:, :-1, :] + state.vel.v[:, 1:, :])
    X, Y, _ = cell_centers(d)
    rx = X - 0.5 * d.nx * d.h
    ry = Y - 0.5 * d.ny * d.h
    lz = rx * vc - ry * uc
    return float(lz[state.flags.fluid].sum())


class TestBuildScene:
    def test_circular_center_is_rotation_fixed_point(self):
        spec = SceneSpec("circular", nx=32, ny=32)
        state, cfg = build_scene(spec)
        d = spec.dims
        # velocity sampled at the domain center vanishes
        c = sample_velocity(cfg.u_target, [0.5 * d.nx * d.h, 0.5 * d.ny * d.h])
        assert abs(c[0]) < 1e-12 and abs(c[1]) < 1e-12
        # and the field actually rotates counterclockwise off-center
        s = sample_velocity(cfg.u_target, [0.75 * d.nx * d.h, 0.5 * d.ny * d.h])
        assert s[1] > 0.1

    def test_dam_particle_count(self):
        spec = SceneSpec("dam", nx=34, ny=24, fill_fraction=0.3, fill_height=0.5)
        state, cfg = build_scene(spec)
        assert cfg is None
        ncols = int(32 * 0.3)
        nrows = int(22 * 0.5)
        assert state.particles_pos.shape == (ncols * nrows * 4, 3)
        # particles only in FLUID-taggable cells
        flags = flags_from_particles(state)
        assert flags.fluid.sum() == ncols * nrows

    def test_hydrostatic_starts_at_rest(self):
        state, _ = build_scene(SceneSpec("hydrostatic", nx=16, ny=16))
        assert state.vel.norm() == 0.0
        assert np.all(state.particles_vel == 0.0)

    def test_unknown_scene_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec("warp-core-breach")

    @pytest.mark.parametrize("keys", [{"nz": 2}, {"obstacle": (0, 0, 1, 1)}],
                             ids=["nz-2", "obstacle-fills"])
    def test_no_open_cell_rejected(self, keys):
        with pytest.raises(ValueError, match="no open cell"):
            SceneSpec("circular", nx=12, ny=12, **keys)
        # one open layer or one open column is enough
        SceneSpec("circular", nx=12, ny=12, nz=3)
        SceneSpec("circular", nx=12, ny=12, obstacle=(0, 0, 0.9, 1))

    # a box outside [0, 1] used to wrap around the grid or select one cell
    @pytest.mark.parametrize("box", ["obstacle", "emitter"])
    @pytest.mark.parametrize("bad", [
        (0, 0, math.inf, 1), (0, 0, math.nan, 1), (-0.5, -0.5, -0.25, -0.25),
        (0.6, 0.6, 0.4, 0.4), (0.2, 0.2, 1.5, 0.4), (0.2, 0.2, 0.4, 1.01)],
        ids=["inf", "nan", "negative", "reversed", "x1-above-1", "y1-above-1"])
    def test_non_finite_box_rejected(self, box, bad):
        with pytest.raises(ValueError, match="four finite fractions"):
            SceneSpec("circular", nx=12, ny=12, **{box: bad})
        SceneSpec("circular", nx=12, ny=12, **{box: (0, 0.5, 1, 0.5)})   # the edges are in

    # on 16^2 these select no cell, or wall cells only; an emitter on wall
    # cells only is still accepted
    @pytest.mark.parametrize("box", ["obstacle", "emitter"])
    @pytest.mark.parametrize("bad", [(1, 0.4, 1, 0.6), (0.99, 0.4, 1, 0.6), (0, 0, 0.05, 1)],
                             ids=["empty", "right-wall", "left-wall"])
    def test_box_in_the_wall_ring_rejected(self, box, bad):
        if box == "emitter" and bad[0] < 1:
            SceneSpec("plume", nx=16, ny=16, **{box: bad})
        else:
            with pytest.raises(ValueError, match="inside the closed box's walls"):
                SceneSpec("plume", nx=16, ny=16, **{box: bad})
        SceneSpec("plume", nx=16, ny=16, **{box: (0, 0, 0.13, 1)})   # one open column

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SceneSpec("dam", nx=16, ny=16, seed=-1)
        build_scene(SceneSpec("dam", nx=16, ny=16, seed=0))

    @pytest.mark.parametrize("per_cell", [-4, 0])
    def test_particles_per_cell_below_1_rejected(self, per_cell):
        with pytest.raises(ValueError, match="particles_per_cell"):
            SceneSpec("dam", nx=16, ny=16, particles_per_cell=per_cell)
        assert len(build_scene(SceneSpec("dam", nx=16, ny=16,
                                         particles_per_cell=1))[0].particles_pos)

    def test_determinism(self):
        a, _ = build_scene(SceneSpec("dam", nx=24, ny=20, seed=3))
        b, _ = build_scene(SceneSpec("dam", nx=24, ny=20, seed=3))
        assert np.array_equal(a.particles_pos, b.particles_pos)

    def test_obstacle_box_carves_solid(self):
        spec = SceneSpec("obstacle-box", nx=24, ny=24,
                         obstacle=(0.4, 0.4, 0.6, 0.6))
        state, cfg = build_scene(spec)
        assert state.flags.solid[12, 12, 0]
        assert cfg is None


class TestSmoke:
    def test_no_sources_zero_density_stays_zero(self):
        spec = SceneSpec("circular", nx=16, ny=16)
        state, _ = build_scene(spec)
        state.density.values[...] = 0.0
        for _ in range(3):
            smoke_step(state)  # no guiding: plain projection
        assert state.density.norm() == 0.0
        assert np.abs(divergence(state.vel, state.flags).values).max() <= 1e-4

    def test_guided_circular_run_gains_angular_momentum(self):
        spec = SceneSpec("circular", nx=64, ny=64, omega=1.0)
        state, cfg = build_scene(spec)
        assert angular_momentum(state) == 0.0
        history = []
        for _ in range(100):
            cfg = cfg.with_current(state.vel)
            smoke_step(state, cfg)
            history.append(angular_momentum(state))
        assert history[-1] > 0.0  # counterclockwise, matching the target
        assert history[-1] > history[0]
        assert np.mean(history[50:]) > np.mean(history[:10])

    def test_split_weights_leave_more_target_deviation_on_heavy_side(self):
        # weight 16 left / 1 right: time-averaged distance to the target is
        # larger where guiding is weak (large weights anchor to the current
        # field instead)
        from pdfluids.fields import _face_views, face_centers
        from pdfluids.guiding import GuidingQuadratic
        spec = SceneSpec("circular", nx=64, ny=64, omega=1.0,
                         w_left=16.0, w_right=1.0)
        state, cfg = build_scene(spec)
        quad = GuidingQuadratic(cfg)
        valid = _face_views(spec.dims, quad.valid)
        left_dev, right_dev = [], []
        for _ in range(20):
            cfg = cfg.with_current(state.vel)
            smoke_step(state, cfg)
            dev = state.vel - cfg.u_target
            l, r = [], []
            for a, arr in dev.components():
                X = face_centers(spec.dims, a)[0]
                m = valid[a]
                half = 0.5 * spec.nx * spec.h
                l.append(np.abs(arr[m & (X < half)]))
                r.append(np.abs(arr[m & (X >= half)]))
            left_dev.append(np.concatenate(l).mean())
            right_dev.append(np.concatenate(r).mean())
        assert np.mean(left_dev[5:]) > np.mean(right_dev[5:])

    def test_density_l1_nearly_conserved_by_advection(self):
        # closed box, advection only: semi-Lagrangian dissipation stays small
        from pdfluids.fields import advect_semi_lagrangian
        spec = SceneSpec("circular", nx=64, ny=64)
        state, cfg = build_scene(spec)
        # a fixed rotating transport field
        vel = cfg.u_target
        dens = state.density
        l1_0 = dens.values.sum()
        for _ in range(100):
            dens = advect_semi_lagrangian(dens, vel, 0.02, state.flags)
        l1 = dens.values.sum()
        assert abs(l1 - l1_0) / l1_0 < 0.05

    def test_determinism_bitwise(self):
        spec = SceneSpec("circular", nx=24, ny=24)
        runs = []
        for _ in range(2):
            state, cfg = build_scene(spec)
            for _ in range(3):
                cfg = cfg.with_current(state.vel)
                smoke_step(state, cfg)
            runs.append(state)
        assert np.array_equal(runs[0].vel.u, runs[1].vel.u)
        assert np.array_equal(runs[0].vel.v, runs[1].vel.v)
        assert np.array_equal(runs[0].density.values, runs[1].density.values)


def _carry_scene(n=32, frames=0):
    """The bench's guided scene (w 4/1, blur radius 2) at n^2 after a few
    frames, and its guiding config."""
    spec = SceneSpec("circular", nx=n, ny=n, w_left=4.0, w_right=1.0, radius_left=2.0,
                     radius_right=2.0, emitter=(0.45, 0.08, 0.55, 0.13), seed=1)
    state, cfg = build_scene(spec)
    for _ in range(frames):
        smoke_step(state, cfg.with_current(state.vel))
    return state, cfg


def _max_div(state):
    return float(np.abs(divergence(state.vel, state.flags).values[state.flags.fluid]).max())


class TestDualCarry:
    """smoke_step starts each guided solve from the dual x the last one left
    on state.carry, when it ran on the same dims and sigma."""

    def test_carry_saves_pd_rows(self):
        rows = {}
        for reset in (False, True):
            state, cfg = _carry_scene()
            rows[reset] = []
            for _ in range(20):
                if reset:
                    state.carry = SolverCarry()
                smoke_step(state, cfg.with_current(state.vel))
                assert state.last_log.converged
                assert _max_div(state) <= 10.0 * CgConfig().eps_final
                rows[reset].append(len(state.last_log))
        assert rows[False][0] == rows[True][0]   # nothing carried into frame 1
        assert sum(rows[False]) < sum(rows[True])

    def test_carry_holds_the_last_solves_dual_and_sigma(self):
        state, cfg = _carry_scene()
        assert state.carry.x is None
        smoke_step(state, cfg.with_current(state.vel))
        x = state.carry.x
        assert state.carry.dims == state.vel.dims
        assert x.shape == state.vel.as_flat().shape and np.abs(x).max() > 0.0
        assert state.carry.sigma == default_guiding_params(cfg.w_bar)[0].sigma
        smoke_step(state, cfg.with_current(state.vel))
        assert state.carry.x is not x

    @staticmethod
    def same_frame(a, b):
        assert a.vel.as_flat().tobytes() == b.vel.as_flat().tobytes()
        assert a.last_log.residuals == b.last_log.residuals
        assert a.last_log.cg_iters == b.last_log.cg_iters

    def test_dropped_when_sigma_changes(self):
        # pd -> admm mid-run: the admm solve starts from zero, as with no carry
        state, cfg = _carry_scene(frames=2)
        twin = _carry_scene(frames=2)[0]
        twin.carry = SolverCarry()
        admm = default_guiding_params(cfg.w_bar)[1]
        assert admm.rho != state.carry.sigma
        for s in (state, twin):
            smoke_step(s, cfg.with_current(s.vel), method="admm")
        self.same_frame(state, twin)
        assert state.carry.sigma == admm.rho
        # and back: the pd solve meets admm's sigma and starts from zero too
        twin.carry = SolverCarry()
        for s in (state, twin):
            smoke_step(s, cfg.with_current(s.vel))
        self.same_frame(state, twin)

    def test_dropped_when_dims_change(self):
        big, _ = _carry_scene(frames=2)
        small, cfg = _carry_scene(n=24, frames=2)
        twin = _carry_scene(n=24, frames=2)[0]
        small.carry, twin.carry = big.carry, SolverCarry()
        assert big.carry.sigma == default_guiding_params(cfg.w_bar)[0].sigma
        for s in (small, twin):
            smoke_step(s, cfg.with_current(s.vel))
        self.same_frame(small, twin)
        assert small.carry.dims == small.vel.dims

    def test_a_frame_that_raises_leaves_the_carry(self):
        state, cfg = _carry_scene(frames=2)
        x, sigma = state.carry.x, state.carry.sigma
        held = x.tobytes()
        bad = state.vel.copy()
        bad.u[5, 5, 0] = np.nan
        with pytest.raises(PoissonConvergenceError):
            guide_step(bad, cfg, dual=state.carry)
        # a non-finite target: the first projection inside the loop raises
        target = cfg.u_target.copy()
        target.v[7, 7, 0] = np.nan
        with pytest.raises(PoissonConvergenceError):
            smoke_step(state, dataclasses.replace(cfg, u_target=target, u_current=state.vel))
        assert state.carry.x is x and state.carry.sigma == sigma
        assert x.tobytes() == held


@pytest.mark.parametrize("mode", ["regular", "separating-standard",
                                  "separating-accelerated"])
def test_liquid_frames_reuse_one_grid(mode, monkeypatch):
    # the scene's one GridDims serves every frame, so its cached face
    # tables are built on the first frame only
    builds = []
    for name in ("_face_cells", "_face_blocks"):
        build = GridDims.__dict__[name].func
        table = functools.cached_property(
            lambda dims, build=build, name=name: builds.append(name) or build(dims))
        table.__set_name__(GridDims, name)
        monkeypatch.setattr(GridDims, name, table)
    state, _ = build_scene(SceneSpec("dam", nx=24, ny=18, seed=1))
    for frame in range(3):
        before = len(builds)
        liquid_step(state, mode=mode)
        assert state.vel.dims is state.flags.dims
        if frame:
            assert len(builds) == before
    assert builds.count("_face_cells") == 1


def test_a_deep_copy_steps_as_the_original_does():
    # the copy's u, v and w view its one buffer, which as_flat and every
    # solver read, so buoyancy written through .v reaches the solve
    state, cfg = _carry_scene(frames=2)
    twin = copy.deepcopy(state)
    assert np.shares_memory(twin.vel.u, twin.vel.as_flat())
    assert np.shares_memory(twin.vel.v, twin.vel.as_flat())
    assert not np.shares_memory(twin.vel.as_flat(), state.vel.as_flat())
    for s in (state, twin):
        smoke_step(s, cfg.with_current(s.vel))
    assert twin.vel.as_flat().tobytes() == state.vel.as_flat().tobytes()
    assert twin.density.values.tobytes() == state.density.values.tobytes()
    assert twin.carry.x.tobytes() == state.carry.x.tobytes()


class TestLiquid:
    def test_particle_count_constant(self):
        spec = SceneSpec("dam", nx=24, ny=20, seed=1)
        state, _ = build_scene(spec)
        n0 = state.particles_pos.shape[0]
        for _ in range(5):
            liquid_step(state, mode="regular")
        assert state.particles_pos.shape[0] == n0
        assert np.isfinite(state.particles_pos).all()

    def test_hydrostatic_rest_preserved_accelerated(self):
        spec = SceneSpec("hydrostatic", nx=16, ny=16, fill_height=0.6)
        state, _ = build_scene(spec)
        start = state.particles_pos.copy()
        for _ in range(10):
            liquid_step(state, mode="separating-accelerated")
            assert state.vel.max_abs() <= 1e-3
        drift = np.abs(state.particles_pos - start).max()
        assert drift <= 0.1 * spec.h

    def test_hydrostatic_drift_bounded_standard(self):
        # the standard solver leaves tolerance-level velocities; what matters
        # physically is that particles do not drift
        from pdfluids.optim import PdParams
        spec = SceneSpec("hydrostatic", nx=16, ny=16, fill_height=0.6)
        state, _ = build_scene(spec)
        start = state.particles_pos.copy()
        params = PdParams(tau=1.0, sigma=1.0, theta=1.0, max_iters=2000,
                          eps_abs=1e-5, eps_rel=1e-5)
        for _ in range(10):
            vel, vel_old = liquid_begin_step(state)
            vel_new = solve_separating_standard(vel, state.flags, params=params)
            liquid_finish_step(state, vel_new, vel_old)
        drift = np.abs(state.particles_pos - start).max()
        assert drift <= 0.1 * spec.h

    def test_zero_gravity_blob_identical_across_modes(self):
        # a drifting blob away from all walls: no boundary faces exist, so
        # all three wall treatments reduce to the same projection
        from dataclasses import replace
        results = []
        for mode in ("regular", "separating-standard", "separating-accelerated"):
            spec = SceneSpec("dam", nx=24, ny=24, fill_fraction=0.99,
                             fill_height=0.99, gravity=0.0, seed=2)
            state, _ = build_scene(spec)
            # carve the block down to a floating blob with uniform motion
            keep = np.logical_and.reduce([
                state.particles_pos[:, 0] > 8 * spec.h,
                state.particles_pos[:, 0] < 14 * spec.h,
                state.particles_pos[:, 1] > 10 * spec.h,
                state.particles_pos[:, 1] < 16 * spec.h])
            state.particles_pos = state.particles_pos[keep]
            state.particles_vel = np.zeros_like(state.particles_pos)
            state.particles_vel[:, 0] = 0.2
            state.flags = flags_from_particles(state)
            for _ in range(4):
                liquid_step(state, mode=mode)
            results.append(state.particles_pos.copy())
        scale = max(np.abs(results[0]).max(), 1e-12)
        assert np.abs(results[1] - results[0]).max() <= 1e-6 * scale
        assert np.abs(results[2] - results[0]).max() <= 1e-6 * scale

    def test_ceiling_contact_metric(self):
        spec = SceneSpec("dam", nx=16, ny=12)
        state, _ = build_scene(spec)
        assert ceiling_contact_cells(state.flags) == 0
        state.flags.values[4, -2, 0] = CellType.FLUID
        assert ceiling_contact_cells(state.flags) == 1


# ---------------------------------------------------------------------------
# particle transfers against the per-transfer copies the shared stencil replaced

def _ref_particles_to_grid(state):
    """The np.add.at scatter as written before the shared stencil."""
    d = state.spec.dims
    vel = VelocityField.zeros(d)
    for axis, arr in vel.components():
        gs = [np.clip(state.particles_pos[:, a] / d.h - (0.0 if a == axis else 0.5),
                      0.0, arr.shape[a] - 1.0) for a in range(3)]
        i0 = [np.floor(g).astype(np.intp) for g in gs]
        fr = [g - i for g, i in zip(gs, i0)]
        i1 = [np.minimum(i + 1, arr.shape[a] - 1) for a, i in enumerate(i0)]
        acc = np.zeros(arr.shape)
        wsum = np.zeros(arr.shape)
        pv = state.particles_vel[:, axis]
        taps_z = ((i0[2], 1 - fr[2]), (i1[2], fr[2])) if not d.is_2d else \
            ((np.zeros_like(i0[0]), 1.0),)
        for ax_, wx in ((i0[0], 1 - fr[0]), (i1[0], fr[0])):
            for ay_, wy in ((i0[1], 1 - fr[1]), (i1[1], fr[1])):
                for az_, wz in taps_z:
                    w = wx * wy * wz
                    np.add.at(acc, (ax_, ay_, az_), w * pv)
                    np.add.at(wsum, (ax_, ay_, az_), w)
        nz = wsum > 0
        arr[nz] = acc[nz] / wsum[nz]
    return vel


def _ref_flags_from_particles(state):
    """Cell of each particle by floor, then clip, as written before."""
    d = state.spec.dims
    vals = np.full(d.shape, CellType.EMPTY, dtype=np.uint8)
    vals[state.flags.solid] = CellType.SOLID
    idx = np.floor(state.particles_pos / d.h).astype(np.intp)
    for a in range(3):
        np.clip(idx[:, a], 0, d.shape[a] - 1, out=idx[:, a])
    occupied = np.zeros(d.shape, dtype=bool)
    occupied[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    vals[occupied & ~state.flags.solid] = CellType.FLUID
    return vals


def _transfer_state(nz, rng):
    """A seeded dam with an obstacle, plus 50 particles piled into one cell,
    particles exactly on the domain walls and particles outside it."""
    spec = SceneSpec("dam", nx=13, ny=9, nz=nz, seed=1, obstacle=(0.5, 0.3, 0.7, 0.6))
    state, _ = build_scene(spec)
    d = spec.dims
    ext = np.array(d.shape) * d.h
    pile = (np.array([10.0, 6.0, nz // 2]) + rng.uniform(0.2, 0.8, (50, 3))) * d.h
    walls = rng.uniform(0.0, 1.0, (60, 3)) * ext
    for row, axis in enumerate(rng.integers(0, 3, len(walls))):
        walls[row, axis] = ext[axis] * rng.integers(0, 2)
    outside = rng.uniform(-0.5, 1.5, (40, 3)) * ext
    state.particles_pos = np.concatenate([state.particles_pos, pile, walls, outside])
    state.particles_vel = rng.standard_normal(state.particles_pos.shape)
    return state


def _ref_sample_at_particles(vel, pos):
    """The G2P loop as written before the one point sampler."""
    from pdfluids.fields import _interp_component
    out = np.zeros_like(pos)
    for axis, arr in vel.components():
        out[:, axis] = _interp_component(arr, axis, vel.dims,
                                         pos[:, 0], pos[:, 1], pos[:, 2])
    return out


def _ref_clamp_particles(state, pos, vel=None):
    """_clamp_particles as written before the flat cell index: the cell of
    each particle as a tuple of three index arrays."""
    d = state.spec.dims
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
    cells = tuple(np.clip(np.floor(pos[:, a] / h).astype(np.intp), 0, d.shape[a] - 1)
                  for a in range(3))
    stuck = state.flags.solid[cells]
    if stuck.any():
        pos[stuck] = state.particles_pos[stuck]
    return pos


def _ref_liquid_finish_step(state, vel_new, vel_old):
    """liquid_finish_step as written before the shared particle stencil:
    three G2P calls, each building its own stencil."""
    from pdfluids.scenes import FLIP_BLEND, _cfl_dt, extrapolate_velocity
    d = state.spec.dims
    vel_ext = extrapolate_velocity(vel_new, state.flags)
    old_ext = extrapolate_velocity(vel_old, state.flags)
    pic = _ref_sample_at_particles(vel_ext, state.particles_pos)
    delta = _ref_sample_at_particles(vel_ext - old_ext, state.particles_pos)
    flip = state.particles_vel + delta
    state.particles_vel = FLIP_BLEND * flip + (1.0 - FLIP_BLEND) * pic
    dt = _cfl_dt(vel_ext, state.dt, d.h)
    mid = _ref_clamp_particles(state, state.particles_pos + 0.5 * dt * pic)
    pos = state.particles_pos + dt * _ref_sample_at_particles(vel_ext, mid)
    state.particles_pos = _ref_clamp_particles(state, pos, state.particles_vel)
    state.vel = vel_new
    state.frame += 1


def _ref_seed_particles(flags, fluid_mask, per_cell, rng):
    """Particle seeding as written before, one branch for 2D, one for 3D."""
    import math
    d = flags.dims
    cells = np.argwhere(fluid_mask)
    n_side = max(int(round(math.sqrt(per_cell))), 1) if d.is_2d else \
        max(int(round(per_cell ** (1.0 / 3.0))), 1)
    offs = (np.arange(n_side) + 0.5) / n_side
    if d.is_2d:
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel(),
                            np.full(ox.size, 0.5)], axis=1)
    else:
        ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)
    base = cells[:, None, :] + offsets[None, :, :]
    pos = base.reshape(-1, 3) * d.h
    jitter = rng.uniform(-0.2, 0.2, size=pos.shape) * (d.h / n_side)
    if d.is_2d:
        jitter[:, 2] = 0.0
    return pos + jitter


class TestTransferBitwise:
    @pytest.mark.parametrize("nz", [1, 7], ids=["2d", "3d"])
    def test_p2g_matches_add_at_reference(self, nz, rng):
        state = _transfer_state(nz, rng)
        got = particles_to_grid(state)
        want = _ref_particles_to_grid(state)
        for a in range(3):
            assert got.component(a).tobytes() == want.component(a).tobytes()

    @pytest.mark.parametrize("nz", [1, 7], ids=["2d", "3d"])
    def test_g2p_matches_loop_reference(self, nz, rng):
        state = _transfer_state(nz, rng)
        vel = particles_to_grid(state)
        for pos in (state.particles_pos, state.particles_pos[:0]):
            got = sample_at_particles(vel, pos)
            assert got.shape == pos.shape and got.flags.c_contiguous
            assert got.tobytes() == _ref_sample_at_particles(vel, pos).tobytes()

    @pytest.mark.parametrize("per_cell", [1, 2, 4, 8, 9, 27])
    @pytest.mark.parametrize("nz", [1, 5], ids=["2d", "3d"])
    def test_seeding_matches_reference(self, nz, per_cell):
        spec = SceneSpec("dam", nx=9, ny=7, nz=nz, obstacle=(0.3, 0.3, 0.6, 0.6))
        state, _ = build_scene(spec)
        fluid = ~state.flags.solid
        fluid[0] = False
        got = _seed_particles(state.flags, fluid, per_cell, np.random.default_rng(per_cell))
        want = _ref_seed_particles(state.flags, fluid, per_cell,
                                   np.random.default_rng(per_cell))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nz", [1, 7], ids=["2d", "3d"])
    def test_particle_cells_match_reference(self, nz, rng):
        state = _transfer_state(nz, rng)
        assert flags_from_particles(state).values.tobytes() == \
            _ref_flags_from_particles(state).tobytes()

    @pytest.mark.parametrize("nz", [1, 7], ids=["2d", "3d"])
    def test_finish_step_matches_reference(self, nz, rng):
        import copy
        from pdfluids.scenes import liquid_pressure_solve
        state = _transfer_state(nz, rng)
        vel, vel_old = liquid_begin_step(state)
        vel_new = liquid_pressure_solve(vel, state.flags, "regular")
        ref = copy.deepcopy(state)
        liquid_finish_step(state, vel_new, vel_old)
        _ref_liquid_finish_step(ref, vel_new.copy(), vel_old.copy())
        assert state.particles_pos.tobytes() == ref.particles_pos.tobytes()
        assert state.particles_vel.tobytes() == ref.particles_vel.tobytes()
        for a in range(3):
            assert state.vel.component(a).tobytes() == ref.vel.component(a).tobytes()


class TestParticleStencil:
    @pytest.mark.parametrize("nz", [1, 5], ids=["2d", "3d"])
    def test_one_stencil_at_particles_and_one_at_midpoints(self, nz, monkeypatch):
        import pdfluids.scenes as scenes
        state, _ = build_scene(SceneSpec("dam", nx=16, ny=12, nz=nz, seed=1))
        liquid_step(state)   # the cache now holds this frame's midpoint stencil
        built, sampled = [], []
        build, sample = scenes._face_stencils, scenes.sample_at_particles

        def counting_build(dims, points):
            built.append(np.asarray(points).T.tobytes())
            return build(dims, points)

        def recording_sample(vel, pos):
            sampled.append(pos.tobytes())
            return sample(vel, pos)

        monkeypatch.setattr(scenes, "_face_stencils", counting_build)
        monkeypatch.setattr(scenes, "sample_at_particles", recording_sample)
        start = state.particles_pos.tobytes()
        liquid_step(state)
        # P2G builds the stencil at the particles, PIC and FLIP-delta read it
        # again, and the midpoint sample builds the one other
        assert len(built) == 2 and built[0] == start and built[1] != start
        assert sampled == [start, start, built[1]]

    @pytest.mark.parametrize("nz", [1, 5], ids=["2d", "3d"])
    def test_no_particles(self, nz):
        state, _ = build_scene(SceneSpec("dam", nx=16, ny=12, nz=nz))
        state.particles_pos = state.particles_vel = np.zeros((0, 3))
        assert particles_to_grid(state).max_abs() == 0.0
        assert sample_at_particles(state.vel, state.particles_pos).shape == (0, 3)

    def test_positions_changed_in_place_rebuild_the_stencil(self, rng):
        state = _transfer_state(1, rng)
        vel = particles_to_grid(state)
        pos = state.particles_pos
        sample_at_particles(vel, pos)
        pos[:5, 0] += 0.37 * state.spec.h
        assert sample_at_particles(vel, pos).tobytes() == \
            _ref_sample_at_particles(vel, pos).tobytes()


def _ref_extrapolate_velocity(vel, flags):
    """extrapolate_velocity as written before its masks were built once:
    every call rebuilds the known set and each layer's counts."""
    from pdfluids.fields import _along, face_valid_mask, fluid_adjacent_face_mask
    from pdfluids.scenes import EXTRAPOLATION_LAYERS
    out = vel.copy()
    for axis, arr in out.components():
        known = fluid_adjacent_face_mask(flags, axis)
        frozen = ~face_valid_mask(flags, axis)
        known = known | frozen
        for _ in range(EXTRAPOLATION_LAYERS):
            acc = np.zeros(arr.shape)
            cnt = np.zeros(arr.shape)
            for a in vel.dims.axes:
                for dst, src in ((slice(1, None), slice(None, -1)),
                                 (slice(None, -1), slice(1, None))):
                    dst, src = _along(a, dst), _along(a, src)
                    acc[dst] += np.where(known[src], arr[src], 0.0)
                    cnt[dst] += known[src]
            grow = (~known) & (cnt > 0) & ~frozen
            arr[grow] = acc[grow] / cnt[grow]
            known = known | grow
    return out


class TestExtrapolation:
    @pytest.mark.parametrize("nz", [1, 7], ids=["2d", "3d"])
    def test_matches_reference(self, nz, rng):
        from pdfluids.scenes import extrapolate_velocity
        state = _transfer_state(nz, rng)
        flags = flags_from_particles(state)
        for _ in range(2):   # the second field reuses the first one's plan
            vel = random_velocity(flags.dims, rng)
            for _, arr in vel.components():
                arr[rng.random(arr.shape) < 0.3] = -0.0
            got = extrapolate_velocity(vel, flags)
            want = _ref_extrapolate_velocity(vel, flags)
            assert got.as_flat().tobytes() == want.as_flat().tobytes()

    def test_one_plan_per_liquid_frame(self, monkeypatch):
        import pdfluids.scenes as scenes
        state, _ = build_scene(SceneSpec("dam", nx=16, ny=12, seed=1))
        built = []
        plan = scenes._Extrapolation

        def counting_plan(flags):
            built.append(flags.values.tobytes())
            return plan(flags)

        monkeypatch.setattr(scenes, "_Extrapolation", counting_plan)
        monkeypatch.setattr(scenes, "_extrapolation", None)
        seen = []
        for _ in range(6):
            liquid_step(state)
            seen.append(state.flags.values.tobytes())
        # the new and the old field share one plan, and a frame whose flags
        # match the last frame's builds none
        changed = [f for k, f in enumerate(seen) if k == 0 or f != seen[k - 1]]
        assert built == changed

    def test_flags_changed_in_place_rebuild_the_plan(self, rng):
        from pdfluids.scenes import extrapolate_velocity
        state = _transfer_state(1, rng)
        flags = flags_from_particles(state)
        vel = random_velocity(flags.dims, rng)
        extrapolate_velocity(vel, flags)
        flags.values[3:6, 2:4, 0] = CellType.EMPTY
        assert extrapolate_velocity(vel, flags).as_flat().tobytes() == \
            _ref_extrapolate_velocity(vel, flags).as_flat().tobytes()


# ---------------------------------------------------------------------------
# guiding targets against the earlier per-scene builders

def _ref_centered(dims, axis):
    from pdfluids.fields import face_centers
    X, Y, Z = face_centers(dims, axis)
    return (X - 0.5 * dims.nx * dims.h, Y - 0.5 * dims.ny * dims.h,
            Z - 0.5 * dims.nz * dims.h)


def _ref_target(spec, flags):
    """Target of a guided scene as the separate circular, radial and tornado
    builders wrote it, on the active axes (a 2D field holds no z block)."""
    from conftest import zero_solid_adjacent
    d, om = spec.dims, spec.omega
    u_t = VelocityField.zeros(d)
    x0, y0, z0 = _ref_centered(d, 0)
    x1, y1, z1 = _ref_centered(d, 1)
    if spec.name in ("circular", "star"):
        u_t.u[...] = -om * y0
        u_t.v[...] = om * x1
        if spec.name == "star":
            k, a = spec.star_lobes, spec.star_amp
            u_t.u *= 1.0 + a * np.cos(k * np.arctan2(y0, x0))
            u_t.v *= 1.0 + a * np.cos(k * np.arctan2(y1, x1))
    elif spec.name == "divergent":
        u_t.u[...] = om * x0
        u_t.v[...] = om * y1
    else:  # tornado
        u_t.u[...] = -om * z0
        u_t.v[...] = spec.updraft
        if not d.is_2d:
            u_t.w[...] = om * _ref_centered(d, 2)[0]
    return zero_solid_adjacent(u_t, flags)


TARGET_SPECS = {
    "circular-2d": dict(name="circular", nx=20, ny=16),
    "star-2d": dict(name="star", nx=20, ny=16, omega=1.3),
    "divergent-2d": dict(name="divergent", nx=16, ny=20),
    "tornado-2d": dict(name="tornado", nx=16, ny=16),
    "star-obstacle-2d": dict(name="star", nx=24, ny=20,
                             obstacle=(0.2, 0.6, 0.5, 0.8)),
    "circular-3d": dict(name="circular", nx=10, ny=8, nz=6),
    "star-3d": dict(name="star", nx=10, ny=8, nz=6),
    "divergent-3d": dict(name="divergent", nx=8, ny=10, nz=6),
    "tornado-3d": dict(name="tornado", nx=10, ny=8, nz=6, updraft=0.3),
    "tornado-obstacle-3d": dict(name="tornado", nx=12, ny=10, nz=8,
                                obstacle=(0.3, 0.3, 0.6, 0.5)),
}


@pytest.mark.parametrize("case", sorted(TARGET_SPECS))
def test_target_active_components_match_reference(case):
    spec = SceneSpec(**TARGET_SPECS[case])
    _, cfg = build_scene(spec)
    want = _ref_target(spec, cfg.flags)
    for a, arr in cfg.u_target.components():
        assert arr.tobytes() == want.component(a).tobytes()
    if spec.dims.is_2d:
        assert not cfg.u_target.w.any()


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_2d_scene_keeps_inactive_z_block_zero(name):
    """The w array of a 2D scene holds no degree of freedom: no step may
    write into it, whatever the scene's target."""
    state, cfg = build_scene(SceneSpec(name, nx=16, ny=16))
    for _ in range(2):
        if state.spec.is_liquid:
            liquid_step(state, mode="regular")
        else:
            smoke_step(state, cfg if cfg is None else cfg.with_current(state.vel))
        assert not state.vel.w.any()
