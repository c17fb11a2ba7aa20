import numpy as np
import pytest

from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, divergence)
from pdfluids.optim import ConvergenceLog
from pdfluids.pressure import BcTable, CgConfig, FaceTag, project
from pdfluids.separating import (BcState, BoundaryFaces, SeparatingProx,
                                 classified_walls_table, classify,
                                 solve_separating_accelerated,
                                 solve_separating_standard)

from conftest import random_velocity, zero_solid_adjacent


def tank(n=12, fill=1.0):
    """Closed box, bottom `fill` fraction FLUID, the rest EMPTY."""
    d = GridDims(n, n, 1, 1.0 / n)
    flags = CellFlags.closed_box(d)
    level = 1 + int((n - 2) * fill)
    flags.values[1:-1, level:-1, 0] = CellType.EMPTY
    return d, flags


class TestBoundaryFaces:
    def test_exactly_fluid_solid_faces(self):
        d, flags = tank(8, fill=0.5)
        faces = BoundaryFaces(flags)
        # bottom row: 6 y-faces; sides: 3 wetted rows и 2 walls -> 6 x-faces
        level = 1 + 3
        expect = 6 + 2 * 3
        assert len(faces) == expect
        for n in range(len(faces)):
            f = faces[n]
            idx = np.array(f.index)
            cell_hi = tuple(idx)
            lo = idx.copy()
            lo[f.axis] -= 1
            a = flags.values[tuple(lo)]
            b = flags.values[cell_hi]
            assert {int(a), int(b)} == {int(CellType.FLUID), int(CellType.SOLID)}

    def test_normal_points_out_of_solid(self):
        d, flags = tank(8)
        faces = BoundaryFaces(flags)
        vel = VelocityField.zeros(d)
        vel.v[...] = -1.0  # falling fluid
        un = faces.normal_velocity(vel)
        bottom = (faces.axis == 1) & (faces.j == 1)
        top = (faces.axis == 1) & (faces.j == d.ny - 1)
        assert np.allclose(un[bottom], -1.0)   # into the floor
        assert np.allclose(un[top], 1.0)       # away from the ceiling

    def test_no_faces_for_floating_blob(self):
        d = GridDims(12, 12)
        flags = CellFlags.closed_box(d)
        flags.values[1:-1, 1:-1, 0] = CellType.EMPTY
        flags.values[5:8, 5:8, 0] = CellType.FLUID
        assert len(BoundaryFaces(flags)) == 0


class TestClassify:
    def setup_state(self, n=8):
        d, flags = tank(n)
        return d, flags, BcState.initial(flags, eps=1e-5)

    def face_where(self, state, axis, pred):
        idx = [n for n in range(len(state.faces))
               if state.faces.axis[n] == axis and pred(state.faces[n])]
        assert idx
        return idx[0]

    def test_wallward_motion_marks_nonseparating(self):
        d, flags, state = self.setup_state()
        vel = VelocityField.zeros(d)
        vel.v[...] = -0.5
        classify(vel, state)
        bottom = (state.faces.axis == 1) & (state.faces.j == 1)
        assert state.nsep[bottom].all()
        assert np.allclose(state.memory[bottom], -0.5)
        classify(vel, state)
        assert np.allclose(state.memory[bottom], -1.0)  # accumulates

    def test_outward_motion_frees_face_when_beating_memory(self):
        d, flags, state = self.setup_state()
        n = self.face_where(state, 1, lambda f: f.index[1] == 1)
        state.nsep[n] = True
        state.memory[n] = -0.1
        vel = VelocityField.zeros(d)
        vel.v[state.faces.i[n], 1, 0] = 0.3 * state.faces.sign[n]
        classify(vel, state)
        assert not state.nsep[n]
        assert state.memory[n] == 0.0

    def test_outward_motion_below_memory_stays(self):
        d, flags, state = self.setup_state()
        n = self.face_where(state, 1, lambda f: f.index[1] == 1)
        state.nsep[n] = True
        state.memory[n] = -0.5
        vel = VelocityField.zeros(d)
        vel.v[state.faces.i[n], 1, 0] = 0.3 * state.faces.sign[n]
        classify(vel, state)
        assert state.nsep[n]

    def test_hysteresis_below_threshold(self, rng):
        d, flags, state = self.setup_state()
        state.nsep[:] = rng.random(len(state.faces)) > 0.5
        before = state.nsep.copy()
        mem_before = state.memory.copy()
        vel = VelocityField.zeros(d)
        for _, arr in vel.components():
            arr[...] = rng.uniform(-1e-6, 1e-6, arr.shape)
        classify(vel, state)
        assert np.array_equal(state.nsep, before)
        assert np.array_equal(state.memory, mem_before)

    def test_accelerated_mode_ignores_memory(self):
        d, flags, state = self.setup_state()
        n = self.face_where(state, 1, lambda f: f.index[1] == 1)
        state.nsep[n] = True
        state.memory[n] = -100.0
        vel = VelocityField.zeros(d)
        vel.v[state.faces.i[n], 1, 0] = 0.3 * state.faces.sign[n]
        classify(vel, state, use_memory=False)
        assert not state.nsep[n]

    def test_memory_running_sum_property(self, rng):
        d, flags, state = self.setup_state()
        n = self.face_where(state, 1, lambda f: f.index[1] == 1)
        values = -rng.random(6)  # wall-ward sequence
        vel = VelocityField.zeros(d)
        total = 0.0
        for val in values:
            vel.v[state.faces.i[n], 1, 0] = val * state.faces.sign[n]
            classify(vel, state)
            total += val
        assert state.memory[n] == pytest.approx(total)


class TestProxBc:
    def test_zeroes_marked_normals_only(self, rng):
        d, flags = tank(8)
        state = BcState.initial(flags)
        state.nsep[0] = True
        f = state.faces[0]
        vel = random_velocity(d, rng)
        out = SeparatingProx(state)(0.0, vel)
        assert out.component(f.axis)[f.index] == 0.0
        # everything else bit-identical
        changed = 0
        for a, arr in out.components():
            changed += int(np.sum(arr != vel.component(a)))
        assert changed == (1 if vel.component(f.axis)[f.index] != 0 else 0)

    def test_empty_set_is_identity(self, rng):
        d, flags = tank(8)
        state = BcState.initial(flags)
        vel = random_velocity(d, rng)
        assert (SeparatingProx(state)(0.0, vel) - vel).norm() == 0.0

    def test_idempotent_bitwise(self, rng):
        d, flags = tank(8)
        state = BcState.initial(flags)
        state.nsep[:] = True
        vel = random_velocity(d, rng)
        once = SeparatingProx(state)(0.0, vel)
        twice = SeparatingProx(state)(0.0, once)
        for a, arr in twice.components():
            assert np.array_equal(arr, once.component(a))

    def test_orthogonal_projection_property(self, rng):
        d, flags = tank(8)
        state = BcState.initial(flags)
        state.nsep[:] = rng.random(len(state.faces)) > 0.4
        vel = random_velocity(d, rng)
        out = SeparatingProx(state)(0.0, vel)
        assert out.dot(vel - out) == 0.0
        assert SeparatingProx(state).is_orthogonal_projection


def hydrostatic_intermediate(n=12, g=9.81, dt=0.01, fill=0.75):
    """Velocity after one gravity increment in a resting tank."""
    d, flags = tank(n, fill=fill)
    from pdfluids.fields import fluid_adjacent_face_mask
    vel = VelocityField.zeros(d)
    vel.v[fluid_adjacent_face_mask(flags, 1)] = -g * dt
    return d, flags, vel


def rest_params(eps=1e-5, max_iters=2000):
    """Unit step sizes and tight stopping: the configuration that drives the
    solve to the minimal-change solution (the adaptive schedule is the fast
    flavor for dynamic scenes and stalls at ~3e-3 on rest states)."""
    from pdfluids.optim import PdParams
    return PdParams(tau=1.0, sigma=1.0, theta=1.0, max_iters=max_iters,
                    eps_abs=eps, eps_rel=eps, krylov=False)


class TestStandardSolver:
    def test_hydrostatic_rest_and_all_wetted_nonseparating(self):
        d, flags, vel = hydrostatic_intermediate()
        state = BcState.initial(flags)
        log = ConvergenceLog()
        out = solve_separating_standard(vel, flags, params=rest_params(),
                                        state=state, log=log)
        assert log.converged
        assert out.max_abs() <= 1e-3
        # every wetted wall face ends non-separating
        assert state.nsep.all()

    def test_hydrostatic_default_params_classify_and_no_jets(self):
        # the paper-flavored fast defaults: same classification outcome and
        # velocities at the visual-noise level, if not rest-state tight
        d, flags, vel = hydrostatic_intermediate()
        state = BcState.initial(flags)
        log = ConvergenceLog()
        out = solve_separating_standard(vel, flags, state=state, log=log)
        assert log.converged
        assert state.nsep.all()
        assert out.max_abs() <= 0.1 * vel.max_abs()

    def test_fluid_moving_off_wall_keeps_velocity(self):
        # zero gravity, all fluid moving away from the left wall
        d = GridDims(10, 10, 1, 0.1)
        flags = CellFlags.closed_box(d)
        flags.values[1:-1, 1:-1, 0] = CellType.EMPTY
        flags.values[1:4, 4:7, 0] = CellType.FLUID
        vel = VelocityField.zeros(d)
        vel.u[1:5, 4:7, 0] = 1.0  # off the left wall
        state = BcState.initial(flags)
        log = ConvergenceLog()
        out = solve_separating_standard(vel, flags, state=state, log=log)
        faces = state.faces
        left = (faces.axis == 0) & (faces.i == 1)
        assert not state.nsep[left].any()
        assert np.all(out.u[1, 4:7, 0] > 0.5)

    def test_all_locked_matches_regular_projection(self, rng):
        # dam-like state with every boundary face forced non-separating is a
        # plain no-penetration solve; compare to the Neumann CG projection
        d, flags, vel = hydrostatic_intermediate(12)
        vel.u[...] += 0.3  # push sideways so the solve is non-trivial
        zero_solid_adjacent(vel, flags)

        state = BcState.initial(flags)
        state.nsep[:] = True
        params = rest_params(eps=1e-6, max_iters=3000)
        log = ConvergenceLog()
        out = solve_separating_standard(vel, flags, params=params, state=state,
                                        log=log, lock_set=True)
        assert log.converged
        bc = BcTable.from_flags(flags)  # Neumann walls, Dirichlet surface
        ref = project(vel, flags, bc, 1e-10)
        rel = (out - ref).norm() / max(ref.norm(), 1.0)
        assert rel < 1e-3

    def test_complementarity_at_convergence(self):
        d, flags, vel = hydrostatic_intermediate(10)
        state = BcState.initial(flags)
        log = ConvergenceLog()
        out = solve_separating_standard(vel, flags, state=state, log=log)
        tol = log.epsilons[-1]
        un = state.faces.normal_velocity(out)
        assert (un >= -tol).all()          # no penetration
        assert np.abs(un[state.nsep]).max() <= tol


class TestAcceleratedSolver:
    def test_all_separating_single_sweep(self):
        # everything moving off the walls: classification stable immediately
        d, flags = tank(10, fill=1.0)
        faces = BoundaryFaces(flags)
        vel = VelocityField.zeros(d)
        for n in range(len(faces)):
            f = faces[n]
            vel.component(f.axis)[f.index] = 0.5 * f.sign
        state = BcState.initial(flags)
        log = ConvergenceLog()
        solve_separating_accelerated(vel, flags, state=state, log=log)
        assert log.converged
        assert len(log) == 1
        assert not state.nsep.any()

    def test_hydrostatic_locks_quickly_and_rests(self):
        d, flags, vel = hydrostatic_intermediate(12)
        state = BcState.initial(flags)
        log = ConvergenceLog()
        out = solve_separating_accelerated(vel, flags, state=state, log=log)
        assert log.converged
        assert len(log) <= 3
        assert state.nsep.all()
        assert out.max_abs() <= 1e-3

    def test_lock_in_monotone(self):
        d, flags, vel = hydrostatic_intermediate(12)
        sets = []
        state = BcState.initial(flags)

        # reproduce the sweep loop with instrumentation
        from pdfluids.pressure import PoissonSystem, subtract_gradient
        from pdfluids.fields import divergence, ScalarField
        classify(vel, state, use_memory=False)
        z = vel.copy()
        for _ in range(6):
            z = SeparatingProx(state)(0.0, z)
            bc = classified_walls_table(flags, state)
            system = PoissonSystem(flags, bc)
            b = system.prepare_rhs(-divergence(z, flags).values)
            p, _ = system.cg(b, 1e-5, 10000, inf_tol=1e-4)
            z = subtract_gradient(z, ScalarField(d, p), flags, bc)
            before = state.nsep.copy()
            classify(z, state, use_memory=False)
            assert (before <= state.nsep).all()  # faces never leave
            if np.array_equal(before, state.nsep):
                break

    def test_divergence_bound(self):
        d, flags, vel = hydrostatic_intermediate(12)
        out = solve_separating_accelerated(vel, flags, eps_cg=1e-5)
        assert np.abs(divergence(out, flags).values).max() <= 1e-4

    def test_agrees_with_standard_solver(self):
        d, flags, vel = hydrostatic_intermediate(12)
        out_acc = solve_separating_accelerated(vel, flags)
        out_std = solve_separating_standard(vel, flags)
        scale = max(vel.norm(), 1.0)
        assert (out_acc - out_std).norm() / scale < 5e-2
