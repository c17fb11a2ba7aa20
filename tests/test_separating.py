from types import SimpleNamespace

import numpy as np
import pytest

from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _face_views, _flat_faces, divergence)
from pdfluids.fileio import write_convergence_csv
from pdfluids.optim import ConvergenceLog
from pdfluids.pressure import BcTable, CgConfig, FaceTag, project
from pdfluids.scenes import SceneSpec, build_scene, liquid_pressure_solve, liquid_step
from pdfluids.separating import (BcState, BoundaryFaces, SeparatingProx,
                                 classified_walls_table, classify,
                                 solve_separating_accelerated,
                                 solve_separating_standard)

from conftest import random_velocity, zero_solid_adjacent


def _csv_iters(log, tmp_path):
    """The iter column of the log's convergence CSV."""
    write_convergence_csv(log, tmp_path / "log.csv")
    rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
    return [int(row.split(",")[0]) for row in rows]


def tank(n=12, fill=1.0):
    """Closed box, bottom `fill` fraction FLUID, the rest EMPTY."""
    d = GridDims(n, n, 1, 1.0 / n)
    flags = CellFlags.closed_box(d)
    level = 1 + int((n - 2) * fill)
    flags.values[1:-1, level:-1, 0] = CellType.EMPTY
    return d, flags


def face_coords(faces, dims):
    """(axis, i, j, k) of each face of a BoundaryFaces, decoded from its
    flat index."""
    axis = _flat_faces(dims, lambda a: np.full(dims.face_shape(a), a))
    i, j, k = (_flat_faces(dims, lambda a: np.indices(dims.face_shape(a))[c])
               for c in range(3))
    n = faces.index
    return SimpleNamespace(axis=axis[n], i=i[n], j=j[n], k=k[n])


class TestBoundaryFaces:
    def test_exactly_fluid_solid_faces(self):
        d, flags = tank(8, fill=0.5)
        faces = BoundaryFaces(flags)
        # bottom row: 6 y-faces; sides: 3 wetted rows и 2 walls -> 6 x-faces
        level = 1 + 3
        expect = 6 + 2 * 3
        assert len(faces) == expect
        c = face_coords(faces, d)
        for n in range(len(faces)):
            idx = np.array((c.i[n], c.j[n], c.k[n]))
            cell_hi = tuple(idx)
            lo = idx.copy()
            lo[c.axis[n]] -= 1
            a = flags.values[tuple(lo)]
            b = flags.values[cell_hi]
            assert {int(a), int(b)} == {int(CellType.FLUID), int(CellType.SOLID)}

    def test_normal_points_out_of_solid(self):
        d, flags = tank(8)
        faces = BoundaryFaces(flags)
        vel = VelocityField.zeros(d)
        vel.v[...] = -1.0  # falling fluid
        un = faces.normal_velocity(vel)
        c = face_coords(faces, d)
        bottom = (c.axis == 1) & (c.j == 1)
        top = (c.axis == 1) & (c.j == d.ny - 1)
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

    def face_where(self, d, state, axis, pred):
        c = face_coords(state.faces, d)
        idx = np.flatnonzero((c.axis == axis) & pred(c))
        assert idx.size
        return idx[0]

    def test_wallward_motion_marks_nonseparating(self):
        d, flags, state = self.setup_state()
        vel = VelocityField.zeros(d)
        vel.v[...] = -0.5
        flips = classify(vel, state)
        c = face_coords(state.faces, d)
        bottom = (c.axis == 1) & (c.j == 1)
        assert state.nsep[bottom].all()
        assert flips == np.count_nonzero(bottom) == np.count_nonzero(state.nsep)
        assert np.allclose(state.memory[bottom], -0.5)
        assert classify(vel, state) == 0   # already non-separating
        assert np.allclose(state.memory[bottom], -1.0)  # accumulates

    def test_outward_motion_frees_face_when_beating_memory(self):
        d, flags, state = self.setup_state()
        n = self.face_where(d, state, 1, lambda f: f.j == 1)
        state.nsep[n] = True
        state.memory[n] = -0.1
        vel = VelocityField.zeros(d)
        vel.as_flat()[state.faces.index[n]] = 0.3 * state.faces.sign[n]
        assert classify(vel, state) == 1
        assert not state.nsep[n]
        assert state.memory[n] == 0.0

    def test_outward_motion_below_memory_stays(self):
        d, flags, state = self.setup_state()
        n = self.face_where(d, state, 1, lambda f: f.j == 1)
        state.nsep[n] = True
        state.memory[n] = -0.5
        vel = VelocityField.zeros(d)
        vel.as_flat()[state.faces.index[n]] = 0.3 * state.faces.sign[n]
        assert classify(vel, state) == 0
        assert state.nsep[n]

    def test_hysteresis_below_threshold(self, rng):
        d, flags, state = self.setup_state()
        state.nsep[:] = rng.random(len(state.faces)) > 0.5
        before = state.nsep.copy()
        mem_before = state.memory.copy()
        vel = VelocityField.zeros(d)
        for _, arr in vel.components():
            arr[...] = rng.uniform(-1e-6, 1e-6, arr.shape)
        assert classify(vel, state) == 0
        assert np.array_equal(state.nsep, before)
        assert np.array_equal(state.memory, mem_before)

    def test_memory_running_sum_property(self, rng):
        d, flags, state = self.setup_state()
        n = self.face_where(d, state, 1, lambda f: f.j == 1)
        values = -rng.random(6)  # wall-ward sequence
        vel = VelocityField.zeros(d)
        total = 0.0
        for val in values:
            vel.as_flat()[state.faces.index[n]] = val * state.faces.sign[n]
            classify(vel, state)
            total += val
        assert state.memory[n] == pytest.approx(total)

    def test_flips_count_the_faces_that_changed_set(self, rng):
        d, flags, state = self.setup_state()
        state.nsep[:] = rng.random(len(state.faces)) > 0.5
        state.memory[:] = np.where(state.nsep, -rng.random(len(state.faces)), 0.0)
        for _ in range(4):
            vel = random_velocity(d, rng)
            before = state.nsep.copy()
            flips = classify(vel, state)
            assert flips == np.count_nonzero(before != state.nsep)


class TestProxBc:
    def test_zeroes_marked_normals_only(self, rng):
        d, flags = tank(8)
        state = BcState.initial(flags)
        state.nsep[0] = True
        c = face_coords(state.faces, d)
        axis, index = c.axis[0], (c.i[0], c.j[0], c.k[0])
        vel = random_velocity(d, rng)
        out = SeparatingProx(state)(0.0, vel)
        assert out.component(axis)[index] == 0.0
        # everything else bit-identical
        changed = 0
        for a, arr in out.components():
            changed += int(np.sum(arr != vel.component(a)))
        assert changed == (1 if vel.component(axis)[index] != 0 else 0)

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
        c = face_coords(state.faces, d)
        left = (c.axis == 0) & (c.i == 1)
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

    def test_every_projection_output_is_classified(self, monkeypatch):
        # the set moves in the first pass; each later projection output is
        # classified all the same, one call per logged iteration after the
        # classification of the input
        import pdfluids.separating as separating
        calls = []

        def counting(u, state):
            calls.append(u)
            return classify(u, state)

        monkeypatch.setattr(separating, "classify", counting)
        d, flags, vel = hydrostatic_intermediate(10)
        log = ConvergenceLog()
        solve_separating_standard(vel, flags, state=BcState.initial(flags), log=log)
        assert len(log) > 1
        assert len(calls) == 1 + len(log)

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
        vel.as_flat()[faces.index] = 0.5 * faces.sign
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
        classify(vel, state)
        z = vel.copy()
        for _ in range(6):
            z = SeparatingProx(state)(0.0, z)
            bc = classified_walls_table(flags, state)
            system = PoissonSystem(flags, bc)
            b = system.prepare_rhs(-divergence(z, flags).values)
            p, _ = system.cg(b, 1e-5, 10000, inf_tol=1e-4)
            z = subtract_gradient(z, ScalarField(d, p), flags, bc)
            before = state.nsep.copy()
            classify(z, state)
            assert (before <= state.nsep).all()  # faces never leave
            if np.array_equal(before, state.nsep):
                break

    @pytest.mark.parametrize("spec, frames", [
        (SceneSpec("dam", nx=32, ny=22, seed=1), 20),
        (SceneSpec("hydrostatic", nx=10, ny=10, nz=8, seed=1), 15)],
        ids=["dam-2d", "tank-3d"])
    def test_non_separating_normals_are_zero_after_every_sweep(self, monkeypatch,
                                                                spec, frames):
        # what lets the sweep classify with the memory rule: u.n is exactly
        # 0.0 on the set after each sweep, so no set face can leave and the
        # faces outside it keep memory 0
        import pdfluids.separating as separating
        set_sizes = []

        def checking(u, state):
            assert (state.faces.normal_velocity(u)[state.nsep] == 0.0).all()
            set_sizes.append(np.count_nonzero(state.nsep))
            return classify(u, state)

        monkeypatch.setattr(separating, "classify", checking)
        state, _ = build_scene(spec)
        for _ in range(frames):
            liquid_step(state, mode="separating-accelerated")
        assert max(set_sizes) > 0

    def test_log_numbers_on_from_earlier_rows(self, tmp_path):
        d, flags, vel = hydrostatic_intermediate(12)
        log = ConvergenceLog()
        log.record(1.0, 1.0, 1e-5, 3)
        log.record(0.5, 1.0, 1e-5, 2)
        solve_separating_accelerated(vel, flags, log=log)
        assert len(log) > 2
        assert _csv_iters(log, tmp_path) == list(range(1, len(log) + 1))

    def test_reused_log_numbers_rows_by_position(self, tmp_path):
        """A fixed projection after a sweep loop on one log is the next
        row, not a second iteration 1."""
        d, flags, vel = hydrostatic_intermediate(12)
        log = ConvergenceLog()
        liquid_pressure_solve(vel, flags, "separating-accelerated", log=log)
        n = len(log)
        liquid_pressure_solve(vel, flags, "regular", log=log)
        assert len(log) == n + 1
        assert _csv_iters(log, tmp_path) == list(range(1, n + 2))

    def test_divergence_bound(self):
        d, flags, vel = hydrostatic_intermediate(12)
        out = solve_separating_accelerated(vel, flags, cg=CgConfig(eps_final=1e-5))
        assert np.abs(divergence(out, flags).values).max() <= 1e-4

    @pytest.mark.parametrize("key, value", [("eps_final", np.inf),
                                            ("max_cg_iters", 0)])
    def test_rechecks_its_cg_settings(self, key, value):
        # the sweeps run on a fixed-accuracy config built from cg, so
        # settings changed after construction are checked again
        d, flags, vel = hydrostatic_intermediate(12)
        cg = CgConfig()
        setattr(cg, key, value)
        with pytest.raises(ValueError):
            solve_separating_accelerated(vel, flags, cg=cg)

    def test_agrees_with_standard_solver(self):
        d, flags, vel = hydrostatic_intermediate(12)
        out_acc = solve_separating_accelerated(vel, flags)
        out_std = solve_separating_standard(vel, flags)
        scale = max(vel.norm(), 1.0)
        assert (out_acc - out_std).norm() / scale < 5e-2


# ---------------------------------------------------------------------------
# the block index against the earlier per-face builder and per-axis masks

def reference_faces(flags):
    """Face arrays as two nonzero passes per axis and a lexsort built them."""
    v = flags.values
    axes, ii, jj, kk, sign = [], [], [], [], []
    for axis in flags.dims.axes:
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        a, b = v[tuple(lo)], v[tuple(hi)]
        plus = (a == CellType.SOLID) & (b == CellType.FLUID)
        minus = (a == CellType.FLUID) & (b == CellType.SOLID)
        for mask, s in ((plus, 1.0), (minus, -1.0)):
            ci, cj, ck = np.nonzero(mask)
            axes.append(np.full(ci.size, axis))
            ii.append(ci + (1 if axis == 0 else 0))
            jj.append(cj + (1 if axis == 1 else 0))
            kk.append(ck + (1 if axis == 2 else 0))
            sign.append(np.full(ci.size, s))
    ref = {"axis": np.concatenate(axes), "i": np.concatenate(ii),
           "j": np.concatenate(jj), "k": np.concatenate(kk),
           "sign": np.concatenate(sign)}
    order = np.lexsort((ref["k"], ref["j"], ref["i"], ref["axis"]))
    return {name: arr[order] for name, arr in ref.items()}


def reference_normal_velocity(ref, vel):
    out = np.empty(ref["axis"].size)
    for axis in range(3):
        m = ref["axis"] == axis
        if m.any():
            out[m] = vel.component(axis)[ref["i"][m], ref["j"][m], ref["k"][m]] \
                * ref["sign"][m]
    return out


def reference_zero_normal(ref, vel, mask):
    for axis in range(3):
        m = (ref["axis"] == axis) & mask
        if m.any():
            vel.component(axis)[ref["i"][m], ref["j"][m], ref["k"][m]] = 0.0


def reference_walls_table(flags, ref, nsep):
    bc = BcTable.from_flags(flags, solid_faces=FaceTag.DIRICHLET)
    for axis, tags in enumerate(_face_views(flags.dims, bc.tags)):
        m = (ref["axis"] == axis) & nsep
        if m.any():
            tags[ref["i"][m], ref["j"][m], ref["k"][m]] = np.uint8(FaceTag.NEUMANN)
    return bc


def random_flags(shape, seed):
    """Closed box with a random FLUID/EMPTY/SOLID interior: faces of both
    signs on every active axis."""
    d = GridDims(*shape, 1.0 / shape[0])
    flags = CellFlags.closed_box(d)
    rng = np.random.default_rng(seed)
    inner = flags.values[1:-1, 1:-1, 1:-1] if not d.is_2d else flags.values[1:-1, 1:-1]
    inner[...] = rng.choice([CellType.FLUID, CellType.EMPTY, CellType.SOLID],
                            size=inner.shape, p=[0.5, 0.3, 0.2])
    return flags


def obstacle_tank_3d():
    d = GridDims(9, 8, 7, 0.125)
    flags = CellFlags.closed_box(d)
    flags.values[1:-1, 4:-1, 1:-1] = CellType.EMPTY
    flags.values[3:5, 1:3, 2:4] = CellType.SOLID
    return flags


def floating_blob():
    d = GridDims(12, 12)
    flags = CellFlags.closed_box(d)
    flags.values[1:-1, 1:-1, 0] = CellType.EMPTY
    flags.values[5:8, 5:8, 0] = CellType.FLUID
    return flags


FLAG_CASES = {
    "tank-2d": lambda: tank(12, fill=0.5)[1],
    "random-2d": lambda: random_flags((14, 11, 1), 3),
    "obstacle-3d": obstacle_tank_3d,
    "random-3d": lambda: random_flags((8, 7, 6), 5),
    "empty": floating_blob,
}


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
class TestBlockIndexMatchesReference:
    def test_face_arrays_byte_equal(self, case):
        flags = FLAG_CASES[case]()
        faces, ref = BoundaryFaces(flags), reference_faces(flags)
        assert len(faces) == ref["axis"].size
        assert (len(faces) == 0) == (case == "empty")
        assert (np.diff(faces.index) > 0).all()
        coords = face_coords(faces, flags.dims)
        for name, arr in ref.items():
            got = faces.sign if name == "sign" else getattr(coords, name)
            assert got.dtype == arr.dtype
            assert got.tobytes() == arr.tobytes()
        if case.startswith("random"):
            assert {(int(a), float(s)) for a, s in zip(ref["axis"], ref["sign"])} \
                == {(a, s) for a in flags.dims.axes for s in (1.0, -1.0)}

    def test_velocities_and_tags_byte_equal(self, case):
        flags = FLAG_CASES[case]()
        faces, ref = BoundaryFaces(flags), reference_faces(flags)
        rng = np.random.default_rng(len(case))
        for trial in range(3):
            vel = random_velocity(flags.dims, rng)
            got = faces.normal_velocity(vel)
            assert got.tobytes() == reference_normal_velocity(ref, vel).tobytes()
            nsep = rng.random(len(faces)) < (0.5, 0.0, 1.0)[trial]
            a, b = vel.copy(), vel.copy()
            faces.zero_normal(a, nsep)
            reference_zero_normal(ref, b, nsep)
            for axis in range(3):
                assert a.component(axis).tobytes() == b.component(axis).tobytes()
            state = BcState(faces, nsep, np.zeros(len(faces)))
            tags = classified_walls_table(flags, state).tags
            expect = reference_walls_table(flags, ref, nsep).tags
            assert tags.tobytes() == expect.tobytes()
