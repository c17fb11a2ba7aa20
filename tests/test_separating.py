import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdfluids import scenes
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _face_views, _flat_faces, divergence)
from pdfluids.fileio import write_convergence_csv
from pdfluids.optim import ConvergenceLog
from pdfluids.pressure import (BcTable, CgConfig, DivergenceProjector, FaceTag,
                               PoissonConvergenceError, PoissonSystem, project)
from pdfluids.scenes import SceneSpec, build_scene, liquid_pressure_solve, liquid_step
from pdfluids.separating import (BcState, BoundaryFaces, WallProx,
                                 classified_walls_table,
                                 solve_separating_accelerated,
                                 solve_separating_standard)

from conftest import random_velocity, wall_set, zero_solid_adjacent


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


def held(state, flags):
    """The bits of a solver's set on the wall faces of flags; the set holds
    no other face."""
    faces = BoundaryFaces(flags)
    assert np.count_nonzero(state.nsep) == np.count_nonzero(state.nsep[faces.index])
    return state.nsep[faces.index]


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


class TestWallProx:
    """prox(sigma, v) = argmin 1/2 ||z - a||^2 + sigma/2 ||z - v||^2 over the
    wall set: u.n >= 0 on every wall face, or u.n = 0 on a locked set."""

    def instance(self, rng, shape=(10, 9, 1)):
        flags = random_flags(shape, int(rng.integers(1000)))
        faces = BoundaryFaces(flags)
        a = random_velocity(flags.dims, rng)
        v = random_velocity(flags.dims, rng)
        sigma = float(rng.uniform(0.1, 5.0))
        mean = (a.as_flat() + sigma * v.as_flat()) * (1.0 / (1.0 + sigma))
        return flags, faces, a, v, sigma, mean

    @pytest.mark.parametrize("shape", [(10, 9, 1), (7, 6, 5)], ids=["2d", "3d"])
    def test_optimality_conditions(self, rng, shape):
        # KKT: the gradient (1 + sigma) z - (a + sigma v) is lam * n on the
        # wall faces with lam >= 0, u.n >= 0 and lam * u.n = 0, and 0 elsewhere
        for _ in range(5):
            flags, faces, a, v, sigma, mean = self.instance(rng, shape)
            assert len(faces) > 0
            z = WallProx(a, faces)(sigma, v)
            grad = (1.0 + sigma) * (z.as_flat() - mean)
            off = np.ones(grad.size, bool)
            off[faces.index] = False
            assert np.abs(grad[off]).max() <= 1e-12
            lam = grad[faces.index] * faces.sign
            un = faces.normal_velocity(z)
            assert un.min() >= 0.0 and lam.min() >= -1e-12
            assert np.abs(lam * un).max() <= 1e-12
            assert np.count_nonzero(un == 0.0) > 0 and np.count_nonzero(un > 0.0) > 0

    def test_touches_wall_faces_only(self, rng):
        flags, faces, a, v, sigma, mean = self.instance(rng)
        z = WallProx(a, faces)(sigma, v).as_flat()
        moved = np.flatnonzero(z != mean)
        assert moved.size > 0 and np.isin(moved, faces.index).all()
        # a wall face moves exactly when its mean points into the wall
        into = faces.index[mean[faces.index] * faces.sign < 0.0]
        assert np.array_equal(moved, into)

    def test_locked_set_holds_its_normals_and_frees_the_rest(self, rng):
        flags, faces, a, v, sigma, mean = self.instance(rng)
        locked = rng.random(len(faces)) < 0.5
        z = WallProx(a, faces, locked)(sigma, v)
        flat = z.as_flat()
        assert (flat[faces.index[locked]] == 0.0).all()
        keep = np.ones(flat.size, bool)
        keep[faces.index[locked]] = False
        assert flat[keep].tobytes() == mean[keep].tobytes()
        assert faces.normal_velocity(z)[~locked].min() < 0.0   # left unclamped


def hydrostatic_intermediate(n=12, g=9.81, dt=0.01, fill=0.75):
    """Velocity after one gravity increment in a resting tank."""
    d, flags = tank(n, fill=fill)
    from pdfluids.fields import fluid_adjacent_face_mask
    vel = VelocityField.zeros(d)
    vel.v[fluid_adjacent_face_mask(flags, 1)] = -g * dt
    return d, flags, vel


def rest_params(eps=1e-5, max_iters=2000):
    """Unit step sizes and tight stopping."""
    from pdfluids.optim import PdParams
    return PdParams(tau=1.0, sigma=1.0, theta=1.0, max_iters=max_iters,
                    eps_abs=eps, eps_rel=eps)


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
        assert held(state, flags).all()

    def test_hydrostatic_default_params_classify_and_no_jets(self):
        # the defaults: every wetted wall face held and velocities at the
        # visual-noise level, if not rest-state tight
        d, flags, vel = hydrostatic_intermediate()
        state = BcState.initial(flags)
        log = ConvergenceLog()
        out = solve_separating_standard(vel, flags, state=state, log=log)
        assert log.converged
        assert held(state, flags).all()
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
        c = face_coords(BoundaryFaces(flags), d)
        left = (c.axis == 0) & (c.i == 1)
        assert not held(state, flags)[left].any()
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
        un = BoundaryFaces(flags).normal_velocity(out)
        assert (un >= -tol).all()          # no penetration
        assert np.abs(un[held(state, flags)]).max() <= tol


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
        assert held(state, flags).all()
        assert out.max_abs() <= 1e-3

    def test_carried_faces_whose_wall_would_pull_are_released(self):
        # a set carried from a frame in which every wall held, on fluid that
        # now moves off every wall: each set face's multiplier is negative,
        # so the sweep releases them all and ends as a fresh solve does (the
        # carried mask also holds every face off the walls, which it ignores)
        d, flags = tank(10, fill=1.0)
        faces = BoundaryFaces(flags)
        vel = VelocityField.zeros(d)
        vel.as_flat()[faces.index] = 0.5 * faces.sign
        state = BcState.initial(flags)
        state.nsep[:] = True
        log = ConvergenceLog()
        out = solve_separating_accelerated(vel, flags, state=state, log=log)
        assert log.converged and len(log) == 2
        assert not state.nsep.any()
        fresh = solve_separating_accelerated(vel, flags)
        assert (out - fresh).norm() <= 1e-5 * vel.norm()

    @pytest.mark.parametrize("spec, frames", [
        (SceneSpec("dam", nx=32, ny=22, seed=1), 20),
        (SceneSpec("hydrostatic", nx=10, ny=10, nz=8, seed=1), 15)],
        ids=["dam-2d", "tank-3d"])
    def test_non_separating_normals_are_zero_after_every_sweep(self, monkeypatch,
                                                                spec, frames):
        # each sweep projects the input with the set's normals zeroed, under
        # Neumann tags on the set, so u.n is exactly 0.0 on the set after
        # every sweep
        set_sizes = []
        project_ = DivergenceProjector.project

        def checking(self, vel, out=None):
            out = project_(self, vel, out)
            faces = BoundaryFaces(self.flags)
            nsep = self.bc.tags[faces.index] == FaceTag.NEUMANN
            assert (faces.normal_velocity(out[0])[nsep] == 0.0).all()
            set_sizes.append(np.count_nonzero(nsep))
            return out

        monkeypatch.setattr(DivergenceProjector, "project", checking)
        state, _ = build_scene(spec)
        for _ in range(frames):
            liquid_step(state, mode="separating-accelerated")
        assert max(set_sizes) > 0

    def test_one_table_and_one_system_per_call(self, monkeypatch):
        # every sweep projects with the one table, retagged in place to the
        # classified table of the set it projects, and a call builds at most
        # one PoissonSystem however many sweeps it runs (none when the
        # content-keyed cache holds its start table).  A sweep's set is the
        # Neumann wall faces of its table, whose normals its input holds at
        # 0, and the last table is that of the set the state ends with.  The
        # frames run once with the scene's carried set and once with a fresh
        # one per frame, which starts from the input's wall-ward faces alone
        # and so runs more sweeps.
        builds, tables, calls = [], [], []
        init, project_, solve = (PoissonSystem.__init__, DivergenceProjector.project,
                                 scenes.solve_separating_accelerated)

        def counted(self, flags, bc):
            builds.append(1)
            init(self, flags, bc)

        def checked(self, vel, out=None):
            faces = BoundaryFaces(self.flags)
            nsep = self.bc.tags[faces.index] == FaceTag.NEUMANN
            expect = classified_walls_table(self.flags, wall_set(self.flags, faces, nsep)).tags
            assert self.bc.tags.tobytes() == expect.tobytes()
            assert (faces.normal_velocity(vel)[nsep] == 0.0).all()
            tables.append(self.bc)
            return project_(self, vel, out)

        def per_call(u, flags, **kw):
            builds.clear()
            tables.clear()
            out = solve(u, flags, **kw)
            expect = classified_walls_table(flags, kw["state"]).tags
            assert tables[-1].tags.tobytes() == expect.tobytes()
            calls.append((len(builds), len(tables), len({id(t) for t in tables})))
            return out

        monkeypatch.setattr(PoissonSystem, "__init__", counted)
        monkeypatch.setattr(DivergenceProjector, "project", checked)
        monkeypatch.setattr(scenes, "solve_separating_accelerated", per_call)
        for carry in (True, False):
            state, _ = build_scene(SceneSpec("dam", nx=32, ny=22, seed=1))
            for _ in range(20):
                fresh = None if carry else BcState.initial(state.flags)
                liquid_step(state, mode="separating-accelerated", bc_state=fresh)
        assert len(calls) == 40
        assert all(built <= 1 and one == 1 for built, _, one in calls)
        assert max(sweeps for _, sweeps, _ in calls) >= 3

    def test_sweep_cap_leaves_the_log_unconverged(self, monkeypatch):
        # a state that needs two sweeps, capped at one: the log says so, and
        # the CLI turns that into exit 3
        import pdfluids.separating as separating
        d, flags, vel = hydrostatic_intermediate(12)
        log = ConvergenceLog()
        solve_separating_accelerated(vel, flags, log=log)
        assert log.converged and len(log) == 2
        monkeypatch.setattr(separating, "MAX_SWEEPS", 1)
        log = ConvergenceLog()
        solve_separating_accelerated(vel, flags, log=log)
        assert len(log) == 1 and not log.converged

    def test_carried_set_saves_sweeps(self):
        # the set the scene state carries from frame to frame, with no
        # bc_state passed, starts each solve near its answer: fewer sweeps
        # than a fresh set every frame
        sweeps = []
        for carry in (True, False):
            state, _ = build_scene(SceneSpec("dam", nx=32, ny=22, seed=1))
            total = 0
            for _ in range(20):
                fresh = None if carry else BcState.initial(state.flags)
                liquid_step(state, mode="separating-accelerated", bc_state=fresh)
                assert state.last_log.converged
                total += len(state.last_log)
            sweeps.append(total)
        assert sweeps[0] < sweeps[1]

    def test_a_frame_that_raises_leaves_the_carried_set(self, monkeypatch):
        # the solver writes its set only when it returns: a non-finite input
        # raises before any sweep, and a CG failure inside the first sweep
        # raises after the start set is built; neither moves the carried set
        state, _ = build_scene(SceneSpec("dam", nx=32, ny=22, seed=1))
        for _ in range(5):
            liquid_step(state, mode="separating-accelerated")
        walls = state.carry.walls
        held = walls.nsep.copy()
        assert held.any()
        bad = copy.deepcopy(state)
        bad.particles_vel[0, 0] = np.nan
        with pytest.raises(PoissonConvergenceError):
            liquid_step(bad, mode="separating-accelerated")
        assert bad.carry.walls.nsep.tobytes() == held.tobytes()
        def fail(self, vel, out=None):
            raise PoissonConvergenceError(1, 1.0)

        monkeypatch.setattr(DivergenceProjector, "project", fail)
        with pytest.raises(PoissonConvergenceError):
            liquid_step(state, mode="separating-accelerated")
        assert state.carry.walls is walls and walls.nsep.tobytes() == held.tobytes()

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
        # the FLUID cell: below the face along its axis where the sign is -1
        below = [np.where((ref["axis"] == a) & (ref["sign"] < 0), 1, 0) for a in range(3)]
        cell = np.ravel_multi_index((ref["i"] - below[0], ref["j"] - below[1],
                                     ref["k"] - below[2]), flags.dims.shape)
        assert faces.cell.tobytes() == cell.tobytes()
        assert (flags.values.reshape(-1)[faces.cell] == CellType.FLUID).all()
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
            tags = classified_walls_table(flags, wall_set(flags, faces, nsep)).tags
            expect = reference_walls_table(flags, ref, nsep).tags
            assert tags.tobytes() == expect.tobytes()


# random closed boxes: 2-D at 5-12 cells a side, 3-D at 5-8 x 5-8 x 4-6, the
# interior cell types drawn from a seeded rng in the given FLUID:SOLID:EMPTY
# weights, and standard-normal face velocities
BOX_SHAPES = st.one_of(st.tuples(st.integers(5, 12), st.integers(5, 12)),
                       st.tuples(st.integers(5, 8), st.integers(5, 8), st.integers(4, 6)))
BOX_WEIGHTS = st.tuples(st.integers(1, 8), st.integers(0, 3), st.integers(0, 4))


def random_box(shape, weights, rng):
    d = GridDims(*shape, h=1.0 / shape[0])
    flags = CellFlags.closed_box(d)
    inner = (slice(1, -1), slice(1, -1), slice(1, -1) if len(shape) == 3 else 0)
    flags.values[inner] = rng.choice([CellType.FLUID, CellType.SOLID, CellType.EMPTY],
                                     size=flags.values[inner].shape,
                                     p=np.array(weights) / sum(weights))
    return flags


# a carried set holding the given share of all active faces, walls or not
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(shape=BOX_SHAPES, weights=BOX_WEIGHTS, carried=st.sampled_from((0.0, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_accelerated_solve_is_feasible_from_any_carried_set(shape, weights, carried, seed):
    rng = np.random.default_rng(seed)
    flags = random_box(shape, weights, rng)
    assume(flags.fluid.any())
    u = random_velocity(flags.dims, rng)
    state, cg, log = BcState(rng.random(u.n_dof) < carried), CgConfig(), ConvergenceLog()
    z = solve_separating_accelerated(u, flags, cg=cg, state=state, log=log)
    assert log.converged
    assert np.abs(divergence(z, flags).values[flags.fluid]).max() <= 10.0 * cg.eps_final
    faces = BoundaryFaces(flags)
    tol = cg.eps_final * max(1.0, u.max_abs())
    assert faces.normal_velocity(z).min(initial=0.0) >= -tol
    off = np.ones(u.n_dof, bool)
    off[faces.index] = False
    assert not state.nsep[off].any()


# the standard solver lands within 2e-3 of the step to the exact projection,
# which the accelerated solver at eps 1e-9 gives (the bound of
# test_wall_oracle.py), and a solve that ends unconverged has at least run at
# the final CG accuracy.  The example's two one-cell pools stalled the loop
# at eps_cg 1e-2 for all 800 iterations, on z equal to the exact projection
# to 1e-16, until DivergenceProjector.adapt tightened on a stall.
@example(shape=(5, 7), weights=(1, 0, 2), seed=4)
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(shape=BOX_SHAPES, weights=BOX_WEIGHTS, seed=st.integers(0, 2 ** 32 - 1))
def test_standard_solve_lands_near_the_exact_projection(shape, weights, seed):
    rng = np.random.default_rng(seed)
    flags = random_box(shape, weights, rng)
    assume(flags.fluid.any())
    u = random_velocity(flags.dims, rng)
    exact = solve_separating_accelerated(u, flags, cg=CgConfig(eps_final=1e-9))
    log = ConvergenceLog()
    z = solve_separating_standard(u, flags, log=log)
    assert (z - exact).norm() <= 2e-3 * (exact - u).norm()
    assert log.converged or log.eps_cg[-1] == CgConfig().eps_final
