import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdfluids import pressure
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _along, _face_views, _flat_faces,
                             cell_centers, divergence, fluid_adjacent_face_mask)
from pdfluids.guiding import guide_step
from pdfluids.optim import SolverCarry
from pdfluids.pressure import (BcTable, CgConfig, DivergenceProjector, FaceTag,
                               PoissonConvergenceError, PoissonSystem, project,
                               subtract_gradient)
from pdfluids.scenes import (SceneSpec, build_scene, liquid_begin_step,
                             liquid_pressure_solve, liquid_step, smoke_step)
from pdfluids.separating import (MAX_SWEEPS, BoundaryFaces, classified_walls_table,
                                 free_surface_walls_table)

from conftest import random_velocity, wall_set


def dense_laplacian(flags, bc):
    """Dense SPD matrix (negated ghost Laplacian) by probing the system."""
    sys_ = PoissonSystem(flags, bc)
    n = flags.dims.cell_count
    mat = np.zeros((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        mat[:, c] = sys_.apply(e.reshape(flags.dims.shape)).ravel()
    return mat, sys_


def solve_poisson(rhs, flags, bc, eps_cg, max_cg_iters=10000):
    """Pressure p with ||lap(p) - rhs|| <= eps_cg * max(||rhs||, 1); CG runs
    on the SPD negation of the boundary-aware Laplacian."""
    system = PoissonSystem(flags, bc)
    p, _ = system.cg(system.prepare_rhs(-rhs.values), eps_cg, max_cg_iters)
    return ScalarField(rhs.dims, p)


class TestSolvePoisson:
    def test_zero_rhs_zero_pressure(self):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        p = solve_poisson(ScalarField.zeros(d), flags, bc, 1e-5)
        assert p.norm() == 0.0

    def test_point_source_matches_dense_direct_solve(self):
        d = GridDims(8, 8)
        flags = CellFlags.open_box(d)
        bc = BcTable.from_flags(flags)
        for axis, tags in enumerate(_face_views(d, bc.tags)):
            for side in (0, -1):
                tags[_along(axis, side)] = FaceTag.DIRICHLET
        rhs = ScalarField.zeros(d)
        rhs.values[4, 3, 0] = 1.0
        p = solve_poisson(rhs, flags, bc, 1e-10)
        mat, _ = dense_laplacian(flags, bc)
        expect = np.linalg.solve(mat, -rhs.values.ravel())
        err = np.linalg.norm(p.values.ravel() - expect) / np.linalg.norm(expect)
        assert err < 1e-6

    def test_mixed_tags_match_dense(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        flags.values[2:4, 5:7, 0] = CellType.EMPTY  # free surface patch
        flags.values[5, 2, 0] = CellType.SOLID
        bc = BcTable.from_flags(flags)
        rhs_vals = rng.standard_normal(d.shape)
        rhs_vals[~flags.fluid] = 0.0
        rhs = ScalarField(d, rhs_vals)
        p = solve_poisson(rhs, flags, bc, 1e-10)
        mat, sys_ = dense_laplacian(flags, bc)
        act = sys_.active.ravel()
        sub = mat[np.ix_(act, act)]
        expect = np.zeros(d.cell_count)
        expect[act] = np.linalg.solve(sub, -rhs.values.ravel()[act])
        err = np.linalg.norm(p.values.ravel() - expect) / np.linalg.norm(expect)
        assert err < 1e-6

    def test_all_neumann_constant_rhs_compatibility(self):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        p = solve_poisson(ScalarField.full(d, 2.5), flags, bc, 1e-8)
        assert p.norm() == pytest.approx(0.0, abs=1e-12)

    def test_iteration_cap_error_carries_residual(self, rng, monkeypatch):
        # 196 active cells: one dense solve at the default coarsest size
        monkeypatch.setattr(pressure, "_DENSE_CELLS", 64)
        d = GridDims(16, 16)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        rhs_vals = rng.standard_normal(d.shape)
        rhs_vals[~flags.fluid] = 0.0
        with pytest.raises(PoissonConvergenceError) as exc:
            solve_poisson(ScalarField(d, rhs_vals), flags, bc, 1e-12, max_cg_iters=2)
        assert exc.value.residual > 0
        assert exc.value.iterations == 2


class TestProject:
    def closed_setup(self, n=16, h=1.0):
        d = GridDims(n, n, 1, h)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        return d, flags, bc

    def test_divergence_free_field_nearly_fixed(self, rng):
        # a discrete vortex built from a stream function is exactly div-free
        d, flags, bc = self.closed_setup()
        psi = np.zeros((d.nx + 1, d.ny + 1))
        X, Y = np.meshgrid(np.arange(d.nx + 1), np.arange(d.ny + 1), indexing="ij")
        psi = np.sin(np.pi * X / d.nx) * np.sin(np.pi * Y / d.ny)
        vel = VelocityField.zeros(d)
        vel.u[:, :, 0] = (psi[:, 1:] - psi[:, :-1]) / d.h
        vel.v[:, :, 0] = -(psi[1:, :] - psi[:-1, :]) / d.h
        assert np.abs(divergence(vel, flags).values).max() < 1e-12
        out = project(vel, flags, bc, 1e-5)
        assert (out - vel).norm() <= 1e-5 * max(vel.norm(), 1.0)

    def test_random_field_projected_divergence(self, rng):
        # compatible input: wall-face fluxes are zero (closed box at rest walls)
        d, flags, bc = self.closed_setup()
        vel = random_velocity(d, rng)
        from conftest import zero_solid_adjacent
        zero_solid_adjacent(vel, flags)
        out = project(vel, flags, bc, 1e-5)
        assert np.abs(divergence(out, flags).values).max() <= 1e-4

    def test_gradient_field_annihilated(self, rng):
        # a ghost-consistent discrete gradient is pure curl-free input
        d, flags, bc = self.closed_setup()
        phi_vals = np.cos(np.pi * (np.arange(d.nx) + 0.5) / d.nx)[:, None, None] * \
            np.cos(np.pi * (np.arange(d.ny) + 0.5) / d.ny)[None, :, None]
        phi = ScalarField(d, np.broadcast_to(phi_vals, d.shape).copy())
        vel = VelocityField.zeros(d)
        subtract_gradient(vel, phi, flags, bc, vel)   # in place
        out = project(vel, flags, bc, 1e-7)
        assert out.norm() <= 1e-4 * vel.norm()

    def test_orthogonality(self, rng):
        d, flags, bc = self.closed_setup()
        vel = random_velocity(d, rng)
        from conftest import zero_solid_adjacent
        zero_solid_adjacent(vel, flags)
        out = project(vel, flags, bc, 1e-8)
        resid = vel - out
        assert abs(out.dot(resid)) <= 1e-6 * vel.norm() ** 2

    def test_idempotence(self, rng):
        d, flags, bc = self.closed_setup()
        vel = random_velocity(d, rng)
        once = project(vel, flags, bc, 1e-5)
        twice = project(once, flags, bc, 1e-5)
        assert (twice - once).norm() <= 2e-5 * max(once.norm(), 1.0)

    def test_linearity(self, rng):
        d, flags, bc = self.closed_setup(8)
        v1 = random_velocity(d, rng)
        v2 = random_velocity(d, rng)
        a, b = 1.7, -0.4
        lhs = project(a * v1 + b * v2, flags, bc, 1e-10)
        rhs = a * project(v1, flags, bc, 1e-10) + b * project(v2, flags, bc, 1e-10)
        assert (lhs - rhs).norm() <= 1e-6 * max(lhs.norm(), 1.0)

    def test_neumann_faces_untouched(self, rng):
        d, flags, bc = self.closed_setup()
        vel = random_velocity(d, rng)
        out = project(vel, flags, bc, 1e-5)
        # faces between fluid and the solid ring are Neumann by default
        assert np.array_equal(out.u[1, 1:-1, 0], vel.u[1, 1:-1, 0])
        assert np.array_equal(out.v[1:-1, 1, 0], vel.v[1:-1, 1, 0])

    def test_dense_equivalence_mixed_bc(self, rng):
        # CG pressure on a mixed-tag 8x8 grid matches the dense direct solve
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        flags.values[1:3, 5:7, 0] = CellType.EMPTY
        bc = BcTable.from_flags(flags)
        _face_views(d, bc.tags)[0][3, 3, 0] = FaceTag.DIRICHLET
        vel = random_velocity(d, rng)
        rhs = divergence(vel, flags)
        p = solve_poisson(rhs, flags, bc, 1e-10)
        mat, sys_ = dense_laplacian(flags, bc)
        act = sys_.active.ravel()
        expect = np.zeros(d.cell_count)
        expect[act] = np.linalg.solve(mat[np.ix_(act, act)], -rhs.values.ravel()[act])
        err = np.linalg.norm(p.values.ravel() - expect) / max(np.linalg.norm(expect), 1.0)
        assert err < 1e-6


def adaptive_projector(eps_start=1e-2, eps_final=1e-5):
    d = GridDims(4, 4, 1, 0.25)
    flags = CellFlags.closed_box(d)
    return DivergenceProjector(flags, BcTable.from_flags(flags),
                               CgConfig(eps_start, eps_final))


class TestAdaptiveController:
    def test_far_above_threshold_unchanged(self):
        c = adaptive_projector(1e-2, 1e-5)
        out = c.adapt(1.0, 1e-3)
        assert out == 1e-2

    def test_trigger_drops_one_decade(self):
        c = adaptive_projector(1e-2, 1e-5)
        out = c.adapt(9e-3, 1e-3)
        assert out == pytest.approx(1e-3)

    def test_repeated_triggers_clamp_at_final(self):
        c = adaptive_projector(1e-2, 1e-5)
        for _ in range(10):
            out = c.adapt(0.0, 1.0)
        assert out == pytest.approx(1e-5)
        assert c.eps <= c.cg.eps_final

    def test_validation(self):
        with pytest.raises(ValueError):
            CgConfig(eps_start=1e-6, eps_final=1e-2)

    # A trigger after a residual of the same projector jumps to eps_final
    # when one more contraction at the last rate meets the threshold:
    # residual < previous and residual^2 <= previous * eps_stop.

    def test_predicted_stop_goes_to_final(self):
        c = adaptive_projector(1e-2, 1e-5)
        assert c.adapt(5e-3, 1e-3) == pytest.approx(1e-3)
        assert c.adapt(2e-3, 1e-3) == 1e-5   # 4e-6 <= 5e-6

    def test_slow_contraction_drops_one_decade(self):
        c = adaptive_projector(1e-2, 1e-5)
        assert c.adapt(9e-3, 1e-3) == pytest.approx(1e-3)
        assert c.adapt(8e-3, 1e-3) == pytest.approx(1e-4)   # 6.4e-5 > 9e-6

    def test_growing_residual_drops_one_decade(self):
        c = adaptive_projector(1e-2, 1e-5)
        assert c.adapt(1e-3, 1e-3) == pytest.approx(1e-3)
        assert c.adapt(2e-3, 1e-3) == pytest.approx(1e-4)

    # Farther out, a residual no lower than the one _STALL calls before
    # drops one decade: the outer loop has stalled on the CG error.

    def test_stalled_residual_drops_one_decade(self):
        c = adaptive_projector(1e-2, 1e-5)
        for _ in range(DivergenceProjector._STALL):
            assert c.adapt(1.0, 1e-3) == 1e-2
        assert c.adapt(1.0, 1e-3) == pytest.approx(1e-3)
        assert c.adapt(1.0, 1e-3) == pytest.approx(1e-4)

    def test_slowly_contracting_residual_keeps_the_accuracy(self):
        c = adaptive_projector(1e-2, 1e-5)
        for k in range(4 * DivergenceProjector._STALL):
            assert c.adapt(0.99 ** k, 1e-3) == 1e-2

    def test_zero_after_a_positive_residual_goes_to_final(self):
        c = adaptive_projector(1e-2, 1e-5)
        assert c.adapt(1.0, 1e-3) == 1e-2
        assert c.adapt(0.0, 1e-3) == 1e-5


def one_decade_adapt(self, residual, eps_stop):
    """The ramp without the jump: one decade per trigger."""
    if residual <= 10.0 * eps_stop:
        self.eps = max(self.eps / 10.0, self.cg.eps_final)
    return self.eps


class TestRampEndsEarly:
    """The jump to eps_final saves guided PD iterations and leaves the
    standard wall solver's work as it was."""

    @staticmethod
    def guided_logs():
        state, cfg = build_scene(SceneSpec("circular", nx=32, ny=32, seed=1))
        logs = []
        for _ in range(20):
            smoke_step(state, cfg.with_current(state.vel))
            logs.append(state.last_log)
        return logs

    @staticmethod
    def dam_run():
        state, _ = build_scene(SceneSpec("dam", nx=32, ny=22, seed=1))
        rows, bits = [], []
        for _ in range(10):
            liquid_step(state, mode="separating-standard")
            log = state.last_log
            rows.append((log.residuals, log.epsilons, log.eps_cg, log.cg_iters,
                         log.converged))
            bits.append(b"".join(a.tobytes() for a in (
                state.vel.as_flat(), state.particles_pos, state.particles_vel)))
        return rows, bits

    def test_guided_frames_stop_at_final_in_fewer_rows(self, monkeypatch):
        logs = self.guided_logs()
        for log in logs:
            assert log.converged
            assert log.eps_cg[-1] == CgConfig().eps_final
            assert log.residuals[-1] <= log.epsilons[-1]
        monkeypatch.setattr(DivergenceProjector, "adapt", one_decade_adapt)
        before = self.guided_logs()
        assert all(log.converged for log in before)
        assert sum(map(len, logs)) < sum(map(len, before))

    def test_standard_walls_keep_their_work(self, monkeypatch):
        rows, bits = self.dam_run()
        assert any(min(eps_cg) < CgConfig().eps_start for _, _, eps_cg, _, _ in rows)
        monkeypatch.setattr(DivergenceProjector, "adapt", one_decade_adapt)
        assert self.dam_run() == (rows, bits)


class TestCgConfigChecks:
    """A tolerance that cannot be met or a cap below one iteration raises
    at once, never a plausible-looking unprojected field."""

    @pytest.mark.parametrize("kw", [
        dict(eps_start=math.inf), dict(eps_start=math.inf, eps_final=math.inf),
        dict(eps_final=math.nan), dict(eps_start=math.nan),
        dict(max_cg_iters=0), dict(max_cg_iters=-3),
        dict(eps_start=1e-5, eps_final=1e-5, max_cg_iters=0)],
        ids=["start-inf", "both-inf", "final-nan", "start-nan", "iters-0",
             "iters-neg", "fixed-iters-0"])
    def test_rejected(self, kw):
        with pytest.raises(ValueError, match="max_cg_iters >= 1"):
            CgConfig(**kw)

    @pytest.mark.parametrize("eps", [math.inf, math.nan], ids=["eps-inf", "eps-nan"])
    def test_project_raises(self, eps):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        vel = VelocityField.zeros(d)
        vel.u[4, 4, 0] = 1.0
        with pytest.raises(ValueError):
            project(vel, flags, BcTable.from_flags(flags), eps)


def split_halves():
    """24x16 closed box split by a solid column at x = 11: two all-Neumann
    components, and the FLUID mask of each."""
    d = GridDims(24, 16, 1, 1.0 / 24)
    flags = CellFlags.closed_box(d)
    flags.values[11, :, :] = CellType.SOLID
    x = np.arange(d.nx)[:, None, None]
    return d, flags, (flags.fluid & (x < 11), flags.fluid & (x > 11))


class TestSplitDomain:
    """No Dirichlet face: the rhs is made compatible on each connected
    component, not with one global mean."""

    def test_solve_poisson_per_half(self, rng):
        d, flags, halves = split_halves()
        bc = BcTable.from_flags(flags)
        rhs = ScalarField(d, rng.standard_normal(d.shape))
        eps = 1e-8
        p = solve_poisson(rhs, flags, bc, eps)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(-rhs.values)
        r = b - system.apply(p.values)
        for half in halves:
            assert abs(b[half].sum()) < 1e-10 * np.abs(b[half]).sum()
            # the solve meets the subtracted rhs on each half
            assert np.linalg.norm(r[half]) <= eps * max(np.linalg.norm(b), 1.0)
            np.testing.assert_allclose(b[half], -(rhs.values[half]
                                                  - rhs.values[half].mean()),
                                       rtol=0, atol=1e-12)

    def test_project_per_half(self, rng):
        d, flags, halves = split_halves()
        bc = BcTable.from_flags(flags)
        vel = random_velocity(d, rng)   # wall flux: each half keeps its own
        eps = 1e-6
        out = project(vel, flags, bc, eps)
        div_in = divergence(vel, flags).values
        div = divergence(out, flags).values
        for half in halves:
            # what is left is each half's mean divergence, set by its flux
            assert div[half].mean() == pytest.approx(div_in[half].mean(), rel=1e-6)
            assert np.abs(div[half] - div[half].mean()).max() <= 2 * 10 * eps

    def test_one_component_keeps_the_global_mean(self, rng):
        d = GridDims(24, 16, 1, 1.0 / 24)
        flags = CellFlags.closed_box(d)
        flags.values[8:12, 5:9, :] = CellType.SOLID
        system = PoissonSystem(flags, BcTable.from_flags(flags))
        rhs = rng.standard_normal(d.shape)
        b = np.where(system.active, rhs, 0.0)
        expect = np.where(system.active, b - b[system.active].mean(), 0.0)
        assert system.prepare_rhs(rhs).tobytes() == expect.tobytes()


class TestNonFiniteInput:
    """A NaN or inf face feeding a FLUID cell must raise on every projection
    path, never come out in a plausible-looking field."""

    @pytest.fixture(params=[np.nan, np.inf])
    def bad(self, request):
        return request.param

    def test_project_and_projector(self, rng, bad):
        d = GridDims(16, 16)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        vel = random_velocity(d, rng, zero_wall_normals=True)
        vel.u[8, 8, 0] = bad
        with pytest.raises(PoissonConvergenceError):
            project(vel, flags, bc, 1e-5)
        with pytest.raises(PoissonConvergenceError):
            DivergenceProjector(flags, bc).project(vel)

    @pytest.mark.parametrize("mode", ["regular", "separating-standard",
                                      "separating-accelerated"])
    def test_liquid_pressure_solve(self, bad, mode):
        state, _ = build_scene(SceneSpec("dam", nx=16, ny=16))
        vel = liquid_begin_step(state)[0]
        fl = state.flags.fluid
        i, j, k = np.argwhere(fl[1:] & fl[:-1])[0]   # x-face between two FLUID cells
        vel.u[i + 1, j, k] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected before numpy meets the value
            with pytest.raises(PoissonConvergenceError):
                liquid_pressure_solve(vel, state.flags, mode)

    def test_face_without_fluid_neighbour(self, bad):
        # a wall face of the closed box: the divergence never reads it
        d = GridDims(16, 16)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        vel = VelocityField.zeros(d)
        vel.u[0, 5, 0] = bad
        with pytest.raises(PoissonConvergenceError):
            project(vel, flags, bc, 1e-5)
        with pytest.raises(PoissonConvergenceError):
            DivergenceProjector(flags, bc).project(vel)

    @pytest.mark.parametrize("mode", ["regular", "separating-standard",
                                      "separating-accelerated"])
    def test_liquid_empty_empty_face(self, bad, mode):
        state, _ = build_scene(SceneSpec("dam", nx=16, ny=16))
        vel = liquid_begin_step(state)[0]
        em = state.flags.values == CellType.EMPTY
        i, j, k = np.argwhere(em[1:] & em[:-1])[0]   # x-face between two EMPTY cells
        vel.u[i + 1, j, k] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected before numpy meets the value
            with pytest.raises(PoissonConvergenceError):
                liquid_pressure_solve(vel, state.flags, mode)

    def test_guide_step(self, bad):
        # rejected at entry, before the blur and the prox see the value
        state, cfg = build_scene(SceneSpec("circular", nx=16, ny=16))
        u = state.vel.copy()
        u.u[8, 8, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoissonConvergenceError):
                guide_step(u, cfg)


# -- the allocating Jacobi-PCG loop, kept as a reference ------------------------

def reference_apply(flags, bc, system, p):
    """A p as the stencil computed it before the slices were precomputed."""
    inv_h2 = 1.0 / (flags.dims.h * flags.dims.h)
    out = system.diag * p
    for axis in flags.dims.axes:
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        inner = [slice(None)] * 3
        lo[axis], hi[axis], inner[axis] = slice(None, -1), slice(1, None), slice(1, -1)
        tags = _face_views(flags.dims, bc.tags)[axis]
        conn = (tags[tuple(inner)] == FaceTag.INTERIOR).astype(np.float64) * inv_h2
        out[tuple(lo)] -= conn * p[tuple(hi)]
        out[tuple(hi)] -= conn * p[tuple(lo)]
    out[~system.active] = 0.0
    return out


def reference_cg(flags, bc, system, b, eps, max_iters, inf_tol=None):
    """Jacobi-preconditioned CG with fresh arrays on every iteration; returns
    (x, iters) or raises PoissonConvergenceError like PoissonSystem.cg."""
    inv_diag = np.where(system.active, 1.0 / np.where(system.active, system.diag, 1.0), 0.0)
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    target = eps * max(bnorm, 1.0)
    r = b.copy()

    def done():
        rn = float(np.linalg.norm(r))
        if rn > target:
            return False, rn
        if inf_tol is not None and float(np.abs(r).max()) > inf_tol:
            return False, rn
        return True, rn

    it = 0
    ok, rnorm = done()
    if ok:
        return x, 0
    z = r * inv_diag
    d = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, max_iters + 1):
        ad = reference_apply(flags, bc, system, d)
        dad = float(np.vdot(d, ad))
        if dad <= 0.0:
            break
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        ok, rnorm = done()
        if ok:
            return x, it
        z = r * inv_diag
        rz_new = float(np.vdot(r, z))
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise PoissonConvergenceError(it, rnorm / max(bnorm, 1.0))


def closed_box_case(rng):
    d = GridDims(20, 14)
    flags = CellFlags.closed_box(d)
    flags.values[6:9, 4:7, 0] = CellType.SOLID
    return flags, BcTable.from_flags(flags), rng.standard_normal(d.shape)


def dam_case(rng):
    flags = build_scene(SceneSpec("dam", nx=24, ny=18))[0].flags
    return flags, BcTable.from_flags(flags), rng.standard_normal(flags.dims.shape)


def box_3d_case(rng):
    d = GridDims(7, 6, 5)
    flags = CellFlags.closed_box(d)
    return flags, BcTable.from_flags(flags), rng.standard_normal(d.shape)


def box_rhs(n, seed=0, dim=2):
    d = GridDims(*(n,) * dim)
    flags = CellFlags.closed_box(d)
    system = PoissonSystem(flags, BcTable.from_flags(flags))
    return flags, system, system.prepare_rhs(np.random.default_rng(seed).standard_normal(d.shape))


def closed_box_iterations(sizes, dim):
    """CG iterations from zero to 1e-5 on a random rhs, per box width."""
    iters = {}
    for n in sizes:
        _, system, b = box_rhs(n, dim=dim)
        iters[n] = system.cg(b, 1e-5, 10000)[1]
    return iters


class TestCgBitwise:
    """The multigrid-preconditioned CG against the Jacobi reference: the same
    stopping rule, far fewer iterations, the same cap; and the matvec bit
    for bit."""

    @pytest.mark.parametrize("case", [closed_box_case, dam_case, box_3d_case],
                             ids=["closed-box", "dam", "box-3d"])
    @pytest.mark.parametrize("inf_tol", [None, 1e-4])
    def test_matches_reference(self, rng, case, inf_tol):
        flags, bc, rhs = case(rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rhs)
        # the closed boxes are one all-Neumann component, the dam has air
        assert len(system._components) == (0 if case is dam_case else 1)
        x, iters = system.cg(b, 1e-5, 10000, inf_tol=inf_tol)
        _, iters_ref = reference_cg(flags, bc, system, b, 1e-5, 10000, inf_tol=inf_tol)
        assert 0 < iters <= iters_ref
        # the unchanged stopping rule, on the reference matvec
        r = b - reference_apply(flags, bc, system, x)
        assert np.linalg.norm(r) <= 1e-5 * max(np.linalg.norm(b), 1.0)
        if inf_tol is not None:
            assert np.abs(r).max() <= inf_tol
        assert not x[~system.active].any()

    def test_fewer_iterations_than_jacobi(self):
        flags, system, b = box_rhs(64)
        bc = BcTable.from_flags(flags)
        _, iters = system.cg(b, 1e-5, 10000)
        _, iters_ref = reference_cg(flags, bc, system, b, 1e-5, 10000)
        assert 5 * iters <= iters_ref

    def test_cap_raises_at_the_reference_iteration(self, rng, monkeypatch):
        monkeypatch.setattr(pressure, "_DENSE_CELLS", 64)   # 207 active cells
        flags, bc, rhs = closed_box_case(rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rhs)
        with pytest.raises(PoissonConvergenceError) as got:
            system.cg(b, 1e-12, 7)
        with pytest.raises(PoissonConvergenceError) as want:
            reference_cg(flags, bc, system, b, 1e-12, 7)
        assert got.value.iterations == want.value.iterations == 7
        assert 1e-12 < got.value.residual < np.inf

    @pytest.mark.parametrize("case", [closed_box_case, dam_case, box_3d_case],
                             ids=["closed-box", "dam", "box-3d"])
    def test_apply_into_out(self, rng, case):
        flags, bc, _ = case(rng)
        system = PoissonSystem(flags, bc)
        p = rng.standard_normal(flags.dims.shape)
        keep = p.copy()
        fresh = system.apply(p)
        assert fresh is not p and not np.shares_memory(fresh, p)
        assert np.array_equal(p, keep)
        assert fresh.tobytes() == reference_apply(flags, bc, system, p).tobytes()
        out = np.full_like(p, np.nan)
        assert system.apply(p, out) is out
        assert out.tobytes() == fresh.tobytes()
        assert not np.shares_memory(system.apply(p), fresh)

    def test_one_apply_per_iteration(self, rng, monkeypatch):
        flags, bc, rhs = closed_box_case(rng)
        system = PoissonSystem(flags, bc)
        calls = []
        original = PoissonSystem.apply

        def counted(self, p, out=None):
            calls.append(1)
            return original(self, p, out)

        monkeypatch.setattr(PoissonSystem, "apply", counted)
        _, iters = system.cg(system.prepare_rhs(rhs), 1e-5, 10000)
        assert iters > 0 and len(calls) == iters

    def test_non_finite_dad_is_not_a_breakdown(self, rng, monkeypatch):
        # +inf where d is negative makes d.A d = -inf, which must not end
        # the loop as a breakdown ("did not converge")
        flags, bc, rhs = closed_box_case(rng)
        system = PoissonSystem(flags, bc)
        original = PoissonSystem.apply

        def poisoned(self, p, out=None):
            out = original(self, p, out)
            assert p.min() < 0.0
            out.reshape(-1)[np.argmin(p)] = np.inf
            return out

        monkeypatch.setattr(PoissonSystem, "apply", poisoned)
        with pytest.raises(PoissonConvergenceError, match="met a non-finite value") as exc:
            system.cg(system.prepare_rhs(rhs), 1e-5, 10000)
        assert exc.value.iterations == 1


# -- the multigrid preconditioner ------------------------------------------------

def split_box_case(rng):
    # two all-Neumann halves split by a solid wall, plus a closed two-cell
    # pocket that one coarse aggregate swallows whole
    d = GridDims(24, 16)
    flags = CellFlags.closed_box(d)
    flags.values[11, :, 0] = CellType.SOLID
    flags.values[3:7, 2:5, 0] = CellType.SOLID
    flags.values[4:6, 3, 0] = CellType.FLUID
    return flags, BcTable.from_flags(flags)


def classified_dam_case(rng):
    flags = build_scene(SceneSpec("dam", nx=24, ny=18))[0].flags
    faces = BoundaryFaces(flags)
    state = wall_set(flags, faces, rng.random(len(faces)) < 0.5)
    assert state.nsep.any()
    return flags, classified_walls_table(flags, state)


def odd_box_case(nx, ny):
    def case(rng):
        flags = CellFlags.closed_box(GridDims(nx, ny))
        flags.values[nx // 3, ny // 3:, 0] = CellType.SOLID
        return flags, BcTable.from_flags(flags)
    return case


def closed_table(d):
    flags = CellFlags.closed_box(d)
    return flags, BcTable.from_flags(flags)


PRECONDITIONER_CASES = {
    "closed-box": lambda rng: closed_table(GridDims(32, 32)),
    "box-obstacle": lambda rng: closed_box_case(rng)[:2],
    "split-neumann": split_box_case,
    "dam": lambda rng: dam_case(rng)[:2],
    "dam-classified": classified_dam_case,
    "odd-50x35": odd_box_case(50, 35),
    "odd-13x9": odd_box_case(13, 9),
    "box-3d": lambda rng: closed_table(GridDims(12, 18, 12)),
}


@pytest.fixture
def preconditioner_case(rng, monkeypatch):
    """Flags and table of a named PRECONDITIONER_CASES entry.  A case with no
    more FLUID cells than _DENSE_CELLS would be one dense solve with no
    coarse level, so it runs at the former 64-cell limit instead."""
    def make(name):
        flags, bc = PRECONDITIONER_CASES[name](rng)
        if int(flags.fluid.sum()) <= pressure._DENSE_CELLS:
            monkeypatch.setattr(pressure, "_DENSE_CELLS", 64)
        return flags, bc
    return make


def dense_from_stencil(diag, stencil):
    """Dense matrix of the flat Laplacian (diag, [(stride, conn)])."""
    mat = np.diag(diag)
    for s, conn in stencil:
        i = np.arange(conn.size)
        mat[i, i + s] -= conn
        mat[i + s, i] -= conn
    return mat


def assert_symmetric_positive(system, rng, pairs):
    """For random a, b on the active cells: <Ma, b> = <a, Mb> to 1e-13 of
    |Ma| |b|, <Ma, a> > 0, and Ma zero off the active cells."""
    act = system.active
    for _ in range(pairs):
        a = np.where(act, rng.standard_normal(act.shape), 0.0)
        b = np.where(act, rng.standard_normal(act.shape), 0.0)
        ma = system._precondition(a, np.empty_like(a))
        mb = system._precondition(b, np.empty_like(b))
        scale = np.linalg.norm(ma) * np.linalg.norm(b)
        assert abs(np.vdot(ma, b) - np.vdot(a, mb)) <= 1e-13 * scale
        assert np.vdot(ma, a) > 0.0
        assert not ma[~act].any()


class TestMultigridPreconditioner:
    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_symmetric_positive_and_zero_off_active(self, rng, preconditioner_case, name):
        flags, bc = preconditioner_case(name)
        system = PoissonSystem(flags, bc)
        assert len(system.grids) > 1   # at least one coarse grid
        assert_symmetric_positive(system, rng, 5)

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_coarse_operators_are_galerkin_products(self, preconditioner_case, name):
        # each coarse operator against P^T A P, with A the next finer grid's
        # operator and P the 0/1 pairing matrix built here from the shapes
        flags, bc = preconditioner_case(name)
        system = PoissonSystem(flags, bc)
        grids = [(g.diag, g.stencil) for g in system.grids[:-1]]
        shape = flags.dims.shape
        for k, (diag, stencil) in enumerate(grids):
            a = dense_from_stencil(diag, stencil)
            agg = [ax for ax in flags.dims.axes if shape[ax] > 2]
            coarse = tuple((n + 1) // 2 if ax in agg else n for ax, n in enumerate(shape))
            index = np.indices(shape).reshape(3, -1)
            index[agg] //= 2
            pairing = np.zeros((math.prod(shape), math.prod(coarse)))
            pairing[np.arange(pairing.shape[0]), np.ravel_multi_index(index, coarse)] = 1.0
            want = pairing.T @ a @ pairing
            if k + 1 < len(grids):
                got = dense_from_stencil(*grids[k + 1])
            else:   # the coarsest grid keeps the factor of its active block
                off = np.ones(want.shape[0], bool)
                off[system.cells] = False
                assert not want[off].any() and not want[:, off].any()
                block = want[np.ix_(system.cells, system.cells)]
                null = reference_null_components(np.rint(block * flags.dims.h ** 2))
                got, want = system.dense, reference_dense_inverse(block, null)
            if flags.dims.h == 1.0:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
            shape = coarse

    def test_dam_solution_matches_sparse_direct_solve(self, rng):
        sparse = pytest.importorskip("scipy.sparse")
        spla = pytest.importorskip("scipy.sparse.linalg")
        flags, bc, rhs = dam_case(rng)
        mat, system = dense_laplacian(flags, bc)
        b = system.prepare_rhs(rhs)
        x, _ = system.cg(b, 1e-10, 10000)
        act = system.active.ravel()
        expect = np.zeros(flags.dims.cell_count)
        expect[act] = spla.spsolve(sparse.csr_matrix(mat[np.ix_(act, act)]), b.ravel()[act])
        assert np.linalg.norm(x.ravel() - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_iterations_flat_in_grid_size(self):
        iters = closed_box_iterations((64, 128, 256), 2)
        assert max(iters.values()) <= 11
        assert iters[256] <= 1.5 * iters[64]

    def test_iterations_flat_in_grid_size_3d(self):
        iters = closed_box_iterations((16, 24, 32), 3)
        assert iters[32] <= 13
        assert iters[32] <= 1.5 * iters[16]


# random flag fields: 2-D at 4-20 cells a side, 3-D at 4-8 x 4-8 x 4-6; the
# cell types drawn from a seeded rng in the given FLUID:SOLID:EMPTY weights, and
# each fluid-solid face DIRICHLET with the given probability, else NEUMANN
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(shape=st.one_of(st.tuples(st.integers(4, 20), st.integers(4, 20)),
                       st.tuples(st.integers(4, 8), st.integers(4, 8), st.integers(4, 6))),
       weights=st.tuples(st.integers(4, 8), st.integers(0, 2), st.integers(0, 2)),
       dirichlet=st.sampled_from((0.0, 0.5, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vcycle_symmetric_positive_on_random_flags(shape, weights, dirichlet, seed):
    rng = np.random.default_rng(seed)
    d = GridDims(*shape)
    p = np.array(weights) / sum(weights)
    flags = CellFlags(d, rng.choice([CellType.FLUID, CellType.SOLID, CellType.EMPTY],
                                    size=d.shape, p=p))
    neumann = BcTable.from_flags(flags, FaceTag.NEUMANN).tags
    solid_dirichlet = BcTable.from_flags(flags, FaceTag.DIRICHLET).tags
    tags = np.where(rng.random(neumann.shape) < dirichlet, solid_dirichlet, neumann)
    with pytest.MonkeyPatch.context() as mp:   # coarsen as preconditioner_case does
        mp.setattr(pressure, "_DENSE_CELLS", 64)
        system = PoissonSystem(flags, BcTable(d, tags))
    assume(system.active.any())
    assert_symmetric_positive(system, rng, 3)
    # random vectors miss a small negative eigenvalue, as a weight past the
    # SPD range (2/omega below the largest eigenvalue of D^-1 A) gives; M is
    # only semidefinite where a component is all Neumann (the coarsest
    # grid's pseudo-inverse)
    act = np.flatnonzero(system.active)
    unit, out = np.zeros(system.active.shape), np.empty(system.active.shape)
    m = np.empty((act.size, act.size))
    for j, cell in enumerate(act):
        unit.flat[cell] = 1.0
        m[:, j] = system._precondition(unit, out).flat[act]
        unit.flat[cell] = 0.0
    eig = np.linalg.eigvalsh(m + m.T)
    assert eig.min() >= -1e-12 * eig.max()


# random closed boxes: 2-D at 5-12 cells a side, 3-D at 5-8 x 5-8 x 4-6; the
# interior cell types drawn from a seeded rng in the given FLUID:SOLID:EMPTY
# weights, each fluid-solid face DIRICHLET with the given probability, else
# NEUMANN, and standard-normal face velocities, zero on the NEUMANN faces of
# FLUID cells so that every component without a Dirichlet face is compatible
# (the NEUMANN faces of no FLUID cell keep theirs)
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(shape=st.one_of(st.tuples(st.integers(5, 12), st.integers(5, 12)),
                       st.tuples(st.integers(5, 8), st.integers(5, 8), st.integers(4, 6))),
       weights=st.tuples(st.integers(1, 8), st.integers(0, 3), st.integers(0, 4)),
       dirichlet=st.sampled_from((0.0, 0.5, 1.0)),
       eps=st.sampled_from((1e-3, 1e-5, 1e-8)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_projection_is_feasible_and_idempotent_on_random_flags(shape, weights, dirichlet,
                                                              eps, seed):
    rng = np.random.default_rng(seed)
    d = GridDims(*shape, h=1.0 / shape[0])
    flags = CellFlags.closed_box(d)
    inner = (slice(1, -1), slice(1, -1), slice(1, -1) if len(shape) == 3 else 0)
    flags.values[inner] = rng.choice([CellType.FLUID, CellType.SOLID, CellType.EMPTY],
                                     size=flags.values[inner].shape,
                                     p=np.array(weights) / sum(weights))
    assume(flags.fluid.any())
    neumann = BcTable.from_flags(flags, FaceTag.NEUMANN).tags
    solid_dirichlet = BcTable.from_flags(flags, FaceTag.DIRICHLET).tags
    bc = BcTable(d, np.where(rng.random(neumann.shape) < dirichlet, solid_dirichlet, neumann))
    held = bc.tags == FaceTag.NEUMANN
    u0 = random_velocity(d, rng)
    u0.as_flat()[held & _flat_faces(d, lambda a: fluid_adjacent_face_mask(flags, a))] = 0.0
    u1 = project(u0, flags, bc, eps)
    u2 = project(u1, flags, bc, eps)
    assert u1.as_flat()[held].tobytes() == u0.as_flat()[held].tobytes()
    div1, div2 = (divergence(u, flags).values for u in (u1, u2))
    for div in (div1, div2):
        assert np.abs(div[PoissonSystem(flags, bc).active]).max(initial=0.0) <= 10.0 * eps
    # The second projection moves u1 by G p, with A p = div u2 - div u1
    # (its rhs less its residual) and |G p|^2 = p.A p <= |A p|^2 / lambda,
    # lambda the least nonzero eigenvalue of A.  On a component of N cells
    # lambda >= 1 / (h N)^2 (A's inverse is entrywise at most N / h^2 in a
    # grounded component, and lambda_2 >= 4 / (N diam) h^-2 in a closed one),
    # so the move is at most h N |div u2 - div u1|, which the max-norm stop
    # rule caps at 20 eps h N^1.5; the slack covers the rounding of the update.
    n = np.count_nonzero(flags.fluid)
    bound = d.h * n * np.linalg.norm(div2 - div1)
    assert bound <= 20.0 * eps * d.h * n ** 1.5
    move = np.linalg.norm(u2.as_flat() - u1.as_flat())
    assert move <= bound + 1e-13 * n * np.linalg.norm(u1.as_flat())


# -- the 3-D-slice stencil and V-cycle, kept as a bitwise reference --------------

def reference_stencil_apply(diag, stencil, inactive, p, out):
    """out = A p over 3-D slices (lo, hi, conn) with face-shaped conn, as
    the stencil was stored before it was flattened; inactive rows 0."""
    np.multiply(diag, p, out=out)
    for lo, hi, conn in stencil:
        out[lo] -= conn * p[hi]
        out[hi] -= conn * p[lo]
    out[inactive] = 0.0
    return out


def reference_pair_sum(a, axes):
    for ax in axes:
        n = a.shape[ax]
        s = a[_along(ax, slice(0, None, 2))].copy()
        s[_along(ax, slice(0, n // 2))] += a[_along(ax, slice(1, None, 2))]
        a = s
    return a


def reference_child_sum(a, axes):
    """Sum of each pair aggregate along `axes`, its children added in C
    order from 0.0 (an odd last cell is a pair on its own)."""
    s = np.zeros([(n + 1) // 2 if ax in axes else n for ax, n in enumerate(a.shape)])
    for offset in itertools.product((0, 1), repeat=len(axes)):
        child = [slice(None)] * 3
        for ax, o in zip(axes, offset):
            child[ax] = slice(o, None, 2)
        c = a[tuple(child)]
        s[tuple(map(slice, c.shape))] += c
    return s


def reference_galerkin(count, conns, axes, agg):
    diag = reference_pair_sum(count, agg)
    coarse = []
    for axis, conn in zip(axes, conns):
        if axis not in agg:
            coarse.append(reference_pair_sum(conn, agg))
            continue
        rest = tuple(a for a in agg if a != axis)
        inside = conn[_along(axis, slice(0, None, 2))]
        diag[_along(axis, slice(0, inside.shape[axis]))] -= 2.0 * reference_pair_sum(inside, rest)
        coarse.append(reference_pair_sum(conn[_along(axis, slice(1, None, 2))], rest))
    return diag, coarse


def reference_null_components(counts):
    """Index arrays of the components of the dense matrix `counts` (integer
    face counts) whose rows all sum to zero, found by a depth-first search
    over its couplings: one null vector each, the constant on it."""
    seen = np.zeros(counts.shape[0], bool)
    null = []
    for start in range(counts.shape[0]):
        if seen[start]:
            continue
        seen[start] = True
        stack, component = [start], []
        while stack:
            k = stack.pop()
            component.append(k)
            for m in np.flatnonzero(counts[k] < 0):
                if not seen[m]:
                    seen[m] = True
                    stack.append(m)
        if not counts[component].sum(axis=1).any():
            null.append(np.array(component))
    return null


def reference_dense_inverse(block, null, inverse=None):
    """The coarsest grid's factor: the symmetrized inverse of the block
    shifted by the mean diagonal times the projector onto the constants of
    the `null` components, less that projector over the shift.  The
    inverse is reference_schur_inverse's, the one the package takes, unless
    `inverse` is given."""
    scale = block.trace() / max(len(block), 1)
    shifted = block.copy()
    for cells in null:
        shifted[np.ix_(cells, cells)] += scale / len(cells)
    inv = (inverse or reference_schur_inverse)(shifted)
    for cells in null:
        inv[np.ix_(cells, cells)] -= 1.0 / (scale * len(cells))
    return 0.5 * (inv + inv.T)


def reference_schur_inverse(a):
    """inv(a) of the SPD a by the package's recursion, operation for
    operation: a = [[P, Q], [Q^T, R]] split in half, W = P^-1 Q, S = R -
    Q^T W, inv(a) = [[P^-1 + W S^-1 W^T, -W S^-1], [-S^-1 W^T, S^-1]];
    blocks of at most pressure._LEAF rows by np.linalg.inv, the products
    by pressure._matmul (row panels that OpenBLAS runs on one thread)."""
    n = len(a)
    if n <= pressure._LEAF:
        return np.linalg.inv(a)
    k = n // 2
    mm = pressure._matmul
    p_inv = reference_schur_inverse(a[:k, :k])
    w = mm(p_inv, a[:k, k:])
    s_inv = reference_schur_inverse(a[k:, k:] - mm(a[:k, k:].T, w))
    ws = mm(w, s_inv)
    return np.block([[p_inv + mm(ws, w.T), -ws], [-ws.T, s_inv]])


class ReferenceMultigrid:
    """The matvec and V-cycle of PoissonSystem over 3-D slices, built from
    the flags and table with face-shaped couplings; every matvec zeroes its
    inactive rows."""

    def __init__(self, flags, bc):
        d = flags.dims
        axes = d.axes
        inv_h2 = 1.0 / (d.h * d.h)
        count = np.zeros(d.shape)
        interior = []
        for axis in axes:
            t = _face_views(d, bc.tags)[axis]
            for cells in (slice(None, -1), slice(1, None)):
                count += (t[_along(axis, cells)] != FaceTag.NEUMANN).astype(np.float64)
            interior.append((t[_along(axis, slice(1, -1))] == FaceTag.INTERIOR)
                            .astype(np.float64))
        count[~flags.fluid] = 0.0
        active = flags.fluid & (count > 0)
        slices = [(_along(a, slice(None, -1)), _along(a, slice(1, None))) for a in axes]
        grid = (count * inv_h2, [(lo, hi, c * inv_h2) for (lo, hi), c in zip(slices, interior)],
                ~active)
        self.diag, self.stencil, self.inactive = grid
        conns = [c * active[lo] * active[hi] for (lo, hi), c in zip(slices, interior)]
        self.levels = []
        while int(active.sum()) > pressure._DENSE_CELLS:
            agg = tuple(a for a in axes if count.shape[a] > 2)
            if not agg:
                break
            count, conns = reference_galerkin(count, conns, axes, agg)
            active = count > 0
            diag, stencil, inactive = grid
            with np.errstate(divide="ignore"):
                wdinv = np.where(inactive, 0.0, pressure._OMEGA / diag)
            self.levels.append((diag, stencil, inactive, wdinv, agg, ~active))
            grid = (count * inv_h2, [(lo, hi, c * inv_h2) for (lo, hi), c in zip(slices, conns)],
                    ~active)
        self.cells = np.flatnonzero(active)
        index = np.full(count.shape, -1)
        index.reshape(-1)[self.cells] = np.arange(self.cells.size)
        mat = np.diag(count.reshape(-1)[self.cells])
        for (lo, hi), c in zip(slices, conns):
            m = c > 0
            i, j = index[lo][m], index[hi][m]
            mat[i, j] -= c[m]
            mat[j, i] -= c[m]
        self.dense = reference_dense_inverse(mat * inv_h2, reference_null_components(mat))

    def apply(self, p, out=None):
        out = np.empty_like(self.diag) if out is None else out
        return reference_stencil_apply(self.diag, self.stencil, self.inactive, p, out)

    def cycle(self, k, r, x):
        if k == len(self.levels):
            x.fill(0.0)
            x.reshape(-1)[self.cells] = self.dense @ r.reshape(-1)[self.cells]
            return x
        diag, stencil, inactive, wdinv, agg, coarse_inactive = self.levels[k]
        t = np.empty_like(diag)
        np.multiply(wdinv, r, out=x)
        np.subtract(r, reference_stencil_apply(diag, stencil, inactive, x, t), out=t)
        rc = reference_child_sum(t, agg)
        rc[coarse_inactive] = 0.0
        ec = self.cycle(k + 1, rc, np.empty(rc.shape))
        ec *= pressure._COARSE_SCALE
        for ax in agg:
            ec = np.repeat(ec, 2, axis=ax)[_along(ax, slice(0, x.shape[ax]))]
        ec[inactive] = 0.0
        x += ec
        np.subtract(r, reference_stencil_apply(diag, stencil, inactive, x, t), out=t)
        t *= wdinv
        x += t
        return x


def reference_system(flags, bc):
    """A PoissonSystem whose CG runs on the reference matvec and V-cycle."""
    system = PoissonSystem(flags, bc)
    ref = ReferenceMultigrid(flags, bc)
    system.apply = ref.apply
    system._precondition = lambda r, out: ref.cycle(0, r, out)
    return system


class TestFlatStencilBitwise:
    """The flat stencil against the 3-D-slice reference, bit for bit: the
    matvec, one V-cycle and whole CG solves (x and iterations)."""

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_apply_and_precondition(self, rng, preconditioner_case, name):
        flags, bc = preconditioner_case(name)
        system = PoissonSystem(flags, bc)
        ref = ReferenceMultigrid(flags, bc)
        assert len(system.grids) - 1 == len(ref.levels) > 0
        for _ in range(3):
            p = rng.standard_normal(flags.dims.shape)
            assert system.apply(p).tobytes() == ref.apply(p).tobytes()
            r = np.where(system.active, p, 0.0)
            got = system._precondition(r, np.empty_like(r))
            assert got.tobytes() == ref.cycle(0, r, np.empty_like(r)).tobytes()

    def test_wall_face_tagged_interior_couples_nothing(self, rng):
        # across a high wall the flat neighbour is the next row's first cell
        flags = CellFlags.open_box(GridDims(6, 5))
        bc = BcTable.from_flags(flags)
        _face_views(flags.dims, bc.tags)[1][2, 5, 0] = FaceTag.INTERIOR
        system = PoissonSystem(flags, bc)
        p = rng.standard_normal(flags.dims.shape)
        assert system.apply(p).tobytes() == ReferenceMultigrid(flags, bc).apply(p).tobytes()

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    @pytest.mark.parametrize("inf_tol", [None, 1e-4])
    def test_cg(self, rng, preconditioner_case, name, inf_tol):
        flags, bc = preconditioner_case(name)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rng.standard_normal(flags.dims.shape))
        x, iters = system.cg(b, 1e-5, 10000, inf_tol=inf_tol)
        x_ref, iters_ref = reference_system(flags, bc).cg(b, 1e-5, 10000, inf_tol=inf_tol)
        assert iters == iters_ref > 0
        assert x.tobytes() == x_ref.tobytes()


# -- PoissonSystem.cg before it ran on the shared core, kept as a reference -----

def frozen_cg(system, b, eps, max_iters, inf_tol=None):
    """The pressure CG loop as PoissonSystem.cg ran it on its own; returns
    (x, iterations) or raises PoissonConvergenceError."""
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
    system._precondition(r, z)
    d = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, max_iters + 1):
        system.apply(d, ad)
        dad = float(np.vdot(d, ad))
        if not math.isfinite(dad):
            raise PoissonConvergenceError(it, math.nan)
        if dad <= 0.0:
            break
        alpha = rz / dad
        x += np.multiply(alpha, d, out=tmp)
        r -= np.multiply(alpha, ad, out=tmp)
        ok, rnorm = done()
        if ok:
            return x, it
        system._precondition(r, z)
        rz_new = float(np.vdot(r, z))
        d *= rz_new / rz
        d += z
        rz = rz_new
    raise PoissonConvergenceError(it, rnorm / max(bnorm, 1.0))


class TestSharedCgCore:
    """PoissonSystem.cg on pressure._pcg against the loop it replaced, bit
    for bit: x, iterations and, on the cap raise, the residual."""

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    @pytest.mark.parametrize("inf_tol", [None, 1e-4])
    def test_cg(self, rng, preconditioner_case, name, inf_tol):
        flags, bc = preconditioner_case(name)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rng.standard_normal(flags.dims.shape))
        x, iters = system.cg(b, 1e-5, 10000, inf_tol=inf_tol)
        x_ref, iters_ref = frozen_cg(system, b, 1e-5, 10000, inf_tol)
        assert iters == iters_ref > 0
        assert x.tobytes() == x_ref.tobytes()

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_cap_raise(self, rng, preconditioner_case, name):
        flags, bc = preconditioner_case(name)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rng.standard_normal(flags.dims.shape))
        with pytest.raises(PoissonConvergenceError) as got:
            system.cg(b, 1e-12, 3)
        with pytest.raises(PoissonConvergenceError) as want:
            frozen_cg(system, b, 1e-12, 3)
        assert got.value.iterations == want.value.iterations == 3
        assert got.value.residual == want.value.residual


# -- the warm start ---------------------------------------------------------------

def counted_applies(monkeypatch):
    """Install a counting wrapper on PoissonSystem.apply; returns its list."""
    calls = []
    original = PoissonSystem.apply

    def counted(self, p, out=None):
        calls.append(1)
        return original(self, p, out)

    monkeypatch.setattr(PoissonSystem, "apply", counted)
    return calls


class TestWarmStart:
    """cg from a start x0: the stopping target stays that of the original
    rhs, a start that already meets it costs nothing, no start is the cold
    start bit for bit, and a non-finite start raises.  The projector starts
    each solve from its previous pressure without an extra matvec."""

    @pytest.mark.parametrize("case", [closed_box_case, dam_case, box_3d_case],
                             ids=["closed-box", "dam", "box-3d"])
    def test_warm_solve_meets_the_original_target(self, rng, case):
        flags, bc, rhs = case(rng)
        system = PoissonSystem(flags, bc)
        start, _ = system.cg(system.prepare_rhs(rhs), 1e-3, 10000)
        b = system.prepare_rhs(rhs + 0.1 * rng.standard_normal(rhs.shape))
        x, iters = system.cg(b, 1e-6, 10000, inf_tol=1e-5, x0=start)
        assert iters > 0
        r = b - system.apply(x)
        # the target of b itself, not of the start's smaller residual
        assert np.linalg.norm(r) <= 1.0001e-6 * max(np.linalg.norm(b), 1.0)
        assert np.abs(r).max() <= 1.0001e-5
        assert not x[~system.active].any()

    def test_solution_as_start_takes_no_iteration(self, rng):
        flags, bc, rhs = dam_case(rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rhs)
        x, iters = system.cg(b, 1e-9, 10000)
        again, none = system.cg(b, 1e-8, 10000, x0=x)
        assert iters > 0 and none == 0
        assert again is not x and again.tobytes() == x.tobytes()

    @pytest.mark.parametrize("case", [closed_box_case, dam_case, box_3d_case],
                             ids=["closed-box", "dam", "box-3d"])
    def test_no_start_is_the_cold_start(self, rng, case):
        # also with the rhs as its own residual, the projector's first solve
        flags, bc, rhs = case(rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rhs)
        x, iters = system.cg(b, 1e-5, 10000, inf_tol=1e-4)
        for kw in (dict(x0=None), dict(r0=b.copy())):
            got, got_iters = system.cg(b, 1e-5, 10000, inf_tol=1e-4, **kw)
            assert got_iters == iters > 0 and got.tobytes() == x.tobytes()
        x_ref, iters_ref = frozen_cg(system, b, 1e-5, 10000, 1e-4)
        assert iters_ref == iters and x_ref.tobytes() == x.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(5, 5, 0), (0, 0, 0)], ids=["active", "solid"])
    def test_non_finite_start_raises(self, rng, bad, cell):
        flags, bc, rhs = closed_box_case(rng)
        system = PoissonSystem(flags, bc)
        x0 = np.zeros(flags.dims.shape)
        x0[cell] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected before the matvec meets it
            with pytest.raises(PoissonConvergenceError, match="non-finite") as exc:
                system.cg(system.prepare_rhs(rhs), 1e-5, 10000, x0=x0)
        assert exc.value.iterations == 0

    def test_start_without_residual_costs_one_apply(self, rng, monkeypatch):
        flags, bc, rhs = dam_case(rng)
        system = PoissonSystem(flags, bc)
        start, _ = system.cg(system.prepare_rhs(rhs), 1e-2, 10000)
        b = system.prepare_rhs(rhs + 0.1 * rng.standard_normal(rhs.shape))
        calls = counted_applies(monkeypatch)
        _, iters = system.cg(b, 1e-8, 10000, x0=start)
        assert iters > 0 and len(calls) == iters + 1

    def test_projector_warm_start_costs_no_apply(self, rng, monkeypatch):
        state, _ = build_scene(SceneSpec("dam", nx=40, ny=30))
        flags = state.flags
        eps = 1e-6
        projector = DivergenceProjector(flags, BcTable.from_flags(flags), CgConfig(eps, eps))
        calls = counted_applies(monkeypatch)
        for k in range(4):
            vel = random_velocity(flags.dims, rng, zero_wall_normals=True)
            out, iters, _ = projector.project(vel)
            assert len(calls) == iters and (iters > 0 or k > 0)
            calls.clear()
            div = divergence(out, flags).values[projector.system.active]
            assert np.abs(div).max() <= 10.0001 * eps
        # the kept A p is the system's matvec of the kept p up to rounding
        p, image = projector.pressure, projector._image
        np.testing.assert_allclose(image, projector.system.apply(p), rtol=0,
                                   atol=1e-12 * np.abs(image).max())

    def test_failed_projection_keeps_the_start(self, rng):
        # a solve that runs out of iterations leaves the kept p and A p as
        # they were, so the next solve is the one a projector that never
        # failed makes (648 fluid cells, so the coarsest grid is not grid 0
        # and one iteration does not solve)
        state, _ = build_scene(SceneSpec("dam", nx=64, ny=48))
        flags = state.flags
        eps = 1e-6
        first, second = (random_velocity(flags.dims, rng, zero_wall_normals=True)
                         for _ in range(2))
        projector = DivergenceProjector(flags, BcTable.from_flags(flags), CgConfig(eps, eps))
        projector.project(first)
        p, image = projector.pressure.tobytes(), projector._image.tobytes()
        cg, projector.cg = projector.cg, CgConfig(eps, eps, max_cg_iters=1)
        with pytest.raises(PoissonConvergenceError):
            projector.project(second)
        assert projector.pressure.tobytes() == p and projector._image.tobytes() == image
        projector.cg = cg
        out, iters, _ = projector.project(second)
        never = DivergenceProjector(flags, BcTable.from_flags(flags), CgConfig(eps, eps))
        never.project(first)
        ref, ref_iters, _ = never.project(second)
        assert iters == ref_iters > 1 and out.as_flat().tobytes() == ref.as_flat().tobytes()

    def test_kept_pressure_holds_no_work_vector(self, rng):
        # the kept p is an array of its own, not a view of CG's work buffer,
        # which would keep four more cell arrays alive
        flags = CellFlags.closed_box(GridDims(32, 32))
        projector = DivergenceProjector(flags, BcTable.from_flags(flags))
        projector.project(random_velocity(flags.dims, rng, zero_wall_normals=True))
        p = projector.pressure
        assert p.base is None or p.base.nbytes <= p.nbytes + 64

    def test_projectors_on_one_system_keep_their_own_start(self, rng):
        # two projectors on one carried system, alternated, give what each
        # gives alone on a system of its own
        state, _ = build_scene(SceneSpec("dam", nx=40, ny=30))
        flags = state.flags
        bc = BcTable.from_flags(flags)
        inputs = [[random_velocity(flags.dims, rng, zero_wall_normals=True)
                   for _ in range(3)] for _ in range(2)]

        def run(seq, projector):
            return [projector.project(v)[0].as_flat().tobytes() for v in seq]

        alone = [run(seq, DivergenceProjector(flags, bc)) for seq in inputs]
        carry = SolverCarry()
        first, second = (DivergenceProjector(flags, bc, carry=carry) for _ in range(2))
        assert first.system is second.system
        both = [[], []]
        for pair in zip(*inputs):
            for out, projector, v in zip(both, (first, second), pair):
                out.append(projector.project(v)[0].as_flat().tobytes())
        assert both == alone


# -- the coarsest grid's factor and the components without a Dirichlet face -------

def coarsest_matrix(flags, bc, monkeypatch):
    """Build a PoissonSystem and return it with the dense coarsest matrix
    and the number of null components its factor was given."""
    seen = []
    original = pressure._dense_inverse

    def spy(mat, null):
        seen.append((mat.copy(), len(null)))
        return original(mat, null)

    monkeypatch.setattr(pressure, "_dense_inverse", spy)
    system = PoissonSystem(flags, bc)
    (mat, nullity), = seen
    return system, mat, nullity


def pocket_pool_case():
    """A pool open to air over a 16x12 closed box, and a closed 2x2 pocket
    inside a solid block: a Dirichlet face exists, yet the pocket is an
    all-Neumann component of its own."""
    d = GridDims(16, 12, 1, 1.0 / 16)
    flags = CellFlags.closed_box(d)
    flags.values[1:-1, 7:-1, 0] = CellType.EMPTY
    flags.values[9:13, 1:5, 0] = CellType.SOLID
    flags.values[10:12, 2:4, 0] = CellType.FLUID
    pocket = np.zeros(d.shape, bool)
    pocket[10:12, 2:4, 0] = True
    return flags, BcTable.from_flags(flags), pocket


class TestCoarseFactor:
    """The coarsest grid: its inverse when nonsingular, its pseudo-inverse
    when a component has no Dirichlet face, told apart by the integer face
    counts."""

    def test_nonsingular_inverse(self, monkeypatch):
        flags = build_scene(SceneSpec("dam", nx=64, ny=48))[0].flags
        system, mat, nullity = coarsest_matrix(flags, BcTable.from_flags(flags), monkeypatch)
        dense = system.dense
        assert len(system.grids) > 1 and nullity == 0
        assert np.array_equal(dense, dense.T)
        assert np.abs(dense @ mat - np.eye(len(mat))).max() <= 1e-12

    def test_singular_pseudo_inverse(self, rng, monkeypatch):
        flags, bc = split_box_case(rng)
        system, mat, nullity = coarsest_matrix(flags, bc, monkeypatch)
        assert len(system.grids) > 1 and pressure._DENSE_CELLS == 256
        assert nullity == 2   # the two halves; the pocket dropped out coarser
        dense = system.dense
        assert np.array_equal(dense, dense.T)
        want = np.linalg.pinv(mat, hermitian=True)
        np.testing.assert_allclose(dense, want, rtol=0, atol=1e-12 * np.abs(want).max())
        # the constant on each half is the null space: M keeps it out
        w, v = np.linalg.eigh(mat)
        null = v[:, :2]
        assert np.abs(dense @ null).max() <= 1e-12 * np.abs(dense).max()

    def test_pocket_beside_a_pool(self, rng, monkeypatch):
        flags, bc, pocket = pocket_pool_case()
        system, mat, nullity = coarsest_matrix(flags, bc, monkeypatch)
        assert nullity == 1 and (system.active & ~pocket).any()
        assert [c.tolist() for c in system._components] == [np.flatnonzero(pocket).tolist()]
        b = system.prepare_rhs(rng.standard_normal(flags.dims.shape))
        assert abs(b[pocket].sum()) <= 1e-14 * np.abs(b[pocket]).sum()

    @pytest.mark.parametrize("n", [0, 1, pressure._LEAF, pressure._LEAF + 1, 219])
    def test_schur_inverse_against_lapack(self, n):
        # a 1-D Dirichlet Laplacian, condition ~ n^2 as a coarsest grid's;
        # up to the leaf size LAPACK's inverse itself, one split past it
        mat = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        got = pressure._dense_inverse(mat.copy(), [])
        want = reference_dense_inverse(mat, [], np.linalg.inv)
        assert got.shape == (n, n) and np.array_equal(got, got.T)
        if n <= pressure._LEAF:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["nonsingular", "pocket", "closed"])
    def test_coarsest_block_against_lapack(self, case, monkeypatch):
        # the recursion on real coarsest blocks, nonsingular and with null
        # sets: within 1e-12 of LAPACK's inverse of the shifted block,
        # exactly symmetric, and a generalized inverse, A X A = A
        if case == "nonsingular":
            flags = build_scene(SceneSpec("dam", nx=64, ny=48))[0].flags
            bc = BcTable.from_flags(flags)
        elif case == "pocket":
            flags, bc, _ = pocket_pool_case()
        else:
            flags = CellFlags.closed_box(GridDims(40, 30, 1, 1.0 / 40))
            bc = BcTable.from_flags(flags)
        system, mat, nullity = coarsest_matrix(flags, bc, monkeypatch)
        assert len(mat) > pressure._LEAF and nullity == (case != "nonsingular")
        null = reference_null_components(np.rint(mat * flags.dims.h ** 2))
        want = reference_dense_inverse(mat, null, np.linalg.inv)
        got = system.dense
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(mat @ got @ mat - mat).max() <= 1e-12 * np.abs(mat).max()


def assert_same_system(got, want, dense_rtol=None):
    """Two PoissonSystems array for array, byte for byte: every grid's
    counts, diag, smoother weights, stencil and (but the coarsest's)
    parent index, the active cells, the coarsest active cells and the
    components; the coarsest dense inverse too, or within dense_rtol of
    want's (max norm) when given."""
    for name in ("diag", "active", "_root", "_excess", "cells"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert [c.tobytes() for c in got._components] == [c.tobytes() for c in want._components]
    assert len(got.grids) == len(want.grids)
    for a, b in zip(got.grids, want.grids):
        for name in ("count", "diag", "wdinv"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert [(s, c.tobytes()) for s, c in a.stencil] == \
            [(s, c.tobytes()) for s, c in b.stencil]
    for a, b in zip(got.grids[:-1], want.grids[:-1]):
        assert a.parent.tobytes() == b.parent.tobytes()
    if dense_rtol is None:
        assert got.dense.tobytes() == want.dense.tobytes()
    else:
        assert np.array_equal(got.dense, got.dense.T)
        err = np.abs(got.dense - want.dense).max()
        assert err <= dense_rtol * np.abs(want.dense).max()


@pytest.fixture
def builds(monkeypatch):
    """The PoissonSystem constructions from here on, retag's rebuilds
    included."""
    seen = []
    original = PoissonSystem.__init__

    def counted(self, flags, bc):
        seen.append(1)
        original(self, flags, bc)

    monkeypatch.setattr(PoissonSystem, "__init__", counted)
    return seen


def pocket_and_cell_case():
    """A pool open to air over a 40x30 closed box, a closed 2x2 pocket in
    one solid block and a single FLUID cell in another, every wall face a
    free surface: the pocket's and the cell's faces are all wall faces."""
    d = GridDims(40, 30, 1, 1.0 / 40)
    flags = CellFlags.closed_box(d)
    flags.values[1:-1, 18:-1, 0] = CellType.EMPTY
    flags.values[20:26, 2:8, 0] = CellType.SOLID
    flags.values[22:24, 4:6, 0] = CellType.FLUID
    flags.values[30:33, 2:5, 0] = CellType.SOLID
    flags.values[31, 3, 0] = CellType.FLUID
    faces = BoundaryFaces(flags)
    pocket = np.isin(faces.cell, np.ravel_multi_index(([22, 22, 23, 23], [4, 5, 4, 5], 0),
                                                      d.shape))
    cell = faces.cell == np.ravel_multi_index((31, 3, 0), d.shape)
    return flags, free_surface_walls_table(flags), faces, pocket, cell


class TestRetag:
    """PoissonSystem.retag against a fresh build of the retagged table:
    every level bit for bit and the coarsest inverse within 1e-12 after a
    sweep cap's worth of retags, and a bit-for-bit rebuild when the active
    cells or a component's Dirichlet status move."""

    @pytest.mark.parametrize("spec", [SceneSpec("dam", nx=80, ny=60),
                                      SceneSpec("dam", nx=40, ny=30),
                                      SceneSpec("dam", nx=16, ny=14, nz=12)],
                             ids=["2d", "2d-one-grid", "3d"])
    def test_random_sequences_match_a_rebuild(self, spec, builds):
        flags = build_scene(spec)[0].flags
        rng = np.random.default_rng(spec.nx)
        faces = BoundaryFaces(flags)
        bc = classified_walls_table(flags, wall_set(flags, faces, rng.random(len(faces)) < 0.5))
        system = PoissonSystem(flags, bc)
        levels = len(system.grids) - 1
        assert levels == {80: 2, 40: 0, 16: 1}[spec.nx]
        directions = set()
        for _ in range(MAX_SWEEPS):
            pick = rng.choice(len(faces), size=int(rng.integers(1, 30)), replace=False)
            tags = np.where(bc.tags[faces.index[pick]] == FaceTag.NEUMANN,
                            FaceTag.DIRICHLET, FaceTag.NEUMANN)
            directions.update(tags.tolist())
            system.retag(flags, bc, faces.index[pick], faces.cell[pick], tags)
            assert len(builds) == 1   # every retag in place
            assert_same_system(system, PoissonSystem(flags, bc), dense_rtol=1e-12)
            builds.pop()
        assert directions == {FaceTag.NEUMANN, FaceTag.DIRICHLET}

    @pytest.mark.parametrize("which", ["cell", "pocket"])
    def test_rebuilds_when_a_cell_or_component_closes(self, which, builds):
        # the cell: count 0 with every face Neumann, so inactive; the pocket:
        # no Dirichlet face left, so singular.  Both ways round.
        flags, bc, faces, pocket, cell = pocket_and_cell_case()
        walls = np.flatnonzero(cell if which == "cell" else pocket)
        system = PoissonSystem(flags, bc)
        assert len(system.grids) > 1 and system._components == []

        def retag(pick, tag):
            system.retag(flags, bc, faces.index[pick], faces.cell[pick], tag)

        retag(walls[:-1], FaceTag.NEUMANN)
        assert len(builds) == 1
        assert_same_system(system, PoissonSystem(flags, bc), dense_rtol=1e-12)
        builds.pop()
        retag(walls[-1:], FaceTag.NEUMANN)
        assert len(builds) == 2   # the rebuild in place
        assert_same_system(system, PoissonSystem(flags, bc))
        if which == "cell":
            assert not system.active.reshape(-1)[faces.cell[walls]].any()
        else:
            assert [c.tolist() for c in system._components] == \
                [np.unique(faces.cell[walls]).tolist()]
        retag(walls[-1:], FaceTag.DIRICHLET)
        assert len(builds) == 4
        assert_same_system(system, PoissonSystem(flags, bc))

    def test_rebuilds_when_more_than_a_leaf_of_coarsest_cells_move(self, builds):
        # the SMW step hands LAPACK at most _LEAF rows; past that, retag
        # rebuilds in place.  A 32^2 box strewn with obstacles: every wall
        # face of an active cell turns Dirichlet, so no component crosses
        # the component rule, and 208 coarsest cells move.
        d = GridDims(32, 32)
        values = CellFlags.closed_box(d).values
        values[1:-1, 1:-1][np.random.default_rng(0).random((30, 30)) < 0.15] = CellType.SOLID
        values[1:-1, -2] = CellType.EMPTY
        flags = CellFlags(d, values)
        bc = BcTable.from_flags(flags)
        system = PoissonSystem(flags, bc)
        assert system._components == []
        faces = BoundaryFaces(flags)
        pick = np.flatnonzero((bc.tags[faces.index] == FaceTag.NEUMANN)
                              & system.active.reshape(-1)[faces.cell])
        cells = faces.cell[pick]
        for grid in system.grids[:-1]:
            cells = np.unique(grid.parent[cells])
            cells = cells[cells < grid.coarse.size - 1]
        assert cells.size > pressure._LEAF
        system.retag(flags, bc, faces.index[pick], faces.cell[pick], FaceTag.DIRICHLET)
        assert len(builds) == 2
        assert_same_system(system, PoissonSystem(flags, bc))

    def test_rejects_a_face_it_cannot_retag(self):
        flags, bc, faces, pocket, cell = pocket_and_cell_case()
        system = PoissonSystem(flags, bc)
        before = bc.tags.copy()
        interior = int(np.flatnonzero(bc.tags == FaceTag.INTERIOR)[0])
        for face, fluid, tag in [(interior, 0, FaceTag.NEUMANN),   # not a wall face
                                 (faces.index[0], faces.cell[0], FaceTag.INTERIOR),
                                 (faces.index[0], 0, FaceTag.NEUMANN)]:   # a SOLID cell
            with pytest.raises(ValueError, match="wall faces"):
                system.retag(flags, bc, np.array([face]), np.array([fluid]), tag)
        # a repeated face: its step would count twice but its tag be written once
        with pytest.raises(ValueError, match="wall faces"):
            system.retag(flags, bc, faces.index[[3, 3]], faces.cell[[3, 3]],
                         [FaceTag.NEUMANN, FaceTag.NEUMANN])
        assert bc.tags.tobytes() == before.tobytes()
        assert_same_system(system, PoissonSystem(flags, bc))

    def test_projector_retag_shares_the_table_and_keeps_the_start(self, rng, monkeypatch):
        # a retag keeps the last pressure as the next solve's start, and the
        # kept A p follows the retagged operator: by the diagonal change in
        # place (no apply), by one apply after a rebuild
        flags, bc, faces, pocket, cell = pocket_and_cell_case()
        eps = 1e-6
        projector = DivergenceProjector(flags, bc, CgConfig(eps, eps))
        vel = random_velocity(flags.dims, rng, zero_wall_normals=True)
        projector.project(vel)
        p = projector.pressure
        assert p is not None
        calls = counted_applies(monkeypatch)
        walls = np.flatnonzero(pocket)
        for pick, applies in ((walls[:-1], 0), (walls[-1:], 1)):   # in place, rebuild
            projector.retag(faces.index[pick], faces.cell[pick], FaceTag.NEUMANN)
            assert len(calls) == applies
            calls.clear()
            assert projector.pressure is p
            image = projector._image
            np.testing.assert_allclose(image, projector.system.apply(p), rtol=0,
                                       atol=1e-12 * np.abs(image).max())
            calls.clear()
        walls = faces.index[pocket]
        assert (projector.bc.tags[walls] == FaceTag.NEUMANN).all()
        vel.as_flat()[walls] = rng.standard_normal(walls.size)
        out, iters, _ = projector.project(vel)
        # the gradient read the retagged table: the new Neumann faces kept u
        assert out.as_flat()[walls].tobytes() == vel.as_flat()[walls].tobytes()
        fresh = DivergenceProjector(flags, BcTable(flags.dims, bc.tags.copy()),
                                    CgConfig(eps, eps)).project(vel)[0]
        np.testing.assert_allclose(out.as_flat(), fresh.as_flat(), rtol=0, atol=1e-4)


def grid_arrays(system):
    """Every array the build of `system` holds per grid: diag, counts,
    smoother weights, scratch, parent index, coarse correction and the
    stencil coefficients."""
    for grid in system.grids:
        yield from (a for a in vars(grid).values() if isinstance(a, np.ndarray))
        yield from (conn for _, conn in grid.stencil)


def assert_aligned(arrays):
    arrays = list(arrays)
    assert arrays and [a.ctypes.data % 64 for a in arrays] == [0] * len(arrays)


class TestAlignedArrays:
    """The pressure kernels run on arrays that start on 64-byte boundaries
    (numpy's own are 16-byte aligned), from a fresh build, after a retag
    in place or a rebuild, and in CG's work vectors."""

    @pytest.mark.parametrize("spec", [SceneSpec("dam", nx=80, ny=60),
                                      SceneSpec("dam", nx=16, ny=14, nz=12)],
                             ids=["2d", "3d"])
    def test_grid_arrays_after_build_and_retag(self, spec, builds):
        flags = build_scene(spec)[0].flags
        rng = np.random.default_rng(spec.nx)
        faces = BoundaryFaces(flags)
        bc = classified_walls_table(flags, wall_set(flags, faces, rng.random(len(faces)) < 0.5))
        system = PoissonSystem(flags, bc)
        assert len(system.grids) > 1
        assert_aligned(grid_arrays(system))
        pick = rng.choice(len(faces), size=20, replace=False)
        tags = np.where(bc.tags[faces.index[pick]] == FaceTag.NEUMANN,
                        FaceTag.DIRICHLET, FaceTag.NEUMANN)
        system.retag(flags, bc, faces.index[pick], faces.cell[pick], tags)
        assert len(builds) == 1   # in place
        assert_aligned(grid_arrays(system))

    def test_grid_arrays_after_a_rebuild_in_place(self, builds):
        flags, bc, faces, pocket, cell = pocket_and_cell_case()
        system = PoissonSystem(flags, bc)
        walls = np.flatnonzero(cell)
        system.retag(flags, bc, faces.index[walls], faces.cell[walls], FaceTag.NEUMANN)
        assert len(builds) == 2
        assert_aligned(grid_arrays(system))

    @pytest.mark.parametrize("shape", [(13, 11, 1), (7, 5, 3)], ids=["2d", "3d"])
    def test_cg_work_vectors(self, shape, rng):
        d = GridDims(*shape)
        flags = CellFlags.closed_box(d)
        system = PoissonSystem(flags, BcTable.from_flags(flags))
        seen = []

        def apply(p, out):
            seen.extend((p, out))
            return system.apply(p, out)

        def precondition(r, z):
            seen.append(z)
            return system._precondition(r, z)

        b = system.prepare_rhs(rng.standard_normal(d.shape))
        x, iters = pressure._pcg(apply, b, 1e-8, 1.0, 100, precondition)
        assert iters >= 1
        assert_aligned(seen + [x])
        # x, z, d and A d are four different vectors
        assert len({a.ctypes.data for a in seen + [x]}) == 4


class TestRebuildRule:
    """The invariant that lets retag rebuild on the component rule alone,
    on fresh builds only: over seeded random Neumann/Dirichlet flips of wall
    faces, a grid's active cells or a parent index's zero slot move only
    when the singular components move too (an inactive cell counted as a
    one-cell component of excess 0, as retag counts it)."""

    @staticmethod
    def shape(system):
        singular = system._excess[system._root] == 0
        grids = [g.count > 0 for g in system.grids]
        grids += [g.parent == g.coarse.size - 1 for g in system.grids[:-1]]
        return singular, grids

    @staticmethod
    def flips(case):
        """The flags and the table, then the same after each of 60 seeded
        random Neumann/Dirichlet flips of wall faces (in the other cases
        than the dams, only of the faces their comments name), the table
        in place."""
        rng = np.random.default_rng(20)
        if case == "pocket-and-cell":
            # flips of the pocket's and the single cell's faces only
            flags, bc, faces, pocket, cell = pocket_and_cell_case()
            pool = np.flatnonzero(pocket | cell)
        elif case == "closed":
            # a closed all-Neumann 24^2 box, one component, flips on one wall
            flags = CellFlags.closed_box(GridDims(24, 24))
            bc, faces = BcTable.from_flags(flags), BoundaryFaces(flags)
            x, _, _ = np.unravel_index(faces.cell, flags.dims.shape)
            pool = np.flatnonzero(x == 1)
        elif case == "diagonal":
            # a closed 24^2 box cut along its diagonal by a staircase of
            # solid cells: two all-Neumann halves whose cells share the
            # coarse aggregates on the diagonal; flips on one half only
            flags = CellFlags.closed_box(GridDims(24, 24))
            flags.values[np.arange(1, 23), np.arange(1, 23), 0] = CellType.SOLID
            bc, faces = BcTable.from_flags(flags), BoundaryFaces(flags)
            x, y, _ = np.unravel_index(faces.cell, flags.dims.shape)
            pool = np.flatnonzero(x > y)
        else:
            spec = {"2d": SceneSpec("dam", nx=80, ny=60),
                    "3d": SceneSpec("dam", nx=16, ny=14, nz=12)}[case]
            flags = build_scene(spec)[0].flags
            faces = BoundaryFaces(flags)
            bc = classified_walls_table(flags, wall_set(flags, faces,
                                                        rng.random(len(faces)) < 0.5))
            pool = np.arange(len(faces))
        yield flags, bc
        for _ in range(60):
            pick = faces.index[rng.choice(pool, size=int(rng.integers(1, 12)), replace=False)]
            bc.tags[pick] = np.where(bc.tags[pick] == FaceTag.NEUMANN,
                                     FaceTag.DIRICHLET, FaceTag.NEUMANN)
            yield flags, bc

    @pytest.mark.parametrize("case", ["2d", "3d", "pocket-and-cell"])
    def test_grids_move_only_with_the_singular_components(self, case):
        tables = self.flips(case)
        before = self.shape(PoissonSystem(*next(tables)))
        assert len(before[1]) > 1   # at least one coarse grid
        moved = 0
        for flags, bc in tables:
            after = self.shape(PoissonSystem(flags, bc))
            if len(before[1]) != len(after[1]) or not all(
                    np.array_equal(a, b) for a, b in zip(before[1], after[1])):
                moved += 1
                assert not np.array_equal(before[0], after[0])
            before = after
        if case == "pocket-and-cell":
            assert moved >= 5   # the premise is met, not only vacuously true

    @pytest.mark.parametrize("case", ["2d", "3d", "pocket-and-cell", "closed", "diagonal"])
    def test_coarse_null_sets_are_the_hooking_passes(self, case, monkeypatch):
        # the coarsest grid's singular components, carried from grid 0's
        # through the parent indices, are those a hooking pass over the
        # coarsest grid's own couplings finds
        null, original = [], pressure._dense_inverse
        monkeypatch.setattr(pressure, "_dense_inverse",
                            lambda mat, sets: null.extend(sets) or original(mat, sets))
        singular = merged = 0
        for flags, bc in self.flips(case):
            null.clear()
            system = PoissonSystem(flags, bc)
            coarsest, h2 = system.grids[-1], flags.dims.h ** 2
            assert len(system.grids) > 1
            stencil = [(s, np.rint(c * h2)) for s, c in coarsest.stencil]
            want = pressure._singular_components(coarsest.count > 0, coarsest.count,
                                                 stencil)[0]
            assert sorted(system.cells[c].tolist() for c in null) == \
                sorted(c.tolist() for c in want)
            singular += len(want) == 1
            merged += len(system._components) == 1 and not want
        if case in ("closed", "diagonal"):   # the premise is met
            assert singular > 0
        if case == "diagonal":
            # the halves merge into one singular set, and a singular half
            # merged with a nonsingular one is not singular
            assert merged > 0


class TestNeumannPocket:
    """A closed all-Neumann pocket is made compatible even when a Dirichlet
    face exists elsewhere; without that, CG overflowed on the pocket's
    incompatible rhs."""

    def test_project(self, rng):
        flags, bc, pocket = pocket_pool_case()
        vel = random_velocity(flags.dims, rng, zero_wall_normals=True)
        eps = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(vel, flags, bc, eps)
        div_in = divergence(vel, flags).values
        div = divergence(out, flags).values
        pool = flags.fluid & ~pocket
        assert np.abs(div[pool]).max() <= 10 * eps
        # the pocket keeps only its mean divergence, set by its wall flux
        assert div[pocket].mean() == pytest.approx(div_in[pocket].mean(), rel=1e-6)
        assert np.abs(div[pocket] - div[pocket].mean()).max() <= 2 * 10 * eps


class TestSystemCache:
    """DivergenceProjector takes the PoissonSystem that a caller's SolverCarry
    holds while its key, the content of the flags and the table, matches;
    otherwise it builds one and leaves it on the carry."""

    def test_equal_content_hits(self):
        d = GridDims(12, 10)
        flags = CellFlags.closed_box(d)
        carry = SolverCarry()
        first = DivergenceProjector(flags, BcTable.from_flags(flags), carry=carry).system
        assert carry.system is first
        again = CellFlags(d, flags.values.copy())
        assert DivergenceProjector(again, BcTable.from_flags(again), carry=carry).system is first
        # without a carry a projector builds its own
        assert DivergenceProjector(again, BcTable.from_flags(again)).system is not first

    def test_changed_in_place_misses(self):
        d = GridDims(12, 10)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        carry = SolverCarry()
        first = DivergenceProjector(flags, bc, carry=carry).system
        _face_views(d, bc.tags)[0][4, 4, 0] = FaceTag.DIRICHLET
        second = DivergenceProjector(flags, bc, carry=carry).system
        assert second is not first and second._components == []
        assert carry.system is second
        flags.values[5, 5, 0] = CellType.SOLID
        third = DivergenceProjector(flags, bc, carry=carry).system
        assert third is not second and not third.active[5, 5, 0]

    def test_retag_moves_the_key(self):
        flags, bc, faces, pocket, cell = pocket_and_cell_case()
        before = BcTable(flags.dims, bc.tags.copy())
        carry = SolverCarry()
        projector = DivergenceProjector(flags, bc, carry=carry)
        retagged = projector.system
        projector.retag(faces.index[pocket][:3], faces.cell[pocket][:3], FaceTag.NEUMANN)
        assert retagged.key == pressure._key(flags, bc)
        after = BcTable(flags.dims, bc.tags.copy())
        assert DivergenceProjector(flags, after, carry=carry).system is retagged
        # a projector with the pre-retag content gets a fresh system
        old = DivergenceProjector(flags, before, carry=carry).system
        assert old is not retagged and carry.system is old
        assert_same_system(old, PoissonSystem(flags, before))
        # and the old content's system did not become the retagged one
        assert old.diag.tobytes() != retagged.diag.tobytes()

    def test_guided_frames_build_once(self, builds):
        state, cfg = build_scene(SceneSpec("circular", nx=16, ny=16))
        u = state.vel
        for _ in range(2):
            u = guide_step(u, cfg, dual=state.carry)
        assert len(builds) == 1
        guide_step(u, cfg)   # no carry: a system of its own
        assert len(builds) == 2
