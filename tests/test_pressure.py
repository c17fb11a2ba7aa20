import numpy as np
import pytest

from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, cell_centers, divergence)
from pdfluids.guiding import guide_step
from pdfluids.pressure import (AdaptiveCgController, BcTable, CgConfig,
                               DivergenceProjector, FaceTag,
                               PoissonConvergenceError, PoissonSystem,
                               adapt_cg_tolerance, project, solve_poisson,
                               subtract_gradient)
from pdfluids.scenes import (SceneSpec, build_scene, liquid_begin_step,
                             liquid_pressure_solve)

from conftest import random_velocity


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
        bc = BcTable.from_flags(flags, wall_faces=FaceTag.DIRICHLET)
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

    def test_iteration_cap_error_carries_residual(self, rng):
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
        vel = subtract_gradient(VelocityField.zeros(d), phi, flags, bc)
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
        bc.set_face(0, (3, 3, 0), FaceTag.DIRICHLET)
        vel = random_velocity(d, rng)
        rhs = divergence(vel, flags)
        p = solve_poisson(rhs, flags, bc, 1e-10)
        mat, sys_ = dense_laplacian(flags, bc)
        act = sys_.active.ravel()
        expect = np.zeros(d.cell_count)
        expect[act] = np.linalg.solve(mat[np.ix_(act, act)], -rhs.values.ravel()[act])
        err = np.linalg.norm(p.values.ravel() - expect) / max(np.linalg.norm(expect), 1.0)
        assert err < 1e-6


class TestAdaptiveController:
    def test_far_above_threshold_unchanged(self):
        c = AdaptiveCgController(1e-2, 1e-5)
        out = adapt_cg_tolerance(c, residual_z=1.0, eps_stop=1e-3)
        assert out == 1e-2

    def test_trigger_drops_one_decade(self):
        c = AdaptiveCgController(1e-2, 1e-5)
        out = adapt_cg_tolerance(c, residual_z=9e-3, eps_stop=1e-3)
        assert out == pytest.approx(1e-3)

    def test_repeated_triggers_clamp_at_final(self):
        c = AdaptiveCgController(1e-2, 1e-5)
        for _ in range(10):
            out = adapt_cg_tolerance(c, residual_z=0.0, eps_stop=1.0)
        assert out == pytest.approx(1e-5)
        assert c.at_final

    def test_validation(self):
        with pytest.raises(ValueError):
            CgConfig(eps_start=1e-6, eps_final=1e-2)


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
        vel, _ = liquid_begin_step(state)
        fl = state.flags.fluid
        i, j, k = np.argwhere(fl[1:] & fl[:-1])[0]   # x-face between two FLUID cells
        vel.u[i + 1, j, k] = bad
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
        vel, _ = liquid_begin_step(state)
        em = state.flags.values == CellType.EMPTY
        i, j, k = np.argwhere(em[1:] & em[:-1])[0]   # x-face between two EMPTY cells
        vel.u[i + 1, j, k] = bad
        with pytest.raises(PoissonConvergenceError):
            liquid_pressure_solve(vel, state.flags, mode)

    def test_guide_step(self, bad):
        state, cfg = build_scene(SceneSpec("circular", nx=16, ny=16))
        u = state.vel.copy()
        u.u[8, 8, 0] = bad
        with pytest.raises(PoissonConvergenceError):
            guide_step(u, cfg)


# -- the allocating Jacobi-PCG loop, kept as a bitwise reference ---------------

def reference_apply(flags, bc, system, p):
    """A p as the stencil computed it before the slices were precomputed."""
    inv_h2 = 1.0 / (flags.dims.h * flags.dims.h)
    out = system.diag * p
    for axis in flags.dims.axes:
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        inner = [slice(None)] * 3
        lo[axis], hi[axis], inner[axis] = slice(None, -1), slice(1, None), slice(1, -1)
        conn = (bc.tags[axis][tuple(inner)] == FaceTag.INTERIOR).astype(np.float64) * inv_h2
        out[tuple(lo)] -= conn * p[tuple(hi)]
        out[tuple(hi)] -= conn * p[tuple(lo)]
    out[~system.active] = 0.0
    return out


def reference_cg(flags, bc, system, b, eps, max_iters, inf_tol=None):
    """The CG loop with fresh arrays on every iteration; returns (x, iters)
    or raises PoissonConvergenceError like PoissonSystem.cg."""
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
    z = r * system.inv_diag
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
        z = r * system.inv_diag
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


class TestCgBitwise:
    @pytest.mark.parametrize("case", [closed_box_case, dam_case, box_3d_case],
                             ids=["closed-box", "dam", "box-3d"])
    @pytest.mark.parametrize("inf_tol", [None, 1e-4])
    def test_matches_reference(self, rng, case, inf_tol):
        flags, bc, rhs = case(rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rhs)
        assert system.has_dirichlet == (case is dam_case)
        x, iters = system.cg(b, 1e-5, 10000, inf_tol=inf_tol)
        x_ref, iters_ref = reference_cg(flags, bc, system, b, 1e-5, 10000,
                                        inf_tol=inf_tol)
        assert iters == iters_ref > 0
        assert x.tobytes() == x_ref.tobytes()

    def test_cap_raises_at_the_reference_iteration(self, rng):
        flags, bc, rhs = closed_box_case(rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rhs)
        with pytest.raises(PoissonConvergenceError) as got:
            system.cg(b, 1e-12, 7)
        with pytest.raises(PoissonConvergenceError) as want:
            reference_cg(flags, bc, system, b, 1e-12, 7)
        assert got.value.iterations == want.value.iterations == 7
        assert got.value.residual == want.value.residual

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
