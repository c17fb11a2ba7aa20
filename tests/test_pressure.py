import itertools
import math
import warnings

import numpy as np
import pytest

from pdfluids import pressure
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _along, _face_views, cell_centers,
                             divergence)
from pdfluids.guiding import guide_step
from pdfluids.pressure import (BcTable, CgConfig, DivergenceProjector, FaceTag,
                               PoissonConvergenceError, PoissonSystem, project,
                               subtract_gradient)
from pdfluids.scenes import (SceneSpec, build_scene, liquid_begin_step,
                             liquid_pressure_solve)
from pdfluids.separating import BcState, classified_walls_table

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
        vel, _ = liquid_begin_step(state)
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
        vel, _ = liquid_begin_step(state)
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


def box_rhs(n, seed=0):
    d = GridDims(n, n)
    flags = CellFlags.closed_box(d)
    system = PoissonSystem(flags, BcTable.from_flags(flags))
    return flags, system, system.prepare_rhs(np.random.default_rng(seed).standard_normal(d.shape))


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
        assert system.has_dirichlet == (case is dam_case)
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

    def test_cap_raises_at_the_reference_iteration(self, rng):
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
    state = BcState.initial(flags)
    state.nsep[:] = rng.random(len(state.nsep)) < 0.5
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


def dense_from_stencil(diag, stencil):
    """Dense matrix of the flat Laplacian (diag, [(stride, conn)])."""
    mat = np.diag(diag)
    for s, conn in stencil:
        i = np.arange(conn.size)
        mat[i, i + s] -= conn
        mat[i + s, i] -= conn
    return mat


class TestMultigridPreconditioner:
    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_symmetric_positive_and_zero_off_active(self, rng, name):
        flags, bc = PRECONDITIONER_CASES[name](rng)
        system = PoissonSystem(flags, bc)
        assert system._multigrid.levels   # at least one coarse grid
        act = system.active
        for _ in range(5):
            a = np.where(act, rng.standard_normal(act.shape), 0.0)
            b = np.where(act, rng.standard_normal(act.shape), 0.0)
            ma = system._precondition(a, np.empty_like(a))
            mb = system._precondition(b, np.empty_like(b))
            scale = np.linalg.norm(ma) * np.linalg.norm(b)
            assert abs(np.vdot(ma, b) - np.vdot(a, mb)) <= 1e-13 * scale
            assert np.vdot(ma, a) > 0.0
            assert not ma[~act].any()

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_coarse_operators_are_galerkin_products(self, rng, name):
        # each coarse operator against P^T A P, with A the next finer grid's
        # operator and P the 0/1 pairing matrix built here from the shapes
        flags, bc = PRECONDITIONER_CASES[name](rng)
        system = PoissonSystem(flags, bc)
        mg = system._multigrid
        grids = [(system.diag.reshape(-1), system._stencil)]
        grids += [(lv.diag, lv.stencil) for lv in mg.levels[1:]]
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
            else:   # the coarsest grid keeps the pseudo-inverse of its active block
                off = np.ones(want.shape[0], bool)
                off[mg.cells] = False
                assert not want[off].any() and not want[:, off].any()
                block = want[np.ix_(mg.cells, mg.cells)]
                got, want = mg.dense, np.linalg.pinv(block, hermitian=True)
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
        iters = {}
        for n in (64, 128, 256):
            _, system, b = box_rhs(n)
            iters[n] = system.cg(b, 1e-5, 10000)[1]
        assert max(iters.values()) <= 20
        assert iters[256] <= 1.5 * iters[64]


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
        self.dense = np.linalg.pinv(mat * inv_h2, hermitian=True)

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
    def test_apply_and_precondition(self, rng, name):
        flags, bc = PRECONDITIONER_CASES[name](rng)
        system = PoissonSystem(flags, bc)
        ref = ReferenceMultigrid(flags, bc)
        assert len(system._multigrid.levels) == len(ref.levels) > 0
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
    def test_cg(self, rng, name, inf_tol):
        flags, bc = PRECONDITIONER_CASES[name](rng)
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
    def test_cg(self, rng, name, inf_tol):
        flags, bc = PRECONDITIONER_CASES[name](rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rng.standard_normal(flags.dims.shape))
        x, iters = system.cg(b, 1e-5, 10000, inf_tol=inf_tol)
        x_ref, iters_ref = frozen_cg(system, b, 1e-5, 10000, inf_tol)
        assert iters == iters_ref > 0
        assert x.tobytes() == x_ref.tobytes()

    @pytest.mark.parametrize("name", list(PRECONDITIONER_CASES))
    def test_cap_raise(self, rng, name):
        flags, bc = PRECONDITIONER_CASES[name](rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(rng.standard_normal(flags.dims.shape))
        with pytest.raises(PoissonConvergenceError) as got:
            system.cg(b, 1e-12, 3)
        with pytest.raises(PoissonConvergenceError) as want:
            frozen_cg(system, b, 1e-12, 3)
        assert got.value.iterations == want.value.iterations == 3
        assert got.value.residual == want.value.residual


class TestSystemCache:
    """DivergenceProjector takes the one cached PoissonSystem, keyed on the
    content of the flags and the table."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(pressure, "_cached", None)

    def test_equal_content_hits(self):
        d = GridDims(12, 10)
        flags = CellFlags.closed_box(d)
        first = DivergenceProjector(flags, BcTable.from_flags(flags)).system
        again = CellFlags(d, flags.values.copy())
        assert DivergenceProjector(again, BcTable.from_flags(again)).system is first

    def test_changed_in_place_misses(self):
        d = GridDims(12, 10)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        first = DivergenceProjector(flags, bc).system
        _face_views(d, bc.tags)[0][4, 4, 0] = FaceTag.DIRICHLET
        second = DivergenceProjector(flags, bc).system
        assert second is not first and second.has_dirichlet
        flags.values[5, 5, 0] = CellType.SOLID
        third = DivergenceProjector(flags, bc).system
        assert third is not second and not third.active[5, 5, 0]

    def test_guided_frames_build_once(self, monkeypatch):
        state, cfg = build_scene(SceneSpec("circular", nx=16, ny=16))
        builds = []
        original = PoissonSystem.__init__

        def counted(self, flags, bc):
            builds.append(1)
            original(self, flags, bc)

        monkeypatch.setattr(PoissonSystem, "__init__", counted)
        u = state.vel
        for _ in range(2):
            u = guide_step(u, cfg)
        assert len(builds) == 1
