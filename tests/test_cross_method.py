"""Cross-method and trend tests that cut across modules."""

import numpy as np
import pytest

from pdfluids.fields import CellFlags, CellType, GridDims, ScalarField, VelocityField
from pdfluids.guiding import (GuidingConfig, GuidingProxExact, GuidingQuadratic,
                              direct_least_squares, guide_step,
                              split_scalar_field)
from pdfluids.optim import (AdmmParams, ConvergenceLog, PdParams, ProxOperator,
                            admm_solve, iop_solve, pd_solve)
from pdfluids.pressure import BcTable, CgConfig, DivergenceProjector, project
from pdfluids.scenes import (SceneSpec, build_scene, liquid_step, smoke_step)
from pdfluids.separating import (BcState, SeparatingProx, classify,
                                 free_surface_walls_table,
                                 solve_separating_standard, violation_norm)

from conftest import random_velocity, zero_solid_adjacent
from test_optim import IdentityProx, guiding_instance, make_projector


class ClassifyingProx(ProxOperator):
    """Classify the argument, then zero the non-separating normals: the
    separating projection for IOP, which has no z-update hook."""

    is_orthogonal_projection = True

    def __init__(self, state):
        self.state = state
        self.project = SeparatingProx(state)

    def __call__(self, sigma, v):
        classify(v, self.state)
        return self.project(sigma, v)


class TestAdmmBasics:
    def test_identity_prox_converges_to_projection(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        z0 = zero_solid_adjacent(random_velocity(d, rng), flags)
        log = ConvergenceLog()
        z = admm_solve(IdentityProx(), make_projector(flags, 1e-9),
                       AdmmParams(rho=1.0, max_iters=100,
                                  eps_abs=1e-8, eps_rel=1e-8), z0, log)
        ref, _, _ = make_projector(flags, 1e-9).project(z0)
        assert log.converged
        assert (z - ref).norm() <= 1e-6 * max(ref.norm(), 1.0)


class TestThreeMethodAgreement:
    def test_all_methods_agree_when_iop_is_valid(self, rng):
        # zero blur radius and uniform weights make the quadratic isotropic,
        # the one regime where alternating projections land on the true
        # constrained minimizer too
        d, flags, cfg = guiding_instance(8, rng, w=1.0, r=0.0)
        eps = 1e-7
        params_pd = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3,
                             max_iters=4000, eps_abs=eps, eps_rel=eps)
        params_admm = AdmmParams(rho=1.4, max_iters=8000, eps_abs=eps, eps_rel=eps)
        logs = [ConvergenceLog() for _ in range(3)]
        z_pd = pd_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                        params_pd, cfg.u_current, logs[0])
        z_admm = admm_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                            params_admm, cfg.u_current, logs[1])
        z_iop = guide_step(cfg.u_current, cfg, method="iop", log=logs[2])
        assert logs[0].converged and logs[1].converged and logs[2].converged
        tol = 3.0 * max(log.epsilons[-1] for log in logs)
        assert (z_pd - z_admm).norm() <= tol
        assert (z_pd - z_iop).norm() <= tol
        assert (z_admm - z_iop).norm() <= tol


class TestIopOnBoundaryProblem:
    def test_iop_matches_standard_pd_on_small_dam_step(self):
        # one intermediate state of a small dam; both solvers run the
        # separating projection pair and should land on the same fixed point
        spec = SceneSpec("dam", nx=16, ny=16, fill_fraction=0.4,
                         fill_height=0.6, seed=4)
        state, _ = build_scene(spec)
        for _ in range(3):
            liquid_step(state, mode="separating-accelerated")
        from pdfluids.scenes import liquid_begin_step
        vel, _ = liquid_begin_step(state)
        flags = state.flags

        params = PdParams(tau=1.0, sigma=1.0, theta=1.0, max_iters=3000,
                          eps_abs=1e-6, eps_rel=1e-6)
        log_pd = ConvergenceLog()
        out_pd = solve_separating_standard(vel, flags, params=params,
                                           log=log_pd)
        st = BcState.initial(flags, eps=1e-5)
        classify(vel, st)
        prox = ClassifyingProx(st)
        projector = DivergenceProjector(flags, free_surface_walls_table(flags),
                                        CgConfig(1e-8, 1e-8))
        log_iop = ConvergenceLog()
        out_iop = iop_solve(prox, projector, vel, log_iop, krylov=True,
                            eps_abs=1e-6, eps_rel=1e-6, max_iters=3000,
                            krylov_error=violation_norm(st))
        assert log_pd.converged and log_iop.converged
        scale = max(vel.norm(), 1.0)
        assert (out_pd - out_iop).norm() / scale < 1e-3


class TestDirectSolverCost:
    def test_direct_cg_needs_over_100x_pd_iterations(self, rng):
        # stacked least-squares baseline on a 128^2 circular instance: cap its
        # CG at 100x the PD outer-iteration count and show it is still far
        # from tolerance
        d, flags, cfg = guiding_instance(128, rng)
        log = ConvergenceLog()
        guide_step(cfg.u_current, cfg, method="pd", log=log)
        assert log.converged
        pd_iters = len(log)
        cap = 100 * pd_iters
        with pytest.raises(RuntimeError, match="did not converge"):
            direct_least_squares(cfg, tol=1e-8, max_iters=cap)


class TestTornado3d:
    def test_small_3d_guided_run(self):
        spec = SceneSpec("tornado", nx=12, ny=18, nz=12, omega=1.0,
                         updraft=0.15, radius_left=1.0, radius_right=1.0)
        state, cfg = build_scene(spec)
        assert cfg is not None
        for _ in range(2):
            cfg = cfg.with_current(state.vel)
            smoke_step(state, cfg)
            assert state.last_log.converged
        state.vel.validate_finite()
        # swirl about the vertical axis develops: angular momentum in the
        # horizontal plane about the center grows from zero
        d = spec.dims
        uc = 0.5 * (state.vel.u[:-1, :, :] + state.vel.u[1:, :, :])
        wc = 0.5 * (state.vel.w[:, :, :-1] + state.vel.w[:, :, 1:])
        X, _, Z = np.meshgrid((np.arange(d.nx) + 0.5) * d.h,
                              (np.arange(d.ny) + 0.5) * d.h,
                              (np.arange(d.nz) + 0.5) * d.h, indexing="ij")
        rx = X - 0.5 * d.nx * d.h
        rz = Z - 0.5 * d.nz * d.h
        swirl = float((rx * wc - rz * uc)[state.flags.fluid].sum())
        assert swirl > 0.0


class TestMemoryPersistence:
    def test_memory_zeroed_at_the_start_of_each_solve(self):
        from test_separating import hydrostatic_intermediate
        d, flags, vel = hydrostatic_intermediate(12)
        state = BcState.initial(flags)
        solve_separating_standard(vel, flags, state=state)
        carried = state.memory.copy()
        assert np.abs(carried).max() > 0
        # memory zeroed at the start of each solve; with a zero input
        # nothing accumulates
        state3 = BcState.initial(flags)
        state3.memory[:] = carried
        solve_separating_standard(0.0 * vel, flags, state=state3)
        assert np.abs(state3.memory).max() == 0.0
