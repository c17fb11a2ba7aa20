import math

import numpy as np
import pytest

from pdfluids.fields import CellFlags, GridDims, ScalarField, VelocityField
from pdfluids.guiding import GuidingConfig, GuidingProxExact
from pdfluids.optim import (AdmmParams, ConvergenceLog, PdParams, ProxOperator,
                            admm_solve, moreau_transform, pd_solve, stop_check)
from pdfluids.pressure import BcTable, CgConfig, DivergenceProjector

from conftest import random_velocity, zero_solid_adjacent


class IdentityProx(ProxOperator):
    """Prox of f == 0 (and the orthogonal projection onto the whole space)."""

    def __call__(self, sigma: float, v: VelocityField) -> VelocityField:
        return v.copy()


def guiding_instance(n=8, rng=None, w=1.0, r=1.0):
    """Small closed-box guiding problem with a circular target."""
    rng = rng or np.random.default_rng(7)
    d = GridDims(n, n, 1, 1.0 / n)
    flags = CellFlags.closed_box(d)
    from pdfluids.fields import face_centers, face_valid_mask
    u_t = VelocityField.zeros(d)
    cx = cy = 0.5
    X, Y, _ = face_centers(d, 0)
    u_t.u[...] = -(Y - cy)
    X, Y, _ = face_centers(d, 1)
    u_t.v[...] = X - cx
    zero_solid_adjacent(u_t, flags)
    u_c = random_velocity(d, rng, scale=0.3)
    zero_solid_adjacent(u_c, flags)
    rvals = np.full(d.shape, r)
    rvals[flags.solid] = 0.0
    cfg = GuidingConfig(flags=flags, weights=ScalarField.full(d, w),
                        radius=ScalarField(d, rvals), u_target=u_t, u_current=u_c)
    return d, flags, cfg


def make_projector(flags, eps=1e-8, adaptive=False):
    bc = BcTable.from_flags(flags)
    cg = CgConfig(eps_start=eps if not adaptive else 1e-2, eps_final=eps)
    return DivergenceProjector(flags, bc, cg)


class TestStopCheck:
    def test_equal_iterates_stop(self, rng):
        d = GridDims(6, 6)
        z = random_velocity(d, rng)
        stop, res, eps = stop_check(z - z.copy(), z, 1e-3, 1e-3)
        assert stop and res == 0.0

    def test_threshold_formula(self):
        # n_dof = 100, eps_abs = 1e-3, ||z|| = 2, eps_rel = 1e-3 -> eps = 0.012
        class FakeField:
            n_dof = 100

            def norm(self):
                return 2.0

            def __sub__(self, other):
                return self

        f = FakeField()
        stop, res, eps = stop_check(f - f, f, 1e-3, 1e-3)
        assert eps == pytest.approx(0.012)

    def test_residual_is_l2_change(self, rng):
        d = GridDims(6, 6)
        z_old = random_velocity(d, rng)
        z_new = z_old + 0.5 * random_velocity(d, rng)
        _, res, _ = stop_check(z_new - z_old, z_new, 1e-3, 1e-3)
        assert res == pytest.approx((z_new - z_old).norm())


class TestMoreau:
    def test_prox_of_zero_function(self, rng):
        d = GridDims(6, 6)
        v = random_velocity(d, rng)
        out = moreau_transform(IdentityProx(), 2.5, v)
        assert out.norm() == pytest.approx(0.0, abs=1e-14)

    def test_dense_quadratic_identity(self, rng):
        # prox_{f*,1/sigma}(v) computed from the explicit conjugate equals the
        # Moreau-reduced form, with f(x) = 1/2 x^T A x + b^T x on a small grid
        d = GridDims(4, 4)
        n = VelocityField.zeros(d).as_flat().size
        m = rng.standard_normal((n, n))
        a_mat = m @ m.T + n * np.eye(n)
        b_vec = rng.standard_normal(n)
        sigma = 1.7

        class DenseQuadraticProx(ProxOperator):
            def __call__(self, sig, v):
                x = np.linalg.solve(a_mat + sig * np.eye(n), sig * v.as_flat() - b_vec)
                out = VelocityField.zeros(d)
                out.set_flat(x)
                return out

        v = random_velocity(d, rng)
        via_moreau = moreau_transform(DenseQuadraticProx(), sigma, v)
        # conjugate of a strictly convex quadratic: f*(y) = 1/2 (y-b)^T A^-1 (y-b)
        # prox_{f*,1/sigma}(v) solves (A^-1 + I/sigma) x = A^-1 b + v/sigma
        a_inv = np.linalg.inv(a_mat)
        x = np.linalg.solve(a_inv + np.eye(n) / sigma, a_inv @ b_vec + v.as_flat() / sigma)
        assert np.allclose(via_moreau.as_flat(), x, atol=1e-10)

    def test_plane_projection_complement(self, rng):
        # prox = orthogonal projection onto a subspace, sigma = 1:
        # moreau gives the complementary projection v - P v
        d = GridDims(4, 4)

        class ZeroVComponent(ProxOperator):
            def __call__(self, sig, v):
                out = v.copy()
                out.v[...] = 0.0
                return out

        v = random_velocity(d, rng)
        out = moreau_transform(ZeroVComponent(), 1.0, v)
        assert np.allclose(out.u, 0.0)
        assert np.allclose(out.v, v.v)


class SmallGuidingOracle:
    """Dense KKT solve of the quadratic objective under zero divergence."""

    def __init__(self, cfg, flags):
        from pdfluids.guiding import GuidingQuadratic
        from conftest import dense_divergence_matrix
        quad = GuidingQuadratic(cfg)
        d = flags.dims
        probe = VelocityField.zeros(d)
        nf = probe.as_flat().size
        self.valid_flat = quad.valid
        a_mat = np.zeros((nf, nf))
        for col in range(nf):
            e = np.zeros(nf)
            e[col] = 1.0
            probe.set_flat(e)
            a_mat[:, col] = quad.apply_A(probe).as_flat()
        b_vec = quad.b().as_flat()
        div = dense_divergence_matrix(d, flags)
        # restrict to free (objective) faces; fixed faces stay at u_current
        fv = self.valid_flat
        a_ff = a_mat[np.ix_(fv, fv)]
        d_f = div[:, fv]
        nfree = int(fv.sum())
        ncells = div.shape[0]
        kkt = np.zeros((nfree + ncells, nfree + ncells))
        kkt[:nfree, :nfree] = a_ff
        kkt[:nfree, nfree:] = d_f.T
        kkt[nfree:, :nfree] = d_f
        rhs = np.concatenate([-b_vec[fv], np.zeros(ncells)])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x = cfg.u_current.as_flat().copy()
        x[fv] = sol[:nfree]
        self.solution = VelocityField.zeros(d)
        self.solution.set_flat(x)


def _kwargs_id(kwargs):
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


class TestStopParameters:
    """A cap or tolerance that would let an outer loop return its input
    unprojected, or never stop on its tolerance, raises."""

    BAD = [dict(max_iters=0), dict(max_iters=-3), dict(eps_abs=-1.0),
           dict(eps_rel=-1e-9), dict(eps_abs=math.nan), dict(eps_rel=math.nan),
           dict(eps_abs=math.inf)]

    @pytest.mark.parametrize("bad", BAD, ids=_kwargs_id)
    def test_pd_params(self, bad):
        with pytest.raises(ValueError):
            PdParams(tau=1.0, sigma=1.0, **bad)

    @pytest.mark.parametrize("bad", BAD, ids=_kwargs_id)
    def test_admm_params(self, bad):
        with pytest.raises(ValueError):
            AdmmParams(rho=1.0, **bad)

    @pytest.mark.parametrize("steps", [
        dict(tau=math.nan), dict(tau=math.inf), dict(sigma=math.inf),
        dict(sigma=math.nan)], ids=_kwargs_id)
    def test_pd_non_finite_step_sizes(self, steps):
        with pytest.raises(ValueError, match="finite"):
            PdParams(**{"tau": 1.0, "sigma": 1.0, **steps})

    # 1e-310 is finite, but ADMM runs PD at tau = 1/rho, which overflows
    @pytest.mark.parametrize("rho", [math.inf, math.nan, 1e-310])
    def test_admm_non_finite_rho(self, rho):
        with pytest.raises(ValueError, match="finite"):
            AdmmParams(rho=rho)

    def test_zero_tolerances_and_one_iteration_accepted(self):
        PdParams(tau=1.0, sigma=1.0, max_iters=1, eps_abs=0.0, eps_rel=0.0)
        AdmmParams(rho=1.0, max_iters=1, eps_abs=0.0, eps_rel=0.0)


class TestSolvers:
    def test_pd_identity_prox_returns_projection(self, rng):
        # with f == 0 the first x-update vanishes and z converges to the plain
        # divergence-free projection of z0
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        z0 = zero_solid_adjacent(random_velocity(d, rng), flags)
        projector = make_projector(flags)
        log = ConvergenceLog()
        params = PdParams(tau=1.0, sigma=1.0, theta=1.0, eps_abs=1e-9, eps_rel=1e-9)
        z = pd_solve(IdentityProx(), projector, params, z0, log)
        ref, _, _ = make_projector(flags).project(z0)
        assert (z - ref).norm() <= 1e-6 * max(ref.norm(), 1.0)

    def test_pd_matches_dense_kkt(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        oracle = SmallGuidingOracle(cfg, flags)
        projector = make_projector(flags, eps=1e-10)
        params = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3,
                          max_iters=4000, eps_abs=1e-9, eps_rel=1e-9)
        log = ConvergenceLog()
        z = pd_solve(GuidingProxExact(cfg), projector, params, cfg.u_current, log)
        rel = (z - oracle.solution).norm() / oracle.solution.norm()
        assert log.converged
        assert rel < 1e-3

    def test_admm_agrees_with_pd(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        params_pd = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3,
                             max_iters=4000, eps_abs=1e-7, eps_rel=1e-7)
        params_admm = AdmmParams(rho=1.4, max_iters=6000, eps_abs=1e-7, eps_rel=1e-7)
        log1, log2 = ConvergenceLog(), ConvergenceLog()
        z_pd = pd_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                        params_pd, cfg.u_current, log1)
        z_admm = admm_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                            params_admm, cfg.u_current, log2)
        assert log1.converged and log2.converged
        tol = 3.0 * max(log1.epsilons[-1], log2.epsilons[-1])
        assert (z_pd - z_admm).norm() <= tol

    def test_pd_reduces_to_admm_at_unit_parameters(self, rng):
        # sigma = tau = theta = 1 makes the two iterations coincide
        d, flags, cfg = guiding_instance(4, rng)
        prox = GuidingProxExact(cfg, tol=1e-12)
        iters_pd, iters_admm = [], []
        pd_solve(prox, make_projector(flags, 1e-12),
                 PdParams(tau=1.0, sigma=1.0, theta=1.0, max_iters=5,
                          eps_abs=0.0, eps_rel=0.0),
                 cfg.u_current, ConvergenceLog(),
                 iterate_callback=lambda z: iters_pd.append(z.copy()))
        admm_solve(prox, make_projector(flags, 1e-12),
                   AdmmParams(rho=1.0, max_iters=5, eps_abs=0.0, eps_rel=0.0),
                   cfg.u_current, ConvergenceLog(),
                   iterate_callback=lambda z: iters_admm.append(z.copy()))
        assert len(iters_pd) == len(iters_admm) == 5
        for zp, za in zip(iters_pd, iters_admm):
            scale = max(za.norm(), 1.0)
            assert (zp - za).norm() <= 1e-10 * scale

    def test_nonconvergence_flagged(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        params = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3, max_iters=2,
                          eps_abs=1e-12, eps_rel=1e-12)
        log = ConvergenceLog()
        pd_solve(GuidingProxExact(cfg), make_projector(flags), params,
                 cfg.u_current, log)
        assert not log.converged
        assert len(log) == 2

    def test_converged_solve_is_divergence_free(self, rng):
        from pdfluids.fields import divergence
        d, flags, cfg = guiding_instance(8, rng)
        projector = make_projector(flags, eps=1e-6, adaptive=True)
        params = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3,
                          max_iters=2000, eps_abs=1e-6, eps_rel=1e-6)
        log = ConvergenceLog()
        z = pd_solve(GuidingProxExact(cfg), projector, params, cfg.u_current, log)
        assert log.converged
        assert np.abs(divergence(z, flags).values).max() <= 10 * 1e-6
