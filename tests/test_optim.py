import math

import numpy as np
import pytest

from pdfluids.fields import CellFlags, GridDims, ScalarField, VelocityField
from pdfluids.guiding import GuidingConfig, GuidingProxExact
from pdfluids.optim import (AdmmParams, ConvergenceLog, PdParams, ProxOperator,
                            adaptive_pd_update, admm_solve, iop_solve,
                            krylov_accelerate, moreau_transform, pd_solve,
                            stop_check)
from pdfluids.pressure import BcTable, CgConfig, DivergenceProjector

from conftest import random_velocity, zero_solid_adjacent


class IdentityProx(ProxOperator):
    """Prox of f == 0 (and the orthogonal projection onto the whole space)."""

    is_orthogonal_projection = True

    def __call__(self, sigma: float, v: VelocityField) -> VelocityField:
        return v.copy()


class MaskProx(ProxOperator):
    """Orthogonal projection that zeroes the faces of a flat mask."""

    is_orthogonal_projection = True

    def __init__(self, mask):
        self.mask = mask

    def __call__(self, sigma: float, v: VelocityField) -> VelocityField:
        out = v.copy()
        out.as_flat()[self.mask] = 0.0
        return out


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
        stop, res, eps = stop_check(z, z.copy(), 1e-3, 1e-3)
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
        stop, res, eps = stop_check(f, f, 1e-3, 1e-3)
        assert eps == pytest.approx(0.012)

    def test_residual_is_l2_change(self, rng):
        d = GridDims(6, 6)
        z_old = random_velocity(d, rng)
        z_new = z_old + 0.5 * random_velocity(d, rng)
        _, res, _ = stop_check(z_new, z_old, 1e-3, 1e-3)
        assert res == pytest.approx((z_new - z_old).norm())


class TestAdaptiveUpdate:
    def test_reference_values(self):
        tau, sigma, theta = adaptive_pd_update(150.0, 1.0 / 150.0, 200.0)
        assert theta == pytest.approx(1.0 / math.sqrt(60001.0), rel=1e-12)
        assert theta == pytest.approx(0.0040824, rel=1e-4)
        assert tau == pytest.approx(0.61236, rel=1e-4)
        assert sigma == pytest.approx((1.0 / 150.0) / theta, rel=1e-12)

    def test_gamma_zero_no_adaptation(self):
        tau, sigma, theta = adaptive_pd_update(0.7, 2.0, 0.0)
        assert (tau, sigma, theta) == (0.7, 2.0, 1.0)

    def test_tau_sigma_product_invariant(self):
        tau, sigma = 150.0, 1.0 / 150.0
        prod = tau * sigma
        for _ in range(2):
            tau, sigma, theta = adaptive_pd_update(tau, sigma, 200.0)
        assert tau * sigma == pytest.approx(prod, rel=1e-12)


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
            is_orthogonal_projection = True

            def __call__(self, sig, v):
                out = v.copy()
                out.v[...] = 0.0
                return out

        v = random_velocity(d, rng)
        out = moreau_transform(ZeroVComponent(), 1.0, v)
        assert np.allclose(out.u, 0.0)
        assert np.allclose(out.v, v.v)


class TestKrylov:
    def test_zero_error_returns_unchanged(self, rng):
        d = GridDims(4, 4)
        z = random_velocity(d, rng)
        out, eps = krylov_accelerate(z, z.copy(), lambda f: 0.0, 1.0)
        assert out is z and eps == 0.0

    def test_equal_iterates_no_correction(self, rng):
        d = GridDims(4, 4)
        z = random_velocity(d, rng)
        err = lambda f: f.norm()
        out, eps = krylov_accelerate(z, z.copy(), err, err(z))
        # correction vector is zero so the candidate equals z; not accepted
        assert (out - z).norm() == 0.0

    def test_zero_previous_error_skips(self, rng):
        d = GridDims(4, 4)
        z = random_velocity(d, rng)
        out, eps = krylov_accelerate(z, 0.5 * z, lambda f: f.norm(), 0.0)
        assert (out - z).norm() == 0.0

    def test_oscillating_sequence_accepted_and_reduces_error(self, rng):
        # iterates alternating around a fixed point: z_k = z* + (-rho)^k e.
        # the secant correction overshoots monotone sequences (and is then
        # rejected) but cancels the oscillation here, cutting the error by rho
        d = GridDims(4, 4)
        z_star = random_velocity(d, rng)
        e = random_velocity(d, rng)
        rho = 0.5
        k = 4
        z_km1 = z_star + ((-rho) ** (k - 1)) * e
        z_k = z_star + ((-rho) ** k) * e
        err = lambda f: (f - z_star).norm()
        out, eps = krylov_accelerate(z_k, z_km1, err, err(z_km1))
        assert eps == pytest.approx(err(z_k))
        assert err(out) < err(z_k)
        assert err(out) == pytest.approx(rho ** (k + 1) * e.norm(), rel=1e-9)

    def test_monotone_sequence_rejected(self, rng):
        d = GridDims(4, 4)
        z0 = VelocityField.zeros(d)
        z0.u[...] = 1.0
        rho = 0.5
        z_km1 = rho * z0
        z_k = rho * z_km1
        err = lambda f: f.norm()
        out, eps = krylov_accelerate(z_k, z_km1, err, err(z_km1))
        assert (out - z_k).norm() == 0.0  # candidate is worse, keep z_k


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

    @pytest.mark.parametrize("bad", BAD, ids=_kwargs_id)
    def test_iop_solve(self, bad, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        log = ConvergenceLog()
        with pytest.raises(ValueError):
            iop_solve(IdentityProx(), make_projector(flags),
                      random_velocity(d, rng), log, **bad)
        assert len(log) == 0

    @pytest.mark.parametrize("steps", [
        dict(tau=math.nan), dict(tau=math.inf), dict(sigma=math.inf),
        dict(sigma=math.nan)], ids=_kwargs_id)
    def test_pd_non_finite_step_sizes(self, steps):
        with pytest.raises(ValueError, match="finite"):
            PdParams(**{"tau": 1.0, "sigma": 1.0, **steps})

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
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

    def test_pd_callback_sees_the_returned_field_with_krylov(self, rng):
        # the hook fires on each projection output, before the Krylov
        # correction, so its last field is the one pd_solve returns
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        z0 = zero_solid_adjacent(random_velocity(d, rng), flags)
        column = VelocityField.zeros(d)
        column.u[3] = 1.0                  # f: u = 0 on the x-faces at i = 3
        seen = []
        log = ConvergenceLog()
        z = pd_solve(MaskProx(column.as_flat() != 0.0), make_projector(flags),
                     PdParams(tau=1.0, sigma=1.0, theta=1.0, krylov=True,
                              eps_abs=1e-9, eps_rel=1e-9),
                     z0, log, iterate_callback=lambda f: seen.append(f.copy()))
        assert log.converged and len(seen) == len(log) > 2
        assert seen[-1].as_flat().tobytes() == z.as_flat().tobytes()

    def test_iop_requires_orthogonal_projection(self, rng):
        d, flags, cfg = guiding_instance(4, rng)
        with pytest.raises(ValueError):
            iop_solve(GuidingProxExact(cfg), make_projector(flags),
                      cfg.u_current, ConvergenceLog())

    def test_iop_fixed_point_returns_quickly(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        projector = make_projector(flags)
        z0, _, _ = make_projector(flags).project(
            zero_solid_adjacent(random_velocity(d, rng), flags))
        log = ConvergenceLog()
        z = iop_solve(IdentityProx(), projector, z0, log)
        assert log.converged
        assert len(log) <= 2
        assert (z - z0).norm() <= 1e-5 * max(z0.norm(), 1.0)

    def test_guard_extensions_for_non_projection_prox(self, rng):
        d, flags, cfg = guiding_instance(4, rng)
        params = PdParams(tau=1.0, sigma=1.0, adaptive=True)
        with pytest.raises(ValueError):
            pd_solve(GuidingProxExact(cfg), make_projector(flags), params,
                     cfg.u_current, ConvergenceLog())

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
