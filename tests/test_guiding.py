import math

import numpy as np
import pytest

from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _face_views, divergence, face_centers)
from pdfluids import guiding
from pdfluids.blur import blur_obstacle_aware
from pdfluids.guiding import (GuidingConfig, GuidingMinimizerProjection,
                              GuidingPrecompute, GuidingProx,
                              GuidingProxExact, GuidingQuadratic,
                              default_guiding_params, direct_least_squares,
                              guide_step, guiding_objective, split_scalar_field)
from pdfluids.optim import ConvergenceLog, PdParams
from pdfluids.pressure import PoissonConvergenceError

from conftest import random_velocity, zero_solid_adjacent
from test_optim import SmallGuidingOracle, guiding_instance


def blend_linear(u_current: VelocityField, u_target: VelocityField,
                 ratio: float) -> VelocityField:
    """Naive baseline: r*u_current + (1-r)*u_target (caller projects)."""
    if not (0.0 <= ratio <= 1.0):
        raise ValueError("blend ratio must lie in [0, 1]")
    return ratio * u_current + (1.0 - ratio) * u_target


def blend_detail_preserving(u_current: VelocityField, u_target: VelocityField,
                            radius: ScalarField, flags: CellFlags) -> VelocityField:
    """Naive baseline keeping small scales: u_current - B u_current + u_target."""
    return u_current - blur_obstacle_aware(u_current, radius, flags) + u_target


def dense_operator(quad, apply_fn):
    d = quad.dims
    probe = VelocityField.zeros(d)
    n = probe.as_flat().size
    mat = np.zeros((n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        probe.set_flat(e)
        mat[:, col] = apply_fn(probe).as_flat()
    return mat


class TestObjective:
    def test_zero_at_joint_optimum(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        cfg = cfg.with_current(cfg.u_target.copy())
        assert guiding_objective(cfg.u_target, cfg) == pytest.approx(0.0, abs=1e-20)

    def test_identity_blur_reduces_to_target_mismatch(self, rng):
        d, flags, cfg = guiding_instance(8, rng, w=1.0, r=0.0)
        x = cfg.u_current
        quad = GuidingQuadratic(cfg)
        expect = 0.0
        valid = _face_views(d, quad.valid)
        for a, arr in (x - cfg.u_target).components():
            expect += float(np.sum(np.square(arr[valid[a]])))
        assert guiding_objective(x, cfg) == pytest.approx(expect, rel=1e-12)

    def test_matches_dense_quadratic_expansion(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        a_mat = dense_operator(quad, quad.apply_A)
        b_vec = quad.b().as_flat()
        c = quad.c()
        x = zero_solid_adjacent(random_velocity(d, rng), flags)
        xf = x.as_flat()
        expect = 0.5 * xf @ a_mat @ xf + b_vec @ xf + c
        assert guiding_objective(x, cfg) == pytest.approx(expect, abs=1e-9)

    def test_finite_difference_gradient(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        x = zero_solid_adjacent(random_velocity(d, rng), flags)
        grad = quad.apply_A(x) + quad.b()
        for _ in range(3):
            direction = zero_solid_adjacent(random_velocity(d, rng), flags)
            h = 1e-6
            fp = guiding_objective(x + h * direction, cfg, quad)
            fm = guiding_objective(x - h * direction, cfg, quad)
            fd = (fp - fm) / (2 * h)
            analytic = grad.dot(direction)
            assert fd == pytest.approx(analytic, rel=1e-5)

    def test_convexity_along_segments(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        for _ in range(3):
            x1 = random_velocity(d, rng)
            x2 = random_velocity(d, rng)
            mid = 0.5 * (x1 + x2)
            assert guiding_objective(mid, cfg, quad) <= \
                0.5 * (guiding_objective(x1, cfg, quad)
                       + guiding_objective(x2, cfg, quad)) + 1e-12

    def test_w_bar_and_validation(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        w = split_scalar_field(d, flags, 16.0, 1.0)
        assert GuidingConfig(flags=flags, weights=w,
                             radius=ScalarField.zeros(d),
                             u_target=VelocityField.zeros(d),
                             u_current=VelocityField.zeros(d)).w_bar \
            == pytest.approx(8.5)
        with pytest.raises(ValueError):
            GuidingConfig(flags=flags, weights=ScalarField.zeros(d),
                          radius=ScalarField.zeros(d),
                          u_target=VelocityField.zeros(d),
                          u_current=VelocityField.zeros(d))


    @pytest.mark.parametrize("field", ["weights", "radius"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_weights_and_radii_rejected(self, field, bad):
        d = GridDims(8, 8)
        flags = CellFlags.open_box(d)
        values = {"weights": ScalarField.full(d, 1.0), "radius": ScalarField.full(d, 1.0)}
        values[field].values[2, 5, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GuidingConfig(flags=flags, **values, u_target=VelocityField.zeros(d),
                          u_current=VelocityField.zeros(d))


class TestExactProx:
    def test_optimality_residual(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        sigma = 4.2069
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        x = GuidingProxExact(cfg)(sigma, v)
        # A x* + b + sigma (x* - v) = 0 on the objective faces
        resid = quad.apply_A(x) + quad.b() + sigma * (quad.mask(x) - quad.mask(v))
        scale = max((sigma * quad.mask(v) - quad.b()).norm(), 1.0)
        assert resid.norm() / scale <= 1e-8

    def test_strong_weights_pin_to_current(self, rng):
        d, flags, cfg = guiding_instance(8, rng, w=1e4)
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        x = GuidingProxExact(cfg)(1.0, v)
        quad = GuidingQuadratic(cfg)
        rel = (quad.mask(x) - quad.mask(cfg.u_current)).norm() / \
            max(quad.mask(cfg.u_current).norm(), 1.0)
        assert rel < 1e-4

    def test_huge_sigma_contracts_to_identity(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        x = GuidingProxExact(cfg)(1e8, v)
        assert (x - v).norm() / max(v.norm(), 1.0) < 1e-4

    def test_scalar_closed_form_with_identity_blur(self, rng):
        # radius 0 and constant weight make every face independent:
        # x = (sigma v + 2 u_t + 2 w^2 u_c) / (2 + 2 w^2 + sigma)
        w = 1.7
        sigma = 2.3
        d, flags, cfg = guiding_instance(8, rng, w=w, r=0.0)
        quad = GuidingQuadratic(cfg)
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        x = GuidingProxExact(cfg)(sigma, v)
        denom = 2.0 + 2.0 * w * w + sigma
        valid = _face_views(d, quad.valid)
        for a, arr in x.components():
            m = valid[a]
            expect = (sigma * v.component(a) + 2.0 * cfg.u_target.component(a)
                      + 2.0 * w * w * cfg.u_current.component(a)) / denom
            assert np.allclose(arr[m], expect[m], atol=1e-9)

    def test_pass_through_outside_objective(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        v = random_velocity(d, rng)
        x = GuidingProxExact(cfg)(1.0, v)
        valid = _face_views(d, quad.valid)
        for a, arr in x.components():
            inv = ~valid[a]
            assert np.array_equal(arr[inv], v.component(a)[inv])


class TestSmwProx:
    def test_already_optimal_fixed(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        cfg = cfg.with_current(cfg.u_target.copy())
        quad = GuidingQuadratic(cfg)
        v = cfg.u_current.copy()
        out = GuidingProx(cfg)(3.0, v)
        assert (quad.mask(out) - quad.mask(cfg.u_current)).norm() <= \
            1e-10 * max(cfg.u_current.norm(), 1.0)

    def test_within_ten_percent_of_dense_inverse(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        sigma = default_guiding_params(cfg.w_bar)[0].sigma
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        approx = GuidingProx(cfg)(sigma, v)
        exact = GuidingProxExact(cfg)(sigma, v)
        rel = (approx - exact).norm() / exact.norm()
        assert rel < 0.10

    def test_error_monotone_in_sigma(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        errs = []
        for sigma in (1.0, 4.0, 16.0, 64.0):
            approx = GuidingProx(cfg)(sigma, v)
            exact = GuidingProxExact(cfg)(sigma, v)
            errs.append((approx - exact).norm() / exact.norm())
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs

    def test_precompute_follows_any_sigma_change(self, rng):
        # a sigma within 1e-9 of the cached one still gets its own precompute
        d, flags, cfg = guiding_instance(8, rng)
        sigma = default_guiding_params(cfg.w_bar)[0].sigma
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        prox = GuidingProx(cfg)
        prox(sigma, v)
        moved = sigma * (1 + 1e-12)
        assert moved != sigma
        got = prox(moved, v)
        assert got.as_flat().tobytes() == GuidingProx(cfg)(moved, v).as_flat().tobytes()

    def test_operator_norm_error_monotone(self, rng):
        # relative operator-norm error of the approximate M^-1 vs dense M^-1
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        fv = quad.valid
        errs = []
        for sigma in (1.0, 4.0, 16.0, 64.0):
            m_mat = dense_operator(quad, lambda f: quad.apply_M(sigma, f))
            m_sub = m_mat[np.ix_(fv, fv)]
            m_inv = np.linalg.inv(m_sub)
            pre = GuidingPrecompute.build(quad, sigma)
            gamma = _face_views(d, pre.gamma)

            def approx_inv(f):
                g1 = f.copy()
                g2 = f.copy()
                for a, arr in g1.components():
                    arr *= gamma[a]
                for a, arr in g2.components():
                    arr *= np.square(gamma[a])
                return quad.mask(g1) - 2.0 * quad.apply_BtB(g2)

            inv_approx = dense_operator(quad, approx_inv)[np.ix_(fv, fv)]
            errs.append(np.linalg.norm(inv_approx - m_inv, 2)
                        / np.linalg.norm(m_inv, 2))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs

    def test_btb_symmetric_with_varying_radius(self, rng):
        d = GridDims(10, 10)
        flags = CellFlags.closed_box(d)
        radius = split_scalar_field(d, flags, 0.7, 1.9, zero_at_solid=True)
        cfg = GuidingConfig(flags=flags, weights=ScalarField.full(d, 1.0),
                            radius=radius,
                            u_target=VelocityField.zeros(d),
                            u_current=VelocityField.zeros(d))
        quad = GuidingQuadratic(cfg)
        for _ in range(3):
            a = random_velocity(d, rng)
            b = random_velocity(d, rng)
            assert quad.apply_BtB(a).dot(b) == pytest.approx(
                a.dot(quad.apply_BtB(b)), abs=1e-10)

    def test_m_equals_a_plus_sigma_identity_dense(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        sigma = 2.1
        fv = quad.valid
        a_mat = dense_operator(quad, quad.apply_A)[np.ix_(fv, fv)]
        m_mat = dense_operator(quad, lambda f: quad.apply_M(sigma, f))[np.ix_(fv, fv)]
        assert np.allclose(m_mat, a_mat + sigma * np.eye(fv.sum()), atol=1e-12)


class TestDefaults:
    @pytest.mark.parametrize("w_bar,tau,sigma,rho", [
        (1.0, 0.58, 4.2069, 1.4),
        (2.0, 0.29, 8.4138, 5.6),
        (16.0, 0.03625, 67.3103, 358.4),
    ])
    def test_parameter_formulas(self, w_bar, tau, sigma, rho):
        pd, admm = default_guiding_params(w_bar)
        assert pd.tau == pytest.approx(tau, rel=1e-9)
        assert pd.sigma == pytest.approx(sigma, rel=1e-4)
        assert pd.theta == 0.3
        assert not pd.adaptive
        assert admm.rho == pytest.approx(rho, rel=1e-9)

    def test_invalid_w_bar(self):
        with pytest.raises(ValueError):
            default_guiding_params(0.0)


class TestBlends:
    def test_linear_endpoints_and_midpoint(self, rng):
        d = GridDims(8, 8)
        u_c = VelocityField.zeros(d)
        u_c.u[...] = 1.0
        u_t = VelocityField.zeros(d)
        u_t.v[...] = 1.0
        assert (blend_linear(u_c, u_t, 1.0) - u_c).norm() == 0.0
        assert (blend_linear(u_c, u_t, 0.0) - u_t).norm() == 0.0
        mid = blend_linear(u_c, u_t, 0.5)
        assert np.allclose(mid.u, 0.5) and np.allclose(mid.v, 0.5)
        with pytest.raises(ValueError):
            blend_linear(u_c, u_t, 1.2)

    def test_detail_preserving_zero_radius(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.open_box(d)
        u_c = random_velocity(d, rng)
        u_t = random_velocity(d, rng)
        out = blend_detail_preserving(u_c, u_t, ScalarField.zeros(d), flags)
        assert (out - u_t).norm() <= 1e-12

    def test_detail_preserving_constant_current(self):
        d = GridDims(8, 8)
        flags = CellFlags.open_box(d)
        u_c = VelocityField.zeros(d)
        u_c.u[...] = 2.0
        u_t = VelocityField.zeros(d)
        u_t.v[...] = -1.0
        out = blend_detail_preserving(u_c, u_t, ScalarField.full(d, 1.5), flags)
        assert (out - u_t).norm() <= 1e-10

    def test_detail_preserving_matches_dense(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.open_box(d)
        radius = ScalarField.full(d, 1.0)
        u_c = random_velocity(d, rng)
        u_t = random_velocity(d, rng)
        out = blend_detail_preserving(u_c, u_t, radius, flags)
        expect = u_c - blur_obstacle_aware(u_c, radius, flags) + u_t
        assert (out - expect).norm() == 0.0


class TestDirectLeastSquares:
    def test_feasible_optimum_recovered(self, rng):
        # divergence-free target equal to the current field is the optimum
        d, flags, cfg = guiding_instance(8, rng)
        from pdfluids.pressure import BcTable, project
        bc = BcTable.from_flags(flags)
        u_star = project(cfg.u_target, flags, bc, 1e-12)
        cfg = GuidingConfig(flags=flags, weights=cfg.weights, radius=cfg.radius,
                            u_target=u_star, u_current=u_star)
        x = direct_least_squares(cfg, tol=1e-10)
        quad = GuidingQuadratic(cfg)
        rel = (quad.mask(x) - quad.mask(u_star)).norm() / quad.mask(u_star).norm()
        assert rel < 1e-6

    def test_agrees_with_pd_on_circular_target(self, rng):
        d, flags, cfg = guiding_instance(16, rng)
        log = ConvergenceLog()
        z_pd = guide_step(cfg.u_current, cfg, method="pd", exact_prox=True,
                          pd_params=PdParams(tau=0.58, sigma=2.44 / 0.58,
                                             theta=0.3, max_iters=3000,
                                             eps_abs=1e-8, eps_rel=1e-8),
                          log=log)
        assert log.converged
        x = direct_least_squares(cfg, tol=1e-10)
        rel = (x - z_pd).norm() / z_pd.norm()
        assert rel < 5e-2


class TestGuidingCgFailure:
    """The velocity-space CG of the exact prox, the direct baseline and the
    IOP minimizer raises the one CG-failure type."""

    def test_cap_raises(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        with pytest.raises(PoissonConvergenceError, match="did not converge") as exc:
            direct_least_squares(cfg, tol=1e-12, max_iters=3)
        assert exc.value.iterations == 3

    def test_non_finite_rhs_raises_at_once(self):
        from pdfluids.guiding import _cg_velocity
        rhs = VelocityField.zeros(GridDims(6, 6))
        rhs.u[2, 2, 0] = np.nan
        calls = []
        with pytest.raises(PoissonConvergenceError, match="non-finite") as exc:
            _cg_velocity(lambda f: calls.append(1) or f, rhs, 1e-10, 50)
        assert exc.value.iterations == 0 and not calls

    def test_non_finite_residual_raises_at_once(self, rng):
        from pdfluids.guiding import _cg_velocity
        rhs = random_velocity(GridDims(6, 6), rng)

        def poisoned(f):
            out = 2.0 * f
            out.v[1, 1, 0] = np.nan
            return out

        with pytest.raises(PoissonConvergenceError, match="non-finite") as exc:
            _cg_velocity(poisoned, rhs, 1e-10, 50)
        assert exc.value.iterations == 1

    def test_non_finite_dad_is_not_a_breakdown(self, rng):
        # +inf where d is negative makes d.A d = -inf, which must not end
        # the loop as a breakdown ("did not converge")
        from pdfluids.guiding import _cg_velocity
        rhs = random_velocity(GridDims(6, 6), rng)

        def poisoned(f):
            out = 2.0 * f
            assert f.u.min() < 0.0
            out.u[np.unravel_index(np.argmin(f.u), f.u.shape)] = np.inf
            return out

        with pytest.raises(PoissonConvergenceError, match="met a non-finite value") as exc:
            _cg_velocity(poisoned, rhs, 1e-10, 50)
        assert exc.value.iterations == 1


# -- the velocity-space CG loop before the shared core, kept as a reference -----

def reference_cg_velocity(apply_op, rhs, tol, max_iters):
    """guiding._cg_velocity as it ran on VelocityField arithmetic, with
    per-component dot sums; returns (x, iterations)."""
    x = VelocityField.zeros(rhs.dims)
    r = rhs.copy()
    bnorm = rhs.norm()
    if not math.isfinite(bnorm):
        raise PoissonConvergenceError(0, bnorm, "guiding")
    if bnorm == 0.0:
        return x, 0
    d = r.copy()
    rr = r.dot(r)
    it = 0
    for it in range(1, max_iters + 1):
        ad = apply_op(d)
        dad = d.dot(ad)
        if not math.isfinite(dad):
            raise PoissonConvergenceError(it, math.nan, "guiding")
        if dad <= 0:
            break
        alpha = rr / dad
        x = x + alpha * d
        r = r - alpha * ad
        rr_new = r.dot(r)
        if not math.isfinite(rr_new):
            raise PoissonConvergenceError(it, rr_new, "guiding")
        if math.sqrt(rr_new) <= tol * bnorm:
            return x, it
        d = r + (rr_new / rr) * d
        rr = rr_new
    raise PoissonConvergenceError(it, math.sqrt(rr) / bnorm, "guiding")


class TestSharedCgCore:
    """The velocity-space CG on the shared flat loop against the loop it
    replaced, on every solve of the exact prox, the direct baseline and the
    IOP minimizer.  One flat dot product reorders the per-component sums,
    so the iterations may differ by one and x agrees to 1e-10 relative."""

    @pytest.fixture
    def solves(self, monkeypatch):
        seen = []
        core = guiding._cg_velocity

        def both(apply_op, rhs, tol, max_iters):
            calls = []
            x, iters = core(lambda f: calls.append(1) or apply_op(f), rhs, tol, max_iters)
            assert iters == len(calls)   # one operator application per iteration
            seen.append((x, iters, *reference_cg_velocity(apply_op, rhs, tol, max_iters)))
            return x, iters

        monkeypatch.setattr(guiding, "_cg_velocity", both)
        return seen

    @staticmethod
    def check(solves):
        assert solves
        for x, iters, x_ref, iters_ref in solves:
            assert iters > 0 and abs(iters - iters_ref) <= 1
            assert (x - x_ref).norm() <= 1e-10 * x_ref.norm()

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("sigma", [1.0, 150.0])
    def test_exact_prox(self, rng, solves, n, sigma):
        d, flags, cfg = guiding_instance(n, rng)
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        GuidingProxExact(cfg)(sigma, v)
        self.check(solves)

    def test_direct_least_squares(self, rng, solves):
        d, flags, cfg = guiding_instance(8, rng)
        log = ConvergenceLog()
        direct_least_squares(cfg, log=log)
        self.check(solves)
        assert log.cg_iters == [solves[0][1]]

    def test_iop_minimizer(self, rng, solves):
        d, flags, cfg = guiding_instance(8, rng)
        GuidingMinimizerProjection(cfg)
        self.check(solves)


class TestGuideStep:
    def test_huge_weights_return_plain_projection(self, rng):
        d, flags, cfg = guiding_instance(8, rng, w=1e4)
        from pdfluids.pressure import BcTable, project
        bc = BcTable.from_flags(flags)
        ref = project(cfg.u_current, flags, bc, 1e-8)
        log = ConvergenceLog()
        z = guide_step(cfg.u_current, cfg, log=log)
        assert log.converged
        assert (z - ref).norm() / max(ref.norm(), 1.0) < 1e-2

    def test_divergence_and_objective_beat_baselines(self, rng):
        d, flags, cfg = guiding_instance(32, rng)
        from pdfluids.pressure import BcTable, project
        bc = BcTable.from_flags(flags)
        log = ConvergenceLog()
        z = guide_step(cfg.u_current, cfg, log=log)
        assert np.abs(divergence(z, flags).values).max() <= 1e-4
        f_ours = guiding_objective(z, cfg)
        lin = project(blend_linear(cfg.u_current, cfg.u_target, 0.5),
                      flags, bc, 1e-5)
        det = project(blend_detail_preserving(cfg.u_current, cfg.u_target,
                                              cfg.radius, flags), flags, bc, 1e-5)
        assert f_ours < guiding_objective(lin, cfg)
        assert f_ours < guiding_objective(det, cfg)

    def test_split_weights_deviation_pattern(self, rng):
        # weight 16 on the left, 1 on the right: larger weights allow larger
        # deviation from the target on their side
        d = GridDims(32, 32, 1, 1.0 / 32)
        flags = CellFlags.closed_box(d)
        from test_optim import guiding_instance as gi
        _, _, base = gi(32, rng)
        w = split_scalar_field(d, flags, 16.0, 1.0)
        cfg = GuidingConfig(flags=flags, weights=w, radius=base.radius,
                            u_target=base.u_target, u_current=base.u_current)
        z = guide_step(cfg.u_current, cfg)
        quad = GuidingQuadratic(cfg)
        dev = z - cfg.u_target
        left = []
        right = []
        valid = _face_views(d, quad.valid)
        for a, arr in dev.components():
            X = face_centers(d, a)[0]
            m = valid[a]
            left.append(np.abs(arr[m & (X < 0.5)]))
            right.append(np.abs(arr[m & (X >= 0.5)]))
        mean_left = np.concatenate(left).mean()
        mean_right = np.concatenate(right).mean()
        assert mean_left > mean_right

    def test_iop_runs_under_the_pd_stop_settings(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        log = ConvergenceLog()
        guide_step(cfg.u_current, cfg, method="iop", log=log,
                   pd_params=PdParams(tau=1.0, sigma=1.0, max_iters=1,
                                      eps_abs=1e-12, eps_rel=1e-12))
        assert len(log) == 1 and not log.converged

    def test_unknown_method_rejected(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        with pytest.raises(ValueError):
            guide_step(cfg.u_current, cfg, method="bogus")
