"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The dam experiments are
shared through a module fixture since three criteria consume the same runs.
"""

import time

import numpy as np
import pytest

from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, divergence)
from pdfluids.guiding import (GuidingConfig, GuidingProx, GuidingProxExact,
                              GuidingQuadratic, default_guiding_params,
                              guide_step, guiding_objective, split_scalar_field)
from pdfluids.optim import (AdmmParams, ConvergenceLog, PdParams, ProxOperator,
                            admm_solve, moreau_transform, pd_solve)
from pdfluids.pressure import BcTable, CgConfig, DivergenceProjector, project
from pdfluids.scenes import (SceneSpec, _radial_target, build_scene,
                             ceiling_contact_cells, liquid_begin_step,
                             liquid_finish_step, liquid_pressure_solve,
                             liquid_step, smoke_step)
from pdfluids.separating import BcState, BoundaryFaces, solve_separating_standard

from conftest import random_velocity, zero_solid_adjacent
from test_optim import SmallGuidingOracle, guiding_instance, make_projector


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


# ---------------------------------------------------------------------------
# shared dam experiment (criteria 8, 9, 10)

DAM_FRAMES = 150


@pytest.fixture(scope="module")
def dam_runs():
    """Regular trajectory, accelerated trajectory with paired standard
    solves, and one saved intermediate state."""
    spec = SceneSpec("dam", nx=100, ny=70, fill_fraction=0.5, fill_height=0.9,
                     dt=0.01, seed=0)

    state, _ = build_scene(spec)
    regular_contact = []
    for _ in range(DAM_FRAMES):
        liquid_step(state, mode="regular")
        regular_contact.append(ceiling_contact_cells(state.flags))

    state, _ = build_scene(spec)
    sep_contact = []
    cg_acc, cg_std, field_diffs, div_std = [], [], [], []
    saved_intermediate = None
    for frame in range(DAM_FRAMES):
        vel, vel_old = liquid_begin_step(state)
        if frame == 40:
            saved_intermediate = (vel.copy(), state.flags.copy())
        log_a, log_s = ConvergenceLog(), ConvergenceLog()
        out_a = liquid_pressure_solve(vel, state.flags,
                                      "separating-accelerated", log=log_a)
        out_s = liquid_pressure_solve(vel, state.flags,
                                      "separating-standard", log=log_s)
        cg_acc.append(log_a.total_cg_iters)
        cg_std.append(log_s.total_cg_iters)
        field_diffs.append((out_a - out_s).norm() / max(out_s.norm(), 1e-12))
        div_std.append(float(np.abs(divergence(out_s, state.flags).values).max()))
        liquid_finish_step(state, out_a, vel_old)
        sep_contact.append(ceiling_contact_cells(state.flags))
    return {"regular_contact": regular_contact, "sep_contact": sep_contact,
            "cg_acc": cg_acc, "cg_std": cg_std, "field_diffs": field_diffs,
            "div_std": div_std,
            "intermediate": saved_intermediate}


class TestCriterion01Projection:
    def test_projection_correctness(self, rng):
        d = GridDims(64, 64, 1, 1.0 / 64)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        vel = zero_solid_adjacent(random_velocity(d, rng), flags)
        t0 = time.time()
        once = project(vel, flags, bc, 1e-5)
        twice = project(once, flags, bc, 1e-5)
        elapsed = time.time() - t0
        max_div = np.abs(divergence(once, flags).values).max()
        idem = (twice - once).norm() / once.norm()
        assert max_div <= 1e-4
        assert idem <= 2e-5
        assert elapsed < 1.0
        report(1, f"64^2 projection: max|div|={max_div:.2e} <= 1e-4, "
                  f"idempotence {idem:.2e} <= 2e-5, {elapsed:.2f}s < 1s")


class TestCriterion02OracleEquivalence:
    def test_pd_matches_dense_kkt(self, rng):
        t0 = time.time()
        d, flags, cfg = guiding_instance(16, rng)
        oracle = SmallGuidingOracle(cfg, flags)
        params = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3,
                          max_iters=4000, eps_abs=1e-8, eps_rel=1e-8)
        log = ConvergenceLog()
        z = pd_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                     params, cfg.u_current, log)
        rel = (z - oracle.solution).norm() / oracle.solution.norm()
        elapsed = time.time() - t0
        assert log.converged
        assert rel < 1e-3
        assert elapsed < 10.0
        report(2, f"16x16 guiding: PD vs dense KKT rel L2 {rel:.2e} < 1e-3, "
                  f"{elapsed:.1f}s < 10s")


class TestCriterion03CrossMethod:
    def test_pd_admm_fixed_point_agreement(self, rng):
        d, flags, cfg = guiding_instance(16, rng)
        params_pd = PdParams(tau=0.58, sigma=2.44 / 0.58, theta=0.3,
                             max_iters=4000, eps_abs=1e-7, eps_rel=1e-7)
        params_admm = AdmmParams(rho=1.4, max_iters=8000,
                                 eps_abs=1e-7, eps_rel=1e-7)
        log1, log2 = ConvergenceLog(), ConvergenceLog()
        z_pd = pd_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                        params_pd, cfg.u_current, log1)
        z_admm = admm_solve(GuidingProxExact(cfg), make_projector(flags, 1e-10),
                            params_admm, cfg.u_current, log2)
        assert log1.converged and log2.converged
        tol = 3.0 * max(log1.epsilons[-1], log2.epsilons[-1])
        dist = (z_pd - z_admm).norm()
        assert dist <= tol
        report(3, f"PD vs ADMM distance {dist:.2e} <= 3x stop tolerance "
                  f"{tol:.2e}")

    def test_pd_reduces_to_admm(self, rng):
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
        worst = max((zp - za).norm() / max(za.norm(), 1.0)
                    for zp, za in zip(iters_pd, iters_admm))
        assert len(iters_pd) == 5
        assert worst <= 1e-10
        report(3, f"unit parameters: PD iterates equal ADMM for 5 steps, "
                  f"worst deviation {worst:.2e} <= 1e-10")


class TestCriterion04Smw:
    def test_smw_quality_and_monotonicity(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        sigma0 = default_guiding_params(cfg.w_bar)[0].sigma
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        approx = GuidingProx(cfg)(sigma0, v)
        exact = GuidingProxExact(cfg)(sigma0, v)
        rel = (approx - exact).norm() / exact.norm()
        assert rel < 0.10
        errs = []
        for sigma in (1.0, 4.0, 16.0, 64.0):
            a = GuidingProx(cfg)(sigma, v)
            e = GuidingProxExact(cfg)(sigma, v)
            errs.append((a - e).norm() / e.norm())
        assert all(b < a for a, b in zip(errs, errs[1:]))
        report(4, f"SMW prox error {rel:.3f} < 0.10 at sigma={sigma0:.2f}; "
                  f"errors over sigma {{1,4,16,64}} = "
                  + ", ".join(f"{e:.1e}" for e in errs) + " (monotone)")


class TestCriterion05IopFailure:
    def test_divergent_target_iop_failure(self):
        n = 16
        d = GridDims(n, n, 1, 1.0 / n)
        flags = CellFlags.closed_box(d)
        cfg = GuidingConfig(
            flags=flags, weights=split_scalar_field(d, flags, 16.0, 1.0),
            radius=split_scalar_field(d, flags, 1.0, 1.0, zero_at_solid=True),
            u_target=_radial_target(d, flags, 1.0),
            u_current=VelocityField.zeros(d))
        params = PdParams(tau=0.58 / cfg.w_bar,
                          sigma=2.44 / (0.58 / cfg.w_bar), theta=0.3,
                          max_iters=4000, eps_abs=1e-5, eps_rel=1e-5)
        log_pd, log_iop = ConvergenceLog(), ConvergenceLog()
        z_pd = guide_step(cfg.u_current, cfg, method="pd",
                          pd_params=params, log=log_pd)
        z_iop = guide_step(cfg.u_current, cfg, method="iop", log=log_iop)
        f_pd = guiding_objective(z_pd, cfg)
        f_iop = guiding_objective(z_iop, cfg)
        div_pd = np.abs(divergence(z_pd, flags).values).max()
        div_iop = np.abs(divergence(z_iop, flags).values).max()
        assert log_pd.converged
        assert div_pd <= 1e-4 and div_iop <= 1e-4
        assert f_iop >= 1.05 * f_pd
        report(5, f"divergent target: IOP objective {f_iop:.2f} >= 1.05x PD "
                  f"{f_pd:.2f} (ratio {f_iop / f_pd:.2f}); both div-free")


class TestCriterion06ConvergenceTrend:
    def run_mean_iters(self, method, w_left, steps=14, skip=4):
        spec = SceneSpec("circular", nx=64, ny=64, w_left=w_left, w_right=1.0,
                         omega=2.0)
        state, cfg = build_scene(spec)
        pd, admm = default_guiding_params(cfg.w_bar)
        pd.max_iters, admm.max_iters = 4000, 8000
        pd.eps_abs = pd.eps_rel = admm.eps_abs = admm.eps_rel = 1e-4
        iters = []
        for s in range(steps):
            cfg = cfg.with_current(state.vel)
            smoke_step(state, cfg, method=method, pd_params=pd, admm_params=admm)
            assert state.last_log.converged
            if s >= skip:
                iters.append(len(state.last_log))
        return float(np.mean(iters))

    def test_pd_beats_admm_and_gap_grows(self):
        t0 = time.time()
        ratios = {}
        means = {}
        for w_left in (8.0, 16.0):
            mp = self.run_mean_iters("pd", w_left)
            ma = self.run_mean_iters("admm", w_left)
            assert mp < ma, (w_left, mp, ma)
            ratios[w_left] = mp / ma
            means[w_left] = (mp, ma)
        assert ratios[16.0] < ratios[8.0]
        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(6, "64^2 circular trend: "
                  f"W=(8,1) PD {means[8.0][0]:.1f} < ADMM {means[8.0][1]:.1f}; "
                  f"W=(16,1) PD {means[16.0][0]:.1f} < ADMM {means[16.0][1]:.1f}; "
                  f"ratio {ratios[8.0]:.2f} -> {ratios[16.0]:.2f} (decreasing), "
                  f"{elapsed:.0f}s < 300s")


class TestCriterion07Hydrostatic:
    def test_no_false_separation_over_50_steps(self):
        spec = SceneSpec("hydrostatic", nx=24, ny=24, fill_height=0.75)
        state, _ = build_scene(spec)
        start = state.particles_pos.copy()
        worst_v = 0.0
        for _ in range(50):
            liquid_step(state, mode="separating-accelerated")
            worst_v = max(worst_v, state.vel.max_abs())
            assert state.vel.max_abs() <= 1e-3
            # every wetted wall face non-separating, and no other face in the set
            nsep, walls = state.carry.walls.nsep, BoundaryFaces(state.flags).index
            assert nsep[walls].all() and np.count_nonzero(nsep) == walls.size
        drift = np.abs(state.particles_pos - start).max() / spec.h
        assert drift <= 0.1
        report(7, f"hydrostatic 50 steps: max velocity {worst_v:.2e} <= 1e-3, "
                  f"all wetted faces non-separating every step, "
                  f"max drift {drift:.3f} cells <= 0.1")


class TestCriterion08DamContrast:
    def test_ceiling_contact_reduction(self, dam_runs):
        # Fig-10-style comparison: the stills contrast the held sheets after
        # the splash transient (t = 75, 112, 150), so the count window is the
        # second half of the run; the transient itself is shared physics.
        window = slice(75, DAM_FRAMES)
        reg = sum(1 for c in dam_runs["regular_contact"][window] if c >= 1)
        sep = sum(1 for c in dam_runs["sep_contact"][window] if c >= 1)
        assert reg >= 30, "regular run must exhibit the sticking artifact"
        assert sep <= 0.1 * reg
        reg_all = sum(1 for c in dam_runs["regular_contact"] if c >= 1)
        sep_all = sum(1 for c in dam_runs["sep_contact"] if c >= 1)
        report(8, f"dam 100x70: ceiling-contact frames in [75,150): "
                  f"regular {reg}, separating {sep} "
                  f"({100 * (1 - sep / reg):.0f}% reduction >= 90%); "
                  f"full-run counts {reg_all} vs {sep_all}")


class TestCriterion09AcceleratedVsStandard:
    def test_cg_totals_and_field_agreement(self, dam_runs):
        cg_acc = np.array(dam_runs["cg_acc"])
        cg_std = np.array(dam_runs["cg_std"])
        frac = float(np.mean(cg_acc <= cg_std))
        mean_diff = float(np.mean(dam_runs["field_diffs"]))
        # every standard solve returns a final-accuracy projection output
        div_std = max(dam_runs["div_std"])
        assert frac >= 0.90
        assert mean_diff <= 0.05
        assert div_std <= 1e-4
        report(9, f"accelerated <= standard CG iterations on {100 * frac:.0f}% "
                  f"of frames (means {cg_acc.mean():.0f} vs {cg_std.mean():.0f}); "
                  f"mean field difference {100 * mean_diff:.1f}% <= 5%; "
                  f"standard max|div| {div_std:.2e} <= 1e-4")


class TestCriterion10NonSeparatingValidation:
    def test_locked_solve_matches_regular_projection(self, dam_runs):
        vel, flags = dam_runs["intermediate"]
        state = BcState.initial(flags)
        state.nsep[:] = True
        params = PdParams(tau=1.0, sigma=1.0, theta=1.0, max_iters=4000,
                          eps_abs=1e-6, eps_rel=1e-6)
        log = ConvergenceLog()
        locked = solve_separating_standard(vel, flags, params=params,
                                           state=state, log=log, lock_set=True)
        assert log.converged
        from pdfluids.scenes import _zero_solid_faces
        ref_in = vel.copy()
        _zero_solid_faces(ref_in, flags)
        bc = BcTable.from_flags(flags)
        ref = project(ref_in, flags, bc, 1e-10)
        rel = (locked - ref).norm() / max(ref.norm(), 1.0)
        assert rel < 1e-3
        report(10, f"all-locked dam step vs regular CG projection: "
                   f"rel L2 {rel:.2e} < 1e-3")


class TestCriterion11PropertySuites:
    def test_blur_adjointness(self, rng):
        from pdfluids.blur import blur_obstacle_aware
        d = GridDims(12, 10)
        flags = CellFlags.closed_box(d)
        flags.values[5, 4:6, 0] = CellType.SOLID
        rvals = rng.random(d.shape) * 2.0
        rvals[flags.solid] = 0.0
        radius = ScalarField(d, rvals)
        worst = 0.0
        for _ in range(5):
            a = random_velocity(d, rng)
            b = random_velocity(d, rng)
            lhs = blur_obstacle_aware(a, radius, flags).dot(b)
            rhs = a.dot(blur_obstacle_aware(b, radius, flags, transpose=True))
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10
        report(11, f"blur adjointness worst |<Ba,b>-<a,B^T b>| = {worst:.1e} "
                   "<= 1e-10")

    def test_prox_optimality(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        sigma = 4.2069
        v = zero_solid_adjacent(random_velocity(d, rng), flags)
        x = GuidingProxExact(cfg)(sigma, v)
        resid = quad.apply_A(x) + quad.b() + sigma * (quad.mask(x) - quad.mask(v))
        rel = resid.norm() / max((sigma * quad.mask(v) - quad.b()).norm(), 1.0)
        assert rel <= 1e-8
        report(11, f"exact prox optimality residual {rel:.1e} <= 1e-8")

    def test_objective_gradient(self, rng):
        d, flags, cfg = guiding_instance(8, rng)
        quad = GuidingQuadratic(cfg)
        x = zero_solid_adjacent(random_velocity(d, rng), flags)
        grad = quad.apply_A(x) + quad.b()
        worst = 0.0
        for _ in range(3):
            direction = zero_solid_adjacent(random_velocity(d, rng), flags)
            h = 1e-6
            fd = (guiding_objective(x + h * direction, cfg, quad)
                  - guiding_objective(x - h * direction, cfg, quad)) / (2 * h)
            analytic = grad.dot(direction)
            worst = max(worst, abs(fd - analytic) / abs(analytic))
        assert worst <= 1e-5
        report(11, f"objective finite-difference gradient rel error "
                   f"{worst:.1e} <= 1e-5")

    def test_moreau_identity_dense(self, rng):
        d = GridDims(4, 4)
        n = VelocityField.zeros(d).as_flat().size
        m = rng.standard_normal((n, n))
        a_mat = m @ m.T + n * np.eye(n)
        b_vec = rng.standard_normal(n)
        sigma = 2.3

        class DenseQuadraticProx(ProxOperator):
            def __call__(self, sig, v):
                x = np.linalg.solve(a_mat + sig * np.eye(n),
                                    sig * v.as_flat() - b_vec)
                out = VelocityField.zeros(d)
                out.set_flat(x)
                return out

        v = random_velocity(d, rng)
        via_moreau = moreau_transform(DenseQuadraticProx(), sigma, v)
        a_inv = np.linalg.inv(a_mat)
        direct = np.linalg.solve(a_inv + np.eye(n) / sigma,
                                 a_inv @ b_vec + v.as_flat() / sigma)
        err = np.linalg.norm(via_moreau.as_flat() - direct)
        assert err <= 1e-10
        report(11, f"Moreau identity on dense quadratic: error {err:.1e} "
                   "<= 1e-10")

    def test_gridfile_roundtrip(self, tmp_path, rng):
        from pdfluids.fileio import read_grid, write_grid
        d = GridDims(9, 7, 1, 0.04)
        ok = True
        # a 2D field (zero w) and a 3D one with a live w
        for dv in (d, GridDims(6, 5, 4, 0.04)):
            vel = random_velocity(dv, rng)
            write_grid(tmp_path / "v.grid", vel)
            back = read_grid(tmp_path / "v.grid")
            ok = ok and all(back.component(a).tobytes() == vel.component(a).tobytes()
                            for a in range(3)) and vel.w.any() != dv.is_2d
        s = ScalarField(d, rng.standard_normal(d.shape))
        write_grid(tmp_path / "s.grid", s)
        ok = ok and np.array_equal(read_grid(tmp_path / "s.grid").values, s.values)
        assert ok
        report(11, "grid files round trip bit-exact (scalar and velocity)")
