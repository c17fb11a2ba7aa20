"""The proximal loops update their iterates in place.

The allocating PD loop, the guiding and wall proxes and the accelerated
wall sweep they replaced are kept here as test-time references: the
in-place ones must return the same field and log the same rows bit for
bit.  ADMM runs as the PD loop at theta = 1, sigma = rho,
tau = 1/rho, so it matches the PD reference at those parameters bit for
bit, and the allocating ADMM loop to rounding; for the wall prox, whose f
holds an indicator, it logs that loop's residual pair, and its over-relaxed
step matches that loop over-relaxed in Boyd's form at the same factor.
The loops must never write their input or a prox's input, successive
solves must return independent fields, and no iteration may construct a
VelocityField.
"""

import math

import numpy as np
import pytest

from pdfluids.fields import VelocityField
from pdfluids.guiding import (GuidingPrecompute, GuidingProx, GuidingQuadratic,
                              default_guiding_params, guide_step)
from pdfluids.optim import (AdmmParams, ConvergenceLog, PdParams, SolverCarry, admm_solve,
                            pd_solve)
from pdfluids.pressure import BcTable, CgConfig, DivergenceProjector, FaceTag
from pdfluids.scenes import SceneSpec, build_scene, liquid_step, smoke_step
from pdfluids.separating import (MAX_SWEEPS, BcState, BoundaryFaces, WallProx,
                                 classified_walls_table, free_surface_walls_table,
                                 solve_separating_accelerated,
                                 solve_separating_standard)

from conftest import random_velocity, wall_set


# -- the allocating bodies, kept as test-time references ----------------------

def ref_loop_tail(z, z_old, eps_cg, cg_iters, projector, eps_abs, eps_rel, log,
                  residual=None):
    residual = (z - z_old).norm() if residual is None else residual
    eps = math.sqrt(z.n_dof) * eps_abs + eps_rel * z.norm()
    projector.adapt(residual, eps)
    log.record(residual, eps, eps_cg, cg_iters)
    log.converged = residual <= eps and eps_cg <= projector.cg.eps_final
    return log.converged


def ref_pd_solve(prox_f, projector, params, z0, log, x0=None):
    log.method = log.method or "pd"
    z = z0.copy()
    x = VelocityField.zeros(z.dims)
    if x0 is not None:
        x.set_flat(x0)
    y = z0.copy()
    zb = z0.copy()   # the relaxed base: the last projection output at r = 1
    tau, sigma, theta = params.tau, params.sigma, params.theta
    r = getattr(prox_f, "relaxation", 1.0)
    for _ in range(params.max_iters):
        p = prox_f(sigma, x * (1.0 / sigma) + y)
        x = x + (r * sigma) * y - (r * sigma) * p
        z_old = z
        z, cg_iters, eps_cg = projector.project(zb - tau * x)
        y = z + theta * (z - zb)
        zb = z if r == 1.0 else zb + r * (z - zb)
        # with an indicator in f, the primal and dual residuals of the step
        residual = (max((p - z).norm(), (z - z_old).norm() / tau)
                    if getattr(prox_f, "has_indicator", False) else None)
        if ref_loop_tail(z, z_old, eps_cg, cg_iters, projector, params.eps_abs,
                         params.eps_rel, log, residual):
            break
    return z


def ref_admm_solve(prox_f, projector, params, z0, log, iterate_callback, alpha=1.0):
    # over-relaxed by alpha as in Boyd et al., Found. Trends ML 2011, 3.4.3
    log.method = log.method or "admm"
    z = z0.copy()
    y = VelocityField.zeros(z.dims)
    for _ in range(params.max_iters):
        x = prox_f(params.rho, z - y)
        xh = alpha * x + (1.0 - alpha) * z
        z_old = z
        z, cg_iters, eps_cg = projector.project(xh + y)
        iterate_callback(z)
        y = y + xh - z
        # with an indicator in f, Boyd's r = ||x - z|| and s = rho ||z - z_old||
        residual = (max((x - z).norm(), params.rho * (z - z_old).norm())
                    if getattr(prox_f, "has_indicator", False) else None)
        if ref_loop_tail(z, z_old, eps_cg, cg_iters, projector, params.eps_abs,
                         params.eps_rel, log, residual):
            break
    return z


class RefGuidingProx:
    def __init__(self, cfg):
        self.quad = GuidingQuadratic(cfg)
        self._pre = None

    def mask(self, vel):
        out = vel.copy()
        out.as_flat()[~self.quad.valid] = 0.0
        return out

    def __call__(self, sigma, v):
        if self._pre is None or self._pre.sigma != sigma:
            self._pre = GuidingPrecompute.build(self.quad, sigma)
        quad, pre = self.quad, self._pre
        s = sigma * self.mask(v) + pre.q
        g1, g2 = s.copy(), s.copy()
        np.multiply(s.as_flat(), pre.gamma, out=g1.as_flat())
        np.multiply(s.as_flat(), pre.gamma_sq, out=g2.as_flat())
        btb = self.mask(quad.apply_Bt(quad.apply_B(self.mask(g2))))
        out = pre.u_current + g1 - 2.0 * btb
        np.copyto(out.as_flat(), v.as_flat(), where=~quad.valid)
        return out


class RefWallProx:
    has_indicator = True
    relaxation = WallProx.relaxation

    def __init__(self, a, faces):
        self.a, self.faces = a, faces

    def __call__(self, sigma, v):
        out = (self.a + sigma * v) * (1.0 / (1.0 + sigma))
        flat, faces = out.as_flat(), self.faces
        flat[faces.index] = faces.sign * np.maximum(flat[faces.index] * faces.sign, 0.0)
        return out


def ref_accelerated(u, flags, cg, state, log):
    log.method = log.method or "accelerated-separating"
    eps_cg = cg.eps_final
    cg = CgConfig(eps_cg, eps_cg, cg.max_cg_iters)
    faces = BoundaryFaces(flags)
    un_in = faces.normal_velocity(u)
    nsep = (un_in < 0.0) | state.nsep[faces.index]
    projector = DivergenceProjector(
        flags, classified_walls_table(flags, wall_set(flags, faces, nsep)), cg)
    inv_h = 1.0 / flags.dims.h
    z = u
    for _ in range(MAX_SWEEPS):
        start = u.copy()
        faces.zero_normal(start, nsep)
        z_old, (z, cg_iters, _) = z, projector.project(start)
        log.record((z - z_old).norm(), 0.0, eps_cg, cg_iters)
        un = faces.normal_velocity(z)
        mu = projector.pressure.reshape(-1)[faces.cell] * inv_h - un_in
        tol = eps_cg * max(1.0, np.abs(un).max(initial=0.0),
                           np.abs(mu[nsep]).max(initial=0.0))
        moved = np.where(nsep, mu < -tol, un < -tol)
        if not moved.any():
            log.converged = True
            break
        nsep ^= moved
        projector.retag(faces.index[moved], faces.cell[moved], np.where(
            nsep[moved], FaceTag.NEUMANN, FaceTag.DIRICHLET))
    state.nsep = wall_set(flags, faces, nsep).nsep
    return z


# -- helpers --------------------------------------------------------------------

def field_bytes(vel):
    return b"".join(a.tobytes() for a in (vel.u, vel.v, vel.w))


def log_rows(log):
    return (log.method, log.converged,
            *(np.asarray(r, dtype=float).tobytes()
              for r in (log.residuals, log.epsilons, log.eps_cg, log.cg_iters)))


def guided_case(nx, nz=1, frames=2):
    """A guided smoke scene after a few frames, and its guiding config at
    the current velocity."""
    spec = SceneSpec("circular" if nz == 1 else "tornado", nx=nx, ny=nx, nz=nz,
                     w_left=4.0, radius_left=2.0, radius_right=2.0, seed=1,
                     emitter=(0.4, 0.05, 0.6, 0.15))
    state, cfg = build_scene(spec)
    for _ in range(frames):
        smoke_step(state, cfg.with_current(state.vel))
    return state, cfg.with_current(state.vel)


def dam_case(rng, frames=4):
    """A 24x18 dam after a few standard-wall frames, with a perturbed
    velocity that pushes through the walls."""
    state, _ = build_scene(SceneSpec("dam", nx=24, ny=18, seed=1))
    for _ in range(frames):
        liquid_step(state, mode="separating-standard")
    u = state.vel + 0.5 * random_velocity(state.flags.dims, rng)
    return state.flags, u


def guided_projector(cfg):
    return DivergenceProjector(cfg.flags, BcTable.from_flags(cfg.flags), CgConfig())


def admm_as_pd(admm):
    """The PdParams admm_solve runs pd_solve at."""
    return PdParams(tau=1.0 / admm.rho, sigma=admm.rho, theta=1.0,
                    max_iters=admm.max_iters, eps_abs=admm.eps_abs,
                    eps_rel=admm.eps_rel)


# solve_separating_standard's default PD parameters
STANDARD_PD = PdParams(tau=1.0 / 3.0, sigma=3.0, theta=1.0, max_iters=800,
                       eps_abs=1e-5, eps_rel=1e-5)


def ref_standard(u, flags, log):
    projector = DivergenceProjector(flags, free_surface_walls_table(flags), CgConfig())
    return ref_pd_solve(RefWallProx(u, BoundaryFaces(flags)), projector, STANDARD_PD,
                        u, log)


# -- bit for bit against the references ----------------------------------------

class TestMatchesAllocatingLoops:
    @pytest.mark.parametrize("nx, nz", [(24, 1), (10, 10)], ids=["2d", "3d"])
    def test_guided_pd_step(self, nx, nz):
        state, cfg = guided_case(nx, nz)
        params = default_guiding_params(cfg.w_bar)[0]
        runs = []
        for solve, prox in ((pd_solve, GuidingProx), (ref_pd_solve, RefGuidingProx)):
            log = ConvergenceLog()
            z = solve(prox(cfg), guided_projector(cfg), params, state.vel, log)
            runs.append((field_bytes(z), log_rows(log)))
        assert len(np.frombuffer(runs[0][1][2])) >= 3
        assert runs[0] == runs[1]

    def test_guided_pd_step_from_a_carried_dual(self):
        # the carry of one frame's solve starts the next frame's, as in
        # smoke_step: the same field and rows as the allocating loop started
        # from that x, and not those of a start from zero
        state, cfg = guided_case(24)
        params = default_guiding_params(cfg.w_bar)[0]
        carry = SolverCarry()
        pd_solve(GuidingProx(cfg), guided_projector(cfg), params, state.vel,
                 ConvergenceLog(), dual=carry)
        x0 = carry.x.copy()
        smoke_step(state, cfg.with_current(state.vel))
        cfg = cfg.with_current(state.vel)
        runs = []
        for x in (x0, None):
            log = ConvergenceLog()
            z = ref_pd_solve(RefGuidingProx(cfg), guided_projector(cfg), params, state.vel,
                             log, x0=x)
            runs.append((field_bytes(z), log_rows(log)))
        log = ConvergenceLog()
        z = pd_solve(GuidingProx(cfg), guided_projector(cfg), params, state.vel, log,
                     dual=carry)
        assert len(log) >= 3 and (field_bytes(z), log_rows(log)) == runs[0] != runs[1]
        assert carry.x.tobytes() != x0.tobytes()

    def test_guided_admm_step(self):
        state, cfg = guided_case(24)
        admm = default_guiding_params(cfg.w_bar)[1]
        runs = []
        for solve, prox, params, log in (
                (admm_solve, GuidingProx, admm, ConvergenceLog()),
                (ref_pd_solve, RefGuidingProx, admm_as_pd(admm),
                 ConvergenceLog(method="admm"))):
            z = solve(prox(cfg), guided_projector(cfg), params, state.vel, log)
            runs.append((field_bytes(z), log_rows(log)))
        assert len(np.frombuffer(runs[0][1][2])) >= 3
        assert runs[0] == runs[1]

    def test_admm_matches_the_admm_loop(self):
        # the allocating ADMM loop as an independent oracle, at the default
        # rho = 1.4 w_bar^2 (not 1) with adaptive CG: the same rows and CG
        # effort, and every projection output equal to rounding
        state, cfg = guided_case(24)
        params = default_guiding_params(cfg.w_bar)[1]
        assert params.rho != 1.0
        runs = []
        for solve in (admm_solve, ref_admm_solve):
            log, iterates = ConvergenceLog(), []
            solve(GuidingProx(cfg), guided_projector(cfg), params, state.vel, log,
                  iterate_callback=lambda z: iterates.append(z.copy()))
            runs.append((log, iterates))
        (log, got), (ref_log, want) = runs
        assert len(log) >= 3 and len(log) == len(ref_log) == len(got) == len(want)
        assert log.cg_iters == ref_log.cg_iters and log.converged == ref_log.converged
        for z, ref in zip(got, want):
            assert (z - ref).norm() <= 1e-10 * ref.norm()

    def test_wall_pair_matches_the_admm_residuals(self, rng):
        # the standard wall solve against the allocating ADMM loop at
        # rho = sigma = 3, over-relaxed by the wall prox's factor: the same
        # rows and CG effort, and every logged residual Boyd's
        # max(||x - z||, rho ||z - z_old||), to rounding
        flags, u = dam_case(rng)
        faces = BoundaryFaces(flags)
        admm = AdmmParams(rho=STANDARD_PD.sigma, max_iters=STANDARD_PD.max_iters,
                          eps_abs=STANDARD_PD.eps_abs, eps_rel=STANDARD_PD.eps_rel)
        assert admm_as_pd(admm) == STANDARD_PD and WallProx.relaxation != 1.0
        runs = []
        for solve, prox, params, relax in (
                (pd_solve, WallProx, STANDARD_PD, {}),
                (ref_admm_solve, RefWallProx, admm, dict(alpha=WallProx.relaxation))):
            log, iterates = ConvergenceLog(), []
            projector = DivergenceProjector(flags, free_surface_walls_table(flags), CgConfig())
            solve(prox(u, faces), projector, params, u, log,
                  iterate_callback=lambda z: iterates.append(z.copy()), **relax)
            runs.append((log, iterates))
        (log, got), (ref_log, want) = runs
        assert len(log) >= 10 and log.converged and ref_log.converged
        assert len(log) == len(ref_log) == len(got) == len(want)
        assert log.cg_iters == ref_log.cg_iters
        np.testing.assert_allclose(log.residuals, ref_log.residuals, rtol=1e-10, atol=0.0)
        for z, ref in zip(got, want):
            assert (z - ref).norm() <= 1e-10 * ref.norm()

    def test_standard_wall_solve(self, rng):
        flags, u = dam_case(rng)
        state = BcState.initial(flags)
        log = ConvergenceLog()
        got = solve_separating_standard(u, flags, state=state, log=log)
        faces = BoundaryFaces(flags)
        ref_log = ConvergenceLog(method="pd-separating")
        want = ref_standard(u, flags, ref_log)
        assert len(log) >= 10 and log.converged
        assert field_bytes(got) == field_bytes(want)
        assert log_rows(log) == log_rows(ref_log)
        nsep = np.abs(faces.normal_velocity(want)) <= ref_log.epsilons[-1]
        assert state.nsep.tobytes() == wall_set(flags, faces, nsep).nsep.tobytes()

    def test_accelerated_sweep(self, rng):
        flags, u = dam_case(rng)
        runs = []
        for solve in (solve_separating_accelerated, ref_accelerated):
            # each run builds its own system, which its retags update
            state, log = BcState.initial(flags), ConvergenceLog()
            z = solve(u, flags, cg=CgConfig(), state=state, log=log)
            runs.append((field_bytes(z), log_rows(log), state.nsep.tobytes()))
        assert len(np.frombuffer(runs[0][1][2])) >= 2
        assert runs[0] == runs[1]

    def test_project_out(self, rng):
        state, cfg = guided_case(24)
        vel = state.vel + 0.5 * random_velocity(state.vel.dims, rng)
        want, iters, _ = guided_projector(cfg).project(vel)   # into a copy of vel
        assert iters >= 3
        into = random_velocity(vel.dims, rng)
        got = guided_projector(cfg).project(vel, out=into)[0]
        assert got is into and got.as_flat().tobytes() == want.as_flat().tobytes()
        same = vel.copy()
        got = guided_projector(cfg).project(same, out=same)[0]
        assert got is same and got.as_flat().tobytes() == want.as_flat().tobytes()


# -- what the loops must not write ----------------------------------------------

class TestAliasing:
    def test_solves_leave_z0_and_the_config_alone(self, rng):
        state, cfg = guided_case(16)
        z0 = state.vel
        before = [field_bytes(f) for f in (z0, cfg.u_target, cfg.u_current)]
        params = default_guiding_params(cfg.w_bar)
        for solve, p in ((pd_solve, params[0]), (admm_solve, params[1])):
            z = solve(GuidingProx(cfg), guided_projector(cfg), p, z0, ConvergenceLog())
            assert z is not z0 and not np.shares_memory(z._buf, z0._buf)
            assert [field_bytes(f) for f in (z0, cfg.u_target, cfg.u_current)] == before

    def test_proxes_leave_their_input_alone(self, rng):
        state, cfg = guided_case(16)
        flags, a = dam_case(rng)
        for prox, v in ((GuidingProx(cfg), random_velocity(cfg.flags.dims, rng)),
                        (WallProx(a, BoundaryFaces(flags)),
                         random_velocity(flags.dims, rng))):
            held = [field_bytes(v)] + ([field_bytes(a)] if isinstance(prox, WallProx) else [])
            out = prox(2.0, v)
            out2 = prox(3.0, v)
            assert out is out2   # the prox's own field, overwritten by its next call
            assert not np.shares_memory(out._buf, v._buf)
            now = [field_bytes(v)] + ([field_bytes(a)] if isinstance(prox, WallProx) else [])
            assert now == held

    def test_successive_guide_steps_return_independent_fields(self):
        state, cfg = guided_case(16)
        first = guide_step(state.vel, cfg)
        kept = field_bytes(first)
        second = guide_step(first, cfg)
        assert not np.shares_memory(first._buf, second._buf)
        assert field_bytes(first) == kept
        assert field_bytes(second) != kept


# -- no iteration constructs a field ------------------------------------------------

def counted_fields(monkeypatch):
    calls = []
    attach = VelocityField._attach

    def counting(self, dims, buf):
        calls.append(1)
        return attach(self, dims, buf)

    monkeypatch.setattr(VelocityField, "_attach", counting)
    return calls


@pytest.mark.parametrize("case", ["guided-32", "dam-standard"])
def test_no_iteration_constructs_a_field(monkeypatch, rng, case):
    if case == "guided-32":
        state, cfg = guided_case(32, frames=1)
        z0 = state.vel
        setup = lambda: (GuidingProx(cfg), guided_projector(cfg))  # noqa: E731
        pd = default_guiding_params(cfg.w_bar)[0]
    else:
        flags, z0 = dam_case(rng, frames=2)
        faces = BoundaryFaces(flags)
        setup = lambda: (WallProx(z0, faces),  # noqa: E731
                         DivergenceProjector(flags, free_surface_walls_table(flags)))
        pd = PdParams(tau=0.5, sigma=2.0, theta=1.0)
    calls = counted_fields(monkeypatch)
    counts = []
    for iters in (3, 8):
        prox, projector = setup()
        params = PdParams(tau=pd.tau, sigma=pd.sigma, theta=pd.theta,
                          max_iters=iters, eps_abs=0.0, eps_rel=0.0)
        log = ConvergenceLog()
        calls.clear()
        pd_solve(prox, projector, params, z0, log)
        counts.append(len(calls))
        assert len(log) == iters
    assert counts[0] == counts[1]
