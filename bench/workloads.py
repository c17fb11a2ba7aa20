"""The benchmark workloads: seeded inputs and the frame each one times.

Each workload makes the library calls of the matching CLI subcommand
(`guide`, `upres`, `dam`) with the CLI's default solver settings: CG
accuracy 1e-2 down to 1e-5, stop tolerances 1e-3, 300 outer iterations,
10000 CG iterations.  The seed only generates inputs: the emitter box of
the smoke scenes and the particle jitter of the dam.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from pdfluids import fileio, scenes
from pdfluids.config import RunConfig
from pdfluids.fields import divergence
from pdfluids.guiding import default_guiding_params
from pdfluids.optim import AdmmParams, PdParams
from pdfluids.scenes import SceneSpec
from pdfluids.separating import BcState

# Library calls go through the module objects (scenes.smoke_step, ...) so
# that the tracer's wrappers see the frame's top-level calls too.

# outer-loop logs whose non-convergence fails a frame
CHECKED_METHODS = ("pd", "admm", "pd-separating")

UPRES_FACTOR = 4


def seeded_emitter(seed: int) -> tuple:
    """Fractional emitter box near the floor, placed by the seed.  It always
    straddles the middle, where the guiding weight changes, so that every
    seed drives the same flow up to a cell's shift."""
    rng = np.random.default_rng(seed)
    x0 = float(rng.uniform(0.44, 0.46))
    y0 = float(rng.uniform(0.065, 0.09))
    return (x0, y0, x0 + 0.1, y0 + 0.05)


def guided_spec(n: int, seed: int) -> SceneSpec:
    return SceneSpec("circular", nx=n, ny=n, w_left=4.0, w_right=1.0,
                     radius_left=2.0, radius_right=2.0,
                     emitter=seeded_emitter(seed), seed=seed)


def solver_params(cfg: RunConfig, w_bar: float) -> tuple[PdParams, AdmmParams]:
    """The CLI's guiding step sizes under the run config's stop settings."""
    pd, admm = default_guiding_params(w_bar)
    stop = dict(max_iters=cfg.max_iters, eps_abs=cfg.eps_abs, eps_rel=cfg.eps_rel)
    return dataclasses.replace(pd, **stop), dataclasses.replace(admm, **stop)


class GuidedSmoke:
    """`pdfluids guide` on circular 64^2, w 4/1, blur radius 2, PD."""

    name = "guided-smoke"
    frame_s_nominal = 0.16

    def __init__(self, seed: int, frames: int, workdir: str, n: int = 64):
        self.cfg = RunConfig(scene=guided_spec(n, seed), method="pd")
        self.state, self.guide = scenes.build_scene(self.cfg.scene)
        self.pd, self.admm = solver_params(self.cfg, self.guide.w_bar)
        self.bc_state = None

    def frame(self):
        self.guide = self.guide.with_current(self.state.vel)
        scenes.smoke_step(self.state, self.guide, method=self.cfg.method,
                   pd_params=self.pd, admm_params=self.admm, cg=self.cfg.cg,
                   exact_prox=self.cfg.exact_prox)


class Upres(GuidedSmoke):
    """`pdfluids upres`: a seeded guided 32^2 run is written with
    write_grid during setup; each frame reads one coarse grid, upsamples it
    4x into the guiding target and takes a guided step at 128^2."""

    name = "upres"
    frame_s_nominal = 0.75

    def __init__(self, seed: int, frames: int, workdir: str):
        coarse = GuidedSmoke(seed, frames, workdir, n=32)
        self.coarse_dir = os.path.join(workdir, "coarse")
        os.makedirs(self.coarse_dir, exist_ok=True)
        for _ in range(frames + 1):
            coarse.frame()
            fileio.write_grid(self._coarse_path(coarse.state.frame), coarse.state.vel)
        spec = coarse.cfg.scene
        fine = dataclasses.replace(spec, nx=spec.nx * UPRES_FACTOR,
                                   ny=spec.ny * UPRES_FACTOR,
                                   h=spec.h / UPRES_FACTOR)
        self.cfg = dataclasses.replace(coarse.cfg, scene=fine)
        self.state, self.guide = scenes.build_scene(fine)
        self.pd, self.admm = solver_params(self.cfg, self.guide.w_bar)
        self.bc_state = None

    def _coarse_path(self, frame: int) -> str:
        return os.path.join(self.coarse_dir, f"vel_{frame:04d}.grid")

    def frame(self):
        coarse = fileio.read_grid(self._coarse_path(self.state.frame + 1))
        self.guide = scenes.upsampled_target(coarse, UPRES_FACTOR, self.cfg.scene,
                                      self.state)
        super().frame()


class Dam:
    """`pdfluids dam` on the breaking dam (fill 0.5 x 0.9, dt 0.01) with
    seeded particle jitter.  A BcState is passed on every frame so the
    separating-set size can be read afterwards."""

    mode = ""
    nx, ny = 100, 70

    def __init__(self, seed: int, frames: int, workdir: str):
        spec = SceneSpec("dam", nx=self.nx, ny=self.ny, fill_fraction=0.5,
                         fill_height=0.9, dt=0.01, seed=seed)
        self.cfg = RunConfig(scene=spec, bc_mode=self.mode)
        self.state, _ = scenes.build_scene(spec)
        self.bc_state = BcState.initial(self.state.flags, eps=self.cfg.eps_cg_final)

    def frame(self):
        scenes.liquid_step(self.state, mode=self.cfg.bc_mode, cg=self.cfg.cg,
                    bc_state=self.bc_state)


class DamStandard(Dam):
    """Half the acceptance-fixture resolution: at 100x70 a standard frame
    takes 1-2.5 s and the bimodal frame times make a 20 s run's median and
    tail depend on the seed (see NOTES.md)."""

    name = "dam-standard"
    mode = "separating-standard"
    nx, ny = 50, 35
    frame_s_nominal = 0.2


class DamAccelerated(Dam):
    name = "dam-accelerated"
    mode = "separating-accelerated"
    frame_s_nominal = 0.085


WORKLOADS = {w.name: w for w in (GuidedSmoke, Upres, DamStandard, DamAccelerated)}


def frame_count(workload, seconds: float, share: float = 1.0) -> int:
    """Frames that take about `share * seconds` at the workload's nominal
    frame time; a fixed count keeps the measured frames equal across runs.
    At least 11, so the tail percentile has 10 frames beyond it."""
    return max(11, int(round(share * seconds / workload.frame_s_nominal)))


# ---------------------------------------------------------------------------
# per-frame check

def check_frame(run, eps_final: float) -> tuple[list[str], float]:
    """Reasons the frame just computed fails, and its max |div| on FLUID.

    A frame fails when an output field or particle is non-finite, when an
    outer loop on a PD/ADMM/standard-wall path reports non-convergence, or
    when max |div| over FLUID cells exceeds 10 * eps_cg_final, the bound a
    final-accuracy projection guarantees.
    """
    st = run.state
    reasons = []
    arrays = [st.vel.u, st.vel.v, st.vel.w]
    if st.density is not None:
        arrays.append(st.density.values)
    if st.particles_pos is not None:
        arrays += [st.particles_pos, st.particles_vel]
    if not all(np.isfinite(a).all() for a in arrays):
        reasons.append("non-finite")
    log = st.last_log
    if log is not None and log.method in CHECKED_METHODS and not log.converged:
        reasons.append("non-converged")
    div = divergence(st.vel, st.flags).values[st.flags.fluid]
    div_max = float(np.abs(div).max()) if div.size else 0.0
    if not div_max <= 10.0 * eps_final:
        reasons.append("divergence")
    return reasons, div_max


def frame_record(run) -> dict:
    """Per-frame counts read from the scene after the frame."""
    st = run.state
    log = st.last_log
    sweeps = len(log) if log.method == "accelerated-separating" else 0
    return {
        "outer_iters": len(log) if log.method in CHECKED_METHODS else 0,
        "cg_iters": log.total_cg_iters,
        "nonconverged": int(log.method in CHECKED_METHODS and not log.converged),
        "sweeps": sweeps,
        "nsep": int(run.bc_state.nsep.sum()) if run.bc_state is not None else 0,
        "particles": 0 if st.particles_pos is None else len(st.particles_pos),
    }


def signature(run) -> tuple:
    """The frame's counts and a digest of its output fields; traced and
    untraced runs must produce identical sequences."""
    st = run.state
    h = hashlib.sha256()
    for a in (st.vel.u, st.vel.v, st.vel.w,
              None if st.density is None else st.density.values,
              st.particles_pos, st.particles_vel):
        if a is not None:
            h.update(a.tobytes())
    return tuple(frame_record(run).values()) + (h.hexdigest(),)


def blur_radius_max(run) -> float:
    guide = getattr(run, "guide", None)
    return float(guide.radius.values.max()) if guide is not None else 0.0
