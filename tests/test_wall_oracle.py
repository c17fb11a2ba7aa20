"""Both separating-wall solvers against the exact inequality projection.  Separating walls constrain u.n >= 0 on every fluid-solid face;
the exact pressure step projects the input a onto {D u = 0 on FLUID cells,
S u >= 0}, the LCP of Batty, Bertails & Bridson (SIGGRAPH 2007).  By Moreau's
decomposition that projection is u* = a + D^T p + S^T mu for the free p and
the mu >= 0 that minimize its norm, a bounded least-squares problem that
scipy solves here as a test-time oracle."""

import copy
import functools

import numpy as np
import pytest

from pdfluids.fields import _along, _face_views
from pdfluids.optim import ConvergenceLog
from pdfluids.pressure import CgConfig
from pdfluids.scenes import SceneSpec, build_scene, liquid_begin_step, liquid_step
from pdfluids.separating import (BcState, BoundaryFaces, WallProx,
                                 solve_separating_accelerated, solve_separating_standard)

lsq_linear = pytest.importorskip("scipy.optimize").lsq_linear

SCENES = {
    "dam-2d": SceneSpec("dam", nx=32, ny=22, seed=1),
    "tank-3d": SceneSpec("hydrostatic", nx=10, ny=10, nz=8, seed=1),
    "dam-3d": SceneSpec("dam", nx=10, ny=10, nz=8, fill_fraction=0.5,
                        fill_height=0.7, seed=1),
    # columns up to the ceiling, falling away from it: separating faces
    # under the ceiling, in 3D beside a few wall-ward ones
    "ceiling-2d": SceneSpec("dam", nx=24, ny=18, fill_fraction=0.5,
                            fill_height=1.0, seed=2),
    "ceiling-3d": SceneSpec("dam", nx=10, ny=10, nz=8, fill_fraction=0.5,
                            fill_height=1.0, seed=3),
}
FRAMES = {"dam-2d": (30, 60, 120), "tank-3d": (5, 15), "dam-3d": (15,),
          "ceiling-2d": (2, 8), "ceiling-3d": (2, 11)}


@functools.cache
def pressure_inputs(scene, carry):
    """{frame: (a, flags, state)}: the input of the pressure stage of the
    frame after that many accelerated frames at the CLI's CG accuracy.  With
    `carry` the frames carry the wall set on the scene state, as the CLI
    does, and `state` is a copy of it; else each frame starts from a fresh
    set, and `state` is None."""
    state, _ = build_scene(SCENES[scene])
    out = {}
    for frame in range(1, max(FRAMES[scene]) + 1):
        fresh = None if carry else BcState.initial(state.flags)
        liquid_step(state, mode="separating-accelerated", cg=CgConfig(), bc_state=fresh)
        if frame in FRAMES[scene]:
            probe = copy.deepcopy(state)
            a = liquid_begin_step(probe)[0]
            out[frame] = (a, probe.flags, probe.carry.walls if carry else None)
    return out


def oracle(a, flags):
    """The exact projection u* of a and the multipliers mu of its walls."""
    d = flags.dims
    n = a.n_dof
    face = _face_views(d, np.arange(n))   # the flat index of every face
    cells = np.flatnonzero(flags.fluid)
    col = np.arange(cells.size)
    dt = np.zeros((n, cells.size))        # D^T, unscaled
    for axis in d.axes:
        dt[face[axis][_along(axis, slice(1, None))].reshape(-1)[cells], col] += 1.0
        dt[face[axis][_along(axis, slice(None, -1))].reshape(-1)[cells], col] -= 1.0
    faces = BoundaryFaces(flags)
    st = np.zeros((n, len(faces)))        # S^T, the signed wall-face selector
    st[faces.index, np.arange(len(faces))] = faces.sign
    mat = np.hstack((dt, st))
    rows = np.flatnonzero(np.abs(mat).sum(axis=1))   # faces the step can move
    lower = np.concatenate((np.full(cells.size, -np.inf), np.zeros(len(faces))))
    x = lsq_linear(mat[rows], -a.as_flat()[rows], bounds=(lower, np.inf),
                   method="bvls", tol=1e-10).x
    return a.as_flat() + mat @ x, x[cells.size:], dt, st


# every frame with a fresh set, and each scene's last frame also with the
# set carried from the frame before
CASES = [pytest.param(scene, frame, carry, id=f"{scene}-{frame}" + ("-carried" * carry))
         for scene in SCENES for frame in FRAMES[scene] for carry in (False, True)
         if not carry or frame == FRAMES[scene][-1]]


@pytest.mark.parametrize("scene, frame, carry", CASES)
def test_accelerated_matches_exact_projection(scene, frame, carry):
    a, flags, state = pressure_inputs(scene, carry)[frame]
    exact, mu, dt, st = oracle(a, flags)
    step = np.linalg.norm(exact - a.as_flat())
    assert step > 0 and st.shape[1] > 0
    # the oracle's own optimality: feasible, mu >= 0, complementary
    assert np.abs(dt.T @ exact).max() <= 1e-10 * step
    assert (st.T @ exact).min() >= -1e-10 * step
    assert mu.min() >= 0.0
    assert np.abs(mu * (st.T @ exact)).max() <= 1e-10 * step * max(mu.max(), 1.0)
    if carry:
        assert state.nsep.any()
    z = solve_separating_accelerated(a, flags, cg=CgConfig(eps_final=1e-8), state=state)
    assert np.linalg.norm(z.as_flat() - exact) <= 1e-8 * step
    # the standard solver at its defaults stops at its PD tolerance
    z = solve_separating_standard(a, flags, cg=CgConfig())
    assert np.linalg.norm(z.as_flat() - exact) <= 2e-3 * step


def test_standard_stops_near_the_exact_projection_on_the_workload_dam():
    # the 100x70 dam of the dam workloads after 10 accelerated frames: a
    # stop on the iterate change alone lands 8.5e-3 of the step away here,
    # the stop on the primal and dual residuals within 2e-3.  The exact
    # projection is the accelerated solve at a tight CG accuracy (too large
    # a state for the oracle)
    state, _ = build_scene(SceneSpec("dam", nx=100, ny=70, fill_fraction=0.5,
                                     fill_height=0.9, dt=0.01, seed=1))
    for _ in range(10):
        liquid_step(state, mode="separating-accelerated", cg=CgConfig())
    a = liquid_begin_step(state)[0]
    exact = solve_separating_accelerated(a, state.flags, cg=CgConfig(eps_final=1e-9),
                                         state=state.carry.walls)
    step = (exact - a).norm()
    assert step > 0
    z = solve_separating_standard(a, state.flags)
    assert (z - exact).norm() <= 2e-3 * step


@pytest.mark.parametrize("dims", [(50, 35, 1), (16, 16, 12)], ids=["2d", "3d"])
def test_relaxation_saves_standard_solver_work(dims, monkeypatch):
    # the dam of the dam workloads, at dam-standard's 50x35 and at
    # 16x16x12: over the pressure inputs after 2, 4 and 6 accelerated
    # frames, the standard solver at its over-relaxation takes fewer PD and
    # fewer CG iterations in total than unrelaxed, both converge, and the
    # relaxed one stops within the oracle bound of the exact projection
    nx, ny, nz = dims
    state, _ = build_scene(SceneSpec("dam", nx=nx, ny=ny, nz=nz, fill_fraction=0.5,
                                     fill_height=0.9, dt=0.01, seed=1))
    assert WallProx.relaxation != 1.0
    work = {WallProx.relaxation: [0, 0], 1.0: [0, 0]}   # PD and CG totals
    for frame in range(1, 7):
        liquid_step(state, mode="separating-accelerated", cg=CgConfig())
        if frame % 2:
            continue
        probe = copy.deepcopy(state)
        a = liquid_begin_step(probe)[0]
        exact = solve_separating_accelerated(a, probe.flags, cg=CgConfig(eps_final=1e-9),
                                             state=probe.carry.walls)
        step = (exact - a).norm()
        assert step > 0
        for relax, total in work.items():
            monkeypatch.setattr(WallProx, "relaxation", relax)
            log = ConvergenceLog()
            z = solve_separating_standard(a, probe.flags, log=log)
            assert log.converged
            total[0] += len(log)
            total[1] += log.total_cg_iters
            if relax != 1.0:
                assert (z - exact).norm() <= 2e-3 * step
    (pd, cg), (pd_plain, cg_plain) = work.values()
    assert pd < pd_plain and cg < cg_plain
