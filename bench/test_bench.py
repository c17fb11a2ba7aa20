"""Self-tests of the benchmark's tracer arithmetic and per-frame check.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pdfluids  # noqa: E402
from pdfluids import guiding, pressure, scenes, separating  # noqa: E402
from pdfluids.fields import face_valid_mask  # noqa: E402
from pdfluids.optim import ConvergenceLog  # noqa: E402
from pdfluids.pressure import BcTable  # noqa: E402
from pdfluids.scenes import SceneSpec  # noqa: E402

from kernels import blur_cost, poisson_apply_cost  # noqa: E402
from tracer import Tracer, layer_metrics, scope_of, self_times  # noqa: E402
from workloads import check_frame  # noqa: E402


# -- self time ----------------------------------------------------------------

def test_self_time_nested_tree():
    # root [0,10] > a [1,4] > b [1.5,2];  root > c [5,9]
    parent = [-1, 0, 1, 0]
    t0 = [0.0, 1.0, 1.5, 5.0]
    t1 = [10.0, 4.0, 2.0, 9.0]
    assert self_times(parent, t0, t1) == pytest.approx([3.0, 2.5, 0.5, 4.0])


def test_self_time_overlapping_and_overhanging_children():
    # children [1,4] and [3,6] overlap (union 5); [9,12] overhangs the
    # parent's end and only [9,10] counts
    parent = [-1, 0, 0, 0]
    t0 = [0.0, 1.0, 3.0, 9.0]
    t1 = [10.0, 4.0, 6.0, 12.0]
    assert self_times(parent, t0, t1)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_sum_to_root_duration():
    rng = np.random.default_rng(7)
    parent, t0, t1 = [-1], [0.0], [100.0]

    def grow(p, lo, hi, depth):
        if depth == 0:
            return
        cuts = np.sort(rng.uniform(lo, hi, size=4))
        for a, b in ((cuts[0], cuts[1]), (cuts[2], cuts[3])):
            parent.append(p)
            t0.append(float(a))
            t1.append(float(b))
            grow(len(t0) - 1, float(a), float(b), depth - 1)

    grow(0, 0.0, 100.0, 4)
    assert sum(self_times(parent, t0, t1)) == pytest.approx(100.0)


def test_scope_is_nearest_scoped_ancestor():
    names = ["guiding.GuidingProx.__call__", "guiding.prox_f_guiding",
             "guiding.GuidingPrecompute.build", "guiding.GuidingQuadratic.q",
             "blur.blur_obstacle_aware", "optim.pd_solve"]
    parent = [-1, 0, 1, 2, 1, -1]
    assert scope_of(names, parent) == [names[0], names[0], names[2], names[2],
                                       names[0], None]


def test_layer_metrics_on_synthetic_spans():
    tr = Tracer()
    # frame 0: one loose solve (10 iterations) with two matvec children,
    # frame 1: one final-accuracy solve (30 iterations)
    spans = [
        ("pressure.PoissonSystem.cg", -1, 0, 0.0, 1.0, (10, 1e-3, False)),
        ("pressure.PoissonSystem.apply", 0, 0, 0.1, 0.3, None),
        ("pressure.PoissonSystem.apply", 0, 0, 0.5, 0.6, None),
        ("pressure.PoissonSystem.cg", -1, 1, 2.0, 4.0, (30, 1e-5, False)),
        ("blur.blur_obstacle_aware", -1, 1, 4.0, 4.5, True),
    ]
    for name, p, f, a, b, info in spans:
        tr.name.append(name)
        tr.parent.append(p)
        tr.frame_of.append(f)
        tr.t0.append(a)
        tr.t1.append(b)
        tr.info.append(info)
    m = layer_metrics(tr, n_frames=2, eps_final=1e-5, matvec_bytes=3e8,
                      blur_bytes=1e9)
    assert m["pressure.cg_solves"] == 1.0
    assert m["pressure.cg_iters"] == 20.0
    assert m["pressure.cg_iters_per_solve"] == 20.0
    assert m["pressure.loose_cg_share"] == pytest.approx(0.25)
    assert m["pressure.cg_s"] == pytest.approx((0.7 + 2.0) / 2)
    assert m["pressure.matvec_calls"] == 1.0
    assert m["pressure.matvec_s"] == pytest.approx(0.15)
    assert m["pressure.matvec_gbps_computed"] == pytest.approx(2.0)
    assert (m["blur.fwd_calls"], m["blur.adj_calls"]) == (0.0, 0.5)
    assert m["blur.gbps_computed"] == pytest.approx(2.0)


# -- tracer installation --------------------------------------------------------

def _guided_state(n=16):
    spec = SceneSpec("circular", nx=n, ny=n, w_left=4.0, radius_left=2.0,
                     radius_right=2.0, emitter=(0.4, 0.05, 0.5, 0.1))
    return scenes.build_scene(spec)


def _digest(state):
    return b"".join(a.tobytes() for a in (state.vel.u, state.vel.v,
                                          state.density.values))


def test_wrappers_cover_binding_sites_and_keep_results():
    originals = (guiding.blur_obstacle_aware, separating.subtract_gradient,
                 pressure.subtract_gradient, pdfluids.project,
                 scenes.advect_semi_lagrangian, pressure.PoissonSystem.cg)
    state, cfg = _guided_state()
    scenes.smoke_step(state, cfg.with_current(state.vel))
    untraced = (_digest(state), len(state.last_log), state.last_log.total_cg_iters)

    tr = Tracer()
    tr.install()
    try:
        wrapped = (guiding.blur_obstacle_aware, separating.subtract_gradient,
                   pressure.subtract_gradient, pdfluids.project,
                   scenes.advect_semi_lagrangian, pressure.PoissonSystem.cg)
        assert all(w is not o and w.__wrapped__ is o
                   for w, o in zip(wrapped, originals))
        assert separating.subtract_gradient is pressure.subtract_gradient
        state, cfg = _guided_state()
        scenes.smoke_step(state, cfg.with_current(state.vel))
    finally:
        tr.detach()
    assert (guiding.blur_obstacle_aware, pressure.PoissonSystem.cg) == \
        (originals[0], originals[5])
    traced = (_digest(state), len(state.last_log), state.last_log.total_cg_iters)
    assert traced == untraced
    names = set(tr.name)
    assert {"scenes.smoke_step", "guiding.guide_step", "optim.pd_solve",
            "guiding.GuidingProx.__call__", "pressure.PoissonSystem.apply",
            "blur.blur_obstacle_aware", "fields.advect_semi_lagrangian"} <= names
    cg_iters = sum(i[0] for n, i in zip(tr.name, tr.info)
                   if n == "pressure.PoissonSystem.cg")
    assert cg_iters == state.last_log.total_cg_iters
    assert tr.name.count("pressure.PoissonSystem.apply") == cg_iters


# -- per-frame check --------------------------------------------------------------

def _projected_frame():
    state, _ = _guided_state()
    rng = np.random.default_rng(3)
    for axis, arr in state.vel.components():
        # no flow through the closed box, so the projection is exact
        arr[...] = rng.standard_normal(arr.shape) * face_valid_mask(state.flags, axis)
    bc = BcTable.from_flags(state.flags)
    state.vel = pressure.project(state.vel, state.flags, bc, 1e-5)
    state.last_log = ConvergenceLog(method="pd", converged=True)
    return SimpleNamespace(state=state)


def test_check_passes_a_projected_frame():
    reasons, div_max = check_frame(_projected_frame(), 1e-5)
    assert reasons == [] and div_max <= 1e-4


def test_check_flags_nan_face():
    run = _projected_frame()
    run.state.vel.u[5, 5, 0] = np.nan
    reasons, _ = check_frame(run, 1e-5)
    assert "non-finite" in reasons


def test_check_flags_divergent_field():
    run = _projected_frame()
    run.state.vel.u[5, 5, 0] += 1e-3
    reasons, div_max = check_frame(run, 1e-5)
    assert reasons == ["divergence"] and div_max > 1e-4


def test_check_flags_nonconverged_outer_loop():
    run = _projected_frame()
    run.state.last_log.converged = False
    assert check_frame(run, 1e-5)[0] == ["non-converged"]
    run.state.last_log.method = "accelerated-separating"
    assert check_frame(run, 1e-5)[0] == []


# -- computed kernel figures ------------------------------------------------------

def test_kernel_costs_from_shapes():
    from pdfluids.fields import GridDims
    d = GridDims(4, 4, 1, 0.25)
    # 16 cells; interior faces 3*4 along x plus 4*3 along y
    c = poisson_apply_cost(d)
    assert c["bytes"] == 8 * 16 * 3 + 16 + 8 * 24
    assert c["flops"] == 16 + 4 * 24
    b = blur_cost(d, 1.0)
    assert b["bytes"] == 25 * (20 + 20) * 2
    assert b["exp_evals"] == (20 + 20) * 2 * 2 * 3
