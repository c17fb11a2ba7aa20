"""One workload process of the benchmark (run.py starts it).

    python3 bench/worker.py --root . --workload dam-standard --seed 1 \
        --seconds 20 --mode run

Modes:
    setup  build the scene and its inputs, report the set-up time
    run    set up, then time a fixed number of frames, checking each one
    trace  set up two copies and alternate their frames, one untraced and
           one with every layer wrapped; the two must agree bit for bit

The last stdout line is one JSON object.  PYTHONPATH must point at the
checkout's src directory; the package is refused if it comes from
anywhere else.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

# the frame loop stops early once it has run this many times --seconds
TIME_CAP = 3.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    return p.parse_args(argv)


def check_package_origin(root: str):
    import pdfluids
    src = os.path.realpath(os.path.join(root, "src"))
    origin = os.path.realpath(pdfluids.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"pdfluids was imported from {origin}, not from {src}")


class FrameLoop:
    """Times and checks the frames of one run.  With a tracer, the wrappers
    are attached during the frames only (checks and digests run untraced)."""

    def __init__(self, run, eps_final: float, tracer=None, signatures: bool = False,
                 calibrator=None):
        self.run, self.eps_final, self.tracer = run, eps_final, tracer
        self.keep_signatures = signatures
        self.frame_s, self.records, self.signatures, self.objectives = [], [], [], []
        # calibration bursts before the first frame and after every frame
        self.calibrator = calibrator
        self.cal_s = [calibrator()] if calibrator is not None else []
        self.reasons = Counter()
        self.failed = 0
        self.div_max = 0.0

    def step(self, k: int) -> bool:
        """Run frame k; False once a frame has raised (the run stops)."""
        from workloads import check_frame, frame_record, signature
        tracer = self.tracer
        if tracer is not None:
            tracer.frame = k
            tracer.captured.clear()
            tracer.attach()
        t = time.perf_counter()
        try:
            self.run.frame()
        except Exception as exc:  # the frame failed; count it and stop
            self.frame_s.append(time.perf_counter() - t)
            if self.calibrator is not None:
                self.cal_s.append(self.calibrator())
            self.reasons[f"raised {type(exc).__name__}"] += 1
            self.failed += 1
            return False
        finally:
            if tracer is not None:
                tracer.detach()
        self.frame_s.append(time.perf_counter() - t)
        if self.calibrator is not None:
            self.cal_s.append(self.calibrator())
        why, dm = check_frame(self.run, self.eps_final)
        self.div_max = max(self.div_max, dm)
        if why:
            self.failed += 1
            self.reasons.update(why)
        self.records.append(frame_record(self.run))
        if self.keep_signatures:
            self.signatures.append(signature(self.run))
        if tracer is not None:
            self.objectives.append(guiding_objective(self.run, tracer))
        return True

    @property
    def attempted(self) -> int:
        return len(self.frame_s)


def guiding_objective(run, tracer):
    """Guiding objective of the frame's result, computed with tracing off."""
    call = tracer.captured.get("guiding.guide_step")
    if call is None:
        return None
    from pdfluids.guiding import guiding_objective as objective
    args, _ = call
    u_current, cfg = args[0], args[1]
    return objective(run.state.vel, cfg.with_current(u_current))


def setup_calibration(calibrator) -> float:
    """Median of three calibrations, taken right after the set-up."""
    return sorted(calibrator() for _ in range(3))[1]


def do_setup(args, workdir):
    from kernels import Calibrator
    from workloads import WORKLOADS, frame_count
    wl = WORKLOADS[args.workload]
    wl(args.seed, frame_count(wl, args.seconds), workdir)
    setup_s = time.perf_counter() - T0
    return {"setup_s": setup_s,
            "setup_cal_s": setup_calibration(Calibrator.for_frames(wl.frame_s_nominal))}


def do_run(args, workdir):
    from kernels import Calibrator
    from workloads import WORKLOADS, frame_count
    wl = WORKLOADS[args.workload]
    frames = frame_count(wl, args.seconds)
    run = wl(args.seed, frames, workdir)
    setup_s = time.perf_counter() - T0
    calibrator = Calibrator.for_frames(wl.frame_s_nominal)
    setup_cal_s = setup_calibration(calibrator)
    loop = FrameLoop(run, run.cfg.eps_cg_final, calibrator=calibrator)
    stop = time.perf_counter() + TIME_CAP * args.seconds
    for k in range(frames):
        if not loop.step(k) or time.perf_counter() > stop:
            break
    return {"setup_s": setup_s, "setup_cal_s": setup_cal_s,
            "frame_s": loop.frame_s, "cal_s": loop.cal_s,
            "attempted": loop.attempted, "failed": loop.failed,
            "reasons": dict(loop.reasons), "div_max": loop.div_max,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cg_iters": sum(r["cg_iters"] for r in loop.records),
            "outer_iters": sum(r["outer_iters"] for r in loop.records)}


def do_trace(args, workdir):
    from kernels import blur_cost, machine_record, poisson_apply_cost
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, blur_radius_max, frame_count
    wl = WORKLOADS[args.workload]
    frames = frame_count(wl, args.seconds, share=0.4)
    run = wl(args.seed, frames, os.path.join(workdir, "untraced"))
    eps_final = run.cfg.eps_cg_final
    ref = FrameLoop(run, eps_final, signatures=True)
    tracer = Tracer()
    tracer.install()
    tracer.detach()
    got = FrameLoop(wl(args.seed, frames, os.path.join(workdir, "traced")),
                    eps_final, tracer=tracer, signatures=True)
    # alternate untraced and traced frames so both see the same warm-up and
    # the same drift of the machine
    stop = time.perf_counter() + TIME_CAP * args.seconds
    for k in range(frames):
        if not (ref.step(k) & got.step(k)) or time.perf_counter() > stop:
            break

    mismatch = None
    for k, (a, b) in enumerate(zip(ref.signatures, got.signatures)):
        if a != b:
            mismatch = f"frame {k + 1}: untraced {a} vs traced {b}"
            break
    if mismatch is None and ref.attempted != got.attempted:
        mismatch = f"{ref.attempted} untraced frames vs {got.attempted} traced"

    run = got.run
    dims = run.state.flags.dims
    radius = blur_radius_max(run)
    kernels = [poisson_apply_cost(dims)]
    if radius > 0:
        kernels += [blur_cost(dims, radius), blur_cost(dims, radius, transpose=True)]
    n = max(len(got.records), 1)
    metrics = layer_metrics(tracer, n, eps_final, kernels[0]["bytes"],
                            kernels[1]["bytes"] if radius > 0 else 0.0)
    rec = got.records

    def mean(key):
        return sum(r[key] for r in rec) / n

    objectives = [o for o in got.objectives if o is not None]
    metrics.update({
        "pressure.div_max": got.div_max,
        "guiding.objective": sum(objectives) / len(objectives) if objectives else 0.0,
        "optim.outer_iters": mean("outer_iters"),
        "optim.nonconverged": mean("nonconverged"),
        "separating.sweeps": mean("sweeps"),
        "separating.nsep_faces": mean("nsep"),
        "scenes.particles": mean("particles"),
        "trace.overhead_ratio": sum(ref.frame_s) / sum(got.frame_s),
    })
    machine = machine_record()
    out_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.write_spans(span_file, {"workload": args.workload, "seed": args.seed,
                                   "frames": n, "machine": machine,
                                   "kernels": kernels})
    return {"metrics": metrics, "attempted": got.attempted,
            "failed": got.failed, "reasons": dict(got.reasons),
            "mismatch": mismatch, "spans": len(tracer),
            "span_file": os.path.relpath(span_file, args.root),
            "kernels": kernels, "machine": machine, "grid": list(dims.shape)}


def main(argv=None):
    args = parse_args(argv)
    check_package_origin(args.root)
    workdir = os.path.join(args.root, ".bench_out", f"{args.workload}-{os.getpid()}")
    try:
        result = {"setup": do_setup, "run": do_run, "trace": do_trace}[args.mode](
            args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
