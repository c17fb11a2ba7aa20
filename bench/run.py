"""pdfluids benchmark: seeded frame-loop workloads with per-frame checks.

    python3 bench/run.py --workload guided-smoke --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  Each workload runs in its own worker
process with the BLAS/OpenMP pools pinned to one thread, one process at a
time.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs the frames untraced and then traced, checks that both agree bit for
bit, and prints the per-layer metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from kernels import CAL_REF_S, cache_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("guided-smoke", "upres", "dam-standard", "dam-accelerated")

SETUP_RUNS = 5          # set-up is timed in this many worker processes
TIME_LIMIT_S = 170.0    # whole invocation, per workload
TAIL_BEYOND = 10        # frames beyond the reported tail percentile

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {  # name: (unit, better)
    "frames_per_s": ("frames/s", "higher"),
    "frame_s_p50": ("s", "lower"),
    "frame_s_tail": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {  # name: (unit, better); per frame unless the unit says otherwise
    "pressure.cg_solves": ("count", "lower"),
    "pressure.cg_iters": ("count", "lower"),
    "pressure.cg_iters_per_solve": ("count", "lower"),
    "pressure.loose_cg_share": ("ratio", "lower"),
    "pressure.cg_s": ("s", "lower"),
    "pressure.matvec_calls": ("count", "lower"),
    "pressure.matvec_s": ("s", "lower"),
    "pressure.matvec_gbps_computed": ("GB/s", "higher"),
    "pressure.build_calls": ("count", "lower"),
    "pressure.build_s": ("s", "lower"),
    "pressure.gradient_s": ("s", "lower"),
    "pressure.cg_failures": ("count", "lower"),
    "pressure.div_max": ("1/s", "lower"),
    "blur.fwd_calls": ("count", "lower"),
    "blur.fwd_s": ("s", "lower"),
    "blur.adj_calls": ("count", "lower"),
    "blur.adj_s": ("s", "lower"),
    "blur.gbps_computed": ("GB/s", "higher"),
    "guiding.prox_calls": ("count", "lower"),
    "guiding.prox_s": ("s", "lower"),
    "guiding.precompute_s": ("s", "lower"),
    "guiding.objective": ("m2/s2", "lower"),
    "optim.outer_iters": ("count", "lower"),
    "optim.self_s": ("s", "lower"),
    "optim.krylov_accept_ratio": ("ratio", "higher"),
    "optim.nonconverged": ("count", "lower"),
    "separating.classify_calls": ("count", "lower"),
    "separating.classify_s": ("s", "lower"),
    "separating.solve_s": ("s", "lower"),
    "separating.sweeps": ("count", "lower"),
    "separating.nsep_faces": ("count", "lower"),
    "scenes.p2g_s": ("s", "lower"),
    "scenes.g2p_s": ("s", "lower"),
    "scenes.extrapolate_s": ("s", "lower"),
    "scenes.flags_s": ("s", "lower"),
    "scenes.particles": ("count", "lower"),
    "fields.advect_calls": ("count", "lower"),
    "fields.advect_s": ("s", "lower"),
    "fields.upsample_s": ("s", "lower"),
    "fileio.read_calls": ("count", "lower"),
    "fileio.read_s": ("s", "lower"),
    "fileio.read_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


# Frames that raise, go non-finite or report non-convergence make a run
# incorrect.  Frames over the divergence bound are counted as failed (and in
# frame_fail_ratio) but leave `correct` alone: a known defect of the
# standard wall solver at the seed (NOTES.md).
HARD_FAILURES = ("raised", "non-finite", "non-converged")


class BenchError(RuntimeError):
    pass


def hard_failure(reasons: dict) -> bool:
    return any(r.startswith(HARD_FAILURES) for r in reasons)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="pdfluids frame-loop benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20,
                   help="frames are sized to take about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def frame_stats(frame_s: list[float]) -> dict:
    """Throughput, median and tail of the frame times.  The tail is the
    highest percentile that still has TAIL_BEYOND frames beyond it."""
    n = len(frame_s)
    s = sorted(frame_s)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {"frames_per_s": n / sum(frame_s),
            "frame_s_p50": statistics.median(s), "frame_s_tail": s[k],
            "tail_pct": 100.0 * (k + 1) / n, "tail_beyond": n - k - 1}


def at_reference_speed(frame_s: list[float], cal_s: list[float]) -> list[float]:
    """Frame wall times rescaled to the reference machine's speed: frame k
    is multiplied by CAL_REF_S over the mean of the calibration bursts
    taken just before and just after it."""
    return [t * 2.0 * CAL_REF_S / (cal_s[k] + cal_s[k + 1])
            for k, t in enumerate(frame_s)]


def run_untraced(workload, args, deadline):
    probes = [worker(workload, args.seed, args.seconds, "setup", deadline)
              for _ in range(SETUP_RUNS - 1)]
    res = worker(workload, args.seed, args.seconds, "run", deadline)
    setups = [p["setup_s"] * CAL_REF_S / p["setup_cal_s"] for p in probes + [res]]
    raw_setup = statistics.median(p["setup_s"] for p in probes + [res])
    raw = frame_stats(res["frame_s"])
    st = frame_stats(at_reference_speed(res["frame_s"], res["cal_s"]))
    speed = CAL_REF_S / statistics.median(res["cal_s"])
    metrics = {"frames_per_s": st["frames_per_s"], "frame_s_p50": st["frame_s_p50"],
               "frame_s_tail": st["frame_s_tail"],
               "setup_s": statistics.median(setups),
               "peak_rss_mb": res["peak_rss_mb"]}
    n, failed = res["attempted"], res["failed"]
    notes = {
        "frames_per_s": f"frames {n}; wall {raw['frames_per_s']:.6g}",
        "frame_s_p50": f"frames {n}; wall {raw['frame_s_p50']:.6g}",
        "frame_s_tail": f"p{st['tail_pct']:.1f}, {st['tail_beyond']} frames beyond, "
                        f"frames {n}; wall {raw['frame_s_tail']:.6g}",
        "setup_s": f"median of {len(setups)} set-ups; wall {raw_setup:.6g}",
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    print(f"  times at reference speed; this host ran at {speed:.3f}x "
          f"the reference during the frames (calibration burst median "
          f"{statistics.median(res['cal_s']) * 1e3:.3f} ms vs {CAL_REF_S * 1e3:.3f} ms)")
    for name, value in metrics.items():
        print(f"  {name:<18} {value:>12.6g} {END_TO_END[name][0]:<9} ({notes[name]})")
    print(f"  {'frame_fail_ratio':<18} {failed / n:>12.6g} {'ratio':<9} "
          f"({failed} of {n} frames failed)")
    print(f"  check: {n - failed} of {n} frames pass, failures {res['reasons'] or 'none'}, "
          f"max|div| {res['div_max']:.3e} (bound 1e-4)")
    print(f"  counts: frames {n}  outer iterations {res['outer_iters']}"
          f"  CG iterations {res['cg_iters']}")
    return not hard_failure(res["reasons"]), n, failed, metrics


def run_traced(workload, args, deadline):
    res = worker(workload, args.seed, args.seconds, "trace", deadline)
    m = res["machine"]
    print(f"  machine: nproc {m['nproc']}, {m['cpu']}, caches {m['caches']}, "
          f"Python {m['python']}, numpy {m['numpy']} ({m['blas']}), "
          f"threads {m['threads']}")
    l2 = cache_bytes(m["caches"].get("L2", ""))
    for k in res["kernels"]:
        fits = "fits" if l2 and k["working_set"] <= l2 else "exceeds"
        print(f"  kernel {k['kernel']} on {'x'.join(map(str, res['grid']))}: "
              f"{k['bytes']} bytes and {k['flops']} flops per call, "
              f"{k['flops'] / k['bytes']:.2f} flops/byte (computed), "
              f"working set {k['working_set'] / 1024:.0f} KiB {fits} "
              f"L2 {m['caches'].get('L2', '?')}")
    for name, value in res["metrics"].items():
        print(f"  {name:<32} {value:>12.6g} {PER_LAYER[name][0]}")
    same = res["mismatch"] is None
    print(f"  traced vs untraced ({res['attempted']} frames): "
          + ("counts and final fields identical" if same else f"MISMATCH {res['mismatch']}"))
    print(f"  check: {res['failed']} of {res['attempted']} traced frames failed "
          f"{res['reasons'] or ''}; {res['spans']} spans written to {res['span_file']}")
    ok = same and not hard_failure(res["reasons"])
    return ok, res["attempted"], res["failed"], res["metrics"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pdfluids", "__init__.py")):
        print(f"no pdfluids sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}", flush=True)
        deadline = time.monotonic() + TIME_LIMIT_S
        step = run_traced if args.trace else run_untraced
        try:
            ok, n, bad, m = step(workload, args, deadline)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        sys.stdout.flush()
        correct &= ok
        attempted += n
        failed += bad
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k][0]}
                        for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
