"""Computed kernel figures, the machine record and the speed calibration.

Bytes and flops per call are computed from array shapes and tap counts,
not measured: no hardware counter or peak bandwidth is measured here, so no
roofline ratio is reported.  Bytes count compulsory traffic (every operand
array read once, every result written once, float64 = 8 bytes, bool = 1).
"""

from __future__ import annotations

import math
import os
import platform
import time

# Median time of one Calibrator burst on the reference machine (NOTES.md).
CAL_REF_S = 2.4e-3
# Calibration time per frame boundary, as a share of the nominal frame time.
CAL_SHARE = 0.03


class Calibrator:
    """A fixed burst of small numpy stencil and reduction operations, the
    same kind of work as the solver's inner loop but none of its code.

    Its time tracks the speed the host grants this process right now;
    run.py divides each frame time by it (times CAL_REF_S) so that drift
    of a shared host does not read as a change of the program.  A call
    runs `bursts` bursts and returns the mean time of one.
    """

    def __init__(self, bursts: int = 1, n: int = 64, reps: int = 40):
        import numpy as np
        rng = np.random.default_rng(0)
        self.p = rng.standard_normal((n, n))
        self.diag = np.full((n, n), 4.0)
        self.cx = np.full((n - 1, n), 1.0)
        self.cy = np.full((n, n - 1), 1.0)
        self.bursts, self.reps = bursts, reps
        self.vdot = np.vdot

    @classmethod
    def for_frames(cls, frame_s_nominal: float) -> "Calibrator":
        """Bursts worth CAL_SHARE of a nominal frame, at least one."""
        return cls(bursts=max(1, round(CAL_SHARE * frame_s_nominal / CAL_REF_S)))

    def __call__(self) -> float:
        p, cx, cy = self.p, self.cx, self.cy
        t = time.perf_counter()
        for _ in range(self.bursts * self.reps):
            out = self.diag * p
            out[:-1] -= cx * p[1:]
            out[1:] -= cx * p[:-1]
            out[:, :-1] -= cy * p[:, 1:]
            out[:, 1:] -= cy * p[:, :-1]
            self.vdot(out, p)
        return (time.perf_counter() - t) / self.bursts


def _faces(dims, axis: int) -> int:
    s = list(dims.shape)
    s[axis] += 1
    return s[0] * s[1] * s[2]


def poisson_apply_cost(dims) -> dict:
    """One PoissonSystem.apply: out = diag*p - sum_axis conn*(shifted p),
    then the inactive cells zeroed.  conn holds one entry per interior face."""
    n = dims.cell_count
    conn = sum(_faces(dims, a) - 2 * n // dims.shape[a] for a in dims.axes)
    nbytes = 8 * n * 3 + n + 8 * conn          # p, diag, out; active; conn
    flops = n + 4 * conn                        # diag*p; 2 mul + 2 sub per face
    return {"kernel": "pressure.PoissonSystem.apply", "bytes": nbytes,
            "flops": flops, "working_set": nbytes}


def blur_cost(dims, radius_max: float, transpose: bool = False) -> dict:
    """One blur_obstacle_aware call: per velocity component, one 1D sweep
    per active axis with 2*tmax shifted taps, tmax = ceil(3 * radius).

    Per sweep and face: read value, radius and validity, write the result
    (25 bytes); per tap: the exp weight, a multiply-add into the
    normalizer and one into the numerator (forward) or the scatter
    (adjoint)."""
    tmax = int(math.ceil(3.0 * radius_max))
    sweeps = len(dims.axes)
    faces = sum(_faces(dims, a) for a in dims.axes)
    nbytes = 25 * faces * sweeps
    flops = faces * sweeps * (2 * tmax * 4 + 2)
    exps = faces * sweeps * 2 * tmax
    # per sweep: value, radius, weight, normalizer, numerator, output arrays
    largest = max(_faces(dims, a) for a in dims.axes)
    return {"kernel": "blur.blur_obstacle_aware" + (" (adjoint)" if transpose else ""),
            "bytes": nbytes, "flops": flops, "exp_evals": exps,
            "working_set": 6 * 8 * largest + largest}


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as sysfs reports them, e.g. {"L2": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for e in entries:
        if not e.startswith("index"):
            continue
        level = _read(os.path.join(base, e, "level"))
        kind = _read(os.path.join(base, e, "type"))
        size = _read(os.path.join(base, e, "size"))
        tag = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        out[tag] = size
    return out


def cache_bytes(size: str) -> int:
    mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if size and size[-1] in mult:
        return int(size[:-1]) * mult[size[-1]]
    return int(size) if size.isdigit() else 0


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_record() -> dict:
    """nproc, CPU model, caches, Python, numpy and its BLAS, thread pins."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k, "") for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
