"""Span tracing of the pdfluids layers from outside the package.

`install` wraps every public function of the layer modules at every place
it is bound (the defining module, each `from .x import y` site and the
package namespace) plus the public methods, `__init__` and `__call__` of
the classes those modules define.  Each wrapped call records one span:
name, layer, parent span, frame, start and end.  Spans stay in memory;
`layer_metrics` reduces them to per-frame figures after the run and
`write_spans` stores them.

The container types of `fields` (grids, flag, scalar and velocity fields)
are value types whose methods run thousands of times per frame; they are
not wrapped and their time counts toward the calling span.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fields", "blur", "pressure", "optim", "guiding", "separating",
          "scenes", "fileio")

VALUE_TYPES = {"GridDims", "CellFlags", "ScalarField", "VelocityField"}

# spans whose guiding-layer descendants are reported as their own metric
SCOPES = ("guiding.GuidingProx.__call__", "guiding.GuidingPrecompute.build")

BUILD_SPANS = ("pressure.BcTable.from_flags", "separating.classified_walls_table",
               "pressure.PoissonSystem.__init__")


def _cg_info(args, kwargs, result, exc):
    """(iterations, eps, raised) of one PoissonSystem.cg call."""
    eps = kwargs["eps"] if "eps" in kwargs else args[2]
    if exc is not None:
        return (getattr(exc, "iterations", 0), eps, True)
    return (result[1], eps, False)


def _blur_info(args, kwargs, result, exc):
    return bool(kwargs.get("transpose", args[3] if len(args) > 3 else False))


def _krylov_info(args, kwargs, result, exc):
    """(tried, kept): a correction is tried when both error norms are nonzero
    and kept when the candidate replaced the iterate."""
    if exc is not None:
        return (False, False)
    z_k, z_km1, _, eps_km1 = args[:4]
    tried = (z_km1 is not None and eps_km1 not in (None, 0.0)
             and result[1] != 0.0)
    return (tried, result[0] is not z_k)


def _read_info(args, kwargs, result, exc):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path) if exc is None else 0


INFO = {
    "pressure.PoissonSystem.cg": _cg_info,
    "blur.blur_obstacle_aware": _blur_info,
    "optim.krylov_accelerate": _krylov_info,
    "fileio.read_grid": _read_info,
}


class Tracer:
    """In-memory span recorder.  `install` builds the wrappers; `attach`
    and `detach` swap them in and out, so code run while detached is the
    package's own."""

    def __init__(self):
        self.frame = 0
        self.name: list[str] = []
        self.parent: list[int] = []
        self.frame_of: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.info: list = []
        self.captured: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attr, original, wrapped)

    def __len__(self):
        return len(self.name)

    def wrap(self, name: str, fn, info=None, capture: bool = False):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if capture:
                tracer.captured[name] = (args, kwargs)
            i = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.frame_of.append(tracer.frame)
            tracer.info.append(None)
            tracer.t0.append(0.0)
            tracer.t1.append(0.0)
            stack.append(i)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.t0[i] = t0
                tracer.t1[i] = t1
                if info is not None:
                    tracer.info[i] = info(args, kwargs, result, exc)
                elif exc is not None:
                    tracer.info[i] = type(exc).__name__

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ---------------------------------------------------------
    def install(self, capture=("guiding.guide_step",)):
        """Wrap the public surface of every layer at every binding site and
        attach the wrappers.  Arguments of the `capture` spans are kept."""
        mods = [importlib.import_module(f"pdfluids.{layer}") for layer in LAYERS]
        replaced = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self.wrap(
                        name, obj, INFO.get(name), name in capture))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and attr not in VALUE_TYPES):
                    self._wrap_class(layer, mod, obj, capture)
        # rebind every module-level name that refers to a wrapped function
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "pdfluids" or mname.startswith("pdfluids.")):
                continue
            for attr, obj in list(vars(m).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((m, attr, obj, hit[1]))
        self.attach()

    def _wrap_class(self, layer, mod, cls, capture):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            # skip generated dataclass methods and anything not written in mod
            if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            w = self.wrap(name, fn, INFO.get(name), name in capture)
            self._patches.append((cls, attr, raw, kind(w) if kind else w))

    def attach(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def detach(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------
    def write_spans(self, path, meta: dict):
        """Store the spans, their self times and `meta` in one .npz file."""
        import json

        import numpy as np
        names = sorted(set(self.name))
        idx = {n: k for k, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([idx[n] for n in self.name], dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 frame=np.array(self.frame_of, dtype=np.int32),
                 t0=np.array(self.t0), t1=np.array(self.t1),
                 self_s=np.array(self_times(self.parent, self.t0, self.t1)),
                 meta=np.array(json.dumps(meta)))


def self_times(parent, t0, t1):
    """Span duration minus the part of it that its child spans cover.

    Children of one parent may overlap (then their union counts once) and
    are clipped to the parent's interval.
    """
    n = len(t0)
    kids: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = []
    for i in range(n):
        lo, hi = t0[i], t1[i]
        covered = 0.0
        end = lo
        for c in sorted(kids.get(i, ()), key=lambda c: t0[c]):
            a, b = max(t0[c], end), min(t1[c], hi)
            if b > a:
                covered += b - a
                end = b
        out.append((hi - lo) - covered)
    return out


def scope_of(names, parent, scopes=SCOPES):
    """Nearest ancestor-or-self span name in `scopes`, or None.  Parents
    are recorded before their children, so one forward pass suffices."""
    out = []
    for i, n in enumerate(names):
        if n in scopes:
            out.append(n)
        else:
            p = parent[i]
            out.append(out[p] if p >= 0 else None)
    return out


CG = "pressure.PoissonSystem.cg"
MATVEC = "pressure.PoissonSystem.apply"
BLUR = "blur.blur_obstacle_aware"


def layer_metrics(tracer: Tracer, n_frames: int, eps_final: float,
                  matvec_bytes: float, blur_bytes: float) -> dict:
    """Per-frame layer figures from the recorded spans.

    `_s` figures are self times.  The `*_gbps_computed` figures divide the
    computed bytes of one call (see kernels.py) by the measured span time.
    """
    names, parent, info = tracer.name, tracer.parent, tracer.info
    selfs = self_times(parent, tracer.t0, tracer.t1)
    scope = scope_of(names, parent)
    count = Counter()
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    layer_self = defaultdict(float)
    guiding_scoped = defaultdict(float)
    cg_iters = loose_iters = cg_failures = 0
    blur_n = [0, 0]
    blur_self = [0.0, 0.0]
    tried = kept = 0
    read_bytes = 0
    for i, n in enumerate(names):
        count[n] += 1
        self_s[n] += selfs[i]
        dur_s[n] += tracer.t1[i] - tracer.t0[i]
        layer = n.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        if layer == "guiding" and scope[i] is not None:
            guiding_scoped[scope[i]] += selfs[i]
        x = info[i]
        if n == CG:
            iters, eps, raised = x
            cg_iters += iters
            loose_iters += iters if eps > eps_final else 0
            cg_failures += raised
        elif n == BLUR:
            blur_n[x] += 1
            blur_self[x] += selfs[i]
        elif n == "optim.krylov_accelerate":
            tried += x[0]
            kept += x[0] and x[1]
        elif n == "fileio.read_grid":
            read_bytes += x
    per = 1.0 / n_frames
    solves = count[CG]
    blur_calls = sum(blur_n)
    return {
        "pressure.cg_solves": solves * per,
        "pressure.cg_iters": cg_iters * per,
        "pressure.cg_iters_per_solve": cg_iters / solves if solves else 0.0,
        "pressure.loose_cg_share": loose_iters / cg_iters if cg_iters else 0.0,
        "pressure.cg_s": self_s[CG] * per,
        "pressure.matvec_calls": count[MATVEC] * per,
        "pressure.matvec_s": self_s[MATVEC] * per,
        "pressure.matvec_gbps_computed":
            matvec_bytes * count[MATVEC] / dur_s[MATVEC] / 1e9 if count[MATVEC] else 0.0,
        "pressure.build_calls": sum(count[n] for n in BUILD_SPANS) * per,
        "pressure.build_s": sum(self_s[n] for n in BUILD_SPANS) * per,
        "pressure.gradient_s": self_s["pressure.subtract_gradient"] * per,
        "pressure.cg_failures": cg_failures * per,
        "blur.fwd_calls": blur_n[0] * per,
        "blur.fwd_s": blur_self[0] * per,
        "blur.adj_calls": blur_n[1] * per,
        "blur.adj_s": blur_self[1] * per,
        "blur.gbps_computed":
            blur_bytes * blur_calls / dur_s[BLUR] / 1e9 if blur_calls else 0.0,
        "guiding.prox_calls": count[SCOPES[0]] * per,
        "guiding.prox_s": guiding_scoped[SCOPES[0]] * per,
        "guiding.precompute_s": guiding_scoped[SCOPES[1]] * per,
        "optim.self_s": layer_self["optim"] * per,
        "optim.krylov_accept_ratio": kept / tried if tried else 0.0,
        "separating.classify_calls": count["separating.classify"] * per,
        "separating.classify_s": self_s["separating.classify"] * per,
        "separating.solve_s": (self_s["separating.solve_separating_standard"]
                               + self_s["separating.solve_separating_accelerated"]) * per,
        "scenes.p2g_s": self_s["scenes.particles_to_grid"] * per,
        "scenes.g2p_s": self_s["scenes.sample_at_particles"] * per,
        "scenes.extrapolate_s": self_s["scenes.extrapolate_velocity"] * per,
        "scenes.flags_s": self_s["scenes.flags_from_particles"] * per,
        "fields.advect_calls": count["fields.advect_semi_lagrangian"] * per,
        "fields.advect_s": self_s["fields.advect_semi_lagrangian"] * per,
        "fields.upsample_s": self_s["fields.upsample"] * per,
        "fileio.read_calls": count["fileio.read_grid"] * per,
        "fileio.read_s": self_s["fileio.read_grid"] * per,
        "fileio.read_bytes": read_bytes * per,
    }
