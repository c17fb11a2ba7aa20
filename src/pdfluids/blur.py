"""Separable Gaussian blur of velocity fields with obstacle awareness.

Each velocity component is convolved one axis at a time with a discrete 1D
Gaussian whose standard deviation is the local blur radius sampled at the
face (in cell units).  Kernel taps that fall outside the domain or on a
face adjacent to a SOLID cell are dropped and the kernel is renormalized
over the remaining taps, so constants are preserved and nothing leaks
through walls.  Faces adjacent to SOLID pass through unchanged.

The transpose mode applies the exact adjoint of this linear map (the same
kernels in scatter form, with the axis sweeps in reverse order), which is
what realizes B^T for the guiding operators.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (CellFlags, ScalarField, VelocityField, _along,
                     cell_to_face_average, face_valid_mask)


def _shifted(axis: int, t: int):
    """(dst, src) index tuples such that dst = src + t along axis (t != 0)."""
    if t > 0:
        return _along(axis, slice(t, None)), _along(axis, slice(None, -t))
    return _along(axis, slice(None, t)), _along(axis, slice(-t, None))


def _sweep(vals: np.ndarray, rad: np.ndarray, valid: np.ndarray, axis: int,
           transpose: bool) -> np.ndarray:
    """One 1D blur pass along `axis` (or its exact transpose)."""
    vf = valid.astype(np.float64)
    tmax = int(math.ceil(3.0 * rad.max())) if rad.size else 0
    ncut = np.ceil(3.0 * rad)

    # kernel weights and the per-face normalizer (shared by both modes)
    def weight(t):
        with np.errstate(divide="ignore"):
            w = np.exp(-(t * t) / (2.0 * np.square(rad)))
        return np.where((rad > 0) & (t <= ncut), w, 0.0)

    den = vf.copy()  # t = 0 tap
    for t in range(1, tmax + 1):
        wt = weight(t)
        for s in (t, -t):
            dst, src = _shifted(axis, -s)  # gather: out[f] reads f+s
            den[dst] += wt[dst] * vf[src]

    if not transpose:
        num = vals * vf
        for t in range(1, tmax + 1):
            wt = weight(t)
            for s in (t, -t):
                dst, src = _shifted(axis, -s)
                num[dst] += wt[dst] * (vals * vf)[src]
        out = np.where(valid, num / np.where(den > 0, den, 1.0), vals)
        return out

    # adjoint: scatter each valid source face through its own kernel
    coef = np.where(valid, vals / np.where(den > 0, den, 1.0), 0.0)
    out = np.where(valid, coef, vals)  # t = 0 term plus identity on invalid
    for t in range(1, tmax + 1):
        wt = weight(t)
        for s in (t, -t):
            dst, src = _shifted(axis, s)  # scatter: f -> f+s
            out[dst] += (wt * coef)[src] * vf[dst]
    return out


def blur_obstacle_aware(field: VelocityField, radius: ScalarField,
                        flags: CellFlags, transpose: bool = False) -> VelocityField:
    """Blur a velocity field with spatially varying radius, or apply the adjoint."""
    if field.dims != radius.dims or field.dims != flags.dims:
        raise ValueError("dimension mismatch between field, radius and flags")
    if (radius.values < 0).any():
        raise ValueError("blur radius must be non-negative")
    if (radius.values[flags.solid] != 0).any():
        raise ValueError("blur radius must be zero at SOLID cells")

    out = field.copy()
    axes = field.dims.axes
    for comp, arr in out.components():
        rad = cell_to_face_average(radius, comp)
        valid = face_valid_mask(flags, comp)
        sweep_axes = axes if not transpose else tuple(reversed(axes))
        cur = arr
        for axis in sweep_axes:
            cur = _sweep(cur, rad, valid, axis, transpose)
        arr[...] = cur
    return out
