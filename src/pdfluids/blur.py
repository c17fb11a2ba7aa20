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

The taps, masks and normalizers depend only on (radius, flags); they are
built once and reused for as long as calls pass the same radius and flag
values, so each call is multiply-adds over shifted slices.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import (CellFlags, ScalarField, VelocityField, _along,
                     cell_to_face_average, face_valid_mask)


@functools.cache
def _shifted(axis: int, t: int):
    """(dst, src) index tuples such that dst = src + t along axis (t != 0)."""
    if t > 0:
        return _along(axis, slice(t, None)), _along(axis, slice(None, -t))
    return _along(axis, slice(None, t)), _along(axis, slice(-t, None))


def _taps(rad: np.ndarray) -> list[np.ndarray]:
    """Per-face Gaussian weights w_t for t = 1..tmax; taps beyond ceil(3 r)
    and at faces with r = 0 are zero."""
    tmax = int(math.ceil(3.0 * rad.max())) if rad.size else 0
    ncut = np.ceil(3.0 * rad)
    live = rad > 0
    two_r2 = 2.0 * np.square(rad)
    taps = []
    with np.errstate(divide="ignore"):
        for t in range(1, tmax + 1):
            w = np.exp(-(t * t) / two_r2)
            taps.append(np.where(live & (t <= ncut), w, 0.0))
    return taps


def _normalizer(vf: np.ndarray, taps: list[np.ndarray], axis: int) -> np.ndarray:
    """Sum of the kernel weights over the valid taps of each face along
    `axis` (1 where that sum is 0)."""
    den = vf.copy()  # t = 0 tap
    for t, wt in enumerate(taps, 1):
        for s in (t, -t):
            dst, src = _shifted(axis, -s)  # gather: out[f] reads f+s
            den[dst] += wt[dst] * vf[src]
    return np.where(den > 0, den, 1.0)


def _sweep(vals: np.ndarray, valid: np.ndarray, vf: np.ndarray,
           taps: list[np.ndarray], norm: np.ndarray, axis: int,
           transpose: bool) -> np.ndarray:
    """One 1D blur pass along `axis` (or its exact transpose)."""
    if not transpose:
        vv = vals * vf
        num = vv.copy()
        for t, wt in enumerate(taps, 1):
            for s in (t, -t):
                dst, src = _shifted(axis, -s)
                num[dst] += wt[dst] * vv[src]
        return np.where(valid, num / norm, vals)

    # adjoint: scatter each valid source face through its own kernel
    coef = np.where(valid, vals / norm, 0.0)
    out = np.where(valid, coef, vals)  # t = 0 term plus identity on invalid
    for t, wt in enumerate(taps, 1):
        wc = wt * coef
        for s in (t, -t):
            dst, src = _shifted(axis, s)  # scatter: f -> f+s
            out[dst] += wc[src] * vf[dst]
    return out


class _BlurKernel:
    """The parts of the blur that depend only on (radius, flags): for each
    active component the valid mask (bool and float), the taps and, per
    sweep axis, the normalizer.  Building it validates the radius."""

    def __init__(self, radius: ScalarField, flags: CellFlags):
        if (radius.values < 0).any():
            raise ValueError("blur radius must be non-negative")
        if (radius.values[flags.solid] != 0).any():
            raise ValueError("blur radius must be zero at SOLID cells")
        axes = radius.dims.axes
        self.parts = {}
        for comp in axes:
            valid = face_valid_mask(flags, comp)
            vf = valid.astype(np.float64)
            taps = _taps(cell_to_face_average(radius, comp))
            norms = {axis: _normalizer(vf, taps, axis) for axis in axes}
            self.parts[comp] = (valid, vf, taps, norms)

    def apply(self, field: VelocityField, transpose: bool) -> VelocityField:
        out = field.copy()
        axes = field.dims.axes
        sweep_axes = axes if not transpose else tuple(reversed(axes))
        for comp, arr in out.components():
            valid, vf, taps, norms = self.parts[comp]
            cur = arr
            for axis in sweep_axes:
                cur = _sweep(cur, valid, vf, taps, norms[axis], axis, transpose)
            arr[...] = cur
        return out


# the one kernel kept, keyed on the content of (dims, radius, flags): a
# radius rebuilt with equal values hits, one changed in place misses
_cached: tuple | None = None


def _kernel_for(radius: ScalarField, flags: CellFlags) -> _BlurKernel:
    global _cached
    key = (radius.dims, radius.values.tobytes(), flags.values.tobytes())
    if _cached is None or _cached[0] != key:
        _cached = (key, _BlurKernel(radius, flags))
    return _cached[1]


def blur_obstacle_aware(field: VelocityField, radius: ScalarField,
                        flags: CellFlags, transpose: bool = False) -> VelocityField:
    """Blur a velocity field with spatially varying radius, or apply the adjoint."""
    if field.dims != radius.dims or field.dims != flags.dims:
        raise ValueError("dimension mismatch between field, radius and flags")
    return _kernel_for(radius, flags).apply(field, transpose)
