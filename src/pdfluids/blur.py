"""Separable Gaussian blur of velocity fields with obstacle awareness.

Each velocity component is convolved one axis at a time with a discrete 1D
Gaussian whose standard deviation is the local blur radius sampled at the
face (in cell units).  Kernel taps that fall outside the domain or on a
face adjacent to a SOLID cell are dropped and the kernel is renormalized
over the remaining taps, so constants are preserved and nothing leaks
through walls.  Faces adjacent to SOLID pass through unchanged.

The transpose mode applies the exact adjoint of this linear map (the same
kernels with the axis sweeps in reverse order), which is what realizes B^T
for the guiding operators.

The taps, masks and normalizers depend only on (radius, flags); they are
built once and reused for as long as calls pass the same radius and flag
values.  Each component is kept flat with a gap of min(T, n - 1) entries
after every row along each active axis but the first, T being its tap
count and n the row's length.  A shift by t <= min(T, n - 1) along any
axis then reads its own row or the gap, never the next row, and a longer
one would leave the row from every face, so it is skipped: every tap of
every sweep is one contiguous multiply into scratch plus one add over a
flat range.  A field's gap holds +0.0 and the valid mask's -0.0, so every
product that reads the gap is -0.0, which leaves a sum it joins
unchanged: the result is bit for bit that of dropping the taps that leave
the row.  The adjoint is a gather as well: a valid face sums its own
coefficient and w_t * coefficient of the faces t away, and faces next to
SOLID keep their input.  The kernel owns its padded work arrays, built by
its first call, so a call given an `out` field allocates no array.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (CellFlags, ScalarField, VelocityField,
                     cell_to_face_average, face_valid_mask)


def _taps(rad: np.ndarray, tmax: int) -> list[np.ndarray]:
    """Per-face Gaussian weights w_t for t = 1..tmax; taps beyond ceil(3 r)
    and at faces with r = 0 are zero."""
    ncut = np.ceil(3.0 * rad)
    live = rad > 0
    two_r2 = 2.0 * np.square(rad)
    taps = []
    with np.errstate(divide="ignore"):
        for t in range(1, tmax + 1):
            w = np.exp(-(t * t) / two_r2)
            taps.append(np.where(live & (t <= ncut), w, 0.0))
    return taps


def _gather(out: np.ndarray, src: np.ndarray, taps: list[np.ndarray],
            step: int, scratch: np.ndarray):
    """out[f] += w_t[f] * src[f + s] for s = t*step, then -t*step, t = 1..T;
    shifts past either end of the flat buffer read nothing."""
    n = out.size
    for t, wt in enumerate(taps, 1):
        k = t * step
        if k >= n:
            break
        tmp = scratch[:n - k]
        np.multiply(wt[:n - k], src[k:], out=tmp)
        out[:n - k] += tmp
        np.multiply(wt[k:], src[:n - k], out=tmp)
        out[k:] += tmp


def _gather_transposed(out: np.ndarray, coef: np.ndarray, taps: list[np.ndarray],
                       step: int, scratch: np.ndarray):
    """The transpose of `_gather`'s sum with the weight taken at the source:
    out[f] += (w_t * coef)[f - s] for s = t*step, then -t*step, t = 1..T."""
    n = out.size
    for t, wt in enumerate(taps, 1):
        k = t * step
        if k >= n:
            break
        np.multiply(wt, coef, out=scratch)
        out[k:] += scratch[:n - k]
        out[:n - k] += scratch[k:]


class _Component:
    """One component's share of the kernel in the gap layout: flat arrays
    of the padded `shape`, whose leading `core` block holds the faces.
    `reach[axis]` is the number of taps a sweep along the axis runs,
    min(T, n - 1) on an axis of n faces; the padded axes' gaps are that
    wide."""

    def __init__(self, valid: np.ndarray, rad: np.ndarray, axes: tuple[int, ...]):
        ntaps = int(math.ceil(3.0 * rad.max())) if rad.size else 0
        self.reach = {a: min(ntaps, valid.shape[a] - 1) for a in axes}
        self.core = tuple(slice(0, n) for n in valid.shape)
        self.shape = tuple(n + self.reach[a] if a in axes[1:] else n
                           for a, n in enumerate(valid.shape))
        self.steps = {a: math.prod(self.shape[a + 1:]) for a in axes}
        # every array is built in the gap layout, so no face-shaped
        # temporary outlives the build as a hole the padded ones cannot reuse
        self.valid = self.pad(valid, False)
        self.vf = self.pad(valid, -0.0, np.float64)
        # r = 0 in the gap: no taps there
        self.taps = _taps(self.pad(rad), max(self.reach.values()))
        scratch = np.empty(self.vf.size)
        self.norms = {}
        for axis in axes:
            den = self.vf.copy()  # valid-tap weight sums
            _gather(den, self.vf, self.along(axis), self.steps[axis], scratch)
            self.norms[axis] = np.where(den > 0, den, 1.0)
        self.cur = None   # the padded field, built by the first `load`

    def along(self, axis: int) -> list[np.ndarray]:
        """The taps a sweep along `axis` runs."""
        return self.taps[:self.reach[axis]]

    def load(self, arr: np.ndarray) -> np.ndarray:
        """`arr` copied into the component's own padded array, whose gap
        holds +0.0 (no sweep writes the gap)."""
        if self.cur is None:
            self.cur = self.pad(arr)
        else:
            self.cur.reshape(self.shape)[self.core] = arr
        return self.cur

    def pad(self, arr: np.ndarray, fill=0.0, dtype=None) -> np.ndarray:
        """`arr` in the flat gap layout, the gap filled with `fill`."""
        out = np.full(self.shape, fill, dtype=dtype or arr.dtype)
        out[self.core] = arr
        return out.ravel()

    def unpad(self, flat: np.ndarray) -> np.ndarray:
        """The face block of a flat gap-layout array, as a view."""
        return flat.reshape(self.shape)[self.core]


def _sweep(cur: np.ndarray, part: _Component, axis: int, transpose: bool,
           work: np.ndarray):
    """One 1D blur pass along `axis` (or its exact transpose), in place on
    the flat gap-layout array `cur`; faces next to SOLID and the gap keep
    their values, and only valid faces are divided by their normalizer.
    `work` holds three rows of at least cur.size entries of scratch."""
    step, norm, valid, taps = part.steps[axis], part.norms[axis], part.valid, part.along(axis)
    src, acc, scratch = (row[:cur.size] for row in work)
    if not transpose:
        np.multiply(cur, part.vf, out=src)
        np.copyto(acc, src)  # t = 0 tap
        _gather(acc, src, taps, step, scratch)
        np.divide(acc, norm, out=cur, where=valid)
        return
    np.multiply(part.vf, 0.0, out=src)  # +0 on the faces, -0 in the gap
    np.divide(cur, norm, out=src, where=valid)
    np.copyto(acc, src)  # t = 0 tap
    _gather_transposed(acc, src, taps, step, scratch)
    np.copyto(cur, acc, where=valid)


def _check_radius(radius: ScalarField, flags: CellFlags):
    """Raise ValueError unless the radius is finite, >= 0 and 0 at SOLID."""
    if not (radius.values >= 0).all() or not np.isfinite(radius.values).all():
        raise ValueError("blur radius must be finite and non-negative")
    if (radius.values[flags.solid] != 0).any():
        raise ValueError("blur radius must be zero at SOLID cells")


class _BlurKernel:
    """The parts of the blur that depend only on (radius, flags), one
    `_Component` per active component.  Building it validates the radius."""

    def __init__(self, radius: ScalarField, flags: CellFlags):
        _check_radius(radius, flags)
        axes = radius.dims.axes
        self.parts = {comp: _Component(face_valid_mask(flags, comp),
                                       cell_to_face_average(radius, comp), axes)
                      for comp in axes}
        self._work = None   # the sweeps' scratch rows, built by the first apply

    def apply(self, field: VelocityField, transpose: bool,
              out: VelocityField | None = None) -> VelocityField:
        """The blur of `field` (or its adjoint), written into the active
        faces of `out` (a copy of field when None; out may be field itself)."""
        if out is None:
            out = field.copy()
        if self._work is None:
            self._work = np.empty((3, max(p.vf.size for p in self.parts.values())))
        axes = field.dims.axes
        sweep_axes = axes if not transpose else tuple(reversed(axes))
        for comp, arr in field.components():
            part = self.parts[comp]
            cur = part.load(arr)
            for axis in sweep_axes:
                _sweep(cur, part, axis, transpose, self._work)
            out.component(comp)[...] = part.unpad(cur)
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
                        flags: CellFlags, transpose: bool = False,
                        out: VelocityField | None = None) -> VelocityField:
    """Blur a velocity field with spatially varying radius, or apply the
    adjoint; the result goes into `out` when given (out may be field)."""
    if field.dims != radius.dims or field.dims != flags.dims:
        raise ValueError("dimension mismatch between field, radius and flags")
    if out is not None and out.dims != field.dims:
        raise ValueError("dimension mismatch between field and out")
    return _kernel_for(radius, flags).apply(field, transpose, out)
