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

Everything but the field depends only on (radius, flags); it is built
once and reused for as long as calls pass the same radius and flag values.
A sweep takes one of two forms, chosen per component at that build.

Banded products, where the radius is one value r on the component's
valid faces (every scene of the package at equal left and right radii,
which is every guided workload of the benchmark).  Every line along an
axis then runs through one line matrix K: K[f, f] = 1 and K[f, f +- t] =
exp(-t^2 / 2 r^2) for t <= ceil(3 r) inside the line.  A forward sweep is
K (x vf) * (1/den) on the valid faces, vf the valid mask and den = K vf;
the adjoint is K^T (x * (1/den)) on the valid faces, reading +0 off them.
Faces next to SOLID are left as they are, bits and -0.0 included.  K and
K^T are kept as row panels over the band of columns they touch, each
product under pressure._GEMM_SERIAL multiply-adds, so OpenBLAS runs it on
one thread (pressure._band_matmul).  A product sums a row's zeros too, so
a non-finite value that enters a sweep (forward from any face, adjoint
from a valid one) spreads over the rows of its panel, not only its taps.

The tap loop, for any other radius: lines of different radii would need
matrices of their own, each with its own gather.  Each component is kept
flat with a gap of min(T, n - 1) entries after every row along each
active axis but the first, T being its tap count and n the row's length.
A shift by t <= min(T, n - 1) along any axis then reads its own row or the
gap, never the next row, and a longer one would leave the row from every
face, so it is skipped: every tap of every sweep is one contiguous
multiply into scratch plus one add over a flat range.  A field's gap holds
+0.0 and the valid mask's -0.0, so every product that reads the gap is
-0.0, which leaves a sum it joins unchanged: the result is bit for bit
that of dropping the taps that leave the row.  The adjoint is a gather as
well: a valid face sums its own coefficient and w_t * coefficient of the
faces t away, and faces next to SOLID keep their input.

The kernel owns its scratch rows, built by its first call, so a call given
an `out` field allocates no array.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (CellFlags, ScalarField, VelocityField, _aligned_empty,
                     cell_to_face_average, face_valid_mask)
from .pressure import _GEMM_SERIAL, _band_matmul


def _taps(rad: np.ndarray, tmax: int) -> list[np.ndarray]:
    """Per-face Gaussian weights w_t for t = 1..tmax, each in an array of
    its own on a 64-byte boundary; taps beyond ceil(3 r) and at faces with
    r = 0 are zero."""
    ncut = np.ceil(3.0 * rad)
    dead = ~(rad > 0)
    two_r2 = 2.0 * np.square(rad)
    taps = []
    with np.errstate(divide="ignore"):
        for t in range(1, tmax + 1):
            w = _aligned_empty(rad.shape)
            np.divide(-(t * t), two_r2, out=w)
            np.exp(w, out=w)
            np.copyto(w, 0.0, where=dead | (t > ncut))
            taps.append(w)
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
    wide.  Every array it keeps, and its build scratch, starts on a 64-byte
    boundary and is allocated once."""

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
        scratch = _aligned_empty(self.vf.size)
        self.norms = {}
        for axis in axes:
            den = _aligned_empty(self.vf.size)  # valid-tap weight sums
            np.copyto(den, self.vf)
            _gather(den, self.vf, self.along(axis), self.steps[axis], scratch)
            np.copyto(den, 1.0, where=~(den > 0))
            self.norms[axis] = den
        self.cur = None   # the padded field, built by the first `load`

    def along(self, axis: int) -> list[np.ndarray]:
        """The taps a sweep along `axis` runs."""
        return self.taps[:self.reach[axis]]

    def run(self, arr: np.ndarray, sweep_axes: tuple[int, ...], transpose: bool,
            work: np.ndarray):
        """The sweeps along `sweep_axes` in turn, in place on `arr`."""
        cur = self.load(arr)
        for axis in sweep_axes:
            _sweep(cur, self, axis, transpose, work)
        arr[...] = self.unpad(cur)

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
        out = _aligned_empty(self.shape, dtype or arr.dtype)
        out.fill(fill)
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


def _line_matrix(n: int, r: float) -> np.ndarray:
    """K of a line of n faces at radius r: K[f, f] = 1 and K[f, f + t] =
    exp(-t^2 / 2 r^2) for 0 < |t| <= ceil(3 r), 0 elsewhere."""
    f = np.arange(n)
    t = f - f[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.exp(-(t * t) / (2.0 * r * r))
    k[np.abs(t) > math.ceil(3.0 * r)] = 0.0
    k[f, f] = 1.0
    return k


class _Band:
    """One sweep axis of a product component: its line matrix K as row
    panels (rows, cols, K[rows, cols]) over the band of columns they touch,
    K^T likewise, and 1/den on the valid faces (0 elsewhere).  The
    component is viewed as (L, n, R), the line of (l, r) being [l, :, r],
    and every line runs through the same K."""

    def __init__(self, valid: np.ndarray, r: float, axis: int):
        shape = valid.shape
        L, n, R = self.lines = (math.prod(shape[:axis]), shape[axis],
                                math.prod(shape[axis + 1:]))
        reach = min(int(math.ceil(3.0 * r)), n - 1)
        # panels of p rows, each p (p + 2 reach) m multiply-adds, under
        # _GEMM_SERIAL with m the lines of one product
        m = R if R > 1 else L
        p = max(1, int(math.sqrt(reach * reach + (_GEMM_SERIAL - 1) / m)) - reach)
        count = -(-n // p)
        cuts = [i * n // count for i in range(count + 1)]
        spans = [(slice(lo, hi), slice(max(0, lo - reach), min(n, hi + reach)))
                 for lo, hi in zip(cuts, cuts[1:])]
        k = _line_matrix(n, r)
        # lines along the last axis multiply transposed views (`product`),
        # which gemm runs about 1.4x faster on panels kept in Fortran order
        order = "F" if R == 1 else "C"
        self.fwd = [(rows, cols, np.array(k[rows, cols], order=order)) for rows, cols in spans]
        self.adj = [(rows, cols, np.array(k[cols, rows].T, order=order)) for rows, cols in spans]
        # den = K vf on the faces, and its inverse on the valid ones (0 elsewhere)
        den = np.empty(shape)
        self.product(self.fwd, valid.astype(np.float64), den)
        self.inv = np.zeros(shape)
        np.divide(1.0, den, out=self.inv, where=valid)

    def product(self, panels, src: np.ndarray, out: np.ndarray):
        """out = K src (or K^T src, for the adj panels) on every line, src
        and out viewed as (n, L), (n, R) or (L, n, R), the right factor of K."""
        L, n, R = self.lines
        src, out = (a.reshape(L, n, R) for a in (src, out))
        if R == 1:
            src, out = src[:, :, 0].T, out[:, :, 0].T
        elif L == 1:
            src, out = src[0], out[0]
        _band_matmul(panels, src, out)


class _Banded:
    """One component's share of the kernel as banded line products, for a
    radius of one value r on the component's valid faces: one `_Band` per
    axis, none for a component without valid faces, which passes through.
    Sweeps run in place on the output's contiguous face array, through one
    row of scratch; the few faces next to SOLID are saved before a sweep
    and put back after it, which costs less than a masked write."""

    def __init__(self, valid: np.ndarray, r: float, axes: tuple[int, ...]):
        self.vf = valid.astype(np.float64)
        self.wall = np.flatnonzero(~valid)
        self.bands = {a: _Band(valid, r, a) for a in axes} if valid.any() else {}

    def run(self, arr: np.ndarray, sweep_axes: tuple[int, ...], transpose: bool,
            work: np.ndarray):
        """The sweeps along `sweep_axes` in turn, in place on `arr`."""
        for axis in sweep_axes:
            if axis in self.bands:
                self.sweep(arr, self.bands[axis], transpose, work)

    def sweep(self, cur: np.ndarray, band: _Band, transpose: bool, work: np.ndarray):
        """One pass through `band`, or its transpose: forward K (cur vf) / den,
        adjoint K^T (cur / den), written over the valid faces of cur only.
        As in `_sweep`, the adjoint reads +0 off the valid faces, so what a
        face next to SOLID holds never reaches a valid one."""
        flat = cur.reshape(-1)
        src = work[0, :cur.size].reshape(cur.shape)
        kept = flat[self.wall]
        if transpose:
            flat[self.wall] = 0.0
            np.multiply(cur, band.inv, out=src)
            band.product(band.adj, src, cur)
        else:
            np.multiply(cur, self.vf, out=src)
            band.product(band.fwd, src, cur)
            cur *= band.inv
        flat[self.wall] = kept


def _part(valid: np.ndarray, rad: np.ndarray, axes: tuple[int, ...]):
    """The component's kernel: banded products when the radius is one value
    on its valid faces, else the gap-layout tap loop."""
    r = rad[valid]
    if r.size and (r != r[0]).any():
        return _Component(valid, rad, axes)
    return _Banded(valid, float(r[0]) if r.size else 0.0, axes)


def _check_radius(radius: ScalarField, flags: CellFlags):
    """Raise ValueError unless the radius is finite, >= 0 and 0 at SOLID."""
    if not (radius.values >= 0).all() or not np.isfinite(radius.values).all():
        raise ValueError("blur radius must be finite and non-negative")
    if (radius.values[flags.solid] != 0).any():
        raise ValueError("blur radius must be zero at SOLID cells")


class _BlurKernel:
    """The parts of the blur that depend only on (radius, flags), one
    `_Banded` or `_Component` per active component.  Building it validates
    the radius."""

    def __init__(self, radius: ScalarField, flags: CellFlags):
        _check_radius(radius, flags)
        axes = radius.dims.axes
        self.parts = {comp: _part(face_valid_mask(flags, comp),
                                  cell_to_face_average(radius, comp), axes)
                      for comp in axes}
        self._work = None   # the sweeps' scratch rows, built by the first apply

    def apply(self, field: VelocityField, transpose: bool,
              out: VelocityField | None = None) -> VelocityField:
        """The blur of `field` (or its adjoint), written into the active
        faces of `out` (a copy of field when None; out may be field itself)."""
        if out is None:
            out = field.copy()
        elif out is not field:
            np.copyto(out.as_flat(), field.as_flat())
        if self._work is None:
            # rows padded to whole 64-byte lines, so each starts on one
            n = max(p.vf.size for p in self.parts.values())
            self._work = _aligned_empty((3, -(-n // 8) * 8))
        axes = field.dims.axes
        sweep_axes = axes if not transpose else tuple(reversed(axes))
        for comp in axes:
            self.parts[comp].run(out.component(comp), sweep_axes, transpose, self._work)
        return out


# the one kernel kept, keyed on the content of (dims, radius, flags): a
# radius rebuilt with equal values hits, one changed in place misses.  It
# stays a module global: bench/test_bench.py pins blur_obstacle_aware(field,
# radius, flags, ...) as a guided frame's call, which leaves it no owner.
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
