"""Staggered-grid containers and the discrete operators built on them.

Velocity lives on cell faces (MAC layout), scalars at cell centers.  All
arrays are float64 and indexed (i, j, k) with i along x; a grid with nz=1
is the 2D configuration and runs through the same code paths with the
z direction inactive.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np


class CellType(IntEnum):
    FLUID = 0
    SOLID = 1
    EMPTY = 2


# plain ints for array comparisons: numpy compares an IntEnum member about
# 5x slower, as it probes the member's attributes on every call
_FLUID, _SOLID = CellType.FLUID.value, CellType.SOLID.value


@dataclass(frozen=True)
class GridDims:
    """Cell counts and the uniform cell width h (meters)."""

    nx: int
    ny: int
    nz: int = 1
    h: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs nx, ny >= 4, got {self.nx}x{self.ny}")
        if self.nz < 1:
            raise ValueError("nz must be >= 1")
        if not 0 < self.h < math.inf:
            raise ValueError(f"cell width h must be positive and finite, got {self.h}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def is_2d(self) -> bool:
        return self.nz == 1

    @property
    def axes(self) -> tuple[int, ...]:
        """Active axes: (0, 1) in 2D, (0, 1, 2) in 3D."""
        return (0, 1) if self.nz == 1 else (0, 1, 2)

    def __reduce__(self):
        # the four fields only: an unpickled or deep-copied grid builds its
        # own cached tables, so its _zero_w is read-only too
        return GridDims, (self.nx, self.ny, self.nz, self.h)

    def face_shape(self, axis: int) -> tuple[int, int, int]:
        s = list(self.shape)
        s[axis] += 1
        return tuple(s)

    @functools.cached_property
    def _face_blocks(self) -> tuple:
        """(start, end, shape) of the active axes' blocks of a velocity buffer."""
        shapes = [self.face_shape(a) for a in self.axes]
        ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        return tuple(zip(ends, ends[1:], shapes))

    @functools.cached_property
    def _zero_w(self) -> np.ndarray:
        """The w of every 2D velocity on this grid: read-only zeros."""
        return np.frombuffer(bytes(8 * self.nx * self.ny * 2)).reshape(self.face_shape(2))

    @functools.cached_property
    def _face_cells(self) -> tuple:
        """(lower, upper): np.intp arrays of the flat indices of the two
        cells of every active face, laid out as in `VelocityField.as_flat`,
        with `cell_count` for the ghost beyond a domain wall.  Reading a
        cell array padded by one ghost value through them gives the face
        pairs of `_to_faces` with that ghost."""
        cells = np.arange(self.cell_count, dtype=np.intp).reshape(self.shape)
        return tuple(_flat_faces(self, lambda a: _to_faces(
            cells, a, lambda *pair: pair[k], ghost=self.cell_count)) for k in (0, 1))

    @functools.cached_property
    def _starts(self) -> tuple:
        """(points, stencils) of the backtrace start points of advection:
        the face centers of each active axis in turn, then the cell centers
        (last).  The points are per-axis coordinate arrays that broadcast to
        the sample array's shape, and the stencils are their tensor-grid
        `_face_stencils`: separable in 2D, O(nx + ny) entries each, and
        with the lower corners' flat index over the whole set in 3D."""
        starts = [face_centers(self, a, sparse=True) for a in self.axes]
        starts.append(cell_centers(self, sparse=True))
        return tuple((pts, _face_stencils(self, pts, True)) for pts in starts)


def _check_dims(a, b):
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")


def _along(axis: int, s) -> tuple:
    """Index tuple taking `s` (an index or slice) along `axis` and every
    entry along the other two axes."""
    idx = [slice(None)] * 3
    idx[axis] = s
    return tuple(idx)


class CellFlags:
    """Per-cell FLUID/SOLID/EMPTY tags."""

    def __init__(self, dims: GridDims, values: np.ndarray):
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != dims.shape:
            raise ValueError("flag array shape does not match dims")
        if not np.isin(values, (CellType.FLUID, CellType.SOLID, CellType.EMPTY)).all():
            raise ValueError("flags must be FLUID, SOLID or EMPTY")
        self.dims = dims
        self.values = values

    @classmethod
    def open_box(cls, dims: GridDims) -> "CellFlags":
        """All cells FLUID (scene overrides the solid boundary ring)."""
        return cls(dims, np.full(dims.shape, CellType.FLUID, dtype=np.uint8))

    @classmethod
    def closed_box(cls, dims: GridDims) -> "CellFlags":
        """FLUID interior with a SOLID ring on every domain wall."""
        v = np.full(dims.shape, CellType.FLUID, dtype=np.uint8)
        v[0, :, :] = v[-1, :, :] = CellType.SOLID
        v[:, 0, :] = v[:, -1, :] = CellType.SOLID
        if not dims.is_2d:
            v[:, :, 0] = v[:, :, -1] = CellType.SOLID
        return cls(dims, v)

    def copy(self) -> "CellFlags":
        return CellFlags(self.dims, self.values.copy())

    @property
    def fluid(self) -> np.ndarray:
        return self.values == _FLUID

    @property
    def solid(self) -> np.ndarray:
        return self.values == _SOLID


class ScalarField:
    """Cell-centered scalar field (pressure, smoke density, weights, radii)."""

    def __init__(self, dims: GridDims, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != dims.shape:
            raise ValueError("scalar array shape does not match dims")
        self.dims = dims
        self.values = values

    @classmethod
    def zeros(cls, dims: GridDims) -> "ScalarField":
        return cls(dims, np.zeros(dims.shape))

    @classmethod
    def full(cls, dims: GridDims, value: float) -> "ScalarField":
        return cls(dims, np.full(dims.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.dims, self.values.copy())

    def validate_finite(self):
        if not np.isfinite(self.values).all():
            raise ValueError("scalar field contains non-finite values")

    def norm(self) -> float:
        return math.sqrt(_dot(self.values, self.values))


class VelocityField:
    """Face-centered velocity: u on x-faces, v on y-faces, w on z-faces,
    writable views of one contiguous float64 buffer holding the active
    axes' faces in that order.  With nz=1, w is the grid's read-only zeros.
    The constructor copies its arrays.
    """

    def __init__(self, dims: GridDims, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        arrays = [np.asarray(a, dtype=np.float64) for a in (u, v, w)]
        for axis, arr in enumerate(arrays):
            if arr.shape != dims.face_shape(axis):
                raise ValueError(f"face array {axis} has shape {arr.shape}, "
                                 f"expected {dims.face_shape(axis)}")
        if dims.is_2d and arrays[2].any():
            raise ValueError("a 2D velocity's z block (w) must be all zero")
        self._attach(dims, np.concatenate([arrays[a].ravel() for a in dims.axes]))

    def _attach(self, dims: GridDims, buf: np.ndarray | None) -> "VelocityField":
        """Lay the u, v and w views over buf, a zero buffer when None."""
        self.dims = dims
        self._buf = buf if buf is not None else np.zeros(dims._face_blocks[-1][1])
        self.u, self.v, *w = _face_views(dims, self._buf)
        self.w = w[0] if w else dims._zero_w
        return self

    @classmethod
    def _of(cls, dims: GridDims, buf: np.ndarray | None = None) -> "VelocityField":
        """A field on buf itself, not a copy (zeros when None)."""
        return cls.__new__(cls)._attach(dims, buf)

    @classmethod
    def zeros(cls, dims: GridDims) -> "VelocityField":
        return cls._of(dims)

    def copy(self) -> "VelocityField":
        return VelocityField._of(self.dims, self._buf.copy())

    def __deepcopy__(self, memo) -> "VelocityField":
        return self.copy()   # the views stay on the one copied buffer

    def __reduce__(self):   # unpickled, the views lie on one buffer again
        return VelocityField._of, (self.dims, self._buf)

    def component(self, axis: int) -> np.ndarray:
        return (self.u, self.v, self.w)[axis]

    def components(self):
        """(axis, face array) pairs for the active axes."""
        return [(a, self.component(a)) for a in self.dims.axes]

    @property
    def n_dof(self) -> int:
        """Total velocity degrees of freedom (active-axis face samples)."""
        return self._buf.size

    def validate_finite(self):
        if not np.isfinite(self.as_flat()).all():
            raise ValueError("velocity field contains non-finite values")

    def as_flat(self) -> np.ndarray:
        """The whole buffer (x block first), writable."""
        return self._buf

    def set_flat(self, vec: np.ndarray):
        if np.size(vec) != self._buf.size:
            raise ValueError("flat vector length does not match field")
        self._buf[:] = vec

    def dot(self, other: "VelocityField") -> float:
        _check_dims(self, other)
        return sum(_dot(a, other.component(ax)) for ax, a in self.components())

    def norm(self) -> float:
        return math.sqrt(sum(_dot(a, a) for _, a in self.components()))

    def max_abs(self) -> float:
        return float(np.abs(self.as_flat()).max())

    def __add__(self, other):
        _check_dims(self, other)
        return VelocityField._of(self.dims, self._buf + other._buf)

    def __sub__(self, other):
        _check_dims(self, other)
        return VelocityField._of(self.dims, self._buf - other._buf)

    def __mul__(self, s):
        return VelocityField._of(self.dims, self._buf * float(s))

    __rmul__ = __mul__


_CHUNK = 8192   # OpenBLAS runs a ddot of at most 10000 entries on one thread


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two C-contiguous arrays of one size, flattened, summed in order
    over ddots of fixed _CHUNK-entry pieces: each runs on one BLAS thread."""
    if a.size <= _CHUNK:
        return float(np.vdot(a, b))
    a, b = a.reshape(-1), b.reshape(-1)
    return sum(_dot(a[i:i + _CHUNK], b[i:i + _CHUNK]) for i in range(0, a.size, _CHUNK))


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialized C-order array whose data starts on a 64-byte
    boundary, carved out of a plain byte buffer (numpy's own allocations
    are 16-byte aligned, and its kernels run slower at such offsets)."""
    dtype = np.dtype(dtype)
    nbytes = (math.prod(shape) if isinstance(shape, tuple) else int(shape)) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    # the address through a ctypes view of the buffer: 0.4 us, against 1.3 us
    # for raw.ctypes.data and 1.5 us for raw.__array_interface__ (numpy 2.4,
    # x86-64)
    start = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of `a` that starts on a 64-byte boundary."""
    out = _aligned_empty(a.shape, a.dtype)
    np.copyto(out, a)
    return out


# ---------------------------------------------------------------------------
# geometry helpers

def _centers(shape, offsets, h: float, sparse: bool = False):
    """Physical (X, Y, Z) coordinate arrays of the samples of an array whose
    sample (i, j, k) sits at ((i, j, k) + offsets) * h; with `sparse`, one
    array per axis that broadcasts to the array's shape."""
    return np.meshgrid(*[(np.arange(n) + off) * h for n, off in zip(shape, offsets)],
                       indexing="ij", sparse=sparse)


def cell_centers(dims: GridDims, sparse: bool = False):
    """Physical (X, Y, Z) coordinate arrays of cell centers, shape dims.shape
    (per axis with `sparse`, as in `_centers`)."""
    return _centers(dims.shape, (0.5, 0.5, 0.5), dims.h, sparse)


def face_centers(dims: GridDims, axis: int, sparse: bool = False):
    """Physical coordinate arrays of face centers for one velocity component
    (per axis with `sparse`, as in `_centers`)."""
    return _centers(dims.face_shape(axis), _face_offsets(axis), dims.h, sparse)


def _to_faces(c: np.ndarray, axis: int, pair, ghost=None) -> np.ndarray:
    """Face array of one axis from a cell array: the cells get one ghost
    cell beyond each domain wall, and every face is pair(lower, upper) of
    the two cells it separates.  The ghost is `ghost` when given, else the
    wall cell itself, so a wall face is pair(c, c) of its one cell."""
    lo, hi = c[_along(axis, slice(None, 1))], c[_along(axis, slice(-1, None))]
    if ghost is not None:
        lo = hi = np.full_like(lo, ghost)
    padded = np.concatenate((lo, c, hi), axis=axis)
    cells = padded[_along(axis, slice(None, -1))], padded[_along(axis, slice(1, None))]
    return pair(*cells)


def cell_to_face_average(scalar: ScalarField, axis: int) -> np.ndarray:
    """Sample a cell-centered field onto the faces of one axis: a face
    averages its two cells, a domain-wall face copies its one cell."""
    return _to_faces(scalar.values, axis, lambda a, b: 0.5 * (a + b))


def face_valid_mask(flags: CellFlags, axis: int) -> np.ndarray:
    """Faces not adjacent to any SOLID cell."""
    return _to_faces(flags.values != _SOLID, axis, np.logical_and)


def fluid_adjacent_face_mask(flags: CellFlags, axis: int) -> np.ndarray:
    """Faces with at least one FLUID neighbour."""
    return _to_faces(flags.fluid, axis, np.logical_or)


def _flat_faces(dims: GridDims, per_axis) -> np.ndarray:
    """per_axis(axis) of the active axes, laid out as in `VelocityField.as_flat`."""
    return np.concatenate([np.ravel(per_axis(a)) for a in dims.axes])


def _face_views(dims: GridDims, flat: np.ndarray) -> tuple:
    """Writable per-axis face views of an array laid out as in
    `VelocityField.as_flat`, one per active axis: the inverse of `_flat_faces`."""
    blocks = dims._face_blocks
    if flat.shape != (blocks[-1][1],):
        raise ValueError(f"flat face array of shape {flat.shape} does not match {dims}")
    return tuple(flat[a:b].reshape(s) for a, b, s in blocks)


# ---------------------------------------------------------------------------
# divergence

def divergence(vel: VelocityField, flags: CellFlags) -> ScalarField:
    """MAC central divergence at FLUID cells, zero at SOLID/EMPTY."""
    return ScalarField(vel.dims, _divergence(vel, flags, np.empty(vel.dims.shape)))


def _divergence(vel: VelocityField, flags: CellFlags, div: np.ndarray) -> np.ndarray:
    """`divergence`'s values written into div, an array of the grid's shape."""
    _check_dims(vel, flags)
    d = vel.dims
    np.subtract(vel.u[1:, :, :], vel.u[:-1, :, :], out=div)
    div += vel.v[:, 1:, :]
    div -= vel.v[:, :-1, :]
    if not d.is_2d:
        div += vel.w[:, :, 1:]
        div -= vel.w[:, :, :-1]
    div /= d.h
    np.copyto(div, 0.0, where=flags.values != _FLUID)
    return div


# ---------------------------------------------------------------------------
# the point-to-grid stencil and the transfers built on it

def _face_offsets(axis: int) -> tuple[float, ...]:
    """Sample offsets (in cells) of one face array: 0 along its axis, 0.5
    across it."""
    return tuple(0.0 if a == axis else 0.5 for a in range(3))


def _pad_shape(shape) -> tuple:
    """The shape of the `_padded` copy of an array of `shape`."""
    return tuple(n + (n > 1) for n in shape)


def _padded(arr: np.ndarray) -> np.ndarray:
    """A copy of arr with its last sample repeated once past the upper end
    of each axis of more than one sample.  A point clamped to that end has
    fraction 0, so its upper corner, the repeated sample, enters at weight
    0 with the end sample's own value."""
    out = np.empty(_pad_shape(arr.shape), arr.dtype)
    out[tuple(slice(n) for n in arr.shape)] = arr
    for axis, n in enumerate(arr.shape):
        if n > 1:
            out[_along(axis, n)] = out[_along(axis, n - 1)]
    return out


def _scaled(dims: GridDims, points) -> list:
    """Physical points in cells (divided by h) on the active axes, None on
    the inactive one."""
    return [np.asarray(p, dtype=np.float64) / dims.h if n > 1 else None
            for n, p in zip(dims.shape, points)]


def _lower(q, off: float, n: int):
    """(index, fraction) of coordinates q in cells on an axis of n samples
    at offset off, clamped to [0, n - 1]: the clamped coordinate is not
    negative, so its cast is its floor."""
    g = np.clip(q - off if off else q, 0.0, n - 1.0)
    i = g.astype(np.intp)
    g -= i
    return i, g


class _Stencil(NamedTuple):
    """Points on the `_padded` copy of one sample array: the flat index of
    each point's lower corner and, per axis of more than one sample, the
    flat step to its upper corner (the padded stride) and the fraction."""

    base: np.ndarray
    steps: tuple
    fracs: tuple

    def corners(self) -> list:
        """(flat offset from base, weight) of each corner, x outermost: 4 in
        2D, 8 in 3D, each weight the product of its per-axis weights from x
        on.  A padded array's flat[offset:][base] reads a corner."""
        offs, wts = [0], [1.0]
        for step, f in zip(self.steps, self.fracs):
            pair = (1 - f, f)
            offs = [o + s for o in offs for s in (0, step)]
            wts = [w * v for w in wts for v in pair]
        return list(zip(offs, wts))

    def gather(self, padded: np.ndarray):
        """The padded array at the points: bracketed by axis in 2D, the sum
        of the corner terms in `corners` order in 3D."""
        flat = padded.ravel()
        if len(self.steps) == 3:
            out = 0.0
            for off, w in self.corners():
                out = out + flat[off:][self.base] * w
            return out
        (sx, sy), (fx, fy), b = self.steps, self.fracs, self.base
        c00, c01, c10, c11 = (flat[s:][b] for s in (0, sy, sx, sx + sy))
        # (c00 gx + c10 fx)(1 - fy) + (c01 gx + c11 fx) fy, in place
        gx = 1 - fx
        c00 *= gx
        c10 *= fx
        c00 += c10
        c01 *= gx
        c11 *= fx
        c01 += c11
        c00 *= 1 - fy
        c01 *= fy
        c00 += c01
        return c00


class _Grid2(NamedTuple):
    """The points of a 2D tensor grid on the `_padded` copy of one sample
    array: per axis the lower and upper sample indices and their weights,
    x's as a column.  `gather` reads rows (x) first, then columns, with the
    products and sums of `_Stencil.gather` in its order."""

    rows: tuple
    cols: tuple

    def gather(self, padded: np.ndarray) -> np.ndarray:
        (i0, i1, gx, fx), (j0, j1, gy, fy) = self.rows, self.cols
        a = padded[:, :, 0]
        r = a[i0] * gx
        r += a[i1] * fx
        c = r[:, j0] * gy
        c += r[:, j1] * fy
        return c[:, :, None]


def _span(i: np.ndarray):
    """Indices i as a slice when they run on by one (a view reads them),
    else i itself."""
    return slice(i[0], i[-1] + 1) if (np.diff(i) == 1).all() else i


def _coords(shape, offsets, scaled, tensor: bool = False):
    """Clamped multilinear stencil of points on the `_padded` copy of a
    C-order array whose sample (i, j, k) sits at (i, j, k) + offsets cells;
    `scaled` are the points in cells (`_scaled`).  Per axis the coordinate
    is clamped to [0, n-1] and split into its floor and a fraction
    (`_lower`); an axis of one sample (z in 2D) takes index 0.  `tensor`
    marks per-axis points of a tensor grid (sparse `_centers`), which a 2D
    array reads separably (`_Grid2`)."""
    if tensor and shape[2] == 1:
        (i, fx), (j, fy) = (_lower(q.ravel(), off, n)
                            for n, off, q in zip(shape, offsets, scaled[:2]))
        return _Grid2((_span(i), _span(i + 1), (1 - fx)[:, None], fx[:, None]),
                      (_span(j), _span(j + 1), 1 - fy, fy))
    pshape = _pad_shape(shape)
    strides = (pshape[1] * pshape[2], pshape[2], 1)
    base, steps, fracs = None, [], []
    for n, off, q, stride in zip(shape, offsets, scaled, strides):
        if n > 1:
            i, f = _lower(q, off, n)
            i *= stride
            base = i if base is None else base + i
            steps.append(stride)
            fracs.append(f)
    return _Stencil(base, tuple(steps), tuple(fracs))


def _face_stencils(dims: GridDims, points, tensor: bool = False) -> list:
    """The `_coords` stencil of points on each active axis' face array, the
    points divided by h once for all of them."""
    scaled = _scaled(dims, points)
    return [_coords(dims.face_shape(a), _face_offsets(a), scaled, tensor) for a in dims.axes]


def _padded_faces(vel: VelocityField) -> list:
    """The `_padded` copy of each active face array of vel."""
    return [_padded(arr) for _, arr in vel.components()]


def _read(faces: list, stencils: list) -> list:
    """Each padded face array (`_padded_faces`) at its stencil's points, one
    entry per axis: 0.0 on the inactive z axis."""
    out = [st.gather(f) for f, st in zip(faces, stencils)]
    return out + [0.0] * (3 - len(out))


def _interp_component(arr: np.ndarray, axis: int, dims: GridDims, px, py, pz):
    """Clamped multilinear interpolation of one face array at physical
    points, read through the `_coords` stencil on its `_padded` copy."""
    return _coords(arr.shape, _face_offsets(axis), _scaled(dims, (px, py, pz))).gather(
        _padded(arr))


def _backtrace_rk2(vel: VelocityField, px, py, pz, dt: float, first=None, faces=None):
    """Midpoint backtrace through vel; end points clamped into the domain box.
    `first` are the start points' `_face_stencils` and `faces` are vel's
    `_padded_faces`, when the caller has them (`GridDims._starts`)."""
    d = vel.dims
    lim = (d.nx * d.h, d.ny * d.h, d.nz * d.h)
    faces = faces if faces is not None else _padded_faces(vel)

    def step(scale, samples):
        """(px, py, pz) - scale * samples, clamped into the box; the
        inactive z axis, which no stencil reads, stays."""
        return tuple(np.clip(p - scale * v, 0.0, top) if n > 1 else p for n, p, v, top
                     in zip(d.shape, (px, py, pz), samples, lim))

    def sample(points, stencils=None):
        return _read(faces, stencils or _face_stencils(d, points))

    return step(dt, sample(step(0.5 * dt, sample((px, py, pz), first))))


def _gather_scalar_masked(scalar: ScalarField, flags: CellFlags, px, py, pz):
    """Multilinear gather of cell values with SOLID taps dropped and the
    remaining weights renormalized.  Weight sum 0 reports NaN (caller keeps
    the original value there)."""
    d = scalar.dims
    vals = _padded(scalar.values).ravel()
    notsolid = _padded(flags.values != _SOLID).astype(np.float64).ravel()
    st = _coords(d.shape, (0.5, 0.5, 0.5), _scaled(d, (px, py, pz)))
    num = 0.0
    den = 0.0
    for off, w in st.corners():
        w = w * notsolid[off:][st.base]
        num = num + vals[off:][st.base] * w
        den = den + w
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)


def advect_semi_lagrangian(field, vel: VelocityField, dt: float, flags: CellFlags):
    """Second-order semi-Lagrangian advection of a scalar or velocity field.

    Sample locations are traced backward with an RK2 midpoint step from the
    grid's own sample points, whose first-stage stencils the grid builds
    once (`GridDims._starts`); both stages read one padded copy of vel.
    SOLID cells (and faces adjacent to SOLID) keep their values, and scalar
    interpolation never reads SOLID cell values.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_dims(field, vel)
    starts = vel.dims._starts
    if isinstance(field, ScalarField):
        points, first = starts[-1]
        bx, by, bz = _backtrace_rk2(vel, *points, dt, first)
        gathered = _gather_scalar_masked(field, flags, bx, by, bz)
        out = field.values.copy()
        target = flags.values != _SOLID
        ok = target & np.isfinite(gathered)
        out[ok] = gathered[ok]
        return ScalarField(field.dims, out)
    if isinstance(field, VelocityField):
        faces = _padded_faces(vel)
        res = field.copy()
        for a, arr in res.components():
            ends = _backtrace_rk2(vel, *starts[a][0], dt, starts[a][1], faces)
            np.copyto(arr, _interp_component(field.component(a), a, field.dims, *ends),
                      where=face_valid_mask(flags, a))
        return res
    raise TypeError(f"cannot advect {type(field).__name__}")


# ---------------------------------------------------------------------------
# resampling

def upsample(vel: VelocityField, factor: int) -> VelocityField:
    """Refine a velocity field by an integer factor.

    The fine grid covers the same physical domain (h scales by 1/factor) and
    fine face values interpolate the coarse component fields, so velocity
    magnitudes are preserved.  An inactive z axis stays inactive.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("upsample factor must be a positive integer")
    factor = int(factor)
    if factor == 1:
        return vel.copy()
    d = vel.dims
    nz = d.nz if d.is_2d else d.nz * factor
    fine = GridDims(d.nx * factor, d.ny * factor, nz, d.h / factor)

    def refined(a):   # the fine face centers are a tensor grid
        points = _scaled(d, face_centers(fine, a, sparse=True))
        st = _coords(d.face_shape(a), _face_offsets(a), points, True)
        return st.gather(_padded(vel.component(a)))

    return VelocityField._of(fine, _flat_faces(fine, refined))
