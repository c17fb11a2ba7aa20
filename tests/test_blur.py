import math
import tracemalloc

import numpy as np
import pytest

from pdfluids.blur import _BlurKernel, _sweep, blur_obstacle_aware
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, cell_to_face_average, face_valid_mask)

from conftest import random_velocity


def dense_1d_kernel_matrix(n, rad, valid):
    """Dense matrix of one gather sweep along a line of n faces.

    rad and valid are per-face arrays; rows of invalid faces are identity.
    Written directly from the kernel definition, independent of the sweep
    implementation.
    """
    mat = np.zeros((n, n))
    for f in range(n):
        if not valid[f]:
            mat[f, f] = 1.0
            continue
        r = rad[f]
        taps = int(math.ceil(3.0 * r)) if r > 0 else 0
        wsum = 0.0
        row = {}
        for t in range(-taps, taps + 1):
            g = f + t
            if g < 0 or g >= n or not valid[g]:
                continue
            w = math.exp(-(t * t) / (2.0 * r * r)) if r > 0 else (1.0 if t == 0 else 0.0)
            row[g] = row.get(g, 0.0) + w
            wsum += w
        for g, w in row.items():
            mat[f, g] = w / wsum
    return mat


def dense_component_blur(dims, flags, radius, axis_of_component):
    """Dense matrix of the full separable blur of one velocity component (2D)."""
    rad = cell_to_face_average(radius, axis_of_component)[:, :, 0]
    valid = face_valid_mask(flags, axis_of_component)[:, :, 0]
    sx, sy = rad.shape
    n = sx * sy
    # sweep along x: each column j has its own 1D matrix
    bx = np.zeros((n, n))
    for j in range(sy):
        idx = np.arange(sx) * sy + j
        bx[np.ix_(idx, idx)] = dense_1d_kernel_matrix(sx, rad[:, j], valid[:, j])
    by = np.zeros((n, n))
    for i in range(sx):
        idx = i * sy + np.arange(sy)
        by[np.ix_(idx, idx)] = dense_1d_kernel_matrix(sy, rad[i, :], valid[i, :])
    return by @ bx  # x sweep first, then y


class TestBlur:
    def test_zero_radius_identity(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        vel = random_velocity(d, rng)
        out = blur_obstacle_aware(vel, ScalarField.zeros(d), flags)
        assert (out - vel).norm() == 0.0

    def test_constant_preserved_any_radius(self):
        d = GridDims(10, 10)
        flags = CellFlags.open_box(d)
        vel = VelocityField.zeros(d)
        vel.u[...] = 0.75
        vel.v[...] = -2.0
        out = blur_obstacle_aware(vel, ScalarField.full(d, 1.8), flags)
        assert np.allclose(out.u, 0.75, atol=1e-12)
        assert np.allclose(out.v, -2.0, atol=1e-12)

    def test_matches_dense_separable_product(self, rng):
        d = GridDims(12, 12)
        flags = CellFlags.open_box(d)
        radius = ScalarField.full(d, 1.0)
        vel = random_velocity(d, rng)
        out = blur_obstacle_aware(vel, radius, flags)
        for axis, arr in vel.components():
            mat = dense_component_blur(d, flags, radius, axis)
            expect = mat @ arr[:, :, 0].ravel()
            assert np.allclose(out.component(axis)[:, :, 0].ravel(), expect,
                               atol=1e-10), f"component {axis}"

    def test_matches_dense_with_obstacle_and_varying_radius(self, rng):
        d = GridDims(12, 10)
        flags = CellFlags.closed_box(d)
        flags.values[5:7, 4:7, 0] = CellType.SOLID
        rvals = np.where(np.arange(d.nx)[:, None, None] < 6, 0.8, 2.0)
        rvals = np.broadcast_to(rvals, d.shape).copy()
        rvals[flags.solid] = 0.0
        radius = ScalarField(d, rvals)
        vel = random_velocity(d, rng)
        out = blur_obstacle_aware(vel, radius, flags)
        for axis, arr in vel.components():
            mat = dense_component_blur(d, flags, radius, axis)
            expect = mat @ arr[:, :, 0].ravel()
            assert np.allclose(out.component(axis)[:, :, 0].ravel(), expect,
                               atol=1e-10)

    def test_adjointness(self, rng):
        # <B a, b> == <a, B^T b> for spatially varying radius and obstacles
        d = GridDims(11, 9)
        flags = CellFlags.closed_box(d)
        flags.values[4, 3:6, 0] = CellType.SOLID
        rvals = rng.random(d.shape) * 2.0
        rvals[flags.solid] = 0.0
        radius = ScalarField(d, rvals)
        for _ in range(3):
            a = random_velocity(d, rng)
            b = random_velocity(d, rng)
            lhs = blur_obstacle_aware(a, radius, flags).dot(b)
            rhs = a.dot(blur_obstacle_aware(b, radius, flags, transpose=True))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_adjointness_3d(self, rng):
        d = GridDims(5, 4, 4)
        flags = CellFlags.closed_box(d)
        rvals = rng.random(d.shape)
        rvals[flags.solid] = 0.0
        radius = ScalarField(d, rvals)
        a = random_velocity(d, rng)
        b = random_velocity(d, rng)
        lhs = blur_obstacle_aware(a, radius, flags).dot(b)
        rhs = a.dot(blur_obstacle_aware(b, radius, flags, transpose=True))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_solid_adjacent_faces_pass_through(self, rng):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        rvals = np.ones(d.shape)
        rvals[flags.solid] = 0.0
        vel = random_velocity(d, rng)
        out = blur_obstacle_aware(vel, ScalarField(d, rvals), flags)
        m = ~face_valid_mask(flags, 0)
        assert np.array_equal(out.u[m], vel.u[m])

    def test_negative_radius_rejected(self):
        d = GridDims(8, 8)
        with pytest.raises(ValueError):
            blur_obstacle_aware(VelocityField.zeros(d), ScalarField.full(d, -0.1),
                                CellFlags.open_box(d))

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_radius_rejected(self, bad):
        d = GridDims(8, 8)
        radius = ScalarField.full(d, 1.0)
        radius.values[3, 4, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            blur_obstacle_aware(VelocityField.zeros(d), radius, CellFlags.open_box(d))

    def test_nonzero_radius_at_solid_rejected(self):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        with pytest.raises(ValueError):
            blur_obstacle_aware(VelocityField.zeros(d), ScalarField.full(d, 1.0), flags)


# -- the uncached blur, kept as a bitwise reference ---------------------------

def _shifted(axis, t):
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    if t > 0:
        lo[axis], hi[axis] = slice(t, None), slice(None, -t)
    else:
        lo[axis], hi[axis] = slice(None, t), slice(-t, None)
    return tuple(lo), tuple(hi)


def _reference_sweep(vals, rad, valid, axis, transpose):
    """One 1D pass exactly as the blur computed it before the taps and
    normalizers were cached: every tap weight rebuilt on each call."""
    vf = valid.astype(np.float64)
    tmax = int(math.ceil(3.0 * rad.max())) if rad.size else 0
    ncut = np.ceil(3.0 * rad)

    def weight(t):
        with np.errstate(divide="ignore"):
            w = np.exp(-(t * t) / (2.0 * np.square(rad)))
        return np.where((rad > 0) & (t <= ncut), w, 0.0)

    den = vf.copy()
    for t in range(1, tmax + 1):
        wt = weight(t)
        for s in (t, -t):
            dst, src = _shifted(axis, -s)
            den[dst] += wt[dst] * vf[src]

    if not transpose:
        num = vals * vf
        for t in range(1, tmax + 1):
            wt = weight(t)
            for s in (t, -t):
                dst, src = _shifted(axis, -s)
                num[dst] += wt[dst] * (vals * vf)[src]
        return np.where(valid, num / np.where(den > 0, den, 1.0), vals)

    coef = np.where(valid, vals / np.where(den > 0, den, 1.0), 0.0)
    out = np.where(valid, coef, vals)
    for t in range(1, tmax + 1):
        wt = weight(t)
        for s in (t, -t):
            dst, src = _shifted(axis, s)
            out[dst] += (wt * coef)[src] * vf[dst]
    return out


def reference_blur(field, radius, flags, transpose=False):
    out = field.copy()
    axes = field.dims.axes
    for comp, arr in out.components():
        rad = cell_to_face_average(radius, comp)
        valid = face_valid_mask(flags, comp)
        cur = arr
        for axis in (axes if not transpose else tuple(reversed(axes))):
            cur = _reference_sweep(cur, rad, valid, axis, transpose)
        arr[...] = cur
    return out


def field_bytes(vel):
    return b"".join(arr.tobytes() for _, arr in vel.components())


def obstacle_scene(dims, rng, rmax=2.5):
    """Closed box with an inner obstacle and a spatially varying radius."""
    flags = CellFlags.closed_box(dims)
    k = slice(None) if dims.is_2d else slice(1, 3)
    flags.values[4:6, 3:5, k] = CellType.SOLID
    rvals = rng.random(dims.shape) * rmax
    rvals[flags.solid] = 0.0
    return flags, ScalarField(dims, rvals)


class TestCachedKernelBitwise:
    @pytest.mark.parametrize("dims", [GridDims(13, 11), GridDims(9, 8, 6)],
                             ids=["2d", "3d"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "adj"])
    def test_matches_reference(self, rng, dims, transpose):
        flags, radius = obstacle_scene(dims, rng)
        for _ in range(3):   # the first call builds the kernel, the rest reuse it
            vel = random_velocity(dims, rng)
            got = blur_obstacle_aware(vel, radius, flags, transpose=transpose)
            want = reference_blur(vel, radius, flags, transpose=transpose)
            assert field_bytes(got) == field_bytes(want)

    def test_radius_changed_in_place_misses(self, rng):
        d = GridDims(12, 10)
        flags, radius = obstacle_scene(d, rng)
        vel = random_velocity(d, rng)
        first = blur_obstacle_aware(vel, radius, flags)
        radius.values[6:9, 5:8, 0] *= 0.5
        second = blur_obstacle_aware(vel, radius, flags)
        assert field_bytes(second) != field_bytes(first)
        assert field_bytes(second) == field_bytes(reference_blur(vel, radius, flags))

    def test_alternating_pairs_keep_their_own_result(self, rng):
        d = GridDims(12, 10)
        pairs = [obstacle_scene(d, rng), (CellFlags.open_box(d), ScalarField.full(d, 1.3))]
        vel = random_velocity(d, rng)
        want = [reference_blur(vel, r, f, transpose=True) for f, r in pairs]
        for _ in range(2):
            for (f, r), w in zip(pairs, want):
                got = blur_obstacle_aware(vel, r, f, transpose=True)
                assert field_bytes(got) == field_bytes(w)

    def test_invalid_radius_raises_after_a_cached_call(self, rng):
        d = GridDims(10, 10)
        flags, radius = obstacle_scene(d, rng)
        vel = random_velocity(d, rng)
        blur_obstacle_aware(vel, radius, flags)
        radius.values[5, 5, 0] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            blur_obstacle_aware(vel, radius, flags)
        radius.values[5, 5, 0] = 1.0
        blur_obstacle_aware(vel, radius, flags)
        radius.values[4, 3, 0] = 1.0   # inside the obstacle
        with pytest.raises(ValueError, match="SOLID"):
            blur_obstacle_aware(vel, radius, flags)


# -- the normalizer and forward sweep as written before the shared tap sum ---

def _ref_normalizer(vf, taps, axis):
    den = vf.copy()
    for t, wt in enumerate(taps, 1):
        for s in (t, -t):
            dst, src = _shifted(axis, -s)
            den[dst] += wt[dst] * vf[src]
    return np.where(den > 0, den, 1.0)


def _ref_forward_sweep(vals, valid, vf, taps, norm, axis):
    vv = vals * vf
    num = vv.copy()
    for t, wt in enumerate(taps, 1):
        for s in (t, -t):
            dst, src = _shifted(axis, -s)
            num[dst] += wt[dst] * vv[src]
    return np.where(valid, num / norm, vals)


class TestTapSumBitwise:
    @pytest.mark.parametrize("dims", [GridDims(9, 7), GridDims(7, 6, 5)],
                             ids=["2d", "3d"])
    def test_normalizers_and_forward_sweep_match_reference(self, rng, dims):
        flags, radius = obstacle_scene(dims, rng)
        radius.values[:3] = 0.0   # a band of zero-radius faces
        kernel = _BlurKernel(radius, flags)
        for comp, part in kernel.parts.items():
            valid, vf = part.unpad(part.valid), part.unpad(part.vf)
            taps = [part.unpad(w) for w in part.taps]
            vals = rng.standard_normal(valid.shape)
            for axis, norm in part.norms.items():
                want = _ref_normalizer(vf, taps, axis)
                assert part.unpad(norm).tobytes() == want.tobytes()
                got = part.pad(vals)
                _sweep(got, part, axis, False, np.empty(got.size))
                want = _ref_forward_sweep(vals, valid, vf, taps, want, axis)
                assert part.unpad(got).tobytes() == want.tobytes()


# -- the gap layout at its edges, the wall faces and the kernel's memory ------

class TestGapLayout:
    @pytest.mark.parametrize("dims", [GridDims(6, 5), GridDims(4, 9), GridDims(5, 4, 3)],
                             ids=["6x5", "4x9", "5x4x3"])
    @pytest.mark.parametrize("rmax", [0.0, 1.0, 2.5, 5.0])
    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "adj"])
    def test_taps_at_or_past_the_row_length(self, rng, dims, rmax, transpose):
        # up to 15 taps against rows of 3 to 10 faces: every long shift must
        # land in its own row's gap or run off the buffer
        for flags in (CellFlags.open_box(dims), CellFlags.closed_box(dims)):
            for rvals in (np.full(dims.shape, rmax), rng.random(dims.shape) * rmax):
                rvals[flags.solid] = 0.0
                radius = ScalarField(dims, rvals)
                vel = random_velocity(dims, rng)
                got = blur_obstacle_aware(vel, radius, flags, transpose=transpose)
                want = reference_blur(vel, radius, flags, transpose=transpose)
                assert field_bytes(got) == field_bytes(want)

    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "adj"])
    def test_subnormal_normalizer_next_to_an_obstacle(self, rng, transpose):
        # at these radii a wall face's normalizer is subnormal; dividing by it
        # overflowed (and warned) although the quotient was masked out
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        flags.values[4, 4, 0] = CellType.SOLID
        vel = random_velocity(d, rng)
        for r in (0.052, 0.0525, 0.053):
            radius = ScalarField.full(d, r)
            radius.values[flags.solid] = 0.0
            got = blur_obstacle_aware(vel, radius, flags, transpose=transpose)
            with np.errstate(over="ignore"):
                want = reference_blur(vel, radius, flags, transpose=transpose)
            assert field_bytes(got) == field_bytes(want)

    @pytest.mark.parametrize("dims", [GridDims(12, 10), GridDims(7, 6, 5)],
                             ids=["2d", "3d"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["fwd", "adj"])
    def test_wall_faces_keep_their_bits(self, rng, dims, transpose):
        flags, radius = obstacle_scene(dims, rng)
        vel = random_velocity(dims, rng)
        for _, arr in vel.components():
            arr[::2] = -0.0
        out = blur_obstacle_aware(vel, radius, flags, transpose=transpose)
        for comp, arr in vel.components():
            wall = ~face_valid_mask(flags, comp)
            assert out.component(comp)[wall].tobytes() == arr[wall].tobytes()


# bytes tracemalloc saw a _BlurKernel hold at 128^2, radius 2, when it kept
# one unpadded weight array per tap
KERNEL_BYTES_UNPADDED = 2_425_707


def test_kernel_memory_stays_near_one_weight_array_per_tap():
    d = GridDims(128, 128)
    flags = CellFlags.closed_box(d)
    rvals = np.full(d.shape, 2.0)
    rvals[flags.solid] = 0.0
    radius = ScalarField(d, rvals)
    tracemalloc.start()
    try:
        kernel = _BlurKernel(radius, flags)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kernel.parts[0].taps) == 6
    assert held <= 1.25 * KERNEL_BYTES_UNPADDED
