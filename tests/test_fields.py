import math

import numpy as np
import pytest

from pdfluids import fields
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _gather_scalar_masked,
                             _interp_component, advect_semi_lagrangian,
                             cell_centers, divergence, face_centers,
                             face_valid_mask, upsample)
from pdfluids.pressure import BcTable, FaceTag, subtract_gradient

from conftest import dense_divergence_matrix, random_velocity, sample_velocity


def open_dims(n=8, h=1.0):
    return GridDims(n, n, 1, h)


class TestContainers:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            GridDims(3, 8)
        with pytest.raises(ValueError):
            GridDims(8, 8, 1, 0.0)
        d = GridDims(8, 6, 1, 0.5)
        assert d.cell_count == 48
        assert d.axes == (0, 1)
        assert GridDims(4, 4, 4).axes == (0, 1, 2)

    def test_velocity_shapes_and_flat_roundtrip(self, rng):
        d = GridDims(5, 4, 1, 1.0)
        vel = random_velocity(d, rng)
        assert vel.u.shape == (6, 4, 1)
        assert vel.v.shape == (5, 5, 1)
        assert vel.w.shape == (5, 4, 2)
        assert vel.n_dof == 6 * 4 + 5 * 5
        flat = vel.as_flat()
        vel2 = VelocityField.zeros(d)
        vel2.set_flat(flat)
        assert (vel2 - vel).norm() == 0.0

    def test_flags_closed_box(self):
        d = GridDims(6, 5)
        fl = CellFlags.closed_box(d)
        assert fl.solid[0, 0, 0] and fl.solid[-1, 2, 0]
        assert fl.fluid[2, 2, 0]
        assert fl.fluid.sum() == 4 * 3


class TestDivergence:
    def test_constant_field_zero_divergence(self):
        d = open_dims()
        flags = CellFlags.open_box(d)
        vel = VelocityField.zeros(d)
        vel.u[...] = 1.0
        div = divergence(vel, flags)
        assert np.allclose(div.values, 0.0)

    def test_linear_field_unit_divergence(self):
        # u_x = x (face positions i*h) gives du/dx = 1 everywhere
        d = open_dims(8, h=0.25)
        flags = CellFlags.open_box(d)
        vel = VelocityField.zeros(d)
        X, _, _ = face_centers(d, 0)
        vel.u[...] = X
        div = divergence(vel, flags)
        assert np.allclose(div.values, 1.0)

    def test_matches_dense_matrix(self, rng):
        d = open_dims(8)
        flags = CellFlags.closed_box(d)
        vel = random_velocity(d, rng)
        mat = dense_divergence_matrix(d, flags)
        expect = mat @ vel.as_flat()
        got = divergence(vel, flags).values.ravel()
        assert np.allclose(got, expect, atol=1e-12)

    def test_zero_outside_fluid(self, rng):
        d = open_dims(8)
        flags = CellFlags.closed_box(d)
        flags.values[3, 3, 0] = CellType.EMPTY
        vel = random_velocity(d, rng)
        div = divergence(vel, flags)
        assert div.values[0, 0, 0] == 0.0
        assert div.values[3, 3, 0] == 0.0

    def test_dimension_mismatch(self, rng):
        vel = VelocityField.zeros(open_dims(8))
        flags = CellFlags.open_box(open_dims(6))
        with pytest.raises(ValueError):
            divergence(vel, flags)


class TestSubtractGradient:
    def test_constant_pressure_no_change(self, rng):
        d = open_dims()
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        vel = random_velocity(d, rng)
        p = ScalarField.full(d, 3.7)
        out = subtract_gradient(vel, p, flags, bc, vel.copy())
        assert (out - vel).norm() == 0.0

    def test_pressure_ramp(self):
        # p = x (cell centers), interior fluid-fluid x-faces get u -= 1
        d = open_dims(8, h=0.5)
        flags = CellFlags.open_box(d)
        bc = BcTable.from_flags(flags)
        Xc = (np.arange(d.nx) + 0.5) * d.h
        p = ScalarField(d, np.broadcast_to(Xc[:, None, None], d.shape).copy())
        vel = VelocityField.zeros(d)
        out = subtract_gradient(vel, p, flags, bc, vel.copy())
        assert np.allclose(out.u[1:-1, :, :], -1.0)
        assert np.allclose(out.u[0, :, :], 0.0)  # wall faces Neumann
        assert np.allclose(out.v[:, 1:-1, :], 0.0)

    def test_matches_dense_gradient_matrix(self, rng):
        d = open_dims(8)
        flags = CellFlags.closed_box(d)
        flags.values[5, 5, 0] = CellType.EMPTY
        bc = BcTable.from_flags(flags)
        p_vals = rng.standard_normal(d.shape)
        p = ScalarField(d, p_vals)
        zero = VelocityField.zeros(d)
        out = subtract_gradient(zero, p, flags, bc, zero.copy())
        # dense: column per cell, built by probing with unit pressures
        n = d.cell_count
        cols = np.zeros((out.as_flat().size, n))
        for c in range(n):
            e = np.zeros(n)
            e[c] = 1.0
            pe = ScalarField(d, e.reshape(d.shape))
            cols[:, c] = subtract_gradient(zero, pe, flags, bc, zero.copy()).as_flat()
        assert np.allclose(out.as_flat(), cols @ p_vals.ravel(), atol=1e-12)

    def test_div_grad_composition_is_linear(self, rng):
        # div(u - G p) = div(u) - (D G) p exactly, via dense matrices
        d = open_dims(6)
        flags = CellFlags.closed_box(d)
        bc = BcTable.from_flags(flags)
        vel = random_velocity(d, rng)
        p = ScalarField(d, rng.standard_normal(d.shape))
        lhs = divergence(subtract_gradient(vel, p, flags, bc, vel.copy()), flags).values
        D = dense_divergence_matrix(d, flags)
        zero = VelocityField.zeros(d)
        gp = subtract_gradient(zero, p, flags, bc, zero.copy()).as_flat()
        rhs = divergence(vel, flags).values.ravel() + D @ gp
        assert np.allclose(lhs.ravel(), rhs, atol=1e-12)


class TestSampling:
    def test_constant_everywhere(self):
        d = open_dims()
        vel = VelocityField.zeros(d)
        vel.u[...] = 2.0
        vel.v[...] = -1.0
        for pt in ([0.0, 0.0], [3.3, 7.9], [8.0, 8.0]):
            s = sample_velocity(vel, pt)
            assert s[0] == pytest.approx(2.0)
            assert s[1] == pytest.approx(-1.0)

    def test_exact_face_center(self, rng):
        d = open_dims(8, h=0.5)
        vel = random_velocity(d, rng)
        i, j = 3, 4
        pt = [i * d.h, (j + 0.5) * d.h]
        assert sample_velocity(vel, pt)[0] == pytest.approx(vel.u[i, j, 0])

    def test_midpoint_between_faces(self, rng):
        d = open_dims(8, h=0.5)
        vel = random_velocity(d, rng)
        i, j = 3, 4
        pt = [(i + 0.5) * d.h, (j + 0.5) * d.h]
        expect = 0.5 * (vel.u[i, j, 0] + vel.u[i + 1, j, 0])
        assert sample_velocity(vel, pt)[0] == pytest.approx(expect)


class TestAdvection:
    def test_zero_velocity_identity(self, rng):
        d = open_dims()
        flags = CellFlags.open_box(d)
        dens = ScalarField(d, rng.random(d.shape))
        out = advect_semi_lagrangian(dens, VelocityField.zeros(d), 0.1, flags)
        assert np.array_equal(out.values, dens.values)
        vel = random_velocity(d, rng)
        out_v = advect_semi_lagrangian(vel, VelocityField.zeros(d), 0.1, flags)
        assert (out_v - vel).norm() == 0.0

    def test_constant_field_transported_unchanged(self):
        d = open_dims(8, h=1.0)
        flags = CellFlags.open_box(d)
        vel = VelocityField.zeros(d)
        vel.u[...] = 1.0
        dens = ScalarField.full(d, 0.6)
        out = advect_semi_lagrangian(dens, vel, d.h, flags)
        assert np.allclose(out.values, 0.6)

    def test_gaussian_blob_displacement(self):
        # uniform flow moves the density peak by n*|u|*dt, within one cell
        d = GridDims(48, 16, 1, 1.0)
        flags = CellFlags.open_box(d)
        vel = VelocityField.zeros(d)
        vel.u[...] = 1.0
        X, Y, _ = np.meshgrid((np.arange(d.nx) + 0.5), (np.arange(d.ny) + 0.5),
                              [0.5], indexing="ij")
        dens = ScalarField(d, np.exp(-((X - 10.5) ** 2 + (Y - 8.5) ** 2) / 4.0))
        dt = 1.0
        steps = 10
        cur = dens
        for _ in range(steps):
            cur = advect_semi_lagrangian(cur, vel, dt, flags)
        peak = np.unravel_index(np.argmax(cur.values), d.shape)
        expect_x = 10.5 + steps * dt * 1.0
        assert abs((peak[0] + 0.5) - expect_x) <= 1.0
        assert peak[1] == 8  # blob started on row center y=8.5, pure x transport

    def test_solid_cells_untouched_and_never_read(self, rng):
        d = open_dims(10)
        flags = CellFlags.open_box(d)
        flags.values[4:6, 4:6, 0] = CellType.SOLID
        dens = ScalarField(d, rng.random(d.shape))
        poison = dens.copy()
        poison.values[flags.solid] = 1e6  # must never leak out
        vel = VelocityField.zeros(d)
        vel.u[...] = 0.9
        vel.v[...] = 0.4
        out = advect_semi_lagrangian(poison, vel, 1.0, flags)
        assert np.array_equal(out.values[flags.solid], poison.values[flags.solid])
        assert np.abs(out.values[~flags.solid]).max() < 1e3

    def test_bad_dt(self):
        d = open_dims()
        with pytest.raises(ValueError):
            advect_semi_lagrangian(ScalarField.zeros(d), VelocityField.zeros(d),
                                   0.0, CellFlags.open_box(d))


class TestUpsample:
    def test_factor_one_identity(self, rng):
        d = open_dims()
        vel = random_velocity(d, rng)
        out = upsample(vel, 1)
        assert (out - vel).norm() == 0.0

    def test_constant_preserved(self):
        d = open_dims()
        vel = VelocityField.zeros(d)
        vel.u[...] = 1.5
        vel.v[...] = -0.5
        out = upsample(vel, 4)
        assert out.dims.nx == 32 and out.dims.h == pytest.approx(d.h / 4)
        assert np.allclose(out.u, 1.5)
        assert np.allclose(out.v, -0.5)

    def test_linear_ramp_matches_analytic(self):
        d = open_dims(8, h=0.5)
        vel = VelocityField.zeros(d)
        X, _, _ = face_centers(d, 0)
        vel.u[...] = 2.0 * X  # u_x = 2x, constant along y
        out = upsample(vel, 2)
        Xf, _, _ = face_centers(out.dims, 0)
        assert np.allclose(out.u, 2.0 * Xf, atol=1e-12)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            upsample(VelocityField.zeros(open_dims()), 0)


# ---------------------------------------------------------------------------
# the one stencil against the per-transfer copies it replaced

def _ref_interp_component(arr, axis, dims, px, py, pz):
    """Multilinear face interpolation as written before the shared stencil."""
    h = dims.h
    gs = []
    for a, p in enumerate((px, py, pz)):
        off = 0.0 if a == axis else 0.5
        g = np.asarray(p, dtype=np.float64) / h - off
        g = np.clip(g, 0.0, arr.shape[a] - 1.0)
        gs.append(g)
    i0 = [np.floor(g).astype(np.intp) for g in gs]
    fr = [g - i for g, i in zip(gs, i0)]
    i1 = [np.minimum(i + 1, arr.shape[a] - 1) for a, i in enumerate(i0)]
    if dims.is_2d:
        k = np.zeros_like(i0[0])
        c00 = arr[i0[0], i0[1], k]
        c10 = arr[i1[0], i0[1], k]
        c01 = arr[i0[0], i1[1], k]
        c11 = arr[i1[0], i1[1], k]
        return ((c00 * (1 - fr[0]) + c10 * fr[0]) * (1 - fr[1])
                + (c01 * (1 - fr[0]) + c11 * fr[0]) * fr[1])
    out = 0.0
    for dx, wx in ((i0[0], 1 - fr[0]), (i1[0], fr[0])):
        for dy, wy in ((i0[1], 1 - fr[1]), (i1[1], fr[1])):
            for dz, wz in ((i0[2], 1 - fr[2]), (i1[2], fr[2])):
                out = out + arr[dx, dy, dz] * (wx * wy * wz)
    return out


def _ref_gather_scalar_masked(scalar, flags, px, py, pz):
    """SOLID-masked cell gather as written before the shared stencil."""
    d = scalar.dims
    h = d.h
    vals = scalar.values
    notsolid = (flags.values != CellType.SOLID).astype(np.float64)
    gs = []
    for a, p in enumerate((px, py, pz)):
        g = np.asarray(p, dtype=np.float64) / h - 0.5
        g = np.clip(g, 0.0, d.shape[a] - 1.0)
        gs.append(g)
    i0 = [np.floor(g).astype(np.intp) for g in gs]
    fr = [g - i for g, i in zip(gs, i0)]
    i1 = [np.minimum(i + 1, d.shape[a] - 1) for a, i in enumerate(i0)]
    num = 0.0
    den = 0.0
    zaxis = ((i0[2], 1 - fr[2]), (i1[2], fr[2])) if not d.is_2d else \
        ((np.zeros_like(i0[0]), 1.0),)
    for dx, wx in ((i0[0], 1 - fr[0]), (i1[0], fr[0])):
        for dy, wy in ((i0[1], 1 - fr[1]), (i1[1], fr[1])):
            for dz, wz in zaxis:
                w = wx * wy * wz * notsolid[dx, dy, dz]
                num = num + vals[dx, dy, dz] * w
                den = den + w
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)


def _ref_backtrace_rk2(vel, px, py, pz, dt):
    d = vel.dims
    lim = (d.nx * d.h, d.ny * d.h, d.nz * d.h)

    def clamp(x, y, z):
        return (np.clip(x, 0.0, lim[0]), np.clip(y, 0.0, lim[1]), np.clip(z, 0.0, lim[2]))

    def sample(a, x, y, z):
        return _ref_interp_component(vel.component(a), a, d, x, y, z)

    k1 = [sample(a, px, py, pz) for a in range(3)] if not d.is_2d else \
        [sample(0, px, py, pz), sample(1, px, py, pz), 0.0]
    mx, my, mz = clamp(px - 0.5 * dt * k1[0], py - 0.5 * dt * k1[1], pz - 0.5 * dt * k1[2])
    k2 = [sample(a, mx, my, mz) for a in range(3)] if not d.is_2d else \
        [sample(0, mx, my, mz), sample(1, mx, my, mz), 0.0]
    return clamp(px - dt * k2[0], py - dt * k2[1], pz - dt * k2[2])


def _ref_advect(field, vel, dt, flags):
    if isinstance(field, ScalarField):
        X, Y, Z = cell_centers(field.dims)
        bx, by, bz = _ref_backtrace_rk2(vel, X, Y, Z, dt)
        gathered = _ref_gather_scalar_masked(field, flags, bx, by, bz)
        out = field.values.copy()
        ok = (flags.values != CellType.SOLID) & np.isfinite(gathered)
        out[ok] = gathered[ok]
        return ScalarField(field.dims, out)
    res = field.copy()
    for axis, arr in field.components():
        X, Y, Z = face_centers(field.dims, axis)
        bx, by, bz = _ref_backtrace_rk2(vel, X, Y, Z, dt)
        sampled = _ref_interp_component(arr, axis, field.dims, bx, by, bz)
        valid = face_valid_mask(flags, axis)
        res.component(axis)[valid] = sampled[valid]
    return res


STENCIL_DIMS = {"2d": GridDims(13, 9, 1, 0.1), "3d": GridDims(13, 9, 7, 0.1)}


def _stencil_points(d, rng, n=300):
    """Seeded points (N, 3): inside the domain, outside it, exactly on its
    walls, on interior face planes and at cell centres."""
    ext = np.array(d.shape) * d.h
    inside = rng.uniform(0.0, 1.0, (n, 3)) * ext
    outside = rng.uniform(-0.5, 1.5, (n, 3)) * ext
    walls = rng.uniform(0.0, 1.0, (n, 3)) * ext
    for row, axis in enumerate(rng.integers(0, 3, n)):
        walls[row, axis] = ext[axis] * rng.integers(0, 2)
    planes = rng.uniform(0.0, 1.0, (n, 3)) * ext
    for row, axis in enumerate(rng.integers(0, 3, n)):
        planes[row, axis] = rng.integers(0, d.shape[axis] + 1) * d.h
    centres = (rng.integers(0, d.shape, (n, 3)) + 0.5) * d.h
    return np.concatenate([inside, outside, walls, planes, centres])


def _obstacle_flags(d):
    flags = CellFlags.closed_box(d)
    flags.values[5:8, 3:6, :] = CellType.SOLID
    return flags


class TestStencilBitwise:
    @pytest.mark.parametrize("case", STENCIL_DIMS)
    def test_interp_matches_reference(self, case, rng):
        d = STENCIL_DIMS[case]
        vel = random_velocity(d, rng)
        px, py, pz = _stencil_points(d, rng).T
        for axis, arr in vel.components():
            got = _interp_component(arr, axis, d, px, py, pz)
            want = _ref_interp_component(arr, axis, d, px, py, pz)
            assert got.tobytes() == want.tobytes()
            for pts in (face_centers(d, axis), cell_centers(d)):
                got = _interp_component(arr, axis, d, *pts)
                assert got.tobytes() == _ref_interp_component(arr, axis, d, *pts).tobytes()

    @pytest.mark.parametrize("case", STENCIL_DIMS)
    def test_sample_velocity_and_upsample_match_reference(self, case, rng):
        d = STENCIL_DIMS[case]
        vel = random_velocity(d, rng)
        for p in _stencil_points(d, rng, n=5):
            want = np.zeros(3)
            for axis, arr in vel.components():
                want[axis] = _ref_interp_component(arr, axis, d, p[0], p[1], p[2])
            assert sample_velocity(vel, p).tobytes() == want.tobytes()
        fine = upsample(vel, 2)
        for axis, arr in vel.components():
            want = _ref_interp_component(arr, axis, d, *face_centers(fine.dims, axis))
            assert fine.component(axis).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", STENCIL_DIMS)
    def test_masked_gather_matches_reference(self, case, rng):
        d = STENCIL_DIMS[case]
        flags = _obstacle_flags(d)
        scalar = ScalarField(d, rng.standard_normal(d.shape))
        for pts in (_stencil_points(d, rng).T, cell_centers(d)):
            got = _gather_scalar_masked(scalar, flags, *pts)
            assert got.tobytes() == _ref_gather_scalar_masked(scalar, flags, *pts).tobytes()

    @pytest.mark.parametrize("case", STENCIL_DIMS)
    def test_advection_around_obstacle_matches_reference(self, case, rng):
        d = STENCIL_DIMS[case]
        flags = _obstacle_flags(d)
        vel = random_velocity(d, rng, scale=2.0)
        dens = ScalarField(d, rng.random(d.shape))
        for field in (vel, dens):
            got = advect_semi_lagrangian(field, vel, 0.07, flags)
            want = _ref_advect(field, vel, 0.07, flags)
            if isinstance(field, ScalarField):
                assert got.values.tobytes() == want.values.tobytes()
            else:
                for a in range(3):
                    assert got.component(a).tobytes() == want.component(a).tobytes()

    @pytest.mark.parametrize("case", STENCIL_DIMS)
    def test_advection_on_a_warm_grid_matches_reference(self, case, rng):
        # the first advection on a grid builds its start stencils, every
        # later one reads them, also after an equal grid built its own
        d = GridDims(*STENCIL_DIMS[case].shape, STENCIL_DIMS[case].h)
        twin = GridDims(*d.shape, d.h)
        assert twin == d and twin is not d
        for dims, dt in ((d, 0.07), (d, 0.03), (twin, 0.07), (d, 0.07), (d, 0.11)):
            flags = _obstacle_flags(dims)
            vel = random_velocity(dims, rng, scale=2.0)
            for field in (vel, ScalarField(dims, rng.random(dims.shape))):
                got = advect_semi_lagrangian(field, vel, dt, flags)
                want = _ref_advect(field, vel, dt, flags)
                if isinstance(field, ScalarField):
                    assert got.values.tobytes() == want.values.tobytes()
                else:
                    for a in range(3):
                        assert got.component(a).tobytes() == want.component(a).tobytes()
        assert vars(d)["_starts"] is not vars(twin)["_starts"]

    @pytest.mark.parametrize("case, built", [("2d", 9), ("3d", 16)])
    def test_warm_grid_builds_only_the_moved_stencils(self, case, built, rng, monkeypatch):
        # per start set (each face axis, then the cells) a frame builds the
        # second-stage stencils and the final one; the first stage is cached
        d = GridDims(*STENCIL_DIMS[case].shape, STENCIL_DIMS[case].h)
        flags = _obstacle_flags(d)
        vel = random_velocity(d, rng)
        dens = ScalarField(d, rng.random(d.shape))
        advect_semi_lagrangian(vel, vel, 0.07, flags)
        calls = []
        for name in ("_coords", "_centers"):
            wrapped = getattr(fields, name)
            monkeypatch.setattr(fields, name, lambda *a, f=wrapped, n=name: (
                calls.append(n), f(*a))[1])
        advect_semi_lagrangian(vel, vel, 0.07, flags)
        advect_semi_lagrangian(dens, vel, 0.07, flags)
        assert calls == ["_coords"] * built


# -- sample coordinates as cell_centers and face_centers built them before ----

def _ref_cell_centers(dims):
    h = dims.h
    x = (np.arange(dims.nx) + 0.5) * h
    y = (np.arange(dims.ny) + 0.5) * h
    z = (np.arange(dims.nz) + 0.5) * h
    return np.meshgrid(x, y, z, indexing="ij")


def _ref_face_centers(dims, axis):
    h = dims.h
    coords = []
    for a, n in enumerate(dims.shape):
        if a == axis:
            coords.append(np.arange(n + 1) * h)
        else:
            coords.append((np.arange(n) + 0.5) * h)
    return np.meshgrid(*coords, indexing="ij")


@pytest.mark.parametrize("dims", [*STENCIL_DIMS.values(), GridDims(9, 7, 1, 1 / 7),
                                  GridDims(7, 6, 5, 1 / 3)],
                         ids=["2d", "3d", "2d-h7", "3d-h3"])
def test_centers_match_reference(dims):
    pairs = [(cell_centers(dims), _ref_cell_centers(dims))]
    pairs += [(face_centers(dims, a), _ref_face_centers(dims, a)) for a in range(3)]
    for got, want in pairs:
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
