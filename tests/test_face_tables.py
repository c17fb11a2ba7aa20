"""Every face table in the velocity buffer's layout, against the per-axis
bodies it replaced: the boundary tags, the fluid-solid face index, the
gradient update, the Poisson system's face reads and the velocity branch of
advection must agree bit for bit in 2D and 3D."""

import math

import numpy as np
import pytest

from conftest import random_velocity, wall_set
from pdfluids.fields import (CellType, GridDims, ScalarField, VelocityField,
                             _along, _backtrace_rk2, _face_views, _flat_faces,
                             _interp_component, _to_faces, advect_semi_lagrangian,
                             face_centers, face_valid_mask)
from pdfluids.optim import SolverCarry
from pdfluids.pressure import (BcTable, DivergenceProjector, FaceTag, PoissonSystem,
                               subtract_gradient)
from pdfluids.separating import _NORMAL, BoundaryFaces, classified_walls_table
from test_faces import CASES, SHAPES, _dims, closed

# -- the per-axis bodies, kept as test-time references -------------------------

def reference_tags(flags, solid_faces=FaceTag.NEUMANN):
    """BcTable.from_flags as a 3-tuple of face-shaped arrays, the z block
    included in 2D."""
    fluid, solid, empty = CellType.FLUID, CellType.SOLID, CellType.EMPTY
    tag = np.full((4, 4), FaceTag.NEUMANN, dtype=np.uint8)
    tag[fluid, fluid] = FaceTag.INTERIOR
    tag[[fluid, solid], [solid, fluid]] = solid_faces
    tag[[fluid, empty], [empty, fluid]] = FaceTag.DIRICHLET
    return tuple(_to_faces(flags.values, axis, lambda a, b: tag.take(4 * a + b), ghost=3)
                 for axis in range(3))


def reference_subtract_gradient(vel, p, flags, tags):
    inv_h = 1.0 / vel.dims.h
    pv = np.where(flags.fluid, p.values, 0.0)
    out = vel.copy()
    for axis, arr in out.components():
        grad = _to_faces(pv, axis, lambda lo, hi: (hi - lo) * inv_h, ghost=0.0)
        np.subtract(arr, grad, out=arr, where=tags[axis] != FaceTag.NEUMANN)
    return out


def reference_gradient(dims, pv):
    """The gradient as subtract_gradient built it before its face-cell
    table: per active axis, a zero slab padded beyond each domain wall, the
    upper cell less the lower, in the layout of `as_flat`, then times 1/h."""
    per_axis = []
    for axis in dims.axes:
        ghost = np.zeros_like(pv[_along(axis, slice(None, 1))])
        padded = np.concatenate((ghost, pv, ghost), axis=axis)
        per_axis.append(np.ravel(padded[_along(axis, slice(1, None))]
                                 - padded[_along(axis, slice(None, -1))]))
    grad = np.concatenate(per_axis)
    grad *= 1.0 / dims.h
    return grad


class ReferenceBoundaryFaces:
    """The per-axis block index: (axis, i, j, k) and sign per face, with one
    (axis, slice) block per active axis."""

    def __init__(self, flags):
        runs, self.blocks, start = [], [], 0
        for axis in flags.dims.axes:
            sign = _to_faces(flags.values, axis, lambda a, b: _NORMAL.take(3 * a + b))
            index = np.nonzero(sign)
            n = index[0].size
            runs.append((np.full(n, axis), *index, sign[index]))
            self.blocks.append((axis, slice(start, start + n)))
            start += n
        self.axis, self.i, self.j, self.k, self.sign = (
            np.concatenate(c) for c in zip(*runs))
        self.count = start

    def normal_velocity(self, vel):
        out = np.empty(self.count)
        for axis, s in self.blocks:
            out[s] = vel.component(axis)[self.i[s], self.j[s], self.k[s]] * self.sign[s]
        return out

    def write(self, arrays, mask, value):
        for axis, s in self.blocks:
            m = mask[s]
            arrays[axis][self.i[s][m], self.j[s][m], self.k[s][m]] = value


def reference_system_faces(flags, tags):
    """The face counts, singular components and INTERIOR couplings that
    PoissonSystem read from a per-axis table.  A singular component is a
    set of active cells joined by INTERIOR faces between two active cells
    with no other non-Neumann face, listed as `_components` lists them:
    cells ascending, components by their first cell."""
    d = flags.dims
    count = np.zeros(d.shape)
    for axis in d.axes:
        t = tags[axis]
        for cells in (slice(None, -1), slice(1, None)):
            count += (t[_along(axis, cells)] != FaceTag.NEUMANN).astype(np.float64)
    count[~flags.fluid] = 0.0
    interior = [tags[axis][_along(axis, slice(1, None))] == FaceTag.INTERIOR
                for axis in d.axes]
    active = flags.fluid & (count > 0)
    # flood fill over the couplings, one cell at a time
    couplings = np.zeros(d.shape)
    links = {}
    for axis in d.axes:
        inner = tags[axis][_along(axis, slice(1, -1))] == FaceTag.INTERIOR
        lo, hi = _along(axis, slice(None, -1)), _along(axis, slice(1, None))
        link = inner & active[lo] & active[hi]
        couplings[lo] += link
        couplings[hi] += link
        for c in zip(*np.nonzero(link)):
            n = list(c)
            n[axis] += 1
            links.setdefault(c, []).append(tuple(n))
            links.setdefault(tuple(n), []).append(c)
    seen = np.zeros(d.shape, bool)
    singular = []
    for start in zip(*np.nonzero(active)):
        if seen[start]:
            continue
        seen[start] = True
        todo, members = [start], []
        while todo:
            c = todo.pop()
            members.append(c)
            for n in links.get(c, ()):
                if not seen[n]:
                    seen[n] = True
                    todo.append(n)
        if all(count[c] == couplings[c] for c in members):
            singular.append(sorted(np.ravel_multi_index(c, d.shape) for c in members))
    return count, sorted(singular), interior


def reference_advect_velocity(field, vel, dt, flags):
    res = field.copy()
    for axis, arr in field.components():
        X, Y, Z = face_centers(field.dims, axis)
        bx, by, bz = _backtrace_rk2(vel, X, Y, Z, dt)
        sampled = _interp_component(arr, axis, field.dims, bx, by, bz)
        valid = face_valid_mask(flags, axis)
        dst = res.component(axis)
        dst[valid] = sampled[valid]
    return res


def flat(dims, per_axis):
    return _flat_faces(dims, lambda a: per_axis[a])


def random_tags(dims, rng):
    return tuple(rng.integers(0, 3, size=dims.face_shape(a)).astype(np.uint8)
                 for a in range(3))


def assert_same_velocity(got, ref):
    assert got._buf.tobytes() == ref._buf.tobytes()


# -- the views ------------------------------------------------------------------

@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
class TestFaceViews:
    def test_inverse_of_flat_faces(self, shape):
        d = _dims(shape)
        arrays = [np.random.default_rng(a).standard_normal(d.face_shape(a))
                  for a in range(3)]
        packed = _flat_faces(d, lambda a: arrays[a])
        views = _face_views(d, packed)
        assert len(views) == len(d.axes)
        for a, view in enumerate(views):
            assert view.base is packed and view.tobytes() == arrays[a].tobytes()
        views[-1][(-1, -1, -1)] = 7.0   # writable, into the array
        assert packed[-1] == 7.0

    def test_velocity_buffer(self, shape):
        d = _dims(shape)
        vel = random_velocity(d, np.random.default_rng(1))
        active = _face_views(d, vel.as_flat())
        assert len(active) == len(d.axes)
        for a in d.axes:
            assert np.shares_memory(active[a], vel.component(a))
            assert active[a].tobytes() == vel.component(a).tobytes()

    def test_wrong_length_raises(self, shape):
        d = _dims(shape)
        n = VelocityField.zeros(d).n_dof
        bads = [np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1))]
        if d.is_2d:   # a u, v and w buffer is not a 2D face layout
            bads.append(np.zeros(sum(math.prod(d.face_shape(a)) for a in range(3))))
        for bad in bads:
            with pytest.raises(ValueError, match="does not match"):
                _face_views(d, bad)


# -- the tables -----------------------------------------------------------------

@pytest.mark.parametrize("make, shape", CASES)
class TestFlatTables:
    @pytest.mark.parametrize("solid_faces", [FaceTag.NEUMANN, FaceTag.DIRICHLET])
    def test_from_flags(self, make, shape, solid_faces):
        flags = make(shape)
        got = BcTable.from_flags(flags, solid_faces).tags
        ref = flat(flags.dims, reference_tags(flags, solid_faces))
        assert got.dtype == np.uint8 and got.shape == (VelocityField.zeros(flags.dims).n_dof,)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("table", ["neumann", "dirichlet", "random"])
    def test_subtract_gradient(self, make, shape, table):
        flags = make(shape)
        rng = np.random.default_rng(11)
        tags = (random_tags(flags.dims, rng) if table == "random"
                else reference_tags(flags, FaceTag[table.upper()]))
        bc = BcTable(flags.dims, flat(flags.dims, tags))
        vel = random_velocity(flags.dims, rng)
        p = ScalarField(flags.dims, rng.standard_normal(flags.dims.shape))
        got = subtract_gradient(vel, p, flags, bc, vel.copy())
        assert_same_velocity(got, reference_subtract_gradient(vel, p, flags, tags))

    def test_gathered_gradient(self, make, shape):
        # bit for bit the padded difference it replaced, and a NaN pressure
        # off the FLUID cells reaches no face, whatever the tags
        flags = make(shape)
        d = flags.dims
        rng = np.random.default_rng(15)
        p = np.where(flags.fluid, rng.standard_normal(d.shape), np.nan)
        bc = BcTable(d, flat(d, random_tags(d, rng)))
        vel = random_velocity(d, rng)
        got = subtract_gradient(vel, ScalarField(d, p), flags, bc, vel.copy()).as_flat()
        want = vel.as_flat().copy()
        np.subtract(want, reference_gradient(d, np.where(flags.fluid, p, 0.0)), out=want,
                    where=bc.tags != FaceTag.NEUMANN)
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()

    def test_poisson_system_reads(self, make, shape):
        flags = make(shape)
        rng = np.random.default_rng(12)
        for tags in (reference_tags(flags), reference_tags(flags, FaceTag.DIRICHLET),
                     random_tags(flags.dims, rng)):
            system = PoissonSystem(flags, BcTable(flags.dims, flat(flags.dims, tags)))
            count, singular, interior = reference_system_faces(flags, tags)
            inv_h2 = 1.0 / (flags.dims.h * flags.dims.h)
            assert system.diag.tobytes() == (count * inv_h2).tobytes()
            assert [c.tolist() for c in system._components] == singular
            for (_, conn), c in zip(system.grids[0].stencil, interior):
                # the coupling is zero wherever the reference face is not
                # INTERIOR (activity masks the rest)
                assert not conn[~c.reshape(-1)[:conn.size]].any()

    def test_boundary_faces(self, make, shape):
        flags = make(shape)
        faces, ref = BoundaryFaces(flags), ReferenceBoundaryFaces(flags)
        d = flags.dims
        offset = {a: d._face_blocks[a][0] for a in d.axes}
        expect = np.array([offset[a] + np.ravel_multi_index((i, j, k), d.face_shape(a))
                           for a, i, j, k in zip(ref.axis, ref.i, ref.j, ref.k)],
                          dtype=np.intp)
        assert faces.index.tobytes() == expect.tobytes()
        assert faces.sign.dtype == ref.sign.dtype
        assert faces.sign.tobytes() == ref.sign.tobytes()
        assert len(faces) == ref.count
        # each face's FLUID cell: its upper cell or the one below it
        upper = np.stack([ref.i, ref.j, ref.k])
        lower = upper - (np.arange(3)[:, None] == ref.axis)
        cell = np.where(flags.fluid[tuple(upper)], upper, lower)
        assert faces.cell.tobytes() == np.ravel_multi_index(cell, d.shape).tobytes()

    @pytest.mark.parametrize("share", [0.5, 0.0, 1.0])
    def test_wall_reads_and_writes(self, make, shape, share):
        flags = make(shape)
        faces, ref = BoundaryFaces(flags), ReferenceBoundaryFaces(flags)
        rng = np.random.default_rng(13)
        vel = random_velocity(flags.dims, rng)
        assert faces.normal_velocity(vel).tobytes() == ref.normal_velocity(vel).tobytes()
        nsep = rng.random(len(faces)) < share
        got, want = vel.copy(), vel.copy()
        faces.zero_normal(got, nsep)
        ref.write((want.u, want.v, want.w), nsep, 0.0)
        assert_same_velocity(got, want)
        tags = reference_tags(flags, FaceTag.DIRICHLET)
        ref.write(tags, nsep, np.uint8(FaceTag.NEUMANN))
        table = classified_walls_table(flags, wall_set(flags, faces, nsep))
        assert table.tags.tobytes() == flat(flags.dims, tags).tobytes()

    def test_advect_velocity(self, make, shape):
        flags = make(shape)
        rng = np.random.default_rng(14)
        field = random_velocity(flags.dims, rng)
        vel = random_velocity(flags.dims, rng, scale=2.0)
        got = advect_semi_lagrangian(field, vel, 0.1, flags)
        assert_same_velocity(got, reference_advect_velocity(field, vel, 0.1, flags))


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_face_cell_table(shape):
    # every active face's lower and upper cell, cell_count past a domain
    # wall, as np.intp arrays built once per dims
    d = _dims(shape)
    lower, upper = d._face_cells
    assert d._face_cells[0] is lower and d._face_cells[1] is upper
    for side, shift in ((lower, 1), (upper, 0)):
        want = []
        for axis in d.axes:
            idx = np.indices(d.face_shape(axis)).reshape(3, -1)
            idx[axis] -= shift
            inside = (idx[axis] >= 0) & (idx[axis] < d.shape[axis])
            idx[axis] = np.clip(idx[axis], 0, d.shape[axis] - 1)
            want.append(np.where(inside, np.ravel_multi_index(idx, d.shape), d.cell_count))
        assert side.dtype == np.intp
        assert side.tobytes() == np.concatenate(want).astype(np.intp).tobytes()


def test_cache_key_reads_every_tag():
    # one tag changed in place, on the last face of each block in turn,
    # misses the carried system
    flags = closed(SHAPES["3d"])
    bc = BcTable.from_flags(flags)
    carry = SolverCarry()
    system = DivergenceProjector(flags, bc, carry=carry).system
    for view in _face_views(flags.dims, bc.tags):
        view[(-1, -1, -1)] = FaceTag.DIRICHLET
        again = DivergenceProjector(flags, bc, carry=carry).system
        assert again is not system
        system = again
    assert DivergenceProjector(flags, BcTable(flags.dims, bc.tags.copy()),
                               carry=carry).system is system


def test_dims_h_must_be_finite():
    for h in (np.inf, -np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="cell width h"):
            GridDims(8, 8, 1, h)
