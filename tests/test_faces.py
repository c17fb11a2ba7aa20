"""The one face-from-cells rule, fields._to_faces, against the per-site
bodies it replaced: boundary tags, wall-face signs, the pressure gradient,
the least-squares divergence adjoint and the three face masks must agree
bit for bit on every table the package builds."""

import numpy as np
import pytest

from conftest import random_velocity, wall_set
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _along, _face_views, _flat_faces,
                             cell_to_face_average, divergence, face_valid_mask,
                             fluid_adjacent_face_mask)
from pdfluids.guiding import (GuidingConfig, GuidingQuadratic, _cg_velocity,
                              direct_least_squares)
from pdfluids.pressure import BcTable, FaceTag, PoissonSystem, subtract_gradient
from pdfluids.separating import BoundaryFaces, classified_walls_table

FLUID, SOLID, EMPTY = CellType.FLUID, CellType.SOLID, CellType.EMPTY


# -- the replaced bodies, kept as test-time references -------------------------

def reference_to_faces(c, axis, pair):
    return np.concatenate((c[_along(axis, slice(None, 1))],
                           pair(c[_along(axis, slice(None, -1))],
                                c[_along(axis, slice(1, None))]),
                           c[_along(axis, slice(-1, None))]), axis=axis)


def reference_from_flags(flags, solid_faces=FaceTag.NEUMANN):
    d = flags.dims
    v = flags.values
    tags = []
    for axis in range(3):
        t = np.full(d.face_shape(axis), FaceTag.NEUMANN, dtype=np.uint8)
        a = v[_along(axis, slice(None, -1))]
        b = v[_along(axis, slice(1, None))]
        it = t[_along(axis, slice(1, -1))]
        both_fluid = (a == FLUID) & (b == FLUID)
        fl_solid = ((a == FLUID) & (b == SOLID)) | ((a == SOLID) & (b == FLUID))
        fl_empty = ((a == FLUID) & (b == EMPTY)) | ((a == EMPTY) & (b == FLUID))
        it[both_fluid] = FaceTag.INTERIOR
        it[fl_solid] = solid_faces
        it[fl_empty] = FaceTag.DIRICHLET
        tags.append(t)
    return BcTable(d, _flat_faces(d, lambda a: tags[a]))


def reference_signs(flags):
    """Per active axis, the face-shaped wall-normal sign of the fluid-solid
    faces."""
    v = flags.values
    out = []
    for axis in flags.dims.axes:
        a = v[_along(axis, slice(None, -1))]
        b = v[_along(axis, slice(1, None))]
        sign = np.zeros(flags.dims.face_shape(axis))
        inner = sign[_along(axis, slice(1, -1))]
        inner[(a == SOLID) & (b == FLUID)] = 1.0
        inner[(a == FLUID) & (b == SOLID)] = -1.0
        out.append(sign)
    return out


def reference_subtract_gradient(vel, p, flags, bc):
    d = vel.dims
    inv_h = 1.0 / d.h
    fl = flags.fluid
    out = vel.copy()
    pv = p.values
    for axis in d.axes:
        t = _face_views(d, bc.tags)[axis]
        arr = out.component(axis)
        inner = _along(axis, slice(1, -1))
        lo, hi = _along(axis, slice(None, -1)), _along(axis, slice(1, None))
        it = t[inner]
        grad = np.zeros_like(it, dtype=np.float64)
        interior = it == FaceTag.INTERIOR
        grad[interior] = (pv[hi] - pv[lo])[interior] * inv_h
        diri = it == FaceTag.DIRICHLET
        diri_lo = diri & fl[lo] & ~fl[hi]
        diri_hi = diri & fl[hi] & ~fl[lo]
        grad[diri_lo] = (0.0 - pv[lo][diri_lo]) * inv_h
        grad[diri_hi] = (pv[hi][diri_hi] - 0.0) * inv_h
        arr[inner] -= grad
        for side in (0, -1):
            wall = _along(axis, side)
            m = (t[wall] == FaceTag.DIRICHLET) & fl[wall]
            sign = 1.0 if side == 0 else -1.0
            arr[wall][m] -= sign * pv[wall][m] * inv_h
    return out


def reference_direct_least_squares(cfg, tol, max_iters, quad=None):
    """direct_least_squares on per-axis divergence adjoint loops and the
    allocating operators of `quad` (GuidingQuadratic(cfg) when None)."""
    quad = quad if quad is not None else GuidingQuadratic(cfg)
    flags = cfg.flags
    d = flags.dims
    fluid = flags.fluid

    def apply_D(vel):
        return divergence(quad.mask(vel), flags).values

    def apply_Dt(cellvals):
        out = VelocityField.zeros(d)
        src = np.where(fluid, cellvals, 0.0) / d.h
        for axis in d.axes:
            arr = out.component(axis)
            arr[_along(axis, slice(1, None))] += src
            arr[_along(axis, slice(None, -1))] -= src
        return quad.mask(out)

    def normal_op(vel, out):
        out.set_flat((quad.apply_A(quad.apply_A(vel)) + apply_Dt(apply_D(vel))).as_flat())

    rhs = quad.apply_A(-1.0 * quad.b())
    x, _ = _cg_velocity(normal_op, rhs, tol, max_iters)
    return quad.keep_fixed(x, cfg.u_current)


# -- flag fields ---------------------------------------------------------------

def _dims(shape):
    return GridDims(*shape, 1.0 / 3.0)   # h with an inexact reciprocal


def closed(shape):
    return CellFlags.closed_box(_dims(shape))


def open_box(shape):
    return CellFlags.open_box(_dims(shape))


def with_obstacle(flags):
    v = flags.values
    v[2:4, 3:5] = SOLID
    return flags


def with_empty(flags):
    """A free surface: the upper part of the box EMPTY, plus an EMPTY
    pocket touching the obstacle and the domain walls."""
    v = flags.values
    v[:, -3:] = np.where(v[:, -3:] == SOLID, SOLID, EMPTY)
    v[0, 1:3] = EMPTY
    v[4, 3] = EMPTY
    return flags


def seeded(shape, seed):
    flags = CellFlags.open_box(_dims(shape))
    rng = np.random.default_rng(seed)
    flags.values[...] = rng.choice([FLUID, SOLID, EMPTY], size=flags.values.shape,
                                   p=[0.5, 0.25, 0.25])
    return flags


SHAPES = {"2d": (9, 8, 1), "3d": (7, 8, 6)}
FLAGS = {
    "closed": closed,
    "open": open_box,
    "closed-obstacle": lambda s: with_obstacle(closed(s)),
    "open-obstacle": lambda s: with_obstacle(open_box(s)),
    "closed-empty": lambda s: with_empty(with_obstacle(closed(s))),
    "open-empty": lambda s: with_empty(open_box(s)),
    "seeded": lambda s: seeded(s, 7),
}
CASES = [pytest.param(f, s, id=f"{name}-{dim}")
         for name, f in FLAGS.items() for dim, s in SHAPES.items()]


def assert_same_tags(got, ref):
    assert got.dims == ref.dims
    assert got.tags.dtype == ref.tags.dtype and got.tags.tobytes() == ref.tags.tobytes()


def assert_same_velocity(got, ref):
    for axis in range(3):
        assert got.component(axis).tobytes() == ref.component(axis).tobytes()


# -- the tests -----------------------------------------------------------------

@pytest.mark.parametrize("make, shape", CASES)
class TestBitwise:
    @pytest.mark.parametrize("solid_faces", [FaceTag.NEUMANN, FaceTag.DIRICHLET])
    def test_from_flags(self, make, shape, solid_faces):
        flags = make(shape)
        assert_same_tags(BcTable.from_flags(flags, solid_faces),
                         reference_from_flags(flags, solid_faces))

    def test_boundary_face_signs(self, make, shape):
        flags = make(shape)
        faces = BoundaryFaces(flags)
        ref = reference_signs(flags)
        sign = np.concatenate([s.ravel() for s in ref])
        assert np.array_equal(faces.index, np.flatnonzero(sign))
        assert faces.sign.tobytes() == sign[sign != 0].tobytes()
        assert len(faces) == sum(int((s != 0).sum()) for s in ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_classified_walls_table(self, make, shape, seed):
        flags = make(shape)
        faces = BoundaryFaces(flags)
        held = np.random.default_rng(seed).random(len(faces)) < 0.5
        state = wall_set(flags, faces, held)
        ref = reference_from_flags(flags, FaceTag.DIRICHLET)
        nsep = iter(held)
        for tags, sign in zip(_face_views(flags.dims, ref.tags), reference_signs(flags)):
            for face in zip(*np.nonzero(sign)):
                if next(nsep):
                    tags[face] = FaceTag.NEUMANN
        assert_same_tags(classified_walls_table(flags, state), ref)

    @pytest.mark.parametrize("solid_faces", [FaceTag.NEUMANN, FaceTag.DIRICHLET])
    def test_subtract_gradient_of_solver_pressure(self, make, shape, solid_faces):
        flags = make(shape)
        rng = np.random.default_rng(3)
        bc = BcTable.from_flags(flags, solid_faces)
        vel = random_velocity(flags.dims, rng)
        system = PoissonSystem(flags, bc)
        b = system.prepare_rhs(-divergence(vel, flags).values)
        p = ScalarField(flags.dims, system.cg(b, 1e-8, 10000)[0])
        assert_same_velocity(subtract_gradient(vel, p, flags, bc, vel.copy()),
                             reference_subtract_gradient(vel, p, flags, bc))

    def test_subtract_gradient_dirichlet_walls(self, make, shape):
        # an open boundary: every domain-wall face Dirichlet, so the ghost
        # beyond the wall drives the wall faces of FLUID cells
        flags = make(shape)
        rng = np.random.default_rng(4)
        bc = BcTable.from_flags(flags)
        for axis, tags in enumerate(_face_views(flags.dims, bc.tags)):
            for side in (0, -1):
                tags[_along(axis, side)] = FaceTag.DIRICHLET
        vel = random_velocity(flags.dims, rng)
        p = ScalarField(flags.dims, np.where(flags.fluid, rng.standard_normal(
            flags.dims.shape), 0.0))
        assert_same_velocity(subtract_gradient(vel, p, flags, bc, vel.copy()),
                             reference_subtract_gradient(vel, p, flags, bc))

    def test_face_masks_and_average(self, make, shape):
        flags = make(shape)
        s = ScalarField(flags.dims, np.random.default_rng(5).standard_normal(
            flags.dims.shape))
        for axis in range(3):
            got = (cell_to_face_average(s, axis), face_valid_mask(flags, axis),
                   fluid_adjacent_face_mask(flags, axis))
            ref = (reference_to_faces(s.values, axis, lambda a, b: 0.5 * (a + b)),
                   reference_to_faces(flags.values != SOLID, axis, np.logical_and),
                   reference_to_faces(flags.fluid, axis, np.logical_or))
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def contradicting_faces(flags, tags, axis):
    """Faces whose tag no flag field gives them: INTERIOR next to a
    non-FLUID cell or on a domain wall, DIRICHLET between two FLUID cells."""
    fl = flags.fluid
    lower = reference_to_faces(fl, axis, lambda a, b: a)
    upper = reference_to_faces(fl, axis, lambda a, b: b)
    wall = np.zeros(tags.shape, dtype=bool)
    wall[_along(axis, 0)] = wall[_along(axis, -1)] = True
    interior = tags == FaceTag.INTERIOR
    return ((interior & (wall | ~lower | ~upper))
            | ((tags == FaceTag.DIRICHLET) & ~wall & lower & upper))


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_hand_edited_table_changes_only_contradicting_faces(shape):
    # every face gets a random tag and p is nonzero on every cell; the
    # update may move only on the faces whose tag contradicts their cells
    flags = with_empty(with_obstacle(closed(shape)))
    rng = np.random.default_rng(6)
    tags = [rng.integers(0, 3, size=flags.dims.face_shape(a)).astype(np.uint8)
            for a in range(3)]
    bc = BcTable(flags.dims, _flat_faces(flags.dims, lambda a: tags[a]))
    vel = random_velocity(flags.dims, rng)
    p = ScalarField(flags.dims, rng.standard_normal(flags.dims.shape))
    got = subtract_gradient(vel, p, flags, bc, vel.copy())
    ref = reference_subtract_gradient(vel, p, flags, bc)
    moved = 0
    for axis in flags.dims.axes:
        g, r = got.component(axis), ref.component(axis)
        bad = contradicting_faces(flags, tags[axis], axis)
        assert g[~bad].tobytes() == r[~bad].tobytes()
        moved += int((g[bad] != r[bad]).sum())
    assert moved > 0   # the cases exist in this table


@pytest.mark.parametrize("shape", [(10, 9, 1), (6, 5, 5)], ids=["2d", "3d"])
def test_direct_least_squares(shape):
    d = _dims(shape)
    flags = with_empty(with_obstacle(CellFlags.closed_box(d)))
    rng = np.random.default_rng(8)
    cfg = GuidingConfig(
        flags=flags,
        weights=ScalarField(d, 1.0 + rng.random(d.shape)),
        radius=ScalarField(d, np.where(flags.solid, 0.0, 1.0)),
        u_target=random_velocity(d, rng), u_current=random_velocity(d, rng))
    got = direct_least_squares(cfg, tol=1e-6, max_iters=20000)
    assert_same_velocity(got, reference_direct_least_squares(cfg, 1e-6, 20000))
