import numpy as np
import pytest

from pdfluids.fields import (CellFlags, GridDims, ScalarField, VelocityField, _face_stencils,
                             _padded_faces, _read)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_velocity(dims, rng, scale=1.0, zero_wall_normals=False):
    vel = VelocityField.zeros(dims)
    for _, arr in vel.components():
        arr[...] = rng.standard_normal(arr.shape) * scale
    if zero_wall_normals:
        vel.u[0, :, :] = vel.u[-1, :, :] = 0.0
        vel.v[:, 0, :] = vel.v[:, -1, :] = 0.0
        if not dims.is_2d:
            vel.w[:, :, 0] = vel.w[:, :, -1] = 0.0
    return vel


def sample_velocity(vel, point):
    """Velocity vector at a physical point (clamped to the domain)."""
    p = np.zeros(3)
    p[:len(point)] = point
    return np.array(_read(_padded_faces(vel), _face_stencils(vel.dims, p)))


def zero_solid_adjacent(vel, flags):
    """Zero every face value adjacent to a SOLID cell."""
    from pdfluids.fields import face_valid_mask
    for axis, arr in vel.components():
        arr[~face_valid_mask(flags, axis)] = 0.0
    return vel


def wall_set(flags, faces, held):
    """The BcState of flags whose set is the faces of the BoundaryFaces
    `faces` where `held` (one bool per face) is True."""
    from pdfluids.separating import BcState
    state = BcState.initial(flags)
    state.nsep[faces.index] = held
    return state


def dense_divergence_matrix(dims, flags):
    """Row per cell (C-order over dims.shape), column per active-face DOF.

    The column layout matches VelocityField.as_flat().
    """
    probe = VelocityField.zeros(dims)
    n = probe.as_flat().size
    from pdfluids.fields import divergence
    rows = dims.cell_count
    mat = np.zeros((rows, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        probe.set_flat(e)
        mat[:, col] = divergence(probe, flags).values.ravel()
    return mat
