"""VelocityField on one flat buffer, against the three-array class and the
per-axis bodies it replaced: field arithmetic, copies and reductions, the
guiding operators and the scene masks must agree bit for bit, and every
field the package makes keeps its active blocks in one buffer, which holds
nothing else."""

import copy
import math
import pickle

import numpy as np
import pytest

from pdfluids import scenes
from pdfluids.fields import (CellFlags, CellType, GridDims, ScalarField,
                             VelocityField, _check_dims, advect_semi_lagrangian,
                             cell_to_face_average, face_valid_mask,
                             fluid_adjacent_face_mask, upsample)
from pdfluids.fileio import read_grid, write_grid
from pdfluids.guiding import (GuidingConfig, GuidingPrecompute, GuidingProx,
                              GuidingQuadratic, guiding_objective)
from pdfluids.pressure import PoissonConvergenceError, _require_finite


# -- the replaced bodies, kept as test-time references -------------------------

class ReferenceVelocityField:
    """The three-array VelocityField: one array per face axis."""

    def __init__(self, dims, u, v, w):
        self.dims = dims
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)
        self.w = np.asarray(w, dtype=np.float64)

    def copy(self):
        return ReferenceVelocityField(self.dims, self.u.copy(), self.v.copy(),
                                      self.w.copy())

    def component(self, axis):
        return (self.u, self.v, self.w)[axis]

    def components(self):
        return [(a, self.component(a)) for a in self.dims.axes]

    @property
    def n_dof(self):
        return sum(arr.size for _, arr in self.components())

    def as_flat(self):
        return np.concatenate([arr.ravel() for _, arr in self.components()])

    def set_flat(self, vec):
        off = 0
        for _, arr in self.components():
            arr.ravel()[:] = vec[off:off + arr.size]
            off += arr.size
        if off != vec.size:
            raise ValueError("flat vector length does not match field")

    def dot(self, other):
        _check_dims(self, other)
        return float(sum(np.vdot(a, other.component(ax)) for ax, a in self.components()))

    def norm(self):
        return math.sqrt(max(self.dot(self), 0.0))

    def max_abs(self):
        return max(float(np.abs(arr).max()) for _, arr in self.components())

    def __add__(self, other):
        _check_dims(self, other)
        return ReferenceVelocityField(self.dims, self.u + other.u, self.v + other.v,
                                      self.w + other.w)

    def __sub__(self, other):
        _check_dims(self, other)
        return ReferenceVelocityField(self.dims, self.u - other.u, self.v - other.v,
                                      self.w - other.w)

    def __mul__(self, s):
        s = float(s)
        return ReferenceVelocityField(self.dims, self.u * s, self.v * s, self.w * s)

    __rmul__ = __mul__


class ReferenceQuadratic:
    """The per-axis `valid`, `w2` and `gamma` dicts of the guiding quadratic
    and the loop bodies of mask, keep_fixed, _wsq, the SMW prox and the
    objective; the blur itself is the package's."""

    def __init__(self, cfg):
        self.cfg = cfg
        d = cfg.flags.dims
        self.blur = GuidingQuadratic(cfg)
        self.valid = {a: face_valid_mask(cfg.flags, a) for a in d.axes}
        self.w2 = {a: np.square(cell_to_face_average(cfg.weights, a))
                   for a in d.axes}

    def mask(self, vel):
        out = vel.copy()
        for a, arr in out.components():
            arr[~self.valid[a]] = 0.0
        return out

    def keep_fixed(self, out, v):
        for a, arr in out.components():
            inv = ~self.valid[a]
            arr[inv] = v.component(a)[inv]
        return out

    def _wsq(self, vel):
        out = vel.copy()
        for a, arr in out.components():
            arr *= self.w2[a]
            arr[~self.valid[a]] = 0.0
        return out

    def apply_BtB(self, vel):
        return self.mask(self.blur.apply_Bt(self.blur.apply_B(self.mask(vel))))

    def apply_A(self, vel):
        return 2.0 * (self.apply_BtB(vel) + self._wsq(vel))

    def apply_M(self, sigma, vel):
        masked = self.mask(vel)
        return self.apply_A(masked) + sigma * masked

    def b(self):
        return -2.0 * (self.apply_BtB(self.cfg.u_target) + self._wsq(self.cfg.u_current))

    def q(self, sigma):
        return 2.0 * self.apply_BtB(self.cfg.u_target - self.cfg.u_current) \
            - sigma * self.mask(self.cfg.u_current)

    def gamma_diag(self, sigma):
        return {a: 1.0 / (2.0 * self.w2[a] + sigma) for a in self.w2}

    def prox(self, sigma, v):
        q, gamma = self.q(sigma), self.gamma_diag(sigma)
        s = sigma * self.mask(v) + q
        g1 = s.copy()
        g2 = s.copy()
        for a, arr in g1.components():
            arr *= gamma[a]
        for a, arr in g2.components():
            arr *= np.square(gamma[a])
        out = self.mask(self.cfg.u_current) + g1 - 2.0 * self.apply_BtB(g2)
        return self.keep_fixed(out, v)

    def objective(self, x):
        bt = self.blur.apply_B(self.mask(x - self.cfg.u_target))
        total = 0.0
        for a, arr in bt.components():
            total += float(np.sum(np.square(arr[self.valid[a]])))
        diff = x - self.cfg.u_current
        for a, arr in diff.components():
            total += float(np.sum(self.w2[a][self.valid[a]]
                                  * np.square(arr[self.valid[a]])))
        return total


def reference_require_finite(vel):
    if not all(np.isfinite(arr).all() for _, arr in vel.components()):
        raise PoissonConvergenceError(0, math.nan)


def reference_zero_solid_faces(vel, flags):
    for axis, arr in vel.components():
        arr[~face_valid_mask(flags, axis)] = 0.0


def reference_liquid_begin_step(state):
    state.flags = scenes.flags_from_particles(state)
    vel = scenes.particles_to_grid(
        state, scenes._face_stencils(state.flags.dims, state.particles_pos.T))
    for axis, arr in vel.components():
        arr[~fluid_adjacent_face_mask(state.flags, axis)] = 0.0
    vel_old = vel.copy()
    m = fluid_adjacent_face_mask(state.flags, 1)
    vel.v[m] -= state.spec.gravity * state.dt
    return vel, vel_old


# -- cases ---------------------------------------------------------------------

def obstacle_flags(dims):
    """Closed box with an off-center SOLID block and one EMPTY cell."""
    flags = CellFlags.closed_box(dims)
    flags.values[3:5, 2:4, dims.nz // 2] = CellType.SOLID
    flags.values[-3, -3, dims.nz // 2] = CellType.EMPTY
    return flags


CASES = {"2d": GridDims(11, 8, 1, 1.0 / 11), "3d": GridDims(7, 6, 5, 1.0 / 7)}


def filled(dims, rng, special=True):
    """A field with random values on every active block; with `special`,
    some entries are -0.0 and some NaN in every one."""
    vel = VelocityField.zeros(dims)
    for _, arr in vel.components():
        flat = arr.reshape(-1)
        flat[:] = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-3, 4, flat.size)
        if special:
            pick = rng.choice(flat.size, 6, replace=False)
            flat[pick[:3]] = -0.0
            flat[pick[3:]] = np.nan
    return vel


def as_reference(vel):
    return ReferenceVelocityField(vel.dims, vel.u.copy(), vel.v.copy(), vel.w.copy())


def same_bits(a, b):
    """Bit for bit on the active blocks; a 2D w is zero in both (the three
    arrays' w * s is -0.0 at s < 0, the package's 2D w always +0.0)."""
    if a.dims.is_2d and (a.w.any() or b.w.any()):
        return False
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for (_, x), (_, y) in zip(a.components(), b.components()))


def same_float(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def guiding_case(dims, rng):
    flags = obstacle_flags(dims)
    radius = rng.uniform(0.0, 1.5, dims.shape)
    radius[flags.solid] = 0.0
    cfg = GuidingConfig(flags=flags,
                        weights=ScalarField(dims, rng.uniform(0.5, 4.0, dims.shape)),
                        radius=ScalarField(dims, radius),
                        u_target=filled(dims, rng, special=False),
                        u_current=filled(dims, rng, special=False))
    return flags, cfg


def active_flat(ref_dict, dims):
    """A per-axis dict of the reference laid out as one flat vector."""
    return np.concatenate([ref_dict[a].ravel() for a in dims.axes])


# -- bitwise agreement with the three-array class ------------------------------

@pytest.mark.parametrize("case", CASES)
class TestMatchesThreeArrays:
    def test_arithmetic_and_copy(self, case, rng):
        d = CASES[case]
        a, b = filled(d, rng), filled(d, rng)
        ra, rb = as_reference(a), as_reference(b)
        assert same_bits(a + b, ra + rb)
        assert same_bits(a - b, ra - rb)
        assert same_bits(a * 1.7, ra * 1.7)
        assert same_bits(-0.3 * b, -0.3 * rb)
        assert same_bits(a * 0.0, ra * 0.0)
        assert same_bits(a.copy(), ra.copy())
        assert same_bits(a, ra) and same_bits(b, rb)

    def test_reductions(self, case, rng):
        d = CASES[case]
        a, b = filled(d, rng, special=False), filled(d, rng, special=False)
        a.u[1, 1, 0] = a.v[2, 1, 0] = -0.0
        ra, rb = as_reference(a), as_reference(b)
        assert same_float(a.dot(b), ra.dot(rb))
        assert same_float(a.norm(), ra.norm())
        assert same_float(a.max_abs(), ra.max_abs())
        assert a.n_dof == ra.n_dof

    def test_flat_round_trip(self, case, rng):
        d = CASES[case]
        a = filled(d, rng)
        ra = as_reference(a)
        assert a.as_flat().tobytes() == ra.as_flat().tobytes()
        vec = filled(d, rng).as_flat().copy()
        a.set_flat(vec)
        ra.set_flat(vec)
        assert same_bits(a, ra)
        with pytest.raises(ValueError):
            a.set_flat(vec[:-1])

    def test_finiteness_checks(self, case, rng):
        d = CASES[case]
        vel = filled(d, rng, special=False)
        for axis in d.axes:
            bad = vel.copy()
            bad.component(axis)[-1, -1, -1] = np.inf
            for check in (bad.validate_finite, lambda: _require_finite(bad),
                          lambda: reference_require_finite(as_reference(bad))):
                with pytest.raises((ValueError, PoissonConvergenceError)):
                    check()

    def test_max_abs_sees_a_nan_on_any_active_block(self, case, rng):
        # the three-array class returned the u maximum when only v or w had
        # a NaN; one reduction over the active faces returns NaN
        d = CASES[case]
        for axis in d.axes:
            vel = filled(d, rng, special=False)
            vel.component(axis)[1, 1, 0] = np.nan
            assert math.isnan(vel.max_abs())


@pytest.mark.parametrize("case", CASES)
class TestGuidingMatchesPerAxisBodies:
    def test_flat_tables(self, case, rng):
        d = CASES[case]
        _, cfg = guiding_case(d, rng)
        quad, ref = GuidingQuadratic(cfg), ReferenceQuadratic(cfg)
        assert quad.valid.tobytes() == active_flat(ref.valid, d).tobytes()
        assert quad.w2.tobytes() == active_flat(ref.w2, d).tobytes()
        pre = GuidingPrecompute.build(quad, 2.3)
        assert pre.gamma.tobytes() == active_flat(ref.gamma_diag(2.3), d).tobytes()
        assert same_bits(pre.q, ref.q(2.3))

    def test_masks_keep_special_values(self, case, rng):
        d = CASES[case]
        _, cfg = guiding_case(d, rng)
        quad, ref = GuidingQuadratic(cfg), ReferenceQuadratic(cfg)
        v = filled(d, rng)
        # negative values, -0.0 and NaN on faces outside the objective
        fixed = ~quad.valid
        v.as_flat()[fixed] = np.where(np.arange(fixed.sum()) % 3 == 0, np.nan,
                                      np.where(np.arange(fixed.sum()) % 3 == 1, -0.0, -2.5))
        assert same_bits(quad.mask(v), ref.mask(v))
        assert same_bits(quad._wsq(v), ref._wsq(v))
        out = filled(d, rng)
        assert same_bits(quad.keep_fixed(out.copy(), v), ref.keep_fixed(out.copy(), v))

    def test_operators(self, case, rng):
        d = CASES[case]
        _, cfg = guiding_case(d, rng)
        quad, ref = GuidingQuadratic(cfg), ReferenceQuadratic(cfg)
        v = filled(d, rng, special=False)
        v.as_flat()[::7] = -0.0
        assert same_bits(quad.apply_BtB(v), ref.apply_BtB(v))
        assert same_bits(quad.apply_A(v), ref.apply_A(v))
        assert same_bits(quad.apply_M(1.9, v), ref.apply_M(1.9, v))
        assert same_bits(quad.b(), ref.b())

    def test_prox(self, case, rng):
        d = CASES[case]
        _, cfg = guiding_case(d, rng)
        ref = ReferenceQuadratic(cfg)
        prox = GuidingProx(cfg)
        v = filled(d, rng)
        v.as_flat()[prox.quad.valid] = np.nan_to_num(v.as_flat()[prox.quad.valid])
        for sigma in (3.1, 3.1, 0.7):   # the cached precompute, then a rebuild
            got = prox(sigma, v)
            # a 2D result's w is zero
            assert got.as_flat().tobytes() == ref.prox(sigma, v).as_flat().tobytes()
            if d.is_2d:
                assert got.w.tobytes() == np.zeros_like(got.w).tobytes()

    def test_objective(self, case, rng):
        # one sum over all objective faces instead of one per axis: the
        # value may differ from the per-axis sums only in rounding
        d = CASES[case]
        _, cfg = guiding_case(d, rng)
        ref = ReferenceQuadratic(cfg)
        x = filled(d, rng, special=False)
        assert guiding_objective(x, cfg) == pytest.approx(ref.objective(x),
                                                          rel=1e-14, abs=0.0)


@pytest.mark.parametrize("case", CASES)
def test_zero_solid_faces_matches_reference(case, rng):
    d = CASES[case]
    flags = obstacle_flags(d)
    vel = filled(d, rng)
    want = vel.copy()
    reference_zero_solid_faces(want, flags)
    scenes._zero_solid_faces(vel, flags)
    assert same_bits(vel, want)


@pytest.mark.parametrize("nz", [1, 6])
def test_liquid_begin_step_matches_reference(nz):
    spec = scenes.SceneSpec("dam", nx=12, ny=10, nz=nz, fill_fraction=0.5, seed=3)
    state, _ = scenes.build_scene(spec)
    state.particles_vel[:] = np.random.default_rng(5).standard_normal(
        state.particles_vel.shape)
    vel, vel_old, _ = scenes.liquid_begin_step(state)
    want, want_old = reference_liquid_begin_step(state)
    assert same_bits(vel, want) and same_bits(vel_old, want_old)


# -- the one-buffer layout -----------------------------------------------------

def assert_one_buffer(vel):
    """The active blocks (u, v, and w in 3D) follow each other in one
    C-contiguous buffer, n_dof doubles long and nothing else, which as_flat()
    is; a 2D w is the grid's one read-only zero array."""
    d = vel.dims
    u, v, w, flat = vel.u, vel.v, vel.w, vel.as_flat()
    for arr in (u, v, w, flat):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
    assert u.flags.writeable and v.flags.writeable and flat.flags.writeable
    assert w.flags.writeable != d.is_2d
    assert v.ctypes.data == u.ctypes.data + u.nbytes
    if d.is_2d:
        assert w is d._zero_w and not w.any() and w.shape == d.face_shape(2)
    else:
        assert w.ctypes.data == v.ctypes.data + v.nbytes
    assert flat is vel._buf and flat.ctypes.data == u.ctypes.data
    assert flat.size == vel.n_dof and flat.nbytes == 8 * vel.n_dof
    assert vel.n_dof == sum(math.prod(d.face_shape(a)) for a in d.axes)
    assert np.shares_memory(flat, u) and np.shares_memory(flat, v)
    assert np.shares_memory(flat, w) == (not d.is_2d)
    flat[-1] = 12.5
    assert vel.component(d.axes[-1]).reshape(-1)[-1] == 12.5


@pytest.mark.parametrize("case", CASES)
def test_every_field_keeps_one_buffer(case, rng, tmp_path):
    d = CASES[case]
    a, b = filled(d, rng), filled(d, rng)
    write_grid(tmp_path / "v.grid", a)
    made = {
        "zeros": VelocityField.zeros(d), "copy": a.copy(), "add": a + b,
        "sub": a - b, "mul": a * 2.0, "rmul": 2.0 * a,
        "read_grid": read_grid(tmp_path / "v.grid"),
        "constructor": VelocityField(d, a.u, a.v, a.w),
        "upsample": upsample(a, 2),
        "advect": advect_semi_lagrangian(b, filled(d, rng, special=False) * 0.0,
                                         0.1, CellFlags.closed_box(d)),
    }
    assert same_bits(made["read_grid"], a)
    for vel in made.values():
        assert_one_buffer(vel)


@pytest.mark.parametrize("case", CASES)
def test_pickle_keeps_one_buffer(case, rng):
    # unpickled, the views lie on one buffer again: a write through u reaches
    # as_flat, and a 2D w is the new grid's read-only zeros
    d = CASES[case]
    a = filled(d, rng)
    a.dims._face_cells   # a cached table, which the pickle leaves out
    b = pickle.loads(pickle.dumps(a))
    assert b.dims == d and same_bits(b, a)
    assert_one_buffer(b)
    b.u[...] = 5.0
    assert (b.as_flat()[:b.u.size] == 5.0).all()
    assert copy.deepcopy(a).dims is d   # a deep copy shares the grid


def test_constructor_copies_its_arrays():
    d = CASES["2d"]
    u, v, w = (np.zeros(d.face_shape(a)) for a in range(3))
    vel = VelocityField(d, u, v, w)
    u[...] = v[...] = w[...] = 1.0
    assert vel.max_abs() == 0.0 and not vel.w.any()
    for arr in (u, v, w):
        assert not np.shares_memory(arr, vel.as_flat()) and not np.shares_memory(arr, vel.w)
    vel.u[...] = 2.0
    assert (u == 1.0).all()


@pytest.mark.parametrize("case", CASES)
def test_a_2d_w_is_read_only_zeros(case, rng):
    d = CASES[case]
    a, b = filled(d, rng), VelocityField.zeros(d)
    if not d.is_2d:
        a.w[...] = 1.0   # a live 3D block, in the buffer
        assert (a.as_flat()[-a.w.size:] == 1.0).all() and not np.shares_memory(a.w, b.w)
        return
    assert a.w is b.w is d._zero_w   # one array per grid
    with pytest.raises(ValueError, match="read-only"):
        a.w[0, 0, 0] = 1.0
    assert not a.w.any()


@pytest.mark.parametrize("bad", [1.0, -2.5, np.nan, np.inf])
def test_constructor_refuses_a_nonzero_2d_w(bad):
    d = CASES["2d"]
    u, v, w = (np.zeros(d.face_shape(a)) for a in range(3))
    w[1, 2, 1] = bad
    with pytest.raises(ValueError, match="z block"):
        VelocityField(d, u, v, w)
    w[1, 2, 1] = -0.0
    assert VelocityField(d, u, v, w).w is d._zero_w
