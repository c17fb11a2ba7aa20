"""Pressure Poisson solves and the divergence-free projection.

The linear system is the 5/7-point Laplacian assembled matrix-free from the
cell flags and a per-face boundary table: Neumann faces drop out of the
stencil (the face velocity is kept), Dirichlet faces use a ghost pressure of
zero (free surface).  Conjugate gradients solve the SPD form; all-Neumann
systems get their right-hand side mean-subtracted for compatibility.  One
private loop, _pcg, is every CG of the package: this solve and the
velocity-space CG of the guiding paths.

Every grid, the system's own and each multigrid level, stores its stencil
flat: the diagonal and, per axis a, one coefficient array over the
flattened cells that couples cell c to cell c + stride_a, zero where that
neighbour wraps to the next row.  Each half of a matvec update is then one
contiguous multiply and subtract into preallocated scratch, and one routine
serves every grid.  DivergenceProjector reuses one cached PoissonSystem
while the flags and the boundary table stay equal by content.

The preconditioner is one symmetric V-cycle of an aggregation multigrid
(MGPCG, McAdams, Sifakis & Teran, SCA 2010; the unsmoothed-aggregation
coarse operator of Notay, ETNA 2010), built once per PoissonSystem from its
own stencil: cells paired 2x along every active axis, the Galerkin coarse
operator of the piecewise-constant prolongation, one damped-Jacobi sweep
(omega 2/3) before and after a coarse correction scaled by 1.6, and a dense
pseudo-inverse on the coarsest grid (at most 64 active cells).  These are
constants, not settings: with them the cycle is SPD for every boundary
table and the CG iteration count stays flat in the grid width (11, 12 and
14 iterations on a closed 64^2, 128^2 and 256^2 box at eps 1e-5), so there
is nothing left for a caller to tune.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .fields import (CellFlags, CellType, GridDims, ScalarField, VelocityField,
                     _along, _check_dims, divergence, fluid_adjacent_face_mask)


class FaceTag(IntEnum):
    INTERIOR = 0   # fluid-fluid, coupled in the stencil
    NEUMANN = 1    # zero pressure gradient, face velocity fixed
    DIRICHLET = 2  # ghost pressure 0, face velocity updated


class PoissonConvergenceError(RuntimeError):
    """CG ran out of iterations, broke down or met a non-finite value (in
    the velocity, the rhs or the residual); carries the iterations reached
    and the last relative residual.  The one CG-failure type: the pressure
    solve and the velocity-space CG of the guiding paths both raise it."""

    def __init__(self, iterations: int, residual: float, solver: str = "pressure"):
        what = ("did not converge" if math.isfinite(residual)
                else "met a non-finite value")
        super().__init__(f"{solver} CG {what} in {iterations} "
                         f"iterations (last relative residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class BcTable:
    """Per-face boundary tags derived from the cell flags.

    Faces between two FLUID cells are INTERIOR.  Fluid-solid faces default
    to NEUMANN, fluid-empty faces to DIRICHLET (free surface), and domain
    wall faces of fluid cells to NEUMANN; all defaults can be overridden.
    """

    def __init__(self, dims: GridDims, tags: tuple[np.ndarray, np.ndarray, np.ndarray]):
        self.dims = dims
        self.tags = tags

    @classmethod
    def from_flags(cls, flags: CellFlags, solid_faces: FaceTag = FaceTag.NEUMANN,
                   wall_faces: FaceTag = FaceTag.NEUMANN) -> "BcTable":
        d = flags.dims
        v = flags.values
        tags = []
        for axis in range(3):
            t = np.full(d.face_shape(axis), FaceTag.NEUMANN, dtype=np.uint8)
            a = v[_along(axis, slice(None, -1))]
            b = v[_along(axis, slice(1, None))]
            it = t[_along(axis, slice(1, -1))]
            both_fluid = (a == CellType.FLUID) & (b == CellType.FLUID)
            fl_solid = ((a == CellType.FLUID) & (b == CellType.SOLID)) | \
                       ((a == CellType.SOLID) & (b == CellType.FLUID))
            fl_empty = ((a == CellType.FLUID) & (b == CellType.EMPTY)) | \
                       ((a == CellType.EMPTY) & (b == CellType.FLUID))
            it[both_fluid] = FaceTag.INTERIOR
            it[fl_solid] = solid_faces
            it[fl_empty] = FaceTag.DIRICHLET
            for side in (0, -1):
                t[_along(axis, side)] = np.where(
                    v[_along(axis, side)] == CellType.FLUID,
                    np.uint8(wall_faces), np.uint8(FaceTag.NEUMANN))
            tags.append(t)
        return cls(d, tuple(tags))

    def set_face(self, axis: int, index: tuple[int, int, int], tag: FaceTag):
        self.tags[axis][index] = np.uint8(tag)


@dataclass
class CgConfig:
    """Residual tolerances of the pressure solver."""

    eps_start: float = 1e-2
    eps_final: float = 1e-5
    max_cg_iters: int = 10000

    def __post_init__(self):
        if not (0 < self.eps_final <= self.eps_start):
            raise ValueError("need 0 < eps_final <= eps_start")


class PoissonSystem:
    """Matrix-free SPD Laplacian for a given flag field and boundary table."""

    def __init__(self, flags: CellFlags, bc: BcTable):
        if flags.dims != bc.dims:
            raise ValueError("dimension mismatch between flags and bc table")
        d = flags.dims
        self.dims = d
        self.fluid = flags.fluid
        inv_h2 = 1.0 / (d.h * d.h)
        count = np.zeros(d.shape)   # non-Neumann faces of each cell
        has_dirichlet = False
        for axis in d.axes:
            t = bc.tags[axis]
            for cells in (slice(None, -1), slice(1, None)):
                count += (t[_along(axis, cells)] != FaceTag.NEUMANN).astype(np.float64)
            if (t[fluid_adjacent_face_mask(flags, axis)] == FaceTag.DIRICHLET).any():
                has_dirichlet = True
        count[~self.fluid] = 0.0
        self.diag = count * inv_h2
        self.has_dirichlet = has_dirichlet
        self.active = self.fluid & (count > 0)
        self._inactive = ~self.active
        # 1.0 where an INTERIOR face couples a cell to its high neighbour,
        # both active (cell-shaped, 0 in the last slab along the axis)
        interior = []
        for axis in d.axes:
            c = bc.tags[axis][_along(axis, slice(1, None))] == FaceTag.INTERIOR
            c &= self.active
            c[_along(axis, slice(None, -1))] &= self.active[_along(axis, slice(1, None))]
            c[_along(axis, -1)] = False
            interior.append(c.astype(np.float64))
        self._stencil = _flat_stencil(interior, d.axes, inv_h2)
        self._tmp = np.empty(d.cell_count)
        # without a Dirichlet face the rhs is made compatible per component
        self._components = None if has_dirichlet else _components(
            self.active, self._stencil)
        self._multigrid = _Multigrid(self, count, interior, inv_h2)

    def apply(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A p, written into `out` (C-contiguous) when given; rows of
        inactive cells are 0."""
        if out is None:
            out = np.empty_like(self.diag)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        _stencil_apply(self.diag.reshape(-1), self._stencil, p.reshape(-1),
                       out.reshape(-1), self._tmp)
        np.copyto(out, 0.0, where=self._inactive)
        return out

    def prepare_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Mask to active cells; when no Dirichlet face exists, subtract the
        mean of each connected component of the active cells."""
        b = np.where(self.active, rhs, 0.0)
        flat = b.reshape(-1)
        for cells in self._components or ():
            v = flat[cells]
            flat[cells] = v - v.mean()
        return b

    def _precondition(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = M r: one V-cycle of the aggregation multigrid; r and out are
        zero off the active cells."""
        return self._multigrid.cycle(0, r, out)

    def cg(self, b: np.ndarray, eps: float, max_iters: int,
           inf_tol: float | None = None):
        """Multigrid-preconditioned CG on A x = b, run by _pcg: stops when
        ||r||_2 <= eps * max(||b||_2, 1) and, if inf_tol is given,
        additionally max|r_i| <= inf_tol.  Returns (x, iterations); raises
        PoissonConvergenceError as _pcg does.  apply and _precondition are
        looked up per call, so a wrapper installed on them sees every one.
        """
        return _pcg(self.apply, b, eps, 1.0, max_iters, self._precondition,
                    inf_tol=inf_tol)


def _pcg(apply, b: np.ndarray, tol: float, floor: float, max_iters: int,
         precondition=None, inf_tol: float | None = None,
         solver: str = "pressure"):
    """The one CG loop: preconditioned CG on A x = b for an SPD `apply(d,
    out)`, with the optional preconditioner `precondition(r, out)` (z is r
    without one).  b is a C-contiguous array of any shape; x, r, z, d and
    A d keep its shape and are updated in place.

    Stops when ||r||_2 <= tol * max(||b||_2, floor) and, if inf_tol is
    given, additionally max|r_i| <= inf_tol.  Returns (x, iterations).
    Raises PoissonConvergenceError, labelled `solver`, on a non-finite rhs,
    residual or d.A d, on a breakdown and when max_iters is used up; the
    reported residual is ||r||_2 / max(||b||_2, floor).
    """
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if not math.isfinite(bnorm):
        raise PoissonConvergenceError(0, bnorm, solver)
    if bnorm == 0.0:
        return x, 0
    scale = max(bnorm, floor)
    target = tol * scale
    r = b.copy()
    r_flat = r.reshape(-1)
    z = np.empty_like(b) if precondition is not None else r
    ad = np.empty_like(b)
    tmp = np.empty_like(b)

    def done():
        rn = math.sqrt(float(r_flat.dot(r_flat)))
        if not math.isfinite(rn):
            raise PoissonConvergenceError(it, rn, solver)
        if rn > target:
            return False, rn
        if inf_tol is not None and float(np.abs(r).max()) > inf_tol:
            return False, rn
        return True, rn

    it = 0
    ok, rnorm = done()
    if ok:
        return x, 0
    if precondition is not None:
        precondition(r, z)
    d = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, max_iters + 1):
        apply(d, ad)
        dad = float(np.vdot(d, ad))
        if not math.isfinite(dad):
            raise PoissonConvergenceError(it, math.nan, solver)
        if dad <= 0.0:
            break
        alpha = rz / dad
        x += np.multiply(alpha, d, out=tmp)
        r -= np.multiply(alpha, ad, out=tmp)
        ok, rnorm = done()
        if ok:
            return x, it
        if precondition is not None:
            precondition(r, z)
        rz_new = float(np.vdot(r, z))
        d *= rz_new / rz
        d += z
        rz = rz_new
    raise PoissonConvergenceError(it, rnorm / scale, solver)


def _components(active, stencil) -> list[np.ndarray]:
    """Flat indices (ascending) of each set of active cells that the
    stencil's couplings connect: min-label hooking with pointer jumping,
    which settles in a few rounds on grid graphs."""
    i = [np.flatnonzero(conn > 0) for _, conn in stencil]
    j = np.concatenate([c + s for (s, _), c in zip(stencil, i)])
    i = np.concatenate(i)
    parent = np.arange(active.size)
    while True:
        a, b = parent[i], parent[j]
        split = a != b
        if not split.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while True:   # point every cell at its root; parent[x] <= x, so no cycles
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    cells = np.flatnonzero(active)
    roots = parent[cells]
    order = np.argsort(roots, kind="stable")
    bounds = np.flatnonzero(np.diff(roots[order])) + 1
    return np.split(cells[order], bounds) if cells.size else []


# -- the aggregation multigrid preconditioner ----------------------------------
#
# Fixed constants, not settings: the cycle is SPD for any of them in range
# (2/omega above the largest eigenvalue of D^-1 A, which is at most 2 for
# these diagonally dominant stencils; any positive coarse scale), and the
# values below keep the closed-box iteration count flat from 64^2 to 256^2.
_OMEGA = 2.0 / 3.0     # damped-Jacobi weight of the pre- and post-sweep
_COARSE_SCALE = 1.6    # over-correction that offsets the piecewise-constant P
_DENSE_CELLS = 64      # coarsen until at most this many active cells remain


def _flat_stencil(conns, axes, inv_h2):
    """[(stride, conn)] of the flattened grid: axis a couples flat cells c
    and c + stride_a with conn[c], read from the cell-shaped face counts
    `conns` (0 in the last slab along a, so also where c + stride_a wraps
    to the next row)."""
    stencil = []
    for a, c in zip(axes, conns):
        s = math.prod(c.shape[a + 1:])
        f = (c * inv_h2).reshape(-1)
        stencil.append((s, f[:f.size - s]))
    return stencil


def _stencil_apply(diag, stencil, p, out, tmp):
    """out = A p for the Laplacian (diag, stencil) on flat arrays; tmp is
    scratch of the same size.  Rows of inactive cells are whatever the
    zero coefficients make of p, so 0 where p is 0 off the active cells."""
    np.multiply(diag, p, out=out)
    for s, conn in stencil:
        n = conn.size
        t = tmp[:n]
        out[:n] -= np.multiply(conn, p[s:], out=t)
        out[s:] -= np.multiply(conn, p[:n], out=t)
    return out


@functools.cache
def _pair_slices(axis: int, n: int):
    """Index tuples along `axis` (length n) of the first and of the second
    cell of each pair (2i, 2i+1), and of the n // 2 full pairs."""
    return (_along(axis, slice(0, None, 2)), _along(axis, slice(1, None, 2)),
            _along(axis, slice(0, n // 2)))


def _pair_sum(a, axes):
    """Sum of each cell pair (2i, 2i+1) along every axis in `axes`; an odd
    last cell forms a pair on its own."""
    for ax in axes:
        first, second, full = _pair_slices(ax, a.shape[ax])
        s = a[first].copy()
        s[full] += a[second]
        a = s
    return a


def _galerkin(count, conns, axes, agg):
    """Coarse P^T A P of the piecewise-constant P over the pair aggregates
    along `agg`, in face counts: coarse conn = the couplings that cross
    between two aggregates, coarse diag = the children's diags minus twice
    the couplings inside the aggregate.  Each conn is cell-shaped (the
    coupling to the high neighbour, 0 in the last slab), at both grids."""
    diag = _pair_sum(count, agg)
    coarse = []
    for axis, conn in zip(axes, conns):
        if axis not in agg:
            coarse.append(_pair_sum(conn, agg))
            continue
        rest = tuple(a for a in agg if a != axis)
        # pairs (2i, 2i+1) lie inside an aggregate (the zero last slab in
        # an odd last pair), pairs (2i+1, 2i+2) cross to the next one
        diag -= 2.0 * _pair_sum(conn[_along(axis, slice(0, None, 2))], rest)
        cross = _pair_sum(conn[_along(axis, slice(1, None, 2))], rest)
        if cross.shape[axis] < diag.shape[axis]:   # odd length: the last slab
            cross = np.concatenate((cross, np.zeros_like(cross[_along(axis, slice(0, 1))])),
                                   axis)
        coarse.append(cross)
    return diag, coarse


class _Level:
    """One smoothed grid of the V-cycle and its link to the next coarser one;
    diag, stencil and the scratch are flat, the masks cell-shaped."""

    def __init__(self, diag, stencil, inactive, agg, coarse_inactive):
        self.shape = inactive.shape
        self.diag = diag
        self.stencil = stencil
        self.inactive = inactive
        with np.errstate(divide="ignore"):
            self.wdinv = np.where(inactive.reshape(-1), 0.0, _OMEGA / diag)
        self.agg = agg                           # the axes paired into the next grid
        self.cut = [_along(a, slice(0, self.shape[a])) for a in agg]   # drops an odd pad
        self.t = np.empty_like(diag)             # residual
        self.tmp = np.empty_like(diag)           # matvec scratch
        self.coarse_inactive = coarse_inactive   # the next grid's inactive cells
        self.coarse_x = np.empty(coarse_inactive.shape)   # the next grid's correction


class _Multigrid:
    """Symmetric V-cycle M ~ A^-1 on the active cells of a PoissonSystem.

    Level 0 is the system's own stencil.  Each coarser grid pairs the cells
    (2i, 2i+1) along every active axis longer than two cells and carries
    the Galerkin operator of the piecewise-constant prolongation, so the
    INTERIOR/NEUMANN/DIRICHLET faces hold at every level without coarse
    flags.  A coarse cell is active when its diagonal is nonzero, which
    the face counts decide exactly.  Every level smooths with one damped
    Jacobi sweep before and one after the scaled coarse correction; the
    coarsest grid (at most _DENSE_CELLS active cells, or no axis longer
    than two) applies the dense pseudo-inverse, which also covers the
    singular all-Neumann case.  Restriction and prolongation skip inactive
    cells, so M is symmetric and positive definite on the active cells and
    its output is zero elsewhere.  Every level couples active cells only,
    so the smoother's matvecs keep zero rows off the active cells without
    masking.
    """

    def __init__(self, system: PoissonSystem, count, conns, inv_h2):
        axes = system.dims.axes
        active = system.active
        diag, stencil, inactive = system.diag.reshape(-1), system._stencil, system._inactive
        self.levels = []
        while int(active.sum()) > _DENSE_CELLS:
            agg = tuple(a for a in axes if count.shape[a] > 2)
            if not agg:
                break
            count, conns = _galerkin(count, conns, axes, agg)
            active = count > 0
            level = _Level(diag, stencil, inactive, agg, ~active)
            self.levels.append(level)
            diag, inactive = (count * inv_h2).reshape(-1), level.coarse_inactive
            stencil = _flat_stencil(conns, axes, inv_h2)
        # the coarsest grid: dense matrix over its active cells, from the stencil
        self.cells = np.flatnonzero(active)
        index = np.full(count.size, -1)
        index[self.cells] = np.arange(self.cells.size)
        mat = np.diag(count.reshape(-1)[self.cells])
        for s, c in _flat_stencil(conns, axes, 1.0):
            m = c > 0
            i = index[:c.size][m]
            j = index[s:][m]
            mat[i, j] -= c[m]
            mat[j, i] -= c[m]
        self.dense = np.linalg.pinv(mat * inv_h2, hermitian=True)

    def cycle(self, k: int, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x = M_k r on level k; r and x are C-contiguous and zero on the
        level's inactive cells."""
        if k == len(self.levels):
            x.fill(0.0)
            x.reshape(-1)[self.cells] = self.dense @ r.reshape(-1)[self.cells]
            return x
        lv = self.levels[k]
        rf, xf, t = r.reshape(-1), x.reshape(-1), lv.t
        np.multiply(lv.wdinv, rf, out=xf)
        np.subtract(rf, _stencil_apply(lv.diag, lv.stencil, xf, t, lv.tmp), out=t)
        rc = _pair_sum(t.reshape(lv.shape), lv.agg)
        rc[lv.coarse_inactive] = 0.0
        ec = self.cycle(k + 1, rc, lv.coarse_x)
        ec *= _COARSE_SCALE
        for ax, cut in zip(lv.agg, lv.cut):
            ec = np.repeat(ec, 2, axis=ax)[cut]
        ec[lv.inactive] = 0.0
        x += ec
        np.subtract(rf, _stencil_apply(lv.diag, lv.stencil, xf, t, lv.tmp), out=t)
        t *= lv.wdinv
        xf += t
        return x


# the one system kept, keyed on the content of (flags, bc): a table rebuilt
# with equal tags hits, one changed in place misses
_cached: tuple | None = None


def _system_for(flags: CellFlags, bc: BcTable) -> PoissonSystem:
    global _cached
    key = (flags.dims, bc.dims, flags.values.tobytes(), *(t.tobytes() for t in bc.tags))
    if _cached is None or _cached[0] != key:
        _cached = (key, PoissonSystem(flags, bc))
    return _cached[1]


def _require_finite(vel: VelocityField):
    """Raise PoissonConvergenceError (0 iterations, residual NaN) on any
    non-finite face value."""
    if not all(np.isfinite(arr).all() for _, arr in vel.components()):
        raise PoissonConvergenceError(0, math.nan)


def solve_poisson(rhs: ScalarField, flags: CellFlags, bc: BcTable, eps_cg: float,
                  max_cg_iters: int = 10000,
                  inf_tol: float | None = None) -> ScalarField:
    """Pressure p with ||lap(p) - rhs|| <= eps_cg * max(||rhs||, 1).

    lap is the boundary-aware discrete Laplacian (div of the ghost-treated
    gradient); internally CG runs on the SPD negation.
    """
    _check_dims(rhs, flags)
    rhs.validate_finite()
    system = PoissonSystem(flags, bc)
    b = system.prepare_rhs(-rhs.values)
    p, _ = system.cg(b, eps_cg, max_cg_iters, inf_tol=inf_tol)
    return ScalarField(rhs.dims, p)


def subtract_gradient(vel: VelocityField, p: ScalarField, flags: CellFlags,
                      bc: BcTable) -> VelocityField:
    """Velocity update u <- u - grad(p) with the table's ghost treatment.

    Interior fluid-fluid faces use the two-sided difference, Dirichlet faces
    a ghost pressure of zero on the non-fluid side, Neumann faces are left
    unchanged.
    """
    _check_dims(vel, p)
    _check_dims(vel, flags)
    d = vel.dims
    inv_h = 1.0 / d.h
    fl = flags.fluid
    out = vel.copy()
    pv = p.values
    for axis in d.axes:
        t = bc.tags[axis]
        arr = out.component(axis)
        inner = _along(axis, slice(1, -1))
        lo, hi = _along(axis, slice(None, -1)), _along(axis, slice(1, None))
        it = t[inner]
        grad = np.zeros_like(it, dtype=np.float64)
        interior = it == FaceTag.INTERIOR
        grad[interior] = (pv[hi] - pv[lo])[interior] * inv_h
        diri = it == FaceTag.DIRICHLET
        diri_lo = diri & fl[lo] & ~fl[hi]   # ghost on the high side
        diri_hi = diri & fl[hi] & ~fl[lo]   # ghost on the low side
        grad[diri_lo] = (0.0 - pv[lo][diri_lo]) * inv_h
        grad[diri_hi] = (pv[hi][diri_hi] - 0.0) * inv_h
        arr[inner] -= grad
        # domain wall faces: only a Dirichlet ghost can drive an update
        for side in (0, -1):
            wall = _along(axis, side)
            m = (t[wall] == FaceTag.DIRICHLET) & fl[wall]
            # low wall: grad = (p_cell - 0)/h; high wall: grad = (0 - p_cell)/h
            sign = 1.0 if side == 0 else -1.0
            arr[wall][m] -= sign * pv[wall][m] * inv_h
    return out


def project(vel: VelocityField, flags: CellFlags, bc: BcTable, eps_cg: float,
            max_cg_iters: int = 10000) -> VelocityField:
    """Divergence-free (Euclidean) projection via a pressure solve.

    Faces tagged NEUMANN keep their input velocity; only the velocity field
    is touched.  The CG residual is additionally driven below 10*eps_cg in
    max norm so the per-cell divergence bound holds at any rhs scale.
    """
    projector = DivergenceProjector(flags, bc, CgConfig(eps_cg, eps_cg, max_cg_iters))
    return projector.project(vel)[0]


class DivergenceProjector:
    """Projection bundle used inside the optimizer loops.

    Holds the Poisson system for a fixed flag/boundary configuration (the
    one cached system while the flags and tags stay equal) and owns the
    adaptive CG accuracy `eps` (from cg.eps_start down to cg.eps_final), and
    reports the CG effort of each projection so convergence logs can
    attribute cost.  A fixed accuracy eps is CgConfig(eps, eps, max_cg_iters).
    """

    def __init__(self, flags: CellFlags, bc: BcTable, cg: CgConfig | None = None):
        self.flags = flags
        self.bc = bc
        self.cg = cg if cg is not None else CgConfig()
        self.eps = self.cg.eps_start
        self.system = _system_for(flags, bc)

    def project(self, vel: VelocityField) -> tuple[VelocityField, int, float]:
        """The one projection routine: divergence, pressure solve at the
        current accuracy (max-norm residual below 10x it), gradient update.
        Returns (projected velocity, CG iterations, CG accuracy).  A
        non-finite face raises before the solve, also one the divergence
        never reads (no FLUID neighbour)."""
        _require_finite(vel)
        eps = self.eps
        div = divergence(vel, self.flags)
        b = self.system.prepare_rhs(-div.values)
        p, iters = self.system.cg(b, eps, self.cg.max_cg_iters, inf_tol=10.0 * eps)
        out = subtract_gradient(vel, ScalarField(vel.dims, p), self.flags, self.bc)
        return out, iters, eps

    def adapt(self, residual: float, eps_stop: float) -> float:
        """Drop the CG accuracy a decade once the iterate change nears the
        stopping threshold (within one decade), clamped at cg.eps_final."""
        if residual <= 10.0 * eps_stop:
            self.eps = max(self.eps / 10.0, self.cg.eps_final)
        return self.eps
