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
own stencil: cells paired 2x along every active axis through one flat
parent index per level, the Galerkin coarse operator of the
piecewise-constant prolongation summed through it, restriction by one
bincount and prolongation by one take, one damped-Jacobi sweep (omega 2/3)
before and after a coarse correction scaled by 1.6, and a dense
pseudo-inverse on the coarsest grid (at most 64 active cells).  These are
constants, not settings: with them the cycle is SPD for every boundary
table and the CG iteration count stays flat in the grid width (11, 12 and
14 iterations on a closed 64^2, 128^2 and 256^2 box at eps 1e-5), so there
is nothing left for a caller to tune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .fields import (CellFlags, CellType, GridDims, ScalarField, VelocityField,
                     _along, _check_dims, _face_views, _flat_faces, _to_faces,
                     divergence, fluid_adjacent_face_mask)


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
    """Per-face boundary tags derived from the cell flags: one uint8 array
    over the active faces, laid out as in `VelocityField.as_flat`.

    Faces between two FLUID cells are INTERIOR.  Fluid-solid faces default
    to NEUMANN (overridable), fluid-empty faces are DIRICHLET (free
    surface), and every other face, domain walls included, is NEUMANN.
    """

    def __init__(self, dims: GridDims, tags: np.ndarray):
        self.dims = dims
        self.tags = tags

    @classmethod
    def from_flags(cls, flags: CellFlags,
                   solid_faces: FaceTag = FaceTag.NEUMANN) -> "BcTable":
        # tag[lower, upper]: a face's tag by the types of its two cells,
        # read by flat index; the ghost type 3 beyond the domain walls tags
        # every wall face NEUMANN
        fluid, solid, empty = CellType.FLUID, CellType.SOLID, CellType.EMPTY
        tag = np.full((4, 4), FaceTag.NEUMANN, dtype=np.uint8)
        tag[fluid, fluid] = FaceTag.INTERIOR
        tag[[fluid, solid], [solid, fluid]] = solid_faces
        tag[[fluid, empty], [empty, fluid]] = FaceTag.DIRICHLET
        return cls(flags.dims, _flat_faces(flags.dims, lambda axis: _to_faces(
            flags.values, axis, lambda a, b: tag.take(4 * a + b), ghost=3)))


@dataclass
class CgConfig:
    """Residual tolerances of the pressure solver."""

    eps_start: float = 1e-2
    eps_final: float = 1e-5
    max_cg_iters: int = 10000

    def __post_init__(self):
        if not (0 < self.eps_final <= self.eps_start < math.inf and self.max_cg_iters >= 1):
            raise ValueError(f"need 0 < eps_final <= eps_start < inf and max_cg_iters >= 1, "
                             f"got {self}")


class PoissonSystem:
    """Matrix-free SPD Laplacian for a given flag field and boundary table."""

    def __init__(self, flags: CellFlags, bc: BcTable):
        if flags.dims != bc.dims:
            raise ValueError("dimension mismatch between flags and bc table")
        d = flags.dims
        self.dims = d
        self.fluid = flags.fluid
        inv_h2 = 1.0 / (d.h * d.h)
        tags = _face_views(d, bc.tags)
        count = np.zeros(d.shape)   # non-Neumann faces of each cell
        for axis in d.axes:
            for cells in (slice(None, -1), slice(1, None)):
                count += tags[axis][_along(axis, cells)] != FaceTag.NEUMANN
        adjacent = _flat_faces(d, lambda a: fluid_adjacent_face_mask(flags, a))
        has_dirichlet = bool((bc.tags[adjacent] == FaceTag.DIRICHLET).any())
        count[~self.fluid] = 0.0
        self.diag = count * inv_h2
        self.has_dirichlet = has_dirichlet
        self.active = self.fluid & (count > 0)
        self._inactive = ~self.active
        # 1.0 where an INTERIOR face couples a cell to its high neighbour,
        # both active (cell-shaped, 0 in the last slab along the axis)
        interior = []
        for axis in d.axes:
            c = tags[axis][_along(axis, slice(1, None))] == FaceTag.INTERIOR
            c &= self.active
            c[_along(axis, slice(None, -1))] &= self.active[_along(axis, slice(1, None))]
            c[_along(axis, -1)] = False
            interior.append(c.astype(np.float64))
        counts = _flat_stencil(interior, d.axes)
        self._stencil = [(s, c * inv_h2) for s, c in counts]
        self._tmp = np.empty(d.cell_count)
        # without a Dirichlet face the rhs is made compatible per component
        self._components = None if has_dirichlet else _components(
            self.active, self._stencil)
        self._multigrid = _Multigrid(self, count.reshape(-1), counts, inv_h2)

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


def _flat_stencil(conns, axes):
    """[(stride, conn)] of the flattened grid in face counts: axis a couples
    flat cells c and c + stride_a with conn[c], read from the cell-shaped
    counts `conns` (0 in the last slab along a, so also where c + stride_a
    wraps to the next row)."""
    stencil = []
    for a, c in zip(axes, conns):
        s = math.prod(c.shape[a + 1:])
        stencil.append((s, c.reshape(-1)[:c.size - s]))
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


def _parent(shape, agg):
    """The coarse shape and the flat index of each fine cell's aggregate:
    cells (2i, 2i+1) are paired along every axis in `agg`, and an odd last
    cell is a pair on its own."""
    coarse = tuple((n + 1) // 2 if a in agg else n for a, n in enumerate(shape))
    parent = np.zeros((), np.intp)
    for a, n in enumerate(shape):
        parent = np.add.outer(parent * coarse[a], np.arange(n) // (2 if a in agg else 1))
    return coarse, parent.reshape(-1)


def _galerkin(parent, count, stencil, coarse):
    """Coarse P^T A P of the piecewise-constant P of `parent`, in face counts
    on flat stencils: coarse diag = the children's diags minus twice the
    couplings whose two cells share an aggregate, coarse conn along axis a
    = the couplings that cross to the next aggregate along a, at the
    coarse stride of a."""
    n = math.prod(coarse)
    diag = count.copy()
    conns = []
    for a, (s, conn) in enumerate(stencil):
        lo = parent[:conn.size]
        inside = np.where(lo == parent[s:], conn, 0.0)
        diag[:conn.size] -= 2.0 * inside
        stride = math.prod(coarse[a + 1:])
        conns.append((stride, np.bincount(lo, conn - inside, n)[:n - stride]))
    return np.bincount(parent, diag, n), conns


class _Level:
    """One smoothed grid of the V-cycle and its map to the next coarser
    one, all flat.  parent[c] is the coarse cell of fine cell c, or the
    zero slot past the coarse cells when c or its aggregate is inactive:
    restriction is one bincount over it, prolongation one take from
    `coarse`, whose last slot stays 0."""

    def __init__(self, diag, stencil, inactive, parent, coarse_cells):
        self.diag = diag
        self.stencil = stencil
        with np.errstate(divide="ignore"):
            self.wdinv = np.where(inactive, 0.0, _OMEGA / diag)
        self.parent = parent
        self.t = np.empty_like(diag)             # residual
        self.tmp = np.empty_like(diag)           # matvec scratch
        self.coarse = np.zeros(coarse_cells + 1)   # the next grid's correction, then the zero slot


class _Multigrid:
    """Symmetric V-cycle M ~ A^-1 on the active cells of a PoissonSystem.

    Level 0 is the system's own diag and stencil; every coarser grid is
    flat.  Each coarser grid pairs the cells (2i, 2i+1) along every active
    axis longer than two cells, one parent index per level, and carries
    the Galerkin operator of the piecewise-constant prolongation, so the
    INTERIOR/NEUMANN/DIRICHLET faces hold at every level without coarse
    flags.  A coarse cell is active when its diagonal is nonzero, which
    the face counts decide exactly.  Every level smooths with one damped
    Jacobi sweep before and one after the scaled coarse correction; the
    coarsest grid (at most _DENSE_CELLS active cells, or no axis longer
    than two) applies the dense pseudo-inverse, which also covers the
    singular all-Neumann case.  Restriction and prolongation skip inactive
    cells through the parent index's zero slot, so M is symmetric and
    positive definite on the active cells and its output is zero
    elsewhere.  Every level couples active cells only, so the smoother's
    matvecs keep zero rows off the active cells without masking.
    """

    def __init__(self, system: PoissonSystem, count, stencil, inv_h2):
        shape, axes = system.dims.shape, system.dims.axes
        active, inactive = system.active.reshape(-1), system._inactive.reshape(-1)
        diag, scaled = system.diag.reshape(-1), system._stencil
        self.levels = []
        while int(active.sum()) > _DENSE_CELLS:
            agg = tuple(a for a in axes if shape[a] > 2)
            if not agg:
                break
            shape, parent = _parent(shape, agg)
            count, stencil = _galerkin(parent, count, stencil, shape)
            coarse_active = count > 0
            parent[inactive | ~coarse_active[parent]] = count.size
            self.levels.append(_Level(diag, scaled, inactive, parent, count.size))
            active, inactive = coarse_active, ~coarse_active
            diag, scaled = count * inv_h2, [(s, c * inv_h2) for s, c in stencil]
        # the coarsest grid: dense matrix over its active cells, from the stencil
        self.cells = np.flatnonzero(active)
        index = np.full(count.size, -1)
        index[self.cells] = np.arange(self.cells.size)
        mat = np.diag(count[self.cells])
        for s, c in stencil:
            m = c > 0
            i = index[:c.size][m]
            j = index[s:][m]
            mat[i, j] -= c[m]
            mat[j, i] -= c[m]
        self.dense = np.linalg.pinv(mat * inv_h2, hermitian=True)

    def cycle(self, k: int, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x = M_k r on level k; r and x are C-contiguous (flat below level
        0) and zero on the level's inactive cells."""
        if k == len(self.levels):
            x.fill(0.0)
            x.reshape(-1)[self.cells] = self.dense @ r.reshape(-1)[self.cells]
            return x
        lv = self.levels[k]
        rf, xf, t = r.reshape(-1), x.reshape(-1), lv.t
        np.multiply(lv.wdinv, rf, out=xf)
        np.subtract(rf, _stencil_apply(lv.diag, lv.stencil, xf, t, lv.tmp), out=t)
        n = lv.coarse.size - 1
        ec = self.cycle(k + 1, np.bincount(lv.parent, t, n + 1)[:n], lv.coarse[:n])
        ec *= _COARSE_SCALE
        xf += lv.coarse.take(lv.parent)
        np.subtract(rf, _stencil_apply(lv.diag, lv.stencil, xf, t, lv.tmp), out=t)
        t *= lv.wdinv
        xf += t
        return x


# the one system kept, keyed on the content of (flags, bc): a table rebuilt
# with equal tags hits, one changed in place misses
_cached: tuple | None = None


def _system_for(flags: CellFlags, bc: BcTable) -> PoissonSystem:
    global _cached
    key = (flags.dims, bc.dims, flags.values.tobytes(), bc.tags.tobytes())
    if _cached is None or _cached[0] != key:
        _cached = (key, PoissonSystem(flags, bc))
    return _cached[1]


def _require_finite(vel: VelocityField):
    """Raise PoissonConvergenceError (0 iterations, residual NaN) on any
    non-finite face value."""
    if not np.isfinite(vel.as_flat()).all():
        raise PoissonConvergenceError(0, math.nan)


def subtract_gradient(vel: VelocityField, p: ScalarField, flags: CellFlags,
                      bc: BcTable) -> VelocityField:
    """Velocity update u <- u - grad(p) with the table's ghost treatment.

    The gradient reads p at FLUID cells and a ghost pressure of zero at
    every other cell and beyond the domain walls, and every face not tagged
    NEUMANN takes it: interior fluid-fluid faces the two-sided difference,
    Dirichlet faces the difference to the zero ghost.  Neumann faces are
    left unchanged.
    """
    _check_dims(vel, p)
    _check_dims(vel, flags)
    inv_h = 1.0 / vel.dims.h
    pv = np.where(flags.fluid, p.values, 0.0)
    grad = _flat_faces(vel.dims, lambda axis: _to_faces(
        pv, axis, lambda lo, hi: (hi - lo) * inv_h, ghost=0.0))
    out = vel.copy()
    flat = out.as_flat()
    np.subtract(flat, grad, out=flat, where=bc.tags != FaceTag.NEUMANN)
    return out


def project(vel: VelocityField, flags: CellFlags, bc: BcTable,
            eps_cg: float) -> VelocityField:
    """Divergence-free (Euclidean) projection via a pressure solve.

    Faces tagged NEUMANN keep their input velocity; only the velocity field
    is touched.  The CG residual is additionally driven below 10*eps_cg in
    max norm so the per-cell divergence bound holds at any rhs scale.
    """
    projector = DivergenceProjector(flags, bc, CgConfig(eps_cg, eps_cg))
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
