"""Pressure Poisson solves and the divergence-free projection.

The linear system is the 5/7-point Laplacian assembled matrix-free from the
cell flags and a per-face boundary table: Neumann faces drop out of the
stencil (the face velocity is kept), Dirichlet faces use a ghost pressure of
zero (free surface).  Conjugate gradients solve the SPD form; each
connected component without a Dirichlet face gets its right-hand side
mean-subtracted for compatibility.  One private loop, _pcg, is every CG of
the package: this solve and the velocity-space CG of the guiding paths.
The gradient update gathers each face's two cells through one flat table
of the grid dims (GridDims._face_cells) with a zero ghost slot.

Every grid of the system, its own first and then each coarser one of the
multigrid, stores its stencil flat: the diagonal and, per axis a, one
coefficient array over the flattened cells that couples cell c to cell
c + stride_a, zero where that neighbour wraps to the next row.  Each half
of a matvec update is then one contiguous multiply and subtract into
preallocated scratch, and one routine serves every grid.
Each PoissonSystem records in `key` the content of the flags and table it
serves.  DivergenceProjector reuses the system a caller's SolverCarry holds
while that key matches, and starts each solve from the pressure of its
previous one, also across a retag.  A retag of wall faces changes the
table, the system and its key in place: integer face counts on every grid
and a rank-k update of the coarsest dense inverse, so no rebuild unless a
component gains or loses its last Dirichlet face.

The preconditioner is one symmetric V-cycle of an aggregation multigrid
(MGPCG, McAdams, Sifakis & Teran, SCA 2010; the unsmoothed-aggregation
coarse operator of Notay, ETNA 2010), built once per PoissonSystem from its
own stencil: cells paired 2x along every active axis through one flat
parent index per grid, the Galerkin coarse operator of the
piecewise-constant prolongation summed through it, restriction by one
bincount and prolongation by one take, one damped-Jacobi sweep (omega 4/5)
before and after a coarse correction scaled by 1.6, and on the coarsest
grid (at most 256 active cells) a dense inverse, or the pseudo-inverse
where a component has no Dirichlet face, which the integer face counts
decide exactly.  The inverse is taken by recursive Schur complements, so
mostly by matrix products; LAPACK inverts only blocks of at most 64 rows.
These are constants, not settings: with them the cycle is
SPD for every boundary table and the CG iteration count stays flat in the
grid width (8, 9 and 11 iterations on a closed 64^2, 128^2 and 256^2 box
at eps 1e-5), so there is nothing left for a caller to tune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .fields import (CellFlags, CellType, GridDims, ScalarField, VelocityField,
                     _along, _check_dims, _face_views, _flat_faces, _to_faces,
                     divergence)


class FaceTag(IntEnum):
    INTERIOR = 0   # fluid-fluid, coupled in the stencil
    NEUMANN = 1    # zero pressure gradient, face velocity fixed
    DIRICHLET = 2  # ghost pressure 0, face velocity updated


_INTERIOR, _NEUMANN = FaceTag.INTERIOR.value, FaceTag.NEUMANN.value   # see fields._FLUID


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
                count += tags[axis][_along(axis, cells)] != _NEUMANN
        count[~self.fluid] = 0.0
        self.active = self.fluid & (count > 0)
        self._inactive = ~self.active
        # 1.0 where an INTERIOR face couples a cell to its high neighbour,
        # both active (cell-shaped, 0 in the last slab along the axis)
        interior = []
        for axis in d.axes:
            c = tags[axis][_along(axis, slice(1, None))] == _INTERIOR
            c &= self.active
            c[_along(axis, slice(None, -1))] &= self.active[_along(axis, slice(1, None))]
            c[_along(axis, -1)] = False
            interior.append(c.astype(np.float64))
        count, stencil = count.reshape(-1), _flat_stencil(interior, d.axes)
        # the rhs is made compatible on each component with no Dirichlet face;
        # the component of each cell and their face counts let retag tell
        # when one would gain or lose its last Dirichlet face
        self._components, self._root, self._excess = _singular_components(
            self.active, count, stencil)
        # the V-cycle's grids, this one first: coarsen until at most
        # _DENSE_CELLS active cells remain or no axis is longer than two
        self.grids = [_Grid(count, stencil, inv_h2)]
        self.diag = self.grids[0].diag.reshape(d.shape)
        shape = d.shape
        while np.count_nonzero(count) > _DENSE_CELLS:
            agg = tuple(a for a in d.axes if shape[a] > 2)
            if not agg:
                break
            shape, parent = _parent(shape, agg)
            fine = self.grids[-1]
            count, stencil = _galerkin(parent, count, stencil, shape)
            parent[(fine.count == 0) | (count[parent] == 0)] = count.size
            fine.parent, fine.coarse = parent, np.zeros(count.size + 1)
            self.grids.append(_Grid(count, stencil, inv_h2))
        # the coarsest grid's dense matrix over its active cells, inverted
        self.cells = np.flatnonzero(count)
        index = np.full(count.size, -1)
        index[self.cells] = np.arange(self.cells.size)
        mat = np.diag(count[self.cells])
        for s, c in stencil:
            m = c > 0
            i = index[:c.size][m]
            j = index[s:][m]
            mat[i, j] -= c[m]
            mat[j, i] -= c[m]
        mat *= inv_h2
        # every grid's couplings join cells of one grid-0 component, so the
        # coarsest grid is singular only where grid 0 is
        null = []
        if self._components:
            null = [index[c] for c in _singular_components(count > 0, count, stencil)[0]]
        self.dense = _dense_inverse(mat, null)
        self.key = _key(flags, bc)

    def retag(self, flags: CellFlags, bc: BcTable, faces: np.ndarray,
              cells: np.ndarray, tags) -> None:
        """Set bc.tags[faces] = tags in place and make this system the one
        PoissonSystem(flags, bc) would build for the new table.

        The faces are distinct (a repeated one raises) wall faces, each
        between the FLUID cell at the same position of `cells` (a flat cell
        index; unchecked, as that costs a pass over the face layout) and a
        cell that is not FLUID, tagged NEUMANN or DIRICHLET before and
        after, so a retag moves one cell's face count by one and couples
        nothing.  When a component would gain or lose its last Dirichlet
        face, the system is rebuilt in place.  Otherwise every grid's
        counts, diag and smoother weights are updated in place (integer
        counts, so bit for bit as in a fresh build) and the coarsest dense
        inverse by one rank-k Sherman-Morrison-Woodbury step over the k
        coarsest cells whose count moved.  The system's `key` follows the
        retag, so a projector with the old content builds its own.
        """
        old, tags = bc.tags[faces], np.asarray(tags)
        gain, lose = tags == FaceTag.DIRICHLET, old == FaceTag.DIRICHLET
        if not ((gain | (tags == FaceTag.NEUMANN)).all()
                and (lose | (old == FaceTag.NEUMANN)).all()
                and self.fluid.reshape(-1)[cells].all()
                and np.diff(np.sort(faces)).all()):   # distinct
            raise ValueError("retag takes distinct wall faces of a FLUID cell, "
                             "NEUMANN or DIRICHLET")
        step = np.subtract(gain, lose, dtype=np.float64)
        bc.tags[faces] = tags
        self.key = _key(flags, bc)
        # Only the component rule rebuilds.  A retag couples nothing, and a
        # grid's count of an aggregate is the couplings leaving it plus the
        # Dirichlet faces inside, so it reaches or leaves 0 only where none
        # leaves: there the aggregate holds whole grid-0 components, its
        # count is their summed excess, and one of those crosses 0 too
        # (grid 0 is the one-cell case).  A zero slot holds such aggregates
        # and inactive cells (components of excess 0), so it too moves only
        # with a rebuild.  Without one, no count moves in a singular
        # component (its excess is 0 and can only grow), so the SMW step
        # never meets the coarsest pseudo-inverse's constants.
        cells, step = _net(cells, step)
        roots, change = _net(self._root[cells], step)
        excess = self._excess[roots]
        if ((excess == 0) != (excess + change == 0)).any():
            self.__init__(flags, bc)
            return
        self._excess[roots] += change
        inv_h2 = 1.0 / (self.dims.h * self.dims.h)
        for k, grid in enumerate(self.grids):
            grid.count[cells] += step
            grid.diag[cells] = grid.count[cells] * inv_h2
            grid.wdinv[cells] = _OMEGA / grid.diag[cells]
            if k + 1 < len(self.grids):
                cells, step = _net(grid.parent[cells], step)
        if cells.size:
            _smw(self.dense, np.searchsorted(self.cells, cells), step * inv_h2)

    def apply(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A p, written into `out` (C-contiguous) when given; rows of
        inactive cells are 0."""
        if out is None:
            out = np.empty_like(self.diag)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        grid = self.grids[0]
        _stencil_apply(grid.diag, grid.stencil, p.reshape(-1), out.reshape(-1), grid.tmp)
        np.copyto(out, 0.0, where=self._inactive)
        return out

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """Mask the C-contiguous float64 array b to active cells and subtract
        the mean of each connected component of them that has no Dirichlet
        face, in place; returns b."""
        np.copyto(b, 0.0, where=self._inactive)
        flat = b.reshape(-1)
        for cells in self._components:
            v = flat[cells]
            flat[cells] = v - v.mean()
        return b

    def _precondition(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = M r: one V-cycle; r and out are zero off the active cells."""
        return self._cycle(0, r, out)

    def _cycle(self, k: int, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x = M_k r on grid k, both C-contiguous (flat below grid 0) and
        zero on its inactive cells.  Restriction and prolongation skip
        those through the zero slot of `parent`, so M is symmetric positive
        definite on the active cells and zero elsewhere; every grid couples
        active cells only, so the smoother's matvecs need no masking."""
        if k == len(self.grids) - 1:
            x.fill(0.0)
            x.reshape(-1)[self.cells] = self.dense @ r.reshape(-1)[self.cells]
            return x
        g = self.grids[k]
        rf, xf, t = r.reshape(-1), x.reshape(-1), g.t
        np.multiply(g.wdinv, rf, out=xf)
        np.subtract(rf, _stencil_apply(g.diag, g.stencil, xf, t, g.tmp), out=t)
        n = g.coarse.size - 1
        ec = self._cycle(k + 1, np.bincount(g.parent, t, n + 1)[:n], g.coarse[:n])
        ec *= _COARSE_SCALE
        xf += g.coarse.take(g.parent)
        np.subtract(rf, _stencil_apply(g.diag, g.stencil, xf, t, g.tmp), out=t)
        t *= g.wdinv
        xf += t
        return x

    def cg(self, b: np.ndarray, eps: float, max_iters: int,
           inf_tol: float | None = None, x0: np.ndarray | None = None,
           r0: np.ndarray | None = None):
        """Multigrid-preconditioned CG on A x = b, run by _pcg: starts from
        x0 (zero when None) with its residual r0 if given, and stops when
        ||r||_2 <= eps * max(||b||_2, 1) and, if inf_tol is given,
        additionally max|r_i| <= inf_tol.  Returns (x, iterations); raises
        PoissonConvergenceError as _pcg does.  apply and _precondition are
        looked up per call, so a wrapper installed on them sees every one.
        """
        return _pcg(self.apply, b, eps, 1.0, max_iters, self._precondition,
                    inf_tol=inf_tol, x0=x0, r0=r0)


def _pcg(apply, b: np.ndarray, tol: float, floor: float, max_iters: int,
         precondition=None, inf_tol: float | None = None,
         solver: str = "pressure", x0: np.ndarray | None = None,
         r0: np.ndarray | None = None):
    """The one CG loop: preconditioned CG on A x = b for an SPD `apply(d,
    out)`, with the optional preconditioner `precondition(r, out)` (z is r
    without one).  b is a C-contiguous array of any shape; x (the returned
    solution), r, z, d and A d keep its shape and are updated in place.

    x starts from a copy of x0 (zero when None).  r0, if given, is the
    start's residual b - A x0 in a C-contiguous array that the loop updates
    as its r, so it ends as the final residual b - A x up to rounding;
    otherwise one apply computes it from x0.

    Stops when ||r||_2 <= tol * max(||b||_2, floor) and, if inf_tol is
    given, additionally max|r_i| <= inf_tol.  Returns (x, iterations).
    Raises PoissonConvergenceError, labelled `solver`, on a non-finite rhs,
    x0, residual or d.A d, on a breakdown and when max_iters is used up;
    the reported residual is ||r||_2 / max(||b||_2, floor).
    """
    x, z, d, ad, tmp = (np.empty_like(b) for _ in range(5))
    if x0 is None:
        x.fill(0.0)
    bnorm = float(np.linalg.norm(b))
    if not math.isfinite(bnorm):
        raise PoissonConvergenceError(0, bnorm, solver)
    if bnorm == 0.0 and x0 is None:
        return x, 0
    scale = max(bnorm, floor)
    target = tol * scale
    if x0 is not None:
        if not np.isfinite(x0).all():
            raise PoissonConvergenceError(0, math.nan, solver)
        np.copyto(x, x0)
    if r0 is not None:
        r = r0
    elif x0 is None:
        r = b.copy()
    else:
        r = apply(x, np.empty_like(b))
        np.subtract(b, r, out=r)
    r_flat = r.reshape(-1)
    if precondition is None:
        z = r

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
    np.copyto(d, z)
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


def _components(active, stencil):
    """The root of every flat cell, the smallest index of its set of active
    cells that the stencil's couplings connect (an inactive cell is its own),
    and the flat indices (ascending) of each such set, which start with
    their root.  The roots come from min-label hooking with pointer
    jumping, which settles in a few rounds on grid graphs."""
    i = [np.flatnonzero(conn > 0) for _, conn in stencil]
    j = np.concatenate([c + s for (s, _), c in zip(stencil, i)])
    i = np.concatenate(i)
    root = np.arange(active.size)
    while True:
        a, b = root[i], root[j]
        split = a != b
        if not split.any():
            break
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while True:   # point every cell at its root; root[x] <= x, so no cycles
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    cells = np.flatnonzero(active)
    order = np.argsort(root[cells], kind="stable")
    bounds = np.flatnonzero(np.diff(root[cells[order]])) + 1
    return root, np.split(cells[order], bounds) if cells.size else []


def _singular_components(active, count, stencil):
    """The components of the flat Laplacian (count, stencil), in integer
    face counts, on which it is singular: those where no row has more count
    than couplings, so no Dirichlet face.  Each has the constant on its
    cells as its one null vector; every other component is nonsingular.
    Also returns the root of every cell (see _components) and, by root,
    the count less the couplings summed over its component (0 off the
    roots): each row's excess is at least 0, so a component is singular
    exactly when that sum is 0."""
    excess = count.copy()
    for s, conn in stencil:
        excess[:conn.size] -= conn
        excess[s:] -= conn
    root, components = _components(active, stencil)
    excess = np.bincount(root, excess, root.size)
    return [cells for cells in components if not excess[cells[0]]], root, excess


def _net(index, step):
    """The distinct indices (ascending) whose summed steps are not zero,
    and those sums."""
    index, at = np.unique(index, return_inverse=True)
    step = np.bincount(at, step, index.size)
    keep = step != 0
    return index[keep], step[keep]


# -- the aggregation multigrid preconditioner ----------------------------------
#
# Fixed constants, not settings: the cycle is SPD for any of them in range
# (2/omega above the largest eigenvalue of D^-1 A, which is at most 2 for
# these diagonally dominant stencils; any positive coarse scale), and the
# values below keep the closed-box iteration count flat from 64^2 to 256^2.
# omega 4/5 is the 2-D optimum (Trottenberg et al., Multigrid, 2001, 2.1):
# the 5-point smoothing factor is 3/5, against 2/3 at the 1-D optimum 2/3.
_OMEGA = 4.0 / 5.0     # damped-Jacobi weight of the pre- and post-sweep
_COARSE_SCALE = 1.6    # over-correction that offsets the piecewise-constant P
_DENSE_CELLS = 256     # coarsen until at most this many active cells remain
_LEAF = 64             # _spd_inverse hands blocks of at most this many rows to LAPACK


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


def _dense_inverse(mat, null):
    """The symmetrized inverse of the symmetric positive semidefinite `mat`,
    or its pseudo-inverse when mat is singular on the index sets `null`,
    each a component whose one null vector is the constant on it: with P
    the projector onto those constants, A+ = inv(A + s P) - P / s for any
    s > 0, here the mean diagonal.  So the face counts give the rank, not a
    pivot or an eigenvalue threshold.  The shift is added to mat in place;
    the inverse is _spd_inverse's, a new array."""
    scale = mat.trace() / max(len(mat), 1)
    for cells in null:
        mat[np.ix_(cells, cells)] += scale / cells.size
    inv = _spd_inverse(mat)
    for cells in null:
        inv[np.ix_(cells, cells)] -= 1.0 / (scale * cells.size)
    inv += inv.T
    inv *= 0.5
    return inv


def _spd_inverse(a):
    """inv(a) of the symmetric positive definite a by Schur complements:
    with a = [[P, Q], [Q^T, R]] split in half, W = P^-1 Q and S = R - Q^T W
    (SPD too), inv(a) = [[P^-1 + W S^-1 W^T, -W S^-1], [-S^-1 W^T, S^-1]],
    P^-1 and S^-1 by the same rule.  Blocks of at most _LEAF rows go to
    LAPACK.  Nearly all the work is then matrix products, about (4/3) n^3
    flops, against (8/3) n^3 at a lower rate for np.linalg.inv, an LU
    solve against the identity."""
    n = len(a)
    if n <= _LEAF:
        return np.linalg.inv(a)
    k = n // 2
    p_inv = _spd_inverse(a[:k, :k])
    q = a[:k, k:]
    w = p_inv @ q
    s_inv = _spd_inverse(a[k:, k:] - q.T @ w)
    ws = w @ s_inv
    inv = np.empty_like(a)
    inv[:k, :k] = p_inv + ws @ w.T
    inv[:k, k:] = -ws
    inv[k:, :k] = -ws.T
    inv[k:, k:] = s_inv
    return inv


def _smw(inv, k, d):
    """In place, inv of A + D from inv of A, where D adds d to the diagonal
    at the indices k (distinct, d nonzero): the Sherman-Morrison-Woodbury
    identity inv - inv[:, k] (diag(1/d) + inv[k, k])^-1 inv[k, :], then
    symmetrized as _dense_inverse symmetrizes."""
    w = inv[:, k]
    s = w[k]
    s[np.diag_indices(k.size)] += 1.0 / d
    inv -= w @ np.linalg.solve(s, w.T)
    inv += inv.T
    inv *= 0.5


class _Grid:
    """One flat grid of the V-cycle from its Laplacian's integer face
    counts `count` (the diagonal) and stencil, with both scaled by 1/h^2,
    the damped-Jacobi weights (0 on the inactive cells, of count 0) and
    scratch.  A coarser grid is the Galerkin operator of the
    piecewise-constant prolongation, so the face tags hold on every grid
    without coarse flags.  PoissonSystem gives every grid but the
    coarsest `parent`: each cell's coarse cell, or the zero slot past them
    when the cell or its aggregate is inactive; restriction is one
    bincount over it, prolongation one take from `coarse`, the coarser
    grid's correction, whose last slot stays 0."""

    def __init__(self, count, stencil, inv_h2):
        self.count = count
        self.diag = count * inv_h2
        self.stencil = [(s, c * inv_h2) for s, c in stencil]
        with np.errstate(divide="ignore"):
            self.wdinv = np.where(count > 0, _OMEGA / self.diag, 0.0)
        self.t = np.empty_like(count)     # residual
        self.tmp = np.empty_like(count)   # matvec scratch


# what a PoissonSystem serves: equal tags match, tags changed in place do not
def _key(flags: CellFlags, bc: BcTable) -> tuple:
    return flags.dims, bc.dims, flags.values.tobytes(), bc.tags.tobytes()


def _require_finite(vel: VelocityField):
    """Raise PoissonConvergenceError (0 iterations, residual NaN) on any
    non-finite face value."""
    if not np.isfinite(vel.as_flat()).all():
        raise PoissonConvergenceError(0, math.nan)


def subtract_gradient(vel: VelocityField, p: ScalarField, flags: CellFlags,
                      bc: BcTable, out: VelocityField) -> VelocityField:
    """Velocity update u <- u - grad(p) with the table's ghost treatment,
    written into the active faces of `out` (which may be vel); returns out.

    The gradient reads p at FLUID cells and a ghost pressure of zero at
    every other cell and beyond the domain walls, and every face not tagged
    NEUMANN takes it: interior fluid-fluid faces the two-sided difference,
    Dirichlet faces the difference to the zero ghost.  Neumann faces are
    left unchanged.
    """
    _check_dims(vel, p)
    _check_dims(vel, flags)
    d = vel.dims
    lower, upper = d._face_cells
    pe = np.zeros(d.cell_count + 1)   # p on FLUID cells, then the zero ghost
    np.copyto(pe[:-1], p.values.reshape(-1), where=flags.fluid.reshape(-1))
    grad = pe.take(upper)
    grad -= pe.take(lower)
    grad *= 1.0 / d.h
    if out is not vel:
        _check_dims(vel, out)
        np.copyto(out.as_flat(), vel.as_flat())
    flat = out.as_flat()
    np.subtract(flat, grad, out=flat, where=bc.tags != _NEUMANN)
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

    Holds the Poisson system for a fixed flag/boundary configuration and owns
    the adaptive CG accuracy `eps` (from cg.eps_start down to cg.eps_final),
    and reports the CG effort of each projection so convergence logs can
    attribute cost.  A fixed accuracy eps is CgConfig(eps, eps, max_cg_iters).
    The system is the one a caller's SolverCarry `carry` holds while its key
    is (flags, bc); else the projector builds one and leaves it on the carry.
    Each solve starts from `pressure`, the pressure of the projector's
    previous solve (None before the first), also across a retag; the start
    is kept here, not on the system, so two projectors on one carried
    system do not steer each other.  With it the projector keeps `_image`,
    its A p; a solve sets both only once CG has converged, on arrays of its
    own, so a failed solve leaves them as they were.
    """

    def __init__(self, flags: CellFlags, bc: BcTable, cg: CgConfig | None = None,
                 carry=None):
        self.flags = flags
        self.bc = bc
        self.cg = cg if cg is not None else CgConfig()
        self.eps = self.cg.eps_start
        self.system = carry.system if carry is not None else None
        if self.system is None or self.system.key != _key(flags, bc):
            self.system = PoissonSystem(flags, bc)
            if carry is not None:
                carry.system = self.system
        self.pressure = None   # the last solve's p
        self._image = np.zeros(flags.dims.shape)   # the last solve's A p

    def project(self, vel: VelocityField, out: VelocityField | None = None
                ) -> tuple[VelocityField, int, float]:
        """The one projection routine: divergence, pressure solve at the
        current accuracy (max-norm residual below 10x it) warm-started from
        the previous solve's pressure, gradient update.
        Returns (projected velocity, CG iterations, CG accuracy); the
        velocity goes into the active faces of `out` when given (out may be
        vel), else into a copy of vel.  A non-finite face raises before the
        solve, also one the divergence never reads (no FLUID neighbour)."""
        _require_finite(vel)
        eps = self.eps
        b = divergence(vel, self.flags).values
        np.negative(b, out=b)
        self.system.prepare_rhs(b)
        # the start's residual from the last solve's A p = b - r (0 before
        # the first solve, so r0 = b), so the warm start costs no matvec
        r = b - self._image
        p, iters = self.system.cg(b, eps, self.cg.max_cg_iters, inf_tol=10.0 * eps,
                                  x0=self.pressure, r0=r)
        self.pressure = p
        np.subtract(b, r, out=self._image)
        out = subtract_gradient(vel, ScalarField(vel.dims, p), self.flags, self.bc,
                                vel.copy() if out is None else out)
        return out, iters, eps

    def retag(self, faces: np.ndarray, cells: np.ndarray, tags) -> None:
        """PoissonSystem.retag of this projector's table and system.  The
        next solve still starts from the last pressure p.  A retag in place
        moves only the diagonal of the cells in `cells`, so the kept A p
        moves by that change times p on them, with no matvec; after a
        rebuild one apply recomputes it."""
        grid = self.system.grids[0]
        before = grid.diag[cells]
        self.system.retag(self.flags, self.bc, faces, cells, tags)
        if self.pressure is None:
            return
        p, image = self.pressure.reshape(-1), self._image.reshape(-1)
        if self.system.grids[0] is grid:
            # a cell listed twice gets the same value twice, not two updates
            image[cells] = image[cells] + (grid.diag[cells] - before) * p[cells]
        else:
            self.system.apply(self.pressure, self._image)

    def adapt(self, residual: float, eps_stop: float) -> float:
        """Drop the CG accuracy a decade once the stop residual nears the
        stopping threshold (within one decade), clamped at cg.eps_final."""
        if residual <= 10.0 * eps_stop:
            self.eps = max(self.eps / 10.0, self.cg.eps_final)
        return self.eps
