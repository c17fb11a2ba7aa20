"""Binary grid files, PGM rendering and convergence CSVs.

Grid file layout (little endian):
    magic "PDFG" | version u16 | kind u8 (0 scalar, 1 mac velocity) |
    nx, ny, nz as u32 | cell width as f64 | payload f64 blocks.
Payload values are x-fastest; a velocity file carries the three face blocks
concatenated (x block (nx+1)*ny*nz, then y, then z, the z block present
also in 2D, all zero).  Round trips are bit exact.  All writers go through
a temp-file-plus-rename so readers never see partial files, and the files
get mode 0o666 less the umask, as a plain open() would give them.
"""

from __future__ import annotations

import os
import secrets
import struct

import numpy as np

from .fields import CellFlags, CellType, GridDims, ScalarField, VelocityField
from .optim import ConvergenceLog

MAGIC = b"PDFG"
VERSION = 1
KIND_SCALAR = 0
KIND_VELOCITY = 1
_HEADER = struct.Struct("<4sHBIIId")
_MAX_CELLS = 1 << 31


class GridFileError(ValueError):
    pass


def _atomic_write(path, data: bytes):
    """Write data to a fresh temp file beside path, then rename it over path."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".pdfg-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _blocks(field) -> list[np.ndarray]:
    if isinstance(field, ScalarField):
        return [field.values]
    return [field.u, field.v, field.w]


def write_grid(path, field) -> None:
    """Serialize a ScalarField or VelocityField."""
    if isinstance(field, ScalarField):
        kind = KIND_SCALAR
    elif isinstance(field, VelocityField):
        kind = KIND_VELOCITY
    else:
        raise GridFileError(f"cannot serialize {type(field).__name__}")
    d = field.dims
    header = _HEADER.pack(MAGIC, VERSION, kind, d.nx, d.ny, d.nz, d.h)
    payload = b"".join(np.ravel(b, order="F").astype("<f8").tobytes()
                       for b in _blocks(field))
    _atomic_write(path, header + payload)


def read_grid(path):
    """Parse a grid file back into a ScalarField or VelocityField."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise GridFileError("file too short for a grid header")
    magic, version, kind, nx, ny, nz, h = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise GridFileError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise GridFileError(f"unsupported format version {version}")
    if kind not in (KIND_SCALAR, KIND_VELOCITY):
        raise GridFileError(f"unknown grid kind {kind}")
    if nx * ny * nz > _MAX_CELLS:
        raise GridFileError(f"implausible dimensions {nx}x{ny}x{nz}")
    try:
        dims = GridDims(nx, ny, nz, h)
    except ValueError as exc:   # nx or ny < 4, nz < 1, h not finite and > 0
        raise GridFileError(f"bad grid header: {exc}") from exc
    if kind == KIND_SCALAR:
        shapes = [dims.shape]
    else:
        shapes = [dims.face_shape(a) for a in range(3)]
    expected = sum(int(np.prod(s)) for s in shapes) * 8
    body = raw[_HEADER.size:]
    if len(body) != expected:
        raise GridFileError(f"payload is {len(body)} bytes, expected {expected} "
                            "(truncated or trailing data)")
    arrays = []
    off = 0
    for s in shapes:
        n = int(np.prod(s))
        block = np.frombuffer(body, dtype="<f8", count=n, offset=off)
        arrays.append(np.reshape(block, s, order="F").astype(np.float64))
        off += n * 8
    if kind == KIND_SCALAR:
        return ScalarField(dims, arrays[0])
    if dims.is_2d and arrays[2].any():   # a nonzero or non-finite value
        raise GridFileError("a 2D velocity file's z block must be all zero")
    return VelocityField(dims, *arrays)


FLAG_GRAY = {CellType.EMPTY: 0, CellType.FLUID: 128, CellType.SOLID: 255}


def render_pgm(field, path) -> None:
    """8-bit binary PGM of a scalar field or flag field (2D or a mid slice).

    Scalar values are min-max normalized per frame; a constant field maps to
    mid-gray.  Flags render as three fixed gray levels.  Rows run top to
    bottom (y decreasing).
    """
    if isinstance(field, CellFlags):
        sl = field.values[:, :, field.dims.nz // 2]
        img = np.zeros(sl.shape, dtype=np.uint8)
        for cell_type, gray in FLAG_GRAY.items():
            img[sl == cell_type] = gray
    elif isinstance(field, ScalarField):
        field.validate_finite()
        sl = field.values[:, :, field.dims.nz // 2]
        lo, hi = float(sl.min()), float(sl.max())
        if hi > lo:
            norm = (sl - lo) / (hi - lo)
            img = np.clip(np.rint(norm * 255.0), 0, 255).astype(np.uint8)
        else:
            img = np.full(sl.shape, 128, dtype=np.uint8)
    else:
        raise ValueError(f"cannot render {type(field).__name__}")
    # image rows top to bottom: transpose to (row, col) = (y flipped, x)
    img = img.T[::-1, :]
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    _atomic_write(path, header + img.tobytes())


def _write_csv(path, columns, rows) -> None:
    """A header line of `columns`, then one line per row, each value by str."""
    lines = [columns, *rows]
    _atomic_write(path, "".join(",".join(map(str, r)) + "\n" for r in lines).encode())


def write_convergence_csv(log: ConvergenceLog, path) -> None:
    """One row per optimizer iteration: iter,residual,epsilon,eps_cg,cg_iters,
    with iter the row's position from 1."""
    if len(log) == 0:
        raise ValueError("refusing to write an empty convergence log")
    rows = zip(log.residuals, log.epsilons, log.eps_cg, log.cg_iters)
    _write_csv(path, ["iter", "residual", "epsilon", "eps_cg", "cg_iters"],
               [(n, f"{r:.17g}", f"{e:.17g}", f"{c:.17g}", i)
                for n, (r, e, c, i) in enumerate(rows, 1)])
