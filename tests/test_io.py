import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import struct

import numpy as np
import pytest

from pdfluids.config import ConfigError, RunConfig
from pdfluids.fields import CellFlags, CellType, GridDims, ScalarField, VelocityField
from pdfluids.fileio import (_HEADER, GridFileError, read_grid, render_pgm,
                             write_convergence_csv, write_grid)
from pdfluids.guiding import default_guiding_params
from pdfluids.optim import ConvergenceLog
from pdfluids.scenes import SceneSpec
from pdfluids.separating import BoundaryFaces

from conftest import random_velocity


def bench_workloads():
    """bench/workloads.py, loaded read-only."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestGridFile:
    def test_scalar_roundtrip_bit_exact(self, tmp_path, rng):
        d = GridDims(16, 16)
        f = ScalarField(d, rng.standard_normal(d.shape))
        path = tmp_path / "s.grid"
        write_grid(path, f)
        back = read_grid(path)
        assert isinstance(back, ScalarField)
        assert back.dims == d
        assert np.array_equal(back.values, f.values)

    def test_velocity_roundtrip_bit_exact(self, tmp_path, rng):
        # every block a file stores: a live w in 3D, the zero one in 2D
        for d in (GridDims(9, 7, 1, 0.125), GridDims(6, 5, 4, 0.125)):
            vel = random_velocity(d, rng)
            assert vel.w.any() != d.is_2d
            path = tmp_path / "v.grid"
            write_grid(path, vel)
            back = read_grid(path)
            assert isinstance(back, VelocityField)
            for a in range(3):
                assert back.component(a).tobytes() == vel.component(a).tobytes()

    @pytest.mark.parametrize("nz", [1, 4], ids=["2d", "3d"])
    def test_velocity_file_bytes(self, tmp_path, rng, nz):
        # the v1 layout: header, then the u, v and w blocks x-fastest; a 2D
        # field's w block is written as zeros
        d = GridDims(6, 5, nz, 0.25)
        vel = random_velocity(d, rng)
        path = tmp_path / "v.grid"
        write_grid(path, vel)
        blocks = [np.ravel(vel.component(a), order="F") for a in range(3)]
        assert blocks[2].any() != d.is_2d
        want = _HEADER.pack(b"PDFG", 1, 1, 6, 5, nz, 0.25)
        assert path.read_bytes() == want + b"".join(b.astype("<f8").tobytes() for b in blocks)

    @pytest.mark.parametrize("value", [1.0, -1e-300, math.nan, math.inf])
    def test_2d_velocity_with_a_live_z_block_rejected(self, tmp_path, value):
        # a 2D velocity holds no z block, so its file's must be all zero
        path = tmp_path / "v.grid"
        write_grid(path, VelocityField.zeros(GridDims(6, 5)))
        raw = bytearray(path.read_bytes())
        raw[-16:-8] = struct.pack("<d", value)   # a z face
        path.write_bytes(bytes(raw))
        with pytest.raises(GridFileError, match="z block"):
            read_grid(path)
        raw[-16:-8] = struct.pack("<d", -0.0)
        path.write_bytes(bytes(raw))
        assert not read_grid(path).w.any()

    def test_expected_byte_length_2d_velocity(self, tmp_path):
        nx, ny, nz = 6, 5, 1
        d = GridDims(nx, ny, nz)
        path = tmp_path / "v.grid"
        write_grid(path, VelocityField.zeros(d))
        header = 4 + 2 + 1 + 3 * 4 + 8
        payload = 8 * ((nx + 1) * ny * nz + nx * (ny + 1) * nz + nx * ny * (nz + 1))
        assert os.path.getsize(path) == header + payload

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.grid"
        write_grid(path, ScalarField.zeros(GridDims(4, 4)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(GridFileError, match="magic"):
            read_grid(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.grid"
        write_grid(path, ScalarField.zeros(GridDims(4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(GridFileError, match="payload"):
            read_grid(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ver.grid"
        write_grid(path, ScalarField.zeros(GridDims(4, 4)))
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(GridFileError, match="version"):
            read_grid(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        import struct
        header = struct.pack("<4sHBIIId", b"PDFG", 1, 0,
                             70000, 70000, 70000, 1.0)
        path = tmp_path / "huge.grid"
        path.write_bytes(header)
        with pytest.raises(GridFileError, match="dimensions"):
            read_grid(path)

    @pytest.mark.parametrize("nx, nz, h", [(2, 1, 1.0), (0, 1, 1.0), (4, 0, 1.0),
                                           (4, 1, math.inf), (4, 1, -1.0),
                                           (4, 1, math.nan), (4, 1, 0.0)],
                             ids=["nx2", "nx0", "nz0", "inf", "neg", "nan", "zero"])
    def test_bad_header_dims_rejected(self, tmp_path, nx, nz, h):
        # a header GridDims refuses (nx or ny < 4, nz < 1, h not finite and
        # > 0) is a grid file error like every other bad header
        import struct
        header = struct.pack("<4sHBIIId", b"PDFG", 1, 0, nx, 4, nz, h)
        path = tmp_path / "dims.grid"
        path.write_bytes(header + bytes(8 * nx * 4 * nz))
        with pytest.raises(GridFileError, match="header"):
            read_grid(path)

    def test_payload_is_x_fastest(self, tmp_path):
        d = GridDims(4, 4)
        f = ScalarField.zeros(d)
        f.values[1, 0, 0] = 7.0  # second value in x-fastest order
        path = tmp_path / "order.grid"
        write_grid(path, f)
        body = np.frombuffer(path.read_bytes()[27:], dtype="<f8")
        assert body[1] == 7.0


class TestPgm:
    def test_constant_density_mid_gray(self, tmp_path):
        d = GridDims(8, 6)
        path = tmp_path / "c.pgm"
        render_pgm(ScalarField.full(d, 3.0), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 6\n255\n")
        assert set(raw[len(b"P5\n8 6\n255\n"):]) == {128}

    def test_checkerboard_exact_bytes(self, tmp_path):
        d = GridDims(4, 4)
        f = ScalarField.zeros(d)
        f.values[::2, ::2, 0] = 1.0
        f.values[1::2, 1::2, 0] = 1.0
        path = tmp_path / "cb.pgm"
        render_pgm(f, path)
        body = np.frombuffer(path.read_bytes()[len(b"P5\n4 4\n255\n"):],
                             dtype=np.uint8).reshape(4, 4)
        # rows run top to bottom (y decreasing), columns along x
        expect = np.zeros((4, 4), dtype=np.uint8)
        for row in range(4):
            for col in range(4):
                j = 3 - row
                expect[row, col] = 255 if (col % 2 == j % 2) else 0
        assert np.array_equal(body, expect)

    def test_flags_three_levels_and_solid_ring(self, tmp_path):
        d = GridDims(8, 8)
        flags = CellFlags.closed_box(d)
        flags.values[3, 3, 0] = CellType.EMPTY
        path = tmp_path / "f.pgm"
        render_pgm(flags, path)
        body = np.frombuffer(path.read_bytes()[len(b"P5\n8 8\n255\n"):],
                             dtype=np.uint8).reshape(8, 8)
        assert body[0, 0] == 255      # solid ring corner
        assert body[0, 3] == 255
        assert (body == 128).any()    # fluid interior
        assert (body == 0).any()      # the empty cell


class TestAtomicWrites:
    def test_written_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_grid(tmp_path / "s.grid", ScalarField.zeros(GridDims(4, 4)))
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "s.grid").st_mode & 0o777 == 0o644

    def test_write_leaves_no_temp_file(self, tmp_path):
        write_grid(tmp_path / "s.grid", ScalarField.zeros(GridDims(4, 4)))
        write_grid(tmp_path / "s.grid", ScalarField.full(GridDims(4, 4), 2.0))
        assert os.listdir(tmp_path) == ["s.grid"]


class TestConvergenceCsv:
    def make_log(self, n):
        log = ConvergenceLog(method="pd")
        for k in range(1, n + 1):
            log.record(0.1 / k, 0.01, 1e-3, 10 + k)
        return log

    def test_one_iteration_two_lines(self, tmp_path):
        path = tmp_path / "c.csv"
        write_convergence_csv(self.make_log(1), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "iter,residual,epsilon,eps_cg,cg_iters"

    def test_raw_values_preserved_full_precision(self, tmp_path):
        log = ConvergenceLog()
        log.record(1.0 / 3.0, 2.0 / 7.0, 1e-5, 42)
        path = tmp_path / "p.csv"
        write_convergence_csv(log, path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert float(row[1]) == 1.0 / 3.0
        assert float(row[2]) == 2.0 / 7.0
        assert row[4] == "42"

    def test_empty_log_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_convergence_csv(ConvergenceLog(), tmp_path / "e.csv")

    def test_mean_iterations_recomputable(self, tmp_path):
        log = self.make_log(7)
        path = tmp_path / "m.csv"
        write_convergence_csv(log, path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        mean_cg = np.mean([int(r[4]) for r in rows])
        assert mean_cg == pytest.approx(np.mean(log.cg_iters))


class TestRunConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig(scene=SceneSpec("dam", nx=32, ny=24, fill_fraction=0.4),
                        method="admm", frames=7, bc_mode="separating-standard",
                        save_pgm=True)
        back = RunConfig.from_json(cfg.to_json())
        assert back.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_json('{"scene": {"name": "dam"}, "warp": 9}')

    def test_unknown_scene_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown scene keys"):
            RunConfig.from_json('{"scene": {"name": "dam", "wings": 2}}')

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json('{"scene": {"name": "dam"}, "method": "sorcery"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            RunConfig.from_json("{nope")

    @pytest.mark.parametrize("key, value", [
        ("eps_abs", math.nan), ("eps_rel", math.inf), ("eps_cg_start", math.inf)])
    def test_non_finite_solver_value_rejected(self, key, value):
        # checked by the CgConfig, PdParams and AdmmParams the key feeds
        with pytest.raises(ConfigError):
            RunConfig(scene=SceneSpec("circular", nx=12, ny=12), **{key: value})

    @pytest.mark.parametrize("key", ["tau", "sigma", "theta", "rho"])
    def test_step_size_key_rejected(self, key):
        # the step sizes follow the guiding weights; a config cannot set them
        text = json.dumps({"scene": {"name": "circular"}, key: 0.5})
        with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: ['{key}']")):
            RunConfig.from_json(text)

    def test_solver_params_write_the_set_keys_over_the_defaults(self):
        # the stop keys over the guiding-weight steps, at any mean weight
        cfg = RunConfig(scene=SceneSpec("circular", nx=12, ny=12), max_iters=7,
                        eps_rel=0.0)
        stop = dict(max_iters=7, eps_abs=1e-3, eps_rel=0.0)
        for w_bar in (0.25, 2.0, 7.5):
            pd, admm = default_guiding_params(w_bar)
            assert cfg.solver_params(w_bar) == (dataclasses.replace(pd, **stop),
                                                dataclasses.replace(admm, **stop))

    def test_solver_params_match_the_benchmark(self):
        # bench/workloads.py keeps its own copy of the rule
        workloads = bench_workloads()
        for stop in ({}, dict(max_iters=17, eps_abs=1e-5, eps_rel=0.0)):
            cfg = RunConfig(scene=SceneSpec("circular", nx=12, ny=12), **stop)
            for w_bar in (0.25, 1.0, 2.5, 4.0):
                assert cfg.solver_params(w_bar) == workloads.solver_params(cfg, w_bar)


@pytest.mark.parametrize("name", ["dam-accelerated", "dam-standard"])
def test_benchmark_reads_the_carried_wall_set(name, tmp_path):
    # the dam workloads pass one BcState.initial(flags, eps=...) to every
    # liquid_step and count its nsep: that state is the set the scene
    # carries, and it holds the wall faces the solve left held
    workloads = bench_workloads()
    run = workloads.WORKLOADS[name](1, 3, str(tmp_path))
    for _ in range(3):
        run.frame()
        walls = run.state.carry.walls
        held = np.count_nonzero(walls.nsep[BoundaryFaces(run.state.flags).index])
        assert walls is run.bc_state and held > 0
        assert workloads.frame_record(run)["nsep"] == held


@pytest.mark.parametrize("name", ["guided-smoke", "upres", "dam-standard",
                                  "dam-accelerated"])
def test_benchmark_reads_every_frame_output(name, tmp_path):
    # one frame of each workload through what the benchmark reads of it:
    # check_frame and signature read vel.u, vel.v and vel.w, the density
    # and the particles; a 2D w is hashed as nx*ny*2 zero doubles
    workloads = bench_workloads()
    run = workloads.WORKLOADS[name](1, 1, str(tmp_path))
    run.frame()
    reasons, div_max = workloads.check_frame(run, run.cfg.eps_cg_final)
    assert reasons == [] and math.isfinite(div_max)
    st = run.state
    d = st.vel.dims
    assert d.is_2d and st.vel.w.shape == (d.nx, d.ny, 2)
    outputs = [st.vel.u, st.vel.v, np.zeros(d.nx * d.ny * 2),
               None if st.density is None else st.density.values,
               st.particles_pos, st.particles_vel]
    digest = hashlib.sha256()
    for a in outputs:
        if a is not None:
            assert np.isfinite(a).all()
            digest.update(a.tobytes())
    *counts, hexdigest = workloads.signature(run)
    assert hexdigest == digest.hexdigest()
    assert all(math.isfinite(c) for c in counts)


# work totals over short prefixes of the four workloads at seed 1: frames,
# and (outer iterations, CG iterations, wall sweeps, sum of per-frame nsep)
WORK = {"guided-smoke": (20, (93, 467, 0, 0)), "upres": (6, (25, 166, 0, 0)),
        "dam-standard": (20, (609, 1168, 0, 1161)),
        "dam-accelerated": (20, (0, 221, 21, 2406))}


@pytest.mark.parametrize("name", list(WORK))
def test_benchmark_work_stays_pinned(name, tmp_path):
    # the one perf figure that does not drift: a change that moves a count
    # moves its pin here and says why
    workloads = bench_workloads()
    frames, want = WORK[name]
    run = workloads.WORKLOADS[name](1, frames, str(tmp_path))
    totals = np.zeros(4, int)
    for _ in range(frames):
        run.frame()
        reasons, _ = workloads.check_frame(run, run.cfg.eps_cg_final)
        assert reasons == []
        rec = workloads.frame_record(run)
        totals += [rec["outer_iters"], rec["cg_iters"], rec["sweeps"], rec["nsep"]]
    assert tuple(totals) == want
