import math
import os

import numpy as np
import pytest

from pdfluids.config import ConfigError, RunConfig
from pdfluids.fields import CellFlags, CellType, GridDims, ScalarField, VelocityField
from pdfluids.fileio import (GridFileError, read_grid, render_pgm,
                             write_convergence_csv, write_grid)
from pdfluids.optim import ConvergenceLog
from pdfluids.scenes import SceneSpec

from conftest import random_velocity


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
        d = GridDims(9, 7, 1, 0.125)
        vel = random_velocity(d, rng)
        vel.w[...] = rng.standard_normal(vel.w.shape)
        path = tmp_path / "v.grid"
        write_grid(path, vel)
        back = read_grid(path)
        assert isinstance(back, VelocityField)
        for a in range(3):
            assert np.array_equal(back.component(a), vel.component(a))

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
                        rho=2.5, save_pgm=True)
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
        ("eps_abs", math.nan), ("eps_rel", math.inf), ("eps_cg_start", math.inf),
        ("tau", math.inf), ("theta", math.nan), ("rho", math.nan)])
    def test_non_finite_solver_value_rejected(self, key, value):
        # checked by the CgConfig, PdParams and AdmmParams the key feeds
        with pytest.raises(ConfigError):
            RunConfig(scene=SceneSpec("circular", nx=12, ny=12), **{key: value})

    def test_solver_params_write_the_set_keys_over_the_defaults(self):
        cfg = RunConfig(scene=SceneSpec("circular", nx=12, ny=12), tau=2.0,
                        rho=3.0, max_iters=7, eps_rel=0.0)
        pd, admm = cfg.solver_params(2.0)
        assert (pd.tau, pd.sigma, pd.theta) == (2.0, 2.44 / (0.58 / 2.0), 0.3)
        assert (admm.rho, pd.max_iters, admm.max_iters) == (3.0, 7, 7)
        assert pd.eps_abs == admm.eps_abs == 1e-3 and pd.eps_rel == admm.eps_rel == 0.0
