import json
import os

import numpy as np
import pytest

from pdfluids.cli import main
from pdfluids.fileio import read_grid


def run(args):
    return main([str(a) for a in args])


class TestCli:
    def test_simulate_plume(self, tmp_path):
        out = tmp_path / "plume"
        rc = run(["simulate", "--scene", "plume", "--nx", "16", "--ny", "16",
                  "--frames", "3", "--out", out, "--save-pgm"])
        assert rc == 0
        assert (out / "summary.csv").exists()
        assert (out / "plume_0001.pgm").exists()
        assert (out / "plume_0003.pgm").exists()

    def test_simulate_with_config_file(self, tmp_path):
        cfg = {"scene": {"name": "circular", "nx": 16, "ny": 16}, "frames": 2,
               "out_dir": str(tmp_path / "cfg_out"), "save_velocity": True}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = run(["simulate", "--config", cfg_path])
        assert rc == 0
        vel = read_grid(tmp_path / "cfg_out" / "vel_0002.grid")
        assert vel.dims.nx == 16

    def test_guide_circular(self, tmp_path):
        out = tmp_path / "guided"
        rc = run(["guide", "--scene", "circular", "--nx", "24", "--ny", "24",
                  "--frames", "2", "--out", out, "--save-logs"])
        assert rc == 0
        rows = (out / "summary.csv").read_text().strip().split("\n")
        assert rows[0] == "frame,iterations,cg_iters"
        assert len(rows) == 3
        assert (out / "conv_circular_0001.csv").exists()

    def test_guide_needs_target(self, tmp_path):
        rc = run(["guide", "--scene", "plume", "--nx", "16", "--ny", "16",
                  "--frames", "1", "--out", tmp_path / "x"])
        assert rc == 2

    def test_compare_methods_writes_two_csvs_and_summary(self, tmp_path):
        out = tmp_path / "cmp"
        rc = run(["compare-methods", "--scene", "circular", "--nx", "16",
                  "--ny", "16", "--frames", "2", "--out", out,
                  "--w-left", "2", "--w-right", "1"])
        assert rc == 0
        for method in ("pd", "admm"):
            rows = (out / f"compare_{method}.csv").read_text().strip().split("\n")
            assert len(rows) == 3
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "method,mean_iterations,mean_cg_iters"
        # the summary means equal the per-frame averages recomputed from files
        for line in summary[1:]:
            method, mean_iters, mean_cg = line.split(",")
            rows = (out / f"compare_{method}.csv").read_text().strip().split("\n")[1:]
            iters = [int(r.split(",")[1]) for r in rows]
            assert float(mean_iters) == pytest.approx(np.mean(iters))

    def test_dam_bc_choice_and_metric(self, tmp_path):
        out = tmp_path / "dam"
        rc = run(["dam", "--scene", "dam", "--nx", "20", "--ny", "16",
                  "--frames", "3", "--bc", "separating-accelerated",
                  "--out", out])
        assert rc == 0
        rows = (out / "ceiling_contact.csv").read_text().strip().split("\n")
        assert rows[0] == "frame,ceiling_cells,iterations,cg_iters"
        assert len(rows) == 4

    def test_upres_pipeline(self, tmp_path):
        coarse = tmp_path / "coarse"
        rc = run(["guide", "--scene", "circular", "--nx", "12", "--ny", "12",
                  "--frames", "2", "--out", coarse, "--save-velocity"])
        assert rc == 0
        fine = tmp_path / "fine"
        rc = run(["upres", "--scene", "circular", "--nx", "12", "--ny", "12",
                  "--frames", "2", "--out", fine, "--coarse-dir", coarse,
                  "--factor", "2", "--save-velocity"])
        assert rc == 0
        vel = read_grid(fine / "vel_0002.grid")
        assert vel.dims.nx == 24

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scene": {"name": "dam"}, "frames": 0}')
        assert run(["simulate", "--config", bad]) == 2

    def test_missing_scene_exits_2(self, tmp_path):
        assert run(["simulate", "--out", tmp_path]) == 2

    def test_nonconvergence_exits_3(self, tmp_path):
        cfg = {"scene": {"name": "circular", "nx": 16, "ny": 16},
               "frames": 1, "out_dir": str(tmp_path / "nc"),
               "max_iters": 1, "eps_abs": 1e-14, "eps_rel": 1e-14}
        p = tmp_path / "nc.json"
        p.write_text(json.dumps(cfg))
        assert run(["guide", "--config", p]) == 3

    @pytest.mark.parametrize("args, step", [
        (["simulate", "--scene", "plume"], "smoke_step"),
        (["dam", "--scene", "dam", "--bc", "regular"], "liquid_step")])
    def test_unconverged_step_exits_3(self, tmp_path, monkeypatch, args, step):
        import pdfluids.cli as cli
        real = getattr(cli, step)

        def unconverged(state, *a, **kw):
            real(state, *a, **kw)
            state.last_log.converged = False
            return state

        monkeypatch.setattr(cli, step, unconverged)
        assert run(args + ["--nx", "16", "--ny", "16", "--frames", "1",
                           "--out", tmp_path / "nc"]) == 3

    def test_compare_methods_nonconvergence_exits_3(self, tmp_path):
        cfg = {"scene": {"name": "circular", "nx": 16, "ny": 16}, "frames": 2,
               "max_iters": 1, "out_dir": str(tmp_path / "cmp")}
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps(cfg))
        assert run(["compare-methods", "--config", p]) == 3

    def test_compare_methods_exact_prox_and_frame_files(self, tmp_path, monkeypatch):
        import pdfluids.cli as cli
        real, seen = cli.smoke_step, []

        def recording(state, *a, **kw):
            seen.append(kw.get("exact_prox"))
            return real(state, *a, **kw)

        monkeypatch.setattr(cli, "smoke_step", recording)
        cfg = {"scene": {"name": "circular", "nx": 12, "ny": 12}, "frames": 1,
               "exact_prox": True, "out_dir": str(tmp_path / "cmp")}
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps(cfg))
        assert run(["compare-methods", "--config", p, "--save-logs"]) == 0
        assert seen == [True, True]
        # per-frame files of each method go below the output directory
        for method in ("pd", "admm"):
            assert (tmp_path / "cmp" / method / "conv_circular_0001.csv").exists()

    def test_dam_save_logs_writes_convergence_csv(self, tmp_path):
        out = tmp_path / "dam"
        rc = run(["dam", "--scene", "dam", "--nx", "16", "--ny", "12",
                  "--frames", "1", "--bc", "separating-accelerated",
                  "--out", out, "--save-logs", "--save-pgm"])
        assert rc == 0
        rows = (out / "conv_dam_0001.csv").read_text().strip().split("\n")
        assert rows[0] == "iter,residual,epsilon,eps_cg,cg_iters"
        assert len(rows) >= 2
        assert (out / "flags_0001.pgm").exists()

    def test_simulate_liquid_save_pgm_renders_flags(self, tmp_path):
        out = tmp_path / "liquid"
        rc = run(["simulate", "--scene", "dam", "--nx", "16", "--ny", "12",
                  "--frames", "2", "--out", out, "--save-pgm"])
        assert rc == 0
        assert (out / "flags_0001.pgm").exists()
        assert (out / "flags_0002.pgm").exists()

    def test_guiding_cg_failure_exits_3(self, tmp_path, monkeypatch):
        import pdfluids.guiding as guiding
        real = guiding._cg_velocity

        def capped(apply_op, rhs, tol, max_iters):
            return real(apply_op, rhs, tol, 1)

        monkeypatch.setattr(guiding, "_cg_velocity", capped)
        assert run(["guide", "--scene", "circular", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--method", "direct",
                    "--out", tmp_path / "g"]) == 3


class TestBuildConfig:
    """Flags are written over the raw config before the scene defaults
    (h = 1/nx, dt by scene) resolve."""

    @staticmethod
    def build(argv):
        from pdfluids.cli import _build_config, build_parser
        return _build_config(build_parser().parse_args([str(a) for a in argv]))

    @staticmethod
    def config(tmp_path, data):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(data))
        return p

    def test_scene_flag_with_nx_sets_h(self):
        cfg = self.build(["simulate", "--scene", "plume", "--nx", "16"])
        assert cfg.scene.nx == 16 and cfg.scene.h == 1.0 / 16

    def test_nx_flag_over_config_without_h(self, tmp_path):
        p = self.config(tmp_path, {"scene": {"name": "circular", "nx": 16}})
        cfg = self.build(["simulate", "--config", p, "--nx", "32"])
        assert cfg.scene.nx == 32 and cfg.scene.h == 1.0 / 32

    def test_scene_flag_over_smoke_config_takes_liquid_dt(self, tmp_path):
        p = self.config(tmp_path, {"scene": {"name": "circular", "nx": 16}})
        cfg = self.build(["dam", "--config", p, "--scene", "dam"])
        assert cfg.scene.name == "dam" and cfg.scene.dt == 0.01

    def test_explicit_h_and_dt_kept(self, tmp_path):
        p = self.config(tmp_path, {"scene": {"name": "circular", "nx": 16,
                                             "h": 0.05, "dt": 0.02}})
        cfg = self.build(["dam", "--config", p, "--scene", "dam", "--nx", "32"])
        assert cfg.scene.nx == 32
        assert cfg.scene.h == 0.05 and cfg.scene.dt == 0.02

    def test_seed_flag_sets_scene_seed(self):
        cfg = self.build(["simulate", "--scene", "plume", "--seed", "7"])
        assert cfg.scene.seed == 7
