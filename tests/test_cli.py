import json
import math
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

    def test_every_output_is_an_atomic_write(self, tmp_path, monkeypatch):
        """The summary CSV too goes through the temp-file-plus-rename writer,
        and every written file's mode follows the umask."""
        from pdfluids import fileio
        targets = []
        write = fileio._atomic_write

        def recording_write(path, data):
            targets.append(os.path.basename(path))
            write(path, data)

        monkeypatch.setattr(fileio, "_atomic_write", recording_write)
        out = tmp_path / "plume"
        old = os.umask(0o022)
        try:
            rc = run(["simulate", "--scene", "plume", "--nx", "12", "--ny", "12",
                      "--frames", "1", "--out", out, "--save-pgm",
                      "--save-velocity", "--save-logs"])
        finally:
            os.umask(old)
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == ["conv_plume_0001.csv", "plume_0001.pgm", "summary.csv",
                         "vel_0001.grid"]
        assert sorted(targets) == names
        for name in names:
            assert os.stat(out / name).st_mode & 0o777 == 0o644, name

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

    def test_upres_step_sizes_follow_the_guiding_weights(self, tmp_path, monkeypatch):
        # plume has no target of its own: the weights come with each frame's
        # upsampled target, and so must tau and sigma
        import pdfluids.cli as cli
        from pdfluids.guiding import default_guiding_params
        coarse = tmp_path / "coarse"
        assert run(["simulate", "--scene", "plume", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", coarse, "--save-velocity"]) == 0
        seen = []
        real = cli.smoke_step

        def spy(state, guide_cfg, **kw):
            seen.append((guide_cfg.w_bar, kw["pd_params"], kw["admm_params"]))
            return real(state, guide_cfg, **kw)

        monkeypatch.setattr(cli, "smoke_step", spy)
        assert run(["upres", "--scene", "plume", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", tmp_path / "fine", "--factor", "2",
                    "--coarse-dir", coarse, "--w-left", "4", "--w-right", "1"]) == 0
        (w_bar, pd, admm), = seen
        assert w_bar > 2.0
        pd_ref, admm_ref = default_guiding_params(w_bar)
        assert (pd.tau, pd.sigma, admm.rho) == (pd_ref.tau, pd_ref.sigma, admm_ref.rho)

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scene": {"name": "dam"}, "frames": 0}')
        assert run(["simulate", "--config", bad]) == 2

    @pytest.mark.parametrize("command, run_keys, scene_keys", [
        ("guide", {"theta": 2.0}, {}),
        ("simulate", {}, {"nx": 3}),
        ("simulate", {}, {"h": -1}),
        ("simulate", {}, {"dt": -0.1}),
        ("guide", {}, {"w_left": 0}),
        ("guide", {}, {"radius_left": -1}),
        ("simulate", {}, {"obstacle": [0.4, 0.4]}),
        ("upres", {"coarse_dir": "mismatched"}, {}),
        ("upres", {"coarse_dir": "truncated"}, {}),
        ("guide", {}, {"omega": "fast"}),
        ("simulate", {}, {"nx": 12.5}),
        ("simulate", {}, {"nx": True}),
        ("simulate", {}, {"seed": 1.5}),
        ("simulate", {"frames": 1.5}, {}),
        ("simulate", {"max_cg_iters": 2.5}, {}),
        ("guide", {"exact_prox": "no"}, {}),
        ("simulate", {}, {"obstacle": [0.4, 0.4, "0.6", 0.6]}),
        ("simulate", {}, {"h": math.inf}),
        ("simulate", {}, {"buoyancy": math.nan}),
        ("guide", {}, {"w_left": math.inf}),
        ("guide", {}, {"radius_left": math.inf}),
        ("guide", {"tau": math.nan}, {}),
        ("guide", {}, {"omega": math.nan}),
        ("guide", {"eps_abs": math.inf}, {}),
        ("simulate", {}, {"obstacle": [0.4, 0.4, math.inf, 0.6]}),
        ("guide", {}, {"nz": 2}),
        ("simulate", {}, {"obstacle": [0, 0, 1, 1]}),
    ], ids=["theta", "nx", "h", "dt", "w_left", "radius_left", "obstacle",
            "coarse-mismatched", "coarse-truncated", "omega-str", "nx-float",
            "nx-bool", "seed-float", "frames-float", "max_cg_iters-float",
            "exact_prox-str", "obstacle-str", "h-inf", "buoyancy-nan",
            "w_left-inf", "radius_left-inf", "tau-nan", "omega-nan",
            "eps_abs-inf", "obstacle-inf", "nz-no-open-cell",
            "obstacle-no-open-cell"])
    def test_bad_input_exits_2(self, tmp_path, command, run_keys, scene_keys):
        from pdfluids.fields import GridDims, VelocityField
        from pdfluids.fileio import write_grid
        coarse = tmp_path / "coarse"
        coarse.mkdir()
        # 10x10 upsamples to 20x20, not the 24x24 fine grid of a 12x12 scene
        path = coarse / "vel_0001.grid"
        n = 10 if run_keys.get("coarse_dir") == "mismatched" else 12
        write_grid(path, VelocityField.zeros(GridDims(n, n, 1, 1.0 / n)))
        if run_keys.get("coarse_dir") == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        cfg = {"scene": {"name": "circular", "nx": 12, "ny": 12, **scene_keys},
               "frames": 1, "out_dir": str(tmp_path / "out"), "upres_factor": 2,
               **run_keys}
        if "coarse_dir" in run_keys:
            cfg["coarse_dir"] = str(coarse)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert run([command, "--config", p]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--w-left", "inf"), ("--radius-left", "inf"), ("--w-right", "nan")])
    def test_non_finite_flag_exits_2(self, tmp_path, flag, value):
        assert run(["guide", "--scene", "circular", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", tmp_path, flag, value]) == 2

    def test_upres_non_finite_coarse_grid_exits_2(self, tmp_path, capsys):
        from pdfluids.fields import GridDims, VelocityField
        from pdfluids.fileio import write_grid
        coarse = tmp_path / "coarse"
        coarse.mkdir()
        vel = VelocityField.zeros(GridDims(12, 12, 1, 1.0 / 12))
        vel.v[5, 6, 0] = math.nan
        write_grid(coarse / "vel_0001.grid", vel)
        assert run(["upres", "--scene", "circular", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", tmp_path / "fine", "--factor", "2",
                    "--coarse-dir", coarse]) == 2
        err = capsys.readouterr().err
        assert "vel_0001.grid" in err and "non-finite" in err

    @pytest.mark.parametrize("h", [0.5, math.inf], ids=["wrong-h", "inf-h"])
    def test_upres_coarse_grid_with_a_bad_h_exits_2(self, tmp_path, capsys, h):
        # a 16x16 coarse grid refines to the 32x32 fine grid of the scene
        # only with the scene's h = 1/16
        from pdfluids.fields import GridDims, VelocityField
        from pdfluids.fileio import _HEADER, write_grid
        coarse = tmp_path / "coarse"
        coarse.mkdir()
        path = coarse / "vel_0001.grid"
        write_grid(path, VelocityField.zeros(GridDims(16, 16, 1, 1.0 / 16)))
        raw = path.read_bytes()
        header = _HEADER.unpack_from(raw)[:-1] + (h,)
        path.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size:])
        assert run(["upres", "--scene", "circular", "--nx", "16", "--ny", "16",
                    "--frames", "1", "--out", tmp_path / "fine", "--factor", "2",
                    "--coarse-dir", coarse]) == 2
        err = capsys.readouterr().err
        assert "vel_0001.grid" in err
        if h == 0.5:   # the message names both grids
            assert "h=0.25" in err and f"h={1.0 / 32}" in err

    def test_compare_methods_rejects_method_flag(self, tmp_path, capsys):
        # compare-methods always runs pd and then admm
        with pytest.raises(SystemExit) as exc:
            run(["compare-methods", "--scene", "circular", "--nx", "12", "--ny", "12",
                 "--frames", "1", "--out", tmp_path / "cmp", "--method", "iop"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("command, scene", [
        ("simulate", "plume"), ("guide", "circular"), ("upres", "circular"),
        ("compare-methods", "circular"), ("dam", "dam")])
    @pytest.mark.parametrize("out", ["empty", "file"])
    def test_bad_output_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                          command, scene, out):
        monkeypatch.chdir(tmp_path)
        path = ""
        if out == "file":
            path = tmp_path / "taken"
            path.write_text("not a directory")
        args = [command, "--scene", scene, "--nx", "12", "--ny", "12",
                "--frames", "1", "--out", path]
        if command == "upres":
            args += ["--coarse-dir", tmp_path / "coarse"]
        assert run(args) == 2
        assert "output directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ([] if out == "empty" else ["taken"])

    def test_compare_methods_per_method_directory_taken_exits_2(self, tmp_path, capsys):
        (tmp_path / "pd").write_text("not a directory")
        assert run(["compare-methods", "--scene", "circular", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", tmp_path, "--save-logs"]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_missing_scene_exits_2(self, tmp_path):
        assert run(["simulate", "--out", tmp_path]) == 2

    def test_nonconvergence_exits_3(self, tmp_path):
        cfg = {"scene": {"name": "circular", "nx": 16, "ny": 16},
               "frames": 1, "out_dir": str(tmp_path / "nc"),
               "max_iters": 1, "eps_abs": 1e-14, "eps_rel": 1e-14}
        p = tmp_path / "nc.json"
        p.write_text(json.dumps(cfg))
        assert run(["guide", "--config", p]) == 3

    def test_iop_nonconvergence_exits_3(self, tmp_path):
        # iop runs under the run's cap and stop tolerances
        cfg = {"scene": {"name": "circular", "nx": 16, "ny": 16},
               "frames": 1, "out_dir": str(tmp_path / "nc"), "method": "iop",
               "max_iters": 1, "eps_abs": 0.0, "eps_rel": 0.0}
        p = tmp_path / "nc.json"
        p.write_text(json.dumps(cfg))
        assert run(["guide", "--config", p]) == 3

    @pytest.mark.parametrize("args, step", [
        (["simulate", "--scene", "plume"], "smoke_step"),
        (["dam", "--scene", "dam", "--bc", "regular"], "liquid_step"),
        (["guide", "--scene", "circular", "--method", "iop"], "smoke_step")])
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

    @pytest.mark.parametrize("command, scene", [
        ("dam", "circular"), ("compare-methods", "plume")])
    def test_scene_the_command_cannot_run_exits_2(self, tmp_path, command, scene):
        # dam needs a liquid scene, compare-methods a guiding target; both
        # are rejected before any output is written
        out = tmp_path / "out"
        assert run([command, "--scene", scene, "--nx", "16", "--ny", "16",
                    "--frames", "1", "--out", out]) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["simulate", "guide", "upres",
                                         "compare-methods", "dam"])
    def test_every_flag_sets_the_config_key_it_names(self, command):
        import dataclasses
        from pdfluids.cli import _SCENE, build_parser
        from pdfluids.config import RunConfig
        from pdfluids.scenes import SceneSpec
        run_keys = {f.name for f in dataclasses.fields(RunConfig)} - {"scene"}
        scene_keys = {_SCENE + f.name for f in dataclasses.fields(SceneSpec)}
        args = vars(build_parser().parse_args([command]))
        assert args.pop("command") == command
        assert args.pop("config") is None
        assert set(args) <= run_keys | scene_keys
        # an absent flag writes nothing over the config
        assert all(v is None for v in args.values())
