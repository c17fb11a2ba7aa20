import json
import math
import os
import struct
import subprocess
import sys

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

    @pytest.mark.parametrize("key", ["tau", "sigma", "theta", "rho"])
    def test_step_size_key_exits_2(self, tmp_path, capsys, key):
        # the step sizes follow the guiding weights; a config cannot set them
        p = tmp_path / "steps.json"
        p.write_text(json.dumps({"scene": {"name": "circular", "nx": 12, "ny": 12},
                                 "frames": 1, "out_dir": str(tmp_path / "out"),
                                 key: 0.5}))
        assert run(["guide", "--config", p]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command, run_keys, scene_keys", [
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
        ("guide", {}, {"omega": math.nan}),
        ("guide", {"eps_abs": math.inf}, {}),
        ("simulate", {}, {"obstacle": [0.4, 0.4, math.inf, 0.6]}),
        ("guide", {}, {"nz": 2}),
        ("simulate", {}, {"obstacle": [0, 0, 1, 1]}),
        ("guide", {"method": "admm"}, {"w_left": 1e-155, "w_right": 1e-155}),
        ("simulate", {}, {"obstacle": [-0.5, -0.5, -0.25, -0.25]}),
        ("simulate", {}, {"obstacle": [0.6, 0.6, 0.4, 0.4]}),
        ("simulate", {}, {"particles_per_cell": -4}),
        ("simulate", {}, {"particles_per_cell": 0}),
        ("simulate", {}, {"seed": -1}),
        ("guide", {}, {"w_left": 1e-200, "w_right": 1e-200}),
        ("guide", {}, {"w_left": 1e200, "w_right": 1e200}),
        ("simulate", {}, {"emitter": [1, 0.4, 1, 0.6]}),
        ("simulate", {}, {"obstacle": [0.99, 0.4, 1, 0.6]}),
        ("simulate", {}, {"obstacle": [0, 0, 0.05, 1]}),
    ], ids=["nx", "h", "dt", "w_left", "radius_left", "obstacle",
            "coarse-mismatched", "coarse-truncated", "omega-str", "nx-float",
            "nx-bool", "seed-float", "frames-float", "max_cg_iters-float",
            "exact_prox-str", "obstacle-str", "h-inf", "buoyancy-nan",
            "w_left-inf", "radius_left-inf", "omega-nan",
            "eps_abs-inf", "obstacle-inf", "nz-no-open-cell",
            "obstacle-no-open-cell", "rho-inverse-overflows", "obstacle-negative",
            "obstacle-reversed", "particles_per_cell-negative", "particles_per_cell-0",
            "seed-negative", "rho-underflows", "rho-overflows", "emitter-empty",
            "obstacle-right-wall", "obstacle-left-wall"])
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

    @pytest.mark.parametrize("value", [0.5, math.nan], ids=["nonzero", "nan"])
    def test_upres_coarse_grid_with_a_live_z_block_exits_2(self, tmp_path, capsys, value):
        # a 2D coarse frame whose z block is not all zero
        from pdfluids.fields import GridDims, VelocityField
        from pdfluids.fileio import write_grid
        coarse = tmp_path / "coarse"
        coarse.mkdir()
        path = coarse / "vel_0001.grid"
        write_grid(path, VelocityField.zeros(GridDims(12, 12, 1, 1.0 / 12)))
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<d", value)   # the last z face
        path.write_bytes(bytes(raw))
        assert run(["upres", "--scene", "circular", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", tmp_path / "fine", "--factor", "2",
                    "--coarse-dir", coarse]) == 2
        err = capsys.readouterr().err
        assert "vel_0001.grid" in err and "z block" in err

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

    def test_upres_scalar_coarse_grid_exits_2(self, tmp_path, capsys):
        from pdfluids.fields import GridDims, ScalarField
        from pdfluids.fileio import write_grid
        coarse = tmp_path / "coarse"
        coarse.mkdir()
        write_grid(coarse / "vel_0001.grid", ScalarField.zeros(GridDims(12, 12, 1, 1.0 / 12)))
        assert run(["upres", "--scene", "circular", "--nx", "12", "--ny", "12",
                    "--frames", "1", "--out", tmp_path / "fine", "--factor", "2",
                    "--coarse-dir", coarse]) == 2
        err = capsys.readouterr().err
        assert "vel_0001.grid" in err and "not a velocity grid" in err

    @pytest.mark.parametrize("command", ["simulate", "guide", "upres", "compare-methods",
                                         "dam"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        p = tmp_path / "run.json"
        p.write_bytes(b"\xff\xfe" + '{"scene": {"name": "circular"}}'.encode("utf-16-le"))
        assert run([command, "--config", p]) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.json"]

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
        # iop's one projection fails at a CG cap of one iteration (at 16^2
        # the preconditioner is one dense grid, and one iteration converges)
        cfg = {"scene": {"name": "circular", "nx": 32, "ny": 32},
               "frames": 1, "out_dir": str(tmp_path / "nc"), "method": "iop",
               "max_cg_iters": 1}
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
        ("dam", "circular"), ("compare-methods", "plume"), ("upres", "dam")])
    def test_scene_the_command_cannot_run_exits_2(self, tmp_path, command, scene):
        # dam needs a liquid scene, compare-methods a guiding target and
        # upres a smoke scene (here with a valid coarse frame); all are
        # rejected before any output is written
        from pdfluids.fields import GridDims, VelocityField
        from pdfluids.fileio import write_grid
        out = tmp_path / "out"
        args = [command, "--scene", scene, "--nx", "16", "--ny", "16",
                "--frames", "1", "--out", out]
        if command == "upres":
            coarse = tmp_path / "coarse"
            coarse.mkdir()
            write_grid(coarse / "vel_0001.grid",
                       VelocityField.zeros(GridDims(16, 16, 1, 1.0 / 16)))
            args += ["--coarse-dir", coarse, "--factor", "1"]
        assert run(args) == 2
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

    def test_dam_accelerated_carries_one_wall_state(self, tmp_path):
        # the scene state carries the wall set through every frame: the
        # run's convergence logs are byte for byte those of a plain library
        # loop, and not those of a loop that passes a fresh set every frame
        from pdfluids.cli import _build_config, build_parser
        from pdfluids.fileio import write_convergence_csv
        from pdfluids.scenes import build_scene, liquid_step
        from pdfluids.separating import BcState
        out, frames = tmp_path / "dam", 12
        args = [str(a) for a in ["dam", "--scene", "dam", "--nx", "20", "--ny", "16",
                                 "--frames", frames, "--bc", "separating-accelerated",
                                 "--out", out, "--save-logs"]]
        assert run(args) == 0
        cfg = _build_config(build_parser().parse_args(args))
        logs = {}
        for carry in (True, False):
            state, _ = build_scene(cfg.scene)
            for frame in range(1, frames + 1):
                fresh = None if carry else BcState.initial(state.flags)
                liquid_step(state, mode=cfg.bc_mode, cg=cfg.cg, bc_state=fresh)
                path = tmp_path / "lib.csv"
                write_convergence_csv(state.last_log, path)
                logs[carry, frame] = path.read_bytes()
        cli_logs = [(out / f"conv_dam_{f:04d}.csv").read_bytes()
                    for f in range(1, frames + 1)]
        assert cli_logs == [logs[True, f] for f in range(1, frames + 1)]
        assert cli_logs != [logs[False, f] for f in range(1, frames + 1)]

    def test_dam_standard_output_unchanged_by_the_wall_state(self, tmp_path, monkeypatch):
        # the standard solver reads no wall set, so the run, which carries
        # one, writes byte for byte what it writes with a fresh set per frame
        import pdfluids.cli as cli
        from pdfluids.separating import BcState

        def dam(out):
            assert run(["dam", "--scene", "dam", "--nx", "16", "--ny", "12",
                        "--frames", "3", "--bc", "separating-standard", "--out", out,
                        "--save-logs", "--save-velocity"]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        carried = dam(tmp_path / "carried")
        real = cli.liquid_step
        monkeypatch.setattr(cli, "liquid_step", lambda state, **kw: real(
            state, **kw, bc_state=BcState.initial(state.flags)))
        assert dam(tmp_path / "fresh") == carried
        assert len(carried) == 7   # summary, three logs, three velocity grids

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


# -- one set of bits under any BLAS thread count ---------------------------------
#
# OpenBLAS splits a large enough call over its threads, and the split
# changes the rounding; every BLAS call of the package is one it runs whole.
# OpenBLAS runs no more threads than the host has cores, so a one-core host
# cannot tell the two settings apart and these tests show nothing there.

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, threads=1, check=True):
    """`python args` in a subprocess on this tree's package, with every
    BLAS thread variable set to `threads`."""
    env = dict(os.environ, **{v: str(threads) for v in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def run_process(args, out, threads):
    """`python -m pdfluids args` saving velocities and logs to `out`; the
    output files by name."""
    run_python(["-m", "pdfluids", *map(str, args), "--out", str(out),
                "--save-velocity", "--save-logs"], threads)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# the bench's dam (fill 0.5 x 0.9); at the CLI's default fill the coarsest
# grid of these sizes holds 112 cells, whose products OpenBLAS runs whole
DAM = {"scene": {"name": "dam", "fill_fraction": 0.5, "fill_height": 0.9}}


# Frame counts: with whole BLAS calls instead (one ddot over more than 10000
# entries, one gemm per product of the dense inverse and the SMW step), each
# run below writes different bits under 1 and 2 threads on a two-core host:
# the guided 128^2 frame through its dot products, the standard dam from its
# first frame and the accelerated one from its fifth through the coarse
# inverse.
@pytest.mark.parametrize("args", [
    ["guide", "--scene", "circular", "--nx", "128", "--ny", "128", "--frames", "1"],
    ["dam", "--bc", "separating-accelerated", "--nx", "100", "--ny", "70",
     "--frames", "6"],
    ["dam", "--bc", "separating-standard", "--nx", "50", "--ny", "35", "--frames", "2"]],
    ids=["guide", "dam-accelerated", "dam-standard"])
def test_process_outputs_do_not_depend_on_blas_threads(tmp_path, args):
    if args[0] == "dam":
        (tmp_path / "dam.json").write_text(json.dumps(DAM))
        args = [*args, "--config", tmp_path / "dam.json"]
    one = run_process(args, tmp_path / "one", 1)
    two = run_process(args, tmp_path / "two", 2)
    assert any(name.startswith("vel_") for name in one)
    assert one == two


# every size of the coarsest dense inverse that is not one LAPACK call, the
# SMW step at every k it takes, the coarsest grid's matrix-vector product,
# _dot around OpenBLAS's split, and the blur's banded products on lines of
# 64 to 300 faces and past one product's _GEMM_SERIAL bound; the inputs are
# made without BLAS
KERNELS = """
import hashlib
import numpy as np
from pdfluids import blur, fields, pressure
from pdfluids.fields import CellFlags, CellType, GridDims, ScalarField, VelocityField
from pdfluids.guiding import split_scalar_field
rng = np.random.default_rng(0)
digest = hashlib.sha256()
def spd(n):
    a = rng.random((n, n))
    a += a.T
    a[np.diag_indices(n)] += 2.0 * n
    return a
for n in range(pressure._LEAF + 1, pressure._DENSE_CELLS + 1):
    inv = pressure._dense_inverse(spd(n), [])
    digest.update(inv.tobytes())
    digest.update((inv @ rng.random(n)).tobytes())
for k in range(1, pressure._LEAF + 1):
    inv = pressure._dense_inverse(spd(pressure._DENSE_CELLS), [])
    cells = np.sort(rng.choice(pressure._DENSE_CELLS, k, replace=False))
    pressure._smw(inv, cells, rng.choice([-1.0, 1.0], k))
    digest.update(inv.tobytes())
for n in (10000, 10001, 16384, 100003):
    a, b = rng.random(n), rng.random(n)
    digest.update(np.float64(fields._dot(a, b)).tobytes())
for dims in (GridDims(64, 300), GridDims(300, 70), GridDims(64, 80, 12), GridDims(10, 90, 70)):
    flags = CellFlags.closed_box(dims)
    flags.values[20:30, 30:40] = CellType.SOLID
    for r in (2.0, 3.5):
        radius = split_scalar_field(dims, flags, r, r, zero_at_solid=True)
        vel = VelocityField._of(dims, rng.random(VelocityField.zeros(dims).as_flat().size))
        for transpose in (False, True):
            digest.update(blur.blur_obstacle_aware(vel, radius, flags, transpose).as_flat().tobytes())
k = rng.random((40, 40))
panels = [(slice(i, i + 8), slice(max(0, i - 4), i + 12), k[i:i + 8, max(0, i - 4):i + 12].copy())
          for i in range(0, 40, 8)]
b = rng.random((3, 40, 3000))
out = np.empty_like(b)
pressure._band_matmul(panels, b, out)
digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_pressure_kernels_do_not_depend_on_blas_threads():
    one, two = (run_python(["-c", KERNELS], threads).stdout for threads in (1, 2))
    assert len(one) > 60 and one == two


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["guide", "--nx", "x"], 2)],
                         ids=["help", "usage-error"])
def test_module_entry_exit_codes(argv, code):
    assert run_python(["-m", "pdfluids", *argv], check=False).returncode == code


def test_main_runs_in_process(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.argv", ["pdfluids", "simulate", "--scene", "plume",
                                     "--nx", "8", "--ny", "8", "--frames", "1",
                                     "--out", str(tmp_path)])
    assert main() == 0 and (tmp_path / "summary.csv").exists()
