"""Command-line entry points.

Subcommands:
    simulate         run a scene with plain pressure projection
    guide            run the guided smoke pipeline
    upres            upsample a saved coarse velocity sequence and rerun fine
    compare-methods  run PD and ADMM side by side on one scene
    dam              run the liquid scene with a selectable wall treatment

Each takes an optional JSON config plus flag overrides.  Exit codes: 0 on
success, 2 for configuration errors, 3 when a solver fails to converge or
meets non-finite values.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import METHODS, ConfigError, RunConfig, read_json
from .fileio import (_write_csv, read_grid, render_pgm, write_convergence_csv,
                     write_grid)
from .pressure import PoissonConvergenceError
from .scenes import (BC_MODES, SCENE_NAMES, build_scene, ceiling_contact_cells,
                     liquid_step, smoke_step, upsampled_target)


class SolverFailure(RuntimeError):
    pass


_SCENE = "scene."   # the dest prefix of the flags that set a SceneSpec field


def _build_config(args) -> RunConfig:
    """The config file's raw values (or just the scene name) with every
    given flag written over the key it names, so the scene defaults
    (h = 1/nx, dt by scene) resolve after the flags; an explicit h or dt in
    the file is kept."""
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config")}
    if args.config:
        data = read_json(args.config)
    elif _SCENE + "name" in flags:
        data = {"scene": {}}
    else:
        raise ConfigError("either --config or --scene is required")
    scene = data.get("scene")
    for key, value in flags.items():
        if not key.startswith(_SCENE):
            data[key] = value
        elif isinstance(scene, dict):
            scene[key[len(_SCENE):]] = value
    return RunConfig.from_dict(data)


def _make_dirs(path):
    """os.makedirs; a path that cannot be made a directory (empty, or an
    existing file) is a ConfigError (exit 2)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc


def _frame_outputs(cfg: RunConfig, state):
    """The per-frame files the save flags ask for, in cfg.out_dir: the
    density image (the flags image when the scene carries no density), the
    velocity grid and the convergence log."""
    if not (cfg.save_pgm or cfg.save_velocity or cfg.save_logs):
        return
    _make_dirs(cfg.out_dir)
    frame = f"{state.frame:04d}"
    if cfg.save_pgm:
        if state.density is not None:
            render_pgm(state.density,
                       os.path.join(cfg.out_dir, f"{cfg.scene.name}_{frame}.pgm"))
        else:
            render_pgm(state.flags, os.path.join(cfg.out_dir, f"flags_{frame}.pgm"))
    if cfg.save_velocity:
        write_grid(os.path.join(cfg.out_dir, f"vel_{frame}.grid"), state.vel)
    if cfg.save_logs and len(state.last_log):
        write_convergence_csv(state.last_log, os.path.join(
            cfg.out_dir, f"conv_{cfg.scene.name}_{frame}.csv"))


def _run_frames(cfg: RunConfig, state, step, summary: str, extra=()):
    """Run cfg.frames frames of step(frame) on `state`.  A frame whose log
    has not converged raises SolverFailure (exit 3); every other adds the
    row (frame, *extra columns, outer iterations, CG iterations) to the
    CSV at `summary` and writes its files to cfg.out_dir.  `extra` holds
    (column name, function of the state) pairs.  Returns the rows."""
    _make_dirs(os.path.dirname(summary))
    rows = []
    for frame in range(cfg.frames):
        step(frame)
        log = state.last_log
        if not log.converged:
            raise SolverFailure(f"{log.method} did not converge at frame "
                                f"{state.frame} (residual {log.final_residual:.3e})")
        rows.append((state.frame, *(column(state) for _, column in extra),
                     len(log), log.total_cg_iters))
        _frame_outputs(cfg, state)
    _write_csv(summary, ["frame", *(name for name, _ in extra),
                         "iterations", "cg_iters"], rows)
    return rows


def _guided_step(cfg: RunConfig, state, target):
    """The step of a guided run: `target(frame)` gives the frame's guiding
    config, whose mean weight sets the default step sizes."""
    def step(frame):
        guide_cfg = target(frame).with_current(state.vel)
        pd, admm = cfg.solver_params(guide_cfg.w_bar)
        smoke_step(state, guide_cfg, method=cfg.method, pd_params=pd,
                   admm_params=admm, cg=cfg.cg, exact_prox=cfg.exact_prox)
    return step


def _guided_scene(cfg: RunConfig):
    state, guide_cfg = build_scene(cfg.scene)
    if guide_cfg is None:
        raise ConfigError(f"scene {cfg.scene.name!r} defines no guiding target")
    return state, guide_cfg


def cmd_simulate(cfg: RunConfig) -> int:
    state, _ = build_scene(cfg.scene)
    if cfg.scene.is_liquid:
        step = lambda _: liquid_step(state, mode=cfg.bc_mode, cg=cfg.cg)
    else:
        step = lambda _: smoke_step(state, None, cg=cfg.cg)
    _run_frames(cfg, state, step, os.path.join(cfg.out_dir, "summary.csv"))
    return 0


def cmd_guide(cfg: RunConfig, target_override=None) -> int:
    if target_override is None:
        state, guide_cfg = _guided_scene(cfg)
        target = lambda _: guide_cfg
    else:
        state, _ = build_scene(cfg.scene)
        target = lambda frame: target_override(frame, state)
    _run_frames(cfg, state, _guided_step(cfg, state, target),
                os.path.join(cfg.out_dir, "summary.csv"))
    return 0


def cmd_upres(cfg: RunConfig) -> int:
    if not cfg.coarse_dir:
        raise ConfigError("upres needs --coarse-dir with saved velocity grids")

    def target(frame, state):
        path = os.path.join(cfg.coarse_dir, f"vel_{frame + 1:04d}.grid")
        if not os.path.exists(path):
            raise ConfigError(f"missing coarse velocity frame {path}")
        try:
            coarse = read_grid(path)
            coarse.validate_finite()
            return upsampled_target(coarse, cfg.upres_factor, cfg.scene, state)
        except ValueError as exc:   # a bad, non-finite or mismatched coarse grid
            raise ConfigError(f"coarse frame {path}: {exc}") from exc

    f = cfg.upres_factor
    fine_scene = dataclasses.replace(
        cfg.scene, nx=cfg.scene.nx * f, ny=cfg.scene.ny * f,
        nz=cfg.scene.nz if cfg.scene.nz == 1 else cfg.scene.nz * f,
        h=cfg.scene.h / f)
    fine_cfg = dataclasses.replace(cfg, scene=fine_scene)
    return cmd_guide(fine_cfg, target_override=target)


def cmd_compare(cfg: RunConfig) -> int:
    summary = []
    for method in ("pd", "admm"):
        state, guide_cfg = _guided_scene(cfg)
        method_cfg = dataclasses.replace(
            cfg, method=method, out_dir=os.path.join(cfg.out_dir, method))
        rows = _run_frames(method_cfg, state,
                           _guided_step(method_cfg, state, lambda _: guide_cfg),
                           os.path.join(cfg.out_dir, f"compare_{method}.csv"))
        mean_iters = float(np.mean([r[1] for r in rows]))
        mean_cg = float(np.mean([r[2] for r in rows]))
        summary.append((method, f"{mean_iters:.17g}", f"{mean_cg:.17g}"))
        print(f"{method}: mean iterations {mean_iters:.2f}, "
              f"mean CG iterations {mean_cg:.1f}")
    _write_csv(os.path.join(cfg.out_dir, "summary.csv"),
               ["method", "mean_iterations", "mean_cg_iters"], summary)
    return 0


def cmd_dam(cfg: RunConfig) -> int:
    if not cfg.scene.is_liquid:
        raise ConfigError("dam expects a liquid scene")
    state, _ = build_scene(cfg.scene)
    _run_frames(cfg, state,
                lambda _: liquid_step(state, mode=cfg.bc_mode, cg=cfg.cg),
                os.path.join(cfg.out_dir, "ceiling_contact.csv"),
                extra=[("ceiling_cells", lambda s: ceiling_contact_cells(s.flags))])
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--scene", dest=_SCENE + "name", choices=list(SCENE_NAMES),
                   help="scene name")
    p.add_argument("--frames", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory")
    for key in ("seed", "nx", "ny"):
        p.add_argument(f"--{key}", dest=_SCENE + key, type=int)
    for key in ("save_velocity", "save_pgm", "save_logs"):
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       action="store_const", const=True)


def _add_guiding_flags(p):
    for key in ("w_left", "w_right", "radius_left", "radius_right"):
        p.add_argument("--" + key.replace("_", "-"), dest=_SCENE + key, type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdfluids",
        description="Grid fluid solver with a proximal-splitting pressure stage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="plain (unguided) scene run")
    _add_common(p)

    p = sub.add_parser("guide", help="guided smoke run")
    _add_common(p)
    _add_guiding_flags(p)
    p.add_argument("--method", choices=METHODS)

    p = sub.add_parser("upres", help="guided resimulation from coarse grids")
    _add_common(p)
    _add_guiding_flags(p)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--coarse-dir", dest="coarse_dir",
                   help="directory with vel_%%04d.grid frames")
    p.add_argument("--factor", dest="upres_factor", type=int,
                   help="refinement factor")

    p = sub.add_parser("compare-methods", help="PD vs ADMM on one scene")
    _add_common(p)
    _add_guiding_flags(p)

    p = sub.add_parser("dam", help="liquid run with selectable wall treatment")
    _add_common(p)
    p.add_argument("--bc", dest="bc_mode", choices=BC_MODES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        handler = {"simulate": cmd_simulate, "guide": cmd_guide,
                   "upres": cmd_upres, "compare-methods": cmd_compare,
                   "dam": cmd_dam}[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, PoissonConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
