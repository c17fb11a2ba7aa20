"""Run configuration: JSON parsing, validation and round-tripping.

A run config bundles the scene parameterization with solver choices.  The
JSON schema mirrors the dataclass fields; unknown keys are rejected so typos
fail loudly before a run starts.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass

from .guiding import default_guiding_params
from .optim import AdmmParams, PdParams
from .pressure import CgConfig
from .scenes import BC_MODES, SceneSpec

METHODS = ("pd", "admm", "iop", "direct")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scene: SceneSpec
    method: str = "pd"
    bc_mode: str = "regular"
    frames: int = 50
    out_dir: str = "out"
    # solver overrides; None means the guiding-weight defaults
    tau: float | None = None
    sigma: float | None = None
    theta: float | None = None
    rho: float | None = None
    max_iters: int = 300
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    eps_cg_start: float = CgConfig.eps_start
    eps_cg_final: float = CgConfig.eps_final
    max_cg_iters: int = CgConfig.max_cg_iters
    exact_prox: bool = False
    save_velocity: bool = False
    save_pgm: bool = False
    save_logs: bool = False
    upres_factor: int = 4
    coarse_dir: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Check the run's own keys; the solver keys are checked by building
        the CG settings and the PD and ADMM parameters at unit mean weight."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.bc_mode not in BC_MODES:
            raise ConfigError(f"bc_mode must be one of {BC_MODES}, got {self.bc_mode!r}")
        if self.frames < 1:
            raise ConfigError("frames must be >= 1")
        if self.upres_factor < 1:
            raise ConfigError("upres_factor must be >= 1")
        try:
            self.cg
            self.solver_params(1.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def solver_params(self, w_bar: float) -> tuple[PdParams, AdmmParams]:
        """The PD and ADMM parameters of a guided frame: the guiding-weight
        defaults at mean weight w_bar, with the step sizes this config sets
        and its stop settings written over them."""
        pd, admm = default_guiding_params(w_bar)
        stop = dict(max_iters=self.max_iters, eps_abs=self.eps_abs, eps_rel=self.eps_rel)
        steps = {k: getattr(self, k) for k in ("tau", "sigma", "theta")
                 if getattr(self, k) is not None}
        rho = self.rho if self.rho is not None else admm.rho
        return (dataclasses.replace(pd, **steps, **stop),
                dataclasses.replace(admm, rho=rho, **stop))

    @property
    def cg(self) -> CgConfig:
        return CgConfig(self.eps_cg_start, self.eps_cg_final, self.max_cg_iters)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["scene"] = {k: v for k, v in dataclasses.asdict(self.scene).items()
                        if v is not None}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        scene_data = data.pop("scene", None)
        if not isinstance(scene_data, dict) or "name" not in scene_data:
            raise ConfigError("config needs a scene object with a name")
        scene_fields = {f.name for f in dataclasses.fields(SceneSpec)}
        unknown = set(scene_data) - scene_fields
        if unknown:
            raise ConfigError(f"unknown scene keys: {sorted(unknown)}")
        run_fields = {f.name for f in dataclasses.fields(cls)} - {"scene"}
        unknown = set(data) - run_fields
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        _check_types(SceneSpec, scene_data, "scene value ")
        _check_types(cls, data, "")
        for box in ("obstacle", "emitter"):
            if scene_data.get(box) is not None:
                scene_data[box] = tuple(scene_data[box])
        try:
            scene = SceneSpec(**scene_data)
            return cls(scene=scene, **data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(_parse_json(text))


_TYPE_NAMES = {type(None): "null", float: "a finite number",
               tuple: "four finite numbers"}


def _takes(kind, value) -> bool:
    """Whether a field annotated `kind` takes `value`: an int field an int,
    a float field a finite int or float (JSON's NaN and Infinity and
    argparse's nan and inf are not), a bool field a bool (and no number
    field a bool), a box four such numbers, any other field its own type."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == 4
                and all(_takes(float, x) for x in value))
    return isinstance(value, kind)


def _check_types(cls, values: dict, where: str):
    """Raise ConfigError on the first value its dataclass field of `cls`
    does not take; None only where the field allows it."""
    hints = typing.get_type_hints(cls)
    for name, value in values.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        if not any(value is None if k is type(None) else _takes(k, value)
                   for k in kinds):
            wanted = " or ".join(_TYPE_NAMES.get(k, k.__name__) for k in kinds)
            raise ConfigError(f"{where}{name} must be {wanted}, got {value!r}")


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def read_json(path) -> dict:
    """The raw JSON object of a config file, before any default resolves."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _parse_json(text)
