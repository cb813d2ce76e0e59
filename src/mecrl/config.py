"""Experiment configuration: JSON loading with strict keys and defaults.

The document has two nested sections, ``env`` and ``trainer``, plus the
top-level run controls. Every field is optional; an empty document yields
the full default configuration. Unknown keys are rejected, and so is a
value whose JSON type does not fit its field's annotation: integer fields
take JSON integers, real fields finite numbers, per-user fields a finite
number or a list of them, and ``task_size_bits`` a pair of integers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields

from .agents import ALGOS, TrainerConfig
from .env import EnvConfig
from .errors import ConfigError
from .files import write_atomic
from .phy import PathLossModel, PhyConstants


def _annotations(cls, skip=()) -> dict[str, str]:
    """Field name to annotation text, in field order."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # Compared exactly, so NaN, the infinities and integers too large for
    # a float all fail.
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


# Annotation text -> (what the message asks for, predicate on the JSON value).
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_real),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, int]": ("a pair of integers",
                        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))),
    "tuple[float, ...] | float": ("a finite number or a list of finite numbers",
                                  lambda v: _is_real(v) or (isinstance(v, list)
                                                            and all(map(_is_real, v)))),
}

_PHY_TYPES = _annotations(PhyConstants)
_PATHLOSS_TYPES = _annotations(PathLossModel)
_ENV_TYPES = _annotations(EnvConfig, skip=("constants", "path_loss"))
_TRAINER_TYPES = _annotations(TrainerConfig)


@dataclass
class ExperimentConfig:
    """Full closure of one experiment: environment, trainer, run controls.
    Checks only the run controls; the nested configs check their own."""

    env: EnvConfig = field(default_factory=EnvConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    algo: str = "ddpg"
    episodes: int = 1000
    n_runs: int = 5
    base_seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if not isinstance(self.base_seed, int) or self.base_seed < 0:
            raise ConfigError(f"base_seed must be a nonnegative integer, got {self.base_seed}")


_RUN_TYPES = _annotations(ExperimentConfig, skip=("env", "trainer"))


def _check_section(section: dict, types: dict[str, str], where: str) -> None:
    """Reject unknown keys and values of the wrong JSON type."""
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key, value in section.items():
        wanted, fits = _KINDS[types[key]]
        if not fits(value):
            raise ConfigError(f"{where}: {key} must be {wanted}, got {value!r}")


def _env_from_dict(doc: dict) -> EnvConfig:
    _check_section(doc, {**_ENV_TYPES, **_PHY_TYPES, **_PATHLOSS_TYPES}, "env section")
    constants = PhyConstants(**{k: doc[k] for k in _PHY_TYPES if k in doc})
    path_loss = PathLossModel(**{k: doc[k] for k in _PATHLOSS_TYPES if k in doc})
    # EnvConfig turns the JSON lists into tuples.
    env_kwargs = {k: doc[k] for k in _ENV_TYPES if k in doc}
    return EnvConfig(constants=constants, path_loss=path_loss, **env_kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level document must be an object, got {type(doc).__name__}")
    env_doc = doc.get("env", {})
    trainer_doc = doc.get("trainer", {})
    if not isinstance(env_doc, dict) or not isinstance(trainer_doc, dict):
        raise ConfigError("env and trainer sections must be objects")
    run_doc = {k: v for k, v in doc.items() if k not in ("env", "trainer")}
    _check_section(run_doc, _RUN_TYPES, "top level")
    _check_section(trainer_doc, _TRAINER_TYPES, "trainer section")
    return ExperimentConfig(
        env=_env_from_dict(env_doc),
        trainer=TrainerConfig(**trainer_doc),
        **run_doc,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    env = cfg.env
    env_doc = {k: getattr(env.constants, k) for k in _PHY_TYPES}
    env_doc.update({k: getattr(env.path_loss, k) for k in _PATHLOSS_TYPES})
    for k in _ENV_TYPES:
        v = getattr(env, k)
        env_doc[k] = list(v) if isinstance(v, tuple) else v
    return {
        "env": env_doc,
        "trainer": asdict(cfg.trainer),
        "algo": cfg.algo,
        "episodes": cfg.episodes,
        "n_runs": cfg.n_runs,
        "base_seed": cfg.base_seed,
        "out_dir": cfg.out_dir,
    }


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unset fields default."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()

    def reject_nonfinite(name):
        raise ConfigError(f"non-finite number {name} is not allowed")

    try:
        doc = json.loads(text, parse_constant=reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:  # a non-finite number, an integer over the digit limit
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path) -> None:
    write_atomic(path, (json.dumps(config_to_dict(cfg), indent=2) + "\n").encode("utf-8"))
