"""The typed form of a `mom` run: its seed, its rounds and one section per
prefix of the dotted config keys (`gen` is a SyntheticSpec, `diffusion`,
`anchors`, `mining`, `model` and `train` are the stages' configs). A
section's field declares its key's default and, through errors.ruled, its
rule. Each section derives from errors.Ruled, whose __post_init__ words
every failure "<field> must be <rule>, got <value>"; the few rules that tie
two fields together follow it in the section's own __post_init__."""

import sys
from dataclasses import MISSING, dataclass, field, fields

from .anchors import AnchorsConfig
from .diffusion import DiffusionConfig
from .errors import BadConfig, Ruled, ruled
from .features import SyntheticSpec
from .mining import MiningConfig
from .trainer import ModelConfig, TrainConfig


@dataclass
class PrepConfig(Ruled):
    whiten_dims: int = ruled(0, ">= 0")  # PCA-whitened dimensions before l2 normalization; 0 = off


@dataclass
class GraphConfig(Ruled):
    k: int = ruled(30, ">= 1")  # neighbours per item of the reciprocal kNN graph


@dataclass
class EvalConfig:
    ks: str = "1,2,4,8"  # the recall depths, comma-separated
    depths: list = field(init=False, repr=False)  # ks parsed

    def __post_init__(self):
        try:
            self.depths = [int(k) for k in self.ks.split(",") if k.strip()]
        except ValueError:
            self.depths = []
        if not self.depths or min(self.depths) < 1:
            raise ValueError(f"ks must list recall depths >= 1, got {self.ks!r}")


@dataclass
class RunConfig(Ruled):
    """One `mom` run. Its `seed` feeds the generator, the model's init, the
    baseline draws, the trainer and k-means alike."""

    seed: int = ruled(0, ">= 0")
    gen: SyntheticSpec = field(default_factory=SyntheticSpec)
    prep: PrepConfig = field(default_factory=PrepConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    anchors: AnchorsConfig = field(default_factory=AnchorsConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    rounds: int = ruled(1, ">= 1")  # alternating mine/train rounds

    @classmethod
    def defaults(cls) -> dict:
        """The flat dotted-key defaults: each field's default, a section's
        under `<section>.<field>`."""
        flat = {}
        for top in fields(cls):
            if top.default_factory is MISSING:
                flat[top.name] = top.default
            else:
                flat.update((f"{top.name}.{item.name}", item.default)
                            for item in fields(top.default_factory) if item.init)
        return flat

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        """The run of a flat dotted-key config, as `mom` writes it to
        config.json; a key left out keeps its default. A key that is not one
        of defaults(), a value that json_value rejects, or one that a section or
        the run rejects, raises BadConfig, under its dotted key."""
        values = {}
        for key, value in flat.items():
            head, _, name = key.rpartition(".")
            values.setdefault(head, {})[name] = json_value(key, value)
        run = values.pop("", {})
        kinds = {top.name: top.default_factory for top in fields(cls)}
        for head, section in values.items():
            try:
                run[head] = kinds[head](**section)
            except ValueError as exc:
                raise BadConfig(f"{head}.{exc}") from None
        try:
            return cls(**run)
        except ValueError as exc:
            raise BadConfig(str(exc)) from None


DEFAULTS = RunConfig.defaults()
# what a value of each type must be, as a BadConfig message names it
TYPE_RULES = {int: "an integer", float: "a finite number", str: "a string"}


def key_type(key) -> type:
    """The type of a `mom` key's values, that of its default; a key that is
    not in DEFAULTS raises BadConfig."""
    if key not in DEFAULTS:
        raise BadConfig(f"unknown config key {key!r}")
    return type(DEFAULTS[key])


def json_value(key, value):
    """A config-file value of `key`, as the key's type. It must have that type
    exactly, but an integer also passes for a float, and a float must be
    finite; a mismatch raises BadConfig naming the key."""
    kind = key_type(key)
    if type(value) is kind or (kind is float and type(value) is int):
        if kind is not float or abs(value) <= sys.float_info.max:  # finite as a float
            return kind(value)
    raise BadConfig(f"{key} must be {TYPE_RULES[kind]}, got {value!r}")
