"""The typed form of a `mom` run: its seed, its rounds and one section per
prefix of the dotted config keys (`gen` is a SyntheticSpec, `diffusion`,
`anchors`, `mining` and `train` are the stages' configs). A section's field
defaults are its keys' defaults, and its __post_init__ holds their rules."""

import sys
from dataclasses import MISSING, dataclass, field, fields

from .anchors import AnchorsConfig
from .diffusion import DiffusionConfig
from .errors import BadConfig, BadModel
from .features import SyntheticSpec
from .mining import MiningConfig
from .trainer import EmbeddingModel, TrainConfig


@dataclass
class PrepConfig:
    whiten_dims: int = 0  # PCA-whitened dimensions before l2 normalization; 0 = off

    def __post_init__(self):
        if self.whiten_dims < 0:
            raise ValueError(f"whiten_dims must be >= 0, got {self.whiten_dims!r}")


@dataclass
class GraphConfig:
    k: int = 30  # neighbours per item of the reciprocal kNN graph

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")


@dataclass
class ModelConfig:
    output_dim: int = 16
    hidden_dim: int = 0  # 0 = one affine layer, else one ReLU hidden layer this wide

    def __post_init__(self):
        # EmbeddingModel's architecture rule, its message led by the field it names
        try:
            EmbeddingModel.check_architecture(self.output_dim, self.hidden_dim)
        except BadModel as exc:
            raise ValueError(f"{exc.field}: {exc}") from None

    def initialize(self, input_dim: int, seed: int) -> EmbeddingModel:
        return EmbeddingModel.initialize(input_dim, self.output_dim, self.hidden_dim, seed=seed)


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
class RunConfig:
    """One `mom` run. Its `seed` feeds the generator, the model's init, the
    baseline draws, the trainer and k-means alike."""

    seed: int = 0
    gen: SyntheticSpec = field(default_factory=SyntheticSpec)
    prep: PrepConfig = field(default_factory=PrepConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    anchors: AnchorsConfig = field(default_factory=AnchorsConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    rounds: int = 1  # alternating mine/train rounds

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds!r}")

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
