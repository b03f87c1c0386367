"""errors.Ruled: every config section checks its declared rules on construction,
and raises its own error class."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import momine
from momine.anchors import AnchorsConfig
from momine.config import GraphConfig, PrepConfig, RunConfig
from momine.diffusion import DiffusionConfig
from momine.errors import BadModel, BadSpec, MomineError, Ruled
from momine.features import SyntheticSpec
from momine.mining import MiningConfig
from momine.trainer import ModelConfig, TrainConfig


def ruled_dataclasses():
    """Every dataclass that a momine module defines with a field that declares a rule."""
    found = []
    for module in pkgutil.iter_modules(momine.__path__):
        source = importlib.import_module(f"momine.{module.name}")
        for _, obj in inspect.getmembers(source, inspect.isclass):
            if (obj.__module__ == source.__name__ and dataclasses.is_dataclass(obj)
                    and any("rule" in item.metadata for item in dataclasses.fields(obj))):
                found.append(obj)
    return found


# RunConfig and its eight ruled sections, each with one value outside a rule
# and the error class it must raise
BROKEN = [
    (RunConfig, {"rounds": 0}, ValueError),
    (SyntheticSpec, {"per_class": 0}, BadSpec),
    (PrepConfig, {"whiten_dims": -1}, ValueError),
    (GraphConfig, {"k": 0}, ValueError),
    (DiffusionConfig, {"alpha": 1.0}, ValueError),
    (AnchorsConfig, {"mode": "min"}, ValueError),
    (MiningConfig, {"k_neg": 0}, ValueError),
    (ModelConfig, {"output_dim": 0}, BadModel),
    (TrainConfig, {"loss": "hinge"}, ValueError),
]


def test_every_dataclass_with_a_ruled_field_derives_from_ruled():
    sections = ruled_dataclasses()
    assert {section for section, _, _ in BROKEN} <= set(sections)
    assert [cls.__qualname__ for cls in sections if not issubclass(cls, Ruled)] == []


@pytest.mark.parametrize("section,values,error", BROKEN,
                         ids=[section.__name__ for section, _, _ in BROKEN])
def test_a_value_outside_its_rule_raises_its_sections_error(section, values, error):
    with pytest.raises(ValueError) as caught:
        section(**values)
    assert type(caught.value) is error
    assert isinstance(caught.value, MomineError) == (error is not ValueError)
    (name, value), = values.items()
    assert str(caught.value).startswith(f"{name} must be ")
    assert str(caught.value).endswith(f", got {value!r}")
