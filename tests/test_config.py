"""`config.DEFAULTS` states every default a second time, as the string a run
config starts from; the section dataclasses state them first. The two must
agree, so a run with no file and no `--set` builds exactly the dataclass
defaults that code constructing a section directly (the benchmark's fixtures,
say) gets. A section checks itself when it is built and is frozen, so a
section that exists has been checked."""

import re
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

from iakrec.config import RunConfig
from iakrec.datagen import DatasetError, GeneratorConfig
from iakrec.iak import AdapterError, IAKConfig
from iakrec.models import ModelConfig, ModelError
from iakrec.trainer import TrainConfig, TrainerError


def test_the_section_defaults_are_the_dataclass_defaults():
    cfg = RunConfig()
    assert cfg.model_config() == ModelConfig()
    assert cfg.iak_config() == IAKConfig()
    assert cfg.train_config() == TrainConfig()


def test_the_generator_defaults_are_the_dataclass_defaults():
    built = RunConfig().generator_config()
    defaulted = {f.name: f.default for f in fields(GeneratorConfig) if f.default is not MISSING}
    assert sorted(defaulted) == ["latent_dim", "records_per_day", "seed", "target_click_rate",
                                 "target_purchase_rate_given_click"]
    assert {name: getattr(built, name) for name in defaulted} == defaulted



# one built section of each kind, a field of it, a value its check rejects
# and the error that check raises
SECTIONS = {
    "model": (ModelConfig(), "n_experts", 0, ModelError, "n_experts must be >= 1"),
    "space": (RunConfig().feature_space(), "n_items", -5, ModelError, "n_items must be >= 0, got -5"),
    "iak": (IAKConfig(), "beta", -1.0, AdapterError, "beta must be finite and >= 0, got -1.0"),
    "train": (TrainConfig(), "seed", -1, TrainerError, "seed must be >= 0, got -1"),
    "generator": (RunConfig().generator_config(), "n_days", 1, DatasetError,
                  "n_days must be >= 2 so a chronological split is possible"),
}


@pytest.mark.parametrize("section", SECTIONS)
def test_a_built_section_cannot_be_changed(section):
    """A section config is checked where it is built, so it must not change
    after: assigning a field raises, and the object keeps its value."""
    config, name, bad, _, _ = SECTIONS[section]
    before = getattr(config, name)
    with pytest.raises(FrozenInstanceError):
        setattr(config, name, bad)
    assert getattr(config, name) == before


@pytest.mark.parametrize("section", SECTIONS)
def test_replace_checks_as_construction_does(section):
    """`dataclasses.replace` builds a new section, so it runs the check that
    building one with that value runs: the same error, the same message."""
    config, name, bad, error, message = SECTIONS[section]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        type(config)(**{**{f.name: getattr(config, f.name) for f in fields(config)}, name: bad})
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        replace(config, **{name: bad})
