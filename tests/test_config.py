"""`config.DEFAULTS` states every default a second time, as the string a run
config starts from; the section dataclasses state them first. The two must
agree, so a run with no file and no `--set` builds exactly the dataclass
defaults that code constructing a section directly (the benchmark's fixtures,
say) gets. A section checks itself when it is built and is frozen, nested
settings included, so a section that exists has been checked."""

import re
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
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
    "train_domains": (TrainConfig(), "finetune_domains", (), TrainerError, "train.finetune_domains names no domain"),
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


def test_a_mixing_key_outside_the_finetune_domains_is_rejected_when_built():
    """`TrainConfig` checks its mixing keys against its fine-tune domains
    (by default `period=*`), so no scene can be mixed unless it is listed."""
    message = "mixing references domains outside train.finetune_domains: ['scene=0']"
    with pytest.raises(TrainerError, match=f"^{re.escape(message)}$"):
        TrainConfig(mixing={"scene=0": 1.0})
    assert TrainConfig(mixing={"scene=0": 1.0}, finetune_domains=("scene=*",)).mixing == {"scene=0": 1.0}


def test_a_topic_entry_selects_no_key_of_two_topics():
    """`period=*` expands to one-period selectors only, so it can never
    select `period=0,scene=1`: that key is rejected when the config is built,
    not after the data and the backbone are loaded. An explicit entry of the
    key admits it."""
    message = "mixing references domains outside train.finetune_domains: ['period=0,scene=1']"
    with pytest.raises(TrainerError, match=f"^{re.escape(message)}$"):
        TrainConfig(mixing={"period=0,scene=1": 1.0}, finetune_domains=("period=*",))
    admitted = TrainConfig(mixing={"period=0,scene=1": 1.0}, finetune_domains=("period=*", "period=0,scene=1"))
    assert admitted.mixing == {"period=0,scene=1": 1.0}


def test_a_built_sections_nested_settings_cannot_be_changed():
    """`TrainConfig.mixing` and `GeneratorConfig.domains` hold read-only
    copies, so what the check read is what a run reads: the mapping, a shift
    table and the caller's own dict can neither change the config."""
    weights = {"period=0": 1.0}
    train = TrainConfig(mixing=weights)
    weights["period=1"] = -5.0
    assert dict(train.mixing) == {"period=0": 1.0}
    with pytest.raises(TypeError):
        train.mixing["period=1"] = -5.0
    generator = RunConfig().generator_config()
    shifts, tilts = generator.domains["scene"]
    with pytest.raises(TypeError):
        generator.domains["scene"] = (shifts, tilts)
    for table in (shifts, tilts):
        assert table.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = np.inf
    assert np.isfinite(shifts).all()


def test_replace_checks_the_nested_settings_it_is_given():
    """`dataclasses.replace` copies and checks nested settings as
    construction does, from the read-only copies or from new values."""
    train = TrainConfig(mixing={"period=0": 1.0})
    assert replace(train, seed=3).mixing == {"period=0": 1.0}
    with pytest.raises(TrainerError, match=r"^mixing weights must be finite and >= 0, got \{'period=1': -5.0\}$"):
        replace(train, mixing={**train.mixing, "period=1": -5.0})
    generator = RunConfig().generator_config()
    assert replace(generator, seed=1).domains["scene"][0].tobytes() == generator.domains["scene"][0].tobytes()
    shifts, tilts = generator.domains["scene"]
    with pytest.raises(DatasetError, match="^preference_shift of scene=0 contains non-finite values$"):
        replace(generator, domains={**generator.domains, "scene": (np.full_like(shifts, np.inf), tilts)})
