"""`config.DEFAULTS` states every default a second time, as the string a run
config starts from; the section dataclasses state them first. The two must
agree, so a run with no file and no `--set` builds exactly the dataclass
defaults that code constructing a section directly (the benchmark's fixtures,
say) gets."""

from dataclasses import MISSING, fields

from iakrec.config import RunConfig
from iakrec.datagen import GeneratorConfig
from iakrec.iak import IAKConfig
from iakrec.models import ModelConfig
from iakrec.trainer import TrainConfig


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
