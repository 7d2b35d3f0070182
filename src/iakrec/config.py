"""Flat key-value run configuration shared by every subcommand.

One file per run: `section.key = value` lines, `#` comments, UTF-8. Every key
has a documented default below; unknown keys are rejected. Precedence is
command-line --set > file > default, and the effective (post-default) config
is echoed into every output directory.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from pathlib import Path

from .datagen import DatasetError, GeneratorConfig, check_split_ratio, domain_key, make_domains, parse_domain_key
from .iak import IAKConfig
from .models import FeatureSpace, ModelConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


# key -> (default, help)
DEFAULTS: dict[str, tuple[str, str]] = {
    # synthetic data
    "datagen.n_users": ("400", "number of distinct users"),
    "datagen.n_items": ("200", "number of distinct items"),
    "datagen.n_days": ("7", "number of generated days (>= 2)"),
    "datagen.records_per_day": ("0", "impressions per day; 0 means n_users"),
    "datagen.latent_dim": ("16", "user/item latent dimensionality"),
    "datagen.target_click_rate": ("0.06", "calibrated click rate per domain cell"),
    "datagen.target_purchase_rate_given_click": ("0.15", "conversion rate among clicks"),
    "datagen.scene_shifts": ("0,0", "per-scene preference shift magnitudes"),
    "datagen.scene_tilts": ("0,0", "per-scene item popularity tilt magnitudes"),
    "datagen.region_shifts": ("0,0,0,0,0,0", "per-region preference shift magnitudes"),
    "datagen.region_tilts": ("0,0,0,0,0,0", "per-region item popularity tilt magnitudes"),
    "datagen.period_shifts": ("0,0,0", "per-period preference shift magnitudes"),
    "datagen.period_tilts": ("0,0,0", "per-period item popularity tilt magnitudes"),
    "datagen.split_ratio": ("6:1", "chronological train:test ratio"),
    "datagen.seed": ("0", "generator seed"),
    # model
    "model.kind": ("base", "shared_bottom | esmm | mmoe | base"),
    "model.hidden_sizes": ("64,32,16", "hidden layer widths of trunks/experts"),
    "model.n_experts": ("2", "experts in the mixture core"),
    "model.embed_dim": ("8", "embedding size for all categorical features"),
    "model.loss_weights": ("1,1", "per-task loss weights (ctr, ctcvr)"),
    "model.seed": ("0", "parameter init seed"),
    # adapter
    "iak.d_e": ("50", "encoder output dimension"),
    "iak.beta": ("0.001", "weight of the encoder KL regularizer"),
    "iak.decoder_hidden": ("32", "decoder hidden widths"),
    # training
    "train.batch_size": ("1024", "records per optimizer step"),
    "train.epochs": ("1", "passes over the training stream"),
    "train.lr": ("0.005", "base learning rate (lambda)"),
    "train.adagrad_decay": ("0.9999", "squared-gradient accumulator decay"),
    "train.adagrad_epsilon": ("1e-8", "optimizer denominator floor"),
    "train.seed": ("0", "shuffling and weight-sampling seed"),
    "train.finetune_window_days": ("0", "use only the last N days for fine-tuning; 0 = all"),
    "train.finetune_domains": ("period=*", "comma list of domain keys; topic=* expands over ids in data"),
    "train.mixing": ("", "weighted cross-domain stream, e.g. scene=0:0.7,scene=1:0.3"),
    "train.lr_norms": ("uniform", "rate softmax W: uniform | previous (last-step grad magnitudes)"),
    # router
    "router.lazy_activation": (
        "false",
        "apply only the selected adapter to the request's one backbone output, skipping the other "
        "deployed adapters' MLPs; either way only the served output is predicted and checked, so "
        "every output line is identical "
        "(the key stays while the serving benchmark reads it to measure the eager path)",
    ),
    # evaluation / experiments
    "eval.seeds": ("0,1,2,3,4", "run seeds for experiment repetitions"),
    "eval.windows": ("1,3,5,7", "fine-tune window lengths (days) for window_sweep"),
    "eval.de_grid": ("10,30,50,80,100", "encoder dimensions for de_sweep"),
    "eval.betas": ("0,0.001,0.1,10", "regularizer weights for beta_sweep"),
    "eval.mi_bins": ("10", "bins used by the MI diagnostic"),
    "eval.overlap_weights": (
        "",
        "mixing weights for the overlap experiment; its highest-weighted key (the first listed on a tie) is the "
        "domain overlap reports",
    ),
    "eval.baseline_kinds": ("shared_bottom,esmm,mmoe,base", "model kinds for baseline_compare"),
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{p}: not UTF-8 ({e.reason} at byte {e.start + 1})") from e
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    return values


class RunConfig:
    """Effective configuration: defaults overlaid with file values and
    command-line overrides, with unknown keys rejected."""

    def __init__(self, file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None):
        self.values = {k: d for k, (d, _) in DEFAULTS.items()}
        for source, vals in (("config file", file_values), ("--set override", overrides)):
            for k, v in (vals or {}).items():
                if k not in DEFAULTS:
                    raise ConfigError(f"unknown key {k!r} in {source}")
                self.values[k] = v

    # typed accessors -------------------------------------------------------
    def get(self, key: str) -> str:
        return self.values[key]

    def _converted(self, key: str, convert: type, parts: list[str], expected: str) -> list:
        """`convert` of each of `parts`, read from the value of `key`; a part
        it cannot convert is a `ConfigError` saying what was `expected`."""
        try:
            return [convert(part) for part in parts]
        except ValueError as e:
            raise ConfigError(f"{key}: expected {expected}, got {self.values[key]!r}") from e

    def get_int(self, key: str) -> int:
        return self._converted(key, int, [self.values[key]], "integer")[0]

    def get_float(self, key: str) -> float:
        return self._converted(key, float, [self.values[key]], "number")[0]

    def get_bool(self, key: str) -> bool:
        v = self.values[key].lower()
        if v in ("true", "1", "yes"):
            return True
        if v in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {self.values[key]!r}")

    def get_list(self, key: str) -> list[str]:
        v = self.values[key].strip()
        return [part.strip() for part in v.split(",") if part.strip()] if v else []

    def get_int_list(self, key: str) -> list[int]:
        return self._converted(key, int, self.get_list(key), "integers")

    def get_float_list(self, key: str) -> list[float]:
        return self._converted(key, float, self.get_list(key), "numbers")

    def get_ratio(self, key: str) -> tuple[int, int]:
        v = self.values[key]
        a, sep, b = v.partition(":")
        if not sep:
            raise ConfigError(f"{key}: expected a:b ratio, got {v!r}")
        return tuple(self._converted(key, int, [a, b], "integer ratio"))

    def get_weight_map(self, key: str) -> dict[str, float]:
        """`domain:weight` entries keyed by canonical domain key, the spelling
        datasets and adapters carry, so `period=00` reads as `period=0`. Two
        entries naming one domain are an error."""
        out: dict[str, float] = {}
        for part in self.get_list(key):
            domain, sep, weight = part.rpartition(":")
            if not sep:
                raise ConfigError(f"{key}: expected domain:weight entries, got {part!r}")
            try:
                canonical = domain_key(parse_domain_key(domain.strip()))
            except DatasetError as e:
                raise ConfigError(f"{key}: {e}") from e
            if canonical in out:
                raise ConfigError(f"{key}: domain {canonical!r} is weighted twice")
            try:
                out[canonical] = float(weight)
            except ValueError as e:
                raise ConfigError(f"{key}: bad weight in {part!r}") from e
        return out

    # canonical form --------------------------------------------------------
    def canonical(self, keys: Iterable[str] | None = None) -> str:
        """`key = value` lines, sorted: every key, or only `keys`."""
        return "".join(f"{k} = {self.values[k]}\n" for k in sorted(self.values if keys is None else keys))

    def digest(self, keys: Iterable[str] | None = None) -> str:
        return hashlib.sha256(self.canonical(keys).encode("utf-8")).hexdigest()

    def echo(self, path: str | Path) -> None:
        Path(path).write_text(
            "# effective configuration (defaults + file + overrides)\n" + self.canonical(),
            encoding="utf-8",
        )

    # section builders ------------------------------------------------------
    def generator_config(self) -> GeneratorConfig:
        magnitudes = {
            "scene": (self.get_float_list("datagen.scene_shifts"), self.get_float_list("datagen.scene_tilts")),
            "region": (self.get_float_list("datagen.region_shifts"), self.get_float_list("datagen.region_tilts")),
            "period": (self.get_float_list("datagen.period_shifts"), self.get_float_list("datagen.period_tilts")),
        }
        latent_dim = self.get_int("datagen.latent_dim")
        seed = self.get_int("datagen.seed")
        return GeneratorConfig(
            n_users=self.get_int("datagen.n_users"),
            n_items=self.get_int("datagen.n_items"),
            n_days=self.get_int("datagen.n_days"),
            latent_dim=latent_dim,
            target_click_rate=self.get_float("datagen.target_click_rate"),
            target_purchase_rate_given_click=self.get_float("datagen.target_purchase_rate_given_click"),
            domains=make_domains(magnitudes, latent_dim, seed),
            seed=seed,
            records_per_day=self.get_int("datagen.records_per_day"),
        )

    def split_ratio(self) -> tuple[int, int]:
        """The train:test ratio, checked (see `datagen.check_split_ratio`)."""
        return check_split_ratio(self.get_ratio("datagen.split_ratio"))

    def feature_space(self) -> FeatureSpace:
        return FeatureSpace(
            n_users=self.get_int("datagen.n_users"),
            n_items=self.get_int("datagen.n_items"),
            n_scenes=len(self.get_float_list("datagen.scene_shifts")),
            n_regions=len(self.get_float_list("datagen.region_shifts")),
            n_periods=len(self.get_float_list("datagen.period_shifts")),
        )

    def model_config(self) -> ModelConfig:
        weights = self.get_float_list("model.loss_weights")
        if len(weights) != 2:
            raise ConfigError("model.loss_weights needs exactly two values")
        return ModelConfig(
            kind=self.get("model.kind"),
            hidden_sizes=tuple(self.get_int_list("model.hidden_sizes")),
            n_experts=self.get_int("model.n_experts"),
            loss_weights=(weights[0], weights[1]),
            embed_dim=self.get_int("model.embed_dim"),
        )

    def iak_config(self) -> IAKConfig:
        return IAKConfig(
            d_e=self.get_int("iak.d_e"),
            beta=self.get_float("iak.beta"),
            decoder_hidden=tuple(self.get_int_list("iak.decoder_hidden")),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.get_int("train.batch_size"),
            epochs=self.get_int("train.epochs"),
            base_lr=self.get_float("train.lr"),
            adagrad_decay=self.get_float("train.adagrad_decay"),
            adagrad_epsilon=self.get_float("train.adagrad_epsilon"),
            seed=self.get_int("train.seed"),
            finetune_window_days=self.get_int("train.finetune_window_days"),
            finetune_domains=tuple(self.get_list("train.finetune_domains")),
            mixing=self.get_weight_map("train.mixing"),
            lr_norms=self.get("train.lr_norms"),
        )


def load_run_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    file_values = parse_config_file(path) if path is not None else {}
    return RunConfig(file_values, overrides)
