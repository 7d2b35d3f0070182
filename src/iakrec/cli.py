"""Command-line entry point binding generation, training, serving, and
evaluation into reproducible runs.

Every command takes one flat config file plus `--set key=value` overrides
(precedence: flag > file > default) and writes its artifacts into a fresh
run directory under --workdir, together with the exact effective config.
Exit codes: 0 success, 2 usage, 3 config error (a config file that is not
UTF-8 included), 4 path error (an input that is missing or cannot be read,
a directory say, an existing run directory, or any other OSError), 5 data or
schema violation (a config value that parses but is out of range, NaN
included, naming its field), 1 anything else (a training run or a forward
whose values overflow to NaN or Inf included, reported on one line). A
setting is checked where its config is built (each section config checks
itself when built and is frozen), so each command builds every section it
reads, and the split ratio, before it opens any input, and `experiment`
builds every condition's before it draws data or pretrains.

A dataset is parsed at most once. `gen-data` writes `dataset.jsonl` together
with its columns in `dataset.jsonl.cols` (a checkpoint container of int64
blocks), and every command that reads a JSONL file maps that sidecar instead
of parsing when it holds the sha256 of the file's current bytes, the current
format version and an intact payload. Any edit to the JSONL invalidates it
(mtime and size are never trusted); the next read parses the file and
rewrites the sidecar if the directory is writable. Deleting a sidecar is
always safe, and a `dataset.jsonl.cols.npz` of an older version is never
read.

`finetune` trains one adapter per `train.finetune_domains` selector on the
train rows it selects (`period=*` expands to one selector per period in the
data), and runs the frozen backbone once per selected row, however many
selectors share it.

`eval`, `finetune` and `serve` start from the saved arrays of a version-2
checkpoint (a version-1 file is a data error, exit 5): the file is mapped,
not read, the model (and each stored adapter) is built without drawing an
init, its table and weights left as read-only zero views, and `restore`
fills it. The embedding table becomes the checkpoint's `embeddings.rows`
block itself, read-only and uncopied, so the model holds the file's mapping
for as long as it lives (safe, as every save replaces a file by a rename);
every other array is copied into the model once, and no other loaded array
outlives the restore. A restored model therefore does not depend on
`model.seed`. A checkpoint that is missing a parameter (one written with a
table block per id column, `user_emb.rows` and so on, lacks
`embeddings.rows`), stores one twice or as int64, has a wrong shape or holds
NaN or Inf is a data error (exit 5) naming the parameter (and for the table
the row and column range of the first bad entry), raised before `serve`
reads its first request.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_run_config
from .datagen import DatasetError, expand_domain_selectors, generate, read_dataset, split_chronological, write_jsonl
# not called here, but perfbench/layers.py traces them by these names
from .datagen import filter_by_domain, read_jsonl  # noqa: F401
from .evals import MetricError, SplitPass, report_from_scores, write_csv
# not called here, but perfbench/layers.py traces them by these names
from .evals import score_adapted, score_backbone  # noqa: F401
from .experiments import EXPERIMENT_KINDS, ExperimentError, experiment_rows, write_rows
from .iak import AdapterError, IAKConfig
from .models import FeatureSpace, ModelConfig, ModelError, build_model, encode_records
from .router import DomainRouter, RequestError, adapters_from_arrays, serve
from .trainer import TrainerError, finetune_all, pretrain

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_PATH = 4
EXIT_SCHEMA = 5

_SCHEMA_ERRORS = (
    DatasetError,
    CheckpointError,
    ModelError,
    AdapterError,
    TrainerError,
    ExperimentError,
    MetricError,
    RequestError,
)


class PathError(FileNotFoundError):
    pass


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _make_outdir(args, command: str, seed: int) -> Path:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.outdir:
        out = workdir / args.outdir
        if out.exists():
            raise PathError(f"output directory already exists (reruns never overwrite): {out}")
        out.mkdir(parents=True)
        return out
    stamp = time.strftime("%Y%m%d-%H%M%S")
    n = 0
    while True:
        suffix = "" if n == 0 else f"-{n}"
        out = workdir / f"{command}-{stamp}-seed{seed}{suffix}"
        if not out.exists():
            out.mkdir(parents=True)
            return out
        n += 1


def _load_cfg(args) -> RunConfig:
    overrides = _parse_overrides(getattr(args, "set", []))
    if args.config is None:
        raise ConfigError("a --config file is required")
    return load_run_config(args.config, overrides)


def _resolve_input(args, path_str: str, what: str) -> Path:
    p = Path(path_str)
    if not p.is_absolute():
        p = Path(args.workdir) / p
    if not p.exists():
        raise PathError(f"{what} not found: {p}")
    return p


def _load_split(args, ratio: tuple[int, int]):
    data_path = _resolve_input(args, args.data, "dataset")
    dataset = read_dataset(data_path)
    if not dataset:
        raise DatasetError(f"dataset is empty: {data_path}")
    return split_chronological(dataset, ratio)


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    generator_config = cfg.generator_config()
    dataset = generate(generator_config)
    outdir = _make_outdir(args, "gen-data", generator_config.seed)
    cfg.echo(outdir / "effective.cfg")
    write_jsonl(dataset, outdir / "dataset.jsonl")
    print(outdir / "dataset.jsonl")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    model_config, space, train_config = cfg.model_config(), cfg.feature_space(), cfg.train_config()
    ratio = cfg.split_ratio()
    # built first: a bad model seed is an error before the data is read
    model = build_model(model_config, space, seed=cfg.get_int("model.seed"))
    train, _ = _load_split(args, ratio)
    curve = pretrain(model, train, train_config)
    outdir = _make_outdir(args, "pretrain", train_config.seed)
    cfg.echo(outdir / "effective.cfg")
    save_checkpoint(outdir / "backbone.ckpt", model.named_parameters(), cfg.digest())
    write_csv(outdir / "pretrain_curve.csv", ("step", "loss", "loss_ctr", "loss_ctcvr"), curve)
    print(outdir / "backbone.ckpt")
    return EXIT_OK


def _restore_backbone(ckpt_path: Path, model_config: ModelConfig, space: FeatureSpace, iak_config: IAKConfig):
    """The frozen model restored from `ckpt_path` and the adapters stored
    beside it ({} for a pretrain checkpoint). The table block, and with it
    the checkpoint's mapping, lives as long as the model; every other
    loaded array dies on return."""
    arrays, _ = load_checkpoint(ckpt_path)
    model = build_model(model_config, space, seed=None)
    model.restore(arrays)
    model.freeze()
    return model, adapters_from_arrays(arrays, model.rep_dim, model.n_heads, iak_config)


def cmd_finetune(args) -> int:
    cfg = _load_cfg(args)
    model_config, space, iak_config = cfg.model_config(), cfg.feature_space(), cfg.iak_config()
    train_config, ratio = cfg.train_config(), cfg.split_ratio()
    if not args.backbone:
        raise PathError("backbone checkpoint required (--backbone)")
    ckpt = _resolve_input(args, args.backbone, "backbone checkpoint")
    train, _ = _load_split(args, ratio)
    model, _ = _restore_backbone(ckpt, model_config, space, iak_config)
    selectors = expand_domain_selectors(train_config.finetune_domains, train)
    result = finetune_all(model, train, selectors, train_config, iak_config)
    outdir = _make_outdir(args, "finetune", train_config.seed)
    cfg.echo(outdir / "effective.cfg")
    params = dict(model.named_parameters())
    for adapter in result.adapters.values():
        params.update(adapter.named_parameters())
    save_checkpoint(outdir / "finetuned.ckpt", params, cfg.digest())
    header = ("step", "domain", "n_batch", "loss", "grad_norm", "lr_effective", "lr_saturated")
    rows = [(r.step, r.domain, r.n_batch, r.loss, r.grad_norm, r.lr_effective, r.lr_saturated) for r in result.curve]
    write_csv(outdir / "finetune_curve.csv", header, rows)
    print(outdir / "finetuned.ckpt")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    model_config, space, iak_config = cfg.model_config(), cfg.feature_space(), cfg.iak_config()
    ratio, seed = cfg.split_ratio(), cfg.train_config().seed
    ckpt = _resolve_input(args, args.checkpoint, "checkpoint")
    _, test = _load_split(args, ratio)
    if not test:
        raise DatasetError("test split is empty; check datagen.split_ratio")
    model, adapters = _restore_backbone(ckpt, model_config, space, iak_config)
    split = SplitPass(model, encode_records(test, space))
    p_ctr, p_ctcvr = split.zero_shot()
    reports = [report_from_scores(p_ctr, p_ctcvr, split.dataset, "test", "zero_shot", seed)]
    for key, idx, sub in split.slices({key: a.domain_key for key, a in adapters.items()}):
        reports.append(report_from_scores(p_ctr[idx], p_ctcvr[idx], sub, f"test:{key}", "zero_shot", seed))
        ap_ctr, ap_ctcvr = split.adapted(adapters[key], idx)
        reports.append(report_from_scores(ap_ctr, ap_ctcvr, sub, f"test:{key}", f"iak:{key}", seed))
    outdir = _make_outdir(args, "eval", seed)
    cfg.echo(outdir / "effective.cfg")
    header = ("dataset", "model", "ctr_auc", "ctcvr_auc", "n_pos_ctr", "n_neg_ctr", "n_pos_ctcvr", "n_neg_ctcvr",
              "seed")
    rows = [(r.dataset_id, r.model_id, r.ctr_auc, r.ctcvr_auc, r.n_pos_ctr, r.n_neg_ctr, r.n_pos_ctcvr, r.n_neg_ctcvr,
             r.seed) for r in reports]
    print(write_csv(outdir / "report.csv", header, rows))
    return EXIT_OK


def cmd_serve(args) -> int:
    cfg = _load_cfg(args)
    model_config, space, iak_config = cfg.model_config(), cfg.feature_space(), cfg.iak_config()
    lazy = cfg.get_bool("router.lazy_activation")
    ckpt = _resolve_input(args, args.checkpoint, "checkpoint")
    model, adapters = _restore_backbone(ckpt, model_config, space, iak_config)
    router = DomainRouter(model, adapters, lazy_activation=lazy)
    # the bytes under a text stdin, so `serve` decodes each line on its own
    return serve(router, getattr(sys.stdin, "buffer", sys.stdin), sys.stdout)


def cmd_experiment(args) -> int:
    cfg = _load_cfg(args)
    seed = cfg.train_config().seed
    rows = experiment_rows(args.kind, cfg, Path(args.workdir))
    outdir = _make_outdir(args, f"experiment-{args.kind}", seed)
    cfg.echo(outdir / "effective.cfg")
    print(write_rows(args.kind, rows, outdir))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iakrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--workdir", default=".", help="base directory for inputs and run outputs")
        p.add_argument("--outdir", help="explicit run directory name (must not exist)")

    gen_help = ("write a synthetic dataset as JSONL, with its column sidecar dataset.jsonl.cols; "
                "the sidecar is keyed by the JSONL's sha256, so any edit invalidates it, and deleting "
                "it is always safe")
    p = sub.add_parser("gen-data", help=gen_help, description=gen_help)
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train a backbone on the chronological train split")
    common(p)
    p.add_argument("--data", required=True, help="dataset JSONL (relative to --workdir)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune per-domain adapters on a frozen backbone")
    common(p)
    p.add_argument("--data", required=True, help="dataset JSONL (relative to --workdir)")
    p.add_argument("--backbone", help="backbone checkpoint from pretrain")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="report AUC on the chronological test split")
    common(p)
    p.add_argument("--data", required=True, help="dataset JSONL (relative to --workdir)")
    p.add_argument("--checkpoint", required=True, help="backbone or finetuned checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("serve", help="score JSON requests line-by-line on stdin/stdout")
    common(p)
    p.add_argument("--checkpoint", required=True, help="finetuned checkpoint to deploy")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("experiment", help="run one experiment kind, writing a CSV report")
    common(p)
    p.add_argument("--kind", required=True, choices=EXPERIMENT_KINDS)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a run that overflows is reported by the finiteness checks on its
        # way (NonFiniteError below); numpy's warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as e:
        print(f"iakrec: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"iakrec: error: {e}", file=sys.stderr)
        return EXIT_PATH
    except _SCHEMA_ERRORS as e:
        print(f"iakrec: error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    # NonFiniteError: a run that diverges, or weights that overflow a forward
    except (ValueError, NonFiniteError) as e:
        print(f"iakrec: error: {e}", file=sys.stderr)
        return 1


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
