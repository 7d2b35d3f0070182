"""Command-line entry point binding generation, training, serving, and
evaluation into reproducible runs.

Every command takes one flat config file plus `--set key=value` overrides
(precedence: flag > file > default) and writes its artifacts into a fresh
run directory under --workdir, together with the exact effective config.
Exit codes: 0 success, 2 usage, 3 config error (a config file that is not
UTF-8 included), 4 path error (an input that is missing or cannot be read,
a directory say, an existing run directory, or any other OSError), 5 data or
schema violation, 1 anything else (a training run or a forward whose values
overflow to NaN or Inf included, reported on one line).

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

`eval`, `finetune` and `serve` start from the saved arrays: the checkpoint
is mapped, not read, the model (and each stored adapter) is built without
drawing an init, its tables and weights left as read-only zero views, and
`restore` copies each checkpoint array into it once. A restored model therefore does
not depend on `model.seed`, and no command holds the loaded arrays (nor the
file's mapping) once it is restored. A checkpoint that is missing a
parameter, stores one twice or as int64, has a wrong shape or holds NaN or
Inf is a data error (exit 5) naming the parameter, raised before `serve`
reads its first request.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from .autodiff import NonFiniteError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_run_config
from .datagen import DatasetError, generate, read_dataset, split_chronological, write_jsonl
# not called here, but perfbench/layers.py traces them by these names
from .datagen import filter_by_domain, read_jsonl  # noqa: F401
from .evals import MetricError, SplitPass, report_from_scores
# not called here, but perfbench/layers.py traces them by these names
from .evals import score_adapted, score_backbone  # noqa: F401
from .experiments import EXPERIMENT_KINDS, ExperimentError, expand_domain_selectors, experiment_rows, write_rows
from .iak import AdapterError
from .models import ModelError, build_model, encode_records
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


def _load_split(args, cfg: RunConfig):
    data_path = _resolve_input(args, args.data, "dataset")
    dataset = read_dataset(data_path)
    if not dataset:
        raise DatasetError(f"dataset is empty: {data_path}")
    return split_chronological(dataset, cfg.get_ratio("datagen.split_ratio"))


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.values["datagen.seed"] = str(args.seed)
    dataset = generate(cfg.generator_config())
    outdir = _make_outdir(args, "gen-data", cfg.get_int("datagen.seed"))
    cfg.echo(outdir / "effective.cfg")
    write_jsonl(dataset, outdir / "dataset.jsonl")
    print(outdir / "dataset.jsonl")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    train, _ = _load_split(args, cfg)
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=cfg.get_int("model.seed"))
    curve = pretrain(model, train, cfg.train_config())
    outdir = _make_outdir(args, "pretrain", cfg.get_int("train.seed"))
    cfg.echo(outdir / "effective.cfg")
    save_checkpoint(outdir / "backbone.ckpt", model.named_parameters(), cfg.digest())
    with open(outdir / "pretrain_curve.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("step", "loss", "loss_ctr", "loss_ctcvr"))
        for step, loss, l_ctr, l_ctcvr in curve:
            w.writerow((step, repr(loss), repr(l_ctr), repr(l_ctcvr)))
    print(outdir / "backbone.ckpt")
    return EXIT_OK


def _restore_backbone(cfg: RunConfig, ckpt_path: Path):
    """The frozen model restored from `ckpt_path` and the adapters stored
    beside it ({} for a pretrain checkpoint). The loaded arrays die on
    return, so no caller keeps the checkpoint's mapping alive."""
    arrays, _ = load_checkpoint(ckpt_path)
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=None)
    model.restore(arrays)
    model.set_trainable(False)
    return model, adapters_from_arrays(arrays, model.rep_dim, model.n_heads, cfg.iak_config())


def cmd_finetune(args) -> int:
    cfg = _load_cfg(args)
    if not args.backbone:
        raise PathError("backbone checkpoint required (--backbone)")
    ckpt = _resolve_input(args, args.backbone, "backbone checkpoint")
    train, _ = _load_split(args, cfg)
    model, _ = _restore_backbone(cfg, ckpt)
    selectors = expand_domain_selectors(cfg.get_list("train.finetune_domains"), train)
    result = finetune_all(model, train, selectors, cfg.train_config(), cfg.iak_config())
    outdir = _make_outdir(args, "finetune", cfg.get_int("train.seed"))
    cfg.echo(outdir / "effective.cfg")
    params = dict(model.named_parameters())
    for adapter in result.adapters.values():
        params.update(adapter.named_parameters())
    save_checkpoint(outdir / "finetuned.ckpt", params, cfg.digest())
    with open(outdir / "finetune_curve.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("step", "domain", "n_batch", "loss", "grad_norm", "lr_effective", "lr_saturated"))
        for r in result.curve:
            w.writerow((r.step, r.domain, r.n_batch, repr(r.loss), repr(r.grad_norm), repr(r.lr_effective), r.lr_saturated))
    print(outdir / "finetuned.ckpt")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    ckpt = _resolve_input(args, args.checkpoint, "checkpoint")
    _, test = _load_split(args, cfg)
    if not test:
        raise DatasetError("test split is empty; check datagen.split_ratio")
    model, adapters = _restore_backbone(cfg, ckpt)
    seed = cfg.get_int("train.seed")
    split = SplitPass(model, encode_records(test, cfg.feature_space()))
    p_ctr, p_ctcvr = split.zero_shot()
    reports = [report_from_scores(p_ctr, p_ctcvr, split.dataset, "test", "zero_shot", seed)]
    for key, idx, sub in split.slices({key: a.domain_key for key, a in adapters.items()}):
        reports.append(report_from_scores(p_ctr[idx], p_ctcvr[idx], sub, f"test:{key}", "zero_shot", seed))
        ap_ctr, ap_ctcvr = split.adapted(adapters[key], idx)
        reports.append(report_from_scores(ap_ctr, ap_ctcvr, sub, f"test:{key}", f"iak:{key}", seed))
    outdir = _make_outdir(args, "eval", seed)
    cfg.echo(outdir / "effective.cfg")
    with open(outdir / "report.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("dataset", "model", "ctr_auc", "ctcvr_auc", "n_pos_ctr", "n_neg_ctr", "n_pos_ctcvr", "n_neg_ctcvr", "seed"))
        for r in reports:
            w.writerow(
                (r.dataset_id, r.model_id,
                 "" if r.ctr_auc is None else repr(r.ctr_auc),
                 "" if r.ctcvr_auc is None else repr(r.ctcvr_auc),
                 r.n_pos_ctr, r.n_neg_ctr, r.n_pos_ctcvr, r.n_neg_ctcvr, r.seed)
            )
    print(outdir / "report.csv")
    return EXIT_OK


def cmd_serve(args) -> int:
    cfg = _load_cfg(args)
    ckpt = _resolve_input(args, args.checkpoint, "checkpoint")
    model, adapters = _restore_backbone(cfg, ckpt)
    router = DomainRouter(model, adapters, lazy_activation=cfg.get_bool("router.lazy_activation"))
    # the bytes under a text stdin, so `serve` decodes each line on its own
    return serve(router, getattr(sys.stdin, "buffer", sys.stdin), sys.stdout)


def cmd_experiment(args) -> int:
    cfg = _load_cfg(args)
    rows = experiment_rows(args.kind, cfg, Path(args.workdir))
    outdir = _make_outdir(args, f"experiment-{args.kind}", cfg.get_int("train.seed"))
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
    p.add_argument("--seed", type=int, help="override datagen.seed")
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
