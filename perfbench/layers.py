"""Which iakrec functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each target is patched where its callers bind the name. Scopes matter where
one function serves several phases: `models.forward_full.*` and the
`autodiff.*` step metrics cover the training steps under `trainer.pretrain`,
and `models.forward_full.serve_ms_p50` the single-row forwards under
`router.score`.
"""

from __future__ import annotations

import statistics

import numpy as np

from iakrec import autodiff, checkpoint, cli, evals, iak, models, router, trainer

from .tracing import LAYER_MODULES, Span, ancestors, module_of, self_times

BUSY_PHASES = ("bench.setup", "bench.pipeline", "bench.deploy", "bench.serve_closed", "bench.serve_open")


def _rows(args, out):
    return len(out)


# an adapter step below this share of the base rate barely moves the adapter
# but pays for a full forward and backward
STARVED = 1e-3


def _finetune_counts(args, out):
    base_lr = args[3].base_lr
    rows = out.curve
    return (len(rows), sum(r.lr_saturated for r in rows),
            sum(r.lr_effective < STARVED * base_lr for r in rows))


def trace_targets():
    """(owner, attribute, span name, counter) for every wrapped function."""
    forward = [(cls, "forward_full", "models.forward_full", lambda a, out: len(a[1]))
               for cls in models.MODEL_KINDS.values() if "forward_full" in cls.__dict__]
    return [
        (cli, "generate", "datagen.generate", None),
        (cli, "write_jsonl", "datagen.write_jsonl", None),
        (cli, "read_jsonl", "datagen.read_jsonl", _rows),
        (cli, "split_chronological", "datagen.split_chronological", None),
        (cli, "filter_by_domain", "datagen.filter_by_domain", None),
        (cli, "encode_records", "models.encode_records", _rows),
        (trainer, "encode_records", "models.encode_records", _rows),
        (cli, "build_model", "models.build_model", None),
        (models, "build_model", "models.build_model", None),
        (models.MultiTaskModel, "restore", "models.restore", None),
        *forward,
        (autodiff, "backward", "autodiff.backward", lambda a, out: len(out.nodes)),
        (autodiff, "gather_rows", "autodiff.gather_rows", None),
        (autodiff, "adagrad_decay_step", "autodiff.adagrad_decay_step", None),
        (cli, "pretrain", "trainer.pretrain", _rows),
        (cli, "finetune_all", "trainer.finetune_all", _finetune_counts),
        (trainer, "backbone_cache", "iak.backbone_cache", None),
        (trainer, "adapter_step_cached", "iak.adapter_step_cached", None),
        (router, "adapted_prediction", "iak.adapted_prediction", None),
        (iak, "adapted_prediction", "iak.adapted_prediction", None),  # evals imports it at call time
        (cli, "score_backbone", "evals.score_backbone", None),
        (cli, "score_adapted", "evals.score_adapted", None),
        (evals, "auc", "evals.auc", None),
        (router, "serve", "router.serve", None),
        (router, "request_from_json", "router.request_from_json", None),
        (router.DomainRouter, "score", "router.score", lambda a, out: out.served_by == router.ZERO_SHOT),
        (cli, "adapters_from_arrays", "router.adapters_from_arrays", None),
        (router, "adapters_from_arrays", "router.adapters_from_arrays", None),
        (cli, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (cli, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
    ]


PER_LAYER_UNITS = {
    "datagen.generate.s": "s",
    "datagen.write_jsonl.s": "s",
    "datagen.read_jsonl.us_per_rec": "us/rec",
    "datagen.read_jsonl.calls": "count",
    "models.encode_records.us_per_rec": "us/rec",
    "models.forward_full.ms_p50": "ms",
    "models.forward_full.ms_p90": "ms",
    "models.forward_full.calls": "count",
    "models.forward_full.rows_per_call": "rows",
    "models.forward_full.serve_ms_p50": "ms",
    "autodiff.backward.ms_p50": "ms",
    "autodiff.backward.ms_p90": "ms",
    "autodiff.backward.calls": "count",
    "autodiff.backward.nodes_per_call": "nodes",
    "autodiff.gather_rows.calls_per_step": "calls/step",
    "autodiff.adagrad_decay_step.ms_p50": "ms",
    "autodiff.adagrad_decay_step.ms_p90": "ms",
    "autodiff.adagrad_decay_step.pretrain_share": "share",
    "trainer.pretrain.s": "s",
    "trainer.pretrain.steps": "count",
    "trainer.finetune_all.s": "s",
    "trainer.finetune.adapter_steps": "count",
    "trainer.finetune.lr_saturated_share": "share",
    "trainer.finetune.starved_step_share": "share",
    "iak.backbone_cache.s": "s",
    "iak.adapter_step_cached.ms_p50": "ms",
    "iak.adapter_step_cached.ms_p90": "ms",
    "iak.adapter_step_cached.calls": "count",
    "iak.adapter_step_cached.finetune_share": "share",
    "iak.adapted_prediction.calls_per_request": "calls/req",
    "evals.score_backbone.s": "s",
    "evals.score_adapted.s": "s",
    "evals.auc.s": "s",
    "router.request_from_json.us_p50": "us",
    "router.score.ms_p50": "ms",
    "router.score.ms_p99": "ms",
    "router.zero_shot_share": "share",
    "router.malformed_share": "share",
    "router.probe_crashes": "count",
    "checkpoint.save_checkpoint.s": "s",
    "checkpoint.load_checkpoint.s": "s",
    **{f"{m}.self_s": "s" for m in (*LAYER_MODULES, "cli")},
    "bench.layer_share": "share",
    "bench.trace_overhead_share": "share",
    "bench.generator_late_ms_p99": "ms",
}


def layer_metrics(spans: list[Span], ref, traced, probe_crashes: int, sp):
    """Per-layer metrics of one traced pass. `ref` is an untraced pass of the
    same work without the open loop; the tracing overhead compares the two
    at the reference speed of the speedometer `sp`."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name, under=None):
        out = by_name.get(name, [])
        if under is not None:
            out = [i for i in out if any(spans[a].name == under for a in ancestors(spans, i))]
        return out

    def total_s(name, under=None):
        return sum(spans[i].dur for i in idx(name, under)) / 1e9

    def pct_ms(name, q, under=None, scale=1e6):
        durs = [spans[i].dur for i in idx(name, under)]
        return float(np.percentile(durs, q)) / scale if durs else float("nan")

    def counts(name, under=None):
        return [spans[i].count for i in idx(name, under)]

    pre = "trainer.pretrain"
    steps = sum(counts(pre))
    pretrain_s = total_s(pre)
    finetune_s = total_s("trainer.finetune_all")
    ft_steps, ft_saturated, ft_starved = (sum(c) for c in zip(*counts("trainer.finetune_all")))
    n_requests = len(idx("router.score"))
    streams = (*traced.closed, traced.open)
    lines = sum(len(res.lines) for res in streams)
    malformed = sum(line.kind == "malformed" for res in streams for line in res.lines)
    fwd_train = idx("models.forward_full", pre)

    selfs = self_times(spans)
    module_self = {m: 0 for m in (*LAYER_MODULES, "cli")}
    for s, st in zip(spans, selfs):
        m = module_of(s.name)
        if m in module_self:
            module_self[m] += st
    busy = sum(spans[i].dur for name in BUSY_PHASES for i in idx(name)) - sum(spans[i].dur for i in idx("bench.pace"))
    layer_ns = sum(v for m, v in module_self.items() if m in LAYER_MODULES)
    ref_phases = ("setup", "pipeline", "deploy", "serve_closed")
    ref_s = sum(sp.seconds(*ref.phases[k]) for k in ref_phases)
    traced_s = sum(sp.seconds(*traced.phases[k]) for k in ref_phases)

    m = {
        "datagen.generate.s": total_s("datagen.generate"),
        "datagen.write_jsonl.s": total_s("datagen.write_jsonl"),
        "datagen.read_jsonl.us_per_rec": total_s("datagen.read_jsonl") * 1e6 / max(1, sum(counts("datagen.read_jsonl"))),
        "datagen.read_jsonl.calls": len(idx("datagen.read_jsonl")),
        "models.encode_records.us_per_rec": total_s("models.encode_records") * 1e6 / max(1, sum(counts("models.encode_records"))),
        "models.forward_full.ms_p50": pct_ms("models.forward_full", 50, pre),
        "models.forward_full.ms_p90": pct_ms("models.forward_full", 90, pre),
        "models.forward_full.calls": len(fwd_train),
        "models.forward_full.rows_per_call": statistics.fmean(spans[i].count for i in fwd_train),
        "models.forward_full.serve_ms_p50": pct_ms("models.forward_full", 50, "router.score"),
        "autodiff.backward.ms_p50": pct_ms("autodiff.backward", 50, pre),
        "autodiff.backward.ms_p90": pct_ms("autodiff.backward", 90, pre),
        "autodiff.backward.calls": len(idx("autodiff.backward", pre)),
        "autodiff.backward.nodes_per_call": statistics.fmean(counts("autodiff.backward", pre)),
        "autodiff.gather_rows.calls_per_step": len(idx("autodiff.gather_rows", pre)) / steps,
        "autodiff.adagrad_decay_step.ms_p50": pct_ms("autodiff.adagrad_decay_step", 50, pre),
        "autodiff.adagrad_decay_step.ms_p90": pct_ms("autodiff.adagrad_decay_step", 90, pre),
        "autodiff.adagrad_decay_step.pretrain_share": total_s("autodiff.adagrad_decay_step", pre) / pretrain_s,
        "trainer.pretrain.s": pretrain_s,
        "trainer.pretrain.steps": steps,
        "trainer.finetune_all.s": finetune_s,
        "trainer.finetune.adapter_steps": ft_steps,
        "trainer.finetune.lr_saturated_share": ft_saturated / ft_steps,
        "trainer.finetune.starved_step_share": ft_starved / ft_steps,
        "iak.backbone_cache.s": total_s("iak.backbone_cache"),
        "iak.adapter_step_cached.ms_p50": pct_ms("iak.adapter_step_cached", 50),
        "iak.adapter_step_cached.ms_p90": pct_ms("iak.adapter_step_cached", 90),
        "iak.adapter_step_cached.calls": len(idx("iak.adapter_step_cached")),
        "iak.adapter_step_cached.finetune_share": total_s("iak.adapter_step_cached") / finetune_s,
        "iak.adapted_prediction.calls_per_request": len(idx("iak.adapted_prediction", "router.score")) / n_requests,
        "evals.score_backbone.s": total_s("evals.score_backbone"),
        "evals.score_adapted.s": total_s("evals.score_adapted"),
        "evals.auc.s": total_s("evals.auc"),
        "router.request_from_json.us_p50": pct_ms("router.request_from_json", 50, scale=1e3),
        "router.score.ms_p50": pct_ms("router.score", 50),
        "router.score.ms_p99": pct_ms("router.score", 99),
        "router.zero_shot_share": sum(bool(c) for c in counts("router.score")) / n_requests,
        "router.malformed_share": malformed / lines,
        "router.probe_crashes": probe_crashes,
        "checkpoint.save_checkpoint.s": total_s("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.s": total_s("checkpoint.load_checkpoint"),
        **{f"{k}.self_s": v / 1e9 for k, v in module_self.items()},
        "bench.layer_share": layer_ns / busy,
        "bench.trace_overhead_share": (traced_s - ref_s) / ref_s,
        "bench.generator_late_ms_p99": float(np.percentile(traced.open.late_ns, 99)) / 1e6 if traced.open.late_ns else 0.0,
    }
    return m, PER_LAYER_UNITS
