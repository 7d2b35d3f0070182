"""One benchmark run: a whole user session of iakrec at one workload's sizes.

A session drives the real user path in-process:

1. set-up: `gen-data` through `iakrec.cli.main`, repeated;
2. pipeline: `pretrain` -> `finetune` -> `eval` through `iakrec.cli.main`;
3. deploy: the router is built the way `cmd_serve` builds it
   (`load_checkpoint`, `build_model` + `restore`, `adapters_from_arrays`,
   `DomainRouter` with the default eager activation), repeated;
4. serve: `iakrec.router.serve` answers a closed-loop stream (throughput)
   and an open-loop stream at a fixed rate (latency);
5. checks of every output, made after the timed phases.

In the untraced session the repeated evals, half of the deploys and half of
the closed loop run after the open loop (see `Session.run_pass`).

End-to-end metrics come from an untraced session. A traced session repeats
the work once with every layer function wrapped (see `layers.py`).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import iakrec
from iakrec import checkpoint, cli, config, datagen, evals, models, router, trainer

from . import speed, traffic
from .layers import layer_metrics, trace_targets
from .tracing import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict[str, str]  # run config keys besides the seeds
    setup: str  # what setup_s times: "gen_data" or "deploy"
    closed_share: float  # closed-loop requests = CLOSED_PER_S * seconds * share
    open_rate: float  # requests per second in the open loop
    open_share: float  # open-loop requests = open_rate * seconds * share


GEN_REPEATS = 3
EVAL_REPEATS = 2  # eval is short, so each pipeline times it several times
DEPLOY_REPEATS = 40
CLOSED_PER_S = 200.0
RATE_BLOCKS = 20  # the closed loop is scaled to the reference speed in this many runs of lines, all parts together
SAMPLE_CHECKS = 40  # served rows re-scored through evals per stream

_SHIFTED = {
    "datagen.period_shifts": "1.0,-1.0,1.5",
    "datagen.period_tilts": "0.5,0.5,-0.5",
    "train.lr": "0.05",
    "train.batch_size": "512",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_pipeline",
            "small tables and 5 jointly fine-tuned adapters: Python overhead and the adapter step dominate, and the model learns",
            {**_SHIFTED, "datagen.n_users": "500", "datagen.n_items": "300", "datagen.n_days": "10",
             "datagen.records_per_day": "5000", "train.epochs": "2",
             "train.finetune_domains": "period=*,scene=*"},
            setup="gen_data", closed_share=0.15, open_rate=40.0, open_share=0.4,
        ),
        Workload(
            "wide_vocab",
            "500k users and 100k items: embedding tables exceed cache, so backward and the optimizer scale with vocabulary",
            {**_SHIFTED, "datagen.n_users": "500000", "datagen.n_items": "100000", "datagen.n_days": "7",
             "datagen.records_per_day": "5000", "train.epochs": "1"},
            setup="gen_data", closed_share=0.3, open_rate=70.0, open_share=0.5,
        ),
        Workload(
            "serve_mix",
            "mixed request stream through 4 eager adapters, with zero-shot, out-of-vocab and malformed lines: the read path",
            {**_SHIFTED, "datagen.n_users": "500", "datagen.n_items": "300", "datagen.n_days": "7",
             "datagen.records_per_day": "5000", "datagen.split_ratio": "5:2", "train.epochs": "1",
             "train.finetune_domains": "period=*,scene=0"},
            setup="deploy", closed_share=0.3, open_rate=50.0, open_share=0.6,
        ),
    )
}


Interval = tuple[speed.Clock, speed.Clock]


class RunFailed(Exception):
    """A command failed, so the session cannot go on."""


@dataclass
class Pass:
    """Timings and outputs of one pass over a session's phases. Timed
    intervals are (start, end) pairs of `speed.clock()` readings."""

    tag: str
    eval_repeats: int
    phases: dict[str, Interval] = field(default_factory=dict)
    gen: list[Interval] = field(default_factory=list)
    deploy: list[Interval] = field(default_factory=list)
    pretrain: Interval = ((0, 0), (0, 0))
    finetune: Interval = ((0, 0), (0, 0))
    evals: list[Interval] = field(default_factory=list)
    report: list[dict] = field(default_factory=list)  # the iak:* rows of report.csv
    digests: dict[str, str] = field(default_factory=dict)
    served: router.DomainRouter | None = None
    closed: list[traffic.StreamResult] = field(default_factory=list)  # closed-loop parts, in order
    open: traffic.StreamResult | None = None


class Session:
    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        seeds = {k: str(seed) for k in ("datagen.seed", "model.seed", "train.seed")}
        self.cfg = config.RunConfig({**workload.settings, **seeds})
        self.cfg_path = workdir / "bench.cfg"
        self.problems: list[str] = []  # failed output checks
        self.crashes: list[str] = []  # request lines that raised out of serve (failed operations)
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.speed: speed.Speedometer | None = None
        self.facts: dict = {}
        self.streams: dict[str, list[traffic.Line]] = {}  # request lines, made once per session

    # -- running ------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, p: Pass, name: str):
        t0 = speed.clock()
        with self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext():
            yield
        p.phases[name] = (t0, speed.clock())

    def command(self, name: str, *args: str) -> Interval:
        """Run one CLI command; returns its (start, end) clocks."""
        argv = [name, "--config", str(self.cfg_path), "--workdir", str(self.workdir), *args]
        self.attempted += 1
        sink = io.StringIO()
        t0 = speed.clock()
        with self.tracer.span(f"cli.{name}") if self.tracer else contextlib.nullcontext():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        t1 = speed.clock()
        if rc != 0:
            self.failed += 1
            raise RunFailed(f"iakrec {name} exited {rc}: {sink.getvalue().strip()[-300:]}")
        return t0, t1

    def run_pass(self, tag: str, repeat: bool, open_loop: bool) -> Pass:
        """The timed phases. With `repeat`, eval and the step `setup_s`
        measures are timed several times, and the repeated evals, the
        second half of the deploys and the second half of the closed loop
        run at the end of the pass, so that each of these metrics is
        measured at two times of the run (the CPU speed on a shared host
        drifts over tens of seconds)."""
        gen_repeats = GEN_REPEATS if repeat and self.w.setup == "gen_data" else 1
        deploy_repeats = DEPLOY_REPEATS if repeat and self.w.setup == "deploy" else 1
        eval_repeats = EVAL_REPEATS if repeat else 1
        p = Pass(tag, eval_repeats)
        with self.phase(p, "setup"):
            for k in range(gen_repeats):
                p.gen.append(self.command("gen-data", "--outdir", f"{tag}-data{k}"))
        data = f"{tag}-data0/dataset.jsonl"
        self.check_datasets([self.workdir / f"{tag}-data{k}/dataset.jsonl" for k in range(gen_repeats)])
        if not self.streams:
            self.learn_facts(self.workdir / data)

        def evaluate(j: int) -> Interval:
            return self.command("eval", "--data", data, "--checkpoint", f"{tag}-ft/finetuned.ckpt",
                                "--outdir", f"{tag}-ev{j}")

        with self.phase(p, "pipeline"):
            p.pretrain = self.command("pretrain", "--data", data, "--outdir", f"{tag}-pre")
            p.finetune = self.command("finetune", "--data", data, "--backbone", f"{tag}-pre/backbone.ckpt",
                                      "--outdir", f"{tag}-ft")
            p.evals.append(evaluate(0))
        ckpt = self.workdir / f"{tag}-ft/finetuned.ckpt"

        def deploy(n: int) -> None:
            for _ in range(n):
                t0 = speed.clock()
                p.served = build_router(self.cfg, ckpt)
                p.deploy.append((t0, speed.clock()))

        with self.phase(p, "deploy"):
            deploy(max(1, deploy_repeats // 2))
        pace = self.tracer.wrap("bench.pace", self.speed.pace) if self.tracer else self.speed.pace
        closed = self.streams["closed"]
        parts = [closed[: len(closed) // 2], closed[len(closed) // 2:]] if repeat else [closed]

        def serve_closed(lines: list[traffic.Line], phase: str) -> None:
            with quiet_heap(), self.speed.paused(), self.phase(p, phase):
                p.closed.append(traffic.run_stream(router, p.served, lines, pace=pace))
            self.count_stream(p.closed[-1])

        serve_closed(parts[0], "serve_closed")
        if open_loop:
            with quiet_heap(), self.speed.paused(), self.phase(p, "serve_open"):
                p.open = traffic.run_stream(router, p.served, self.streams["open"], self.w.open_rate, pace)
            self.count_stream(p.open)
        if len(parts) > 1:
            serve_closed(parts[1], "serve_closed_again")
        if eval_repeats > 1:
            with self.phase(p, "eval_again"):
                p.evals += [evaluate(j) for j in range(1, eval_repeats)]
        if deploy_repeats > 1:
            with self.phase(p, "deploy_again"):
                deploy(deploy_repeats - deploy_repeats // 2)
        return p

    def check_pass(self, p: Pass) -> None:
        """Output checks and digests of a pass; run untraced."""
        pre, ft = self.workdir / f"{p.tag}-pre", self.workdir / f"{p.tag}-ft"
        p.report = self.check_pipeline(pre, ft, [self.workdir / f"{p.tag}-ev{j}" for j in range(p.eval_repeats)])
        p.digests = {
            "pretrained": trainer.model_digest(checkpoint.load_checkpoint(pre / "backbone.ckpt")[0]),
            "finetuned": trainer.model_digest(checkpoint.load_checkpoint(ft / "finetuned.ckpt")[0]),
        }
        self.facts["adapters"] = keys = list(p.served.adapters)
        for res in (*p.closed, p.open):
            if res is not None:
                self.check_stream(res, p.served, keys)

    def count_stream(self, res: traffic.StreamResult) -> None:
        self.attempted += len(res.lines)
        self.failed += len(res.crashed)

    def crash_probe(self, served) -> int:
        """Feed the overflowing-id lines between plain ones (untimed) and
        count the lines that crashed `serve`."""
        plain = self.streams["probe"]
        lines = [plain[0]]
        for text, extra in zip(traffic.OVERFLOW_LINES, plain[1:]):
            lines += [traffic.Line(text, "overflow"), extra]
        res = traffic.run_stream(router, served, lines)
        answered = {idx for idx, _, _ in res.rec.out}
        for i, line in enumerate(lines):
            if line.kind != "overflow" and i not in answered:
                self.problems.append(f"crash probe: line {i} after a crash got no response")
        return len(res.crashed)

    # -- facts and checks ---------------------------------------------------
    def learn_facts(self, data_path: Path) -> None:
        records = datagen.read_jsonl(data_path)
        train, test = datagen.split_chronological(records, self.cfg.get_ratio("datagen.split_ratio"))
        selectors = []
        for entry in self.cfg.get_list("train.finetune_domains"):
            topic, _, value = entry.partition("=")
            if value == "*":
                selectors += [{topic: i} for i in sorted({r.domain_ids[topic] for r in train})]
            else:
                selectors.append(traffic.parse_key(entry))
        n_ft = sum(sum(all(r.domain_ids.get(t) == i for t, i in sel.items()) for r in train) for sel in selectors)
        self.facts.update(n_train=len(train), n_test=len(test), n_finetune=n_ft)
        space = self.cfg.feature_space()
        sizes = {
            "closed": max(1, round(CLOSED_PER_S * self.seconds * self.w.closed_share)),
            "open": max(1, round(self.w.open_rate * self.seconds * self.w.open_share)),
            "probe": len(traffic.OVERFLOW_LINES) + 1,
        }
        for salt, (name, n) in enumerate(sizes.items()):
            self.streams[name] = traffic.make_lines(test, n, space.n_users, space.n_scenes, space.n_periods,
                                                    self.seed, salt)

    def check_datasets(self, paths: list[Path]) -> None:
        digests = {hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        if len(digests) != 1:
            self.problems.append("gen-data with one seed wrote different datasets")
        self.facts["dataset_sha256"] = digests.pop()

    def check_pipeline(self, pre: Path, ft: Path, evs: list[Path]) -> list[dict]:
        tc = self.cfg.train_config()
        curve = _read_csv(pre / "pretrain_curve.csv")
        want = math.ceil(self.facts["n_train"] / tc.batch_size) * tc.epochs
        if len(curve) != want:
            self.problems.append(f"{pre.name}: pretrain curve has {len(curve)} rows, expected ceil(N/B)*epochs = {want}")
        losses = [float(r[k]) for r in curve for k in ("loss", "loss_ctr", "loss_ctcvr")]
        losses += [float(r["loss"]) for r in _read_csv(ft / "finetune_curve.csv")]
        if not losses or not all(map(math.isfinite, losses)):
            self.problems.append(f"{pre.name}/{ft.name}: a training loss is missing or not finite")
        ev = evs[0]
        if len({(e / "report.csv").read_bytes() for e in evs}) != 1:
            self.problems.append(f"{ev.name}: repeated evals of one checkpoint gave different reports")
        report = _read_csv(ev / "report.csv")
        iak = [r for r in report if r["model"].startswith("iak:")]
        if not iak:
            self.problems.append(f"{ev.name}: report has no iak rows")
        for r in report:
            for k in ("ctr_auc", "ctcvr_auc"):
                if r[k] == "" or not math.isfinite(float(r[k])):
                    self.problems.append(f"{ev.name}: {r['dataset']} {r['model']} {k} is {r[k]!r}")
        return iak

    def check_stream(self, res: traffic.StreamResult, served, keys: list[str]) -> traffic.Graded:
        g = traffic.grade(res, keys)
        self.problems += g.problems
        self.crashes += [f"line {i}: {kind}" for i, kind in zip(res.crashed, res.crash_types)]
        space = served.space
        scored = [i for i, line in enumerate(res.lines) if line.kind != "malformed" and g.responses[i]]
        for i in scored[:: max(1, len(scored) // SAMPLE_CHECKS)][:SAMPLE_CHECKS]:
            request = router.request_from_json(json.loads(res.lines[i].text))
            enc = router.encode_request(request, space)
            resp = g.responses[i]
            if resp["served_by"] == router.ZERO_SHOT:
                p_ctr, p_ctcvr = evals.score_backbone(served.backbone, enc, 1)
            else:
                p_ctr, p_ctcvr = evals.score_adapted(served.backbone, served.adapters[resp["served_by"]], enc, 1)
            if abs(p_ctr[0] - resp["p_ctr"]) > 1e-9 or abs(p_ctcvr[0] - resp["p_ctcvr"]) > 1e-9:
                self.problems.append(f"line {i}: served ({resp['p_ctr']}, {resp['p_ctcvr']}) but evals gives "
                                     f"({p_ctr[0]}, {p_ctcvr[0]})")
        res.graded = g
        return g


@contextlib.contextmanager
def quiet_heap():
    """Freeze the objects that exist before a stream starts. A serve process
    holds only the model and its adapters; in the benchmark's process the
    garbage collector would also scan the harness's own objects, adding
    pauses that `iakrec serve` does not have."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def build_router(cfg: config.RunConfig, ckpt: Path):
    """The deploy path of `cmd_serve`, called through module attributes so
    that tracing sees each step."""
    arrays, _ = checkpoint.load_checkpoint(ckpt)
    model = models.build_model(cfg.model_config(), cfg.feature_space(), seed=cfg.get_int("model.seed"))
    model.restore({k: v for k, v in arrays.items() if not k.startswith("adapter/")})
    adapters = router.adapters_from_arrays(arrays, model.rep_dim, model.n_heads, cfg.iak_config())
    return router.DomainRouter(model, adapters, lazy_activation=cfg.get_bool("router.lazy_activation"))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


# -- end-to-end metrics -------------------------------------------------------
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pretrain_rec_per_s": "rec/s",
    "finetune_rec_per_s": "rec/s",
    "eval_rec_per_s": "rec/s",
    "ctr_auc": "auc",
    "ctcvr_auc": "auc",
    "serve_rps": "req/s",
    "serve_p50_ms": "ms",
    "serve_p95_ms": "ms",
    "serve_slo_share": "share",
}


def end_to_end(s: Session, p: Pass, sp: speed.Speedometer | None) -> dict[str, float]:
    """With a speedometer, every timing is CPU time scaled to the reference
    speed (serving by the request kernel, the rest by the step kernel), and
    open-loop latencies are queued from the scaled service times
    (`queued_latencies_ms`); without one, timings are raw wall times."""

    def sec(iv: Interval, kernel: str = "step") -> float:
        return sp.seconds(*iv, kernel) if sp else speed.raw_seconds(*iv)

    epochs = s.cfg.get_int("train.epochs")
    med = statistics.median
    g = p.open.graded
    if sp:
        lat = queued_latencies_ms(p.open, sp)
    else:
        lat = [(t[0] - d) / 1e6 if t is not None else None for t, d in zip(g.written, p.open.due_ns)]
    answered = [x for x in lat if x is not None]
    slo_hits = sum(ok and x is not None and x <= traffic.SLO_MS for ok, x in zip(g.ok, lat))
    evals = [sec(iv) for iv in p.evals]
    rate_blocks = [b for res in p.closed for b in res.blocks(RATE_BLOCKS // len(p.closed))]
    return {
        "setup_s": med(sec(iv) for iv in (p.gen if s.w.setup == "gen_data" else p.deploy)),
        "pipeline_s": sec(p.pretrain) + sec(p.finetune) + statistics.fmean(evals),
        "pretrain_rec_per_s": s.facts["n_train"] * epochs / sec(p.pretrain),
        "finetune_rec_per_s": s.facts["n_finetune"] * epochs / sec(p.finetune),
        "eval_rec_per_s": s.facts["n_test"] * len(evals) / sum(evals),
        "ctr_auc": statistics.fmean(float(r["ctr_auc"]) for r in p.report),
        "ctcvr_auc": statistics.fmean(float(r["ctcvr_auc"]) for r in p.report),
        "serve_rps": sum(n for n, _, _ in rate_blocks) / sum(sec((a, b), "request") for _, a, b in rate_blocks),
        "serve_p50_ms": percentile(answered, 50),
        "serve_p95_ms": percentile(answered, 95),
        "serve_slo_share": slo_hits / len(p.open.lines),
    }


def queued_latencies_ms(res: traffic.StreamResult, sp: speed.Speedometer) -> list[float | None]:
    """Open-loop latency of each line from its due time, at the reference
    speed and without the host's preemptions: each line's service time is
    the CPU time `serve` spent on it (line handed over to response written),
    scaled, and lines queue first in, first out, as `serve` takes them, so a
    slow line still delays the lines behind it. A line without a response
    has no latency."""
    out: list[float | None] = []
    free = 0.0  # when `serve` is done with the line before, ns after the first due time
    for due, fed, written in zip(res.due_ns, res.fed, res.graded.written):
        if written is None:
            out.append(None)
            continue
        arrive = due - res.due_ns[0]
        free = max(arrive, free) + sp.seconds(fed, written, "request") * 1e9
        out.append((free - arrive) / 1e6)
    return out


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else float("nan")


# -- stamps -------------------------------------------------------------------
def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a copy that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path, seed: int, cfg: config.RunConfig) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "iakrec": str(Path(iakrec.__file__).resolve().parent.relative_to(root)),
        "seed": seed,
        "config_digest": cfg.digest(),
    }


def new_workdir(root: Path) -> Path:
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    work = base / f"work-{os.getpid()}-{time.time_ns()}"
    work.mkdir()
    return work


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one session; returns the result dict (the benchmark's last
    output line) plus `info` with stamps, digests and the spans."""
    work = new_workdir(root)
    try:
        s = Session(workload, seed, seconds, work)
        s.cfg.echo(s.cfg_path)
        info: dict = {"workload": workload.name, "env": environment(root, seed, s.cfg)}
        try:
            if not trace:
                sp = s.speed = speed.Speedometer()
                with sp.running():
                    p = s.run_pass("u", repeat=True, open_loop=True)
                s.check_pass(p)
                metrics, units = ({}, {}) if s.problems else (end_to_end(s, p, sp), END_TO_END_UNITS)
                if metrics:
                    info["raw_metrics"] = end_to_end(s, p, None)
                    info["speed"] = sp.summary()
            else:
                # an untraced reference pass for the tracing overhead, then the traced pass
                sp = s.speed = speed.Speedometer()
                with sp.running():
                    ref = s.run_pass("r", repeat=False, open_loop=False)
                    s.tracer = Tracer()
                    with s.tracer.patched(trace_targets()):
                        p = s.run_pass("t", repeat=False, open_loop=True)
                tracer, s.tracer = s.tracer, None
                s.check_pass(ref)
                s.check_pass(p)
                probe = s.crash_probe(p.served)
                metrics, units = ({}, {}) if s.problems else layer_metrics(tracer.spans, ref, p, probe, sp)
                info["spans"] = tracer
            info["digests"] = {**p.digests, "dataset": s.facts["dataset_sha256"],
                               "responses": traffic.response_digest(
                                   [r for res in (*p.closed, p.open) for r in res.graded.responses])}
        except RunFailed as e:
            s.problems.append(str(e))
            metrics, units = {}, {}
        info["adapters"] = s.facts.get("adapters")
        info["problems"] = s.problems
        info["crashes"] = s.crashes
        result = {
            "correct": not s.problems,
            "attempted": max(1, s.attempted),
            "failed": s.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return {"result": result, "info": info}
    finally:
        shutil.rmtree(work, ignore_errors=True)
