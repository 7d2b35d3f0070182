"""Tests of the benchmark itself: metric names and units, tiny runs of every
workload, the self-time arithmetic, the output checks and the serve restart
path."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from iakrec import router
from iakrec.iak import IAKAdapter, IAKConfig
from iakrec.models import FeatureSpace, ModelConfig, build_model
from perfbench import session, speed, traffic
from perfbench.tracing import Span, Tracer, covered, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# small enough for seconds, dense enough that every eval slice has both classes
TINY = {
    "datagen.n_users": "60",
    "datagen.n_items": "40",
    "datagen.n_days": "7",
    "datagen.records_per_day": "400",
    "datagen.target_click_rate": "0.2",
    "datagen.target_purchase_rate_given_click": "0.5",
}


def tiny(name: str) -> session.Workload:
    w = session.WORKLOADS[name]
    return dataclasses.replace(w, settings={**w.settings, **TINY})


def _workdirs() -> set[Path]:
    return set((ROOT / ".bench_out").glob("work-*"))


@pytest.fixture(scope="module", params=sorted(session.WORKLOADS))
def tiny_runs(request):
    before = _workdirs()
    runs = [session.run(tiny(request.param), 7, 0.3, trace, ROOT) for trace in (False, True)]
    return runs, _workdirs() - before


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(session.WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in session.WORKLOADS.values()]


def test_tiny_runs_pass_checks_and_report_every_metric_with_its_unit(tiny_runs):
    (plain, traced), left_behind = tiny_runs
    for out, section in ((plain, "end_to_end"), (traced, "per_layer")):
        res = out["result"]
        assert out["info"]["problems"] == []
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(np.isfinite(v["value"]) for v in res["metrics"].values())
    layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    assert layer["iak.adapted_prediction.calls_per_request"] == len(traced["info"]["adapters"])  # eager router
    assert 0 <= layer["router.probe_crashes"] <= len(traffic.OVERFLOW_LINES)
    assert 0.0 < layer["bench.layer_share"] <= 1.0
    assert left_behind == set()


def test_same_seed_gives_same_digests():
    w = tiny("serve_mix")
    a, b = (session.run(w, 3, 0.1, False, ROOT)["info"]["digests"] for _ in range(2))
    assert a == b


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a1", 20, 30, 1),
        Span("b", 50, 90, 0),
        Span("b1", 55, 70, 3),
        Span("b2", 60, 80, 3),  # overlaps b1: covered once
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40 - 25, 15, 20]
    assert covered([(0, 5), (3, 8), (10, 12)]) == 10
    assert covered([]) == 0


def test_tracer_records_parents_and_restores_patches():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Owner.inner(x) * 2

    holder = type("Holder", (), {"outer": staticmethod(outer)})
    original_inner = Owner.__dict__["inner"]
    t = Tracer()
    with t.patched([(Owner, "inner", "m.inner", lambda a, out: out)]):
        wrapped_outer = t.wrap("m.outer", holder.outer)
        assert wrapped_outer(3) == 8
    assert Owner.__dict__["inner"] is original_inner
    assert [(s.name, s.parent, s.count) for s in t.spans] == [("m.outer", -1, None), ("m.inner", 0, 4)]


def _tiny_router(broken_select: bool = False):
    space = FeatureSpace(n_users=20, n_items=10, n_scenes=2, n_regions=6, n_periods=3)
    model = build_model(ModelConfig(kind="base", hidden_sizes=(8, 4), n_experts=2, loss_weights=(1.0, 1.0)),
                        space, seed=0)
    cfg = IAKConfig(d_e=4, decoder_hidden=(4,))
    adapters = {k: IAKAdapter(model.rep_dim, model.n_heads, cfg, traffic.parse_key(k), seed=i)
                for i, k in enumerate(("period=0", "period=1", "period=2", "period=0,scene=0"))}
    for a in adapters.values():  # a non-zero decoder so adapters differ from zero-shot
        a.decoder_out.w.data = np.full_like(a.decoder_out.w.data, 0.3)
    r = router.DomainRouter(model, adapters)
    if broken_select:
        r._select = lambda domain_ids: None
    return r, space


def _requests(space, n=30):
    rng = np.random.default_rng(0)
    Rec = type("Rec", (), {})
    recs = []
    for _ in range(n):
        r = Rec()
        r.user_id, r.item_id = int(rng.integers(0, 20)), int(rng.integers(0, 10))
        r.domain_ids = {"scene": int(rng.integers(0, 2)), "region": 0, "period": int(rng.integers(0, 3))}
        r.feature_ids = [1, 2, 3, 4]
        recs.append(r)
    return traffic.make_lines(recs, n, space.n_users, space.n_scenes, space.n_periods, seed=0, salt=0)


def test_restart_counts_one_failure_per_overflowing_line():
    served, space = _tiny_router()
    plain = _requests(space)
    lines = []
    for i, line in enumerate(plain):
        lines.append(line)
        if i % 7 == 3 and i // 7 < len(traffic.OVERFLOW_LINES):
            lines.append(traffic.Line(traffic.OVERFLOW_LINES[i // 7], "overflow"))
    crashing = []
    for i, line in enumerate(lines):
        try:
            served.score(router.request_from_json(json.loads(line.text)))
        except (json.JSONDecodeError, router.RequestError):  # answered per line
            pass
        except Exception:  # noqa: BLE001 - whatever escapes score escapes serve
            crashing.append(i)
    res = traffic.run_stream(router, served, lines)
    assert res.crashed == crashing
    graded = traffic.grade(res, list(served.adapters))
    assert graded.problems == []
    assert [i for i, ok in enumerate(graded.ok) if not ok] == crashing


def test_checks_catch_a_wrong_adapter():
    served, space = _tiny_router(broken_select=True)
    res = traffic.run_stream(router, served, _requests(space))
    graded = traffic.grade(res, list(served.adapters))
    assert any("wrong response" in p for p in graded.problems)


def test_expected_adapter_prefers_the_most_specific_key():
    keys = ["period=0", "period=0,scene=0", "scene=0"]
    assert traffic.expected_adapter(keys, {"period": 0, "scene": 0}) == "period=0,scene=0"
    assert traffic.expected_adapter(keys, {"period": 0, "scene": 1}) == "period=0"
    assert traffic.expected_adapter(keys, {"period": 3, "scene": 2}) == "zero_shot"


def test_request_mix_follows_its_shares_and_seed():
    Rec = type("Rec", (), {"user_id": 1, "item_id": 2, "domain_ids": {"scene": 0, "region": 1, "period": 2},
                           "feature_ids": [1, 2, 3, 4]})
    lines = traffic.make_lines([Rec()], 5000, 10, 2, 3, seed=5, salt=0)
    share = {k: sum(line.kind == k for line in lines) / len(lines) for k in ("zero_shot", "oov", "malformed")}
    assert share == {"zero_shot": traffic.ZERO_SHOT_SHARE, "oov": traffic.OOV_SHARE,
                     "malformed": traffic.MALFORMED_SHARE}
    again = traffic.make_lines([Rec()], 5000, 10, 2, 3, seed=5, salt=0)
    assert [line.text for line in lines] == [line.text for line in again]


def test_speed_factor_leaves_out_a_preempted_sample():
    sp = speed.Speedometer()
    ref = int(speed.REFERENCE_S["step"] * 1e9)
    sp.at_ns = [i * 50_000_000 for i in range(10)]
    sp.kernel_ns["step"] = [ref] * 9 + [40 * ref]
    assert sp.factor(0, 450_000_000) == pytest.approx(1.0)
    sp.kernel_ns["step"][-1] = 2 * ref  # a slow state, not preemption: it counts
    assert sp.factor(0, 450_000_000) == pytest.approx(10 / 11)


def test_pace_samples_between_lines_only_when_the_gap_has_room():
    sp = speed.Speedometer()
    sp.pace(None)  # closed loop, no sample yet: take one
    assert len(sp.at_ns) == 1
    sp.at_ns[-1] -= 2 * int(speed.INTERVAL_S * 1e9)  # the last sample is old enough
    due = time.perf_counter_ns() + speed.WAIT_ROOM_NS // 2
    sp.pace(due)  # too little room before the line is due: no sample, but wait for it
    assert len(sp.at_ns) == 1 and time.perf_counter_ns() >= due
    sp.pace(time.perf_counter_ns() + 2 * speed.WAIT_ROOM_NS)
    assert len(sp.at_ns) == 2


def test_without_sources_run_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve_mix", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
