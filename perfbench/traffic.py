"""Request streams for `iakrec.router.serve` and the checks on its answers.

Requests are drawn from a workload's own test split, so every field is a
real id. The mix, shuffled by the workload seed:

- 12% come from a domain that has no adapter (scene and period ids one past
  the trained range), so the router falls back to zero-shot;
- 2% carry an out-of-vocabulary user id;
- 1% are malformed lines of the kinds `serve` answers per line: bad JSON
  and a missing field;
- the rest are plain requests.

Lines are fed to `serve` through a generator, either back to back (closed
loop, one client) or each at its due time (open loop, fixed rate). The
generator knows which line `serve` is working on, so every response line
is attributed to its request and timed from that request's due time. A line
that raises out of `serve` is a crash: the supervisor counts one failure and
restarts `serve` on the remaining lines.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .speed import Clock, clock, spin_until

ZERO_SHOT_SHARE = 0.12
OOV_SHARE = 0.02
MALFORMED_SHARE = 0.01
SLO_MS = 20.0

# ids that overflow int64 or float: serve crashes on each of these at the
# seed commit instead of answering the line with an error (ROADMAP item 5)
OVERFLOW_LINES = (
    '{"user_id": 1, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1e400]}',
    '{"user_id": 12345678901234567890, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1]}',
    '{"user_id": 1, "item_id": 1e400, "domain_ids": {"period": 0}, "feature_ids": [1]}',
    '{"user_id": 1, "item_id": 1, "domain_ids": {"period": 98765432109876543210}, "feature_ids": [1]}',
)


@dataclass
class Line:
    text: str
    kind: str  # "plain" | "zero_shot" | "oov" | "malformed" | "overflow"
    domain_ids: dict[str, int] | None = None  # None for malformed lines


def make_lines(records, n: int, n_users: int, n_scenes: int, n_periods: int, seed: int, salt: int) -> list[Line]:
    """`n` request lines whose kinds have exactly the shares above, in an
    order drawn from the seed. Exact shares keep the mix, and so the latency
    percentiles that fall between request kinds, the same for every seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7E, salt]))
    counts = {k: round(share * n) for k, share in
              (("malformed", MALFORMED_SHARE), ("oov", OOV_SHARE), ("zero_shot", ZERO_SHOT_SHARE))}
    kinds = rng.permutation([k for k, c in counts.items() for _ in range(c)] + ["plain"] * (n - sum(counts.values())))
    picks = rng.integers(0, len(records), size=n)
    lines = []
    for j, kind in enumerate(kinds):
        r = records[picks[j]]
        obj = {"user_id": r.user_id, "item_id": r.item_id, "domain_ids": dict(r.domain_ids),
               "feature_ids": list(r.feature_ids)}
        if kind == "malformed":
            if j % 2:
                del obj["item_id"]
                lines.append(Line(json.dumps(obj), kind))
            else:
                lines.append(Line(json.dumps(obj)[:-7], kind))
            continue
        if kind == "oov":
            obj["user_id"] = n_users + 1 + int(rng.integers(0, 1000))
        elif kind == "zero_shot":
            obj["domain_ids"]["scene"] = n_scenes
            obj["domain_ids"]["period"] = n_periods
        lines.append(Line(json.dumps(obj), str(kind), obj["domain_ids"]))
    return lines


def parse_key(key: str) -> dict[str, int]:
    out = {}
    for part in key.split(","):
        topic, _, value = part.partition("=")
        out[topic] = int(value)
    return out


def expected_adapter(adapter_keys: list[str], domain_ids: dict[str, int]) -> str:
    """The most specific adapter key whose selector the domain ids match
    (ties broken by key order), or "zero_shot"."""
    best = None
    for key in sorted(adapter_keys):
        sel = parse_key(key)
        if all(domain_ids.get(t) == i for t, i in sel.items()):
            if best is None or len(sel) > len(parse_key(best)):
                best = key
    return "zero_shot" if best is None else best


class Recorder:
    """Write end of `serve`: each response line is stored with its write
    time (wall and CPU clock) and the index of the line being served when it
    was written."""

    def __init__(self):
        self.current = -1
        self.out: list[tuple[int, Clock, str]] = []

    def write(self, text: str) -> int:
        self.out.append((self.current, clock(), text))
        return len(text)

    def flush(self) -> None:
        pass


def _feed(lines: list[Line], rec: Recorder, res: StreamResult, pace):
    for i, line in enumerate(lines):
        if res.due_ns is None:
            pace(None)
        else:
            early = res.due_ns[i] > time.perf_counter_ns()
            pace(res.due_ns[i])
            if early:
                res.late_ns.append(time.perf_counter_ns() - res.due_ns[i])
        rec.current = i
        res.fed.append(clock())
        yield line.text + "\n"


@dataclass
class StreamResult:
    lines: list[Line]
    rec: Recorder
    crashed: list[int]
    crash_types: list[str]
    end: Clock
    due_ns: list[int] | None
    late_ns: list[int] = field(default_factory=list)  # how late the generator came back, per early line
    fed: list[Clock] = field(default_factory=list)  # when each line was handed to serve
    graded: Graded | None = None

    def blocks(self, k: int) -> list[tuple[int, Clock, Clock]]:
        """(lines, start, end) of `k` consecutive runs of lines."""
        n = len(self.fed)
        size = max(1, n // k)
        out = []
        for a in range(0, n - size + 1, size):
            b = a + size
            out.append((size, self.fed[a], self.fed[b] if b < n else self.end))
        return out


def run_stream(serve_module, router, lines: list[Line], rate: float | None = None,
               pace=spin_until) -> StreamResult:
    """Feed `lines` through `serve_module.serve`, restarting it after each
    crash. With `rate`, line i is due at start + i/rate (open loop);
    without, lines go back to back (closed loop)."""
    rec = Recorder()
    start = time.perf_counter_ns()
    due = None if rate is None else [start + int(i * 1e9 / rate) for i in range(len(lines))]
    res = StreamResult(lines, rec, [], [], (0, 0), due)
    feed = _feed(lines, rec, res, pace)
    while True:
        try:
            serve_module.serve(router, feed, rec)
            break
        except Exception as e:  # noqa: BLE001 - the supervisor counts every crash and restarts
            res.crashed.append(rec.current)
            res.crash_types.append(type(e).__name__)
    res.end = clock()
    return res


@dataclass
class Graded:
    ok: list[bool]  # answered with the right kind of response
    written: list[Clock | None]
    responses: list[dict | None]
    problems: list[str]


def grade(res: StreamResult, adapter_keys: list[str]) -> Graded:
    """Every line that did not crash gets exactly one response: an error for
    a malformed line, otherwise finite probabilities from the adapter the
    bench's own matcher picks."""
    n = len(res.lines)
    got: list[list[tuple[Clock, str]]] = [[] for _ in range(n)]
    problems = []
    for idx, t, text in res.rec.out:
        if 0 <= idx < n:
            got[idx].append((t, text))
        else:
            problems.append(f"response written outside any request: {text.strip()[:80]}")
    crashed = set(res.crashed)
    ok, written, responses = [], [], []
    for i, (line, answers) in enumerate(zip(res.lines, got)):
        want = 0 if i in crashed else 1
        if len(answers) != want:
            problems.append(f"line {i}: {len(answers)} responses, expected {want}")
        if not answers:
            ok.append(False)
            written.append(None)
            responses.append(None)
            continue
        t, text = answers[0]
        resp = json.loads(text)
        written.append(t)
        responses.append(resp)
        if line.kind in ("malformed", "overflow"):
            good = "error" in resp
        else:
            good = (
                "error" not in resp
                and all(math.isfinite(resp[k]) and 0.0 <= resp[k] <= 1.0 for k in ("p_ctr", "p_ctcvr"))
                and resp["served_by"] == expected_adapter(adapter_keys, line.domain_ids)
            )
        if not good:
            problems.append(f"line {i} ({line.kind}): wrong response {text.strip()[:120]}")
        ok.append(good and len(answers) == 1)
    return Graded(ok, written, responses, problems)


def response_digest(responses: list[dict | None]) -> str:
    """sha256 over the responses with `latency_micros` removed; a crashed
    line contributes a fixed marker."""
    h = hashlib.sha256()
    for r in responses:
        if r is None:
            h.update(b"<crashed>\n")
            continue
        kept = {k: v for k, v in r.items() if k != "latency_micros"}
        h.update(json.dumps(kept, sort_keys=True).encode() + b"\n")
    return h.hexdigest()
