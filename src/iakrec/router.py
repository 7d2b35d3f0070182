"""Parallel inference over deployed adapters with indicator-based domain
activation, plus a line-oriented JSON scoring loop.

Adapters score with their encoders' posterior means, and the response is exactly the
output of the most specific adapter whose selector matches the request's
domain ids. A request carries the id columns of a recorded row and becomes
a one-row `datagen.Dataset` fitted by `models.encode_records`, the row type
the model reads, so it is scored as eval scores that row, up to the
rounding of a one-row product against a chunked one. Requests from domains
with no adapter fall back to the zero-shot backbone, visibly (`served_by =
"zero_shot"`). The router freezes the backbone and every adapter it
deploys, so scoring records no autodiff graph: each op computes its value,
links no parents and is not checked for NaN/Inf on its own. Each
prediction's logits are checked once instead
(`MultiTaskModel.predict_from_logits`): a non-finite score raises
`NonFiniteError`, and `serve` answers it as an error on that line.

Every request runs the backbone once. In the default eager mode every
deployed adapter then corrects that one output;
lazy activation applies only the selected adapter, so with K adapters
deployed it saves K-1 small adapter MLPs per request (all K for a zero-shot
request, which reads the backbone's own prediction). The outputs are
bitwise identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .autodiff import NonFiniteError
from .datagen import Dataset, id_fields, in_domain, parse_domain_key
from .iak import IAKAdapter, adapted_prediction
from .models import FeatureSpace, MultiTaskModel, encode_records

ZERO_SHOT = "zero_shot"


class RequestError(ValueError):
    """Malformed score request; the request is reported and skipped."""


@dataclass
class ScoreRequest:
    user_id: int
    item_id: int
    domain_ids: dict[str, int]
    feature_ids: list[int]


@dataclass
class ScoreResponse:
    p_ctr: float
    p_ctcvr: float
    served_by: str
    latency_micros: int


def request_from_json(obj) -> ScoreRequest:
    if not isinstance(obj, dict):
        raise RequestError("request must be a JSON object")
    try:
        return ScoreRequest(*id_fields(obj))
    except (KeyError, TypeError, OverflowError) as e:
        raise RequestError(f"bad request fields: {e}") from e


def encode_request(request: ScoreRequest, space: FeatureSpace) -> Dataset:
    """The request as a fitted one-row dataset: the row a recorded impression
    with the same ids gives, at timestamp 0 with labels 0. A topic the
    request leaves out reads as id -1, the out-of-vocab row. The ids are
    one `Dataset.from_rows` row, the row layout of a parsed JSONL line."""
    domain = request.domain_ids
    row = np.array([0, request.user_id, request.item_id, domain.get("scene", -1), domain.get("region", -1),
                    domain.get("period", -1), 0, 0, *request.feature_ids], dtype=np.int64)
    return encode_records(Dataset.from_rows(row[None]), space)


class DomainRouter:
    """Frozen backbone plus the set of per-domain adapters, immutable after
    construction. The router freezes the backbone and each adapter it is
    given, so a score records no graph. Scoring is read-only and safe to
    share."""

    def __init__(
        self,
        backbone: MultiTaskModel,
        adapters: dict[str, IAKAdapter],
        lazy_activation: bool = False,
    ):
        backbone.set_trainable(False)
        self.backbone = backbone
        self.space = backbone.space
        self.lazy_activation = lazy_activation
        self.adapters = dict(sorted(adapters.items()))
        for key, a in self.adapters.items():
            if a.rep_dim != backbone.rep_dim or a.n_tasks != backbone.n_heads:
                raise RequestError(f"adapter {key!r} is not dimension-compatible with the backbone")
        for a in self.adapters.values():
            a.set_trainable(False)
        # most specific first, ties in key order, so the first match is the one
        self._by_specificity = sorted(self.adapters, key=lambda k: (-len(self.adapters[k].domain_key), k))

    def _select(self, domain_ids: dict[str, int]) -> str | None:
        """Most-specific matching adapter; ties break on the sorted key so
        selection is deterministic."""
        return next((k for k in self._by_specificity if in_domain(domain_ids, self.adapters[k].domain_key)), None)

    def score(self, request: ScoreRequest) -> ScoreResponse:
        t0 = time.perf_counter_ns()
        out = self.backbone.forward_full(encode_request(request, self.space))
        selected = self._select(request.domain_ids)
        if self.lazy_activation:
            evaluated = [selected] if selected is not None else []
        else:
            evaluated = list(self.adapters)
        results = {
            key: adapted_prediction(self.backbone, self.adapters[key], out.representation, out.logits)
            for key in evaluated
        }
        pred = out.prediction if selected is None else results[selected]
        latency = (time.perf_counter_ns() - t0) // 1000
        return ScoreResponse(
            p_ctr=float(pred.p_ctr.data[0, 0]),
            p_ctcvr=float(pred.p_ctcvr.data[0, 0]),
            served_by=ZERO_SHOT if selected is None else selected,
            latency_micros=int(latency),
        )


def serve(router: DomainRouter, rfile: Iterable[str | bytes], wfile: IO[str]) -> int:
    """One JSON request per line in, one JSON response per line out,
    order-preserving. Lines are text, or bytes decoded as UTF-8 one line at
    a time. Malformed lines (not UTF-8 included), and requests whose score
    is NaN or Inf, get an error response carrying the offending line number
    and the loop continues. Returns 0 on end of stream."""
    for lineno, raw in enumerate(rfile, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if not line:
                raise RequestError("empty line")
            obj = json.loads(line)
            request = request_from_json(obj)
        # ValueError also covers RequestError, bad JSON, bytes that are not
        # UTF-8 and integers too long to convert; RecursionError is JSON
        # nested too deep to decode
        except (ValueError, RecursionError) as e:
            msg = e.msg if isinstance(e, json.JSONDecodeError) else str(e)
            reply = {"error": f"malformed request: {msg}", "line": lineno}
        else:
            try:
                resp = router.score(request)
                reply = {"p_ctr": resp.p_ctr, "p_ctcvr": resp.p_ctcvr, "served_by": resp.served_by,
                         "latency_micros": resp.latency_micros}
            except NonFiniteError as e:
                reply = {"error": f"non-finite score: {e}", "line": lineno}
        wfile.write(json.dumps(reply) + "\n")
        wfile.flush()
    return 0


def adapters_from_arrays(
    arrays: dict[str, np.ndarray],
    rep_dim: int,
    n_tasks: int,
    iak_config,
) -> dict[str, IAKAdapter]:
    """Rebuild the adapter set stored in a checkpoint: adapter parameters are
    namespaced `adapter/<domain key>/...`. Each adapter is built without init
    draws (seed=None), restored from its arrays and frozen, so scoring with
    it records no graph."""
    keys = sorted({name.split("/")[1] for name in arrays if name.startswith("adapter/")})
    adapters = {}
    for key in keys:
        adapter = IAKAdapter(rep_dim, n_tasks, iak_config, parse_domain_key(key), seed=None)
        adapter.restore({n: a for n, a in arrays.items() if n.startswith(f"adapter/{key}/")})
        adapter.set_trainable(False)
        adapters[key] = adapter
    return adapters
