"""Parallel inference over deployed adapters with indicator-based domain
activation, plus a line-oriented JSON scoring loop.

Adapters run in deterministic mean mode, and the response is exactly the
output of the most specific adapter whose selector matches the request's
domain ids. Requests from domains with no adapter fall back to the zero-shot
backbone, visibly (`served_by = "zero_shot"`). Every request runs the shared
frozen backbone once. In the default eager mode every deployed adapter then
corrects that one output; lazy activation applies only the selected adapter,
so with K adapters deployed it saves K-1 small adapter MLPs per request (all
K for a zero-shot request, which reads the backbone's own prediction). The
outputs are bitwise identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO

import numpy as np

from .datagen import id_fields, in_domain, parse_domain_key
from .iak import IAKAdapter, adapted_prediction
from .models import EncodedBatch, FeatureSpace, MultiTaskModel

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


def encode_request(request: ScoreRequest, space: FeatureSpace) -> EncodedBatch:
    """Single-row batch; requests carry no click history, so the pooled
    history column stays on the out-of-vocab row."""
    features = np.full((1, space.n_feature_cols), -1, dtype=np.int64)
    for c, fid in enumerate(request.feature_ids[: space.n_feature_cols]):
        features[0, c] = fid
    return EncodedBatch(
        user=np.array([request.user_id], dtype=np.int64),
        item=np.array([request.item_id], dtype=np.int64),
        scene=np.array([request.domain_ids.get("scene", -1)], dtype=np.int64),
        region=np.array([request.domain_ids.get("region", -1)], dtype=np.int64),
        period=np.array([request.domain_ids.get("period", -1)], dtype=np.int64),
        features=features,
        history=np.full((1, space.history_len), -1, dtype=np.int64),
        click=np.zeros(1),
        purchase=np.zeros(1),
    )


class DomainRouter:
    """Frozen backbone plus the set of per-domain adapters, immutable after
    construction. Scoring is read-only and safe to share."""

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

    def _select(self, domain_ids: dict[str, int]) -> str | None:
        """Most-specific matching adapter; ties break on the sorted key so
        selection is deterministic."""
        matches = [key for key, a in self.adapters.items() if in_domain(domain_ids, a.domain_key)]
        if not matches:
            return None
        matches.sort(key=lambda k: (-len(self.adapters[k].domain_key), k))
        return matches[0]

    def score(self, request: ScoreRequest) -> ScoreResponse:
        t0 = time.perf_counter_ns()
        out = self.backbone.forward_full(encode_request(request, self.space))
        selected = self._select(request.domain_ids)
        if self.lazy_activation:
            evaluated = [selected] if selected is not None else []
        else:
            evaluated = list(self.adapters)
        results = {
            key: adapted_prediction(self.backbone, self.adapters[key], out.representation, out.logits, mode="mean")
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


def serve(router: DomainRouter, rfile: IO[str], wfile: IO[str]) -> int:
    """One JSON request per line in, one JSON response per line out,
    order-preserving. Malformed lines get an error response carrying the
    offending line number and the loop continues. Returns 0 on end of
    stream."""
    for lineno, raw in enumerate(rfile, start=1):
        line = raw.strip()
        try:
            if not line:
                raise RequestError("empty line")
            obj = json.loads(line)
            request = request_from_json(obj)
        # ValueError also covers RequestError, bad JSON and integers too long
        # to convert; RecursionError is JSON nested too deep to decode
        except (ValueError, RecursionError) as e:
            msg = e.msg if isinstance(e, json.JSONDecodeError) else str(e)
            wfile.write(json.dumps({"error": f"malformed request: {msg}", "line": lineno}) + "\n")
            wfile.flush()
            continue
        resp = router.score(request)
        wfile.write(
            json.dumps(
                {
                    "p_ctr": resp.p_ctr,
                    "p_ctcvr": resp.p_ctcvr,
                    "served_by": resp.served_by,
                    "latency_micros": resp.latency_micros,
                }
            )
            + "\n"
        )
        wfile.flush()
    return 0


def adapters_from_arrays(
    arrays: dict[str, np.ndarray],
    rep_dim: int,
    n_tasks: int,
    iak_config,
) -> dict[str, IAKAdapter]:
    """Rebuild the adapter set stored in a checkpoint: adapter parameters are
    namespaced `adapter/<domain key>/...`."""
    keys = sorted({name.split("/")[1] for name in arrays if name.startswith("adapter/")})
    adapters = {}
    for key in keys:
        adapter = IAKAdapter(rep_dim, n_tasks, iak_config, parse_domain_key(key), seed=0)
        adapter.restore({n: a for n, a in arrays.items() if n.startswith(f"adapter/{key}/")})
        adapters[key] = adapter
    return adapters
