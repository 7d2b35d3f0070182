"""The benchmark's traced run patches iakrec functions by name
(`perfbench.layers.trace_targets`). A target that was renamed or moved would
otherwise fail only deep inside a traced run, with a KeyError."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from iakrec.models import MODEL_KINDS  # noqa: E402
from perfbench.layers import trace_targets  # noqa: E402


def test_every_trace_target_is_bound_where_it_is_patched():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in trace_targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_every_model_kind_has_its_own_traced_forward():
    forward = [owner for owner, attr, _, _ in trace_targets() if attr == "forward_full"]
    assert forward
    assert set(forward) == set(MODEL_KINDS.values())
