"""Every dense layer of the backbone and the adapters is one `ad.linear` or
`ad.segment_linear` node. A training step through them must leave every
parameter bit for bit where the composed matmul, mul, add and leaky_relu
nodes leave it, and the pretrain graph must stay fused."""

import numpy as np
import pytest

from iakrec import autodiff as ad
from iakrec.iak import AdapterBank, IAKAdapter, IAKConfig, adapter_step_cached, backbone_cache
from iakrec.models import FeatureSpace, ModelConfig, build_model, encode_records
from iakrec.datagen import Dataset
from iakrec.trainer import pretrain_step

from linear_reference import composed_linear, composed_segment_linear

SPACE = FeatureSpace(n_users=20, n_items=15, n_scenes=2, n_regions=3, n_periods=3)


@pytest.fixture
def composed(monkeypatch):
    """Run every dense layer as its composed chain of nodes."""
    monkeypatch.setattr(ad, "linear", composed_linear)
    monkeypatch.setattr(ad, "segment_linear", composed_segment_linear)


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    click = rng.integers(0, 2, n)
    return encode_records(Dataset(
        timestamp=np.arange(n), user=rng.integers(-1, 22, n), item=rng.integers(0, 15, n),
        scene=rng.integers(0, 2, n), region=rng.integers(0, 3, n), period=rng.integers(0, 3, n),
        features=rng.integers(0, 8, (n, 4)), click=click, purchase=click * rng.integers(0, 2, n),
    ), SPACE)


@pytest.fixture
def graph_sizes(monkeypatch):
    """The node count of every graph a backward sweep walks, in order."""
    sizes = []
    sweep = ad.backward

    def counted(loss):
        record = sweep(loss)
        sizes.append(len(record.nodes))
        return record

    monkeypatch.setattr(ad, "backward", counted)
    return sizes


def _pretrain_step():
    """(losses, parameter bytes) after one step of the default
    BaseRecommender."""
    model = build_model(ModelConfig(), SPACE, seed=1)
    losses = pretrain_step(model, _batch(64, 1), ad.AdagradDecayState(), 0.05)
    return losses, {n: v.tobytes() for n, v in model.named_parameters().items()}


def test_pretrain_step_is_fused_and_equals_the_composed_layers(graph_sizes, request):
    fused = _pretrain_step()
    request.getfixturevalue("composed")
    assert _pretrain_step() == fused
    # 90 nodes fused; the composed layers add a bias node per dense layer and
    # an activation node per hidden layer
    assert graph_sizes == [90, 109]


def _bank_step():
    """(losses and norms, bank parameter bytes) of one joint step of three
    adapters, one of them without rows."""
    backbone = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=2)
    backbone.set_trainable(False)
    config = IAKConfig(d_e=4, beta=1e-3, decoder_hidden=(6, 5))
    adapters = [IAKAdapter(backbone.rep_dim, backbone.n_heads, config, {"period": k}, seed=10 + k) for k in range(3)]
    rng = np.random.default_rng(3)
    for a in adapters:  # a non-zero read-out, so every layer gets a gradient
        a.decoder_out.w.data[:] = rng.normal(size=a.decoder_out.w.shape)
    bank = AdapterBank(adapters, decay=0.9999, epsilon=1e-8)
    batch = _batch(12, 4)
    rep, base = backbone_cache(backbone, batch)
    out = adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase,
                              np.array([0, 5, 5, 12]), np.array([0.05, 0.05, 0.02]), 1e-3)
    return out, {p.name: p.data.tobytes() for p in bank.params}


def test_bank_step_equals_the_composed_layers(graph_sizes, request):
    fused = _bank_step()
    request.getfixturevalue("composed")
    assert _bank_step() == fused
    assert graph_sizes[0] < graph_sizes[1]
