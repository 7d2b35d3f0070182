import dataclasses
import tracemalloc

import numpy as np
import pytest

from iakrec import autodiff as ad
from iakrec import trainer
from iakrec.datagen import (
    Dataset,
    DatasetError,
    GeneratorConfig,
    domain_key,
    domain_rows,
    expand_domain_selectors,
    filter_by_domain,
    generate,
    make_domains,
    parse_domain_key,
)
from iakrec.iak import AdapterBank, IAKAdapter, IAKConfig, adapter_step_cached, backbone_cache
from iakrec.models import FeatureSpace, ModelConfig, build_model, encode_records, task_bce
from iakrec.trainer import (
    TrainConfig,
    TrainerError,
    _batch_indices,
    dynamic_lr,
    finetune_all,
    mix_domains,
    model_digest,
    pretrain,
    pretrain_optimizer,
    pretrain_step,
)

import adapter_reference
import records_reference
from adapter_reference import reference_joint

SPACE = FeatureSpace(n_users=120, n_items=60, n_scenes=2, n_regions=1, n_periods=2)


def _dataset(seed=0, n_days=4, per_day=800):
    domains = make_domains(
        {"scene": ([0.0, 0.8], [0.0, 0.4]), "region": ([0.0], [0.0]), "period": ([0.0, 0.8], [0.0, 0.4])},
        latent_dim=16,
        seed=seed,
    )
    cfg = GeneratorConfig(
        n_users=120, n_items=60, n_days=n_days, domains=domains, seed=seed, records_per_day=per_day
    )
    return generate(cfg)


def _backbone(seed=0):
    return build_model(ModelConfig(kind="base", hidden_sizes=(16, 8)), SPACE, seed=seed)


class TestDomainKeys:
    def test_round_trip(self):
        sel = {"period": 2, "scene": 1}
        assert parse_domain_key(domain_key(sel)) == sel

    def test_canonical_order(self):
        assert domain_key({"scene": 1, "period": 2}) == "period=2,scene=1"

    def test_bad_key_rejected(self):
        with pytest.raises(DatasetError):
            parse_domain_key("period")


class TestPretrain:
    def test_step_count_is_ceil_n_over_batch(self):
        data = _dataset()[:1000]
        model = _backbone()
        curve = pretrain(model, data, TrainConfig(batch_size=256, epochs=1, seed=0))
        assert len(curve) == int(np.ceil(1000 / 256))

    def test_same_seed_same_digest(self):
        data = _dataset()
        digests = []
        for _ in range(2):
            model = _backbone(seed=1)
            pretrain(model, data, TrainConfig(batch_size=512, epochs=1, seed=2))
            digests.append(model_digest(model.named_parameters()))
        assert digests[0] == digests[1]

    def test_loss_decreases(self):
        data = _dataset(per_day=1500)
        model = _backbone()
        curve = pretrain(model, data, TrainConfig(batch_size=256, epochs=3, seed=0))
        first = np.mean([row[1] for row in curve[:3]])
        last = np.mean([row[1] for row in curve[-3:]])
        assert last < first

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainerError):
            pretrain(_backbone(), [], TrainConfig())


def _random_batch(rng, space, n):
    """Ids drawn past both ends of each vocabulary, so out-of-vocab rows are
    looked up too."""
    click = rng.integers(0, 2, n)
    return Dataset(
        timestamp=np.zeros(n, dtype=np.int64),
        user=rng.integers(-1, space.n_users + 1, n),
        item=rng.integers(-1, space.n_items + 1, n),
        scene=rng.integers(0, space.n_scenes, n),
        region=rng.integers(0, space.n_regions, n),
        period=rng.integers(0, space.n_periods, n),
        features=rng.integers(-1, space.n_feature_buckets, (n, space.n_feature_cols)),
        click=click,
        purchase=click * rng.integers(0, 2, n),
    )


class TestLazyAdagrad:
    def test_matches_the_dense_rule_over_200_steps(self):
        space = FeatureSpace(n_users=80, n_items=40, n_scenes=2, n_regions=3, n_periods=3)
        cfg = ModelConfig(kind="base", hidden_sizes=(12, 6))
        lazy, dense = build_model(cfg, space, seed=4), build_model(cfg, space, seed=4)
        decay, lr, eps = 0.95, 0.05, 1e-8
        opt = pretrain_optimizer(lazy, TrainConfig(adagrad_decay=decay, adagrad_epsilon=eps))
        acc = {p.name: np.zeros_like(p.data) for p in dense.parameters()}
        rng = np.random.default_rng(0)
        for _ in range(200):
            batch = _random_batch(rng, space, 16)
            pretrain_step(lazy, batch, opt, lr)
            # the dense rule: every row of every parameter, every step
            ad.zero_grads(dense.parameters())
            pred = dense.forward_full(batch).prediction
            ad.backward(ad.add(ad.mul(task_bce(pred.p_ctr, batch.click), 1.0),
                               ad.mul(task_bce(pred.p_ctcvr, batch.purchase), 1.0)))
            for p in dense.parameters():
                g = p.grad
                acc[p.name] = decay * acc[p.name] + g * g
                p.data = p.data - lr * g / (np.sqrt(acc[p.name]) + eps)
        # rows left behind by the last steps, so the catch-up is exercised
        users = slice(*lazy.embeddings.ranges["user_emb.rows"])
        assert np.sum(opt.last_step[users] < 200) > 20
        for p, q in zip(lazy.parameters(), dense.parameters()):
            assert np.max(np.abs(p.data - q.data)) / np.max(np.abs(q.data)) <= 1e-12, p.name
            # a dense parameter steps every step; a table row may be behind
            behind = opt.step - (opt.last_step if p is opt.table else np.full(p.data.shape[:1], opt.step))
            caught_up = opt.accumulators[p.name] * (decay ** behind).reshape(-1, *[1] * (p.data.ndim - 1))
            assert np.max(np.abs(caught_up - acc[p.name])) / np.max(acc[p.name]) <= 1e-12, p.name

    def test_step_memory_is_independent_of_the_user_table(self):
        space = FeatureSpace(n_users=200_000, n_items=500, n_scenes=2, n_regions=3, n_periods=3)
        model = build_model(ModelConfig(kind="base"), space, seed=1)
        rng = np.random.default_rng(2)
        table = model.embeddings.rows.data

        def traced(fn, *args):
            """`fn(*args)` and the peak of the memory it allocated."""
            tracemalloc.start()
            try:
                return fn(*args), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the optimizer's state is allocated once, before the first step: the
        # table's accumulator (a table's worth) and its last-step rows (an
        # eighth of one); no table is copied
        opt, peak = traced(pretrain_optimizer, model, TrainConfig())
        assert peak < 1.5 * table.nbytes
        assert model.embeddings.rows.data is table
        # the graph's activations scale with the batch (about 2.4 MB at 128
        # rows); no step adds anything table-sized to them
        for _ in range(2):
            _, peak = traced(pretrain_step, model, _random_batch(rng, space, 128), opt, 0.05)
            assert peak < table[slice(*model.embeddings.ranges["user_emb.rows"])].nbytes / 2


class TestDynamicLR:
    def test_two_equal_domains_split_evenly(self):
        lr = dynamic_lr(np.array([4.0, 4.0]), np.array([1.0, 1.0]), 0.005)
        np.testing.assert_allclose(lr, [0.0025, 0.0025], atol=1e-18)

    def test_single_active_domain_gets_full_rate(self):
        lr = dynamic_lr(np.array([0.0, 7.0, 0.0]), np.array([1.0, 1.0, 1.0]), 0.005)
        np.testing.assert_array_equal(lr, [0.0, 0.005, 0.0])

    def test_saturation_of_literal_formula(self):
        # logits 512 vs 256: softmax saturates to the larger one
        lr = dynamic_lr(np.array([512.0, 512.0]), np.array([1.0, 2.0]), 0.005)
        assert lr[0] == pytest.approx(0.005, abs=1e-12)
        assert lr[1] == pytest.approx(0.0, abs=1e-12)

    def test_shares_sum_to_one_over_active(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_b = rng.integers(0, 5, size=6).astype(float)
            if not n_b.any():
                continue
            g = rng.uniform(0.1, 3.0, size=6)
            lr = dynamic_lr(n_b, g, 0.005)
            assert abs(lr.sum() / 0.005 - 1.0) < 1e-12
            assert np.all(lr[n_b == 0] == 0.0)

    def test_all_empty_rejected(self):
        with pytest.raises(TrainerError):
            dynamic_lr(np.zeros(3), np.ones(3), 0.005)

    @pytest.mark.parametrize("lam", [0.0, -0.005, np.nan, np.inf])
    def test_a_base_rate_outside_zero_to_inf_is_rejected(self, lam):
        with pytest.raises(TrainerError, match="base learning rate must be finite and positive"):
            dynamic_lr(np.array([1.0, 2.0]), np.array([1.0, 1.0]), lam)

    @pytest.mark.parametrize("norm", [-1.0, np.nan, np.inf])
    def test_a_negative_or_non_finite_grad_norm_is_rejected(self, norm):
        with pytest.raises(TrainerError, match="gradient norms must be finite and non-negative"):
            dynamic_lr(np.array([1.0, 2.0]), np.array([1.0, norm]), 0.005)

    def test_zero_grad_norm_is_clamped(self):
        lr = dynamic_lr(np.array([1.0, 1.0]), np.array([0.0, 1e30]), 0.005)
        assert np.isfinite(lr).all()
        assert lr[0] == pytest.approx(0.005, abs=1e-12)


class TestMixDomains:
    def _pools(self, n=400, seed=0):
        data = _dataset(seed=seed)
        return data, {"scene=0": domain_rows(data, {"scene": 0})[:n], "scene=1": domain_rows(data, {"scene": 1})[:n]}

    def test_pure_primary_is_identity_set(self):
        _, pools = self._pools()
        stream = mix_domains(pools, {"scene=0": 1.0}, np.random.default_rng(0), len(pools["scene=0"]))
        np.testing.assert_array_equal(np.sort(stream), pools["scene=0"])

    def test_mixture_fraction_within_3_sigma(self):
        data, pools = self._pools()
        n = 10**5
        stream = mix_domains(pools, {"scene=0": 0.7, "scene=1": 0.3}, np.random.default_rng(1), n)
        from_b = int(np.sum(data.scene[stream] == 1))
        assert 0.29 <= from_b / n <= 0.31

    def test_same_seed_same_stream(self):
        _, pools = self._pools()
        runs = [mix_domains(pools, {"scene=0": 0.6, "scene=1": 0.4}, np.random.default_rng(7), 500) for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_stream_equals_record_reference(self):
        data, pools = self._pools(n=50)
        weights = {"scene=0": 0.6, "scene=1": 0.4}
        got = data.take(mix_domains(pools, weights, np.random.default_rng(3), 400))
        ref = records_reference.mix_domains(list(data.take(pools["scene=0"])), {"scene=1": list(data.take(pools["scene=1"]))},
                                            weights, np.random.default_rng(3), "scene=0")
        assert list(got) == [next(ref) for _ in range(400)]


SCENES = {"scene=0": {"scene": 0}, "scene=1": {"scene": 1}}


class TestFinetuneAll:
    def test_backbone_frozen_throughout(self):
        data = _dataset()
        model = _backbone()
        pretrain(model, data, TrainConfig(batch_size=512, seed=0))
        digest = model_digest(model.named_parameters())
        finetune_all(model, data, SCENES, TrainConfig(batch_size=256, seed=1), IAKConfig(d_e=6))
        assert model_digest(model.named_parameters()) == digest

    def test_emits_one_adapter_per_domain(self):
        data = _dataset()
        model = _backbone()
        res = finetune_all(model, data, SCENES, TrainConfig(batch_size=256, seed=1), IAKConfig(d_e=6))
        assert sorted(res.adapters) == ["scene=0", "scene=1"]

    def test_adapter_independent_of_other_domains_data(self):
        data = _dataset()
        model = _backbone()

        def run(flip_b):
            m = _backbone()
            m.restore(model.named_parameters())
            train = data
            if flip_b:
                b = data.scene == 1
                train = dataclasses.replace(data, click=np.where(b, 1 - data.click, data.click),
                                            purchase=np.where(b, 0, data.purchase))
            res = finetune_all(m, train, SCENES, TrainConfig(batch_size=256, seed=3), IAKConfig(d_e=6))
            return model_digest(res.adapters["scene=0"].named_parameters())

        assert run(False) == run(True)

    def test_sequential_equals_singleton_joint(self):
        # one domain through the joint loop is plain sequential training at
        # the base rate: the same steps as a hand-written loop
        data = _dataset()
        model = _backbone()
        records = filter_by_domain(data, {"scene": 0})
        config, iak_config = TrainConfig(batch_size=256, epochs=2, seed=4), IAKConfig(d_e=6)
        res = finetune_all(model, data, {"scene=0": {"scene": 0}}, config, iak_config)

        adapter_seed, order_seed = np.random.SeedSequence([config.seed, 0xF17E]).spawn(2)
        adapter = IAKAdapter(model.rep_dim, model.n_heads, iak_config, {"scene": 0},
                             seed=int(adapter_seed.generate_state(1)[0]))
        enc = encode_records(records, SPACE)
        rep, base = backbone_cache(model, enc)
        bank = AdapterBank([adapter], decay=config.adagrad_decay, epsilon=config.adagrad_epsilon)
        losses = []
        for idx in _batch_indices(len(enc), config.batch_size, config.epochs, np.random.default_rng(order_seed)):
            (loss, _), = adapter_step_cached(model, bank, rep[idx], base[idx], enc.click[idx], enc.purchase[idx],
                                             np.array([0, len(idx)]), np.array([config.base_lr]),
                                             iak_config.beta).values()
            losses.append(loss)
        assert model_digest(res.adapters["scene=0"].named_parameters()) == model_digest(adapter.named_parameters())
        assert [row.loss for row in res.curve] == losses
        assert all(row.lr_effective == 0.005 and row.lr_saturated == 0 for row in res.curve)

    def test_masked_domain_receives_no_update(self):
        data = _dataset()
        model = _backbone()
        res = finetune_all(model, data, SCENES, TrainConfig(batch_size=64, seed=5), IAKConfig(d_e=6))
        by_step: dict[int, set] = {}
        for row in res.curve:
            by_step.setdefault(row.step, set()).add(row.domain)
        # every logged row carries a positive batch and positive rate
        assert all(row.n_batch > 0 and row.lr_effective > 0 for row in res.curve)

    def test_end_to_end_determinism(self):
        data = _dataset()

        def run():
            model = _backbone(seed=9)
            pretrain(model, data, TrainConfig(batch_size=512, seed=9))
            res = finetune_all(model, data, SCENES, TrainConfig(batch_size=256, seed=9), IAKConfig(d_e=6))
            return model_digest(
                {k: v for a in res.adapters.values() for k, v in a.named_parameters().items()}
            )

        assert run() == run()

    def test_missing_domain_dataset_rejected(self):
        model = _backbone()
        with pytest.raises(TrainerError, match="no records match train.finetune_domains"):
            finetune_all(model, _dataset(), {"scene=7": {"scene": 7}}, TrainConfig(), IAKConfig())

    def test_selector_without_rows_is_left_out(self):
        data = _dataset()
        res = finetune_all(_backbone(), data, {**SCENES, "scene=7": {"scene": 7}}, TrainConfig(batch_size=256, seed=1),
                           IAKConfig(d_e=6))
        assert sorted(res.adapters) == ["scene=0", "scene=1"]

    def test_overlapping_selectors_pass_each_row_to_the_backbone_once(self, monkeypatch):
        data = _dataset()
        selectors = expand_domain_selectors(["period=*", "scene=*"], data)
        # every row sits in one period and one scene
        assert sum(len(domain_rows(data, s)) for s in selectors.values()) == 2 * len(data)
        seen = []

        def cache(backbone, batch):
            seen.append(batch)
            return backbone_cache(backbone, batch)

        monkeypatch.setattr(trainer, "backbone_cache", cache)
        res = finetune_all(_backbone(), data, selectors, TrainConfig(batch_size=256, seed=1), IAKConfig(d_e=6))
        assert sorted(res.adapters) == ["period=0", "period=1", "scene=0", "scene=1"]
        assert len(seen) == 1 and seen[0] == encode_records(data, SPACE)

    def test_mixing_key_without_rows_fails_before_any_step(self, monkeypatch):
        data = _dataset()
        steps = []
        monkeypatch.setattr(trainer, "adapter_step_cached", lambda *a, **k: steps.append(a))
        cfg = TrainConfig(batch_size=256, seed=6, mixing={"period=0": 0.7, "period=2": 0.3})
        with pytest.raises(TrainerError, match=r"mixing references domains without rows: \['period=2'\]"):
            finetune_all(_backbone(), data, {"period=0": {"period": 0}, "period=1": {"period": 1}}, cfg, IAKConfig(d_e=6))
        assert steps == []

    def test_window_larger_than_data_rejected(self):
        data = _dataset(n_days=2)
        model = _backbone()
        cfg = TrainConfig(batch_size=256, finetune_window_days=1, seed=0)
        res = finetune_all(model, data, SCENES, cfg, IAKConfig(d_e=6))
        assert res.adapters  # 1-day window on 2 days of data is fine

    def test_mixing_trains_primary_on_mixed_stream(self):
        data = _dataset()
        model = _backbone()
        cfg = TrainConfig(batch_size=256, seed=6, finetune_domains=tuple(SCENES),
                          mixing={"scene=0": 0.7, "scene=1": 0.3})
        res = finetune_all(model, data, SCENES, cfg, IAKConfig(d_e=6))
        assert sorted(res.adapters) == ["scene=0", "scene=1"]

    def test_mixing_weights_validated(self):
        with pytest.raises(TrainerError):
            TrainConfig(mixing={"scene=0": 0.7, "scene=1": 0.7})

    def test_previous_norms_mode_couples_shares(self):
        # with gradient-reciprocal W the rate shares react to actual grad
        # magnitudes; rows still conserve the share sum per step
        data = _dataset()
        model = _backbone()
        cfg = TrainConfig(batch_size=128, seed=8, lr_norms="previous")
        res = finetune_all(model, data, SCENES, cfg, IAKConfig(d_e=6))
        by_step: dict[int, float] = {}
        for row in res.curve:
            by_step[row.step] = by_step.get(row.step, 0.0) + row.lr_effective / cfg.base_lr
        for step, share in by_step.items():
            assert share <= 1.0 + 1e-9

    def test_lr_norms_value_validated(self):
        with pytest.raises(TrainerError):
            TrainConfig(lr_norms="sometimes")


SPACE5 = FeatureSpace(n_users=90, n_items=40, n_scenes=2, n_regions=1, n_periods=3)
FIVE = ["period=0", "period=1", "period=2", "scene=0", "scene=1"]


@pytest.fixture(scope="module")
def five_domains():
    domains = make_domains(
        {"scene": ([0.0, 0.8], [0.0, 0.4]), "region": ([0.0], [0.0]), "period": ([0.0, 0.8, -0.5], [0.0, 0.4, 0.2])},
        latent_dim=16,
        seed=5,
    )
    data = generate(GeneratorConfig(n_users=90, n_items=40, n_days=3, domains=domains, seed=5, records_per_day=400))
    # period 2 keeps 25 rows: rare enough to be absent from most batches
    dropped = domain_rows(data, {"period": 2})[25:]
    return data, data.take(np.setdiff1d(np.arange(len(data)), dropped))


class TestBankEqualsReference:
    """`finetune_all` against the same run with every adapter stepped alone by
    `adapter_reference.reference_step`: adapters and curve rows bit for bit."""

    def _both(self, monkeypatch, data, train, kind, config, iak_config):
        model = build_model(ModelConfig(kind=kind, hidden_sizes=(12, 6)), SPACE5, seed=1)
        pretrain(model, data, TrainConfig(batch_size=512, seed=1))
        selectors = {key: parse_domain_key(key) for key in FIVE}
        bank = finetune_all(model, train, selectors, config, iak_config)
        with monkeypatch.context() as m:
            m.setattr(trainer, "_finetune_joint", reference_joint)
            ref = finetune_all(model, train, selectors, config, iak_config)
        return bank, ref

    def _assert_equal(self, bank, ref):
        assert sorted(bank.adapters) == sorted(ref.adapters)
        for key, adapter in bank.adapters.items():
            got, want = adapter.named_parameters(), ref.adapters[key].named_parameters()
            assert {n: v.tobytes() for n, v in got.items()} == {n: v.tobytes() for n, v in want.items()}
        assert [dataclasses.astuple(r) for r in bank.curve] == [dataclasses.astuple(r) for r in ref.curve]

    @pytest.mark.parametrize("kind", ["base", "shared_bottom", "mmoe", "esmm"])
    def test_five_overlapping_domains_two_epochs(self, monkeypatch, five_domains, kind):
        data, train = five_domains
        config = TrainConfig(batch_size=96, epochs=2, seed=2, base_lr=0.05)
        bank, ref = self._both(monkeypatch, data, train, kind, config, IAKConfig(d_e=5))
        self._assert_equal(bank, ref)
        steps = {r.step for r in bank.curve}
        rare = {r.step for r in bank.curve if r.domain == "period=2"}
        assert rare and rare < steps  # some batches hold the rare domain, some do not

    def test_previous_norms(self, monkeypatch, five_domains):
        data, train = five_domains
        config = TrainConfig(batch_size=64, epochs=2, seed=4, base_lr=0.05, lr_norms="previous")
        bank, ref = self._both(monkeypatch, data, train, "base", config,
                               IAKConfig(d_e=5, beta=0.01))
        self._assert_equal(bank, ref)

    def test_zero_rate_domain_is_skipped(self, monkeypatch, five_domains):
        # a domain with rows in the batch but a zero rate takes no step
        data, train = five_domains

        def starving(n_b, grad_norms, lam):
            out = dynamic_lr(n_b, grad_norms, lam)
            if n_b[1] % 2:
                out[1] = 0.0
            return out

        for module in (trainer, adapter_reference):
            monkeypatch.setattr(module, "dynamic_lr", starving)
        config = TrainConfig(batch_size=64, seed=7, base_lr=0.05)
        bank, ref = self._both(monkeypatch, data, train, "base", config, IAKConfig(d_e=5))
        self._assert_equal(bank, ref)
        skipped = {r.step for r in bank.curve} - {r.step for r in bank.curve if r.domain == FIVE[1]}
        assert skipped

    def test_mixing(self, monkeypatch, five_domains):
        data, train = five_domains
        config = TrainConfig(batch_size=64, seed=6, finetune_domains=tuple(FIVE),
                             mixing={"scene=0": 0.6, "period=0": 0.4})
        bank, ref = self._both(monkeypatch, data, train, "esmm", config, IAKConfig(d_e=5, decoder_hidden=()))
        self._assert_equal(bank, ref)
