import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from iakrec import autodiff as ad
from iakrec.iak import (
    AdapterBank,
    AdapterError,
    IAKAdapter,
    IAKConfig,
    INIT_SIGMA,
    VariationalLinear,
    adapted_prediction,
    adapter_graph,
    adapter_step_cached,
    backbone_cache,
)
from iakrec.models import FeatureSpace, ModelConfig, bce_loss, build_model, encode_records
from iakrec.trainer import TrainConfig, finetune_all, model_digest
from iakrec.datagen import Dataset, InteractionRecord

from adapter_reference import lone_correction, lone_noise, reference_step
from gradcheck import central_differences, max_rel_err
from optimizer_reference import ReferenceState
from records_reference import from_records

SPACE = FeatureSpace(n_users=20, n_items=15, n_scenes=2, n_regions=3, n_periods=3)


def gaussian_kl_quadrature(mu: float, sigma: float) -> float:
    """Independent oracle: numerically integrate p(x)*ln(p(x)/q(x)) for
    p = N(mu, sigma^2) against the standard normal q."""

    def integrand(x):
        logp = -0.5 * math.log(2 * math.pi * sigma**2) - (x - mu) ** 2 / (2 * sigma**2)
        logq = -0.5 * math.log(2 * math.pi) - x**2 / 2
        return math.exp(logp) * (logp - logq)

    val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
    return val


def _kl_of(mu, sigma):
    """Encoder KL, through a one-adapter bank, of an adapter whose one
    encoder weight is pinned to exact (mu, sigma)."""
    adapter = IAKAdapter(1, 2, IAKConfig(d_e=1, decoder_hidden=()), {"period": 1}, seed=0)
    vl = adapter.encoder
    vl.mu_w.data[:] = mu
    vl.rho_w.data[:] = math.log(math.expm1(sigma))
    vl.mu_b.data[:] = 0.0
    vl.rho_b.data[:] = math.log(math.expm1(1.0))  # bias entry at the prior
    bank = _bank(adapter)
    (kl,) = bank.encoder_kl(_softplus(bank)).data
    return float(kl)


def _records(n=8, seed=0, period=1):
    rng = np.random.default_rng(seed)
    return from_records([
        InteractionRecord(
            timestamp=i,
            user_id=int(rng.integers(0, 20)),
            item_id=int(rng.integers(0, 15)),
            domain_ids={"scene": 0, "region": 0, "period": period},
            feature_ids=[int(x) for x in rng.integers(0, 8, size=4)],
            click=int(rng.integers(0, 2)),
            purchase=0,
        )
        for i in range(n)
    ])


def _bank(*adapters):
    """A bank at the default decay and epsilon."""
    return AdapterBank(adapters, decay=TrainConfig.adagrad_decay, epsilon=TrainConfig.adagrad_epsilon)


def _softplus(bank):
    """The `ad.softplus_parts` of a bank's stacked rho_w and rho_b."""
    return tuple(ad.softplus_parts(rho.data) for rho in bank.params[2:4])


def _step_loss(backbone, adapter, base_logits, click, purchase, beta):
    """The loss `adapter_step_cached` writes for a one-adapter bank over rows
    whose cached backbone logits are `base_logits`. The adapter's decoder is
    at its zero start, so the step's prediction is the backbone's of those
    logits, whatever the weight sample."""
    rep = np.zeros((len(click), backbone.rep_dim))
    loss, _ = _bank_step(backbone, _bank(adapter), rep, np.asarray(base_logits), click, purchase, 0.01, beta)
    return loss


def _bank_forward(bank, rep, offsets, stepped):
    """(B, n_tasks) corrections of rows grouped by adapter, rows
    offsets[k]:offsets[k + 1] through adapter k, with the bank's weight
    sample of the `stepped` adapters, as a bank step runs them; also the
    sample's softplus parts."""
    w, b, softplus = bank.sample(stepped)
    linear = functools.partial(ad.segment_linear, offsets=offsets)
    return adapter_graph(rep, (w, b, *bank.params[4:]), bank.scale, linear), softplus


def _bank_step(backbone, bank, rep, base, click, purchase, lr, beta):
    """A step of a one-adapter bank over all rows: (loss, gradient norm)."""
    (out,) = adapter_step_cached(backbone, bank, rep, base, click, purchase,
                                 np.array([0, len(rep)]), np.array([lr]), beta).values()
    return out


def _step(backbone, bank, batch, lr, beta):
    """One adapter step the way fine-tuning takes it: a cached backbone pass,
    then an adapter-only update."""
    rep, base = backbone_cache(backbone, batch)
    return _bank_step(backbone, bank, rep, base, batch.click, batch.purchase, lr, beta)


def _adapted(backbone, adapter, batch):
    """Adapted prediction (posterior means) of one backbone pass over `batch`,
    the adapter frozen whole first, as scoring needs."""
    adapter.freeze()
    out = backbone.forward_full(batch)
    return adapted_prediction(backbone, adapter, out.representation, out.logits).prediction


def _batch(n=8, seed=0, period=1):
    return encode_records(_records(n, seed, period), SPACE)


def _backbone(seed=0):
    model = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=seed)
    model.freeze()
    return model


def _adapter(backbone, d_e=4, seed=0, period=1, decoder_hidden=(6,)):
    cfg = IAKConfig(d_e=d_e, beta=1e-3, decoder_hidden=decoder_hidden)
    return IAKAdapter(backbone.rep_dim, backbone.n_heads, cfg, {"period": period}, seed=seed)


class TestEncoderSample:
    def test_sigma_to_zero_collapses_to_mu(self):
        adapter = IAKAdapter(3, 2, IAKConfig(d_e=2, decoder_hidden=(4,)), {"period": 1}, seed=1)
        adapter.decoder_out.w.data[:] = 0.3
        adapter.encoder.rho_w.data[:] = -745.0  # softplus underflows to 0
        adapter.encoder.rho_b.data[:] = -745.0
        rep = ad.Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        sampled = lone_correction(adapter, rep, lone_noise(adapter, np.random.default_rng(3)))
        adapter.freeze()
        assert sampled.data.tobytes() == adapter.correction(rep.data).tobytes()

    def test_means_correction_reads_mu_exactly(self):
        # the means forward is given mu_w and mu_b as they are and never reads rho:
        # a NaN rho leaves the correction bitwise equal to the hand-built one
        adapter = IAKAdapter(3, 2, IAKConfig(d_e=2, decoder_hidden=()), {"period": 1}, seed=1)
        adapter.decoder_out.w.data[:] = np.eye(2)
        adapter.encoder.rho_w.data[:] = np.nan
        adapter.encoder.rho_b.data[:] = np.nan
        x = np.random.default_rng(2).normal(size=(5, 3))
        enc = adapter.encoder
        pre = (x @ enc.mu_w.data) * enc.scale + enc.mu_b.data
        want = np.where(pre >= 0.0, pre, 0.01 * pre) @ np.eye(2) + adapter.decoder_out.b.data
        adapter.freeze()
        assert adapter.correction(x).tobytes() == want.tobytes()

    def test_zero_noise_sample_is_the_means(self):
        adapter = IAKAdapter(3, 2, IAKConfig(d_e=2, decoder_hidden=(4,)), {"period": 1}, seed=1)
        adapter.decoder_out.w.data[:] = 0.3
        rep = ad.Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        zeros = (np.zeros_like(adapter.encoder.mu_w.data), np.zeros_like(adapter.encoder.mu_b.data))
        sampled = lone_correction(adapter, rep, zeros)
        adapter.freeze()
        assert sampled.data.tobytes() == adapter.correction(rep.data).tobytes()

    def test_sample_mean_converges_to_mu(self):
        # 10^5 reparameterised weight draws w = mu + softplus(rho) * noise
        # average to mu = 0.7 within three standard errors (sigma = 0.9)
        adapter = IAKAdapter(1, 1, IAKConfig(d_e=1, decoder_hidden=()), {"period": 1}, seed=0)
        vl = adapter.encoder
        vl.mu_w.data[:] = 0.7
        vl.rho_w.data[:] = math.log(math.expm1(0.9))
        n = 10**5
        eps = np.random.default_rng(3).standard_normal((n, 1))
        draws = ad.weight_sample(vl.mu_w, vl.rho_w, eps).data[:, 0]
        assert abs(draws.mean() - 0.7) < 3 * 0.9 / math.sqrt(n)
        # the adapter graph draws those weights: one input of 1, a bias pinned
        # at 10 and an identity read-out make its correction the weight plus
        # 10, on the leaky ReLU's linear side
        vl.mu_b.data[:] = 10.0
        adapter.decoder_out.w.data[:] = 1.0
        rep = ad.Tensor(np.ones((1, 1)))
        for i in range(1000):
            got = lone_correction(adapter, rep, (eps[i:i + 1], np.zeros(1))).data[0, 0]
            assert got == draws[i] + 10.0

    def test_initial_sigma_is_configured_value(self):
        vl = VariationalLinear(4, 4, "vl", np.random.default_rng(0))
        sigma = np.logaddexp(0.0, vl.rho_w.data)
        np.testing.assert_allclose(sigma, INIT_SIGMA, atol=1e-12)
        assert np.all(sigma > 0)

    def test_mu_initialized_from_standard_normal(self):
        vl = VariationalLinear(40, 40, "vl", np.random.default_rng(5))
        flat = vl.mu_w.data.ravel()
        assert abs(flat.mean()) < 3 / math.sqrt(flat.size)
        assert abs(flat.std() - 1.0) < 0.05


class TestKL:
    def test_posterior_equals_prior_gives_zero(self):
        assert _kl_of(mu=0.0, sigma=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_gives_half(self):
        assert _kl_of(mu=1.0, sigma=1.0) == pytest.approx(0.5, abs=1e-12)

    def test_sigma_two_closed_form(self):
        expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
        assert _kl_of(mu=0.0, sigma=2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.80685, abs=5e-6)

    @pytest.mark.parametrize("mu,sigma", [(1.0, 1.0), (0.0, 2.0), (-2.5, 0.3), (3.0, 4.0)])
    def test_closed_form_matches_quadrature(self, mu, sigma):
        assert _kl_of(mu, sigma) == pytest.approx(gaussian_kl_quadrature(mu, sigma), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(min_value=-5, max_value=5),
        sigma=st.floats(min_value=1e-3, max_value=10),
    )
    def test_kl_non_negative(self, mu, sigma):
        assert _kl_of(mu, sigma) >= -1e-12

    def test_kl_zero_iff_at_prior(self):
        assert _kl_of(mu=1e-3, sigma=1.0) > 1e-12


class TestIAKForward:
    def test_zero_decoder_reproduces_backbone_bitwise(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        batch = _batch()
        base = backbone.forward_full(batch).prediction
        pred = _adapted(backbone, adapter, batch)
        assert pred.p_ctr.tobytes() == base.p_ctr.tobytes()
        assert pred.p_ctcvr.tobytes() == base.p_ctcvr.tobytes()

    def test_adapters_are_isolated(self):
        backbone = _backbone()
        a1 = _adapter(backbone, seed=1, period=1)
        a2 = _adapter(backbone, seed=2, period=2)
        shared = {id(p) for p in a1.parameters()} & {id(p) for p in a2.parameters()}
        assert not shared
        batch = _batch()
        before = _adapted(backbone, a1, batch)
        for p in a2.parameters():
            p.data += 1.0
        after = _adapted(backbone, a1, batch)
        np.testing.assert_array_equal(before.p_ctr, after.p_ctr)

    def test_mean_mode_is_deterministic(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        for p in adapter.parameters():  # give the decoder something nonzero
            if "dec_out" in p.name:
                p.data[:] = 0.05
        batch = _batch()
        a = _adapted(backbone, adapter, batch)
        b = _adapted(backbone, adapter, batch)
        assert a.p_ctr.tobytes() == b.p_ctr.tobytes()

    def test_means_prediction_draws_no_noise(self):
        # eval and serving consume none of the sample stream fine-tuning draws from
        backbone = _backbone()
        adapter = _adapter(backbone)
        before = _rng_state(adapter)
        _adapted(backbone, adapter, _batch())
        assert _rng_state(adapter) == before

    def test_dimension_mismatch_rejected(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        adapter.freeze()
        wrong_rep = np.zeros((4, backbone.rep_dim + 1))
        with pytest.raises(AdapterError, match="representation width"):
            adapted_prediction(backbone, adapter, wrong_rep, np.zeros((4, 2)))

    def test_head_count_mismatch_rejected(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        adapter.freeze()
        rep = np.zeros((4, backbone.rep_dim))
        with pytest.raises(AdapterError, match="task count"):
            adapted_prediction(backbone, adapter, rep, np.zeros((4, 3)))

    @pytest.mark.parametrize("shapes", [((10,), (1, 2)), ((5, 10), (2,)), ((5, 10), (1, 2)), ((1, 10), (5, 2))],
                             ids=["1-d representation", "1-d logits", "one row of logits", "one representation row"])
    def test_inputs_that_are_not_2d_with_one_row_count_are_rejected(self, shapes):
        # one row of logits against five representation rows would broadcast
        # to five corrected rows; a 1-d input has no width to check
        backbone = _backbone()
        assert (backbone.rep_dim, backbone.n_heads) == (10, 2)
        adapter = _adapter(backbone)
        adapter.freeze()
        rep, logits = (np.zeros(shape) for shape in shapes)
        with pytest.raises(AdapterError, match="must be 2-d, with one row count"):
            adapted_prediction(backbone, adapter, rep, logits)
        with pytest.raises(AdapterError, match="must be 2-d, with one row count"):
            adapter_step_cached(backbone, _bank(_adapter(backbone)), rep, logits, np.zeros(5), np.zeros(5),
                                np.array([0, 5]), np.array([0.01]), 1e-3)

    def test_an_adapter_not_frozen_whole_or_a_tensor_input_is_rejected(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        rep, logits = backbone_cache(backbone, _batch())
        with pytest.raises(AdapterError, match="frozen whole"):
            adapted_prediction(backbone, adapter, rep, logits)
        adapter.freeze()
        for inputs in ((ad.Tensor(rep), logits), (rep, ad.Tensor(logits))):
            with pytest.raises(AdapterError, match="bare arrays"):
                adapted_prediction(backbone, adapter, *inputs)


class TestIBLoss:
    def test_beta_zero_equals_plain_bce(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        batch = _batch()
        plain = bce_loss(_adapted(backbone, _adapter(backbone), batch), batch.click, batch.purchase)
        _, base = backbone_cache(backbone, batch)
        combined = _step_loss(backbone, adapter, base, batch.click, batch.purchase, beta=0.0)
        assert combined == float(plain.data)

    def test_perfect_prediction_at_prior_vanishes(self):
        click = np.array([1.0, 0.0])
        purchase = np.array([0.0, 0.0])
        # logits of +-40 round the predictions to the labels: sigmoid(40) is 1.0
        base_logits = np.where(np.stack([click, purchase], axis=1) > 0, 40.0, -40.0)
        backbone = _backbone()
        adapter = _adapter(backbone, d_e=2)
        vl = adapter.encoder
        vl.mu_w.data[:] = 0.0
        vl.mu_b.data[:] = 0.0
        vl.rho_w.data[:] = math.log(math.expm1(1.0))
        vl.rho_b.data[:] = math.log(math.expm1(1.0))
        loss = _step_loss(backbone, adapter, base_logits, click, purchase, beta=1.0)
        assert loss <= 1e-11

    def test_hand_composed_value(self):
        # every encoder entry at per-entry KL 0.5 (mu=1, sigma=1), bce = ln 2
        click = np.array([1.0, 0.0])
        purchase = np.array([0.0, 0.0])
        backbone = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5), loss_weights=(1.0, 0.0)), SPACE, seed=0)
        backbone.freeze()
        adapter = _adapter(backbone, d_e=3)
        vl = adapter.encoder
        vl.mu_w.data[:] = 1.0
        vl.mu_b.data[:] = 1.0
        vl.rho_w.data[:] = math.log(math.expm1(1.0))
        vl.rho_b.data[:] = math.log(math.expm1(1.0))
        loss = _step_loss(backbone, adapter, np.zeros((2, 2)), click, purchase, beta=1.0)  # p_ctr = 0.5
        assert loss == pytest.approx(math.log(2) + 0.5, rel=1e-12)

    def test_gradients_through_reparameterized_sample(self):
        # the bank's loss of one adapter's rows, with one weight sample fixed
        # across evaluations, differentiates like its finite differences
        backbone = _backbone()
        bank = _bank(_adapter(backbone, d_e=3, decoder_hidden=(4,)))
        batch = _batch(5, seed=2)
        out = backbone.forward_full(batch)
        rep = ad.Tensor(out.representation)
        base_logits = ad.Tensor(out.logits)
        params = bank.params
        segs = ad.Segments([0, 5], 5)

        def loss_fn():
            bank.adapters[0].sample_rng = np.random.default_rng(77)  # the same weight sample every evaluation
            corr, softplus = _bank_forward(bank, rep, segs, np.arange(1))
            pred = backbone.predict_from_logits(ad.add(base_logits, corr))
            kl = ad.mul(bank.encoder_kl(softplus), 0.01 / bank.n_encoder_entries)
            return ad.reduce_sum(ad.add(bce_loss(pred, batch.click, batch.purchase, offsets=segs), kl))

        ad.zero_grads(params)
        ad.backward(loss_fn())
        analytic = [p.grad.copy() for p in params]
        numeric = central_differences(loss_fn, params)
        assert max_rel_err(analytic, numeric) < 1e-4


class TestFinetuneStep:
    def test_backbone_untouched_and_zero_grad_noop(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        batch = _batch()
        digest_before = model_digest(backbone.named_parameters())
        _step(backbone, _bank(adapter), batch, lr=0.01, beta=1e-3)
        assert model_digest(backbone.named_parameters()) == digest_before

    def test_rejects_unfrozen_backbone(self):
        backbone = _backbone()
        for p in backbone.parameters():
            p.set_trainable(True)
        with pytest.raises(AdapterError):
            backbone_cache(backbone, _batch())

    def test_a_nan_logit_in_any_chunk_raises(self):
        """The pass records no graph, so no op checks its outputs; each
        chunk's logits are checked as its prediction is read. A NaN in the
        table row of a user that only the last chunk looks up raises."""
        backbone = _backbone()
        records = _records()
        batch = encode_records(Dataset(**{**vars(records), "user": np.array([0] * 7 + [5])}), SPACE)
        backbone.embeddings.rows.data[1 + 5] = np.nan  # user 5's row, past the constructor's check
        assert np.isfinite(backbone_cache(backbone, batch[:4], chunk=4)[1]).all()
        with pytest.raises(ad.NonFiniteError, match="non-finite logits"):
            backbone_cache(backbone, batch, chunk=4)

    def test_mixed_primary_trains_on_another_domains_rows(self):
        backbone = _backbone()
        train = from_records([*_records(period=2), *_records(period=1)])
        selectors = {"period=2": {"period": 2}, "period=1": {"period": 1}}
        mixed = TrainConfig(batch_size=4, seed=0, mixing={"period=2": 0.6, "period=1": 0.4})
        res = finetune_all(backbone, train, selectors, mixed, IAKConfig(d_e=4))
        assert any(row.domain == "period=2" for row in res.curve)

    def test_loss_decreases_on_separable_toy_domain(self):
        backbone = _backbone(seed=11)
        adapter = _adapter(backbone, d_e=8, seed=3)
        rng = np.random.default_rng(4)
        records = [
            InteractionRecord(
                timestamp=i, user_id=int(rng.integers(0, 20)), item_id=int(rng.integers(0, 15)),
                domain_ids={"scene": 0, "region": 0, "period": 1},
                feature_ids=[int(x) for x in rng.integers(0, 8, size=4)],
                click=0, purchase=0,
            )
            for i in range(64)
        ]
        enc = encode_records(from_records(records), SPACE)
        # label by a deterministic function of the backbone's own representation
        rep, base = backbone_cache(backbone, enc)
        click = (rep[:, 0] > np.median(rep[:, 0])).astype(np.float64)
        bank = _bank(adapter)
        first = None
        loss = None
        for step in range(200):
            loss, _ = _bank_step(backbone, bank, rep, base, click, enc.purchase, lr=0.05, beta=1e-4)
            if first is None:
                first = loss
        assert loss < first

    def test_step_samples_the_encoder_weights(self):
        # two adapters equal but for their sample streams step apart: the
        # step draws a weight sample instead of using the means
        backbone = _backbone(seed=5)
        a, b = _adapter(backbone, seed=6), _adapter(backbone, seed=6)
        b.sample_rng = np.random.default_rng(99)
        batch = _batch(seed=7)
        for adapter in (a, b):
            _step(backbone, _bank(adapter), batch, lr=0.02, beta=1e-3)
        assert model_digest(a.named_parameters()) != model_digest(b.named_parameters())

    def test_finetune_is_deterministic(self):
        def run():
            backbone = _backbone(seed=5)
            adapter = _adapter(backbone, seed=6)
            bank = _bank(adapter)
            batch = _batch(seed=7)
            for _ in range(5):
                _step(backbone, bank, batch, lr=0.02, beta=1e-3)
            return model_digest(adapter.named_parameters())

        assert run() == run()

    def test_the_sample_and_the_kl_share_one_softplus_of_each_rho(self, monkeypatch):
        backbone = _backbone(seed=5)
        bank = _bank(_adapter(backbone, seed=6), _adapter(backbone, seed=7, period=2))
        batch = _batch(seed=7)
        rep, base = backbone_cache(backbone, batch)
        calls = []
        softplus_parts = ad.softplus_parts
        monkeypatch.setattr(ad, "softplus_parts", lambda rho: calls.append(rho.shape) or softplus_parts(rho))
        adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase, np.array([0, 3, 8]),
                            np.array([0.02, 0.03]), 1e-2)
        assert calls == [bank.params[2].shape, bank.params[3].shape]

    def test_a_step_at_beta_zero_builds_no_kl(self, monkeypatch):
        # softplus(-750) is 0.0 in float64, so this adapter's KL is infinite:
        # at beta 0 the step never builds it and runs; at beta > 0 it raises
        backbone = _backbone()
        adapter = _adapter(backbone)
        adapter.encoder.rho_b.data[1] = -750.0
        bank = _bank(adapter)
        batch = _batch()
        rep, base = backbone_cache(backbone, batch)
        kls = []
        gaussian_kl = ad.gaussian_kl
        monkeypatch.setattr(ad, "gaussian_kl", lambda *a: kls.append(a[1].name) or gaussian_kl(*a))
        loss, _ = _bank_step(backbone, bank, rep, base, batch.click, batch.purchase, 0.02, 0.0)
        assert math.isfinite(loss) and kls == []
        with pytest.raises(ad.NonFiniteError, match="output of gaussian_kl"):
            _bank_step(backbone, bank, rep, base, batch.click, batch.purchase, 0.02, 1e-3)
        assert kls == ["bank/enc0.rho_w", "bank/enc0.rho_b"]


def _rng_state(adapter):
    return adapter.sample_rng.bit_generator.state


def _some_adapter_steps(step):
    return any(rows > 0 and rate > 0 for rows, rate in step)


@functools.cache
def _hypothesis_backbone():
    """One frozen backbone shared by the hypothesis examples."""
    return _backbone(seed=2)


class TestAdapterBank:
    def test_adapters_become_views_of_their_slabs(self):
        backbone = _backbone()
        adapters = [_adapter(backbone, seed=s, period=s) for s in range(3)]
        before = [{n: v.tobytes() for n, v in a.named_parameters().items()} for a in adapters]
        bank = _bank(*adapters)
        for k, a in enumerate(adapters):
            assert {n: v.tobytes() for n, v in a.named_parameters().items()} == before[k]
            for p, stacked in zip(a.parameters(), bank.params):
                assert np.shares_memory(p.data, stacked.data)
                assert stacked.name == "bank/" + p.name.rsplit("/", 1)[1]

    def test_mismatched_adapters_rejected(self):
        backbone = _backbone()
        with pytest.raises(AdapterError):
            _bank(_adapter(backbone, d_e=4), _adapter(backbone, d_e=5))
        with pytest.raises(AdapterError):
            _bank()

    def test_negative_rate_rejected(self):
        backbone = _backbone()
        batch = _batch()
        rep, base = backbone_cache(backbone, batch)
        with pytest.raises(AdapterError):
            _bank_step(backbone, _bank(_adapter(backbone)), rep, base, batch.click, batch.purchase, -0.1, 0.0)

    @pytest.mark.parametrize("decoder_hidden", [(), (6, 5)])
    @pytest.mark.parametrize("beta", [0.0, 1e-2])
    def test_one_adapter_bank_equals_reference_steps(self, decoder_hidden, beta):
        backbone = _backbone(seed=2)
        adapter = _adapter(backbone, seed=4, decoder_hidden=decoder_hidden)
        reference = _adapter(backbone, seed=4, decoder_hidden=decoder_hidden)
        bank = _bank(adapter)
        state = ReferenceState()
        for step in range(6):
            batch = _batch(n=9 + step, seed=step)
            rep, base = backbone_cache(backbone, batch)
            got = _bank_step(backbone, bank, rep, base, batch.click, batch.purchase, 0.05, beta)
            want = reference_step(backbone, reference, rep, base, batch.click, batch.purchase, state, 0.05, beta)
            assert got == want
        assert model_digest(adapter.named_parameters()) == model_digest(reference.named_parameters())

    @pytest.mark.parametrize("decoder_hidden", [(), (6, 5)])
    def test_bank_correction_equals_each_adapters_own(self, decoder_hidden):
        # one graph on two primitive sets: rows grouped by adapter through the
        # bank equal each adapter's own correction with the same weight sample
        backbone = _backbone(seed=3)
        adapters = [_adapter(backbone, seed=10 + k, period=k, decoder_hidden=decoder_hidden) for k in range(3)]
        rng = np.random.default_rng(5)
        for a in adapters:
            a.decoder_out.w.data[:] = rng.normal(size=a.decoder_out.w.shape)
        want_noise = [lone_noise(a, np.random.default_rng(a.seed)) for a in adapters]
        offsets = np.array([0, 4, 4, 11])  # adapter 1 has no rows
        rep = rng.normal(size=(11, backbone.rep_dim))
        want = [lone_correction(a, ad.Tensor(rep[s:e]), n).data
                for a, n, s, e in zip(adapters, want_noise, offsets, offsets[1:])]
        bank = _bank(*adapters)
        for a in adapters:
            a.sample_rng = np.random.default_rng(a.seed)
        got = _bank_forward(bank, ad.Tensor(rep), offsets, np.arange(3))[0].data
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_skipped_adapter_neither_steps_nor_decays(self):
        # adapter 1 has rows but a zero rate at step 2, adapter 2 a rate but
        # no rows; each must match a reference that did not step at all
        backbone = _backbone(seed=3)
        make = lambda k: _adapter(backbone, seed=10 + k, period=k)  # noqa: E731
        adapters, references = [make(k) for k in range(3)], [make(k) for k in range(3)]
        states = [ReferenceState() for _ in range(3)]
        bank = _bank(*adapters)
        plan = [  # (rows per adapter, rate per adapter)
            ([4, 3, 5], [0.02, 0.03, 0.04]),
            ([4, 3, 0], [0.05, 0.0, 0.04]),
            ([1, 6, 2], [0.02, 0.03, 0.04]),
        ]
        for step, (counts, rates) in enumerate(plan):
            batch = _batch(n=sum(counts), seed=20 + step)
            rep, base = backbone_cache(backbone, batch)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            rngs_before = [_rng_state(a) for a in adapters]
            got = adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase,
                                      offsets, np.array(rates), 1e-3)
            want = {}
            for k, (s, e) in enumerate(zip(offsets, offsets[1:])):
                if e > s and rates[k] > 0:
                    want[k] = reference_step(backbone, references[k], rep[s:e], base[s:e], batch.click[s:e],
                                             batch.purchase[s:e], states[k], rates[k], 1e-3)
                else:
                    assert _rng_state(adapters[k]) == rngs_before[k]
            assert got == want
            for a, r in zip(adapters, references):
                assert model_digest(a.named_parameters()) == model_digest(r.named_parameters())
                assert _rng_state(a) == _rng_state(r)
        for k, state in enumerate(states):
            for p, stacked in zip(references[k].parameters(), bank.params):
                assert bank.opt.accumulators[stacked.name][k].tobytes() == state.accumulators[p.name].tobytes()

    def test_bank_step_trains_on_its_backbones_loss_weights(self):
        # the task weights come from the backbone, so a direct call trains as
        # fine-tuning does, not at (1, 1)
        config = ModelConfig(kind="base", hidden_sizes=(10, 5), loss_weights=(2.0, 0.5))
        backbone = build_model(config, SPACE, seed=3)
        backbone.freeze()
        adapter, reference, state = _adapter(backbone, seed=10), _adapter(backbone, seed=10), ReferenceState()
        bank = _bank(adapter)
        for step in range(3):
            batch = _batch(n=9, seed=30 + step)
            rep, base = backbone_cache(backbone, batch)
            got = _bank_step(backbone, bank, rep, base, batch.click, batch.purchase, 0.05, 1e-3)
            want = reference_step(backbone, reference, rep, base, batch.click, batch.purchase, state, 0.05, 1e-3,
                                  weights=backbone.config.loss_weights)
            assert got == want
        assert model_digest(adapter.named_parameters()) == model_digest(reference.named_parameters())

    @settings(max_examples=40, deadline=None)
    @given(
        decoder_hidden=st.sampled_from([(), (6, 5)]),
        beta=st.sampled_from([0.0, 1e-2]),
        plan=st.integers(1, 4).flatmap(lambda n_adapters: st.lists(
            st.lists(st.tuples(st.sampled_from([0, 1, 3]), st.sampled_from([0.0, 0.01, 0.05])),
                     min_size=n_adapters, max_size=n_adapters).filter(_some_adapter_steps),
            min_size=3, max_size=5)),
        seed=st.integers(0, 2**16),
    )
    def test_bank_equals_lone_adapters_over_random_plans(self, decoder_hidden, beta, plan, seed):
        # each step of `plan` lists (rows, rate) per adapter, at least one
        # adapter stepping, as in every fine-tuning batch; an adapter with no
        # rows or a zero rate must match a reference that did not step
        backbone = _hypothesis_backbone()
        n_adapters = len(plan[0])
        make = lambda k: _adapter(backbone, seed=seed + k, period=k, decoder_hidden=decoder_hidden)  # noqa: E731
        adapters, references = [make(k) for k in range(n_adapters)], [make(k) for k in range(n_adapters)]
        states = [ReferenceState() for _ in range(n_adapters)]
        bank = _bank(*adapters)
        data_rng = np.random.default_rng(seed)
        for step in plan:
            counts, rates = [c for c, _ in step], np.array([r for _, r in step])
            n = sum(counts)
            rep = data_rng.normal(size=(n, backbone.rep_dim))
            base = data_rng.normal(size=(n, backbone.n_heads))
            click = data_rng.integers(0, 2, size=n).astype(np.float64)
            purchase = click * data_rng.integers(0, 2, size=n)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            got = adapter_step_cached(backbone, bank, rep, base, click, purchase, offsets, rates, beta)
            want = {}
            for k, (s, e) in enumerate(zip(offsets, offsets[1:])):
                if e > s and rates[k] > 0:
                    want[k] = reference_step(backbone, references[k], rep[s:e], base[s:e], click[s:e],
                                             purchase[s:e], states[k], rates[k], beta)
            assert got == want
        for k, (a, r, state) in enumerate(zip(adapters, references, states)):
            assert _rng_state(a) == _rng_state(r)
            for p, q, stacked in zip(a.parameters(), r.parameters(), bank.params):
                assert p.data.tobytes() == q.data.tobytes()
                want_acc = state.accumulators.get(q.name, np.zeros_like(q.data))
                assert bank.opt.accumulators[stacked.name][k].tobytes() == want_acc.tobytes()

    @pytest.mark.parametrize("n_adapters", [1, 2, 4])
    def test_bank_step_is_one_optimizer_pass(self, monkeypatch, n_adapters):
        calls = []
        update = ad.adagrad_update
        monkeypatch.setattr(ad, "adagrad_update", lambda *args, **kw: calls.append(1) or update(*args, **kw))
        backbone = _backbone(seed=3)
        bank = _bank(*(_adapter(backbone, seed=10 + k, period=k) for k in range(n_adapters)))
        batch = _batch(n=2 * n_adapters, seed=4)
        rep, base = backbone_cache(backbone, batch)
        offsets, rates = np.arange(0, 2 * n_adapters + 1, 2), np.full(n_adapters, 0.02)
        adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase, offsets, rates, 1e-3)
        assert len(calls) == 1

    @pytest.mark.parametrize("beta", [0.0, 1e-2])
    def test_every_gradient_lands_in_its_arena_slot(self, beta):
        # the one-pass update reads the gradient block, so each parameter's
        # gradient must be written there, not left in a slot from a past step
        backbone = _backbone(seed=3)
        bank = _bank(*(_adapter(backbone, seed=10 + k, period=k) for k in range(2)))
        batch = _batch(n=6, seed=4)
        rep, base = backbone_cache(backbone, batch)
        adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase, np.array([0, 2, 6]),
                            np.array([0.02, 0.03]), beta)
        for p in bank.params:
            assert p.grad is p._grad_slot
            assert np.shares_memory(p.grad, bank.opt.grad)

    def test_parameter_with_nothing_recorded_steps_on_zeros(self):
        # after a real step every slot holds a gradient; a parameter with
        # nothing recorded since reads as zeros and steps as zeros: it stays
        # put and its accumulator only decays
        backbone = _backbone(seed=3)
        bank = _bank(*(_adapter(backbone, seed=10 + k, period=k) for k in range(2)))
        batch = _batch(n=6, seed=4)
        rep, base = backbone_cache(backbone, batch)
        rates = np.array([0.02, 0.03])
        adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase, np.array([0, 2, 6]), rates, 1e-3)
        ad.zero_grads(bank.params)
        for p in bank.params[1:]:
            p.grad = np.ones_like(p.data)
        untouched = bank.params[0]
        before, acc = untouched.data.copy(), bank.opt.accumulators[untouched.name].copy()
        bank.apply_gradients(np.arange(2), rates)
        assert not untouched.grad.any()
        assert untouched.data.tobytes() == before.tobytes()
        assert bank.opt.accumulators[untouched.name].tobytes() == (acc * bank.opt.decay).tobytes()

    def test_step_in_which_no_adapter_steps_moves_nothing(self):
        backbone = _backbone(seed=3)
        adapters = [_adapter(backbone, seed=10 + k, period=k) for k in range(2)]
        bank = _bank(*adapters)
        batch = _batch(n=6, seed=4)
        rep, base = backbone_cache(backbone, batch)
        before = [model_digest(a.named_parameters()) for a in adapters]
        got = adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase, np.array([0, 2, 6]),
                                  np.zeros(2), 1e-3)
        assert got == {}
        assert [model_digest(a.named_parameters()) for a in adapters] == before
        assert not bank.opt.acc.any()

    def test_non_finite_gradient_moves_nothing(self):
        # a NaN in the second adapter's dec0.b gradient, the sixth of eight
        # parameters, is named, and no parameter or accumulator of either
        # adapter moves
        backbone = _backbone(seed=3)
        adapters = [_adapter(backbone, seed=10 + k, period=k) for k in range(2)]
        bank = _bank(*adapters)
        batch = _batch(n=8, seed=4)
        rep, base = backbone_cache(backbone, batch)
        offsets, rates = np.array([0, 4, 8]), np.array([0.02, 0.03])
        adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase, offsets, rates, 1e-3)
        before = [p.data.copy() for p in bank.params]
        acc_before = {name: acc.copy() for name, acc in bank.opt.accumulators.items()}
        for p in bank.params:
            p.grad = np.ones_like(p.data)
        bank.params[5].grad[1, 0] = np.nan
        with pytest.raises(ad.NonFiniteError, match="adapter/period=1/dec0.b"):
            bank.apply_gradients(np.arange(2), rates)
        for p, want in zip(bank.params, before):
            assert p.data.tobytes() == want.tobytes()
        for name, acc in bank.opt.accumulators.items():
            assert acc.tobytes() == acc_before[name].tobytes()


def test_iak_config_validation():
    with pytest.raises(AdapterError):
        IAKConfig(d_e=0)
    with pytest.raises(AdapterError):
        IAKConfig(beta=-1.0)


_ENCODER = [("adapter/period=0/enc0.mu_w", (6, 3)), ("adapter/period=0/enc0.mu_b", (3,)),
            ("adapter/period=0/enc0.rho_w", (6, 3)), ("adapter/period=0/enc0.rho_b", (3,))]


@pytest.mark.parametrize("decoder_hidden, decoder", [
    ((32,), [("adapter/period=0/dec0.w", (3, 32)), ("adapter/period=0/dec0.b", (32,)),
             ("adapter/period=0/dec_out.w", (32, 2)), ("adapter/period=0/dec_out.b", (2,))]),
    ((8, 4), [("adapter/period=0/dec0.w", (3, 8)), ("adapter/period=0/dec0.b", (8,)),
              ("adapter/period=0/dec1.w", (8, 4)), ("adapter/period=0/dec1.b", (4,)),
              ("adapter/period=0/dec_out.w", (4, 2)), ("adapter/period=0/dec_out.b", (2,))]),
])
def test_adapter_parameter_names_and_order_are_pinned(decoder_hidden, decoder):
    """The ordered (name, shape) list of an adapter's checkpoint arrays: the
    encoder's posterior (means, then rhos), then each decoder layer's weight
    and bias, the output layer last. A checkpoint stores an adapter by these
    names, and a bank stacks its adapters' parameters in this order."""
    adapter = IAKAdapter(6, 2, IAKConfig(d_e=3, decoder_hidden=decoder_hidden), {"period": 0}, seed=0)
    assert [(p.name, p.data.shape) for p in adapter.parameters()] == _ENCODER + decoder
    named = adapter.named_parameters()
    assert list(named) == [name for name, _ in _ENCODER + decoder]
    assert all(named[p.name] is p.data for p in adapter.parameters())
