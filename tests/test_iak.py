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
    adapter_step_cached,
    backbone_cache,
    ib_loss,
)
from iakrec.models import FeatureSpace, ModelConfig, build_model, encode_records
from iakrec.trainer import TrainConfig, finetune_all, model_digest
from iakrec.datagen import InteractionRecord

from adapter_reference import reference_step
from gradcheck import central_differences, max_rel_err
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
    """Encoder KL of an adapter whose one encoder weight is pinned to exact
    (mu, sigma)."""
    adapter = IAKAdapter(1, 2, IAKConfig(d_e=1, decoder_hidden=()), {"period": 1}, seed=0)
    vl = adapter.encoder
    vl.mu_w.data[:] = mu
    vl.rho_w.data[:] = math.log(math.expm1(sigma))
    vl.mu_b.data[:] = 0.0
    vl.rho_b.data[:] = math.log(math.expm1(1.0))  # bias entry at the prior
    return float(adapter.encoder_kl().data)


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
    """A bank at the optimizer's default decay and epsilon."""
    return AdapterBank(adapters, decay=ad.AdagradDecayState.decay, epsilon=ad.AdagradDecayState.epsilon)


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
    """Adapted prediction (posterior means) of one backbone pass over `batch`."""
    out = backbone.forward_full(batch)
    return adapted_prediction(backbone, adapter, out.representation, out.logits)


def _batch(n=8, seed=0, period=1):
    return encode_records(_records(n, seed, period), SPACE)


def _backbone(seed=0):
    model = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=seed)
    model.set_trainable(False)
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
        sampled = adapter.correction(rep, adapter.encoder.draw_noise(np.random.default_rng(3)))
        assert sampled.data.tobytes() == adapter.correction(rep).data.tobytes()

    def test_means_correction_reads_mu_exactly(self):
        # with no noise the graph reads mu_w and mu_b as they are and never rho:
        # a NaN rho leaves the correction bitwise equal to the hand-built one
        adapter = IAKAdapter(3, 2, IAKConfig(d_e=2, decoder_hidden=()), {"period": 1}, seed=1)
        adapter.decoder_out.w.data[:] = np.eye(2)
        adapter.encoder.rho_w.data[:] = np.nan
        adapter.encoder.rho_b.data[:] = np.nan
        x = np.random.default_rng(2).normal(size=(5, 3))
        enc = adapter.encoder
        pre = (x @ enc.mu_w.data) * enc.scale + enc.mu_b.data
        want = np.where(pre >= 0.0, pre, 0.01 * pre) @ np.eye(2) + adapter.decoder_out.b.data
        assert adapter.correction(ad.Tensor(x)).data.tobytes() == want.tobytes()

    def test_zero_noise_sample_is_the_means(self):
        adapter = IAKAdapter(3, 2, IAKConfig(d_e=2, decoder_hidden=(4,)), {"period": 1}, seed=1)
        adapter.decoder_out.w.data[:] = 0.3
        rep = ad.Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        zeros = (np.zeros_like(adapter.encoder.mu_w.data), np.zeros_like(adapter.encoder.mu_b.data))
        assert adapter.correction(rep, zeros).data.tobytes() == adapter.correction(rep).data.tobytes()

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
            got = adapter.correction(rep, (eps[i:i + 1], np.zeros(1))).data[0, 0]
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
        assert pred.p_ctr.data.tobytes() == base.p_ctr.data.tobytes()
        assert pred.p_ctcvr.data.tobytes() == base.p_ctcvr.data.tobytes()

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
        np.testing.assert_array_equal(before.p_ctr.data, after.p_ctr.data)

    def test_mean_mode_is_deterministic(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        for p in adapter.parameters():  # give the decoder something nonzero
            if "dec_out" in p.name:
                p.data[:] = 0.05
        batch = _batch()
        a = _adapted(backbone, adapter, batch)
        b = _adapted(backbone, adapter, batch)
        assert a.p_ctr.data.tobytes() == b.p_ctr.data.tobytes()

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
        wrong_rep = ad.Tensor(np.zeros((4, backbone.rep_dim + 1)))
        with pytest.raises(AdapterError):
            adapted_prediction(backbone, adapter, wrong_rep, ad.Tensor(np.zeros((4, 2))))

    def test_head_count_mismatch_rejected(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        rep = ad.Tensor(np.zeros((4, backbone.rep_dim)))
        with pytest.raises(AdapterError):
            adapted_prediction(backbone, adapter, rep, ad.Tensor(np.zeros((4, 3))))


class TestIBLoss:
    def test_beta_zero_equals_plain_bce(self):
        backbone = _backbone()
        adapter = _adapter(backbone)
        batch = _batch()
        from iakrec.models import bce_loss

        pred = _adapted(backbone, adapter, batch)
        plain = bce_loss(pred, batch.click, batch.purchase)
        combined = ib_loss(pred, batch.click, batch.purchase, adapter, beta=0.0)
        assert float(plain.data) == float(combined.data)

    def test_perfect_prediction_at_prior_vanishes(self):
        from iakrec.models import Prediction

        click = np.array([1.0, 0.0])
        purchase = np.array([0.0, 0.0])
        pred = Prediction(p_ctr=ad.Tensor(click.reshape(-1, 1)), p_ctcvr=ad.Tensor(purchase.reshape(-1, 1)))
        backbone = _backbone()
        adapter = _adapter(backbone, d_e=2)
        vl = adapter.encoder
        vl.mu_w.data[:] = 0.0
        vl.mu_b.data[:] = 0.0
        vl.rho_w.data[:] = math.log(math.expm1(1.0))
        vl.rho_b.data[:] = math.log(math.expm1(1.0))
        loss = ib_loss(pred, click, purchase, adapter, beta=1.0)
        assert float(loss.data) <= 1e-11

    def test_hand_composed_value(self):
        # every encoder entry at per-entry KL 0.5 (mu=1, sigma=1), bce = ln 2
        from iakrec.models import Prediction

        click = np.array([1.0, 0.0])
        purchase = np.array([0.0, 0.0])
        pred = Prediction(p_ctr=ad.Tensor([[0.5], [0.5]]), p_ctcvr=ad.Tensor(purchase.reshape(-1, 1)))
        backbone = _backbone()
        adapter = _adapter(backbone, d_e=3)
        vl = adapter.encoder
        vl.mu_w.data[:] = 1.0
        vl.mu_b.data[:] = 1.0
        vl.rho_w.data[:] = math.log(math.expm1(1.0))
        vl.rho_b.data[:] = math.log(math.expm1(1.0))
        loss = ib_loss(pred, click, purchase, adapter, beta=1.0, weights=(1.0, 0.0))
        assert float(loss.data) == pytest.approx(math.log(2) + 0.5, rel=1e-12)

    def test_gradients_through_reparameterized_sample(self):
        backbone = _backbone()
        adapter = _adapter(backbone, d_e=3, decoder_hidden=(4,))
        batch = _batch(5, seed=2)
        out = backbone.forward_full(batch)
        rep = ad.Tensor(out.representation.data)
        base_logits = ad.Tensor(out.logits.data)
        params = adapter.parameters()
        noise = adapter.encoder.draw_noise(np.random.default_rng(77))  # fixed eps across evals

        def loss_fn():
            pred = adapted_prediction(backbone, adapter, rep, base_logits, noise)
            return ib_loss(pred, batch.click, batch.purchase, adapter, beta=0.01)

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
        backbone.set_trainable(True)
        with pytest.raises(AdapterError):
            backbone_cache(backbone, _batch())

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


def _rng_state(adapter):
    return adapter.sample_rng.bit_generator.state


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
        state = ad.AdagradDecayState()
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
        want_noise = [a.encoder.draw_noise(np.random.default_rng(a.seed)) for a in adapters]
        offsets = np.array([0, 4, 4, 11])  # adapter 1 has no rows
        rep = rng.normal(size=(11, backbone.rep_dim))
        want = [a.correction(ad.Tensor(rep[s:e]), n).data
                for a, n, s, e in zip(adapters, want_noise, offsets, offsets[1:])]
        bank = _bank(*adapters)
        for a in adapters:
            a.sample_rng = np.random.default_rng(a.seed)
        got = bank.correction(ad.Tensor(rep), offsets, bank.draw_noise(np.arange(3))).data
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_skipped_adapter_neither_steps_nor_decays(self):
        # adapter 1 has rows but a zero rate at step 2, adapter 2 a rate but
        # no rows; each must match a reference that did not step at all
        backbone = _backbone(seed=3)
        make = lambda k: _adapter(backbone, seed=10 + k, period=k)  # noqa: E731
        adapters, references = [make(k) for k in range(3)], [make(k) for k in range(3)]
        states = [ad.AdagradDecayState() for _ in range(3)]
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
                assert bank.opt_state.accumulators[stacked.name][k].tobytes() == state.accumulators[p.name].tobytes()


def test_iak_config_validation():
    with pytest.raises(AdapterError):
        IAKConfig(d_e=0).validate()
    with pytest.raises(AdapterError):
        IAKConfig(beta=-1.0).validate()
