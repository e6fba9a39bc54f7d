from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdsim.network import (
    Adam,
    NetworkConfig,
    TrainingConfig,
    VelocityPredictor,
    batch_loss,
    loss_and_grad,
    train,
    weight_norm_effective,
    _WeightNormConv,
    step_plan,
)

from oracles import dilated_causal_conv

TINY = NetworkConfig(input_dim=6, window=8, tcn_channels=(3, 4, 5),
                     kernel_size=3, dilations=(1, 2, 4), dropout_rate=0.2)


def test_dilated_conv_hand_cases() -> None:
    np.testing.assert_allclose(
        dilated_causal_conv([1.0, 2.0, 3.0, 4.0], [1.0, 1.0], q=2, h=1),
        [1.0, 3.0, 5.0, 7.0])
    np.testing.assert_allclose(
        dilated_causal_conv([1.0, 2.0, 3.0, 4.0], [1.0, 1.0], q=2, h=2),
        [1.0, 2.0, 4.0, 6.0])
    for h in (1, 2, 5):
        np.testing.assert_allclose(
            dilated_causal_conv([1.0, 2.0, 3.0, 4.0], [1.0], q=1, h=h),
            [1.0, 2.0, 3.0, 4.0])


def test_dilated_conv_multichannel_matches_manual_sum() -> None:
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 2))
    f = rng.normal(size=(3, 2))
    got = dilated_causal_conv(z, f, q=3, h=2)
    want = np.zeros(6)
    for e in range(6):
        for u in range(3):
            src = e - 2 * u
            if src >= 0:
                want[e] += float(f[u] @ z[src])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_weight_norm_effective_cases() -> None:
    np.testing.assert_allclose(weight_norm_effective([3.0, 4.0], 10.0), [6.0, 8.0])
    v = np.array([1.0, -2.0, 2.0])
    np.testing.assert_allclose(weight_norm_effective(v, np.linalg.norm(v)), v)
    # Scale invariance in the direction tensor.
    rng = np.random.default_rng(0)
    v = rng.normal(size=(4, 3, 2))
    g = rng.uniform(0.5, 2.0, size=4)
    w1 = weight_norm_effective(v, g)
    w2 = weight_norm_effective(17.3 * v, g)
    np.testing.assert_allclose(w1, w2, atol=1e-12)
    with pytest.raises(ValueError):
        weight_norm_effective(np.zeros(3), 1.0)


def test_forward_zero_input_zero_bias_gives_zero() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(1))
    out = net.forward(np.zeros((8, 6)))
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)


def test_forward_eval_mode_deterministic() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(2))
    x = np.random.default_rng(5).normal(size=(4, 8, 6))
    np.testing.assert_array_equal(net.forward(x), net.forward(x))


def test_forward_shape_validation() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(2))
    with pytest.raises(ValueError):
        net.forward(np.zeros((7, 6)))
    with pytest.raises(ValueError):
        net.forward(np.zeros((4, 8, 5)))


def test_causality_by_perturbation() -> None:
    # Changing the input at step t must leave block activations at
    # earlier steps untouched, for every block.
    net = VelocityPredictor(TINY, np.random.default_rng(4))
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 8, 6))
    net.forward(x)
    base = [blk._cache[2].copy() for blk in net.blocks]   # conv2 pre-activations
    for t in range(8):
        xp = x.copy()
        xp[0, t, :] += 1.0
        net.forward(xp)
        for bi, blk in enumerate(net.blocks):
            a2 = blk._cache[2]
            np.testing.assert_allclose(a2[:, :, :t], base[bi][:, :, :t], atol=1e-12,
                                       err_msg=f"block {bi} leaked future step {t}")


def test_block_outputs_keep_sequence_length() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(4))
    x = np.random.default_rng(10).normal(size=(2, 8, 6))
    z = x.transpose(0, 2, 1)
    for blk in net.blocks:
        z = blk.forward(z, train=False, rng=None)
        assert z.shape[2] == 8


def test_weight_norm_scale_invariance_through_network() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(6))
    x = np.random.default_rng(7).normal(size=(3, 8, 6))
    base = net.forward(x)
    net.blocks[1].conv1.v *= 3.7
    np.testing.assert_allclose(net.forward(x), base, atol=1e-12)


def test_loss_values() -> None:
    loss, _ = loss_and_grad(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(5.0, abs=1e-8)
    # Perfect prediction: only the epsilon smoothing remains.
    loss, grad = loss_and_grad(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    assert loss <= 1e-4
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)
    # Duplicating the batch doubles the loss.
    x = np.array([[1.0, -2.0], [0.5, 0.25]])
    y = np.array([[0.0, 1.0], [2.0, 2.0]])
    single = loss_and_grad(x, y)[0]
    double = loss_and_grad(np.vstack([x, x]), np.vstack([y, y]))[0]
    assert double == pytest.approx(2.0 * single, rel=1e-12)


def _activation_margin(net: VelocityPredictor) -> float:
    m = np.inf
    for blk in net.blocks:
        a1, _, a2, _, _ = blk._cache
        m = min(m, float(np.abs(a1).min()), float(np.abs(a2).min()))
    return m


def _assert_gradients_match_central_differences(net: VelocityPredictor,
                                                 x: np.ndarray, y: np.ndarray,
                                                 head_only: bool = False) -> None:
    # Step 1e-5; max relative error < 1e-5.  The denominator floor keeps
    # near-zero components checked absolutely at 1e-9 rather than dividing
    # noise by noise.
    pred = net.forward(x, train=False, head_only=head_only)
    # Central differences break across a ReLU kink: make sure this seed
    # keeps every pre-activation well clear of zero.
    assert _activation_margin(net) > 1e-3, "reseed the test: activation sits on a kink"
    _, dpred = loss_and_grad(pred, y)
    net.backward(dpred)
    analytic = {name: g.copy() for name, g in net.gradients()}

    step = 1e-5
    worst = 0.0
    for name, p in net.parameters():
        flat = p.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            lp = batch_loss(net, x, y)
            flat[i] = keep - step
            lm = batch_loss(net, x, y)
            flat[i] = keep
            fd = (lp - lm) / (2.0 * step)
            rel = abs(ana[i] - fd) / max(abs(ana[i]), abs(fd), 1e-4)
            worst = max(worst, rel)
            assert rel < 1e-5, (name, i, ana[i], fd, rel)
    assert worst < 1e-5


def test_gradients_match_central_finite_differences() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(11))
    rng = np.random.default_rng(100)
    _assert_gradients_match_central_differences(
        net, rng.normal(size=(2, 8, 6)), rng.normal(size=(2, 2)))


def test_gradients_match_central_differences_with_dead_taps() -> None:
    # The default geometry: kernel 8, dilations 1/2/4 at window 8, so 4 of
    # the 8 taps in block 1 and 6 of the 8 in block 2 read only padding.
    cfg = NetworkConfig(input_dim=6, window=8, tcn_channels=(3, 4, 5), dropout_rate=0.2)
    assert (cfg.kernel_size, cfg.dilations) == (8, (1, 2, 4))
    rng = np.random.default_rng(16)
    net = VelocityPredictor(cfg, rng)
    # Nonzero biases keep time steps whose inputs are all zero off the kink.
    for name, p in net.parameters():
        if name.endswith(".b"):
            p[:] = rng.normal(scale=0.3, size=p.shape)
    data = np.random.default_rng(100)
    _assert_gradients_match_central_differences(
        net, data.normal(size=(2, 8, 6)), data.normal(size=(2, 2)))


def test_head_plan_gradients_match_central_differences() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(11))
    rng = np.random.default_rng(100)
    _assert_gradients_match_central_differences(
        net, rng.normal(size=(2, 8, 6)), rng.normal(size=(2, 2)), head_only=True)


def test_head_plan_gradients_match_central_differences_with_dead_taps() -> None:
    cfg = NetworkConfig(input_dim=6, window=8, tcn_channels=(3, 4, 5), dropout_rate=0.2)
    rng = np.random.default_rng(16)
    net = VelocityPredictor(cfg, rng)
    for name, p in net.parameters():
        if name.endswith(".b"):
            p[:] = rng.normal(scale=0.3, size=p.shape)
    data = np.random.default_rng(100)
    _assert_gradients_match_central_differences(
        net, data.normal(size=(2, 8, 6)), data.normal(size=(2, 2)), head_only=True)


def test_step_plan_of_the_default_geometry() -> None:
    # Kernel 8, dilations 1/2/4 at window 8: the last block needs conv1 at
    # steps 3 and 7 and conv2 at step 7 only.
    cfg = NetworkConfig(input_dim=6)
    full, head = step_plan(cfg), step_plan(cfg, head_only=True)
    assert [b.inputs for b in full] == [list(range(8))] * 3
    assert [b.inputs for b in head] == [list(range(8)), [1, 3, 5, 7], [3, 7]]
    steps = np.arange(8)
    assert steps[head[2].mid].tolist() == [3, 7] and steps[head[2].out].tolist() == [7]
    assert [u for u, _, _ in head[2].conv2] == [0, 1]


def test_head_plan_matches_full_plan_at_the_default_size() -> None:
    # 230 inputs and 32/64/96 channels: the products are large enough for
    # BLAS to pick its kernel by size, and small batches reach its
    # small-matrix kernels.
    cfg = NetworkConfig(input_dim=230)
    net = VelocityPredictor(cfg, np.random.default_rng(30))
    for batch in (1, 2, 5, 37, 38):
        x = np.random.default_rng(batch).normal(size=(batch, 8, 230))
        assert net.predict(x).tobytes() == net.forward(x).tobytes(), batch
        full = net.forward(x, train=True, rng=np.random.default_rng(31))
        head = net.forward(x, train=True, rng=np.random.default_rng(31), head_only=True)
        assert head.tobytes() == full.tobytes(), batch


@settings(max_examples=60, deadline=None)
@given(window=st.integers(1, 12), q=st.integers(1, 8),
       dilations=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       channels=st.lists(st.integers(1, 4), min_size=3, max_size=3),
       input_dim=st.integers(1, 4), dropout=st.sampled_from([0.0, 0.2]),
       batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(window=8, q=8, dilations=[1, 2, 4], channels=[3, 4, 5], input_dim=6,
         dropout=0.2, batch=3, seed=0)                    # the default geometry
@example(window=12, q=3, dilations=[3, 5, 2], channels=[2, 2, 3], input_dim=2,
         dropout=0.2, batch=2, seed=1)                    # steps not contiguous
def test_head_plan_matches_full_plan(window, q, dilations, channels, input_dim, dropout,
                                     batch, seed) -> None:
    cfg = NetworkConfig(input_dim=input_dim, window=window,
                        tcn_channels=tuple(channels[:len(dilations)]), kernel_size=q,
                        dilations=tuple(dilations), dropout_rate=dropout)
    rng = np.random.default_rng(seed)
    net = VelocityPredictor(cfg, rng)
    for name, p in net.parameters():
        if name.endswith(".b"):
            p[:] = rng.normal(scale=0.3, size=p.shape)
    x = rng.normal(size=(batch, window, input_dim))
    dout = rng.normal(size=(batch, 2))
    for train in (False, True):
        rng_full, rng_head = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        full = net.forward(x, train=train, rng=rng_full)
        net.backward(dout)
        want = {n: g.copy() for n, g in net.gradients()}
        head = net.forward(x, train=train, rng=rng_head, head_only=True)
        net.backward(dout)
        assert head.tobytes() == full.tobytes(), train
        assert rng_head.bit_generator.state == rng_full.bit_generator.state
        for name, got in net.gradients():
            scale = float(np.abs(want[name]).max())
            assert np.abs(got - want[name]).max() <= 1e-12 * scale, (train, name)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(1, 8), h=st.integers(1, 5), length=st.integers(1, 10),
       c_in=st.integers(1, 4), c_out=st.integers(1, 4), batch=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(q=8, h=4, length=8, c_in=3, c_out=2, batch=2, seed=0)   # 6 of 8 taps dead
@example(q=3, h=5, length=4, c_in=1, c_out=1, batch=1, seed=1)   # only tap 0 live
def test_conv_layer_matches_scalar_oracle(q, h, length, c_in, c_out, batch, seed) -> None:
    rng = np.random.default_rng(seed)
    conv = _WeightNormConv(c_in, c_out, q, h, rng)
    conv.g[:] = rng.uniform(0.5, 2.0, size=c_out)
    conv.b[:] = rng.normal(size=c_out)
    z = rng.normal(size=(length, batch, c_in))          # time-major
    got = conv.forward(z)
    assert got.shape == (length, batch, c_out)
    w = conv.effective_weight()                          # (C_out, C_in, q)
    for b in range(batch):
        for o in range(c_out):
            want = dilated_causal_conv(z[:, b, :], w[o].T, q=q, h=h) + conv.b[o]
            np.testing.assert_allclose(got[:, b, o], want, rtol=0.0, atol=1e-12)


def test_backward_skips_only_the_first_block_input_gradient() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(17))
    rng = np.random.default_rng(18)
    x = rng.normal(size=(5, 8, 6))
    dout = rng.normal(size=(5, 2))
    net.forward(x, train=True, rng=np.random.default_rng(19))
    net.backward(dout)
    skipped = [g.copy() for _, g in net.gradients()]
    # The full chain, down to the gradient of the input features, after the
    # same forward again (same rng seed, so the same dropout masks).
    net.forward(x, train=True, rng=np.random.default_rng(19))
    z = net._z
    dz = np.zeros(z.shape)
    dz[:, :, -1] = net.head.backward(dout, z[:, :, -1])
    for block in reversed(net.blocks):
        dz = block.backward(dz)
    assert dz.shape == (5, 6, 8)
    assert net.blocks[0].proj is not None
    for got, (name, want) in zip(skipped, net.gradients()):
        assert got.tobytes() == want.tobytes(), name


def test_backward_without_a_forward_raises() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(21))
    dout = np.ones((2, 2))
    with pytest.raises(RuntimeError, match="backward needs a forward pass first"):
        net.backward(dout)
    net.forward(np.zeros((2, 8, 6)), train=True, rng=np.random.default_rng(22))
    net.backward(dout)
    with pytest.raises(RuntimeError, match="backward needs a forward pass first"):
        net.backward(dout)


def test_backward_releases_every_activation() -> None:
    net = VelocityPredictor(NetworkConfig(input_dim=230), np.random.default_rng(23))
    rng = np.random.default_rng(24)
    x = rng.normal(size=(64, 8, 230))
    dout = rng.normal(size=(64, 2))
    net.forward(x, train=True, rng=rng, head_only=True)     # first-call set-up
    net.backward(dout)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net.forward(x, train=True, rng=rng, head_only=True)
        mask_dtypes = {blk._cache[i].dtype for blk in net.blocks for i in (1, 3)}
        net.backward(dout)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert mask_dtypes == {np.dtype(bool)}
    assert net._z is None
    for blk in net.blocks:
        assert blk._cache is None and blk.conv1._cache is None and blk.conv2._cache is None
    # Nothing but the new gradient arrays outlives backward.
    grads = sum(g.nbytes for _, g in net.gradients())
    assert after - before <= grads + 64 * 1024, (after - before, grads)


def test_zero_error_batch_has_tiny_gradient() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(13))
    x = np.random.default_rng(14).normal(size=(4, 8, 6))
    y = net.forward(x)          # targets equal predictions exactly
    _, dpred = loss_and_grad(net.forward(x), y)
    net.backward(dpred)
    total = sum(float(np.abs(g).sum()) for _, g in net.gradients())
    assert total < 1e-3


def test_gradient_of_duplicated_batch_doubles() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 8, 6))
    y = rng.normal(size=(3, 2))
    _, dpred = loss_and_grad(net.forward(x), y)
    net.backward(dpred)
    single = {n: g.copy() for n, g in net.gradients()}
    x2, y2 = np.vstack([x, x]), np.vstack([y, y])
    _, dpred2 = loss_and_grad(net.forward(x2), y2)
    net.backward(dpred2)
    for n, g in net.gradients():
        np.testing.assert_allclose(g, 2.0 * single[n], rtol=1e-9, atol=1e-12)


def _toy_data(n: int = 256, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 8, 6))
    a = np.array([[0.5, -0.2, 0.1, 0.0, 0.3, -0.1],
                  [0.0, 0.4, -0.3, 0.2, 0.0, 0.1]])
    y = x[:, -1, :] @ a.T
    return x, y


def test_train_zero_learning_rate_keeps_parameters() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(20))
    before = net.state_dict()
    x, y = _toy_data()
    cfg = TrainingConfig(learning_rate=0.0, iterations=60, batch_size=32, seed=1)
    train(net, x[:200], y[:200], x[200:], y[200:], cfg)
    for name, arr in net.parameters():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)


def test_train_fixed_seed_reproduces_history_bitwise() -> None:
    x, y = _toy_data()
    cfg = TrainingConfig(learning_rate=1e-3, iterations=100, batch_size=32, seed=7)
    hists = []
    for _ in range(2):
        net = VelocityPredictor(TINY, np.random.default_rng(21))
        res = train(net, x[:200], y[:200], x[200:], y[200:], cfg)
        hists.append(res.history)
    assert hists[0] == hists[1]


def test_train_records_every_50_iterations_and_best_val() -> None:
    x, y = _toy_data()
    cfg = TrainingConfig(learning_rate=1e-3, iterations=150, batch_size=32, seed=3)
    net = VelocityPredictor(TINY, np.random.default_rng(22))
    res = train(net, x[:200], y[:200], x[200:], y[200:], cfg)
    assert [row[0] for row in res.history] == [0, 50, 100, 150]
    vals = [row[2] for row in res.history]
    assert res.best_val_loss == pytest.approx(min(vals))
    # The returned network carries the best-validation parameters.
    reloaded = batch_loss(net, x[200:], y[200:]) / 56
    assert reloaded == pytest.approx(res.best_val_loss)


def test_train_raises_on_divergence_with_iteration() -> None:
    x, y = _toy_data(64)
    x[0, 0, 0] = np.nan
    net = VelocityPredictor(TINY, np.random.default_rng(23))
    cfg = TrainingConfig(learning_rate=1e-3, iterations=10, batch_size=64, seed=0)
    with pytest.raises(RuntimeError, match="iteration"):
        train(net, x, y, x[:8], y[:8], cfg)


def test_adam_matches_reference_formula_one_step() -> None:
    p = np.array([1.0, -2.0])
    opt = Adam([("p", p)], lr=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
    g = np.array([0.5, -1.0])
    opt.step([("p", g)])
    mhat = (0.1 * g) / (1 - 0.9)
    vhat = (0.001 * g * g) / (1 - 0.999)
    want = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p, want, rtol=1e-12)


def test_adam_step_on_a_frozen_predictor_writes_nothing() -> None:
    # The step checks every parameter before its first write, so a refused
    # step leaves t and every moment as they were.
    net = VelocityPredictor(TINY, np.random.default_rng(34))
    rng = np.random.default_rng(35)
    opt = Adam(net.parameters(), lr=1e-3)
    pred = net.forward(rng.normal(size=(5, 8, 6)), train=True, rng=rng, head_only=True)
    net.backward(loss_and_grad(pred, rng.normal(size=(5, 2)))[1])
    net.freeze()
    with pytest.raises(ValueError, match="the predictor is frozen"):
        opt.step(net.gradients())
    assert opt.t == 0
    assert not any(m.any() or v.any() for m, v in zip(opt.m.values(), opt.v.values()))


def test_network_config_validation() -> None:
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=6, tcn_channels=(3, 4), dilations=(1, 2, 4))
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=6, dilations=(1, 0, 4))
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=0)
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=6, dropout_rate=1.0)


def test_training_config_rejects_invalid_optimiser_settings() -> None:
    # Each bad value raises a ValueError that names its field, instead of a
    # run that returns the untrained weights.
    for field_name, values in (("learning_rate", (-1e-3, np.nan, np.inf)),
                               ("beta1", (-0.1, 1.0, np.nan)),
                               ("beta2", (-0.1, 1.0, 2.0, np.nan)),
                               ("epsilon", (0.0, -1e-8, np.nan, np.inf))):
        for value in values:
            with pytest.raises(ValueError, match=field_name):
                TrainingConfig(**{field_name: value})
    TrainingConfig(learning_rate=0.0, beta1=0.0, beta2=0.0, epsilon=1e-300)


def test_predict_never_serves_a_stale_weight() -> None:
    # An unfrozen conv lays out its weight on every forward: after in-place
    # writes, Adam steps and a load_state_dict, predict must equal a net
    # built fresh with the same parameters, byte for byte.  freeze() keeps
    # predict's bytes and lays each weight out once; every write then
    # raises ValueError and leaves predict as it was.
    net = VelocityPredictor(TINY, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    x = rng.normal(size=(5, 8, 6))
    conv1, conv2 = net.blocks[1].conv1, net.blocks[2].conv2
    convs = [c for blk in net.blocks for c in (blk.conv1, blk.conv2)]
    opt = Adam(net.parameters(), lr=1e-3)
    other = VelocityPredictor(TINY, np.random.default_rng(33))

    def rescale():                  # the same weight up to rounding
        conv1.v *= 3.7

    def nudge():                    # one entry, through a view
        conv2.v.reshape(-1)[5] += 1e-3

    def flip():
        conv2.g[1] = -conv2.g[1]

    def one_ulp():
        conv1.g *= 1.0 + 2.0**-52

    def adam_step():
        pred = net.forward(x, train=True, rng=rng, head_only=True)
        net.backward(loss_and_grad(pred, rng.normal(size=(5, 2)))[1])
        opt.step(net.gradients())

    def load():
        net.load_state_dict(other.state_dict())

    writes = (rescale, nudge, flip, one_ulp, adam_step, adam_step, load)
    for write in writes:
        before = net.predict(x)
        write()
        got = net.predict(x)
        fresh = VelocityPredictor(TINY, np.random.default_rng(99))
        fresh.load_state_dict(net.state_dict())
        assert got.tobytes() == fresh.predict(x).tobytes(), write.__name__
        assert got.tobytes() != before.tobytes(), write.__name__
    assert net.predict(x).tobytes() == other.predict(x).tobytes()
    assert all(c.frozen_weight is None for c in convs)  # training keeps no layout

    want = net.predict(x)
    assert net.freeze() is net
    kept = [c.frozen_weight for c in convs]
    assert net.predict(x).tobytes() == want.tobytes()
    for write in writes:
        with pytest.raises(ValueError):
            write()
        assert net.predict(x).tobytes() == want.tobytes(), write.__name__
    assert all(not p.flags.writeable for _, p in net.parameters())
    net.freeze()
    net.predict(x)
    assert all(c.frozen_weight is w and c._cache[1] is w for c, w in zip(convs, kept))
    # Forwards read the weight laid out at freeze, not v and g: a write that
    # goes round the read-only flag is not seen.
    conv2.g.flags.writeable = True
    conv2.g[1] = -conv2.g[1]
    conv2.g.flags.writeable = False
    assert net.predict(x).tobytes() == want.tobytes()


def test_state_dict_round_trip() -> None:
    net = VelocityPredictor(TINY, np.random.default_rng(29))
    state = net.state_dict()
    other = VelocityPredictor(TINY, np.random.default_rng(77))
    other.load_state_dict(state)
    x = np.random.default_rng(1).normal(size=(2, 8, 6))
    np.testing.assert_array_equal(net.forward(x), other.forward(x))
    with pytest.raises(ValueError):
        bad = dict(state)
        bad.popitem()
        VelocityPredictor(TINY, np.random.default_rng(1)).load_state_dict(bad)
    # A key that names no parameter (a stray tensor, or another
    # architecture's) is named in the error.  Nothing is loaded from a
    # rejected state, even when only its last tensor is wrong.
    fresh = VelocityPredictor(TINY, np.random.default_rng(1))
    kept = fresh.state_dict()
    with pytest.raises(ValueError, match="block9.conv1.v"):
        fresh.load_state_dict({**state, "block9.conv1.v": state["block0.conv1.v"]})
    with pytest.raises(ValueError, match="head.b"):
        fresh.load_state_dict({**state, "head.b": np.zeros(3)})
    assert all(np.array_equal(p, kept[n]) for n, p in fresh.parameters())
