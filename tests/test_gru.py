import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub import FeatureMatrix, NormStats, rng_stream
from eegscrub.errors import (DataFormatError, NumericDegeneracyError,
                             StratificationError)
from eegscrub.gru import (
    GATE_PARAM_NAMES,
    MODEL_MAGIC,
    LinearModel,
    ModelConfig,
    TrainConfig,
    evaluate,
    forward,
    init_gru,
    load_model,
    loss_and_grad,
    save_model,
    stratified_split,
    train,
    train_linear_baseline,
)
from eegscrub.core import normalize
from eegscrub.gru import (_cross_entropy, _forward_batch, _sequence_buffer,
                          _sigmoid, _softmax)
from peak_rss import peak_rise_mib


def tiny_model(seed=0, t=3, f=2, h=4, c=3):
    mc = ModelConfig(seq_len=t, feat_dim=f, hidden_size=h, n_classes=c,
                     seed=seed)
    return init_gru(mc)


def random_batch(model, n, seed=0):
    rng = rng_stream(seed, "gru-test-batch")
    seqs = rng.normal(size=(n, model.config.seq_len, model.config.feat_dim))
    labels = rng.integers(0, model.config.n_classes, size=n)
    return seqs, labels


def blob_dataset(n_per_class=40, n_features=12, seed=0, spread=0.35):
    rng = rng_stream(seed, "gru-test-blobs")
    rows, labels = [], []
    for cls in range(3):
        center = np.zeros(n_features)
        center[cls * (n_features // 3):(cls + 1) * (n_features // 3)] = 2.5
        for _ in range(n_per_class):
            rows.append(center + spread * rng.normal(size=n_features))
            labels.append(cls)
    names = tuple(f"f{i}" for i in range(n_features))
    return FeatureMatrix(rows=np.array(rows), feature_names=names,
                         labels=tuple(labels))


def flatten_params(model):
    parts = [getattr(model, name).ravel()
             for name in ("wz", "uz", "bz", "wr", "ur", "br",
                          "wh", "uh", "bh")]
    parts += [model.w_out.ravel(), model.b_out.ravel()]
    return np.concatenate(parts)


def masked_sigmoid(x):
    """The boolean-mask form of the stable logistic, kept as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def two_quotient_sigmoid(x):
    """The stable logistic as two full quotients and a ``where``."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


SIGMOID_INPUTS = [
    np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 708.0, -708.0, 750.0,
              -750.0, np.inf, -np.inf, np.nan, -np.nan]),
    rng_stream(0, "sigmoid-test").normal(0.0, 8.0, size=(2132, 64)),
]


@pytest.mark.parametrize("x", SIGMOID_INPUTS)
def test_sigmoid_bit_identical_to_masked_form(x):
    assert np.array_equal(_sigmoid(x).view(np.uint64),
                          masked_sigmoid(x).view(np.uint64))


@pytest.mark.parametrize("x", SIGMOID_INPUTS)
def test_sigmoid_bit_identical_to_two_quotient_form(x):
    assert np.array_equal(_sigmoid(x).view(np.uint64),
                          two_quotient_sigmoid(x).view(np.uint64))


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        model = tiny_model()
        zero = {
            name: np.zeros_like(getattr(model, name))
            for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh",
                         "bh")
        }
        from dataclasses import replace
        model = replace(model, **zero,
                        w_out=np.zeros_like(model.w_out),
                        b_out=np.zeros_like(model.b_out))
        x = rng_stream(1, "fw-x").normal(size=(3, 2))
        hidden, probs = forward(model, x)
        assert np.all(hidden == 0.0)
        assert np.allclose(probs, 1.0 / 3.0)

    def test_shapes(self):
        model = tiny_model(t=10, f=4, h=32)
        x = rng_stream(2, "fw-shape").normal(size=(10, 4))
        hidden, probs = forward(model, x)
        assert hidden.shape == (10, 32)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_single_step(self):
        # scalar cell, one step: all weights pinned to easy constants
        from dataclasses import replace
        model = tiny_model(t=1, f=1, h=1, c=2)
        vals = {
            "wz": np.array([[0.5]]), "uz": np.array([[0.0]]),
            "bz": np.array([0.1]),
            "wr": np.array([[-0.3]]), "ur": np.array([[0.0]]),
            "br": np.array([0.2]),
            "wh": np.array([[0.8]]), "uh": np.array([[0.0]]),
            "bh": np.array([-0.1]),
        }
        model = replace(model, **vals)
        x = np.array([[0.7]])
        hidden, _ = forward(model, x)
        z = 1.0 / (1.0 + np.exp(-(0.5 * 0.7 + 0.1)))
        cand = np.tanh(0.8 * 0.7 - 0.1)
        expected = z * cand  # h starts at 0
        assert abs(hidden[0, 0] - expected) < 1e-12

    def test_hidden_state_bounded(self):
        model = tiny_model(t=50, f=2, h=4)
        x = 10.0 * rng_stream(3, "fw-bound").normal(size=(50, 2))
        hidden, _ = forward(model, x)
        assert np.all(np.abs(hidden) < 1.0)


@pytest.mark.parametrize("kind", ["gru", "linear"])
def test_predict_proba_is_forward_of_normalized_rows(kind):
    # each model's input rule must give the bits of core.normalize followed
    # by the model's forward map; the GRU scales inside its padded copy
    data = blob_dataset(n_per_class=10)
    norm = normalize(data.rows[::2])[1]
    x = normalize(data.rows, norm)[0]
    if kind == "gru":
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=2)
        model = replace(init_gru(mc), norm=norm)
        width = mc.seq_len * mc.feat_dim
        padded = np.pad(x, ((0, 0), (0, width - x.shape[1])))
        want = _forward_batch(
            model, padded.reshape(len(x), mc.seq_len, mc.feat_dim))[1]
    else:
        rng = rng_stream(2, "linear-input-rule")
        model = LinearModel(n_classes=3, w=rng.normal(size=(3, 12)),
                            b=rng.normal(size=3), norm=norm)
        want = _softmax(x @ model.w.T + model.b)
    assert np.array_equal(model.predict_proba(data.rows).view(np.uint64),
                          want.view(np.uint64))


@pytest.mark.parametrize("kind", ["gru", "linear"])
def test_predict_proba_on_zero_rows_names_count_and_width(kind):
    norm = normalize(blob_dataset(n_per_class=2).rows)[1]
    if kind == "gru":
        model = replace(init_gru(ModelConfig.for_features(12, 3)), norm=norm)
    else:
        model = LinearModel(n_classes=3, w=np.zeros((3, 12)), b=np.zeros(3),
                            norm=norm)
    with pytest.raises(DataFormatError,
                       match="has 0 rows; the model needs at least 1 row of "
                             "12 features"):
        model.predict_proba(np.empty((0, 12)))


@pytest.mark.parametrize("kind", ["gru", "linear"])
def test_evaluate_on_zero_rows_names_count_and_width(kind):
    data = blob_dataset(n_per_class=10)
    tc = TrainConfig(epochs=1, batch_size=8, seed=0)
    if kind == "gru":
        model, _ = train(data, ModelConfig.for_features(
            data.n_features, 3, hidden_size=4), tc)
    else:
        model, _ = train_linear_baseline(data, tc)
    empty = FeatureMatrix(np.empty((0, data.n_features)), data.feature_names,
                          ())
    with pytest.raises(DataFormatError, match="has 0 rows; the model needs "
                       f"at least 1 row of {data.n_features} features"):
        evaluate(model, empty)


class TestLossAndGrad:
    def test_zero_weight_loss_is_ln_c(self):
        from dataclasses import replace
        model = tiny_model()
        zero = {
            name: np.zeros_like(getattr(model, name))
            for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh",
                         "bh")
        }
        model = replace(model, **zero,
                        w_out=np.zeros_like(model.w_out),
                        b_out=np.zeros_like(model.b_out))
        seqs, labels = random_batch(model, 4)
        loss, _ = loss_and_grad(model, seqs, labels)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_difference(self, seed):
        model = tiny_model(seed=seed)
        seqs, labels = random_batch(model, 3, seed=seed)
        _, grads = loss_and_grad(model, seqs, labels)
        eps = 1e-5
        worst = 0.0
        from dataclasses import replace

        def loss_with(vec):
            m = model
            offset = 0
            updates = {}
            for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh",
                         "bh"):
                arr = getattr(m, name)
                updates[name] = vec[offset: offset + arr.size].reshape(
                    arr.shape)
                offset += arr.size
            w_out = vec[offset: offset + m.w_out.size].reshape(
                m.w_out.shape)
            offset += m.w_out.size
            b_out = vec[offset:].reshape(m.b_out.shape)
            m = replace(m, **updates,
                        w_out=w_out, b_out=b_out)
            loss, _ = loss_and_grad(m, seqs, labels)
            return loss

        theta = flatten_params(model)
        flat_grad = np.concatenate(
            [grads[n].ravel() for n in ("wz", "uz", "bz", "wr", "ur", "br",
                                        "wh", "uh", "bh")]
            + [grads["w_out"].ravel(), grads["b_out"].ravel()]
        )
        rng = rng_stream(seed, "fd-pick")
        for i in rng.choice(len(theta), size=25, replace=False):
            bump = np.zeros_like(theta)
            bump[i] = eps
            num = (loss_with(theta + bump) - loss_with(theta - bump)) / (
                2 * eps)
            denom = max(abs(num), abs(flat_grad[i]), 1e-8)
            worst = max(worst, abs(num - flat_grad[i]) / denom)
        assert worst < 1e-4

    def test_duplicated_sample_same_loss(self):
        model = tiny_model()
        seqs, labels = random_batch(model, 1)
        single, _ = loss_and_grad(model, seqs, labels)
        doubled, _ = loss_and_grad(
            model,
            np.concatenate([seqs, seqs]),
            np.concatenate([labels, labels]),
        )
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_label_out_of_range(self):
        model = tiny_model()
        seqs, _ = random_batch(model, 2)
        with pytest.raises(ValueError):
            loss_and_grad(model, seqs, np.array([0, 3]))


def per_step_loss_and_grad(model, seqs, labels, grad_clip=None):
    """The per-gate forward and per-step BPTT loops, kept as the reference.

    Three input products and two recurrent products per forward step, and
    every weight gradient accumulated step by step. Returns the loss, the
    gradients, the probabilities and, per gradient, the elementwise sum of
    the absolute values of the terms it adds: the scale of its rounding
    error, however far those terms cancel.
    """
    b, t_steps, _ = seqs.shape
    h = np.zeros((b, model.wz.shape[0]))
    hs, caches = [], []
    for t in range(t_steps):
        xt = seqs[:, t, :]
        z = _sigmoid(xt @ model.wz.T + h @ model.uz.T + model.bz)
        r = _sigmoid(xt @ model.wr.T + h @ model.ur.T + model.br)
        cand = np.tanh(xt @ model.wh.T + (r * h) @ model.uh.T + model.bh)
        caches.append((xt, h, z, r, cand))
        h = (1.0 - z) * h + z * cand
        hs.append(h)
    flat = np.concatenate(hs, axis=1)
    probs = _softmax(flat @ model.w_out.T + model.b_out)
    loss, dlogits = _cross_entropy(probs, labels)
    grads = {"w_out": dlogits.T @ flat, "b_out": dlogits.sum(axis=0)}
    sizes = {"w_out": np.abs(dlogits).T @ np.abs(flat),
             "b_out": np.abs(dlogits).sum(axis=0)}
    for name in GATE_PARAM_NAMES:
        grads[name] = np.zeros_like(getattr(model, name))
        sizes[name] = np.zeros_like(getattr(model, name))
    dh_seq = (dlogits @ model.w_out).reshape(b, t_steps, -1)
    dh_next = np.zeros_like(h)
    for t in range(t_steps - 1, -1, -1):
        xt, h_prev, z, r, cand = caches[t]
        dh = dh_seq[:, t, :] + dh_next
        dz = dh * (cand - h_prev) * z * (1.0 - z)
        dcand = dh * z * (1.0 - cand**2)
        drh = dcand @ model.uh
        dr = drh * h_prev * r * (1.0 - r)
        for gate, d, rec in (("z", dz, h_prev), ("r", dr, h_prev),
                             ("h", dcand, r * h_prev)):
            grads["w" + gate] += d.T @ xt
            grads["u" + gate] += d.T @ rec
            grads["b" + gate] += d.sum(axis=0)
            sizes["w" + gate] += np.abs(d).T @ np.abs(xt)
            sizes["u" + gate] += np.abs(d).T @ np.abs(rec)
            sizes["b" + gate] += np.abs(d).sum(axis=0)
        dh_next = (dh * (1.0 - z) + drh * r + dz @ model.uz
                   + dr @ model.ur)
    if grad_clip is not None:
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        if norm > grad_clip:
            grads = {k: g * (grad_clip / norm) for k, g in grads.items()}
            sizes = {k: g * (grad_clip / norm) for k, g in sizes.items()}
    return loss, grads, probs, sizes


def max_rel_diff(got, want):
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale if scale else np.abs(got).max()


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 6), t=st.integers(1, 6), h=st.integers(1, 6),
       f=st.integers(1, 6), seed=st.integers(0, 2**16),
       grad_clip=st.sampled_from([None, 0.05, 5.0]))
# bh's terms of about 0.08 cancel to -9.3e-6: a summation-order difference
# of 1e-17 is 1.1e-12 of the result
@example(b=2, t=5, h=1, f=1, seed=19197, grad_clip=None)
def test_stacked_gates_match_per_step_reference(b, t, h, f, seed, grad_clip):
    model = tiny_model(seed=seed, t=t, f=f, h=h)
    rng = rng_stream(seed, "gru-reference")
    model = replace(model, bz=rng.normal(size=h), br=rng.normal(size=h),
                    bh=rng.normal(size=h))
    seqs = rng.normal(size=(b, t, f))
    labels = rng.integers(0, 3, size=b)
    loss, grads = loss_and_grad(model, seqs, labels, grad_clip=grad_clip)
    ref_loss, ref_grads, ref_probs, sizes = per_step_loss_and_grad(
        model, seqs, labels, grad_clip)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert list(grads) == list(ref_grads)
    for name, want in ref_grads.items():
        assert grads[name].shape == want.shape
        assert np.all(np.abs(grads[name] - want) <= 1e-12 * sizes[name]), name
    probs = model.predict_proba(seqs.reshape(b, t * f))
    assert max_rel_diff(probs, ref_probs) <= 1e-12


class TestReshape:
    def test_zero_padding(self):
        rows = np.arange(1.0, 11.0).reshape(1, 10)
        mc = ModelConfig(seq_len=4, feat_dim=3, hidden_size=2, n_classes=2)
        seqs, cols = _sequence_buffer(*rows.shape, mc)
        cols[...] = rows
        assert seqs.shape == (1, 4, 3)
        assert seqs[0, 0, 0] == 1.0
        assert seqs[0, 3, 0] == 10.0
        assert seqs[0, 3, 1] == 0.0 and seqs[0, 3, 2] == 0.0  # padded tail


@st.composite
def step_reader_cases(draw):
    """A GRU of 1-16 steps whose T*F holds 1-50 features with 0-2 spare
    columns per step (a padded last step, then all-zero steps), 1-40 rows,
    row indices (none, a permutation or draws with repeats) and a
    normalization or none."""
    n, n_features = draw(st.integers(1, 40)), draw(st.integers(1, 50))
    seq_len = draw(st.integers(1, 16))
    feat_dim = -(-n_features // seq_len) + draw(st.integers(0, 2))
    model = tiny_model(t=seq_len, f=feat_dim, h=2)
    rng = rng_stream(draw(st.integers(0, 2**16)), "gru-step-reader")
    rows = rng.normal(size=(n, n_features)) * 10.0 ** rng.uniform(
        -3, 3, size=n_features)
    idx = {"none": None, "permutation": rng.permutation(n),
           "repeats": rng.integers(0, n, size=draw(st.integers(1, 40)))}[
        draw(st.sampled_from(["none", "permutation", "repeats"]))]
    if draw(st.booleans()):
        model = replace(model, norm=NormStats(
            loc=rng.normal(size=n_features),
            scale=10.0 ** rng.uniform(-3, 3, size=n_features)))
    return model, rows, idx


@settings(max_examples=60, deadline=None)
@given(case=step_reader_cases())
def test_step_reader_is_inputs_bit_for_bit(case):
    model, rows, idx = case
    want = model._inputs(rows, idx)
    steps = model._reader(rows, idx)
    assert steps.shape == want.shape
    for t in range(want.shape[1]):
        assert np.array_equal(steps[:, t, :].view(np.uint64),
                              want[:, t, :].view(np.uint64)), t


@pytest.mark.parametrize("idx", [None, np.array([2, 0, 2])])
def test_step_reader_refuses_as_inputs_does(idx):
    # column 19 lies in the second of 16 steps of 2 features
    model = init_gru(ModelConfig.for_features(20, 3, hidden_size=2))
    rows = rng_stream(0, "gru-step-refusal").normal(size=(3, 20))
    scale = np.ones(20)
    scale[19] = 1e-310
    model = replace(model, norm=NormStats(loc=np.zeros(20), scale=scale))
    with pytest.raises(NumericDegeneracyError) as want:
        model._inputs(rows, idx)
    with pytest.raises(NumericDegeneracyError) as got:
        model._reader(rows, idx)[:, 9, :]
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("feature column 19 ")


class TestStratifiedSplit:
    def test_balanced_arithmetic(self):
        labels = np.array([0] * 34 + [1] * 33 + [2] * 33)
        train_idx, val_idx, test_idx = stratified_split(
            labels, (0.6, 0.2, 0.2), seed=0)
        assert len(train_idx) + len(val_idx) + len(test_idx) == 100
        for cls, total in ((0, 34), (1, 33), (2, 33)):
            got = [np.sum(labels[part] == cls)
                   for part in (train_idx, val_idx, test_idx)]
            want = [0.6 * total, 0.2 * total, 0.2 * total]
            assert all(abs(g - w) <= 1.0 for g, w in zip(got, want))

    def test_partitions_disjoint_exhaustive(self):
        labels = np.array([0, 1, 2] * 20)
        parts = stratified_split(labels, (0.7, 0.15, 0.15), seed=3)
        merged = np.concatenate(parts)
        assert sorted(merged) == list(range(60))

    def test_all_train(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        train_idx, val_idx, test_idx = stratified_split(
            labels, (1.0, 0.0, 0.0), seed=0)
        assert len(train_idx) == 6
        assert len(val_idx) == 0 and len(test_idx) == 0

    def test_deterministic(self):
        labels = np.array([0, 1, 2] * 10)
        a = stratified_split(labels, (0.7, 0.15, 0.15), seed=9)
        b = stratified_split(labels, (0.7, 0.15, 0.15), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_tiny_class_rejected(self):
        labels = np.array([0] * 10 + [1])
        with pytest.raises(StratificationError):
            stratified_split(labels, (0.4, 0.3, 0.3), seed=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1]), (0.5, 0.2, 0.2), seed=0)

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(2, 40), min_size=1, max_size=4),
           vf=st.floats(0.01, 0.5), seed=st.integers(0, 2**16))
    def test_two_way_split_is_three_way_without_its_empty_part(
            self, counts, vf, seed):
        # training splits two ways; a three-way split with an empty third
        # part must give the same rows
        labels = np.repeat(np.arange(len(counts)), counts)
        two = stratified_split(labels, (1.0 - vf, vf), seed=seed)
        three = stratified_split(labels, (1.0 - vf, vf, 0.0), seed=seed)
        assert len(three[2]) == 0
        assert all(np.array_equal(a, b) for a, b in zip(two, three[:2]))


class TestTrain:
    def test_learns_separable_blobs(self):
        data = blob_dataset()
        mc = ModelConfig(seq_len=1, feat_dim=12, hidden_size=16,
                         n_classes=3, seed=0)
        tc = TrainConfig(epochs=60, batch_size=16, learning_rate=0.01,
                         seed=0)
        model, history = train(data, mc, tc)
        assert history[-1]["train_acc"] >= 0.99

    def test_zero_learning_rate_freezes(self):
        data = blob_dataset(n_per_class=10)
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=1)
        initial = init_gru(mc)
        tc = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=1)
        model, history = train(data, mc, tc)
        assert np.array_equal(flatten_params(model), flatten_params(initial))
        accs = [row["train_acc"] for row in history]
        assert len(set(accs)) == 1

    def test_bit_reproducible(self):
        data = blob_dataset(n_per_class=12)
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=4)
        tc = TrainConfig(epochs=4, batch_size=8, seed=4)
        a, _ = train(data, mc, tc)
        b, _ = train(data, mc, tc)
        assert np.array_equal(flatten_params(a), flatten_params(b))

    def test_history_schema(self):
        data = blob_dataset(n_per_class=10)
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=0)
        tc = TrainConfig(epochs=2, batch_size=8, seed=0)
        _, history = train(data, mc, tc)
        assert len(history) == 2
        assert set(history[0]) == {"epoch", "train_loss", "train_acc",
                                   "val_loss", "val_acc"}

    def test_missing_class_rejected(self):
        data = blob_dataset(n_per_class=10)
        rows = data.rows[data.rows.shape[0] // 3:]
        labels = data.labels[len(data.labels) // 3:]  # class 0 dropped
        partial = FeatureMatrix(rows=rows, feature_names=data.feature_names,
                                labels=labels)
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=0)
        with pytest.raises(StratificationError):
            train(partial, mc, TrainConfig(epochs=1, seed=0))


@pytest.mark.parametrize("kind", ["gru", "linear"])
def test_empty_validation_split_names_val_fraction(kind):
    # 10 rows per class at val_fraction 0.05 split as [30, 0, 0]
    data = blob_dataset(n_per_class=10)
    tc = TrainConfig(epochs=1, val_fraction=0.05, seed=0)
    with pytest.raises(StratificationError) as err:
        if kind == "linear":
            train_linear_baseline(data, tc)
        else:
            train(data, ModelConfig.for_features(12, 3, seed=0), tc)
    msg = str(err.value)
    assert "val_fraction 0.05" in msg
    assert "30 training and 0 validation" in msg
    assert "smallest class: 10" in msg


@pytest.mark.parametrize("kind", ["gru", "linear"])
def test_history_rows_are_predict_proba_over_full_splits(kind):
    # shuffles are seeded per epoch, so the k-epoch model is the 3-epoch
    # run's model after epoch k - 1
    data = blob_dataset(n_per_class=14, spread=1.5)
    y = np.asarray(data.labels)

    def fit(epochs):
        tc = TrainConfig(epochs=epochs, batch_size=8, seed=6)
        if kind == "linear":
            return train_linear_baseline(data, tc)
        return train(data, ModelConfig.for_features(12, 3, hidden_size=8,
                                                    seed=6), tc)

    _, history = fit(3)
    vf = TrainConfig().val_fraction
    splits = dict(zip(("train", "val"), stratified_split(
        y, (1.0 - vf, vf), seed=6)))
    for k in (1, 2, 3):
        model, _ = fit(k)
        for split, idx in splits.items():
            probs = model.predict_proba(data.rows[idx])
            loss, _ = _cross_entropy(probs, y[idx])
            acc = float(np.mean(probs.argmax(axis=1) == y[idx]))
            assert history[k - 1][f"{split}_loss"] == loss
            assert history[k - 1][f"{split}_acc"] == acc


_TRAIN_SETUP = """
import numpy as np
from eegscrub import FeatureMatrix, rng_stream
from eegscrub import gru

def table(n, seed):
    rng = rng_stream(seed, "gru-train-rss")
    labels = np.arange(n) % 3
    rows = rng.normal(size=(n, 2548))
    rows[:, :3] += 2.0 * (labels[:, None] == np.arange(3))
    names = [f"f{i}" for i in range(2548)]
    return FeatureMatrix(rows=rows, feature_names=names, labels=labels.tolist())

def fit_and_predict(data):
    mc = gru.ModelConfig.for_features(2548, 3, hidden_size=64)
    model, _ = gru.train(data, mc, gru.TrainConfig(epochs=1))
    model.predict_proba(data.rows)

fit_and_predict(table(60, 0))  # BLAS buffers on first use
data = table(1000, 1)
"""


def test_training_holds_one_normalized_copy():
    # a 1000 x 2548 table is 19.4 MiB: the normalized training rows, their
    # padded sequences and the validation rows fit in 2 copies of it
    input_mib = 1000 * 2548 * 8 / 2.0**20
    assert peak_rise_mib(_TRAIN_SETUP, "fit_and_predict(data)") <= (
        2.0 * input_mib + 16.0)


_PREDICT_SETUP = _TRAIN_SETUP + """
mc = gru.ModelConfig.for_features(2548, 3, hidden_size=64)
model, _ = gru.train(table(60, 2), mc, gru.TrainConfig(epochs=1))
gru.evaluate(model, table(60, 3))  # buffers on first use
"""


@pytest.mark.parametrize("step", ["model.predict_proba(data.rows)",
                                  "gru.evaluate(model, data)"])
def test_prediction_holds_no_scaled_copy_of_the_table(step):
    # the 1000 x 2548 table (19.4 MiB) is read one step at a time: the
    # hidden states (7.8 MiB) and one step's inputs are what remain
    input_mib = 1000 * 2548 * 8 / 2.0**20
    assert peak_rise_mib(_PREDICT_SETUP, step) <= 0.8 * input_mib


class TestLinearBaseline:
    def test_learns_separable_blobs(self):
        data = blob_dataset()
        tc = TrainConfig(epochs=80, batch_size=16, learning_rate=0.05,
                         seed=0)
        model, history = train_linear_baseline(data, tc)
        assert history[-1]["train_acc"] >= 0.99

    def test_initial_loss_ln3(self):
        data = blob_dataset(n_per_class=10)
        tc = TrainConfig(epochs=1, batch_size=8, learning_rate=0.0, seed=0)
        _, history = train_linear_baseline(data, tc)
        assert history[0]["train_loss"] == pytest.approx(np.log(3.0),
                                                         abs=1e-9)

    def test_deterministic(self):
        data = blob_dataset(n_per_class=10)
        tc = TrainConfig(epochs=3, batch_size=8, seed=5)
        a, _ = train_linear_baseline(data, tc)
        b, _ = train_linear_baseline(data, tc)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


class TestEvaluate:
    def eval_with_fixed_predictions(self, truths, preds, c=3):
        class Stub:
            def predict_proba(self, rows):
                probs = np.full((len(rows), c), 1e-6)
                for i, p in enumerate(preds):
                    probs[i, p] = 1.0
                return probs / probs.sum(axis=1, keepdims=True)

        rows = np.zeros((len(truths), 2))
        data = FeatureMatrix(rows=rows, feature_names=("a", "b"),
                             labels=tuple(truths))
        return evaluate(Stub(), data)

    def test_perfect_predictions(self):
        result = self.eval_with_fixed_predictions([0, 1, 2], [0, 1, 2])
        assert result["accuracy"] == 1.0
        assert result["f1"] == (1.0, 1.0, 1.0)
        counts = result["confusion"]
        assert np.array_equal(counts, np.eye(3, dtype=int))

    def test_hand_count_case(self):
        result = self.eval_with_fixed_predictions([0, 0, 1, 2],
                                                  [0, 1, 1, 2])
        assert result["accuracy"] == 0.75
        assert result["precision"][1] == 0.5
        assert result["recall"][1] == 1.0

    def test_degenerate_all_one_class(self):
        result = self.eval_with_fixed_predictions([0, 1, 2], [0, 0, 0])
        assert result["accuracy"] == pytest.approx(1.0 / 3.0)
        assert result["recall"][0] == 1.0
        assert result["precision"][1] == 0.0
        assert result["flags"]["precision"][1] is True

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_classes_refused(self, label):
        with pytest.raises(DataFormatError, match=f"label {label} is outside "
                                                  r"the model's classes \[0, 3\)"):
            self.eval_with_fixed_predictions([0, label, 2], [0, 1, 2])

    def test_relabel_invariance(self):
        base = self.eval_with_fixed_predictions([0, 0, 1, 2], [0, 1, 1, 2])
        perm = {0: 2, 1: 0, 2: 1}
        swapped = self.eval_with_fixed_predictions(
            [perm[v] for v in [0, 0, 1, 2]],
            [perm[v] for v in [0, 1, 1, 2]],
        )
        assert swapped["accuracy"] == base["accuracy"]
        for cls in range(3):
            assert swapped["f1"][perm[cls]] == base["f1"][cls]


class TestSerialization:
    @staticmethod
    def trained(kind):
        data = blob_dataset(n_per_class=10)
        tc = TrainConfig(epochs=2, batch_size=8, seed=2)
        if kind == "linear":
            return train_linear_baseline(data, tc)[0]
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=2)
        return train(data, mc, tc)[0]

    def test_gru_round_trip(self, tmp_path):
        data = blob_dataset(n_per_class=10)
        mc = ModelConfig.for_features(12, 3, hidden_size=8, seed=2)
        tc = TrainConfig(epochs=2, batch_size=8, seed=2)
        model, _ = train(data, mc, tc)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(flatten_params(model), flatten_params(loaded))
        probs_a = model.predict_proba(data.rows[:5])
        probs_b = loaded.predict_proba(data.rows[:5])
        assert np.array_equal(probs_a, probs_b)

    def test_linear_round_trip(self, tmp_path):
        data = blob_dataset(n_per_class=10)
        tc = TrainConfig(epochs=2, batch_size=8, seed=2)
        model, _ = train_linear_baseline(data, tc)
        path = tmp_path / "linear.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.w, loaded.w)
        assert np.array_equal(model.b, loaded.b)
        assert np.array_equal(model.norm.loc, loaded.norm.loc)
        assert np.array_equal(model.norm.scale, loaded.norm.scale)

    @pytest.mark.parametrize("kind", ["gru", "linear"])
    def test_save_load_save_byte_identical(self, tmp_path, kind):
        model = self.trained(kind)
        assert model.norm is not None
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("kind", ["gru", "linear"])
    def test_extra_manifest_array_ignored(self, tmp_path, kind):
        model = self.trained(kind)
        path = tmp_path / "model.bin"
        save_model(model, path)
        header_line, blobs = path.read_bytes()[len(MODEL_MAGIC):].split(
            b"\n", 1)
        header = json.loads(header_line)
        header["manifest"].insert(0, ["extra", [2]])
        path.write_bytes(
            MODEL_MAGIC + (json.dumps(header) + "\n").encode("utf-8")
            + np.array([1.0, 2.0], dtype="<f8").tobytes() + blobs)
        loaded = load_model(path)
        rows = blob_dataset(n_per_class=10).rows[:5]
        assert np.array_equal(loaded.predict_proba(rows),
                              model.predict_proba(rows))

    @pytest.mark.parametrize("kind,name,bad", [
        ("gru", "wz", np.zeros((2, 4))),
        ("gru", "uh", np.zeros((8, 7))),
        ("gru", "br", np.zeros(7)),
        ("gru", "w_out", np.zeros((3, 127))),
        ("gru", "b_out", np.zeros(2)),
        ("linear", "w", np.zeros((2, 12))),
        ("linear", "w", np.zeros(36)),
        ("linear", "b", np.zeros(4)),
    ])
    def test_array_shape_checked_against_config(self, tmp_path, kind, name,
                                                bad):
        path = tmp_path / "model.bin"
        save_model(replace(self.trained(kind), **{name: bad}), path)
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(path) in str(info.value)
        assert f"array {name!r} has shape {list(bad.shape)}" in str(info.value)

    @pytest.mark.parametrize("kind,n_loc,n_scale", [
        ("gru", 12, 11), ("gru", 17, 17), ("linear", 11, 11),
        ("linear", 12, 13),
    ])
    def test_norm_length_checked(self, tmp_path, kind, n_loc, n_scale):
        model = self.trained(kind)  # 12 features; the GRU holds 16
        norm = NormStats(np.zeros(n_loc), np.ones(n_scale))
        path = tmp_path / "model.bin"
        save_model(replace(model, norm=norm), path)
        with pytest.raises(DataFormatError, match="norm_loc and norm_scale"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["gru", "linear"])
    @pytest.mark.parametrize("name", ["norm_loc", "norm_scale"])
    def test_norm_arrays_held_together(self, tmp_path, kind, name):
        # a file holding one of the pair must not load as an unscaled model
        path = tmp_path / "model.bin"
        save_model(self.trained(kind), path)
        header_line, blobs = path.read_bytes()[len(MODEL_MAGIC):].split(
            b"\n", 1)
        header = json.loads(header_line)
        kept, offset = [], 0
        for entry in list(header["manifest"]):
            size = 8 * int(np.prod(entry[1]))
            if entry[0] == name:
                header["manifest"].remove(entry)
            else:
                kept.append(blobs[offset:offset + size])
            offset += size
        path.write_bytes(MODEL_MAGIC + (json.dumps(header) + "\n").encode()
                         + b"".join(kept))
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: model header lacks {name}"

    def test_invalid_config_is_data_error(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(self.trained("gru"), path)
        header_line, blobs = path.read_bytes()[len(MODEL_MAGIC):].split(
            b"\n", 1)
        header = json.loads(header_line)
        header["config"]["n_classes"] = 1
        path.write_bytes(MODEL_MAGIC + (json.dumps(header) + "\n").encode()
                         + blobs)
        with pytest.raises(DataFormatError, match="n_classes"):
            load_model(path)

    def test_other_norm_mode_is_data_error(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(self.trained("linear"), path)
        header_line, blobs = path.read_bytes()[len(MODEL_MAGIC):].split(
            b"\n", 1)
        header = json.loads(header_line)
        assert header["config"]["norm_mode"] == "zscore"
        header["config"]["norm_mode"] = "minmax"
        path.write_bytes(MODEL_MAGIC + (json.dumps(header) + "\n").encode()
                         + blobs)
        with pytest.raises(DataFormatError, match="norm_mode 'minmax'") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model at all")
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        data = blob_dataset(n_per_class=10)
        tc = TrainConfig(epochs=1, batch_size=8, seed=2)
        model, _ = train_linear_baseline(data, tc)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DataFormatError):
            load_model(path)
