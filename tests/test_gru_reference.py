"""The GRU's buffered forward pass and in-place training inputs against
copies of the allocating code they replaced: hidden states, probabilities,
kept gates, trained model bytes and history must match bit for bit.

Each product keeps its shape and operands, because BLAS results depend on
them: one (B*T x F) input product instead of T (B x F) ones changes bits at
most shapes, so none of these cases may change a product.
"""

from dataclasses import replace

import numpy as np
import pytest

from eegscrub import FeatureMatrix, NormStats, rng_stream
from eegscrub import gru
from eegscrub.gru import (LinearModel, ModelConfig, TrainConfig, init_gru,
                          save_model)

BATCHES = (1, 2, 7, 32, 33, 300)
HIDDEN = (1, 16, 64)
FEATURES = (40, 48)  # 3 columns a step: 40 pads the last step, 48 does not


def reference_sigmoid(x):
    e = np.exp(np.minimum(x, -x))  # -|x|, keeping a NaN's sign bit
    return np.where(x >= 0, 1.0, e) / (e + 1.0)


def reference_forward_batch(model, seqs, keep=False):
    """The forward pass as it was: fresh arrays at every step."""
    b, t_steps, _ = seqs.shape
    hidden = model.wz.shape[0]
    w3 = np.concatenate((model.wz, model.wr, model.wh)).T
    u2 = np.concatenate((model.uz, model.ur)).T
    b2 = np.concatenate((model.bz, model.br))
    h = np.zeros((b, hidden))
    hs = np.empty((b, t_steps, hidden))
    gates = np.empty((b, t_steps, 3 * hidden)) if keep else None
    for t in range(t_steps):
        xw = seqs[:, t, :] @ w3
        zr = reference_sigmoid(xw[:, : 2 * hidden] + h @ u2 + b2)
        z, r = zr[:, :hidden], zr[:, hidden:]
        cand = np.tanh(xw[:, 2 * hidden :] + (r * h) @ model.uh.T + model.bh)
        h = (1.0 - z) * h + z * cand
        hs[:, t, :] = h
        if keep:
            gates[:, t, : 2 * hidden] = zr
            gates[:, t, 2 * hidden :] = cand
    probs = gru._softmax(hs.reshape(b, -1) @ model.w_out.T + model.b_out)
    return hs, probs, gates


def padded_sequences(x, config):
    """Rows as (B, T, F) sequences, the tail past the features zero."""
    width = config.seq_len * config.feat_dim
    return np.pad(x, ((0, 0), (0, width - x.shape[1]))).reshape(
        len(x), config.seq_len, config.feat_dim)


def reference_inputs(model, x):
    """A split's scaled model input as it was made: from a copy of its rows."""
    if isinstance(model, LinearModel):
        return model.norm.apply_in_place(x.copy())
    seqs = padded_sequences(x, model.config)
    model.norm.apply_in_place(seqs.reshape(len(x), -1)[:, : x.shape[1]])
    return seqs


def reference_fit(dataset, tc, model):
    """``gru._fit`` as it was: rows copied per split, stats from the copy."""
    rows, y = dataset.rows, np.asarray(dataset.labels)
    train_idx, val_idx = gru.stratified_split(
        y, (1.0 - tc.val_fraction, tc.val_fraction), seed=tc.seed)
    x_train = rows[train_idx]
    scale = x_train.std(axis=0)
    model = replace(model, norm=NormStats(
        x_train.mean(axis=0), np.where(scale == 0.0, 1.0, scale)))
    inputs = reference_inputs(model, x_train)
    val_inputs = reference_inputs(model, rows[val_idx])
    y_train, y_val = y[train_idx], y[val_idx]
    adam = gru._Adam(tc.learning_rate)
    history = []
    for epoch in range(tc.epochs):
        order = rng_stream(tc.seed, f"shuffle:{epoch}").permutation(
            len(y_train))
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            _, grads = model._loss_and_grad(inputs[batch], y_train[batch], tc)
            model = replace(model, **adam.step(model, grads))
        train_loss, train_acc = gru._epoch_stats(model._probs(inputs), y_train)
        val_loss, val_acc = gru._epoch_stats(model._probs(val_inputs), y_val)
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "train_acc": train_acc, "val_loss": val_loss,
                        "val_acc": val_acc})
    return model, history


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def model_bytes(model, path) -> bytes:
    save_model(model, path)
    return path.read_bytes()


def table(n_rows, n_features, seed=0) -> FeatureMatrix:
    """Three planted classes, columns of unlike scales and one constant."""
    rng = rng_stream(seed, "gru-reference")
    labels = np.arange(n_rows) % 3
    rows = rng.normal(size=(n_rows, n_features))
    rows[:, :3] += 1.5 * (labels[:, None] == np.arange(3))
    rows *= 10.0 ** rng.uniform(-3, 3, size=n_features)
    rows[:, -1] = 7.25
    return FeatureMatrix(rows, [f"f{i}" for i in range(n_features)],
                         labels.tolist())


@pytest.mark.parametrize("n_features", FEATURES)
@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.parametrize("b", BATCHES)
def test_forward_matches_reference(b, hidden, n_features):
    mc = ModelConfig.for_features(n_features, 3, hidden_size=hidden,
                                  seed=b + hidden)
    model = init_gru(mc)
    # trained-looking weights: larger than the init, nonzero biases
    rng = rng_stream(hidden, "gru-reference-weights")
    model = replace(model, **{n: 3.0 * rng.normal(size=getattr(model, n).shape)
                              for n in gru.GATE_PARAM_NAMES})
    seqs = padded_sequences(
        rng_stream(b, "gru-reference-rows").normal(0.0, 2.0, (b, n_features)),
        mc)
    for keep in (False, True):
        got = gru._forward_batch(model, seqs, keep=keep)
        want = reference_forward_batch(model, seqs, keep=keep)
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])
        assert (got[2] is None) if not keep else same_bits(got[2], want[2])


@pytest.mark.parametrize("n_features", FEATURES)
@pytest.mark.parametrize("hidden", HIDDEN)
def test_gru_training_matches_reference(monkeypatch, tmp_path, hidden,
                                        n_features):
    data = table(120, n_features)
    mc = ModelConfig.for_features(n_features, 3, hidden_size=hidden)
    tc = TrainConfig(epochs=2, batch_size=33, learning_rate=0.01)
    got, got_history = gru.train(data, mc, tc)
    monkeypatch.setattr(gru, "_forward_batch", reference_forward_batch)
    want, want_history = reference_fit(data, tc, init_gru(mc))
    path = tmp_path / "model"
    assert model_bytes(got, path) == model_bytes(want, path)
    assert got_history == want_history


@pytest.mark.parametrize("n_features", FEATURES)
@pytest.mark.parametrize("batch_size", (1, 7, 32))
def test_linear_training_matches_reference(tmp_path, batch_size,
                                           n_features):
    data = table(90, n_features)
    tc = TrainConfig(epochs=2, batch_size=batch_size, learning_rate=0.05)
    got, got_history = gru.train_linear_baseline(data, tc)
    want, want_history = reference_fit(
        data, tc, LinearModel(3, np.zeros((3, n_features)), np.zeros(3)))
    path = tmp_path / "model"
    assert model_bytes(got, path) == model_bytes(want, path)
    assert got_history == want_history


@pytest.mark.parametrize("n_rows,n_cols", [
    (1, 1), (1, 5), (2, 2), (17, 1), (100, 3), (1812, 2548),
    # at most two columns fit one block: blocks of 2, then a lone column
    (70000, 3), (40000, 5),
])
def test_norm_stats_match_numpy_mean_and_std(n_rows, n_cols):
    rng = rng_stream(n_rows * n_cols, "gru-reference-norm")
    cols = (rng.normal(size=(n_rows, n_cols))
            * 10.0 ** rng.uniform(-5, 5, size=n_cols) + 3.0)
    padded = np.zeros((n_rows, n_cols + 5))  # as in a padded GRU input
    padded[:, :n_cols] = cols
    scale = cols.std(axis=0)
    for view in (cols, padded[:, :n_cols]):
        stats = NormStats.of(view)
        assert same_bits(stats.loc, cols.mean(axis=0))
        assert same_bits(stats.scale, np.where(scale == 0.0, 1.0, scale))
