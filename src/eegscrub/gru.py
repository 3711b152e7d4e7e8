"""From-scratch GRU classifier: forward pass, BPTT, Adam, and evaluation.

The model stack is GRU -> flatten(all hidden steps) -> dense -> softmax. Gate
convention is pinned to h' = (1-z)*h + z*h_cand so the zero-weight network
produces exactly-zero hidden states. Flat feature vectors are reshaped into
16-step sequences, zero-padded on the right.

The model holds one scaled copy of rows, of its training split, which every
batch reads. Validation and ``predict_proba`` (so ``evaluate``) read the
caller's table one sequence step at a time, through one (rows x F) buffer.

No learning framework is used anywhere; every gradient is derived by hand and
checked against finite differences in the test suite.
"""

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .core import _BLOCK_BYTES, NormStats
from .errors import (DataFormatError, DivergenceError, NumericDegeneracyError,
                     StratificationError)
from .features import FeatureMatrix
from .rng import rng_stream

SEQ_LEN = 16
MODEL_MAGIC = b"EEGSCRUB-MODEL\n"
MODEL_FORMAT_VERSION = 1
NORM_MODE = "zscore"  # the one normalization a model file may name

GATE_PARAM_NAMES = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")
ADAM_DECAYS = (0.9, 0.999)  # first- and second-moment decay rates
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    seq_len: int
    feat_dim: int
    hidden_size: int
    n_classes: int
    seed: int = 0

    def __post_init__(self):
        if self.seq_len < 1 or self.feat_dim < 1 or self.hidden_size < 1:
            raise ValueError("seq_len, feat_dim, hidden_size must be >= 1")
        if self.n_classes < 2:
            raise ValueError(f"need n_classes >= 2, got {self.n_classes}")

    @classmethod
    def for_features(cls, n_features: int, n_classes: int,
                     hidden_size: int = 64, seed: int = 0) -> "ModelConfig":
        """Reshape rule for flat vectors: 16 steps, zero-padded."""
        feat_dim = max(1, math.ceil(n_features / SEQ_LEN))
        return cls(seq_len=SEQ_LEN, feat_dim=feat_dim,
                   hidden_size=hidden_size, n_classes=n_classes, seed=seed)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    val_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not self.grad_clip > 0:
            raise ValueError("grad_clip must be positive")
        if not 0.0 < self.val_fraction <= 0.5:
            raise ValueError(
                f"val_fraction must be in (0, 0.5], got {self.val_fraction}"
            )


class _Classifier:
    """Rows in, class probabilities out: the part both models share."""

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        """Class probabilities of each row. The GRU reads ``rows`` one step
        at a time and makes no scaled copy of them: the one scaled copy a
        model holds is of its training split, while it trains. The linear
        model scales one copy of ``rows``."""
        return self._probs(self._reader(rows))

    def _reader(self, rows, idx=None):
        """What ``_probs`` reads for ``rows`` (``rows[idx]`` given ``idx``);
        unless a model reads them another way, its ``_inputs`` copy."""
        return self._inputs(rows, idx)

    def _inputs(self, rows, idx=None) -> np.ndarray:
        """``rows`` (``rows[idx]`` given ``idx``) copied into the buffer the
        model reads, at most ``_BLOCK_BYTES`` at a time, and scaled there. A
        scaled value that is not finite is a ``NumericDegeneracyError``
        naming its feature column."""
        rows = _checked_rows(rows, self.norm)
        n = len(rows) if idx is None else len(idx)
        inputs, cols = self._buffer(n, rows.shape[1])
        step = max(1, _BLOCK_BYTES // (cols.shape[1] * cols.itemsize))
        for start in range(0, n, step):
            part = slice(start, start + step)
            cols[part] = rows[part] if idx is None else rows[idx[part]]
            if self.norm is not None:  # inside the one copy
                _scale_checked(cols[part], self.norm)
        return inputs


@dataclass(frozen=True)
class GruModel(_Classifier):
    """Update (z), reset (r) and candidate (h) gate weights, then the dense
    output layer."""

    config: ModelConfig
    wz: np.ndarray
    uz: np.ndarray
    bz: np.ndarray
    wr: np.ndarray
    ur: np.ndarray
    br: np.ndarray
    wh: np.ndarray
    uh: np.ndarray
    bh: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    norm: NormStats | None = None

    @property
    def n_classes(self) -> int:
        return self.config.n_classes

    def _buffer(self, n_rows: int, n_features: int) -> tuple:
        return _sequence_buffer(n_rows, n_features, self.config)

    def _reader(self, rows, idx=None) -> "_Steps":
        return _Steps(_checked_rows(rows, self.norm), idx, self.norm,
                      self.config)

    def _probs(self, seqs: np.ndarray) -> np.ndarray:
        return _forward_batch(self, seqs)[1]

    def _loss_and_grad(self, seqs, y, tc: TrainConfig) -> tuple:
        return loss_and_grad(self, seqs, y, grad_clip=tc.grad_clip)


@dataclass(frozen=True)
class LinearModel(_Classifier):
    n_classes: int
    w: np.ndarray
    b: np.ndarray
    norm: NormStats | None = None

    def _buffer(self, n_rows: int, n_features: int) -> tuple:
        x = np.empty((n_rows, n_features))
        return x, x

    def _probs(self, x: np.ndarray) -> np.ndarray:
        return _softmax(x @ self.w.T + self.b)

    def _loss_and_grad(self, x, y, tc: TrainConfig) -> tuple:
        loss, dlogits = _cross_entropy(self._probs(x), y)
        return loss, {"w": dlogits.T @ x, "b": dlogits.sum(axis=0)}


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(min(x, 0)) / (exp(min(x, -x)) + 1): no exponential overflows.

    Given ``out``, the result goes there and ``x`` is overwritten."""
    if out is None:
        x, out = x.copy(), np.empty_like(x)
    np.minimum(x, np.negative(x, out=out), out=out)  # -|x|, NaN keeps its sign
    np.exp(out, out=out)
    out += 1.0
    np.exp(np.minimum(x, 0.0, out=x), out=x)
    return np.divide(x, out, out=out)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> tuple:
    """Mean cross-entropy of labels ``y`` and its gradient in the logits.

    Probabilities are floored at 1e-300, so a label whose probability
    underflows to 0 costs 690.8 rather than inf.
    """
    rows = np.arange(len(y))
    loss = float(-np.mean(np.log(np.maximum(probs[rows, y], 1e-300))))
    dlogits = probs.copy()
    dlogits[rows, y] -= 1.0
    dlogits /= len(y)
    return loss, dlogits


def _checked_rows(rows, norm: NormStats | None) -> np.ndarray:
    """Rows as a 2-D float array, at least one, as wide as the model's
    normalization."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if not len(rows):
        width = "" if norm is None else f" of {len(norm.loc)} features"
        raise DataFormatError(f"the table has 0 rows; the model needs at "
                              f"least 1 row{width}")
    if norm is not None and rows.shape[1] != len(norm.loc):
        raise DataFormatError(
            f"the table has {rows.shape[1]} features, but the model was "
            f"trained on {len(norm.loc)}"
        )
    return rows


def _scale_checked(cols: np.ndarray, norm: NormStats, start: int = 0):
    """Scale ``cols``, feature columns ``start`` onward, in place; a value
    that scales to one that is not finite is a ``NumericDegeneracyError``
    naming its feature column."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm.apply_in_place(cols, start)
    bad = np.flatnonzero(~np.isfinite(cols).all(axis=0))
    if len(bad):
        j = start + bad[0]
        raise NumericDegeneracyError(
            f"feature column {j} scales to a value that is not finite, with "
            f"the model's mean {norm.loc[j]:g} and sigma {norm.scale[j]:g}")


def _padded_width(n_features: int, config: ModelConfig) -> int:
    """T*F, the flat width of a sequence, which ``n_features`` must fit."""
    want = config.seq_len * config.feat_dim
    if n_features > want:
        raise ValueError(
            f"{n_features} features exceed seq_len*feat_dim = {want}"
        )
    return want


def _sequence_buffer(n_rows: int, n_features: int,
                     config: ModelConfig) -> tuple:
    """Zeroed (n_rows, T, F) sequences and the view of their flat rows that
    holds the features; the tail past ``n_features`` stays zero padding."""
    padded = np.zeros((n_rows, _padded_width(n_features, config)))
    return (padded.reshape(n_rows, config.seq_len, config.feat_dim),
            padded[:, :n_features])


class _Steps:
    """``rows`` (``rows[idx]`` given ``idx``) as the read-only (n, T, F)
    sequences of ``_sequence_buffer``, scaled by ``norm``, read one step at
    a time: ``[:, t, :]`` gathers feature columns t*F to (t+1)*F into one
    reused (n, F) buffer, scales them there and zeroes the columns past the
    last feature. So reading a table needs (n, F) floats, not a scaled copy
    of it; the values are ``_inputs``' bits, and so are its refusals."""

    def __init__(self, rows: np.ndarray, idx, norm: NormStats | None,
                 config: ModelConfig):
        _padded_width(rows.shape[1], config)
        self._rows, self._idx, self._norm = rows, idx, norm
        n = len(rows) if idx is None else len(idx)
        self.shape = (n, config.seq_len, config.feat_dim)
        self._step = np.empty((n, config.feat_dim))

    def __getitem__(self, key) -> np.ndarray:
        _, t, _ = key  # [:, t, :], all that _forward_batch reads
        lo = t * self.shape[2]
        src = self._rows[:, lo : lo + self.shape[2]]  # empty in the padding
        cols = self._step[:, : src.shape[1]]
        # on a column slice, np.take(..., out=cols) is far slower than the
        # (n, F) temporary of fancy indexing
        cols[...] = src if self._idx is None else src[self._idx]
        if self._norm is not None:
            _scale_checked(cols, self._norm, lo)
        self._step[:, src.shape[1] :] = 0.0
        return self._step


def _gru_shapes(config: ModelConfig) -> dict:
    """Each GRU array's name and shape, in file order."""
    h, c = config.hidden_size, config.n_classes
    per_kind = {"w": (h, config.feat_dim), "u": (h, h), "b": (h,)}
    shapes = {name: per_kind[name[0]] for name in GATE_PARAM_NAMES}
    shapes.update(w_out=(c, config.seq_len * h), b_out=(c,))
    return shapes


def init_gru(config: ModelConfig) -> GruModel:
    """Xavier-uniform weights, zero biases, all draws from one seeded stream
    in file order."""
    rng = rng_stream(config.seed, "gru-init")

    def init(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        bound = math.sqrt(6.0 / sum(shape))
        return rng.uniform(-bound, bound, size=shape)

    return GruModel(config=config, **{name: init(shape) for name, shape
                                      in _gru_shapes(config).items()})


def _forward_batch(model: GruModel, seqs: np.ndarray, keep: bool = False):
    """Returns (hidden sequence B x T x H, probabilities B x C, gates): with
    ``keep``, z, r and the candidate side by side (B x T x 3H), else None."""
    b, t_steps, f = seqs.shape
    if t_steps != model.config.seq_len or f != model.config.feat_dim:
        raise ValueError(
            f"sequence shape {(t_steps, f)} does not match config "
            f"{(model.config.seq_len, model.config.feat_dim)}"
        )
    hidden = model.wz.shape[0]
    w3 = np.concatenate((model.wz, model.wr, model.wh)).T
    u2 = np.concatenate((model.uz, model.ur)).T
    b2 = np.concatenate((model.bz, model.br))
    hs = np.empty((b, t_steps, hidden))
    gates = np.empty((b, t_steps, 3 * hidden)) if keep else None
    # every step's elementwise work lands in these, made once per call
    xw = np.empty((b, 3 * hidden))
    pre, zr = np.empty((b, 2 * hidden)), np.empty((b, 2 * hidden))
    h = np.zeros((b, hidden))
    cand, tmp = np.empty((b, hidden)), np.empty((b, hidden))
    z, r = zr[:, :hidden], zr[:, hidden:]
    for t in range(t_steps):
        np.matmul(seqs[:, t, :], w3, out=xw)
        np.add(xw[:, : 2 * hidden], np.matmul(h, u2, out=pre), out=pre)
        pre += b2
        _sigmoid(pre, out=zr)
        np.matmul(np.multiply(r, h, out=tmp), model.uh.T, out=cand)
        np.add(xw[:, 2 * hidden :], cand, out=cand)
        cand += model.bh
        np.tanh(cand, out=cand)
        if keep:
            gates[:, t, : 2 * hidden] = zr
            gates[:, t, 2 * hidden :] = cand
        # h = (1 - z) * h + z * cand
        np.multiply(np.subtract(1.0, z, out=tmp), h, out=tmp)
        np.add(tmp, np.multiply(z, cand, out=cand), out=h)
        hs[:, t, :] = h
    probs = _softmax(hs.reshape(b, -1) @ model.w_out.T + model.b_out)
    return hs, probs, gates


def forward(model: GruModel, seq: np.ndarray):
    """Single-sequence forward: (T x H hidden states, C probabilities)."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise ValueError(f"expected a T x F sequence, got shape {seq.shape}")
    hs, probs, _ = _forward_batch(model, seq[None, :, :])
    return hs[0], probs[0]


def loss_and_grad(model: GruModel, seqs: np.ndarray, labels: np.ndarray,
                  grad_clip: float | None = None):
    """Mean cross-entropy and full-BPTT gradients for every parameter."""
    seqs = np.asarray(seqs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(labels) == 0:
        raise ValueError("batch must be nonempty")
    c = model.config.n_classes
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(
            f"labels must be in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    hs, probs, gates = _forward_batch(model, seqs, keep=True)
    loss, dlogits = _cross_entropy(probs, labels)
    b, t_steps, hidden = hs.shape
    h_prev = np.concatenate((np.zeros((b, 1, hidden)), hs[:, :-1]), axis=1)
    z, r, cand = np.split(gates, 3, axis=2)
    u2 = np.concatenate((model.uz, model.ur))
    dh_seq = (dlogits @ model.w_out).reshape(hs.shape)
    dgates = np.empty_like(gates)
    dz, dr, dcand = np.split(dgates, 3, axis=2)
    dh_next = np.zeros((b, hidden))
    for t in range(t_steps - 1, -1, -1):
        dh = dh_seq[:, t] + dh_next
        dz[:, t] = dh * (cand[:, t] - h_prev[:, t]) * z[:, t] * (1.0 - z[:, t])
        dcand[:, t] = dh * z[:, t] * (1.0 - cand[:, t] ** 2)
        drh = dcand[:, t] @ model.uh
        dr[:, t] = drh * h_prev[:, t] * r[:, t] * (1.0 - r[:, t])
        dh_next = (dh * (1.0 - z[:, t]) + drh * r[:, t]
                   + dgates[:, t, : 2 * hidden] @ u2)

    # one product per weight kind over all B*T steps
    dg = dgates.reshape(b * t_steps, 3 * hidden).T
    dw = dg @ seqs.reshape(b * t_steps, -1)
    du = dg[: 2 * hidden] @ h_prev.reshape(b * t_steps, hidden)
    duh = dg[2 * hidden :] @ (r * h_prev).reshape(b * t_steps, hidden)
    db = dg.sum(axis=1)
    grads = {"w_out": dlogits.T @ hs.reshape(b, -1),
             "b_out": dlogits.sum(axis=0)}
    for i, gate in enumerate("zrh"):
        part = slice(i * hidden, (i + 1) * hidden)
        grads["w" + gate] = dw[part]
        grads["u" + gate] = duh if gate == "h" else du[part]
        grads["b" + gate] = db[part]

    if grad_clip is not None:
        norm = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        if norm > grad_clip:
            scale = grad_clip / norm
            grads = {k: g * scale for k, g in grads.items()}
    return loss, grads


class _Adam:
    def __init__(self, learning_rate: float):
        self.lr, self.m, self.v, self.t = learning_rate, {}, {}, 0

    def step(self, model, grads: dict) -> dict:
        """New values of the parameters named in ``grads``."""
        d1, d2 = ADAM_DECAYS
        self.t += 1
        out = {}
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] *= d1
            self.m[name] += (1 - d1) * g
            self.v[name] *= d2
            self.v[name] += (1 - d2) * g**2
            m_hat = self.m[name] / (1 - d1**self.t)
            v_hat = self.v[name] / (1 - d2**self.t)
            out[name] = getattr(model, name) - self.lr * m_hat / (
                np.sqrt(v_hat) + ADAM_EPS)
        return out


def stratified_split(labels, fractions, seed: int = 0) -> tuple:
    """Per-class largest-remainder allocation into disjoint index sets."""
    labels = np.asarray(labels, dtype=int)
    fractions = tuple(float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ValueError(f"fractions must be nonnegative, got {fractions}")
    n_parts = len(fractions)
    n_positive = sum(1 for f in fractions if f > 0)
    parts = [[] for _ in range(n_parts)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < n_positive:
            raise StratificationError(
                f"class {cls} has {len(idx)} samples for "
                f"{n_positive} nonempty partitions"
            )
        idx = idx[rng_stream(seed, f"split:{cls}").permutation(len(idx))]
        targets = [f * len(idx) for f in fractions]
        counts = [int(math.floor(t)) for t in targets]
        short = len(idx) - sum(counts)
        remainders = sorted(
            range(n_parts), key=lambda i: (targets[i] - counts[i]), reverse=True
        )
        for i in remainders[:short]:
            counts[i] += 1
        start = 0
        for part, count in zip(parts, counts):
            part.extend(idx[start : start + count].tolist())
            start += count
    return tuple(np.asarray(sorted(p), dtype=int) for p in parts)


def _dataset_arrays(dataset: FeatureMatrix):
    if dataset.labels is None:
        raise ValueError("training requires a labeled FeatureMatrix")
    return dataset.rows, np.asarray(dataset.labels, dtype=int)


def _epoch_stats(probs: np.ndarray, y: np.ndarray) -> tuple:
    loss, _ = _cross_entropy(probs, y)
    return loss, float(np.mean(probs.argmax(axis=1) == y))


def _fit(dataset: FeatureMatrix, tc: TrainConfig, model) -> tuple:
    """The shared Adam loop: split, normalize, shuffle, step, history.

    ``model`` is the untrained ``GruModel`` or ``LinearModel``; it gets the
    training split's normalization. The model holds one scaled copy of
    rows, of its training split, which every batch reads: ``model._inputs``
    gathers the split into the buffer the model reads and scales it there.
    The validation split is read as ``predict_proba`` reads a table, through
    ``model._reader``, so each history row equals ``predict_proba`` of that
    epoch's model over the full split. An epoch whose loss or weights are
    not finite is a ``DivergenceError``.
    """
    rows, y = _dataset_arrays(dataset)
    missing = sorted(set(range(model.n_classes)) - set(np.unique(y).tolist()))
    if missing:
        raise StratificationError(
            f"classes {missing} absent from the training data")
    train_idx, val_idx = stratified_split(
        y, (1.0 - tc.val_fraction, tc.val_fraction), seed=tc.seed)
    if len(val_idx) == 0:  # val_fraction <= 0.5 always leaves training rows
        raise StratificationError(
            f"val_fraction {tc.val_fraction} splits {len(y)} rows into "
            f"{len(train_idx)} training and {len(val_idx)} validation rows "
            f"(smallest class: {np.unique(y, return_counts=True)[1].min()})")

    inputs = model._inputs(rows, train_idx)  # unscaled: no norm yet
    # both buffers' flat rows begin with the features
    cols = inputs.reshape(len(train_idx), -1)[:, : rows.shape[1]]
    model = replace(model, norm=NormStats.of(cols, dataset.feature_names))
    model.norm.apply_in_place(cols)
    val_inputs = model._reader(rows, val_idx)
    y_train, y_val = y[train_idx], y[val_idx]
    adam = _Adam(tc.learning_rate)
    history = []
    for epoch in range(tc.epochs):
        order = rng_stream(tc.seed, f"shuffle:{epoch}").permutation(
            len(y_train)
        )
        with np.errstate(all="ignore"):  # a diverging run is checked below
            for start in range(0, len(order), tc.batch_size):
                batch = order[start : start + tc.batch_size]
                _, grads = model._loss_and_grad(inputs[batch], y_train[batch],
                                                tc)
                model = replace(model, **adam.step(model, grads))
            train_loss, train_acc = _epoch_stats(model._probs(inputs), y_train)
            val_loss, val_acc = _epoch_stats(model._probs(val_inputs), y_val)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)
                and all(np.isfinite(getattr(model, n)).all() for n in grads)):
            raise DivergenceError(
                f"training diverged in epoch {epoch}: training loss "
                f"{train_loss:g}, validation loss {val_loss:g} at learning "
                f"rate {tc.learning_rate:g}; try a smaller learning rate")
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "train_acc": train_acc, "val_loss": val_loss,
                        "val_acc": val_acc})
    return model, history


def train(dataset: FeatureMatrix, mc: ModelConfig, tc: TrainConfig) -> tuple:
    """Adam-trained GRU plus per-epoch history rows."""
    _, y = _dataset_arrays(dataset)
    if len(y) < mc.n_classes * 5:
        raise ValueError(
            f"need at least {mc.n_classes * 5} samples, got {len(y)}"
        )
    return _fit(dataset, tc, init_gru(mc))


def train_linear_baseline(dataset: FeatureMatrix, tc: TrainConfig,
                          n_classes: int = 3) -> tuple:
    """Softmax regression trained with the same loop; zero-weight init.

    The linear loop never clips its gradient; ``tc.grad_clip`` is unused.
    """
    model = LinearModel(n_classes=n_classes,
                        w=np.zeros((n_classes, dataset.rows.shape[1])),
                        b=np.zeros(n_classes))
    return _fit(dataset, tc, model)


def evaluate(model, dataset: FeatureMatrix) -> dict:
    """Accuracy, per-class precision/recall/F1, and the confusion counts:
    ``confusion[i, j]`` rows of true class i predicted as class j. A label
    outside the model's classes is a ``DataFormatError``."""
    rows, y = _dataset_arrays(dataset)
    probs = model.predict_proba(rows)  # refuses a table without rows
    predicted = probs.argmax(axis=1)
    c = probs.shape[1]
    outside = y[(y < 0) | (y >= c)]
    if len(outside):
        raise DataFormatError(
            f"label {outside[0]} is outside the model's classes [0, {c})")
    counts = np.zeros((c, c), dtype=int)
    np.add.at(counts, (y, predicted), 1)
    col, row, diag = counts.sum(axis=0), counts.sum(axis=1), counts.diagonal()
    precision = np.divide(diag, col, out=np.zeros(c), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(c), where=row > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(c), where=both > 0)
    flags = {"precision": (col == 0).tolist(), "recall": (row == 0).tolist(),
             "f1": (both == 0).tolist()}
    return {
        "accuracy": float(np.trace(counts) / counts.sum()),
        "precision": tuple(precision.tolist()),
        "recall": tuple(recall.tolist()),
        "f1": tuple(f1.tolist()),
        "flags": flags,
        "confusion": counts,
    }


def save_model(model, path) -> None:
    """Versioned binary container: JSON header + little-endian float64 blobs."""
    if isinstance(model, GruModel):
        kind, config = "gru", asdict(model.config)
    elif isinstance(model, LinearModel):
        kind, config = "linear", {"n_classes": model.n_classes}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays = {n: getattr(model, n) for n in _MODEL_LAYOUT[kind][1]}
    if model.norm is not None:
        arrays["norm_loc"] = np.asarray(model.norm.loc, dtype=float)
        arrays["norm_scale"] = np.asarray(model.norm.scale, dtype=float)
        config["norm_mode"] = NORM_MODE
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "manifest": [[n, list(arrays[n].shape)] for n in arrays],
    }
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in arrays:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


# per model kind: the integer config keys and the arrays a file must hold
_MODEL_LAYOUT = {
    "gru": (tuple(f.name for f in fields(ModelConfig)),
            GATE_PARAM_NAMES + ("w_out", "b_out")),
    "linear": (("n_classes",), ("w", "b")),
}


def _header_problem(header) -> str | None:
    """Why a model header cannot be loaded, or None when it can."""
    if not isinstance(header, dict):
        return "bad model header: not a JSON object"
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        return f"unsupported format version {header.get('format_version')}"
    if header.get("kind") not in _MODEL_LAYOUT:
        return f"unknown model kind {header.get('kind')!r}"
    config, manifest = header.get("config"), header.get("manifest")
    if not isinstance(config, dict) or not isinstance(manifest, list):
        return "bad model header: needs a 'config' object and a 'manifest' list"
    for entry in manifest:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], list)
                and all(isinstance(d, int) and d >= 0 for d in entry[1])):
            return f"bad manifest entry {entry!r}; want [name, [dims >= 0]]"
    if config.get("norm_mode", NORM_MODE) != NORM_MODE:
        return f"unsupported norm_mode {config['norm_mode']!r} (want {NORM_MODE!r})"
    keys, arrays = _MODEL_LAYOUT[header["kind"]]
    names = {name for name, _ in manifest}
    if names & {"norm_loc", "norm_scale"}:  # both or neither
        arrays += ("norm_loc", "norm_scale")
    missing = ([k for k in keys if not isinstance(config.get(k), int)]
               + [n for n in arrays if n not in names])
    return f"model header lacks {', '.join(missing)}" if missing else None


def _shape_problem(mc: ModelConfig | None, n_classes: int,
                   arrays: dict) -> str | None:
    """The first array whose shape or values do not fit the config, or None.

    ``mc`` is None for a linear model, whose feature count is ``w``'s width.
    """
    if mc is None:
        n = arrays["w"].shape[1] if arrays["w"].ndim == 2 else -1
        want = {"w": (n_classes, n), "b": (n_classes,)}
        widths = range(n, n + 1)
    else:
        want = _gru_shapes(mc)
        widths = range(1, mc.seq_len * mc.feat_dim + 1)
    for name, shape in want.items():
        if arrays[name].shape != shape:
            return (f"array {name!r} has shape {list(arrays[name].shape)}, "
                    f"the config wants {list(shape)}")
    loc, scale = arrays.get("norm_loc"), arrays.get("norm_scale")
    if loc is not None and not (loc.ndim == 1 and len(loc) in widths
                                and scale.shape == loc.shape):
        return (f"norm_loc and norm_scale have shapes {list(loc.shape)} and "
                f"{list(scale.shape)}; the model wants one length from "
                f"{widths.start} to {widths.stop - 1}")
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            return f"array {name!r} holds values that are not finite"
    if scale is not None and not (scale > 0).all():
        return "array 'norm_scale' holds a sigma <= 0"
    return None


def load_model(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise DataFormatError(f"{path}: not a model file")
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: bad model header: {exc}")
        problem = _header_problem(header)
        if problem:
            raise DataFormatError(f"{path}: {problem}")
        arrays = {}
        for name, shape in header["manifest"]:
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise DataFormatError(f"{path}: truncated array {name!r}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    kind = header["kind"]
    keys, names = _MODEL_LAYOUT[kind]
    config = {k: header["config"][k] for k in keys}
    try:
        mc = ModelConfig(**config) if kind == "gru" else None
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}")
    problem = _shape_problem(mc, config["n_classes"], arrays)
    if problem:
        raise DataFormatError(f"{path}: {problem}")
    norm = None
    if "norm_loc" in arrays:
        norm = NormStats(loc=arrays["norm_loc"], scale=arrays["norm_scale"])
    weights = {n: arrays[n] for n in names}
    if mc is not None:
        return GruModel(config=mc, **weights, norm=norm)
    return LinearModel(**config, **weights, norm=norm)
