"""From-scratch GRU classifier: forward pass, BPTT, Adam, and evaluation.

The model stack is GRU -> flatten(all hidden steps) -> dense -> softmax. Gate
convention is pinned to h' = (1-z)*h + z*h_cand so the zero-weight network
produces exactly-zero hidden states. Flat feature vectors are reshaped into
16-step sequences, zero-padded on the right.

No learning framework is used anywhere; every gradient is derived by hand and
checked against finite differences in the test suite.
"""

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import NormStats, normalize
from .errors import DataFormatError, StratificationError
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


@dataclass(frozen=True)
class GruModel:
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

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        return self._probs(self._inputs(rows))

    def _inputs(self, rows) -> np.ndarray:
        rows = _checked_rows(rows, self.norm)
        seqs = reshape_to_sequences(rows, self.config)
        if self.norm is not None:  # scaled inside the one padded copy
            self.norm.apply_in_place(
                seqs.reshape(len(rows), -1)[:, : rows.shape[1]])
        return seqs

    def _probs(self, seqs: np.ndarray) -> np.ndarray:
        return _forward_batch(self, seqs)[1]

    def _loss_and_grad(self, seqs, y, tc: TrainConfig) -> tuple:
        return loss_and_grad(self, seqs, y, grad_clip=tc.grad_clip)


@dataclass(frozen=True)
class LinearModel:
    n_classes: int
    w: np.ndarray
    b: np.ndarray
    norm: NormStats | None = None

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        return self._probs(self._inputs(rows))

    def _inputs(self, rows) -> np.ndarray:
        x = _checked_rows(rows, self.norm)
        return x if self.norm is None else normalize(x, self.norm)[0]

    def _probs(self, x: np.ndarray) -> np.ndarray:
        return _softmax(x @ self.w.T + self.b)

    def _loss_and_grad(self, x, y, tc: TrainConfig) -> tuple:
        loss, dlogits = _cross_entropy(self._probs(x), y)
        return loss, {"w": dlogits.T @ x, "b": dlogits.sum(axis=0)}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(np.minimum(x, -x))  # -|x|, keeping a NaN's sign bit
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def reshape_to_sequences(rows: np.ndarray, config: ModelConfig) -> np.ndarray:
    """(B, n_features) -> (B, T, F), zero-padding the tail."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    want = config.seq_len * config.feat_dim
    if rows.shape[1] > want:
        raise ValueError(
            f"{rows.shape[1]} features exceed seq_len*feat_dim = {want}"
        )
    padded = np.zeros((rows.shape[0], want))
    padded[:, : rows.shape[1]] = rows
    return padded.reshape(rows.shape[0], config.seq_len, config.feat_dim)


def init_gru(config: ModelConfig) -> GruModel:
    """Xavier-uniform weights, zero biases, all draws from one seeded stream."""
    rng = rng_stream(config.seed, "gru-init")
    h, f, c, t = (config.hidden_size, config.feat_dim,
                  config.n_classes, config.seq_len)

    def xavier(rows, cols):
        bound = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))

    gates = {}
    for name in GATE_PARAM_NAMES:
        if name.startswith("w"):
            gates[name] = xavier(h, f)
        elif name.startswith("u"):
            gates[name] = xavier(h, h)
        else:
            gates[name] = np.zeros(h)
    return GruModel(config=config, **gates, w_out=xavier(c, t * h),
                    b_out=np.zeros(c))


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
    h = np.zeros((b, hidden))
    hs = np.empty((b, t_steps, hidden))
    gates = np.empty((b, t_steps, 3 * hidden)) if keep else None
    for t in range(t_steps):
        xw = seqs[:, t, :] @ w3
        zr = _sigmoid(xw[:, : 2 * hidden] + h @ u2 + b2)
        z, r = zr[:, :hidden], zr[:, hidden:]
        cand = np.tanh(xw[:, 2 * hidden :] + (r * h) @ model.uh.T + model.bh)
        h = (1.0 - z) * h + z * cand
        hs[:, t, :] = h
        if keep:
            gates[:, t, : 2 * hidden] = zr
            gates[:, t, 2 * hidden :] = cand
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
    training split's normalization. Each split goes through ``model._inputs``
    once, so each history row equals ``predict_proba`` of that epoch's model
    over the full split.
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
    x_train = rows[train_idx]
    model = replace(model, norm=NormStats.of(x_train))
    inputs = model._inputs(x_train)
    del x_train  # the model's inputs are all the loop reads
    val_inputs = model._inputs(rows[val_idx])
    y_train, y_val = y[train_idx], y[val_idx]
    adam = _Adam(tc.learning_rate)
    history = []
    for epoch in range(tc.epochs):
        order = rng_stream(tc.seed, f"shuffle:{epoch}").permutation(
            len(y_train)
        )
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            _, grads = model._loss_and_grad(inputs[batch], y_train[batch], tc)
            model = replace(model, **adam.step(model, grads))
        train_loss, train_acc = _epoch_stats(model._probs(inputs), y_train)
        val_loss, val_acc = _epoch_stats(model._probs(val_inputs), y_val)
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
    ``confusion[i, j]`` rows of true class i predicted as class j."""
    rows, y = _dataset_arrays(dataset)
    if len(y) == 0:
        raise ValueError("test set must be nonempty")
    probs = model.predict_proba(rows)
    predicted = probs.argmax(axis=1)
    c = probs.shape[1]
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
    "gru": (("seq_len", "feat_dim", "hidden_size", "n_classes", "seed"),
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
    if "norm_loc" in names:
        arrays += ("norm_scale",)
    missing = ([k for k in keys if not isinstance(config.get(k), int)]
               + [n for n in arrays if n not in names])
    return f"model header lacks {', '.join(missing)}" if missing else None


def _shape_problem(mc: ModelConfig | None, n_classes: int,
                   arrays: dict) -> str | None:
    """The first array whose shape disagrees with the config, or None.

    ``mc`` is None for a linear model, whose feature count is ``w``'s width.
    """
    if mc is None:
        n = arrays["w"].shape[1] if arrays["w"].ndim == 2 else -1
        want = {"w": (n_classes, n), "b": (n_classes,)}
        widths = range(n, n + 1)
    else:
        h, f, t = mc.hidden_size, mc.feat_dim, mc.seq_len
        per_kind = {"w": (h, f), "u": (h, h), "b": (h,)}
        want = {name: per_kind[name[0]] for name in GATE_PARAM_NAMES}
        want.update(w_out=(n_classes, t * h), b_out=(n_classes,))
        widths = range(1, t * f + 1)
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
    fields = {n: arrays[n] for n in names}
    if mc is not None:
        return GruModel(config=mc, **fields, norm=norm)
    return LinearModel(**config, **fields, norm=norm)
