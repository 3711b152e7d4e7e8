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
from functools import partial

import numpy as np

from .core import NormStats, normalize
from .errors import DataFormatError, StratificationError
from .features import FeatureMatrix
from .rng import rng_stream

SEQ_LEN = 16
MODEL_MAGIC = b"EEGSCRUB-MODEL\n"
MODEL_FORMAT_VERSION = 1

GATE_PARAM_NAMES = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 5.0
    val_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        for name in ("beta1", "beta2", "eps", "grad_clip"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.val_fraction <= 0.5:
            raise ValueError(
                f"val_fraction must be in (0, 0.5], got {self.val_fraction}"
            )


@dataclass(frozen=True)
class GruParams:
    """Update (z), reset (r), and candidate (h) gate weights."""

    wz: np.ndarray
    uz: np.ndarray
    bz: np.ndarray
    wr: np.ndarray
    ur: np.ndarray
    br: np.ndarray
    wh: np.ndarray
    uh: np.ndarray
    bh: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.wz.shape[0]

    @property
    def input_size(self) -> int:
        return self.wz.shape[1]


@dataclass(frozen=True)
class GruModel:
    config: ModelConfig
    params: GruParams
    w_out: np.ndarray
    b_out: np.ndarray
    norm: NormStats | None = None

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        seqs = reshape_to_sequences(_normalized(rows, self.norm), self.config)
        _, probs, _ = _forward_batch(self, seqs)
        return probs


@dataclass(frozen=True)
class LinearModel:
    n_classes: int
    w: np.ndarray
    b: np.ndarray
    norm: NormStats | None = None

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        return _softmax(_normalized(rows, self.norm) @ self.w.T + self.b)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = samples of true class i predicted as class j."""

    counts: np.ndarray
    class_names: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got {counts.shape}")
        if (counts < 0).any() or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be nonnegative integers")
        names = tuple(str(n) for n in self.class_names)
        if len(names) != counts.shape[0]:
            raise ValueError("one class name per matrix row required")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "class_names", names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(np.minimum(x, -x))  # -|x|, keeping a NaN's sign bit
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _normalized(rows, norm: NormStats | None) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return rows if norm is None else normalize(rows, norm.mode, norm)[0]


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
    return GruModel(
        config=config,
        params=GruParams(**gates),
        w_out=xavier(c, t * h),
        b_out=np.zeros(c),
    )


def _forward_batch(model: GruModel, seqs: np.ndarray):
    """Returns (hidden sequence B x T x H, probabilities B x C, caches)."""
    p = model.params
    b, t_steps, f = seqs.shape
    if t_steps != model.config.seq_len or f != model.config.feat_dim:
        raise ValueError(
            f"sequence shape {(t_steps, f)} does not match config "
            f"{(model.config.seq_len, model.config.feat_dim)}"
        )
    h = np.zeros((b, p.hidden_size))
    hs = np.empty((b, t_steps, p.hidden_size))
    caches = []
    for t in range(t_steps):
        xt = seqs[:, t, :]
        z = _sigmoid(xt @ p.wz.T + h @ p.uz.T + p.bz)
        r = _sigmoid(xt @ p.wr.T + h @ p.ur.T + p.br)
        cand = np.tanh(xt @ p.wh.T + (r * h) @ p.uh.T + p.bh)
        h_new = (1.0 - z) * h + z * cand
        caches.append((xt, h, z, r, cand))
        h = h_new
        hs[:, t, :] = h
    flat = hs.reshape(b, t_steps * p.hidden_size)
    probs = _softmax(flat @ model.w_out.T + model.b_out)
    return hs, probs, (caches, flat)


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
    p = model.params
    b = seqs.shape[0]
    hs, probs, (caches, flat) = _forward_batch(model, seqs)
    loss = float(-np.mean(np.log(probs[np.arange(b), labels])))

    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    grads = {
        "w_out": dlogits.T @ flat,
        "b_out": dlogits.sum(axis=0),
    }
    for name in GATE_PARAM_NAMES:
        grads[name] = np.zeros_like(getattr(p, name))
    dh_seq = (dlogits @ model.w_out).reshape(hs.shape)

    dh_next = np.zeros((b, p.hidden_size))
    for t in range(model.config.seq_len - 1, -1, -1):
        xt, h_prev, z, r, cand = caches[t]
        dh = dh_seq[:, t, :] + dh_next
        dz = dh * (cand - h_prev) * z * (1.0 - z)
        dcand = dh * z * (1.0 - cand**2)
        dh_prev = dh * (1.0 - z)

        grads["wh"] += dcand.T @ xt
        grads["uh"] += dcand.T @ (r * h_prev)
        grads["bh"] += dcand.sum(axis=0)
        drh = dcand @ p.uh
        dr = drh * h_prev * r * (1.0 - r)
        dh_prev += drh * r

        grads["wz"] += dz.T @ xt
        grads["uz"] += dz.T @ h_prev
        grads["bz"] += dz.sum(axis=0)
        dh_prev += dz @ p.uz

        grads["wr"] += dr.T @ xt
        grads["ur"] += dr.T @ h_prev
        grads["br"] += dr.sum(axis=0)
        dh_prev += dr @ p.ur

        dh_next = dh_prev

    if grad_clip is not None:
        norm = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        if norm > grad_clip:
            scale = grad_clip / norm
            grads = {k: g * scale for k, g in grads.items()}
    return loss, grads


def _model_get(model, name: str) -> np.ndarray:
    owner = model.params if name in GATE_PARAM_NAMES else model
    return getattr(owner, name)


def _model_with(model, updates: dict):
    top = {k: v for k, v in updates.items() if k not in GATE_PARAM_NAMES}
    gates = {k: v for k, v in updates.items() if k in GATE_PARAM_NAMES}
    if gates:
        top["params"] = replace(model.params, **gates)
    return replace(model, **top)


class _Adam:
    def __init__(self, tc: TrainConfig):
        self.tc = tc
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, values: dict, grads: dict) -> dict:
        tc = self.tc
        self.t += 1
        out = {}
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = tc.beta1 * self.m[name] + (1 - tc.beta1) * g
            self.v[name] = tc.beta2 * self.v[name] + (1 - tc.beta2) * g**2
            m_hat = self.m[name] / (1 - tc.beta1**self.t)
            v_hat = self.v[name] / (1 - tc.beta2**self.t)
            out[name] = values[name] - tc.learning_rate * m_hat / (
                np.sqrt(v_hat) + tc.eps
            )
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


def _check_classes(y: np.ndarray, n_classes: int):
    present = set(np.unique(y).tolist())
    missing = sorted(set(range(n_classes)) - present)
    if missing:
        raise StratificationError(
            f"classes {missing} absent from the training data"
        )


def _epoch_stats(model, x: np.ndarray, y: np.ndarray) -> tuple:
    probs = model.predict_proba(x)
    loss = float(-np.mean(np.log(
        np.maximum(probs[np.arange(len(y)), y], 1e-300)
    )))
    acc = float(np.mean(probs.argmax(axis=1) == y))
    return loss, acc


def _fit(dataset: FeatureMatrix, tc: TrainConfig, n_classes: int,
         init_model, loss_fn, to_inputs=lambda x: x) -> tuple:
    """The shared Adam loop: split, normalize, shuffle, step, history.

    ``init_model(norm)`` builds the starting model around the training-set
    normalization; ``loss_fn(model, inputs, labels)`` returns the loss and a
    gradient per parameter name; ``to_inputs`` shapes normalized rows.
    """
    rows, y = _dataset_arrays(dataset)
    _check_classes(y, n_classes)
    train_idx, val_idx, _ = stratified_split(
        y, (1.0 - tc.val_fraction, tc.val_fraction, 0.0), seed=tc.seed
    )
    x_train, norm = normalize(rows[train_idx], "zscore")
    model = init_model(norm)
    inputs = to_inputs(x_train)
    y_train = y[train_idx]
    adam = _Adam(tc)
    history = []
    for epoch in range(tc.epochs):
        order = rng_stream(tc.seed, f"shuffle:{epoch}").permutation(
            len(y_train)
        )
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            _, grads = loss_fn(model, inputs[batch], y_train[batch])
            values = {n: _model_get(model, n) for n in grads}
            model = _model_with(model, adam.step(values, grads))
        train_loss, train_acc = _epoch_stats(model, rows[train_idx], y_train)
        val_loss, val_acc = _epoch_stats(model, rows[val_idx], y[val_idx])
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
    return _fit(dataset, tc, mc.n_classes,
                lambda norm: replace(init_gru(mc), norm=norm),
                partial(loss_and_grad, grad_clip=tc.grad_clip),
                lambda x: reshape_to_sequences(x, mc))


def linear_loss_and_grad(model: LinearModel, x: np.ndarray, y: np.ndarray):
    probs = _softmax(x @ model.w.T + model.b)
    b = len(y)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(b), y], 1e-300))))
    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b
    return loss, {"w": dlogits.T @ x, "b": dlogits.sum(axis=0)}


def train_linear_baseline(dataset: FeatureMatrix, tc: TrainConfig,
                          n_classes: int = 3) -> tuple:
    """Softmax regression trained with the same loop; zero-weight init."""
    def init_model(norm):
        return LinearModel(n_classes=n_classes,
                           w=np.zeros((n_classes, dataset.rows.shape[1])),
                           b=np.zeros(n_classes), norm=norm)

    return _fit(dataset, tc, n_classes, init_model, linear_loss_and_grad)


def evaluate(model, dataset: FeatureMatrix, class_names=None) -> dict:
    """Accuracy, per-class precision/recall/F1, and the confusion matrix."""
    rows, y = _dataset_arrays(dataset)
    if len(y) == 0:
        raise ValueError("test set must be nonempty")
    probs = model.predict_proba(rows)
    predicted = probs.argmax(axis=1)
    c = probs.shape[1]
    counts = np.zeros((c, c), dtype=int)
    np.add.at(counts, (y, predicted), 1)
    names = tuple(class_names or map(str, range(c)))
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
        "confusion": ConfusionMatrix(counts=counts, class_names=names),
    }


def save_model(model, path) -> None:
    """Versioned binary container: JSON header + little-endian float64 blobs."""
    if isinstance(model, GruModel):
        kind = "gru"
        arrays = {n: _model_get(model, n) for n in GATE_PARAM_NAMES}
        arrays["w_out"] = model.w_out
        arrays["b_out"] = model.b_out
        config = asdict(model.config)
    elif isinstance(model, LinearModel):
        kind = "linear"
        arrays = {"w": model.w, "b": model.b}
        config = {"n_classes": model.n_classes}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if model.norm is not None:
        arrays["norm_loc"] = np.asarray(model.norm.loc, dtype=float)
        arrays["norm_scale"] = np.asarray(model.norm.scale, dtype=float)
        config["norm_mode"] = model.norm.mode
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
    keys, arrays = _MODEL_LAYOUT[header["kind"]]
    names = {name for name, _ in manifest}
    if "norm_loc" in names:
        arrays += ("norm_scale",)
    missing = ([k for k in keys if not isinstance(config.get(k), int)]
               + [n for n in arrays if n not in names])
    return f"model header lacks {', '.join(missing)}" if missing else None


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
    config = header["config"]
    norm = None
    if "norm_loc" in arrays:
        norm = NormStats(mode=config.get("norm_mode", "zscore"),
                         loc=arrays.pop("norm_loc"),
                         scale=arrays.pop("norm_scale"))
    if header["kind"] == "gru":
        mc = ModelConfig(**{k: config[k] for k in _MODEL_LAYOUT["gru"][0]})
        gates = {n: arrays[n] for n in GATE_PARAM_NAMES}
        return GruModel(config=mc, params=GruParams(**gates),
                        w_out=arrays["w_out"], b_out=arrays["b_out"], norm=norm)
    return LinearModel(n_classes=config["n_classes"], w=arrays["w"],
                       b=arrays["b"], norm=norm)
