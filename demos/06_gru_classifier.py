"""Train the from-scratch GRU classifier and its linear control end to end.

Uses synthetic band-power-like features with three planted classes so the
demo runs anywhere; swap in a real feature CSV via eegscrub.load_feature_csv
to reproduce the dataset experiment.

Run with: python3 demos/06_gru_classifier.py
"""

import os
import tempfile

import numpy as np

from eegscrub import (
    CLASS_NAMES,
    FeatureMatrix,
    ModelConfig,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    stratified_split,
    train,
    train_linear_baseline,
)
from eegscrub.rng import rng_stream


def make_dataset(per_class=100, n_features=48):
    rng = rng_stream(0, "demo6")
    rows, labels = [], []
    for cls in range(3):
        center = np.zeros(n_features)
        center[cls * 16:(cls + 1) * 16] = 1.0
        for _ in range(per_class):
            rows.append(center + 1.5 * rng.normal(size=n_features))
            labels.append(cls)
    return FeatureMatrix(rows=np.array(rows),
                         feature_names=tuple(f"f{i}" for i in range(n_features)),
                         labels=tuple(labels))


def subset(data, idx):
    labels = np.array(data.labels)
    return FeatureMatrix(rows=data.rows[idx], feature_names=data.feature_names,
                         labels=tuple(labels[idx]))


def main():
    data = make_dataset()
    labels = np.array(data.labels)
    train_idx, val_idx, test_idx = stratified_split(labels, (0.70, 0.15, 0.15),
                                                    seed=0)
    print(f"split sizes: train {len(train_idx)}, val {len(val_idx)}, "
          f"test {len(test_idx)}")

    # train() does its own validation split, so hand it train+val together
    fit_idx = np.sort(np.concatenate([train_idx, val_idx]))
    fit, test = subset(data, fit_idx), subset(data, test_idx)
    frac = len(val_idx) / len(fit_idx)

    mc = ModelConfig.for_features(data.n_features, 3, hidden_size=16, seed=0)
    print(f"model: {mc.seq_len} steps x {mc.feat_dim} dims, "
          f"hidden {mc.hidden_size}")
    tc = TrainConfig(epochs=30, batch_size=16, learning_rate=0.005,
                     val_fraction=frac, seed=0)
    model, history = train(fit, mc, tc)
    for row in history[::10] + [history[-1]]:
        print(f"  epoch {row['epoch']:>2}  train loss {row['train_loss']:.4f} "
              f"acc {row['train_acc']:.3f}  val loss {row['val_loss']:.4f} "
              f"acc {row['val_acc']:.3f}")

    result = evaluate(model, test)
    print(f"\nGRU test accuracy: {result['accuracy']:.4f}")
    print("confusion matrix (rows = truth):")
    for name, counts in zip(CLASS_NAMES, result["confusion"]):
        print(f"  {name:<8} {counts}")
    for i, name in enumerate(CLASS_NAMES):
        print(f"  {name:<8} precision {result['precision'][i]:.3f}  "
              f"recall {result['recall'][i]:.3f}  f1 {result['f1'][i]:.3f}")

    linear, _ = train_linear_baseline(
        fit, TrainConfig(epochs=30, batch_size=16, learning_rate=0.05,
                         val_fraction=frac, seed=0))
    lin_acc = evaluate(linear, test)["accuracy"]
    print(f"\nlinear baseline test accuracy: {lin_acc:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo6_model.eegmodel")
        save_model(model, path)
        back = load_model(path)
    same = np.array_equal(back.w_out, model.w_out)
    print(f"serialization round-trip exact: {same}")


if __name__ == "__main__":
    main()
