"""Per-layer metrics: where the traced run wraps the library, and how spans
become the named numbers.

Every wrapper is installed at the name its caller looks up at call time (the
bench module's imported names, the denoise module's imported decompositions,
``emd.find_extrema`` inside the sifting loop), so the library itself is not
modified.
"""

import importlib
import os

from harness import quartiles

# (metric, unit, better, end-to-end metric it should move)
PER_LAYER = (
    ("decompose.ssa_decompose.self_s", "s", "lower",
     "grid.throughput, recording.throughput; not train"),
    ("decompose.ssa_decompose.calls", "count", "lower",
     "grid.throughput, recording.throughput; not train"),
    ("decompose.ssa_decompose.components_built", "count", "lower",
     "grid.throughput, recording.throughput, recording.peak_rss_mb"),
    ("decompose.ssa_decompose.bytes_computed", "B", "lower",
     "grid.throughput, recording.throughput, recording.peak_rss_mb"),
    ("denoise.ssa_cca.components_used_frac", "ratio", "higher",
     "grid.throughput, recording.throughput, recording.peak_rss_mb"),
    ("decompose.cca.self_s", "s", "lower",
     "grid.throughput, recording.throughput; not train"),
    ("denoise.remove_muscle_ssa_cca.self_s", "s", "lower",
     "grid.throughput, recording.throughput; not train"),
    ("denoise.remove_motion_ssa.self_s", "s", "lower",
     "grid.throughput; not train"),
    ("denoise.denoise_dwt.self_s", "s", "lower", "grid.throughput, slightly"),
    ("denoise.denoise_emd_maf.self_s", "s", "lower",
     "grid.throughput, slightly"),
    ("denoise.adaptive_kalman_denoise.self_s", "s", "lower",
     "grid.throughput, slightly"),
    ("denoise.cascade_lms.self_s", "s", "lower", "grid.throughput, slightly"),
    ("denoise.identity.self_s", "s", "lower", "grid.throughput, slightly"),
    ("decompose.emd.self_s", "s", "lower", "grid.throughput, slightly"),
    ("decompose.emd.imfs", "count", "lower", "grid.throughput, slightly"),
    ("decompose.emd.find_extrema.self_s", "s", "lower",
     "grid.throughput, slightly"),
    ("decompose.emd.find_extrema.calls", "count", "lower",
     "grid.throughput, slightly"),
    ("decompose.dwt_forward.self_s", "s", "lower", "grid.throughput, slightly"),
    ("decompose.dwt_inverse.self_s", "s", "lower", "grid.throughput, slightly"),
    ("bench.cell.identity.s", "s", "lower", "grid.throughput"),
    ("bench.cell.dwt.s", "s", "lower", "grid.throughput"),
    ("bench.cell.emd_maf.s", "s", "lower", "grid.throughput"),
    ("bench.cell.ssa_motion.s", "s", "lower", "grid.throughput"),
    ("bench.cell.ssa_cca.s", "s", "lower", "grid.throughput"),
    ("bench.cell.akf.s", "s", "lower", "grid.throughput"),
    ("bench.cell.cascade_lms.s", "s", "lower", "grid.throughput"),
    ("bench.cells_failed.DivergenceError", "count", "lower",
     "grid operations failed"),
    ("bench.cells_failed.NumericDegeneracyError", "count", "lower",
     "grid operations failed"),
    ("bench.cells_failed.other", "count", "lower", "grid operations failed"),
    ("noise.gen_noise.self_s", "s", "lower", "grid.throughput"),
    ("noise.mix_at_snr.self_s", "s", "lower", "grid.throughput"),
    ("noise.compute_metrics.self_s", "s", "lower", "grid.throughput"),
    ("bench.make_clean.self_s", "s", "lower", "grid.throughput"),
    ("dataset.save_raw_csv.s", "s", "lower", "recording.throughput"),
    ("dataset.save_raw_csv.mb_per_s", "MB/s", "higher",
     "recording.throughput"),
    ("dataset.load_raw_csv.s", "s", "lower", "recording.throughput"),
    ("dataset.load_raw_csv.mb_per_s", "MB/s", "higher",
     "recording.throughput"),
    ("features.build_feature_matrix.s", "s", "lower", "recording.throughput"),
    ("features.build_feature_matrix.epochs_per_s", "1/s", "higher",
     "recording.throughput"),
    ("dataset.save_feature_csv.s", "s", "lower",
     "train.wall_s a lot, recording.throughput barely"),
    ("dataset.save_feature_csv.mb_per_s", "MB/s", "higher",
     "train.wall_s a lot, recording.throughput barely"),
    ("dataset.load_feature_csv.s", "s", "lower",
     "train.wall_s a lot, recording.throughput barely"),
    ("dataset.load_feature_csv.mb_per_s", "MB/s", "higher",
     "train.wall_s a lot, recording.throughput barely"),
    ("gru.train.s", "s", "lower", "train.throughput, train.wall_s"),
    ("gru.train.epoch_s", "s", "lower", "train.throughput, train.wall_s"),
    ("gru.train_linear_baseline.s", "s", "lower", "train.wall_s"),
    ("gru.evaluate.s", "s", "lower", "train.wall_s"),
    ("gru.save_model.s", "s", "lower", "train.wall_s"),
    ("gru.load_model.s", "s", "lower",
     "train.wall_s; recording.throughput slightly"),
    ("gru.predict_proba.s", "s", "lower",
     "train.wall_s; recording.throughput slightly"),
    ("rss_after.save_raw_csv", "MiB", "lower", "recording.peak_rss_mb"),
    ("rss_after.load_raw_csv", "MiB", "lower", "recording.peak_rss_mb"),
    ("rss_after.remove_muscle_ssa_cca", "MiB", "lower",
     "recording.peak_rss_mb"),
    ("rss_after.build_feature_matrix", "MiB", "lower",
     "recording.peak_rss_mb"),
    ("rss_after.save_feature_csv", "MiB", "lower", "recording.peak_rss_mb"),
    ("rss_after.load_feature_csv", "MiB", "lower", "recording.peak_rss_mb"),
    ("rss_after.load_model", "MiB", "lower", "recording.peak_rss_mb"),
    ("rss_after.predict_proba", "MiB", "lower", "recording.peak_rss_mb"),
    ("trace_overhead_frac", "ratio", "lower", "none (tracing cost)"),
)

DENOISERS = ("remove_muscle_ssa_cca", "remove_motion_ssa", "denoise_dwt",
             "denoise_emd_maf", "adaptive_kalman_denoise", "cascade_lms",
             "identity")
KNOWN_CELL_ERRORS = ("DivergenceError", "NumericDegeneracyError")


def _count_ssa(attrs, model, args):
    attrs["components_built"] = model.n_components
    attrs["bytes_computed"] = model.n_components * model.n_samples * 8


def _count_ssa_cca(attrs, result, args):
    _, report = result
    top_k = int(report.params.get("top_k", 0))
    attrs["components_used"] = top_k * len(args[0].channels)


def _count_imfs(attrs, imf_set, args):
    attrs["imfs"] = len(imf_set.imfs)


def _count_rows(attrs, matrix, args):
    attrs["epochs"] = matrix.n_rows


def _count_train_epochs(attrs, result, args):
    attrs["train_epochs"] = len(result[1])


def _file_bytes(path_arg: int):
    def count(attrs, result, args):
        attrs["bytes"] = os.path.getsize(args[path_arg])
    return count


def trace_targets():
    """``(owner, attr, span name, counter)`` for every traced boundary."""
    from eegscrub import bench, dataset, denoise, features, gru

    # the package re-exports the function ``emd`` under the submodule's name
    emd_module = importlib.import_module("eegscrub.decompose.emd")

    counters = {"remove_muscle_ssa_cca": _count_ssa_cca}
    targets = []
    for fn in DENOISERS:
        for owner in (bench, denoise):
            targets.append((owner, fn, f"denoise.{fn}", counters.get(fn)))
    targets += [
        (denoise, "ssa_decompose", "decompose.ssa_decompose", _count_ssa),
        (denoise, "cca", "decompose.cca", None),
        (denoise, "emd", "decompose.emd", _count_imfs),
        (emd_module, "find_extrema", "decompose.emd.find_extrema", None),
        (denoise, "dwt_forward", "decompose.dwt_forward", None),
        (denoise, "dwt_inverse", "decompose.dwt_inverse", None),
        (bench, "gen_noise", "noise.gen_noise", None),
        (bench, "mix_at_snr", "noise.mix_at_snr", None),
        (bench, "compute_metrics", "noise.compute_metrics", None),
        (bench, "make_clean", "bench.make_clean", None),
        (dataset, "save_raw_csv", "dataset.save_raw_csv", _file_bytes(1)),
        (dataset, "load_raw_csv", "dataset.load_raw_csv", _file_bytes(0)),
        (dataset, "save_feature_csv", "dataset.save_feature_csv",
         _file_bytes(1)),
        (dataset, "load_feature_csv", "dataset.load_feature_csv",
         _file_bytes(0)),
        (features, "build_feature_matrix", "features.build_feature_matrix",
         _count_rows),
        (gru, "train", "gru.train", _count_train_epochs),
        (gru, "train_linear_baseline", "gru.train_linear_baseline", None),
        (gru, "evaluate", "gru.evaluate", None),
        (gru, "save_model", "gru.save_model", None),
        (gru, "load_model", "gru.load_model", None),
        (gru.GruModel, "predict_proba", "gru.predict_proba", None),
    ]
    return targets


def span_totals(spans, self_ns) -> dict:
    """Per span name: ``s``, ``self_s``, ``calls`` and summed counters;
    ``bench.cell`` spans are split by their ``method`` attribute."""
    totals = {}
    for sp in spans:
        name = sp.name
        if name == "bench.cell":
            name = f"bench.cell.{sp.attrs['method']}"
        t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += (sp.end_ns - sp.start_ns) / 1e9
        t["self_s"] += self_ns[sp.span_id] / 1e9
        t["calls"] += 1
        for key, value in sp.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                t[key] = t.get(key, 0) + value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans, self_ns) -> dict:
    """Span-derived per-layer numbers of one traced pass."""
    totals = span_totals(spans, self_ns)
    by_id = {sp.span_id: sp for sp in spans}
    built_for_cca = sum(
        sp.attrs.get("components_built", 0) for sp in spans
        if sp.name == "decompose.ssa_decompose" and sp.parent is not None
        and by_id[sp.parent].name == "denoise.remove_muscle_ssa_cca")
    used = totals.get("denoise.remove_muscle_ssa_cca", {}).get(
        "components_used", 0)
    derived = {"denoise.ssa_cca.components_used_frac":
               _ratio(used, built_for_cca)}
    for name in ("dataset.save_raw_csv", "dataset.load_raw_csv",
                 "dataset.save_feature_csv", "dataset.load_feature_csv"):
        t = totals.get(name, {})
        derived[f"{name}.mb_per_s"] = _ratio(t.get("bytes", 0) / 1e6,
                                             t.get("s", 0.0))
    t = totals.get("features.build_feature_matrix", {})
    derived["features.build_feature_matrix.epochs_per_s"] = _ratio(
        t.get("epochs", 0), t.get("s", 0.0))
    t = totals.get("gru.train", {})
    derived["gru.train.epoch_s"] = _ratio(t.get("s", 0.0),
                                          t.get("train_epochs", 0))

    out = {}
    for metric, _, _, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        span_name, _, field = metric.rpartition(".")
        if span_name in totals:
            out[metric] = float(totals[span_name].get(field, 0.0))
    return out


def layer_metrics(pass_values, failure_kinds, rss_after, overhead) -> dict:
    """Median over traced passes, plus the run-level entries; every metric of
    :data:`PER_LAYER` is present (0 where the layer does not run)."""
    out = {metric: 0.0 for metric, _, _, _ in PER_LAYER}
    for metric in out:
        values = [p[metric] for p in pass_values if metric in p]
        if values:
            out[metric] = quartiles(values)[1]
    for kind, count in failure_kinds.items():
        key = kind if kind in KNOWN_CELL_ERRORS else "other"
        out[f"bench.cells_failed.{key}"] += count
    for step, mib in rss_after.items():
        out[f"rss_after.{step}"] = mib
    out["trace_overhead_frac"] = overhead
    return out
