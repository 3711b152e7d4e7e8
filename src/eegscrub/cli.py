"""Command-line front end: simulate -> denoise -> bench, and
extract-features -> train -> eval -> predict.

Exit codes: 0 success, 1 usage error, 2 data/runtime error. Every run writes
a JSON report embedding the fully resolved configuration, so a run can be
reproduced from its report alone. The seed comes from --seed, falling back to
the EEGSCRUB_SEED environment variable, then 0. No output path, the report
included, may name an input file or another output file of the same run,
directly, through a symlink or as a hard link.
"""

import argparse
import math
import os
import re
import sys
from dataclasses import asdict, replace
from typing import Callable, NamedTuple

from .bench import leaderboard_csv_rows, make_blink_template, make_clean, run_bench
from .core import Recording, check_fs
from .dataset import (
    CLASS_NAMES,
    load_feature_csv,
    load_raw_csv,
    parse_label,
    save_feature_csv,
    save_raw_csv,
    write_csv,
    write_report,
)
from .denoise import METHOD_IDS, METHODS, Param, apply_method
from .errors import (DataFormatError, EegScrubError, InvalidSpecError,
                     TooShortError)
from .features import build_feature_matrix
from .gru import (
    ModelConfig,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    train,
    train_linear_baseline,
)
from .noise import NoiseSpec, gen_noise, mix_at_snr


class UsageError(Exception):
    """A bad command line; ``parser``, when given, is the parser that found
    it, whose usage line the error prints."""

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -5,0,5 and -.5 are values, not options, as in Python 3.13's argparse
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message, self)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("EEGSCRUB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"EEGSCRUB_SEED must be an integer, got {env!r}")
    return 0


class _Command(NamedTuple):
    handler: Callable  # (args, seed) -> (config, results)
    reads: tuple  # dests of the flags naming files the command reads
    writes: tuple  # dests of the flags naming files the command writes
    report: str = "{out}.report.json"  # formatted with the parsed flags


# every flag naming a file, by dest: (flag, help); all but --history are
# required, and each lands in the report config under its flag name
_FILE_FLAGS = {"input": ("in", None), "out": ("out", None),
               "features": ("features", None), "model": ("model", None),
               "history": ("history", "per-epoch CSV path")}

# the flags each value of a selector flag owns, by the selector's dest, then
# by value: a method's keywords plus the flags of the inputs its
# MethodSpec.needs names, and the GRU's own flags. Each owned flag and its
# default are declared here once; see _add_owned and _owned_flags
_NEEDS_FLAGS = {
    "references": (Param("ref_noise", list, ["kind=powerline"], help=(
        "reference noise spec for cascade_lms (repeatable)")),),
    "template": (Param("template_width", float, 0.3,
                       help="blink template width in seconds"),
                 Param("frontal", None, None, help=(
                     "comma-separated frontal channel names for "
                     "blink_template (default: first two channels)")))}
_OWNED = {
    "method": {m: spec.params + _NEEDS_FLAGS.get(spec.needs, ())
               for m, spec in METHODS.items()},
    "model_kind": {"gru": (Param("hidden", int, 64),
                           Param("grad_clip", float, 5.0)),
                   "linear": ()},
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_owned(p: argparse.ArgumentParser, selector: str) -> None:
    """Register once each flag a value of ``selector`` owns. An unset one
    stays out of the namespace, so _owned_flags can tell it was not given."""
    params = {q.name: q for own in _OWNED[selector].values() for q in own}
    for q in params.values():
        shown = q.default is not None and f"default {q.default}"
        p.add_argument(_flag(q.name), default=argparse.SUPPRESS,
                       choices=q.choices,
                       help="; ".join(filter(None, (q.help, shown))) or None,
                       **({"action": "append"} if q.type is list
                          else {"type": q.type}))


def _owned_flags(args, selector: str) -> dict:
    """The flags the chosen value of ``selector`` owns, each unset one at its
    default; a flag only other values own is a usage error naming both."""
    value, given = getattr(args, selector), vars(args)
    own = {q.name: q.default for q in _OWNED[selector][value]}
    for q in (q for params in _OWNED[selector].values() for q in params):
        if q.name in given and q.name not in own:
            raise UsageError(f"{_flag(q.name)} does not apply to "
                             f"{_flag(selector)} {value}")
    return {dest: given.get(dest, default) for dest, default in own.items()}


def build_parser() -> _Parser:
    parser = _Parser(prog="eegscrub",
                     description="EEG artifact removal and emotion "
                                 "classification toolkit")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand-level default from clobbering a root value
    for p, default in ((parser, None), (common, argparse.SUPPRESS)):
        p.add_argument("--seed", type=int, default=default,
                       help="master seed (fallback: EEGSCRUB_SEED, then 0)")
    common.add_argument("--report", default=None, help="JSON report path")
    subparsers = parser.add_subparsers(dest="command")

    def add(name, command: _Command, text: str, **file_help) -> _Parser:
        """Register a subcommand, its _Command and one flag per file."""
        p = subparsers.add_parser(name, parents=[common], help=text)
        p.set_defaults(run=command, parser=p)
        for dest in command.reads + command.writes:
            flag, flag_help = _FILE_FLAGS[dest]
            p.add_argument("--" + flag, dest=dest, required=dest != "history",
                           help=file_help.get(dest, flag_help))
        return p

    p = add("simulate", _Command(_cmd_simulate, (), ("out",)),
            "write a surrogate recording")
    p.add_argument("--duration", type=float, default=8.0)
    p.add_argument("--fs", type=float, default=256.0)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--noise", default=None,
                   help="noise spec text, e.g. kind=emg_burst,duty=0.5,seed=7")
    p.add_argument("--snr", type=float, default=0.0)

    p = add("denoise", _Command(_cmd_denoise, ("input",), ("out",)),
            "apply one artifact-removal method")
    p.add_argument("--method", required=True, choices=sorted(METHOD_IDS))
    p.add_argument("--fs", type=float, default=256.0)
    _add_owned(p, "method")

    p = add("bench", _Command(_cmd_bench, (), ("out",)),
            "run the Monte-Carlo benchmark grid", out="leaderboard CSV path")
    p.add_argument("--methods", default="identity,dwt,emd_maf,ssa_motion,"
                                        "ssa_cca,akf,cascade_lms")
    p.add_argument("--noises",
                   default="kind=awgn;kind=powerline;kind=baseline_wander;"
                           "kind=emg_burst,duty=1",
                   help="semicolon-separated noise spec texts")
    p.add_argument("--snrs", default="-5,0,5")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of Monte-Carlo seeds")
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--fs", type=float, default=256.0)

    p = add("extract-features", _Command(_cmd_extract, ("input",), ("out",)),
            "epoch features from raw CSV")
    p.add_argument("--fs", type=float, default=256.0)
    p.add_argument("--window-s", type=float, default=2.0)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--label", default=None)

    p = add("train", _Command(_cmd_train, ("features",), ("model", "history"),
                              "{model}.report.json"),
            "train the GRU or the linear baseline")
    p.add_argument("--model-kind", choices=tuple(_OWNED["model_kind"]),
                   default="gru")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--val-fraction", type=float, default=0.15)
    _add_owned(p, "model_kind")

    add("eval", _Command(_cmd_eval, ("features", "model"), (),
                         "{model}.eval-report.json"),
        "evaluate a trained model")
    add("predict", _Command(_cmd_predict, ("features", "model"), ("out",)),
        "write per-row class predictions")
    return parser


def _cmd_simulate(args, seed: int) -> tuple:
    samples = args.duration * check_fs(args.fs)
    if not 0.5 < samples < math.inf:  # so round() gives an int >= 1
        raise InvalidSpecError(
            f"--duration {args.duration:g} at --fs {args.fs:g} gives "
            f"{samples:g} samples, need a finite count >= 1")
    n = int(round(samples))
    spec = NoiseSpec.from_text(args.noise) if args.noise else None
    channels, mix_info = [], []
    for c in range(args.channels):
        signal = make_clean(seed, n, args.fs, channel=c)
        if spec is not None:
            noise = gen_noise(replace(spec, seed=spec.seed + seed + c), n,
                              args.fs)
            signal, mrep = mix_at_snr(signal, noise, args.snr)
            mix_info.append({"channel": c,
                             "achieved_snr_db": mrep.achieved_snr_db,
                             "noise_scale": mrep.noise_scale})
        channels.append(signal)
    save_raw_csv(Recording(channels=tuple(channels), channel_names=tuple(
        f"ch{c}" for c in range(args.channels))), args.out)
    config = {"duration": args.duration, "fs": args.fs,
              "channels": args.channels,
              "noise": spec.to_text() if spec else None,
              "snr_db": args.snr if spec else None}
    return config, {"n_samples": n, "mixes": mix_info}


def _method_inputs(needs: str | None, flags: dict, rec: Recording,
                   seed: int) -> tuple:
    """The references or the template a method needs, built from its
    flags; an unset ``frontal`` is set to the channels used."""
    if needs == "references":
        specs = [NoiseSpec.from_text(s) for s in flags["ref_noise"]]
        # a drawn reference is independent of the recording's contaminant,
        # so it cannot correlate with it and cancels nothing
        for spec in specs:
            if spec.kind != "powerline":
                raise UsageError(
                    f"--ref-noise kind={spec.kind} is drawn at random, so it "
                    "cannot correlate with a recording's contaminant; only "
                    "powerline references (a sinusoid at the line "
                    "frequency) are deterministic")
        return ([gen_noise(replace(s, seed=s.seed + seed), rec.n_samples,
                           rec.fs) for s in specs],)
    if needs == "template":
        frontal = (flags["frontal"].split(",") if flags["frontal"]
                   else list(rec.channel_names[:2]))
        if not set(frontal) <= set(rec.channel_names):
            raise UsageError(f"--frontal must name channels of the recording "
                             f"({', '.join(rec.channel_names)}), got "
                             f"{flags['frontal']!r}")
        # the report records them joined by commas, as --frontal reads them
        for name in frontal:
            if "," in name:
                raise UsageError(f"frontal channel {name!r} holds a comma, "
                                 "so no --frontal value can name it")
        flags["frontal"] = ",".join(frontal)
        spec = NoiseSpec("blink", {"width": flags["template_width"]},
                         seed=seed)
        return make_blink_template(spec, rec.fs), frontal
    return ()


def _cmd_denoise(args, seed: int) -> tuple:
    spec = METHODS[args.method]
    flags = _owned_flags(args, "method")
    rec = load_raw_csv(args.input, fs=args.fs)
    inputs = _method_inputs(spec.needs, flags, rec, seed)
    out, reps = apply_method(args.method, rec, *inputs,
                             **{p.name: flags[p.name] for p in spec.params})
    save_raw_csv(out, args.out)
    # the report names only the flags this method read
    config = {"method": args.method, "fs": args.fs, **flags}
    return config, {"reports": [asdict(r) for r in reps]}


def _cmd_bench(args, seed: int) -> tuple:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    noises = [s.strip() for s in args.noises.split(";") if s.strip()]
    try:
        snrs = [float(s) for s in args.snrs.split(",") if s.strip()]
        if not all(map(math.isfinite, snrs)):
            raise ValueError
    except ValueError:
        raise UsageError(f"--snrs must be finite numbers, got {args.snrs!r}")
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    seeds = [seed + i for i in range(args.seeds)]
    result = run_bench(methods, noises, snrs, seeds, n=args.n, fs=args.fs)
    header, *rows = leaderboard_csv_rows(result)
    write_csv(args.out, header, rows)
    config = {"methods": methods, "noises": noises, "snrs_db": snrs,
              "n_seeds": args.seeds, "n": args.n, "fs": args.fs}
    return config, {"rows": result["rows"]}


def _cmd_extract(args, seed: int) -> tuple:
    rec = load_raw_csv(args.input, fs=args.fs)
    label = None
    if args.label is not None:
        try:
            label = parse_label(args.label)
        except ValueError as exc:
            raise UsageError(str(exc))
    matrix = build_feature_matrix(rec, args.window_s, args.overlap,
                                  label=label)
    if matrix.n_rows == 0:  # a table train, eval and predict would refuse
        raise TooShortError(f"{args.input}: a {rec.n_samples / rec.fs:g} s "
                            f"recording holds no full {args.window_s:g} s window")
    save_feature_csv(matrix, args.out)
    config = {"fs": args.fs, "window_s": args.window_s,
              "overlap": args.overlap, "label": label}
    return config, {"n_rows": matrix.n_rows, "n_features": matrix.n_features}


def _cmd_train(args, seed: int) -> tuple:
    flags = _owned_flags(args, "model_kind")  # the GRU's, or none
    hidden = flags.pop("hidden", None)
    dataset = load_feature_csv(args.features)
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                     learning_rate=args.lr, val_fraction=args.val_fraction,
                     seed=seed, **flags)
    train_config = asdict(tc)
    if args.model_kind == "gru":
        mc = ModelConfig.for_features(dataset.features.n_features,
                                      len(CLASS_NAMES), hidden, seed)
        model, history = train(dataset.features, mc, tc)
        model_config = asdict(mc)
    else:
        model, history = train_linear_baseline(
            dataset.features, tc, n_classes=len(CLASS_NAMES))
        model_config = {"n_classes": len(CLASS_NAMES)}
        del train_config["grad_clip"]  # the linear loop never clips
    save_model(model, args.model)
    if args.history:
        write_csv(args.history, list(history[0]),
                  (row.values() for row in history))
    config = {"model_kind": args.model_kind, "model_config": model_config,
              "train_config": train_config}
    return config, {"final": history[-1], "n_rows": dataset.features.n_rows}


def _load_classifier(path: str):
    """The model at ``path``, refused unless it has one output per class of
    ``CLASS_NAMES``, the names ``eval`` and ``predict`` print and write."""
    model = load_model(path)
    if model.n_classes != len(CLASS_NAMES):
        raise DataFormatError(
            f"{path}: the model has {model.n_classes} classes, but its "
            f"outputs are read as the {len(CLASS_NAMES)} classes "
            f"{', '.join(CLASS_NAMES)}")
    return model


def _cmd_eval(args, seed: int) -> tuple:
    dataset = load_feature_csv(args.features)
    model = _load_classifier(args.model)
    result = evaluate(model, dataset.features)
    print(f"accuracy {result['accuracy']:.4f}")
    for i, name in enumerate(CLASS_NAMES):
        print(f"{name}: precision {result['precision'][i]:.4f} "
              f"recall {result['recall'][i]:.4f} f1 {result['f1'][i]:.4f}")
    confusion = result.pop("confusion")
    return {}, {**result, "confusion_counts": confusion,
                "class_names": CLASS_NAMES}


def _cmd_predict(args, seed: int) -> tuple:
    matrix = load_feature_csv(args.features, require_label=False)
    model = _load_classifier(args.model)
    probs = model.predict_proba(matrix.rows)
    predicted = probs.argmax(axis=1)
    write_csv(args.out,
              ["row", "label", "class"] + [f"p_{n}" for n in CLASS_NAMES],
              ([i, cls, CLASS_NAMES[cls]] + p for i, (cls, p)
               in enumerate(zip(predicted.tolist(), probs.tolist()))))
    return {}, {"n_rows": int(len(predicted)),
                "class_counts": {CLASS_NAMES[c]: int((predicted == c).sum())
                                 for c in range(len(CLASS_NAMES))}}


def _file_identity(path: str):
    """(device, inode) of an existing file, else its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_paths(args, command: _Command, report_path: str) -> None:
    """Refuse an output path, the report included, that is an input path or
    another output path."""
    # by inode, so a hard link or a symlink to an input is caught too
    kinds = {_file_identity(getattr(args, f)): "input" for f in command.reads}
    outputs = [getattr(args, f) for f in command.writes] + [report_path]
    for out in filter(None, outputs):  # an optional output may be unset
        key = _file_identity(out)
        if key in kinds:
            raise UsageError(f"refusing to overwrite {kinds[key]} file "
                             f"{out!r}; choose a different output path")
        kinds[key] = "output"


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # parse_args' error, but with the subcommand's usage
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            raise UsageError("a subcommand is required")
        for k, v in vars(args).items():  # every float flag
            if isinstance(v, float) and not math.isfinite(v):
                raise UsageError(f"{_flag(k)} must be finite, not {v}")
        seed = _resolve_seed(args.seed)
        command = args.run
        report_path = args.report or command.report.format(**vars(args))
        _check_paths(args, command, report_path)
        config, results = command.handler(args, seed)
        files = {_FILE_FLAGS[d][0]: getattr(args, d)  # unset --history: None
                 for d in command.reads + command.writes}
        write_report({"command": args.command,
                      "config": {**files, **config, "seed": seed},
                      "results": results}, report_path)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the subcommand's usage once one is known, else the root's
        (exc.parser or getattr(args, "parser", parser)).print_usage(sys.stderr)
        return 1
    except (EegScrubError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
