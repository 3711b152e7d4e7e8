"""eegscrub performance benchmark.

    python3 benchmarks/run.py                          # all workloads, untraced
    python3 benchmarks/run.py --workload grid --seed 3 --seconds 20 --trace 1

Each workload runs in its own process. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. See benchmarks/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INIT = os.path.join(SRC, "eegscrub", "__init__.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("grid", "recording", "train")
SETUP_REPEATS = 3

# (name, unit, better) of the end-to-end metrics reported with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("throughput", "1/s", "higher"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="passes start until this much time has passed "
                        "(half of it traced with --trace 1); at least one "
                        "pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _check_sources():
    if not os.path.isfile(INIT):
        sys.exit(f"benchmark: no eegscrub sources at {INIT}")


def _import_library():
    """Import eegscrub from this checkout's ``src``, never from elsewhere."""
    _check_sources()
    sys.path.insert(0, SRC)
    import eegscrub

    if os.path.realpath(eegscrub.__file__) != os.path.realpath(INIT):
        sys.exit(f"benchmark: imported eegscrub from {eegscrub.__file__}, "
                 f"not from {SRC}")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _run_all(args) -> int:
    """Run each workload in a fresh process and echo its output; print the
    combined result only when every workload produced one."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}, no result")
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def _print_summary(rows, ops):
    print(f"{'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'n':>3}  unit")
    for name, unit, values in rows:
        q1, med, q3 = harness.quartiles(values)
        print(f"{name:<46} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{harness.spread(values):>7.3f} {len(values):>3}  {unit}")
    kinds = ", ".join(f"{k}: {v}"
                      for k, v in sorted(ops.failure_kinds().items()))
    print(f"operations: attempted {len(ops.attempted)}, failed "
          f"{len(ops.failures)}" + (f" ({kinds})" if kinds else ""))
    for key, problems in ops.violations.items():
        print(f"check failed: {key}: {'; '.join(problems)}")
    print("output checks: " + ("all passed" if ops.correct else "FAILED"))


def _end_to_end(wl, ops, setup_times, seconds) -> dict:
    throughputs = []
    walls = harness.timed_passes(
        lambda: throughputs.append(wl.run_pass(ops, None)), seconds)
    rows = [("setup_s", "s", setup_times),
            ("wall_s", "s", walls),
            ("peak_rss_mb", "MiB", [harness.peak_rss_mib()]),
            ("throughput", "1/s", throughputs)]
    print(f"workload {wl.name} seed {wl.seed} (throughput is {wl.unit})")
    _print_summary(rows, ops)
    return {name: _metric(harness.quartiles(values)[1], unit)
            for name, unit, values in rows}


def _per_layer(wl, ops, seconds) -> dict:
    """Untraced, then traced passes for half of ``seconds`` each; per-layer
    values are medians over the traced passes. Spans go to a JSON-lines
    file."""
    # a first pass runs colder than later ones; keep it out of the
    # untraced-versus-traced comparison
    wl.run_pass(ops, None)
    walls = harness.timed_passes(lambda: wl.run_pass(ops, None), seconds / 2)
    traced_walls, pass_values, pass_spans = [], [], []

    def traced_pass():
        tracer = spans.Tracer()
        with tracer.patched(layers.trace_targets()):
            t0 = time.perf_counter()
            wl.run_pass(ops, tracer)
            traced_walls.append(time.perf_counter() - t0)
        self_ns = spans.self_times_ns(tracer.spans)
        pass_values.append(layers.pass_metrics(tracer.spans, self_ns))
        pass_spans.append(tracer.spans)

    harness.timed_passes(traced_pass, seconds / 2)
    overhead = (harness.quartiles(traced_walls)[1]
                / harness.quartiles(walls)[1] - 1.0)
    values = layers.layer_metrics(pass_values,
                                  wl.failure_kinds_for_layers(ops),
                                  wl.rss_after, overhead)
    units = {m: (u, moves) for m, u, _, moves in layers.PER_LAYER}
    print(f"workload {wl.name} seed {wl.seed}, traced "
          f"(median of {len(pass_values)} traced passes)")
    print(f"{'metric':<46} {'value':>12}  unit   moves")
    for name, value in values.items():
        unit, moves = units[name]
        print(f"{name:<46} {value:>12.6g}  {unit:<6} {moves}")
    _print_summary([("wall_s untraced", "s", walls),
                    ("wall_s traced", "s", traced_walls)], ops)

    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, recorded in enumerate(pass_spans):
            for sp in recorded:
                fh.write(json.dumps(dict(sp.as_record(), pass_index=i)) + "\n")
    print(f"spans: {path}")
    return {name: _metric(value, units[name][0])
            for name, value in values.items()}


def _run_one(args) -> int:
    _import_library()
    import workloads

    import_s = time.perf_counter() - T_START
    env = harness.environment(ROOT)
    print("environment: " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(import_s + time.perf_counter() - t0)
        ops = harness.Ops()
        if args.trace:
            metrics = _per_layer(wl, ops, args.seconds)
        else:
            metrics = _end_to_end(wl, ops, setup_times, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": ops.correct, "attempted": len(ops.attempted),
              "failed": len(ops.failures), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=env,
                  failure_kinds=ops.failure_kinds(),
                  violations=ops.violations)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        _check_sources()  # fail fast, before starting any workload
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
