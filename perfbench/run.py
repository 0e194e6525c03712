"""cdmpanel benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports cdmpanel from ``src/``
there and writes only under ``perfbench/out/``. It makes the workload's inputs
from the seed, then runs rounds of the workload's operations through
``cdmpanel.cli.run_pipeline`` for S seconds (at least one round), checks every
round's outputs, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With ``--trace 0`` the metrics are the
end-to-end ones, from untraced rounds; with ``--trace 1`` they are the
per-layer ones, from one more round traced by ``tracing.Tracer``. See
README.md for the workloads, metrics and reference figures.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One BLAS thread and one pipeline job: the figures then do not depend on how
# many cores happen to be idle. Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
JOBS = 1
# set-up is repeated and its median reported, so one slow pass does not show
SETUP_PASSES = 3
# the traced round's self times plus its time outside any span must match its
# wall time within this share
TRACE_TOLERANCE = 0.01

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run_round(cli, inputs, round_dir: str):
    """One round: every operation once. Returns (wall s, CPU s, error per op or None)."""
    shutil.rmtree(round_dir, ignore_errors=True)
    outcomes = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in inputs.ops:
        try:
            cli.run_pipeline(op.config_path, jobs=JOBS, output_dir=os.path.join(round_dir, op.label))
            outcomes.append(None)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - wall0, time.process_time() - cpu0, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cdmpanel", "__init__.py")):
        print(f"error: no cdmpanel sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from cdmpanel import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: cdmpanel imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = os.path.join(run_dir, "inputs")
    round_dir = os.path.join(run_dir, "round")

    passes = []
    for _ in range(SETUP_PASSES):
        t = time.perf_counter()
        inputs = workloads.WORKLOADS[args.workload](in_dir, args.seed)
        passes.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(passes)
    print(f"settings: workload={args.workload} seed={args.seed} jobs={JOBS} "
          + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))

    problems: list[str] = []
    attempted = failed = 0
    first = None  # (digest, outcomes) of the first round

    def account(label: str, outcomes) -> None:
        nonlocal attempted, failed, first
        attempted += len(outcomes)
        failed += sum(err is not None for err in outcomes)
        for op, err in zip(inputs.ops, outcomes):
            if err is not None:
                continue
            outdir = os.path.join(round_dir, op.label)
            if inputs.csv_path:
                problems.extend(checks.check_pipeline(inputs, outdir))
            else:
                problems.extend(checks.check_monte_carlo(op.config_path, outdir))
        state = (checks.digest(round_dir), outcomes)
        if first is None:
            first = state
        elif state != first:
            problems.append(f"{label}: outputs or failures differ from the first round's")

    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu, outcomes = run_round(cli, inputs, round_dir)
        walls.append(wall)
        cpus.append(cpu)
        account(f"round {len(walls)}", outcomes)
        print(f"round {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
              f"failed {sum(e is not None for e in outcomes)}/{len(outcomes)}", file=sys.stderr)
    for err in sorted({e for e in first[1] if e is not None}):
        print(f"failed operation: {err}", file=sys.stderr)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workloads.WORKLOADS[args.workload](in_dir, args.seed)
            tracer.phase = "round"
            wall, _cpu, outcomes = run_round(cli, inputs, round_dir)
        finally:
            tracer.uninstall()
        account("traced round", outcomes)
        metrics, unaccounted = tracing.layer_metrics(tracer, wall, statistics.median(walls))
        if unaccounted > TRACE_TOLERANCE:
            problems.append(f"traced round: self times miss the wall time by {unaccounted:.2%}")
        tracer.write_jsonl(os.path.join(run_dir, "trace.jsonl"))
        units = {name: tracing.metric_unit(name) for name in metrics}
    else:
        metrics = {
            "round_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"round_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
