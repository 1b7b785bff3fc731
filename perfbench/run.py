"""Run one fdb benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

Workloads: wide, cstep-mid, sweep-small (see perfbench/workloads.py and
BENCHMARK.json). With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of a traced run. The lines
above it list every metric, latency percentiles, failures, subset digests
and the environment. The exit code is 1 when an output check fails and 2
when the program cannot be found.

fdb is imported from ``src/`` next to this directory, and BLAS is pinned
to one thread before numpy loads.
"""

import os

# Must precede every numpy import, here and in the modules imported below.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The fdb thread setting every reachable knob is pinned to.
THREADS = min(2, len(os.sched_getaffinity(0)))
# Set-ups whose median is setup_s in an untraced run: this process's own and
# the rest in fresh interpreters, half before the measured loop and half
# after it. Import is most of a short set-up and varies by 10-15% from one
# interpreter to the next.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(np, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() or commit
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "fdb_threads": threads,
        "FDB_THREADS": os.environ.get("FDB_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter, import included."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fdb" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no fdb sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fdb
    import numpy as np

    import workloads

    import_s = time.perf_counter() - t0
    if not Path(fdb.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: fdb was imported from {fdb.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, THREADS)
        os.environ["FDB_THREADS"] = str(workload.threads)
        if args.setup_only:
            t1 = time.perf_counter()
            workload.setup()
            workload.warm_up()
            print(json.dumps({"setup_s": import_s + time.perf_counter() - t1}))
            return 0
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        children = SETUP_SAMPLES - 1 if not args.trace else 0
        setups = [child_setup_seconds(args) for _ in range(children // 2)]
        result = workloads.run(
            workload, args.seconds, bool(args.trace),
            layer_names=[m["name"] for m in spec["per_layer"]], import_s=import_s,
        )
        setups += [child_setup_seconds(args) for _ in range(children - children // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    metrics = result.metrics
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        result.details["setup_s"] = setups

    problems = list(result.problems)
    reported = {}
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {entry['name']} is {value!r}")
            value = None
        reported[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment(np, workload.threads), sort_keys=True))
    for name, value in sorted(metrics.items()):
        unit = reported[name]["unit"] if name in reported else "(not gated)"
        print(f"  {name:48s} {value:14.6g} {unit}")
    for key in ("threads", "latency", "setup_s", "iterations", "failures", "run_replicate_failures", "exit_codes", "digests"):
        if key in result.details:
            print(f"{key}: " + json.dumps(result.details[key], sort_keys=True, default=str))
    if "layers" in result.details:
        trace = result.details["layers"]
        print(
            f"trace: {trace['spans']} spans over {trace['iterations']} iterations; span self time "
            f"{trace['self_s_total']:.3f} s, traced wall {trace['traced_wall_s']:.3f} s, "
            f"untraced wall {trace['untraced_wall_s']:.3f} s"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": reported,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
