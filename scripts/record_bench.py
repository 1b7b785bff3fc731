"""Record one pass of the fdb benchmark into ``BENCH_<label>.json``.

    python3 scripts/record_bench.py --label f85746c --seed 7001
    python3 scripts/record_bench.py --label parent --root ../fdb-parent --seed 7001

Runs the benchmark command of the checkout ``--root`` (default: this
repository), ``python3 perfbench/run.py --workload W --seed S --seconds R
--trace T``, for every workload that checkout's BENCHMARK.json declares,
untraced (T = 0) and traced (T = 1), one run after another. The command and
the run length R come from that BENCHMARK.json (``command``, ``run_seconds``). From each run it keeps the final JSON line
(metrics, attempted and failed counts), the ``environment:`` line and the
``digests:`` line of subset digests. The file is written next to this
script's repository root unless ``--output`` names another path.

It prints a note when the CPU or the BLAS build differs from those of the
newest BENCH file committed in this repository: numbers from two hosts do
not compare, so a before/after claim then needs the parent re-recorded on
this host.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--output", type=Path, help="default: BENCH_<label>.json in this repository")
    return parser.parse_args(argv)


def tagged_json(lines, tag: str):
    """The JSON value of the first ``<tag>: {...}`` line, else None."""
    prefix = f"{tag}: "
    return next((json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)), None)


def record_run(root: Path, base: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        *base, "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    out = subprocess.run(command, cwd=root, capture_output=True, encoding="utf-8", timeout=30 * seconds + 300)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "workload": workload,
        "trace": trace,
        "command": " ".join(command),
        "exit_code": out.returncode,
        "environment": tagged_json(lines, "environment"),
        "digests": tagged_json(lines, "digests"),
        "result": result,
        "stderr_tail": out.stderr.strip().splitlines()[-5:],
    }


def newest_committed_bench(root: Path) -> "Path | None":
    """The BENCH_*.json that the latest commit adding one added, else None."""
    out = subprocess.run(
        ["git", "-C", str(root), "log", "--diff-filter=A", "--name-only", "--format=", "--", "BENCH_*.json"],
        capture_output=True, encoding="utf-8", timeout=30,
    )
    names = [line for line in out.stdout.splitlines() if line.strip()] if out.returncode == 0 else []
    return root / names[0] if names and (root / names[0]).exists() else None


def host_notes(previous: dict, runs: list, name: str) -> "list[str]":
    """Notes for each of environment.cpu and blas that differs between the
    runs of the BENCH document ``previous`` (file ``name``) and ``runs``."""

    def environment(items):
        return next((run["environment"] for run in items if run.get("environment")), None)

    old, new = environment(previous.get("runs", [])), environment(runs)
    if old is None or new is None:
        return []
    return [
        f"note: environment.{key} differs from {name}: {old.get(key)!r} there, {new.get(key)!r} here; "
        "numbers from the two do not compare, so re-record the parent on this host"
        for key in ("cpu", "blas")
        if old.get(key) != new.get(key)
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            run = record_run(root, spec["command"], entry["name"], args.seed, seconds, trace)
            print(f"{entry['name']} trace={trace}: exit {run['exit_code']}", file=sys.stderr)
            runs.append(run)
    newest = newest_committed_bench(ROOT)
    if newest is not None:
        for note in host_notes(json.loads(newest.read_text(encoding="utf-8")), runs, newest.name):
            print(note, file=sys.stderr)
    output = args.output or ROOT / f"BENCH_{args.label}.json"
    document = {"label": args.label, "seed": args.seed, "seconds": seconds, "runs": runs}
    output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(output)
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
