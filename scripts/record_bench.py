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
    output = args.output or ROOT / f"BENCH_{args.label}.json"
    document = {"label": args.label, "seed": args.seed, "seconds": seconds, "runs": runs}
    output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(output)
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
