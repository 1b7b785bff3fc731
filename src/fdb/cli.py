"""Batch command-line front end.

Subcommands: estimate, benchmark, pca, detect, depth. Inputs are CSV sample
matrices (rows = samples, optional header auto-detected); outputs are JSON or
CSV files written atomically. Exit codes: 0 success, 1 usage error, 2 input
error, 3 computation error.
"""

from __future__ import annotations

import argparse
import errno
import io
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import applications, evaluation
from .errors import FdbError, InvalidConfig
from .estimators import fdb_estimate  # noqa: F401 (perfbench's tracer test wraps this binding)
from .depth import (
    _worker_count,
    checked_integer,
    default_direction_count,
    l2_depth,
    projection_depth,
    sample_directions,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3


class InputError(Exception):
    """A problem with an input file (missing, malformed, non-finite cells)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the CLI contract reserves 2
    # for input errors, so usage problems are remapped to 1.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split(line: str) -> list:
    return [cell.strip() for cell in line.split(",")]


def _is_header(line: str) -> bool:
    """True if any cell of the line does not parse as a number."""
    try:
        for cell in _split(line):
            float(cell)
    except ValueError:
        return True
    return False


def _other_line_break(line: str) -> bool:
    """True if the line holds a break that str.splitlines() honours besides
    "\\n", "\\r" and "\\r\\n". Universal newlines keep such a break inside
    the line, where np.loadtxt would strip it as whitespace around a cell
    instead of starting a new row."""
    return (
        "\v" in line or "\f" in line or "\x1c" in line or "\x1d" in line or "\x1e" in line
        or not line.isascii() and ("\x85" in line or "\u2028" in line or "\u2029" in line)
    )


def _data_lines(fh):
    """Yield the lines of ``fh`` that hold data: blank lines and a header
    are dropped. Raises ValueError at a line with an _other_line_break."""
    first = True
    for line in fh:
        if _other_line_break(line):
            raise ValueError("line break that np.loadtxt does not split on")
        if line.isspace():
            continue
        if first:
            first = False
            if _is_header(line):
                continue
        yield line


def _loadtxt(fh) -> "np.ndarray | None":
    """The data of ``fh`` as parsed by numpy's C reader, or None if it
    rejects the file, finds a non-finite cell or no data rows."""
    lines = _data_lines(fh)
    try:
        first = next(lines, None)
        if first is None:
            return None
        matrix = np.loadtxt(
            itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2
        )
    except ValueError:
        return None
    return matrix if np.isfinite(matrix).all() else None


def _parse_cells(path: str, lines: list) -> np.ndarray:
    """Parse ``lines`` one cell at a time, raising InputError with the row
    and column of the first fault. Rows count the non-blank lines."""
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise InputError(f"{path}: file contains no data rows")
    start = 1 if _is_header(lines[0]) else 0
    if start == len(lines):
        raise InputError(f"{path}: file contains a header but no data rows")

    width = len(_split(lines[start]))
    rows = []
    for i in range(start, len(lines)):
        cells = _split(lines[i])
        if len(cells) != width:
            raise InputError(
                f"{path}: row {i + 1} has {len(cells)} columns, expected {width}"
            )
        values = []
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: row {i + 1}, column {j + 1}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: row {i + 1}, column {j + 1}: non-finite value {cell!r}"
                )
            values.append(value)
        rows.append(values)
    return np.asarray(rows, dtype=float)


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a numeric UTF-8 CSV into an (n, p) matrix.

    A leading byte-order mark and blank lines are ignored. Cells are
    numbers as Python's float() reads them. The first non-blank line is a
    header, and skipped, if any of its cells is not a number. A malformed,
    NaN or infinite cell is a hard error that names its row and column, a
    ragged row one that names its row.

    numpy's C reader parses the file. The per-cell loop runs only when it
    rejects the file or finds a non-finite cell: the loop then names the
    fault, or reads what only float() accepts, such as "1_000".
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            matrix = _loadtxt(fh)
            if matrix is None:
                fh.seek(0)
                matrix = _parse_cells(path, fh.read().splitlines())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    return matrix


def read_labels_csv(path: str, n: int) -> np.ndarray:
    """Read a single-column 0/1 label file aligned with the data rows."""
    matrix = read_matrix_csv(path)
    if matrix.shape[1] != 1:
        raise InputError(f"{path}: labels must be a single column, got {matrix.shape[1]}")
    if matrix.shape[0] != n:
        raise InputError(f"{path}: {matrix.shape[0]} labels for {n} samples")
    values = matrix[:, 0]
    if not np.all((values == 0) | (values == 1)):
        raise InputError(f"{path}: labels must be 0 or 1")
    return values.astype(bool)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to a sibling temp file and rename it over ``path``.

    Readers see the old file or the new one, never part of either. The file
    is not fsynced. Its exact encoded length is reserved before the write,
    so a rename over an existing file does not wait for ext4 to flush the
    new blocks; the cost is that after a power loss the replaced file can
    come back as zeros of the right length rather than as old or new text.
    """
    data = text.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fdb-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # A zero length is EINVAL; any surplus would leave a zero tail.
            if data and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fh.fileno(), 0, len(data))
                except OSError as exc:
                    if exc.errno != errno.EOPNOTSUPP:
                        raise
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def resolve_threads(value: "str | None") -> int:
    """Thread count: --threads flag, then FDB_THREADS, then the CPUs this
    process may run on.

    estimate, pca, detect and depth split the depth kernels' blocks over
    these threads; benchmark runs its replicates on them. FDB_THREADS is
    read and checked by the depth kernels' own rule. The CPU count is the
    process's affinity set where the platform reports one, so a run under
    ``taskset`` or a cpuset starts no more workers than it has CPUs; the
    host's count is the fallback.
    """
    if value is None or value == "auto":
        if os.environ.get("FDB_THREADS", "").strip():
            return _worker_count(None)
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(value)
    except ValueError:
        raise InputError(f"thread count must be an integer or 'auto', got {value!r}") from None
    return checked_integer(threads, "thread count", 1)


def _parse_k(value: "str | None") -> "int | None":
    if value is None or value == "auto":
        return None
    try:
        k = int(value)
    except ValueError:
        raise InputError(f"direction count must be an integer or 'auto', got {value!r}") from None
    return checked_integer(k, "direction count", 1)


def _items(value: str) -> "list[str]":
    """The items of the comma list ``value``, stripped; blank items are skipped."""
    return [token.strip() for token in value.split(",") if token.strip()]


def _parse_floats(flag: str, value: str) -> "list[float]":
    """The numbers of the comma list ``value`` given to ``flag``."""
    numbers = []
    for token in _items(value):
        try:
            numbers.append(float(token))
        except ValueError:
            raise InputError(f"{flag} must list numbers, got {token!r}") from None
    return numbers


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _setup(args):
    """The input matrix, thread count and direction count of estimate, pca
    and detect, read and checked in that order."""
    return read_matrix_csv(args.input), resolve_threads(args.threads), _parse_k(args.k)


def _estimate(args, x, threads, k):
    return evaluation.run_estimator(
        x, args.method, args.alpha, k, args.seed, args.reweight, args.starts, threads
    )


def _estimate_document(report, args, x, k, threads):
    doc = {
        "method": args.method,
        "alpha": args.alpha,
        "k": (k if k is not None else default_direction_count(x.shape[1]))
        if args.method == "fdb-pro"
        else None,
        "seed": args.seed,
        "reweight": args.reweight,
        "threads": threads,
        "n": int(x.shape[0]),
        "p": int(x.shape[1]),
        "mu": [float(v) for v in report.estimate.mu],
        "sigma": [[float(v) for v in row] for row in report.estimate.sigma],
        "subset": [int(i) for i in report.subset],
        "weights": None if report.weights is None else [int(w) for w in report.weights],
        "c1": float(report.c1),
        "elapsed_seconds": float(report.elapsed_seconds),
    }
    if args.method == "fastmcd":
        doc["n_starts"] = args.starts
    return doc


def cmd_estimate(args) -> int:
    x, threads, k = _setup(args)
    report = _estimate(args, x, threads, k)
    atomic_write_text(args.output, _json_dumps(_estimate_document(report, args, x, k, threads)))
    return EXIT_OK


def cmd_benchmark(args) -> int:
    threads = resolve_threads(args.threads)
    settings = dict(evaluation.SETTINGS)
    names = _items(args.setting)
    for name in names:
        if name not in settings:
            try:
                n, p = name.split("x")
                settings[name] = (int(n), int(p))
            except ValueError:
                raise InputError(
                    f"setting must be one of {sorted(evaluation.SETTINGS)} or 'NxP', got {name!r}"
                ) from None
    grid = itertools.product(
        names,
        _items(args.contamination),
        _parse_floats("--epsilon", args.epsilon),
        _parse_floats("--r", args.r),
        _items(args.methods),
    )
    cells = [evaluation.BenchmarkCell(*values) for values in grid]
    try:
        evaluation.check_grid(cells, args.replicates, args.alpha, settings)
    except FdbError as exc:
        raise InputError(str(exc)) from None

    rows = evaluation.run_benchmark(
        # The distinct cells, in grid order.
        list(dict.fromkeys(cell.normalized() for cell in cells)),
        replicates=args.replicates,
        seed=args.seed,
        alpha=args.alpha,
        threads=threads,
        settings=settings,
        progress=evaluation.print_progress,
    )
    buffer = io.StringIO()
    evaluation.export_benchmark_csv(rows, buffer)
    atomic_write_text(args.output, buffer.getvalue())
    flagged = [row for row in rows if row.flagged]
    if flagged:
        cells_flagged = sorted({(r.setting, r.kind, r.epsilon, r.method) for r in flagged})
        print(f"warning: {len(cells_flagged)} cell(s) flagged for failures", file=sys.stderr)
    print(evaluation.format_benchmark_table(rows), file=sys.stderr)
    return EXIT_OK


def cmd_pca(args) -> int:
    x, threads, k = _setup(args)
    report = _estimate(args, x, threads, k)
    model = applications.robust_pca(x, report.estimate, args.components)
    diagnostics = applications.pca_diagnostics(x, model)
    detection = applications.detect_outliers(x, report.estimate, rule="chi2:0.975")

    buffer = io.StringIO()
    applications.export_diagnostics_csv(buffer, diagnostics, detection)
    atomic_write_text(args.output, buffer.getvalue())

    model_path = args.model_output or args.output + ".model.json"
    doc = {
        "method": args.method,
        "components": args.components,
        "seed": args.seed,
        "threads": threads,
        "mu": [float(v) for v in model.mu],
        "loadings": [[float(v) for v in row] for row in model.loadings],
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "sd_cutoff": diagnostics.sd_cutoff,
        "od_cutoff": diagnostics.od_cutoff,
    }
    atomic_write_text(model_path, _json_dumps(doc))
    return EXIT_OK


def cmd_detect(args) -> int:
    x, threads, k = _setup(args)
    labels = read_labels_csv(args.labels, x.shape[0]) if args.labels else None
    report = _estimate(args, x, threads, k)
    result = applications.detect_outliers(x, report.estimate, rule=args.rule, labels=labels)

    lines = ["index,distance,flag"]
    for i in range(result.distances.size):
        lines.append(f"{i},{float(result.distances[i])!r},{int(result.flags[i])}")
    atomic_write_text(args.output, "\n".join(lines) + "\n")

    summary_path = args.summary_output or args.output + ".summary.json"
    doc = {
        "method": args.method,
        "rule": args.rule,
        "seed": args.seed,
        "threads": threads,
        "cutoff": float(result.cutoff),
        "flagged": int(result.flags.sum()),
        "auc": None if result.auc is None else float(result.auc),
    }
    atomic_write_text(summary_path, _json_dumps(doc))
    return EXIT_OK


def cmd_depth(args) -> int:
    x = read_matrix_csv(args.input)
    threads = resolve_threads(args.threads)
    checked_integer(args.seed, "seed", 0)  # for L2 depth too, which draws nothing
    n, p = x.shape
    if args.depth == "projection":
        k = _parse_k(args.k) or default_direction_count(p)
        depths = projection_depth(x, sample_directions(p, k, args.seed), threads)
    else:
        depths = l2_depth(x, threads)
    lines = ["index,depth"]
    for i in range(n):
        lines.append(f"{i},{float(depths[i])!r}")
    atomic_write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_estimator_flags(parser):
    parser.add_argument(
        "--method",
        choices=evaluation.METHODS,
        default="fdb-pro",
        help="estimator to run (default fdb-pro)",
    )
    parser.add_argument("--alpha", type=float, default=0.75, help="core-set fraction (default 0.75)")
    parser.add_argument("--k", default="auto", help="projection direction count or 'auto'")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--no-reweight",
        dest="reweight",
        action="store_false",
        help="skip the reweighting step",
    )
    parser.add_argument("--starts", type=int, default=500, help="fastmcd random starts (default 500)")
    parser.set_defaults(reweight=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fdb", description="Depth-based robust location and scatter estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="robust location/scatter estimate of a CSV matrix")
    p_est.add_argument("--input", required=True, help="input CSV (rows = samples)")
    p_est.add_argument("--output", required=True, help="output JSON path")
    _add_estimator_flags(p_est)
    p_est.add_argument("--threads", default=None, help="thread count or 'auto'")
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("benchmark", help="Monte-Carlo contamination benchmark")
    p_bench.add_argument("--output", required=True, help="output CSV path")
    p_bench.add_argument("--setting", default="A", help="comma list of A,B,C or NxP (default A)")
    p_bench.add_argument(
        "--contamination", default="none", help="comma list of none,point,random,cluster,radial"
    )
    p_bench.add_argument("--epsilon", default="0", help="comma list of contamination fractions")
    p_bench.add_argument("--r", default="5", help="comma list of abnormality levels")
    p_bench.add_argument("--replicates", type=int, default=100, help="replicates per cell")
    p_bench.add_argument("--methods", default="fdb-pro", help="comma list of estimators")
    p_bench.add_argument("--alpha", type=float, default=None, help="override the core-set fraction rule")
    p_bench.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_bench.add_argument("--threads", default=None, help="thread count or 'auto'")
    p_bench.set_defaults(func=cmd_benchmark)

    p_pca = sub.add_parser("pca", help="robust PCA diagnostics of a CSV matrix")
    p_pca.add_argument("--input", required=True, help="input CSV (rows = samples)")
    p_pca.add_argument("--output", required=True, help="diagnostics CSV path")
    p_pca.add_argument("--model-output", default=None, help="model JSON path (default <output>.model.json)")
    p_pca.add_argument("--components", type=int, default=2, help="number of components (default 2)")
    _add_estimator_flags(p_pca)
    p_pca.add_argument("--threads", default=None, help="thread count or 'auto'")
    p_pca.set_defaults(func=cmd_pca)

    p_det = sub.add_parser("detect", help="robust-distance outlier detection")
    p_det.add_argument("--input", required=True, help="input CSV (rows = samples)")
    p_det.add_argument("--output", required=True, help="flags CSV path")
    p_det.add_argument("--summary-output", default=None, help="summary JSON path (default <output>.summary.json)")
    p_det.add_argument("--rule", default="chi2:0.975", help="'chi2:PROB' or 'top:M' (default chi2:0.975)")
    p_det.add_argument("--labels", default=None, help="optional 0/1 label CSV for AUC")
    _add_estimator_flags(p_det)
    p_det.add_argument("--threads", default=None, help="thread count or 'auto'")
    p_det.set_defaults(func=cmd_detect)

    p_dep = sub.add_parser("depth", help="per-sample depth values of a CSV matrix")
    p_dep.add_argument("--input", required=True, help="input CSV (rows = samples)")
    p_dep.add_argument("--output", required=True, help="depth CSV path")
    p_dep.add_argument("--depth", choices=["projection", "l2"], default="projection")
    p_dep.add_argument("--k", default="auto", help="projection direction count or 'auto'")
    p_dep.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_dep.add_argument("--threads", default=None, help="thread count or 'auto'")
    p_dep.set_defaults(func=cmd_depth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, InvalidConfig) as exc:
        print(f"fdb: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"fdb: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FdbError as exc:
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        print(f"fdb: computation error{stage}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"fdb: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
