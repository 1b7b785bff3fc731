"""The fdb benchmark workloads and the loop that measures them.

Each workload loads a different layer (BENCHMARK.json records why each was
chosen):

- ``wide`` (2000x200): the depth kernels, the CLI CSV reader and the
  ``applications`` layer; no C-steps run.
- ``cstep-mid`` (400x40): the C-step primitives of ``fastmcd_baseline``;
  depth is a small share.
- ``sweep-small`` (200x5): ``evaluation.run_benchmark`` over five
  contamination kinds, where fixed per-call costs dominate.

All load comes from one caller as a closed loop: each call waits for the
previous one. Inputs are generated with ``fdb.evaluation`` during set-up from
the benchmark seed, and every estimate is checked after the loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

import fdb
from fdb import applications, cli, depth, estimators, evaluation, numeric
from fdb.errors import FdbError
from tracer import Tracer

MODULES = (fdb, numeric, depth, estimators, evaluation, applications, cli)

TARGETS = [
    (numeric, "cholesky"),
    (numeric, "eigen_symmetric"),
    (depth, "as_data_matrix"),
    (depth, "sample_directions"),
    (depth, "projection_depth"),
    (depth, "l2_depth"),
    (depth, "deepest_subset"),
    (estimators, "subset_mean_cov"),
    (estimators, "mahalanobis_sq"),
    (estimators, "c_step"),
    (estimators, "iterate_c_steps"),
    (estimators, "reweight"),
    (estimators, "fdb_estimate"),
    (estimators, "fastmcd_baseline"),
    (evaluation, "generate_clean"),
    (evaluation, "contaminate"),
    (evaluation, "back_transform"),
    (evaluation, "evaluate_estimate"),
    (evaluation, "run_replicate"),
    (evaluation, "run_benchmark"),
    (applications, "robust_pca"),
    (applications, "pca_diagnostics"),
    (applications, "detect_outliers"),
    (cli, "main"),
    (cli, "cmd_detect"),
    (cli, "read_matrix_csv"),
    (cli, "read_labels_csv"),
    (cli, "atomic_write_text"),
]


def _projection_work(args, kwargs, result):
    # Computed from shapes: the (n, p) @ (p, k) projection costs 2nkp flops
    # and fills an n x k block of float64.
    n, p = np.shape(args[0])
    k = args[1].k
    return {"gflop": 2.0 * n * k * p / 1e9, "mb": 8.0 * n * k / 1e6}


def _l2_work(args, kwargs, result):
    # Computed from shapes: cdist does a subtract, multiply and add per
    # coordinate of every pair.
    n, p = np.shape(args[0])
    return {"gflop": 3.0 * n * n * p / 1e9}


MEASURES = {
    "depth.projection_depth": _projection_work,
    "depth.l2_depth": _l2_work,
    "estimators.iterate_c_steps": lambda args, kwargs, result: {"iterations": result[2]},
}

def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


@dataclass
class Replicate:
    x: np.ndarray
    labels: np.ndarray
    g: np.ndarray


def make_replicate(keys, n, p, kind, epsilon, r) -> Replicate:
    """Generate, contaminate and shuffle one replicate with fdb.evaluation."""
    gen, cont, shuffle = (int(s.generate_state(1)[0]) for s in np.random.SeedSequence(keys).spawn(3))
    _, y, g = evaluation.generate_clean(evaluation.GenerationSpec(n, p, seed=gen))
    y, labels = evaluation.contaminate(y, evaluation.ContaminationSpec(kind, epsilon, r), seed=cont)
    perm = np.random.default_rng(shuffle).permutation(n)
    return Replicate(y[perm] @ g.T, labels[perm], g)


def check_report(report, h: int) -> "list[str]":
    """Problems with one estimate: non-finite mu, sigma not symmetric
    positive definite, or a subset that is not h distinct indices."""
    problems = []
    mu, sigma = report.estimate.mu, report.estimate.sigma
    if not np.all(np.isfinite(mu)):
        problems.append("mu is not finite")
    if not np.all(np.isfinite(sigma)):
        problems.append("sigma is not finite")
    elif not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * np.abs(sigma).max()):
        problems.append("sigma is not symmetric")
    else:
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            problems.append("sigma is not positive definite")
    distinct = np.unique(np.asarray(report.subset)).size
    if distinct != h or np.size(report.subset) != h:
        problems.append(f"subset has {distinct} distinct of {np.size(report.subset)} indices, expected {h}")
    return problems


def _combine(digests) -> str:
    # Order-free, so the digest does not depend on which replicate finishes first.
    return hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()


@dataclass
class Log:
    """What one measured loop did: call times, estimates and failures."""

    attempted: int = 0
    replicates: int = 0
    iterations: int = 0
    iteration_rates: "list[float]" = field(default_factory=list)  # replicates per second
    wall_s: float = 0.0  # summed over iterations
    side_s: float = 0.0  # time in calls that replicates_per_s leaves out
    seconds: "dict[str, list[float]]" = field(default_factory=lambda: defaultdict(list))
    reports: "dict[str, list]" = field(default_factory=lambda: defaultdict(list))  # method -> [(iteration, report)]
    failures: Counter = field(default_factory=Counter)  # (method, error type, stage) -> count
    exit_codes: Counter = field(default_factory=Counter)
    detect: list = field(default_factory=list)  # (iteration, summary, flags digest, flags lines)
    kl_rows: "dict[str, list]" = field(default_factory=lambda: defaultdict(list))  # method -> [(mean, replicates)]

    def call(self, method: str, iteration: int, fn):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = fn()
        except FdbError as err:
            self.failures[(method, type(err).__name__, err.stage)] += 1
            return
        self.seconds[method].append(time.perf_counter() - t0)
        self.reports[method].append((iteration, report))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Workload:
    """Set-up, one loop iteration, accuracy and output checks of a workload."""

    name: ClassVar[str]
    methods: ClassVar["tuple[str, ...]"]
    n: ClassVar[int]
    p: ClassVar[int]
    kind: ClassVar[str] = "cluster"
    epsilon: ClassVar[float] = 0.2
    r: ClassVar[float]
    pool_size: ClassVar[int] = 1
    accuracy_iterations: ClassVar[int]

    def __init__(self, seed: int, workdir: str, threads: int):
        self.seed = seed
        self.workdir = workdir
        self.threads = threads

    def setup(self) -> None:
        self.pool = [
            make_replicate((self.seed, 2, j), self.n, self.p, self.kind, self.epsilon, self.r)
            for j in range(self.pool_size)
        ]

    def warm_up(self) -> None:
        # One untimed iteration, so lazy imports and caches fill before timing.
        self.iterate(-1, Log())

    def estimator_seed(self, iteration: int) -> int:
        return derive_seed(self.seed, 0) if iteration < 0 else derive_seed(self.seed, 1, iteration)

    def h(self) -> int:
        return int(math.floor(0.75 * self.n))

    def fdb_calls(self, x, seed: int):
        return {
            "fdb_pro": lambda: estimators.fdb_estimate(x, estimators.EstimatorConfig(depth="projection", seed=seed)),
            "fdb_l2": lambda: estimators.fdb_estimate(x, estimators.EstimatorConfig(depth="l2", seed=seed)),
        }

    def memory_calls(self):
        return self.fdb_calls(self.pool[0].x, 0)

    def hooks(self, log: Log):
        return nullcontext()

    def accuracy(self, log: Log) -> "dict[str, float]":
        """Mean Gaussian KL after back_transform over the first iterations,
        which makes it a function of the seed alone."""
        g = self.pool[0].g
        eye = np.eye(self.p)
        out = {}
        for method in self.methods:
            kls = [
                evaluation.kl_divergence(evaluation.back_transform(report.estimate, g).sigma, eye)
                for i, report in log.reports[method]
                if i < self.accuracy_iterations
            ]
            out[f"{method}_kl"] = float(np.mean(kls)) if kls else float("nan")
        return out

    def digests(self, log: Log) -> "dict[str, str]":
        """Digest of the selected subsets of each method over the first iterations."""
        return {
            method: _combine(
                hashlib.sha256(np.asarray(report.subset, dtype=np.int64).tobytes()).hexdigest()
                for i, report in log.reports[method]
                if i < self.accuracy_iterations
            )
            for method in self.methods
        }

    def check(self, log: Log) -> "list[str]":
        return [
            f"{method} iteration {i}: {problem}"
            for method in self.methods
            for i, report in log.reports[method]
            for problem in check_report(report, self.h())
        ]


class Wide(Workload):
    name = "wide"
    methods = ("fdb_pro", "fdb_l2")
    n, p, r = 2000, 200, 2.0
    pool_size = 4
    pca_components = 5
    accuracy_iterations = 2

    def setup(self):
        super().setup()
        self.csv = os.path.join(self.workdir, "wide.csv")
        self.labels_csv = os.path.join(self.workdir, "wide-labels.csv")
        self.flags_csv = os.path.join(self.workdir, "wide-flags.csv")
        np.savetxt(self.csv, self.pool[0].x, fmt="%.17g", delimiter=",")
        np.savetxt(self.labels_csv, self.pool[0].labels.astype(int), fmt="%d")

    def iterate(self, i: int, log: Log):
        seed = self.estimator_seed(i)
        x = self.pool[i % self.pool_size].x
        for method, call in self.fdb_calls(x, seed).items():
            log.call(method, i, call)
        if log.reports["fdb_pro"] and log.reports["fdb_pro"][-1][0] == i:
            # Robust PCA on this iteration's projection-depth estimate; the
            # detect command does not reach robust_pca or pca_diagnostics.
            estimate = log.reports["fdb_pro"][-1][1].estimate
            log.call("pca", i, lambda: applications.pca_diagnostics(
                x, applications.robust_pca(x, estimate, self.pca_components)
            ))
        argv = [
            "detect", "--input", self.csv, "--labels", self.labels_csv, "--output", self.flags_csv,
            "--seed", str(seed), "--threads", str(self.threads),
        ]
        log.attempted += 1
        t0 = time.perf_counter()
        code = fdb.cli.main(argv)
        elapsed = time.perf_counter() - t0
        log.exit_codes[code] += 1
        if code != 0:
            log.failures[("cli_detect", f"exit code {code}", None)] += 1
        else:
            log.seconds["cli_detect"].append(elapsed)
            with open(self.flags_csv + ".summary.json") as fh:
                summary = json.load(fh)
            with open(self.flags_csv, "rb") as fh:
                flags = fh.read()
            log.detect.append((i, summary, hashlib.sha256(flags).hexdigest(), flags.count(b"\n")))
        log.replicates += 1

    def accuracy(self, log: Log):
        out = super().accuracy(log)
        aucs = [summary["auc"] for i, summary, _, _ in log.detect if i < self.accuracy_iterations]
        out["auc"] = float(np.mean(aucs)) if aucs else float("nan")
        return out

    def digests(self, log: Log):
        out = super().digests(log)
        out["cli_detect"] = _combine(d for i, _, d, _ in log.detect if i < self.accuracy_iterations)
        return out

    def check(self, log: Log):
        problems = super().check(log)
        for i, diagnostics in log.reports["pca"]:
            if diagnostics.scores.shape != (self.n, self.pca_components):
                problems.append(f"pca iteration {i}: scores have shape {diagnostics.scores.shape}")
            if not (np.all(np.isfinite(diagnostics.sd)) and np.all(np.isfinite(diagnostics.od))):
                problems.append(f"pca iteration {i}: score or orthogonal distances are not finite")
        problems += [f"cli detect exited {code} ({count}x)" for code, count in log.exit_codes.items() if code != 0]
        for i, summary, _, lines in log.detect:
            if lines != self.n + 1:
                problems.append(f"cli detect iteration {i}: {lines} flag lines, expected {self.n + 1}")
            auc = summary.get("auc")
            if auc is None or not 0.0 <= auc <= 1.0:
                problems.append(f"cli detect iteration {i}: auc {auc!r}")
        return problems


class CstepMid(Workload):
    name = "cstep-mid"
    methods = ("fastmcd", "fdb_pro", "fdb_l2")
    n, p, r = 400, 40, 5.0
    n_starts = 500
    pool_size = 32
    accuracy_iterations = 10

    def calls(self, x, seed: int):
        calls = {"fastmcd": lambda: estimators.fastmcd_baseline(x, self.h(), n_starts=self.n_starts, seed=seed)}
        calls.update(self.fdb_calls(x, seed))
        return calls

    def iterate(self, i: int, log: Log):
        for method, call in self.calls(self.pool[i % self.pool_size].x, self.estimator_seed(i)).items():
            log.call(method, i, call)
        log.replicates += 1

    def memory_calls(self):
        return self.calls(self.pool[0].x, 0)


class SweepSmall(Workload):
    name = "sweep-small"
    methods = ("fdb_pro", "fdb_l2")
    n, p, r = 200, 5, 5.0
    pool_size = 4  # replicates for the direct calls
    replicates = 10
    accuracy_iterations = 20

    def __init__(self, seed: int, workdir: str, threads: int):
        # One pool thread: on a shared two-vCPU host, two made the throughput
        # bimodal (ten-seed spread 0.34 of the median against 0.07 with one).
        super().__init__(seed, workdir, 1)

    def setup(self):
        super().setup()
        self.settings = {"small": (self.n, self.p)}
        self.cells = [
            evaluation.BenchmarkCell("small", kind, self.epsilon, self.r, method)
            for kind in evaluation.CONTAMINATION_KINDS
            for method in ("fdb-pro", "fdb-l2")
        ]
        self.iteration = -1

    def run_benchmark(self, replicates: int, seed: int):
        return evaluation.run_benchmark(
            self.cells, replicates, seed=seed, threads=self.threads, settings=self.settings
        )

    def warm_up(self):
        self.run_benchmark(1, self.estimator_seed(-1))

    @contextmanager
    def hooks(self, log: Log):
        # Keeps every estimate run_benchmark makes, so the output checks and
        # digests see the calls it otherwise hides.
        original = evaluation.fdb_estimate

        def collect(x, config):
            report = original(x, config)
            method = "fdb_pro" if config.depth == "projection" else "fdb_l2"
            log.reports[method].append((self.iteration, report))
            return report

        evaluation.fdb_estimate = collect
        try:
            yield
        finally:
            evaluation.fdb_estimate = original

    def iterate(self, i: int, log: Log):
        self.iteration = i
        rows = self.run_benchmark(self.replicates, self.estimator_seed(i))
        log.attempted += len(self.cells) * self.replicates
        for row in rows:
            method = row.method.replace("-", "_")
            if row.metric == "e_mu":  # one row per cell carries the counts
                log.replicates += row.replicates
                if row.failures:
                    # BenchmarkRow keeps the count only; reasons come from the traced run.
                    log.failures[(method, f"{row.kind} replicate", None)] += row.failures
            elif row.metric == "kl" and i < self.accuracy_iterations:
                log.kl_rows[method].append((row.mean, row.replicates))
        # Latency comes from direct calls, one per method and pool replicate,
        # outside the pool and outside replicates_per_s: on the pool threads
        # a 3-20 ms call's wall time mostly measures waits for the
        # interpreter lock, whose switch interval is 5 ms.
        t0 = time.perf_counter()
        for replicate in self.pool:
            for method, call in self.fdb_calls(replicate.x, self.estimator_seed(i)).items():
                log.call(method, i, call)
        log.side_s += time.perf_counter() - t0

    def accuracy(self, log: Log):
        out = {}
        for method in self.methods:
            rows = log.kl_rows[method]
            total = sum(count for _, count in rows)
            out[f"{method}_kl"] = sum(m * c for m, c in rows) / total if total else float("nan")
        return out


WORKLOADS = {cls.name: cls for cls in (Wide, CstepMid, SweepSmall)}


def measure(workload: Workload, seconds: float, *phases) -> None:
    """Closed loop over iterations until ``seconds`` have passed and the
    accuracy iterations are done.

    Each phase is a (log, context factory) pair. Every iteration runs once
    per phase, in order, so phases compared with each other see the same
    inputs and the same state of a shared host.
    """
    start = time.perf_counter()
    i = 0
    while i < workload.accuracy_iterations or time.perf_counter() - start < seconds:
        for log, context in phases:
            with context(), workload.hooks(log):
                before, side_before = log.replicates, log.side_s
                t0 = time.perf_counter()
                workload.iterate(i, log)
                elapsed = time.perf_counter() - t0
            log.wall_s += elapsed
            log.iteration_rates.append((log.replicates - before) / (elapsed - (log.side_s - side_before)))
            log.iterations += 1
        i += 1


def peak_mib(call) -> float:
    """tracemalloc peak of one call, above the memory in use before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def latency_summary(samples: "list[float]") -> dict:
    """Median and the highest of p90/p99 with at least ten samples beyond it, in ms."""
    ms = sorted(1e3 * s for s in samples)
    out = {"n": len(ms), "median_ms": statistics.median(ms)}
    for q in (99, 90):
        if len(ms) * (100 - q) / 100 >= 10:
            out[f"p{q}_ms"] = statistics.quantiles(ms, n=100)[q - 1]
            break
    return out


def layer_metric(name: str, table: dict, memory_table: dict, iterations: int) -> float:
    """Per-layer metric ``<module>.<function>.<quantity>`` from tracer summaries."""
    span, quantity = name.rsplit(".", 1)
    if quantity == "peak_mib":
        return memory_table.get(span, {}).get("peak_bytes", 0) / 2**20
    row = table.get(span)
    if row is None:
        return 0.0
    if quantity == "calls":
        total = row["calls"]
    elif quantity == "self_ms":
        total = 1e3 * row["self_s"]
    elif quantity == "errors":
        total = sum(row["errors"].values())
    else:
        total = row["extra"][quantity]
    return total / iterations


@dataclass
class RunResult:
    problems: "list[str]"
    attempted: int
    failed: int
    metrics: "dict[str, float]"
    details: dict


def run(workload: Workload, seconds: float, trace: bool, layer_names=(), import_s: float = 0.0) -> RunResult:
    """Set up, warm up and measure one workload.

    Untraced, the result holds the end-to-end metrics. Traced, it holds the
    per-layer metrics in ``layer_names``: each iteration runs traced and
    then untraced, which gives the tracing overhead, and one untimed pass
    under tracemalloc gives the peaks.
    """
    t0 = time.perf_counter()
    workload.setup()
    workload.warm_up()
    setup_s = import_s + time.perf_counter() - t0

    log = Log()
    details = {"setup_s": setup_s, "threads": workload.threads}
    if not trace:
        measure(workload, seconds, (log, nullcontext))
        problems = workload.check(log)
        # Medians over iterations and calls damp the seconds-long swings in
        # machine speed that a shared host shows.
        metrics = {"setup_s": setup_s, "replicates_per_s": statistics.median(log.iteration_rates)}
        for method, samples in log.seconds.items():
            metrics[f"{method}_ms"] = 1e3 * statistics.median(samples)
        for method, call in workload.memory_calls().items():
            metrics[f"{method}_peak_mib"] = peak_mib(call)
        metrics.update(workload.accuracy(log))
        metrics["failed_frac"] = log.failed / log.attempted
        details["latency"] = {method: latency_summary(s) for method, s in log.seconds.items()}
    else:
        tracer = Tracer()
        replay = Log()
        measure(workload, seconds, (log, lambda: tracer.installed(MODULES, TARGETS, MEASURES)), (replay, nullcontext))
        memory = Tracer(memory=True)
        tracemalloc.start()
        try:
            with memory.installed(MODULES, TARGETS):
                for call in workload.memory_calls().values():
                    call()
        finally:
            tracemalloc.stop()
        problems = workload.check(log) + workload.check(replay)
        table, memory_table = tracer.summary(), memory.summary()
        iterations = log.iterations
        metrics = {
            "trace.overhead_frac": log.wall_s / replay.wall_s - 1.0,
            "trace.coverage_frac": tracer.root_coverage() / log.wall_s,
        }
        for name in layer_names:
            if not name.startswith("trace."):
                metrics[name] = layer_metric(name, table, memory_table, iterations)
        details["layers"] = {
            "iterations": iterations,
            "spans": len(tracer.spans),
            "traced_wall_s": log.wall_s,
            "untraced_wall_s": replay.wall_s,
            "self_s_total": sum(row["self_s"] for row in table.values()),
            "functions": {
                span: {
                    "calls": row["calls"],
                    "self_ms_per_iter": 1e3 * row["self_s"] / iterations,
                    "errors": {f"{t}@{stage}": c for (t, stage), c in row["errors"].items()},
                    **{k: v / iterations for k, v in row["extra"].items()},
                }
                for span, row in sorted(table.items())
            },
        }
        failures = table.get("evaluation.run_replicate", {}).get("errors", Counter())
        details["run_replicate_failures"] = {f"{t}@{stage}": c for (t, stage), c in failures.items()}
    details["iterations"] = log.iterations
    details["failures"] = {f"{m}:{t}@{stage}": c for (m, t, stage), c in log.failures.items()}
    details["exit_codes"] = {str(code): c for code, c in log.exit_codes.items()}
    details["digests"] = workload.digests(log)
    return RunResult(problems, log.attempted, log.failed, metrics, details)
