import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from workloads import WORKLOADS, CstepMid, SweepSmall, Wide, check_report, run

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class TinyWide(Wide):
    n, p = 120, 6
    pool_size = 1
    accuracy_iterations = 1


class TinyCstepMid(CstepMid):
    n, p = 60, 4
    n_starts = 20
    pool_size = 2
    accuracy_iterations = 1


class TinySweepSmall(SweepSmall):
    n, p = 40, 3
    replicates = 2
    accuracy_iterations = 1


TINY = {cls.name: cls for cls in (TinyWide, TinyCstepMid, TinySweepSmall)}


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_in_seconds(name, trace, tmp_path):
    t0 = time.perf_counter()
    result = run(
        TINY[name](seed=5, workdir=str(tmp_path), threads=2),
        seconds=0.0,
        trace=trace,
        layer_names=[m["name"] for m in SPEC["per_layer"]],
    )
    assert time.perf_counter() - t0 < 30.0
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for entry in declared:
        assert np.isfinite(result.metrics[entry["name"]]), entry["name"]
    if trace:
        layer = result.metrics
        assert layer["depth.projection_depth.calls"] > 0
        assert layer["depth.projection_depth.peak_mib"] > 0
        if name == "cstep-mid":
            assert layer["estimators.iterate_c_steps.iterations"] > 0
        if name == "wide":
            assert layer["cli.read_matrix_csv.self_ms"] > 0
            assert layer["estimators.c_step.calls"] == 0
            assert layer["applications.robust_pca.self_ms"] > 0
            assert layer["applications.pca_diagnostics.self_ms"] > 0
        if name == "sweep-small":
            assert layer["numeric.eigen_symmetric.calls"] > 0
            assert layer["cli.cmd_detect.self_ms"] == 0


def test_accuracy_and_digests_repeat_for_a_seed(tmp_path):
    def once():
        result = run(TinyCstepMid(seed=9, workdir=str(tmp_path), threads=1), seconds=0.0, trace=False)
        return result.details["digests"], result.metrics["fastmcd_kl"], result.metrics["fdb_pro_kl"]

    assert once() == once()


def _report(mu, sigma, subset):
    return SimpleNamespace(estimate=SimpleNamespace(mu=np.asarray(mu), sigma=np.asarray(sigma)), subset=subset)


def test_output_checks_reject_bad_estimates():
    good = _report([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]], [0, 1, 3])
    assert check_report(good, 3) == []
    assert check_report(_report([np.nan, 1.0], good.estimate.sigma, [0, 1, 3]), 3) == ["mu is not finite"]
    assert check_report(_report([0, 1], [[2.0, 0.5], [0.4, 1.0]], [0, 1, 3]), 3) == ["sigma is not symmetric"]
    assert check_report(_report([0, 1], [[1.0, 2.0], [2.0, 1.0]], [0, 1, 3]), 3) == [
        "sigma is not positive definite"
    ]
    assert len(check_report(_report([0, 1], good.estimate.sigma, [0, 1, 1]), 3)) == 1
    assert len(check_report(_report([0, 1], good.estimate.sigma, [0, 1]), 3)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
