import sys
import types

import pytest

from fdb import evaluation
from fdb.errors import DegenerateData
from tracer import Tracer
from workloads import MEASURES, MODULES, TARGETS


def _toy_modules():
    toy = types.ModuleType("toy")
    exec(
        "import time\n"
        "def leaf():\n"
        "    time.sleep(0.002)\n"
        "def inner():\n"
        "    time.sleep(0.001)\n"
        "    leaf()\n"
        "    leaf()\n"
        "def outer():\n"
        "    inner()\n"
        "    time.sleep(0.001)\n"
        "def broken():\n"
        "    err = DegenerateData('no direction')\n"
        "    err.stage = 'depth'\n"
        "    raise err\n",
        vars(toy),
    )
    toy.DegenerateData = DegenerateData
    other = types.ModuleType("other")
    other.alias = toy.leaf
    return toy, other


def test_spans_nest_and_self_times_add_up():
    toy, other = _toy_modules()
    tracer = Tracer()
    targets = [(toy, "outer"), (toy, "inner"), (toy, "leaf")]
    with tracer.installed([toy, other], targets):
        toy.outer()
        other.alias()
    names = [s.name for s in tracer.spans]
    assert names == ["toy.outer", "toy.inner", "toy.leaf", "toy.leaf", "toy.leaf"]
    outer, inner, leaf1, leaf2, alias = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert leaf1.parent == 1 and leaf2.parent == 1
    assert alias.parent is None
    for span in tracer.spans[1:4]:
        parent = tracer.spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end

    own = tracer.self_seconds()
    duration = [s.end - s.start for s in tracer.spans]
    assert own[1] == pytest.approx(duration[1] - duration[2] - duration[3], abs=1e-12)
    assert own[0] == pytest.approx(duration[0] - duration[1], abs=1e-12)
    assert sum(own[:4]) == pytest.approx(duration[0], abs=1e-9)
    assert min(own) > 0.0

    table = tracer.summary()
    assert table["toy.leaf"]["calls"] == 3
    assert tracer.root_coverage() == pytest.approx(duration[0] + duration[4], abs=1e-9)


def test_errors_are_counted_by_type_and_stage():
    toy, _ = _toy_modules()
    tracer = Tracer()
    with tracer.installed([toy], [(toy, "broken")]):
        with pytest.raises(DegenerateData):
            toy.broken()
    assert tracer.summary()["toy.broken"]["errors"] == {("DegenerateData", "depth"): 1}


def test_memory_mode_nests_peaks():
    mod = types.ModuleType("mem")
    exec(
        "import numpy as np\n"
        "def big():\n"
        "    return float(np.ones(2_000_000).sum())\n"
        "def small():\n"
        "    return float(np.ones(1000).sum())\n"
        "def both():\n"
        "    return small() + big() + small()\n",
        vars(mod),
    )
    import tracemalloc

    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with tracer.installed([mod], [(mod, "both"), (mod, "big"), (mod, "small")]):
            mod.both()
    finally:
        tracemalloc.stop()
    table = tracer.summary()
    mib = {name: row["peak_bytes"] / 2**20 for name, row in table.items()}
    assert mib["mem.big"] == pytest.approx(15.26, rel=0.05)
    assert mib["mem.both"] >= mib["mem.big"]
    assert mib["mem.small"] < 0.1


@pytest.mark.parametrize("threads", [2, 4])
def test_parent_stacks_under_threaded_run_benchmark(threads):
    cells = [
        evaluation.BenchmarkCell("t", "cluster", 0.2, 5.0, "fdb-pro"),
        evaluation.BenchmarkCell("t", "radial", 0.2, 5.0, "fdb-l2"),
    ]
    settings = {"t": (60, 3)}
    expected = evaluation.run_benchmark(cells, 6, seed=3, threads=1, settings=settings)
    tracer = Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the wrappers
    try:
        with tracer.installed(MODULES, TARGETS, MEASURES):
            rows = evaluation.run_benchmark(cells, 6, seed=3, threads=threads, settings=settings)
    finally:
        sys.setswitchinterval(switch)
    def accuracy(rows):
        return [(r.kind, r.method, r.metric, r.mean) for r in rows if r.metric != "seconds"]

    assert accuracy(rows) == accuracy(expected)

    spans = tracer.spans
    (bench_id,) = [i for i, s in enumerate(spans) if s.name == "evaluation.run_benchmark"]
    replicates = [i for i, s in enumerate(spans) if s.name == "evaluation.run_replicate"]
    assert len(replicates) == 12
    for i in replicates:
        assert spans[i].parent == bench_id
        assert spans[i].thread != spans[bench_id].thread
    estimates = [s for s in spans if s.name == "estimators.fdb_estimate"]
    assert len(estimates) == 12
    for span in estimates:
        assert spans[span.parent].name == "evaluation.run_replicate"
        assert spans[span.parent].thread == span.thread
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    own = tracer.self_seconds()
    assert min(own) > -1e-9
    # The replicates overlap on the pool threads, so run_benchmark's own time
    # is what the union of its children leaves uncovered.
    bench = spans[bench_id]
    assert 0.0 <= own[bench_id] < bench.end - bench.start


def _bindings():
    return {(m.__name__, key): value for m in MODULES for key, value in vars(m).items()}


def test_every_binding_is_restored():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(MODULES, TARGETS, MEASURES):
            assert evaluation.run_benchmark is not before[("fdb.evaluation", "run_benchmark")]
            assert evaluation.ThreadPoolExecutor is not before[("fdb.evaluation", "ThreadPoolExecutor")]
            raise RuntimeError("leave the context early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_cover_every_binding_of_a_target():
    from fdb import applications, cli, depth, estimators

    original = depth.as_data_matrix
    tracer = Tracer()
    with tracer.installed(MODULES, TARGETS, MEASURES):
        for module in (depth, estimators, evaluation, applications):
            assert module.as_data_matrix is not original
            assert module.as_data_matrix.__wrapped__ is original
        assert cli.fdb_estimate.__wrapped__ is evaluation.fdb_estimate.__wrapped__
        assert applications.mahalanobis_sq.__wrapped__ is estimators.mahalanobis_sq.__wrapped__
