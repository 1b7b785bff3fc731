import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

INTEL = {"cpu": "Intel(R) Xeon(R) Processor", "blas": {"name": "scipy-openblas", "version": "0.3.31"}}


def runs(environment):
    # A failed run carries no environment; the first one that does counts.
    return [{"environment": None}, {"environment": environment}]


def test_same_host_gives_no_note():
    assert record_bench.host_notes({"runs": runs(INTEL)}, runs(dict(INTEL)), "BENCH_x.json") == []


def test_each_changed_field_gives_a_note():
    other = {"cpu": "AMD EPYC", "blas": {"name": "scipy-openblas", "version": "0.3.27"}}
    notes = record_bench.host_notes({"runs": runs(INTEL)}, runs(other), "BENCH_x.json")
    assert len(notes) == 2
    assert "environment.cpu differs from BENCH_x.json" in notes[0] and "'AMD EPYC' here" in notes[0]
    assert "environment.blas differs" in notes[1]


def test_missing_environment_gives_no_note():
    assert record_bench.host_notes({"runs": []}, runs(INTEL), "BENCH_x.json") == []


def test_newest_committed_bench_is_a_bench_file():
    newest = record_bench.newest_committed_bench(record_bench.ROOT)
    assert newest is None or (newest.name.startswith("BENCH_") and newest.exists())
