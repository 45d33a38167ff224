"""Tests of the benchmark itself: generator, self-time arithmetic, smoke runs.

Run with ``python3 -m pytest bench/tests``.
"""

import importlib
import json

import pytest

import run as bench_run
from instances import WORKLOADS, generate, write_instances
from tracing import Tracer, self_times

from artinsigma import graph_from_dict, validate_even, validate_fc

BENCHMARK = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_instance_files(name, tmp_path):
    w = WORKLOADS[name]
    first = write_instances(w, 7, tmp_path / "a", 3)
    second = write_instances(w, 7, tmp_path / "b", 3)
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert generate(w, 7, 0) != generate(w, 8, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_graphs_are_even_and_fc(name):
    w = WORKLOADS[name]
    for index in range(20):
        doc = generate(w, 3, index)
        g = graph_from_dict(doc["graph"])
        assert validate_even(g).ok and validate_fc(g).ok
        assert any(doc["character"].values())
        assert all(w.values[0] <= x <= w.values[1] for x in doc["character"].values())


def test_self_time_subtracts_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.x", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.x", 5.0, 7.0, 3, 0],
        ["b.y", 6.0, 8.0, 3, 0],    # overlaps b.x: the union 5..8 is covered
        ["other", 20.0, 21.0, -1, 1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0]


def test_tracer_rebinds_copied_names_and_restores_them():
    cli = importlib.import_module("artinsigma.cli")
    conditions = importlib.import_module("artinsigma.conditions")
    originals = (conditions.reduced_homology, cli.sigma_verdict)
    tracer = Tracer()
    tracer.install()
    try:
        assert conditions.reduced_homology is not originals[0]
        assert cli.sigma_verdict is not originals[1]
    finally:
        tracer.uninstall()
    assert (conditions.reduced_homology, cli.sigma_verdict) == originals


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "MIN_COMMANDS", 3)
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    monkeypatch.setattr(bench_run, "POOL", 3)
    args = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", trace]
    assert bench_run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_records_each_workload():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
