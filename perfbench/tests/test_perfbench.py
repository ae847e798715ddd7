"""Tests of the benchmark itself, on configs small enough to run in seconds.

    python -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from randcurve import covers, stats  # noqa: E402
from randcurve.stats import ExperimentConfig  # noqa: E402

TINY = {
    "self-int": ExperimentConfig(experiment="self-int", n_grid=(4, 12, 150),
                                 samples=12, seed=3),
    "fixed-curve-int": ExperimentConfig(experiment="fixed-curve-int",
                                        n_grid=(6, 10), samples=10, seed=3),
    "lifting": ExperimentConfig(experiment="lifting", n_grid=(6, 10),
                                samples=6, seed=3, d_max=4),
    "spiral": ExperimentConfig(experiment="spiral", n_grid=(30,), samples=6,
                               seed=3),
    "minimizer": ExperimentConfig(experiment="minimizer", n_grid=(12,),
                                  samples=3, seed=3),
    "conj-ball": ExperimentConfig(experiment="conj-ball", n_grid=(4, 5),
                                  samples=1),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture
def out(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "OUT", tmp_path)
    return tmp_path


def bound_objects():
    found = {}
    for module, path, *_ in tracing.TARGETS:
        owner = sys.modules[module]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        found[(module, path)] = vars(owner)[attr]
    return found


def test_digest_check_catches_perturbed_output(out, monkeypatch):
    m = worker.Measurement("tiny", [TINY],
                           reference=[worker.run_pass(TINY, "tiny")[1]])
    original = stats.self_intersection
    monkeypatch.setattr(stats, "self_intersection",
                        lambda p: original(p) + 1)
    m.run()
    assert "input set 0 self-int: digest differs from the recorded " \
        "reference" in m.failures
    assert m.failed >= 1


def test_traced_pass_restores_names_and_keeps_digests(out):
    before = bound_objects()
    m = worker.Measurement("tiny", [TINY])
    plain = [m.run()]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(bound_objects()[k] is not v for k, v in before.items())
    try:
        traced = [m.run(0, tracer)]
    finally:
        tracer.restore()
    assert all(bound_objects()[k] is v for k, v in before.items())
    assert m.failures == [] and m.attempted == 2 * len(TINY)
    assert tracer.absent == {}
    metrics, absent = worker.traced_metrics(tracer, plain, traced, 1.0)
    assert tracing.span_problems(tracer) == []
    sample_ids = {s[5] for s in tracer.spans
                  if tracer.names[s[1]] == "stats.sample"}
    assert len(sample_ids) == metrics["stats.sample.count"][0] > 0
    for name in ("covers.simple_lifting_degree.self_s",
                 "fricke.minimize_length.us_per_iteration",
                 "intersect.self_intersection.us_per_call.L64-511"):
        assert name not in absent and metrics[name][0] > 0


def test_metric_names_are_valid_and_declared(out):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    layer, _ = worker.traced_metrics(tracer, [1.0], [1.0], 1.0)
    e2e = run.end_to_end({"wall_s": 1.0, "peak_rss_mb": 1.0}, [1.0])
    assert sorted(layer) == sorted(m["name"] for m in declared["per_layer"])
    assert sorted(e2e) == sorted(m["name"] for m in declared["end_to_end"])
    for m in declared["per_layer"] + declared["end_to_end"]:
        assert NAME.match(m["name"]), m["name"]
        produced = layer.get(m["name"]) or (None, e2e[m["name"]]["unit"])
        assert produced[1] == m["unit"], m["name"]


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(covers, "linked_pair_matrix")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert not hasattr(covers, "linked_pair_matrix")
    _, absent = tracing.layer_metrics(tracer, 1)
    assert "no longer exists" in \
        absent["intersect.linked_pair_matrix.ms_per_call"]


def test_fails_without_result_when_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "short-words",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_check_catches_spans_that_do_not_nest():
    tracer = tracing.Tracer()
    root = tracer.wrap(lambda: child() + child(), tracing.ROOT_SPAN)
    child = tracer.wrap(lambda: 1, "child")
    root()
    assert tracing.span_problems(tracer) == []
    # stretch the first child past the start of its sibling and its parent
    first = tracer.spans[0]
    tracer.spans[0] = first[:3] + (tracer.spans[2][3] + 1,) + first[4:]
    problems = tracing.span_problems(tracer)
    assert any("outside its parent" in p for p in problems)
    assert any("overlaps a sibling" in p for p in problems)
