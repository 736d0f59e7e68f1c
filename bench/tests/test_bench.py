"""Tests of the benchmark itself: tracing, the seeded generator and the
correctness gate. Run with `python3 -m pytest bench/tests`."""

import inspect
import json
import sys

import pytest

import checks
import hostspeed
import tracer as tracing
import worker
import workloads
from tatesplice import freecomplex, harness, homotopy, tate
from time import perf_counter

SMALL = [item for item in workloads.LADDER if item[0] in ("t", "h", "c")]


def build_text(doc):
    return harness.dump_output(harness.run_build(harness.ProblemInstance.from_doc(doc)))


def traced_pass(instances):
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        for _, doc in instances:
            harness.run_verify(json.loads(build_text(doc)))
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_exactly():
    first, second = traced_pass(SMALL), traced_pass(SMALL)
    assert first.calls == second.calls
    assert first.counters == second.counters
    assert len(first.pieces) == len(second.pieces)
    counts = [
        {k: v for k, (v, unit) in tracing.layer_metrics(t, 0.0, 0.0).items() if unit == "count"}
        for t in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["freecomplex.graded_piece_calls"] > 0


def test_every_binding_of_a_wrapped_function_is_wrapped():
    originals = {}
    for layer in tracing.LAYERS:
        mod = sys.modules[f"tatesplice.{layer}"]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and f"{layer}.{attr}" not in tracing.SKIP
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                originals[id(obj)] = obj
    original_piece = freecomplex.graded_piece
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        for mod in tracing._package_modules():
            for attr, obj in vars(mod).items():
                assert originals.get(id(obj)) is not obj, f"{mod.__name__}.{attr} not wrapped"
        assert tate.graded_piece is homotopy.graded_piece is freecomplex.graded_piece
        complex_ = freecomplex.complex_from_doc(json.loads(build_text(SMALL[0][1]))["tate"])
        before = tracer.calls.get("freecomplex.graded_piece", 0)
        for binding in (tate, homotopy, freecomplex):
            binding.graded_piece(complex_.diff(1), 2)
        assert tracer.calls["freecomplex.graded_piece"] == before + 3
    finally:
        tracer.uninstall()
    assert tate.graded_piece is homotopy.graded_piece is original_piece


def test_layer_metrics_are_the_declared_per_layer_metrics():
    with open(worker.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    measured = {k: unit for k, (_, unit) in tracing.layer_metrics(traced_pass(SMALL[:1]), 0.0, 0.0).items()}
    assert measured == declared


def test_seeded_generator_repeats():
    assert workloads.generic_doc(5) == workloads.generic_doc(5)
    assert workloads.generic_doc(5) != workloads.generic_doc(6)
    assert workloads.instances("generic", 7) == workloads.instances("generic", 7)
    assert len(workloads.generic_doc(1)["g"][3].split(" + ")) == 35


def test_closed_form_count_matches_the_ladder():
    assert [checks.expected_mcm_count(n, c) for n, c in ((2, 2), (2, 1), (3, 2), (4, 1), (5, 2))] == [
        1, 2, 2, 8, 13,
    ]


def checked(label, text, run):
    """The output of one build and one verify, numbered as operations of `run`."""
    run.attempted += 2
    return (label, text, run.attempted - 1, [(run.attempted, harness.run_verify(json.loads(text)))])


def gate(label, text):
    run = worker.WorkloadRun("ladder", 1, {})
    run.check([checked(label, text, run)])
    run.check_oracle()
    return run


@pytest.mark.parametrize("label, doc", SMALL)
def test_gate_passes_a_good_build(label, doc):
    run = gate(label, build_text(doc))
    assert run.problems == []


def test_gate_counts_a_corrupted_document():
    label, doc = SMALL[2]
    out = json.loads(build_text(doc))
    rows = out["tate"]["diffs"]["1"]
    r, c = next((r, c) for r, row in enumerate(rows) for c, e in enumerate(row) if e != "0")
    rows[r][c] = "0"
    run = gate(label, harness.dump_output(out))
    assert run.report()["failed"] >= 1


def test_gate_counts_bytes_that_differ_between_builds():
    label, doc = SMALL[0]
    text = build_text(doc)
    run = gate(label, text)
    run.check([checked(label, text.replace("\n", "\n ", 1), run)])
    report = run.report()
    assert any("different bytes" in p for p in report["problems"])
    assert (report["attempted"], report["failed"]) == (4, 1)


def test_host_clock_leaves_out_probe_time_and_scales_by_the_mean_probe():
    clock = hostspeed.HostClock()
    mark = clock.mark()
    assert clock.factor(mark) == 1.0
    clock.start()
    try:
        while perf_counter() - mark[0] < 3 * hostspeed.PERIOD:
            pass
    finally:
        clock.stop()
    elapsed, end = clock.elapsed(mark), perf_counter()
    assert len(clock.samples) >= 2
    assert clock.spent == pytest.approx(sum(clock.samples))
    assert elapsed == pytest.approx(end - mark[0] - clock.spent, abs=0.01)
    mean = sum(clock.samples) / len(clock.samples)
    assert clock.factor(mark) == pytest.approx(hostspeed.REFERENCE_S / mean)
