"""Tests of the benchmark's own logic: generators, span arithmetic, wrapping,
tail percentiles, calibration and scheduling. Run with
``python -m pytest perfbench/tests``."""

import json
import time
import types
from pathlib import Path

import pytest

import calibrate
import run
import tracing
import workloads


def written_bytes(name, seed, directory):
    paths = workloads.write_inputs(workloads.WORKLOADS[name].generate(seed), directory)
    return {key: path.read_bytes() for key, path in paths.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = written_bytes(name, 3, tmp_path / "a")
    again = written_bytes(name, 3, tmp_path / "b")
    other = written_bytes(name, 4, tmp_path / "c")
    assert first == again
    assert first["transactions"] != other["transactions"]


def test_catalog_serves_never_seen_customers():
    inputs = workloads.WORKLOADS["catalog"].generate(0)
    seen = {row[1] for row in inputs.transactions}
    assert inputs.extra_customers
    assert not seen.intersection(inputs.extra_customers)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("a.inner", 1.5, 2.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.late", 8.0, 11.0, 3),  # ends past its parent: only 8..9 is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 3.0, 3.0])


def test_self_time_merges_overlapping_children():
    spans = [("root", 0.0, 10.0, -1), ("x", 2.0, 6.0, 0), ("y", 4.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_metrics_split_forward_by_parent():
    spans = [
        ("objectives.train_step", 0.0, 1.0, -1),
        ("encoder.forward", 0.1, 0.3, 0),
        ("encoder.loss_and_grads", 0.3, 0.9, 0),
        ("encoder.zero_grads", 0.3, 0.4, 2),
        ("index.embed_article", 2.0, 2.5, -1),
        ("encoder.forward", 2.1, 2.4, 4),
    ]
    metrics = tracing.layer_metrics(spans, {"objectives.pairs_encoded": 8,
                                            "objectives.pairs_trained": 2})
    assert metrics["encoder.forward.train.calls"] == 1
    assert metrics["encoder.forward.embed.calls"] == 1
    assert metrics["encoder.forward.embed.busy_s"] == pytest.approx(0.3)
    assert metrics["encoder.loss_and_grads.self_s"] == pytest.approx(0.5)
    assert metrics["objectives.train_step.self_s"] == pytest.approx(0.2)
    assert metrics["objectives.pair_use_ratio"] == pytest.approx(0.25)
    assert metrics["index.query_knn.calls"] == 0
    assert metrics["index.query_knn.p50_us"] == 0


def fake_package():
    layer = types.ModuleType("fake.tokenizer")

    def encode_single(text):
        return text.upper()

    layer.encode_single = encode_single
    user = types.ModuleType("fake.cli")
    user.encode_single = encode_single  # imported by name, as cli does
    return layer, user


def test_install_wraps_imported_names_and_reports_absent_targets():
    layer, user = fake_package()
    recorder = tracing.Recorder()
    targets = {"tokenizer": ("encode_single", "encode_pair"), "encoder": ("forward",)}
    tracing.install(recorder, {"tokenizer": layer}, [layer, user], targets)
    assert recorder.absent == ["tokenizer.encode_pair", "encoder.forward"]
    assert user.encode_single("ab") == "AB"
    assert layer.encode_single("cd") == "CD"
    assert [span[0] for span in recorder.spans()] == ["tokenizer.encode_single"] * 2


def test_missing_target_reads_zero_not_error():
    recorder = tracing.Recorder()
    tracing.install(recorder, {}, [], {"index": ("query_knn",)})
    assert recorder.absent == ["index.query_knn"]
    metrics = tracing.layer_metrics(recorder.spans(), recorder.counts)
    assert metrics["index.query_knn.calls"] == 0
    assert metrics["index.query_knn.tail_us"] == 0


@pytest.mark.parametrize(
    "n, percentile, rank",
    [
        (20, 50.0, 10),   # p50 leaves exactly ten beyond
        (39, 50.0, 20),   # p75 would leave only nine
        (40, 75.0, 30),
        (100, 90.0, 90),
        (999, 95.0, 950),  # p99 would leave only nine
        (1000, 99.0, 990),
        (10_000, 99.9, 9990),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, rank):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    assert tracing.tail_percentile(values) == (percentile, float(rank))


@pytest.mark.parametrize("n", [0, 1, 19])
def test_tail_percentile_absent_below_twenty_samples(n):
    assert tracing.tail_percentile([1.0] * n) is None


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def calibrator_with(probes):
    """A Calibrator holding (start, duration, slowness) probes, never started."""
    calibrator = calibrate.Calibrator()
    for start, duration, slowness in probes:
        calibrator.starts.append(start)
        calibrator.durations.append(duration)
        calibrator.slowness.append(slowness)
    return calibrator


def test_region_subtracts_probes_inside_and_averages_neighbours():
    calibrator = calibrator_with([
        (0.0, 0.1, 1.0),
        (1.0, 0.1, 2.0),   # inside
        (2.0, 0.2, 2.0),   # inside
        (3.0, 0.1, 3.0),   # first after
        (4.0, 0.1, 9.0),   # not counted
    ])
    seconds, slowness = calibrator.region(0.5, 2.5)
    assert seconds == pytest.approx(2.0 - 0.3)
    assert slowness == pytest.approx((1.0 + 2.0 + 2.0 + 3.0) / 4)


def test_region_shorter_than_the_interval_uses_the_two_neighbours():
    calibrator = calibrator_with([(0.0, 0.1, 1.0), (1.0, 0.1, 3.0)])
    seconds, slowness = calibrator.region(0.4, 0.6)
    assert seconds == pytest.approx(0.2)
    assert slowness == pytest.approx(2.0)


def test_calibrated_seconds_divide_out_the_slowness():
    assert calibrate.calibrated(2.6, 1.3) == pytest.approx(2.0)


def test_calibrator_probes_on_its_timer(monkeypatch):
    monkeypatch.setattr(calibrate, "PYTHON_LOOPS", 10)
    calibrator = calibrate.Calibrator(interval_s=0.01)
    calibrator.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        calibrator.stop()
    assert len(calibrator.starts) >= 5  # start, stop and the timer's
    assert calibrator.starts == sorted(calibrator.starts)
    assert all(s > 0 for s in calibrator.slowness)


def reps_of(*kinds_and_walls):
    return [{"kind": kind, "wall_s": wall} for kind, wall in kinds_and_walls]


def test_untraced_order_serves_as_long_as_each_full_repetition():
    assert run.untraced_order([]) == ("full",)
    assert run.untraced_order(reps_of(("full", 9.0))) == ("serve", "full")
    assert run.untraced_order(reps_of(("full", 9.0), ("serve", 6.0))) == ("serve", "full")
    assert run.untraced_order(reps_of(("full", 9.0), ("serve", 6.0), ("serve", 3.0))) == (
        "full", "serve")
    # a serve repetition as long as the full one still runs once
    assert run.untraced_order(reps_of(("full", 3.0))) == ("serve", "full")
    assert run.untraced_order(reps_of(("full", 3.0), ("serve", 4.0))) == ("full", "serve")


def test_commands_are_sampled_after_the_same_steps():
    full = {"kind": "full", "setup_s": 0.5, "setup_slowness": 1.0, "peak_rss_mb": 60.0,
            "steps": [{"step": step, "rc": 0, "seconds": 1.0, "slowness": 2.0}
                      for step in run.FULL]}
    serve = {"kind": "serve", "setup_s": 0.5, "setup_slowness": 1.0, "peak_rss_mb": 50.0,
             "steps": [{"step": step, "rc": 0, "seconds": 3.0, "slowness": 2.0}
                       for step in run.SERVE if step != "restore"]}
    metrics = run.end_to_end([full, serve], calibrated=True)
    assert metrics["ingest_s"]["samples"] == 2
    assert metrics["train_s"]["median"] == pytest.approx(0.5)
    for name in ("recommend_cold_s", "recommend_warm_s", "evaluate_s"):
        assert metrics[name]["median"] == pytest.approx(1.5)
        assert metrics[name]["samples"] == 1
    assert metrics["pipeline_s"]["median"] == pytest.approx(2.0)
    assert metrics["peak_rss_mb"]["median"] == 60.0
    assert run.end_to_end([full], calibrated=False)["train_s"]["median"] == 1.0
