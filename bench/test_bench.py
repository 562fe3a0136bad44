"""Tests of the benchmark's own code: metric names and units, the layer
trace, and the correctness checks.

    PYTHONPATH=src python -m pytest -q bench
"""

import io
import json
import math
import os
import sys
import time
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Unit  # noqa: E402

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def raw():
    """A real traced worker run of the cheapest workload: one plain and one
    traced repetition."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        worker.main(["--workload", "countable", "--seconds", "0", "--trace", "1"])
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.fixture
def measured(raw, monkeypatch):
    monkeypatch.setattr(run, "_worker", lambda root, args: raw)
    return lambda trace: run.measure(HERE, "countable", 0, 0, trace)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(measured, trace, key):
    result, lines = measured(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC[key]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert len(result["metrics"]) == len(SPEC[key])
    report = "\n".join(lines)
    for name in ("solve_s", "bracket_width", "setup_s", "peak_rss_mb", "failed_frac"):
        assert name in report


def test_end_to_end_metrics_are_never_zero(measured):
    result, _ = measured(0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metrics_are_measured(raw):
    layers = raw["layers"]
    assert set(layers) | {"scenarios.build_s", "trace.solve_s",
                          "trace.overhead_frac"} == set(run.units("per_layer"))
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["pressure.tail_s"] > 0  # the CF ladders call truncation_ladder
    assert layers["perturb.rows"] == 0
    assert layers["maps.derivative_range_calls"] > 0  # from the counting repetition
    assert raw["wall_s"] and all(t > 0 for t in raw["solve_s"] + raw["traced_s"])


def test_meter_corrects_for_host_speed():
    with speed.Meter(period=0.005) as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert meter.wall >= 0.1 and len(meter.samples) >= 3
    assert 0 < meter.spent < meter.wall
    assert meter.seconds == pytest.approx(
        (meter.wall - meter.spent) * speed.REFERENCE_S
        / (sum(meter.samples) / len(meter.samples)))


def test_tracer_restores_the_package():
    import gifsdim

    before = (gifsdim.pressure.build_weighted_matrix,
              gifsdim.maps.derivative_range_over_set,
              gifsdim.dimension.truncation_ladder)
    family = gifsdim.cf_family((1, 2), (1, 2, 3))
    tracer, counter = spans.Tracer(), spans.Tracer()
    try:
        api = spans.install(tracer, gifsdim)
        records = api["dimension_sweep"](family, [0.5], s_tol=1e-2)
    finally:
        tracer.restore()
    try:
        spans.install_counters(counter, gifsdim)
        gifsdim.dimension_sweep(family, [0.5], s_tol=1e-2)
    finally:
        counter.restore()
    after = (gifsdim.pressure.build_weighted_matrix,
             gifsdim.maps.derivative_range_over_set,
             gifsdim.dimension.truncation_ladder)
    assert after == before
    metrics = spans.layer_metrics(tracer)
    assert metrics["perturb.rows"] == len(records) == 2
    assert 0 < metrics["perturb.row_s_max"]
    assert metrics["pressure.geometry_calls"] > 0 and not spans.count_metrics(tracer)[
        "maps.derivative_range_calls"]  # the timed repetition counts no maps calls
    assert spans.count_metrics(counter)["maps.derivative_range_calls"] > 0
    assert not counter.spans
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_params_come_from_the_seed():
    for wl in WORKLOADS.values():
        assert wl.params(7) == wl.params(7)
    assert WORKLOADS["sweep"].params(5)["epsilons"] == (0.25, 0.125, 0.0625)


def test_cf_wide_letters_keep_letter_one():
    import gifsdim

    for seed in range(4):
        letters = WORKLOADS["cf-wide"].build(gifsdim, {"seed": seed}).letters(100)
        assert len(set(letters)) == 36 and complex(1, 0) in letters


def test_check_trips_when_the_bracket_excludes_its_reference():
    below = Unit("cf-deep", 0.5310, 0.5312, 1e-5)
    assert WORKLOADS["cf-deep"].check([below], {}, None) != [[]]
    around = Unit("cf-deep", 0.5312, 0.5313, 1e-5)
    assert WORKLOADS["cf-deep"].check([around], {}, None) == [[]]

    assert checks.consistent("ladder", 0.50, 0.55, checks.LADDER_FLOOR,
                             checks.LADDER_CEILING)
    assert checks.consistent("ladder", 0.70, 0.71, checks.LADDER_FLOOR,
                             checks.LADDER_CEILING)
    assert not checks.consistent("ladder", 0.63, 0.69, checks.LADDER_FLOOR,
                                 checks.LADDER_CEILING)


def test_sweep_check_flags_the_failing_row():
    good = [(0.0, 0.5311, 0.5313, "ok"), (0.25, 0.6177, 0.6178, "ok"),
            (0.125, 0.5931, 0.5932, "ok"), (0.0625, 0.5756, 0.5757, "ok")]
    assert checks.sweep_rows(good) == [[], [], [], []]
    shifted = [(0.0, 0.5314, 0.5316, "ok")] + good[1:]
    assert checks.sweep_rows(shifted)[0]
    diverging = good[:3] + [(0.0625, 0.70, 0.7001, "ok")]
    assert [bool(p) for p in checks.sweep_rows(diverging)] == [False, False, False, True]
    raised = good[:1] + [(0.25, math.nan, math.nan, "IrregularSystem")] + good[2:]
    assert checks.sweep_rows(raised)[1]


def test_ladder_check_flags_inconsistent_exponents():
    ok = {1.25: [(0.1, 0.5), (0.2, 0.4), (0.2, 2.0)],
          1.5: [(-0.2, 0.1), (0.0, 0.2), (0.0, 1.0)]}
    assert checks.ladder_consistent("cf", ok) == []
    bad = {1.25: [(0.1, 0.5), (0.2, 0.4), (0.2, 0.3)],
           1.5: [(0.0, 0.6), (0.5, 0.6), (0.5, 1.0)]}
    assert checks.ladder_consistent("cf", bad)
