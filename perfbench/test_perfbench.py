"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
import spans
from stats import nearest_rank, relative_spread, tail_percentile, workload_figures
from workloads import SCHEMES, CellResult, cell_seeds, poisson_arrivals

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


# -- inputs ---------------------------------------------------------------
def test_arrivals_depend_only_on_the_seed():
    first = poisson_arrivals(11, 500, 40.0)
    assert first == poisson_arrivals(11, 500, 40.0)
    assert first != poisson_arrivals(12, 500, 40.0)
    assert len(first) == 500
    assert all(a < b for a, b in zip(first, first[1:]))
    # the mean gap of 500 exponential draws lies well within 20% of 40
    assert 32.0 < first[-1] / 500 < 48.0


def test_cell_seeds_are_distinct_within_and_across_workload_seeds():
    one, two = cell_seeds(1, 2), cell_seeds(2, 2)
    assert [c.scheme for c in one] == [s for s in SCHEMES for _ in range(2)]
    seeds = [c.seed for c in one + two]
    assert len(set(seeds)) == len(seeds)
    assert cell_seeds(1, 2) == one


# -- percentiles ------------------------------------------------------------
def test_p98_of_500_samples_leaves_ten_beyond_it():
    values = [float(v) for v in range(1, 501)]
    assert nearest_rank(values, 98) == (490.0, 10)
    assert tail_percentile(list(reversed(values))) == (490.0, 10)
    assert nearest_rank(values, 50) == (250.0, 250)


def test_p98_refuses_a_sample_too_small_for_it():
    with pytest.raises(ValueError, match="at least 10"):
        tail_percentile([float(v) for v in range(499)])


def test_workload_figures_report_the_tail_sample_count():
    results = [
        CellResult("scheme0", 300, 290, 10, 29, 1000.0, tuple(range(290)), None),
        CellResult("scheme1", 300, 300, 0, 0, 1000.0, tuple(range(300)), None),
    ]
    figures = workload_figures(results)
    assert figures["resp_samples"] == 590
    assert figures["resp_p98_beyond"] == 590 - 579
    assert figures["commit_frac"] == 590 / 600
    assert figures["aborts_per_commit"] == 29 / 590
    assert figures["sim_throughput"] == 1000.0 * 590 / 2000.0


def test_host_speed_samples_first_and_then_per_program_cpu_interval():
    samples = []
    speed = run.HostSpeed(loop=lambda: samples.append(len(samples)))
    for cell_cpu in (0.05, 0.1, 0.06, 0.3, 0.01):
        speed.before_cell()
        speed.after_cell(cell_cpu)
    # sampled before cell 1, then once 0.2 s of program CPU had run
    # (after cell 3), and again after cell 4's 0.3 s
    assert samples == [0, 1, 2]
    assert speed.samples == 3


def test_host_speed_scales_by_the_reference_over_the_mean_sample():
    speed = run.HostSpeed(loop=lambda: None)
    speed.samples, speed.cpu_s, speed.wall_s = 4, 4 * run.CALIBRATION_REF_S * 2, 1.0
    # the loop ran at half the reference speed: 10 CPU s count as 5
    assert speed.ref_cpu(10.0) == pytest.approx(5.0)
    assert speed.ref_wall(3.0) == pytest.approx(3.0 * run.CALIBRATION_REF_S * 4)


def test_relative_spread_is_interquartile_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0
    )


# -- spans ----------------------------------------------------------------
def _tree():
    """events.loop [0,10] holds engine.run [1,6], which holds a nested
    engine.run [2,4] (re-entry) holding scheme2.cond [2.5,3]; and
    lmdbs.submit [7,9].  A second top-level span verify [11,12]."""
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 7.0, 9.0, 10.0, 11.0, 12.0])
    log = spans.SpanLog(clock=lambda: next(ticks))

    def begin(name, txn=""):
        return log.begin(log.name_id(name), log.txn_id(txn))

    loop = begin("events.loop")
    outer = begin("engine.run", "G1")
    inner = begin("engine.run")
    log.finish(begin("scheme2.cond", "G1"))
    log.finish(inner)
    log.finish(outer)
    log.finish(begin("lmdbs.submit", "G2"))
    log.finish(loop)
    log.finish(begin("verify"))
    return log


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()).tolist() == [3.0, 3.0, 1.5, 0.5, 2.0, 1.0]


def test_summary_counts_reentrant_spans_once_in_inclusive_time():
    summary = spans.summarize(_tree())
    assert summary["engine.run"].calls == 2
    assert summary["engine.run"].cpu_s == 5.0
    assert summary["engine.run"].self_cpu_s == 4.5
    assert summary["events.loop"].self_cpu_s == 3.0


def test_layer_self_times_add_up_to_the_covered_time():
    layers = spans.layer_self_cpu(spans.summarize(_tree()))
    assert layers["events"] == 3.0
    assert layers["engine"] == 4.5
    assert layers["scheme"] == 0.5
    assert layers["lmdbs"] == 2.0
    assert layers["verification"] == 1.0
    assert sum(layers.values()) == 11.0  # [0,10] and [11,12]


def test_spans_record_parent_and_transaction():
    log = _tree()
    assert list(log.parent) == [-1, 0, 1, 2, 0, -1]
    assert [log.txns[t] for t in log.txn] == ["", "G1", "", "G1", "G2", ""]
    assert list(log.outer) == [1, 1, 0, 1, 1, 1]


def test_written_spans_round_trip(tmp_path):
    log = _tree()
    header = json.loads(open(log.write(str(tmp_path), "t")).read())
    assert header["spans"] == 6
    assert os.path.getsize(tmp_path / "t.spans") == 6 * (4 + 4 + 4 + 1 + 8 + 8)


# -- probes on the real program ----------------------------------------------
def _small_run(scheme):
    from repro.analysis.bench import make_e4_job
    from repro.mdbs.verification import verify
    from repro.transport.base import build_simulator

    simulator = build_simulator(make_e4_job(scheme, 4, 3))
    report = simulator.run()
    assert verify(simulator.global_schedule(), simulator.ser_schedule).ok
    return report


def test_probes_change_no_decision_and_restore_the_program():
    from repro.core.engine import Engine
    from repro.core.scheme import ConservativeScheme
    from repro.mdbs import simulator

    originals = (Engine.run, ConservativeScheme.cond, simulator.plan_program)
    plain = _small_run("scheme2")
    log = spans.SpanLog()
    with spans.Probes(log):
        assert Engine.run is not originals[0]
        traced = _small_run("scheme2")
    assert (Engine.run, ConservativeScheme.cond, simulator.plan_program) == originals
    assert traced.response_times == plain.response_times
    assert traced.global_aborts == plain.global_aborts
    summary = spans.summarize(log)
    assert summary["scheme2.cond"].calls > 0
    assert summary["events.loop"].calls == 1
    assert log.counts["engine.enqueued"] > 0


# -- the benchmark's declaration ---------------------------------------------
def test_benchmark_json_declares_exactly_the_metrics_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
