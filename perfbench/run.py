"""Goodput-first benchmark of the simulated multidatabase.

    python3 perfbench/run.py --workload contended-waves --seed 1 \\
        --seconds 32 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source
checkout, against the ``repro`` package in its ``src/``:

0. the run re-executes itself under ``PYTHONHASHSEED=0``: string
   hashing moved the set-up time by 25–30% from one process to the next.
1. *set-up*, repeated ``SETUP_REPEATS`` times: import ``repro`` afresh,
   generate the workload's inputs from ``--seed``, build the
   simulators.  ``setup_s`` is the median, in reference seconds (see
   below), with the calibration loop timed before every set-up.
2. *timed phase*: run every cell (simulate and verify), and repeat the
   whole pass, on freshly built simulators, while another one fits in
   ``--seconds``.  Every cell is checked against ground truth; a
   violation exits 1 with no result.  Repeated passes must reproduce
   the first exactly.  Between cells, a fixed calibration loop that
   runs no ``repro`` code is timed (``HostSpeed``): the host runs
   slow or fast in phases of seconds to minutes, and the timings are
   reported in *reference seconds*, scaled by how long the loop took
   against the time it takes on the reference machine.
3. with ``--trace 1``, one more pass with the layer probes of
   ``spans.py`` installed.  It must reach the same figures as the
   untraced passes; its spans give the per-layer metrics and are
   written to ``.perfbench-out/`` in the checkout.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (global transactions submitted, and
permanently failed, in one pass: every pass replays the same ones) and
``metrics`` — the end-to-end metrics untraced, the per-layer metrics
traced.  Exit code 2 means the checkout has no importable ``repro``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

import spans
from stats import nearest_rank, workload_figures
from workloads import SCHEMES, WORKLOADS, CorrectnessError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 5
#: the calibration loop's iterations, and its CPU seconds on the
#: reference machine (2-vCPU Intel Xeon, Python 3.11.7) when fast
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_REF_S = 0.026
#: program CPU seconds between two calibration samples
CALIBRATE_EVERY_S = 0.2
#: the hash seed every run executes under
HASH_SEED = "0"
#: the traced pass fails if more of its CPU than this share is covered
#: by no span
UNATTRIBUTED_BOUND = 0.10
#: modules the workloads call into, imported as part of set-up
REPRO_MODULES = (
    "repro",
    "repro.analysis.bench",
    "repro.faults.chaos",
    "repro.mdbs.verification",
    "repro.transport.base",
)
#: figures that must be identical in every pass of one seed
DETERMINISTIC = (
    "commit_frac",
    "aborts_per_commit",
    "resp_p50",
    "resp_p98",
    "sim_throughput",
)

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("goodput", "txn/ref_cpu_s"),
    ("wall_s", "ref_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("commit_frac", "ratio"),
    ("aborts_per_commit", "ratio"),
    ("resp_p50", "sim_time"),
    ("resp_p98", "sim_time"),
    ("sim_throughput", "txn/ksim_time"),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    count, cpu, ratio, sim = "count", "s", "ratio", "sim_time"
    rows: List[Tuple[str, str]] = [
        ("events.executed", count),
        ("events.scheduled", count),
        ("events.loop_self_cpu_s", cpu),
        ("sim.incarnations", count),
        ("sim.watchdog_aborts", count),
        ("sim.watchdog.site_components.calls", count),
        ("sim.watchdog.site_components.cpu_s", cpu),
        ("gtm.plan_program.calls", count),
        ("gtm.plan_program.cpu_s", cpu),
        ("gtm.site_components.calls", count),
        ("gtm.site_components.cpu_s", cpu),
        ("engine.run.calls", count),
        ("engine.run.self_cpu_s", cpu),
        ("engine.enqueued", count),
        ("engine.purges", count),
        ("engine.purge.cpu_s", cpu),
        ("engine.wait_set_mean", "ops"),
        ("engine.cond_grant_ratio", ratio),
    ]
    for scheme in SCHEMES:
        rows += [
            (f"{scheme}.cond.calls", count),
            (f"{scheme}.cond.cpu_s", cpu),
            (f"{scheme}.act.cpu_s", cpu),
            (f"{scheme}.steps", count),
            (f"{scheme}.graph_ops", count),
        ]
    rows += [
        ("tsgd.eliminate_cycles.calls", count),
        ("tsgd.eliminate_cycles.cpu_s", cpu),
        ("tsgd.delta_edges", count),
        ("lmdbs.submit.calls", count),
        ("lmdbs.submit.cpu_s", cpu),
        ("lmdbs.submit.blocked_ratio", ratio),
        ("lmdbs.submit.aborted_ratio", ratio),
        ("lmdbs.abort.calls", count),
        ("lmdbs.lock_release_all.cpu_s", cpu),
        ("lmdbs.local_aborts", count),
        ("server.links", count),
        ("server.submit.calls", count),
        ("faults.message_fates.calls", count),
        ("faults.retries", count),
        ("faults.timeouts", count),
        ("faults.messages_dropped", count),
        ("faults.duplicate_deliveries_suppressed", count),
        ("recovery.recover_engine.calls", count),
        ("recovery.recover_engine.cpu_s", cpu),
        ("commit.prepare.calls", count),
        ("commit.decide.calls", count),
        ("commit.indoubt_p50", sim),
        ("commit.indoubt_max", sim),
        ("commit.latency_p50", sim),
        ("replication.snapshot_reads", count),
        ("replication.reads_routed", count),
        ("replication.route_retries", count),
        ("replication.stale_reads_refused", count),
        ("verify.cpu_s", cpu),
        ("verify.checks_cpu_s", cpu),
        ("verify.schedule_ops", count),
        ("workloads.generate_s", cpu),
    ]
    rows += [(f"layer.{layer}.self_cpu_s", cpu) for layer in spans.LAYER_NAMES]
    rows += [
        ("trace.overhead_frac", ratio),
        ("trace.unattributed_frac", ratio),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


class NoProgram(Exception):
    """The checkout holds no importable ``repro``."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, afresh: modules of
    an earlier import are dropped first, so every call pays the whole
    import."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    try:
        for name in REPRO_MODULES:
            importlib.import_module(name)
    except ImportError as error:
        raise NoProgram(f"cannot import repro from {SRC}: {error}") from error
    location = os.path.abspath(sys.modules["repro"].__file__ or "")
    if not location.startswith(SRC + os.sep):
        raise NoProgram(f"repro imported from {location}, not from {SRC}")


def set_up(workload, cells):
    """One set-up: import, generate, build; returns the built cells and
    the three timings."""
    started = time.perf_counter()
    import_repro()
    imported = time.perf_counter()
    inputs = workload.generate(cells)
    generated = time.perf_counter()
    built = workload.build(inputs)
    done = time.perf_counter()
    return built, (imported - started, generated - imported, done - generated)


def calibration_loop() -> None:
    """Interpreter work that touches no ``repro`` code: the yardstick the
    host's momentary speed is read from."""
    totals: Dict[int, int] = {}
    for index in range(CALIBRATION_ITERATIONS):
        key = index % 5000
        totals[key] = totals.get(key, 0) + index


class HostSpeed:
    """Times :func:`calibration_loop` once before the first cell and then
    after every :data:`CALIBRATE_EVERY_S` of program CPU, so the samples
    cover the same moments as the program.  A time is converted to
    reference seconds by the ratio of :data:`CALIBRATION_REF_S` to the
    loop's mean time."""

    def __init__(self, loop=calibration_loop) -> None:
        self.loop = loop
        self.samples = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.due = True
        self.program_cpu_s = 0.0

    def sample(self) -> None:
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        self.loop()
        self.wall_s += time.perf_counter() - wall_started
        self.cpu_s += time.process_time() - cpu_started
        self.samples += 1

    def before_cell(self) -> None:
        if self.due:
            self.due = False
            self.sample()

    def after_cell(self, cpu_s: float) -> None:
        self.program_cpu_s += cpu_s
        if self.program_cpu_s >= CALIBRATE_EVERY_S:
            self.program_cpu_s = 0.0
            self.due = True

    def ref_cpu(self, cpu_s: float) -> float:
        return cpu_s * CALIBRATION_REF_S * self.samples / self.cpu_s

    def ref_wall(self, wall_s: float) -> float:
        return wall_s * CALIBRATION_REF_S * self.samples / self.wall_s


def timed_pass(workload, built: List, speed=None) -> Tuple[List, float, float]:
    """Execute every built cell; CPU and elapsed seconds cover only the
    simulate-and-verify calls.  *speed*, if given, samples the host
    between cells."""
    results = []
    cpu = wall = 0.0
    for index in range(len(built)):
        cell, built[index] = built[index], None
        if speed is not None:
            speed.before_cell()
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        results.append(workload.execute(cell))
        cell_wall = time.perf_counter() - wall_started
        cell_cpu = time.process_time() - cpu_started
        wall += cell_wall
        cpu += cell_cpu
        if speed is not None:
            speed.after_cell(cell_cpu)
    return results, cpu, wall


def _sum_report(results, field: str) -> int:
    return sum(getattr(r.report, field) for r in results)


def _sum_stats(results, stats_field: str, field: str) -> int:
    total = 0
    for result in results:
        stats = getattr(result.report, stats_field)
        if stats is not None:
            total += getattr(stats, field)
    return total


def _p50(values) -> float:
    return nearest_rank(values, 50)[0] if values else 0.0


def layer_metrics(log, results, cpu_s, wall_s, untraced_wall_s, generate_s):
    """The per-layer metrics of one traced pass."""
    summaries = spans.summarize(log)
    counts = log.counts

    def span(name):
        return summaries.get(name, spans.SpanSummary())

    layers = spans.layer_self_cpu(summaries)
    covered = sum(
        end - start
        for start, end, parent in zip(log.start, log.end, log.parent)
        if parent < 0
    )
    unattributed = cpu_s - covered
    # layer-sum check: self times, summed per layer, must add up to the
    # CPU the top-level spans cover, which the pass's CPU bounds
    if abs(sum(layers.values()) + unattributed - cpu_s) > 1e-6 * max(cpu_s, 1.0):
        raise CorrectnessError(
            f"layer self CPU {sum(layers.values()):.6f} s + unattributed "
            f"{unattributed:.6f} s != traced CPU {cpu_s:.6f} s"
        )
    if unattributed < -0.01 * cpu_s or unattributed > UNATTRIBUTED_BOUND * cpu_s:
        raise CorrectnessError(
            f"{unattributed:.3f} s of {cpu_s:.3f} traced CPU seconds covered "
            f"by no span (bound {UNATTRIBUTED_BOUND:.0%})"
        )
    submits = span("lmdbs.submit").calls
    wait_samples = _sum_report(results, "wait_samples")
    indoubt = [t for r in results for t in r.report.in_doubt_times]
    latencies = [t for r in results for t in r.report.commit_latencies]
    by_scheme: Dict[str, List] = {scheme: [] for scheme in SCHEMES}
    for result in results:
        by_scheme[result.scheme].append(result)
    values = {
        "events.executed": _sum_report(results, "events_executed"),
        "events.scheduled": counts["events.scheduled"],
        "events.loop_self_cpu_s": span("events.loop").self_cpu_s,
        "sim.incarnations": counts["sim.incarnations"],
        "sim.watchdog_aborts": _sum_report(results, "watchdog_aborts"),
        "sim.watchdog.site_components.calls": span("sim.watchdog.site_components").calls,
        "sim.watchdog.site_components.cpu_s": span("sim.watchdog.site_components").cpu_s,
        "gtm.plan_program.calls": span("gtm.plan_program").calls,
        "gtm.plan_program.cpu_s": span("gtm.plan_program").cpu_s,
        "gtm.site_components.calls": span("gtm.site_components").calls,
        "gtm.site_components.cpu_s": span("gtm.site_components").cpu_s,
        "engine.run.calls": span("engine.run").calls,
        "engine.run.self_cpu_s": span("engine.run").self_cpu_s,
        "engine.enqueued": counts["engine.enqueued"],
        "engine.purges": span("engine.purge").calls,
        "engine.purge.cpu_s": span("engine.purge").cpu_s,
        "engine.wait_set_mean": (
            _sum_report(results, "wait_area") / wait_samples if wait_samples else 0.0
        ),
        "engine.cond_grant_ratio": (
            counts["engine.conds_granted"] / counts["engine.conds_evaluated"]
            if counts["engine.conds_evaluated"]
            else 0.0
        ),
    }
    for scheme, own in by_scheme.items():
        values[f"{scheme}.cond.calls"] = span(f"{scheme}.cond").calls
        values[f"{scheme}.cond.cpu_s"] = span(f"{scheme}.cond").cpu_s
        values[f"{scheme}.act.cpu_s"] = span(f"{scheme}.act").cpu_s
        values[f"{scheme}.steps"] = _sum_report(own, "scheme_steps")
        values[f"{scheme}.graph_ops"] = _sum_report(own, "graph_ops")
    values.update(
        {
            "tsgd.eliminate_cycles.calls": span("tsgd.eliminate_cycles").calls,
            "tsgd.eliminate_cycles.cpu_s": span("tsgd.eliminate_cycles").cpu_s,
            "tsgd.delta_edges": counts["tsgd.delta_edges"],
            "lmdbs.submit.calls": submits,
            "lmdbs.submit.cpu_s": span("lmdbs.submit").cpu_s,
            "lmdbs.submit.blocked_ratio": (
                counts["lmdbs.submit.blocked"] / submits if submits else 0.0
            ),
            "lmdbs.submit.aborted_ratio": (
                counts["lmdbs.submit.aborted"] / submits if submits else 0.0
            ),
            "lmdbs.abort.calls": span("lmdbs.abort").calls,
            "lmdbs.lock_release_all.cpu_s": span("lmdbs.lock_release_all").cpu_s,
            "lmdbs.local_aborts": _sum_report(results, "local_aborts"),
            "server.links": counts["server.links"],
            "server.submit.calls": span("server.submit").calls,
            "faults.message_fates.calls": counts["faults.message_fates.calls"],
            "faults.retries": _sum_stats(results, "fault_stats", "retries"),
            "faults.timeouts": _sum_stats(results, "fault_stats", "timeouts"),
            "faults.messages_dropped": _sum_stats(
                results, "fault_stats", "messages_dropped"
            ),
            "faults.duplicate_deliveries_suppressed": _sum_stats(
                results, "fault_stats", "duplicate_deliveries_suppressed"
            ),
            "recovery.recover_engine.calls": span("recovery.recover_engine").calls,
            "recovery.recover_engine.cpu_s": span("recovery.recover_engine").cpu_s,
            "commit.prepare.calls": span("commit.prepare").calls,
            "commit.decide.calls": span("commit.decide").calls,
            "commit.indoubt_p50": _p50(indoubt),
            "commit.indoubt_max": max(indoubt, default=0.0),
            "commit.latency_p50": _p50(latencies),
            "verify.cpu_s": layers["verification"],
            "verify.checks_cpu_s": sum(
                span(f"verify.{check}").cpu_s
                for check in (
                    "exactly_once",
                    "atomicity",
                    "replicas",
                    "decision_uniqueness",
                )
            ),
            "verify.schedule_ops": counts["verify.schedule_ops"],
            "workloads.generate_s": generate_s,
            "trace.overhead_frac": wall_s / untraced_wall_s - 1.0,
            "trace.unattributed_frac": unattributed / cpu_s,
        }
    )
    for field in (
        "snapshot_reads",
        "reads_routed",
        "route_retries",
        "stale_reads_refused",
    ):
        values[f"replication.{field}"] = _sum_stats(results, "replication", field)
    for layer, seconds in layers.items():
        values[f"layer.{layer}.self_cpu_s"] = seconds
    return values


def _metrics(table, values) -> Dict[str, Dict[str, object]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in table}


def _deterministic(figures) -> Dict[str, float]:
    return {name: figures[name] for name in DETERMINISTIC}


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[workload_name]
    cells = workload.cells(seed)
    setups = []
    setup_speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_speed.sample()
        built, timings = set_up(workload, cells)
        setups.append(timings)

    first = None
    passes = 0
    cpu_s = wall_s = 0.0
    speed = HostSpeed()
    started = time.perf_counter()
    while True:
        gc.collect()
        results, cpu, wall = timed_pass(workload, built, speed)
        figures = workload_figures(results)
        if first is None:
            first = figures
        elif _deterministic(figures) != _deterministic(first):
            raise CorrectnessError(
                f"pass {passes + 1} reached {_deterministic(figures)}, "
                f"pass 1 {_deterministic(first)}"
            )
        passes += 1
        cpu_s += cpu
        wall_s += wall
        spent = time.perf_counter() - started
        if spent * (passes + 1) / passes > seconds:
            break
        built = workload.build(workload.generate(cells))

    print(
        f"{workload_name} seed {seed}: {len(cells)} cells x {passes} "
        f"pass(es); {first['committed']}/{first['submitted']} committed, "
        f"{first['failed']} failed; p98 of {first['resp_samples']} responses "
        f"leaves {first['resp_p98_beyond']} beyond it; per pass "
        f"{cpu_s / passes:.3f} CPU s, {wall_s / passes:.3f} s elapsed; "
        f"calibration loop {speed.cpu_s / speed.samples:.4f} CPU s "
        f"(reference {CALIBRATION_REF_S}) over {speed.samples} samples"
    )
    # every pass replays the same globals: one pass's count is the
    # number of operations, and it depends on the seed only
    attempted, failed = first["submitted"], first["failed"]
    if not trace:
        values = dict(_deterministic(first))
        values.update(
            goodput=first["committed"] * passes / speed.ref_cpu(cpu_s),
            wall_s=speed.ref_wall(wall_s) / passes,
            setup_s=setup_speed.ref_wall(statistics.median(sum(t) for t in setups)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return attempted, failed, _metrics(END_TO_END, values)

    built = workload.build(workload.generate(cells))
    log = spans.SpanLog()
    gc.collect()
    with spans.Probes(log):
        results, traced_cpu_s, traced_wall_s = timed_pass(workload, built)
    figures = workload_figures(results)
    if _deterministic(figures) != _deterministic(first):
        raise CorrectnessError(
            f"traced pass reached {_deterministic(figures)}, "
            f"untraced {_deterministic(first)}"
        )
    values = layer_metrics(
        log,
        results,
        traced_cpu_s,
        traced_wall_s,
        wall_s / passes,
        statistics.median(t[1] for t in setups),
    )
    header = log.write(TRACE_DIR, f"{workload_name}-seed{seed}")
    print(f"{len(log)} spans written to {os.path.relpath(header, ROOT)}")
    return attempted, failed, _metrics(PER_LAYER, values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        attempted, failed, metrics = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except NoProgram as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except CorrectnessError as error:
        print(f"correctness violation: {error}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing lays out every dict and set: pinned, one process
        # times like the next (decisions never depend on it)
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    sys.exit(main())
