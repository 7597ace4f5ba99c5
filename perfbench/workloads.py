"""The benchmark's three workloads, generated from the workload seed.

Each workload is a fixed list of *cells*: one cell is one simulation
(a scheme, a sub-seed and the inputs generated from it) that is run to
completion and checked against ground truth.  Every scheme of
``SCHEMES`` gets its own distinct sub-seeds, so a workload aggregates
independent draws instead of five runs of one draw; that keeps the
aggregate figures steady from one workload seed to the next.

The program only ever sees the generated jobs.  All ``repro`` imports
are deferred to call time, because the set-up measurement re-imports
the package (see ``run.py``).
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

SCHEMES: Tuple[str, ...] = ("scheme0", "scheme1", "scheme2", "scheme3", "scheme4")

#: contended-waves: the E14 cell at MPL 32 (``make_e4_job``)
WAVES_MPL = 32
WAVES_SEEDS_PER_SCHEME = 12

#: open-mixed: sites cycle these local protocols
OPEN_PROTOCOLS: Tuple[str, ...] = (
    "strict-2pl",
    "to",
    "conservative-2pl",
    "sgt",
    "occ",
    "wound-wait-2pl",
)
OPEN_SITES = 8
OPEN_ITEMS_PER_SITE = 400
OPEN_DAV = 2.5
OPEN_OPS_PER_SITE = 3
OPEN_READ_FRACTION = 0.7
OPEN_GLOBALS = 400
#: mean Poisson inter-arrival gap, in simulated time units, of globals
#: and (independently) of locals.  A constant: deriving it from a
#: measurement would let a faster program change its own load.
OPEN_MEAN_GAP = 40.0
OPEN_SEEDS_PER_SCHEME = 4

#: fault-storm: chaos storms per scheme, each with this many globals
STORM_SEEDS_PER_SCHEME = 72
STORM_GLOBALS = 10


@dataclass(frozen=True)
class Cell:
    scheme: str
    seed: int


@dataclass
class CellResult:
    """What one executed cell contributes to the workload's figures."""

    scheme: str
    submitted: int
    #: committed globals, snapshot (read-only) commits included
    committed: int
    #: globals permanently failed (restart cap, quarantine, routing)
    failed: int
    aborts: int
    #: simulated duration of the run
    duration: float
    #: submission-to-commit times of committed read-write globals
    response_times: Tuple[float, ...]
    report: Any


class CorrectnessError(Exception):
    """A run violated a ground-truth check or lost a transaction."""


def cell_seeds(seed: int, per_scheme: int) -> List[Cell]:
    """Distinct sub-seeds for every scheme, a function of *seed* only;
    two workload seeds never share a sub-seed."""
    base = seed * len(SCHEMES) * per_scheme
    return [
        Cell(scheme, base + index * per_scheme + draw)
        for index, scheme in enumerate(SCHEMES)
        for draw in range(per_scheme)
    ]


def poisson_arrivals(seed: int, count: int, mean_gap: float) -> Tuple[float, ...]:
    """*count* open-loop arrival times with exponential gaps of mean
    *mean_gap*; depends on nothing but its arguments."""
    rng = random.Random(seed)
    now = 0.0
    times = []
    for _ in range(count):
        now += rng.expovariate(1.0 / mean_gap)
        times.append(now)
    return tuple(times)


def _check_accounting(result: CellResult, what: str) -> CellResult:
    if result.committed + result.failed != result.submitted:
        raise CorrectnessError(
            f"{what}: committed {result.committed} + failed "
            f"{result.failed} != submitted {result.submitted}"
        )
    return result


def _verified_simulation(cell: Cell, job: Any, simulator: Any) -> CellResult:
    """Run one simulator to completion and check it from ground truth:
    the executed schedules are serializable and every submitted global
    ended committed or failed."""
    from repro.mdbs import verification

    report = simulator.run()
    verdict = verification.verify(
        simulator.global_schedule(), simulator.ser_schedule
    )
    what = f"{cell.scheme} seed {cell.seed}"
    if not verdict.ok:
        raise CorrectnessError(f"{what}: not serializable (cycle {verdict.cycle})")
    if simulator.loop.pending:
        raise CorrectnessError(f"{what}: {simulator.loop.pending} events left")
    return _check_accounting(
        CellResult(
            scheme=cell.scheme,
            submitted=len(job.global_programs),
            committed=report.committed_global,
            failed=report.failed_global,
            aborts=report.global_aborts,
            duration=report.duration,
            response_times=report.response_times,
            report=report,
        ),
        what,
    )


class Workload:
    """One named workload: its cells, how their inputs are generated and
    built, and how a built cell is executed and checked."""

    name = ""
    per_scheme = 1

    def cells(self, seed: int) -> List[Cell]:
        return cell_seeds(seed, self.per_scheme)

    def generate(self, cells: Sequence[Cell]) -> List[Any]:
        raise NotImplementedError

    def build(self, inputs: Sequence[Any]) -> List[Any]:
        raise NotImplementedError

    def execute(self, built: Any) -> CellResult:
        raise NotImplementedError


class _SimulatorWorkload(Workload):
    """Workloads given as transport jobs, run on one ``MDBSSimulator``."""

    def build(self, inputs):
        from repro.transport.base import build_simulator

        return [(cell, job, build_simulator(job)) for cell, job in inputs]

    def execute(self, built):
        return _verified_simulation(*built)


class ContendedWaves(_SimulatorWorkload):
    name = "contended-waves"
    per_scheme = WAVES_SEEDS_PER_SCHEME

    def generate(self, cells):
        from repro.analysis.bench import make_e4_job

        return [(cell, make_e4_job(cell.scheme, WAVES_MPL, cell.seed)) for cell in cells]


def open_mixed_job(scheme: str, seed: int):
    """The open-mixed job of one cell: Poisson arrivals of globals and,
    independently, of as many locals, over heterogeneous sites."""
    from repro.mdbs import SimulationConfig
    from repro.transport import SimulationJob
    from repro.workloads import WorkloadConfig, WorkloadGenerator

    config = WorkloadConfig(
        sites=OPEN_SITES,
        items_per_site=OPEN_ITEMS_PER_SITE,
        dav=OPEN_DAV,
        ops_per_site=OPEN_OPS_PER_SITE,
        read_fraction=OPEN_READ_FRACTION,
        seed=seed,
    )
    generator = WorkloadGenerator(config)
    globals_ = generator.global_batch(OPEN_GLOBALS)
    locals_ = generator.local_batch(OPEN_GLOBALS)
    global_at = poisson_arrivals(2 * seed, OPEN_GLOBALS, OPEN_MEAN_GAP)
    local_at = poisson_arrivals(2 * seed + 1, OPEN_GLOBALS, OPEN_MEAN_GAP)
    protocols = [
        OPEN_PROTOCOLS[index % len(OPEN_PROTOCOLS)]
        for index in range(OPEN_SITES)
    ]
    return SimulationJob(
        site_protocols=tuple(zip(config.site_names, protocols)),
        scheme=scheme,
        config=SimulationConfig(),
        seed=seed,
        global_programs=tuple(zip(globals_, global_at)),
        local_programs=tuple(zip(locals_, local_at)),
    )


class OpenMixed(_SimulatorWorkload):
    name = "open-mixed"
    per_scheme = OPEN_SEEDS_PER_SCHEME

    def generate(self, cells):
        return [(cell, open_mixed_job(cell.scheme, cell.seed)) for cell in cells]


def storm_options(scheme: str):
    """Chaos storm shape: 2PC with a prepare crash, two copies per item
    with a write crash, GTM2 and site crashes, lossy messages."""
    from repro.faults.chaos import ChaosOptions

    return ChaosOptions(
        scheme=scheme,
        sites=4,
        global_txns=STORM_GLOBALS,
        atomic_commit=True,
        prepare_crash_count=1,
        replication_degree=2,
        write_crash_count=1,
    )


class FaultStorm(Workload):
    name = "fault-storm"
    per_scheme = STORM_SEEDS_PER_SCHEME

    def generate(self, cells):
        return [(cell, storm_options(cell.scheme)) for cell in cells]

    def build(self, inputs):
        # run_chaos builds its own simulator; building here measures the
        # set-up cost and the built copy is dropped
        from repro.faults import chaos

        for cell, options in inputs:
            chaos.build_chaos_simulator(options, cell.seed)
        return list(inputs)

    def execute(self, built):
        from repro.faults import chaos

        cell, options = built
        outcome = chaos.run_chaos(options, cell.seed)
        what = f"storm {cell.scheme} seed {cell.seed}"
        if not outcome.ok:
            raise CorrectnessError(f"{what}: {outcome.failure_reasons()}")
        report = outcome.report
        # snapshot reads are another operation type, three orders of
        # magnitude faster than a read-write global under 2PC: their
        # latency stays out of the response-time pool, which would
        # otherwise measure the mix rather than the latency
        snapshot = collections.Counter(report.snapshot_read_times)
        response_times = []
        for value in report.response_times:
            if snapshot[value]:
                snapshot[value] -= 1
            else:
                response_times.append(value)
        return _check_accounting(
            CellResult(
                scheme=cell.scheme,
                submitted=options.global_txns,
                committed=report.committed_global + report.snapshot_committed,
                failed=report.failed_global + report.snapshot_failed,
                aborts=report.global_aborts,
                duration=report.duration,
                response_times=tuple(response_times),
                report=report,
            ),
            what,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (ContendedWaves(), OpenMixed(), FaultStorm())
}

