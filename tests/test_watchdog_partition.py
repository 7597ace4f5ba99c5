"""The no-progress watchdog's cached site-component partition.

The watchdog aborts one victim per site component per tick.  It keeps
the component of every site in a map built from the submitted programs,
cleared on admission and on a re-route onto other copies, instead of
re-running :func:`~repro.core.gtm.site_components` on every tick.  The
oracle below is the rule it replaced: a fresh partition over every
submitted *and* running program at each tick, with set-intersection
candidates per component.  Both must abort the same incarnations at the
same instants, on workloads where several components stall in one tick
and on replicated storms where re-routes change site sets.
"""

import dataclasses
import pickle
from collections import Counter

import pytest

from repro.analysis.bench import make_e4_job
from repro.core import GTMSystem, make_scheme
from repro.core.gtm import GlobalProgram, site_components
from repro.exceptions import ProtocolViolation
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig
from repro.replication import LogicalProgram, ReplicaMap
from repro.transport import build_simulator, shard_jobs

WATCHDOG = "watchdog: no progress"


def _oracle_arm_watchdog(self):
    """The per-tick union-find watchdog rule, kept as the reference."""
    if self._watchdog_armed:
        return
    self._watchdog_armed = True

    def tick():
        now = self.loop.now
        if self.injector is not None:
            self._reap_orphans(now)
        stalled = [
            runtime
            for runtime in self._runtimes.values()
            if not runtime.done
            and now - runtime.last_progress >= self.config.stall_timeout
        ]
        if stalled:
            programs = list(self._programs.values()) + [
                r.program for r in self._runtimes.values()
            ]
            for component in site_components(self.sites, programs):
                members = set(component)
                candidates = [
                    r for r in stalled if members & set(r.program.sites)
                ]
                if not candidates:
                    continue
                victim = min(
                    candidates,
                    key=lambda r: (r.last_progress, r.incarnation),
                )
                self.watchdog_aborts += 1
                self._abort_global(victim.incarnation, WATCHDOG)
        if self._runtimes or self.loop.pending:
            self.loop.schedule(self._watchdog_interval(), tick)

    self.loop.schedule(self._watchdog_interval(), tick)


def _watchdog_aborts(monkeypatch, run, oracle):
    """``(time, incarnation)`` of every watchdog abort of *run()*."""
    aborts = []
    abort_global = MDBSSimulator._abort_global

    def recording(self, incarnation, reason):
        if reason == WATCHDOG:
            aborts.append((self.loop.now, incarnation))
        abort_global(self, incarnation, reason)

    with monkeypatch.context() as patch:
        patch.setattr(MDBSSimulator, "_abort_global", recording)
        if oracle:
            patch.setattr(
                MDBSSimulator, "_arm_watchdog", _oracle_arm_watchdog
            )
        run()
    return aborts


class TestDifferentialOracle:
    @pytest.mark.parametrize("scheme", ["scheme2", "scheme4"])
    def test_grouped_cells_abort_like_the_oracle(self, monkeypatch, scheme):
        multi_victim_ticks = 0
        for seed in (1, 2, 3):
            job = make_e4_job(scheme, 32, seed, groups=4)

            def run():
                build_simulator(job).run()

            new = _watchdog_aborts(monkeypatch, run, oracle=False)
            old = _watchdog_aborts(monkeypatch, run, oracle=True)
            assert new == old
            per_tick = Counter(at for at, _ in new)
            multi_victim_ticks += sum(1 for n in per_tick.values() if n > 1)
        # several components stalled in one tick, so the per-component
        # grouping and its ascending order were both exercised
        assert multi_victim_ticks > 0

    @pytest.mark.parametrize("scheme", ["scheme2", "scheme4"])
    def test_replicated_storms_abort_like_the_oracle(self, monkeypatch, scheme):
        options = ChaosOptions(
            scheme=scheme,
            sites=4,
            global_txns=10,
            atomic_commit=True,
            replication_degree=2,
            site_crash_count=2,
            write_crash_count=1,
        )
        total = 0
        for seed in range(12):

            def run():
                assert run_chaos(options, seed).verification.ok

            new = _watchdog_aborts(monkeypatch, run, oracle=False)
            assert new == _watchdog_aborts(monkeypatch, run, oracle=True)
            total += len(new)
        assert total > 0


class TestFrozenProgram:
    def test_sites_keep_first_access_order(self):
        program = GlobalProgram.build(
            "G1",
            [("s2", "r", "a"), ("s0", "w", "b"), ("s2", "w", "c"),
             ("s1", "r", "d"), ("s0", "r", "e")],
        )
        assert program.sites == ("s2", "s0", "s1")

    def test_sites_survive_pickle(self):
        program = GlobalProgram.build(
            "G1", [("s1", "r", "a"), ("s0", "w", "b")]
        )
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program
        assert copy.sites == ("s1", "s0")

    def test_fields_cannot_be_reassigned(self):
        program = GlobalProgram.build("G1", [("s0", "r", "a")])
        for name, value in (
            ("transaction_id", "G2"),
            ("accesses", ()),
            ("sites", ()),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(program, name, value)


class TestZeroSitePrograms:
    def test_simulator_rejects_a_program_with_no_site(self):
        simulator = MDBSSimulator(
            {"s0": LocalDBMS("s0", make_protocol("strict-2pl"))},
            make_scheme("scheme2"),
        )
        with pytest.raises(ProtocolViolation, match="'G0'"):
            simulator.submit_global(GlobalProgram("G0", ()))

    def test_gtm_rejects_a_program_with_no_site(self):
        gtm = GTMSystem(
            {"s0": LocalDBMS("s0", make_protocol("strict-2pl"))},
            make_scheme("scheme2"),
        )
        with pytest.raises(ProtocolViolation, match="'G0'"):
            gtm.submit_global(GlobalProgram("G0", ()))

    def test_shard_jobs_rejects_a_program_with_no_site(self):
        job = make_e4_job("scheme2", 8, 1, groups=2)
        job = dataclasses.replace(
            job,
            global_programs=job.global_programs
            + ((GlobalProgram("G0", ()), 0.0),),
        )
        with pytest.raises(ProtocolViolation, match="'G0'"):
            shard_jobs(job)


class TestPartitionCache:
    SITES = ("s0", "s1", "s2")

    def simulator(self):
        replica_map = ReplicaMap.build(["x0"], self.SITES, degree=3)
        simulator = MDBSSimulator(
            {
                site: LocalDBMS(
                    site, make_protocol("strict-2pl"), initial={"x0": 0}
                )
                for site in self.SITES
            },
            make_scheme("scheme2"),
            SimulationConfig(),
            replica_map=replica_map,
        )
        simulator.submit_logical(LogicalProgram.build("G1", [("w", "x0")]))
        return simulator

    def built_partition(self, simulator):
        simulator._component_of = {site: 0 for site in self.SITES}
        return simulator._component_of

    def test_submit_clears_the_partition(self):
        simulator = self.simulator()
        self.built_partition(simulator)
        simulator.submit_global(GlobalProgram.build("G2", [("s0", "r", "x0")]))
        assert simulator._component_of is None

    def test_reroute_to_the_same_sites_keeps_the_partition(self):
        simulator = self.simulator()
        simulator._start_incarnation("G1")
        assert simulator._programs["G1"].sites == self.SITES
        simulator._abort_global("G1", "test")
        partition = self.built_partition(simulator)
        simulator._start_incarnation("G1")
        assert simulator._programs["G1"].sites == self.SITES
        assert simulator._component_of is partition

    def test_reroute_to_other_sites_clears_the_partition(self):
        simulator = self.simulator()
        simulator._start_incarnation("G1")
        simulator._abort_global("G1", "test")
        self.built_partition(simulator)
        simulator.sites["s2"].crash()
        simulator._start_incarnation("G1")
        assert simulator._programs["G1"].sites == ("s0", "s1")
        assert simulator._component_of is None
