"""Reference algorithms as test oracles.

The package ships one implementation per algorithm; the paper's literal
formulations live here and every optimised component is diffed against
them on fixed seeds:

- :func:`figure4_eliminate_cycles` — Figure 4's walk over a TSGD's
  public accessors — against ``TSGD.eliminate_cycles`` (the
  least-fixpoint closure) on randomized insert/dependency/remove
  scripts;
- :class:`ReferenceSGT` — a plain ``DirectedGraph`` searched with
  ``find_cycle(start=requester)`` — against the incremental SGT;
- :class:`ReferenceScheme3` — the all-transactions ``ser_bef`` scans —
  against Scheme 3's reverse index;
- whole runs (the E4 regression cells and the chaos storms), once with
  the production components and once with the reference ones
  (:class:`ReferenceScheme2` runs Scheme 2 over the Figure 4 walk) on
  literal Figure 3 full-rescan engines, including the engines crash
  recovery rebuilds: schedules, ``ser(S)``, behavioural report fields
  and verification verdicts must be identical.
"""

import dataclasses
import random
from collections import deque

import pytest

from repro.core import SCHEMES, Scheme2, Scheme3, make_scheme
from repro.core import recovery as recovery_module
from repro.core.engine import Engine
from repro.core.tsgd import TSGD
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.lmdbs import PROTOCOLS, LocalDBMS, make_protocol
from repro.lmdbs.protocols.base import Decision, Verdict
from repro.lmdbs.protocols.sgt import SerializationGraphTesting
from repro.mdbs import MDBSSimulator, SimulationConfig, verify
from repro.mdbs import simulator as simulator_module
from repro.schedules.serialization_graph import DirectedGraph
from repro.workloads import WorkloadConfig, WorkloadGenerator
from repro.workloads.traces import drive, random_trace

E4_PROTOCOLS = ("strict-2pl", "to", "conservative-2pl", "sgt")

#: SimulationReport fields compared between production and reference
#: runs (``scheme_steps`` is left out: the closure form of
#: Eliminate_Cycles does not charge the walk's backtracking overhead)
REPORT_FIELDS = (
    "throughput",
    "mean_response_time",
    "committed_global",
    "global_aborts",
    "duration",
    "events_executed",
    "graph_ops",
)


# ----------------------------------------------------------------------
# reference algorithms
# ----------------------------------------------------------------------

def figure4_eliminate_cycles(tsgd, root):
    """Figure 4's ``Eliminate_Cycles``, literally: a walk over
    transaction nodes that enters each non-root edge at most once and
    records ``(v, u, root)`` whenever a pair closes back at *root*.

    At each node the candidate pairs ``(u, w)`` (edges ``(v, u)``,
    ``(u, w)``, in sorted order) are examined once; a pair at the site
    the walk arrived through is deferred and re-examined on later visits,
    every other pair is skipped for good when ``w`` was already entered
    via ``u`` or the dependency ``(v, u, w)`` exists."""
    blocked = set(tsgd.dependencies)
    used = set()
    delta = set()
    arrived_via = {}  # txn -> stack of sites it was entered through
    came_from = {}  # txn -> stack of the txns it was entered from
    unexamined = {}
    deferred = {}

    def examine(queue, v, arrival, defer):
        while queue:
            u, w = queue.popleft()
            if w != root and (w, u) in used:
                continue
            if (v, u, w) in blocked or (v, u, w) in delta:
                continue
            if u == arrival:
                defer.append((u, w))
                continue
            return u, w
        return None

    v = root
    while True:
        if v not in unexamined:
            unexamined[v] = deque(
                (u, w)
                for u in tsgd.sites_of_sorted(v)
                for w in tsgd.transactions_at_sorted(u)
                if w != v
            )
            deferred[v] = deque()
        vias = arrived_via.get(v)
        arrival = vias[-1] if vias else None
        staged, deferred[v] = deferred[v], deque()
        pair = examine(staged, v, arrival, deferred[v])
        if pair is not None:
            deferred[v].extend(staged)
        else:
            pair = examine(unexamined[v], v, arrival, deferred[v])
        if pair is not None:
            u, w = pair
            used.add((w, u))
            if w == root:
                delta.add((v, u, root))
            else:
                arrived_via.setdefault(w, []).append(u)
                came_from.setdefault(w, []).append(v)
                v = w
        elif v == root:
            return delta
        else:
            arrived_via[v].pop()
            v = came_from[v].pop()


class ReferenceTSGD(TSGD):
    def eliminate_cycles(self, transaction_id):
        return figure4_eliminate_cycles(self, transaction_id)


class ReferenceScheme2(Scheme2):
    """Scheme 2 whose TSGD runs the Figure 4 walk."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.tsgd = ReferenceTSGD(self.metrics)


class ReferenceScheme3(Scheme3):
    """Scheme 3 with the paper's all-transactions ``ser_bef`` scans in
    place of the reverse index (which the inherited ``act_init`` still
    fills and nothing here reads)."""

    def cond_ser(self, operation):
        transaction_id, site = operation.transaction_id, operation.site
        last = self._last(site)
        if last is not None and (last, site) not in self._acked:
            return False
        waiting_here = self._set.get(site, set())
        return not any(
            predecessor != transaction_id and predecessor in waiting_here
            for predecessor in self._ser_bef[transaction_id]
        )

    def act_ser(self, operation):
        transaction_id, site = operation.transaction_id, operation.site
        members = self._set.get(site, set())
        members.discard(transaction_id)
        self._executed_order.setdefault(site, []).append(transaction_id)
        set_one = self._ser_bef[transaction_id] | {transaction_id}
        targets = set(members)
        if self._transitive_update:
            targets.update(
                other
                for other, before in self._ser_bef.items()
                if before & members
            )
        for target in targets:
            self._ser_bef[target] |= set_one
        self.submit(operation)

    def act_fin(self, operation):
        self.remove_transaction(operation.transaction_id)

    def remove_transaction(self, transaction_id):
        self._ser_bef.pop(transaction_id, None)
        for before in self._ser_bef.values():
            before.discard(transaction_id)
        self._forget(transaction_id)


class CountingGraph(DirectedGraph):
    """A ``DirectedGraph`` counting structural mutations the way
    ``IncrementalDigraph.ops`` does."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def add_edge(self, source, target):
        self.ops += 1
        super().add_edge(source, target)

    def remove_edge(self, source, target):
        self.ops += 1
        super().remove_edge(source, target)

    def remove_node(self, node):
        if self.has_node(node):
            self.ops += 1
        super().remove_node(node)


class ReferenceSGT(SerializationGraphTesting):
    """SGT that inserts the requester's incoming edges one at a time and
    restarts ``find_cycle(start=requester)`` after each; the first edge
    that closes a cycle kills the requester."""

    def __init__(self):
        super().__init__()
        self._graph = CountingGraph()

    def _attempt(self, transaction_id, predecessors):
        added = []
        for predecessor in predecessors:
            if predecessor == transaction_id or self._graph.has_edge(
                predecessor, transaction_id
            ):
                continue
            self._graph.add_edge(predecessor, transaction_id)
            added.append((predecessor, transaction_id))
            if self._graph.find_cycle(start=transaction_id) is not None:
                for source, target in added:
                    self._graph.remove_edge(source, target)
                self.rejections += 1
                return Decision.kill(
                    (transaction_id,),
                    "granting would create a serialization-graph cycle",
                )
        return Decision.grant()


class FullRescanEngine(Engine):
    """Figure 3 literally: every action re-examines the whole WAIT set."""

    built = 0

    def __init__(self, *args, **kwargs):
        kwargs["force_full_rescan"] = True
        super().__init__(*args, **kwargs)
        FullRescanEngine.built += 1


def _swap_in_references(monkeypatch):
    """Replace every optimised component by its reference, registry-wide,
    including the engines crash recovery rebuilds."""
    monkeypatch.setitem(SCHEMES, "scheme2", ReferenceScheme2)
    monkeypatch.setitem(SCHEMES, "scheme3", ReferenceScheme3)
    monkeypatch.setitem(PROTOCOLS, "sgt", ReferenceSGT)
    monkeypatch.setattr(simulator_module, "Engine", FullRescanEngine)
    monkeypatch.setattr(recovery_module, "Engine", FullRescanEngine)
    monkeypatch.setattr(FullRescanEngine, "built", 0)


# ----------------------------------------------------------------------
# Figure 4: Eliminate_Cycles
# ----------------------------------------------------------------------

def _random_tsgd_script(rng):
    nsites = rng.randint(2, 6)
    sites = [f"s{i}" for i in range(nsites)]
    live, script, counter = [], [], 0
    for _ in range(rng.randint(10, 60)):
        roll = rng.random()
        if roll < 0.35 or not live:
            tid = f"T{counter}"
            counter += 1
            chosen = rng.sample(sites, rng.randint(1, nsites))
            script.append(("ins", tid, tuple(chosen)))
            live.append((tid, chosen))
        elif roll < 0.5 and len(live) > 1:
            first = rng.choice(live)
            others = [
                entry
                for entry in live
                if entry[0] != first[0] and set(entry[1]) & set(first[1])
            ]
            if others:
                second = rng.choice(others)
                shared = sorted(set(first[1]) & set(second[1]))
                script.append(
                    ("dep", first[0], rng.choice(shared), second[0])
                )
        elif roll < 0.65:
            victim = rng.choice(live)
            live.remove(victim)
            script.append(("rem", victim[0]))
        else:
            script.append(("elim", rng.choice(live)[0]))
    return script


def _play(tsgd, op):
    kind = op[0]
    if kind == "ins":
        tsgd.insert_transaction(op[1], op[2])
    elif kind == "rem":
        tsgd.remove_transaction(op[1])
    elif kind == "dep":
        tsgd.add_dependency(op[1], op[2], op[3])
    else:  # elim
        delta = tsgd.eliminate_cycles(op[1])
        tsgd.add_dependencies(sorted(delta))
        return delta
    return None


def test_tsgd_eliminate_cycles_matches_figure4_walk():
    """The closure returns the walk's exact Δ at every Eliminate_Cycles
    call of randomized interleaved scripts."""
    for trial in range(300):
        tsgd = TSGD()
        for op in _random_tsgd_script(random.Random(trial)):
            expected = (
                figure4_eliminate_cycles(tsgd, op[1])
                if op[0] == "elim"
                else None
            )
            assert _play(tsgd, op) == expected, f"trial {trial}: {op}"


def test_tsgd_steps_are_deterministic():
    """The closure's analytic step charges must not depend on hash
    order."""
    script = _random_tsgd_script(random.Random(1234))

    def steps():
        tsgd = TSGD()
        for op in script:
            _play(tsgd, op)
        return tsgd._metrics.steps

    assert len({steps() for _ in range(5)}) == 1


# ----------------------------------------------------------------------
# component oracles
# ----------------------------------------------------------------------

def _random_sgt_stream(rng, length=400):
    """Begin/read/write/commit/abort requests over a small item pool, so
    cycles (and hence kills) are frequent."""
    items = [f"x{i}" for i in range(5)]
    active, stream, counter = [], [], 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.15 or not active:
            tid = f"T{counter}"
            counter += 1
            active.append(tid)
            stream.append(("begin", tid))
        elif roll < 0.85:
            kind = "read" if rng.random() < 0.5 else "write"
            stream.append((kind, rng.choice(active), rng.choice(items)))
        else:
            tid = active.pop(rng.randrange(len(active)))
            stream.append(("commit" if rng.random() < 0.7 else "abort", tid))
    return stream


def _apply_sgt(scheduler, request):
    kind, tid = request[0], request[1]
    if kind == "begin":
        return scheduler.on_begin(tid).verdict
    if kind == "read":
        return scheduler.on_read(tid, request[2]).verdict
    if kind == "write":
        return scheduler.on_write(tid, request[2]).verdict
    if kind == "commit":
        return scheduler.on_commit(tid).verdict
    return scheduler.on_abort(tid)


@pytest.mark.parametrize("seed", range(20))
def test_sgt_matches_reference(seed):
    """Same grant/kill verdicts, same graph and the same structural
    mutation count after every request: a kill inserts edges only up to
    the first one that closes a cycle, then withdraws them."""
    production, reference = SerializationGraphTesting(), ReferenceSGT()
    killed = set()
    for request in _random_sgt_stream(random.Random(seed)):
        if request[1] in killed:
            continue
        verdict = _apply_sgt(production, request)
        assert verdict == _apply_sgt(reference, request), request
        if verdict is Verdict.ABORT:
            killed.add(request[1])
            _apply_sgt(production, ("abort", request[1]))
            _apply_sgt(reference, ("abort", request[1]))
        assert set(production.graph.edges) == set(reference.graph.edges)
        assert production.graph_ops == reference.graph_ops, request
    assert production.rejections == reference.rejections


@pytest.mark.parametrize("seed", range(12))
def test_scheme3_matches_reference(seed):
    """Same submission order, waits and ``ser_bef`` sets on random
    traces (the reverse index must track every ``ser_bef`` update)."""
    trace = random_trace(24, 4, 2, seed=seed)
    production, reference = Scheme3(), ReferenceScheme3()
    fast = drive(production, trace)
    slow = drive(reference, trace)
    assert [
        (op.transaction_id, op.site) for op in fast.submission_order
    ] == [(op.transaction_id, op.site) for op in slow.submission_order]
    assert fast.metrics.waited == slow.metrics.waited
    assert production._ser_bef == reference._ser_bef


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------

def _normalized_schedules(schedule):
    """Per-site operation tuples with ``Operation.seq`` — a process-global
    allocation counter, so runs later in the same process start higher —
    rewritten to its rank within this run."""
    site_ops = {
        site: tuple(schedule.local_schedule(site))
        for site in schedule.sites
    }
    rank = {
        seq: position
        for position, seq in enumerate(
            sorted(
                operation.seq
                for operations in site_ops.values()
                for operation in operations
            )
        )
    }
    return {
        site: tuple(
            dataclasses.replace(operation, seq=rank[operation.seq])
            for operation in operations
        )
        for site, operations in site_ops.items()
    }


def _run_e4(scheme_name, mpl, seed):
    cfg = WorkloadConfig(
        sites=len(E4_PROTOCOLS),
        items_per_site=12,
        dav=2.0,
        ops_per_site=2,
        seed=seed,
    )
    gen = WorkloadGenerator(cfg)
    sites = {
        site: LocalDBMS(site, make_protocol(protocol))
        for site, protocol in zip(cfg.site_names, E4_PROTOCOLS)
    }
    sim = MDBSSimulator(
        sites, make_scheme(scheme_name), SimulationConfig(), seed=seed
    )
    for index, program in enumerate(gen.global_batch(3 * mpl)):
        sim.submit_global(program, at=(index // mpl) * 40.0)
    report = sim.run()
    schedule = sim.global_schedule()
    return {
        "report": {field: getattr(report, field) for field in REPORT_FIELDS},
        "schedules": _normalized_schedules(schedule),
        "ser": tuple(sim.ser_schedule.operations),
        "verification": verify(schedule, sim.ser_schedule),
    }


def _assert_e4_matches_reference(monkeypatch, scheme_name, mpl, seed):
    production = _run_e4(scheme_name, mpl, seed)
    _swap_in_references(monkeypatch)
    reference = _run_e4(scheme_name, mpl, seed)
    assert FullRescanEngine.built == 1
    assert production == reference


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3"])
@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_e4_cell_matches_reference(monkeypatch, scheme_name, seed):
    """The regression seeds at MPL 8 (waits, wakes and aborts while
    staying quick)."""
    _assert_e4_matches_reference(monkeypatch, scheme_name, 8, seed)


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3"])
def test_e4_high_contention_matches_reference(monkeypatch, scheme_name):
    """MPL 16 exercises the abort/purge/re-submit paths (the E4 grid
    point the perf gate watches)."""
    _assert_e4_matches_reference(monkeypatch, scheme_name, 16, 7)


def _chaos_view(result):
    return {
        "ok": result.ok,
        "terminated": result.terminated,
        "unresolved": result.unresolved,
        "verification": result.verification,
        "exactly_once": result.exactly_once,
        "report": {
            field: getattr(result.report, field) for field in REPORT_FIELDS
        },
    }


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3"])
@pytest.mark.parametrize("seed", [11, 23])
def test_chaos_run_matches_reference(monkeypatch, scheme_name, seed):
    """Crash and message-fault storms drive the purge, abort and
    recovery paths; the recovered GTM2 runs a reference engine too."""
    options = ChaosOptions(
        scheme=scheme_name, gtm_crash_count=1, site_crash_count=1
    )
    production = run_chaos(options, seed)
    assert production.report.gtm_crashes == 1
    _swap_in_references(monkeypatch)
    reference = run_chaos(options, seed)
    # the initial engine plus the one rebuilt by crash recovery
    assert FullRescanEngine.built == 2
    assert _chaos_view(production) == _chaos_view(reference)
