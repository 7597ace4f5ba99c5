"""An external tracer: spans and counts at the program's layer entry
points, recorded by wrapping the public names the callers look up.

Nothing in the program is changed on disk.  :class:`Probes` replaces
functions and methods in the imported modules with wrappers for the
length of a traced pass and restores the originals afterwards.  A
wrapper only observes: it calls through with the same arguments and
returns the same result, so the traced run must reach exactly the
decisions of the untraced one (``run.py`` checks that).

A span is (name, start, end, parent span, transaction id), timed with
the process CPU clock.  Spans stay in memory, in typed arrays, and are
written out when the run ends.  Very hot calls (``EventLoop.schedule``,
``Engine.enqueue``, fault fates) are only counted.

Self time of a span is its duration minus the durations of its direct
children; summed over every span it equals the CPU time the spans
cover, so the CPU of a traced pass splits exactly into per-layer self
time plus an unattributed remainder.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: span-name prefix -> layer, for the per-layer CPU split
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("events.", "events"),
    ("sim.", "simulator"),
    ("gtm.", "gtm"),
    ("engine.", "engine"),
    ("scheme", "scheme"),
    ("tsgd.", "scheme"),
    ("lmdbs.", "lmdbs"),
    ("server.", "server"),
    ("recovery.", "recovery"),
    ("commit.", "commit"),
    ("verify", "verification"),
    ("setup.", "setup"),
)
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYERS))


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYERS:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no layer")


class SpanLog:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.txns: List[str] = [""]
        self._txn_ids: Dict[str, int] = {"": 0}
        self.name = array("i")
        self.parent = array("i")
        self.txn = array("i")
        #: 1 when no span of the same name was open at the start
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._open: List[int] = []
        self.counts: Dict[str, int] = collections.Counter()

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return found

    def txn_id(self, txn: str) -> int:
        found = self._txn_ids.get(txn)
        if found is None:
            found = self._txn_ids[txn] = len(self.txns)
            self.txns.append(txn)
        return found

    def begin(self, name_id: int, txn: int = 0) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.txn.append(txn)
        self.outer.append(self._open[name_id] == 0)
        self._open[name_id] += 1
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()
        self._open[self.name[index]] -= 1

    def __len__(self) -> int:
        return len(self.name)

    def write(self, directory: str, stem: str) -> str:
        """Write the spans to ``<stem>.spans`` (the typed arrays, in the
        order of the header) and ``<stem>.json`` (the header); returns
        the header path."""
        os.makedirs(directory, exist_ok=True)
        columns = ("name", "parent", "txn", "outer", "start", "end")
        with open(os.path.join(directory, stem + ".spans"), "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        header = {
            "spans": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "clock": "process CPU seconds",
            "names": self.names,
            "txns": self.txns,
            "counts": dict(self.counts),
        }
        path = os.path.join(directory, stem + ".json")
        with open(path, "w") as handle:
            json.dump(header, handle)
        return path


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("d", [e - s for s, e in zip(log.start, log.end)])
    durations = own.tolist()
    for index, up in enumerate(log.parent):
        if up >= 0:
            own[up] -= durations[index]
    return own


@dataclass
class SpanSummary:
    calls: int = 0
    #: inclusive CPU, counting only spans with no same-named ancestor
    cpu_s: float = 0.0
    self_cpu_s: float = 0.0


def summarize(log: SpanLog) -> Dict[str, SpanSummary]:
    summaries = {name: SpanSummary() for name in log.names}
    own = self_times(log)
    for index in range(len(log)):
        summary = summaries[log.names[log.name[index]]]
        summary.calls += 1
        summary.self_cpu_s += own[index]
        if log.outer[index]:
            summary.cpu_s += log.end[index] - log.start[index]
    return summaries


def layer_self_cpu(summaries: Dict[str, SpanSummary]) -> Dict[str, float]:
    layers = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, summary in summaries.items():
        layers[layer_of(name)] += summary.self_cpu_s
    return layers


def _txn_of(args: Sequence[Any], position: Optional[int]) -> str:
    if position is None or len(args) <= position:
        return ""
    value = args[position]
    if isinstance(value, str):
        return value
    return getattr(value, "transaction_id", "") or ""


class Probes:
    """The wrappers of one traced pass; a context manager that installs
    them on entry and restores the originals on exit."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._installed: List[Tuple[Any, str, Callable]] = []

    # -- installing ------------------------------------------------------
    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        txn_arg: Optional[int] = None,
        after: Optional[Callable[[Any, tuple], None]] = None,
        target: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``owner.attr`` (a module's function or a class's own
        method) in a span named *name*; *after* sees each result, outside
        the span; *target* replaces the function called through.
        Returns the wrapper."""
        log = self.log
        fn = target or vars(owner)[attr]
        name_id = log.name_id(name)
        begin, finish, txn_id = log.begin, log.finish, log.txn_id

        def wrapper(*args, **kwargs):
            index = begin(name_id, txn_id(_txn_of(args, txn_arg)))
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if after is not None:
                after(result, args)
            return result

        self._replace(owner, attr, wrapper)
        return wrapper

    def scheme_span(self, owner: type, attr: str, after=None) -> None:
        """Like :meth:`span`, named ``<scheme>.<attr>`` by the scheme the
        method is called on."""
        log = self.log
        fn = vars(owner)[attr]
        ids: Dict[type, int] = {}
        begin, finish, txn_id = log.begin, log.finish, log.txn_id

        def wrapper(scheme, operation):
            kind = type(scheme)
            name_id = ids.get(kind)
            if name_id is None:
                name_id = ids[kind] = log.name_id(f"{scheme.name}.{attr}")
            index = begin(name_id, txn_id(operation.transaction_id))
            try:
                result = fn(scheme, operation)
            finally:
                finish(index)
            if after is not None:
                after(result, (scheme, operation))
            return result

        self._replace(owner, attr, wrapper)

    def count(
        self,
        owner: Any,
        attr: str,
        counter: str,
        also: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> None:
        """Count calls of ``owner.attr`` under *counter*; *also* may name
        one more counter to bump for a call."""
        fn = vars(owner)[attr]
        counts = self.log.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if also is not None:
                extra = also(args)
                if extra is not None:
                    counts[extra] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def bump(self, counter: str, amount: int = 1) -> None:
        self.log.counts[counter] += amount

    # -- the program's layer entry points --------------------------------
    def install(self) -> "Probes":
        module = importlib.import_module
        events = module("repro.mdbs.events")
        simulator = module("repro.mdbs.simulator")
        gtm = module("repro.core.gtm")
        transport = module("repro.transport.base")
        engine = module("repro.core.engine")
        scheme = module("repro.core.scheme")
        tsgd = module("repro.core.tsgd")
        database = module("repro.lmdbs.database")
        locks = module("repro.lmdbs.lock_manager")
        server = module("repro.mdbs.server")
        injector = module("repro.faults.injector")
        participant = module("repro.commit.participant")
        verification = module("repro.mdbs.verification")
        chaos = module("repro.faults.chaos")

        # events: the loop's own span; scheduling is only counted
        self.span(events.EventLoop, "run", "events.loop")
        self.count(events.EventLoop, "schedule", "events.scheduled")
        self.count(events.EventLoop, "schedule_at", "events.scheduled")

        # gtm, and the simulator's watchdog call into it
        components = self.span(gtm, "site_components", "gtm.site_components")
        self.span(transport, "site_components", "gtm.site_components")
        self.span(
            simulator,
            "site_components",
            "sim.watchdog.site_components",
            target=components,
        )
        for planner in (gtm, simulator):
            self.span(planner, "plan_program", "gtm.plan_program", txn_arg=1)

        # engine
        self.span(engine.Engine, "run", "engine.run")
        self.span(engine.Engine, "purge_transaction", "engine.purge", txn_arg=1)
        self.count(
            engine.Engine,
            "enqueue",
            "engine.enqueued",
            also=lambda args: "sim.incarnations" if args[1].kind == "init" else None,
        )

        # schemes
        def granted(result, _args):
            self.bump("engine.conds_evaluated")
            if result:
                self.bump("engine.conds_granted")

        self.scheme_span(scheme.ConservativeScheme, "cond", after=granted)
        self.scheme_span(scheme.ConservativeScheme, "act")
        self.span(
            tsgd.TSGD,
            "eliminate_cycles",
            "tsgd.eliminate_cycles",
            txn_arg=1,
            after=lambda delta, _args: self.bump("tsgd.delta_edges", len(delta)),
        )

        # local DBMSs
        def submitted(result, _args):
            self.bump(f"lmdbs.submit.{result.status.value}")

        self.span(database.LocalDBMS, "submit", "lmdbs.submit", txn_arg=1, after=submitted)
        self.span(database.LocalDBMS, "abort_transaction", "lmdbs.abort", txn_arg=1)
        self.span(locks.LockManager, "release_all", "lmdbs.lock_release_all", txn_arg=1)

        # message plane and faults
        self.count(server.MessagePlane, "server", "server.links")
        self.span(server.Server, "submit", "server.submit", txn_arg=1)
        self.span(server.ResilientServer, "submit", "server.submit", txn_arg=1)
        self.count(injector.FaultInjector, "message_fate", "faults.message_fates.calls")

        # crash recovery and atomic commit
        self.span(simulator, "recover_engine", "recovery.recover_engine")
        self.span(participant.CommitParticipant, "on_prepare", "commit.prepare", txn_arg=1)
        self.span(participant.CommitParticipant, "on_decide", "commit.decide", txn_arg=1)

        # verification
        def verified(_result, args):
            schedule = args[0]
            self.bump(
                "verify.schedule_ops",
                sum(len(schedule.local_schedule(site)) for site in schedule.sites),
            )

        for verifier in (verification, chaos):
            self.span(verifier, "verify", "verify", after=verified)
        self.span(simulator.MDBSSimulator, "global_schedule", "verify.global_schedule")
        for check in ("exactly_once", "atomicity", "replicas", "decision_uniqueness"):
            self.span(verification, f"check_{check}", f"verify.{check}")

        # chaos storms build their simulator inside the timed call
        self.span(chaos, "build_chaos_simulator", "setup.chaos_build")
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
