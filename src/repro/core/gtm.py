"""The global transaction manager (paper Figures 1–2).

The GTM splits into two components:

- **GTM1** plans each global transaction: it knows each site's
  concurrency-control protocol and therefore its serialization-function
  strategy, so it can identify which concrete operation of each
  subtransaction is the image ``ser_k(G_i)``.  It inserts ``init_i``,
  the ``ser_k(G_i)`` requests, and ``fin_i`` into GTM2's QUEUE, routes
  all other operations directly to the local DBMSs through servers, and
  never submits an operation of ``G_i`` before the previous one is
  acknowledged.
- **GTM2** is the conservative scheduler: an :class:`~repro.core.engine.Engine`
  running one of Schemes 0–3 (or a baseline), deciding *when* each
  ``ser_k(G_i)`` may execute so that ``ser(S)`` stays serializable.

:class:`GTMSystem` wires both onto concrete
:class:`~repro.lmdbs.database.LocalDBMS` instances and drives a
synchronous round-robin scheduling loop — the discrete-event simulator
(:mod:`repro.mdbs.simulator`) provides the latency-accurate variant.

Global transactions are *predeclared*: a :class:`GlobalProgram` lists the
data accesses in program order.  Predeclaration is what lets GTM1 know
the ser-operations up front (the paper's ``init_i`` carries exactly this
information) and lets conservative local protocols receive declared
read/write sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.exceptions import ProtocolViolation, SchedulerError
from repro.lmdbs.database import LocalDBMS, SubmitStatus
from repro.lmdbs.protocols.tickets import DEFAULT_TICKET_ITEM
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from repro.schedules.model import (
    Operation,
    OpType,
    begin as begin_op,
    commit as commit_op,
    read as read_op,
    write as write_op,
)


@dataclass(frozen=True)
class Access:
    """One predeclared data access of a global transaction."""

    site: str
    kind: str  # "r" or "w"
    item: str

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ProtocolViolation(
                f"access kind must be 'r' or 'w', got {self.kind!r}"
            )


@dataclass(frozen=True)
class GlobalProgram:
    """A predeclared global transaction: ordered data accesses.

    Immutable, so :attr:`sites` — the sites in first-access order — is
    computed once at construction instead of on every read."""

    transaction_id: str
    accesses: Tuple[Access, ...]
    sites: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sites", tuple({access.site: None for access in self.accesses})
        )

    @classmethod
    def build(
        cls, transaction_id: str, accesses: Iterable[Tuple[str, str, str]]
    ) -> "GlobalProgram":
        """Build from ``(site, kind, item)`` triples."""
        return cls(
            transaction_id,
            tuple(Access(site, kind, item) for site, kind, item in accesses),
        )

    def read_set(self, site: str) -> frozenset:
        return frozenset(
            access.item
            for access in self.accesses
            if access.site == site and access.kind == "r"
        )

    def write_set(self, site: str) -> frozenset:
        return frozenset(
            access.item
            for access in self.accesses
            if access.site == site and access.kind == "w"
        )


def site_components(
    sites: Iterable[str], programs: Iterable[GlobalProgram]
) -> List[Tuple[str, ...]]:
    """Partition *sites* into connected components under the relation
    "some global program touches both" — the sharding rule of the
    parallel transport (:mod:`repro.transport`), and the scope of the
    simulator's no-progress watchdog, which aborts one victim per
    component per tick (:class:`repro.mdbs.simulator.MDBSSimulator`).

    Two sites land in the same component exactly when a chain of global
    transactions links them, so transactions of different components
    never conflict — directly (they share no site, hence no item) or
    indirectly (an indirect conflict needs a local transaction at a
    *shared* site) — and every GTM scheme decides them independently.
    Components are returned sorted by their smallest site name, each
    with its sites sorted, so the partition is deterministic.
    """
    parent: Dict[str, str] = {site: site for site in sites}

    def find(site: str) -> str:
        root = site
        while parent[root] != root:
            root = parent[root]
        while parent[site] != root:  # path compression
            parent[site], site = root, parent[site]
        return root

    for program in programs:
        touched = program.sites
        for other in touched[1:]:
            parent[find(other)] = find(touched[0])
    groups: Dict[str, List[str]] = {}
    for site in parent:
        groups.setdefault(find(site), []).append(site)
    return sorted(
        (tuple(sorted(members)) for members in groups.values()),
        key=lambda component: component[0],
    )


#: Serialization-function strategies GTM1 knows how to plan for.
STRATEGY_BY_PROTOCOL = {
    "strict-2pl": "commit",
    "wound-wait-2pl": "commit",
    "wait-die-2pl": "commit",
    "conservative-2pl": "begin",
    "2pl": "lock-point",
    "to": "begin",
    "conservative-to": "begin",
    "sgt": "ticket",
    "occ": "ticket",
}


@dataclass
class PlannedOp:
    """One step of a planned subtransaction execution."""

    operation: Operation
    is_ser_image: bool = False
    #: declared sets, attached to BEGIN operations
    read_set: Optional[frozenset] = None
    write_set: Optional[frozenset] = None
    #: ticket writes need the value read by the preceding ticket read
    is_ticket_read: bool = False
    is_ticket_write: bool = False
    #: under atomic commitment (:mod:`repro.commit`) the final per-site
    #: COMMIT operation is replaced by a 2PC PREPARE request; the COMMIT
    #: itself is issued by the coordinator's decision phase
    is_prepare: bool = False


def plan_program(
    program: GlobalProgram,
    incarnation: str,
    strategy_for: Callable[[str], str],
    atomic_commit: bool = False,
) -> List[PlannedOp]:
    """Expand a program into the per-operation plan of one incarnation:
    begins, data accesses, ticket pairs, commits, with the ser-image flags
    set per site strategy.  ``strategy_for(site)`` names the site's
    serialization-function strategy (GTM1's knowledge of the sites).

    With ``atomic_commit`` the trailing per-site COMMITs become 2PC
    PREPARE requests (``is_prepare``); the actual COMMIT is issued only
    after every site voted YES (:mod:`repro.commit`).  Sites with a
    commit serialization strategy keep the prepare as their ser image:
    for strict 2PL the serialization point is the lock point, which the
    prepare fixes — the decision phase changes nothing the GTM2 order
    depends on."""
    plan: List[PlannedOp] = []
    txn = incarnation
    begun: Set[str] = set()
    for access in program.accesses:
        if access.site not in begun:
            begun.add(access.site)
            plan.append(
                PlannedOp(
                    begin_op(txn, access.site),
                    read_set=program.read_set(access.site),
                    write_set=program.write_set(access.site),
                )
            )
        maker = read_op if access.kind == "r" else write_op
        plan.append(PlannedOp(maker(txn, access.item, access.site)))
    # Ticket pairs at sites lacking a serialization function.  The
    # serialization-function image is the ticket *write*, but GTM1 gates
    # the whole read-increment-write pair through GTM2 (the read carries
    # the ``is_ser_image`` routing flag): releasing them back-to-back
    # keeps the window in which another transaction's ticket commit can
    # invalidate the read as small as possible — optimistic sites abort
    # ticket takers whose read grew stale ([GRS91]'s retry cost).
    for site in program.sites:
        if strategy_for(site) == "ticket":
            plan.append(
                PlannedOp(
                    read_op(txn, DEFAULT_TICKET_ITEM, site),
                    is_ser_image=True,
                    is_ticket_read=True,
                )
            )
            plan.append(
                PlannedOp(
                    write_op(txn, DEFAULT_TICKET_ITEM, site),
                    is_ticket_write=True,
                )
            )
    for site in program.sites:
        plan.append(
            PlannedOp(commit_op(txn, site), is_prepare=atomic_commit)
        )
    _mark_ser_images(plan, program, strategy_for)
    return plan


def _mark_ser_images(
    plan: List[PlannedOp],
    program: GlobalProgram,
    strategy_for: Callable[[str], str],
) -> None:
    for site in program.sites:
        strategy = strategy_for(site)
        if strategy == "ticket":
            continue  # already marked on the ticket write
        site_ops = [
            planned for planned in plan if planned.operation.site == site
        ]
        if strategy == "begin":
            target = next(
                p for p in site_ops if p.operation.op_type is OpType.BEGIN
            )
        elif strategy == "commit":
            target = next(
                p for p in site_ops if p.operation.op_type is OpType.COMMIT
            )
        elif strategy == "first-op":
            target = next(p for p in site_ops if p.operation.accesses_data)
        elif strategy == "lock-point":
            target = [p for p in site_ops if p.operation.accesses_data][-1]
        else:  # pragma: no cover - registry is closed
            raise ProtocolViolation(f"unknown strategy {strategy!r}")
        target.is_ser_image = True


class TxnState(enum.Enum):
    ACTIVE = "active"
    BLOCKED_LOCAL = "blocked-local"  # waiting for a local DBMS grant
    BLOCKED_GTM2 = "blocked-gtm2"  # ser request waiting in GTM2
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _TxnRuntime:
    program: GlobalProgram
    plan: List[PlannedOp]
    cursor: int = 0
    state: TxnState = TxnState.ACTIVE
    acks_outstanding: Set[str] = field(default_factory=set)  # sites
    fin_enqueued: bool = False
    ticket_values: Dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    abort_reason: str = ""


class GTMSystem:
    """GTM1 + GTM2 over concrete local DBMSs, synchronously driven.

    Parameters
    ----------
    sites:
        site name → :class:`LocalDBMS`.
    scheme:
        the GTM2 conservative scheme (Scheme 0–3 or a baseline).
    max_restarts:
        how many times an aborted global transaction is retried with a
        fresh incarnation before being reported as failed.
    """

    def __init__(
        self,
        sites: Dict[str, LocalDBMS],
        scheme: ConservativeScheme,
        max_restarts: int = 10,
        journal=None,
        tracer=None,
    ) -> None:
        self.sites = dict(sites)
        self.scheme = scheme
        #: optional :class:`repro.core.recovery.Journal`; when attached,
        #: GTM2 is recoverable via :meth:`crash_gtm2_and_recover`
        self.engine = Engine(
            scheme,
            submit_handler=self._execute_ser,
            ack_handler=self._on_gtm1_ack,
            journal=journal,
            tracer=tracer,
        )
        self.max_restarts = max_restarts
        self._runtimes: Dict[str, _TxnRuntime] = {}
        #: incarnation id -> logical transaction id
        self._logical_of: Dict[str, str] = {}
        self._incarnation_counter: Dict[str, int] = {}
        #: ser(S) as actually executed, for verification
        self.ser_schedule = SerSchedule()
        #: logical ids that committed / permanently failed
        self.committed: List[str] = []
        self.failed: List[str] = []
        #: total global aborts observed (including retried incarnations)
        self.global_aborts = 0
        #: per-site monotone ticket counters (release order is
        #: authoritative under the one-outstanding-per-site rule)
        self._ticket_counters: Dict[str, int] = {}
        # learn about local aborts of our subtransactions even when they
        # had no operation in flight at the aborting site (e.g. wounded
        # as an active lock holder under wound-wait)
        for db in self.sites.values():
            db.abort_listeners.append(self._on_local_abort)

    def _on_local_abort(self, transaction_id: str, reason: str) -> None:
        if transaction_id in self._runtimes:
            self._abort_global(
                transaction_id, f"aborted locally: {reason}"
            )

    # ------------------------------------------------------------------
    # planning (GTM1)
    # ------------------------------------------------------------------
    def _strategy_for(self, site: str) -> str:
        protocol = self.sites[site].protocol.name
        try:
            return STRATEGY_BY_PROTOCOL[protocol]
        except KeyError:
            raise ProtocolViolation(
                f"no serialization-function strategy for protocol "
                f"{protocol!r} at site {site!r}"
            ) from None

    def plan(self, program: GlobalProgram, incarnation: str) -> List[PlannedOp]:
        """Expand a program into the per-operation plan of one
        incarnation (see :func:`plan_program`)."""
        return plan_program(program, incarnation, self._strategy_for)

    # ------------------------------------------------------------------
    # submission (GTM1 entry point)
    # ------------------------------------------------------------------
    def submit_global(self, program: GlobalProgram) -> None:
        """Admit a global transaction; actual work happens in :meth:`run`."""
        logical = program.transaction_id
        if logical in self._incarnation_counter:
            raise ProtocolViolation(
                f"global transaction {logical!r} submitted twice"
            )
        if not program.sites:
            raise ProtocolViolation(
                f"global transaction {logical!r} accesses no site"
            )
        self._incarnation_counter[logical] = 0
        self._start_incarnation(program)

    def _start_incarnation(self, program: GlobalProgram) -> None:
        logical = program.transaction_id
        count = self._incarnation_counter[logical]
        incarnation = logical if count == 0 else f"{logical}#{count}"
        self._logical_of[incarnation] = logical
        runtime = _TxnRuntime(
            program=program,
            plan=self.plan(program, incarnation),
            restarts=count,
        )
        runtime.acks_outstanding = set(program.sites)
        self._runtimes[incarnation] = runtime
        self.engine.enqueue(Init(incarnation, sites=program.sites))

    # ------------------------------------------------------------------
    # driving loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int = 100000) -> None:
        """Drive all admitted global transactions to completion.

        Round-robin: each round gives every active transaction the chance
        to issue its next operation, then lets GTM2 drain.  On a stall
        (no transaction can progress) the youngest blocked transaction is
        aborted globally and retried — the pragmatic resolution of
        cross-site blocking the paper leaves to future (fault-tolerance)
        work.
        """
        for _round in range(max_rounds):
            self.engine.run()
            progress = False
            for incarnation in list(self._runtimes):
                if self._advance(incarnation):
                    progress = True
            self.engine.run()
            if not self._runtimes:
                return
            if not progress and not self._resolve_stall():
                raise SchedulerError(
                    f"GTM stalled with no resolvable transaction: "
                    f"{ {t: r.state for t, r in self._runtimes.items()} }"
                )
        raise SchedulerError("GTM run exceeded max_rounds")

    def _advance(self, incarnation: str) -> bool:
        """Try to issue the next planned operation; True on any progress."""
        runtime = self._runtimes.get(incarnation)
        if runtime is None or runtime.state is not TxnState.ACTIVE:
            return False
        if runtime.cursor >= len(runtime.plan):
            return self._try_complete(incarnation, runtime)
        planned = runtime.plan[runtime.cursor]
        if planned.is_ser_image:
            runtime.state = TxnState.BLOCKED_GTM2
            self.engine.enqueue(
                Ser(incarnation, site=planned.operation.site)
            )
            return True
        return self._submit_direct(incarnation, runtime, planned)

    def _submit_direct(
        self, incarnation: str, runtime: _TxnRuntime, planned: PlannedOp
    ) -> bool:
        db = self.sites[planned.operation.site]
        result = db.submit(
            planned.operation,
            callback=self._make_callback(incarnation),
            read_set=planned.read_set,
            write_set=planned.write_set,
        )
        if result.status is SubmitStatus.BLOCKED:
            runtime.state = TxnState.BLOCKED_LOCAL
            return True
        # EXECUTED and ABORTED are both handled by the callback
        return True

    def _make_callback(self, incarnation: str):
        def callback(operation: Operation, value: Any, aborted: bool) -> None:
            self._on_local_completion(incarnation, operation, value, aborted)

        return callback

    def _on_local_completion(
        self,
        incarnation: str,
        operation: Operation,
        value: Any,
        aborted: bool,
    ) -> None:
        runtime = self._runtimes.get(incarnation)
        if runtime is None:
            return
        if aborted:
            self._abort_global(
                incarnation, f"subtransaction aborted at {operation.site!r}"
            )
            return
        planned = runtime.plan[runtime.cursor]
        if planned.operation is not operation:
            raise SchedulerError(
                f"completion for {operation!r} but cursor at "
                f"{planned.operation!r}"
            )
        if planned.is_ticket_read:
            # the value written back is monotone per site; GTM2's
            # one-outstanding-per-site rule makes the release order
            # authoritative even when an uncommitted predecessor's
            # ticket write is not yet visible to this read
            counter = self._ticket_counters.get(operation.site, 0)
            runtime.ticket_values[operation.site] = max(
                (value or 0) + 1, counter + 1
            )
            self._ticket_counters[operation.site] = (
                runtime.ticket_values[operation.site]
            )
        if planned.is_ticket_write:
            db = self.sites[operation.site]
            db.write_value(
                incarnation,
                operation.item,
                runtime.ticket_values.get(operation.site, 1),
            )
        runtime.cursor += 1
        if planned.is_ticket_read:
            # the ticket pair is one ser unit: issue the write now,
            # back-to-back with the read GTM2 just released
            self._submit_direct(
                incarnation, runtime, runtime.plan[runtime.cursor]
            )
        elif planned.is_ser_image or planned.is_ticket_write:
            # completion of a ser-operation: the server reports the ack
            # into GTM2's QUEUE
            self.engine.enqueue(Ack(incarnation, site=operation.site))
        else:
            runtime.state = TxnState.ACTIVE

    # ------------------------------------------------------------------
    # GTM2 callbacks (SchemeContext handlers)
    # ------------------------------------------------------------------
    def _execute_ser(self, ser: Ser) -> None:
        """GTM2 decided ``ser_k(G_i)`` may run: submit the concrete
        operation to the site through the server."""
        runtime = self._runtimes.get(ser.transaction_id)
        if runtime is None:
            return  # transaction aborted while the request sat in GTM2
        planned = runtime.plan[runtime.cursor]
        if not planned.is_ser_image or planned.operation.site != ser.site:
            raise SchedulerError(
                f"GTM2 released {ser!r} but cursor is at "
                f"{planned.operation!r}"
            )
        self.ser_schedule.append(SerOperation(ser.transaction_id, ser.site))
        self._submit_direct(ser.transaction_id, runtime, planned)

    def _on_gtm1_ack(self, ack: Ack) -> None:
        """GTM2 forwarded an ack to GTM1: resume the transaction and,
        when it was the last ser-ack, enqueue ``fin``."""
        runtime = self._runtimes.get(ack.transaction_id)
        if runtime is None:
            return
        runtime.acks_outstanding.discard(ack.site)
        runtime.state = TxnState.ACTIVE
        if not runtime.acks_outstanding and not runtime.fin_enqueued:
            runtime.fin_enqueued = True
            self.engine.enqueue(Fin(ack.transaction_id))

    # ------------------------------------------------------------------
    # completion / abort
    # ------------------------------------------------------------------
    def _try_complete(self, incarnation: str, runtime: _TxnRuntime) -> bool:
        if runtime.acks_outstanding:
            return False
        runtime.state = TxnState.COMMITTED
        del self._runtimes[incarnation]
        self.committed.append(self._logical_of[incarnation])
        return True

    def _abort_global(self, incarnation: str, reason: str) -> None:
        """Abort an incarnation at every site, purge GTM2 state, retry."""
        runtime = self._runtimes.pop(incarnation, None)
        if runtime is None:
            return
        self.global_aborts += 1
        runtime.state = TxnState.ABORTED
        runtime.abort_reason = reason
        for site in runtime.program.sites:
            db = self.sites[site]
            if db.is_active(incarnation) or db.is_blocked(incarnation):
                db.abort_transaction(incarnation, reason)
        self._purge_gtm2(incarnation)
        logical = self._logical_of[incarnation]
        self._incarnation_counter[logical] += 1
        if self._incarnation_counter[logical] <= self.max_restarts:
            self._start_incarnation(runtime.program)
        else:
            self.failed.append(logical)

    def _purge_gtm2(self, incarnation: str) -> None:
        """Remove an aborted transaction from GTM2's queue, wait set, and
        the scheme's data structures (the fault-handling hook the paper
        defers to future work).  Goes through the engine so the purge is
        journaled and the WAIT index stays consistent."""
        self.engine.purge_transaction(incarnation)
        remover = getattr(self.scheme, "remove_transaction", None)
        if remover is not None:
            remover(incarnation)

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    def crash_gtm2_and_recover(
        self,
        scheme_factory: Optional[Callable[[], ConservativeScheme]] = None,
    ) -> None:
        """Simulate a GTM2 crash: discard the scheduler's in-memory state
        and rebuild it from the journal (see :mod:`repro.core.recovery`).
        GTM1's bookkeeping (plans, cursors, outstanding acks) survives —
        only the GTM2 component crashes.  Requires a journal to have been
        attached at construction."""
        from repro.core.recovery import recover_engine

        journal = self.engine.journal
        if journal is None:
            raise SchedulerError(
                "cannot recover GTM2 without a journal; pass journal= to "
                "GTMSystem()"
            )
        fresh = (
            scheme_factory() if scheme_factory is not None
            else type(self.scheme)()
        )
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.event("gtm.crash_recovery")
        self.engine = recover_engine(
            fresh,
            journal,
            submit_handler=self._execute_ser,
            ack_handler=self._on_gtm1_ack,
            new_journal=journal,
            tracer=tracer,
        )
        self.scheme = fresh

    def _resolve_stall(self) -> bool:
        """Break a cross-site blocking cycle (e.g. GTM2 serialization
        order vs. a lock queue at another site) by aborting one global
        transaction; returns False when nothing is blocked (a genuine
        scheduler bug).

        Victim choice: prefer a *blocked* transaction that some other
        transaction is waiting on locally (a genuine cycle participant);
        fall back to the blocked transaction with the fewest restarts so
        repeated stalls rotate victims instead of starving one.
        """
        blocked = [
            incarnation
            for incarnation, runtime in self._runtimes.items()
            if runtime.state
            in (TxnState.BLOCKED_LOCAL, TxnState.BLOCKED_GTM2)
        ]
        if not blocked:
            return False
        holders_blocking_someone = set()
        for db in self.sites.values():
            for _waiter, holder in db.waits_for_edges():
                holders_blocking_someone.add(holder)
        participants = [
            incarnation
            for incarnation in blocked
            if incarnation in holders_blocking_someone
        ]
        pool = participants or blocked
        victim = min(
            pool,
            key=lambda inc: (self._runtimes[inc].restarts, inc),
        )
        self._abort_global(victim, "global stall resolution")
        return True

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def global_schedule(self) -> GlobalSchedule:
        """The executed global schedule, from the local history logs."""
        incarnations = set(self._logical_of)
        return GlobalSchedule(
            {site: db.history.committed_schedule() for site, db in self.sites.items()},
            global_transaction_ids=incarnations,
        )

    def verify_serializable(self) -> Tuple[str, ...]:
        """Assert global serializability from the ground-truth histories;
        returns a witness serial order."""
        return self.global_schedule().assert_globally_serializable()
