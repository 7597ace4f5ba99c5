"""EventLoop: O(1) pending, leak-free cancel, invisible compaction.

``pending`` is a live counter, never a heap scan, and compacting
cancelled entries must never change the pop order.
"""

import random

import pytest

from repro.mdbs import events
from repro.mdbs.events import _COMPACT_MIN, EventLoop, SimulationError


def _loop(monkeypatch, compact):
    """A fresh loop, with heap compaction disabled unless *compact*."""
    if not compact:
        monkeypatch.setattr(events, "_COMPACT_MIN", 10**9)
    return EventLoop()


@pytest.mark.parametrize("compact", [True, False])
def test_pending_counts_only_live_events(monkeypatch, compact):
    loop = _loop(monkeypatch, compact)
    events = [loop.schedule(float(i), lambda: None) for i in range(10)]
    assert loop.pending == 10
    for event in events[:4]:
        event.cancel()
    assert loop.pending == 6
    loop.run(until=4.0)
    # t in {0..4} scheduled 5 events, of which 4 were cancelled
    assert loop.executed == 1
    assert loop.pending == 5


@pytest.mark.parametrize("compact", [True, False])
def test_cancel_releases_action_closure(monkeypatch, compact):
    loop = _loop(monkeypatch, compact)
    fired = []
    event = loop.schedule(1.0, lambda: fired.append(1))
    assert event.action is not None
    event.cancel()
    # the closed-over action is dropped immediately: a cancelled
    # ack-timeout timer must not pin a dead server until its time
    assert event.action is None
    event.cancel()  # idempotent
    loop.run()
    assert fired == []
    assert loop.pending == 0


@pytest.mark.parametrize("compact", [True, False])
def test_cancel_after_fire_is_a_noop(monkeypatch, compact):
    loop = _loop(monkeypatch, compact)
    fired = []
    event = loop.schedule(1.0, lambda: fired.append(1))
    loop.run()
    assert fired == [1]
    assert event.fired and event.action is None
    before = loop.pending
    event.cancel()  # benign race: the ack arrived after the timeout
    assert not event.cancelled
    assert loop.pending == before


def test_fired_event_releases_action_closure():
    loop = EventLoop()
    event = loop.schedule(0.5, lambda: None)
    loop.run()
    assert event.action is None


def test_compaction_triggers_and_preserves_order():
    loop = EventLoop()
    rng = random.Random(7)
    times = [rng.uniform(0, 100) for _ in range(4 * _COMPACT_MIN)]
    order = []
    events = [
        loop.schedule(time, lambda t=time: order.append(t))
        for time in times
    ]
    doomed = rng.sample(events, 3 * _COMPACT_MIN)
    for event in doomed:
        event.cancel()
    assert loop.compactions > 0
    assert len(loop._heap) < len(times)
    loop.run()
    kept = sorted(
        event.time for event in events if event not in doomed
    )
    assert order == kept


def _heap_scan(loop):
    return sum(1 for _, _, event in loop._heap if not event.cancelled)


def _drive_random_trace(loop):
    """A seeded storm of schedules and cancels; after every executed
    event, ``pending`` must equal a full heap scan."""
    trace = []
    rng = random.Random(13)
    handles = []

    def tick(label):
        trace.append((loop.now, label))
        if rng.random() < 0.4 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        if rng.random() < 0.6:
            label2 = f"{label}+"
            handles.append(
                loop.schedule(
                    rng.uniform(0, 5), lambda name=label2: tick(name)
                )
            )
        assert loop.pending == _heap_scan(loop)

    for i in range(100):
        handles.append(
            loop.schedule(
                rng.uniform(0, 50), lambda name=f"e{i}": tick(name)
            )
        )
    for _ in range(60):
        handles.pop(rng.randrange(len(handles))).cancel()
        assert loop.pending == _heap_scan(loop)
    loop.run()
    return trace, loop.executed, loop.now


def test_compaction_is_invisible(monkeypatch):
    """The same random trace with compaction on and forced off: same
    execution trace, and ``pending`` always equals a heap scan."""
    compacting = _loop(monkeypatch, True)
    with_compaction = _drive_random_trace(compacting)
    assert compacting.compactions > 0
    plain = _loop(monkeypatch, False)
    without_compaction = _drive_random_trace(plain)
    assert plain.compactions == 0
    assert with_compaction == without_compaction


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule_at(-1.0, lambda: None)
