"""Tests for the discrete-event loop."""

import pytest

from repro.errors import MachineError
from repro.machine.events import EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule_at(3.0, lambda: fired.append("c"))
    loop.schedule_at(1.0, lambda: fired.append("a"))
    loop.schedule_at(2.0, lambda: fired.append("b"))
    loop.run()
    assert fired == ["a", "b", "c"]
    assert loop.now == 3.0


def test_ties_break_by_insertion_order():
    loop = EventLoop()
    fired = []
    for label in "abc":
        loop.schedule_at(1.0, lambda label=label: fired.append(label))
    loop.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order_across_schedule_styles():
    """Plain, arg-carrying, and relative events share one seq stream."""
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, lambda: fired.append("plain"))
    loop.schedule_call_at(1.0, fired.append, "call")
    loop.schedule(1.0, lambda: fired.append("relative"))
    loop.schedule_call_at(1.0, fired.append, "call2")
    loop.run()
    assert fired == ["plain", "call", "relative", "call2"]


def test_schedule_relative_delay():
    loop = EventLoop()
    seen = []
    loop.schedule(0.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [0.5]


def test_schedule_call_at_passes_argument():
    loop = EventLoop()
    seen = []
    loop.schedule_call_at(1.0, seen.append, 42)
    loop.run()
    assert seen == [42]


def test_events_can_schedule_events():
    loop = EventLoop()
    fired = []

    def first():
        fired.append(("first", loop.now))
        loop.schedule(1.0, lambda: fired.append(("second", loop.now)))

    loop.schedule_at(1.0, first)
    loop.run()
    assert fired == [("first", 1.0), ("second", 2.0)]


def test_run_until_stops_and_advances_clock():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, lambda: fired.append(1))
    loop.schedule_at(5.0, lambda: fired.append(5))
    count = loop.run(until=2.0)
    assert count == 1
    assert fired == [1]
    assert loop.now == 2.0
    # The late event is still pending and fires on the next run.
    loop.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_even_with_no_events():
    loop = EventLoop()
    loop.run(until=7.0)
    assert loop.now == 7.0


def test_max_events_bounds_execution():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule_at(float(i + 1), lambda i=i: fired.append(i))
    loop.run(max_events=3)
    assert fired == [0, 1, 2]


def test_run_until_with_max_events_leaves_clock_at_last_fired():
    """When max_events stops the run first, the clock does NOT jump to
    *until*; it stays at the last fired event so a later run resumes."""
    loop = EventLoop()
    fired = []
    for i in range(5):
        loop.schedule_at(float(i + 1), lambda i=i: fired.append(i))
    count = loop.run(until=10.0, max_events=2)
    assert count == 2
    assert loop.now == 2.0
    assert fired == [0, 1]
    # Resuming honours the original bound and then advances exactly to it.
    loop.run(until=10.0)
    assert fired == [0, 1, 2, 3, 4]
    assert loop.now == 10.0


def test_pending_counts_only_live_events():
    loop = EventLoop()
    loop.schedule_at(1.0, lambda: None)
    loop.schedule_at(2.0, lambda: None)
    assert loop.pending == 2
    loop.run(until=1.5)
    assert loop.pending == 1
    loop.run()
    assert loop.pending == 0


def test_scheduling_in_the_past_is_rejected():
    loop = EventLoop()
    loop.schedule_at(5.0, lambda: None)
    loop.run()
    with pytest.raises(MachineError):
        loop.schedule_at(1.0, lambda: None)
    with pytest.raises(MachineError):
        loop.schedule(-0.1, lambda: None)
    with pytest.raises(MachineError):
        loop.schedule_call_at(1.0, print, None)


def test_step_fires_single_event():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, lambda: fired.append("a"))
    loop.schedule_at(2.0, lambda: fired.append("b"))
    assert loop.step() is True
    assert fired == ["a"]
    assert loop.step() is True
    assert loop.step() is False
    assert fired == ["a", "b"]


def test_reentrancy_guard():
    loop = EventLoop()
    errors = []

    def reenter():
        try:
            loop.run()
        except MachineError as exc:
            errors.append(str(exc))

    loop.schedule_at(1.0, reenter)
    loop.run()
    assert errors == ["event loop is not reentrant"]
    # The guard releases afterwards: the loop is usable again.
    fired = []
    loop.schedule(1.0, lambda: fired.append("ok"))
    loop.run()
    assert fired == ["ok"]


def test_reentrancy_guard_releases_after_callback_exception():
    loop = EventLoop()

    def boom():
        raise RuntimeError("callback failed")

    loop.schedule_at(1.0, boom)
    with pytest.raises(RuntimeError):
        loop.run()
    loop.schedule(1.0, lambda: None)
    assert loop.run() == 1


def test_profile_counters():
    loop = EventLoop()
    for i in range(5):
        loop.schedule_at(float(i + 1), lambda: None)
    assert loop.heap_peak == 5
    fired = loop.run()
    assert fired == 5
    assert loop.events_fired_total == 5
    assert loop.pending == 0
    # Counters accumulate across runs.
    loop.schedule(1.0, lambda: None)
    loop.step()
    assert loop.events_fired_total == 6
