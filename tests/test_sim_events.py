"""Unit tests for the discrete-event simulator kernel."""

import pytest

from repro.sim.events import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_executed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    assert sim.pending == 1
    executed = sim.run()
    assert executed == 1
    assert fired == ["a"]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(2.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_tie_break_is_scheduling_order():
    sim = Simulator()
    fired = []
    for name in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, 1)
    sim.run()
    assert fired == [1]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: sim.schedule_at(7.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [7.0]


def test_schedule_at_pushes_the_exact_time():
    # now + (time - now) rounds below time here; the event must not.
    sim = Simulator()
    sim.schedule(0.2, lambda: None)
    sim.run()
    time = 0.9
    assert sim.now + (time - sim.now) < time
    handle = sim.schedule_at(time, lambda: None)
    assert handle.time == time


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert sim.run() == 0
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending == 0


def test_cancel_mid_run():
    sim = Simulator()
    fired = []
    later = sim.schedule(2.0, fired.append, "later")
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert fired == []


def test_pending_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep is not None


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "exact")
    sim.run(until=5.0)
    assert fired == ["exact"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    assert sim.run(max_events=3) == 3
    assert fired == [0, 1, 2]


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 5.0


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_peek_time():
    sim = Simulator()
    assert sim.peek_time() is None
    sim.schedule(4.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek_time() == 2.0


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.pending == 1


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_clock_monotonicity_across_many_events():
    sim = Simulator()
    times = []
    import random

    rng = random.Random(0)
    for _ in range(200):
        sim.schedule(rng.uniform(0, 100), lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == 200


def test_repr_smoke():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert "pending" in repr(sim)
    assert "pending" in repr(handle)
    handle.cancel()
    assert "cancelled" in repr(handle)
