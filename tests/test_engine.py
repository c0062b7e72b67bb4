"""Unit tests for the event engine and contention resources."""

import math

import pytest

from repro.sim.engine import Engine
from repro.sim.resources import FifoResource, ThroughputResource


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        log = []
        eng.at(5, lambda: log.append("b"))
        eng.at(2, lambda: log.append("a"))
        eng.at(9, lambda: log.append("c"))
        eng.run()
        assert log == ["a", "b", "c"]
        assert eng.now == 9

    def test_ties_fire_in_schedule_order(self):
        eng = Engine()
        log = []
        for tag in "xyz":
            eng.at(3, lambda t=tag: log.append(t))
        eng.run()
        assert log == ["x", "y", "z"]

    def test_after_is_relative(self):
        eng = Engine()
        times = []
        eng.at(10, lambda: eng.after(5, lambda: times.append(eng.now)))
        eng.run()
        assert times == [15]

    def test_past_scheduling_rejected(self):
        eng = Engine()
        eng.at(10, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.at(5, lambda: None)
        with pytest.raises(ValueError):
            eng.after(-1, lambda: None)
        # NaN compares False against everything: it must not slip past.
        with pytest.raises(ValueError):
            eng.at(math.nan, lambda: None)
        with pytest.raises(ValueError):
            eng.after(math.nan, lambda: None)
        assert eng.pending == 0 and eng.now == 10

    def test_run_until_stops_clock(self):
        eng = Engine()
        fired = []
        eng.at(100, lambda: fired.append(1))
        eng.run(until=50)
        assert not fired and eng.now == 50
        eng.run()
        assert fired and eng.now == 100

    def test_max_events_guard(self):
        eng = Engine()

        def loop():
            eng.after(0, loop)

        eng.after(0, loop)
        with pytest.raises(RuntimeError, match="max_events"):
            eng.run(max_events=100)

    def test_max_events_fires_exactly_the_limit(self):
        # The guard must stop after exactly max_events, not max_events + 1.
        eng = Engine()

        def loop():
            eng.after(1, loop)

        eng.after(1, loop)
        with pytest.raises(RuntimeError, match="max_events=5"):
            eng.run(max_events=5)
        assert eng.events_fired == 5

    def test_max_events_equal_to_queue_drains_cleanly(self):
        # A queue that drains at exactly the limit is not a runaway.
        eng = Engine()
        log = []
        for i in range(4):
            eng.at(i, lambda i=i: log.append(i))
        eng.run(max_events=4)
        assert log == [0, 1, 2, 3]

    def test_run_until_past_raises(self):
        # Rewinding the clock would corrupt causality, exactly like at().
        eng = Engine()
        eng.at(10, lambda: None)
        eng.run()
        assert eng.now == 10
        with pytest.raises(ValueError, match="cannot run"):
            eng.run(until=5)  # empty-heap branch
        eng.at(100, lambda: None)
        with pytest.raises(ValueError, match="cannot run"):
            eng.run(until=5)  # pending-event branch
        assert eng.now == 10  # clock untouched by the rejected calls
        with pytest.raises(ValueError, match="cannot run"):
            eng.run(until=math.nan)
        with pytest.raises(ValueError, match="cannot step"):
            eng.step(until=math.nan)
        eng.run(until=10)  # until == now is a legal no-op
        assert eng.now == 10

    def test_step_and_pending(self):
        eng = Engine()
        eng.at(1, lambda: None)
        eng.at(2, lambda: None)
        assert eng.pending == 2
        assert eng.step()
        assert eng.pending == 1
        assert eng.step()
        assert not eng.step()

    def test_step_honours_until(self):
        # step() shares run()'s contract: no rewinding, no overshooting.
        eng = Engine()
        eng.at(5, lambda: None)
        eng.at(20, lambda: None)
        assert eng.step(until=10)       # fires the t=5 event
        assert eng.now == 5
        assert not eng.step(until=10)   # t=20 lies beyond; clock -> until
        assert eng.now == 10
        assert eng.pending == 1
        with pytest.raises(ValueError, match="cannot step"):
            eng.step(until=3)           # pending-event branch
        assert eng.now == 10
        assert eng.step()               # unbounded step still fires t=20
        assert eng.now == 20
        with pytest.raises(ValueError, match="cannot step"):
            eng.step(until=3)           # empty-heap branch
        assert not eng.step(until=30)   # empty heap: clock -> until
        assert eng.now == 30

    def test_next_event_time(self):
        eng = Engine()
        assert eng.next_event_time() is None
        eng.at(7, lambda: None)
        eng.at(3, lambda: None)
        assert eng.next_event_time() == 3
        eng.run()
        assert eng.next_event_time() is None


class TestFifoResource:
    def test_immediate_grant_then_queue(self):
        eng = Engine()
        res = FifoResource(eng, "r")
        order = []
        res.request(lambda: order.append(("a", eng.now)))
        res.request(lambda: order.append(("b", eng.now)))
        assert order == [("a", 0)]  # a granted synchronously, b queued
        eng.at(10, res.release)
        eng.run()
        assert order == [("a", 0), ("b", 10)]

    def test_fifo_order(self):
        eng = Engine()
        res = FifoResource(eng, "r")
        order = []
        for tag in "abcd":
            res.request(lambda t=tag: order.append(t))
        for _ in range(4):
            eng.after(1, res.release)
            eng.run()
        assert order == list("abcd")

    def test_release_idle_raises(self):
        eng = Engine()
        res = FifoResource(eng, "r")
        with pytest.raises(RuntimeError):
            res.release()

    def test_hold_for(self):
        eng = Engine()
        res = FifoResource(eng, "cpu")
        done = []
        res.hold_for(100, lambda: done.append(eng.now))
        res.hold_for(50, lambda: done.append(eng.now))
        eng.run()
        assert done == [100, 150]  # serialized

    def test_queue_length(self):
        eng = Engine()
        res = FifoResource(eng, "r")
        res.request(lambda: None)
        res.request(lambda: None)
        res.request(lambda: None)
        assert res.busy and res.queue_length == 2

    def test_requests_after_drop_waiters_queue_again(self):
        eng = Engine()
        res = FifoResource(eng, "r")
        order = []
        for tag in "ab":
            res.request(lambda t=tag: order.append(t))
        res.drop_waiters()
        assert res.queue_length == 0
        res.request(lambda: order.append("c"))
        assert res.queue_length == 1
        res.release()
        eng.run()
        assert order == ["a", "c"]  # b was dropped, c queued afresh


class TestThroughputResource:
    def test_single_transfer_time(self):
        eng = Engine()
        bus = ThroughputResource(eng, rate=2.0)
        done = []
        bus.transfer(100, lambda: done.append(eng.now))
        eng.run()
        assert done == [50.0]

    def test_transfers_serialize(self):
        eng = Engine()
        bus = ThroughputResource(eng, rate=2.0)
        done = []
        bus.transfer(100, lambda: done.append(("a", eng.now)))
        bus.transfer(100, lambda: done.append(("b", eng.now)))
        eng.run()
        assert done == [("a", 50.0), ("b", 100.0)]

    def test_idle_gap_not_accumulated(self):
        eng = Engine()
        bus = ThroughputResource(eng, rate=1.0)
        done = []
        bus.transfer(10, lambda: done.append(eng.now))
        eng.at(100, lambda: bus.transfer(10, lambda: done.append(eng.now)))
        eng.run()
        assert done == [10.0, 110.0]

    def test_invalid_args(self):
        eng = Engine()
        with pytest.raises(ValueError):
            ThroughputResource(eng, rate=0)
        bus = ThroughputResource(eng, rate=1.0)
        with pytest.raises(ValueError):
            bus.transfer(-1, lambda: None)

    def test_counters(self):
        eng = Engine()
        bus = ThroughputResource(eng, rate=1.0)
        bus.transfer(5, lambda: None)
        bus.transfer(7, lambda: None)
        eng.run()
        assert bus.transfers == 2 and bus.flits_moved == 12
