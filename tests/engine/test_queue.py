"""Tests for repro.engine.queue — deterministic ordering + cancellation."""

import pytest

from repro.engine.events import (
    Event,
    FaultBookkeepingEvent,
    FlushDeadlineEvent,
    PolicyCheckpointEvent,
    TimelineSampleEvent,
)
from repro.engine.queue import EventQueue
from repro.errors import UsageError, ValidationError

#: One constructor per priority class, lowest class first.
EVENT_KINDS = [
    TimelineSampleEvent,
    FaultBookkeepingEvent,
    PolicyCheckpointEvent,
    FlushDeadlineEvent,
]


def drain(queue):
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append(event)


class TestOrdering:
    def test_time_order_dominates(self):
        queue = EventQueue()
        late = queue.push(TimelineSampleEvent(20.0))
        early = queue.push(FlushDeadlineEvent(10.0))
        assert drain(queue) == [early, late]

    def test_priority_class_breaks_time_ties(self):
        queue = EventQueue()
        # Push in reverse class order; pops must follow the documented
        # class order regardless.
        events = [kind(50.0) for kind in reversed(EVENT_KINDS)]
        for event in events:
            queue.push(event)
        assert drain(queue) == list(reversed(events))

    def test_fifo_within_same_time_and_class(self):
        queue = EventQueue()
        first = queue.push(PolicyCheckpointEvent(50.0))
        second = queue.push(PolicyCheckpointEvent(50.0))
        assert drain(queue) == [first, second]

    def test_peek_key_matches_next_pop(self):
        queue = EventQueue()
        queue.push(PolicyCheckpointEvent(50.0))
        queue.push(TimelineSampleEvent(50.0))
        key = queue.peek_key()
        event = queue.pop()
        assert key[:2] == (event.time, event.priority)
        assert isinstance(event, TimelineSampleEvent)


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        doomed = queue.push(PolicyCheckpointEvent(10.0))
        kept = queue.push(PolicyCheckpointEvent(20.0))
        queue.cancel(doomed)
        assert len(queue) == 1
        assert drain(queue) == [kept]

    def test_peek_discards_cancelled_head(self):
        queue = EventQueue()
        doomed = queue.push(TimelineSampleEvent(10.0))
        queue.cancel(doomed)
        assert queue.peek_key() is None
        assert queue.pop() is None

    def test_cancel_after_pop_is_harmless(self):
        queue = EventQueue()
        event = queue.push(PolicyCheckpointEvent(10.0))
        assert queue.pop() is event
        queue.cancel(event)  # already out of the queue: no-op
        assert len(queue) == 0
        assert not event.cancelled

    def test_double_push_rejected(self):
        queue = EventQueue()
        event = queue.push(PolicyCheckpointEvent(10.0))
        with pytest.raises(UsageError):
            queue.push(event)
        queue.cancel(event)
        with pytest.raises(UsageError):
            queue.push(event)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            TimelineSampleEvent(-1.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ValidationError, match="finite"):
            TimelineSampleEvent(time)

    def test_base_event_fire_is_abstract(self):
        queue = EventQueue()
        event = queue.push(Event(1.0))
        with pytest.raises(NotImplementedError):
            queue.pop().fire(None)

    def test_repr_shows_time_and_cancel_state(self):
        event = TimelineSampleEvent(5.0)
        assert "TimelineSampleEvent" in repr(event)
        assert "t=5.0" in repr(event)
