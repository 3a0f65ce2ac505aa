"""Tests for repro.engine.clock — SimClock and Throttle."""

import pytest

from repro.engine.clock import SimClock, Throttle
from repro.errors import ReplayError, ValidationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_moves_forward_and_returns(self):
        clock = SimClock()
        assert clock.advance(10.0) == 10.0
        assert clock.now == 10.0

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(10.0)
        assert clock.now == 10.0

    def test_advance_backwards_raises(self):
        clock = SimClock()
        clock.advance(10.0)
        with pytest.raises(ReplayError):
            clock.advance(9.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_advance_to_non_finite_raises(self, bad):
        clock = SimClock()
        clock.advance(10.0)
        with pytest.raises(ReplayError, match="finite"):
            clock.advance(bad)
        assert clock.now == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError):
            SimClock(-1.0)


class TestThrottle:
    def test_ready_immediately_after_reset(self):
        throttle = Throttle(13.0)
        throttle.reset(100.0)
        assert throttle.ready(100.0)
        assert not throttle.ready(99.0)

    def test_arm_closes_gate_for_one_interval(self):
        throttle = Throttle(13.0)
        throttle.arm(100.0)
        assert not throttle.ready(112.0)
        assert throttle.ready(113.0)
        assert throttle.next_allowed == 113.0

    def test_defer_until_overrides_interval(self):
        throttle = Throttle(13.0)
        throttle.arm(100.0)
        throttle.defer_until(500.0)
        assert not throttle.ready(499.0)
        assert throttle.ready(500.0)

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValidationError):
            Throttle(0.0)
        with pytest.raises(ValidationError):
            Throttle(-5.0)
