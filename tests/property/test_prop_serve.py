"""Property tests: the enclosure's one service walk.

:meth:`DiskEnclosure.submit_one` (the replay pump's single I/O) and
:meth:`DiskEnclosure.submit` (the batch API) are both thin adapters over
:meth:`DiskEnclosure.serve`.  Fed the same arrivals, twin enclosures
must therefore answer float for float alike — the response time, every
energy and time-in-state book, and every I/O counter — whether or not
a fault clock with an outage window is attached.  Power-off is enabled
so the walk also spins down and back up between bursts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EnclosureUnavailableError
from repro.faults import FaultClock, FaultPlan
from repro.faults.plan import EnclosureOutage
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import PowerState

#: Gaps short enough to queue behind the previous I/O, and long enough
#: to cross the 52 s spin-down timeout.
gaps = st.one_of(
    st.floats(min_value=0.0, max_value=0.01),
    st.floats(min_value=0.0, max_value=200.0),
)

arrivals = st.lists(
    st.tuples(gaps, st.booleans(), st.booleans()), min_size=1, max_size=60
)

outages = st.tuples(
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=1.0, max_value=500.0),
)


def twin(outage: tuple[float, float] | None) -> DiskEnclosure:
    enclosure = DiskEnclosure(
        "e0", iops_random=90.0, iops_sequential=280.0, spin_down_timeout=52.0
    )
    if outage is not None:
        start, length = outage
        plan = FaultPlan(
            events=(
                EnclosureOutage(enclosure="e0", start=start, end=start + length),
            )
        )
        enclosure.set_fault_clock(FaultClock(plan))
    enclosure.enable_power_off(0.0)
    return enclosure


def books(enclosure: DiskEnclosure) -> dict:
    return {
        "energy": [enclosure.energy_joules(s) for s in PowerState],
        "time": [enclosure.time_in_state(s) for s in PowerState],
        "total_energy": enclosure.energy_joules(),
        "clock": enclosure.clock,
        "state": enclosure.state,
        "busy_until": enclosure.busy_until,
        "counts": (
            enclosure.io_count,
            enclosure.read_count,
            enclosure.write_count,
            enclosure.spin_up_count,
            enclosure.spin_down_count,
        ),
        "last_io_time": enclosure.last_io_time,
        "spin_up_events": list(enclosure.spin_up_events),
    }


def replay_twins(ops, outage) -> None:
    one, batch = twin(outage), twin(outage)
    now = 0.0
    for gap, read, sequential in ops:
        now += gap
        try:
            got_one: object = one.submit_one(now, read, sequential)
        except EnclosureUnavailableError as err:
            got_one = ("refused", err.at, err.until)
        try:
            got_batch: object = batch.submit(
                now, count=1, read=read, sequential=sequential
            ).mean_response_time
        except EnclosureUnavailableError as err:
            got_batch = ("refused", err.at, err.until)
        assert got_one == got_batch
        assert books(one) == books(batch)
    one.finish(now + 400.0)
    batch.finish(now + 400.0)
    assert books(one) == books(batch)


@given(arrivals)
@settings(max_examples=150, deadline=None)
def test_submit_one_equals_submit_without_faults(ops):
    replay_twins(ops, outage=None)


@given(arrivals, outages)
@settings(max_examples=150, deadline=None)
def test_submit_one_equals_submit_under_an_outage_window(ops, outage):
    replay_twins(ops, outage)
