"""The benchmark's arithmetic, checked against hand-computed values.

    python3 -m pytest perfbench/tests -q
"""

import pytest

from calib import CalibratedClock, calibrate, percentile, spread, tail_percentile
from serve import client_time
from spans import SpanRecorder, self_times


@pytest.mark.parametrize(
    "samples, expected",
    [
        (10, 0.0),  # too few for any tail
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (99999, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    if expected == 0.0:
        with pytest.raises(ValueError):
            tail_percentile(samples)
        return
    pct = tail_percentile(samples)
    assert pct == expected
    assert round(samples * (100 - pct) / 100, 9) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 99.9) == 100
    assert percentile([7.0], 50.0) == 7.0


def test_spread_is_iqr_over_median():
    # statistics.quantiles(n=4) of 1..9 (exclusive method): 2.5, 5, 7.5
    assert spread(range(1, 10)) == pytest.approx(5.0 / 5.0)


class FakeTime:
    """A timer the test advances by hand, and a kernel with scripted times."""

    def __init__(self, kernels):
        self.now = 0.0
        self.kernels = list(kernels)

    def timer(self):
        return self.now

    def kernel(self):
        return self.kernels.pop(0)


def test_each_slice_is_normalised_by_the_kernel_run_after_it():
    # Times in ms: the kernel's nominal time is 1, slices are 10 long.
    fake = FakeTime(kernels=[2.0, 1.0, 4.0])
    clock = CalibratedClock(
        slice_s=10.0, check_every=1, timer=fake.timer, reference=fake.kernel, nominal=1.0
    )
    clock.start()
    fake.now = 12.0  # first slice: 12 ms while the machine ran 2x slow -> 6
    clock.tick()
    fake.now = 22.0  # second slice: 10 ms at nominal speed -> 10
    clock.tick()
    fake.now = 25.0  # partial last slice: 3 ms at 4x slow -> 0.75
    clock.stop()
    assert clock.kernel_times == [2.0, 1.0, 4.0]
    assert clock.wall == 25.0
    assert clock.calibrated == 6.0 + 10.0 + 0.75


def test_ticks_below_the_slice_length_do_not_close_a_slice():
    fake = FakeTime(kernels=[2.0])
    clock = CalibratedClock(
        slice_s=10.0, check_every=1, timer=fake.timer, reference=fake.kernel, nominal=1.0
    )
    clock.start()
    for _ in range(5):
        fake.now += 1.0
        clock.tick()
    assert clock.kernel_times == []
    clock.stop()
    assert clock.kernel_times == [2.0]
    assert clock.calibrated == calibrate(5.0, 2.0, 1.0) == 2.5


def test_self_time_subtracts_nested_children():
    # stamp [0, 10] contains network [2, 5] and delivery [6, 9], and
    # delivery contains trace [7, 8]; sim [12, 14] is a second root.
    spans = [
        ("stamp", 0.0, 10.0, -1, 1),
        ("network", 2.0, 5.0, 0, -1),
        ("delivery", 6.0, 9.0, 0, 1),
        ("trace", 7.0, 8.0, 2, 1),
        ("sim", 12.0, 14.0, -1, -1),
    ]
    own, covered = self_times(spans)
    assert own == {"stamp": 4.0, "network": 3.0, "delivery": 2.0, "trace": 1.0, "sim": 2.0}
    assert covered == 12.0
    assert sum(own.values()) == covered


def test_recorder_links_children_to_the_open_span():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    rec = SpanRecorder(timer=lambda: next(ticks))
    outer = rec.begin("stamp", msg=7)
    inner = rec.begin("network")
    rec.finish(inner)
    rec.finish(outer)
    assert list(rec.spans()) == [("stamp", 0.0, 4.0, -1, 7), ("network", 1.0, 3.0, 0, -1)]
    own, covered = self_times(rec.spans())
    assert own == {"stamp": 2.0, "network": 2.0} and covered == 4.0


def test_health_handshake_maps_server_time_to_the_client_clock():
    # The server's clock read 5,000,000 virtual ms at client time 100.0 s
    # (the handshake midpoint); at time_scale 1e-7 one virtual ms lasts
    # 0.1 us, so 20,000,000 virtual ms later is 2 s later on the client.
    assert client_time(25_000_000.0, 5_000_000.0, 100.0, 1e-7) == pytest.approx(102.0)
    assert client_time(5_000_000.0, 5_000_000.0, 100.0, 1e-7) == pytest.approx(100.0)
    # a record stamped before the handshake maps to before the midpoint
    assert client_time(4_000_000.0, 5_000_000.0, 100.0, 1e-7) == pytest.approx(99.9)
