"""TokenBucket and AdmissionController: deterministic clock, no sleeps."""

import pytest

from repro.errors import EXIT_SHED, ServiceShed, exit_code_for
from repro.obs import observer as _obs
from repro.obs.observer import Observer
from repro.service.admission import AdmissionController, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------

def test_bucket_burst_then_refill_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, capacity=3, clock=clock)
    assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
    clock.advance(0.5)  # one token refilled at 2/s
    assert bucket.try_acquire()
    assert not bucket.try_acquire()


def test_bucket_never_exceeds_capacity():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, capacity=2, clock=clock)
    clock.advance(100.0)
    assert bucket.tokens == 2.0


def test_bucket_retry_after_is_the_token_deficit_over_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=4.0, capacity=1, clock=clock)
    assert bucket.retry_after() == 0.0
    bucket.try_acquire()
    assert bucket.retry_after() == pytest.approx(0.25)


def test_disabled_bucket_always_admits():
    bucket = TokenBucket(rate=None)
    assert all(bucket.try_acquire() for _ in range(1000))
    assert bucket.retry_after() == 0.0


def test_probe_helpers_drain_and_fill_deterministically():
    clock = FakeClock()
    bucket = TokenBucket(rate=5.0, capacity=4, clock=clock)
    bucket.drain_tokens()
    assert not bucket.try_acquire()
    bucket.fill_tokens()
    assert bucket.tokens == 4.0


def test_bucket_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=float("nan"))
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, capacity=0)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------

def controller(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    return AdmissionController(**kwargs)


def test_full_until_soft_threshold_then_degraded():
    ctl = controller(max_inflight=4, soft_inflight=2)
    modes = [ctl.acquire().mode for _ in range(4)]
    assert modes == ["full", "full", "degraded", "degraded"]
    assert ctl.stats() == {
        "inflight": 4, "admitted": 2, "degraded": 2,
        "shed_rate": 0, "shed_depth": 0,
    }


def test_depth_shed_at_the_hard_cap_is_a_503():
    ctl = controller(max_inflight=2)
    ctl.acquire()
    ctl.acquire()
    with pytest.raises(ServiceShed) as exc:
        ctl.acquire()
    error = exc.value
    assert error.reason == "depth"
    assert error.http_status == 503
    assert error.retry_after == 1.0
    assert exit_code_for(error) == EXIT_SHED


def test_rate_shed_is_a_429_with_a_retry_hint():
    clock = FakeClock()
    ctl = controller(rate=2.0, burst=1, max_inflight=8, clock=clock)
    ctl.acquire()
    ctl.release()
    with pytest.raises(ServiceShed) as exc:
        ctl.acquire()
    error = exc.value
    assert error.reason == "rate"
    assert error.http_status == 429
    assert error.retry_after == pytest.approx(0.5)


def test_depth_is_checked_before_rate():
    # Saturated pool AND empty bucket: the refusal must name "depth" (a
    # token must not be burned on a request that is refused anyway).
    ctl = controller(rate=1.0, burst=1, max_inflight=1)
    ctl.acquire()
    ctl.bucket.drain_tokens()
    with pytest.raises(ServiceShed) as exc:
        ctl.acquire()
    assert exc.value.reason == "depth"


def test_release_reopens_the_window():
    ctl = controller(max_inflight=1)
    ctl.acquire()
    with pytest.raises(ServiceShed):
        ctl.acquire()
    ctl.release()
    assert ctl.acquire().mode == "full"
    assert ctl.inflight == 1


def test_admit_context_manager_releases_even_on_error():
    ctl = controller(max_inflight=2)
    with pytest.raises(RuntimeError):
        with ctl.admit() as decision:
            assert decision.mode == "full"
            assert ctl.inflight == 1
            raise RuntimeError("work blew up")
    assert ctl.inflight == 0


def test_decisions_are_counted_into_the_ambient_observer():
    obs = Observer(trace=False, metrics=True)
    with _obs.observe(obs):
        ctl = controller(max_inflight=2, soft_inflight=1)
        ctl.acquire()           # full
        ctl.acquire()           # degraded
        with pytest.raises(ServiceShed):
            ctl.acquire()       # shed depth
    m = obs.metrics
    assert m.count_of("service.admit", decision="full") == 1
    assert m.count_of("service.admit", decision="degraded") == 1
    assert m.count_of("service.admit", decision="shed", reason="depth") == 1


def test_soft_threshold_validation():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=2, soft_inflight=3)
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=0)
