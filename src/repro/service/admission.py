"""Admission control and load shedding for the analysis service.

Two independent pressure signals gate every request *before* any analysis
work happens:

* a :class:`TokenBucket` bounds sustained request **rate** (capacity =
  burst, refill = steady-state requests/second);
* an inflight counter bounds **queue depth** (requests currently being
  served across the thread pool).

:class:`AdmissionController` combines them into one of four decisions:

``full``
    Under both limits: run the normal engine ladder.
``degraded``
    Inflight is past the soft threshold but under the hard cap: still
    admitted, but the server clamps the request to a cheaper engine
    configuration (no fast retries, tighter deadline) -- the kernel ->
    reference -> reject ladder's middle rung.
``shed`` (reason ``rate``)
    The token bucket is empty: HTTP 429 with ``Retry-After`` derived
    from the bucket's refill rate.
``shed`` (reason ``depth``)
    Inflight is at the hard cap: HTTP 503 -- the server is saturated and
    more queueing would only grow latency unboundedly.

Decisions are counted into the ambient observer as ``service.admit`` so
shed rates are visible on ``/metrics``.  The clock is injectable for
deterministic tests; everything is thread-safe and stdlib-only.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServiceShed
from repro.obs import observer as _obs


class TokenBucket:
    """A classic token bucket: ``capacity`` burst, ``rate`` tokens/second.

    ``try_acquire`` is non-blocking -- admission control never queues; it
    answers *now* or tells the client when to come back.  ``rate=None``
    disables rate limiting (the bucket always has a token).
    """

    def __init__(
        self,
        rate: Optional[float],
        capacity: Optional[int] = None,
        clock=time.monotonic,
    ):
        if rate is not None and not (math.isfinite(rate) and rate > 0):
            raise ValueError("rate must be a finite number > 0")
        self.rate = rate
        self.capacity = capacity if capacity is not None else max(1, int(rate or 1))
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._clock = clock
        self._tokens = float(self.capacity)
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._last = now

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks."""
        if self.rate is None:
            return True
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def drain_tokens(self) -> None:
        """Empty the bucket (chaos probes force a deterministic 429)."""
        with self._lock:
            self._last = self._clock()
            self._tokens = 0.0

    def fill_tokens(self) -> None:
        """Refill to capacity (probes that must not be rate-limited)."""
        with self._lock:
            self._last = self._clock()
            self._tokens = float(self.capacity)

    def retry_after(self) -> float:
        """Seconds until one token will be available (0 when disabled)."""
        if self.rate is None:
            return 0.0
        with self._lock:
            self._refill(self._clock())
            deficit = 1.0 - self._tokens
            return max(0.0, deficit / self.rate)

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer for one request.

    ``mode`` is ``"full"`` or ``"degraded"`` for admitted requests.  Shed
    requests are raised as :class:`~repro.errors.ServiceShed` instead, so
    callers that forget to handle shedding fail loudly rather than running
    unadmitted work.
    """

    mode: str


class AdmissionController:
    """Combine rate and depth limits into admit/degrade/shed decisions.

    Use as a context manager around the work being admitted::

        with admission.admit() as decision:   # may raise ServiceShed
            run(degraded=decision.mode == "degraded")

    The ``with`` body holds one inflight slot; the counter is released on
    exit however the work ends.
    """

    def __init__(
        self,
        *,
        rate: Optional[float] = None,
        burst: Optional[int] = None,
        max_inflight: int = 8,
        soft_inflight: Optional[int] = None,
        clock=time.monotonic,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.bucket = TokenBucket(rate, burst, clock=clock)
        self.max_inflight = max_inflight
        # Default soft threshold: degrade in the top half of the window.
        self.soft_inflight = (
            soft_inflight if soft_inflight is not None else max(1, max_inflight // 2)
        )
        if not (1 <= self.soft_inflight <= max_inflight):
            raise ValueError("soft_inflight must be in [1, max_inflight]")
        self._inflight = 0
        self._lock = threading.Lock()
        self.admitted = 0
        self.degraded = 0
        self.shed_rate = 0
        self.shed_depth = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _count(self, decision: str, **labels: str) -> None:
        o = _obs._CURRENT
        if o is not None:
            o.count("service.admit", decision=decision, **labels)

    def acquire(self) -> AdmissionDecision:
        """Claim an inflight slot, or raise :class:`ServiceShed`.

        Depth is checked before rate: when the pool is saturated a token
        would be wasted on a request we must refuse anyway.
        """
        with self._lock:
            if self._inflight >= self.max_inflight:
                self.shed_depth += 1
                self._count("shed", reason="depth")
                raise ServiceShed(
                    f"server saturated ({self._inflight} requests in flight, "
                    f"cap {self.max_inflight})",
                    reason="depth",
                    retry_after=1.0,
                )
            if not self.bucket.try_acquire():
                self.shed_rate += 1
                self._count("shed", reason="rate")
                raise ServiceShed(
                    "request rate limit exceeded",
                    reason="rate",
                    retry_after=round(self.bucket.retry_after(), 3) or 0.1,
                )
            self._inflight += 1
            if self._inflight > self.soft_inflight:
                self.degraded += 1
                self._count("degraded")
                mode = "degraded"
            else:
                self.admitted += 1
                self._count("full")
                mode = "full"
            self._gauge()
            return AdmissionDecision(mode=mode)

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self._gauge()

    def _gauge(self) -> None:
        o = _obs._CURRENT
        if o is not None:
            o.set_gauge("service.inflight", self._inflight)

    def admit(self) -> "_AdmissionScope":
        return _AdmissionScope(self)

    def stats(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "admitted": self.admitted,
                "degraded": self.degraded,
                "shed_rate": self.shed_rate,
                "shed_depth": self.shed_depth,
            }


class _AdmissionScope:
    """Context manager pairing :meth:`acquire` with a guaranteed release."""

    def __init__(self, controller: AdmissionController):
        self._controller = controller
        self.decision: Optional[AdmissionDecision] = None

    def __enter__(self) -> AdmissionDecision:
        self.decision = self._controller.acquire()
        return self.decision

    def __exit__(self, *exc) -> None:
        if self.decision is not None:
            self._controller.release()
