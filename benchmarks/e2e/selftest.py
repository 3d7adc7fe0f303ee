"""Self-test of the benchmark's own instruments (no ``repro`` import).

    python3 benchmarks/e2e/selftest.py

Checks the span/self-time arithmetic, the percentile-selection rule, and
the open-loop generator against a stub group whose service times are
known: recovered p50/p95, shed accounting, and that a stalled stub shows
up as latency and lateness — not as a lower offered rate.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Tracer, pctl, self_times, tail_percentile  # noqa: E402
from loadgen import poisson_schedule, run_phase  # noqa: E402


def test_self_time_arithmetic() -> None:
    def span(i, parent, t0, t1):
        return {"id": i, "parent": parent, "name": f"s{i}", "t0": t0,
                "t1": t1, "thread": "t"}

    spans = [span(1, 0, 0.0, 10.0),  # root
             span(2, 1, 1.0, 4.0),  # child
             span(3, 1, 3.0, 6.0),  # overlaps child 2 by one second
             span(4, 3, 3.5, 4.5),  # grandchild
             span(5, 1, 9.0, 12.0)]  # child running past its parent's end
    selfs = self_times(spans)
    # Root: 10 s minus the union [1, 6] and the clipped [9, 10].
    assert abs(selfs[1] - 4.0) < 1e-12, selfs
    assert abs(selfs[2] - 3.0) < 1e-12, selfs
    assert abs(selfs[3] - 2.0) < 1e-12, selfs
    assert abs(selfs[4] - 1.0) < 1e-12, selfs


def test_tracer_nesting() -> None:
    tracer = Tracer(True)
    with tracer.span("outer", request=7) as outer:
        with tracer.span("inner", request=7) as inner:
            pass
        with tracer.span("inner", request=7):
            pass
    assert outer["parent"] == 0 and inner["parent"] == outer["id"]
    assert [s["name"] for s in tracer.spans] == ["inner", "inner", "outer"]
    assert all(s["request"] == 7 and s["t1"] >= s["t0"]
               for s in tracer.spans)
    selfs = self_times(tracer.spans)
    total = outer["t1"] - outer["t0"]
    assert abs(sum(selfs.values()) - total) < 1e-9
    off = Tracer(False)
    with off.span("ignored"):
        pass
    assert off.spans == []


def test_percentile_rule() -> None:
    # Ten samples must lie beyond the quoted percentile.
    want = {39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 999: 95,
            1000: 99, 3: 50}
    for n, q in want.items():
        assert tail_percentile(n) == q, (n, tail_percentile(n), q)
    # Serving asks for thirty: 370 cold reads give p90, 2 220 hot ones p95.
    assert tail_percentile(370, 30) == 90 and tail_percentile(2220, 30) == 95


class StubShed(Exception):
    pass


class StubGroup:
    """Infinite-server stub: request ``i`` completes ``service_s(i)`` after
    its submit; sheds above ``cap`` in flight; ``stall`` blocks one submit."""

    def __init__(self, service_s, cap=10 ** 9, stall=(None, 0.0)):
        self.service_s = service_s
        self.cap = cap
        self.stall_at, self.stall_s = stall
        self.done_at: dict[int, float] = {}
        self.submitted = 0
        self.sheds = 0

    def submit(self, kind, **params):
        i = self.submitted
        self.submitted += 1
        if i == self.stall_at:
            time.sleep(self.stall_s)
        now = time.perf_counter()
        inflight = sum(t > now for t in self.done_at.values())
        if inflight >= self.cap:
            self.sheds += 1
            raise StubShed()
        self.done_at[i] = now + self.service_s(i)
        return i

    def result(self, ticket, timeout=None):
        if time.perf_counter() < self.done_at[ticket]:
            raise TimeoutError
        return ticket


def _offer(stub: StubGroup, rate=200.0, duration=1.5, seed=3):
    sched = poisson_schedule(np.random.default_rng(seed), rate, duration,
                             lambda rng: ("bfs", {}))
    res = run_phase(stub, sched, rate, duration, shed_error=StubShed,
                    tracer=Tracer(False))
    return sched, res


def test_loadgen_recovers_known_distribution() -> None:
    # Nine requests in ten take 5 ms, one in ten takes 50 ms.
    stub = StubGroup(lambda i: 0.050 if i % 10 == 9 else 0.005)
    sched, res = _offer(stub)
    lat = res.latencies_ms()
    assert res.attempted == len(sched) == stub.submitted
    assert res.failed == 0 and len(lat) == len(sched)
    assert abs(pctl(lat, 50) - 5.0) < 4.0, pctl(lat, 50)
    assert abs(pctl(lat, 95) - 50.0) < 8.0, pctl(lat, 95)
    assert res.late_ms(95) < 6.0, res.late_ms(95)


def test_loadgen_counts_sheds() -> None:
    stub = StubGroup(lambda i: 0.040, cap=4)
    sched, res = _offer(stub)
    assert stub.sheds > 0
    assert res.count("shed") == stub.sheds
    assert res.count("ok") + res.count("shed") == res.attempted == len(sched)
    assert res.failed == stub.sheds
    assert res.within(100.0) == res.count("ok")
    assert res.outstanding_max <= 4


def test_stall_is_latency_not_lower_rate() -> None:
    stall_s = 0.30
    stub = StubGroup(lambda i: 0.005, stall=(100, stall_s))
    sched, res = _offer(stub)
    # Every scheduled request was still offered...
    assert res.attempted == len(sched) == stub.submitted
    # ...the ones due during the stall were issued late and their latency,
    # measured from the due instant, shows it...
    assert res.late_ms(100) > 0.8 * stall_s * 1e3, res.late_ms(100)
    assert max(res.latencies_ms()) > 0.8 * stall_s * 1e3
    behind = sum(ms > 50.0 for ms in res.latencies_ms())
    assert behind >= 0.5 * stall_s * res.rate, behind
    # ...while the median request never noticed.
    assert pctl(res.latencies_ms(), 50) < 10.0


def main() -> int:
    tests = [v for k, v in sorted(globals().items())
             if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok   {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
