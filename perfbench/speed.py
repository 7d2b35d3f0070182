"""CPU-speed samples that put the benchmark's timings on a fixed scale.

On a shared host the CPU speed one process gets swings from second to
second: on the 2-core box this benchmark was built on, a fixed kernel took
anywhere from 1.8 to 2.9 ms, with the state flipping every few seconds.
Raw wall times of the same work then spread by 20-50% across runs.

While a run is timed, a timer signal every `INTERVAL_S` runs two small
calibration kernels in the main thread and records how much CPU time each
took: a step kernel (an interpreter loop, small matrix products,
whole-vector operations and single-row products, the mix iakrec's training
and scoring steps are made of) and a request kernel (JSON parsing, row
gathers, a small product and elementwise functions, the mix of serving one
request). A timed interval is measured in CPU time of the main thread,
which leaves out the time the host gave the CPU to other tenants (the
benchmark pins BLAS to one thread, so the program runs in that thread
alone), and scaled by `REFERENCE_S[kernel] / (mean time of that kernel's
samples around it)`, leaving out samples over `OUTLIER_X` times their
median, which gives the time the work would have taken at a fixed
reference speed. Serving phases are scaled by the request kernel, every
other phase by the step kernel. Kernel and program slow down together
(correlation 0.93-0.97 per second, for both single-row forwards and
whole-table optimizer updates), so the ratio spreads 3-8% where raw times
spread 15-23%. The raw wall times are reported beside the scaled ones.

On this box a kernel sample took up to 15 ms of wall time against 0.5-1 ms
of CPU time while the host ran other tenants for a few seconds at a time.
In wall time those preemptions put 6% of one run's open-loop requests over
20 ms and spread `serve_p95_ms` 0.45 across ten seeds.

While requests are served the timer is paused, and the request generator
takes the samples between lines with `pace`, which also busy-waits for an
open-loop line's due time. A sample taken by the timer would land inside
whichever request was running, where the request's own cache traffic slows
the kernel, and in the open loop it would add its kernel time to that
request's latency. A sleeping generator wakes late by up to a few
milliseconds on a shared host, and that lateness would count as latency
too.

The request kernel is there because one kernel did not fit both kinds of
work. Over one-second windows of open-loop requests, the log of a request's
CPU time followed the log of the request kernel's time with slope 1.09 and
correlation 0.95, and the ratio of the two spread 0.05 (interquartile range
over median); the single-row products followed with slope 0.77 and
correlation 0.86, and their ratio spread 0.13. Over five seeds of
`serve_mix`, the step kernel alone left `serve_p50_ms` spreading 0.09; one
kernel with the request-like work in place of the single-row products gave
0.02 there, but spread `dense_pipeline`'s `pretrain_rec_per_s` 0.15, more
than its raw wall time did (0.11).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import statistics
import time

import numpy as np

Clock = tuple[int, int]

INTERVAL_S = 0.05
# each kernel's time at the box's usual speed; constants, so that runs on one
# machine are comparable across commits
REFERENCE_S = {"step": 0.45e-3, "request": 0.3e-3}
PAD_NS = 250_000_000  # samples this close to an interval also describe it
# a sample this many times the median of its neighbours was preempted (the
# host ran another tenant's vCPU); one such sample would otherwise pull the
# mean of 10-20 samples, and the scale of their interval, down by half
OUTLIER_X = 3.0
WAIT_ROOM_NS = 2_000_000  # `pace` samples only in a gap this long ...
WAIT_STALE_NS = 500_000_000  # ... unless the last sample is this old

_M = np.random.default_rng(0).standard_normal((32, 32))
_W = np.random.default_rng(1).standard_normal((64, 64))
_X = np.ones((1, 64))
_T = np.random.default_rng(2).standard_normal((5000, 16))
_V = np.ones(32768)
_LINE = json.dumps({"user_id": 123, "item_id": 45, "domain_ids": {"scene": 1, "period": 2},
                    "feature_ids": [1, 2, 3, 4]})


def step_kernel() -> None:
    s = 0
    for i in range(1500):
        s += i * i
    for _ in range(10):
        _M @ _M
    for _ in range(3):
        _V * 1.0001
    for _ in range(90):
        _X @ _W


def request_kernel() -> None:
    for _ in range(8):  # parse, gather, a small layer, answer
        d = json.loads(_LINE)
        h = np.tanh(_T[np.asarray(d["feature_ids"])].sum(axis=0)[None, :] @ _W[:16, :16])
        json.dumps({"p": float(np.exp(-h)[0, 0])})


KERNELS = {"step": step_kernel, "request": request_kernel}


class Speedometer:
    def __init__(self):
        self.at_ns: list[int] = []
        self.kernel_ns: dict[str, list[int]] = {k: [] for k in KERNELS}

    def _sample(self, signum=None, frame=None) -> None:
        self.at_ns.append(time.perf_counter_ns())
        for name, kernel in KERNELS.items():
            c0 = time.thread_time_ns()
            kernel()
            self.kernel_ns[name].append(time.thread_time_ns() - c0)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer's samples; `pace` takes them instead."""
        _, interval = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield self
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, interval)

    def pace(self, due_ns: int | None) -> None:
        """Called by a request generator before each line: take a sample
        when the last one is `INTERVAL_S` old and the gap before the line's
        due time has room for it (a closed loop has no due time and always
        has room; a stale last sample is taken regardless), then busy-wait
        until the line is due."""
        now = time.perf_counter_ns()
        since = now - self.at_ns[-1] if self.at_ns else WAIT_STALE_NS
        room = due_ns is None or due_ns - now >= WAIT_ROOM_NS
        if since >= INTERVAL_S * 1e9 and (room or since >= WAIT_STALE_NS):
            self._sample()
        spin_until(due_ns)

    def factor(self, start_ns: int, end_ns: int, kernel: str = "step") -> float:
        """Reference speed over the speed `kernel` measured around [start, end]."""
        lo = bisect.bisect_left(self.at_ns, start_ns - PAD_NS)
        hi = bisect.bisect_right(self.at_ns, end_ns + PAD_NS)
        near = self.kernel_ns[kernel][lo:hi] or self.kernel_ns[kernel]
        cut = OUTLIER_X * statistics.median(near)
        return REFERENCE_S[kernel] * 1e9 / statistics.fmean(k for k in near if k <= cut)

    def seconds(self, start: Clock, end: Clock, kernel: str = "step") -> float:
        """CPU seconds from `start` to `end`, scaled to the reference speed."""
        return (end[1] - start[1]) / 1e9 * self.factor(start[0], end[0], kernel)

    def summary(self) -> dict:
        out: dict = {"samples": len(self.at_ns)}
        for name, times in self.kernel_ns.items():
            k = np.asarray(times, dtype=np.float64) / 1e6
            out.update({f"{name}_ms_p10": float(np.percentile(k, 10)), f"{name}_ms_p50": float(np.percentile(k, 50)),
                        f"{name}_ms_p90": float(np.percentile(k, 90)), f"{name}_ms_max": float(k.max())})
        return out


def clock() -> Clock:
    """(wall clock, CPU clock of this thread), both in ns."""
    return time.perf_counter_ns(), time.thread_time_ns()


def spin_until(due_ns: int | None) -> None:
    if due_ns is not None:
        while time.perf_counter_ns() < due_ns:
            pass


def raw_seconds(start: Clock, end: Clock) -> float:
    """Wall seconds from `start` to `end`."""
    return (end[0] - start[0]) / 1e9
