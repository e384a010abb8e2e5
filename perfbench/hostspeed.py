"""Host-speed calibration for the benchmark's timings.

Shared small hosts run a process at very different speeds from one
minute to the next. The hypervisor deschedules the virtual CPU, and
busy neighbours slow the shared core. On a 2-core VM, a fixed
pure-Python loop was seen to take anywhere from 1x to 2x its fastest
time, in phases lasting from under a second to minutes. Medians over
a run cannot remove a phase that lasts longer than the run.

So the benchmark times ops in CPU time of its only thread, which the
guest kernel accounts without the time the hypervisor stole. It also
measures the core's speed with a fixed interpreter-bound kernel
(closure calls, list and dict traffic, integer arithmetic: the
simulator's instruction mix, but none of its code). The kernel runs in
two places:

- right before and right after every op;
- for a tenth of its length every ``SAMPLE_PERIOD_S`` while an op runs,
  from a ``SIGALRM`` handler, so a long op is measured at the speed it
  actually ran at.

An op's CPU seconds, less those of its samples, are scaled by
``(NOMINAL_S / median kernel time) ** SLOPE``. The result reads as
seconds on a host where the kernel takes ``NOMINAL_S``. A change to the
program moves the scaled time in proportion, while a change of host
speed largely does not. The kernel lives only in this directory, so no
program change can speed it up.

``SLOPE`` is below 1 because the kernel stays in the L1 cache: when the
core frees up it speeds up more than the simulator does. Across host
phases, op time went as kernel time to the power 0.7-0.8, and scaling
by the plain ratio over-corrected fast phases by up to about 15% on a
long op.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Kernel time that defines the nominal host (about the kernel's time
#: on a 2-core VM when its neighbours are busy).
NOMINAL_S = 0.010
KERNEL_ITERATIONS = 20_000
KERNEL_REPS = 3
#: In-op samples run KERNEL_ITERATIONS / SAMPLE_FRACTION iterations.
SAMPLE_FRACTION = 10
SAMPLE_PERIOD_S = 0.1
#: Op time went as kernel time to this power across host phases (fitted
#: on a 2-core VM): the kernel stays in L1, so it speeds up more than the
#: simulator when the core frees up.
SLOPE = 0.75


def _kernel(iterations: int) -> int:
    # A collection triggered here would charge the program's heap to
    # the kernel.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel_body(iterations)
    finally:
        if enabled:
            gc.enable()


def _kernel_body(iterations: int) -> int:
    regs = [0] * 16
    table: dict[int, int] = {}
    ops = (
        lambda a, b: a + b,
        lambda a, b: a ^ b,
        lambda a, b: (a * 3 + b) & 0xFFFF,
    )
    for i in range(iterations):
        value = ops[i % 3](regs[(i + 1) & 15], i)
        regs[i & 15] = value
        table[value & 1023] = table.get(value & 1023, 0) + 1
    return len(table)


def calibrate() -> float:
    """Mean CPU seconds of one kernel run, over ``KERNEL_REPS`` runs."""
    started = time.thread_time()
    for _ in range(KERNEL_REPS):
        _kernel(KERNEL_ITERATIONS)
    return (time.thread_time() - started) / KERNEL_REPS


class Timer:
    """Times ops at nominal host speed.

    Use as a context manager around a sequence of :meth:`time` calls;
    it owns ``SIGALRM`` while open, and the sampler runs only while an
    op does.
    """

    def __init__(self) -> None:
        self.speed = 0.0
        #: (perf_counter at start, wall seconds, CPU seconds) per sample.
        self._samples: list[tuple[float, float, float]] = []

    def __enter__(self) -> "Timer":
        self.speed = calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        started, cpu = time.perf_counter(), time.thread_time()
        _kernel(KERNEL_ITERATIONS // SAMPLE_FRACTION)
        self._samples.append((
            started,
            time.perf_counter() - started,
            time.thread_time() - cpu,
        ))

    def time(self, call):
        """Run ``call``; returns ``(result, error, seconds, cpu, scaled)``.

        ``seconds`` and ``cpu`` are the op's host wall and CPU time
        without the sampler's. ``scaled`` is the CPU time at nominal host
        speed. The benchmark is single threaded and barely waits on I/O,
        so CPU time is its wall time less what the hypervisor stole.
        An exception from ``call`` is returned as ``error``, so a
        failed op does not end the caller's sequence."""
        self._samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        started, cpu_started = time.perf_counter(), time.thread_time()
        try:
            result, error = call(), None
        except Exception as exc:  # reported by the caller, per op
            result, error = None, exc
        cpu = time.thread_time() - cpu_started
        ended = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        samples = [s for s in self._samples if s[0] < ended]
        seconds = ended - started - sum(s[1] for s in samples)
        cpu -= sum(s[2] for s in samples)
        before, self.speed = self.speed, calibrate()
        speeds = [before, self.speed] + [
            s[2] * SAMPLE_FRACTION for s in samples
        ]
        scaled = cpu * (NOMINAL_S / statistics.median(speeds)) ** SLOPE
        return result, error, seconds, cpu, scaled
